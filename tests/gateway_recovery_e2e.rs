//! Crash-recovery end-to-end: the durability contract is *byte-identical
//! replay*. Whether a single shard worker dies mid-epoch (fault
//! injection) or the whole gateway process is killed and restarted on the
//! same durability directory, the recovered output must equal the
//! uninterrupted single-process run — not approximately, exactly. The
//! worker-crash and killed-gateway scenarios also run over a compiled-query
//! cascade, whose window state rides the same snapshots and WAL.

use std::path::PathBuf;

use esp_core::{DeclarativeStage, Pipeline, SmoothStage};
use esp_gateway::{DurabilityConfig, Gateway, GatewayConfig, GatewayOutput};
use esp_integration_tests::gateway_harness::{
    groups, rendered, run_gateway_clients, single_process_trace,
};
use esp_types::{TimeDelta, Ts};

// RFID receptors only: the smoothing stage below keys on `tag_id`, which
// scalar mote readings don't carry (same scope as the stateful e2e test).
const RECEPTORS: [u32; 2] = [0, 1];
/// Epochs 0, 500, …, first boundary covering max ts (1900 ms) ⇒ 5.
const N_EPOCHS: u64 = 5;

fn period() -> TimeDelta {
    TimeDelta::from_millis(500)
}

fn lateness() -> TimeDelta {
    TimeDelta::from_millis(100)
}

/// The stateful cascade both runs share: smoothing state must survive the
/// crash for the outputs to match.
fn pipeline() -> Pipeline {
    Pipeline::builder()
        .per_receptor("smooth", |_| {
            Ok(Box::new(SmoothStage::count_by_key(
                "smooth",
                TimeDelta::from_secs(5),
                ["spatial_granule", "tag_id"],
            )))
        })
        .build()
}

/// The same shape in CQL: a pane fold per reader, then a holistic
/// `count(DISTINCT …)` (a row window) per shelf. Its output carries the
/// fold's counts and its own window's contents, so losing either state in
/// a recovery changes the bytes.
fn cql_pipeline() -> Pipeline {
    let stage = |name: &'static str, sql: &'static str| {
        move |_: &esp_core::StageCtx| -> esp_types::Result<Box<dyn esp_core::Stage>> {
            let query = esp_query::Engine::new().compile(sql)?;
            Ok(Box::new(DeclarativeStage::new(name, query)?))
        }
    };
    Pipeline::builder()
        .per_receptor(
            "smooth",
            stage(
                "smooth",
                "SELECT spatial_granule, tag_id, count(*) AS n FROM smooth_input \
                 [Range By '5 sec'] GROUP BY spatial_granule, tag_id",
            ),
        )
        .per_group(
            "tags",
            stage(
                "tags",
                "SELECT spatial_granule, tag_id, max(n) AS n, count(DISTINCT n) AS levels \
                 FROM tags_input [Range By '1 sec'] GROUP BY spatial_granule, tag_id",
            ),
        )
        .build()
}

/// Builds one of the cascades below.
type Cascade = fn() -> Pipeline;

/// Each cascade the crash scenarios run over.
const CASCADES: [(&str, Cascade); 2] = [("native", pipeline), ("cql", cql_pipeline)];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esp-recovery-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &std::path::Path, checkpoint: TimeDelta) -> GatewayConfig {
    let mut config = GatewayConfig::new(groups());
    config.n_shards = 2;
    config.period = period();
    config.min_connections = RECEPTORS.len();
    config.durability = Some(DurabilityConfig::new(dir).checkpoint_every(checkpoint));
    config
}

fn assert_byte_identical(output: &GatewayOutput) {
    assert_matches_run_of(output, pipeline);
}

fn assert_matches_run_of(output: &GatewayOutput, cascade: Cascade) {
    let merged = output.merged_trace();
    let expected = single_process_trace(&cascade(), &RECEPTORS, Ts::ZERO, period(), N_EPOCHS);
    assert_eq!(rendered(&merged), rendered(&expected));
    assert!(
        merged.iter().map(|(_, b)| b.len()).sum::<usize>() > 0,
        "trace carries data"
    );
}

#[test]
fn durable_gateway_without_faults_matches_single_process_run() {
    let dir = fresh_dir("baseline");
    let gateway = Gateway::spawn(durable_config(&dir, period()), |_| pipeline()).unwrap();
    run_gateway_clients(&gateway, &RECEPTORS, lateness());
    let output = gateway.finish().unwrap();

    assert_byte_identical(&output);
    assert_eq!(output.stats.crashes, 0);
    // 40 readings + one flush marker per issued epoch, all logged.
    assert!(output.stats.wal_records > 40, "{:?}", output.stats);
    assert!(output.stats.checkpoints > 0, "{:?}", output.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_crash_mid_epoch_recovers_byte_identical() {
    for (name, cascade) in CASCADES {
        let dir = fresh_dir(&format!("worker-crash-{name}"));
        // Checkpoint every epoch so the crash lands past a snapshot and
        // the recovery genuinely composes snapshot + WAL suffix.
        let gateway = Gateway::spawn(durable_config(&dir, period()), |_| cascade()).unwrap();
        // Arm every shard: each live worker dies right after its second
        // flush, mid-stream, with readings still arriving and epochs
        // still open.
        for shard in 0..2 {
            gateway.inject_crash(shard, 2);
        }
        run_gateway_clients(&gateway, &RECEPTORS, lateness());
        let output = gateway.finish().unwrap();

        assert_matches_run_of(&output, cascade);
        assert!(output.stats.crashes >= 1, "{name}: {:?}", output.stats);
        assert!(output.stats.checkpoints > 0, "{name}: {:?}", output.stats);
        // Every live shard recovers once at startup (empty log) and once
        // per injected crash.
        assert!(
            output.stats.recoveries > output.stats.crashes,
            "{name}: {:?}",
            output.stats
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wal_truncation_fires_and_recovery_survives_it() {
    let dir = fresh_dir("truncation");
    // Tiny segments + a retention window far shorter than the run, so
    // segment reclamation (and the snapshot-durability pin that gates
    // it) actually executes — every other test leaves the default
    // 1-minute retention and never truncates.
    let mut config = durable_config(&dir, period());
    config.durability = Some(
        DurabilityConfig::new(&dir)
            .checkpoint_every(period())
            .retain_wal(TimeDelta::from_millis(100))
            .segment_size(256),
    );

    let gateway = Gateway::spawn(config.clone(), |_| pipeline()).unwrap();
    run_gateway_clients(&gateway, &RECEPTORS, lateness());
    let output = gateway.finish().unwrap();
    assert_byte_identical(&output);

    // Old segments were actually reclaimed: the surviving log no longer
    // starts at sequence zero.
    let first_base = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("wal-")?
                .strip_suffix(".seg")?
                .parse::<u64>()
                .ok()
        })
        .min()
        .expect("log has segments");
    assert!(first_base > 0, "no segment was reclaimed");

    // A restart on the truncated directory must come up clean (snapshots
    // cover everything the log no longer holds) and agree with the
    // original run wherever it re-emits.
    let revived = Gateway::spawn(config, |_| pipeline()).unwrap();
    let replayed = revived.finish().unwrap();
    assert_eq!(replayed.stats.readings, 0, "no live ingest after restart");
    let original = output.merged_trace();
    for (ts, batch) in &replayed.merged_trace() {
        let orig = original
            .iter()
            .find(|(t, _)| t == ts)
            .unwrap_or_else(|| panic!("replayed epoch {ts:?} never ran"));
        assert_eq!(format!("{batch:?}"), format!("{:?}", orig.1));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_gateway_restarts_from_wal_byte_identical() {
    for (name, cascade) in CASCADES {
        let dir = fresh_dir(&format!("restart-{name}"));
        // Checkpoint interval far beyond the run: recovery must work from
        // the WAL alone (the restarted workers replay every record).
        let config = durable_config(&dir, TimeDelta::from_secs(3600));

        let gateway = Gateway::spawn(config.clone(), |_| cascade()).unwrap();
        run_gateway_clients(&gateway, &RECEPTORS, lateness());
        // Hard stop: no drain sweep, all in-memory worker output discarded.
        gateway.kill().unwrap();

        // Second process on the same directory: no clients this time —
        // every reading must come back from the log.
        let revived = Gateway::spawn(config, |_| cascade()).unwrap();
        let output = revived.finish().unwrap();

        assert_matches_run_of(&output, cascade);
        assert_eq!(
            output.stats.readings, 0,
            "{name}: no live ingest after restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_loop_three_restarts_converges_byte_identical() {
    let dir = fresh_dir("crash-loop");
    let config = durable_config(&dir, TimeDelta::from_secs(3600));

    let gateway = Gateway::spawn(config.clone(), |_| pipeline()).unwrap();
    run_gateway_clients(&gateway, &RECEPTORS, lateness());
    gateway.kill().unwrap();

    // Two more kill/restart rounds: each replays the log, then dies again
    // before draining. The log must come through untouched.
    for _ in 0..2 {
        let g = Gateway::spawn(config.clone(), |_| pipeline()).unwrap();
        g.kill().unwrap();
    }

    let survivor = Gateway::spawn(config, |_| pipeline()).unwrap();
    let output = survivor.finish().unwrap();
    assert_byte_identical(&output);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrite every snapshot under `dir` as a well-formed *format-1* file
/// (version field patched, FNV-1a trailer recomputed): what a binary from
/// before the pane-incremental Smooth — whose snapshots hold the window as
/// raw tuples — leaves behind for its successor. Returns how many files
/// were rewritten.
fn downgrade_snapshots_to_v1(dir: &std::path::Path) -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir(DurabilityConfig::new(dir).snapshot_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "snap") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 4);
        bytes[4..6].copy_from_slice(&1u16.to_be_bytes());
        let crc = bytes.iter().fold(0x811c_9dc5u32, |h, b| {
            (h ^ u32::from(*b)).wrapping_mul(0x0100_0193)
        });
        bytes.extend_from_slice(&crc.to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        n += 1;
    }
    n
}

#[test]
fn v1_snapshots_are_skipped_and_recovery_falls_back_to_the_wal() {
    let dir = fresh_dir("v1-snapshots");
    // Checkpoint every epoch (so snapshots exist) with the default WAL
    // retention (so the log still reaches back to its first record).
    let config = durable_config(&dir, period());
    let gateway = Gateway::spawn(config.clone(), |_| pipeline()).unwrap();
    run_gateway_clients(&gateway, &RECEPTORS, lateness());
    // A graceful stop, so that every epoch was flushed and checkpointed
    // (a kill may land before the first checkpoint and leave nothing to
    // downgrade).
    gateway.finish().unwrap();
    assert!(downgrade_snapshots_to_v1(&dir) > 0, "run left no snapshot");

    // Every snapshot is now from an older format: none may be restored
    // (its Smooth blob is a tuple window, not panes); the log alone must
    // rebuild the same bytes.
    let revived = Gateway::spawn(config, |_| pipeline()).unwrap();
    let output = revived.finish().unwrap();
    assert_byte_identical(&output);
    assert_eq!(output.stats.readings, 0, "no live ingest after restart");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_snapshots_over_a_reclaimed_wal_refuse_recovery_with_a_snapshot_error() {
    let dir = fresh_dir("v1-reclaimed");
    // As `wal_truncation_fires_and_recovery_survives_it`: the log's prefix
    // is reclaimed on the strength of the snapshots…
    let mut config = durable_config(&dir, period());
    config.durability = Some(
        DurabilityConfig::new(&dir)
            .checkpoint_every(period())
            .retain_wal(TimeDelta::from_millis(100))
            .segment_size(256),
    );
    let gateway = Gateway::spawn(config.clone(), |_| pipeline()).unwrap();
    run_gateway_clients(&gateway, &RECEPTORS, lateness());
    gateway.finish().unwrap();
    // …which then turn out to be unreadable by this binary.
    assert!(downgrade_snapshots_to_v1(&dir) > 0, "run left no snapshot");

    // Neither source can stand in for the other, so the gateway must say
    // so — with the snapshot layer's own typed error — rather than replay
    // the surviving suffix into empty windows.
    let err = Gateway::spawn(config, |_| pipeline())
        .and_then(Gateway::finish)
        .expect_err("recovery from a headless log must be refused");
    assert!(
        matches!(&err, esp_types::EspError::Snapshot(m) if m.contains("unsupported snapshot version 1")),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
