//! Per-layer numbers for the traced run.
//!
//! Two sources. *Replay*: the benchmark calls a layer's public functions
//! itself, single-threaded, on the first [`REPLAY_EPOCHS`] epochs of the
//! workload's own script, one span per epoch's batch of calls. *Live*:
//! counters and histograms read from the gateway's registry after a pass
//! that ran with `esp_obs::set_enabled(true)`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use esp_core::DeploymentSpec;
use esp_durability::{read_wal_dir, DurabilityConfig, SnapshotStore, WalWriter};
use esp_gateway::{GatewaySnapshot, ReadingSchemas, ShardRouter};
use esp_obs::Registry;
use esp_query::Engine;
use esp_receptors::framing::{FrameReader, FrameWriter};
use esp_receptors::wire::{self, Reading};
use esp_stream::WindowBuffer;
use esp_types::{Chunk, TimeDelta, Value};
use serde_json::Value as Json;

use crate::drive::Res;
use crate::metrics::Values;
use crate::script::Script;
use crate::stats::{percentile, P95};
use crate::trace::Tracer;
use crate::workloads::{
    boundary, Fleet, Kind, Spec, COUNT_WINDOW_EPOCHS, N_SHARDS, PERIOD_MS, REDWOOD_WINDOW_EPOCHS,
};

/// Epochs of the script the replays cover: enough batches for steady
/// per-call numbers, short enough to leave the run's time to the live
/// phases.
pub const REPLAY_EPOCHS: usize = 64;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `total / n`, 0 when there is nothing to divide by.
fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Run every replay, recording spans in `tracer` and numbers in `out`.
/// Needs `script.delivered`, so it runs before the reference consumes it.
pub fn replay(
    spec: &Spec,
    fleet: &Fleet,
    script: &Script,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Res<()> {
    let epochs = script.epochs.min(REPLAY_EPOCHS);
    let batches = replay_edge(fleet, script, epochs, tracer, out)?;
    replay_window(spec, fleet, script, epochs, tracer, out)?;
    replay_query(spec, fleet, script, epochs, tracer, out)?;
    if spec.kind == Kind::DurableEdge {
        replay_wal(&batches, &scratch.join("wal-replay"), tracer, out)?;
    } else {
        for name in [
            "durability.wal_append_ns_per_record",
            "durability.wal_bytes_per_reading",
            "durability.replay_ns_per_record",
        ] {
            out.insert(name, 0.0);
        }
    }
    Ok(())
}

/// What [`check_separation`] found wrong, if anything.
#[derive(Debug, Default, PartialEq)]
pub struct Separation {
    /// The query engine ran on a workload without CQL. A count: wrong
    /// whatever the host was doing.
    pub stray_ticks: Option<String>,
    /// The layer the workload exists to stress is not its largest CPU
    /// share. Derived from timings, so a busy host can cause it.
    pub wrong_order: Option<String>,
}

/// Do the traced run's numbers show the workload stressing the layer it
/// exists to stress? The remedy for a miss on a quiet host is to resize
/// the workload, never to relax this.
///
/// The shares split the process CPU of the traced `saturate` passes (see
/// [`live_saturate`]): `query` is the declarative stages' time including
/// their windows, `core` the rest of the workers' epoch steps, `edge`
/// everything outside the steps.
pub fn check_separation(kind: Kind, v: &Values) -> Separation {
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let (edge, core, query) = (
        get("share.edge_cpu"),
        get("share.core_cpu"),
        get("share.query_cpu"),
    );
    let shares = format!("edge {edge:.2}, core {core:.2}, query+window {query:.2}");
    let wrong_order = match kind {
        Kind::EdgeMix if edge <= core.max(query) => Some(format!(
            "edge-mix: the edge is not the largest share ({shares})"
        )),
        Kind::ShelfCql if query <= edge.max(core) => Some(format!(
            "shelf-cql: query+window is not the largest share ({shares})"
        )),
        _ => None,
    };
    let stray_ticks = (kind != Kind::ShelfCql && (get("query.live_ticks") != 0.0 || query != 0.0))
        .then(|| {
            format!(
                "{kind:?}: the query engine ran ({} live ticks) on a workload without CQL",
                get("query.live_ticks")
            )
        });
    Separation {
        stray_ticks,
        wrong_order,
    }
}

/// receptors (`FrameReader::read_frame` + `wire::decode`), gateway
/// (`ShardRouter::shards_of`, `ReadingSchemas::append_to_chunk`) and
/// types (`Chunk::to_tuples`): the work a reader thread does per frame and
/// the egress does per output row. Returns the decoded readings, one
/// batch per epoch of send order.
fn replay_edge(
    fleet: &Fleet,
    script: &Script,
    epochs: usize,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Res<Vec<Vec<Reading>>> {
    let root = tracer.enter("replay.edge", None);
    let mut batches: Vec<Vec<Reading>> = (0..epochs).map(|_| Vec::new()).collect();
    let (mut frames, mut wire_bytes, mut rejected, mut corrupt_sent) = (0u64, 0u64, 0u64, 0u64);
    for conn in &script.conns {
        // The byte stream as the gateway's socket delivers it.
        let mut writer = FrameWriter::new(Vec::new());
        let n = conn.epoch_ends[epochs - 1] as usize;
        for i in 0..n {
            writer.write_raw(conn.frame(i))?;
        }
        let stream = writer.into_inner();
        wire_bytes += stream.len() as u64;
        frames += n as u64;
        corrupt_sent += n as u64 - u64::from(conn.epoch_clean_ends[epochs - 1]);
        let mut reader = FrameReader::new(&stream[..]);
        let mut done = 0;
        for (k, batch) in batches.iter_mut().enumerate() {
            let span = tracer.enter("receptors.decode", Some(k as u64));
            for _ in done..conn.epoch_ends[k] as usize {
                let frame = reader.read_frame()?.ok_or("wire stream ended early")?;
                match wire::decode(&frame) {
                    Ok(reading) => batch.push(reading),
                    Err(_) => rejected += 1,
                }
            }
            tracer.exit(span);
            done = conn.epoch_ends[k] as usize;
        }
    }
    let readings: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let decode_ns = tracer.total_by_name()["receptors.decode"];
    out.insert("receptors.decode_ns_per_frame", per(decode_ns, frames));
    out.insert("receptors.bytes_per_reading", per(wire_bytes, readings));
    out.insert(
        "receptors.corrupt_rejected_frac",
        if corrupt_sent == 0 {
            1.0
        } else {
            rejected as f64 / corrupt_sent as f64
        },
    );

    let router = ShardRouter::new(&fleet.groups, N_SHARDS);
    let schemas = ReadingSchemas::new();
    let mut chunks: Vec<Vec<Chunk>> = Vec::with_capacity(epochs);
    for (k, batch) in batches.iter().enumerate() {
        tracer.span("gateway.route", Some(k as u64), || {
            for r in batch {
                black_box(router.shards_of(r.receptor()));
            }
        });
        let mut per_receptor: Vec<Option<Chunk>> = vec![None; fleet.receptors.len()];
        let span = tracer.enter("gateway.append", Some(k as u64));
        for r in batch {
            let chunk = per_receptor[r.receptor().0 as usize]
                .get_or_insert_with(|| Chunk::new(schemas.schema_for(r)));
            schemas.append_to_chunk(r, chunk)?;
        }
        tracer.exit(span);
        chunks.push(per_receptor.into_iter().flatten().collect());
    }
    for (k, epoch_chunks) in chunks.iter().enumerate() {
        tracer.span("types.to_tuples", Some(k as u64), || {
            for c in epoch_chunks {
                black_box(c.to_tuples());
            }
        });
    }
    let totals = tracer.total_by_name();
    out.insert(
        "gateway.route_ns_per_reading",
        per(totals["gateway.route"], readings),
    );
    out.insert(
        "gateway.append_ns_per_reading",
        per(totals["gateway.append"], readings),
    );
    out.insert(
        "types.chunk_to_tuples_ns_per_row",
        per(totals["types.to_tuples"], readings),
    );
    tracer.exit(root);
    Ok(batches)
}

/// stream: `WindowBuffer` push and advance at the workload's own window
/// width, one buffer per receptor as the Smooth stages keep them. Native
/// stages push restamped rows; the declarative stage pushes chunks.
fn replay_window(
    spec: &Spec,
    fleet: &Fleet,
    script: &Script,
    epochs: usize,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Res<()> {
    let width = match spec.kind {
        Kind::EdgeMix => TimeDelta::ZERO,
        Kind::ShelfCql | Kind::DurableEdge => {
            TimeDelta::from_millis(COUNT_WINDOW_EPOCHS * PERIOD_MS)
        }
        Kind::RedwoodNative => TimeDelta::from_millis(REDWOOD_WINDOW_EPOCHS * PERIOD_MS),
    };
    let root = tracer.enter("replay.stream", None);
    let mut windows: Vec<WindowBuffer> = fleet
        .receptors
        .iter()
        .map(|_| WindowBuffer::new(width))
        .collect();
    let (mut rows, mut peak) = (0u64, 0usize);
    for k in 0..epochs {
        let epoch = boundary(k);
        let mut inputs: Vec<(usize, Chunk)> = Vec::new();
        for (r, per_epoch) in script.delivered.iter().enumerate() {
            if let Some(chunk) = &per_epoch[k] {
                let mut chunk = chunk.clone();
                chunk.restamp(epoch);
                rows += chunk.len() as u64;
                inputs.push((r, chunk));
            }
        }
        if spec.kind == Kind::ShelfCql {
            tracer.span("stream.window_push", Some(k as u64), || {
                for (r, chunk) in &inputs {
                    windows[*r].push_chunk(chunk);
                }
            });
        } else {
            let tuples: Vec<(usize, Vec<_>)> =
                inputs.iter().map(|(r, c)| (*r, c.to_tuples())).collect();
            tracer.span("stream.window_push", Some(k as u64), || {
                for (r, batch) in tuples {
                    for t in batch {
                        windows[r].push(t);
                    }
                }
            });
        }
        tracer.span("stream.window_advance", Some(k as u64), || {
            for w in &mut windows {
                w.advance_to(epoch);
            }
        });
        peak = peak.max(windows.iter().map(WindowBuffer::len).sum());
    }
    tracer.exit(root);
    let totals = tracer.total_by_name();
    out.insert(
        "stream.window_push_ns_per_row",
        per(totals["stream.window_push"], rows),
    );
    out.insert(
        "stream.window_advance_us_per_epoch",
        per(totals["stream.window_advance"], epochs as u64) / 1e3,
    );
    out.insert("stream.window_rows_peak", peak as f64);
    Ok(())
}

/// query: compile the workload's CQL, then drive one compiled instance of
/// its per-receptor query per reader through `push_chunk`/`tick_chunk`,
/// as the declarative Smooth stage does. Zero everywhere on the
/// workloads that deploy no CQL.
fn replay_query(
    spec: &Spec,
    fleet: &Fleet,
    script: &Script,
    epochs: usize,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Res<()> {
    let cql = spec.cql();
    let Some(&(_, _, smooth_sql)) = cql.first() else {
        for name in [
            "query.compile_ms",
            "query.tick_ns_per_row",
            "query.tick_p95_us",
            "query.groups_peak",
        ] {
            out.insert(name, 0.0);
        }
        return Ok(());
    };
    let root = tracer.enter("replay.query", None);
    let engine = Engine::new();
    let doc = DeploymentSpec::from_json(&spec.deployment_json(fleet))?;
    let entry = doc.entry_schema().ok_or("deployment has no entry schema")?;
    let t0 = Instant::now();
    tracer.span("query.compile", None, || -> Res<()> {
        for (_, _, sql) in &cql {
            engine.compile(sql)?;
        }
        Ok(())
    })?;
    out.insert("query.compile_ms", t0.elapsed().as_secs_f64() * 1e3);

    let mut queries = Vec::with_capacity(fleet.receptors.len());
    for _ in &fleet.receptors {
        let probe = engine.compile(smooth_sql)?;
        let stream = probe
            .input_streams()
            .first()
            .cloned()
            .ok_or("query reads no stream")?;
        queries.push((
            engine.compile_with_schemas(smooth_sql, &[(stream.as_str(), entry.clone())])?,
            stream,
        ));
    }
    let (mut rows, mut groups_peak, mut tick_us) = (0u64, 0usize, Vec::new());
    for k in 0..epochs {
        let epoch = boundary(k);
        let mut inputs = Vec::new();
        for (r, per_epoch) in script.delivered.iter().enumerate() {
            if let Some(chunk) = &per_epoch[k] {
                let granule = Value::str(&fleet.groups[fleet.receptors[r].group].granule);
                rows += chunk.len() as u64;
                inputs.push((r, chunk.with_appended(&entry, granule)?));
            }
        }
        let span = tracer.enter("query.push_chunk", Some(k as u64));
        for (r, chunk) in inputs {
            let (query, stream) = &mut queries[r];
            query.push_chunk(stream, chunk)?;
        }
        tracer.exit(span);
        let span = tracer.enter("query.tick_chunk", Some(k as u64));
        for (query, _) in &mut queries {
            let t = Instant::now();
            let result = query.tick_chunk(epoch)?;
            tick_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            groups_peak = groups_peak.max(result.len());
        }
        tracer.exit(span);
    }
    tracer.exit(root);
    let totals = tracer.total_by_name();
    out.insert(
        "query.tick_ns_per_row",
        per(
            totals["query.push_chunk"] + totals["query.tick_chunk"],
            rows,
        ),
    );
    out.insert("query.tick_p95_us", percentile(&tick_us, P95));
    out.insert("query.groups_peak", groups_peak as f64);
    Ok(())
}

/// durability: `WalWriter` append and the per-epoch flush marker (the
/// fsync point), then `read_wal_dir` over what was written.
fn replay_wal(
    batches: &[Vec<Reading>],
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Res<()> {
    let _ = std::fs::remove_dir_all(dir);
    let root = tracer.enter("replay.durability", None);
    let mut writer = WalWriter::open(dir, DurabilityConfig::new(dir).segment_bytes)?;
    let mut readings = 0u64;
    for (k, batch) in batches.iter().enumerate() {
        let frames: Vec<_> = batch.iter().map(|r| (wire::encode(r), r.ts())).collect();
        readings += frames.len() as u64;
        let span = tracer.enter("durability.wal_append", Some(k as u64));
        for (frame, ts) in &frames {
            writer.append_reading(frame, *ts)?;
        }
        tracer.exit(span);
        tracer.span("durability.wal_sync", Some(k as u64), || {
            writer.append_flush(boundary(k))
        })?;
    }
    drop(writer);
    let bytes: u64 = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let records = tracer.span("durability.read_wal", None, || read_wal_dir(dir))?;
    tracer.exit(root);
    let totals = tracer.total_by_name();
    out.insert(
        "durability.wal_append_ns_per_record",
        per(totals["durability.wal_append"], readings),
    );
    out.insert("durability.wal_bytes_per_reading", per(bytes, readings));
    out.insert(
        "durability.replay_ns_per_record",
        per(totals["durability.read_wal"], records.len() as u64),
    );
    std::fs::remove_dir_all(dir)?;
    Ok(())
}

/// Time loading each shard's newest snapshot from a killed gateway's
/// directory, in milliseconds.
pub fn snapshot_load_ms(dir: &Path, tracer: &mut Tracer) -> Res<f64> {
    let t0 = Instant::now();
    tracer.span("durability.snapshot_load", None, || -> Res<()> {
        let store = SnapshotStore::open(&DurabilityConfig::new(dir).snapshot_dir())?;
        for shard in 0..N_SHARDS {
            black_box(store.latest_valid(shard)?);
        }
        Ok(())
    })?;
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

/// One metric of a rendered registry document.
struct Sample<'a> {
    name: &'a str,
    node: Option<&'a str>,
    doc: &'a Json,
}

impl Sample<'_> {
    fn field(&self, key: &str) -> f64 {
        self.doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

fn samples(doc: &Json) -> Vec<Sample<'_>> {
    doc.get("metrics")
        .and_then(Json::as_array)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|m| {
                    Some(Sample {
                        name: m.get("name")?.as_str()?,
                        node: m
                            .get("labels")
                            .and_then(|l| l.get("node"))
                            .and_then(Json::as_str),
                        doc: m,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Process-global counters the query engine and the window buffer keep;
/// read before and after a traced pass, the difference is that pass's.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalCounters {
    row_ticks: u64,
    chunk_ticks: u64,
    row_pushes: u64,
    chunk_pushes: u64,
}

impl GlobalCounters {
    /// Read the current values.
    pub fn read() -> GlobalCounters {
        let g = esp_obs::global();
        let c = |name| g.counter_value(name, &[]).unwrap_or(0);
        GlobalCounters {
            row_ticks: c("esp_query_row_ticks_total"),
            chunk_ticks: c("esp_query_chunk_ticks_total"),
            row_pushes: c("esp_stream_window_row_pushes_total"),
            chunk_pushes: c("esp_stream_window_chunk_pushes_total"),
        }
    }

    /// Query ticks, row and chunk path together.
    pub fn ticks(&self) -> u64 {
        self.row_ticks + self.chunk_ticks
    }

    /// Counts since `earlier`.
    pub fn since(&self, earlier: &GlobalCounters) -> GlobalCounters {
        GlobalCounters {
            row_ticks: self.row_ticks - earlier.row_ticks,
            chunk_ticks: self.chunk_ticks - earlier.chunk_ticks,
            row_pushes: self.row_pushes - earlier.row_pushes,
            chunk_pushes: self.chunk_pushes - earlier.chunk_pushes,
        }
    }
}

/// Numbers read after the traced `saturate` pass: where the CPU went and
/// how the queues behaved under full load. `cql_stages` names the
/// declarative stages, whose spans are the query layer's.
///
/// The three `share.*_cpu` numbers split the pass's process CPU (less
/// the generator's): the workers' `esp_stream_epoch_step_nanos` spans are
/// `query` (declarative stage nodes, their windows included) plus `core`
/// (the rest of each step); what is left was spent outside the steps, at
/// the edge: socket reads, checksum, decode, route, queues, chunk append.
/// The spans are wall time, so a worker preempted mid-step overstates
/// query and core at the edge's expense. The pass's shares are returned
/// as `[edge, core, query]` for the caller to pool over the traced
/// passes; every other number is inserted, so the latest pass's stands.
pub fn live_saturate(
    pass: &crate::drive::SaturatePass,
    cql_stages: &[&str],
    global: GlobalCounters,
    out: &mut Values,
) -> Res<[f64; 3]> {
    let (registry, stats, wall_s): (&Registry, &GatewaySnapshot, f64) =
        (&pass.registry, &pass.output.stats, pass.wall_s);
    out.insert("gateway.readings", stats.readings as f64);
    out.insert("gateway.corrupt_frames", stats.corrupt_frames as f64);
    out.insert("gateway.unroutable", stats.unroutable as f64);
    out.insert("gateway.io_errors", stats.io_errors as f64);
    out.insert("gateway.queue_blocked_frac", stats.blocked_fraction());
    let max = stats.shard_readings.iter().copied().max().unwrap_or(0);
    let mean = per(
        stats.shard_readings.iter().sum(),
        stats.shard_readings.len() as u64,
    );
    out.insert(
        "gateway.shard_skew",
        if mean == 0.0 { 0.0 } else { max as f64 / mean },
    );
    out.insert("durability.checkpoints", stats.checkpoints as f64);
    out.insert("durability.checkpoint_cpu_ms", ms(stats.checkpoint_nanos));

    let t0 = Instant::now();
    let text = registry.render_json_with(&[esp_obs::global()]);
    black_box(registry.render_text_with(&[esp_obs::global()]));
    out.insert("obs.render_ms", t0.elapsed().as_secs_f64() * 1e3 / 2.0);
    let doc: Json = serde_json::from_str(&text)?;
    let (mut step_ns, mut stage_ns) = (0.0, [0.0f64; 3]);
    let (mut all_nodes_ns, mut query_ns) = (0.0, 0.0);
    for s in samples(&doc) {
        match (s.name, s.node) {
            ("esp_stream_epoch_step_nanos", _) => step_ns += s.field("sum"),
            ("esp_stream_node_flush_nanos", Some(node)) => {
                all_nodes_ns += s.field("sum");
                if cql_stages.contains(&node) {
                    query_ns += s.field("sum");
                }
                if let Some(i) = ["point", "smooth", "merge"].iter().position(|n| *n == node) {
                    stage_ns[i] += s.field("sum");
                }
            }
            ("esp_gateway_wal_flush_nanos", _) => {
                out.insert("durability.wal_sync_p95_us", s.field("p95") / 1e3);
            }
            _ => {}
        }
    }
    out.entry("durability.wal_sync_p95_us").or_insert(0.0);
    out.insert(
        "stream.epoch_step_busy_frac",
        step_ns / 1e9 / (wall_s * N_SHARDS as f64),
    );
    for (name, ns) in [
        "core.stage_point_share",
        "core.stage_smooth_share",
        "core.stage_merge_share",
    ]
    .into_iter()
    .zip(stage_ns)
    {
        out.insert(
            name,
            if all_nodes_ns == 0.0 {
                0.0
            } else {
                ns / all_nodes_ns
            },
        );
    }
    let cpu_ns = pass.cpu_s * 1e9;
    out.insert(
        "stream.window_chunk_push_frac",
        per(global.chunk_pushes, global.chunk_pushes + global.row_pushes),
    );
    out.insert(
        "query.chunk_tick_frac",
        per(global.chunk_ticks, global.ticks()),
    );
    out.insert("query.live_ticks", global.ticks() as f64);
    Ok([
        1.0 - step_ns / cpu_ns,
        (step_ns - query_ns) / cpu_ns,
        query_ns / cpu_ns,
    ])
}

/// Numbers read after the traced `paced` pass: the latency-side
/// histograms at the fixed rate.
pub fn live_paced(registry: &Registry, out: &mut Values) {
    let hist = |name| registry.histogram_snapshot(name, &[]);
    let q = |h: &Option<esp_obs::HistogramSnapshot>, q: f64| {
        h.as_ref().and_then(|h| h.quantile(q)).unwrap_or(0) as f64
    };
    let flush = hist("esp_gateway_flush_latency_us");
    out.insert("gateway.flush_p50_us", q(&flush, 0.5));
    out.insert("gateway.flush_p95_us", q(&flush, 0.95));
    out.insert(
        "gateway.queue_wait_p95_us",
        q(&hist("esp_gateway_queue_wait_nanos"), 0.95) / 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(edge: f64, core: f64, query: f64, ticks: f64) -> Values {
        [
            ("share.edge_cpu", edge),
            ("share.core_cpu", core),
            ("share.query_cpu", query),
            ("query.live_ticks", ticks),
        ]
        .into()
    }

    #[test]
    fn separation_guard_wants_the_named_layer_on_top_and_no_stray_ticks() {
        let clean = Separation::default();
        assert_eq!(
            check_separation(Kind::EdgeMix, &shares(0.6, 0.4, 0.0, 0.0)),
            clean
        );
        let miss = check_separation(Kind::EdgeMix, &shares(0.4, 0.6, 0.0, 0.0));
        assert!(miss.wrong_order.is_some() && miss.stray_ticks.is_none());
        assert_eq!(
            check_separation(Kind::ShelfCql, &shares(0.3, 0.2, 0.5, 3e4)),
            clean
        );
        let miss = check_separation(Kind::ShelfCql, &shares(0.5, 0.2, 0.3, 3e4));
        assert!(miss.wrong_order.is_some() && miss.stray_ticks.is_none());
        // Workloads without CQL may have any split but never a query tick.
        assert_eq!(
            check_separation(Kind::RedwoodNative, &shares(0.2, 0.8, 0.0, 0.0)),
            clean
        );
        for kind in [Kind::EdgeMix, Kind::RedwoodNative, Kind::DurableEdge] {
            let stray = check_separation(kind, &shares(0.7, 0.3, 0.0, 1.0));
            assert!(stray.stray_ticks.is_some() && stray.wrong_order.is_none());
        }
    }

    #[test]
    fn registry_documents_are_read_by_name_and_node_label() {
        let registry = Registry::new();
        registry
            .histogram(
                "esp_stream_node_flush_nanos",
                &[("node", "smooth"), ("shard", "0")],
            )
            .record(40);
        registry
            .histogram("esp_stream_epoch_step_nanos", &[("shard", "0")])
            .record(100);
        let doc: Json = serde_json::from_str(&registry.render_json()).unwrap();
        let all = samples(&doc);
        let node = all
            .iter()
            .find(|s| s.node == Some("smooth"))
            .expect("node sample");
        assert_eq!(node.name, "esp_stream_node_flush_nanos");
        assert_eq!(node.field("sum"), 40.0);
        let step = all
            .iter()
            .find(|s| s.name == "esp_stream_epoch_step_nanos")
            .unwrap();
        assert_eq!((step.node, step.field("sum")), (None, 100.0));
    }
}
