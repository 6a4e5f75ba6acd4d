//! One workload, one process: generate, check, measure, report.
//!
//! A run sizes its script from `--seconds` so that [`PACED_PASSES`] open-
//! loop passes plus [`SATURATE_PASSES`] closed-loop passes over it (each of
//! which, at a paced rate near half of saturate throughput, takes about
//! half as long) fill that time. Many short passes rather than few long
//! ones: how the gateway's threads happen to land on the two cores is
//! settled when a gateway starts and holds for its lifetime, so pass-to-
//! pass scatter (±10% on the seed commit) does not shrink with pass length
//! but does average out over passes.
//!
//! The untraced run (`--trace 0`) measures the end-to-end metrics with the
//! optional instrumentation off; the traced run replays the layers,
//! repeats passes of each phase with it on, and reports the per-layer
//! metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use esp_gateway::GatewayOutput;

use crate::drive::{self, Ctx, Res};
use crate::layers::{self, GlobalCounters};
use crate::metrics::{self, Values};
use crate::procfs;
use crate::reference::{self, Reference, Scorer};
use crate::script::{self, Script};
use crate::stats::{highest_supported_percentile, median, percentile, P50, P95};
use crate::trace::Tracer;
use crate::workloads::{Kind, Spec, CLEAN_CUT_EPOCHS, N_CONNS, PERIOD_MS};

/// Open-loop passes; their epoch latencies are pooled.
const PACED_PASSES: usize = 5;
/// Closed-loop passes behind `throughput_rps` and `cpu_us_per_reading`
/// (medians reported).
const SATURATE_PASSES: usize = 14;
/// Spawn/teardown cycles behind `setup_s` (median reported).
const SETUP_CYCLES: usize = 15;
/// A paced phase whose generator's p95 lag exceeds this share of the
/// epoch slice is invalid.
const LAG_LIMIT_SHARE: f64 = 0.2;
/// Invalid paced passes a run discards and repeats before it keeps one.
const PACED_RETRIES: usize = 3;
/// Crash pass of `durable-edge`: epochs sent before the kill, and in all.
const CRASH_EPOCHS: (usize, usize) = (3 * CLEAN_CUT_EPOCHS, 4 * CLEAN_CUT_EPOCHS);
/// Where results, span files and durable scratch state go, relative to
/// the repository root the benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// What a run reports on its last line.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Clean frames sent plus epochs expected, over every pass.
    pub attempted: u64,
    /// Frames not counted, unroutable, I/O errors, epochs missing or
    /// differing from the reference, an invalid paced phase.
    pub failed: u64,
    /// The metrics of the requested kind.
    pub values: Values,
}

/// Running tally of operations, failed checks, and doubts about timings.
///
/// The two are kept apart: what the program put out is right or wrong
/// whatever the host does, but whether a paced pass kept its schedule, or
/// a CPU share came out on top, also depends on who else had the cores.
/// An invalid paced pass is discarded and repeated while `retries_left`
/// lasts; doubts that remain are printed and, under `--strict` only, fail
/// the run.
struct Checks {
    attempted: u64,
    failed: u64,
    strict: bool,
    retries_left: usize,
    doubts: u64,
}

impl Checks {
    fn fail(&mut self, n: u64, note: String) {
        if n > 0 {
            self.failed += n;
            eprintln!("CHECK FAILED: {note}");
        }
    }

    fn doubt(&mut self, note: &str) {
        self.doubts += 1;
        eprintln!("TIMING: {note}");
    }
}

type Cells<T> = BTreeMap<(u64, usize), T>;

/// Epochs on which `got` and `want` disagree. With `required_after`,
/// cells of epochs at or before it may be absent from `got` (a recovered
/// shard republishes only what follows its checkpoint) but must match
/// when present.
fn differing_epochs<T: PartialEq>(got: &Cells<T>, want: &Cells<T>, required_after: u64) -> u64 {
    let mut bad = BTreeSet::new();
    for (key, w) in want {
        match got.get(key) {
            Some(g) if g == w => {}
            None if key.0 <= required_after => {}
            _ => {
                bad.insert(key.0);
            }
        }
    }
    bad.extend(got.keys().filter(|k| !want.contains_key(k)).map(|k| k.0));
    bad.len() as u64
}

/// Checks every pass shares: the gateway counted what the generator sent,
/// and flushed the epochs the script holds.
fn check_accounting(script: &Script, output: &GatewayOutput, what: &str, checks: &mut Checks) {
    let (a, s) = (script.accounting, &output.stats);
    checks.attempted += a.clean + script.epochs as u64;
    checks.fail(
        a.clean.abs_diff(s.readings) + s.unroutable + s.io_errors,
        format!(
            "{what}: sent {} clean frames, gateway counted {} readings, {} unroutable, {} I/O errors",
            a.clean, s.readings, s.unroutable, s.io_errors
        ),
    );
    checks.fail(
        u64::from(a.generated != s.readings + a.lost + s.corrupt_frames),
        format!(
            "{what}: accounting open: generated {} != readings {} + lost {} + corrupt {}",
            a.generated, s.readings, a.lost, s.corrupt_frames
        ),
    );
    checks.fail(
        (script.epochs as u64).abs_diff(s.epochs_flushed),
        format!(
            "{what}: flushed {} epochs, script holds {}",
            s.epochs_flushed, script.epochs
        ),
    );
}

fn check_digest(reference: &Reference, output: &GatewayOutput, what: &str, checks: &mut Checks) {
    let got = reference::digest_shards(&output.shard_traces);
    checks.fail(
        differing_epochs(&got, &reference.digest, 0),
        format!("{what}: output differs from the single-process reference"),
    );
}

fn check_counts(reference: &Reference, output: &GatewayOutput, what: &str, checks: &mut Checks) {
    let got = reference::counts_of_shards(&output.shard_traces);
    let want: Cells<u64> = reference.digest.iter().map(|(k, c)| (*k, c.0)).collect();
    checks.fail(
        differing_epochs(&got, &want, 0),
        format!("{what}: per-epoch tuple counts differ from the reference"),
    );
}

/// How many epochs a run of `seconds` covers.
pub fn epochs_for(spec: &Spec, seconds: u64) -> usize {
    // In units of one paced pass: the paced passes plus the saturate
    // passes at half a unit each.
    let half_units = (2 * PACED_PASSES + SATURATE_PASSES) as u64;
    let epochs = (seconds * 1000 * 2 / half_units / spec.epoch_wall_ms) as usize;
    (epochs / CLEAN_CUT_EPOCHS * CLEAN_CUT_EPOCHS).max(CRASH_EPOCHS.1)
}

fn scratch_dir() -> PathBuf {
    Path::new(OUT_DIR).join(format!("durable-{}", std::process::id()))
}

/// Run `spec` once.
pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool, strict: bool) -> Res<Outcome> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if N_CONNS > nproc {
        return Err(
            format!("generator needs {N_CONNS} threads but the machine has {nproc}").into(),
        );
    }
    // Everything is measured dark; the traced passes switch it on.
    esp_obs::set_enabled(false);
    let fleet = spec.fleet();
    let epochs = epochs_for(spec, seconds);
    let t_gen = Instant::now();
    let mut script = script::generate(spec, &fleet, seed, epochs);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let a = script.accounting;
    println!("{}: {}", spec.name, spec.why);
    println!(
        "{}: seed {seed}, {epochs} epochs, {} readings generated ({} clean, {} lost, {} corrupt), \
         script digest {:016x}, nproc {nproc}, generated in {gen_s:.2} s",
        spec.name, a.generated, a.clean, a.lost, a.corrupt, script.digest
    );
    println!(
        "  load: {N_CONNS} connections on {N_CONNS} threads; paced = open loop at {:.0} readings/s \
         ({} ms wall per 1 s epoch), saturate = closed loop",
        a.generated as f64 / (epochs as f64 * spec.epoch_wall_ms as f64 / 1e3),
        spec.epoch_wall_ms
    );

    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch)?;
    let mut tracer = Tracer::new();
    let mut values = Values::new();
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        strict,
        retries_left: PACED_RETRIES,
        doubts: 0,
    };
    if traced {
        layers::replay(spec, &fleet, &script, &scratch, &mut tracer, &mut values)?;
    }
    let reference = reference::run(spec, &fleet, &mut script, traced, &mut tracer)?;
    let scorer = Scorer::new(spec, &fleet, epochs);
    let ctx = Ctx::new(spec, &fleet, &script, scratch.clone());

    if traced {
        traced_passes(
            &ctx,
            &reference,
            &scorer,
            gen_s,
            &mut tracer,
            &mut values,
            &mut checks,
        )?;
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, tracer.to_json())?;
        println!(
            "  wrote {} ({} spans); self time by span name:",
            path.display(),
            tracer.spans().len()
        );
        for (name, ns) in tracer.self_by_name() {
            println!("    {name:<28} {:>12.3} ms", ns as f64 / 1e6);
        }
    } else {
        untraced_passes(
            &ctx,
            &reference,
            &scorer,
            &mut tracer,
            &mut values,
            &mut checks,
        )?;
    }

    if checks.doubts > 0 {
        let verdict = if checks.strict {
            "failing the run (--strict)"
        } else {
            "reported, not failed (see --strict)"
        };
        eprintln!("TIMING: {} doubt(s): {verdict}", checks.doubts);
        if checks.strict {
            checks.failed += checks.doubts;
        }
    }
    let correct = checks.failed == 0;
    if correct {
        // Kept on failure, for the post-mortem.
        let _ = std::fs::remove_dir_all(&scratch);
    }
    for (name, unit) in metrics::reported(traced) {
        println!(
            "  {name:<40} {:>16.4} {unit}",
            values.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}  correct {correct}",
        checks.attempted, checks.failed
    );
    Ok(Outcome {
        correct,
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        values,
    })
}

fn throughput(script: &Script, pass: &drive::SaturatePass) -> f64 {
    script.accounting.clean as f64 / pass.wall_s
}

/// What makes one paced pass invalid, if anything, and its generator lag
/// p95.
fn paced_problems(ctx: &Ctx<'_>, pass: &drive::PacedPass, what: &str) -> (Vec<String>, f64) {
    let n = pass.latencies_ms.len();
    let lag_p95 = percentile(&pass.lags_ms, P95);
    println!(
        "  {what}: {n} epoch latencies of {} certifiable, p50 {:.3} ms, generator lag p95 {lag_p95:.3} ms \
         over {} slices, {:.2} s wall",
        pass.certifiable,
        percentile(&pass.latencies_ms, P50),
        pass.lags_ms.len(),
        pass.wall_s,
    );
    let mut problems = Vec::new();
    // Every epoch was flushed in the end (`check_accounting`); these were
    // not flushed within a second of being certified.
    if n < pass.certifiable {
        problems.push(format!(
            "{} certified epochs were never seen finished",
            pass.certifiable - n
        ));
    }
    // An overloaded or badly paced run is invalid, not slow. The lag
    // limit is a fifth of the epoch slice: with six busy threads on two
    // cores the scheduler's wake-up granularity alone puts the p95 at
    // 1–2 ms, while a generator that cannot keep up lags by whole epochs.
    // A backlog is latency that doubles over the run *and* exceeds one
    // epoch slice; above the sustainable rate it grows without limit,
    // while a gateway that merely slows as its output trace grows stays
    // well inside one slice.
    let epoch_ms = ctx.spec.epoch_wall_ms as f64;
    let lag_limit = LAG_LIMIT_SHARE * epoch_ms;
    let tenth = (n / 10).max(1);
    let first = median(&pass.latencies_ms[..tenth.min(n)]);
    let last = median(&pass.latencies_ms[n.saturating_sub(tenth)..]);
    if lag_p95 > lag_limit {
        problems.push(format!(
            "generator lag p95 {lag_p95:.3} ms exceeds {lag_limit:.1} ms"
        ));
    }
    if last > 2.0 * first && last > epoch_ms {
        problems.push(format!(
            "backlog grows (median latency {first:.2} ms in the first tenth, {last:.2} ms in the last)"
        ));
    }
    (problems, lag_p95)
}

/// One paced pass that kept its schedule. The output of every pass is
/// checked; a pass with invalid timing is discarded and repeated while
/// the run's retries last, after which it is kept and doubted. Returns
/// the pass and its generator lag p95.
///
/// `lit` runs the pass with the optional instrumentation on, `scrape`
/// also scrapes the gateway half-way through.
fn valid_paced(
    ctx: &Ctx<'_>,
    (lit, scrape): (bool, bool),
    what: &str,
    reference: &Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Res<(drive::PacedPass, f64)> {
    loop {
        esp_obs::set_enabled(lit);
        let pass = drive::paced(ctx, scrape, tracer);
        esp_obs::set_enabled(false);
        let pass = pass?;
        check_accounting(ctx.script, &pass.output, what, checks);
        check_digest(reference, &pass.output, what, checks);
        let (problems, lag_p95) = paced_problems(ctx, &pass, what);
        if problems.is_empty() {
            return Ok((pass, lag_p95));
        }
        let problems = problems.join("; ");
        if checks.retries_left == 0 {
            checks.doubt(&format!("{what}: invalid pass kept: {problems}"));
            return Ok((pass, lag_p95));
        }
        checks.retries_left -= 1;
        eprintln!("TIMING: {what}: invalid pass discarded and repeated: {problems}");
    }
}

/// p50 and p95 of the pooled epoch latencies, with the sample count and
/// the highest percentile that count supports.
fn pooled_latency(latencies_ms: &[f64]) -> (f64, f64) {
    let n = latencies_ms.len();
    println!(
        "  paced: {n} epoch latencies pooled; highest percentile with 10 samples beyond: {}",
        highest_supported_percentile(n)
            .map_or("none".into(), |p| format!("p{}", f64::from(p) / 10.0)),
    );
    (percentile(latencies_ms, P50), percentile(latencies_ms, P95))
}

fn untraced_passes(
    ctx: &Ctx<'_>,
    reference: &Reference,
    scorer: &Scorer,
    tracer: &mut Tracer,
    values: &mut Values,
    checks: &mut Checks,
) -> Res<()> {
    let script = ctx.script;
    let mut setups = Vec::with_capacity(SETUP_CYCLES);
    for _ in 0..SETUP_CYCLES {
        setups.push(drive::setup_once(ctx)?.0);
    }
    values.insert("setup_s", median(&setups));

    // The two kinds of pass are interleaved so that each metric's samples
    // span the whole run: the host's speed wanders on a scale of ten
    // seconds, and a phase run as one block would sit inside one mood.
    let (mut rps, mut cpu_us, mut latencies_ms) = (Vec::new(), Vec::new(), Vec::new());
    let total = SATURATE_PASSES + PACED_PASSES;
    for i in 0..total {
        if (i + 1) * PACED_PASSES / total == i * PACED_PASSES / total {
            let pass = drive::saturate(ctx, tracer)?;
            if rps.is_empty() {
                // One pass on a fresh process: later passes add whatever
                // the allocator happens to retain, which is luck, not
                // the system.
                values.insert("peak_rss_mb", procfs::peak_rss_mb());
            }
            let what = format!("saturate #{}", rps.len());
            check_accounting(script, &pass.output, &what, checks);
            check_counts(reference, &pass.output, &what, checks);
            rps.push(throughput(script, &pass));
            cpu_us.push(pass.cpu_s * 1e6 / script.accounting.clean as f64);
            println!(
                "  {what}: {:.0} readings/s, {:.3} us CPU per reading, {:.2} s wall",
                rps[rps.len() - 1],
                cpu_us[cpu_us.len() - 1],
                pass.wall_s
            );
        } else {
            let what = format!("paced #{}", i * PACED_PASSES / total);
            let (pass, _) = valid_paced(ctx, (false, false), &what, reference, tracer, checks)?;
            if latencies_ms.is_empty() {
                let reported = scorer.score_shards(&pass.output.shard_traces);
                values.insert("output_err", scorer.error(&reported, &script.truth));
            }
            latencies_ms.extend(&pass.latencies_ms);
        }
    }
    values.insert("throughput_rps", median(&rps));
    values.insert("cpu_us_per_reading", median(&cpu_us));
    // The p95 is printed but is not an end-to-end metric: on the seed
    // commit it did not repeat within any bound the contract allows (see
    // README.md, "Calibration"); the traced run reports it per layer.
    let (p50, p95) = pooled_latency(&latencies_ms);
    println!("  paced: epoch latency p50 {p50:.3} ms, p95 {p95:.3} ms");
    values.insert("epoch_latency_p50_ms", p50);

    if ctx.spec.kind == Kind::DurableEdge {
        let crash = crash_pass(ctx, reference, tracer, checks)?;
        println!("  crash: recovered in {:.4} s", crash.recover_s);
        let _ = std::fs::remove_dir_all(&crash.dir);
    }
    Ok(())
}

/// Run the crash pass and check the revived gateway's output.
fn crash_pass(
    ctx: &Ctx<'_>,
    reference: &Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Res<drive::CrashPass> {
    let (cut, total) = CRASH_EPOCHS;
    let crash = drive::crash(ctx, cut, total, tracer)?;
    let clean: u64 = ctx
        .script
        .conns
        .iter()
        .map(|c| u64::from(c.epoch_clean_ends[total - 1]))
        .sum();
    checks.attempted += clean + total as u64;
    let (b, s) = (&crash.before, &crash.output.stats);
    checks.fail(
        clean.abs_diff(b.readings + s.readings)
            + b.unroutable
            + s.unroutable
            + b.io_errors
            + s.io_errors,
        format!(
            "crash: sent {clean} clean frames, gateways counted {} + {}",
            b.readings, s.readings
        ),
    );
    let end_ms = total as u64 * PERIOD_MS;
    let want: Cells<_> = reference
        .digest
        .range(..=(end_ms, usize::MAX))
        .map(|(k, c)| (*k, *c))
        .collect();
    let got = reference::digest_shards(&crash.output.shard_traces);
    checks.fail(
        differing_epochs(&got, &want, crash.flushed_before_kill * PERIOD_MS),
        "crash: killed-and-recovered output differs from the uninterrupted reference".into(),
    );
    Ok(crash)
}

#[allow(clippy::too_many_arguments)]
fn traced_passes(
    ctx: &Ctx<'_>,
    reference: &Reference,
    scorer: &Scorer,
    gen_s: f64,
    tracer: &mut Tracer,
    values: &mut Values,
    checks: &mut Checks,
) -> Res<()> {
    let script = ctx.script;
    values.insert("generator.gen_ms", gen_s * 1e3);
    let step_total: u64 = reference.step_nanos.iter().sum();
    let step_ms: Vec<f64> = reference
        .step_nanos
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    values.insert(
        "core.step_ns_per_reading",
        step_total as f64 / reference.readings.max(1) as f64,
    );
    values.insert("core.step_p95_ms", percentile(&step_ms, P95));
    values.insert(
        "core.single_thread_rps",
        reference.readings as f64 / (step_total as f64 / 1e9),
    );
    let (bytes, snapshot_ms, restore_ms) = reference.snapshot;
    values.insert("core.snapshot_bytes", bytes as f64);
    values.insert("core.snapshot_ms", snapshot_ms);
    values.insert("core.restore_ms", restore_ms);

    let mut checked = Vec::new();
    let mut spawned = Vec::new();
    for _ in 0..5 {
        let (_, check_s, spawn_s) = drive::setup_once(ctx)?;
        checked.push(check_s * 1e3);
        spawned.push(spawn_s * 1e3);
    }
    values.insert("lint.deploy_check_ms", median(&checked));
    values.insert("gateway.spawn_ms", median(&spawned));

    // The first pass of a process pays for growing the heap; it warms up
    // and is checked, and the overhead compares the medians of the
    // alternating passes after it.
    let (mut rps_lit, mut rps_dark) = (Vec::new(), Vec::new());
    let mut shares: [Vec<f64>; 3] = Default::default();
    for (i, lit) in [false, true, false, true, false, true, false]
        .into_iter()
        .enumerate()
    {
        esp_obs::set_enabled(lit);
        let before = GlobalCounters::read();
        let pass = drive::saturate(ctx, tracer)?;
        esp_obs::set_enabled(false);
        let what = format!("saturate #{i} ({})", if lit { "traced" } else { "dark" });
        check_accounting(script, &pass.output, &what, checks);
        check_counts(reference, &pass.output, &what, checks);
        match (i, lit) {
            (0, _) => {}
            (_, true) => rps_lit.push(throughput(script, &pass)),
            (_, false) => rps_dark.push(throughput(script, &pass)),
        }
        if lit {
            let global = GlobalCounters::read().since(&before);
            let labels: Vec<&str> = ctx.spec.cql().iter().map(|(label, _, _)| *label).collect();
            let of_pass = layers::live_saturate(&pass, &labels, global, values)?;
            for (all, share) in shares.iter_mut().zip(of_pass) {
                all.push(share);
            }
            values.insert("gateway.drain_ms", pass.drain_s * 1e3);
        }
    }
    // Each share's median over the traced passes: one pass during which
    // the host took the cores away does not decide the guard.
    for (name, all) in ["share.edge_cpu", "share.core_cpu", "share.query_cpu"]
        .into_iter()
        .zip(&shares)
    {
        values.insert(name, median(all));
    }
    let (lit, dark) = (median(&rps_lit), median(&rps_dark));
    values.insert("obs.trace_overhead_pct", (dark - lit) / dark * 100.0);
    println!(
        "  saturate: {lit:.0} readings/s traced, {dark:.0} dark, medians of 3 alternating passes \
         ({:+.2}% overhead)",
        values["obs.trace_overhead_pct"]
    );

    // Two traced paced passes, so the pooled sample supports a p95; the
    // second also scrapes, and its histograms are the ones reported.
    let mut latencies_ms = Vec::new();
    for scrape in [false, true] {
        let (pass, lag_p95) = valid_paced(
            ctx,
            (true, scrape),
            "paced (traced)",
            reference,
            tracer,
            checks,
        )?;
        latencies_ms.extend(&pass.latencies_ms);
        if scrape {
            values.insert("generator.lag_p95_ms", lag_p95);
            values.insert("gateway.scrape_ms", pass.scrape_s * 1e3);
            layers::live_paced(&pass.registry, values);
            let reported = scorer.score_shards(&pass.output.shard_traces);
            println!("  output_err {:.6}", scorer.error(&reported, &script.truth));
        }
    }
    let (p50, p95) = pooled_latency(&latencies_ms);
    values.insert("paced.epoch_latency_p50_ms", p50);
    values.insert("paced.epoch_latency_p95_ms", p95);

    if ctx.spec.kind == Kind::DurableEdge {
        let crash = crash_pass(ctx, reference, tracer, checks)?;
        values.insert("durability.recover_ms", crash.recover_s * 1e3);
        values.insert(
            "durability.snapshot_load_ms",
            layers::snapshot_load_ms(&crash.dir, tracer)?,
        );
        let _ = std::fs::remove_dir_all(&crash.dir);
    } else {
        values.insert("durability.recover_ms", 0.0);
        values.insert("durability.snapshot_load_ms", 0.0);
    }
    let separation = layers::check_separation(ctx.spec.kind, values);
    if let Some(problem) = separation.stray_ticks {
        checks.fail(1, format!("layer separation: {problem}"));
    }
    if let Some(problem) = separation.wrong_order {
        checks.doubt(&format!("layer separation: {problem}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differing_epochs_counts_epochs_not_cells() {
        let want: Cells<u64> = [((1000, 0), 5), ((1000, 1), 6), ((2000, 0), 7)].into();
        assert_eq!(differing_epochs(&want, &want, 0), 0);
        let mut got = want.clone();
        got.insert((1000, 0), 4);
        got.insert((1000, 1), 4);
        assert_eq!(differing_epochs(&got, &want, 0), 1);
        got.insert((3000, 0), 1); // an epoch the reference never produced
        assert_eq!(differing_epochs(&got, &want, 0), 2);
    }

    #[test]
    fn recovered_output_may_omit_only_epochs_before_the_kill() {
        let want: Cells<u64> = [((1000, 0), 5), ((2000, 0), 6), ((3000, 0), 7)].into();
        let got: Cells<u64> = [((2000, 0), 6), ((3000, 0), 7)].into();
        assert_eq!(differing_epochs(&got, &want, 1000), 0);
        assert_eq!(differing_epochs(&got, &want, 0), 1);
        let wrong: Cells<u64> = [((1000, 0), 9), ((2000, 0), 6), ((3000, 0), 7)].into();
        assert_eq!(
            differing_epochs(&wrong, &want, 1000),
            1,
            "present cells must match"
        );
    }

    #[test]
    fn run_length_scales_with_seconds_in_clean_cut_steps() {
        let spec = crate::workloads::ALL[0];
        assert_eq!(epochs_for(&spec, 24), 80);
        assert_eq!(epochs_for(&spec, 36), 112);
        assert_eq!(epochs_for(&spec, 1), CRASH_EPOCHS.1);
        assert_eq!(epochs_for(&spec, 25) % CLEAN_CUT_EPOCHS, 0);
    }
}
