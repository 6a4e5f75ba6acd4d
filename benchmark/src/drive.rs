//! Driving the real TCP gateway from outside, through its public API
//! only: `Gateway::{spawn, local_addr, snapshot, registry, finish, kill}`
//! and `GatewayClient::{connect, connect_with_retry, send_raw, flush,
//! scrape, finish}`.
//!
//! The generator is two threads with one connection each, whatever the
//! phase. `saturate` is a closed loop: each thread writes its whole
//! sequence and is held back only by TCP backpressure. `paced` is an open
//! loop on a fixed schedule (see [`crate::sched`]).

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use esp_gateway::{DurabilityConfig, Gateway, GatewayClient, GatewayOutput, GatewaySnapshot};
use esp_obs::CpuTimer;
use esp_types::{Diagnostic, TimeDelta};

use crate::procfs::process_cpu_secs;
use crate::sched::{Clock, Pacer, WallClock};
use crate::script::{ConnScript, Script};
use crate::trace::Tracer;
use crate::workloads::{Fleet, Kind, Spec, CHECKPOINT_EPOCHS, N_CONNS, N_SHARDS, PERIOD_MS};

/// Errors from any layer, boxed: the harness only reports them.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Wall length of one paced slice.
const SLICE_NS: u64 = 1_000_000;
/// How often a waiting generator thread looks for finished epochs.
const POLL_NS: u64 = 250_000;

/// Everything a phase needs to run.
pub struct Ctx<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Its fleet.
    pub fleet: &'a Fleet,
    /// This run's input.
    pub script: &'a Script,
    /// Where durable gateways keep their state; one fresh subdirectory
    /// per gateway lifetime.
    pub scratch: PathBuf,
    next_dir: Cell<u32>,
}

impl<'a> Ctx<'a> {
    /// Context writing durable state under `scratch`.
    pub fn new(spec: &'a Spec, fleet: &'a Fleet, script: &'a Script, scratch: PathBuf) -> Ctx<'a> {
        Ctx {
            spec,
            fleet,
            script,
            scratch,
            next_dir: Cell::new(0),
        }
    }

    fn lateness(&self) -> TimeDelta {
        TimeDelta::from_millis(self.spec.lateness_ms)
    }

    /// A fresh durability directory (`durable-edge` only).
    fn fresh_dir(&self) -> Option<PathBuf> {
        (self.spec.kind == Kind::DurableEdge).then(|| {
            let n = self.next_dir.get();
            self.next_dir.set(n + 1);
            self.scratch.join(n.to_string())
        })
    }

    /// Spawn a gateway for this workload, durable on `dir` when given.
    fn spawn(&self, dir: Option<&PathBuf>) -> Res<Gateway> {
        let mut config = self.spec.gateway_config(self.fleet);
        if let Some(dir) = dir {
            config.durability = Some(
                DurabilityConfig::new(dir)
                    .checkpoint_every(TimeDelta::from_millis(CHECKPOINT_EPOCHS * PERIOD_MS)),
            );
        }
        // Built once up front so a broken cascade is an error, not a
        // panic inside the factory.
        self.spec.pipeline(self.fleet)?;
        let (spec, fleet) = (self.spec, self.fleet);
        Ok(Gateway::spawn(config, |_| {
            spec.pipeline(fleet).expect("cascade built a moment ago")
        })?)
    }

    fn connect(&self, gateway: &Gateway) -> Res<Vec<GatewayClient>> {
        (0..N_CONNS)
            .map(|_| {
                Ok(GatewayClient::connect(
                    gateway.local_addr(),
                    self.lateness(),
                )?)
            })
            .collect()
    }
}

/// What a deployer waits for before the first reading is accepted:
/// deploy-time checks, cascade build (CQL compile), `Gateway::spawn`, and
/// both handshakes. Returns `(seconds, deploy-check seconds, spawn
/// seconds)`; teardown is not timed.
pub fn setup_once(ctx: &Ctx<'_>) -> Res<(f64, f64, f64)> {
    let dir = ctx.fresh_dir();
    let t0 = Instant::now();
    let config = ctx.spec.gateway_config(ctx.fleet);
    let errors: Vec<Diagnostic> = ctx
        .spec
        .deploy_checks(ctx.fleet, &config)
        .into_iter()
        .filter(Diagnostic::is_error)
        .collect();
    if !errors.is_empty() {
        return Err(format!("deploy checks failed: {errors:?}").into());
    }
    let checked = t0.elapsed();
    let gateway = ctx.spawn(dir.as_ref())?;
    let spawned = t0.elapsed();
    let clients = ctx.connect(&gateway)?;
    let ready = t0.elapsed();
    for c in clients {
        c.finish()?;
    }
    gateway.finish()?;
    remove_dir(dir);
    Ok((
        ready.as_secs_f64(),
        checked.as_secs_f64(),
        (spawned - checked).as_secs_f64(),
    ))
}

fn remove_dir(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One closed-loop pass over the whole script.
pub struct SaturatePass {
    /// First byte sent → `Gateway::finish` returned.
    pub wall_s: f64,
    /// Process CPU over the same interval, minus the generator threads'.
    pub cpu_s: f64,
    /// Last generator byte sent → `Gateway::finish` returned.
    pub drain_s: f64,
    /// The gateway's per-gateway registry, read after the drain.
    pub registry: esp_obs::Registry,
    /// What the gateway produced.
    pub output: GatewayOutput,
}

/// Send `frames[from..to]` of each connection as fast as the sockets
/// take them; returns each thread's on-CPU nanoseconds.
fn blast(
    clients: &mut [GatewayClient],
    conns: &[ConnScript],
    range: impl Fn(usize) -> (usize, usize) + Sync,
) -> Res<Vec<u64>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(conns)
            .enumerate()
            .map(|(c, (client, conn))| {
                let range = &range;
                s.spawn(move || -> Res<u64> {
                    let timer = CpuTimer::start();
                    let (from, to) = range(c);
                    for i in from..to {
                        client.send_raw(conn.frame(i))?;
                    }
                    client.flush()?;
                    Ok(timer.elapsed_nanos())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "generator thread panicked")?)
            .collect()
    })
}

/// Run one `saturate` pass.
pub fn saturate(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Res<SaturatePass> {
    let dir = ctx.fresh_dir();
    let root = tracer.enter("live.saturate", None);
    let gateway = tracer.span("gateway.spawn", None, || ctx.spawn(dir.as_ref()))?;
    let mut clients = ctx.connect(&gateway)?;

    let cpu0 = process_cpu_secs();
    let t0 = Instant::now();
    let send = tracer.enter("generator.send", None);
    let gen_cpu = blast(&mut clients, &ctx.script.conns, |c| {
        (0, ctx.script.conns[c].len())
    })?;
    for c in clients {
        c.finish()?;
    }
    tracer.exit(send);
    let t_drain = Instant::now();
    let registry = gateway.registry();
    let output = tracer.span("gateway.drain", None, || gateway.finish())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_secs() - cpu0 - gen_cpu.iter().sum::<u64>() as f64 / 1e9;
    tracer.exit(root);
    remove_dir(dir);
    Ok(SaturatePass {
        wall_s,
        cpu_s,
        drain_s: t_drain.elapsed().as_secs_f64(),
        registry,
        output,
    })
}

/// One open-loop pass over the whole script.
pub struct PacedPass {
    /// Per certified epoch: due-time of its certifying frame → first
    /// observation that every shard finished it, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Epochs a frame certified (the rest are closed by the connections
    /// closing and have no due-time).
    pub certifiable: usize,
    /// How late each slice started, both threads, in milliseconds.
    pub lags_ms: Vec<f64>,
    /// `GatewayClient::scrape` round trip under load.
    pub scrape_s: f64,
    /// The gateway's per-gateway registry, read after the drain.
    pub registry: esp_obs::Registry,
    /// Wall seconds from the first slice's due-time to the drain's end.
    pub wall_s: f64,
    /// What the gateway produced.
    pub output: GatewayOutput,
}

/// Note, for every epoch the gateway has finished on all shards but this
/// thread has not yet seen finished, that it was finished by `now`.
fn observe(gateway: &Gateway, observed: &[AtomicU64], seen: &mut usize, now_ns: u64) {
    let flushed = (gateway.snapshot().epochs_flushed as usize).min(observed.len());
    while *seen < flushed {
        observed[*seen].fetch_min(now_ns, Ordering::Relaxed);
        *seen += 1;
    }
}

/// Run the `paced` pass. With `scrape`, connection 0 also scrapes the
/// gateway's metrics once, half-way through (traced runs only: the round
/// trip stalls that connection's schedule).
pub fn paced(ctx: &Ctx<'_>, scrape: bool, tracer: &mut Tracer) -> Res<PacedPass> {
    let dir = ctx.fresh_dir();
    let root = tracer.enter("live.paced", None);
    let gateway = tracer.span("gateway.spawn", None, || ctx.spawn(dir.as_ref()))?;
    let mut clients = ctx.connect(&gateway)?;
    let conns = &ctx.script.conns;
    let n_slices = conns.iter().map(|c| c.slice_ends.len()).max().unwrap_or(0);
    let certifiable = conns
        .iter()
        .map(|c| c.certify_frame.len())
        .min()
        .unwrap_or(0);
    let observed: Vec<AtomicU64> = (0..ctx.script.epochs)
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();

    let clock = WallClock(Instant::now());
    let origin_ns = tracer.now_ns();
    // Leave the threads a moment to start before slice 0 is due.
    let start_ns = 5 * SLICE_NS;
    let results: Vec<Res<(Vec<u64>, f64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .drain(..)
            .zip(conns)
            .enumerate()
            .map(|(c, (mut client, conn))| {
                let (gateway, observed) = (&gateway, &observed);
                s.spawn(move || -> Res<(Vec<u64>, f64)> {
                    let mut pacer = Pacer::new(clock, start_ns, SLICE_NS, POLL_NS);
                    let (mut next, mut seen, mut scrape_s) = (0usize, 0usize, 0.0);
                    for slice in 0..n_slices {
                        pacer.wait_for(slice, |now| observe(gateway, observed, &mut seen, now));
                        let end = conn
                            .slice_ends
                            .get(slice)
                            .map_or(conn.len(), |&e| e as usize);
                        while next < end {
                            client.send_raw(conn.frame(next))?;
                            next += 1;
                        }
                        client.flush()?;
                        if scrape && c == 0 && slice == n_slices / 2 {
                            let t = Instant::now();
                            client.scrape()?;
                            scrape_s = t.elapsed().as_secs_f64();
                        }
                        observe(gateway, observed, &mut seen, clock.now_ns());
                    }
                    // Keep the connection open until the epochs its last
                    // frames certified are seen finished (bounded wait).
                    let give_up = clock.now_ns() + 1000 * SLICE_NS;
                    while seen < certifiable && clock.now_ns() < give_up {
                        clock.sleep_until(clock.now_ns() + POLL_NS);
                        observe(gateway, observed, &mut seen, clock.now_ns());
                    }
                    client.finish()?;
                    Ok((pacer.lags_ns, scrape_s))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let registry = gateway.registry();
    let output = tracer.span("gateway.drain", None, || gateway.finish())?;
    let wall_s = (clock.now_ns() - start_ns) as f64 / 1e9;

    let mut lags_ms = Vec::new();
    let mut scrape_s = 0.0;
    for r in results {
        let (lags, s) = r?;
        lags_ms.extend(lags.iter().map(|&ns| ns as f64 / 1e6));
        scrape_s += s;
    }
    let mut latencies_ms = Vec::with_capacity(certifiable);
    for (k, seen) in observed.iter().enumerate().take(certifiable) {
        // The epoch is certified once the later of the two connections'
        // certifying frames has been read; it was due in that slice.
        let due_ns = conns
            .iter()
            .map(|c| start_ns + c.slice_of(c.certify_frame[k]) as u64 * SLICE_NS)
            .max()
            .unwrap_or(0);
        let seen_ns = seen.load(Ordering::Relaxed);
        if seen_ns != u64::MAX {
            let latency_ms = seen_ns.saturating_sub(due_ns) as f64 / 1e6;
            latencies_ms.push(latency_ms);
            tracer.record(
                "paced.epoch",
                origin_ns + due_ns,
                origin_ns + seen_ns.max(due_ns),
                Some(k as u64),
            );
        }
    }
    tracer.exit(root);
    remove_dir(dir);
    Ok(PacedPass {
        latencies_ms,
        certifiable,
        lags_ms,
        scrape_s,
        registry,
        wall_s,
        output,
    })
}

/// The kill-and-recover pass of `durable-edge`.
pub struct CrashPass {
    /// `Gateway::spawn` on the killed directory → every shard has loaded
    /// its snapshot and replayed the WAL suffix.
    pub recover_s: f64,
    /// Epochs fully flushed before the kill.
    pub flushed_before_kill: u64,
    /// Counters of the gateway that was killed, just before the kill.
    pub before: GatewaySnapshot,
    /// What the revived gateway produced.
    pub output: GatewayOutput,
    /// The killed directory, for the WAL and snapshot replays.
    pub dir: PathBuf,
}

/// Send the first `cut` epochs, wait for the gateway to reach the state
/// that prefix determines, kill it, revive it on the same directory
/// (timed), reconnect, and send epochs `cut..total`. Both must be
/// multiples of [`crate::workloads::CLEAN_CUT_EPOCHS`].
pub fn crash(ctx: &Ctx<'_>, cut: usize, total: usize, tracer: &mut Tracer) -> Res<CrashPass> {
    let dir = ctx
        .fresh_dir()
        .ok_or("crash pass needs a durable workload")?;
    let root = tracer.enter("live.crash", None);
    let script = ctx.script;
    let (at_cut, at_total) = (script.prefix_frames(cut), script.prefix_frames(total));
    let clean_at_cut: u64 = script
        .conns
        .iter()
        .map(|c| u64::from(c.epoch_clean_ends[cut - 1]))
        .sum();
    // Epochs the prefix's own frames certify; the connections stay open,
    // so nothing else gets flushed before the kill is requested.
    let certified = script
        .conns
        .iter()
        .zip(&at_cut)
        .map(|(c, &n)| c.certify_frame.partition_point(|&f| (f as usize) < n))
        .min()
        .unwrap_or(0) as u64;
    let checkpoints = N_SHARDS as u64 * (certified / CHECKPOINT_EPOCHS);

    let gateway = ctx.spawn(Some(&dir))?;
    let mut clients = ctx.connect(&gateway)?;
    blast(&mut clients, &script.conns, |c| (0, at_cut[c]))?;
    let deadline = Instant::now() + Duration::from_secs(20);
    let before = loop {
        let s = gateway.snapshot();
        if s.readings == clean_at_cut
            && s.epochs_flushed == certified
            && s.checkpoints == checkpoints
        {
            break s;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "gateway never reached the prefix state: readings {}/{clean_at_cut}, epochs {}/{certified}, \
                 checkpoints {}/{checkpoints}",
                s.readings, s.epochs_flushed, s.checkpoints
            )
            .into());
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let registry = gateway.registry();
    drop(clients);
    tracer.span("gateway.kill", None, || gateway.kill())?;
    let flushed_before_kill = registry
        .histogram_snapshot("esp_gateway_flush_latency_us", &[])
        .map_or(0, |h| h.count());

    let t0 = Instant::now();
    let span = tracer.enter("gateway.recover", None);
    let revived = ctx.spawn(Some(&dir))?;
    while revived.snapshot().recoveries < N_SHARDS as u64 {
        if t0.elapsed() > Duration::from_secs(20) {
            return Err("revived gateway never finished recovery".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let recover_s = t0.elapsed().as_secs_f64();
    tracer.exit(span);

    let mut clients = (0..N_CONNS)
        .map(|_| {
            GatewayClient::connect_with_retry(
                revived.local_addr(),
                ctx.lateness(),
                10,
                Duration::from_millis(1),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    blast(&mut clients, &script.conns, |c| (at_cut[c], at_total[c]))?;
    for c in clients {
        c.finish()?;
    }
    let output = revived.finish()?;
    tracer.exit(root);
    Ok(CrashPass {
        recover_s,
        flushed_before_kill,
        before,
        output,
        dir,
    })
}
