//! The TCP gateway: accept loop, per-connection readers, the epoch
//! coordinator, and graceful shutdown.
//!
//! Thread layout (all plain `std::net` + crossbeam channels — no async
//! runtime):
//!
//! ```text
//! accept thread ──spawns──> reader thread per connection
//!                              │ decode frames, drop corrupt,
//!                              │ route by granule hash into per-shard
//!                              │ batches, hand off one batch per shard
//!                              ▼
//!                    bounded shard queues  <── Flush(e) ── coordinator
//!                              │                            (watermark)
//!                              ▼
//!                    worker thread per shard (EspProcessor cascade)
//! ```
//!
//! Each thread runs a machine in [`crate::protocol`] and does the I/O: a
//! reader executes its [`protocol::Reader`]'s effects in order, the
//! coordinator flushes what its [`Coordinator`] says is due, and a worker
//! asks its [`protocol::Worker`] what to skip and when to checkpoint. The
//! model checker runs the same machines.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::Mutex;

use esp_core::{Pipeline, Scope};
use esp_durability::{DurabilityConfig, PreparedRecord, SnapshotStore, WalWriter};
use esp_receptors::framing::{FrameReader, FrameWriter, MAX_FRAME_LEN};
use esp_receptors::wire::{self, Reading};
use esp_stream::QueueStats;
use esp_types::{Batch, Diagnostic, EspError, ReceptorId, ReceptorType, Result, TimeDelta, Ts};

use crate::durability::DurabilityHooks;
use crate::protocol::{self, Coordinator, Effect};
use crate::shard::{shard_of_granule, ShardRouter};
use crate::stats::{GatewaySnapshot, GatewayStats};
use crate::watermark::{ConnClock, WatermarkClock};
use crate::worker::{spawn_idle, spawn_worker, ShardMsg};

/// Handshake magic: `"ESPG"` big-endian.
pub(crate) const HELLO_MAGIC: u32 = 0x4553_5047;
/// Wire-protocol version carried in the hello.
pub(crate) const PROTOCOL_VERSION: u16 = 1;
/// Server's accept byte, sent after a valid hello.
pub(crate) const ACK_OK: u8 = 0x01;

/// Frame payload requesting a Prometheus-text metrics scrape on an
/// ingest connection. Never a valid `wire::encode` frame (wrong magic),
/// so a data frame can never be mistaken for a scrape request.
pub(crate) const STATS_TEXT_REQUEST: &[u8] = b"ESPSTATS";
/// Frame payload requesting the same scrape as one JSON document.
pub(crate) const STATS_JSON_REQUEST: &[u8] = b"ESPSTATJ";
/// Response-frame marker: more chunks of this document follow.
pub(crate) const STATS_MORE: u8 = 0x00;
/// Response-frame marker: this chunk completes the document.
pub(crate) const STATS_FINAL: u8 = 0x01;
/// Max document bytes per response frame (1 marker byte + chunk must
/// stay under [`MAX_FRAME_LEN`]; headroom kept for round numbers).
const STATS_CHUNK: usize = MAX_FRAME_LEN - 4096;

/// Default capacity of each bounded shard queue, in readings
/// ([`GatewayConfig::edge_capacity`]).
const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Slots in a shard channel holding `edge_capacity` readings: two, so a
/// reader can fill one batch while the worker drains the other (one when
/// the capacity is a single reading).
fn queue_slots(edge_capacity: usize) -> usize {
    edge_capacity.min(2)
}

/// Most readings one hand-off batch may carry: the capacity split evenly
/// over the slots, so a full queue never holds more than `edge_capacity`
/// readings however the reader batches.
fn batch_cap(edge_capacity: usize) -> usize {
    edge_capacity / queue_slots(edge_capacity)
}

/// One proximity group as the gateway needs it: type, granule, members.
/// (Mirrors `esp_receptors::GroupSpec` plus the receptor type that
/// `ProximityGroups::add_group` requires.)
#[derive(Debug, Clone)]
pub struct GatewayGroup {
    /// Device type shared by the group's members.
    pub receptor_type: ReceptorType,
    /// Spatial granule name — the shard-placement key.
    pub granule: String,
    /// Member devices.
    pub members: Vec<ReceptorId>,
}

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of worker pipelines to shard granules across.
    pub n_shards: usize,
    /// Readings each bounded shard queue may hold (default 256). Readers
    /// hand readings off in batches of at most half this (the queue has
    /// two slots, so one batch can fill while the other drains); a full
    /// queue blocks the reader and lets TCP flow control push back on the
    /// sender.
    pub edge_capacity: usize,
    /// First epoch boundary.
    pub start: Ts,
    /// Epoch spacing.
    pub period: TimeDelta,
    /// Don't flush any epoch until this many connections have completed
    /// their handshake (cumulative, closed connections count). Lets a
    /// deployment with a known receptor fleet hold punctuation until
    /// everyone is on the air.
    pub min_connections: usize,
    /// Upper bound accepted for the bounded-lateness promise a client
    /// declares in its handshake; connections declaring more are refused.
    /// Also the value static validation compares against downstream
    /// window extents (`E0501`). `None` accepts any declared lateness.
    pub max_lateness: Option<TimeDelta>,
    /// The proximity groups (and through them, the routable receptors).
    pub groups: Vec<GatewayGroup>,
    /// Durability: a write-ahead reading log plus epoch-aligned
    /// checkpoints under the given directory. `None` (the default) runs
    /// the gateway as soft state, exactly as before.
    pub durability: Option<DurabilityConfig>,
}

impl GatewayConfig {
    /// Config with defaults: ephemeral localhost port, 4 shards, shard
    /// queues of 256 readings, 200 ms epochs, no connection-count gating.
    pub fn new(groups: Vec<GatewayGroup>) -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            n_shards: 4,
            edge_capacity: DEFAULT_QUEUE_CAPACITY,
            start: Ts::ZERO,
            period: TimeDelta::from_millis(200),
            min_connections: 1,
            max_lateness: None,
            groups,
            durability: None,
        }
    }

    /// Statically validate this configuration before any socket is bound.
    ///
    /// `smooth_window` is the narrowest smoothing-window extent of the
    /// downstream cascade, when the caller knows it (the pipeline factory
    /// is opaque to the gateway, so it cannot discover this itself).
    ///
    /// Checks performed (see `esp-lint` for the full catalog):
    ///
    /// * `E0501` — `max_lateness` at or above the downstream window: a
    ///   maximally late reading postpones every flush past the entire
    ///   window that was supposed to smooth it.
    /// * `E0302` — a proximity group with no members (unroutable).
    /// * `E0303` — two groups sharing one spatial-granule name.
    /// * `E0503` — degenerate resources: zero shards, zero queue
    ///   capacity, a zero epoch period, or no groups at all.
    /// * `E0801`/`E0802`/`E0803` — durability misconfiguration, when a
    ///   durability section is present (see `esp_durability::config`).
    ///
    /// [`Gateway::spawn`] runs this (with `smooth_window = None`) plus a
    /// pipeline-scope check (`E0502`) and refuses to start when any
    /// error-severity diagnostic fires.
    pub fn validate(&self, smooth_window: Option<TimeDelta>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        if self.n_shards == 0 {
            diags.push(Diagnostic::error(
                "E0503",
                "gateway needs at least one shard",
            ));
        }
        if self.edge_capacity == 0 {
            diags.push(Diagnostic::error(
                "E0503",
                "shard queue capacity must be positive",
            ));
        }
        if self.period == TimeDelta::ZERO {
            diags.push(Diagnostic::error("E0503", "epoch period must be positive"));
        }
        if self.groups.is_empty() {
            diags.push(
                Diagnostic::error("E0503", "gateway has no proximity groups")
                    .with_note("without groups no receptor is routable to a shard"),
            );
        }
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (i, g) in self.groups.iter().enumerate() {
            if g.members.is_empty() {
                diags.push(
                    Diagnostic::error(
                        "E0302",
                        format!("proximity group '{}' has no members", g.granule),
                    )
                    .with_note("its shard would idle and Merge over it can never fire"),
                );
            }
            if let Some(prev) = seen.insert(g.granule.as_str(), i) {
                diags.push(Diagnostic::error(
                    "E0303",
                    format!(
                        "spatial granule '{}' is declared by two groups (#{prev} and #{i})",
                        g.granule
                    ),
                ));
            }
        }
        if let (Some(late), Some(window)) = (self.max_lateness, smooth_window) {
            if late >= window {
                diags.push(
                    Diagnostic::error(
                        "E0501",
                        format!(
                            "accepted connection lateness bound ({late}) is at least the \
                             downstream smoothing window ({window})"
                        ),
                    )
                    .with_note(
                        "the watermark holds every flush until the lateness bound passes, \
                         so each epoch would stall for longer than the window that is \
                         supposed to smooth it",
                    ),
                );
            }
        }
        if let Some(d) = &self.durability {
            diags.extend(d.validate(self.period, self.max_lateness));
        }
        esp_types::diag::sort_diagnostics(&mut diags);
        diags
    }
}

/// One pipeline's output, epoch by epoch: the flushed batch at each
/// epoch boundary, in flush order.
pub type EpochTrace = Vec<(Ts, Batch)>;

/// A running gateway. Drop order does not matter; call
/// [`Gateway::finish`] for an orderly drain.
pub struct Gateway {
    local_addr: SocketAddr,
    stop_accept: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    killed: Arc<AtomicBool>,
    accept_handle: JoinHandle<()>,
    coordinator: JoinHandle<Result<()>>,
    readers: Arc<Mutex<Readers>>,
    clock: WatermarkClock,
    workers: Vec<JoinHandle<Result<()>>>,
    traces: Vec<Arc<Mutex<EpochTrace>>>,
    crash_countdowns: Vec<Arc<AtomicI64>>,
    stats: GatewayStats,
    queue_stats: QueueStats,
}

/// Everything a drained gateway produced.
#[derive(Debug)]
pub struct GatewayOutput {
    /// Per-shard output traces, indexed by shard id. Shards hosting no
    /// granule have empty traces.
    pub shard_traces: Vec<EpochTrace>,
    /// Final counter snapshot.
    pub stats: GatewaySnapshot,
}

impl GatewayOutput {
    /// Union the shard traces into one per-epoch trace, canonically
    /// sorted within each epoch so it can be compared against a
    /// single-process [`EspProcessor`](esp_core::EspProcessor) run.
    pub fn merged_trace(&self) -> EpochTrace {
        let mut by_epoch: BTreeMap<u64, Batch> = BTreeMap::new();
        for trace in &self.shard_traces {
            for (ts, batch) in trace {
                by_epoch
                    .entry(ts.as_millis())
                    .or_default()
                    .extend(batch.iter().cloned());
            }
        }
        by_epoch
            .into_iter()
            .map(|(ms, mut batch)| {
                canonical_sort(&mut batch);
                (Ts::from_millis(ms), batch)
            })
            .collect()
    }

    /// Total tuples across every shard and epoch.
    pub fn total_tuples(&self) -> usize {
        self.shard_traces
            .iter()
            .flatten()
            .map(|(_, b)| b.len())
            .sum()
    }
}

/// Sort a batch into a canonical order (timestamp, then the debug
/// rendering of the values). Sharding changes only the interleaving of
/// tuples within an epoch; after this sort, a sharded epoch equals its
/// single-process counterpart.
pub fn canonical_sort(batch: &mut Batch) {
    batch.sort_by_key(|t| (t.ts(), format!("{:?}", t.values())));
}

impl Gateway {
    /// Bind, build one `EspProcessor` per non-empty shard, and start all
    /// threads. `pipeline_factory(shard)` builds each shard's cleaning
    /// cascade (pipelines are not clonable; stages carry state).
    pub fn spawn(
        config: GatewayConfig,
        mut pipeline_factory: impl FnMut(usize) -> Pipeline,
    ) -> Result<Gateway> {
        let errors: Vec<_> = config
            .validate(None)
            .into_iter()
            .filter(|d| d.is_error())
            .collect();
        if !errors.is_empty() {
            return Err(EspError::Invalid(errors));
        }

        let router = Arc::new(ShardRouter::new(&config.groups, config.n_shards));
        let live_shards = {
            let mut shards: Vec<usize> = config
                .groups
                .iter()
                .map(|g| shard_of_granule(&g.granule, config.n_shards))
                .collect();
            shards.sort_unstable();
            shards.dedup();
            shards.len()
        };
        let stats = GatewayStats::new(config.n_shards);
        let queue_stats = QueueStats::registered(&stats.registry());
        let clock = WatermarkClock::new();

        // Open durable state first: `WalWriter::open` recovers the log's
        // high-water marks, which seed the coordinator (resume at the
        // epoch after the last flushed one) and the stats max-timestamp
        // (so the drain sweep re-covers every logged reading).
        let mut coordinator = Coordinator::new(
            config.start.as_millis(),
            config.period.as_millis(),
            config.min_connections,
        );
        let durable = match &config.durability {
            Some(dc) => {
                let wal = WalWriter::open(&dc.wal_dir(), dc.segment_bytes)?;
                if let Some(last) = wal.last_flush_epoch() {
                    coordinator.resume(last.as_millis());
                }
                if let Some(max) = wal.max_reading_ts() {
                    stats.seed_max_ts(max.as_millis());
                }
                let store = Arc::new(SnapshotStore::open(&dc.snapshot_dir())?);
                let every = (dc.checkpoint_interval.as_millis() / config.period.as_millis()).max(1);
                Some((dc.clone(), Arc::new(Mutex::new(wal)), store, every))
            }
            None => None,
        };
        let crash_countdowns: Vec<Arc<AtomicI64>> = (0..config.n_shards)
            .map(|_| Arc::new(AtomicI64::new(-1)))
            .collect();

        // Shard queues + workers.
        let mut txs: Vec<Sender<ShardMsg>> = Vec::with_capacity(config.n_shards);
        let mut workers = Vec::with_capacity(config.n_shards);
        let mut traces: Vec<Arc<Mutex<EpochTrace>>> = Vec::with_capacity(config.n_shards);
        for (shard, crash_countdown) in crash_countdowns.iter().enumerate() {
            let (tx, rx) = bounded(queue_slots(config.edge_capacity));
            txs.push(tx);
            let trace: Arc<Mutex<EpochTrace>> = Arc::new(Mutex::new(Vec::new()));
            traces.push(Arc::clone(&trace));
            let shard_groups: Vec<GatewayGroup> = config
                .groups
                .iter()
                .filter(|g| shard_of_granule(&g.granule, config.n_shards) == shard)
                .cloned()
                .collect();
            let hooks = durable
                .as_ref()
                .map(|(dc, wal, store, every)| DurabilityHooks {
                    config: dc.clone(),
                    store: Arc::clone(store),
                    wal: Arc::clone(wal),
                    router: Arc::clone(&router),
                    n_shards: config.n_shards,
                    checkpoint_every: *every,
                    crash_countdown: Arc::clone(crash_countdown),
                });
            if shard_groups.is_empty() {
                workers.push(spawn_idle(shard, rx, stats.clone(), hooks)?);
                continue;
            }

            let pipeline = pipeline_factory(shard);
            if durable.is_some() {
                // Probe-build the shard's cascade to ask the static half
                // of the durability contract: every stage must have a
                // serialized state form, or the gateway would run fine
                // until the first checkpoint fires and then die at
                // runtime. Cheap (single-threaded build, no I/O) and only
                // paid when durability is on; the worker rebuilds from
                // the same factories on startup anyway.
                let (probe, _buffers) = crate::worker::build_shard(&shard_groups, &pipeline)?;
                let bad = probe.non_checkpointable_stages();
                if !bad.is_empty() {
                    return Err(EspError::Invalid(vec![Diagnostic::error(
                        "E0804",
                        format!(
                            "durable gateway pipeline contains stage(s) that cannot be \
                             checkpointed: {}",
                            bad.join(", ")
                        ),
                    )
                    .with_note(
                        "declarative (compiled-query) stages have no serialized window \
                         state; use the built-in stages or run without durability",
                    )]));
                }
                // The replay half of the same contract: recovery replays
                // the WAL, so a stage whose output is not a pure function
                // of its input would recover to different bytes. Rejected
                // here, at spawn, for the same reason E0804 is — failing
                // at the first recovery would be far worse.
                let tainted = probe.nondeterministic_stages();
                if !tainted.is_empty() {
                    let detail = tainted
                        .iter()
                        .map(|(name, reason)| format!("'{name}' ({reason})"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    return Err(EspError::Invalid(vec![Diagnostic::error(
                        "E0903",
                        format!(
                            "durable gateway pipeline contains nondeterministic stage(s): \
                             {detail}"
                        ),
                    )
                    .with_note(
                        "WAL replay cannot reproduce wall-clock reads or other volatile \
                         effects; make the stage deterministic or run without durability",
                    )]));
                }
            }
            if live_shards > 1 {
                if let Some(slot) = pipeline.slots().iter().find(|s| s.scope == Scope::Global) {
                    return Err(EspError::Invalid(vec![Diagnostic::error(
                        "E0502",
                        format!(
                            "global-scope stage '{}' in a gateway sharded across \
                             {live_shards} live shards",
                            slot.label
                        ),
                    )
                    .with_note(
                        "each shard runs its own cascade, so a global stage would only \
                         see its shard's granules; use one shard or a per-group stage",
                    )]));
                }
            }
            workers.push(spawn_worker(
                shard,
                rx,
                shard_groups,
                pipeline,
                Arc::clone(&trace),
                stats.clone(),
                hooks,
            )?);
        }

        // Listener + accept loop.
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| EspError::Config(format!("bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| EspError::Config(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| EspError::Config(format!("set_nonblocking: {e}")))?;

        let stop_accept = Arc::new(AtomicBool::new(false));
        let readers: Arc<Mutex<Readers>> = Arc::default();
        let max_lateness = config.max_lateness;
        let batch_cap = batch_cap(config.edge_capacity);
        let accept_handle = {
            let stop = Arc::clone(&stop_accept);
            let readers = Arc::clone(&readers);
            let router = Arc::clone(&router);
            let txs = txs.clone();
            let stats = stats.clone();
            let queue_stats = queue_stats.clone();
            let clock = clock.clone();
            let wal = durable.as_ref().map(|(_, w, _, _)| Arc::clone(w));
            thread::Builder::new()
                .name("esp-gateway-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                let router = Arc::clone(&router);
                                let txs = txs.clone();
                                let conn_stats = stats.clone();
                                let queue_stats = queue_stats.clone();
                                let clock = clock.clone();
                                let wal = wal.clone();
                                let spawned = thread::Builder::new()
                                    .name("esp-gateway-conn".into())
                                    .spawn(move || {
                                        serve_connection(
                                            stream,
                                            max_lateness,
                                            batch_cap,
                                            &router,
                                            &txs,
                                            &clock,
                                            wal.as_deref(),
                                            &conn_stats,
                                            &queue_stats,
                                        )
                                    });
                                match spawned {
                                    Ok(h) => {
                                        let mut readers = readers.lock();
                                        readers.reap();
                                        readers.live.push(h);
                                    }
                                    Err(_) => stats.note_io_error(),
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(1));
                            }
                            Err(_) => {
                                stats.note_io_error();
                                thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                })
                .map_err(|e| EspError::Config(format!("spawn accept thread: {e}")))?
        };

        // Epoch coordinator.
        let drain = Arc::new(AtomicBool::new(false));
        let killed = Arc::new(AtomicBool::new(false));
        let coordinator = {
            let drain = Arc::clone(&drain);
            let killed = Arc::clone(&killed);
            let stats = stats.clone();
            let txs = txs.clone();
            let clock = clock.clone();
            let wal = durable.as_ref().map(|(_, w, _, _)| Arc::clone(w));
            thread::Builder::new()
                .name("esp-gateway-coordinator".into())
                .spawn(move || {
                    coordinate(
                        coordinator,
                        &clock,
                        &stats,
                        &txs,
                        &drain,
                        &killed,
                        wal.as_deref(),
                    )
                })
                .map_err(|e| EspError::Config(format!("spawn coordinator thread: {e}")))?
        };

        Ok(Gateway {
            local_addr,
            stop_accept,
            drain,
            killed,
            accept_handle,
            coordinator,
            readers,
            clock,
            workers,
            traces,
            crash_countdowns,
            stats,
            queue_stats,
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters (snapshot; safe to call while running).
    pub fn snapshot(&self) -> GatewaySnapshot {
        self.stats.snapshot(&self.queue_stats)
    }

    /// The observability registry every gateway counter, span, and
    /// histogram lives in (per-gateway; safe to scrape while running).
    pub fn registry(&self) -> esp_obs::Registry {
        self.stats.registry()
    }

    /// Prometheus text exposition of this gateway's registry merged with
    /// the process-global one — the same document the `STATS` wire frame
    /// serves.
    pub fn render_text(&self) -> String {
        self.stats.render_text()
    }

    /// [`Gateway::render_text`], but as one JSON document.
    pub fn render_json(&self) -> String {
        self.stats.render_json()
    }

    /// Graceful shutdown: stop accepting, wait for every open connection
    /// to finish (clients must close their sockets), flush the final
    /// epochs, join all workers, and return the collected output.
    pub fn finish(self) -> Result<GatewayOutput> {
        let (traces, stats, queue_stats) = (
            self.traces.clone(),
            self.stats.clone(),
            self.queue_stats.clone(),
        );
        self.shut_down(true)?;
        let shard_traces = traces
            .iter()
            .map(|t| std::mem::take(&mut *t.lock()))
            .collect();
        Ok(GatewayOutput {
            shard_traces,
            stats: stats.snapshot(&queue_stats),
        })
    }

    /// Simulate a whole-process crash as faithfully as an in-process
    /// gateway can: stop accepting, let open connections wind down, then
    /// stop the coordinator *without* the final drain sweep and discard
    /// every worker's in-memory output. Durable state (WAL + snapshots)
    /// is left exactly as the crash would leave it; a gateway re-spawned
    /// on the same durability directory recovers from it.
    pub fn kill(self) -> Result<()> {
        self.shut_down(false)
    }

    /// Stop accepting, wait for every reader to exit, then stop the
    /// coordinator — after its drain sweep, or at once — and the workers.
    fn shut_down(self, drain: bool) -> Result<()> {
        stop_readers(&self.stop_accept, self.accept_handle, &self.readers)?;
        // Every reader closes its clock on the way out, whatever ended it.
        debug_assert!(self.clock.global().is_none_or(|wm| wm == protocol::CLOSED));
        // Every reading that will ever arrive is now in the shard queues.
        // Draining tells the coordinator to flush through the end of the
        // data: the Release store pairs with its Acquire load, so if it
        // observes `drain`, the reader joins above (and every enqueue they
        // performed) happen-before its final flush sweep. Killing stops it
        // without the sweep; dropping its senders disconnects the shard
        // queues, and the workers drain what was in flight and exit.
        match drain {
            true => self.drain.store(true, Ordering::Release),
            false => self.killed.store(true, Ordering::Release),
        }
        // A worker that died early also makes the coordinator fail (its
        // channel disconnects); join everything before reporting so the
        // root-cause worker error wins over the coordinator's symptom.
        let coord = self
            .coordinator
            .join()
            .map_err(|_| EspError::Config("gateway coordinator panicked".into()))?;
        let mut first_err = None;
        for w in self.workers {
            let joined = w
                .join()
                .map_err(|_| EspError::Config("gateway worker panicked".into()))?;
            if let Err(e) = joined {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => coord,
        }
    }

    /// Arm the fault injector: `shard`'s worker simulates a crash after
    /// processing `after_flushes` more flush messages (0 = on the next
    /// one), abandoning its processor and buffered readings and coming
    /// back through the snapshot + WAL-replay recovery path. Only honored
    /// when durability is configured; without it the countdown is never
    /// read.
    pub fn inject_crash(&self, shard: usize, after_flushes: u64) {
        if let Some(c) = self.crash_countdowns.get(shard) {
            c.store(after_flushes as i64, Ordering::Release);
        }
    }
}

/// Connection reader threads: the live ones, and whether one already
/// joined had panicked.
#[derive(Default)]
struct Readers {
    live: Vec<JoinHandle<()>>,
    panicked: bool,
}

impl Readers {
    /// Join the readers that have exited, so a churning fleet leaves no
    /// handles behind.
    fn reap(&mut self) {
        for h in self.live.extract_if(.., |h| h.is_finished()) {
            self.panicked |= h.join().is_err();
        }
    }
}

/// Stop accepting and wait for every connection reader to exit.
fn stop_readers(stop: &AtomicBool, accept: JoinHandle<()>, readers: &Mutex<Readers>) -> Result<()> {
    stop.store(true, Ordering::Release);
    accept
        .join()
        .map_err(|_| EspError::Config("gateway accept thread panicked".into()))?;
    let mut readers = readers.lock();
    for h in std::mem::take(&mut readers.live) {
        readers.panicked |= h.join().is_err();
    }
    match readers.panicked {
        true => Err(EspError::Config("gateway reader thread panicked".into())),
        false => Ok(()),
    }
}

/// The coordinator loop, running a [`Coordinator`]: poll the
/// watermark, broadcast the due epochs, and on drain flush everything up
/// to the last reading before shutting workers down. On a restart the
/// machine resumes after the recovered WAL's last flush, so the epoch
/// sequence continues where the previous process left off.
fn coordinate(
    mut core: Coordinator,
    clock: &WatermarkClock,
    stats: &GatewayStats,
    txs: &[Sender<ShardMsg>],
    drain: &AtomicBool,
    killed: &AtomicBool,
    wal: Option<&Mutex<WalWriter>>,
) -> Result<()> {
    loop {
        if killed.load(Ordering::Acquire) {
            // Simulated hard crash: no final flush sweep, no Shutdown —
            // exactly what the workers would (not) see on a power cut.
            return Ok(());
        }
        let draining = drain.load(Ordering::Acquire);
        let watermark = core.watermark(draining, clock.registered(), clock.global());
        let max_ts = stats.max_ts_ms();
        while let Some(epoch) = core.next_due(watermark, max_ts) {
            stats.note_flush_issued(epoch);
            broadcast_flush(txs, wal, Ts::from_millis(epoch), stats)?;
        }
        if draining {
            for tx in txs {
                let _ = tx.send(ShardMsg::Shutdown);
            }
            return Ok(());
        }
        thread::sleep(Duration::from_micros(500));
    }
}

/// Log the flush marker (when durable) and broadcast it to every shard,
/// holding the WAL lock across append + enqueue so per-shard queue order
/// equals WAL order — the invariant recovery's skip rule relies on.
fn broadcast_flush(
    txs: &[Sender<ShardMsg>],
    wal: Option<&Mutex<WalWriter>>,
    epoch: Ts,
    stats: &GatewayStats,
) -> Result<()> {
    let mut wal = wal.map(Mutex::lock);
    let mut seq = 0;
    if let Some(w) = wal.as_mut() {
        let t0 = esp_obs::enabled().then(Instant::now);
        seq = w.append_flush(epoch)?;
        if let Some(t0) = t0 {
            stats.note_wal_flush(t0.elapsed().as_nanos() as u64);
        }
        stats.note_wal_record();
    }
    for tx in txs {
        let msg = ShardMsg::Flush {
            seq,
            epoch,
            sent: Instant::now(),
        };
        tx.send(msg)
            .map_err(|_| EspError::Config("gateway shard worker hung up".into()))?;
    }
    Ok(())
}

/// One connection: handshake, then a frame-decode-route loop until EOF.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: TcpStream,
    max_lateness: Option<TimeDelta>,
    batch_cap: usize,
    router: &ShardRouter,
    txs: &[Sender<ShardMsg>],
    clock: &WatermarkClock,
    wal: Option<&Mutex<WalWriter>>,
    stats: &GatewayStats,
    queue_stats: &QueueStats,
) {
    let lateness_ms = match handshake(&mut stream, max_lateness) {
        Ok(l) => l,
        Err(_) => {
            stats.note_io_error();
            return;
        }
    };
    stats.note_connection();
    let conn = clock.register();
    let mut handoff = HandOff {
        txs,
        wal,
        conn: &conn,
        stats,
        queue_stats,
        core: protocol::Reader::new(txs.len(), lateness_ms, batch_cap),
        records: Vec::new(),
    };
    // Whatever ended the stream, hand off what was already decoded: the
    // readings before a bad frame are as good as the ones before EOF.
    let read = read_frames(stream, router, &mut handoff);
    if read.and(handoff.flush(true)).is_err() {
        stats.note_io_error();
        // A failed hand-off skips the close: release the watermark anyway,
        // so one dead connection cannot stall every pipeline forever.
        conn.close();
    }
}

/// Validate the client hello and return its bounded-lateness promise (ms).
/// A promise above `max_lateness` (when set) refuses the connection: the
/// socket closes without an ack.
fn handshake(stream: &mut TcpStream, max_lateness: Option<TimeDelta>) -> std::io::Result<u64> {
    use std::io::{Error, ErrorKind};
    let mut hello = [0u8; 14];
    stream.read_exact(&mut hello)?;
    let magic = u32::from_be_bytes([hello[0], hello[1], hello[2], hello[3]]);
    let version = u16::from_be_bytes([hello[4], hello[5]]);
    if magic != HELLO_MAGIC {
        return Err(Error::new(ErrorKind::InvalidData, "bad hello magic"));
    }
    if version != PROTOCOL_VERSION {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("unsupported version {version}"),
        ));
    }
    let lateness_ms = u64::from_be_bytes([
        hello[6], hello[7], hello[8], hello[9], hello[10], hello[11], hello[12], hello[13],
    ]);
    if let Some(max) = max_lateness {
        if lateness_ms > max.as_millis() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("declared lateness {lateness_ms} ms exceeds the gateway bound {max}"),
            ));
        }
    }
    stream.write_all(&[ACK_OK])?;
    Ok(lateness_ms)
}

/// Read, decode and route frames until EOF, handing readings off through
/// `handoff`. A batch is handed off when it reaches the cap, when the
/// next frame is not yet buffered (the next read may block, and held
/// readings would hold back this connection's watermark), and before a
/// `STATS` scrape is answered.
fn read_frames(stream: TcpStream, router: &ShardRouter, handoff: &mut HandOff<'_>) -> Result<()> {
    let stats = handoff.stats;
    // Write half for `STATS` scrape responses — the only server→client
    // traffic after the handshake ack, so an ingest-only client that
    // never scrapes sees the exact pre-existing protocol.
    let responder = stream
        .try_clone()
        .map_err(|e| EspError::Wire(format!("clone stream for stats responses: {e}")))?;
    let mut responder = FrameWriter::new(BufWriter::with_capacity(64 * 1024, responder));
    let mut reader = FrameReader::new(BufReader::with_capacity(64 * 1024, stream));
    loop {
        if !reader.frame_buffered() {
            handoff.flush(false)?;
        }
        let Some(frame) = reader
            .read_frame()
            .map_err(|e| EspError::Wire(format!("frame read: {e}")))?
        else {
            return Ok(());
        };
        if frame.as_ref() == STATS_TEXT_REQUEST || frame.as_ref() == STATS_JSON_REQUEST {
            // Scrape request: counted on its own (never as a data frame,
            // so frame-conservation invariants are scrape-invariant) and
            // answered inline on this connection, after everything sent
            // before it has been handed off and counted.
            handoff.flush(false)?;
            stats.note_stats_request();
            let body = if frame.as_ref() == STATS_JSON_REQUEST {
                stats.render_json()
            } else {
                stats.render_text()
            };
            write_stats_response(&mut responder, body.as_bytes())
                .map_err(|e| EspError::Wire(format!("stats response: {e}")))?;
            continue;
        }
        stats.note_frame();
        let Ok(reading) = wire::decode(&frame) else {
            // Paper §4: Point functionality out of the box — checksum
            // failures are dropped at the edge, counted, never forwarded.
            stats.note_corrupt();
            continue;
        };
        let Some(dests) = router.shards_of(reading.receptor()) else {
            stats.note_unroutable();
            continue;
        };
        handoff.push(&frame, reading, dests)?;
    }
}

/// One connection's reader, running a [`protocol::Reader`]: the
/// machine decides what each hand-off sends and when the watermark
/// advances, and this executes its effects in order. With durability on,
/// the batch's frames are appended to the WAL and the batches enqueued in
/// one critical section (group commit), so each shard's queue order is
/// its log order.
struct HandOff<'a> {
    txs: &'a [Sender<ShardMsg>],
    wal: Option<&'a Mutex<WalWriter>>,
    conn: &'a ConnClock,
    stats: &'a GatewayStats,
    queue_stats: &'a QueueStats,
    core: protocol::Reader<Reading>,
    /// WAL records of the pending readings, encoded outside the lock
    /// (durable only). A reused pool: the first `core.pending()` are live,
    /// and a pending reading's `seq` is its index here until the commit.
    records: Vec<PreparedRecord>,
}

impl HandOff<'_> {
    /// Add a decoded reading bound for `dests`, handing off when the
    /// batches reach the cap.
    fn push(&mut self, frame: &[u8], reading: Reading, dests: &[usize]) -> Result<()> {
        let ts = reading.ts();
        let seq = if self.wal.is_some() {
            let i = self.core.pending() as usize;
            if i == self.records.len() {
                self.records.push(PreparedRecord::new());
            }
            self.records[i].encode(frame, ts);
            i as u64
        } else {
            0
        };
        if self.core.push(seq, reading, ts.as_millis(), dests) {
            self.flush(false)?;
        }
        Ok(())
    }

    /// Hand every pending batch off (and close the clock at `eof`),
    /// executing the machine's effects in order.
    fn flush(&mut self, eof: bool) -> Result<()> {
        let readings = self.core.pending();
        let n_records = readings as usize;
        let effects = match eof {
            true => self.core.finish(),
            false => self.core.hand_off(),
        };
        // Hold the WAL lock across append + enqueue so per-shard queue
        // order equals WAL order. Blocking on a full queue while holding
        // the lock is deliberate — recovery never takes this lock (see
        // `crate::durability`), so it cannot deadlock against a
        // recovering worker.
        let mut wal = self.wal.filter(|_| n_records > 0).map(Mutex::lock);
        let mut seqs = Vec::new();
        if let Some(w) = wal.as_mut() {
            seqs.reserve(n_records);
            for rec in &self.records[..n_records] {
                seqs.push(w.append_prepared(rec)?);
                self.stats.note_wal_record();
            }
        }
        for effect in effects {
            match effect {
                Effect::Send { shard, mut batch } => {
                    if !seqs.is_empty() {
                        for entry in &mut batch {
                            entry.0 = seqs[entry.0 as usize];
                        }
                    }
                    let n = batch.len() as u64;
                    let msg = ShardMsg::Readings(batch);
                    send_counted(&self.txs[shard], msg, n, self.queue_stats)?;
                    self.stats.note_shard_readings(shard, n);
                }
                Effect::Advance {
                    max_ts_ms,
                    watermark,
                } => {
                    // The sends are logged and queued: free the log for
                    // other writers before publishing.
                    drop(wal.take());
                    self.stats.note_readings(readings, max_ts_ms);
                    self.conn.advance(watermark);
                }
                Effect::Close => self.conn.close(),
            }
        }
        Ok(())
    }
}

/// Write one scrape document as a sequence of marker-prefixed frames:
/// `[STATS_MORE | STATS_FINAL][chunk]`. Chunked because an exposition
/// can exceed [`MAX_FRAME_LEN`]; the in-band marker byte (rather than an
/// empty terminator frame, which the framing layer forbids) tells the
/// client where the document ends.
fn write_stats_response<W: Write>(w: &mut FrameWriter<W>, body: &[u8]) -> std::io::Result<()> {
    let chunks: Vec<&[u8]> = if body.is_empty() {
        vec![&[][..]]
    } else {
        body.chunks(STATS_CHUNK).collect()
    };
    let last = chunks.len() - 1;
    let mut frame = Vec::new();
    for (i, c) in chunks.iter().enumerate() {
        frame.clear();
        frame.push(if i == last { STATS_FINAL } else { STATS_MORE });
        frame.extend_from_slice(c);
        w.write_raw(&frame)?;
    }
    w.flush()
}

/// Send a batch of `n` readings on a bounded shard queue, recording
/// whether it was full (the blocking path is the backpressure that
/// ultimately stalls the socket).
fn send_counted(tx: &Sender<ShardMsg>, msg: ShardMsg, n: u64, stats: &QueueStats) -> Result<()> {
    match tx.try_send(msg) {
        Ok(()) => {
            stats.record_send(n);
            Ok(())
        }
        Err(TrySendError::Full(msg)) => {
            stats.record_blocked(n);
            tx.send(msg)
                .map_err(|_| EspError::Config("gateway shard worker hung up".into()))
        }
        Err(TrySendError::Disconnected(_)) => {
            Err(EspError::Config("gateway shard worker hung up".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(granule: &str, members: &[u32]) -> GatewayGroup {
        GatewayGroup {
            receptor_type: ReceptorType::Rfid,
            granule: granule.into(),
            members: members.iter().map(|&m| ReceptorId(m)).collect(),
        }
    }

    #[test]
    fn validate_accepts_default_config() {
        let config = GatewayConfig::new(vec![group("shelf0", &[0])]);
        assert!(config.validate(None).is_empty());
        assert!(config.validate(Some(TimeDelta::from_secs(5))).is_empty());
    }

    #[test]
    fn validate_flags_degenerate_resources() {
        let mut config = GatewayConfig::new(vec![]);
        config.n_shards = 0;
        config.edge_capacity = 0;
        config.period = TimeDelta::ZERO;
        let diags = config.validate(None);
        assert_eq!(
            diags.iter().filter(|d| d.code == "E0503").count(),
            4,
            "{diags:?}"
        );
    }

    #[test]
    fn validate_flags_group_defects() {
        let config = GatewayConfig::new(vec![group("a", &[]), group("a", &[1])]);
        let diags = config.validate(None);
        assert!(diags.iter().any(|d| d.code == "E0302"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "E0303"), "{diags:?}");
    }

    #[test]
    fn validate_flags_lateness_at_or_above_window() {
        let mut config = GatewayConfig::new(vec![group("shelf0", &[0])]);
        config.max_lateness = Some(TimeDelta::from_secs(5));
        let diags = config.validate(Some(TimeDelta::from_secs(5)));
        assert!(
            diags.iter().any(|d| d.code == "E0501" && d.is_error()),
            "{diags:?}"
        );
        // Strictly below the window is fine.
        assert!(config.validate(Some(TimeDelta::from_secs(6))).is_empty());
        // Unknown window: nothing to compare against.
        assert!(config.validate(None).is_empty());
    }

    #[test]
    fn spawn_rejects_invalid_config_with_diagnostics() {
        let mut config = GatewayConfig::new(vec![group("g", &[0])]);
        config.n_shards = 0;
        match Gateway::spawn(config, |_| Pipeline::raw()) {
            Err(EspError::Invalid(diags)) => {
                assert!(diags.iter().any(|d| d.code == "E0503"), "{diags:?}")
            }
            Err(other) => panic!("expected Invalid, got {other}"),
            Ok(_) => panic!("expected Invalid, got a running gateway"),
        }
    }

    #[test]
    fn spawn_rejects_global_stage_across_live_shards() {
        // Two granules that hash to different shards.
        let mut names = (0..).map(|i| format!("g{i}"));
        let a = names.next().unwrap();
        let b = names
            .find(|n| shard_of_granule(n, 4) != shard_of_granule(&a, 4))
            .unwrap();
        let config = GatewayConfig::new(vec![group(&a, &[0]), group(&b, &[1])]);
        let result = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .global("arbitrate", |_| {
                    Ok(Box::new(esp_core::FnStage::per_epoch(
                        "arbitrate",
                        |_, input| Ok(input),
                    )))
                })
                .build()
        });
        match result {
            Err(EspError::Invalid(diags)) => {
                assert!(
                    diags.iter().any(|d| d.code == "E0502" && d.is_error()),
                    "{diags:?}"
                )
            }
            Err(other) => panic!("expected Invalid, got {other}"),
            Ok(_) => panic!("expected Invalid, got a running gateway"),
        }
    }

    #[test]
    fn connection_churn_keeps_clocks_and_reader_handles_bounded() {
        let config = GatewayConfig::new(vec![group("g", &[0])]);
        let gateway = Gateway::spawn(config, |_| Pipeline::raw()).unwrap();
        let (mut clocks, mut handles) = (0, 0);
        for _ in 0..2000 {
            crate::GatewayClient::connect(gateway.local_addr(), TimeDelta::ZERO)
                .unwrap()
                .finish()
                .unwrap();
            clocks = clocks.max(gateway.clock.tracked());
            handles = handles.max(gateway.readers.lock().live.len());
        }
        // One connection is open at a time; the slack covers readers that
        // have not yet exited or been pruned, not the 2 000 made so far.
        assert!(
            clocks <= 64 && handles <= 64,
            "clocks {clocks}, handles {handles}"
        );
        assert_eq!(gateway.finish().unwrap().stats.connections, 2000);
    }

    #[test]
    fn a_reaped_reader_panic_still_fails_the_shutdown() {
        let readers = Mutex::new(Readers::default());
        let panicked = thread::spawn(|| panic!("reader panics on purpose"));
        while !panicked.is_finished() {
            thread::yield_now();
        }
        readers.lock().live.push(panicked);
        readers.lock().reap();
        assert!(readers.lock().live.is_empty(), "joined at reap time");
        let accept = thread::spawn(|| {});
        match stop_readers(&AtomicBool::new(false), accept, &readers) {
            Err(e) => assert!(e.to_string().contains("reader thread panicked"), "{e}"),
            Ok(()) => panic!("a reaped panic was forgotten"),
        }
    }

    #[test]
    fn spawn_rejects_durable_declarative_stage_with_e0804() {
        let dir = std::env::temp_dir().join(format!("esp-e0804-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = GatewayConfig::new(vec![group("g", &[0])]);
        config.durability = Some(DurabilityConfig::new(&dir));
        let result = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .per_receptor("q", |_| {
                    let q = esp_query::Engine::new()
                        .compile("SELECT tag_id FROM s [Range By '5 sec']")?;
                    Ok(Box::new(esp_core::DeclarativeStage::new("q", q)?))
                })
                .build()
        });
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Err(EspError::Invalid(diags)) => {
                assert!(
                    diags.iter().any(|d| d.code == "E0804" && d.is_error()),
                    "{diags:?}"
                )
            }
            Err(other) => panic!("expected Invalid, got {other}"),
            Ok(_) => panic!("expected Invalid, got a running gateway"),
        }
    }

    #[test]
    fn spawn_rejects_durable_nondeterministic_stage_with_e0903() {
        let dir = std::env::temp_dir().join(format!("esp-e0903-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = GatewayConfig::new(vec![group("g", &[0])]);
        config.durability = Some(DurabilityConfig::new(&dir));
        let result = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .per_receptor("stamp", |_| {
                    Ok(Box::new(
                        esp_core::FnStage::per_tuple("stamp", |t| Ok(Some(t.clone())))
                            .nondeterministic("stamps tuples with the wall clock"),
                    ))
                })
                .build()
        });
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Err(EspError::Invalid(diags)) => {
                let d = diags
                    .iter()
                    .find(|d| d.code == "E0903" && d.is_error())
                    .unwrap_or_else(|| panic!("{diags:?}"));
                assert!(d.message.contains("wall clock"), "{}", d.message);
            }
            Err(other) => panic!("expected Invalid, got {other}"),
            Ok(_) => panic!("expected Invalid, got a running gateway"),
        }
        // Without durability the same pipeline spawns fine: determinism is
        // only load-bearing for WAL replay.
        let config = GatewayConfig::new(vec![group("g", &[0])]);
        let gateway = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .per_receptor("stamp", |_| {
                    Ok(Box::new(
                        esp_core::FnStage::per_tuple("stamp", |t| Ok(Some(t.clone())))
                            .nondeterministic("stamps tuples with the wall clock"),
                    ))
                })
                .build()
        })
        .unwrap();
        gateway.finish().unwrap();
    }

    #[test]
    fn spawn_allows_global_stage_on_single_live_shard() {
        let config = GatewayConfig::new(vec![group("only", &[0])]);
        let gateway = Gateway::spawn(config, |_| {
            esp_core::Pipeline::builder()
                .global("arbitrate", |_| {
                    Ok(Box::new(esp_core::FnStage::per_epoch(
                        "arbitrate",
                        |_, input| Ok(input),
                    )))
                })
                .build()
        })
        .unwrap();
        gateway.finish().unwrap();
    }
}
