//! Gateway counters: per-connection ingest totals, per-shard routing
//! totals, and epoch flush latency (coordinator issues a flush → the last
//! shard finishes stepping it).
//!
//! Every counter lives in an [`esp_obs::Registry`] owned by the gateway
//! (one registry per gateway, so tests running many gateways in one
//! process stay isolated); [`GatewayStats`] is a thin typed view over the
//! registered handles, and [`GatewaySnapshot`] reads back exactly the
//! same fields it always did. The registry is what the `STATS` wire
//! frame scrapes, merged with the process-global registry (query-engine
//! and window-path counters) into one exposition document.
//!
//! Shard-queue backpressure is tracked through the shared
//! [`esp_stream::QueueStats`], registered in the same registry via
//! [`QueueStats::registered`](esp_stream::QueueStats::registered).
//!
//! Ordering audit: every atomic here is `Relaxed` (see the `esp_obs`
//! crate docs for the blanket audit). All counters except `max_ts_ms`
//! are monitoring-only — no control decision reads them, no data is
//! published alongside an increment, so RMW atomicity is the only
//! property needed. `max_ts_ms` *is* read for control (the coordinator's
//! flush bound) — see [`GatewayStats::max_ts_ms`] for why `Relaxed` is
//! still correct there.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use esp_metrics::Report;
use esp_obs::{Counter, Gauge, Histogram, Registry};
use esp_stream::QueueStats;

pub(crate) use esp_obs::CpuTimer;

#[derive(Debug)]
struct Inner {
    registry: Registry,
    connections: Counter,
    frames: Counter,
    stats_requests: Counter,
    corrupt_frames: Counter,
    readings: Counter,
    unroutable: Counter,
    io_errors: Counter,
    max_ts_ms: Gauge,
    wal_records: Counter,
    checkpoints: Counter,
    checkpoint_nanos: Counter,
    crashes: Counter,
    recoveries: Counter,
    shard_readings: Vec<Counter>,
    /// Per shard: strings in its current string table, and fresh tables
    /// started because one was full.
    shard_strings: Vec<Gauge>,
    shard_string_table_swaps: Vec<Counter>,
    /// Closed flush measurements, µs. Exact sum and count (the mean the
    /// snapshot reports is exact; only the quantiles are bucketed).
    flush_latency_us: Histogram,
    /// Worst flush ever, µs — `fetch_max` gauge, exact.
    flush_latency_max_us: Gauge,
    /// Coordinator sent a flush → shard worker dequeued it.
    queue_wait_nanos: Histogram,
    /// Time inside `Wal::append_flush` (the durability fsync point).
    wal_flush_nanos: Histogram,
    flush: Mutex<FlushTracker>,
}

#[derive(Debug, Default)]
struct FlushTracker {
    n_shards: usize,
    /// Epochs issued but not yet stepped by every shard.
    pending: HashMap<u64, (Instant, usize)>,
}

/// Cheap-to-clone handle over the gateway's shared counters.
#[derive(Debug, Clone)]
pub struct GatewayStats {
    inner: Arc<Inner>,
}

impl Default for GatewayStats {
    fn default() -> GatewayStats {
        GatewayStats::new(0)
    }
}

impl GatewayStats {
    /// Counters at zero, registered in a fresh per-gateway registry,
    /// sized for `n_shards` workers.
    pub fn new(n_shards: usize) -> GatewayStats {
        let r = Registry::new();
        let c = |name: &str| r.counter(name, &[]);
        let shards = || (0..n_shards).map(|s| s.to_string());
        let inner = Inner {
            connections: c("esp_gateway_connections_total"),
            frames: c("esp_gateway_frames_total"),
            stats_requests: c("esp_gateway_stats_requests_total"),
            corrupt_frames: c("esp_gateway_corrupt_frames_total"),
            readings: c("esp_gateway_readings_total"),
            unroutable: c("esp_gateway_unroutable_total"),
            io_errors: c("esp_gateway_io_errors_total"),
            max_ts_ms: r.gauge("esp_gateway_max_ts_ms", &[]),
            wal_records: c("esp_gateway_wal_records_total"),
            checkpoints: c("esp_gateway_checkpoints_total"),
            checkpoint_nanos: c("esp_gateway_checkpoint_nanos_total"),
            crashes: c("esp_gateway_crashes_total"),
            recoveries: c("esp_gateway_recoveries_total"),
            shard_readings: shards()
                .map(|s| r.counter("esp_gateway_shard_readings_total", &[("shard", &s)]))
                .collect(),
            shard_strings: shards()
                .map(|s| r.gauge("esp_gateway_shard_strings", &[("shard", &s)]))
                .collect(),
            shard_string_table_swaps: shards()
                .map(|s| r.counter("esp_gateway_string_table_swaps_total", &[("shard", &s)]))
                .collect(),
            flush_latency_us: r.histogram("esp_gateway_flush_latency_us", &[]),
            flush_latency_max_us: r.gauge("esp_gateway_flush_latency_max_us", &[]),
            queue_wait_nanos: r.histogram("esp_gateway_queue_wait_nanos", &[]),
            wal_flush_nanos: r.histogram("esp_gateway_wal_flush_nanos", &[]),
            flush: Mutex::new(FlushTracker {
                n_shards,
                ..FlushTracker::default()
            }),
            registry: r,
        };
        GatewayStats {
            inner: Arc::new(inner),
        }
    }

    /// The registry behind every counter. Shard workers register their
    /// per-stage spans here; the `STATS` frame renders it.
    pub fn registry(&self) -> Registry {
        self.inner.registry.clone()
    }

    /// Render this gateway's registry, merged with the process-global
    /// registry (query/window counters), as Prometheus text exposition.
    pub fn render_text(&self) -> String {
        self.inner.registry.render_text_with(&[esp_obs::global()])
    }

    /// [`GatewayStats::render_text`], but as one JSON document.
    pub fn render_json(&self) -> String {
        self.inner.registry.render_json_with(&[esp_obs::global()])
    }

    /// A connection completed its handshake.
    pub fn note_connection(&self) {
        self.inner.connections.inc();
    }

    /// `frames` data frames arrived (whether or not they decode), of which
    /// `corrupt` failed checksum/decoding and were dropped at the edge and
    /// `unroutable` named a receptor outside every registered group. A
    /// connection reader reports once per hand-off. `STATS` scrape
    /// requests are *not* data frames — see
    /// [`GatewayStats::note_stats_request`] — so the frame-conservation
    /// law (`frames == readings + corrupt + unroutable`) is unaffected by
    /// how often the gateway is scraped.
    pub fn note_frames(&self, frames: u64, corrupt: u64, unroutable: u64) {
        for (counter, n) in [
            (&self.inner.frames, frames),
            (&self.inner.corrupt_frames, corrupt),
            (&self.inner.unroutable, unroutable),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// A `STATS` scrape request arrived on an ingest connection.
    pub fn note_stats_request(&self) {
        self.inner.stats_requests.inc();
    }

    /// `n` decoded readings were accepted, routed and handed off to
    /// their shards; `max_ts_ms` is the largest timestamp among them.
    pub fn note_readings(&self, n: u64, max_ts_ms: u64) {
        self.inner.readings.add(n);
        self.inner.max_ts_ms.fetch_max(max_ts_ms);
    }

    /// `n` readings were handed off to `shard` (a reading fanned out to
    /// several shards counts once at each).
    pub fn note_shard_readings(&self, shard: usize, n: u64) {
        if let Some(c) = self.inner.shard_readings.get(shard) {
            c.add(n);
        }
    }

    /// `shard`'s string table after an epoch: `strings` entries in its
    /// current table, and `swaps` fresh tables started since the worker
    /// began (a cumulative count).
    pub fn note_string_table(&self, shard: usize, strings: u64, swaps: u64) {
        if let Some(g) = self.inner.shard_strings.get(shard) {
            g.set(strings);
        }
        if let Some(c) = self.inner.shard_string_table_swaps.get(shard) {
            c.add(swaps.saturating_sub(c.get()));
        }
    }

    /// A connection died with a transport error (counted, not fatal).
    pub fn note_io_error(&self) {
        self.inner.io_errors.inc();
    }

    /// A record (reading or flush marker) was appended to the WAL.
    pub fn note_wal_record(&self) {
        self.inner.wal_records.inc();
    }

    /// A shard wrote a checkpoint snapshot.
    pub fn note_checkpoint(&self) {
        self.inner.checkpoints.inc();
    }

    /// Time a shard spent inside the checkpoint path (serialize, write,
    /// retain), as measured by [`CpuTimer`]. Summed across shards, this
    /// is the direct cost of the checkpoint protocol — the number the
    /// durability bench gates on, because on small machines it is far
    /// more stable than comparing two whole runs.
    pub fn note_checkpoint_time(&self, nanos: u64) {
        self.inner.checkpoint_nanos.add(nanos);
    }

    /// Time the coordinator's flush broadcast spent inside the WAL
    /// append (the fsync point under `fsync_on_flush`).
    pub fn note_wal_flush(&self, nanos: u64) {
        self.inner.wal_flush_nanos.record(nanos);
    }

    /// A flush message sat `nanos` in a shard queue before the worker
    /// dequeued it (coordinator send → worker receive).
    pub fn note_queue_wait(&self, nanos: u64) {
        self.inner.queue_wait_nanos.record(nanos);
    }

    /// A shard worker crashed (fault injection).
    pub fn note_crash(&self) {
        self.inner.crashes.inc();
    }

    /// A shard worker completed snapshot + WAL-replay recovery (startup
    /// recovery on a durable gateway counts too).
    pub fn note_recovery(&self) {
        self.inner.recoveries.inc();
    }

    /// Seed the max-timestamp watermark from recovered durable state, so
    /// a restarted coordinator's drain sweep re-covers every logged
    /// reading even before any new connection arrives.
    pub fn seed_max_ts(&self, ts_ms: u64) {
        self.inner.max_ts_ms.fetch_max(ts_ms);
    }

    /// Largest reading timestamp accepted so far (ms).
    ///
    /// The coordinator reads this as its flush bound: epoch `e` is only
    /// flushed once some reading with `ts > e` exists, so an all-idle
    /// gateway never fabricates empty epochs. `Relaxed` is sufficient for
    /// that control use: `fetch_max` is an atomic RMW, so the value is
    /// monotone regardless of ordering, and a stale (smaller) read can
    /// only *defer* a flush to the next poll — never issue one early.
    /// The safety property (a flush never overtakes the readings it
    /// certifies) does not rest on this counter at all: it comes from
    /// readings and flushes travelling the same FIFO shard channel,
    /// whose send/recv pairs provide the happens-before edges (see
    /// [`crate::watermark`] for the full ordering contract, and
    /// [`crate::model`] for the checked protocol model).
    pub fn max_ts_ms(&self) -> u64 {
        self.inner.max_ts_ms.get()
    }

    /// Coordinator is about to broadcast a flush for `epoch_ms`.
    pub fn note_flush_issued(&self, epoch_ms: u64) {
        let mut f = self.inner.flush.lock();
        let n = f.n_shards;
        f.pending.insert(epoch_ms, (Instant::now(), n));
    }

    /// One shard finished stepping `epoch_ms`; the last one closes the
    /// latency measurement.
    pub fn note_flush_done(&self, epoch_ms: u64) {
        let mut f = self.inner.flush.lock();
        if let Some((issued, remaining)) = f.pending.get_mut(&epoch_ms) {
            *remaining -= 1;
            if *remaining == 0 {
                let us = issued.elapsed().as_micros() as u64;
                f.pending.remove(&epoch_ms);
                drop(f);
                self.inner.flush_latency_us.record(us);
                self.inner.flush_latency_max_us.fetch_max(us);
            }
        }
    }

    /// Snapshot every counter. `queue` is the shard-queue backpressure
    /// tracker the snapshot folds in.
    pub fn snapshot(&self, queue: &QueueStats) -> GatewaySnapshot {
        let lat = self.inner.flush_latency_us.snapshot();
        let (mean_ms, max_ms) = if lat.count() == 0 {
            (0.0, 0.0)
        } else {
            // The histogram keeps an exact sum, so the mean is exact —
            // identical to the Vec-of-latencies the tracker used to keep.
            let max_us = self.inner.flush_latency_max_us.get();
            (
                lat.sum() as f64 / lat.count() as f64 / 1000.0,
                max_us as f64 / 1000.0,
            )
        };
        GatewaySnapshot {
            connections: self.inner.connections.get(),
            frames: self.inner.frames.get(),
            corrupt_frames: self.inner.corrupt_frames.get(),
            readings: self.inner.readings.get(),
            unroutable: self.inner.unroutable.get(),
            io_errors: self.inner.io_errors.get(),
            wal_records: self.inner.wal_records.get(),
            checkpoints: self.inner.checkpoints.get(),
            checkpoint_nanos: self.inner.checkpoint_nanos.get(),
            crashes: self.inner.crashes.get(),
            recoveries: self.inner.recoveries.get(),
            shard_readings: self.inner.shard_readings.iter().map(Counter::get).collect(),
            epochs_flushed: lat.count(),
            flush_latency_mean_ms: mean_ms,
            flush_latency_max_ms: max_ms,
            queue_sends: queue.sends(),
            queue_blocked: queue.blocked(),
        }
    }
}

/// Point-in-time copy of the gateway counters.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewaySnapshot {
    /// Connections that completed the handshake.
    pub connections: u64,
    /// Frames received (including corrupt ones).
    pub frames: u64,
    /// Frames dropped at the edge for failing checksum/decoding.
    pub corrupt_frames: u64,
    /// Readings decoded and routed.
    pub readings: u64,
    /// Readings naming a receptor outside every registered group.
    pub unroutable: u64,
    /// Connections that died with a transport error.
    pub io_errors: u64,
    /// Records (readings + flush markers) appended to the WAL.
    pub wal_records: u64,
    /// Checkpoint snapshots written across all shards.
    pub checkpoints: u64,
    /// Total time spent inside the checkpoint path, nanoseconds.
    pub checkpoint_nanos: u64,
    /// Injected shard-worker crashes.
    pub crashes: u64,
    /// Completed recoveries (startup recovery on a durable gateway
    /// counts once per live shard).
    pub recoveries: u64,
    /// Readings enqueued per shard (a fan-out reading counts on each).
    pub shard_readings: Vec<u64>,
    /// Epochs fully stepped by every shard.
    pub epochs_flushed: u64,
    /// Mean flush broadcast → last shard done, milliseconds.
    pub flush_latency_mean_ms: f64,
    /// Worst-case flush latency, milliseconds.
    pub flush_latency_max_ms: f64,
    /// Readings sent to shard queues (a fan-out reading counts on each
    /// shard), however they were batched.
    pub queue_sends: u64,
    /// Of those, readings whose batch found the queue full
    /// (backpressure).
    pub queue_blocked: u64,
}

impl GatewaySnapshot {
    /// Share of readings whose hand-off hit backpressure.
    pub fn blocked_fraction(&self) -> f64 {
        if self.queue_sends == 0 {
            0.0
        } else {
            self.queue_blocked as f64 / self.queue_sends as f64
        }
    }

    /// Render the snapshot as an `esp-metrics` report (one scalar per
    /// counter, one per-shard scalar for routing skew).
    pub fn report(&self, title: impl Into<String>) -> Report {
        let mut r = Report::new(title);
        r.scalar("connections", self.connections as f64)
            .scalar("frames", self.frames as f64)
            .scalar("corrupt_frames", self.corrupt_frames as f64)
            .scalar("readings", self.readings as f64)
            .scalar("unroutable", self.unroutable as f64)
            .scalar("io_errors", self.io_errors as f64)
            .scalar("wal_records", self.wal_records as f64)
            .scalar("checkpoints", self.checkpoints as f64)
            .scalar("checkpoint_ms", self.checkpoint_nanos as f64 / 1e6)
            .scalar("crashes", self.crashes as f64)
            .scalar("recoveries", self.recoveries as f64)
            .scalar("epochs_flushed", self.epochs_flushed as f64)
            .scalar("flush_latency_mean_ms", self.flush_latency_mean_ms)
            .scalar("flush_latency_max_ms", self.flush_latency_max_ms)
            .scalar("queue_sends", self.queue_sends as f64)
            .scalar("queue_blocked", self.queue_blocked as f64)
            .scalar("queue_blocked_fraction", self.blocked_fraction());
        for (i, n) in self.shard_readings.iter().enumerate() {
            r.scalar(format!("shard{i}_readings"), *n as f64);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = GatewayStats::new(2);
        s.note_connection();
        s.note_frames(2, 1, 0);
        s.note_readings(1, 500);
        s.note_shard_readings(1, 1);
        s.note_frames(0, 0, 1);
        let q = QueueStats::new();
        q.record_send(1);
        let snap = s.snapshot(&q);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.frames, 2);
        assert_eq!(snap.corrupt_frames, 1);
        assert_eq!(snap.readings, 1);
        assert_eq!(snap.unroutable, 1);
        assert_eq!(snap.shard_readings, vec![0, 1]);
        assert_eq!(s.max_ts_ms(), 500);
        assert_eq!(snap.queue_sends, 1);
    }

    #[test]
    fn durability_counters_accumulate_and_seed() {
        let s = GatewayStats::new(1);
        s.note_wal_record();
        s.note_wal_record();
        s.note_checkpoint();
        s.note_crash();
        s.note_recovery();
        s.seed_max_ts(900);
        s.note_readings(1, 500); // later seed must not regress max_ts
        let snap = s.snapshot(&QueueStats::new());
        assert_eq!(snap.wal_records, 2);
        assert_eq!(snap.checkpoints, 1);
        assert_eq!(snap.crashes, 1);
        assert_eq!(snap.recoveries, 1);
        assert_eq!(s.max_ts_ms(), 900);
        let r = snap.report("gw");
        assert_eq!(r.get_scalar("wal_records"), Some(2.0));
        assert_eq!(r.get_scalar("recoveries"), Some(1.0));
    }

    #[test]
    fn flush_latency_closes_when_all_shards_report() {
        let s = GatewayStats::new(2);
        s.note_flush_issued(100);
        s.note_flush_done(100);
        let q = QueueStats::new();
        assert_eq!(s.snapshot(&q).epochs_flushed, 0, "one shard still pending");
        s.note_flush_done(100);
        let snap = s.snapshot(&q);
        assert_eq!(snap.epochs_flushed, 1);
        assert!(snap.flush_latency_max_ms >= snap.flush_latency_mean_ms);
    }

    #[test]
    fn report_carries_all_scalars() {
        let s = GatewayStats::new(1);
        s.note_readings(1, 10);
        s.note_shard_readings(0, 1);
        let r = s.snapshot(&QueueStats::new()).report("gw");
        assert_eq!(r.get_scalar("readings"), Some(1.0));
        assert_eq!(r.get_scalar("shard0_readings"), Some(1.0));
        assert_eq!(r.get_scalar("queue_blocked_fraction"), Some(0.0));
    }

    #[test]
    fn snapshot_fields_are_views_over_the_registry() {
        // Satellite: the legacy snapshot and the registry must be two
        // reads of the same counters, not parallel bookkeeping.
        let s = GatewayStats::new(2);
        s.note_frames(1, 0, 0);
        s.note_readings(1, 42);
        s.note_shard_readings(0, 1);
        s.note_shard_readings(1, 1);
        let r = s.registry();
        let snap = s.snapshot(&QueueStats::new());
        assert_eq!(
            r.counter_value("esp_gateway_frames_total", &[]),
            Some(snap.frames)
        );
        assert_eq!(
            r.counter_value("esp_gateway_readings_total", &[]),
            Some(snap.readings)
        );
        assert_eq!(
            r.gauge_value("esp_gateway_max_ts_ms", &[]),
            Some(s.max_ts_ms())
        );
        for (i, n) in snap.shard_readings.iter().enumerate() {
            assert_eq!(
                r.counter_value(
                    "esp_gateway_shard_readings_total",
                    &[("shard", &i.to_string())]
                ),
                Some(*n)
            );
        }
    }

    #[test]
    fn string_tables_are_gauged_per_shard() {
        let s = GatewayStats::new(2);
        s.note_string_table(1, 40, 0);
        s.note_string_table(1, 7, 2);
        s.note_string_table(1, 9, 2);
        let r = s.registry();
        let (one, zero) = ([("shard", "1")], [("shard", "0")]);
        assert_eq!(r.gauge_value("esp_gateway_shard_strings", &one), Some(9));
        assert_eq!(r.gauge_value("esp_gateway_shard_strings", &zero), Some(0));
        assert_eq!(
            r.counter_value("esp_gateway_string_table_swaps_total", &one),
            Some(2)
        );
    }

    #[test]
    fn stats_requests_do_not_perturb_frames() {
        let s = GatewayStats::new(1);
        s.note_frames(1, 0, 0);
        s.note_stats_request();
        s.note_stats_request();
        let snap = s.snapshot(&QueueStats::new());
        assert_eq!(snap.frames, 1, "scrapes are not data frames");
        assert_eq!(
            s.registry()
                .counter_value("esp_gateway_stats_requests_total", &[]),
            Some(2)
        );
    }

    #[test]
    fn flush_mean_is_exact_from_histogram_sum() {
        let s = GatewayStats::new(1);
        for epoch in [100, 200, 300] {
            s.note_flush_issued(epoch);
            s.note_flush_done(epoch);
        }
        let snap = s.snapshot(&QueueStats::new());
        assert_eq!(snap.epochs_flushed, 3);
        let hist = s
            .registry()
            .histogram_snapshot("esp_gateway_flush_latency_us", &[])
            .expect("flush histogram registered");
        let mean_ms = hist.sum() as f64 / hist.count() as f64 / 1000.0;
        assert!((snap.flush_latency_mean_ms - mean_ms).abs() < 1e-12);
        let max_us = s
            .registry()
            .gauge_value("esp_gateway_flush_latency_max_us", &[])
            .expect("max gauge registered");
        assert!((snap.flush_latency_max_ms - max_us as f64 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn render_merges_gateway_and_global_registries() {
        let s = GatewayStats::new(1);
        s.note_frames(1, 0, 0);
        // Touch a process-global counter so the merge has something from
        // the other side.
        esp_obs::global()
            .counter("esp_test_global_total", &[])
            .inc();
        let text = s.render_text();
        assert!(text.contains("esp_gateway_frames_total 1"));
        assert!(text.contains("esp_test_global_total"));
        let json = s.render_json();
        assert!(json.contains("\"name\":\"esp_gateway_frames_total\""));
    }
}
