//! Bounded-lateness watermarks at the gateway edge.
//!
//! Each connection promises in its handshake that readings may arrive out
//! of order by at most `lateness`: after a reading stamped `t`, nothing
//! earlier than `t − lateness` will follow. The connection's watermark is
//! therefore `max ts seen − lateness`, monotone by construction, and a
//! closed connection promises everything (`∞`). The **global** watermark
//! is the minimum over all connections ever registered; epoch `e` is safe
//! to flush once the global watermark exceeds `e`.
//!
//! Ordering contract, at batch granularity: a reader hands its decoded
//! readings off in per-shard batches, and advances its watermark — to the
//! batch's largest `ts − lateness` — only *after* every batch is in its
//! shard queue (release store); the coordinator reads watermarks (acquire
//! load) before enqueuing a flush. The shard channels are FIFO, so a flush
//! can never overtake the readings it certifies. The order matters only
//! because of batching: one reading never certifies past itself
//! (`ts − lateness <= ts`), but a batch's maximum certifies past its
//! earlier readings. `esp_gateway::model` checks the contract, and the
//! mutant that advances before the hand-off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One connection's monotone watermark, in milliseconds.
#[derive(Debug, Default)]
pub struct ConnClock {
    watermark_ms: AtomicU64,
}

impl ConnClock {
    /// Raise the watermark to `ms` (no-op if already past it).
    ///
    /// `Release`: the reader calls this *after* enqueuing the batch that
    /// justifies it, so the coordinator's `Acquire` load in
    /// [`current`](ConnClock::current) observing `ms` happens-after the
    /// enqueue — the coordinator can never certify an epoch whose
    /// readings are not already ahead of the flush in the FIFO queue.
    /// `fetch_max` (not a store) keeps the clock monotone even when
    /// in-contract out-of-order readings advance it with smaller values.
    pub fn advance(&self, ms: u64) {
        self.watermark_ms.fetch_max(ms, Ordering::Release);
    }

    /// Connection finished: no further readings will ever arrive.
    ///
    /// Same `Release` pairing as [`advance`](ConnClock::advance): called
    /// only after the reader has enqueued its final batch, so the `∞`
    /// promise is ordered after everything it promises about.
    pub fn close(&self) {
        self.watermark_ms.store(u64::MAX, Ordering::Release);
    }

    /// Current promise: every future reading has `ts >= current()`.
    ///
    /// `Acquire`, pairing with the reader's `Release` writes above: any
    /// value observed here carries the guarantee that the readings
    /// backing it are already in the shard queues.
    pub fn current(&self) -> u64 {
        self.watermark_ms.load(Ordering::Acquire)
    }
}

/// Registry of connection watermarks; the coordinator polls
/// [`WatermarkClock::global`].
#[derive(Debug, Clone, Default)]
pub struct WatermarkClock {
    conns: Arc<Mutex<Vec<Arc<ConnClock>>>>,
}

impl WatermarkClock {
    /// Empty registry.
    pub fn new() -> WatermarkClock {
        WatermarkClock::default()
    }

    /// Register a new connection; its watermark starts at 0 and holds the
    /// global watermark back until the connection sends or closes.
    pub fn register(&self) -> Arc<ConnClock> {
        let clock = Arc::new(ConnClock::default());
        self.conns.lock().push(Arc::clone(&clock));
        clock
    }

    /// Connections registered so far (open or closed).
    pub fn registered(&self) -> usize {
        self.conns.lock().len()
    }

    /// Minimum watermark over every registered connection; `None` when no
    /// connection has registered yet.
    pub fn global(&self) -> Option<u64> {
        let conns = self.conns.lock();
        conns.iter().map(|c| c.current()).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_min_over_connections() {
        let wm = WatermarkClock::new();
        assert_eq!(wm.global(), None);
        let a = wm.register();
        let b = wm.register();
        assert_eq!(wm.global(), Some(0), "fresh connections hold it at 0");
        a.advance(500);
        assert_eq!(wm.global(), Some(0), "b still at 0");
        b.advance(300);
        assert_eq!(wm.global(), Some(300));
        a.close();
        assert_eq!(wm.global(), Some(300), "closed conn no longer limits");
        b.close();
        assert_eq!(wm.global(), Some(u64::MAX));
        assert_eq!(wm.registered(), 2);
    }

    #[test]
    fn watermark_is_monotone() {
        let c = ConnClock::default();
        c.advance(100);
        c.advance(50);
        assert_eq!(c.current(), 100, "late smaller advance must not regress");
    }
}
