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
//! These are the atomics the reader and coordinator threads share; the
//! rules they apply — the monotone merge, the global minimum, and the
//! order of hand-off and advance — live in [`protocol`],
//! where the model checker runs them too. A reader advances only *after*
//! its batches are in their shard queues (release store); the coordinator
//! reads watermarks (acquire load) before enqueuing a flush; the shard
//! channels are FIFO, so a flush can never overtake the readings it
//! certifies.
//!
//! Closed clocks are pruned on the coordinator's next poll, so the
//! registry holds the open connections, not every connection ever made.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::protocol::{self, CLOSED};

/// One connection's monotone watermark, in milliseconds.
#[derive(Debug, Default)]
pub struct ConnClock {
    watermark_ms: AtomicU64,
}

impl ConnClock {
    /// Raise the watermark to `ms` (no-op if already past it), by the
    /// protocol's monotone [`merge`](protocol::merge).
    ///
    /// `Release`: the reader calls this *after* enqueuing the batch that
    /// justifies it, so the coordinator's `Acquire` load in
    /// [`current`](ConnClock::current) observing `ms` happens-after the
    /// enqueue — the coordinator can never certify an epoch whose
    /// readings are not already ahead of the flush in the FIFO queue.
    pub fn advance(&self, ms: u64) {
        let _ = self
            .watermark_ms
            .fetch_update(Ordering::Release, Ordering::Relaxed, |cur| {
                Some(protocol::merge(cur, ms))
            });
    }

    /// Connection finished: no further readings will ever arrive.
    ///
    /// Same `Release` pairing as [`advance`](ConnClock::advance): called
    /// only after the reader has enqueued its final batch, so the `∞`
    /// promise is ordered after everything it promises about.
    pub fn close(&self) {
        self.watermark_ms.store(CLOSED, Ordering::Release);
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
    inner: Arc<Mutex<Registry>>,
}

#[derive(Debug, Default)]
struct Registry {
    /// Clocks not yet seen closed.
    open: Vec<Arc<ConnClock>>,
    /// Connections registered so far, open or closed.
    registered: usize,
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
        let mut r = self.inner.lock();
        r.registered += 1;
        r.open.push(Arc::clone(&clock));
        clock
    }

    /// Clocks the registry holds: the open connections', plus any that
    /// closed since the coordinator's last poll.
    pub fn tracked(&self) -> usize {
        self.inner.lock().open.len()
    }

    /// Connections registered so far (open or closed).
    pub fn registered(&self) -> usize {
        self.inner.lock().registered
    }

    /// Minimum watermark over every registered connection; `None` when no
    /// connection has registered yet. Forgets the clocks that have closed.
    pub fn global(&self) -> Option<u64> {
        let mut r = self.inner.lock();
        r.open.retain(|c| c.current() != CLOSED);
        protocol::global(r.registered, r.open.iter().map(|c| c.current()))
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
        assert_eq!(wm.registered(), 2, "registration stays cumulative");
        assert_eq!(wm.tracked(), 0, "closed clocks are pruned");
    }

    #[test]
    fn watermark_is_monotone() {
        let c = ConnClock::default();
        c.advance(100);
        c.advance(50);
        assert_eq!(c.current(), 100, "late smaller advance must not regress");
    }
}
