//! Streaming summary statistics.
//!
//! Windowed aggregates (`avg`, `stdev`) and the Merge stage's outlier test
//! (paper Query 5: discard readings outside `mean ± stdev`) need numerically
//! stable mean/variance over window contents. [`RunningStats`] implements
//! Welford's online algorithm: one pass, no catastrophic cancellation.

use esp_obs::{Counter, Registry};
use esp_types::{snap, Result};

/// Shared counters for a set of bounded queues: items sent and how many
/// of them went in a send that found the queue full (back-pressure
/// events). A send may carry a batch; both counters count the batch's
/// items, so the blocked fraction is the share of *items* whose hand-off
/// blocked, however they were batched. A thin view over
/// two [`esp_obs::Counter`]s — handles are cheap clones over the shared
/// atomics, so producers on many threads can feed one counter and a
/// supervisor can read it live. (The `Relaxed`-ordering audit for these
/// monitoring counters lives in the `esp_obs` crate docs; totals read
/// after `join()`ing the producers are exact because thread join itself
/// synchronizes-with everything the thread did.)
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    sends: Counter,
    blocked: Counter,
}

/// Registry name of the total-sends counter [`QueueStats::registered`]
/// binds to.
pub const QUEUE_SENDS_METRIC: &str = "esp_stream_queue_sends_total";
/// Registry name of the blocked-sends counter [`QueueStats::registered`]
/// binds to.
pub const QUEUE_BLOCKED_METRIC: &str = "esp_stream_queue_blocked_total";

impl QueueStats {
    /// Fresh counters at zero, not registered anywhere.
    pub fn new() -> QueueStats {
        QueueStats::default()
    }

    /// Counters registered in (or shared with) `registry` under
    /// [`QUEUE_SENDS_METRIC`] / [`QUEUE_BLOCKED_METRIC`], so queue
    /// backpressure shows up in the registry's scrape output.
    pub fn registered(registry: &Registry) -> QueueStats {
        QueueStats {
            sends: registry.counter(QUEUE_SENDS_METRIC, &[]),
            blocked: registry.counter(QUEUE_BLOCKED_METRIC, &[]),
        }
    }

    /// Record a send of `n` items that found queue space immediately.
    pub fn record_send(&self, n: u64) {
        self.sends.add(n);
    }

    /// Record a send of `n` items that found the queue full and had to
    /// block. (Counts as a send too — callers record exactly one of the
    /// two per send.)
    pub fn record_blocked(&self, n: u64) {
        self.sends.add(n);
        self.blocked.add(n);
    }

    /// Total items sent.
    pub fn sends(&self) -> u64 {
        self.sends.get()
    }

    /// Items sent by sends that hit a full queue.
    pub fn blocked(&self) -> u64 {
        self.blocked.get()
    }

    /// Fraction of items whose send hit a full queue (0 when idle).
    pub fn blocked_fraction(&self) -> f64 {
        let sends = self.sends();
        if sends == 0 {
            0.0
        } else {
            self.blocked() as f64 / sends as f64
        }
    }
}

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Copy)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> RunningStats {
        RunningStats::new()
    }
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> RunningStats {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance (n−1 denominator, SQL `STDDEV` convention);
    /// `None` with fewer than two observations.
    pub fn variance_sample(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Population variance (n denominator); `None` when empty.
    pub fn variance_population(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Sample standard deviation; `None` with fewer than two observations.
    pub fn stdev(&self) -> Option<f64> {
        self.variance_sample().map(f64::sqrt)
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.n as f64
    }

    /// Merge another accumulator into this one (parallel Welford;
    /// Chan et al. update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Append the accumulator in [`esp_types::snap`] form, floats by bit
    /// pattern: a decoded accumulator continues bit-identically.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_u64(out, self.n);
        for x in [self.mean, self.m2, self.min, self.max] {
            snap::put_f64(out, x);
        }
    }

    /// Inverse of [`RunningStats::encode_into`].
    pub fn decode(cur: &mut snap::Cursor<'_>) -> Result<RunningStats> {
        Ok(RunningStats {
            n: cur.u64()?,
            mean: cur.f64()?,
            m2: cur.f64()?,
            min: cur.f64()?,
            max: cur.f64()?,
        })
    }
}

impl FromIterator<f64> for RunningStats {
    /// Build from an iterator of observations.
    fn from_iter<I: IntoIterator<Item = f64>>(xs: I) -> RunningStats {
        let mut s = RunningStats::new();
        for x in xs {
            s.push(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn queue_stats_counts_and_fraction() {
        let q = QueueStats::new();
        assert_eq!(q.sends(), 0);
        assert_eq!(q.blocked_fraction(), 0.0);
        q.record_send(1);
        q.record_send(1);
        q.record_blocked(1);
        assert_eq!(q.sends(), 3);
        assert_eq!(q.blocked(), 1);
        assert!((q.blocked_fraction() - 1.0 / 3.0).abs() < 1e-12);
        // Clones share the same counters.
        let clone = q.clone();
        clone.record_send(1);
        assert_eq!(q.sends(), 4);
        // A batch counts its items, not one send.
        q.record_send(5);
        q.record_blocked(3);
        assert_eq!(q.sends(), 12);
        assert_eq!(q.blocked(), 4);
        assert!((q.blocked_fraction() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn queue_stats_shared_across_threads() {
        let q = QueueStats::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        q.record_send(1);
                    }
                    q.record_blocked(1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.sends(), 4 * 1001);
        assert_eq!(q.blocked(), 4);
    }

    #[test]
    fn registered_queue_stats_share_registry_counters() {
        let registry = esp_obs::Registry::new();
        let q = QueueStats::registered(&registry);
        q.record_send(1);
        q.record_blocked(1);
        // The registry reads the very same counters the view records into…
        assert_eq!(registry.counter_value(QUEUE_SENDS_METRIC, &[]), Some(2));
        assert_eq!(registry.counter_value(QUEUE_BLOCKED_METRIC, &[]), Some(1));
        // …and a second view over the same registry shares them.
        let again = QueueStats::registered(&registry);
        again.record_send(1);
        assert_eq!(q.sends(), 3);
        // Old snapshot semantics are untouched: blocked counts as a send.
        assert!((q.blocked_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_yields_none() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.stdev(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.count(), 0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s = RunningStats::from_iter([5.0]);
        assert!(close(s.mean().unwrap(), 5.0));
        assert_eq!(s.stdev(), None, "sample stdev undefined for n=1");
        assert!(close(s.variance_population().unwrap(), 0.0));
    }

    #[test]
    fn textbook_values() {
        // Values 2,4,4,4,5,5,7,9: mean 5, population stdev 2, sample var 32/7.
        let s = RunningStats::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!(close(s.mean().unwrap(), 5.0));
        assert!(close(s.variance_population().unwrap(), 4.0));
        assert!(close(s.variance_sample().unwrap(), 32.0 / 7.0));
        assert!(close(s.min().unwrap(), 2.0));
        assert!(close(s.max().unwrap(), 9.0));
        assert!(close(s.sum(), 40.0));
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 50.0 + 20.0).collect();
        let whole = RunningStats::from_iter(xs.iter().copied());
        let mut merged = RunningStats::from_iter(xs[..37].iter().copied());
        merged.merge(&RunningStats::from_iter(xs[37..].iter().copied()));
        assert!(close(whole.mean().unwrap(), merged.mean().unwrap()));
        assert!(close(
            whole.variance_sample().unwrap(),
            merged.variance_sample().unwrap()
        ));
        assert_eq!(whole.count(), merged.count());
        assert!(close(whole.min().unwrap(), merged.min().unwrap()));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = RunningStats::from_iter([1.0, 2.0]);
        let before = s;
        s.merge(&RunningStats::new());
        assert!(close(s.mean().unwrap(), before.mean().unwrap()));
        let mut e = RunningStats::new();
        e.merge(&before);
        assert!(close(e.mean().unwrap(), before.mean().unwrap()));
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Naive sum-of-squares cancels catastrophically here; Welford must not.
        let base = 1e9;
        let s = RunningStats::from_iter([base + 4.0, base + 7.0, base + 13.0, base + 16.0]);
        assert!(close(s.mean().unwrap(), base + 10.0));
        assert!(close(s.variance_sample().unwrap(), 30.0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
                let s = RunningStats::from_iter(xs.iter().copied());
                let m = s.mean().unwrap();
                prop_assert!(m >= s.min().unwrap() - 1e-6);
                prop_assert!(m <= s.max().unwrap() + 1e-6);
            }

            #[test]
            fn variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
                let s = RunningStats::from_iter(xs.iter().copied());
                prop_assert!(s.variance_sample().unwrap() >= 0.0);
                prop_assert!(s.variance_population().unwrap() >= 0.0);
            }

            #[test]
            fn merge_associates(
                a in proptest::collection::vec(-1e3f64..1e3, 0..50),
                b in proptest::collection::vec(-1e3f64..1e3, 0..50),
            ) {
                let mut left = RunningStats::from_iter(a.iter().copied());
                left.merge(&RunningStats::from_iter(b.iter().copied()));
                let whole = RunningStats::from_iter(a.iter().chain(b.iter()).copied());
                prop_assert_eq!(left.count(), whole.count());
                if whole.count() > 0 {
                    prop_assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-6);
                }
            }
        }
    }
}
