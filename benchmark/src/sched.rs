//! The open-loop schedule of the paced phase.
//!
//! Slice `s` is due at `start + s × slice`. Due-times are fixed when the
//! phase starts and never re-based: a generator that falls behind sends
//! its backlog at once and catches up, and everything downstream is timed
//! from when a frame was *due*, so a stall's cost lands on the requests
//! it delayed. How late each slice actually started is recorded as the
//! generator's lag.

use std::time::{Duration, Instant};

/// Time source, injectable so tests can stall it.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Block until about `at_ns`; may return late.
    fn sleep_until(&self, at_ns: u64);
}

/// Wall clock with origin `t0`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, at_ns: u64) {
        let now = self.now_ns();
        if at_ns > now {
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }
}

/// One generator thread's view of the schedule.
#[derive(Debug)]
pub struct Pacer<C: Clock> {
    clock: C,
    start_ns: u64,
    slice_ns: u64,
    poll_ns: u64,
    /// How late each slice started, in slice order.
    pub lags_ns: Vec<u64>,
}

impl<C: Clock> Pacer<C> {
    /// Schedule starting at `start_ns` on `clock`, one slice every
    /// `slice_ns`, waking at least every `poll_ns` while waiting.
    pub fn new(clock: C, start_ns: u64, slice_ns: u64, poll_ns: u64) -> Pacer<C> {
        Pacer {
            clock,
            start_ns,
            slice_ns,
            poll_ns,
            lags_ns: Vec::new(),
        }
    }

    /// When slice `s` is due.
    pub fn due_ns(&self, slice: usize) -> u64 {
        self.start_ns + slice as u64 * self.slice_ns
    }

    /// Wait until slice `s` is due (returning at once if it already is),
    /// calling `on_wake(now)` after every partial sleep, then record the
    /// lag and return the due-time.
    pub fn wait_for(&mut self, slice: usize, mut on_wake: impl FnMut(u64)) -> u64 {
        let due = self.due_ns(slice);
        loop {
            let now = self.clock.now_ns();
            if now >= due {
                self.lags_ns.push(now - due);
                return due;
            }
            self.clock
                .sleep_until(due.min(now.saturating_add(self.poll_ns)));
            on_wake(self.clock.now_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock whose sleeps overshoot by a fixed amount, and on which the
    /// test can burn time to simulate a stalled generator.
    struct FakeClock {
        now: Cell<u64>,
        overshoot: u64,
    }

    impl Clock for &FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }

        fn sleep_until(&self, at_ns: u64) {
            if at_ns > self.now.get() {
                self.now.set(at_ns + self.overshoot);
            }
        }
    }

    #[test]
    fn due_times_are_fixed_and_a_stall_shows_as_lag_until_caught_up() {
        let clock = FakeClock {
            now: Cell::new(0),
            overshoot: 50,
        };
        let mut pacer = Pacer::new(&clock, 1_000, 1_000, u64::MAX);
        let mut dues = Vec::new();
        let mut wakes = 0;
        for s in 0..8 {
            dues.push(pacer.wait_for(s, |_| wakes += 1));
            // Sending a slice takes 100 ns; slice 2 stalls for 3.5 slices.
            clock
                .now
                .set(clock.now.get() + if s == 2 { 3_500 } else { 100 });
        }
        // The schedule never moves, stall or not.
        assert_eq!(dues, (0..8).map(|s| 1_000 + s * 1_000).collect::<Vec<_>>());
        // Slices 0–2 start one overshoot late. The stall ends at 6 550, so
        // slices 3, 4, 5 (due 4 000, 5 000, 6 000) start late by the
        // backlog, shrinking by a slice minus the send time each step;
        // slice 6 is back on schedule.
        assert_eq!(pacer.lags_ns, vec![50, 50, 50, 2_550, 1_650, 750, 50, 50]);
        // One wake per slice that had to wait; the backlogged ones did not.
        assert_eq!(wakes, 5);
    }

    #[test]
    fn waiting_wakes_every_poll_interval() {
        let clock = FakeClock {
            now: Cell::new(0),
            overshoot: 0,
        };
        let mut pacer = Pacer::new(&clock, 1_000, 1_000, 250);
        let mut wakes = Vec::new();
        pacer.wait_for(0, |now| wakes.push(now));
        assert_eq!(wakes, vec![250, 500, 750, 1_000]);
        assert_eq!(pacer.lags_ns, vec![0]);
    }
}
