//! The gateway's ordering protocol as plain state machines.
//!
//! A sharded run equals a single-process one only if an epoch flush never
//! overtakes a reading it covers. Three decisions keep that true, and each
//! lives here with no sockets, threads, locks or channels:
//!
//! * [`Reader`] — when a connection reader hands its pending batches off,
//!   and the rule that the watermark advances, to the batch's largest
//!   `ts − lateness`, only *after* every batch is enqueued;
//! * [`Coordinator`] — which epochs are due: below the watermark, gated by
//!   `min_connections`, bounded by the data seen, and the drain sweep;
//! * [`Worker`] — what a shard worker does with a queue message: the skip
//!   rule after a recovery and the checkpoint cadence.
//!
//! Around them sit the rules every party shares: the monotone clock merge
//! ([`merge`]), the global watermark ([`global`]) and the seal rule
//! ([`released`]: a flush of `e` releases every reading with `ts <= e`).
//!
//! The server's reader, coordinator and worker threads only execute these
//! decisions and do the I/O, and [`model`](crate::model) runs the same
//! machines under every interleaving the model checker can schedule. The
//! reader is generic over its per-shard batch, so the checker can use
//! plain vectors of bare timestamps.

/// The watermark of a closed connection: it promises everything.
pub const CLOSED: u64 = u64::MAX;

/// The seal rule: a flush of `epoch` releases every reading stamped at or
/// before it.
pub fn released<T: Ord>(ts: T, epoch: T) -> bool {
    ts <= epoch
}

/// The monotone clock merge: a connection's watermark after advancing to
/// `target`. In-contract out-of-order batches advance to smaller targets,
/// and the clock must not move back.
pub fn merge(current: u64, target: u64) -> u64 {
    #[cfg(test)]
    if mutant::is(GatewayMutant::StoreNotMax) {
        return target;
    }
    current.max(target)
}

/// The global watermark over `registered` connections, given the clocks of
/// those still open: their minimum, [`CLOSED`] once every one has closed,
/// and none before the first connection registers.
pub fn global(registered: usize, open: impl IntoIterator<Item = u64>) -> Option<u64> {
    (registered > 0).then(|| open.into_iter().min().unwrap_or(CLOSED))
}

/// One step the reader thread must take. A hand-off is a list of these,
/// executed in order. `B` is a shard's batch (see [`Reader`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Effect<B> {
    /// Enqueue a batch on shard `shard`'s queue: its `(seq, reading)`
    /// entries in wire order, where `seq` is the caller's own tag (a WAL
    /// record index).
    Send {
        /// Destination shard.
        shard: usize,
        /// The shard's pending readings.
        batch: B,
    },
    /// Account the hand-off and advance the connection's watermark.
    Advance {
        /// The largest timestamp handed off (ms).
        max_ts_ms: u64,
        /// Their largest `ts − lateness`: the clock's merge target.
        watermark: u64,
    },
    /// Close the connection's clock: nothing further will arrive.
    Close,
}

/// One connection's pending readings: a batch per shard, in wire order. A
/// batch `B` is anything the reader can extend with `(seq, reading)`
/// entries: a plain `Vec<(u64, u64)>` of bare timestamps in the model
/// checker; in the server a `ShardBatch` that copies each validated
/// frame's fields in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Reader<B> {
    lateness_ms: u64,
    /// Hand off once the batches hold this many entries in total.
    cap: usize,
    /// Each shard's pending batch, with the number of entries in it.
    batches: Vec<(B, usize)>,
    /// Pending readings, each counted once however many shards it goes to.
    readings: u64,
    /// Pending entries across every shard's batch.
    entries: usize,
    /// Largest pending timestamp (ms).
    max_ts_ms: u64,
}

impl<B: Default> Reader<B> {
    /// A reader for a connection that promised `lateness_ms`, routing over
    /// `n_shards` shards and handing off at `cap` entries.
    pub fn new(n_shards: usize, lateness_ms: u64, cap: usize) -> Reader<B> {
        Reader {
            lateness_ms,
            cap,
            batches: (0..n_shards).map(|_| (B::default(), 0)).collect(),
            readings: 0,
            entries: 0,
            max_ts_ms: 0,
        }
    }

    /// Readings pending since the last hand-off.
    pub fn pending(&self) -> u64 {
        self.readings
    }

    /// Add a reading stamped `ts_ms` bound for `dests`: anything the
    /// batches can be extended with, which may borrow from the caller.
    /// Returns whether the batches reached the cap, so the caller must
    /// hand off now.
    pub fn push<T: Clone>(&mut self, seq: u64, reading: T, ts_ms: u64, dests: &[usize]) -> bool
    where
        B: Extend<(u64, T)>,
    {
        if let Some((&last, rest)) = dests.split_last() {
            for &shard in rest {
                self.add(shard, seq, reading.clone());
            }
            self.add(last, seq, reading);
        }
        self.readings += 1;
        self.entries += dests.len();
        self.max_ts_ms = self.max_ts_ms.max(ts_ms);
        self.entries >= self.cap
    }

    fn add<T>(&mut self, shard: usize, seq: u64, reading: T)
    where
        B: Extend<(u64, T)>,
    {
        let (batch, n) = &mut self.batches[shard];
        batch.extend(std::iter::once((seq, reading)));
        *n += 1;
    }

    /// Take every pending batch, as the effects that hand it off: one send
    /// per non-empty batch, then the advance. Empty with nothing pending.
    /// The pending state is taken up front, so a failed hand-off is never
    /// retried (nor logged twice) by a later one.
    pub fn hand_off(&mut self) -> Vec<Effect<B>> {
        if self.readings == 0 {
            return Vec::new();
        }
        let mut effects = Vec::with_capacity(self.batches.len() + 2);
        for (shard, (batch, n)) in self.batches.iter_mut().enumerate() {
            if std::mem::take(n) > 0 {
                effects.push(Effect::Send {
                    shard,
                    batch: std::mem::take(batch),
                });
            }
        }
        let max_ts_ms = std::mem::take(&mut self.max_ts_ms);
        let advance = Effect::Advance {
            max_ts_ms,
            watermark: max_ts_ms.saturating_sub(self.lateness_ms),
        };
        (self.readings, self.entries) = (0, 0);
        #[cfg(test)]
        if mutant::is(GatewayMutant::AdvanceBeforeHandOff) {
            effects.insert(0, advance);
            return effects;
        }
        // Advance AFTER the sends: a flush this advance lets through must
        // queue behind the batch in every shard queue.
        effects.push(advance);
        effects
    }

    /// End of stream (EOF or a frame error): hand off what is pending,
    /// then close the clock.
    pub fn finish(&mut self) -> Vec<Effect<B>> {
        let mut effects = self.hand_off();
        #[cfg(test)]
        if mutant::is(GatewayMutant::CloseBeforeLastEnqueue) {
            effects.insert(0, Effect::Close);
            return effects;
        }
        effects.push(Effect::Close);
        effects
    }
}

/// The coordinator's flush decision, in epoch milliseconds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Coordinator {
    next: u64,
    last_flushed: Option<u64>,
    period: u64,
    min_connections: usize,
}

impl Coordinator {
    /// First flush at `start`, then every `period`; no flush until
    /// `min_connections` connections have registered.
    pub fn new(start: u64, period: u64, min_connections: usize) -> Coordinator {
        Coordinator {
            next: start,
            last_flushed: None,
            period,
            min_connections,
        }
    }

    /// Continue after `last_flushed`, the last flush a previous process
    /// logged.
    pub fn resume(&mut self, last_flushed: u64) {
        self.last_flushed = Some(last_flushed);
        self.next = last_flushed + self.period;
    }

    /// The watermark a poll flushes against. Draining means every reader
    /// has exited, so every reading is enqueued: flush everything.
    pub fn watermark(&self, draining: bool, registered: usize, global: Option<u64>) -> Option<u64> {
        if draining {
            Some(CLOSED)
        } else {
            global.filter(|_| registered >= self.min_connections)
        }
    }

    /// The next epoch due against `watermark`, marked flushed, or none.
    /// An epoch is due while the watermark certifies it AND some reading
    /// (up to `max_ts`) is not yet covered by a flushed epoch; the second
    /// condition stops an all-closed watermark of ∞ from flushing forever.
    pub fn next_due(&mut self, watermark: Option<u64>, max_ts: u64) -> Option<u64> {
        let certified = self.next < watermark?;
        #[cfg(test)]
        let certified = certified
            || mutant::is(GatewayMutant::FlushAtWatermark) && watermark == Some(self.next);
        let uncovered = self.last_flushed.is_none_or(|e| e < max_ts);
        #[cfg(test)]
        let uncovered = match mutant::is(GatewayMutant::DrainStopsAtMaxTs) {
            true => self.next <= max_ts,
            false => uncovered,
        };
        if !(certified && uncovered) {
            return None;
        }
        let epoch = self.next;
        self.last_flushed = Some(epoch);
        self.next += self.period;
        Some(epoch)
    }
}

/// A shard worker's per-message decisions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Worker {
    /// The highest WAL sequence number the last recovery replayed.
    skip_through: Option<u64>,
    /// Checkpoint after every this many stepped epochs (durable only).
    checkpoint_every: Option<u64>,
    since_checkpoint: u64,
}

impl Worker {
    /// A worker that checkpoints every `checkpoint_every` epochs, or never.
    pub fn new(checkpoint_every: Option<u64>) -> Worker {
        Worker {
            skip_through: None,
            checkpoint_every,
            since_checkpoint: 0,
        }
    }

    /// A recovery replayed the log through `skip_through`: queued messages
    /// at or below it are stale, and the checkpoint cadence restarts.
    pub fn recovered(&mut self, skip_through: Option<u64>) {
        self.skip_through = skip_through;
        self.since_checkpoint = 0;
    }

    /// The skip rule: whether a message logged at `seq` is still to be
    /// buffered or stepped. Every reading carries its own `seq`, so a
    /// batch straddling the replay's end is trimmed, not dropped whole.
    pub fn fresh(&self, seq: u64) -> bool {
        self.skip_through.is_none_or(|s| seq > s)
    }

    /// An epoch was stepped: whether to checkpoint now.
    pub fn stepped(&mut self) -> bool {
        let Some(every) = self.checkpoint_every else {
            return false;
        };
        self.since_checkpoint += 1;
        let due = self.since_checkpoint >= every;
        if due {
            self.since_checkpoint = 0;
        }
        due
    }
}

#[cfg(test)]
pub(crate) use mutant::{with_mutant, GatewayMutant};

/// Deliberately seeded protocol bugs, one `#[cfg(test)]` edit each inside
/// the machine it breaks. The model checker must catch every one.
#[cfg(test)]
mod mutant {
    use std::cell::Cell;

    /// A seeded bug.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum GatewayMutant {
        /// [`merge`](super::merge) stores instead of taking the maximum,
        /// so an in-contract late batch drags the clock backwards.
        StoreNotMax,
        /// [`Reader::finish`](super::Reader::finish) closes the clock
        /// before its final batch is enqueued.
        CloseBeforeLastEnqueue,
        /// [`Reader::hand_off`](super::Reader::hand_off) advances before
        /// the sends. One reading never certifies past itself
        /// (`ts − lateness <= ts`), but a batch's maximum certifies past
        /// its earlier readings, so this needs batches of two or more.
        AdvanceBeforeHandOff,
        /// [`Coordinator::next_due`](super::Coordinator::next_due) flushes
        /// while `next <= watermark`: a reading stamped exactly at the
        /// watermark arrives after its epoch is sealed.
        FlushAtWatermark,
        /// The coordinator stops once `next > max_ts`, so the drain sweep
        /// never flushes the epoch covering the last readings.
        DrainStopsAtMaxTs,
    }

    thread_local! {
        static ACTIVE: Cell<Option<GatewayMutant>> = const { Cell::new(None) };
    }

    /// Run `f` with `mutant` seeded into every machine on this thread.
    pub(crate) fn with_mutant<T>(mutant: GatewayMutant, f: impl FnOnce() -> T) -> T {
        ACTIVE.set(Some(mutant));
        let out = f();
        ACTIVE.set(None);
        out
    }

    pub(super) fn is(mutant: GatewayMutant) -> bool {
        ACTIVE.get() == Some(mutant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_off_sends_every_batch_before_advancing() {
        let mut r: Reader<Vec<(u64, &str)>> = Reader::new(3, 5, 3);
        assert!(r.hand_off().is_empty(), "nothing pending");
        assert!(!r.push(0, "a", 10, &[0, 2]));
        assert!(r.push(1, "b", 7, &[2]), "three entries reach the cap");
        assert_eq!(r.pending(), 2);
        assert_eq!(
            r.hand_off(),
            vec![
                Effect::Send {
                    shard: 0,
                    batch: vec![(0, "a")]
                },
                Effect::Send {
                    shard: 2,
                    batch: vec![(0, "a"), (1, "b")]
                },
                Effect::Advance {
                    max_ts_ms: 10,
                    watermark: 5
                },
            ]
        );
        assert_eq!(r.pending(), 0);
        assert_eq!(r.finish(), vec![Effect::Close]);
    }

    #[test]
    fn coordinator_flushes_below_the_watermark_and_drains_through_max_ts() {
        let mut c = Coordinator::new(0, 5, 2);
        assert_eq!(c.watermark(false, 1, Some(20)), None, "fleet incomplete");
        let wm = c.watermark(false, 2, Some(10));
        let due: Vec<u64> = std::iter::from_fn(|| c.next_due(wm, 12)).collect();
        assert_eq!(due, vec![0, 5], "epoch 10 is not below the watermark");
        let wm = c.watermark(true, 2, Some(10));
        let due: Vec<u64> = std::iter::from_fn(|| c.next_due(wm, 12)).collect();
        assert_eq!(due, vec![10, 15], "the drain covers the reading at 12");
        c.resume(40);
        assert_eq!(c.next_due(Some(CLOSED), 100), Some(45));
    }

    #[test]
    fn worker_skips_through_the_replay_and_keeps_its_cadence() {
        let mut w = Worker::new(Some(2));
        assert!(w.fresh(0));
        assert_eq!(
            [w.stepped(), w.stepped(), w.stepped()],
            [false, true, false]
        );
        w.recovered(Some(12));
        assert!(!w.fresh(12) && w.fresh(13));
        assert_eq!(
            [w.stepped(), w.stepped()],
            [false, true],
            "cadence restarts"
        );
        assert!(!Worker::new(None).stepped());
    }
}
