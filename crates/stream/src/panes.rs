//! Per-epoch partial aggregates ("panes") for sliding-window operators.
//!
//! A [`WindowBuffer`](crate::WindowBuffer) keeps every tuple of the window
//! and lets the operator rescan them each epoch. When the window slides by
//! exactly one epoch and the aggregate is *mergeable* (count, mean, "last
//! matching"), the tuples are not needed: a [`PaneStore`] keeps one
//! [`PaneTable`] per epoch — `key → partial` over that epoch's arrivals
//! only — and answers the window by merging the live panes. Per-epoch cost
//! is O(arrivals + panes × keys) instead of O(window rows), and the state
//! to checkpoint is the partials, not the tuples.
//!
//! # Invariants
//!
//! * **One pane per epoch**, held in ascending epoch order.
//!   [`PaneStore::pane_mut`] finds the pane of a repeated or earlier epoch
//!   instead of opening a second one.
//! * **Eviction is [`WindowBuffer`](crate::WindowBuffer)'s rule exactly**:
//!   after [`PaneStore::advance_to`]`(now)` every pane satisfies
//!   `epoch >= now - width` (inclusive lower bound, saturating at the
//!   origin), so a zero-width (`NOW`) store keeps only the current epoch.
//!   As in the buffer, a pane *later* than `now` is never evicted.
//! * **First-seen key order**: a table lists its keys in the order they
//!   first arrived, and [`PaneStore::merged`] visits panes oldest →
//!   newest, so the merged table lists keys exactly as a scan of the
//!   buffered tuples would first meet them, each with the representative
//!   key values of its oldest live arrival.
//! * **Merge, never subtract**: the window is rebuilt from the live panes
//!   every epoch. Retracting an evicted pane from a running total would be
//!   O(keys) instead of O(panes × keys), but float partials do not
//!   subtract exactly, so error would accumulate for as long as the stream
//!   runs. Merging a bounded number of panes cannot drift.
//!
//! # Checkpoint layout
//!
//! [`PaneStore::encode_into`] writes, in [`esp_types::snap`] form:
//!
//! ```text
//! width     u64   configured window width (ms), validated on restore
//! n_panes   u32
//! pane*     epoch u64 (strictly ascending), n_entries u32, entry*
//! entry     n_values u16, value* (key values, snap-encoded), partial
//! ```
//!
//! Floats are written by bit pattern, so a restored store continues
//! bit-identically.

use std::collections::{HashMap, VecDeque};

use esp_types::{snap, EspError, Result, TimeDelta, Ts, Value, ValueKey};

use crate::stats::RunningStats;

/// A mergeable per-key aggregate over one epoch's arrivals.
pub trait Partial: Clone + Default {
    /// Fold the partial of a *newer* pane for the same key into this one.
    fn merge(&mut self, newer: &Self);

    /// Append the bit-exact [`esp_types::snap`] form.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Inverse of [`Partial::encode_into`].
    fn decode(cur: &mut snap::Cursor<'_>) -> Result<Self>;
}

/// Row count.
impl Partial for i64 {
    fn merge(&mut self, newer: &i64) {
        *self += *newer;
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_i64(out, *self);
    }

    fn decode(cur: &mut snap::Cursor<'_>) -> Result<i64> {
        cur.i64()
    }
}

/// Mean/variance, combined with the Chan et al. update
/// ([`RunningStats::merge`]).
impl Partial for RunningStats {
    fn merge(&mut self, newer: &RunningStats) {
        RunningStats::merge(self, newer);
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        RunningStats::encode_into(self, out);
    }

    fn decode(cur: &mut snap::Cursor<'_>) -> Result<RunningStats> {
        RunningStats::decode(cur)
    }
}

#[derive(Debug, Clone)]
struct Entry<P> {
    key: Vec<ValueKey>,
    /// The key values as they first arrived (what gets emitted; `key`
    /// normalizes `-0.0` and NaN payloads away).
    values: Vec<Value>,
    partial: P,
}

/// A first-seen-ordered table `key → partial`. Keys group by
/// [`Value::group_key`]: NULLs together, NaNs together, `-0.0` with `0.0`.
#[derive(Debug, Clone)]
pub struct PaneTable<P> {
    index: HashMap<Vec<ValueKey>, usize>,
    entries: Vec<Entry<P>>,
    /// Scratch for [`PaneTable::upsert`]'s lookup key.
    key_buf: Vec<ValueKey>,
}

impl<P> Default for PaneTable<P> {
    fn default() -> PaneTable<P> {
        PaneTable {
            index: HashMap::new(),
            entries: Vec::new(),
            key_buf: Vec::new(),
        }
    }
}

impl<P: Partial> PaneTable<P> {
    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no key.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The partial of the group `values` belongs to. A new group starts
    /// from `P::default()`, is listed after every group seen before it,
    /// and remembers `values` as its representative.
    pub fn upsert(&mut self, values: &[Value]) -> &mut P {
        // Build the lookup key in a buffer kept across calls: a hit costs
        // no allocation.
        let mut key = std::mem::take(&mut self.key_buf);
        key.clear();
        key.extend(values.iter().map(Value::group_key));
        let slot = match self.index.get(key.as_slice()) {
            Some(slot) => *slot,
            None => {
                self.entries.push(Entry {
                    key: key.clone(),
                    values: values.to_vec(),
                    partial: P::default(),
                });
                self.index.insert(key.clone(), self.entries.len() - 1);
                self.entries.len() - 1
            }
        };
        self.key_buf = key;
        &mut self.entries[slot].partial
    }

    /// `(key values, partial)` per group, in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &P)> {
        self.entries
            .iter()
            .map(|e| (e.values.as_slice(), &e.partial))
    }

    fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
    }

    fn merge_from(&mut self, newer: &PaneTable<P>) {
        // Streams tend to list their keys in the same order epoch after
        // epoch, so the slot after the previous match is tried before the
        // index is: a steady stream merges without hashing at all.
        let mut guess = 0;
        for e in &newer.entries {
            let slot = if self
                .entries
                .get(guess)
                .is_some_and(|mine| mine.key == e.key)
            {
                Some(guess)
            } else {
                self.index.get(e.key.as_slice()).copied()
            };
            match slot {
                Some(slot) => {
                    self.entries[slot].partial.merge(&e.partial);
                    guess = slot + 1;
                }
                None => {
                    self.index.insert(e.key.clone(), self.entries.len());
                    self.entries.push(e.clone());
                    guess = self.entries.len();
                }
            }
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_u32(out, self.entries.len() as u32);
        for e in &self.entries {
            snap::encode_values(out, &e.values);
            e.partial.encode_into(out);
        }
    }

    fn decode(cur: &mut snap::Cursor<'_>) -> Result<PaneTable<P>> {
        let mut table = PaneTable::default();
        for _ in 0..cur.u32()? {
            let values = snap::decode_values(cur)?;
            let n_before = table.len();
            let slot = table.upsert(&values);
            *slot = P::decode(cur)?;
            if table.len() == n_before {
                return Err(EspError::Snapshot(
                    "pane snapshot lists one key twice in a pane".into(),
                ));
            }
        }
        Ok(table)
    }
}

/// A ring of per-epoch [`PaneTable`]s covering a sliding window.
#[derive(Debug, Clone)]
pub struct PaneStore<P> {
    width: TimeDelta,
    /// `(epoch, table)` in strictly ascending epoch order.
    panes: VecDeque<(Ts, PaneTable<P>)>,
    /// The merge target of [`PaneStore::merged`], kept so its allocations
    /// are reused from epoch to epoch. Not state: rebuilt on every call.
    scratch: PaneTable<P>,
}

impl<P: Partial> PaneStore<P> {
    /// An empty store for a window of the given width.
    /// `TimeDelta::ZERO` is a `NOW` window.
    pub fn new(width: TimeDelta) -> PaneStore<P> {
        PaneStore {
            width,
            panes: VecDeque::new(),
            scratch: PaneTable::default(),
        }
    }

    /// The pane of `epoch`, opened (in epoch order) if this is the first
    /// time the epoch is seen. O(1) for the usual newest-epoch case.
    pub fn pane_mut(&mut self, epoch: Ts) -> &mut PaneTable<P> {
        let pos = if self.panes.back().is_none_or(|(e, _)| *e < epoch) {
            self.panes.push_back((epoch, PaneTable::default()));
            self.panes.len() - 1
        } else {
            let pos = self.panes.partition_point(|(e, _)| *e < epoch);
            if self.panes[pos].0 != epoch {
                self.panes.insert(pos, (epoch, PaneTable::default()));
            }
            pos
        };
        &mut self.panes[pos].1
    }

    /// Slide the window forward to `now`, dropping every pane older than
    /// `now - width`.
    pub fn advance_to(&mut self, now: Ts) {
        let cutoff = now.window_start(self.width);
        while self.panes.front().is_some_and(|(e, _)| *e < cutoff) {
            self.panes.pop_front();
        }
    }

    /// The window's table: every live pane merged oldest → newest.
    pub fn merged(&mut self) -> &PaneTable<P> {
        self.scratch.clear();
        for (_, table) in &self.panes {
            self.scratch.merge_from(table);
        }
        &self.scratch
    }

    /// Append the store's durable state (see the module docs for the
    /// layout). The inverse of [`PaneStore::restore_from`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_u64(out, self.width.as_millis());
        snap::put_u32(out, self.panes.len() as u32);
        for (epoch, table) in &self.panes {
            snap::put_u64(out, epoch.as_millis());
            table.encode_into(out);
        }
    }

    /// Replace this store's panes with those captured by
    /// [`PaneStore::encode_into`]. The encoded width must match the
    /// configured one — a mismatch means the snapshot came from a
    /// different pipeline configuration and is rejected rather than
    /// silently re-windowed.
    pub fn restore_from(&mut self, cur: &mut snap::Cursor<'_>) -> Result<()> {
        let width = TimeDelta::from_millis(cur.u64()?);
        if width != self.width {
            return Err(EspError::Snapshot(format!(
                "pane snapshot has width {width} but the operator is configured with {}",
                self.width
            )));
        }
        let mut panes: VecDeque<(Ts, PaneTable<P>)> = VecDeque::new();
        for _ in 0..cur.u32()? {
            let epoch = Ts::from_millis(cur.u64()?);
            if panes.back().is_some_and(|(last, _)| *last >= epoch) {
                return Err(EspError::Snapshot(
                    "pane snapshot epochs are not strictly ascending".into(),
                ));
            }
            panes.push_back((epoch, PaneTable::decode(cur)?));
        }
        self.panes = panes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str, i: i64) -> Vec<Value> {
        vec![Value::str(s), Value::Int(i)]
    }

    fn counts(t: &PaneTable<i64>) -> Vec<(Vec<Value>, i64)> {
        t.iter().map(|(k, n)| (k.to_vec(), *n)).collect()
    }

    #[test]
    fn merged_sums_panes_in_first_seen_order() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        *s.pane_mut(Ts::from_secs(1)).upsert(&key("b", 1)) += 2;
        *s.pane_mut(Ts::from_secs(1)).upsert(&key("a", 1)) += 1;
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("c", 1)) += 1;
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("a", 1)) += 4;
        s.advance_to(Ts::from_secs(2));
        assert_eq!(
            counts(s.merged()),
            vec![(key("b", 1), 2), (key("a", 1), 5), (key("c", 1), 1)]
        );
    }

    #[test]
    fn eviction_keeps_inclusive_lower_bound() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        for sec in [0u64, 1, 5, 6, 10] {
            *s.pane_mut(Ts::from_secs(sec)).upsert(&key("k", sec as i64)) += 1;
        }
        s.advance_to(Ts::from_secs(10));
        // cutoff = 5 s inclusive
        let live: Vec<i64> = s
            .merged()
            .iter()
            .map(|(k, _)| k[1].as_i64().unwrap())
            .collect();
        assert_eq!(live, vec![5, 6, 10]);
    }

    #[test]
    fn now_window_keeps_only_the_current_epoch() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::ZERO);
        *s.pane_mut(Ts::from_secs(1)).upsert(&key("a", 0)) += 1;
        s.advance_to(Ts::from_secs(1));
        assert_eq!(s.merged().len(), 1);
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("b", 0)) += 1;
        s.advance_to(Ts::from_secs(2));
        assert_eq!(counts(s.merged()), vec![(key("b", 0), 1)]);
        s.advance_to(Ts::from_secs(3));
        assert!(s.merged().is_empty());
    }

    #[test]
    fn repeated_and_earlier_epochs_find_their_pane() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(10));
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("late", 0)) += 1;
        *s.pane_mut(Ts::from_secs(4)).upsert(&key("newest", 0)) += 1;
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("late", 0)) += 1;
        *s.pane_mut(Ts::from_secs(1)).upsert(&key("earliest", 0)) += 1;
        *s.pane_mut(Ts::from_secs(3)).upsert(&key("middle", 0)) += 1;
        // Advancing to an earlier time evicts by that time's cutoff only;
        // later panes stay, as later tuples stay in a WindowBuffer.
        s.advance_to(Ts::from_secs(3));
        assert_eq!(
            counts(s.merged()),
            vec![
                (key("earliest", 0), 1),
                (key("late", 0), 2),
                (key("middle", 0), 1),
                (key("newest", 0), 1)
            ]
        );
    }

    #[test]
    fn keys_group_like_group_key_and_keep_the_first_seen_values() {
        let mut t: PaneTable<i64> = PaneTable::default();
        *t.upsert(&[Value::Float(-0.0)]) += 1;
        *t.upsert(&[Value::Float(0.0)]) += 1;
        *t.upsert(&[Value::Null]) += 1;
        *t.upsert(&[Value::Float(f64::NAN)]) += 1;
        *t.upsert(&[Value::Null]) += 1;
        *t.upsert(&[Value::Float(-f64::NAN)]) += 1;
        *t.upsert(&[Value::Int(0)]) += 1;
        let got = counts(&t);
        assert_eq!(
            got.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            [2, 2, 2, 1]
        );
        // The representative is the first arrival, bit for bit.
        let Value::Float(zero) = got[0].0[0] else {
            panic!("float key")
        };
        assert_eq!(zero.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn mean_partials_merge_like_one_pass() {
        let xs: Vec<f64> = (0..90).map(|i| (i as f64).sin() * 40.0 + 15.0).collect();
        let mut s: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(100));
        for (i, x) in xs.iter().enumerate() {
            s.pane_mut(Ts::from_secs(i as u64 / 3))
                .upsert(&key("m", 7))
                .push(*x);
        }
        s.advance_to(Ts::from_secs(29));
        let whole = RunningStats::from_iter(xs.iter().copied());
        let merged = s.merged();
        let (_, got) = merged.iter().next().unwrap();
        assert_eq!(got.count(), whole.count());
        let (a, b) = (got.mean().unwrap(), whole.mean().unwrap());
        assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b}");
    }

    #[test]
    fn snapshot_round_trips_bit_exactly_and_validates() {
        let mut s: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(5));
        s.pane_mut(Ts::from_secs(1))
            .upsert(&[Value::Float(-0.0), Value::Null])
            .push(0.1);
        s.pane_mut(Ts::from_secs(1))
            .upsert(&key("a", 1))
            .push(f64::NAN);
        s.pane_mut(Ts::from_secs(3))
            .upsert(&key("a", 1))
            .push(1e300);
        s.pane_mut(Ts::from_secs(4)); // an empty pane survives too
        let mut blob = Vec::new();
        s.encode_into(&mut blob);

        let mut r: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(5));
        let mut cur = snap::Cursor::new(&blob);
        r.restore_from(&mut cur).unwrap();
        cur.finish().unwrap();
        let mut again = Vec::new();
        r.encode_into(&mut again);
        assert_eq!(blob, again);

        // A different configured width is a different pipeline.
        let mut other: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(6));
        assert!(matches!(
            other.restore_from(&mut snap::Cursor::new(&blob)),
            Err(EspError::Snapshot(_))
        ));
        // Truncation anywhere is an error, never partial state.
        for cut in 0..blob.len() {
            let mut t: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(5));
            let mut cur = snap::Cursor::new(&blob[..cut]);
            assert!(t.restore_from(&mut cur).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn snapshot_with_unordered_panes_is_rejected() {
        let mut blob = Vec::new();
        snap::put_u64(&mut blob, 5_000);
        snap::put_u32(&mut blob, 2);
        for epoch in [2_000u64, 2_000] {
            snap::put_u64(&mut blob, epoch);
            snap::put_u32(&mut blob, 0);
        }
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        assert!(matches!(
            s.restore_from(&mut snap::Cursor::new(&blob)),
            Err(EspError::Snapshot(m)) if m.contains("ascending")
        ));
    }
}
