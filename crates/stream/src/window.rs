//! Time-based sliding-window buffers.
//!
//! A [`WindowBuffer`] holds the tuples visible to a windowed operator. It
//! realizes the paper's temporal granule: `[Range By '5 sec']` becomes a
//! buffer of width 5 s, and `[Range By 'NOW']` a zero-width buffer that only
//! retains the current epoch's tuples.
//!
//! A buffer is for operators that need the tuples themselves: holistic
//! aggregates (Merge's outlier rejection and median), arbitrary CQL over a
//! window (esp-query). An operator whose aggregate *merges* (count, mean)
//! keeps per-epoch partials in a [`PaneStore`](crate::panes::PaneStore)
//! instead, which evicts by this buffer's rule but holds no tuples.
//!
//! # Segments
//!
//! The window is stored columnar only, as an ordered list of *segments*:
//! each a [`Chunk`] whose rows share one schema. A push (row or chunk)
//! whose schema is structurally equal to the tail segment's joins it; any
//! other schema starts a new segment, so a window over a schema-uniform
//! stream is exactly one segment. Concatenated, the segments are in
//! timestamp order, and a row that lands earlier than the tail
//! (intra-epoch disorder) is inserted at the same position a sorted row
//! list would give it. Eviction drops whole segments from the front and
//! drains the first survivor by ts range.
//!
//! Checkpoints encode the contents as a `snap` tuple batch;
//! [`WindowBuffer::restore_from`] rebuilds the segments from it.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use esp_types::{chunk_batch, snap, Chunk, EspError, Result, Schema, TimeDelta, Ts, Tuple, Value};

/// Process-wide chunk-vs-row path hit counters, registered once in
/// [`esp_obs::global`]. Window buffers are plentiful and short-lived
/// handles would churn the registry lock, so the counters are resolved
/// once per process and shared by every buffer.
struct WindowObs {
    row_pushes: esp_obs::Counter,
    chunk_pushes: esp_obs::Counter,
}

fn window_obs() -> &'static WindowObs {
    static OBS: OnceLock<WindowObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = esp_obs::global();
        WindowObs {
            row_pushes: registry.counter("esp_stream_window_row_pushes_total", &[]),
            chunk_pushes: registry.counter("esp_stream_window_chunk_pushes_total", &[]),
        }
    })
}

fn same_schema(a: &Arc<Schema>, b: &Arc<Schema>) -> bool {
    Arc::ptr_eq(a, b) || **a == **b
}

/// A sliding window over a tuple stream.
///
/// Invariants (checked by property tests):
///
/// * Tuples are stored in non-decreasing timestamp order. Pushes must be
///   monotone *across epochs* (the epoch scheduler guarantees this);
///   within one epoch, any order is accepted and normalized on insert.
/// * After [`WindowBuffer::advance_to`]`(now)`, every retained tuple `t`
///   satisfies `t.ts() >= now - width` (inclusive lower bound) and
///   `t.ts() <= now`.
#[derive(Debug)]
pub struct WindowBuffer {
    width: TimeDelta,
    /// Non-empty, schema-uniform chunks, oldest first; adjacent segments
    /// have structurally different schemas.
    segments: VecDeque<Chunk>,
    /// High-water mark of timestamps seen. Not read by the buffer itself;
    /// it is part of the checkpoint encoding.
    hwm: Ts,
    /// The logical time of the most recent [`WindowBuffer::advance_to`],
    /// so a width change can re-establish the window invariant
    /// immediately instead of waiting for the next advance.
    now: Ts,
    /// Row pushes not yet published to the process-wide hit counter.
    /// Window pushes are the hottest instrumented path in the system, and
    /// every shard worker shares the one global counter — per-tuple RMWs
    /// on that cache line are a measurable throughput tax (the
    /// `obs-overhead` bench gates it). Batching keeps the hot path on
    /// this buffer-local integer; blocks of [`ROW_PUSH_BATCH`] go to the
    /// shared atomic, and the remainder is flushed on drop, so totals are
    /// exact once buffers retire and lag by < one batch while live.
    pending_rows: u32,
}

impl Clone for WindowBuffer {
    fn clone(&self) -> WindowBuffer {
        WindowBuffer {
            width: self.width,
            segments: self.segments.clone(),
            hwm: self.hwm,
            now: self.now,
            // Unpublished accounting stays with the original; the clone
            // starts a fresh batch so no push is published twice.
            pending_rows: 0,
        }
    }
}

impl Drop for WindowBuffer {
    fn drop(&mut self) {
        if self.pending_rows > 0 {
            window_obs().row_pushes.add(u64::from(self.pending_rows));
        }
    }
}

/// How many row pushes accumulate buffer-locally before one shared-atomic
/// publication.
const ROW_PUSH_BATCH: u32 = 64;

impl WindowBuffer {
    /// Create a buffer of the given temporal width. `TimeDelta::ZERO`
    /// creates a now-window.
    pub fn new(width: TimeDelta) -> WindowBuffer {
        WindowBuffer {
            width,
            segments: VecDeque::new(),
            hwm: Ts::ZERO,
            now: Ts::ZERO,
            pending_rows: 0,
        }
    }

    /// The configured window width.
    pub fn width(&self) -> TimeDelta {
        self.width
    }

    /// Change the window width (used by Smooth's window expansion,
    /// paper §5.2.1).
    ///
    /// Shrinking re-evicts immediately against the last advanced-to time,
    /// so the width invariant (`t.ts() >= now - width` for every retained
    /// tuple) holds as soon as this returns — a narrower window never
    /// leaks tuples that were only visible under the old width into an
    /// evaluation that happens before the next [`WindowBuffer::advance_to`].
    pub fn set_width(&mut self, width: TimeDelta) {
        self.width = width;
        self.evict(self.now.window_start(width));
    }

    /// Insert one tuple, keeping timestamp order. A tuple at or after the
    /// tail whose schema matches the tail segment is one columnar append.
    pub fn push(&mut self, t: Tuple) {
        if esp_obs::enabled() {
            self.pending_rows += 1;
            if self.pending_rows == ROW_PUSH_BATCH {
                window_obs().row_pushes.add(u64::from(ROW_PUSH_BATCH));
                self.pending_rows = 0;
            }
        }
        self.hwm = self.hwm.max(t.ts());
        self.insert_row(t.schema(), t.ts(), t.values());
    }

    /// Insert a whole chunk, keeping timestamp order.
    pub fn push_chunk(&mut self, chunk: &Chunk) {
        self.ingest(Cow::Borrowed(chunk));
    }

    /// Insert a whole chunk by value: a sorted chunk that starts a new
    /// segment becomes that segment wholesale, with no column copies.
    pub fn push_chunk_owned(&mut self, chunk: Chunk) {
        self.ingest(Cow::Owned(chunk));
    }

    /// The chunk path behind [`WindowBuffer::push_chunk`] and
    /// [`WindowBuffer::push_chunk_owned`]. A sorted chunk landing at or
    /// after the tail (the common case: the engine restamps ingest to the
    /// epoch) extends the tail segment column by column, or becomes a new
    /// segment; anything else falls back to positioned row inserts.
    fn ingest(&mut self, chunk: Cow<'_, Chunk>) {
        let ts = chunk.ts();
        let Some(&first) = ts.first() else {
            return;
        };
        if esp_obs::enabled() {
            window_obs().chunk_pushes.inc();
        }
        self.hwm = self.hwm.max(ts.iter().copied().max().unwrap_or(first));
        let sorted = ts.windows(2).all(|w| w[0] <= w[1]);
        if sorted && self.newest().is_none_or(|last| last <= first) {
            match self.segments.back_mut() {
                Some(tail) if same_schema(tail.schema(), chunk.schema()) => {
                    let _ = tail.extend_from_chunk(&chunk);
                }
                _ => self.segments.push_back(chunk.into_owned()),
            }
            return;
        }
        for (i, &t) in ts.iter().enumerate() {
            let values = chunk.row_values(i).unwrap_or_default();
            self.insert_row(chunk.schema(), t, &values);
        }
    }

    /// Insert one row after every retained row with `ts <= ts` — the
    /// position a stable sort of the arrivals by timestamp gives it.
    fn insert_row(&mut self, schema: &Arc<Schema>, ts: Ts, values: &[Value]) {
        if values.len() != schema.len() {
            // A `Tuple::new_unchecked` row no chunk can hold; admitting it
            // would leave an empty segment behind.
            return;
        }
        let n = self.segments.len();
        let after_prev = n < 2 || self.segments[n - 2].last_ts().is_none_or(|l| l <= ts);
        if let Some(tail) = self.segments.back_mut() {
            if after_prev && same_schema(tail.schema(), schema) {
                let pos = tail.ts().partition_point(|b| *b <= ts);
                let _ = tail.insert_row(pos, ts, values);
                return;
            }
        }
        if self.newest().is_none_or(|last| last <= ts) {
            let mut segment = Chunk::new(schema);
            let _ = segment.push_row(ts, values);
            self.segments.push_back(segment);
            return;
        }
        // A row that belongs inside an earlier segment, or inside the
        // tail under another schema: only mixed-schema windows with
        // intra-epoch disorder get here. Re-split the row sequence.
        let mut rows = self.to_vec();
        let pos = rows.partition_point(|r| r.ts() <= ts);
        rows.insert(
            pos,
            Tuple::new_unchecked(Arc::clone(schema), ts, values.to_vec()),
        );
        self.segments = chunk_batch(&rows).into();
    }

    /// Slide the window forward to logical time `now`, evicting tuples that
    /// fall out of `[now - width, now]`.
    pub fn advance_to(&mut self, now: Ts) {
        self.now = now;
        self.evict(now.window_start(self.width));
    }

    fn evict(&mut self, cutoff: Ts) {
        while self
            .segments
            .front()
            .is_some_and(|s| s.last_ts().is_none_or(|l| l < cutoff))
        {
            self.segments.pop_front();
        }
        if let Some(front) = self.segments.front_mut() {
            // The ts column is sorted: one binary search + bulk drain.
            let n = front.ts().partition_point(|t| *t < cutoff);
            if n > 0 {
                front.drain_front(n);
            }
        }
    }

    /// The window's segments, oldest first: schema-uniform chunks whose
    /// concatenation is the window contents in timestamp order.
    pub fn segments(&self) -> impl Iterator<Item = &Chunk> + '_ {
        self.segments.iter()
    }

    /// The schema of the oldest retained row; `None` when empty. Plan
    /// resolution samples this instead of materializing a row.
    pub fn sample_schema(&self) -> Option<&Arc<Schema>> {
        self.segments.front().map(Chunk::schema)
    }

    /// Collect the window contents into a vector, oldest first.
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.segments.iter().flat_map(Chunk::to_tuples).collect()
    }

    /// Number of tuples in the window.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Chunk::len).sum()
    }

    /// True when the window holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Timestamp of the oldest retained tuple.
    pub fn oldest(&self) -> Option<Ts> {
        self.segments.front().and_then(Chunk::first_ts)
    }

    /// Timestamp of the newest retained tuple.
    pub fn newest(&self) -> Option<Ts> {
        self.segments.back().and_then(Chunk::last_ts)
    }

    /// Append this buffer's full durable state — width (for configuration
    /// validation), high-water mark, last advanced-to time, and contents
    /// as one row batch — in [`esp_types::snap`] form. The inverse of
    /// [`WindowBuffer::restore_from`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_u64(out, self.width.as_millis());
        snap::put_u64(out, self.hwm.as_millis());
        snap::put_u64(out, self.now.as_millis());
        snap::encode_batch(out, &self.to_vec());
    }

    /// Restore state captured by [`WindowBuffer::encode_into`] into this
    /// buffer. The encoded width must match the configured width — a
    /// mismatch means the snapshot came from a different pipeline
    /// configuration and is rejected rather than silently re-windowed.
    pub fn restore_from(&mut self, cur: &mut snap::Cursor<'_>) -> Result<()> {
        let width = TimeDelta::from_millis(cur.u64()?);
        if width != self.width {
            return Err(EspError::Snapshot(format!(
                "window snapshot has width {width} but the operator is configured with {}",
                self.width
            )));
        }
        self.hwm = Ts::from_millis(cur.u64()?);
        self.now = Ts::from_millis(cur.u64()?);
        self.segments = chunk_batch(&snap::decode_batch(cur)?).into();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StageState;
    use esp_types::{registry, DataType, Schema, Value};

    /// A whole-blob checkpoint of one buffer, the way a stage embeds it.
    impl WindowBuffer {
        fn state(&self) -> Result<Option<StageState>> {
            let mut out = Vec::new();
            self.encode_into(&mut out);
            Ok(Some(StageState(out)))
        }

        fn restore(&mut self, state: &StageState) -> Result<()> {
            let mut cur = snap::Cursor::new(state.bytes());
            self.restore_from(&mut cur)?;
            cur.finish()
        }
    }

    fn tup(ts_ms: u64, v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, Ts::from_millis(ts_ms), vec![Value::Int(v)]).unwrap()
    }

    fn values(w: &WindowBuffer) -> Vec<i64> {
        w.to_vec()
            .iter()
            .map(|t| t.value(0).as_i64().unwrap())
            .collect()
    }

    #[test]
    fn eviction_keeps_inclusive_lower_bound() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        for ms in [0u64, 1_000, 5_000, 6_000, 10_000] {
            w.push(tup(ms, ms as i64));
        }
        w.advance_to(Ts::from_secs(10));
        // cutoff = 5_000 inclusive
        assert_eq!(values(&w), vec![5_000, 6_000, 10_000]);
        assert_eq!(w.oldest(), Some(Ts::from_secs(5)));
        assert_eq!(w.newest(), Some(Ts::from_secs(10)));
    }

    #[test]
    fn now_window_keeps_only_current_epoch() {
        let mut w = WindowBuffer::new(TimeDelta::ZERO);
        w.push(tup(1_000, 1));
        w.push(tup(2_000, 2));
        w.advance_to(Ts::from_secs(2));
        assert_eq!(values(&w), vec![2]);
        w.advance_to(Ts::from_secs(3));
        assert!(w.is_empty());
    }

    #[test]
    fn out_of_order_within_epoch_is_normalized() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(10));
        w.push(tup(3_000, 3));
        w.push(tup(1_000, 1));
        w.push(tup(2_000, 2));
        assert_eq!(values(&w), vec![1, 2, 3]);
    }

    #[test]
    fn shrinking_width_evicts_immediately() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(30));
        for s in 0..10u64 {
            w.push(tup(s * 1_000, s as i64));
        }
        w.advance_to(Ts::from_secs(9));
        assert_eq!(w.len(), 10);
        // The shrink itself restores the invariant — no advance needed.
        w.set_width(TimeDelta::from_secs(2));
        assert_eq!(values(&w), vec![7, 8, 9]);
        // Still identical after the (formerly load-bearing) re-advance.
        w.advance_to(Ts::from_secs(9));
        assert_eq!(values(&w), vec![7, 8, 9]);
    }

    #[test]
    fn shrinking_to_now_window_keeps_only_current_epoch() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(30));
        for s in 0..5u64 {
            w.push(tup(s * 1_000, s as i64));
        }
        w.advance_to(Ts::from_secs(4));
        w.set_width(TimeDelta::ZERO);
        assert_eq!(values(&w), vec![4]);
    }

    #[test]
    fn set_width_before_any_advance_is_safe() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(30));
        w.push(tup(0, 0));
        w.push(tup(1_000, 1));
        // No advance yet: "now" is still the origin, so nothing can be
        // ahead of the window and nothing is evicted.
        w.set_width(TimeDelta::ZERO);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn growing_width_never_resurrects() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(2));
        for s in 0..10u64 {
            w.push(tup(s * 1_000, s as i64));
            w.advance_to(Ts::from_millis(s * 1_000));
        }
        assert_eq!(values(&w), vec![7, 8, 9]);
        w.set_width(TimeDelta::from_secs(30));
        // Evicted tuples are gone; widening only affects future evictions.
        assert_eq!(values(&w), vec![7, 8, 9]);
    }

    #[test]
    fn advance_on_empty_is_noop() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        w.advance_to(Ts::from_secs(100));
        assert!(w.is_empty());
        assert_eq!(w.oldest(), None);
    }

    #[test]
    fn early_advance_saturates_at_origin() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(60));
        w.push(tup(0, 0));
        w.advance_to(Ts::from_secs(1)); // cutoff saturates to 0
        assert_eq!(w.len(), 1);
    }

    fn int_schema() -> Arc<Schema> {
        registry::intern(&Schema::builder().field("v", DataType::Int).build().unwrap())
    }

    /// The second layout of the two-schema tests: `v` plus a note.
    fn note_schema() -> Arc<Schema> {
        registry::intern(
            &Schema::builder()
                .field("v", DataType::Int)
                .field("note", DataType::Str)
                .build()
                .unwrap(),
        )
    }

    /// A row of `int_schema` (`noted == false`) or `note_schema`.
    fn row(noted: bool, ms: u64, v: i64) -> Tuple {
        let ts = Ts::from_millis(ms);
        if noted {
            let note = Value::str(format!("n{v}"));
            Tuple::new(note_schema(), ts, vec![Value::Int(v), note]).unwrap()
        } else {
            Tuple::new(int_schema(), ts, vec![Value::Int(v)]).unwrap()
        }
    }

    fn chunk_of(rows: &[(u64, i64)]) -> Chunk {
        let schema = int_schema();
        let mut c = Chunk::new(&schema);
        for (ms, v) in rows {
            c.push_row(Ts::from_millis(*ms), &[Value::Int(*v)]).unwrap();
        }
        c
    }

    #[test]
    fn chunk_fed_window_is_columnar_and_row_apis_still_work() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        w.push_chunk(&chunk_of(&[(0, 0), (1_000, 1), (2_000, 2)]));
        assert_eq!(w.segments().count(), 1);
        assert_eq!(w.len(), 3);
        assert_eq!(values(&w), vec![0, 1, 2]);
        assert_eq!(w.oldest(), Some(Ts::ZERO));
        assert_eq!(w.newest(), Some(Ts::from_secs(2)));
        assert_eq!(w.sample_schema().map(|s| s.len()), Some(1));
    }

    #[test]
    fn columnar_eviction_by_ts_range() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        w.push_chunk(&chunk_of(&[(0, 0), (1_000, 1), (5_000, 5), (10_000, 10)]));
        w.advance_to(Ts::from_secs(10));
        assert_eq!(w.segments().count(), 1);
        assert_eq!(values(&w), vec![5, 10]);
    }

    #[test]
    fn row_push_into_columnar_window_stays_columnar() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(30));
        w.push_chunk(&chunk_of(&[(0, 0), (2_000, 2)]));
        // Structurally equal schema, out of order: positioned insert.
        w.push(tup(1_000, 1));
        assert_eq!(w.segments().count(), 1);
        assert_eq!(values(&w), vec![0, 1, 2]);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The checkpoint bytes of a three-segment window, captured from the
    /// row-ring implementation this buffer replaced: snapshots written by
    /// either restore into the other.
    #[test]
    fn encoding_is_pinned() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        w.push(row(false, 0, 1));
        w.push(row(false, 1_000, 2));
        w.push_chunk(&Chunk::from_tuples(&note_schema(), &[row(true, 2_000, 3)]).unwrap());
        w.push(row(false, 2_000, 4));
        w.advance_to(Ts::from_secs(6));
        let state = w.state().unwrap().unwrap();
        assert_eq!(hex(state.bytes()), PINNED_STATE);
        let mut r = WindowBuffer::new(TimeDelta::from_secs(5));
        r.restore(&state).unwrap();
        assert_eq!(r.to_vec(), w.to_vec());
        assert_eq!(hex(r.state().unwrap().unwrap().bytes()), PINNED_STATE);
    }

    const PINNED_STATE: &str = "000000000000138800000000000007d0000000000000177000020001000000017601\
        0002000000017601000000046e6f74650300000003000000000000000003e8020000000000000002000100000000\
        000007d002000000000000000304000000026e33000000000000000007d0020000000000000004";

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// The reference a window must match: every arrival inserted after
        /// the rows with `ts <= its ts` (a stable sort by timestamp),
        /// minus what each eviction cut off.
        struct Model {
            width: TimeDelta,
            now: Ts,
            rows: Vec<Tuple>,
        }

        impl Model {
            fn push(&mut self, t: Tuple) {
                let pos = self.rows.partition_point(|r| r.ts() <= t.ts());
                self.rows.insert(pos, t);
            }

            fn evict(&mut self) {
                let cutoff = self.now.window_start(self.width);
                self.rows.retain(|r| r.ts() >= cutoff);
            }

            /// Runs of consecutive rows sharing a schema.
            fn schema_runs(&self) -> usize {
                let changes = self
                    .rows
                    .windows(2)
                    .filter(|p| p[0].schema() != p[1].schema())
                    .count();
                usize::from(!self.rows.is_empty()) + changes
            }
        }

        proptest! {
            /// Checkpoint round-trip: encode state, restore into a fresh
            /// buffer of the same width, and both must hold identical
            /// contents and behave identically under further advances.
            #[test]
            fn state_round_trips(
                width_ms in 0u64..20_000,
                pushes in proptest::collection::vec((0u64..100u64, 0i64..100), 0..100),
                later in 0u64..50u64,
            ) {
                let width = TimeDelta::from_millis(width_ms);
                let mut w = WindowBuffer::new(width);
                let mut pushes = pushes;
                pushes.sort_by_key(|(e, _)| *e);
                let mut now = Ts::ZERO;
                for (epoch, v) in &pushes {
                    now = Ts::from_millis(epoch * 100);
                    w.push(tup(now.as_millis(), *v));
                    w.advance_to(now);
                }
                let state = w.state().unwrap().unwrap();
                let mut r = WindowBuffer::new(width);
                r.restore(&state).unwrap();
                prop_assert_eq!(values(&r), values(&w));
                prop_assert_eq!(r.oldest(), w.oldest());
                prop_assert_eq!(r.newest(), w.newest());
                // Same behavior going forward.
                let next = now + TimeDelta::from_millis(later * 100);
                w.advance_to(next);
                r.advance_to(next);
                prop_assert_eq!(values(&r), values(&w));
            }

            /// Chopping any suffix off an encoded window state must fail
            /// restore — a torn snapshot is an error, never a silently
            /// shorter window.
            #[test]
            fn truncated_state_is_rejected(
                width_ms in 0u64..5_000,
                n in 0usize..20,
                cut_back in 1usize..8,
            ) {
                let width = TimeDelta::from_millis(width_ms);
                let mut w = WindowBuffer::new(width);
                for i in 0..n {
                    w.push(tup(i as u64 * 100, i as i64));
                    w.advance_to(Ts::from_millis(i as u64 * 100));
                }
                let state = w.state().unwrap().unwrap();
                let cut = state.0.len().saturating_sub(cut_back);
                let truncated = StageState(state.0[..cut].to_vec());
                let mut r = WindowBuffer::new(width);
                prop_assert!(r.restore(&truncated).is_err());
            }

            /// After any sequence of monotone epoch advances, every retained
            /// tuple lies inside [now - width, now] and order is preserved.
            #[test]
            fn window_invariant(
                width_ms in 0u64..20_000,
                pushes in proptest::collection::vec((0u64..100u64, 0i64..100), 1..200),
            ) {
                let width = TimeDelta::from_millis(width_ms);
                let mut w = WindowBuffer::new(width);
                // Interpret push times as epoch indices (100ms epochs),
                // sorted to model the scheduler's monotone delivery.
                let mut pushes = pushes;
                pushes.sort_by_key(|(e, _)| *e);
                let mut now = Ts::ZERO;
                for (epoch, v) in &pushes {
                    now = Ts::from_millis(epoch * 100);
                    w.push(tup(now.as_millis(), *v));
                    w.advance_to(now);
                    let cutoff = now.window_start(width);
                    let ts: Vec<_> = w.to_vec().iter().map(Tuple::ts).collect();
                    for t in &ts {
                        prop_assert!(*t >= cutoff && *t <= now);
                    }
                    prop_assert!(ts.windows(2).all(|p| p[0] <= p[1]));
                }
                // Everything still in the final window was pushed at or
                // after the final cutoff.
                let expected = pushes
                    .iter()
                    .filter(|(e, _)| Ts::from_millis(e * 100) >= now.window_start(width))
                    .count();
                prop_assert_eq!(w.len(), expected);
            }

            /// The width invariant holds *immediately* after `set_width` +
            /// `advance_to` in either order, for any width including the
            /// `TimeDelta::ZERO` now-window edge.
            #[test]
            fn width_invariant_holds_immediately_after_set_width(
                initial_ms in 0u64..20_000,
                new_ms in 0u64..20_000,
                epochs in proptest::collection::vec(0u64..100u64, 1..100),
                shrink_first in proptest::bool::ANY,
            ) {
                let mut w = WindowBuffer::new(TimeDelta::from_millis(initial_ms));
                let mut epochs = epochs;
                epochs.sort_unstable();
                let mut now = Ts::ZERO;
                for e in &epochs {
                    now = Ts::from_millis(e * 100);
                    w.push(tup(now.as_millis(), *e as i64));
                    w.advance_to(now);
                }
                let new_width = TimeDelta::from_millis(new_ms);
                if shrink_first {
                    w.set_width(new_width);
                } else {
                    w.advance_to(now);
                    w.set_width(new_width);
                }
                // Invariant restored by set_width alone — no advance since.
                let cutoff = now.window_start(new_width);
                for t in w.to_vec() {
                    prop_assert!(
                        t.ts() >= cutoff && t.ts() <= now,
                        "stale tuple at {:?} outside [{:?}, {:?}]",
                        t.ts(), cutoff, now
                    );
                }
                // And it keeps holding after a subsequent advance.
                w.advance_to(now);
                for t in w.to_vec() {
                    prop_assert!(t.ts() >= cutoff && t.ts() <= now);
                }
            }

            /// The segment store matches the row-list model under a random
            /// interleaving of row pushes, chunk pushes (borrowed and
            /// owned, sorted or not), advances and width changes over two
            /// schemas — including rows that land before the tail under
            /// the other schema. After every operation the window and its
            /// checkpoint round-trip agree with the model.
            #[test]
            fn segments_match_row_model(
                width_ms in 0u64..20_000,
                ops in proptest::collection::vec(
                    (0u8..5, proptest::bool::ANY, proptest::collection::vec((0u64..100u64, 0i64..100), 0..8)),
                    1..40,
                ),
            ) {
                let width = TimeDelta::from_millis(width_ms);
                let mut w = WindowBuffer::new(width);
                let mut m = Model { width, now: Ts::ZERO, rows: Vec::new() };
                for (kind, noted, payload) in &ops {
                    // Arrivals land up to 6 ms after the last advance, so
                    // they may precede rows already in the window.
                    let rows: Vec<Tuple> = payload
                        .iter()
                        .map(|(e, v)| row(*noted, m.now.as_millis() + e % 7, *v))
                        .collect();
                    match kind {
                        // Rows one at a time, alternating schemas by value.
                        0 => {
                            for (e, v) in payload {
                                let t = row(v % 2 == 1, m.now.as_millis() + e % 7, *v);
                                m.push(t.clone());
                                w.push(t);
                            }
                        }
                        // One chunk of one schema, in payload order.
                        1 | 2 => {
                            if !rows.is_empty() {
                                let c = Chunk::from_tuples(rows[0].schema(), &rows).unwrap();
                                if *kind == 1 {
                                    w.push_chunk(&c);
                                } else {
                                    w.push_chunk_owned(c);
                                }
                            }
                            for t in rows {
                                m.push(t);
                            }
                        }
                        // Advance (monotone, possibly by zero).
                        3 => {
                            m.now += TimeDelta::from_millis(payload.first().map_or(100, |(e, _)| e * 10));
                            w.advance_to(m.now);
                            m.evict();
                        }
                        // Change the width.
                        _ => {
                            m.width = TimeDelta::from_millis(payload.first().map_or(1_000, |(e, _)| e * 200));
                            w.set_width(m.width);
                            m.evict();
                        }
                    }
                    prop_assert_eq!(w.len(), m.rows.len());
                    prop_assert_eq!(w.oldest(), m.rows.first().map(Tuple::ts));
                    prop_assert_eq!(w.newest(), m.rows.last().map(Tuple::ts));
                    prop_assert_eq!(&w.to_vec(), &m.rows);
                    prop_assert_eq!(w.segments().count(), m.schema_runs());
                    let mut r = WindowBuffer::new(w.width());
                    r.restore(&w.state().unwrap().unwrap()).unwrap();
                    prop_assert_eq!(&r.to_vec(), &m.rows);
                    prop_assert_eq!(r.oldest(), w.oldest());
                    prop_assert_eq!(r.newest(), w.newest());
                }
            }

            /// Out-of-order intra-epoch pushes sort identically to pre-sorted
            /// pushes.
            #[test]
            fn insertion_order_independent(mut times in proptest::collection::vec(0u64..1_000, 1..50)) {
                let mut a = WindowBuffer::new(TimeDelta::from_secs(10_000));
                for (i, t) in times.iter().enumerate() {
                    a.push(tup(*t, i as i64));
                }
                times.sort_unstable();
                let got: Vec<_> = a.to_vec().iter().map(|t| t.ts().as_millis()).collect();
                prop_assert_eq!(got, times);
            }
        }
    }
}
