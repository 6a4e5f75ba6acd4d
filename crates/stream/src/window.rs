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
//! # Backing stores
//!
//! Row-pushed windows are backed by a `VecDeque<Tuple>` ring, exactly as
//! before the columnar refactor. A window whose *first* data arrives via
//! [`WindowBuffer::push_chunk`] is instead backed by a columnar ring — a
//! single [`Chunk`] kept in timestamp order, evicted by ts-range — and
//! stays columnar as long as every arrival (chunk or row) carries a
//! structurally equal schema. A mismatched schema demotes the ring to rows
//! transparently. The borrowed row APIs ([`WindowBuffer::view`],
//! [`WindowBuffer::contents`], [`WindowBuffer::as_slices`]) still work on
//! a columnar window through a lazily materialized row cache (invalidated
//! on mutation); the query engine's hot path avoids them entirely by
//! reading [`WindowBuffer::chunk_view`] instead.
//!
//! Checkpoint encoding is unchanged and backing-independent: state is
//! always encoded as a `snap` tuple batch, so snapshots taken before the
//! re-backing restore fine, and a columnar window's state restores into a
//! row-backed buffer (and vice versa) byte-compatibly.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use esp_types::{snap, Chunk, ChunkView, EspError, Result, Schema, TimeDelta, Ts, Tuple};

use crate::state::{Checkpointable, StageState};

/// The columnar backing: one schema-uniform [`Chunk`] in ts order, plus a
/// lazily materialized row cache serving the borrowed `&Tuple` APIs.
#[derive(Debug, Clone, Default)]
struct ColRing {
    chunk: Option<Chunk>,
    /// Materialized rows for `view()`/`contents()`/`as_slices()`; reset on
    /// every mutation. The engine's chunk path never touches it.
    cache: OnceLock<Vec<Tuple>>,
}

impl ColRing {
    fn rows(&self) -> &[Tuple] {
        self.cache.get_or_init(|| {
            self.chunk
                .as_ref()
                .map(Chunk::to_tuples)
                .unwrap_or_default()
        })
    }

    fn invalidate(&mut self) {
        self.cache = OnceLock::new();
    }
}

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

/// Storage behind a [`WindowBuffer`].
#[derive(Debug, Clone)]
enum Store {
    /// Row ring (the pre-chunk representation; default).
    Rows(VecDeque<Tuple>),
    /// Columnar ring, engaged by [`WindowBuffer::push_chunk`].
    Col(ColRing),
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
    store: Store,
    /// High-water mark of timestamps seen, for the monotonicity debug check.
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
            store: self.store.clone(),
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
            store: Store::Rows(VecDeque::new()),
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

    /// Insert one tuple, keeping timestamp order. Cost is O(1) for in-order
    /// arrivals (the common case) and O(k) for a tuple that lands k slots
    /// from the tail (intra-epoch disorder).
    ///
    /// On a columnar window, a tuple whose schema is structurally equal to
    /// the ring's is appended columnar (and later reads canonicalize it to
    /// the ring's interned schema `Arc`); any other schema demotes the
    /// ring to rows first.
    pub fn push(&mut self, t: Tuple) {
        if esp_obs::enabled() {
            self.pending_rows += 1;
            if self.pending_rows == ROW_PUSH_BATCH {
                window_obs().row_pushes.add(u64::from(ROW_PUSH_BATCH));
                self.pending_rows = 0;
            }
        }
        self.push_inner(t);
    }

    /// [`WindowBuffer::push`] minus the hit-rate accounting — the target
    /// of internal recursion (schema-demote re-push) so one arrival is
    /// never counted twice.
    fn push_inner(&mut self, t: Tuple) {
        self.hwm = self.hwm.max(t.ts());
        match &mut self.store {
            Store::Rows(buf) => {
                if buf.back().is_none_or(|b| b.ts() <= t.ts()) {
                    buf.push_back(t);
                    return;
                }
                // Out-of-order within an epoch: insert at the right position.
                let pos = buf.partition_point(|b| b.ts() <= t.ts());
                buf.insert(pos, t);
            }
            Store::Col(ring) => {
                let matches = ring.chunk.as_ref().is_some_and(|c| {
                    Arc::ptr_eq(c.schema(), t.schema()) || **t.schema() == **c.schema()
                });
                if !matches {
                    self.demote_to_rows();
                    self.push_inner(t);
                    return;
                }
                ring.invalidate();
                if let Some(chunk) = ring.chunk.as_mut() {
                    if chunk.last_ts().is_none_or(|last| last <= t.ts()) {
                        let _ = chunk.push_row(t.ts(), t.values());
                    } else {
                        let pos = chunk.ts().partition_point(|b| *b <= t.ts());
                        let _ = chunk.insert_row(pos, t.ts(), t.values());
                    }
                }
            }
        }
    }

    /// Insert a whole batch.
    pub fn push_batch(&mut self, batch: &[Tuple]) {
        for t in batch {
            self.push(t.clone());
        }
    }

    /// Insert a whole chunk, keeping timestamp order.
    ///
    /// An empty row-backed window switches to the columnar ring; a
    /// non-empty row-backed window materializes the chunk into rows. On a
    /// columnar ring with a matching schema, an in-order chunk (sorted,
    /// landing at or after the ring's tail — the common case, since the
    /// engine restamps ingest to the epoch) is appended column-by-column;
    /// out-of-order rows fall back to positioned inserts. A mismatched
    /// schema demotes the ring to rows.
    pub fn push_chunk(&mut self, chunk: &Chunk) {
        if chunk.is_empty() {
            return;
        }
        if let Store::Rows(buf) = &self.store {
            if buf.is_empty() {
                self.store = Store::Col(ColRing::default());
            }
        }
        match &mut self.store {
            Store::Rows(_) => {
                for t in chunk.to_tuples() {
                    self.push(t);
                }
            }
            Store::Col(ring) => {
                let matches = match ring.chunk.as_ref() {
                    Some(c) => {
                        Arc::ptr_eq(c.schema(), chunk.schema()) || *c.schema() == *chunk.schema()
                    }
                    None => true,
                };
                if !matches {
                    self.demote_to_rows();
                    for t in chunk.to_tuples() {
                        self.push(t);
                    }
                    return;
                }
                if esp_obs::enabled() {
                    window_obs().chunk_pushes.inc();
                }
                ring.invalidate();
                let ring_chunk = ring.chunk.get_or_insert_with(|| Chunk::new(chunk.schema()));
                self.hwm = self
                    .hwm
                    .max(chunk.ts().iter().copied().max().unwrap_or(Ts::ZERO));
                let sorted = chunk.ts().windows(2).all(|w| w[0] <= w[1]);
                let in_order = ring_chunk
                    .last_ts()
                    .is_none_or(|last| chunk.first_ts().is_some_and(|first| last <= first));
                if sorted && in_order {
                    // Bulk column-by-column append.
                    let _ = ring_chunk.extend_from_chunk(chunk);
                } else {
                    for i in 0..chunk.len() {
                        let ts = chunk.ts()[i];
                        let values = chunk.row_values(i).unwrap_or_default();
                        if ring_chunk.last_ts().is_none_or(|last| last <= ts) {
                            let _ = ring_chunk.push_row(ts, &values);
                        } else {
                            let pos = ring_chunk.ts().partition_point(|b| *b <= ts);
                            let _ = ring_chunk.insert_row(pos, ts, &values);
                        }
                    }
                }
            }
        }
    }

    /// Insert a whole chunk by value. When the buffer is empty and the
    /// chunk is already in timestamp order (the engine restamps ingest to
    /// one epoch, so it always is), the chunk becomes the columnar ring
    /// wholesale — no column copies at all. Anything else falls back to
    /// [`WindowBuffer::push_chunk`].
    pub fn push_chunk_owned(&mut self, chunk: Chunk) {
        if chunk.is_empty() {
            return;
        }
        let empty = match &self.store {
            Store::Rows(buf) => buf.is_empty(),
            Store::Col(ring) => ring.chunk.as_ref().is_none_or(Chunk::is_empty),
        };
        let sorted = chunk.ts().windows(2).all(|w| w[0] <= w[1]);
        if empty && sorted {
            if esp_obs::enabled() {
                window_obs().chunk_pushes.inc();
            }
            self.hwm = self.hwm.max(chunk.last_ts().unwrap_or(Ts::ZERO));
            self.store = Store::Col(ColRing {
                chunk: Some(chunk),
                cache: OnceLock::new(),
            });
            return;
        }
        self.push_chunk(&chunk);
    }

    /// Rewrite the columnar ring as a row ring (schema heterogeneity).
    fn demote_to_rows(&mut self) {
        if let Store::Col(ring) = &self.store {
            let rows: VecDeque<Tuple> = ring
                .chunk
                .as_ref()
                .map(Chunk::to_tuples)
                .unwrap_or_default()
                .into();
            self.store = Store::Rows(rows);
        }
    }

    /// Slide the window forward to logical time `now`, evicting tuples that
    /// fall out of `[now - width, now]`.
    pub fn advance_to(&mut self, now: Ts) {
        self.now = now;
        self.evict(now.window_start(self.width));
    }

    fn evict(&mut self, cutoff: Ts) {
        match &mut self.store {
            Store::Rows(buf) => {
                while let Some(front) = buf.front() {
                    if front.ts() < cutoff {
                        buf.pop_front();
                    } else {
                        break;
                    }
                }
            }
            Store::Col(ring) => {
                if let Some(chunk) = ring.chunk.as_mut() {
                    // Eviction by ts-range: the ts column is sorted, so the
                    // evicted prefix is one binary search + bulk drain.
                    let n = chunk.ts().partition_point(|t| *t < cutoff);
                    if n > 0 {
                        chunk.drain_front(n);
                        ring.invalidate();
                    }
                }
            }
        }
    }

    /// The tuples currently in the window, oldest first. On a columnar
    /// window this serves from (and populates) the materialized row cache.
    pub fn contents(&self) -> impl Iterator<Item = &Tuple> {
        let (head, tail) = self.as_slices();
        head.iter().chain(tail.iter())
    }

    /// The tuples currently in the window as a slice pair (no allocation
    /// for row-backed windows; columnar windows serve the cached
    /// materialization).
    pub fn as_slices(&self) -> (&[Tuple], &[Tuple]) {
        match &self.store {
            Store::Rows(buf) => buf.as_slices(),
            Store::Col(ring) => (ring.rows(), &[]),
        }
    }

    /// A borrowed, allocation-free view of the window contents (oldest
    /// first). This is the hot-path alternative to [`WindowBuffer::to_vec`]:
    /// windowed operators evaluate straight over the ring-buffer slices
    /// instead of cloning every tuple per tick.
    pub fn view(&self) -> WindowView<'_> {
        let (head, tail) = self.as_slices();
        WindowView { head, tail }
    }

    /// A borrowed columnar view of the window contents, when this window
    /// is backed by the columnar ring. The query engine's chunk path reads
    /// this instead of [`WindowBuffer::view`], so no row cache is ever
    /// materialized on the hot path.
    pub fn chunk_view(&self) -> Option<ChunkView<'_>> {
        match &self.store {
            Store::Col(ring) => ring.chunk.as_ref().map(Chunk::view),
            Store::Rows(_) => None,
        }
    }

    /// The schema of the window's contents, sampled cheaply: the columnar
    /// ring's schema, or the oldest row's. `None` when empty. Plan
    /// resolution uses this instead of `view().first()` so sampling never
    /// materializes a columnar window.
    pub fn sample_schema(&self) -> Option<&Arc<Schema>> {
        match &self.store {
            Store::Rows(buf) => buf.front().map(Tuple::schema),
            Store::Col(ring) => ring
                .chunk
                .as_ref()
                .filter(|c| !c.is_empty())
                .map(Chunk::schema),
        }
    }

    /// Collect the window contents into a vector.
    pub fn to_vec(&self) -> Vec<Tuple> {
        match &self.store {
            Store::Rows(buf) => buf.iter().cloned().collect(),
            Store::Col(ring) => ring
                .chunk
                .as_ref()
                .map(Chunk::to_tuples)
                .unwrap_or_default(),
        }
    }

    /// Number of tuples in the window.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Rows(buf) => buf.len(),
            Store::Col(ring) => ring.chunk.as_ref().map_or(0, Chunk::len),
        }
    }

    /// True when the window holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamp of the oldest retained tuple.
    pub fn oldest(&self) -> Option<Ts> {
        match &self.store {
            Store::Rows(buf) => buf.front().map(Tuple::ts),
            Store::Col(ring) => ring.chunk.as_ref().and_then(Chunk::first_ts),
        }
    }

    /// Timestamp of the newest retained tuple.
    pub fn newest(&self) -> Option<Ts> {
        match &self.store {
            Store::Rows(buf) => buf.back().map(Tuple::ts),
            Store::Col(ring) => ring.chunk.as_ref().and_then(Chunk::last_ts),
        }
    }

    /// Drop all tuples (the columnar ring keeps its schema binding).
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Rows(buf) => buf.clear(),
            Store::Col(ring) => {
                ring.invalidate();
                if let Some(chunk) = ring.chunk.as_mut() {
                    chunk.clear();
                }
            }
        }
    }

    /// Append this buffer's full durable state — width (for configuration
    /// validation), high-water mark, last advanced-to time, and contents —
    /// in [`esp_types::snap`] form. The inverse of
    /// [`WindowBuffer::restore_from`]. The encoding is backing-independent
    /// (always a row batch), so it is byte-compatible with pre-columnar
    /// snapshots.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_u64(out, self.width.as_millis());
        snap::put_u64(out, self.hwm.as_millis());
        snap::put_u64(out, self.now.as_millis());
        let tuples = self.to_vec();
        snap::encode_batch(out, &tuples);
    }

    /// Restore state captured by [`WindowBuffer::encode_into`] into this
    /// buffer. The encoded width must match the configured width — a
    /// mismatch means the snapshot came from a different pipeline
    /// configuration and is rejected rather than silently re-windowed.
    ///
    /// Restores into the row backing regardless of the backing the state
    /// was captured from; a subsequent chunk-fed ingest re-engages the
    /// columnar ring once the window drains.
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
        self.store = Store::Rows(snap::decode_batch(cur)?.into());
        Ok(())
    }
}

impl Checkpointable for WindowBuffer {
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

/// A borrowed view of a [`WindowBuffer`]'s contents.
///
/// The deque's storage is a ring buffer, so the contents are at most two
/// contiguous runs; the view exposes them without copying. `Copy` so it can
/// be passed around freely during one evaluation tick.
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    head: &'a [Tuple],
    tail: &'a [Tuple],
}

impl<'a> WindowView<'a> {
    /// A view over a plain slice (for operators whose input is already
    /// contiguous, e.g. a relation batch).
    pub fn of_slice(rows: &'a [Tuple]) -> WindowView<'a> {
        WindowView {
            head: rows,
            tail: &[],
        }
    }

    /// Number of tuples in the view.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// True when the view holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// The `i`-th tuple, oldest first.
    pub fn get(&self, i: usize) -> Option<&'a Tuple> {
        if i < self.head.len() {
            self.head.get(i)
        } else {
            self.tail.get(i - self.head.len())
        }
    }

    /// The oldest tuple.
    pub fn first(&self) -> Option<&'a Tuple> {
        self.head.first().or_else(|| self.tail.first())
    }

    /// Iterate oldest first. The items borrow from the underlying buffer,
    /// not from the view, so they outlive the view itself.
    pub fn iter(&self) -> impl Iterator<Item = &'a Tuple> + '_ {
        self.head.iter().chain(self.tail.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{DataType, Schema, Value};

    fn tup(ts_ms: u64, v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, Ts::from_millis(ts_ms), vec![Value::Int(v)]).unwrap()
    }

    fn values(w: &WindowBuffer) -> Vec<i64> {
        w.contents().map(|t| t.value(0).as_i64().unwrap()).collect()
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
    fn view_matches_contents_without_allocation() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        for s in 0..4u64 {
            w.push(tup(s * 1_000, s as i64));
        }
        let v = w.view();
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.first().map(Tuple::ts), Some(Ts::ZERO));
        assert_eq!(v.get(3).map(Tuple::ts), Some(Ts::from_secs(3)));
        assert_eq!(v.get(4), None);
        let from_view: Vec<_> = v.iter().map(Tuple::ts).collect();
        let from_contents: Vec<_> = w.contents().map(Tuple::ts).collect();
        assert_eq!(from_view, from_contents);
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

    #[test]
    fn push_batch_and_clear() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        w.push_batch(&[tup(0, 0), tup(100, 1)]);
        assert_eq!(w.len(), 2);
        w.clear();
        assert!(w.is_empty());
    }

    fn int_schema() -> std::sync::Arc<Schema> {
        Schema::builder().field("v", DataType::Int).build().unwrap()
    }

    fn chunk_of(rows: &[(u64, i64)]) -> esp_types::Chunk {
        let schema = int_schema();
        let mut c = esp_types::Chunk::new(&schema);
        for (ms, v) in rows {
            c.push_row(Ts::from_millis(*ms), &[Value::Int(*v)]).unwrap();
        }
        c
    }

    #[test]
    fn chunk_fed_window_is_columnar_and_row_apis_still_work() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        w.push_chunk(&chunk_of(&[(0, 0), (1_000, 1), (2_000, 2)]));
        assert!(w.chunk_view().is_some());
        assert_eq!(w.len(), 3);
        assert_eq!(values(&w), vec![0, 1, 2]);
        assert_eq!(w.view().len(), 3);
        assert_eq!(w.oldest(), Some(Ts::ZERO));
        assert_eq!(w.newest(), Some(Ts::from_secs(2)));
        assert_eq!(w.sample_schema().map(|s| s.len()), Some(1));
    }

    #[test]
    fn columnar_eviction_by_ts_range() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(5));
        w.push_chunk(&chunk_of(&[(0, 0), (1_000, 1), (5_000, 5), (10_000, 10)]));
        w.advance_to(Ts::from_secs(10));
        assert!(w.chunk_view().is_some());
        assert_eq!(values(&w), vec![5, 10]);
    }

    #[test]
    fn row_push_into_columnar_window_stays_columnar() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(30));
        w.push_chunk(&chunk_of(&[(0, 0), (2_000, 2)]));
        // Structurally equal schema, out of order: positioned insert.
        w.push(tup(1_000, 1));
        assert!(w.chunk_view().is_some());
        assert_eq!(values(&w), vec![0, 1, 2]);
    }

    #[test]
    fn mismatched_schema_demotes_to_rows() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(30));
        w.push_chunk(&chunk_of(&[(0, 0), (1_000, 1)]));
        let other = Schema::builder()
            .field("x", DataType::Float)
            .build()
            .unwrap();
        let t = Tuple::new(other, Ts::from_secs(2), vec![Value::Float(2.5)]).unwrap();
        w.push(t);
        assert!(w.chunk_view().is_none());
        assert_eq!(w.len(), 3);
        let ts: Vec<_> = w.contents().map(|t| t.ts().as_millis()).collect();
        assert_eq!(ts, vec![0, 1_000, 2_000]);
    }

    #[test]
    fn chunk_into_nonempty_row_window_materializes() {
        let mut w = WindowBuffer::new(TimeDelta::from_secs(30));
        w.push(tup(0, 0));
        w.push_chunk(&chunk_of(&[(1_000, 1)]));
        assert!(w.chunk_view().is_none());
        assert_eq!(values(&w), vec![0, 1]);
    }

    #[test]
    fn columnar_state_restores_into_row_backing_byte_compatibly() {
        let mut col = WindowBuffer::new(TimeDelta::from_secs(5));
        col.push_chunk(&chunk_of(&[(0, 0), (1_000, 1), (2_000, 2)]));
        col.advance_to(Ts::from_secs(2));
        // Row-backed twin fed the same data through the old path, using one
        // shared schema Arc so the snap schema tables coincide.
        let mut row = WindowBuffer::new(TimeDelta::from_secs(5));
        for t in col.to_vec() {
            row.push(t);
        }
        row.advance_to(Ts::from_secs(2));
        let cs = col.state().unwrap().unwrap();
        let rs = row.state().unwrap().unwrap();
        assert_eq!(
            cs.bytes(),
            rs.bytes(),
            "encoding must be backing-independent"
        );
        // Restore the columnar state into a fresh buffer: contents identical.
        let mut r = WindowBuffer::new(TimeDelta::from_secs(5));
        r.restore(&cs).unwrap();
        assert!(r.chunk_view().is_none());
        assert_eq!(values(&r), values(&col));
        assert_eq!(r.newest(), col.newest());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

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
                    for t in w.contents() {
                        prop_assert!(t.ts() >= cutoff && t.ts() <= now);
                    }
                    let ts: Vec<_> = w.contents().map(Tuple::ts).collect();
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
                for t in w.contents() {
                    prop_assert!(
                        t.ts() >= cutoff && t.ts() <= now,
                        "stale tuple at {:?} outside [{:?}, {:?}]",
                        t.ts(), cutoff, now
                    );
                }
                // And it keeps holding after a subsequent advance.
                w.advance_to(now);
                for t in w.contents() {
                    prop_assert!(t.ts() >= cutoff && t.ts() <= now);
                }
            }

            /// Columnar-fed and row-fed windows are observationally
            /// equivalent under a random interleaving of chunk pushes, row
            /// pushes, advances, and width changes.
            #[test]
            fn columnar_matches_row_backing(
                width_ms in 0u64..20_000,
                ops in proptest::collection::vec(
                    (0u8..4, proptest::collection::vec((0u64..100u64, 0i64..100), 0..8)),
                    1..40,
                ),
            ) {
                let mut col = WindowBuffer::new(TimeDelta::from_millis(width_ms));
                let mut row = WindowBuffer::new(TimeDelta::from_millis(width_ms));
                let mut now = Ts::ZERO;
                for (kind, payload) in &ops {
                    match kind {
                        // Push a chunk of this epoch's rows (columnar side)
                        // vs. the same rows one-by-one (row side).
                        0 => {
                            let rows: Vec<(u64, i64)> = payload
                                .iter()
                                .map(|(e, v)| (now.as_millis() + e % 7, *v))
                                .collect();
                            col.push_chunk(&chunk_of(&rows));
                            for (ms, v) in &rows {
                                row.push(tup(*ms, *v));
                            }
                        }
                        // Push single rows on both sides.
                        1 => {
                            for (e, v) in payload {
                                let ms = now.as_millis() + e % 7;
                                col.push(tup(ms, *v));
                                row.push(tup(ms, *v));
                            }
                        }
                        // Advance both (monotone).
                        2 => {
                            now +=
                                TimeDelta::from_millis(payload.first().map_or(100, |(e, _)| e * 10));
                            col.advance_to(now);
                            row.advance_to(now);
                        }
                        // Change width on both.
                        _ => {
                            let w = TimeDelta::from_millis(
                                payload.first().map_or(1_000, |(e, _)| e * 200),
                            );
                            col.set_width(w);
                            row.set_width(w);
                        }
                    }
                    prop_assert_eq!(col.len(), row.len());
                    prop_assert_eq!(col.oldest(), row.oldest());
                    prop_assert_eq!(col.newest(), row.newest());
                    let a: Vec<(u64, i64)> = col
                        .contents()
                        .map(|t| (t.ts().as_millis(), t.value(0).as_i64().unwrap()))
                        .collect();
                    let b: Vec<(u64, i64)> = row
                        .contents()
                        .map(|t| (t.ts().as_millis(), t.value(0).as_i64().unwrap()))
                        .collect();
                    prop_assert_eq!(a, b);
                }
                // Checkpoints taken from either backing restore into
                // identical windows (migration across the re-backing).
                let cs = col.state().unwrap().unwrap();
                let rs = row.state().unwrap().unwrap();
                let mut from_col = WindowBuffer::new(col.width());
                from_col.restore(&cs).unwrap();
                let mut from_row = WindowBuffer::new(row.width());
                from_row.restore(&rs).unwrap();
                prop_assert_eq!(values(&from_col), values(&from_row));
                prop_assert_eq!(from_col.oldest(), from_row.oldest());
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
                let got: Vec<_> = a.contents().map(|t| t.ts().as_millis()).collect();
                prop_assert_eq!(got, times);
            }
        }
    }
}
