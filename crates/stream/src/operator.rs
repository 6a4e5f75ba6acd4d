//! The push-based stage protocol.
//!
//! One method per protocol step, both typed on [`Payload`]:
//!
//! | step | method |
//! |---|---|
//! | a source produces the epoch's readings | [`Source::poll`]`(epoch) -> Payload` |
//! | a stage consumes the epoch's input and emits its output | [`Stage::process`]`(epoch, Payload) -> Payload` |
//!
//! [`EpochRunner`](crate::EpochRunner) moves payloads between nodes
//! exactly as produced: a stage owns the input it is handed, and the runner
//! copies a node's output only when more than one reader needs it. A
//! payload is always columnar: rows enter through [`Payload::from`] and
//! leave through [`Payload::into_rows`], at the boundary
//! of code written against rows (UDFs, arbitrary-code stages, simulator
//! sources), never inside the transport.

use esp_types::{chunk_batch, Batch, Chunk, Determinism, FieldEffects, Result, Ts};

use crate::state::{unexpected_state, StageState};

/// One epoch's data in transit between dataflow nodes: schema-uniform
/// columnar chunks, in stream order.
///
/// `Payload` is the only currency of the stage protocol: sources emit
/// it, stages consume and emit it, runners move it. Row-shaped code
/// builds one with `Payload::from(rows)` ([`chunk_batch`], lossless) and
/// reads one with [`Payload::into_rows`]; everything else reads
/// [`Payload::chunks`] or takes [`Payload::into_chunks`].
#[derive(Debug, Clone, Default)]
pub struct Payload(Vec<Chunk>);

impl Payload {
    /// An empty payload.
    pub fn empty() -> Payload {
        Payload::default()
    }

    /// Number of tuples carried.
    pub fn len(&self) -> usize {
        self.0.iter().map(Chunk::len).sum()
    }

    /// True when no tuples are carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunks, in stream order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.0
    }

    /// Take the chunks, in stream order.
    pub fn into_chunks(self) -> Vec<Chunk> {
        self.0
    }

    /// Move `other`'s non-empty chunks after this payload's: an epoch's
    /// arrivals concatenated in arrival order, no column copied.
    pub fn append(&mut self, other: Payload) {
        if self.0.is_empty() {
            self.0 = other.0;
            self.0.retain(|c| !c.is_empty());
        } else {
            self.0.extend(other.0.into_iter().filter(|c| !c.is_empty()));
        }
    }

    /// Materialize as rows, preserving stream order (lossless).
    pub fn rows(&self) -> Batch {
        self.0.iter().flat_map(Chunk::to_tuples).collect()
    }

    /// [`Payload::rows`], consuming the payload: values move out of the
    /// columns instead of being cloned.
    pub fn into_rows(self) -> Batch {
        self.0.into_iter().flat_map(Chunk::into_tuples).collect()
    }
}

impl From<Batch> for Payload {
    fn from(rows: Batch) -> Payload {
        Payload(chunk_batch(&rows))
    }
}

impl From<Vec<Chunk>> for Payload {
    fn from(chunks: Vec<Chunk>) -> Payload {
        Payload(chunks)
    }
}

/// A stream source: the boundary between the physical world (or a
/// simulator) and the dataflow.
///
/// The scheduler polls every source once per epoch; a source returns the
/// payload it produced during that epoch (possibly empty — dropped
/// readings are exactly the empty polls). Simulators build rows and hand
/// them over as `Payload::from(rows)`; chunk-building sources (the
/// gateway's ingest queues) emit columnar chunks without ever
/// materializing per-reading tuples.
pub trait Source: Send {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "source"
    }

    /// Produce this epoch's readings. Tuples should be stamped with
    /// timestamps `<= epoch`.
    fn poll(&mut self, epoch: Ts) -> Result<Payload>;
}

/// One node of the dataflow: a cleaning stage, or a building block such
/// as [`UnionOp`](crate::ops::UnionOp).
///
/// Paper §3.3 lets a stage be written as a declarative query, a
/// user-defined function or arbitrary code; all three implement this one
/// trait and run the same way. Each epoch the runner hands a stage one
/// [`Payload`] — every upstream output, in wiring order, empty chunks
/// dropped — and calls [`Stage::process`] exactly once, even when the
/// payload is empty. Windowing (temporal or spatial aggregation) is
/// internal stage state.
pub trait Stage: Send {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;

    /// Process one epoch: consume the epoch's input and emit its output.
    /// The stage owns `input`: it keeps, transforms or drops the chunks
    /// without copying them.
    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload>;

    /// Capture cross-epoch state for a durability checkpoint. Called only
    /// at epoch boundaries (between two `process` calls). The default
    /// declares the stage stateless: nothing survives across epochs, so
    /// recovery rebuilds it from configuration alone. A stage holding a
    /// window buffer or running aggregate must override both this and
    /// [`Stage::restore`], or recovery silently resets it.
    fn state(&self) -> Result<Option<StageState>> {
        Ok(None)
    }

    /// Restore state captured by [`Stage::state`] into this freshly
    /// built, identically configured stage. The default (stateless)
    /// implementation rejects any blob: receiving one means the snapshot
    /// was taken under a different pipeline configuration.
    fn restore(&mut self, _state: &StageState) -> Result<()> {
        Err(unexpected_state(self.name()))
    }

    /// Whether replaying this stage over identical input epochs
    /// reproduces identical output — the replay half of the durability
    /// contract, answered statically.
    /// Stages that read the wall clock, iterate hash maps in observable
    /// order, or wrap opaque user code must override this; a durable
    /// gateway rejects any tainted stage at spawn time (`E0903`) instead
    /// of recovering to different bytes.
    fn determinism(&self) -> Determinism {
        Determinism::Deterministic
    }

    /// Static field-effect summary for the whole-pipeline dataflow
    /// analyses (`esp-lint` E0901/E0902): which input columns the stage
    /// reads, which output columns it writes (`None` = passthrough), and
    /// whether it counts rows. The default is fully opaque — reads and
    /// writes everything — which is always sound and merely disables
    /// liveness-based findings for this stage.
    fn field_effects(&self) -> FieldEffects {
        FieldEffects::opaque()
    }
}

/// Blanket helper: a source backed by a pre-recorded script of batches.
/// Used pervasively in tests and by trace replay.
pub struct ScriptedSource {
    name: String,
    batches: std::collections::VecDeque<(Ts, Batch)>,
}

impl ScriptedSource {
    /// Create a source that emits `batches[i].1` at the first epoch
    /// `>= batches[i].0`. Batches must be in timestamp order.
    pub fn new(name: impl Into<String>, batches: Vec<(Ts, Batch)>) -> ScriptedSource {
        debug_assert!(batches.windows(2).all(|w| w[0].0 <= w[1].0));
        ScriptedSource {
            name: name.into(),
            batches: batches.into(),
        }
    }
}

impl Source for ScriptedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Payload> {
        let mut out = Batch::new();
        while self.batches.front().is_some_and(|(ts, _)| *ts <= epoch) {
            if let Some((_, batch)) = self.batches.pop_front() {
                out.extend(batch);
            }
        }
        Ok(Payload::from(out))
    }
}

/// A source backed by a pre-recorded script of columnar chunks — the
/// chunk-emitting twin of [`ScriptedSource`].
pub struct ScriptedChunkSource {
    name: String,
    batches: std::collections::VecDeque<(Ts, Chunk)>,
}

impl ScriptedChunkSource {
    /// Create a source that emits `batches[i].1` at the first epoch
    /// `>= batches[i].0`. Batches must be in timestamp order.
    pub fn new(name: impl Into<String>, batches: Vec<(Ts, Chunk)>) -> ScriptedChunkSource {
        debug_assert!(batches.windows(2).all(|w| w[0].0 <= w[1].0));
        ScriptedChunkSource {
            name: name.into(),
            batches: batches.into(),
        }
    }
}

impl Source for ScriptedChunkSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Payload> {
        let mut out = Vec::new();
        while self.batches.front().is_some_and(|(ts, _)| *ts <= epoch) {
            if let Some((_, chunk)) = self.batches.pop_front() {
                out.push(chunk);
            }
        }
        Ok(Payload::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{DataType, Schema, Tuple, Value};

    fn tup(ts: Ts, v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, ts, vec![Value::Int(v)]).unwrap()
    }

    #[test]
    fn scripted_source_releases_by_epoch() {
        let mut s = ScriptedSource::new(
            "s",
            vec![
                (Ts::from_secs(1), vec![tup(Ts::from_secs(1), 1)]),
                (Ts::from_secs(2), vec![tup(Ts::from_secs(2), 2)]),
                (Ts::from_secs(2), vec![tup(Ts::from_secs(2), 3)]),
                (Ts::from_secs(5), vec![tup(Ts::from_secs(5), 4)]),
            ],
        );
        assert!(s.poll(Ts::ZERO).unwrap().is_empty());
        assert_eq!(s.poll(Ts::from_secs(1)).unwrap().len(), 1);
        // Two batches stamped at 2s arrive together.
        assert_eq!(s.poll(Ts::from_secs(3)).unwrap().len(), 2);
        assert_eq!(s.poll(Ts::from_secs(9)).unwrap().len(), 1);
        assert!(s.poll(Ts::from_secs(10)).unwrap().is_empty());
        assert_eq!(s.name(), "s");
    }
}
