//! The push-based operator protocol.
//!
//! One method per protocol step, all typed on [`Payload`]:
//!
//! | step | method |
//! |---|---|
//! | a source produces the epoch's readings | [`Source::poll`]`(epoch) -> Payload` |
//! | an operator receives input on a port | [`Operator::push`]`(port, Payload)` |
//! | punctuation: the operator emits the epoch | [`Operator::flush`]`(epoch) -> Payload` |
//!
//! [`EpochRunner`](crate::EpochRunner) moves payloads between nodes
//! exactly as produced: an operator owns what it is pushed, and the runner
//! copies a node's output only when more than one reader needs it. A
//! payload is always columnar: rows enter through [`Payload::from`] and
//! leave through [`Payload::into_rows`], at the boundary
//! of code written against rows (UDFs, arbitrary-code stages, simulator
//! sources), never inside the transport.

use esp_types::{chunk_batch, Batch, Chunk, Result, Ts};

use crate::state::{unexpected_state, StageState};

/// One epoch's data in transit between dataflow nodes: schema-uniform
/// columnar chunks, in stream order.
///
/// `Payload` is the only currency of the operator protocol: sources emit
/// it, operators consume and emit it, runners move it. Row-shaped code
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

/// A push-based stream operator.
///
/// During an epoch the scheduler delivers zero or more payloads to each
/// input port via [`Operator::push`]; when every input for the epoch has
/// been delivered it calls [`Operator::flush`] (the punctuation), at which
/// point the operator emits its output for the epoch. Stateless operators
/// can transform inside `push` and drain in `flush`; windowed operators
/// buffer in `push` and compute over the window in `flush`.
pub trait Operator: Send {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "operator"
    }

    /// Number of input ports this operator expects. The dataflow builder
    /// validates the wiring against this.
    fn n_inputs(&self) -> usize {
        1
    }

    /// Deliver one payload on input port `port` (0-based). The operator
    /// owns `input`: it keeps, transforms or drops the chunks without
    /// copying them.
    fn push(&mut self, port: usize, input: Payload) -> Result<()>;

    /// Epoch boundary: all input for `epoch` has been delivered. Emit the
    /// operator's output for this epoch.
    fn flush(&mut self, epoch: Ts) -> Result<Payload>;

    /// Capture cross-epoch state for a durability checkpoint. Called only
    /// at epoch boundaries (after `flush`, before the next `push`). The
    /// default declares the operator stateless: nothing survives across
    /// epochs, so recovery rebuilds it from configuration alone. Windowed
    /// or aggregating operators must override both this and
    /// [`Operator::restore`].
    fn state(&self) -> Result<Option<StageState>> {
        Ok(None)
    }

    /// Restore state captured by [`Operator::state`] into this freshly
    /// built, identically configured operator. The default (stateless)
    /// implementation rejects any blob: receiving one means the snapshot
    /// was taken under a different pipeline configuration.
    fn restore(&mut self, _state: &StageState) -> Result<()> {
        Err(unexpected_state(self.name()))
    }

    /// Whether this operator can participate in a checkpoint at all.
    /// [`Operator::state`] answers "what is the state right now"; this
    /// answers the static question "does a serialized form exist".
    /// Operators whose cross-epoch state has no serialized form (e.g.
    /// stages wrapping compiled queries) return `false`, so a durable
    /// deployment is rejected before any tuple flows (`E0804`) instead of
    /// failing at its first checkpoint.
    fn checkpointable(&self) -> bool {
        true
    }

    /// Whether replaying this operator over identical input epochs
    /// reproduces identical output — the replay half of the durability
    /// contract, answered statically just like
    /// [`Operator::checkpointable`]. Operators that read the wall clock,
    /// iterate hash maps in observable order, or wrap opaque user code
    /// must override this; a durable gateway rejects any tainted stage
    /// at spawn time (`E0903`) instead of recovering to different bytes.
    fn determinism(&self) -> esp_types::Determinism {
        esp_types::Determinism::Deterministic
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
