//! The [`Stage`] trait and its three implementation styles.
//!
//! Paper §3.3: "Stages may be implemented in a variety of ways: declarative
//! continuous queries; user-defined functions or aggregates; arbitrary
//! code." [`DeclarativeStage`] covers the first, [`FnStage`] the second,
//! and any hand-written `impl Stage` the third.
//!
//! However a stage is written, it speaks one protocol: an epoch's input
//! arrives as one columnar [`Payload`] and the epoch's output leaves as
//! one. A row-at-a-time stage starts with `input.into_rows()` (lossless)
//! and returns `Payload::from(rows)`; a chunk-native stage
//! ([`DeclarativeStage`]) reads the chunks directly.

use esp_query::ContinuousQuery;
use esp_stream::{unexpected_state, Operator, Payload, StageState};
use esp_types::{Batch, Determinism, EspError, FieldEffects, Result, Ts, Tuple};

/// One processing stage of an ESP pipeline.
///
/// A stage receives the epoch's input and emits the epoch's output;
/// windowing (temporal or spatial aggregation) is internal stage state.
pub trait Stage: Send {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;

    /// Process one epoch.
    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload>;

    /// Capture cross-epoch state for a durability checkpoint (called at
    /// epoch boundaries only). The default declares the stage stateless —
    /// correct for per-tuple filters, wrong for anything windowed: a
    /// stage holding a window buffer or running aggregate must override
    /// this and [`Stage::restore`], or recovery silently resets it.
    /// Built-in stages ([`SmoothStage`](crate::SmoothStage),
    /// [`MergeStage`](crate::MergeStage), …) all do.
    fn state(&self) -> Result<Option<StageState>> {
        Ok(None)
    }

    /// Restore state captured by [`Stage::state`] into this freshly
    /// built, identically configured stage.
    fn restore(&mut self, _state: &StageState) -> Result<()> {
        Err(unexpected_state(self.name()))
    }

    /// Whether this stage can be checkpointed at all — the static
    /// question, as opposed to [`Stage::state`]'s "capture it now". A
    /// stage whose cross-epoch state has no serialized form (e.g.
    /// [`DeclarativeStage`]) returns `false`, and a durable gateway
    /// rejects the pipeline up front (`E0804`) rather than running until
    /// its first checkpoint and dying there.
    fn checkpointable(&self) -> bool {
        true
    }

    /// Whether replaying this stage over identical input epochs reproduces
    /// identical output — the replay half of the durability contract,
    /// companion to [`Stage::checkpointable`]. Stages that read the wall
    /// clock or otherwise depend on anything besides their input must
    /// report taint; a durable gateway rejects tainted stages at spawn
    /// time (`E0903`) instead of recovering to different bytes.
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

/// A stage defined by a declarative continuous query.
///
/// The query must read exactly one stream; the stage's input is pushed to
/// it and the query is ticked at each epoch.
pub struct DeclarativeStage {
    name: String,
    stream: String,
    query: ContinuousQuery,
}

impl DeclarativeStage {
    /// Wrap a compiled single-stream query as a stage.
    pub fn new(name: impl Into<String>, query: ContinuousQuery) -> Result<DeclarativeStage> {
        let streams = query.input_streams();
        let [stream] = streams else {
            return Err(esp_types::EspError::Config(format!(
                "a declarative stage needs a single-input query; '{}' reads {} streams",
                query.text(),
                streams.len()
            )));
        };
        let stream = stream.clone();
        Ok(DeclarativeStage {
            name: name.into(),
            stream,
            query,
        })
    }
}

impl Stage for DeclarativeStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
        for chunk in input.into_chunks() {
            self.query.push_chunk(&self.stream, chunk)?;
        }
        Ok(Payload::from(vec![self.query.tick_chunk(epoch)?]))
    }

    fn state(&self) -> Result<Option<StageState>> {
        // The compiled query's window state lives inside the engine and
        // has no serial form yet. Failing the checkpoint is honest;
        // pretending the stage is stateless would make recovery silently
        // wrong. Deployments that need durability use the built-in
        // stages, whose state round-trips exactly. `checkpointable()`
        // below reports this statically, so a durable gateway never gets
        // here (E0804 rejects it at spawn); this error is the backstop
        // for anyone driving checkpoints by hand.
        Err(EspError::Snapshot(format!(
            "declarative stage '{}' cannot be checkpointed: compiled-query window state \
             has no serialized form",
            self.name
        )))
    }

    fn checkpointable(&self) -> bool {
        false
    }

    fn determinism(&self) -> Determinism {
        self.query.determinism()
    }

    fn field_effects(&self) -> FieldEffects {
        self.query.field_effects()
    }
}

/// A boxed per-tuple transform: maps a tuple to a replacement (`None`
/// drops it). Shared by [`FnStage::per_tuple`] and `PointOp::Map`.
pub type TupleMapFn = Box<dyn FnMut(&Tuple) -> Result<Option<Tuple>> + Send>;

/// A stage defined by user code: either a per-tuple function or a
/// per-epoch function.
pub struct FnStage {
    name: String,
    kind: FnKind,
    determinism: Determinism,
}

enum FnKind {
    PerTuple(TupleMapFn),
    PerEpoch(Box<dyn FnMut(Ts, Vec<Tuple>) -> Result<Batch> + Send>),
}

impl FnStage {
    /// A stage that maps each tuple independently (`None` drops it).
    pub fn per_tuple(
        name: impl Into<String>,
        f: impl FnMut(&Tuple) -> Result<Option<Tuple>> + Send + 'static,
    ) -> FnStage {
        FnStage {
            name: name.into(),
            kind: FnKind::PerTuple(Box::new(f)),
            determinism: Determinism::Deterministic,
        }
    }

    /// A stage that sees the whole epoch at once.
    pub fn per_epoch(
        name: impl Into<String>,
        f: impl FnMut(Ts, Vec<Tuple>) -> Result<Batch> + Send + 'static,
    ) -> FnStage {
        FnStage {
            name: name.into(),
            kind: FnKind::PerEpoch(Box::new(f)),
            determinism: Determinism::Deterministic,
        }
    }

    /// Declare that the wrapped function is **not** a pure function of its
    /// input (it reads the wall clock, draws randomness, consults external
    /// state, …). A durable gateway then rejects the pipeline at spawn
    /// time (`E0903`) rather than recovering to different bytes. User code
    /// is opaque, so honesty here is the contract: the default assumes
    /// determinism.
    pub fn nondeterministic(mut self, reason: impl Into<String>) -> FnStage {
        self.determinism = Determinism::nondeterministic(reason);
        self
    }
}

impl Stage for FnStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
        let input = input.into_rows();
        match &mut self.kind {
            FnKind::PerTuple(f) => {
                let mut out = Batch::with_capacity(input.len());
                for t in &input {
                    if let Some(mapped) = f(t)? {
                        out.push(mapped);
                    }
                }
                Ok(Payload::from(out))
            }
            FnKind::PerEpoch(f) => f(epoch, input).map(Payload::from),
        }
    }

    fn determinism(&self) -> Determinism {
        self.determinism.clone()
    }
}

/// Adapter running any [`Stage`] as an [`esp_stream::Operator`] so the ESP
/// processor can place it in a dataflow. The stage sees the epoch's
/// arrivals as one payload, chunks in arrival order.
pub struct StageOperator {
    stage: Box<dyn Stage>,
    buf: Payload,
}

impl StageOperator {
    /// Wrap a stage.
    pub fn new(stage: Box<dyn Stage>) -> StageOperator {
        StageOperator {
            stage,
            buf: Payload::empty(),
        }
    }
}

impl Operator for StageOperator {
    fn name(&self) -> &str {
        self.stage.name()
    }

    fn push(&mut self, _port: usize, input: Payload) -> Result<()> {
        self.buf.append(input);
        Ok(())
    }

    fn flush(&mut self, epoch: Ts) -> Result<Payload> {
        self.stage.process(epoch, std::mem::take(&mut self.buf))
    }

    fn state(&self) -> Result<Option<StageState>> {
        // `buf` only holds tuples mid-epoch; checkpoints happen at epoch
        // boundaries where the last flush drained it. Guard anyway: a
        // non-empty buffer here means the protocol was violated, and a
        // snapshot that ignored it would lose data on recovery.
        if !self.buf.is_empty() {
            return Err(EspError::Snapshot(format!(
                "stage '{}' checkpointed mid-epoch: {} undelivered tuple(s) in its input buffer",
                self.stage.name(),
                self.buf.len()
            )));
        }
        self.stage.state()
    }

    fn restore(&mut self, state: &StageState) -> Result<()> {
        self.stage.restore(state)
    }

    fn checkpointable(&self) -> bool {
        self.stage.checkpointable()
    }

    fn determinism(&self) -> Determinism {
        self.stage.determinism()
    }
}

/// Test convenience: drive any stage with rows and read rows back.
#[cfg(test)]
pub(crate) trait ProcessRows {
    fn process_rows(&mut self, epoch: Ts, rows: Vec<Tuple>) -> Result<Batch>;
}

#[cfg(test)]
impl<S: Stage + ?Sized> ProcessRows for S {
    fn process_rows(&mut self, epoch: Ts, rows: Vec<Tuple>) -> Result<Batch> {
        self.process(epoch, Payload::from(rows))
            .map(Payload::into_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_query::Engine;
    use esp_types::{well_known, Chunk, TupleBuilder, Value};

    fn rfid(ts: Ts, tag: &str) -> Tuple {
        TupleBuilder::new(&well_known::rfid_schema(), ts)
            .set("receptor_id", 0i64)
            .unwrap()
            .set("tag_id", tag)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn declarative_stage_runs_paper_query_2() {
        let engine = Engine::new();
        let q = engine
            .compile("SELECT tag_id, count(*) FROM smooth_input [Range By '5 sec'] GROUP BY tag_id")
            .unwrap();
        let mut stage = DeclarativeStage::new("smooth", q).unwrap();
        let out = stage
            .process_rows(Ts::ZERO, vec![rfid(Ts::ZERO, "a")])
            .unwrap();
        assert_eq!(out.len(), 1);
        // The tag persists through the granule even with no new input.
        let out = stage.process_rows(Ts::from_secs(3), vec![]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("tag_id"), Some(&Value::str("a")));
        let out = stage.process_rows(Ts::from_secs(8), vec![]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn declarative_stage_rejects_multi_stream_queries() {
        let engine = Engine::new();
        let q = engine
            .compile("SELECT a.tag_id FROM a [Range 'NOW'], b [Range 'NOW']")
            .unwrap();
        assert!(DeclarativeStage::new("bad", q).is_err());
    }

    #[test]
    fn per_tuple_stage_filters() {
        let mut stage = FnStage::per_tuple("drop-b", |t| {
            Ok((t.get("tag_id") != Some(&Value::str("b"))).then(|| t.clone()))
        });
        let out = stage
            .process_rows(Ts::ZERO, vec![rfid(Ts::ZERO, "a"), rfid(Ts::ZERO, "b")])
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn per_epoch_stage_sees_batch() {
        let mut stage = FnStage::per_epoch("count", |epoch, input| {
            let schema = esp_types::Schema::builder()
                .field("n", esp_types::DataType::Int)
                .build()
                .unwrap();
            Ok(vec![Tuple::new(
                schema,
                epoch,
                vec![Value::Int(input.len() as i64)],
            )?])
        });
        let out = stage
            .process_rows(
                Ts::from_secs(1),
                vec![rfid(Ts::ZERO, "a"), rfid(Ts::ZERO, "b")],
            )
            .unwrap();
        assert_eq!(out[0].get("n"), Some(&Value::Int(2)));
    }

    #[test]
    fn declarative_stage_is_not_checkpointable() {
        let engine = Engine::new();
        let q = engine
            .compile("SELECT tag_id FROM s [Range By '5 sec']")
            .unwrap();
        let stage = DeclarativeStage::new("q", q).unwrap();
        assert!(!stage.checkpointable());
        assert!(stage.state().is_err(), "runtime backstop still errors");
        // The static flag survives the operator adapter, which is what the
        // gateway's spawn-time E0804 probe actually consults.
        let op = StageOperator::new(Box::new(stage));
        assert!(!op.checkpointable());
        // Ordinary stages stay checkpointable by default.
        let plain = FnStage::per_tuple("id", |t| Ok(Some(t.clone())));
        assert!(plain.checkpointable());
    }

    #[test]
    fn determinism_survives_the_operator_adapter() {
        // A query calling now() taints its declarative stage; the taint —
        // reason included — survives StageOperator, which is what the
        // gateway's spawn-time E0903 probe actually consults.
        let engine = Engine::new();
        let q = engine
            .compile("SELECT tag_id, now() FROM s [Range By 'NOW']")
            .unwrap();
        let stage = DeclarativeStage::new("stamp", q).unwrap();
        assert!(!stage.determinism().is_deterministic());
        let op = StageOperator::new(Box::new(stage));
        let Determinism::Nondeterministic { reason } = op.determinism() else {
            panic!("taint lost through the adapter");
        };
        assert!(reason.contains("now"), "{reason}");
        // Plain stages stay deterministic by default; the marker opts out.
        let plain = FnStage::per_tuple("id", |t| Ok(Some(t.clone())));
        assert!(plain.determinism().is_deterministic());
        let tainted = FnStage::per_tuple("roll", |t| Ok(Some(t.clone())))
            .nondeterministic("draws randomness");
        let op = StageOperator::new(Box::new(tainted));
        assert!(!op.determinism().is_deterministic());
    }

    #[test]
    fn field_effects_survive_the_stage_layer() {
        let engine = Engine::new();
        let q = engine
            .compile("SELECT tag_id, count(*) FROM s [Range By '5 sec'] GROUP BY tag_id")
            .unwrap();
        let stage = DeclarativeStage::new("smooth", q).unwrap();
        let fe = stage.field_effects();
        assert!(!fe.opaque);
        assert!(fe.reads.contains("tag_id"));
        assert!(fe.counts_rows);
        // User code stays opaque unless it says otherwise.
        let plain = FnStage::per_tuple("id", |t| Ok(Some(t.clone())));
        assert!(plain.field_effects().opaque);
    }

    #[test]
    fn declarative_stage_matches_the_row_query_api() {
        let sql = "SELECT tag_id, count(*) FROM smooth_input [Range By '5 sec'] GROUP BY tag_id";
        let rows = vec![
            rfid(Ts::ZERO, "a"),
            rfid(Ts::ZERO, "b"),
            rfid(Ts::ZERO, "a"),
        ];
        let mut stage =
            DeclarativeStage::new("smooth", Engine::new().compile(sql).unwrap()).unwrap();
        let out = stage.process(Ts::ZERO, rows.clone().into()).unwrap();
        let mut query = Engine::new().compile(sql).unwrap();
        query.push("smooth_input", &rows).unwrap();
        assert_eq!(out.into_rows(), query.tick(Ts::ZERO).unwrap());
    }

    #[test]
    fn row_stage_receives_chunk_input_as_rows() {
        let stage = FnStage::per_tuple("drop-b", |t| {
            Ok((t.get("tag_id") != Some(&Value::str("b"))).then(|| t.clone()))
        });
        let mut op = StageOperator::new(Box::new(stage));
        let chunk = Chunk::from_tuples(
            &esp_types::well_known::rfid_schema(),
            &[rfid(Ts::ZERO, "a"), rfid(Ts::ZERO, "b")],
        )
        .unwrap();
        op.push(0, vec![chunk].into()).unwrap();
        let out = op.flush(Ts::ZERO).unwrap().into_rows();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("tag_id"), Some(&Value::str("a")));
    }

    #[test]
    fn mixed_row_and_chunk_epoch_preserves_arrival_order() {
        let stage = FnStage::per_epoch("id", |_, input| Ok(input));
        let mut op = StageOperator::new(Box::new(stage));
        // A second layout: the RFID fields plus a signal strength.
        let rssi = esp_types::Schema::builder()
            .field("receptor_id", esp_types::DataType::Int)
            .field("tag_id", esp_types::DataType::Str)
            .field("rssi", esp_types::DataType::Float)
            .build()
            .unwrap();
        let c1 = TupleBuilder::new(&rssi, Ts::ZERO)
            .set("tag_id", "c1")
            .unwrap()
            .set("rssi", -40.5)
            .unwrap()
            .build()
            .unwrap();
        op.push(0, vec![rfid(Ts::ZERO, "r1")].into()).unwrap();
        let chunk = Chunk::from_tuples(&rssi, std::slice::from_ref(&c1)).unwrap();
        op.push(0, vec![chunk].into()).unwrap();
        op.push(0, vec![rfid(Ts::ZERO, "r2")].into()).unwrap();
        let out = op.flush(Ts::ZERO).unwrap().into_rows();
        let tags: Vec<_> = out.iter().map(|t| t.get("tag_id").cloned()).collect();
        assert_eq!(
            tags,
            vec![
                Some(Value::str("r1")),
                Some(Value::str("c1")),
                Some(Value::str("r2"))
            ]
        );
        assert_eq!(out[1], c1, "the second layout arrives intact");
    }

    #[test]
    fn stage_operator_adapts() {
        let stage = FnStage::per_tuple("id", |t| Ok(Some(t.clone())));
        let mut op = StageOperator::new(Box::new(stage));
        op.push(0, vec![rfid(Ts::ZERO, "a")].into()).unwrap();
        op.push(0, vec![rfid(Ts::ZERO, "b")].into()).unwrap();
        assert_eq!(op.flush(Ts::ZERO).unwrap().len(), 2);
        assert_eq!(op.name(), "id");
        assert!(op.flush(Ts::ZERO).unwrap().is_empty());
    }
}
