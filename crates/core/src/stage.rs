//! The three implementation styles of a [`Stage`].
//!
//! Paper §3.3: "Stages may be implemented in a variety of ways: declarative
//! continuous queries; user-defined functions or aggregates; arbitrary
//! code." [`DeclarativeStage`] covers the first, [`FnStage`] the second,
//! and any hand-written `impl Stage` the third.
//!
//! However a stage is written, it speaks one protocol, `esp-stream`'s
//! [`Stage`] (re-exported here): an epoch's input arrives as one columnar
//! [`Payload`] and the epoch's output leaves as one, and the processor
//! places the stage in its dataflow as a node of its own. A row-at-a-time
//! stage starts with `input.into_rows()` (lossless) and returns
//! `Payload::from(rows)`; a chunk-native stage ([`DeclarativeStage`])
//! reads the chunks directly.

use esp_query::ContinuousQuery;
use esp_stream::{Payload, StageState};
use esp_types::{Batch, Determinism, FieldEffects, Result, Ts, Tuple};

pub use esp_stream::Stage;

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
        let mut out = Vec::new();
        self.query.encode_state(&mut out);
        Ok(Some(StageState(out)))
    }

    fn restore(&mut self, state: &StageState) -> Result<()> {
        self.query.restore_state(state.bytes())
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
    use esp_stream::{Dataflow, EpochRunner, ScriptedSource};
    use esp_types::{well_known, Chunk, TupleBuilder, Value};

    /// A one-node dataflow running `stage` over a silent source.
    fn runner_of(stage: Box<dyn Stage>) -> EpochRunner {
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new("s", vec![])));
        df.add_operator(stage, &[src]).unwrap();
        EpochRunner::new(df)
    }

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
    fn declarative_stage_state_round_trips() {
        let engine = Engine::new();
        let stage = || {
            let q = engine
                .compile("SELECT tag_id, count(*) FROM s [Range By '5 sec'] GROUP BY tag_id")
                .unwrap();
            DeclarativeStage::new("q", q).unwrap()
        };
        let mut live = stage();
        for (t, tag) in [(0, "a"), (1, "b"), (2, "a")] {
            live.process_rows(Ts::from_secs(t), vec![rfid(Ts::from_secs(t), tag)])
                .unwrap();
        }
        let blob = live.state().unwrap().expect("a CQL stage has state");
        let mut restored = stage();
        restored.restore(&blob).unwrap();
        assert_eq!(restored.state().unwrap().unwrap(), blob, "re-encodes alike");
        for t in 3..9 {
            let epoch = Ts::from_secs(t);
            assert_eq!(
                restored.process_rows(epoch, vec![]).unwrap(),
                live.process_rows(epoch, vec![]).unwrap(),
                "epoch {t}"
            );
        }
        // The runner checkpoints it like any other stage.
        assert!(!runner_of(Box::new(live))
            .snapshot_state()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn determinism_survives_the_operator_adapter() {
        // A query calling now() taints its declarative stage; the taint —
        // reason included — reaches the runner, which is what the
        // gateway's spawn-time E0903 probe actually consults.
        let engine = Engine::new();
        let q = engine
            .compile("SELECT tag_id, now() FROM s [Range By 'NOW']")
            .unwrap();
        let stage = DeclarativeStage::new("stamp", q).unwrap();
        assert!(!stage.determinism().is_deterministic());
        let tainted = runner_of(Box::new(stage)).nondeterministic();
        let [(name, reason)] = tainted.as_slice() else {
            panic!("taint lost on the way to the runner: {tainted:?}");
        };
        assert_eq!(name, "stamp");
        assert!(reason.contains("now"), "{reason}");
        // Plain stages stay deterministic by default; the marker opts out.
        let plain = FnStage::per_tuple("id", |t| Ok(Some(t.clone())));
        assert!(plain.determinism().is_deterministic());
        let tainted = FnStage::per_tuple("roll", |t| Ok(Some(t.clone())))
            .nondeterministic("draws randomness");
        assert_eq!(runner_of(Box::new(tainted)).nondeterministic().len(), 1);
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
        let mut stage = FnStage::per_tuple("drop-b", |t| {
            Ok((t.get("tag_id") != Some(&Value::str("b"))).then(|| t.clone()))
        });
        let chunk = Chunk::from_tuples(
            &esp_types::well_known::rfid_schema(),
            &[rfid(Ts::ZERO, "a"), rfid(Ts::ZERO, "b")],
        )
        .unwrap();
        let out = stage
            .process(Ts::ZERO, vec![chunk].into())
            .unwrap()
            .into_rows();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("tag_id"), Some(&Value::str("a")));
    }

    #[test]
    fn mixed_row_and_chunk_epoch_preserves_arrival_order() {
        let mut stage = FnStage::per_epoch("id", |_, input| Ok(input));
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
        // One epoch's arrivals, appended the way the runner builds a
        // stage's input.
        let mut input = Payload::from(vec![rfid(Ts::ZERO, "r1")]);
        let chunk = Chunk::from_tuples(&rssi, std::slice::from_ref(&c1)).unwrap();
        input.append(vec![chunk].into());
        input.append(vec![rfid(Ts::ZERO, "r2")].into());
        let out = stage.process(Ts::ZERO, input).unwrap().into_rows();
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
}
