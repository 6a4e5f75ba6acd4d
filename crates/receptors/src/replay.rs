//! Trace recording and replay.
//!
//! The paper's §5 evaluations ran over *recorded* deployments (the Intel
//! lab trace, the Sonoma redwood logs) — captured once, cleaned many times
//! under different pipelines. This module provides the same workflow for
//! simulated receptors: wrap any [`Source`] in a [`Recorder`], run it, and
//! serialize the captured trace to JSON; a [`RecordedTrace`] replays
//! byte-identically later (or on another machine), so pipeline comparisons
//! are guaranteed to see the very same dirty data.

use std::sync::{Arc, Mutex};

use serde_json::{json, Value as Json};

use esp_stream::{Payload, ScriptedSource, Source};
use esp_types::{Batch, DataType, EspError, Field, Result, Schema, Ts, Tuple, Value};

/// A captured source trace: one entry per poll, with the poll epoch and
/// the batch it returned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedTrace {
    /// (poll epoch, batch) pairs in poll order.
    pub entries: Vec<(Ts, Batch)>,
}

impl RecordedTrace {
    /// Total tuples recorded.
    pub fn len(&self) -> usize {
        self.entries.iter().map(|(_, b)| b.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize to a self-describing JSON document.
    pub fn to_json(&self) -> String {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|(ts, batch)| {
                json!({
                    "epoch_ms": ts.as_millis(),
                    "tuples": batch.iter().map(tuple_to_json).collect::<Vec<Json>>(),
                })
            })
            .collect();
        serde_json::to_string_pretty(&json!({ "version": 1, "entries": entries }))
            .expect("trace serializes")
    }

    /// Parse a trace document produced by [`RecordedTrace::to_json`].
    pub fn from_json(text: &str) -> Result<RecordedTrace> {
        let doc: Json = serde_json::from_str(text)
            .map_err(|e| EspError::Config(format!("invalid trace document: {e}")))?;
        let entries = doc["entries"]
            .as_array()
            .ok_or_else(|| EspError::Config("trace document missing 'entries'".into()))?;
        let mut out = RecordedTrace::default();
        for e in entries {
            let ts = Ts::from_millis(
                e["epoch_ms"]
                    .as_u64()
                    .ok_or_else(|| EspError::Config("entry missing epoch_ms".into()))?,
            );
            let tuples = e["tuples"]
                .as_array()
                .ok_or_else(|| EspError::Config("entry missing tuples".into()))?
                .iter()
                .map(tuple_from_json)
                .collect::<Result<Batch>>()?;
            out.entries.push((ts, tuples));
        }
        Ok(out)
    }

    /// Turn the trace back into a replayable [`Source`].
    pub fn into_source(self, name: impl Into<String>) -> ScriptedSource {
        ScriptedSource::new(name, self.entries)
    }
}

/// Records everything a wrapped source produces, via a shared handle that
/// survives the source being moved into a processor.
#[derive(Clone, Default)]
pub struct Recorder {
    trace: Arc<Mutex<RecordedTrace>>,
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Wrap `source`; everything it emits is recorded here.
    pub fn wrap(&self, source: Box<dyn Source>) -> Box<dyn Source> {
        Box::new(RecordingSource {
            inner: source,
            trace: Arc::clone(&self.trace),
        })
    }

    /// Snapshot the trace recorded so far.
    pub fn snapshot(&self) -> RecordedTrace {
        self.trace.lock().expect("recorder lock").clone()
    }
}

struct RecordingSource {
    inner: Box<dyn Source>,
    trace: Arc<Mutex<RecordedTrace>>,
}

impl Source for RecordingSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self, epoch: Ts) -> Result<Payload> {
        let polled = self.inner.poll(epoch)?;
        self.trace
            .lock()
            .expect("recorder lock")
            .entries
            .push((epoch, polled.rows()));
        Ok(polled)
    }
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => json!({ "t": "null" }),
        Value::Bool(b) => json!({ "t": "bool", "v": b }),
        Value::Int(i) => json!({ "t": "int", "v": i }),
        Value::Float(f) => json!({ "t": "float", "v": f }),
        Value::Str(s) => json!({ "t": "str", "v": s.as_ref() }),
        Value::Ts(ts) => json!({ "t": "ts", "v": ts.as_millis() }),
    }
}

fn value_from_json(j: &Json) -> Result<Value> {
    let t = j["t"]
        .as_str()
        .ok_or_else(|| EspError::Config("value missing tag".into()))?;
    Ok(match t {
        "null" => Value::Null,
        "bool" => Value::Bool(j["v"].as_bool().unwrap_or(false)),
        "int" => Value::Int(
            j["v"]
                .as_i64()
                .ok_or_else(|| EspError::Config("bad int value".into()))?,
        ),
        "float" => Value::Float(
            j["v"]
                .as_f64()
                .ok_or_else(|| EspError::Config("bad float value".into()))?,
        ),
        "str" => Value::str(
            j["v"]
                .as_str()
                .ok_or_else(|| EspError::Config("bad str value".into()))?,
        ),
        "ts" => Value::Ts(Ts::from_millis(
            j["v"]
                .as_u64()
                .ok_or_else(|| EspError::Config("bad ts value".into()))?,
        )),
        other => return Err(EspError::Config(format!("unknown value tag '{other}'"))),
    })
}

fn datatype_name(d: DataType) -> &'static str {
    match d {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Str => "str",
        DataType::Ts => "ts",
        DataType::Any => "any",
    }
}

fn datatype_from_name(s: &str) -> Result<DataType> {
    Ok(match s {
        "bool" => DataType::Bool,
        "int" => DataType::Int,
        "float" => DataType::Float,
        "str" => DataType::Str,
        "ts" => DataType::Ts,
        "any" => DataType::Any,
        other => return Err(EspError::Config(format!("unknown data type '{other}'"))),
    })
}

fn tuple_to_json(t: &Tuple) -> Json {
    let fields: Vec<Json> = t
        .schema()
        .fields()
        .iter()
        .zip(t.values())
        .map(|(f, v)| {
            json!({
                "name": f.name,
                "type": datatype_name(f.data_type),
                "value": value_to_json(v),
            })
        })
        .collect();
    json!({ "ts_ms": t.ts().as_millis(), "fields": fields })
}

fn tuple_from_json(j: &Json) -> Result<Tuple> {
    let ts = Ts::from_millis(
        j["ts_ms"]
            .as_u64()
            .ok_or_else(|| EspError::Config("tuple missing ts_ms".into()))?,
    );
    let fields = j["fields"]
        .as_array()
        .ok_or_else(|| EspError::Config("tuple missing fields".into()))?;
    let mut schema_fields = Vec::with_capacity(fields.len());
    let mut values = Vec::with_capacity(fields.len());
    for f in fields {
        let name = f["name"]
            .as_str()
            .ok_or_else(|| EspError::Config("field missing name".into()))?;
        let dt = datatype_from_name(
            f["type"]
                .as_str()
                .ok_or_else(|| EspError::Config("field missing type".into()))?,
        )?;
        schema_fields.push(Field::new(name, dt));
        values.push(value_from_json(&f["value"])?);
    }
    // Intern: without this every replayed tuple carries a fresh
    // `Arc<Schema>`, defeating the pointer-identity caches downstream
    // (granule injector, chunk builders, slot-compiled plans).
    let schema = esp_types::registry::intern(&Schema::new(schema_fields)?);
    Tuple::new(schema, ts, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rfid::ShelfScenario;
    use esp_types::TimeDelta;

    #[test]
    fn record_then_replay_is_identical() {
        let scenario = ShelfScenario::paper(33);
        let recorder = Recorder::new();
        let (_, src) = scenario.sources().remove(0);
        let mut wrapped = recorder.wrap(src);
        // Drive it directly for 20 polls.
        let mut t = Ts::ZERO;
        let mut live: Vec<Batch> = Vec::new();
        for _ in 0..20 {
            live.push(wrapped.poll(t).unwrap().into_rows());
            t += TimeDelta::from_millis(200);
        }
        // Replay from the snapshot.
        let trace = recorder.snapshot();
        assert_eq!(trace.entries.len(), 20);
        let mut replay = trace.clone().into_source("replay");
        let mut t = Ts::ZERO;
        for want in &live {
            let got = replay.poll(t).unwrap().into_rows();
            assert_eq!(&got, want);
            t += TimeDelta::from_millis(200);
        }
    }

    #[test]
    fn json_round_trip_preserves_the_trace() {
        let scenario = ShelfScenario::paper(7);
        let recorder = Recorder::new();
        let (_, src) = scenario.sources().remove(0);
        let mut wrapped = recorder.wrap(src);
        for i in 0..10u64 {
            wrapped.poll(Ts::from_millis(i * 200)).unwrap().into_rows();
        }
        let trace = recorder.snapshot();
        let json = trace.to_json();
        let parsed = RecordedTrace::from_json(&json).unwrap();
        assert_eq!(parsed, trace);
        assert!(!parsed.is_empty());
    }

    #[test]
    fn replayed_tuples_share_one_interned_schema() {
        let scenario = ShelfScenario::paper(7);
        let recorder = Recorder::new();
        let (_, src) = scenario.sources().remove(0);
        let mut wrapped = recorder.wrap(src);
        for i in 0..10u64 {
            wrapped.poll(Ts::from_millis(i * 200)).unwrap().into_rows();
        }
        let json = recorder.snapshot().to_json();
        let parsed = RecordedTrace::from_json(&json).unwrap();
        let tuples: Vec<&Tuple> = parsed.entries.iter().flat_map(|(_, b)| b.iter()).collect();
        assert!(tuples.len() > 1);
        for t in &tuples {
            assert!(
                std::sync::Arc::ptr_eq(t.schema(), tuples[0].schema()),
                "decoded tuples must share the interned schema Arc"
            );
        }
    }

    #[test]
    fn all_value_kinds_round_trip() {
        let schema = Schema::builder()
            .field("b", DataType::Bool)
            .field("i", DataType::Int)
            .field("f", DataType::Float)
            .field("s", DataType::Str)
            .field("t", DataType::Ts)
            .field("n", DataType::Any)
            .build()
            .unwrap();
        let tuple = Tuple::new(
            schema,
            Ts::from_millis(123),
            vec![
                Value::Bool(true),
                Value::Int(-9),
                Value::Float(2.5),
                Value::str("hello"),
                Value::Ts(Ts::from_secs(4)),
                Value::Null,
            ],
        )
        .unwrap();
        let trace = RecordedTrace {
            entries: vec![(Ts::from_millis(123), vec![tuple])],
        };
        let parsed = RecordedTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(RecordedTrace::from_json("{").is_err());
        assert!(RecordedTrace::from_json("{\"version\":1}").is_err());
        assert!(RecordedTrace::from_json(
            "{\"entries\":[{\"epoch_ms\":0,\"tuples\":[{\"ts_ms\":0,\"fields\":[{\"name\":\"x\",\"type\":\"martian\",\"value\":{\"t\":\"null\"}}]}]}]}"
        )
        .is_err());
    }
}
