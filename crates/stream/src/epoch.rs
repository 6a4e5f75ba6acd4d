//! The deterministic, single-threaded epoch scheduler.

use std::time::Instant;

use esp_types::{Batch, Result, TimeDelta, Ts};

use crate::graph::{Dataflow, NodeKind, TapId};
use crate::operator::Payload;

/// Span histograms attached by [`EpochRunner::attach_obs`]: one per node
/// (indexed like `df.nodes`) plus the whole-epoch total.
struct EpochObs {
    node_spans: Vec<esp_obs::Histogram>,
    step: esp_obs::Histogram,
}

/// Drives a [`Dataflow`] epoch by epoch.
///
/// At each epoch `t` the runner:
///
/// 1. polls every [`Source`](crate::Source) for its batch at `t`;
/// 2. visits the stages in topological order (node ids are already
///    topological because the graph is append-only), building each one's
///    input by appending its upstream outputs in wiring order
///    ([`Payload::append`], which drops empty chunks), and calls
///    [`Stage::process`](crate::Stage::process) exactly once;
/// 3. records the output of every tapped node.
///
/// Payloads change hands by value. A node's output has a fixed number of
/// readers per epoch (its consumers' input edges plus its taps), counted
/// once at construction; every reader but the last gets a copy, and the
/// last takes the original.
///
/// The result is deterministic: the same dataflow over the same sources
/// yields byte-identical tap traces, which the experiment harness relies on.
pub struct EpochRunner {
    df: Dataflow,
    /// Per node (indexed like `df.nodes`): how many times its output is
    /// read each epoch — consumer input edges plus taps.
    readers: Vec<usize>,
    /// Per-tap collected output: (epoch, batch) per epoch, including empty
    /// batches so traces have one entry per epoch.
    collected: Vec<Vec<(Ts, Batch)>>,
    epochs_run: u64,
    obs: Option<EpochObs>,
}

impl EpochRunner {
    /// Wrap a dataflow for execution.
    pub fn new(df: Dataflow) -> EpochRunner {
        let n_taps = df.taps.len();
        let mut readers = vec![0; df.nodes.len()];
        for node in &df.nodes {
            if let NodeKind::Stage { inputs, .. } = &node.kind {
                for input in inputs {
                    readers[input.0] += 1;
                }
            }
        }
        for tapped in &df.taps {
            readers[tapped.0] += 1;
        }
        EpochRunner {
            df,
            readers,
            collected: vec![Vec::new(); n_taps],
            epochs_run: 0,
            obs: None,
        }
    }

    /// Attach span instrumentation: every subsequent [`EpochRunner::step`]
    /// records each node's poll or process time into
    /// `esp_stream_node_flush_nanos{node=…}` and the whole epoch into
    /// `esp_stream_epoch_step_nanos`, each carrying the extra `labels`
    /// (the gateway adds `shard`). Recording is skipped entirely — one
    /// relaxed load per step — while [`esp_obs::enabled`] is off.
    pub fn attach_obs(&mut self, registry: &esp_obs::Registry, labels: &[(&str, &str)]) {
        let node_spans = self
            .df
            .node_ids()
            .map(|id| {
                let mut with_node: Vec<(&str, &str)> = vec![("node", self.df.node_name(id))];
                with_node.extend_from_slice(labels);
                registry.histogram("esp_stream_node_flush_nanos", &with_node)
            })
            .collect();
        self.obs = Some(EpochObs {
            node_spans,
            step: registry.histogram("esp_stream_epoch_step_nanos", labels),
        });
    }

    /// Execute one epoch at logical time `epoch`.
    ///
    /// Data moves between nodes as [`Payload`]s, handed from producer to
    /// consumer untouched: the last reader of a node's output (consumer
    /// edge or tap, in that order) takes the payload, and earlier readers
    /// get a clone. Tap traces are recorded as rows.
    pub fn step(&mut self, epoch: Ts) -> Result<()> {
        let n = self.df.nodes.len();
        // Per-epoch (not per-tuple) spans keep the instrumented cost at
        // two `Instant` reads per node; `None` while disabled or detached.
        let obs = self.obs.as_ref().filter(|_| esp_obs::enabled());
        let step_start = obs.map(|_| Instant::now());
        // Output of each node this epoch, filled in topological order, and
        // how many of its reads are still to come.
        let mut outputs: Vec<Payload> = Vec::with_capacity(n);
        let mut unread = self.readers.clone();
        for i in 0..n {
            let node_start = obs.map(|_| Instant::now());
            let out = match &mut self.df.nodes[i].kind {
                NodeKind::Source(src) => src.poll(epoch)?,
                NodeKind::Stage { stage, inputs } => {
                    let mut input = Payload::empty();
                    for upstream in inputs {
                        // Inputs precede consumers (append-only graph), so
                        // the upstream output is always computed already.
                        input.append(read(&mut outputs, &mut unread, upstream.0));
                    }
                    stage.process(epoch, input)?
                }
            };
            if let (Some(o), Some(t0)) = (obs, node_start) {
                if let Some(h) = o.node_spans.get(i) {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
            }
            outputs.push(out);
        }
        for (tap_idx, node) in self.df.taps.iter().enumerate() {
            let batch = read(&mut outputs, &mut unread, node.0).into_rows();
            self.collected[tap_idx].push((epoch, batch));
        }
        if let (Some(o), Some(t0)) = (obs, step_start) {
            o.step.record(t0.elapsed().as_nanos() as u64);
        }
        self.epochs_run += 1;
        Ok(())
    }

    /// Run `n_epochs` epochs starting at `start`, spaced `period` apart.
    pub fn run(&mut self, start: Ts, period: TimeDelta, n_epochs: u64) -> Result<()> {
        let mut t = start;
        for _ in 0..n_epochs {
            self.step(t)?;
            t += period;
        }
        Ok(())
    }

    /// Number of epochs executed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Drain the collected trace of a tap: one `(epoch, batch)` entry per
    /// executed epoch, in order.
    pub fn take_tap(&mut self, tap: TapId) -> Vec<(Ts, Batch)> {
        std::mem::take(&mut self.collected[tap.0])
    }

    /// Borrow the collected trace of a tap without draining.
    pub fn tap(&self, tap: TapId) -> &[(Ts, Batch)] {
        &self.collected[tap.0]
    }

    /// Names and causes of stages whose replay is not reproducible
    /// ([`Stage::determinism`](crate::Stage::determinism) reports taint)
    /// — the replay half of the durability contract. An empty list means
    /// recovery by WAL replay reproduces this dataflow's output byte for
    /// byte.
    pub fn nondeterministic(&self) -> Vec<(String, String)> {
        self.df
            .nodes
            .iter()
            .filter_map(|node| match &node.kind {
                NodeKind::Stage { stage, .. } => match stage.determinism() {
                    esp_types::Determinism::Deterministic => None,
                    esp_types::Determinism::Nondeterministic { reason } => {
                        Some((stage.name().to_string(), reason))
                    }
                },
                _ => None,
            })
            .collect()
    }

    /// Capture the cross-epoch state of every stage in the dataflow —
    /// the runner half of the epoch-aligned checkpoint protocol.
    ///
    /// Must be called at an epoch boundary (between [`EpochRunner::step`]
    /// calls), when no batch is in flight. Node ids are topological and
    /// stable for a given pipeline configuration, so the (node index,
    /// blob) pairs recorded here re-apply cleanly to a freshly rebuilt
    /// runner of the same shape; the node count is recorded and checked
    /// so a snapshot from a different configuration is rejected outright.
    /// Sources are not captured — replaying the write-ahead log restores
    /// their pending input instead.
    pub fn snapshot_state(&self) -> Result<Vec<u8>> {
        use esp_types::snap;
        let mut entries: Vec<(u32, Vec<u8>)> = Vec::new();
        for (i, node) in self.df.nodes.iter().enumerate() {
            if let NodeKind::Stage { stage, .. } = &node.kind {
                if let Some(state) = stage.state()? {
                    entries.push((i as u32, state.0));
                }
            }
        }
        let mut out = Vec::new();
        snap::put_u32(&mut out, self.df.nodes.len() as u32);
        snap::put_u32(&mut out, entries.len() as u32);
        for (idx, blob) in entries {
            snap::put_u32(&mut out, idx);
            snap::put_u32(&mut out, blob.len() as u32);
            out.extend_from_slice(&blob);
        }
        Ok(out)
    }

    /// Restore stage state captured by [`EpochRunner::snapshot_state`]
    /// into this freshly built runner. Rejects a snapshot whose node
    /// count, node indices, or per-stage blobs do not match the
    /// current dataflow shape.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        use crate::state::StageState;
        use esp_types::{snap, EspError};
        let mut cur = snap::Cursor::new(bytes);
        let n_nodes = cur.u32()? as usize;
        if n_nodes != self.df.nodes.len() {
            return Err(EspError::Snapshot(format!(
                "snapshot covers a dataflow of {n_nodes} node(s) but this pipeline has {}",
                self.df.nodes.len()
            )));
        }
        let n_entries = cur.u32()? as usize;
        for _ in 0..n_entries {
            let idx = cur.u32()? as usize;
            let len = cur.u32()? as usize;
            let blob = cur.bytes(len)?.to_vec();
            if idx >= self.df.nodes.len() {
                return Err(EspError::Snapshot(format!(
                    "snapshot entry for node {idx} out of range"
                )));
            }
            match &mut self.df.nodes[idx].kind {
                NodeKind::Stage { stage, .. } => stage.restore(&StageState(blob))?,
                NodeKind::Source(_) => {
                    return Err(EspError::Snapshot(format!(
                        "snapshot holds stage state for node {idx}, which is a source here"
                    )))
                }
            }
        }
        cur.finish()
    }
}

/// One read of node `node`'s output this epoch: the last outstanding read
/// takes the payload, every earlier one gets a copy.
fn read(outputs: &mut [Payload], unread: &mut [usize], node: usize) -> Payload {
    unread[node] -= 1;
    if unread[node] == 0 {
        std::mem::take(&mut outputs[node])
    } else {
        outputs[node].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{ScriptedSource, Stage};
    use crate::ops::{MapOp, UnionOp};
    use esp_types::{Chunk, DataType, Schema, Tuple, Value};

    fn tup(ts: Ts, v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, ts, vec![Value::Int(v)]).unwrap()
    }

    /// Keeps the rows whose `v` satisfies `pred`, chunk by chunk.
    fn keep(name: &str, pred: fn(i64) -> bool) -> Box<dyn Stage> {
        Box::new(MapOp::new(name, move |c: Chunk| {
            let mask: Vec<bool> = (0..c.len())
                .map(|i| c.value_at(i, 0).and_then(|v| v.as_i64()).is_some_and(pred))
                .collect();
            let kept = c.filter(&mask)?;
            Ok((!kept.is_empty()).then_some(kept))
        }))
    }

    /// Emits one row per `process` call: how many rows it was handed.
    struct CountRows;

    impl Stage for CountRows {
        fn name(&self) -> &str {
            "count-rows"
        }

        fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
            Ok(Payload::from(vec![tup(epoch, input.len() as i64)]))
        }
    }

    #[test]
    fn linear_pipeline_runs_per_epoch() {
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new(
            "s",
            (0..5u64)
                .map(|i| (Ts::from_secs(i), vec![tup(Ts::from_secs(i), i as i64)]))
                .collect(),
        )));
        let f = df
            .add_operator(keep("odd", |v| v % 2 == 1), &[src])
            .unwrap();
        let tap = df.add_tap(f).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.run(Ts::ZERO, TimeDelta::from_secs(1), 5).unwrap();
        let trace = runner.take_tap(tap);
        assert_eq!(trace.len(), 5);
        let vals: Vec<i64> = trace
            .iter()
            .flat_map(|(_, b)| b.iter().map(|t| t.value(0).as_i64().unwrap()))
            .collect();
        assert_eq!(vals, vec![1, 3]);
        assert_eq!(runner.epochs_run(), 5);
    }

    #[test]
    fn attach_obs_records_per_node_and_per_epoch_spans() {
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new(
            "s",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 1)])],
        )));
        let f = df.add_operator(keep("keep", |_| true), &[src]).unwrap();
        df.add_tap(f).unwrap();
        let registry = esp_obs::Registry::new();
        let mut runner = EpochRunner::new(df);
        runner.attach_obs(&registry, &[("shard", "0")]);
        runner.run(Ts::ZERO, TimeDelta::from_secs(1), 3).unwrap();
        let step = registry
            .histogram_snapshot("esp_stream_epoch_step_nanos", &[("shard", "0")])
            .unwrap();
        assert_eq!(step.count(), 3, "one span per epoch");
        for node in ["s", "keep"] {
            let h = registry
                .histogram_snapshot(
                    "esp_stream_node_flush_nanos",
                    &[("node", node), ("shard", "0")],
                )
                .unwrap();
            assert_eq!(h.count(), 3, "node {node} timed each epoch");
        }
    }

    #[test]
    fn diamond_fanout_and_union() {
        // src -> {left filter, right filter} -> union; union sees both.
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new(
            "s",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 1), tup(Ts::ZERO, 2)])],
        )));
        let left = df.add_operator(keep("=1", |v| v == 1), &[src]).unwrap();
        let right = df.add_operator(keep("=2", |v| v == 2), &[src]).unwrap();
        let u = df
            .add_operator(Box::new(UnionOp::new()), &[left, right])
            .unwrap();
        let tap = df.add_tap(u).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.step(Ts::ZERO).unwrap();
        let trace = runner.take_tap(tap);
        assert_eq!(trace[0].1.len(), 2);
    }

    #[test]
    fn taps_record_empty_epochs() {
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new("s", vec![])));
        let tap = df.add_tap(src).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.run(Ts::ZERO, TimeDelta::from_secs(1), 3).unwrap();
        let trace = runner.take_tap(tap);
        assert_eq!(trace.len(), 3);
        assert!(trace.iter().all(|(_, b)| b.is_empty()));
        // Epochs are stamped correctly.
        assert_eq!(trace[2].0, Ts::from_secs(2));
    }

    #[test]
    fn flush_called_once_per_epoch_even_with_multiple_upstream_batches() {
        let mut df = Dataflow::new();
        let a = df.add_source(Box::new(ScriptedSource::new(
            "a",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 1)])],
        )));
        let b = df.add_source(Box::new(ScriptedSource::new(
            "b",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 2)])],
        )));
        let u = df.add_operator(Box::new(UnionOp::new()), &[a, b]).unwrap();
        // Emits exactly one tuple per `process` call.
        let counter = df.add_operator(Box::new(CountRows), &[u]).unwrap();
        let tap = df.add_tap(counter).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.step(Ts::ZERO).unwrap();
        let trace = runner.take_tap(tap);
        assert_eq!(trace[0].1.len(), 1, "exactly one process call");
        assert_eq!(
            trace[0].1[0].value(0),
            &Value::Int(2),
            "union delivered both inputs"
        );
    }

    /// Per `process` call, the row count of every chunk handed over and
    /// its first row's value.
    type Calls = std::sync::Arc<std::sync::Mutex<Vec<Vec<(usize, i64)>>>>;

    #[test]
    fn chunk_dataflow_stays_columnar_through_a_union() {
        use crate::ScriptedChunkSource;

        /// Emits one row per epoch: how many chunks it was handed, and
        /// logs each call's chunks. Proves the union and the runner
        /// forward chunks as the sources cut them, neither merged nor
        /// split, in wiring order and with empty chunks dropped.
        struct CountChunks(Calls);
        impl Stage for CountChunks {
            fn name(&self) -> &str {
                "count-chunks"
            }
            fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
                let chunks: Vec<(usize, i64)> = input
                    .chunks()
                    .iter()
                    .map(|c| {
                        (
                            c.len(),
                            c.value_at(0, 0).and_then(|v| v.as_i64()).unwrap_or(-1),
                        )
                    })
                    .collect();
                let n = chunks.len() as i64;
                self.0.lock().unwrap().push(chunks);
                Ok(Payload::from(vec![tup(epoch, n)]))
            }
        }

        let script = |offset: i64| -> Vec<(Ts, Chunk)> {
            // Every third epoch is silent, so empty epochs are covered too.
            (0..20u64)
                .filter(|i| i % 3 != 2)
                .map(|i| {
                    let ts = Ts::from_millis(i * 100);
                    let rows = [tup(ts, offset + i as i64), tup(ts, offset)];
                    (ts, Chunk::from_tuples(rows[0].schema(), &rows).unwrap())
                })
                .collect()
        };
        // Source b also emits a zero-row chunk every epoch, before its
        // data; the runner must drop it.
        let mut b_script = Vec::new();
        for i in 0..20u64 {
            let ts = Ts::from_millis(i * 100);
            b_script.push((ts, Chunk::new(tup(ts, 0).schema())));
            b_script.extend(script(100).into_iter().filter(|(t, _)| *t == ts));
        }
        let mut df = Dataflow::new();
        let a = df.add_source(Box::new(ScriptedChunkSource::new("a", script(0))));
        let b = df.add_source(Box::new(ScriptedChunkSource::new("b", b_script)));
        let u = df.add_operator(Box::new(UnionOp::new()), &[a, b]).unwrap();
        let (via_union, direct) = (Calls::default(), Calls::default());
        let count = df
            .add_operator(Box::new(CountChunks(via_union.clone())), &[u])
            .unwrap();
        df.add_operator(Box::new(CountChunks(direct.clone())), &[a, b])
            .unwrap();
        let (rows, chunks) = (df.add_tap(u).unwrap(), df.add_tap(count).unwrap());
        let mut runner = EpochRunner::new(df);
        runner
            .run(Ts::ZERO, TimeDelta::from_millis(100), 20)
            .unwrap();
        let rows = runner.take_tap(rows);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows.iter().map(|(_, b)| b.len()).sum::<usize>(), 56);
        for (i, (_, b)) in runner.take_tap(chunks).iter().enumerate() {
            let expected = if i % 3 == 2 { 0 } else { 2 };
            assert_eq!(b[0].value(0), &Value::Int(expected), "epoch {i}");
        }
        for calls in [via_union, direct] {
            let calls = calls.lock().unwrap();
            assert_eq!(calls.len(), 20, "one process call per epoch");
            for (i, chunks) in calls.iter().enumerate() {
                let want = if i % 3 == 2 {
                    vec![]
                } else {
                    // a's chunk, then b's: wiring order, no empty chunk.
                    vec![(2, i as i64), (2, 100 + i as i64)]
                };
                assert_eq!(chunks, &want, "epoch {i}");
            }
        }
    }

    /// Records, for every chunk it is handed, the address of the chunk's
    /// `ts` buffer and the values it carries.
    type Seen = std::sync::Arc<std::sync::Mutex<Vec<(usize, Vec<i64>)>>>;

    struct Probe(Seen);

    impl Stage for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn process(&mut self, _epoch: Ts, input: Payload) -> Result<Payload> {
            let mut seen = self.0.lock().unwrap();
            for c in input.chunks() {
                let vals = (0..c.len())
                    .filter_map(|i| c.value_at(i, 0)?.as_i64())
                    .collect();
                seen.push((c.ts().as_ptr() as usize, vals));
            }
            Ok(Payload::empty())
        }
    }

    /// A one-chunk source and the address of that chunk's `ts` buffer.
    fn one_chunk_source() -> (crate::ScriptedChunkSource, usize) {
        let rows = [tup(Ts::ZERO, 1), tup(Ts::ZERO, 2)];
        let chunk = Chunk::from_tuples(rows[0].schema(), &rows).unwrap();
        let buf = chunk.ts().as_ptr() as usize;
        let src = crate::ScriptedChunkSource::new("s", vec![(Ts::ZERO, chunk)]);
        (src, buf)
    }

    #[test]
    fn single_reader_chain_hands_the_source_buffer_through() {
        // src -> union(src) -> union(that, empty) -> probe: every hop has
        // one reader, so the probe sees the very buffer the source built.
        let (src, buf) = one_chunk_source();
        let seen = Seen::default();
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(src));
        let quiet = df.add_source(Box::new(crate::ScriptedChunkSource::new("q", vec![])));
        let pass = df.add_operator(Box::new(UnionOp::new()), &[src]).unwrap();
        let u = df
            .add_operator(Box::new(UnionOp::new()), &[pass, quiet])
            .unwrap();
        df.add_operator(Box::new(Probe(seen.clone())), &[u])
            .unwrap();
        EpochRunner::new(df).step(Ts::ZERO).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![(buf, vec![1, 2])]);
    }
    #[test]
    fn fan_out_copies_for_all_but_the_last_reader() {
        // src -> {probe a, probe b} plus a tap on src: the readers see
        // equal data, and only the last one (the tap) gets the original.
        let (src, buf) = one_chunk_source();
        let (a, b) = (Seen::default(), Seen::default());
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(src));
        df.add_operator(Box::new(Probe(a.clone())), &[src]).unwrap();
        df.add_operator(Box::new(Probe(b.clone())), &[src]).unwrap();
        let tap = df.add_tap(src).unwrap();
        let mut runner = EpochRunner::new(df);
        runner.step(Ts::ZERO).unwrap();
        for probe in [&a, &b] {
            let seen = probe.lock().unwrap();
            assert_eq!(seen.len(), 1);
            assert_ne!(seen[0].0, buf, "an earlier reader got a copy");
            assert_eq!(seen[0].1, vec![1, 2]);
        }
        assert_eq!(
            runner.take_tap(tap)[0].1,
            vec![tup(Ts::ZERO, 1), tup(Ts::ZERO, 2)]
        );

        // Without the tap, the second consumer is the last reader.
        let (src, buf) = one_chunk_source();
        let (a, b) = (Seen::default(), Seen::default());
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(src));
        df.add_operator(Box::new(Probe(a.clone())), &[src]).unwrap();
        df.add_operator(Box::new(Probe(b.clone())), &[src]).unwrap();
        EpochRunner::new(df).step(Ts::ZERO).unwrap();
        let (a, b) = (a.lock().unwrap(), b.lock().unwrap());
        assert_eq!(a[0].1, b[0].1);
        assert_ne!(a[0].0, buf);
        assert_eq!(b[0].0, buf, "the last reader takes the original");
    }

    #[test]
    fn operator_error_propagates() {
        use esp_types::EspError;

        struct Failing;
        impl Stage for Failing {
            fn name(&self) -> &str {
                "failing"
            }
            fn process(&mut self, _e: Ts, _input: Payload) -> Result<Payload> {
                Err(EspError::Stage("injected failure".into()))
            }
        }
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new(
            "s",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 1)])],
        )));
        df.add_operator(Box::new(Failing), &[src]).unwrap();
        let mut runner = EpochRunner::new(df);
        let err = runner
            .run(Ts::ZERO, TimeDelta::from_millis(100), 3)
            .expect_err("failure must propagate");
        assert!(err.to_string().contains("injected failure"), "{err}");
        assert_eq!(runner.epochs_run(), 0, "the failed epoch is not counted");
    }

    #[test]
    fn empty_dataflow_runs() {
        let mut runner = EpochRunner::new(Dataflow::new());
        runner.run(Ts::ZERO, TimeDelta::from_secs(1), 5).unwrap();
        assert_eq!(runner.epochs_run(), 5);
    }
}
