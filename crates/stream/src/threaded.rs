//! Multi-threaded dataflow execution.
//!
//! One thread per node; crossbeam channels are the inter-operator queues
//! (the Fjord architecture's queues made literal). Epoch alignment uses
//! punctuation messages: an operator flushes epoch `t` only after every
//! input edge has delivered its `Punct(t)`. Payloads travel the edges as
//! produced (chunks stay chunks), are buffered per `(epoch, port)` and
//! delivered to the wrapped operator in port order, so the per-epoch output
//! of every node is **identical** to what the single-threaded
//! [`EpochRunner`](crate::EpochRunner) produces — a property the test suite
//! asserts.

use std::thread;

use crossbeam::channel::{bounded, Receiver, Sender};
use esp_types::{Batch, EspError, Result, TimeDelta, Ts};

use crate::graph::{Dataflow, NodeKind};
use crate::operator::Payload;
use crate::stager::EpochStager;
use crate::stats::QueueStats;

/// Message on an inter-node edge.
enum Msg {
    /// A payload produced for `epoch`, destined for input port `port`.
    Data {
        port: usize,
        epoch: Ts,
        payload: Payload,
    },
    /// All data for `epoch` on this edge has been sent.
    Punct(Ts),
}

/// Runs a [`Dataflow`] with one thread per node.
///
/// The inter-operator queues are bounded so a slow consumer exerts
/// back-pressure instead of ballooning memory; the bound is configurable
/// via [`ThreadedRunner::edge_capacity`], and back-pressure events are
/// observable through [`ThreadedRunner::queue_stats`].
pub struct ThreadedRunner {
    edge_capacity: usize,
    queue_stats: QueueStats,
}

impl Default for ThreadedRunner {
    fn default() -> ThreadedRunner {
        ThreadedRunner::new()
    }
}

impl ThreadedRunner {
    /// Default channel capacity per edge.
    pub const DEFAULT_EDGE_CAPACITY: usize = 64;

    /// A runner with the default edge capacity.
    pub fn new() -> ThreadedRunner {
        ThreadedRunner {
            edge_capacity: Self::DEFAULT_EDGE_CAPACITY,
            queue_stats: QueueStats::new(),
        }
    }

    /// Set the per-edge queue capacity (must be nonzero). Smaller values
    /// tighten back-pressure; larger values smooth bursts at the cost of
    /// memory and pipeline slack.
    pub fn edge_capacity(mut self, capacity: usize) -> ThreadedRunner {
        assert!(capacity > 0, "edge capacity must be nonzero");
        self.edge_capacity = capacity;
        self
    }

    /// A handle onto the runner's queue counters. Clone it before
    /// [`execute`](Self::execute) to watch back-pressure live, or read it
    /// afterwards for totals.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue_stats.clone()
    }

    /// Execute with default configuration (compatibility shorthand for
    /// `ThreadedRunner::new().execute(...)`).
    pub fn run(
        df: Dataflow,
        start: Ts,
        period: TimeDelta,
        n_epochs: u64,
    ) -> Result<Vec<Vec<(Ts, Batch)>>> {
        ThreadedRunner::new().execute(df, start, period, n_epochs)
    }

    /// Execute `n_epochs` epochs starting at `start`, spaced `period`
    /// apart. Consumes the dataflow (operators move onto their threads) and
    /// returns one `(epoch, batch)` trace per registered tap, in tap order.
    ///
    /// The graph is statically validated first
    /// ([`Dataflow::validate`]); error-severity diagnostics (e.g. a
    /// zero-input operator, which this runner could never flush) reject
    /// the execution with [`EspError::Invalid`] before any thread spawns.
    pub fn execute(
        &self,
        df: Dataflow,
        start: Ts,
        period: TimeDelta,
        n_epochs: u64,
    ) -> Result<Vec<Vec<(Ts, Batch)>>> {
        let errors: Vec<_> = df.validate().into_iter().filter(|d| d.is_error()).collect();
        if !errors.is_empty() {
            return Err(EspError::Invalid(errors));
        }
        let edge_capacity = self.edge_capacity;
        let n_nodes = df.nodes.len();
        let consumers = df.consumers();
        let taps = df.taps.clone();

        // One inbound channel per node. Sources receive ticks from the
        // driver on the same channel (as Punct messages with empty data).
        let mut txs: Vec<Sender<Msg>> = Vec::with_capacity(n_nodes);
        let mut rxs: Vec<Receiver<Msg>> = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let (tx, rx) = bounded::<Msg>(edge_capacity);
            txs.push(tx);
            rxs.push(rx);
        }
        // Tap collection channel.
        let (tap_tx, tap_rx) = bounded::<(usize, Ts, Batch)>(edge_capacity);

        let mut handles = Vec::with_capacity(n_nodes);
        for ((i, node), rx) in df.nodes.into_iter().enumerate().zip(rxs) {
            let downstream: Vec<(Sender<Msg>, usize)> = consumers[i]
                .iter()
                .map(|(consumer, port)| (txs[consumer.0].clone(), *port))
                .collect();
            let my_taps: Vec<usize> = taps
                .iter()
                .enumerate()
                .filter(|(_, n)| n.0 == i)
                .map(|(tap_idx, _)| tap_idx)
                .collect();
            let tap_tx = (!my_taps.is_empty()).then(|| tap_tx.clone());
            let stats = self.queue_stats.clone();

            let handle = match node.kind {
                NodeKind::Source(mut src) => thread::spawn(move || -> Result<()> {
                    // Driver sends Punct(ts) as the epoch tick.
                    for msg in rx {
                        let Msg::Punct(epoch) = msg else {
                            return Err(EspError::Stage("source received a data message".into()));
                        };
                        let out = src.poll(epoch)?;
                        deliver(&downstream, &tap_tx, &my_taps, epoch, out, &stats)?;
                    }
                    Ok(())
                }),
                NodeKind::Operator { mut op, inputs } => {
                    let n_edges = inputs.len();
                    thread::spawn(move || -> Result<()> {
                        // Per-epoch staging: payloads per port + punct count
                        // (the same state machine the model checker drives).
                        let mut stager: EpochStager<Payload> = EpochStager::new(n_edges);
                        for msg in rx {
                            match msg {
                                Msg::Data {
                                    port,
                                    epoch,
                                    payload,
                                } => stager.batch(epoch, port, payload),
                                Msg::Punct(epoch) => {
                                    if let Some(ports) = stager.punct(epoch) {
                                        // Deliver in port order for
                                        // determinism, then flush once.
                                        for (port, payloads) in ports.iter().enumerate() {
                                            for payload in payloads {
                                                op.push(port, payload)?;
                                            }
                                        }
                                        let out = op.flush(epoch)?;
                                        deliver(
                                            &downstream,
                                            &tap_tx,
                                            &my_taps,
                                            epoch,
                                            out,
                                            &stats,
                                        )?;
                                    }
                                }
                            }
                        }
                        Ok(())
                    })
                }
            };
            handles.push(handle);
        }
        // The runner's own clones of the inbound senders: retain only the
        // source ticks; dropping the rest closes operator channels once
        // their upstreams finish.
        drop(tap_tx);
        let source_txs: Vec<Option<Sender<Msg>>> = txs
            .into_iter()
            .enumerate()
            .map(|(i, tx)| consumers.get(i).map(|_| tx))
            .collect();
        // Identify sources: nodes with no inbound edges from other nodes.
        // (Only sources are ticked; operator channels are fed by upstreams.)
        let mut is_source = vec![true; n_nodes];
        for cons in &consumers {
            for (c, _) in cons {
                is_source[c.0] = false;
            }
        }

        // Drive the ticks. Collect taps concurrently to avoid deadlock on
        // the bounded tap channel.
        let collector = thread::spawn(move || {
            let mut collected: Vec<Vec<(Ts, Batch)>> = vec![Vec::new(); taps.len()];
            for (tap_idx, epoch, batch) in tap_rx {
                collected[tap_idx].push((epoch, batch));
            }
            // Tap messages may interleave across taps; order within a tap
            // is already monotone because each node emits epochs in order.
            collected
        });

        let mut t = start;
        for _ in 0..n_epochs {
            for (i, tx) in source_txs.iter().enumerate() {
                if is_source[i] {
                    if let Some(tx) = tx {
                        if tx.send(Msg::Punct(t)).is_err() {
                            // A worker failed; fall through to join for the error.
                            break;
                        }
                    }
                }
            }
            t += period;
        }
        drop(source_txs);

        let mut first_err = None;
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err.or(Some(EspError::Stage("worker thread panicked".into())))
                }
            }
        }
        let collected = collector
            .join()
            .map_err(|_| EspError::Stage("tap collector panicked".into()))?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(collected),
        }
    }
}

/// Send `out` downstream (payload + punctuation per edge) and, in row
/// form, to taps, counting queue-full (back-pressure) events.
fn deliver(
    downstream: &[(Sender<Msg>, usize)],
    tap_tx: &Option<Sender<(usize, Ts, Batch)>>,
    my_taps: &[usize],
    epoch: Ts,
    out: Payload,
    stats: &QueueStats,
) -> Result<()> {
    if let Some(tap_tx) = tap_tx {
        for &tap_idx in my_taps {
            tap_tx
                .send((tap_idx, epoch, out.rows().into_owned()))
                .map_err(|_| EspError::Stage("tap collector hung up".into()))?;
        }
    }
    for (tx, port) in downstream {
        // Empty payloads are elided; the punct alone closes the epoch.
        if !out.is_empty() {
            send_counted(
                tx,
                Msg::Data {
                    port: *port,
                    epoch,
                    payload: out.clone(),
                },
                stats,
            )?;
        }
        send_counted(tx, Msg::Punct(epoch), stats)?;
    }
    Ok(())
}

/// Send on a bounded edge, recording whether the queue was full.
fn send_counted(tx: &Sender<Msg>, msg: Msg, stats: &QueueStats) -> Result<()> {
    use crossbeam::channel::TrySendError;
    match tx.try_send(msg) {
        Ok(()) => {
            stats.record_send();
            Ok(())
        }
        Err(TrySendError::Full(msg)) => {
            stats.record_blocked();
            tx.send(msg)
                .map_err(|_| EspError::Stage("downstream hung up".into()))
        }
        Err(TrySendError::Disconnected(_)) => Err(EspError::Stage("downstream hung up".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dataflow;
    use crate::operator::ScriptedSource;
    use crate::ops::{FilterOp, UnionOp};
    use crate::EpochRunner;
    use esp_types::{DataType, Schema, Tuple, Value};

    fn tup(ts: Ts, v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, ts, vec![Value::Int(v)]).unwrap()
    }

    /// Build the same diamond dataflow twice (dataflows are not Clone since
    /// they own operators).
    fn diamond() -> (Dataflow, crate::TapId) {
        let mut df = Dataflow::new();
        let script: Vec<(Ts, Batch)> = (0..20u64)
            .map(|i| {
                let ts = Ts::from_millis(i * 100);
                (ts, vec![tup(ts, i as i64), tup(ts, (i * 7 % 5) as i64)])
            })
            .collect();
        let src = df.add_source(Box::new(ScriptedSource::new("s", script)));
        let small = df
            .add_operator(
                Box::new(FilterOp::new("small", |t: &Tuple| {
                    t.value(0).as_i64().unwrap() < 5
                })),
                &[src],
            )
            .unwrap();
        let big = df
            .add_operator(
                Box::new(FilterOp::new("big", |t: &Tuple| {
                    t.value(0).as_i64().unwrap() >= 5
                })),
                &[src],
            )
            .unwrap();
        let u = df
            .add_operator(Box::new(UnionOp::new(2)), &[small, big])
            .unwrap();
        let tap = df.add_tap(u).unwrap();
        (df, tap)
    }

    #[test]
    fn threaded_matches_single_threaded() {
        let (df1, tap1) = diamond();
        let mut single = EpochRunner::new(df1);
        single
            .run(Ts::ZERO, TimeDelta::from_millis(100), 20)
            .unwrap();
        let expected = single.take_tap(tap1);

        let (df2, tap2) = diamond();
        let traces = ThreadedRunner::run(df2, Ts::ZERO, TimeDelta::from_millis(100), 20).unwrap();
        let got = &traces[tap2.0];
        assert_eq!(got.len(), expected.len());
        for ((te, be), (tg, bg)) in expected.iter().zip(got.iter()) {
            assert_eq!(te, tg);
            assert_eq!(be, bg, "epoch {te} outputs diverge");
        }
    }

    /// Two chunk sources → union → an operator that refuses rows → tap.
    fn chunk_dataflow() -> (Dataflow, crate::TapId) {
        use crate::ops::SegBuf;
        use crate::ScriptedChunkSource;
        use esp_types::Chunk;

        struct ChunksOnly(SegBuf);
        impl crate::Operator for ChunksOnly {
            fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
                if matches!(input, Payload::Rows(rows) if !rows.is_empty()) {
                    return Err(EspError::Stage("chunk dataflow demoted to rows".into()));
                }
                self.0.push(input.clone());
                Ok(())
            }
            fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
                Ok(self.0.take())
            }
        }

        let script = |offset: i64| -> Vec<(Ts, Chunk)> {
            // Every third epoch is silent, so empty epochs are covered too.
            (0..20u64)
                .filter(|i| i % 3 != 2)
                .map(|i| {
                    let ts = Ts::from_millis(i * 100);
                    let rows = [tup(ts, i as i64 + offset), tup(ts, offset)];
                    (ts, Chunk::from_tuples(rows[0].schema(), &rows).unwrap())
                })
                .collect()
        };
        let mut df = Dataflow::new();
        let a = df.add_source(Box::new(ScriptedChunkSource::new("a", script(0))));
        let b = df.add_source(Box::new(ScriptedChunkSource::new("b", script(100))));
        let u = df.add_operator(Box::new(UnionOp::new(2)), &[a, b]).unwrap();
        let only = df
            .add_operator(Box::new(ChunksOnly(SegBuf::default())), &[u])
            .unwrap();
        let tap = df.add_tap(only).unwrap();
        (df, tap)
    }

    #[test]
    fn chunk_dataflow_runs_identically_under_both_runners() {
        let (df1, tap1) = chunk_dataflow();
        let mut single = EpochRunner::new(df1);
        single
            .run(Ts::ZERO, TimeDelta::from_millis(100), 20)
            .unwrap();
        let expected = single.take_tap(tap1);
        assert_eq!(expected.iter().map(|(_, b)| b.len()).sum::<usize>(), 56);

        let (df2, tap2) = chunk_dataflow();
        let traces = ThreadedRunner::run(df2, Ts::ZERO, TimeDelta::from_millis(100), 20).unwrap();
        assert_eq!(&traces[tap2.0], &expected);
    }

    #[test]
    fn tiny_edge_capacity_matches_and_reports_backpressure() {
        let (df1, tap1) = diamond();
        let mut single = EpochRunner::new(df1);
        single
            .run(Ts::ZERO, TimeDelta::from_millis(100), 20)
            .unwrap();
        let expected = single.take_tap(tap1);

        // Capacity 1 forces the producers to block constantly; the output
        // must still be byte-identical, and the stats must show sends.
        let (df2, tap2) = diamond();
        let runner = ThreadedRunner::new().edge_capacity(1);
        let stats = runner.queue_stats();
        let traces = runner
            .execute(df2, Ts::ZERO, TimeDelta::from_millis(100), 20)
            .unwrap();
        assert_eq!(&traces[tap2.0], &expected);
        assert!(stats.sends() > 0, "counted no sends");
        assert!(stats.blocked() <= stats.sends());
    }

    #[test]
    #[should_panic(expected = "edge capacity must be nonzero")]
    fn zero_edge_capacity_rejected() {
        let _ = ThreadedRunner::new().edge_capacity(0);
    }

    #[test]
    fn worker_error_propagates() {
        let mut df = Dataflow::new();
        let src = df.add_source(Box::new(ScriptedSource::new(
            "s",
            vec![(Ts::ZERO, vec![tup(Ts::ZERO, 1)])],
        )));
        struct Failing;
        impl crate::Operator for Failing {
            fn push(&mut self, _p: usize, _b: &Payload) -> Result<()> {
                Err(EspError::Stage("injected failure".into()))
            }
            fn flush(&mut self, _e: Ts) -> Result<Payload> {
                Ok(Payload::empty())
            }
        }
        df.add_operator(Box::new(Failing), &[src]).unwrap();
        let err = ThreadedRunner::run(df, Ts::ZERO, TimeDelta::from_millis(100), 3)
            .expect_err("failure must propagate");
        assert!(err.to_string().contains("injected failure") || matches!(err, EspError::Stage(_)));
    }

    #[test]
    fn zero_input_operator_rejected_before_execution() {
        let mut df = Dataflow::new();
        let z = df.add_operator(Box::new(UnionOp::new(0)), &[]).unwrap();
        df.add_tap(z).unwrap();
        let err = ThreadedRunner::run(df, Ts::ZERO, TimeDelta::from_secs(1), 3)
            .expect_err("invalid graph must be rejected");
        match err {
            EspError::Invalid(diags) => {
                assert!(diags.iter().any(|d| d.code == "E0404"), "{diags:?}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn empty_dataflow_runs() {
        let df = Dataflow::new();
        let traces = ThreadedRunner::run(df, Ts::ZERO, TimeDelta::from_secs(1), 5).unwrap();
        assert!(traces.is_empty());
    }
}
