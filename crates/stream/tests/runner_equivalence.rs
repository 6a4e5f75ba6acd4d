//! Property test: on randomly generated dataflow DAGs, the epoch runner's
//! per-epoch output at every node equals a direct evaluation of the DAG's
//! description (the oracle below), epoch by epoch.
//!
//! `PROPTEST_CASES` sets the number of generated cases (default 48).

use proptest::prelude::*;

use esp_stream::ops::{FilterOp, MapOp, PassThrough, UnionOp};
use esp_stream::{Dataflow, EpochRunner, NodeId, ScriptedSource, TapId};
use esp_types::{Batch, Chunk, DataType, Result, Schema, TimeDelta, Ts, Tuple, Value};

/// A reproducible description of a dataflow: built once into a
/// [`Dataflow`] for the runner and evaluated directly by [`oracle`].
#[derive(Debug, Clone)]
struct DagSpec {
    /// Per-source scripts: values per epoch.
    sources: Vec<Vec<Vec<i64>>>,
    /// Operator layer: each entry wires a new node.
    ops: Vec<OpSpec>,
    n_epochs: u64,
}

#[derive(Debug, Clone)]
enum OpSpec {
    /// Keep values with `v % modulus == residue`, fed by `input` (index
    /// into the combined node list: sources first, then ops in order).
    Filter {
        input: usize,
        modulus: i64,
        residue: i64,
    },
    /// Union of 2–3 existing nodes.
    Union { inputs: Vec<usize> },
    /// Pass-through of one node.
    Pass { input: usize },
    /// Whole-chunk map of one node: keeps its even values through the
    /// mask-filter kernel and drops chunks left empty.
    Map { input: usize },
}

const PERIOD_MS: u64 = 100;

fn epoch_ts(e: u64) -> Ts {
    Ts::from_millis(e * PERIOD_MS)
}

fn tuple(ts: Ts, v: i64) -> Tuple {
    let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
    Tuple::new_unchecked(schema, ts, vec![Value::Int(v)])
}

fn keep_evens(c: Chunk) -> Result<Option<Chunk>> {
    let keep: Vec<bool> = (0..c.len())
        .map(|i| {
            c.value_at(i, 0)
                .and_then(|v| v.as_i64())
                .is_some_and(|v| v % 2 == 0)
        })
        .collect();
    let kept = c.filter(&keep)?;
    Ok((!kept.is_empty()).then_some(kept))
}

fn build(spec: &DagSpec) -> (Dataflow, Vec<TapId>) {
    // Tap every node so any divergence anywhere is caught.
    let (df, taps) = build_tapped(spec, |_| true);
    (df, taps.into_iter().flatten().collect())
}

/// Build the spec, tapping node `i` (sources first, then ops) when
/// `tapped(i)`. An untapped node's last consumer takes its output instead
/// of a copy, so sparse taps exercise the runner's move path.
fn build_tapped(spec: &DagSpec, tapped: impl Fn(usize) -> bool) -> (Dataflow, Vec<Option<TapId>>) {
    let mut df = Dataflow::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    for (si, script) in spec.sources.iter().enumerate() {
        let batches: Vec<(Ts, Batch)> = script
            .iter()
            .enumerate()
            .map(|(e, vals)| {
                let ts = epoch_ts(e as u64);
                (ts, vals.iter().map(|v| tuple(ts, *v)).collect())
            })
            .collect();
        nodes.push(df.add_source(Box::new(ScriptedSource::new(format!("s{si}"), batches))));
    }
    for op in &spec.ops {
        let node = match op {
            OpSpec::Filter {
                input,
                modulus,
                residue,
            } => {
                let (m, r) = (*modulus, *residue);
                df.add_operator(
                    Box::new(FilterOp::new("f", move |t: &Tuple| {
                        t.value(0).as_i64().unwrap().rem_euclid(m) == r
                    })),
                    &[nodes[input % nodes.len()]],
                )
                .unwrap()
            }
            OpSpec::Union { inputs } => {
                let ins: Vec<NodeId> = inputs.iter().map(|i| nodes[i % nodes.len()]).collect();
                df.add_operator(Box::new(UnionOp::new(ins.len())), &ins)
                    .unwrap()
            }
            OpSpec::Pass { input } => df
                .add_operator(Box::new(PassThrough::new()), &[nodes[input % nodes.len()]])
                .unwrap(),
            OpSpec::Map { input } => df
                .add_operator(
                    Box::new(MapOp::new("evens", keep_evens)),
                    &[nodes[input % nodes.len()]],
                )
                .unwrap(),
        };
        nodes.push(node);
    }
    let taps = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| tapped(i).then(|| df.add_tap(*n).unwrap()))
        .collect();
    (df, taps)
}

/// Evaluate the spec directly: `out[node][epoch]` is the node's values
/// that epoch. Filter keeps `v mod m == r`, union concatenates its
/// inputs in port order, pass is the identity, map keeps even values; a
/// source emits its script entry for the epoch, or nothing past the
/// script's end.
fn oracle(spec: &DagSpec) -> Vec<Vec<Vec<i64>>> {
    let mut out: Vec<Vec<Vec<i64>>> = spec
        .sources
        .iter()
        .map(|script| {
            (0..spec.n_epochs as usize)
                .map(|e| script.get(e).cloned().unwrap_or_default())
                .collect()
        })
        .collect();
    for op in &spec.ops {
        let n = out.len();
        let per_epoch: Vec<Vec<i64>> = (0..spec.n_epochs as usize)
            .map(|e| match op {
                OpSpec::Filter {
                    input,
                    modulus,
                    residue,
                } => out[input % n][e]
                    .iter()
                    .copied()
                    .filter(|v| v.rem_euclid(*modulus) == *residue)
                    .collect(),
                OpSpec::Union { inputs } => inputs
                    .iter()
                    .flat_map(|i| out[i % n][e].iter().copied())
                    .collect(),
                OpSpec::Pass { input } => out[input % n][e].clone(),
                OpSpec::Map { input } => out[input % n][e]
                    .iter()
                    .copied()
                    .filter(|v| v % 2 == 0)
                    .collect(),
            })
            .collect();
        out.push(per_epoch);
    }
    out
}

fn dag_spec() -> impl Strategy<Value = DagSpec> {
    let script = proptest::collection::vec(proptest::collection::vec(-20i64..20, 0..4), 1..8);
    let sources = proptest::collection::vec(script, 1..4);
    let ops = proptest::collection::vec(
        prop_oneof![
            (any::<usize>(), 1i64..5, 0i64..5).prop_map(|(input, m, r)| OpSpec::Filter {
                input,
                modulus: m,
                residue: r % m,
            }),
            proptest::collection::vec(any::<usize>(), 2..4)
                .prop_map(|inputs| OpSpec::Union { inputs }),
            any::<usize>().prop_map(|input| OpSpec::Pass { input }),
            any::<usize>().prop_map(|input| OpSpec::Map { input }),
        ],
        0..8,
    );
    (sources, ops).prop_map(|(sources, ops)| {
        let n_epochs = sources.iter().map(Vec::len).max().unwrap_or(1) as u64 + 2;
        DagSpec {
            sources,
            ops,
            n_epochs,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|n| n.parse().ok())
            .unwrap_or(48),
    })]

    #[test]
    fn epoch_runner_matches_spec_oracle_on_random_dags(spec in dag_spec()) {
        let expected = oracle(&spec);
        let (df, taps) = build(&spec);
        let mut runner = EpochRunner::new(df);
        runner.run(Ts::ZERO, TimeDelta::from_millis(PERIOD_MS), spec.n_epochs).unwrap();
        prop_assert_eq!(taps.len(), expected.len());
        for (tap, want) in taps.iter().zip(&expected) {
            let got = runner.take_tap(*tap);
            prop_assert_eq!(got.len(), want.len());
            for (e, ((ts, batch), vals)) in got.iter().zip(want).enumerate() {
                let ets = epoch_ts(e as u64);
                prop_assert_eq!(*ts, ets);
                let want_batch: Batch = vals.iter().map(|v| tuple(ets, *v)).collect();
                prop_assert_eq!(batch, &want_batch, "divergence at tap {} epoch {}", tap.index(), ets);
            }
        }
    }

    /// The same oracle with only some nodes tapped: every untapped node's
    /// output is handed to its last consumer by move, yet every tapped
    /// node still sees exactly the oracle's values.
    #[test]
    fn epoch_runner_matches_spec_oracle_with_sparse_taps(
        spec in dag_spec(),
        mask in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let expected = oracle(&spec);
        let (df, taps) = build_tapped(&spec, |i| mask[i % mask.len()]);
        let mut runner = EpochRunner::new(df);
        runner.run(Ts::ZERO, TimeDelta::from_millis(PERIOD_MS), spec.n_epochs).unwrap();
        for (node, (tap, want)) in taps.iter().zip(&expected).enumerate() {
            let Some(tap) = tap else { continue };
            let got = runner.take_tap(*tap);
            prop_assert_eq!(got.len(), want.len());
            for (e, (ts, batch)) in got.iter().enumerate() {
                let want_batch: Batch = want[e].iter().map(|v| tuple(*ts, *v)).collect();
                prop_assert_eq!(batch, &want_batch, "divergence at node {} epoch {}", node, ts);
            }
        }
    }
}
