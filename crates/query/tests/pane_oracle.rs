//! Compiled selects against the reference interpreter.
//!
//! Every select also runs under `set_reference_mode(true)`, which keeps its
//! window of rows and rescans it with the name-resolving interpreter every
//! tick. Two classes of select are generated. A mergeable one runs on
//! per-epoch partials; a holistic one (`count(distinct …)`, a registered
//! UDA, a computed key, a non-key column in SELECT, `SELECT * … WHERE`, a
//! projection with arithmetic) rescans its window with the slot-resolved
//! evaluator. Over random input — rows of one schema, or of two with the
//! same columns in different positions, fed by row or by chunk; keys with
//! NULL, NaN and `-0.0`; gapped, repeated and empty ticks — both must emit
//! the same rows in the same order: key values bit for bit, counts, minima,
//! maxima and integer sums exactly. A mergeable select's float sums, means
//! and deviations may reassociate across panes and match within 1e-12
//! relative; a holistic select folds in the reference's order and matches
//! bit for bit. Where the reference fails, the compiled select must fail at
//! the same tick with the same kind of error. After every tick the compiled
//! select is checkpointed and restored into a fresh compile, which must
//! re-encode to the same bytes and carry on as if uninterrupted.
//!
//! `PROPTEST_CASES` sets the number of generated cases (default 256).

use std::sync::Arc;

use esp_query::aggregate::{AggregateFactory, AggregateState, CountFactory};
use esp_query::{ContinuousQuery, Engine};
use esp_types::{chunk_batch, registry, DataType, EspError, Schema, Ts, Tuple, Value};
use proptest::prelude::*;

/// Two layouts of one stream: B moves every column and declares `v_i`
/// as a float, so sums mix integers and floats.
fn schemas() -> [Arc<Schema>; 2] {
    let build = |fields: &[(&str, DataType)]| {
        let mut b = Schema::builder();
        for (name, dt) in fields {
            b = b.field(*name, *dt);
        }
        registry::intern(&b.build().unwrap())
    };
    [
        build(&[
            ("k_s", DataType::Str),
            ("k_i", DataType::Int),
            ("k_f", DataType::Float),
            ("v_i", DataType::Int),
            ("v_f", DataType::Float),
        ]),
        build(&[
            ("note", DataType::Str),
            ("v_f", DataType::Float),
            ("k_i", DataType::Int),
            ("v_i", DataType::Float),
            ("k_s", DataType::Str),
            ("k_f", DataType::Float),
        ]),
    ]
}

/// Raw row: (schema B?, k_s, k_i, k_f, v_i, v_f), each an index into the
/// pools below (the last index of a pool is NULL).
type RawRow = (bool, u8, u8, u8, u8, u8);

const K_S: [&str; 3] = ["a", "b", "c"];
const K_F: [f64; 6] = [-0.0, 0.0, f64::NAN, 1.5, 2.0, 0.0];

fn k_f(i: u8) -> Value {
    match i {
        // A NaN of the other sign: groups with NaN, differs in bits.
        6 => Value::Float(-f64::NAN),
        i => K_F
            .get(i as usize)
            .map_or(Value::Null, |f| Value::Float(*f)),
    }
}

fn arb_row() -> impl Strategy<Value = RawRow> {
    (
        any::<bool>(),
        0u8..4,
        0u8..4,
        0u8..8,
        0u8..12,
        prop_oneof![24 => 0u8..32, 2 => Just(32u8), 1 => Just(33u8)],
    )
}

fn row(ts: Ts, (b, s, i, f, vi, vf): RawRow) -> Tuple {
    let k_s = K_S.get(s as usize).map_or(Value::Null, Value::str);
    let k_i = if i < 3 {
        Value::Int(i as i64)
    } else {
        Value::Null
    };
    let v_i = match vi {
        11 => Value::Null,
        // Dyadic values: every sum of them is exact, in any order.
        v if b => Value::Float(v as f64 * 0.75 - 2.0),
        v => Value::Int(v as i64 - 3),
    };
    let v_f = match vf {
        32 => Value::Null,
        33 => Value::Float(f64::NAN),
        v => Value::Float(0.25 + v as f64 * 0.25),
    };
    let [a, bs] = schemas();
    if b {
        Tuple::new(bs, ts, vec![Value::str("n"), v_f, k_i, v_i, k_s, k_f(f)]).unwrap()
    } else {
        Tuple::new(a, ts, vec![k_s, k_i, k_f(f), v_i, v_f]).unwrap()
    }
}

/// Aggregates the generator draws from, and whether the result may be a
/// float that reassociates across panes.
const AGGS: [(&str, bool); 12] = [
    ("count(*)", false),
    ("count(v_f)", false),
    ("sum(v_i)", true),
    ("sum(v_f)", true),
    ("avg(v_i)", true),
    ("avg(v_f)", true),
    ("stdev(v_f)", true),
    ("min(v_f)", false),
    ("max(v_i)", false),
    ("min(k_s)", false),
    ("max(k_s)", false),
    ("max(v_i * 2)", false),
];

const KEYS: [&str; 3] = ["k_s", "k_i", "k_f"];
const WHERES: [&str; 4] = [
    "v_i > 0",
    "k_s <> 'b'",
    "v_f < 4 OR k_i = 1",
    "NOT (k_i = 2)",
];
const WIDTHS: [&str; 3] = ["NOW", "1 sec", "5 sec"];

/// What turns a generated select holistic, so that it rescans its window
/// instead of folding panes.
#[derive(Debug, Clone, Copy)]
enum Holistic {
    /// `count(distinct k_s)` beside the aggregates.
    Distinct,
    /// The registered UDA `mycount(v_f)` beside the aggregates.
    Uda,
    /// `v_i > 1` as an extra (computed) grouping key, also selected.
    ComputedKey,
    /// `v_f`, neither a key nor aggregated, read off each group's
    /// representative row.
    NonKeyColumn,
    /// `SELECT * … WHERE`: no aggregation.
    Star,
    /// A filtered projection with arithmetic: no aggregation.
    Arithmetic,
}

/// A generated select: (keys, aggregates, WHERE, HAVING, computed item,
/// width) as indices into the tables above, and what makes it holistic
/// (`None`: mergeable).
type Shape = (
    Vec<u8>,
    Vec<u8>,
    Option<u8>,
    Option<u8>,
    Option<u8>,
    u8,
    Option<Holistic>,
);

fn arb_shape() -> impl Strategy<Value = Shape> {
    let base = (
        proptest::collection::vec(0u8..3, 0..3),
        proptest::collection::vec(0u8..AGGS.len() as u8, 1..4),
        proptest::option::of(0u8..WHERES.len() as u8),
        proptest::option::of(0u8..3),
        proptest::option::of(0u8..2),
        0u8..3,
    );
    let holistic = prop_oneof![
        6 => Just(None),
        1 => Just(Some(Holistic::Distinct)),
        1 => Just(Some(Holistic::Uda)),
        1 => Just(Some(Holistic::ComputedKey)),
        1 => Just(Some(Holistic::NonKeyColumn)),
        1 => Just(Some(Holistic::Star)),
        1 => Just(Some(Holistic::Arithmetic)),
    ];
    (base, holistic).prop_map(|((k, a, w, h, c, r), holistic)| (k, a, w, h, c, r, holistic))
}

/// The SQL of a shape, and per output column whether it may be a
/// reassociated float (a column past the list's end may not).
fn sql((keys, aggs, filter, having, computed, width, holistic): &Shape) -> (String, Vec<bool>) {
    let from = format!("FROM s [Range By '{}']", WIDTHS[*width as usize]);
    let filtered = || format!(" WHERE {}", WHERES[filter.unwrap_or(0) as usize]);
    let unaggregated = match holistic {
        Some(Holistic::Star) => Some("*"),
        Some(Holistic::Arithmetic) => Some("k_s, v_i * 2 + k_i AS x, -v_f / 2 AS h"),
        _ => None,
    };
    if let Some(items) = unaggregated {
        return (format!("SELECT {items} {from}{}", filtered()), vec![]);
    }
    let mut keys: Vec<&str> = keys.iter().map(|&k| KEYS[k as usize]).collect();
    keys.dedup();
    keys.sort_unstable();
    keys.dedup();
    let mut items: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    let mut tolerant = vec![false; items.len()];
    for &a in aggs {
        let (agg, tol) = AGGS[a as usize];
        items.push(agg.to_string());
        // A holistic select folds in the reference's order: bit-exact.
        tolerant.push(tol && holistic.is_none());
    }
    match (computed, keys.first()) {
        // An expression over a key: groups need their representative.
        (Some(0), Some(&"k_s")) => items.push("coalesce(k_s, 'none') AS tag".into()),
        (Some(0), Some(&"k_i")) => items.push("k_i * 10 AS scaled".into()),
        (Some(0), Some(_)) => items.push("-k_f AS flipped".into()),
        (Some(_), _) => items.push("count(*) + 1 AS n1".into()),
        (None, _) => {}
    }
    let mut group_by: Vec<&str> = keys.clone();
    match holistic {
        Some(Holistic::Distinct) => items.push("count(distinct k_s) AS nd".into()),
        Some(Holistic::Uda) => items.push("mycount(v_f) AS mc".into()),
        Some(Holistic::ComputedKey) => {
            items.push("v_i > 1 AS big".into());
            group_by.push("v_i > 1");
        }
        Some(Holistic::NonKeyColumn) => items.push("v_f".into()),
        _ => {}
    }
    tolerant.resize(items.len(), false);
    let mut sql = format!("SELECT {} {from}", items.join(", "));
    if filter.is_some() {
        sql += &filtered();
    }
    if !group_by.is_empty() {
        sql += &format!(" GROUP BY {}", group_by.join(", "));
    }
    match (having, keys.first()) {
        (Some(0), _) => sql += " HAVING count(*) > 1",
        (Some(1), _) => sql += " HAVING max(v_i) < 4 OR count(*) = 1",
        (Some(_), Some(&"k_s")) => sql += " HAVING k_s <> 'a'",
        (Some(_), Some(&"k_i")) => sql += " HAVING k_i < 2",
        (Some(_), Some(_)) => sql += " HAVING k_f < 1",
        _ => {}
    }
    (sql, tolerant)
}

/// Exact rendering: floats by bit pattern.
fn exact(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            (x.is_nan() && y.is_nan()) || x == y || (x - y).abs() <= 1e-12 * x.abs().max(y.abs())
        }
        _ => exact(a) == exact(b),
    }
}

/// The variant of an error, which both paths must agree on.
fn kind(e: &EspError) -> String {
    let debug = format!("{e:?}");
    debug.split('(').next().unwrap_or_default().to_string()
}

/// One step: how far the epoch moves (0 = the same epoch again), and the
/// rows pushed before the tick.
type Step = (u8, Vec<RawRow>);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            prop_oneof![2 => Just(0u8), 8 => Just(1u8), 3 => Just(2u8), 1 => Just(7u8)],
            proptest::collection::vec(arb_row(), 0..7),
        ),
        1..18,
    )
}

/// Drive both queries; `chunked` feeds the compiled one through
/// `push_chunk`, and `one_schema` writes every row in layout A.
fn check(shape: &Shape, steps: &[Step], chunked: bool, one_schema: bool) {
    let (sql, tolerant) = sql(shape);
    let mut engine = Engine::new();
    engine.register_aggregate("mycount", Arc::new(MyCount));
    let mut compiled = engine.compile(&sql).unwrap();
    assert_eq!(compiled.is_pane_incremental(), shape.6.is_none(), "{sql}");
    let mut reference = engine.compile(&sql).unwrap();
    reference.set_reference_mode(true);
    assert!(!reference.is_pane_incremental());
    let mut epoch = 0u64;
    for (k, (gap, rows)) in steps.iter().enumerate() {
        epoch += u64::from(*gap) * 1_000;
        let at = Ts::from_millis(epoch);
        let batch: Vec<Tuple> = rows
            .iter()
            .map(|&(b, s, i, f, vi, vf)| row(at, (b && !one_schema, s, i, f, vi, vf)))
            .collect();
        reference.push("s", &batch).unwrap();
        if chunked {
            for c in chunk_batch(&batch) {
                compiled.push_chunk("s", c).unwrap();
            }
        } else {
            compiled.push("s", &batch).unwrap();
        }
        let (got, want) = (compiled.tick(at), reference.tick(at));
        let (got, want) = match (got, want) {
            (Ok(g), Ok(w)) => (g, w),
            (Err(g), Err(w)) => {
                assert_eq!(kind(&g), kind(&w), "{sql}: step {k}: {g} vs {w}");
                return;
            }
            (g, w) => panic!("{sql}: step {k}: compiled {g:?} vs reference {w:?}"),
        };
        assert_eq!(
            got.len(),
            want.len(),
            "{sql}: step {k}: {got:?} vs {want:?}"
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.ts(), w.ts(), "{sql}: step {k}");
            assert_eq!(g.schema().fields(), w.schema().fields(), "{sql}: step {k}");
            for (c, (a, b)) in g.values().iter().zip(w.values()).enumerate() {
                let same = if tolerant.get(c) == Some(&true) {
                    close(a, b)
                } else {
                    exact(a) == exact(b)
                };
                assert!(
                    same,
                    "{sql}: step {k}, column {c}: {a:?} vs {b:?}\n{got:?}\n{want:?}"
                );
            }
        }
        let mut blob = Vec::new();
        compiled.encode_state(&mut blob);
        compiled = engine.compile(&sql).unwrap();
        compiled.restore_state(&blob).unwrap();
        let mut again = Vec::new();
        compiled.encode_state(&mut again);
        assert_eq!(again, blob, "{sql}: step {k}: restored state re-encodes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|n| n.parse().ok())
            .unwrap_or(256),
    })]

    #[test]
    fn incremental_selects_match_the_rescan(
        shape in arb_shape(),
        steps in arb_steps(),
        chunked in any::<bool>(),
        one_schema in any::<bool>(),
    ) {
        check(&shape, &steps, chunked, one_schema);
    }
}

fn any_row(ts: Ts, k: &str, v: Value) -> Tuple {
    let schema = Schema::builder()
        .field("k", DataType::Str)
        .field("v", DataType::Any)
        .build()
        .unwrap();
    Tuple::new(schema, ts, vec![Value::str(k), v]).unwrap()
}

/// Run `sql` over `steps` on both paths and return each path's first
/// error with its step.
fn first_error(sql: &str, steps: &[Vec<Tuple>]) -> [Option<(usize, String)>; 2] {
    let engine = Engine::new();
    let mut panes = engine.compile(sql).unwrap();
    assert!(panes.is_pane_incremental(), "{sql}");
    let mut reference = engine.compile(sql).unwrap();
    reference.set_reference_mode(true);
    [&mut panes, &mut reference].map(|q: &mut ContinuousQuery| {
        steps.iter().enumerate().find_map(|(k, batch)| {
            let at = Ts::from_secs(k as u64);
            q.push("s", batch).unwrap();
            q.tick(at).err().map(|e| (k, e.to_string()))
        })
    })
}

#[test]
fn a_failing_tick_fails_alike() {
    let at = Ts::from_secs;
    // `sum` over a string: the row's own error, at the tick it arrives.
    let steps = vec![
        vec![any_row(at(0), "p", Value::Int(1))],
        vec![any_row(at(1), "q", Value::Float(2.5))],
        vec![],
        vec![
            any_row(at(3), "p", Value::Int(4)),
            any_row(at(3), "q", Value::str("oops")),
        ],
        vec![any_row(at(4), "p", Value::Int(5))],
    ];
    let [panes, rescan] = first_error(
        "SELECT k, sum(v) FROM s [Range By '5 sec'] GROUP BY k",
        &steps,
    );
    assert_eq!(panes, rescan);
    assert_eq!(panes.unwrap().0, 3);

    // `max` over values that only clash across panes: the merge fails
    // where the rescan's fold does, with the same message.
    let steps = vec![
        vec![any_row(at(0), "p", Value::Int(5))],
        vec![any_row(at(1), "p", Value::str("x"))],
    ];
    let [panes, rescan] = first_error(
        "SELECT k, max(v) FROM s [Range By '5 sec'] GROUP BY k",
        &steps,
    );
    assert_eq!(panes, rescan);
    assert_eq!(panes.unwrap().0, 1);

    // A key column the row lacks.
    let narrow = Schema::builder().field("v", DataType::Int).build().unwrap();
    let steps = vec![
        vec![any_row(at(0), "p", Value::Int(1))],
        vec![Tuple::new(narrow, at(1), vec![Value::Int(2)]).unwrap()],
    ];
    let [panes, rescan] = first_error(
        "SELECT k, count(*) FROM s [Range By '5 sec'] GROUP BY k",
        &steps,
    );
    assert_eq!(panes, rescan);
    assert_eq!(panes.unwrap().0, 1);
}

/// A user-defined aggregate: never mergeable.
struct MyCount;

impl AggregateFactory for MyCount {
    fn make(&self) -> Box<dyn AggregateState> {
        CountFactory.make()
    }
}

#[test]
fn classification_picks_the_path_each_shape_needs() {
    let mut engine = Engine::new();
    engine.register_aggregate("mycount", Arc::new(MyCount));
    engine.register_relation("expected", Vec::new());
    let cases = [
        // Paper Query 2 and the shelf cascade's two stages.
        (
            "SELECT spatial_granule, tag_id, count(*) AS n \
             FROM smooth_input [Range By '5 sec'] GROUP BY spatial_granule, tag_id",
            true,
        ),
        (
            "SELECT spatial_granule, tag_id, max(n) AS n \
             FROM merge_input [Range By 'NOW'] GROUP BY spatial_granule, tag_id",
            true,
        ),
        ("SELECT count(*) FROM s [Range By '5 sec']", true),
        (
            "SELECT k, sum(v) + 1, avg(v * 2) FROM s x [Range By '1 sec'] \
             WHERE x.v > 0 GROUP BY x.k HAVING k <> 'a'",
            true,
        ),
        // A UDA folds holistically.
        (
            "SELECT k, mycount(v) FROM s [Range By '5 sec'] GROUP BY k",
            false,
        ),
        // DISTINCT needs the set of values.
        (
            "SELECT k, count(distinct v) FROM s [Range By '5 sec'] GROUP BY k",
            false,
        ),
        // A join.
        (
            "SELECT a.k, count(*) FROM s a [Range By 'NOW'], t b [Range By 'NOW'] \
             WHERE a.k = b.k GROUP BY a.k",
            false,
        ),
        (
            "SELECT s.k, count(*) FROM s [Range By 'NOW'], expected e GROUP BY s.k",
            false,
        ),
        // A derived table.
        (
            "SELECT d.k, count(*) FROM (SELECT k FROM s [Range By 'NOW']) d GROUP BY d.k",
            false,
        ),
        // A quantified subquery.
        (
            "SELECT k FROM s a [Range By 'NOW'] GROUP BY k \
             HAVING count(*) >= ALL(SELECT count(*) FROM s b [Range By 'NOW'] GROUP BY k)",
            false,
        ),
        // A volatile scalar.
        (
            "SELECT k, count(*), now() FROM s [Range By 'NOW'] GROUP BY k",
            false,
        ),
        // A non-key column outside the aggregates.
        (
            "SELECT k, v, count(*) FROM s [Range By 'NOW'] GROUP BY k",
            false,
        ),
        (
            "SELECT k FROM s [Range By 'NOW'] GROUP BY k HAVING v > 1",
            false,
        ),
        ("SELECT v, count(*) FROM s [Range By 'NOW']", false),
        // No aggregation at all.
        ("SELECT * FROM s [Range By 'NOW']", false),
        ("SELECT k FROM s [Range By 'NOW'] WHERE v > 1", false),
        // A computed key.
        (
            "SELECT count(*) FROM s [Range By 'NOW'] GROUP BY v + 1",
            false,
        ),
    ];
    for (sql, mergeable) in cases {
        let q = engine.compile(sql).unwrap();
        assert_eq!(q.is_pane_incremental(), mergeable, "{sql}");
    }
}
