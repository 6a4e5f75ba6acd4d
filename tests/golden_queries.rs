//! Golden-equivalence suite for the query engine.
//!
//! Each scenario drives the engine (or a full declarative pipeline) over a
//! deterministic multi-epoch input and renders the complete output trace —
//! schema, row order, values, timestamps — into a stable text form that is
//! compared byte-for-byte against a fixture under `tests/golden/`.
//!
//! The fixtures were captured from the string-resolving interpreter
//! *before* the slot-compiled executor landed; the suite pins the refactor
//! to be observationally invisible (tuple-for-tuple identical output).
//!
//! Every engine scenario is driven four ways — row `push` (a conversion
//! onto the chunk staging), `push_chunk`, rows under
//! `set_reference_mode(true)` (the unpruned name-resolving interpreter),
//! and rows with the query checkpointed and restored into a fresh compile
//! after every tick — and each trace must match the one stored fixture.
//!
//! Regenerate with `ESP_GOLDEN_REGEN=1 cargo test --test golden_queries`
//! — but only do that deliberately: a diff here means the engine's
//! observable semantics changed.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use esp_core::{
    ArbitrateStage, DeclarativeStage, DeploymentSpec, EspProcessor, Pipeline, ReceptorBinding,
    TieBreak,
};
use esp_integration_tests::{build_processor, with_type};
use esp_query::Engine;
use esp_receptors::rfid::ShelfScenario;
use esp_types::{
    chunk_batch, Batch, DataType, ReceptorType, Schema, Ts, Tuple, TupleBuilder, Value,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Render a value in a stable, round-trip-faithful text form.
fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bool(b) => format!("bool:{b}"),
        Value::Int(i) => format!("int:{i}"),
        // `{:?}` prints the shortest representation that round-trips, so
        // the fixture is bit-exact for floats.
        Value::Float(f) => format!("float:{f:?}"),
        Value::Str(s) => format!("str:{}", s.escape_default()),
        Value::Ts(t) => format!("ts:{}", t.as_millis()),
    }
}

fn render_schema(schema: &Schema) -> String {
    schema
        .fields()
        .iter()
        .map(|f| format!("{}:{:?}", f.name, f.data_type))
        .collect::<Vec<_>>()
        .join(",")
}

/// Render an output trace: one `epoch` header per tick, one line per tuple
/// (timestamp, schema, values) in emission order.
fn render_trace(trace: &[(Ts, Batch)]) -> String {
    let mut out = String::new();
    for (epoch, batch) in trace {
        let _ = writeln!(out, "epoch {} ({} rows)", epoch.as_millis(), batch.len());
        for t in batch {
            let vals = t
                .values()
                .iter()
                .map(render_value)
                .collect::<Vec<_>>()
                .join("|");
            let _ = writeln!(
                out,
                "  ts={} [{}] {}",
                t.ts().as_millis(),
                render_schema(t.schema()),
                vals
            );
        }
    }
    out
}

fn check_golden(name: &str, rendered: &str, failures: &mut Vec<String>) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var("ESP_GOLDEN_REGEN").is_ok() {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(&path, rendered).expect("write golden fixture");
        return;
    }
    match fs::read_to_string(&path) {
        Ok(expected) => {
            if expected != rendered {
                failures.push(format!(
                    "{name}: output diverged from golden fixture {}\n--- expected\n{expected}\n--- got\n{rendered}",
                    path.display()
                ));
            }
        }
        Err(e) => failures.push(format!(
            "{name}: missing golden fixture {} ({e}); run with ESP_GOLDEN_REGEN=1",
            path.display()
        )),
    }
}

// ---------------------------------------------------------------------------
// Deterministic input builders
// ---------------------------------------------------------------------------

fn schema(fields: &[(&str, DataType)]) -> Arc<Schema> {
    let mut b = Schema::builder();
    for (n, t) in fields {
        b = b.field(*n, *t);
    }
    b.build().unwrap()
}

fn row(s: &Arc<Schema>, ts: Ts, vals: &[(&str, Value)]) -> Tuple {
    let mut b = TupleBuilder::new(s, ts);
    for (n, v) in vals {
        b = b.set(n, v.clone()).unwrap();
    }
    b.build().unwrap()
}

/// Per step: the epoch (ms) and the batches to push before ticking at it.
type Steps = Vec<(u64, Vec<(&'static str, Batch)>)>;

/// One engine scenario: a query and its deterministic multi-epoch input.
struct QueryScenario {
    engine: Engine,
    sql: &'static str,
    steps: Steps,
}

/// How a scenario's batches reach the engine.
#[derive(Debug, Clone, Copy)]
enum Ingest {
    /// `push(rows)`.
    Rows,
    /// `push_chunk`, one chunk per run of equal schemas.
    Chunks,
    /// `push(rows)` under `set_reference_mode(true)`.
    Reference,
    /// `push(rows)`, and after every tick the query's state moves into a
    /// fresh compile (`encode_state` → `restore_state`), which must
    /// re-encode to the same bytes.
    Restored,
}

fn query_scenario(engine: Engine, sql: &'static str, steps: Steps) -> QueryScenario {
    QueryScenario { engine, sql, steps }
}

impl QueryScenario {
    /// Drive the query: per step, push the given batches and tick at the
    /// epoch.
    fn run(&self, ingest: Ingest) -> Vec<(Ts, Batch)> {
        let mut q = self.engine.compile(self.sql).expect("query compiles");
        q.set_reference_mode(matches!(ingest, Ingest::Reference));
        let mut trace = Vec::new();
        for (epoch_ms, feeds) in &self.steps {
            let epoch = Ts::from_millis(*epoch_ms);
            for (stream, batch) in feeds {
                match ingest {
                    Ingest::Rows | Ingest::Reference | Ingest::Restored => {
                        q.push(stream, batch).expect("push batch")
                    }
                    Ingest::Chunks => {
                        for chunk in chunk_batch(batch) {
                            q.push_chunk(stream, chunk).expect("push chunk");
                        }
                    }
                }
            }
            trace.push((epoch, q.tick(epoch).expect("tick")));
            if let Ingest::Restored = ingest {
                let mut blob = Vec::new();
                q.encode_state(&mut blob);
                q = self.engine.compile(self.sql).expect("query compiles");
                q.restore_state(&blob).expect("state restores");
                let mut again = Vec::new();
                q.encode_state(&mut again);
                assert_eq!(again, blob, "a restored query re-encodes alike");
            }
        }
        trace
    }
}

// ---------------------------------------------------------------------------
// Query scenarios (paper Queries 1-6 + semantics the stages rely on)
// ---------------------------------------------------------------------------

fn q1_shelf_counts() -> QueryScenario {
    let s = schema(&[("shelf", DataType::Int), ("tag_id", DataType::Str)]);
    let mk = |ts: u64, shelf: i64, tag: &str| {
        row(
            &s,
            Ts::from_millis(ts),
            &[("shelf", Value::Int(shelf)), ("tag_id", Value::str(tag))],
        )
    };
    query_scenario(
        Engine::new(),
        "SELECT shelf, count(distinct tag_id)
         FROM rfid_data [Range By '5 sec']
         GROUP BY shelf",
        vec![
            (
                0,
                vec![(
                    "rfid_data",
                    vec![mk(0, 0, "a"), mk(0, 0, "a"), mk(0, 0, "b"), mk(0, 1, "c")],
                )],
            ),
            (1_000, vec![("rfid_data", vec![mk(1_000, 1, "a")])]),
            (2_000, vec![]),
            (
                6_000,
                vec![("rfid_data", vec![mk(6_000, 0, "b"), mk(6_000, 2, "d")])],
            ),
            (12_000, vec![]),
        ],
    )
}

fn q2_smooth_interpolation() -> QueryScenario {
    let s = schema(&[("receptor_id", DataType::Int), ("tag_id", DataType::Str)]);
    let mk = |ts: u64, tag: &str| {
        row(
            &s,
            Ts::from_millis(ts),
            &[("receptor_id", Value::Int(0)), ("tag_id", Value::str(tag))],
        )
    };
    // Tag seen at t=0 and t=2; dropped otherwise — the 5 s window smooths
    // over the dropouts and the count decays as sightings age out.
    let mut steps = Vec::new();
    for sec in 0..10u64 {
        let feeds = if sec == 0 || sec == 2 {
            vec![(
                "smooth_input",
                vec![mk(sec * 1_000, "a"), mk(sec * 1_000, "b")],
            )]
        } else {
            vec![]
        };
        steps.push((sec * 1_000, feeds));
    }
    query_scenario(
        Engine::new(),
        "SELECT tag_id, count(*)
         FROM smooth_input [Range By '5 sec']
         GROUP BY tag_id",
        steps,
    )
}

fn q3_arbitrate_majority() -> QueryScenario {
    let s = schema(&[
        ("spatial_granule", DataType::Str),
        ("tag_id", DataType::Str),
    ]);
    let mk = |ts: u64, g: &str, tag: &str| {
        row(
            &s,
            Ts::from_millis(ts),
            &[
                ("spatial_granule", Value::str(g)),
                ("tag_id", Value::str(tag)),
            ],
        )
    };
    query_scenario(
        Engine::new(),
        "SELECT spatial_granule, tag_id
         FROM arbitrate_input ai1 [Range By 'NOW']
         GROUP BY spatial_granule, tag_id
         HAVING count(*) >= ALL(SELECT count(*)
                                FROM arbitrate_input ai2 [Range By 'NOW']
                                WHERE ai1.tag_id = ai2.tag_id
                                GROUP BY spatial_granule)",
        vec![
            // Majority case: x belongs to shelf0, y to shelf1.
            (
                0,
                vec![(
                    "arbitrate_input",
                    vec![
                        mk(0, "shelf0", "x"),
                        mk(0, "shelf0", "x"),
                        mk(0, "shelf0", "x"),
                        mk(0, "shelf1", "x"),
                        mk(0, "shelf1", "y"),
                    ],
                )],
            ),
            // Tie case: both granules keep the tag.
            (
                1_000,
                vec![(
                    "arbitrate_input",
                    vec![mk(1_000, "shelf0", "x"), mk(1_000, "shelf1", "x")],
                )],
            ),
            // Empty epoch: now-windows drain.
            (2_000, vec![]),
        ],
    )
}

fn q4_point_filter() -> QueryScenario {
    let s = schema(&[("receptor_id", DataType::Int), ("temp", DataType::Float)]);
    let mk = |ts: u64, v: Value| {
        row(
            &s,
            Ts::from_millis(ts),
            &[("receptor_id", Value::Int(1)), ("temp", v)],
        )
    };
    query_scenario(
        Engine::new(),
        "SELECT * FROM point_input WHERE temp < 50",
        vec![
            (
                0,
                vec![(
                    "point_input",
                    vec![
                        mk(0, Value::Float(22.0)),
                        mk(0, Value::Float(104.0)),
                        mk(0, Value::Float(49.9)),
                        // NULL temp: rejected by the collapsed ternary filter.
                        mk(0, Value::Null),
                    ],
                )],
            ),
            (1_000, vec![("point_input", vec![mk(1_000, Value::Int(7))])]),
            (2_000, vec![]),
        ],
    )
}

fn q5_outlier_join() -> QueryScenario {
    let s = schema(&[
        ("spatial_granule", DataType::Str),
        ("temp", DataType::Float),
    ]);
    let mk = |ts: u64, g: &str, v: f64| {
        row(
            &s,
            Ts::from_millis(ts),
            &[
                ("spatial_granule", Value::str(g)),
                ("temp", Value::Float(v)),
            ],
        )
    };
    query_scenario(
        Engine::new(),
        "SELECT s.spatial_granule, avg(s.temp)
         FROM merge_input s [Range By '5 min'],
              (SELECT spatial_granule, avg(temp) AS avg_t, stdev(temp) AS stdev_t
               FROM merge_input [Range By '5 min']
               GROUP BY spatial_granule) AS a
         WHERE a.spatial_granule = s.spatial_granule AND
               s.temp <= a.avg_t + a.stdev_t AND
               s.temp >= a.avg_t - a.stdev_t
         GROUP BY s.spatial_granule",
        vec![
            (
                0,
                vec![(
                    "merge_input",
                    vec![
                        mk(0, "room0", 20.0),
                        mk(0, "room0", 21.0),
                        mk(0, "room0", 104.0),
                        mk(0, "room1", 18.0),
                        mk(0, "room1", 18.5),
                    ],
                )],
            ),
            (
                60_000,
                vec![("merge_input", vec![mk(60_000, "room0", 20.5)])],
            ),
            (120_000, vec![]),
        ],
    )
}

fn q6_person_votes() -> QueryScenario {
    let s = schema(&[("vote", DataType::Int)]);
    let mk = |ts: u64, v: i64| row(&s, Ts::from_millis(ts), &[("vote", Value::Int(v))]);
    query_scenario(
        Engine::new(),
        "SELECT 'Person-in-room' AS event FROM votes [Range By 'NOW'] HAVING sum(vote) >= 2",
        vec![
            (0, vec![("votes", vec![mk(0, 1), mk(0, 0), mk(0, 1)])]),
            (1_000, vec![("votes", vec![mk(1_000, 1)])]),
            (
                2_000,
                vec![("votes", vec![mk(2_000, 1), mk(2_000, 1), mk(2_000, 1)])],
            ),
        ],
    )
}

fn joins_and_qualifiers() -> QueryScenario {
    let s = schema(&[("v", DataType::Int)]);
    let mk = |ts: u64, v: i64| row(&s, Ts::from_millis(ts), &[("v", Value::Int(v))]);
    query_scenario(
        Engine::new(),
        "SELECT l.v AS left_v, r.v AS right_v, l.v * 10 + r.v AS combo
         FROM t l [Range By 'NOW'], t r [Range By 'NOW']
         WHERE l.v < r.v",
        vec![
            (0, vec![("t", vec![mk(0, 1), mk(0, 2), mk(0, 3)])]),
            (1_000, vec![("t", vec![mk(1_000, 5)])]),
            (2_000, vec![]),
        ],
    )
}

fn equi_join_two_streams() -> QueryScenario {
    let sa = schema(&[("k", DataType::Str), ("a", DataType::Int)]);
    let sb = schema(&[("k", DataType::Str), ("b", DataType::Int)]);
    let mka = |ts: u64, k: &str, a: i64| {
        row(
            &sa,
            Ts::from_millis(ts),
            &[("k", Value::str(k)), ("a", Value::Int(a))],
        )
    };
    let mkb = |ts: u64, k: Value, b: i64| {
        row(&sb, Ts::from_millis(ts), &[("k", k), ("b", Value::Int(b))])
    };
    query_scenario(
        Engine::new(),
        "SELECT x.k, x.a, y.b
         FROM left_s x [Range By '5 sec'], right_s y [Range By 'NOW']
         WHERE x.k = y.k AND x.a + y.b > 3",
        vec![
            (
                0,
                vec![
                    (
                        "left_s",
                        vec![mka(0, "p", 1), mka(0, "q", 2), mka(0, "p", 3)],
                    ),
                    (
                        "right_s",
                        vec![
                            mkb(0, Value::str("p"), 1),
                            mkb(0, Value::str("q"), 9),
                            // NULL key never joins.
                            mkb(0, Value::Null, 100),
                        ],
                    ),
                ],
            ),
            (
                1_000,
                vec![("right_s", vec![mkb(1_000, Value::str("p"), 7)])],
            ),
            (2_000, vec![]),
        ],
    )
}

fn relation_membership() -> QueryScenario {
    let s = schema(&[("tag_id", DataType::Str)]);
    let mk = |ts: u64, tag: &str| row(&s, Ts::from_millis(ts), &[("tag_id", Value::str(tag))]);
    let mut engine = Engine::new();
    engine.register_relation(
        "expected",
        vec![mk(0, "badge-1"), mk(0, "badge-2"), mk(0, "badge-3")],
    );
    query_scenario(
        engine,
        "SELECT tag_id FROM t [Range By 'NOW']
         WHERE tag_id IN (SELECT tag_id FROM expected)",
        vec![
            (
                0,
                vec![(
                    "t",
                    vec![mk(0, "badge-1"), mk(0, "errant-9"), mk(0, "badge-3")],
                )],
            ),
            (1_000, vec![("t", vec![mk(1_000, "errant-7")])]),
        ],
    )
}

fn aggregate_zoo() -> QueryScenario {
    let s = schema(&[("g", DataType::Str), ("v", DataType::Float)]);
    let mk = |ts: u64, g: Value, v: Value| row(&s, Ts::from_millis(ts), &[("g", g), ("v", v)]);
    query_scenario(
        Engine::new(),
        "SELECT g, count(*), count(v) AS nn, count(distinct v) AS dv,
                sum(v) AS s, avg(v) AS m, stdev(v) AS sd, min(v) AS lo, max(v) AS hi,
                sum(v) / count(v) AS ratio
         FROM t [Range By '5 sec'] GROUP BY g
         HAVING count(*) > 1",
        vec![
            (
                0,
                vec![(
                    "t",
                    vec![
                        mk(0, Value::str("a"), Value::Float(2.0)),
                        mk(0, Value::str("a"), Value::Float(2.0)),
                        mk(0, Value::str("a"), Value::Null),
                        mk(0, Value::str("a"), Value::Float(4.0)),
                        mk(0, Value::Null, Value::Float(1.0)),
                        mk(0, Value::Null, Value::Float(3.0)),
                        mk(0, Value::str("b"), Value::Float(9.0)),
                    ],
                )],
            ),
            (1_000, vec![]),
            (10_000, vec![]),
        ],
    )
}

fn global_aggregate_and_empty_groups() -> QueryScenario {
    let s = schema(&[("v", DataType::Int)]);
    let mk = |ts: u64, v: i64| row(&s, Ts::from_millis(ts), &[("v", Value::Int(v))]);
    query_scenario(
        Engine::new(),
        "SELECT v, count(*) AS n, sum(v) AS total
         FROM t [Range By 'NOW'] WHERE v > 100",
        vec![
            // WHERE filters everything: the global group still emits one
            // row with NULL field references and zero/NULL aggregates.
            (0, vec![("t", vec![mk(0, 1), mk(0, 2)])]),
            (1_000, vec![("t", vec![mk(1_000, 500)])]),
            (2_000, vec![]),
        ],
    )
}

fn scalar_and_arith_semantics() -> QueryScenario {
    let s = schema(&[("a", DataType::Int), ("b", DataType::Int)]);
    let mk = |ts: u64, a: Value, b: Value| row(&s, Ts::from_millis(ts), &[("a", a), ("b", b)]);
    query_scenario(
        Engine::new(),
        "SELECT coalesce(a, b) AS c, abs(a - b) AS d, a / b AS q, a % b AS m,
                -a AS neg, a + b * 2 AS prec
         FROM t [Range By 'NOW'] WHERE NOT (a = 0 AND b = 0)",
        vec![(
            0,
            vec![(
                "t",
                vec![
                    mk(0, Value::Int(7), Value::Int(2)),
                    mk(0, Value::Null, Value::Int(5)),
                    mk(0, Value::Int(3), Value::Int(0)),
                    mk(0, Value::Int(-4), Value::Int(3)),
                ],
            )],
        )],
    )
}

fn derived_tables_nested() -> QueryScenario {
    let s = schema(&[("v", DataType::Int)]);
    let mk = |ts: u64, v: i64| row(&s, Ts::from_millis(ts), &[("v", Value::Int(v))]);
    query_scenario(
        Engine::new(),
        "SELECT recent.total AS now_count, hist.total AS window_count
         FROM (SELECT count(*) AS total FROM t [Range By 'NOW']) recent,
              (SELECT count(*) AS total FROM t [Range By '10 sec']) hist",
        vec![
            (0, vec![("t", vec![mk(0, 0)])]),
            (1_000, vec![("t", vec![mk(1_000, 1), mk(1_000, 2)])]),
            (2_000, vec![]),
            (3_000, vec![("t", vec![mk(3_000, 3)])]),
        ],
    )
}

/// The same query as [`q1_shelf_counts`] over readings that carry an extra
/// never-read column (the receiver signal strength a shelf reader reports
/// but Query 1 ignores): the engine prunes `rssi` on ingest, and that must
/// be observationally invisible.
fn pruned_shelf_counts() -> QueryScenario {
    let s = schema(&[
        ("shelf", DataType::Int),
        ("tag_id", DataType::Str),
        ("rssi", DataType::Float),
    ]);
    let mk = |ts: u64, shelf: i64, tag: &str, rssi: f64| {
        row(
            &s,
            Ts::from_millis(ts),
            &[
                ("shelf", Value::Int(shelf)),
                ("tag_id", Value::str(tag)),
                ("rssi", Value::Float(rssi)),
            ],
        )
    };
    query_scenario(
        Engine::new(),
        "SELECT shelf, count(distinct tag_id)
         FROM rfid_data [Range By '5 sec']
         GROUP BY shelf",
        vec![
            (
                0,
                vec![(
                    "rfid_data",
                    vec![
                        mk(0, 0, "a", -41.5),
                        mk(0, 0, "a", -47.25),
                        mk(0, 0, "b", -60.0),
                        mk(0, 1, "c", -39.0),
                    ],
                )],
            ),
            (1_000, vec![("rfid_data", vec![mk(1_000, 1, "a", -55.5)])]),
            (2_000, vec![]),
            (
                6_000,
                vec![(
                    "rfid_data",
                    vec![mk(6_000, 0, "b", -44.0), mk(6_000, 2, "d", -70.125)],
                )],
            ),
            (12_000, vec![]),
        ],
    )
}

/// A `*` derived table below a `HAVING … ALL(subquery)`: the subquery
/// must name the column it projects, so pruning stays on and must drop
/// nothing the `*` feeds to it (`rssi` is read only through `d`).
fn star_below_quantified_subquery() -> QueryScenario {
    let s = schema(&[
        ("shelf", DataType::Int),
        ("tag_id", DataType::Str),
        ("rssi", DataType::Float),
    ]);
    let mk = |ts: u64, shelf: i64, tag: &str, rssi: f64| {
        row(
            &s,
            Ts::from_millis(ts),
            &[
                ("shelf", Value::Int(shelf)),
                ("tag_id", Value::str(tag)),
                ("rssi", Value::Float(rssi)),
            ],
        )
    };
    query_scenario(
        Engine::new(),
        "SELECT shelf, count(*) AS n
         FROM rfid_data r [Range By '5 sec']
         WHERE -50 <= ALL(SELECT d.rssi
                          FROM (SELECT * FROM rfid_data [Range By 'NOW']) d
                          WHERE d.tag_id = r.tag_id)
         GROUP BY shelf
         HAVING count(*) >= ALL(SELECT count(*)
                                FROM (SELECT * FROM rfid_data [Range By '5 sec']) d2
                                GROUP BY d2.shelf)",
        vec![
            (
                0,
                vec![(
                    "rfid_data",
                    vec![
                        mk(0, 0, "a", -41.5),
                        mk(0, 0, "b", -60.0),
                        mk(0, 1, "c", -39.0),
                        mk(0, 1, "d", -45.0),
                    ],
                )],
            ),
            (
                1_000,
                vec![(
                    "rfid_data",
                    vec![mk(1_000, 1, "a", -44.0), mk(1_000, 0, "b", -42.0)],
                )],
            ),
            (2_000, vec![]),
            (7_000, vec![("rfid_data", vec![mk(7_000, 2, "e", -70.0)])]),
        ],
    )
}

/// Rows of two different schemas interleaved in one batch: the chunk
/// staging splits them into per-schema runs, the window keeps one segment
/// per run, and the tick reads them in arrival order, losing nothing.
fn mixed_schema_rows() -> QueryScenario {
    let narrow = schema(&[("k", DataType::Str), ("a", DataType::Int)]);
    let wide = schema(&[
        ("k", DataType::Str),
        ("a", DataType::Int),
        ("note", DataType::Str),
    ]);
    let n = |ts: u64, k: &str, a: i64| {
        row(
            &narrow,
            Ts::from_millis(ts),
            &[("k", Value::str(k)), ("a", Value::Int(a))],
        )
    };
    let w = |ts: u64, k: &str, a: i64, note: &str| {
        row(
            &wide,
            Ts::from_millis(ts),
            &[
                ("k", Value::str(k)),
                ("a", Value::Int(a)),
                ("note", Value::str(note)),
            ],
        )
    };
    query_scenario(
        Engine::new(),
        "SELECT k, count(*) AS n, sum(a) AS total
         FROM t [Range By '5 sec'] WHERE a > 0 GROUP BY k",
        vec![
            (
                0,
                vec![(
                    "t",
                    vec![
                        n(0, "p", 1),
                        w(0, "p", 2, "x"),
                        n(0, "q", 3),
                        w(0, "q", -4, "y"),
                    ],
                )],
            ),
            (1_000, vec![("t", vec![w(1_000, "p", 5, "z")])]),
            (2_000, vec![("t", vec![n(2_000, "q", 6)])]),
            (6_000, vec![]),
            (9_000, vec![]),
        ],
    )
}

/// Schemas A, B, A in consecutive epochs of a 5 s window: the window holds
/// three runs of rows, one per layout, and evicts the first A run while
/// the later one stays, keeping arrival order throughout.
fn schema_segments_evict_in_order() -> QueryScenario {
    let a = schema(&[("k", DataType::Str), ("a", DataType::Int)]);
    let b = schema(&[
        ("k", DataType::Str),
        ("a", DataType::Int),
        ("note", DataType::Str),
    ]);
    let ra = |ts: u64, k: &str, v: i64| {
        row(
            &a,
            Ts::from_millis(ts),
            &[("k", Value::str(k)), ("a", Value::Int(v))],
        )
    };
    let rb = |ts: u64, k: &str, v: i64, note: &str| {
        row(
            &b,
            Ts::from_millis(ts),
            &[
                ("k", Value::str(k)),
                ("a", Value::Int(v)),
                ("note", Value::str(note)),
            ],
        )
    };
    query_scenario(
        Engine::new(),
        "SELECT k, a FROM t [Range By '5 sec'] WHERE a > 0",
        vec![
            (0, vec![("t", vec![ra(0, "p", 1), ra(0, "q", 2)])]),
            (
                1_000,
                vec![("t", vec![rb(1_000, "p", 3, "x"), rb(1_000, "r", -4, "y")])],
            ),
            (
                2_000,
                vec![("t", vec![ra(2_000, "q", 5), ra(2_000, "s", 6)])],
            ),
            (5_000, vec![]),
            (6_000, vec![]),
            (7_000, vec![]),
            (8_000, vec![]),
        ],
    )
}

/// `Tuple::new_unchecked` rows whose values disagree with the declared
/// column types (a string and a float in an `Int` column): the packed
/// column promotes to verbatim storage and every value reads back as
/// pushed.
fn type_mismatched_rows() -> QueryScenario {
    let s = schema(&[("k", DataType::Str), ("a", DataType::Int)]);
    let mk = |ts: u64, k: &str, a: Value| {
        Tuple::new_unchecked(Arc::clone(&s), Ts::from_millis(ts), vec![Value::str(k), a])
    };
    query_scenario(
        Engine::new(),
        "SELECT k, a, a = 1 AS is_one FROM t [Range By '2 sec'] WHERE NOT (k = 'drop')",
        vec![
            (
                0,
                vec![(
                    "t",
                    vec![
                        mk(0, "p", Value::Int(1)),
                        mk(0, "q", Value::str("oops")),
                        mk(0, "drop", Value::Int(9)),
                        mk(0, "r", Value::Float(2.5)),
                    ],
                )],
            ),
            (1_000, vec![("t", vec![mk(1_000, "s", Value::Null)])]),
            (2_000, vec![("t", vec![mk(2_000, "t", Value::Bool(true))])]),
            (5_000, vec![]),
        ],
    )
}

// ---------------------------------------------------------------------------
// Pipeline scenarios (declarative stages inside the full processor)
// ---------------------------------------------------------------------------

fn pipeline_declarative_shelf() -> Vec<(Ts, Batch)> {
    let scenario = ShelfScenario::paper(7);
    let period = scenario.config().sample_period;
    let engine = Engine::new();
    let pipeline = Pipeline::builder()
        .per_receptor("smooth", move |_| {
            let q = engine
                .compile(
                    "SELECT spatial_granule, tag_id, count(*) \
                     FROM smooth_input [Range By '5 sec'] \
                     GROUP BY spatial_granule, tag_id",
                )
                .expect("Query 2 compiles");
            Ok(Box::new(DeclarativeStage::new("smooth(Q2)", q)?))
        })
        .global("arbitrate", |_| {
            Ok(Box::new(ArbitrateStage::new(
                "arbitrate",
                TieBreak::Priority(vec![Arc::from("shelf1"), Arc::from("shelf0")]),
            )))
        })
        .build();
    let processor = build_processor(
        &scenario.groups(),
        &pipeline,
        with_type(scenario.sources(), ReceptorType::Rfid),
    )
    .expect("deployment");
    let out = processor
        .run(Ts::ZERO, period, 60 * 1000 / period.as_millis())
        .expect("pipeline runs");
    out.trace
}

fn pipeline_json_deployment() -> Vec<(Ts, Batch)> {
    const DEPLOYMENT: &str = r#"{
        "temporal_granule": "5 sec",
        "groups": [
            { "granule": "shelf0", "receptor_type": "rfid", "members": [0] },
            { "granule": "shelf1", "receptor_type": "rfid", "members": [1] }
        ],
        "stages": [
            { "declarative": {
                "scope": "per_receptor",
                "label": "smooth(Q2)",
                "query": "SELECT spatial_granule, tag_id, count(*) FROM smooth_input [Range By '5 sec'] GROUP BY spatial_granule, tag_id"
            } },
            { "arbitrate": { "tie_break": { "priority": ["shelf1", "shelf0"] } } }
        ]
    }"#;
    let spec = DeploymentSpec::from_json(DEPLOYMENT).expect("valid deployment");
    let scenario = ShelfScenario::paper(41);
    let period = scenario.config().sample_period;
    let engine = Engine::new();
    let receptors = scenario
        .sources()
        .into_iter()
        .map(|(id, src)| ReceptorBinding::new(id, ReceptorType::Rfid, src))
        .collect();
    let processor =
        EspProcessor::deploy(&spec, &engine, receptors).expect("deployment validates and builds");
    let out = processor
        .run(Ts::ZERO, period, 60 * 1000 / period.as_millis())
        .expect("pipeline runs");
    out.trace
}

// ---------------------------------------------------------------------------

/// A named fixture and the function producing what it pins.
type Named<T> = (&'static str, fn() -> T);

#[test]
fn engine_output_matches_golden_fixtures() {
    let scenarios: Vec<Named<QueryScenario>> = vec![
        ("q1_shelf_counts", q1_shelf_counts),
        ("q2_smooth_interpolation", q2_smooth_interpolation),
        ("q3_arbitrate_majority", q3_arbitrate_majority),
        ("q4_point_filter", q4_point_filter),
        ("q5_outlier_join", q5_outlier_join),
        ("q6_person_votes", q6_person_votes),
        ("joins_and_qualifiers", joins_and_qualifiers),
        ("equi_join_two_streams", equi_join_two_streams),
        ("relation_membership", relation_membership),
        ("aggregate_zoo", aggregate_zoo),
        (
            "global_aggregate_and_empty_groups",
            global_aggregate_and_empty_groups,
        ),
        ("scalar_and_arith_semantics", scalar_and_arith_semantics),
        ("derived_tables_nested", derived_tables_nested),
        ("pruned_shelf_counts", pruned_shelf_counts),
        (
            "star_below_quantified_subquery",
            star_below_quantified_subquery,
        ),
        ("mixed_schema_rows", mixed_schema_rows),
        ("type_mismatched_rows", type_mismatched_rows),
        (
            "schema_segments_evict_in_order",
            schema_segments_evict_in_order,
        ),
    ];
    let mut failures = Vec::new();
    for (name, build) in scenarios {
        let scenario = build();
        for ingest in [
            Ingest::Rows,
            Ingest::Chunks,
            Ingest::Reference,
            Ingest::Restored,
        ] {
            let mut diverged = Vec::new();
            check_golden(name, &render_trace(&scenario.run(ingest)), &mut diverged);
            failures.extend(diverged.iter().map(|f| format!("[{ingest:?} ingest] {f}")));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn pipeline_output_matches_golden_fixtures() {
    let scenarios: Vec<Named<Vec<(Ts, Batch)>>> = vec![
        ("pipeline_declarative_shelf", pipeline_declarative_shelf),
        ("pipeline_json_deployment", pipeline_json_deployment),
    ];
    let mut failures = Vec::new();
    for (name, run) in scenarios {
        check_golden(name, &render_trace(&run()), &mut failures);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
