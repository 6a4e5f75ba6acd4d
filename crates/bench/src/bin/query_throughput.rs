//! query-throughput: the slot-compiled executor vs the reference
//! interpreter, measured in the same process on the same inputs.
//!
//! Four workloads — filter, projection, windowed group-by, and a
//! two-stream equi-join — each driven at several batch sizes per epoch.
//! Every (workload, size) cell runs twice from a fresh compile: once on
//! the compiled path (slot-resolved field references, borrowed window
//! slices, hash join) and once with
//! [`ContinuousQuery::set_reference_mode`] enabled, which strips all
//! resolution and re-runs the original string-resolving, tuple-cloning
//! interpreter. Both modes see byte-identical batches, so the reported
//! speedup isolates the execution path. Emitted row counts are asserted
//! equal across modes.
//!
//! Every cell also runs a **chunk-ingest** arm: the same rows arrive as
//! pre-built columnar chunks ([`ContinuousQuery::push_chunk`], as the
//! gateway's ingest delivers them) and results are drained with
//! [`ContinuousQuery::tick_chunk`]. The row arms enter through
//! [`ContinuousQuery::push`], which converts to chunks and then takes the
//! same path, so `chunk_vs_compiled` prices that conversion (plus the row
//! materialization of the result) — window state is columnar and dead
//! columns are pruned in every arm. Output equality with the row-fed
//! compiled run is asserted.
//!
//! Writes `results/BENCH_query.json`.
//!
//! Usage: `query-throughput [max_rows_per_epoch]` (default 100 000; CI's
//! bench-smoke job passes a small cap to stay under its time budget).

use std::sync::Arc;
use std::time::Instant;

use esp_query::{ContinuousQuery, Engine};
use esp_types::{registry, Batch, Chunk, DataType, Field, Schema, Ts, Tuple, Value};

/// One benchmarked query shape.
struct Workload {
    name: &'static str,
    sql: &'static str,
    streams: &'static [&'static str],
    /// Rows pushed per stream per epoch. The equi-join's reference mode is
    /// an O(n²) cross product, so its sizes stay small enough to finish.
    sizes: &'static [usize],
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "filter",
        sql: "SELECT * FROM s [Range By 'NOW'] WHERE value > 0.5 AND receptor_id < 8",
        streams: &["s"],
        sizes: &[1_000, 10_000, 100_000],
    },
    Workload {
        name: "project",
        sql: "SELECT tag_id, value * 2 AS scaled, receptor_id FROM s [Range By 'NOW']",
        streams: &["s"],
        sizes: &[1_000, 10_000, 100_000],
    },
    Workload {
        name: "group_by",
        sql: "SELECT tag_id, count(*) AS n, avg(value) AS mean \
              FROM s [Range By '5 sec'] GROUP BY tag_id",
        streams: &["s"],
        sizes: &[1_000, 10_000, 100_000],
    },
    Workload {
        name: "equi_join",
        sql: "SELECT a.tag_id, a.value AS av, b.value AS bv \
              FROM a [Range By 'NOW'], b [Range By 'NOW'] \
              WHERE a.tag_id = b.tag_id AND a.receptor_id < b.receptor_id",
        streams: &["a", "b"],
        sizes: &[300, 1_000, 3_000],
    },
];

const EPOCH_MS: u64 = 1_000;
const WARMUP_EPOCHS: u64 = 2;
const MEASURED_EPOCHS: u64 = 4;

fn readings_schema() -> Arc<Schema> {
    registry::intern(
        &Schema::new(vec![
            Field::new("receptor_id", DataType::Int),
            Field::new("tag_id", DataType::Str),
            Field::new("value", DataType::Float),
        ])
        .expect("readings schema"),
    )
}

/// Deterministic splitmix-style generator: the two modes must see the
/// same rows, and reruns must reproduce the same JSON.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn batch(schema: &Arc<Schema>, ts: Ts, n: usize, rng: &mut Rng) -> Batch {
    (0..n)
        .map(|_| {
            let r = rng.next();
            Tuple::new_unchecked(
                Arc::clone(schema),
                ts,
                vec![
                    Value::Int((r % 16) as i64),
                    Value::str(format!("tag-{}", (r >> 8) % 64)),
                    Value::Float(((r >> 16) % 1_000) as f64 / 1_000.0),
                ],
            )
        })
        .collect()
}

/// Push `feeds[epoch][stream]` and tick; returns (secs, rows_in, rows_out).
fn drive(
    q: &mut ContinuousQuery,
    streams: &[&str],
    feeds: &[Vec<Batch>],
    first_epoch: u64,
) -> (f64, u64, u64) {
    let mut rows_in = 0u64;
    let mut rows_out = 0u64;
    let t0 = Instant::now();
    for (e, per_stream) in feeds.iter().enumerate() {
        for (i, name) in streams.iter().enumerate() {
            q.push(name, &per_stream[i]).expect("push batch");
            rows_in += per_stream[i].len() as u64;
        }
        let epoch = Ts::from_millis((first_epoch + e as u64) * EPOCH_MS);
        rows_out += q.tick(epoch).expect("tick").len() as u64;
    }
    (t0.elapsed().as_secs_f64(), rows_in, rows_out)
}

/// Push pre-built chunks and tick on the chunk path; returns
/// (secs, rows_in, rows_out). The chunks exist before the clock starts —
/// mirroring the row arm, whose batches are also pre-materialized, and
/// the gateway, which builds chunks at frame-decode time.
fn drive_chunks(
    q: &mut ContinuousQuery,
    streams: &[&str],
    feeds: &[Vec<Chunk>],
    first_epoch: u64,
) -> (f64, u64, u64) {
    let mut rows_in = 0u64;
    let mut rows_out = 0u64;
    let t0 = Instant::now();
    for (e, per_stream) in feeds.iter().enumerate() {
        for (i, name) in streams.iter().enumerate() {
            rows_in += per_stream[i].len() as u64;
            q.push_chunk(name, per_stream[i].clone())
                .expect("push chunk");
        }
        let epoch = Ts::from_millis((first_epoch + e as u64) * EPOCH_MS);
        rows_out += q.tick_chunk(epoch).expect("tick").len() as u64;
    }
    (t0.elapsed().as_secs_f64(), rows_in, rows_out)
}

fn main() {
    let max_rows: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("max_rows_per_epoch must be a number"))
        .unwrap_or(100_000);

    let engine = Engine::new();
    let schema = readings_schema();
    let mut report = esp_metrics::Report::new(
        "query-throughput: slot-compiled executor vs reference interpreter (same run, same rows)",
    );
    report.scalar("max_rows_per_epoch", max_rows as f64);

    let mut worst_key_speedup = f64::INFINITY;
    let mut worst_chunk_group_by = f64::INFINITY;
    for w in WORKLOADS {
        let sizes: Vec<usize> = w.sizes.iter().copied().filter(|&s| s <= max_rows).collect();
        for &n in &sizes {
            // One shared input trace per cell; both modes replay it.
            let mut rng = Rng(0xE5B0 ^ n as u64);
            let total = WARMUP_EPOCHS + MEASURED_EPOCHS;
            let feeds: Vec<Vec<Batch>> = (0..total)
                .map(|e| {
                    w.streams
                        .iter()
                        .map(|_| batch(&schema, Ts::from_millis(e * EPOCH_MS), n, &mut rng))
                        .collect()
                })
                .collect();
            let (warm, meas) = feeds.split_at(WARMUP_EPOCHS as usize);

            let mut compiled = engine.compile(w.sql).expect("query compiles");
            drive(&mut compiled, w.streams, warm, 0);
            let (secs_c, rows, out_c) = drive(&mut compiled, w.streams, meas, WARMUP_EPOCHS);

            let mut reference = engine.compile(w.sql).expect("query compiles");
            reference.set_reference_mode(true);
            drive(&mut reference, w.streams, warm, 0);
            let (secs_r, _, out_r) = drive(&mut reference, w.streams, meas, WARMUP_EPOCHS);

            assert_eq!(
                out_c, out_r,
                "{} @ {n}: compiled and reference paths must emit the same rows",
                w.name
            );

            let rps_c = rows as f64 / secs_c;
            let rps_r = rows as f64 / secs_r;
            let speedup = rps_c / rps_r;

            // Chunk-ingest arm: same rows, delivered columnar.
            let chunk_feeds: Vec<Vec<Chunk>> = feeds
                .iter()
                .map(|per_stream| {
                    per_stream
                        .iter()
                        .map(|b| Chunk::from_tuples(&schema, b).expect("uniform schema"))
                        .collect()
                })
                .collect();
            let (warm_k, meas_k) = chunk_feeds.split_at(WARMUP_EPOCHS as usize);
            let mut chunked = engine.compile(w.sql).expect("query compiles");
            drive_chunks(&mut chunked, w.streams, warm_k, 0);
            let (secs_k, _, out_k) = drive_chunks(&mut chunked, w.streams, meas_k, WARMUP_EPOCHS);
            assert_eq!(
                out_c, out_k,
                "{} @ {n}: chunk and row paths must emit the same rows",
                w.name
            );
            let rps_k = rows as f64 / secs_k;
            report
                .scalar(format!("{}_{n}_chunk_rows_per_sec", w.name), rps_k)
                .scalar(format!("{}_{n}_chunk_vs_compiled", w.name), rps_k / rps_c);
            println!(
                "{:>10} @ {:>6} rows/epoch: chunk    {:>12.0} rows/s ({:.2}x vs compiled)",
                w.name,
                n,
                rps_k,
                rps_k / rps_c
            );
            if w.name == "group_by" {
                worst_chunk_group_by = worst_chunk_group_by.min(rps_k / rps_c);
            }

            if w.name == "group_by" || w.name == "equi_join" {
                worst_key_speedup = worst_key_speedup.min(speedup);
            }
            report
                .scalar(format!("{}_{n}_compiled_rows_per_sec", w.name), rps_c)
                .scalar(format!("{}_{n}_reference_rows_per_sec", w.name), rps_r)
                .scalar(format!("{}_{n}_speedup", w.name), speedup)
                .scalar(format!("{}_{n}_rows_out", w.name), out_c as f64);
            println!(
                "{:>10} @ {:>6} rows/epoch: compiled {:>12.0} rows/s, reference {:>12.0} rows/s \
                 ({speedup:.2}x, {out_c} rows out)",
                w.name, n, rps_c, rps_r
            );
        }
    }

    println!(
        "target >= 2x on windowed group-by and equi-join: {} (worst {:.2}x)",
        if worst_key_speedup >= 2.0 {
            "MET"
        } else {
            "MISSED"
        },
        worst_key_speedup
    );
    println!("chunk ingest vs row ingest on windowed group-by: worst {worst_chunk_group_by:.2}x");
    println!("{}", report.render_text());
    report
        .write_json(std::path::Path::new("results"), "BENCH_query")
        .expect("write results/BENCH_query.json");
    println!("wrote results/BENCH_query.json");
}
