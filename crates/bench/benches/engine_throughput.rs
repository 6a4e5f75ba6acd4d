//! Throughput of the declarative engine on the paper's queries:
//! tuples/second through a compiled continuous query, per query shape.
//!
//! The cases exercise both execution classes. `smooth_query2` (paper
//! Query 2, a mergeable `count(*) … GROUP BY`) folds each arrival once into
//! per-epoch panes. `point_filter` (no aggregate), `query1_count_distinct`
//! (`DISTINCT` needs the set of values) and `arbitrate_query3` (a
//! correlated `>= ALL` subquery) are holistic and rescan their window
//! every tick; `arbitrate_query3` also rescans its subquery's window once
//! per outer group.
//!
//! Run with `cargo bench -p esp-bench --bench engine_throughput`; a free
//! argument filters by case name.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use esp_query::Engine;
use esp_types::{well_known, TimeDelta, Ts, Tuple, TupleBuilder};

fn rfid_batch(epoch: Ts, n: usize) -> Vec<Tuple> {
    let schema = well_known::rfid_schema();
    (0..n)
        .map(|i| {
            TupleBuilder::new(&schema, epoch)
                .set("receptor_id", (i % 2) as i64)
                .unwrap()
                .set("tag_id", format!("tag-{}", i % 25))
                .unwrap()
                .build()
                .unwrap()
        })
        .collect()
}

fn bench_query(c: &mut Criterion, name: &str, sql: &str, stream: &str) {
    let engine = Engine::new();
    let mut group = c.benchmark_group(format!("engine/{name}"));
    for batch_size in [16usize, 128, 1024] {
        group.throughput(Throughput::Elements(batch_size as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(batch_size),
            &batch_size,
            |b, &n| {
                let mut q = engine.compile(sql).unwrap();
                let mut epoch = Ts::ZERO;
                b.iter(|| {
                    let batch = rfid_batch(epoch, n);
                    q.push(stream, &batch).unwrap();
                    let out = q.tick(epoch).unwrap();
                    epoch += TimeDelta::from_millis(200);
                    out.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_filter(c: &mut Criterion) {
    bench_query(
        c,
        "point_filter",
        "SELECT * FROM point_input WHERE receptor_id = 0",
        "point_input",
    );
}

fn bench_windowed_group_by(c: &mut Criterion) {
    bench_query(
        c,
        "smooth_query2",
        "SELECT tag_id, count(*) FROM smooth_input [Range By '5 sec'] GROUP BY tag_id",
        "smooth_input",
    );
}

fn bench_count_distinct(c: &mut Criterion) {
    bench_query(
        c,
        "query1_count_distinct",
        "SELECT receptor_id, count(distinct tag_id) FROM rfid_data [Range By '1 sec'] \
         GROUP BY receptor_id",
        "rfid_data",
    );
}

fn bench_arbitrate_query3(c: &mut Criterion) {
    // Query 3 shape: correlated ALL subquery per group.
    let engine = Engine::new();
    let sql = "SELECT spatial_granule, tag_id
               FROM arbitrate_input ai1 [Range By 'NOW']
               GROUP BY spatial_granule, tag_id
               HAVING count(*) >= ALL(SELECT count(*)
                                      FROM arbitrate_input ai2 [Range By 'NOW']
                                      WHERE ai1.tag_id = ai2.tag_id
                                      GROUP BY spatial_granule)";
    let schema = esp_types::Schema::builder()
        .field("spatial_granule", esp_types::DataType::Str)
        .field("tag_id", esp_types::DataType::Str)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("engine/arbitrate_query3");
    for n_tags in [5usize, 25] {
        let batch: Vec<Tuple> = (0..n_tags * 4)
            .map(|i| {
                TupleBuilder::new(&schema, Ts::ZERO)
                    .set("spatial_granule", format!("shelf{}", i % 2))
                    .unwrap()
                    .set("tag_id", format!("tag-{}", i % n_tags))
                    .unwrap()
                    .build()
                    .unwrap()
            })
            .collect();
        group.throughput(Throughput::Elements(batch.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n_tags), &batch, |b, batch| {
            let mut q = engine.compile(sql).unwrap();
            let mut epoch = Ts::ZERO;
            b.iter(|| {
                let restamped: Vec<Tuple> = batch.iter().map(|t| t.restamped(epoch)).collect();
                q.push("arbitrate_input", &restamped).unwrap();
                let out = q.tick(epoch).unwrap();
                epoch += TimeDelta::from_millis(200);
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_filter,
    bench_windowed_group_by,
    bench_count_distinct,
    bench_arbitrate_query3
);
criterion_main!(benches);
