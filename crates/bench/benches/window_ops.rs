//! Micro-benchmarks of the windowing substrate: `WindowBuffer` push +
//! eviction (the window of Merge and of esp-query), fed row by row and
//! chunk by chunk — the path esp-query ingest takes — `RunningStats`
//! folding (Merge's outlier test, Smooth's per-pane means), and the paper's
//! Query 2 smoothing on panes: the CQL select over plain and over coded
//! tag strings, beside native `count_by_key`, on the same rows.
//!
//! These are indicative only: end-to-end claims come from the yardstick.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use esp_core::SmoothStage;
use esp_query::Engine;
use esp_stream::stats::RunningStats;
use esp_stream::{Payload, Stage, WindowBuffer};
use esp_types::{
    chunk_batch, Cell, Chunk, DataType, Schema, StrInterner, TimeDelta, Ts, Tuple, Value,
};

fn tuple(schema: &Arc<Schema>, ts: Ts, v: i64) -> Tuple {
    Tuple::new_unchecked(Arc::clone(schema), ts, vec![Value::Int(v)])
}

fn bench_window_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_push_advance");
    let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
    for window_ms in [1_000u64, 5_000, 30_000] {
        // Pre-build a stream of 10k tuples at 10ms spacing.
        let tuples: Vec<Tuple> = (0..10_000u64)
            .map(|i| tuple(&schema, Ts::from_millis(i * 10), i as i64))
            .collect();
        group.throughput(Throughput::Elements(tuples.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("row", format!("{window_ms}ms")),
            &tuples,
            |b, tuples| {
                b.iter(|| {
                    let mut w = WindowBuffer::new(TimeDelta::from_millis(window_ms));
                    for t in tuples {
                        w.push(t.clone());
                        w.advance_to(t.ts());
                    }
                    w.len()
                })
            },
        );
        // The same stream as one chunk per 100 ms epoch.
        let chunks: Vec<Chunk> = tuples.chunks(10).flat_map(chunk_batch).collect();
        group.bench_with_input(
            BenchmarkId::new("chunk", format!("{window_ms}ms")),
            &chunks,
            |b, chunks| {
                b.iter(|| {
                    let mut w = WindowBuffer::new(TimeDelta::from_millis(window_ms));
                    for c in chunks {
                        w.push_chunk(c);
                        w.advance_to(c.last_ts().unwrap_or(Ts::ZERO));
                    }
                    w.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_running_stats(c: &mut Criterion) {
    let xs: Vec<f64> = (0..10_000)
        .map(|i| (i as f64).sin() * 30.0 + 20.0)
        .collect();
    let mut group = c.benchmark_group("running_stats");
    group.throughput(Throughput::Elements(xs.len() as u64));
    group.bench_function("fold_10k", |b| {
        b.iter(|| {
            let s = RunningStats::from_iter(xs.iter().copied());
            (s.mean(), s.stdev())
        })
    });
    group.finish();
}

/// One reader's sightings, one chunk per 1 s epoch: 8 shelves of 90 EPC
/// tags, each present tag read once per epoch, with the injected
/// `spatial_granule` column (one shared string per shelf). Tags are plain
/// strings (one allocation per reading, as an uncoded ingest makes them)
/// or codes into one string table (as the gateway writes them).
fn sightings(schema: &Arc<Schema>, coded: bool) -> Vec<Chunk> {
    let mut strings = StrInterner::new();
    let shelves: Vec<Value> = (0..8).map(|s| Value::str(format!("shelf{s}"))).collect();
    (0..25u64)
        .map(|epoch| {
            let mut chunk = Chunk::new(schema);
            for (s, shelf) in shelves.iter().enumerate() {
                for tag in (0..90).filter(|t| !(t + epoch as usize).is_multiple_of(7)) {
                    let epc = format!("urn:epc:id:sgtin:0614141.{s:06}.{tag:010}");
                    let ts = Ts::from_millis(epoch * 1_000 + 1 + tag as u64);
                    let id = Cell::Value(Value::Int(s as i64));
                    let code = coded.then(|| strings.intern(&epc));
                    let tag_id = match code {
                        Some(code) => Cell::Code(strings.table(), code),
                        None => Cell::Value(Value::str(epc)),
                    };
                    let row = [id, tag_id, Cell::Value(shelf.clone())];
                    chunk.push_row_owned(ts, row).unwrap();
                }
            }
            chunk
        })
        .collect()
}

fn bench_smooth_keys(c: &mut Criterion) {
    let schema = Schema::builder()
        .field("receptor_id", DataType::Int)
        .field("tag_id", DataType::Str)
        .field("spatial_granule", DataType::Str)
        .build()
        .unwrap();
    let sql = "SELECT spatial_granule, tag_id, count(*) AS n \
               FROM smooth_input [Range By '5 sec'] \
               GROUP BY spatial_granule, tag_id";
    let engine = Engine::new();
    let epoch = |k: usize| Ts::from_millis(k as u64 * 1_000 + 1_000);
    let mut group = c.benchmark_group("smooth_keys");
    for (name, coded) in [("cql_str", false), ("cql_coded", true)] {
        let chunks = sightings(&schema, coded);
        group.throughput(Throughput::Elements(
            chunks.iter().map(|c| c.len() as u64).sum(),
        ));
        group.bench_with_input(BenchmarkId::new(name, "8x90"), &chunks, |b, chunks| {
            b.iter(|| {
                let mut q = engine
                    .compile_with_schemas(sql, &[("smooth_input", Arc::clone(&schema))])
                    .unwrap();
                let mut groups = 0;
                for (k, chunk) in chunks.iter().enumerate() {
                    q.push_chunk("smooth_input", chunk.clone()).unwrap();
                    groups += q.tick_chunk(epoch(k)).unwrap().len();
                }
                groups
            })
        });
    }
    let chunks = sightings(&schema, false);
    group.bench_with_input(
        BenchmarkId::new("native_count_by_key", "8x90"),
        &chunks,
        |b, chunks| {
            b.iter(|| {
                let keys = ["spatial_granule", "tag_id"];
                let mut smooth = SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), keys);
                let mut groups = 0;
                for (k, chunk) in chunks.iter().enumerate() {
                    let out = smooth.process(epoch(k), Payload::from(vec![chunk.clone()]));
                    groups += out.unwrap().len();
                }
                groups
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_window_push,
    bench_running_stats,
    bench_smooth_keys
);
criterion_main!(benches);
