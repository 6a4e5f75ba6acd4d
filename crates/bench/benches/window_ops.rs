//! Micro-benchmarks of the windowing substrate: `WindowBuffer` push +
//! eviction (the window of Merge and of esp-query), fed row by row and
//! chunk by chunk — the path esp-query ingest takes — and `RunningStats`
//! folding (Merge's outlier test, Smooth's per-pane means).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use esp_stream::stats::RunningStats;
use esp_stream::WindowBuffer;
use esp_types::{chunk_batch, Chunk, DataType, Schema, TimeDelta, Ts, Tuple, Value};

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

criterion_group!(benches, bench_window_push, bench_running_stats);
criterion_main!(benches);
