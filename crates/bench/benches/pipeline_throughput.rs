//! End-to-end ESP pipeline throughput: simulated epochs per second for the
//! paper's three deployments, and built-in vs declarative Smooth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use esp_bench::home::home_pipeline;
use esp_bench::shelf::{shelf_pipeline, ShelfPipeline};
use esp_bench::util::{build_processor, with_type};
use esp_core::{DeclarativeStage, Pipeline, SmoothStage, Stage};
use esp_query::Engine;
use esp_receptors::office::OfficeScenario;
use esp_receptors::rfid::ShelfScenario;
use esp_types::{chunk_batch, well_known, ReceptorType, TimeDelta, Ts, Tuple, TupleBuilder};

fn bench_shelf_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/shelf");
    const EPOCHS: u64 = 250; // 50 simulated seconds at 5 Hz
    group.throughput(Throughput::Elements(EPOCHS));
    for cfg in [
        ShelfPipeline::Raw,
        ShelfPipeline::SmoothOnly,
        ShelfPipeline::SmoothThenArbitrate,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cfg.label().replace(' ', "_")),
            &cfg,
            |b, &cfg| {
                b.iter(|| {
                    let scenario = ShelfScenario::paper(1);
                    let proc = build_processor(
                        &scenario.groups(),
                        &shelf_pipeline(cfg, TimeDelta::from_secs(5)),
                        with_type(scenario.sources(), ReceptorType::Rfid),
                    )
                    .unwrap();
                    let out = proc
                        .run(Ts::ZERO, TimeDelta::from_millis(200), EPOCHS)
                        .unwrap();
                    out.trace.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_home_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/digital_home");
    const EPOCHS: u64 = 120;
    group.throughput(Throughput::Elements(EPOCHS));
    for (label, pipeline) in [("raw", Pipeline::raw()), ("five_stage", home_pipeline(2))] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &pipeline,
            |b, pipeline| {
                b.iter(|| {
                    let scenario = OfficeScenario::paper(1);
                    let proc =
                        build_processor(&scenario.groups(), pipeline, scenario.sources()).unwrap();
                    let out = proc.run(Ts::ZERO, TimeDelta::from_secs(1), EPOCHS).unwrap();
                    out.trace.len()
                })
            },
        );
    }
    group.finish();
}

/// Built-in Smooth vs the same stage expressed as a declarative query
/// (paper Query 2) — the cost of declarativeness.
fn bench_builtin_vs_declarative_smooth(c: &mut Criterion) {
    let schema = well_known::rfid_schema();
    let batches: Vec<Vec<Tuple>> = (0..200u64)
        .map(|epoch| {
            (0..10)
                .map(|i| {
                    TupleBuilder::new(&schema, Ts::from_millis(epoch * 200))
                        .set("receptor_id", 0i64)
                        .unwrap()
                        .set("tag_id", format!("tag-{}", i % 12))
                        .unwrap()
                        .build()
                        .unwrap()
                })
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("pipeline/smooth_impl");
    group.throughput(Throughput::Elements((batches.len() * 10) as u64));
    group.bench_function("builtin", |b| {
        b.iter(|| {
            let mut stage =
                SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), ["tag_id"]);
            let mut n = 0;
            for (i, batch) in batches.iter().enumerate() {
                n += stage
                    .process(Ts::from_millis(i as u64 * 200), batch.clone().into())
                    .unwrap()
                    .len();
            }
            n
        })
    });
    group.bench_function("declarative", |b| {
        let engine = Engine::new();
        b.iter(|| {
            let q = engine
                .compile(
                    "SELECT tag_id, count(*) FROM smooth_input [Range By '5 sec'] \
                     GROUP BY tag_id",
                )
                .unwrap();
            let mut stage = DeclarativeStage::new("smooth", q).unwrap();
            let mut n = 0;
            for (i, batch) in batches.iter().enumerate() {
                n += stage
                    .process(Ts::from_millis(i as u64 * 200), batch.clone().into())
                    .unwrap()
                    .len();
            }
            n
        })
    });
    group.finish();
}

/// Per-epoch cost of `windowed_mean` in steady state against the window
/// length, arrivals per epoch held fixed (64 samples over 8 motes, as one
/// chunk): each iteration is one more epoch on a stage whose window is
/// already full. Pane-incremental Smooth folds the arrivals and merges one
/// partial per key per live epoch, so this is flat until panes × keys
/// rivals the arrivals; a rescan of the buffered window grows with the
/// window instead (EXPERIMENTS.md, "Smooth window scaling").
fn bench_smooth_window_scaling(c: &mut Criterion) {
    const ARRIVALS: usize = 64;
    const MOTES: usize = 8;
    let schema = well_known::temp_schema();
    let rows: Vec<Tuple> = (0..ARRIVALS)
        .map(|i| {
            TupleBuilder::new(&schema, Ts::ZERO)
                .set("receptor_id", (i % MOTES) as i64)
                .unwrap()
                .set("temp", 18.0 + (i as f64) * 0.05)
                .unwrap()
                .build()
                .unwrap()
        })
        .collect();
    let arrivals = chunk_batch(&rows);
    let period = TimeDelta::from_secs(1);

    let mut group = c.benchmark_group("pipeline/smooth_window_scaling");
    group.throughput(Throughput::Elements(ARRIVALS as u64));
    for window_epochs in [5u64, 30, 300] {
        group.bench_with_input(
            BenchmarkId::from_parameter(window_epochs),
            &window_epochs,
            |b, &window_epochs| {
                let mut stage = SmoothStage::windowed_mean(
                    "smooth",
                    TimeDelta::from_secs(window_epochs),
                    ["receptor_id"],
                    "temp",
                );
                let mut epoch = Ts::ZERO;
                let mut step = |stage: &mut SmoothStage| {
                    epoch += period;
                    stage.process(epoch, arrivals.clone().into()).unwrap().len()
                };
                for _ in 0..=window_epochs {
                    step(&mut stage); // fill the window before timing
                }
                b.iter(|| step(&mut stage))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_shelf_pipeline,
    bench_home_pipeline,
    bench_builtin_vs_declarative_smooth,
    bench_smooth_window_scaling
);
criterion_main!(benches);
