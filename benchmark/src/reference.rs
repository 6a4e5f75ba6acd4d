//! The correctness reference: one single-threaded `EspProcessor` over the
//! readings the script delivers, and the digests gateway output is
//! compared by.
//!
//! Sharding changes only how tuples interleave within an epoch, so an
//! epoch's output is compared as a multiset: each `(epoch, shard)` cell is
//! digested as a tuple count plus the wrapping sum of per-tuple SipHash
//! values, which equals comparing `canonical_sort`ed batches without
//! rendering and sorting millions of tuples per run. Reference tuples are
//! assigned to shards by their `spatial_granule` with the gateway's own
//! `shard_of_granule`, which also checks routing and lets a recovered
//! gateway, whose shards resume from different checkpoints, be compared
//! shard by shard.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use esp_core::{EspProcessor, ProximityGroups, ReceptorBinding};
use esp_gateway::{shard_of_granule, EpochTrace};
use esp_stream::ScriptedChunkSource;
use esp_types::{Batch, Chunk, Result, Ts, Tuple};

use crate::script::Script;
use crate::trace::Tracer;
use crate::workloads::{boundary, Fleet, Kind, Spec, COUNT_WINDOW_EPOCHS, N_SHARDS, PERIOD_MS};

/// `(tuple count, wrapping sum of tuple hashes)` of one cell.
pub type Cell = (u64, u64);
/// Digest of a whole output: `(epoch ms, shard)` → cell, empty cells
/// omitted.
pub type Digest = BTreeMap<(u64, usize), Cell>;

fn tuple_hash(t: &Tuple) -> u64 {
    // `DefaultHasher::new()` is SipHash with fixed keys: stable across
    // runs and processes, unlike a `RandomState` hasher.
    let mut h = DefaultHasher::new();
    t.ts().as_millis().hash(&mut h);
    for v in t.values() {
        v.group_key().hash(&mut h);
    }
    h.finish()
}

fn add(digest: &mut Digest, epoch: Ts, shard: usize, t: &Tuple) {
    let cell = digest.entry((epoch.as_millis(), shard)).or_insert((0, 0));
    cell.0 += 1;
    cell.1 = cell.1.wrapping_add(tuple_hash(t));
}

/// Digest gateway output, shard by shard.
pub fn digest_shards(shard_traces: &[EpochTrace]) -> Digest {
    let mut digest = Digest::new();
    for (shard, trace) in shard_traces.iter().enumerate() {
        for (epoch, batch) in trace {
            for t in batch {
                add(&mut digest, *epoch, shard, t);
            }
        }
    }
    digest
}

/// Tuple counts only: the cheap check the `saturate` repeats use.
pub fn counts_of_shards(shard_traces: &[EpochTrace]) -> BTreeMap<(u64, usize), u64> {
    let mut counts = BTreeMap::new();
    for (shard, trace) in shard_traces.iter().enumerate() {
        for (epoch, batch) in trace.iter().filter(|(_, b)| !b.is_empty()) {
            *counts.entry((epoch.as_millis(), shard)).or_insert(0) += batch.len() as u64;
        }
    }
    counts
}

/// The shard a reference tuple belongs to: its granule's, by the
/// gateway's own placement function.
fn shard_of(t: &Tuple) -> usize {
    t.get("spatial_granule")
        .and_then(|v| v.as_str())
        .map_or(0, |g| shard_of_granule(g, N_SHARDS))
}

/// What the reference run produced.
pub struct Reference {
    /// Per-cell digest of the cleaned output.
    pub digest: Digest,
    /// Wall nanoseconds of each `EspProcessor::step`.
    pub step_nanos: Vec<u64>,
    /// Readings the reference consumed.
    pub readings: u64,
    /// `(bytes, snapshot ms, restore ms)` of `EspProcessor::snapshot_state`
    /// mid-run and `restore_state` into a fresh processor; zeros when not
    /// asked for or when the cascade cannot be checkpointed.
    pub snapshot: (usize, f64, f64),
}

/// Build the single-process processor over the script's delivered
/// readings. Bindings are in receptor-id order, as the gateway's shard
/// builder binds them.
pub fn build_processor(
    spec: &Spec,
    fleet: &Fleet,
    delivered: Vec<Vec<Option<Chunk>>>,
) -> Result<EspProcessor> {
    let mut groups = ProximityGroups::new();
    for g in &fleet.groups {
        groups.add_group(
            g.receptor_type,
            g.granule.clone(),
            g.members.iter().copied(),
        );
    }
    let bindings = fleet
        .receptors
        .iter()
        .zip(delivered)
        .map(|(rec, per_epoch)| {
            let script: Vec<(Ts, Chunk)> = per_epoch
                .into_iter()
                .enumerate()
                .filter_map(|(k, c)| Some((boundary(k), c?)))
                .collect();
            ReceptorBinding::new(
                rec.id,
                fleet.groups[rec.group].receptor_type,
                Box::new(ScriptedChunkSource::new(format!("ref-{}", rec.id), script)),
            )
        })
        .collect();
    EspProcessor::build(groups, &spec.pipeline(fleet)?, bindings)
}

/// Run the reference over `script` (consuming its delivered readings),
/// one span per `step`. With `snapshot`, also time a state snapshot taken
/// [`SNAPSHOT_EPOCH`] epochs in and its restore.
pub fn run(
    spec: &Spec,
    fleet: &Fleet,
    script: &mut Script,
    snapshot: bool,
    tracer: &mut Tracer,
) -> Result<Reference> {
    let delivered = std::mem::take(&mut script.delivered);
    let readings = delivered
        .iter()
        .flatten()
        .flatten()
        .map(|c| c.len() as u64)
        .sum();
    let mut processor = build_processor(spec, fleet, delivered)?;
    let mut reference = Reference {
        digest: Digest::new(),
        step_nanos: Vec::with_capacity(script.epochs),
        readings,
        snapshot: (0, 0.0, 0.0),
    };
    let root = tracer.enter("replay.core", None);
    for k in 0..script.epochs {
        let epoch = boundary(k);
        let span = tracer.enter("core.step", Some(k as u64));
        let t0 = Instant::now();
        processor.step(epoch)?;
        reference.step_nanos.push(t0.elapsed().as_nanos() as u64);
        tracer.exit(span);
        for (ts, batch) in processor.take_output() {
            for t in &batch {
                add(&mut reference.digest, ts, shard_of(t), t);
            }
        }
        if snapshot && k + 1 == SNAPSHOT_EPOCH.min(script.epochs) {
            reference.snapshot = time_snapshot(spec, fleet, &processor, tracer).unwrap_or_default();
        }
    }
    tracer.exit(root);
    Ok(reference)
}

/// Epochs into the reference run at which the state snapshot is timed:
/// every window is full by then.
pub const SNAPSHOT_EPOCH: usize = 64;

/// Snapshot `processor`'s state and restore it into a fresh processor.
/// `None` when the cascade has no serialized state (declarative stages).
fn time_snapshot(
    spec: &Spec,
    fleet: &Fleet,
    processor: &EspProcessor,
    tracer: &mut Tracer,
) -> Option<(usize, f64, f64)> {
    let t0 = Instant::now();
    let bytes = tracer
        .span("core.snapshot_state", None, || processor.snapshot_state())
        .ok()?;
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut fresh = build_processor(spec, fleet, vec![Vec::new(); fleet.receptors.len()]).ok()?;
    let t0 = Instant::now();
    tracer
        .span("core.restore_state", None, || fresh.restore_state(&bytes))
        .ok()?;
    Some((bytes.len(), snapshot_ms, t0.elapsed().as_secs_f64() * 1e3))
}

/// The workload's application query: turns cleaned output into the
/// `[group][epoch]` table that is scored against ground truth.
pub struct Scorer {
    kind: Kind,
    granules: Vec<String>,
    epochs: usize,
}

impl Scorer {
    /// Scorer for `spec`'s fleet.
    pub fn new(spec: &Spec, fleet: &Fleet, epochs: usize) -> Scorer {
        Scorer {
            kind: spec.kind,
            granules: fleet.groups.iter().map(|g| g.granule.clone()).collect(),
            epochs,
        }
    }

    /// An all-zero `[group][epoch]` table.
    pub fn empty(&self) -> Vec<Vec<f64>> {
        vec![vec![0.0; self.epochs]; self.granules.len()]
    }

    fn group_of(&self, t: &Tuple) -> Option<usize> {
        let granule = t.get("spatial_granule")?.as_str()?;
        self.granules.iter().position(|g| g == granule)
    }

    /// Fold one epoch's cleaned output into `reported`.
    pub fn score(&self, epoch: Ts, batch: &Batch, reported: &mut [Vec<f64>]) {
        let k = (epoch.as_millis() / PERIOD_MS) as usize - 1;
        if k >= self.epochs {
            return;
        }
        for t in batch {
            let Some(g) = self.group_of(t) else { continue };
            match self.kind {
                // Readings (edge-mix) or distinct tags (shelf-cql: the
                // cascade emits one tuple per shelf and tag) per granule.
                Kind::EdgeMix | Kind::ShelfCql => reported[g][k] += 1.0,
                Kind::DurableEdge => {
                    reported[g][k] += t.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0)
                }
                Kind::RedwoodNative => {
                    reported[g][k] = t.get("temp").and_then(|v| v.as_f64()).unwrap_or(0.0)
                }
            }
        }
    }

    /// The table over a whole gateway output.
    pub fn score_shards(&self, shard_traces: &[EpochTrace]) -> Vec<Vec<f64>> {
        let mut reported = self.empty();
        for (epoch, batch) in shard_traces.iter().flatten() {
            self.score(*epoch, batch, &mut reported);
        }
        reported
    }

    /// Average relative error of `reported` against the script's ground
    /// truth (`durable-edge` reports windowed counts, so its truth is the
    /// pre-channel count over the same window).
    pub fn error(&self, reported: &[Vec<f64>], truth: &[Vec<f64>]) -> f64 {
        let window = match self.kind {
            Kind::DurableEdge => COUNT_WINDOW_EPOCHS as usize,
            _ => 0,
        };
        let pairs = reported.iter().zip(truth).flat_map(|(rep, tru)| {
            rep.iter().enumerate().map(move |(k, r)| {
                let t: f64 = tru[k.saturating_sub(window)..=k].iter().sum();
                (*r, t)
            })
        });
        esp_metrics::average_relative_error(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{DataType, Schema, Value};

    fn tup(ts: u64, granule: &str, v: i64) -> Tuple {
        let schema = Schema::builder()
            .field("spatial_granule", DataType::Str)
            .field("v", DataType::Int)
            .build()
            .unwrap();
        Tuple::new(
            schema,
            Ts::from_millis(ts),
            vec![Value::str(granule), Value::Int(v)],
        )
        .unwrap()
    }

    #[test]
    fn digest_ignores_order_within_a_cell_but_not_content() {
        let e = Ts::from_millis(1000);
        let a = vec![vec![(e, vec![tup(10, "g", 1), tup(20, "g", 2)])]];
        let b = vec![vec![(e, vec![tup(20, "g", 2), tup(10, "g", 1)])]];
        let c = vec![vec![(e, vec![tup(20, "g", 2), tup(10, "g", 3)])]];
        assert_eq!(digest_shards(&a), digest_shards(&b));
        assert_ne!(digest_shards(&a), digest_shards(&c));
        assert_eq!(counts_of_shards(&a), counts_of_shards(&c));
    }

    #[test]
    fn durable_edge_truth_is_windowed() {
        let spec = crate::workloads::by_name("durable-edge").unwrap();
        let fleet = spec.fleet();
        let scorer = Scorer::new(&spec, &fleet, 8);
        let truth = vec![vec![10.0; 8]; fleet.groups.len()];
        let mut reported = scorer.empty();
        for row in &mut reported {
            for (k, r) in row.iter_mut().enumerate() {
                *r = 10.0 * (k.min(COUNT_WINDOW_EPOCHS as usize) + 1) as f64;
            }
        }
        assert_eq!(scorer.error(&reported, &truth), 0.0);
    }
}
