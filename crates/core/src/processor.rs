//! The ESP Processor: wires receptors through a pipeline and drives it.
//!
//! "An ESP Processor initiates data flow from the appropriate receptors and
//! applies each stage in a Fjord-style manner as the sensor readings stream
//! through the pipeline" (paper §3.3). Concretely, the processor builds an
//! [`esp_stream::Dataflow`]:
//!
//! * one source node per receptor;
//! * a `spatial_granule`-injection operator per (receptor, group)
//!   membership (paper §4 fn. 2 — ESP automatically adds the attribute),
//!   which also implements *dynamic* granule↔device remapping: the
//!   injector consults the shared [`ProximityGroups`] registry every epoch,
//!   so moving a receptor between groups takes effect immediately;
//! * one node per stage instance, per the pipeline's scoped slots, with
//!   unions at each fan-in point;
//! * a final union + output tap.

use std::sync::Arc;

use parking_lot::RwLock;

use esp_stream::ops::{MapOp, UnionOp};
use esp_stream::{Dataflow, EpochRunner, NodeId, Source, TapId};
use esp_types::{well_known, Chunk, DataType};
use esp_types::{
    Batch, EspError, Field, ProximityGroupId, ReceptorId, ReceptorType, Result, Schema,
    SpatialGranule, TimeDelta, Ts, Value,
};

use crate::pipeline::{Pipeline, Scope, StageCtx};
use crate::proximity::ProximityGroups;

/// A receptor plugged into the processor: identity plus its data source.
pub struct ReceptorBinding {
    /// The device id (must match `receptor_id` values in its tuples for
    /// group-keyed stages to work, though the processor does not enforce
    /// this).
    pub id: ReceptorId,
    /// The device type.
    pub receptor_type: ReceptorType,
    /// The stream source (a simulator or a real driver).
    pub source: Box<dyn Source>,
}

impl ReceptorBinding {
    /// Convenience constructor.
    pub fn new(
        id: ReceptorId,
        receptor_type: ReceptorType,
        source: Box<dyn Source>,
    ) -> ReceptorBinding {
        ReceptorBinding {
            id,
            receptor_type,
            source,
        }
    }
}

/// The output of a completed run.
pub struct RunOutput {
    /// One `(epoch, batch)` entry per executed epoch, in order — the
    /// cleaned output stream delivered to the application.
    pub trace: Vec<(Ts, Batch)>,
}

impl RunOutput {
    /// Flatten the trace into a single batch (losing epoch boundaries).
    pub fn flattened(&self) -> Batch {
        self.trace
            .iter()
            .flat_map(|(_, b)| b.iter().cloned())
            .collect()
    }
}

/// Drives receptor streams through an ESP pipeline.
pub struct EspProcessor {
    runner: EpochRunner,
    tap: TapId,
    groups: Arc<RwLock<ProximityGroups>>,
}

impl std::fmt::Debug for EspProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EspProcessor")
            .field("epochs_run", &self.runner.epochs_run())
            .field("groups", &self.groups.read().len())
            .finish_non_exhaustive()
    }
}

struct StreamHandle {
    node: NodeId,
    receptor: Option<ReceptorId>,
    receptor_type: Option<ReceptorType>,
    group: Option<ProximityGroupId>,
    granule: Option<SpatialGranule>,
}

impl EspProcessor {
    /// Validate a deployment document statically, then build a processor
    /// from it.
    ///
    /// Runs [`DeploymentSpec::validate`](crate::DeploymentSpec::validate)
    /// plus a receptor-coverage check (`E0301`: every wired receptor must
    /// appear in at least one proximity group) *before* any stage is
    /// instantiated. If any error-severity diagnostic fires, the spec is
    /// rejected with [`EspError::Invalid`] carrying the full list — no
    /// tuple ever flows through a misconfigured pipeline.
    pub fn deploy(
        spec: &crate::DeploymentSpec,
        engine: &esp_query::Engine,
        receptors: Vec<ReceptorBinding>,
    ) -> Result<EspProcessor> {
        let mut diags = spec.validate();
        diags.extend(spec.analyze());
        for binding in &receptors {
            let covered = spec
                .groups
                .iter()
                .any(|g| g.members.contains(&binding.id.0));
            if !covered {
                diags.push(
                    esp_types::Diagnostic::error(
                        "E0301",
                        format!(
                            "{} is wired to the processor but belongs to no proximity group",
                            binding.id
                        ),
                    )
                    .with_note(
                        "Merge and Arbitrate operate on proximity groups; an ungrouped \
                         receptor's readings would be silently dropped",
                    ),
                );
            }
        }
        let errors: Vec<_> = diags.into_iter().filter(|d| d.is_error()).collect();
        if !errors.is_empty() {
            return Err(EspError::Invalid(errors));
        }
        let groups = spec.build_groups()?;
        let pipeline = spec.build_pipeline(engine)?;
        EspProcessor::build(groups, &pipeline, receptors)
    }

    /// Build a processor. Every receptor must belong to at least one
    /// proximity group; a receptor in several groups fans out to each.
    pub fn build(
        groups: ProximityGroups,
        pipeline: &Pipeline,
        receptors: Vec<ReceptorBinding>,
    ) -> Result<EspProcessor> {
        let groups = Arc::new(RwLock::new(groups));
        let mut df = Dataflow::new();

        // Sources + spatial_granule injection, one branch per membership.
        let mut streams: Vec<StreamHandle> = Vec::new();
        for binding in receptors {
            let memberships = groups.read().groups_of(binding.id);
            if memberships.is_empty() {
                return Err(EspError::Config(format!(
                    "{} is not a member of any proximity group",
                    binding.id
                )));
            }
            let receptor = binding.id;
            let rtype = binding.receptor_type;
            let src = df.add_source(binding.source);
            for group in memberships {
                let granule = groups.read().granule(group)?.clone();
                let inject = granule_chunk_injector(Arc::clone(&groups), receptor, group);
                let node = df.add_operator(
                    Box::new(MapOp::new(format!("inject:{granule}"), inject)),
                    &[src],
                )?;
                streams.push(StreamHandle {
                    node,
                    receptor: Some(receptor),
                    receptor_type: Some(rtype),
                    group: Some(group),
                    granule: Some(granule),
                });
            }
        }

        // Stage slots.
        for slot in pipeline.slots() {
            match slot.scope {
                Scope::PerReceptor => {
                    for s in &mut streams {
                        let ctx = StageCtx {
                            scope: Scope::PerReceptor,
                            receptor: s.receptor,
                            receptor_type: s.receptor_type,
                            group: s.group,
                            granule: s.granule.clone(),
                        };
                        let stage = (slot.factory)(&ctx)?;
                        s.node = df.add_operator(stage, &[s.node])?;
                    }
                }
                Scope::PerGroup => {
                    let mut next: Vec<StreamHandle> = Vec::new();
                    // Preserve group order of first appearance.
                    let mut group_order: Vec<Option<ProximityGroupId>> = Vec::new();
                    for s in &streams {
                        if !group_order.contains(&s.group) {
                            group_order.push(s.group);
                        }
                    }
                    for group in group_order {
                        let members: Vec<&StreamHandle> =
                            streams.iter().filter(|s| s.group == group).collect();
                        let granule = members.iter().find_map(|s| s.granule.clone());
                        let rtype = members.iter().find_map(|s| s.receptor_type);
                        let input = if members.len() == 1 {
                            members[0].node
                        } else {
                            let nodes: Vec<NodeId> = members.iter().map(|s| s.node).collect();
                            df.add_operator(Box::new(UnionOp::new()), &nodes)?
                        };
                        let ctx = StageCtx {
                            scope: Scope::PerGroup,
                            receptor: None,
                            receptor_type: rtype,
                            group,
                            granule: granule.clone(),
                        };
                        let stage = (slot.factory)(&ctx)?;
                        let node = df.add_operator(stage, &[input])?;
                        next.push(StreamHandle {
                            node,
                            receptor: None,
                            receptor_type: rtype,
                            group,
                            granule,
                        });
                    }
                    streams = next;
                }
                Scope::Global => {
                    let input = if streams.len() == 1 {
                        streams[0].node
                    } else {
                        let nodes: Vec<NodeId> = streams.iter().map(|s| s.node).collect();
                        df.add_operator(Box::new(UnionOp::new()), &nodes)?
                    };
                    let ctx = StageCtx {
                        scope: Scope::Global,
                        receptor: None,
                        receptor_type: None,
                        group: None,
                        granule: None,
                    };
                    let stage = (slot.factory)(&ctx)?;
                    let node = df.add_operator(stage, &[input])?;
                    streams = vec![StreamHandle {
                        node,
                        receptor: None,
                        receptor_type: None,
                        group: None,
                        granule: None,
                    }];
                }
            }
        }

        // Final fan-in and tap.
        let out = if streams.len() == 1 {
            streams[0].node
        } else {
            let nodes: Vec<NodeId> = streams.iter().map(|s| s.node).collect();
            df.add_operator(Box::new(UnionOp::new()), &nodes)?
        };
        let tap = df.add_tap(out)?;
        Ok(EspProcessor {
            runner: EpochRunner::new(df),
            tap,
            groups,
        })
    }

    /// Handle to the live proximity-group registry; changes (membership
    /// moves, new members) take effect on the next epoch.
    pub fn groups(&self) -> Arc<RwLock<ProximityGroups>> {
        Arc::clone(&self.groups)
    }

    /// Register per-stage flush spans and the per-epoch step span in
    /// `registry` (names `esp_stream_node_flush_nanos{node,…}` and
    /// `esp_stream_epoch_step_nanos`), tagging every series with
    /// `labels`. Delegates to
    /// [`EpochRunner::attach_obs`](esp_stream::EpochRunner::attach_obs).
    pub fn attach_obs(&mut self, registry: &esp_obs::Registry, labels: &[(&str, &str)]) {
        self.runner.attach_obs(registry, labels);
    }

    /// Execute one epoch.
    pub fn step(&mut self, epoch: Ts) -> Result<()> {
        self.runner.step(epoch)
    }

    /// Run `n_epochs` epochs from `start`, spaced `period` apart, and
    /// return the cleaned output trace.
    pub fn run(mut self, start: Ts, period: TimeDelta, n_epochs: u64) -> Result<RunOutput> {
        self.runner.run(start, period, n_epochs)?;
        Ok(RunOutput {
            trace: self.runner.take_tap(self.tap),
        })
    }

    /// Drain the output collected so far (for step-driven use).
    pub fn take_output(&mut self) -> Vec<(Ts, Batch)> {
        self.runner.take_tap(self.tap)
    }

    /// Names of stages in this cascade that can never be checkpointed
    /// ([`Stage::checkpointable`](crate::Stage::checkpointable) is
    /// `false`). A durable gateway refuses to spawn over a non-empty
    /// answer (`E0804`) — otherwise it would run fine until its first
    /// checkpoint and only then fail at runtime.
    pub fn non_checkpointable_stages(&self) -> Vec<String> {
        self.runner.non_checkpointable()
    }

    /// Names and causes of stages in this cascade whose replay is not
    /// reproducible ([`Stage::determinism`](crate::Stage::determinism)
    /// reports taint) — the replay half of the durability contract,
    /// companion to [`EspProcessor::non_checkpointable_stages`]. A
    /// durable gateway refuses to spawn over a non-empty answer
    /// (`E0903`): recovery replays the WAL, and a tainted stage would
    /// recover to different bytes.
    pub fn nondeterministic_stages(&self) -> Vec<(String, String)> {
        self.runner.nondeterministic()
    }

    /// Capture the cross-epoch state of every stage in the cascade (the
    /// epoch-aligned checkpoint protocol — see `esp-durability`). Call
    /// only between [`EspProcessor::step`]s.
    pub fn snapshot_state(&self) -> Result<Vec<u8>> {
        self.runner.snapshot_state()
    }

    /// Restore stage state captured by [`EspProcessor::snapshot_state`]
    /// into a freshly built processor of the same configuration.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.runner.restore_state(bytes)
    }
}

/// Build the `spatial_granule` injection function for one (receptor,
/// group) membership: one membership check and one appended constant
/// column per chunk. Consults the registry on every chunk so dynamic
/// remapping (and granule renames) take effect immediately; chunks from a
/// receptor that has left the group are dropped.
fn granule_chunk_injector(
    groups: Arc<RwLock<ProximityGroups>>,
    receptor: ReceptorId,
    group: ProximityGroupId,
) -> impl Fn(Chunk) -> Result<Option<Chunk>> + Send {
    // Single-entry schema cache: receptors emit one schema per stream.
    let cache: RwLock<Option<(Arc<Schema>, Arc<Schema>)>> = RwLock::new(None);
    move |chunk: Chunk| {
        let Some(granule) = current_granule(&groups, receptor, group)? else {
            return Ok(None);
        };
        let extended = extended_schema(&cache, chunk.schema())?;
        Ok(Some(chunk.into_appended(&extended, granule)?))
    }
}

/// Consult the live registry: the granule value to inject, or `None` when
/// the receptor has left the group (its readings are dropped).
fn current_granule(
    groups: &RwLock<ProximityGroups>,
    receptor: ReceptorId,
    group: ProximityGroupId,
) -> Result<Option<Value>> {
    let registry = groups.read();
    let entry = registry.group(group)?;
    if !entry.members.contains(&receptor) {
        return Ok(None);
    }
    Ok(Some(Value::Str(Arc::clone(&entry.granule.0))))
}

/// Cached `input + spatial_granule` schema extension. Interned so every
/// (receptor, group) branch shares one `Arc` — downstream queries' slot
/// plans stay pointer-valid across branches and epochs.
fn extended_schema(
    cache: &RwLock<Option<(Arc<Schema>, Arc<Schema>)>>,
    input: &Arc<Schema>,
) -> Result<Arc<Schema>> {
    let hit = cache
        .read()
        .as_ref()
        .filter(|(i, _)| Arc::ptr_eq(i, input))
        .map(|(_, out)| Arc::clone(out));
    if let Some(s) = hit {
        return Ok(s);
    }
    let s = esp_types::registry::intern(
        &input.with_field(Field::new(well_known::SPATIAL_GRANULE, DataType::Str))?,
    );
    *cache.write() = Some((Arc::clone(input), Arc::clone(&s)));
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::stage::FnStage;
    use crate::stages::smooth::SmoothStage;
    use esp_stream::ScriptedSource;
    use esp_types::{Tuple, TupleBuilder};

    fn rfid(ts: Ts, receptor: i64, tag: &str) -> Tuple {
        TupleBuilder::new(&well_known::rfid_schema(), ts)
            .set("receptor_id", receptor)
            .unwrap()
            .set("tag_id", tag)
            .unwrap()
            .build()
            .unwrap()
    }

    fn one_reading_source(receptor: i64, tag: &'static str) -> Box<dyn Source> {
        Box::new(ScriptedSource::new(
            format!("reader-{receptor}"),
            vec![(Ts::ZERO, vec![rfid(Ts::ZERO, receptor, tag)])],
        ))
    }

    fn two_shelf_groups() -> ProximityGroups {
        let mut pg = ProximityGroups::new();
        pg.add_group(ReceptorType::Rfid, "shelf0", [ReceptorId(0)]);
        pg.add_group(ReceptorType::Rfid, "shelf1", [ReceptorId(1)]);
        pg
    }

    #[test]
    fn injects_spatial_granule() {
        let proc = EspProcessor::build(
            two_shelf_groups(),
            &Pipeline::raw(),
            vec![
                ReceptorBinding::new(
                    ReceptorId(0),
                    ReceptorType::Rfid,
                    one_reading_source(0, "a"),
                ),
                ReceptorBinding::new(
                    ReceptorId(1),
                    ReceptorType::Rfid,
                    one_reading_source(1, "b"),
                ),
            ],
        )
        .unwrap();
        let out = proc.run(Ts::ZERO, TimeDelta::from_millis(200), 1).unwrap();
        let batch = &out.trace[0].1;
        assert_eq!(batch.len(), 2);
        let granules: Vec<&str> = batch
            .iter()
            .map(|t| t.get("spatial_granule").unwrap().as_str().unwrap())
            .collect();
        assert!(granules.contains(&"shelf0") && granules.contains(&"shelf1"));
    }

    #[test]
    fn ungrouped_receptor_rejected() {
        let err = EspProcessor::build(
            ProximityGroups::new(),
            &Pipeline::raw(),
            vec![ReceptorBinding::new(
                ReceptorId(7),
                ReceptorType::Rfid,
                one_reading_source(7, "a"),
            )],
        )
        .unwrap_err();
        assert!(err.to_string().contains("receptor#7"));
    }

    #[test]
    fn per_receptor_stage_instantiated_per_stream() {
        // A smooth stage per reader: each keeps its own window.
        let pipeline = Pipeline::builder()
            .per_receptor("smooth", |ctx| {
                assert!(ctx.receptor.is_some());
                assert!(ctx.granule.is_some());
                Ok(Box::new(SmoothStage::count_by_key(
                    "smooth",
                    TimeDelta::from_secs(5),
                    ["spatial_granule", "tag_id"],
                )))
            })
            .build();
        let proc = EspProcessor::build(
            two_shelf_groups(),
            &pipeline,
            vec![
                ReceptorBinding::new(
                    ReceptorId(0),
                    ReceptorType::Rfid,
                    one_reading_source(0, "a"),
                ),
                ReceptorBinding::new(
                    ReceptorId(1),
                    ReceptorType::Rfid,
                    one_reading_source(1, "b"),
                ),
            ],
        )
        .unwrap();
        let out = proc.run(Ts::ZERO, TimeDelta::from_secs(1), 3).unwrap();
        // Both tags persist through the granule on every epoch.
        for (_, batch) in &out.trace {
            assert_eq!(batch.len(), 2);
        }
    }

    #[test]
    fn per_group_stage_unions_members() {
        let mut pg = ProximityGroups::new();
        pg.add_group(ReceptorType::Rfid, "room", [ReceptorId(0), ReceptorId(1)]);
        let pipeline = Pipeline::builder()
            .per_group("count", |_| {
                Ok(Box::new(FnStage::per_epoch("count", |epoch, input| {
                    let schema = Schema::builder().field("n", DataType::Int).build().unwrap();
                    Ok(vec![Tuple::new_unchecked(
                        schema,
                        epoch,
                        vec![Value::Int(input.len() as i64)],
                    )])
                })))
            })
            .build();
        let proc = EspProcessor::build(
            pg,
            &pipeline,
            vec![
                ReceptorBinding::new(
                    ReceptorId(0),
                    ReceptorType::Rfid,
                    one_reading_source(0, "a"),
                ),
                ReceptorBinding::new(
                    ReceptorId(1),
                    ReceptorType::Rfid,
                    one_reading_source(1, "b"),
                ),
            ],
        )
        .unwrap();
        let out = proc.run(Ts::ZERO, TimeDelta::from_millis(200), 1).unwrap();
        assert_eq!(out.trace[0].1[0].get("n"), Some(&Value::Int(2)));
    }

    #[test]
    fn dynamic_remapping_takes_effect_mid_run() {
        let mut pg = ProximityGroups::new();
        let g0 = pg.add_group(ReceptorType::Rfid, "shelf0", [ReceptorId(0)]);
        let _g1 = pg.add_group(ReceptorType::Rfid, "shelf1", [ReceptorId(1)]);
        let script: Vec<(Ts, Batch)> = (0..4u64)
            .map(|i| {
                let ts = Ts::from_secs(i);
                (ts, vec![rfid(ts, 0, "a")])
            })
            .collect();
        let mut proc = EspProcessor::build(
            pg,
            &Pipeline::raw(),
            vec![
                ReceptorBinding::new(
                    ReceptorId(0),
                    ReceptorType::Rfid,
                    Box::new(ScriptedSource::new("r0", script)),
                ),
                ReceptorBinding::new(
                    ReceptorId(1),
                    ReceptorType::Rfid,
                    one_reading_source(1, "b"),
                ),
            ],
        )
        .unwrap();
        proc.step(Ts::ZERO).unwrap();
        proc.step(Ts::from_secs(1)).unwrap();
        // Receptor 0 leaves its group: its branch goes silent.
        proc.groups()
            .write()
            .remove_member(g0, ReceptorId(0))
            .unwrap();
        proc.step(Ts::from_secs(2)).unwrap();
        proc.step(Ts::from_secs(3)).unwrap();
        let trace = proc.take_output();
        let counts: Vec<usize> = trace
            .iter()
            .map(|(_, b)| {
                b.iter()
                    .filter(|t| t.get("tag_id") == Some(&Value::str("a")))
                    .count()
            })
            .collect();
        assert_eq!(counts, vec![1, 1, 0, 0]);
    }

    #[test]
    fn chunk_fed_processor_matches_row_fed_trace() {
        use esp_stream::ScriptedChunkSource;
        // Same readings, once as row batches and once as columnar chunks,
        // through a smoothing pipeline: the traces must be identical.
        let script: Vec<(Ts, Batch)> = (0..4u64)
            .map(|i| {
                let ts = Ts::from_secs(i);
                (ts, vec![rfid(ts, 0, "a"), rfid(ts, 0, "b")])
            })
            .collect();
        let chunk_script: Vec<(Ts, Chunk)> = script
            .iter()
            .map(|(ts, batch)| {
                (
                    *ts,
                    Chunk::from_tuples(&well_known::rfid_schema(), batch).unwrap(),
                )
            })
            .collect();
        let pipeline = || {
            Pipeline::builder()
                .per_receptor("smooth", |_| {
                    Ok(Box::new(SmoothStage::count_by_key(
                        "smooth",
                        TimeDelta::from_secs(5),
                        ["spatial_granule", "tag_id"],
                    )))
                })
                .build()
        };
        let groups = || {
            let mut pg = ProximityGroups::new();
            pg.add_group(ReceptorType::Rfid, "shelf0", [ReceptorId(0)]);
            pg
        };
        let row_proc = EspProcessor::build(
            groups(),
            &pipeline(),
            vec![ReceptorBinding::new(
                ReceptorId(0),
                ReceptorType::Rfid,
                Box::new(ScriptedSource::new("r0", script)),
            )],
        )
        .unwrap();
        let chunk_proc = EspProcessor::build(
            groups(),
            &pipeline(),
            vec![ReceptorBinding::new(
                ReceptorId(0),
                ReceptorType::Rfid,
                Box::new(ScriptedChunkSource::new("r0", chunk_script)),
            )],
        )
        .unwrap();
        let rows = row_proc.run(Ts::ZERO, TimeDelta::from_secs(1), 4).unwrap();
        let chunks = chunk_proc
            .run(Ts::ZERO, TimeDelta::from_secs(1), 4)
            .unwrap();
        assert_eq!(rows.trace, chunks.trace);
        assert!(rows.trace.iter().any(|(_, b)| !b.is_empty()));
    }

    #[test]
    fn global_stage_sees_union_of_everything() {
        let pipeline = Pipeline::builder()
            .global("merge-all", |ctx| {
                assert_eq!(ctx.scope, Scope::Global);
                Ok(Box::new(FnStage::per_epoch("merge-all", |epoch, input| {
                    let schema = Schema::builder().field("n", DataType::Int).build().unwrap();
                    Ok(vec![Tuple::new_unchecked(
                        schema,
                        epoch,
                        vec![Value::Int(input.len() as i64)],
                    )])
                })))
            })
            .build();
        let proc = EspProcessor::build(
            two_shelf_groups(),
            &pipeline,
            vec![
                ReceptorBinding::new(
                    ReceptorId(0),
                    ReceptorType::Rfid,
                    one_reading_source(0, "a"),
                ),
                ReceptorBinding::new(
                    ReceptorId(1),
                    ReceptorType::Rfid,
                    one_reading_source(1, "b"),
                ),
            ],
        )
        .unwrap();
        let out = proc.run(Ts::ZERO, TimeDelta::from_millis(200), 1).unwrap();
        assert_eq!(out.trace[0].1[0].get("n"), Some(&Value::Int(2)));
    }
}
