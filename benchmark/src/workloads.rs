//! The four workloads: fleets, cleaning cascades and sizing constants.
//!
//! Every constant that fixes a workload's size lives here and is never
//! re-derived at run time: the paced rate of a workload is
//! `readings per epoch / epoch_wall_ms`, chosen on the seed commit to sit
//! near half of that workload's measured `saturate` throughput (see
//! README.md, "Calibration").

use std::fmt::Write as _;

use esp_core::{DeploymentSpec, MergeStage, Pipeline, PointStage, SmoothStage, TemporalGranule};
use esp_gateway::{GatewayConfig, GatewayGroup};
use esp_query::Engine;
use esp_types::{Diagnostic, ReceptorId, ReceptorType, TimeDelta, Ts};

/// Event-time epoch period. Time is compressed in the paced phase: one
/// period of event time is sent in [`Spec::epoch_wall_ms`] of wall time.
pub const PERIOD_MS: u64 = 1000;
/// The boundary that closes epoch `k` (0-based): the epoch covers event
/// time `(k × period, (k + 1) × period]`.
pub fn boundary(k: usize) -> Ts {
    Ts::from_millis((k as u64 + 1) * PERIOD_MS)
}

/// Connections (and generator threads) every workload uses: `nproc` = 2.
pub const N_CONNS: usize = 2;
/// Gateway shards every workload uses.
pub const N_SHARDS: usize = 2;
/// Epochs between checkpoints on `durable-edge`.
pub const CHECKPOINT_EPOCHS: u64 = 8;
/// Every this many epochs the send order is not allowed to reorder frames
/// across the epoch boundary, so a script prefix cut there is itself a
/// valid script (the crash pass of `durable-edge` sends such prefixes).
pub const CLEAN_CUT_EPOCHS: usize = 16;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Gateway edge does nearly all the work.
    EdgeMix,
    /// Declarative CQL cascade over string-keyed windows.
    ShelfCql,
    /// Native long numeric windows.
    RedwoodNative,
    /// `EdgeMix` traffic with WAL + checkpoints, and a crash pass.
    DurableEdge,
}

/// A workload's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Stable name; later issues cite it.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Paced phase: wall milliseconds per epoch of event time.
    pub epoch_wall_ms: u64,
    /// Bounded lateness each connection declares.
    pub lateness_ms: u64,
}

/// The workloads, in the order the all-workloads mode runs them.
pub const ALL: [Spec; 4] = [
    Spec {
        kind: Kind::EdgeMix,
        name: "edge-mix",
        why: "mixed lossy fleet through Point only: frame read, checksum, decode, route, queue and egress dominate",
        epoch_wall_ms: 25,
        lateness_ms: PERIOD_MS,
    },
    Spec {
        kind: Kind::ShelfCql,
        name: "shelf-cql",
        why: "RFID shelves through a declarative CQL cascade: esp-query exec over short string-keyed windows dominates",
        epoch_wall_ms: 25,
        lateness_ms: 0,
    },
    Spec {
        kind: Kind::RedwoodNative,
        name: "redwood-native",
        why: "mote floats through native 30-epoch windows: long numeric window state, no CQL, no strings",
        epoch_wall_ms: 25,
        lateness_ms: 0,
    },
    Spec {
        kind: Kind::DurableEdge,
        name: "durable-edge",
        why: "edge-mix traffic with WAL and checkpoints on, plus a kill-and-recover pass: the write path beside the read path",
        epoch_wall_ms: 25,
        lateness_ms: PERIOD_MS,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// What a receptor puts on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// RFID tag sightings.
    Tag,
    /// One float per sample.
    Scalar,
    /// Two floats per sample.
    Dual,
    /// X10 `"ON"` events.
    Event,
}

/// One simulated device.
#[derive(Debug, Clone, Copy)]
pub struct Receptor {
    /// Wire identity.
    pub id: ReceptorId,
    /// Index of its proximity group in [`Fleet::groups`].
    pub group: usize,
    /// The connection that carries it.
    pub conn: usize,
    /// Its wire kind.
    pub emit: Emit,
}

/// A workload's devices and proximity groups.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Proximity groups, one spatial granule each.
    pub groups: Vec<GatewayGroup>,
    /// Devices, sorted by id.
    pub receptors: Vec<Receptor>,
}

// edge-mix / durable-edge sizing: 22 receptors over 8 granules, the first
// of which ("shelf-hot") carries 8 of them. Same traffic shape, each at
// its own rate: the WAL roughly halves what the edge sustains.
const EDGE_SAMPLES_PER_EPOCH: usize = 312;
const DURABLE_SAMPLES_PER_EPOCH: usize = 180;
// shelf-cql sizing.
/// Shelves (= granules) on `shelf-cql`.
pub const SHELVES: usize = 32;
/// Tag slots per shelf; each is present or absent per epoch.
pub const TAGS_PER_SHELF: usize = 90;
// redwood-native sizing.
/// Granules (tree heights) on `redwood-native`.
pub const HEIGHTS: usize = 16;
const MOTES_PER_HEIGHT: usize = 3;
/// Samples per mote per epoch on `redwood-native`.
pub const MOTE_SAMPLES_PER_EPOCH: usize = 50;
/// Smooth window on `redwood-native`, in epochs.
pub const REDWOOD_WINDOW_EPOCHS: u64 = 30;
/// Smooth window on `shelf-cql` and `durable-edge`, in epochs.
pub const COUNT_WINDOW_EPOCHS: u64 = 5;

impl Spec {
    /// Pre-channel samples one receptor takes per epoch (`shelf-cql`
    /// readers instead attempt every present tag once).
    pub fn samples_per_epoch(&self) -> usize {
        match self.kind {
            Kind::EdgeMix => EDGE_SAMPLES_PER_EPOCH,
            Kind::DurableEdge => DURABLE_SAMPLES_PER_EPOCH,
            Kind::ShelfCql => TAGS_PER_SHELF,
            Kind::RedwoodNative => MOTE_SAMPLES_PER_EPOCH,
        }
    }

    /// Build the fleet. Receptors alternate between the two connections
    /// so each connection carries every kind and granule.
    pub fn fleet(&self) -> Fleet {
        let mut groups = Vec::new();
        let mut receptors = Vec::new();
        let mut add = |granule: String, rtype: ReceptorType, emits: &[Emit]| {
            let group = groups.len();
            let members = emits
                .iter()
                .map(|&emit| {
                    let id = ReceptorId(receptors.len() as u32);
                    receptors.push(Receptor {
                        id,
                        group,
                        conn: receptors.len() % N_CONNS,
                        emit,
                    });
                    id
                })
                .collect();
            groups.push(GatewayGroup {
                receptor_type: rtype,
                granule,
                members,
            });
        };
        match self.kind {
            Kind::EdgeMix | Kind::DurableEdge => {
                add("shelf-hot".into(), ReceptorType::Rfid, &[Emit::Tag; 8]);
                for i in 1..3 {
                    add(format!("shelf{i}"), ReceptorType::Rfid, &[Emit::Tag; 2]);
                }
                for i in 0..3 {
                    add(
                        format!("room{i}"),
                        ReceptorType::Mote,
                        &[Emit::Scalar, Emit::Dual],
                    );
                }
                for i in 0..2 {
                    add(
                        format!("hall{i}"),
                        ReceptorType::X10Motion,
                        &[Emit::Event; 2],
                    );
                }
            }
            Kind::ShelfCql => {
                for i in 0..SHELVES {
                    add(format!("shelf{i}"), ReceptorType::Rfid, &[Emit::Tag; 2]);
                }
            }
            Kind::RedwoodNative => {
                for i in 0..HEIGHTS {
                    add(
                        format!("height{i}"),
                        ReceptorType::Mote,
                        &[Emit::Scalar, Emit::Dual, Emit::Scalar][..MOTES_PER_HEIGHT],
                    );
                }
            }
        }
        Fleet { groups, receptors }
    }

    /// The narrowest smoothing window of the cascade, for the E0501
    /// lateness-vs-window deploy check.
    pub fn smooth_window(&self) -> Option<TimeDelta> {
        match self.kind {
            Kind::EdgeMix => None,
            Kind::ShelfCql | Kind::DurableEdge => {
                Some(TimeDelta::from_millis(COUNT_WINDOW_EPOCHS * PERIOD_MS))
            }
            Kind::RedwoodNative => Some(TimeDelta::from_millis(REDWOOD_WINDOW_EPOCHS * PERIOD_MS)),
        }
    }

    /// Gateway configuration, without durability.
    pub fn gateway_config(&self, fleet: &Fleet) -> GatewayConfig {
        let mut config = GatewayConfig::new(fleet.groups.clone());
        config.n_shards = N_SHARDS;
        config.min_connections = N_CONNS;
        config.period = TimeDelta::from_millis(PERIOD_MS);
        config.start = boundary(0);
        config.max_lateness = Some(TimeDelta::from_millis(self.lateness_ms));
        config
    }

    /// The CQL this workload deploys, if any: `(stage label, scope, query)`.
    pub fn cql(&self) -> Vec<(&'static str, &'static str, &'static str)> {
        match self.kind {
            Kind::ShelfCql => vec![
                // Paper Query 2, per reader.
                (
                    "smooth",
                    "per_receptor",
                    "SELECT spatial_granule, tag_id, count(*) AS n \
                     FROM smooth_input [Range By '5 sec'] \
                     GROUP BY spatial_granule, tag_id",
                ),
                // The shelf's two readers reinforce each other. (The
                // paper's Arbitrate is global-scope, which a gateway with
                // more than one live shard refuses with E0502.)
                (
                    "merge",
                    "per_group",
                    "SELECT spatial_granule, tag_id, max(n) AS n \
                     FROM merge_input [Range By 'NOW'] \
                     GROUP BY spatial_granule, tag_id",
                ),
            ],
            _ => Vec::new(),
        }
    }

    /// `shelf-cql`'s deployment document.
    pub fn deployment_json(&self, fleet: &Fleet) -> String {
        let mut doc = String::from(
            "{\"temporal_granule\":\"1 sec\",\"smooth_window\":\"5 sec\",\"groups\":[",
        );
        for (i, g) in fleet.groups.iter().enumerate() {
            let members: Vec<String> = g.members.iter().map(|m| m.0.to_string()).collect();
            let _ = write!(
                doc,
                "{}{{\"granule\":\"{}\",\"receptor_type\":\"rfid\",\"members\":[{}]}}",
                if i > 0 { "," } else { "" },
                g.granule,
                members.join(",")
            );
        }
        doc.push_str("],\"stages\":[");
        for (i, (label, scope, query)) in self.cql().iter().enumerate() {
            let _ = write!(
                doc,
                "{}{{\"declarative\":{{\"scope\":\"{scope}\",\"label\":\"{label}\",\"query\":\"{query}\"}}}}",
                if i > 0 { "," } else { "" },
            );
        }
        doc.push_str("]}");
        doc
    }

    /// Deploy-time static checks, as a deployer would run them before
    /// spawning: the gateway lints always, the deployment-document lints
    /// where the workload has a document.
    pub fn deploy_checks(&self, fleet: &Fleet, config: &GatewayConfig) -> Vec<Diagnostic> {
        let mut diags = esp_lint::lint_gateway(config, self.smooth_window());
        if self.kind == Kind::ShelfCql {
            diags.extend(esp_lint::lint_deployment(&self.deployment_json(fleet)));
        }
        diags
    }

    /// Build the cleaning cascade. Called once per shard and once for the
    /// single-process reference; stages are named after the paper's stage
    /// they implement so per-stage spans can be attributed.
    pub fn pipeline(&self, fleet: &Fleet) -> esp_types::Result<Pipeline> {
        Ok(match self.kind {
            Kind::EdgeMix => Pipeline::builder()
                .per_receptor("point", |_| Ok(Box::new(PointStage::new("point"))))
                .build(),
            Kind::DurableEdge => Pipeline::builder()
                .per_receptor("point", |_| Ok(Box::new(PointStage::new("point"))))
                .per_receptor("smooth", |_| {
                    Ok(Box::new(SmoothStage::count_by_key(
                        "smooth",
                        TimeDelta::from_millis(COUNT_WINDOW_EPOCHS * PERIOD_MS),
                        ["spatial_granule", "receptor_id"],
                    )))
                })
                .build(),
            Kind::ShelfCql => {
                let doc = DeploymentSpec::from_json(&self.deployment_json(fleet))?;
                doc.build_pipeline(&Engine::new())?
            }
            Kind::RedwoodNative => {
                let window = TemporalGranule::with_window(
                    TimeDelta::from_millis(PERIOD_MS),
                    TimeDelta::from_millis(REDWOOD_WINDOW_EPOCHS * PERIOD_MS),
                )?;
                Pipeline::builder()
                    .per_receptor("point", |_| {
                        Ok(Box::new(PointStage::new("point").range_filter(
                            "temp",
                            None,
                            Some(50.0),
                        )))
                    })
                    .per_receptor("smooth", move |_| {
                        Ok(Box::new(SmoothStage::windowed_mean(
                            "smooth",
                            window,
                            ["spatial_granule", "receptor_id"],
                            "temp",
                        )))
                    })
                    .per_group("merge", |ctx| {
                        let granule = ctx.granule.clone().ok_or_else(|| {
                            esp_types::EspError::Config("merge stage needs a granule".into())
                        })?;
                        Ok(Box::new(MergeStage::outlier_filtered_mean(
                            "merge",
                            granule,
                            TimeDelta::from_millis(PERIOD_MS),
                            "temp",
                            1.0,
                        )))
                    })
                    .build()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_gateway::shard_of_granule;

    #[test]
    fn every_workload_uses_both_shards_and_both_connections() {
        for spec in ALL {
            let fleet = spec.fleet();
            let mut shards = [0usize; N_SHARDS];
            for g in &fleet.groups {
                shards[shard_of_granule(&g.granule, N_SHARDS)] += g.members.len();
            }
            assert!(shards.iter().all(|&n| n > 0), "{}: {shards:?}", spec.name);
            for c in 0..N_CONNS {
                assert!(fleet.receptors.iter().any(|r| r.conn == c));
            }
            assert!(fleet.receptors.windows(2).all(|w| w[0].id.0 < w[1].id.0));
        }
    }

    #[test]
    fn deploy_checks_are_clean_and_pipelines_build() {
        for spec in ALL {
            let fleet = spec.fleet();
            let config = spec.gateway_config(&fleet);
            let errors: Vec<_> = spec
                .deploy_checks(&fleet, &config)
                .into_iter()
                .filter(Diagnostic::is_error)
                .collect();
            assert!(errors.is_empty(), "{}: {errors:?}", spec.name);
            spec.pipeline(&fleet).expect("pipeline builds");
        }
    }
}
