//! Declarative deployment descriptors.
//!
//! The paper's second design goal is that ESP be "easy to deploy and
//! configure" (§1): "deploying a cleaning pipeline using ESP involves
//! implementing one or more of these stages … in many cases through
//! declarative queries" (§3.3). [`DeploymentSpec`] takes that to its
//! conclusion: an entire deployment — temporal granule, proximity groups,
//! and the stage cascade (including stages written as embedded CQL) — is a
//! JSON document, so reconfiguring for a new deployment means editing a
//! config file, not recompiling.
//!
//! ```json
//! {
//!   "temporal_granule": "5 sec",
//!   "groups": [
//!     { "granule": "shelf0", "receptor_type": "rfid", "members": [0] },
//!     { "granule": "shelf1", "receptor_type": "rfid", "members": [1] }
//!   ],
//!   "stages": [
//!     { "smooth": { "mode": "count_by_key", "keys": ["spatial_granule", "tag_id"] } },
//!     { "arbitrate": { "tie_break": { "priority": ["shelf1", "shelf0"] } } }
//!   ]
//! }
//! ```

use std::sync::Arc;

use serde::{value::Value as Json, DeError, Deserialize};

use esp_query::Engine;
use esp_types::{
    registry, well_known, DataType, Diagnostic, EspError, Field, ReceptorId, ReceptorType, Result,
    Schema, SpatialGranule, TimeDelta, Value,
};

use crate::pipeline::{Pipeline, PipelineBuilder, StageCtx};
use crate::proximity::ProximityGroups;
use crate::stage::{DeclarativeStage, Stage};
use crate::stages::arbitrate::{ArbitrateStage, TieBreak};
use crate::stages::merge::MergeStage;
use crate::stages::point::PointStage;
use crate::stages::smooth::SmoothStage;
use crate::stages::virtualize::{VirtualizeStage, VoteRule};
use crate::TemporalGranule;

/// A complete ESP deployment described as data.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// The application's temporal granule (`"5 sec"`, `"5 min"`, …).
    pub temporal_granule: String,
    /// Optional expanded smoothing window (§5.2.1); defaults to the
    /// granule.
    pub smooth_window: Option<String>,
    /// The proximity groups.
    pub groups: Vec<GroupSpec>,
    /// The stage cascade, in order.
    pub stages: Vec<StageSpec>,
}

/// One proximity group in a deployment document.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Spatial granule name.
    pub granule: String,
    /// Receptor type: `"rfid"`, `"mote"`, or `"x10-motion"`.
    pub receptor_type: String,
    /// Member device ids.
    pub members: Vec<u32>,
}

/// One stage of the cascade. Scope defaults follow the paper's pipeline
/// (Point/Smooth per receptor, Merge per group, Arbitrate/Virtualize
/// global); `declarative` stages choose their scope explicitly.
#[derive(Debug, Clone)]
pub enum StageSpec {
    /// Tuple-level filters.
    Point(PointSpec),
    /// Temporal-granule aggregation (per receptor).
    Smooth(SmoothSpec),
    /// Spatial-granule aggregation (per group).
    Merge(MergeSpec),
    /// Cross-granule conflict resolution (global).
    Arbitrate(ArbitrateSpec),
    /// Cross-type fusion (global).
    Virtualize(VirtualizeSpec),
    /// An arbitrary stage written as a CQL continuous query.
    Declarative(DeclarativeSpec),
}

/// Point-stage configuration.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Numeric range filters: keep `min <= field <= max`.
    pub range_filters: Vec<RangeFilterSpec>,
    /// Keep only tuples whose `field` is one of `allowed`.
    pub expected_values: Option<ExpectedValuesSpec>,
}

/// One numeric range filter.
#[derive(Debug, Clone)]
pub struct RangeFilterSpec {
    /// Field to test.
    pub field: String,
    /// Lower bound (unbounded if absent).
    pub min: Option<f64>,
    /// Upper bound (unbounded if absent).
    pub max: Option<f64>,
}

/// Expected-values filter.
#[derive(Debug, Clone)]
pub struct ExpectedValuesSpec {
    /// Field to test.
    pub field: String,
    /// The allowed values.
    pub allowed: Vec<String>,
}

/// Smooth-stage configuration.
#[derive(Debug, Clone)]
pub struct SmoothSpec {
    /// `count_by_key`, `windowed_mean`, `event_presence`, or `ewma`.
    pub mode: String,
    /// Grouping keys (e.g. `["spatial_granule", "tag_id"]`).
    pub keys: Vec<String>,
    /// Value field for `windowed_mean` / `ewma` / `event_presence`.
    pub value_field: Option<String>,
    /// `event_presence`: the "on" value (default `"ON"`).
    pub on_value: Option<String>,
    /// `event_presence`: events required in the window (default 1).
    pub min_events: Option<usize>,
    /// `ewma`: smoothing factor in `[0, 1]`.
    pub alpha: Option<f64>,
}

/// Merge-stage configuration.
#[derive(Debug, Clone)]
pub struct MergeSpec {
    /// `outlier_filtered_mean`, `union_all`, `vote_threshold`, or
    /// `windowed_median`.
    pub mode: String,
    /// Value field for the scalar modes.
    pub value_field: Option<String>,
    /// `outlier_filtered_mean`: rejection threshold in σ (default 1.0).
    pub k: Option<f64>,
    /// `union_all`: optional dedup key.
    pub dedup_key: Option<String>,
    /// `vote_threshold`: the "on" value (default `"ON"`).
    pub on_value: Option<String>,
    /// `vote_threshold`: device field (default `"receptor_id"`).
    pub device_field: Option<String>,
    /// `vote_threshold`: devices required (default 2).
    pub min_devices: Option<usize>,
}

/// Arbitrate-stage configuration.
#[derive(Debug, Clone)]
pub struct ArbitrateSpec {
    /// Tie-break policy.
    pub tie_break: Option<TieBreakSpec>,
    /// Key field (default `"tag_id"`).
    pub key_field: Option<String>,
    /// Count field (default `"count"`).
    pub count_field: Option<String>,
}

/// Tie-break policy in a deployment document.
#[derive(Debug, Clone)]
pub enum TieBreakSpec {
    /// Keep the reading in every tied granule.
    KeepAll,
    /// Highest-priority granule wins (first in the list).
    Priority(Vec<String>),
}

/// Virtualize-stage configuration.
#[derive(Debug, Clone)]
pub struct VirtualizeSpec {
    /// The event emitted on detection.
    pub event: String,
    /// Votes required.
    pub threshold: usize,
    /// Voting rules.
    pub rules: Vec<VoteRuleSpec>,
}

/// One vote rule.
#[derive(Debug, Clone)]
pub enum VoteRuleSpec {
    /// Yes when any tuple's `field` exceeds `threshold`.
    NumericAbove {
        /// Field to test.
        field: String,
        /// Threshold value.
        threshold: f64,
    },
    /// Yes when any tuple's `field` equals `value`.
    ValueEquals {
        /// Field to test.
        field: String,
        /// Value to match.
        value: String,
    },
    /// Yes when at least `n` tuples carry a non-null `field`.
    MinTuplesWith {
        /// Field to test.
        field: String,
        /// Required tuple count.
        n: usize,
    },
}

/// A stage written as CQL.
#[derive(Debug, Clone)]
pub struct DeclarativeSpec {
    /// `per_receptor`, `per_group`, or `global`.
    pub scope: String,
    /// The continuous query (single input stream).
    pub query: String,
    /// Display label (defaults to `"declarative"`).
    pub label: Option<String>,
}

/// Required field lookup for the hand-written `Deserialize` impls below
/// (the vendored serde has no derive; see `vendor/serde`).
fn req<T: Deserialize>(v: &Json, key: &str) -> std::result::Result<T, DeError> {
    match v.get(key) {
        Some(x) => T::from_value(x).map_err(|e| DeError::msg(format!("{key}: {e}"))),
        None => Err(DeError::msg(format!("missing field '{key}'"))),
    }
}

/// Optional field lookup: absent and `null` both mean `None`.
fn opt<T: Deserialize>(v: &Json, key: &str) -> std::result::Result<Option<T>, DeError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => T::from_value(x)
            .map(Some)
            .map_err(|e| DeError::msg(format!("{key}: {e}"))),
    }
}

impl Deserialize for DeploymentSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(DeploymentSpec {
            temporal_granule: req(v, "temporal_granule")?,
            smooth_window: opt(v, "smooth_window")?,
            groups: req(v, "groups")?,
            stages: req(v, "stages")?,
        })
    }
}

impl Deserialize for GroupSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(GroupSpec {
            granule: req(v, "granule")?,
            receptor_type: req(v, "receptor_type")?,
            members: req(v, "members")?,
        })
    }
}

impl Deserialize for StageSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        let o = v
            .as_object()
            .ok_or_else(|| DeError::msg(format!("stage must be an object, got {}", v.kind())))?;
        if o.len() != 1 {
            return Err(DeError::msg("stage object must have exactly one key"));
        }
        let (kind, body) = &o[0];
        Ok(match kind.as_str() {
            "point" => StageSpec::Point(PointSpec::from_value(body)?),
            "smooth" => StageSpec::Smooth(SmoothSpec::from_value(body)?),
            "merge" => StageSpec::Merge(MergeSpec::from_value(body)?),
            "arbitrate" => StageSpec::Arbitrate(ArbitrateSpec::from_value(body)?),
            "virtualize" => StageSpec::Virtualize(VirtualizeSpec::from_value(body)?),
            "declarative" => StageSpec::Declarative(DeclarativeSpec::from_value(body)?),
            other => return Err(DeError::msg(format!("unknown stage kind '{other}'"))),
        })
    }
}

impl Deserialize for PointSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(PointSpec {
            range_filters: opt(v, "range_filters")?.unwrap_or_default(),
            expected_values: opt(v, "expected_values")?,
        })
    }
}

impl Deserialize for RangeFilterSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(RangeFilterSpec {
            field: req(v, "field")?,
            min: opt(v, "min")?,
            max: opt(v, "max")?,
        })
    }
}

impl Deserialize for ExpectedValuesSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(ExpectedValuesSpec {
            field: req(v, "field")?,
            allowed: req(v, "allowed")?,
        })
    }
}

impl Deserialize for SmoothSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(SmoothSpec {
            mode: req(v, "mode")?,
            keys: opt(v, "keys")?.unwrap_or_default(),
            value_field: opt(v, "value_field")?,
            on_value: opt(v, "on_value")?,
            min_events: opt(v, "min_events")?,
            alpha: opt(v, "alpha")?,
        })
    }
}

impl Deserialize for MergeSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(MergeSpec {
            mode: req(v, "mode")?,
            value_field: opt(v, "value_field")?,
            k: opt(v, "k")?,
            dedup_key: opt(v, "dedup_key")?,
            on_value: opt(v, "on_value")?,
            device_field: opt(v, "device_field")?,
            min_devices: opt(v, "min_devices")?,
        })
    }
}

impl Deserialize for ArbitrateSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(ArbitrateSpec {
            tie_break: opt(v, "tie_break")?,
            key_field: opt(v, "key_field")?,
            count_field: opt(v, "count_field")?,
        })
    }
}

impl Deserialize for TieBreakSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        // Unit variant as a bare string, data variant externally tagged.
        if let Some(s) = v.as_str() {
            return match s {
                "keep_all" => Ok(TieBreakSpec::KeepAll),
                other => Err(DeError::msg(format!("unknown tie_break '{other}'"))),
            };
        }
        let o = v
            .as_object()
            .filter(|o| o.len() == 1)
            .ok_or_else(|| DeError::msg("tie_break must be a string or one-key object"))?;
        let (kind, body) = &o[0];
        match kind.as_str() {
            "keep_all" => Ok(TieBreakSpec::KeepAll),
            "priority" => Ok(TieBreakSpec::Priority(Vec::<String>::from_value(body)?)),
            other => Err(DeError::msg(format!("unknown tie_break '{other}'"))),
        }
    }
}

impl Deserialize for VirtualizeSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(VirtualizeSpec {
            event: req(v, "event")?,
            threshold: req(v, "threshold")?,
            rules: req(v, "rules")?,
        })
    }
}

impl Deserialize for VoteRuleSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        let kind: String = req(v, "kind")?;
        Ok(match kind.as_str() {
            "numeric_above" => VoteRuleSpec::NumericAbove {
                field: req(v, "field")?,
                threshold: req(v, "threshold")?,
            },
            "value_equals" => VoteRuleSpec::ValueEquals {
                field: req(v, "field")?,
                value: req(v, "value")?,
            },
            "min_tuples_with" => VoteRuleSpec::MinTuplesWith {
                field: req(v, "field")?,
                n: req(v, "n")?,
            },
            other => return Err(DeError::msg(format!("unknown vote rule kind '{other}'"))),
        })
    }
}

impl Deserialize for DeclarativeSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(DeclarativeSpec {
            scope: req(v, "scope")?,
            query: req(v, "query")?,
            label: opt(v, "label")?,
        })
    }
}

impl DeploymentSpec {
    /// Parse a deployment document from JSON.
    pub fn from_json(json: &str) -> Result<DeploymentSpec> {
        serde_json::from_str(json)
            .map_err(|e| EspError::Config(format!("invalid deployment document: {e}")))
    }

    /// The parsed temporal granule (with any window expansion).
    pub fn granule(&self) -> Result<TemporalGranule> {
        let g = TimeDelta::parse(&self.temporal_granule)?;
        match &self.smooth_window {
            Some(w) => TemporalGranule::with_window(g, TimeDelta::parse(w)?),
            None => Ok(TemporalGranule::new(g)),
        }
    }

    /// Build the proximity-group registry.
    pub fn build_groups(&self) -> Result<ProximityGroups> {
        let mut groups = ProximityGroups::new();
        for g in &self.groups {
            let rtype = parse_receptor_type(&g.receptor_type)?;
            groups.add_group(
                rtype,
                g.granule.as_str(),
                g.members.iter().map(|m| ReceptorId(*m)),
            );
        }
        Ok(groups)
    }

    /// Statically validate this deployment document, returning every
    /// finding without building anything.
    ///
    /// Checks performed (see `esp-lint` for the full catalog):
    ///
    /// * `E0204` — a time span (`temporal_granule`, `smooth_window`) that
    ///   does not parse.
    /// * `E0201` — a smoothing window narrower than the temporal granule.
    /// * `E0203` — a smoothing window that is not a whole multiple of the
    ///   granule, so window eviction never aligns with granule boundaries.
    /// * `E0302` — a proximity group with no members.
    /// * `E0303` — two groups sharing one spatial-granule name.
    /// * `E0304` — an unknown receptor type.
    ///
    /// [`EspProcessor::deploy`](crate::EspProcessor::deploy) runs this (plus
    /// receptor-coverage checks) and refuses to build when any
    /// error-severity diagnostic fires.
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let granule = match TimeDelta::parse(&self.temporal_granule) {
            Ok(g) => Some(g),
            Err(e) => {
                diags.push(
                    Diagnostic::error(
                        "E0204",
                        format!(
                            "temporal granule '{}' is not a valid time span",
                            self.temporal_granule
                        ),
                    )
                    .with_note(e.to_string()),
                );
                None
            }
        };
        let window = self
            .smooth_window
            .as_ref()
            .and_then(|w| match TimeDelta::parse(w) {
                Ok(w) => Some(w),
                Err(e) => {
                    diags.push(
                        Diagnostic::error(
                            "E0204",
                            format!("smooth window '{w}' is not a valid time span"),
                        )
                        .with_note(e.to_string()),
                    );
                    None
                }
            });
        if let (Some(g), Some(w)) = (granule, window) {
            if w < g {
                diags.push(
                    Diagnostic::error(
                        "E0201",
                        format!(
                            "smoothing window ({w}) is narrower than the temporal granule ({g})"
                        ),
                    )
                    .with_note("the window must cover at least one full granule (paper §4.3.2)"),
                );
            } else if g.as_millis() > 0 && w.as_millis() % g.as_millis() != 0 {
                diags.push(
                    Diagnostic::error(
                        "E0203",
                        format!(
                            "smoothing window ({w}) is not a whole multiple of the temporal \
                             granule ({g})"
                        ),
                    )
                    .with_note(
                        "output is emitted at granule boundaries; a fractional window \
                         mis-aligns eviction with emission",
                    ),
                );
            }
        }
        let mut seen: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (i, g) in self.groups.iter().enumerate() {
            if g.members.is_empty() {
                diags.push(
                    Diagnostic::error(
                        "E0302",
                        format!("proximity group '{}' has no members", g.granule),
                    )
                    .with_note("Merge over an empty group can never produce output"),
                );
            }
            if let Some(prev) = seen.insert(g.granule.as_str(), i) {
                diags.push(
                    Diagnostic::error(
                        "E0303",
                        format!(
                            "spatial granule '{}' is declared by two groups (#{prev} and #{i})",
                            g.granule
                        ),
                    )
                    .with_note(
                        "granule names identify groups downstream; duplicates make \
                         Arbitrate tie-breaks ambiguous",
                    ),
                );
            }
            if parse_receptor_type(&g.receptor_type).is_err() {
                diags.push(Diagnostic::error(
                    "E0304",
                    format!(
                        "group '{}' names unknown receptor type '{}'",
                        g.granule, g.receptor_type
                    ),
                ));
            }
        }
        esp_types::diag::sort_diagnostics(&mut diags);
        diags
    }

    /// Build the pipeline. Declarative stages are compiled against
    /// `engine`'s catalog (static relations, UDFs, UDAs). When the
    /// deployment pins down the entry schema (see
    /// [`entry_schema`](Self::entry_schema)), the first stage's query is
    /// additionally slot-resolved against it at deploy time, so unknown
    /// or ambiguous field references fail here — with source spans — and
    /// the stage executes on compiled slots from its very first epoch.
    pub fn build_pipeline(&self, engine: &Engine) -> Result<Pipeline> {
        let granule = self.granule()?;
        let entry = self.entry_schema();
        let mut builder = Pipeline::builder();
        for (i, stage) in self.stages.iter().enumerate() {
            let declared = if i == 0 { entry.clone() } else { None };
            builder = add_stage(builder, stage, granule, engine, declared)?;
        }
        Ok(builder.build())
    }

    /// The schema tuples carry into the first pipeline stage, when the
    /// deployment determines it: every group uses the same receptor type,
    /// that type has a single well-known raw layout, and the processor
    /// appends `spatial_granule`. Mote deployments return `None` (motes
    /// report several layouts: temperature, sound, temperature+voltage),
    /// as do mixed-type deployments — those resolve lazily at runtime.
    pub fn entry_schema(&self) -> Option<Arc<Schema>> {
        let mut types = self
            .groups
            .iter()
            .map(|g| parse_receptor_type(&g.receptor_type).ok());
        let first = types.next()??;
        for t in types {
            if t? != first {
                return None;
            }
        }
        let raw = match first {
            ReceptorType::Rfid => well_known::rfid_schema(),
            ReceptorType::X10Motion => well_known::motion_schema(),
            ReceptorType::Mote | ReceptorType::Other(_) => return None,
        };
        let extended = raw
            .with_field(Field::new(well_known::SPATIAL_GRANULE, DataType::Str))
            .ok()?;
        Some(registry::intern(&extended))
    }
}

pub(crate) fn parse_receptor_type(s: &str) -> Result<ReceptorType> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "rfid" => ReceptorType::Rfid,
        "mote" => ReceptorType::Mote,
        "x10-motion" | "x10" => ReceptorType::X10Motion,
        other => return Err(EspError::Config(format!("unknown receptor type '{other}'"))),
    })
}

fn add_stage(
    builder: PipelineBuilder,
    spec: &StageSpec,
    granule: TemporalGranule,
    engine: &Engine,
    declared: Option<Arc<Schema>>,
) -> Result<PipelineBuilder> {
    Ok(match spec {
        StageSpec::Point(p) => {
            let p = p.clone();
            builder.per_receptor("point", move |_ctx: &StageCtx| {
                let mut stage = PointStage::new("point");
                for rf in &p.range_filters {
                    stage = stage.range_filter(&rf.field, rf.min, rf.max);
                }
                if let Some(ev) = &p.expected_values {
                    stage = stage.expected_values(&ev.field, ev.allowed.iter());
                }
                Ok(Box::new(stage))
            })
        }
        StageSpec::Smooth(s) => {
            let s = s.clone();
            // Validate the mode eagerly so configuration errors surface at
            // deploy time, not first-epoch time.
            s.build(granule)?;
            builder.per_receptor("smooth", move |_ctx: &StageCtx| s.build(granule))
        }
        StageSpec::Merge(m) => {
            let m = m.clone();
            {
                let probe = StageCtx {
                    scope: crate::Scope::PerGroup,
                    receptor: None,
                    receptor_type: None,
                    group: None,
                    granule: Some(SpatialGranule::new("probe")),
                };
                build_merge(&m, granule, &probe)?;
            }
            builder.per_group("merge", move |ctx: &StageCtx| build_merge(&m, granule, ctx))
        }
        StageSpec::Arbitrate(a) => {
            let a = a.clone();
            builder.global("arbitrate", move |_ctx: &StageCtx| {
                let tie = match &a.tie_break {
                    None | Some(TieBreakSpec::KeepAll) => TieBreak::KeepAll,
                    Some(TieBreakSpec::Priority(names)) => {
                        TieBreak::Priority(names.iter().map(|n| Arc::from(n.as_str())).collect())
                    }
                };
                let mut stage = ArbitrateStage::new("arbitrate", tie);
                if a.key_field.is_some() || a.count_field.is_some() {
                    stage = stage.with_fields(
                        a.key_field.clone().unwrap_or_else(|| "tag_id".into()),
                        a.count_field.clone().unwrap_or_else(|| "count".into()),
                    );
                }
                Ok(Box::new(stage))
            })
        }
        StageSpec::Virtualize(v) => {
            let v = v.clone();
            build_virtualize(&v)?; // eager validation
            builder.global("virtualize", move |_ctx: &StageCtx| build_virtualize(&v))
        }
        StageSpec::Declarative(d) => {
            let label = d.label.clone().unwrap_or_else(|| "declarative".into());
            // Compile eagerly once to validate the query text and learn
            // its (single) input stream.
            let probe = engine.compile(&d.query)?;
            let entry_stream = probe.input_streams().first().cloned();
            DeclarativeStage::new(label.clone(), probe)?;
            // When the deployment determines the stage's input schema,
            // slot-resolve the query against it now: unknown/ambiguous
            // field references become deploy errors with spans, and the
            // stage runs on compiled slots from its first epoch.
            let declared = match (declared, entry_stream) {
                (Some(schema), Some(stream)) => {
                    engine.compile_with_schemas(&d.query, &[(&stream, Arc::clone(&schema))])?;
                    Some((stream, schema))
                }
                _ => None,
            };
            let engine = engine.clone();
            let query = d.query.clone();
            let factory = move |_ctx: &StageCtx| -> Result<Box<dyn Stage>> {
                let compiled = match &declared {
                    Some((stream, schema)) => engine
                        .compile_with_schemas(&query, &[(stream.as_str(), Arc::clone(schema))])?,
                    None => engine.compile(&query)?,
                };
                Ok(Box::new(DeclarativeStage::new(label.clone(), compiled)?))
            };
            match d.scope.as_str() {
                "per_receptor" => builder.per_receptor("declarative", factory),
                "per_group" => builder.per_group("declarative", factory),
                "global" => builder.global("declarative", factory),
                other => return Err(EspError::Config(format!("unknown stage scope '{other}'"))),
            }
        }
    })
}

impl SmoothSpec {
    /// Build the Smooth stage this spec describes over `granule` — what
    /// [`DeploymentSpec::build_pipeline`] instantiates per receptor.
    pub fn build(&self, granule: TemporalGranule) -> Result<Box<dyn Stage>> {
        let value_field = || {
            self.value_field.clone().ok_or_else(|| {
                EspError::Config(format!("smooth mode '{}' needs value_field", self.mode))
            })
        };
        Ok(match self.mode.as_str() {
            "count_by_key" => Box::new(SmoothStage::count_by_key(
                "smooth",
                granule,
                self.keys.iter().cloned(),
            )),
            "windowed_mean" => Box::new(SmoothStage::windowed_mean(
                "smooth",
                granule,
                self.keys.iter().cloned(),
                value_field()?,
            )),
            "event_presence" => Box::new(SmoothStage::event_presence(
                "smooth",
                granule,
                self.keys.iter().cloned(),
                value_field()?,
                Value::str(self.on_value.as_deref().unwrap_or("ON")),
                self.min_events.unwrap_or(1),
            )),
            "ewma" => Box::new(SmoothStage::ewma(
                "smooth",
                granule,
                self.keys.iter().cloned(),
                value_field()?,
                self.alpha.unwrap_or(0.5),
            )?),
            other => return Err(EspError::Config(format!("unknown smooth mode '{other}'"))),
        })
    }
}

fn build_merge(m: &MergeSpec, granule: TemporalGranule, ctx: &StageCtx) -> Result<Box<dyn Stage>> {
    let spatial = ctx
        .granule
        .clone()
        .unwrap_or_else(|| SpatialGranule::new("unknown"));
    let value_field = || {
        m.value_field
            .clone()
            .ok_or_else(|| EspError::Config(format!("merge mode '{}' needs value_field", m.mode)))
    };
    Ok(match m.mode.as_str() {
        "outlier_filtered_mean" => Box::new(MergeStage::outlier_filtered_mean(
            "merge",
            spatial,
            granule,
            value_field()?,
            m.k.unwrap_or(1.0),
        )),
        "union_all" => Box::new(MergeStage::union_all("merge", spatial, m.dedup_key.clone())),
        "vote_threshold" => Box::new(MergeStage::vote_threshold(
            "merge",
            spatial,
            granule,
            value_field()?,
            Value::str(m.on_value.as_deref().unwrap_or("ON")),
            m.device_field
                .clone()
                .unwrap_or_else(|| "receptor_id".into()),
            m.min_devices.unwrap_or(2),
        )),
        "windowed_median" => Box::new(MergeStage::windowed_median(
            "merge",
            spatial,
            granule,
            value_field()?,
        )),
        other => return Err(EspError::Config(format!("unknown merge mode '{other}'"))),
    })
}

fn build_virtualize(v: &VirtualizeSpec) -> Result<Box<dyn Stage>> {
    let rules: Vec<VoteRule> = v
        .rules
        .iter()
        .map(|r| match r {
            VoteRuleSpec::NumericAbove { field, threshold } => {
                VoteRule::numeric_above(field.clone(), field.clone(), *threshold)
            }
            VoteRuleSpec::ValueEquals { field, value } => {
                VoteRule::value_equals(field.clone(), field.clone(), Value::str(value))
            }
            VoteRuleSpec::MinTuplesWith { field, n } => {
                VoteRule::min_tuples_with(field.clone(), field.clone(), *n)
            }
        })
        .collect();
    Ok(Box::new(VirtualizeStage::voting(
        "virtualize",
        Value::str(&v.event),
        rules,
        v.threshold,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EspProcessor, ReceptorBinding};
    use esp_stream::ScriptedSource;
    use esp_types::{well_known, Ts, Tuple, TupleBuilder};

    const SHELF_DEPLOYMENT: &str = r#"{
        "temporal_granule": "5 sec",
        "groups": [
            { "granule": "shelf0", "receptor_type": "rfid", "members": [0] },
            { "granule": "shelf1", "receptor_type": "rfid", "members": [1] }
        ],
        "stages": [
            { "smooth": { "mode": "count_by_key",
                          "keys": ["spatial_granule", "tag_id"] } },
            { "arbitrate": { "tie_break": { "priority": ["shelf1", "shelf0"] } } }
        ]
    }"#;

    fn sighting(ts: Ts, reader: i64, tag: &str) -> Tuple {
        TupleBuilder::new(&well_known::rfid_schema(), ts)
            .set("receptor_id", reader)
            .unwrap()
            .set("tag_id", tag)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn shelf_deployment_parses_and_runs() {
        let spec = DeploymentSpec::from_json(SHELF_DEPLOYMENT).unwrap();
        assert_eq!(spec.granule().unwrap().granule(), TimeDelta::from_secs(5));
        let groups = spec.build_groups().unwrap();
        assert_eq!(groups.len(), 2);
        let pipeline = spec.build_pipeline(&Engine::new()).unwrap();
        assert_eq!(pipeline.len(), 2);

        // Run: reader 0 sees the tag 3×, reader 1 once → arbitrate to shelf0.
        let r0 = ScriptedSource::new(
            "r0",
            vec![(
                Ts::ZERO,
                vec![
                    sighting(Ts::ZERO, 0, "x"),
                    sighting(Ts::ZERO, 0, "x"),
                    sighting(Ts::ZERO, 0, "x"),
                ],
            )],
        );
        let r1 = ScriptedSource::new("r1", vec![(Ts::ZERO, vec![sighting(Ts::ZERO, 1, "x")])]);
        let proc = EspProcessor::build(
            groups,
            &pipeline,
            vec![
                ReceptorBinding::new(ReceptorId(0), ReceptorType::Rfid, Box::new(r0)),
                ReceptorBinding::new(ReceptorId(1), ReceptorType::Rfid, Box::new(r1)),
            ],
        )
        .unwrap();
        let out = proc.run(Ts::ZERO, TimeDelta::from_millis(200), 1).unwrap();
        let batch = &out.trace[0].1;
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].get("spatial_granule"), Some(&Value::str("shelf0")));
    }

    #[test]
    fn declarative_stage_in_json() {
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [
                { "granule": "shelf0", "receptor_type": "rfid", "members": [0] }
            ],
            "stages": [
                { "declarative": {
                    "scope": "per_receptor",
                    "label": "smooth(Q2)",
                    "query": "SELECT tag_id, count(*) FROM smooth_input [Range By '5 sec'] GROUP BY tag_id"
                } }
            ]
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        let pipeline = spec.build_pipeline(&Engine::new()).unwrap();
        let proc = EspProcessor::build(
            spec.build_groups().unwrap(),
            &pipeline,
            vec![ReceptorBinding::new(
                ReceptorId(0),
                ReceptorType::Rfid,
                Box::new(ScriptedSource::new(
                    "r",
                    vec![(Ts::ZERO, vec![sighting(Ts::ZERO, 0, "a")])],
                )),
            )],
        )
        .unwrap();
        let out = proc.run(Ts::ZERO, TimeDelta::from_secs(1), 3).unwrap();
        // The CQL smooth interpolates across all three epochs.
        assert!(out.trace.iter().all(|(_, b)| b.len() == 1));
    }

    #[test]
    fn entry_field_typos_fail_at_deploy_time() {
        // rfid deployments pin the first stage's input schema, so a typo'd
        // field reference is a deploy error with a span — not a per-row
        // runtime error on the first epoch.
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [{ "granule": "g", "receptor_type": "rfid", "members": [0] }],
            "stages": [
                { "declarative": {
                    "scope": "per_receptor",
                    "query": "SELECT tag_idd FROM s [Range By '5 sec']"
                } }
            ]
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        let err = spec.build_pipeline(&Engine::new()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("tag_idd"), "{msg}");

        // The injected spatial_granule column is part of the declared
        // schema, so queries over it still deploy.
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [{ "granule": "g", "receptor_type": "rfid", "members": [0] }],
            "stages": [
                { "declarative": {
                    "scope": "per_receptor",
                    "query": "SELECT spatial_granule, tag_id FROM s [Range By '5 sec']"
                } }
            ]
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        assert!(spec.build_pipeline(&Engine::new()).is_ok());
    }

    #[test]
    fn mote_and_mixed_deployments_resolve_lazily() {
        // Motes report several tuple layouts, so the entry schema is
        // undetermined and field references stay lazily resolved.
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [{ "granule": "g", "receptor_type": "mote", "members": [0] }],
            "stages": [
                { "declarative": {
                    "scope": "per_receptor",
                    "query": "SELECT maybe_voltage FROM s [Range By '5 sec']"
                } }
            ]
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        assert!(spec.entry_schema().is_none());
        assert!(spec.build_pipeline(&Engine::new()).is_ok());

        // Mixed receptor types likewise leave the entry schema open.
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [
                { "granule": "a", "receptor_type": "rfid", "members": [0] },
                { "granule": "b", "receptor_type": "x10-motion", "members": [1] }
            ],
            "stages": []
        }"#;
        assert!(DeploymentSpec::from_json(doc)
            .unwrap()
            .entry_schema()
            .is_none());
    }

    #[test]
    fn entry_schema_is_interned_and_extended() {
        let spec = DeploymentSpec::from_json(SHELF_DEPLOYMENT).unwrap();
        let schema = spec.entry_schema().expect("rfid entry schema");
        assert!(schema.index_of(well_known::SPATIAL_GRANULE).is_some());
        assert!(schema.index_of("tag_id").is_some());
        // Interned: asking again yields the very same allocation.
        let again = spec.entry_schema().unwrap();
        assert!(Arc::ptr_eq(&schema, &again));
    }

    #[test]
    fn bad_documents_are_rejected_at_deploy_time() {
        // Malformed JSON.
        assert!(DeploymentSpec::from_json("{").is_err());
        // Unknown smooth mode surfaces when the pipeline is built.
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [{ "granule": "g", "receptor_type": "mote", "members": [0] }],
            "stages": [ { "smooth": { "mode": "psychic" } } ]
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        let err = spec.build_pipeline(&Engine::new()).unwrap_err();
        assert!(err.to_string().contains("psychic"));
        // Bad CQL in a declarative stage surfaces at build time too.
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [{ "granule": "g", "receptor_type": "mote", "members": [0] }],
            "stages": [ { "declarative": { "scope": "global", "query": "SELEC oops" } } ]
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        assert!(spec.build_pipeline(&Engine::new()).is_err());
        // Unknown receptor type.
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [{ "granule": "g", "receptor_type": "lidar", "members": [0] }],
            "stages": []
        }"#;
        assert!(DeploymentSpec::from_json(doc)
            .unwrap()
            .build_groups()
            .is_err());
        // Bad granule text.
        let doc = r#"{
            "temporal_granule": "sideways",
            "groups": [{ "granule": "g", "receptor_type": "mote", "members": [0] }],
            "stages": []
        }"#;
        assert!(DeploymentSpec::from_json(doc).unwrap().granule().is_err());
    }

    #[test]
    fn validate_accepts_shipped_deployment() {
        let spec = DeploymentSpec::from_json(SHELF_DEPLOYMENT).unwrap();
        assert!(spec.validate().is_empty());
    }

    #[test]
    fn validate_catches_temporal_and_spatial_defects() {
        let doc = r#"{
            "temporal_granule": "5 sec",
            "smooth_window": "12 sec",
            "groups": [
                { "granule": "a", "receptor_type": "rfid", "members": [] },
                { "granule": "a", "receptor_type": "lidar", "members": [1] }
            ],
            "stages": []
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        let diags = spec.validate();
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E0203"), "{codes:?}"); // 12 s not multiple of 5 s
        assert!(codes.contains(&"E0302"), "{codes:?}"); // empty group
        assert!(codes.contains(&"E0303"), "{codes:?}"); // duplicate granule 'a'
        assert!(codes.contains(&"E0304"), "{codes:?}"); // unknown receptor type
        assert!(diags.iter().all(|d| d.is_error()));
    }

    #[test]
    fn validate_catches_narrow_window_and_bad_spans() {
        let doc = r#"{
            "temporal_granule": "5 sec",
            "smooth_window": "1 sec",
            "groups": [{ "granule": "g", "receptor_type": "mote", "members": [0] }],
            "stages": []
        }"#;
        let diags = DeploymentSpec::from_json(doc).unwrap().validate();
        assert!(diags.iter().any(|d| d.code == "E0201"), "{diags:?}");

        let doc = r#"{
            "temporal_granule": "sideways",
            "groups": [{ "granule": "g", "receptor_type": "mote", "members": [0] }],
            "stages": []
        }"#;
        let diags = DeploymentSpec::from_json(doc).unwrap().validate();
        assert!(diags.iter().any(|d| d.code == "E0204"), "{diags:?}");
    }

    #[test]
    fn deploy_rejects_invalid_spec_with_diagnostics() {
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [{ "granule": "g", "receptor_type": "rfid", "members": [] }],
            "stages": []
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        let err = EspProcessor::deploy(&spec, &Engine::new(), vec![]).unwrap_err();
        match err {
            EspError::Invalid(diags) => {
                assert!(diags.iter().any(|d| d.code == "E0302"), "{diags:?}");
            }
            other => panic!("expected Invalid, got {other}"),
        }
    }

    #[test]
    fn deploy_rejects_ungrouped_receptor() {
        let spec = DeploymentSpec::from_json(SHELF_DEPLOYMENT).unwrap();
        let err = EspProcessor::deploy(
            &spec,
            &Engine::new(),
            vec![ReceptorBinding::new(
                ReceptorId(9),
                ReceptorType::Rfid,
                Box::new(ScriptedSource::new("r9", vec![])),
            )],
        )
        .unwrap_err();
        match err {
            EspError::Invalid(diags) => {
                assert!(diags.iter().any(|d| d.code == "E0301"), "{diags:?}");
            }
            other => panic!("expected Invalid, got {other}"),
        }
    }

    #[test]
    fn deploy_builds_and_runs_valid_spec() {
        let spec = DeploymentSpec::from_json(SHELF_DEPLOYMENT).unwrap();
        let r0 = ScriptedSource::new(
            "r0",
            vec![(
                Ts::ZERO,
                vec![sighting(Ts::ZERO, 0, "x"), sighting(Ts::ZERO, 0, "x")],
            )],
        );
        let proc = EspProcessor::deploy(
            &spec,
            &Engine::new(),
            vec![ReceptorBinding::new(
                ReceptorId(0),
                ReceptorType::Rfid,
                Box::new(r0),
            )],
        )
        .unwrap();
        let out = proc.run(Ts::ZERO, TimeDelta::from_millis(200), 1).unwrap();
        assert_eq!(out.trace[0].1.len(), 1);
    }

    #[test]
    fn virtualize_and_merge_modes_from_json() {
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [
                { "granule": "office", "receptor_type": "mote", "members": [10, 11, 12] }
            ],
            "stages": [
                { "merge": { "mode": "windowed_median", "value_field": "noise" } },
                { "virtualize": {
                    "event": "Person-in-room",
                    "threshold": 1,
                    "rules": [ { "kind": "numeric_above", "field": "noise", "threshold": 525.0 } ]
                } }
            ]
        }"#;
        let spec = DeploymentSpec::from_json(doc).unwrap();
        let pipeline = spec.build_pipeline(&Engine::new()).unwrap();
        assert_eq!(pipeline.len(), 2);

        let mote = |id: i64, v: f64| {
            TupleBuilder::new(&well_known::sound_schema(), Ts::ZERO)
                .set("receptor_id", id)
                .unwrap()
                .set("noise", v)
                .unwrap()
                .build()
                .unwrap()
        };
        let proc = EspProcessor::build(
            spec.build_groups().unwrap(),
            &pipeline,
            vec![ReceptorBinding::new(
                ReceptorId(10),
                ReceptorType::Mote,
                Box::new(ScriptedSource::new(
                    "m",
                    vec![(
                        Ts::ZERO,
                        vec![mote(10, 700.0), mote(10, 710.0), mote(10, 400.0)],
                    )],
                )),
            )],
        )
        .unwrap();
        let out = proc.run(Ts::ZERO, TimeDelta::from_secs(1), 1).unwrap();
        // median(400,700,710) = 700 > 525 → event fires.
        assert_eq!(out.trace[0].1.len(), 1);
        assert_eq!(
            out.trace[0].1[0].get("event"),
            Some(&Value::str("Person-in-room"))
        );
    }
}
