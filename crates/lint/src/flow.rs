//! Whole-pipeline fixpoint dataflow analysis — the `E09xx` family.
//!
//! The E01xx–E08xx passes each examine one artifact in isolation: a
//! query, a granule, a group, a gateway knob. This module reasons about
//! the *composition*: facts that only become visible when stage effects
//! are propagated across the whole cascade. Four analyses run on one
//! generic monotone-framework engine ([`fixpoint`]):
//!
//! | code | direction | lattice | defect |
//! |------|-----------|---------|--------|
//! | `E0901` | backward | live-column sets | a column computed by a stage is never read downstream |
//! | `E0902` | backward | live-column sets | a receptor stream feeds nothing that reaches an output |
//! | `E0903` | forward | boolean taint | a nondeterministic stage inside a durability-enabled gateway voids replay |
//! | `E0904` | forward | max window-path sum | the admitted lateness exceeds (or mis-aligns with) the cascade's total window depth |
//! | `E0905` | forward | per-column cardinality bounds | retained aggregation state is statically unbounded, or overcommits the gateway edge capacity |
//!
//! The engine is the textbook worklist algorithm over a join-semilattice:
//! facts start at ⊥, transfer functions are monotone, and iteration runs
//! to the least fixpoint (with a hard iteration cap as a termination
//! backstop for non-monotone transfers or adversarial graphs — the
//! linter must terminate on any input). On the acyclic graphs ESP
//! deployments produce, all transfers used here are distributive, so the
//! computed MFP solution coincides with the meet-over-all-paths answer
//! (the property the proptest suite checks against brute force).
//!
//! `E0901`/`E0902` consume the per-stage [`FieldEffects`] summaries that
//! the `Stage` trait and the query compiler export; `E0903` consumes
//! [`Determinism`] (the same contract `Gateway::spawn` enforces at
//! runtime); `E0904`/`E0905` read window widths and declared column
//! cardinalities from the *pipeline document* — a JSON form
//! ([`PipelineSpec`]) that wraps a deployment together with the gateway
//! knobs it will run under, so cross-layer budgets can be checked before
//! anything runs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{value::Value as Json, DeError, Deserialize};

use esp_core::deploy::{DeploymentSpec, StageSpec};
use esp_query::Engine;
use esp_types::diag::sort_diagnostics;
use esp_types::{well_known, DataType, Determinism, Diagnostic, FieldEffects, Span, TimeDelta};

// ---------------------------------------------------------------------------
// The generic engine
// ---------------------------------------------------------------------------

/// A join-semilattice of dataflow facts.
///
/// `bottom()` is the identity of `join` (the "no information" element);
/// `join` must be commutative, associative, and idempotent, and the
/// transfer functions passed to [`fixpoint`] must be monotone with
/// respect to the order `a ⊑ b ⇔ join(a, b) = b` for the result to be
/// the least fixpoint.
pub trait Lattice: Clone + PartialEq {
    /// The least element (identity of [`Lattice::join`]).
    fn bottom() -> Self;
    /// In-place least upper bound: `self ⊔ other`.
    fn join(&mut self, other: &Self);
}

/// Boolean taint lattice: `false ⊑ true`, join is disjunction.
impl Lattice for bool {
    fn bottom() -> Self {
        false
    }
    fn join(&mut self, other: &Self) {
        *self = *self || *other;
    }
}

/// Max lattice over unsigned counters (used for max-path window sums).
impl Lattice for u64 {
    fn bottom() -> Self {
        0
    }
    fn join(&mut self, other: &Self) {
        *self = (*self).max(*other);
    }
}

/// Which way facts flow through the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts propagate from predecessors to successors.
    Forward,
    /// Facts propagate from successors to predecessors (liveness).
    Backward,
}

/// A directed flow graph over nodes `0..n`.
///
/// Nodes are dense indices so analyses can keep side tables in plain
/// `Vec`s. Edges to out-of-range nodes are silently ignored — the linter
/// analyzes untrusted documents and must never panic on them (the
/// structural E04xx checks report dangling references separately).
#[derive(Debug, Clone)]
pub struct FlowGraph {
    n: usize,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl FlowGraph {
    /// An edgeless graph over `n` nodes.
    pub fn new(n: usize) -> FlowGraph {
        FlowGraph {
            n,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    /// The linear chain `0 → 1 → … → n-1` (an ESP stage cascade).
    pub fn chain(n: usize) -> FlowGraph {
        let mut g = FlowGraph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    /// Add the edge `from → to`; out-of-range endpoints are ignored.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        if from < self.n && to < self.n {
            self.succs[from].push(to);
            self.preds[to].push(from);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The solution of a dataflow problem: one fact pair per node.
///
/// `entry[i]` is the joined fact *entering* node `i` in the flow
/// direction (for a backward problem that is the fact at the node's
/// *output* edge); `exit[i]` is the result of the node's transfer
/// function applied to `entry[i]`.
#[derive(Debug, Clone)]
pub struct Facts<L> {
    /// Fact entering each node (in flow direction).
    pub entry: Vec<L>,
    /// Fact leaving each node: `transfer(i, entry[i])`.
    pub exit: Vec<L>,
}

/// Run the worklist algorithm to the least fixpoint.
///
/// Nodes without predecessors (in flow direction) receive `boundary` as
/// their entry fact; all other entry facts are the join of their
/// predecessors' exit facts. Iteration is capped at `max(1024, 64·n)`
/// node visits: monotone transfers over finite-height lattices converge
/// far below that, and the cap guarantees termination even for cyclic
/// graphs with non-monotone transfers (the partial facts computed so far
/// are returned — sound for the analyses here, which only *report* when
/// a fact definitely holds).
pub fn fixpoint<L, F>(
    graph: &FlowGraph,
    direction: Direction,
    boundary: &L,
    mut transfer: F,
) -> Facts<L>
where
    L: Lattice,
    F: FnMut(usize, &L) -> L,
{
    let n = graph.n;
    let (preds, succs) = match direction {
        Direction::Forward => (&graph.preds, &graph.succs),
        Direction::Backward => (&graph.succs, &graph.preds),
    };
    let mut entry = vec![L::bottom(); n];
    let mut exit = vec![L::bottom(); n];
    let mut queued = vec![true; n];
    let mut worklist: VecDeque<usize> = match direction {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };
    let mut budget = 1024usize.max(n.saturating_mul(64));
    while let Some(i) = worklist.pop_front() {
        queued[i] = false;
        if budget == 0 {
            break;
        }
        budget -= 1;
        let mut inc = if preds[i].is_empty() {
            boundary.clone()
        } else {
            L::bottom()
        };
        for &p in &preds[i] {
            inc.join(&exit[p]);
        }
        let out = transfer(i, &inc);
        entry[i] = inc;
        if out != exit[i] {
            exit[i] = out;
            for &s in &succs[i] {
                if !queued[s] {
                    queued[s] = true;
                    worklist.push_back(s);
                }
            }
        }
    }
    Facts { entry, exit }
}

/// Byte span of the first occurrence of `needle` in `source`.
///
/// Deployment and pipeline documents have no parser-carried spans (the
/// vendored deserializer reports paths, not offsets), so the E09xx
/// diagnostics locate themselves by searching for the offending token —
/// exact enough for rustc-style caret rendering over config files.
fn find_span(source: &str, needle: &str) -> Option<Span> {
    source
        .find(needle)
        .map(|start| Span::new(start, start + needle.len()))
}

// ---------------------------------------------------------------------------
// Stage summaries
// ---------------------------------------------------------------------------

/// Column-level effect summary of one deployment stage.
///
/// Anything we cannot summarize precisely is `opaque` — the analyses
/// then go to ⊤ across it and stay silent, which is the zero-false-
/// positive contract of this linter.
fn stage_effects(stage: &StageSpec, engine: &Engine) -> FieldEffects {
    match stage {
        StageSpec::Point(p) => {
            let mut reads: Vec<String> = p.range_filters.iter().map(|f| f.field.clone()).collect();
            if let Some(ev) = &p.expected_values {
                reads.push(ev.field.clone());
            }
            FieldEffects::passthrough(reads)
        }
        StageSpec::Smooth(s) if s.mode == "count_by_key" => {
            let mut writes = s.keys.clone();
            writes.push("count".to_string());
            FieldEffects::projection(s.keys.clone(), writes).with_row_counting()
        }
        StageSpec::Declarative(d) => match engine.compile(&d.query) {
            Ok(q) => q.field_effects(),
            // A query that does not compile is someone else's diagnostic
            // (E01xx via the CQL linter); treat it as unknowable here.
            Err(_) => FieldEffects::opaque(),
        },
        _ => FieldEffects::opaque(),
    }
}

/// Display name for stage `i` in diagnostics.
fn stage_name(i: usize, stage: &StageSpec) -> String {
    let kind = match stage {
        StageSpec::Point(_) => "point",
        StageSpec::Smooth(_) => "smooth",
        StageSpec::Merge(_) => "merge",
        StageSpec::Arbitrate(_) => "arbitrate",
        StageSpec::Virtualize(_) => "virtualize",
        StageSpec::Declarative(d) => {
            let label = d.label.as_deref().unwrap_or("declarative");
            return format!("stage #{i} ('{label}')");
        }
    };
    format!("stage #{i} ({kind})")
}

// ---------------------------------------------------------------------------
// E0901 / E0902 — backward field liveness
// ---------------------------------------------------------------------------

/// Live-column lattice: `None` is ⊤ ("every column may be read"),
/// `Some(set)` is a finite live set. ⊥ is the empty set; join is union
/// with ⊤ absorbing.
#[derive(Debug, Clone, PartialEq)]
struct Live(Option<BTreeSet<String>>);

impl Lattice for Live {
    fn bottom() -> Self {
        Live(Some(BTreeSet::new()))
    }
    fn join(&mut self, other: &Self) {
        match (&mut self.0, &other.0) {
            (_, None) => self.0 = None,
            (None, _) => {}
            (Some(a), Some(b)) => a.extend(b.iter().cloned()),
        }
    }
}

/// The raw-schema columns that identify a receptor type's data (its
/// well-known layouts minus the fields every receptor shares). If none
/// of these is live at the cascade entry, nothing distinguishable from
/// that receptor family ever reaches an output.
fn distinctive_fields(receptor_type: &str) -> Option<&'static [&'static str]> {
    match receptor_type.to_ascii_lowercase().as_str() {
        "rfid" => Some(&[well_known::TAG_ID]),
        "mote" => Some(&[well_known::TEMP, well_known::VOLTAGE, well_known::NOISE]),
        "x10" | "x10-motion" => Some(&[well_known::VALUE]),
        _ => None,
    }
}

/// Backward liveness over the stage cascade: `E0901` (dead computed
/// column) and `E0902` (receptor stream whose fields are never read).
///
/// The boundary fact at the pipeline output is ⊤ — whatever the final
/// stage emits is the product the deployment exists to produce.
pub(crate) fn liveness_pass(
    spec: &DeploymentSpec,
    source: &str,
    engine: &Engine,
) -> Vec<Diagnostic> {
    let n = spec.stages.len();
    let mut diags = Vec::new();
    if n == 0 {
        return diags;
    }
    let effects: Vec<FieldEffects> = spec
        .stages
        .iter()
        .map(|s| stage_effects(s, engine))
        .collect();
    let graph = FlowGraph::chain(n);
    let facts = fixpoint(
        &graph,
        Direction::Backward,
        &Live(None),
        |i, live_out: &Live| Live(effects[i].live_in(live_out.0.as_ref())),
    );

    // E0901: a projected column no later stage reads. For a backward
    // problem, `entry[i]` is the fact at the node's *output* edge.
    for (i, fx) in effects.iter().enumerate() {
        let (Some(writes), Live(Some(live_out))) = (&fx.writes, &facts.entry[i]) else {
            continue;
        };
        for col in writes {
            if live_out.contains(col) {
                continue;
            }
            let span = find_span(source, &format!("AS {col}")).or_else(|| find_span(source, col));
            let mut d = Diagnostic::warning(
                "E0901",
                format!(
                    "column '{col}' computed by {} is never read by any later stage",
                    stage_name(i, &spec.stages[i])
                ),
            )
            .with_note(
                "dead columns cost serialization and window memory on every epoch; \
                 drop the column or read it downstream",
            );
            if let Some(s) = span {
                d = d.with_span(s);
            }
            if let StageSpec::Declarative(ds) = &spec.stages[i] {
                if let Some(sugg) = crate::fix::drop_column_suggestion(source, &ds.query, col) {
                    d = d.with_suggestion(sugg);
                }
            }
            diags.push(d);
        }
    }

    // E0902: a receptor group none of whose distinctive fields is live at
    // the cascade entry. Gated hard on precision: any opaque stage makes
    // the entry fact ⊤ (skip); any row-counting stage keeps mere tuple
    // presence meaningful (skip); reading a shared field (receptor_id /
    // spatial_granule) means every stream is inspected (skip).
    let Live(Some(live_entry)) = &facts.exit[0] else {
        return diags;
    };
    let counts = effects.iter().any(|e| e.counts_rows);
    let reads_shared = live_entry.contains(well_known::RECEPTOR_ID)
        || live_entry.contains(well_known::SPATIAL_GRANULE);
    if counts || reads_shared {
        return diags;
    }
    for g in &spec.groups {
        let Some(fields) = distinctive_fields(&g.receptor_type) else {
            continue;
        };
        if fields.iter().any(|f| live_entry.contains(*f)) {
            continue;
        }
        let mut d = Diagnostic::warning(
            "E0902",
            format!(
                "receptor group '{}' ({}) feeds the cascade, but none of its fields ({}) is ever read",
                g.granule,
                g.receptor_type,
                fields.join(", ")
            ),
        )
        .with_note(
            "every tuple from this group is cleaned, serialized, and then discarded; \
             remove the group or add a stage that uses its readings",
        );
        if let Some(s) = find_span(source, &g.granule) {
            d = d.with_span(s);
        }
        diags.push(d);
    }
    diags
}

// ---------------------------------------------------------------------------
// The pipeline document
// ---------------------------------------------------------------------------

/// The gateway section of a pipeline document: the runtime knobs the
/// cross-layer budget analyses check the deployment against.
#[derive(Debug, Clone)]
pub struct GatewaySectionSpec {
    /// Epoch period (`"200 ms"`, …).
    pub period: String,
    /// Maximum admitted tuple lateness, if late arrivals are allowed.
    pub max_lateness: Option<String>,
    /// Bounded per-edge queue capacity, if the channels are bounded.
    pub edge_capacity: Option<u64>,
    /// Shard count (informational; sharding checks live in E05xx).
    pub n_shards: Option<u64>,
    /// Whether the gateway runs with durability (WAL + checkpoints).
    pub durable: bool,
}

/// A whole pipeline described as data: the deployment cascade plus the
/// gateway configuration it will run under and optional declared column
/// cardinalities (`"cardinalities": {"tag_id": 500}`) for the state-
/// boundedness analysis.
///
/// ```json
/// {
///   "gateway": { "period": "1 sec", "max_lateness": "2 sec", "durable": true },
///   "cardinalities": { "tag_id": 500 },
///   "deployment": { "temporal_granule": "5 sec", "groups": [...], "stages": [...] }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Gateway knobs.
    pub gateway: GatewaySectionSpec,
    /// Declared per-column cardinality bounds (distinct-value counts).
    pub cardinalities: BTreeMap<String, u64>,
    /// The stage cascade and proximity groups.
    pub deployment: DeploymentSpec,
}

/// Required field lookup (same pattern as the other hand-written
/// `Deserialize` impls; the vendored serde has no derive).
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

impl Deserialize for GatewaySectionSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(GatewaySectionSpec {
            period: req(v, "period")?,
            max_lateness: opt(v, "max_lateness")?,
            edge_capacity: opt(v, "edge_capacity")?,
            n_shards: opt(v, "n_shards")?,
            durable: opt(v, "durable")?.unwrap_or(false),
        })
    }
}

impl Deserialize for PipelineSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        let mut cardinalities = BTreeMap::new();
        if let Some(c) = v.get("cardinalities") {
            let o = c
                .as_object()
                .ok_or_else(|| DeError::msg("cardinalities must be an object"))?;
            for (field, bound) in o {
                let b = bound.as_u64().ok_or_else(|| {
                    DeError::msg(format!(
                        "cardinalities.{field}: expected a non-negative integer"
                    ))
                })?;
                cardinalities.insert(field.clone(), b);
            }
        }
        Ok(PipelineSpec {
            gateway: req(v, "gateway")?,
            cardinalities,
            deployment: req(v, "deployment")?,
        })
    }
}

impl PipelineSpec {
    /// Parse a pipeline document from JSON.
    pub fn from_json(json: &str) -> std::result::Result<PipelineSpec, String> {
        serde_json::from_str::<PipelineSpec>(json).map_err(|e| e.to_string())
    }
}

/// Lint a JSON pipeline document (the [`PipelineSpec`] wire form): the
/// embedded deployment's full check surface (validate + E06xx + field
/// liveness) plus the cross-layer fixpoint analyses `E0903` (replay-
/// determinism taint under durability), `E0904` (lateness vs window
/// budget and epoch alignment), and `E0905` (state boundedness vs
/// declared cardinalities and edge capacity).
pub fn lint_pipeline(json: &str) -> Vec<Diagnostic> {
    let spec = match PipelineSpec::from_json(json) {
        Ok(s) => s,
        Err(e) => return crate::parse_failure("pipeline", &e),
    };
    let engine = Engine::new();
    let mut diags = spec.deployment.validate();
    diags.extend(spec.deployment.analyze());
    diags.extend(liveness_pass(&spec.deployment, json, &engine));
    diags.extend(determinism_pass(&spec, json, &engine));
    diags.extend(lateness_pass(&spec, json, &engine));
    diags.extend(state_pass(&spec, json, &engine));
    sort_diagnostics(&mut diags);
    diags
}

// ---------------------------------------------------------------------------
// E0903 — forward determinism taint
// ---------------------------------------------------------------------------

/// Forward taint: once any stage on a path to the pipeline output is
/// nondeterministic, WAL replay of a durable gateway cannot reproduce
/// the recorded bytes. Mirrors the `Gateway::spawn` probe (which rejects
/// the same pipelines at runtime) so the defect is visible at lint time.
fn determinism_pass(spec: &PipelineSpec, source: &str, engine: &Engine) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !spec.gateway.durable {
        return diags;
    }
    let stages = &spec.deployment.stages;
    let taints: Vec<Option<String>> = stages
        .iter()
        .map(|s| match s {
            StageSpec::Declarative(d) => match engine.compile(&d.query) {
                Ok(q) => match q.determinism() {
                    Determinism::Nondeterministic { reason } => Some(reason),
                    Determinism::Deterministic => None,
                },
                Err(_) => None,
            },
            _ => None,
        })
        .collect();
    let graph = FlowGraph::chain(stages.len());
    let facts = fixpoint(&graph, Direction::Forward, &false, |i, inc: &bool| {
        *inc || taints[i].is_some()
    });
    if !facts.exit.last().copied().unwrap_or(false) {
        return diags;
    }
    for (i, taint) in taints.iter().enumerate() {
        let Some(reason) = taint else { continue };
        // The reason names the volatile call ("calls volatile scalar
        // 'now()'"); point the span at its use site in the document.
        let span = reason.split('\'').nth(1).and_then(|call| {
            find_span(source, call).or_else(|| find_span(source, call.trim_end_matches(')')))
        });
        let mut d = Diagnostic::error(
            "E0903",
            format!(
                "durable gateway pipeline contains nondeterministic {}: {reason}",
                stage_name(i, &stages[i])
            ),
        )
        .with_note(
            "WAL replay re-runs the stage over logged epochs and must reproduce identical \
             bytes; make the stage deterministic or disable durability",
        );
        if let Some(s) = span {
            d = d.with_span(s);
        }
        if let Some(sugg) = crate::fix::durable_false_suggestion(source) {
            d = d.with_suggestion(sugg);
        }
        diags.push(d);
    }
    diags
}

// ---------------------------------------------------------------------------
// E0904 — lateness budget and epoch alignment
// ---------------------------------------------------------------------------

/// Window width (in ms) each stage contributes to the retention path.
fn stage_window_ms(stage: &StageSpec, granule_ms: u64, window_ms: u64, engine: &Engine) -> u64 {
    match stage {
        StageSpec::Smooth(_) => window_ms,
        StageSpec::Merge(m) if m.mode != "union_all" => granule_ms,
        StageSpec::Declarative(d) => match engine.compile(&d.query) {
            Ok(mut q) => q.max_window_width().as_millis(),
            Err(_) => 0,
        },
        _ => 0,
    }
}

/// Forward max-path window sum vs the gateway's admitted lateness
/// (`E0904` error), plus per-stage window/epoch-period alignment
/// (`E0904` warning).
fn lateness_pass(spec: &PipelineSpec, source: &str, engine: &Engine) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let period = match TimeDelta::parse(&spec.gateway.period) {
        Ok(p) => p,
        Err(e) => {
            diags.push(
                Diagnostic::error(
                    "E0204",
                    format!(
                        "gateway period '{}' is not a valid time span",
                        spec.gateway.period
                    ),
                )
                .with_note(e.to_string()),
            );
            return diags;
        }
    };
    let lateness = match &spec.gateway.max_lateness {
        Some(l) => match TimeDelta::parse(l) {
            Ok(l) => Some(l),
            Err(e) => {
                diags.push(
                    Diagnostic::error(
                        "E0204",
                        format!("gateway max_lateness '{l}' is not a valid time span"),
                    )
                    .with_note(e.to_string()),
                );
                None
            }
        },
        None => None,
    };
    // Unparseable deployment granules are already E0204 from validate().
    let Ok(granule) = spec.deployment.granule() else {
        return diags;
    };
    let granule_ms = granule.granule().as_millis();
    let window_ms = granule.window().as_millis();

    let stages = &spec.deployment.stages;
    let widths: Vec<u64> = stages
        .iter()
        .map(|s| stage_window_ms(s, granule_ms, window_ms, engine))
        .collect();
    let graph = FlowGraph::chain(stages.len());
    let facts = fixpoint(&graph, Direction::Forward, &0u64, |i, inc: &u64| {
        inc.saturating_add(widths[i])
    });
    let total = facts.exit.last().copied().unwrap_or(0);

    if let Some(l) = lateness {
        let l_ms = l.as_millis();
        if l_ms > 0 && l_ms >= total {
            let mut d = Diagnostic::error(
                "E0904",
                format!(
                    "admitted lateness ({l}) meets or exceeds the cascade's total window depth \
                     ({total} ms) — a maximally late tuple arrives after every window that \
                     should have held it has closed"
                ),
            )
            .with_note(
                "late tuples are only useful while some window still covers their timestamp; \
                 lower max_lateness or widen the smoothing windows",
            );
            if let Some(span) = spec
                .gateway
                .max_lateness
                .as_ref()
                .and_then(|raw| find_span(source, raw))
            {
                d = d.with_span(span);
            }
            diags.push(d);
        }
    }

    let period_ms = period.as_millis();
    if period_ms > 0 {
        for (i, w) in widths.iter().enumerate() {
            if *w > 0 && *w % period_ms != 0 {
                diags.push(
                    Diagnostic::warning(
                        "E0904",
                        format!(
                            "window of {} ({w} ms) is not a whole multiple of the gateway epoch \
                             period ({period}); epoch boundaries will split the window",
                            stage_name(i, &stages[i])
                        ),
                    )
                    .with_note(
                        "epoch-aligned checkpoints and watermarks assume windows close on \
                         epoch boundaries (paper §4.3.2)",
                    ),
                );
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// E0905 — state boundedness
// ---------------------------------------------------------------------------

/// Per-column cardinality environment. Absent columns are unbounded;
/// `bottom` is the identity element ("no path reaches here yet").
/// Join over paths intersects the key sets and keeps the larger bound —
/// a column is only bounded after the join if it is bounded along every
/// incoming path.
#[derive(Debug, Clone, PartialEq)]
struct CardEnv {
    bottom: bool,
    known: BTreeMap<String, u128>,
}

impl Lattice for CardEnv {
    fn bottom() -> Self {
        CardEnv {
            bottom: true,
            known: BTreeMap::new(),
        }
    }
    fn join(&mut self, other: &Self) {
        if other.bottom {
            return;
        }
        if self.bottom {
            *self = other.clone();
            return;
        }
        let mut merged = BTreeMap::new();
        for (k, a) in &self.known {
            if let Some(b) = other.known.get(k) {
                merged.insert(k.clone(), (*a).max(*b));
            }
        }
        self.known = merged;
    }
}

/// Grouping keys a stage retains per-key state for, if it aggregates.
///
/// Every Smooth mode that groups by its keys qualifies: the per-key
/// partials (`count_by_key`, `windowed_mean`: one per key per live epoch;
/// `ewma`: one estimate per key) are all the state those modes hold.
/// `event_presence` is deliberately absent — its keys only label the one
/// event it can emit per epoch, and it retains a match count and one set
/// of key values per live epoch however many distinct keys arrive.
fn grouping_keys(stage: &StageSpec, engine: &Engine) -> Vec<String> {
    match stage {
        StageSpec::Smooth(s)
            if matches!(s.mode.as_str(), "count_by_key" | "windowed_mean" | "ewma") =>
        {
            s.keys.clone()
        }
        StageSpec::Declarative(d) => match engine.compile(&d.query) {
            Ok(q) => q.group_by_columns(),
            Err(_) => Vec::new(),
        },
        _ => Vec::new(),
    }
}

/// Forward cardinality propagation: `E0905` when a stage's retained
/// per-group state has no static bound (an unbounded grouping key), or
/// when the bounded group count overcommits the gateway edge capacity.
fn state_pass(spec: &PipelineSpec, source: &str, engine: &Engine) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let stages = &spec.deployment.stages;
    if stages.is_empty() {
        return diags;
    }

    // The environment tuples carry into the first stage: declared
    // cardinalities plus the two columns the processor itself bounds.
    let mut boundary = CardEnv {
        bottom: false,
        known: spec
            .cardinalities
            .iter()
            .map(|(k, v)| (k.clone(), u128::from(*v)))
            .collect(),
    };
    let members: BTreeSet<u32> = spec
        .deployment
        .groups
        .iter()
        .flat_map(|g| g.members.iter().copied())
        .collect();
    boundary
        .known
        .insert(well_known::RECEPTOR_ID.to_string(), members.len() as u128);
    boundary.known.insert(
        well_known::SPATIAL_GRANULE.to_string(),
        spec.deployment.groups.len() as u128,
    );

    let entry_schema = spec.deployment.entry_schema();
    let effects: Vec<FieldEffects> = stages.iter().map(|s| stage_effects(s, engine)).collect();
    let graph = FlowGraph::chain(stages.len());
    let facts = fixpoint(&graph, Direction::Forward, &boundary, |i, inc: &CardEnv| {
        if inc.bottom {
            return inc.clone();
        }
        match &stages[i] {
            // Point filters refine: both-sided range filters over integer
            // columns bound the distinct-value count; expected-values
            // filters bound it by the allow-list length.
            StageSpec::Point(p) => {
                let mut env = inc.clone();
                for rf in &p.range_filters {
                    let (Some(min), Some(max)) = (rf.min, rf.max) else {
                        continue;
                    };
                    let is_int = entry_schema
                        .as_ref()
                        .and_then(|s| s.field(&rf.field))
                        .map(|f| f.data_type == DataType::Int)
                        .unwrap_or(false);
                    if is_int && max >= min {
                        let width = (max.floor() - min.ceil()) as i64;
                        if width >= 0 {
                            let bound = width as u128 + 1;
                            let entry = env.known.entry(rf.field.clone()).or_insert(bound);
                            *entry = (*entry).min(bound);
                        }
                    }
                }
                if let Some(ev) = &p.expected_values {
                    let bound = ev.allowed.len() as u128;
                    let entry = env.known.entry(ev.field.clone()).or_insert(bound);
                    *entry = (*entry).min(bound);
                }
                env
            }
            _ => {
                let fx = &effects[i];
                if fx.opaque {
                    // Unknown output columns: nothing survives.
                    CardEnv {
                        bottom: false,
                        known: BTreeMap::new(),
                    }
                } else {
                    match &fx.writes {
                        // Passthrough keeps every bound.
                        None => inc.clone(),
                        // A projection keeps a bound only for columns it
                        // both reads and re-emits under the same name
                        // (grouping keys); computed columns are unbounded.
                        Some(writes) => CardEnv {
                            bottom: false,
                            known: inc
                                .known
                                .iter()
                                .filter(|(k, _)| writes.contains(*k) && fx.reads.contains(*k))
                                .map(|(k, v)| (k.clone(), *v))
                                .collect(),
                        },
                    }
                }
            }
        }
    });

    for (i, stage) in stages.iter().enumerate() {
        let keys = grouping_keys(stage, engine);
        if keys.is_empty() {
            continue;
        }
        let env = &facts.entry[i];
        if env.bottom {
            continue;
        }
        let mut product: u128 = 1;
        let mut unbounded: Option<&String> = None;
        for k in &keys {
            match env.known.get(k) {
                Some(b) => product = product.saturating_mul((*b).max(1)),
                None => {
                    unbounded = Some(k);
                    break;
                }
            }
        }
        if let Some(k) = unbounded {
            // A CQL `GROUP BY`, else the key as a JSON string (a built-in
            // stage's `"keys"` entry), else its first bare mention.
            let span = find_span(source, &format!("GROUP BY {k}"))
                .or_else(|| {
                    find_span(source, &format!("\"{k}\""))
                        .map(|s| Span::new(s.start + 1, s.end - 1))
                })
                .or_else(|| find_span(source, k));
            let mut d = Diagnostic::warning(
                "E0905",
                format!(
                    "retained state of {} is statically unbounded: grouping key '{k}' has no \
                     declared cardinality",
                    stage_name(i, stage)
                ),
            )
            .with_note(format!(
                "declare \"cardinalities\": {{\"{k}\": N}} in the pipeline document, or bound \
                 the column upstream with a point filter"
            ));
            if let Some(s) = span {
                d = d.with_span(s);
            }
            diags.push(d);
            continue;
        }
        if let Some(cap) = spec.gateway.edge_capacity {
            if product > u128::from(cap) {
                let mut d = Diagnostic::warning(
                    "E0905",
                    format!(
                        "{} can emit up to {product} grouped tuples per epoch, overcommitting \
                         the gateway edge capacity ({cap})",
                        stage_name(i, stage)
                    ),
                )
                .with_note(
                    "a full epoch of group outputs must fit the bounded channel or the \
                     pipeline stalls under backpressure; raise edge_capacity or lower the \
                     key cardinalities",
                );
                if let Some(s) = keys.first().and_then(|k| find_span(source, k)) {
                    d = d.with_span(s);
                }
                diags.push(d);
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_sum_over_a_chain_accumulates() {
        let widths = [5u64, 0, 7];
        let g = FlowGraph::chain(3);
        let facts = fixpoint(&g, Direction::Forward, &0u64, |i, inc: &u64| {
            inc + widths[i]
        });
        assert_eq!(facts.exit, vec![5, 5, 12]);
        assert_eq!(facts.entry, vec![0, 5, 5]);
    }

    #[test]
    fn forward_max_path_over_a_diamond() {
        // 0 → {1, 2} → 3 with different per-node weights: the join at 3
        // must take the heavier path.
        let weights = [1u64, 10, 2, 1];
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let facts = fixpoint(&g, Direction::Forward, &0u64, |i, inc: &u64| {
            inc + weights[i]
        });
        assert_eq!(facts.entry[3], 11);
        assert_eq!(facts.exit[3], 12);
    }

    #[test]
    fn backward_liveness_on_a_chain() {
        // Stage 1 projects to {a}; stage 0 writes {a, b}: b is dead.
        let effects = [
            FieldEffects::projection(["x"], ["a", "b"]),
            FieldEffects::projection(["a"], ["a"]),
        ];
        let g = FlowGraph::chain(2);
        let facts = fixpoint(&g, Direction::Backward, &Live(None), |i, out: &Live| {
            Live(effects[i].live_in(out.0.as_ref()))
        });
        // entry[0] (backward) = live at stage 0's output = stage 1's reads.
        let Live(Some(out0)) = &facts.entry[0] else {
            panic!("expected finite live set")
        };
        assert!(out0.contains("a") && !out0.contains("b"));
    }

    #[test]
    fn fixpoint_terminates_on_a_cycle_with_a_growing_fact() {
        // Deliberately unbounded transfer on a 2-cycle: only the
        // iteration cap stops it. The call must return.
        let mut g = FlowGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        let facts = fixpoint(&g, Direction::Forward, &0u64, |_, inc: &u64| inc + 1);
        assert_eq!(facts.exit.len(), 2);
    }

    #[test]
    fn out_of_range_edges_are_ignored() {
        let mut g = FlowGraph::new(2);
        g.add_edge(0, 7);
        g.add_edge(9, 1);
        g.add_edge(0, 1);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        let facts = fixpoint(&g, Direction::Forward, &true, |_, inc: &bool| *inc);
        assert!(facts.exit[1]);
    }

    const CLEAN_PIPELINE: &str = r#"{
        "gateway": { "period": "1 sec", "max_lateness": "2 sec", "edge_capacity": 1024, "durable": true },
        "cardinalities": { "tag_id": 500 },
        "deployment": {
            "temporal_granule": "5 sec",
            "groups": [
                { "granule": "shelf0", "receptor_type": "rfid", "members": [0, 1] },
                { "granule": "shelf1", "receptor_type": "rfid", "members": [2, 3] }
            ],
            "stages": [
                { "smooth": { "mode": "count_by_key", "keys": ["spatial_granule", "tag_id"] } },
                { "arbitrate": {} }
            ]
        }
    }"#;

    #[test]
    fn clean_pipeline_document_has_no_findings() {
        let diags = lint_pipeline(CLEAN_PIPELINE);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn unparseable_pipeline_document_is_e0001() {
        let diags = lint_pipeline(r#"{"gateway": {}, "deployment": {}}"#);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].code, "E0001");
    }

    #[test]
    fn volatile_stage_under_durability_is_e0903() {
        let doc = r#"{
            "gateway": { "period": "1 sec", "durable": true },
            "deployment": {
                "temporal_granule": "5 sec",
                "groups": [ { "granule": "shelf0", "receptor_type": "rfid", "members": [0] } ],
                "stages": [
                    { "declarative": { "scope": "global",
                        "query": "SELECT tag_id, now() AS seen_at FROM readings" } }
                ]
            }
        }"#;
        let diags = lint_pipeline(doc);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "E0903" && d.severity == esp_types::Severity::Error),
            "{diags:#?}"
        );
        let d = diags.iter().find(|d| d.code == "E0903").unwrap();
        let span = d.span.expect("E0903 points at the volatile call");
        assert_eq!(&doc[span.start..span.end], "now()");
        // The identical pipeline without durability is fine.
        let relaxed = doc.replace("\"durable\": true", "\"durable\": false");
        assert!(
            lint_pipeline(&relaxed).iter().all(|d| d.code != "E0903"),
            "non-durable pipelines may be nondeterministic"
        );
    }

    #[test]
    fn lateness_beyond_window_depth_is_e0904() {
        let doc = r#"{
            "gateway": { "period": "1 sec", "max_lateness": "15 sec", "durable": false },
            "cardinalities": { "tag_id": 100 },
            "deployment": {
                "temporal_granule": "5 sec",
                "groups": [ { "granule": "shelf0", "receptor_type": "rfid", "members": [0] } ],
                "stages": [
                    { "smooth": { "mode": "count_by_key", "keys": ["spatial_granule", "tag_id"] } }
                ]
            }
        }"#;
        let diags = lint_pipeline(doc);
        assert!(diags.iter().any(|d| d.code == "E0904"), "{diags:#?}");
    }

    #[test]
    fn misaligned_window_is_an_e0904_warning() {
        let doc = r#"{
            "gateway": { "period": "2 sec", "durable": false },
            "cardinalities": { "tag_id": 100 },
            "deployment": {
                "temporal_granule": "5 sec",
                "groups": [ { "granule": "shelf0", "receptor_type": "rfid", "members": [0] } ],
                "stages": [
                    { "smooth": { "mode": "count_by_key", "keys": ["spatial_granule", "tag_id"] } }
                ]
            }
        }"#;
        let diags = lint_pipeline(doc);
        let d = diags
            .iter()
            .find(|d| d.code == "E0904")
            .expect("alignment warning");
        assert_eq!(d.severity, esp_types::Severity::Warning, "{diags:#?}");
    }

    #[test]
    fn unbounded_grouping_key_is_e0905() {
        let doc = r#"{
            "gateway": { "period": "1 sec", "durable": false },
            "deployment": {
                "temporal_granule": "5 sec",
                "groups": [ { "granule": "bench0", "receptor_type": "mote", "members": [0] } ],
                "stages": [
                    { "declarative": { "scope": "global",
                        "query": "SELECT temp, count(*) AS n FROM readings [Range By '5 sec'] GROUP BY temp" } }
                ]
            }
        }"#;
        let diags = lint_pipeline(doc);
        let d = diags
            .iter()
            .find(|d| d.code == "E0905")
            .expect("unbounded state");
        assert!(d.message.contains("temp"), "{diags:#?}");
    }

    #[test]
    fn every_keyed_smooth_mode_is_checked_for_e0905() {
        let lint_mode = |mode: &str, keys: &str| {
            lint_pipeline(&format!(
                r#"{{
                "gateway": {{ "period": "1 sec", "durable": false }},
                "deployment": {{
                    "temporal_granule": "5 sec",
                    "groups": [ {{ "granule": "den", "receptor_type": "motion", "members": [0, 1] }} ],
                    "stages": [
                        {{ "smooth": {{ "mode": "{mode}", "keys": {keys}, "value_field": "value",
                            "alpha": 0.5 }} }}
                    ]
                }}
            }}"#
            ))
        };
        // Per-key partials are the whole state of these modes.
        for mode in ["count_by_key", "windowed_mean", "ewma"] {
            let diags = lint_mode(mode, r#"["spatial_granule", "value"]"#);
            let d = diags
                .iter()
                .find(|d| d.code == "E0905")
                .unwrap_or_else(|| panic!("{mode}: {diags:#?}"));
            assert!(d.message.contains("'value'"), "{mode}: {diags:#?}");
            // Keys the processor itself bounds stay silent.
            let diags = lint_mode(mode, r#"["spatial_granule", "receptor_id"]"#);
            assert!(
                diags.iter().all(|d| d.code != "E0905"),
                "{mode}: {diags:#?}"
            );
        }
        // Presence keeps one match count per live epoch whatever the keys.
        let diags = lint_mode("event_presence", r#"["spatial_granule", "value"]"#);
        assert!(diags.iter().all(|d| d.code != "E0905"), "{diags:#?}");
    }

    #[test]
    fn overcommitted_edge_capacity_is_e0905() {
        let doc = r#"{
            "gateway": { "period": "1 sec", "edge_capacity": 64, "durable": false },
            "cardinalities": { "tag_id": 500 },
            "deployment": {
                "temporal_granule": "5 sec",
                "groups": [ { "granule": "shelf0", "receptor_type": "rfid", "members": [0] } ],
                "stages": [
                    { "smooth": { "mode": "count_by_key", "keys": ["spatial_granule", "tag_id"] } }
                ]
            }
        }"#;
        let diags = lint_pipeline(doc);
        let d = diags
            .iter()
            .find(|d| d.code == "E0905")
            .expect("overcommit");
        assert!(d.message.contains("edge capacity"), "{diags:#?}");
    }

    #[test]
    fn point_range_filter_bounds_an_integer_key() {
        // tag_id is a string, so bound shelf ids via receptor_id instead:
        // a both-sided integer range filter turns an undeclared key into
        // a bounded one and silences E0905.
        let doc = r#"{
            "gateway": { "period": "1 sec", "durable": false },
            "deployment": {
                "temporal_granule": "5 sec",
                "groups": [ { "granule": "shelf0", "receptor_type": "rfid", "members": [0, 1, 2] } ],
                "stages": [
                    { "point": { "range_filters": [ { "field": "receptor_id", "min": 0, "max": 7 } ] } },
                    { "smooth": { "mode": "count_by_key", "keys": ["receptor_id"] } }
                ]
            }
        }"#;
        let diags = lint_pipeline(doc);
        assert!(diags.iter().all(|d| d.code != "E0905"), "{diags:#?}");
    }

    #[test]
    fn dead_column_in_a_deployment_is_e0901() {
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [ { "granule": "shelf0", "receptor_type": "rfid", "members": [0] } ],
            "stages": [
                { "declarative": { "scope": "global",
                    "query": "SELECT tag_id, count(*) AS n FROM readings [Range By '5 sec'] GROUP BY tag_id" } },
                { "declarative": { "scope": "global",
                    "query": "SELECT tag_id, count(*) AS total FROM counts [Range By '5 sec'] GROUP BY tag_id" } }
            ]
        }"#;
        let engine = Engine::new();
        let spec = DeploymentSpec::from_json(doc).expect("valid deployment");
        let diags = liveness_pass(&spec, doc, &engine);
        let d = diags
            .iter()
            .find(|d| d.code == "E0901")
            .expect("dead column");
        assert!(d.message.contains("'n'"), "{diags:#?}");
        let span = d.span.expect("span at the alias");
        assert_eq!(&doc[span.start..span.end], "AS n");
    }

    #[test]
    fn unread_receptor_group_is_e0902() {
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [
                { "granule": "shelfA", "receptor_type": "rfid", "members": [0] },
                { "granule": "bench0", "receptor_type": "mote", "members": [1] }
            ],
            "stages": [
                { "declarative": { "scope": "global",
                    "query": "SELECT avg(temp) AS avg_temp FROM readings [Range By '5 sec']" } }
            ]
        }"#;
        let engine = Engine::new();
        let spec = DeploymentSpec::from_json(doc).expect("valid deployment");
        let diags = liveness_pass(&spec, doc, &engine);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["E0902"], "{diags:#?}");
        assert!(diags[0].message.contains("shelfA"));
    }

    #[test]
    fn opaque_stages_silence_liveness() {
        // Arbitrate is opaque: everything upstream must be assumed live.
        let doc = r#"{
            "temporal_granule": "5 sec",
            "groups": [ { "granule": "shelf0", "receptor_type": "rfid", "members": [0] } ],
            "stages": [
                { "smooth": { "mode": "count_by_key", "keys": ["spatial_granule", "tag_id"] } },
                { "arbitrate": {} }
            ]
        }"#;
        let engine = Engine::new();
        let spec = DeploymentSpec::from_json(doc).expect("valid deployment");
        assert!(liveness_pass(&spec, doc, &engine).is_empty());
    }
}
