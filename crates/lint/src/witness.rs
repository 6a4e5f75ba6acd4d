//! Counterexample witness synthesis: replay value-domain findings
//! through the shipped engine.
//!
//! A diagnostic like `E0601` ("this WHERE can never hold") is a *claim*
//! derived from interval arithmetic. This module turns the claim into
//! evidence: it inverts the interval facts that produced the finding —
//! picking concrete members (endpoints, zero crossings, midpoints) from
//! the declared ranges via [`Interval::sample_points`] — builds a
//! minimal tuple stream from them, and executes it through the *real*
//! engine ([`Engine::run_once`]), checking that the defect manifests:
//!
//! * `E0601` dead predicate — the stage emits **0** rows while a control
//!   run with the predicate removed emits some;
//! * `E0602` redundant predicate — the stage emits exactly what the
//!   control emits (the filter removed nothing);
//! * `E0603` reachable zero divisor — a synthesized zero-divisor tuple
//!   drives the engine down its divide-by-zero `NULL` path;
//! * `E0903` volatile taint — two runs over identical input differ;
//! * `E0905` unbounded grouping key — doubling the key's distinct
//!   values doubles the retained groups.
//!
//! The linter is thereby *self-checking*: a finding whose witness run
//! contradicts the claim is downgraded to a warning on the spot (and the
//! refutation recorded), instead of being shipped on trust. Findings the
//! synthesizer cannot execute (derived tables, undeclared schemas,
//! subqueries) yield a [`WitnessOutcome::NotAttempted`] with the reason
//! — never a silent skip.

use std::collections::BTreeMap;
use std::sync::Arc;

use esp_core::deploy::{SmoothSpec, StageSpec};
use esp_query::ast::{Expr, FromSource, SelectItem, SelectStmt};
use esp_query::range::{range_of, Interval, Ranged};
use esp_query::Engine;
use esp_stream::Payload;
use esp_types::{
    well_known, DataType, Diagnostic, Field, Schema, Severity, Span, Ts, Tuple, TupleBuilder, Value,
};

use crate::absint::RangeDecls;
use crate::flow::PipelineSpec;

/// Keep the synthesized stream small: the cartesian sample product is
/// truncated here (deterministically — samples are ordered).
const MAX_WITNESS_ROWS: usize = 32;

/// One input batch per distinct stream: `(stream, tuples)`.
type Batches = Vec<(String, Vec<Tuple>)>;

/// How one witness run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessOutcome {
    /// The defect manifested through the real engine.
    Confirmed {
        /// What the engine did, e.g. `"0 of 9 in-range rows emitted"`.
        evidence: String,
    },
    /// The engine contradicted the claim; the diagnostic was downgraded.
    Refuted {
        /// What the engine did instead.
        observed: String,
    },
    /// The finding is not executable by this synthesizer.
    NotAttempted {
        /// Why (derived table, undeclared schema, subquery, …).
        reason: String,
    },
}

/// A synthesized counterexample for one diagnostic, plus the verdict of
/// replaying it through the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The diagnostic code the witness argues for.
    pub code: &'static str,
    /// The diagnostic's span into the linted document.
    pub span: Option<Span>,
    /// The claim under test, e.g. `"WHERE predicate is always false"`.
    pub claim: String,
    /// The synthesized input tuples, rendered one per line as
    /// `stream(field=value, …)`.
    pub inputs: Vec<String>,
    /// The verdict.
    pub outcome: WitnessOutcome,
}

impl Witness {
    /// Whether the engine run confirmed the finding.
    pub fn confirmed(&self) -> bool {
        matches!(self.outcome, WitnessOutcome::Confirmed { .. })
    }

    /// Render a human-readable transcript block (the CI artifact form).
    pub fn render(&self) -> String {
        let mut out = format!("witness[{}]: {}\n", self.code, self.claim);
        for line in &self.inputs {
            out.push_str(&format!("  input: {line}\n"));
        }
        match &self.outcome {
            WitnessOutcome::Confirmed { evidence } => {
                out.push_str(&format!("  verdict: CONFIRMED — {evidence}\n"));
            }
            WitnessOutcome::Refuted { observed } => {
                out.push_str(&format!("  verdict: REFUTED — {observed}\n"));
            }
            WitnessOutcome::NotAttempted { reason } => {
                out.push_str(&format!("  verdict: not attempted — {reason}\n"));
            }
        }
        out
    }
}

/// Synthesize and validate witnesses for every value-domain finding in
/// `diags`, downgrading refuted findings to warnings in place. Routes by
/// document shape: JSON pipeline documents get the `E0903`/`E0905`
/// harness, CQL text the `E0601`/`E0602`/`E0603` one.
pub fn synthesize_witnesses(source: &str, diags: &mut [Diagnostic]) -> Vec<Witness> {
    let witnesses = if source.trim_start().starts_with('{') {
        witness_pipeline(source, diags)
    } else {
        witness_cql(source, diags)
    };
    for w in &witnesses {
        if let WitnessOutcome::Refuted { observed } = &w.outcome {
            for d in diags.iter_mut() {
                if d.code == w.code && spans_eq(d.span, w.span) {
                    d.severity = Severity::Warning;
                    d.notes.push(format!(
                        "witness execution refuted this finding ({observed}); downgraded to warning"
                    ));
                }
            }
        }
    }
    witnesses
}

fn spans_eq(a: Option<Span>, b: Option<Span>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.start == b.start && a.end == b.end,
        (None, None) => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// CQL: E0601 / E0602 / E0603
// ---------------------------------------------------------------------------

/// Witness the `E0601`/`E0602`/`E0603` findings of one CQL document.
pub fn witness_cql(source: &str, diags: &[Diagnostic]) -> Vec<Witness> {
    let targets: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| matches!(d.code, "E0601" | "E0602" | "E0603"))
        .collect();
    if targets.is_empty() {
        return Vec::new();
    }
    let mut scratch = Vec::new();
    let directives = crate::cql::parse_directives(source, &mut scratch);
    let stmt = match esp_query::parse(source) {
        Ok(s) => s,
        Err(_) => return Vec::new(),
    };
    let ctx = CqlCtx::build(source, &stmt, &directives.streams, &directives.ranges);
    targets
        .into_iter()
        .map(|d| {
            let claim = format!("{} — {}", d.code, d.message);
            let make = |outcome, inputs| Witness {
                code: d.code,
                span: d.span,
                claim: claim.clone(),
                inputs,
                outcome,
            };
            match &ctx {
                Err(reason) => make(
                    WitnessOutcome::NotAttempted {
                        reason: reason.clone(),
                    },
                    Vec::new(),
                ),
                Ok(ctx) => {
                    let (outcome, inputs) = match d.code {
                        "E0603" => ctx.witness_divisor(d),
                        _ => ctx.witness_predicate(d),
                    };
                    make(outcome, inputs)
                }
            }
        })
        .collect()
}

/// Everything needed to execute a witness for one top-level CQL query.
struct CqlCtx<'a> {
    source: &'a str,
    stmt: &'a SelectStmt,
    /// `(alias-or-name, stream, schema)` for each FROM item, in order.
    bindings: Vec<(Option<String>, String, Arc<Schema>)>,
    /// Distinct input streams with their schemas (push targets).
    streams: Vec<(String, Arc<Schema>)>,
    ranges: &'a RangeDecls,
    engine: Engine,
}

impl<'a> CqlCtx<'a> {
    fn build(
        source: &'a str,
        stmt: &'a SelectStmt,
        declared: &std::collections::HashMap<String, Arc<Schema>>,
        ranges: &'a RangeDecls,
    ) -> Result<CqlCtx<'a>, String> {
        let mut bindings = Vec::new();
        let mut streams: Vec<(String, Arc<Schema>)> = Vec::new();
        for item in &stmt.from {
            match &item.source {
                FromSource::Derived(_) => {
                    return Err("the query reads a derived table; witness synthesis only \
                                executes single-level stream queries"
                        .into())
                }
                FromSource::Named(name) => {
                    let Some(schema) = declared.get(name) else {
                        return Err(format!(
                            "stream '{name}' has no declared schema (add a \
                             '-- lint: stream' directive)"
                        ));
                    };
                    bindings.push((
                        item.alias.clone().or_else(|| Some(name.clone())),
                        name.clone(),
                        Arc::clone(schema),
                    ));
                    if !streams.iter().any(|(s, _)| s == name) {
                        streams.push((name.clone(), Arc::clone(schema)));
                    }
                }
            }
        }
        Ok(CqlCtx {
            source,
            stmt,
            bindings,
            streams,
            ranges,
            engine: Engine::new(),
        })
    }

    /// The declared interval for a field, or `TOP` when only the type is
    /// known.
    fn interval(&self, stream: &str, field: &str) -> Interval {
        self.ranges
            .get(&(stream.to_string(), field.to_string()))
            .copied()
            .unwrap_or(Interval::TOP)
    }

    /// Resolve a (possibly qualified) field reference to its stream, the
    /// way the runtime does.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Option<(String, Arc<Schema>)> {
        match qualifier {
            Some(q) => self
                .bindings
                .iter()
                .find(|(n, _, _)| n.as_deref() == Some(q))
                .map(|(_, s, sch)| (s.clone(), Arc::clone(sch))),
            None => self
                .bindings
                .iter()
                .find(|(_, _, sch)| sch.field(name).is_some())
                .map(|(_, s, sch)| (s.clone(), Arc::clone(sch))),
        }
    }

    /// Sample values for one `(stream, field)`: interval members filtered
    /// to the field's type (integers stay integral). At most 3 per field
    /// so the cartesian product stays small.
    fn samples(&self, stream: &str, schema: &Schema, field: &str) -> Vec<f64> {
        let Some(f) = schema.field(field) else {
            return Vec::new();
        };
        let iv = self.interval(stream, field);
        let pts = match f.data_type {
            DataType::Float | DataType::Ts => iv.sample_points(),
            DataType::Int => {
                let mut ints = Vec::new();
                for p in iv.sample_points() {
                    for cand in [p.ceil(), p.floor()] {
                        if iv.contains(cand) && !ints.contains(&cand) {
                            ints.push(cand);
                        }
                    }
                }
                ints
            }
            _ => Vec::new(),
        };
        pts.into_iter().take(3).collect()
    }

    /// All concrete assignments over `fields` (cartesian product of each
    /// field's samples), truncated to [`MAX_WITNESS_ROWS`].
    fn assignments(
        &self,
        fields: &[(String, Arc<Schema>, String)],
    ) -> Vec<BTreeMap<(String, String), f64>> {
        let mut rows: Vec<BTreeMap<(String, String), f64>> = vec![BTreeMap::new()];
        for (stream, schema, field) in fields {
            let samples = self.samples(stream, schema, field);
            if samples.is_empty() {
                continue;
            }
            let mut next = Vec::new();
            'outer: for row in &rows {
                for s in &samples {
                    let mut r = row.clone();
                    r.insert((stream.clone(), field.clone()), *s);
                    next.push(r);
                    if next.len() >= MAX_WITNESS_ROWS {
                        break 'outer;
                    }
                }
            }
            rows = next;
        }
        rows
    }

    /// Build one tuple for `stream` under `assignment`; unassigned fields
    /// get an in-range default.
    fn tuple_for(
        &self,
        stream: &str,
        schema: &Arc<Schema>,
        assignment: &BTreeMap<(String, String), f64>,
    ) -> Result<Tuple, String> {
        let mut b = TupleBuilder::new(schema, Ts::ZERO);
        for f in schema.fields() {
            let key = (stream.to_string(), f.name.clone());
            let v: Value = match assignment.get(&key) {
                Some(x) => match f.data_type {
                    DataType::Int => Value::Int(*x as i64),
                    DataType::Ts => Value::Ts(Ts::from_millis(x.max(0.0) as u64)),
                    _ => Value::Float(*x),
                },
                None => {
                    let iv = self.interval(stream, &f.name);
                    default_value(f.data_type, Some(iv))
                }
            };
            b = b.set(&f.name, v).map_err(|e| e.to_string())?;
        }
        b.build().map_err(|e| e.to_string())
    }

    /// Per-stream batches for a set of assignments (one tuple per stream
    /// per assignment), plus the rendered transcript lines.
    fn batches(
        &self,
        assignments: &[BTreeMap<(String, String), f64>],
    ) -> Result<(Batches, Vec<String>), String> {
        let mut batches: Vec<(String, Vec<Tuple>)> = self
            .streams
            .iter()
            .map(|(s, _)| (s.clone(), Vec::new()))
            .collect();
        let mut rendered = Vec::new();
        for a in assignments {
            for (i, (stream, schema)) in self.streams.iter().enumerate() {
                let t = self.tuple_for(stream, schema, a)?;
                rendered.push(render_tuple(stream, &t));
                batches[i].1.push(t);
            }
        }
        Ok((batches, rendered))
    }

    fn run(&self, sql: &str, batches: &[(String, Vec<Tuple>)]) -> Result<Vec<Tuple>, String> {
        let schemas: Vec<(&str, Arc<Schema>)> = self
            .streams
            .iter()
            .map(|(s, sch)| (s.as_str(), Arc::clone(sch)))
            .collect();
        let inputs: Vec<(&str, Vec<Tuple>)> = batches
            .iter()
            .map(|(s, rows)| (s.as_str(), rows.clone()))
            .collect();
        self.engine
            .run_once(sql, &schemas, &inputs, Ts::ZERO)
            .map_err(|e| e.to_string())
    }

    /// `E0601`/`E0602`: run the query as written and with the flagged
    /// clause removed, over tuples sampling the declared ranges.
    fn witness_predicate(&self, d: &Diagnostic) -> (WitnessOutcome, Vec<String>) {
        let Some(span) = d.span else {
            return (not_attempted("the finding carries no span"), Vec::new());
        };
        // Which top-level clause does the span point at?
        let clause = [
            (self.stmt.where_clause.as_ref(), WhichClause::Where),
            (self.stmt.having.as_ref(), WhichClause::Having),
        ]
        .into_iter()
        .find_map(|(e, which)| {
            let e = e?;
            let es = e.span();
            (es.start == span.start && es.end == span.end).then_some((e, which))
        });
        let Some((pred, which)) = clause else {
            return (
                not_attempted(
                    "the predicate is not a top-level WHERE/HAVING clause \
                     (derived table or subquery)",
                ),
                Vec::new(),
            );
        };
        if contains_subquery(pred) {
            return (
                not_attempted("the predicate contains a quantified subquery"),
                Vec::new(),
            );
        }
        let fields = match self.predicate_fields(pred) {
            Ok(f) => f,
            Err(reason) => return (not_attempted(&reason), Vec::new()),
        };
        let assignments = self.assignments(&fields);
        let (batches, rendered) = match self.batches(&assignments) {
            Ok(x) => x,
            Err(e) => {
                return (
                    not_attempted(&format!("could not build witness tuples: {e}")),
                    Vec::new(),
                )
            }
        };
        // Control: the same query with the flagged clause removed.
        let mut control = self.stmt.clone();
        match which {
            WhichClause::Where => control.where_clause = None,
            WhichClause::Having => control.having = None,
        }
        let control_sql = control.to_string();
        let (actual, baseline) = match (
            self.run(self.source, &batches),
            self.run(&control_sql, &batches),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                return (
                    not_attempted(&format!("engine rejected the witness run: {e}")),
                    rendered,
                )
            }
        };
        let outcome = match d.code {
            "E0601" => {
                if !actual.is_empty() {
                    WitnessOutcome::Refuted {
                        observed: format!(
                            "the 'dead' stage emitted {} row(s) over {} in-range tuple(s)",
                            actual.len(),
                            rendered.len()
                        ),
                    }
                } else if baseline.is_empty() {
                    not_attempted(
                        "both the stage and the predicate-free control emitted nothing; \
                         the zero output cannot be pinned on the predicate",
                    )
                } else {
                    WitnessOutcome::Confirmed {
                        evidence: format!(
                            "0 rows emitted from {} in-range tuple(s); removing the \
                             predicate emits {}",
                            rendered.len(),
                            baseline.len()
                        ),
                    }
                }
            }
            _ => {
                // E0602: the filter must remove nothing.
                if baseline.is_empty() {
                    not_attempted("the predicate-free control emitted nothing to compare against")
                } else if actual.len() == baseline.len() {
                    WitnessOutcome::Confirmed {
                        evidence: format!(
                            "the filter kept all {} row(s) the predicate-free control \
                             emitted",
                            baseline.len()
                        ),
                    }
                } else {
                    WitnessOutcome::Refuted {
                        observed: format!(
                            "the 'always-true' filter dropped {} of {} row(s)",
                            baseline.len() - actual.len(),
                            baseline.len()
                        ),
                    }
                }
            }
        };
        (outcome, rendered)
    }

    /// `E0603`: find a concrete in-range assignment that zeroes the
    /// divisor, then watch the engine take its divide-by-zero NULL path.
    fn witness_divisor(&self, d: &Diagnostic) -> (WitnessOutcome, Vec<String>) {
        let Some(span) = d.span else {
            return (not_attempted("the finding carries no span"), Vec::new());
        };
        let Some(div) = find_division(self.stmt, span) else {
            return (
                not_attempted("the flagged division is not in the top-level query"),
                Vec::new(),
            );
        };
        let Expr::Arith { rhs: divisor, .. } = div else {
            return (
                not_attempted("the flagged span is not a division"),
                Vec::new(),
            );
        };
        if contains_aggregate(div, self.engine.catalog()) || contains_subquery(div) {
            return (
                not_attempted("the division involves aggregates or subqueries"),
                Vec::new(),
            );
        }
        let fields = match self.predicate_fields(divisor) {
            Ok(f) => f,
            Err(reason) => return (not_attempted(&reason), Vec::new()),
        };
        // Search the sample product for an assignment that makes the
        // divisor exactly zero, judged by the same abstract evaluator
        // that raised the finding (point intervals are exact).
        let zero = self.assignments(&fields).into_iter().find(|a| {
            let env = |q: Option<&str>, n: &str| -> Ranged {
                match self.resolve(q, n) {
                    Some((stream, _)) => match a.get(&(stream, n.to_string())) {
                        Some(v) => Ranged::Num(Interval::point(*v)),
                        None => Ranged::Unknown,
                    },
                    None => Ranged::Unknown,
                }
            };
            matches!(range_of(divisor, &env).as_interval(),
                     Some(iv) if iv.is_point() && iv.contains(0.0))
        });
        let Some(zero) = zero else {
            return (
                not_attempted(
                    "no sampled in-range assignment zeroes the divisor (the range \
                     straddles zero but its sampled members miss it)",
                ),
                Vec::new(),
            );
        };
        let (batches, rendered) = match self.batches(std::slice::from_ref(&zero)) {
            Ok(x) => x,
            Err(e) => {
                return (
                    not_attempted(&format!("could not build witness tuples: {e}")),
                    Vec::new(),
                )
            }
        };
        // Probe: project just the flagged division over the same FROM.
        let probe = SelectStmt {
            select: vec![SelectItem {
                expr: div.clone(),
                alias: Some("esp_probe".into()),
            }],
            from: self.stmt.from.clone(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
        };
        let out = match self.run(&probe.to_string(), &batches) {
            Ok(o) => o,
            Err(e) => {
                return (
                    not_attempted(&format!("engine rejected the witness run: {e}")),
                    rendered,
                )
            }
        };
        let outcome = match out.first().map(|t| t.get("esp_probe")) {
            Some(Some(Value::Null)) => WitnessOutcome::Confirmed {
                evidence: "the engine evaluated the division over the zero-divisor tuple \
                           to NULL (its divide-by-zero path)"
                    .into(),
            },
            Some(Some(v)) => WitnessOutcome::Refuted {
                observed: format!("the division evaluated to {v:?}, not NULL"),
            },
            _ => not_attempted("the probe query emitted no row to inspect"),
        };
        (outcome, rendered)
    }

    /// The `(stream, schema, field)` triples a predicate reads, resolved;
    /// an error when any reference cannot be pinned to a declared stream.
    fn predicate_fields(&self, expr: &Expr) -> Result<Vec<(String, Arc<Schema>, String)>, String> {
        let mut refs = Vec::new();
        collect_field_refs(expr, &mut refs);
        let mut out: Vec<(String, Arc<Schema>, String)> = Vec::new();
        for (q, name) in refs {
            let Some((stream, schema)) = self.resolve(q.as_deref(), &name) else {
                return Err(format!(
                    "field '{}' does not resolve to a declared stream",
                    name
                ));
            };
            if !out.iter().any(|(s, _, f)| *s == stream && *f == name) {
                out.push((stream, schema, name));
            }
        }
        Ok(out)
    }
}

#[derive(Clone, Copy)]
enum WhichClause {
    Where,
    Having,
}

fn not_attempted(reason: &str) -> WitnessOutcome {
    WitnessOutcome::NotAttempted {
        reason: reason.to_string(),
    }
}

/// An in-range default for a field the witness does not vary.
fn default_value(dt: DataType, iv: Option<Interval>) -> Value {
    let num = iv.and_then(|iv| iv.sample()).unwrap_or(0.0);
    match dt {
        DataType::Int => Value::Int(num as i64),
        DataType::Float => Value::Float(num),
        DataType::Ts => Value::Ts(Ts::from_millis(num.max(0.0) as u64)),
        DataType::Str => Value::Str("w".into()),
        DataType::Bool => Value::Bool(true),
        DataType::Any => Value::Int(num as i64),
    }
}

fn render_tuple(stream: &str, t: &Tuple) -> String {
    let fields: Vec<String> = t
        .schema()
        .fields()
        .iter()
        .map(|f| match t.get(&f.name) {
            Some(v) => format!("{}={v:?}", f.name),
            None => format!("{}=NULL", f.name),
        })
        .collect();
    format!("{stream}({})", fields.join(", "))
}

fn collect_field_refs(expr: &Expr, out: &mut Vec<(Option<String>, String)>) {
    match expr {
        Expr::Field {
            qualifier, name, ..
        } => out.push((qualifier.clone(), name.clone())),
        Expr::Call { args, .. } => {
            for a in args {
                collect_field_refs(a, out);
            }
        }
        Expr::Arith { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
            collect_field_refs(lhs, out);
            collect_field_refs(rhs, out);
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_field_refs(a, out);
            collect_field_refs(b, out);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_field_refs(e, out),
        Expr::QuantifiedCmp { lhs, .. } => collect_field_refs(lhs, out),
        Expr::Literal(_) => {}
    }
}

fn contains_subquery(expr: &Expr) -> bool {
    match expr {
        Expr::QuantifiedCmp { .. } => true,
        Expr::Arith { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
            contains_subquery(lhs) || contains_subquery(rhs)
        }
        Expr::And(a, b) | Expr::Or(a, b) => contains_subquery(a) || contains_subquery(b),
        Expr::Not(e) | Expr::Neg(e) => contains_subquery(e),
        Expr::Call { args, .. } => args.iter().any(contains_subquery),
        Expr::Literal(_) | Expr::Field { .. } => false,
    }
}

fn contains_aggregate(expr: &Expr, catalog: &esp_query::Catalog) -> bool {
    match expr {
        Expr::Call { name, args, .. } => {
            catalog.is_aggregate(name) || args.iter().any(|a| contains_aggregate(a, catalog))
        }
        Expr::Arith { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
            contains_aggregate(lhs, catalog) || contains_aggregate(rhs, catalog)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            contains_aggregate(a, catalog) || contains_aggregate(b, catalog)
        }
        Expr::Not(e) | Expr::Neg(e) => contains_aggregate(e, catalog),
        Expr::Literal(_) | Expr::Field { .. } | Expr::QuantifiedCmp { .. } => false,
    }
}

/// Find the division/modulo expression whose span matches `span`, in the
/// top-level query's clauses (the hazard checker never enters
/// subqueries, so neither does the search).
fn find_division(stmt: &SelectStmt, span: Span) -> Option<&Expr> {
    let exprs = stmt
        .select
        .iter()
        .map(|i| &i.expr)
        .chain(stmt.where_clause.iter())
        .chain(stmt.group_by.iter())
        .chain(stmt.having.iter());
    for e in exprs {
        if let Some(found) = find_division_in(e, span) {
            return Some(found);
        }
    }
    None
}

fn find_division_in(expr: &Expr, span: Span) -> Option<&Expr> {
    use esp_query::ast::ArithOp;
    if let Expr::Arith { op, .. } = expr {
        if matches!(op, ArithOp::Div | ArithOp::Mod) {
            let es = expr.span();
            if es.start == span.start && es.end == span.end {
                return Some(expr);
            }
        }
    }
    match expr {
        Expr::Arith { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
            find_division_in(lhs, span).or_else(|| find_division_in(rhs, span))
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            find_division_in(a, span).or_else(|| find_division_in(b, span))
        }
        Expr::Not(e) | Expr::Neg(e) => find_division_in(e, span),
        Expr::Call { args, .. } => args.iter().find_map(|a| find_division_in(a, span)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Pipeline documents: E0903 / E0905
// ---------------------------------------------------------------------------

/// Witness the `E0903`/`E0905` findings of one pipeline document.
pub fn witness_pipeline(source: &str, diags: &[Diagnostic]) -> Vec<Witness> {
    let targets: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| matches!(d.code, "E0903" | "E0905"))
        .collect();
    if targets.is_empty() {
        return Vec::new();
    }
    let Ok(spec) = PipelineSpec::from_json(source) else {
        return Vec::new();
    };
    let engine = Engine::new();
    // `entry_schema()` declines mote fleets (several raw layouts exist);
    // for witness purposes the richest mote layout is good enough.
    let entry = spec.deployment.entry_schema().or_else(|| {
        let groups = &spec.deployment.groups;
        (!groups.is_empty()
            && groups
                .iter()
                .all(|g| g.receptor_type.eq_ignore_ascii_case("mote")))
        .then(well_known::temp_voltage_schema)
    });
    targets
        .into_iter()
        .map(|d| {
            let claim = format!("{} — {}", d.code, d.message);
            let (outcome, inputs) = match (d.code, &entry) {
                (_, None) => (
                    not_attempted(
                        "the deployment declares no receptor types, so no entry \
                                   schema exists to synthesize tuples from",
                    ),
                    Vec::new(),
                ),
                ("E0903", Some(schema)) => witness_volatile(&engine, &spec, schema),
                (_, Some(schema)) => witness_unbounded_key(&engine, &spec, schema, d),
            };
            Witness {
                code: d.code,
                span: d.span,
                claim,
                inputs,
                outcome,
            }
        })
        .collect()
}

/// Run a declarative stage query once over `rows`, returning the output
/// rendered row by row.
fn run_stage(engine: &Engine, query: &str, rows: &[Tuple]) -> Result<Vec<String>, String> {
    let mut q = engine.compile(query).map_err(|e| e.to_string())?;
    let streams: Vec<String> = q.input_streams().to_vec();
    for s in &streams {
        q.push(s, rows).map_err(|e| e.to_string())?;
    }
    let out = q.tick(Ts::ZERO).map_err(|e| e.to_string())?;
    Ok(out.iter().map(|t| format!("{t:?}")).collect())
}

/// Run a built-in Smooth stage once over `rows`, returning the output
/// rendered row by row.
fn run_smooth(
    spec: &PipelineSpec,
    smooth: &SmoothSpec,
    rows: &[Tuple],
) -> Result<Vec<String>, String> {
    let granule = spec.deployment.granule().map_err(|e| e.to_string())?;
    let mut stage = smooth.build(granule).map_err(|e| e.to_string())?;
    let out = stage
        .process(Ts::ZERO, Payload::from(rows.to_vec()))
        .map_err(|e| e.to_string())?;
    Ok(out.into_rows().iter().map(|t| format!("{t:?}")).collect())
}

/// One all-defaults tuple from the entry schema.
fn entry_tuple(schema: &Arc<Schema>) -> Result<Tuple, String> {
    let mut b = TupleBuilder::new(schema, Ts::ZERO);
    for f in schema.fields() {
        b = b
            .set(&f.name, default_value(f.data_type, None))
            .map_err(|e| e.to_string())?;
    }
    b.build().map_err(|e| e.to_string())
}

/// `E0903`: the volatile stage must produce different bytes on two runs
/// over identical input. Wall-clock volatiles (`now()`) need time to
/// advance between runs; retry with growing gaps before conceding.
fn witness_volatile(
    engine: &Engine,
    spec: &PipelineSpec,
    schema: &Arc<Schema>,
) -> (WitnessOutcome, Vec<String>) {
    let volatile = spec.deployment.stages.iter().find_map(|s| match s {
        StageSpec::Declarative(ds) => match engine.compile(&ds.query) {
            Ok(q) => match q.determinism() {
                esp_types::Determinism::Nondeterministic { .. } => Some(ds.query.clone()),
                esp_types::Determinism::Deterministic => None,
            },
            Err(_) => None,
        },
        _ => None,
    });
    let Some(query) = volatile else {
        return (
            not_attempted("no declarative stage in the document compiles as nondeterministic"),
            Vec::new(),
        );
    };
    let tuple = match entry_tuple(schema) {
        Ok(t) => t,
        Err(e) => {
            return (
                not_attempted(&format!("could not build an entry tuple: {e}")),
                Vec::new(),
            )
        }
    };
    let rendered = vec![render_tuple("entry", &tuple)];
    let rows = vec![tuple];
    let first = match run_stage(engine, &query, &rows) {
        Ok(o) => o,
        Err(e) => {
            return (
                not_attempted(&format!("engine rejected the stage query: {e}")),
                rendered,
            )
        }
    };
    for gap_ms in [3u64, 15, 40] {
        std::thread::sleep(std::time::Duration::from_millis(gap_ms));
        match run_stage(engine, &query, &rows) {
            Ok(second) if second != first => {
                return (
                    WitnessOutcome::Confirmed {
                        evidence: "two runs over the identical input batch produced \
                                   different output bytes"
                            .into(),
                    },
                    rendered,
                )
            }
            Ok(_) => continue,
            Err(e) => {
                return (
                    not_attempted(&format!("engine rejected the stage query: {e}")),
                    rendered,
                )
            }
        }
    }
    (
        WitnessOutcome::Refuted {
            observed: "repeated runs over identical input produced identical output".into(),
        },
        rendered,
    )
}

/// `E0905`: doubling the distinct values of the unbounded grouping key
/// must double the retained groups.
fn witness_unbounded_key(
    engine: &Engine,
    spec: &PipelineSpec,
    schema: &Arc<Schema>,
    d: &Diagnostic,
) -> (WitnessOutcome, Vec<String>) {
    let Some(key) = d
        .message
        .split("grouping key '")
        .nth(1)
        .and_then(|rest| rest.split('\'').next())
    else {
        return (
            not_attempted("the finding is a capacity overcommit, not an unbounded key"),
            Vec::new(),
        );
    };
    let Some(field) = schema.field(key) else {
        return (
            not_attempted(&format!(
                "grouping key '{key}' is not a field of the entry schema"
            )),
            Vec::new(),
        );
    };
    // The stage that groups by the key: a declarative query, run through
    // the engine, or a built-in Smooth stage, built from its spec.
    enum Keyed<'a> {
        Query(&'a str),
        Smooth(&'a SmoothSpec),
    }
    let keyed = spec.deployment.stages.iter().find_map(|s| match s {
        StageSpec::Declarative(ds) => match engine.compile(&ds.query) {
            Ok(q) if q.group_by_columns().iter().any(|c| c == key) => Some(Keyed::Query(&ds.query)),
            _ => None,
        },
        StageSpec::Smooth(sm) if sm.keys.iter().any(|k| k == key) => Some(Keyed::Smooth(sm)),
        _ => None,
    });
    let Some(keyed) = keyed else {
        return (
            not_attempted(&format!("no executable stage groups by '{key}'")),
            Vec::new(),
        );
    };
    // A built-in stage sits behind the processor's `spatial_granule`
    // injection and may key on that column too.
    let schema = &match &keyed {
        Keyed::Smooth(_) if !schema.contains(well_known::SPATIAL_GRANULE) => {
            match schema.with_field(Field::new(well_known::SPATIAL_GRANULE, DataType::Str)) {
                Ok(extended) => extended,
                Err(e) => return (not_attempted(&e.to_string()), Vec::new()),
            }
        }
        _ => Arc::clone(schema),
    };
    let run = |rows: &[Tuple]| match &keyed {
        Keyed::Query(query) => run_stage(engine, query, rows),
        Keyed::Smooth(smooth) => run_smooth(spec, smooth, rows),
    };
    let make_rows = |n: usize| -> Result<Vec<Tuple>, String> {
        (0..n)
            .map(|i| {
                let mut b = TupleBuilder::new(schema, Ts::ZERO);
                for f in schema.fields() {
                    let v = if f.name == key {
                        match field.data_type {
                            DataType::Int => Value::Int(i as i64),
                            DataType::Float => Value::Float(i as f64),
                            DataType::Str => Value::Str(format!("k{i}").into()),
                            _ => return Err(format!("unsupported key type {:?}", f.data_type)),
                        }
                    } else {
                        default_value(f.data_type, None)
                    };
                    b = b.set(&f.name, v).map_err(|e| e.to_string())?;
                }
                b.build().map_err(|e| e.to_string())
            })
            .collect()
    };
    const K: usize = 4;
    let (small, large) = match (make_rows(K), make_rows(2 * K)) {
        (Ok(s), Ok(l)) => (s, l),
        (Err(e), _) | (_, Err(e)) => {
            return (
                not_attempted(&format!("could not build witness tuples: {e}")),
                Vec::new(),
            )
        }
    };
    let rendered: Vec<String> = large.iter().map(|t| render_tuple("entry", t)).collect();
    match (run(&small), run(&large)) {
        (Ok(a), Ok(b)) => {
            if b.len() > a.len() {
                (
                    WitnessOutcome::Confirmed {
                        evidence: format!(
                            "{K} distinct '{key}' values retain {} group(s); {} values \
                             retain {} — state grows with the key's cardinality",
                            a.len(),
                            2 * K,
                            b.len()
                        ),
                    },
                    rendered,
                )
            } else {
                (
                    WitnessOutcome::Refuted {
                        observed: format!(
                            "doubling the distinct '{key}' values left the group count \
                             at {}",
                            b.len()
                        ),
                    },
                    rendered,
                )
            }
        }
        (Err(e), _) | (_, Err(e)) => (
            not_attempted(&format!("the stage rejected the witness tuples: {e}")),
            rendered,
        ),
    }
}
