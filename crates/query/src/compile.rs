//! Compilation of a parsed [`SelectStmt`] into an executable
//! [`CompiledSelect`].
//!
//! Compilation resolves function names against the [`Catalog`], extracts and
//! deduplicates aggregate calls, allocates one [`WindowBuffer`] per stream
//! reference (each syntactic occurrence of a stream gets its own window —
//! the outer and inner `arbitrate_input` of the paper's Query 3 are
//! independent windows over the same input), infers the output schema for
//! explicit projections, and validates structural rules (no aggregates in
//! `WHERE`, no `SELECT *` in grouped queries, single-column quantified
//! subqueries, no window clause on a static relation).
//!
//! The engine then classifies the compiled select (see
//! [`crate::incremental`]): a mergeable one trades its
//! [`Window::Rows`] buffer for [`Window::Panes`], per-epoch partials that
//! each arrival is folded into once.

use std::fmt;
use std::sync::Arc;

use esp_stream::WindowBuffer;
use esp_types::diag::Span;
use esp_types::{registry, DataType, EspError, Field, Result, Schema, TimeDelta, Value};

use crate::aggregate::AggregateFactory;
use crate::ast::{ArithOp, CmpOp, Expr, FromItem, FromSource, Quantifier, SelectItem, SelectStmt};
use crate::catalog::{Catalog, ScalarFn};
use crate::incremental::Incremental;
use crate::plan::{FieldSlot, ResolvedPlan};

/// An executable (but stateful: windows) form of one `SELECT`.
pub struct CompiledSelect {
    /// Projection; empty = `SELECT *`.
    pub select: Vec<CSelectItem>,
    /// FROM items, cross-joined.
    pub from: Vec<CFromItem>,
    /// `WHERE` predicate.
    pub where_clause: Option<CExpr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<CExpr>,
    /// `HAVING` predicate.
    pub having: Option<CExpr>,
    /// True when this select evaluates with grouped/aggregate semantics.
    pub is_aggregate: bool,
    /// Deduplicated aggregate calls referenced by [`CExpr::Agg`] indices.
    pub agg_calls: Vec<AggCall>,
    /// Output schema for explicit projections (`None` for `SELECT *`,
    /// where the schema depends on runtime input schemas). Interned, so
    /// identical projections across queries share one allocation.
    pub output_schema: Option<Arc<Schema>>,
    /// Binding name of each FROM item (alias, or source name), precomputed
    /// so evaluation never re-derives them per call.
    pub bindings: Vec<Option<String>>,
    /// Slot-resolution cache, populated by [`crate::plan::resolve_pass`].
    pub(crate) plan: Option<ResolvedPlan>,
}

/// A compiled projection item with its resolved output column name.
pub struct CSelectItem {
    /// The projected expression.
    pub expr: CExpr,
    /// Output column name (aliased, derived, or generated; deduplicated).
    pub name: String,
}

/// A compiled FROM item.
pub struct CFromItem {
    /// The name this item binds for qualified references.
    pub binding: Option<String>,
    /// The data source.
    pub source: CSource,
}

/// A compiled FROM source.
pub enum CSource {
    /// A stream reference with its private window state.
    Stream {
        /// Stream name (matched against [`push`](crate::ContinuousQuery::push)).
        name: String,
        /// This reference's window. `None` window clause = now-window.
        window: Window,
    },
    /// A static relation resolved from the catalog at evaluation time.
    Relation {
        /// Relation name.
        name: String,
    },
    /// A derived table.
    Derived(Box<CompiledSelect>),
}

/// The window state of one stream reference.
pub enum Window {
    /// Every row of the window, rescanned at each tick: holistic selects,
    /// and every select in reference mode.
    Rows(WindowBuffer),
    /// Per-epoch partials of a mergeable select; see [`crate::incremental`].
    Panes(Box<Incremental>),
}

impl Window {
    /// The window's width; zero for a now-window.
    pub fn width(&self) -> TimeDelta {
        match self {
            Window::Rows(w) => w.width(),
            Window::Panes(p) => p.width(),
        }
    }

    /// The buffered rows of a rescanned window; `None` for panes.
    pub fn rows_mut(&mut self) -> Option<&mut WindowBuffer> {
        match self {
            Window::Rows(w) => Some(w),
            Window::Panes(_) => None,
        }
    }
}

/// One deduplicated aggregate call within a select.
pub struct AggCall {
    /// Canonical key (used for deduplication and diagnostics).
    pub key: String,
    /// The registered factory.
    pub factory: Arc<dyn AggregateFactory>,
    /// `DISTINCT` modifier.
    pub distinct: bool,
    /// `count(*)` form.
    pub star: bool,
    /// Argument expression (`None` for `*`).
    pub arg: Option<CExpr>,
}

/// A compiled expression.
pub enum CExpr {
    /// Literal.
    Literal(Value),
    /// Field reference. `slot` is filled in by `plan::resolve_pass`
    /// when the reference is provably unique against known schemas; it is
    /// an acceleration only — evaluation falls back to name resolution
    /// whenever the slot's schema doesn't match the actual tuple.
    Field {
        /// Optional source qualifier.
        qualifier: Option<String>,
        /// Field name.
        name: String,
        /// Source position, for deploy-time diagnostics.
        span: Span,
        /// Compiled slot, when statically resolvable.
        slot: Option<FieldSlot>,
    },
    /// Reference to `agg_calls[idx]` of the enclosing select.
    Agg {
        /// Index into the enclosing select's `agg_calls`.
        idx: usize,
        /// Canonical key, for display.
        key: String,
    },
    /// Scalar function call.
    Scalar {
        /// Function name.
        name: String,
        /// Resolved function.
        func: Arc<ScalarFn>,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Comparison.
    Cmp {
        /// Left operand.
        lhs: Box<CExpr>,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Quantified comparison against a compiled subquery.
    Quantified {
        /// Left operand.
        lhs: Box<CExpr>,
        /// Operator.
        op: CmpOp,
        /// ALL / ANY.
        quantifier: Quantifier,
        /// The compiled, single-column subquery.
        subquery: Box<CompiledSelect>,
    },
    /// Arithmetic.
    Arith {
        /// Left operand.
        lhs: Box<CExpr>,
        /// Operator.
        op: ArithOp,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Conjunction.
    And(Box<CExpr>, Box<CExpr>),
    /// Disjunction.
    Or(Box<CExpr>, Box<CExpr>),
    /// Negation.
    Not(Box<CExpr>),
    /// Unary minus.
    Neg(Box<CExpr>),
}

impl fmt::Display for CExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CExpr::Literal(v) => write!(f, "{v}"),
            CExpr::Field {
                qualifier: Some(q),
                name,
                ..
            } => write!(f, "{q}.{name}"),
            CExpr::Field {
                qualifier: None,
                name,
                ..
            } => write!(f, "{name}"),
            CExpr::Agg { key, .. } => write!(f, "{key}"),
            CExpr::Scalar { name, args, .. } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            CExpr::Cmp { lhs, op, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            CExpr::Quantified {
                lhs,
                op,
                quantifier,
                ..
            } => {
                let q = match quantifier {
                    Quantifier::All => "ALL",
                    Quantifier::Any => "ANY",
                };
                write!(f, "({lhs} {} {q}(…))", op.symbol())
            }
            CExpr::Arith { lhs, op, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            CExpr::And(a, b) => write!(f, "({a} AND {b})"),
            CExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            CExpr::Not(e) => write!(f, "(NOT {e})"),
            CExpr::Neg(e) => write!(f, "(-{e})"),
        }
    }
}

impl fmt::Debug for CompiledSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSelect")
            .field("n_select", &self.select.len())
            .field("n_from", &self.from.len())
            .field("is_aggregate", &self.is_aggregate)
            .field("n_agg_calls", &self.agg_calls.len())
            .finish_non_exhaustive()
    }
}

impl CompiledSelect {
    /// Visit every `(stream name, window)` pair in this select, including
    /// derived tables and expression subqueries.
    pub fn for_each_window(&mut self, f: &mut dyn FnMut(&str, &mut Window)) {
        for item in &mut self.from {
            match &mut item.source {
                CSource::Stream { name, window } => f(name, window),
                CSource::Derived(sub) => sub.for_each_window(f),
                CSource::Relation { .. } => {}
            }
        }
        for item in &mut self.select {
            item.expr
                .for_each_subquery_mut(&mut |sub| sub.for_each_window(f));
        }
        if let Some(w) = &mut self.where_clause {
            w.for_each_subquery_mut(&mut |sub| sub.for_each_window(f));
        }
        for g in &mut self.group_by {
            g.for_each_subquery_mut(&mut |sub| sub.for_each_window(f));
        }
        if let Some(h) = &mut self.having {
            h.for_each_subquery_mut(&mut |sub| sub.for_each_window(f));
        }
        for agg in &mut self.agg_calls {
            if let Some(arg) = &mut agg.arg {
                arg.for_each_subquery_mut(&mut |sub| sub.for_each_window(f));
            }
        }
    }

    /// Collect the distinct stream names this select (recursively) reads.
    pub fn stream_names(&mut self) -> Vec<String> {
        let mut names = Vec::new();
        self.for_each_window(&mut |name, _| {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        });
        names
    }

    /// Visit every compiled expression in this select, recursing into
    /// derived tables and quantified subqueries. The immutable companion
    /// of [`CompiledSelect::for_each_window`], used by the effect
    /// summaries (column read sets, determinism taint) that the E09xx
    /// dataflow analyses and column pruning consume.
    pub(crate) fn for_each_expr(&self, f: &mut dyn FnMut(&CExpr)) {
        for item in &self.select {
            item.expr.walk(f);
        }
        if let Some(w) = &self.where_clause {
            w.walk(f);
        }
        for g in &self.group_by {
            g.walk(f);
        }
        if let Some(h) = &self.having {
            h.walk(f);
        }
        for agg in &self.agg_calls {
            if let Some(arg) = &agg.arg {
                arg.walk(f);
            }
        }
        for item in &self.from {
            if let CSource::Derived(sub) = &item.source {
                sub.for_each_expr(f);
            }
        }
    }

    /// Whether this select — or any nested derived table — is a
    /// `SELECT *`, whose output columns depend on runtime input schemas.
    /// Quantified subqueries need no walk: each must project exactly one
    /// explicit expression (`ALL(SELECT * …)` does not compile), so a `*`
    /// derived table below one only surfaces through columns its
    /// enclosing select names — and named columns are in the read set.
    pub(crate) fn has_star(&self) -> bool {
        self.select.is_empty()
            || self.from.iter().any(|item| match &item.source {
                CSource::Derived(sub) => sub.has_star(),
                _ => false,
            })
    }

    /// Every field name referenced anywhere in the query (projections,
    /// predicates, keys, aggregate arguments, subqueries), or `None` when
    /// a `SELECT *` makes the read set depend on runtime input schemas.
    /// An over-approximation of the input columns the query can read:
    /// derived-table output names are included alongside raw input
    /// columns, which only ever *keeps* more columns alive.
    pub(crate) fn read_columns(&self) -> Option<std::collections::BTreeSet<String>> {
        if self.has_star() {
            return None;
        }
        let mut out = std::collections::BTreeSet::new();
        self.for_each_expr(&mut |e| {
            if let CExpr::Field { name, .. } = e {
                out.insert(name.clone());
            }
        });
        Some(out)
    }

    /// Names of scalar calls whose result is not a pure function of the
    /// arguments (wall-clock reads and other volatile UDFs), anywhere in
    /// the query.
    pub(crate) fn volatile_calls(&self, catalog: &Catalog) -> Vec<String> {
        let mut names = Vec::new();
        self.for_each_expr(&mut |e| {
            if let CExpr::Scalar { name, .. } = e {
                if catalog.is_volatile_scalar(name) && !names.contains(name) {
                    names.push(name.clone());
                }
            }
        });
        names
    }

    /// True when any aggregate call is the `count(*)` form, making the
    /// output sensitive to input row counts even where no column is read.
    pub(crate) fn counts_rows(&self) -> bool {
        let mut found = self.agg_calls.iter().any(|c| c.star);
        if !found {
            self.for_each_expr(&mut |e| {
                if let CExpr::Quantified { subquery, .. } = e {
                    found |= subquery.counts_rows();
                }
            });
            found |= self.from.iter().any(|item| match &item.source {
                CSource::Derived(sub) => sub.counts_rows(),
                _ => false,
            });
        }
        found
    }
}

impl CExpr {
    /// Visit this expression and every sub-expression, descending into
    /// quantified subqueries (via their full select walk).
    pub(crate) fn walk(&self, f: &mut dyn FnMut(&CExpr)) {
        f(self);
        match self {
            CExpr::Literal(_) | CExpr::Field { .. } | CExpr::Agg { .. } => {}
            CExpr::Scalar { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            CExpr::Cmp { lhs, rhs, .. } | CExpr::Arith { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            CExpr::Quantified { lhs, subquery, .. } => {
                lhs.walk(f);
                subquery.for_each_expr(f);
            }
            CExpr::And(a, b) | CExpr::Or(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            CExpr::Not(e) | CExpr::Neg(e) => e.walk(f),
        }
    }

    /// Visit every subquery nested in this expression.
    pub(crate) fn for_each_subquery_mut(&mut self, f: &mut impl FnMut(&mut CompiledSelect)) {
        match self {
            CExpr::Literal(_) | CExpr::Field { .. } | CExpr::Agg { .. } => {}
            CExpr::Scalar { args, .. } => {
                for a in args {
                    a.for_each_subquery_mut(f);
                }
            }
            CExpr::Cmp { lhs, rhs, .. } | CExpr::Arith { lhs, rhs, .. } => {
                lhs.for_each_subquery_mut(f);
                rhs.for_each_subquery_mut(f);
            }
            CExpr::Quantified { lhs, subquery, .. } => {
                lhs.for_each_subquery_mut(f);
                f(subquery);
            }
            CExpr::And(a, b) | CExpr::Or(a, b) => {
                a.for_each_subquery_mut(f);
                b.for_each_subquery_mut(f);
            }
            CExpr::Not(e) | CExpr::Neg(e) => e.for_each_subquery_mut(f),
        }
    }
}

/// Compile a parsed statement against a catalog.
pub fn compile(stmt: &SelectStmt, catalog: &Catalog) -> Result<CompiledSelect> {
    // FROM items first.
    let mut from = Vec::with_capacity(stmt.from.len());
    for item in &stmt.from {
        from.push(compile_from(item, catalog)?);
    }

    let is_agg_name = |n: &str| catalog.is_aggregate(n);
    let is_aggregate = !stmt.group_by.is_empty()
        || stmt
            .select
            .iter()
            .any(|s| s.expr.contains_aggregate(&is_agg_name))
        || stmt
            .having
            .as_ref()
            .is_some_and(|h| h.contains_aggregate(&is_agg_name));

    if stmt.is_star() && is_aggregate {
        return Err(EspError::Plan(
            "SELECT * cannot be combined with aggregation".into(),
        ));
    }
    if let Some(w) = &stmt.where_clause {
        if w.contains_aggregate(&is_agg_name) {
            return Err(EspError::Plan(
                "aggregate functions are not allowed in WHERE (use HAVING)".into(),
            ));
        }
    }

    let mut agg_calls: Vec<AggCall> = Vec::new();

    let compile_in = |e: &Expr, allow_aggs: bool, agg_calls: &mut Vec<AggCall>| {
        let mut cx = ExprCompiler {
            catalog,
            agg_calls,
            allow_aggs,
        };
        cx.compile(e)
    };

    // Projection with output names.
    let mut select = Vec::with_capacity(stmt.select.len());
    let mut names_seen: Vec<String> = Vec::new();
    for (i, item) in stmt.select.iter().enumerate() {
        let cexpr = compile_in(&item.expr, is_aggregate, &mut agg_calls)?;
        let base = output_name(item, i);
        let name = dedupe_name(base, &mut names_seen);
        select.push(CSelectItem { expr: cexpr, name });
    }

    let where_clause = match &stmt.where_clause {
        Some(w) => Some(compile_in(w, false, &mut agg_calls)?),
        None => None,
    };
    let mut group_by = Vec::with_capacity(stmt.group_by.len());
    for g in &stmt.group_by {
        // Aggregates inside GROUP BY keys are nonsensical.
        group_by.push(compile_in(g, false, &mut agg_calls)?);
    }
    let having = match &stmt.having {
        Some(h) => Some(compile_in(h, true, &mut agg_calls)?),
        None => None,
    };

    // Output schema for explicit projections.
    let output_schema = if select.is_empty() {
        None
    } else {
        let fields = select
            .iter()
            .map(|item| Field::new(item.name.clone(), infer_type(&item.expr, &agg_calls)))
            .collect();
        Some(registry::intern(&Schema::new(fields)?))
    };

    let bindings: Vec<Option<String>> = from.iter().map(|i| i.binding.clone()).collect();

    Ok(CompiledSelect {
        select,
        from,
        where_clause,
        group_by,
        having,
        is_aggregate,
        agg_calls,
        output_schema,
        bindings,
        plan: None,
    })
}

fn compile_from(item: &FromItem, catalog: &Catalog) -> Result<CFromItem> {
    let binding = item.binding().map(str::to_string);
    let source = match &item.source {
        FromSource::Named(name) => {
            if catalog.relation(name).is_some() {
                if item.window.is_some() {
                    return Err(EspError::Plan(format!(
                        "window clause on static relation '{name}'"
                    )));
                }
                CSource::Relation { name: name.clone() }
            } else {
                let width = item.window.map(|w| w.range).unwrap_or(TimeDelta::ZERO);
                CSource::Stream {
                    name: name.clone(),
                    window: Window::Rows(WindowBuffer::new(width)),
                }
            }
        }
        FromSource::Derived(sub) => {
            if item.window.is_some() {
                return Err(EspError::Plan(
                    "window clause on a derived table is not supported".into(),
                ));
            }
            CSource::Derived(Box::new(compile(sub, catalog)?))
        }
    };
    Ok(CFromItem { binding, source })
}

struct ExprCompiler<'a> {
    catalog: &'a Catalog,
    agg_calls: &'a mut Vec<AggCall>,
    allow_aggs: bool,
}

impl ExprCompiler<'_> {
    fn compile(&mut self, e: &Expr) -> Result<CExpr> {
        Ok(match e {
            Expr::Literal(v) => CExpr::Literal(v.clone()),
            Expr::Field {
                qualifier,
                name,
                span,
            } => CExpr::Field {
                qualifier: qualifier.clone(),
                name: name.clone(),
                span: *span,
                slot: None,
            },
            Expr::Call {
                name,
                distinct,
                args,
                star,
                ..
            } => return self.compile_call(name, *distinct, args, *star),
            Expr::Cmp { lhs, op, rhs } => CExpr::Cmp {
                lhs: Box::new(self.compile(lhs)?),
                op: *op,
                rhs: Box::new(self.compile(rhs)?),
            },
            Expr::QuantifiedCmp {
                lhs,
                op,
                quantifier,
                subquery,
            } => {
                let sub = compile(subquery, self.catalog)?;
                if sub.select.len() != 1 {
                    return Err(EspError::Plan(
                        "quantified subquery must produce exactly one column".into(),
                    ));
                }
                CExpr::Quantified {
                    lhs: Box::new(self.compile(lhs)?),
                    op: *op,
                    quantifier: *quantifier,
                    subquery: Box::new(sub),
                }
            }
            Expr::Arith { lhs, op, rhs } => CExpr::Arith {
                lhs: Box::new(self.compile(lhs)?),
                op: *op,
                rhs: Box::new(self.compile(rhs)?),
            },
            Expr::And(a, b) => CExpr::And(Box::new(self.compile(a)?), Box::new(self.compile(b)?)),
            Expr::Or(a, b) => CExpr::Or(Box::new(self.compile(a)?), Box::new(self.compile(b)?)),
            Expr::Not(x) => CExpr::Not(Box::new(self.compile(x)?)),
            Expr::Neg(x) => CExpr::Neg(Box::new(self.compile(x)?)),
        })
    }

    fn compile_call(
        &mut self,
        name: &str,
        distinct: bool,
        args: &[Expr],
        star: bool,
    ) -> Result<CExpr> {
        let lname = name.to_ascii_lowercase();
        if let Some(factory) = self.catalog.aggregate(&lname) {
            if !self.allow_aggs {
                return Err(EspError::Plan(format!(
                    "aggregate '{lname}' is not allowed in this clause"
                )));
            }
            if star && lname != "count" {
                return Err(EspError::Plan(format!("{lname}(*) is not supported")));
            }
            if !star && args.len() != 1 {
                return Err(EspError::Plan(format!(
                    "aggregate '{lname}' takes exactly one argument"
                )));
            }
            let arg = if star {
                None
            } else {
                // No nested aggregates.
                let mut inner = ExprCompiler {
                    catalog: self.catalog,
                    agg_calls: self.agg_calls,
                    allow_aggs: false,
                };
                Some(inner.compile(&args[0])?)
            };
            let key = match &arg {
                None => format!("{lname}(*)"),
                Some(a) if distinct => format!("{lname}(distinct {a})"),
                Some(a) => format!("{lname}({a})"),
            };
            let idx = match self.agg_calls.iter().position(|c| c.key == key) {
                Some(i) => i,
                None => {
                    self.agg_calls.push(AggCall {
                        key: key.clone(),
                        factory: Arc::clone(factory),
                        distinct,
                        star,
                        arg,
                    });
                    self.agg_calls.len() - 1
                }
            };
            return Ok(CExpr::Agg { idx, key });
        }
        if let Some(func) = self.catalog.scalar(&lname) {
            if distinct || star {
                return Err(EspError::Plan(format!(
                    "modifiers are not valid on scalar function '{lname}'"
                )));
            }
            let mut cargs = Vec::with_capacity(args.len());
            for a in args {
                cargs.push(self.compile(a)?);
            }
            return Ok(CExpr::Scalar {
                name: lname,
                func: Arc::clone(func),
                args: cargs,
            });
        }
        Err(EspError::Plan(format!("unknown function '{lname}'")))
    }
}

/// Output column name for a projection item.
fn output_name(item: &SelectItem, index: usize) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match &item.expr {
        Expr::Field { name, .. } => name.clone(),
        Expr::Call { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{index}"),
    }
}

fn dedupe_name(base: String, seen: &mut Vec<String>) -> String {
    let name = if seen.contains(&base) {
        let mut n = 2;
        loop {
            let candidate = format!("{base}_{n}");
            if !seen.contains(&candidate) {
                break candidate;
            }
            n += 1;
        }
    } else {
        base
    };
    seen.push(name.clone());
    name
}

/// Static type of a compiled projection expression (best-effort;
/// `Any` when input-dependent).
fn infer_type(e: &CExpr, agg_calls: &[AggCall]) -> DataType {
    match e {
        CExpr::Literal(v) => match v {
            Value::Null => DataType::Any,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Ts(_) => DataType::Ts,
        },
        CExpr::Agg { idx, .. } => agg_calls[*idx].factory.result_type(),
        CExpr::Cmp { .. }
        | CExpr::Quantified { .. }
        | CExpr::And(..)
        | CExpr::Or(..)
        | CExpr::Not(_) => DataType::Bool,
        CExpr::Arith {
            op: ArithOp::Div, ..
        } => DataType::Float,
        _ => DataType::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Result<CompiledSelect> {
        compile(&parse(src).unwrap(), &Catalog::new())
    }

    #[test]
    fn aggregate_detection() {
        assert!(
            compile_src("SELECT count(*) FROM s [Range 'NOW']")
                .unwrap()
                .is_aggregate
        );
        assert!(
            compile_src("SELECT x FROM s [Range 'NOW'] GROUP BY x")
                .unwrap()
                .is_aggregate
        );
        assert!(
            !compile_src("SELECT x FROM s [Range 'NOW']")
                .unwrap()
                .is_aggregate
        );
    }

    #[test]
    fn agg_calls_deduplicated() {
        let c =
            compile_src("SELECT count(*), count(*) + 1 FROM s [Range 'NOW'] HAVING count(*) > 1")
                .unwrap();
        assert_eq!(c.agg_calls.len(), 1);
        assert_eq!(c.agg_calls[0].key, "count(*)");
    }

    #[test]
    fn distinct_and_plain_are_separate_calls() {
        let c = compile_src("SELECT count(tag_id), count(distinct tag_id) FROM s [Range 'NOW']")
            .unwrap();
        assert_eq!(c.agg_calls.len(), 2);
    }

    #[test]
    fn output_names_and_dedupe() {
        let c = compile_src(
            "SELECT shelf, count(*), count(distinct tag_id), 1 + 2 FROM s [Range 'NOW'] GROUP BY shelf",
        )
        .unwrap();
        let names: Vec<&str> = c.select.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["shelf", "count", "count_2", "col3"]);
        let schema = c.output_schema.as_ref().unwrap();
        assert_eq!(schema.field("count").unwrap().data_type, DataType::Int);
    }

    #[test]
    fn alias_wins_for_name() {
        let c = compile_src("SELECT avg(temp) AS avg_t FROM s [Range '5 min']").unwrap();
        assert_eq!(c.select[0].name, "avg_t");
        assert_eq!(
            c.output_schema.unwrap().field("avg_t").unwrap().data_type,
            DataType::Float
        );
    }

    #[test]
    fn star_query_has_no_static_schema() {
        let c = compile_src("SELECT * FROM s WHERE temp < 50").unwrap();
        assert!(c.output_schema.is_none());
        assert!(!c.is_aggregate);
    }

    #[test]
    fn rejects_aggregate_in_where() {
        let err = compile_src("SELECT x FROM s WHERE count(*) > 1 GROUP BY x").unwrap_err();
        assert!(err.to_string().contains("WHERE"));
    }

    #[test]
    fn rejects_star_with_group_by() {
        assert!(compile_src("SELECT * FROM s GROUP BY x").is_err());
    }

    #[test]
    fn rejects_unknown_function() {
        let err = compile_src("SELECT frobnicate(x) FROM s").unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn rejects_nested_aggregates() {
        assert!(compile_src("SELECT avg(count(*)) FROM s").is_err());
    }

    #[test]
    fn rejects_multi_column_quantified_subquery() {
        assert!(compile_src(
            "SELECT x FROM s GROUP BY x HAVING count(*) >= ALL(SELECT a, b FROM t)"
        )
        .is_err());
    }

    #[test]
    fn rejects_window_on_relation() {
        let mut catalog = Catalog::new();
        catalog.register_relation("inventory", vec![]);
        let stmt = parse("SELECT * FROM inventory [Range By '5 sec']").unwrap();
        let err = compile(&stmt, &catalog).unwrap_err();
        assert!(err.to_string().contains("static relation"));
    }

    #[test]
    fn stream_names_cover_subqueries() {
        let mut c = compile_src(
            "SELECT spatial_granule, tag_id FROM arbitrate_input ai1 [Range By 'NOW']
             GROUP BY spatial_granule, tag_id
             HAVING count(*) >= ALL(SELECT count(*) FROM arbitrate_input ai2 [Range By 'NOW']
                                    WHERE ai1.tag_id = ai2.tag_id GROUP BY spatial_granule)",
        )
        .unwrap();
        assert_eq!(c.stream_names(), vec!["arbitrate_input".to_string()]);
        // …but two distinct windows exist.
        let mut n = 0;
        c.for_each_window(&mut |_, _| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn missing_window_defaults_to_now() {
        let mut c = compile_src("SELECT * FROM point_input WHERE temp < 50").unwrap();
        let mut widths = Vec::new();
        c.for_each_window(&mut |_, w| widths.push(w.width()));
        assert_eq!(widths, vec![TimeDelta::ZERO]);
    }
}
