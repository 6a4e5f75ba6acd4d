//! Slot resolution and join planning: the "compile once, execute slots"
//! half of the query engine.
//!
//! The interpreter used to resolve every `CExpr::Field` by walking FROM
//! items and comparing binding/field names *per row, per epoch*. This
//! module moves that work to plan time: each field reference is annotated
//! with a [`FieldSlot`] — scope depth, FROM-item index, column index, and
//! the `Arc<Schema>` the indices are valid for. The executor then fetches
//! `row[from_idx].values()[col_idx]` after a single `Arc::ptr_eq` schema
//! check; any mismatch (heterogeneous window, empty representative row of
//! a global group, schema drift) falls back to the original name-walking
//! resolver, so the slot path can never change observable semantics — it
//! can only skip string comparisons that would have succeeded anyway.
//!
//! Resolution happens in two modes:
//!
//! * **Lazy** (every [`tick`](crate::ContinuousQuery::tick)): schemas are
//!   sampled from the first tuple of each window / relation / derived
//!   output. A reference that cannot be proven unique-and-present (unknown
//!   schema anywhere in scope, ambiguity, absence) simply keeps `slot =
//!   None` and resolves by name at runtime, reproducing the interpreter's
//!   errors verbatim. The annotation is cached and revalidated per tick by
//!   pointer-comparing the scope shape — with interned schemas
//!   ([`esp_types::SchemaRegistry`]) this is a handful of pointer
//!   compares per tick.
//! * **Strict** (deploy time, [`crate::Engine::compile_with_schemas`]):
//!   declared schemas are authoritative; unknown or ambiguous references
//!   become span-carrying [`Diagnostic`]s instead of per-row runtime
//!   errors.
//!
//! Join planning rides on the same annotation: a maximal *prefix* of the
//! flattened `WHERE` conjunct list consisting of provably error-free
//! conjuncts is scanned, and every `slotₐ = slotᵦ` equality across two
//! different FROM items becomes a hash-join key (`KeySpec`). The prefix
//! rule preserves the interpreter's error semantics exactly: a conjunct
//! that could raise (arithmetic on strings, a name resolved only at
//! runtime) stops extraction, so no combination that the interpreter
//! would have evaluated — and possibly errored on — is pruned away.

use std::collections::HashMap;
use std::sync::Arc;

use esp_types::{Diagnostic, Schema, Value};

use crate::ast::CmpOp;
use crate::catalog::Catalog;
use crate::compile::{CExpr, CFromItem, CSource, CompiledSelect, Window};

/// A resolved field reference: where the value lives when the row conforms
/// to the schema the plan was built against.
#[derive(Debug, Clone)]
pub struct FieldSlot {
    /// Scope depth: 0 = the select's own rows, 1 = the enclosing query's
    /// rows (correlated reference), and so on up the environment chain.
    pub depth: u32,
    /// FROM-item index within that scope.
    pub from_idx: u32,
    /// Column index within that item's schema.
    pub col_idx: u32,
    /// The schema those indices were resolved against. The executor
    /// accepts the slot only when the tuple's schema is pointer-equal.
    pub schema: Arc<Schema>,
}

/// The shape of one query scope at resolution time: per FROM item, its
/// binding name and its schema if known (`None` = empty window / unknown).
#[derive(Debug, Clone)]
pub(crate) struct ScopeShape {
    pub items: Vec<(Option<String>, Option<Arc<Schema>>)>,
}

impl PartialEq for ScopeShape {
    fn eq(&self, other: &ScopeShape) -> bool {
        self.items.len() == other.items.len()
            && self
                .items
                .iter()
                .zip(&other.items)
                .all(|((ab, asch), (bb, bsch))| {
                    ab == bb
                        && match (asch, bsch) {
                            (None, None) => true,
                            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                            _ => false,
                        }
                })
    }
}

/// One hash-join key for an item: while enumerating item `probe_item`'s
/// candidate rows, the value of `build_col` (on this item) must equal the
/// value of `probe_col` on the already-fixed row of `probe_item`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeySpec {
    pub probe_item: usize,
    pub probe_col: usize,
    pub build_col: usize,
}

/// Join plan extracted from the `WHERE` clause.
#[derive(Debug, Clone, Default)]
pub(crate) struct JoinPlan {
    /// Per FROM item: the hash keys constraining it (empty = free scan).
    pub keys: Vec<Vec<KeySpec>>,
    /// Indices (into the flattened conjunct list) of the extracted
    /// equality conjuncts; the executor evaluates the remaining conjuncts
    /// as residual predicates in their original order.
    pub extracted: Vec<usize>,
}

impl JoinPlan {
    /// True when at least one key was extracted.
    pub fn is_useful(&self) -> bool {
        !self.extracted.is_empty()
    }
}

/// Per-select resolution cache.
#[derive(Debug, Default)]
pub(crate) struct ResolvedPlan {
    /// The scope context (own shape first, then enclosing scopes) the
    /// current annotation was computed for.
    pub ctx: Vec<ScopeShape>,
    /// Hash-join plan, when the WHERE prefix yielded equi-join keys.
    pub join: Option<JoinPlan>,
}

/// How a name resolved against a scope context.
enum Resolution {
    /// Unique, present: use this slot.
    Slot(FieldSlot),
    /// A schema gap (empty window, star-derived table) makes the answer
    /// undecidable — resolve by name at runtime.
    Undecidable,
    /// Provably ambiguous in the scope it first matches.
    Ambiguous { depth: usize },
    /// Provably absent from every scope.
    Unknown,
}

/// Resolve `qualifier.name` against a scope chain (innermost first),
/// mirroring the runtime walk of `exec::resolve_field` exactly: current
/// scope first, ambiguity only among *unqualified* matches within one
/// scope, first match wins for qualified references.
fn resolve_name(ctx: &[ScopeShape], qualifier: Option<&str>, name: &str) -> Resolution {
    for (depth, scope) in ctx.iter().enumerate() {
        match qualifier {
            Some(q) => {
                for (i, (binding, schema)) in scope.items.iter().enumerate() {
                    if binding.as_deref() != Some(q) {
                        continue;
                    }
                    let Some(schema) = schema else {
                        return Resolution::Undecidable;
                    };
                    if let Some(col) = schema.index_of(name) {
                        return Resolution::Slot(FieldSlot {
                            depth: depth as u32,
                            from_idx: i as u32,
                            col_idx: col as u32,
                            schema: Arc::clone(schema),
                        });
                    }
                }
            }
            None => {
                let mut found: Option<FieldSlot> = None;
                for (i, (_, schema)) in scope.items.iter().enumerate() {
                    let Some(schema) = schema else {
                        // An unknown sibling could hold (or duplicate) the
                        // name; the static answer is undecidable.
                        return Resolution::Undecidable;
                    };
                    if let Some(col) = schema.index_of(name) {
                        if found.is_some() {
                            return Resolution::Ambiguous { depth };
                        }
                        found = Some(FieldSlot {
                            depth: depth as u32,
                            from_idx: i as u32,
                            col_idx: col as u32,
                            schema: Arc::clone(schema),
                        });
                    }
                }
                if let Some(slot) = found {
                    return Resolution::Slot(slot);
                }
            }
        }
    }
    Resolution::Unknown
}

/// Resolution mode: how to report names that fail to resolve.
#[derive(Clone, Copy)]
pub(crate) enum Mode<'a> {
    /// Keep `slot = None` and let the runtime walk reproduce the
    /// interpreter's behaviour (error / correlated lookup / NULL on the
    /// empty global group).
    Lazy,
    /// The given stream schemas are authoritative: unknown/ambiguous
    /// references become diagnostics. Schema *gaps* (streams without a
    /// declared schema and no buffered rows) still resolve lazily.
    Strict(&'a HashMap<String, Arc<Schema>>),
}

/// Annotate every field reference in `cs` (and its subqueries) with slots
/// valid for the given outer scopes, and extract the join plan.
///
/// Cheap when nothing changed: the computed scope context is compared
/// pointer-wise against the cached one and re-annotation is skipped.
/// Returns diagnostics in [`Mode::Strict`] (always empty in lazy mode).
pub(crate) fn resolve_pass(
    cs: &mut CompiledSelect,
    outer: &[ScopeShape],
    catalog: &Catalog,
    mode: Mode<'_>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Derived tables resolve first (they see only the *outer* scopes, not
    // this select's rows — `materialize_from` evaluates them with the
    // parent's outer environment).
    for item in &mut cs.from {
        if let CSource::Derived(sub) = &mut item.source {
            diags.extend(resolve_pass(sub, outer, catalog, mode));
        }
    }

    let shape = scope_shape(&cs.from, catalog, mode);
    let mut ctx = Vec::with_capacity(outer.len() + 1);
    ctx.push(shape);
    ctx.extend_from_slice(outer);

    let unchanged = cs
        .plan
        .as_ref()
        .is_some_and(|p| p.ctx.len() == ctx.len() && p.ctx.iter().zip(&ctx).all(|(a, b)| a == b));
    if !unchanged {
        let annotate = &mut |e: &mut CExpr| annotate_expr(e, &ctx, mode, &mut diags);
        for item in &mut cs.select {
            annotate(&mut item.expr);
        }
        if let Some(w) = &mut cs.where_clause {
            annotate(w);
        }
        for g in &mut cs.group_by {
            annotate(g);
        }
        if let Some(h) = &mut cs.having {
            annotate(h);
        }
        for call in &mut cs.agg_calls {
            if let Some(arg) = &mut call.arg {
                annotate(arg);
            }
        }
        let join = cs
            .where_clause
            .as_ref()
            .map(|w| extract_join(w, cs.from.len()))
            .filter(JoinPlan::is_useful);
        cs.plan = Some(ResolvedPlan {
            ctx: ctx.clone(),
            join,
        });
    }

    // Expression subqueries (quantified comparisons) see this select's
    // rows as their first enclosing scope; recurse with the full context.
    // Their own windows may have changed even when ours did not, so this
    // recursion is unconditional.
    let mut sub_diags = Vec::new();
    {
        let visit = &mut |sub: &mut CompiledSelect| {
            sub_diags.extend(resolve_pass(sub, &ctx, catalog, mode));
        };
        for item in &mut cs.select {
            item.expr.for_each_subquery_mut(visit);
        }
        if let Some(w) = &mut cs.where_clause {
            w.for_each_subquery_mut(visit);
        }
        for g in &mut cs.group_by {
            g.for_each_subquery_mut(visit);
        }
        if let Some(h) = &mut cs.having {
            h.for_each_subquery_mut(visit);
        }
        for call in &mut cs.agg_calls {
            if let Some(arg) = &mut call.arg {
                arg.for_each_subquery_mut(visit);
            }
        }
    }
    diags.extend(sub_diags);
    diags
}

/// Strip every slot annotation and cached plan from `cs` (recursively),
/// returning the query to pure name-resolving interpretation. Used by the
/// engine's *reference mode* so benchmarks can compare the compiled path
/// against the original interpreter in the same process.
pub(crate) fn clear_resolution(cs: &mut CompiledSelect) {
    cs.plan = None;
    for item in &mut cs.from {
        if let CSource::Derived(sub) = &mut item.source {
            clear_resolution(sub);
        }
    }
    for item in &mut cs.select {
        clear_expr(&mut item.expr);
    }
    if let Some(w) = &mut cs.where_clause {
        clear_expr(w);
    }
    for g in &mut cs.group_by {
        clear_expr(g);
    }
    if let Some(h) = &mut cs.having {
        clear_expr(h);
    }
    for call in &mut cs.agg_calls {
        if let Some(arg) = &mut call.arg {
            clear_expr(arg);
        }
    }
}

fn clear_expr(e: &mut CExpr) {
    match e {
        CExpr::Field { slot, .. } => *slot = None,
        CExpr::Literal(_) | CExpr::Agg { .. } => {}
        CExpr::Scalar { args, .. } => args.iter_mut().for_each(clear_expr),
        CExpr::Cmp { lhs, rhs, .. } | CExpr::Arith { lhs, rhs, .. } => {
            clear_expr(lhs);
            clear_expr(rhs);
        }
        CExpr::Quantified { lhs, subquery, .. } => {
            clear_expr(lhs);
            clear_resolution(subquery);
        }
        CExpr::And(a, b) | CExpr::Or(a, b) => {
            clear_expr(a);
            clear_expr(b);
        }
        CExpr::Not(x) | CExpr::Neg(x) => clear_expr(x),
    }
}

/// Sample the current schema of every FROM item. In strict mode, streams
/// with no buffered rows fall back to their declared schema.
fn scope_shape(from: &[CFromItem], catalog: &Catalog, mode: Mode<'_>) -> ScopeShape {
    let items = from
        .iter()
        .map(|item| {
            let schema = match &item.source {
                CSource::Stream { name, window } => {
                    let sampled = match window {
                        Window::Rows(w) => w.sample_schema(),
                        Window::Panes(p) => p.input_schema(),
                    };
                    sampled.cloned().or_else(|| match mode {
                        Mode::Strict(declared) => declared.get(name).cloned(),
                        Mode::Lazy => None,
                    })
                }
                CSource::Relation { name } => catalog
                    .relation(name)
                    .and_then(|r| r.first())
                    .map(|t| Arc::clone(t.schema())),
                CSource::Derived(sub) => sub.output_schema.clone(),
            };
            (item.binding.clone(), schema)
        })
        .collect();
    ScopeShape { items }
}

fn annotate_expr(e: &mut CExpr, ctx: &[ScopeShape], mode: Mode<'_>, diags: &mut Vec<Diagnostic>) {
    match e {
        CExpr::Field {
            qualifier,
            name,
            span,
            slot,
        } => {
            *slot = match resolve_name(ctx, qualifier.as_deref(), name) {
                Resolution::Slot(s) => Some(s),
                Resolution::Undecidable => None,
                Resolution::Ambiguous { depth } => {
                    if matches!(mode, Mode::Strict(_)) && depth == 0 {
                        diags.push(
                            Diagnostic::error(
                                "E0101",
                                format!("ambiguous field reference '{name}' (qualify it)"),
                            )
                            .with_span(*span),
                        );
                    }
                    None
                }
                Resolution::Unknown => {
                    if matches!(mode, Mode::Strict(_)) {
                        let shown = match qualifier {
                            Some(q) => format!("{q}.{name}"),
                            None => name.clone(),
                        };
                        diags.push(
                            Diagnostic::error(
                                "E0101",
                                format!("unknown field '{shown}' in this scope"),
                            )
                            .with_span(*span),
                        );
                    }
                    None
                }
            };
        }
        CExpr::Literal(_) | CExpr::Agg { .. } => {}
        CExpr::Scalar { args, .. } => {
            for a in args {
                annotate_expr(a, ctx, mode, diags);
            }
        }
        CExpr::Cmp { lhs, rhs, .. } | CExpr::Arith { lhs, rhs, .. } => {
            annotate_expr(lhs, ctx, mode, diags);
            annotate_expr(rhs, ctx, mode, diags);
        }
        // The subquery body resolves in its own scope (handled by the
        // recursion in `resolve_pass`); only the left operand is ours.
        CExpr::Quantified { lhs, .. } => annotate_expr(lhs, ctx, mode, diags),
        CExpr::And(a, b) | CExpr::Or(a, b) => {
            annotate_expr(a, ctx, mode, diags);
            annotate_expr(b, ctx, mode, diags);
        }
        CExpr::Not(x) | CExpr::Neg(x) => annotate_expr(x, ctx, mode, diags),
    }
}

/// Flatten a conjunction tree into its conjuncts in evaluation order.
pub(crate) fn flatten_conjuncts<'a>(e: &'a CExpr, out: &mut Vec<&'a CExpr>) {
    match e {
        CExpr::And(a, b) => {
            flatten_conjuncts(a, out);
            flatten_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// A depth-0 slot on an annotated field, if present.
fn own_slot(e: &CExpr) -> Option<&FieldSlot> {
    match e {
        CExpr::Field { slot: Some(s), .. } if s.depth == 0 => Some(s),
        _ => None,
    }
}

/// True when evaluating `e` can never raise an error, *given* that every
/// input row conforms to the planned schemas (the executor checks this
/// before taking the hash path). Comparisons never error; arithmetic and
/// scalar calls can (type errors), so they are excluded.
fn is_error_free(e: &CExpr) -> bool {
    match e {
        CExpr::Literal(_) => true,
        CExpr::Field { slot, .. } => matches!(slot, Some(s) if s.depth == 0),
        CExpr::Cmp { lhs, rhs, .. } => is_error_free(lhs) && is_error_free(rhs),
        CExpr::And(a, b) | CExpr::Or(a, b) => is_error_free(a) && is_error_free(b),
        CExpr::Not(x) => is_error_free(x),
        _ => false,
    }
}

/// Scan the conjunct prefix for `slot = slot` equalities across two
/// different FROM items. Extraction stops at the first conjunct that
/// could raise an error at runtime: pruning a combination the interpreter
/// would have evaluated *before* that conjunct would otherwise suppress
/// the error.
fn extract_join(where_clause: &CExpr, n_items: usize) -> JoinPlan {
    let mut conjuncts = Vec::new();
    flatten_conjuncts(where_clause, &mut conjuncts);
    let mut plan = JoinPlan {
        keys: vec![Vec::new(); n_items],
        extracted: Vec::new(),
    };
    for (ci, c) in conjuncts.iter().enumerate() {
        if let CExpr::Cmp {
            lhs,
            op: CmpOp::Eq,
            rhs,
        } = c
        {
            if let (Some(a), Some(b)) = (own_slot(lhs), own_slot(rhs)) {
                if a.from_idx != b.from_idx {
                    // Constrain the *later* item: when it is enumerated,
                    // the earlier item's row is already fixed.
                    let (probe, build) = if a.from_idx < b.from_idx {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    plan.keys[build.from_idx as usize].push(KeySpec {
                        probe_item: probe.from_idx as usize,
                        probe_col: probe.col_idx as usize,
                        build_col: build.col_idx as usize,
                    });
                    plan.extracted.push(ci);
                    continue;
                }
            }
        }
        if !is_error_free(c) {
            break;
        }
    }
    plan
}

/// Hash-join key for one value, normalized to match `Value::sql_cmp`'s
/// equality classes exactly:
///
/// * `Null` never equals anything (excluded: `None`);
/// * booleans and strings only equal their own kind;
/// * ints, floats, and timestamps compare numerically through `as_f64`,
///   so they share one numeric key (`-0.0` folded into `0.0`); `NaN`
///   equals nothing and is excluded.
///
/// This is deliberately *not* [`esp_types::ValueKey`]: GROUP BY
/// distinguishes `Int(1)` from `Float(1.0)` (distinct groups), while
/// `=` treats them as equal — two different equivalence relations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum JoinKey {
    /// Boolean key.
    Bool(bool),
    /// String key.
    Str(Arc<str>),
    /// Numeric key: normalized `f64` bits.
    Num(u64),
}

/// The join key of a value, or `None` when the value can never compare
/// equal to anything (`NULL`, `NaN`) and the row must not participate.
pub(crate) fn join_key(v: &Value) -> Option<JoinKey> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(JoinKey::Bool(*b)),
        Value::Str(s) => Some(JoinKey::Str(Arc::clone(s))),
        _ => v.as_f64().and_then(|f| {
            if f.is_nan() {
                None
            } else if f == 0.0 {
                Some(JoinKey::Num(0.0f64.to_bits()))
            } else {
                Some(JoinKey::Num(f.to_bits()))
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;
    use esp_types::{DataType, Ts, Tuple};

    fn shape_of(specs: &[(&str, &[&str])]) -> ScopeShape {
        ScopeShape {
            items: specs
                .iter()
                .map(|(binding, cols)| {
                    let mut b = Schema::builder();
                    for c in *cols {
                        b = b.field(*c, DataType::Int);
                    }
                    (
                        (!binding.is_empty()).then(|| binding.to_string()),
                        Some(b.build().unwrap()),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn unqualified_unique_resolves_to_slot() {
        let ctx = vec![shape_of(&[("a", &["x", "y"]), ("b", &["z"])])];
        match resolve_name(&ctx, None, "y") {
            Resolution::Slot(s) => {
                assert_eq!((s.depth, s.from_idx, s.col_idx), (0, 0, 1));
            }
            _ => panic!("expected slot"),
        }
        match resolve_name(&ctx, None, "z") {
            Resolution::Slot(s) => assert_eq!((s.from_idx, s.col_idx), (1, 0)),
            _ => panic!("expected slot"),
        }
    }

    #[test]
    fn duplicate_unqualified_is_ambiguous() {
        let ctx = vec![shape_of(&[("a", &["x"]), ("b", &["x"])])];
        assert!(matches!(
            resolve_name(&ctx, None, "x"),
            Resolution::Ambiguous { depth: 0 }
        ));
        // Qualification disambiguates.
        match resolve_name(&ctx, Some("b"), "x") {
            Resolution::Slot(s) => assert_eq!(s.from_idx, 1),
            _ => panic!("expected slot"),
        }
    }

    #[test]
    fn outer_scope_resolves_at_depth_one() {
        let ctx = vec![
            shape_of(&[("inner", &["k"])]),
            shape_of(&[("outer_t", &["k", "v"])]),
        ];
        match resolve_name(&ctx, Some("outer_t"), "v") {
            Resolution::Slot(s) => assert_eq!((s.depth, s.from_idx, s.col_idx), (1, 0, 1)),
            _ => panic!("expected slot"),
        }
        // Inner scope shadows for unqualified names present in both.
        match resolve_name(&ctx, None, "k") {
            Resolution::Slot(s) => assert_eq!(s.depth, 0),
            _ => panic!("expected slot"),
        }
    }

    #[test]
    fn unknown_schema_makes_resolution_undecidable() {
        let mut shape = shape_of(&[("a", &["x"])]);
        shape.items.push(("b".to_string().into(), None));
        let ctx = vec![shape];
        assert!(matches!(
            resolve_name(&ctx, None, "x"),
            Resolution::Undecidable
        ));
        assert!(matches!(
            resolve_name(&ctx, Some("b"), "x"),
            Resolution::Undecidable
        ));
        // A qualified reference to the *known* item is still decidable.
        assert!(matches!(
            resolve_name(&ctx, Some("a"), "x"),
            Resolution::Slot(_)
        ));
    }

    #[test]
    fn absent_everywhere_is_unknown() {
        let ctx = vec![shape_of(&[("a", &["x"])])];
        assert!(matches!(
            resolve_name(&ctx, None, "nope"),
            Resolution::Unknown
        ));
        assert!(matches!(
            resolve_name(&ctx, Some("a"), "nope"),
            Resolution::Unknown
        ));
    }

    #[test]
    fn join_keys_match_sql_eq_classes() {
        assert_eq!(join_key(&Value::Null), None);
        assert_eq!(join_key(&Value::Float(f64::NAN)), None);
        assert_eq!(join_key(&Value::Int(1)), join_key(&Value::Float(1.0)));
        assert_eq!(
            join_key(&Value::Ts(Ts::from_millis(1))),
            join_key(&Value::Int(1))
        );
        assert_eq!(join_key(&Value::Float(0.0)), join_key(&Value::Float(-0.0)));
        assert_ne!(join_key(&Value::Bool(true)), join_key(&Value::Int(1)));
        assert_ne!(join_key(&Value::str("1")), join_key(&Value::Int(1)));
    }

    fn planned(sql: &str, schemas: &[(&str, &[(&str, DataType)])]) -> CompiledSelect {
        let catalog = Catalog::new();
        let mut cs = compile(&parse(sql).unwrap(), &catalog).unwrap();
        // Push one tuple per stream so lazy resolution sees a schema.
        cs.for_each_window(&mut |name, w| {
            if let Some((_, fields)) = schemas.iter().find(|(n, _)| *n == name) {
                let mut b = Schema::builder();
                for (f, t) in *fields {
                    b = b.field(*f, *t);
                }
                let schema = esp_types::registry::intern(&b.build().unwrap());
                let vals = fields.iter().map(|_| Value::Int(0)).collect();
                w.rows_mut()
                    .unwrap()
                    .push(Tuple::new_unchecked(schema, Ts::ZERO, vals));
            }
        });
        let diags = resolve_pass(&mut cs, &[], &catalog, Mode::Lazy);
        assert!(diags.is_empty());
        cs
    }

    #[test]
    fn equi_join_prefix_is_extracted() {
        let cs = planned(
            "SELECT a.x FROM s a [Range 'NOW'], t b [Range 'NOW'] \
             WHERE a.x = b.y AND a.x + b.y > 3",
            &[
                ("s", &[("x", DataType::Int)]),
                ("t", &[("y", DataType::Int)]),
            ],
        );
        let plan = cs.plan.as_ref().unwrap();
        let join = plan.join.as_ref().expect("join extracted");
        assert_eq!(join.extracted, vec![0]);
        assert!(join.keys[0].is_empty());
        assert_eq!(join.keys[1].len(), 1);
        let k = join.keys[1][0];
        assert_eq!((k.probe_item, k.probe_col, k.build_col), (0, 0, 0));
    }

    #[test]
    fn erroring_conjunct_stops_extraction() {
        // The arithmetic conjunct can type-error, so the key *after* it
        // must not prune combinations the interpreter would evaluate.
        let cs = planned(
            "SELECT a.x FROM s a [Range 'NOW'], t b [Range 'NOW'] \
             WHERE a.x + b.y > 3 AND a.x = b.y",
            &[
                ("s", &[("x", DataType::Int)]),
                ("t", &[("y", DataType::Int)]),
            ],
        );
        assert!(cs.plan.as_ref().unwrap().join.is_none());
    }

    #[test]
    fn same_item_equality_is_not_a_join_key() {
        let cs = planned(
            "SELECT a.x FROM s a [Range 'NOW'], t b [Range 'NOW'] WHERE a.x = a.y",
            &[
                ("s", &[("x", DataType::Int), ("y", DataType::Int)]),
                ("t", &[("z", DataType::Int)]),
            ],
        );
        assert!(cs.plan.as_ref().unwrap().join.is_none());
    }

    #[test]
    fn plan_is_cached_until_schemas_change() {
        let catalog = Catalog::new();
        let mut cs = compile(&parse("SELECT x FROM s [Range '5 sec']").unwrap(), &catalog).unwrap();
        let schema = esp_types::registry::intern(
            &Schema::builder().field("x", DataType::Int).build().unwrap(),
        );
        cs.for_each_window(&mut |_, w| {
            w.rows_mut().unwrap().push(Tuple::new_unchecked(
                Arc::clone(&schema),
                Ts::ZERO,
                vec![Value::Int(1)],
            ))
        });
        resolve_pass(&mut cs, &[], &catalog, Mode::Lazy);
        let ctx_before = cs.plan.as_ref().unwrap().ctx.clone();
        // Same schema pointer next tick: the cached context compares equal.
        resolve_pass(&mut cs, &[], &catalog, Mode::Lazy);
        let plan = cs.plan.as_ref().unwrap();
        assert_eq!(plan.ctx.len(), ctx_before.len());
        assert!(plan.ctx.iter().zip(&ctx_before).all(|(a, b)| a == b));
    }
}
