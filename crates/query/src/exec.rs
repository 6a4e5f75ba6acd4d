//! Per-epoch evaluation of a [`CompiledSelect`] over window contents.
//!
//! Each tick, the engine evaluates the compiled statement as a one-shot
//! relational query over the current contents of every window (CQL's
//! "relation at time t" semantics; the emitted rows are the `RSTREAM` of
//! the windowed query at the epoch). Grouped queries fold the paper's
//! aggregates per group; `HAVING` may contain correlated quantified
//! subqueries (paper Query 3), which re-evaluate the subquery once per
//! group with the group's representative row bound as the outer scope.
//! Pane-incremental selects never get here: [`crate::incremental`] folds
//! their arrivals and emits their groups.
//!
//! # Execution strategy
//!
//! There is one rescan. Each evaluation of a select reads every FROM item
//! as a slice of tuples: a window's rows are materialized from its column
//! segments ([`esp_stream::WindowBuffer::to_vec`]), a derived table's
//! output is materialized, and a static relation is borrowed. A root
//! select is evaluated once per tick; a correlated subquery once per outer
//! group, so its window is materialized once per outer group. Join + WHERE (hash
//! join or odometer scan) yields the surviving combinations; grouping,
//! aggregate folds, `HAVING` and projection then run over them in row
//! order. Reference mode runs this same path with every slot stripped.
//!
//! Field references annotated with a [`FieldSlot`] by
//! `plan::resolve_pass` are fetched by `(scope, item, column)`
//! index after a single `Arc::ptr_eq` schema check. The check fails — and
//! evaluation falls back to the original name-resolving walk
//! (`resolve_field`) — whenever the tuple at hand doesn't match the
//! planned schema, or any scope on the way to the slot's is not *uniform*
//! (some tuple differs from the planned shape, which could change name
//! visibility or ambiguity). The fallback path is byte-for-byte the
//! pre-slot interpreter, so every corner case (heterogeneous windows,
//! correlated lookups, the NULL representative of an empty global group,
//! ambiguity and unknown-field errors) behaves exactly as before.
//!
//! Joins run as hash joins when the planner extracted equi-key conjuncts
//! (and the inputs are uniform): keyed items are hashed on their
//! `JoinKey`s once, and the cross-product enumeration only visits
//! combinations whose keys match, in the same lexicographic order the
//! nested-loop scan would have produced. Residual predicates evaluate in
//! their original conjunct order. Without an extracted plan the original
//! odometer nested-loop scan runs unchanged.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use esp_types::{registry, Chunk, ChunkView, EspError, Result, Schema, Ts, Tuple, Value, ValueKey};

use crate::ast::{ArithOp, Quantifier};
use crate::catalog::Catalog;
use crate::compile::{AggCall, CExpr, CFromItem, CSource, CompiledSelect, Window};
use crate::plan::{flatten_conjuncts, join_key, FieldSlot, JoinKey, JoinPlan, KeySpec};

/// Liveness-driven column pruning: every chunk entering a window loses
/// the columns outside the query's read set
/// ([`crate::ContinuousQuery::read_columns`]; `None` — a `SELECT *`
/// somewhere — keeps everything). A dead column's storage is replaced by
/// [`esp_types::ColumnVec::Pruned`], which holds no values and reads back
/// NULL for every row; the schema `Arc` (and therefore the interned-schema
/// identity the slot path keys on), column indices and timestamps are
/// untouched, so slot plans stay valid and output is byte-identical while
/// unread payloads stop being retained in window state.
///
/// The name-to-liveness decision is made once per distinct input schema
/// and cached as the list of dead column indices; the per-chunk path is a
/// pointer comparison (schemas are interned, so identity is stable across
/// batches) with a structural fallback, and does no string lookups.
pub(crate) struct ColumnPruner {
    keep: Option<std::collections::BTreeSet<String>>,
    /// `(schema, dead column indices)` per distinct schema seen. Holding
    /// the `Arc` keeps the identity from being reused by another schema.
    dead: Vec<(Arc<Schema>, Vec<usize>)>,
}

impl ColumnPruner {
    pub(crate) fn new(keep: Option<std::collections::BTreeSet<String>>) -> ColumnPruner {
        ColumnPruner {
            keep,
            dead: Vec::new(),
        }
    }

    pub(crate) fn prune_chunk(&mut self, chunk: &mut Chunk) {
        let Some(keep) = &self.keep else {
            return;
        };
        let schema = chunk.schema();
        let cached = self
            .dead
            .iter()
            .position(|(s, _)| Arc::ptr_eq(s, schema) || **s == **schema);
        let i = cached.unwrap_or_else(|| {
            let dead = (0..schema.fields().len())
                .filter(|&c| !keep.contains(&schema.fields()[c].name))
                .collect();
            self.dead.push((Arc::clone(schema), dead));
            self.dead.len() - 1
        });
        for &c in &self.dead[i].1 {
            chunk.drop_column(c);
        }
    }
}

/// Evaluation context shared by a whole tick.
pub struct ExecCtx<'a> {
    /// The catalog (static relations, UDFs).
    pub catalog: &'a Catalog,
    /// The epoch being evaluated; derived-table tuples are stamped with it.
    pub epoch: Ts,
}

/// Lexical environment for one candidate row, with a chain to outer query
/// scopes for correlated subqueries.
pub struct RowEnv<'a> {
    /// Binding name of each FROM item (aligned with `row`).
    bindings: &'a [Option<String>],
    /// One tuple per FROM item. Empty for the global group of an empty
    /// aggregate input (field references then evaluate to NULL).
    row: &'a [&'a Tuple],
    /// Aggregate values for the enclosing group, aligned with the
    /// select's `agg_calls`.
    aggs: Option<&'a [Value]>,
    /// Enclosing query scope, for correlated references.
    outer: Option<&'a RowEnv<'a>>,
    /// Whether every input row of this scope matches the planned schemas
    /// (pointer-equal). Slots may only be trusted through uniform scopes;
    /// otherwise a tuple the planner never saw could shadow or
    /// disambiguate differently than the plan assumed.
    slots_valid: bool,
}

impl<'a> RowEnv<'a> {
    /// The environment of one row of a single-item select with no outer
    /// scope (`row` empty for the representative of an empty group), with
    /// the group's aggregate values once they are known.
    pub(crate) fn single(
        bindings: &'a [Option<String>],
        row: &'a [&'a Tuple],
        aggs: Option<&'a [Value]>,
    ) -> RowEnv<'a> {
        RowEnv {
            bindings,
            row,
            aggs,
            outer: None,
            slots_valid: true,
        }
    }
}

/// The result of evaluating a select: output schema plus rows.
#[derive(Debug)]
pub struct SelectResult {
    /// Schema of the produced rows.
    pub schema: Arc<Schema>,
    /// Row values (aligned with `schema`).
    pub rows: Vec<Vec<Value>>,
    /// Groups an aggregate select formed, before `HAVING`; 0 for a
    /// non-aggregate select.
    pub groups: usize,
}

impl SelectResult {
    fn ungrouped(schema: Arc<Schema>, rows: Vec<Vec<Value>>) -> SelectResult {
        SelectResult {
            schema,
            rows,
            groups: 0,
        }
    }

    /// Materialize the result rows as tuples stamped with `epoch` — the
    /// single tuple-materialization path shared by derived tables and the
    /// engine's per-tick emission.
    pub fn into_batch(self, epoch: Ts) -> Vec<Tuple> {
        let schema = self.schema;
        self.rows
            .into_iter()
            .map(|vals| Tuple::new_unchecked(Arc::clone(&schema), epoch, vals))
            .collect()
    }

    /// Materialize the result as one columnar chunk stamped with `epoch`.
    pub fn into_chunk(self, epoch: Ts) -> Result<Chunk> {
        let schema = registry::intern(&self.schema);
        let mut chunk = Chunk::with_capacity(&schema, self.rows.len());
        for vals in self.rows {
            chunk.push_row_owned(epoch, vals)?;
        }
        Ok(chunk)
    }
}

/// Evaluate `cs` over its current window contents.
pub fn eval_select(
    cs: &CompiledSelect,
    outer: Option<&RowEnv<'_>>,
    ctx: &ExecCtx<'_>,
) -> Result<SelectResult> {
    // 1. Read each FROM item's rows.
    let mut inputs: Vec<Cow<'_, [Tuple]>> = Vec::with_capacity(cs.from.len());
    for item in &cs.from {
        inputs.push(materialize_from(item, outer, ctx)?);
    }
    let bindings = &cs.bindings;
    // Slots are only trusted when every row of every item matches the
    // planned schemas; a single stray tuple disables the fast path for
    // the whole tick (correctness first — the name walk still works).
    let uniform = plan_matches_inputs(cs, &inputs);

    // 2. Join + WHERE.
    let mut surviving: Vec<Vec<&Tuple>> = Vec::new();
    let any_empty = inputs.iter().any(|rows| rows.is_empty());
    if !any_empty && !inputs.is_empty() {
        let join = cs
            .plan
            .as_ref()
            .and_then(|p| p.join.as_ref())
            .filter(|_| uniform);
        match join {
            Some(jp) => {
                HashJoin::build(cs, jp, &inputs)?.run(outer, ctx, &mut surviving)?;
            }
            None => {
                // Nested-loop cross product (odometer): item 0 is the
                // slowest-varying index, the last item the fastest.
                let mut odometer = vec![0usize; inputs.len()];
                'outer: loop {
                    let mut row: Vec<&Tuple> = Vec::with_capacity(inputs.len());
                    for (i, &j) in odometer.iter().enumerate() {
                        match inputs[i].get(j) {
                            Some(t) => row.push(t),
                            None => break 'outer,
                        }
                    }
                    let env = RowEnv {
                        bindings,
                        row: &row,
                        aggs: None,
                        outer,
                        slots_valid: uniform,
                    };
                    let keep = match &cs.where_clause {
                        Some(w) => eval_expr(w, &env, ctx)?.truthy(),
                        None => true,
                    };
                    if keep {
                        surviving.push(row);
                    }
                    // Advance odometer.
                    for i in (0..odometer.len()).rev() {
                        odometer[i] += 1;
                        if odometer[i] < inputs[i].len() {
                            continue 'outer;
                        }
                        odometer[i] = 0;
                        if i == 0 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }

    // 3. Project.
    if cs.is_aggregate {
        eval_grouped(cs, bindings, &surviving, outer, uniform, ctx)
    } else if cs.select.is_empty() {
        eval_star(cs, bindings, &surviving)
    } else {
        let schema = cs.output_schema.clone().ok_or_else(|| {
            EspError::Plan("explicit projection compiled without an output schema".into())
        })?;
        let mut rows = Vec::with_capacity(surviving.len());
        for row in &surviving {
            let env = RowEnv {
                bindings,
                row,
                aggs: None,
                outer,
                slots_valid: uniform,
            };
            let mut out = Vec::with_capacity(cs.select.len());
            for item in &cs.select {
                out.push(eval_expr(&item.expr, &env, ctx)?);
            }
            rows.push(out);
        }
        Ok(SelectResult::ungrouped(schema, rows))
    }
}

/// Whether every input row matches the planned depth-0 scope shape
/// (pointer-equal schemas). `false` when no plan has been resolved.
fn plan_matches_inputs(cs: &CompiledSelect, inputs: &[Cow<'_, [Tuple]>]) -> bool {
    let Some(plan) = &cs.plan else { return false };
    let Some(shape) = plan.ctx.first() else {
        return false;
    };
    if shape.items.len() != inputs.len() {
        return false;
    }
    shape
        .items
        .iter()
        .zip(inputs)
        .all(|((_, schema), rows)| match schema {
            Some(s) => rows.iter().all(|t| Arc::ptr_eq(t.schema(), s)),
            None => rows.is_empty(),
        })
}

/// Hash-join enumeration state: per-item hash tables over the extracted
/// equi-keys, plus the residual predicate list.
struct HashJoin<'q, 't> {
    bindings: &'q [Option<String>],
    keys: &'q [Vec<KeySpec>],
    /// `Some(table)` for keyed items: join-key → row indices, in row order
    /// (insertion order preserves the nested-loop emission order).
    tables: Vec<Option<HashMap<Vec<JoinKey>, Vec<usize>>>>,
    /// Non-extracted conjuncts, in original evaluation order.
    residual: Vec<&'q CExpr>,
    inputs: &'t [Cow<'t, [Tuple]>],
}

impl<'q, 't> HashJoin<'q, 't> {
    fn build(
        cs: &'q CompiledSelect,
        plan: &'q JoinPlan,
        inputs: &'t [Cow<'t, [Tuple]>],
    ) -> Result<HashJoin<'q, 't>> {
        let mut conjuncts = Vec::new();
        if let Some(w) = &cs.where_clause {
            flatten_conjuncts(w, &mut conjuncts);
        }
        let residual: Vec<&CExpr> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| !plan.extracted.contains(i))
            .map(|(_, c)| *c)
            .collect();

        let mut tables = Vec::with_capacity(inputs.len());
        for (i, rows) in inputs.iter().enumerate() {
            if plan.keys.get(i).is_none_or(Vec::is_empty) {
                tables.push(None);
                continue;
            }
            let specs = &plan.keys[i];
            let mut map: HashMap<Vec<JoinKey>, Vec<usize>> = HashMap::with_capacity(rows.len());
            'rows: for (ri, t) in rows.iter().enumerate() {
                let mut key = Vec::with_capacity(specs.len());
                for spec in specs {
                    match t.values().get(spec.build_col).and_then(join_key) {
                        Some(k) => key.push(k),
                        // NULL / NaN keys never compare equal: the row
                        // cannot survive the extracted conjunct.
                        None => continue 'rows,
                    }
                }
                map.entry(key).or_default().push(ri);
            }
            tables.push(Some(map));
        }
        Ok(HashJoin {
            bindings: &cs.bindings,
            keys: &plan.keys,
            tables,
            residual,
            inputs,
        })
    }

    fn run(
        &self,
        outer: Option<&RowEnv<'_>>,
        ctx: &ExecCtx<'_>,
        surviving: &mut Vec<Vec<&'t Tuple>>,
    ) -> Result<()> {
        let mut fixed: Vec<&'t Tuple> = Vec::with_capacity(self.inputs.len());
        self.descend(0, &mut fixed, outer, ctx, surviving)
    }

    /// Depth-first enumeration, item 0 outermost — the same lexicographic
    /// order as the odometer scan, minus key-mismatched combinations.
    fn descend(
        &self,
        item: usize,
        fixed: &mut Vec<&'t Tuple>,
        outer: Option<&RowEnv<'_>>,
        ctx: &ExecCtx<'_>,
        surviving: &mut Vec<Vec<&'t Tuple>>,
    ) -> Result<()> {
        if item == self.inputs.len() {
            // Extracted keys already hold; evaluate the residual
            // conjuncts in their original order (short-circuit on false,
            // propagating errors exactly as the full scan would).
            let env = RowEnv {
                bindings: self.bindings,
                row: fixed,
                aggs: None,
                outer,
                // The hash path only runs when inputs are uniform.
                slots_valid: true,
            };
            for c in &self.residual {
                if !eval_expr(c, &env, ctx)?.truthy() {
                    return Ok(());
                }
            }
            surviving.push(fixed.clone());
            return Ok(());
        }
        match &self.tables[item] {
            None => {
                for t in self.inputs[item].iter() {
                    fixed.push(t);
                    self.descend(item + 1, fixed, outer, ctx, surviving)?;
                    fixed.pop();
                }
            }
            Some(table) => {
                let specs = &self.keys[item];
                let mut key = Vec::with_capacity(specs.len());
                for spec in specs {
                    let probe = fixed
                        .get(spec.probe_item)
                        .and_then(|t| t.values().get(spec.probe_col))
                        .and_then(join_key);
                    match probe {
                        Some(k) => key.push(k),
                        // NULL probe value: the equality can never hold.
                        None => return Ok(()),
                    }
                }
                if let Some(candidates) = table.get(&key) {
                    for &ri in candidates {
                        let Some(t) = self.inputs[item].get(ri) else {
                            continue;
                        };
                        fixed.push(t);
                        self.descend(item + 1, fixed, outer, ctx, surviving)?;
                        fixed.pop();
                    }
                }
            }
        }
        Ok(())
    }
}

/// `SELECT *`: concatenate the fields of every FROM item.
fn eval_star(
    cs: &CompiledSelect,
    bindings: &[Option<String>],
    rows: &[Vec<&Tuple>],
) -> Result<SelectResult> {
    let Some(first) = rows.first() else {
        // No rows this epoch: emit an empty result with a best-effort
        // empty schema (consumers see no tuples either way).
        return Ok(SelectResult::ungrouped(Schema::new(vec![])?, vec![]));
    };
    // Join the schemas of the first row, prefixing duplicates by binding.
    // Interned so consumers see a stable schema pointer across epochs
    // (keeping their own slot plans cached and valid).
    let mut schema: Arc<Schema> = Arc::clone(first[0].schema());
    for (i, t) in first.iter().enumerate().skip(1) {
        let prefix = bindings[i].as_deref().unwrap_or("right");
        schema = schema.join(t.schema(), Some(prefix))?;
    }
    let schema = registry::intern(&schema);
    let _ = cs;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut vals = Vec::with_capacity(row.iter().map(|t| t.values().len()).sum::<usize>());
        for t in row {
            vals.extend_from_slice(t.values());
        }
        if vals.len() != schema.len() {
            return Err(EspError::SchemaMismatch(
                "heterogeneous tuple shapes within one stream in SELECT *".into(),
            ));
        }
        out.push(vals);
    }
    Ok(SelectResult::ungrouped(schema, out))
}

/// Grouped / aggregate evaluation.
fn eval_grouped(
    cs: &CompiledSelect,
    bindings: &[Option<String>],
    rows: &[Vec<&Tuple>],
    outer: Option<&RowEnv<'_>>,
    uniform: bool,
    ctx: &ExecCtx<'_>,
) -> Result<SelectResult> {
    // Group rows.
    struct Group<'a> {
        rep: Option<Vec<&'a Tuple>>,
        members: Vec<usize>,
    }
    let mut order: Vec<Vec<ValueKey>> = Vec::new();
    let mut groups: HashMap<Vec<ValueKey>, Group<'_>> = HashMap::new();
    if cs.group_by.is_empty() {
        // Global group, present even over empty input (SQL semantics:
        // `SELECT count(*) FROM empty` yields one row).
        let g = Group {
            rep: rows.first().cloned(),
            members: (0..rows.len()).collect(),
        };
        order.push(Vec::new());
        groups.insert(Vec::new(), g);
    } else {
        for (ri, row) in rows.iter().enumerate() {
            let env = RowEnv {
                bindings,
                row,
                aggs: None,
                outer,
                slots_valid: uniform,
            };
            let mut key = Vec::with_capacity(cs.group_by.len());
            for g in &cs.group_by {
                key.push(eval_expr(g, &env, ctx)?.group_key());
            }
            match groups.entry(key.clone()) {
                Entry::Occupied(mut e) => e.get_mut().members.push(ri),
                Entry::Vacant(e) => {
                    e.insert(Group {
                        rep: Some(row.clone()),
                        members: vec![ri],
                    });
                    order.push(key);
                }
            }
        }
    }

    let schema = cs.output_schema.clone().ok_or_else(|| {
        EspError::Plan("aggregate select compiled without an output schema".into())
    })?;
    let mut out_rows = Vec::with_capacity(order.len());
    for key in &order {
        let group = &groups[key];
        // Fold every aggregate over the group's members.
        let mut agg_values = Vec::with_capacity(cs.agg_calls.len());
        for call in &cs.agg_calls {
            agg_values.push(fold_aggregate(
                call,
                bindings,
                rows,
                &group.members,
                outer,
                uniform,
                ctx,
            )?);
        }
        let empty_row: Vec<&Tuple> = Vec::new();
        let rep = group.rep.as_ref().unwrap_or(&empty_row);
        let env = RowEnv {
            bindings,
            row: rep,
            aggs: Some(&agg_values),
            outer,
            slots_valid: uniform,
        };
        if let Some(h) = &cs.having {
            if !eval_expr(h, &env, ctx)?.truthy() {
                continue;
            }
        }
        let mut out = Vec::with_capacity(cs.select.len());
        for item in &cs.select {
            out.push(eval_expr(&item.expr, &env, ctx)?);
        }
        out_rows.push(out);
    }
    Ok(SelectResult {
        schema,
        rows: out_rows,
        groups: order.len(),
    })
}

/// Whether `e` can evaluate entirely from a chunk's columns: literals,
/// depth-0 item-0 slots bound to this exact schema, and the pure scalar
/// operators. Anything touching an environment — UDFs, aggregates,
/// subqueries, unresolved names — needs row form and falls back.
pub(crate) fn col_supported(e: &CExpr, schema: &Arc<Schema>) -> bool {
    match e {
        CExpr::Literal(_) => true,
        CExpr::Field { slot, .. } => slot.as_ref().is_some_and(|s| {
            s.depth == 0
                && s.from_idx == 0
                && Arc::ptr_eq(&s.schema, schema)
                && (s.col_idx as usize) < schema.len()
        }),
        CExpr::Cmp { lhs, rhs, .. } | CExpr::Arith { lhs, rhs, .. } => {
            col_supported(lhs, schema) && col_supported(rhs, schema)
        }
        CExpr::And(a, b) | CExpr::Or(a, b) => col_supported(a, schema) && col_supported(b, schema),
        CExpr::Not(x) | CExpr::Neg(x) => col_supported(x, schema),
        _ => false,
    }
}

/// Evaluate a [`col_supported`] expression over row `ri` of a chunk view,
/// reading slots from the `ColumnVec`s in place — no `Tuple` is built.
/// Operator semantics (short-circuits, SQL comparison, arithmetic, error
/// surfacing) are shared with [`eval_expr`], so results are identical.
pub(crate) fn eval_col(e: &CExpr, view: &ChunkView<'_>, ri: usize) -> Result<Value> {
    match e {
        CExpr::Literal(v) => Ok(v.clone()),
        CExpr::Field { slot, .. } => {
            // `col_supported` guarantees the slot is resolved.
            let s = slot
                .as_ref()
                .ok_or_else(|| EspError::Plan("unresolved slot on the columnar path".into()))?;
            view.value_at(ri, s.col_idx as usize)
                .ok_or_else(|| EspError::Plan("window row vanished mid-tick".into()))
        }
        CExpr::Cmp { lhs, op, rhs } => {
            let l = eval_col(lhs, view, ri)?;
            let r = eval_col(rhs, view, ri)?;
            Ok(Value::Bool(
                l.sql_cmp(&r).map(|o| op.matches(o)).unwrap_or(false),
            ))
        }
        CExpr::Arith { lhs, op, rhs } => {
            let l = eval_col(lhs, view, ri)?;
            let r = eval_col(rhs, view, ri)?;
            eval_arith(&l, *op, &r)
        }
        CExpr::And(a, b) => {
            if !eval_col(a, view, ri)?.truthy() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(eval_col(b, view, ri)?.truthy()))
        }
        CExpr::Or(a, b) => {
            if eval_col(a, view, ri)?.truthy() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(eval_col(b, view, ri)?.truthy()))
        }
        CExpr::Not(x) => Ok(Value::Bool(!eval_col(x, view, ri)?.truthy())),
        CExpr::Neg(x) => match eval_col(x, view, ri)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(EspError::Type(format!("cannot negate {other}"))),
        },
        // Unreachable: col_supported rejects these shapes.
        CExpr::Agg { .. } | CExpr::Scalar { .. } | CExpr::Quantified { .. } => Err(EspError::Plan(
            "environment-dependent expression on the columnar path".into(),
        )),
    }
}

#[allow(clippy::too_many_arguments)]
fn fold_aggregate(
    call: &AggCall,
    bindings: &[Option<String>],
    rows: &[Vec<&Tuple>],
    members: &[usize],
    outer: Option<&RowEnv<'_>>,
    uniform: bool,
    ctx: &ExecCtx<'_>,
) -> Result<Value> {
    let mut state = call.factory.make();
    let mut distinct_seen: HashSet<ValueKey> = HashSet::new();
    for &ri in members {
        let row = &rows[ri];
        let v = match &call.arg {
            None => Value::Int(1), // count(*)
            Some(arg) => {
                let env = RowEnv {
                    bindings,
                    row,
                    aggs: None,
                    outer,
                    slots_valid: uniform,
                };
                eval_expr(arg, &env, ctx)?
            }
        };
        if call.arg.is_some() && v.is_null() {
            continue; // SQL aggregates ignore NULLs.
        }
        if call.distinct && !distinct_seen.insert(v.group_key()) {
            continue;
        }
        state.update(&v)?;
    }
    Ok(state.finish())
}

/// The rows of one FROM item this epoch: a static relation is borrowed; a
/// window's rows and a derived table's output are materialized.
fn materialize_from<'q>(
    item: &'q CFromItem,
    outer: Option<&RowEnv<'_>>,
    ctx: &ExecCtx<'q>,
) -> Result<Cow<'q, [Tuple]>> {
    match &item.source {
        CSource::Stream {
            window: Window::Rows(window),
            ..
        } => Ok(Cow::Owned(window.to_vec())),
        CSource::Stream {
            window: Window::Panes(_),
            ..
        } => Err(EspError::Plan(
            "a pane-incremental select has no rows to rescan".into(),
        )),
        CSource::Relation { name } => ctx
            .catalog
            .relation(name)
            .map(|r| Cow::Borrowed(&r[..]))
            .ok_or_else(|| EspError::UnknownSource(name.clone())),
        CSource::Derived(sub) => {
            let result = eval_select(sub, outer, ctx)?;
            Ok(Cow::Owned(result.into_batch(ctx.epoch)))
        }
    }
}

/// Fetch a slot-resolved field, or `None` when the runtime environment
/// doesn't match the plan and the name walk must run instead.
fn slot_lookup(slot: &FieldSlot, env: &RowEnv<'_>) -> Option<Value> {
    // Every scope on the way to (and including) the slot's must be
    // uniform: a non-conforming tuple in an intermediate scope could
    // shadow the name or make it ambiguous where the plan assumed not.
    let mut target = env;
    if !target.slots_valid {
        return None;
    }
    for _ in 0..slot.depth {
        target = target.outer?;
        if !target.slots_valid {
            return None;
        }
    }
    let t = target.row.get(slot.from_idx as usize)?;
    if !Arc::ptr_eq(t.schema(), &slot.schema) {
        return None;
    }
    t.values().get(slot.col_idx as usize).cloned()
}

/// Evaluate one expression against a row environment.
pub fn eval_expr(e: &CExpr, env: &RowEnv<'_>, ctx: &ExecCtx<'_>) -> Result<Value> {
    match e {
        CExpr::Literal(v) => Ok(v.clone()),
        CExpr::Field {
            qualifier,
            name,
            slot,
            ..
        } => {
            if let Some(s) = slot {
                if let Some(v) = slot_lookup(s, env) {
                    return Ok(v);
                }
            }
            resolve_field(qualifier.as_deref(), name, env)
        }
        CExpr::Agg { idx, key } => match env.aggs {
            Some(aggs) => Ok(aggs[*idx].clone()),
            None => Err(EspError::Plan(format!(
                "aggregate {key} referenced outside a grouped context"
            ))),
        },
        CExpr::Scalar { func, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, env, ctx)?);
            }
            func(&vals)
        }
        CExpr::Cmp { lhs, op, rhs } => {
            let l = eval_expr(lhs, env, ctx)?;
            let r = eval_expr(rhs, env, ctx)?;
            Ok(Value::Bool(
                l.sql_cmp(&r).map(|o| op.matches(o)).unwrap_or(false),
            ))
        }
        CExpr::Quantified {
            lhs,
            op,
            quantifier,
            subquery,
        } => {
            let l = eval_expr(lhs, env, ctx)?;
            let result = eval_select(subquery, Some(env), ctx)?;
            let mut all = true;
            let mut any = false;
            for row in &result.rows {
                let matched = l.sql_cmp(&row[0]).map(|o| op.matches(o)).unwrap_or(false);
                all &= matched;
                any |= matched;
            }
            Ok(Value::Bool(match quantifier {
                Quantifier::All => all, // vacuously true over empty results
                Quantifier::Any => any, // vacuously false over empty results
            }))
        }
        CExpr::Arith { lhs, op, rhs } => {
            let l = eval_expr(lhs, env, ctx)?;
            let r = eval_expr(rhs, env, ctx)?;
            eval_arith(&l, *op, &r)
        }
        CExpr::And(a, b) => {
            if !eval_expr(a, env, ctx)?.truthy() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(eval_expr(b, env, ctx)?.truthy()))
        }
        CExpr::Or(a, b) => {
            if eval_expr(a, env, ctx)?.truthy() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(eval_expr(b, env, ctx)?.truthy()))
        }
        CExpr::Not(x) => Ok(Value::Bool(!eval_expr(x, env, ctx)?.truthy())),
        CExpr::Neg(x) => match eval_expr(x, env, ctx)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(EspError::Type(format!("cannot negate {other}"))),
        },
    }
}

fn eval_arith(l: &Value, op: ArithOp, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer-preserving for +,-,*,% over two ints; `/` is always float.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            ArithOp::Add => return Ok(Value::Int(a + b)),
            ArithOp::Sub => return Ok(Value::Int(a - b)),
            ArithOp::Mul => return Ok(Value::Int(a * b)),
            ArithOp::Mod => {
                if *b == 0 {
                    return Ok(Value::Null);
                }
                return Ok(Value::Int(a % b));
            }
            ArithOp::Div => {}
        }
    }
    let (a, b) = (
        l.expect_f64(&format!("left operand of {}", op.symbol()))?,
        r.expect_f64(&format!("right operand of {}", op.symbol()))?,
    );
    let v = match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        ArithOp::Mod => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a % b
        }
    };
    Ok(Value::Float(v))
}

/// Resolve a (possibly qualified) field reference by name: current scope
/// first, then enclosing scopes (correlation). This is the slow path —
/// and the reference semantics the slot fast path must agree with.
fn resolve_field(qualifier: Option<&str>, name: &str, env: &RowEnv<'_>) -> Result<Value> {
    let mut scope: Option<&RowEnv<'_>> = Some(env);
    while let Some(s) = scope {
        match lookup_in_scope(qualifier, name, s)? {
            Some(v) => return Ok(v),
            None => scope = s.outer,
        }
    }
    // Special case: the representative row of an empty global group — all
    // field references are NULL (e.g. `SELECT tag_id, count(*) FROM empty`).
    if env.row.is_empty() && env.aggs.is_some() {
        return Ok(Value::Null);
    }
    match qualifier {
        Some(q) => Err(EspError::UnknownField(format!("{q}.{name}"))),
        None => Err(EspError::UnknownField(name.to_string())),
    }
}

fn lookup_in_scope(qualifier: Option<&str>, name: &str, s: &RowEnv<'_>) -> Result<Option<Value>> {
    let mut found: Option<&Value> = None;
    for (i, t) in s.row.iter().enumerate() {
        if let Some(q) = qualifier {
            if s.bindings[i].as_deref() != Some(q) {
                continue;
            }
        }
        if let Some(v) = t.get(name) {
            if found.is_some() && qualifier.is_none() {
                return Err(EspError::Plan(format!(
                    "ambiguous field reference '{name}' (qualify it)"
                )));
            }
            found = Some(v);
            if qualifier.is_some() {
                break;
            }
        }
    }
    Ok(found.cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;
    use crate::plan::{resolve_pass, Mode};
    use esp_types::{DataType, TupleBuilder};

    fn ctx(catalog: &Catalog) -> ExecCtx<'_> {
        ExecCtx {
            catalog,
            epoch: Ts::from_secs(1),
        }
    }

    fn push_all(cs: &mut CompiledSelect, stream: &str, batch: &[Tuple]) {
        cs.for_each_window(&mut |name, w| {
            let w = w.rows_mut().unwrap();
            if name == stream {
                for t in batch {
                    w.push(t.clone());
                }
            }
            w.advance_to(Ts::from_secs(1));
        });
    }

    fn reading(schema: &Arc<Schema>, tag: &str) -> Tuple {
        TupleBuilder::new(schema, Ts::from_secs(1))
            .set("tag_id", tag)
            .unwrap()
            .build()
            .unwrap()
    }

    fn tag_schema() -> Arc<Schema> {
        Schema::builder()
            .field("tag_id", DataType::Str)
            .build()
            .unwrap()
    }

    #[test]
    fn filter_projects_rows() {
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id FROM s [Range By '5 sec'] WHERE tag_id != 'b'").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(
            &mut cs,
            "s",
            &[reading(&schema, "a"), reading(&schema, "b")],
        );
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("a")]]);
        assert_eq!(r.schema.fields()[0].name, "tag_id");
    }

    #[test]
    fn filter_projects_rows_with_slots() {
        // Same query as `filter_projects_rows`, but resolved: the result
        // must be identical through the slot fast path.
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id FROM s [Range By '5 sec'] WHERE tag_id != 'b'").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(
            &mut cs,
            "s",
            &[reading(&schema, "a"), reading(&schema, "b")],
        );
        assert!(resolve_pass(&mut cs, &[], &catalog, Mode::Lazy).is_empty());
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("a")]]);
    }

    #[test]
    fn group_by_counts() {
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id, count(*) FROM s [Range By '5 sec'] GROUP BY tag_id").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(
            &mut cs,
            "s",
            &[
                reading(&schema, "a"),
                reading(&schema, "b"),
                reading(&schema, "a"),
            ],
        );
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(1)]
            ]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input_emits_one_row() {
        let catalog = Catalog::new();
        let cs = compile(
            &parse("SELECT count(*) FROM s [Range By '5 sec']").unwrap(),
            &catalog,
        )
        .unwrap();
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn having_filters_global_group() {
        let catalog = Catalog::new();
        let cs = compile(
            &parse("SELECT 1 AS cnt FROM s [Range By 'NOW'] HAVING count(distinct tag_id) > 1")
                .unwrap(),
            &catalog,
        )
        .unwrap();
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert!(r.rows.is_empty(), "count 0 fails HAVING");
    }

    #[test]
    fn field_reference_on_empty_global_group_is_null() {
        let catalog = Catalog::new();
        let cs = compile(
            &parse("SELECT tag_id, count(*) FROM s [Range By 'NOW']").unwrap(),
            &catalog,
        )
        .unwrap();
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Null, Value::Int(0)]]);
    }

    #[test]
    fn cross_join_with_static_relation() {
        let mut catalog = Catalog::new();
        let schema = tag_schema();
        catalog.register_relation(
            "expected",
            vec![reading(&schema, "a"), reading(&schema, "c")],
        );
        let mut cs = compile(
            &parse(
                "SELECT s.tag_id FROM s [Range By '5 sec'], expected e \
                 WHERE s.tag_id = e.tag_id",
            )
            .unwrap(),
            &catalog,
        )
        .unwrap();
        push_all(
            &mut cs,
            "s",
            &[reading(&schema, "a"), reading(&schema, "b")],
        );
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("a")]]);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        // Resolved plan → hash join; unresolved → odometer. Same rows,
        // same order.
        let sql = "SELECT l.tag_id, r.tag_id FROM a l [Range '5 sec'], b r [Range '5 sec'] \
                   WHERE l.tag_id = r.tag_id";
        let catalog = Catalog::new();
        let schema = registry::intern(&tag_schema());
        let batch_a = [
            reading(&schema, "x"),
            reading(&schema, "y"),
            reading(&schema, "x"),
        ];
        let batch_b = [
            reading(&schema, "x"),
            reading(&schema, "z"),
            reading(&schema, "x"),
        ];
        let run = |resolved: bool| {
            let mut cs = compile(&parse(sql).unwrap(), &catalog).unwrap();
            push_all(&mut cs, "a", &batch_a);
            push_all(&mut cs, "b", &batch_b);
            if resolved {
                assert!(resolve_pass(&mut cs, &[], &catalog, Mode::Lazy).is_empty());
                let plan = cs.plan.as_ref().unwrap();
                assert!(plan.join.is_some(), "equi-join key extracted");
            }
            eval_select(&cs, None, &ctx(&catalog)).unwrap().rows
        };
        let hash = run(true);
        let scan = run(false);
        assert_eq!(hash, scan);
        // x-rows pair up 2×2, in left-major order.
        assert_eq!(hash.len(), 4);
        assert_eq!(hash[0], vec![Value::str("x"), Value::str("x")]);
    }

    #[test]
    fn hash_join_excludes_null_keys() {
        let catalog = Catalog::new();
        let schema =
            registry::intern(&Schema::builder().field("k", DataType::Str).build().unwrap());
        let null_row = |ts| Tuple::new_unchecked(Arc::clone(&schema), ts, vec![Value::Null]);
        let mut cs = compile(
            &parse("SELECT l.k FROM a l [Range '5 sec'], b r [Range '5 sec'] WHERE l.k = r.k")
                .unwrap(),
            &catalog,
        )
        .unwrap();
        push_all(&mut cs, "a", &[null_row(Ts::from_secs(1))]);
        push_all(&mut cs, "b", &[null_row(Ts::from_secs(1))]);
        resolve_pass(&mut cs, &[], &catalog, Mode::Lazy);
        let r = eval_select(&cs, None, &ctx(&catalog)).unwrap();
        assert!(r.rows.is_empty(), "NULL = NULL is not a match");
    }

    #[test]
    fn arith_semantics() {
        // int preservation and float division
        assert_eq!(
            eval_arith(&Value::Int(7), ArithOp::Add, &Value::Int(3)).unwrap(),
            Value::Int(10)
        );
        assert_eq!(
            eval_arith(&Value::Int(7), ArithOp::Div, &Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            eval_arith(&Value::Int(7), ArithOp::Mod, &Value::Int(0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_arith(&Value::Float(1.0), ArithOp::Div, &Value::Float(0.0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_arith(&Value::Null, ArithOp::Add, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert!(eval_arith(&Value::str("x"), ArithOp::Add, &Value::Int(1)).is_err());
    }

    #[test]
    fn ambiguous_unqualified_reference_errors() {
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id FROM a [Range '5 sec'], b [Range '5 sec']").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(&mut cs, "a", &[reading(&schema, "x")]);
        push_all(&mut cs, "b", &[reading(&schema, "y")]);
        let err = eval_select(&cs, None, &ctx(&catalog)).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn ambiguous_reference_still_errors_after_resolve() {
        // The resolver marks the reference ambiguous (slot = None); the
        // runtime walk must reproduce the interpreter's error.
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT tag_id FROM a [Range '5 sec'], b [Range '5 sec']").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(&mut cs, "a", &[reading(&schema, "x")]);
        push_all(&mut cs, "b", &[reading(&schema, "y")]);
        let diags = resolve_pass(&mut cs, &[], &catalog, Mode::Lazy);
        assert!(diags.is_empty(), "lazy mode never diagnoses");
        let err = eval_select(&cs, None, &ctx(&catalog)).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn unknown_field_reported() {
        let catalog = Catalog::new();
        let mut cs = compile(
            &parse("SELECT bogus FROM s [Range '5 sec']").unwrap(),
            &catalog,
        )
        .unwrap();
        let schema = tag_schema();
        push_all(&mut cs, "s", &[reading(&schema, "x")]);
        assert!(matches!(
            eval_select(&cs, None, &ctx(&catalog)),
            Err(EspError::UnknownField(_))
        ));
    }
}
