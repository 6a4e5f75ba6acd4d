//! Pane-incremental evaluation of mergeable selects.
//!
//! A rescanned select re-reads every row of its window at every tick. A
//! *mergeable* select does not need the rows: its window slides by one
//! epoch and every aggregate it computes merges across epochs (*On the
//! Semantic Overlap of Operators in SPEs*), so each arrival is folded once,
//! into the partial of its group in its epoch's pane, and a tick merges
//! the live panes ([`esp_stream::panes::PaneStore`], keyed by dictionary
//! ids) instead of regrouping the window.
//!
//! A select is mergeable when all of these hold (checked once, when the
//! engine compiles it):
//!
//! * it has one stream FROM item — no join, derived table or subquery;
//! * it aggregates, and its GROUP BY keys are distinct bare columns;
//! * outside aggregate arguments, SELECT and HAVING read only GROUP BY
//!   columns;
//! * every aggregate is a non-`DISTINCT` built-in that names a
//!   [`PartialKind`] (UDAs never do);
//! * it calls no volatile scalar, and every qualifier names its FROM item.
//!
//! Every other select keeps its [`WindowBuffer`](esp_stream::WindowBuffer)
//! and the rescan, as does every select in reference mode, which makes the
//! rescan the oracle this path is tested against.
//!
//! Per tick: slide the panes, fold the staged chunks into the epoch's pane
//! (WHERE, keys and arguments read by column position, resolved once per
//! input schema), merge, then write the output chunk column by column from
//! each group's key values and finished partials, with HAVING evaluated per
//! group. Groups come out in the rescan's first-seen order, with the key
//! values of their oldest live arrival. Counts, integer sums, minima and
//! maxima are exact; float sums, means and deviations reassociate across
//! panes and agree with the rescan to rounding.

use std::sync::Arc;

use esp_stream::panes::{KeyRef, PaneStore, Partial};
use esp_stream::stats::RunningStats;
use esp_types::{
    snap, Chunk, ChunkView, ColumnVec, DataType, EspError, Field, Result, Schema, TimeDelta, Tuple,
    Value,
};

use crate::aggregate::{AggregateState, BuiltinPartial, PartialKind};
use crate::catalog::Catalog;
use crate::compile::{CExpr, CSource, CompiledSelect, Window};
use crate::exec::{col_supported, eval_col, eval_expr, ExecCtx, RowEnv};
use crate::plan::{resolve_pass, Mode};

/// One group's partials in one pane, one per aggregate call.
#[derive(Debug, Clone, Default)]
struct Partials(Vec<BuiltinPartial>);

impl Partial for Partials {
    fn merge(&mut self, newer: &Partials) -> Result<()> {
        for (p, n) in self.0.iter_mut().zip(&newer.0) {
            p.merge(n)?;
        }
        Ok(())
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_u32(out, self.0.len() as u32);
        for p in &self.0 {
            match p {
                BuiltinPartial::Count(n) => {
                    snap::put_u8(out, 0);
                    snap::put_i64(out, *n);
                }
                BuiltinPartial::Sum {
                    int_sum,
                    float_sum,
                    saw_float,
                    n,
                } => {
                    snap::put_u8(out, 1);
                    snap::put_i64(out, *int_sum);
                    snap::put_f64(out, *float_sum);
                    snap::put_u8(out, u8::from(*saw_float));
                    snap::put_u64(out, *n);
                }
                BuiltinPartial::Stats { stats, stdev } => {
                    snap::put_u8(out, 2);
                    snap::put_u8(out, u8::from(*stdev));
                    stats.encode_into(out);
                }
                BuiltinPartial::Extreme { best, is_max } => {
                    snap::put_u8(out, 3);
                    snap::put_u8(out, u8::from(*is_max));
                    snap::encode_values(out, std::slice::from_ref(best));
                }
            }
        }
    }

    fn decode(cur: &mut snap::Cursor<'_>) -> Result<Partials> {
        let n = cur.u32()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(match cur.u8()? {
                0 => BuiltinPartial::Count(cur.i64()?),
                1 => BuiltinPartial::Sum {
                    int_sum: cur.i64()?,
                    float_sum: cur.f64()?,
                    saw_float: cur.u8()? != 0,
                    n: cur.u64()?,
                },
                2 => BuiltinPartial::Stats {
                    stdev: cur.u8()? != 0,
                    stats: RunningStats::decode(cur)?,
                },
                3 => {
                    let is_max = cur.u8()? != 0;
                    let [best] =
                        <[Value; 1]>::try_from(snap::decode_values(cur)?).map_err(|_| {
                            EspError::Snapshot("an extreme partial holds one value".into())
                        })?;
                    BuiltinPartial::Extreme { best, is_max }
                }
                tag => {
                    return Err(EspError::Snapshot(format!(
                        "unknown aggregate partial tag {tag}"
                    )))
                }
            });
        }
        Ok(Partials(out))
    }
}

/// A column the select names: its field name, and the reference as
/// written, for the rescan's error text.
struct ColumnRef {
    name: String,
    shown: String,
}

impl ColumnRef {
    fn new(qualifier: &Option<String>, name: &str) -> ColumnRef {
        ColumnRef {
            name: name.to_string(),
            shown: match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            },
        }
    }

    /// The column's position in `schema`, or the rescan's error for a
    /// row without it.
    fn position(&self, schema: &Schema) -> Result<usize> {
        schema
            .index_of(&self.name)
            .ok_or_else(|| EspError::UnknownField(self.shown.clone()))
    }
}

/// How an aggregate call reads its argument.
enum Arg {
    /// `count(*)`.
    Star,
    /// A bare column, read in place.
    Column(ColumnRef),
    /// Any other expression, evaluated per row.
    Expr,
}

/// How the fold reads one call's argument from the chunk at hand.
enum ArgRead<'a> {
    Star,
    Column(&'a ColumnVec),
    /// The expression, and whether its slots fit the chunk's schema.
    Expr(&'a CExpr, bool),
}

/// Where a select item's value comes from.
enum Output {
    /// The group's `i`-th key value.
    Key(usize),
    /// The `j`-th aggregate call's result.
    Agg(usize),
    /// An expression over keys and aggregates.
    Expr,
}

/// Key and argument positions in one input schema.
struct Layout {
    schema: Arc<Schema>,
    keys: Result<Vec<usize>>,
    args: Vec<Result<Option<usize>>>,
}

/// A mergeable select's window state: per-epoch partials, and what its
/// fold reads of each input schema.
pub struct Incremental {
    store: PaneStore<Partials>,
    kinds: Vec<PartialKind>,
    keys: Vec<ColumnRef>,
    args: Vec<Arg>,
    outputs: Vec<Output>,
    /// The schema of a group's representative row (its key columns), when
    /// HAVING or a computed select item reads a key.
    rep_schema: Option<Arc<Schema>>,
    layouts: Vec<Layout>,
    /// The input schema the select's slots are resolved against.
    input: Option<Arc<Schema>>,
}

impl Incremental {
    /// The window's width; zero for a now-window.
    pub fn width(&self) -> TimeDelta {
        self.store.width()
    }

    /// The input schema the select's slots are resolved against.
    pub(crate) fn input_schema(&self) -> Option<&Arc<Schema>> {
        self.input.as_ref()
    }

    /// The pane-incremental form of `cs`, when it is mergeable (see the
    /// module docs).
    fn plan(cs: &CompiledSelect, catalog: &Catalog) -> Option<Incremental> {
        let [item] = cs.from.as_slice() else {
            return None;
        };
        let CSource::Stream {
            window: Window::Rows(window),
            ..
        } = &item.source
        else {
            return None;
        };
        if !cs.is_aggregate {
            return None;
        }
        let mut simple = true;
        cs.for_each_expr(&mut |e| match e {
            CExpr::Quantified { .. } => simple = false,
            CExpr::Scalar { name, .. } => simple &= !catalog.is_volatile_scalar(name),
            CExpr::Field {
                qualifier: Some(q), ..
            } => simple &= item.binding.as_ref() == Some(q),
            _ => {}
        });
        let mut keys: Vec<ColumnRef> = Vec::with_capacity(cs.group_by.len());
        for g in &cs.group_by {
            let CExpr::Field {
                qualifier, name, ..
            } = g
            else {
                return None;
            };
            simple &= keys.iter().all(|k| k.name != *name);
            keys.push(ColumnRef::new(qualifier, name));
        }
        // Outside aggregate arguments, only key columns may be read; note
        // whether a computed item or HAVING reads one, so groups need a
        // representative row.
        let key_of = |name: &str| keys.iter().position(|k| k.name == name);
        let outputs: Vec<Output> = cs
            .select
            .iter()
            .map(|item| match &item.expr {
                CExpr::Field { name, .. } => key_of(name).map_or(Output::Expr, Output::Key),
                CExpr::Agg { idx, .. } => Output::Agg(*idx),
                _ => Output::Expr,
            })
            .collect();
        let computed = cs
            .select
            .iter()
            .zip(&outputs)
            .filter(|(_, o)| matches!(o, Output::Expr))
            .map(|(item, _)| &item.expr);
        let mut reads_key = false;
        for e in computed.chain(&cs.having) {
            e.walk(&mut |x| {
                if let CExpr::Field { name, .. } = x {
                    simple &= key_of(name).is_some();
                    reads_key = true;
                }
            });
        }
        if !simple {
            return None;
        }
        let mut kinds = Vec::with_capacity(cs.agg_calls.len());
        let mut args = Vec::with_capacity(cs.agg_calls.len());
        for call in &cs.agg_calls {
            if call.distinct {
                return None;
            }
            kinds.push(call.factory.partial()?);
            args.push(match &call.arg {
                None => Arg::Star,
                Some(CExpr::Field {
                    qualifier, name, ..
                }) => Arg::Column(ColumnRef::new(qualifier, name)),
                Some(_) => Arg::Expr,
            });
        }
        let rep_schema = if reads_key {
            let fields = keys.iter().map(|k| Field::new(&k.name, DataType::Any));
            Some(Schema::new(fields.collect()).ok()?)
        } else {
            None
        };
        Some(Incremental {
            store: PaneStore::new(window.width()),
            kinds,
            keys,
            args,
            outputs,
            rep_schema,
            layouts: Vec::new(),
            input: None,
        })
    }

    /// Index into `self.layouts` for `schema`, resolving the key and
    /// argument positions the first time the schema is met.
    fn layout(&mut self, schema: &Arc<Schema>) -> usize {
        let known = self
            .layouts
            .iter()
            .position(|l| Arc::ptr_eq(&l.schema, schema) || *l.schema == **schema);
        known.unwrap_or_else(|| {
            let keys = self.keys.iter().map(|k| k.position(schema)).collect();
            let args = self
                .args
                .iter()
                .map(|a| match a {
                    Arg::Column(c) => c.position(schema).map(Some),
                    Arg::Star | Arg::Expr => Ok(None),
                })
                .collect();
            self.layouts.push(Layout {
                schema: Arc::clone(schema),
                keys,
                args,
            });
            self.layouts.len() - 1
        })
    }
}

/// Run `cs` pane-incrementally from now on when it is mergeable (see the
/// module docs); leave it on the rescan otherwise.
pub(crate) fn classify(cs: &mut CompiledSelect, catalog: &Catalog) {
    if let Some(inc) = Incremental::plan(cs, catalog) {
        if let Some(item) = cs.from.first_mut() {
            if let CSource::Stream { window, .. } = &mut item.source {
                *window = Window::Panes(Box::new(inc));
            }
        }
    }
}

fn panes(from: &mut [crate::compile::CFromItem]) -> Result<&mut Incremental> {
    match from.first_mut().map(|item| &mut item.source) {
        Some(CSource::Stream {
            window: Window::Panes(inc),
            ..
        }) => Ok(inc),
        _ => Err(EspError::Plan("select is not pane-incremental".into())),
    }
}

/// Evaluate `e` over row `ri` as the rescan does: straight off the columns
/// when `columnar` (the slots fit this chunk), else over the row.
fn eval_row(
    e: &CExpr,
    view: &ChunkView<'_>,
    ri: usize,
    columnar: bool,
    bindings: &[Option<String>],
    ctx: &ExecCtx<'_>,
) -> Result<Value> {
    if columnar {
        return eval_col(e, view, ri);
    }
    let t = view
        .tuple_at(ri)
        .ok_or_else(|| EspError::Plan("chunk row vanished mid-fold".into()))?;
    eval_expr(e, &RowEnv::single(bindings, &[&t], None), ctx)
}

/// One tick of a pane-incremental select: slide to `ctx.epoch`, fold the
/// staged `chunks` into the epoch's pane, merge the live panes and emit
/// the result chunk. Also returns the number of live groups.
pub(crate) fn tick(
    cs: &mut CompiledSelect,
    chunks: Vec<Chunk>,
    ctx: &ExecCtx<'_>,
) -> Result<(Chunk, usize)> {
    panes(&mut cs.from)?.store.advance_to(ctx.epoch);
    for chunk in chunks.iter().filter(|c| !c.is_empty()) {
        let inc = panes(&mut cs.from)?;
        if !inc
            .input
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(s, chunk.schema()))
        {
            // WHERE and argument expressions evaluate through slots; point
            // them at this chunk's schema.
            inc.input = Some(Arc::clone(chunk.schema()));
            resolve_pass(cs, &[], ctx.catalog, Mode::Lazy);
        }
        fold(cs, chunk, ctx)?;
    }
    emit(cs, ctx)
}

/// Fold one chunk into the pane of `ctx.epoch`, in the rescan's phase
/// order: WHERE over every row, then keys, then aggregate arguments.
fn fold(cs: &mut CompiledSelect, chunk: &Chunk, ctx: &ExecCtx<'_>) -> Result<()> {
    let CompiledSelect {
        from,
        where_clause,
        agg_calls,
        bindings,
        ..
    } = cs;
    let view = chunk.view();
    let mut kept = Vec::with_capacity(chunk.len());
    match where_clause {
        Some(w) => {
            let columnar = col_supported(w, chunk.schema());
            for ri in 0..chunk.len() {
                if eval_row(w, &view, ri, columnar, bindings, ctx)?.truthy() {
                    kept.push(ri);
                }
            }
        }
        None => kept.extend(0..chunk.len()),
    }
    if kept.is_empty() {
        return Ok(());
    }
    let inc = panes(from)?;
    let layout = inc.layout(chunk.schema());
    let Incremental {
        store,
        kinds,
        layouts,
        ..
    } = inc;
    let layout = &layouts[layout];
    let vanished = || EspError::Plan("chunk column vanished mid-fold".into());
    let key_cols = layout
        .keys
        .as_ref()
        .map_err(Clone::clone)?
        .iter()
        .map(|&c| chunk.col(c).ok_or_else(vanished))
        .collect::<Result<Vec<_>>>()?;
    let mut args = Vec::with_capacity(agg_calls.len());
    for (call, pos) in agg_calls.iter().zip(&layout.args) {
        args.push(match (&call.arg, pos.as_ref().map_err(Clone::clone)?) {
            (_, Some(c)) => ArgRead::Column(chunk.col(*c).ok_or_else(vanished)?),
            (Some(e), None) => ArgRead::Expr(e, col_supported(e, chunk.schema())),
            (None, None) => ArgRead::Star,
        });
    }
    let mut pane = store.pane_mut(ctx.epoch);
    let mut key = Vec::with_capacity(key_cols.len());
    for ri in kept {
        key.clear();
        key.extend(key_cols.iter().map(|c| KeyRef::at(c, ri)));
        let partials = &mut pane.upsert_refs(&key).0;
        if partials.is_empty() {
            partials.extend(kinds.iter().map(|&k| BuiltinPartial::new(k)));
        }
        for (p, arg) in partials.iter_mut().zip(&args) {
            let v = match arg {
                // count(*): every row counts.
                ArgRead::Star => Value::Int(1),
                ArgRead::Column(col) => col.get(ri).unwrap_or(Value::Null),
                ArgRead::Expr(e, columnar) => eval_row(e, &view, ri, *columnar, bindings, ctx)?,
            };
            // SQL aggregates ignore NULLs.
            if !v.is_null() {
                p.update(&v)?;
            }
        }
    }
    Ok(())
}

/// Merge the live panes and write one output row per group that passes
/// HAVING, column by column.
fn emit(cs: &mut CompiledSelect, ctx: &ExecCtx<'_>) -> Result<(Chunk, usize)> {
    let CompiledSelect {
        from,
        select,
        group_by,
        having,
        output_schema,
        bindings,
        ..
    } = cs;
    let schema = output_schema.clone().ok_or_else(|| {
        EspError::Plan("aggregate select compiled without an output schema".into())
    })?;
    let Incremental {
        store,
        kinds,
        outputs,
        rep_schema,
        ..
    } = panes(from)?;
    let merged = store.merged()?;
    let mut cols: Vec<ColumnVec> = schema
        .fields()
        .iter()
        .map(|f| ColumnVec::for_type(f.data_type))
        .collect();
    let mut rows = 0;
    let mut aggs = Vec::with_capacity(kinds.len());
    let mut emit_group = |key: &[Value], partials: &[BuiltinPartial]| -> Result<()> {
        aggs.clear();
        aggs.extend(partials.iter().map(AggregateState::finish));
        let rep = rep_schema
            .as_ref()
            .map(|s| Tuple::new_unchecked(Arc::clone(s), ctx.epoch, key.to_vec()));
        let rep = rep.as_ref();
        let env = RowEnv::single(bindings, rep.as_slice(), Some(&aggs));
        if let Some(h) = having {
            if !eval_expr(h, &env, ctx)?.truthy() {
                return Ok(());
            }
        }
        for ((item, out), col) in select.iter().zip(outputs.iter()).zip(&mut cols) {
            col.push(match out {
                Output::Key(i) => key[*i].clone(),
                Output::Agg(j) => aggs[*j].clone(),
                Output::Expr => eval_expr(&item.expr, &env, ctx)?,
            });
        }
        rows += 1;
        Ok(())
    };
    // The global group emits even over an empty window, as SQL's
    // `SELECT count(*) FROM empty` does.
    let groups = if group_by.is_empty() && merged.is_empty() {
        let fresh: Vec<BuiltinPartial> = kinds.iter().map(|&k| BuiltinPartial::new(k)).collect();
        emit_group(&[], &fresh)?;
        1
    } else {
        for (key, partials) in merged.iter() {
            emit_group(key, &partials.0)?;
        }
        merged.len()
    };
    let chunk = Chunk::from_columns(&schema, vec![ctx.epoch; rows], cols)?;
    Ok((chunk, groups))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partials_round_trip_bit_exactly() {
        let kinds = [
            PartialKind::Count,
            PartialKind::Sum,
            PartialKind::Avg,
            PartialKind::Stdev,
            PartialKind::Min,
            PartialKind::Max,
        ];
        let mut p = Partials(kinds.iter().map(|&k| BuiltinPartial::new(k)).collect());
        for v in [Value::Float(-0.0), Value::Int(3), Value::Float(f64::NAN)] {
            for b in &mut p.0[..4] {
                b.update(&v).unwrap();
            }
        }
        p.0[4].update(&Value::str("pear")).unwrap();
        let mut blob = Vec::new();
        p.encode_into(&mut blob);
        let mut cur = snap::Cursor::new(&blob);
        let back = Partials::decode(&mut cur).unwrap();
        cur.finish().unwrap();
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(blob, again);
        for cut in 0..blob.len() {
            assert!(Partials::decode(&mut snap::Cursor::new(&blob[..cut])).is_err());
        }
    }
}
