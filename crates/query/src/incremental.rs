//! Pane-incremental evaluation of mergeable selects.
//!
//! A rescanned select re-reads every row of its window at every tick. A
//! *mergeable* select does not need the rows: its window slides by one
//! epoch and every aggregate it computes merges across epochs (*On the
//! Semantic Overlap of Operators in SPEs*), so each arrival is folded once,
//! into the partial of its group in its epoch's pane, and a tick merges
//! the live panes instead of regrouping the window.
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
//! The window is an [`esp_stream::panes::PaneAggregate`] — the keyed pane
//! fold native Smooth runs on too — grouping by the GROUP BY columns and
//! reading the bare-column aggregate arguments in place. What this module
//! adds is SQL: per tick, WHERE picks the rows of each staged chunk the
//! aggregate folds (in the rescan's phase order: WHERE over every row,
//! then keys, then arguments), each run of group-equal rows updates its
//! group's partials, and the aggregate slides, merges and writes the
//! output chunk, turning each group into its select items with HAVING
//! evaluated per group. Groups come out in the rescan's first-seen order,
//! with the key values of their oldest live arrival. Counts, integer sums,
//! minima and maxima are exact; float sums, means and deviations
//! reassociate across panes and agree with the rescan to rounding.

use std::sync::Arc;

use esp_stream::panes::{Column, PaneAggregate, Partial};
use esp_stream::stats::RunningStats;
use esp_types::{
    snap, Chunk, ColumnVec, DataType, EspError, Field, Result, Schema, TimeDelta, Tuple, Value,
};

use crate::aggregate::{AggregateState, BuiltinPartial, PartialKind};
use crate::catalog::Catalog;
use crate::compile::{CExpr, CSource, CompiledSelect, Window};
use crate::exec::{col_supported, eval_col, eval_expr, ExecCtx, RowEnv};
use crate::plan::{resolve_pass, Mode};

/// One group's partials in one pane, one per aggregate call. A single
/// call sits inline in the pane entry, so folding a new group, merging it
/// and evicting it touch no heap; longer lists spill to a `Vec`. Both
/// forms are the same partial: they merge and encode alike.
#[derive(Debug, Clone)]
enum Partials {
    One(BuiltinPartial),
    Spilled(Vec<BuiltinPartial>),
}

/// The empty list: a group the fold has not initialised (or a select with
/// no aggregate call).
impl Default for Partials {
    fn default() -> Partials {
        Partials::Spilled(Vec::new())
    }
}

impl Partials {
    /// The empty partial of each call, in call order.
    fn new(kinds: &[PartialKind]) -> Partials {
        kinds.iter().map(|&k| BuiltinPartial::new(k)).collect()
    }

    fn as_slice(&self) -> &[BuiltinPartial] {
        match self {
            Partials::One(p) => std::slice::from_ref(p),
            Partials::Spilled(p) => p,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [BuiltinPartial] {
        match self {
            Partials::One(p) => std::slice::from_mut(p),
            Partials::Spilled(p) => p,
        }
    }
}

/// Inline a single partial, spill any other count.
impl FromIterator<BuiltinPartial> for Partials {
    fn from_iter<I: IntoIterator<Item = BuiltinPartial>>(iter: I) -> Partials {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Partials::default();
        };
        match iter.next() {
            None => Partials::One(first),
            Some(second) => Partials::Spilled([first, second].into_iter().chain(iter).collect()),
        }
    }
}

impl Partial for Partials {
    fn merge(&mut self, newer: &Partials) -> Result<()> {
        let (mine, theirs) = (self.as_mut_slice(), newer.as_slice());
        if mine.len() != theirs.len() {
            return Err(EspError::Plan(format!(
                "cannot merge a list of {} aggregate partials with one of {}",
                mine.len(),
                theirs.len()
            )));
        }
        for (p, n) in mine.iter_mut().zip(theirs) {
            p.merge(n)?;
        }
        Ok(())
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let partials = self.as_slice();
        snap::put_u32(out, partials.len() as u32);
        for p in partials {
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
                BuiltinPartial::Mean { sum, n } => {
                    snap::put_u8(out, 4);
                    snap::put_f64(out, *sum);
                    snap::put_u64(out, *n);
                }
                BuiltinPartial::Stdev(stats) => {
                    snap::put_u8(out, 2);
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
        (0..n)
            .map(|_| {
                Ok(match cur.u8()? {
                    0 => BuiltinPartial::Count(cur.i64()?),
                    1 => BuiltinPartial::Sum {
                        int_sum: cur.i64()?,
                        float_sum: cur.f64()?,
                        saw_float: cur.u8()? != 0,
                        n: cur.u64()?,
                    },
                    2 => BuiltinPartial::Stdev(RunningStats::decode(cur)?),
                    3 => {
                        let is_max = cur.u8()? != 0;
                        let [best] =
                            <[Value; 1]>::try_from(snap::decode_values(cur)?).map_err(|_| {
                                EspError::Snapshot("an extreme partial holds one value".into())
                            })?;
                        BuiltinPartial::Extreme { best, is_max }
                    }
                    4 => BuiltinPartial::Mean {
                        sum: cur.f64()?,
                        n: cur.u64()?,
                    },
                    tag => {
                        return Err(EspError::Snapshot(format!(
                            "unknown aggregate partial tag {tag}"
                        )))
                    }
                })
            })
            .collect()
    }
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

/// A mergeable select's window state: per-epoch partials, and what its
/// fold reads of each input schema.
pub struct Incremental {
    panes: PaneAggregate<Partials>,
    kinds: Vec<PartialKind>,
    /// Per aggregate call, its argument column's index among the
    /// aggregate's arguments when the argument is a bare column.
    args: Vec<Option<usize>>,
    outputs: Vec<Output>,
    /// The schema of a group's representative row (its key columns), when
    /// HAVING or a computed select item reads a key.
    rep_schema: Option<Arc<Schema>>,
    /// The input schema the select's slots are resolved against.
    input: Option<Arc<Schema>>,
}

impl Incremental {
    /// The window's width; zero for a now-window.
    pub fn width(&self) -> TimeDelta {
        self.panes.width()
    }

    /// The input schema the select's slots are resolved against.
    pub(crate) fn input_schema(&self) -> Option<&Arc<Schema>> {
        self.input.as_ref()
    }

    /// Append the pane fold's state ([`PaneAggregate::encode_into`]).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        self.panes.encode_into(out);
    }

    /// Restore what [`Incremental::encode_into`] wrote.
    pub(crate) fn restore_from(&mut self, cur: &mut snap::Cursor<'_>) -> Result<()> {
        self.panes.restore_from(cur)
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
        // A column as written, for the rescan's error text.
        let column = |qualifier: &Option<String>, name: &str| {
            let shown = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            };
            Column::required(name, shown)
        };
        let mut names: Vec<&str> = Vec::with_capacity(cs.group_by.len());
        let mut keys = Vec::with_capacity(cs.group_by.len());
        for g in &cs.group_by {
            let CExpr::Field {
                qualifier, name, ..
            } = g
            else {
                return None;
            };
            simple &= !names.contains(&name.as_str());
            names.push(name);
            keys.push(column(qualifier, name));
        }
        // Outside aggregate arguments, only key columns may be read; note
        // whether a computed item or HAVING reads one, so groups need a
        // representative row.
        let key_of = |name: &str| names.iter().position(|k| *k == name);
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
        let mut arg_columns = Vec::new();
        for call in &cs.agg_calls {
            if call.distinct {
                return None;
            }
            kinds.push(call.factory.partial()?);
            args.push(match &call.arg {
                Some(CExpr::Field {
                    qualifier, name, ..
                }) => {
                    arg_columns.push(column(qualifier, name));
                    Some(arg_columns.len() - 1)
                }
                _ => None,
            });
        }
        let rep_schema = if reads_key {
            let fields = names.iter().map(|k| Field::new(*k, DataType::Any));
            Some(Schema::new(fields.collect()).ok()?)
        } else {
            None
        };
        Some(Incremental {
            panes: PaneAggregate::new(window.width(), keys, arg_columns),
            kinds,
            args,
            outputs,
            rep_schema,
            input: None,
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

fn incremental(from: &mut [crate::compile::CFromItem]) -> Result<&mut Incremental> {
    match from.first_mut().map(|item| &mut item.source) {
        Some(CSource::Stream {
            window: Window::Panes(inc),
            ..
        }) => Ok(inc),
        _ => Err(EspError::Plan("select is not pane-incremental".into())),
    }
}

/// Evaluate `e` over row `ri`: straight off the columns when `columnar`
/// (the slots fit this chunk), else over the materialized row.
fn eval_row(
    e: &CExpr,
    chunk: &Chunk,
    ri: usize,
    columnar: bool,
    bindings: &[Option<String>],
    ctx: &ExecCtx<'_>,
) -> Result<Value> {
    if columnar {
        return eval_col(e, chunk, ri);
    }
    let t = chunk
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
    incremental(&mut cs.from)?.panes.advance_to(ctx.epoch);
    for chunk in chunks.iter().filter(|c| !c.is_empty()) {
        let inc = incremental(&mut cs.from)?;
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
    let mut kept = Vec::with_capacity(chunk.len());
    match where_clause {
        Some(w) => {
            let columnar = col_supported(w, chunk.schema());
            for ri in 0..chunk.len() {
                if eval_row(w, chunk, ri, columnar, bindings, ctx)?.truthy() {
                    kept.push(ri);
                }
            }
        }
        None => kept.extend(0..chunk.len()),
    }
    if kept.is_empty() {
        return Ok(());
    }
    let Incremental {
        panes, kinds, args, ..
    } = incremental(from)?;
    let Some(cols) = panes.columns(chunk)? else {
        return Ok(());
    };
    let reads: Vec<ArgRead<'_>> = agg_calls
        .iter()
        .zip(args.iter())
        .map(|(call, arg)| match (arg, &call.arg) {
            (Some(i), _) => ArgRead::Column(cols.args[*i]),
            (None, Some(e)) => ArgRead::Expr(e, col_supported(e, chunk.schema())),
            (None, None) => ArgRead::Star,
        })
        .collect();
    panes.fold(ctx.epoch, &cols, Some(&kept), |partials, run| {
        if partials.as_slice().is_empty() {
            *partials = Partials::new(kinds);
        }
        let partials = partials.as_mut_slice();
        for &ri in &kept[run] {
            for (p, arg) in partials.iter_mut().zip(&reads) {
                let v = match arg {
                    // count(*): every row counts.
                    ArgRead::Star => Value::Int(1),
                    ArgRead::Column(col) => col.get(ri).unwrap_or(Value::Null),
                    ArgRead::Expr(e, columnar) => eval_row(e, chunk, ri, *columnar, bindings, ctx)?,
                };
                // SQL aggregates ignore NULLs.
                if !v.is_null() {
                    p.update(&v)?;
                }
            }
        }
        Ok(())
    })
}

/// Merge the live panes and write one output row per group that passes
/// HAVING.
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
    let schema = output_schema.as_ref().ok_or_else(|| {
        EspError::Plan("aggregate select compiled without an output schema".into())
    })?;
    let Incremental {
        panes,
        kinds,
        outputs,
        rep_schema,
        ..
    } = incremental(from)?;
    // The global group emits even over an empty window, as SQL's
    // `SELECT count(*) FROM empty` does.
    let empty = group_by.is_empty().then(|| Partials::new(kinds));
    // A selected GROUP BY column is written by the pane fold, as the
    // dictionary holds it (a coded string stays coded).
    let keys_at: Vec<Option<usize>> = (outputs.iter())
        .map(|out| match out {
            Output::Key(i) => Some(*i),
            _ => None,
        })
        .collect();
    let mut aggs = Vec::with_capacity(kinds.len());
    panes.emit(
        ctx.epoch,
        schema,
        &keys_at,
        empty.as_ref(),
        |key, partials, row| {
            aggs.clear();
            aggs.extend(partials.as_slice().iter().map(AggregateState::finish));
            let rep = rep_schema
                .as_ref()
                .map(|s| Tuple::new_unchecked(Arc::clone(s), ctx.epoch, key.values()));
            let rep = rep.as_ref();
            let env = RowEnv::single(bindings, rep.as_slice(), Some(&aggs));
            if let Some(h) = having {
                if !eval_expr(h, &env, ctx)?.truthy() {
                    return Ok(false);
                }
            }
            for (item, out) in select.iter().zip(outputs.iter()) {
                row.push(match out {
                    Output::Key(_) => continue,
                    Output::Agg(j) => aggs[*j].clone(),
                    Output::Expr => eval_expr(&item.expr, &env, ctx)?,
                });
            }
            Ok(true)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const KINDS: [PartialKind; 6] = [
        PartialKind::Count,
        PartialKind::Sum,
        PartialKind::Avg,
        PartialKind::Stdev,
        PartialKind::Min,
        PartialKind::Max,
    ];

    fn encode(p: &Partials) -> Vec<u8> {
        let mut blob = Vec::new();
        p.encode_into(&mut blob);
        blob
    }

    /// The partials of `kinds` after folding every value of `vals` into the
    /// first four calls, then `extra` into the call it names.
    fn folded(kinds: &[PartialKind], vals: &[Value], extra: &[(usize, Value)]) -> Partials {
        let mut p = Partials::new(kinds);
        for v in vals {
            for b in p.as_mut_slice().iter_mut().take(4) {
                b.update(v).unwrap();
            }
        }
        for (i, v) in extra {
            p.as_mut_slice()[*i].update(v).unwrap();
        }
        p
    }

    /// Every call of the round-trip test, with `-0.0` and NaN folded in.
    fn six_calls() -> Partials {
        let vals = [Value::Float(-0.0), Value::Int(3), Value::Float(f64::NAN)];
        folded(&KINDS, &vals, &[(4, Value::str("pear"))])
    }

    #[test]
    fn partials_round_trip_bit_exactly() {
        let blob = encode(&six_calls());
        let mut cur = snap::Cursor::new(&blob);
        let back = Partials::decode(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(blob, encode(&back));
        for cut in 0..blob.len() {
            assert!(Partials::decode(&mut snap::Cursor::new(&blob[..cut])).is_err());
        }
    }

    /// The encoding is what it was when every list was a `Vec`: these
    /// bytes were written by that representation.
    #[test]
    fn partials_encode_as_the_vec_form_did() {
        let one = folded(
            &[PartialKind::Count],
            &[Value::Int(7), Value::str("x"), Value::Float(0.5)],
            &[],
        );
        let two = folded(
            &[PartialKind::Avg, PartialKind::Stdev],
            &[1.5, -0.0, 3.0, 4.25].map(Value::Float),
            &[],
        );
        #[rustfmt::skip]
        let fixtures: [(Partials, &[u8], bool); 3] = [
            (one, &[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 3], false),
            (two, &[
                0, 0, 0, 2, 4, 64, 33, 128, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 2, 0, 0, 0, 0,
                0, 0, 0, 4, 64, 1, 128, 0, 0, 0, 0, 0, 64, 36, 88, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0,
                0, 0, 0, 64, 17, 0, 0, 0, 0, 0, 0,
            ], true),
            (six_calls(), &[
                0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 3, 127, 248, 0, 0,
                0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 4, 127, 248, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 3, 2, 0, 0, 0, 0, 0, 0, 0, 3, 127, 248, 0, 0, 0, 0, 0, 0, 127, 248, 0, 0,
                0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 64, 8, 0, 0, 0, 0, 0, 0, 3, 0, 0, 1, 4, 0,
                0, 0, 4, 112, 101, 97, 114, 3, 1, 0, 1, 0,
            ], true),
        ];
        for (p, bytes, spilled) in fixtures {
            assert_eq!(matches!(p, Partials::Spilled(_)), spilled, "{p:?}");
            assert_eq!(encode(&p), bytes);
            let back = Partials::decode(&mut snap::Cursor::new(bytes)).unwrap();
            assert_eq!(matches!(back, Partials::Spilled(_)), spilled, "{back:?}");
            assert_eq!(encode(&back), bytes);
        }
    }

    #[test]
    fn merging_lists_of_different_lengths_fails() {
        let short: Partials = [BuiltinPartial::Count(0)].into_iter().collect();
        let pair: Partials = [5, 7].map(BuiltinPartial::Count).into_iter().collect();
        let triple: Partials = [5, 7, 9].map(BuiltinPartial::Count).into_iter().collect();
        for (into, from, lens) in [
            (&short, &pair, "1 aggregate partials with one of 2"),
            (&pair, &short, "2 aggregate partials with one of 1"),
            (&short, &triple, "1 aggregate partials with one of 3"),
            (&triple, &pair, "3 aggregate partials with one of 2"),
        ] {
            let mut acc = into.clone();
            match acc.merge(from) {
                Err(EspError::Plan(m)) => assert!(m.contains(lens), "{m}"),
                other => panic!("merged {into:?} with {from:?}: {other:?}"),
            }
        }
    }

    /// Which form a pane's list is held in.
    #[derive(Debug, Clone, Copy)]
    enum Form {
        /// The form `FromIterator` picks: inline for a single call.
        Canonical,
        Spilled,
        /// Spilled in even panes, canonical in odd ones.
        Alternating,
    }

    /// Fold each pane's rows into its own list, held in `form`, then merge
    /// the panes oldest first into an accumulator as `PaneStore::merged`
    /// does. The bytes of every pane, of each decoded
    /// pane re-encoded, and of the merge.
    fn run(
        kinds: &[PartialKind],
        strs: &[bool],
        panes: &[Vec<Vec<(u8, i8)>>],
        form: Form,
    ) -> Result<Vec<Vec<u8>>> {
        let value = |call: usize, (sel, x): (u8, i8)| {
            let k = kinds[call];
            if strs[call] && matches!(k, PartialKind::Min | PartialKind::Max) {
                return match sel {
                    0 => Value::Null,
                    _ => Value::str(format!("s{x}")),
                };
            }
            match sel {
                0 => Value::Null,
                1 => Value::Int(i64::from(x)),
                2 => Value::Float(f64::from(x) / 4.0),
                3 => Value::Float(-0.0),
                4 => Value::Float(0.0),
                _ => Value::Float(f64::NAN),
            }
        };
        let mut lists = Vec::new();
        let mut out = Vec::new();
        for (i, rows) in panes.iter().enumerate() {
            let spill = match form {
                Form::Canonical => false,
                Form::Spilled => true,
                Form::Alternating => i % 2 == 0,
            };
            let mut p = if spill {
                Partials::Spilled(kinds.iter().map(|&k| BuiltinPartial::new(k)).collect())
            } else {
                Partials::new(kinds)
            };
            for row in rows {
                for (call, b) in p.as_mut_slice().iter_mut().enumerate() {
                    let v = value(call, row[call]);
                    if !v.is_null() {
                        b.update(&v)?;
                    }
                }
            }
            out.push(encode(&p));
            out.push(encode(&Partials::decode(&mut snap::Cursor::new(&encode(
                &p,
            )))?));
            lists.push(p);
        }
        let mut acc = Partials::default();
        acc.clone_from(&lists[0]);
        for newer in &lists[1..] {
            acc.merge(newer)?;
        }
        out.push(encode(&acc));
        Ok(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|n| n.parse().ok())
                .unwrap_or(256),
        })]

        /// A list of one call is held inline, longer ones spill, and the
        /// form never shows: folding, merging and encoding give
        /// the same bytes, or the same error, held either way.
        #[test]
        fn inline_and_spilled_lists_are_one_partial(
            kinds in vec(0..KINDS.len(), 1..=4),
            strs in vec(any::<bool>(), 4),
            panes in vec(vec(vec((0u8..6, -3i8..4), 4), 0..4), 1..=5),
        ) {
            let kinds: Vec<PartialKind> = kinds.into_iter().map(|k| KINDS[k]).collect();
            let canonical = Partials::new(&kinds);
            prop_assert_eq!(matches!(canonical, Partials::Spilled(_)), kinds.len() > 1);
            let bytes = run(&kinds, &strs, &panes, Form::Canonical);
            prop_assert_eq!(&bytes, &run(&kinds, &strs, &panes, Form::Spilled));
            prop_assert_eq!(&bytes, &run(&kinds, &strs, &panes, Form::Alternating));
        }
    }
}
