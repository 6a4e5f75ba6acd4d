//! The engine: compiles query text and drives per-epoch execution.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use esp_types::{
    chunk_batch, snap, Batch, Chunk, Determinism, EspError, FieldEffects, Result, TimeDelta, Ts,
    Tuple, Value,
};

use crate::aggregate::AggregateFactory;
use crate::catalog::Catalog;
use crate::compile::{compile, CExpr, CSource, CompiledSelect, Window};
use crate::exec::{eval_select, ColumnPruner, ExecCtx, SelectResult};
use crate::incremental;
use crate::parser::parse;
use crate::plan::{clear_resolution, resolve_pass, Mode};

/// Process-wide engine instrumentation handles, resolved once from
/// [`esp_obs::global`]. Recording is gated on [`esp_obs::enabled`] at
/// every site so a disabled process pays one atomic load per tick.
struct QueryObs {
    tick_nanos: esp_obs::Histogram,
    row_ticks: esp_obs::Counter,
    chunk_ticks: esp_obs::Counter,
    groups: esp_obs::Gauge,
}

fn query_obs() -> &'static QueryObs {
    static OBS: std::sync::OnceLock<QueryObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let registry = esp_obs::global();
        QueryObs {
            tick_nanos: registry.histogram("esp_query_tick_nanos", &[]),
            row_ticks: registry.counter("esp_query_row_ticks_total", &[]),
            chunk_ticks: registry.counter("esp_query_chunk_ticks_total", &[]),
            groups: registry.gauge("esp_query_groups", &[]),
        }
    })
}

/// Compiles CQL text into [`ContinuousQuery`] objects and hosts the shared
/// [`Catalog`] (static relations, scalar UDFs, aggregate UDAs).
///
/// ```
/// use esp_query::Engine;
/// use esp_types::{Ts, TupleBuilder, Value, well_known};
///
/// let engine = Engine::new();
/// let mut q = engine
///     .compile("SELECT tag_id, count(*) FROM s [Range By '5 sec'] GROUP BY tag_id")
///     .unwrap();
/// let schema = well_known::rfid_schema();
/// let t = TupleBuilder::new(&schema, Ts::from_secs(1))
///     .set("receptor_id", 0i64).unwrap()
///     .set("tag_id", "tag-1").unwrap()
///     .build()
///     .unwrap();
/// q.push("s", &[t]).unwrap();
/// let out = q.tick(Ts::from_secs(1)).unwrap();
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].get("count"), Some(&Value::Int(1)));
/// ```
#[derive(Clone)]
pub struct Engine {
    catalog: Arc<Catalog>,
}

impl Engine {
    /// An engine with the built-in functions registered.
    pub fn new() -> Engine {
        Engine {
            catalog: Arc::new(Catalog::new()),
        }
    }

    /// Register a static relation available to every subsequently compiled
    /// query (e.g. an inventory list or expected-tag table).
    pub fn register_relation(&mut self, name: impl Into<String>, rows: Batch) {
        Arc::make_mut(&mut self.catalog).register_relation(name, rows);
    }

    /// Register a scalar UDF.
    pub fn register_scalar(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        Arc::make_mut(&mut self.catalog).register_scalar(name, f);
    }

    /// Register a scalar UDF whose result is **not** a pure function of
    /// its arguments (wall-clock reads and the like). Queries calling it
    /// report [`Determinism::Nondeterministic`], and a durable gateway
    /// rejects stages built from them at spawn time (`E0903`).
    pub fn register_volatile_scalar(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        Arc::make_mut(&mut self.catalog).register_volatile_scalar(name, f);
    }

    /// Register a user-defined aggregate.
    pub fn register_aggregate(
        &mut self,
        name: impl Into<String>,
        factory: Arc<dyn AggregateFactory>,
    ) {
        Arc::make_mut(&mut self.catalog).register_aggregate(name, factory);
    }

    /// Access the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parse and compile `sql` into a continuous query.
    pub fn compile(&self, sql: &str) -> Result<ContinuousQuery> {
        let stmt = parse(sql)?;
        let mut root = compile(&stmt, &self.catalog)?;
        incremental::classify(&mut root, &self.catalog);
        let streams = root.stream_names();
        let prune = ColumnPruner::new(root.read_columns());
        Ok(ContinuousQuery {
            root,
            catalog: Arc::clone(&self.catalog),
            pending: HashMap::new(),
            streams,
            text: sql.to_string(),
            reference_mode: false,
            prune,
        })
    }

    /// Parse and compile `sql`, then resolve every field reference against
    /// the declared stream schemas *now*, at deploy time. Unknown or
    /// ambiguous references are rejected with span-carrying diagnostics
    /// ([`EspError::Invalid`]) instead of surfacing as per-row runtime
    /// errors on the first tick. Streams absent from `schemas` (and
    /// relations/derived tables, whose shapes are always known) resolve
    /// as usual; they are checked lazily at runtime.
    ///
    /// The declared schemas are interned, so tuples built from the
    /// well-known singletons (or any interned schema) hit the resolved
    /// slot path from the very first epoch.
    pub fn compile_with_schemas(
        &self,
        sql: &str,
        schemas: &[(&str, Arc<esp_types::Schema>)],
    ) -> Result<ContinuousQuery> {
        let mut query = self.compile(sql)?;
        let declared: HashMap<String, Arc<esp_types::Schema>> = schemas
            .iter()
            .map(|(name, s)| (name.to_string(), esp_types::registry::intern(s)))
            .collect();
        let diags = resolve_pass(&mut query.root, &[], &self.catalog, Mode::Strict(&declared));
        if diags.iter().any(|d| d.is_error()) {
            return Err(EspError::Invalid(diags));
        }
        Ok(query)
    }

    /// One-shot evidence harness: compile `sql` against the declared
    /// `schemas`, push each stream's rows, tick a single epoch at `at`,
    /// and return the emitted batch.
    ///
    /// This is the entry the linter's witness synthesizer uses to replay
    /// a synthesized counterexample through the *shipped* engine — the
    /// exact compile/push/tick path a deployment exercises, not a model
    /// of it — so a validated witness is evidence about the real system.
    pub fn run_once(
        &self,
        sql: &str,
        schemas: &[(&str, Arc<esp_types::Schema>)],
        inputs: &[(&str, Vec<Tuple>)],
        at: Ts,
    ) -> Result<Batch> {
        let mut query = self.compile_with_schemas(sql, schemas)?;
        for (stream, rows) in inputs {
            query.push(stream, rows)?;
        }
        query.tick(at)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// A compiled continuous query with its window state.
///
/// Usage per epoch: [`push`](ContinuousQuery::push) each input stream's
/// batch, then [`tick`](ContinuousQuery::tick) to advance the windows to
/// the epoch and emit the epoch's result rows (CQL `RSTREAM` semantics:
/// the full windowed result at each epoch, stamped with the epoch).
pub struct ContinuousQuery {
    root: CompiledSelect,
    catalog: Arc<Catalog>,
    /// Chunks staged per stream since the last tick, in arrival order.
    pending: HashMap<String, Vec<Chunk>>,
    streams: Vec<String>,
    text: String,
    /// When set, slot resolution is skipped and annotations are cleared:
    /// every tick runs the original name-resolving interpreter.
    reference_mode: bool,
    /// Drops the columns outside [`ContinuousQuery::read_columns`] from
    /// every chunk entering a window (nothing for `SELECT *`): schema and
    /// slot layout are untouched and output is byte-identical; wide
    /// readings just stop retaining unread payloads in window state.
    prune: ColumnPruner,
}

impl ContinuousQuery {
    /// The distinct stream names this query reads.
    pub fn input_streams(&self) -> &[String] {
        &self.streams
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Toggle *reference mode*: when on, the engine strips all slot
    /// annotations and skips plan resolution, so every tick evaluates via
    /// the original per-row name-resolving interpreter (string scope walk
    /// plus nested-loop joins) over buffered windows. A pane-incremental
    /// select goes back to a [`WindowBuffer`](esp_stream::WindowBuffer) —
    /// turn the mode on before the first push, since partials cannot be
    /// turned back into rows — and stays there. Tests use this as the
    /// oracle for the compiled and incremental paths; results are
    /// identical by construction (floats up to reassociation across
    /// panes), only the speed differs.
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
        if on {
            self.root.for_each_window(&mut |_, w| {
                if let Window::Panes(p) = w {
                    *w = Window::Rows(esp_stream::WindowBuffer::new(p.width()));
                }
            });
            clear_resolution(&mut self.root);
        }
    }

    /// Whether this query runs pane-incrementally: each arrival folded
    /// once into per-epoch partials instead of its window being rescanned
    /// every tick (see [`crate::incremental`] for which selects do).
    pub fn is_pane_incremental(&self) -> bool {
        matches!(
            self.root.from.first().map(|item| &item.source),
            Some(CSource::Stream {
                window: Window::Panes(_),
                ..
            })
        )
    }

    /// The set of column names this query can read anywhere (projections,
    /// predicates, keys, aggregate arguments, subqueries), or `None` when
    /// a `SELECT *` makes the read set depend on runtime input schemas.
    /// An over-approximation: pruning input columns outside this set can
    /// never change the query's output.
    pub fn read_columns(&self) -> Option<BTreeSet<String>> {
        self.root.read_columns()
    }

    /// The output column names, or `None` when a `SELECT *` leaves the
    /// output shape to runtime input schemas.
    pub fn output_columns(&self) -> Option<Vec<String>> {
        self.root
            .output_schema
            .as_ref()
            .map(|s| s.fields().iter().map(|f| f.name.clone()).collect())
    }

    /// True when the query computes `count(*)` anywhere: its output then
    /// depends on input row counts even where no column is read.
    pub fn counts_rows(&self) -> bool {
        self.root.counts_rows()
    }

    /// The top-level `GROUP BY` keys that are bare column references
    /// (computed key expressions are omitted). The state-boundedness
    /// analysis (`E0905`) bounds retained per-group state by the product
    /// of these columns' value cardinalities.
    pub fn group_by_columns(&self) -> Vec<String> {
        self.root
            .group_by
            .iter()
            .filter_map(|e| match e {
                CExpr::Field { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect()
    }

    /// The widest window clause anywhere in the query (now-windows count
    /// as zero width) — the query's contribution to a pipeline's lateness
    /// budget (`E0904`).
    pub fn max_window_width(&mut self) -> TimeDelta {
        let mut max = TimeDelta::ZERO;
        self.root.for_each_window(&mut |_, w| {
            if w.width() > max {
                max = w.width();
            }
        });
        max
    }

    /// Whether replaying this query over identical input epochs reproduces
    /// identical output. Tainted when the query calls a volatile scalar
    /// (e.g. the built-in `now()`); a durable gateway rejects tainted
    /// stages at spawn time (`E0903`).
    pub fn determinism(&self) -> Determinism {
        let calls = self.root.volatile_calls(&self.catalog);
        match calls.first() {
            None => Determinism::Deterministic,
            Some(name) => {
                Determinism::nondeterministic(format!("calls volatile scalar '{name}()'"))
            }
        }
    }

    /// Static field-effect summary for the E09xx dataflow analyses: what
    /// this query reads, what it writes, and whether it counts rows.
    /// Queries with `SELECT *` summarize as opaque (reads and writes
    /// everything).
    pub fn field_effects(&self) -> FieldEffects {
        let fe = match (self.read_columns(), self.output_columns()) {
            (Some(reads), Some(writes)) => FieldEffects::projection(reads, writes),
            _ => FieldEffects::opaque(),
        };
        if self.counts_rows() {
            fe.with_row_counting()
        } else {
            fe
        }
    }

    /// Append the query's window state: a `u32` window count, then each
    /// window in [`CompiledSelect::for_each_window`] order as a kind tag
    /// (0 rows, 1 panes) and its own codec's bytes. Call between ticks:
    /// arrivals staged since the last tick are not part of the state.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        let mut n = 0u32;
        self.root.windows(&mut |_| n += 1);
        snap::put_u32(out, n);
        self.root.windows(&mut |w| w.encode_into(out));
    }

    /// Restore state written by [`ContinuousQuery::encode_state`] into
    /// this freshly compiled query. A blob from a query with another
    /// window count, window kind or window width is rejected, as are
    /// truncated or trailing bytes.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut cur = snap::Cursor::new(bytes);
        let mut n = 0u32;
        self.root.for_each_window(&mut |_, _| n += 1);
        let encoded = cur.u32()?;
        if encoded != n {
            return Err(EspError::Snapshot(format!(
                "query snapshot holds {encoded} window(s) but the query has {n}"
            )));
        }
        let mut restored = Ok(());
        self.root.for_each_window(&mut |_, w| {
            if restored.is_ok() {
                restored = w.restore_from(&mut cur);
            }
        });
        restored?;
        cur.finish()
    }

    /// The staging list of `stream`; unknown stream names are rejected.
    fn staged(&mut self, stream: &str) -> Result<&mut Vec<Chunk>> {
        if !self.streams.iter().any(|s| s == stream) {
            return Err(EspError::UnknownSource(format!(
                "stream '{stream}' is not read by this query"
            )));
        }
        Ok(self.pending.entry(stream.to_string()).or_default())
    }

    /// Stage a row batch for `stream`, to be absorbed at the next tick:
    /// the rows are converted to chunks (one per run of equal schemas,
    /// losslessly) and take the same path as [`ContinuousQuery::push_chunk`].
    pub fn push(&mut self, stream: &str, batch: &[Tuple]) -> Result<()> {
        self.staged(stream)?.extend(chunk_batch(batch));
        Ok(())
    }

    /// Stage a columnar chunk for `stream`, to be absorbed at the next
    /// tick. The chunk feeds the window's column segments directly — no
    /// per-row `Tuple` is materialized on ingest. Arrivals enter the
    /// window in push order.
    pub fn push_chunk(&mut self, stream: &str, chunk: Chunk) -> Result<()> {
        let staged = self.staged(stream)?;
        if !chunk.is_empty() {
            staged.push(chunk);
        }
        Ok(())
    }

    /// Absorb staged batches, slide every window to `epoch`, evaluate, and
    /// return the result rows stamped at `epoch`.
    ///
    /// An `Err` leaves the query's window state unspecified: the arrivals
    /// staged for this tick may be partly absorbed. Callers treat it as
    /// fatal for the query.
    pub fn tick(&mut self, epoch: Ts) -> Result<Batch> {
        if esp_obs::enabled() {
            query_obs().row_ticks.inc();
        }
        Ok(match self.tick_result(epoch)? {
            Emitted::Rows(result) => result.into_batch(epoch),
            Emitted::Chunk(chunk) => chunk.to_tuples(),
        })
    }

    /// Like [`ContinuousQuery::tick`], but the emitted rows come back as a
    /// single columnar chunk stamped at `epoch` — the chunk-path egress the
    /// stage cascade forwards between declarative stages. Errors as
    /// [`ContinuousQuery::tick`] does.
    pub fn tick_chunk(&mut self, epoch: Ts) -> Result<Chunk> {
        if esp_obs::enabled() {
            query_obs().chunk_ticks.inc();
        }
        match self.tick_result(epoch)? {
            Emitted::Rows(result) => result.into_chunk(epoch),
            Emitted::Chunk(chunk) => Ok(chunk),
        }
    }

    fn tick_result(&mut self, epoch: Ts) -> Result<Emitted> {
        let obs = esp_obs::enabled().then(query_obs);
        let started = obs.map(|_| std::time::Instant::now());
        let result = if self.is_pane_incremental() {
            let staged = std::mem::take(&mut self.pending).into_values().flatten();
            let ctx = ExecCtx {
                catalog: &self.catalog,
                epoch,
            };
            incremental::tick(&mut self.root, staged.collect(), &ctx)
                .map(|(chunk, groups)| (Emitted::Chunk(chunk), groups))
        } else {
            self.rescan(epoch).map(|result| {
                let groups = result.groups;
                (Emitted::Rows(result), groups)
            })
        };
        if let (Some(o), Some(t0)) = (obs, started) {
            o.tick_nanos.record(t0.elapsed().as_nanos() as u64);
            if let Ok((_, groups)) = &result {
                if !self.root.group_by.is_empty() {
                    o.groups.set(*groups as u64);
                }
            }
        }
        result.map(|(emitted, _)| emitted)
    }

    /// The rescan path: absorb staged chunks into the windows, slide them
    /// to `epoch` and evaluate the select over their contents.
    fn rescan(&mut self, epoch: Ts) -> Result<SelectResult> {
        let mut pending = std::mem::take(&mut self.pending);
        // One stream can feed several FROM items; count the windows per
        // stream so the *last* visit can take the staged chunks by value
        // (the visits before it clone).
        let mut visits_left: HashMap<String, usize> = HashMap::new();
        if !pending.is_empty() {
            self.root.for_each_window(&mut |name, _| {
                *visits_left.entry(name.to_string()).or_default() += 1;
            });
        }
        let (prune, reference_mode) = (&mut self.prune, self.reference_mode);
        self.root.for_each_window(&mut |name, w| {
            let Window::Rows(w) = w else {
                return;
            };
            // Slide first: everything ingested below is (re)stamped at
            // `epoch`, at or above any eviction cutoff, so sliding cannot
            // touch it — and now-windows are drained before the push,
            // letting a sorted chunk be adopted wholesale.
            w.advance_to(epoch);
            let last_visit = match visits_left.get_mut(name) {
                Some(n) => {
                    *n -= 1;
                    *n == 0
                }
                None => true,
            };
            let staged = if last_visit {
                pending.remove(name)
            } else {
                pending.get(name).cloned()
            };
            for mut c in staged.into_iter().flatten() {
                // Rows enter the window stamped at the epoch, so that
                // now-windows ([Range By 'NOW']) retain exactly this
                // epoch's arrivals; columns outside the live set are
                // dropped physically (the reference interpreter keeps
                // them, so it also checks that pruning is invisible).
                if c.ts().iter().any(|t| *t != epoch) {
                    c.restamp(epoch);
                }
                if !reference_mode {
                    prune.prune_chunk(&mut c);
                }
                w.push_chunk_owned(c);
            }
        });
        if !self.reference_mode {
            // Annotate field slots / join keys against the current window
            // schemas. Cached: with interned schemas this is a few pointer
            // comparisons per tick after the first.
            resolve_pass(&mut self.root, &[], &self.catalog, Mode::Lazy);
        }
        let ctx = ExecCtx {
            catalog: &self.catalog,
            epoch,
        };
        eval_select(&self.root, None, &ctx)
    }
}

/// What one tick emits: rows from the rescan, or the chunk the
/// incremental path writes column by column.
enum Emitted {
    Rows(SelectResult),
    Chunk(Chunk),
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{well_known, TimeDelta, TupleBuilder};

    fn rfid(ts: Ts, tag: &str) -> Tuple {
        TupleBuilder::new(&well_known::rfid_schema(), ts)
            .set("receptor_id", 0i64)
            .unwrap()
            .set("tag_id", tag)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn sliding_window_retains_across_ticks() {
        let engine = Engine::new();
        let mut q = engine
            .compile("SELECT tag_id, count(*) FROM s [Range By '5 sec'] GROUP BY tag_id")
            .unwrap();
        // Tag seen at t=0 only; it should still be counted at t=4 but not t=6.
        q.push("s", &[rfid(Ts::ZERO, "a")]).unwrap();
        let out = q.tick(Ts::ZERO).unwrap();
        assert_eq!(out.len(), 1);
        for t in 1..=4u64 {
            let out = q.tick(Ts::from_secs(t)).unwrap();
            assert_eq!(out.len(), 1, "still in window at t={t}");
            assert_eq!(out[0].get("count"), Some(&Value::Int(1)));
            assert_eq!(out[0].ts(), Ts::from_secs(t), "restamped at epoch");
        }
        let out = q.tick(Ts::from_secs(6)).unwrap();
        assert!(out.is_empty(), "evicted after the granule passes");
    }

    #[test]
    fn now_window_sees_only_current_epoch() {
        let engine = Engine::new();
        let mut q = engine
            .compile("SELECT tag_id FROM s [Range By 'NOW']")
            .unwrap();
        q.push("s", &[rfid(Ts::ZERO, "a")]).unwrap();
        assert_eq!(q.tick(Ts::ZERO).unwrap().len(), 1);
        assert!(q.tick(Ts::from_millis(200)).unwrap().is_empty());
    }

    #[test]
    fn push_to_unknown_stream_rejected() {
        let engine = Engine::new();
        let mut q = engine
            .compile("SELECT tag_id FROM s [Range By 'NOW']")
            .unwrap();
        assert!(q.push("other", &[]).is_err());
        assert_eq!(q.input_streams(), &["s".to_string()]);
    }

    #[test]
    fn late_tuples_are_restamped_into_the_epoch() {
        let engine = Engine::new();
        let mut q = engine
            .compile("SELECT count(*) FROM s [Range By 'NOW']")
            .unwrap();
        // Tuple stamped in the past still lands in the current now-window.
        q.push("s", &[rfid(Ts::ZERO, "a")]).unwrap();
        let out = q.tick(Ts::from_secs(10)).unwrap();
        assert_eq!(out[0].get("count"), Some(&Value::Int(1)));
    }

    #[test]
    fn reference_mode_matches_compiled_path() {
        let sql = "SELECT l.tag_id, count(*) FROM s l [Range By '5 sec'], s2 r [Range By '5 sec'] \
                   WHERE l.tag_id = r.tag_id GROUP BY l.tag_id";
        let engine = Engine::new();
        let mut compiled = engine.compile(sql).unwrap();
        let mut reference = engine.compile(sql).unwrap();
        reference.set_reference_mode(true);
        for (epoch, tag) in [(0u64, "a"), (1, "b"), (2, "a"), (3, "c")] {
            let batch = [rfid(Ts::from_secs(epoch), tag)];
            for q in [&mut compiled, &mut reference] {
                q.push("s", &batch).unwrap();
                q.push("s2", &batch).unwrap();
            }
            let a = compiled.tick(Ts::from_secs(epoch)).unwrap();
            let b = reference.tick(Ts::from_secs(epoch)).unwrap();
            assert_eq!(a, b, "epoch {epoch} diverged");
        }
    }

    #[test]
    fn compile_with_schemas_rejects_unknown_field_at_deploy_time() {
        let engine = Engine::new();
        let Err(err) = engine.compile_with_schemas(
            "SELECT bogus FROM s [Range By '5 sec']",
            &[("s", well_known::rfid_schema())],
        ) else {
            panic!("expected deploy-time rejection");
        };
        let EspError::Invalid(diags) = err else {
            panic!("expected Invalid, got {err}");
        };
        assert_eq!(diags[0].code, "E0101");
        assert!(diags[0].message.contains("bogus"));
        assert!(diags[0].span.is_some(), "diagnostic carries the span");
        // The same query against a valid field deploys fine.
        assert!(engine
            .compile_with_schemas(
                "SELECT tag_id FROM s [Range By '5 sec']",
                &[("s", well_known::rfid_schema())],
            )
            .is_ok());
    }

    #[test]
    fn effect_accessors_summarize_the_query() {
        let engine = Engine::new();
        let mut q = engine
            .compile(
                "SELECT tag_id, count(*) FROM s [Range By '5 sec'] \
                 WHERE receptor_id > 0 GROUP BY tag_id",
            )
            .unwrap();
        let reads = q.read_columns().unwrap();
        assert!(reads.contains("tag_id") && reads.contains("receptor_id"));
        assert_eq!(
            q.output_columns().unwrap(),
            vec!["tag_id".to_string(), "count".to_string()]
        );
        assert!(q.counts_rows());
        assert_eq!(q.max_window_width(), TimeDelta::from_secs(5));
        assert!(q.determinism().is_deterministic());
        let fe = q.field_effects();
        assert!(fe.counts_rows && !fe.opaque);
        // SELECT * defeats static summaries.
        let star = engine.compile("SELECT * FROM s [Range By 'NOW']").unwrap();
        assert!(star.read_columns().is_none());
        assert!(star.field_effects().opaque);
    }

    #[test]
    fn volatile_call_taints_determinism() {
        let engine = Engine::new();
        let q = engine
            .compile("SELECT tag_id, now() FROM s [Range By 'NOW']")
            .unwrap();
        let Determinism::Nondeterministic { reason } = q.determinism() else {
            panic!("now() should taint the query");
        };
        assert!(reason.contains("now"), "{reason}");
        assert!(engine
            .compile("SELECT tag_id FROM s [Range By 'NOW']")
            .unwrap()
            .determinism()
            .is_deterministic());
    }

    #[test]
    fn derived_column_pruning_is_invisible() {
        // Pruning follows from `read_columns()`; the reference interpreter
        // runs unpruned, so equal output means nothing live was dropped.
        // A `*` below a quantified subquery does not stop pruning (the
        // subquery must name the one column it projects); a `*` that
        // reaches the output does.
        let engine = Engine::new();
        for (sql, prunes) in [
            (
                "SELECT tag_id, count(*) FROM s [Range By '5 sec'] GROUP BY tag_id",
                true,
            ),
            (
                "SELECT tag_id FROM s [Range By '5 sec'] WHERE receptor_id >= \
                 ALL(SELECT d.receptor_id FROM (SELECT * FROM s [Range By 'NOW']) d)",
                true,
            ),
            ("SELECT * FROM s [Range By '5 sec']", false),
        ] {
            let mut pruned = engine.compile(sql).unwrap();
            assert_eq!(pruned.read_columns().is_some(), prunes, "{sql}");
            let mut reference = engine.compile(sql).unwrap();
            reference.set_reference_mode(true);
            for (epoch, tag) in [(0u64, "a"), (1, "b"), (2, "a")] {
                let batch = [rfid(Ts::from_secs(epoch), tag)];
                pruned.push("s", &batch).unwrap();
                reference.push("s", &batch).unwrap();
                let a = pruned.tick(Ts::from_secs(epoch)).unwrap();
                let b = reference.tick(Ts::from_secs(epoch)).unwrap();
                assert!(!a.is_empty(), "{sql}: epoch {epoch} emitted nothing");
                assert_eq!(a, b, "{sql}: epoch {epoch} diverged under pruning");
            }
        }
    }

    #[test]
    fn window_expansion_via_wider_range() {
        // The redwood scenario: samples every 5 minutes, Smooth window of
        // 30 minutes still emits every 5 minutes.
        let engine = Engine::new();
        let mut q = engine
            .compile("SELECT avg(temp) FROM s [Range By '30 min'] GROUP BY receptor_id")
            .unwrap();
        let schema = well_known::temp_schema();
        let mut epoch = Ts::ZERO;
        let mut yields = 0;
        for i in 0..12u64 {
            // Mote reports only every other epoch (50% loss).
            if i % 2 == 0 {
                let t = TupleBuilder::new(&schema, epoch)
                    .set("receptor_id", 7i64)
                    .unwrap()
                    .set("temp", 20.0 + i as f64)
                    .unwrap()
                    .build()
                    .unwrap();
                q.push("s", &[t]).unwrap();
            }
            let out = q.tick(epoch).unwrap();
            if !out.is_empty() {
                yields += 1;
            }
            epoch += TimeDelta::from_mins(5);
        }
        // The expanded window masks every dropout after the first report.
        assert_eq!(yields, 12);
    }
}
