//! Linting of CQL query text against declared stream schemas and the
//! scheduler epoch.
//!
//! The query language has no DDL — at runtime a [`ContinuousQuery`]
//! discovers its input schema from the first tuple that arrives. To check
//! a query *statically* the linter therefore needs the schemas declared
//! out of band, via `-- lint:` directives embedded in the query text
//! (ordinary CQL comments, invisible to the parser):
//!
//! ```text
//! -- lint: stream rfid_data rfid
//! -- lint: stream readings (receptor_id int, temp float)
//! -- lint: epoch 5 sec
//! SELECT tag_id, count(*) FROM rfid_data [Range By '5 sec'] GROUP BY tag_id
//! ```
//!
//! `stream <name> <schema>` binds a stream name to either a well-known
//! schema (`rfid`, `temp`, `temp_voltage`, `sound`, `motion`) or an inline
//! field list. `epoch <span>` declares the scheduler epoch the window
//! clauses are checked against. `range <stream>.<field> <lo>..<hi>`
//! declares the physical range of a numeric field, enabling the semantic
//! E06xx checks (dead predicates, redundant filters, reachable division
//! by zero — see the `absint` module). Without directives the linter still
//! checks everything that needs no declaration (syntax, qualifier
//! resolution, literal-only type errors); it never guesses a schema, so
//! an undeclared stream silences the checks that would need one.
//!
//! [`ContinuousQuery`]: esp_query::ContinuousQuery

use std::collections::HashMap;
use std::sync::Arc;

use esp_query::ast::{ArithOp, Expr, FromItem, FromSource, SelectItem, SelectStmt};
use esp_query::Catalog;
use esp_types::{
    Applicability, DataType, Diagnostic, EspError, Schema, Span, Suggestion, TimeDelta, Value,
};

use crate::absint::{
    check_div_hazards, check_predicate, parse_range_directive, validate_range_decl, RangeDecls,
    ScopeEnv,
};

/// Lint one CQL source text (with optional `-- lint:` directives) and
/// return every finding, sorted for presentation.
pub fn lint_cql(source: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let directives = parse_directives(source, &mut diags);
    match esp_query::parse(source) {
        Ok(stmt) => {
            let catalog = Catalog::new();
            let mut ctx = LintCtx {
                catalog: &catalog,
                streams: &directives.streams,
                ranges: &directives.ranges,
                epoch: directives.epoch,
                diags: &mut diags,
            };
            ctx.check_select(&stmt, &[]);
        }
        Err(EspError::Parse { message, offset }) => {
            let mut d = Diagnostic::error("E0001", format!("query does not parse: {message}"));
            if let Some(off) = offset {
                d = d.with_span(Span::new(off, off + 1));
            }
            diags.push(d);
        }
        Err(other) => {
            diags.push(Diagnostic::error(
                "E0001",
                format!("query does not parse: {other}"),
            ));
        }
    }
    crate::fix::attach_cql_suggestions(source, &mut diags);
    esp_types::diag::sort_diagnostics(&mut diags);
    diags
}

/// Declarations recovered from `-- lint:` directive comments.
pub(crate) struct Directives {
    pub(crate) streams: HashMap<String, Arc<Schema>>,
    pub(crate) ranges: RangeDecls,
    pub(crate) epoch: Option<TimeDelta>,
}

pub(crate) fn parse_directives(source: &str, diags: &mut Vec<Diagnostic>) -> Directives {
    let mut streams = HashMap::new();
    let mut ranges = RangeDecls::new();
    // Range directives may precede the stream they constrain; validate
    // them against the schemas once every directive has been read.
    let mut pending_ranges: Vec<((String, String), Span)> = Vec::new();
    let mut epoch = None;
    let mut offset = 0;
    for line in source.split_inclusive('\n') {
        let line_start = offset;
        offset += line.len();
        let trimmed = line.trim_start();
        let Some(rest) = trimmed.strip_prefix("-- lint:") else {
            continue;
        };
        let indent = line.len() - trimmed.len();
        let span = Span::new(
            line_start + indent,
            line_start + indent + trimmed.trim_end().len(),
        );
        let rest = rest.trim();
        if let Some(spec) = rest.strip_prefix("stream ") {
            match parse_stream_directive(spec.trim()) {
                Ok((name, schema)) => {
                    streams.insert(name, schema);
                }
                Err(msg) => diags.push(
                    Diagnostic::error("E0002", format!("bad lint directive: {msg}"))
                        .with_span(span),
                ),
            }
        } else if let Some(spec) = rest.strip_prefix("range ") {
            match parse_range_directive(spec) {
                Ok((key, iv)) => {
                    pending_ranges.push((key.clone(), span));
                    ranges.insert(key, iv);
                }
                Err(msg) => diags.push(
                    Diagnostic::error("E0002", format!("bad lint directive: {msg}"))
                        .with_span(span),
                ),
            }
        } else if let Some(spec) = rest.strip_prefix("epoch ") {
            match TimeDelta::parse(spec.trim()) {
                Ok(e) if e != TimeDelta::ZERO => epoch = Some(e),
                Ok(_) => diags.push(
                    Diagnostic::error("E0002", "bad lint directive: epoch must be positive")
                        .with_span(span),
                ),
                Err(e) => diags.push(
                    Diagnostic::error("E0002", format!("bad lint directive: {e}")).with_span(span),
                ),
            }
        } else {
            diags.push(
                Diagnostic::error(
                    "E0002",
                    format!("bad lint directive: unknown form '{rest}'"),
                )
                .with_span(span),
            );
        }
    }
    for ((stream, field), span) in pending_ranges {
        if let Err(msg) = validate_range_decl(&stream, &field, &streams) {
            diags.push(
                Diagnostic::error("E0002", format!("bad lint directive: {msg}")).with_span(span),
            );
            ranges.remove(&(stream, field));
        }
    }
    Directives {
        streams,
        ranges,
        epoch,
    }
}

fn parse_stream_directive(spec: &str) -> Result<(String, Arc<Schema>), String> {
    let (name, schema_spec) = spec
        .split_once(char::is_whitespace)
        .ok_or("expected 'stream <name> <schema>'")?;
    let schema_spec = schema_spec.trim();
    let schema = if let Some(fields) = schema_spec
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
    {
        let mut builder = Schema::builder();
        for field in fields.split(',') {
            let (fname, ftype) = field
                .trim()
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("field '{}' needs a type", field.trim()))?;
            builder = builder.field(fname.trim(), parse_data_type(ftype.trim())?);
        }
        builder.build().map_err(|e| e.to_string())?
    } else {
        well_known_schema(schema_spec)
            .ok_or_else(|| format!("unknown well-known schema '{schema_spec}'"))?
    };
    Ok((name.to_string(), schema))
}

fn parse_data_type(s: &str) -> Result<DataType, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "int" => DataType::Int,
        "float" => DataType::Float,
        "str" | "string" => DataType::Str,
        "bool" => DataType::Bool,
        "ts" => DataType::Ts,
        "any" => DataType::Any,
        other => return Err(format!("unknown data type '{other}'")),
    })
}

fn well_known_schema(name: &str) -> Option<Arc<Schema>> {
    use esp_types::well_known;
    Some(match name {
        "rfid" => well_known::rfid_schema(),
        "temp" => well_known::temp_schema(),
        "temp_voltage" => well_known::temp_voltage_schema(),
        "sound" => well_known::sound_schema(),
        "motion" => well_known::motion_schema(),
        _ => return None,
    })
}

/// One name visible in a query scope: a `FROM` binding and (when the
/// linter could determine it) its schema.
#[derive(Clone)]
pub(crate) struct Binding {
    /// The name this item binds (alias or bare stream name).
    pub(crate) name: Option<String>,
    /// The schema, when determinable.
    pub(crate) schema: Option<Arc<Schema>>,
    /// The underlying declared stream (`None` for derived tables) —
    /// the key under which `range` directives attach.
    pub(crate) stream: Option<String>,
}

struct LintCtx<'a> {
    catalog: &'a Catalog,
    streams: &'a HashMap<String, Arc<Schema>>,
    ranges: &'a RangeDecls,
    epoch: Option<TimeDelta>,
    diags: &'a mut Vec<Diagnostic>,
}

impl LintCtx<'_> {
    /// Check one `SELECT` (recursively) under `outer` scope (for
    /// correlated subqueries) and return its output schema when fully
    /// determined.
    fn check_select(&mut self, stmt: &SelectStmt, outer: &[Binding]) -> Option<Arc<Schema>> {
        let mut scope: Vec<Binding> = Vec::new();
        for item in &stmt.from {
            scope.push(self.check_from_item(item, outer));
        }
        scope.extend(outer.iter().cloned());

        for item in &stmt.select {
            self.check_expr(&item.expr, &scope);
        }
        for e in stmt
            .where_clause
            .iter()
            .chain(stmt.group_by.iter())
            .chain(stmt.having.iter())
        {
            self.check_expr(e, &scope);
        }
        self.check_semantics(stmt, &scope);
        self.output_schema(stmt, &scope)
    }

    /// The E06xx abstract-interpretation pass over one (sub)query's
    /// clauses: dead/redundant predicates and reachable zero divisors.
    fn check_semantics(&mut self, stmt: &SelectStmt, scope: &[Binding]) {
        let env = ScopeEnv {
            scope,
            ranges: self.ranges,
            catalog: self.catalog,
            grouped: false,
        };
        for item in &stmt.select {
            check_div_hazards(&item.expr, &env, self.diags);
        }
        for g in &stmt.group_by {
            check_div_hazards(g, &env, self.diags);
        }
        if let Some(w) = &stmt.where_clause {
            check_predicate(w, &env, "WHERE", self.diags);
            check_div_hazards(w, &env, self.diags);
        }
        if let Some(h) = &stmt.having {
            // HAVING sees per-group aggregates; a non-empty GROUP BY
            // guarantees non-empty groups, which sharpens them.
            let env = ScopeEnv {
                grouped: !stmt.group_by.is_empty(),
                ..env
            };
            check_predicate(h, &env, "HAVING", self.diags);
            check_div_hazards(h, &env, self.diags);
        }
    }

    fn check_from_item(&mut self, item: &FromItem, outer: &[Binding]) -> Binding {
        if let Some(w) = &item.window {
            if let Some(epoch) = self.epoch {
                // The NOW window (zero range) is always epoch-aligned.
                if w.range != TimeDelta::ZERO {
                    if w.range < epoch {
                        self.diags.push(
                            Diagnostic::error(
                                "E0201",
                                format!(
                                    "window range ({}) is narrower than the scheduler \
                                     epoch ({epoch})",
                                    w.range
                                ),
                            )
                            .with_span(w.span)
                            .with_note(
                                "tuples from earlier epochs are evicted before the next \
                                 tick ever sees them",
                            )
                            .with_suggestion(Suggestion::new(
                                format!("widen the window to the epoch ({epoch})"),
                                w.span,
                                format!("[Range By '{epoch}']"),
                                Applicability::MachineApplicable,
                            )),
                        );
                    } else if epoch.as_millis() > 0 && w.range.as_millis() % epoch.as_millis() != 0
                    {
                        self.diags.push(
                            Diagnostic::error(
                                "E0202",
                                format!(
                                    "window range ({}) is not a whole multiple of the \
                                     scheduler epoch ({epoch})",
                                    w.range
                                ),
                            )
                            .with_span(w.span)
                            .with_note(
                                "eviction would cut through an epoch's tuples; use an \
                                 integer multiple of the epoch",
                            )
                            .with_suggestion(aligned_window_suggestion(w.range, epoch, w.span)),
                        );
                    }
                }
            }
        }
        match &item.source {
            FromSource::Named(name) => {
                let schema = self.streams.get(name).cloned();
                if schema.is_none() && !self.streams.is_empty() {
                    self.diags.push(
                        Diagnostic::error("E0106", format!("unknown stream '{name}'"))
                            .with_span(item.span)
                            .with_note(format!("declared streams: {}", sorted_names(self.streams))),
                    );
                }
                Binding {
                    name: item.binding().map(str::to_string),
                    schema,
                    stream: Some(name.clone()),
                }
            }
            FromSource::Derived(sub) => {
                let schema = self.check_select(sub, outer);
                Binding {
                    name: item.alias.clone(),
                    schema,
                    stream: None,
                }
            }
        }
    }

    /// Check an expression tree and return its inferred static type
    /// (`None` when undeterminable).
    fn check_expr(&mut self, expr: &Expr, scope: &[Binding]) -> Option<DataType> {
        match expr {
            Expr::Literal(v) => literal_type(v),
            Expr::Field {
                qualifier,
                name,
                span,
            } => self.check_field(qualifier.as_deref(), name, *span, scope),
            Expr::Call {
                name,
                args,
                star,
                span,
                ..
            } => self.check_call(name, args, *star, *span, scope),
            Expr::Arith { lhs, op, rhs } => {
                let lt = self.check_expr(lhs, scope);
                let rt = self.check_expr(rhs, scope);
                for (t, side) in [(lt, lhs), (rt, rhs)] {
                    if t == Some(DataType::Str) {
                        self.diags.push(
                            Diagnostic::error(
                                "E0104",
                                format!("arithmetic '{}' applied to a string operand", op.symbol()),
                            )
                            .with_span(side.span())
                            .with_note("only INT and FLOAT values support arithmetic"),
                        );
                    }
                }
                arith_type(*op, lt, rt)
            }
            Expr::Cmp { lhs, op, rhs } => {
                let lt = self.check_expr(lhs, scope);
                let rt = self.check_expr(rhs, scope);
                if let (Some(a), Some(b)) = (lt, rt) {
                    if !comparable(a, b) {
                        self.diags.push(
                            Diagnostic::error(
                                "E0105",
                                format!(
                                    "comparison '{}' between incompatible types \
                                     {a:?} and {b:?}",
                                    op.symbol()
                                ),
                            )
                            .with_span(lhs.span().join(rhs.span()))
                            .with_note(
                                "a string never compares equal to a number; this \
                                 predicate is constant",
                            ),
                        );
                    }
                }
                Some(DataType::Bool)
            }
            Expr::QuantifiedCmp { lhs, subquery, .. } => {
                self.check_expr(lhs, scope);
                self.check_select(subquery, scope);
                Some(DataType::Bool)
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.check_expr(a, scope);
                self.check_expr(b, scope);
                Some(DataType::Bool)
            }
            Expr::Not(e) => {
                self.check_expr(e, scope);
                Some(DataType::Bool)
            }
            Expr::Neg(e) => {
                let t = self.check_expr(e, scope);
                if t == Some(DataType::Str) {
                    self.diags.push(
                        Diagnostic::error("E0104", "unary minus applied to a string")
                            .with_span(e.span()),
                    );
                }
                t
            }
        }
    }

    fn check_field(
        &mut self,
        qualifier: Option<&str>,
        name: &str,
        span: Span,
        scope: &[Binding],
    ) -> Option<DataType> {
        if let Some(q) = qualifier {
            let Some(binding) = scope.iter().find(|b| b.name.as_deref() == Some(q)) else {
                self.diags.push(
                    Diagnostic::error("E0102", format!("unknown qualifier '{q}' in '{q}.{name}'"))
                        .with_span(span)
                        .with_note("qualifiers must match a FROM source name or alias"),
                );
                return None;
            };
            let schema = binding.schema.as_ref()?;
            match schema.field(name) {
                Some(f) => Some(f.data_type),
                None => {
                    self.diags.push(
                        Diagnostic::error("E0101", format!("stream '{q}' has no field '{name}'"))
                            .with_span(span)
                            .with_note(format!("available fields: {}", field_names(schema))),
                    );
                    None
                }
            }
        } else {
            // Unqualified: resolvable against any binding. Only report a
            // missing field when *every* schema in scope is known — an
            // undeclared stream could always have supplied it.
            let mut found = None;
            for b in scope {
                match &b.schema {
                    Some(s) => {
                        if let Some(f) = s.field(name) {
                            found = Some(f.data_type);
                            break;
                        }
                    }
                    None => return None,
                }
            }
            if found.is_none() && !scope.is_empty() {
                self.diags.push(
                    Diagnostic::error("E0101", format!("no stream in scope has a field '{name}'"))
                        .with_span(span),
                );
            }
            found
        }
    }

    fn check_call(
        &mut self,
        name: &str,
        args: &[Expr],
        star: bool,
        span: Span,
        scope: &[Binding],
    ) -> Option<DataType> {
        let arg_types: Vec<Option<DataType>> =
            args.iter().map(|a| self.check_expr(a, scope)).collect();
        if let Some(factory) = self.catalog.aggregate(name) {
            if !star {
                if let Some(Some(dt)) = arg_types.first() {
                    let req = factory.arg_requirement();
                    if !req.admits(*dt) {
                        self.diags.push(
                            Diagnostic::error(
                                "E0103",
                                format!(
                                    "aggregate '{name}' requires a numeric argument, \
                                     but its input is {dt:?}"
                                ),
                            )
                            .with_span(span)
                            .with_note(
                                "the runtime would only fail on the first non-numeric \
                                 row; fix the column or the aggregate",
                            ),
                        );
                        return None;
                    }
                }
            }
            return aggregate_return_type(name, arg_types.first().copied().flatten());
        }
        // Scalar functions: abs preserves its argument type, coalesce its
        // first; anything unregistered is unknown (the engine may have
        // UDFs the linter cannot see).
        match name {
            "abs" => arg_types.first().copied().flatten(),
            "coalesce" => arg_types.first().copied().flatten(),
            _ => None,
        }
    }

    /// Output schema of a select, when every column's name and type can be
    /// determined statically. Conservative: any uncertainty yields `None`
    /// so downstream checks stay silent rather than guess.
    fn output_schema(&self, stmt: &SelectStmt, scope: &[Binding]) -> Option<Arc<Schema>> {
        if stmt.is_star() {
            // `SELECT *`: the concatenation of all source schemas.
            if scope.len() == 1 {
                return scope[0].schema.clone();
            }
            return None;
        }
        let mut builder = Schema::builder();
        for item in &stmt.select {
            let (name, dt) = self.output_column(item, scope)?;
            builder = builder.field(name, dt);
        }
        builder.build().ok()
    }

    fn output_column(&self, item: &SelectItem, scope: &[Binding]) -> Option<(String, DataType)> {
        let dt = self.peek_type(&item.expr, scope).unwrap_or(DataType::Any);
        if let Some(alias) = &item.alias {
            return Some((alias.clone(), dt));
        }
        match &item.expr {
            Expr::Field { name, .. } => Some((name.clone(), dt)),
            // Unaliased computed columns: the engine synthesizes a name
            // the linter does not reproduce; give up on the whole schema.
            _ => None,
        }
    }

    /// Side-effect-free type peek (no diagnostics), for output schemas.
    fn peek_type(&self, expr: &Expr, scope: &[Binding]) -> Option<DataType> {
        match expr {
            Expr::Literal(v) => literal_type(v),
            Expr::Field {
                qualifier, name, ..
            } => {
                let schemas: Vec<&Arc<Schema>> = scope
                    .iter()
                    .filter(|b| match qualifier {
                        Some(q) => b.name.as_deref() == Some(q),
                        None => true,
                    })
                    .filter_map(|b| b.schema.as_ref())
                    .collect();
                schemas
                    .iter()
                    .find_map(|s| s.field(name))
                    .map(|f| f.data_type)
            }
            Expr::Call { name, args, .. } => {
                let arg = args.first().and_then(|a| self.peek_type(a, scope));
                if self.catalog.is_aggregate(name) {
                    aggregate_return_type(name, arg)
                } else {
                    match name.as_str() {
                        "abs" | "coalesce" => arg,
                        _ => None,
                    }
                }
            }
            Expr::Arith { lhs, op, rhs } => {
                arith_type(*op, self.peek_type(lhs, scope), self.peek_type(rhs, scope))
            }
            Expr::Cmp { .. }
            | Expr::QuantifiedCmp { .. }
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(_) => Some(DataType::Bool),
            Expr::Neg(e) => self.peek_type(e, scope),
        }
    }
}

/// The forced repair for an unaligned window (`E0202`): round the range
/// up to the next whole multiple of the epoch.
fn aligned_window_suggestion(range: TimeDelta, epoch: TimeDelta, span: Span) -> Suggestion {
    let e = epoch.as_millis().max(1);
    let k = range.as_millis().div_ceil(e).max(1);
    let aligned = TimeDelta::from_millis(k * e);
    Suggestion::new(
        format!("round the window up to the next epoch multiple ({aligned})"),
        span,
        format!("[Range By '{aligned}']"),
        Applicability::MachineApplicable,
    )
}

fn literal_type(v: &Value) -> Option<DataType> {
    Some(match v {
        Value::Null => return None,
        Value::Bool(_) => DataType::Bool,
        Value::Int(_) => DataType::Int,
        Value::Float(_) => DataType::Float,
        Value::Str(_) => DataType::Str,
        Value::Ts(_) => DataType::Ts,
    })
}

/// Static return types of the built-in aggregates. `sum`/`min`/`max`
/// preserve their argument's type; `count` counts; `avg`/`stdev` are
/// always float.
fn aggregate_return_type(name: &str, arg: Option<DataType>) -> Option<DataType> {
    match name {
        "count" => Some(DataType::Int),
        "avg" | "stdev" => Some(DataType::Float),
        "sum" | "min" | "max" => arg,
        _ => None,
    }
}

fn arith_type(op: ArithOp, lt: Option<DataType>, rt: Option<DataType>) -> Option<DataType> {
    match (op, lt?, rt?) {
        (ArithOp::Div, ..) => Some(DataType::Float),
        (_, DataType::Int, DataType::Int) => Some(DataType::Int),
        (_, DataType::Int | DataType::Float, DataType::Int | DataType::Float) => {
            Some(DataType::Float)
        }
        _ => None,
    }
}

/// Whether two static types can meaningfully compare. `Any` (and unknown)
/// compares with everything; strings only with strings; numerics with
/// numerics and timestamps.
fn comparable(a: DataType, b: DataType) -> bool {
    use DataType::*;
    if a == Any || b == Any {
        return true;
    }
    let numeric = |t: DataType| matches!(t, Int | Float | Ts);
    (numeric(a) && numeric(b)) || a == b
}

fn field_names(schema: &Schema) -> String {
    schema
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn sorted_names(streams: &HashMap<String, Arc<Schema>>) -> String {
    let mut names: Vec<&str> = streams.keys().map(String::as_str).collect();
    names.sort_unstable();
    names.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(source: &str) -> Vec<&'static str> {
        lint_cql(source).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_query_with_directives_has_no_findings() {
        let src = "-- lint: stream rfid_data rfid\n\
                   -- lint: epoch 5 sec\n\
                   SELECT tag_id, count(*) FROM rfid_data [Range By '5 sec'] GROUP BY tag_id";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
    }

    #[test]
    fn no_directives_means_no_schema_findings() {
        let src = "SELECT anything FROM wherever [Range By '7 sec']";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
    }

    #[test]
    fn unknown_field_and_stream() {
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT noise FROM rfid_data";
        assert_eq!(codes(src), vec!["E0101"]);
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT tag_id FROM rfid_tada";
        assert_eq!(codes(src), vec!["E0106"]);
    }

    #[test]
    fn qualifier_resolution() {
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT r.tag_id FROM rfid_data r";
        assert!(codes(src).is_empty());
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT x.tag_id FROM rfid_data r";
        assert_eq!(codes(src), vec!["E0102"]);
    }

    #[test]
    fn aggregate_argument_types() {
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT sum(tag_id) FROM rfid_data";
        assert_eq!(codes(src), vec!["E0103"]);
        let src = "-- lint: stream temps temp\n\
                   SELECT avg(temp), min(temp) FROM temps";
        assert!(codes(src).is_empty());
        // count and min/max admit strings.
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT count(tag_id), max(tag_id) FROM rfid_data";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn arithmetic_and_comparison_type_errors() {
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT tag_id + 1 FROM rfid_data";
        assert_eq!(codes(src), vec!["E0104"]);
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT tag_id FROM rfid_data WHERE tag_id > 5";
        assert_eq!(codes(src), vec!["E0105"]);
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT tag_id FROM rfid_data WHERE tag_id = 'shelf'";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn window_epoch_alignment() {
        let src = "-- lint: stream t temp\n-- lint: epoch 5 sec\n\
                   SELECT temp FROM t [Range By '1 sec']";
        assert_eq!(codes(src), vec!["E0201"]);
        let src = "-- lint: stream t temp\n-- lint: epoch 5 sec\n\
                   SELECT temp FROM t [Range By '12 sec']";
        assert_eq!(codes(src), vec!["E0202"]);
        // NOW windows are exempt; multiples are fine.
        let src = "-- lint: stream t temp\n-- lint: epoch 5 sec\n\
                   SELECT temp FROM t [Range By 'NOW']";
        assert!(codes(src).is_empty());
        let src = "-- lint: stream t temp\n-- lint: epoch 5 sec\n\
                   SELECT temp FROM t [Range By '30 sec']";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn syntax_error_with_span() {
        let diags = lint_cql("SELEC oops");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0001");
        assert!(diags[0].span.is_some());
    }

    #[test]
    fn bad_directives_are_reported() {
        let src = "-- lint: stream s (a widget)\nSELECT 1 FROM s";
        assert_eq!(codes(src), vec!["E0002"]);
        let src = "-- lint: epoch sideways\nSELECT 1 FROM s";
        assert_eq!(codes(src), vec!["E0002"]);
        let src = "-- lint: frobnicate\nSELECT 1 FROM s";
        assert_eq!(codes(src), vec!["E0002"]);
    }

    #[test]
    fn derived_tables_propagate_schemas() {
        // The derived table exports (spatial_granule, avg_t); referencing
        // a misspelled alias through it is caught.
        let src = "-- lint: stream temps (spatial_granule str, temp float)\n\
                   SELECT avg_tt FROM \
                   (SELECT spatial_granule, avg(temp) AS avg_t FROM temps \
                    GROUP BY spatial_granule) sub";
        assert_eq!(codes(src), vec!["E0101"], "{:?}", lint_cql(src));
        let src = "-- lint: stream temps (spatial_granule str, temp float)\n\
                   SELECT avg_t FROM \
                   (SELECT spatial_granule, avg(temp) AS avg_t FROM temps \
                    GROUP BY spatial_granule) sub";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
    }

    #[test]
    fn correlated_subquery_sees_outer_scope() {
        let src = "-- lint: stream rfid_data rfid\n\
                   SELECT spatial_granule, tag_id FROM rfid_data \
                   GROUP BY spatial_granule, tag_id \
                   HAVING count(*) >= ALL(SELECT count(*) FROM rfid_data \
                                          GROUP BY spatial_granule)";
        // spatial_granule is injected by the processor, not in the raw
        // rfid schema — both uses flag E0101 (the directive must describe
        // the schema at the point the query runs).
        assert!(codes(src).iter().all(|&c| c == "E0101"));
    }

    #[test]
    fn inline_schema_directive() {
        let src = "-- lint: stream s (spatial_granule str, tag_id str)\n\
                   SELECT spatial_granule, count(distinct tag_id) FROM s \
                   [Range By '5 sec'] GROUP BY spatial_granule";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
    }

    #[test]
    fn dead_predicate_under_disjoint_ranges() {
        let src = "-- lint: stream s temp_voltage\n\
                   -- lint: range s.temp 0..10\n\
                   -- lint: range s.voltage 20..30\n\
                   SELECT * FROM s WHERE temp > voltage";
        assert_eq!(codes(src), vec!["E0601"], "{:?}", lint_cql(src));
        // The span covers exactly the unsatisfiable predicate.
        let src_str = src;
        let d = lint_cql(src_str).remove(0);
        let span = d.span.expect("E0601 carries a span");
        assert_eq!(&src_str[span.start..span.end], "temp > voltage");
    }

    #[test]
    fn redundant_predicate_under_ordered_ranges() {
        let src = "-- lint: stream s temp_voltage\n\
                   -- lint: range s.temp 0..10\n\
                   -- lint: range s.voltage 20..30\n\
                   SELECT * FROM s WHERE temp < voltage";
        assert_eq!(codes(src), vec!["E0602"], "{:?}", lint_cql(src));
    }

    #[test]
    fn overlapping_ranges_decide_nothing() {
        let src = "-- lint: stream s temp_voltage\n\
                   -- lint: range s.temp 0..25\n\
                   -- lint: range s.voltage 20..30\n\
                   SELECT * FROM s WHERE temp > voltage";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
    }

    #[test]
    fn undeclared_fields_stay_undecided() {
        // Without a range directive a Float field spans all of f64, so
        // any literal comparison remains satisfiable both ways.
        let src = "-- lint: stream s temp\n\
                   SELECT * FROM s WHERE temp < 50";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
    }

    #[test]
    fn grouped_having_sharpens_aggregates() {
        // Non-empty groups make count(*) >= 1 provable...
        let src = "-- lint: stream s rfid\n\
                   SELECT tag_id, count(*) FROM s [Range By '5 sec'] \
                   GROUP BY tag_id HAVING count(*) >= 1";
        assert_eq!(codes(src), vec!["E0602"], "{:?}", lint_cql(src));
        // ...but an ungrouped aggregate may see an empty input.
        let src = "-- lint: stream s rfid\n\
                   SELECT count(*) FROM s [Range By '5 sec'] \
                   HAVING count(*) >= 1";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
        // Grouped min() stays inside the declared argument range.
        let src = "-- lint: stream s temp_voltage\n\
                   -- lint: range s.temp 0..10\n\
                   SELECT receptor_id, min(temp) FROM s [Range By '5 sec'] \
                   GROUP BY receptor_id HAVING min(temp) > 50";
        assert_eq!(codes(src), vec!["E0601"], "{:?}", lint_cql(src));
    }

    #[test]
    fn division_hazards() {
        // A divisor range straddling zero warns.
        let src = "-- lint: stream s temp_voltage\n\
                   -- lint: range s.voltage -1..1\n\
                   SELECT temp / voltage AS ratio FROM s";
        assert_eq!(codes(src), vec!["E0603"], "{:?}", lint_cql(src));
        // A divisor that is identically zero errors.
        let src = "-- lint: stream s temp_voltage\n\
                   -- lint: range s.voltage 0..0\n\
                   SELECT temp % voltage AS r FROM s";
        let diags = lint_cql(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E0603");
        assert!(diags[0].message.contains("always zero"), "{diags:?}");
        // A range excluding zero is quiet, as is no range at all.
        let src = "-- lint: stream s temp_voltage\n\
                   -- lint: range s.voltage 3..5\n\
                   SELECT temp / voltage AS ratio FROM s";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
        let src = "-- lint: stream s temp_voltage\n\
                   SELECT temp / voltage AS ratio FROM s";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
    }

    #[test]
    fn ranges_do_not_flow_through_derived_tables() {
        // The inner query exports `t` from a derived table; the declared
        // range on s.temp must not follow it out (aliases/expressions can
        // reshape values arbitrarily), so the outer filter stays Maybe.
        let src = "-- lint: stream s temp_voltage\n\
                   -- lint: range s.temp 0..10\n\
                   SELECT t FROM (SELECT temp AS t FROM s) d WHERE t > 100";
        assert!(codes(src).is_empty(), "{:?}", lint_cql(src));
    }

    #[test]
    fn bad_range_directives_are_reported() {
        // Malformed payloads.
        for bad in [
            "-- lint: range nonsense\nSELECT 1 FROM s",
            "-- lint: range s.temp 5..\nSELECT 1 FROM s",
            "-- lint: range s.temp 9..1\nSELECT 1 FROM s",
            "-- lint: range temp 0..1\nSELECT 1 FROM s",
        ] {
            assert_eq!(codes(bad), vec!["E0002"], "{bad}: {:?}", lint_cql(bad));
        }
        // Undeclared stream, unknown field, non-numeric field.
        let src = "-- lint: range ghost.temp 0..1\nSELECT 1 FROM s";
        assert_eq!(codes(src), vec!["E0002"], "{:?}", lint_cql(src));
        let src = "-- lint: stream s temp\n\
                   -- lint: range s.humidity 0..1\n\
                   SELECT temp FROM s";
        assert_eq!(codes(src), vec!["E0002"], "{:?}", lint_cql(src));
        let src = "-- lint: stream s rfid\n\
                   -- lint: range s.tag_id 0..1\n\
                   SELECT tag_id FROM s";
        assert_eq!(codes(src), vec!["E0002"], "{:?}", lint_cql(src));
    }

    #[test]
    fn range_directive_order_is_irrelevant() {
        // `range` before the `stream` it refines still validates.
        let src = "-- lint: range s.temp 0..10\n\
                   -- lint: stream s temp_voltage\n\
                   -- lint: range s.voltage 20..30\n\
                   SELECT * FROM s WHERE temp > voltage";
        assert_eq!(codes(src), vec!["E0601"], "{:?}", lint_cql(src));
    }
}
