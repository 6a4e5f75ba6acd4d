//! Aggregate functions: the built-ins used by the paper's queries
//! (`count`, `sum`, `avg`, `stdev`, `min`, `max`) and the user-defined
//! aggregate (UDA) extension point (paper §3.3: stages may be implemented
//! as "user-defined functions or aggregates").

use esp_stream::stats::RunningStats;
use esp_types::{DataType, EspError, Result, Value};

/// Accumulator state for one aggregate over one group.
///
/// The window rescan calls [`AggregateState::update`] once per member row,
/// in row order, and [`AggregateState::finish`] once per tick. It handles
/// `DISTINCT` (values are deduplicated before reaching the state) and
/// `count(*)` (the state sees `Value::Int(1)` per row); implementations
/// only fold values. `update` and `finish` are the whole UDA surface.
pub trait AggregateState: Send {
    /// Fold one input value. NULLs are already filtered out by the
    /// executor (SQL aggregates ignore NULLs).
    fn update(&mut self, v: &Value) -> Result<()>;

    /// Produce the aggregate result for the group.
    fn finish(&self) -> Value;
}

/// Static requirement an aggregate places on its argument type, used by
/// the linter to reject e.g. `sum(tag_id)` over a `STR` column before any
/// tuple flows (the runtime would only fail on the first non-numeric row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgRequirement {
    /// Any value is accepted (`count`, `min`, `max`).
    Any,
    /// Only `Int`/`Float` (and `Any`/`Null`) inputs are valid
    /// (`sum`, `avg`, `stdev`).
    Numeric,
}

impl ArgRequirement {
    /// Whether a column of static type `dt` satisfies this requirement.
    pub fn admits(self, dt: DataType) -> bool {
        match self {
            ArgRequirement::Any => true,
            ArgRequirement::Numeric => matches!(
                dt,
                DataType::Int | DataType::Float | DataType::Any | DataType::Ts
            ),
        }
    }
}

/// Factory for aggregate states, registered under a function name.
pub trait AggregateFactory: Send + Sync {
    /// Create a fresh accumulator for a new group.
    fn make(&self) -> Box<dyn AggregateState>;

    /// Static result type, for output schema inference.
    fn result_type(&self) -> DataType {
        DataType::Any
    }

    /// Static argument-type requirement, for pre-deployment linting.
    /// Defaults to [`ArgRequirement::Any`] so UDAs stay unaffected.
    fn arg_requirement(&self) -> ArgRequirement {
        ArgRequirement::Any
    }

    /// The built-in partial this aggregate folds into, when its states
    /// merge across panes ([`BuiltinPartial::merge`]). Selects whose every
    /// aggregate names one run pane-incrementally. Defaults to `None`, so
    /// a UDA is always evaluated over the whole window.
    fn partial(&self) -> Option<PartialKind> {
        None
    }
}

/// The mergeable built-in aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialKind {
    /// `count(x)` / `count(*)`.
    Count,
    /// `sum(x)`.
    Sum,
    /// `avg(x)`.
    Avg,
    /// `stdev(x)`.
    Stdev,
    /// `min(x)`.
    Min,
    /// `max(x)`.
    Max,
}

/// The state of a built-in aggregate. The same value is the per-group
/// accumulator of a window rescan and the per-pane partial of the
/// incremental path, so both fold a value identically; the incremental
/// path then combines panes with [`BuiltinPartial::merge`].
#[derive(Debug, Clone)]
pub enum BuiltinPartial {
    /// Rows (or non-NULL values) counted.
    Count(i64),
    /// Integer inputs stay integers; any float input promotes.
    Sum {
        /// Exact sum of the integer inputs.
        int_sum: i64,
        /// Sum of every input as a float.
        float_sum: f64,
        /// Whether a float input was seen.
        saw_float: bool,
        /// Inputs folded.
        n: u64,
    },
    /// `avg`: the sum over the count, so panes that split a group's input
    /// reach the rescan's mean whenever their float sums are exact.
    Mean {
        /// Sum of the inputs as floats.
        sum: f64,
        /// Inputs folded.
        n: u64,
    },
    /// `stdev`: a Welford accumulator; panes combine by the Chan et al.
    /// update.
    Stdev(RunningStats),
    /// `min` / `max`: the first value no later one strictly beats.
    Extreme {
        /// The best value so far (`NULL` before the first input).
        best: Value,
        /// True for `max`.
        is_max: bool,
    },
}

impl BuiltinPartial {
    /// The empty state of `kind`.
    pub fn new(kind: PartialKind) -> BuiltinPartial {
        match kind {
            PartialKind::Count => BuiltinPartial::Count(0),
            PartialKind::Sum => BuiltinPartial::Sum {
                int_sum: 0,
                float_sum: 0.0,
                saw_float: false,
                n: 0,
            },
            PartialKind::Avg => BuiltinPartial::Mean { sum: 0.0, n: 0 },
            PartialKind::Stdev => BuiltinPartial::Stdev(RunningStats::new()),
            PartialKind::Min | PartialKind::Max => BuiltinPartial::Extreme {
                best: Value::Null,
                is_max: kind == PartialKind::Max,
            },
        }
    }

    /// Fold the state of a *newer* stretch of the same group's input into
    /// this one: the result is the state of folding this stretch, then
    /// that one (floats up to reassociation). `min`/`max` keep the older
    /// value on ties, as a fold does, and fail over incomparable values
    /// exactly where the fold would.
    pub fn merge(&mut self, newer: &BuiltinPartial) -> Result<()> {
        match (self, newer) {
            (BuiltinPartial::Count(a), BuiltinPartial::Count(b)) => *a += b,
            (
                BuiltinPartial::Sum {
                    int_sum,
                    float_sum,
                    saw_float,
                    n,
                },
                BuiltinPartial::Sum {
                    int_sum: i,
                    float_sum: f,
                    saw_float: s,
                    n: m,
                },
            ) => {
                *int_sum += i;
                *float_sum += f;
                *saw_float |= s;
                *n += m;
            }
            (BuiltinPartial::Mean { sum, n }, BuiltinPartial::Mean { sum: s, n: m }) => {
                *sum += s;
                *n += m;
            }
            (BuiltinPartial::Stdev(stats), BuiltinPartial::Stdev(s)) => stats.merge(s),
            (this @ BuiltinPartial::Extreme { .. }, BuiltinPartial::Extreme { best, .. }) => {
                if !best.is_null() {
                    this.update(best)?;
                }
            }
            (this, other) => {
                return Err(EspError::Plan(format!(
                    "cannot merge aggregate states {this:?} and {other:?}"
                )))
            }
        }
        Ok(())
    }
}

impl AggregateState for BuiltinPartial {
    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            BuiltinPartial::Count(n) => *n += 1,
            BuiltinPartial::Sum {
                int_sum,
                float_sum,
                saw_float,
                n,
            } => {
                match v {
                    Value::Int(i) => {
                        *int_sum += i;
                        *float_sum += *i as f64;
                    }
                    Value::Float(f) => {
                        *saw_float = true;
                        *float_sum += f;
                    }
                    other => {
                        return Err(EspError::Type(format!(
                            "sum() over non-numeric value {other}"
                        )))
                    }
                }
                *n += 1;
            }
            BuiltinPartial::Mean { sum, n } => {
                *sum += v.expect_f64("avg()")?;
                *n += 1;
            }
            BuiltinPartial::Stdev(stats) => stats.push(v.expect_f64("stdev()")?),
            BuiltinPartial::Extreme { best, is_max } => {
                if best.is_null() {
                    *best = v.clone();
                    return Ok(());
                }
                let ord = v.sql_cmp(best).ok_or_else(|| {
                    EspError::Type(format!(
                        "min()/max() over incomparable values {v} and {best}"
                    ))
                })?;
                if if *is_max { ord.is_gt() } else { ord.is_lt() } {
                    *best = v.clone();
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            BuiltinPartial::Count(n) => Value::Int(*n),
            BuiltinPartial::Sum {
                int_sum,
                float_sum,
                saw_float,
                n,
            } => {
                if *n == 0 {
                    Value::Null
                } else if *saw_float {
                    Value::Float(*float_sum)
                } else {
                    Value::Int(*int_sum)
                }
            }
            BuiltinPartial::Mean { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            // A single observation has no sample deviation; report 0 so the
            // outlier band collapses to the point itself rather than NULL
            // (which would silently drop every reading in Query 5).
            BuiltinPartial::Stdev(stats) => stats
                .stdev()
                .or(stats.mean().map(|_| 0.0))
                .map_or(Value::Null, Value::Float),
            BuiltinPartial::Extreme { best, .. } => best.clone(),
        }
    }
}

/// A factory for one built-in aggregate.
macro_rules! builtin_factory {
    ($(#[$doc:meta])* $name:ident, $kind:expr, $result:expr, $arg:expr) => {
        $(#[$doc])*
        pub struct $name;

        impl AggregateFactory for $name {
            fn make(&self) -> Box<dyn AggregateState> {
                Box::new(BuiltinPartial::new($kind))
            }
            fn result_type(&self) -> DataType {
                $result
            }
            fn arg_requirement(&self) -> ArgRequirement {
                $arg
            }
            fn partial(&self) -> Option<PartialKind> {
                Some($kind)
            }
        }
    };
}

builtin_factory!(
    /// `count(x)` / `count(*)` / `count(distinct x)`.
    CountFactory,
    PartialKind::Count,
    DataType::Int,
    ArgRequirement::Any
);
builtin_factory!(
    /// `sum(x)`. Integer inputs stay integers; any float input promotes.
    SumFactory,
    PartialKind::Sum,
    DataType::Any,
    ArgRequirement::Numeric
);
builtin_factory!(
    /// `avg(x)`.
    AvgFactory,
    PartialKind::Avg,
    DataType::Float,
    ArgRequirement::Numeric
);
builtin_factory!(
    /// `stdev(x)` — sample standard deviation, as used by the paper's
    /// Query 5 outlier test.
    StdevFactory,
    PartialKind::Stdev,
    DataType::Float,
    ArgRequirement::Numeric
);

/// `min(x)` / `max(x)` over any SQL-comparable values.
pub struct ExtremeFactory {
    /// True for `max`, false for `min`.
    pub is_max: bool,
}

impl ExtremeFactory {
    fn kind(&self) -> PartialKind {
        if self.is_max {
            PartialKind::Max
        } else {
            PartialKind::Min
        }
    }
}

impl AggregateFactory for ExtremeFactory {
    fn make(&self) -> Box<dyn AggregateState> {
        Box::new(BuiltinPartial::new(self.kind()))
    }
    fn partial(&self) -> Option<PartialKind> {
        Some(self.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(factory: &dyn AggregateFactory, vals: &[Value]) -> Value {
        let mut s = factory.make();
        for v in vals {
            s.update(v).unwrap();
        }
        s.finish()
    }

    #[test]
    fn count_counts_updates() {
        assert_eq!(
            run(&CountFactory, &[Value::Int(1), Value::Int(1)]),
            Value::Int(2)
        );
        assert_eq!(run(&CountFactory, &[]), Value::Int(0));
    }

    #[test]
    fn sum_preserves_int_until_float_seen() {
        assert_eq!(
            run(&SumFactory, &[Value::Int(2), Value::Int(3)]),
            Value::Int(5)
        );
        assert_eq!(
            run(&SumFactory, &[Value::Int(2), Value::Float(0.5)]),
            Value::Float(2.5)
        );
        assert_eq!(run(&SumFactory, &[]), Value::Null);
    }

    #[test]
    fn sum_rejects_strings() {
        let mut s = SumFactory.make();
        assert!(s.update(&Value::str("x")).is_err());
    }

    #[test]
    fn avg_and_stdev() {
        let vals: Vec<Value> = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .map(Value::Float)
            .to_vec();
        assert_eq!(run(&AvgFactory, &vals), Value::Float(5.0));
        match run(&StdevFactory, &vals) {
            Value::Float(s) => assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-9),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn avg_merged_at_any_split_is_the_folded_mean() {
        // The sum is exact, and cancels to zero, in any order.
        let vals = [
            Value::Int(-3),
            Value::Float(0.75),
            Value::Int(5),
            Value::Float(-2.75),
            Value::Int(0),
        ];
        let folded = run(&AvgFactory, &vals);
        assert_eq!(folded, Value::Float(0.0));
        for cut in 0..=vals.len() {
            let mut older = BuiltinPartial::new(PartialKind::Avg);
            let mut newer = BuiltinPartial::new(PartialKind::Avg);
            for v in &vals[..cut] {
                older.update(v).unwrap();
            }
            for v in &vals[cut..] {
                newer.update(v).unwrap();
            }
            older.merge(&newer).unwrap();
            assert_eq!(older.finish(), folded, "split at {cut}");
        }
    }

    #[test]
    fn stdev_of_single_value_is_zero() {
        assert_eq!(run(&StdevFactory, &[Value::Float(3.0)]), Value::Float(0.0));
        assert_eq!(run(&StdevFactory, &[]), Value::Null);
    }

    #[test]
    fn min_max_over_numbers_and_strings() {
        let max = ExtremeFactory { is_max: true };
        let min = ExtremeFactory { is_max: false };
        assert_eq!(
            run(&max, &[Value::Int(3), Value::Float(4.5)]),
            Value::Float(4.5)
        );
        assert_eq!(
            run(&min, &[Value::Int(3), Value::Float(4.5)]),
            Value::Int(3)
        );
        assert_eq!(
            run(&max, &[Value::str("apple"), Value::str("pear")]),
            Value::str("pear")
        );
        assert_eq!(run(&min, &[]), Value::Null);
    }

    #[test]
    fn min_max_incomparable_errors() {
        let mut s = ExtremeFactory { is_max: true }.make();
        s.update(&Value::Int(1)).unwrap();
        assert!(s.update(&Value::str("x")).is_err());
    }

    #[test]
    fn result_types_for_schema_inference() {
        assert_eq!(CountFactory.result_type(), DataType::Int);
        assert_eq!(AvgFactory.result_type(), DataType::Float);
        assert_eq!(ExtremeFactory { is_max: true }.result_type(), DataType::Any);
    }

    #[test]
    fn arg_requirements_for_lint() {
        assert_eq!(SumFactory.arg_requirement(), ArgRequirement::Numeric);
        assert_eq!(AvgFactory.arg_requirement(), ArgRequirement::Numeric);
        assert_eq!(StdevFactory.arg_requirement(), ArgRequirement::Numeric);
        assert_eq!(CountFactory.arg_requirement(), ArgRequirement::Any);
        assert_eq!(
            ExtremeFactory { is_max: false }.arg_requirement(),
            ArgRequirement::Any
        );
        assert!(!ArgRequirement::Numeric.admits(DataType::Str));
        assert!(ArgRequirement::Numeric.admits(DataType::Int));
        assert!(ArgRequirement::Any.admits(DataType::Str));
    }
}
