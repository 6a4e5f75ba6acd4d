//! # esp-query
//!
//! A continuous-query engine for the CQL subset used by the ESP paper's
//! cleaning stages (Arasu et al.'s CQL as cited by Jeffery et al., ICDE
//! 2006). ESP deploys its Point/Smooth/Merge/Arbitrate/Virtualize stages
//! primarily as declarative queries; this crate makes that claim concrete:
//! all six queries printed in the paper parse and execute here.
//!
//! Supported surface:
//!
//! * `SELECT` with expressions, aliases, and `*`;
//! * `FROM` streams with window clauses (`[Range By '5 sec']`,
//!   `[Range By 'NOW']`), static relations, derived tables, cross joins;
//! * `WHERE`, `GROUP BY`, `HAVING` (including correlated
//!   `HAVING agg >= ALL(subquery)` as in the paper's Query 3);
//! * aggregates `count(*)`, `count(x)`, `count(distinct x)`, `sum`, `avg`,
//!   `stdev`, `min`, `max`, plus user-defined aggregates;
//! * scalar functions (`abs`, `coalesce`, plus user-defined).
//!
//! Execution model: a [`ContinuousQuery`] holds window state per
//! syntactic stream reference. Each epoch the caller pushes input batches
//! and calls [`ContinuousQuery::tick`]; the engine slides the windows,
//! ingests the staged chunks, and emits the windowed result (CQL `RSTREAM`
//! per epoch). Each select is classified when it compiles:
//!
//! * a *mergeable* select — one stream, bare-column `GROUP BY` keys, only
//!   non-`DISTINCT` built-in aggregates ([`incremental`] has the exact
//!   rule) — runs on `esp-stream`'s `PaneAggregate`, the keyed pane fold
//!   native Smooth shares: each arrival is folded once into per-epoch
//!   partials, and a tick merges the live panes;
//! * every other select keeps a [`WindowBuffer`] and rescans it each tick:
//!   one executor reads the window's rows as tuples and evaluates the
//!   select over them.
//!
//! Reference mode ([`ContinuousQuery::set_reference_mode`]) runs every
//! select on the rescan through the name-resolving interpreter: the
//! oracle the compiled and incremental paths are tested against.
//! A query joins an `esp-stream` dataflow as a stage:
//! `esp_core::DeclarativeStage` wraps a single-stream query, pushes each
//! epoch's input chunks into it and ticks it.
//!
//! [`WindowBuffer`]: esp_stream::WindowBuffer

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The engine backs the static analyzers; it must return typed errors, not
// panic, on the inputs they exist to criticize.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod ast;
pub mod catalog;
pub mod compile;
mod engine;
pub mod exec;
pub mod incremental;
mod lexer;
mod parser;
pub mod plan;
pub mod range;

pub use catalog::Catalog;
pub use engine::{ContinuousQuery, Engine};
pub use parser::parse;
