//! # esp-types
//!
//! Core data model for **ESP** (Extensible receptor Stream Processing), the
//! pipelined framework for online cleaning of sensor data streams described
//! in Jeffery et al., *"A Pipelined Framework for Online Cleaning of Sensor
//! Data Streams"* (ICDE 2006).
//!
//! This crate defines the vocabulary every other ESP crate speaks:
//!
//! * [`Value`] — the dynamically-typed scalar carried in stream tuples.
//! * [`Schema`] / [`Field`] / [`DataType`] — named, typed tuple layouts.
//! * [`Tuple`] — a timestamped record flowing through a pipeline.
//! * [`Ts`] / [`TimeDelta`] — discrete logical time and durations, including
//!   the textual duration grammar (`'5 sec'`, `'5 min'`, `'NOW'`) used by
//!   the paper's CQL window clauses.
//! * Identifier newtypes: [`ReceptorId`], [`SpatialGranule`],
//!   [`ProximityGroupId`], and [`ReceptorType`].
//! * [`FieldEffects`] / [`Determinism`] — static effect summaries the
//!   whole-pipeline dataflow analyses (`esp-lint` E09xx) run on.
//! * [`EspError`] — the shared error type.
//!
//! The crate is dependency-light by design; everything heavier (windows,
//! operators, query compilation) lives upstack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actuation;
pub mod chunk;
pub mod diag;
pub mod effect;
mod error;
mod ids;
pub mod registry;
mod schema;
pub mod snap;
pub mod strtab;
mod time;
mod tuple;
mod value;
pub mod well_known;

pub use actuation::SampleRateHandle;
pub use chunk::{chunk_batch, Cell, Chunk, ColumnVec, NullMask, Packable, Packed};
pub use diag::{Applicability, Diagnostic, Severity, Span, Suggestion};
pub use effect::{Determinism, FieldEffects};
pub use error::{EspError, Result};
pub use ids::{ProximityGroupId, ReceptorId, ReceptorType, SpatialGranule};
pub use registry::SchemaRegistry;
pub use schema::{DataType, Field, Schema, SchemaBuilder};
pub use strtab::{str_hash, StrInterner, StrTable, STR_TABLE_CAPACITY};
pub use time::{TimeDelta, Ts};
pub use tuple::{Batch, Tuple, TupleBuilder};
pub use value::{Value, ValueKey};
