//! # esp-stream
//!
//! The Fjord-style streaming substrate underneath ESP (Extensible receptor
//! Stream Processing). The ESP paper executes its cleaning stages "in a
//! Fjord-style manner" (Madden & Franklin, ICDE 2002): push-based operators
//! connected by queues, driven as sensor readings stream through the
//! pipeline. This crate is that execution fabric, independent of any query
//! language or cleaning semantics:
//!
//! * [`WindowBuffer`] — time-based sliding-window buffers with eviction,
//!   the mechanism behind the paper's *temporal granule* (`[Range By …]`),
//!   for aggregates that need the tuples. Columnar only: one chunk per
//!   run of equal schemas, so a schema-uniform window is one chunk.
//! * [`panes`] — per-epoch partial aggregates: the window state of
//!   operators whose aggregate merges (count, mean), so they keep
//!   `key → partial` per epoch instead of the tuples.
//! * [`Operator`] / [`Source`] — the push-based operator protocol, typed on
//!   one currency: an operator receives [`Payload`]s (rows or columnar
//!   chunks) on input ports during an epoch and emits a `Payload` when the
//!   epoch is flushed (punctuation).
//! * [`Dataflow`] — a DAG of sources and operators with output taps.
//! * [`EpochRunner`] — the one executor: a deterministic single-threaded
//!   scheduler that advances logical time epoch by epoch. Parallelism
//!   lives one level up — `esp-gateway` runs one `EpochRunner` per shard
//!   over disjoint proximity groups.
//! * [`ops`] — generic building-block operators (filter, map, union, …).
//! * [`StageState`] / [`Checkpointable`] — epoch-boundary capture and
//!   restore of operator state, the substrate of `esp-durability`'s
//!   epoch-aligned checkpoint protocol.
//! * [`stats`] — streaming mean/variance used by windowed aggregates and
//!   the Merge stage's outlier test, and the [`QueueStats`] back-pressure
//!   counters of the gateway's shard queues.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic mid-
// pipeline; tests are free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod epoch;
pub mod graph;
mod operator;
pub mod ops;
pub mod panes;
mod state;
pub mod stats;
mod window;

pub use epoch::EpochRunner;
pub use graph::{Dataflow, NodeId, TapId};
pub use operator::{Operator, Payload, ScriptedChunkSource, ScriptedSource, Source};
pub use state::{unexpected_state, Checkpointable, StageState};
pub use stats::QueueStats;
pub use window::WindowBuffer;
