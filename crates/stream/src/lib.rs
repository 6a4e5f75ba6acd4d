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
//!   the mechanism behind the paper's *temporal granule* (`[Range By …]`).
//! * [`panes`] — per-epoch partial aggregates: the window state of
//!   operators whose aggregate merges (count, mean), so they keep
//!   `key → partial` per epoch instead of the tuples.
//! * [`Operator`] / [`Source`] — the push-based operator protocol, typed on
//!   one currency: an operator receives [`Payload`]s (rows or columnar
//!   chunks) on input ports during an epoch and emits a `Payload` when the
//!   epoch is flushed (punctuation).
//! * [`Dataflow`] — a DAG of sources and operators with output taps.
//! * [`EpochRunner`] — the deterministic single-threaded scheduler used by
//!   experiments: advances logical time epoch by epoch.
//! * [`ThreadedRunner`] — a multi-threaded runner (one thread per node,
//!   crossbeam channels as inter-operator queues) that produces the same
//!   per-epoch outputs; useful when receptor simulation is expensive.
//! * [`ops`] — generic building-block operators (filter, map, union, …).
//! * [`StageState`] / [`Checkpointable`] — epoch-boundary capture and
//!   restore of operator state, the substrate of `esp-durability`'s
//!   epoch-aligned checkpoint protocol.
//! * [`stats`] — streaming mean/variance used by windowed aggregates and
//!   the Merge stage's outlier test.
//! * [`model`] — a deterministic model checker that exhaustively explores
//!   interleavings of the threaded runner's punctuation/shutdown protocol
//!   (`E0701`/`E0702`/`E0704` findings), driving the same
//!   [`stager::EpochStager`] the runner executes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic mid-
// pipeline; tests are free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod epoch;
pub mod graph;
pub mod model;
mod operator;
pub mod ops;
pub mod panes;
pub mod stager;
mod state;
pub mod stats;
mod threaded;
mod window;

pub use epoch::EpochRunner;
pub use graph::{Dataflow, NodeId, TapId};
pub use operator::{Operator, Payload, ScriptedChunkSource, ScriptedSource, Source};
pub use state::{unexpected_state, Checkpointable, StageState};
pub use stats::QueueStats;
pub use threaded::ThreadedRunner;
pub use window::{WindowBuffer, WindowView};
