//! # esp-durability
//!
//! Durability for sharded ESP pipelines: a write-ahead reading log at
//! the gateway edge, epoch-aligned checkpoint snapshots of per-shard
//! pipeline state, and the static checks that keep the two honest.
//!
//! The paper's framework treats the cleaning pipeline as soft-state
//! infrastructure; this crate makes it restartable. The design follows
//! the epoch structure the rest of the workspace is built around:
//!
//! - **WAL** ([`wal`]): every frame the gateway accepts is appended —
//!   before it is sharded — to a checksummed, length-delimited segment
//!   file, interleaved with the epoch flush markers the coordinator
//!   broadcasts. Because readings and flushes share one total order,
//!   replaying the log reproduces each shard's input exactly.
//! - **Snapshots** ([`snapshot`]): at checkpoint epochs each shard
//!   serializes its cross-epoch state (window buffers, smoothing
//!   aggregates, counters — see `esp_stream::Stage::state`) into a
//!   versioned, atomically-renamed file keyed by `(shard, epoch)` and
//!   stamped with the WAL sequence number of the flush that closed the
//!   epoch.
//! - **Recovery**: restore the newest valid snapshot, replay the WAL
//!   suffix after its sequence number, resume. The invariant the test
//!   suite enforces is strict: recovered output is *byte-identical* to
//!   an uninterrupted run.
//! - **Checks** ([`config`]): `E0801` (checkpoint interval not a
//!   multiple of the epoch period), `E0802` (WAL retention shorter than
//!   the permitted lateness), `E0803` (zero snapshot retention).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod snapshot;
pub mod wal;

pub use config::{DurabilityConfig, DurabilitySectionSpec, DurabilitySpec};
pub use snapshot::{SnapshotMeta, SnapshotStore};
pub use wal::{read_wal_dir, PreparedRecord, WalEntry, WalRecord, WalWriter};
