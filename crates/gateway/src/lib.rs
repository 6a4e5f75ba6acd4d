//! # esp-gateway
//!
//! Networked ingestion for ESP pipelines: a TCP **receptor gateway** that
//! accepts many concurrent receptor connections speaking the simulated
//! radio wire format ([`esp_receptors::wire`] frames, length-delimited by
//! [`esp_receptors::framing`]), verifies checksums at the edge (corrupt
//! frames are counted and dropped — the paper's out-of-the-box Point
//! functionality), and shards decoded readings across *N* worker
//! pipelines, one full ESP cleaning cascade per shard.
//!
//! ## Sharding
//!
//! The unit of placement is the **spatial granule**. Every cleaning stage
//! that looks across receptors (Smooth's reinforcement counts, Merge's
//! outlier test, Arbitrate's de-duplication) is scoped to a proximity
//! group, and every proximity group names exactly one granule — so hashing
//! the granule name ([`shard::shard_of_granule`], FNV-1a) keeps each group
//! intact on a single worker while spreading granules across workers. A
//! receptor belonging to groups on several shards fans out to each.
//!
//! ## Epoch punctuation and watermarks
//!
//! Workers must flush epochs deterministically even though readings arrive
//! over asynchronous sockets. Each connection declares a **bounded
//! lateness** in its handshake: a promise that after sending a reading
//! stamped `t`, it will never send one stamped earlier than `t − lateness`.
//! The gateway tracks a per-connection watermark (`max ts seen − lateness`;
//! closed connections report `∞`) and a coordinator flushes epoch `e` to
//! every shard once the *global* watermark (minimum over connections)
//! passes `e` — see [`watermark`]. A reader hands its readings to the
//! shard queues in batches — one message per shard when its socket buffer
//! runs dry, when the batch reaches its cap, before answering a `STATS`
//! scrape, and at EOF or a frame error — and advances its watermark only
//! after the hand-off, so a flush message can never overtake the readings
//! it covers.
//!
//! Those ordering decisions — the reader's hand-off and advance, the
//! coordinator's flush guard and drain sweep, the worker's skip rule and
//! checkpoint cadence — are plain state machines in [`protocol`], with no
//! sockets, threads or locks. The threads drive them, and [`model`]
//! checks the same machines under every interleaving.
//!
//! ## Backpressure
//!
//! Shard queues are bounded crossbeam channels of two slots; each slot
//! holds one batch of at most half of [`GatewayConfig::edge_capacity`]
//! readings (256 by default), so a queue never holds more than
//! `edge_capacity` readings. When a worker falls behind, reader threads
//! block on the full queue, TCP flow control propagates to the sender,
//! and the stall is recorded, per reading, in a shared
//! [`esp_stream::QueueStats`].
//!
//! ## Execution
//!
//! Each shard's worker steps its own `EspProcessor` cascade, which runs
//! on one [`esp_stream::EpochRunner`] — the only executor a `Dataflow`
//! has. Parallelism is across shards, never inside a cascade, so each
//! shard's per-epoch output is deterministic and a sharded run can be
//! compared epoch by epoch against a single-process one.
//!
//! ```no_run
//! use esp_core::Pipeline;
//! use esp_gateway::{Gateway, GatewayConfig, GatewayGroup};
//! use esp_receptors::wire::Reading;
//! use esp_types::{ReceptorId, ReceptorType, TimeDelta, Ts};
//!
//! let config = GatewayConfig::new(vec![GatewayGroup {
//!     receptor_type: ReceptorType::Rfid,
//!     granule: "shelf0".into(),
//!     members: vec![ReceptorId(0)],
//! }]);
//! let gateway = Gateway::spawn(config, |_shard| Pipeline::raw()).unwrap();
//! let mut client =
//!     esp_gateway::GatewayClient::connect(gateway.local_addr(), TimeDelta::ZERO).unwrap();
//! client.send(&Reading::Tag { receptor: ReceptorId(0), ts: Ts::ZERO, tag_id: "t1".into() }).unwrap();
//! client.finish().unwrap();
//! let output = gateway.finish().unwrap();
//! assert_eq!(output.stats.readings, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic while
// serving connections; tests are free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod client;
pub mod convert;
mod durability;
#[cfg(test)]
mod ingest_oracle;
pub mod model;
pub mod protocol;
mod server;
pub mod shard;
pub mod stats;
pub mod watermark;
mod worker;

pub use client::GatewayClient;
pub use convert::ReadingSchemas;
// Re-exported so gateway users can enable durability without naming the
// esp-durability crate themselves.
pub use esp_durability::DurabilityConfig;
pub use server::{canonical_sort, EpochTrace, Gateway, GatewayConfig, GatewayGroup, GatewayOutput};
pub use shard::{shard_of_granule, ShardRouter};
pub use stats::{GatewaySnapshot, GatewayStats};
