//! # esp-core
//!
//! **ESP — Extensible receptor Stream Processing**: the pipelined framework
//! for online cleaning of sensor data streams from Jeffery, Alonso,
//! Franklin, Hong & Widom, *"A Pipelined Framework for Online Cleaning of
//! Sensor Data Streams"* (ICDE 2006).
//!
//! Physical receptor devices (RFID readers, wireless sensor motes, X10
//! motion detectors) produce *dirty* data: readings are frequently missed,
//! and devices "fail dirty" — they keep reporting faulty values. ESP cleans
//! these streams online, before they reach the application, using two
//! application-level abstractions:
//!
//! * the **temporal granule** ([`TemporalGranule`]) — the smallest unit of
//!   time the application operates on, realized as a sliding window;
//! * the **spatial granule** ([`SpatialGranule`](esp_types::SpatialGranule))
//!   — the smallest unit of space (a shelf, a room), monitored by a
//!   *proximity group* ([`ProximityGroups`]) of same-type receptors.
//!
//! Cleaning is a cascade of five programmable stages (paper §3.2), each a
//! [`Stage`] that may be implemented as a declarative query
//! ([`DeclarativeStage`]), a user-defined function ([`FnStage`]), or
//! arbitrary code:
//!
//! | Stage | Scope | Purpose |
//! |---|---|---|
//! | [`PointStage`] | single value | filter errant readings, convert fields |
//! | [`SmoothStage`] | temporal granule | interpolate missed readings, drop errant single readings |
//! | [`MergeStage`] | spatial granule | spatial interpolation, outlier devices |
//! | [`ArbitrateStage`] | between granules | de-duplicate conflicting readings |
//! | [`VirtualizeStage`] | across receptor types | application-level fusion ("person detector") |
//!
//! A [`Pipeline`] arranges stage factories in scoped slots; the
//! [`EspProcessor`] wires receptor sources through the pipeline as an
//! [`esp_stream::Dataflow`] and drives it epoch by epoch, injecting the
//! `spatial_granule` attribute into every stream (paper §4 fn. 2).
//!
//! ```
//! use esp_core::{EspProcessor, Pipeline, ProximityGroups, ReceptorBinding, SmoothStage};
//! use esp_stream::ScriptedSource;
//! use esp_types::{well_known, ReceptorId, ReceptorType, TimeDelta, Ts, TupleBuilder};
//!
//! // One reader on one shelf; one sighting of tag-1 at t=0.
//! let schema = well_known::rfid_schema();
//! let sighting = TupleBuilder::new(&schema, Ts::ZERO)
//!     .set("receptor_id", 0i64).unwrap()
//!     .set("tag_id", "tag-1").unwrap()
//!     .build().unwrap();
//! let source = ScriptedSource::new("reader", vec![(Ts::ZERO, vec![sighting])]);
//!
//! let mut groups = ProximityGroups::new();
//! groups.add_group(ReceptorType::Rfid, "shelf0", [ReceptorId(0)]);
//!
//! let granule = TimeDelta::from_secs(5);
//! let pipeline = Pipeline::builder()
//!     .per_receptor("smooth", move |_ctx| {
//!         Ok(Box::new(SmoothStage::count_by_key("smooth", granule, ["tag_id"])))
//!     })
//!     .build();
//!
//! let processor = EspProcessor::build(
//!     groups,
//!     &pipeline,
//!     vec![ReceptorBinding::new(ReceptorId(0), ReceptorType::Rfid, Box::new(source))],
//! ).unwrap();
//! let output = processor.run(Ts::ZERO, TimeDelta::from_secs(1), 4).unwrap();
//! // The single sighting persists through the 5 s granule at every epoch.
//! assert!(output.trace.iter().all(|(_, batch)| batch.len() == 1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic mid-
// cascade; tests are free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod absint;
mod actuation;
pub mod deploy;
mod granule;
mod pipeline;
mod processor;
mod proximity;
mod stage;
pub mod stages;

pub use actuation::RateController;
pub use deploy::DeploymentSpec;
pub use granule::TemporalGranule;
pub use pipeline::{Pipeline, PipelineBuilder, Scope, StageCtx};
pub use processor::{EspProcessor, ReceptorBinding, RunOutput};
pub use proximity::ProximityGroups;
pub use stage::{DeclarativeStage, FnStage, Stage, TupleMapFn};
pub use stages::arbitrate::{ArbitrateStage, TieBreak};
pub use stages::merge::MergeStage;
pub use stages::model::{ModelAction, ModelStage};
pub use stages::point::PointStage;
pub use stages::smooth::SmoothStage;
pub use stages::virtualize::{VirtualizeStage, VoteFn, VoteRule};
