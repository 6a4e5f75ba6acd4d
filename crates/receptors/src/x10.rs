//! X10 motion detectors (§6).
//!
//! X10 detectors "provide a stream of 'ON' events … have limited sensing
//! capabilities and frequently fail to report or report when there is no
//! motion in the room". The simulator reports `ON` with a miss-prone
//! probability while the room is occupied and with a small false-positive
//! probability while it is empty.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use esp_stream::{Payload, Source};
use esp_types::{well_known, Batch, ReceptorId, Result, Schema, TimeDelta, Ts, Tuple, Value};

/// Ground-truth occupancy signal shared by a scenario's devices.
pub type Occupancy = Arc<dyn Fn(Ts) -> bool + Send + Sync>;

/// Configuration for one detector.
#[derive(Debug, Clone)]
pub struct X10Config {
    /// Device id.
    pub id: ReceptorId,
    /// How often the detector evaluates its sensor.
    pub sample_period: TimeDelta,
    /// P(report ON | room occupied) per sample.
    pub p_detect: f64,
    /// P(report ON | room empty) per sample (spurious).
    pub p_false: f64,
    /// RNG seed.
    pub seed: u64,
}

/// A simulated X10 motion detector.
pub struct X10MotionSource {
    config: X10Config,
    occupancy: Occupancy,
    rng: StdRng,
    schema: Arc<Schema>,
    next_sample: Ts,
    name: String,
}

impl X10MotionSource {
    /// Build a detector over an occupancy signal.
    pub fn new(config: X10Config, occupancy: Occupancy) -> X10MotionSource {
        let name = format!("x10-{}", config.id.0);
        X10MotionSource {
            rng: StdRng::seed_from_u64(config.seed),
            occupancy,
            schema: well_known::motion_schema(),
            next_sample: Ts::ZERO,
            name,
            config,
        }
    }
}

impl Source for X10MotionSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Payload> {
        let mut out = Batch::new();
        while self.next_sample <= epoch {
            let ts = self.next_sample;
            self.next_sample += self.config.sample_period;
            let p = if (self.occupancy)(ts) {
                self.config.p_detect
            } else {
                self.config.p_false
            };
            if p > 0.0 && self.rng.gen_bool(p) {
                out.push(Tuple::new_unchecked(
                    Arc::clone(&self.schema),
                    ts,
                    vec![Value::Int(i64::from(self.config.id.0)), Value::str("ON")],
                ));
            }
        }
        Ok(Payload::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always(b: bool) -> Occupancy {
        Arc::new(move |_| b)
    }

    fn config(id: u32, p_detect: f64, p_false: f64) -> X10Config {
        X10Config {
            id: ReceptorId(id),
            sample_period: TimeDelta::from_secs(1),
            p_detect,
            p_false,
            seed: id as u64,
        }
    }

    #[test]
    fn detects_when_occupied_at_configured_rate() {
        let mut d = X10MotionSource::new(config(1, 0.3, 0.0), always(true));
        let events = d.poll(Ts::from_secs(9_999)).unwrap().into_rows();
        let rate = events.len() as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
        assert!(events
            .iter()
            .all(|t| t.get("value") == Some(&Value::str("ON"))));
    }

    #[test]
    fn spurious_reports_when_empty() {
        let mut d = X10MotionSource::new(config(2, 0.5, 0.02), always(false));
        let events = d.poll(Ts::from_secs(9_999)).unwrap().into_rows();
        let rate = events.len() as f64 / 10_000.0;
        assert!(rate > 0.005 && rate < 0.05, "false rate {rate}");
    }

    #[test]
    fn perfect_detector_with_zero_false_rate() {
        let mut d = X10MotionSource::new(config(3, 1.0, 0.0), always(true));
        assert_eq!(d.poll(Ts::from_secs(99)).unwrap().into_rows().len(), 100);
        let mut d = X10MotionSource::new(config(3, 1.0, 0.0), always(false));
        assert!(d.poll(Ts::from_secs(99)).unwrap().into_rows().is_empty());
    }

    #[test]
    fn occupancy_signal_consulted_per_sample() {
        // Occupied only during the first 50 s.
        let occ: Occupancy = Arc::new(|ts| ts < Ts::from_secs(50));
        let mut d = X10MotionSource::new(config(4, 1.0, 0.0), occ);
        let events = d.poll(Ts::from_secs(99)).unwrap().into_rows();
        assert_eq!(events.len(), 50);
        assert!(events.iter().all(|t| t.ts() < Ts::from_secs(50)));
    }
}
