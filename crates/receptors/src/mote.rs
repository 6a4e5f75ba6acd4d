//! Wireless sensor mote simulation.
//!
//! A [`MoteSource`] samples an environment model at a fixed period, adds
//! sensor noise, optionally *fails dirty* (keeps reporting, with readings
//! drifting away from reality — §5.1: 8 of 33 Sonoma motes failed and
//! "continued to report readings that slowly rose to above 100 °C"),
//! frames each sample to bytes ([`crate::wire`]) and sends it through a
//! lossy [`Channel`]; the receiving edge decodes surviving frames back into
//! tuples. Loss and corruption therefore happen to *bytes on the air*, as
//! in the real deployments.

use std::sync::Arc;

use esp_stream::{Payload, Source};
use esp_types::{
    well_known, Batch, ReceptorId, Result, SampleRateHandle, Schema, TimeDelta, Ts, Tuple, Value,
};

use crate::channel::{Channel, Delivery};
use crate::wire::{self, Reading};

/// A deterministic model of the physical quantity a mote senses.
pub trait EnvModel: Send + Sync {
    /// The true value at `mote`'s location at time `ts`.
    fn value(&self, mote: ReceptorId, ts: Ts) -> f64;
}

impl<F: Fn(ReceptorId, Ts) -> f64 + Send + Sync> EnvModel for F {
    fn value(&self, mote: ReceptorId, ts: Ts) -> f64 {
        self(mote, ts)
    }
}

/// Fail-dirty behaviour: after `onset`, the mote's reported value ramps
/// linearly away from reality at `drift_per_hour`, saturating at
/// `ceiling` — the signature seen in both the Intel-lab and Sonoma traces.
#[derive(Debug, Clone, Copy)]
pub struct FailDirty {
    /// When the sensor fails.
    pub onset: Ts,
    /// Drift rate (units per hour) applied after onset.
    pub drift_per_hour: f64,
    /// The reading saturates here.
    pub ceiling: f64,
}

impl FailDirty {
    fn apply(&self, ts: Ts, healthy: f64) -> f64 {
        if ts < self.onset {
            return healthy;
        }
        let hours = (ts - self.onset).as_secs_f64() / 3600.0;
        (healthy + self.drift_per_hour * hours).min(self.ceiling)
    }
}

/// Battery-voltage channel: voltage tracks the *true* ambient temperature
/// (battery chemistry responds to the environment, not to the sensor), so
/// when a temperature sensor fails dirty the two channels diverge — the
/// correlation a BBQ-style model stage (paper §6.3.1) exploits.
#[derive(Debug, Clone, Copy)]
pub struct VoltageModel {
    /// Voltage at 0 °C.
    pub base_v: f64,
    /// Volts per °C of true ambient temperature.
    pub v_per_c: f64,
    /// Voltage measurement noise σ.
    pub noise_sd: f64,
}

impl Default for VoltageModel {
    fn default() -> VoltageModel {
        VoltageModel {
            base_v: 2.70,
            v_per_c: 0.008,
            noise_sd: 0.002,
        }
    }
}

/// Configuration for one mote.
pub struct MoteConfig {
    /// Device id.
    pub id: ReceptorId,
    /// Sampling period.
    pub sample_period: TimeDelta,
    /// Gaussian sensor-noise standard deviation.
    pub noise_sd: f64,
    /// Fail-dirty behaviour, if this mote fails.
    pub fail: Option<FailDirty>,
    /// RNG seed for the sensor noise.
    pub seed: u64,
    /// Output field name: [`well_known::TEMP`] or [`well_known::NOISE`].
    pub field: &'static str,
    /// When set, the mote co-samples battery voltage and emits
    /// `(receptor_id, temp, voltage)` tuples (dual-channel packets).
    pub voltage: Option<VoltageModel>,
}

impl MoteConfig {
    /// A plain temperature mote with no failure, no noise, 1 s sampling.
    pub fn simple(id: ReceptorId, seed: u64) -> MoteConfig {
        MoteConfig {
            id,
            sample_period: TimeDelta::from_secs(1),
            noise_sd: 0.0,
            fail: None,
            seed,
            field: well_known::TEMP,
            voltage: None,
        }
    }
}

/// A simulated mote: sensor + wire framing + lossy uplink, as an
/// [`esp_stream::Source`].
pub struct MoteSource {
    config: MoteConfig,
    env: Arc<dyn EnvModel>,
    channel: Box<dyn Channel>,
    rng: rand::rngs::StdRng,
    schema: Arc<Schema>,
    next_sample: Ts,
    name: String,
    sent: u64,
    delivered: u64,
    rate: SampleRateHandle,
}

impl MoteSource {
    /// Build a mote over an environment model and an uplink channel.
    pub fn new(
        config: MoteConfig,
        env: Arc<dyn EnvModel>,
        channel: Box<dyn Channel>,
    ) -> MoteSource {
        use rand::SeedableRng;
        let schema = if config.voltage.is_some() {
            well_known::temp_voltage_schema()
        } else {
            match config.field {
                well_known::NOISE => well_known::sound_schema(),
                _ => well_known::temp_schema(),
            }
        };
        let name = format!("mote-{}", config.id.0);
        let rate = SampleRateHandle::new(config.sample_period);
        MoteSource {
            rng: rand::rngs::StdRng::seed_from_u64(config.seed),
            env,
            channel,
            schema,
            next_sample: Ts::ZERO,
            name,
            sent: 0,
            delivered: 0,
            rate,
            config,
        }
    }

    /// The actuation handle controlling this mote's sample period
    /// (paper §5.3.1). Adjustments take effect at the next sample.
    pub fn actuation_handle(&self) -> SampleRateHandle {
        self.rate.clone()
    }

    /// Messages sent so far (before the channel).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages that survived the channel so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    fn gaussian(&mut self, sd: f64) -> f64 {
        use rand::Rng;
        if sd <= 0.0 {
            return 0.0;
        }
        // Box–Muller, deterministic under the seed.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * sd
    }

    /// Sample the sensor once at `ts` (noise + fail-dirty applied).
    fn sample(&mut self, ts: Ts) -> f64 {
        let healthy = self.env.value(self.config.id, ts);
        let value = healthy + self.gaussian(self.config.noise_sd);
        match &self.config.fail {
            Some(f) => f.apply(ts, value),
            None => value,
        }
    }

    /// Sample the battery-voltage channel at `ts`: a function of the TRUE
    /// environment, unaffected by the temperature sensor's failure.
    fn sample_voltage(&mut self, ts: Ts, vm: VoltageModel) -> f64 {
        let true_temp = self.env.value(self.config.id, ts);
        vm.base_v + vm.v_per_c * true_temp + self.gaussian(vm.noise_sd)
    }
}

impl Source for MoteSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Payload> {
        let mut out = Batch::new();
        while self.next_sample <= epoch {
            let ts = self.next_sample;
            self.next_sample += self.rate.period();
            let value = self.sample(ts);
            // Frame → channel → (maybe) decode at the edge.
            let reading = match self.config.voltage {
                Some(vm) => Reading::Dual {
                    receptor: self.config.id,
                    ts,
                    a: value,
                    b: self.sample_voltage(ts, vm),
                },
                None => Reading::Scalar {
                    receptor: self.config.id,
                    ts,
                    value,
                },
            };
            let frame = wire::encode(&reading);
            self.sent += 1;
            let frame = match self.channel.transmit() {
                Delivery::Lost => continue,
                Delivery::Corrupted => {
                    let mut bad = frame.to_vec();
                    let idx = bad.len() / 2;
                    bad[idx] ^= 0xff;
                    bytes::Bytes::from(bad)
                }
                Delivery::Delivered => frame,
            };
            // The edge silently drops corrupt frames (checksum), exactly
            // like the paper's out-of-the-box Point functionality.
            let Ok(decoded) = wire::decode(&frame) else {
                continue;
            };
            match decoded {
                Reading::Scalar {
                    receptor,
                    ts,
                    value,
                } => {
                    self.delivered += 1;
                    out.push(Tuple::new_unchecked(
                        Arc::clone(&self.schema),
                        ts,
                        vec![Value::Int(i64::from(receptor.0)), Value::Float(value)],
                    ));
                }
                Reading::Dual { receptor, ts, a, b } => {
                    self.delivered += 1;
                    out.push(Tuple::new_unchecked(
                        Arc::clone(&self.schema),
                        ts,
                        vec![
                            Value::Int(i64::from(receptor.0)),
                            Value::Float(a),
                            Value::Float(b),
                        ],
                    ));
                }
                _ => continue,
            }
        }
        Ok(Payload::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BernoulliChannel, PerfectChannel};

    fn flat_world() -> Arc<dyn EnvModel> {
        Arc::new(|_: ReceptorId, _: Ts| 20.0)
    }

    fn config(id: u32, fail: Option<FailDirty>) -> MoteConfig {
        MoteConfig {
            id: ReceptorId(id),
            sample_period: TimeDelta::from_secs(1),
            noise_sd: 0.0,
            fail,
            seed: id as u64,
            field: well_known::TEMP,
            voltage: None,
        }
    }

    #[test]
    fn samples_at_period_over_perfect_channel() {
        let mut m = MoteSource::new(config(1, None), flat_world(), Box::new(PerfectChannel));
        let batch = m.poll(Ts::from_secs(4)).unwrap().into_rows();
        assert_eq!(batch.len(), 5, "samples at 0..=4s");
        assert_eq!(batch[0].get("temp"), Some(&Value::Float(20.0)));
        assert_eq!(batch[0].get("receptor_id"), Some(&Value::Int(1)));
        // Next poll resumes where it left off.
        let batch = m.poll(Ts::from_secs(6)).unwrap().into_rows();
        assert_eq!(batch.len(), 2);
        assert_eq!(m.sent(), 7);
        assert_eq!(m.delivered(), 7);
    }

    #[test]
    fn fail_dirty_ramps_and_saturates() {
        let fail = FailDirty {
            onset: Ts::from_secs(3600),
            drift_per_hour: 40.0,
            ceiling: 120.0,
        };
        let mut cfg = config(2, Some(fail));
        cfg.sample_period = TimeDelta::from_mins(30);
        let mut m = MoteSource::new(cfg, flat_world(), Box::new(PerfectChannel));
        let batch = m.poll(Ts::from_secs(6 * 3600)).unwrap().into_rows();
        let temps: Vec<f64> = batch
            .iter()
            .map(|t| t.get("temp").unwrap().as_f64().unwrap())
            .collect();
        // Healthy before onset.
        assert_eq!(temps[0], 20.0);
        assert_eq!(temps[2], 20.0); // t = 1h = onset boundary
                                    // Ramping after onset: +40 °C/h.
        assert!(
            (temps[4] - 60.0).abs() < 1e-9,
            "t=2h → 20+40 = 60, got {}",
            temps[4]
        );
        // Saturated at the ceiling by t=6h (20 + 40*5 = 220 > 120).
        assert_eq!(*temps.last().unwrap(), 120.0);
    }

    #[test]
    fn lossy_channel_reduces_delivered() {
        let mut m = MoteSource::new(
            config(3, None),
            flat_world(),
            Box::new(BernoulliChannel::new(3, 0.6, 0.0)),
        );
        let batch = m.poll(Ts::from_secs(999)).unwrap().into_rows();
        assert_eq!(m.sent(), 1000);
        let rate = batch.len() as f64 / 1000.0;
        assert!((rate - 0.4).abs() < 0.06, "delivery rate {rate}");
    }

    #[test]
    fn corrupted_frames_dropped_at_edge() {
        let mut m = MoteSource::new(
            config(4, None),
            flat_world(),
            Box::new(BernoulliChannel::new(4, 0.0, 1.0)),
        );
        let batch = m.poll(Ts::from_secs(99)).unwrap().into_rows();
        assert!(batch.is_empty(), "all frames corrupt → all dropped");
        assert_eq!(m.sent(), 100);
        assert_eq!(m.delivered(), 0);
    }

    #[test]
    fn noise_is_deterministic_under_seed() {
        let build = || {
            let mut cfg = config(5, None);
            cfg.noise_sd = 0.5;
            MoteSource::new(cfg, flat_world(), Box::new(PerfectChannel))
        };
        let a: Vec<Tuple> = build().poll(Ts::from_secs(50)).unwrap().into_rows();
        let b: Vec<Tuple> = build().poll(Ts::from_secs(50)).unwrap().into_rows();
        assert_eq!(a, b);
        // And the noise actually perturbs values.
        assert!(a
            .iter()
            .any(|t| t.get("temp").unwrap().as_f64().unwrap() != 20.0));
    }

    #[test]
    fn voltage_channel_tracks_truth_through_sensor_failure() {
        let fail = FailDirty {
            onset: Ts::from_secs(100),
            drift_per_hour: 3600.0, // +1 °C per second for a fast test
            ceiling: 200.0,
        };
        let mut cfg = config(9, Some(fail));
        cfg.voltage = Some(VoltageModel {
            base_v: 2.7,
            v_per_c: 0.01,
            noise_sd: 0.0,
        });
        let mut m = MoteSource::new(cfg, flat_world(), Box::new(PerfectChannel));
        let batch = m.poll(Ts::from_secs(300)).unwrap().into_rows();
        let last = batch.last().unwrap();
        let temp = last.get("temp").unwrap().as_f64().unwrap();
        let volt = last.get("voltage").unwrap().as_f64().unwrap();
        assert!(temp > 100.0, "sensor failed dirty: {temp}");
        // Voltage still reflects the true 20 °C world: 2.7 + 0.01*20.
        assert!((volt - 2.9).abs() < 1e-9, "voltage {volt} tracks truth");
    }

    #[test]
    fn actuation_handle_changes_sample_rate_mid_run() {
        let mut m = MoteSource::new(config(10, None), flat_world(), Box::new(PerfectChannel));
        let handle = m.actuation_handle();
        // 1 Hz for the first 10 s: 11 samples (t = 0..=10).
        assert_eq!(m.poll(Ts::from_secs(10)).unwrap().into_rows().len(), 11);
        // Actuate to 4 Hz: the next 10 s yield ~40 samples.
        handle.set_period(TimeDelta::from_millis(250));
        let n = m.poll(Ts::from_secs(20)).unwrap().into_rows().len();
        assert!((36..=42).contains(&n), "actuated sample count {n}");
        // Relax back to 1 Hz.
        handle.set_period(TimeDelta::from_secs(1));
        let n = m.poll(Ts::from_secs(30)).unwrap().into_rows().len();
        assert!((9..=11).contains(&n), "relaxed sample count {n}");
    }

    #[test]
    fn sound_field_uses_sound_schema() {
        let mut cfg = config(6, None);
        cfg.field = well_known::NOISE;
        let mut m = MoteSource::new(
            cfg,
            Arc::new(|_: ReceptorId, _: Ts| 500.0),
            Box::new(PerfectChannel),
        );
        let batch = m.poll(Ts::ZERO).unwrap().into_rows();
        assert_eq!(batch[0].get("noise"), Some(&Value::Float(500.0)));
    }
}
