//! The §5.1 Intel-lab outlier-detection scenario (Figure 7).
//!
//! Three temperature motes in one room form a single proximity group. One
//! of them fails dirty partway through the trace: its readings ramp
//! smoothly past 100 °C while the other two keep tracking the room's
//! diurnal cycle. ESP's Point (`temp < 50`) and Merge (mean ± 1σ) stages
//! must detect the divergence *before* the hard 50 °C cutoff does.

use std::sync::Arc;

use esp_stream::Source;
use esp_types::{well_known, ReceptorId, TimeDelta, Ts};

use crate::channel::BernoulliChannel;
use crate::mote::{EnvModel, FailDirty, MoteConfig, MoteSource};
use crate::GroupSpec;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Sample period (the lab motes reported roughly every 31 s).
    pub sample_period: TimeDelta,
    /// When the failing mote's sensor dies.
    pub fail_onset: Ts,
    /// Fail-dirty drift (°C per hour). Figure 7 shows ~110 °C of rise over
    /// ~1.25 days ≈ 3.7 °C/h.
    pub drift_per_hour: f64,
    /// Saturation ceiling.
    pub ceiling: f64,
    /// Sensor noise σ.
    pub noise_sd: f64,
    /// Independent per-message loss probability.
    pub p_loss: f64,
}

impl Default for LabConfig {
    fn default() -> LabConfig {
        LabConfig {
            sample_period: TimeDelta::from_secs(31),
            fail_onset: Ts::from_secs((0.6 * 86_400.0) as u64),
            drift_per_hour: 3.7,
            ceiling: 135.0,
            noise_sd: 0.3,
            p_loss: 0.2,
        }
    }
}

/// Diurnal office temperature: ~19 °C at night, ~24 °C mid-afternoon.
#[derive(Debug, Clone, Copy)]
pub struct LabRoomModel;

impl EnvModel for LabRoomModel {
    fn value(&self, _mote: ReceptorId, ts: Ts) -> f64 {
        let days = ts.as_secs_f64() / 86_400.0;
        // Peak at 15:00, trough at 03:00.
        21.5 + 2.5 * (std::f64::consts::TAU * (days - 0.125)).sin()
    }
}

/// The three-mote lab scenario.
#[derive(Debug, Clone)]
pub struct LabScenario {
    config: LabConfig,
    seed: u64,
}

/// The mote ids used by the scenario.
pub const LAB_MOTES: [ReceptorId; 3] = [ReceptorId(1), ReceptorId(2), ReceptorId(3)];

impl LabScenario {
    /// The paper's setup.
    pub fn paper(seed: u64) -> LabScenario {
        LabScenario::new(LabConfig::default(), seed)
    }

    /// Explicit parameters.
    pub fn new(config: LabConfig, seed: u64) -> LabScenario {
        LabScenario { config, seed }
    }

    /// The configuration.
    pub fn config(&self) -> &LabConfig {
        &self.config
    }

    /// The mote that fails dirty.
    pub fn failing_mote(&self) -> ReceptorId {
        LAB_MOTES[2]
    }

    /// One proximity group containing all three motes.
    pub fn groups(&self) -> Vec<GroupSpec> {
        vec![GroupSpec {
            granule: "lab-room".into(),
            members: LAB_MOTES.to_vec(),
        }]
    }

    /// True room temperature at `ts`.
    pub fn true_temp(&self, ts: Ts) -> f64 {
        LabRoomModel.value(LAB_MOTES[0], ts)
    }

    /// Build the three mote sources (the third fails dirty).
    pub fn sources(&self) -> Vec<(ReceptorId, Box<dyn Source>)> {
        let env: Arc<dyn EnvModel> = Arc::new(LabRoomModel);
        LAB_MOTES
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let fail = (id == self.failing_mote()).then_some(FailDirty {
                    onset: self.config.fail_onset,
                    drift_per_hour: self.config.drift_per_hour,
                    ceiling: self.config.ceiling,
                });
                let source = MoteSource::new(
                    MoteConfig {
                        id,
                        sample_period: self.config.sample_period,
                        noise_sd: self.config.noise_sd,
                        fail,
                        seed: self.seed.wrapping_add(i as u64),
                        field: well_known::TEMP,
                        voltage: None,
                    },
                    Arc::clone(&env),
                    Box::new(BernoulliChannel::new(
                        self.seed.wrapping_add(100 + i as u64),
                        self.config.p_loss,
                        0.0,
                    )),
                );
                (id, Box::new(source) as Box<dyn Source>)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::Value;

    #[test]
    fn diurnal_cycle_in_range() {
        for h in 0..48 {
            let t = LabRoomModel.value(ReceptorId(1), Ts::from_secs(h * 3600));
            assert!((19.0..=24.0).contains(&t), "t={t} at hour {h}");
        }
    }

    #[test]
    fn failing_mote_diverges_but_others_track() {
        let s = LabScenario::paper(5);
        let mut sources = s.sources();
        let two_days = Ts::from_secs(2 * 86_400);
        let healthy = sources[0].1.poll(two_days).unwrap().into_rows();
        let failing = sources[2].1.poll(two_days).unwrap().into_rows();
        let last_healthy = healthy
            .last()
            .unwrap()
            .get("temp")
            .unwrap()
            .as_f64()
            .unwrap();
        let last_failing = failing
            .last()
            .unwrap()
            .get("temp")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(
            last_healthy < 30.0,
            "healthy mote stays in range: {last_healthy}"
        );
        assert!(
            last_failing > 100.0,
            "failed mote rose past 100: {last_failing}"
        );
        // Before onset, the failing mote was healthy.
        let early = failing
            .iter()
            .take_while(|t| t.ts() < s.config().fail_onset)
            .last()
            .unwrap()
            .get("temp")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(early < 30.0, "pre-onset reading {early}");
    }

    #[test]
    fn loss_rate_roughly_nominal() {
        let s = LabScenario::paper(5);
        let mut sources = s.sources();
        let day = Ts::from_secs(86_400);
        let got = sources[0].1.poll(day).unwrap().into_rows().len() as f64;
        let requested = (86_400 / 31 + 1) as f64;
        let yield_rate = got / requested;
        assert!((yield_rate - 0.8).abs() < 0.05, "yield {yield_rate}");
    }

    #[test]
    fn single_group_of_three() {
        let s = LabScenario::paper(5);
        let groups = s.groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 3);
        assert_eq!(groups[0].granule, "lab-room");
    }

    #[test]
    fn tuples_carry_receptor_ids() {
        let s = LabScenario::paper(5);
        let mut sources = s.sources();
        let batch = sources[1].1.poll(Ts::from_secs(100)).unwrap().into_rows();
        assert!(batch
            .iter()
            .all(|t| t.get("receptor_id") == Some(&Value::Int(2))));
    }
}
