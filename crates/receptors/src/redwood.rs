//! The §5.2 Sonoma redwood micro-climate scenario.
//!
//! 33 motes along the trunk of a redwood, sensing temperature every five
//! minutes and reporting over a lossy multi-hop network that delivered
//! only 40% of requested readings. Motes at nearby heights (< 1 ft apart)
//! form 2-node proximity groups; the application's spatial granule is the
//! altitude band.
//!
//! The synthetic micro-climate combines a diurnal cycle whose amplitude
//! grows toward the canopy (upper motes see more sun), a small altitude
//! lapse, and slow weather drift. Motes in the same pair sit at almost the
//! same height, so their true values are nearly identical — the property
//! Merge exploits.

use std::sync::Arc;

use esp_stream::Source;
use esp_types::{well_known, ReceptorId, TimeDelta, Ts};

use crate::channel::GilbertElliottChannel;
use crate::mote::{EnvModel, MoteConfig, MoteSource};
use crate::GroupSpec;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct RedwoodConfig {
    /// Number of motes on the trunk (paper: 33).
    pub n_motes: usize,
    /// Sampling/reporting period (paper: 5 minutes).
    pub sample_period: TimeDelta,
    /// Long-run delivery rate of the multi-hop uplink (paper: 0.40).
    pub delivery_rate: f64,
    /// Mean loss-burst length in messages (multi-hop losses are bursty).
    pub mean_burst: f64,
    /// Sensor noise σ (°C).
    pub noise_sd: f64,
    /// Trunk height range instrumented, in metres.
    pub base_height_m: f64,
    /// Vertical spacing between successive pairs, in metres.
    pub pair_spacing_m: f64,
}

impl Default for RedwoodConfig {
    fn default() -> RedwoodConfig {
        RedwoodConfig {
            n_motes: 33,
            sample_period: TimeDelta::from_mins(5),
            delivery_rate: 0.40,
            mean_burst: 7.5,
            noise_sd: 0.15,
            base_height_m: 10.0,
            pair_spacing_m: 3.0,
        }
    }
}

/// The redwood micro-climate field.
#[derive(Debug, Clone)]
pub struct RedwoodWorld {
    config: RedwoodConfig,
}

impl RedwoodWorld {
    /// Build a world from explicit parameters.
    pub fn new(config: RedwoodConfig) -> RedwoodWorld {
        RedwoodWorld { config }
    }

    /// Height (metres) of mote `idx` (two motes per rung, < 1 ft apart).
    pub fn height_m(&self, idx: usize) -> f64 {
        let rung = idx / 2;
        let within = (idx % 2) as f64 * 0.25; // 25 cm apart within a pair
        self.config.base_height_m + rung as f64 * self.config.pair_spacing_m + within
    }

    /// The true temperature at height `h` metres at `ts`.
    pub fn temp_at(&self, h: f64, ts: Ts) -> f64 {
        let days = ts.as_secs_f64() / 86_400.0;
        let height_frac = (h - self.config.base_height_m)
            / (self.config.pair_spacing_m * ((self.config.n_motes / 2).max(1) as f64));
        // Diurnal swing grows toward the canopy; peak mid-afternoon.
        // Sonoma canopy swings are large (the paper's micro-climate study
        // motivation), which is what makes window lag cost accuracy.
        let amplitude = 7.0 + 5.0 * height_frac;
        let diurnal = amplitude * (std::f64::consts::TAU * (days - 0.125)).sin();
        // Slow multi-day weather drift.
        let weather = 2.0 * (std::f64::consts::TAU * days / 3.5).sin();
        // Mild lapse: higher is slightly cooler at the mean.
        12.0 + diurnal + weather - 0.02 * (h - self.config.base_height_m)
    }
}

impl EnvModel for RedwoodWorld {
    fn value(&self, mote: ReceptorId, ts: Ts) -> f64 {
        self.temp_at(self.height_m(mote.0 as usize), ts)
    }
}

/// The full scenario: world + motes + groups + ground truth.
#[derive(Debug, Clone)]
pub struct RedwoodScenario {
    world: RedwoodWorld,
    seed: u64,
}

impl RedwoodScenario {
    /// The paper's setup.
    pub fn paper(seed: u64) -> RedwoodScenario {
        RedwoodScenario::new(RedwoodConfig::default(), seed)
    }

    /// Explicit parameters.
    pub fn new(config: RedwoodConfig, seed: u64) -> RedwoodScenario {
        RedwoodScenario {
            world: RedwoodWorld { config },
            seed,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RedwoodConfig {
        &self.world.config
    }

    /// The world model.
    pub fn world(&self) -> &RedwoodWorld {
        &self.world
    }

    /// 2-node non-overlapping proximity groups by height (an odd final
    /// mote forms a singleton group, mirroring the paper's odd count).
    pub fn groups(&self) -> Vec<GroupSpec> {
        let n = self.world.config.n_motes;
        let mut groups = Vec::with_capacity(n.div_ceil(2));
        let mut i = 0;
        while i < n {
            let members: Vec<ReceptorId> =
                (i..n.min(i + 2)).map(|m| ReceptorId(m as u32)).collect();
            groups.push(GroupSpec {
                granule: format!("height-{}", groups.len()),
                members,
            });
            i += 2;
        }
        groups
    }

    /// Ground truth for a granule: mean true temperature of its members.
    pub fn granule_true_temp(&self, group_idx: usize, ts: Ts) -> f64 {
        let groups = self.groups();
        let members = &groups[group_idx].members;
        members
            .iter()
            .map(|m| self.world.value(*m, ts))
            .sum::<f64>()
            / members.len() as f64
    }

    /// Ground truth per mote (what a local log would record, minus noise).
    pub fn mote_true_temp(&self, mote: ReceptorId, ts: Ts) -> f64 {
        self.world.value(mote, ts)
    }

    /// Build the mote sources.
    pub fn sources(&self) -> Vec<(ReceptorId, Box<dyn Source>)> {
        let env: Arc<dyn EnvModel> = Arc::new(self.world.clone());
        (0..self.world.config.n_motes)
            .map(|i| {
                let id = ReceptorId(i as u32);
                let source = MoteSource::new(
                    MoteConfig {
                        id,
                        sample_period: self.world.config.sample_period,
                        noise_sd: self.world.config.noise_sd,
                        fail: None,
                        seed: self.seed.wrapping_add(i as u64),
                        field: well_known::TEMP,
                        voltage: None,
                    },
                    Arc::clone(&env),
                    Box::new(GilbertElliottChannel::with_yield(
                        self.seed.wrapping_add(1_000 + i as u64),
                        self.world.config.delivery_rate,
                        self.world.config.mean_burst,
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

    #[test]
    fn pairs_plus_singleton_for_odd_counts() {
        let s = RedwoodScenario::paper(1);
        let groups = s.groups();
        assert_eq!(groups.len(), 17); // 16 pairs + 1 singleton
        assert!(groups[..16].iter().all(|g| g.members.len() == 2));
        assert_eq!(groups[16].members.len(), 1);
        // Non-overlapping.
        let mut all: Vec<u32> = groups
            .iter()
            .flat_map(|g| g.members.iter().map(|m| m.0))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..33).collect::<Vec<_>>());
    }

    #[test]
    fn pair_members_see_nearly_identical_temperatures() {
        let s = RedwoodScenario::paper(1);
        for rung in 0..16 {
            let (a, b) = (ReceptorId(rung * 2), ReceptorId(rung * 2 + 1));
            for hour in [0u64, 6, 12, 18] {
                let ts = Ts::from_secs(hour * 3600);
                let d = (s.mote_true_temp(a, ts) - s.mote_true_temp(b, ts)).abs();
                assert!(d < 0.1, "pair {rung} diverges by {d} at hour {hour}");
            }
        }
    }

    #[test]
    fn canopy_swings_more_than_base() {
        let s = RedwoodScenario::paper(1);
        let swing = |mote: u32| {
            let temps: Vec<f64> = (0..24)
                .map(|h| s.mote_true_temp(ReceptorId(mote), Ts::from_secs(h * 3600)))
                .collect();
            temps.iter().cloned().fold(f64::MIN, f64::max)
                - temps.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(swing(32) > swing(0), "canopy should swing more");
    }

    #[test]
    fn raw_epoch_yield_is_about_forty_percent() {
        let s = RedwoodScenario::paper(9);
        let mut sources = s.sources();
        let horizon = Ts::from_secs(86_400 * 2);
        let mut sent = 0usize;
        let mut got = 0usize;
        for (_, src) in &mut sources {
            let batch = src.poll(horizon).unwrap().into_rows();
            got += batch.len();
            sent += (2 * 86_400 / 300 + 1) as usize;
        }
        let rate = got as f64 / sent as f64;
        assert!((rate - 0.40).abs() < 0.04, "epoch yield {rate}");
    }

    #[test]
    fn granule_truth_is_member_mean() {
        let s = RedwoodScenario::paper(1);
        let ts = Ts::from_secs(3600);
        let expected =
            (s.mote_true_temp(ReceptorId(0), ts) + s.mote_true_temp(ReceptorId(1), ts)) / 2.0;
        assert!((s.granule_true_temp(0, ts) - expected).abs() < 1e-12);
    }
}
