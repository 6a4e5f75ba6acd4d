//! The §6 digital-home office scenario (Figure 9).
//!
//! An office instrumented with two RFID readers (the occupant wears a
//! badge tag), three sound-sensing motes, and three X10 motion detectors —
//! three proximity groups of three different receptor types, all monitoring
//! the same spatial granule ("office"). Ground truth: one person moves in
//! and out of the office, talking, at one-minute intervals.
//!
//! Modality failure modes reproduced from the paper:
//!
//! * RFID: badge frequently missed; antenna 1 occasionally reads an errant
//!   tag that is not part of the experiment (Figure 9(b));
//! * sound motes: noisy floor around ~500 ADC units with speech pushing
//!   past the paper's 525 threshold (Figure 9(c)); lossy uplink;
//! * X10: misses motion and occasionally reports motion in an empty room
//!   (Figure 9(d)).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use esp_stream::{Payload, Source};
use esp_types::{well_known, Batch, ReceptorId, ReceptorType, Result, TimeDelta, Ts, Tuple, Value};

use crate::channel::BernoulliChannel;
use crate::mote::{MoteConfig, MoteSource};
use crate::x10::{Occupancy, X10Config, X10MotionSource};
use crate::GroupSpec;

/// The errant tag antenna 1 sometimes reads (not part of the experiment).
pub const ERRANT_TAG: &str = "errant-77";
/// The badge the occupant wears.
pub const BADGE_TAG: &str = "badge-1";

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct OfficeConfig {
    /// Half-period of the occupancy square wave (paper: one minute in,
    /// one minute out).
    pub occupancy_half_period: TimeDelta,
    /// RFID reader poll period.
    pub rfid_sample: TimeDelta,
    /// Sound mote sample period.
    pub sound_sample: TimeDelta,
    /// X10 evaluation period.
    pub x10_sample: TimeDelta,
    /// Per-poll badge detection probability per reader while present.
    pub p_badge: [f64; 2],
    /// Per-poll badge detection while absent (edge of field).
    pub p_badge_absent: f64,
    /// Per-poll errant-tag read probability (antenna 1 only).
    pub p_errant: f64,
    /// Quiet-room sound level (ADC units).
    pub quiet_base: f64,
    /// Quiet-room σ.
    pub quiet_sd: f64,
    /// Speech sound level.
    pub talk_base: f64,
    /// Speech σ.
    pub talk_sd: f64,
    /// Sound-mote uplink loss.
    pub sound_loss: f64,
    /// X10 P(ON | occupied) per sample.
    pub x10_detect: f64,
    /// X10 P(ON | empty) per sample.
    pub x10_false: f64,
}

impl Default for OfficeConfig {
    fn default() -> OfficeConfig {
        OfficeConfig {
            occupancy_half_period: TimeDelta::from_secs(60),
            rfid_sample: TimeDelta::from_millis(200),
            sound_sample: TimeDelta::from_secs(1),
            x10_sample: TimeDelta::from_secs(1),
            p_badge: [0.5, 0.35],
            p_badge_absent: 0.01,
            p_errant: 0.01,
            quiet_base: 490.0,
            quiet_sd: 12.0,
            talk_base: 640.0,
            talk_sd: 110.0,
            sound_loss: 0.2,
            x10_detect: 0.25,
            x10_false: 0.01,
        }
    }
}

/// Receptor ids used by the scenario.
pub mod devices {
    use esp_types::ReceptorId;

    /// The two RFID readers.
    pub const RFID: [ReceptorId; 2] = [ReceptorId(0), ReceptorId(1)];
    /// The three sound motes.
    pub const MOTES: [ReceptorId; 3] = [ReceptorId(10), ReceptorId(11), ReceptorId(12)];
    /// The three X10 motion detectors.
    pub const X10: [ReceptorId; 3] = [ReceptorId(20), ReceptorId(21), ReceptorId(22)];
}

/// The digital-home office scenario.
#[derive(Debug, Clone)]
pub struct OfficeScenario {
    config: OfficeConfig,
    seed: u64,
}

impl OfficeScenario {
    /// The paper's setup.
    pub fn paper(seed: u64) -> OfficeScenario {
        OfficeScenario::new(OfficeConfig::default(), seed)
    }

    /// Explicit parameters.
    pub fn new(config: OfficeConfig, seed: u64) -> OfficeScenario {
        OfficeScenario { config, seed }
    }

    /// The configuration.
    pub fn config(&self) -> &OfficeConfig {
        &self.config
    }

    /// Ground truth: is the person in the office at `ts`?
    pub fn occupied(&self, ts: Ts) -> bool {
        let half = self.config.occupancy_half_period.as_millis().max(1);
        (ts.as_millis() / half).is_multiple_of(2)
    }

    /// The occupancy signal as a shareable closure.
    pub fn occupancy_fn(&self) -> Occupancy {
        let half = self.config.occupancy_half_period.as_millis().max(1);
        Arc::new(move |ts: Ts| (ts.as_millis() / half).is_multiple_of(2))
    }

    /// The three proximity groups (same spatial granule, three receptor
    /// types).
    pub fn groups(&self) -> Vec<GroupSpec> {
        vec![
            GroupSpec {
                granule: "office".into(),
                members: devices::RFID.to_vec(),
            },
            GroupSpec {
                granule: "office".into(),
                members: devices::MOTES.to_vec(),
            },
            GroupSpec {
                granule: "office".into(),
                members: devices::X10.to_vec(),
            },
        ]
    }

    /// Build all eight receptor sources with their types.
    pub fn sources(&self) -> Vec<(ReceptorId, ReceptorType, Box<dyn Source>)> {
        let mut out: Vec<(ReceptorId, ReceptorType, Box<dyn Source>)> = Vec::new();
        let occ = self.occupancy_fn();

        // RFID badge readers.
        for (i, &id) in devices::RFID.iter().enumerate() {
            let src = BadgeReaderSource {
                id,
                antenna: i,
                config: self.config.clone(),
                occupancy: Arc::clone(&occ),
                rng: StdRng::seed_from_u64(self.seed.wrapping_add(i as u64)),
                schema: well_known::rfid_schema(),
                next_poll: Ts::ZERO,
                name: format!("badge-reader-{i}"),
            };
            out.push((id, ReceptorType::Rfid, Box::new(src)));
        }

        // Sound motes: quiet floor vs speech, through a lossy uplink.
        let cfg = self.config.clone();
        let occ_sound = Arc::clone(&occ);
        let sound_env = move |_m: ReceptorId, ts: Ts| {
            if occ_sound(ts) {
                // Speech has coarse structure; the per-mote noise_sd adds
                // microphone-level variation on top.
                let phase = ts.as_secs_f64() * 1.7;
                cfg.talk_base + cfg.talk_sd * phase.sin().abs()
            } else {
                cfg.quiet_base
            }
        };
        let sound_env: Arc<dyn crate::mote::EnvModel> = Arc::new(sound_env);
        for (i, &id) in devices::MOTES.iter().enumerate() {
            let src = MoteSource::new(
                MoteConfig {
                    id,
                    sample_period: self.config.sound_sample,
                    noise_sd: self.config.quiet_sd,
                    fail: None,
                    seed: self.seed.wrapping_add(100 + i as u64),
                    field: well_known::NOISE,
                    voltage: None,
                },
                Arc::clone(&sound_env),
                Box::new(BernoulliChannel::new(
                    self.seed.wrapping_add(200 + i as u64),
                    self.config.sound_loss,
                    0.0,
                )),
            );
            out.push((id, ReceptorType::Mote, Box::new(src)));
        }

        // X10 motion detectors.
        for (i, &id) in devices::X10.iter().enumerate() {
            let src = X10MotionSource::new(
                X10Config {
                    id,
                    sample_period: self.config.x10_sample,
                    p_detect: self.config.x10_detect,
                    p_false: self.config.x10_false,
                    seed: self.seed.wrapping_add(300 + i as u64),
                },
                Arc::clone(&occ),
            );
            out.push((id, ReceptorType::X10Motion, Box::new(src)));
        }
        out
    }
}

/// An RFID reader watching for the occupant's badge.
struct BadgeReaderSource {
    id: ReceptorId,
    antenna: usize,
    config: OfficeConfig,
    occupancy: Occupancy,
    rng: StdRng,
    schema: Arc<esp_types::Schema>,
    next_poll: Ts,
    name: String,
}

impl Source for BadgeReaderSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Payload> {
        let mut out = Batch::new();
        while self.next_poll <= epoch {
            let ts = self.next_poll;
            self.next_poll += self.config.rfid_sample;
            let p_badge = if (self.occupancy)(ts) {
                self.config.p_badge[self.antenna.min(1)]
            } else {
                self.config.p_badge_absent
            };
            if p_badge > 0.0 && self.rng.gen_bool(p_badge) {
                out.push(self.sighting(ts, BADGE_TAG));
            }
            // Antenna 1 occasionally reads an errant tag (Figure 9(b)).
            if self.antenna == 1
                && self.config.p_errant > 0.0
                && self.rng.gen_bool(self.config.p_errant)
            {
                out.push(self.sighting(ts, ERRANT_TAG));
            }
        }
        Ok(Payload::from(out))
    }
}

impl BadgeReaderSource {
    fn sighting(&self, ts: Ts, tag: &str) -> Tuple {
        Tuple::new_unchecked(
            Arc::clone(&self.schema),
            ts,
            vec![Value::Int(i64::from(self.id.0)), Value::str(tag)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_square_wave() {
        let s = OfficeScenario::paper(1);
        assert!(s.occupied(Ts::ZERO));
        assert!(s.occupied(Ts::from_secs(59)));
        assert!(!s.occupied(Ts::from_secs(60)));
        assert!(!s.occupied(Ts::from_secs(119)));
        assert!(s.occupied(Ts::from_secs(120)));
    }

    #[test]
    fn three_groups_one_granule() {
        let s = OfficeScenario::paper(1);
        let groups = s.groups();
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.granule == "office"));
        assert_eq!(groups.iter().map(|g| g.members.len()).sum::<usize>(), 8);
    }

    #[test]
    fn badge_read_mostly_while_present() {
        let s = OfficeScenario::paper(3);
        let mut sources = s.sources();
        let batch = sources[0].2.poll(Ts::from_secs(600)).unwrap().into_rows();
        let (mut present, mut absent) = (0usize, 0usize);
        for t in &batch {
            if t.get("tag_id") == Some(&Value::str(BADGE_TAG)) {
                if s.occupied(t.ts()) {
                    present += 1;
                } else {
                    absent += 1;
                }
            }
        }
        assert!(
            present > 20 * absent.max(1),
            "present {present} vs absent {absent}"
        );
    }

    #[test]
    fn antenna_one_reads_errant_tags() {
        let s = OfficeScenario::paper(3);
        let mut sources = s.sources();
        let reads = |src: &mut Box<dyn Source>| {
            src.poll(Ts::from_secs(600))
                .unwrap()
                .into_rows()
                .iter()
                .filter(|t| t.get("tag_id") == Some(&Value::str(ERRANT_TAG)))
                .count()
        };
        assert_eq!(reads(&mut sources[0].2), 0, "antenna 0 never errs");
        assert!(reads(&mut sources[1].2) > 0, "antenna 1 errs occasionally");
    }

    #[test]
    fn sound_separates_occupied_from_empty() {
        let s = OfficeScenario::paper(3);
        let mut sources = s.sources();
        // Sound motes are entries 2..5.
        let batch = sources[2].2.poll(Ts::from_secs(600)).unwrap().into_rows();
        let mean_when = |occ: bool| {
            let vals: Vec<f64> = batch
                .iter()
                .filter(|t| s.occupied(t.ts()) == occ)
                .filter_map(|t| t.get("noise").and_then(Value::as_f64))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(mean_when(true) > 550.0, "speech mean {}", mean_when(true));
        assert!(mean_when(false) < 530.0, "quiet mean {}", mean_when(false));
    }

    #[test]
    fn x10_detectors_fire_on_occupancy() {
        let s = OfficeScenario::paper(3);
        let mut sources = s.sources();
        // X10 detectors are entries 5..8.
        let batch = sources[5].2.poll(Ts::from_secs(600)).unwrap().into_rows();
        let during_occupied = batch.iter().filter(|t| s.occupied(t.ts())).count();
        let during_empty = batch.len() - during_occupied;
        assert!(during_occupied > 5 * during_empty.max(1));
    }

    #[test]
    fn receptor_types_assigned() {
        let s = OfficeScenario::paper(1);
        let sources = s.sources();
        assert_eq!(sources.len(), 8);
        assert_eq!(sources[0].1, ReceptorType::Rfid);
        assert_eq!(sources[3].1, ReceptorType::Mote);
        assert_eq!(sources[7].1, ReceptorType::X10Motion);
    }
}
