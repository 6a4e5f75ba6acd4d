//! The §4 RFID retail-shelf scenario.
//!
//! Two shelves, each watched by one reader polling at 5 Hz. Each shelf
//! holds 10 statically placed tags (5 near the antenna, 5 far) and 5
//! additional tagged items sit 9 feet out, relocated between the shelves
//! every 40 seconds. Detection is Bernoulli per poll with probabilities
//! calibrated to the paper's observations:
//!
//! * near/far tags on the reader's own shelf read at roughly the 60–80%
//!   rates reported for EPC Class-1 tags in a favourable setup;
//! * reader 0's antenna is *stronger* and overhears the other shelf's tags
//!   at a low per-poll rate — integrated over a 5 s smoothing window this
//!   produces the paper's "counts reported for shelf 0 were consistently
//!   4 to 5 items higher than reality" (§4.1), the error Arbitrate exists
//!   to fix;
//! * mobile items at 9 ft are hard to read (25%/poll) and slightly visible
//!   to the far reader, producing the "uneven portions" of Figure 3(d).
//!
//! Ground truth (`true_count`) is a pure function of time, so the scenario
//! needs no shared mutable world state.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use esp_stream::{Payload, Source};
use esp_types::{well_known, Batch, ReceptorId, Result, Schema, TimeDelta, Ts, Tuple, Value};

use crate::GroupSpec;

/// Where a tag sits relative to its shelf's reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagPosition {
    /// 3 feet from the antenna.
    Near,
    /// 6 feet from the antenna.
    Far,
    /// 9 feet out, relocated between shelves every `relocate_every`.
    Mobile,
}

/// Scenario parameters (defaults reproduce the paper's setup).
#[derive(Debug, Clone)]
pub struct ShelfConfig {
    /// Number of shelves (= readers = proximity groups).
    pub n_shelves: usize,
    /// Static tags per shelf (half near, half far).
    pub static_tags_per_shelf: usize,
    /// Mobile tags shared between shelves.
    pub mobile_tags: usize,
    /// Relocation period of the mobile tags.
    pub relocate_every: TimeDelta,
    /// Reader poll period (5 Hz in the paper).
    pub sample_period: TimeDelta,
    /// Per-poll detection probability of a near tag by its own reader.
    pub p_near: f64,
    /// Per-poll detection probability of a far tag by its own reader.
    pub p_far: f64,
    /// Per-poll detection probability of a mobile tag by the shelf it is
    /// currently on.
    pub p_mobile_own: f64,
    /// Per-reader per-poll probability of reading a *static* tag on
    /// another shelf. Index = reader. Reader 0's antenna is stronger.
    pub overhear_static: Vec<f64>,
    /// Per-reader per-poll probability of reading a *mobile* tag currently
    /// on another shelf.
    pub overhear_mobile: Vec<f64>,
    /// Probability that a poll cycle is a *blackout* (interference, reader
    /// duty cycling): all detection probabilities are scaled down for the
    /// whole cycle. Blackouts are what make raw per-poll counts dip toward
    /// zero (Figure 3(b)) and restock alerts fire constantly.
    pub p_blackout: f64,
    /// Detection-probability multiplier during a blackout poll.
    pub blackout_factor: f64,
}

impl Default for ShelfConfig {
    fn default() -> ShelfConfig {
        ShelfConfig {
            n_shelves: 2,
            static_tags_per_shelf: 10,
            mobile_tags: 5,
            relocate_every: TimeDelta::from_secs(40),
            sample_period: TimeDelta::from_millis(200),
            p_near: 0.8,
            p_far: 0.6,
            p_mobile_own: 0.25,
            overhear_static: vec![0.025, 0.002],
            overhear_mobile: vec![0.02, 0.004],
            p_blackout: 0.2,
            blackout_factor: 0.12,
        }
    }
}

/// The shelf scenario: world model + reader factory + ground truth.
#[derive(Debug, Clone)]
pub struct ShelfScenario {
    config: ShelfConfig,
    seed: u64,
}

impl ShelfScenario {
    /// Build a scenario with the paper's defaults.
    pub fn paper(seed: u64) -> ShelfScenario {
        ShelfScenario::new(ShelfConfig::default(), seed)
    }

    /// Build a scenario from explicit parameters.
    pub fn new(config: ShelfConfig, seed: u64) -> ShelfScenario {
        ShelfScenario { config, seed }
    }

    /// The configuration.
    pub fn config(&self) -> &ShelfConfig {
        &self.config
    }

    /// The granule name for a shelf.
    pub fn granule_name(shelf: usize) -> String {
        format!("shelf{shelf}")
    }

    /// The proximity groups: one reader per shelf.
    pub fn groups(&self) -> Vec<GroupSpec> {
        (0..self.config.n_shelves)
            .map(|s| GroupSpec {
                granule: Self::granule_name(s),
                members: vec![ReceptorId(s as u32)],
            })
            .collect()
    }

    /// One reader source per shelf.
    pub fn sources(&self) -> Vec<(ReceptorId, Box<dyn Source>)> {
        (0..self.config.n_shelves)
            .map(|s| {
                let id = ReceptorId(s as u32);
                let src = RfidReaderSource {
                    reader: s,
                    id,
                    config: self.config.clone(),
                    rng: StdRng::seed_from_u64(self.seed.wrapping_add(s as u64)),
                    schema: well_known::rfid_schema(),
                    next_poll: Ts::ZERO,
                    name: format!("rfid-reader-{s}"),
                };
                (id, Box::new(src) as Box<dyn Source>)
            })
            .collect()
    }

    /// Which shelf the mobile tags are on at `ts`.
    pub fn mobile_shelf(&self, ts: Ts) -> usize {
        let period = self.config.relocate_every.as_millis().max(1);
        ((ts.as_millis() / period) as usize) % self.config.n_shelves
    }

    /// Ground truth: number of items physically on `shelf` at `ts`.
    pub fn true_count(&self, shelf: usize, ts: Ts) -> usize {
        let mobiles = if self.mobile_shelf(ts) == shelf {
            self.config.mobile_tags
        } else {
            0
        };
        self.config.static_tags_per_shelf + mobiles
    }

    /// Ground truth: the shelf a tag id is on at `ts`, if it exists.
    pub fn shelf_of_tag(&self, tag: &str, ts: Ts) -> Option<usize> {
        if let Some(rest) = tag.strip_prefix("tag-") {
            let shelf: usize = rest.split('-').next()?.parse().ok()?;
            return (shelf < self.config.n_shelves).then_some(shelf);
        }
        if tag.strip_prefix("mob-").is_some() {
            return Some(self.mobile_shelf(ts));
        }
        None
    }

    /// All tag ids that exist in the world.
    pub fn all_tags(&self) -> Vec<String> {
        let mut tags = Vec::new();
        for s in 0..self.config.n_shelves {
            for i in 0..self.config.static_tags_per_shelf {
                tags.push(format!("tag-{s}-{i}"));
            }
        }
        for m in 0..self.config.mobile_tags {
            tags.push(format!("mob-{m}"));
        }
        tags
    }
}

/// One simulated RFID reader.
struct RfidReaderSource {
    reader: usize,
    id: ReceptorId,
    config: ShelfConfig,
    rng: StdRng,
    schema: Arc<Schema>,
    next_poll: Ts,
    name: String,
}

impl RfidReaderSource {
    /// Per-poll detection probability of (shelf, position) by this reader.
    fn detection_p(&self, tag_shelf: usize, pos: TagPosition) -> f64 {
        let own = tag_shelf == self.reader;
        match (own, pos) {
            (true, TagPosition::Near) => self.config.p_near,
            (true, TagPosition::Far) => self.config.p_far,
            (true, TagPosition::Mobile) => self.config.p_mobile_own,
            (false, TagPosition::Mobile) => self
                .config
                .overhear_mobile
                .get(self.reader)
                .copied()
                .unwrap_or(0.0),
            (false, _) => self
                .config
                .overhear_static
                .get(self.reader)
                .copied()
                .unwrap_or(0.0),
        }
    }

    fn poll_once(&mut self, ts: Ts, out: &mut Batch) {
        let period = self.config.relocate_every.as_millis().max(1);
        let mobile_shelf = ((ts.as_millis() / period) as usize) % self.config.n_shelves;
        // Whole-cycle blackout (interference): scale every probability.
        let scale = if self.config.p_blackout > 0.0 && self.rng.gen_bool(self.config.p_blackout) {
            self.config.blackout_factor
        } else {
            1.0
        };
        // Static tags on every shelf.
        for shelf in 0..self.config.n_shelves {
            for i in 0..self.config.static_tags_per_shelf {
                let pos = if i < self.config.static_tags_per_shelf / 2 {
                    TagPosition::Near
                } else {
                    TagPosition::Far
                };
                let p = self.detection_p(shelf, pos) * scale;
                if p > 0.0 && self.rng.gen_bool(p) {
                    out.push(self.sighting(ts, &format!("tag-{shelf}-{i}")));
                }
            }
        }
        // Mobile tags.
        for m in 0..self.config.mobile_tags {
            let p = self.detection_p(mobile_shelf, TagPosition::Mobile) * scale;
            if p > 0.0 && self.rng.gen_bool(p) {
                out.push(self.sighting(ts, &format!("mob-{m}")));
            }
        }
    }

    fn sighting(&self, ts: Ts, tag: &str) -> Tuple {
        Tuple::new_unchecked(
            Arc::clone(&self.schema),
            ts,
            vec![Value::Int(i64::from(self.id.0)), Value::str(tag)],
        )
    }
}

impl Source for RfidReaderSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, epoch: Ts) -> Result<Payload> {
        let mut out = Batch::new();
        while self.next_poll <= epoch {
            let ts = self.next_poll;
            self.next_poll += self.config.sample_period;
            self.poll_once(ts, &mut out);
        }
        Ok(Payload::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn ground_truth_alternates_with_relocation() {
        let s = ShelfScenario::paper(1);
        assert_eq!(s.true_count(0, Ts::ZERO), 15);
        assert_eq!(s.true_count(1, Ts::ZERO), 10);
        assert_eq!(s.true_count(0, Ts::from_secs(40)), 10);
        assert_eq!(s.true_count(1, Ts::from_secs(40)), 15);
        assert_eq!(s.true_count(0, Ts::from_secs(80)), 15);
    }

    #[test]
    fn groups_one_reader_per_shelf() {
        let s = ShelfScenario::paper(1);
        let groups = s.groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].granule, "shelf0");
        assert_eq!(groups[0].members, vec![ReceptorId(0)]);
        assert_eq!(groups[1].members, vec![ReceptorId(1)]);
    }

    #[test]
    fn shelf_of_tag_tracks_mobiles() {
        let s = ShelfScenario::paper(1);
        assert_eq!(s.shelf_of_tag("tag-0-3", Ts::ZERO), Some(0));
        assert_eq!(s.shelf_of_tag("tag-1-9", Ts::from_secs(100)), Some(1));
        assert_eq!(s.shelf_of_tag("mob-2", Ts::ZERO), Some(0));
        assert_eq!(s.shelf_of_tag("mob-2", Ts::from_secs(40)), Some(1));
        assert_eq!(s.shelf_of_tag("errant", Ts::ZERO), None);
        assert_eq!(s.shelf_of_tag("tag-9-0", Ts::ZERO), None);
    }

    #[test]
    fn all_tags_enumerates_world() {
        let s = ShelfScenario::paper(1);
        let tags = s.all_tags();
        assert_eq!(tags.len(), 25);
        assert!(tags.contains(&"tag-1-9".to_string()));
        assert!(tags.contains(&"mob-4".to_string()));
    }

    /// Read-rate calibration: own-shelf static tags should be read at
    /// roughly (p_near+p_far)/2 per poll, and the strong reader should
    /// overhear the other shelf at a low but non-zero rate. Blackouts are
    /// disabled so nominal rates are directly observable.
    #[test]
    fn read_rates_match_configuration() {
        let s = ShelfScenario::new(
            ShelfConfig {
                p_blackout: 0.0,
                ..ShelfConfig::default()
            },
            7,
        );
        let mut sources = s.sources();
        let polls = 2_000u64;
        let horizon = Ts::from_millis((polls - 1) * 200);
        let batch0 = sources[0].1.poll(horizon).unwrap().into_rows();

        let mut per_tag: HashMap<String, usize> = HashMap::new();
        for t in &batch0 {
            *per_tag
                .entry(t.get("tag_id").unwrap().as_str().unwrap().to_string())
                .or_default() += 1;
        }
        // Near tag on own shelf ≈ 0.8.
        let near_rate = *per_tag.get("tag-0-0").unwrap_or(&0) as f64 / polls as f64;
        assert!((near_rate - 0.8).abs() < 0.05, "near rate {near_rate}");
        // Far tag ≈ 0.6.
        let far_rate = *per_tag.get("tag-0-9").unwrap_or(&0) as f64 / polls as f64;
        assert!((far_rate - 0.6).abs() < 0.05, "far rate {far_rate}");
        // Overheard tag from shelf 1 ≈ 0.025 for the strong reader.
        let overhear = *per_tag.get("tag-1-0").unwrap_or(&0) as f64 / polls as f64;
        assert!(
            overhear > 0.005 && overhear < 0.06,
            "overhear rate {overhear}"
        );
    }

    #[test]
    fn weak_reader_barely_overhears() {
        let s = ShelfScenario::paper(7);
        let mut sources = s.sources();
        let polls = 2_000u64;
        let horizon = Ts::from_millis((polls - 1) * 200);
        let batch1 = sources[1].1.poll(horizon).unwrap().into_rows();
        let foreign = batch1
            .iter()
            .filter(|t| {
                t.get("tag_id")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("tag-0-")
            })
            .count();
        let rate = foreign as f64 / (polls as f64 * 10.0);
        assert!(rate < 0.01, "weak reader overhear rate {rate}");
    }

    #[test]
    fn blackout_polls_produce_near_empty_cycles() {
        // With blackouts on (default 20% of cycles at 12% strength), some
        // poll cycles catch almost nothing — the Figure 3(b) dips.
        let s = ShelfScenario::paper(7);
        let mut sources = s.sources();
        let polls = 1_000u64;
        let horizon = Ts::from_millis((polls - 1) * 200);
        let batch = sources[0].1.poll(horizon).unwrap().into_rows();
        let mut per_poll = vec![0usize; polls as usize];
        for t in &batch {
            per_poll[(t.ts().as_millis() / 200) as usize] += 1;
        }
        let starved = per_poll.iter().filter(|&&n| n <= 2).count();
        let frac = starved as f64 / polls as f64;
        assert!(frac > 0.1 && frac < 0.35, "starved-cycle fraction {frac}");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let s = ShelfScenario::paper(42);
            let mut sources = s.sources();
            sources[0].1.poll(Ts::from_secs(5)).unwrap().into_rows()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn raw_per_poll_count_is_badly_wrong() {
        // The headline motivation: raw per-poll counts are off by ~40%.
        let s = ShelfScenario::paper(3);
        let mut sources = s.sources();
        let polls = 500u64;
        let horizon = Ts::from_millis((polls - 1) * 200);
        let batch = sources[0].1.poll(horizon).unwrap().into_rows();
        let mean_count = batch.len() as f64 / polls as f64;
        // True count on shelf 0 averages ≈ 12.5; raw per-poll ≈ 7–9.
        assert!(
            mean_count < 10.0,
            "raw mean count {mean_count} should undercount"
        );
        assert!(mean_count > 4.0);
    }
}
