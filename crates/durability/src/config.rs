//! Durability configuration and its static checks.
//!
//! The knobs here interact with the pipeline's configuration in ways
//! that type-check fine and only bite at recovery time: a checkpoint
//! interval that never aligns with an epoch boundary simply never fires,
//! a WAL retention shorter than the permitted lateness can reclaim input
//! a late reading still needs, and keeping zero snapshots silently
//! degrades every recovery to a full-log replay. Those defects get stable
//! diagnostic codes (`E0801`–`E0803`) so `esp-lint` rejects them before
//! any tuple flows.

use std::path::{Path, PathBuf};

use serde::{value::Value as Json, DeError, Deserialize};

use esp_types::{Diagnostic, EspError, Result, TimeDelta};

/// How a gateway persists its input and state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory for WAL segments and snapshot files.
    pub dir: PathBuf,
    /// Event-time distance between checkpoints; must be a positive
    /// multiple of the epoch period, because checkpoints are taken only
    /// at epoch boundaries.
    pub checkpoint_interval: TimeDelta,
    /// How much event time of WAL to keep beyond what snapshots cover.
    /// Must be at least the gateway's permitted lateness.
    pub wal_retention: TimeDelta,
    /// Snapshots kept per shard (older ones are deleted). Must be ≥ 1.
    pub max_snapshots: usize,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// A configuration with production-shaped defaults: checkpoint every
    /// second of event time, retain a minute of WAL, keep 4 snapshots
    /// per shard, rotate segments at 4 MiB.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_interval: TimeDelta::from_secs(1),
            wal_retention: TimeDelta::from_mins(1),
            max_snapshots: 4,
            segment_bytes: 4 << 20,
        }
    }

    /// Override the checkpoint interval.
    pub fn checkpoint_every(mut self, interval: TimeDelta) -> DurabilityConfig {
        self.checkpoint_interval = interval;
        self
    }

    /// Override the WAL retention horizon.
    pub fn retain_wal(mut self, retention: TimeDelta) -> DurabilityConfig {
        self.wal_retention = retention;
        self
    }

    /// Override how many snapshots are kept per shard.
    pub fn keep_snapshots(mut self, n: usize) -> DurabilityConfig {
        self.max_snapshots = n;
        self
    }

    /// Override the segment rotation threshold.
    pub fn segment_size(mut self, bytes: u64) -> DurabilityConfig {
        self.segment_bytes = bytes;
        self
    }

    /// The WAL subdirectory.
    pub fn wal_dir(&self) -> PathBuf {
        self.dir.join("wal")
    }

    /// The snapshot subdirectory.
    pub fn snapshot_dir(&self) -> PathBuf {
        self.dir.join("snapshots")
    }

    /// Static checks against the pipeline's temporal configuration.
    ///
    /// * `E0801` — checkpoint interval is not a positive multiple of the
    ///   epoch period (checkpoints only fire at epoch boundaries).
    /// * `E0802` — WAL retention shorter than the permitted lateness
    ///   (`None` skips the check).
    /// * `E0803` — snapshot retention of zero.
    pub fn validate(&self, period: TimeDelta, max_lateness: Option<TimeDelta>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let interval = self.checkpoint_interval.as_millis();
        let period_ms = period.as_millis();
        if interval == 0 || (period_ms > 0 && !interval.is_multiple_of(period_ms)) {
            diags.push(
                Diagnostic::error(
                    "E0801",
                    format!(
                        "checkpoint interval ({}) is not a positive multiple of the epoch \
                         period ({period})",
                        self.checkpoint_interval
                    ),
                )
                .with_note(
                    "checkpoints are taken at epoch boundaries; an unaligned interval \
                     either never fires or fires off-schedule",
                ),
            );
        }
        if let Some(lateness) = max_lateness {
            if self.wal_retention < lateness {
                diags.push(
                    Diagnostic::error(
                        "E0802",
                        format!(
                            "WAL retention ({}) is shorter than the permitted reading \
                             lateness ({lateness})",
                            self.wal_retention
                        ),
                    )
                    .with_note(
                        "a late reading could arrive after its log segment was already \
                         reclaimed, so a post-crash replay would diverge from the live run",
                    ),
                );
            }
        }
        if self.max_snapshots == 0 {
            diags.push(
                Diagnostic::error(
                    "E0803",
                    "snapshot retention is zero: no checkpoint would ever survive",
                )
                .with_note(
                    "every recovery would replay the entire WAL from sequence zero; \
                     keep at least one snapshot per shard",
                ),
            );
        }
        diags
    }
}

/// The `durability` section of a durability document, time spans still
/// as strings (parsed and checked by [`DurabilitySpec::lint`]).
#[derive(Debug, Clone)]
pub struct DurabilitySectionSpec {
    /// Directory for WAL segments and snapshots.
    pub dir: String,
    /// Checkpoint interval, e.g. `"1 sec"`.
    pub checkpoint_interval: String,
    /// WAL retention horizon, e.g. `"1 min"`.
    pub wal_retention: String,
    /// Snapshots kept per shard.
    pub max_snapshots: usize,
    /// Optional segment rotation threshold in bytes.
    pub segment_bytes: Option<u64>,
}

/// A durability document: the persistence knobs plus the pipeline facts
/// they must agree with.
///
/// ```json
/// {
///   "durability": {
///     "dir": "/var/lib/esp/durability",
///     "checkpoint_interval": "1 sec",
///     "wal_retention": "1 min",
///     "max_snapshots": 4
///   },
///   "epoch_period": "500 ms",
///   "max_lateness": "100 ms"
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DurabilitySpec {
    /// The persistence section.
    pub durability: DurabilitySectionSpec,
    /// The pipeline's epoch period.
    pub epoch_period: String,
    /// The gateway's permitted lateness, if any.
    pub max_lateness: Option<String>,
}

fn req<T: Deserialize>(v: &Json, key: &str) -> std::result::Result<T, DeError> {
    match v.get(key) {
        Some(x) => T::from_value(x).map_err(|e| DeError::msg(format!("{key}: {e}"))),
        None => Err(DeError::msg(format!("missing field '{key}'"))),
    }
}

fn opt<T: Deserialize>(v: &Json, key: &str) -> std::result::Result<Option<T>, DeError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => T::from_value(x)
            .map(Some)
            .map_err(|e| DeError::msg(format!("{key}: {e}"))),
    }
}

impl Deserialize for DurabilitySectionSpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(DurabilitySectionSpec {
            dir: req(v, "dir")?,
            checkpoint_interval: req(v, "checkpoint_interval")?,
            wal_retention: req(v, "wal_retention")?,
            max_snapshots: req(v, "max_snapshots")?,
            segment_bytes: opt(v, "segment_bytes")?,
        })
    }
}

impl Deserialize for DurabilitySpec {
    fn from_value(v: &Json) -> std::result::Result<Self, DeError> {
        Ok(DurabilitySpec {
            durability: req(v, "durability")?,
            epoch_period: req(v, "epoch_period")?,
            max_lateness: opt(v, "max_lateness")?,
        })
    }
}

impl DurabilitySpec {
    /// Parse a JSON durability document.
    pub fn from_json(json: &str) -> Result<DurabilitySpec> {
        serde_json::from_str(json)
            .map_err(|e| EspError::Config(format!("invalid durability document: {e}")))
    }

    /// Parse the time spans and run [`DurabilityConfig::validate`].
    /// Unparseable spans yield `E0204` (the shared bad-time-span code).
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut span = |text: &str, what: &str| match TimeDelta::parse(text) {
            Ok(d) => Some(d),
            Err(e) => {
                diags.push(
                    Diagnostic::error("E0204", format!("{what} '{text}' is not a valid time span"))
                        .with_note(e.to_string()),
                );
                None
            }
        };
        let interval = span(&self.durability.checkpoint_interval, "checkpoint interval");
        let retention = span(&self.durability.wal_retention, "WAL retention");
        let period = span(&self.epoch_period, "epoch period");
        let lateness = match &self.max_lateness {
            Some(l) => span(l, "max lateness"), // None on parse failure
            None => None,
        };
        if let (Some(interval), Some(retention), Some(period)) = (interval, retention, period) {
            let mut config = DurabilityConfig::new(Path::new(&self.durability.dir))
                .checkpoint_every(interval)
                .retain_wal(retention)
                .keep_snapshots(self.durability.max_snapshots);
            if let Some(bytes) = self.durability.segment_bytes {
                config = config.segment_size(bytes);
            }
            diags.extend(config.validate(period, lateness));
        }
        esp_types::diag::sort_diagnostics(&mut diags);
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DurabilityConfig {
        DurabilityConfig::new("/tmp/esp-durability")
    }

    #[test]
    fn defaults_validate_clean() {
        let diags = base().validate(
            TimeDelta::from_millis(500),
            Some(TimeDelta::from_millis(100)),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unaligned_interval_is_e0801() {
        let config = base().checkpoint_every(TimeDelta::from_millis(750));
        let diags = config.validate(TimeDelta::from_millis(500), None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0801");
    }

    #[test]
    fn zero_interval_is_e0801() {
        let config = base().checkpoint_every(TimeDelta::ZERO);
        let diags = config.validate(TimeDelta::from_millis(500), None);
        assert!(diags.iter().any(|d| d.code == "E0801"));
    }

    #[test]
    fn short_retention_is_e0802() {
        let config = base().retain_wal(TimeDelta::from_millis(50));
        let diags = config.validate(
            TimeDelta::from_millis(500),
            Some(TimeDelta::from_millis(100)),
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0802");
    }

    #[test]
    fn retention_check_skipped_without_lateness() {
        let config = base().retain_wal(TimeDelta::ZERO);
        let diags = config.validate(TimeDelta::from_millis(500), None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn zero_snapshots_is_e0803() {
        let config = base().keep_snapshots(0);
        let diags = config.validate(TimeDelta::from_millis(500), None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0803");
    }

    #[test]
    fn spec_round_trips_and_lints() {
        let json = r#"{
            "durability": {
                "dir": "/var/lib/esp/durability",
                "checkpoint_interval": "1 sec",
                "wal_retention": "1 min",
                "max_snapshots": 4
            },
            "epoch_period": "500 ms",
            "max_lateness": "100 ms"
        }"#;
        let spec = DurabilitySpec::from_json(json).unwrap();
        assert!(spec.lint().is_empty());
    }

    #[test]
    fn spec_bad_span_is_e0204() {
        let json = r#"{
            "durability": {
                "dir": "d",
                "checkpoint_interval": "soon",
                "wal_retention": "1 min",
                "max_snapshots": 4
            },
            "epoch_period": "500 ms"
        }"#;
        let diags = DurabilitySpec::from_json(json).unwrap().lint();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0204");
    }

    #[test]
    fn stage_list_is_no_longer_a_durability_fact() {
        // Every stage kind checkpoints, so a document still listing the
        // cascade's stages (declarative ones included) lints clean.
        let json = r#"{
            "durability": {
                "dir": "d",
                "checkpoint_interval": "1 sec",
                "wal_retention": "1 min",
                "max_snapshots": 4
            },
            "epoch_period": "500 ms",
            "max_lateness": "100 ms",
            "stages": ["point", "declarative", "smooth"]
        }"#;
        assert!(DurabilitySpec::from_json(json).unwrap().lint().is_empty());
    }

    #[test]
    fn spec_surfaces_all_three_codes() {
        let json = r#"{
            "durability": {
                "dir": "d",
                "checkpoint_interval": "300 ms",
                "wal_retention": "50 ms",
                "max_snapshots": 0
            },
            "epoch_period": "200 ms",
            "max_lateness": "100 ms"
        }"#;
        let mut codes: Vec<&str> = DurabilitySpec::from_json(json)
            .unwrap()
            .lint()
            .iter()
            .map(|d| d.code)
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, vec!["E0801", "E0802", "E0803"]);
    }
}
