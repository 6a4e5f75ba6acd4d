//! Discrete logical time.
//!
//! ESP executes epoch-by-epoch over a discrete timeline. [`Ts`] is a logical
//! timestamp in **milliseconds since experiment start**; [`TimeDelta`] is a
//! span of logical time. Both are thin `u64` newtypes so arithmetic is cheap
//! and `Copy`.
//!
//! [`TimeDelta::parse`] implements the duration grammar used by the paper's
//! CQL window clauses: `[Range By '5 sec']`, `[Range By '5 min']`, and the
//! now-window `[Range By 'NOW']` (a zero-width window covering only the
//! current epoch).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use crate::{EspError, Result};

/// A logical timestamp: milliseconds since the start of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ts(pub u64);

impl Ts {
    /// The origin of the experiment timeline.
    pub const ZERO: Ts = Ts(0);

    /// Build a timestamp from whole seconds.
    pub fn from_secs(secs: u64) -> Ts {
        Ts(secs * 1_000)
    }

    /// Build a timestamp from milliseconds.
    pub fn from_millis(ms: u64) -> Ts {
        Ts(ms)
    }

    /// Milliseconds since origin.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds since origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The earliest timestamp still inside a window of width `w` ending at
    /// (and including) `self`. Saturates at the origin.
    pub fn window_start(self, w: TimeDelta) -> Ts {
        Ts(self.0.saturating_sub(w.0))
    }
}

impl Add<TimeDelta> for Ts {
    type Output = Ts;
    fn add(self, rhs: TimeDelta) -> Ts {
        Ts(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Ts {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<Ts> for Ts {
    type Output = TimeDelta;
    fn sub(self, rhs: Ts) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A span of logical time in milliseconds.
///
/// `TimeDelta::ZERO` ("NOW") denotes the now-window: only tuples stamped at
/// the current epoch are visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl TimeDelta {
    /// The zero-width ("NOW") window.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Build a delta from whole milliseconds.
    pub fn from_millis(ms: u64) -> TimeDelta {
        TimeDelta(ms)
    }

    /// Build a delta from whole seconds.
    pub fn from_secs(secs: u64) -> TimeDelta {
        TimeDelta(secs * 1_000)
    }

    /// Build a delta from whole minutes.
    pub fn from_mins(mins: u64) -> TimeDelta {
        TimeDelta(mins * 60_000)
    }

    /// Milliseconds in this delta.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this delta.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True when this is the now-window.
    pub fn is_now(self) -> bool {
        self.0 == 0
    }

    /// Scale the delta by an integral factor (used by window expansion,
    /// paper §5.2.1).
    pub fn scaled(self, factor: u64) -> TimeDelta {
        TimeDelta(self.0 * factor)
    }

    /// Parse the duration grammar of the paper's CQL window clauses.
    ///
    /// Accepted forms (case-insensitive, surrounding whitespace ignored):
    ///
    /// * `NOW` — the zero-width window;
    /// * `<n> ms|msec|millisecond(s)`
    /// * `<n> s|sec|second(s)`
    /// * `<n> min|minute(s)`
    /// * `<n> h|hour(s)`
    /// * `<n> day(s)`
    ///
    /// ```
    /// use esp_types::TimeDelta;
    /// assert_eq!(TimeDelta::parse("5 sec").unwrap(), TimeDelta::from_secs(5));
    /// assert_eq!(TimeDelta::parse("NOW").unwrap(), TimeDelta::ZERO);
    /// assert_eq!(TimeDelta::parse("5 min").unwrap(), TimeDelta::from_mins(5));
    /// ```
    pub fn parse(text: &str) -> Result<TimeDelta> {
        let t = text.trim();
        if t.eq_ignore_ascii_case("now") {
            return Ok(TimeDelta::ZERO);
        }
        let split = t
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .ok_or_else(|| EspError::parse(format!("duration '{t}' is missing a unit")))?;
        let (num, unit) = t.split_at(split);
        let num: f64 = num
            .parse()
            .map_err(|_| EspError::parse(format!("invalid duration magnitude in '{t}'")))?;
        if num < 0.0 || !num.is_finite() {
            return Err(EspError::parse(format!(
                "duration magnitude must be finite and >= 0 in '{t}'"
            )));
        }
        let unit = unit.trim().to_ascii_lowercase();
        let per_unit_ms: f64 = match unit.as_str() {
            "ms" | "msec" | "msecs" | "millisecond" | "milliseconds" => 1.0,
            "s" | "sec" | "secs" | "second" | "seconds" => 1_000.0,
            "min" | "mins" | "minute" | "minutes" => 60_000.0,
            "h" | "hr" | "hrs" | "hour" | "hours" => 3_600_000.0,
            "day" | "days" => 86_400_000.0,
            other => {
                return Err(EspError::parse(format!(
                    "unknown duration unit '{other}' in '{t}'"
                )))
            }
        };
        Ok(TimeDelta((num * per_unit_ms).round() as u64))
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_now() {
            write!(f, "NOW")
        } else if self.0.is_multiple_of(60_000) {
            write!(f, "{} min", self.0 / 60_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{} sec", self.0 / 1_000)
        } else {
            write!(f, "{} ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_window_clauses() {
        // The three duration literals that appear verbatim in the paper.
        assert_eq!(TimeDelta::parse("5 sec").unwrap(), TimeDelta::from_secs(5));
        assert_eq!(TimeDelta::parse("5 min").unwrap(), TimeDelta::from_mins(5));
        assert_eq!(TimeDelta::parse("NOW").unwrap(), TimeDelta::ZERO);
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(
            TimeDelta::parse("  10 SEC ").unwrap(),
            TimeDelta::from_secs(10)
        );
        assert_eq!(TimeDelta::parse("now").unwrap(), TimeDelta::ZERO);
        assert_eq!(
            TimeDelta::parse("2 Hours").unwrap(),
            TimeDelta::from_mins(120)
        );
    }

    #[test]
    fn parse_fractional_durations() {
        assert_eq!(
            TimeDelta::parse("0.5 sec").unwrap(),
            TimeDelta::from_millis(500)
        );
        assert_eq!(
            TimeDelta::parse("1.5 min").unwrap(),
            TimeDelta::from_secs(90)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TimeDelta::parse("five sec").is_err());
        assert!(TimeDelta::parse("5 fortnights").is_err());
        assert!(TimeDelta::parse("5").is_err());
        assert!(TimeDelta::parse("").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for d in [
            TimeDelta::ZERO,
            TimeDelta::from_millis(250),
            TimeDelta::from_secs(5),
            TimeDelta::from_mins(30),
        ] {
            assert_eq!(TimeDelta::parse(&d.to_string()).unwrap(), d);
        }
    }

    #[test]
    fn window_start_saturates_at_origin() {
        let t = Ts::from_secs(3);
        assert_eq!(t.window_start(TimeDelta::from_secs(10)), Ts::ZERO);
        assert_eq!(t.window_start(TimeDelta::from_secs(1)), Ts::from_secs(2));
    }

    #[test]
    fn ts_arithmetic() {
        let t = Ts::from_secs(10) + TimeDelta::from_secs(5);
        assert_eq!(t, Ts::from_secs(15));
        assert_eq!(t - Ts::from_secs(10), TimeDelta::from_secs(5));
        // Sub saturates rather than panicking.
        assert_eq!(Ts::from_secs(1) - Ts::from_secs(5), TimeDelta::ZERO);
    }

    #[test]
    fn ts_display_is_seconds() {
        assert_eq!(Ts::from_millis(1_500).to_string(), "1.500s");
    }
}
