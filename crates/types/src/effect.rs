//! Static effect summaries for pipeline stages and operators.
//!
//! The whole-pipeline dataflow analyses (`esp-lint`'s `flow` module,
//! E09xx) reason about a cascade without running it. To do that, every
//! stage must be able to answer two questions about itself:
//!
//! * **What does it do to columns?** — [`FieldEffects`]: which input
//!   columns it reads, and whether its output is the input passed
//!   through, an explicit projection, or unknowable.
//! * **Is it replayable?** — [`Determinism`]: whether re-running the
//!   stage over the same input epochs reproduces the same output bytes.
//!   Durability (PR 5/6) promises byte-identical recovery, which a
//!   wall-clock read or an iteration-order-sensitive UDF silently voids;
//!   declaring the effect here turns that hope into a spawn-time check
//!   (`E0903`).
//!
//! Both types live in `esp-types` so the stage traits (`esp-core`,
//! `esp-stream`), the query compiler (`esp-query`), and the analyses
//! (`esp-lint`) can share them without dependency cycles.

use std::collections::BTreeSet;
use std::fmt;

/// Whether a stage/operator reproduces identical output when replayed
/// over identical input epochs.
///
/// The lattice is two-point: `Deterministic ⊑ Nondeterministic`, and
/// [`Determinism::join`] is the taint union — once any stage on a path
/// is nondeterministic, the whole path is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Determinism {
    /// Output is a pure function of input epochs and configuration.
    Deterministic,
    /// Replaying may produce different bytes; `reason` says why
    /// (e.g. "calls now()", "reads wall clock").
    Nondeterministic {
        /// Human-readable cause, used in diagnostics.
        reason: String,
    },
}

impl Determinism {
    /// Construct the tainted element with a cause.
    pub fn nondeterministic(reason: impl Into<String>) -> Determinism {
        Determinism::Nondeterministic {
            reason: reason.into(),
        }
    }

    /// True for [`Determinism::Deterministic`].
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Determinism::Deterministic)
    }

    /// Taint union: nondeterminism wins; the first reason is kept.
    pub fn join(self, other: Determinism) -> Determinism {
        match self {
            Determinism::Deterministic => other,
            tainted => tainted,
        }
    }
}

impl fmt::Display for Determinism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Determinism::Deterministic => f.write_str("deterministic"),
            Determinism::Nondeterministic { reason } => {
                write!(f, "nondeterministic ({reason})")
            }
        }
    }
}

/// Column-level read/write summary of one stage, the per-node transfer
/// function of the backward liveness analysis (`E0901`/`E0902`).
///
/// Semantics of the backward transfer `live_in = f(live_out)`:
///
/// * `opaque` — the stage's behaviour is unknown; every input column
///   must be assumed live (the analysis goes to ⊤ and stays silent).
/// * `writes = None` — passthrough: output tuples are input tuples
///   (possibly filtered), so `live_in = reads ∪ live_out`.
/// * `writes = Some(cols)` — explicit projection: the output carries
///   exactly `cols`, all derived from `reads`, so `live_in = reads`
///   (downstream liveness of `cols` does not keep extra inputs alive).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldEffects {
    /// Input columns the stage inspects (filters, keys, aggregate args).
    pub reads: BTreeSet<String>,
    /// Output columns, when the stage projects; `None` means the input
    /// schema passes through unchanged.
    pub writes: Option<BTreeSet<String>>,
    /// Unknown behaviour: treat as reading and writing everything.
    pub opaque: bool,
    /// The stage's output depends on input *row counts* even when it
    /// reads no columns (e.g. `count(*)`). Keeps a receptor stream
    /// "live" for `E0902` even when none of its columns is.
    pub counts_rows: bool,
}

impl FieldEffects {
    /// Unknown behaviour — the conservative top element.
    pub fn opaque() -> FieldEffects {
        FieldEffects {
            opaque: true,
            ..FieldEffects::default()
        }
    }

    /// A filter-like stage: reads `reads`, passes its input through.
    pub fn passthrough<I, S>(reads: I) -> FieldEffects
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FieldEffects {
            reads: reads.into_iter().map(Into::into).collect(),
            ..FieldEffects::default()
        }
    }

    /// A projecting stage: reads `reads`, emits exactly `writes`.
    pub fn projection<I, J, S, T>(reads: I, writes: J) -> FieldEffects
    where
        I: IntoIterator<Item = S>,
        J: IntoIterator<Item = T>,
        S: Into<String>,
        T: Into<String>,
    {
        FieldEffects {
            reads: reads.into_iter().map(Into::into).collect(),
            writes: Some(writes.into_iter().map(Into::into).collect()),
            ..FieldEffects::default()
        }
    }

    /// Mark the stage as row-count-sensitive (see
    /// [`FieldEffects::counts_rows`]).
    pub fn with_row_counting(mut self) -> FieldEffects {
        self.counts_rows = true;
        self
    }

    /// The backward liveness transfer: columns that must be live at this
    /// stage's *input* given the columns live at its *output*. `None`
    /// means "all columns" (the ⊤ element, reached through opacity).
    pub fn live_in(&self, live_out: Option<&BTreeSet<String>>) -> Option<BTreeSet<String>> {
        if self.opaque {
            return None;
        }
        match &self.writes {
            Some(_) => Some(self.reads.clone()),
            None => live_out.map(|out| self.reads.union(out).cloned().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn determinism_join_is_taint_union() {
        let d = Determinism::Deterministic;
        let n = Determinism::nondeterministic("calls now()");
        assert!(d.clone().join(d.clone()).is_deterministic());
        assert!(!d.clone().join(n.clone()).is_deterministic());
        assert!(!n.clone().join(d).is_deterministic());
        // First taint's reason survives the join.
        let merged = n.join(Determinism::nondeterministic("other"));
        assert_eq!(
            merged,
            Determinism::Nondeterministic {
                reason: "calls now()".into()
            }
        );
    }

    #[test]
    fn passthrough_unions_reads_into_liveness() {
        let fx = FieldEffects::passthrough(["temp"]);
        let live = fx.live_in(Some(&set(&["tag_id"]))).unwrap();
        assert_eq!(live, set(&["tag_id", "temp"]));
    }

    #[test]
    fn projection_cuts_liveness_to_reads() {
        let fx = FieldEffects::projection(["tag_id"], ["tag_id", "n"]);
        let live = fx.live_in(Some(&set(&["n"]))).unwrap();
        assert_eq!(live, set(&["tag_id"]));
        // Even ⊤ downstream collapses to the read set.
        assert_eq!(fx.live_in(None).unwrap(), set(&["tag_id"]));
    }

    #[test]
    fn opaque_is_top() {
        let fx = FieldEffects::opaque();
        assert!(fx.live_in(Some(&set(&["a"]))).is_none());
        assert!(fx.live_in(None).is_none());
    }

    #[test]
    fn passthrough_preserves_top() {
        let fx = FieldEffects::passthrough(["temp"]);
        assert!(fx.live_in(None).is_none());
    }
}
