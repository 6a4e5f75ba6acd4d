//! Checkpointable operator state.
//!
//! Epoch-aligned checkpointing (see `esp-durability`) snapshots a
//! pipeline by asking every operator for its state *at an epoch
//! boundary* — the only instant the dataflow is quiescent: between two
//! [`EpochRunner::step`](crate::EpochRunner::step) calls every operator
//! has flushed and no payload is in flight. That alignment is what makes a snapshot plus a WAL-suffix replay
//! byte-identical to an uninterrupted run.
//!
//! State is an opaque byte blob ([`StageState`]) encoded with the
//! [`esp_types::snap`] codec. Operators and stages with no cross-epoch
//! state simply report `None` (the default); anything holding a window
//! buffer, running aggregate, or candidate set overrides
//! [`Checkpointable::state`]/[`Checkpointable::restore`].

use esp_types::{EspError, Result};

/// Serialized cross-epoch state of one operator or stage.
///
/// The blob is produced and consumed by the same operator type; the
/// snapshot layer never interprets it beyond storing and checksumming.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageState(pub Vec<u8>);

impl StageState {
    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Anything whose cross-epoch state can be captured at an epoch boundary
/// and later restored into a freshly-built instance.
///
/// The contract: `restore` on a newly constructed value (same
/// configuration) followed by the same inputs must produce byte-identical
/// output to the original instance — recovery correctness reduces to
/// this per-operator property plus WAL replay ordering.
pub trait Checkpointable {
    /// Capture state at an epoch boundary. `None` means "stateless":
    /// nothing survives across epochs and restore is a no-op.
    fn state(&self) -> Result<Option<StageState>>;

    /// Restore previously captured state into this (freshly built,
    /// identically configured) instance.
    fn restore(&mut self, state: &StageState) -> Result<()>;
}

/// The error a stateless-by-default implementation raises when handed a
/// blob anyway — a config/version mismatch, never silently ignored.
pub fn unexpected_state(who: &str) -> EspError {
    EspError::Snapshot(format!(
        "'{who}' declares no cross-epoch state but a snapshot holds a blob for it \
         (pipeline configuration changed since the checkpoint?)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unexpected_state_is_a_snapshot_error() {
        assert!(matches!(
            unexpected_state("op"),
            EspError::Snapshot(m) if m.contains("op")
        ));
    }
}
