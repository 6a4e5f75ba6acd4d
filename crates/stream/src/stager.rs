//! Epoch-punctuation staging, shared by the threaded runner and its
//! model checker.
//!
//! An operator with `n` input edges may flush epoch `t` only after every
//! edge has delivered its `Punct(t)`; data messages arriving before that
//! are buffered per `(epoch, port)` in arrival order. This tiny state machine is the heart of
//! the threaded runner's determinism argument, so it lives here where
//! both [`ThreadedRunner`](crate::ThreadedRunner) and the exhaustive
//! interleaving explorer in [`model`](crate::model) drive the *same*
//! code — the checker exercises the protocol as shipped, not a copy.

use std::collections::BTreeMap;

use esp_types::Ts;

/// Per-epoch staging for one operator: data messages per input port (`T`
/// is the runner's [`Payload`](crate::Payload); the model checker, which
/// moves only punctuation, uses `()`) plus a punctuation count. Epochs flush in timestamp order regardless of
/// arrival interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EpochStager<T> {
    n_edges: usize,
    staged: BTreeMap<Ts, (Vec<Vec<T>>, usize)>,
}

impl<T> EpochStager<T> {
    /// Stager for an operator with `n_edges` input edges (must be > 0;
    /// a zero-input operator could never flush, which graph validation
    /// rejects as `E0404` before execution).
    pub fn new(n_edges: usize) -> EpochStager<T> {
        EpochStager {
            n_edges,
            staged: BTreeMap::new(),
        }
    }

    /// Buffer one data message for `epoch` arriving on input `port`.
    pub fn batch(&mut self, epoch: Ts, port: usize, item: T) {
        let entry = self.entry(epoch);
        entry.0[port].push(item);
    }

    /// Record a punctuation for `epoch` from one input edge. When this
    /// is the last outstanding edge, the epoch is complete: its staged
    /// per-port messages are returned (in port order) for flushing.
    pub fn punct(&mut self, epoch: Ts) -> Option<Vec<Vec<T>>> {
        let entry = self.entry(epoch);
        entry.1 += 1;
        if entry.1 == self.n_edges {
            self.staged.remove(&epoch).map(|(ports, _)| ports)
        } else {
            None
        }
    }

    /// Epochs staged but not yet complete.
    pub fn pending(&self) -> usize {
        self.staged.len()
    }

    fn entry(&mut self, epoch: Ts) -> &mut (Vec<Vec<T>>, usize) {
        let n = self.n_edges;
        self.staged
            .entry(epoch)
            .or_insert_with(|| ((0..n).map(|_| Vec::new()).collect(), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Ts {
        Ts::from_millis(ms)
    }

    #[test]
    fn single_edge_flushes_on_each_punct() {
        let mut st = EpochStager::new(1);
        st.batch(ts(0), 0, 1);
        assert_eq!(st.punct(ts(0)), Some(vec![vec![1]]));
        assert_eq!(st.pending(), 0);
        // A punct with no data still completes the (empty) epoch —
        // empty payloads are elided on the wire.
        assert_eq!(st.punct(ts(100)), Some(vec![Vec::<i32>::new()]));
    }

    #[test]
    fn multi_edge_waits_for_every_punct() {
        let mut st = EpochStager::new(2);
        st.batch(ts(0), 1, "b");
        assert_eq!(st.punct(ts(0)), None, "one punct of two");
        assert_eq!(st.pending(), 1);
        st.batch(ts(0), 0, "a");
        assert_eq!(st.punct(ts(0)), Some(vec![vec!["a"], vec!["b"]]));
        assert_eq!(st.pending(), 0);
    }

    #[test]
    fn epochs_stage_independently_and_out_of_order() {
        let mut st = EpochStager::new(2);
        st.batch(ts(100), 0, 10);
        st.batch(ts(0), 0, 0);
        assert_eq!(st.punct(ts(100)), None);
        assert_eq!(st.punct(ts(0)), None);
        assert_eq!(st.pending(), 2);
        assert_eq!(st.punct(ts(0)), Some(vec![vec![0], vec![]]));
        assert_eq!(st.punct(ts(100)), Some(vec![vec![10], vec![]]));
    }

    #[test]
    fn messages_accumulate_per_port_in_arrival_order() {
        let mut st = EpochStager::new(1);
        st.batch(ts(0), 0, 1);
        st.batch(ts(0), 0, 2);
        assert_eq!(st.punct(ts(0)), Some(vec![vec![1, 2]]));
    }
}
