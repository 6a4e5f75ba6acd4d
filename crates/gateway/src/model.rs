//! Deterministic model checking of the gateway's watermark protocol.
//!
//! [`GatewayModel`] is a finite abstraction of the reader/coordinator/
//! worker handshake in [`watermark`](crate::watermark) and the server's
//! `coordinate` loop: each connection hands its readings off to a FIFO
//! shard queue a batch at a time (one step moves up to
//! [`GatewayModel::with_batch`] readings) and *then* advances its monotone
//! clock to the batch's largest `ts − lateness` (`fetch_max`, a second
//! step); the coordinator polls the global minimum and enqueues epoch
//! flushes behind the readings they certify; the worker drains the queue
//! in order. [`GatewayModel::check`] explores every interleaving of those
//! steps and reports violations as `E0703` diagnostics:
//!
//! * **watermark regression** — the coordinator observes the global
//!   watermark decrease, breaking the "monotone by construction"
//!   contract every flush decision leans on.
//! * **flush overtaking a reading** — the worker sees a reading stamped
//!   below an epoch bound that was already flushed: data certified as
//!   complete arrived after its epoch was sealed.
//!
//! Three deliberately broken variants ([`GatewayMutant`]) re-introduce
//! the bugs the shipped ordering rules prevent; the test suite asserts
//! the checker catches each.

use std::collections::VecDeque;

use esp_types::Diagnostic;
use stateright::{always, Checker, Model, Property};

/// Outcome of a model-checking run, with violations as diagnostics.
#[derive(Debug)]
pub struct ModelReport {
    /// Distinct system states visited.
    pub states_explored: usize,
    /// Whether the state space was exhausted (vs. hitting the bound).
    pub complete: bool,
    /// `E0703` findings; empty means the protocol holds over the whole
    /// explored space.
    pub diagnostics: Vec<Diagnostic>,
}

impl ModelReport {
    /// Fully explored with zero findings.
    pub fn passed(&self) -> bool {
        self.complete && self.diagnostics.is_empty()
    }
}

/// A deliberately seeded watermark-protocol bug (test/validation only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayMutant {
    /// `ConnClock::advance` uses a plain store instead of `fetch_max`,
    /// so an in-contract late reading can drag the clock backwards.
    StoreNotMax,
    /// The reader closes its clock (promising "nothing further") before
    /// its final batch is enqueued — the flush that close releases can
    /// overtake the batch in the shard queue.
    CloseBeforeLastEnqueue,
    /// The reader publishes a batch's watermark before handing the batch
    /// off. One reading never certifies past itself (`ts − lateness <=
    /// ts`), but a batch's maximum certifies past its earlier readings,
    /// so with batches of two or more a flush can overtake them.
    AdvanceBeforeHandOff,
}

/// One modeled connection: the readings it will send (wire order) and
/// its declared bounded-lateness promise.
#[derive(Debug, Clone)]
pub struct ConnScript {
    /// Reading timestamps in wire order (out-of-order allowed within
    /// `lateness`, as the handshake permits).
    pub readings: Vec<u64>,
    /// Bounded-lateness promise (ms).
    pub lateness: u64,
}

/// Finite model of the gateway watermark protocol (see module docs).
#[derive(Debug, Clone)]
pub struct GatewayModel {
    conns: Vec<ConnScript>,
    epoch_ms: u64,
    batch: usize,
    mutant: Option<GatewayMutant>,
}

/// Where one connection's reader thread is in its script. A batch is
/// named by the index of its first reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConnPhase {
    /// About to hand off batch `i`.
    Enqueue(usize),
    /// Batch `i` enqueued; about to advance the clock to its maximum.
    Advance(usize),
    /// Script exhausted; about to close the clock.
    Close,
    /// Mutant order: the clock already moved (closed, or advanced to the
    /// batch's maximum), batch `i` still to enqueue.
    LateEnqueue(usize),
    Done,
}

/// A message in the FIFO shard queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum QMsg {
    Reading(u64),
    /// Seals every reading with `ts < bound`.
    Flush(u64),
}

/// A full configuration of the modeled gateway.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GatewayState {
    phase: Vec<ConnPhase>,
    clock: Vec<u64>,
    queue: VecDeque<QMsg>,
    /// Coordinator's next epoch boundary to flush.
    next_flush: u64,
    /// Last global watermark the coordinator observed.
    last_global: u64,
    /// Max reading timestamp enqueued so far (the coordinator's flush
    /// bound, mirroring `GatewayStats::max_ts_ms`).
    max_enqueued: u64,
    /// Worker-side: readings below this bound are sealed.
    sealed: u64,
    monotone_ok: bool,
    overtake_ok: bool,
}

/// One schedulable step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayAction {
    /// Connection `i`'s reader takes its next step (enqueue, advance,
    /// or close — one atomic action each).
    Conn(usize),
    /// The coordinator polls the global watermark and enqueues any due
    /// epoch flushes.
    CoordinatorPoll,
    /// The worker pops one message from the shard queue.
    WorkerStep,
}

impl GatewayModel {
    /// A model over the given connection scripts, flushing epochs every
    /// `epoch_ms`.
    pub fn new(conns: Vec<ConnScript>, epoch_ms: u64) -> GatewayModel {
        assert!(epoch_ms > 0);
        GatewayModel {
            conns,
            epoch_ms,
            batch: 1,
            mutant: None,
        }
    }

    /// Hand readings off `batch` at a time (the last batch of a script
    /// may be shorter). The default is one reading per hand-off.
    pub fn with_batch(mut self, batch: usize) -> GatewayModel {
        assert!(batch > 0);
        self.batch = batch;
        self
    }

    /// The default acceptance configuration: one in-contract
    /// out-of-order connection and one in-order straggler whose readings
    /// straddle the first epoch boundary.
    pub fn acceptance() -> GatewayModel {
        GatewayModel::new(
            vec![
                ConnScript {
                    readings: vec![10, 5],
                    lateness: 5,
                },
                ConnScript {
                    readings: vec![3, 8],
                    lateness: 0,
                },
            ],
            5,
        )
    }

    /// Seed a protocol bug. Only available to tests and the
    /// `model-mutants` feature.
    #[cfg(any(test, feature = "model-mutants"))]
    pub fn with_mutant(mut self, mutant: GatewayMutant) -> GatewayModel {
        self.mutant = Some(mutant);
        self
    }

    /// Exhaustively explore every interleaving.
    pub fn check(&self) -> ModelReport {
        let report = Checker::new().max_states(2_000_000).check(self);
        let mut diagnostics = Vec::new();
        for v in &report.violations {
            let what = match v.property {
                "watermark-monotone" => {
                    "the global watermark regressed — a later poll observed a smaller value"
                }
                "flush-never-overtakes" => {
                    "an epoch flush overtook a reading it claimed to certify — the worker \
                     saw a reading stamped below an already-sealed bound"
                }
                other => other,
            };
            diagnostics.push(
                Diagnostic::error(
                    "E0703",
                    format!(
                        "watermark protocol violation after {} steps: {what}",
                        v.trace.len()
                    ),
                )
                .with_note(format!("shortest failing schedule: {:?}", v.trace)),
            );
        }
        ModelReport {
            states_explored: report.states_explored,
            complete: report.complete,
            diagnostics,
        }
    }

    /// End (exclusive) of connection `conn`'s batch starting at reading
    /// `k`.
    fn batch_end(&self, conn: usize, k: usize) -> usize {
        (k + self.batch).min(self.conns[conn].readings.len())
    }

    /// Enqueue connection `conn`'s batch starting at `k`.
    fn enqueue(&self, s: &mut GatewayState, conn: usize, k: usize) {
        for &ts in &self.conns[conn].readings[k..self.batch_end(conn, k)] {
            s.queue.push_back(QMsg::Reading(ts));
            s.max_enqueued = s.max_enqueued.max(ts);
        }
    }

    /// The phase after connection `conn`'s batch starting at `k` is done.
    fn after_batch(&self, conn: usize, k: usize) -> ConnPhase {
        let end = self.batch_end(conn, k);
        if end < self.conns[conn].readings.len() {
            ConnPhase::Enqueue(end)
        } else {
            ConnPhase::Close
        }
    }

    /// The clock after advancing past connection `conn`'s batch starting
    /// at `k`: its largest `ts − lateness`.
    fn advanced(&self, current: u64, conn: usize, k: usize) -> u64 {
        let script = &self.conns[conn];
        let target = script.readings[k..self.batch_end(conn, k)]
            .iter()
            .map(|ts| ts.saturating_sub(script.lateness))
            .max()
            .unwrap_or(0);
        match self.mutant {
            // The bug: a plain store forgets the monotone maximum.
            Some(GatewayMutant::StoreNotMax) => target,
            _ => current.max(target),
        }
    }
}

impl Model for GatewayModel {
    type State = GatewayState;
    type Action = GatewayAction;

    fn init_states(&self) -> Vec<GatewayState> {
        vec![GatewayState {
            phase: self
                .conns
                .iter()
                .map(|c| {
                    if c.readings.is_empty() {
                        ConnPhase::Close
                    } else {
                        ConnPhase::Enqueue(0)
                    }
                })
                .collect(),
            clock: vec![0; self.conns.len()],
            queue: VecDeque::new(),
            next_flush: self.epoch_ms,
            last_global: 0,
            max_enqueued: 0,
            sealed: 0,
            monotone_ok: true,
            overtake_ok: true,
        }]
    }

    fn actions(&self, s: &GatewayState, actions: &mut Vec<GatewayAction>) {
        for (i, p) in s.phase.iter().enumerate() {
            if *p != ConnPhase::Done {
                actions.push(GatewayAction::Conn(i));
            }
        }
        // The coordinator polls freely; a poll that changes nothing
        // produces an already-visited state and costs the search nothing.
        actions.push(GatewayAction::CoordinatorPoll);
        if !s.queue.is_empty() {
            actions.push(GatewayAction::WorkerStep);
        }
    }

    fn next_state(&self, s: &GatewayState, action: GatewayAction) -> Option<GatewayState> {
        let mut s = s.clone();
        match action {
            GatewayAction::Conn(i) => match s.phase[i] {
                ConnPhase::Enqueue(k) => {
                    let last = self.batch_end(i, k) == self.conns[i].readings.len();
                    match self.mutant {
                        Some(GatewayMutant::CloseBeforeLastEnqueue) if last => {
                            // The bug: promise "nothing further" while a
                            // batch is still pending in the reader.
                            s.clock[i] = u64::MAX;
                            s.phase[i] = ConnPhase::LateEnqueue(k);
                        }
                        Some(GatewayMutant::AdvanceBeforeHandOff) => {
                            // The bug: publish the batch's watermark
                            // while the batch is still pending.
                            s.clock[i] = self.advanced(s.clock[i], i, k);
                            s.phase[i] = ConnPhase::LateEnqueue(k);
                        }
                        _ => {
                            self.enqueue(&mut s, i, k);
                            s.phase[i] = ConnPhase::Advance(k);
                        }
                    }
                }
                ConnPhase::Advance(k) => {
                    // Advance AFTER enqueuing (the shipped ordering).
                    s.clock[i] = self.advanced(s.clock[i], i, k);
                    s.phase[i] = self.after_batch(i, k);
                }
                ConnPhase::Close => {
                    s.clock[i] = u64::MAX;
                    s.phase[i] = ConnPhase::Done;
                }
                ConnPhase::LateEnqueue(k) => {
                    self.enqueue(&mut s, i, k);
                    s.phase[i] = match self.mutant {
                        Some(GatewayMutant::CloseBeforeLastEnqueue) => ConnPhase::Done,
                        _ => self.after_batch(i, k),
                    };
                }
                ConnPhase::Done => return None,
            },
            GatewayAction::CoordinatorPoll => {
                let global = s.clock.iter().copied().min().unwrap_or(u64::MAX);
                if global < s.last_global {
                    s.monotone_ok = false;
                }
                s.last_global = global;
                // Flush epochs the watermark certifies, bounded by data
                // actually seen (mirrors `coordinate`'s max_ts guard).
                while s.next_flush < global && s.next_flush <= s.max_enqueued {
                    s.queue.push_back(QMsg::Flush(s.next_flush));
                    s.next_flush += self.epoch_ms;
                }
            }
            GatewayAction::WorkerStep => match s.queue.pop_front()? {
                QMsg::Reading(ts) => {
                    if ts < s.sealed {
                        s.overtake_ok = false;
                    }
                }
                QMsg::Flush(bound) => {
                    s.sealed = s.sealed.max(bound);
                }
            },
        }
        Some(s)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            always(
                "watermark-monotone",
                |_m: &GatewayModel, s: &GatewayState| s.monotone_ok,
            ),
            always(
                "flush-never-overtakes",
                |_m: &GatewayModel, s: &GatewayState| s.overtake_ok,
            ),
        ]
    }

    fn is_done(&self, s: &GatewayState) -> bool {
        s.phase.iter().all(|p| *p == ConnPhase::Done) && s.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_protocol_passes_full_exploration() {
        let report = GatewayModel::acceptance().check();
        assert!(report.passed(), "{:#?}", report.diagnostics);
        assert!(report.states_explored > 50, "{}", report.states_explored);
    }

    #[test]
    fn shipped_protocol_passes_with_batched_hand_off() {
        for batch in [1, 2] {
            let report = GatewayModel::acceptance().with_batch(batch).check();
            assert!(report.passed(), "batch {batch}: {:#?}", report.diagnostics);
        }
    }

    fn overtakes(report: &ModelReport) -> bool {
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "E0703" && d.message.contains("overtook"))
    }

    #[test]
    fn advance_before_hand_off_lets_a_flush_overtake_a_batch() {
        let report = GatewayModel::acceptance()
            .with_batch(2)
            .with_mutant(GatewayMutant::AdvanceBeforeHandOff)
            .check();
        assert!(
            overtakes(&report),
            "expected a flush-overtake violation, got {:#?}",
            report.diagnostics
        );
        // One reading never certifies past itself, so the same wrong
        // order is harmless without batching: the mutant needs batches.
        let report = GatewayModel::acceptance()
            .with_mutant(GatewayMutant::AdvanceBeforeHandOff)
            .check();
        assert!(report.passed(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn older_mutants_are_still_caught_with_batched_hand_off() {
        let report = GatewayModel::acceptance()
            .with_batch(2)
            .with_mutant(GatewayMutant::CloseBeforeLastEnqueue)
            .check();
        assert!(overtakes(&report), "{:#?}", report.diagnostics);
        // A batch publishes its maximum once, so the plain store needs a
        // later batch whose maximum is lower (in contract: 6 >= 10 - 5).
        let report = GatewayModel::new(
            vec![ConnScript {
                readings: vec![10, 5, 6],
                lateness: 5,
            }],
            5,
        )
        .with_batch(2)
        .with_mutant(GatewayMutant::StoreNotMax)
        .check();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "E0703" && d.message.contains("regressed")),
            "{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn store_not_max_regresses_the_watermark() {
        // One connection sending in-contract out-of-order readings: the
        // plain store drags its clock from 5 back to 0.
        let model = GatewayModel::new(
            vec![ConnScript {
                readings: vec![10, 5],
                lateness: 5,
            }],
            5,
        )
        .with_mutant(GatewayMutant::StoreNotMax);
        let report = model.check();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "E0703" && d.message.contains("regressed")),
            "expected a watermark regression, got {:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn close_before_last_enqueue_lets_a_flush_overtake() {
        let report = GatewayModel::acceptance()
            .with_mutant(GatewayMutant::CloseBeforeLastEnqueue)
            .check();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "E0703" && d.message.contains("overtook")),
            "expected a flush-overtake violation, got {:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn in_contract_out_of_order_is_fine_with_fetch_max() {
        // The same out-of-order script that breaks the store mutant is
        // legal under fetch_max: the clock never regresses.
        let model = GatewayModel::new(
            vec![ConnScript {
                readings: vec![10, 5],
                lateness: 5,
            }],
            5,
        );
        let report = model.check();
        assert!(report.passed(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn violations_carry_the_failing_schedule() {
        let report = GatewayModel::acceptance()
            .with_mutant(GatewayMutant::CloseBeforeLastEnqueue)
            .check();
        let d = report.diagnostics.first().expect("mutant found");
        assert!(d.notes.join("\n").contains("schedule"), "{d:#?}");
    }
}
