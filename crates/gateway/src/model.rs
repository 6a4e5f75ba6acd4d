//! Deterministic model checking of the gateway's ordering protocol, as
//! shipped.
//!
//! [`GatewayModel`] is only the environment around the machines in
//! [`protocol`]: connection scripts, one FIFO shard queue, and every
//! interleaving of the steps the threads could take. A
//! [`GatewayAction::Conn`] step executes one effect the shipped
//! [`Reader`] decided, or feeds it its next input (handshake, reading,
//! EOF); [`GatewayAction::HandOff`] lets the checker end a batch after any
//! non-empty prefix, as the socket running dry does; the coordinator and
//! worker steps call the shipped [`Coordinator`] and [`Worker`]. The model
//! computes no protocol rule itself, and [`GatewayModel::check`] reports
//! violations as `E0703` diagnostics:
//!
//! * **watermark regression** — the coordinator observes the watermark
//!   it flushes against decrease, breaking the "monotone by
//!   construction" contract every flush decision leans on.
//! * **flush overtaking a reading** — the worker receives a reading that
//!   a flush it already applied would have released: data certified as
//!   complete arrived after its epoch was sealed.
//! * **reading never released** — after the drain sweep the worker still
//!   holds a reading no flush released.
//!
//! The test suite seeds bugs into the shipped machines (`#[cfg(test)]`
//! edits, one per mutant) and asserts the checker catches each.

use std::collections::VecDeque;

use esp_types::Diagnostic;
use stateright::{always, Checker, Model, Property};

use crate::protocol::{self, Coordinator, Effect, Reader, Worker, CLOSED};
use crate::GatewayConfig;

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

/// The gateway's ordering protocol over a set of connection scripts (see
/// module docs).
#[derive(Debug, Clone)]
pub struct GatewayModel {
    conns: Vec<ConnScript>,
    epoch_ms: u64,
    cap: usize,
}

/// One connection's reader thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Conn {
    reader: Reader<u64>,
    /// Index of the next script reading to read.
    next: usize,
    /// The connection's clock; none until the handshake registers it.
    clock: Option<u64>,
    /// Effects the reader decided and has not yet executed, in order.
    outbox: VecDeque<Effect<u64>>,
    /// EOF read: the final hand-off is decided.
    eof: bool,
}

impl Conn {
    fn done(&self) -> bool {
        self.eof && self.outbox.is_empty()
    }
}

/// A message in the FIFO shard queue. Without durability every `seq` is 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Msg {
    Readings(Vec<(u64, u64)>),
    Flush { seq: u64, epoch: u64 },
}

/// A full configuration of the modeled gateway.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GatewayState {
    conns: Vec<Conn>,
    queue: VecDeque<Msg>,
    coordinator: Coordinator,
    worker: Worker,
    /// Largest timestamp handed off: the stats gauge the coordinator's
    /// flush guard reads.
    max_ts: u64,
    /// The watermark the coordinator last polled against.
    last_watermark: Option<u64>,
    /// The coordinator has run its drain sweep.
    drained: bool,
    /// Worker side: the last epoch stepped, and the readings it holds
    /// unreleased (sorted).
    sealed: Option<u64>,
    held: Vec<u64>,
    monotone_ok: bool,
    overtake_ok: bool,
}

/// One schedulable step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayAction {
    /// Connection `i`'s reader takes its next step: execute its next
    /// decided effect (one enqueue, advance or close), or else handshake,
    /// read one reading, or reach EOF.
    Conn(usize),
    /// Connection `i`'s socket runs dry: hand off whatever is pending.
    HandOff(usize),
    /// The coordinator polls the watermark and enqueues the due epoch
    /// flushes; once every reader is done, it runs the drain sweep.
    CoordinatorPoll,
    /// The worker pops one message from the shard queue.
    WorkerStep,
}

impl GatewayModel {
    /// A model over the given connection scripts, flushing epochs every
    /// `epoch_ms`, handing off at most two readings at a time.
    pub fn new(conns: Vec<ConnScript>, epoch_ms: u64) -> GatewayModel {
        assert!(epoch_ms > 0);
        GatewayModel {
            conns,
            epoch_ms,
            cap: 2,
        }
    }

    /// Hand readings off at most `cap` at a time; the checker ends a batch
    /// after any non-empty prefix up to the cap.
    pub fn with_batch(mut self, cap: usize) -> GatewayModel {
        assert!(cap > 0);
        self.cap = cap;
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

    /// Exhaustively explore every interleaving.
    pub fn check(&self) -> ModelReport {
        let report = Checker::new().max_states(2_000_000).check(self);
        let diagnostics = report
            .violations
            .iter()
            .map(|v| {
                let steps = v.trace.len();
                let what = v.property;
                Diagnostic::error(
                    "E0703",
                    format!("watermark protocol violation after {steps} steps: {what}"),
                )
                .with_note(format!("shortest failing schedule: {:?}", v.trace))
            })
            .collect();
        ModelReport {
            states_explored: report.states_explored,
            complete: report.complete,
            diagnostics,
        }
    }

    /// Connection `i`'s next step (see [`GatewayAction::Conn`]).
    fn conn_step(&self, s: &mut GatewayState, i: usize) {
        let c = &mut s.conns[i];
        match c.outbox.pop_front() {
            Some(Effect::Send { batch, .. }) => s.queue.push_back(Msg::Readings(batch)),
            Some(Effect::Advance {
                max_ts_ms,
                watermark,
                ..
            }) => {
                s.max_ts = s.max_ts.max(max_ts_ms);
                c.clock = c.clock.map(|cur| protocol::merge(cur, watermark));
            }
            Some(Effect::Close) => c.clock = Some(CLOSED),
            // The handshake registers the connection at watermark 0.
            None if c.clock.is_none() => c.clock = Some(0),
            None => match self.conns[i].readings.get(c.next) {
                Some(&ts) => {
                    c.next += 1;
                    if c.reader.push(0, ts, ts, &[0]) {
                        c.outbox = c.reader.hand_off().into();
                    }
                }
                None => {
                    c.eof = true;
                    c.outbox = c.reader.finish().into();
                }
            },
        }
    }

    /// The coordinator's poll, or its drain sweep once every reader is done.
    fn poll(s: &mut GatewayState) {
        let draining = s.conns.iter().all(Conn::done);
        let registered = s.conns.iter().filter(|c| c.clock.is_some()).count();
        let global = protocol::global(registered, s.conns.iter().filter_map(|c| c.clock));
        let watermark = s.coordinator.watermark(draining, registered, global);
        if !draining {
            s.monotone_ok &= watermark >= s.last_watermark;
            s.last_watermark = watermark;
        }
        while let Some(epoch) = s.coordinator.next_due(watermark, s.max_ts) {
            s.queue.push_back(Msg::Flush { seq: 0, epoch });
        }
        s.drained = draining;
    }

    /// The worker takes one message; `None` with the queue empty.
    fn worker_step(s: &mut GatewayState) -> Option<()> {
        match s.queue.pop_front()? {
            Msg::Readings(batch) => {
                for (seq, ts) in batch {
                    if s.worker.fresh(seq) {
                        s.overtake_ok &= !s.sealed.is_some_and(|e| protocol::released(ts, e));
                        let at = s.held.partition_point(|&h| h <= ts);
                        s.held.insert(at, ts);
                    }
                }
            }
            Msg::Flush { seq, epoch } => {
                if s.worker.fresh(seq) {
                    s.held.retain(|&ts| !protocol::released(ts, epoch));
                    s.sealed = Some(epoch);
                    s.worker.stepped();
                }
            }
        }
        Some(())
    }
}

impl Model for GatewayModel {
    type State = GatewayState;
    type Action = GatewayAction;

    fn init_states(&self) -> Vec<GatewayState> {
        // The shipped first boundary; no flush until the whole fleet has
        // registered (`min_connections` set to the fleet).
        let start = GatewayConfig::new(Vec::new()).start.as_millis();
        vec![GatewayState {
            conns: self
                .conns
                .iter()
                .map(|c| Conn {
                    reader: Reader::new(1, c.lateness, self.cap),
                    next: 0,
                    clock: None,
                    outbox: VecDeque::new(),
                    eof: false,
                })
                .collect(),
            queue: VecDeque::new(),
            coordinator: Coordinator::new(start, self.epoch_ms, self.conns.len()),
            worker: Worker::new(None),
            max_ts: 0,
            last_watermark: None,
            drained: false,
            sealed: None,
            held: Vec::new(),
            monotone_ok: true,
            overtake_ok: true,
        }]
    }

    fn actions(&self, s: &GatewayState, actions: &mut Vec<GatewayAction>) {
        for (i, c) in s.conns.iter().enumerate() {
            if !c.done() {
                actions.push(GatewayAction::Conn(i));
            }
            if c.outbox.is_empty() && c.reader.pending() > 0 {
                actions.push(GatewayAction::HandOff(i));
            }
        }
        // The coordinator polls freely; a poll that changes nothing
        // produces an already-visited state and costs the search nothing.
        if !s.drained {
            actions.push(GatewayAction::CoordinatorPoll);
        }
        if !s.queue.is_empty() {
            actions.push(GatewayAction::WorkerStep);
        }
    }

    fn next_state(&self, s: &GatewayState, action: GatewayAction) -> Option<GatewayState> {
        let mut s = s.clone();
        match action {
            GatewayAction::Conn(i) => self.conn_step(&mut s, i),
            GatewayAction::HandOff(i) => {
                let c = &mut s.conns[i];
                c.outbox = c.reader.hand_off().into();
            }
            GatewayAction::CoordinatorPoll => GatewayModel::poll(&mut s),
            GatewayAction::WorkerStep => GatewayModel::worker_step(&mut s)?,
        }
        Some(s)
    }

    /// Each property's name is the finding its violation reports.
    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            always(
                "the global watermark regressed — a later poll observed a smaller value",
                |_, s: &GatewayState| s.monotone_ok,
            ),
            always(
                "an epoch flush overtook a reading it claimed to certify — the worker saw \
                 a reading an already-applied flush would have released",
                |_, s: &GatewayState| s.overtake_ok,
            ),
            always(
                "a reading was never released — after the drain sweep the worker still \
                 held a reading no flush covered",
                |m: &GatewayModel, s: &GatewayState| !m.is_done(s) || s.held.is_empty(),
            ),
        ]
    }

    fn is_done(&self, s: &GatewayState) -> bool {
        s.drained && s.queue.is_empty() && s.conns.iter().all(Conn::done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{with_mutant, GatewayMutant};

    fn found(report: &ModelReport, what: &str) -> bool {
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "E0703" && d.message.contains(what))
    }

    fn overtakes(report: &ModelReport) -> bool {
        found(report, "overtook")
    }

    fn regresses(report: &ModelReport) -> bool {
        found(report, "regressed")
    }

    fn one_conn(readings: Vec<u64>, lateness: u64) -> GatewayModel {
        GatewayModel::new(vec![ConnScript { readings, lateness }], 5)
    }

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

    #[test]
    fn advance_before_hand_off_lets_a_flush_overtake_a_batch() {
        let mutant = GatewayMutant::AdvanceBeforeHandOff;
        let report = with_mutant(mutant, || GatewayModel::acceptance().with_batch(2).check());
        assert!(
            overtakes(&report),
            "expected a flush-overtake violation, got {:#?}",
            report.diagnostics
        );
        // One reading never certifies past itself, so the same wrong
        // order is harmless without batching: the mutant needs batches.
        let report = with_mutant(mutant, || GatewayModel::acceptance().with_batch(1).check());
        assert!(report.passed(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn older_mutants_are_still_caught_with_batched_hand_off() {
        let report = with_mutant(GatewayMutant::CloseBeforeLastEnqueue, || {
            GatewayModel::acceptance().with_batch(2).check()
        });
        assert!(overtakes(&report), "{:#?}", report.diagnostics);
        // A batch publishes its maximum once, so the plain store needs a
        // later batch whose maximum is lower (in contract: 6 >= 10 - 5).
        let report = with_mutant(GatewayMutant::StoreNotMax, || {
            one_conn(vec![10, 5, 6], 5).with_batch(2).check()
        });
        assert!(regresses(&report), "{:#?}", report.diagnostics);
    }

    #[test]
    fn store_not_max_regresses_the_watermark() {
        // One connection sending in-contract out-of-order readings: the
        // plain store drags its clock from 5 back to 0.
        let report = with_mutant(GatewayMutant::StoreNotMax, || {
            one_conn(vec![10, 5], 5).check()
        });
        assert!(
            regresses(&report),
            "expected a watermark regression, got {:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn close_before_last_enqueue_lets_a_flush_overtake() {
        let report = with_mutant(GatewayMutant::CloseBeforeLastEnqueue, || {
            GatewayModel::acceptance().check()
        });
        assert!(
            overtakes(&report),
            "expected a flush-overtake violation, got {:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn flush_at_watermark_overtakes_a_reading_stamped_at_it() {
        // The off-by-one against the `<=` seal rule: flushing epoch 5 once
        // the watermark reads 5 seals the straggler's reading stamped 5.
        let report = with_mutant(GatewayMutant::FlushAtWatermark, || {
            GatewayModel::acceptance().with_batch(1).check()
        });
        assert!(overtakes(&report), "{:#?}", report.diagnostics);
    }

    #[test]
    fn drain_stopping_at_max_ts_leaves_a_reading_unreleased() {
        // The last reading (8) sits between boundaries 5 and 10: a guard
        // of `next <= max_ts` stops before epoch 10, the one covering it.
        let report = with_mutant(GatewayMutant::DrainStopsAtMaxTs, || {
            one_conn(vec![3, 8], 0).check()
        });
        assert!(
            found(&report, "never released"),
            "{:#?}",
            report.diagnostics
        );
        // The shipped guard drains through the epoch that covers it.
        assert!(one_conn(vec![3, 8], 0).check().passed());
    }

    #[test]
    fn in_contract_out_of_order_is_fine_with_fetch_max() {
        // The same out-of-order script that breaks the store mutant is
        // legal under the monotone merge: the clock never regresses.
        let report = one_conn(vec![10, 5], 5).check();
        assert!(report.passed(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn violations_carry_the_failing_schedule() {
        for (mutant, model) in [
            (GatewayMutant::StoreNotMax, one_conn(vec![10, 5], 5)),
            (
                GatewayMutant::CloseBeforeLastEnqueue,
                GatewayModel::acceptance(),
            ),
            (
                GatewayMutant::AdvanceBeforeHandOff,
                GatewayModel::acceptance(),
            ),
            (GatewayMutant::FlushAtWatermark, GatewayModel::acceptance()),
            (GatewayMutant::DrainStopsAtMaxTs, one_conn(vec![3, 8], 0)),
        ] {
            let report = with_mutant(mutant, || model.check());
            let d = report
                .diagnostics
                .first()
                .unwrap_or_else(|| panic!("{mutant:?} missed"));
            assert!(
                d.notes.join("\n").contains("schedule"),
                "{mutant:?}: {d:#?}"
            );
        }
    }
}
