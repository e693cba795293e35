//! Deterministic, replayable fault injection.
//!
//! The paper's central guarantees are robustness claims: the augmented
//! snapshot of §3 is *non-blocking* (progress despite crash-stopped
//! processes) and the revisionist simulation of §4 tolerates up to
//! `f − 1` simulator crashes. The [`crate::sched::Crash`] adversary
//! exercises those claims with *random* crashes; this module makes
//! fault patterns **precise**: a [`FaultPlan`] places crashes and stall
//! windows at exact points of an execution, composable with every
//! existing scheduler through the [`FaultScheduler`] wrapper, and a
//! plan space can be enumerated exhaustively (every single-crash
//! placement) for certification campaigns.
//!
//! Three kinds of fault are expressible:
//!
//! * [`Fault::CrashAt`] — crash a process permanently once it has taken
//!   an exact number of steps (a *step-indexed* crash: "crash p between
//!   steps 3 and 4 of its operation");
//! * [`Fault::StallWindow`] — suspend a process for a window of the
//!   scheduler's decision clock, then let it resume (a pause/resume
//!   fault — the process is *slow*, not dead);
//! * [`Fault::CrashAfterOp`] — a targeted trigger keyed on trace
//!   events: crash a process immediately after its k-th operation of a
//!   given kind (e.g. "crash p right after its 2nd Update" — the
//!   mid-Block-Update patterns of Kallimanis & Kanellou).
//!
//! Determinism: every trigger is a function of the execution trace and
//! the scheduler's decision clock, never of wall-clock time or thread
//! interleaving. The same `(inner scheduler, seed, plan)` triple always
//! produces the same run, so any failure found under a fault plan
//! replays exactly from its recorded coordinates.

use crate::error::ModelError;
use crate::object::Operation;
use crate::process::ProcessId;
use crate::sched::Scheduler;
use crate::system::System;
use std::fmt;

/// The kind of a base-object operation, for trace-keyed triggers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// A register read.
    Read,
    /// A register write.
    Write,
    /// A snapshot component update.
    Update,
    /// A snapshot scan.
    Scan,
    /// A max-register write.
    WriteMax,
    /// A fetch&increment.
    FetchInc,
    /// A swap.
    Swap,
    /// A compare-and-swap.
    Cas,
}

impl OpKind {
    /// The kind of a concrete operation.
    pub fn of(op: &Operation) -> OpKind {
        match op {
            Operation::Read { .. } => OpKind::Read,
            Operation::Write { .. } => OpKind::Write,
            Operation::Update { .. } => OpKind::Update,
            Operation::Scan { .. } => OpKind::Scan,
            Operation::WriteMax { .. } => OpKind::WriteMax,
            Operation::FetchInc { .. } => OpKind::FetchInc,
            Operation::Swap { .. } => OpKind::Swap,
            Operation::Cas { .. } => OpKind::Cas,
        }
    }

    fn parse(s: &str) -> Option<OpKind> {
        Some(match s {
            "read" => OpKind::Read,
            "write" => OpKind::Write,
            "update" => OpKind::Update,
            "scan" => OpKind::Scan,
            "writemax" => OpKind::WriteMax,
            "fetchinc" => OpKind::FetchInc,
            "swap" => OpKind::Swap,
            "cas" => OpKind::Cas,
            _ => return None,
        })
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Update => "update",
            OpKind::Scan => "scan",
            OpKind::WriteMax => "writemax",
            OpKind::FetchInc => "fetchinc",
            OpKind::Swap => "swap",
            OpKind::Cas => "cas",
        };
        write!(f, "{name}")
    }
}

/// One precisely placed fault.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Fault {
    /// Crash `process` permanently once it has taken `step` steps: it
    /// is never scheduled again after its `step`-th step (so `step: 0`
    /// is an initially dead process).
    CrashAt {
        /// The victim.
        process: ProcessId,
        /// Steps the victim completes before crashing.
        step: usize,
    },
    /// Suspend `process` while the scheduler's decision clock is in
    /// `[from, to)`, then let it resume. The clock ticks once per
    /// scheduling decision, so a stall always expires — a stalled
    /// process is slow, not dead, and the run cannot deadlock on it.
    StallWindow {
        /// The stalled process.
        process: ProcessId,
        /// First decision index of the stall (inclusive).
        from: usize,
        /// First decision index after the stall (exclusive).
        to: usize,
    },
    /// Crash `process` immediately after its `occurrence`-th operation
    /// of kind `kind` (1-based) — a trigger keyed on trace events,
    /// placing the crash *inside* a multi-step operation sequence.
    CrashAfterOp {
        /// The victim.
        process: ProcessId,
        /// The operation kind to count.
        kind: OpKind,
        /// Which occurrence triggers the crash (1-based).
        occurrence: usize,
    },
}

impl Fault {
    /// The process this fault targets.
    pub fn process(&self) -> ProcessId {
        match self {
            Fault::CrashAt { process, .. }
            | Fault::StallWindow { process, .. }
            | Fault::CrashAfterOp { process, .. } => *process,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::CrashAt { process, step } => {
                write!(f, "crash@{}:{}", process.0, step)
            }
            Fault::StallWindow { process, from, to } => {
                write!(f, "stall@{}:{}-{}", process.0, from, to)
            }
            Fault::CrashAfterOp { process, kind, occurrence } => {
                write!(f, "crash-after@{}:{}:{}", process.0, kind, occurrence)
            }
        }
    }
}

/// A deterministic fault plan: a set of precisely placed faults applied
/// on top of any scheduler via [`FaultScheduler`].
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct FaultPlan {
    /// The planned faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (no faults; the wrapper is then transparent).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(fault: Fault) -> Self {
        FaultPlan { faults: vec![fault] }
    }

    /// Parses a plan from its CLI syntax: `+`-separated faults, each
    ///
    /// * `crash@<pid>:<step>` — [`Fault::CrashAt`];
    /// * `stall@<pid>:<from>-<to>` — [`Fault::StallWindow`];
    /// * `crash-after@<pid>:<op>:<k>` — [`Fault::CrashAfterOp`] with
    ///   `<op>` one of `read`, `write`, `update`, `scan`, `writemax`,
    ///   `fetchinc`, `swap`, `cas`.
    ///
    /// The empty string and `none` parse to the empty plan.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] naming the malformed fragment.
    pub fn parse(spec: &str) -> Result<FaultPlan, ModelError> {
        if spec == "none" {
            return Ok(FaultPlan::none());
        }
        let bad = |reason: String| ModelError::BadSpec {
            spec: spec.to_string(),
            reason,
        };
        let mut faults = Vec::new();
        for part in spec.split('+').filter(|p| !p.is_empty()) {
            let (head, rest) = part
                .split_once('@')
                .ok_or_else(|| bad(format!("`{part}` is missing `@<pid>`")))?;
            let fields: Vec<&str> = rest.split(':').collect();
            let pid = |s: &str| -> Result<ProcessId, ModelError> {
                s.parse::<usize>()
                    .map(ProcessId)
                    .map_err(|_| bad(format!("bad process id `{s}` in `{part}`")))
            };
            let num = |s: &str, what: &str| -> Result<usize, ModelError> {
                s.parse::<usize>()
                    .map_err(|_| bad(format!("bad {what} `{s}` in `{part}`")))
            };
            match (head, fields.as_slice()) {
                ("crash", [p, s]) => faults.push(Fault::CrashAt {
                    process: pid(p)?,
                    step: num(s, "step")?,
                }),
                ("stall", [p, window]) => {
                    let (from, to) = window.split_once('-').ok_or_else(|| {
                        bad(format!("`{part}` needs `<from>-<to>`"))
                    })?;
                    let (from, to) = (num(from, "from")?, num(to, "to")?);
                    if from >= to {
                        return Err(bad(format!(
                            "empty stall window {from}-{to} in `{part}`"
                        )));
                    }
                    faults.push(Fault::StallWindow { process: pid(p)?, from, to });
                }
                ("crash-after", [p, op, k]) => {
                    let kind = OpKind::parse(op).ok_or_else(|| {
                        bad(format!("unknown operation kind `{op}` in `{part}`"))
                    })?;
                    let occurrence = num(k, "occurrence")?;
                    if occurrence == 0 {
                        return Err(bad(format!(
                            "occurrence is 1-based in `{part}`"
                        )));
                    }
                    faults.push(Fault::CrashAfterOp {
                        process: pid(p)?,
                        kind,
                        occurrence,
                    });
                }
                _ => {
                    return Err(bad(format!(
                        "`{part}` is not crash@p:s, stall@p:a-b, or \
                         crash-after@p:op:k"
                    )))
                }
            }
        }
        Ok(FaultPlan { faults })
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Enumerates every single-crash plan over `processes` processes
    /// with crash points `0..=max_step` — the exhaustive plan space a
    /// certification campaign fans over. Plans are ordered process-
    /// major, then by step (deterministic).
    pub fn single_crash_plans(processes: usize, max_step: usize) -> Vec<FaultPlan> {
        let mut plans = Vec::with_capacity(processes * (max_step + 1));
        for p in 0..processes {
            for step in 0..=max_step {
                plans.push(FaultPlan::single(Fault::CrashAt {
                    process: ProcessId(p),
                    step,
                }));
            }
        }
        plans
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "none");
        }
        let parts: Vec<String> =
            self.faults.iter().map(|fault| fault.to_string()).collect();
        write!(f, "{}", parts.join("+"))
    }
}

/// A fault that fired during a run, with the coordinates at which it
/// did — the replayable witness recorded alongside the trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AppliedFault {
    /// The fault that fired.
    pub fault: Fault,
    /// Decision-clock index at which it took effect.
    pub decision: usize,
    /// Global step count (trace length) at which it took effect.
    pub step: usize,
}

impl fmt::Display for AppliedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fired at decision {} (global step {})",
            self.fault, self.decision, self.step
        )
    }
}

/// Wraps any scheduler and applies a [`FaultPlan`] on top of it:
/// crashed processes are never scheduled again, stalled processes are
/// skipped for the duration of their window.
///
/// The wrapper re-asks the inner scheduler (a bounded number of times)
/// when it picks a faulted process, then falls back to the lowest-id
/// live unfaulted process, so a fault plan restricts the schedule
/// without deadlocking it. If every live process is crashed, the run
/// ends (`None`) — exactly the paper's crash model, where a
/// non-blocking object must still make progress for the survivors.
pub struct FaultScheduler {
    inner: Box<dyn Scheduler>,
    plan: FaultPlan,
    /// Which plan entries already fired (parallel to `plan.faults`).
    fired: Vec<bool>,
    crashed: Vec<ProcessId>,
    applied: Vec<AppliedFault>,
    /// Scheduling decisions made so far (the stall clock).
    decisions: usize,
    /// How much of the trace has been consumed for op-kind triggers.
    trace_cursor: usize,
    /// Per-(fault-index) op occurrence counts for `CrashAfterOp`.
    op_counts: Vec<usize>,
}

impl FaultScheduler {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Box<dyn Scheduler>, plan: FaultPlan) -> Self {
        let n = plan.faults.len();
        FaultScheduler {
            inner,
            plan,
            fired: vec![false; n],
            crashed: Vec::new(),
            applied: Vec::new(),
            decisions: 0,
            trace_cursor: 0,
            op_counts: vec![0; n],
        }
    }

    /// The plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Processes crashed so far, in crash order.
    pub fn crashed(&self) -> &[ProcessId] {
        &self.crashed
    }

    /// Has `pid` crashed?
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.crashed.contains(&pid)
    }

    /// Every fault that has fired, with its firing coordinates.
    pub fn applied(&self) -> &[AppliedFault] {
        &self.applied
    }

    /// Processes that survived the plan so far (not crashed), in id
    /// order.
    pub fn survivors(&self, system: &System) -> Vec<ProcessId> {
        (0..system.process_count())
            .map(ProcessId)
            .filter(|p| !self.is_crashed(*p))
            .collect()
    }

    fn crash(&mut self, index: usize, system: &System) {
        let fault = self.plan.faults[index].clone();
        let victim = fault.process();
        self.fired[index] = true;
        if !self.crashed.contains(&victim) {
            self.crashed.push(victim);
        }
        self.applied.push(AppliedFault {
            fault,
            decision: self.decisions,
            step: system.trace().len(),
        });
    }

    /// Evaluates crash triggers against the system state and the trace
    /// suffix not yet consumed.
    fn apply_triggers(&mut self, system: &System) {
        // Trace-keyed triggers: consume new events exactly once. The
        // copy-on-write trace skips already-consumed segments without
        // walking them.
        let trace = system.trace();
        for event in trace.events_from(self.trace_cursor.min(trace.len())) {
            for i in 0..self.plan.faults.len() {
                if self.fired[i] {
                    continue;
                }
                if let Fault::CrashAfterOp { process, kind, occurrence } =
                    &self.plan.faults[i]
                {
                    if event.pid == *process && OpKind::of(&event.op) == *kind {
                        self.op_counts[i] += 1;
                        if self.op_counts[i] >= *occurrence {
                            self.crash(i, system);
                        }
                    }
                }
            }
        }
        self.trace_cursor = trace.len();
        // Step-indexed crashes.
        for i in 0..self.plan.faults.len() {
            if self.fired[i] {
                continue;
            }
            if let Fault::CrashAt { process, step } = self.plan.faults[i] {
                if system.steps_of(process) >= step {
                    self.crash(i, system);
                }
            }
        }
    }

    /// Is `pid` stalled at the current decision clock?
    fn is_stalled(&self, pid: ProcessId) -> bool {
        self.plan.faults.iter().any(|f| {
            matches!(f, Fault::StallWindow { process, from, to }
                if *process == pid && *from <= self.decisions && self.decisions < *to)
        })
    }

    fn is_blocked(&self, pid: ProcessId) -> bool {
        self.is_crashed(pid) || self.is_stalled(pid)
    }

    /// One scheduling decision at the current (un-ticked) clock; the
    /// clock advances in [`Scheduler::next`] after this returns so every
    /// check within a decision sees the same clock value.
    fn pick(&mut self, system: &System) -> Option<ProcessId> {
        self.apply_triggers(system);
        // Record stall activations the first time their window covers
        // the clock (replay diagnostics; stalls are not permanent, so
        // they do not enter `crashed`).
        for i in 0..self.plan.faults.len() {
            if self.fired[i] {
                continue;
            }
            if let Fault::StallWindow { from, to, .. } = self.plan.faults[i] {
                if from <= self.decisions && self.decisions < to {
                    let fault = self.plan.faults[i].clone();
                    self.fired[i] = true;
                    self.applied.push(AppliedFault {
                        fault,
                        decision: self.decisions,
                        step: system.trace().len(),
                    });
                }
            }
        }
        let n = system.process_count();
        // Give the inner scheduler a bounded number of chances to pick
        // an unfaulted process; its choices stay deterministic because
        // they only consume its own (seeded) state.
        for _ in 0..2 * n + 2 {
            match self.inner.next(system) {
                Some(pid) if !self.is_blocked(pid) => return Some(pid),
                Some(_) => continue,
                None => return None,
            }
        }
        // Deterministic fallback: the lowest-id live unfaulted process.
        (0..n)
            .map(ProcessId)
            .find(|&p| !system.is_terminated(p) && !self.is_blocked(p))
    }
}

impl Scheduler for FaultScheduler {
    fn next(&mut self, system: &System) -> Option<ProcessId> {
        let choice = self.pick(system);
        self.decisions += 1;
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId};
    use crate::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
    use crate::sched::{Random, RoundRobin};
    use crate::value::Value;

    /// Terminates after `n` updates.
    #[derive(Clone, Debug)]
    struct Stepper {
        n: usize,
    }

    impl SnapshotProtocol for Stepper {
        fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
            if self.n == 0 {
                ProtocolStep::Output(Value::Int(0))
            } else {
                self.n -= 1;
                ProtocolStep::Update(0, Value::Int(self.n as i64))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn system(n_procs: usize, steps: usize) -> System {
        let procs = (0..n_procs)
            .map(|_| {
                Box::new(SnapshotProcess::new(Stepper { n: steps }, ObjectId(0)))
                    as Box<dyn Process>
            })
            .collect();
        System::new(vec![Object::snapshot(1)], procs)
    }

    #[test]
    fn plan_syntax_round_trips() {
        for spec in [
            "crash@0:3",
            "stall@1:4-9",
            "crash-after@2:update:2",
            "crash@0:0+stall@1:0-5+crash-after@2:scan:1",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(plan.to_string(), spec, "round trip of `{spec}`");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert_eq!(FaultPlan::none().to_string(), "none");
    }

    #[test]
    fn malformed_plans_are_rejected_with_reasons() {
        for bad in [
            "crash@x:1",
            "crash@0",
            "stall@0:9-4",
            "stall@0:5",
            "crash-after@0:frob:1",
            "crash-after@0:scan:0",
            "explode@0:1",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            match err {
                ModelError::BadSpec { spec, reason } => {
                    assert_eq!(spec, bad);
                    assert!(!reason.is_empty());
                }
                other => panic!("expected BadSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_at_stops_the_victim_exactly_on_time() {
        let mut sys = system(3, 10);
        let plan = FaultPlan::parse("crash@1:4").unwrap();
        let mut sched = FaultScheduler::new(Box::new(RoundRobin::new()), plan);
        sys.run(&mut sched, 100_000).unwrap();
        // The victim took exactly 4 steps and no more.
        assert_eq!(sys.steps_of(ProcessId(1)), 4);
        assert!(sched.is_crashed(ProcessId(1)));
        // Survivors still finished: non-blocking progress.
        assert!(sys.is_terminated(ProcessId(0)));
        assert!(sys.is_terminated(ProcessId(2)));
        assert!(!sys.is_terminated(ProcessId(1)));
        assert_eq!(sched.survivors(&sys), vec![ProcessId(0), ProcessId(2)]);
        assert_eq!(sched.applied().len(), 1);
    }

    #[test]
    fn crash_at_zero_is_an_initially_dead_process() {
        let mut sys = system(2, 5);
        let plan = FaultPlan::single(Fault::CrashAt { process: ProcessId(0), step: 0 });
        let mut sched = FaultScheduler::new(Box::new(RoundRobin::new()), plan);
        sys.run(&mut sched, 10_000).unwrap();
        assert_eq!(sys.steps_of(ProcessId(0)), 0);
        assert!(sys.is_terminated(ProcessId(1)));
    }

    #[test]
    fn stall_window_pauses_then_resumes() {
        let mut sys = system(2, 5);
        let plan = FaultPlan::parse("stall@0:0-8").unwrap();
        let mut sched = FaultScheduler::new(Box::new(RoundRobin::new()), plan);
        sys.run(&mut sched, 10_000).unwrap();
        // The stalled process eventually resumed and finished.
        assert!(sys.all_terminated());
        // During decisions [0, 8) only p1 stepped: the first 8 trace
        // events belong to p1 (p1 needs 11 steps total, > 8).
        for event in sys.trace().iter().take(8) {
            assert_eq!(event.pid, ProcessId(1), "stalled process stepped early");
        }
        assert_eq!(sched.applied().len(), 1);
    }

    #[test]
    fn crash_after_op_fires_mid_sequence() {
        let mut sys = system(3, 10);
        // Crash p0 immediately after its 2nd Update — between "steps"
        // of its protocol sequence, the Kallimanis–Kanellou pattern.
        let plan = FaultPlan::parse("crash-after@0:update:2").unwrap();
        let mut sched = FaultScheduler::new(Box::new(RoundRobin::new()), plan);
        sys.run(&mut sched, 100_000).unwrap();
        let updates = sys
            .trace()
            .iter()
            .filter(|e| e.pid == ProcessId(0) && OpKind::of(&e.op) == OpKind::Update)
            .count();
        assert_eq!(updates, 2, "p0 crashed right after its second update");
        assert!(sys.is_terminated(ProcessId(1)));
        assert!(sys.is_terminated(ProcessId(2)));
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed_and_plan() {
        let run = || {
            let mut sys = system(3, 6);
            let plan = FaultPlan::parse("crash@2:3+stall@0:2-6").unwrap();
            let mut sched =
                FaultScheduler::new(Box::new(Random::seeded(42)), plan);
            sys.run(&mut sched, 100_000).unwrap();
            (sys.trace().to_vec(), sched.applied().to_vec())
        };
        let (trace_a, applied_a) = run();
        let (trace_b, applied_b) = run();
        assert_eq!(trace_a, trace_b);
        assert_eq!(applied_a, applied_b);
        assert!(!applied_a.is_empty());
    }

    #[test]
    fn all_processes_crashed_ends_the_run() {
        let mut sys = system(2, 5);
        let plan = FaultPlan::parse("crash@0:1+crash@1:1").unwrap();
        let mut sched = FaultScheduler::new(Box::new(RoundRobin::new()), plan);
        let steps = sys.run(&mut sched, 10_000).unwrap();
        assert_eq!(steps, 2);
        assert!(!sys.all_terminated());
        assert!(sched.survivors(&sys).is_empty());
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut faulted = system(3, 4);
        let mut plain = system(3, 4);
        let mut sched =
            FaultScheduler::new(Box::new(Random::seeded(7)), FaultPlan::none());
        faulted.run(&mut sched, 10_000).unwrap();
        plain.run(&mut Random::seeded(7), 10_000).unwrap();
        assert_eq!(faulted.trace(), plain.trace());
        assert!(sched.applied().is_empty());
    }

    #[test]
    fn single_crash_plan_space_is_exhaustive_and_ordered() {
        let plans = FaultPlan::single_crash_plans(3, 5);
        assert_eq!(plans.len(), 3 * 6);
        assert_eq!(plans[0].to_string(), "crash@0:0");
        assert_eq!(plans[5].to_string(), "crash@0:5");
        assert_eq!(plans[6].to_string(), "crash@1:0");
        assert_eq!(plans[17].to_string(), "crash@2:5");
        // All distinct.
        let mut seen: Vec<String> = plans.iter().map(|p| p.to_string()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), plans.len());
    }

    #[test]
    fn applied_fault_display_names_coordinates() {
        let applied = AppliedFault {
            fault: Fault::CrashAt { process: ProcessId(1), step: 4 },
            decision: 9,
            step: 8,
        };
        let text = applied.to_string();
        assert!(text.contains("crash@1:4"));
        assert!(text.contains("decision 9"));
        assert!(text.contains("step 8"));
    }
}
