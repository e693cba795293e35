//! ddmin-style counterexample shrinking.
//!
//! A violation found by the explorer or a fault campaign is a full
//! schedule — potentially thousands of scheduling decisions — plus the
//! fault plan in force. Almost none of it matters: "Simple Executions
//! of Snapshot Implementations" (Amram, Mizrahi, Weiss) shows every
//! snapshot counterexample has a *simple* equivalent, and this module
//! is the executable version of that claim. A [`Counterexample`]
//! captures the run as an explicit decision sequence (replayable with
//! [`crate::sched::Fixed`] under a [`FaultScheduler`]); [`shrink`]
//! minimises it with Zeller–Hildebrandt delta debugging (ddmin) applied
//! jointly to the fault list and the decision sequence, keeping a
//! candidate iff the *violation fingerprint* — an FNV-1a hash of the
//! violation message — still reproduces.
//!
//! Guarantees:
//!
//! * the result is never larger than the input (candidates only ever
//!   remove elements);
//! * the shrink loop runs the two ddmin passes to a joint fixpoint, so
//!   within the candidate budget the result is 1-minimal: removing any
//!   single decision or fault loses the violation, and a second
//!   [`shrink`] call is a no-op (idempotence);
//! * every candidate evaluation is a deterministic replay — same
//!   factory, same decisions, same plan → same outcome — so shrinking
//!   is itself reproducible;
//! * each distinct candidate is replayed once per call: a [`shrink`]
//!   call keeps the verdict of every candidate it has replayed, keyed
//!   by the exact `(decisions, faults)` pair, and answers a repeat
//!   from that memo. ddmin reaches equal candidates again and again
//!   (once a complement is removed, most chunks at the next
//!   granularity are chunks it has already tested, and the joint
//!   fixpoint's closing round runs ddmin again over a result the round
//!   before already reduced), and by the previous guarantee a
//!   replay could only return the recorded verdict. The memo is
//!   dropped when the call returns.

use crate::campaign::SchedulerSpec;
use crate::fault::{Fault, FaultPlan, FaultScheduler};
use crate::fingerprint::fingerprint;
use crate::process::ProcessId;
use crate::sched::Fixed;
use crate::system::System;
use std::cell::RefCell;
use std::collections::HashMap;

/// A replayable counterexample: the schedule as an explicit decision
/// sequence plus the fault plan that was in force. Replaying the
/// decisions with [`Fixed`] under a [`FaultScheduler`] carrying `plan`
/// reproduces the run exactly — every scheduler only picks live
/// processes, so the recorded trace pids *are* the decision sequence
/// and the fault triggers (step counts, decision clock, trace cursor)
/// line up with the original run.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Counterexample {
    /// The scheduling decisions, in order.
    pub decisions: Vec<ProcessId>,
    /// The fault plan in force.
    pub plan: FaultPlan,
}

impl Counterexample {
    /// A counterexample with no faults (e.g. an explorer violation,
    /// which is already a pure decision sequence).
    pub fn faultless(decisions: Vec<ProcessId>) -> Self {
        Counterexample { decisions, plan: FaultPlan::none() }
    }

    /// Total size: decisions plus planned faults — the quantity ddmin
    /// minimises.
    pub fn size(&self) -> usize {
        self.decisions.len() + self.plan.faults.len()
    }
}

/// A check evaluated on the final configuration of a replay, given the
/// processes the plan crashed; returns a description to flag a
/// violation. (Plain campaign checks ignore the crashed set.)
pub type CexCheck<'a> = &'a dyn Fn(&System, &[ProcessId]) -> Option<String>;

/// Outcome of deterministically replaying a [`Counterexample`].
#[derive(Clone, Debug)]
pub struct CexOutcome {
    /// Check failure on the final configuration, if any.
    pub violation: Option<String>,
    /// Steps actually executed.
    pub steps: usize,
    /// Processes the plan crashed during the replay.
    pub crashed: Vec<ProcessId>,
}

impl CexOutcome {
    /// The violation fingerprint: FNV-1a of the violation message.
    /// `None` when the replay did not violate. The fingerprint hashes
    /// the *message only* — not the schedule — so a shorter schedule
    /// producing the same violation matches.
    pub fn fingerprint(&self) -> Option<u64> {
        self.violation.as_deref().map(fingerprint)
    }
}

/// Deterministically replays `cex` on a fresh system from `factory`.
/// Runtime errors surface as a `None` violation (an erroring candidate
/// never matches a violation fingerprint).
pub fn execute(
    factory: &dyn Fn() -> System,
    cex: &Counterexample,
    check: CexCheck,
) -> CexOutcome {
    let mut system = factory();
    let mut sched = FaultScheduler::new(
        Box::new(Fixed::new(cex.decisions.clone())),
        cex.plan.clone(),
    );
    let steps = match system.run(&mut sched, cex.decisions.len()) {
        Ok(steps) => steps,
        Err(_) => {
            return CexOutcome {
                violation: None,
                steps: 0,
                crashed: sched.crashed().to_vec(),
            }
        }
    };
    CexOutcome {
        violation: check(&system, sched.crashed()),
        steps,
        crashed: sched.crashed().to_vec(),
    }
}

/// Captures a replayable counterexample from a seeded scheduler run:
/// executes `(spec, seed, plan)` for up to `budget` steps, and if
/// `check` flags the final configuration, re-derives the run as an
/// explicit decision sequence and confirms the [`Fixed`] replay
/// reproduces the same violation fingerprint.
///
/// Returns `None` when the run does not violate (or, defensively, if
/// the decision-sequence replay fails to reproduce it).
pub fn capture(
    spec: &SchedulerSpec,
    seed: u64,
    budget: usize,
    plan: &FaultPlan,
    factory: &dyn Fn(u64) -> System,
    check: CexCheck,
) -> Option<(Counterexample, CexOutcome)> {
    let mut system = factory(seed);
    let mut sched = FaultScheduler::new(spec.build(seed), plan.clone());
    system.run(&mut sched, budget).ok()?;
    let violation = check(&system, sched.crashed())?;
    let decisions: Vec<ProcessId> = system.trace().iter().map(|e| e.pid).collect();
    let cex = Counterexample { decisions, plan: plan.clone() };
    let outcome = execute(&|| factory(seed), &cex, check);
    (outcome.fingerprint() == Some(fingerprint(&violation)))
        .then_some((cex, outcome))
}

/// How a [`shrink`] call went.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShrinkReport {
    /// Decision count before shrinking.
    pub original_decisions: usize,
    /// Decision count after shrinking.
    pub shrunk_decisions: usize,
    /// Planned-fault count before shrinking.
    pub original_faults: usize,
    /// Planned-fault count after shrinking.
    pub shrunk_faults: usize,
    /// The preserved violation fingerprint (`None` when the input was
    /// not a violation, in which case nothing was shrunk).
    pub fingerprint: Option<u64>,
    /// Candidates ddmin considered, memo hits included: a candidate
    /// the call had already replayed counts again but is not replayed
    /// again (see the module docs), so this is an upper bound on the
    /// replays and the quantity the candidate budget caps.
    pub candidates_tried: usize,
    /// Fault-pass + decision-pass rounds until the joint fixpoint.
    pub passes: usize,
    /// The candidate budget ran out before the fixpoint: the result is
    /// still a valid (and no larger) counterexample, but may not be
    /// 1-minimal.
    pub truncated: bool,
}

impl ShrinkReport {
    /// Human-readable shrink ratio, e.g. `"412 -> 7 decisions"`.
    pub fn ratio(&self) -> String {
        format!(
            "{} -> {} decisions, {} -> {} faults",
            self.original_decisions,
            self.shrunk_decisions,
            self.original_faults,
            self.shrunk_faults
        )
    }
}

/// Default cap on replay candidates per [`shrink`] call.
pub const DEFAULT_CANDIDATE_BUDGET: usize = 10_000;

/// Minimises `cex` with ddmin over the joint (fault list, decision
/// sequence) space: alternately delta-debugs the planned faults and the
/// decisions until neither pass removes anything, keeping a candidate
/// iff the violation fingerprint of the input still reproduces. See the
/// module docs for the guarantees. Uses
/// [`DEFAULT_CANDIDATE_BUDGET`]; [`shrink_with`] takes an explicit cap.
pub fn shrink(
    cex: &Counterexample,
    factory: &dyn Fn() -> System,
    check: CexCheck,
) -> (Counterexample, ShrinkReport) {
    shrink_with(cex, factory, check, DEFAULT_CANDIDATE_BUDGET)
}

/// [`shrink`] with an explicit candidate budget.
pub fn shrink_with(
    cex: &Counterexample,
    factory: &dyn Fn() -> System,
    check: CexCheck,
    candidate_budget: usize,
) -> (Counterexample, ShrinkReport) {
    shrink_by(
        cex,
        &|candidate| execute(factory, candidate, check).fingerprint(),
        candidate_budget,
    )
}

/// The shrink loop of [`shrink_with`] over `replay`, which returns the
/// violation fingerprint of one deterministic replay of a candidate.
fn shrink_by(
    cex: &Counterexample,
    replay: &dyn Fn(&Counterexample) -> Option<u64>,
    candidate_budget: usize,
) -> (Counterexample, ShrinkReport) {
    let mut report = ShrinkReport {
        original_decisions: cex.decisions.len(),
        shrunk_decisions: cex.decisions.len(),
        original_faults: cex.plan.faults.len(),
        shrunk_faults: cex.plan.faults.len(),
        fingerprint: None,
        candidates_tried: 0,
        passes: 0,
        truncated: false,
    };
    let Some(target) = replay(cex) else {
        // Not a violation: nothing to preserve, nothing to shrink.
        return (cex.clone(), report);
    };
    report.fingerprint = Some(target);

    let mut tried = 0usize;
    let mut current = cex.clone();
    // The verdict of every candidate replayed so far, keyed by the
    // exact candidate: a hash alone could collide into a wrong verdict.
    let verdicts: RefCell<HashMap<Counterexample, bool>> = RefCell::default();
    let reproduces = |decisions: &[ProcessId], faults: &[Fault]| -> bool {
        let candidate = Counterexample {
            decisions: decisions.to_vec(),
            plan: FaultPlan { faults: faults.to_vec() },
        };
        if let Some(&verdict) = verdicts.borrow().get(&candidate) {
            return verdict;
        }
        let verdict = replay(&candidate) == Some(target);
        verdicts.borrow_mut().insert(candidate, verdict);
        verdict
    };

    // Joint fixpoint: each pass delta-debugs the fault list (against
    // the current decisions), then the decision sequence (against the
    // current faults). Removing a fault can unlock decision removals
    // and vice versa, so iterate until neither side shrinks.
    loop {
        report.passes += 1;
        let before = current.size();
        let faults = ddmin(
            &current.plan.faults,
            &|faults| reproduces(&current.decisions, faults),
            &mut tried,
            candidate_budget,
        );
        current.plan = FaultPlan { faults };
        let decisions = ddmin(
            &current.decisions,
            &|decisions| reproduces(decisions, &current.plan.faults),
            &mut tried,
            candidate_budget,
        );
        current.decisions = decisions;
        if current.size() == before || tried >= candidate_budget {
            break;
        }
    }
    report.shrunk_decisions = current.decisions.len();
    report.shrunk_faults = current.plan.faults.len();
    report.candidates_tried = tried;
    report.truncated = tried >= candidate_budget;
    (current, report)
}

/// One ddmin pass over `items`: returns a subsequence on which `test`
/// still holds, 1-minimal with respect to single-element removal when
/// the budget allows. `test` is never called on the input itself (the
/// caller has already established it holds). `tried` is incremented
/// once per candidate considered, whether or not `test` answers it
/// from a memo; evaluation stops at `budget`.
fn ddmin<T: Clone>(
    items: &[T],
    test: &dyn Fn(&[T]) -> bool,
    tried: &mut usize,
    budget: usize,
) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    if current.is_empty() || *tried >= budget {
        return current;
    }
    // Fast path: the empty candidate (granularity would only reach it
    // at the very end otherwise).
    *tried += 1;
    if test(&[]) {
        return Vec::new();
    }
    let mut granularity = 2usize.min(current.len());
    while current.len() >= 2 {
        let chunks = chunk_ranges(current.len(), granularity);
        let mut reduced = false;
        // Try each chunk alone, then each complement. A surviving
        // chunk resets granularity to 2; a surviving complement keeps
        // the granularity density (Zeller–Hildebrandt). Complements are
        // skipped at granularity 2, where they coincide with chunks.
        'search: {
            for range in &chunks {
                if *tried >= budget {
                    break 'search;
                }
                let candidate = current[range.clone()].to_vec();
                if candidate.len() < current.len() {
                    *tried += 1;
                    if test(&candidate) {
                        current = candidate;
                        granularity = 2;
                        reduced = true;
                        break 'search;
                    }
                }
            }
            if granularity > 2 {
                for range in &chunks {
                    if *tried >= budget {
                        break 'search;
                    }
                    let mut candidate = current[..range.start].to_vec();
                    candidate.extend_from_slice(&current[range.end..]);
                    if candidate.len() < current.len() {
                        *tried += 1;
                        if test(&candidate) {
                            current = candidate;
                            granularity = (granularity - 1).max(2);
                            reduced = true;
                            break 'search;
                        }
                    }
                }
            }
        }
        if *tried >= budget {
            break;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

/// Splits `0..len` into `n` near-equal, non-empty ranges.
fn chunk_ranges(len: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let n = n.clamp(1, len.max(1));
    let base = len / n;
    let extra = len % n;
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId};
    use crate::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
    use crate::value::Value;

    /// scan → Update(0, input) → scan → Output(view[0]).
    #[derive(Clone, Debug)]
    struct WriteThenRead {
        input: i64,
        wrote: bool,
    }

    impl SnapshotProtocol for WriteThenRead {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            if self.wrote {
                ProtocolStep::Output(view[0].clone())
            } else {
                self.wrote = true;
                ProtocolStep::Update(0, Value::Int(self.input))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn two_writers() -> System {
        let mk = |input| {
            Box::new(SnapshotProcess::new(
                WriteThenRead { input, wrote: false },
                ObjectId(0),
            )) as Box<dyn Process>
        };
        System::new(vec![Object::snapshot(1)], vec![mk(1), mk(2)])
    }

    /// Flags runs where p0 read p1's value.
    fn p0_read_two(sys: &System, _crashed: &[ProcessId]) -> Option<String> {
        sys.output(ProcessId(0))
            .filter(|v| *v == Value::Int(2))
            .map(|_| "p0 observed p1's write".to_string())
    }

    fn pids(raw: &[usize]) -> Vec<ProcessId> {
        raw.iter().map(|&p| ProcessId(p)).collect()
    }

    /// The schedule never runs p1, so every planted fault (the crash
    /// of p1, a stall far past the end of the run, a trigger that never
    /// fires) is redundant and must be shrunk away.
    fn planted_faults() -> (Counterexample, impl Fn(&System, &[ProcessId]) -> Option<String>) {
        let check = |sys: &System, _: &[ProcessId]| {
            sys.output(ProcessId(0))
                .filter(|v| *v == Value::Int(1))
                .map(|_| "p0 never saw p1".to_string())
        };
        let plan =
            FaultPlan::parse("crash@1:0+stall@0:90-95+crash-after@1:scan:9")
                .unwrap();
        (Counterexample { decisions: vec![ProcessId(0); 3], plan }, check)
    }

    /// Shrinks `cex` through [`shrink_by`] with a factory that counts
    /// its calls and a replay that records every candidate it is asked
    /// for. Returns the report, the replayed candidates in order (the
    /// input first) and the factory's call count.
    fn replays_of(
        cex: &Counterexample,
        check: CexCheck,
    ) -> (ShrinkReport, Vec<Counterexample>, usize) {
        let calls = std::cell::Cell::new(0usize);
        let factory = || {
            calls.set(calls.get() + 1);
            two_writers()
        };
        let replayed = RefCell::new(Vec::new());
        let (shrunk, report) = shrink_by(
            cex,
            &|candidate| {
                replayed.borrow_mut().push(candidate.clone());
                execute(&factory, candidate, check).fingerprint()
            },
            DEFAULT_CANDIDATE_BUDGET,
        );
        // The seam changes nothing: the public path agrees.
        assert_eq!((shrunk, report.clone()), shrink(cex, &two_writers, check));
        (report, replayed.into_inner(), calls.get())
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in 1..10usize {
            for n in 1..12usize {
                let ranges = chunk_ranges(len, n);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len {len} n {n}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn capture_round_trips_a_random_run() {
        // Find a seed where p0 observes p1's write under Random.
        let factory = |_seed: u64| two_writers();
        let mut captured = None;
        for seed in 0..50u64 {
            if let Some(pair) = capture(
                &SchedulerSpec::Random,
                seed,
                100,
                &FaultPlan::none(),
                &factory,
                &|s, c| p0_read_two(s, c),
            ) {
                captured = Some(pair);
                break;
            }
        }
        let (cex, outcome) = captured.expect("some seed violates");
        assert!(outcome.violation.is_some());
        assert_eq!(outcome.steps, cex.decisions.len());
    }

    #[test]
    fn fixed_seed_violation_shrinks_to_known_minimum() {
        // Interleaved round-robin: p1 writes before p0's second scan,
        // so p0 outputs 2. The minimal reproduction needs p1's scan,
        // p1's update, and p0's full scan-update-scan — any 4-decision
        // subsequence either never lets p0 output or keeps 2 out of
        // p0's view. Minimum is 5 decisions.
        let cex = Counterexample::faultless(
            [0, 1, 0, 1, 0, 1].iter().map(|&p| ProcessId(p)).collect(),
        );
        let factory = || two_writers();
        let outcome = execute(&factory, &cex, &|s, c| p0_read_two(s, c));
        assert!(outcome.violation.is_some(), "seed schedule must violate");

        let (shrunk, report) =
            shrink(&cex, &factory, &|s, c| p0_read_two(s, c));
        assert_eq!(report.original_decisions, 6);
        assert_eq!(shrunk.decisions.len(), 5, "shrunk: {:?}", shrunk.decisions);
        assert_eq!(report.shrunk_decisions, 5);
        assert!(!report.truncated);
        assert_eq!(report.fingerprint, Some(fingerprint("p0 observed p1's write")));
        // The memo-free shrinker's counts: memo hits still count as
        // candidates, so neither moves.
        assert_eq!((report.candidates_tried, report.passes), (48, 2));
        // The shrunk trace still reproduces the same violation.
        let replayed = execute(&factory, &shrunk, &|s, c| p0_read_two(s, c));
        assert_eq!(replayed.fingerprint(), report.fingerprint);
    }

    #[test]
    fn shrinking_is_idempotent() {
        let cex = Counterexample::faultless(
            [0, 1, 0, 1, 0, 1].iter().map(|&p| ProcessId(p)).collect(),
        );
        let factory = || two_writers();
        let (once, _) = shrink(&cex, &factory, &|s, c| p0_read_two(s, c));
        let (twice, report) = shrink(&once, &factory, &|s, c| p0_read_two(s, c));
        assert_eq!(once, twice, "second pass must remove nothing");
        assert_eq!(report.original_decisions, report.shrunk_decisions);
        assert_eq!((report.candidates_tried, report.passes), (21, 1));
    }

    #[test]
    fn non_violating_input_is_returned_unchanged() {
        let cex = Counterexample::faultless(vec![ProcessId(0), ProcessId(1)]);
        let factory = || two_writers();
        let (out, report) = shrink(&cex, &factory, &|s, c| p0_read_two(s, c));
        assert_eq!(out, cex);
        assert_eq!(report.fingerprint, None);
        assert_eq!(report.candidates_tried, 0);
    }

    #[test]
    fn redundant_faults_are_shrunk_away() {
        let (cex, check) = planted_faults();
        let factory = || two_writers();
        let outcome = execute(&factory, &cex, &check);
        assert!(outcome.violation.is_some());
        let (shrunk, report) = shrink(&cex, &factory, &check);
        assert_eq!(
            report.shrunk_faults, 0,
            "every fault is redundant here: {shrunk:?}"
        );
        assert_eq!(shrunk, Counterexample::faultless(pids(&[0, 0, 0])));
        assert_eq!((report.candidates_tried, report.passes), (19, 2));
        let replayed = execute(&factory, &shrunk, &check);
        assert_eq!(replayed.fingerprint(), report.fingerprint);
    }

    #[test]
    fn each_distinct_candidate_is_replayed_once_per_call() {
        let interleaved = Counterexample::faultless(pids(&[0, 1, 0, 1, 0, 1]));
        let (planted, planted_check) = planted_faults();
        let cases: [(&Counterexample, CexCheck, usize); 2] = [
            (&interleaved, &|s, c| p0_read_two(s, c), 14),
            (&planted, &planted_check, 4),
        ];
        for (cex, check, distinct) in cases {
            let (report, replayed, calls) = replays_of(cex, check);
            // One factory call per replay, and no candidate twice.
            assert_eq!(calls, replayed.len());
            let unique: std::collections::HashSet<_> = replayed.iter().collect();
            assert_eq!(unique.len(), replayed.len(), "a candidate replayed twice");
            // Besides the input, exactly the distinct candidates the
            // memo-free shrinker considered are replayed: 14 of its 48
            // candidates here, and 4 of 19 with the planted faults.
            assert_eq!(replayed.len() - 1, distinct, "{cex:?}");
            assert!(distinct < report.candidates_tried, "{report:?}");
        }
    }

    #[test]
    fn candidate_budget_truncates_but_stays_valid() {
        let cex = Counterexample::faultless(
            [0, 1, 0, 1, 0, 1].iter().map(|&p| ProcessId(p)).collect(),
        );
        let factory = || two_writers();
        let (shrunk, report) =
            shrink_with(&cex, &factory, &|s, c| p0_read_two(s, c), 2);
        assert!(report.truncated);
        assert_eq!(shrunk, cex, "neither budgeted candidate reproduces");
        assert_eq!((report.candidates_tried, report.passes), (2, 1));
        let replayed = execute(&factory, &shrunk, &|s, c| p0_read_two(s, c));
        assert_eq!(replayed.fingerprint(), report.fingerprint);
    }
}
