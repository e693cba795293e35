//! Non-blocking certification of the augmented snapshot under
//! deterministic crash and stall placements.
//!
//! §3 of the paper proves the augmented snapshot is non-blocking: a
//! crash-stopped process can never prevent the survivors from
//! completing their own operations, and the partial Block-Update it
//! leaves behind must still linearize consistently (as a non-atomic
//! batch, per §3.3).
//!
//! [`certify_block_update_faults`] machine-checks this on concrete
//! executions. For every victim process and every prefix length `k` of
//! its [`BLOCK_UPDATE_STEPS`]-step Block-Update sequence, the victim
//! takes exactly `k` interleaved steps and then crashes or stalls;
//! every survivor finishes its own Block-Update and a final `Scan`
//! under a bounded round-robin schedule. A crashed victim never moves
//! again. A stalled one resumes once the survivors are done and must
//! itself finish its Block-Update and a Scan — the wait-free
//! counterpart of the crash case. The finished run is checked against
//! the §3 specification ([`crate::spec::check`]) and the
//! happens-before window check (lint RS-W007). A placement fails if
//! any process exceeds its step budget (a blocking violation) or a
//! check reports an error. Failures are structured ([`Placement`] +
//! message) so a failed certification can be packaged into a replay
//! bundle.

use crate::client::AugOp;
use crate::real::RealSystem;
use crate::spec;
use rsim_smr::value::Value;
use std::fmt;

/// Steps in a full (non-yielding) Block-Update sequence (Lemma 2).
pub const BLOCK_UPDATE_STEPS: usize = 6;

/// What happens to the victim at its placement point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// The victim crash-stops for good; survivors must still finish.
    Crash,
    /// The victim pauses while the survivors finish everything, then
    /// resumes and must itself complete (a full stall window).
    Stall,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Crash => write!(out, "crash"),
            FaultAction::Stall => write!(out, "stall"),
        }
    }
}

/// A single-fault placement: `victim` crashes or stalls after taking
/// exactly `after_steps` steps of its Block-Update.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Placement {
    /// The process that crashes or stalls.
    pub victim: usize,
    /// How many steps of its Block-Update it completes first
    /// (`0..BLOCK_UPDATE_STEPS`).
    pub after_steps: usize,
    /// Whether the victim crash-stops or merely stalls.
    pub action: FaultAction,
}

impl fmt::Display for Placement {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "{} q{} after step {}",
            self.action, self.victim, self.after_steps
        )
    }
}

/// All single-fault placements for an `f`-process system, victim-major
/// then step order: every victim crashing, then stalling, before each
/// of the [`BLOCK_UPDATE_STEPS`] steps of its Block-Update.
pub fn single_fault_placements(f: usize) -> Vec<Placement> {
    let mut placements = Vec::with_capacity(f * BLOCK_UPDATE_STEPS * 2);
    for victim in 0..f {
        for after_steps in 0..BLOCK_UPDATE_STEPS {
            for action in [FaultAction::Crash, FaultAction::Stall] {
                placements.push(Placement { victim, after_steps, action });
            }
        }
    }
    placements
}

/// Runs one fault placement (crash *or* stall) to completion and
/// returns the finished system, or a description of the blocking
/// violation.
///
/// Schedule: every process begins a Block-Update (process `i` writes
/// `i + 1` to component `i mod m`); processes are stepped round-robin,
/// except the victim stops after `after_steps` steps. Once the
/// surviving Block-Updates finish, every survivor performs a `Scan`,
/// again round-robin. A crashed victim stays stopped. A stalled victim
/// then resumes alone: it must complete its own Block-Update and a
/// final Scan. Each phase is bounded by a step budget, so a blocked
/// process is detected rather than looped on.
pub fn run_fault_placement(
    f: usize,
    m: usize,
    placement: Placement,
) -> Result<RealSystem, String> {
    assert!(placement.victim < f, "victim out of range");
    assert!(placement.after_steps < BLOCK_UPDATE_STEPS, "fault after completion");
    let mut real = RealSystem::new(f, m);
    for pid in 0..f {
        real.begin(
            pid,
            AugOp::BlockUpdate {
                components: vec![pid % m],
                values: vec![Value::Int(pid as i64 + 1)],
            },
        );
    }
    let mut victim_steps = 0;
    round_robin(&mut real, f, |pid| {
        if pid == placement.victim {
            if victim_steps == placement.after_steps {
                return false;
            }
            victim_steps += 1;
        }
        true
    })
    .map_err(|pid| format!("{placement}: q{pid}'s Block-Update blocked"))?;
    for pid in 0..f {
        if pid != placement.victim {
            real.begin(pid, AugOp::Scan);
        }
    }
    round_robin(&mut real, f, |pid| pid != placement.victim)
        .map_err(|pid| format!("{placement}: q{pid}'s Scan blocked"))?;
    if placement.action == FaultAction::Stall {
        // The stall window closes: the victim resumes alone and must
        // finish its Block-Update, then a Scan of its own.
        round_robin(&mut real, f, |pid| pid == placement.victim).map_err(
            |pid| format!("{placement}: q{pid}'s resumed Block-Update blocked"),
        )?;
        real.begin(placement.victim, AugOp::Scan);
        round_robin(&mut real, f, |pid| pid == placement.victim)
            .map_err(|pid| format!("{placement}: q{pid}'s resumed Scan blocked"))?;
    }
    Ok(real)
}

/// Steps every non-idle process for which `live` says yes, round-robin,
/// until all such processes are idle. Errs with the stuck process id if
/// the per-phase budget runs out (the non-blocking property failed).
fn round_robin(
    real: &mut RealSystem,
    f: usize,
    mut live: impl FnMut(usize) -> bool,
) -> Result<(), usize> {
    // A Block-Update takes ≤ 6 steps and a Scan ≤ 2k + 3 (Lemma 2);
    // this budget is far beyond any spec-conforming phase for small f.
    let budget = 64 * f * f + 64;
    for _ in 0..budget {
        let mut progressed = false;
        for pid in 0..f {
            if !real.is_idle(pid) && live(pid) {
                real.step(pid);
                progressed = true;
            }
        }
        if !progressed {
            return Ok(());
        }
    }
    let stuck = (0..f)
        .find(|&pid| !real.is_idle(pid) && live(pid))
        .unwrap_or(0);
    Err(stuck)
}

/// The outcome of certifying every crash *and* stall placement.
///
/// Failures are structured — each carries the [`Placement`] that broke
/// alongside the message — so a failed certification can be packaged
/// into a portable replay bundle instead of just a log line.
#[derive(Clone, Debug)]
pub struct FaultCertifyReport {
    /// Number of real processes.
    pub f: usize,
    /// Components of the augmented snapshot.
    pub m: usize,
    /// Every placement that was checked.
    pub placements: Vec<Placement>,
    /// One entry per failed placement (empty = certified).
    pub failures: Vec<(Placement, String)>,
}

impl FaultCertifyReport {
    /// Did every placement pass?
    pub fn is_certified(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one fault placement and returns its failure messages (empty =
/// the placement certifies). This is the per-placement body of
/// [`certify_block_update_faults`], exposed so a replay of a bundled
/// certification failure can re-check exactly one placement.
pub fn check_fault_placement(f: usize, m: usize, placement: Placement) -> Vec<String> {
    match run_fault_placement(f, m, placement) {
        Err(blocked) => vec![blocked],
        Ok(real) => {
            let report = spec::check(&real, m);
            let mut failures: Vec<String> = report
                .errors
                .iter()
                .map(|error| format!("{placement}: {error}"))
                .collect();
            // Independent cross-check: the happens-before analyzer
            // re-certifies every atomic Block-Update's linearization
            // window from the linearization alone (lint RS-W007),
            // without reusing atomic_windows' search.
            let lin_events = spec::lin_events(&report.lin);
            for failure in
                rsim_smr::analyze::check_block_update_windows(&lin_events)
            {
                failures.push(format!("{placement}: hb window check: {failure}"));
            }
            let expected_scans = match placement.action {
                FaultAction::Crash => f - 1,
                FaultAction::Stall => f,
            };
            if report.scans != expected_scans {
                failures.push(format!(
                    "{placement}: {} of {expected_scans} expected Scans \
                     completed",
                    report.scans
                ));
            }
            failures
        }
    }
}

/// Certifies the augmented snapshot under every single-fault placement
/// of [`single_fault_placements`]. Crash placements expect `f - 1`
/// survivor Scans; stall placements expect all `f` (the victim's own
/// Scan runs after it resumes).
pub fn certify_block_update_faults(f: usize, m: usize) -> FaultCertifyReport {
    let placements = single_fault_placements(f);
    let mut failures = Vec::new();
    for &placement in &placements {
        for failure in check_fault_placement(f, m, placement) {
            failures.push((placement, failure));
        }
    }
    FaultCertifyReport { f, m, placements, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LinOp;

    #[test]
    fn placement_space_is_exhaustive_and_victim_major() {
        let placements = single_fault_placements(3);
        assert_eq!(placements.len(), 3 * BLOCK_UPDATE_STEPS * 2);
        let crash = |victim, after_steps| Placement {
            victim,
            after_steps,
            action: FaultAction::Crash,
        };
        assert_eq!(placements[0], crash(0, 0));
        assert_eq!(placements[2 * BLOCK_UPDATE_STEPS], crash(1, 0));
        // Victim-major, then step order.
        let mut sorted = placements.clone();
        sorted.sort_by_key(|p| (p.victim, p.after_steps));
        assert_eq!(placements, sorted);
    }

    #[test]
    fn all_single_crash_placements_certify_for_small_systems() {
        for f in 1..=3 {
            for m in 1..=3 {
                let crashes: Vec<Placement> = single_fault_placements(f)
                    .into_iter()
                    .filter(|p| p.action == FaultAction::Crash)
                    .collect();
                assert_eq!(crashes.len(), f * BLOCK_UPDATE_STEPS);
                let failures: Vec<String> = crashes
                    .iter()
                    .flat_map(|&p| check_fault_placement(f, m, p))
                    .collect();
                assert!(failures.is_empty(), "f={f} m={m} failures: {failures:?}");
            }
        }
    }

    #[test]
    fn fault_placement_space_doubles_the_crash_sweep() {
        // Every (victim, step) coordinate is tried as a crash, then as
        // a stall.
        let placements = single_fault_placements(2);
        assert_eq!(placements.len(), 2 * BLOCK_UPDATE_STEPS * 2);
        for pair in placements.chunks(2) {
            assert_eq!(pair[0].action, FaultAction::Crash);
            assert_eq!(pair[1].action, FaultAction::Stall);
            assert_eq!(
                (pair[0].victim, pair[0].after_steps),
                (pair[1].victim, pair[1].after_steps)
            );
        }
    }

    #[test]
    fn all_single_fault_placements_certify_for_small_systems() {
        for f in 1..=3 {
            for m in 1..=3 {
                let report = certify_block_update_faults(f, m);
                assert!(
                    report.is_certified(),
                    "f={f} m={m} failures: {:?}",
                    report.failures
                );
                assert_eq!(report.placements.len(), f * BLOCK_UPDATE_STEPS * 2);
            }
        }
    }

    #[test]
    fn stalled_victim_completes_and_its_batch_linearizes_atomically() {
        // A stall is survivable: once the window closes the victim's
        // Block-Update runs to completion, so unlike a crash its batch
        // linearizes as a *completed* operation.
        let placement =
            Placement { victim: 0, after_steps: 2, action: FaultAction::Stall };
        let real = run_fault_placement(2, 2, placement).expect("all complete");
        let lin = spec::linearize(&real);
        let victim_update = lin
            .iter()
            .find(|op| matches!(op, LinOp::Update { pid: 0, .. }))
            .expect("resumed victim's update linearizes");
        if let LinOp::Update { op_index, .. } = victim_update {
            assert!(
                op_index.is_some(),
                "a resumed Block-Update completes, so it carries its op index"
            );
        }
    }

    #[test]
    fn late_crash_leaves_a_non_atomic_batch_in_the_linearization() {
        // Crashing after step 5 means the victim already appended its
        // triples to H (its second H-step, Algorithm 4's update); §3.3
        // linearizes them as a non-atomic batch even though the
        // operation never completed.
        let placement =
            Placement { victim: 0, after_steps: 5, action: FaultAction::Crash };
        let real = run_fault_placement(2, 2, placement).expect("survivors complete");
        let lin = spec::linearize(&real);
        let victim_update = lin.iter().find(|op| {
            matches!(op, LinOp::Update { pid: 0, op_index: None, .. })
        });
        let update = victim_update.expect("victim's partial batch linearizes");
        if let LinOp::Update { atomic, .. } = update {
            assert!(!atomic, "an incomplete Block-Update is never atomic");
        }
    }

    #[test]
    fn early_crash_leaves_no_trace_of_the_victim() {
        // A Block-Update appends its triples at its second H-step;
        // crashing after one step means the victim appended nothing,
        // so its batch must not linearize at all.
        let placement =
            Placement { victim: 1, after_steps: 1, action: FaultAction::Crash };
        let real = run_fault_placement(3, 2, placement).expect("survivors complete");
        let lin = spec::linearize(&real);
        assert!(
            !lin.iter().any(|op| matches!(op, LinOp::Update { pid: 1, .. })),
            "victim appended nothing, yet its update linearized"
        );
    }

    #[test]
    fn hb_checker_confirms_windows_on_certified_placements() {
        // E12's acceptance cross-check: on every certified fault
        // placement, the happens-before analyzer independently
        // confirms that each atomic Block-Update's updates form a
        // contiguous linearization window (RS-W007 never fires).
        for &placement in &single_fault_placements(3) {
            let Ok(real) = run_fault_placement(3, 2, placement) else {
                panic!("{placement}: placement did not complete")
            };
            let report = spec::check(&real, 2);
            assert!(report.errors.is_empty(), "{placement}: {:?}", report.errors);
            let events = spec::lin_events(&report.lin);
            let failures = rsim_smr::analyze::check_block_update_windows(&events);
            assert!(failures.is_empty(), "{placement}: {failures:?}");
        }
    }

    #[test]
    fn hb_checker_rejects_a_torn_window() {
        // A genuine two-component Block-Update linearizes as a
        // two-update atomic batch; corrupting the linearization by
        // pushing a scan inside that window must trip the independent
        // checker (the fault-sweep placements all write singleton
        // batches, which no corruption can tear).
        use rsim_smr::analyze::LinEvent;
        use rsim_smr::process::ProcessId;
        let mut real = RealSystem::new(2, 2);
        real.begin(
            0,
            AugOp::BlockUpdate {
                components: vec![0, 1],
                values: vec![Value::Int(1), Value::Int(2)],
            },
        );
        round_robin(&mut real, 2, |_| true).expect("block-update completes");
        real.begin(1, AugOp::Scan);
        round_robin(&mut real, 2, |_| true).expect("scan completes");
        let report = spec::check(&real, 2);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let mut events = spec::lin_events(&report.lin);
        assert!(
            rsim_smr::analyze::check_block_update_windows(&events).is_empty(),
            "honest linearization must certify"
        );
        let second_update = events
            .iter()
            .rposition(|e| matches!(e, LinEvent::Update { atomic: true, .. }))
            .expect("two-component batch linearizes atomically");
        assert!(second_update > 0, "batch has two updates");
        events.insert(second_update, LinEvent::Scan { pid: ProcessId(1), time: 99 });
        let failures = rsim_smr::analyze::check_block_update_windows(&events);
        assert!(!failures.is_empty(), "torn window went unnoticed");
    }

    #[test]
    fn a_blocked_survivor_is_reported_not_looped_on() {
        // `live` that freezes every process after the victim makes the
        // budget trip; the report must name the stuck process.
        let mut real = RealSystem::new(2, 2);
        real.begin(
            0,
            AugOp::BlockUpdate { components: vec![0], values: vec![Value::Int(1)] },
        );
        let stuck = round_robin(&mut real, 2, |_| false);
        assert_eq!(stuck, Ok(()), "frozen processes make no progress and exit");
    }
}
