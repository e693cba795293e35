//! Property-based tests for the ddmin counterexample shrinker: over
//! arbitrary decision sequences (and arbitrary planted fault plans),
//! shrinking must preserve the violation fingerprint, never grow the
//! counterexample, and be idempotent — a second pass removes nothing.
//! Its memo of verdicts must keep the replays within the candidates
//! `candidates_tried` counts.

use proptest::prelude::*;
use std::cell::Cell;
use rsim_smr::fault::FaultPlan;
use rsim_smr::object::{Object, ObjectId};
use rsim_smr::process::{
    Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol,
};
use rsim_smr::shrink::{execute, shrink, Counterexample};
use rsim_smr::system::System;
use rsim_smr::value::Value;

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

proptest! {
    #[test]
    fn shrinking_preserves_the_fingerprint_and_never_grows(
        raw in proptest::collection::vec(0usize..2, 0..14),
    ) {
        let cex = Counterexample::faultless(
            raw.iter().map(|&p| ProcessId(p)).collect(),
        );
        let factory = two_writers;
        let before = execute(&factory, &cex, &p0_read_two);
        let (shrunk, report) = shrink(&cex, &factory, &p0_read_two);
        prop_assert!(
            shrunk.size() <= cex.size(),
            "shrinker grew {} -> {}", cex.size(), shrunk.size()
        );
        let after = execute(&factory, &shrunk, &p0_read_two);
        match before.fingerprint() {
            Some(target) => {
                // Violating inputs keep their exact fingerprint.
                prop_assert_eq!(report.fingerprint, Some(target));
                prop_assert_eq!(after.fingerprint(), Some(target));
            }
            None => {
                // Non-violating inputs are returned unchanged.
                prop_assert_eq!(&shrunk, &cex);
                prop_assert_eq!(report.fingerprint, None);
            }
        }
    }

    #[test]
    fn shrinking_is_idempotent_on_arbitrary_schedules(
        raw in proptest::collection::vec(0usize..2, 0..14),
    ) {
        let cex = Counterexample::faultless(
            raw.iter().map(|&p| ProcessId(p)).collect(),
        );
        let factory = two_writers;
        let (once, _) = shrink(&cex, &factory, &p0_read_two);
        let (twice, report) = shrink(&once, &factory, &p0_read_two);
        prop_assert_eq!(&twice, &once, "second pass removed something");
        prop_assert_eq!(report.original_decisions, report.shrunk_decisions);
        prop_assert_eq!(report.original_faults, report.shrunk_faults);
    }

    #[test]
    fn replays_stay_within_the_candidates_considered(
        raw in proptest::collection::vec(0usize..2, 0..14),
        victim in 0usize..2,
        step in 0usize..6,
    ) {
        // A factory that counts its calls counts the replays: the
        // input's own, then one per candidate the memo could not
        // answer. Shrinking twice gives the same result and report.
        let plan = FaultPlan::parse(&format!("crash@{victim}:{step}")).unwrap();
        let cex = Counterexample {
            decisions: raw.iter().map(|&p| ProcessId(p)).collect(),
            plan,
        };
        let calls = Cell::new(0usize);
        let factory = || {
            calls.set(calls.get() + 1);
            two_writers()
        };
        let (shrunk, report) = shrink(&cex, &factory, &p0_read_two);
        prop_assert!(
            calls.get() <= report.candidates_tried + 1,
            "{} replays for {} candidates", calls.get(), report.candidates_tried
        );
        prop_assert_eq!(shrink(&cex, &two_writers, &p0_read_two), (shrunk, report));
    }

    #[test]
    fn planted_faults_shrink_jointly_with_decisions(
        raw in proptest::collection::vec(0usize..2, 0..12),
        victim in 0usize..2,
        step in 0usize..6,
    ) {
        // A planted crash composes with an arbitrary schedule; the
        // joint shrink must stay a violation (when one exists) and
        // never grow on either axis.
        let plan = FaultPlan::parse(&format!("crash@{victim}:{step}")).unwrap();
        let cex = Counterexample {
            decisions: raw.iter().map(|&p| ProcessId(p)).collect(),
            plan,
        };
        let factory = two_writers;
        let before = execute(&factory, &cex, &p0_read_two);
        let (shrunk, report) = shrink(&cex, &factory, &p0_read_two);
        prop_assert!(shrunk.decisions.len() <= cex.decisions.len());
        prop_assert!(shrunk.plan.faults.len() <= cex.plan.faults.len());
        if let Some(target) = before.fingerprint() {
            let after = execute(&factory, &shrunk, &p0_read_two);
            prop_assert_eq!(after.fingerprint(), Some(target));
            prop_assert_eq!(report.fingerprint, Some(target));
        }
    }
}
