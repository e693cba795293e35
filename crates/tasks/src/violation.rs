//! Violation search: concrete counterexamples for concrete protocols.
//!
//! The known impossibility results (FLP, wait-free k-set agreement) say
//! that *every* protocol in a class fails somewhere. For any *specific*
//! protocol — e.g. one extracted by the revisionist simulation from an
//! under-provisioned Π — we can search for its failure directly:
//!
//! * [`search_exhaustive`] — bounded model checking over all schedules,
//!   validating the (partial) output set at every configuration.
//! * [`search_random`] — many random schedules, validating terminal
//!   outputs; scales to systems too large to explore.
//! * [`check_wait_freedom`] — looks for a schedule under which some
//!   process takes more than a budget of steps without terminating.

use crate::task::{ColorlessTask, TaskViolation};
use rsim_smr::error::ModelError;
use rsim_smr::explore::{Explorer, Limits};
use rsim_smr::process::ProcessId;
use rsim_smr::sched::{Random, Scheduler};
use rsim_smr::system::System;
use rsim_smr::value::Value;

/// A concrete counterexample found by the search.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A reachable configuration whose outputs violate the task.
    Task {
        /// The violated clause.
        violation: TaskViolation,
        /// The schedule that reaches the violating configuration (empty
        /// for randomized search, which reports the seed instead).
        schedule: Vec<ProcessId>,
        /// Seed of the randomized schedule, if randomized.
        seed: Option<u64>,
    },
    /// A process ran `steps` steps without terminating — evidence
    /// against wait-freedom.
    NonTermination {
        /// The starving process.
        pid: ProcessId,
        /// Steps it took without outputting.
        steps: usize,
        /// Seed of the randomized schedule, if randomized.
        seed: Option<u64>,
    },
}

fn partial_outputs(sys: &System) -> Vec<Value> {
    sys.outputs().into_iter().flatten().collect()
}

/// Exhaustively searches all schedules (within `limits`) for a reachable
/// configuration whose output set violates `task` given `inputs`.
/// Because colorless tasks are subset-closed, validating *partial*
/// output sets is sound: a bad partial set can never become good.
///
/// The search is breadth-first ([`Explorer::explore_parallel`]), so it
/// covers every configuration reachable within `limits.max_depth`
/// steps (unless `limits.max_configs` cuts it short), and the witness
/// it returns is canonical: a shortest violating schedule, and the
/// lexicographically least (by process id) among those.
///
/// # Errors
///
/// Propagates runtime errors from stepping the system. The explorer's
/// mandatory pre-flight lint runs first, so an ill-formed protocol is
/// rejected up front with [`ModelError::PreflightRejected`] (carrying
/// its `RS-Wxxx` diagnostics) rather than burning the search budget;
/// build the explorer directly with
/// [`Explorer::with_preflight`]`(false)` to study such a protocol
/// anyway.
pub fn search_exhaustive(
    initial: &System,
    inputs: &[Value],
    task: &dyn ColorlessTask,
    limits: Limits,
) -> Result<Option<Violation>, ModelError> {
    let explorer = Explorer::new(limits);
    let report = explorer.explore_parallel(initial, &|sys| {
        let outs = partial_outputs(sys);
        task.validate(inputs, &outs).err().map(|v| v.reason)
    })?;
    Ok(report.violation.map(|(schedule, msg)| Violation::Task {
        violation: TaskViolation { task: task.name(), reason: msg },
        schedule,
        seed: None,
    }))
}

/// Runs `schedules` random executions (seeds `seed..seed+schedules`) of
/// fresh copies produced by `factory`, validating outputs at every step.
/// Returns the first violation found.
pub fn search_random(
    factory: &dyn Fn() -> System,
    inputs: &[Value],
    task: &dyn ColorlessTask,
    schedules: u64,
    max_steps: usize,
    seed: u64,
) -> Option<Violation> {
    for s in seed..seed + schedules {
        let mut sys = factory();
        let mut sched = Random::seeded(s);
        for _ in 0..max_steps {
            if sys.all_terminated() {
                break;
            }
            let Some(pid) = sched.next(&sys) else { break };
            if sys.is_terminated(pid) {
                continue;
            }
            if sys.step(pid).is_err() {
                break;
            }
            let outs = partial_outputs(&sys);
            if let Err(violation) = task.validate(inputs, &outs) {
                return Some(Violation::Task {
                    violation,
                    schedule: sys.trace().iter().map(|e| e.pid).collect(),
                    seed: Some(s),
                });
            }
        }
    }
    None
}

/// Searches for a wait-freedom violation: a random schedule under which
/// some process takes more than `per_process_budget` steps without
/// terminating. Starvation-prone protocols (e.g. obstruction-free but
/// not wait-free ones) fail this quickly under a contending scheduler.
pub fn check_wait_freedom(
    factory: &dyn Fn() -> System,
    schedules: u64,
    per_process_budget: usize,
    seed: u64,
) -> Option<Violation> {
    for s in seed..seed + schedules {
        let mut sys = factory();
        let n = sys.process_count();
        let mut counts = vec![0usize; n];
        let mut sched = Random::seeded(s);
        loop {
            if sys.all_terminated() {
                break;
            }
            let Some(pid) = sched.next(&sys) else { break };
            if sys.is_terminated(pid) {
                continue;
            }
            if sys.step(pid).is_err() {
                break;
            }
            counts[pid.0] += 1;
            if counts[pid.0] > per_process_budget {
                return Some(Violation::NonTermination {
                    pid,
                    steps: counts[pid.0],
                    seed: Some(s),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreement::consensus;
    use rsim_smr::object::{Object, ObjectId};
    use rsim_smr::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};

    /// A broken "consensus": write input, scan, output what you see —
    /// disagrees whenever writes interleave.
    #[derive(Clone, Debug)]
    struct Naive {
        input: i64,
        wrote: bool,
    }

    impl SnapshotProtocol for Naive {
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

    fn naive_system() -> System {
        let mk = |input| {
            Box::new(SnapshotProcess::new(Naive { input, wrote: false }, ObjectId(0)))
                as Box<dyn Process>
        };
        System::new(vec![Object::snapshot(1)], vec![mk(1), mk(2)])
    }

    #[test]
    fn exhaustive_search_finds_disagreement() {
        let inputs = [Value::Int(1), Value::Int(2)];
        let v = search_exhaustive(
            &naive_system(),
            &inputs,
            &consensus(),
            Limits::default(),
        )
        .unwrap();
        match v {
            Some(Violation::Task { schedule, .. }) => assert!(!schedule.is_empty()),
            other => panic!("expected a task violation, got {other:?}"),
        }
    }

    #[test]
    fn random_search_finds_disagreement() {
        let inputs = [Value::Int(1), Value::Int(2)];
        let v = search_random(&naive_system, &inputs, &consensus(), 50, 100, 0);
        assert!(v.is_some());
    }

    #[test]
    fn no_violation_with_equal_inputs() {
        let mk = |input| {
            Box::new(SnapshotProcess::new(Naive { input, wrote: false }, ObjectId(0)))
                as Box<dyn Process>
        };
        let factory = move || {
            System::new(vec![Object::snapshot(1)], vec![mk(7), mk(7)])
        };
        let inputs = [Value::Int(7), Value::Int(7)];
        assert!(search_random(&factory, &inputs, &consensus(), 50, 100, 0).is_none());
        assert!(search_exhaustive(
            &factory(),
            &inputs,
            &consensus(),
            Limits::default()
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn wait_freedom_holds_for_bounded_protocol() {
        assert!(check_wait_freedom(&naive_system, 20, 10, 0).is_none());
    }

    #[test]
    fn wait_freedom_violated_by_spinner() {
        #[derive(Clone, Debug)]
        struct Spinner {
            i: i64,
        }
        impl SnapshotProtocol for Spinner {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                self.i += 1;
                ProtocolStep::Update(0, Value::Int(self.i))
            }
            fn components(&self) -> usize {
                1
            }
        }
        let factory = || {
            System::new(
                vec![Object::snapshot(1)],
                vec![Box::new(SnapshotProcess::new(Spinner { i: 0 }, ObjectId(0)))
                    as Box<dyn Process>],
            )
        };
        let v = check_wait_freedom(&factory, 1, 50, 0);
        assert!(matches!(v, Some(Violation::NonTermination { .. })));
    }
}
