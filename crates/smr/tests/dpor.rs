//! The DPOR differential gate.
//!
//! Partial-order reduction must never change what an exploration
//! *finds* — only how many redundant forks it pays for. These tests
//! run DPOR-on and DPOR-off explorations over a large corpus of
//! generated protocols and assert the reports agree on every
//! observable: configurations visited, terminals, truncation, and the
//! canonical violation. The parallel engine is the subject (it is what
//! the `explore` CLI drives); depth-bounded levels make the comparison
//! exact, because the frontier advances one schedule step per level on
//! both sides, so a depth bound cuts whole levels identically with the
//! reduction on or off. (A `max_configs` cap, by contrast, cuts
//! mid-level in visit order and is legitimately order-dependent — the
//! unreduced comparison is only meaningful without it.)
//!
//! Protocol-family fixtures (racing/contrarian/ladder) get the same
//! treatment in the workspace-level `tests/parallel_determinism.rs`.

use rsim_smr::explore::{Explorer, ExploreReport, Limits};
use rsim_smr::gen::{fuzz::consensus_check, GenSpec};
use rsim_smr::system::System;

/// Limits for the generated corpus: depth-bounded, effectively
/// config-unbounded (see module docs for why that combination is the
/// sound one for on/off comparison).
const LIMITS: Limits = Limits { max_depth: 9, max_configs: 5_000_000 };

fn assert_equivalent(on: &ExploreReport, off: &ExploreReport, label: &str) {
    assert!(on.dpor, "{label}: reduction not active");
    assert!(!off.dpor, "{label}: escape hatch not recorded");
    assert_eq!(off.pruned, 0, "{label}: unreduced run reported pruning");
    assert_eq!(on.configs_visited, off.configs_visited, "{label}: configs_visited");
    assert_eq!(on.terminals, off.terminals, "{label}: terminals");
    assert_eq!(on.truncated, off.truncated, "{label}: truncated");
    assert_eq!(on.violation, off.violation, "{label}: violation");
}

fn explore(sys: &System, dpor: bool, threads: usize, check: &(dyn Fn(&System) -> Option<String> + Sync)) -> ExploreReport {
    Explorer::new(LIMITS)
        .with_threads(threads)
        .with_dpor(dpor)
        .explore_parallel(sys, check)
        .unwrap()
}

/// The headline gate: ≥256 generated protocols, DPOR on vs off, at 1
/// and 4 worker threads — identical verdicts and identical violation
/// sets everywhere, with real pruning observed across the corpus.
#[test]
fn differential_gate_over_generated_protocols() {
    let mut total_pruned = 0usize;
    let mut total_visited = 0usize;
    for seed in 0..256u64 {
        let spec = GenSpec::from_seed(seed);
        let sys = spec.build_system();
        let check = consensus_check(spec.inputs());
        let baseline = explore(&sys, true, 1, &check);
        for threads in [1usize, 4] {
            let on = explore(&sys, true, threads, &check);
            let off = explore(&sys, false, threads, &check);
            assert_equivalent(&on, &off, &format!("gen:{seed} threads={threads}"));
            // DPOR-on reports are additionally bit-identical across
            // thread counts, pruned tally included.
            assert_eq!(on.configs_visited, baseline.configs_visited, "gen:{seed}");
            assert_eq!(on.pruned, baseline.pruned, "gen:{seed} threads={threads}");
            assert_eq!(on.violation, baseline.violation, "gen:{seed}");
        }
        total_pruned += baseline.pruned;
        total_visited += baseline.configs_visited;
    }
    assert!(
        total_pruned > 0,
        "no pruning anywhere in a 256-protocol corpus"
    );
    // The corpus-wide reduction should be substantial, not incidental.
    let factor = (total_visited + total_pruned) as f64 / total_visited as f64;
    assert!(factor > 1.05, "corpus reduction factor only {factor:.3}");
}

/// A violating check (any single process having decided) fires on
/// interior configurations: the canonical violation schedule must be
/// the same with the reduction on or off.
#[test]
fn canonical_violation_is_reduction_invariant() {
    use rsim_smr::process::ProcessId;
    for seed in [3u64, 17, 42, 101, 255] {
        let spec = GenSpec::from_seed(seed);
        let sys = spec.build_system();
        let check = |sys: &System| -> Option<String> {
            sys.output(ProcessId(0)).map(|v| format!("p0 decided {v}"))
        };
        for threads in [1usize, 4] {
            let on = explore(&sys, true, threads, &check);
            let off = explore(&sys, false, threads, &check);
            assert_equivalent(&on, &off, &format!("gen:{seed} threads={threads}"));
        }
    }
}

/// Single-threaded on/off gate on exhausted explorations: the visited
/// set, terminal count, and verdict must agree exactly. The full
/// generated protocols are obstruction-free (adversarial schedules
/// run unboundedly, so no finite limits avoid truncation); the
/// wait-free *scripted* variant of each spec terminates, giving a
/// finite state space the explorer exhausts completely.
#[test]
fn sequential_gate_on_scripted_protocols() {
    use rsim_smr::object::{Object, ObjectId};
    use rsim_smr::process::{Process, SnapshotProcess};

    let limits = Limits { max_depth: 64, max_configs: 5_000_000 };
    let mut total_pruned = 0usize;
    for seed in 0..64u64 {
        let spec = GenSpec::from_seed(seed);
        let m = spec.total_components();
        let processes: Vec<Box<dyn Process>> = (0..spec.build_system().process_count())
            .map(|i| {
                Box::new(SnapshotProcess::new(
                    spec.script_protocol(i, m, i as i64 + 1),
                    ObjectId(0),
                )) as Box<dyn Process>
            })
            .collect();
        let sys = rsim_smr::system::System::new(vec![Object::snapshot(m)], processes);
        let on = Explorer::new(limits).explore_parallel(&sys, &|_| None).unwrap();
        let off = Explorer::new(limits)
            .with_dpor(false)
            .explore_parallel(&sys, &|_| None)
            .unwrap();
        assert!(!on.truncated && !off.truncated, "gen:{seed}: truncated");
        assert_eq!(on.configs_visited, off.configs_visited, "gen:{seed}");
        assert_eq!(on.terminals, off.terminals, "gen:{seed}");
        assert_eq!(on.violation, off.violation, "gen:{seed}");
        assert_eq!(off.pruned, 0, "gen:{seed}");
        total_pruned += on.pruned;
    }
    assert!(total_pruned > 0, "no pruning across the scripted corpus");
}
