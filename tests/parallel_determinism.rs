//! Determinism regression tests for the parallel exploration engine
//! and the campaign runner: every report field must be bit-for-bit
//! identical at 1, 2, and N worker threads.

use revisionist_simulations::protocols::contrarian::contrarian_system;
use revisionist_simulations::protocols::racing::racing_system;
use revisionist_simulations::smr::campaign::{
    run_campaign, CampaignConfig, SchedulerSpec,
};
use revisionist_simulations::smr::explore::{Explorer, ExploreReport, Limits};
use revisionist_simulations::smr::process::ProcessId;
use revisionist_simulations::smr::system::System;
use revisionist_simulations::smr::value::Value;

fn racing3() -> System {
    racing_system(2, &[Value::Int(1), Value::Int(2), Value::Int(3)])
}

fn assert_same_report(a: &ExploreReport, b: &ExploreReport, label: &str) {
    assert_eq!(a.configs_visited, b.configs_visited, "{label}: configs_visited");
    assert_eq!(a.terminals, b.terminals, "{label}: terminals");
    assert_eq!(a.truncated, b.truncated, "{label}: truncated");
    assert_eq!(a.violation, b.violation, "{label}: violation");
    assert_eq!(a.pruned, b.pruned, "{label}: pruned");
    assert_eq!(a.dpor, b.dpor, "{label}: dpor");
}

#[test]
fn explorer_reports_identical_across_thread_counts() {
    // The acceptance scenario: a racing 3-process system explored to
    // depth 64 must produce identical report fields at 1 and N threads.
    // The state space exceeds the config budget, so deterministic
    // truncation is exercised too.
    let limits = Limits { max_depth: 64, max_configs: 20_000 };
    let base = Explorer::new(limits)
        .with_threads(1)
        .explore_parallel(&racing3(), &|_| None)
        .unwrap();
    assert!(base.configs_visited > 100, "non-trivial state space");
    assert!(base.terminals > 0);
    for threads in [2, 4, 0] {
        let report = Explorer::new(limits)
            .with_threads(threads)
            .explore_parallel(&racing3(), &|_| None)
            .unwrap();
        assert_same_report(&base, &report, &format!("threads={threads}"));
    }
}

#[test]
fn explorer_violation_schedule_is_canonical_across_thread_counts() {
    // Flag any configuration where process 2 has terminated; many
    // schedules reach one, so the reported (canonically first) schedule
    // is a real tie-break test across thread counts.
    let limits = Limits { max_depth: 64, max_configs: 20_000 };
    let check = |sys: &System| {
        sys.output(ProcessId(2)).map(|v| format!("p2 decided {v}"))
    };
    let base = Explorer::new(limits)
        .with_threads(1)
        .explore_parallel(&racing3(), &check)
        .unwrap();
    let (schedule, _) = base.violation.clone().expect("p2 can decide");
    assert!(!schedule.is_empty());
    for threads in [2, 4, 0] {
        let report = Explorer::new(limits)
            .with_threads(threads)
            .explore_parallel(&racing3(), &check)
            .unwrap();
        assert_same_report(&base, &report, &format!("threads={threads}"));
    }
}

#[test]
fn violation_outcomes_identical_across_thread_counts_for_many_checks() {
    // A battery of violation predicates with different terminal shapes:
    // early hits, late hits, and checks that fire on interior
    // configurations. Terminals, visited counts, truncation, and the
    // canonical violation must agree at every thread count.
    let limits = Limits { max_depth: 64, max_configs: 20_000 };
    type Check = Box<dyn Fn(&System) -> Option<String> + Sync>;
    let checks: Vec<(&str, Check)> = vec![
        (
            "p0-decided-1-terminal",
            Box::new(|sys: &System| {
                (sys.all_terminated() && sys.output(ProcessId(0)) == Some(Value::Int(1)))
                    .then(|| "v".into())
            }),
        ),
        (
            "p2-decided-any",
            Box::new(|sys: &System| sys.output(ProcessId(2)).map(|_| "v".into())),
        ),
        (
            "p0-decided-any",
            Box::new(|sys: &System| sys.output(ProcessId(0)).map(|_| "v".into())),
        ),
        (
            "p1-decided-2",
            Box::new(|sys: &System| {
                (sys.output(ProcessId(1)) == Some(Value::Int(2))).then(|| "v".into())
            }),
        ),
        (
            "any-terminal",
            Box::new(|sys: &System| sys.all_terminated().then(|| "v".into())),
        ),
    ];
    for (name, check) in &checks {
        let base = Explorer::new(limits)
            .with_threads(1)
            .explore_parallel(&racing3(), &**check)
            .unwrap();
        for threads in [2, 3, 8, 32] {
            let report = Explorer::new(limits)
                .with_threads(threads)
                .explore_parallel(&racing3(), &**check)
                .unwrap();
            assert_same_report(&base, &report, &format!("{name} threads={threads}"));
        }
    }
}

#[test]
fn dpor_on_off_reports_identical_over_protocol_families() {
    // The parallel differential gate over the named protocol families:
    // with a depth bound and no config cap, the frontier advances one
    // schedule step per level on both sides, so partial-order reduction
    // must not change any observable report field — it only changes how
    // many redundant forks were paid for (the `pruned` tally).
    use revisionist_simulations::protocols::ladder::ladder_system;
    let limits = Limits { max_depth: 10, max_configs: 5_000_000 };
    let systems: Vec<(&str, System)> = vec![
        ("racing", racing3()),
        ("contrarian", contrarian_system(&[true, false, true])),
        ("ladder", ladder_system(&[Value::Int(1), Value::Int(2)], 2)),
    ];
    let mut total_pruned = 0usize;
    for (name, sys) in &systems {
        let base = Explorer::new(limits)
            .with_threads(1)
            .explore_parallel(sys, &|_| None)
            .unwrap();
        for threads in [1usize, 4] {
            let on = Explorer::new(limits)
                .with_threads(threads)
                .explore_parallel(sys, &|_| None)
                .unwrap();
            let off = Explorer::new(limits)
                .with_threads(threads)
                .with_dpor(false)
                .explore_parallel(sys, &|_| None)
                .unwrap();
            assert!(on.dpor, "{name}: reduction should be on by default");
            assert!(!off.dpor, "{name}: escape hatch not recorded");
            assert_eq!(off.pruned, 0, "{name}: unreduced run reported pruning");
            assert_eq!(on.configs_visited, off.configs_visited, "{name} threads={threads}");
            assert_eq!(on.terminals, off.terminals, "{name} threads={threads}");
            assert_eq!(on.truncated, off.truncated, "{name} threads={threads}");
            assert_eq!(on.violation, off.violation, "{name} threads={threads}");
            // DPOR-on runs are bit-identical across thread counts,
            // pruned tally included.
            assert_same_report(&base, &on, &format!("{name} threads={threads}"));
        }
        total_pruned += base.pruned;
    }
    assert!(total_pruned > 0, "no pruning across the protocol families");
}

#[test]
fn racing6_counts_are_pinned_across_thread_counts() {
    // The explore-racing6 benchmark workload: six racing processes on
    // two registers, cut at depth 7 before any process can decide.
    let inputs: Vec<Value> = (1..=6).map(Value::Int).collect();
    let sys = racing_system(2, &inputs);
    let limits = Limits { max_depth: 7, max_configs: 8_000_000 };
    for threads in [1, 2] {
        let report = Explorer::new(limits)
            .with_threads(threads)
            .explore_parallel(&sys, &|_| None)
            .unwrap();
        assert_eq!(report.configs_visited, 29_689, "threads={threads}");
        assert_eq!(report.terminals, 0, "threads={threads}");
        assert_eq!(report.pruned, 36_080, "threads={threads}");
        assert!(report.truncated, "threads={threads}");
        assert!(report.violation.is_none(), "threads={threads}");
    }
}

#[test]
fn config_budget_counts_alike_sequential_and_parallel() {
    // A run cut by `max_configs` reports exactly that many visited
    // configurations in both modes.
    for max_configs in [1, 10, 1_000] {
        let limits = Limits { max_depth: 64, max_configs };
        let seq = Explorer::new(limits).explore(&racing3(), &mut |_| None).unwrap();
        let par = Explorer::new(limits)
            .with_threads(2)
            .explore_parallel(&racing3(), &|_| None)
            .unwrap();
        for (mode, report) in [("sequential", &seq), ("parallel", &par)] {
            assert!(report.truncated, "{mode} max_configs={max_configs}");
            assert_eq!(report.configs_visited, max_configs, "{mode} max_configs={max_configs}");
        }
    }
}

#[test]
fn solo_termination_check_identical_across_thread_counts() {
    let limits = Limits { max_depth: 8, max_configs: 5_000 };
    let base = Explorer::new(limits)
        .with_threads(1)
        .check_solo_termination_parallel(&racing3(), 60)
        .unwrap();
    let seq = Explorer::new(limits).check_solo_termination(&racing3(), 60).unwrap();
    assert_eq!(base.is_clean(), seq.is_clean());
    for threads in [3, 0] {
        let report = Explorer::new(limits)
            .with_threads(threads)
            .check_solo_termination_parallel(&racing3(), 60)
            .unwrap();
        assert_same_report(&base, &report, &format!("threads={threads}"));
    }
}

#[test]
fn fixed_seed_campaign_identical_across_thread_counts() {
    let mk = |threads: usize| CampaignConfig {
        schedulers: vec![
            SchedulerSpec::RoundRobin,
            SchedulerSpec::Random,
            SchedulerSpec::Obstruction { x: 1, chaos_steps: 16, burst_len: 32 },
            SchedulerSpec::Crash { max_crashes: 1, probability: 0.1 },
        ],
        seed_start: 3,
        runs: 30,
        budget: 1_500,
        threads,
    };
    let factory = |seed: u64| {
        let bits: Vec<bool> = (0..3).map(|i| (seed >> i) & 1 == 1).collect();
        contrarian_system(&bits)
    };
    let base = run_campaign(&mk(1), factory, &|_| None);
    for threads in [2, 8, 0] {
        let report = run_campaign(&mk(threads), factory, &|_| None);
        assert_eq!(report.total_runs, base.total_runs, "threads={threads}");
        assert_eq!(report.terminated_runs, base.terminated_runs);
        assert_eq!(report.distinct_configs, base.distinct_configs);
        assert_eq!(report.total_steps, base.total_steps);
        assert_eq!(report.total_pruned, base.total_pruned, "threads={threads}");
        assert_eq!(report.failures.len(), base.failures.len());
        for (a, b) in report.failures.iter().zip(&base.failures) {
            assert_eq!(a.scheduler, b.scheduler);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.violation, b.violation);
        }
        for (a, b) in report.per_scheduler.iter().zip(&base.per_scheduler) {
            assert_eq!(a.runs, b.runs);
            assert_eq!(a.terminated, b.terminated);
            assert_eq!(a.failures, b.failures);
            assert_eq!(a.total_steps, b.total_steps);
            assert_eq!(a.pruned, b.pruned);
        }
    }
}
