//! End-to-end fault-injection acceptance tests: the exhaustive
//! crash-placement certification, structured worker-panic reports with
//! replay coordinates, and checkpoint/resume equivalence.

use revisionist_simulations::protocols::racing::racing_system;
use revisionist_simulations::smr::campaign::{
    run_campaign, run_campaign_with, run_fault_campaign, run_fault_records,
    CampaignCheckpoint, CampaignConfig, CampaignOptions, SchedulerSpec,
};
use revisionist_simulations::smr::fault::{FaultPlan, FaultScheduler};
use revisionist_simulations::smr::process::ProcessId;
use revisionist_simulations::smr::system::System;
use revisionist_simulations::smr::value::Value;
use revisionist_simulations::snapshot::certify;

fn racing3() -> System {
    racing_system(2, &[Value::Int(1), Value::Int(2), Value::Int(3)])
}

fn no_check(_: &System, _: &[ProcessId]) -> Option<String> {
    None
}

#[test]
fn exhaustive_single_crash_campaign_certifies_nonblocking_progress() {
    // Every single-crash placement (victim × step 0..=5) over the
    // 3-process racing system, under two base schedulers: survivors
    // must always terminate within budget.
    for base in [SchedulerSpec::RoundRobin, SchedulerSpec::Random] {
        let config = CampaignConfig {
            schedulers: vec![base],
            seed_start: 0,
            runs: 4,
            budget: 4_000,
            threads: 0,
        };
        let plans = FaultPlan::single_crash_plans(3, 5);
        let report = run_fault_campaign(&config, &plans, racing3_by_seed, &no_check);
        assert_eq!(report.plans, 18);
        assert_eq!(report.total_runs, 72);
        assert!(
            report.is_certified(),
            "base {}: failures {:?}",
            report.scheduler,
            report
                .failures
                .iter()
                .map(|r| format!("plan {} seed {}", r.plan, r.seed))
                .collect::<Vec<_>>()
        );
    }
}

fn racing3_by_seed(_seed: u64) -> System {
    racing3()
}

#[test]
fn augmented_snapshot_certifies_every_placement_for_n_up_to_3() {
    // The acceptance scenario: all single-crash and single-stall
    // placements in the 6-step Block-Update sequence, for every system
    // size n <= 3.
    for f in 1..=3 {
        for m in 1..=3 {
            let report = certify::certify_block_update_faults(f, m);
            assert_eq!(
                report.placements.len(),
                f * certify::BLOCK_UPDATE_STEPS * 2
            );
            assert!(
                report.is_certified(),
                "f={f} m={m}: {:?}",
                report.failures
            );
        }
    }
}

#[test]
fn injected_worker_panic_reports_plan_and_seed_for_replay() {
    let config = CampaignConfig {
        schedulers: vec![SchedulerSpec::RoundRobin],
        seed_start: 0,
        runs: 3,
        budget: 2_000,
        threads: 2,
    };
    let plans = [
        FaultPlan::parse("crash@0:1").unwrap(),
        FaultPlan::parse("crash@1:2").unwrap(),
    ];
    let factory = |seed: u64| {
        if seed == 2 {
            panic!("injected failure");
        }
        racing3()
    };
    let report = run_fault_campaign(&config, &plans, factory, &no_check);
    assert!(!report.is_certified());
    // One panic per plan (each plan runs seed 2 once).
    assert_eq!(report.failures.len(), 2);
    for failure in &report.failures {
        let error = failure.error.as_deref().expect("structured error");
        assert!(error.contains("worker panic"), "error was: {error}");
        assert!(error.contains("injected failure"), "error was: {error}");
        assert!(
            error.contains(&format!("plan `{}`", failure.plan)),
            "error names the fault plan: {error}"
        );
        assert!(error.contains("seed 2"), "error names the seed: {error}");
        assert_eq!(failure.seed, 2);
    }
}

#[test]
fn fault_records_replay_exactly() {
    let config = CampaignConfig {
        schedulers: vec![SchedulerSpec::Random],
        seed_start: 11,
        runs: 2,
        budget: 4_000,
        threads: 0,
    };
    let plans = FaultPlan::single_crash_plans(3, 3);
    // Flag every run so each record surfaces in `failures` and can be
    // compared against its replay.
    let flag_all = |_: &System, _: &[ProcessId]| Some("flagged".to_string());
    let report = run_fault_campaign(&config, &plans, racing3_by_seed, &flag_all);
    assert_eq!(report.failures.len(), report.total_runs);
    for record in &report.failures {
        // The replay is the one-cell matrix: this plan at this seed.
        let plan = FaultPlan::parse(&record.plan).unwrap();
        let one = CampaignConfig { seed_start: record.seed, runs: 1, ..config.clone() };
        let replayed = run_fault_records(&one, &[plan], racing3_by_seed, &flag_all).remove(0);
        assert_eq!(replayed.steps, record.steps, "plan {} seed {}", record.plan, record.seed);
        assert_eq!(replayed.crashed, record.crashed);
        assert_eq!(replayed.survivors_terminated, record.survivors_terminated);
    }
}

#[test]
fn fault_scheduler_composes_with_every_scheduler_family() {
    // The wrapper is scheduler-agnostic: under each spec the plan's
    // victim stops on time and the survivors still terminate.
    for spec in ["rr", "random", "quantum:2", "obstruction:1", "crash:1"] {
        let spec = SchedulerSpec::parse(spec).unwrap();
        let plan = FaultPlan::parse("crash@0:2").unwrap();
        let mut sys = racing3();
        let mut sched = FaultScheduler::new(spec.build(7), plan);
        sys.run(&mut sched, 4_000).unwrap();
        assert!(
            sched.is_crashed(ProcessId(0)),
            "{spec}: the planned crash must fire"
        );
        assert_eq!(
            sys.trace().iter().filter(|e| e.pid == ProcessId(0)).count(),
            2,
            "{spec}: victim stops after exactly 2 steps"
        );
        for p in sched.survivors(&sys) {
            assert!(sys.is_terminated(p), "{spec}: survivor p{} blocked", p.0);
        }
    }
}

#[test]
fn interrupted_campaign_resumes_bit_for_bit() {
    let config = CampaignConfig {
        schedulers: vec![SchedulerSpec::Random, SchedulerSpec::Crash {
            max_crashes: 1,
            probability: 0.2,
        }],
        seed_start: 0,
        runs: 20,
        budget: 1_500,
        threads: 2,
    };
    let factory = |_seed: u64| racing3();
    let dir = std::env::temp_dir()
        .join(format!("rsim-fault-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaign.checkpoint.json");

    let uninterrupted = run_campaign(&config, factory, &|_| None);

    let interrupted = run_campaign_with(
        &config,
        &CampaignOptions {
            stop_after: Some(13),
            checkpoint_every: Some(5),
            checkpoint_path: Some(path.clone()),
            ..CampaignOptions::default()
        },
        factory,
        &|_| None,
    );
    assert!(interrupted.truncation.is_some(), "truncation is reported");
    // With 2 workers a run already in flight when the watchdog fires
    // still completes, so the cap is a floor, not an exact count.
    assert!(interrupted.total_runs >= 13 && interrupted.total_runs < 40);
    assert_eq!(interrupted.skipped_runs, 40 - interrupted.total_runs);

    let checkpoint = CampaignCheckpoint::load(&path).unwrap();
    assert_eq!(checkpoint.completed.len(), interrupted.total_runs);
    let resumed = run_campaign_with(
        &config,
        &CampaignOptions {
            resume_from: Some(checkpoint),
            ..CampaignOptions::default()
        },
        factory,
        &|_| None,
    );
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(resumed.total_runs, uninterrupted.total_runs);
    assert_eq!(resumed.terminated_runs, uninterrupted.terminated_runs);
    assert_eq!(resumed.distinct_configs, uninterrupted.distinct_configs);
    assert_eq!(resumed.total_steps, uninterrupted.total_steps);
    assert_eq!(resumed.skipped_runs, 0);
    assert!(resumed.truncation.is_none());
    assert_eq!(resumed.per_scheduler.len(), uninterrupted.per_scheduler.len());
    for (a, b) in resumed.per_scheduler.iter().zip(&uninterrupted.per_scheduler) {
        assert_eq!(a.scheduler, b.scheduler);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.terminated, b.terminated);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.total_steps, b.total_steps);
    }
}

#[test]
fn crash_scheduler_campaign_aggregates_are_thread_count_independent() {
    // The `crash:c` random adversary inside a campaign: the crash set
    // is a function of the seed alone, so aggregates cannot depend on
    // how runs were distributed over workers.
    let mk = |threads: usize| CampaignConfig {
        schedulers: vec![SchedulerSpec::Crash { max_crashes: 2, probability: 0.3 }],
        seed_start: 0,
        runs: 60,
        budget: 1_500,
        threads,
    };
    let factory = |_seed: u64| racing3();
    let base = run_campaign(&mk(1), factory, &|_| None);
    for threads in [2, 4, 0] {
        let report = run_campaign(&mk(threads), factory, &|_| None);
        assert_eq!(report.total_runs, base.total_runs, "threads={threads}");
        assert_eq!(report.terminated_runs, base.terminated_runs, "threads={threads}");
        assert_eq!(report.distinct_configs, base.distinct_configs, "threads={threads}");
        assert_eq!(report.total_steps, base.total_steps, "threads={threads}");
        assert_eq!(report.failures.len(), base.failures.len(), "threads={threads}");
    }
}
