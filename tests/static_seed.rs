//! Static-seeding acceptance over the protocol-family fixtures:
//! seeding the DPOR explorer with the precomputed independence matrix
//! must be report-invisible on racing, contrarian, ladder, and the
//! serializable fixture — and `--no-static` × `--no-dpor` must compose
//! (all four combinations reach identical verdicts). A campaign builds
//! each entry configuration's matrix once; every run's audit must still
//! read the matrix of its own system.

use revisionist_simulations::protocols::contrarian::contrarian_system;
use revisionist_simulations::protocols::ladder::ladder_system;
use revisionist_simulations::protocols::racing::racing_system;
use revisionist_simulations::protocols::serializable::serializable_system;
use revisionist_simulations::smr::analyze::{InterferenceMatrix, DEFAULT_BUDGET};
use revisionist_simulations::smr::campaign::{
    run_campaign_with, CampaignCheckpoint, CampaignConfig, CampaignOptions, SchedulerSpec,
};
use revisionist_simulations::smr::explore::{Explorer, ExploreReport, Limits};
use revisionist_simulations::smr::hb;
use revisionist_simulations::smr::system::System;
use revisionist_simulations::smr::value::Value;

const LIMITS: Limits = Limits { max_depth: 10, max_configs: 5_000_000 };

fn families() -> Vec<(&'static str, System)> {
    let inputs = [Value::Int(1), Value::Int(2), Value::Int(3)];
    vec![
        ("racing", racing_system(2, &inputs)),
        ("contrarian", contrarian_system(&[true, false, true])),
        ("ladder", ladder_system(&inputs, 2)),
        ("serializable", serializable_system(&[1, 2, 3])),
    ]
}

fn explore(sys: &System, dpor: bool, statics: bool, threads: usize) -> ExploreReport {
    Explorer::new(LIMITS)
        .with_threads(threads)
        .with_dpor(dpor)
        .with_static(statics)
        .explore_parallel(sys, &|_| None)
        .unwrap()
}

/// Seeding on vs off at 1 and 4 threads: every observable identical on
/// every family (the matrix is a prefilter, never an oracle).
#[test]
fn seeding_is_report_invisible_on_every_family() {
    for (name, sys) in families() {
        for threads in [1usize, 4] {
            let on = explore(&sys, true, true, threads);
            let off = explore(&sys, true, false, threads);
            let label = format!("{name} threads={threads}");
            assert!(on.static_seed, "{label}");
            assert!(!off.static_seed, "{label}");
            assert_eq!(on.configs_visited, off.configs_visited, "{label}: visited");
            assert_eq!(on.terminals, off.terminals, "{label}: terminals");
            assert_eq!(on.pruned, off.pruned, "{label}: pruned");
            assert_eq!(on.truncated, off.truncated, "{label}: truncated");
            assert_eq!(on.violation, off.violation, "{label}: violation");
        }
    }
}

/// `--no-static` and `--no-dpor` compose: all four combinations reach
/// the same verdict (visited set, terminals, truncation, violation).
/// Pruning and prefilter stats legitimately differ — without DPOR
/// there is no reduction and no matrix; that is asserted too.
#[test]
fn no_static_and_no_dpor_compose() {
    for (name, sys) in families() {
        let combos: Vec<(bool, bool, ExploreReport)> = [true, false]
            .iter()
            .flat_map(|&dpor| {
                [true, false].map(|statics| (dpor, statics, explore(&sys, dpor, statics, 1)))
            })
            .collect();
        let base = &combos[0].2;
        for (dpor, statics, report) in &combos {
            let label = format!("{name} dpor={dpor} static={statics}");
            assert_eq!(report.configs_visited, base.configs_visited, "{label}: visited");
            assert_eq!(report.terminals, base.terminals, "{label}: terminals");
            assert_eq!(report.truncated, base.truncated, "{label}: truncated");
            assert_eq!(report.violation, base.violation, "{label}: violation");
            // The matrix only arms when DPOR does: static seeding is a
            // DPOR accelerator, not an independent reduction.
            assert_eq!(report.static_seed, *dpor && *statics, "{label}: static_seed");
            if !report.static_seed {
                assert_eq!(report.prefilter_hits, 0, "{label}: hits without seeding");
                assert_eq!(report.static_indep_pairs, 0, "{label}: matrix without seeding");
            }
            if !dpor {
                assert_eq!(report.pruned, 0, "{label}: pruning without dpor");
            }
        }
    }
}

/// The serializable fixture is the one family with a fully edge-free
/// matrix: every pair prefilters, DPOR collapses the exploration to
/// (essentially) one interleaving, and the report says so.
#[test]
fn serializable_family_is_fully_prefiltered() {
    let sys = serializable_system(&[1, 2, 3, 4]);
    let report = explore(&sys, true, true, 1);
    assert!(report.static_seed);
    assert_eq!(report.static_indep_pairs, 6, "all C(4,2) pairs independent");
    assert!(report.prefilter_hits > 0, "the matrix answered pair queries");
    assert_eq!(report.terminals, 1, "one equivalence class of schedules");
    assert!(report.pruned > 0, "the reduction actually pruned forks");
    assert!(report.violation.is_none());
}

/// A factory with two entry configurations: the serializable fixture
/// (4 processes, all 6 pairs independent) on even seeds, racing (no
/// independent pair) on odd ones.
fn alternating(seed: u64) -> System {
    if seed.is_multiple_of(2) {
        serializable_system(&[1, 2, 3, 4])
    } else {
        racing_system(2, &[Value::Int(1), Value::Int(2), Value::Int(3)])
    }
}

/// The prefilter hits of the run of `spec` at `seed`, audited from
/// scratch: the run is replayed step by step like a campaign run, then
/// every adjacent pair of steps by distinct processes that a freshly
/// built matrix calls independent is confirmed against the dynamic
/// oracle and counted.
fn audited_hits(spec: &SchedulerSpec, seed: u64, budget: usize) -> usize {
    let mut sys = alternating(seed);
    let matrix = InterferenceMatrix::build(&sys, DEFAULT_BUDGET);
    let mut scheduler = spec.build(seed);
    let mut steps = 0;
    while steps < budget && !sys.all_terminated() {
        let Some(pid) = scheduler.next(&sys) else { break };
        if !sys.is_terminated(pid) {
            sys.step(pid).expect("the fixtures step without error");
            steps += 1;
        }
    }
    let events: Vec<_> = sys.trace().iter().collect();
    events
        .windows(2)
        .filter(|pair| {
            let (p, q) = (pair[0].pid.0, pair[1].pid.0);
            p != q && matrix.independent(p, q)
        })
        .inspect(|pair| assert!(hb::independent(&pair[0].op, &pair[1].op)))
        .count()
}

/// A campaign keeps one matrix per entry configuration, yet every
/// record carries its own system's pair count and the prefilter hits
/// of an audit against that system's matrix, at 1 and 4 threads.
#[test]
fn campaign_matrix_memo_matches_per_run_matrices() {
    let dir = std::env::temp_dir().join(format!("rsim-static-memo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for threads in [1usize, 4] {
        let config = CampaignConfig {
            schedulers: ["rr", "random", "crash:1"]
                .iter()
                .map(|s| SchedulerSpec::parse(s).unwrap())
                .collect(),
            seed_start: 0,
            runs: 40,
            threads,
            ..CampaignConfig::default()
        };
        let path = dir.join(format!("t{threads}.checkpoint.json"));
        let options = CampaignOptions {
            checkpoint_path: Some(path.clone()),
            ..CampaignOptions::default()
        };
        let report = run_campaign_with(&config, &options, alternating, &|_| None);
        assert_eq!(report.static_indep_pairs, 6, "threads={threads}");
        let text = std::fs::read_to_string(&path).unwrap();
        let checkpoint = CampaignCheckpoint::parse(&text).unwrap();
        assert_eq!(checkpoint.completed.len(), 120, "threads={threads}");
        let mut pair_counts = std::collections::BTreeSet::new();
        for (index, record) in &checkpoint.completed {
            let label = format!("threads={threads} run {index} seed {}", record.seed);
            let spec = SchedulerSpec::parse(&record.scheduler).unwrap();
            let matrix = InterferenceMatrix::build(&alternating(record.seed), DEFAULT_BUDGET);
            assert_eq!(record.static_indep_pairs, matrix.indep_pairs(), "{label}");
            assert_eq!(
                record.prefilter_hits,
                audited_hits(&spec, record.seed, config.budget),
                "{label}"
            );
            pair_counts.insert(record.static_indep_pairs);
        }
        assert_eq!(pair_counts.into_iter().collect::<Vec<_>>(), [0, 6], "threads={threads}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
