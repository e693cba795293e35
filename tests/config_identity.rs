//! Golden regression tests for configuration identity.
//!
//! The explorer's deduplication, the campaign resume protocol, and the
//! replay bundles all depend on configuration fingerprints being stable
//! across releases: a silent change to the encoding would invalidate
//! every checked-in fingerprint count and resume ledger. These tests
//! pin the fingerprint function three ways:
//!
//! 1. **Golden values** — literal 64-bit constants for known
//!    configurations. If these fail, the encoding changed; that is a
//!    breaking change to every persisted artifact and must be called
//!    out, not absorbed.
//! 2. **Stream/string agreement** — the zero-allocation streaming hash
//!    ([`System::config_fingerprint`]) must equal FNV-1a over the
//!    materialised legacy `config_key` string on every configuration an
//!    exploration of every campaign protocol family visits. The same
//!    walk checks each process's `terminated()` shortcut against its
//!    `poised()` answer.
//! 3. **Schedule independence** — different schedules reaching the same
//!    configuration produce the same fingerprint (the trace is
//!    excluded from configuration identity).
//! 4. **Keyed coverage** — the in-memory key a campaign run updates per
//!    step equals the key computed from scratch, and a checkpoint
//!    persists exactly the fingerprints its runs reach.

use revisionist_simulations::protocols::{
    approx_system, contrarian_system, ladder_system, racing_system, serializable_system,
};
use revisionist_simulations::smr::campaign::{
    run_campaign_with, CampaignCheckpoint, CampaignConfig, CampaignOptions, SchedulerSpec,
};
use revisionist_simulations::smr::explore::{ExploreKey, Explorer, Limits};
use revisionist_simulations::smr::fingerprint::fingerprint;
use revisionist_simulations::smr::gen::GenSpec;
use revisionist_simulations::smr::process::{Poised, ProcessId};
use revisionist_simulations::smr::sched::{Random, RoundRobin, Scheduler};
use revisionist_simulations::smr::system::System;
use revisionist_simulations::smr::value::{Dyadic, Value};
use revisionist_simulations::solo::convert::determinized_system;
use revisionist_simulations::solo::machine::RandomizedRacing;
use std::collections::BTreeSet;
use std::sync::Arc;

fn ints(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

/// Literal fingerprints for fixed configurations. A failure here means
/// the configuration encoding changed — which breaks campaign resume
/// ledgers and replay bundles recorded by earlier builds.
#[test]
fn golden_fingerprints_are_stable() {
    let initial = racing_system(2, &ints(&[1, 2]));
    assert_eq!(initial.config_fingerprint(), 0xdba8_dae2_1165_0de7);

    let mut run = racing_system(2, &ints(&[1, 2]));
    run.run(&mut RoundRobin::new(), 100_000).unwrap();
    assert_eq!(run.config_fingerprint(), 0x4a85_7e4b_e95d_cd83);

    let wide = racing_system(3, &ints(&[7, 8, 9]));
    assert_eq!(wide.config_fingerprint(), 0x7324_7fb6_025e_9b0f);
}

/// Walks every configuration of a small exhaustive exploration of each
/// campaign protocol family (plus the determinized solo system and the
/// dyadic approximate-agreement system) and checks the streaming hash
/// against the legacy string path, and `terminated()` against
/// `poised()`, on each.
#[test]
fn streamed_hash_matches_string_path_over_explored_corpus() {
    fn check_all(sys: &System, depth: usize, visited: &mut Vec<u64>) {
        assert_eq!(
            sys.config_fingerprint(),
            fingerprint(&sys.config_key()),
            "stream/string divergence at depth {depth}: {}",
            sys.config_key()
        );
        for p in 0..sys.process_count() {
            let process = sys.process(ProcessId(p)).expect("process in range");
            assert_eq!(
                process.terminated(),
                matches!(process.poised(), Poised::Output(_)),
                "terminated()/poised() disagree for p{p}: {}",
                sys.config_key()
            );
        }
        visited.push(sys.config_fingerprint());
        if depth == 0 || sys.all_terminated() {
            return;
        }
        for p in 0..sys.process_count() {
            let pid = ProcessId(p);
            if sys.is_terminated(pid) {
                continue;
            }
            let mut fork = sys.clone();
            fork.step(pid).unwrap();
            check_all(&fork, depth - 1, visited);
        }
    }

    let mut visited = Vec::new();
    for (family, sys, depth) in corpus() {
        let before = visited.len();
        check_all(&sys, depth, &mut visited);
        let walked = visited.len() - before;
        assert!(walked > 20, "{family} corpus too small: {walked}");
    }
    assert!(visited.len() > 100, "corpus too small: {}", visited.len());
}

/// One initial configuration of every campaign protocol family (plus
/// the determinized solo system and the dyadic approximate-agreement
/// system), each with the depth its exhaustive walk goes to.
fn corpus() -> Vec<(&'static str, System, usize)> {
    vec![
        ("racing", racing_system(2, &ints(&[1, 2])), 6),
        ("racing-3", racing_system(2, &ints(&[1, 2, 3])), 5),
        ("ladder", ladder_system(&ints(&[1, 2]), 2), 7),
        ("contrarian", contrarian_system(&[true, false, true]), 6),
        ("serializable", serializable_system(&[1, 2, 3, 4]), 6),
        ("gen:3", GenSpec::parse_cli("gen:3").expect("gen spec").build_system(), 5),
        ("gen:11", GenSpec::parse_cli("gen:11").expect("gen spec").build_system(), 5),
        (
            "determinized",
            determinized_system(Arc::new(RandomizedRacing::new(2)), &ints(&[5, 6]), 50),
            4,
        ),
        (
            "approx",
            approx_system(&[Dyadic::zero(), Dyadic::new(-3, 1), Dyadic::one()], 2),
            5,
        ),
    ]
}

/// A campaign run keeps one [`ExploreKey`] and updates it with
/// `restep` after each in-place step. Over the exhaustive walk of every
/// corpus family, and along a long seeded run of each stepped in place,
/// the updated key must equal the key computed from scratch.
#[test]
fn restepped_key_matches_key_from_scratch_over_explored_corpus() {
    fn walk(sys: &System, key: &ExploreKey, depth: usize, stepped: &mut usize) {
        if depth == 0 || sys.all_terminated() {
            return;
        }
        for p in 0..sys.process_count() {
            let pid = ProcessId(p);
            if sys.is_terminated(pid) {
                continue;
            }
            let mut fork = sys.clone();
            fork.step(pid).unwrap();
            let mut next = key.clone();
            next.restep(&fork);
            assert_eq!(next, ExploreKey::of(&fork), "p{p} from {}", sys.config_key());
            *stepped += 1;
            walk(&fork, &next, depth - 1, stepped);
        }
    }

    for (family, mut sys, depth) in corpus() {
        let mut stepped = 0;
        walk(&sys, &ExploreKey::of(&sys), depth, &mut stepped);
        assert!(stepped > 20, "{family} walk too small: {stepped}");
        // In place: no other configuration shares the objects or the
        // stepped process, so `step` writes them where they stand.
        let mut key = ExploreKey::of(&sys);
        let mut sched = Random::seeded(7);
        for _ in 0..200 {
            let Some(pid) = sched.next(&sys) else { break };
            if sys.all_terminated() {
                break;
            }
            if sys.is_terminated(pid) {
                continue;
            }
            sys.step(pid).unwrap();
            key.restep(&sys);
            assert_eq!(key, ExploreKey::of(&sys), "{family} after {} steps", sys.trace().len());
        }
    }
}

/// Every fingerprint a campaign run reaches, recomputed by a plain
/// re-run: the campaign's step loop, with `config_fingerprint` of the
/// initial configuration and after every step.
fn plain_rerun(
    spec: &SchedulerSpec,
    seed: u64,
    budget: usize,
    factory: &dyn Fn(u64) -> System,
    into: &mut BTreeSet<u64>,
) {
    let mut sys = factory(seed);
    let mut sched = spec.build(seed);
    into.insert(sys.config_fingerprint());
    let mut steps = 0;
    while steps < budget && !sys.all_terminated() {
        let Some(pid) = sched.next(&sys) else { break };
        if sys.is_terminated(pid) {
            continue;
        }
        sys.step(pid).unwrap();
        steps += 1;
        into.insert(sys.config_fingerprint());
    }
}

/// The campaign decides what is new by in-memory key, but what it
/// persists is `config_fingerprint`: a checkpoint's `fingerprints` are
/// exactly the sorted set of fingerprints its runs reach, and
/// `distinct_configs` is their number, at 1 and 4 threads. Racing
/// builds the same system for every seed; contrarian's inputs vary with
/// the seed.
#[test]
fn campaign_checkpoint_holds_the_fingerprints_its_runs_reach() {
    let inputs = ints(&[1, 2, 3]);
    let racing = move |_seed: u64| racing_system(2, &inputs);
    let contrarian = |seed: u64| {
        let bits: Vec<bool> = (0..3).map(|i| (seed >> i) & 1 == 1).collect();
        contrarian_system(&bits)
    };
    let families: [(&str, &(dyn Fn(u64) -> System + Sync)); 2] =
        [("racing", &racing), ("contrarian", &contrarian)];
    let dir = std::env::temp_dir().join(format!("config-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (family, factory) in families {
        let mut want = BTreeSet::new();
        let mut config = CampaignConfig {
            schedulers: ["rr", "random", "quantum:2", "obstruction:2", "crash:1"]
                .iter()
                .map(|s| SchedulerSpec::parse(s).unwrap())
                .collect(),
            seed_start: 40,
            runs: 24,
            budget: 2_000,
            threads: 1,
        };
        for spec in &config.schedulers {
            for seed in config.seed_start..config.seed_start + config.runs as u64 {
                plain_rerun(spec, seed, config.budget, factory, &mut want);
            }
        }
        let want: Vec<u64> = want.into_iter().collect();
        assert!(want.len() > 50, "{family}: only {} configurations", want.len());
        for threads in [1, 4] {
            config.threads = threads;
            let path = dir.join(format!("{family}-t{threads}.checkpoint.json"));
            let options = CampaignOptions {
                checkpoint_path: Some(path.clone()),
                ..CampaignOptions::default()
            };
            let report = run_campaign_with(&config, &options, factory, &|_: &System| None);
            let text = std::fs::read_to_string(&path).unwrap();
            let checkpoint = CampaignCheckpoint::parse(&text).unwrap();
            assert_eq!(checkpoint.fingerprints, want, "{family} at {threads} threads");
            assert_eq!(report.distinct_configs, want.len(), "{family} at {threads} threads");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Configurations reachable from `initial` within `max_depth` steps,
/// found by a breadth-first walk deduplicated on the materialised
/// string key — the reference the explorer's [`ExploreKey`] dedup is
/// checked against. Breadth-first, every configuration is first met at
/// its shortest distance, so a depth bound cuts nothing it could reach.
///
/// [`ExploreKey`]: revisionist_simulations::smr::explore::ExploreKey
fn string_keyed_reachable(initial: &System, max_depth: usize) -> usize {
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    seen.insert(initial.config_key());
    let mut level = vec![initial.clone()];
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for sys in &level {
            for p in 0..sys.process_count() {
                let pid = ProcessId(p);
                if sys.is_terminated(pid) {
                    continue;
                }
                let mut fork = sys.clone();
                fork.step(pid).unwrap();
                if seen.insert(fork.config_key()) {
                    next.push(fork);
                }
            }
        }
        level = next;
    }
    seen.len()
}

/// Fingerprint counts from the explorer are a stable public artifact:
/// the same model explored with the explorer's keys and walked with
/// string keys must visit the same distinct configurations — every one
/// reachable within the depth bound, with the reduction on or off —
/// and the solo-termination check must cover all of them too.
#[test]
fn explorer_fingerprint_count_matches_string_keyed_exploration() {
    let initial = racing_system(2, &ints(&[1, 2]));
    for (max_depth, reachable) in [(12, 432), (20, 1_138), (24, 1_577)] {
        let limits = Limits { max_depth, max_configs: 50_000 };
        assert_eq!(string_keyed_reachable(&initial, max_depth), reachable, "depth {max_depth}");
        for dpor in [true, false] {
            let report = Explorer::new(limits)
                .with_dpor(dpor)
                .explore_parallel(&initial, &|_| None)
                .unwrap();
            assert_eq!(report.configs_visited, reachable, "depth {max_depth}, dpor {dpor}");
        }
    }
    let solo = Explorer::new(Limits { max_depth: 24, max_configs: 50_000 })
        .check_solo_termination(&initial, 40)
        .unwrap();
    assert!(solo.is_clean(), "{:?}", solo.violation);
    assert_eq!(solo.configs_visited, 1_577);
}

/// Two different schedules that land in the same configuration agree on
/// the fingerprint even though their traces differ.
#[test]
fn fingerprint_ignores_the_trace() {
    let mut a = racing_system(2, &ints(&[1, 2]));
    let mut b = racing_system(2, &ints(&[1, 2]));
    // Schedule A: p0, p1. Schedule B: p1, p0. Both scan first (reads
    // commute), so the configurations coincide while the traces differ.
    a.step(ProcessId(0)).unwrap();
    a.step(ProcessId(1)).unwrap();
    b.step(ProcessId(1)).unwrap();
    b.step(ProcessId(0)).unwrap();
    assert_ne!(a.trace().to_vec(), b.trace().to_vec());
    assert!(a.indistinguishable(&b));
    assert_eq!(a.config_fingerprint(), b.config_fingerprint());
}
