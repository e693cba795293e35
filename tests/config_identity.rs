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

use revisionist_simulations::protocols::{
    approx_system, contrarian_system, ladder_system, racing_system, serializable_system,
};
use revisionist_simulations::smr::explore::{Explorer, Limits};
use revisionist_simulations::smr::fingerprint::fingerprint;
use revisionist_simulations::smr::gen::GenSpec;
use revisionist_simulations::smr::process::{Poised, ProcessId};
use revisionist_simulations::smr::sched::RoundRobin;
use revisionist_simulations::smr::system::System;
use revisionist_simulations::smr::value::{Dyadic, Value};
use revisionist_simulations::solo::convert::determinized_system;
use revisionist_simulations::solo::machine::RandomizedRacing;
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

    let families: Vec<(&str, System, usize)> = vec![
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
    ];
    let mut visited = Vec::new();
    for (family, sys, depth) in families {
        let before = visited.len();
        check_all(&sys, depth, &mut visited);
        let walked = visited.len() - before;
        assert!(walked > 20, "{family} corpus too small: {walked}");
    }
    assert!(visited.len() > 100, "corpus too small: {}", visited.len());
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
