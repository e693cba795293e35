//! The explorer stores configurations as interned component ids and
//! materializes a [`System`] only where a check needs one. Every
//! configuration it hands a check must be exactly the one
//! `with_successor` builds along the same schedule: same configuration
//! key and fingerprint, same step counts, same trace.

use revisionist_simulations::protocols::{ladder_system, racing_system};
use revisionist_simulations::smr::explore::{Explorer, Limits};
use revisionist_simulations::smr::process::ProcessId;
use revisionist_simulations::smr::system::System;
use revisionist_simulations::smr::value::Value;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What `with_successor` builds from `initial` along the schedule
/// `sys`'s trace records, compared with `sys`; the first difference.
fn differs_from_forked(initial: &System, sys: &System) -> Option<String> {
    let base = initial.trace().len();
    let mut forked = initial.clone();
    forked.freeze_trace();
    for event in sys.trace().events_from(base) {
        let next = forked.successor(event.pid).ok()?;
        forked = forked.with_successor(next);
    }
    let steps = |s: &System| -> Vec<usize> {
        (0..s.process_count()).map(|p| s.steps_of(ProcessId(p))).collect()
    };
    if sys.config_key() != forked.config_key() {
        return Some(format!("key {} vs {}", sys.config_key(), forked.config_key()));
    }
    if sys.config_fingerprint() != forked.config_fingerprint() {
        return Some("fingerprint".into());
    }
    if steps(sys) != steps(&forked) {
        return Some(format!("steps {:?} vs {:?}", steps(sys), steps(&forked)));
    }
    if sys.trace().to_vec() != forked.trace().to_vec() {
        return Some("trace events".into());
    }
    None
}

#[test]
fn materialized_configurations_equal_the_forked_ones() {
    let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    let corpus = [
        ("racing-3", racing_system(2, &ints(&[1, 2, 3])), 9),
        ("ladder", ladder_system(&ints(&[1, 2]), 2), 16),
    ];
    for (family, initial, depth) in corpus {
        // Start one step in, so the initial trace and step counts are
        // not empty.
        let mut initial = initial;
        initial.step(ProcessId(1)).unwrap();
        for threads in [1, 3] {
            for dpor in [true, false] {
                let checked = AtomicUsize::new(0);
                let check = |sys: &System| {
                    checked.fetch_add(1, Ordering::Relaxed);
                    differs_from_forked(&initial, sys)
                };
                let report = Explorer::new(Limits { max_depth: depth, max_configs: usize::MAX })
                    .with_threads(threads)
                    .with_dpor(dpor)
                    .explore_parallel(&initial, &check)
                    .unwrap();
                let at = format!("{family} threads={threads} dpor={dpor}");
                assert_eq!(report.violation, None, "{at}");
                assert!(report.configs_visited > 200, "{at}: {report:?}");
                assert_eq!(checked.into_inner(), report.configs_visited, "{at}");
            }
        }
    }
}
