//! The traces the explorer hands a check share its trace blocks, and a
//! check may keep them: each must outlive the search and still read as
//! the trace `with_successor` builds along the same schedule.

use revisionist_simulations::protocols::racing_system;
use revisionist_simulations::smr::explore::{Explorer, Limits};
use revisionist_simulations::smr::process::ProcessId;
use revisionist_simulations::smr::system::System;
use revisionist_simulations::smr::trace::Trace;
use revisionist_simulations::smr::value::Value;
use std::sync::Mutex;

/// The trace `with_successor` builds from `initial` along the schedule
/// `trace` records past it.
fn forked_trace(initial: &System, trace: &Trace) -> Trace {
    let mut forked = initial.clone();
    forked.freeze_trace();
    for event in trace.events_from(initial.trace().len()) {
        let next = forked.successor(event.pid).expect("the schedule replays");
        forked = forked.with_successor(next);
    }
    forked.trace().clone()
}

#[test]
fn traces_kept_by_a_check_outlive_the_search() {
    let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    // One step in, so the root trace is not empty.
    let mut initial = racing_system(2, &ints(&[1, 2, 3]));
    initial.step(ProcessId(2)).unwrap();
    for threads in [1, 3] {
        for dpor in [true, false] {
            let kept: Mutex<Vec<Trace>> = Mutex::new(Vec::new());
            let check = |sys: &System| {
                // Every seventh configuration by fingerprint, at every
                // depth.
                if sys.config_fingerprint().is_multiple_of(7) {
                    kept.lock().expect("no check panics").push(sys.trace().clone());
                }
                None
            };
            let report = Explorer::new(Limits { max_depth: 10, max_configs: usize::MAX })
                .with_threads(threads)
                .with_dpor(dpor)
                .explore_parallel(&initial, &check)
                .unwrap();
            let at = format!("threads={threads} dpor={dpor}");
            assert!(report.configs_visited > 1_000, "{at}: {report:?}");
            let kept = kept.into_inner().expect("no check panics");
            assert!(kept.len() > 100, "{at}: {} kept", kept.len());
            let depths: std::collections::BTreeSet<usize> = kept.iter().map(Trace::len).collect();
            assert!(depths.len() > 5, "{at}: kept depths {depths:?}");
            for trace in &kept {
                let forked = forked_trace(&initial, trace);
                assert_eq!(*trace, forked, "{at}");
                assert_eq!(trace.to_vec(), forked.to_vec(), "{at}");
            }
        }
    }
}
