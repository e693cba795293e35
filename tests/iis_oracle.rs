//! The explorer against a closed form it does not compute itself.
//!
//! `r` rounds of immediate snapshot among `n` processes reach exactly
//! Fubini(n)^r distinct terminal output vectors, the facets of the r-th
//! standard chromatic subdivision (Kozlov, arXiv 1402.4707). Every
//! other explorer gate compares the explorer with itself; a bug all of
//! those share — a wrong key, a pre-filter that drops a live child, a
//! decide step that loses an arrival — changes this count.

use revisionist_simulations::protocols::iis::{fubini, iis_system, immediate_snapshot_violation};
use revisionist_simulations::smr::explore::{Explorer, Limits};
use revisionist_simulations::smr::value::Value;
use std::collections::HashSet;

/// `(n, rounds, configurations visited, forks DPOR prunes)`. The state
/// counts pin the engine's encoding (an initial scan, one write per
/// level), which differs from other enumerations of the algorithm.
const CASES: [(usize, usize, usize, usize); 6] = [
    (2, 1, 36, 5),
    (2, 2, 156, 17),
    (2, 3, 540, 53),
    (3, 1, 514, 72),
    (3, 2, 9_810, 918),
    (4, 1, 10_096, 1_005),
];

#[test]
fn terminal_outputs_number_fubini_n_to_the_r() {
    for (n, rounds, visited, pruned) in CASES {
        let want = fubini(n).pow(rounds as u32) as usize;
        let sys = iis_system(n, rounds);
        for threads in 1..=4 {
            for dpor in [true, false] {
                let explorer = Explorer::new(Limits { max_depth: 256, max_configs: usize::MAX })
                    .with_threads(threads)
                    .with_dpor(dpor);
                let (outputs, report) = explorer.terminal_outputs(&sys).unwrap();
                let at = format!("n={n} r={rounds} threads={threads} dpor={dpor}");
                assert!(!report.truncated, "{at}");
                assert_eq!(outputs.len(), want, "{at}");
                let distinct: HashSet<&Vec<Value>> = outputs.iter().collect();
                assert_eq!(distinct.len(), want, "{at}");
                assert_eq!(report.terminals, want, "{at}");
                assert_eq!(report.configs_visited, visited, "{at}");
                assert_eq!(report.pruned, if dpor { pruned } else { 0 }, "{at}");
                for out in &outputs {
                    assert_eq!(immediate_snapshot_violation(out), None, "{at}: {out:?}");
                }
            }
        }
    }
}
