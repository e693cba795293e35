//! Model checking the protocol landscape: exhaustive exploration,
//! valence analysis (the FLP structure), and the violation searcher.
//!
//! Shows, for small instances, the machinery that stands in for the
//! impossibility results the paper's reduction consumes: bivalence of
//! initial configurations, existence of critical configurations, and
//! concrete counterexamples for protocols below the space bound.
//!
//! Run with `cargo run --release --example model_checking`.

use revisionist_simulations::protocols::ladder::ladder_system;
use revisionist_simulations::protocols::racing::racing_system;
use revisionist_simulations::smr::explore::{Explorer, Limits};
use revisionist_simulations::smr::value::Value;
use revisionist_simulations::tasks::agreement::consensus;
use revisionist_simulations::tasks::valence::{analyze, ValenceLimits};
use revisionist_simulations::tasks::violation::search_exhaustive;

fn main() {
    let inputs = [Value::Int(1), Value::Int(2)];

    println!("== Valence analysis (the FLP structure) ==\n");
    for (name, sys) in [
        ("racing m=1 (below bound)", racing_system(1, &inputs)),
        ("racing m=2 (at bound)", racing_system(2, &inputs)),
        ("ladder R=2 (correct)", ladder_system(&inputs, 2)),
    ] {
        let report = analyze(
            &sys,
            ValenceLimits { max_configs: 200_000, max_depth: 40 },
        )
        .unwrap();
        println!("{name}:");
        println!(
            "  {} configs ({} terminal), {} bivalent / {} univalent{}",
            report.configs,
            report.terminals,
            report.bivalent,
            report.univalent,
            if report.truncated { " [truncated]" } else { "" }
        );
        println!(
            "  initial outcomes: {:?}; critical configs: {}; disagreement reachable: {}",
            report.initial_outcomes,
            report.critical.len(),
            report.disagreement_reachable
        );
        println!();
    }

    println!("== Exhaustive violation search ==\n");
    for m in [1usize, 2] {
        let sys = racing_system(m, &inputs);
        let v = search_exhaustive(
            &sys,
            &inputs,
            &consensus(),
            Limits { max_depth: 40, max_configs: 500_000 },
        )
        .unwrap();
        match v {
            Some(revisionist_simulations::tasks::Violation::Task {
                violation,
                schedule,
                ..
            }) => {
                println!(
                    "racing m={m}: VIOLATION after {} steps: {violation}",
                    schedule.len()
                );
            }
            _ => println!("racing m={m}: no violation within the search bounds"),
        }
    }

    println!("\n== Obstruction-freedom certification ==\n");
    for (name, sys, budget) in [
        ("racing m=2", racing_system(2, &inputs), 60usize),
        ("ladder R=4", ladder_system(&inputs, 4), 80),
    ] {
        let explorer = Explorer::new(Limits { max_depth: 18, max_configs: 150_000 })
            .with_threads(0);
        let report = explorer.check_solo_termination(&sys, budget).unwrap();
        println!(
            "{name}: solo termination from {} reachable configs: {}{}",
            report.configs_visited,
            if report.is_clean() { "VERIFIED" } else { "FAILED" },
            if report.truncated { " (bounded)" } else { "" }
        );
    }
}
