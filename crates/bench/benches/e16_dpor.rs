//! E16: happens-before-guided partial-order reduction.
//!
//! Measures what DPOR buys on the phased-racing family (the
//! `PhasedRacing` consensus protocol at growing process counts): forks
//! pruned vs configurations visited, the wall-clock speedup of the
//! reduced exploration over the unreduced one on the *same* workload,
//! and — because the reduction must never change what an exploration
//! finds — asserts report equality (visited, terminals, truncation,
//! violation) between the DPOR-on and DPOR-off runs of every arm.
//! Depth-bounded limits with no config cap keep that comparison exact
//! (a mid-level cap cuts in visit order and is legitimately
//! order-dependent). Also re-runs the E14 hot-path workload with the
//! reduction on (the explorer at one worker thread and at
//! `min(4, available_parallelism())` threads, written to the summary as
//! `threads`) and reports this host's states-per-second; compare
//! commits by running both on the same host. Emits `BENCH_e16.json`
//! (path override via `BENCH_E16_OUT`) for the `just bench-smoke`
//! target.

use rsim_protocols::racing::racing_system;
use rsim_protocols::serializable::serializable_system;
use rsim_smr::explore::{ExploreReport, Explorer, Limits};
use rsim_smr::process::ProcessId;
use rsim_smr::system::System;
use rsim_smr::value::Value;
use std::hint::black_box;
use std::time::Instant;

/// The phased-racing family: `procs` processes racing on a 2-component
/// snapshot, explored breadth-first to `depth` schedule steps. Depths
/// shrink as the family widens so every arm stays around 10^4..10^5
/// configurations.
const FAMILY: [(usize, usize); 4] = [(3, 12), (4, 10), (5, 9), (6, 8)];

fn ints(n: usize) -> Vec<Value> {
    (1..=n as i64).map(Value::Int).collect()
}

fn family_system(procs: usize) -> System {
    racing_system(2, &ints(procs))
}

/// Consensus agreement/validity over whatever outputs exist so far —
/// the realistic per-configuration checker cost for this family.
fn agreement_check(inputs: Vec<Value>) -> impl Fn(&System) -> Option<String> + Sync {
    move |sys: &System| {
        let mut decided: Option<Value> = None;
        for p in 0..sys.process_count() {
            if let Some(v) = sys.output(ProcessId(p)) {
                if !inputs.contains(&v) {
                    return Some(format!("validity: p{p} decided {v}"));
                }
                match &decided {
                    Some(d) if *d != v => {
                        return Some(format!("agreement: {d} vs {v}"));
                    }
                    _ => decided = Some(v),
                }
            }
        }
        None
    }
}

/// Mean ns/iter of `f` over `iters` runs (after one warm-up).
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn samples(default: usize) -> usize {
    std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

fn assert_equivalent(on: &ExploreReport, off: &ExploreReport, label: &str) {
    assert!(on.dpor && !off.dpor, "{label}: dpor flags misrecorded");
    assert_same_verdicts(on, off, label);
}

/// Report equality on every verdict observable (both runs reduced; the
/// static-seeding arm toggles only the matrix prefilter).
fn assert_same_verdicts(on: &ExploreReport, off: &ExploreReport, label: &str) {
    assert_eq!(on.configs_visited, off.configs_visited, "{label}: configs_visited");
    assert_eq!(on.terminals, off.terminals, "{label}: terminals");
    assert_eq!(on.truncated, off.truncated, "{label}: truncated");
    assert_eq!(on.violation, off.violation, "{label}: violation");
}

fn main() {
    let mut json = Vec::new();
    println!("e16_dpor: happens-before-guided partial-order reduction");
    println!("{}", "-".repeat(72));

    // -- phased-racing family: reduction factor + on/off speedup --------
    let mut headline_factor = 0.0f64;
    let n = samples(3);
    for (procs, depth) in FAMILY {
        let sys = family_system(procs);
        let check = agreement_check(ints(procs));
        let limits = Limits { max_depth: depth, max_configs: 8_000_000 };
        let run = |dpor: bool| {
            Explorer::new(limits)
                .with_threads(4)
                .with_dpor(dpor)
                .explore_parallel(&sys, &check)
                .expect("explore")
        };
        let on = run(true);
        let off = run(false);
        assert_equivalent(&on, &off, &format!("racing procs={procs}"));
        let on_ns = time_ns(n, || {
            black_box(run(true));
        });
        let off_ns = time_ns(n, || {
            black_box(run(false));
        });
        let factor = on.reduction_factor();
        headline_factor = headline_factor.max(factor);
        println!(
            "racing/procs_{procs}_depth_{depth}   {:>9} visited  {:>9} pruned  {factor:>5.2}x forks  ({:.0} ms on, {:.0} ms off, {:.2}x wall)",
            on.configs_visited,
            on.pruned,
            on_ns / 1e6,
            off_ns / 1e6,
            off_ns / on_ns,
        );
        json.push(format!(
            "    {{\"procs\": {procs}, \"depth\": {depth}, \"visited\": {}, \"pruned\": {}, \"reduction_factor\": {factor:.4}, \"verdicts_identical\": true, \"on_ms\": {:.1}, \"off_ms\": {:.1}, \"wall_speedup\": {:.2}}}",
            on.configs_visited,
            on.pruned,
            on_ns / 1e6,
            off_ns / 1e6,
            off_ns / on_ns,
        ));
    }
    assert!(
        headline_factor >= 2.0,
        "phased-racing family peaked at {headline_factor:.2}x — the ≥2x reduction gate failed"
    );

    // -- static-seeding arm: matrix prefilter on vs off ------------------
    // Two families: phased racing (all-scanning, so the matrix removes
    // no edges — the arm measures pure matrix overhead and proves the
    // reports stay identical) and the serializable blind-writer family
    // (edge-free matrix, where the prefilter answers every pair query
    // and DPOR collapses the exploration to one interleaving).
    let mut static_json = Vec::new();
    let n = samples(3);
    for (procs, depth) in FAMILY {
        let sys = family_system(procs);
        let check = agreement_check(ints(procs));
        let limits = Limits { max_depth: depth, max_configs: 8_000_000 };
        let run = |statics: bool| {
            Explorer::new(limits)
                .with_threads(4)
                .with_static(statics)
                .explore_parallel(&sys, &check)
                .expect("explore")
        };
        let on = run(true);
        let off = run(false);
        assert_same_verdicts(&on, &off, &format!("static racing procs={procs}"));
        assert_eq!(on.pruned, off.pruned, "static racing procs={procs}: pruned");
        let on_ns = time_ns(n, || {
            black_box(run(true));
        });
        let off_ns = time_ns(n, || {
            black_box(run(false));
        });
        let hits_per_config = on.prefilter_hits as f64 / on.configs_visited.max(1) as f64;
        println!(
            "static/racing_procs_{procs}       {:>9} indep pairs  {:>9} hits  ({:.3} hits/config, {:.0} ms on, {:.0} ms off)",
            on.static_indep_pairs,
            on.prefilter_hits,
            hits_per_config,
            on_ns / 1e6,
            off_ns / 1e6,
        );
        static_json.push(format!(
            "    {{\"family\": \"racing\", \"procs\": {procs}, \"static_indep_pairs\": {}, \"prefilter_hits\": {}, \"prefilter_hits_per_config\": {hits_per_config:.4}, \"verdicts_identical\": true, \"on_ms\": {:.1}, \"off_ms\": {:.1}}}",
            on.static_indep_pairs,
            on.prefilter_hits,
            on_ns / 1e6,
            off_ns / 1e6,
        ));
    }
    let mut serializable_fork_reduction = 0.0f64;
    for procs in 3..=6usize {
        let stamps: Vec<i64> = (1..=procs as i64).collect();
        let sys = serializable_system(&stamps);
        let limits = Limits { max_depth: 2 * procs + 2, max_configs: 8_000_000 };
        let run = |statics: bool| {
            Explorer::new(limits)
                .with_threads(4)
                .with_static(statics)
                .explore_parallel(&sys, &|_| None)
                .expect("explore")
        };
        let on = run(true);
        let off = run(false);
        assert_same_verdicts(&on, &off, &format!("serializable procs={procs}"));
        assert!(on.prefilter_hits > 0, "serializable procs={procs}: prefilter idle");
        assert_eq!(on.terminals, 1, "serializable procs={procs}: one schedule class");
        let factor = on.reduction_factor();
        serializable_fork_reduction = serializable_fork_reduction.max(factor);
        let hits_per_config = on.prefilter_hits as f64 / on.configs_visited.max(1) as f64;
        println!(
            "static/serializable_procs_{procs} {:>9} visited  {:>9} hits  {factor:>5.2}x forks  ({:.3} hits/config)",
            on.configs_visited, on.prefilter_hits, hits_per_config,
        );
        static_json.push(format!(
            "    {{\"family\": \"serializable\", \"procs\": {procs}, \"static_indep_pairs\": {}, \"prefilter_hits\": {}, \"prefilter_hits_per_config\": {hits_per_config:.4}, \"reduction_factor\": {factor:.4}, \"verdicts_identical\": true}}",
            on.static_indep_pairs,
            on.prefilter_hits,
        ));
    }
    assert!(
        serializable_fork_reduction >= 2.0,
        "serializable family peaked at {serializable_fork_reduction:.2}x — the ≥2x \
         fork-reduction gate on the fully-prefiltered family failed"
    );

    // -- E14 hot-path workloads with the reduction on --------------------
    let initial = racing_system(2, &ints(3));
    let limits = Limits { max_depth: 64, max_configs: 20_000 };
    let explorer = Explorer::new(limits).with_threads(1);
    let states =
        explorer.explore_parallel(&initial, &|_| None).expect("explore").configs_visited;
    let n = samples(10);
    let serial_ns = time_ns(n, || {
        black_box(explorer.explore_parallel(&initial, &|_| None).expect("explore"));
    });
    let serial_rate = states as f64 / (serial_ns / 1e9);
    println!(
        "explore/serial_1_dpor       {:>12.1} ms/run  ({states} states, {serial_rate:.0} states/s)",
        serial_ns / 1e6,
    );

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let par = Explorer::new(limits).with_threads(threads);
    let pstates =
        par.explore_parallel(&initial, &|_| None).expect("explore").configs_visited;
    let par_ns = time_ns(n, || {
        black_box(par.explore_parallel(&initial, &|_| None).expect("explore"));
    });
    let par_rate = pstates as f64 / (par_ns / 1e9);
    println!(
        "explore/parallel_{threads}_dpor     {:>12.1} ms/run  ({pstates} states, {par_rate:.0} states/s)",
        par_ns / 1e6,
    );

    // -- JSON summary ----------------------------------------------------
    let out = std::env::var("BENCH_E16_OUT").unwrap_or_else(|_| "BENCH_e16.json".into());
    let body = format!(
        "{{\n  \"experiment\": \"e16_dpor\",\n  \"family\": [\n{}\n  ],\n  \"static_seeding\": [\n{}\n  ],\n  \"headline_reduction_factor\": {headline_factor:.4},\n  \"serializable_reduction_factor\": {serializable_fork_reduction:.4},\n  \"serial_states\": {states},\n  \"serial_states_per_sec\": {serial_rate:.0},\n  \"threads\": {threads},\n  \"parallel_states\": {pstates},\n  \"parallel_states_per_sec\": {par_rate:.0}\n}}\n",
        json.join(",\n"),
        static_json.join(",\n"),
    );
    std::fs::write(&out, body).expect("write BENCH_e16.json");
    println!("{}", "-".repeat(72));
    println!("wrote {out}");
}
