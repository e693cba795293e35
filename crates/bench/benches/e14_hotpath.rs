//! E14: exploration hot-path microbenchmarks.
//!
//! Measures the costs the explorer pays per visited configuration —
//! fingerprinting, forking, terminal dedup, linearizability memoing —
//! plus end-to-end exploration throughput of the explorer at one worker
//! thread (the `serial_*` keys) and at `min(4, available_parallelism())`
//! threads (the `parallel_*` keys; the thread count is printed and
//! written to the summary). The
//! fingerprint arm is also compared with its floor: FNV-1a over the
//! pre-rendered key bytes, which no byte-identical encoding can beat
//! because FNV-1a consumes one byte at a time. Each arm is
//! reported next to the pre-optimisation baseline (measured on the same
//! workloads before the streaming-hash/copy-on-write rework, commit
//! `7b8e998`), and where the legacy code path still exists in-tree
//! (string fingerprinting, deep trace copies) it is measured live as a
//! `legacy_*` arm. Emits a machine-readable summary to
//! `BENCH_e14.json` (path override via the `BENCH_E14_OUT` environment
//! variable) for the `just bench-smoke` target.

use rsim_protocols::racing::racing_system;
use rsim_smr::explore::{Explorer, Limits};
use rsim_smr::fingerprint::fingerprint;
use rsim_smr::history::History;
use rsim_smr::linearizability::check;
use rsim_smr::object::{Object, ObjectId, Operation, Response};
use rsim_smr::process::{ProtocolStep, SnapshotProcess, SnapshotProtocol};
use rsim_smr::sched::RoundRobin;
use rsim_smr::system::System;
use rsim_smr::value::Value;
use std::hint::black_box;
use std::time::Instant;

/// Pre-optimisation reference numbers (ns unless noted), measured at
/// the seed commit on the container this suite ships in. They anchor
/// the printed speedup columns when the legacy path no longer exists to
/// measure (e.g. eager trace copies inside `System::clone`).
mod baseline {
    pub const FINGERPRINT_NS: f64 = 1065.8;
    pub const FORK_NS: [(usize, f64); 4] =
        [(16, 697.4), (64, 2575.3), (256, 9921.9), (1024, 49600.3)];
    /// Measured on the sequential DFS explorer, since removed; the
    /// serial arm now runs the frontier engine at one thread.
    pub const SERIAL_STATES_PER_SEC: f64 = 42_682.0;
    pub const PARALLEL_STATES_PER_SEC: f64 = 23_457.0;
    pub const LIN_CHECK_NS: f64 = 2_300.0;
}

fn ints(n: usize) -> Vec<Value> {
    (1..=n as i64).map(Value::Int).collect()
}

/// A process that alternates update/scan forever: lets the fork-cost
/// benchmark grow the execution trace to any target depth.
#[derive(Clone, Debug)]
struct Spinner {
    component: usize,
    counter: i64,
}

impl SnapshotProtocol for Spinner {
    fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
        self.counter += 1;
        ProtocolStep::Update(self.component, Value::Int(self.counter))
    }
    fn components(&self) -> usize {
        2
    }
}

fn spinner_system() -> System {
    let p0 = SnapshotProcess::new(Spinner { component: 0, counter: 0 }, ObjectId(0));
    let p1 = SnapshotProcess::new(Spinner { component: 1, counter: 0 }, ObjectId(0));
    System::new(vec![Object::snapshot(2)], vec![Box::new(p0), Box::new(p1)])
}

/// A system whose trace has exactly `depth` events, frozen the way the
/// explorer leaves a configuration before fanning out.
fn system_at_depth(depth: usize) -> System {
    let mut sys = spinner_system();
    let mut sched = RoundRobin::new();
    sys.run(&mut sched, depth).expect("spinner run");
    assert_eq!(sys.trace().len(), depth);
    sys.freeze_trace();
    sys
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

/// A linearizable history of `n` overlapping register writes+reads,
/// sized to exercise the Wing–Gong memo table.
fn overlapping_history(n: usize) -> History {
    let mut h = History::new();
    let mut write_ids = Vec::new();
    for i in 0..n {
        let id = h.invoke(
            i,
            Operation::Write { obj: ObjectId(0), value: Value::Int(i as i64 % 3) },
        );
        write_ids.push(id);
    }
    for id in write_ids {
        h.respond(id, Response::Ack);
    }
    let r = h.invoke(n, Operation::Read { obj: ObjectId(0) });
    h.respond(r, Response::Value(Value::Int((n as i64 - 1) % 3)));
    h
}

fn main() {
    let quick = samples(0) == 1;
    let mut json = Vec::new();
    println!("e14_hotpath: exploration hot-path microbenchmarks");
    println!("{}", "-".repeat(72));

    // -- fingerprint: streamed vs legacy string vs FNV floor --------------
    let sys = system_at_depth(12);
    let key = sys.config_key();
    let n = samples(200_000);
    let legacy_fp_ns = time_ns(n, || {
        black_box(fingerprint(&black_box(&sys).config_key()));
    });
    let streamed_fp_ns = time_ns(n, || {
        black_box(black_box(&sys).config_fingerprint());
    });
    let floor_fp_ns = time_ns(n, || {
        black_box(fingerprint(black_box(&key)));
    });
    println!("fingerprint/legacy_string   {legacy_fp_ns:>12.1} ns/op");
    println!(
        "fingerprint/streamed        {streamed_fp_ns:>12.1} ns/op  ({:.2}x vs legacy, {:.2}x vs baseline)",
        legacy_fp_ns / streamed_fp_ns,
        baseline::FINGERPRINT_NS / streamed_fp_ns,
    );
    println!(
        "fingerprint/fnv_floor       {floor_fp_ns:>12.1} ns/op  ({} key bytes; streamed is {:.2}x the floor)",
        key.len(),
        streamed_fp_ns / floor_fp_ns,
    );
    json.push(format!("    \"fingerprint_legacy_ns\": {legacy_fp_ns:.1}"));
    json.push(format!("    \"fingerprint_streamed_ns\": {streamed_fp_ns:.1}"));
    json.push(format!("    \"fingerprint_fnv_floor_ns\": {floor_fp_ns:.1}"));
    json.push(format!(
        "    \"fingerprint_streamed_to_floor\": {:.2}",
        streamed_fp_ns / floor_fp_ns
    ));

    // -- fork cost vs depth: CoW clone vs deep copy ----------------------
    let n = samples(50_000);
    let mut fork_1024_cow_ns = f64::NAN;
    for (depth, base_ns) in baseline::FORK_NS {
        let deep = system_at_depth(depth);
        let cow_ns = time_ns(n, || {
            black_box(black_box(&deep).clone());
        });
        // The old `System::clone` copied the whole event log; emulate it
        // by cloning plus materialising the trace.
        let legacy_ns = time_ns(n, || {
            let fork = black_box(&deep).clone();
            black_box(fork.trace().to_vec());
        });
        println!(
            "fork/cow_depth_{depth:<5}       {cow_ns:>12.1} ns/op  (deep copy {legacy_ns:.1} ns, baseline {base_ns:.1} ns, {:.1}x)",
            base_ns / cow_ns,
        );
        json.push(format!("    \"fork_depth_{depth}_ns\": {cow_ns:.1}"));
        json.push(format!("    \"fork_depth_{depth}_deep_copy_ns\": {legacy_ns:.1}"));
        if depth == 1024 {
            fork_1024_cow_ns = cow_ns;
        }
    }

    // -- serial exploration (one worker thread) -------------------------
    let initial = racing_system(2, &ints(3));
    let limits = Limits { max_depth: 64, max_configs: 20_000 };
    let explorer = Explorer::new(limits).with_threads(1);
    let report = explorer.explore_parallel(&initial, &|_| None).expect("explore");
    let states = report.configs_visited;
    let n = samples(10);
    let serial_ns = time_ns(n, || {
        black_box(explorer.explore_parallel(&initial, &|_| None).expect("explore"));
    });
    let serial_rate = states as f64 / (serial_ns / 1e9);
    println!(
        "explore/serial_1            {:>12.1} ms/run  ({states} states, {serial_rate:.0} states/s, {:.2}x vs baseline)",
        serial_ns / 1e6,
        serial_rate / baseline::SERIAL_STATES_PER_SEC,
    );
    json.push(format!("    \"serial_states\": {states}"));
    json.push(format!("    \"serial_states_per_sec\": {serial_rate:.0}"));

    // -- parallel exploration ---------------------------------------------
    // More threads than cores only measures oversubscription.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let par = Explorer::new(limits).with_threads(threads);
    let preport = par.explore_parallel(&initial, &|_| None).expect("explore");
    let pstates = preport.configs_visited;
    let n = samples(10);
    let par_ns = time_ns(n, || {
        black_box(par.explore_parallel(&initial, &|_| None).expect("explore"));
    });
    let par_rate = pstates as f64 / (par_ns / 1e9);
    println!(
        "explore/parallel_{threads}          {:>12.1} ms/run  ({pstates} states, {par_rate:.0} states/s, {:.2}x vs baseline)",
        par_ns / 1e6,
        par_rate / baseline::PARALLEL_STATES_PER_SEC,
    );
    json.push(format!("    \"threads\": {threads}"));
    json.push(format!("    \"parallel_states\": {pstates}"));
    json.push(format!("    \"parallel_states_per_sec\": {par_rate:.0}"));

    // -- linearizability memo throughput --------------------------------
    let hist = overlapping_history(if quick { 6 } else { 10 });
    let n = samples(50);
    let lin_ns = time_ns(n, || {
        black_box(check(black_box(&hist), Object::register()));
    });
    println!(
        "lin_check/overlapping       {:>12.1} µs/run  ({:.2}x vs baseline)",
        lin_ns / 1e3,
        baseline::LIN_CHECK_NS / lin_ns,
    );
    json.push(format!("    \"lin_check_ns\": {lin_ns:.0}"));

    // -- JSON summary ----------------------------------------------------
    let out = std::env::var("BENCH_E14_OUT").unwrap_or_else(|_| "BENCH_e14.json".into());
    let baseline_json = format!(
        "    \"fingerprint_legacy_ns\": {:.1},\n    \"fork_depth_16_ns\": {:.1},\n    \"fork_depth_64_ns\": {:.1},\n    \"fork_depth_256_ns\": {:.1},\n    \"fork_depth_1024_ns\": {:.1},\n    \"serial_states_per_sec\": {:.0},\n    \"parallel_states_per_sec\": {:.0},\n    \"lin_check_ns\": {:.0}",
        baseline::FINGERPRINT_NS,
        baseline::FORK_NS[0].1,
        baseline::FORK_NS[1].1,
        baseline::FORK_NS[2].1,
        baseline::FORK_NS[3].1,
        baseline::SERIAL_STATES_PER_SEC,
        baseline::PARALLEL_STATES_PER_SEC,
        baseline::LIN_CHECK_NS,
    );
    let body = format!(
        "{{\n  \"experiment\": \"e14_hotpath\",\n  \"baseline_commit\": \"7b8e998\",\n  \"baseline\": {{\n{baseline_json}\n  }},\n  \"measured\": {{\n{}\n  }},\n  \"speedup\": {{\n    \"fingerprint\": {:.2},\n    \"fork_depth_1024\": {:.2},\n    \"serial_states_per_sec\": {:.2},\n    \"parallel_states_per_sec\": {:.2}\n  }}\n}}\n",
        json.join(",\n"),
        baseline::FINGERPRINT_NS / streamed_fp_ns,
        baseline::FORK_NS[3].1 / fork_1024_cow_ns,
        serial_rate / baseline::SERIAL_STATES_PER_SEC,
        par_rate / baseline::PARALLEL_STATES_PER_SEC,
    );
    std::fs::write(&out, body).expect("write BENCH_e14.json");
    println!("{}", "-".repeat(72));
    println!("wrote {out}");
}
