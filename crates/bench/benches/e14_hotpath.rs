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
//! because FNV-1a consumes one byte at a time. Where the legacy code
//! path still exists in-tree (string fingerprinting, deep trace copies)
//! it is measured live, on the same host, as a `legacy_*` or
//! `deep_copy` arm. Emits a machine-readable summary to
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
        "fingerprint/streamed        {streamed_fp_ns:>12.1} ns/op  ({:.2}x vs legacy)",
        legacy_fp_ns / streamed_fp_ns,
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
    for depth in [16, 64, 256, 1024] {
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
            "fork/cow_depth_{depth:<5}       {cow_ns:>12.1} ns/op  (deep copy {legacy_ns:.1} ns, {:.1}x)",
            legacy_ns / cow_ns,
        );
        json.push(format!("    \"fork_depth_{depth}_ns\": {cow_ns:.1}"));
        json.push(format!("    \"fork_depth_{depth}_deep_copy_ns\": {legacy_ns:.1}"));
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
        "explore/serial_1            {:>12.1} ms/run  ({states} states, {serial_rate:.0} states/s)",
        serial_ns / 1e6,
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
        "explore/parallel_{threads}          {:>12.1} ms/run  ({pstates} states, {par_rate:.0} states/s)",
        par_ns / 1e6,
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
    println!("lin_check/overlapping       {:>12.1} µs/run", lin_ns / 1e3);
    json.push(format!("    \"lin_check_ns\": {lin_ns:.0}"));

    // -- JSON summary ----------------------------------------------------
    let out = std::env::var("BENCH_E14_OUT").unwrap_or_else(|_| "BENCH_e14.json".into());
    let body = format!(
        "{{\n  \"experiment\": \"e14_hotpath\",\n  \"measured\": {{\n{}\n  }}\n}}\n",
        json.join(",\n"),
    );
    std::fs::write(&out, body).expect("write BENCH_e14.json");
    println!("{}", "-".repeat(72));
    println!("wrote {out}");
}
