//! The `revisionist-simulations` command-line tool.
//!
//! Subcommands:
//!
//! * `bounds [n] [k] [x]` — print the Corollary 33 bound table (or one
//!   grid point with the feasibility mechanism).
//! * `simulate --n N --m M --f F [--d D] [--seed S] [--trace]` — run
//!   one revisionist simulation over phased racing and report
//!   everything: outputs, budgets, revisions, replay validation.
//! * `sweep --n N --m M --f F [--runs R] [--threads T]` — batch
//!   statistics (the Theorem 21 contradiction frequency among them),
//!   fanned across cores with a deterministic aggregate.
//! * `campaign --protocol P --procs N [--sched S1,S2,...] [--runs R]
//!   [--budget B] [--seed-start S] [--threads T] [--json]` — a seeded
//!   randomised campaign over a protocol family and scheduler mix;
//!   every failure records its seed, and `--seed S --sched SPEC`
//!   replays a single run exactly. Hardening knobs: `--wall-limit SECS`
//!   and `--stop-after N` watchdogs (truncation is always reported),
//!   `--cache-budget N` (bounded fingerprint cache), and
//!   `--checkpoint PATH [--checkpoint-every N]` / `--resume PATH` for
//!   interruptible campaigns whose resumed aggregates are bit-for-bit
//!   those of an uninterrupted run.
//! * `explore --protocol P [--procs N] [--m M] [--depth D]
//!   [--max-configs C] [--threads T] [--no-dpor] [--seed S] [--json]` —
//!   bounded exhaustive model checking of one protocol fixture with the
//!   happens-before-guided partial-order reduction on by default:
//!   every interleaving up to the limits is covered, commuting-step
//!   twins cost one exploration, and the report carries the reduction
//!   metric (configs visited, forks pruned, reduction factor).
//!   `--no-dpor` is the escape hatch that branches on every enabled
//!   process (same verdicts, no pruning) — the flag is recorded in the
//!   report either way. Reports are bit-identical at any `--threads`.
//! * `campaign --faults PLANS|sweep[:MAXSTEP]` — fault-injection mode:
//!   fan the base `--sched` scheduler over a space of deterministic
//!   fault plans (`sweep` enumerates every single-crash placement) and
//!   certify non-blocking progress: survivors must terminate under
//!   every plan, and any outputs must still be valid. The plain-campaign
//!   flags `--seed`, `--wall-limit`, `--stop-after`, `--cache-budget`,
//!   `--checkpoint`, `--checkpoint-every` and `--resume` are rejected.
//! * `campaign-service --protocol P [--workers W] [--unit-runs U]
//!   [--state DIR] [--corpus DIR] [--chaos kill@unit:U,torn@result:U]`
//!   — the crash-tolerant multi-process campaign service: the matrix is
//!   partitioned into journaled work units leased to `campaign-worker`
//!   processes (heartbeats, lease expiry, retry-with-backoff,
//!   quarantine); the merged report is byte-identical to a
//!   single-process `campaign` run of the same spec, regardless of
//!   worker count, crashes, or chaos injection, and violation bundles
//!   land deduplicated in one corpus replayable by `replay`.
//! * `campaign-worker` — internal: a service worker process speaking
//!   length-prefixed JSON on stdio. Spawned by `campaign-service`, not
//!   meant for direct use.
//! * `aug --f F --m M [--ops K] [--seed S]` — drive the augmented
//!   snapshot under a random contended schedule and specification-check
//!   the run. With `--certify`, instead check every single-crash *and*
//!   single-stall placement in the Block-Update sequence (§3
//!   non-blocking certification).
//! * `replay BUNDLE.json [--threads T]` — load a portable replay
//!   bundle, re-execute its decision trace (`T` concurrent replays must
//!   all match), and exit 0 only if the recorded violation reproduces
//!   bit-for-bit. Campaign failures shrink automatically (ddmin over
//!   decisions and faults); `--bundle PATH` on `campaign` and
//!   `aug --certify` writes the minimized counterexample as a bundle.
//! * `analyze --protocol P [--procs N] [--m M] [--deny CODES] [--warn
//!   CODES] [--allow CODES] [--budget B] [--seed S] [--steps K]` — the
//!   pre-flight protocol analyzer: Pass 1 statically lints the
//!   protocol's footprints (single-writer discipline, ABA-freedom,
//!   Theorem 21 feasibility, dead steps, yield handling) and Pass 2
//!   happens-before-checks the trace of a seeded bounded round-robin
//!   run. Exits nonzero iff a deny-level diagnostic fires. The same
//!   analysis runs automatically before every `campaign` (skip with
//!   `--no-preflight`).
//! * `fuzz [--seeds A..B] [--mutants] [--corpus DIR]` — seeded
//!   generation of well-formed protocols (`gen:SEED` syntax usable with
//!   `campaign`/`analyze`/`replay` too) plus the mutation-kill harness:
//!   analyzer-reject mutants must die at pre-flight, must-violate
//!   mutants must be killed, shrunk, and bundled into the corpus, and
//!   must-stay-clean mutants must survive. Exit 0 iff every prediction
//!   holds; `--json` emits a report that is byte-identical at any
//!   `--threads`.
//! * `report` — the full experiments report (same as the
//!   `experiments_report` example).
//!
//! `--json-out PATH` on `campaign` writes the JSON report through the
//! same atomic tmp+rename path used for checkpoints and bundles.
//!
//! All arguments are plain `--key value` pairs; no external argument
//! parser is used.

use revisionist_simulations::core::bounds;
use revisionist_simulations::core::replay;
use revisionist_simulations::core::simulation::{Simulation, SimulationConfig};
use revisionist_simulations::core::stats;
use revisionist_simulations::protocols::racing::PhasedRacing;
use revisionist_simulations::smr::value::Value;
use revisionist_simulations::snapshot::client::AugOutcome;
use revisionist_simulations::tasks::agreement::consensus;
use revisionist_simulations::tasks::task::ColorlessTask;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    match command.as_str() {
        "bounds" => cmd_bounds(&args[1..]),
        "simulate" => cmd_simulate(&flags),
        "sweep" => cmd_sweep(&flags),
        "campaign" => cmd_campaign(&flags),
        "explore" => cmd_explore(&flags),
        "campaign-service" => cmd_campaign_service(&flags),
        "campaign-worker" => cmd_campaign_worker(&flags),
        "analyze" => cmd_analyze(&flags),
        "fuzz" => cmd_fuzz(&flags),
        "replay" => cmd_replay(&args[1..], &flags),
        "aug" => cmd_aug(&flags),
        "audit" => cmd_audit(&flags),
        "report" => {
            println!("run `cargo run --release --example experiments_report`");
            ExitCode::SUCCESS
        }
        "help" | "--help" | "-h" => {
            print_usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "revisionist-simulations — the PODC 2018 revisionist simulation, runnable\n\
         \n\
         USAGE:\n\
         \x20 revisionist-simulations bounds [N K X]\n\
         \x20 revisionist-simulations simulate --n N --m M --f F [--d D] [--seed S] [--trace]\n\
         \x20 revisionist-simulations sweep --n N --m M --f F [--runs R] [--threads T]\n\
         \x20 revisionist-simulations campaign [--protocol racing|contrarian|ladder|gen:SEED[:MUT]]\n\
         \x20\x20\x20\x20 [--procs N] [--m M] [--sched rr,random,quantum:2,obstruction:1,crash:1]\n\
         \x20\x20\x20\x20 [--runs R] [--budget B] [--seed-start S] [--threads T] [--json]\n\
         \x20\x20\x20\x20 [--seed S]  (replay one run with the first --sched spec)\n\
         \x20\x20\x20\x20 [--faults PLANS|sweep[:MAXSTEP]]  (fault-injection certification)\n\
         \x20\x20\x20\x20 [--wall-limit SECS] [--stop-after N] [--cache-budget N]\n\
         \x20\x20\x20\x20 [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]\n\
         \x20\x20\x20\x20 [--bundle PATH]  (shrink the first failure into a replay bundle)\n\
         \x20\x20\x20\x20 [--json-out PATH]  (atomic JSON report)\n\
         \x20\x20\x20\x20 [--no-preflight]  (skip the mandatory pre-flight analysis)\n\
         \x20 revisionist-simulations explore [--protocol racing|contrarian|ladder|serializable|gen:SEED[:MUT]]\n\
         \x20\x20\x20\x20 [--procs N] [--m M] [--rounds R] [--depth D] [--max-configs C]\n\
         \x20\x20\x20\x20 [--threads T] [--seed S] [--json] [--no-preflight]\n\
         \x20\x20\x20\x20 [--no-dpor]  (disable partial-order reduction; same verdicts, no pruning)\n\
         \x20\x20\x20\x20 [--no-static]  (skip the static independence matrix; same verdicts)\n\
         \x20 revisionist-simulations campaign-service [--protocol P] [--procs N] [--m M]\n\
         \x20\x20\x20\x20 [--sched S1,S2,...] [--runs R] [--budget B] [--seed-start S]\n\
         \x20\x20\x20\x20 [--faults PLANS|sweep[:MAXSTEP]]  (shard a fault matrix across workers)\n\
         \x20\x20\x20\x20 [--workers W] [--unit-runs U] [--state DIR] [--corpus DIR]\n\
         \x20\x20\x20\x20 [--listen ADDR]  (TCP transport; --workers 0 = externally managed fleet)\n\
         \x20\x20\x20\x20 [--chaos kill@unit:U,torn@result:U,drop@N,delay@N,dup@N,corrupt@N,partition@A-B]\n\
         \x20\x20\x20\x20 [--max-lease-attempts K] [--lease-timeout SECS] [--summary]\n\
         \x20\x20\x20\x20 [--json] [--json-out PATH] [--no-preflight]\n\
         \x20\x20\x20\x20 (crash-tolerant multi-process campaign; resumes from --state)\n\
         \x20 revisionist-simulations campaign-worker [--connect ADDR [--tag K]]\n\
         \x20\x20\x20\x20 (service worker: spawned over stdio pipes, or TCP via --connect)\n\
         \x20 revisionist-simulations analyze [--protocol racing|contrarian|ladder|illformed|serializable|gen:SEED[:MUT]]\n\
         \x20\x20\x20\x20 [--procs N] [--m M] [--rounds R] [--seed S] [--budget B] [--steps K]\n\
         \x20\x20\x20\x20 [--deny CODES] [--warn CODES] [--allow CODES]  (RS-Wxxx, comma-separated)\n\
         \x20\x20\x20\x20 [--matrix]  (print the static independence matrix and footprints)\n\
         \x20\x20\x20\x20 [--explain RS-W0NN]  (print the paper rationale for one lint code)\n\
         \x20 revisionist-simulations fuzz [--seeds A..B] [--mutants] [--corpus DIR]\n\
         \x20\x20\x20\x20 [--kill-runs R] [--clean-runs R] [--budget B] [--threads T]\n\
         \x20\x20\x20\x20 [--json] [--json-out PATH]  (generated-protocol mutation-kill fuzzing)\n\
         \x20 revisionist-simulations replay BUNDLE.json [--threads T]\n\
         \x20 revisionist-simulations aug --f F --m M [--ops K] [--seed S] [--certify]\n\
         \x20\x20\x20\x20 [--bundle PATH]  (bundle the first failed placement)\n\
         \x20 revisionist-simulations audit --n N --k K --x X --m M [--schedules S]\n\
         \x20 revisionist-simulations report"
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

/// Reads the numeric flag `--key`: `None` when it is absent. A
/// malformed value is never read as the default — it ends the process
/// with exit code 1 and a message naming the flag and the value.
fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    let raw = flags.get(key)?;
    match raw.parse() {
        Ok(value) => Some(value),
        Err(_) => {
            eprintln!("bad --{key} `{raw}` (expected a non-negative integer)");
            std::process::exit(1);
        }
    }
}

/// [`num`] with a default for an absent flag.
fn get(flags: &HashMap<String, String>, key: &str, default: usize) -> usize {
    num(flags, key).unwrap_or(default)
}

fn cmd_bounds(args: &[String]) -> ExitCode {
    let nums: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    match nums.as_slice() {
        [n, k, x] => {
            if !(1 <= *x && *x <= *k && *k < *n) {
                eprintln!("need 1 <= x <= k < n");
                return ExitCode::FAILURE;
            }
            let lo = bounds::kset_space_lower_bound(*n, *k, *x);
            let hi = bounds::kset_space_upper_bound(*n, *k, *x);
            println!("{x}-obstruction-free {k}-set agreement among {n} processes:");
            println!("  lower bound (Corollary 33): {lo} registers");
            println!("  upper bound (n-k+x, [16]):  {hi} registers");
            println!("  partition feasibility with f = k+1 simulators, d = x direct:");
            for m in 1..=*n {
                println!(
                    "    m = {m:>3}: {}",
                    if bounds::simulation_feasible(*n, m, k + 1, *x) {
                        "feasible  (m < bound: the reduction applies)"
                    } else {
                        "infeasible (m >= bound)"
                    }
                );
            }
        }
        _ => {
            println!("{:>4} {:>4} {:>4} | {:>6} {:>6}", "n", "k", "x", "lower", "upper");
            for n in [4usize, 8, 16, 32, 64] {
                for (k, x) in [(1usize, 1usize), (2, 1), (2, 2), (n / 2, 1), (n - 1, 1)] {
                    if k == 0 || k >= n || x > k {
                        continue;
                    }
                    println!(
                        "{:>4} {:>4} {:>4} | {:>6} {:>6}",
                        n,
                        k,
                        x,
                        bounds::kset_space_lower_bound(n, k, x),
                        bounds::kset_space_upper_bound(n, k, x)
                    );
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_simulate(flags: &HashMap<String, String>) -> ExitCode {
    let n = get(flags, "n", 4);
    let m = get(flags, "m", 2);
    let f = get(flags, "f", 2);
    let d = get(flags, "d", 0);
    let seed = get(flags, "seed", 0) as u64;
    let config = SimulationConfig::new(n, m, f, d);
    if !config.is_feasible() {
        eprintln!(
            "infeasible: ({f} - {d})*{m} + {d} > {n} — m is at or above the space bound"
        );
        return ExitCode::FAILURE;
    }
    let inputs: Vec<Value> = (1..=f as i64).map(Value::Int).collect();
    let mut sim = Simulation::new(config, inputs.clone(), move |i| {
        PhasedRacing::new(m, Value::Int(i as i64 + 1))
    })
    .expect("feasible");
    sim.run_random(seed, 50_000_000).expect("protocol is OF");
    println!(
        "simulation n={n} m={m} f={f} d={d} seed={seed}: {} H-steps",
        sim.real().log().len()
    );
    for i in 0..f {
        let (scans, bus) = sim.op_counts(i);
        println!(
            "  q{i}: output {:?}; {scans} Scans, {bus} Block-Updates (b({}) = {}), \
             {} revisions",
            sim.output(i),
            i + 1,
            bounds::b_bound(m, i + 1),
            sim.revisions(i).len()
        );
    }
    let outs: Vec<Value> = sim.outputs().into_iter().flatten().collect();
    match consensus().validate(&inputs, &outs) {
        Ok(()) => println!("  outputs satisfy consensus"),
        Err(e) => println!("  EXTRACTED VIOLATION: {e}"),
    }
    let report = replay::validate(&sim, move |i| {
        PhasedRacing::new(m, Value::Int(i as i64 + 1))
    })
    .expect("reconstruction");
    println!(
        "  Lemma 26/27 replay: {} ({} steps, {} hidden)",
        if report.is_ok() { "LEGAL" } else { "MISMATCH" },
        report.steps,
        report.hidden_steps
    );
    if flags.contains_key("trace") {
        println!("\nM operations:");
        for (idx, rec) in sim.real().oplog().iter().enumerate() {
            match &rec.outcome {
                AugOutcome::Scan(s) => {
                    println!("  #{idx:<3} q{}  Scan -> {:?}", rec.pid, s.view)
                }
                AugOutcome::BlockUpdate(b) => println!(
                    "  #{idx:<3} q{}  BU {:?} {:?} -> {}",
                    rec.pid,
                    b.components,
                    b.values,
                    match &b.result {
                        Some(v) => format!("atomic {v:?}"),
                        None => "YIELD".into(),
                    }
                ),
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_audit(flags: &HashMap<String, String>) -> ExitCode {
    use revisionist_simulations::core::audit::{audit_kset, AuditVerdict};
    let n = get(flags, "n", 4);
    let k = get(flags, "k", 1);
    let x = get(flags, "x", 1);
    let m = get(flags, "m", 2);
    let schedules = get(flags, "schedules", 300) as u64;
    if !(1 <= x && x <= k && k < n) {
        eprintln!("need 1 <= x <= k < n");
        return ExitCode::FAILURE;
    }
    let inputs: Vec<Value> = (1..=k as i64 + 1).map(Value::Int).collect();
    let verdict = audit_kset(
        n,
        k,
        x,
        m,
        &inputs,
        move |i| PhasedRacing::new(m, Value::Int(i as i64 + 1)),
        schedules,
    )
    .expect("audit run");
    println!(
        "audit: {x}-obstruction-free {k}-set agreement, n = {n}, claimed m = {m}"
    );
    match verdict {
        AuditVerdict::Consistent { bound, .. } => {
            println!("  CONSISTENT with Corollary 33 (bound {bound} <= m).");
            println!("  (Consistency does not certify correctness.)");
        }
        AuditVerdict::Impossible { bound, evidence, schedules_tried, .. } => {
            println!("  IMPOSSIBLE: m = {m} < {bound} = the Corollary 33 bound.");
            match evidence {
                Some(ev) => {
                    println!(
                        "  evidence: seed {} extracts wait-free outputs {:?} \
                         ({} H-steps) — a task violation.",
                        ev.seed, ev.outputs, ev.h_steps
                    );
                }
                None => println!(
                    "  no violating schedule within {schedules_tried} tries \
                     (the bound holds regardless)."
                ),
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_sweep(flags: &HashMap<String, String>) -> ExitCode {
    let n = get(flags, "n", 4);
    let m = get(flags, "m", 2);
    let f = get(flags, "f", 2);
    let runs = get(flags, "runs", 100) as u64;
    let config = SimulationConfig::new(n, m, f, 0);
    if !config.is_feasible() {
        eprintln!("infeasible partition");
        return ExitCode::FAILURE;
    }
    let threads = get(flags, "threads", 0);
    let inputs: Vec<Value> = (1..=f as i64).map(Value::Int).collect();
    let point = stats::sweep_parallel(
        config,
        &inputs,
        move |i| PhasedRacing::new(m, Value::Int(i as i64 + 1)),
        &consensus(),
        0..runs,
        50_000_000,
        threads,
    )
    .expect("sweep");
    println!("  n   m   f | runs   wf replay  viol |    maxH    meanH | maxBU≤b(i)");
    println!("{}", point.row());
    println!(
        "budgets hold: {}; revisions: {}; hidden steps: {}",
        point.budgets_hold(),
        point.revisions,
        point.hidden_steps
    );
    ExitCode::SUCCESS
}

/// A boxed seeded system factory for a campaign protocol family.
type ProtocolFactory =
    Box<dyn Fn(u64) -> revisionist_simulations::smr::system::System + Sync>;

/// Builds the seeded system factory for a campaign protocol family.
/// Shared by `campaign` (finding violations) and `replay` (reproducing
/// them from a bundle), so a bundle's `system` description rebuilds
/// exactly the system the campaign ran.
fn protocol_factory(
    protocol: &str,
    procs: usize,
    m: usize,
    rounds: usize,
) -> Option<ProtocolFactory> {
    use revisionist_simulations::protocols::contrarian::contrarian_system;
    use revisionist_simulations::protocols::illformed::illformed_system;
    use revisionist_simulations::protocols::ladder::ladder_system;
    use revisionist_simulations::protocols::racing::racing_system;
    use revisionist_simulations::protocols::serializable::serializable_system;
    let inputs: Vec<Value> = (1..=procs as i64).map(Value::Int).collect();
    // Generated protocols carry their whole configuration in the name
    // (`gen:SEED[:MUTATION]`); --procs/--m/--rounds are ignored.
    if protocol.starts_with("gen:") {
        return match revisionist_simulations::smr::gen::GenSpec::parse_cli(protocol) {
            Ok(spec) => Some(Box::new(move |_seed| spec.build_system())),
            Err(e) => {
                eprintln!("{e}");
                None
            }
        };
    }
    match protocol {
        "racing" => Some(Box::new(move |_seed| racing_system(m, &inputs))),
        "ladder" => Some(Box::new(move |_seed| ladder_system(&inputs, rounds))),
        "contrarian" => Some(Box::new(move |seed| {
            // Input bits vary with the seed so the campaign covers all
            // 2^procs input assignments (deterministically per seed).
            let bits: Vec<bool> = (0..procs).map(|i| (seed >> i) & 1 == 1).collect();
            contrarian_system(&bits)
        })),
        // The analyzer's acceptance fixture (fixed shape: 4 processes,
        // one 8-component single-writer snapshot). A campaign over it
        // is rejected by the pre-flight unless --no-preflight is given.
        "illformed" => Some(Box::new(move |_seed| illformed_system())),
        // The statically serializable fixture: n blind max-register
        // writers whose independence matrix is edge-free (RS-W010).
        "serializable" => Some(Box::new(move |_seed| {
            let stamps: Vec<i64> = (1..=procs as i64).collect();
            serializable_system(&stamps)
        })),
        _ => None,
    }
}

/// A boxed campaign check: inspects a terminated system, returns the
/// violation message if the protocol's task was violated.
type ProtocolCheck =
    Box<dyn Fn(&revisionist_simulations::smr::system::System) -> Option<String> + Sync>;

/// The campaign check for a protocol family. Terminated runs of the
/// agreement protocols must satisfy consensus; a violation is the
/// observable Theorem 21 artifact and is recorded with its replayable
/// seed. The contrarian family has no output task — there the campaign
/// measures termination only.
fn protocol_check(protocol: &str, procs: usize) -> ProtocolCheck {
    // Generated protocols use the fuzz harness's partial-output check —
    // the same message text, so fuzz-corpus bundle fingerprints
    // reproduce under `replay` and `campaign`.
    if protocol.starts_with("gen:") {
        if let Ok(spec) = revisionist_simulations::smr::gen::GenSpec::parse_cli(protocol)
        {
            return Box::new(revisionist_simulations::smr::gen::fuzz::consensus_check(
                spec.inputs(),
            ));
        }
    }
    // The contrarian family has no output task; the serializable
    // writers each output their own stamp, so consensus does not apply.
    let validate_consensus = protocol != "contrarian" && protocol != "serializable";
    let inputs: Vec<Value> = (1..=procs as i64).map(Value::Int).collect();
    Box::new(move |sys| {
        if !validate_consensus || !sys.all_terminated() {
            return None;
        }
        let outs: Vec<Value> = sys.outputs().into_iter().flatten().collect();
        consensus().validate(&inputs, &outs).err().map(|e| e.to_string())
    })
}

/// Captures and ddmin-minimises one failing cell: re-runs the
/// (spec, seed, plan) cell to record its decision trace, shrinks it
/// while preserving the violation fingerprint, prints the shrink ratio
/// (stderr, so `--json` stdout stays machine-parseable), and returns
/// the minimized counterexample as a portable replay bundle.
fn minimized_bundle(
    system: &[(String, String)],
    spec: &revisionist_simulations::smr::campaign::SchedulerSpec,
    seed: u64,
    budget: usize,
    plan: &revisionist_simulations::smr::fault::FaultPlan,
    factory: &dyn Fn(u64) -> revisionist_simulations::smr::system::System,
    check: revisionist_simulations::smr::shrink::CexCheck,
) -> Option<revisionist_simulations::smr::bundle::ReplayBundle> {
    use revisionist_simulations::smr::bundle::{tool_id, ReplayBundle, BUNDLE_VERSION};
    use revisionist_simulations::smr::shrink;

    let Some((cex, _)) = shrink::capture(spec, seed, budget, plan, factory, check)
    else {
        eprintln!("  could not re-capture the failure as a decision trace");
        return None;
    };
    let seeded = || factory(seed);
    let (shrunk, report) = shrink::shrink(&cex, &seeded, check);
    eprintln!("  shrunk counterexample: {}", report.ratio());
    let outcome = shrink::execute(&seeded, &shrunk, check);
    let (Some(violation), Some(fingerprint)) =
        (outcome.violation.clone(), outcome.fingerprint())
    else {
        eprintln!("  shrunk trace no longer violates — not bundling");
        return None;
    };
    Some(ReplayBundle {
        version: BUNDLE_VERSION,
        tool: tool_id(),
        system: system.to_vec(),
        scheduler: spec.to_string(),
        seed,
        plan: shrunk.plan.to_string(),
        decisions: shrunk.decisions.iter().map(|p| p.0).collect(),
        fingerprint,
        violation,
    })
}

/// The tail every campaign report shares, plain or `--faults`: writes
/// `--json-out`, then shrinks the first violating run, given as its
/// `(scheduler, fault plan, seed)` cell. A raw violating schedule is
/// replayable but noisy; the ddmin-minimized trace (and, with
/// `--bundle PATH`, its portable artifact) is the useful reproducer.
/// Returns false only when `--json-out` could not be written.
fn publish_campaign_report(
    flags: &HashMap<String, String>,
    json: &str,
    first_violation: Option<Result<FailingCell, String>>,
    budget: usize,
    bundle_system: &[(String, String)],
    factory: &dyn Fn(u64) -> revisionist_simulations::smr::system::System,
    check: revisionist_simulations::smr::shrink::CexCheck,
) -> bool {
    if !write_json_out(flags, json) {
        return false;
    }
    let (spec, plan, seed) = match first_violation {
        Some(Ok(cell)) => cell,
        Some(Err(e)) => {
            eprintln!("  cannot shrink failure: {e}");
            return true;
        }
        None => {
            if flags.contains_key("bundle") {
                eprintln!("  no violation to bundle (bundles record violations only)");
            }
            return true;
        }
    };
    let Some(minimized) =
        minimized_bundle(bundle_system, &spec, seed, budget, &plan, factory, check)
    else {
        return true;
    };
    if let Some(path) = flags.get("bundle") {
        match minimized.store(std::path::Path::new(path)) {
            Ok(()) => eprintln!("  replay bundle written to {path}"),
            Err(e) => eprintln!("  cannot write bundle {path}: {e}"),
        }
    }
    true
}

/// A failing run's replay coordinates: scheduler, fault plan, seed.
type FailingCell = (
    revisionist_simulations::smr::campaign::SchedulerSpec,
    revisionist_simulations::smr::fault::FaultPlan,
    u64,
);

/// Writes a JSON report atomically when `--json-out PATH` was given.
fn write_json_out(flags: &HashMap<String, String>, json: &str) -> bool {
    let Some(path) = flags.get("json-out") else {
        return true;
    };
    match revisionist_simulations::smr::json::write_atomic(
        std::path::Path::new(path),
        json,
    ) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("cannot write --json-out {path}: {e}");
            false
        }
    }
}

/// The `explore` subcommand: bounded exhaustive model checking of one
/// protocol fixture through the deterministic parallel frontier, with
/// happens-before-guided partial-order reduction on by default
/// (`--no-dpor` disables it; the active setting is recorded in the
/// report so artifacts stay self-describing). Exits nonzero on a
/// violation or an exploration error.
fn cmd_explore(flags: &HashMap<String, String>) -> ExitCode {
    use revisionist_simulations::smr::explore::{Explorer, Limits};

    let protocol = flags.get("protocol").map_or("racing", String::as_str);
    let procs = get(flags, "procs", 3);
    let m = get(flags, "m", 2);
    let rounds = get(flags, "rounds", 3);
    let depth = get(flags, "depth", 64);
    let max_configs = get(flags, "max-configs", 200_000);
    let threads = get(flags, "threads", 1).max(1);
    let dpor = !flags.contains_key("no-dpor");
    let statics = !flags.contains_key("no-static");
    let seed: u64 = num(flags, "seed").unwrap_or(0);

    let Some(factory) = protocol_factory(protocol, procs, m, rounds) else {
        eprintln!("unknown protocol: {protocol}");
        return ExitCode::FAILURE;
    };
    let system = factory(seed);
    let check = protocol_check(protocol, procs);
    let explorer = Explorer::new(Limits { max_depth: depth, max_configs })
        .with_threads(threads)
        .with_dpor(dpor)
        .with_static(statics)
        .with_preflight(!flags.contains_key("no-preflight"));
    let start = std::time::Instant::now();
    let report = match explorer.explore_parallel(&system, &*check) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("exploration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();
    let states_per_sec = report.configs_visited as f64 / elapsed.as_secs_f64().max(1e-9);

    if flags.contains_key("json") {
        let violation = report.violation.as_ref().map_or("null".to_string(), |(sched, msg)| {
            format!(
                "{{\"schedule\": [{}], \"message\": {}}}",
                sched.iter().map(|p| p.0.to_string()).collect::<Vec<_>>().join(", "),
                revisionist_simulations::smr::json::escape(msg),
            )
        });
        println!(
            "{{\n  \"protocol\": {},\n  \"procs\": {},\n  \"threads\": {},\n  \
             \"dpor\": {},\n  \"static_seed\": {},\n  \"static_indep_pairs\": {},\n  \
             \"prefilter_hits\": {},\n  \
             \"configs_visited\": {},\n  \"terminals\": {},\n  \
             \"pruned\": {},\n  \"reduction_factor\": {:.4},\n  \
             \"truncated\": {},\n  \"truncation\": {},\n  \"violation\": {},\n  \
             \"elapsed_ms\": {},\n  \"states_per_sec\": {:.0}\n}}",
            revisionist_simulations::smr::json::escape(protocol),
            system.process_count(),
            threads,
            report.dpor,
            report.static_seed,
            report.static_indep_pairs,
            report.prefilter_hits,
            report.configs_visited,
            report.terminals,
            report.pruned,
            report.reduction_factor(),
            report.truncated,
            report
                .truncation
                .as_deref()
                .map_or("null".into(), revisionist_simulations::smr::json::escape),
            violation,
            elapsed.as_millis(),
            states_per_sec,
        );
    } else {
        println!(
            "explore {protocol}: {} processes, depth ≤ {depth}, threads {threads}, \
             dpor {}, static seeding {}",
            system.process_count(),
            if report.dpor { "on" } else { "off" },
            if report.static_seed { "on" } else { "off" },
        );
        if report.static_seed {
            println!(
                "  static matrix: {} independent pairs, {} prefilter hits",
                report.static_indep_pairs, report.prefilter_hits,
            );
        }
        println!(
            "  visited {} configurations ({} terminals) in {:.1}ms ({:.0} states/s)",
            report.configs_visited,
            report.terminals,
            elapsed.as_secs_f64() * 1e3,
            states_per_sec,
        );
        println!(
            "  reduction: {} forks pruned, factor {:.2}x",
            report.pruned,
            report.reduction_factor(),
        );
        if report.truncated {
            println!(
                "  TRUNCATED: {}",
                report.truncation.as_deref().unwrap_or("limits reached")
            );
        }
        match &report.violation {
            None => println!("  no violations"),
            Some((sched, msg)) => {
                println!("  VIOLATION: {msg}");
                println!(
                    "  schedule: {}",
                    sched.iter().map(|p| format!("p{}", p.0)).collect::<Vec<_>>().join(" ")
                );
            }
        }
    }
    if report.violation.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The set-up `campaign` and `campaign-service` share: parses the
/// `--sched` mix — exactly one spec under `--faults`, whose matrix runs
/// every plan on one base scheduler — builds the protocol factory, and
/// runs the mandatory pre-flight, which lints the system before any
/// run burns exploration time. Warnings go to stderr (stdout stays
/// machine-parseable for `--json`); deny-level findings reject the
/// `what` unless `--no-preflight`. Errors are printed; `None` means
/// exit 1.
fn campaign_setup(
    flags: &HashMap<String, String>,
    protocol: &str,
    procs: usize,
    m: usize,
    rounds: usize,
    what: &str,
) -> Option<(
    Vec<revisionist_simulations::smr::campaign::SchedulerSpec>,
    ProtocolFactory,
)> {
    use revisionist_simulations::smr::analyze::LintConfig;
    use revisionist_simulations::smr::campaign::{preflight_campaign, SchedulerSpec};

    let raw = flags.get("sched").map_or("random", String::as_str);
    let mut specs = Vec::new();
    for part in raw.split(',').filter(|p| !p.is_empty()) {
        match SchedulerSpec::parse(part) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("{e}");
                eprintln!(
                    "valid --sched specs: rr | random | quantum:Q | obstruction:X \
                     | crash:C (comma-separated)"
                );
                return None;
            }
        }
    }
    if specs.is_empty() {
        eprintln!("--sched needs at least one scheduler spec");
        return None;
    }
    if specs.len() > 1 && flags.contains_key("faults") {
        eprintln!(
            "--faults takes exactly one --sched spec (the base scheduler), \
             got `{raw}`"
        );
        return None;
    }
    let Some(factory) = protocol_factory(protocol, procs, m, rounds) else {
        eprintln!(
            "unknown --protocol {protocol} (racing, contrarian, ladder, illformed, \
             serializable, gen:SEED[:MUTATION])"
        );
        return None;
    };
    if !flags.contains_key("no-preflight") {
        let base_seed = get(flags, "seed-start", 0) as u64;
        match preflight_campaign(&factory, base_seed, &LintConfig::default()) {
            Ok(report) => {
                if report.warn_count() > 0 {
                    eprintln!("{}", report.render());
                }
                eprintln!("preflight: ok ({} warnings)", report.warn_count());
            }
            Err(e) => {
                eprintln!("{e}");
                eprintln!("(--no-preflight runs the {what} anyway)");
                return None;
            }
        }
    }
    Some((specs, factory))
}

/// The ordered system description stamped into replay bundles and
/// service work units: how `replay` and `campaign-worker` rebuild
/// exactly this campaign's system and check.
fn campaign_system(
    protocol: &str,
    procs: usize,
    m: usize,
    rounds: usize,
) -> Vec<(String, String)> {
    vec![
        ("kind".into(), "campaign".into()),
        ("protocol".into(), protocol.to_string()),
        ("procs".into(), procs.to_string()),
        ("m".into(), m.to_string()),
        ("rounds".into(), rounds.to_string()),
    ]
}

fn cmd_campaign(flags: &HashMap<String, String>) -> ExitCode {
    use revisionist_simulations::smr::campaign::{
        replay_run, run_campaign_with, CampaignCheckpoint, CampaignConfig,
        CampaignOptions, SchedulerSpec,
    };
    use revisionist_simulations::smr::fault::FaultPlan;
    use std::time::Duration;

    // A fault report has no replay mode and no truncation, cache or
    // checkpoint fields, so these plain-campaign flags would be ignored.
    const PLAIN_ONLY: [&str; 7] = [
        "seed", "wall-limit", "stop-after", "cache-budget", "checkpoint",
        "checkpoint-every", "resume",
    ];
    if flags.contains_key("faults") {
        if let Some(flag) = PLAIN_ONLY.iter().find(|f| flags.contains_key(**f)) {
            eprintln!("--{flag} does not apply to a --faults campaign");
            if *flag == "seed" {
                eprintln!("to replay one fault run: --faults PLAN --seed-start S --runs 1");
            }
            return ExitCode::FAILURE;
        }
    }
    let protocol = flags.get("protocol").map_or("racing", String::as_str);
    let procs = get(flags, "procs", 3);
    let m = get(flags, "m", 2);
    let rounds = get(flags, "rounds", 3);
    let Some((specs, factory)) =
        campaign_setup(flags, protocol, procs, m, rounds, "campaign")
    else {
        return ExitCode::FAILURE;
    };
    let budget = get(flags, "budget", 2_000);
    let bundle_system = campaign_system(protocol, procs, m, rounds);

    if let Some(faults_raw) = flags.get("faults") {
        return cmd_campaign_faults(
            flags,
            faults_raw,
            &specs[0],
            protocol,
            procs,
            &factory,
            &bundle_system,
        );
    }
    let check = protocol_check(protocol, procs);
    if let Some(seed) = num::<u64>(flags, "seed") {
        let record = replay_run(&specs[0], seed, budget, &factory, &check);
        println!(
            "replay {} seed {}: {} steps, {}",
            record.scheduler,
            record.seed,
            record.steps,
            if record.terminated { "terminated" } else { "not terminated" }
        );
        match (&record.violation, &record.error) {
            (Some(v), _) => println!("  VIOLATION: {v}"),
            (None, Some(e)) => println!("  ERROR: {e}"),
            (None, None) => println!("  clean"),
        }
        return ExitCode::SUCCESS;
    }

    let config = CampaignConfig {
        schedulers: specs,
        seed_start: get(flags, "seed-start", 0) as u64,
        runs: get(flags, "runs", 100),
        budget,
        threads: get(flags, "threads", 0),
    };
    // The campaign identity stamped into checkpoints; resume refuses a
    // checkpoint from any other campaign instead of silently merging
    // incompatible aggregates.
    let spec_id =
        revisionist_simulations::smr::campaign::campaign_spec_id(protocol, &config);
    let mut options = CampaignOptions {
        wall_limit: num(flags, "wall-limit").map(Duration::from_secs),
        stop_after: num(flags, "stop-after"),
        cache_budget: num(flags, "cache-budget"),
        checkpoint_every: num(flags, "checkpoint-every"),
        checkpoint_path: flags.get("checkpoint").map(std::path::PathBuf::from),
        resume_from: None,
        spec_id: Some(spec_id.clone()),
    };
    if let Some(path) = flags.get("resume") {
        match CampaignCheckpoint::load(std::path::Path::new(path)) {
            Ok(checkpoint) => {
                if let Err(e) = checkpoint.ensure_matches(&spec_id) {
                    eprintln!("cannot resume: {e}");
                    return ExitCode::FAILURE;
                }
                options.resume_from = Some(checkpoint);
                // Keep checkpointing to the same file unless overridden.
                if options.checkpoint_path.is_none() {
                    options.checkpoint_path = Some(std::path::PathBuf::from(path));
                }
            }
            Err(e) => {
                eprintln!("cannot resume: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = run_campaign_with(&config, &options, &factory, &check);
    let first_violation = report.failures.iter().find(|r| r.violation.is_some()).map(|r| {
        SchedulerSpec::parse(&r.scheduler)
            .map(|spec| (spec, FaultPlan::none(), r.seed))
            .map_err(|e| e.to_string())
    });
    if !publish_campaign_report(
        flags,
        &report.to_json(),
        first_violation,
        budget,
        &bundle_system,
        &|seed| factory(seed),
        &|sys, _crashed| check(sys),
    ) {
        return ExitCode::FAILURE;
    }
    if flags.contains_key("json") {
        print!("{}", report.to_json());
        return ExitCode::SUCCESS;
    }
    println!(
        "campaign: protocol={protocol} procs={procs} schedulers=[{}] \
         seeds={}..{}",
        config
            .schedulers
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(","),
        config.seed_start,
        config.seed_start + config.runs as u64,
    );
    print_campaign_outcome(&report);
    ExitCode::SUCCESS
}

/// The human-readable body of a campaign report, shared by `campaign`
/// and `campaign-service`: aggregates, truncation and degradation
/// notices, per-scheduler tallies, and the first failing runs with
/// their replay flags.
fn print_campaign_outcome(
    report: &revisionist_simulations::smr::campaign::CampaignReport,
) {
    println!(
        "  {} runs: {} terminated, {} distinct configs, {} total steps",
        report.total_runs,
        report.terminated_runs,
        report.distinct_configs,
        report.total_steps,
    );
    if let Some(notice) = &report.truncation {
        println!("  TRUNCATED: {notice} ({} runs skipped)", report.skipped_runs);
    }
    if report.cache_truncated {
        println!(
            "  note: fingerprint cache hit its budget; distinct configs is a \
             lower bound"
        );
    }
    if report.degraded_runs > 0 {
        println!(
            "  {} runs executed at a quarter budget past the wall-clock soft deadline",
            report.degraded_runs
        );
    }
    for tally in &report.per_scheduler {
        println!(
            "  {:<14} {} runs, {} terminated, {} failures",
            tally.scheduler, tally.runs, tally.terminated, tally.failures
        );
    }
    if report.failures.is_empty() {
        println!("  no violations or errors");
    } else {
        println!("  {} failing runs (each replayable):", report.failures.len());
        for r in report.failures.iter().take(10) {
            println!(
                "    --sched {} --seed {}: {}",
                r.scheduler,
                r.seed,
                r.violation.as_deref().or(r.error.as_deref()).unwrap_or("?")
            );
        }
        if report.failures.len() > 10 {
            println!("    ... and {} more", report.failures.len() - 10);
        }
    }
}

/// The `analyze` subcommand: Pass 1 (static lint of the protocol's
/// footprints) plus Pass 2 (happens-before check of a seeded bounded
/// round-robin run). A runtime `WriterViolation` during the driven run
/// is converted into an RS-W006 diagnostic (and the offending process
/// marked stuck) instead of aborting — the ill-formed fixture's
/// trespasser is reportable, not fatal. Exits nonzero iff any
/// deny-level diagnostic fires.
fn cmd_analyze(flags: &HashMap<String, String>) -> ExitCode {
    use revisionist_simulations::smr::analyze::{self, LintCode, LintConfig};
    use revisionist_simulations::smr::error::ModelError;
    use revisionist_simulations::smr::process::ProcessId;

    // `--explain RS-W0NN` needs no protocol: print the code's summary
    // and paper rationale, exit 1 on an unknown code (with the parser's
    // did-you-mean suggestion on stderr).
    if let Some(spec) = flags.get("explain") {
        return match LintCode::parse(spec) {
            Ok(code) => {
                println!("{}: {}", code.id(), code.summary());
                println!();
                println!("{}", code.rationale());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                eprintln!("known lint codes: {}", analyze::known_codes());
                ExitCode::FAILURE
            }
        };
    }

    let protocol = flags.get("protocol").map_or("racing", String::as_str);
    let procs = get(flags, "procs", 3);
    let m = get(flags, "m", 2);
    let rounds = get(flags, "rounds", 3);
    let budget = get(flags, "budget", analyze::DEFAULT_BUDGET);
    let seed = get(flags, "seed", 0) as u64;
    let steps = get(flags, "steps", 2_000);

    let mut config = LintConfig::default();
    let deny = flags.get("deny").map_or("", String::as_str);
    let warn = flags.get("warn").map_or("", String::as_str);
    let allow = flags.get("allow").map_or("", String::as_str);
    if let Err(e) = config.apply_overrides(deny, warn, allow) {
        eprintln!("{e}");
        eprintln!("known lint codes: {}", analyze::known_codes());
        return ExitCode::FAILURE;
    }

    let Some(factory) = protocol_factory(protocol, procs, m, rounds) else {
        eprintln!(
            "unknown --protocol {protocol} (racing, contrarian, ladder, illformed, \
             serializable, gen:SEED[:MUTATION])"
        );
        return ExitCode::FAILURE;
    };
    let initial = factory(seed);
    let n = initial.process_count();
    println!(
        "analyze: protocol={protocol} n={n} m={} (seed {seed})",
        initial.space_complexity()
    );

    // Pass 1: static lint — no schedule executes.
    let mut findings = analyze::lint_system(&initial, budget);

    // Pass 3: static interference over the same covering budget.
    // `--matrix` prints the exact matrix the findings derive from.
    let matrix = analyze::InterferenceMatrix::build(&initial, budget);
    if flags.contains_key("matrix") {
        println!("{}", matrix.render());
    }
    findings.extend(analyze::interfere_findings(&initial, &matrix));

    // Pass 2: happens-before check over a seeded bounded round-robin
    // run. Ownership violations the runtime rejects become RS-W006
    // findings; the trace itself then replays cleanly.
    let mut sys = initial.clone();
    let mut stuck = vec![false; n];
    for slot in 0..steps {
        let pid = ProcessId(slot % n);
        if stuck[pid.0] || sys.is_terminated(pid) {
            if (0..n).all(|i| stuck[i] || sys.is_terminated(ProcessId(i))) {
                break;
            }
            continue;
        }
        match sys.step(pid) {
            Ok(_) => {}
            Err(ModelError::WriterViolation { process, component }) => {
                findings.push((
                    LintCode::HappensBefore,
                    format!(
                        "run (seed {seed}): runtime rejected p{process}'s write to \
                         single-writer component {component}; process marked stuck"
                    ),
                ));
                stuck[process] = true;
            }
            Err(e) => {
                eprintln!("analyze: driven run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let events = sys.trace().to_vec();
    findings.extend(analyze::check_execution(&initial, &events));

    let report = analyze::AnalysisReport::from_findings(findings, &config);
    for diagnostic in &report.diagnostics {
        println!("{diagnostic}");
    }
    if report.is_clean() {
        println!("analysis: clean ({} warnings)", report.warn_count());
        ExitCode::SUCCESS
    } else {
        println!(
            "analysis: {} deny-level, {} warn-level diagnostics",
            report.deny_count(),
            report.warn_count()
        );
        ExitCode::FAILURE
    }
}

/// The `fuzz` subcommand: seeded protocol generation plus the
/// mutation-kill harness. Exit code 0 iff every generated base passed
/// pre-flight and every mutant matched its paper-predicted verdict.
fn cmd_fuzz(flags: &HashMap<String, String>) -> ExitCode {
    use revisionist_simulations::smr::gen::fuzz::MutantResult;
    use revisionist_simulations::smr::gen::{run_fuzz, FuzzConfig};

    let seeds_raw = flags.get("seeds").map_or("0..16", String::as_str);
    let seeds = match seeds_raw.split_once("..") {
        Some((a, b)) => match (a.parse::<u64>(), b.parse::<u64>()) {
            (Ok(a), Ok(b)) if a < b => a..b,
            _ => {
                eprintln!("bad --seeds `{seeds_raw}` (need A..B with A < B)");
                return ExitCode::FAILURE;
            }
        },
        None => {
            eprintln!("bad --seeds `{seeds_raw}` (need A..B, e.g. 0..100)");
            return ExitCode::FAILURE;
        }
    };
    let defaults = FuzzConfig::default();
    let config = FuzzConfig {
        seeds,
        mutants: flags.contains_key("mutants"),
        corpus: flags.get("corpus").map(std::path::PathBuf::from),
        kill_runs: get(flags, "kill-runs", defaults.kill_runs as usize) as u64,
        clean_runs: get(flags, "clean-runs", defaults.clean_runs as usize) as u64,
        budget: get(flags, "budget", defaults.budget),
        threads: get(flags, "threads", 0),
    };

    let report = run_fuzz(&config);
    let json = report.to_json();
    if !write_json_out(flags, &json) {
        return ExitCode::FAILURE;
    }
    if flags.contains_key("json") {
        print!("{json}");
    } else {
        println!(
            "fuzz: {} protocols generated from seeds {}..{}",
            report.generated(),
            config.seeds.start,
            config.seeds.end
        );
        println!(
            "  preflight: {} ok, {} rejected",
            report.generated() - report.preflight_rejected(),
            report.preflight_rejected()
        );
        if config.mutants {
            println!(
                "  must-violate:    {} killed, {} survived",
                report.killed(),
                report.survived()
            );
            println!(
                "  must-stay-clean: {} clean, {} flagged",
                report.clean(),
                report.flagged()
            );
            println!(
                "  analyzer-reject: {} rejected at preflight, {} missed",
                report.rejected(),
                report.rejected_missed()
            );
            println!("  bundles stored:  {}", report.bundles_stored());
        }
        for seed in &report.per_seed {
            for mutant in &seed.mutants {
                if !mutant.prediction_held() {
                    println!(
                        "  PREDICTION FAILED: gen:{}:{} predicted {}, got {}",
                        seed.seed,
                        mutant.mutation.name(),
                        mutant.mutation.verdict().name(),
                        mutant.result.tag()
                    );
                    if let MutantResult::Flagged { seed: s, violation } = &mutant.result
                    {
                        println!("    run seed {s}: {violation}");
                    }
                }
            }
        }
        println!(
            "fuzz: predictions {}",
            if report.predictions_hold() { "hold" } else { "VIOLATED" }
        );
    }
    if report.predictions_hold() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--faults` usage hint, shared by `campaign` and
/// `campaign-service`.
const FAULTS_HINT: &str = "valid --faults: `sweep[:MAXSTEP]` (every single-crash \
                           placement) or comma-separated plans of crash@P:S, \
                           stall@P:FROM-TO, crash-after@P:OP:K joined by `+`";

/// Expands a `--faults` argument into concrete fault plans: `sweep`
/// crashes each process before each Block-Update step, anything else
/// is a comma-separated plan list.
fn parse_fault_plans(
    faults_raw: &str,
    procs: usize,
) -> Result<Vec<revisionist_simulations::smr::fault::FaultPlan>, String> {
    use revisionist_simulations::smr::fault::FaultPlan;
    let plans = if let Some(rest) = faults_raw.strip_prefix("sweep") {
        let max_step = if rest.is_empty() {
            5 // The 6-step Block-Update sequence: crash before each step.
        } else if let Some(bound) = rest.strip_prefix(':') {
            bound
                .parse()
                .map_err(|_| format!("bad --faults sweep bound `{bound}`"))?
        } else {
            return Err(format!("bad --faults `{faults_raw}`"));
        };
        FaultPlan::single_crash_plans(procs, max_step)
    } else {
        let mut parsed = Vec::new();
        for part in faults_raw.split(',').filter(|p| !p.is_empty()) {
            parsed.push(FaultPlan::parse(part).map_err(|e| e.to_string())?);
        }
        parsed
    };
    if plans.is_empty() {
        return Err("--faults needs at least one plan".into());
    }
    Ok(plans)
}

/// The fault-campaign certificate for a protocol family, shared by the
/// single-process `campaign --faults` runner and service workers — both
/// sides must agree exactly or merged fault reports would drift from
/// the single-process reference.
///
/// Validity survives crashes: any output a survivor produces must be
/// some process's input. Agreement need not — obstruction-free
/// consensus is not crash-tolerant, which is the paper's point — so
/// the certificate here is non-blocking progress plus validity.
fn fault_validity_check(
    protocol: &str,
    procs: usize,
) -> impl Fn(
    &revisionist_simulations::smr::system::System,
    &[revisionist_simulations::smr::process::ProcessId],
) -> Option<String>
       + Sync {
    let inputs: Option<Vec<Value>> = (protocol != "contrarian")
        .then(|| (1..=procs as i64).map(Value::Int).collect());
    move |sys, _crashed| {
        let inputs = inputs.as_ref()?;
        sys.outputs()
            .into_iter()
            .flatten()
            .find(|out| !inputs.contains(out))
            .map(|out| format!("output {out:?} is not any process's input"))
    }
}

/// `campaign --faults`: runs the fault matrix (plans × seeds on the one
/// base scheduler) and certifies it; exits 1 unless every run certified.
fn cmd_campaign_faults(
    flags: &HashMap<String, String>,
    faults_raw: &str,
    base: &revisionist_simulations::smr::campaign::SchedulerSpec,
    protocol: &str,
    procs: usize,
    factory: &ProtocolFactory,
    bundle_system: &[(String, String)],
) -> ExitCode {
    use revisionist_simulations::smr::campaign::{run_fault_campaign, FaultCampaignConfig};
    use revisionist_simulations::smr::fault::FaultPlan;

    let plans = match parse_fault_plans(faults_raw, procs) {
        Ok(plans) => plans,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{FAULTS_HINT}");
            return ExitCode::FAILURE;
        }
    };
    let config = FaultCampaignConfig {
        base: base.clone(),
        plans,
        seed_start: get(flags, "seed-start", 0) as u64,
        runs: get(flags, "runs", 100),
        budget: get(flags, "budget", 2_000),
        threads: get(flags, "threads", 0),
    };
    let check = fault_validity_check(protocol, procs);
    let report = run_fault_campaign(&config, factory, &check);
    // As in the plain campaign, the first violating run shrinks — here
    // over its decisions *and* its fault plan.
    let first_violation = report.failures.iter().find(|r| r.violation.is_some()).map(|r| {
        FaultPlan::parse(&r.plan)
            .map(|plan| (config.base.clone(), plan, r.seed))
            .map_err(|e| e.to_string())
    });
    if !publish_campaign_report(
        flags,
        &report.to_json(),
        first_violation,
        config.budget,
        bundle_system,
        &|seed| factory(seed),
        &check,
    ) {
        return ExitCode::FAILURE;
    }
    if flags.contains_key("json") {
        print!("{}", report.to_json());
        return if report.is_certified() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    println!(
        "fault campaign: base={} plans={} seeds={}..{}",
        report.scheduler,
        report.plans,
        config.seed_start,
        config.seed_start + config.runs as u64,
    );
    print_fault_outcome(&report)
}

/// The human-readable body of a fault report, shared by `campaign
/// --faults` and `campaign-service --faults`; exits 1 unless certified.
fn print_fault_outcome(
    report: &revisionist_simulations::smr::campaign::FaultCampaignReport,
) -> ExitCode {
    println!(
        "  {} runs, {} certified, {} total steps",
        report.total_runs, report.certified_runs, report.total_steps,
    );
    if report.missing_runs > 0 {
        println!(
            "  {} runs missing (quarantined units veto certification)",
            report.missing_runs
        );
    }
    if report.is_certified() {
        println!("  CERTIFIED: survivors made progress under every fault plan");
        return ExitCode::SUCCESS;
    }
    println!("  {} failing runs (each replayable):", report.failures.len());
    for r in report.failures.iter().take(10) {
        let why = r
            .violation
            .as_deref()
            .or(r.error.as_deref())
            .unwrap_or("survivors did not terminate");
        println!("    --faults {} --seed-start {} --runs 1: {}", r.plan, r.seed, why);
    }
    if report.failures.len() > 10 {
        println!("    ... and {} more", report.failures.len() - 10);
    }
    ExitCode::FAILURE
}

/// Executes one leased work unit inside a `campaign-worker` process:
/// rebuilds the protocol from the unit's system description, runs its
/// seed range single-threaded, and returns the shard result in global
/// matrix coordinates. A scheduler unit runs with a per-run checkpoint
/// (so a SIGKILL loses at most the uncommitted run), resumes a dead
/// predecessor's partial checkpoint when its spec id matches, and
/// publishes every violation as a deduplicated corpus bundle. A fault
/// unit (non-empty plan) runs the same record runner and certificate as
/// `campaign --faults`; fault runs are deterministic and cheap, so it
/// keeps no checkpoint — a retried unit simply reruns, and the merge
/// layer's first-wins dedup cannot tell the difference.
fn worker_execute_unit(
    unit: &revisionist_simulations::smr::service::WorkUnit,
    state_dir: &std::path::Path,
    corpus_dir: &std::path::Path,
) -> Result<revisionist_simulations::smr::service::ShardResult, String> {
    use revisionist_simulations::smr::campaign::{
        run_campaign_with, run_fault_records, CampaignCheckpoint, CampaignConfig,
        CampaignOptions, FaultCampaignConfig, SchedulerSpec,
    };
    use revisionist_simulations::smr::fault::FaultPlan;
    use revisionist_simulations::smr::service::ShardResult;

    let field = |key: &str| {
        unit.system.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    };
    let protocol =
        field("protocol").ok_or("unit system lacks `protocol`")?.to_string();
    let num = |key: &str, default: usize| {
        field(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let procs = num("procs", 3);
    let m = num("m", 2);
    let rounds = num("rounds", 3);
    let factory = protocol_factory(&protocol, procs, m, rounds)
        .ok_or_else(|| format!("unknown protocol `{protocol}`"))?;
    let sched =
        SchedulerSpec::parse(&unit.scheduler).map_err(|e| e.to_string())?;
    let mut shard = ShardResult {
        unit: unit.id,
        records: Vec::new(),
        fault_records: Vec::new(),
        fingerprints: Vec::new(),
        degraded_runs: 0,
        cache_truncated: false,
    };

    if !unit.plan.is_empty() {
        let plan = FaultPlan::parse(&unit.plan).map_err(|e| e.to_string())?;
        let config = FaultCampaignConfig {
            base: sched,
            plans: vec![plan],
            seed_start: unit.seed_start,
            runs: unit.runs,
            budget: unit.budget,
            threads: 1,
        };
        let check = fault_validity_check(&protocol, procs);
        let records = run_fault_records(&config, &factory, &check);
        shard.fault_records = records
            .into_iter()
            .enumerate()
            .map(|(local, record)| (unit.index_base + local, record))
            .collect();
    } else {
        let check = protocol_check(&protocol, procs);
        let config = CampaignConfig {
            schedulers: vec![sched.clone()],
            seed_start: unit.seed_start,
            runs: unit.runs,
            budget: unit.budget,
            threads: 1,
        };
        let spec_id = unit.spec_id();
        let checkpoint_path =
            state_dir.join(format!("unit-{}.checkpoint.json", unit.id));
        let mut options = CampaignOptions {
            checkpoint_every: Some(1),
            checkpoint_path: Some(checkpoint_path.clone()),
            spec_id: Some(spec_id.clone()),
            ..CampaignOptions::default()
        };
        // A killed predecessor's partial checkpoint resumes — but only if
        // it was written for exactly this unit of this campaign.
        if let Ok(checkpoint) = CampaignCheckpoint::load(&checkpoint_path) {
            if checkpoint.ensure_matches(&spec_id).is_ok() {
                options.resume_from = Some(checkpoint);
            }
        }
        let report = run_campaign_with(&config, &options, &factory, &check);

        // The terminal checkpoint is the shard payload: every completed
        // record plus the fingerprint set, durable before the result
        // frame.
        let checkpoint = CampaignCheckpoint::load(&checkpoint_path)
            .map_err(|e| format!("unit checkpoint unreadable after run: {e}"))?;

        // Every violating run becomes a minimized, deduplicated corpus
        // bundle; dedup is by violation fingerprint, so crash/retry
        // replays of the same failure collapse to one artifact.
        for (_, record) in
            checkpoint.completed.iter().filter(|(_, r)| r.violation.is_some())
        {
            let Some(bundle) = minimized_bundle(
                &unit.system,
                &sched,
                record.seed,
                unit.budget,
                &FaultPlan::none(),
                &|seed| factory(seed),
                &|sys, _crashed| check(sys),
            ) else {
                continue;
            };
            match bundle.store_dedup(corpus_dir) {
                Ok(true) => eprintln!(
                    "  corpus: new bundle {} (seed {})",
                    bundle.corpus_file_name(),
                    record.seed
                ),
                Ok(false) => {}
                Err(e) => return Err(format!("cannot write corpus bundle: {e}")),
            }
        }
        shard.records = checkpoint
            .completed
            .into_iter()
            .map(|(local, record)| (unit.index_base + local, record))
            .collect();
        shard.fingerprints = checkpoint.fingerprints;
        shard.degraded_runs = report.degraded_runs;
        shard.cache_truncated = report.cache_truncated;
    }

    let recorded = shard.records.len() + shard.fault_records.len();
    if recorded < unit.runs {
        return Err(format!("unit incomplete: {recorded} of {} runs recorded", unit.runs));
    }
    Ok(shard)
}

/// The `campaign-worker` subcommand: a service worker process. Without
/// `--connect` it reads length-prefixed [`CoordMsg`] frames from stdin
/// (the spawned-process transport); with `--connect ADDR` it dials the
/// coordinator over TCP instead ([`campaign_worker_remote`]). Either
/// way it heartbeats on a background thread while executing a leased
/// unit and sends the shard result back as a frame. Exits nonzero on
/// any error — the coordinator's lease machinery treats a dead worker
/// as a requeue.
fn cmd_campaign_worker(flags: &HashMap<String, String>) -> ExitCode {
    use revisionist_simulations::smr::service::{
        read_frame, write_frame, CoordMsg, WorkerMsg,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    if let Some(addr) = flags.get("connect") {
        let tag = num(flags, "tag");
        return campaign_worker_remote(addr, tag);
    }

    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    // Frames must hit the pipe whole; stdout writes go through one
    // mutex so heartbeats never interleave with a result frame.
    let out = Arc::new(Mutex::new(std::io::stdout()));
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF between frames: the coordinator went away.
            Ok(None) => return ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("campaign-worker: bad frame: {e}");
                return ExitCode::FAILURE;
            }
        };
        let msg = match CoordMsg::parse(&frame) {
            Ok(msg) => msg,
            Err(e) => {
                eprintln!("campaign-worker: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (unit, state_dir, corpus_dir, heartbeat_ms) = match msg {
            CoordMsg::Shutdown => return ExitCode::SUCCESS,
            CoordMsg::Lease { unit, state_dir, corpus_dir, heartbeat_ms } => {
                (unit, state_dir, corpus_dir, heartbeat_ms)
            }
            // Handshake frames never arrive over stdio; tolerate strays.
            CoordMsg::Welcome { .. } | CoordMsg::Reject { .. } => continue,
        };

        // Heartbeat immediately (the lease is live before the first run
        // finishes), then keep beating from a background thread for the
        // duration of the unit.
        let stop = Arc::new(AtomicBool::new(false));
        let beats = {
            let out = Arc::clone(&out);
            let stop = Arc::clone(&stop);
            let unit_id = unit.id;
            let period = Duration::from_millis(heartbeat_ms.max(1));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let beat = WorkerMsg::Heartbeat { unit: unit_id }.to_json();
                    let sent = {
                        let mut out = out.lock().expect("stdout lock");
                        write_frame(&mut *out, &beat).is_ok()
                    };
                    if !sent {
                        // Closed pipe: the coordinator died or revoked
                        // the lease; executing to completion is still
                        // useful (the checkpoint survives).
                        break;
                    }
                    std::thread::sleep(period);
                }
            })
        };
        let result = worker_execute_unit(
            &unit,
            std::path::Path::new(&state_dir),
            std::path::Path::new(&corpus_dir),
        );
        stop.store(true, Ordering::Relaxed);
        let _ = beats.join();
        match result {
            Ok(shard) => {
                let msg = WorkerMsg::Result { unit: unit.id, shard };
                let mut out = out.lock().expect("stdout lock");
                if let Err(e) = write_frame(&mut *out, &msg.to_json()) {
                    eprintln!("campaign-worker: cannot send result: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("campaign-worker: unit {}: {e}", unit.id);
                return ExitCode::FAILURE;
            }
        }
    }
}

/// The TCP worker loop: dial and handshake through a self-healing
/// [`Remote`], then serve leases until the coordinator says shutdown.
/// Wire hiccups heal transparently — the session token presented on
/// reconnect keeps the current lease alive — and a coordinator that
/// stays gone past the bounded reconnect budget ends the worker
/// cleanly (its lease has been requeued by then anyway).
fn campaign_worker_remote(addr: &str, tag: Option<u64>) -> ExitCode {
    use revisionist_simulations::smr::service::{
        read_frame, CoordMsg, Remote, RemoteError, WorkerMsg,
    };
    use std::io::BufReader;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let remote = Arc::new(Remote::new(addr, tag));
    loop {
        let (stream, generation) = match remote.ensure() {
            Ok(pair) => pair,
            Err(RemoteError::Fatal(e)) => {
                eprintln!("campaign-worker: {e}");
                return ExitCode::FAILURE;
            }
            Err(RemoteError::Unreachable(e)) => {
                // After a completed handshake, a coordinator gone past
                // the reconnect budget is a normal end of service (the
                // lease is requeued by then); before one it's a
                // startup failure.
                if remote.session().is_some() {
                    eprintln!("campaign-worker: coordinator gone ({e}), exiting");
                    return ExitCode::SUCCESS;
                }
                eprintln!("campaign-worker: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut reader = BufReader::new(stream);
        loop {
            let msg = match read_frame(&mut reader) {
                Ok(Some(frame)) => match CoordMsg::parse(&frame) {
                    Ok(msg) => msg,
                    Err(e) => {
                        // A corrupt coordinator frame: drop the link
                        // and re-handshake rather than act on garbage.
                        eprintln!("campaign-worker: bad frame: {e}");
                        remote.disconnect(generation);
                        break;
                    }
                },
                // EOF or a read error (including the idle timeout):
                // this connection is done, reconnect and resume.
                Ok(None) | Err(_) => {
                    remote.disconnect(generation);
                    break;
                }
            };
            let (unit, state_dir, corpus_dir, heartbeat_ms) = match msg {
                CoordMsg::Shutdown => return ExitCode::SUCCESS,
                CoordMsg::Lease { unit, state_dir, corpus_dir, heartbeat_ms } => {
                    (unit, state_dir, corpus_dir, heartbeat_ms)
                }
                // Stray handshake frames carry no work.
                CoordMsg::Welcome { .. } | CoordMsg::Reject { .. } => continue,
            };
            let stop = Arc::new(AtomicBool::new(false));
            let beats = {
                let remote = Arc::clone(&remote);
                let stop = Arc::clone(&stop);
                let unit_id = unit.id;
                let period = Duration::from_millis(heartbeat_ms.max(1));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let beat =
                            WorkerMsg::Heartbeat { unit: unit_id }.to_json();
                        // `send` reconnects on its own; a hard failure
                        // means the coordinator is past saving, and the
                        // result send will surface that.
                        if remote.send(&beat).is_err() {
                            break;
                        }
                        std::thread::sleep(period);
                    }
                })
            };
            let result = worker_execute_unit(
                &unit,
                std::path::Path::new(&state_dir),
                std::path::Path::new(&corpus_dir),
            );
            stop.store(true, Ordering::Relaxed);
            let _ = beats.join();
            match result {
                Ok(shard) => {
                    let msg = WorkerMsg::Result { unit: unit.id, shard };
                    if let Err(e) = remote.send(&msg.to_json()) {
                        eprintln!("campaign-worker: cannot send result: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    eprintln!("campaign-worker: unit {}: {e}", unit.id);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
}

/// The `campaign-service` subcommand: the crash-tolerant multi-process
/// campaign front-end. Builds the service spec from campaign-style
/// flags, pre-flights the protocol, then hands the matrix to
/// [`run_service`] — which partitions it into journaled work units,
/// leases them to `campaign-worker` processes, and merges shard
/// results into a report byte-identical to a single-process
/// `campaign` run of the same spec.
fn cmd_campaign_service(flags: &HashMap<String, String>) -> ExitCode {
    use revisionist_simulations::smr::campaign::CampaignConfig;
    use revisionist_simulations::smr::service::{
        run_service, run_service_with_transport, ChaosPlan, MergedReport,
        ServiceOptions, ServiceSpec, Transport,
    };
    use std::path::PathBuf;
    use std::time::Duration;

    let protocol = flags.get("protocol").map_or("racing", String::as_str);
    let procs = get(flags, "procs", 3);
    let m = get(flags, "m", 2);
    let rounds = get(flags, "rounds", 3);
    // Same set-up and pre-flight as `campaign`: lint once in the
    // coordinator rather than once per worker process.
    let Some((specs, _)) = campaign_setup(flags, protocol, procs, m, rounds, "service")
    else {
        return ExitCode::FAILURE;
    };

    let spec = ServiceSpec {
        // The same ordered description `campaign` stamps into replay
        // bundles — workers rebuild the system from it, and corpus
        // bundles replay under the stock `replay` subcommand.
        system: campaign_system(protocol, procs, m, rounds),
        config: CampaignConfig {
            schedulers: specs,
            seed_start: get(flags, "seed-start", 0) as u64,
            runs: get(flags, "runs", 100),
            budget: get(flags, "budget", 2_000),
            threads: 1,
        },
        unit_runs: get(flags, "unit-runs", 8).max(1),
        // A fault matrix shards across workers exactly like a
        // scheduler matrix: plans × seeds under the one base scheduler.
        faults: match flags.get("faults") {
            Some(raw) => match parse_fault_plans(raw, procs) {
                Ok(plans) => plans.iter().map(|p| p.to_string()).collect(),
                Err(e) => {
                    eprintln!("{e}");
                    eprintln!("{FAULTS_HINT}");
                    return ExitCode::FAILURE;
                }
            },
            None => Vec::new(),
        },
    };

    let state_dir = PathBuf::from(
        flags.get("state").map_or("campaign-state", String::as_str),
    );
    let corpus_dir = flags
        .get("corpus")
        .map_or_else(|| state_dir.join("corpus"), PathBuf::from);
    let exe = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("campaign-service: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut opts = ServiceOptions::new(
        state_dir,
        corpus_dir,
        vec![exe.display().to_string(), "campaign-worker".into()],
    );
    let listen = flags.get("listen");
    // `--workers 0` is meaningful only with `--listen`: an externally
    // managed TCP fleet. Over stdio the service must spawn someone.
    opts.workers = if listen.is_some() {
        get(flags, "workers", 2)
    } else {
        get(flags, "workers", 2).max(1)
    };
    opts.max_lease_attempts = get(flags, "max-lease-attempts", 3).max(1);
    if let Some(secs) = num(flags, "lease-timeout") {
        opts.lease_timeout = Duration::from_secs(secs);
    }
    if let Some(raw) = flags.get("chaos") {
        match ChaosPlan::parse(raw) {
            Ok(plan) => {
                if !plan.is_empty() {
                    eprintln!("chaos plan armed: {plan}");
                }
                opts.chaos = plan;
            }
            Err(e) => {
                eprintln!("{e}");
                eprintln!(
                    "valid --chaos directives: kill@unit:U | torn@result:U | \
                     drop@N | delay@N | dup@N | corrupt@N | partition@A-B \
                     (comma-separated)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let run = if let Some(listen_addr) = listen {
        let listener = match std::net::TcpListener::bind(listen_addr.as_str()) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("campaign-service: cannot bind {listen_addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Resolve port 0 to the actual address before telling workers
        // where to dial.
        let addr = match listener.local_addr() {
            Ok(addr) => addr.to_string(),
            Err(e) => {
                eprintln!("campaign-service: cannot resolve listen address: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("campaign-service: listening on {addr}");
        opts.worker_cmd.extend(["--connect".to_string(), addr]);
        run_service_with_transport(&spec, &opts, &Transport::Tcp(listener))
    } else {
        run_service(&spec, &opts)
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("campaign-service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = &outcome.stats;
    eprintln!(
        "service: {} units ({} recovered), {} leases, {} requeues, \
         {} quarantined, {} workers spawned",
        stats.units,
        stats.recovered_units,
        stats.leases,
        stats.requeues,
        stats.quarantined_units,
        stats.workers_spawned,
    );
    if stats.kills_injected + stats.torn_injected > 0 {
        eprintln!(
            "  chaos: {} worker kills, {} torn journal writes injected",
            stats.kills_injected, stats.torn_injected,
        );
    }
    if stats.dropped_journal_lines > 0 {
        eprintln!(
            "  journal: {} damaged lines dropped during recovery",
            stats.dropped_journal_lines,
        );
    }
    if listen.is_some() {
        eprintln!(
            "  tcp: {} sessions ({} resumed), {} corrupt frames rejected",
            stats.sessions, stats.resumed_sessions, stats.corrupt_frames,
        );
    }
    let net_injected = stats.net_dropped
        + stats.net_delayed
        + stats.net_duplicated
        + stats.net_corrupted
        + stats.net_severed;
    if net_injected > 0 {
        eprintln!(
            "  net chaos: {} dropped, {} delayed, {} duplicated, \
             {} corrupted, {} severed",
            stats.net_dropped,
            stats.net_delayed,
            stats.net_duplicated,
            stats.net_corrupted,
            stats.net_severed,
        );
    }
    // The summary table goes to stderr: stdout must stay byte-identical
    // to the single-process `campaign` report under --json.
    if flags.contains_key("summary") {
        eprint!("{}", outcome.summary.render());
    }

    let report = &outcome.report;
    if !write_json_out(flags, &report.to_json()) {
        return ExitCode::FAILURE;
    }
    let certified = match report {
        MergedReport::Campaign(_) => true,
        MergedReport::Faults(r) => r.is_certified(),
    };
    if flags.contains_key("json") {
        print!("{}", report.to_json());
        return if certified { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    match report {
        MergedReport::Campaign(report) => {
            println!(
                "campaign-service: protocol={protocol} procs={procs} schedulers=[{}] \
                 seeds={}..{} workers={}",
                report
                    .config
                    .schedulers
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                report.config.seed_start,
                report.config.seed_start + report.config.runs as u64,
                opts.workers,
            );
            print_campaign_outcome(report);
            ExitCode::SUCCESS
        }
        MergedReport::Faults(report) => {
            println!(
                "campaign-service: protocol={protocol} procs={procs} fault base={} \
                 plans={} seeds={}..{} workers={}",
                report.scheduler,
                report.plans,
                spec.config.seed_start,
                spec.config.seed_start + spec.config.runs as u64,
                opts.workers,
            );
            print_fault_outcome(report)
        }
    }
}

fn cmd_replay(args: &[String], flags: &HashMap<String, String>) -> ExitCode {
    use revisionist_simulations::smr::bundle::ReplayBundle;
    use revisionist_simulations::smr::error::ModelError;
    use revisionist_simulations::smr::fingerprint::fingerprint;
    use revisionist_simulations::smr::shrink::CexOutcome;

    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: revisionist-simulations replay BUNDLE.json [--threads T]");
        return ExitCode::FAILURE;
    };
    let bundle = match ReplayBundle::load(std::path::Path::new(path)) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = get(flags, "threads", 1).max(1);
    let field = |key: &str, default: usize| {
        bundle
            .system_field(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };

    // Every replay runs `threads` times concurrently and all runs must
    // reproduce the recorded fingerprint: the portable artifact doubles
    // as an in-process determinism check across thread counts.
    let results: Vec<Result<CexOutcome, ModelError>> = match bundle
        .system_field("kind")
    {
        Some("campaign") => {
            let protocol = bundle
                .system_field("protocol")
                .unwrap_or("racing")
                .to_string();
            let procs = field("procs", 3);
            let Some(factory) =
                protocol_factory(&protocol, procs, field("m", 2), field("rounds", 3))
            else {
                eprintln!("replay: bundle names unknown protocol `{protocol}`");
                return ExitCode::FAILURE;
            };
            let check = protocol_check(&protocol, procs);
            let seed = bundle.seed;
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            bundle.replay(&|| factory(seed), &|sys, _crashed| {
                                check(sys)
                            })
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("replay worker"))
                    .collect()
            })
        }
        Some("aug-certify") => {
            use revisionist_simulations::snapshot::certify::{
                check_fault_placement, FaultAction, Placement,
            };
            let action = match bundle.system_field("action") {
                Some("crash") => FaultAction::Crash,
                Some("stall") => FaultAction::Stall,
                other => {
                    eprintln!("replay: bad certify action {other:?}");
                    return ExitCode::FAILURE;
                }
            };
            let placement = Placement {
                victim: field("victim", 0),
                after_steps: field("after_steps", 0),
                action,
            };
            let (f, m) = (field("f", 2), field("m", 2));
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(move || {
                            let failures = check_fault_placement(f, m, placement);
                            match failures.first() {
                                Some(msg) if fingerprint(msg) == bundle.fingerprint => {
                                    Ok(CexOutcome {
                                        violation: Some(msg.clone()),
                                        steps: 0,
                                        crashed: Vec::new(),
                                    })
                                }
                                Some(msg) => Err(ModelError::BundleMismatch {
                                    expected: bundle.fingerprint,
                                    actual: format!(
                                        "failure `{msg}` (fingerprint {})",
                                        fingerprint(msg)
                                    ),
                                }),
                                None => Err(ModelError::BundleMismatch {
                                    expected: bundle.fingerprint,
                                    actual: format!(
                                        "placement `{placement}` certifies cleanly"
                                    ),
                                }),
                            }
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("replay worker"))
                    .collect()
            })
        }
        other => {
            eprintln!(
                "replay: unsupported bundle kind {:?} (campaign, aug-certify)",
                other.unwrap_or("<missing>")
            );
            return ExitCode::FAILURE;
        }
    };

    for result in &results {
        if let Err(e) = result {
            eprintln!("replay: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    let outcome = results[0].as_ref().expect("all results ok");
    println!(
        "replay {path}: violation reproduced bit-for-bit across {threads} \
         concurrent run{} ({} decisions, fingerprint {})",
        if threads == 1 { "" } else { "s" },
        bundle.decisions.len(),
        bundle.fingerprint,
    );
    println!(
        "  violation: {}",
        outcome.violation.as_deref().unwrap_or("<none>")
    );
    ExitCode::SUCCESS
}

fn cmd_aug(flags: &HashMap<String, String>) -> ExitCode {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use revisionist_simulations::snapshot::client::AugOp;
    use revisionist_simulations::snapshot::real::RealSystem;
    use revisionist_simulations::snapshot::spec;

    let f = get(flags, "f", 3);
    let m = get(flags, "m", 2);
    let ops = get(flags, "ops", 6);
    let seed = get(flags, "seed", 0) as u64;
    if flags.contains_key("certify") {
        use revisionist_simulations::smr::bundle::{
            tool_id, ReplayBundle, BUNDLE_VERSION,
        };
        use revisionist_simulations::smr::fingerprint::fingerprint;
        use revisionist_simulations::snapshot::certify;
        let report = certify::certify_block_update_faults(f, m);
        println!(
            "non-blocking certification f={f} m={m}: {} placements \
             (every victim × every Block-Update step × crash/stall)",
            report.placements.len()
        );
        if report.is_certified() {
            println!(
                "  CERTIFIED: every crash leaves survivors unblocked, every \
                 stalled victim completes, and §3 holds throughout"
            );
            return ExitCode::SUCCESS;
        }
        println!("  {} placements FAILED:", report.failures.len());
        for (_, failure) in &report.failures {
            println!("  !! {failure}");
        }
        // Failed certifications are portable too: bundle the first
        // failed placement so `replay` can re-check it anywhere.
        if let Some(path) = flags.get("bundle") {
            let (placement, message) = &report.failures[0];
            let bundle = ReplayBundle {
                version: BUNDLE_VERSION,
                tool: tool_id(),
                system: vec![
                    ("kind".into(), "aug-certify".into()),
                    ("f".into(), f.to_string()),
                    ("m".into(), m.to_string()),
                    ("victim".into(), placement.victim.to_string()),
                    ("after_steps".into(), placement.after_steps.to_string()),
                    ("action".into(), placement.action.to_string()),
                ],
                scheduler: "round-robin".into(),
                seed: 0,
                plan: "none".into(),
                decisions: Vec::new(),
                fingerprint: fingerprint(message),
                violation: message.clone(),
            };
            match bundle.store(std::path::Path::new(path)) {
                Ok(()) => eprintln!("  replay bundle written to {path}"),
                Err(e) => eprintln!("  cannot write bundle {path}: {e}"),
            }
        }
        return ExitCode::FAILURE;
    }
    let mut rs = RealSystem::new(f, m);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining = vec![ops; f];
    let mut counter = 0i64;
    loop {
        let live: Vec<usize> = (0..f)
            .filter(|&p| remaining[p] > 0 || !rs.is_idle(p))
            .collect();
        if live.is_empty() {
            break;
        }
        let pid = live[rng.gen_range(0..live.len())];
        if rs.is_idle(pid) {
            remaining[pid] -= 1;
            counter += 1;
            let op = if rng.gen_bool(0.5) {
                AugOp::Scan
            } else {
                AugOp::BlockUpdate {
                    components: vec![(counter as usize) % m],
                    values: vec![Value::Int(counter)],
                }
            };
            rs.begin(pid, op);
        }
        rs.step(pid);
    }
    let report = spec::check(&rs, m);
    println!(
        "augmented snapshot f={f} m={m} ops/proc={ops} seed={seed}: {} H-steps",
        rs.log().len()
    );
    println!(
        "  {} atomic Block-Updates, {} yields, {} Scans",
        report.atomic_block_updates, report.yielded_block_updates, report.scans
    );
    println!(
        "  §3 specification: {}",
        if report.is_ok() { "SATISFIED" } else { "VIOLATED" }
    );
    for e in &report.errors {
        println!("  !! {e}");
    }
    if report.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
