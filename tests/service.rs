//! End-to-end tests of the `campaign-service` subcommand: the chaos
//! determinism gate. A service run with worker kills and torn journal
//! writes injected must converge to a merged report byte-identical to
//! a single-process, no-fault `campaign` of the same spec, and every
//! corpus bundle it writes must replay under the stock `replay`
//! subcommand.

use std::path::{Path, PathBuf};
use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_revisionist-simulations"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rsim-service-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The campaign spec shared by the reference and the service runs.
/// Seed 28 under `random` is a consensus violation, so the corpus and
/// the shrink path are exercised, not just the happy path.
const SPEC: &[&str] = &[
    "--protocol",
    "racing",
    "--procs",
    "3",
    "--m",
    "2",
    "--sched",
    "rr,random",
    "--runs",
    "40",
    "--budget",
    "2000",
];

fn corpus_bundles(corpus: &Path) -> Vec<PathBuf> {
    let mut bundles: Vec<PathBuf> = std::fs::read_dir(corpus)
        .expect("corpus dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    bundles.sort();
    bundles
}

#[test]
fn chaos_service_matches_single_process_reference_byte_for_byte() {
    let dir = tmp_dir("chaos");
    let reference = dir.join("reference.json");
    let merged = dir.join("merged.json");
    let state = dir.join("state");

    // The ground truth: one process, one thread, no faults.
    let mut ref_args: Vec<&str> = vec!["campaign"];
    ref_args.extend_from_slice(SPEC);
    let ref_out = reference.to_str().unwrap();
    ref_args.extend_from_slice(&["--threads", "1", "--json-out", ref_out]);
    let (_, stderr, ok) = run(&ref_args);
    assert!(ok, "reference campaign failed: {stderr}");

    // The service, with a worker SIGKILLed mid-unit and a torn journal
    // write injected on another unit's result.
    let mut svc_args: Vec<&str> = vec!["campaign-service"];
    svc_args.extend_from_slice(SPEC);
    let state_s = state.to_str().unwrap();
    let merged_out = merged.to_str().unwrap();
    svc_args.extend_from_slice(&[
        "--workers",
        "2",
        "--unit-runs",
        "8",
        "--state",
        state_s,
        "--chaos",
        "kill@unit:1,torn@result:3",
        "--json-out",
        merged_out,
    ]);
    let (_, stderr, ok) = run(&svc_args);
    assert!(ok, "service failed: {stderr}");
    assert!(
        stderr.contains("1 worker kills, 1 torn journal writes injected"),
        "chaos must actually fire: {stderr}"
    );
    // Each injection charges exactly one lease attempt: the kill even
    // when the unit's result frame was already in flight.
    assert!(
        stderr.contains("10 units (0 recovered), 12 leases, 2 requeues"),
        "each injection must cost one requeue: {stderr}"
    );

    let ref_bytes = std::fs::read(&reference).unwrap();
    let svc_bytes = std::fs::read(&merged).unwrap();
    assert!(
        ref_bytes == svc_bytes,
        "merged report differs from the single-process reference:\n--- \
         reference ---\n{}\n--- service ---\n{}",
        String::from_utf8_lossy(&ref_bytes),
        String::from_utf8_lossy(&svc_bytes),
    );

    // Every corpus bundle replays under the stock replay subcommand and
    // reproduces its recorded violation.
    let bundles = corpus_bundles(&state.join("corpus"));
    assert!(!bundles.is_empty(), "seed 28 must have produced a bundle");
    for bundle in &bundles {
        let (stdout, stderr, ok) = run(&["replay", bundle.to_str().unwrap()]);
        assert!(ok, "replay of {} failed: {stderr}", bundle.display());
        assert!(
            stdout.contains("violation reproduced bit-for-bit"),
            "replay of {} did not reproduce: {stdout}",
            bundle.display()
        );
    }

    // A second service run over the same state directory recovers every
    // shard from the journal — zero new leases — and emits the
    // identical report.
    let rerun = dir.join("rerun.json");
    let rerun_out = rerun.to_str().unwrap();
    let mut again: Vec<&str> = vec!["campaign-service"];
    again.extend_from_slice(SPEC);
    again.extend_from_slice(&[
        "--workers",
        "2",
        "--unit-runs",
        "8",
        "--state",
        state_s,
        "--json-out",
        rerun_out,
    ]);
    let (_, stderr, ok) = run(&again);
    assert!(ok, "rerun failed: {stderr}");
    assert!(
        stderr.contains("(10 recovered), 0 leases"),
        "rerun must converge from the journal alone: {stderr}"
    );
    assert!(std::fs::read(&rerun).unwrap() == ref_bytes);

    // The fault-matrix arm: a `--faults` campaign sharded over stdio
    // workers, one of them SIGKILLed mid-unit, merges to the bytes of
    // the single-process `campaign --faults`.
    let faults: &[&str] = &[
        "--protocol", "racing", "--procs", "3", "--m", "2", "--sched", "rr", "--runs", "4",
        "--budget", "2000", "--faults", "sweep:2",
    ];
    let fault_ref = dir.join("fault-reference.json");
    let mut ref_args: Vec<&str> = vec!["campaign"];
    ref_args.extend_from_slice(faults);
    ref_args.extend_from_slice(&["--threads", "1", "--json-out", fault_ref.to_str().unwrap()]);
    let (_, stderr, ok) = run(&ref_args);
    assert!(ok, "fault reference campaign failed: {stderr}");
    let fault_merged = dir.join("fault-merged.json");
    let fault_state = dir.join("fault-state");
    let mut svc_args: Vec<&str> = vec!["campaign-service"];
    svc_args.extend_from_slice(faults);
    svc_args.extend_from_slice(&[
        "--workers",
        "2",
        "--unit-runs",
        "2",
        "--state",
        fault_state.to_str().unwrap(),
        "--chaos",
        "kill@unit:1",
        "--json-out",
        fault_merged.to_str().unwrap(),
    ]);
    let (_, stderr, ok) = run(&svc_args);
    assert!(ok, "fault service failed: {stderr}");
    assert!(
        stderr.contains("1 worker kills, 0 torn journal writes injected"),
        "chaos must actually fire: {stderr}"
    );
    let ref_bytes = std::fs::read(&fault_ref).unwrap();
    let svc_bytes = std::fs::read(&fault_merged).unwrap();
    assert!(
        ref_bytes == svc_bytes,
        "fault matrix merged report differs from the reference:\n--- \
         reference ---\n{}\n--- service ---\n{}",
        String::from_utf8_lossy(&ref_bytes),
        String::from_utf8_lossy(&svc_bytes),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator stops between a `result` append and the next
/// compaction, and then the newest settled file is damaged: torn in
/// half, or replaced by a well-formed shard that is not the one the
/// journal hashed. The resumed service says on stderr that the unit
/// runs again, reruns it, and merges the bytes of an uninterrupted
/// run; the damaged file is never merged.
#[test]
fn damaged_newest_settled_file_reruns_and_merges_identically() {
    use revisionist_simulations::smr::service::{JobQueue, JournalRecord};

    let dir = tmp_dir("settled");
    let reference = dir.join("reference.json");
    let mut ref_args: Vec<&str> = vec!["campaign"];
    ref_args.extend_from_slice(SPEC);
    ref_args.extend_from_slice(&["--threads", "1", "--json-out", reference.to_str().unwrap()]);
    let (_, stderr, ok) = run(&ref_args);
    assert!(ok, "reference campaign failed: {stderr}");
    let ref_bytes = std::fs::read(&reference).unwrap();

    // An uninterrupted service run supplies the spec and every shard.
    let service = |state: &Path, out: &Path| {
        let mut args: Vec<&str> = vec!["campaign-service"];
        args.extend_from_slice(SPEC);
        args.extend_from_slice(&[
            "--workers",
            "2",
            "--unit-runs",
            "8",
            "--state",
            state.to_str().unwrap(),
            "--json-out",
            out.to_str().unwrap(),
        ]);
        run(&args)
    };
    let full = dir.join("full");
    let (_, stderr, ok) = service(&full, &dir.join("full.json"));
    assert!(ok, "uninterrupted service failed: {stderr}");
    let (_, recovered) = JobQueue::open(&full, 32).unwrap();
    let spec = recovered.spec.expect("the state directory names its spec");
    assert_eq!(recovered.shards.len(), 10);

    for damage in ["torn", "edited"] {
        // The journal of a coordinator stopped after settling units
        // 0..=3, before any compaction.
        let state = dir.join(format!("stopped-{damage}"));
        {
            let (mut queue, _) = JobQueue::open(&state, usize::MAX).unwrap();
            queue.append(&JournalRecord::Init { spec: spec.clone() }).unwrap();
            for shard in &recovered.shards[..4] {
                queue.append(&JournalRecord::Lease { unit: shard.unit, attempt: 1 }).unwrap();
                queue.append(&JournalRecord::Result { shard: shard.clone() }).unwrap();
            }
        }
        assert!(!state.join("snapshot.json").exists(), "no compaction ran");
        let newest = state.join("settled/unit-3.json");
        let bytes = std::fs::read(&newest).unwrap();
        match damage {
            "torn" => std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap(),
            _ => {
                let mut other = recovered.shards[3].clone();
                other.records[0].1.steps += 1;
                std::fs::write(&newest, format!("{}\n", other.to_json())).unwrap();
            }
        }
        let merged = dir.join(format!("merged-{damage}.json"));
        let (_, stderr, ok) = service(&state, &merged);
        assert!(ok, "resumed service failed: {stderr}");
        assert!(stderr.contains("service: unit 3 runs again"), "{damage}: {stderr}");
        assert!(
            stderr.contains("10 units (3 recovered), 7 leases, 0 requeues"),
            "{damage}: only the damaged and the unsettled units rerun: {stderr}"
        );
        assert!(
            std::fs::read(&merged).unwrap() == ref_bytes,
            "{damage}: resumed report differs from the reference"
        );
        assert!(std::fs::read(&newest).unwrap() == bytes, "unit 3 settled again");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A settled file damaged while the service runs, after its unit
/// completed and before the merge, is caught while the fleet is still
/// held: the unit reruns on the live worker, no second fleet is
/// spawned (an externally managed TCP fleet would be gone after the
/// shutdown), and the merge has the bytes of an uninterrupted run.
#[cfg(unix)]
#[test]
fn settled_file_damaged_mid_run_reruns_on_the_live_fleet() {
    use revisionist_simulations::smr::service::{
        run_service, ChaosPlan, JobQueue, ServiceOptions,
    };

    let dir = tmp_dir("midrun");
    let full = dir.join("full");
    let full_json = dir.join("full.json");
    let mut args: Vec<&str> = vec!["campaign-service"];
    args.extend_from_slice(SPEC);
    args.extend_from_slice(&[
        "--workers",
        "1",
        "--unit-runs",
        "8",
        "--state",
        full.to_str().unwrap(),
        "--json-out",
        full_json.to_str().unwrap(),
    ]);
    let (_, stderr, ok) = run(&args);
    assert!(ok, "uninterrupted service failed: {stderr}");
    let (_, recovered) = JobQueue::open(&full, 32).unwrap();
    let spec = recovered.spec.expect("the state directory names its spec");

    // One worker takes the units in order. The chaos kill on unit 2
    // makes the coordinator respawn it, and the respawned worker's
    // command first damages unit 0's settled file.
    let state = dir.join("state");
    let unit0 = state.join("settled/unit-0.json");
    let script = format!(
        "[ -f '{f}' ] && printf torn > '{f}'; exec '{bin}' campaign-worker",
        f = unit0.display(),
        bin = env!("CARGO_BIN_EXE_revisionist-simulations"),
    );
    let mut opts = ServiceOptions::new(
        state.clone(),
        dir.join("corpus"),
        vec!["sh".into(), "-c".into(), script],
    );
    opts.workers = 1;
    opts.chaos = ChaosPlan::parse("kill@unit:2").unwrap();
    let outcome = run_service(&spec, &opts).expect("service converges");
    let stats = &outcome.stats;
    assert_eq!(stats.kills_injected, 1, "chaos must actually fire");
    assert_eq!(
        (stats.leases, stats.requeues, stats.workers_spawned),
        (12, 1, 2),
        "unit 0 reruns once, on the worker that is already running"
    );
    assert!(
        outcome.report.to_json().as_bytes() == std::fs::read(&full_json).unwrap(),
        "merged report differs from the uninterrupted run"
    );
    assert!(
        std::fs::read(&unit0).unwrap() == std::fs::read(full.join("settled/unit-0.json")).unwrap(),
        "unit 0 settled again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault failures land on the summary row of their matrix index: two
/// plans with the same text keep separate rows, each with its own
/// failures.
#[test]
fn summary_credits_fault_failures_by_matrix_row() {
    let dir = tmp_dir("fault-rows");
    let state = dir.join("state");
    let (_, stderr, ok) = run(&[
        "campaign-service",
        "--sched",
        "rr",
        "--runs",
        "2",
        "--budget",
        "12",
        "--faults",
        "crash@0:1,crash@0:1",
        "--state",
        state.to_str().unwrap(),
        "--summary",
        "--json",
    ]);
    assert!(!ok, "a 12-step budget must not certify: {stderr}");
    let rows: Vec<Vec<&str>> = stderr
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|cols| cols.first() == Some(&"crash@0:1"))
        .collect();
    assert_eq!(rows.len(), 2, "one row per plan: {stderr}");
    for row in &rows {
        // claim, samples, shards, retried, quarantined, failures, ...
        assert_eq!(&row[1..6], ["2", "1", "0", "0", "2"], "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pointing the service at a state directory journaled for a different
/// campaign must fail closed with a structured mismatch naming both
/// identities — never merge incompatible aggregates.
#[test]
fn service_refuses_a_state_dir_from_another_campaign() {
    let dir = tmp_dir("mismatch");
    let state = dir.join("state");
    let state_s = state.to_str().unwrap();
    let base = [
        "campaign-service",
        "--protocol",
        "racing",
        "--sched",
        "rr",
        "--budget",
        "500",
        "--unit-runs",
        "4",
        "--state",
        state_s,
        "--json",
    ];
    let mut first: Vec<&str> = base.to_vec();
    first.extend_from_slice(&["--runs", "4"]);
    let (_, stderr, ok) = run(&first);
    assert!(ok, "seeding run failed: {stderr}");

    let mut second: Vec<&str> = base.to_vec();
    second.extend_from_slice(&["--runs", "8"]);
    let (_, stderr, ok) = run(&second);
    assert!(!ok, "a mismatched state dir must be refused");
    assert!(
        stderr.contains("resume mismatch"),
        "structured error expected: {stderr}"
    );
    assert!(stderr.contains("seeds=0+4") && stderr.contains("seeds=0+8"));
    let _ = std::fs::remove_dir_all(&dir);
}
