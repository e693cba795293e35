//! End-to-end tests of the `revisionist-simulations` CLI binary.

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

#[test]
fn bounds_table_prints() {
    let (stdout, _, ok) = run(&["bounds"]);
    assert!(ok);
    assert!(stdout.contains("lower"));
    assert!(stdout.contains("64"));
}

#[test]
fn bounds_grid_point_shows_mechanism() {
    let (stdout, _, ok) = run(&["bounds", "8", "2", "1"]);
    assert!(ok);
    assert!(stdout.contains("lower bound (Corollary 33): 4"));
    assert!(stdout.contains("feasible"));
    assert!(stdout.contains("infeasible"));
}

#[test]
fn bounds_rejects_bad_parameters() {
    let (_, stderr, ok) = run(&["bounds", "4", "9", "1"]);
    assert!(!ok);
    assert!(stderr.contains("need 1 <= x <= k < n"));
}

#[test]
fn simulate_runs_and_replays() {
    let (stdout, _, ok) =
        run(&["simulate", "--n", "4", "--m", "2", "--f", "2", "--seed", "3"]);
    assert!(ok);
    assert!(stdout.contains("H-steps"));
    assert!(stdout.contains("Lemma 26/27 replay: LEGAL"));
}

#[test]
fn simulate_seed_4_extracts_the_violation() {
    // Seed values index the vendored StdRng stream (shims/rand); seed 4
    // is a schedule whose extracted outputs violate consensus.
    let (stdout, _, ok) =
        run(&["simulate", "--n", "4", "--m", "2", "--f", "2", "--seed", "4"]);
    assert!(ok);
    assert!(stdout.contains("EXTRACTED VIOLATION"));
}

#[test]
fn simulate_rejects_infeasible() {
    let (_, stderr, ok) = run(&["simulate", "--n", "4", "--m", "3", "--f", "2"]);
    assert!(!ok);
    assert!(stderr.contains("infeasible"));
}

#[test]
fn aug_spec_checks() {
    let (stdout, _, ok) = run(&["aug", "--f", "3", "--m", "2", "--seed", "1"]);
    assert!(ok);
    assert!(stdout.contains("SATISFIED"));
}

#[test]
fn audit_reports_impossible_with_evidence() {
    let (stdout, _, ok) = run(&[
        "audit", "--n", "4", "--k", "1", "--x", "1", "--m", "2", "--schedules",
        "100",
    ]);
    assert!(ok);
    assert!(stdout.contains("IMPOSSIBLE"));
    assert!(stdout.contains("evidence"));
}

#[test]
fn audit_reports_consistent_at_the_bound() {
    let (stdout, _, ok) =
        run(&["audit", "--n", "4", "--k", "1", "--x", "1", "--m", "4"]);
    assert!(ok);
    assert!(stdout.contains("CONSISTENT"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn sweep_prints_a_row() {
    let (stdout, _, ok) =
        run(&["sweep", "--n", "4", "--m", "2", "--f", "2", "--runs", "20"]);
    assert!(ok);
    assert!(stdout.contains("budgets hold: true"));
}

#[test]
fn campaign_malformed_sched_fails_with_hint() {
    let (_, stderr, ok) = run(&["campaign", "--sched", "bogus:7"]);
    assert!(!ok);
    assert!(stderr.contains("bad spec `bogus:7`"));
    assert!(stderr.contains("valid --sched specs"), "stderr was: {stderr}");
}

#[test]
fn campaign_faults_sweep_certifies() {
    let (stdout, _, ok) = run(&[
        "campaign", "--faults", "sweep", "--procs", "3", "--runs", "2",
        "--budget", "2000", "--sched", "rr",
    ]);
    assert!(ok);
    assert!(stdout.contains("fault campaign: base=rr plans=18"));
    assert!(stdout.contains("CERTIFIED"), "stdout was: {stdout}");
}

#[test]
fn campaign_faults_json_reports_certification() {
    let (stdout, _, ok) = run(&[
        "campaign", "--faults", "crash@0:1,stall@1:0-3+crash@2:2", "--runs", "2",
        "--budget", "2000", "--json",
    ]);
    assert!(ok);
    assert!(stdout.contains("\"certified\": true"), "stdout was: {stdout}");
    assert!(stdout.contains("\"plans\": 2"));
}

#[test]
fn campaign_malformed_faults_fails_with_hint() {
    let (_, stderr, ok) = run(&["campaign", "--faults", "crash@oops"]);
    assert!(!ok);
    assert!(stderr.contains("bad spec"));
    assert!(stderr.contains("valid --faults"), "stderr was: {stderr}");
}

#[test]
fn campaign_checkpoint_resume_round_trips() {
    let dir = std::env::temp_dir().join(format!("rsim-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cli.checkpoint.json");
    let path_str = path.to_str().unwrap();
    let (stdout, _, ok) = run(&[
        "campaign", "--runs", "20", "--stop-after", "7", "--checkpoint", path_str,
    ]);
    assert!(ok);
    assert!(stdout.contains("TRUNCATED"), "stdout was: {stdout}");
    let (resumed, _, ok) = run(&["campaign", "--runs", "20", "--resume", path_str]);
    assert!(ok);
    assert!(!resumed.contains("TRUNCATED"));
    let (full, _, ok) = run(&["campaign", "--runs", "20"]);
    assert!(ok);
    // The aggregate lines must be bit-for-bit those of the one-shot run.
    let line = |s: &str| s.lines().nth(1).unwrap().to_string();
    assert_eq!(line(&resumed), line(&full));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aug_certify_checks_every_placement() {
    let (stdout, _, ok) = run(&["aug", "--f", "3", "--m", "2", "--certify"]);
    assert!(ok);
    assert!(
        stdout.contains("36 placements"),
        "crash+stall sweep doubles the 18-placement crash space: {stdout}"
    );
    assert!(stdout.contains("crash/stall"), "stdout was: {stdout}");
    assert!(stdout.contains("CERTIFIED"), "stdout was: {stdout}");
}

#[test]
fn campaign_resume_refuses_a_checkpoint_from_another_campaign() {
    let dir = std::env::temp_dir()
        .join(format!("rsim-cli-resume-mismatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mismatch.checkpoint.json");
    let path_str = path.to_str().unwrap();
    let (_, _, ok) = run(&[
        "campaign", "--runs", "10", "--budget", "500", "--checkpoint", path_str,
    ]);
    assert!(ok);
    // Same checkpoint file, different campaign shape: fail closed with
    // a structured error naming both identities.
    let (_, stderr, ok) = run(&[
        "campaign", "--runs", "12", "--budget", "500", "--resume", path_str,
    ]);
    assert!(!ok, "mismatched resume must be refused");
    assert!(stderr.contains("cannot resume"), "stderr was: {stderr}");
    assert!(stderr.contains("resume mismatch"), "stderr was: {stderr}");
    assert!(
        stderr.contains("seeds=0+10") && stderr.contains("seeds=0+12"),
        "both campaign identities must be named: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_faults_rejects_several_schedulers() {
    let (stdout, stderr, ok) = run(&[
        "campaign", "--procs", "3", "--runs", "2", "--faults", "sweep:2", "--sched",
        "rr,random", "--json",
    ]);
    assert!(!ok, "a fault matrix runs under one base scheduler");
    assert!(stdout.is_empty(), "no report may be printed: {stdout}");
    assert!(
        stderr.contains("--faults takes exactly one --sched spec"),
        "stderr was: {stderr}"
    );
}

#[test]
fn campaign_faults_rejects_plain_campaign_flags() {
    let dir = std::env::temp_dir()
        .join(format!("rsim-cli-faults-plain-{}", std::process::id()));
    let checkpoint = dir.join("ckpt.json");
    let checkpoint = checkpoint.to_str().unwrap();
    for (flag, value) in [
        ("--seed", "9"),
        ("--wall-limit", "1"),
        ("--stop-after", "1"),
        ("--cache-budget", "8"),
        ("--checkpoint", checkpoint),
        ("--checkpoint-every", "1"),
        ("--resume", "/nonexistent.json"),
    ] {
        let (stdout, stderr, ok) = run(&[
            "campaign", "--faults", "sweep", "--procs", "3", "--runs", "2", "--sched",
            "rr", flag, value, "--json",
        ]);
        assert!(!ok, "{flag} under --faults must fail, not be ignored");
        assert!(stdout.is_empty(), "no report may be printed for {flag}: {stdout}");
        assert!(
            stderr.contains(&format!("{flag} does not apply to a --faults campaign")),
            "stderr for {flag} was: {stderr}"
        );
        if flag == "--seed" {
            assert!(
                stderr.contains("--faults PLAN --seed-start S --runs 1"),
                "stderr was: {stderr}"
            );
        }
    }
    assert!(!dir.exists(), "rejected before any checkpoint is written");
}

#[test]
fn campaign_service_faults_rejects_several_schedulers() {
    let dir = std::env::temp_dir()
        .join(format!("rsim-cli-svc-faults-{}", std::process::id()));
    let state = dir.join("state");
    let (stdout, stderr, ok) = run(&[
        "campaign-service", "--procs", "3", "--runs", "2", "--faults", "sweep:2",
        "--sched", "rr,random", "--state", state.to_str().unwrap(), "--json",
    ]);
    assert!(!ok, "a fault matrix runs under one base scheduler");
    assert!(stdout.is_empty(), "no report may be printed: {stdout}");
    assert!(
        stderr.contains("--faults takes exactly one --sched spec"),
        "stderr was: {stderr}"
    );
    assert!(!state.exists(), "rejected before any service state is written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_numeric_flags_fail_naming_flag_and_value() {
    for (args, flag) in [
        (&["explore", "--threads", "four"][..], "--threads `four`"),
        (&["campaign", "--runs", "5", "--seed", "x"][..], "--seed `x`"),
        (&["campaign", "--runs", "5", "--wall-limit", "1m"][..], "--wall-limit `1m`"),
        (&["campaign", "--runs", "5", "--stop-after", "-3"][..], "--stop-after `-3`"),
        (&["campaign", "--cache-budget", "lots"][..], "--cache-budget `lots`"),
        (&["sweep", "--n", "4", "--runs", "1e3"][..], "--runs `1e3`"),
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(!ok, "{args:?} must fail, stdout was: {stdout}");
        let want = format!("bad {flag}");
        assert!(stderr.contains(&want), "{args:?}: stderr was: {stderr}");
    }
}

/// A stdio `campaign-worker` must send one heartbeat at once, its result
/// the moment the unit finishes, and exit on EOF — never wait out the
/// rest of a heartbeat period (here a minute) before replying.
#[test]
fn campaign_worker_replies_without_waiting_out_its_heartbeat() {
    use revisionist_simulations::smr::service::{
        read_frame, write_frame, CoordMsg, WorkUnit, WorkerMsg,
    };
    use std::io::BufReader;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("rsim-cli-worker-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let system = [
        ("kind", "campaign"),
        ("protocol", "racing"),
        ("procs", "3"),
        ("m", "2"),
    ]
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .to_vec();
    let lease = CoordMsg::Lease {
        unit: WorkUnit {
            id: 5,
            index_base: 0,
            scheduler: "rr".into(),
            plan: String::new(),
            seed_start: 0,
            runs: 2,
            budget: 2000,
            system,
        },
        state_dir: dir.display().to_string(),
        corpus_dir: dir.join("corpus").display().to_string(),
        heartbeat_ms: 60_000,
    };

    let start = Instant::now();
    let mut child = Command::new(env!("CARGO_BIN_EXE_revisionist-simulations"))
        .arg("campaign-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
    let mut stdin = child.stdin.take().unwrap();
    write_frame(&mut stdin, &lease.to_json()).unwrap();
    drop(stdin);
    let mut out = BufReader::new(child.stdout.take().unwrap());
    let mut next = || {
        let frame = read_frame(&mut out).unwrap().expect("a frame before EOF");
        WorkerMsg::parse(&frame).unwrap()
    };
    assert!(
        matches!(next(), WorkerMsg::Heartbeat { unit: 5 }),
        "first frame is a beat"
    );
    match next() {
        WorkerMsg::Result { unit, shard } => {
            assert_eq!(unit, 5);
            assert_eq!(shard.records.len(), 2, "both runs recorded");
        }
        other => panic!("expected the unit's result, got {other:?}"),
    }
    let status = child.wait().unwrap();
    assert!(status.success(), "worker exits cleanly on EOF: {status}");
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(20), "worker took {elapsed:?}");
    std::fs::remove_dir_all(&dir).ok();
}
