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
fn faults_naming_a_process_outside_the_system_are_rejected() {
    let dir = std::env::temp_dir()
        .join(format!("rsim-cli-faults-procs-{}", std::process::id()));
    let state = dir.join("state");
    let state = state.to_str().unwrap();
    for (args, fault) in [
        (&["campaign", "--faults", "crash@9:0"][..], "crash@9:0"),
        (&["campaign", "--faults", "crash@0:1,stall@3:0-2"][..], "stall@3:0-2"),
        (&["campaign-service", "--faults", "crash@9:0", "--state", state][..], "crash@9:0"),
    ] {
        let mut full = args.to_vec();
        full.extend_from_slice(&["--procs", "3", "--sched", "rr", "--runs", "2", "--json"]);
        let (stdout, stderr, ok) = run(&full);
        assert!(!ok, "{args:?}: a plan outside p0..p2 must fail, not certify");
        assert!(stdout.is_empty(), "{args:?}: no report may be printed: {stdout}");
        assert!(
            stderr.contains(&format!("bad --faults `{fault}`")),
            "{args:?}: stderr was: {stderr}"
        );
        assert!(stderr.contains("valid --faults"), "{args:?}: stderr was: {stderr}");
    }
    assert!(!dir.exists(), "rejected before any service state is written");
}

#[test]
fn malformed_numeric_flags_fail_naming_flag_and_value() {
    for (args, flag) in [
        (&["explore", "--threads", "four"][..], "--threads `four`"),
        (&["campaign", "--runs", "5", "--seed", "x"][..], "--seed `x`"),
        (&["campaign", "--runs", "5", "--wall-limit", "1m"][..], "--wall-limit `1m`"),
        (&["campaign", "--runs", "5", "--stop-after", "-3"][..], "--stop-after `-3`"),
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

/// Runs the CLI with `dir` as its working directory, so a test can see
/// every file a command leaves behind.
fn run_in(dir: &std::path::Path, args: &[&str]) -> (String, String, bool) {
    std::fs::create_dir_all(dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_revisionist-simulations"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn stray_positional_fails_instead_of_running_the_default_protocol() {
    let (stdout, stderr, ok) = run(&["explore", "contrarian"]);
    assert!(!ok, "stdout was: {stdout}");
    assert!(stdout.is_empty(), "nothing may be explored: {stdout}");
    assert!(stderr.contains("unexpected argument `contrarian`"), "stderr was: {stderr}");
}

#[test]
fn unknown_flag_fails_with_did_you_mean_and_usage() {
    let (stdout, stderr, ok) = run(&["explore", "--thread", "2"]);
    assert!(!ok, "stdout was: {stdout}");
    assert!(stderr.contains("did you mean --threads"), "stderr was: {stderr}");
    assert!(stderr.contains("usage:\n  revisionist-simulations explore"), "stderr: {stderr}");

    // A deleted flag is as unknown as a misspelt one.
    let (stdout, stderr, ok) = run(&["campaign", "--cache-budget", "8"]);
    assert!(!ok, "stdout was: {stdout}");
    assert!(stdout.is_empty(), "no campaign may run: {stdout}");
    assert!(stderr.contains("unknown flag --cache-budget for campaign"), "stderr: {stderr}");
    assert!(stderr.contains("usage:\n  revisionist-simulations campaign"), "stderr: {stderr}");
}

#[test]
fn key_equals_value_is_an_unknown_flag() {
    let (stdout, stderr, ok) = run(&["campaign", "--runs=5"]);
    assert!(!ok, "stdout was: {stdout}");
    assert!(stderr.contains("unknown flag --runs=5"), "stderr was: {stderr}");
}

#[test]
fn value_flag_without_value_fails_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("rsim-cli-no-value-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (stdout, stderr, ok) = run_in(&dir, &["campaign", "--runs", "2", "--json-out"]);
    assert!(!ok, "stdout was: {stdout}");
    assert!(stderr.contains("--json-out needs a value (PATH)"), "stderr was: {stderr}");
    assert!(!dir.join("true").exists(), "no report may be written to `true`");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subcommand_help_prints_its_usage_and_explores_nothing() {
    let (stdout, stderr, ok) = run(&["explore", "--help"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "nothing may be explored: {stdout}");
    assert!(stderr.contains("revisionist-simulations explore"), "stderr was: {stderr}");
    assert!(stderr.contains("[--max-configs C]"), "stderr was: {stderr}");
    assert!(!stderr.contains("revisionist-simulations campaign"), "explore's usage only");
}

#[test]
fn bounds_rejects_a_non_numeric_argument() {
    let (stdout, stderr, ok) = run(&["bounds", "4", "two", "1"]);
    assert!(!ok, "stdout was: {stdout}");
    assert!(stdout.is_empty(), "no table may be printed: {stdout}");
    assert!(stderr.contains("revisionist-simulations bounds [N K X]"), "stderr was: {stderr}");
}

#[test]
fn campaign_service_rejects_a_flag_it_does_not_read() {
    let dir = std::env::temp_dir().join(format!("rsim-cli-svc-seed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (stdout, stderr, ok) = run_in(&dir, &["campaign-service", "--runs", "2", "--seed", "9"]);
    assert!(!ok, "stdout was: {stdout}");
    assert!(stderr.contains("unknown flag --seed for campaign-service"), "stderr was: {stderr}");
    assert!(!dir.join("campaign-state").exists(), "rejected before any service state");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_flag_and_switch_with_value_fail() {
    for (args, want) in [
        (&["campaign", "--runs", "2", "--runs", "3"][..], "--runs given twice"),
        (&["campaign", "--runs", "2", "--json", "yes"][..], "--json takes no value (got `yes`)"),
        (&["replay"][..], "replay takes BUNDLE.json (got 0 arguments)"),
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(!ok, "{args:?} must fail, stdout was: {stdout}");
        assert!(stderr.contains(want), "{args:?}: stderr was: {stderr}");
    }
}

/// A bundle whose system description has a malformed field fails
/// closed, naming the field, instead of replaying with a default.
#[test]
fn replay_rejects_a_malformed_system_field() {
    let dir = std::env::temp_dir().join(format!("rsim-cli-bad-procs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, stderr, ok) = run_in(&dir, &[
        "campaign", "--protocol", "racing", "--procs", "3", "--m", "2", "--sched", "random",
        "--runs", "100", "--bundle", "cex.bundle.json",
    ]);
    assert!(ok, "stderr was: {stderr}");
    let bundle = dir.join("cex.bundle.json");
    let text = std::fs::read_to_string(&bundle).unwrap();
    assert!(text.contains("\"procs\": \"3\""), "bundle was: {text}");
    std::fs::write(&bundle, text.replace("\"procs\": \"3\"", "\"procs\": \"3x\"")).unwrap();
    let (stdout, stderr, ok) = run(&["replay", bundle.to_str().unwrap()]);
    assert!(!ok, "a malformed bundle must not replay: {stdout}");
    assert!(stderr.contains("bad `procs` `3x`"), "stderr was: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `explore --threads 0` runs one worker per core, as `sweep` and
/// `fuzz` do, names that count in its report, and reports what one
/// thread does, timing fields aside.
#[test]
fn explore_threads_zero_means_one_worker_per_core() {
    let explore = |threads: &str| {
        let (stdout, stderr, ok) = run(&[
            "explore", "--protocol", "iis", "--procs", "3", "--rounds", "1", "--threads", threads,
            "--json",
        ]);
        assert!(ok, "--threads {threads}: stderr was: {stderr}");
        stdout
    };
    let untimed = |report: &str| -> String {
        report
            .lines()
            .filter(|l| !["threads", "elapsed_ms", "states_per_sec"].iter().any(|k| {
                l.starts_with(&format!("  \"{k}\":"))
            }))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (all, one) = (explore("0"), explore("1"));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    assert!(all.contains(&format!("\"threads\": {cores},")), "report was: {all}");
    assert!(one.contains("\"threads\": 1,"), "report was: {one}");
    assert_eq!(untimed(&all), untimed(&one));
    assert!(one.contains("\"terminals\": 13,") && one.contains("\"violation\": null"), "{one}");
}
