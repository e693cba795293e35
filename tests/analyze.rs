//! End-to-end tests of the `analyze` subcommand and the pre-flight
//! gate, plus golden diagnostic-output tests pinning each lint code's
//! rendered form, and a property test that Pass 2's happens-before
//! verdict agrees with the Wing–Gong linearizability checker.

use std::process::Command;

use rsim_protocols::illformed::illformed_system;
use rsim_protocols::racing::racing_system;
use rsim_smr::analyze::{self, AnalysisReport, Diagnostic, LintCode, LintConfig, Severity};
use rsim_smr::campaign::{replay_run, run_campaign, CampaignConfig, SchedulerSpec};
use rsim_smr::history::History;
use rsim_smr::linearizability::{check, LinCheck};
use rsim_smr::object::{Object, Response};
use rsim_smr::sched::Random;
use rsim_smr::value::Value;

use proptest::prelude::*;

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

// ---------------------------------------------------------------------
// Golden diagnostic output: the rendered form of every lint code is
// part of the tool's interface (scripts grep for it), so pin it.
// ---------------------------------------------------------------------

#[test]
fn golden_fixture_diagnostics_per_lint_code() {
    let (stdout, _, ok) = run(&["analyze", "--protocol", "illformed"]);
    assert!(!ok, "ill-formed fixture must fail analysis");
    let golden = [
        "error[RS-W001]: process p0 mutates obj0 component 1 owned by p1 \
         (single-writer discipline, §3)",
        "error[RS-W002]: process p1's solo write stream violates ABA-freedom: \
         ABA on object 0 component 1: value 1 reappears after Some(2)",
        "warning[RS-W003]: footprint m = 8 registers with n = 4 processes: \
         no (f, d) satisfies (f - d)*m + d <= n, so Theorem 21's reduction cannot fire",
        "warning[RS-W004]: process p2 produces no output within 256 solo steps: \
         remaining protocol steps are unreachable or its Block-Update never completes",
        "warning[RS-W005]: process p3 writes the reserved yield symbol Y via U[3]=() \
         at solo step 1",
        "warning[RS-W005]: process p3 outputs the reserved yield symbol Y",
        "warning[RS-W008]: 1 single-writer component slot(s) [obj0.1] are \
         plain-written by two or more processes, exceeding the Theorem 21 \
         covering budget d = 0 for (n = 4, m = 8): every block-write can be \
         obliterated",
        "error[RS-W006]: run (seed 0): runtime rejected p0's write to single-writer \
         component 1; process marked stuck",
        "analysis: 5 deny-level, 5 warn-level diagnostics",
    ];
    for line in golden {
        assert!(stdout.contains(line), "missing golden line {line:?} in:\n{stdout}");
    }
}

#[test]
fn golden_severity_prefixes_for_every_code() {
    // Every code renders under its default severity with the stable
    // `error[..]` / `warning[..]` prefix; RS-W007 has no fixture path
    // (legal runtime traces cannot tear a window) so it is pinned here.
    let expected = [
        (LintCode::SingleWriter, "error[RS-W001]: x"),
        (LintCode::AbaFreedom, "error[RS-W002]: x"),
        (LintCode::Footprint, "warning[RS-W003]: x"),
        (LintCode::DeadStep, "warning[RS-W004]: x"),
        (LintCode::YieldSymbol, "warning[RS-W005]: x"),
        (LintCode::HappensBefore, "error[RS-W006]: x"),
        (LintCode::BlockUpdateWindow, "error[RS-W007]: x"),
        (LintCode::StaticInterference, "warning[RS-W008]: x"),
        (LintCode::UnvalidatedRead, "warning[RS-W009]: x"),
        (LintCode::StaticSerializable, "warning[RS-W010]: x"),
    ];
    for (code, want) in expected {
        let d = Diagnostic {
            code,
            severity: code.default_severity(),
            message: "x".to_string(),
        };
        assert_eq!(d.to_string(), want);
    }
}

#[test]
fn allow_severity_drops_diagnostics_from_reports() {
    let mut config = LintConfig::default();
    config.set(LintCode::SingleWriter, Severity::Allow);
    let report = AnalysisReport::from_findings(
        vec![
            (LintCode::SingleWriter, "suppressed".to_string()),
            (LintCode::Footprint, "kept".to_string()),
        ],
        &config,
    );
    assert!(!report.has(LintCode::SingleWriter));
    assert!(report.has(LintCode::Footprint));
    assert_eq!(report.deny_count(), 0);
    assert_eq!(report.warn_count(), 1);
}

// ---------------------------------------------------------------------
// CLI acceptance: analyze subcommand.
// ---------------------------------------------------------------------

#[test]
fn analyze_reports_every_static_code_on_the_fixture() {
    let (stdout, _, ok) = run(&["analyze", "--protocol", "illformed"]);
    assert!(!ok);
    for code in [
        "RS-W001", "RS-W002", "RS-W003", "RS-W004", "RS-W005", "RS-W006", "RS-W008",
    ] {
        assert!(stdout.contains(code), "expected {code} in:\n{stdout}");
    }
}

#[test]
fn analyze_passes_shipped_protocols() {
    for protocol in ["racing", "contrarian"] {
        let (stdout, _, ok) = run(&["analyze", "--protocol", protocol]);
        assert!(ok, "{protocol} must analyze clean");
        assert!(stdout.contains("analysis: clean (0 warnings)"), "{protocol}:\n{stdout}");
    }
    // Ladder spends registers freely (adopt-commit pairs), so the
    // Theorem 21 footprint lint warns — but warnings don't gate.
    let (stdout, _, ok) = run(&["analyze", "--protocol", "ladder"]);
    assert!(ok);
    assert!(stdout.contains("warning[RS-W003]"));
    assert!(stdout.contains("analysis: clean (1 warnings)"));
}

#[test]
fn analyze_unknown_lint_code_fails_closed_with_known_list() {
    let (_, stderr, ok) = run(&["analyze", "--protocol", "racing", "--deny", "RS-W099"]);
    assert!(!ok);
    assert!(stderr.contains("unknown lint code"), "stderr:\n{stderr}");
    assert!(
        stderr.contains(
            "RS-W001, RS-W002, RS-W003, RS-W004, RS-W005, RS-W006, RS-W007, \
             RS-W008, RS-W009, RS-W010"
        ),
        "stderr must list every known code:\n{stderr}"
    );
}

#[test]
fn analyze_near_miss_lint_code_gets_a_suggestion() {
    let (_, stderr, ok) =
        run(&["analyze", "--protocol", "racing", "--deny", "RS-W09"]);
    assert!(!ok);
    assert!(
        stderr.contains("did you mean RS-W009?"),
        "stderr must suggest the nearest code:\n{stderr}"
    );
}

#[test]
fn analyze_conflicting_severities_fail_closed() {
    let (_, stderr, ok) = run(&[
        "analyze", "--protocol", "racing", "--deny", "RS-W003", "--allow", "RS-W003",
    ]);
    assert!(!ok);
    assert!(stderr.contains("two severities"), "stderr:\n{stderr}");
}

#[test]
fn analyze_allow_overrides_downgrade_fixture_denials() {
    let (stdout, _, ok) = run(&[
        "analyze",
        "--protocol",
        "illformed",
        "--allow",
        "RS-W001,RS-W002,RS-W006",
    ]);
    assert!(ok, "with every deny-level code allowed the fixture passes");
    assert!(stdout.contains("analysis: clean (5 warnings)"), "stdout:\n{stdout}");
}

#[test]
fn analyze_deny_escalates_static_interference_on_the_fixture() {
    // RS-W008 defaults to warn; --deny escalates it to a gating error
    // alongside the fixture's native denials.
    let (stdout, _, ok) =
        run(&["analyze", "--protocol", "illformed", "--deny", "RS-W008"]);
    assert!(!ok);
    assert!(stdout.contains("error[RS-W008]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("analysis: 6 deny-level, 4 warn-level diagnostics"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn analyze_allow_drops_static_interference_on_the_fixture() {
    let (stdout, _, _) =
        run(&["analyze", "--protocol", "illformed", "--allow", "RS-W008"]);
    assert!(!stdout.contains("RS-W008"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("analysis: 5 deny-level, 4 warn-level diagnostics"),
        "stdout:\n{stdout}"
    );
}

// ---------------------------------------------------------------------
// CLI acceptance: campaign pre-flight gate.
// ---------------------------------------------------------------------

#[test]
fn campaign_preflight_rejects_the_fixture() {
    let (_, stderr, ok) = run(&["campaign", "--protocol", "illformed", "--runs", "1"]);
    assert!(!ok);
    assert!(stderr.contains("pre-flight analysis rejected the system:"), "stderr:\n{stderr}");
    assert!(stderr.contains("error[RS-W001]"));
    assert!(stderr.contains("(--no-preflight runs the campaign anyway)"));
}

#[test]
fn campaign_no_preflight_reaches_the_runtime_guard() {
    let (stdout, _, ok) = run(&[
        "campaign", "--protocol", "illformed", "--runs", "1", "--no-preflight",
    ]);
    assert!(ok, "campaign records failures without failing the exit");
    assert!(
        stdout.contains("process 0 is not the owner of single-writer component 1"),
        "stdout:\n{stdout}"
    );
}

/// An aborted run counts the steps it took before the failing one, in
/// the campaign's record and in its replay alike.
#[test]
fn replay_counts_the_steps_of_an_aborted_run() {
    let config = CampaignConfig {
        schedulers: ["rr", "random", "obstruction:2"]
            .iter()
            .map(|s| SchedulerSpec::parse(s).unwrap())
            .collect(),
        seed_start: 0,
        runs: 4,
        budget: 2_000,
        threads: 2,
    };
    let factory = |_seed: u64| illformed_system();
    let check = |_: &rsim_smr::system::System| None;
    let report = run_campaign(&config, factory, &check);
    assert_eq!(report.failures.len(), 12, "every run hits the runtime guard");
    for failure in &report.failures {
        assert!(failure.error.is_some() && failure.steps > 0, "{failure:?}");
        let spec = SchedulerSpec::parse(&failure.scheduler).unwrap();
        let replayed = replay_run(&spec, failure.seed, config.budget, factory, &check);
        assert_eq!(replayed.steps, failure.steps, "{} seed {}", failure.scheduler, failure.seed);
        assert_eq!(replayed.error, failure.error);
    }
    let (stdout, _, ok) = run(&[
        "campaign", "--protocol", "illformed", "--no-preflight", "--sched", "rr", "--seed", "0",
    ]);
    assert!(ok);
    assert!(stdout.contains("replay rr seed 0: 4 steps, not terminated"), "stdout:\n{stdout}");
}

#[test]
fn campaign_preflight_passes_clean_protocols() {
    let (stdout, stderr, ok) = run(&["campaign", "--protocol", "racing", "--runs", "2"]);
    assert!(ok);
    assert!(stderr.contains("preflight: ok (0 warnings)"), "stderr:\n{stderr}");
    assert!(stdout.contains("campaign: protocol=racing"));
}

// ---------------------------------------------------------------------
// Agreement property: on traces from a seeded mini-campaign, Pass 2's
// happens-before verdict matches the Wing–Gong linearizability checker
// — clean traces pass both, a corrupted scan view fails both.
// ---------------------------------------------------------------------

fn history_of(events: &[rsim_smr::system::Event]) -> History {
    let mut h = History::new();
    for e in events {
        let id = h.invoke(e.pid.0, e.op.clone());
        h.respond(id, e.resp.clone());
    }
    h
}

proptest! {
    #[test]
    fn hb_verdict_agrees_with_linearizability(seed in 0u64..40) {
        let inputs = [Value::Int(1), Value::Int(2)];
        let initial = racing_system(2, &inputs);
        let mut sys = initial.clone();
        let mut sched = Random::seeded(seed);
        // Bounded prefix: every prefix of a run is itself a valid
        // execution, and it keeps the history under the Wing–Gong
        // checker's 128-record cap.
        sys.run(&mut sched, 40).expect("clean protocol steps without error");
        let events = sys.trace().to_vec();
        prop_assert!(events.len() < 128);

        // Violation-free trace: both verdicts clean.
        let hb = analyze::check_execution(&initial, &events);
        prop_assert!(hb.is_empty(), "hb findings on honest trace: {hb:?}");
        prop_assert!(matches!(
            check(&history_of(&events), Object::snapshot(2)),
            LinCheck::Linearizable(_)
        ));

        // Corrupt the first scan's view with a value nobody ever
        // writes: both checkers must flag the trace.
        if let Some(pos) = events
            .iter()
            .position(|e| matches!(e.resp, Response::View(_)))
        {
            let mut bad = events.clone();
            bad[pos].resp = Response::View(vec![Value::Int(99), Value::Int(99)].into());
            let hb_bad = analyze::check_execution(&initial, &bad);
            prop_assert!(!hb_bad.is_empty(), "hb missed the corrupted view");
            prop_assert!(matches!(
                check(&history_of(&bad), Object::snapshot(2)),
                LinCheck::NotLinearizable
            ));
        }
    }
}

#[test]
fn preflight_library_entry_rejects_the_fixture() {
    let err = analyze::preflight(&illformed_system(), &LintConfig::default())
        .expect_err("fixture must be rejected");
    let text = err.to_string();
    assert!(text.contains("pre-flight analysis rejected the system"));
    assert!(text.contains("RS-W001") && text.contains("RS-W002"));
}

// ---------------------------------------------------------------------
// Analyzer/fuzz interplay: the generator's analyzer-reject mutants must
// trip their exact lint codes through the CLI, with the same stable
// rendered form scripts grep for — and gen bases must analyze clean.
// ---------------------------------------------------------------------

#[test]
fn golden_gen_trespass_write_trips_single_writer() {
    let (stdout, _, ok) = run(&["analyze", "--protocol", "gen:7:trespass-write"]);
    assert!(!ok, "trespassing mutant must fail analysis");
    // Pass 1 catches the static trespass; Pass 2's driven run also sees
    // the runtime rejection, so both codes pin here.
    for line in [
        "error[RS-W001]: process p0 mutates obj0 component 1 owned by p1 \
         (single-writer discipline, §3)",
        "error[RS-W006]: run (seed 0): runtime rejected p0's write to \
         single-writer component 1; process marked stuck",
    ] {
        assert!(stdout.contains(line), "missing golden line {line:?} in:\n{stdout}");
    }
}

#[test]
fn golden_gen_aba_reuse_trips_aba_freedom() {
    let (stdout, _, ok) = run(&["analyze", "--protocol", "gen:7:aba-reuse"]);
    assert!(!ok, "ABA mutant must fail analysis");
    let line = "error[RS-W002]: process p0's solo write stream violates \
                ABA-freedom: ABA on object 0 component 0: value 1001 \
                reappears after Some(1002)";
    assert!(stdout.contains(line), "missing golden line {line:?} in:\n{stdout}");
}

#[test]
fn golden_gen_yield_leak_trips_yield_symbol_when_denied() {
    // The fuzz harness escalates RS-W005 to deny; mirror that here.
    let (stdout, _, ok) = run(&[
        "analyze", "--protocol", "gen:7:yield-leak", "--deny", "RS-W005",
    ]);
    assert!(!ok, "yield-leak mutant must fail analysis under --deny RS-W005");
    let line = "error[RS-W005]: process p0 writes the reserved yield symbol Y \
                via U[0]=() at solo step 1";
    assert!(stdout.contains(line), "missing golden line {line:?} in:\n{stdout}");
}

#[test]
fn gen_bases_analyze_clean() {
    for seed in ["0", "7", "41"] {
        let (stdout, _, ok) = run(&["analyze", "--protocol", &format!("gen:{seed}")]);
        assert!(ok, "gen base {seed} must analyze clean:\n{stdout}");
        assert!(
            stdout.contains("analysis: clean"),
            "gen:{seed} not clean:\n{stdout}"
        );
    }
}

// ---------------------------------------------------------------------
// Pass 3 (static interference): --explain, --matrix, and the RS-W009 /
// RS-W010 fixtures.
// ---------------------------------------------------------------------

#[test]
fn analyze_explain_prints_the_paper_rationale() {
    for code in ["RS-W001", "RS-W008", "RS-W009", "RS-W010"] {
        let (stdout, _, ok) = run(&["analyze", "--explain", code]);
        assert!(ok, "--explain {code} must succeed");
        assert!(stdout.starts_with(&format!("{code}: ")), "stdout:\n{stdout}");
        // Every rationale cites the paper clause it descends from.
        assert!(
            stdout.contains('§') || stdout.contains("Theorem") || stdout.contains("Corollary"),
            "--explain {code} cites no paper clause:\n{stdout}"
        );
    }
}

#[test]
fn analyze_explain_unknown_code_exits_nonzero_with_suggestion() {
    let (stdout, stderr, ok) = run(&["analyze", "--explain", "RS-W09"]);
    assert!(!ok, "unknown --explain code must exit 1");
    assert!(stdout.is_empty(), "no partial rationale on stdout:\n{stdout}");
    assert!(stderr.contains("did you mean RS-W009?"), "stderr:\n{stderr}");
}

#[test]
fn analyze_matrix_prints_the_independence_grid() {
    let (stdout, _, ok) =
        run(&["analyze", "--protocol", "serializable", "--procs", "3", "--matrix"]);
    assert!(ok);
    assert!(
        stdout.contains("static independence matrix (n = 3)"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("3 statically independent pair(s) of 3"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn analyze_serializable_fixture_warns_w010() {
    let (stdout, _, ok) = run(&["analyze", "--protocol", "serializable"]);
    assert!(ok, "RS-W010 is warn-level by default");
    let line = "warning[RS-W010]: interference graph is edge-free: every \
                schedule is equivalent to the solo runs, exploration adds \
                nothing; solo verdicts: p0 → 1, p1 → 2, p2 → 3";
    assert!(stdout.contains(line), "missing golden line {line:?} in:\n{stdout}");
    assert!(stdout.contains("analysis: clean (1 warnings)"), "stdout:\n{stdout}");
}

#[test]
fn analyze_deny_w010_gates_the_serializable_fixture() {
    let (stdout, _, ok) =
        run(&["analyze", "--protocol", "serializable", "--deny", "RS-W010"]);
    assert!(!ok, "--deny RS-W010 must gate the edge-free fixture");
    assert!(stdout.contains("error[RS-W010]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("analysis: 1 deny-level, 0 warn-level diagnostics"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn unvalidated_single_read_trips_w009() {
    use rsim_smr::object::ObjectId;
    use rsim_smr::process::{
        Process, ProtocolStep, SnapshotProcess, SnapshotProtocol,
    };
    use rsim_smr::system::System;

    // p0 writes its slot (scanning on the way, twice overall); p1 scans
    // exactly once and decides on whatever it saw — the unvalidated
    // read-after-write shape RS-W009 is about.
    #[derive(Clone, Debug)]
    struct WriteThenOut {
        wrote: bool,
    }
    impl SnapshotProtocol for WriteThenOut {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            if self.wrote {
                ProtocolStep::Output(view[0].clone())
            } else {
                self.wrote = true;
                ProtocolStep::Update(0, Value::Int(5))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }
    #[derive(Clone, Debug)]
    struct ReadOnce;
    impl SnapshotProtocol for ReadOnce {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            ProtocolStep::Output(view[0].clone())
        }
        fn components(&self) -> usize {
            1
        }
    }
    let sys = System::new(
        vec![Object::snapshot(1)],
        vec![
            Box::new(SnapshotProcess::new(WriteThenOut { wrote: false }, ObjectId(0)))
                as Box<dyn Process>,
            Box::new(SnapshotProcess::new(ReadOnce, ObjectId(0))),
        ],
    );
    let findings = analyze::interfere_system(&sys, analyze::DEFAULT_BUDGET);
    let (code, message) = findings
        .iter()
        .find(|(code, _)| *code == LintCode::UnvalidatedRead)
        .expect("RS-W009 must fire on the single-scan reader");
    let rendered = Diagnostic {
        code: *code,
        severity: code.default_severity(),
        message: message.clone(),
    }
    .to_string();
    assert_eq!(
        rendered,
        "warning[RS-W009]: process p1 reads obj0 component 0 (written by p0) \
         exactly once in its solo run and never validates it against a \
         concurrent install"
    );
}
