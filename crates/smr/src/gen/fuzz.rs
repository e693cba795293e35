//! The fuzz harness: generated protocol → pre-flight → seeded campaign
//! search → ddmin shrink → portable replay bundle, with a deterministic
//! JSON report.
//!
//! For every seed in the range the harness elaborates the grammar,
//! pre-flights the base protocol (it must pass with zero deny-level
//! diagnostics), and — in `--mutants` mode — holds each mutation
//! operator to its predicted verdict:
//!
//! * **analyzer-reject** mutants must die at pre-flight; they never
//!   burn a single search step.
//! * **must-violate** mutants must pass pre-flight and then be *killed*
//!   within the bounded search budget: a seeded obstruction-adversary campaign finds a
//!   violating run, the run is captured as a decision trace, ddmin
//!   shrinks it, the shrunk counterexample is re-verified and (when a
//!   corpus directory is given) stored as a portable replay bundle that
//!   the stock `replay` subcommand re-executes bit-for-bit.
//! * **must-stay-clean** mutants must pass pre-flight and survive the
//!   same search with no violation flagged.
//!
//! Every step is a pure function of the seed range and knobs, so the
//! JSON report is byte-identical at any `--threads` count: seeds are
//! mapped over the workers of [`crate::pool`], which return their
//! reports in seed order, and each seed's pipeline is deterministic.
//!
//! The harness lints with [`lint_config`]: the stock defaults plus
//! RS-W005 (yield symbol) escalated to deny — the generator never emits
//! the reserved symbol Y, so any appearance is an injected fault and
//! must gate, not warn.

use std::ops::Range;
use std::path::PathBuf;

use crate::analyze::{self, LintCode, LintConfig, Severity};
use crate::bundle::{tool_id, ReplayBundle, BUNDLE_VERSION};
use crate::campaign::{replay_run_with, MatrixMemo, SchedulerSpec};
use crate::error::ModelError;
use crate::fault::FaultPlan;
use crate::json::escape;
use crate::pool::par_map;
use crate::shrink;
use crate::system::System;
use crate::value::Value;

use super::grammar::GenSpec;
use super::mutate::{Mutation, Verdict, ALL_MUTATIONS};

/// Knobs for one fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Generator seeds to elaborate (half-open).
    pub seeds: Range<u64>,
    /// Derive and judge the mutation operators for every seed.
    pub mutants: bool,
    /// Directory to store replay bundles of killed mutants into.
    pub corpus: Option<PathBuf>,
    /// Scheduler seeds tried per must-violate mutant before it counts
    /// as survived.
    pub kill_runs: u64,
    /// Scheduler seeds a must-stay-clean mutant must survive.
    pub clean_runs: u64,
    /// Step budget per search run.
    pub budget: usize,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 0..16,
            mutants: true,
            corpus: None,
            kill_runs: 1_200,
            clean_runs: 64,
            budget: 3_000,
            threads: 0,
        }
    }
}

/// The harness's lint severities: defaults plus RS-W005 escalated to
/// deny (a generated protocol writing the yield symbol is always an
/// injected fault).
pub fn lint_config() -> LintConfig {
    let mut config = LintConfig::default();
    config.set(LintCode::YieldSymbol, Severity::Deny);
    config
}

/// The consensus check applied to every searched configuration:
/// validity and agreement over the *partial* output set (consensus is
/// subset-closed, so judging partial outputs is sound and catches
/// disagreement before stragglers terminate). Messages are
/// deterministic — they double as the shrink fingerprint.
pub fn consensus_check(inputs: Vec<Value>) -> impl Fn(&System) -> Option<String> + Sync {
    move |sys| {
        let outs: Vec<Value> = sys.outputs().into_iter().flatten().collect();
        if outs.is_empty() {
            return None;
        }
        if let Some(bad) = outs.iter().find(|out| !inputs.contains(out)) {
            return Some(format!(
                "validity violated: output {bad:?} is not any process's input"
            ));
        }
        if outs.iter().any(|out| *out != outs[0]) {
            let mut distinct: Vec<String> =
                outs.iter().map(|out| format!("{out:?}")).collect();
            distinct.sort();
            distinct.dedup();
            return Some(format!(
                "agreement violated: distinct outputs [{}]",
                distinct.join(", ")
            ));
        }
        None
    }
}

/// How one mutant fared against its predicted verdict.
#[derive(Clone, Debug)]
pub enum MutantResult {
    /// Must-violate: a violation was found, shrunk, re-verified, and
    /// (when a corpus was given) bundled.
    Killed {
        /// The scheduler seed of the violating run.
        kill_seed: u64,
        /// Decision count of the captured run.
        original_decisions: usize,
        /// Decision count after ddmin.
        shrunk_decisions: usize,
        /// The (shrunk) violation message.
        violation: String,
        /// Corpus bundle path, when one was stored.
        bundle: Option<String>,
    },
    /// Must-violate mutant produced no violation within the budget.
    Survived {
        /// Search runs executed.
        runs: u64,
    },
    /// Analyzer-reject fulfilled: pre-flight denied the mutant.
    Rejected {
        /// The deny-level lint codes that fired, sorted.
        codes: Vec<String>,
    },
    /// Analyzer-reject missed: pre-flight passed a mutant it must stop.
    RejectedMissed,
    /// Must-stay-clean fulfilled: no violation across the runs.
    Clean {
        /// Search runs executed.
        runs: u64,
    },
    /// Must-stay-clean mutant was flagged with a violation.
    Flagged {
        /// The scheduler seed of the violating run.
        seed: u64,
        /// The violation message.
        violation: String,
    },
    /// A runtime-verdict mutant was unexpectedly rejected at
    /// pre-flight (generator or operator bug).
    UnexpectedReject {
        /// The rendered deny-level diagnostics.
        diagnostics: String,
    },
}

impl MutantResult {
    /// Stable result tag used in the JSON report.
    pub fn tag(&self) -> &'static str {
        match self {
            MutantResult::Killed { .. } => "killed",
            MutantResult::Survived { .. } => "survived",
            MutantResult::Rejected { .. } => "rejected",
            MutantResult::RejectedMissed => "rejected-missed",
            MutantResult::Clean { .. } => "clean",
            MutantResult::Flagged { .. } => "flagged",
            MutantResult::UnexpectedReject { .. } => "unexpected-reject",
        }
    }
}

/// One mutant's report entry.
#[derive(Clone, Debug)]
pub struct MutantReport {
    /// The operator's stable name.
    pub mutation: Mutation,
    /// What happened.
    pub result: MutantResult,
}

impl MutantReport {
    /// Did the outcome match the operator's predicted verdict?
    pub fn prediction_held(&self) -> bool {
        matches!(
            (self.mutation.verdict(), &self.result),
            (Verdict::MustViolate, MutantResult::Killed { .. })
                | (Verdict::MustStayClean, MutantResult::Clean { .. })
                | (Verdict::AnalyzerReject, MutantResult::Rejected { .. })
        )
    }
}

/// One generator seed's report entry.
#[derive(Clone, Debug)]
pub struct SeedReport {
    /// The generator seed.
    pub seed: u64,
    /// The spec's canonical form (the byte-determinism artifact).
    pub canonical: String,
    /// Did the base protocol pass pre-flight?
    pub preflight_ok: bool,
    /// Warn-level diagnostics on the base (deny-level always gates).
    pub warnings: usize,
    /// Mutant outcomes, in [`ALL_MUTATIONS`] order (empty without
    /// `--mutants` or when the base was rejected).
    pub mutants: Vec<MutantReport>,
}

/// Aggregated fuzz outcome; all fields are deterministic functions of
/// the [`FuzzConfig`].
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The configuration that produced this report.
    pub config: FuzzConfig,
    /// Per-seed reports, in seed order.
    pub per_seed: Vec<SeedReport>,
}

impl FuzzReport {
    /// Protocols generated.
    pub fn generated(&self) -> usize {
        self.per_seed.len()
    }

    /// Base protocols the analyzer rejected (must be 0: the grammar
    /// emits only well-formed protocols).
    pub fn preflight_rejected(&self) -> usize {
        self.per_seed.iter().filter(|s| !s.preflight_ok).count()
    }

    fn count(&self, tag: &str) -> usize {
        self.per_seed
            .iter()
            .flat_map(|s| &s.mutants)
            .filter(|m| m.result.tag() == tag)
            .count()
    }

    /// Must-violate mutants killed (violation found + shrunk +
    /// re-verified).
    pub fn killed(&self) -> usize {
        self.count("killed")
    }

    /// Must-violate mutants that survived the search budget.
    pub fn survived(&self) -> usize {
        self.count("survived")
    }

    /// Must-stay-clean mutants that stayed clean.
    pub fn clean(&self) -> usize {
        self.count("clean")
    }

    /// Must-stay-clean mutants flagged with a violation.
    pub fn flagged(&self) -> usize {
        self.count("flagged")
    }

    /// Analyzer-reject mutants rejected at pre-flight, as predicted.
    pub fn rejected(&self) -> usize {
        self.count("rejected")
    }

    /// Analyzer-reject mutants the analyzer failed to stop.
    pub fn rejected_missed(&self) -> usize {
        self.count("rejected-missed")
    }

    /// Replay bundles written to the corpus.
    pub fn bundles_stored(&self) -> usize {
        self.per_seed
            .iter()
            .flat_map(|s| &s.mutants)
            .filter(|m| {
                matches!(&m.result, MutantResult::Killed { bundle: Some(_), .. })
            })
            .count()
    }

    /// Did every base pass pre-flight and every mutant match its
    /// predicted verdict?
    pub fn predictions_hold(&self) -> bool {
        self.preflight_rejected() == 0
            && self
                .per_seed
                .iter()
                .flat_map(|s| &s.mutants)
                .all(MutantReport::prediction_held)
    }

    /// Renders the report as JSON (hand-rolled: the workspace builds
    /// offline, without serde). Byte-identical for a fixed config at
    /// any thread count.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"seeds\": {{\"start\": {}, \"end\": {}}},\n",
            self.config.seeds.start, self.config.seeds.end
        ));
        out.push_str(&format!("  \"mutants\": {},\n", self.config.mutants));
        out.push_str(&format!("  \"kill_runs\": {},\n", self.config.kill_runs));
        out.push_str(&format!("  \"clean_runs\": {},\n", self.config.clean_runs));
        out.push_str(&format!("  \"budget\": {},\n", self.config.budget));
        out.push_str(&format!("  \"generated\": {},\n", self.generated()));
        out.push_str(&format!(
            "  \"preflight_rejected\": {},\n",
            self.preflight_rejected()
        ));
        out.push_str(&format!("  \"killed\": {},\n", self.killed()));
        out.push_str(&format!("  \"survived\": {},\n", self.survived()));
        out.push_str(&format!("  \"clean\": {},\n", self.clean()));
        out.push_str(&format!("  \"flagged\": {},\n", self.flagged()));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected()));
        out.push_str(&format!(
            "  \"rejected_missed\": {},\n",
            self.rejected_missed()
        ));
        out.push_str(&format!(
            "  \"bundles_stored\": {},\n",
            self.bundles_stored()
        ));
        out.push_str(&format!(
            "  \"predictions_hold\": {},\n",
            self.predictions_hold()
        ));
        out.push_str("  \"per_seed\": [\n");
        for (i, seed) in self.per_seed.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seed\": {}, \"canonical\": {}, \"preflight\": {}, \
                 \"warnings\": {}, \"mutants\": [",
                seed.seed,
                escape(&seed.canonical),
                escape(if seed.preflight_ok { "ok" } else { "rejected" }),
                seed.warnings,
            ));
            for (j, mutant) in seed.mutants.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&mutant_json(mutant));
            }
            out.push_str(&format!(
                "]}}{}\n",
                if i + 1 < self.per_seed.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn mutant_json(mutant: &MutantReport) -> String {
    let mut out = format!(
        "{{\"name\": {}, \"verdict\": {}, \"result\": {}",
        escape(mutant.mutation.name()),
        escape(mutant.mutation.verdict().name()),
        escape(mutant.result.tag()),
    );
    match &mutant.result {
        MutantResult::Killed {
            kill_seed,
            original_decisions,
            shrunk_decisions,
            violation,
            bundle,
        } => {
            out.push_str(&format!(
                ", \"kill_seed\": {kill_seed}, \"original_decisions\": \
                 {original_decisions}, \"shrunk_decisions\": {shrunk_decisions}, \
                 \"violation\": {}, \"bundle\": {}",
                escape(violation),
                bundle.as_deref().map_or("null".into(), escape),
            ));
        }
        MutantResult::Survived { runs } | MutantResult::Clean { runs } => {
            out.push_str(&format!(", \"runs\": {runs}"));
        }
        MutantResult::Rejected { codes } => {
            out.push_str(&format!(
                ", \"codes\": [{}]",
                codes.iter().map(|c| escape(c)).collect::<Vec<_>>().join(", ")
            ));
        }
        MutantResult::Flagged { seed, violation } => {
            out.push_str(&format!(
                ", \"seed\": {seed}, \"violation\": {}",
                escape(violation)
            ));
        }
        MutantResult::RejectedMissed => {}
        MutantResult::UnexpectedReject { diagnostics } => {
            out.push_str(&format!(
                ", \"diagnostics\": {}",
                escape(diagnostics)
            ));
        }
    }
    out.push('}');
    out
}

/// Extracts the sorted, deduplicated `RS-Wxxx` codes from rendered
/// deny-level diagnostics.
fn deny_codes(diagnostics: &str) -> Vec<String> {
    let mut codes: Vec<String> = diagnostics
        .lines()
        .filter_map(|line| {
            let start = line.find("[RS-W")? + 1;
            let end = line[start..].find(']')? + start;
            Some(line[start..end].to_string())
        })
        .collect();
    codes.sort();
    codes.dedup();
    codes
}

/// Runs the fuzz harness. Deterministic: the report is a pure function
/// of the config, regardless of `threads`.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    if let Some(dir) = &config.corpus {
        // Fail late, not here: bundle stores report their own errors.
        let _ = std::fs::create_dir_all(dir);
    }
    let seeds = config.seeds.clone().collect();
    let per_seed = par_map(seeds, config.threads, |seed| fuzz_seed(seed, config));
    FuzzReport { config: config.clone(), per_seed }
}

/// The full pipeline for one generator seed.
fn fuzz_seed(seed: u64, config: &FuzzConfig) -> SeedReport {
    let lint = lint_config();
    let spec = GenSpec::from_seed(seed);
    let mut report = SeedReport {
        seed,
        canonical: spec.canonical(),
        preflight_ok: false,
        warnings: 0,
        mutants: Vec::new(),
    };
    match analyze::preflight(&spec.build_system(), &lint) {
        Ok(analysis) => {
            report.preflight_ok = true;
            report.warnings = analysis.warn_count();
        }
        Err(_) => return report,
    }
    if !config.mutants {
        return report;
    }
    for mutation in ALL_MUTATIONS {
        let mspec = mutation.apply(&spec);
        let preflight = analyze::preflight(&mspec.build_system(), &lint);
        let result = match (mutation.verdict(), preflight) {
            (Verdict::AnalyzerReject, Err(ModelError::PreflightRejected { diagnostics })) => {
                MutantResult::Rejected { codes: deny_codes(&diagnostics) }
            }
            (Verdict::AnalyzerReject, _) => MutantResult::RejectedMissed,
            (_, Err(err)) => MutantResult::UnexpectedReject {
                diagnostics: err.to_string(),
            },
            (Verdict::MustViolate, Ok(_)) => kill_mutant(&mspec, config),
            (Verdict::MustStayClean, Ok(_)) => verify_clean(&mspec, config),
        };
        report.mutants.push(MutantReport { mutation, result });
    }
    report
}

/// Hunts a must-violate mutant: seeded obstruction-adversary campaign
/// runs (the solo-window schedules racing decisions need) until a
/// violation, then capture → ddmin shrink → re-verify → bundle. Every
/// run starts from the mutant's one system, whose interference matrix
/// is built once.
fn kill_mutant(mspec: &GenSpec, config: &FuzzConfig) -> MutantResult {
    let matrices = MatrixMemo::default();
    let sched = SchedulerSpec::parse("obstruction:1").expect("stock spec");
    let factory = |_seed: u64| mspec.build_system();
    let check = consensus_check(mspec.inputs());
    let cex_check =
        |sys: &System, _crashed: &[crate::process::ProcessId]| check(sys);
    for kill_seed in 0..config.kill_runs {
        let record =
            replay_run_with(&sched, kill_seed, config.budget, factory, &check, &matrices);
        if record.violation.is_none() {
            continue;
        }
        let Some((cex, _)) = shrink::capture(
            &sched,
            kill_seed,
            config.budget,
            &FaultPlan::none(),
            &factory,
            &cex_check,
        ) else {
            continue;
        };
        let seeded = || factory(kill_seed);
        let (shrunk, _) = shrink::shrink(&cex, &seeded, &cex_check);
        let outcome = shrink::execute(&seeded, &shrunk, &cex_check);
        let (Some(violation), Some(fingerprint)) =
            (outcome.violation.clone(), outcome.fingerprint())
        else {
            continue;
        };
        let bundle = ReplayBundle {
            version: BUNDLE_VERSION,
            tool: tool_id(),
            system: vec![
                ("kind".into(), "campaign".into()),
                ("protocol".into(), mspec.cli_name()),
                ("procs".into(), mspec.procs.to_string()),
                ("m".into(), mspec.total_components().to_string()),
                ("rounds".into(), "0".into()),
            ],
            scheduler: sched.to_string(),
            seed: kill_seed,
            plan: shrunk.plan.to_string(),
            decisions: shrunk.decisions.iter().map(|p| p.0).collect(),
            fingerprint,
            violation: violation.clone(),
        };
        // The kill only counts if the bundle replays bit-for-bit.
        if bundle.replay(&seeded, &cex_check).is_err() {
            continue;
        }
        let stored = config.corpus.as_ref().and_then(|dir| {
            let path = dir.join(format!(
                "{}.bundle.json",
                mspec.cli_name().replace(':', "-")
            ));
            bundle.store(&path).ok()?;
            Some(path.to_string_lossy().into_owned())
        });
        return MutantResult::Killed {
            kill_seed,
            original_decisions: cex.decisions.len(),
            shrunk_decisions: shrunk.decisions.len(),
            violation,
            bundle: stored,
        };
    }
    MutantResult::Survived { runs: config.kill_runs }
}

/// Verifies a must-stay-clean mutant across the clean-run budget, with
/// the mutant's interference matrix built once.
fn verify_clean(mspec: &GenSpec, config: &FuzzConfig) -> MutantResult {
    let matrices = MatrixMemo::default();
    let sched = SchedulerSpec::parse("obstruction:1").expect("stock spec");
    let factory = |_seed: u64| mspec.build_system();
    let check = consensus_check(mspec.inputs());
    for seed in 0..config.clean_runs {
        let record = replay_run_with(&sched, seed, config.budget, factory, &check, &matrices);
        if let Some(violation) = record.violation {
            return MutantResult::Flagged { seed, violation };
        }
    }
    MutantResult::Clean { runs: config.clean_runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_codes_extracts_sorted_unique() {
        let text = "error[RS-W002]: b\nerror[RS-W001]: a\nerror[RS-W001]: c";
        assert_eq!(deny_codes(text), vec!["RS-W001", "RS-W002"]);
    }

    #[test]
    fn consensus_check_flags_partial_disagreement() {
        use crate::object::{Object, ObjectId};
        use crate::process::{Process, SnapshotProcess, SnapshotProtocol, ProtocolStep};

        #[derive(Clone, Debug)]
        struct Decide(i64);
        impl SnapshotProtocol for Decide {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                ProtocolStep::Output(Value::Int(self.0))
            }
            fn components(&self) -> usize {
                1
            }
        }
        let mk = |v| {
            Box::new(SnapshotProcess::new(Decide(v), ObjectId(0))) as Box<dyn Process>
        };
        let mut sys = System::new(vec![Object::snapshot(1)], vec![mk(1), mk(2)]);
        let check = consensus_check(vec![Value::Int(1), Value::Int(2)]);
        assert!(check(&sys).is_none(), "no outputs yet");
        sys.step(crate::process::ProcessId(0)).unwrap();
        assert!(check(&sys).is_none(), "one output agrees with itself");
        sys.step(crate::process::ProcessId(1)).unwrap();
        let msg = check(&sys).expect("disagreement");
        assert!(msg.contains("agreement violated"), "{msg}");
    }

    #[test]
    fn report_json_is_deterministic_across_threads() {
        let mut config = FuzzConfig {
            seeds: 0..4,
            mutants: false,
            ..FuzzConfig::default()
        };
        config.threads = 1;
        let one = run_fuzz(&config).to_json();
        config.threads = 4;
        let four = run_fuzz(&config).to_json();
        assert_eq!(one, four);
    }
}
