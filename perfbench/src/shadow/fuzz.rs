//! Shadow of `run_fuzz` at one thread with mutants and a corpus, the
//! call `fuzz --mutants --corpus DIR --threads 1` makes: per generator
//! seed, elaborate, pre-flight, and hold each mutant to its verdict
//! through `replay_run` searches, ddmin shrinking and replay bundles.

use super::campaign::execute;
use super::Shadowed;
use crate::layers::{Layer, Tracer};
use rsim_smr::analyze;
use rsim_smr::bundle::{tool_id, ReplayBundle, BUNDLE_VERSION};
use rsim_smr::campaign::SchedulerSpec;
use rsim_smr::error::ModelError;
use rsim_smr::fault::FaultPlan;
use rsim_smr::gen::fuzz::{consensus_check, lint_config, MutantReport, MutantResult, SeedReport};
use rsim_smr::gen::mutate::ALL_MUTATIONS;
use rsim_smr::gen::{run_fuzz, FuzzConfig, FuzzReport, GenSpec, Verdict};
use rsim_smr::process::ProcessId;
use rsim_smr::shrink;
use rsim_smr::system::System;
use std::ops::Range;
use std::path::PathBuf;

/// One `fuzz --mutants` instance.
#[derive(Clone, Debug)]
pub struct Params {
    /// `--seeds`.
    pub seeds: Range<u64>,
    /// `--corpus`.
    pub corpus: PathBuf,
}

impl Params {
    fn config(&self) -> FuzzConfig {
        FuzzConfig {
            seeds: self.seeds.clone(),
            mutants: true,
            corpus: Some(self.corpus.clone()),
            threads: 1,
            ..FuzzConfig::default()
        }
    }
}

/// Runs the real call untraced, then the shadow. Both write the same
/// bundle files into the corpus, whose paths the reports record.
pub fn run(p: &Params, t: &mut Tracer) -> Result<Shadowed, String> {
    Shadowed::measure(
        || Ok(run_fuzz(&p.config()).to_json()),
        |t| Ok(shadow(p, t)),
        t,
    )
}

/// The traced re-implementation of `run_fuzz(..).to_json()`.
pub fn shadow(p: &Params, t: &mut Tracer) -> String {
    let config = p.config();
    if let Some(dir) = &config.corpus {
        let _ = std::fs::create_dir_all(dir);
    }
    let root = t.open(|| "fuzz".into(), None);
    let per_seed = config
        .seeds
        .clone()
        .map(|seed| {
            let span = t.open(|| format!("seed {seed}"), root);
            let report = fuzz_seed(seed, &config, t);
            t.close(span);
            report
        })
        .collect();
    t.close(root);
    FuzzReport { config, per_seed }.to_json()
}

fn fuzz_seed(seed: u64, config: &FuzzConfig, t: &mut Tracer) -> SeedReport {
    let lint = lint_config();
    let (spec, canonical) = t.time(Layer::GenSpec, || {
        let spec = GenSpec::from_seed(seed);
        let canonical = spec.canonical();
        (spec, canonical)
    });
    let mut report = SeedReport {
        seed,
        canonical,
        preflight_ok: false,
        warnings: 0,
        mutants: Vec::new(),
    };
    let base = t.time(Layer::SystemBuild, || spec.build_system());
    match t.time(Layer::Preflight, || analyze::preflight(&base, &lint)) {
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
        let mspec = t.time(Layer::GenMutate, || mutation.apply(&spec));
        let msys = t.time(Layer::SystemBuild, || mspec.build_system());
        let preflight = t.time(Layer::Preflight, || analyze::preflight(&msys, &lint));
        let result = match (mutation.verdict(), preflight) {
            (Verdict::AnalyzerReject, Err(ModelError::PreflightRejected { diagnostics })) => {
                MutantResult::Rejected {
                    codes: deny_codes(&diagnostics),
                }
            }
            (Verdict::AnalyzerReject, _) => MutantResult::RejectedMissed,
            (_, Err(err)) => MutantResult::UnexpectedReject {
                diagnostics: err.to_string(),
            },
            (Verdict::MustViolate, Ok(_)) => kill_mutant(&mspec, config, t),
            (Verdict::MustStayClean, Ok(_)) => verify_clean(&mspec, config, t),
        };
        report.mutants.push(MutantReport { mutation, result });
    }
    report
}

/// The sorted, deduplicated `RS-Wxxx` codes of rendered diagnostics.
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

/// One `replay_run`: a fresh system and the cache-less run loop.
fn search_run(
    mspec: &GenSpec,
    sched: &SchedulerSpec,
    seed: u64,
    budget: usize,
    check: &dyn Fn(&System) -> Option<String>,
    t: &mut Tracer,
) -> Option<String> {
    let mut system = t.time(Layer::SystemBuild, || mspec.build_system());
    let record = execute(sched, seed, budget, &mut system, check, None, t);
    t.time(Layer::SystemDrop, || drop(system));
    record.violation
}

fn kill_mutant(mspec: &GenSpec, config: &FuzzConfig, t: &mut Tracer) -> MutantResult {
    let sched = SchedulerSpec::parse("obstruction:1").expect("stock spec");
    let factory = |_seed: u64| mspec.build_system();
    let check = consensus_check(mspec.inputs());
    let cex_check = |sys: &System, _crashed: &[ProcessId]| check(sys);
    for kill_seed in 0..config.kill_runs {
        t.count("fuzz.kill_runs", 1);
        if search_run(mspec, &sched, kill_seed, config.budget, &check, t).is_none() {
            continue;
        }
        let captured = t.time(Layer::ShrinkCapture, || {
            shrink::capture(
                &sched,
                kill_seed,
                config.budget,
                &FaultPlan::none(),
                &factory,
                &cex_check,
            )
        });
        let Some((cex, _)) = captured else { continue };
        let seeded = || factory(kill_seed);
        let (shrunk, _) = t.time(Layer::ShrinkDdmin, || {
            shrink::shrink(&cex, &seeded, &cex_check)
        });
        let outcome = t.time(Layer::ShrinkExecute, || {
            shrink::execute(&seeded, &shrunk, &cex_check)
        });
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
        if t.time(Layer::BundleReplay, || bundle.replay(&seeded, &cex_check))
            .is_err()
        {
            continue;
        }
        let stored = config.corpus.as_ref().and_then(|dir| {
            let path = dir.join(format!(
                "{}.bundle.json",
                mspec.cli_name().replace(':', "-")
            ));
            t.time(Layer::BundleStore, || bundle.store(&path)).ok()?;
            Some(path.to_string_lossy().into_owned())
        });
        t.count("fuzz.kills", 1);
        return MutantResult::Killed {
            kill_seed,
            original_decisions: cex.decisions.len(),
            shrunk_decisions: shrunk.decisions.len(),
            violation,
            bundle: stored,
        };
    }
    MutantResult::Survived {
        runs: config.kill_runs,
    }
}

fn verify_clean(mspec: &GenSpec, config: &FuzzConfig, t: &mut Tracer) -> MutantResult {
    let sched = SchedulerSpec::parse("obstruction:1").expect("stock spec");
    let check = consensus_check(mspec.inputs());
    for seed in 0..config.clean_runs {
        t.count("fuzz.clean_runs", 1);
        if let Some(violation) = search_run(mspec, &sched, seed, config.budget, &check, t) {
            return MutantResult::Flagged { seed, violation };
        }
    }
    MutantResult::Clean {
        runs: config.clean_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_matches_run_fuzz() {
        let corpus = crate::work_root().join(format!("fuzz-test-{}", std::process::id()));
        let p = Params {
            seeds: 0..2,
            corpus: corpus.clone(),
        };
        let mut t = Tracer::default();
        let shadowed = run(&p, &mut t);
        let _ = std::fs::remove_dir_all(&corpus);
        let shadowed = shadowed.unwrap();
        shadowed.check().unwrap();
        assert!(shadowed.real.contains("\"predictions_hold\": true"));
        assert!(t.counters()["fuzz.kill_runs"] > 0);
    }
}
