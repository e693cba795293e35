//! Shadow of the `campaign --threads 1 --json` pipeline: pre-flight,
//! `run_campaign_with` over the scheduler × seed matrix, the JSON
//! report, and the ddmin shrink of the first failure. The per-run
//! executor is shared with the fuzz and service shadows, which reach
//! the same code through `replay_run` and the service workers.

use super::{racing_check, racing_factory, Shadowed};
use crate::layers::{Layer, Tracer};
use rsim_smr::analyze::{self, InterferenceMatrix, LintConfig};
use rsim_smr::campaign::{
    preflight_campaign, run_campaign_with, CampaignConfig, CampaignOptions, CampaignReport,
    RunRecord, SchedulerSpec, SchedulerTally,
};
use rsim_smr::error::ModelError;
use rsim_smr::fault::FaultPlan;
use rsim_smr::fingerprint::FingerprintCache;
use rsim_smr::hb::independent;
use rsim_smr::process::ProcessId;
use rsim_smr::shrink;
use rsim_smr::system::{Event, System};

/// One `campaign --protocol racing` instance.
#[derive(Clone, Debug)]
pub struct Params {
    /// Racing processes.
    pub procs: usize,
    /// Registers.
    pub m: usize,
    /// `--sched`.
    pub schedulers: Vec<SchedulerSpec>,
    /// `--seed-start`.
    pub seed_start: u64,
    /// `--runs` (seeds per scheduler).
    pub runs: usize,
}

impl Params {
    /// The single-threaded campaign shape these parameters describe.
    pub fn config(&self) -> CampaignConfig {
        CampaignConfig {
            schedulers: self.schedulers.clone(),
            seed_start: self.seed_start,
            runs: self.runs,
            threads: 1,
            ..CampaignConfig::default()
        }
    }
}

/// Runs the real pipeline untraced, then the shadow.
pub fn run(p: &Params, t: &mut Tracer) -> Result<Shadowed, String> {
    Shadowed::measure(|| real(p), |t| shadow(p, t), t)
}

/// What `campaign --threads 1 --json` computes: the JSON report plus
/// the outcome of shrinking its first failure.
pub fn real(p: &Params) -> Result<String, String> {
    let factory = racing_factory(p.procs, p.m);
    let check = racing_check(p.procs);
    preflight_campaign(&factory, p.seed_start, &LintConfig::default())
        .map_err(|e| e.to_string())?;
    let config = p.config();
    let report = run_campaign_with(&config, &CampaignOptions::default(), &factory, &check);
    let json = report.to_json();
    let shrunk = first_failure(&report)
        .map(|(spec, seed)| minimize(&spec, seed, config.budget, &factory, &check));
    Ok(format!("{json}shrink: {shrunk:?}\n"))
}

/// The traced re-implementation of [`real`].
pub fn shadow(p: &Params, t: &mut Tracer) -> Result<String, String> {
    let root = t.open(|| "campaign".into(), None);
    let factory = racing_factory(p.procs, p.m);
    let check = racing_check(p.procs);
    let first = t.time(Layer::SystemBuild, || factory(p.seed_start));
    t.time(Layer::Preflight, || {
        analyze::preflight(&first, &LintConfig::default())
    })
    .map_err(|e| e.to_string())?;
    let config = p.config();
    let cache = FingerprintCache::for_threads_bounded(1, None);
    let total = config.schedulers.len() * config.runs;
    let mut records = Vec::with_capacity(total);
    for index in 0..total {
        let spec = &config.schedulers[index / config.runs];
        let seed = config.seed_start + (index % config.runs) as u64;
        let span = t.open(|| format!("run {spec} {seed}"), root);
        let mut system = t.time(Layer::SystemBuild, || factory(seed));
        records.push((
            index,
            execute(
                spec,
                seed,
                config.budget,
                &mut system,
                &check,
                Some(&cache),
                t,
            ),
        ));
        t.time(Layer::SystemDrop, || drop(system));
        t.close(span);
    }
    t.count("campaign.runs", total as u64);
    let report = t.time(Layer::Assemble, || {
        assemble(&config, records, cache.len(), cache.truncated())
    });
    let json = t.time(Layer::ReportJson, || report.to_json());
    let shrunk = first_failure(&report).map(|(spec, seed)| {
        t.time(Layer::Shrink, || {
            minimize(&spec, seed, config.budget, &factory, &check)
        })
    });
    t.close(root);
    Ok(format!("{json}shrink: {shrunk:?}\n"))
}

/// The scheduler and seed of a report's first violating run.
fn first_failure(report: &CampaignReport) -> Option<(SchedulerSpec, u64)> {
    let failure = report.failures.iter().find(|r| r.violation.is_some())?;
    Some((SchedulerSpec::parse(&failure.scheduler).ok()?, failure.seed))
}

/// What the CLI does with a failing cell: capture it as a decision
/// trace, ddmin it, re-execute the result.
pub fn minimize(
    spec: &SchedulerSpec,
    seed: u64,
    budget: usize,
    factory: &dyn Fn(u64) -> System,
    check: &dyn Fn(&System) -> Option<String>,
) -> Option<(
    shrink::Counterexample,
    shrink::ShrinkReport,
    shrink::CexOutcome,
)> {
    let cex_check = |sys: &System, _crashed: &[ProcessId]| check(sys);
    let (cex, _) = shrink::capture(spec, seed, budget, &FaultPlan::none(), factory, &cex_check)?;
    let seeded = || factory(seed);
    let (shrunk, report) = shrink::shrink(&cex, &seeded, &cex_check);
    let outcome = shrink::execute(&seeded, &shrunk, &cex_check);
    Some((shrunk, report, outcome))
}

/// The campaign's per-run executor (`execute_run` without a cell
/// timeout), with every layer timed. With a `cache`, every visited
/// configuration is fingerprinted into it; without one the loop is
/// `System::run`'s, as under `replay_run`.
pub fn execute(
    spec: &SchedulerSpec,
    seed: u64,
    budget: usize,
    system: &mut System,
    check: &dyn Fn(&System) -> Option<String>,
    cache: Option<&FingerprintCache>,
    t: &mut Tracer,
) -> RunRecord {
    let mut record = RunRecord {
        scheduler: spec.to_string(),
        seed,
        steps: 0,
        terminated: false,
        violation: None,
        error: None,
        attempts: 1,
        pruned: 0,
        prefilter_hits: 0,
        static_indep_pairs: 0,
    };
    let matrix = t.time(Layer::MatrixBuild, || {
        InterferenceMatrix::build(system, analyze::DEFAULT_BUDGET)
    });
    record.static_indep_pairs = matrix.indep_pairs();
    let trace_start = system.trace().len();
    let mut scheduler = t.time(Layer::Sched, || spec.build(seed));
    if let Some(cache) = cache {
        t.time(Layer::CacheInsert, || {
            cache.insert_fingerprint(system.config_fingerprint())
        });
    }
    while record.steps < budget && !system.all_terminated() {
        let Some(pid) = t.time(Layer::Sched, || scheduler.next(system)) else {
            break;
        };
        if system.is_terminated(pid) {
            continue;
        }
        if let Err(err) = t.time(Layer::Step, || system.step(pid)) {
            record.error = Some(err.to_string());
            if cache.is_none() {
                // `System::run` reports no step count with its error.
                record.steps = 0;
            }
            return record;
        }
        record.steps += 1;
        if let Some(cache) = cache {
            t.time(Layer::CacheInsert, || {
                cache.insert_fingerprint(system.config_fingerprint())
            });
        }
    }
    record.terminated = system.all_terminated();
    record.violation = t.time(Layer::Check, || check(system));
    let audit = t.time(Layer::Hb, || {
        let events: Vec<&Event> = system.trace().events_from(trace_start).collect();
        (
            commuting_inversions(&events),
            static_audit(&events, &matrix),
        )
    });
    record.pruned = audit.0;
    match audit.1 {
        Ok(hits) => record.prefilter_hits = hits,
        Err(err) => record.error = Some(err.to_string()),
    }
    record
}

/// Adjacent commuting event pairs in process-id-inverted order.
fn commuting_inversions(events: &[&Event]) -> usize {
    events
        .windows(2)
        .filter(|w| w[0].pid.0 > w[1].pid.0 && independent(&w[0].op, &w[1].op))
        .count()
}

/// Audits adjacent pairs the static matrix calls independent against
/// the dynamic oracle.
fn static_audit(events: &[&Event], matrix: &InterferenceMatrix) -> Result<usize, ModelError> {
    let mut hits = 0;
    for w in events.windows(2) {
        let (p, e) = (w[0], w[1]);
        if p.pid != e.pid && matrix.independent(p.pid.0, e.pid.0) {
            if independent(&p.op, &e.op) {
                hits += 1;
            } else {
                return Err(ModelError::StaticUnsound {
                    p: p.pid.0.min(e.pid.0),
                    q: p.pid.0.max(e.pid.0),
                    ops: format!("{:?} vs {:?}", p.op, e.op),
                });
            }
        }
    }
    Ok(hits)
}

/// Folds index-sorted records into a report, as the campaign runner and
/// the service merge do.
pub fn assemble(
    config: &CampaignConfig,
    records: Vec<(usize, RunRecord)>,
    distinct_configs: usize,
    cache_truncated: bool,
) -> CampaignReport {
    let total = config.schedulers.len() * config.runs;
    let mut report = CampaignReport {
        config: config.clone(),
        total_runs: records.len(),
        terminated_runs: 0,
        distinct_configs,
        total_steps: 0,
        total_pruned: 0,
        prefilter_hits: 0,
        static_indep_pairs: 0,
        per_scheduler: config
            .schedulers
            .iter()
            .map(|s| SchedulerTally {
                scheduler: s.to_string(),
                runs: 0,
                terminated: 0,
                failures: 0,
                total_steps: 0,
                pruned: 0,
                prefilter_hits: 0,
            })
            .collect(),
        failures: Vec::new(),
        skipped_runs: total - records.len(),
        truncation: (records.len() < total)
            .then(|| format!("{} of {total} runs skipped", total - records.len())),
        cache_truncated,
        retried_runs: 0,
        degraded_runs: 0,
    };
    for (index, record) in records {
        let tally = &mut report.per_scheduler[index / config.runs];
        tally.runs += 1;
        tally.total_steps += record.steps;
        tally.pruned += record.pruned;
        tally.prefilter_hits += record.prefilter_hits;
        report.total_steps += record.steps;
        report.total_pruned += record.pruned;
        report.prefilter_hits += record.prefilter_hits;
        report.static_indep_pairs = report.static_indep_pairs.max(record.static_indep_pairs);
        if record.terminated {
            tally.terminated += 1;
            report.terminated_runs += 1;
        }
        if record.attempts > 1 {
            report.retried_runs += 1;
        }
        if record.violation.is_some() || record.error.is_some() {
            tally.failures += 1;
            report.failures.push(record);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 cells over the full scheduler mix: the shadow must report
    /// what `run_campaign_with` reports, shrink included.
    #[test]
    fn shadow_matches_run_campaign_with() {
        let p = Params {
            procs: 3,
            m: 2,
            schedulers: ["rr", "random", "quantum:2", "obstruction:2", "crash:1"]
                .iter()
                .map(|s| SchedulerSpec::parse(s).unwrap())
                .collect(),
            seed_start: 700_000,
            runs: 40,
        };
        let mut t = Tracer::default();
        let shadowed = run(&p, &mut t).unwrap();
        shadowed.check().unwrap();
        assert!(
            shadowed.real.contains("\"total_runs\": 200"),
            "{}",
            shadowed.real
        );
        assert_eq!(t.tally(Layer::MatrixBuild).0, 200);
        assert!(t.tally(Layer::Step).0 > 200);
    }
}
