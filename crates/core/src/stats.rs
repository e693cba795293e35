//! Sweep statistics: the repository's "figure generator".
//!
//! [`sweep`] runs a batch of simulations over random schedules and
//! aggregates everything the experiments report: wait-freedom, replay
//! validity, Block-Update counts against the Lemma 30 budgets, H-step
//! totals against the Lemma 31 bound, task-violation frequency
//! (the Theorem 21 contradiction), and revision statistics.

use crate::bounds;
use crate::replay;
use crate::simulation::{Simulation, SimulationConfig};
use rsim_smr::error::ModelError;
use rsim_smr::pool::par_map;
use rsim_smr::process::SnapshotProtocol;
use rsim_smr::value::Value;
use rsim_tasks::task::ColorlessTask;

/// Aggregated results of one sweep point.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The configuration swept.
    pub config: SimulationConfig,
    /// Schedules run.
    pub runs: usize,
    /// Runs in which every simulator terminated (must equal `runs`:
    /// the simulation is wait-free).
    pub wait_free: usize,
    /// Runs whose Lemma 26/27 replay validated.
    pub replay_ok: usize,
    /// Per-simulator maximum of applied Block-Updates.
    pub max_block_updates: Vec<usize>,
    /// The Lemma 30 budgets `b(i)` those maxima must respect.
    pub budgets: Vec<u128>,
    /// Maximum H-steps over the runs.
    pub max_h_steps: usize,
    /// Mean H-steps over the runs.
    pub mean_h_steps: f64,
    /// Runs whose simulator outputs violated the task — the observable
    /// contradiction of Theorem 21.
    pub task_violations: usize,
    /// Total revisions of the past across all runs.
    pub revisions: usize,
    /// Total hidden (revision + tail) steps across all replays.
    pub hidden_steps: usize,
}

impl SweepPoint {
    /// Do all measured counts respect the analytic budgets?
    pub fn budgets_hold(&self) -> bool {
        self.max_block_updates
            .iter()
            .zip(&self.budgets)
            .all(|(&measured, &budget)| measured as u128 <= budget)
    }

    /// One table row: `n m f | runs wf replay viol | maxH meanH`.
    pub fn row(&self) -> String {
        format!(
            "{:>3} {:>3} {:>3} | {:>4} {:>4} {:>6} {:>5} | {:>7} {:>8.1} | {}",
            self.config.n,
            self.config.m,
            self.config.f,
            self.runs,
            self.wait_free,
            self.replay_ok,
            self.task_violations,
            self.max_h_steps,
            self.mean_h_steps,
            self.max_block_updates
                .iter()
                .zip(&self.budgets)
                .map(|(m, b)| format!("{m}≤{b}"))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// Measurements from one seeded simulation run, folded into a
/// [`SweepPoint`] in seed order by [`sweep`] and [`sweep_parallel`]
/// alike.
#[derive(Clone, Debug)]
struct RunStats {
    wait_free: bool,
    h_steps: usize,
    block_updates: Vec<usize>,
    revisions: usize,
    task_violation: bool,
    replay_ok: bool,
    hidden_steps: usize,
}

/// Executes one seeded run and measures it. A failed run's error is
/// wrapped in [`ModelError::SeededRun`], naming its seed.
fn run_one<P: SnapshotProtocol>(
    config: SimulationConfig,
    inputs: &[Value],
    make_protocol: impl Fn(usize) -> P + Copy,
    task: &dyn ColorlessTask,
    seed: u64,
    max_h_steps: usize,
) -> Result<RunStats, ModelError> {
    let seeded = |error| ModelError::SeededRun { seed, error: Box::new(error) };
    let f = config.f;
    let mut stats = RunStats {
        wait_free: false,
        h_steps: 0,
        block_updates: vec![0; f],
        revisions: 0,
        task_violation: false,
        replay_ok: false,
        hidden_steps: 0,
    };
    let mut sim = Simulation::new(config, inputs.to_vec(), make_protocol).map_err(seeded)?;
    sim.run_random(seed, max_h_steps).map_err(seeded)?;
    if !sim.all_terminated() {
        return Ok(stats);
    }
    stats.wait_free = true;
    // Proposition 24: each simulator alternates Scan and Block-Update,
    // ending with a Scan (or a revision/local tail).
    for i in 0..f {
        let (scans, bus) = sim.op_counts(i);
        debug_assert!(
            scans == bus || scans == bus + 1,
            "Proposition 24 violated: {scans} scans vs {bus} block-updates"
        );
        stats.block_updates[i] = bus;
        stats.revisions += sim.revisions(i).len();
    }
    stats.h_steps = sim.real().log().len();
    let outs: Vec<Value> = sim.outputs().into_iter().flatten().collect();
    stats.task_violation = task.validate(inputs, &outs).is_err();
    if let Ok(report) = replay::validate(&sim, make_protocol) {
        if report.is_ok() {
            stats.replay_ok = true;
            stats.hidden_steps = report.hidden_steps;
        }
    }
    Ok(stats)
}

fn empty_point(config: SimulationConfig) -> SweepPoint {
    SweepPoint {
        config,
        runs: 0,
        wait_free: 0,
        replay_ok: 0,
        max_block_updates: vec![0; config.f],
        budgets: (1..=config.f).map(|i| bounds::b_bound(config.m, i)).collect(),
        max_h_steps: 0,
        mean_h_steps: 0.0,
        task_violations: 0,
        revisions: 0,
        hidden_steps: 0,
    }
}

/// Folds one run's measurements into the aggregate; returns the H-step
/// contribution to the mean.
fn fold_run(point: &mut SweepPoint, stats: &RunStats) -> usize {
    point.runs += 1;
    if !stats.wait_free {
        return 0;
    }
    point.wait_free += 1;
    point.max_h_steps = point.max_h_steps.max(stats.h_steps);
    for (max, &bus) in point.max_block_updates.iter_mut().zip(&stats.block_updates) {
        *max = (*max).max(bus);
    }
    point.revisions += stats.revisions;
    if stats.task_violation {
        point.task_violations += 1;
    }
    if stats.replay_ok {
        point.replay_ok += 1;
        point.hidden_steps += stats.hidden_steps;
    }
    stats.h_steps
}

/// Folds the runs' measurements, in seed order, into a [`SweepPoint`].
/// The first failed run ends the fold with its error.
fn fold_runs(
    config: SimulationConfig,
    runs: impl IntoIterator<Item = Result<RunStats, ModelError>>,
) -> Result<SweepPoint, ModelError> {
    let mut point = empty_point(config);
    let mut total_h = 0usize;
    for stats in runs {
        total_h += fold_run(&mut point, &stats?);
    }
    if point.wait_free > 0 {
        point.mean_h_steps = total_h as f64 / point.wait_free as f64;
    }
    Ok(point)
}

/// Runs `seeds` random-schedule simulations of `config` with processes
/// built by `make_protocol`, validating against `task`, and aggregates
/// the results.
///
/// # Errors
///
/// The first failed run's construction/step error (infeasible
/// partitions, solo budget exhaustion), as a [`ModelError::SeededRun`]
/// naming its seed.
pub fn sweep<P: SnapshotProtocol>(
    config: SimulationConfig,
    inputs: &[Value],
    make_protocol: impl Fn(usize) -> P + Copy,
    task: &dyn ColorlessTask,
    seeds: std::ops::Range<u64>,
    max_h_steps: usize,
) -> Result<SweepPoint, ModelError> {
    let runs = seeds.map(|seed| run_one(config, inputs, make_protocol, task, seed, max_h_steps));
    fold_runs(config, runs)
}

/// Parallel [`sweep`]: the seeds fan out over `threads` workers (`0` =
/// one per core) through [`rsim_smr::pool::par_map`], and their
/// measurements are folded in seed order. Every field of the result —
/// including `mean_h_steps` — is identical to the sequential [`sweep`]
/// because runs are independent and the fold is the same.
///
/// # Errors
///
/// The error of the lowest-seed failing run, naming that seed, as
/// sequential [`sweep`] reports it.
pub fn sweep_parallel<P: SnapshotProtocol>(
    config: SimulationConfig,
    inputs: &[Value],
    make_protocol: impl Fn(usize) -> P + Copy + Send + Sync,
    task: &dyn ColorlessTask,
    seeds: std::ops::Range<u64>,
    max_h_steps: usize,
    threads: usize,
) -> Result<SweepPoint, ModelError> {
    let runs = par_map(seeds.collect(), threads, |seed| {
        run_one(config, inputs, make_protocol, task, seed, max_h_steps)
    });
    fold_runs(config, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsim_protocols::racing::PhasedRacing;
    use rsim_tasks::agreement::consensus;

    #[test]
    fn sweep_aggregates_consistently() {
        let config = SimulationConfig::new(4, 2, 2, 0);
        let inputs = vec![Value::Int(1), Value::Int(2)];
        let point = sweep(
            config,
            &inputs,
            |i| PhasedRacing::new(2, Value::Int([1, 2][i])),
            &consensus(),
            0..30,
            2_000_000,
        )
        .unwrap();
        assert_eq!(point.runs, 30);
        assert_eq!(point.wait_free, 30, "wait-freedom");
        assert_eq!(point.replay_ok, 30, "replay validity");
        assert!(point.budgets_hold(), "{:?}", point);
        assert!(point.max_h_steps >= point.mean_h_steps as usize);
        assert!(!point.row().is_empty());
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let config = SimulationConfig::new(4, 2, 2, 0);
        let inputs = vec![Value::Int(1), Value::Int(2)];
        let make = |i: usize| PhasedRacing::new(2, Value::Int([1, 2][i]));
        let seq = sweep(config, &inputs, make, &consensus(), 0..40, 2_000_000)
            .unwrap();
        for threads in [1, 3, 8] {
            let par = sweep_parallel(
                config, &inputs, make, &consensus(), 0..40, 2_000_000, threads,
            )
            .unwrap();
            assert_eq!(par.runs, seq.runs, "threads = {threads}");
            assert_eq!(par.wait_free, seq.wait_free);
            assert_eq!(par.replay_ok, seq.replay_ok);
            assert_eq!(par.max_block_updates, seq.max_block_updates);
            assert_eq!(par.max_h_steps, seq.max_h_steps);
            assert_eq!(par.task_violations, seq.task_violations);
            assert_eq!(par.revisions, seq.revisions);
            assert_eq!(par.hidden_steps, seq.hidden_steps);
            assert!((par.mean_h_steps - seq.mean_h_steps).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_sweep_fails_as_sequential_does() {
        // A solo budget of 4 exhausts on seeds 1 and 30 of 0..40 and
        // suffices on the others; the error names the lower seed.
        let mut config = SimulationConfig::new(4, 2, 2, 0);
        config.solo_budget = 4;
        let inputs = vec![Value::Int(1), Value::Int(2)];
        let make = |i: usize| PhasedRacing::new(2, Value::Int([1, 2][i]));
        let seq = sweep(config, &inputs, make, &consensus(), 0..40, 2_000_000)
            .expect_err("a run exhausts its solo budget");
        assert!(matches!(seq, ModelError::SeededRun { seed: 1, .. }), "{seq:?}");
        assert!(seq.to_string().starts_with("run of seed 1 failed: step budget 4"), "{seq}");
        for threads in [1, 3, 8] {
            let par = sweep_parallel(
                config, &inputs, make, &consensus(), 0..40, 2_000_000, threads,
            )
            .expect_err("the parallel sweep fails too");
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn sweep_counts_violations_below_bound() {
        let config = SimulationConfig::new(4, 2, 2, 0);
        let inputs = vec![Value::Int(1), Value::Int(2)];
        let point = sweep(
            config,
            &inputs,
            |i| PhasedRacing::new(2, Value::Int([1, 2][i])),
            &consensus(),
            0..120,
            2_000_000,
        )
        .unwrap();
        assert!(
            point.task_violations > 0,
            "expected extracted consensus violations below the bound"
        );
    }
}
