//! The five workloads: what each runs, at which size, and how each
//! result is checked.
//!
//! Sizes are chosen so that one invocation takes 0.3 to 0.8 s at one
//! thread on a 2-core machine: a run then fits ten or more repetitions
//! per thread count, and its medians stay steady. The exception is
//! `explore-racing3`, the search to the paper's canonical violation,
//! which is as large as it is (about 3.5 s at one thread). Inputs that
//! vary in cost from seed to seed (the fuzzer's generated protocols) are
//! fixed, so the spread between runs measures the program, not the draw.

use crate::layers::Tracer;
use crate::shadow::{self, Shadowed};
use rsim_smr::campaign::SchedulerSpec;
use rsim_smr::json::Json;
use std::path::Path;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// BFS of 3 racing processes on 2 registers to the first violation.
    ExploreRacing3,
    /// BFS of 6 racing processes on 2 registers: wide levels.
    ExploreRacing6,
    /// A seeded campaign over five schedulers.
    CampaignMix,
    /// The same runs through the journaled multi-process service.
    ServiceStdio,
    /// Generated protocols and their mutants.
    FuzzMutants,
}

/// Every workload, in the order `run` interleaves them.
pub const ALL: [Workload; 5] = [
    Workload::ExploreRacing3,
    Workload::ExploreRacing6,
    Workload::CampaignMix,
    Workload::ServiceStdio,
    Workload::FuzzMutants,
];

const EXPLORE3: shadow::explore::Params = shadow::explore::Params {
    procs: 3,
    m: 2,
    depth: 64,
    max_configs: 400_000,
};
const EXPLORE6: shadow::explore::Params = shadow::explore::Params {
    procs: 6,
    m: 2,
    depth: 7,
    max_configs: 8_000_000,
};
const CAMPAIGN_SCHED: &str = "rr,random,quantum:2,obstruction:2,crash:1";
const CAMPAIGN_RUNS: usize = 1_000;
const SERVICE_SCHED: &str = "rr,random";
const SERVICE_RUNS: usize = 24;
const FUZZ_SEEDS: std::ops::Range<u64> = 0..12;

/// An explorer report a workload is pinned to.
struct ExplorePin {
    visited: usize,
    terminals: usize,
    pruned: usize,
    /// The violating schedule the search stops at (and exits 1 on), or
    /// `None` for a search that stops at its depth limit.
    violation: Option<&'static [usize]>,
}

/// With m = 2 registers, fewer than the ⌊(n−1)/k⌋+1 = 3 that three
/// processes need, racing consensus must break: the search stops at the
/// canonical 21-step violation.
const EXPLORE3_PIN: ExplorePin = ExplorePin {
    visited: 210_751,
    terminals: 24,
    pruned: 59_144,
    violation: Some(&[
        0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 2, 1, 1, 1, 1, 1, 1, 1, 2,
    ]),
};
const EXPLORE6_PIN: ExplorePin = ExplorePin {
    visited: 29_689,
    terminals: 0,
    pruned: 36_080,
    violation: None,
};

/// Report fields that hold timings or the thread count; everything else
/// in an explore report must be identical at every thread count.
const EXPLORE_TIMING_FIELDS: [&str; 3] = ["\"threads\"", "\"elapsed_ms\"", "\"states_per_sec\""];

impl Workload {
    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreRacing3 => "explore-racing3",
            Workload::ExploreRacing6 => "explore-racing6",
            Workload::CampaignMix => "campaign-mix",
            Workload::ServiceStdio => "service-stdio",
            Workload::FuzzMutants => "fuzz-mutants",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--seed-start` of the seeded workloads: seeds of different
    /// benchmark seeds never overlap.
    fn seed_start(seed: u64) -> u64 {
        seed * 100_000
    }

    /// How strongly the workload's busy time follows the calibration
    /// probe: the exponent on the probe's speed ratio (see
    /// [`crate::calibrate::calibrated`]). The search to the canonical
    /// violation keeps a 225 MiB working set, twice the machine's shared
    /// last-level cache, and waits on memory; other tenants slow it
    /// less than the probe, whose table fits in that cache. Over six
    /// 10-seed sets on the baseline machine, the exponent that gave its
    /// medians the smallest spread between runs ranged from 0.25 to
    /// 0.75, and 0.5 gave the smallest worst case (0.15 at one thread
    /// against 0.20 in full). The other workloads are rescaled in full,
    /// which gave them the smallest spreads.
    pub fn sensitivity(self) -> f64 {
        match self {
            Workload::ExploreRacing3 => 0.5,
            _ => 1.0,
        }
    }

    /// CLI arguments of one timed invocation at `threads` threads (for
    /// the service: workers), with scratch files under `dir`.
    pub fn command(self, seed: u64, threads: usize, dir: &Path) -> Vec<String> {
        let threads = threads.to_string();
        let args: Vec<String> = match self {
            Workload::ExploreRacing3 | Workload::ExploreRacing6 => {
                let p = self.explore_params();
                vec![
                    "explore".into(),
                    "--protocol".into(),
                    "racing".into(),
                    "--procs".into(),
                    p.procs.to_string(),
                    "--m".into(),
                    p.m.to_string(),
                    "--depth".into(),
                    p.depth.to_string(),
                    "--max-configs".into(),
                    p.max_configs.to_string(),
                    "--threads".into(),
                    threads,
                    "--json".into(),
                ]
            }
            Workload::CampaignMix => [
                "campaign",
                "--protocol",
                "racing",
                "--procs",
                "3",
                "--m",
                "2",
                "--sched",
                CAMPAIGN_SCHED,
                "--runs",
                &CAMPAIGN_RUNS.to_string(),
                "--seed-start",
                &Self::seed_start(seed).to_string(),
                "--threads",
                &threads,
                "--json",
            ]
            .map(String::from)
            .to_vec(),
            Workload::ServiceStdio => [
                "campaign-service",
                "--protocol",
                "racing",
                "--procs",
                "3",
                "--m",
                "2",
                "--sched",
                SERVICE_SCHED,
                "--runs",
                &SERVICE_RUNS.to_string(),
                "--seed-start",
                &Self::seed_start(seed).to_string(),
                "--workers",
                &threads,
                "--state",
                &dir.join("state").display().to_string(),
                "--json-out",
                &dir.join("service.json").display().to_string(),
            ]
            .map(String::from)
            .to_vec(),
            Workload::FuzzMutants => [
                "fuzz",
                "--seeds",
                &format!("{}..{}", FUZZ_SEEDS.start, FUZZ_SEEDS.end),
                "--mutants",
                "--corpus",
                &dir.join("corpus").display().to_string(),
                "--threads",
                &threads,
                "--json",
            ]
            .map(String::from)
            .to_vec(),
        };
        args
    }

    /// The smallest invocation of the same command: what set-up costs.
    pub fn setup_command(self, seed: u64, dir: &Path) -> Vec<String> {
        let mut args = self.command(seed, 1, dir);
        let set = |args: &mut Vec<String>, flag: &str, value: &str| {
            let at = args.iter().position(|a| a == flag).expect("flag present") + 1;
            args[at] = value.into();
        };
        match self {
            Workload::ExploreRacing3 | Workload::ExploreRacing6 => {
                set(&mut args, "--max-configs", "1");
            }
            Workload::CampaignMix => set(&mut args, "--runs", "1"),
            Workload::ServiceStdio => {
                set(&mut args, "--runs", "1");
                set(&mut args, "--sched", "rr");
            }
            Workload::FuzzMutants => {
                set(&mut args, "--seeds", "0..1");
                args.retain(|a| a != "--mutants");
            }
        }
        args
    }

    /// For the service, the single-process campaign whose JSON report
    /// every service run must reproduce byte for byte.
    pub fn reference_command(self, seed: u64, dir: &Path) -> Option<Vec<String>> {
        (self == Workload::ServiceStdio).then(|| {
            [
                "campaign",
                "--protocol",
                "racing",
                "--procs",
                "3",
                "--m",
                "2",
                "--sched",
                SERVICE_SCHED,
                "--runs",
                &SERVICE_RUNS.to_string(),
                "--seed-start",
                &Self::seed_start(seed).to_string(),
                "--threads",
                "1",
                "--json-out",
                &dir.join("reference.json").display().to_string(),
            ]
            .map(String::from)
            .to_vec()
        })
    }

    /// Checks one invocation's result against the workload's pinned
    /// values, returning the bytes that must repeat across invocations
    /// and thread counts, and the work items it completed.
    pub fn gate(
        self,
        exit: Option<i32>,
        stdout: &str,
        dir: &Path,
    ) -> Result<(String, usize), String> {
        match self {
            Workload::ExploreRacing3 => gate_explore(&EXPLORE3_PIN, exit, stdout),
            Workload::ExploreRacing6 => gate_explore(&EXPLORE6_PIN, exit, stdout),
            _ if exit != Some(0) => Err(format!("exit code {exit:?}, want 0")),
            Workload::CampaignMix => {
                let want = format!("\"total_runs\": {},", 5 * CAMPAIGN_RUNS);
                if !stdout.contains(&want) {
                    return Err(format!("campaign report lacks {want}"));
                }
                Ok((stdout.to_string(), 5 * CAMPAIGN_RUNS))
            }
            Workload::ServiceStdio => {
                let report = std::fs::read_to_string(dir.join("service.json"))
                    .map_err(|e| format!("service --json-out: {e}"))?;
                Ok((report, 2 * SERVICE_RUNS))
            }
            Workload::FuzzMutants => {
                if !stdout.contains("\"predictions_hold\": true,") {
                    return Err("fuzz predictions do not hold".into());
                }
                Ok((stdout.to_string(), FUZZ_SEEDS.clone().count()))
            }
        }
    }

    fn explore_params(self) -> shadow::explore::Params {
        if self == Workload::ExploreRacing3 {
            EXPLORE3
        } else {
            EXPLORE6
        }
    }

    /// Runs the real call and its shadow once, in process.
    pub fn shadow(
        self,
        seed: u64,
        cli: &Path,
        dir: &Path,
        t: &mut Tracer,
    ) -> Result<Shadowed, String> {
        let specs = |raw: &str| -> Vec<SchedulerSpec> {
            raw.split(',')
                .map(|s| SchedulerSpec::parse(s).expect("stock spec"))
                .collect()
        };
        match self {
            Workload::ExploreRacing3 | Workload::ExploreRacing6 => {
                shadow::explore::run(self.explore_params(), t)
            }
            Workload::CampaignMix => shadow::campaign::run(
                &shadow::campaign::Params {
                    procs: 3,
                    m: 2,
                    schedulers: specs(CAMPAIGN_SCHED),
                    seed_start: Self::seed_start(seed),
                    runs: CAMPAIGN_RUNS,
                },
                t,
            ),
            Workload::ServiceStdio => shadow::service::run(
                &shadow::service::Params {
                    cli: cli.to_path_buf(),
                    procs: 3,
                    m: 2,
                    schedulers: specs(SERVICE_SCHED),
                    seed_start: Self::seed_start(seed),
                    runs: SERVICE_RUNS,
                    dir: dir.to_path_buf(),
                },
                t,
            ),
            Workload::FuzzMutants => shadow::fuzz::run(
                &shadow::fuzz::Params {
                    seeds: FUZZ_SEEDS,
                    corpus: dir.join("corpus"),
                },
                t,
            ),
        }
    }
}

/// Checks an `explore --json` invocation against its pin. Returns the
/// report without its timing lines and the states visited.
fn gate_explore(
    pin: &ExplorePin,
    exit: Option<i32>,
    stdout: &str,
) -> Result<(String, usize), String> {
    // The CLI exits 1 exactly when the search finds a violation.
    let want_exit = i32::from(pin.violation.is_some());
    if exit != Some(want_exit) {
        return Err(format!("exit code {exit:?}, want {want_exit}"));
    }
    let doc = Json::parse(stdout).map_err(|e| format!("explore JSON: {e}"))?;
    let field = |k: &str| doc.get(k).and_then(Json::as_usize);
    let counts = (
        field("configs_visited"),
        field("terminals"),
        field("pruned"),
    );
    let schedule: Option<Vec<usize>> = match doc.get("violation") {
        Some(v) if v.is_null() => None,
        v => Some(
            v.and_then(|v| v.get("schedule"))
                .and_then(Json::as_arr)
                .ok_or("explore report lacks a violation schedule")?
                .iter()
                .map(|step| step.as_usize().unwrap_or(usize::MAX))
                .collect(),
        ),
    };
    let truncated = doc.get("truncated").and_then(Json::as_bool);
    if counts != (Some(pin.visited), Some(pin.terminals), Some(pin.pruned))
        || schedule.as_deref() != pin.violation
        || truncated != Some(pin.violation.is_none())
    {
        return Err(format!(
            "explore report (visited, terminals, pruned) {counts:?}, violation {schedule:?}, \
             truncated {truncated:?} differs from its pin"
        ));
    }
    let untimed: String = stdout
        .lines()
        .filter(|line| !EXPLORE_TIMING_FIELDS.iter().any(|f| line.contains(f)))
        .collect();
    Ok((untimed, pin.visited))
}
