//! Shadow of `campaign-service` over stdio workers. The real call is
//! `run_service` itself, spawning real `campaign-worker` processes; the
//! shadow walks the same units in one process and times each layer a
//! unit passes through: the journal, the frames of the worker protocol,
//! the worker's campaign slice with its per-run checkpoint, the corpus
//! shrink, and the final merge. What the real run spends beyond those
//! layers (process start-up, pipe latency, heartbeat waits) is its
//! unattributed time.

use super::campaign::{execute, minimize};
use super::{racing_check, racing_factory, Shadowed};
use crate::layers::{Layer, Tracer};
use rsim_smr::analyze::{self, LintConfig};
use rsim_smr::bundle::{tool_id, ReplayBundle, BUNDLE_VERSION};
use rsim_smr::campaign::{
    preflight_campaign, CampaignCheckpoint, CampaignConfig, RunRecord, SchedulerSpec,
};
use rsim_smr::fingerprint::FingerprintCache;
use rsim_smr::json::write_atomic;
use rsim_smr::service::{
    encode_frame, merge_report, read_frame, run_service, CoordMsg, JobQueue, JournalRecord,
    ServiceOptions, ServiceSpec, ShardResult, WorkUnit, WorkerMsg,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// One `campaign-service --protocol racing` instance.
#[derive(Clone, Debug)]
pub struct Params {
    /// The CLI binary whose `campaign-worker` subcommand serves units.
    pub cli: PathBuf,
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
    /// Scratch directory for the state directories.
    pub dir: PathBuf,
}

/// The service's default heartbeat period, sent in every lease.
const HEARTBEAT: Duration = Duration::from_millis(200);

/// The layers of a worker's campaign slice.
pub const COMPUTE_LAYERS: [Layer; 7] = [
    Layer::SystemBuild,
    Layer::MatrixBuild,
    Layer::Sched,
    Layer::Step,
    Layer::CacheInsert,
    Layer::Check,
    Layer::Hb,
];

impl Params {
    fn spec(&self) -> ServiceSpec {
        ServiceSpec {
            system: vec![
                ("kind".into(), "campaign".into()),
                ("protocol".into(), "racing".into()),
                ("procs".into(), self.procs.to_string()),
                ("m".into(), self.m.to_string()),
                ("rounds".into(), "3".into()),
            ],
            config: CampaignConfig {
                schedulers: self.schedulers.clone(),
                seed_start: self.seed_start,
                runs: self.runs,
                threads: 1,
                ..CampaignConfig::default()
            },
            unit_runs: 8,
            faults: Vec::new(),
        }
    }

    /// A state directory under the scratch directory, emptied first.
    fn fresh_state(&self, name: &str) -> PathBuf {
        let state = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&state);
        state
    }
}

/// Runs the real service untraced, then the shadow.
pub fn run(p: &Params, t: &mut Tracer) -> Result<Shadowed, String> {
    Shadowed::measure(|| real(p), |t| shadow(p, t), t)
}

/// What `campaign-service --json` computes: pre-flight, then the
/// supervised, journaled, merged run.
pub fn real(p: &Params) -> Result<String, String> {
    let factory = racing_factory(p.procs, p.m);
    preflight_campaign(&factory, p.seed_start, &LintConfig::default())
        .map_err(|e| e.to_string())?;
    let state = p.fresh_state("real-state");
    let mut opts = ServiceOptions::new(
        state.clone(),
        state.join("corpus"),
        vec![p.cli.display().to_string(), "campaign-worker".into()],
    );
    // One worker, as the shadow walks the units one after another: a
    // unit's share of the real wall time is then wall ÷ units.
    opts.workers = 1;
    let outcome = run_service(&p.spec(), &opts).map_err(|e| e.to_string())?;
    Ok(outcome.report.to_json())
}

/// The traced walk of the same units.
pub fn shadow(p: &Params, t: &mut Tracer) -> Result<String, String> {
    let root = t.open(|| "service".into(), None);
    let spec = p.spec();
    let factory = racing_factory(p.procs, p.m);
    let first = t.time(Layer::SystemBuild, || factory(p.seed_start));
    t.time(Layer::Preflight, || {
        analyze::preflight(&first, &LintConfig::default())
    })
    .map_err(|e| e.to_string())?;
    let state = p.fresh_state("shadow-state");
    let corpus = state.join("corpus");
    let (mut queue, _) = t
        .time(Layer::Queue, || JobQueue::open(&state, 32))
        .map_err(|e| e.to_string())?;
    t.time(Layer::Queue, || {
        queue.append(&JournalRecord::Init { spec: spec.clone() })
    })
    .map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&corpus).map_err(|e| e.to_string())?;
    let units = spec.partition();
    if !units.is_empty() {
        t.time(Layer::WorkerSpawn, || spawn_and_reap(&p.cli))?;
    }
    let compute_before = t.nanos_of(&COMPUTE_LAYERS);
    let mut shards = Vec::with_capacity(units.len());
    for unit in &units {
        let span = t.open(|| format!("unit {}", unit.id), root);
        t.time(Layer::Queue, || {
            queue.append(&JournalRecord::Lease {
                unit: unit.id,
                attempt: 1,
            })
        })
        .map_err(|e| e.to_string())?;
        let lease = CoordMsg::Lease {
            unit: unit.clone(),
            state_dir: state.display().to_string(),
            corpus_dir: corpus.display().to_string(),
            heartbeat_ms: HEARTBEAT.as_millis() as u64,
        };
        t.time(Layer::Proto, || {
            roundtrip(&lease.to_json(), CoordMsg::parse, &lease)
        })?;
        let beat = WorkerMsg::Heartbeat { unit: unit.id };
        t.time(Layer::Proto, || {
            roundtrip(&beat.to_json(), WorkerMsg::parse, &beat)
        })?;
        let shard = worker_unit(p, unit, &state, &corpus, t)?;
        let result = WorkerMsg::Result {
            unit: unit.id,
            shard,
        };
        t.time(Layer::Proto, || {
            roundtrip(&result.to_json(), WorkerMsg::parse, &result)
        })?;
        let WorkerMsg::Result { shard, .. } = result else {
            unreachable!()
        };
        t.time(Layer::Queue, || {
            queue.append(&JournalRecord::Result {
                shard: shard.clone(),
            })
        })
        .map_err(|e| e.to_string())?;
        shards.push(shard);
        t.time(Layer::Queue, || {
            queue.maybe_compact(&spec, &shards, &[], &[])
        })
        .map_err(|e| e.to_string())?;
        t.close(span);
    }
    t.count("service.units", units.len() as u64);
    t.count(
        "service.unit_compute_ns",
        (t.nanos_of(&COMPUTE_LAYERS) - compute_before) as u64,
    );
    t.time(Layer::Queue, || queue.compact(&spec, &shards, &[], &[]))
        .map_err(|e| e.to_string())?;
    let report = t.time(Layer::ServiceMerge, || {
        merge_report(&spec.config, &shards, 0)
    });
    t.close(root);
    Ok(report.to_json())
}

/// Encodes one protocol message as a frame, reads it back and parses
/// it, as the two ends of a pipe do.
fn roundtrip<M: PartialEq>(
    payload: &str,
    parse: impl Fn(&str) -> Result<M, rsim_smr::error::ModelError>,
    expected: &M,
) -> Result<(), String> {
    let frame = encode_frame(payload);
    let mut wire = frame.as_bytes();
    let body = read_frame(&mut wire)
        .map_err(|e| e.to_string())?
        .ok_or("frame vanished on the wire")?;
    match parse(&body) {
        Ok(msg) if msg == *expected => Ok(()),
        Ok(_) => Err("frame parsed to a different message".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Starts a `campaign-worker` and lets it exit on end of input, as the
/// coordinator's spawn and final reap do.
fn spawn_and_reap(cli: &Path) -> Result<(), String> {
    let mut child = Command::new(cli)
        .arg("campaign-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
    drop(child.stdin.take());
    let status = child.wait().map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("campaign-worker exited with {status}"))
    }
}

/// What a `campaign-worker` does with one leased unit: the unit's
/// campaign slice with a checkpoint after every run, the checkpoint
/// reload, and a corpus bundle per violating run.
fn worker_unit(
    p: &Params,
    unit: &WorkUnit,
    state: &Path,
    corpus: &Path,
    t: &mut Tracer,
) -> Result<ShardResult, String> {
    let factory = racing_factory(p.procs, p.m);
    let check = racing_check(p.procs);
    let sched = SchedulerSpec::parse(&unit.scheduler).map_err(|e| e.to_string())?;
    let spec_id = unit.spec_id();
    let path = state.join(format!("unit-{}.checkpoint.json", unit.id));
    let cache = FingerprintCache::for_threads_bounded(1, None);
    let mut completed: Vec<(usize, RunRecord)> = Vec::with_capacity(unit.runs);
    // One worker thread checkpoints after every run, then once more at
    // the end of the slice.
    for local in 0..=unit.runs {
        if local < unit.runs {
            let seed = unit.seed_start + local as u64;
            let mut system = t.time(Layer::SystemBuild, || factory(seed));
            let record = execute(
                &sched,
                seed,
                unit.budget,
                &mut system,
                &check,
                Some(&cache),
                t,
            );
            t.time(Layer::SystemDrop, || drop(system));
            completed.push((local, record));
        }
        t.time(Layer::CheckpointWrite, || {
            let checkpoint = CampaignCheckpoint {
                spec: Some(spec_id.clone()),
                completed: completed.clone(),
                fingerprints: cache.snapshot(),
            };
            write_atomic(&path, &checkpoint.to_json())
        })
        .map_err(|e| e.to_string())?;
    }
    let checkpoint = t
        .time(Layer::CheckpointLoad, || CampaignCheckpoint::load(&path))
        .map_err(|e| e.to_string())?;
    if checkpoint.completed.len() < unit.runs {
        return Err(format!("unit {} checkpoint holds too few runs", unit.id));
    }
    for (_, record) in checkpoint
        .completed
        .iter()
        .filter(|(_, r)| r.violation.is_some())
    {
        let minimized = t.time(Layer::Shrink, || {
            minimize(&sched, record.seed, unit.budget, &factory, &check)
        });
        let Some((shrunk, _, outcome)) = minimized else {
            continue;
        };
        let (Some(violation), Some(fingerprint)) =
            (outcome.violation.clone(), outcome.fingerprint())
        else {
            continue;
        };
        let bundle = ReplayBundle {
            version: BUNDLE_VERSION,
            tool: tool_id(),
            system: unit.system.clone(),
            scheduler: sched.to_string(),
            seed: record.seed,
            plan: shrunk.plan.to_string(),
            decisions: shrunk.decisions.iter().map(|p| p.0).collect(),
            fingerprint,
            violation,
        };
        t.time(Layer::BundleStore, || bundle.store_dedup(corpus))
            .map_err(|e| e.to_string())?;
    }
    Ok(ShardResult {
        unit: unit.id,
        records: checkpoint
            .completed
            .into_iter()
            .map(|(local, record)| (unit.index_base + local, record))
            .collect(),
        fault_records: Vec::new(),
        fingerprints: checkpoint.fingerprints,
        degraded_runs: 0,
        cache_truncated: cache.truncated(),
    })
}
