//! Supervisor edge cases at the service boundary: what a worker
//! process's supervised campaign produces in its shard, and what the
//! coordinator's merge layer makes of it, when cells panic past the
//! retry budget, including on the final cell of a unit.

use rsim_smr::campaign::{
    run_campaign_with, CampaignCheckpoint, CampaignConfig, CampaignOptions,
    SchedulerSpec,
};
use rsim_smr::object::{Object, ObjectId};
use rsim_smr::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
use rsim_smr::service::{merge_report, ShardResult};
use rsim_smr::system::System;
use rsim_smr::value::Value;

/// Writes once, then outputs: terminates quickly under any scheduler.
#[derive(Clone, Debug)]
struct WriteOnce {
    wrote: bool,
}

impl SnapshotProtocol for WriteOnce {
    fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
        if self.wrote {
            ProtocolStep::Output(view[0].clone())
        } else {
            self.wrote = true;
            ProtocolStep::Update(0, Value::Int(7))
        }
    }
    fn components(&self) -> usize {
        1
    }
}

fn one_process(p: impl SnapshotProtocol + 'static) -> System {
    System::new(
        vec![Object::snapshot(1)],
        vec![Box::new(SnapshotProcess::new(p, ObjectId(0))) as Box<dyn Process>],
    )
}

/// A worker whose cell panics on every attempt exhausts the retry
/// budget, records the failure with its attempt count — and that
/// record must survive the shard → merge path: the merged report shows
/// the retried run and the structured worker-panic failure, with
/// nothing silently dropped.
#[test]
fn retry_exhaustion_surfaces_in_the_merged_report() {
    let config = CampaignConfig {
        schedulers: vec![SchedulerSpec::RoundRobin],
        seed_start: 0,
        runs: 3,
        budget: 200,
        threads: 1,
    };
    let exploding = |seed: u64| {
        assert!(seed != 1, "persistent failure for seed 1");
        one_process(WriteOnce { wrote: false })
    };
    // This is exactly the worker's execution path for a 3-run unit.
    let report =
        run_campaign_with(&config, &CampaignOptions::default(), exploding, &|_| None);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].attempts, 3, "1 try + 2 retries");

    // Rebuild the records as the worker's shard and merge it the way
    // the coordinator does.
    let mut records = Vec::new();
    for r in &report.failures {
        records.push((r.seed as usize, r.clone()));
    }
    // The two clean runs (seeds 0, 2) are not in `failures`; synthesize
    // them the way a full shard carries them.
    for seed in [0u64, 2] {
        records.push((
            seed as usize,
            rsim_smr::campaign::RunRecord {
                scheduler: "rr".into(),
                seed,
                steps: 3,
                terminated: true,
                violation: None,
                error: None,
                attempts: 1,
                pruned: 0,
                prefilter_hits: 0,
                static_indep_pairs: 0,
            },
        ));
    }
    let shard = ShardResult {
        unit: 0,
        records,
        fault_records: Vec::new(),
        fingerprints: vec![1, 2, 3],
        degraded_runs: 0,
        cache_truncated: false,
    };
    let merged = merge_report(&config, &[shard], 0);
    assert_eq!(merged.total_runs, 3);
    assert_eq!(merged.retried_runs, 1, "exhausted retries stay visible");
    assert_eq!(merged.failures.len(), 1);
    let err = merged.failures[0].error.as_deref().unwrap();
    assert!(err.contains("worker panic"), "error was: {err}");
    let json = merged.to_json();
    assert!(json.contains("\"retried_runs\": 1"), "report: {json}");
}

/// A failure on the campaign's *final* cell must still flush the
/// terminal checkpoint — the worker's shard payload — containing the
/// structured failure record. A lost final flush would strand the last
/// unit in lease/requeue limbo forever.
#[test]
fn failing_final_cell_still_flushes_terminal_checkpoint() {
    let dir = std::env::temp_dir().join(format!(
        "rsim-service-edges-final-cell-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit-0.checkpoint.json");

    let config = CampaignConfig {
        schedulers: vec![SchedulerSpec::RoundRobin],
        seed_start: 0,
        runs: 2,
        budget: 200,
        threads: 1,
    };
    // Seed 0 terminates; seed 1 — the final cell — panics on every
    // attempt, so it fails once the retries are spent.
    let factory = |seed: u64| {
        assert!(seed != 1, "persistent failure for the final cell");
        one_process(WriteOnce { wrote: false })
    };
    let options = CampaignOptions {
        checkpoint_every: Some(1),
        checkpoint_path: Some(path.clone()),
        spec_id: Some("unit=0 test".into()),
        ..CampaignOptions::default()
    };
    let report = run_campaign_with(&config, &options, factory, &|_| None);
    assert_eq!(report.total_runs, 2, "the failed cell is recorded");

    let checkpoint = CampaignCheckpoint::load(&path).expect("terminal checkpoint");
    assert_eq!(checkpoint.spec.as_deref(), Some("unit=0 test"));
    assert_eq!(
        checkpoint.completed.len(),
        2,
        "terminal flush covers every cell, including the failed last one"
    );
    let (_, last) = checkpoint
        .completed
        .iter()
        .find(|(index, _)| *index == 1)
        .expect("final cell present");
    let err = last.error.as_deref().expect("failure recorded as error");
    assert!(err.contains("worker panic"), "error was: {err}");
    assert_eq!(last.attempts, 3, "1 try + 2 retries");

    // The shard built from that checkpoint merges with nothing lost.
    let shard = ShardResult {
        unit: 0,
        records: checkpoint.completed.clone(),
        fault_records: Vec::new(),
        fingerprints: checkpoint.fingerprints.clone(),
        degraded_runs: 0,
        cache_truncated: false,
    };
    let merged = merge_report(&config, &[shard], 0);
    assert_eq!(merged.skipped_runs, 0, "no silent loss");
    assert_eq!(merged.failures.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
