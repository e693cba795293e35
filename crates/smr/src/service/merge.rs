//! Shard results and the determinism-preserving merge.
//!
//! A [`ShardResult`] is what one worker produced for one unit: run
//! records in *global* matrix coordinates plus the fingerprint set its
//! runs visited. [`merge_report`] reassembles any collection of shards
//! into a [`CampaignReport`] through the exact aggregation routine the
//! single-process runner uses ([`crate::campaign`]'s `assemble_report`)
//! — records are keyed by matrix index (duplicates from crash/retry
//! history are identical by determinism and collapse), fingerprints
//! are a set union (order- and sharding-independent), so the merged
//! report is byte-for-byte the single-process report no matter how the
//! matrix was cut, how many workers ran, how many died, or in what
//! order shards arrived.

use crate::campaign::{
    assemble_fault_report, assemble_report, fault_record_entry_json,
    parse_fault_record_entry, parse_record_entry, record_entry_json, CampaignConfig,
    CampaignReport, FaultCampaignReport, FaultRunRecord, RunRecord,
};
use crate::error::ModelError;
use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// One worker's completed output for one unit.
#[derive(Clone, PartialEq, Debug)]
pub struct ShardResult {
    /// The unit this shard completed.
    pub unit: u64,
    /// Run records, keyed by *global* matrix index.
    pub records: Vec<(usize, RunRecord)>,
    /// Fault run records, keyed by *global* matrix index (fault-matrix
    /// units only; empty for ordinary campaign units).
    pub fault_records: Vec<(usize, FaultRunRecord)>,
    /// Sorted fingerprint set visited by the shard's runs.
    pub fingerprints: Vec<u64>,
    /// Always `0`: every run executes at the full budget. The field and
    /// its JSON key stay so shard payloads keep their byte layout.
    pub degraded_runs: usize,
    /// Always `false`: the fingerprint cache never evicts. The field
    /// and its JSON key stay so shard payloads keep their byte layout.
    pub cache_truncated: bool,
}

impl ShardResult {
    /// Serialises the shard as JSON. Record entries use the same
    /// encoding as campaign checkpoints (`record_entry_json`); the
    /// `fault_records` field is emitted only when non-empty so ordinary
    /// shard payloads (and pre-fault journals) keep their exact bytes.
    pub fn to_json(&self) -> String {
        let faults = if self.fault_records.is_empty() {
            String::new()
        } else {
            format!(
                ", \"fault_records\": [{}]",
                self.fault_records
                    .iter()
                    .map(|(i, r)| format!(
                        "{{\"index\": {i}, \"record\": {}}}",
                        fault_record_entry_json(r)
                    ))
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        };
        format!(
            "{{\"unit\": {}, \"records\": [{}]{faults}, \"fingerprints\": [{}], \
             \"degraded_runs\": {}, \"cache_truncated\": {}}}",
            self.unit,
            self.records
                .iter()
                .map(|(i, r)| record_entry_json(*i, r))
                .collect::<Vec<_>>()
                .join(", "),
            self.fingerprints
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            self.degraded_runs,
            self.cache_truncated,
        )
    }

    /// Parses a shard from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on missing or mistyped fields.
    pub fn parse(doc: &Json) -> Result<ShardResult, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "shard result".into(),
            reason: reason.into(),
        };
        let mut records = Vec::new();
        for entry in doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `records` array"))?
        {
            records.push(parse_record_entry(entry)?);
        }
        let mut fault_records = Vec::new();
        if let Some(entries) = doc.get("fault_records") {
            for entry in
                entries.as_arr().ok_or_else(|| bad("`fault_records` must be an array"))?
            {
                fault_records.push((
                    entry
                        .get("index")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| bad("fault record missing `index`"))?,
                    parse_fault_record_entry(
                        entry
                            .get("record")
                            .ok_or_else(|| bad("fault record missing `record`"))?,
                    )?,
                ));
            }
        }
        let mut fingerprints = Vec::new();
        for fp in doc
            .get("fingerprints")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `fingerprints` array"))?
        {
            fingerprints.push(fp.as_u64().ok_or_else(|| bad("bad fingerprint"))?);
        }
        Ok(ShardResult {
            unit: doc
                .get("unit")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `unit`"))?,
            records,
            fault_records,
            fingerprints,
            degraded_runs: doc
                .get("degraded_runs")
                .and_then(Json::as_usize)
                .unwrap_or(0),
            cache_truncated: doc
                .get("cache_truncated")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// Parses a shard from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on malformed JSON or fields.
    pub fn parse_str(text: &str) -> Result<ShardResult, ModelError> {
        ShardResult::parse(&Json::parse(text)?)
    }
}

/// Merges shard results into the campaign report. `quarantined_runs`
/// is how many matrix runs were lost to quarantined units; when it is
/// non-zero the report carries an explicit truncation notice (a
/// degraded campaign is never silent about it).
pub fn merge_report(
    config: &CampaignConfig,
    shards: &[ShardResult],
    quarantined_runs: usize,
) -> CampaignReport {
    // Records dedup by matrix index: a unit retried after a worker
    // death can surface twice, but every run is a deterministic
    // function of (spec, seed), so the copies are identical and the
    // first wins. BTreeMap restores matrix order regardless of shard
    // arrival order.
    let mut by_index: BTreeMap<usize, RunRecord> = BTreeMap::new();
    let mut fingerprints: BTreeSet<u64> = BTreeSet::new();
    for shard in shards {
        for (index, record) in &shard.records {
            by_index.entry(*index).or_insert_with(|| record.clone());
        }
        fingerprints.extend(shard.fingerprints.iter().copied());
    }
    let total = config.schedulers.len() * config.runs;
    let merged: Vec<(usize, RunRecord)> = by_index.into_iter().collect();
    let truncation = if quarantined_runs > 0 {
        Some(format!(
            "{quarantined_runs} of {total} runs lost to quarantined work units"
        ))
    } else if merged.len() < total {
        Some(format!("{} of {total} runs missing from shards", total - merged.len()))
    } else {
        None
    };
    assemble_report(config, merged, fingerprints.len(), truncation)
}

/// Merges fault-matrix shards into the fault-campaign report, with the
/// same contract as [`merge_report`]: first-wins dedup by global matrix
/// index (every run is a deterministic function of `(plan, scheduler,
/// seed)`, so duplicates from crash/retry history are identical), then
/// the single shared aggregation routine. Runs lost to quarantined
/// units surface as `missing_runs` and veto certification.
pub fn merge_fault_report(
    base: &str,
    plans: usize,
    runs: usize,
    shards: &[ShardResult],
) -> FaultCampaignReport {
    let mut by_index: BTreeMap<usize, FaultRunRecord> = BTreeMap::new();
    for shard in shards {
        for (index, record) in &shard.fault_records {
            by_index.entry(*index).or_insert_with(|| record.clone());
        }
    }
    assemble_fault_report(base, plans, plans * runs, by_index.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SchedulerSpec;

    fn record(scheduler: &str, seed: u64, steps: usize) -> RunRecord {
        RunRecord {
            scheduler: scheduler.into(),
            seed,
            steps,
            terminated: true,
            violation: None,
            error: None,
            attempts: 1,
            pruned: 0,
            prefilter_hits: 0,
            static_indep_pairs: 0,
        }
    }

    fn config() -> CampaignConfig {
        CampaignConfig {
            schedulers: vec![SchedulerSpec::RoundRobin, SchedulerSpec::Random],
            seed_start: 0,
            runs: 2,
            budget: 100,
            threads: 1,
        }
    }

    fn shards() -> Vec<ShardResult> {
        vec![
            ShardResult {
                unit: 0,
                records: vec![(0, record("rr", 0, 7)), (1, record("rr", 1, 9))],
                fault_records: Vec::new(),
                fingerprints: vec![10, 20],
                degraded_runs: 0,
                cache_truncated: false,
            },
            ShardResult {
                unit: 1,
                records: vec![
                    (2, record("random", 0, 5)),
                    (3, record("random", 1, 6)),
                ],
                fault_records: Vec::new(),
                fingerprints: vec![20, 30],
                degraded_runs: 0,
                cache_truncated: false,
            },
        ]
    }

    fn fault_record(plan: &str, seed: u64, steps: usize) -> FaultRunRecord {
        FaultRunRecord {
            plan: plan.into(),
            scheduler: "rr".into(),
            seed,
            steps,
            crashed: 1,
            survivors_terminated: true,
            violation: None,
            error: None,
            attempts: 1,
        }
    }

    fn fault_shards() -> Vec<ShardResult> {
        vec![
            ShardResult {
                unit: 0,
                records: Vec::new(),
                fault_records: vec![
                    (0, fault_record("crash@0:1", 0, 4)),
                    (1, fault_record("crash@0:1", 1, 5)),
                ],
                fingerprints: Vec::new(),
                degraded_runs: 0,
                cache_truncated: false,
            },
            ShardResult {
                unit: 1,
                records: Vec::new(),
                fault_records: vec![
                    (2, fault_record("crash@1:1", 0, 6)),
                    (3, fault_record("crash@1:1", 1, 7)),
                ],
                fingerprints: Vec::new(),
                degraded_runs: 0,
                cache_truncated: false,
            },
        ]
    }

    #[test]
    fn shard_round_trips_through_json() {
        for shard in shards().into_iter().chain(fault_shards()) {
            assert_eq!(ShardResult::parse_str(&shard.to_json()).unwrap(), shard);
        }
    }

    #[test]
    fn faultless_shard_json_has_no_fault_records_field() {
        assert!(
            !shards()[0].to_json().contains("fault_records"),
            "pre-fault journal byte-compatibility requires omitting the field"
        );
    }

    #[test]
    fn fault_merge_is_order_and_duplicate_independent() {
        let mut forward = fault_shards();
        let baseline = merge_fault_report("rr", 2, 2, &forward).to_json();
        forward.reverse();
        assert_eq!(merge_fault_report("rr", 2, 2, &forward).to_json(), baseline);
        let mut with_dup = fault_shards();
        with_dup.push(fault_shards()[0].clone());
        assert_eq!(merge_fault_report("rr", 2, 2, &with_dup).to_json(), baseline);
        let merged = merge_fault_report("rr", 2, 2, &fault_shards());
        assert_eq!(merged.total_runs, 4);
        assert_eq!(merged.certified_runs, 4);
        assert_eq!(merged.total_steps, 4 + 5 + 6 + 7);
        assert!(merged.is_certified());
    }

    #[test]
    fn missing_fault_runs_veto_certification() {
        let partial = vec![fault_shards().remove(0)];
        let merged = merge_fault_report("rr", 2, 2, &partial);
        assert_eq!(merged.missing_runs, 2);
        assert!(!merged.is_certified());
        assert!(merged.to_json().contains("\"missing_runs\": 2"));
    }

    #[test]
    fn merge_is_order_and_duplicate_independent() {
        let config = config();
        let mut forward = shards();
        let baseline = merge_report(&config, &forward, 0).to_json();
        forward.reverse();
        assert_eq!(merge_report(&config, &forward, 0).to_json(), baseline);
        // A crash/retry history surfaces the same unit twice; the
        // duplicate must collapse without perturbing any aggregate.
        let mut with_dup = shards();
        with_dup.push(shards()[0].clone());
        assert_eq!(merge_report(&config, &with_dup, 0).to_json(), baseline);
    }

    #[test]
    fn merge_unions_fingerprints() {
        let report = merge_report(&config(), &shards(), 0);
        assert_eq!(report.distinct_configs, 3);
        assert_eq!(report.total_runs, 4);
        assert_eq!(report.total_steps, 7 + 9 + 5 + 6);
        assert!(report.truncation.is_none());
    }

    #[test]
    fn quarantined_runs_are_loud() {
        let partial = vec![shards().remove(0)];
        let report = merge_report(&config(), &partial, 2);
        assert_eq!(report.skipped_runs, 2);
        let notice = report.truncation.as_deref().unwrap();
        assert!(notice.contains("quarantined"), "notice: {notice}");
        assert!(!report.is_clean());
    }

    #[test]
    fn missing_shards_are_loud_even_without_quarantine() {
        let partial = vec![shards().remove(1)];
        let report = merge_report(&config(), &partial, 0);
        let notice = report.truncation.as_deref().unwrap();
        assert!(notice.contains("missing"), "notice: {notice}");
    }
}
