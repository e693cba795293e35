//! The per-claim campaign summary.
//!
//! A merged report certifies *outcomes*; the summary documents the
//! *operation* that produced them, one row per claim — a claim being
//! one scheduler of an ordinary campaign or one fault plan of a fault
//! campaign: how many samples were merged, from how many shards, how
//! many units needed retries or ended quarantined, and how many
//! failures surfaced. The table is what a certification reader checks
//! first ("did every claim actually get its samples?"), so the service
//! always writes it to `summary.json` in the state directory and
//! renders it as text under `--summary`. Everything here is derived
//! from the merged data and the operational counters — the merged
//! report itself never depends on the summary (determinism contract).

use crate::json::{escape, write_atomic};
use crate::service::coordinator::ServiceStats;
use std::path::Path;

/// One claim's row: a scheduler (ordinary campaign) or a fault plan
/// (fault campaign).
#[derive(Clone, PartialEq, Debug)]
pub struct ClaimSummary {
    /// The scheduler spec or fault-plan syntax.
    pub claim: String,
    /// Runs merged for this claim.
    pub samples: usize,
    /// Work units that completed for this claim.
    pub shards: usize,
    /// Units of this claim that took more than one lease attempt.
    pub retried_units: usize,
    /// Units of this claim lost to quarantine.
    pub quarantined_units: usize,
    /// Failing runs recorded under this claim.
    pub failures: usize,
    /// Schedule steps executed across this claim's merged runs (the
    /// "visited" side of the reduction metric).
    pub visited: usize,
    /// Happens-before redundancy across this claim's merged runs
    /// ([`crate::campaign::RunRecord::pruned`] summed) — a per-run sum,
    /// so the merged tally is byte-identical to a single-process run.
    pub pruned: usize,
    /// Static-prefilter confirmations across this claim's merged runs
    /// ([`crate::campaign::RunRecord::prefilter_hits`] summed).
    pub prefilter_hits: usize,
}

/// The whole-run summary stored in the JSON aggregate and rendered by
/// `campaign-service --summary`.
#[derive(Clone, PartialEq, Debug)]
pub struct ServiceSummary {
    /// The campaign identity ([`crate::service::ServiceSpec::identity`]).
    pub spec_id: String,
    /// `"stdio"` or `"tcp"`.
    pub transport: String,
    /// Wall-clock duration of this service run, milliseconds.
    pub wall_ms: u64,
    /// Configured worker-fleet size.
    pub workers: usize,
    /// Worker sessions opened (TCP handshakes, or stdio spawns).
    pub sessions: usize,
    /// Sessions that survived at least one reconnect.
    pub resumed_sessions: usize,
    /// Corrupt frames rejected at the wire (checksum/prefix failures).
    pub corrupt_frames: usize,
    /// Network chaos injected: (dropped, delayed, duplicated,
    /// corrupted, severed) frames.
    pub net: (usize, usize, usize, usize, usize),
    /// Distinct configuration fingerprints across all merged shards.
    pub fingerprint_coverage: usize,
    /// Per-claim rows, in matrix order.
    pub claims: Vec<ClaimSummary>,
}

impl ServiceSummary {
    /// Serialises the summary as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"spec_id\": {},\n", escape(&self.spec_id)));
        out.push_str(&format!("  \"transport\": {},\n", escape(&self.transport)));
        out.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"sessions\": {},\n", self.sessions));
        out.push_str(&format!(
            "  \"resumed_sessions\": {},\n",
            self.resumed_sessions
        ));
        out.push_str(&format!("  \"corrupt_frames\": {},\n", self.corrupt_frames));
        let (dropped, delayed, duplicated, corrupted, severed) = self.net;
        out.push_str(&format!(
            "  \"net\": {{\"dropped\": {dropped}, \"delayed\": {delayed}, \
             \"duplicated\": {duplicated}, \"corrupted\": {corrupted}, \
             \"severed\": {severed}}},\n"
        ));
        out.push_str(&format!(
            "  \"fingerprint_coverage\": {},\n",
            self.fingerprint_coverage
        ));
        out.push_str("  \"claims\": [\n");
        for (i, c) in self.claims.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"claim\": {}, \"samples\": {}, \"shards\": {}, \
                 \"retried_units\": {}, \"quarantined_units\": {}, \
                 \"failures\": {}, \"visited\": {}, \"pruned\": {}, \
                 \"prefilter_hits\": {}}}{}\n",
                escape(&c.claim),
                c.samples,
                c.shards,
                c.retried_units,
                c.quarantined_units,
                c.failures,
                c.visited,
                c.pruned,
                c.prefilter_hits,
                if i + 1 < self.claims.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the human-readable table (the `--summary` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("campaign summary: {}\n", self.spec_id));
        out.push_str(&format!(
            "  transport={} wall={}ms workers={} sessions={} ({} resumed)\n",
            self.transport, self.wall_ms, self.workers, self.sessions,
            self.resumed_sessions,
        ));
        let (dropped, delayed, duplicated, corrupted, severed) = self.net;
        out.push_str(&format!(
            "  wire: {} corrupt frames rejected; chaos {} dropped, {} delayed, \
             {} duplicated, {} corrupted, {} severed\n",
            self.corrupt_frames, dropped, delayed, duplicated, corrupted, severed,
        ));
        out.push_str(&format!(
            "  fingerprint coverage: {} distinct configurations\n",
            self.fingerprint_coverage
        ));
        let claim_width = self
            .claims
            .iter()
            .map(|c| c.claim.len())
            .chain(std::iter::once("claim".len()))
            .max()
            .unwrap_or(5);
        out.push_str(&format!(
            "  {:<claim_width$}  {:>8}  {:>6}  {:>7}  {:>11}  {:>8}  {:>8}  {:>8}  {:>9}  {:>9}\n",
            "claim",
            "samples",
            "shards",
            "retried",
            "quarantined",
            "failures",
            "visited",
            "pruned",
            "prefilter",
            "reduction",
        ));
        for c in &self.claims {
            let reduction = if c.visited == 0 {
                1.0
            } else {
                (c.visited + c.pruned) as f64 / c.visited as f64
            };
            out.push_str(&format!(
                "  {:<claim_width$}  {:>8}  {:>6}  {:>7}  {:>11}  {:>8}  {:>8}  {:>8}  {:>9}  {:>8.2}x\n",
                c.claim,
                c.samples,
                c.shards,
                c.retried_units,
                c.quarantined_units,
                c.failures,
                c.visited,
                c.pruned,
                c.prefilter_hits,
                reduction,
            ));
        }
        out
    }

    /// Writes the summary atomically to `dir/summary.json`.
    ///
    /// # Errors
    ///
    /// [`crate::error::ModelError::Service`] when the atomic write
    /// fails.
    pub fn store(&self, dir: &Path) -> Result<(), crate::error::ModelError> {
        write_atomic(&dir.join("summary.json"), &self.to_json()).map_err(|e| {
            crate::error::ModelError::Service {
                context: "writing summary.json".into(),
                reason: e.to_string(),
            }
        })
    }
}

/// Folds a finished run into the summary. `claims` are the matrix's
/// major-axis labels in order; `per_claim` maps each row to
/// `(samples, shards, retried_units, quarantined_units, failures)`.
pub fn build_summary(
    spec_id: &str,
    transport: &str,
    wall_ms: u64,
    stats: &ServiceStats,
    workers: usize,
    fingerprint_coverage: usize,
    rows: Vec<ClaimSummary>,
) -> ServiceSummary {
    ServiceSummary {
        spec_id: spec_id.to_string(),
        transport: transport.to_string(),
        wall_ms,
        workers,
        sessions: stats.sessions,
        resumed_sessions: stats.resumed_sessions,
        corrupt_frames: stats.corrupt_frames,
        net: (
            stats.net_dropped,
            stats.net_delayed,
            stats.net_duplicated,
            stats.net_corrupted,
            stats.net_severed,
        ),
        fingerprint_coverage,
        claims: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> ServiceSummary {
        ServiceSummary {
            spec_id: "protocol=racing sched=rr,random seeds=0+40 budget=2000".into(),
            transport: "tcp".into(),
            wall_ms: 1234,
            workers: 3,
            sessions: 5,
            resumed_sessions: 2,
            corrupt_frames: 1,
            net: (4, 2, 1, 1, 1),
            fingerprint_coverage: 17,
            claims: vec![
                ClaimSummary {
                    claim: "rr".into(),
                    samples: 40,
                    shards: 5,
                    retried_units: 1,
                    quarantined_units: 0,
                    failures: 0,
                    visited: 800,
                    pruned: 120,
                    prefilter_hits: 30,
                },
                ClaimSummary {
                    claim: "random".into(),
                    samples: 40,
                    shards: 5,
                    retried_units: 0,
                    quarantined_units: 0,
                    failures: 2,
                    visited: 760,
                    pruned: 95,
                    prefilter_hits: 0,
                },
            ],
        }
    }

    #[test]
    fn render_lists_every_claim_row() {
        let text = summary().render();
        assert!(text.contains("claim"), "{text}");
        assert!(text.contains("rr"), "{text}");
        assert!(text.contains("random"), "{text}");
        assert!(text.contains("2 resumed"), "{text}");
        assert!(text.contains("1 corrupt frames rejected"), "{text}");
        assert!(text.contains("17 distinct configurations"), "{text}");
        // The reduction columns: visited/pruned tallies, the static
        // prefilter tally, and the factor.
        assert!(text.contains("visited"), "{text}");
        assert!(text.contains("pruned"), "{text}");
        assert!(text.contains("prefilter"), "{text}");
        assert!(text.contains("800"), "{text}");
        assert!(text.contains("30"), "{text}");
        assert!(text.contains("1.15x"), "{text}");
    }
}
