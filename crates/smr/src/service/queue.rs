//! The persistent crash-safe job queue: an append-only journal, one
//! immutable settled file per completed unit, and atomic snapshot
//! compaction.
//!
//! Durable state lives under the state directory:
//!
//! * `settled/unit-N.json` — unit N's shard, the only copy on disk,
//!   written once: to a temp file, fsynced, then renamed into place.
//! * `journal.log` — append-only, one record per line:
//!   `<16-hex FNV-1a of payload> <payload JSON>\n`. A unit's `result`
//!   line names the unit and the FNV-1a hash of its settled file, and
//!   is appended only after the file is durable. [`JobQueue::append`]
//!   fsyncs each record; [`JobQueue::write`] defers the fsync to the
//!   next [`JobQueue::sync`], which settles every shard staged since
//!   and fsyncs the settled directory once and the journal once. A
//!   torn tail (power loss or injected chaos) corrupts at most the
//!   lines it touched, because recovery verifies every line's checksum
//!   and *skips* what fails instead of aborting.
//!   Before each line the writer reads the journal's last byte and
//!   repairs a missing trailing newline, so a torn line can never
//!   splice itself into the next record.
//! * `snapshot.json` — unit status only: the spec, each settled unit
//!   with its file hash, attempt counts and quarantines, so a
//!   compaction writes a short entry per unit however many runs the
//!   shards hold. It goes through the same atomic path. Compaction
//!   writes the snapshot first and only then truncates the journal: a
//!   crash between the two steps leaves the journal's records
//!   harmlessly duplicating the snapshot's.
//!
//! Recovery is snapshot-then-journal-replay, then a read of every
//! settled file with its hash verified. A file that is missing, torn or
//! does not match its hash is never merged: its unit is reported in
//! [`RecoveredState::rejected`] and is pending again. A shard that an
//! earlier-format journal `result` line or snapshot carries inline is
//! not a settled file, so its unit is pending too and simply runs
//! again. Every coordinator start *is* a recovery — there is no
//! separate cold-start path to rot.

use crate::error::ModelError;
use crate::fingerprint::fingerprint;
use crate::json::{escape, Json};
use crate::service::merge::ShardResult;
use crate::service::unit::ServiceSpec;
use std::collections::BTreeMap;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// One durable event in a service run's history.
#[derive(Clone, PartialEq, Debug)]
pub enum JournalRecord {
    /// The run began with this spec (first record of a fresh journal).
    Init {
        /// The full campaign spec.
        spec: ServiceSpec,
    },
    /// A unit was leased (persists the attempt count).
    Lease {
        /// The unit.
        unit: u64,
        /// The lease's attempt number.
        attempt: usize,
    },
    /// A unit completed with this shard result. [`JobQueue::append`]
    /// settles the shard into the unit's file and journals the
    /// [`JournalRecord::Settled`] line that names it. Recovery counts a
    /// `result` line that carries the shard inline (the earlier journal
    /// format) as not settled: its unit runs again.
    Result {
        /// The shard.
        shard: ShardResult,
    },
    /// A unit's shard was settled into its file, whose content has the
    /// FNV-1a hash `hash`.
    Settled {
        /// The unit.
        unit: u64,
        /// FNV-1a hash of the settled file's bytes.
        hash: u64,
    },
    /// A lease ended without a result; the unit went back to pending.
    Requeue {
        /// The unit.
        unit: u64,
        /// Attempts consumed so far.
        attempt: usize,
        /// Why the lease ended.
        reason: String,
    },
    /// A unit was quarantined as poison.
    Quarantine {
        /// The unit.
        unit: u64,
        /// Why.
        reason: String,
    },
}

impl JournalRecord {
    /// Serialises the record as single-line JSON.
    pub fn to_json(&self) -> String {
        match self {
            JournalRecord::Init { spec } => {
                format!("{{\"type\": \"init\", \"spec\": {}}}", spec.to_json())
            }
            JournalRecord::Lease { unit, attempt } => format!(
                "{{\"type\": \"lease\", \"unit\": {unit}, \"attempt\": {attempt}}}"
            ),
            JournalRecord::Result { shard } => {
                format!("{{\"type\": \"result\", \"shard\": {}}}", shard.to_json())
            }
            JournalRecord::Settled { unit, hash } => format!(
                "{{\"type\": \"result\", \"unit\": {unit}, \"hash\": \"{hash:016x}\"}}"
            ),
            JournalRecord::Requeue { unit, attempt, reason } => format!(
                "{{\"type\": \"requeue\", \"unit\": {unit}, \
                 \"attempt\": {attempt}, \"reason\": {}}}",
                escape(reason)
            ),
            JournalRecord::Quarantine { unit, reason } => format!(
                "{{\"type\": \"quarantine\", \"unit\": {unit}, \"reason\": {}}}",
                escape(reason)
            ),
        }
    }

    /// Parses a record from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on malformed JSON, an unknown
    /// type, or missing fields.
    pub fn parse(text: &str) -> Result<JournalRecord, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "journal record".into(),
            reason: reason.into(),
        };
        let doc = Json::parse(text)?;
        let unit = || {
            doc.get("unit")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `unit`"))
        };
        let attempt = || {
            doc.get("attempt")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad("missing `attempt`"))
        };
        let reason = || {
            doc.get("reason")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad("missing `reason`"))
        };
        match doc.get("type").and_then(Json::as_str) {
            Some("init") => Ok(JournalRecord::Init {
                spec: ServiceSpec::parse(
                    doc.get("spec").ok_or_else(|| bad("missing `spec`"))?,
                )?,
            }),
            Some("lease") => {
                Ok(JournalRecord::Lease { unit: unit()?, attempt: attempt()? })
            }
            Some("result") => match doc.get("shard") {
                Some(shard) => {
                    Ok(JournalRecord::Result { shard: ShardResult::parse(shard)? })
                }
                None => Ok(JournalRecord::Settled {
                    unit: unit()?,
                    hash: doc
                        .get("hash")
                        .and_then(parse_hash)
                        .ok_or_else(|| bad("missing `hash`"))?,
                }),
            },
            Some("requeue") => Ok(JournalRecord::Requeue {
                unit: unit()?,
                attempt: attempt()?,
                reason: reason()?,
            }),
            Some("quarantine") => {
                Ok(JournalRecord::Quarantine { unit: unit()?, reason: reason()? })
            }
            Some(other) => Err(bad(&format!("unknown record type `{other}`"))),
            None => Err(bad("missing `type`")),
        }
    }
}

/// A settled file's hash as written: 16 hex digits in a JSON string.
fn parse_hash(value: &Json) -> Option<u64> {
    u64::from_str_radix(value.as_str()?, 16).ok()
}

/// What recovery reassembled from disk.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// The spec the state directory belongs to (`None` for a fresh
    /// directory). Callers must validate it against the requested spec
    /// before reusing anything else here.
    pub spec: Option<ServiceSpec>,
    /// The shards of every settled unit whose file passed its hash
    /// check, one per unit, in unit order.
    pub shards: Vec<ShardResult>,
    /// Consumed lease attempts per unit still outstanding.
    pub attempts: BTreeMap<u64, usize>,
    /// Quarantined units with reasons.
    pub quarantined: Vec<(u64, String)>,
    /// Journal lines dropped as torn or corrupt — surfaced so chaos
    /// tests can assert the damage was actually seen and survived.
    pub dropped_lines: usize,
    /// Units the journal or snapshot names as settled whose file is
    /// missing, torn or does not match its hash, each with what was
    /// wrong. They are pending again and their shards are never
    /// merged.
    pub rejected: Vec<(u64, String)>,
}

/// The durable queue: an open journal, the settled units' file hashes,
/// and compaction bookkeeping.
#[derive(Debug)]
pub struct JobQueue {
    snapshot_path: PathBuf,
    settled_dir: PathBuf,
    journal: std::fs::File,
    appends_since_compact: usize,
    compact_every: usize,
    /// The FNV-1a hash of each settled unit's file, by unit.
    settled: BTreeMap<u64, u64>,
    /// Shards written to temp files by [`JobQueue::write`], waiting
    /// for [`JobQueue::sync`] to settle them.
    staged: Vec<Staged>,
    /// Journal bytes have been written since the last fsync.
    unsynced: bool,
}

/// A shard in its unit's temp file, not yet fsynced or renamed.
#[derive(Debug)]
struct Staged {
    unit: u64,
    hash: u64,
    tmp: PathBuf,
    file: std::fs::File,
}

/// Encodes one journal line: checksum, space, payload, newline.
fn journal_line(record: &JournalRecord) -> String {
    let payload = record.to_json();
    format!("{:016x} {payload}\n", fingerprint(&payload))
}

/// Decodes one journal line, verifying the checksum.
fn parse_line(line: &str) -> Option<JournalRecord> {
    let (sum, payload) = line.split_once(' ')?;
    if sum.len() != 16 || u64::from_str_radix(sum, 16).ok()? != fingerprint(payload)
    {
        return None;
    }
    JournalRecord::parse(payload).ok()
}

fn service_err(context: &str, e: &dyn std::fmt::Display) -> ModelError {
    ModelError::Service { context: context.into(), reason: e.to_string() }
}

impl JobQueue {
    /// Opens (creating if needed) the queue in `state_dir` and recovers
    /// whatever a previous run left there, reading back and verifying
    /// every settled file. `compact_every` bounds how many appends
    /// accumulate before [`JobQueue::maybe_compact`] folds them into
    /// the snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Service`] when the state directory cannot
    /// be created or the journal cannot be opened.
    pub fn open(state_dir: &Path, compact_every: usize) -> Result<(JobQueue, RecoveredState), ModelError> {
        let settled_dir = state_dir.join("settled");
        std::fs::create_dir_all(&settled_dir)
            .map_err(|e| service_err("creating state directory", &e))?;
        let journal_path = state_dir.join("journal.log");
        let snapshot_path = state_dir.join("snapshot.json");
        let (mut recovered, settled) = recover(&snapshot_path, &journal_path);
        let journal = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| service_err("opening journal", &e))?;
        let mut queue = JobQueue {
            snapshot_path,
            settled_dir,
            journal,
            appends_since_compact: 0,
            compact_every: compact_every.max(1),
            settled,
            staged: Vec::new(),
            unsynced: false,
        };
        (recovered.shards, recovered.rejected) = queue.read_settled();
        Ok((queue, recovered))
    }

    /// Repairs a journal whose last append was torn mid-line: if the
    /// file does not end in a newline, append one, so the next record
    /// starts a fresh line and the torn one fails its checksum in
    /// isolation instead of corrupting its successor. Only the last
    /// byte is read.
    fn repair_trailing_newline(&mut self) -> std::io::Result<()> {
        let len = self.journal.metadata()?.len();
        if len == 0 {
            return Ok(());
        }
        let mut last = [0u8];
        self.journal.seek(SeekFrom::Start(len - 1))?;
        self.journal.read_exact(&mut last)?;
        if last != *b"\n" {
            self.journal.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Appends one record durably: [`JobQueue::write`], then
    /// [`JobQueue::sync`]. A [`JournalRecord::Result`] is settled into
    /// its unit's file (fsynced too), and the journal gets the
    /// [`JournalRecord::Settled`] line naming that file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Service`]: a journal or settled file that
    /// cannot be written is a disk-level fault the service must not
    /// paper over.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), ModelError> {
        self.write(record)?;
        self.sync()
    }

    /// Adds one record without waiting for the disk. A
    /// [`JournalRecord::Result`]'s shard goes to a temp file beside its
    /// settled file, and its [`JournalRecord::Settled`] line waits for
    /// [`JobQueue::sync`]; any other record's line is written at once.
    /// Until `sync` returns, a crash loses a staged shard and a power
    /// loss may also drop a written line: a lost lease line costs its
    /// unit one uncounted attempt, a lost result reruns its unit.
    ///
    /// # Errors
    ///
    /// As for [`JobQueue::append`].
    pub fn write(&mut self, record: &JournalRecord) -> Result<(), ModelError> {
        match record {
            JournalRecord::Result { shard } => self.stage(shard),
            other => {
                self.write_line(journal_line(other).as_bytes())?;
                if let JournalRecord::Settled { unit, hash } = other {
                    self.settled.insert(*unit, *hash);
                }
                Ok(())
            }
        }
    }

    /// Makes everything [`JobQueue::write`] added durable, with one
    /// fsync per staged file, one of the settled directory and one of
    /// the journal however many records there are. The staged files
    /// are fsynced and renamed into place before their `Settled` lines
    /// are written, so a line never names a file that is not on disk.
    ///
    /// # Errors
    ///
    /// As for [`JobQueue::append`].
    pub fn sync(&mut self) -> Result<(), ModelError> {
        for (unit, hash) in self.settle_staged()? {
            self.write(&JournalRecord::Settled { unit, hash })?;
        }
        if self.unsynced {
            self.journal
                .sync_data()
                .map_err(|e| service_err("journal append", &e))?;
            self.unsynced = false;
        }
        Ok(())
    }

    /// Writes `shard` to its unit's temp file for [`JobQueue::sync`] to
    /// settle; a shard staged earlier for the same unit is replaced.
    fn stage(&mut self, shard: &ShardResult) -> Result<(), ModelError> {
        let io = |e: std::io::Error| service_err("settled file write", &e);
        let text = format!("{}\n", shard.to_json());
        let tmp = self.settled_path(shard.unit).with_extension("tmp");
        self.staged.retain(|s| s.unit != shard.unit);
        let mut file = std::fs::File::create(&tmp).map_err(io)?;
        file.write_all(text.as_bytes()).map_err(io)?;
        self.staged.push(Staged { unit: shard.unit, hash: fingerprint(&text), tmp, file });
        Ok(())
    }

    /// Chaos hook: the on-disk shape of a power loss in the middle of
    /// [`JobQueue::append`]. Whatever the append would write before
    /// its journal line is written (a result's settled file), then
    /// only the first half of the line.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Service`] if even the torn write fails.
    pub fn torn_append(&mut self, record: &JournalRecord) -> Result<(), ModelError> {
        // Whatever is staged commits first, so only this record tears.
        self.sync()?;
        let record = match record {
            JournalRecord::Result { shard } => {
                self.stage(shard)?;
                let (unit, hash) = self.settle_staged()?[0];
                JournalRecord::Settled { unit, hash }
            }
            other => other.clone(),
        };
        let line = journal_line(&record);
        self.append_bytes(&line.as_bytes()[..line.len() / 2])
    }

    fn append_bytes(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        self.write_line(bytes)?;
        self.sync()
    }

    fn write_line(&mut self, bytes: &[u8]) -> Result<(), ModelError> {
        let io = |e: std::io::Error| service_err("journal append", &e);
        self.repair_trailing_newline().map_err(io)?;
        self.journal.write_all(bytes).map_err(io)?;
        self.unsynced = true;
        self.appends_since_compact += 1;
        Ok(())
    }

    fn settled_path(&self, unit: u64) -> PathBuf {
        self.settled_dir.join(format!("unit-{unit}.json"))
    }

    /// Settles every staged shard into its file: fsyncs each, renames
    /// it into place and fsyncs the settled directory once. Returns
    /// each unit with its file's hash; the queue counts the unit as
    /// settled only once a journal or snapshot record names the hash.
    fn settle_staged(&mut self) -> Result<Vec<(u64, u64)>, ModelError> {
        let staged = std::mem::take(&mut self.staged);
        if staged.is_empty() {
            return Ok(Vec::new());
        }
        let io = |e: std::io::Error| service_err("settled file write", &e);
        for s in &staged {
            s.file.sync_all().map_err(io)?;
        }
        for s in &staged {
            std::fs::rename(&s.tmp, self.settled_path(s.unit)).map_err(io)?;
        }
        crate::json::sync_dir(&self.settled_dir).map_err(io)?;
        Ok(staged.iter().map(|s| (s.unit, s.hash)).collect())
    }

    /// Reads every settled unit's file back and verifies its hash.
    /// Returns the shards that pass, in unit order, and the units whose
    /// file is missing, torn or does not match, each with what was
    /// wrong. A rejected unit is no longer settled: later snapshots
    /// leave it out, and the caller must run it again. A shard staged
    /// by [`JobQueue::write`] is not settled before [`JobQueue::sync`].
    pub fn read_settled(&mut self) -> (Vec<ShardResult>, Vec<(u64, String)>) {
        let mut shards = Vec::with_capacity(self.settled.len());
        let mut rejected = Vec::new();
        for (&unit, &hash) in &self.settled {
            match read_settled_file(&self.settled_path(unit), unit, hash) {
                Ok(shard) => shards.push(shard),
                Err(why) => rejected.push((unit, why)),
            }
        }
        for (unit, _) in &rejected {
            self.settled.remove(unit);
        }
        (shards, rejected)
    }

    /// Folds the current state into `snapshot.json` (atomically) and
    /// truncates the journal. It syncs first, so the snapshot names
    /// every unit the queue has settled, staged ones included, by file
    /// hash. `shards` is not read (each shard was settled into its file
    /// when its result was written); the parameter stays so existing
    /// callers still compile.
    /// Crash-ordering: the snapshot lands first, so the worst a crash
    /// can do is leave journal records that duplicate snapshot
    /// contents — recovery dedups by unit.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Service`] on snapshot or truncate I/O
    /// failure.
    pub fn compact(
        &mut self,
        spec: &ServiceSpec,
        _shards: &[ShardResult],
        attempts: &[(u64, usize)],
        quarantined: &[(u64, String)],
    ) -> Result<(), ModelError> {
        self.sync()?;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"spec\": {},\n", spec.to_json()));
        out.push_str(&format!(
            "  \"settled\": [{}],\n",
            self.settled
                .iter()
                .map(|(u, h)| format!("[{u}, \"{h:016x}\"]"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"attempts\": [{}],\n",
            attempts
                .iter()
                .map(|(u, a)| format!("[{u}, {a}]"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"quarantined\": [{}]\n",
            quarantined
                .iter()
                .map(|(u, r)| format!("{{\"unit\": {u}, \"reason\": {}}}", escape(r)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("}\n");
        crate::json::write_atomic(&self.snapshot_path, &out)
            .map_err(|e| service_err("snapshot write", &e))?;
        self.journal
            .set_len(0)
            .map_err(|e| service_err("journal truncate", &e))?;
        self.appends_since_compact = 0;
        Ok(())
    }

    /// Have `compact_every` appends accumulated since the last
    /// compaction?
    pub fn compaction_due(&self) -> bool {
        self.appends_since_compact >= self.compact_every
    }

    /// [`JobQueue::compact`] once [`JobQueue::compaction_due`].
    ///
    /// # Errors
    ///
    /// As for [`JobQueue::compact`].
    pub fn maybe_compact(
        &mut self,
        spec: &ServiceSpec,
        shards: &[ShardResult],
        attempts: &[(u64, usize)],
        quarantined: &[(u64, String)],
    ) -> Result<(), ModelError> {
        if self.compaction_due() {
            self.compact(spec, shards, attempts, quarantined)?;
        }
        Ok(())
    }
}

/// Reads unit `unit`'s settled file and checks it against `hash`.
fn read_settled_file(path: &Path, unit: u64, hash: u64) -> Result<ShardResult, String> {
    let name = path.display();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("settled file {name} unreadable: {e}"))?;
    if fingerprint(&text) != hash {
        return Err(format!("settled file {name} does not match its hash"));
    }
    match ShardResult::parse_str(&text) {
        Ok(shard) if shard.unit == unit => Ok(shard),
        Ok(shard) => Err(format!("settled file {name} holds unit {}", shard.unit)),
        Err(e) => Err(format!("settled file {name} unparseable: {e}")),
    }
}

/// Replays the snapshot, then the journal. Returns the recovered status
/// (its `shards` and `rejected` still empty) and the file hash of each
/// settled unit. Nothing here errors: a missing snapshot is a fresh
/// run, an unreadable line is counted and skipped — recovery's
/// contract is "salvage everything whose checksum proves it whole".
/// Shards an earlier-format snapshot or journal carries inline are not
/// settled files and are left out, so their units run again.
fn recover(snapshot_path: &Path, journal_path: &Path) -> (RecoveredState, BTreeMap<u64, u64>) {
    let mut state = RecoveredState::default();
    let mut settled: BTreeMap<u64, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(snapshot_path) {
        if let Ok(doc) = Json::parse(&text) {
            state.spec =
                doc.get("spec").and_then(|s| ServiceSpec::parse(s).ok());
            let entries = |key| doc.get(key).and_then(Json::as_arr).into_iter().flatten();
            for pair in entries("settled") {
                if let Some([u, h]) = pair.as_arr() {
                    if let (Some(u), Some(h)) = (u.as_u64(), parse_hash(h)) {
                        settled.insert(u, h);
                    }
                }
            }
            for pair in entries("attempts") {
                if let Some([u, a]) = pair.as_arr() {
                    if let (Some(u), Some(a)) = (u.as_u64(), a.as_usize()) {
                        state.attempts.insert(u, a);
                    }
                }
            }
            for q in entries("quarantined") {
                if let (Some(u), Some(r)) = (
                    q.get("unit").and_then(Json::as_u64),
                    q.get("reason").and_then(Json::as_str),
                ) {
                    state.quarantined.push((u, r.to_string()));
                }
            }
        }
    }
    if let Ok(text) = std::fs::read_to_string(journal_path) {
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Some(record) = parse_line(line) else {
                state.dropped_lines += 1;
                continue;
            };
            match record {
                JournalRecord::Init { spec } => {
                    if state.spec.is_none() {
                        state.spec = Some(spec);
                    }
                }
                JournalRecord::Lease { unit, attempt }
                | JournalRecord::Requeue { unit, attempt, .. } => {
                    let e = state.attempts.entry(unit).or_insert(0);
                    *e = (*e).max(attempt);
                }
                // The latest record names the file's latest content.
                JournalRecord::Settled { unit, hash } => {
                    state.attempts.remove(&unit);
                    settled.insert(unit, hash);
                }
                // An earlier-format result, the shard inline: the unit
                // completed, but nothing settled it, so it runs again
                // with its attempts reset.
                JournalRecord::Result { shard } => {
                    state.attempts.remove(&shard.unit);
                }
                JournalRecord::Quarantine { unit, reason } => {
                    if !state.quarantined.iter().any(|(u, _)| *u == unit) {
                        state.quarantined.push((unit, reason));
                    }
                }
            }
        }
    }
    (state, settled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, RunRecord, SchedulerSpec};

    fn spec() -> ServiceSpec {
        ServiceSpec {
            system: vec![("kind".into(), "campaign".into())],
            config: CampaignConfig {
                schedulers: vec![SchedulerSpec::RoundRobin],
                seed_start: 0,
                runs: 8,
                budget: 100,
                threads: 1,
            },
            unit_runs: 4,
            faults: Vec::new(),
        }
    }

    fn shard(unit: u64) -> ShardResult {
        ShardResult {
            unit,
            records: vec![(
                unit as usize * 4,
                RunRecord {
                    scheduler: "rr".into(),
                    seed: unit * 4,
                    steps: 9,
                    terminated: true,
                    violation: None,
                    error: None,
                    attempts: 1,
                    pruned: 0,
                    prefilter_hits: 0,
                    static_indep_pairs: 0,
                },
            )],
            fault_records: Vec::new(),
            fingerprints: vec![unit, unit + 100],
            degraded_runs: 0,
            cache_truncated: false,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rsim-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_records_round_trip() {
        let records = [
            JournalRecord::Init { spec: spec() },
            JournalRecord::Lease { unit: 3, attempt: 1 },
            JournalRecord::Result { shard: shard(3) },
            JournalRecord::Settled { unit: 3, hash: u64::MAX - 7 },
            JournalRecord::Requeue {
                unit: 3,
                attempt: 2,
                reason: "worker exited".into(),
            },
            JournalRecord::Quarantine { unit: 3, reason: "poison".into() },
        ];
        for r in records {
            assert_eq!(JournalRecord::parse(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn recovery_replays_the_journal() {
        let dir = tmp_dir("replay");
        {
            let (mut q, recovered) = JobQueue::open(&dir, 1000).unwrap();
            assert!(recovered.spec.is_none());
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Lease { unit: 0, attempt: 1 }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
            q.append(&JournalRecord::Lease { unit: 1, attempt: 1 }).unwrap();
            q.append(&JournalRecord::Requeue {
                unit: 1,
                attempt: 1,
                reason: "killed".into(),
            })
            .unwrap();
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.spec.as_ref().unwrap(), &spec());
        assert_eq!(recovered.shards, vec![shard(0)]);
        assert_eq!(recovered.attempts.get(&1), Some(&1));
        assert!(!recovered.attempts.contains_key(&0), "completed units clear");
        assert_eq!(recovered.dropped_lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_later_appends_survive() {
        let dir = tmp_dir("torn");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            // Power loss mid-write of unit 0's result...
            q.torn_append(&JournalRecord::Result { shard: shard(0) }).unwrap();
            // ...and the service keeps journaling afterwards: the
            // newline repair isolates the damage to the torn line.
            q.append(&JournalRecord::Result { shard: shard(1) }).unwrap();
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.dropped_lines, 1, "the torn line is seen and dropped");
        assert_eq!(recovered.shards, vec![shard(1)]);
        assert_eq!(recovered.spec.as_ref().unwrap(), &spec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksums_are_dropped_not_fatal() {
        let dir = tmp_dir("cksum");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
        }
        // Flip one byte in the middle of the journal.
        let path = dir.join("journal.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.dropped_lines, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_into_snapshot_and_resets_journal() {
        let dir = tmp_dir("compact");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
            q.compact(
                &spec(),
                &[shard(0)],
                &[(1, 2)],
                &[(2, "poison".into())],
            )
            .unwrap();
            // Post-compaction appends land in the fresh journal.
            q.append(&JournalRecord::Result { shard: shard(3) }).unwrap();
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.spec.as_ref().unwrap(), &spec());
        assert_eq!(recovered.shards, vec![shard(0), shard(3)]);
        assert_eq!(recovered.attempts.get(&1), Some(&2));
        assert_eq!(recovered.quarantined, vec![(2, "poison".to_string())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_results_from_crash_races_dedup_on_recovery() {
        let dir = tmp_dir("dup");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(0) }).unwrap();
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.shards.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A unit's result line names its settled file by hash; the shard
    /// itself is stored once, in that file, and nowhere else.
    #[test]
    fn results_are_settled_once_into_their_own_file() {
        let dir = tmp_dir("settled");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.append(&JournalRecord::Result { shard: shard(2) }).unwrap();
            q.compact(&spec(), &[], &[], &[]).unwrap();
        }
        let file = std::fs::read_to_string(dir.join("settled/unit-2.json")).unwrap();
        assert_eq!(ShardResult::parse_str(&file).unwrap(), shard(2));
        let snapshot = std::fs::read_to_string(dir.join("snapshot.json")).unwrap();
        let hash = format!("[2, \"{:016x}\"]", fingerprint(&file));
        assert!(snapshot.contains(&hash), "{snapshot}");
        assert!(!snapshot.contains("\"records\""), "no shard inline: {snapshot}");
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.shards, vec![shard(2)]);
        assert!(recovered.rejected.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A settled file that is missing, torn or edited is rejected on
    /// recovery: its unit is pending again, and its bytes never reach
    /// the recovered shards.
    #[test]
    fn damaged_settled_files_are_rejected_not_merged() {
        let dir = tmp_dir("reject");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            for unit in 0..4 {
                q.append(&JournalRecord::Result { shard: shard(unit) }).unwrap();
            }
        }
        let path = |unit: u64| dir.join(format!("settled/unit-{unit}.json"));
        // Unit 1: torn in half. Unit 2: gone. Unit 3: a well-formed
        // shard that is not the one the journal hashed.
        let torn = std::fs::read(path(1)).unwrap();
        std::fs::write(path(1), &torn[..torn.len() / 2]).unwrap();
        std::fs::remove_file(path(2)).unwrap();
        let mut edited = shard(3);
        edited.records[0].1.steps += 1;
        std::fs::write(path(3), format!("{}\n", edited.to_json())).unwrap();
        let (mut q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.shards, vec![shard(0)]);
        let rejected: Vec<u64> = recovered.rejected.iter().map(|(u, _)| *u).collect();
        assert_eq!(rejected, vec![1, 2, 3]);
        assert!(recovered.rejected[2].1.contains("does not match its hash"));
        // Rejected units stay out of the next snapshot until settled
        // again.
        q.compact(&spec(), &[], &[], &[]).unwrap();
        q.append(&JournalRecord::Result { shard: shard(3) }).unwrap();
        drop(q);
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.shards, vec![shard(0), shard(3)]);
        assert!(recovered.rejected.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Compaction writes unit status only: a settled unit costs the
    /// snapshot the same few bytes whether its shard holds one run or
    /// hundreds.
    #[test]
    fn snapshot_grows_by_bounded_bytes_per_settled_unit() {
        let sized = |tag: &str, runs: usize| {
            let dir = tmp_dir(tag);
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.compact(&spec(), &[], &[], &[]).unwrap();
            let empty = std::fs::metadata(dir.join("snapshot.json")).unwrap().len();
            for unit in 0..4 {
                let mut big = shard(unit);
                let (index, record) = big.records[0].clone();
                big.records = (0..runs).map(|i| (index + i, record.clone())).collect();
                big.fingerprints = (0..runs as u64 * 4).collect();
                q.append(&JournalRecord::Result { shard: big }).unwrap();
            }
            q.compact(&spec(), &[], &[], &[]).unwrap();
            let full = std::fs::metadata(dir.join("snapshot.json")).unwrap().len();
            let _ = std::fs::remove_dir_all(&dir);
            (full - empty) / 4
        };
        let (small, large) = (sized("grow1", 1), sized("grow200", 200));
        assert_eq!(small, large, "per-unit snapshot bytes follow the unit count only");
        assert!(small <= 32, "{small} snapshot bytes per settled unit");
    }

    /// A state directory of the earlier format, with shards inline in
    /// the snapshot and in journal `result` lines, settles nothing:
    /// every such unit runs again, with its attempts reset.
    #[test]
    fn inline_shards_of_the_earlier_format_are_not_settled() {
        let dir = tmp_dir("inline");
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = format!(
            "{{\"spec\": {}, \"shards\": [{}], \"attempts\": [[1, 2]], \"quarantined\": []}}\n",
            spec().to_json(),
            shard(0).to_json()
        );
        std::fs::write(dir.join("snapshot.json"), snapshot).unwrap();
        std::fs::write(
            dir.join("journal.log"),
            journal_line(&JournalRecord::Result { shard: shard(1) }),
        )
        .unwrap();
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.spec.as_ref().unwrap(), &spec());
        assert!(recovered.shards.is_empty());
        assert!(recovered.rejected.is_empty());
        assert!(recovered.attempts.is_empty(), "{:?}", recovered.attempts);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `write` stages a result without settling it: the unit counts as
    /// settled only once a sync has put its file in place and
    /// journaled it, and the lease lines written beside it survive.
    #[test]
    fn written_results_settle_at_sync() {
        let dir = tmp_dir("write");
        {
            let (mut q, _) = JobQueue::open(&dir, 1000).unwrap();
            q.append(&JournalRecord::Init { spec: spec() }).unwrap();
            q.write(&JournalRecord::Lease { unit: 1, attempt: 2 }).unwrap();
            q.write(&JournalRecord::Result { shard: shard(0) }).unwrap();
            assert!(!dir.join("settled/unit-0.json").exists());
            assert_eq!(q.read_settled(), (Vec::new(), Vec::new()));
            q.sync().unwrap();
            assert!(dir.join("settled/unit-0.json").exists());
        }
        let (_q, recovered) = JobQueue::open(&dir, 1000).unwrap();
        assert_eq!(recovered.shards, vec![shard(0)]);
        assert_eq!(recovered.attempts.get(&1), Some(&2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
