//! Minimal JSON reader for checkpoint files.
//!
//! The workspace builds offline with no serde; reports are *written*
//! with hand-rolled formatting (see
//! [`crate::campaign::CampaignReport::to_json`]), and this module is the
//! matching *reader* used by `campaign --resume` to load checkpoints.
//!
//! Numbers are kept as raw token strings: checkpoint fingerprints are
//! full 64-bit values that do not round-trip through `f64`, so
//! [`Json::as_u64`] parses the token directly.

use crate::error::ModelError;
use std::io;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Flushes the directory entry containing `path` so a rename (or link)
/// into it survives power loss. Directory fsync is a POSIX-ism; on
/// platforms where directories cannot be opened it is skipped — the
/// rename itself is still atomic, only its durability window widens.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    sync_dir(match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    })
}

/// Flushes directory `dir`'s entries, as [`write_atomic`] does for the
/// file it renames: one call covers every rename into `dir` before it.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(dir) => dir.sync_all(),
        // Windows (and some filesystems) refuse to open directories;
        // that is a capability gap, not a caller error.
        Err(_) => Ok(()),
    }
}

/// Writes `contents` to `path` atomically and durably: the bytes go to
/// a sibling `.tmp` file first, which is fsynced and then renamed over
/// the destination, after which the parent directory entry is fsynced
/// too — so a reader never observes a half-written file, and a power
/// loss never leaves a renamed-but-unjournalled entry. A crash between
/// write and rename leaves only the `.tmp` debris; the destination is
/// either the old bytes or the new bytes, never a mix.
///
/// This is the single write path for every JSON artifact the workspace
/// produces — campaign checkpoints, replay bundles, service snapshots,
/// and `--json-out` reports all funnel through here.
///
/// # Errors
///
/// Propagates the underlying I/O error from the write, the fsync, or
/// the rename.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        // The temp file's bytes must be on disk *before* the rename
        // makes them reachable, else a crash can expose an empty file
        // under the final name.
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Distinguishes concurrent writers' temp files (process id alone is
/// not enough: two threads of one process may race on the same target).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically creates `path` with `contents` **iff it does not already
/// exist**, with the same durability guarantees as [`write_atomic`].
/// Returns `true` if this call created the file, `false` if some other
/// writer (thread, process, or an earlier run) got there first — in
/// which case the existing file is left untouched.
///
/// The bytes are staged in a uniquely-named temp file (fsynced), then
/// published with a hard link — the one POSIX primitive that is both
/// atomic and exclusive — so two writers racing on the same path can
/// never interleave bytes or both report success. This is what
/// deduplicates violation-bundle corpora: the first shard to produce a
/// fingerprint wins, every later shard observes `false`.
///
/// # Errors
///
/// Propagates I/O errors other than the benign already-exists race.
pub fn write_atomic_new(path: &Path, contents: &str) -> io::Result<bool> {
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
    }
    let linked = match std::fs::hard_link(&tmp, path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    };
    // The staged copy is debris either way once the link call resolved.
    let _ = std::fs::remove_file(&tmp);
    if matches!(linked, Ok(true)) {
        sync_parent_dir(path)?;
    }
    linked
}

/// Renders `s` as a JSON string literal, escaping quotes, backslashes,
/// and control characters. The single escaping routine shared by every
/// hand-rolled writer in the workspace (reports, checkpoints, bundles,
/// service journals).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (lossless for 64-bit integers).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] with the byte offset of the
    /// problem.
    pub fn parse(input: &str) -> Result<Json, ModelError> {
        let mut p = Parser { text: input, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(value)
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64` (lossless: parsed from the raw token).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Is this JSON `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; always on a character boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> ModelError {
        ModelError::BadSpec {
            spec: "json".into(),
            reason: format!("{reason} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ModelError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ModelError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ModelError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, ModelError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, ModelError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| {
                        self.err("unterminated escape")
                    })?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates do not occur in our own output;
                            // map unpaired ones to the replacement char.
                            out.push(
                                char::from_u32(code).unwrap_or('\u{fffd}'),
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` is on a character
                    // boundary, so the slice costs nothing and only one
                    // character is decoded, however long the rest is.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ModelError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ModelError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(
            Json::parse("\"hi\\n\\\"there\\\"\"").unwrap().as_str(),
            Some("hi\n\"there\"")
        );
    }

    #[test]
    fn u64_fingerprints_round_trip_losslessly() {
        // Values above 2^53 lose precision in f64; the raw-token
        // representation must not.
        let fp = 0xcbf2_9ce4_8422_2325u64;
        let parsed = Json::parse(&fp.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(fp));
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{
            "version": 1,
            "completed": [ {"seed": 3, "violation": null}, {"seed": 4, "violation": "bad"} ],
            "fingerprints": [1, 2, 3]
        }"#;
        let json = Json::parse(doc).unwrap();
        assert_eq!(json.get("version").and_then(Json::as_usize), Some(1));
        let completed = json.get("completed").and_then(Json::as_arr).unwrap();
        assert_eq!(completed.len(), 2);
        assert!(completed[0].get("violation").unwrap().is_null());
        assert_eq!(completed[1].get("violation").and_then(Json::as_str), Some("bad"));
        let fps: Vec<u64> = json
            .get("fingerprints")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(fps, vec![1, 2, 3]);
    }

    #[test]
    fn reads_back_our_own_report_output() {
        use crate::campaign::{run_campaign, CampaignConfig, SchedulerSpec};
        use crate::object::{Object, ObjectId};
        use crate::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
        use crate::system::System;
        use crate::value::Value;

        #[derive(Clone, Debug)]
        struct One;
        impl SnapshotProtocol for One {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                ProtocolStep::Output(Value::Int(1))
            }
            fn components(&self) -> usize {
                1
            }
        }
        let factory = |_seed: u64| {
            System::new(
                vec![Object::snapshot(1)],
                vec![Box::new(SnapshotProcess::new(One, ObjectId(0))) as Box<dyn Process>],
            )
        };
        let config = CampaignConfig {
            schedulers: vec![SchedulerSpec::RoundRobin],
            seed_start: 0,
            runs: 2,
            budget: 50,
            threads: 1,
        };
        let report = run_campaign(&config, factory, &|_| None);
        let json = Json::parse(&report.to_json()).unwrap();
        assert_eq!(json.get("total_runs").and_then(Json::as_usize), Some(2));
        assert_eq!(
            json.get("schedulers").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn large_checkpoints_parse_in_linear_time() {
        use crate::campaign::{CampaignCheckpoint, RunRecord};
        use std::time::{Duration, Instant};

        // 4,000 records (a ~1 MB document) with multi-byte text
        // round-trip through the reader. A reader that re-validates the
        // rest of the document per character takes seconds here, in a
        // release build too.
        let record = |seed: u64| RunRecord {
            scheduler: "quantum:2".into(),
            seed,
            steps: 40 + seed as usize % 7,
            terminated: !seed.is_multiple_of(3),
            violation: seed.is_multiple_of(5).then(|| format!("p0 → {seed} ≠ p1 → 0")),
            error: None,
            attempts: 1,
            pruned: seed as usize % 4,
            prefilter_hits: seed as usize % 11,
            static_indep_pairs: 3,
        };
        let checkpoint = CampaignCheckpoint {
            spec: Some("protocol=racing sched=quantum:2 — résumé".into()),
            completed: (0..4_000).map(|i| (i as usize, record(i))).collect(),
            fingerprints: (0..8_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
        };
        let text = checkpoint.to_json();
        let start = Instant::now();
        let parsed = CampaignCheckpoint::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.spec, checkpoint.spec);
        assert_eq!(parsed.completed, checkpoint.completed);
        assert_eq!(parsed.fingerprints, checkpoint.fingerprints);
        assert_eq!(parsed.to_json(), text);
        assert!(elapsed < Duration::from_secs(5), "{} KB took {elapsed:?}", text.len() / 1024);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(matches!(err, ModelError::BadSpec { .. }), "`{bad}`: {err:?}");
        }
    }
}
