//! The coordinator ⇄ worker wire protocol.
//!
//! Frames are length-prefixed, checksummed JSON: 8 lowercase hex
//! digits (the body byte length), a newline, then the body — 16
//! lowercase hex digits (the FNV-1a checksum of the payload), one
//! space, and the payload itself. Length prefixing — not line framing
//! — because payloads embed whole shard results whose violation
//! messages may contain anything; the checksum is what lets a reader
//! on a hostile transport *reject* a corrupted payload instead of
//! deserializing garbage. The same codec runs over both transports:
//! the coordinator writes [`CoordMsg`] frames to a worker's stdin (or
//! TCP stream); the worker writes [`WorkerMsg`] frames back (its
//! stderr passes through for human diagnostics in stdio mode).
//!
//! Read failures are structured ([`FrameError`]): the coordinator
//! must distinguish a *corrupt* peer (bad prefix, oversized length,
//! checksum mismatch — sever and consume a lease attempt) from a
//! *slow or dead* one (EOF, timeout — let the lease machinery requeue
//! on its own clock).

use crate::error::ModelError;
use crate::fingerprint::fingerprint;
use crate::json::{escape, Json};
use crate::service::merge::ShardResult;
use crate::service::unit::WorkUnit;
use std::fmt;
use std::io::{self, BufRead, Write};

/// The wire-protocol version. Bumped on any frame- or message-format
/// change; the TCP handshake fails closed on a mismatch so an old
/// worker can never misparse a new coordinator (or vice versa).
pub const PROTO_VERSION: u32 = 2;

/// Refuse frames above this size: a corrupt length prefix must not
/// make the reader try to allocate gigabytes.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Checksum hex digits + the separating space.
const CHECKSUM_OVERHEAD: usize = 17;

/// Why a frame read failed. [`FrameError::is_corrupt`] is the triage
/// the coordinator keys off: corrupt peers are severed (and their
/// lease attempt consumed), slow peers are left to lease expiry.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix was not 8 hex digits (or named a body too
    /// small to hold a checksum).
    BadPrefix(String),
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
    /// The payload did not match its FNV-1a checksum.
    BadChecksum,
    /// The payload was not valid UTF-8.
    BadUtf8,
    /// EOF inside a frame: the peer died mid-write.
    Truncated,
    /// An underlying I/O error (closed pipe, read timeout, reset).
    Io(io::Error),
}

impl FrameError {
    /// Is this a *corrupt-peer* failure (reject and sever) as opposed
    /// to a slow/dead-peer one (requeue on lease expiry)?
    pub fn is_corrupt(&self) -> bool {
        matches!(
            self,
            FrameError::BadPrefix(_)
                | FrameError::Oversized(_)
                | FrameError::BadChecksum
                | FrameError::BadUtf8
        )
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadPrefix(prefix) => {
                write!(f, "bad frame length prefix {prefix:?}")
            }
            FrameError::Oversized(len) => write!(
                f,
                "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
            ),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::Truncated => write!(f, "EOF inside a frame"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Encodes one frame: length prefix, newline, checksum, space,
/// payload.
pub fn encode_frame(payload: &str) -> String {
    format!(
        "{:08x}\n{:016x} {payload}",
        payload.len() + CHECKSUM_OVERHEAD,
        fingerprint(payload),
    )
}

/// Writes one checksummed frame and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O error (a closed pipe means the peer
/// died; callers treat that as a dead worker, not a fatal fault).
pub fn write_frame(w: &mut dyn Write, payload: &str) -> io::Result<()> {
    w.write_all(encode_frame(payload).as_bytes())?;
    w.flush()
}

/// Reads one frame *body* (checksum + space + payload) without
/// verifying it. Returns `Ok(None)` on clean EOF at a frame boundary.
/// Split from [`verify_frame`] so the network-chaos layer can corrupt
/// bytes *before* verification — exactly where real wire damage lands.
///
/// # Errors
///
/// [`FrameError::BadPrefix`] / [`FrameError::Oversized`] on a
/// malformed length, [`FrameError::Truncated`] on EOF inside the
/// frame, [`FrameError::Io`] on transport errors (including read
/// timeouts).
pub fn read_frame_raw(r: &mut dyn BufRead) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = String::new();
    if r.read_line(&mut prefix).map_err(FrameError::from)? == 0 {
        return Ok(None);
    }
    let trimmed = prefix.trim_end_matches('\n');
    let len = match usize::from_str_radix(trimmed, 16) {
        Ok(len) if trimmed.len() == 8 => len,
        _ => return Err(FrameError::BadPrefix(trimmed.to_string())),
    };
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    if len < CHECKSUM_OVERHEAD {
        return Err(FrameError::BadPrefix(trimmed.to_string()));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(FrameError::from)?;
    Ok(Some(body))
}

/// Verifies a frame body: checksum format, payload UTF-8, and the
/// FNV-1a match. Returns the payload.
///
/// # Errors
///
/// [`FrameError::BadChecksum`] or [`FrameError::BadUtf8`] — both
/// corrupt-class failures.
pub fn verify_frame(body: &[u8]) -> Result<String, FrameError> {
    if body.len() < CHECKSUM_OVERHEAD || body[16] != b' ' {
        return Err(FrameError::BadChecksum);
    }
    let sum_hex =
        std::str::from_utf8(&body[..16]).map_err(|_| FrameError::BadChecksum)?;
    let sum = u64::from_str_radix(sum_hex, 16).map_err(|_| FrameError::BadChecksum)?;
    let payload = std::str::from_utf8(&body[CHECKSUM_OVERHEAD..])
        .map_err(|_| FrameError::BadUtf8)?;
    if fingerprint(payload) != sum {
        return Err(FrameError::BadChecksum);
    }
    Ok(payload.to_string())
}

/// Reads and verifies one frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed the stream between frames).
///
/// # Errors
///
/// See [`read_frame_raw`] and [`verify_frame`].
pub fn read_frame(r: &mut dyn BufRead) -> Result<Option<String>, FrameError> {
    match read_frame_raw(r)? {
        None => Ok(None),
        Some(body) => verify_frame(&body).map(Some),
    }
}

/// Coordinator → worker messages.
#[derive(Clone, PartialEq, Debug)]
pub enum CoordMsg {
    /// TCP handshake accept: the session is live. `session` is the
    /// token the worker presents to resume after a reconnect;
    /// `lease_timeout_ms` tells it how long that resume window is.
    Welcome {
        /// The coordinator's protocol version.
        version: u32,
        /// The campaign identity (workers echo it on reconnect so a
        /// stale worker can never join the wrong campaign).
        spec_id: String,
        /// The session token for reconnection.
        session: u64,
        /// The lease/resume window, milliseconds.
        lease_timeout_ms: u64,
    },
    /// TCP handshake reject. `fatal` tells the worker whether retrying
    /// with a fresh hello could ever succeed (a stale session token is
    /// retryable; a version or spec mismatch is not).
    Reject {
        /// Why.
        reason: String,
        /// Give up instead of re-handshaking?
        fatal: bool,
    },
    /// Execute this unit in memory, publish violation bundles under
    /// `corpus_dir`, heartbeat every `heartbeat_ms`, and send the
    /// shard back.
    Lease {
        /// The self-describing unit.
        unit: WorkUnit,
        /// The coordinator's state directory. Workers write nothing
        /// there: the coordinator settles each shard it receives. The
        /// field stays in the frame so its bytes do not change, and
        /// the benchmark package's service shadow still reads it.
        state_dir: String,
        /// Directory for deduplicated violation bundles.
        corpus_dir: String,
        /// Heartbeat period, milliseconds.
        heartbeat_ms: u64,
    },
    /// No more work: exit cleanly.
    Shutdown,
}

impl CoordMsg {
    /// Serialises the message as JSON.
    pub fn to_json(&self) -> String {
        match self {
            CoordMsg::Welcome { version, spec_id, session, lease_timeout_ms } => {
                format!(
                    "{{\"type\": \"welcome\", \"version\": {version}, \
                     \"spec_id\": {}, \"session\": {session}, \
                     \"lease_timeout_ms\": {lease_timeout_ms}}}",
                    escape(spec_id),
                )
            }
            CoordMsg::Reject { reason, fatal } => format!(
                "{{\"type\": \"reject\", \"reason\": {}, \"fatal\": {fatal}}}",
                escape(reason),
            ),
            CoordMsg::Lease { unit, state_dir, corpus_dir, heartbeat_ms } => {
                format!(
                    "{{\"type\": \"lease\", \"unit\": {}, \"state_dir\": {}, \
                     \"corpus_dir\": {}, \"heartbeat_ms\": {}}}",
                    unit.to_json(),
                    escape(state_dir),
                    escape(corpus_dir),
                    heartbeat_ms,
                )
            }
            CoordMsg::Shutdown => "{\"type\": \"shutdown\"}".into(),
        }
    }

    /// Parses a message from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on malformed JSON, an unknown
    /// type, or missing fields.
    pub fn parse(text: &str) -> Result<CoordMsg, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "coordinator message".into(),
            reason: reason.into(),
        };
        let doc = Json::parse(text)?;
        match doc.get("type").and_then(Json::as_str) {
            Some("welcome") => Ok(CoordMsg::Welcome {
                version: doc
                    .get("version")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing `version`"))?
                    as u32,
                spec_id: doc
                    .get("spec_id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing `spec_id`"))?
                    .to_string(),
                session: doc
                    .get("session")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing `session`"))?,
                lease_timeout_ms: doc
                    .get("lease_timeout_ms")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing `lease_timeout_ms`"))?,
            }),
            Some("reject") => Ok(CoordMsg::Reject {
                reason: doc
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing `reason`"))?
                    .to_string(),
                fatal: doc
                    .get("fatal")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("missing `fatal`"))?,
            }),
            Some("lease") => Ok(CoordMsg::Lease {
                unit: WorkUnit::parse(
                    doc.get("unit").ok_or_else(|| bad("missing `unit`"))?,
                )?,
                state_dir: doc
                    .get("state_dir")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing `state_dir`"))?
                    .to_string(),
                corpus_dir: doc
                    .get("corpus_dir")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing `corpus_dir`"))?
                    .to_string(),
                heartbeat_ms: doc
                    .get("heartbeat_ms")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing `heartbeat_ms`"))?,
            }),
            Some("shutdown") => Ok(CoordMsg::Shutdown),
            Some(other) => Err(bad(&format!("unknown message type `{other}`"))),
            None => Err(bad("missing `type`")),
        }
    }
}

/// Worker → coordinator messages.
#[derive(Clone, PartialEq, Debug)]
pub enum WorkerMsg {
    /// TCP handshake open. A fresh worker sends only its version (and
    /// its spawn `tag`, when the coordinator launched it); a
    /// reconnecting worker also presents its `session` token and
    /// echoes the campaign `spec_id` it learned from the first
    /// [`CoordMsg::Welcome`] — both are validated fail-closed.
    Hello {
        /// The worker's protocol version.
        version: u32,
        /// The session token to resume, if reconnecting.
        session: Option<u64>,
        /// The campaign identity learned at first welcome, if any.
        spec_id: Option<String>,
        /// The coordinator-assigned spawn ordinal (binds this
        /// connection to the coordinator-held child handle so chaos
        /// kills reach the right process even over TCP).
        tag: Option<u64>,
    },
    /// Liveness signal while executing a unit; sent immediately on
    /// lease receipt and then periodically.
    Heartbeat {
        /// The unit being executed.
        unit: u64,
    },
    /// The unit's completed shard result.
    Result {
        /// The completed unit.
        unit: u64,
        /// Its records and fingerprints, in global matrix coordinates.
        shard: ShardResult,
    },
}

impl WorkerMsg {
    /// Serialises the message as JSON.
    pub fn to_json(&self) -> String {
        match self {
            WorkerMsg::Hello { version, session, spec_id, tag } => {
                let mut out = format!("{{\"type\": \"hello\", \"version\": {version}");
                if let Some(session) = session {
                    out.push_str(&format!(", \"session\": {session}"));
                }
                if let Some(spec_id) = spec_id {
                    out.push_str(&format!(", \"spec_id\": {}", escape(spec_id)));
                }
                if let Some(tag) = tag {
                    out.push_str(&format!(", \"tag\": {tag}"));
                }
                out.push('}');
                out
            }
            WorkerMsg::Heartbeat { unit } => {
                format!("{{\"type\": \"heartbeat\", \"unit\": {unit}}}")
            }
            WorkerMsg::Result { unit, shard } => format!(
                "{{\"type\": \"result\", \"unit\": {unit}, \"shard\": {}}}",
                shard.to_json()
            ),
        }
    }

    /// Parses a message from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadSpec`] on malformed JSON, an unknown
    /// type, or missing fields.
    pub fn parse(text: &str) -> Result<WorkerMsg, ModelError> {
        let bad = |reason: &str| ModelError::BadSpec {
            spec: "worker message".into(),
            reason: reason.into(),
        };
        let doc = Json::parse(text)?;
        let unit = || {
            doc.get("unit")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing `unit`"))
        };
        match doc.get("type").and_then(Json::as_str) {
            Some("hello") => Ok(WorkerMsg::Hello {
                version: doc
                    .get("version")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing `version`"))? as u32,
                session: doc.get("session").and_then(Json::as_u64),
                spec_id: doc
                    .get("spec_id")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                tag: doc.get("tag").and_then(Json::as_u64),
            }),
            Some("heartbeat") => Ok(WorkerMsg::Heartbeat { unit: unit()? }),
            Some("result") => Ok(WorkerMsg::Result {
                unit: unit()?,
                shard: ShardResult::parse(
                    doc.get("shard").ok_or_else(|| bad("missing `shard`"))?,
                )?,
            }),
            Some(other) => Err(bad(&format!("unknown message type `{other}`"))),
            None => Err(bad("missing `type`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip_including_newlines() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "first\npayload").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "third").unwrap();
        let mut r = BufReader::new(buf.as_slice());
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("first\npayload"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("third"));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_and_bad_prefixes_are_structured_errors() {
        // EOF inside the payload: a dead peer, not a corrupt one.
        let mut r = BufReader::new(&b"00000020\n0123456789abcdef short"[..]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Garbage prefix: corrupt.
        let mut r = BufReader::new(&b"not-hex!\npayload"[..]);
        match read_frame(&mut r) {
            Err(e @ FrameError::BadPrefix(_)) => assert!(e.is_corrupt()),
            other => panic!("expected BadPrefix, got {other:?}"),
        }
        // Oversized length must not allocate.
        let mut r = BufReader::new(&b"ffffffff\nx"[..]);
        match read_frame(&mut r) {
            Err(e @ FrameError::Oversized(_)) => assert!(e.is_corrupt()),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // A length too small to hold the checksum is corrupt too.
        let mut r = BufReader::new(&b"00000004\nabcd"[..]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadPrefix(_))));
    }

    #[test]
    fn checksum_mismatches_are_rejected_not_deserialized() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\": \"heartbeat\", \"unit\": 3}").unwrap();
        // Flip one payload byte; the reader must reject, not parse.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut r = BufReader::new(buf.as_slice());
        match read_frame(&mut r) {
            Err(e @ FrameError::BadChecksum) => assert!(e.is_corrupt()),
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    /// The corruption sweep: flipping *every* byte of a framed
    /// `WorkerMsg` must fail closed — no panic, no over-read, and
    /// never a successful read of damaged bytes.
    #[test]
    fn frame_corruption_sweep_fails_closed_on_every_byte() {
        let msg = WorkerMsg::Result {
            unit: 7,
            shard: ShardResult {
                unit: 7,
                records: Vec::new(),
                fault_records: Vec::new(),
                fingerprints: vec![1, u64::MAX - 1],
                degraded_runs: 0,
                cache_truncated: false,
            },
        };
        let mut clean = Vec::new();
        write_frame(&mut clean, &msg.to_json()).unwrap();
        let mut corrupt_class = 0usize;
        for i in 0..clean.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut damaged = clean.clone();
                damaged[i] ^= bit;
                let mut r = BufReader::new(damaged.as_slice());
                match read_frame(&mut r) {
                    Ok(payload) => panic!(
                        "flip of byte {i} (bit {bit:#04x}) read {payload:?} \
                         instead of failing"
                    ),
                    Err(e) => {
                        if e.is_corrupt() {
                            corrupt_class += 1;
                        }
                        // Truncated/Io also acceptable: a flipped
                        // length prefix looks like a slow peer, and
                        // lease expiry handles those.
                    }
                }
            }
        }
        assert!(
            corrupt_class > clean.len(),
            "most flips must be detected as corruption, got {corrupt_class}"
        );
    }

    #[test]
    fn coord_messages_round_trip() {
        let msgs = [
            CoordMsg::Welcome {
                version: PROTO_VERSION,
                spec_id: "proto=racing seeds=0+8".into(),
                session: 41,
                lease_timeout_ms: 30_000,
            },
            CoordMsg::Reject { reason: "version 1 != 2".into(), fatal: true },
            CoordMsg::Lease {
                unit: WorkUnit {
                    id: 3,
                    index_base: 24,
                    scheduler: "random".into(),
                    plan: String::new(),
                    seed_start: 8,
                    runs: 8,
                    budget: 500,
                    system: vec![("kind".into(), "campaign".into())],
                },
                state_dir: "/tmp/state".into(),
                corpus_dir: "/tmp/corpus".into(),
                heartbeat_ms: 200,
            },
            CoordMsg::Shutdown,
        ];
        for msg in msgs {
            assert_eq!(CoordMsg::parse(&msg.to_json()).unwrap(), msg);
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        let msgs = [
            WorkerMsg::Hello {
                version: PROTO_VERSION,
                session: None,
                spec_id: None,
                tag: Some(2),
            },
            WorkerMsg::Hello {
                version: PROTO_VERSION,
                session: Some(9),
                spec_id: Some("proto=racing seeds=0+8".into()),
                tag: None,
            },
            WorkerMsg::Heartbeat { unit: 7 },
            WorkerMsg::Result {
                unit: 7,
                shard: ShardResult {
                    unit: 7,
                    records: Vec::new(),
                    fault_records: Vec::new(),
                    fingerprints: vec![1, u64::MAX - 1],
                    degraded_runs: 0,
                    cache_truncated: false,
                },
            },
        ];
        for msg in msgs {
            assert_eq!(WorkerMsg::parse(&msg.to_json()).unwrap(), msg);
        }
    }

    #[test]
    fn unknown_message_types_are_structured_errors() {
        assert!(CoordMsg::parse("{\"type\": \"pause\"}").is_err());
        assert!(WorkerMsg::parse("{\"type\": \"pause\"}").is_err());
        assert!(WorkerMsg::parse("{}").is_err());
    }
}
