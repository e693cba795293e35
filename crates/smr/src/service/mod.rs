//! Crash-tolerant multi-process campaign service.
//!
//! The single-process campaign runner ([`crate::campaign`]) already
//! survives panics, timeouts, and its own restarts (checkpoints); this
//! module promotes it into a *service* that survives anything short of
//! losing the disk: the (scheduler × seed-range) matrix is partitioned
//! into self-describing [`unit::WorkUnit`]s held in a persistent
//! crash-safe job queue ([`queue::JobQueue`]: append-only checksummed
//! journal, one immutable settled file per completed unit, and atomic
//! snapshot compaction), a coordinator
//! ([`coordinator::run_service`]) leases units to worker *processes*
//! over a length-prefixed JSON stdio protocol ([`proto`]) with
//! heartbeats, lease expiry, bounded retry-with-backoff on worker
//! death, and quarantine of poison units ([`lease::LeaseManager`]),
//! and a merge layer ([`merge`]) reassembles worker shards through the
//! *same* aggregation routine the single-process runner uses — so the
//! merged report is bit-for-bit independent of sharding, worker count,
//! crash/retry history, and merge order, by construction.
//!
//! The worker link is a pluggable [`transport::Transport`]: the
//! original spawned-process stdio framing, or TCP (`--listen` /
//! `--connect`) for cross-machine fleets — with a versioned handshake
//! that fails closed on protocol or spec mismatch, checksummed frames,
//! read/write deadlines, and session resumption so a worker that
//! reconnects within its lease window reclaims its unit without
//! burning an attempt. Fault-plan matrices ([`ServiceSpec::faults`])
//! partition across workers exactly like scheduler matrices, and each
//! run stores a per-claim [`summary::ServiceSummary`] beside the
//! journal.
//!
//! Robustness is proven, not assumed: [`chaos::ChaosPlan`] lets the
//! service SIGKILL its own workers mid-unit, tear its own journal
//! writes, and (through the deterministic [`chaos::NetChaos`] proxy)
//! drop, delay, duplicate, corrupt, and sever its own wire frames —
//! and the acceptance gate requires the merged report to stay
//! byte-identical to an unkilled single-process reference run.

pub mod chaos;
pub mod coordinator;
pub mod lease;
pub mod merge;
pub mod proto;
pub mod queue;
pub mod summary;
pub mod transport;
pub mod unit;

pub use chaos::{ChaosPlan, NetAction, NetChaos};
pub use coordinator::{
    run_service, run_service_with_transport, MergedReport, ServiceOptions,
    ServiceOutcome, ServiceStats,
};
pub use lease::{LeaseEvent, LeaseManager, UnitState};
pub use merge::{merge_fault_report, merge_report, ShardResult};
pub use proto::{
    encode_frame, read_frame, read_frame_raw, verify_frame, write_frame,
    CoordMsg, FrameError, WorkerMsg, PROTO_VERSION,
};
pub use queue::{JobQueue, JournalRecord, RecoveredState};
pub use summary::{build_summary, ClaimSummary, ServiceSummary};
pub use transport::{Remote, RemoteError, Transport};
pub use unit::{ServiceSpec, WorkUnit};
