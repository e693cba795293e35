//! The campaign-service coordinator: leases units to worker sessions
//! and converges on the merged report.
//!
//! The coordinator owns no execution — it feeds [`CoordMsg::Lease`]
//! frames to worker *sessions* and listens for heartbeats and results.
//! A session reaches the coordinator over a pluggable
//! [`Transport`]: spawned child processes on piped stdio (where a
//! closed pipe *is* worker death), or TCP, where connections are cheap
//! and lossy and the session outlives any one of them — a worker that
//! reconnects within its lease window presents its session token,
//! passes the versioned handshake again, and reclaims its unit without
//! burning a lease attempt. Everything that matters is journaled
//! through [`JobQueue`] *before* it is acted on, so a coordinator
//! crash recovers to the same place; worker death, lease expiry, and
//! severed connections are expected events (requeue with backoff,
//! quarantine after `max_lease_attempts`), not errors.
//!
//! Chaos injection runs inside this loop on purpose: [`ChaosPlan`]
//! SIGKILLs workers mid-unit and tears journal writes, and its
//! deterministic [`NetChaos`] proxy drops, delays, duplicates,
//! corrupts, and severs wire frames — all through exactly the code
//! paths real faults take. The merged report must come out
//! byte-identical regardless.

use crate::campaign::{CampaignReport, FaultCampaignReport};
use crate::error::ModelError;
use crate::service::chaos::{ChaosPlan, NetAction, NetChaos};
use crate::service::lease::{LeaseEvent, LeaseManager};
use crate::service::merge::{first_wins, merge_fault_report, merge_report, ShardResult};
use crate::service::proto::{
    read_frame, read_frame_raw, verify_frame, write_frame, CoordMsg, WorkerMsg,
    PROTO_VERSION,
};
use crate::service::queue::{JobQueue, JournalRecord};
use crate::service::summary::{build_summary, ClaimSummary, ServiceSummary};
use crate::service::transport::{chaos_send, flip_last, Transport, IO_DEADLINE};
use crate::service::unit::{ServiceSpec, WorkUnit};
use std::collections::BTreeMap;
use std::io::{BufReader, Read};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How often workers heartbeat while executing a unit.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);
/// Journal appends between snapshot compactions.
const COMPACT_EVERY: usize = 32;

/// How the service runs: fleet size, durability locations, lease
/// timing, retry policy, and the chaos plan.
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Worker processes to keep alive (capped at the unsettled unit
    /// count — idle processes are not spawned). Under a TCP transport,
    /// `0` means externally managed workers: the coordinator spawns
    /// nothing and serves whoever connects.
    pub workers: usize,
    /// State directory: journal, snapshot, and the settled file of
    /// each completed unit, all written by the coordinator. Workers
    /// write nothing here.
    pub state_dir: PathBuf,
    /// Corpus directory for deduplicated violation bundles.
    pub corpus_dir: PathBuf,
    /// A lease whose worker stays silent this long is requeued (and
    /// its session's connection severed under TCP).
    pub lease_timeout: Duration,
    /// Failed leases before a unit is quarantined as poison.
    pub max_lease_attempts: usize,
    /// Base retry backoff, doubled per failed lease.
    pub retry_backoff: Duration,
    /// Fault injections to run against this service run.
    pub chaos: ChaosPlan,
    /// The worker process command line (argv). Normally the CLI
    /// passes its own executable plus `campaign-worker`; tests
    /// substitute failing commands to exercise quarantine.
    pub worker_cmd: Vec<String>,
}

impl ServiceOptions {
    /// Options with production defaults for the given locations and
    /// worker command.
    pub fn new(state_dir: PathBuf, corpus_dir: PathBuf, worker_cmd: Vec<String>) -> ServiceOptions {
        ServiceOptions {
            workers: 2,
            state_dir,
            corpus_dir,
            lease_timeout: Duration::from_secs(30),
            max_lease_attempts: 3,
            retry_backoff: Duration::from_millis(50),
            chaos: ChaosPlan::default(),
            worker_cmd,
        }
    }
}

/// Operational counters for one service run. Diagnostics only — the
/// merged report never depends on them (that is the determinism
/// contract).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Units in the partition.
    pub units: usize,
    /// Units whose shards came from a previous run's journal.
    pub recovered_units: usize,
    /// Leases granted this run.
    pub leases: usize,
    /// Leases that ended in requeue (death, expiry, torn write,
    /// corrupt or severed connection).
    pub requeues: usize,
    /// Units quarantined as poison.
    pub quarantined_units: usize,
    /// Worker processes spawned.
    pub workers_spawned: usize,
    /// Worker sessions opened (TCP handshakes, or stdio spawns).
    pub sessions: usize,
    /// Sessions resumed by a reconnecting worker.
    pub resumed_sessions: usize,
    /// Corrupt frames rejected at the wire (checksum, prefix, or
    /// protocol parse failures) — each one severs the connection and
    /// costs the unit a lease attempt: a corrupting peer converges to
    /// quarantine, a merely slow peer only ever costs requeues.
    pub corrupt_frames: usize,
    /// Chaos: workers SIGKILLed.
    pub kills_injected: usize,
    /// Chaos: journal writes torn.
    pub torn_injected: usize,
    /// Chaos: wire frames dropped.
    pub net_dropped: usize,
    /// Chaos: wire frames delayed.
    pub net_delayed: usize,
    /// Chaos: wire frames duplicated.
    pub net_duplicated: usize,
    /// Chaos: wire frames corrupted.
    pub net_corrupted: usize,
    /// Chaos: connections severed.
    pub net_severed: usize,
    /// Corrupt/torn journal lines dropped during recovery.
    pub dropped_journal_lines: usize,
}

/// The merged outcome of a service run: an ordinary scheduler-matrix
/// campaign report, or a fault-matrix report when the spec carries
/// fault plans. Either way the bytes are what the corresponding
/// single-process run produces.
#[derive(Clone, Debug)]
pub enum MergedReport {
    /// A scheduler-matrix campaign ([`ServiceSpec::faults`] empty).
    Campaign(CampaignReport),
    /// A fault-plan matrix campaign.
    Faults(FaultCampaignReport),
}

impl MergedReport {
    /// Renders the report as JSON — the same bytes the single-process
    /// `campaign` / `campaign --faults` runner emits.
    pub fn to_json(&self) -> String {
        match self {
            MergedReport::Campaign(r) => r.to_json(),
            MergedReport::Faults(r) => r.to_json(),
        }
    }

    /// The scheduler-matrix report.
    ///
    /// # Panics
    ///
    /// Panics if this run was a fault-matrix campaign.
    pub fn campaign(&self) -> &CampaignReport {
        match self {
            MergedReport::Campaign(r) => r,
            MergedReport::Faults(_) => {
                panic!("fault-matrix outcome has no scheduler-campaign report")
            }
        }
    }
}

/// A finished service run: the merged report plus operational stats
/// and the per-claim summary.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// The merged report — bit-for-bit what a single-process run of
    /// the same spec produces, regardless of the run's crash, retry,
    /// and network-chaos history.
    pub report: MergedReport,
    /// Operational counters (stderr material, never in the report).
    pub stats: ServiceStats,
    /// The per-claim summary (also stored as `summary.json` in the
    /// state directory).
    pub summary: ServiceSummary,
}

enum Event {
    /// A protocol message from session `sid`, read under `epoch`.
    Msg(usize, u64, WorkerMsg),
    /// Session `sid`'s connection (or process) ended under `epoch`.
    Gone(usize, u64),
    /// Session `sid` sent a frame that failed checksum/parse.
    Corrupt(usize, u64),
    /// A new connection completed a handshake read (TCP only).
    Hello(TcpStream, WorkerMsg),
}

enum Link {
    Stdio(ChildStdin),
    Tcp(TcpStream),
}

/// One worker session. Under stdio the session *is* the process; under
/// TCP it is the durable identity a worker resumes by token, and
/// `link`/`epoch` track the current connection (stale readers are
/// identified by their epoch).
struct Session {
    child: Option<Child>,
    link: Option<Link>,
    epoch: u64,
    current: Option<u64>,
    alive: bool,
}

fn service_err(context: &str, reason: impl ToString) -> ModelError {
    ModelError::Service {
        context: context.into(),
        reason: reason.to_string(),
    }
}

fn spawn_stdio_worker(
    opts: &ServiceOptions,
    sid: usize,
    tx: &mpsc::Sender<Event>,
) -> Result<Session, ModelError> {
    let mut child = Command::new(&opts.worker_cmd[0])
        .args(&opts.worker_cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| {
            service_err(&format!("spawning worker `{}`", opts.worker_cmd.join(" ")), e)
        })?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("piped stdout");
    spawn_frame_reader(stdout, None, sid, 0, tx.clone(), None);
    Ok(Session {
        child: Some(child),
        link: stdin.map(Link::Stdio),
        epoch: 0,
        current: None,
        alive: true,
    })
}

fn spawn_tcp_child(opts: &ServiceOptions, tag: u64) -> Result<Child, ModelError> {
    Command::new(&opts.worker_cmd[0])
        .args(&opts.worker_cmd[1..])
        .arg("--tag")
        .arg(tag.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| {
            service_err(&format!("spawning worker `{}`", opts.worker_cmd.join(" ")), e)
        })
}

/// Reads frames off a worker session's read half — a child's stdout,
/// or a handshaken TCP connection whose frames pass through the
/// network-chaos proxy `net` — and turns wire-level failures into
/// typed events: a corrupt frame, or a checksum-valid one that is not
/// protocol JSON, reports [`Event::Corrupt`] and severs `link`; EOF,
/// timeouts, and severed links report [`Event::Gone`].
fn spawn_frame_reader(
    read: impl Read + Send + 'static,
    link: Option<TcpStream>,
    sid: usize,
    epoch: u64,
    tx: mpsc::Sender<Event>,
    net: Option<Arc<Mutex<NetChaos>>>,
) {
    let sever = move || {
        if let Some(stream) = &link {
            let _ = stream.shutdown(Shutdown::Both);
        }
    };
    std::thread::spawn(move || {
        let mut reader = BufReader::new(read);
        loop {
            match read_frame_raw(&mut reader) {
                Ok(None) => break,
                Err(e) if e.is_corrupt() => {
                    sever();
                    let _ = tx.send(Event::Corrupt(sid, epoch));
                    return;
                }
                Err(_) => break,
                Ok(Some(mut body)) => {
                    let action = match &net {
                        Some(chaos) => chaos.lock().expect("chaos lock").next_frame(),
                        None => NetAction::Deliver,
                    };
                    let mut copies = 1;
                    match action {
                        NetAction::Deliver => {}
                        NetAction::Drop => continue,
                        NetAction::Delay(d) => std::thread::sleep(d),
                        NetAction::Dup => copies = 2,
                        NetAction::Corrupt => flip_last(&mut body),
                        NetAction::Sever => {
                            sever();
                            break;
                        }
                    }
                    let msg = verify_frame(&body)
                        .ok()
                        .and_then(|payload| WorkerMsg::parse(&payload).ok());
                    match msg {
                        Some(msg) => {
                            for _ in 0..copies {
                                if tx.send(Event::Msg(sid, epoch, msg.clone())).is_err() {
                                    return;
                                }
                            }
                        }
                        None => {
                            sever();
                            let _ = tx.send(Event::Corrupt(sid, epoch));
                            return;
                        }
                    }
                }
            }
        }
        let _ = tx.send(Event::Gone(sid, epoch));
    });
}

/// Runs the full service over the stdio transport: recover, lease,
/// supervise, merge. See [`run_service_with_transport`].
///
/// # Errors
///
/// Same contract as [`run_service_with_transport`].
pub fn run_service(spec: &ServiceSpec, opts: &ServiceOptions) -> Result<ServiceOutcome, ModelError> {
    run_service_with_transport(spec, opts, &Transport::Stdio)
}

/// Runs the full service: recover, lease, supervise over the given
/// transport, merge, summarise.
///
/// # Errors
///
/// [`ModelError::ResumeMismatch`] when the state directory belongs to
/// a different campaign; [`ModelError::Service`] for unrecoverable
/// infrastructure faults (unusable state dir, unjournalable disk,
/// unspawnable workers, a worker fleet that never completes a
/// handshake). Worker deaths, lease expiries, severed or corrupted
/// connections, torn journal writes, and poison units are *handled*,
/// not returned.
pub fn run_service_with_transport(
    spec: &ServiceSpec,
    opts: &ServiceOptions,
    transport: &Transport,
) -> Result<ServiceOutcome, ModelError> {
    let tcp = matches!(transport, Transport::Tcp(_));
    if opts.worker_cmd.is_empty() && !(tcp && opts.workers == 0) {
        return Err(service_err(
            "configuring workers",
            "worker_cmd must name an executable (or pass --workers 0 \
             with --listen for an externally managed fleet)",
        ));
    }
    let start = Instant::now();
    let (mut queue, recovered) = JobQueue::open(&opts.state_dir, COMPACT_EVERY)?;
    match &recovered.spec {
        Some(prev) if prev.identity() != spec.identity() => {
            return Err(ModelError::ResumeMismatch {
                checkpoint: prev.identity(),
                requested: spec.identity(),
            });
        }
        Some(_) => {}
        None => queue.append(&JournalRecord::Init { spec: spec.clone() })?,
    }
    std::fs::create_dir_all(&opts.corpus_dir)
        .map_err(|e| service_err("creating corpus directory", e))?;

    let units: BTreeMap<u64, WorkUnit> =
        spec.partition().into_iter().map(|u| (u.id, u)).collect();
    let mut lease = LeaseManager::new(
        units.keys().copied(),
        opts.max_lease_attempts,
        opts.retry_backoff,
    );
    let mut stats = ServiceStats {
        units: units.len(),
        recovered_units: recovered.shards.len(),
        dropped_journal_lines: recovered.dropped_lines,
        ..ServiceStats::default()
    };
    let mut unit_attempts: BTreeMap<u64, usize> = BTreeMap::new();
    report_rejected(&recovered.rejected);
    for shard in &recovered.shards {
        // Shards for units outside the partition would mean a spec
        // mismatch, which was rejected above.
        lease.mark_done(shard.unit);
    }
    for (unit, attempts) in &recovered.attempts {
        lease.restore_attempts(*unit, *attempts);
        unit_attempts.insert(*unit, *attempts);
    }
    for (unit, reason) in &recovered.quarantined {
        lease.mark_quarantined(*unit, reason);
    }

    let mut chaos = opts.chaos.clone();
    let net = if tcp && chaos.has_net() {
        Some(Arc::new(Mutex::new(chaos.net_chaos())))
    } else {
        None
    };
    // The merge reads what is durable: every settled file, its hash
    // verified, either at open or by the supervision loop.
    // Declared before the shards: the workers are reaped after the
    // closing writes below, which overlap with their exit.
    let mut exiting = Exiting(Vec::new());
    let shards = if lease.all_settled() {
        recovered.shards
    } else {
        drop(recovered.shards);
        supervise(
            spec,
            opts,
            &units,
            &mut lease,
            &mut queue,
            &mut chaos,
            &mut stats,
            &mut unit_attempts,
            net.clone(),
            transport,
            &mut exiting,
        )?
    };
    stats.kills_injected = chaos.kills_fired();
    stats.torn_injected = chaos.torn_fired();
    if let Some(net) = &net {
        let (dropped, delayed, duplicated, corrupted, severed) =
            net.lock().expect("chaos lock").counts();
        stats.net_dropped = dropped;
        stats.net_delayed = delayed;
        stats.net_duplicated = duplicated;
        stats.net_corrupted = corrupted;
        stats.net_severed = severed;
    }

    let quarantined = lease.quarantined();
    stats.quarantined_units = quarantined.len();
    let quarantined_runs: usize = quarantined
        .iter()
        .filter_map(|(id, _)| units.get(id).map(|u| u.runs))
        .sum();
    queue.compact(spec, &[], &lease.pending_attempts(), &quarantined)?;
    let report = if spec.faults.is_empty() {
        MergedReport::Campaign(merge_report(&spec.config, &shards, quarantined_runs))
    } else {
        MergedReport::Faults(merge_fault_report(&spec.config, &spec.faults, &shards))
    };
    let coverage = match &report {
        MergedReport::Campaign(r) => r.distinct_configs,
        // Fault runs do not fingerprint configurations.
        MergedReport::Faults(_) => 0,
    };
    let rows = claim_rows(spec, &units, &shards, &unit_attempts, &quarantined, &report);
    let summary = build_summary(
        &spec.identity(),
        if tcp { "tcp" } else { "stdio" },
        start.elapsed().as_millis() as u64,
        &stats,
        opts.workers,
        coverage,
        rows,
    );
    summary.store(&opts.state_dir)?;
    Ok(ServiceOutcome { report, stats, summary })
}

/// Builds the per-claim summary rows: one per row of the spec's matrix
/// (a scheduler, or a fault plan), folding merged sample counts, shard
/// counts, retry/quarantine attrition, and failure counts. Records,
/// units and fault failures are credited to rows by matrix index, so
/// two plans with the same text keep separate rows.
fn claim_rows(
    spec: &ServiceSpec,
    units: &BTreeMap<u64, WorkUnit>,
    shards: &[ShardResult],
    unit_attempts: &BTreeMap<u64, usize>,
    quarantined: &[(u64, String)],
    report: &MergedReport,
) -> Vec<ClaimSummary> {
    let matrix = spec.matrix();
    let mut rows: Vec<ClaimSummary> = matrix
        .labels()
        .into_iter()
        .map(|claim| ClaimSummary {
            claim,
            samples: 0,
            shards: 0,
            retried_units: 0,
            quarantined_units: 0,
            failures: 0,
            visited: 0,
            pruned: 0,
            prefilter_hits: 0,
        })
        .collect();
    let unit_row = |id: &u64| units.get(id).map(|u| matrix.major(u.index_base));
    for index in first_wins(shards, |s| &s.records).into_keys() {
        if let Some(row) = rows.get_mut(matrix.major(index)) {
            row.samples += 1;
        }
    }
    for (index, record) in first_wins(shards, |s| &s.fault_records) {
        if let Some(row) = rows.get_mut(matrix.major(index)) {
            row.samples += 1;
            row.failures += usize::from(record.is_failure());
        }
    }
    for shard in shards {
        if let Some(row) = unit_row(&shard.unit).and_then(|c| rows.get_mut(c)) {
            row.shards += 1;
        }
    }
    for (id, attempts) in unit_attempts {
        if *attempts > 1 {
            if let Some(row) = unit_row(id).and_then(|c| rows.get_mut(c)) {
                row.retried_units += 1;
            }
        }
    }
    for (id, _) in quarantined {
        if let Some(row) = unit_row(id).and_then(|c| rows.get_mut(c)) {
            row.quarantined_units += 1;
        }
    }
    if let MergedReport::Campaign(r) = report {
        for (row, tally) in rows.iter_mut().zip(&r.per_scheduler) {
            row.failures = tally.failures;
            // The reduction tallies come from the merged report's
            // per-scheduler sums, which the merge gate certifies
            // byte-identical to a single-process run.
            row.visited = tally.total_steps;
            row.pruned = tally.pruned;
            row.prefilter_hits = tally.prefilter_hits;
        }
    }
    rows
}

/// The live supervision loop: accept/spawn, assign, heartbeat, reap,
/// retry — over either transport. Once every unit is settled it reads
/// the settled files back for the merge while the fleet is still held:
/// a unit whose file fails its check reopens and runs again on the
/// same workers, since an external TCP fleet leaves at the shutdown.
#[allow(clippy::too_many_arguments)]
fn supervise(
    spec: &ServiceSpec,
    opts: &ServiceOptions,
    units: &BTreeMap<u64, WorkUnit>,
    lease: &mut LeaseManager,
    queue: &mut JobQueue,
    chaos: &mut ChaosPlan,
    stats: &mut ServiceStats,
    unit_attempts: &mut BTreeMap<u64, usize>,
    net: Option<Arc<Mutex<NetChaos>>>,
    transport: &Transport,
    exiting: &mut Exiting,
) -> Result<Vec<ShardResult>, ModelError> {
    let (tx, rx) = mpsc::channel::<Event>();
    let tick = Duration::from_millis(25);
    let accept_done = Arc::new(AtomicBool::new(false));
    let mut local_addr = None;
    if let Transport::Tcp(listener) = transport {
        let addr = listener
            .local_addr()
            .map_err(|e| service_err("tcp listener", e))?;
        let listener = listener
            .try_clone()
            .map_err(|e| service_err("tcp listener", e))?;
        local_addr = Some(addr);
        let tx = tx.clone();
        let done = accept_done.clone();
        std::thread::spawn(move || {
            // Each accepted connection gets its own handshake thread:
            // a peer that never sends a hello times out and is dropped
            // without ever stalling the accept loop.
            for stream in listener.incoming() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let _ = stream.set_read_timeout(Some(IO_DEADLINE));
                    let _ = stream.set_write_timeout(Some(IO_DEADLINE));
                    let Ok(clone) = stream.try_clone() else { return };
                    // One-byte buffer: this reader is dropped after the
                    // hello, and anything it over-read would be lost to
                    // the session reader that takes over the stream.
                    let mut reader = BufReader::with_capacity(1, clone);
                    if let Ok(Some(payload)) = read_frame(&mut reader) {
                        if let Ok(msg @ WorkerMsg::Hello { .. }) = WorkerMsg::parse(&payload) {
                            let _ = tx.send(Event::Hello(stream, msg));
                            return;
                        }
                    }
                    let _ = stream.shutdown(Shutdown::Both);
                });
            }
        });
    }

    let mut sup = Supervisor {
        spec,
        opts,
        units,
        lease,
        queue,
        chaos,
        stats,
        unit_attempts,
        net,
        tx,
        sessions: Vec::new(),
        pending: Vec::new(),
        next_tag: 0,
        prehandshake_deaths: 0,
        tcp: matches!(transport, Transport::Tcp(_)),
        identity: spec.identity(),
    };
    let result = (|| loop {
        sup.keep_fleet()?;
        sup.assign_idle()?;
        sup.commit()?;
        if sup.lease.all_settled() {
            let (shards, rejected) = sup.queue.read_settled();
            if rejected.is_empty() {
                return Ok(shards);
            }
            report_rejected(&rejected);
            for (unit, _) in &rejected {
                sup.lease.reopen(*unit);
            }
            continue;
        }
        match rx.recv_timeout(tick) {
            // Everything that has arrived is handled before the next
            // pass commits it: the slower the disk, the more results
            // share each fsync.
            Ok(event) => {
                sup.handle(event)?;
                while let Ok(event) = rx.try_recv() {
                    sup.handle(event)?;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => sup.expire()?,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(service_err("supervision loop", "event channel disconnected"));
            }
        }
    })();
    exiting.0.extend(sup.finish());
    accept_done.store(true, Ordering::SeqCst);
    if let Some(addr) = local_addr {
        // Unblock the accept loop so its thread exits.
        let _ = TcpStream::connect(addr);
    }
    result
}

struct Supervisor<'a> {
    spec: &'a ServiceSpec,
    opts: &'a ServiceOptions,
    units: &'a BTreeMap<u64, WorkUnit>,
    lease: &'a mut LeaseManager,
    queue: &'a mut JobQueue,
    chaos: &'a mut ChaosPlan,
    stats: &'a mut ServiceStats,
    unit_attempts: &'a mut BTreeMap<u64, usize>,
    net: Option<Arc<Mutex<NetChaos>>>,
    tx: mpsc::Sender<Event>,
    sessions: Vec<Session>,
    /// TCP children spawned but not yet bound to a session, keyed by
    /// the `--tag` they will echo in their hello.
    pending: Vec<(u64, Child)>,
    next_tag: u64,
    prehandshake_deaths: usize,
    tcp: bool,
    identity: String,
}

impl Supervisor<'_> {
    /// Keeps the fleet at strength. Stdio spawns sessions directly;
    /// TCP spawns tagged children and waits for their handshakes,
    /// failing closed if the fleet keeps dying before ever completing
    /// one.
    fn keep_fleet(&mut self) -> Result<(), ModelError> {
        if self.tcp {
            let mut i = 0;
            while i < self.pending.len() {
                if matches!(self.pending[i].1.try_wait(), Ok(Some(_))) {
                    self.pending.remove(i);
                    self.prehandshake_deaths += 1;
                } else {
                    i += 1;
                }
            }
            if self.prehandshake_deaths > 50
                && self.sessions.iter().all(|s| !s.alive)
            {
                return Err(service_err(
                    "tcp worker fleet",
                    "workers keep dying before completing the handshake",
                ));
            }
            let desired = self.opts.workers.min(self.lease.unsettled());
            while self.pending.len()
                + self
                    .sessions
                    .iter()
                    .filter(|s| s.alive && s.child.is_some())
                    .count()
                < desired
            {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.pending.push((tag, spawn_tcp_child(self.opts, tag)?));
                self.stats.workers_spawned += 1;
            }
        } else {
            // One spawn round per loop pass bounds the respawn rate
            // for crash-looping worker commands.
            let desired = self.opts.workers.max(1).min(self.lease.unsettled());
            while self.sessions.iter().filter(|s| s.alive).count() < desired {
                let sid = self.sessions.len();
                self.sessions.push(spawn_stdio_worker(self.opts, sid, &self.tx)?);
                self.stats.workers_spawned += 1;
                self.stats.sessions += 1;
            }
        }
        Ok(())
    }

    /// Group commit: makes every journal record and staged shard
    /// written since the last commit durable with one
    /// [`JobQueue::sync`], then compacts when due.
    fn commit(&mut self) -> Result<(), ModelError> {
        self.queue.sync()?;
        // The status lists cost a walk over the units: build them only
        // when a compaction is due, not on every result.
        if self.queue.compaction_due() {
            self.queue.compact(
                self.spec,
                &[],
                &self.lease.pending_attempts(),
                &self.lease.quarantined(),
            )?;
        }
        Ok(())
    }

    /// Hands the next available units to idle linked sessions.
    fn assign_idle(&mut self) -> Result<(), ModelError> {
        let now = Instant::now();
        for sid in 0..self.sessions.len() {
            {
                let sess = &self.sessions[sid];
                if !sess.alive || sess.current.is_some() || sess.link.is_none() {
                    continue;
                }
            }
            let Some(unit_id) = self.lease.next_available(now) else {
                break;
            };
            let attempt = self.lease.lease(unit_id, sid, now);
            self.stats.leases += 1;
            let slot = self.unit_attempts.entry(unit_id).or_insert(0);
            *slot = (*slot).max(attempt);
            let payload = CoordMsg::Lease {
                unit: self.units[&unit_id].clone(),
                state_dir: self.opts.state_dir.display().to_string(),
                corpus_dir: self.opts.corpus_dir.display().to_string(),
                heartbeat_ms: HEARTBEAT_INTERVAL.as_millis() as u64,
            }
            .to_json();
            // The frame goes out before the lease line is written; the
            // next commit makes the line durable. A crash before that
            // loses the lease either way, and the unit's result or
            // requeue is journaled after it.
            let sess = &mut self.sessions[sid];
            let sent = match &mut sess.link {
                Some(Link::Stdio(stdin)) => write_frame(stdin, &payload).is_ok(),
                Some(Link::Tcp(stream)) => {
                    chaos_send(stream, &payload, self.net.as_deref()).is_ok()
                }
                None => unreachable!("idle sessions are filtered for a link"),
            };
            self.queue.write(&JournalRecord::Lease { unit: unit_id, attempt })?;
            let sess = &mut self.sessions[sid];
            match &mut sess.link {
                Some(Link::Stdio(_)) => {
                    if sent {
                        sess.current = Some(unit_id);
                    } else {
                        // The worker died before taking the lease:
                        // treat as a normal death so the unit requeues
                        // with an attempt consumed (a crash-looping
                        // worker command must converge to quarantine,
                        // not spin forever).
                        sess.alive = false;
                        sess.link = None;
                        if let Some(child) = &mut sess.child {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                        for ev in
                            self.lease.worker_died(sid, now, "worker died before lease")
                        {
                            journal_lease_event(self.queue, self.stats, &ev)?;
                        }
                    }
                }
                Some(Link::Tcp(stream)) => {
                    // The lease stands even if the frame is lost
                    // (chaos drop, dead link): expiry requeues it.
                    sess.current = Some(unit_id);
                    if !sent {
                        let _ = stream.shutdown(Shutdown::Both);
                        sess.link = None;
                    }
                }
                None => unreachable!("the link was matched above"),
            }
        }
        Ok(())
    }

    fn handle(&mut self, event: Event) -> Result<(), ModelError> {
        match event {
            // A session the coordinator killed was charged for its
            // lease at the kill; whatever its reader still delivers (a
            // beat, or a result flushed before the signal landed) is
            // stale and must not also complete or refresh the unit.
            Event::Msg(sid, epoch, _)
                if self
                    .sessions
                    .get(sid)
                    .is_some_and(|s| !s.alive && s.epoch != epoch) =>
            {
                Ok(())
            }
            Event::Msg(sid, _epoch, WorkerMsg::Heartbeat { unit }) => {
                self.lease.heartbeat(unit, Instant::now());
                if self.chaos.take_kill(unit) {
                    self.chaos_kill(sid, unit)?;
                }
                Ok(())
            }
            Event::Msg(sid, _epoch, WorkerMsg::Result { unit, shard }) => {
                self.handle_result(sid, unit, shard)
            }
            // A hello on an established link is not a protocol state
            // we recognise; drop it (handshakes arrive as Event::Hello).
            Event::Msg(_, _, WorkerMsg::Hello { .. }) => Ok(()),
            Event::Gone(sid, epoch) => self.handle_gone(sid, epoch),
            Event::Corrupt(sid, epoch) => self.handle_corrupt(sid, epoch),
            Event::Hello(stream, msg) => self.handle_hello(stream, msg),
        }
    }

    /// A chaos `kill@unit` fired on this heartbeat. A coordinator-spawned
    /// worker is SIGKILLed and its session ends here, charging the lease
    /// attempt exactly once: the epoch bump makes the reader's later
    /// `Gone`, and any result frame already in flight, stale. An
    /// externally managed TCP worker has its connection severed and
    /// the attempt charged; its session stays open for a reconnect.
    fn chaos_kill(&mut self, sid: usize, unit: u64) -> Result<(), ModelError> {
        let now = Instant::now();
        let Some(sess) = self.sessions.get_mut(sid) else { return Ok(()) };
        if let Some(Link::Tcp(stream)) = sess.link.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        sess.epoch += 1;
        sess.current = None;
        let events = match &mut sess.child {
            Some(child) => {
                let _ = child.kill();
                let _ = child.wait();
                sess.alive = false;
                self.lease.worker_died(sid, now, "killed by chaos")
            }
            None => self
                .lease
                .fail_lease(unit, now, "killed by chaos")
                .into_iter()
                .collect(),
        };
        for ev in events {
            journal_lease_event(self.queue, self.stats, &ev)?;
        }
        Ok(())
    }

    fn handle_result(
        &mut self,
        sid: usize,
        unit: u64,
        shard: ShardResult,
    ) -> Result<(), ModelError> {
        let now = Instant::now();
        if let Some(sess) = self.sessions.get_mut(sid) {
            if sess.current == Some(unit) {
                sess.current = None;
            }
        }
        // The worker gets its next unit before this one's shard is
        // made durable, so it runs while the coordinator commits. The
        // unit is still leased here, so it cannot be handed out again.
        self.assign_idle()?;
        if self.chaos.take_torn(unit) {
            // Injected power loss mid-append: the settled file lands
            // but its journal line is torn, so the unit is not settled
            // and is requeued — it must be re-earned through
            // recovery-real paths.
            self.queue.torn_append(&JournalRecord::Result { shard })?;
            if let Some(ev) = self.lease.fail_lease(unit, now, "journal write torn") {
                journal_lease_event(self.queue, self.stats, &ev)?;
            }
        } else if self.lease.complete(unit) {
            // Staged only: the next commit settles it.
            self.queue.write(&JournalRecord::Result { shard })?;
        }
        // A duplicate result (crash/retry race, chaos dup) falls
        // through silently: determinism makes it identical to the one
        // already journaled.
        Ok(())
    }

    fn handle_gone(&mut self, sid: usize, epoch: u64) -> Result<(), ModelError> {
        let now = Instant::now();
        let Some(sess) = self.sessions.get_mut(sid) else { return Ok(()) };
        if sess.epoch != epoch || !sess.alive {
            return Ok(());
        }
        if self.tcp {
            // A dropped connection is not a dead session: the worker
            // may reconnect and resume within its lease window. Only a
            // dead *process* (for coordinator-spawned workers) ends
            // the session here; external sessions end via lease expiry.
            sess.link = None;
            let exited = match &mut sess.child {
                Some(child) => !matches!(child.try_wait(), Ok(None)),
                None => false,
            };
            if !exited {
                return Ok(());
            }
            if let Some(child) = &mut sess.child {
                let _ = child.wait();
            }
        } else if let Some(child) = &mut sess.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        sess.alive = false;
        sess.current = None;
        sess.link = None;
        for ev in self.lease.worker_died(sid, now, "worker process died") {
            journal_lease_event(self.queue, self.stats, &ev)?;
        }
        Ok(())
    }

    /// A corrupt frame severs the connection and consumes a lease
    /// attempt — the "corrupt peer" path, distinct from the "slow
    /// peer" path (expiry/requeue): a peer that keeps corrupting
    /// converges to quarantine.
    fn handle_corrupt(&mut self, sid: usize, epoch: u64) -> Result<(), ModelError> {
        let now = Instant::now();
        let Some(sess) = self.sessions.get_mut(sid) else { return Ok(()) };
        if sess.epoch != epoch || !sess.alive {
            return Ok(());
        }
        self.stats.corrupt_frames += 1;
        sess.link = None;
        if self.tcp {
            // The session survives (the worker may reconnect with a
            // clean link), but the unit pays an attempt.
            sess.epoch += 1;
            if let Some(unit) = sess.current.take() {
                if let Some(ev) =
                    self.lease.fail_lease(unit, now, "corrupt frame from worker")
                {
                    journal_lease_event(self.queue, self.stats, &ev)?;
                }
            }
        } else {
            sess.alive = false;
            sess.current = None;
            if let Some(child) = &mut sess.child {
                let _ = child.kill();
                let _ = child.wait();
            }
            for ev in self.lease.worker_died(sid, now, "corrupt frame from worker") {
                journal_lease_event(self.queue, self.stats, &ev)?;
            }
        }
        Ok(())
    }

    /// Validates a TCP handshake: version and spec-id mismatches are
    /// rejected fatally (fail closed), an unknown or expired session
    /// token is rejected non-fatally (the worker retries fresh), and a
    /// valid token resumes the session — reclaiming its leased unit
    /// without burning an attempt.
    fn handle_hello(&mut self, stream: TcpStream, msg: WorkerMsg) -> Result<(), ModelError> {
        let WorkerMsg::Hello { version, session, spec_id, tag } = msg else {
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(());
        };
        let reject = |stream: &TcpStream, reason: String, fatal: bool| {
            if let Ok(mut w) = stream.try_clone() {
                let _ = write_frame(&mut w, &CoordMsg::Reject { reason, fatal }.to_json());
            }
            let _ = stream.shutdown(Shutdown::Both);
        };
        if version != PROTO_VERSION {
            reject(
                &stream,
                format!("protocol version {version} != {PROTO_VERSION}"),
                true,
            );
            return Ok(());
        }
        if let Some(id) = &spec_id {
            if *id != self.identity {
                reject(&stream, format!("campaign spec mismatch: worker ran `{id}`"), true);
                return Ok(());
            }
        }
        match session {
            Some(token) => {
                let sid = usize::try_from(token).unwrap_or(usize::MAX);
                if !self.sessions.get(sid).is_some_and(|s| s.alive) {
                    reject(&stream, "unknown or expired session".into(), false);
                    return Ok(());
                }
                let sess = &mut self.sessions[sid];
                if let Some(Link::Tcp(old)) = sess.link.take() {
                    let _ = old.shutdown(Shutdown::Both);
                }
                // New epoch first: anything the old reader still sends
                // is stale by construction.
                sess.epoch += 1;
                if self.welcome_and_link(sid, stream) {
                    self.stats.resumed_sessions += 1;
                }
            }
            None => {
                let sid = self.sessions.len();
                self.sessions.push(Session {
                    child: None,
                    link: None,
                    epoch: 0,
                    current: None,
                    alive: true,
                });
                if self.welcome_and_link(sid, stream) {
                    self.stats.sessions += 1;
                    self.prehandshake_deaths = 0;
                    if let Some(tag) = tag {
                        if let Some(pos) =
                            self.pending.iter().position(|(t, _)| *t == tag)
                        {
                            self.sessions[sid].child = Some(self.pending.remove(pos).1);
                        }
                    }
                } else {
                    // The welcome never reached the worker: the
                    // session was never established on their side.
                    self.sessions[sid].alive = false;
                }
            }
        }
        Ok(())
    }

    /// Sends the welcome (bypassing chaos: handshakes are control
    /// plane) and installs the connection as the session's link.
    /// Returns false if the welcome could not be delivered.
    fn welcome_and_link(&mut self, sid: usize, stream: TcpStream) -> bool {
        let payload = CoordMsg::Welcome {
            version: PROTO_VERSION,
            spec_id: self.identity.clone(),
            session: sid as u64,
            lease_timeout_ms: self.opts.lease_timeout.as_millis().max(1) as u64,
        }
        .to_json();
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(IO_DEADLINE));
        // Workers are silent while idle (no lease, no heartbeats), so
        // the read deadline is generous; it only catches links whose
        // peer vanished without a FIN.
        let read_deadline = (self.opts.lease_timeout * 2).max(Duration::from_secs(60));
        let _ = stream.set_read_timeout(Some(read_deadline));
        let sent = stream
            .try_clone()
            .ok()
            .and_then(|mut w| write_frame(&mut w, &payload).ok())
            .is_some();
        if !sent {
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        }
        let sess = &mut self.sessions[sid];
        let epoch = sess.epoch;
        let (Ok(read), Ok(link)) = (stream.try_clone(), stream.try_clone()) else {
            let _ = stream.shutdown(Shutdown::Both);
            return false;
        };
        sess.link = Some(Link::Tcp(stream));
        spawn_frame_reader(read, Some(link), sid, epoch, self.tx.clone(), self.net.clone());
        true
    }

    /// Lease expiry. Stdio kills the silent worker and lets the
    /// reader's EOF path requeue; TCP severs the connection (closing
    /// the resumption window) and requeues directly — an external
    /// session may later reconnect fresh, but the lease attempt is
    /// spent.
    fn expire(&mut self) -> Result<(), ModelError> {
        let now = Instant::now();
        for (unit, sid) in self.lease.expired(now, self.opts.lease_timeout) {
            let Some(sess) = self.sessions.get_mut(sid) else { continue };
            if self.tcp {
                if let Some(Link::Tcp(stream)) = sess.link.take() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                sess.epoch += 1;
                if sess.current == Some(unit) {
                    sess.current = None;
                }
                if let Some(child) = &mut sess.child {
                    let _ = child.kill();
                    let _ = child.wait();
                    sess.alive = false;
                }
                if let Some(ev) = self.lease.fail_lease(unit, now, "lease expired") {
                    journal_lease_event(self.queue, self.stats, &ev)?;
                }
            } else if sess.alive {
                if let Some(child) = &mut sess.child {
                    let _ = child.kill();
                }
            }
        }
        Ok(())
    }

    /// All settled: release the fleet. Shutdown frames bypass chaos —
    /// tearing the run down must always converge. Returns the child
    /// processes, told to exit (or killed) but not yet reaped.
    fn finish(&mut self) -> Vec<Child> {
        for sess in &mut self.sessions {
            let sent = sess.alive
                && match &mut sess.link {
                    Some(Link::Stdio(stdin)) => {
                        write_frame(stdin, &CoordMsg::Shutdown.to_json()).is_ok()
                    }
                    Some(Link::Tcp(stream)) => {
                        write_frame(stream, &CoordMsg::Shutdown.to_json()).is_ok()
                    }
                    None => false,
                };
            sess.link = None;
            if let Some(child) = &mut sess.child {
                if !sent {
                    let _ = child.kill();
                }
            }
        }
        for (_tag, child) in &mut self.pending {
            let _ = child.kill();
        }
        let sessions = self.sessions.iter_mut().filter_map(|s| s.child.take());
        sessions.chain(self.pending.drain(..).map(|(_, c)| c)).collect()
    }
}

/// Worker processes told to exit. Dropping it waits for each, so they
/// exit side by side and beside the coordinator's closing writes.
struct Exiting(Vec<Child>);

impl Drop for Exiting {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.wait();
        }
    }
}

/// Says on stderr which settled files failed their check: those units
/// run again, and their files are never merged.
fn report_rejected(rejected: &[(u64, String)]) {
    for (unit, why) in rejected {
        eprintln!("service: unit {unit} runs again: {why}");
    }
}

fn journal_lease_event(
    queue: &mut JobQueue,
    stats: &mut ServiceStats,
    event: &LeaseEvent,
) -> Result<(), ModelError> {
    match event {
        LeaseEvent::Requeued { unit, attempt, reason } => {
            stats.requeues += 1;
            queue.append(&JournalRecord::Requeue {
                unit: *unit,
                attempt: *attempt,
                reason: reason.clone(),
            })
        }
        LeaseEvent::Quarantined { unit, reason } => {
            queue.append(&JournalRecord::Quarantine {
                unit: *unit,
                reason: reason.clone(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, SchedulerSpec};
    use crate::service::proto::encode_frame;

    fn tiny_spec() -> ServiceSpec {
        ServiceSpec {
            system: vec![
                ("kind".into(), "campaign".into()),
                ("protocol".into(), "racing".into()),
            ],
            config: CampaignConfig {
                schedulers: vec![SchedulerSpec::RoundRobin],
                seed_start: 0,
                runs: 2,
                budget: 100,
                threads: 1,
            },
            unit_runs: 1,
            faults: Vec::new(),
        }
    }

    fn dirs(tag: &str) -> (PathBuf, PathBuf) {
        let base = std::env::temp_dir()
            .join(format!("rsim-coord-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        (base.join("state"), base.join("corpus"))
    }

    /// Workers that die instantly must drive every unit to quarantine
    /// — never hang, never spin forever — and the report must say so.
    #[test]
    fn crash_looping_workers_quarantine_all_units() {
        let (state, corpus) = dirs("quarantine");
        let mut opts = ServiceOptions::new(
            state.clone(),
            corpus,
            vec!["sh".into(), "-c".into(), "exit 1".into()],
        );
        opts.workers = 2;
        opts.max_lease_attempts = 2;
        opts.retry_backoff = Duration::from_millis(1);
        let outcome = run_service(&tiny_spec(), &opts).unwrap();
        assert_eq!(outcome.stats.quarantined_units, 2);
        assert_eq!(outcome.report.campaign().total_runs, 0);
        assert_eq!(outcome.report.campaign().skipped_runs, 2);
        let report = outcome.report.campaign();
        let notice = report.truncation.as_deref().unwrap();
        assert!(notice.contains("quarantined"), "notice: {notice}");
        // The summary mirrors the attrition.
        assert_eq!(outcome.summary.transport, "stdio");
        assert_eq!(outcome.summary.claims.len(), 1);
        assert_eq!(outcome.summary.claims[0].quarantined_units, 2);
        assert_eq!(outcome.summary.claims[0].samples, 0);
        // Quarantine state is durable: a rerun does not retry poison
        // units, it converges immediately to the same report.
        let rerun = run_service(&tiny_spec(), &opts).unwrap();
        assert_eq!(rerun.report.to_json(), outcome.report.to_json());
        assert_eq!(rerun.stats.leases, 0, "poison units are not re-leased");
        let _ = std::fs::remove_dir_all(state.parent().unwrap());
    }

    /// A state directory from one campaign refuses a different one.
    #[test]
    fn mismatched_state_dir_fails_closed() {
        let (state, corpus) = dirs("mismatch");
        let mut opts = ServiceOptions::new(
            state.clone(),
            corpus,
            vec!["sh".into(), "-c".into(), "exit 1".into()],
        );
        opts.max_lease_attempts = 1;
        opts.retry_backoff = Duration::from_millis(1);
        run_service(&tiny_spec(), &opts).unwrap();
        let mut other = tiny_spec();
        other.config.runs = 3;
        match run_service(&other, &opts) {
            Err(ModelError::ResumeMismatch { checkpoint, requested }) => {
                assert!(checkpoint.contains("seeds=0+2"), "{checkpoint}");
                assert!(requested.contains("seeds=0+3"), "{requested}");
            }
            other => panic!("expected ResumeMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(state.parent().unwrap());
    }

    /// `kill@unit` charges exactly one attempt even when the worker's
    /// result frame is already in the pipe as the signal lands. This
    /// worker writes its beat and its result in one atomic pipe write,
    /// so the coordinator always reads the result after it has killed
    /// the sender: the result must be dropped, not complete the unit.
    #[test]
    fn chaos_kill_charges_one_attempt_with_the_result_in_flight() {
        let (state, corpus) = dirs("killrace");
        let base = state.parent().unwrap().to_path_buf();
        std::fs::create_dir_all(&base).unwrap();
        let shard = ShardResult {
            unit: 0,
            records: Vec::new(),
            fault_records: Vec::new(),
            fingerprints: Vec::new(),
            degraded_runs: 0,
            cache_truncated: false,
        };
        let burst = base.join("burst");
        std::fs::write(
            &burst,
            encode_frame(&WorkerMsg::Heartbeat { unit: 0 }.to_json())
                + &encode_frame(&WorkerMsg::Result { unit: 0, shard }.to_json()),
        )
        .unwrap();
        // Wait for the lease, burst, then idle until stdin closes.
        let script = format!(
            "head -c 1 >/dev/null; cat '{}'; exec cat >/dev/null",
            burst.display()
        );
        let mut opts = ServiceOptions::new(state, corpus, vec!["sh".into(), "-c".into(), script]);
        opts.workers = 1;
        opts.retry_backoff = Duration::from_millis(1);
        opts.chaos = ChaosPlan::parse("kill@unit:0").unwrap();
        let mut spec = tiny_spec();
        spec.config.runs = 1;
        let outcome = run_service(&spec, &opts).unwrap();
        assert_eq!(outcome.stats.kills_injected, 1);
        assert_eq!((outcome.stats.leases, outcome.stats.requeues), (2, 1));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn empty_worker_cmd_is_a_structured_error() {
        let (state, corpus) = dirs("emptycmd");
        let opts = ServiceOptions::new(state.clone(), corpus, Vec::new());
        assert!(matches!(
            run_service(&tiny_spec(), &opts),
            Err(ModelError::Service { .. })
        ));
        let _ = std::fs::remove_dir_all(state.parent().unwrap());
    }

    /// `--workers 0` is only meaningful with a TCP listener (external
    /// fleet); over stdio it still requires a worker command.
    #[test]
    fn tcp_with_zero_workers_needs_no_worker_cmd() {
        let (state, corpus) = dirs("external");
        // All units already settled is the trivial case: no listener
        // traffic needed, the run merges what recovery found (nothing)
        // and quarantines nothing — but with zero workers and no
        // external connections the supervision loop would wait
        // forever, so use a spec with zero units.
        let mut spec = tiny_spec();
        spec.config.runs = 0;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let opts = ServiceOptions {
            workers: 0,
            ..ServiceOptions::new(state.clone(), corpus, Vec::new())
        };
        let outcome =
            run_service_with_transport(&spec, &opts, &Transport::Tcp(listener)).unwrap();
        assert_eq!(outcome.report.campaign().total_runs, 0);
        assert_eq!(outcome.summary.transport, "tcp");
        let _ = std::fs::remove_dir_all(state.parent().unwrap());
    }
}
