//! A wait-free single-writer snapshot from single-writer registers,
//! after Afek, Attiya, Dolev, Gafni, Merritt, and Shavit (the paper's
//! citation \[2\]).
//!
//! The paper's real system *assumes* an atomic single-writer snapshot
//! `H`. This module discharges that assumption: it implements the
//! classic construction from single-writer registers and verifies
//! linearizability with the Wing–Gong checker under adversarial
//! interleavings.
//!
//! Construction (register `R_i` is written only by `p_i` and holds
//! `(value, seq, view)`):
//!
//! * `update_i(v)`: perform an embedded `scan`, then write
//!   `(v, seq_i + 1, scan result)` to `R_i`.
//! * `scan()`: repeatedly *collect* (read all registers one step at a
//!   time). Two identical consecutive collects → return their values (a
//!   direct scan). If some process is seen to move twice (its `seq`
//!   advanced in two different collect gaps), return its embedded view
//!   (a borrowed scan) — that view was taken inside our interval.
//!
//! Every read and write is one atomic step, so wait-freedom and step
//! complexity are observable: a scan finishes within `(n + 2)·n` reads.

use rsim_smr::history::{History, OpId};
use rsim_smr::object::{Object, ObjectId, Operation, Response};
use rsim_smr::value::Value;

/// The content of one single-writer register in the construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegVal {
    /// The component value.
    pub value: Value,
    /// The writer's write counter.
    pub seq: u64,
    /// The writer's embedded scan (its view at its last update).
    pub view: Vec<Value>,
}

impl RegVal {
    fn initial(n: usize) -> Self {
        RegVal { value: Value::Nil, seq: 0, view: vec![Value::Nil; n] }
    }
}

/// A high-level operation on the implemented snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SwsOp {
    /// `update_i(value)` (the component is the caller's own index).
    Update(Value),
    /// `scan()`.
    Scan,
}

/// Outcome of a completed operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SwsOutcome {
    /// `update` acknowledged.
    Ack,
    /// `scan` returned this view.
    View(Vec<Value>),
}

#[derive(Clone, Debug)]
struct Collect {
    regs: Vec<RegVal>,
}

#[derive(Clone, Debug)]
struct ScanState {
    /// The previous full collect, if any.
    prev: Option<Collect>,
    /// The collect being assembled.
    current: Vec<RegVal>,
    /// How many times each process has been seen to move.
    moved: Vec<usize>,
}

#[derive(Clone, Debug)]
enum St {
    Idle,
    /// Scanning (either a client scan or the embedded scan of an
    /// update; `for_update` carries the value to write afterwards).
    Scanning { scan: ScanState, for_update: Option<Value> },
    /// Writing the register (updates only).
    Writing,
}

/// The per-process client of the snapshot-from-registers construction.
#[derive(Clone, Debug)]
pub struct SwsClient {
    i: usize,
    n: usize,
    seq: u64,
    state: St,
    steps: usize,
}

/// A pending atomic step on the register array.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SwsRequest {
    /// Read register `j`.
    Read(usize),
    /// Write the caller's own register.
    Write(RegVal),
}

/// Progress of the client after a delivered step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SwsProgress {
    /// Keep going: ask [`SwsClient::pending_request`] for the next step.
    Continue,
    /// Perform this request next (write after an embedded scan).
    Request(SwsRequest),
    /// The high-level operation completed.
    Done(SwsOutcome),
}

impl SwsClient {
    /// Creates the client for process `i` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn new(i: usize, n: usize) -> Self {
        assert!(i < n);
        SwsClient { i, n, seq: 0, state: St::Idle, steps: 0 }
    }

    /// This client's process index.
    pub fn process(&self) -> usize {
        self.i
    }

    /// Is the client between operations?
    pub fn is_idle(&self) -> bool {
        matches!(self.state, St::Idle)
    }

    /// Steps taken by the current (or last) operation.
    pub fn steps_in_op(&self) -> usize {
        self.steps
    }

    fn fresh_scan(&self) -> ScanState {
        ScanState { prev: None, current: Vec::new(), moved: vec![0; self.n] }
    }

    /// Begins a high-level operation.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in progress.
    pub fn begin(&mut self, op: SwsOp) {
        assert!(self.is_idle(), "operation already in progress");
        self.steps = 0;
        self.state = match op {
            SwsOp::Scan => St::Scanning { scan: self.fresh_scan(), for_update: None },
            SwsOp::Update(v) => {
                St::Scanning { scan: self.fresh_scan(), for_update: Some(v) }
            }
        };
    }

    /// The atomic register step the client is poised to perform
    /// (`None` when idle or when a deferred write is pending at the
    /// driver).
    pub fn pending_request(&self) -> Option<SwsRequest> {
        match &self.state {
            St::Idle | St::Writing => None,
            St::Scanning { scan, .. } => Some(SwsRequest::Read(scan.current.len())),
        }
    }

    /// Delivers the value read by the pending `Read` request.
    ///
    /// # Panics
    ///
    /// Panics if no collect is in progress.
    pub fn deliver_read(&mut self, read: RegVal) -> SwsProgress {
        self.steps += 1;
        let St::Scanning { mut scan, for_update } =
            std::mem::replace(&mut self.state, St::Idle)
        else {
            panic!("deliver_read outside a collect");
        };
        scan.current.push(read);
        if scan.current.len() < self.n {
            self.state = St::Scanning { scan, for_update };
            return SwsProgress::Continue;
        }
        // A collect just completed.
        let current = Collect { regs: std::mem::take(&mut scan.current) };
        if let Some(prev) = &scan.prev {
            if prev.regs == current.regs {
                // Direct scan.
                let view: Vec<Value> =
                    current.regs.iter().map(|r| r.value.clone()).collect();
                return self.finish_scan(view, for_update);
            }
            for j in 0..self.n {
                if prev.regs[j].seq != current.regs[j].seq {
                    scan.moved[j] += 1;
                    if scan.moved[j] >= 2 {
                        // Borrowed scan: p_j's embedded view was taken
                        // entirely within our interval.
                        let view = current.regs[j].view.clone();
                        return self.finish_scan(view, for_update);
                    }
                }
            }
        }
        scan.prev = Some(current);
        self.state = St::Scanning { scan, for_update };
        SwsProgress::Continue
    }

    fn finish_scan(&mut self, view: Vec<Value>, for_update: Option<Value>) -> SwsProgress {
        match for_update {
            None => {
                self.state = St::Idle;
                SwsProgress::Done(SwsOutcome::View(view))
            }
            Some(value) => {
                let req = SwsRequest::Write(RegVal {
                    value,
                    seq: self.seq + 1,
                    view,
                });
                self.state = St::Writing;
                SwsProgress::Request(req)
            }
        }
    }

    /// Acknowledges the deferred register write, completing the update.
    ///
    /// # Panics
    ///
    /// Panics if no write is in progress.
    pub fn deliver_write_ack(&mut self) -> SwsProgress {
        self.steps += 1;
        assert!(matches!(self.state, St::Writing), "no write in progress");
        self.seq += 1;
        self.state = St::Idle;
        SwsProgress::Done(SwsOutcome::Ack)
    }
}

/// The register array plus clients plus a recorded [`History`] against
/// the atomic-snapshot specification, for linearizability checking.
#[derive(Clone, Debug)]
pub struct SwsSystem {
    regs: Vec<RegVal>,
    clients: Vec<SwsClient>,
    pending_write: Vec<Option<SwsRequest>>,
    history: History,
    open_ops: Vec<Option<OpId>>,
}

impl SwsSystem {
    /// Creates an n-process system with all registers ⊥.
    pub fn new(n: usize) -> Self {
        SwsSystem {
            regs: vec![RegVal::initial(n); n],
            clients: (0..n).map(|i| SwsClient::new(i, n)).collect(),
            pending_write: vec![None; n],
            history: History::new(),
            open_ops: vec![None; n],
        }
    }

    /// Is process `i` between operations?
    pub fn is_idle(&self, i: usize) -> bool {
        self.clients[i].is_idle() && self.pending_write[i].is_none()
    }

    /// Steps taken by `i`'s current (or last) operation.
    pub fn steps_in_op(&self, i: usize) -> usize {
        self.clients[i].steps_in_op()
    }

    /// Begins `op` for process `i`, recording its invocation.
    pub fn begin(&mut self, i: usize, op: SwsOp) {
        let abstract_op = match &op {
            SwsOp::Scan => Operation::Scan { obj: ObjectId(0) },
            SwsOp::Update(v) => Operation::Update {
                obj: ObjectId(0),
                component: i,
                value: v.clone(),
            },
        };
        self.open_ops[i] = Some(self.history.invoke(i, abstract_op));
        self.clients[i].begin(op);
    }

    /// Performs one atomic register step for process `i`. Returns the
    /// outcome if the high-level operation completed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is idle.
    pub fn step(&mut self, i: usize) -> Option<SwsOutcome> {
        // A deferred write takes priority.
        if let Some(SwsRequest::Write(rv)) = self.pending_write[i].take() {
            self.regs[i] = rv;
            let progress = self.clients[i].deliver_write_ack();
            return self.absorb(i, progress);
        }
        let req = self.clients[i].pending_request().expect("process is idle");
        match req {
            SwsRequest::Read(j) => {
                let rv = self.regs[j].clone();
                let progress = self.clients[i].deliver_read(rv);
                self.absorb(i, progress)
            }
            SwsRequest::Write(_) => unreachable!("writes are deferred"),
        }
    }

    fn absorb(&mut self, i: usize, progress: SwsProgress) -> Option<SwsOutcome> {
        match progress {
            SwsProgress::Continue => None,
            SwsProgress::Request(req) => {
                self.pending_write[i] = Some(req);
                None
            }
            SwsProgress::Done(outcome) => {
                let op_id = self.open_ops[i].take().expect("operation was open");
                let resp = match &outcome {
                    SwsOutcome::Ack => Response::Ack,
                    SwsOutcome::View(v) => Response::View(v.as_slice().into()),
                };
                self.history.respond(op_id, resp);
                Some(outcome)
            }
        }
    }

    /// Runs process `i` to completion with no interleaving.
    pub fn run_to_completion(&mut self, i: usize) -> SwsOutcome {
        loop {
            if let Some(out) = self.step(i) {
                return out;
            }
        }
    }

    /// The recorded history against the atomic n-component snapshot.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Checks the recorded history for linearizability.
    pub fn is_linearizable(&self) -> bool {
        let n = self.regs.len();
        rsim_smr::linearizability::check(&self.history, Object::snapshot(n)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sequential_update_then_scan() {
        let mut sys = SwsSystem::new(2);
        sys.begin(0, SwsOp::Update(Value::Int(5)));
        assert_eq!(sys.run_to_completion(0), SwsOutcome::Ack);
        sys.begin(1, SwsOp::Scan);
        match sys.run_to_completion(1) {
            SwsOutcome::View(v) => assert_eq!(v, vec![Value::Int(5), Value::Nil]),
            other => panic!("{other:?}"),
        }
        assert!(sys.is_linearizable());
    }

    #[test]
    fn solo_scan_step_complexity() {
        // Solo scan: two identical collects = 2n reads.
        let n = 4;
        let mut sys = SwsSystem::new(n);
        sys.begin(0, SwsOp::Scan);
        sys.run_to_completion(0);
        assert_eq!(sys.steps_in_op(0), 2 * n);
    }

    #[test]
    fn interleaved_random_runs_are_linearizable() {
        for seed in 0..40 {
            let n = 2 + (seed as usize) % 2; // 2..=3
            let mut sys = SwsSystem::new(n);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut remaining = vec![3usize; n];
            let mut counter = 0i64;
            loop {
                let live: Vec<usize> = (0..n)
                    .filter(|&p| remaining[p] > 0 || !sys.is_idle(p))
                    .collect();
                if live.is_empty() {
                    break;
                }
                let i = live[rng.gen_range(0..live.len())];
                if sys.is_idle(i) {
                    remaining[i] -= 1;
                    counter += 1;
                    let op = if rng.gen_bool(0.5) {
                        SwsOp::Scan
                    } else {
                        SwsOp::Update(Value::Int(counter))
                    };
                    sys.begin(i, op);
                }
                sys.step(i);
            }
            assert!(sys.is_linearizable(), "seed {seed} not linearizable");
        }
    }

    #[test]
    fn borrowed_scan_path_is_exercised_and_correct() {
        // Adversarial schedule forcing p0's scan to observe movement:
        // p1 updates twice during p0's collects.
        let mut sys = SwsSystem::new(2);
        sys.begin(0, SwsOp::Scan);
        // p0 reads R0.
        sys.step(0);
        // p1 completes an update.
        sys.begin(1, SwsOp::Update(Value::Int(1)));
        sys.run_to_completion(1);
        // p0 reads R1 (collect 1 done), then starts collect 2.
        sys.step(0);
        sys.step(0);
        sys.begin(1, SwsOp::Update(Value::Int(2)));
        sys.run_to_completion(1);
        // Let p0 finish.
        let out = sys.run_to_completion(0);
        assert!(matches!(out, SwsOutcome::View(_)));
        assert!(sys.is_linearizable());
    }

    #[test]
    fn wait_freedom_bound_on_scan() {
        // Even with an adversary interleaving updates, a scan finishes
        // within (n + 2) collects: after n + 1 collects some process
        // moved twice.
        let n = 3;
        let mut sys = SwsSystem::new(n);
        let mut rng = StdRng::seed_from_u64(9);
        sys.begin(0, SwsOp::Scan);
        let mut steps = 0;
        let mut counter = 0;
        loop {
            // Adversary: before each p0 step, maybe let p1/p2 update.
            let j = 1 + rng.gen_range(0..2);
            if sys.is_idle(j) && rng.gen_bool(0.7) {
                counter += 1;
                sys.begin(j, SwsOp::Update(Value::Int(counter)));
                sys.run_to_completion(j);
            }
            steps += 1;
            if sys.step(0).is_some() {
                break;
            }
            assert!(steps <= (n + 2) * n, "scan exceeded wait-free bound");
        }
        assert!(sys.is_linearizable());
    }
}
