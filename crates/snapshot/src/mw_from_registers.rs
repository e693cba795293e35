//! An m-component multi-writer snapshot from m multi-writer registers
//! (the other direction of the §2 equivalence: "an m-component
//! snapshot object can also be implemented from m registers").
//!
//! Each register holds a tagged value `(value, writer, seq)`; the tags
//! make the registers ABA-free (every write changes the register —
//! exactly the §5.3 trick), so a **double collect** is a correct scan:
//! if two consecutive collects read equal tagged contents, no write
//! was linearized between the first collect's end and the second's
//! start, and the common contents are a snapshot.
//!
//! * `update(j, v)` — one write step (wait-free).
//! * `scan()` — repeated collects until two agree; non-blocking: only
//!   an infinite sequence of concurrent writes can starve it, and a
//!   scan concurrent with `k` writes finishes within `(k + 2)·m`
//!   reads.
//!
//! The tests drive adversarial interleavings and check the recorded
//! histories with the Wing–Gong linearizability checker against the
//! atomic snapshot specification, and verify that dropping the tags
//! (re-introducing ABA) breaks linearizability.

use rsim_smr::history::{History, OpId};
use rsim_smr::object::{Object, ObjectId, Operation, Response};
use rsim_smr::value::Value;

/// A tagged register value: `(value, writer, seq)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tagged {
    /// The logical value.
    pub value: Value,
    /// The writing process.
    pub writer: usize,
    /// The writer's write counter.
    pub seq: u64,
}

impl Tagged {
    fn initial() -> Self {
        Tagged { value: Value::Nil, writer: usize::MAX, seq: 0 }
    }
}

/// A high-level operation on the implemented snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MwOp {
    /// `update(component, value)`.
    Update(usize, Value),
    /// `scan()`.
    Scan,
}

/// Outcome of a completed operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MwOutcome {
    /// Update acknowledged.
    Ack,
    /// Scan returned this view.
    View(Vec<Value>),
}

#[derive(Clone, Debug)]
enum St {
    Idle,
    /// One-step write pending.
    Write(usize, Value),
    /// Collecting: previous full collect (if any) and the current one.
    Collecting { prev: Option<Vec<Tagged>>, current: Vec<Tagged> },
}

/// Per-process client of the construction.
#[derive(Clone, Debug)]
pub struct MwClient {
    i: usize,
    m: usize,
    seq: u64,
    state: St,
    steps: usize,
    /// When true, tags are omitted (regression mode demonstrating why
    /// ABA breaks the double collect).
    tagged: bool,
}

/// A pending atomic register step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MwRequest {
    /// Read register `j`.
    Read(usize),
    /// Write `(register, tagged value)`.
    Write(usize, Tagged),
}

impl MwClient {
    /// Creates the client for process `i` over `m` registers.
    pub fn new(i: usize, m: usize) -> Self {
        MwClient { i, m, seq: 0, state: St::Idle, steps: 0, tagged: true }
    }

    /// The deliberately broken variant: writes carry no distinguishing
    /// tag, so the double collect can be fooled by ABA.
    pub fn untagged(i: usize, m: usize) -> Self {
        MwClient { tagged: false, ..MwClient::new(i, m) }
    }

    /// Is the client between operations?
    pub fn is_idle(&self) -> bool {
        matches!(self.state, St::Idle)
    }

    /// Steps taken by the current (or last) operation.
    pub fn steps_in_op(&self) -> usize {
        self.steps
    }

    /// Begins an operation.
    ///
    /// # Panics
    ///
    /// Panics if one is in progress or the component is out of range.
    pub fn begin(&mut self, op: MwOp) {
        assert!(self.is_idle(), "operation already in progress");
        self.steps = 0;
        self.state = match op {
            MwOp::Update(j, v) => {
                assert!(j < self.m, "component out of range");
                St::Write(j, v)
            }
            MwOp::Scan => St::Collecting { prev: None, current: Vec::new() },
        };
    }

    /// The pending atomic register step.
    pub fn pending_request(&self) -> Option<MwRequest> {
        match &self.state {
            St::Idle => None,
            St::Write(j, v) => {
                let tag = if self.tagged {
                    Tagged { value: v.clone(), writer: self.i, seq: self.seq + 1 }
                } else {
                    Tagged { value: v.clone(), writer: 0, seq: 0 }
                };
                Some(MwRequest::Write(*j, tag))
            }
            St::Collecting { current, .. } => Some(MwRequest::Read(current.len())),
        }
    }

    /// Delivers the result of the pending step. Returns the outcome if
    /// the high-level operation completed.
    ///
    /// # Panics
    ///
    /// Panics on a mismatched delivery.
    pub fn deliver(&mut self, read: Option<Tagged>) -> Option<MwOutcome> {
        self.steps += 1;
        match std::mem::replace(&mut self.state, St::Idle) {
            St::Write(..) => {
                assert!(read.is_none(), "write got a read result");
                self.seq += 1;
                Some(MwOutcome::Ack)
            }
            St::Collecting { prev, mut current } => {
                current.push(read.expect("read result"));
                if current.len() < self.m {
                    self.state = St::Collecting { prev, current };
                    return None;
                }
                if prev.as_ref() == Some(&current) {
                    let view = current.into_iter().map(|t| t.value).collect();
                    return Some(MwOutcome::View(view));
                }
                self.state =
                    St::Collecting { prev: Some(current), current: Vec::new() };
                None
            }
            St::Idle => panic!("deliver on idle client"),
        }
    }
}

/// The register array plus clients plus a recorded history for the
/// linearizability checker.
#[derive(Clone, Debug)]
pub struct MwSystem {
    regs: Vec<Tagged>,
    clients: Vec<MwClient>,
    history: History,
    open_ops: Vec<Option<OpId>>,
    m: usize,
}

impl MwSystem {
    /// Creates a system of `n` processes over `m` registers.
    pub fn new(n: usize, m: usize) -> Self {
        MwSystem {
            regs: vec![Tagged::initial(); m],
            clients: (0..n).map(|i| MwClient::new(i, m)).collect(),
            history: History::new(),
            open_ops: vec![None; n],
            m,
        }
    }

    /// The broken untagged variant (for the ABA regression test).
    pub fn untagged(n: usize, m: usize) -> Self {
        let mut sys = MwSystem::new(n, m);
        sys.clients = (0..n).map(|i| MwClient::untagged(i, m)).collect();
        sys
    }

    /// Is process `i` between operations?
    pub fn is_idle(&self, i: usize) -> bool {
        self.clients[i].is_idle()
    }

    /// Steps taken by `i`'s current (or last) operation.
    pub fn steps_in_op(&self, i: usize) -> usize {
        self.clients[i].steps_in_op()
    }

    /// Begins `op` for process `i`, recording its invocation.
    pub fn begin(&mut self, i: usize, op: MwOp) {
        let abstract_op = match &op {
            MwOp::Scan => Operation::Scan { obj: ObjectId(0) },
            MwOp::Update(j, v) => Operation::Update {
                obj: ObjectId(0),
                component: *j,
                value: v.clone(),
            },
        };
        self.open_ops[i] = Some(self.history.invoke(i, abstract_op));
        self.clients[i].begin(op);
    }

    /// Performs one atomic register step for process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is idle.
    pub fn step(&mut self, i: usize) -> Option<MwOutcome> {
        let req = self.clients[i].pending_request().expect("idle");
        let outcome = match req {
            MwRequest::Read(j) => {
                let t = self.regs[j].clone();
                self.clients[i].deliver(Some(t))
            }
            MwRequest::Write(j, t) => {
                self.regs[j] = t;
                self.clients[i].deliver(None)
            }
        };
        if let Some(out) = &outcome {
            let op_id = self.open_ops[i].take().expect("open");
            let resp = match out {
                MwOutcome::Ack => Response::Ack,
                MwOutcome::View(v) => Response::View(v.as_slice().into()),
            };
            self.history.respond(op_id, resp);
        }
        outcome
    }

    /// Runs process `i` to completion solo.
    pub fn run_to_completion(&mut self, i: usize) -> MwOutcome {
        loop {
            if let Some(out) = self.step(i) {
                return out;
            }
        }
    }

    /// Checks the recorded history for linearizability against the
    /// atomic m-component snapshot.
    pub fn is_linearizable(&self) -> bool {
        rsim_smr::linearizability::check(&self.history, Object::snapshot(self.m)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sequential_semantics() {
        let mut sys = MwSystem::new(2, 3);
        sys.begin(0, MwOp::Update(1, Value::Int(7)));
        assert_eq!(sys.run_to_completion(0), MwOutcome::Ack);
        sys.begin(1, MwOp::Scan);
        match sys.run_to_completion(1) {
            MwOutcome::View(v) => {
                assert_eq!(v, vec![Value::Nil, Value::Int(7), Value::Nil]);
            }
            other => panic!("{other:?}"),
        }
        assert!(sys.is_linearizable());
    }

    #[test]
    fn solo_scan_costs_two_collects() {
        let m = 4;
        let mut sys = MwSystem::new(1, m);
        sys.begin(0, MwOp::Scan);
        sys.run_to_completion(0);
        assert_eq!(sys.steps_in_op(0), 2 * m);
    }

    fn random_drive(sys: &mut MwSystem, n: usize, ops: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut remaining = vec![ops; n];
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
                    MwOp::Scan
                } else {
                    MwOp::Update(rng.gen_range(0..2), Value::Int(counter % 3))
                };
                sys.begin(i, op);
            }
            sys.step(i);
        }
    }

    #[test]
    fn tagged_histories_are_linearizable() {
        for seed in 0..40 {
            let mut sys = MwSystem::new(3, 2);
            random_drive(&mut sys, 3, 3, seed);
            assert!(sys.is_linearizable(), "seed {seed}");
        }
    }

    /// Drives the classic ABA witness against `sys`: p0 scans while p1
    /// issues updates timed so that both of p0's collects read
    /// `[A, C] = [1, 11]` although that pair never co-exists:
    ///
    /// states: (1,10) →u1 (2,10) →u2 (2,11) →u3 (2,12) →u4 (1,12)
    ///         →u5 (3,12) →u6 (3,11).
    ///
    /// p0 reads R0=1 before u1, R1=11 between u2 and u3 (collect 1),
    /// then R0=1 between u4 and u5, R1=11 after u6 (collect 2).
    fn drive_aba_witness(sys: &mut MwSystem) -> MwOutcome {
        let upd = |sys: &mut MwSystem, j: usize, v: i64| {
            sys.begin(1, MwOp::Update(j, Value::Int(v)));
            sys.run_to_completion(1);
        };
        // Initial: R0 = 1 (A), R1 = 10 (B).
        upd(sys, 0, 1);
        upd(sys, 1, 10);
        sys.begin(0, MwOp::Scan);
        sys.step(0); // c1: read R0 = 1 (A)
        upd(sys, 0, 2); // u1: R0 -> X
        upd(sys, 1, 11); // u2: R1 -> C
        sys.step(0); // c1: read R1 = 11 (C); collect1 = [A, C]
        upd(sys, 1, 12); // u3: R1 -> D
        upd(sys, 0, 1); // u4: R0 -> A   (ABA on R0's value!)
        sys.step(0); // c2: read R0 = 1 (A)
        upd(sys, 0, 3); // u5: R0 -> Y
        upd(sys, 1, 11); // u6: R1 -> C   (ABA on R1's value!)
        // c2: read R1 = 11 (C). Untagged: collect2 = [A, C] = collect1.
        let mut last = sys.step(0);
        // Tagged mode keeps collecting (tags differ); let it finish.
        while last.is_none() {
            last = sys.step(0);
        }
        last.unwrap()
    }

    #[test]
    fn untagged_double_collect_is_fooled_by_aba() {
        let mut sys = MwSystem::untagged(2, 2);
        let out = drive_aba_witness(&mut sys);
        // The broken scan returns [1, 11] — a pair that never
        // co-existed in any configuration.
        assert_eq!(out, MwOutcome::View(vec![Value::Int(1), Value::Int(11)]));
        assert!(
            !sys.is_linearizable(),
            "ABA must make the untagged history non-linearizable"
        );
    }

    #[test]
    fn tags_defeat_the_aba_witness() {
        // Same schedule, tagged registers: the second collect differs
        // (fresh sequence numbers), the scan keeps collecting, and the
        // final view is the true current contents [3, 11].
        let mut sys = MwSystem::new(2, 2);
        let out = drive_aba_witness(&mut sys);
        assert_eq!(out, MwOutcome::View(vec![Value::Int(3), Value::Int(11)]));
        assert!(sys.is_linearizable());
    }

    #[test]
    fn scan_retries_under_interleaved_writes_then_completes() {
        let mut sys = MwSystem::new(2, 2);
        sys.begin(0, MwOp::Scan);
        sys.step(0); // read R0
        // A write lands mid-collect.
        sys.begin(1, MwOp::Update(1, Value::Int(5)));
        sys.run_to_completion(1);
        let out = sys.run_to_completion(0);
        // Scan eventually returns and includes the write: 1 concurrent
        // write ⇒ at most (1 + 2) * m = 6 reads.
        assert!(sys.steps_in_op(0) <= 6);
        assert_eq!(out, MwOutcome::View(vec![Value::Nil, Value::Int(5)]));
        assert!(sys.is_linearizable());
    }
}
