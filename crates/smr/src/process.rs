//! Processes: deterministic state machines driven by the scheduler.
//!
//! A process is always *poised* either to perform a base-object
//! operation or to output a value and terminate (paper §2). The runtime
//! asks a process what it is poised to do ([`Process::poised`]), applies
//! the operation to the object, and feeds the response back
//! ([`Process::receive`]).
//!
//! Processes must be cloneable behind `dyn` ([`Process::boxed_clone`])
//! because the revisionist simulation saves, restores, and *locally
//! simulates* process states. A [`crate::system::System`] holds each
//! process behind an `Arc`, so forking a configuration shares every
//! process state; a state is cloned only when a step writes to it.
//!
//! [`SnapshotProcess`] adapts a [`SnapshotProtocol`] — the restricted
//! protocol shape of Assumption 1 in the paper (alternate `scan` and
//! `update` on one snapshot object) — into a full [`Process`].

use crate::object::{ObjectId, Operation, Response};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Identifies a process within a system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub usize);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// What a process will do if allocated a step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Poised {
    /// The process's next step is this base-object operation.
    Step(Operation),
    /// The process has output this value and terminated.
    Output(Value),
}

impl Poised {
    /// The operation, if the process has not terminated.
    pub fn operation(&self) -> Option<&Operation> {
        match self {
            Poised::Step(op) => Some(op),
            Poised::Output(_) => None,
        }
    }

    /// The output value, if the process has terminated.
    pub fn output(&self) -> Option<&Value> {
        match self {
            Poised::Step(_) => None,
            Poised::Output(v) => Some(v),
        }
    }
}

/// A deterministic process state machine.
///
/// `Send + Sync` is required so configurations
/// ([`crate::system::System`]) can migrate between — and frontier
/// slices be shared by — worker threads of the parallel explorer and
/// the campaign runner; process state is plain data (no interior
/// mutability), so in practice every implementation satisfies both
/// automatically.
pub trait Process: fmt::Debug + Send + Sync {
    /// What the process is poised to do in its current state.
    fn poised(&self) -> Poised;

    /// Has the process terminated (is it poised to output)? Must agree
    /// with [`Process::poised`]. The default asks `poised`, which clones
    /// the next operation; implementations that can answer from their
    /// state directly override it, since the runtime asks on every step.
    fn terminated(&self) -> bool {
        matches!(self.poised(), Poised::Output(_))
    }

    /// Delivers the response of the operation the process was poised to
    /// perform, advancing its state.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called on a terminated process or
    /// with a response of the wrong shape; the runtime never does either.
    fn receive(&mut self, resp: Response);

    /// Clones the process state behind `dyn`.
    fn boxed_clone(&self) -> Box<dyn Process>;

    /// Clones the process state straight into the `Arc` a configuration
    /// holds it in. The default copies [`Process::boxed_clone`]'s `Box`
    /// into a new `Arc`; implementations that can, override it with
    /// `Arc::new(self.clone())`, one allocation instead of two.
    fn arc_clone(&self) -> Arc<dyn Process> {
        Arc::from(self.boxed_clone())
    }

    /// A stable textual fingerprint of the process state, used by the
    /// exhaustive explorer to deduplicate configurations. The default is
    /// the `Debug` rendering, which is adequate as long as `Debug` output
    /// captures the full state (derived `Debug` does).
    fn state_key(&self) -> String {
        format!("{self:?}")
    }

    /// Streams exactly the bytes of [`Process::state_key`] into `out`.
    /// The default delegates to `state_key` (allocating but always
    /// consistent); hot-path process types override this to stream the
    /// same bytes with zero allocation. Overrides must write byte-for-
    /// byte what `state_key` returns, or structural configuration
    /// fingerprints would disagree with the legacy string-keyed scheme.
    fn write_state_key(&self, out: &mut dyn fmt::Write) {
        let _ = out.write_str(&self.state_key());
    }
}

impl Clone for Box<dyn Process> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// The outcome of a protocol's scan in the Assumption 1 shape: after
/// every scan a process is poised either to update some component or to
/// output a value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolStep {
    /// Perform `update(component, value)` next.
    Update(usize, Value),
    /// Output `value` and terminate.
    Output(Value),
}

/// A protocol in the shape of Assumption 1: the process alternately
/// performs `scan` and `update` on a single m-component snapshot object,
/// until a scan allows it to output.
///
/// Implementations carry the full local state of the simulated process;
/// [`SnapshotProtocol::on_scan`] consumes a view and decides the next
/// update or the output. The trait requires `Clone` because the
/// revisionist simulation snapshots and rolls back protocol states when
/// revising the past.
pub trait SnapshotProtocol: Clone + fmt::Debug + Send + Sync {
    /// Handles the result of a scan: returns the update the process is
    /// now poised to perform, or its output.
    fn on_scan(&mut self, view: &[Value]) -> ProtocolStep;

    /// The number of snapshot components the protocol uses.
    fn components(&self) -> usize;

    /// Streams exactly the bytes of `format!("{self:?}")` into `out`;
    /// [`SnapshotProcess`] embeds them in its configuration state key.
    /// Hot protocols override this to write the same bytes without
    /// `core::fmt`; an override that writes anything else changes every
    /// fingerprint of the protocol.
    fn write_key(&self, out: &mut dyn fmt::Write) {
        let _ = write!(out, "{self:?}");
    }
}

/// Phase of a [`SnapshotProcess`]: scan → update → scan → … → output.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Phase {
    /// Poised to scan.
    Scan,
    /// Poised to update `(component, value)`.
    Update(usize, Value),
    /// Terminated with an output.
    Done(Value),
}

/// Adapter turning a [`SnapshotProtocol`] into a [`Process`] operating
/// on the snapshot object `object`.
///
/// # Examples
///
/// ```
/// use rsim_smr::object::ObjectId;
/// use rsim_smr::process::{Poised, Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
/// use rsim_smr::value::Value;
///
/// /// Writes its input once, then outputs whatever it scanned.
/// #[derive(Clone, Debug)]
/// struct WriteOnce { input: i64, wrote: bool }
///
/// impl SnapshotProtocol for WriteOnce {
///     fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
///         if self.wrote {
///             ProtocolStep::Output(view[0].clone())
///         } else {
///             self.wrote = true;
///             ProtocolStep::Update(0, Value::Int(self.input))
///         }
///     }
///     fn components(&self) -> usize { 1 }
/// }
///
/// let p = SnapshotProcess::new(WriteOnce { input: 3, wrote: false }, ObjectId(0));
/// assert!(matches!(p.poised(), Poised::Step(_)));
/// ```
#[derive(Clone, Debug)]
pub struct SnapshotProcess<P: SnapshotProtocol> {
    protocol: P,
    object: ObjectId,
    phase: Phase,
}

impl<P: SnapshotProtocol> SnapshotProcess<P> {
    /// Wraps `protocol`, operating on snapshot object `object`. The
    /// process is initially poised to scan (Assumption 1 lets every
    /// process start with a scan).
    pub fn new(protocol: P, object: ObjectId) -> Self {
        SnapshotProcess { protocol, object, phase: Phase::Scan }
    }

    /// The wrapped protocol state.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Has the process terminated?
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done(_))
    }

    /// Writes the derived `Debug` rendering of `self` (the default
    /// `state_key`) without going through `core::fmt`.
    fn write_key(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        use crate::fingerprint::write_u64;
        out.write_str("SnapshotProcess { protocol: ")?;
        self.protocol.write_key(out);
        out.write_str(", object: ObjectId(")?;
        write_u64(out, self.object.0 as u64)?;
        out.write_str("), phase: ")?;
        match &self.phase {
            Phase::Scan => out.write_str("Scan")?,
            Phase::Update(c, v) => {
                out.write_str("Update(")?;
                write_u64(out, *c as u64)?;
                out.write_str(", ")?;
                v.write_key(out)?;
                out.write_str(")")?;
            }
            Phase::Done(v) => {
                out.write_str("Done(")?;
                v.write_key(out)?;
                out.write_str(")")?;
            }
        }
        out.write_str(" }")
    }
}

impl<P: SnapshotProtocol + 'static> Process for SnapshotProcess<P> {
    fn poised(&self) -> Poised {
        match &self.phase {
            Phase::Scan => Poised::Step(Operation::Scan { obj: self.object }),
            Phase::Update(c, v) => Poised::Step(Operation::Update {
                obj: self.object,
                component: *c,
                value: v.clone(),
            }),
            Phase::Done(v) => Poised::Output(v.clone()),
        }
    }

    fn terminated(&self) -> bool {
        self.is_done()
    }

    fn receive(&mut self, resp: Response) {
        match (&self.phase, resp) {
            (Phase::Scan, Response::View(view)) => {
                self.phase = match self.protocol.on_scan(&view) {
                    ProtocolStep::Update(c, v) => Phase::Update(c, v),
                    ProtocolStep::Output(v) => Phase::Done(v),
                };
            }
            (Phase::Update(..), Response::Ack) => {
                self.phase = Phase::Scan;
            }
            (phase, resp) => panic!(
                "SnapshotProcess protocol violation: phase {phase:?} got response {resp:?}"
            ),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn arc_clone(&self) -> Arc<dyn Process> {
        Arc::new(self.clone())
    }

    // Zero-allocation stream of the default `state_key` (the derived
    // `Debug` rendering).
    fn write_state_key(&self, out: &mut dyn fmt::Write) {
        let _ = self.write_key(out);
    }
}

/// Drives a [`SnapshotProtocol`] *locally*: scans return the contents of
/// a local copy of the snapshot and updates mutate it. This is exactly
/// what a covering simulator does when it revises the past (paper §4.1:
/// "locally simulate a solo execution of p assuming the contents of M
/// are V").
///
/// Returns the sequence of `(component, value)` updates performed, and
/// the final [`ProtocolStep`] that stopped the run: an update outside
/// `allowed` components, or an output. `None` is returned if `budget`
/// scans elapse first.
///
/// The local snapshot `contents` is mutated in place, so callers can
/// resume a local run.
pub fn run_solo_locally<P: SnapshotProtocol>(
    protocol: &mut P,
    contents: &mut [Value],
    allowed: &dyn Fn(usize) -> bool,
    budget: usize,
) -> Option<(Vec<(usize, Value)>, ProtocolStep)> {
    let mut hidden = Vec::new();
    for _ in 0..budget {
        match protocol.on_scan(contents) {
            ProtocolStep::Update(c, v) => {
                if allowed(c) {
                    contents[c] = v.clone();
                    hidden.push((c, v));
                } else {
                    return Some((hidden, ProtocolStep::Update(c, v)));
                }
            }
            ProtocolStep::Output(v) => return Some((hidden, ProtocolStep::Output(v))),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Countdown {
        remaining: i64,
    }

    impl SnapshotProtocol for Countdown {
        fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
            if self.remaining == 0 {
                ProtocolStep::Output(Value::Int(0))
            } else {
                self.remaining -= 1;
                ProtocolStep::Update(0, Value::Int(self.remaining))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    #[test]
    fn snapshot_process_alternates_scan_update() {
        let mut p = SnapshotProcess::new(Countdown { remaining: 2 }, ObjectId(0));
        // scan
        assert!(matches!(
            p.poised(),
            Poised::Step(Operation::Scan { .. })
        ));
        p.receive(Response::View(vec![Value::Nil].into()));
        // update
        assert!(matches!(
            p.poised(),
            Poised::Step(Operation::Update { component: 0, .. })
        ));
        p.receive(Response::Ack);
        // scan again
        assert!(matches!(p.poised(), Poised::Step(Operation::Scan { .. })));
        p.receive(Response::View(vec![Value::Int(1)].into()));
        p.receive(Response::Ack);
        p.receive(Response::View(vec![Value::Int(0)].into()));
        assert_eq!(p.poised(), Poised::Output(Value::Int(0)));
        assert!(p.is_done());
    }

    #[test]
    fn boxed_clone_preserves_state() {
        let mut p = SnapshotProcess::new(Countdown { remaining: 1 }, ObjectId(0));
        p.receive(Response::View(vec![Value::Nil].into()));
        let q = p.boxed_clone();
        assert_eq!(p.poised(), q.poised());
        assert_eq!(p.poised(), p.arc_clone().poised());
    }

    #[test]
    fn run_solo_locally_stops_at_disallowed_component() {
        #[derive(Clone, Debug)]
        struct TwoComponents {
            step: usize,
        }
        impl SnapshotProtocol for TwoComponents {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                self.step += 1;
                match self.step {
                    1 => ProtocolStep::Update(0, Value::Int(1)),
                    2 => ProtocolStep::Update(1, Value::Int(2)),
                    _ => ProtocolStep::Output(Value::Int(9)),
                }
            }
            fn components(&self) -> usize {
                2
            }
        }

        let mut p = TwoComponents { step: 0 };
        let mut contents = vec![Value::Nil, Value::Nil];
        let (hidden, stop) =
            run_solo_locally(&mut p, &mut contents, &|c| c == 0, 100).unwrap();
        assert_eq!(hidden, vec![(0, Value::Int(1))]);
        assert_eq!(stop, ProtocolStep::Update(1, Value::Int(2)));
        // The local snapshot reflects only the allowed (hidden) update.
        assert_eq!(contents, vec![Value::Int(1), Value::Nil]);
    }

    #[test]
    fn run_solo_locally_returns_none_on_budget() {
        #[derive(Clone, Debug)]
        struct Spinner;
        impl SnapshotProtocol for Spinner {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                ProtocolStep::Update(0, Value::Int(1))
            }
            fn components(&self) -> usize {
                1
            }
        }
        let mut p = Spinner;
        let mut contents = vec![Value::Nil];
        assert!(run_solo_locally(&mut p, &mut contents, &|_| true, 10).is_none());
    }

    #[test]
    fn poised_accessors() {
        let step = Poised::Step(Operation::Scan { obj: ObjectId(0) });
        assert!(step.operation().is_some());
        assert!(step.output().is_none());
        let done = Poised::Output(Value::Int(1));
        assert!(done.operation().is_none());
        assert_eq!(done.output(), Some(&Value::Int(1)));
    }
}
