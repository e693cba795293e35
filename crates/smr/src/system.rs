//! Configurations and executions of the asynchronous system.
//!
//! A [`System`] is a configuration (paper §2): the state of each process
//! plus the value of each object. [`System::step`] applies the next step
//! of one process atomically — one base-object operation plus the local
//! transition — and appends an [`Event`] to the execution trace.
//!
//! Configurations are copy-on-write: processes, the object slice and
//! the writer restrictions are `Arc`-shared, so a clone copies pointers.
//! A configuration owns one vector of process slots (each an `Arc`'d
//! process and its step count) and one `Arc<[Object]>`. A step computes
//! its [`Successor`] against the shared state and then replaces only the
//! process it stepped and, for a mutating operation, the object it
//! wrote; a read or a scan copies no object at all, and its view shares
//! the snapshot's components with the event and the receiving process
//! (see [`crate::object`]). [`System::step`] copies neither when no
//! other configuration shares it: a campaign's one configuration is
//! stepped in place.
//!
//! Single-writer restrictions (single-writer registers and single-writer
//! snapshots) are configuration-level invariants installed with
//! [`System::restrict_writer`].

use crate::error::ModelError;
use crate::fingerprint::{ConfigHash, FnvStream};
use crate::object::{Object, ObjectId, Operation, Response};
use crate::process::{Poised, Process, ProcessId};
use crate::trace::Trace;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One step of an execution: process `pid` performed `op` and received
/// `resp`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// The process that took the step.
    pub pid: ProcessId,
    /// The operation it performed.
    pub op: Operation,
    /// The response it received.
    pub resp: Response,
}

/// A configuration of the asynchronous system, together with the
/// execution trace that led to it.
///
/// # Examples
///
/// ```
/// use rsim_smr::object::Object;
/// use rsim_smr::system::System;
///
/// let sys = System::new(vec![Object::snapshot(2)], vec![]);
/// assert_eq!(sys.space_complexity(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct System {
    objects: Arc<[Object]>,
    processes: Vec<Slot>,
    trace: Trace,
    /// `(object, component) -> owner` restrictions; `component` is 0 for
    /// plain registers.
    owners: Arc<HashMap<(ObjectId, usize), ProcessId>>,
}

/// One process of a configuration and the steps it has taken.
#[derive(Clone, Debug)]
struct Slot {
    process: Arc<dyn Process>,
    /// Steps taken by the process, maintained on [`System::step`] so
    /// fault triggers and schedulers can read them in O(1) instead of
    /// re-scanning the trace.
    steps: usize,
}

/// The next step of one process, computed against a configuration
/// without forking it ([`System::successor`]): everything the step
/// changes, ready to install with [`System::with_successor`].
#[derive(Clone, Debug)]
pub struct Successor {
    process: Arc<dyn Process>,
    object: Option<Object>,
    event: Event,
}

impl Successor {
    /// The stepped process's new state.
    pub fn process(&self) -> &dyn Process {
        self.process.as_ref()
    }

    /// The object the step wrote, in its new state; `None` for a read
    /// or a scan. Its id is `event().op.object()`.
    pub fn object(&self) -> Option<&Object> {
        self.object.as_ref()
    }

    /// The step itself, as the trace records it.
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// The stepped process's new state, the written object and the
    /// event, by value.
    pub(crate) fn into_parts(self) -> (Arc<dyn Process>, Option<Object>, Event) {
        (self.process, self.object, self.event)
    }
}

impl System {
    /// Creates a system in an initial configuration.
    pub fn new(objects: Vec<Object>, processes: Vec<Box<dyn Process>>) -> Self {
        System {
            objects: objects.into(),
            processes: processes
                .into_iter()
                .map(|p| Slot { process: Arc::from(p), steps: 0 })
                .collect(),
            trace: Trace::new(),
            owners: Arc::default(),
        }
    }

    /// Declares `owner` to be the only process allowed to mutate
    /// `component` of `obj` (use component 0 for a plain register).
    /// Installing ownership for every component of a snapshot makes it a
    /// single-writer snapshot.
    pub fn restrict_writer(&mut self, obj: ObjectId, component: usize, owner: ProcessId) {
        Arc::make_mut(&mut self.owners).insert((obj, component), owner);
    }

    /// The declared single-writer owner of `(obj, component)`, if any.
    /// Components without a declared owner are multi-writer. The
    /// pre-flight analyzer keys its single-writer and happens-before
    /// checks on this.
    pub fn owner_of(&self, obj: ObjectId, component: usize) -> Option<ProcessId> {
        self.owners.get(&(obj, component)).copied()
    }

    /// Number of processes (terminated or not).
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// The objects of the configuration.
    pub fn objects(&self) -> &[Object] {
        &self.objects
    }

    /// The processes of the configuration.
    pub fn process(&self, pid: ProcessId) -> Option<&dyn Process> {
        self.processes.get(pid.0).map(|slot| slot.process.as_ref())
    }

    /// The execution trace from the initial configuration.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Seals the trace's owned suffix into its `Arc`-shared prefix so
    /// subsequent [`System::clone`] calls copy no events at all. The
    /// explorer calls this on its root configuration before forking it
    /// (every configuration [`System::with_successor`] builds comes
    /// sealed); see [`Trace::freeze`].
    pub fn freeze_trace(&mut self) {
        self.trace.freeze();
    }

    /// Steps taken by process `pid` so far (0 for unknown ids).
    pub fn steps_of(&self, pid: ProcessId) -> usize {
        self.processes.get(pid.0).map_or(0, |slot| slot.steps)
    }

    /// Space complexity of the configuration in registers (paper §2: an
    /// m-component snapshot counts as m registers).
    pub fn space_complexity(&self) -> usize {
        self.objects.iter().map(Object::register_cost).sum()
    }

    /// What process `pid` is poised to do next. Processes are
    /// deterministic, so this reveals the exact base-object operation
    /// `pid` would perform if scheduled — the explorer's partial-order
    /// reduction uses it to compute step commutation per configuration.
    pub fn poised(&self, pid: ProcessId) -> Poised {
        self.processes[pid.0].process.poised()
    }

    /// Has process `pid` terminated (is it poised to output)?
    pub fn is_terminated(&self, pid: ProcessId) -> bool {
        self.processes[pid.0].process.terminated()
    }

    /// Have all processes terminated?
    pub fn all_terminated(&self) -> bool {
        self.processes.iter().all(|slot| slot.process.terminated())
    }

    /// The output of process `pid`, if it has terminated.
    pub fn output(&self, pid: ProcessId) -> Option<Value> {
        match self.processes[pid.0].process.poised() {
            Poised::Output(v) => Some(v),
            Poised::Step(_) => None,
        }
    }

    /// Outputs of all terminated processes, indexed by process.
    pub fn outputs(&self) -> Vec<Option<Value>> {
        (0..self.processes.len()).map(|i| self.output(ProcessId(i))).collect()
    }

    fn check_ownership(&self, pid: ProcessId, op: &Operation) -> Result<(), ModelError> {
        if !op.is_mutation() {
            return Ok(());
        }
        let component = match op {
            Operation::Update { component, .. } | Operation::WriteMax { component, .. } => {
                *component
            }
            _ => 0,
        };
        if let Some(owner) = self.owners.get(&(op.object(), component)) {
            if *owner != pid {
                return Err(ModelError::WriterViolation {
                    process: pid.0,
                    component,
                });
            }
        }
        Ok(())
    }

    /// Applies the next step of process `pid` and appends it to the
    /// trace as an [`Event`]; read it back with [`System::trace`]. This
    /// is [`System::successor`] installed in place, except that an
    /// object vector or a process no other configuration shares is
    /// written where it stands instead of being copied.
    ///
    /// # Errors
    ///
    /// As [`System::successor`]; on error the configuration is
    /// unchanged.
    pub fn step(&mut self, pid: ProcessId) -> Result<(), ModelError> {
        let op = self.poised_step(pid)?;
        let id = op.object().0;
        let resp = if !op.is_mutation() {
            self.objects[id].observe(&op)?
        } else if let Some(objects) = Arc::get_mut(&mut self.objects) {
            // `apply` fails before it writes, so an error leaves the
            // object as it was.
            objects[id].apply(&op)?
        } else {
            let mut written = self.objects[id].clone();
            let resp = written.apply(&op)?;
            self.replace_object(id, written);
            resp
        };
        let slot = &mut self.processes[pid.0];
        match Arc::get_mut(&mut slot.process) {
            Some(process) => process.receive(resp.clone()),
            None => slot.process = received(slot.process.as_ref(), resp.clone()),
        }
        slot.steps += 1;
        self.trace.push(Event { pid, op, resp });
        Ok(())
    }

    /// Computes the next step of process `pid` without changing or
    /// forking the configuration: the stepped process, the written
    /// object (if the operation mutates one) and the [`Event`]. Only
    /// the stepped process and the written object are copied; a read
    /// or a scan copies no object.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ProcessTerminated`] if `pid` already output.
    /// * [`ModelError::BadId`] if `pid` or the target object is unknown.
    /// * [`ModelError::WriterViolation`] on single-writer violations.
    /// * [`ModelError::BadOperation`] if the operation does not fit the
    ///   object.
    pub fn successor(&self, pid: ProcessId) -> Result<Successor, ModelError> {
        let op = self.poised_step(pid)?;
        let target = &self.objects[op.object().0];
        let (object, resp) = if op.is_mutation() {
            let mut written = target.clone();
            let resp = written.apply(&op)?;
            (Some(written), resp)
        } else {
            (None, target.observe(&op)?)
        };
        let process = received(self.processes[pid.0].process.as_ref(), resp.clone());
        Ok(Successor { process, object, event: Event { pid, op, resp } })
    }

    /// The operation process `pid` is poised to perform, once it is
    /// known to be allowed: `pid` exists and is live, it owns what it
    /// writes, and the target object exists.
    fn poised_step(&self, pid: ProcessId) -> Result<Operation, ModelError> {
        let current = self
            .processes
            .get(pid.0)
            .ok_or_else(|| ModelError::BadId(format!("no process {pid}")))?;
        let op = match current.process.poised() {
            Poised::Step(op) => op,
            Poised::Output(_) => return Err(ModelError::ProcessTerminated(pid.0)),
        };
        self.check_ownership(pid, &op)?;
        if op.object().0 >= self.objects.len() {
            return Err(ModelError::BadId(format!("no object {}", op.object())));
        }
        Ok(op)
    }

    /// The configuration `next` leads to: a copy-on-write fork of this
    /// one with the step installed. `next` must come from
    /// [`System::successor`] on this configuration. The child's trace
    /// is already sealed, the new event stored inline in its last
    /// segment, so forking the child in turn copies no events.
    pub fn with_successor(&self, next: Successor) -> System {
        let mut child = self.clone();
        let Successor { process, object, event } = next;
        let pid = event.pid.0;
        if let Some(object) = object {
            child.replace_object(event.op.object().0, object);
        }
        let slot = &mut child.processes[pid];
        slot.process = process;
        slot.steps += 1;
        child.trace.push_sealed(event);
        child
    }

    /// Makes this configuration the one of `objects` and `processes`
    /// (each with its step count) reached along `trace`, keeping the
    /// writer restrictions. The object and process blocks are reused
    /// when no other configuration shares them, so refilling one
    /// configuration again and again allocates nothing. This is how the
    /// explorer materializes a configuration it stores as component ids.
    pub(crate) fn assemble<'a>(
        &mut self,
        objects: impl ExactSizeIterator<Item = &'a Object>,
        processes: impl Iterator<Item = (&'a Arc<dyn Process>, usize)>,
        trace: &Trace,
    ) {
        match Arc::get_mut(&mut self.objects) {
            Some(slots) if slots.len() == objects.len() => {
                for (slot, object) in slots.iter_mut().zip(objects) {
                    slot.clone_from(object);
                }
            }
            _ => self.objects = objects.cloned().collect(),
        }
        self.processes.clear();
        self.processes
            .extend(processes.map(|(process, steps)| Slot { process: Arc::clone(process), steps }));
        self.trace.clone_from(trace);
    }

    /// Puts `object` in place of object `id`.
    fn replace_object(&mut self, id: usize, object: Object) {
        match Arc::get_mut(&mut self.objects) {
            Some(objects) => objects[id] = object,
            // Shared with another configuration: copy every object but
            // the one being replaced, into one new block.
            None => {
                let shared = &self.objects;
                self.objects = shared[..id]
                    .iter()
                    .cloned()
                    .chain(std::iter::once(object))
                    .chain(shared[id + 1..].iter().cloned())
                    .collect();
            }
        }
    }

    /// Runs the system under `scheduler` until all processes terminate,
    /// the scheduler returns `None`, or `max_steps` elapse. Returns the
    /// number of steps taken.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`System::step`].
    pub fn run(
        &mut self,
        scheduler: &mut dyn crate::sched::Scheduler,
        max_steps: usize,
    ) -> Result<usize, ModelError> {
        let mut steps = 0;
        while steps < max_steps && !self.all_terminated() {
            let Some(pid) = scheduler.next(self) else {
                break;
            };
            if self.is_terminated(pid) {
                // Terminated processes do nothing when allocated a step
                // (paper §5.1); skip without consuming budget.
                continue;
            }
            self.step(pid)?;
            steps += 1;
        }
        Ok(steps)
    }

    /// Runs process `pid` solo until it terminates or `budget` steps
    /// elapse. Returns its output if it terminated.
    ///
    /// # Errors
    ///
    /// Propagates step errors; returns
    /// [`ModelError::BudgetExhausted`] if the budget runs out.
    pub fn run_solo(&mut self, pid: ProcessId, budget: usize) -> Result<Value, ModelError> {
        for _ in 0..budget {
            if let Some(v) = self.output(pid) {
                return Ok(v);
            }
            self.step(pid)?;
        }
        self.output(pid).ok_or(ModelError::BudgetExhausted {
            budget,
            context: format!("solo run of {pid}"),
        })
    }

    /// The configuration key (object values + process states) as a
    /// string, used by the explorer to deduplicate. Trace is excluded.
    ///
    /// The hot paths use [`System::config_fingerprint`], which hashes
    /// the same bytes without materialising this string; `config_key`
    /// remains the reference encoding the golden regression tests check
    /// the streaming hash against.
    pub fn config_key(&self) -> String {
        use std::fmt::Write;
        let mut key = String::new();
        for o in self.objects.iter() {
            let _ = write!(key, "{o:?};");
        }
        for slot in &self.processes {
            let _ = write!(key, "{};", slot.process.state_key());
        }
        key
    }

    /// Stable 64-bit fingerprint of the configuration (object values +
    /// process states; trace excluded), streamed through FNV-1a with
    /// zero allocation. Bit-identical to
    /// `fingerprint(&self.config_key())`.
    pub fn config_fingerprint(&self) -> u64 {
        let mut h = FnvStream::new();
        self.hash_config(&mut h);
        h.finish()
    }

    /// Are two configurations indistinguishable to every process — same
    /// object values and same process states (paper §2)? Traces may
    /// differ.
    ///
    /// Object values are compared exactly; process states are compared
    /// by streamed 64-bit state fingerprints (no allocation), so a
    /// collision — probability 2⁻⁶⁴ per process pair, the same
    /// fingerprint-identity semantics the campaign key memo relies on —
    /// could equate distinct states.
    pub fn indistinguishable(&self, other: &System) -> bool {
        if self.objects != other.objects
            || self.processes.len() != other.processes.len()
        {
            return false;
        }
        self.processes.iter().zip(&other.processes).all(|(a, b)| {
            let mut ha = FnvStream::new();
            let mut hb = FnvStream::new();
            a.process.write_state_key(&mut ha);
            b.process.write_state_key(&mut hb);
            ha.finish() == hb.finish()
        })
    }
}

/// A copy of `process` that has received `resp`.
fn received(process: &dyn Process, resp: Response) -> Arc<dyn Process> {
    let mut copy = process.arc_clone();
    Arc::get_mut(&mut copy).expect("a fresh clone is unshared").receive(resp);
    copy
}

impl ConfigHash for System {
    /// Streams exactly the bytes of [`System::config_key`]: the `Debug`
    /// rendering of each object and the state key of each process, each
    /// terminated by `;`.
    fn hash_config(&self, h: &mut FnvStream) {
        use std::fmt::Write;
        for o in self.objects.iter() {
            o.hash_config(h);
            let _ = h.write_str(";");
        }
        for slot in &self.processes {
            slot.process.write_state_key(h);
            let _ = h.write_str(";");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{ProtocolStep, SnapshotProcess, SnapshotProtocol};

    #[derive(Clone, Debug)]
    struct WriteAndRead {
        input: i64,
        wrote: bool,
    }

    impl SnapshotProtocol for WriteAndRead {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            if self.wrote {
                ProtocolStep::Output(view[0].clone())
            } else {
                self.wrote = true;
                ProtocolStep::Update(0, Value::Int(self.input))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn small_system() -> System {
        let p0 = SnapshotProcess::new(WriteAndRead { input: 10, wrote: false }, ObjectId(0));
        let p1 = SnapshotProcess::new(WriteAndRead { input: 20, wrote: false }, ObjectId(0));
        System::new(
            vec![Object::snapshot(1)],
            vec![Box::new(p0), Box::new(p1)],
        )
    }

    #[test]
    fn solo_run_terminates() {
        let mut sys = small_system();
        let out = sys.run_solo(ProcessId(0), 100).unwrap();
        assert_eq!(out, Value::Int(10));
        assert!(sys.is_terminated(ProcessId(0)));
        assert!(!sys.is_terminated(ProcessId(1)));
    }

    #[test]
    fn interleaved_run_with_round_robin() {
        let mut sys = small_system();
        let mut sched = crate::sched::RoundRobin::new();
        sys.run(&mut sched, 1000).unwrap();
        assert!(sys.all_terminated());
        // Both wrote before either's final scan in round-robin order:
        // p0 scan, p1 scan, p0 update, p1 update, p0 scan -> sees 20.
        assert_eq!(sys.output(ProcessId(0)), Some(Value::Int(20)));
        assert_eq!(sys.output(ProcessId(1)), Some(Value::Int(20)));
    }

    #[test]
    fn trace_records_events() {
        let mut sys = small_system();
        sys.step(ProcessId(0)).unwrap();
        sys.step(ProcessId(1)).unwrap();
        assert_eq!(sys.trace().len(), 2);
        assert_eq!(sys.trace()[0].pid, ProcessId(0));
        assert!(matches!(sys.trace()[0].op, Operation::Scan { .. }));
    }

    #[test]
    fn stepping_terminated_process_errors() {
        let mut sys = small_system();
        sys.run_solo(ProcessId(0), 100).unwrap();
        assert!(matches!(
            sys.step(ProcessId(0)),
            Err(ModelError::ProcessTerminated(0))
        ));
    }

    #[test]
    fn single_writer_restriction_enforced() {
        let mut sys = small_system();
        sys.restrict_writer(ObjectId(0), 0, ProcessId(1));
        sys.step(ProcessId(0)).unwrap(); // scan is fine
        let err = sys.step(ProcessId(0)).unwrap_err(); // update violates
        assert!(matches!(err, ModelError::WriterViolation { .. }));
    }

    #[test]
    fn clone_forks_configuration() {
        let mut sys = small_system();
        sys.step(ProcessId(0)).unwrap();
        let fork = sys.clone();
        assert!(sys.indistinguishable(&fork));
        let mut sys2 = sys.clone();
        sys2.step(ProcessId(0)).unwrap();
        assert!(!sys2.indistinguishable(&fork));
    }

    #[test]
    fn per_process_step_counts_track_the_trace() {
        let mut sys = small_system();
        sys.step(ProcessId(0)).unwrap();
        sys.step(ProcessId(1)).unwrap();
        sys.step(ProcessId(0)).unwrap();
        assert_eq!(sys.steps_of(ProcessId(0)), 2);
        assert_eq!(sys.steps_of(ProcessId(1)), 1);
        assert_eq!(sys.steps_of(ProcessId(9)), 0);
        let counts = summarize_counts(&sys);
        assert_eq!(counts, vec![2, 1]);
    }

    fn summarize_counts(sys: &System) -> Vec<usize> {
        (0..sys.process_count())
            .map(|i| sys.trace().iter().filter(|e| e.pid == ProcessId(i)).count())
            .collect()
    }

    #[test]
    fn step_writes_unshared_state_in_place_and_a_failed_step_changes_nothing() {
        /// Scans, then updates a component the snapshot does not have.
        #[derive(Clone, Debug)]
        struct OutOfRange;
        impl SnapshotProtocol for OutOfRange {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                ProtocolStep::Update(5, Value::Int(1))
            }
            fn components(&self) -> usize {
                1
            }
        }
        let addr = |sys: &System| {
            (
                Arc::as_ptr(&sys.objects) as *const (),
                Arc::as_ptr(&sys.processes[0].process) as *const (),
            )
        };
        let mut sys = small_system();
        let before = addr(&sys);
        sys.step(ProcessId(0)).unwrap();
        sys.step(ProcessId(0)).unwrap();
        assert_eq!(addr(&sys), before, "an unshared configuration steps in place");
        let fork = sys.clone();
        sys.step(ProcessId(0)).unwrap();
        assert_eq!(addr(&fork), before, "a shared one is copied before the write");
        assert_ne!(addr(&sys).1, before.1);

        let mut sys = System::new(
            vec![Object::snapshot(1)],
            vec![Box::new(SnapshotProcess::new(OutOfRange, ObjectId(0)))],
        );
        sys.step(ProcessId(0)).unwrap();
        let key = sys.config_key();
        for shared in [false, true] {
            let fork = shared.then(|| sys.clone());
            let err = sys.step(ProcessId(0)).unwrap_err();
            assert!(matches!(err, ModelError::BadOperation(_)), "{err:?}");
            assert_eq!(sys.config_key(), key, "shared = {shared}");
            assert_eq!(sys.trace().len(), 1);
            assert_eq!(sys.steps_of(ProcessId(0)), 1);
            drop(fork);
        }
    }

    #[test]
    fn step_counts_follow_forks_and_in_place_steps() {
        let mut parent = small_system();
        parent.step(ProcessId(0)).unwrap();
        let sibling = parent.clone();
        let next = parent.successor(ProcessId(1)).unwrap();
        let child = parent.with_successor(next);
        assert_eq!(child.steps_of(ProcessId(0)), 1);
        assert_eq!(child.steps_of(ProcessId(1)), 1);
        // The shared parent and its other fork keep their counts.
        for sys in [&parent, &sibling] {
            assert_eq!(sys.steps_of(ProcessId(0)), 1);
            assert_eq!(sys.steps_of(ProcessId(1)), 0);
        }
        let mut stepped = child.clone();
        stepped.step(ProcessId(0)).unwrap();
        assert_eq!(stepped.steps_of(ProcessId(0)), 2);
        assert_eq!(child.steps_of(ProcessId(0)), 1, "the fork stepped, not the child");
        assert_eq!(summarize_counts(&stepped), vec![2, 1]);
        // Stepped in place, unshared.
        drop(child);
        let mut alone = stepped;
        alone.step(ProcessId(1)).unwrap();
        assert_eq!(summarize_counts(&alone), vec![2, 2]);
        assert_eq!(alone.steps_of(ProcessId(1)), 2);
    }

    #[test]
    fn scans_share_the_snapshot_until_an_update_copies_it() {
        fn components(sys: &System) -> &Arc<[Value]> {
            match &sys.objects()[0] {
                Object::Snapshot { components } => components,
                other => panic!("not a snapshot: {other:?}"),
            }
        }
        fn last_view(sys: &System) -> Arc<[Value]> {
            match &sys.trace()[sys.trace().len() - 1].resp {
                Response::View(view) => Arc::clone(view),
                other => panic!("not a scan: {other:?}"),
            }
        }
        let mut sys = small_system();
        sys.step(ProcessId(0)).unwrap(); // p0 scans
        let view = last_view(&sys);
        assert!(Arc::ptr_eq(&view, components(&sys)), "a scan copies no value");
        let scanned = sys.with_successor(sys.successor(ProcessId(1)).unwrap());
        assert!(Arc::ptr_eq(&last_view(&scanned), components(&sys)));

        // p0 updates in place: the components are still shared with the
        // scan's view, so the update copies them and the view keeps the
        // value it read.
        sys.step(ProcessId(0)).unwrap();
        assert!(!Arc::ptr_eq(&view, components(&sys)));
        assert_eq!(&*view, &[Value::Nil]);
        assert_eq!(&**components(&sys), &[Value::Int(10)]);

        // An update on one of two forks leaves the other's unchanged.
        let fork = scanned.clone();
        let mut updated = scanned;
        updated.step(ProcessId(1)).unwrap(); // p1 updates
        assert_eq!(&**components(&updated), &[Value::Int(20)]);
        assert_eq!(&**components(&fork), &[Value::Nil]);
        assert!(Arc::ptr_eq(components(&fork), &view));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut sys = small_system();
        let err = sys.run_solo(ProcessId(0), 1).unwrap_err();
        assert!(matches!(err, ModelError::BudgetExhausted { .. }));
    }
}
