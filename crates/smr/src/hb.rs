//! Happens-before runtime core: vector clocks, the step-commutation
//! (independence) oracle, and an incrementally maintained per-execution
//! happens-before summary.
//!
//! This module is the shared dependence machinery behind two layers
//! that used to be separate:
//!
//! * the **analyzer's Pass 2** trace checker
//!   ([`crate::analyze::hb`]), which replays recorded traces and flags
//!   causally unordered mutations (RS-W006) — it now delegates its
//!   vector-clock bookkeeping to [`HbState`];
//! * the **explorer's** dynamic partial-order reduction
//!   ([`crate::explore`]), which uses [`independent`] to recognise that
//!   two interleavings differing only in commuting adjacent steps reach
//!   the same configuration, and prunes the redundant fork.
//!
//! # Why the dependence relation is exact here
//!
//! Processes are deterministic state machines whose next base-object
//! operation is fully revealed by [`crate::process::Process::poised`],
//! so at every reachable configuration the explorer knows *precisely*
//! which operation each process would perform next. Two steps by
//! distinct processes commute iff swapping them leaves every object
//! state and both responses unchanged; for this crate's object zoo that
//! is a closed-form property of the operation pair (see
//! [`independent`]), with no approximation and no runtime clock
//! comparison needed. Vector clocks remain the right tool for *audit*
//! (checking a foreign trace whose steps are already fixed), which is
//! what [`HbState`] provides.

use crate::object::{ObjectId, Operation};
use crate::process::ProcessId;
use crate::system::Event;
use std::collections::HashMap;

/// A vector clock over `n` processes.
pub type VClock = Vec<u64>;

/// `a ≤ b` pointwise.
pub fn leq(a: &VClock, b: &VClock) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Neither `a ≤ b` nor `b ≤ a`: the clocks are causally unordered.
pub fn concurrent(a: &VClock, b: &VClock) -> bool {
    !leq(a, b) && !leq(b, a)
}

/// Pointwise maximum, stored into `into`.
pub fn join(into: &mut VClock, from: &VClock) {
    for (x, y) in into.iter_mut().zip(from) {
        *x = (*x).max(*y);
    }
}

/// The component a mutation writes (mirrors the runtime's ownership
/// check): `Update`/`WriteMax` name their component, every other
/// mutation acts on component 0. Reads and scans mutate nothing.
pub fn mutated_component(op: &Operation) -> Option<usize> {
    if !op.is_mutation() {
        return None;
    }
    Some(match op {
        Operation::Update { component, .. } | Operation::WriteMax { component, .. } => *component,
        _ => 0,
    })
}

/// Do two operations, performed by *distinct* processes, commute?
///
/// `independent(a, b)` returns `true` only when, from **every** object
/// state, applying `a` then `b` or `b` then `a` yields identical object
/// states and identical responses to both callers — so the two
/// execution orders reach indistinguishable configurations. The
/// relation is exact for this crate's object families:
///
/// * operations on **different objects** touch disjoint state;
/// * two **non-mutating** operations (`Read`, `Scan`) change nothing;
/// * `Update`s of **different components** of one snapshot write
///   disjoint slots and both return `Ack` (the paper's single-writer
///   discipline makes this the common case: each process updates only
///   its own component);
/// * `Update`s of the same component with the **same value** are
///   idempotent in either order;
/// * `WriteMax` pairs always commute — `max` is associative and
///   commutative and the response is unconditionally `Ack` (§5.2);
/// * `Write`s of the same value to one register commute.
///
/// Everything else is dependent: a `Scan` racing an `Update` of the
/// same object observes the order, distinct same-slot writes make the
/// final state order-sensitive, and `FetchInc`/`Swap`/`Cas` return
/// order-revealing responses.
pub fn independent(a: &Operation, b: &Operation) -> bool {
    if a.object() != b.object() {
        return true;
    }
    if !a.is_mutation() && !b.is_mutation() {
        return true;
    }
    match (a, b) {
        (
            Operation::Update { component: ca, value: va, .. },
            Operation::Update { component: cb, value: vb, .. },
        ) => ca != cb || va == vb,
        (Operation::WriteMax { .. }, Operation::WriteMax { .. }) => true,
        (Operation::Write { value: va, .. }, Operation::Write { value: vb, .. }) => va == vb,
        _ => false,
    }
}

/// A set of unordered process pairs observed *dependent* by the
/// dynamic oracle: the explorer's soundness gate collects every
/// enabled pair whose poised operations fail [`independent`], and the
/// differential tests assert the set is a subset of the static
/// interference matrix's dependent pairs
/// ([`crate::analyze::InterferenceMatrix`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DependentPairs {
    pairs: std::collections::BTreeSet<(usize, usize)>,
}

impl DependentPairs {
    /// An empty set.
    pub fn new() -> Self {
        DependentPairs::default()
    }

    /// Records `{p, q}` (order-insensitive; self-pairs are ignored —
    /// dependence is only meaningful for distinct processes).
    pub fn record(&mut self, p: usize, q: usize) {
        if p != q {
            self.pairs.insert((p.min(q), p.max(q)));
        }
    }

    /// Is `{p, q}` recorded?
    pub fn contains(&self, p: usize, q: usize) -> bool {
        p != q && self.pairs.contains(&(p.min(q), p.max(q)))
    }

    /// Number of recorded pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates the pairs in `(min, max)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pairs.iter().copied()
    }

    /// Observes one recorded trace: records every pair of *adjacent*
    /// distinct-process events whose operations are dependent (the
    /// trace's own order already witnesses these as truly concurrent
    /// neighbours).
    pub fn observe_trace<'a, I>(&mut self, events: I)
    where
        I: IntoIterator<Item = &'a Event>,
    {
        let mut prev: Option<&Event> = None;
        for event in events {
            if let Some(p) = prev {
                if p.pid != event.pid && !independent(&p.op, &event.op) {
                    self.record(p.pid.0, event.pid.0);
                }
            }
            prev = Some(event);
        }
    }
}

/// What one observed event revealed about the execution's causal order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HbObserved {
    /// The event is causally unremarkable.
    Clean,
    /// The event names a process the system does not have.
    BogusPid,
    /// A mutation of a component owned by another process.
    ForeignMutation {
        /// The declared owner.
        owner: ProcessId,
        /// The mutated component.
        component: usize,
    },
    /// Two causally unordered mutations of one owned component: this
    /// event races the recorded `writer`'s earlier mutation.
    RacingMutation {
        /// The author of the conflicting earlier mutation.
        writer: ProcessId,
        /// The contended component.
        component: usize,
    },
}

/// An incrementally maintained happens-before summary of one execution:
/// per-process vector clocks plus, per `(object, component)`, the clock
/// and author of the last observed mutation. Feeding events one at a
/// time through [`HbState::observe`] reproduces exactly the relation
/// the analyzer's batch Pass 2 derives over a whole recorded trace.
#[derive(Clone, PartialEq, Debug)]
pub struct HbState {
    clocks: Vec<VClock>,
    last_write: HashMap<(usize, usize), (VClock, usize)>,
}

impl HbState {
    /// An empty summary over `n` processes.
    pub fn new(n: usize) -> Self {
        HbState { clocks: vec![vec![0; n]; n], last_write: HashMap::new() }
    }

    /// The number of processes this summary tracks.
    pub fn processes(&self) -> usize {
        self.clocks.len()
    }

    /// Process `p`'s current vector clock.
    pub fn clock(&self, p: ProcessId) -> Option<&VClock> {
        self.clocks.get(p.0)
    }

    /// Advances the summary by one event. `owner_of` names the declared
    /// single writer of an `(object, component)` pair, if any; races
    /// are only flagged on owned components (mirroring the analyzer:
    /// un-owned components are multi-writer by design and ordered by
    /// the trace itself).
    pub fn observe(
        &mut self,
        event: &Event,
        owner_of: &dyn Fn(ObjectId, usize) -> Option<ProcessId>,
    ) -> HbObserved {
        let n = self.clocks.len();
        let p = event.pid.0;
        if p >= n {
            return HbObserved::BogusPid;
        }
        self.clocks[p][p] += 1;
        let obj = event.op.object();
        let mut outcome = HbObserved::Clean;
        if let Some(component) = mutated_component(&event.op) {
            if let Some(owner) = owner_of(obj, component) {
                if owner != event.pid {
                    outcome = HbObserved::ForeignMutation { owner, component };
                } else if let Some((write_clock, writer)) = self.last_write.get(&(obj.0, component))
                {
                    if *writer != p && concurrent(write_clock, &self.clocks[p]) {
                        outcome =
                            HbObserved::RacingMutation { writer: ProcessId(*writer), component };
                    }
                }
            }
            self.last_write.insert((obj.0, component), (self.clocks[p].clone(), p));
        } else {
            // A read or scan observes the writes it returns: join the
            // write clocks of every component it covers (reads-from
            // edges).
            let components: Vec<usize> = self
                .last_write
                .keys()
                .filter(|(o, _)| *o == obj.0)
                .map(|(_, c)| *c)
                .collect();
            for c in components {
                let (write_clock, _) = self.last_write[&(obj.0, c)].clone();
                join(&mut self.clocks[p], &write_clock);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Response;
    use crate::value::Value;

    fn upd(pid: usize, component: usize, v: i64) -> Event {
        Event {
            pid: ProcessId(pid),
            op: Operation::Update { obj: ObjectId(0), component, value: Value::Int(v) },
            resp: Response::Ack,
        }
    }

    fn scan(pid: usize) -> Event {
        Event {
            pid: ProcessId(pid),
            op: Operation::Scan { obj: ObjectId(0) },
            resp: Response::View(vec![].into()),
        }
    }

    #[test]
    fn clock_order_and_join() {
        let a = vec![1, 0];
        let b = vec![1, 2];
        assert!(leq(&a, &b));
        assert!(!leq(&b, &a));
        assert!(!concurrent(&a, &b));
        let c = vec![0, 1];
        assert!(concurrent(&a, &c));
        let mut j = a.clone();
        join(&mut j, &c);
        assert_eq!(j, vec![1, 1]);
    }

    #[test]
    fn mutated_component_mirrors_runtime_ownership() {
        assert_eq!(
            mutated_component(&Operation::Update {
                obj: ObjectId(0),
                component: 3,
                value: Value::Int(1)
            }),
            Some(3)
        );
        assert_eq!(
            mutated_component(&Operation::Write { obj: ObjectId(0), value: Value::Int(1) }),
            Some(0)
        );
        assert_eq!(mutated_component(&Operation::Scan { obj: ObjectId(0) }), None);
        assert_eq!(mutated_component(&Operation::Read { obj: ObjectId(0) }), None);
    }

    #[test]
    fn independence_distinguishes_objects_and_components() {
        let upd = |obj: usize, component: usize, v: i64| Operation::Update {
            obj: ObjectId(obj),
            component,
            value: Value::Int(v),
        };
        // Different objects always commute.
        assert!(independent(&upd(0, 0, 1), &upd(1, 0, 2)));
        // Different components of one snapshot commute.
        assert!(independent(&upd(0, 0, 1), &upd(0, 1, 2)));
        // Same component, different values: order decides the winner.
        assert!(!independent(&upd(0, 0, 1), &upd(0, 0, 2)));
        // Same component, same value: idempotent in either order.
        assert!(independent(&upd(0, 0, 7), &upd(0, 0, 7)));
        // A scan races any update of the same object…
        assert!(!independent(&Operation::Scan { obj: ObjectId(0) }, &upd(0, 1, 2)));
        // …but not of another object, and two reads always commute.
        assert!(independent(&Operation::Scan { obj: ObjectId(1) }, &upd(0, 1, 2)));
        assert!(independent(
            &Operation::Scan { obj: ObjectId(0) },
            &Operation::Read { obj: ObjectId(0) }
        ));
    }

    #[test]
    fn writemax_always_commutes_with_writemax() {
        let wm = |component: usize, v: i64| Operation::WriteMax {
            obj: ObjectId(0),
            component,
            value: Value::Int(v),
        };
        assert!(independent(&wm(0, 1), &wm(0, 2)));
        assert!(independent(&wm(0, 1), &wm(1, 2)));
        // But a scan of the max-register still observes the order
        // relative to a not-yet-applied writemax? No: writemax/scan of
        // the same object are dependent (the scan sees the max so far).
        assert!(!independent(&Operation::Scan { obj: ObjectId(0) }, &wm(0, 2)));
    }

    #[test]
    fn order_revealing_primitives_are_dependent() {
        let fi = Operation::FetchInc { obj: ObjectId(2) };
        assert!(!independent(&fi, &fi));
        let sw = Operation::Swap { obj: ObjectId(2), value: Value::Int(1) };
        assert!(!independent(&sw, &sw));
        let cas = Operation::Cas {
            obj: ObjectId(2),
            expect: Value::Int(0),
            update: Value::Int(1),
        };
        assert!(!independent(&cas, &cas));
        // Distinct-value register writes are order-sensitive; equal
        // writes are not.
        let w = |v: i64| Operation::Write { obj: ObjectId(2), value: Value::Int(v) };
        assert!(!independent(&w(1), &w(2)));
        assert!(independent(&w(1), &w(1)));
    }

    #[test]
    fn dependent_pairs_normalize_and_deduplicate() {
        let mut pairs = DependentPairs::new();
        pairs.record(2, 0);
        pairs.record(0, 2);
        pairs.record(1, 1); // self-pair ignored
        assert_eq!(pairs.len(), 1);
        assert!(pairs.contains(0, 2));
        assert!(pairs.contains(2, 0));
        assert!(!pairs.contains(0, 1));
        assert_eq!(pairs.iter().collect::<Vec<_>>(), vec![(0, 2)]);
    }

    #[test]
    fn observe_trace_records_adjacent_dependent_neighbours() {
        // p0 updates slot 0, p1 updates slot 0 with a different value
        // (dependent), then p1 updates slot 1 and p0 updates slot 0
        // (independent: distinct components).
        let mut pairs = DependentPairs::new();
        pairs.observe_trace(&[upd(0, 0, 1), upd(1, 0, 2), upd(1, 1, 3), upd(0, 0, 4)]);
        assert!(pairs.contains(0, 1));
        assert_eq!(pairs.len(), 1);

        // Independent neighbours record nothing.
        let mut clean = DependentPairs::new();
        clean.observe_trace(&[upd(0, 0, 1), upd(1, 1, 2)]);
        assert!(clean.is_empty());
    }

    #[test]
    fn racing_owned_mutations_are_flagged() {
        let owner = |_: ObjectId, component: usize| {
            if component == 0 {
                Some(ProcessId(0))
            } else {
                None
            }
        };
        let mut hb = HbState::new(2);
        assert_eq!(hb.observe(&upd(0, 0, 1), &owner), HbObserved::Clean);
        // p1 mutating p0's component is a foreign mutation.
        assert_eq!(
            hb.observe(&upd(1, 0, 2), &owner),
            HbObserved::ForeignMutation { owner: ProcessId(0), component: 0 }
        );
        // Un-owned components never race.
        assert_eq!(hb.observe(&upd(1, 1, 2), &owner), HbObserved::Clean);
    }

    #[test]
    fn reads_from_edge_orders_the_handoff() {
        // p0 writes its owned slot; p1 scans (acquiring the reads-from
        // edge) — a later p0 write is then ordered, not racing, even
        // under an owner map that lets both write (audit scenario).
        let owner = |_: ObjectId, _: usize| Some(ProcessId(0));
        let mut hb = HbState::new(2);
        assert_eq!(hb.observe(&upd(0, 0, 1), &owner), HbObserved::Clean);
        assert_eq!(hb.observe(&scan(1), &owner), HbObserved::Clean);
        // p1's clock now dominates p0's write clock: a p1 mutation of
        // the same slot is foreign (ownership) but *not* unordered.
        let mut unordered = HbState::new(2);
        assert_eq!(unordered.observe(&upd(0, 0, 1), &|_, _| None), HbObserved::Clean);
        assert_eq!(unordered.observe(&upd(1, 0, 2), &|_, _| None), HbObserved::Clean);
    }

    #[test]
    fn racing_mutation_requires_concurrent_clocks() {
        // Two writers of one *shared* owned slot (owner map says p1 owns
        // it for the second write): concurrent clocks → race.
        let mut hb = HbState::new(2);
        let owner_is_writer = |pid: usize| move |_: ObjectId, _: usize| Some(ProcessId(pid));
        assert_eq!(hb.observe(&upd(0, 0, 1), &owner_is_writer(0)), HbObserved::Clean);
        assert_eq!(
            hb.observe(&upd(1, 0, 2), &owner_is_writer(1)),
            HbObserved::RacingMutation { writer: ProcessId(0), component: 0 }
        );
        // With a reads-from edge in between, the same pair is ordered.
        let mut hb = HbState::new(2);
        assert_eq!(hb.observe(&upd(0, 0, 1), &owner_is_writer(0)), HbObserved::Clean);
        assert_eq!(hb.observe(&scan(1), &owner_is_writer(0)), HbObserved::Clean);
        assert_eq!(hb.observe(&upd(1, 0, 2), &owner_is_writer(1)), HbObserved::Clean);
    }
}
