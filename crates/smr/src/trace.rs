//! Execution traces: the copy-on-write [`Trace`] event log every
//! [`crate::system::System`] carries, plus the classic per-process
//! column diagrams used to present executions in the literature and
//! trace summaries.
//!
//! The renderers are used by the examples and invaluable when
//! debugging adversarial schedules: each process gets a column; each
//! row is one atomic step.

use crate::object::{Operation, Response};
use crate::system::Event;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::ops::Index;
use std::sync::Arc;

/// Tail length at which [`Trace::push`] seals the owned suffix into a
/// shared segment. Bounds both the per-clone copy (≤ `SEAL_THRESHOLD`
/// events) and the segment-chain length (≥ one event per segment).
const SEAL_THRESHOLD: usize = 32;

/// The last link of a trace's sealed chain. A chain mixes two kinds:
/// a [`Segment`] owns a run of events, and is what [`Trace::push`],
/// [`Trace::freeze`] and [`crate::system::System::with_successor`]
/// seal; node `.1` of a [`Block`] owns one index into the explorer's
/// stored events, and is what the explorer builds.
#[derive(Clone, Debug)]
enum Link {
    Segment(Arc<Segment>),
    Node(Arc<Block>, u32),
}

/// An immutable, `Arc`-shared run of consecutive events. `parent`
/// holds events `[0, start)`, this segment holds
/// `[start, start + events().len())`.
#[derive(Debug)]
struct Segment {
    parent: Option<Link>,
    start: usize,
    events: Events,
}

/// A segment's events. [`crate::system::System::with_successor`] seals
/// each child one step past a sealed parent, so a one-event segment
/// keeps its event inline: one heap block for the segment and its event
/// together.
#[derive(Debug)]
enum Events {
    One(Event),
    Many(Box<[Event]>),
}

impl Segment {
    fn events(&self) -> &[Event] {
        match &self.events {
            Events::One(event) => std::slice::from_ref(event),
            Events::Many(events) => events,
        }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        unlink(self.parent.take(), Vec::new());
    }
}

/// Events stored once each, in append-only `Arc`-shared batches: the
/// explorer's memoized steps, which its trace nodes name by index.
/// Appending to a store that blocks still share copies its batch
/// pointers, never an event.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventStore {
    /// Index of each batch's first event.
    starts: Vec<usize>,
    batches: Vec<Arc<[Event]>>,
    len: usize,
}

impl EventStore {
    /// Number of events stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `events` as one batch, under the indices from
    /// [`EventStore::len`] on.
    pub(crate) fn append(&mut self, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        self.starts.push(self.len);
        self.len += events.len();
        self.batches.push(events.into());
    }

    fn get(&self, i: u32) -> &Event {
        let i = i as usize;
        let batch = self.starts.partition_point(|&start| start <= i) - 1;
        &self.batches[batch][i - self.starts[batch]]
    }
}

/// Where a trace of one explorer level ends: node `node` of block
/// `block` of the level's [`Parents`] (unread at the root).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tip {
    pub(crate) block: u32,
    pub(crate) node: u32,
}

/// One node of a [`Block`]: the trace `parent` names in the block's
/// [`Parents`], extended by event `event` of the block's
/// [`EventStore`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub(crate) parent: Tip,
    pub(crate) event: u32,
}

/// The traces one explorer level's entries end at, which the next
/// level's blocks extend: every trace of a level has the same length.
/// Each block of the next level holds this whole list, so a block, and
/// any trace ending in it, keeps every block of every earlier level
/// alive.
#[derive(Clone, Debug)]
pub(crate) enum Parents {
    /// The sealed trace of the configuration the search started from.
    Root(Trace),
    /// The level's blocks, one per build chunk.
    Blocks(Arc<Vec<Arc<Block>>>),
}

impl Parents {
    /// The parents of the first level: `trace`, which must be sealed
    /// (see [`Trace::freeze`]).
    pub(crate) fn root(trace: &Trace) -> Parents {
        assert!(trace.tail.is_empty(), "a root trace is sealed");
        Parents::Root(trace.clone())
    }

    /// The trace that ends at `tip`.
    pub(crate) fn trace(&self, tip: Tip) -> Trace {
        match self {
            Parents::Root(trace) => trace.clone(),
            Parents::Blocks(blocks) => Trace::at(&blocks[tip.block as usize], tip.node),
        }
    }

    /// One block of `nodes`, each naming its parent trace here and its
    /// event in `events`: one allocation for all of them.
    pub(crate) fn extend(&self, events: &Arc<EventStore>, nodes: Vec<Node>) -> Arc<Block> {
        let len = match self {
            Parents::Root(trace) => trace.len(),
            Parents::Blocks(blocks) => blocks.first().map_or(0, |block| block.len),
        } + 1;
        debug_assert!(nodes.iter().all(|node| (node.event as usize) < events.len()));
        Arc::new(Block { len, events: Arc::clone(events), parents: self.clone(), nodes })
    }
}

/// An `Arc`-shared block of one-event trace nodes, all one step past
/// the same level's [`Parents`]. The explorer builds one block per build
/// chunk, so a kept child costs a 12-byte node, not an allocation, and
/// its event is the memoized one, not a copy. A block holds its level's
/// whole [`Parents`] and the [`EventStore`], so one trace kept past the
/// search holds the tree of every level up to its own, not only its
/// chain.
#[derive(Debug)]
pub(crate) struct Block {
    /// The trace length at every node.
    len: usize,
    events: Arc<EventStore>,
    parents: Parents,
    nodes: Vec<Node>,
}

impl Block {
    /// Hands over the links this block holds: a root's sealed link, or
    /// the parent blocks when nothing else shares their list.
    fn take_parents(&mut self) -> (Option<Link>, Vec<Arc<Block>>) {
        match std::mem::replace(&mut self.parents, Parents::Root(Trace::new())) {
            Parents::Root(mut trace) => (trace.sealed.take(), Vec::new()),
            Parents::Blocks(blocks) => (None, Arc::into_inner(blocks).unwrap_or_default()),
        }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        let (link, blocks) = self.take_parents();
        unlink(link, blocks);
    }
}

/// Drops the links `link` and `blocks` iteratively: a recursive drop
/// would blow the stack on traces with hundreds of thousands of events
/// (one frame per link). A link still shared elsewhere ends its branch
/// of the walk; one held only here hands its own parents over first.
fn unlink(mut link: Option<Link>, mut blocks: Vec<Arc<Block>>) {
    loop {
        let next = match link.take() {
            Some(next) => next,
            None => match blocks.pop() {
                Some(block) => Link::Node(block, 0),
                None => return,
            },
        };
        match next {
            Link::Segment(segment) => {
                if let Some(mut owned) = Arc::into_inner(segment) {
                    link = owned.parent.take();
                }
            }
            Link::Node(block, _) => {
                if let Some(mut owned) = Arc::into_inner(block) {
                    let (parent, parents) = owned.take_parents();
                    link = parent;
                    blocks.extend(parents);
                }
            }
        }
    }
}

/// A borrowed link of a sealed chain.
#[derive(Clone, Copy)]
enum Cursor<'a> {
    Segment(&'a Segment),
    Node(&'a Block, u32),
}

impl<'a> Cursor<'a> {
    fn of(link: &'a Link) -> Cursor<'a> {
        match link {
            Link::Segment(segment) => Cursor::Segment(segment),
            Link::Node(block, node) => Cursor::Node(block, *node),
        }
    }

    /// The trace index of the link's first event.
    fn start(self) -> usize {
        match self {
            Cursor::Segment(segment) => segment.start,
            Cursor::Node(block, _) => block.len - 1,
        }
    }

    fn events(self) -> &'a [Event] {
        match self {
            Cursor::Segment(segment) => segment.events(),
            Cursor::Node(block, node) => {
                std::slice::from_ref(block.events.get(block.nodes[node as usize].event))
            }
        }
    }

    fn parent(self) -> Option<Cursor<'a>> {
        match self {
            Cursor::Segment(segment) => segment.parent.as_ref().map(Cursor::of),
            Cursor::Node(block, node) => match &block.parents {
                Parents::Root(trace) => trace.sealed.as_ref().map(Cursor::of),
                Parents::Blocks(blocks) => {
                    let Tip { block, node } = block.nodes[node as usize].parent;
                    Some(Cursor::Node(&blocks[block as usize], node))
                }
            },
        }
    }
}

/// A copy-on-write execution trace: an `Arc`-shared sealed prefix plus
/// a small owned tail.
///
/// Forking a configuration used to deep-copy the whole event log,
/// making every explorer fork O(depth). `Clone` here copies one `Arc`
/// pointer and at most `SEAL_THRESHOLD` (32) tail events; after
/// [`Trace::freeze`], on the sealed trace of a configuration
/// [`crate::system::System::with_successor`] built, or on a trace the
/// explorer hands a check, a clone copies nothing at all. Pushes still
/// amortise to O(1): the tail is sealed into a shared segment once it
/// reaches the threshold.
///
/// The sealed prefix is a chain of links that reads as one sequence of
/// events whatever its layout: segments of events, and the explorer's
/// one-event nodes, which name events it stores once in its transition
/// memo. Equality compares events, never layout.
///
/// # Examples
///
/// ```
/// use rsim_smr::trace::Trace;
///
/// let trace = Trace::new();
/// assert!(trace.is_empty());
/// let fork = trace.clone(); // shares the sealed prefix
/// assert_eq!(trace, fork);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    sealed: Option<Link>,
    /// Total events in the sealed chain.
    sealed_len: usize,
    tail: Vec<Event>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// The trace that ends at node `node` of `block`.
    pub(crate) fn at(block: &Arc<Block>, node: u32) -> Trace {
        let mut trace = Trace::new();
        trace.point_at(block, node);
        trace
    }

    /// Makes this the trace that ends at node `node` of `block`. A trace
    /// that already points into `block` only moves its index: refilling
    /// one configuration along a block touches no reference count.
    pub(crate) fn point_at(&mut self, block: &Arc<Block>, node: u32) {
        self.tail.clear();
        self.sealed_len = block.len;
        match &mut self.sealed {
            Some(Link::Node(held, at)) if Arc::ptr_eq(held, block) => *at = node,
            sealed => *sealed = Some(Link::Node(Arc::clone(block), node)),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an event, sealing the tail into a shared segment once it
    /// reaches the threshold.
    pub fn push(&mut self, event: Event) {
        self.tail.push(event);
        if self.tail.len() >= SEAL_THRESHOLD {
            self.freeze();
        }
    }

    /// Seals the owned tail into the shared prefix, making subsequent
    /// clones O(1). The explorer calls this on its root configuration
    /// so every fork of it shares the whole history.
    pub fn freeze(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.tail).into_boxed_slice();
        self.seal(Events::Many(events));
    }

    /// Appends an event and seals the whole trace, as [`Trace::push`]
    /// then [`Trace::freeze`] would. On a sealed trace the event is
    /// stored inline in its new segment: one heap allocation in all.
    pub(crate) fn push_sealed(&mut self, event: Event) {
        if self.tail.is_empty() {
            self.seal(Events::One(event));
        } else {
            self.tail.push(event);
            self.freeze();
        }
    }

    /// Links `events` onto the sealed chain; the tail must be empty.
    fn seal(&mut self, events: Events) {
        let segment = Segment { parent: self.sealed.take(), start: self.sealed_len, events };
        self.sealed_len += segment.events().len();
        self.sealed = Some(Link::Segment(Arc::new(segment)));
    }

    /// The sealed chain, last link first.
    fn links(&self) -> impl Iterator<Item = Cursor<'_>> {
        std::iter::successors(self.sealed.as_ref().map(Cursor::of), |link| link.parent())
    }

    /// Iterates the events in execution order.
    pub fn iter(&self) -> TraceIter<'_> {
        self.events_from(0)
    }

    /// Iterates the events from index `start` (clamped to the length)
    /// in execution order; whole links before `start` are skipped
    /// without being walked.
    pub fn events_from(&self, start: usize) -> TraceIter<'_> {
        let mut slices: Vec<&[Event]> = self
            .links()
            // Stop at the first link that (with all its parents)
            // precedes `start`.
            .take_while(|link| link.start() + link.events().len() > start)
            .map(|link| &link.events()[start.saturating_sub(link.start())..])
            .collect();
        slices.reverse();
        let tail_skip = start.saturating_sub(self.sealed_len).min(self.tail.len());
        slices.push(&self.tail[tail_skip..]);
        TraceIter { slices, outer: 0, inner: 0 }
    }

    /// The event at index `i`.
    pub fn get(&self, i: usize) -> Option<&Event> {
        if i >= self.sealed_len {
            return self.tail.get(i - self.sealed_len);
        }
        let link = self.links().find(|link| link.start() <= i)?;
        link.events().get(i - link.start())
    }

    /// Copies the events into a contiguous vector.
    pub fn to_vec(&self) -> Vec<Event> {
        self.iter().cloned().collect()
    }
}

impl Index<usize> for Trace {
    type Output = Event;

    fn index(&self, i: usize) -> &Event {
        self.get(i).expect("trace index out of bounds")
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Trace {}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let mut trace = Trace::new();
        for event in events {
            trace.push(event);
        }
        trace
    }
}

/// Iterator over a [`Trace`]'s events in execution order.
#[derive(Clone, Debug)]
pub struct TraceIter<'a> {
    /// Root-first event runs (sealed segments, then the tail).
    slices: Vec<&'a [Event]>,
    outer: usize,
    inner: usize,
}

impl<'a> Iterator for TraceIter<'a> {
    type Item = &'a Event;

    fn next(&mut self) -> Option<&'a Event> {
        while self.outer < self.slices.len() {
            if let Some(event) = self.slices[self.outer].get(self.inner) {
                self.inner += 1;
                return Some(event);
            }
            self.outer += 1;
            self.inner = 0;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining: usize = self
            .slices
            .iter()
            .skip(self.outer)
            .map(|s| s.len())
            .sum::<usize>()
            .saturating_sub(self.inner);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

/// Renders one operation compactly.
pub fn format_op(op: &Operation) -> String {
    match op {
        Operation::Read { .. } => "read".into(),
        Operation::Write { value, .. } => format!("write {value}"),
        Operation::Update { component, value, .. } => {
            format!("U[{component}]={value}")
        }
        Operation::Scan { .. } => "scan".into(),
        Operation::WriteMax { component, value, .. } => {
            format!("max[{component}]={value}")
        }
        Operation::FetchInc { .. } => "f&i".into(),
        Operation::Swap { value, .. } => format!("swap {value}"),
        Operation::Cas { expect, update, .. } => format!("cas {expect}→{update}"),
    }
}

/// Renders one response compactly.
pub fn format_resp(resp: &Response) -> String {
    match resp {
        Response::Ack => "ok".into(),
        Response::Value(v) => format!("{v}"),
        Response::View(view) => {
            let cells: Vec<String> = view.iter().map(|v| format!("{v}")).collect();
            format!("[{}]", cells.join(","))
        }
        Response::Flag(b) => format!("{b}"),
    }
}

/// Renders a trace as a per-process column diagram.
///
/// # Examples
///
/// ```
/// use rsim_smr::object::{Object, ObjectId};
/// use rsim_smr::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
/// use rsim_smr::system::System;
/// use rsim_smr::trace::format_trace;
/// use rsim_smr::value::Value;
///
/// #[derive(Clone, Debug)]
/// struct One;
/// impl SnapshotProtocol for One {
///     fn on_scan(&mut self, _v: &[Value]) -> ProtocolStep {
///         ProtocolStep::Output(Value::Int(1))
///     }
///     fn components(&self) -> usize { 1 }
/// }
///
/// # fn main() -> Result<(), rsim_smr::error::ModelError> {
/// let mut sys = System::new(
///     vec![Object::snapshot(1)],
///     vec![Box::new(SnapshotProcess::new(One, ObjectId(0))) as Box<dyn Process>],
/// );
/// sys.run_solo(rsim_smr::process::ProcessId(0), 10)?;
/// let diagram = format_trace(sys.trace(), 1);
/// assert!(diagram.contains("scan"));
/// # Ok(())
/// # }
/// ```
pub fn format_trace<'a, I>(events: I, n_processes: usize) -> String
where
    I: IntoIterator<Item = &'a Event>,
{
    let events: Vec<&Event> = events.into_iter().collect();
    let width = events
        .iter()
        .map(|e| format!("{} → {}", format_op(&e.op), format_resp(&e.resp)).len())
        .max()
        .unwrap_or(8)
        .max(8)
        + 2;
    let mut out = String::new();
    // Header.
    let _ = write!(out, "{:>5} ", "step");
    for p in 0..n_processes {
        let _ = write!(out, "{:<width$}", format!("p{p}"));
    }
    let _ = writeln!(out);
    for (i, e) in events.iter().enumerate() {
        let _ = write!(out, "{:>5} ", i + 1);
        for p in 0..n_processes {
            if p == e.pid.0 {
                let cell = format!("{} → {}", format_op(&e.op), format_resp(&e.resp));
                let _ = write!(out, "{cell:<width$}");
            } else {
                let _ = write!(out, "{:<width$}", "");
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Per-process and per-operation-kind step counts for a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Steps taken by each process.
    pub steps_per_process: BTreeMap<usize, usize>,
    /// Mutating steps (writes/updates) per process.
    pub mutations_per_process: BTreeMap<usize, usize>,
    /// Total steps.
    pub total: usize,
}

/// Summarizes a trace.
pub fn summarize<'a, I>(events: I) -> TraceSummary
where
    I: IntoIterator<Item = &'a Event>,
{
    let mut summary = TraceSummary::default();
    for e in events {
        *summary.steps_per_process.entry(e.pid.0).or_default() += 1;
        if e.op.is_mutation() {
            *summary.mutations_per_process.entry(e.pid.0).or_default() += 1;
        }
        summary.total += 1;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId};
    use crate::process::{Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
    use crate::system::System;
    use crate::value::Value;

    #[derive(Clone, Debug)]
    struct WriteOnce {
        wrote: bool,
    }

    impl SnapshotProtocol for WriteOnce {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            if self.wrote {
                ProtocolStep::Output(view[0].clone())
            } else {
                self.wrote = true;
                ProtocolStep::Update(0, Value::Int(7))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn sys() -> System {
        let mk = || {
            Box::new(SnapshotProcess::new(WriteOnce { wrote: false }, ObjectId(0)))
                as Box<dyn Process>
        };
        System::new(vec![Object::snapshot(1)], vec![mk(), mk()])
    }

    #[test]
    fn diagram_has_one_row_per_step_plus_header() {
        let mut s = sys();
        s.run_solo(ProcessId(0), 10).unwrap();
        let d = format_trace(s.trace(), 2);
        assert_eq!(d.lines().count(), s.trace().len() + 1);
        assert!(d.contains("U[0]=7"));
        assert!(d.contains("scan"));
    }

    #[test]
    fn columns_align_with_process_ids() {
        let mut s = sys();
        s.step(ProcessId(1)).unwrap();
        let d = format_trace(s.trace(), 2);
        let row = d.lines().nth(1).unwrap();
        // p1's cell starts after p0's empty column.
        let p0_start = d.lines().next().unwrap().find("p0").unwrap();
        let p1_start = d.lines().next().unwrap().find("p1").unwrap();
        assert!(row[p0_start..p1_start].trim().is_empty());
        assert!(row[p1_start..].contains("scan"));
    }

    #[test]
    fn summary_counts_steps_and_mutations() {
        let mut s = sys();
        s.run_solo(ProcessId(0), 10).unwrap();
        s.run_solo(ProcessId(1), 10).unwrap();
        let sum = summarize(s.trace());
        assert_eq!(sum.total, 6);
        assert_eq!(sum.steps_per_process[&0], 3);
        assert_eq!(sum.mutations_per_process[&0], 1);
    }

    #[test]
    fn fault_log_renders_coordinates() {
        use crate::fault::{FaultPlan, FaultScheduler};
        use crate::sched::RoundRobin;

        let mut s = sys();
        let plan = FaultPlan::parse("crash@1:1").unwrap();
        let mut sched = FaultScheduler::new(Box::new(RoundRobin::new()), plan);
        s.run(&mut sched, 1_000).unwrap();
        let [fired] = sched.applied() else {
            panic!("one fault fires: {:?}", sched.applied())
        };
        let line = fired.to_string();
        assert!(line.starts_with("crash@1:1 fired at decision "), "line was: {line}");
        assert!(line.ends_with(&format!("(global step {})", fired.step)), "line was: {line}");
    }

    fn event(pid: usize, n: i64) -> Event {
        Event {
            pid: ProcessId(pid),
            op: Operation::Write { obj: ObjectId(0), value: Value::Int(n) },
            resp: Response::Ack,
        }
    }

    #[test]
    fn trace_push_len_get_iter_roundtrip() {
        let mut trace = Trace::new();
        assert!(trace.is_empty());
        // Cross several seal boundaries.
        let n = 3 * 32 + 7;
        for i in 0..n {
            trace.push(event(i % 3, i as i64));
        }
        assert_eq!(trace.len(), n);
        assert!(!trace.is_empty());
        for i in 0..n {
            assert_eq!(trace[i], event(i % 3, i as i64), "index {i}");
            assert_eq!(trace.get(i), Some(&event(i % 3, i as i64)));
        }
        assert_eq!(trace.get(n), None);
        let collected: Vec<Event> = trace.iter().cloned().collect();
        assert_eq!(collected, (0..n).map(|i| event(i % 3, i as i64)).collect::<Vec<_>>());
        assert_eq!(trace.to_vec(), collected);
        assert_eq!(trace.iter().len(), n);
    }

    #[test]
    fn trace_events_from_matches_slicing() {
        let mut trace = Trace::new();
        let n = 100;
        for i in 0..n {
            trace.push(event(0, i as i64));
        }
        let all = trace.to_vec();
        for start in [0, 1, 31, 32, 33, 64, 96, 99, 100, 150] {
            let suffix: Vec<Event> =
                trace.events_from(start).cloned().collect();
            assert_eq!(
                suffix,
                all[start.min(n)..].to_vec(),
                "suffix from {start}"
            );
        }
    }

    #[test]
    fn trace_clone_is_equal_and_diverges_independently() {
        let mut trace = Trace::new();
        for i in 0..50 {
            trace.push(event(0, i));
        }
        trace.freeze();
        let mut fork = trace.clone();
        assert_eq!(trace, fork);
        fork.push(event(1, 99));
        assert_ne!(trace, fork);
        assert_eq!(trace.len(), 50);
        assert_eq!(fork.len(), 51);
        assert_eq!(fork[50], event(1, 99));
        // The original is untouched by the fork's divergence.
        assert_eq!(trace.to_vec(), (0..50).map(|i| event(0, i)).collect::<Vec<_>>());
    }

    #[test]
    fn trace_freeze_is_idempotent_and_preserves_contents() {
        let mut trace = Trace::new();
        for i in 0..10 {
            trace.push(event(0, i));
            trace.freeze();
            trace.freeze();
        }
        assert_eq!(trace.len(), 10);
        assert_eq!(trace.to_vec(), (0..10).map(|i| event(0, i)).collect::<Vec<_>>());
        // Equality is structural, not segment-layout-sensitive.
        let unfrozen: Trace = (0..10).map(|i| event(0, i)).collect();
        assert_eq!(trace, unfrozen);
    }

    #[test]
    fn mixed_segments_read_like_a_flat_trace() {
        // Inline one-event segments (`push_sealed` on a sealed trace),
        // segments sealed from a tail (`push_sealed` on an unsealed
        // one, `freeze`, the threshold) and an open tail, interleaved.
        let n = 120;
        let events: Vec<Event> = (0..n).map(|i| event(i % 3, i as i64)).collect();
        let mut trace = Trace::new();
        for (i, e) in events.iter().enumerate() {
            // 50..90 is a run of tail pushes long enough to reach the
            // threshold; 115.. stays in the open tail.
            match (i, i % 7) {
                (50..90 | 115.., _) => trace.push(e.clone()),
                (_, 0 | 1 | 4) => trace.push_sealed(e.clone()),
                (_, 5) => {
                    trace.push(e.clone());
                    trace.freeze();
                }
                _ => trace.push(e.clone()),
            }
        }
        assert!(!trace.tail.is_empty());
        let flat: Trace = events.iter().cloned().collect();
        assert_eq!(trace.len(), flat.len());
        for i in 0..=n {
            assert_eq!(trace.get(i), flat.get(i), "get({i})");
        }
        for k in 0..=n + 1 {
            assert!(trace.events_from(k).eq(flat.events_from(k)), "events_from({k})");
            assert_eq!(trace.events_from(k).len(), n.saturating_sub(k));
        }
        assert_eq!(trace.to_vec(), events);
        assert_eq!(trace, flat);
        let mut longer = trace.clone();
        longer.push_sealed(event(0, -1));
        assert_ne!(longer, flat);
        assert_eq!(longer.len(), n + 1);
        assert_eq!(longer.get(n), Some(&event(0, -1)));
        assert_eq!(trace.len(), n);
    }

    #[test]
    fn deep_trace_drops_without_stack_overflow() {
        // One-event segments maximise chain length: 200k frames would
        // overflow the stack if Segment::drop recursed. Both ways of
        // building them: sealing a one-event tail, and an inline event.
        let mut trace = Trace::new();
        for i in 0..200_000 {
            trace.push(event(0, i));
            trace.freeze();
        }
        assert_eq!(trace.len(), 200_000);
        drop(trace);
        let mut trace = Trace::new();
        for i in 0..200_000 {
            trace.push_sealed(event(0, i));
        }
        assert_eq!(trace.len(), 200_000);
        assert_eq!(trace.get(123_456), Some(&event(0, 123_456)));
        drop(trace);
    }

    /// Checks `trace` against `expected` through every reading method.
    fn assert_reads_like(trace: &Trace, expected: &[Event]) {
        let flat: Trace = expected.iter().cloned().collect();
        let n = expected.len();
        assert_eq!(trace.len(), n);
        for i in 0..=n {
            assert_eq!(trace.get(i), expected.get(i), "get({i})");
        }
        assert!(trace.iter().eq(expected.iter()));
        assert_eq!(trace.iter().len(), n);
        for k in 0..=n + 1 {
            assert!(trace.events_from(k).eq(flat.events_from(k)), "events_from({k})");
            assert_eq!(trace.events_from(k).len(), n.saturating_sub(k));
        }
        assert_eq!(trace.to_vec(), expected);
        assert_eq!(*trace, flat);
        assert_eq!(flat, *trace);
        let clone = trace.clone();
        assert_eq!(clone, flat);
        assert_eq!(flat, clone);
    }

    #[test]
    fn block_built_traces_read_like_flat_ones() {
        // A root of a sealed run, an inline event and an open tail
        // (frozen), then five levels of two blocks each. Every node of
        // a level has a child in each block of the next, and names an
        // event of any batch appended so far.
        let mut root = Trace::new();
        let mut root_events = Vec::new();
        for i in 0..40 {
            let e = event(i % 2, i as i64);
            if i == 35 {
                root.push_sealed(e.clone());
            } else {
                root.push(e.clone());
            }
            root_events.push(e);
        }
        root.freeze();
        let mut store = EventStore::default();
        let mut parents = Parents::root(&root);
        let mut flat: Vec<Vec<Vec<Event>>> = vec![vec![root_events]];
        let mut kept: Vec<(Trace, Vec<Event>)> = Vec::new();
        for level in 0..5 {
            store.append((0..3).map(|j| event(j, (100 * level + j) as i64)).collect());
            let events = Arc::new(store.clone());
            let mut blocks = Vec::new();
            let mut next = Vec::new();
            for b in 0..2 {
                let mut nodes = Vec::new();
                let mut flat_nodes = Vec::new();
                for (pb, parent_nodes) in flat.iter().enumerate() {
                    for (pn, parent) in parent_nodes.iter().enumerate() {
                        let e = (7 * pn + 3 * pb + b + level) % store.len();
                        let parent_tip = Tip { block: pb as u32, node: pn as u32 };
                        nodes.push(Node { parent: parent_tip, event: e as u32 });
                        let mut events = parent.clone();
                        events.push(store.get(e as u32).clone());
                        flat_nodes.push(events);
                    }
                }
                blocks.push(parents.extend(&events, nodes));
                next.push(flat_nodes);
            }
            parents = Parents::Blocks(Arc::new(blocks));
            flat = next;
            for (b, nodes) in flat.iter().enumerate() {
                for (n, expected) in nodes.iter().enumerate() {
                    let trace = parents.trace(Tip { block: b as u32, node: n as u32 });
                    assert_reads_like(&trace, expected);
                    if n % 5 == 0 {
                        kept.push((trace, expected.clone()));
                    }
                }
            }
        }
        // Retargeting one trace along a block reads like a fresh one.
        let Parents::Blocks(blocks) = &parents else { unreachable!() };
        let mut moving = Trace::at(&blocks[1], 0);
        for n in [3, 0, 9] {
            moving.point_at(&blocks[1], n);
            assert_reads_like(&moving, &flat[1][n as usize]);
        }
        moving.point_at(&blocks[0], 2);
        assert_reads_like(&moving, &flat[0][2]);
        // Pushing onto a node-built trace seals segments over it.
        let mut longer = moving.clone();
        let mut expected = flat[0][2].clone();
        for i in 0..40 {
            longer.push(event(2, -i));
            expected.push(event(2, -i));
        }
        longer.push_sealed(event(0, -100));
        expected.push(event(0, -100));
        assert_reads_like(&longer, &expected);
        assert_reads_like(&moving, &flat[0][2]);
        // Kept traces outlive the blocks' list and the store.
        drop((parents, store, moving, longer));
        for (trace, expected) in &kept {
            assert_reads_like(trace, expected);
        }
    }

    #[test]
    fn deep_block_chain_drops_without_stack_overflow() {
        // 100,000 single-node blocks, each the only block of its level,
        // over a root of 1,000 one-event segments: a recursive drop
        // would take a frame per link.
        let mut root = Trace::new();
        for i in 0..1_000 {
            root.push_sealed(event(0, i));
        }
        let mut store = EventStore::default();
        store.append(vec![event(1, 7)]);
        let store = Arc::new(store);
        let mut parents = Parents::root(&root);
        drop(root);
        for _ in 0..100_000 {
            let block = parents.extend(&store, vec![Node { parent: Tip::default(), event: 0 }]);
            parents = Parents::Blocks(Arc::new(vec![block]));
        }
        let trace = parents.trace(Tip::default());
        assert_eq!(trace.len(), 101_000);
        assert_eq!(trace.get(999), Some(&event(0, 999)));
        assert_eq!(trace.get(54_321), Some(&event(1, 7)));
        drop(parents);
        drop(trace);
    }

    #[test]
    fn op_and_resp_formatting() {
        assert_eq!(
            format_op(&Operation::Update {
                obj: ObjectId(0),
                component: 2,
                value: Value::Int(5)
            }),
            "U[2]=5"
        );
        assert_eq!(format_resp(&Response::Ack), "ok");
        assert_eq!(
            format_resp(&Response::View(vec![Value::Nil, Value::Int(1)].into())),
            "[⊥,1]"
        );
    }
}
