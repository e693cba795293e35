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

/// An immutable, `Arc`-shared run of consecutive events. Segments form
/// a parent chain: `parent` holds events `[0, start)`, this segment
/// holds `[start, start + events().len())`.
#[derive(Debug)]
struct Segment {
    parent: Option<Arc<Segment>>,
    start: usize,
    events: Events,
}

/// A segment's events. The explorer seals every configuration it builds
/// one step past a sealed parent, so a one-event segment keeps its event
/// inline: one heap block for the segment and its event together.
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
        // Unlink the parent chain iteratively: a recursive drop would
        // blow the stack on traces with hundreds of thousands of
        // events (one frame per segment).
        let mut parent = self.parent.take();
        while let Some(seg) = parent {
            match Arc::try_unwrap(seg) {
                Ok(mut owned) => parent = owned.parent.take(),
                Err(_) => break, // still shared: someone else drops it
            }
        }
    }
}

/// A copy-on-write execution trace: an `Arc`-shared sealed prefix plus
/// a small owned tail.
///
/// Forking a configuration used to deep-copy the whole event log,
/// making every explorer fork O(depth). `Clone` here copies one `Arc`
/// pointer and at most `SEAL_THRESHOLD` (32) tail events; after
/// [`Trace::freeze`], or on the sealed trace of a configuration
/// [`crate::system::System::with_successor`] built, a clone copies
/// nothing at all. Pushes still amortise to O(1): the
/// tail is sealed into a shared segment once it reaches the threshold.
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
    sealed: Option<Arc<Segment>>,
    /// Total events in the sealed chain.
    sealed_len: usize,
    tail: Vec<Event>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
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
        self.sealed = Some(Arc::new(segment));
    }

    /// Iterates the events in execution order.
    pub fn iter(&self) -> TraceIter<'_> {
        self.events_from(0)
    }

    /// Iterates the events from index `start` (clamped to the length)
    /// in execution order; whole segments before `start` are skipped
    /// without being walked.
    pub fn events_from(&self, start: usize) -> TraceIter<'_> {
        let mut slices: Vec<&[Event]> = Vec::new();
        let mut cursor = self.sealed.as_deref();
        while let Some(seg) = cursor {
            let events = seg.events();
            if seg.start + events.len() <= start {
                break; // this segment (and all parents) precede `start`
            }
            let skip = start.saturating_sub(seg.start);
            slices.push(&events[skip..]);
            cursor = seg.parent.as_deref();
        }
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
        let mut cursor = self.sealed.as_deref();
        while let Some(seg) = cursor {
            if i >= seg.start {
                return seg.events().get(i - seg.start);
            }
            cursor = seg.parent.as_deref();
        }
        None
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
