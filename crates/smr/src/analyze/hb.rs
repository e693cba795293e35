//! Pass 2 — the happens-before trace checker.
//!
//! Threads vector clocks through a recorded [`Trace`](crate::trace::Trace)'s
//! events to flag conflicting unsynchronized accesses (**RS-W006**)
//! and certifies that every atomic Block-Update's component updates
//! form a contiguous linearization window (**RS-W007**) — a second,
//! independent angle on what `linearizability.rs` establishes by
//! search.
//!
//! The checker is sound on honest traces: a trace produced by
//! [`System::step`](crate::system::System::step) replays exactly, so
//! RS-W006 fires only when the trace shows a declared-ownership
//! violation, two causally unordered mutations of an owned component,
//! or a response that **no** sequential replay of the events can
//! explain (a tampered or unlinearizable trace).

use super::diag::LintCode;
use crate::hb::{HbObserved, HbState};
use crate::process::ProcessId;
use crate::system::{Event, System};
use crate::trace::{format_op, format_resp};
use std::collections::HashMap;

/// Runs the vector-clock and replay checks over `events`, which must
/// describe an execution starting from the configuration of `initial`
/// (objects in their initial state, processes unstarted). Returns raw
/// RS-W006 findings.
///
/// The causal bookkeeping itself lives in [`crate::hb::HbState`] (one
/// incremental summary shared with the explorer's partial-order
/// reduction); this pass feeds it the recorded events, renders its
/// observations as RS-W006 diagnostics, and layers the sequential
/// replay check on top.
pub fn check_execution(initial: &System, events: &[Event]) -> Vec<(LintCode, String)> {
    let mut findings = Vec::new();
    let n = initial.process_count();
    let mut hb = HbState::new(n);
    let owner_of = |obj, component| initial.owner_of(obj, component);
    let mut objects = initial.objects().to_vec();

    for (i, event) in events.iter().enumerate() {
        let p = event.pid.0;
        let obj = event.op.object();
        match hb.observe(event, &owner_of) {
            HbObserved::Clean => {}
            HbObserved::BogusPid => {
                findings.push((
                    LintCode::HappensBefore,
                    format!("event {i} names process p{p}, but the system has only {n}"),
                ));
                continue;
            }
            HbObserved::ForeignMutation { owner, component } => {
                findings.push((
                    LintCode::HappensBefore,
                    format!(
                        "event {i}: p{p} mutates {obj} component {component} \
                         owned by p{} (ownership violated in the trace)",
                        owner.0
                    ),
                ));
            }
            HbObserved::RacingMutation { writer, component } => {
                findings.push((
                    LintCode::HappensBefore,
                    format!(
                        "event {i}: p{p} and p{} mutate {obj} component \
                         {component} without a happens-before edge between them",
                        writer.0
                    ),
                ));
            }
        }

        // Sequential replay: the trace is an interleaving of atomic
        // steps, so applying each op in order must reproduce its
        // recorded response exactly.
        let replayed = objects
            .get_mut(obj.0)
            .ok_or_else(|| format!("no object {obj}"))
            .and_then(|o| o.apply(&event.op).map_err(|e| e.to_string()));
        match replayed {
            Ok(resp) if resp == event.resp => {}
            Ok(resp) => findings.push((
                LintCode::HappensBefore,
                format!(
                    "event {i}: p{p} {} recorded response {} but sequential replay \
                     yields {} — no linearization of this trace exists",
                    format_op(&event.op),
                    format_resp(&event.resp),
                    format_resp(&resp)
                ),
            )),
            Err(err) => findings.push((
                LintCode::HappensBefore,
                format!(
                    "event {i}: p{p} {} cannot replay against the initial \
                     configuration: {err}",
                    format_op(&event.op)
                ),
            )),
        }
    }
    findings
}

/// A linearized snapshot-level event, as extracted from a certified
/// augmented-snapshot run (`rsim-snapshot::spec::lin_events`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinEvent {
    /// An atomic scan by `pid` at linearization time `time`.
    Scan {
        /// The scanning process.
        pid: ProcessId,
        /// Position in the linear order.
        time: u64,
    },
    /// One component update of a Block-Update batch.
    Update {
        /// The updating process.
        pid: ProcessId,
        /// The component written.
        component: usize,
        /// Batch identity: updates of one Block-Update share it.
        batch: u64,
        /// Whether the batch linearized atomically (vs. yielded).
        atomic: bool,
        /// Position in the linear order.
        time: u64,
    },
}

impl LinEvent {
    fn batch(&self) -> Option<(u64, bool)> {
        match self {
            LinEvent::Update { batch, atomic, .. } => Some((*batch, *atomic)),
            LinEvent::Scan { .. } => None,
        }
    }
}

/// Certifies that every **atomic** Block-Update batch occupies a
/// contiguous window of the linearization: its updates are strictly
/// consecutive, with no scan and no other process's operation between
/// the first and the last. Returns one RS-W007 message per violated
/// batch.
pub fn check_block_update_windows(events: &[LinEvent]) -> Vec<String> {
    let mut windows: HashMap<u64, (usize, usize, usize)> = HashMap::new(); // batch -> (first, last, count)
    for (i, event) in events.iter().enumerate() {
        if let Some((batch, true)) = event.batch() {
            windows
                .entry(batch)
                .and_modify(|(_, last, count)| {
                    *last = i;
                    *count += 1;
                })
                .or_insert((i, i, 1));
        }
    }
    let mut failures: Vec<(u64, String)> = Vec::new();
    for (&batch, &(first, last, count)) in &windows {
        let span = last - first + 1;
        if span != count {
            let intruders: Vec<String> = events[first..=last]
                .iter()
                .filter(|e| e.batch() != Some((batch, true)))
                .map(|e| match e {
                    LinEvent::Scan { pid, .. } => format!("scan by p{}", pid.0),
                    LinEvent::Update { pid, batch, .. } => {
                        format!("update by p{} (batch {batch})", pid.0)
                    }
                })
                .collect();
            failures.push((
                batch,
                format!(
                    "atomic Block-Update batch {batch} spans linearization \
                     positions {first}..={last} but has only {count} updates — \
                     interleaved with: {}",
                    intruders.join(", ")
                ),
            ));
        }
    }
    failures.sort_by_key(|(batch, _)| *batch);
    failures.into_iter().map(|(_, msg)| msg).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId, Operation, Response};
    use crate::sched::RoundRobin;
    use crate::value::Value;

    fn two_writer_system() -> System {
        use crate::process::{Process, SnapshotProcess};
        use crate::process::{ProtocolStep, SnapshotProtocol};

        #[derive(Clone, Debug)]
        struct WriteOnce {
            slot: usize,
            done: bool,
        }
        impl SnapshotProtocol for WriteOnce {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                if self.done {
                    ProtocolStep::Output(Value::Int(self.slot as i64))
                } else {
                    self.done = true;
                    ProtocolStep::Update(self.slot, Value::Int(self.slot as i64))
                }
            }
            fn components(&self) -> usize {
                2
            }
        }
        let processes = (0..2)
            .map(|slot| {
                Box::new(SnapshotProcess::new(WriteOnce { slot, done: false }, ObjectId(0)))
                    as Box<dyn Process>
            })
            .collect();
        System::new(vec![Object::snapshot(2)], processes)
    }

    #[test]
    fn honest_trace_is_conflict_free() {
        let initial = two_writer_system();
        let mut sys = initial.clone();
        sys.run(&mut RoundRobin::new(), 100).unwrap();
        let events = sys.trace().to_vec();
        assert!(check_execution(&initial, &events).is_empty());
    }

    #[test]
    fn tampered_response_is_flagged() {
        let initial = two_writer_system();
        let mut sys = initial.clone();
        sys.run(&mut RoundRobin::new(), 100).unwrap();
        let mut events = sys.trace().to_vec();
        // Corrupt the last scan's view.
        let scan = events
            .iter_mut()
            .rev()
            .find(|e| matches!(e.op, Operation::Scan { .. }))
            .unwrap();
        scan.resp = Response::View(vec![Value::Int(99), Value::Int(99)].into());
        let findings = check_execution(&initial, &events);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].1.contains("no linearization"), "{}", findings[0].1);
    }

    #[test]
    fn foreign_mutation_of_owned_component_is_flagged() {
        let mut initial = two_writer_system();
        initial.restrict_writer(ObjectId(0), 0, ProcessId(0));
        let events = vec![Event {
            pid: ProcessId(1),
            op: Operation::Update {
                obj: ObjectId(0),
                component: 0,
                value: Value::Int(9),
            },
            resp: Response::Ack,
        }];
        let findings = check_execution(&initial, &events);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].1.contains("owned by p0"), "{}", findings[0].1);
    }

    #[test]
    fn unordered_owner_handoff_is_flagged() {
        // Both processes mutate an owned component with no reads-from
        // edge between them: the clocks are concurrent. (Such a trace
        // cannot come from the runtime, which enforces ownership — it
        // models a merged/foreign trace under audit.)
        let mut initial = two_writer_system();
        initial.restrict_writer(ObjectId(0), 0, ProcessId(0));
        let write = |pid: usize, value: i64| Event {
            pid: ProcessId(pid),
            op: Operation::Update {
                obj: ObjectId(0),
                component: 0,
                value: Value::Int(value),
            },
            resp: Response::Ack,
        };
        let findings = check_execution(&initial, &[write(0, 1), write(1, 2)]);
        // p1's mutation violates ownership outright; the concurrency
        // check is subsumed for owned components.
        assert!(!findings.is_empty());
    }

    #[test]
    fn bogus_process_id_is_flagged() {
        let initial = two_writer_system();
        let events = vec![Event {
            pid: ProcessId(7),
            op: Operation::Scan { obj: ObjectId(0) },
            resp: Response::View(vec![Value::Nil, Value::Nil].into()),
        }];
        let findings = check_execution(&initial, &events);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].1.contains("p7"), "{}", findings[0].1);
    }

    fn upd(pid: usize, component: usize, batch: u64, atomic: bool, time: u64) -> LinEvent {
        LinEvent::Update { pid: ProcessId(pid), component, batch, atomic, time }
    }

    fn scan(pid: usize, time: u64) -> LinEvent {
        LinEvent::Scan { pid: ProcessId(pid), time }
    }

    #[test]
    fn contiguous_atomic_batches_certify() {
        let events = vec![
            upd(0, 0, 1, true, 0),
            upd(0, 1, 1, true, 1),
            scan(1, 2),
            upd(1, 0, 2, true, 3),
            upd(1, 1, 2, true, 4),
        ];
        assert!(check_block_update_windows(&events).is_empty());
    }

    #[test]
    fn scan_inside_atomic_window_fails() {
        let events = vec![upd(0, 0, 1, true, 0), scan(1, 1), upd(0, 1, 1, true, 2)];
        let failures = check_block_update_windows(&events);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("batch 1"), "{}", failures[0]);
        assert!(failures[0].contains("scan by p1"), "{}", failures[0]);
    }

    #[test]
    fn interleaved_atomic_batches_fail_both() {
        let events = vec![
            upd(0, 0, 1, true, 0),
            upd(1, 0, 2, true, 1),
            upd(0, 1, 1, true, 2),
            upd(1, 1, 2, true, 3),
        ];
        let failures = check_block_update_windows(&events);
        assert_eq!(failures.len(), 2);
    }

    #[test]
    fn yielded_batches_are_exempt() {
        // Non-atomic (yielded) Block-Updates may interleave freely.
        let events = vec![
            upd(0, 0, 1, false, 0),
            scan(1, 1),
            upd(0, 1, 1, false, 2),
        ];
        assert!(check_block_update_windows(&events).is_empty());
    }
}
