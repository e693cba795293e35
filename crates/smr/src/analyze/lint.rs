//! Pass 1 — the static protocol linter.
//!
//! An abstract interpreter over `Operation`/`Poised`/`ProtocolStep`
//! footprints: each process is run *solo* against a private copy of
//! the base objects, with ownership enforcement disabled so that its
//! **intended** writes become observable even when the runtime would
//! reject them. No schedule is executed and the analyzed [`System`] is
//! never mutated.
//!
//! The solo streams feed five checks:
//!
//! * **RS-W001** — a mutation targets a component whose declared
//!   owner is another process (§3 single-writer precondition).
//! * **RS-W002** — a process's own writable value stream revisits an
//!   earlier value (Corollary 36 ABA-freedom), via
//!   [`check_aba_events`].
//! * **RS-W003** — no `(f, d)` pair makes Theorem 21's reduction
//!   feasible for this `(n, m)` footprint.
//! * **RS-W004** — a solo run errors out or exhausts its budget
//!   without an output: the remaining steps are dead or the structure
//!   (e.g. a 6-step Block-Update) can never complete.
//! * **RS-W005** — the reserved yield symbol leaks into a component
//!   or an output.

use super::diag::LintCode;
use super::interfere::covering_budget;
use crate::object::Operation;
use crate::process::{Poised, ProcessId};
use crate::system::{Event, System};
use crate::value::Value;
use std::collections::HashMap;

/// Default solo-step budget for the abstract interpreter.
pub const DEFAULT_BUDGET: usize = 256;

/// The reserved yield symbol `Y` (§4): the empty tuple, which no
/// well-formed protocol value uses. Protocol writes and outputs must
/// never contain it — the augmented snapshot construction reserves it
/// for yielded Block-Updates.
pub fn yield_symbol() -> Value {
    Value::tuple(Vec::new())
}

/// `true` when `value` is (or contains) the reserved yield symbol.
pub fn contains_yield(value: &Value) -> bool {
    match value {
        Value::Tuple(items) => items.is_empty() || items.iter().any(contains_yield),
        Value::Pair(p) => contains_yield(&p.0) || contains_yield(&p.1),
        _ => false,
    }
}

/// The component a mutation writes (mirrors the runtime's ownership
/// check). Re-exported from the happens-before runtime core, which the
/// linter shares with the explorer's partial-order reduction.
pub use crate::hb::mutated_component;

/// The value a mutation writes, if it writes one unconditionally.
fn written_value(op: &Operation) -> Option<&Value> {
    match op {
        Operation::Write { value, .. }
        | Operation::Update { value, .. }
        | Operation::WriteMax { value, .. }
        | Operation::Swap { value, .. } => Some(value),
        Operation::Cas { update, .. } => Some(update),
        _ => None,
    }
}

/// Checks an event stream for ABA patterns: per `(object, component)`,
/// no value may reappear after the component held a different value in
/// between. This is the core of `rsim-solo::aba::check_aba_freedom`
/// (which now delegates here) — Corollary 36's precondition.
///
/// # Errors
///
/// Returns a description of the first ABA pattern found.
pub fn check_aba_events<'a, I>(trace: I) -> Result<(), String>
where
    I: IntoIterator<Item = &'a Event>,
{
    // Per (object, component): full value history.
    let mut histories: HashMap<(usize, usize), Vec<Value>> = HashMap::new();
    for event in trace {
        let (obj, component, value) = match &event.op {
            Operation::Update { obj, component, value } => (obj.0, *component, value),
            Operation::Write { obj, value } => (obj.0, 0, value),
            _ => continue,
        };
        let history = histories.entry((obj, component)).or_default();
        if history.last() == Some(value) {
            continue; // value unchanged: not an ABA
        }
        if history.contains(value) {
            return Err(format!(
                "ABA on object {obj} component {component}: value {value:?} \
                 reappears after {:?}",
                history.last()
            ));
        }
        history.push(value.clone());
    }
    Ok(())
}

/// Runs Pass 1 over `sys`, returning raw `(code, message)` findings.
/// `budget` bounds each process's solo interpretation (use
/// [`DEFAULT_BUDGET`] unless the protocol needs longer solo runs).
pub fn lint_system(sys: &System, budget: usize) -> Vec<(LintCode, String)> {
    let mut findings = Vec::new();
    let n = sys.process_count();
    let m = sys.space_complexity();

    // (c) component footprint vs. the Theorem 21 bound.
    if n >= 2 && covering_budget(n, m).is_none() {
        findings.push((
            LintCode::Footprint,
            format!(
                "footprint m = {m} registers with n = {n} processes: no (f, d) \
                 satisfies (f - d)*m + d <= n, so Theorem 21's reduction cannot fire"
            ),
        ));
    }

    // Solo abstract interpretation, one process at a time.
    for pid in (0..n).map(ProcessId) {
        let Some(proc_ref) = sys.process(pid) else { continue };
        let mut proc = proc_ref.boxed_clone();
        let mut objects = sys.objects().to_vec();
        let mut stream: Vec<Event> = Vec::new();
        let mut outcome: Option<Value> = None;

        for step in 0..budget {
            match proc.poised() {
                Poised::Output(value) => {
                    outcome = Some(value);
                    break;
                }
                Poised::Step(op) => {
                    // (a) single-writer discipline: intended write vs.
                    // declared owner.
                    if let Some(component) = mutated_component(&op) {
                        if let Some(owner) = sys.owner_of(op.object(), component) {
                            if owner != pid {
                                findings.push((
                                    LintCode::SingleWriter,
                                    format!(
                                        "process p{} mutates {} component {component} \
                                         owned by p{} (single-writer discipline, §3)",
                                        pid.0,
                                        op.object(),
                                        owner.0
                                    ),
                                ));
                            }
                        }
                    }
                    // (e) yield-symbol leakage into a component.
                    if let Some(value) = written_value(&op) {
                        if contains_yield(value) {
                            findings.push((
                                LintCode::YieldSymbol,
                                format!(
                                    "process p{} writes the reserved yield symbol Y \
                                     via {} at solo step {step}",
                                    pid.0,
                                    crate::trace::format_op(&op)
                                ),
                            ));
                        }
                    }
                    // Apply directly to the private copy — ownership
                    // deliberately unenforced so the intended write is
                    // observable.
                    let resp = match objects
                        .get_mut(op.object().0)
                        .ok_or_else(|| format!("no object {}", op.object()))
                        .and_then(|o| o.apply(&op).map_err(|e| e.to_string()))
                    {
                        Ok(resp) => resp,
                        Err(err) => {
                            findings.push((
                                LintCode::DeadStep,
                                format!(
                                    "process p{}'s solo step {step} \
                                     ({}) cannot execute: {err}",
                                    pid.0,
                                    crate::trace::format_op(&op)
                                ),
                            ));
                            break;
                        }
                    };
                    stream.push(Event { pid, op, resp: resp.clone() });
                    proc.receive(resp);
                }
            }
        }

        match &outcome {
            // (e) yield-symbol leakage into the output.
            Some(value) if contains_yield(value) => findings.push((
                LintCode::YieldSymbol,
                format!("process p{} outputs the reserved yield symbol Y", pid.0),
            )),
            Some(_) => {}
            // (d) no output within the budget: dead steps or a
            // Block-Update that never completes its 6-step structure.
            None if stream.len() >= budget => findings.push((
                LintCode::DeadStep,
                format!(
                    "process p{} produces no output within {budget} solo steps: \
                     remaining protocol steps are unreachable or its Block-Update \
                     never completes",
                    pid.0
                ),
            )),
            None => {}
        }

        // (b) ABA-freedom of this process's own writable value stream.
        if let Err(err) = check_aba_events(&stream) {
            findings.push((
                LintCode::AbaFreedom,
                format!("process p{}'s solo write stream violates ABA-freedom: {err}", pid.0),
            ));
        }
    }

    findings.sort_by_key(|f| f.0);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId, Response};
    use crate::process::Process;

    /// Writes the given component values in order, then outputs.
    #[derive(Clone, Debug)]
    struct Scripted {
        writes: Vec<(usize, Value)>,
        output: Value,
        at: usize,
        waiting: bool,
    }

    impl Scripted {
        fn new(writes: Vec<(usize, Value)>, output: Value) -> Self {
            Scripted { writes, output, at: 0, waiting: false }
        }
    }

    impl Process for Scripted {
        fn poised(&self) -> Poised {
            match self.writes.get(self.at) {
                Some((component, value)) => Poised::Step(Operation::Update {
                    obj: ObjectId(0),
                    component: *component,
                    value: value.clone(),
                }),
                None => Poised::Output(self.output.clone()),
            }
        }

        fn receive(&mut self, _resp: Response) {
            assert!(!self.waiting);
            self.at += 1;
        }

        fn boxed_clone(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }

        fn state_key(&self) -> String {
            format!("scripted:{}", self.at)
        }
    }

    fn scripted_system(scripts: Vec<Scripted>, m: usize) -> System {
        let processes = scripts
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn Process>)
            .collect();
        System::new(vec![Object::snapshot(m)], processes)
    }

    fn codes(findings: &[(LintCode, String)]) -> Vec<LintCode> {
        findings.iter().map(|(c, _)| *c).collect()
    }

    #[test]
    fn clean_protocol_produces_no_findings() {
        // n = 3, m = 2 is Theorem 21-feasible (f = 2, d = 1).
        let sys = scripted_system(
            vec![
                Scripted::new(vec![(0, Value::Int(1))], Value::Int(1)),
                Scripted::new(vec![(1, Value::Int(2))], Value::Int(2)),
                Scripted::new(vec![(0, Value::Int(3))], Value::Int(3)),
            ],
            2,
        );
        assert!(lint_system(&sys, DEFAULT_BUDGET).is_empty());
    }

    #[test]
    fn trespassing_write_fires_w001() {
        let mut sys = scripted_system(
            vec![
                Scripted::new(vec![(1, Value::Int(7))], Value::Int(0)),
                Scripted::new(vec![(1, Value::Int(8))], Value::Int(0)),
                Scripted::new(vec![(0, Value::Int(9))], Value::Int(0)),
            ],
            2,
        );
        sys.restrict_writer(ObjectId(0), 1, ProcessId(1));
        let findings = lint_system(&sys, DEFAULT_BUDGET);
        assert_eq!(codes(&findings), vec![LintCode::SingleWriter]);
        assert!(findings[0].1.contains("p0"), "{}", findings[0].1);
        assert!(findings[0].1.contains("owned by p1"), "{}", findings[0].1);
    }

    #[test]
    fn value_revisit_fires_w002() {
        let sys = scripted_system(
            vec![Scripted::new(
                vec![(0, Value::Int(1)), (0, Value::Int(2)), (0, Value::Int(1))],
                Value::Int(1),
            )],
            1,
        );
        // n = 1: the footprint check is skipped, only ABA fires.
        let findings = lint_system(&sys, DEFAULT_BUDGET);
        assert_eq!(codes(&findings), vec![LintCode::AbaFreedom]);
    }

    #[test]
    fn infeasible_footprint_fires_w003() {
        // n = 2, m = 8: (f - d)*8 + d <= 2 has no solution with d < f.
        let sys = scripted_system(
            vec![
                Scripted::new(vec![(0, Value::Int(1))], Value::Int(1)),
                Scripted::new(vec![(1, Value::Int(2))], Value::Int(2)),
            ],
            8,
        );
        let findings = lint_system(&sys, DEFAULT_BUDGET);
        assert_eq!(codes(&findings), vec![LintCode::Footprint]);
    }

    #[test]
    fn feasibility_formula_matches_theorem_21() {
        // RS-W003 fires exactly when `covering_budget` finds no (f, d).
        // racing defaults: n = 3, m = 2 — f = 2, d = 1 gives 2 + 1 <= 3.
        assert!(covering_budget(3, 2).is_some());
        assert!(covering_budget(4, 8).is_none());
        assert!(covering_budget(10, 1).is_some());
    }

    #[test]
    fn budget_exhaustion_fires_w004() {
        // A spinner: writes fresh values forever, never outputs.
        let writes: Vec<(usize, Value)> =
            (0..512).map(|i| (0usize, Value::Int(i))).collect();
        let sys = scripted_system(vec![Scripted::new(writes, Value::Nil)], 1);
        let findings = lint_system(&sys, 16);
        assert_eq!(codes(&findings), vec![LintCode::DeadStep]);
        assert!(findings[0].1.contains("16 solo steps"), "{}", findings[0].1);
    }

    #[test]
    fn bad_component_fires_w004() {
        // Component 5 of a 2-component snapshot does not exist.
        let sys = scripted_system(
            vec![Scripted::new(vec![(5, Value::Int(1))], Value::Int(1))],
            2,
        );
        let findings = lint_system(&sys, DEFAULT_BUDGET);
        assert_eq!(codes(&findings), vec![LintCode::DeadStep]);
        assert!(findings[0].1.contains("cannot execute"), "{}", findings[0].1);
    }

    #[test]
    fn yield_leak_fires_w005_for_write_and_output() {
        let sys = scripted_system(
            vec![Scripted::new(vec![(0, yield_symbol())], yield_symbol())],
            1,
        );
        let findings = lint_system(&sys, DEFAULT_BUDGET);
        assert_eq!(
            codes(&findings),
            vec![LintCode::YieldSymbol, LintCode::YieldSymbol]
        );
    }

    #[test]
    fn yield_detection_sees_nested_values() {
        assert!(contains_yield(&yield_symbol()));
        assert!(contains_yield(&Value::pair(Value::Int(1), yield_symbol())));
        assert!(contains_yield(&Value::tuple(vec![Value::Int(1), yield_symbol()])));
        assert!(!contains_yield(&Value::Nil));
        assert!(!contains_yield(&Value::triple(
            Value::Int(1),
            Value::Int(2),
            Value::Int(3)
        )));
    }

    #[test]
    fn aba_core_matches_previous_solo_semantics() {
        let ev = |value: i64| Event {
            pid: ProcessId(0),
            op: Operation::Update {
                obj: ObjectId(0),
                component: 0,
                value: Value::Int(value),
            },
            resp: Response::Ack,
        };
        // Repeats of the current value are not ABA.
        check_aba_events(&[ev(1), ev(1), ev(2)]).unwrap();
        // A revisit after an intervening value is.
        let err = check_aba_events(&[ev(1), ev(2), ev(1)]).unwrap_err();
        assert!(err.contains("ABA on object 0 component 0"), "{err}");
    }
}
