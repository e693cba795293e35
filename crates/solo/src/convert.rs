//! Theorem 35: converting a nondeterministic solo terminating protocol
//! into a deterministic obstruction-free protocol over the same
//! m-component object.
//!
//! For each non-final state `s` and response `a`, the determinized
//! transition `δ'_p(s, a)` is:
//!
//! * if a p-solo path from `s` starts with response `a` (which, with
//!   the expected view `E_p`, happens exactly when `a` is the solo
//!   response), the first state `s'` (in the total state order) lying
//!   on a *shortest* p-solo path from `s` through `a`;
//! * otherwise the first state of `δ_p(s, a)`.
//!
//! Along any solo run of the determinized protocol the shortest-path
//! length strictly decreases, so every solo run terminates:
//! obstruction-freedom. Every transition of Π′ is a transition of Π,
//! so every execution of Π′ is an execution of Π — the space
//! complexity is unchanged, which is how every obstruction-free space
//! lower bound transfers to nondeterministic solo terminating (hence
//! randomized wait-free) protocols.

use crate::machine::{EpState, MachineOp, MachineResponse, NondetMachine};
use rsim_smr::object::{ObjectId, Operation, Response};
use rsim_smr::process::{Poised, Process};
use rsim_smr::value::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Searches for the length of a shortest p-solo path from `start`
/// (number of steps to reach a final state, responses determined by
/// the expected view). Explores at most `budget` nodes.
pub fn shortest_solo_path<M: NondetMachine>(
    machine: &M,
    start: &EpState<M::State>,
    budget: usize,
) -> Option<usize> {
    if machine.output(&start.state).is_some() {
        return Some(0);
    }
    let mut seen: HashSet<EpState<M::State>> = HashSet::new();
    let mut queue: VecDeque<(EpState<M::State>, usize)> = VecDeque::new();
    seen.insert(start.clone());
    queue.push_back((start.clone(), 0));
    let mut explored = 0;
    while let Some((node, dist)) = queue.pop_front() {
        explored += 1;
        if explored > budget {
            return None;
        }
        let op = machine.step(&node.state);
        let resp = node.solo_response(&op);
        for succ in machine.transitions(&node.state, &resp) {
            let mut next = EpState { state: succ, ep: node.ep.clone() };
            next.advance_ep(&op, &resp);
            if machine.output(&next.state).is_some() {
                return Some(dist + 1);
            }
            if seen.insert(next.clone()) {
                queue.push_back((next, dist + 1));
            }
        }
    }
    None
}

/// The determinized protocol Π′ of Theorem 35, as a deterministic
/// [`Process`] over the m-component snapshot object `object`.
pub struct Determinized<M: NondetMachine> {
    machine: Arc<M>,
    aug: EpState<M::State>,
    object: ObjectId,
    budget: usize,
    cache: HashMap<EpState<M::State>, Option<usize>>,
}

impl<M: NondetMachine> Determinized<M> {
    /// Creates the determinized process with the given input.
    /// `budget` bounds each solo-path search (must exceed the
    /// protocol's solo path lengths).
    pub fn new(machine: Arc<M>, input: &Value, object: ObjectId, budget: usize) -> Self {
        let m = machine.components();
        let state = machine.initial(input);
        Determinized {
            machine,
            aug: EpState::initial(state, m),
            object,
            budget,
            cache: HashMap::new(),
        }
    }

    /// The current machine state.
    pub fn state(&self) -> &M::State {
        &self.aug.state
    }

    fn path_len(&mut self, node: &EpState<M::State>) -> Option<usize> {
        if let Some(len) = self.cache.get(node) {
            return *len;
        }
        let len = shortest_solo_path(self.machine.as_ref(), node, self.budget);
        self.cache.insert(node.clone(), len);
        len
    }

    /// `δ'` applied to the current state and response `resp`; advances
    /// the state and expected view.
    fn apply_deterministic_transition(&mut self, op: &MachineOp, resp: &MachineResponse) {
        let mut candidates = self
            .machine
            .transitions(&self.aug.state, resp);
        candidates.sort();
        candidates.dedup();
        assert!(!candidates.is_empty(), "δ must be nonempty");
        // Successor Ep is the same for all candidates.
        let mut ep_after = self.aug.clone();
        ep_after.advance_ep(op, resp);
        let chosen = if *resp == self.aug.solo_response(op) {
            // A solo path through `resp` may exist: pick the first
            // candidate on a shortest one.
            let mut best: Option<(usize, usize)> = None; // (len, index)
            for (idx, cand) in candidates.iter().enumerate() {
                let node = EpState { state: cand.clone(), ep: ep_after.ep.clone() };
                let len = if self.machine.output(cand).is_some() {
                    Some(0)
                } else {
                    self.path_len(&node)
                };
                if let Some(len) = len {
                    if best.is_none_or(|(b, _)| len < b) {
                        best = Some((len, idx));
                    }
                }
            }
            match best {
                Some((_, idx)) => candidates[idx].clone(),
                None => candidates[0].clone(),
            }
        } else {
            candidates[0].clone()
        };
        self.aug = EpState { state: chosen, ep: ep_after.ep };
    }
}

impl<M: NondetMachine> Clone for Determinized<M> {
    fn clone(&self) -> Self {
        Determinized {
            machine: Arc::clone(&self.machine),
            aug: self.aug.clone(),
            object: self.object,
            budget: self.budget,
            cache: self.cache.clone(),
        }
    }
}

impl<M: NondetMachine> fmt::Debug for Determinized<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Determinized({:?}, ep {:?})", self.aug.state, self.aug.ep)
    }
}

impl<M: NondetMachine + 'static> Process for Determinized<M> {
    fn poised(&self) -> Poised {
        if let Some(y) = self.machine.output(&self.aug.state) {
            return Poised::Output(y);
        }
        let op = match self.machine.step(&self.aug.state) {
            MachineOp::Scan => Operation::Scan { obj: self.object },
            MachineOp::Write { component, value } => Operation::Update {
                obj: self.object,
                component,
                value,
            },
            MachineOp::WriteMax { component, value } => Operation::WriteMax {
                obj: self.object,
                component,
                value,
            },
        };
        Poised::Step(op)
    }

    fn receive(&mut self, resp: Response) {
        let op = self.machine.step(&self.aug.state);
        let machine_resp = match resp {
            Response::View(view) => MachineResponse::View(view.to_vec()),
            Response::Ack => MachineResponse::Ack,
            other => panic!("unexpected response {other:?}"),
        };
        self.apply_deterministic_transition(&op, &machine_resp);
    }

    fn boxed_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn state_key(&self) -> String {
        // Exclude the memo cache: two processes with equal (state, Ep)
        // are behaviorally identical.
        format!("{:?}{:?}", self.aug.state, self.aug.ep)
    }

    fn write_state_key(&self, out: &mut dyn fmt::Write) {
        // Must stream the same bytes as `state_key` above.
        let _ = write!(out, "{:?}{:?}", self.aug.state, self.aug.ep);
    }
}

/// Builds an n-process system of determinized processes over the given
/// shared object (a snapshot or a max-register with the machine's
/// component count).
pub fn determinized_system_over<M: NondetMachine + 'static>(
    machine: Arc<M>,
    inputs: &[Value],
    budget: usize,
    object: rsim_smr::object::Object,
) -> rsim_smr::system::System {
    assert_eq!(
        object.register_cost(),
        machine.components(),
        "object size must match the machine's component count"
    );
    let processes = inputs
        .iter()
        .map(|input| {
            Box::new(Determinized::new(
                Arc::clone(&machine),
                input,
                ObjectId(0),
                budget,
            )) as Box<dyn Process>
        })
        .collect();
    rsim_smr::system::System::new(vec![object], processes)
}

/// Builds an n-process system of determinized processes over a shared
/// m-component snapshot.
pub fn determinized_system<M: NondetMachine + 'static>(
    machine: Arc<M>,
    inputs: &[Value],
    budget: usize,
) -> rsim_smr::system::System {
    let m = machine.components();
    determinized_system_over(machine, inputs, budget, rsim_smr::object::Object::snapshot(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{RacingState, RandomizedRacing};
    use rsim_smr::explore::{Explorer, Limits};
    use rsim_smr::process::ProcessId;
    use rsim_smr::sched::Random;

    #[test]
    fn shortest_path_from_initial_state() {
        let machine = RandomizedRacing::new(2);
        let start = EpState::initial(
            machine.initial(&Value::Int(1)),
            2,
        );
        // Solo: write to comp 0, scan, write to comp 1, scan (final on
        // that scan's transition): path = scan, write, scan, write,
        // scan→final = 5 steps.
        let len = shortest_solo_path(&machine, &start, 10_000).unwrap();
        assert_eq!(len, 5);
    }

    #[test]
    fn determinized_solo_run_terminates() {
        let machine = Arc::new(RandomizedRacing::new(2));
        let mut sys = determinized_system(
            Arc::clone(&machine),
            &[Value::Int(1), Value::Int(2)],
            10_000,
        );
        let out = sys.run_solo(ProcessId(0), 100).unwrap();
        assert_eq!(out, Value::Int(1));
    }

    #[test]
    fn determinized_is_obstruction_free_everywhere() {
        // Theorem 35's conclusion: from every reachable configuration
        // every solo run terminates.
        let machine = Arc::new(RandomizedRacing::new(2));
        let sys = determinized_system(
            Arc::clone(&machine),
            &[Value::Int(1), Value::Int(2)],
            10_000,
        );
        let explorer = Explorer::new(Limits { max_depth: 14, max_configs: 100_000 });
        let report = explorer.check_solo_termination(&sys, 40).unwrap();
        assert!(report.is_clean(), "violation: {:?}", report.violation);
        // Every reachable configuration is covered within the bound.
        assert!(!report.truncated, "{report:?}");
    }

    #[test]
    fn every_execution_of_pi_prime_is_an_execution_of_pi() {
        // Each transition chosen by Π′ must be in δ of Π. Replay a run
        // of Π′ and check containment step by step.
        let machine = Arc::new(RandomizedRacing::new(2));
        let mut sys = determinized_system(
            Arc::clone(&machine),
            &[Value::Int(1), Value::Int(2)],
            10_000,
        );
        sys.run(&mut Random::seeded(3), 10_000).unwrap();
        // Track each process through the trace, mirroring transitions.
        let mut states: Vec<EpState<RacingState>> = [Value::Int(1), Value::Int(2)]
            .iter()
            .map(|input| EpState::initial(machine.initial(input), 2))
            .collect();
        for event in sys.trace() {
            let pid = event.pid.0;
            let op = machine.step(&states[pid].state);
            let resp = match &event.resp {
                rsim_smr::object::Response::View(v) => MachineResponse::View(v.to_vec()),
                rsim_smr::object::Response::Ack => MachineResponse::Ack,
                other => panic!("{other:?}"),
            };
            let succs = machine.transitions(&states[pid].state, &resp);
            // The state Π′ reached must be one of Π's successors; mirror
            // by re-running the deterministic choice is overkill — we
            // verify *containment*: some successor matches the next
            // observable behavior. Reconstruct via the same rule.
            let mut ep_after = states[pid].clone();
            ep_after.advance_ep(&op, &resp);
            // Accept any successor; the containment assertion is that
            // succs is nonempty and the mirrored state stays legal.
            assert!(!succs.is_empty());
            // Use the first successor on a shortest path (mirror of δ′)
            // to keep the mirror in lock-step with Π′.
            let mut cands = succs.clone();
            cands.sort();
            cands.dedup();
            let chosen = if resp == states[pid].solo_response(&op) {
                let mut best: Option<(usize, RacingState)> = None;
                for cand in &cands {
                    let node = EpState { state: cand.clone(), ep: ep_after.ep.clone() };
                    let len = if machine.output(cand).is_some() {
                        Some(0)
                    } else {
                        shortest_solo_path(machine.as_ref(), &node, 10_000)
                    };
                    if let Some(len) = len {
                        if best.as_ref().is_none_or(|(b, _)| len < *b) {
                            best = Some((len, cand.clone()));
                        }
                    }
                }
                best.map(|(_, s)| s).unwrap_or_else(|| cands[0].clone())
            } else {
                cands[0].clone()
            };
            assert!(
                succs.contains(&chosen),
                "δ' chose a state outside δ: {chosen:?} not in {succs:?}"
            );
            states[pid] = EpState { state: chosen, ep: ep_after.ep };
        }
        // The mirrored final states agree with the system's outputs.
        for (pid, st) in states.iter().enumerate() {
            if let Some(out) = sys.output(ProcessId(pid)) {
                assert_eq!(machine.output(&st.state), Some(out));
            }
        }
    }

    #[test]
    fn determinized_uses_same_space() {
        let machine = Arc::new(RandomizedRacing::new(3));
        let sys = determinized_system(machine, &[Value::Int(1)], 10_000);
        assert_eq!(sys.space_complexity(), 3);
    }

    #[test]
    fn max_register_machine_determinizes_and_is_of() {
        use crate::machine::MaxRegisterRacing;
        use rsim_smr::object::Object;
        let machine = Arc::new(MaxRegisterRacing::new(1, 8));
        let mk = |machine: &Arc<MaxRegisterRacing>| {
            determinized_system_over(
                Arc::clone(machine),
                &[Value::Int(1), Value::Int(2)],
                100_000,
                Object::max_register(1),
            )
        };
        let mut sys = mk(&machine);
        let out = sys.run_solo(ProcessId(0), 200).unwrap();
        assert_eq!(out, Value::Int(1));
        // The max-register trace is ABA-free by construction
        // (writemax never lowers a component).
        let fresh = mk(&machine);
        let explorer = Explorer::new(Limits { max_depth: 12, max_configs: 60_000 });
        let report = explorer.check_solo_termination(&fresh, 60).unwrap();
        assert!(report.is_clean(), "{:?}", report.violation);
        // Contended runs: the max only grows, so values are monotone.
        let mut sys2 = mk(&machine);
        sys2.run(&mut Random::seeded(4), 50_000).unwrap();
        let mut last = i64::MIN;
        for ev in sys2.trace() {
            if let rsim_smr::object::Response::View(view) = &ev.resp {
                let cur = view[0].as_int().unwrap_or(i64::MIN);
                assert!(cur >= last, "max-register went backwards");
                last = cur;
            }
        }
    }

    #[test]
    fn random_runs_terminate() {
        // Under random schedules the determinized protocol terminates
        // in most runs (obstruction-freedom plus scheduler luck), and
        // validity always holds.
        let machine = Arc::new(RandomizedRacing::new(2));
        let mut terminated = 0;
        for seed in 0..20 {
            let mut sys = determinized_system(
                Arc::clone(&machine),
                &[Value::Int(1), Value::Int(2)],
                10_000,
            );
            sys.run(&mut Random::seeded(seed), 20_000).unwrap();
            if sys.all_terminated() {
                terminated += 1;
                for out in sys.outputs().into_iter().flatten() {
                    assert!(out == Value::Int(1) || out == Value::Int(2));
                }
            }
        }
        assert!(terminated >= 10, "only {terminated}/20 terminated");
    }
}
