//! Phased-racing agreement: the x-obstruction-free k-set agreement
//! family fed to the revisionist simulation as Π.
//!
//! The protocol is in the style of the anonymous space-optimal
//! algorithms of Bouzid–Raynal–Sutra \[16\] and Zhu \[47\]: `m` multi-writer
//! snapshot components each hold a `(phase, value)` pair; processes
//! *race* to fill all components with their value, first at phase 1
//! (propose) and then at phase 2 (commit), adopting the lexicographic
//! maximum entry they see.
//!
//! Each component holds a `(round, phase, value)` triple. Rules after
//! each scan (Assumption 1 shape: scan → update/output):
//!
//! 1. If some entry has a strictly larger `(round, phase)` than mine,
//!    adopt it (largest value among entries at that level).
//! 2. If some entry at *my* `(round, phase)` carries a different value,
//!    **escalate**: move to round `r + 1`, phase 1, carrying the
//!    largest value involved. Escalation — never value racing — is what
//!    makes all-equal views exclusive: an all-`(r, ph, v)` view can
//!    only exist if no larger entry was ever written, active processes
//!    that see the conflict stop writing at level `(r, ph)`, and the
//!    at most `n − 1` stale covering writes cannot flip all `m ≥ n`
//!    components to a rival triple.
//! 3. If all `m` components equal my triple: at phase 1, advance to
//!    phase 2; at phase 2, **output** my value.
//! 4. Write my triple over the smallest component (ties: lowest index).
//!
//! Properties (validated by the test suite and the violation searcher):
//!
//! * **Obstruction-free** for any `m ≥ 1`: a solo process escalates
//!   finitely often, then fills all components at phase 1, advances,
//!   fills at phase 2, and decides. Verified by exhaustive
//!   solo-termination checks from all reachable configurations.
//! * **Agreement in practice at `m ≥ n − k + 1`**: hundreds of
//!   randomized schedules produce no violation. However, the exhaustive
//!   explorer *does* find rare adversarial interleavings that violate
//!   agreement even at `m = n` — deciders can blindly overwrite
//!   higher-round entries they never see. This is a deliberate,
//!   documented finding: space-*optimal* obstruction-free agreement is
//!   exactly the research-grade problem of \[16\]/\[47\] (their algorithms
//!   store unbounded history in registers), and our model checker
//!   demonstrates why the naive space-optimal constructions fail. The
//!   provably correct reference consensus lives in
//!   [`crate::ladder`], at the cost of more registers.
//! * **Observably broken when `m` is below the paper's bound**
//!   (Corollary 33): the violation searcher finds disagreement quickly —
//!   this is exactly the protocol family the lower bound says cannot
//!   exist correctly at such `m`, and the revisionist simulation
//!   *extracts* those violations as wait-free f-process
//!   counterexamples. For the reduction, only obstruction-freedom of Π
//!   matters — which holds for every `m`.

use rsim_smr::fingerprint::{write_i64, write_u64};
use rsim_smr::process::{ProtocolStep, SnapshotProtocol};
use rsim_smr::value::Value;
use std::fmt;

/// Entry in a component: `(round, phase, value)`; ⊥ is "no entry".
fn parse(entry: &Value) -> Option<(i64, i64, &Value)> {
    let t = entry.as_tuple()?;
    match t {
        [r, ph, v] => Some((r.as_int()?, ph.as_int()?, v)),
        _ => None,
    }
}

fn encode(round: i64, phase: i64, v: &Value) -> Value {
    Value::triple(Value::Int(round), Value::Int(phase), v.clone())
}

/// The phased-racing agreement protocol for one process.
///
/// # Examples
///
/// Solo execution decides the process's own input:
///
/// ```
/// use rsim_protocols::racing::PhasedRacing;
/// use rsim_smr::object::{Object, ObjectId};
/// use rsim_smr::process::{Process, SnapshotProcess};
/// use rsim_smr::system::System;
/// use rsim_smr::value::Value;
///
/// # fn main() -> Result<(), rsim_smr::error::ModelError> {
/// let p = PhasedRacing::new(3, Value::Int(42));
/// let mut sys = System::new(
///     vec![Object::snapshot(3)],
///     vec![Box::new(SnapshotProcess::new(p, ObjectId(0))) as Box<dyn Process>],
/// );
/// let out = sys.run_solo(rsim_smr::process::ProcessId(0), 100)?;
/// assert_eq!(out, Value::Int(42));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PhasedRacing {
    m: usize,
    round: i64,
    phase: i64,
    value: Value,
    escalation: bool,
}

impl PhasedRacing {
    /// Creates the protocol over `m` components with the given input.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize, input: Value) -> Self {
        assert!(m >= 1, "need at least one component");
        PhasedRacing { m, round: 1, phase: 1, value: input, escalation: true }
    }

    /// The escalation-free variant: on a same-level value conflict it
    /// value-races (adopts the larger value at the same level) instead
    /// of escalating the round. The exhaustive explorer finds a
    /// consensus violation for this variant even at `m = n` — kept as a
    /// regression witness for why escalation is needed (and as another
    /// "broken Π" source for the simulation).
    pub fn without_escalation(m: usize, input: Value) -> Self {
        PhasedRacing { escalation: false, ..PhasedRacing::new(m, input) }
    }

    /// The process's current preference.
    pub fn preference(&self) -> &Value {
        &self.value
    }

    /// The process's current round.
    pub fn round(&self) -> i64 {
        self.round
    }

    /// The process's current phase (1 = propose, 2 = commit).
    pub fn phase(&self) -> i64 {
        self.phase
    }

    /// The derived `Debug` rendering, written without `core::fmt`.
    fn write_debug(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_str("PhasedRacing { m: ")?;
        write_u64(out, self.m as u64)?;
        out.write_str(", round: ")?;
        write_i64(out, self.round)?;
        out.write_str(", phase: ")?;
        write_i64(out, self.phase)?;
        out.write_str(", value: ")?;
        self.value.write_key(out)?;
        out.write_str(if self.escalation {
            ", escalation: true }"
        } else {
            ", escalation: false }"
        })
    }
}

impl SnapshotProtocol for PhasedRacing {
    fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
        debug_assert_eq!(view.len(), self.m);
        let entries = || view.iter().filter_map(parse);
        // 1. Behind the frontier? Adopt the largest entry.
        if let Some((r, ph, v)) = entries().max() {
            if (r, ph) > (self.round, self.phase) {
                self.round = r;
                self.phase = ph;
                self.value = v.clone();
            }
        }
        // 2. Same-level value conflict → escalate (or, in the broken
        // variant, value-race in place).
        let rival = entries()
            .filter(|&(r, ph, v)| r == self.round && ph == self.phase && *v != self.value)
            .map(|(_, _, v)| v)
            .max();
        if let Some(w) = rival {
            if self.escalation {
                self.round += 1;
                self.phase = 1;
            }
            if *w > self.value {
                self.value = w.clone();
            }
        }
        // 2b. Commit deference: at phase 1, a commit (phase-2) entry
        // from an earlier round may be a value some process has already
        // decided (its other copies blindly overwritten); adopt the
        // largest such committed value. Without this rule a process
        // that escalated past round r can commit a rival value while a
        // round-r commit was being decided — the exhaustive explorer
        // found exactly that interleaving.
        if self.escalation && self.phase == 1 {
            let committed = entries()
                .filter(|&(r, ph, _)| ph == 2 && r < self.round)
                .map(|(_, _, v)| v)
                .max();
            if let Some(w) = committed {
                if *w != self.value {
                    self.value = w.clone();
                }
            }
        }
        // 3. All components equal my triple?
        let mine = Some((self.round, self.phase, &self.value));
        if view.iter().all(|e| parse(e) == mine) {
            if self.phase == 2 {
                return ProtocolStep::Output(self.value.clone());
            }
            self.phase = 2;
        }
        // 4. Write over the smallest component (⊥ is smallest).
        let target = (0..self.m)
            .min_by(|&a, &b| view[a].cmp(&view[b]))
            .expect("m >= 1");
        ProtocolStep::Update(target, encode(self.round, self.phase, &self.value))
    }

    fn components(&self) -> usize {
        self.m
    }

    // Campaigns and the explorer fingerprint every step; this writes
    // the same bytes as the default `{self:?}` without `core::fmt`.
    fn write_key(&self, out: &mut dyn fmt::Write) {
        let _ = self.write_debug(out);
    }
}

/// Builds an n-process phased-racing system over `m` components, with
/// the given inputs. This is the standard Π for the k-set agreement
/// experiments (`m = n − k + x` is the paper's upper bound \[16\]).
pub fn racing_system(m: usize, inputs: &[Value]) -> rsim_smr::system::System {
    use rsim_smr::object::{Object, ObjectId};
    use rsim_smr::process::{Process, SnapshotProcess};
    let processes = inputs
        .iter()
        .map(|input| {
            Box::new(SnapshotProcess::new(
                PhasedRacing::new(m, input.clone()),
                ObjectId(0),
            )) as Box<dyn Process>
        })
        .collect();
    rsim_smr::system::System::new(vec![Object::snapshot(m)], processes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsim_smr::explore::{Explorer, Limits};
    use rsim_smr::process::ProcessId;
    use rsim_smr::sched::{Obstruction, Random};
    use rsim_tasks::agreement::{consensus, KSetAgreement};
    use rsim_tasks::task::ColorlessTask;
    use rsim_tasks::violation::{search_exhaustive, search_random, Violation};

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn write_key_matches_debug() {
        let mut states = vec![
            PhasedRacing::new(3, Value::Int(-7)),
            PhasedRacing::without_escalation(12, Value::Nil),
            PhasedRacing::new(1, Value::pair(Value::Bool(true), Value::Int(i64::MIN))),
        ];
        let mut advanced = PhasedRacing::new(2, Value::Int(4));
        advanced.on_scan(&[encode(3, 2, &Value::Int(9)), Value::Nil]);
        states.push(advanced);
        for p in states {
            let mut written = String::new();
            p.write_key(&mut written);
            assert_eq!(written, format!("{p:?}"));
        }
    }

    #[test]
    fn solo_decides_own_input() {
        let mut sys = racing_system(2, &ints(&[5, 9]));
        let out = sys.run_solo(ProcessId(1), 100).unwrap();
        assert_eq!(out, Value::Int(9));
    }

    #[test]
    fn explorer_finds_adversarial_violation_even_at_m_eq_n() {
        // A documented finding: even at m = n = 2 the exhaustive
        // explorer finds a deep adversarial interleaving violating
        // agreement (deciders blindly clobber higher-round entries).
        // Space-optimal OF consensus requires the unbounded-history
        // registers of [16]/[47]; the provably correct reference
        // consensus is `ladder::LadderConsensus`.
        let sys = racing_system(2, &ints(&[1, 2]));
        let v = search_exhaustive(
            &sys,
            &ints(&[1, 2]),
            &consensus(),
            Limits { max_depth: 40, max_configs: 500_000 },
        )
        .unwrap();
        // The search is breadth-first, so the witness is the canonical
        // shortest violating schedule.
        match v {
            Some(Violation::Task { schedule, .. }) => assert_eq!(schedule.len(), 22),
            other => panic!("expected the known adversarial interleaving, got {other:?}"),
        }
        // The violating schedule is long: no *short* schedule breaks it
        // (every configuration within 20 steps is checked).
        let quick = search_exhaustive(
            &sys,
            &ints(&[1, 2]),
            &consensus(),
            Limits { max_depth: 20, max_configs: 500_000 },
        )
        .unwrap();
        assert!(quick.is_none(), "violations require deep interleavings");
    }

    #[test]
    fn consensus_n2_m2_solo_termination_everywhere() {
        // Obstruction-freedom: from every reachable configuration every
        // solo run terminates.
        let sys = racing_system(2, &ints(&[1, 2]));
        let explorer = Explorer::new(Limits { max_depth: 24, max_configs: 100_000 });
        let report = explorer.check_solo_termination(&sys, 40).unwrap();
        assert!(report.is_clean(), "violation: {:?}", report.violation);
    }

    #[test]
    fn consensus_n3_m3_random_agreement() {
        let inputs = ints(&[1, 2, 3]);
        let factory = || racing_system(3, &ints(&[1, 2, 3]));
        let v = search_random(&factory, &inputs, &consensus(), 300, 3_000, 42);
        assert!(v.is_none(), "violation found: {v:?}");
    }

    #[test]
    fn consensus_below_bound_is_broken() {
        // m = 1 < 2 = bound for n = 2 consensus: the searcher finds
        // disagreement — the concrete face of Corollary 33.
        let inputs = ints(&[1, 2]);
        let sys = racing_system(1, &inputs);
        let v = search_exhaustive(
            &sys,
            &inputs,
            &consensus(),
            Limits { max_depth: 40, max_configs: 500_000 },
        )
        .unwrap();
        assert!(v.is_some(), "expected a violation at m below the bound");
    }

    #[test]
    fn consensus_n3_m2_is_broken() {
        // n = 3 consensus needs 3 registers; m = 2 must fail somewhere.
        let inputs = ints(&[1, 2, 3]);
        let factory = || racing_system(2, &ints(&[1, 2, 3]));
        let v = search_random(&factory, &inputs, &consensus(), 2_000, 2_000, 7);
        assert!(v.is_some(), "expected disagreement with m = 2 < 3");
    }

    #[test]
    fn kset_n3_k2_m2_exhaustive() {
        // 2-set agreement among 3 processes with m = n - k + 1 = 2.
        let inputs = ints(&[1, 2, 3]);
        let sys = racing_system(2, &inputs);
        let v = search_exhaustive(
            &sys,
            &inputs,
            &KSetAgreement::new(2),
            Limits { max_depth: 26, max_configs: 2_000_000 },
        )
        .unwrap();
        assert!(v.is_none(), "violation found: {v:?}");
    }

    #[test]
    fn kset_n4_k2_m3_random() {
        let inputs = ints(&[1, 2, 3, 4]);
        let factory = || racing_system(3, &ints(&[1, 2, 3, 4]));
        let v = search_random(&factory, &inputs, &KSetAgreement::new(2), 200, 4_000, 3);
        assert!(v.is_none(), "violation found: {v:?}");
    }

    #[test]
    fn validity_with_equal_inputs() {
        // All processes share input 7: every output must be 7, even in
        // broken configurations (validity only depends on adoption).
        for m in 1..=3 {
            let inputs = ints(&[7, 7, 7]);
            let factory = move || racing_system(m, &ints(&[7, 7, 7]));
            let v = search_random(&factory, &inputs, &consensus(), 100, 3_000, 11);
            assert!(v.is_none(), "m={m}: {v:?}");
        }
    }

    #[test]
    fn terminates_under_obstruction_scheduler() {
        for seed in 0..10 {
            let mut sys = racing_system(3, &ints(&[1, 2, 3]));
            let mut sched = Obstruction::new(1, 30, 120, seed);
            sys.run(&mut sched, 500_000).unwrap();
            assert!(sys.all_terminated(), "seed {seed} did not terminate");
        }
    }

    #[test]
    fn x_obstruction_freedom_for_x2() {
        // Groups of 2 running alone converge (x-obstruction-freedom).
        for seed in 0..10 {
            let mut sys = racing_system(3, &ints(&[1, 2, 3]));
            let mut sched = Obstruction::new(2, 30, 400, seed);
            sys.run(&mut sched, 500_000).unwrap();
            assert!(sys.all_terminated(), "seed {seed} did not terminate");
        }
    }

    #[test]
    fn random_runs_often_terminate_and_agree() {
        // Under a purely random scheduler the protocol usually
        // terminates quickly; when it does, outputs satisfy consensus.
        let inputs = ints(&[4, 5, 6]);
        let mut terminated = 0;
        for seed in 0..20 {
            let mut sys = racing_system(3, &inputs);
            sys.run(&mut Random::seeded(seed), 50_000).unwrap();
            if sys.all_terminated() {
                terminated += 1;
                let outs: Vec<Value> =
                    sys.outputs().into_iter().map(Option::unwrap).collect();
                assert!(consensus().validate(&inputs, &outs).is_ok());
            }
        }
        assert!(terminated >= 15, "only {terminated}/20 runs terminated");
    }
}
