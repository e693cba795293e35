//! Iterated immediate snapshot: the closed-form oracle for the explorer.
//!
//! `r` rounds of immediate snapshot among `n` processes have the r-th
//! standard chromatic subdivision of the (n−1)-simplex as their
//! protocol complex (Kozlov, arXiv 1402.4707), whose facets number
//! Fubini(n)^r, with Fubini(n) = 1, 3, 13, 75, 541 the ordered set
//! partitions of `n` elements. A full-information protocol that
//! outputs its last view therefore reaches exactly Fubini(n)^r distinct
//! terminal output vectors. Every other explorer gate compares the
//! explorer with itself (thread counts, DPOR on and off, a string-keyed
//! reference walk); this count does not.
//!
//! Each round is the Borowsky–Gafni level algorithm on a fresh block of
//! `n` single-writer snapshot components, one per process. A process
//! writes `(level, value)` to its component, starting at level `n`, and
//! scans. If at least `level` processes of the block are at levels
//! ≤ its own, it takes their values as its view of the round;
//! otherwise it descends one level and writes again. Round `r + 1`
//! writes round `r`'s view (full information); round 1 writes the
//! process id. Like every protocol here, a process alternates scans
//! and updates (Assumption 1); it starts with a scan, which sees
//! nothing.
//!
//! # Example
//!
//! ```
//! use rsim_protocols::iis::iis_system;
//! use rsim_smr::explore::Explorer;
//!
//! # fn main() -> Result<(), rsim_smr::error::ModelError> {
//! // Two processes, one round: both see both, or one sees only itself.
//! let (outputs, report) = Explorer::default().terminal_outputs(&iis_system(2, 1))?;
//! assert_eq!(outputs.len(), 3);
//! assert!(!report.truncated);
//! # Ok(())
//! # }
//! ```

use rsim_smr::object::{Object, ObjectId};
use rsim_smr::process::{Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
use rsim_smr::system::System;
use rsim_smr::value::Value;

/// One process of `rounds` rounds of immediate snapshot among `n`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IteratedImmediateSnapshot {
    pid: usize,
    n: usize,
    rounds: usize,
    /// The current round, from 0.
    round: usize,
    /// The level last written in the current round; `n + 1` before the
    /// first write.
    level: usize,
    /// What the process writes this round: its id in round 0, its view
    /// of the previous round after.
    value: Value,
}

impl IteratedImmediateSnapshot {
    /// Process `pid` of `n`, running `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics unless `pid < n` and `rounds ≥ 1`.
    pub fn new(pid: usize, n: usize, rounds: usize) -> Self {
        assert!(pid < n, "process {pid} of {n}");
        assert!(rounds >= 1, "need at least one round");
        IteratedImmediateSnapshot {
            pid,
            n,
            rounds,
            round: 0,
            level: n + 1,
            value: Value::Int(pid as i64),
        }
    }

    /// Writes the current level and value to this round's component.
    fn write(&self) -> ProtocolStep {
        let entry = Value::pair(Value::Int(self.level as i64), self.value.clone());
        ProtocolStep::Update(self.round * self.n + self.pid, entry)
    }
}

/// A component's `(level, value)`, or `None` while it is ⊥.
fn parse(component: &Value) -> Option<(usize, &Value)> {
    let (level, value) = component.as_pair()?;
    Some((usize::try_from(level.as_int()?).ok()?, value))
}

impl SnapshotProtocol for IteratedImmediateSnapshot {
    fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
        if self.level > self.n {
            self.level = self.n;
            return self.write();
        }
        let block = &view[self.round * self.n..(self.round + 1) * self.n];
        let at_or_below = |c: &Value| parse(c).is_some_and(|(level, _)| level <= self.level);
        if block.iter().filter(|c| at_or_below(c)).count() < self.level {
            self.level -= 1;
            return self.write();
        }
        let seen = block
            .iter()
            .map(|c| match parse(c) {
                Some((level, value)) if level <= self.level => value.clone(),
                _ => Value::Nil,
            })
            .collect();
        let seen = Value::tuple(seen);
        self.round += 1;
        if self.round == self.rounds {
            return ProtocolStep::Output(seen);
        }
        self.value = seen;
        self.level = self.n;
        self.write()
    }

    fn components(&self) -> usize {
        self.n * self.rounds
    }
}

/// `n` processes running `rounds` rounds of immediate snapshot on one
/// snapshot object of `n · rounds` components, each component owned
/// by the one process that writes it.
///
/// # Panics
///
/// Panics if `n == 0` or `rounds == 0`.
pub fn iis_system(n: usize, rounds: usize) -> System {
    assert!(n >= 1, "need at least one process");
    let processes = (0..n)
        .map(|pid| {
            Box::new(SnapshotProcess::new(
                IteratedImmediateSnapshot::new(pid, n, rounds),
                ObjectId(0),
            )) as Box<dyn Process>
        })
        .collect();
    let mut sys = System::new(vec![Object::snapshot(n * rounds)], processes);
    for round in 0..rounds {
        for pid in 0..n {
            sys.restrict_writer(ObjectId(0), round * n + pid, ProcessId(pid));
        }
    }
    sys
}

/// Fubini(n), the number of ordered set partitions of `n` elements:
/// 1, 1, 3, 13, 75, 541, …
pub fn fubini(n: usize) -> u64 {
    // a(n) = Σ_{k=1..n} C(n, k) · a(n − k), a(0) = 1.
    let mut a = vec![1u64];
    for m in 1..=n {
        let mut binom = 1u64;
        let mut sum = 0u64;
        for k in 1..=m {
            binom = binom * (m - k + 1) as u64 / k as u64;
            sum += binom * a[m - k];
        }
        a.push(sum);
    }
    a[n]
}

/// The immediate snapshot properties of one terminal output vector
/// (each a last-round view, indexed by process): self-inclusion,
/// containment (any two views are ordered by inclusion) and immediacy
/// (a process seen by `p` saw no more than `p`). Returns the first
/// property that fails, or `None`.
pub fn immediate_snapshot_violation(outputs: &[Value]) -> Option<String> {
    let seen = |p: usize| -> Option<Vec<bool>> {
        Some(outputs[p].as_tuple()?.iter().map(|v| *v != Value::Nil).collect())
    };
    let views: Vec<Vec<bool>> = match (0..outputs.len()).map(seen).collect() {
        Some(views) => views,
        None => return Some("an output is not a view".into()),
    };
    let subset = |a: &[bool], b: &[bool]| a.iter().zip(b).all(|(x, y)| !x || *y);
    for (p, view) in views.iter().enumerate() {
        if view.len() != outputs.len() {
            return Some(format!("p{p}'s view has {} entries", view.len()));
        }
        if !view[p] {
            return Some(format!("p{p} does not see itself"));
        }
        for (q, other) in views.iter().enumerate() {
            if !subset(view, other) && !subset(other, view) {
                return Some(format!("the views of p{p} and p{q} are not ordered"));
            }
            if view[q] && !subset(other, view) {
                return Some(format!("p{p} sees p{q}, which saw more than p{p}"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsim_smr::sched::RoundRobin;

    #[test]
    fn fubini_numbers() {
        let first: Vec<u64> = (0..6).map(fubini).collect();
        assert_eq!(first, vec![1, 1, 3, 13, 75, 541]);
    }

    #[test]
    fn a_solo_process_sees_only_itself_and_lock_step_sees_everyone() {
        let mut sys = iis_system(3, 2);
        let out = sys.run_solo(ProcessId(1), 100).unwrap();
        let nil = Value::Nil;
        let round1 = Value::tuple(vec![nil.clone(), Value::Int(1), nil.clone()]);
        assert_eq!(out, Value::tuple(vec![nil.clone(), round1, nil]));

        let mut sys = iis_system(3, 1);
        sys.run(&mut RoundRobin::new(), 1000).unwrap();
        let all = Value::tuple((0..3).map(Value::Int).collect());
        let outputs: Vec<Value> = sys.outputs().into_iter().flatten().collect();
        assert_eq!(outputs, vec![all.clone(), all.clone(), all]);
        assert_eq!(immediate_snapshot_violation(&outputs), None);
    }

    #[test]
    fn the_property_check_rejects_unordered_and_non_immediate_views() {
        let view = |seen: [bool; 3]| {
            Value::tuple(seen.iter().map(|&s| if s { Value::Int(0) } else { Value::Nil }).collect())
        };
        let unordered = [view([true, false, false]), view([false, true, false]), view([true; 3])];
        assert!(immediate_snapshot_violation(&unordered).unwrap().contains("not ordered"));
        let not_immediate = [view([true, true, false]), view([true; 3]), view([true; 3])];
        assert!(immediate_snapshot_violation(&not_immediate).unwrap().contains("saw more"));
        let blind = [view([false, true, true]), view([false, true, true]), view([true; 3])];
        assert!(immediate_snapshot_violation(&blind).unwrap().contains("itself"));
    }
}
