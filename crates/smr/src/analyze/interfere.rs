//! Pass 3 — the static interference analyzer.
//!
//! Abstract-interprets each process's **solo footprint** (the same
//! private-copy interpretation as Pass 1) into a per-process summary of
//! which objects it reads and which component slots it writes, then
//! derives an N×N **static independence matrix**: processes `p` and `q`
//! are statically independent iff their plain-write slot sets are
//! disjoint, neither's writes overlap the other's `writemax` slots, and
//! neither reads an object the other writes (`writemax` pairs always
//! commute, §5.2, so same-slot `writemax`/`writemax` contention is not
//! an edge — mirroring the dynamic oracle [`crate::hb::independent`]).
//!
//! The matrix **over-approximates dependence, never independence**: a
//! process whose solo run errors out or exhausts its budget gets the ⊤
//! footprint (dependent on everyone), because an incomplete solo run
//! reveals only a prefix of the operations the process may issue. Even
//! a complete solo footprint can under-approximate an *adaptive*
//! process's interleaved behaviour, which is why every consumer of the
//! matrix is soundness-gated: the explorer evaluates the dynamic oracle
//! on every enabled pair and fails closed with
//! [`crate::error::ModelError::StaticUnsound`] the moment an observed
//! dependence contradicts a static independence claim.
//!
//! The footprints feed three diagnostics:
//!
//! * **RS-W008** — more *single-writer* component slots are contended
//!   by plain writes of distinct processes than the Theorem 21
//!   covering budget (the largest feasible `d`) can protect. Un-owned
//!   components are multi-writer by design (the \[16\]/\[47\]-style
//!   racing families contend on every slot) and are not counted.
//! * **RS-W009** — a process reads an object another process writes,
//!   but its solo run reads the contended component exactly once: it
//!   can never observe a concurrent install over its view (the static
//!   shadow of RS-W006).
//! * **RS-W010** — the interference graph is edge-free: every
//!   interleaving is equivalent to the solo runs, so exploration is
//!   pointless; the warning carries the exact solo-run verdicts.

use super::diag::LintCode;
use crate::object::Operation;
use crate::process::{Poised, ProcessId};
use crate::system::System;
use crate::value::Value;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One process's statically-derived solo footprint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessFootprint {
    /// Objects the process reads (`Scan`/`Read`, plus the
    /// order-revealing responses of `FetchInc`/`Swap`/`Cas`).
    pub reads: BTreeSet<usize>,
    /// How many times each `(object, component)` slot is read. `Scan`
    /// reads every component of its object; `Read` and the
    /// order-revealing mutators read component 0.
    pub read_counts: BTreeMap<(usize, usize), usize>,
    /// `(object, component)` slots mutated by plain (non-monotone)
    /// writes: `Update`, `Write`, `FetchInc`, `Swap`, `Cas`.
    pub writes: BTreeSet<(usize, usize)>,
    /// `(object, component)` slots mutated by `WriteMax` (monotone:
    /// same-slot pairs commute, §5.2).
    pub maxwrites: BTreeSet<(usize, usize)>,
    /// Did the solo run reach an output within the budget with no
    /// runtime error? Incomplete footprints are treated as ⊤
    /// (dependent on everyone).
    pub complete: bool,
    /// The solo-run output, when `complete`.
    pub output: Option<Value>,
}

impl ProcessFootprint {
    /// Does this footprint write (plain or monotone) anywhere in `obj`?
    fn writes_object(&self, obj: usize) -> bool {
        self.writes.iter().any(|&(o, _)| o == obj)
            || self.maxwrites.iter().any(|&(o, _)| o == obj)
    }

    /// Are two *complete* footprints independent under the static
    /// approximation of [`crate::hb::independent`]?
    fn independent_of(&self, other: &ProcessFootprint) -> bool {
        if !self.complete || !other.complete {
            return false;
        }
        // Plain-write/plain-write and plain-write/writemax slot overlap
        // is a conflict; writemax/writemax is not (max commutes).
        if self.writes.intersection(&other.writes).next().is_some()
            || self.writes.intersection(&other.maxwrites).next().is_some()
            || self.maxwrites.intersection(&other.writes).next().is_some()
        {
            return false;
        }
        // A read of an object conflicts with *any* write to it: a scan
        // observes every component, and even a single-component read
        // orders itself against same-object mutations in the dynamic
        // oracle.
        if self.reads.iter().any(|&o| other.writes_object(o))
            || other.reads.iter().any(|&o| self.writes_object(o))
        {
            return false;
        }
        true
    }
}

/// The N×N static independence matrix plus the footprints it was
/// derived from. Symmetric, irreflexive (a process is never recorded
/// independent of itself — the relation is only meaningful for
/// distinct processes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterferenceMatrix {
    n: usize,
    /// `indep[p * n + q]` — statically independent.
    indep: Vec<bool>,
    footprints: Vec<ProcessFootprint>,
}

impl InterferenceMatrix {
    /// Builds the matrix for `sys` by solo abstract interpretation with
    /// `budget` steps per process (the analyzed system is never
    /// mutated).
    pub fn build(sys: &System, budget: usize) -> InterferenceMatrix {
        let n = sys.process_count();
        let footprints: Vec<ProcessFootprint> =
            (0..n).map(|p| solo_footprint(sys, ProcessId(p), budget)).collect();
        let mut indep = vec![false; n * n];
        for p in 0..n {
            for q in (p + 1)..n {
                if footprints[p].independent_of(&footprints[q]) {
                    indep[p * n + q] = true;
                    indep[q * n + p] = true;
                }
            }
        }
        InterferenceMatrix { n, indep, footprints }
    }

    /// Builds a matrix directly from an independence relation, with no
    /// footprints. Test support only: the explorer's fail-closed audit
    /// path needs a deliberately *unsound* matrix, which
    /// [`InterferenceMatrix::build`] can never produce.
    #[cfg(test)]
    pub(crate) fn from_relation(
        n: usize,
        relation: impl Fn(usize, usize) -> bool,
    ) -> InterferenceMatrix {
        let mut indep = vec![false; n * n];
        for p in 0..n {
            for q in (p + 1)..n {
                if relation(p, q) {
                    indep[p * n + q] = true;
                    indep[q * n + p] = true;
                }
            }
        }
        InterferenceMatrix { n, indep, footprints: Vec::new() }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Are `p` and `q` statically independent? `false` for `p == q`
    /// and out-of-range ids (fail toward dependence).
    pub fn independent(&self, p: usize, q: usize) -> bool {
        p < self.n && q < self.n && self.indep[p * self.n + q]
    }

    /// Process `p`'s independence row as a bitmask (bit `q` set when
    /// statically independent of `q`), for the explorer's 32-process
    /// mask arithmetic. Rows for `p ≥ 32` would not fit and return 0
    /// (all-dependent), matching the DPOR fallback.
    pub fn row_mask(&self, p: usize) -> u32 {
        let mut mask = 0u32;
        for q in 0..self.n.min(32) {
            if self.independent(p, q) {
                mask |= 1 << q;
            }
        }
        mask
    }

    /// Number of unordered statically-independent pairs.
    pub fn indep_pairs(&self) -> usize {
        (0..self.n)
            .map(|p| ((p + 1)..self.n).filter(|&q| self.independent(p, q)).count())
            .sum()
    }

    /// Is the interference graph edge-free (every distinct pair
    /// statically independent)? Trivially false for `n < 2`.
    pub fn is_edge_free(&self) -> bool {
        self.n >= 2 && self.indep_pairs() == self.n * (self.n - 1) / 2
    }

    /// The footprint the matrix derived for process `p`.
    pub fn footprint(&self, p: usize) -> Option<&ProcessFootprint> {
        self.footprints.get(p)
    }

    /// Renders the matrix as a grid (`·` diagonal, `I` independent,
    /// `D` dependent) with a trailing pair count, for `analyze
    /// --matrix`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "static independence matrix (n = {}): I = independent, D = dependent\n",
            self.n
        );
        let _ = write!(out, "     ");
        for q in 0..self.n {
            let _ = write!(out, " p{q:<3}");
        }
        out.push('\n');
        for p in 0..self.n {
            let _ = write!(out, " p{p:<3}");
            for q in 0..self.n {
                let cell = if p == q {
                    '·'
                } else if self.independent(p, q) {
                    'I'
                } else {
                    'D'
                };
                let _ = write!(out, " {cell}   ");
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "{} statically independent pair(s) of {}",
            self.indep_pairs(),
            self.n * self.n.saturating_sub(1) / 2
        );
        out
    }
}

/// Abstract-interprets process `p`'s solo run against a private copy of
/// the objects (ownership unenforced, same as Pass 1), recording its
/// read/write footprint.
fn solo_footprint(sys: &System, pid: ProcessId, budget: usize) -> ProcessFootprint {
    let mut footprint = ProcessFootprint::default();
    let Some(proc_ref) = sys.process(pid) else {
        return footprint;
    };
    let mut proc = proc_ref.boxed_clone();
    let mut objects = sys.objects().to_vec();
    for _ in 0..budget {
        match proc.poised() {
            Poised::Output(value) => {
                footprint.complete = true;
                footprint.output = Some(value);
                break;
            }
            Poised::Step(op) => {
                record_op(&mut footprint, &op, &objects);
                let resp = match objects
                    .get_mut(op.object().0)
                    .and_then(|o| o.apply(&op).ok())
                {
                    Some(resp) => resp,
                    // A dead step (Pass 1's RS-W004 territory): the
                    // footprint stays incomplete → ⊤.
                    None => break,
                };
                proc.receive(resp);
            }
        }
    }
    footprint
}

/// Records one operation into the footprint.
fn record_op(
    footprint: &mut ProcessFootprint,
    op: &Operation,
    objects: &[crate::object::Object],
) {
    let obj = op.object().0;
    match op {
        Operation::Scan { .. } => {
            footprint.reads.insert(obj);
            let components = objects.get(obj).map_or(1, |o| o.register_cost());
            for c in 0..components {
                *footprint.read_counts.entry((obj, c)).or_insert(0) += 1;
            }
        }
        Operation::Read { .. } => {
            footprint.reads.insert(obj);
            *footprint.read_counts.entry((obj, 0)).or_insert(0) += 1;
        }
        Operation::Update { component, .. } => {
            footprint.writes.insert((obj, *component));
        }
        Operation::Write { .. } => {
            footprint.writes.insert((obj, 0));
        }
        Operation::WriteMax { component, .. } => {
            footprint.maxwrites.insert((obj, *component));
        }
        // Order-revealing read-modify-write primitives both read and
        // plain-write their single slot.
        Operation::FetchInc { .. } | Operation::Swap { .. } | Operation::Cas { .. } => {
            footprint.reads.insert(obj);
            *footprint.read_counts.entry((obj, 0)).or_insert(0) += 1;
            footprint.writes.insert((obj, 0));
        }
    }
}

/// The Theorem 21 covering budget: the largest `d` for which some
/// `2 ≤ f ≤ n` with `d < f` satisfies `(f - d)·m + d ≤ n` — how many
/// components the direct simulators can keep safe while the covering
/// simulators block-write the rest. `None` when no `(f, d)` does, so
/// the reduction is infeasible outright (Pass 1's RS-W003). (Inlined
/// from `rsim-core::bounds::simulation_feasible` — the core crate
/// depends on this one, so the formula cannot be imported.)
pub fn covering_budget(n: usize, m: usize) -> Option<usize> {
    (2..=n)
        .flat_map(|f| (0..f).map(move |d| (f, d)))
        .filter(|&(f, d)| (f - d) * m + d <= n)
        .map(|(_, d)| d)
        .max()
}

/// Runs Pass 3 over `sys`: builds the matrix and derives the
/// RS-W008/009/010 findings from its footprints.
pub fn interfere_system(sys: &System, budget: usize) -> Vec<(LintCode, String)> {
    let matrix = InterferenceMatrix::build(sys, budget);
    interfere_findings(sys, &matrix)
}

/// Derives the Pass 3 findings from a prebuilt matrix (so the CLI can
/// print the same matrix it diagnosed from).
pub fn interfere_findings(sys: &System, matrix: &InterferenceMatrix) -> Vec<(LintCode, String)> {
    let mut findings = Vec::new();
    let n = matrix.processes();
    let m = sys.space_complexity();
    if n < 2 {
        return findings;
    }

    // RS-W008: single-writer component slots contended by plain writes
    // of two or more processes, vs. the Theorem 21 covering budget.
    // Un-owned slots are multi-writer by design and not counted.
    let mut writers: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for p in 0..n {
        if let Some(fp) = matrix.footprint(p) {
            for &slot in &fp.writes {
                if sys.owner_of(crate::object::ObjectId(slot.0), slot.1).is_some() {
                    *writers.entry(slot).or_insert(0) += 1;
                }
            }
        }
    }
    let contended: Vec<(usize, usize)> =
        writers.iter().filter(|&(_, &count)| count >= 2).map(|(&slot, _)| slot).collect();
    let budget = covering_budget(n, m).unwrap_or(0);
    if !contended.is_empty() && contended.len() > budget {
        let slots: Vec<String> = contended
            .iter()
            .map(|&(obj, component)| format!("obj{obj}.{component}"))
            .collect();
        findings.push((
            LintCode::StaticInterference,
            format!(
                "{} single-writer component slot(s) [{}] are plain-written by \
                 two or more processes, exceeding the Theorem 21 covering \
                 budget d = {budget} for (n = {n}, m = {m}): every block-write \
                 can be obliterated",
                contended.len(),
                slots.join(", ")
            ),
        ));
    }

    // RS-W009: a reader of a foreign-written component whose solo run
    // reads it exactly once never validates its view.
    for p in 0..n {
        let Some(fp) = matrix.footprint(p) else { continue };
        for (&(obj, component), &count) in &fp.read_counts {
            if count != 1 {
                continue;
            }
            let writer = (0..n).find(|&q| {
                q != p
                    && matrix.footprint(q).is_some_and(|other| {
                        other.writes.contains(&(obj, component))
                            || other.maxwrites.contains(&(obj, component))
                    })
            });
            if let Some(q) = writer {
                findings.push((
                    LintCode::UnvalidatedRead,
                    format!(
                        "process p{p} reads obj{obj} component {component} \
                         (written by p{q}) exactly once in its solo run and \
                         never validates it against a concurrent install"
                    ),
                ));
            }
        }
    }

    // RS-W010: an edge-free interference graph makes exploration
    // pointless — report the exact solo verdicts.
    if matrix.is_edge_free() {
        let verdicts: Vec<String> = (0..n)
            .map(|p| {
                let out = matrix
                    .footprint(p)
                    .and_then(|fp| fp.output.as_ref())
                    .map_or("?".to_string(), |v| format!("{v:?}"));
                format!("p{p} → {out}")
            })
            .collect();
        findings.push((
            LintCode::StaticSerializable,
            format!(
                "interference graph is edge-free: every schedule is equivalent \
                 to the solo runs, exploration adds nothing; solo verdicts: {}",
                verdicts.join(", ")
            ),
        ));
    }

    findings.sort_by_key(|f| f.0);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId, Response};
    use crate::process::Process;

    /// Scripted process issuing arbitrary operations, then an output.
    #[derive(Clone, Debug)]
    struct Scripted {
        ops: Vec<Operation>,
        output: Value,
        at: usize,
    }

    impl Scripted {
        fn new(ops: Vec<Operation>, output: Value) -> Self {
            Scripted { ops, output, at: 0 }
        }
    }

    impl Process for Scripted {
        fn poised(&self) -> Poised {
            match self.ops.get(self.at) {
                Some(op) => Poised::Step(op.clone()),
                None => Poised::Output(self.output.clone()),
            }
        }

        fn receive(&mut self, _resp: Response) {
            self.at += 1;
        }

        fn boxed_clone(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }

        fn state_key(&self) -> String {
            format!("scripted:{}", self.at)
        }
    }

    fn system_of(scripts: Vec<Scripted>, objects: Vec<Object>) -> System {
        let processes =
            scripts.into_iter().map(|s| Box::new(s) as Box<dyn Process>).collect();
        System::new(objects, processes)
    }

    fn upd(obj: usize, component: usize, v: i64) -> Operation {
        Operation::Update { obj: ObjectId(obj), component, value: Value::Int(v) }
    }

    fn scan(obj: usize) -> Operation {
        Operation::Scan { obj: ObjectId(obj) }
    }

    fn wmax(obj: usize, component: usize, v: i64) -> Operation {
        Operation::WriteMax { obj: ObjectId(obj), component, value: Value::Int(v) }
    }

    #[test]
    fn disjoint_writers_without_reads_are_independent() {
        let sys = system_of(
            vec![
                Scripted::new(vec![upd(0, 0, 1)], Value::Int(1)),
                Scripted::new(vec![upd(0, 1, 2)], Value::Int(2)),
            ],
            vec![Object::snapshot(2)],
        );
        let matrix = InterferenceMatrix::build(&sys, 64);
        assert!(matrix.independent(0, 1));
        assert!(matrix.independent(1, 0));
        assert!(!matrix.independent(0, 0));
        assert_eq!(matrix.indep_pairs(), 1);
        assert!(matrix.is_edge_free());
        assert_eq!(matrix.row_mask(0), 0b10);
        assert_eq!(matrix.row_mask(1), 0b01);
    }

    #[test]
    fn same_slot_plain_writes_are_dependent() {
        let sys = system_of(
            vec![
                Scripted::new(vec![upd(0, 0, 1)], Value::Int(1)),
                Scripted::new(vec![upd(0, 0, 2)], Value::Int(2)),
            ],
            vec![Object::snapshot(1)],
        );
        let matrix = InterferenceMatrix::build(&sys, 64);
        assert!(!matrix.independent(0, 1));
        assert_eq!(matrix.indep_pairs(), 0);
    }

    #[test]
    fn a_scan_depends_on_any_writer_of_the_object() {
        // p0 writes component 0 only; p1 scans the whole object —
        // dependent even though p1 never writes.
        let sys = system_of(
            vec![
                Scripted::new(vec![upd(0, 0, 1)], Value::Int(1)),
                Scripted::new(vec![scan(0)], Value::Int(2)),
            ],
            vec![Object::snapshot(2)],
        );
        let matrix = InterferenceMatrix::build(&sys, 64);
        assert!(!matrix.independent(0, 1));
    }

    #[test]
    fn writemax_same_slot_pairs_commute_statically() {
        let sys = system_of(
            vec![
                Scripted::new(vec![wmax(0, 0, 1)], Value::Int(1)),
                Scripted::new(vec![wmax(0, 0, 2)], Value::Int(2)),
            ],
            vec![Object::max_register(1)],
        );
        let matrix = InterferenceMatrix::build(&sys, 64);
        assert!(matrix.independent(0, 1), "writemax/writemax must not be an edge");
        assert!(matrix.is_edge_free());
    }

    #[test]
    fn incomplete_solo_run_is_dependent_on_everyone() {
        // p0 spins forever (budget exhaustion → ⊤), p1 touches a
        // different object entirely.
        let spins: Vec<Operation> = (0..128).map(|i| upd(0, 0, i)).collect();
        let sys = system_of(
            vec![
                Scripted::new(spins, Value::Nil),
                Scripted::new(vec![upd(1, 0, 2)], Value::Int(2)),
            ],
            vec![Object::snapshot(1), Object::snapshot(1)],
        );
        let matrix = InterferenceMatrix::build(&sys, 16);
        assert!(!matrix.footprint(0).unwrap().complete);
        assert!(!matrix.independent(0, 1));
    }

    #[test]
    fn matrix_never_claims_independence_the_dynamic_oracle_denies() {
        // For every statically-independent pair, every cross pair of
        // solo-footprint operations must be dynamically independent
        // (the static relation quantifies over the footprints it saw).
        let sys = system_of(
            vec![
                Scripted::new(vec![upd(0, 0, 1), wmax(1, 0, 5)], Value::Int(1)),
                Scripted::new(vec![upd(0, 1, 2), wmax(1, 0, 7)], Value::Int(2)),
                Scripted::new(vec![scan(2)], Value::Int(3)),
            ],
            vec![Object::snapshot(2), Object::max_register(1), Object::snapshot(1)],
        );
        let matrix = InterferenceMatrix::build(&sys, 64);
        let solo_ops = |p: usize| -> Vec<Operation> {
            match p {
                0 => vec![upd(0, 0, 1), wmax(1, 0, 5)],
                1 => vec![upd(0, 1, 2), wmax(1, 0, 7)],
                _ => vec![scan(2)],
            }
        };
        for p in 0..3 {
            for q in 0..3 {
                if p != q && matrix.independent(p, q) {
                    for a in solo_ops(p) {
                        for b in solo_ops(q) {
                            assert!(
                                crate::hb::independent(&a, &b),
                                "static indep p{p},p{q} but {a:?} vs {b:?} dependent"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn covering_budget_matches_theorem_21() {
        // n = 3, m = 1: f = 3, d = 2 gives 1·1 + 2 = 3 ≤ 3.
        assert_eq!(covering_budget(3, 1), Some(2));
        // n = 3, m = 2 (racing defaults): f = 2, d = 1 gives 2 + 1 = 3;
        // d = 2 needs f = 3: 2 + 2 = 4 > 3 → budget 1.
        assert_eq!(covering_budget(3, 2), Some(1));
        // n = 2, m = 2: f = 2, d = 0 gives 4 > 2 and d = 1 gives 3 > 2,
        // but the reduction needs at least one (f, d) → infeasible.
        assert_eq!(covering_budget(2, 2), None);
        // Infeasible (n = 2, m = 8; n = 4, m = 8) → None.
        assert_eq!(covering_budget(2, 8), None);
        assert_eq!(covering_budget(4, 8), None);
        assert!(covering_budget(10, 1).is_some());
    }

    #[test]
    fn contended_owned_writes_beyond_budget_fire_w008() {
        // n = 2, m = 2 → covering budget 0 (f=2,d=0: 2·2=4>2;
        // f=2,d=1: 2+1=3>2); one contended owned slot fires.
        let mut sys = system_of(
            vec![
                Scripted::new(vec![upd(0, 0, 1)], Value::Int(1)),
                Scripted::new(vec![upd(0, 0, 2), upd(0, 1, 2)], Value::Int(2)),
            ],
            vec![Object::snapshot(2)],
        );
        sys.restrict_writer(ObjectId(0), 0, crate::process::ProcessId(0));
        let findings = interfere_system(&sys, 64);
        assert!(
            findings.iter().any(|(c, _)| *c == LintCode::StaticInterference),
            "{findings:?}"
        );
    }

    #[test]
    fn unowned_contention_is_multi_writer_by_design() {
        // The same system without the ownership declaration: racing-
        // style multi-writer contention must not fire RS-W008.
        let sys = system_of(
            vec![
                Scripted::new(vec![upd(0, 0, 1)], Value::Int(1)),
                Scripted::new(vec![upd(0, 0, 2), upd(0, 1, 2)], Value::Int(2)),
            ],
            vec![Object::snapshot(2)],
        );
        let findings = interfere_system(&sys, 64);
        assert!(
            !findings.iter().any(|(c, _)| *c == LintCode::StaticInterference),
            "{findings:?}"
        );
    }

    #[test]
    fn single_unvalidated_read_fires_w009() {
        // p0 scans once (one read of each component) then outputs;
        // p1 writes component 0.
        let sys = system_of(
            vec![
                Scripted::new(vec![scan(0)], Value::Int(1)),
                Scripted::new(vec![upd(0, 0, 2)], Value::Int(2)),
            ],
            vec![Object::snapshot(1)],
        );
        let findings = interfere_system(&sys, 64);
        let w009: Vec<_> = findings
            .iter()
            .filter(|(c, _)| *c == LintCode::UnvalidatedRead)
            .collect();
        assert_eq!(w009.len(), 1, "{findings:?}");
        assert!(w009[0].1.contains("p0 reads obj0 component 0"), "{}", w009[0].1);

        // A re-reading scanner validates: no W009.
        let sys = system_of(
            vec![
                Scripted::new(vec![scan(0), scan(0)], Value::Int(1)),
                Scripted::new(vec![upd(0, 0, 2)], Value::Int(2)),
            ],
            vec![Object::snapshot(1)],
        );
        let findings = interfere_system(&sys, 64);
        assert!(
            !findings.iter().any(|(c, _)| *c == LintCode::UnvalidatedRead),
            "{findings:?}"
        );
    }

    #[test]
    fn edge_free_graph_fires_w010_with_solo_verdicts() {
        let sys = system_of(
            vec![
                Scripted::new(vec![wmax(0, 0, 1)], Value::Int(1)),
                Scripted::new(vec![wmax(0, 0, 2)], Value::Int(2)),
                Scripted::new(vec![wmax(0, 0, 3)], Value::Int(3)),
            ],
            vec![Object::max_register(1)],
        );
        let findings = interfere_system(&sys, 64);
        let w010: Vec<_> = findings
            .iter()
            .filter(|(c, _)| *c == LintCode::StaticSerializable)
            .collect();
        assert_eq!(w010.len(), 1, "{findings:?}");
        assert!(w010[0].1.contains("p0 → 1"), "{}", w010[0].1);
        assert!(w010[0].1.contains("p2 → 3"), "{}", w010[0].1);
    }

    #[test]
    fn render_draws_the_grid() {
        let sys = system_of(
            vec![
                Scripted::new(vec![upd(0, 0, 1)], Value::Int(1)),
                Scripted::new(vec![upd(0, 1, 2)], Value::Int(2)),
            ],
            vec![Object::snapshot(2)],
        );
        let matrix = InterferenceMatrix::build(&sys, 64);
        let rendered = matrix.render();
        assert!(rendered.contains("n = 2"), "{rendered}");
        assert!(rendered.contains('I'), "{rendered}");
        assert!(rendered.contains("1 statically independent pair(s) of 1"), "{rendered}");
    }
}
