//! Copy-on-write configurations and successor steps.
//!
//! A [`System`] shares its processes, objects and writer restrictions
//! between clones, and [`System::successor`] computes a step without
//! forking. These tests walk every configuration of a small exhaustive
//! exploration of each campaign protocol family (the corpus of
//! `tests/config_identity.rs`) and check, on each:
//!
//! 1. **Isolation** — stepping a clone, or restricting its writers,
//!    never changes the original.
//! 2. **One step path** — `with_successor(successor(p))` is exactly
//!    `clone()` then `step(p)`: same configuration, trace and step
//!    counts, and the same error for a terminated process, an unknown
//!    process and a single-writer violation.
//! 3. **Incremental key** — the explorer key derived from the parent's
//!    per-component terms equals the key computed from scratch.

use revisionist_simulations::protocols::{
    approx_system, contrarian_system, ladder_system, racing_system, serializable_system,
};
use revisionist_simulations::smr::error::ModelError;
use revisionist_simulations::smr::explore::ExploreKey;
use revisionist_simulations::smr::gen::GenSpec;
use revisionist_simulations::smr::object::{Object, ObjectId, Operation};
use revisionist_simulations::smr::process::{Poised, Process, ProcessId, SnapshotProcess};
use revisionist_simulations::smr::system::System;
use revisionist_simulations::smr::value::{Dyadic, Value};
use revisionist_simulations::solo::convert::determinized_system;
use revisionist_simulations::solo::machine::RandomizedRacing;
use std::sync::Arc;

fn ints(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

fn families() -> Vec<(&'static str, System, usize)> {
    vec![
        ("racing", racing_system(2, &ints(&[1, 2])), 6),
        ("racing-3", racing_system(2, &ints(&[1, 2, 3])), 5),
        ("ladder", ladder_system(&ints(&[1, 2]), 2), 7),
        ("contrarian", contrarian_system(&[true, false, true]), 6),
        ("serializable", serializable_system(&[1, 2, 3, 4]), 6),
        (
            "gen:3",
            GenSpec::parse_cli("gen:3")
                .expect("gen spec")
                .build_system(),
            5,
        ),
        (
            "gen:11",
            GenSpec::parse_cli("gen:11")
                .expect("gen spec")
                .build_system(),
            5,
        ),
        (
            "determinized",
            determinized_system(Arc::new(RandomizedRacing::new(2)), &ints(&[5, 6]), 50),
            4,
        ),
        (
            "approx",
            approx_system(&[Dyadic::zero(), Dyadic::new(-3, 1), Dyadic::one()], 2),
            5,
        ),
    ]
}

/// Everything a step could disturb in a configuration.
#[derive(Debug, PartialEq)]
struct Observed {
    key: String,
    fingerprint: u64,
    trace_len: usize,
    steps: Vec<usize>,
}

fn observe(sys: &System) -> Observed {
    Observed {
        key: sys.config_key(),
        fingerprint: sys.config_fingerprint(),
        trace_len: sys.trace().len(),
        steps: (0..sys.process_count())
            .map(|p| sys.steps_of(ProcessId(p)))
            .collect(),
    }
}

/// Steps `pid` both ways and checks they agree; returns the child when
/// the step succeeds.
fn step_both_ways(sys: &System, key: &ExploreKey, pid: ProcessId) -> Option<(System, ExploreKey)> {
    let mut forked = sys.clone();
    let stepped = forked.step(pid);
    match (stepped, sys.successor(pid)) {
        (Ok(()), Ok(next)) => {
            let derived = key.after(&next);
            let built = sys.with_successor(next);
            assert_eq!(built.config_key(), forked.config_key(), "{pid}");
            assert_eq!(built.trace().to_vec(), forked.trace().to_vec(), "{pid}");
            assert_eq!(observe(&built).steps, observe(&forked).steps, "{pid}");
            assert_eq!(derived, ExploreKey::of(&built), "incremental key at {pid}");
            Some((built, derived))
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{pid}");
            None
        }
        (a, b) => panic!(
            "step and successor disagree at {pid}: {a:?} vs {:?}",
            b.err()
        ),
    }
}

/// The component a mutating operation writes (0 for plain registers).
fn written_component(op: &Operation) -> usize {
    match op {
        Operation::Update { component, .. } | Operation::WriteMax { component, .. } => *component,
        _ => 0,
    }
}

/// Restricts the component `pid` is about to write to another process
/// on a clone: both step paths must refuse it alike, and the original
/// must keep its owners.
fn check_writer_violation(sys: &System, pid: ProcessId) {
    let Poised::Step(op) = sys.poised(pid) else {
        return;
    };
    if !op.is_mutation() || sys.process_count() < 2 {
        return;
    }
    let (obj, component) = (op.object(), written_component(&op));
    let other = ProcessId((pid.0 + 1) % sys.process_count());
    let owner_before = sys.owner_of(obj, component);
    let mut restricted = sys.clone();
    restricted.restrict_writer(obj, component, other);
    assert_eq!(
        sys.owner_of(obj, component),
        owner_before,
        "restriction leaked"
    );
    let via_successor = restricted.successor(pid).map(|_| ());
    let via_step = restricted.clone().step(pid);
    assert!(
        matches!(via_step, Err(ModelError::WriterViolation { .. })),
        "{pid}: {via_step:?}"
    );
    assert_eq!(via_successor, via_step, "{pid}");
}

fn walk(sys: &System, key: &ExploreKey, depth: usize, visited: &mut usize) {
    *visited += 1;
    assert_eq!(*key, ExploreKey::of(sys), "key drifted from scratch");
    let before = observe(sys);
    let n = sys.process_count();
    let bad = ProcessId(n);
    assert_eq!(sys.successor(bad).err(), sys.clone().step(bad).err());
    assert!(matches!(sys.successor(bad), Err(ModelError::BadId(_))));
    let mut children = Vec::new();
    for p in 0..n {
        let pid = ProcessId(p);
        check_writer_violation(sys, pid);
        let child = step_both_ways(sys, key, pid);
        assert_eq!(child.is_none(), sys.is_terminated(pid), "{pid}");
        children.extend(child);
    }
    assert_eq!(
        observe(sys),
        before,
        "stepping a clone changed the original"
    );
    if depth == 0 {
        return;
    }
    for (child, child_key) in &children {
        walk(child, child_key, depth - 1, visited);
    }
}

#[test]
fn successors_match_steps_and_keys_over_explored_corpus() {
    let mut total = 0;
    for (family, sys, depth) in families() {
        let mut visited = 0;
        walk(&sys, &ExploreKey::of(&sys), depth, &mut visited);
        assert!(visited > 20, "{family} corpus too small: {visited}");
        total += visited;
    }
    assert!(total > 100, "corpus too small: {total}");
}

#[test]
fn terminated_process_errs_alike_both_ways() {
    let mut sys = racing_system(2, &ints(&[1, 2]));
    sys.run_solo(ProcessId(0), 100).unwrap();
    assert_eq!(
        sys.successor(ProcessId(0)).err(),
        Some(ModelError::ProcessTerminated(0))
    );
    assert_eq!(
        sys.clone().step(ProcessId(0)).err(),
        Some(ModelError::ProcessTerminated(0))
    );
}

#[test]
fn unknown_object_errs_alike_both_ways() {
    let p = SnapshotProcess::new(
        revisionist_simulations::protocols::racing::PhasedRacing::new(1, Value::Int(1)),
        ObjectId(3),
    );
    let sys = System::new(
        vec![Object::snapshot(1)],
        vec![Box::new(p) as Box<dyn Process>],
    );
    let via_successor = sys.successor(ProcessId(0)).err();
    assert!(
        matches!(via_successor, Some(ModelError::BadId(_))),
        "{via_successor:?}"
    );
    assert_eq!(sys.clone().step(ProcessId(0)).err(), via_successor);
}

#[test]
fn a_scan_shares_the_objects_and_a_write_unshares_only_the_writer() {
    let sys = racing_system(2, &ints(&[1, 2]));
    // Every racing process starts with a scan: the object is read, not
    // copied.
    let scan = sys.successor(ProcessId(0)).unwrap();
    assert!(scan.object().is_none());
    let scanned = sys.with_successor(scan);
    assert_eq!(scanned.objects(), sys.objects());
    // Its next step is an update: only the written object comes back.
    let update = scanned.successor(ProcessId(0)).unwrap();
    let written = update
        .object()
        .cloned()
        .expect("an update writes the snapshot");
    let updated = scanned.with_successor(update);
    assert_eq!(updated.objects(), std::slice::from_ref(&written));
    assert_ne!(updated.objects(), scanned.objects());
    assert_eq!(
        scanned.objects(),
        sys.objects(),
        "the parent's object changed"
    );
}
