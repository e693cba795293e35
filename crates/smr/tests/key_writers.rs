//! Property tests for the hand-written configuration-key writers.
//!
//! `Value`, `Object` and the snapshot process adapter write their
//! fingerprint bytes directly instead of formatting them. The `Debug`
//! rendering stays the reference encoding, so on arbitrary value trees
//! and every object variant the streamed hash must equal FNV-1a over the
//! formatted string, and the written bytes must equal that string.

use proptest::prelude::*;
use rsim_smr::fingerprint::{fingerprint, ConfigHash};
use rsim_smr::object::{Object, ObjectId, Response};
use rsim_smr::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
use rsim_smr::value::{Dyadic, Value};

/// An integer drawn to hit the rendering edge cases often: the full
/// range, small values of either sign, and both extremes.
fn int(selector: u8, raw: i64) -> i64 {
    match selector % 4 {
        0 => raw,
        1 => raw.rem_euclid(21) - 10,
        2 => i64::MIN,
        _ => i64::MAX,
    }
}

/// One instruction of the stack machine that assembles a value tree.
type Op = (u8, u8, i64, u32);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..6, 0u8..8, i64::MIN..=i64::MAX, 0u32..63), 1..24)
}

/// Builds a value tree: leaves (`Nil`, `Bool`, `Int`, `Dyadic`) push
/// onto a stack, `Pair` pops two and `Tuple` pops up to three (so empty
/// tuples and deep nesting both occur). Whatever is left at the end is
/// wrapped into one tuple.
fn build(ops: &[Op]) -> Value {
    let mut stack: Vec<Value> = Vec::new();
    for &(kind, selector, raw, exp) in ops {
        let value = match kind {
            0 => Value::Nil,
            1 => Value::Bool(raw & 1 == 1),
            2 => Value::Int(int(selector, raw)),
            3 => Value::Dyadic(Dyadic::new(int(selector, raw), exp)),
            4 if stack.len() >= 2 => {
                let b = stack.pop().expect("two on the stack");
                let a = stack.pop().expect("two on the stack");
                Value::pair(a, b)
            }
            4 => Value::Nil,
            _ => {
                let take = usize::from(selector % 4).min(stack.len());
                Value::tuple(stack.split_off(stack.len() - take))
            }
        };
        stack.push(value);
    }
    if stack.len() == 1 {
        stack.pop().expect("one on the stack")
    } else {
        Value::tuple(stack)
    }
}

fn assert_same_key<T: ConfigHash + std::fmt::Debug>(x: &T, written: String) {
    let reference = format!("{x:?}");
    assert_eq!(written, reference);
    assert_eq!(x.config_hash(), fingerprint(&reference));
}

/// Updates component 0 with `update`, then outputs `output`, so the
/// adapter passes through every phase carrying arbitrary values.
#[derive(Clone, Debug)]
struct Carry {
    update: Value,
    output: Value,
    wrote: bool,
}

impl SnapshotProtocol for Carry {
    fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
        if self.wrote {
            ProtocolStep::Output(self.output.clone())
        } else {
            self.wrote = true;
            ProtocolStep::Update(0, self.update.clone())
        }
    }
    fn components(&self) -> usize {
        1
    }
}

fn streamed_state_key(p: &dyn Process) -> String {
    let mut out = String::new();
    p.write_state_key(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_writer_matches_debug(ops in ops()) {
        let v = build(&ops);
        let mut written = String::new();
        v.write_key(&mut written).unwrap();
        assert_same_key(&v, written);
    }

    #[test]
    fn object_writer_matches_debug_for_every_variant(
        a in ops(),
        b in ops(),
        counter in (0u8..4, i64::MIN..=i64::MAX),
    ) {
        let (x, y) = (build(&a), build(&b));
        let components = match &x {
            Value::Tuple(items) => items.to_vec(),
            other => vec![other.clone(), y.clone()],
        };
        let objects = [
            Object::Register { value: x.clone() },
            Object::Snapshot { components: components.clone() },
            Object::Snapshot { components: Vec::new() },
            Object::MaxRegister { components },
            Object::FetchAndIncrement { counter: int(counter.0, counter.1) },
            Object::Swap { value: y.clone() },
            Object::Cas { value: x },
        ];
        for o in &objects {
            let mut written = String::new();
            o.write_key(&mut written).unwrap();
            assert_same_key(o, written);
        }
    }

    #[test]
    fn snapshot_process_writer_matches_state_key(
        update in ops(),
        output in ops(),
        object in 0usize..1000,
    ) {
        let protocol = Carry { update: build(&update), output: build(&output), wrote: false };
        let mut p = SnapshotProcess::new(protocol, ObjectId(object));
        prop_assert_eq!(streamed_state_key(&p), p.state_key());
        p.receive(Response::View(vec![Value::Nil]));
        // Poised to update component 0 with the arbitrary value.
        prop_assert_eq!(streamed_state_key(&p), p.state_key());
        p.receive(Response::Ack);
        p.receive(Response::View(vec![Value::Nil]));
        // Done, carrying the arbitrary output.
        prop_assert!(p.terminated());
        prop_assert_eq!(streamed_state_key(&p), p.state_key());
    }
}
