//! A Wing–Gong linearizability checker.
//!
//! Given a [`History`] of high-level operations on one object and the
//! object's sequential specification (an [`Object`] value), the checker
//! searches for a linearization: a total order of the operations,
//! consistent with the real-time partial order, whose sequential
//! execution reproduces every recorded response. Pending operations may
//! be linearized (with any response) or dropped.
//!
//! The search is exponential in the worst case but memoized on
//! (linearized-set, object state); histories from the test harnesses are
//! small enough for this to be fast.

use crate::history::{History, OpRecord};
use crate::object::Object;
use std::collections::HashSet;

/// Outcome of a linearizability check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinCheck {
    /// A witness linearization was found (operation ids in order).
    Linearizable(Vec<usize>),
    /// No linearization exists.
    NotLinearizable,
}

impl LinCheck {
    /// Is the history linearizable?
    pub fn is_ok(&self) -> bool {
        matches!(self, LinCheck::Linearizable(_))
    }
}

/// Checks whether `history` is linearizable with respect to the
/// sequential object `initial`.
///
/// # Panics
///
/// Panics if the history contains more than 127 operations (the memo
/// key uses a 128-bit mask); harness histories are far smaller.
///
/// # Examples
///
/// ```
/// use rsim_smr::history::History;
/// use rsim_smr::linearizability::check;
/// use rsim_smr::object::{Object, ObjectId, Operation, Response};
/// use rsim_smr::value::Value;
///
/// let mut h = History::new();
/// let w = h.invoke(0, Operation::Write { obj: ObjectId(0), value: Value::Int(1) });
/// h.respond(w, Response::Ack);
/// let r = h.invoke(1, Operation::Read { obj: ObjectId(0) });
/// h.respond(r, Response::Value(Value::Int(1)));
/// assert!(check(&h, Object::register()).is_ok());
/// ```
pub fn check(history: &History, initial: Object) -> LinCheck {
    let records = history.records();
    assert!(records.len() < 128, "history too large for the checker");
    let mut memo: HashSet<(u128, Object)> = HashSet::new();
    let mut order: Vec<usize> = Vec::new();
    if search(records, initial, 0, &mut memo, &mut order) {
        LinCheck::Linearizable(order)
    } else {
        LinCheck::NotLinearizable
    }
}

/// Can `rec` be linearized next, given the set `done` already linearized?
/// It can unless some *other* unlinearized operation responded before
/// `rec` was invoked (real-time order would be violated).
fn eligible(records: &[OpRecord], done: u128, rec: &OpRecord) -> bool {
    for other in records {
        if other.id == rec.id || done & (1u128 << other.id.0) != 0 {
            continue;
        }
        if other.precedes(rec) {
            return false;
        }
    }
    true
}

fn search(
    records: &[OpRecord],
    state: Object,
    done: u128,
    memo: &mut HashSet<(u128, Object)>,
    order: &mut Vec<usize>,
) -> bool {
    // Success when every *completed* operation is linearized; pending
    // operations may be dropped.
    if records
        .iter()
        .all(|r| r.resp.is_none() || done & (1u128 << r.id.0) != 0)
    {
        return true;
    }
    // The memo key is the exact object state — structurally hashed and
    // compared, no `Debug` string per search node.
    if !memo.insert((done, state.clone())) {
        return false;
    }
    for rec in records {
        let bit = 1u128 << rec.id.0;
        if done & bit != 0 || !eligible(records, done, rec) {
            continue;
        }
        let mut next_state = state.clone();
        let Ok(resp) = next_state.apply(&rec.op) else {
            continue;
        };
        // A completed operation must have received exactly the
        // sequential response; a pending one may take any response.
        if let Some(recorded) = &rec.resp {
            if *recorded != resp {
                continue;
            }
        }
        order.push(rec.id.0);
        if search(records, next_state, done | bit, memo, order) {
            return true;
        }
        order.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectId, Operation, Response};
    use crate::value::Value;

    fn write(v: i64) -> Operation {
        Operation::Write { obj: ObjectId(0), value: Value::Int(v) }
    }

    fn read() -> Operation {
        Operation::Read { obj: ObjectId(0) }
    }

    fn rval(v: i64) -> Response {
        Response::Value(Value::Int(v))
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let mut h = History::new();
        let w = h.invoke(0, write(1));
        h.respond(w, Response::Ack);
        let r = h.invoke(1, read());
        h.respond(r, rval(1));
        assert!(check(&h, Object::register()).is_ok());
    }

    #[test]
    fn stale_read_after_write_is_not_linearizable() {
        let mut h = History::new();
        let w = h.invoke(0, write(1));
        h.respond(w, Response::Ack);
        // Read strictly after the write must see 1, not ⊥.
        let r = h.invoke(1, read());
        h.respond(r, Response::Value(Value::Nil));
        assert!(!check(&h, Object::register()).is_ok());
    }

    #[test]
    fn concurrent_read_may_see_either() {
        for seen in [Value::Nil, Value::Int(1)] {
            let mut h = History::new();
            let w = h.invoke(0, write(1));
            let r = h.invoke(1, read());
            h.respond(w, Response::Ack);
            h.respond(r, Response::Value(seen));
            assert!(check(&h, Object::register()).is_ok());
        }
    }

    #[test]
    fn pending_write_may_take_effect() {
        let mut h = History::new();
        let _w = h.invoke(0, write(1)); // never responds (crash)
        let r = h.invoke(1, read());
        h.respond(r, rval(1));
        assert!(check(&h, Object::register()).is_ok());
    }

    #[test]
    fn pending_write_may_be_dropped() {
        let mut h = History::new();
        let _w = h.invoke(0, write(1));
        let r = h.invoke(1, read());
        h.respond(r, Response::Value(Value::Nil));
        assert!(check(&h, Object::register()).is_ok());
    }

    #[test]
    fn new_old_inversion_is_caught() {
        // w(1) completes; then r1 sees ⊥ after r2 saw 1 — with both reads
        // after the write, sequentially impossible.
        let mut h = History::new();
        let w = h.invoke(0, write(1));
        h.respond(w, Response::Ack);
        let r2 = h.invoke(2, read());
        h.respond(r2, rval(1));
        let r1 = h.invoke(1, read());
        h.respond(r1, Response::Value(Value::Nil));
        assert!(!check(&h, Object::register()).is_ok());
    }

    #[test]
    fn snapshot_histories_check() {
        let mut h = History::new();
        let u = h.invoke(0, Operation::Update {
            obj: ObjectId(0),
            component: 1,
            value: Value::Int(9),
        });
        h.respond(u, Response::Ack);
        let s = h.invoke(1, Operation::Scan { obj: ObjectId(0) });
        h.respond(s, Response::View(vec![Value::Nil, Value::Int(9)].into()));
        assert!(check(&h, Object::snapshot(2)).is_ok());

        let mut bad = History::new();
        let u = bad.invoke(0, Operation::Update {
            obj: ObjectId(0),
            component: 0,
            value: Value::Int(9),
        });
        bad.respond(u, Response::Ack);
        let s = bad.invoke(1, Operation::Scan { obj: ObjectId(0) });
        bad.respond(s, Response::View(vec![Value::Nil, Value::Nil].into()));
        assert!(!check(&bad, Object::snapshot(2)).is_ok());
    }

    #[test]
    fn witness_order_respects_real_time() {
        let mut h = History::new();
        let a = h.invoke(0, write(1));
        h.respond(a, Response::Ack);
        let b = h.invoke(1, write(2));
        h.respond(b, Response::Ack);
        let r = h.invoke(0, read());
        h.respond(r, rval(2));
        match check(&h, Object::register()) {
            LinCheck::Linearizable(order) => {
                let pos_a = order.iter().position(|&x| x == 0).unwrap();
                let pos_b = order.iter().position(|&x| x == 1).unwrap();
                assert!(pos_a < pos_b);
            }
            LinCheck::NotLinearizable => panic!("should linearize"),
        }
    }
}
