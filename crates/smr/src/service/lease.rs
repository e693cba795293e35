//! The lease state machine.
//!
//! Pure state, no processes, no clocks of its own — every transition
//! takes the current [`Instant`] as an argument, which is what makes
//! the machine unit-testable without spawning anything. Each unit is
//! `Pending` (available once its backoff expires), `Leased` (held by a
//! worker, kept alive by heartbeats), `Done`, or `Quarantined` (a
//! poison unit that killed `max_attempts` consecutive leases, the limit
//! given to [`LeaseManager::new`]; the service completes around it and
//! reports the loss).

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// A unit's position in the lease lifecycle.
#[derive(Clone, PartialEq, Debug)]
pub enum UnitState {
    /// Available for leasing once `not_before` (retry backoff) passes.
    Pending {
        /// Attempts so far (0 = never leased).
        attempt: usize,
        /// Earliest instant the unit may be leased again.
        not_before: Option<Instant>,
    },
    /// Held by a worker.
    Leased {
        /// This lease's attempt number (1-based).
        attempt: usize,
        /// The holding worker's id.
        worker: usize,
        /// Last heartbeat (or lease grant) instant.
        last_beat: Instant,
    },
    /// Completed; a result exists.
    Done,
    /// Failed `max_attempts` leases; withdrawn from circulation.
    Quarantined {
        /// Why the final lease failed.
        reason: String,
    },
}

impl UnitState {
    /// `Done` or `Quarantined`: out of circulation for good.
    fn is_settled(&self) -> bool {
        matches!(self, UnitState::Done | UnitState::Quarantined { .. })
    }
}

/// What a death/requeue transition decided — the coordinator journals
/// these so attempt counts survive coordinator restarts.
#[derive(Clone, PartialEq, Debug)]
pub enum LeaseEvent {
    /// The unit went back to `Pending` with backoff.
    Requeued {
        /// The unit.
        unit: u64,
        /// Attempts consumed so far.
        attempt: usize,
        /// Why the lease ended.
        reason: String,
    },
    /// The unit was quarantined.
    Quarantined {
        /// The unit.
        unit: u64,
        /// Why.
        reason: String,
    },
}

/// Lease bookkeeping for every unit of a service run.
#[derive(Debug)]
pub struct LeaseManager {
    units: BTreeMap<u64, UnitState>,
    /// The units in `Pending`, so finding the next lease never walks
    /// the settled ones.
    pending: BTreeSet<u64>,
    /// How many units are not settled yet.
    open: usize,
    max_attempts: usize,
    backoff: Duration,
}

impl LeaseManager {
    /// A manager over `unit_ids`, all initially pending. A unit
    /// quarantines after `max_attempts` failed leases (min 1); failed
    /// lease `k` backs off `backoff * 2^(k-1)` before re-entering
    /// circulation.
    pub fn new(unit_ids: impl IntoIterator<Item = u64>, max_attempts: usize, backoff: Duration) -> LeaseManager {
        let pending: BTreeSet<u64> = unit_ids.into_iter().collect();
        LeaseManager {
            units: pending
                .iter()
                .map(|&id| (id, UnitState::Pending { attempt: 0, not_before: None }))
                .collect(),
            open: pending.len(),
            pending,
            max_attempts: max_attempts.max(1),
            backoff,
        }
    }

    /// Moves a known `unit` to `next`, keeping the pending set and the
    /// open count in step. Every change of a unit's variant goes
    /// through here.
    fn set(&mut self, unit: u64, next: UnitState) {
        let Some(state) = self.units.get_mut(&unit) else { return };
        self.open = self.open + usize::from(!next.is_settled()) - usize::from(!state.is_settled());
        if matches!(next, UnitState::Pending { .. }) {
            self.pending.insert(unit);
        } else {
            self.pending.remove(&unit);
        }
        *state = next;
    }

    /// Recovery: mark a unit already completed (its shard was
    /// journaled).
    pub fn mark_done(&mut self, unit: u64) {
        self.set(unit, UnitState::Done);
    }

    /// A done unit whose settled shard failed its check goes back to
    /// pending, as if never leased.
    pub fn reopen(&mut self, unit: u64) {
        if self.units.get(&unit) == Some(&UnitState::Done) {
            self.set(unit, UnitState::Pending { attempt: 0, not_before: None });
        }
    }

    /// Recovery: mark a unit quarantined.
    pub fn mark_quarantined(&mut self, unit: u64, reason: &str) {
        self.set(unit, UnitState::Quarantined { reason: reason.to_string() });
    }

    /// Recovery: restore a unit's consumed-attempt count from the
    /// journal (no-op for units past `Pending`).
    pub fn restore_attempts(&mut self, unit: u64, attempts: usize) {
        if let Some(UnitState::Pending { attempt, .. }) = self.units.get_mut(&unit) {
            *attempt = (*attempt).max(attempts);
        }
    }

    /// The lowest-id unit that may be leased right now, if any.
    pub fn next_available(&self, now: Instant) -> Option<u64> {
        self.pending.iter().copied().find(|id| {
            matches!(
                self.units.get(id),
                Some(UnitState::Pending { not_before, .. })
                    if not_before.is_none_or(|t| now >= t)
            )
        })
    }

    /// Leases `unit` to `worker`; returns the lease's attempt number.
    /// Panics if the unit is not pending — the coordinator only leases
    /// what [`LeaseManager::next_available`] returned.
    pub fn lease(&mut self, unit: u64, worker: usize, now: Instant) -> usize {
        let state = self.units.get(&unit).expect("leasing unknown unit");
        let UnitState::Pending { attempt, .. } = state else {
            panic!("leasing unit {unit} in state {state:?}");
        };
        let attempt = *attempt + 1;
        self.set(unit, UnitState::Leased { attempt, worker, last_beat: now });
        attempt
    }

    /// Records a heartbeat for `unit` (ignored unless leased —
    /// a heartbeat racing a requeue must not resurrect the lease).
    pub fn heartbeat(&mut self, unit: u64, now: Instant) {
        if let Some(UnitState::Leased { last_beat, .. }) = self.units.get_mut(&unit)
        {
            *last_beat = now;
        }
    }

    /// Marks `unit` done. Returns `false` if it already was (a
    /// duplicate result from a crash/retry race — callers drop it).
    pub fn complete(&mut self, unit: u64) -> bool {
        match self.units.get(&unit) {
            Some(UnitState::Leased { .. } | UnitState::Pending { .. }) => {
                self.set(unit, UnitState::Done);
                true
            }
            _ => false,
        }
    }

    /// Ends `unit`'s current lease without a result: requeue with
    /// backoff, or quarantine once `max_attempts` leases have failed.
    pub fn fail_lease(&mut self, unit: u64, now: Instant, reason: &str) -> Option<LeaseEvent> {
        let UnitState::Leased { attempt, .. } = *self.units.get(&unit)? else {
            return None;
        };
        if attempt >= self.max_attempts {
            let reason = format!("attempt {attempt}/{}: {reason}", self.max_attempts);
            self.set(unit, UnitState::Quarantined { reason: reason.clone() });
            Some(LeaseEvent::Quarantined { unit, reason })
        } else {
            // Bounded exponential backoff so a crash-looping unit
            // does not monopolise the worker fleet.
            let delay = self.backoff * (1u32 << (attempt - 1).min(16) as u32);
            self.set(unit, UnitState::Pending { attempt, not_before: Some(now + delay) });
            Some(LeaseEvent::Requeued { unit, attempt, reason: reason.to_string() })
        }
    }

    /// Ends every lease held by `worker` (it died or was killed),
    /// returning the resulting requeue/quarantine events.
    pub fn worker_died(&mut self, worker: usize, now: Instant, reason: &str) -> Vec<LeaseEvent> {
        let held: Vec<u64> = self
            .units
            .iter()
            .filter_map(|(id, state)| match state {
                UnitState::Leased { worker: w, .. } if *w == worker => Some(*id),
                _ => None,
            })
            .collect();
        held.into_iter()
            .filter_map(|unit| self.fail_lease(unit, now, reason))
            .collect()
    }

    /// Leases whose last heartbeat is older than `timeout`:
    /// `(unit, worker)` pairs the coordinator should treat as dead.
    pub fn expired(&self, now: Instant, timeout: Duration) -> Vec<(u64, usize)> {
        self.units
            .iter()
            .filter_map(|(id, state)| match state {
                UnitState::Leased { worker, last_beat, .. }
                    if now.duration_since(*last_beat) >= timeout =>
                {
                    Some((*id, *worker))
                }
                _ => None,
            })
            .collect()
    }

    /// Every unit is `Done` or `Quarantined`: the run can merge.
    pub fn all_settled(&self) -> bool {
        self.open == 0
    }

    /// How many units are neither `Done` nor `Quarantined`.
    pub fn unsettled(&self) -> usize {
        self.open
    }

    /// The quarantined units with their reasons.
    pub fn quarantined(&self) -> Vec<(u64, String)> {
        self.units
            .iter()
            .filter_map(|(id, state)| match state {
                UnitState::Quarantined { reason } => Some((*id, reason.clone())),
                _ => None,
            })
            .collect()
    }

    /// Consumed attempts per unit that is still pending (journal
    /// compaction persists these).
    pub fn pending_attempts(&self) -> Vec<(u64, usize)> {
        self.pending
            .iter()
            .filter_map(|id| match self.units.get(id) {
                Some(UnitState::Pending { attempt, .. }) if *attempt > 0 => {
                    Some((*id, *attempt))
                }
                _ => None,
            })
            .collect()
    }

    /// The state of one unit (primarily for tests and diagnostics).
    pub fn state(&self, unit: u64) -> Option<&UnitState> {
        self.units.get(&unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(max_attempts: usize) -> LeaseManager {
        LeaseManager::new(0..3, max_attempts, Duration::from_millis(10))
    }

    #[test]
    fn lease_complete_lifecycle() {
        let now = Instant::now();
        let mut m = mgr(3);
        assert_eq!(m.next_available(now), Some(0));
        assert_eq!(m.lease(0, 7, now), 1);
        // Unit 0 is held: the next available unit is 1.
        assert_eq!(m.next_available(now), Some(1));
        assert!(m.complete(0));
        assert!(!m.complete(0), "duplicate results are dropped");
        assert!(!m.all_settled());
    }

    #[test]
    fn death_requeues_with_backoff_then_quarantines() {
        let t0 = Instant::now();
        let mut m = mgr(2);
        m.lease(0, 1, t0);
        let events = m.worker_died(1, t0, "worker exited");
        assert!(matches!(
            events.as_slice(),
            [LeaseEvent::Requeued { unit: 0, attempt: 1, .. }]
        ));
        // Backed off: not immediately leasable, but leasable later.
        assert_eq!(m.next_available(t0), Some(1));
        let later = t0 + Duration::from_millis(50);
        assert_eq!(m.next_available(later), Some(0));
        // Second failed lease hits max_attempts → quarantine.
        m.lease(0, 2, later);
        let events = m.worker_died(2, later, "worker exited");
        assert!(matches!(
            events.as_slice(),
            [LeaseEvent::Quarantined { unit: 0, .. }]
        ));
        assert_eq!(m.quarantined().len(), 1);
        assert_eq!(m.next_available(later), Some(1));
    }

    #[test]
    fn expiry_flags_silent_leases_only() {
        let t0 = Instant::now();
        let mut m = mgr(3);
        m.lease(0, 1, t0);
        m.lease(1, 2, t0);
        let t1 = t0 + Duration::from_millis(30);
        m.heartbeat(1, t1);
        let expired = m.expired(t1 + Duration::from_millis(80), Duration::from_millis(100));
        assert_eq!(expired, vec![(0, 1)]);
    }

    #[test]
    fn heartbeat_cannot_resurrect_a_requeued_lease() {
        let t0 = Instant::now();
        let mut m = mgr(3);
        m.lease(0, 1, t0);
        m.worker_died(1, t0, "killed");
        m.heartbeat(0, t0 + Duration::from_millis(1));
        assert!(matches!(
            m.state(0),
            Some(UnitState::Pending { attempt: 1, .. })
        ));
    }

    #[test]
    fn recovery_restores_attempts_and_outcomes() {
        let now = Instant::now();
        let mut m = mgr(2);
        m.mark_done(0);
        m.mark_quarantined(1, "poison");
        m.restore_attempts(2, 1);
        assert_eq!(m.next_available(now), Some(2));
        // One attempt already consumed: the next failed lease is the
        // second and final one.
        m.lease(2, 5, now);
        let events = m.worker_died(5, now, "worker exited");
        assert!(matches!(
            events.as_slice(),
            [LeaseEvent::Quarantined { unit: 2, .. }]
        ));
        assert!(m.all_settled());
    }

    /// A done unit whose shard failed its check is pending again, with
    /// no attempt charged, and the open count follows every move.
    #[test]
    fn reopen_returns_a_done_unit_to_pending() {
        let now = Instant::now();
        let mut m = mgr(3);
        m.lease(0, 1, now);
        assert!(m.complete(0));
        m.mark_done(1);
        assert_eq!((m.unsettled(), m.next_available(now)), (1, Some(2)));
        m.reopen(1);
        m.reopen(2); // Not done: unchanged.
        assert_eq!((m.unsettled(), m.next_available(now)), (2, Some(1)));
        assert_eq!(m.lease(1, 1, now), 1);
    }

    #[test]
    fn settles_when_every_unit_is_done_or_quarantined() {
        let now = Instant::now();
        let mut m = mgr(1);
        m.lease(0, 1, now);
        assert!(m.complete(0));
        m.lease(1, 1, now);
        m.worker_died(1, now, "gone");
        m.lease(2, 2, now);
        assert!(m.complete(2));
        assert!(m.all_settled());
        assert_eq!(m.pending_attempts(), Vec::new());
    }
}
