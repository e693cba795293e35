//! A deliberately ill-formed protocol: the analyzer's acceptance
//! fixture.
//!
//! [`illformed_system`] builds a 4-process system over one 8-component
//! single-writer snapshot whose processes each violate a different
//! paper precondition, so that a single `analyze` run over the fixture
//! must report every statically detectable lint code:
//!
//! * **RS-W001** — p0 (*the trespasser*) updates component 1, which is
//!   owned by p1: the §3 single-writer discipline is broken. At
//!   runtime the same write raises a `WriterViolation`, which the
//!   `analyze` CLI's trace pass surfaces as **RS-W006**.
//! * **RS-W002** — p1 (*the toggler*) writes `1, 2, 1` into its own
//!   component: its solo value stream revisits an earlier value, so
//!   the protocol is not ABA-free (Corollary 36).
//! * **RS-W003** — 4 processes over an 8-component snapshot: no
//!   `(f, d)` satisfies `(f − d)·m + d ≤ n`, so Theorem 21's
//!   reduction cannot fire.
//! * **RS-W004** — p2 (*the spinner*) writes fresh values forever and
//!   never outputs: its output step is unreachable.
//! * **RS-W005** — p3 (*the yield leaker*) writes the reserved yield
//!   symbol `Y` into its component and then outputs it.
//!
//! **RS-W007** (a non-contiguous atomic Block-Update window) cannot be
//! staged by any protocol running under the real runtime — the runtime
//! only produces legal interleavings — so it is exercised by the
//! analyzer's unit/golden tests on synthetic linearizations and by the
//! augmented-snapshot certification cross-check instead.

use rsim_smr::analyze::yield_symbol;
use rsim_smr::object::{Object, ObjectId};
use rsim_smr::process::{Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
use rsim_smr::system::System;
use rsim_smr::value::Value;

/// Which precondition a fixture process violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// Writes into p1's component (RS-W001 / RS-W006).
    Trespasser,
    /// Writes `1, 2, 1` into its own component (RS-W002).
    Toggler,
    /// Never outputs (RS-W004).
    Spinner,
    /// Writes and outputs the yield symbol (RS-W005).
    YieldLeaker,
}

/// One ill-formed fixture process.
#[derive(Clone, Debug)]
struct IllFormed {
    role: Role,
    step: i64,
}

impl IllFormed {
    fn new(role: Role) -> Self {
        IllFormed { role, step: 0 }
    }
}

impl SnapshotProtocol for IllFormed {
    fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
        self.step += 1;
        match self.role {
            Role::Trespasser => match self.step {
                // Fresh values: the trespass is the only defect.
                1..=3 => ProtocolStep::Update(1, Value::Int(100 + self.step)),
                _ => ProtocolStep::Output(Value::Int(0)),
            },
            Role::Toggler => match self.step {
                1 => ProtocolStep::Update(1, Value::Int(1)),
                2 => ProtocolStep::Update(1, Value::Int(2)),
                3 => ProtocolStep::Update(1, Value::Int(1)), // the ABA
                _ => ProtocolStep::Output(Value::Int(1)),
            },
            // Fresh increasing values: no ABA, just no output ever.
            Role::Spinner => ProtocolStep::Update(2, Value::Int(self.step)),
            Role::YieldLeaker => match self.step {
                1 => ProtocolStep::Update(3, yield_symbol()),
                _ => ProtocolStep::Output(yield_symbol()),
            },
        }
    }

    fn components(&self) -> usize {
        8
    }
}

/// Builds the ill-formed fixture system: 4 processes over one
/// 8-component snapshot, components `0..4` declared single-writer
/// (component `i` owned by process `i`).
pub fn illformed_system() -> System {
    let roles = [Role::Trespasser, Role::Toggler, Role::Spinner, Role::YieldLeaker];
    let processes = roles
        .iter()
        .map(|&role| {
            Box::new(SnapshotProcess::new(IllFormed::new(role), ObjectId(0)))
                as Box<dyn Process>
        })
        .collect();
    let mut sys = System::new(vec![Object::snapshot(8)], processes);
    for i in 0..4 {
        sys.restrict_writer(ObjectId(0), i, ProcessId(i));
    }
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsim_smr::analyze::{self, LintCode, LintConfig};
    use rsim_smr::error::ModelError;
    use rsim_smr::explore::{Explorer, Limits};

    #[test]
    fn fixture_trips_every_static_lint_code() {
        let report = analyze::analyze_system(
            &illformed_system(),
            &LintConfig::default(),
            analyze::DEFAULT_BUDGET,
        );
        for code in [
            LintCode::SingleWriter,
            LintCode::AbaFreedom,
            LintCode::Footprint,
            LintCode::DeadStep,
            LintCode::YieldSymbol,
        ] {
            assert!(report.has(code), "missing {code}:\n{}", report.render());
        }
        assert!(!report.is_clean());
    }

    #[test]
    fn preflight_rejects_the_fixture() {
        let err =
            analyze::preflight(&illformed_system(), &LintConfig::default()).unwrap_err();
        match err {
            ModelError::PreflightRejected { diagnostics } => {
                assert!(diagnostics.contains("RS-W001"), "{diagnostics}");
                assert!(diagnostics.contains("RS-W002"), "{diagnostics}");
            }
            other => panic!("expected PreflightRejected, got {other:?}"),
        }
    }

    #[test]
    fn explorer_refuses_the_fixture_unless_preflight_is_disabled() {
        let explorer = Explorer::new(Limits { max_depth: 4, max_configs: 100 });
        let err = explorer
            .explore_parallel(&illformed_system(), &|_| None)
            .unwrap_err();
        assert!(matches!(err, ModelError::PreflightRejected { .. }), "{err}");

        // With pre-flight off the exploration runs (and hits the
        // runtime's own WriterViolation instead).
        let err = Explorer::new(Limits { max_depth: 4, max_configs: 100 })
            .with_preflight(false)
            .explore_parallel(&illformed_system(), &|_| None)
            .unwrap_err();
        assert!(matches!(err, ModelError::WriterViolation { .. }), "{err}");
    }
}
