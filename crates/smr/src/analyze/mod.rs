//! Pre-flight protocol analyzer and happens-before trace checker.
//!
//! Every theorem the model checker exercises carries structural
//! preconditions that the runtime would otherwise only discover
//! dynamically, deep inside a campaign: §3's augmented snapshot is
//! built from a *single-writer* snapshot, Corollary 36 requires
//! *ABA-free* protocols, and Theorem 21's reduction only fires when
//! the component footprint fits the space bound. This module checks
//! them **up front**:
//!
//! * [`lint`] — Pass 1, a static linter: abstract solo interpretation
//!   of every process's `Operation`/`Poised`/`ProtocolStep` footprint
//!   without executing a schedule (RS-W001..RS-W005).
//! * [`hb`] — Pass 2, a happens-before checker: vector clocks over a
//!   recorded trace plus sequential replay (RS-W006), and contiguous
//!   Block-Update linearization windows (RS-W007).
//! * [`interfere`] — Pass 3, the static interference analyzer: solo
//!   footprints condensed into an N×N independence matrix that seeds
//!   the explorer's partial-order reduction, plus the
//!   RS-W008/009/010 diagnostics.
//! * [`diag`] — the diagnostics framework: stable lint codes,
//!   severities, `--deny`/`--warn`/`--allow` configuration.
//!
//! [`preflight`] is the campaign/explorer entry point: it runs Pass 1
//! and rejects the system with
//! [`ModelError::PreflightRejected`] when any deny-level diagnostic
//! fires.

pub mod diag;
pub mod hb;
pub mod interfere;
pub mod lint;

pub use diag::{
    known_codes, nearest_match, AnalysisReport, Diagnostic, LintCode, LintConfig, Severity,
};
pub use hb::{check_block_update_windows, check_execution, LinEvent};
pub use interfere::{
    covering_budget, interfere_findings, interfere_system, InterferenceMatrix,
    ProcessFootprint,
};
pub use lint::{check_aba_events, contains_yield, lint_system, yield_symbol, DEFAULT_BUDGET};

use crate::error::ModelError;
use crate::system::{Event, System};

/// Runs Pass 1 (static lint) and Pass 3 (static interference) over
/// `sys` and builds a report under `config`.
pub fn analyze_system(sys: &System, config: &LintConfig, budget: usize) -> AnalysisReport {
    let mut findings = lint::lint_system(sys, budget);
    findings.extend(interfere::interfere_system(sys, budget));
    AnalysisReport::from_findings(findings, config)
}

/// Runs Pass 2 over `events` (an execution from `initial`) and builds
/// a report under `config`.
pub fn analyze_trace(initial: &System, events: &[Event], config: &LintConfig) -> AnalysisReport {
    AnalysisReport::from_findings(hb::check_execution(initial, events), config)
}

/// The mandatory campaign/explorer pre-flight: Pass 1 with the given
/// configuration; any deny-level diagnostic rejects the system.
///
/// # Errors
///
/// [`ModelError::PreflightRejected`] carrying the rendered deny-level
/// diagnostics, one per line.
pub fn preflight(sys: &System, config: &LintConfig) -> Result<AnalysisReport, ModelError> {
    let report = analyze_system(sys, config, DEFAULT_BUDGET);
    if report.is_clean() {
        Ok(report)
    } else {
        Err(ModelError::PreflightRejected { diagnostics: report.render_denied() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId};
    use crate::process::{Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
    use crate::value::Value;

    #[derive(Clone, Debug)]
    struct Toggler {
        step: usize,
    }

    impl SnapshotProtocol for Toggler {
        fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
            self.step += 1;
            match self.step {
                1 => ProtocolStep::Update(0, Value::Int(1)),
                2 => ProtocolStep::Update(0, Value::Int(2)),
                3 => ProtocolStep::Update(0, Value::Int(1)), // ABA
                _ => ProtocolStep::Output(Value::Int(1)),
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn toggler_system() -> System {
        System::new(
            vec![Object::snapshot(1)],
            vec![Box::new(SnapshotProcess::new(Toggler { step: 0 }, ObjectId(0)))
                as Box<dyn Process>],
        )
    }

    #[test]
    fn preflight_rejects_on_deny_and_reports_the_code() {
        let err = preflight(&toggler_system(), &LintConfig::default()).unwrap_err();
        match &err {
            ModelError::PreflightRejected { diagnostics } => {
                assert!(diagnostics.contains("error[RS-W002]"), "{diagnostics}");
            }
            other => panic!("expected PreflightRejected, got {other:?}"),
        }
    }

    #[test]
    fn preflight_passes_when_the_code_is_allowed() {
        let mut config = LintConfig::default();
        config.set(LintCode::AbaFreedom, Severity::Allow);
        let report = preflight(&toggler_system(), &config).unwrap();
        assert!(report.is_clean());
        assert!(!report.has(LintCode::AbaFreedom));
    }

    #[test]
    fn preflight_passes_warn_level_findings_through() {
        let mut config = LintConfig::default();
        config.set(LintCode::AbaFreedom, Severity::Warn);
        let report = preflight(&toggler_system(), &config).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.warn_count(), 1);
        assert!(report.has(LintCode::AbaFreedom));
    }

    #[test]
    fn analyze_trace_covers_pass_two() {
        let initial = toggler_system();
        let mut sys = initial.clone();
        sys.run_solo(ProcessId(0), 64).unwrap();
        let events = sys.trace().to_vec();
        let report = analyze_trace(&initial, &events, &LintConfig::default());
        assert!(report.is_clean(), "{}", report.render());
    }
}
