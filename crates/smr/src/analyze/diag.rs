//! Structured diagnostics: stable lint codes, severity levels, and the
//! `--deny`/`--warn`/`--allow` configuration surface.
//!
//! Every finding the analyzer can emit carries a stable `RS-Wxxx`
//! code; campaigns and CI pin behaviour to the code, never to the
//! message text. Severities follow the rustc model: `deny` findings
//! reject the protocol (pre-flight failure / nonzero exit), `warn`
//! findings are reported but do not fail, `allow` findings are
//! dropped.

use crate::error::ModelError;
use std::fmt;

/// A stable lint code. The numeric ids are frozen: tests, CI jobs and
/// downstream tooling match on them, so codes are never renumbered —
/// retired codes would be tombstoned, new checks get fresh numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// RS-W001 — single-writer discipline: a process mutates a
    /// snapshot component owned by another process (§3 precondition).
    SingleWriter,
    /// RS-W002 — ABA-freedom: a process's solo writable value stream
    /// revisits an earlier value (Corollary 36 precondition).
    AbaFreedom,
    /// RS-W003 — component footprint vs. the space bound: no
    /// `(f, d)` makes Theorem 21's reduction feasible for this `(n, m)`.
    Footprint,
    /// RS-W004 — dead or unreachable protocol step: a process's solo
    /// run errors out or exhausts its budget without producing an
    /// output (a Block-Update that can never complete its 6-step
    /// structure surfaces the same way).
    DeadStep,
    /// RS-W005 — yield-symbol handling: the reserved yield symbol `Y`
    /// leaks into a component or an output.
    YieldSymbol,
    /// RS-W006 — happens-before conflict: the trace shows an
    /// unsynchronized conflicting access to an owned component, or a
    /// response no sequential replay of the trace can explain.
    HappensBefore,
    /// RS-W007 — Block-Update linearization window: an atomic
    /// Block-Update's component updates do not form a contiguous
    /// window in the linearization.
    BlockUpdateWindow,
    /// RS-W008 — static write-write interference: the number of
    /// single-writer components contended by plain (non-monotone)
    /// writes of two or more processes exceeds the Theorem 21 covering
    /// budget, so a block-write by the covering simulators can always
    /// be obliterated.
    StaticInterference,
    /// RS-W009 — unvalidated read-after-write hazard: a process reads a
    /// component another process writes, but its solo run reads it only
    /// once — it can never observe the foreign write being installed
    /// over its view (the static shadow of RS-W006).
    UnvalidatedRead,
    /// RS-W010 — statically-serializable protocol: the interference
    /// graph has no edges, so every interleaving is equivalent to the
    /// solo runs and schedule exploration is pointless.
    StaticSerializable,
}

impl LintCode {
    /// Every known code, in id order.
    pub fn all() -> &'static [LintCode] {
        &[
            LintCode::SingleWriter,
            LintCode::AbaFreedom,
            LintCode::Footprint,
            LintCode::DeadStep,
            LintCode::YieldSymbol,
            LintCode::HappensBefore,
            LintCode::BlockUpdateWindow,
            LintCode::StaticInterference,
            LintCode::UnvalidatedRead,
            LintCode::StaticSerializable,
        ]
    }

    /// The stable `RS-Wxxx` id.
    pub fn id(self) -> &'static str {
        match self {
            LintCode::SingleWriter => "RS-W001",
            LintCode::AbaFreedom => "RS-W002",
            LintCode::Footprint => "RS-W003",
            LintCode::DeadStep => "RS-W004",
            LintCode::YieldSymbol => "RS-W005",
            LintCode::HappensBefore => "RS-W006",
            LintCode::BlockUpdateWindow => "RS-W007",
            LintCode::StaticInterference => "RS-W008",
            LintCode::UnvalidatedRead => "RS-W009",
            LintCode::StaticSerializable => "RS-W010",
        }
    }

    /// One-line summary of what the code checks.
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::SingleWriter => "single-writer discipline (§3)",
            LintCode::AbaFreedom => "ABA-freedom of writable value streams (Corollary 36)",
            LintCode::Footprint => "component footprint vs. Theorem 21 reduction bound",
            LintCode::DeadStep => "dead/unreachable protocol steps",
            LintCode::YieldSymbol => "yield-symbol handling completeness",
            LintCode::HappensBefore => "happens-before conflicts in the trace",
            LintCode::BlockUpdateWindow => "contiguous Block-Update linearization windows",
            LintCode::StaticInterference => {
                "static write-write interference vs. the Theorem 21 covering budget"
            }
            LintCode::UnvalidatedRead => "unvalidated read-after-write hazards",
            LintCode::StaticSerializable => "statically-serializable interference graph",
        }
    }

    /// The paper-clause rationale behind the check: why the paper's
    /// argument needs the property, in a few sentences. Surfaced by
    /// `analyze --explain RS-W0NN` so the DESIGN.md mapping table is
    /// reachable from the terminal.
    pub fn rationale(self) -> &'static str {
        match self {
            LintCode::SingleWriter => {
                "§3 restricts protocols to single-writer snapshots: component j \
                 of the snapshot object is written only by process j. The \
                 revisionist simulation relies on this to revise the past — a \
                 covering simulator can only locally re-run p's solo execution \
                 because nobody else can have written p's components."
            }
            LintCode::AbaFreedom => {
                "Corollary 36 extends the lower bound to ABA-free objects: if a \
                 process's solo stream of written values revisits an earlier \
                 value, a simulator that missed the intermediate writes cannot \
                 distinguish the configurations, and the covering argument's \
                 observable contradiction dissolves."
            }
            LintCode::Footprint => {
                "Theorem 21 needs some split n = f + (n - f) with d direct \
                 simulators such that (f - d)·m + d ≤ n: the f covering \
                 simulators must be able to cover all m components while d \
                 direct simulators run the protocol. If no (f, d) is feasible \
                 for this (n, m), the reduction cannot even be set up."
            }
            LintCode::DeadStep => {
                "§2 defines protocols by what each process is poised to do; a \
                 process whose solo run never reaches an output (budget \
                 exhaustion or a runtime error) violates obstruction-freedom's \
                 solo-termination requirement and makes every covering \
                 simulator's local simulation diverge."
            }
            LintCode::YieldSymbol => {
                "The simulation reserves a yield symbol Y that covering \
                 simulators write to hand a component back; a protocol that \
                 itself writes Y (or outputs it) is indistinguishable from the \
                 simulation machinery and breaks the revision bookkeeping."
            }
            LintCode::HappensBefore => {
                "§2's atomicity model linearizes every base-object step; a \
                 trace whose responses no sequential replay can explain, or an \
                 unsynchronized conflicting access to an owned component, is \
                 outside the model the lower bound reasons about."
            }
            LintCode::BlockUpdateWindow => {
                "Lemma 9's block-update must appear atomic: all component \
                 updates of one block must form a contiguous window in the \
                 linearization, otherwise a scan can observe a half-installed \
                 block and the augmented snapshot's views are not snapshots."
            }
            LintCode::StaticInterference => {
                "Theorem 21's covering argument block-writes the contended \
                 components; the budget of components the covering simulators \
                 can keep covered is the largest feasible d in \
                 (f - d)·m + d ≤ n. If more components are contended by plain \
                 writes of distinct processes than the budget covers, every \
                 block-write can be obliterated before it is observed and the \
                 observable-contradiction step of the proof has no witness."
            }
            LintCode::UnvalidatedRead => {
                "§4.1's revision step re-runs a reader locally assuming memory \
                 contents V; that is only sound if the reader re-validates any \
                 component a concurrent writer may install over its view. A \
                 reader whose solo run reads a foreign-written component \
                 exactly once can carry a stale view to its output without any \
                 later scan catching it — the static shadow of the dynamic \
                 happens-before check (RS-W006)."
            }
            LintCode::StaticSerializable => {
                "If no two processes statically interfere (disjoint write \
                 sets, nobody reads a foreign write set), every interleaving \
                 is Mazurkiewicz-equivalent to the sequence of solo runs: the \
                 schedule space collapses to one trace and exploration adds \
                 nothing over the solo verdicts (the degenerate case of the \
                 §2 indistinguishability machinery)."
            }
        }
    }

    /// The severity applied when no override is given.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::SingleWriter => Severity::Deny,
            LintCode::AbaFreedom => Severity::Deny,
            LintCode::Footprint => Severity::Warn,
            LintCode::DeadStep => Severity::Warn,
            LintCode::YieldSymbol => Severity::Warn,
            LintCode::HappensBefore => Severity::Deny,
            LintCode::BlockUpdateWindow => Severity::Deny,
            LintCode::StaticInterference => Severity::Warn,
            LintCode::UnvalidatedRead => Severity::Warn,
            LintCode::StaticSerializable => Severity::Warn,
        }
    }

    /// Parses a stable id. Unknown ids fail closed, suggesting the
    /// nearest valid code by edit distance and listing every known
    /// code (same ergonomics as `SchedulerSpec::parse`).
    ///
    /// # Errors
    ///
    /// [`ModelError::BadSpec`] naming the bad id, the nearest known
    /// code, and all known codes.
    pub fn parse(spec: &str) -> Result<LintCode, ModelError> {
        let wanted = spec.trim();
        LintCode::all()
            .iter()
            .copied()
            .find(|c| c.id().eq_ignore_ascii_case(wanted))
            .ok_or_else(|| {
                let suggestion = nearest_code(wanted)
                    .map(|c| format!("did you mean {}? ", c.id()))
                    .unwrap_or_default();
                ModelError::BadSpec {
                    spec: wanted.to_string(),
                    reason: format!(
                        "unknown lint code; {suggestion}known codes: {}",
                        known_codes()
                    ),
                }
            })
    }

    fn index(self) -> usize {
        match self {
            LintCode::SingleWriter => 0,
            LintCode::AbaFreedom => 1,
            LintCode::Footprint => 2,
            LintCode::DeadStep => 3,
            LintCode::YieldSymbol => 4,
            LintCode::HappensBefore => 5,
            LintCode::BlockUpdateWindow => 6,
            LintCode::StaticInterference => 7,
            LintCode::UnvalidatedRead => 8,
            LintCode::StaticSerializable => 9,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// The comma-separated list of every known code, for error messages
/// and CLI usage hints.
pub fn known_codes() -> String {
    let ids: Vec<&str> = LintCode::all().iter().map(|c| c.id()).collect();
    ids.join(", ")
}

/// The known code nearest to `wanted` by case-insensitive Levenshtein
/// distance (see [`nearest_match`]).
fn nearest_code(wanted: &str) -> Option<LintCode> {
    let ids = LintCode::all().iter().map(|c| c.id());
    let id = nearest_match(&wanted.to_ascii_uppercase(), ids)?;
    LintCode::all().iter().copied().find(|c| c.id() == id)
}

/// The candidate nearest to `wanted` by Levenshtein distance, when that
/// distance is small enough (≤ 2) for a did-you-mean suggestion to be
/// plausible rather than noise. Ties go to the earliest candidate.
/// Lint ids and CLI flag names share it.
pub fn nearest_match<'a>(
    wanted: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|c| (edit_distance(wanted, c), c))
        .min_by_key(|&(d, _)| d)
        .filter(|&(d, _)| d <= 2)
        .map(|(_, c)| c)
}

/// Levenshtein distance over bytes (lint ids are ASCII), one-row DP.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// How a lint code is treated when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Drop the finding silently.
    Allow,
    /// Report the finding; do not fail.
    Warn,
    /// Report the finding and fail the analysis (pre-flight rejection,
    /// nonzero CLI exit).
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Per-code severity configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintConfig {
    severities: [Severity; 10],
}

impl Default for LintConfig {
    fn default() -> Self {
        let mut severities = [Severity::Warn; 10];
        for &code in LintCode::all() {
            severities[code.index()] = code.default_severity();
        }
        LintConfig { severities }
    }
}

impl LintConfig {
    /// The effective severity of `code`.
    pub fn severity(&self, code: LintCode) -> Severity {
        self.severities[code.index()]
    }

    /// Overrides one code's severity.
    pub fn set(&mut self, code: LintCode, severity: Severity) -> &mut Self {
        self.severities[code.index()] = severity;
        self
    }

    /// Applies `--deny`/`--warn`/`--allow` comma-separated code lists.
    /// Unknown codes fail closed (listing every known code); a code
    /// named in two lists is rejected as contradictory.
    ///
    /// # Errors
    ///
    /// [`ModelError::BadSpec`] for an unknown code or a code assigned
    /// two severities.
    pub fn apply_overrides(
        &mut self,
        deny: &str,
        warn: &str,
        allow: &str,
    ) -> Result<&mut Self, ModelError> {
        let mut assigned: Vec<LintCode> = Vec::new();
        for (list, severity) in [
            (deny, Severity::Deny),
            (warn, Severity::Warn),
            (allow, Severity::Allow),
        ] {
            for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let code = LintCode::parse(item)?;
                if assigned.contains(&code) {
                    return Err(ModelError::BadSpec {
                        spec: item.to_string(),
                        reason: "lint code assigned two severities".to_string(),
                    });
                }
                assigned.push(code);
                self.set(code, severity);
            }
        }
        Ok(self)
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// Effective severity under the active [`LintConfig`].
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head = match self.severity {
            Severity::Deny => "error",
            _ => "warning",
        };
        write!(f, "{head}[{}]: {}", self.code, self.message)
    }
}

/// The outcome of an analysis: every surviving diagnostic, in the
/// order the passes produced them (allow-level findings are dropped
/// before the report is built).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Surviving diagnostics (warn and deny level).
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Builds a report from raw `(code, message)` findings, applying
    /// `config`'s severities and dropping allow-level findings.
    pub fn from_findings(
        findings: Vec<(LintCode, String)>,
        config: &LintConfig,
    ) -> AnalysisReport {
        let diagnostics = findings
            .into_iter()
            .filter_map(|(code, message)| {
                let severity = config.severity(code);
                (severity != Severity::Allow).then_some(Diagnostic { code, severity, message })
            })
            .collect();
        AnalysisReport { diagnostics }
    }

    /// Number of deny-level diagnostics.
    pub fn deny_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Deny).count()
    }

    /// Number of warn-level diagnostics.
    pub fn warn_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warn).count()
    }

    /// `true` when no diagnostic is deny-level (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// `true` when `code` fired at least once.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders every diagnostic, one per line.
    pub fn render(&self) -> String {
        let lines: Vec<String> =
            self.diagnostics.iter().map(|d| d.to_string()).collect();
        lines.join("\n")
    }

    /// Renders only the deny-level diagnostics, one per line.
    pub fn render_denied(&self) -> String {
        let lines: Vec<String> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .map(|d| d.to_string())
            .collect();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_ordered() {
        let ids: Vec<&str> = LintCode::all().iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            [
                "RS-W001", "RS-W002", "RS-W003", "RS-W004", "RS-W005", "RS-W006",
                "RS-W007", "RS-W008", "RS-W009", "RS-W010"
            ]
        );
    }

    #[test]
    fn parse_roundtrips_every_code() {
        for &code in LintCode::all() {
            assert_eq!(LintCode::parse(code.id()).unwrap(), code);
            // Case-insensitive, whitespace-tolerant.
            assert_eq!(
                LintCode::parse(&format!(" {} ", code.id().to_lowercase())).unwrap(),
                code
            );
        }
    }

    #[test]
    fn parse_unknown_code_lists_all_known_codes() {
        let err = LintCode::parse("RS-W099").unwrap_err();
        let text = err.to_string();
        for &code in LintCode::all() {
            assert!(text.contains(code.id()), "missing {} in {text}", code.id());
        }
    }

    #[test]
    fn parse_unknown_code_suggests_nearest() {
        let err = LintCode::parse("RS-W099").unwrap_err();
        assert!(
            err.to_string().contains("did you mean RS-W009?"),
            "{err}"
        );
        // A typo one edit from RS-W001.
        let err = LintCode::parse("RS-V001").unwrap_err();
        assert!(
            err.to_string().contains("did you mean RS-W001?"),
            "{err}"
        );
        // Garbage far from every code gets no suggestion.
        let err = LintCode::parse("bananas").unwrap_err();
        assert!(!err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("RS-W099", "RS-W009"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn new_codes_have_rationales_and_warn_defaults() {
        for code in [
            LintCode::StaticInterference,
            LintCode::UnvalidatedRead,
            LintCode::StaticSerializable,
        ] {
            assert_eq!(code.default_severity(), Severity::Warn);
            assert!(!code.rationale().is_empty());
        }
        // Every code has a nonempty rationale for `analyze --explain`.
        for &code in LintCode::all() {
            assert!(!code.rationale().is_empty(), "{} lacks a rationale", code.id());
        }
    }

    #[test]
    fn overrides_accept_new_codes_and_conflicts_fail_closed() {
        let mut config = LintConfig::default();
        config
            .apply_overrides("RS-W010", "RS-W008", "RS-W009")
            .unwrap();
        assert_eq!(config.severity(LintCode::StaticSerializable), Severity::Deny);
        assert_eq!(config.severity(LintCode::StaticInterference), Severity::Warn);
        assert_eq!(config.severity(LintCode::UnvalidatedRead), Severity::Allow);

        let err = LintConfig::default()
            .apply_overrides("RS-W009", "", "RS-W009")
            .unwrap_err();
        assert!(err.to_string().contains("two severities"), "{err}");
    }

    #[test]
    fn overrides_apply_and_conflict_fails_closed() {
        let mut config = LintConfig::default();
        config.apply_overrides("RS-W003", "", "RS-W002").unwrap();
        assert_eq!(config.severity(LintCode::Footprint), Severity::Deny);
        assert_eq!(config.severity(LintCode::AbaFreedom), Severity::Allow);
        // Untouched codes keep their defaults.
        assert_eq!(config.severity(LintCode::SingleWriter), Severity::Deny);

        let err = LintConfig::default()
            .apply_overrides("RS-W001", "", "RS-W001")
            .unwrap_err();
        assert!(err.to_string().contains("two severities"), "{err}");
    }

    #[test]
    fn display_matches_rustc_style() {
        let d = Diagnostic {
            code: LintCode::SingleWriter,
            severity: Severity::Deny,
            message: "p0 writes component 1 owned by p1".to_string(),
        };
        assert_eq!(
            d.to_string(),
            "error[RS-W001]: p0 writes component 1 owned by p1"
        );
        let w = Diagnostic {
            code: LintCode::Footprint,
            severity: Severity::Warn,
            message: "m too large".to_string(),
        };
        assert_eq!(w.to_string(), "warning[RS-W003]: m too large");
    }

    #[test]
    fn report_drops_allowed_findings() {
        let mut config = LintConfig::default();
        config.set(LintCode::Footprint, Severity::Allow);
        let report = AnalysisReport::from_findings(
            vec![
                (LintCode::Footprint, "dropped".to_string()),
                (LintCode::SingleWriter, "kept".to_string()),
            ],
            &config,
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.deny_count(), 1);
        assert!(!report.is_clean());
        assert!(report.has(LintCode::SingleWriter));
        assert!(!report.has(LintCode::Footprint));
    }
}
