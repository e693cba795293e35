//! Exhaustive schedule exploration (bounded model checking).
//!
//! For small systems we can enumerate *every* interleaving up to a depth
//! bound, deduplicating indistinguishable configurations. This is how we
//! machine-check protocol properties the paper assumes of Π:
//!
//! * validity/agreement on all reachable terminal configurations
//!   ([`Explorer::explore`] with a terminal predicate);
//! * obstruction-freedom: from every reachable configuration, every solo
//!   execution terminates ([`Explorer::check_solo_termination`]);
//! * x-obstruction-freedom via [`Explorer::check_group_termination`].
//!
//! # Sequential and parallel modes
//!
//! [`Explorer::explore`] is the classic single-threaded DFS with a
//! mutable check; it stops at the first violation in DFS order.
//!
//! [`Explorer::explore_parallel`] is a level-synchronised breadth-first
//! frontier over schedule prefixes: at each depth, worker threads steal
//! chunks of the frontier, expand and check configurations in parallel,
//! and pre-filter duplicates through a shared visited-state map keyed
//! by [`ExploreKey`], which a worker derives for each child from its
//! parent's key and the [`System::successor`] step before it builds
//! the child at all. Chunk
//! results are merged in frontier order and deduplicated canonically,
//! which makes every report field — `configs_visited`, `terminals`,
//! and the first violation — **bit-for-bit identical at every thread
//! count**. The violation reported is the first in canonical schedule
//! order (shortest schedule first, then lexicographic by process id),
//! independent of which thread happened to find it.
//!
//! # Partial-order reduction
//!
//! Both modes apply **happens-before-guided dynamic partial-order
//! reduction** (on by default, see [`Explorer::with_dpor`]): sleep sets
//! over schedule prefixes, driven by the exact step-commutation oracle
//! in [`crate::hb`]. Processes are deterministic, so every
//! configuration reveals each process's next operation
//! ([`System::poised`]); when the next steps of `p` and `q` commute,
//! only one order of the adjacent pair is forked and the other is put
//! to sleep. The *source set* of a configuration — the processes worth
//! branching on — is therefore its enabled set minus the sleep set
//! carried by the arriving prefix.
//!
//! The variant implemented here is sleep sets **with state matching**
//! (re-arrival at a visited configuration wakes whatever the sleep set
//! no longer justifies skipping), which prunes redundant *forks* but
//! never loses a reachable *configuration*: every state a full search
//! visits is still visited, so checks see the same states, verdicts
//! are identical with the reduction on or off, and the canonical
//! (shortest, lexicographically least) violation schedule is preserved
//! — commuting-swap–equivalent schedules have equal length, so the
//! lex-least shortest witness always survives pruning. Suppressed
//! forks are tallied in [`ExploreReport::pruned`]; the headline metric
//! is [`ExploreReport::reduction_factor`].
//!
//! # Static interference seeding
//!
//! When DPOR is active, the explorer first condenses every process's
//! solo footprint into a static [`InterferenceMatrix`]
//! (see [`crate::analyze::interfere`]) — on by default, see
//! [`Explorer::with_static`]. The matrix is a *prefilter*: pairs it
//! calls independent would not need the per-step dynamic oracle at
//! all. Because a static analyzer must over-approximate dependence
//! and never independence, the explorer audits every static
//! "independent" answer against the dynamic oracle: confirmations are
//! tallied in [`ExploreReport::prefilter_hits`], and a disagreement
//! fails the whole run closed with [`ModelError::StaticUnsound`]. The
//! sleep sets actually used are always the dynamic oracle's answers,
//! so reports are byte-for-byte identical with seeding on or off.

use crate::analyze::interfere::InterferenceMatrix;
use crate::error::ModelError;
use crate::fingerprint::{ConfigHash, FnvStream};
use crate::hb::independent;
use crate::object::{Object, Operation};
use crate::process::{Poised, Process, ProcessId};
use crate::system::{Successor, System};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sleep and claim sets are process-id bit masks; systems with more
/// processes than this fall back to unreduced exploration (the report's
/// `dpor` flag records the fallback).
const DPOR_MAX_PROCS: usize = 32;

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum schedule depth per branch.
    pub max_depth: usize,
    /// Maximum number of distinct configurations to visit.
    pub max_configs: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_depth: 64, max_configs: 200_000 }
    }
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Distinct configurations visited.
    pub configs_visited: usize,
    /// Terminal (all-terminated) configurations found.
    pub terminals: usize,
    /// Redundant forks suppressed by partial-order reduction: enabled
    /// steps left unexplored at some configuration because every
    /// execution through them is a commuting-swap rearrangement of one
    /// that was explored. `0` when DPOR is off.
    pub pruned: usize,
    /// Whether partial-order reduction was active for this run (the
    /// configured setting, downgraded to `false` for systems with more
    /// than 32 processes).
    pub dpor: bool,
    /// Whether a static interference matrix seeded this run (the
    /// configured setting, downgraded to `false` whenever DPOR itself
    /// is inactive — the matrix only serves the reduction).
    pub static_seed: bool,
    /// Unordered process pairs the static matrix proved independent
    /// before exploration began. `0` without static seeding.
    pub static_indep_pairs: usize,
    /// Enabled-pair evaluations the static matrix answered
    /// "independent", each audited and confirmed against the dynamic
    /// oracle. `0` without static seeding.
    pub prefilter_hits: usize,
    /// Whether exploration was cut off by [`Limits`].
    pub truncated: bool,
    /// A free-text truncation notice, rendered by the CLI when present.
    /// The explorer itself always leaves it `None`: [`Limits`] cut-offs
    /// are reported through `truncated` alone.
    pub truncation: Option<String>,
    /// The first violation found, if any: the schedule that produced it
    /// and a description. Sequential mode reports the first violation
    /// in DFS order; parallel mode reports the first in canonical
    /// (breadth-first, lexicographic) schedule order.
    pub violation: Option<(Vec<ProcessId>, String)>,
}

impl ExploreReport {
    /// Did the exploration complete with no violation?
    pub fn is_clean(&self) -> bool {
        self.violation.is_none()
    }

    /// The partial-order reduction factor: how many branch expansions
    /// an unreduced search pays per expansion this search paid —
    /// `(visited + pruned) / visited`. `1.0` means no reduction.
    pub fn reduction_factor(&self) -> f64 {
        if self.configs_visited == 0 {
            return 1.0;
        }
        (self.configs_visited + self.pruned) as f64 / self.configs_visited as f64
    }
}

/// A check evaluated on every visited configuration by the parallel
/// explorer; returns a violation description to flag the configuration.
pub type ParallelCheck<'a> = &'a (dyn Fn(&System) -> Option<String> + Sync);

/// Bounded exhaustive explorer over schedules of a [`System`].
#[derive(Clone, Debug)]
pub struct Explorer {
    limits: Limits,
    threads: usize,
    preflight: bool,
    dpor: bool,
    statics: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            limits: Limits::default(),
            threads: 1,
            preflight: true,
            dpor: true,
            statics: true,
        }
    }
}

impl Explorer {
    /// Creates an explorer with the given limits (single-threaded until
    /// configured with [`Explorer::with_threads`]).
    pub fn new(limits: Limits) -> Self {
        Explorer { limits, ..Explorer::default() }
    }

    /// Sets the worker-thread count used by the `*_parallel` methods.
    /// `0` means one worker per available CPU core.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the mandatory pre-flight analysis (on by
    /// default): before any schedule runs, the static linter
    /// ([`crate::analyze::preflight`]) checks the initial system and a
    /// deny-level finding aborts the exploration with
    /// [`ModelError::PreflightRejected`]. Disable only to study a
    /// deliberately ill-formed protocol.
    #[must_use]
    pub fn with_preflight(mut self, preflight: bool) -> Self {
        self.preflight = preflight;
        self
    }

    /// Enables or disables happens-before-guided dynamic partial-order
    /// reduction (on by default). With the reduction off every enabled
    /// process is branched on at every configuration — the escape
    /// hatch for differential testing and for auditing the reduction
    /// itself. Either way the same configurations are visited and the
    /// same verdicts reached; DPOR only suppresses redundant forks
    /// (tallied in [`ExploreReport::pruned`]).
    #[must_use]
    pub fn with_dpor(mut self, dpor: bool) -> Self {
        self.dpor = dpor;
        self
    }

    /// Enables or disables static interference seeding (on by
    /// default). When on and DPOR is active, a static
    /// [`InterferenceMatrix`] is built from the initial system's solo
    /// footprints and consulted as a prefilter ahead of the per-step
    /// dynamic oracle; every static "independent" answer is audited
    /// against the dynamic one, so verdicts and counts are identical
    /// either way and an unsound matrix fails the run closed with
    /// [`ModelError::StaticUnsound`]. Off, the dynamic oracle runs
    /// alone — the escape hatch for differential testing.
    #[must_use]
    pub fn with_static(mut self, statics: bool) -> Self {
        self.statics = statics;
        self
    }

    fn run_preflight(&self, initial: &System) -> Result<(), ModelError> {
        if self.preflight {
            crate::analyze::preflight(initial, &crate::analyze::LintConfig::default())?;
        }
        Ok(())
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        }
    }

    /// Whether DPOR is effective for `initial` (configured on and the
    /// process count fits the bit-mask representation).
    fn dpor_for(&self, initial: &System) -> bool {
        self.dpor && initial.process_count() <= DPOR_MAX_PROCS
    }

    /// Builds the static interference matrix for this run, when
    /// seeding is configured on and DPOR is effective (the matrix only
    /// serves the reduction, so there is nothing to seed without it).
    fn matrix_for(&self, initial: &System, dpor: bool) -> Option<InterferenceMatrix> {
        (dpor && self.statics)
            .then(|| InterferenceMatrix::build(initial, crate::analyze::DEFAULT_BUDGET))
    }

    /// Explores all schedules from `initial`, invoking `check` on every
    /// visited configuration (with the schedule so far). `check` returns
    /// a violation description to stop the search.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn explore(
        &self,
        initial: &System,
        check: &mut dyn FnMut(&System) -> Option<String>,
    ) -> Result<ExploreReport, ModelError> {
        self.run_preflight(initial)?;
        let dpor = self.dpor_for(initial);
        let matrix = self.matrix_for(initial, dpor);
        let mut report = ExploreReport {
            configs_visited: 0,
            terminals: 0,
            pruned: 0,
            dpor,
            static_seed: matrix.is_some(),
            static_indep_pairs: matrix.as_ref().map_or(0, InterferenceMatrix::indep_pairs),
            prefilter_hits: 0,
            truncated: false,
            truncation: None,
            violation: None,
        };
        let mut seen: HashMap<u64, StateMeta> = HashMap::new();
        // The schedule so far is not stored per stack entry: it is the
        // suffix of each configuration's (copy-on-write, shared) trace
        // past the initial configuration, recovered only when a
        // violation needs reporting. Each entry carries only its sleep
        // set — the processes whose next step is a commuting swap of a
        // branch already taken elsewhere.
        let base_depth = initial.trace().len();
        let mut stack: Vec<(System, u32)> = vec![(initial.clone(), 0)];
        while let Some((mut sys, sleep)) = stack.pop() {
            let fp = sys.config_fingerprint();
            let first = !seen.contains_key(&fp);
            if first {
                if report.configs_visited >= self.limits.max_configs {
                    report.truncated = true;
                    break;
                }
                seen.insert(fp, StateMeta::default());
                report.configs_visited += 1;
                if let Some(msg) = check(&sys) {
                    report.violation = Some((schedule_since(&sys, base_depth), msg));
                    break;
                }
                if sys.all_terminated() {
                    report.terminals += 1;
                    continue;
                }
                if sys.trace().len() - base_depth >= self.limits.max_depth {
                    report.truncated = true;
                    continue;
                }
            } else {
                // Re-arrival. Without DPOR a duplicate has nothing
                // left to offer (every live process was branched on at
                // first arrival); with it, state matching may wake
                // processes the first arrival's sleep set suppressed —
                // but only from a prefix that can still expand at all.
                if !dpor {
                    continue;
                }
                if sys.all_terminated() {
                    continue;
                }
                if sys.trace().len() - base_depth >= self.limits.max_depth {
                    report.truncated = true;
                    continue;
                }
            }
            let masks = StepMasks::of(
                &sys,
                dpor,
                matrix.as_ref(),
                &mut report.prefilter_hits,
            )?;
            let meta = seen.get_mut(&fp).expect("visited entry exists");
            let claim = masks.enabled & !sleep & !meta.expanded;
            if dpor {
                let newly_slept = masks.enabled & sleep & !meta.expanded & !meta.slept;
                meta.slept |= newly_slept;
                report.pruned += newly_slept.count_ones() as usize;
                let reclaimed = claim & meta.slept;
                meta.slept &= !reclaimed;
                report.pruned -= reclaimed.count_ones() as usize;
            }
            meta.expanded |= claim;
            if claim == 0 {
                continue;
            }
            // Seal the trace so each fork below copies zero events, and
            // move the parent into its last child instead of cloning it
            // one extra time.
            sys.freeze_trace();
            let mut remaining = claim;
            while remaining != 0 {
                let q = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let child_sleep = if dpor {
                    masks.indep[q] & (sleep | (claim & low_bits(q)))
                } else {
                    0
                };
                if remaining == 0 {
                    sys.step(ProcessId(q))?;
                    stack.push((sys, child_sleep));
                    break;
                }
                let mut fork = sys.clone();
                fork.step(ProcessId(q))?;
                stack.push((fork, child_sleep));
            }
        }
        Ok(report)
    }

    /// Parallel exhaustive exploration: a level-synchronised frontier
    /// over schedule prefixes, with worker threads stealing chunks of
    /// each level and a shared visited-state map deduplicating
    /// configurations.
    ///
    /// Every field of the returned report is deterministic — identical
    /// at 1, 2, or N threads — because chunk results are merged in
    /// frontier order and the violation chosen is the canonically first
    /// (shortest schedule, then lexicographically smallest).
    ///
    /// Unlike [`Explorer::explore`], the check must be `Fn + Sync`; it
    /// runs concurrently on many configurations.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system (the
    /// canonically first error when several workers fail).
    pub fn explore_parallel(
        &self,
        initial: &System,
        check: ParallelCheck,
    ) -> Result<ExploreReport, ModelError> {
        self.explore_parallel_inner(initial, check, false)
            .map(|(report, _)| report)
    }

    fn explore_parallel_inner(
        &self,
        initial: &System,
        check: ParallelCheck,
        collect_terminals: bool,
    ) -> Result<(ExploreReport, Vec<Vec<Value>>), ModelError> {
        self.run_preflight(initial)?;
        let threads = self.resolved_threads();
        let dpor = self.dpor_for(initial);
        let matrix = self.matrix_for(initial, dpor);
        let mut report = ExploreReport {
            configs_visited: 0,
            terminals: 0,
            pruned: 0,
            dpor,
            static_seed: matrix.is_some(),
            static_indep_pairs: matrix.as_ref().map_or(0, InterferenceMatrix::indep_pairs),
            prefilter_hits: 0,
            truncated: false,
            truncation: None,
            violation: None,
        };
        let mut terminal_outputs: Vec<Vec<Value>> = Vec::new();
        let mut seen_outputs: HashSet<Vec<Value>> = HashSet::new();

        // Workers read the visited map of all *previous* levels as a
        // duplicate pre-filter; the merge below is the only writer, and
        // runs strictly between levels.
        let mut visited: HashMap<u64, StateMeta> = HashMap::new();
        let root_masks = StepMasks::of(
            initial,
            dpor,
            matrix.as_ref(),
            &mut report.prefilter_hits,
        )?;
        let root_key = ExploreKey::of(initial);
        visited.insert(
            root_key.value(),
            StateMeta { expanded: root_masks.enabled, slept: 0 },
        );
        report.configs_visited = 1;
        let base_depth = initial.trace().len();
        let mut root = initial.clone();
        root.freeze_trace();
        let mut frontier: Vec<Prefix> = vec![Prefix {
            sys: root,
            key: root_key,
            sleep: 0,
            claim: root_masks.enabled,
            first: true,
        }];

        while !frontier.is_empty() {
            let level = self.run_level(
                &frontier, base_depth, check, &visited, threads, dpor,
                matrix.as_ref(),
            );

            // Merge chunk results in frontier order: every aggregate
            // below is then independent of worker scheduling.
            let mut chunks = level.into_inner().expect("level results lock");
            chunks.sort_by_key(|c| c.start);
            let error = chunks
                .iter()
                .filter_map(|c| c.error.as_ref())
                .min_by_key(|(idx, _)| *idx);
            let mut violation: Option<(usize, Vec<ProcessId>, String)> = None;
            for chunk in &chunks {
                if let Some((idx, sched, msg)) = &chunk.violation {
                    if violation.as_ref().is_none_or(|(best, _, _)| idx < best) {
                        violation = Some((*idx, sched.clone(), msg.clone()));
                    }
                }
            }
            // When a level has both an error and a violation, report
            // whichever occurred at the canonically smaller frontier
            // index — this keeps the outcome identical across thread
            // counts (chunk boundaries depend on the thread count).
            if let Some((err_idx, err)) = error {
                if violation
                    .as_ref()
                    .is_none_or(|(vio_idx, _, _)| err_idx < vio_idx)
                {
                    return Err(err.clone());
                }
            }
            let mut children: Vec<Child> = Vec::new();
            for chunk in chunks {
                report.terminals += chunk.terminals;
                report.truncated |= chunk.truncated;
                report.prefilter_hits += chunk.prefilter_hits;
                if collect_terminals {
                    for outs in chunk.terminal_outputs {
                        if seen_outputs.insert(outs.clone()) {
                            terminal_outputs.push(outs);
                        }
                    }
                }
                children.extend(chunk.children);
            }
            if let Some((_, sched, msg)) = violation {
                report.violation = Some((sched, msg));
                break;
            }

            // Canonical dedup: children arrive ordered by (parent
            // frontier index, process id) — exactly the breadth-first
            // lexicographic order — so the first occurrence of each
            // configuration carries its canonical schedule (recoverable
            // from its trace). Under DPOR, a re-arrival may still wake
            // processes its sleep set no longer covers (state
            // matching): it re-enters the frontier as a non-`first`
            // prefix that is expanded but not re-counted or re-checked.
            let mut next = Vec::new();
            for child in children {
                let Child { mut sys, key, sleep, enabled } = child;
                let fp = key.value();
                match visited.get_mut(&fp) {
                    None => {
                        if report.configs_visited >= self.limits.max_configs {
                            report.truncated = true;
                            break;
                        }
                        report.configs_visited += 1;
                        let claim = enabled & !sleep;
                        let slept = if dpor { enabled & sleep } else { 0 };
                        report.pruned += slept.count_ones() as usize;
                        visited.insert(fp, StateMeta { expanded: claim, slept });
                        // Seal before the next level forks this
                        // configuration.
                        sys.freeze_trace();
                        next.push(Prefix { sys, key, sleep, claim, first: true });
                    }
                    Some(meta) => {
                        if !dpor {
                            continue;
                        }
                        let claim = enabled & !sleep & !meta.expanded;
                        let newly_slept =
                            enabled & sleep & !meta.expanded & !meta.slept;
                        meta.slept |= newly_slept;
                        report.pruned += newly_slept.count_ones() as usize;
                        let reclaimed = claim & meta.slept;
                        meta.slept &= !reclaimed;
                        report.pruned -= reclaimed.count_ones() as usize;
                        meta.expanded |= claim;
                        if claim != 0 {
                            sys.freeze_trace();
                            next.push(Prefix { sys, key, sleep, claim, first: false });
                        }
                    }
                }
            }
            if report.truncated && next.is_empty() {
                break;
            }
            frontier = next;
        }
        Ok((report, terminal_outputs))
    }

    /// Runs one frontier level across `threads` workers stealing chunks
    /// through a shared atomic cursor.
    #[allow(clippy::too_many_arguments)]
    fn run_level(
        &self,
        frontier: &[Prefix],
        base_depth: usize,
        check: ParallelCheck,
        visited: &HashMap<u64, StateMeta>,
        threads: usize,
        dpor: bool,
        matrix: Option<&InterferenceMatrix>,
    ) -> Mutex<Vec<LevelChunk>> {
        let results: Mutex<Vec<LevelChunk>> = Mutex::new(Vec::new());
        let cursor = AtomicUsize::new(0);
        let chunk_size = frontier.len().div_ceil(threads * 4).max(1);
        let max_depth = self.limits.max_depth;
        std::thread::scope(|scope| {
            for _ in 0..threads.min(frontier.len()) {
                scope.spawn(|| loop {
                    let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                    if start >= frontier.len() {
                        break;
                    }
                    let end = (start + chunk_size).min(frontier.len());
                    let chunk = expand_chunk(
                        &frontier[start..end],
                        start,
                        base_depth,
                        check,
                        visited,
                        max_depth,
                        dpor,
                        matrix,
                    );
                    results.lock().expect("level results lock").push(chunk);
                });
            }
        });
        results
    }

    /// Collects the set of output vectors over all reachable terminal
    /// configurations. Each vector is indexed by process.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn terminal_outputs(
        &self,
        initial: &System,
    ) -> Result<(Vec<Vec<Value>>, ExploreReport), ModelError> {
        let mut outputs: Vec<Vec<Value>> = Vec::new();
        let mut seen_outputs: HashSet<Vec<Value>> = HashSet::new();
        let report = self.explore(initial, &mut |sys| {
            if sys.all_terminated() {
                let outs: Vec<Value> =
                    sys.outputs().into_iter().map(Option::unwrap).collect();
                if seen_outputs.insert(outs.clone()) {
                    outputs.push(outs);
                }
            }
            None
        })?;
        Ok((outputs, report))
    }

    /// Parallel [`Explorer::terminal_outputs`]: same output set, same
    /// report determinism guarantees as [`Explorer::explore_parallel`].
    /// Outputs are returned in canonical first-reached order.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn terminal_outputs_parallel(
        &self,
        initial: &System,
    ) -> Result<(Vec<Vec<Value>>, ExploreReport), ModelError> {
        let (report, outputs) =
            self.explore_parallel_inner(initial, &|_| None, true)?;
        Ok((outputs, report))
    }

    /// Checks obstruction-freedom empirically: from every reachable
    /// configuration (within limits), every live process terminates when
    /// run solo for at most `solo_budget` steps.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn check_solo_termination(
        &self,
        initial: &System,
        solo_budget: usize,
    ) -> Result<ExploreReport, ModelError> {
        self.check_group_termination(initial, 1, solo_budget)
    }

    /// Parallel [`Explorer::check_solo_termination`] (Theorem 35's
    /// hypothesis checked across all cores).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn check_solo_termination_parallel(
        &self,
        initial: &System,
        solo_budget: usize,
    ) -> Result<ExploreReport, ModelError> {
        self.check_group_termination_parallel(initial, 1, solo_budget)
    }

    /// Checks x-obstruction-freedom empirically: from every reachable
    /// configuration, for every group of at most `x` live processes
    /// (rotations of the live set) and for several round-robin quanta
    /// (each member taking 1, 2, or 3 consecutive steps per turn —
    /// step-level and operation-level alternation differ for snapshot
    /// protocols), running only that group for `budget` steps
    /// terminates all of them.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn check_group_termination(
        &self,
        initial: &System,
        x: usize,
        budget: usize,
    ) -> Result<ExploreReport, ModelError> {
        self.explore(initial, &mut |sys| group_termination_check(sys, x, budget))
    }

    /// Parallel [`Explorer::check_group_termination`]: the group-run
    /// check — the expensive part — fans out across worker threads.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn check_group_termination_parallel(
        &self,
        initial: &System,
        x: usize,
        budget: usize,
    ) -> Result<ExploreReport, ModelError> {
        self.explore_parallel(initial, &move |sys| {
            group_termination_check(sys, x, budget)
        })
    }
}

/// The parallel explorer's in-memory configuration key, kept per
/// component so a step re-hashes only what it touched.
///
/// The key is the XOR of one term per object and one per process. A
/// term is the FNV hash of the component's key bytes (the bytes
/// [`System::config_key`] writes for it), salted with the component's
/// position and passed through a 64-bit mixer. A step changes one
/// process and at most one object, so [`ExploreKey::after`] derives a
/// child's key from its parent's by swapping out those terms, before
/// the child configuration is built.
///
/// The key never leaves memory. [`System::config_fingerprint`] stays
/// the persisted identity of a configuration: coverage sets, bundles,
/// checkpoints and the golden tests use it.
///
/// # Examples
///
/// ```
/// use rsim_smr::explore::ExploreKey;
/// use rsim_smr::object::Object;
/// use rsim_smr::process::{Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
/// use rsim_smr::system::System;
/// use rsim_smr::value::Value;
///
/// #[derive(Clone, Debug)]
/// struct Once;
/// impl SnapshotProtocol for Once {
///     fn on_scan(&mut self, _: &[Value]) -> ProtocolStep {
///         ProtocolStep::Update(0, Value::Int(1))
///     }
///     fn components(&self) -> usize { 1 }
/// }
///
/// let p = SnapshotProcess::new(Once, rsim_smr::object::ObjectId(0));
/// let sys = System::new(vec![Object::snapshot(1)], vec![Box::new(p) as Box<dyn Process>]);
/// let next = sys.successor(ProcessId(0)).unwrap();
/// let derived = ExploreKey::of(&sys).after(&next);
/// assert_eq!(derived, ExploreKey::of(&sys.with_successor(next)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreKey {
    value: u64,
    /// Number of objects: `terms` holds one term per object, then one
    /// per process.
    objects: usize,
    terms: Box<[u64]>,
}

impl ExploreKey {
    /// Computes the key of `sys` from scratch.
    pub fn of(sys: &System) -> ExploreKey {
        let objects = sys.objects();
        let processes = (0..sys.process_count())
            .map(|i| sys.process(ProcessId(i)).expect("process index in range"));
        let terms: Box<[u64]> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| object_term(i, o))
            .chain(processes.enumerate().map(|(i, p)| process_term(objects.len() + i, p)))
            .collect();
        ExploreKey {
            value: terms.iter().fold(0, |acc, t| acc ^ t),
            objects: objects.len(),
            terms,
        }
    }

    /// The 64-bit key the explorer deduplicates on.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The key of the configuration `next` leads to, derived from this
    /// one (the key of the configuration `next` was computed on) by
    /// re-hashing only the stepped process and the written object.
    pub fn after(&self, next: &Successor) -> ExploreKey {
        let mut child = self.clone();
        let event = next.event();
        let position = self.objects + event.pid.0;
        child.swap(position, process_term(position, next.process()));
        if let Some(object) = next.object() {
            let position = event.op.object().0;
            child.swap(position, object_term(position, object));
        }
        child
    }

    fn swap(&mut self, position: usize, term: u64) {
        self.value ^= self.terms[position] ^ term;
        self.terms[position] = term;
    }
}

fn object_term(position: usize, object: &Object) -> u64 {
    let mut h = FnvStream::new();
    object.hash_config(&mut h);
    salted(position, h.finish())
}

fn process_term(position: usize, process: &dyn Process) -> u64 {
    let mut h = FnvStream::new();
    process.write_state_key(&mut h);
    salted(position, h.finish())
}

/// Salts a component hash with its position and mixes it (the
/// SplitMix64 finalizer), so equal components at different positions,
/// and small hash differences, give unrelated terms.
fn salted(position: usize, hash: u64) -> u64 {
    let mut z = hash ^ (position as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The set of bits below bit `q`.
fn low_bits(q: usize) -> u32 {
    (1u32 << q) - 1
}

/// Per-configuration bookkeeping for sleep-set pruning with state
/// matching, keyed by configuration fingerprint.
#[derive(Clone, Copy, Default)]
struct StateMeta {
    /// Processes already branched on from this configuration, over all
    /// arrivals.
    expanded: u32,
    /// Enabled processes a sleep set suppressed here, currently
    /// counted in `pruned` (a bit moves out again if a later arrival
    /// wakes and expands it).
    slept: u32,
}

/// The poised-step view of one configuration as process-id bit masks:
/// which processes are live, and which pairs of next operations
/// commute.
struct StepMasks {
    /// Live (non-terminated) processes.
    enabled: u32,
    /// Per process `q`: the processes whose next operation commutes
    /// with `q`'s (empty vector when DPOR is off — never read).
    indep: Vec<u32>,
}

impl StepMasks {
    /// Computes the masks for one configuration. With a `matrix`
    /// present, every enabled pair the matrix calls statically
    /// independent is audited against the dynamic oracle: a confirmed
    /// answer bumps `prefilter_hits`, a contradicted one fails closed
    /// with [`ModelError::StaticUnsound`] (the static pass may
    /// over-approximate dependence, never independence). The masks
    /// actually used are always the dynamic oracle's answers, so the
    /// exploration is identical with or without the matrix.
    fn of(
        sys: &System,
        dpor: bool,
        matrix: Option<&InterferenceMatrix>,
        prefilter_hits: &mut usize,
    ) -> Result<StepMasks, ModelError> {
        let n = sys.process_count();
        let mut ops: Vec<Option<Operation>> = Vec::with_capacity(n);
        let mut enabled = 0u32;
        for i in 0..n {
            match sys.poised(ProcessId(i)) {
                Poised::Step(op) => {
                    if i < DPOR_MAX_PROCS {
                        enabled |= 1 << i;
                    }
                    ops.push(Some(op));
                }
                Poised::Output(_) => ops.push(None),
            }
        }
        let mut indep = Vec::new();
        if dpor {
            indep = vec![0u32; n];
            for i in 0..n {
                let Some(op_i) = &ops[i] else { continue };
                for j in i + 1..n {
                    let Some(op_j) = &ops[j] else { continue };
                    let dynamic = independent(op_i, op_j);
                    if matrix.is_some_and(|m| m.independent(i, j)) {
                        if dynamic {
                            *prefilter_hits += 1;
                        } else {
                            return Err(ModelError::StaticUnsound {
                                p: i,
                                q: j,
                                ops: format!("{op_i:?} vs {op_j:?}"),
                            });
                        }
                    }
                    if dynamic {
                        indep[i] |= 1 << j;
                        indep[j] |= 1 << i;
                    }
                }
            }
        }
        Ok(StepMasks { enabled, indep })
    }
}

/// One schedule prefix awaiting expansion in the parallel frontier.
struct Prefix {
    sys: System,
    /// Explorer key of `sys`, kept per component for its children.
    key: ExploreKey,
    /// Sleep set this arrival carries (always 0 with DPOR off).
    sleep: u32,
    /// Processes to branch on from this entry, claimed canonically at
    /// merge time (ignored with DPOR off: every live process forks).
    claim: u32,
    /// First arrival at this configuration: it is counted, checked,
    /// and eligible to be a terminal. Re-arrivals only expand newly
    /// woken claims.
    first: bool,
}

/// One freshly forked configuration travelling from a worker to the
/// canonical merge.
struct Child {
    sys: System,
    key: ExploreKey,
    /// Sleep set the fork inherited (0 with DPOR off).
    sleep: u32,
    /// Live processes of the fork (0 with DPOR off — never read).
    enabled: u32,
}

/// One worker chunk's share of a frontier level.
struct LevelChunk {
    /// Index of the first frontier entry in this chunk.
    start: usize,
    terminals: usize,
    truncated: bool,
    /// Lowest-index violation within the chunk.
    violation: Option<(usize, Vec<ProcessId>, String)>,
    /// Children in (parent index, process id) order, with their keys.
    children: Vec<Child>,
    /// Output vectors of terminal configurations in this chunk.
    terminal_outputs: Vec<Vec<Value>>,
    /// Lowest-index step error within the chunk.
    error: Option<(usize, ModelError)>,
    /// Static-prefilter confirmations across the chunk's entries.
    prefilter_hits: usize,
}

/// Checks and expands one chunk of frontier entries. `base_depth` is
/// the trace length of the initial configuration: the schedule of any
/// entry is its trace suffix past that point.
#[allow(clippy::too_many_arguments)]
fn expand_chunk(
    entries: &[Prefix],
    start: usize,
    base_depth: usize,
    check: ParallelCheck,
    visited: &HashMap<u64, StateMeta>,
    max_depth: usize,
    dpor: bool,
    matrix: Option<&InterferenceMatrix>,
) -> LevelChunk {
    let mut out = LevelChunk {
        start,
        terminals: 0,
        truncated: false,
        violation: None,
        children: Vec::new(),
        terminal_outputs: Vec::new(),
        error: None,
        prefilter_hits: 0,
    };
    for (offset, entry) in entries.iter().enumerate() {
        let idx = start + offset;
        let sys = &entry.sys;
        // Panic isolation: a panicking check (or a panic while forking)
        // becomes a structured WorkerPanic at this entry's canonical
        // index instead of tearing down the worker and hanging the
        // level barrier.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if entry.first {
                if let Some(msg) = check(sys) {
                    out.violation = Some((idx, schedule_since(sys, base_depth), msg));
                    // Later entries in the chunk cannot improve on this
                    // index.
                    return false;
                }
                if sys.all_terminated() {
                    out.terminals += 1;
                    out.terminal_outputs.push(
                        sys.outputs().into_iter().map(Option::unwrap).collect(),
                    );
                    return true;
                }
            }
            if sys.trace().len() - base_depth >= max_depth {
                out.truncated = true;
                return true;
            }
            if dpor {
                let masks = match StepMasks::of(
                    sys,
                    true,
                    matrix,
                    &mut out.prefilter_hits,
                ) {
                    Ok(masks) => masks,
                    Err(err) => {
                        // An unsound matrix fails the entry closed; the
                        // canonical merge picks the lowest-index error
                        // across chunks, keeping the outcome identical
                        // at every thread count.
                        if out.error.is_none() {
                            out.error = Some((idx, err));
                        }
                        return true;
                    }
                };
                let mut remaining = entry.claim;
                while remaining != 0 {
                    let q = remaining.trailing_zeros() as usize;
                    remaining &= remaining - 1;
                    let next = match sys.successor(ProcessId(q)) {
                        Ok(next) => next,
                        Err(err) => {
                            if out.error.is_none() {
                                out.error = Some((idx, err));
                            }
                            continue;
                        }
                    };
                    let key = entry.key.after(&next);
                    let sleep =
                        masks.indep[q] & (entry.sleep | (entry.claim & low_bits(q)));
                    // Only stepping q can change liveness: the child's
                    // enabled set is the parent's, minus q if it just
                    // terminated.
                    let enabled = if next.process().terminated() {
                        masks.enabled & !(1 << q)
                    } else {
                        masks.enabled
                    };
                    // Concurrent pre-filter against the previous
                    // levels' visited map: drop the child, before it is
                    // ever built, when the merge could not possibly
                    // claim anything from it. (`expanded` can only have
                    // grown since the map was frozen, so this never
                    // drops a live claim.)
                    if let Some(meta) = visited.get(&key.value()) {
                        if enabled & !sleep & !meta.expanded == 0 {
                            continue;
                        }
                    }
                    let child = sys.with_successor(next);
                    out.children.push(Child { sys: child, key, sleep, enabled });
                }
            } else {
                for i in 0..sys.process_count() {
                    let pid = ProcessId(i);
                    if sys.is_terminated(pid) {
                        continue;
                    }
                    let next = match sys.successor(pid) {
                        Ok(next) => next,
                        Err(err) => {
                            if out.error.is_none() {
                                out.error = Some((idx, err));
                            }
                            continue;
                        }
                    };
                    let key = entry.key.after(&next);
                    // Concurrent pre-filter: configurations
                    // deduplicated at an earlier level are never built.
                    // Within-level duplicates are resolved canonically
                    // by the merge itself.
                    if visited.contains_key(&key.value()) {
                        continue;
                    }
                    let child = sys.with_successor(next);
                    out.children.push(Child { sys: child, key, sleep: 0, enabled: 0 });
                }
            }
            true
        }));
        match attempt {
            Ok(true) => {}
            Ok(false) => break,
            Err(payload) => {
                let panic_err = ModelError::WorkerPanic {
                    context: format!(
                        "frontier entry {idx} (schedule {:?})",
                        schedule_since(sys, base_depth)
                            .iter()
                            .map(|p| p.0)
                            .collect::<Vec<_>>()
                    ),
                    message: payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into()),
                };
                if out.error.as_ref().is_none_or(|(best, _)| idx < *best) {
                    out.error = Some((idx, panic_err));
                }
            }
        }
    }
    out
}

/// The schedule that produced `sys`: the process ids of its trace
/// events past the initial configuration's `base_depth` events.
fn schedule_since(sys: &System, base_depth: usize) -> Vec<ProcessId> {
    sys.trace().events_from(base_depth).map(|e| e.pid).collect()
}

/// The x-obstruction-freedom check run on one configuration: every
/// rotation-group of at most `x` live processes, under quanta 1/2/3,
/// must terminate within `budget` steps. Shared by the sequential and
/// parallel explorer paths.
fn group_termination_check(sys: &System, x: usize, budget: usize) -> Option<String> {
    let n = sys.process_count();
    let quanta: &[usize] = if x == 1 { &[1] } else { &[1, 2, 3] };
    let live: Vec<ProcessId> = (0..n)
        .map(ProcessId)
        .filter(|&p| !sys.is_terminated(p))
        .collect();
    if live.is_empty() {
        return None;
    }
    // Rotations of the live set give n candidate groups of size
    // ≤ x; for x = 1 this is exactly "every solo execution".
    for start in 0..live.len() {
        let group: Vec<ProcessId> = (0..x.min(live.len()))
            .map(|k| live[(start + k) % live.len()])
            .collect();
        for &quantum in quanta {
            let mut fork = sys.clone();
            let mut steps = 0;
            'run: while steps < budget {
                let mut progressed = false;
                for &p in &group {
                    for _ in 0..quantum {
                        if fork.is_terminated(p) {
                            break;
                        }
                        if fork.step(p).is_err() {
                            return Some(format!(
                                "step error during group run of {group:?}"
                            ));
                        }
                        steps += 1;
                        progressed = true;
                        if steps >= budget {
                            break 'run;
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
            if group.iter().any(|&p| !fork.is_terminated(p)) {
                return Some(format!(
                    "group {group:?} failed to terminate within {budget} \
                     steps (quantum {quantum})"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId, Response};
    use crate::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};

    /// Writes its input then outputs the register's content.
    #[derive(Clone, Debug)]
    struct WriteThenRead {
        input: i64,
        wrote: bool,
    }

    impl SnapshotProtocol for WriteThenRead {
        fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
            if self.wrote {
                ProtocolStep::Output(view[0].clone())
            } else {
                self.wrote = true;
                ProtocolStep::Update(0, Value::Int(self.input))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn two_process_system() -> System {
        let mk = |input| {
            Box::new(SnapshotProcess::new(
                WriteThenRead { input, wrote: false },
                ObjectId(0),
            )) as Box<dyn Process>
        };
        System::new(vec![Object::snapshot(1)], vec![mk(1), mk(2)])
    }

    /// `n` processes that each write their own snapshot component then
    /// output: heavy on commuting (different-component) updates, so
    /// DPOR should prune a lot.
    fn independent_writers(n: usize) -> System {
        #[derive(Clone, Debug)]
        struct OwnSlot {
            slot: usize,
            wrote: bool,
        }
        impl SnapshotProtocol for OwnSlot {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                if self.wrote {
                    ProtocolStep::Output(Value::Int(self.slot as i64))
                } else {
                    self.wrote = true;
                    ProtocolStep::Update(self.slot, Value::Int(1))
                }
            }
            fn components(&self) -> usize {
                4
            }
        }
        let processes = (0..n)
            .map(|slot| {
                Box::new(SnapshotProcess::new(
                    OwnSlot { slot, wrote: false },
                    ObjectId(0),
                )) as Box<dyn Process>
            })
            .collect();
        System::new(vec![Object::snapshot(4)], processes)
    }

    /// Writes its own snapshot component without ever scanning, then
    /// outputs: processes are *statically* independent (disjoint write
    /// sets, no reads), so the interference matrix can actually answer
    /// pair queries ahead of the dynamic oracle.
    #[derive(Clone, Debug)]
    struct BlindWriter {
        slot: usize,
        wrote: bool,
    }

    impl Process for BlindWriter {
        fn poised(&self) -> Poised {
            if self.wrote {
                Poised::Output(Value::Int(self.slot as i64))
            } else {
                Poised::Step(Operation::Update {
                    obj: ObjectId(0),
                    component: self.slot,
                    value: Value::Int(1),
                })
            }
        }
        fn receive(&mut self, _resp: Response) {
            self.wrote = true;
        }
        fn boxed_clone(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }
    }

    fn blind_writers(n: usize) -> System {
        let processes = (0..n)
            .map(|slot| {
                Box::new(BlindWriter { slot, wrote: false }) as Box<dyn Process>
            })
            .collect();
        System::new(vec![Object::snapshot(n)], processes)
    }

    #[test]
    fn explores_all_terminal_outputs() {
        let explorer = Explorer::default();
        let (outputs, report) =
            explorer.terminal_outputs(&two_process_system()).unwrap();
        assert!(!report.truncated);
        assert!(report.terminals > 0);
        // Outcomes: each process outputs the last write it saw; all four
        // combinations of {1,2}×{1,2} except impossible ones. At minimum
        // both-see-own and both-see-other occur.
        assert!(outputs.contains(&vec![Value::Int(1), Value::Int(2)]));
        assert!(outputs.len() >= 2);
    }

    #[test]
    fn parallel_terminal_outputs_match_sequential() {
        let explorer = Explorer::default().with_threads(4);
        let (seq, seq_report) =
            Explorer::default().terminal_outputs(&two_process_system()).unwrap();
        let (par, par_report) =
            explorer.terminal_outputs_parallel(&two_process_system()).unwrap();
        let mut seq_sorted: Vec<String> =
            seq.iter().map(|o| format!("{o:?}")).collect();
        let mut par_sorted: Vec<String> =
            par.iter().map(|o| format!("{o:?}")).collect();
        seq_sorted.sort();
        par_sorted.sort();
        assert_eq!(seq_sorted, par_sorted);
        assert_eq!(seq_report.configs_visited, par_report.configs_visited);
        assert_eq!(seq_report.terminals, par_report.terminals);
    }

    #[test]
    fn dpor_visits_the_same_states_and_verdicts() {
        // The cornerstone contract: sleep sets prune forks, never
        // configurations. On and off must agree on every count except
        // `pruned`, in both modes.
        for sys in [two_process_system(), independent_writers(3)] {
            let on = Explorer::default();
            let off = Explorer::default().with_dpor(false);
            let (out_on, rep_on) = on.terminal_outputs(&sys).unwrap();
            let (out_off, rep_off) = off.terminal_outputs(&sys).unwrap();
            assert_eq!(rep_on.configs_visited, rep_off.configs_visited);
            assert_eq!(rep_on.terminals, rep_off.terminals);
            let sort = |v: &[Vec<Value>]| {
                let mut s: Vec<String> = v.iter().map(|o| format!("{o:?}")).collect();
                s.sort();
                s
            };
            assert_eq!(sort(&out_on), sort(&out_off));
            assert!(rep_on.dpor);
            assert!(!rep_off.dpor);
            assert_eq!(rep_off.pruned, 0);

            let par_on = on.with_threads(4).explore_parallel(&sys, &|_| None).unwrap();
            let par_off =
                off.with_threads(4).explore_parallel(&sys, &|_| None).unwrap();
            assert_eq!(par_on.configs_visited, par_off.configs_visited);
            assert_eq!(par_on.terminals, par_off.terminals);
            assert_eq!(par_off.pruned, 0);
        }
    }

    #[test]
    fn dpor_prunes_commuting_writers() {
        // Three writers to three different components: almost every
        // adjacent pair commutes, so the reduction must actually fire.
        let sys = independent_writers(3);
        let report = Explorer::default().explore(&sys, &mut |_| None).unwrap();
        assert!(report.dpor);
        assert!(report.pruned > 0, "no forks pruned: {report:?}");
        assert!(report.reduction_factor() > 1.0);
        let par = Explorer::default()
            .with_threads(4)
            .explore_parallel(&sys, &|_| None)
            .unwrap();
        assert!(par.pruned > 0);
    }

    #[test]
    fn parallel_dpor_report_is_thread_count_invariant() {
        let sys = independent_writers(3);
        let base = Explorer::default()
            .with_threads(1)
            .explore_parallel(&sys, &|_| None)
            .unwrap();
        for threads in [2, 4, 8] {
            let rep = Explorer::default()
                .with_threads(threads)
                .explore_parallel(&sys, &|_| None)
                .unwrap();
            assert_eq!(rep.configs_visited, base.configs_visited, "t={threads}");
            assert_eq!(rep.terminals, base.terminals, "t={threads}");
            assert_eq!(rep.pruned, base.pruned, "t={threads}");
        }
    }

    #[test]
    fn solo_termination_holds_for_terminating_protocol() {
        let explorer = Explorer::default();
        let report = explorer
            .check_solo_termination(&two_process_system(), 10)
            .unwrap();
        assert!(report.is_clean(), "violation: {:?}", report.violation);
    }

    #[test]
    fn parallel_solo_termination_holds() {
        let explorer = Explorer::default().with_threads(0);
        let report = explorer
            .check_solo_termination_parallel(&two_process_system(), 10)
            .unwrap();
        assert!(report.is_clean(), "violation: {:?}", report.violation);
    }

    #[test]
    fn solo_termination_catches_spinner() {
        /// Never terminates: keeps writing forever.
        #[derive(Clone, Debug)]
        struct Spinner {
            i: i64,
        }
        impl SnapshotProtocol for Spinner {
            fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
                self.i += 1;
                ProtocolStep::Update(0, Value::Int(self.i))
            }
            fn components(&self) -> usize {
                1
            }
        }
        let sys = System::new(
            vec![Object::snapshot(1)],
            vec![Box::new(SnapshotProcess::new(Spinner { i: 0 }, ObjectId(0)))],
        );
        let explorer = Explorer::new(Limits { max_depth: 3, max_configs: 1000 });
        let report = explorer.check_solo_termination(&sys, 20).unwrap();
        assert!(!report.is_clean());
        let report = explorer
            .with_threads(2)
            .check_solo_termination_parallel(&sys, 20)
            .unwrap();
        assert!(!report.is_clean());
    }

    #[test]
    fn violation_reports_schedule() {
        let explorer = Explorer::default();
        let report = explorer
            .explore(&two_process_system(), &mut |sys| {
                sys.output(ProcessId(0)).map(|v| format!("p0 output {v}"))
            })
            .unwrap();
        let (schedule, msg) = report.violation.unwrap();
        assert!(msg.contains("p0 output"));
        assert!(!schedule.is_empty());
    }

    #[test]
    fn parallel_violation_is_canonical() {
        // The canonical (BFS-lexicographic) first schedule on which p0
        // has output: p0 runs solo for its 3 steps (scan, update, scan).
        let check = |sys: &System| {
            sys.output(ProcessId(0)).map(|v| format!("p0 output {v}"))
        };
        for threads in [1, 2, 8] {
            for dpor in [true, false] {
                let explorer =
                    Explorer::default().with_threads(threads).with_dpor(dpor);
                let report = explorer
                    .explore_parallel(&two_process_system(), &check)
                    .unwrap();
                let (schedule, msg) = report.violation.unwrap();
                assert!(msg.contains("p0 output"));
                assert_eq!(
                    schedule,
                    vec![ProcessId(0), ProcessId(0), ProcessId(0)],
                    "threads = {threads}, dpor = {dpor}"
                );
            }
        }
    }

    #[test]
    fn dedup_bounds_visited_configs() {
        let explorer = Explorer::default();
        let report = explorer
            .explore(&two_process_system(), &mut |_| None)
            .unwrap();
        // Without dedup the tree has hundreds of nodes; with dedup the
        // distinct-configuration count is small.
        assert!(report.configs_visited < 100);
    }

    #[test]
    fn parallel_depth_truncation_matches_flag() {
        let explorer = Explorer::new(Limits { max_depth: 1, max_configs: 1000 })
            .with_threads(2);
        let report = explorer
            .explore_parallel(&two_process_system(), &|_| None)
            .unwrap();
        assert!(report.truncated);
    }

    #[test]
    fn parallel_config_budget_truncates() {
        let explorer = Explorer::new(Limits { max_depth: 64, max_configs: 3 })
            .with_threads(2);
        let report = explorer
            .explore_parallel(&two_process_system(), &|_| None)
            .unwrap();
        assert!(report.truncated);
        assert!(report.configs_visited <= 3);
    }

    #[test]
    fn panicking_check_becomes_structured_worker_panic() {
        // The check panics once p0 has produced an output. At any
        // thread count this must surface as Err(WorkerPanic) carrying
        // the canonical schedule — never a dead worker or a hang.
        let check = |sys: &System| -> Option<String> {
            assert!(
                sys.output(ProcessId(0)).is_none(),
                "injected check panic"
            );
            None
        };
        let mut messages = Vec::new();
        for threads in [1, 2, 8] {
            let explorer = Explorer::default().with_threads(threads);
            let err = explorer
                .explore_parallel(&two_process_system(), &check)
                .unwrap_err();
            match &err {
                ModelError::WorkerPanic { context, message } => {
                    assert!(context.contains("frontier entry"));
                    assert!(message.contains("injected check panic"));
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
            messages.push(err.to_string());
        }
        assert!(
            messages.iter().all(|m| m == &messages[0]),
            "panic report differs across thread counts: {messages:?}"
        );
    }

    #[test]
    fn unlimited_explorations_carry_no_truncation_notice() {
        let report = Explorer::default()
            .explore(&two_process_system(), &mut |_| None)
            .unwrap();
        assert!(!report.truncated);
        assert!(report.truncation.is_none());
    }

    #[test]
    fn static_seeding_leaves_reports_identical() {
        // The audit contract: the matrix is a prefilter only, the
        // masks used are always the dynamic oracle's — every verdict
        // and count must match with the seeding on or off, in both
        // explorer modes.
        for sys in
            [two_process_system(), independent_writers(3), blind_writers(3)]
        {
            let on = Explorer::default();
            let off = Explorer::default().with_static(false);
            let rep_on = on.explore(&sys, &mut |_| None).unwrap();
            let rep_off = off.explore(&sys, &mut |_| None).unwrap();
            assert_eq!(rep_on.configs_visited, rep_off.configs_visited);
            assert_eq!(rep_on.terminals, rep_off.terminals);
            assert_eq!(rep_on.pruned, rep_off.pruned);
            assert!(rep_on.static_seed);
            assert!(!rep_off.static_seed);
            assert_eq!(rep_off.static_indep_pairs, 0);
            assert_eq!(rep_off.prefilter_hits, 0);

            let par_on =
                on.with_threads(4).explore_parallel(&sys, &|_| None).unwrap();
            let par_off =
                off.with_threads(4).explore_parallel(&sys, &|_| None).unwrap();
            assert_eq!(par_on.configs_visited, par_off.configs_visited);
            assert_eq!(par_on.terminals, par_off.terminals);
            assert_eq!(par_on.pruned, par_off.pruned);
        }
    }

    #[test]
    fn static_prefilter_fires_on_blind_writers() {
        // Three never-reading writers to disjoint components: all three
        // pairs are statically independent, so the matrix answers (and
        // the audit confirms) at least once per expanded configuration.
        let sys = blind_writers(3);
        let report = Explorer::default().explore(&sys, &mut |_| None).unwrap();
        assert!(report.static_seed);
        assert_eq!(report.static_indep_pairs, 3);
        assert!(report.prefilter_hits > 0, "prefilter never consulted: {report:?}");
        assert!(report.pruned > 0);

        // Scanning protocols are statically dependent on every writer
        // of the object: the matrix is all-dependent and never answers.
        let scanning = Explorer::default()
            .explore(&independent_writers(3), &mut |_| None)
            .unwrap();
        assert!(scanning.static_seed);
        assert_eq!(scanning.static_indep_pairs, 0);
        assert_eq!(scanning.prefilter_hits, 0);
    }

    #[test]
    fn parallel_prefilter_hits_are_thread_count_invariant() {
        let sys = blind_writers(3);
        let base = Explorer::default()
            .with_threads(1)
            .explore_parallel(&sys, &|_| None)
            .unwrap();
        assert!(base.prefilter_hits > 0);
        for threads in [2, 4, 8] {
            let rep = Explorer::default()
                .with_threads(threads)
                .explore_parallel(&sys, &|_| None)
                .unwrap();
            assert_eq!(rep.prefilter_hits, base.prefilter_hits, "t={threads}");
            assert_eq!(rep.static_indep_pairs, base.static_indep_pairs);
        }
    }

    #[test]
    fn static_seeding_is_inert_without_dpor() {
        let report = Explorer::default()
            .with_dpor(false)
            .explore(&blind_writers(3), &mut |_| None)
            .unwrap();
        assert!(!report.static_seed);
        assert_eq!(report.static_indep_pairs, 0);
        assert_eq!(report.prefilter_hits, 0);
    }

    #[test]
    fn unsound_matrix_fails_closed() {
        // Step p0 once so it is poised to update component 0 while p1
        // is poised to scan the same object — a dynamically dependent
        // pair. A matrix claiming the pair independent must be caught
        // by the audit, never silently trusted.
        let mut sys = two_process_system();
        sys.step(ProcessId(0)).unwrap();
        let unsound = InterferenceMatrix::from_relation(2, |_, _| true);
        let mut hits = 0usize;
        let err = match StepMasks::of(&sys, true, Some(&unsound), &mut hits) {
            Ok(_) => panic!("unsound matrix was not caught"),
            Err(err) => err,
        };
        match err {
            ModelError::StaticUnsound { p: 0, q: 1, ref ops } => {
                assert!(ops.contains("vs"), "ops was: {ops}");
            }
            other => panic!("expected StaticUnsound, got {other:?}"),
        }

        // The genuine matrix for the same configuration passes.
        let sound = InterferenceMatrix::build(&sys, 64);
        let mut hits = 0usize;
        StepMasks::of(&sys, true, Some(&sound), &mut hits).unwrap();
    }
}
