//! Exhaustive schedule exploration (bounded model checking).
//!
//! For small systems we can enumerate *every* interleaving up to a depth
//! bound, deduplicating indistinguishable configurations. This is how we
//! machine-check protocol properties the paper assumes of Π:
//!
//! * validity/agreement on all reachable terminal configurations
//!   ([`Explorer::explore_parallel`] with a check,
//!   [`Explorer::terminal_outputs`]);
//! * obstruction-freedom: from every reachable configuration, every solo
//!   execution terminates ([`Explorer::check_solo_termination`]);
//! * x-obstruction-freedom via [`Explorer::check_group_termination`].
//!
//! # Interned component states
//!
//! The explorer's state spaces are built from few distinct parts:
//! racing3's 210,751 configurations hold 511 distinct component states,
//! and 97% of its steps repeat a step already taken. So the engine
//! stores each part once and each step once (SPIN's collapse
//! compression plus a transition memo):
//!
//! * **Intern tables.** Each object position and each process position
//!   has a table holding each distinct [`Object`] or process state
//!   once, under an id. A table is keyed on the exact bytes the
//!   configuration key writes for the component ([`Object::write_key`],
//!   [`Process::write_state_key`]), never on a hash alone.
//! * **Poised memo.** A process state is interned with what it is
//!   poised to do, so step masks, the terminal test and the DPOR
//!   enabled set read it without asking the process again.
//! * **Transition memo.** Per process, a memo maps (its state id, the
//!   id of the object its poised operation accesses) to the state ids
//!   the step leads to and its [`Event`]. A repeated step is a lookup:
//!   no process is cloned, no key hashed, no configuration built.
//! * **Frontier entries.** An entry is a vector of component ids (one
//!   per object, then one per process, inline up to eight), its step
//!   counts, its sleep and claim masks, its check verdict, and a handle
//!   to its trace: two integers naming a node of one of the level's
//!   trace blocks. Every trace the search builds is a tree of one-event
//!   nodes. The build phase stores one block of nodes per chunk (one
//!   allocation for all its kept children), and a node names its parent
//!   node and the memoized [`Event`] of its step, which the tables store
//!   once. So an entry owns no heap block and no reference count for its
//!   trace, and no event is copied. A check receives a [`Trace`] that
//!   points into the building worker's own block; violation schedules
//!   and panic contexts are read from the handle.
//! * **Exact visited set.** The visited shards are keyed on the id
//!   vector itself, so two configurations never merge unless they are
//!   equal.
//! * **Materialization.** A [`System`] is assembled from the tables
//!   (`Arc` clones and the entry's step counts) only where one is
//!   needed: for a check, with the trace pointed at the entry's node,
//!   and to compute a step the memo does not hold yet, without a trace,
//!   since [`System::successor`] reads none. Each worker refills one
//!   configuration, so this allocates nothing once it runs.
//!
//! # The frontier engine
//!
//! Every entry point runs one engine: a level-synchronised breadth-first
//! frontier over schedule prefixes. Each level runs in four phases; the
//! parallel ones are a [`par_map`] over the workspace's worker pool (one
//! thread by default, see [`Explorer::with_threads`]; at one thread
//! every phase runs on the calling thread):
//!
//! 1. **Expand.** Workers claim chunks of the frontier in order, take
//!    ownership of them and free each entry once it is expanded. They
//!    read the tables and memos frozen for the level, so a memo hit
//!    takes no lock. A step the memo lacks is computed by
//!    [`System::successor`] on the materialized parent, so ownership
//!    checks and step errors are the configuration's own; its new
//!    states wait in the chunk for the intern pass. A child whose ids
//!    are all known is dropped when the visited maps of the previous
//!    levels already cover it; a child carrying a new state cannot have
//!    been visited, so it skips that pre-filter. A child is a compact
//!    head `(ids, sleep, enabled)` plus its parent's trace handle, its step
//!    counts and its transition. A level that holds a violation keeps
//!    none of its children, and it is known to hold one before it is
//!    expanded, so it builds none.
//! 2. **Intern.** One pass in canonical chunk order interns the level's
//!    new states, memoizes its new steps and completes the ids of the
//!    children that carry them.
//! 3. **Decide by shard.** The visited set is one map per thread, the
//!    shard chosen by the ids' hash. One worker per shard walks all
//!    heads in canonical order and deduplicates the arrivals at its own
//!    keys. Where the configuration budget may run out inside the
//!    level, one worker decides over all shards, so the cut falls in
//!    canonical order.
//! 4. **Build.** Workers turn the kept children into the next frontier
//!    and free the others. Each worker first appends one trace node per
//!    kept child to a block of its own. Each first arrival is then
//!    materialized and checked as it becomes a frontier entry; the entry
//!    keeps the verdict, and the frontier the lowest index whose verdict
//!    is a violation. (The root is checked before the first level.)
//!
//! Children are ordered by (parent frontier index, process id), and
//! every arrival at a configuration is decided in that order, so
//! `configs_visited`, `pruned`, `truncated` and the first violation are
//! **bit-for-bit identical at every thread count**. The violation
//! reported is the first in canonical schedule order (shortest schedule
//! first, then lexicographic by process id), independent of which
//! thread happened to find it. Because levels are explored in depth
//! order, every configuration reachable within the depth bound is
//! visited (unless the configuration budget runs out).
//!
//! Step errors and panics are outcomes like any other step: a chunk
//! memoizes them too, and each is reported at the canonical frontier
//! index of the entry it happened at. They never reach the shared memo,
//! because a level with an error ends the search.
//!
//! The one exception is the level where a violation stops the search:
//! each chunk stops at its own first violation while later chunks go on
//! counting, so `terminals` and `prefilter_hits` there depend on where
//! the thread count cuts the level into chunks. The next frontier is
//! therefore cut at multiples of ⌈len / (4 · threads)⌉, the boundaries
//! a flat frontier has, which keeps those counts as they were.
//!
//! # Partial-order reduction
//!
//! The explorer applies **happens-before-guided dynamic partial-order
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
use crate::campaign::panic_message;
use crate::error::ModelError;
use crate::fingerprint::{ConfigHash, FnvStream, KeyHasher};
use crate::hb::independent;
use crate::object::{Object, Operation};
use crate::pool::{par_map, resolve_threads};
use crate::process::{Poised, Process, ProcessId};
use crate::system::{Event, Successor, System};
use crate::trace::{EventStore, Node, Parents, Tip, Trace};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
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
    /// Terminal (all-terminated) configurations found. When a violation
    /// stops the search, its level contributes the terminals each chunk
    /// met before its own first violation, so this count depends on the
    /// thread count there.
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
    /// oracle. `0` without static seeding. Like `terminals`, it depends
    /// on the thread count when a violation stops the search.
    pub prefilter_hits: usize,
    /// Whether exploration was cut off by [`Limits`].
    pub truncated: bool,
    /// A free-text truncation notice, rendered by the CLI when present.
    /// The explorer itself always leaves it `None`: [`Limits`] cut-offs
    /// are reported through `truncated` alone.
    pub truncation: Option<String>,
    /// The first violation found, if any: the schedule that produced it
    /// and a description: the first in canonical (shortest, then
    /// lexicographic) schedule order.
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

/// A check evaluated on every visited configuration, possibly on
/// several worker threads at once; returns a violation description to
/// flag the configuration.
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

    /// Sets the worker-thread count every exploration runs on (1 by
    /// default). `0` means one worker per available CPU core. Reports
    /// are identical at every thread count, but for `terminals` and
    /// `prefilter_hits` when a violation stops the search (see the
    /// [module docs](self#the-frontier-engine)).
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

    /// Explores all schedules from `initial` up to the [`Limits`],
    /// evaluating `check` once on every distinct configuration visited;
    /// a check that returns a description stops the search with that
    /// violation. The exploration is a level-synchronised frontier over
    /// schedule prefixes, with worker threads claiming chunks of each
    /// level and a visited-state map, sharded by key, deduplicating
    /// configurations.
    ///
    /// The report is deterministic, and identical at 1, 2, or N threads
    /// except for `terminals` and `prefilter_hits` on a search stopped
    /// by a violation: chunk results are merged in frontier order,
    /// every arrival at a configuration is decided in canonical order,
    /// and the violation chosen is the canonically first (shortest
    /// schedule, then lexicographically smallest). A stopped search's
    /// last level counts up to each chunk's first violation, so those
    /// two counts follow the chunk boundaries the thread count sets
    /// (see the [module docs](self#the-frontier-engine)). The check
    /// must be `Fn + Sync`: it may run concurrently on many
    /// configurations.
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
        self.explore_parallel_inner(initial, Some(check), false)
            .map(|(report, _)| report)
    }

    /// The engine behind every entry point: explores from `initial`,
    /// runs `check` (when given) on every configuration visited, and
    /// collects the distinct terminal output vectors when asked to.
    fn explore_parallel_inner(
        &self,
        initial: &System,
        check: Option<ParallelCheck>,
        collect_terminals: bool,
    ) -> Result<(ExploreReport, Vec<Vec<Value>>), ModelError> {
        self.run_preflight(initial)?;
        let threads = resolve_threads(self.threads);
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

        let (mut tables, root_ids) = Tables::new(initial);
        // One visited shard per thread, chosen by the ids' hash.
        // Expanding workers read every shard as a duplicate pre-filter;
        // the decide phase is the only writer, and runs strictly
        // between expansions.
        let mut visited: Vec<VisitedMap> = (0..threads).map(|_| VisitedMap::default()).collect();
        let root_masks = StepMasks::of(
            tables.process_states(&root_ids).map(|state| state.poised.operation()),
            dpor,
            matrix.as_ref(),
            &mut report.prefilter_hits,
        )?;
        let root_key = Key::new(root_ids);
        visited[shard_of(root_key.hash, threads)]
            .insert(root_key.clone(), StateMeta { expanded: root_masks.enabled, slept: 0 });
        report.configs_visited = 1;
        let base_depth = initial.trace().len();
        let mut root = initial.clone();
        root.freeze_trace();
        let verdict = check.and_then(|check| judge(check, &root));
        let steps = (0..root.process_count()).map(|i| root.steps_of(ProcessId(i)) as u32);
        let mut frontier = Frontier {
            chunk_len: 1,
            violation: if is_violation(&verdict) { 0 } else { usize::MAX },
            chunks: vec![vec![vec![Prefix {
                ids: root_key.ids,
                steps: Row::new(root.process_count(), steps),
                trace: Tip::default(),
                sleep: 0,
                claim: root_masks.enabled,
                first: true,
                verdict,
            }]]],
            traces: Parents::root(root.trace()),
        };

        let mut depth = 0;
        while !frontier.chunks.is_empty() {
            // Expand: each worker owns the chunks it claims and frees
            // every parent once expanded. Results come back in frontier
            // order, so every aggregate below is independent of worker
            // scheduling.
            let level = Level {
                base_depth,
                depth,
                max_depth: self.limits.max_depth,
                traces: &frontier.traces,
                visited: &visited,
                tables: &tables,
                template: &root,
                dpor,
                matrix: matrix.as_ref(),
                violation: frontier.violation,
            };
            let chunk_len = frontier.chunk_len;
            let chunks = par_map(
                frontier.chunks.into_iter().enumerate().collect(),
                threads,
                |(j, entries)| level.expand(j * chunk_len, entries),
            );
            let error = chunks
                .iter()
                .filter_map(|c| c.error.as_ref())
                .min_by_key(|(idx, _)| *idx);
            let violation = chunks
                .iter()
                .filter_map(|c| c.violation.as_ref())
                .min_by_key(|(idx, _, _)| *idx);
            // When a level has both an error and a violation, report
            // whichever occurred at the canonically smaller frontier
            // index — this keeps the outcome identical across thread
            // counts (chunk boundaries depend on the thread count).
            if let Some((err_idx, err)) = error {
                if violation.is_none_or(|(vio_idx, _, _)| err_idx < vio_idx) {
                    return Err(err.clone());
                }
            }
            let violation = violation.map(|(_, sched, msg)| (sched.clone(), msg.clone()));
            let mut forks = Vec::with_capacity(chunks.len());
            for mut chunk in chunks {
                report.terminals += chunk.terminals;
                report.truncated |= chunk.truncated;
                report.prefilter_hits += chunk.prefilter_hits;
                if collect_terminals {
                    for outs in chunk.terminal_outputs.drain(..) {
                        if seen_outputs.insert(outs.clone()) {
                            terminal_outputs.push(outs);
                        }
                    }
                }
                // Intern: the level's new states and steps, in
                // canonical chunk order.
                tables.absorb(&mut chunk);
                forks.push((chunk.heads, chunk.children));
            }
            if violation.is_some() {
                // The level built no children: it was known to hold a
                // violation before it was expanded.
                report.violation = violation;
                break;
            }

            // Decide: children arrive ordered by (parent frontier
            // index, process id) — exactly the breadth-first
            // lexicographic order — so the first occurrence of each
            // configuration carries its canonical schedule (recoverable
            // from its trace). Under DPOR, a re-arrival may still wake
            // processes its sleep set no longer covers (state
            // matching): it re-enters the frontier as a non-`first`
            // prefix that is expanded but not re-counted or re-checked.
            // Every arrival at a key is decided by the one worker
            // owning the key's shard, in that order. Only where the
            // configuration budget may run out inside the level does
            // the cut depend on all keys at once: then one worker
            // decides over every shard.
            let budget = self.limits.max_configs.saturating_sub(report.configs_visited);
            let heads: Vec<&[Head]> = forks.iter().map(|(heads, _)| heads.as_slice()).collect();
            let arrivals: usize = heads.iter().map(|h| h.len()).sum();
            let owners: Vec<(usize, &mut [VisitedMap])> = if arrivals > budget {
                vec![(0, &mut visited[..])]
            } else {
                visited.chunks_mut(1).enumerate().collect()
            };
            let decided = par_map(owners, threads, |(first_shard, shards)| {
                decide(&heads, shards, first_shard, threads, dpor, budget)
            });
            drop(heads);
            let mut kept: Vec<Vec<Vec<Kept>>> = forks.iter().map(|_| Vec::new()).collect();
            let mut pruned: isize = 0;
            for d in decided {
                report.configs_visited += d.fresh;
                report.truncated |= d.truncated;
                pruned += d.pruned;
                for (lists, list) in kept.iter_mut().zip(d.kept) {
                    lists.push(list);
                }
            }
            report.pruned = report
                .pruned
                .checked_add_signed(pruned)
                .expect("the pruned tally stays non-negative");

            // Build: workers turn the kept children into the next
            // frontier, check each first arrival, and free the rest.
            frontier = build_level(forks, kept, threads, check, &tables, &root, &frontier.traces);
            depth += 1;
        }
        Ok((report, terminal_outputs))
    }

    /// Collects the set of output vectors over all reachable terminal
    /// configurations, in canonical first-reached order. Each vector is
    /// indexed by process.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from stepping the system.
    pub fn terminal_outputs(
        &self,
        initial: &System,
    ) -> Result<(Vec<Vec<Value>>, ExploreReport), ModelError> {
        let (report, outputs) =
            self.explore_parallel_inner(initial, None, true)?;
        Ok((outputs, report))
    }

    /// Checks obstruction-freedom empirically (Theorem 35's
    /// hypothesis): from every reachable configuration (within limits),
    /// every live process terminates when run solo for at most
    /// `solo_budget` steps.
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

    /// Checks x-obstruction-freedom empirically: from every reachable
    /// configuration, for every group of at most `x` live processes
    /// (rotations of the live set) and for several round-robin quanta
    /// (each member taking 1, 2, or 3 consecutive steps per turn —
    /// step-level and operation-level alternation differ for snapshot
    /// protocols), running only that group for `budget` steps
    /// terminates all of them. The group runs — the expensive part —
    /// fan out across the worker threads.
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
        self.explore_parallel(initial, &move |sys| {
            group_termination_check(sys, x, budget)
        })
    }
}

/// An in-memory configuration key, kept per component so a step
/// re-hashes only what it touched. Campaigns key on it: their
/// coverage key memo and their interference-matrix memo. The explorer
/// no longer does; it keys its visited set on exact component ids (see
/// the [module docs](self#interned-component-states)), so only the
/// campaign key memo takes the 2⁻⁶⁴-per-pair risk of two
/// configurations sharing a key.
///
/// The key is the XOR of one term per object and one per process. A
/// term is the FNV hash of the component's key bytes (the bytes
/// [`System::config_key`] writes for it), salted with the component's
/// position and passed through a 64-bit mixer. A step changes one
/// process and at most one object, so [`ExploreKey::after`] derives a
/// child's key from its parent's by swapping out those terms, before
/// the child configuration is built. A campaign run, which steps one
/// configuration in place, keeps one key per run and brings it up to
/// date with [`ExploreKey::restep`] after each [`System::step`]; its
/// [`crate::fingerprint::FingerprintCache`] then computes the persisted
/// fingerprint only for a key it has not seen.
///
/// The key never leaves memory. [`System::config_fingerprint`] stays
/// the persisted identity of a configuration: coverage sets, bundles,
/// checkpoints and the golden tests use it.
///
/// The terms of a system with at most eight components (objects plus
/// processes) are stored inline, so a key, and every key
/// [`ExploreKey::after`] derives from it, allocates nothing; a larger
/// system's terms go to one heap block.
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
    terms: Row<u64>,
}

/// How many terms an [`ExploreKey`], and how many component ids and
/// step counts a frontier entry, store without a heap block.
const INLINE_TERMS: usize = 8;

impl ExploreKey {
    /// Computes the key of `sys` from scratch.
    pub fn of(sys: &System) -> ExploreKey {
        let objects = sys.objects();
        let processes = (0..sys.process_count())
            .map(|i| sys.process(ProcessId(i)).expect("process index in range"));
        let terms = Row::new(
            objects.len() + sys.process_count(),
            objects
                .iter()
                .enumerate()
                .map(|(i, o)| object_term(i, o))
                .chain(processes.enumerate().map(|(i, p)| process_term(objects.len() + i, p))),
        );
        ExploreKey {
            value: terms.as_slice().iter().fold(0, |acc, t| acc ^ t),
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

    /// Brings this key, the key of `sys` before its last step, up to
    /// date after [`System::step`] applied that step in place: re-hashes
    /// the stepped process, and the written object when the step was a
    /// mutation. `sys` must have taken at least one step.
    pub fn restep(&mut self, sys: &System) {
        let trace = sys.trace();
        let last = trace.len().checked_sub(1).expect("restep after a step");
        let event = &trace[last];
        let position = self.objects + event.pid.0;
        let process = sys.process(event.pid).expect("stepped process in range");
        self.swap(position, process_term(position, process));
        if event.op.is_mutation() {
            let position = event.op.object().0;
            self.swap(position, object_term(position, &sys.objects()[position]));
        }
    }

    fn swap(&mut self, position: usize, term: u64) {
        let slot = &mut self.terms.as_mut_slice()[position];
        self.value ^= *slot ^ term;
        *slot = term;
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

/// A short row of plain values, inline up to [`INLINE_TERMS`] of them
/// (the unused tail stays at its default), one boxed slice beyond: an
/// [`ExploreKey`]'s terms, and a frontier entry's component ids and
/// step counts.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Row<T> {
    Inline { len: u8, items: [T; INLINE_TERMS] },
    Heap(Box<[T]>),
}

impl<T: Copy + Default> Row<T> {
    /// The `len` items `items` yields.
    fn new(len: usize, items: impl Iterator<Item = T>) -> Row<T> {
        if len > INLINE_TERMS {
            return Row::Heap(items.collect());
        }
        let mut inline = [T::default(); INLINE_TERMS];
        for (slot, item) in inline.iter_mut().zip(items) {
            *slot = item;
        }
        Row::Inline { len: len as u8, items: inline }
    }

    fn as_slice(&self) -> &[T] {
        match self {
            Row::Inline { len, items } => &items[..usize::from(*len)],
            Row::Heap(items) => items,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Row::Inline { len, items } => &mut items[..usize::from(*len)],
            Row::Heap(items) => items,
        }
    }
}

/// A configuration as component ids: one per object, then one per
/// process, each an index into that position's [`Table`].
type Ids = Row<u32>;

/// Marks a component id, or a transition index, that a chunk created
/// and the intern pass has not yet replaced by its shared one.
const PENDING: u32 = 1 << 31;

fn is_pending(id: u32) -> bool {
    id & PENDING != 0
}

/// A configuration's exact key in the visited set: its ids, with their
/// hash computed once.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Key {
    hash: u64,
    ids: Ids,
}

impl Key {
    fn new(ids: Ids) -> Key {
        Key { hash: hash_ids(ids.as_slice()), ids }
    }
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A well-mixed hash of component ids, for the visited shards.
fn hash_ids(ids: &[u32]) -> u64 {
    let h = ids.iter().fold(0u64, |h, &id| {
        (h.rotate_left(26) ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    salted(ids.len(), h)
}

/// The distinct states one component position takes, each stored once
/// under its id, and the exact key bytes each was interned under.
struct Table<T> {
    states: Vec<T>,
    ids: HashMap<Box<str>, u32>,
}

impl<T> Table<T> {
    fn new() -> Table<T> {
        Table { states: Vec::new(), ids: HashMap::new() }
    }

    fn find(&self, key: &str) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// The id of the state with key bytes `key`, storing `state` under
    /// a new id if none has them yet.
    fn intern(&mut self, key: Box<str>, state: T) -> u32 {
        let states = &mut self.states;
        *self.ids.entry(key).or_insert_with(|| {
            let id = u32::try_from(states.len()).ok().filter(|id| !is_pending(*id));
            states.push(state);
            id.expect("fewer than 2^31 states per component")
        })
    }
}

/// An interned process state, with what it is poised to do.
struct ProcessState {
    process: Arc<dyn Process>,
    poised: Poised,
}

impl ProcessState {
    fn new(process: Arc<dyn Process>) -> ProcessState {
        let poised = process.poised();
        ProcessState { process, poised }
    }

    fn terminated(&self) -> bool {
        matches!(self.poised, Poised::Output(_))
    }
}

/// One memoized step: the ids it leads to. Its event is stored under
/// the same index in [`Tables::events`].
#[derive(Clone, Copy)]
struct Transition {
    /// The stepped process's new state.
    process: u32,
    /// The written object's new state; `None` for a read or a scan.
    object: Option<u32>,
}

/// A process's transition memo: from [`memo_key`] to an index into
/// [`Tables::transitions`].
type MemoMap = HashMap<u64, u32, BuildHasherDefault<KeyHasher>>;

/// The memo key of a step from process state `state` on object state
/// `object` (`u32::MAX` when the operation names no object of the
/// system). Both ids fit in 32 bits and the mixer is a bijection, so
/// the key is exact.
fn memo_key(state: u32, object: u32) -> u64 {
    salted(0, (u64::from(state) << 32) | u64::from(object))
}

/// Every component state and step one exploration has met.
struct Tables {
    objects: Vec<Table<Object>>,
    processes: Vec<Table<ProcessState>>,
    transitions: Vec<Transition>,
    /// The event of each transition, which trace nodes name by index.
    events: Arc<EventStore>,
    /// One transition memo per process.
    memo: Vec<MemoMap>,
}

impl Tables {
    /// The tables of `initial`'s components, and its ids.
    fn new(initial: &System) -> (Tables, Ids) {
        let count = initial.process_count();
        let mut tables = Tables {
            objects: initial.objects().iter().map(|_| Table::new()).collect(),
            processes: (0..count).map(|_| Table::new()).collect(),
            transitions: Vec::new(),
            events: Arc::default(),
            memo: (0..count).map(|_| MemoMap::default()).collect(),
        };
        let mut key = String::new();
        let mut ids = Vec::with_capacity(tables.objects.len() + count);
        for (table, object) in tables.objects.iter_mut().zip(initial.objects()) {
            ids.push(table.intern(object_key(object, &mut key).into(), object.clone()));
        }
        for (i, table) in tables.processes.iter_mut().enumerate() {
            let process = initial.process(ProcessId(i)).expect("process index in range");
            let state = ProcessState::new(process.arc_clone());
            ids.push(table.intern(process_key(process, &mut key).into(), state));
        }
        let ids = Row::new(ids.len(), ids.into_iter());
        (tables, ids)
    }

    fn process(&self, pid: usize, id: u32) -> &ProcessState {
        &self.processes[pid].states[id as usize]
    }

    /// The process states of configuration `ids`, in process order.
    fn process_states<'a>(&'a self, ids: &'a Ids) -> impl Iterator<Item = &'a ProcessState> {
        let ids = &ids.as_slice()[self.objects.len()..];
        ids.iter().enumerate().map(|(pid, &id)| self.process(pid, id))
    }

    /// Assembles configuration `ids`, with its step counts, into `sys`
    /// (a configuration of the explored system); its trace is left as
    /// it was.
    fn materialize(&self, sys: &mut System, ids: &Ids, steps: &Row<u32>) {
        let (objects, processes) = ids.as_slice().split_at(self.objects.len());
        sys.assemble(
            self.objects.iter().zip(objects).map(|(table, &id)| &table.states[id as usize]),
            self.processes
                .iter()
                .zip(processes)
                .zip(steps.as_slice())
                .map(|((table, &id), &steps)| (&table.states[id as usize].process, steps as usize)),
        );
    }

    /// Interns the new states a chunk met, memoizes its new steps, and
    /// completes the ids of the children that carry them.
    fn absorb(&mut self, chunk: &mut LevelChunk) {
        let fresh = std::mem::take(&mut chunk.fresh);
        let processes: Vec<u32> = fresh
            .processes
            .into_iter()
            .map(|new| self.processes[new.position].intern(new.key, new.state))
            .collect();
        let objects: Vec<u32> = fresh
            .objects
            .into_iter()
            .map(|new| self.objects[new.position].intern(new.key, new.state))
            .collect();
        let mut events = Vec::new();
        let transitions: Vec<u32> = fresh
            .steps
            .into_iter()
            .map(|step| match step.outcome {
                Outcome::Stepped(Transition { process, object }, event) => {
                    let transitions = &mut self.transitions;
                    *self.memo[step.pid].entry(step.key).or_insert_with(|| {
                        transitions.push(Transition {
                            process: resolve(process, &processes),
                            object: object.map(|id| resolve(id, &objects)),
                        });
                        events.push(event);
                        (transitions.len() - 1) as u32
                    })
                }
                // A level with an error ends the search before this pass.
                Outcome::Failed(_) | Outcome::Panicked(_) => u32::MAX,
            })
            .collect();
        if !events.is_empty() {
            Arc::make_mut(&mut self.events).append(events);
        }
        debug_assert_eq!(self.events.len(), self.transitions.len());
        for at in fresh.children {
            let child = &mut chunk.children[at];
            child.transition = transitions[(child.transition & !PENDING) as usize];
            let key = &mut chunk.heads[at].key;
            if key.ids.as_slice().iter().any(|&id| is_pending(id)) {
                let (objects_ids, process_ids) =
                    key.ids.as_mut_slice().split_at_mut(self.objects.len());
                for id in objects_ids {
                    *id = resolve(*id, &objects);
                }
                for id in process_ids {
                    *id = resolve(*id, &processes);
                }
                key.hash = hash_ids(key.ids.as_slice());
            }
        }
    }
}

/// The shared id `id` stands for: itself, or the id the intern pass
/// gave the chunk's pending state it names.
fn resolve(id: u32, interned: &[u32]) -> u32 {
    if is_pending(id) {
        interned[(id & !PENDING) as usize]
    } else {
        id
    }
}

/// The key bytes of `object` (what [`Object::hash_config`] hashes),
/// written into `buf`.
fn object_key<'b>(object: &Object, buf: &'b mut String) -> &'b str {
    buf.clear();
    let _ = object.write_key(buf);
    buf
}

/// The key bytes of `process` (its [`Process::write_state_key`]),
/// written into `buf`.
fn process_key<'b>(process: &dyn Process, buf: &'b mut String) -> &'b str {
    buf.clear();
    process.write_state_key(buf);
    buf
}

/// Per-configuration bookkeeping for sleep-set pruning with state
/// matching.
#[derive(Clone, Copy)]
struct StateMeta {
    /// Processes already branched on from this configuration, over all
    /// arrivals.
    expanded: u32,
    /// Enabled processes a sleep set suppressed here, currently
    /// counted in `pruned` (a bit moves out again if a later arrival
    /// wakes and expands it).
    slept: u32,
}

/// The visited-state map of one shard, keyed by exact component ids.
/// The ids' hash is already mixed, so the map uses it as is.
type VisitedMap = HashMap<Key, StateMeta, BuildHasherDefault<KeyHasher>>;

/// The visited shard, of `shards`, that owns `hash`: hash bits 25..57,
/// scaled to the shard count. The map takes its bucket from the low
/// bits and its tag from the top seven, so both stay uniform within a
/// shard.
fn shard_of(hash: u64, shards: usize) -> usize {
    ((u64::from((hash >> 25) as u32) * shards as u64) >> 32) as usize
}

/// The poised-step view of one configuration as process-id bit masks:
/// which processes are live, and which pairs of next operations
/// commute. Both live on the stack.
struct StepMasks {
    /// Live (non-terminated) processes.
    enabled: u32,
    /// Per process `q`: the processes whose next operation commutes
    /// with `q`'s (all zero when DPOR is off — never read).
    indep: [u32; DPOR_MAX_PROCS],
}

impl StepMasks {
    /// Computes the masks for one configuration from what each process
    /// is poised to do, in process order (`None` once it terminated).
    /// With a `matrix` present, every enabled pair the matrix calls
    /// statically independent is audited against the dynamic oracle: a
    /// confirmed answer bumps `prefilter_hits`, a contradicted one fails
    /// closed with [`ModelError::StaticUnsound`] (the static pass may
    /// over-approximate dependence, never independence). The masks
    /// actually used are always the dynamic oracle's answers, so the
    /// exploration is identical with or without the matrix.
    fn of<'o>(
        poised: impl Iterator<Item = Option<&'o Operation>>,
        dpor: bool,
        matrix: Option<&InterferenceMatrix>,
        prefilter_hits: &mut usize,
    ) -> Result<StepMasks, ModelError> {
        // DPOR runs only on systems of at most `DPOR_MAX_PROCS`
        // processes; without it only `enabled` is read.
        let mut ops: [Option<&Operation>; DPOR_MAX_PROCS] = [None; DPOR_MAX_PROCS];
        let mut enabled = 0u32;
        let mut n = 0;
        for (i, op) in poised.take(DPOR_MAX_PROCS).enumerate() {
            n = i + 1;
            if op.is_some() {
                enabled |= 1 << i;
                ops[i] = op;
            }
        }
        let mut indep = [0u32; DPOR_MAX_PROCS];
        if dpor {
            for i in 0..n {
                let Some(op_i) = ops[i] else { continue };
                for j in i + 1..n {
                    let Some(op_j) = ops[j] else { continue };
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

/// One schedule prefix awaiting expansion in the frontier, checked when
/// it was built.
struct Prefix {
    ids: Ids,
    /// Steps taken by each process.
    steps: Row<u32>,
    /// Where the trace that reached this configuration ends, in the
    /// frontier's [`Frontier::traces`].
    trace: Tip,
    /// Sleep set this arrival carries (always 0 with DPOR off).
    sleep: u32,
    /// Processes to branch on from this entry, claimed canonically at
    /// merge time (ignored with DPOR off: every live process forks).
    claim: u32,
    /// First arrival at this configuration: it is counted, checked,
    /// and eligible to be a terminal. Re-arrivals only expand newly
    /// woken claims.
    first: bool,
    /// What the check flagged when the entry was built, if anything
    /// (always `None` for a re-arrival, which is not checked).
    verdict: Option<Box<Verdict>>,
}

/// A check's verdict on one configuration, when it is not a pass.
enum Verdict {
    /// The check returned this violation description.
    Violation(String),
    /// The check panicked with this message.
    Panic(String),
}

/// Runs `check` on `sys`, catching a panic: a check that panics on one
/// configuration becomes a verdict on it, not a dead worker.
fn judge(check: ParallelCheck, sys: &System) -> Option<Box<Verdict>> {
    match catch_unwind(AssertUnwindSafe(|| check(sys))) {
        Ok(None) => None,
        Ok(Some(msg)) => Some(Box::new(Verdict::Violation(msg))),
        Err(payload) => Some(Box::new(Verdict::Panic(panic_message(payload.as_ref())))),
    }
}

fn is_violation(verdict: &Option<Box<Verdict>>) -> bool {
    matches!(verdict.as_deref(), Some(Verdict::Violation(_)))
}

/// One level's frontier in canonical order, cut into the chunks that
/// workers claim: chunk `j` holds entries `j * chunk_len` onwards, as
/// one segment per build chunk its entries came from. Every first
/// arrival in it has been checked.
struct Frontier {
    chunk_len: usize,
    /// Lowest index whose verdict is a violation (`usize::MAX` when no
    /// entry's is): the level stops there, so none of its children is
    /// kept and none is built.
    violation: usize,
    chunks: Vec<Vec<Vec<Prefix>>>,
    /// The traces the entries end at: the root's, or one block per
    /// build chunk.
    traces: Parents,
}

/// What the decide phase reads of one child.
struct Head {
    key: Key,
    /// Sleep set the fork inherited (0 with DPOR off).
    sleep: u32,
    /// Live processes of the fork (0 with DPOR off — never read).
    enabled: u32,
}

/// The rest of one child, travelling from the worker that forked it to
/// the worker that keeps or frees it.
struct Child {
    /// Where the parent's trace ends; a kept child extends it.
    parent: Tip,
    steps: Row<u32>,
    /// Index of the step's [`Transition`] (tagged [`PENDING`] until the
    /// intern pass).
    transition: u32,
}

/// A child the decide phase keeps for the next frontier.
struct Kept {
    /// Index of the child within its chunk.
    at: usize,
    sleep: u32,
    claim: u32,
    first: bool,
}

/// A component state a chunk met that the frozen tables lack, with its
/// position and key bytes.
struct New<T> {
    position: usize,
    key: Box<str>,
    state: T,
}

/// What one step not in the shared memo came to.
enum Outcome {
    /// Its ids may name the chunk's pending states.
    Stepped(Transition, Event),
    Failed(ModelError),
    Panicked(String),
}

/// A step one chunk computed, memoized for the rest of the chunk.
struct FreshStep {
    pid: usize,
    key: u64,
    outcome: Outcome,
}

/// What a chunk met that the frozen tables and memos lack; the intern
/// pass absorbs it.
#[derive(Default)]
struct Fresh {
    processes: Vec<New<ProcessState>>,
    objects: Vec<New<Object>>,
    steps: Vec<FreshStep>,
    /// `(pid, memo key)` to index into `steps`.
    index: HashMap<(usize, u64), usize>,
    /// The children whose transition, and maybe ids, are pending.
    children: Vec<usize>,
}

/// One worker chunk's share of a frontier level.
#[derive(Default)]
struct LevelChunk {
    terminals: usize,
    truncated: bool,
    /// Lowest-index violation within the chunk.
    violation: Option<(usize, Vec<ProcessId>, String)>,
    /// Children in (parent index, process id) order, with their heads
    /// beside them.
    heads: Vec<Head>,
    children: Vec<Child>,
    /// Output vectors of terminal configurations in this chunk.
    terminal_outputs: Vec<Vec<Value>>,
    /// Lowest-index step error within the chunk.
    error: Option<(usize, ModelError)>,
    /// Static-prefilter confirmations across the chunk's entries.
    prefilter_hits: usize,
    fresh: Fresh,
}

/// A step of one process from one entry, as ids that may be pending.
#[derive(Clone, Copy)]
struct Stepped {
    process: u32,
    object: Option<u32>,
    transition: u32,
    /// Position of the object the step accessed.
    position: usize,
}

/// What every worker expanding one frontier level shares.
struct Level<'a> {
    /// Trace length of the initial configuration: the schedule of any
    /// entry is its trace suffix past that point.
    base_depth: usize,
    /// The level's schedule length, the same for every entry.
    depth: usize,
    max_depth: usize,
    /// The traces the level's entries end at.
    traces: &'a Parents,
    /// The visited shards of all previous levels.
    visited: &'a [VisitedMap],
    /// The tables and memos of all previous levels.
    tables: &'a Tables,
    /// A configuration of the explored system, to materialize into.
    template: &'a System,
    dpor: bool,
    matrix: Option<&'a InterferenceMatrix>,
    /// The frontier's [`Frontier::violation`]: entries past it are not
    /// expanded, and before it only step errors are looked for.
    violation: usize,
}

impl Level<'_> {
    /// Expands one chunk of frontier entries, the first at frontier
    /// index `start`, freeing each entry once expanded.
    fn expand(&self, start: usize, entries: Vec<Vec<Prefix>>) -> LevelChunk {
        let mut out = LevelChunk::default();
        let mut scratch =
            Scratch { parent: self.template.clone(), holds: usize::MAX, key: String::new() };
        for (offset, entry) in entries.into_iter().flatten().enumerate() {
            let idx = start + offset;
            match entry.verdict.as_deref() {
                Some(Verdict::Violation(msg)) => {
                    let schedule = schedule_since(&self.traces.trace(entry.trace), self.base_depth);
                    out.violation = Some((idx, schedule, msg.clone()));
                    // Later entries in the chunk cannot improve on this
                    // index.
                    break;
                }
                Some(Verdict::Panic(message)) => {
                    let trace = self.traces.trace(entry.trace);
                    out.panicked(idx, &trace, self.base_depth, message.clone());
                    continue;
                }
                None => {}
            }
            // Panic isolation: a panic while forking becomes a
            // structured WorkerPanic at this entry's canonical index
            // instead of tearing down the worker and hanging the level
            // barrier.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.expand_entry(&mut out, &mut scratch, &entry, idx)
            }));
            let message = match attempt {
                Ok(Ok(())) => continue,
                Ok(Err(message)) => message,
                Err(payload) => panic_message(payload.as_ref()),
            };
            out.panicked(idx, &self.traces.trace(entry.trace), self.base_depth, message);
        }
        out
    }

    /// Expands `entry`, at frontier index `idx`. `Err` carries the
    /// message of a step that panicked.
    fn expand_entry(
        &self,
        out: &mut LevelChunk,
        scratch: &mut Scratch,
        entry: &Prefix,
        idx: usize,
    ) -> Result<(), String> {
        let tables = self.tables;
        if entry.first && tables.process_states(&entry.ids).all(ProcessState::terminated) {
            out.terminals += 1;
            let outputs = tables.process_states(&entry.ids).map(|state| {
                state.poised.output().cloned().expect("a terminated process has output")
            });
            out.terminal_outputs.push(outputs.collect());
            return Ok(());
        }
        if self.depth >= self.max_depth {
            out.truncated = true;
            return Ok(());
        }
        let masks = if self.dpor {
            let poised = tables.process_states(&entry.ids).map(|state| state.poised.operation());
            match StepMasks::of(poised, true, self.matrix, &mut out.prefilter_hits) {
                Ok(masks) => Some(masks),
                Err(err) => {
                    // An unsound matrix fails the entry closed; the
                    // canonical merge picks the lowest-index error
                    // across chunks, keeping the outcome identical at
                    // every thread count.
                    if out.error.is_none() {
                        out.error = Some((idx, err));
                    }
                    return Ok(());
                }
            }
        } else {
            None
        };
        if idx > self.violation {
            return Ok(());
        }
        if let Some(masks) = masks {
            let mut remaining = entry.claim;
            while remaining != 0 {
                let q = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let Some(step) = self.step(out, scratch, entry, idx, q)? else {
                    continue;
                };
                let sleep = masks.indep[q] & (entry.sleep | (entry.claim & low_bits(q)));
                // Only stepping q can change liveness: the child's
                // enabled set is the parent's, minus q if it just
                // terminated.
                let enabled = if self.terminated(out, q, step.process) {
                    masks.enabled & !(1 << q)
                } else {
                    masks.enabled
                };
                // The pre-filter drops the child when the merge could
                // not possibly claim anything from it. (`expanded` can
                // only have grown since the shards were frozen, so this
                // never drops a live claim.)
                let live = |meta: &StateMeta| enabled & !sleep & !meta.expanded != 0;
                self.push(out, entry, q, step, (sleep, enabled), live);
            }
        } else {
            for (pid, state) in tables.process_states(&entry.ids).enumerate() {
                if state.terminated() {
                    continue;
                }
                let Some(step) = self.step(out, scratch, entry, idx, pid)? else {
                    continue;
                };
                // Configurations deduplicated at an earlier level are
                // never kept; within-level duplicates are resolved
                // canonically by the merge itself.
                self.push(out, entry, pid, step, (0, 0), |_| false);
            }
        }
        Ok(())
    }

    /// The step of process `q` from `entry` (at frontier index `idx`)
    /// when its child is to be built: a memo lookup, or computed once
    /// per chunk. A step error is recorded against `idx` instead (the
    /// chunk's first error wins); `Err` carries a panic's message.
    fn step(
        &self,
        out: &mut LevelChunk,
        scratch: &mut Scratch,
        entry: &Prefix,
        idx: usize,
        q: usize,
    ) -> Result<Option<Stepped>, String> {
        let tables = self.tables;
        let ids = entry.ids.as_slice();
        let state = ids[tables.objects.len() + q];
        let poised = &tables.process(q, state).poised;
        let position = poised.operation().map_or(usize::MAX, |op| op.object().0);
        let object = if position < tables.objects.len() { ids[position] } else { u32::MAX };
        let memo = memo_key(state, object);
        let build = self.violation == usize::MAX;
        if let Some(&t) = tables.memo[q].get(&memo) {
            let Transition { process, object } = tables.transitions[t as usize];
            return Ok(build.then_some(Stepped { process, object, transition: t, position }));
        }
        let at = match out.fresh.index.get(&(q, memo)) {
            Some(&at) => at,
            None => {
                let outcome = self.compute(&mut out.fresh, scratch, entry, idx, q);
                out.fresh.steps.push(FreshStep { pid: q, key: memo, outcome });
                out.fresh.index.insert((q, memo), out.fresh.steps.len() - 1);
                out.fresh.steps.len() - 1
            }
        };
        match &out.fresh.steps[at].outcome {
            Outcome::Stepped(Transition { process, object }, _) => {
                let (process, object, transition) = (*process, *object, PENDING | at as u32);
                Ok(build.then_some(Stepped { process, object, transition, position }))
            }
            Outcome::Failed(err) => {
                if out.error.is_none() {
                    out.error = Some((idx, err.clone()));
                }
                Ok(None)
            }
            Outcome::Panicked(message) => Err(message.clone()),
        }
    }

    /// Computes the step of process `q` from `entry` on the
    /// materialized parent. The states it leads to get their shared id
    /// when the frozen tables hold them, and a pending one otherwise.
    /// The parent is materialized without its trace: a step reads none.
    fn compute(
        &self,
        fresh: &mut Fresh,
        scratch: &mut Scratch,
        entry: &Prefix,
        idx: usize,
        q: usize,
    ) -> Outcome {
        let tables = self.tables;
        if scratch.holds != idx {
            tables.materialize(&mut scratch.parent, &entry.ids, &entry.steps);
            scratch.holds = idx;
        }
        let key = &mut scratch.key;
        let next = match catch_unwind(AssertUnwindSafe(|| scratch.parent.successor(ProcessId(q)))) {
            Ok(Ok(next)) => next,
            Ok(Err(err)) => return Outcome::Failed(err),
            Err(payload) => return Outcome::Panicked(panic_message(payload.as_ref())),
        };
        let (process, object, event) = next.into_parts();
        let process = match tables.processes[q].find(process_key(&*process, key)) {
            Some(id) => id,
            None => {
                let state = ProcessState::new(process);
                fresh.processes.push(New { position: q, key: key.as_str().into(), state });
                PENDING | (fresh.processes.len() - 1) as u32
            }
        };
        let object = object.map(|object| {
            let position = event.op.object().0;
            match tables.objects[position].find(object_key(&object, key)) {
                Some(id) => id,
                None => {
                    let key = key.as_str().into();
                    fresh.objects.push(New { position, key, state: object });
                    PENDING | (fresh.objects.len() - 1) as u32
                }
            }
        });
        Outcome::Stepped(Transition { process, object }, event)
    }

    /// Whether process `q` in state `id` (shared or pending) has
    /// terminated.
    fn terminated(&self, out: &LevelChunk, q: usize, id: u32) -> bool {
        if is_pending(id) {
            out.fresh.processes[(id & !PENDING) as usize].state.terminated()
        } else {
            self.tables.process(q, id).terminated()
        }
    }

    /// Forks the child `step` of process `q` leads to from `entry`,
    /// with its `(sleep, enabled)` masks, unless the previous levels
    /// visited it and `live` says its bookkeeping there leaves nothing
    /// to claim.
    fn push(
        &self,
        out: &mut LevelChunk,
        entry: &Prefix,
        q: usize,
        step: Stepped,
        (sleep, enabled): (u32, u32),
        live: impl Fn(&StateMeta) -> bool,
    ) {
        let mut ids = entry.ids.clone();
        let slots = ids.as_mut_slice();
        slots[self.tables.objects.len() + q] = step.process;
        if let Some(object) = step.object {
            slots[step.position] = object;
        }
        let key = if is_pending(step.process) || step.object.is_some_and(is_pending) {
            // A new state: no earlier level can have visited it. The
            // intern pass gives it its id and hash.
            Key { hash: 0, ids }
        } else {
            let key = Key::new(ids);
            if self.seen(&key).is_some_and(|meta| !live(meta)) {
                return;
            }
            key
        };
        if is_pending(step.transition) {
            out.fresh.children.push(out.heads.len());
        }
        out.heads.push(Head { key, sleep, enabled });
        let mut steps = entry.steps.clone();
        steps.as_mut_slice()[q] += 1;
        out.children.push(Child { parent: entry.trace, steps, transition: step.transition });
    }

    /// The previous levels' bookkeeping for `key`, if it was visited.
    fn seen(&self, key: &Key) -> Option<&StateMeta> {
        self.visited[shard_of(key.hash, self.visited.len())].get(key)
    }
}

/// What an expanding worker reuses from step to step.
struct Scratch {
    /// The parent a step the memo lacks is computed on, refilled per
    /// entry.
    parent: System,
    /// The frontier index of the entry `parent` holds (`usize::MAX`:
    /// none).
    holds: usize,
    /// The key bytes of the states such a step leads to.
    key: String,
}

impl LevelChunk {
    /// Records a panic at frontier index `idx`, on the configuration
    /// `trace` reached, as a [`ModelError::WorkerPanic`] naming the
    /// entry and its schedule (the chunk's lowest-index error wins).
    fn panicked(&mut self, idx: usize, trace: &Trace, base_depth: usize, message: String) {
        if self.error.as_ref().is_some_and(|(best, _)| *best <= idx) {
            return;
        }
        let schedule: Vec<usize> = schedule_since(trace, base_depth).iter().map(|p| p.0).collect();
        let context = format!("frontier entry {idx} (schedule {schedule:?})");
        self.error = Some((idx, ModelError::WorkerPanic { context, message }));
    }
}

/// What one decide worker concluded over the shards it owns.
struct Decided {
    /// First arrivals admitted (each a newly visited configuration).
    fresh: usize,
    /// Change to the `pruned` tally.
    pruned: isize,
    /// The configuration budget ran out.
    truncated: bool,
    /// Per chunk, the children kept, in chunk order.
    kept: Vec<Vec<Kept>>,
}

/// Walks the level's `heads` (per chunk, in canonical order) and
/// decides every arrival whose key falls in `shards`, the visited
/// shards numbered `first_shard` onwards of `shard_count`: a first
/// arrival is counted and kept, a re-arrival under DPOR is kept when it
/// claims a process not yet expanded, and the sleep-set bookkeeping is
/// updated either way. At most `budget` first arrivals are admitted;
/// the first one past it stops the walk.
fn decide(
    heads: &[&[Head]],
    shards: &mut [VisitedMap],
    first_shard: usize,
    shard_count: usize,
    dpor: bool,
    budget: usize,
) -> Decided {
    let mut out = Decided {
        fresh: 0,
        pruned: 0,
        truncated: false,
        kept: heads.iter().map(|_| Vec::new()).collect(),
    };
    'walk: for (chunk, kept) in heads.iter().zip(&mut out.kept) {
        for (at, Head { key, sleep, enabled }) in chunk.iter().enumerate() {
            let (sleep, enabled) = (*sleep, *enabled);
            let shard = shard_of(key.hash, shard_count).wrapping_sub(first_shard);
            let Some(visited) = shards.get_mut(shard) else { continue };
            match visited.entry(key.clone()) {
                Entry::Vacant(slot) => {
                    if out.fresh >= budget {
                        out.truncated = true;
                        break 'walk;
                    }
                    out.fresh += 1;
                    let claim = enabled & !sleep;
                    let slept = if dpor { enabled & sleep } else { 0 };
                    out.pruned += slept.count_ones() as isize;
                    slot.insert(StateMeta { expanded: claim, slept });
                    kept.push(Kept { at, sleep, claim, first: true });
                }
                Entry::Occupied(mut slot) => {
                    if !dpor {
                        continue;
                    }
                    let meta = slot.get_mut();
                    let claim = enabled & !sleep & !meta.expanded;
                    let newly_slept = enabled & sleep & !meta.expanded & !meta.slept;
                    meta.slept |= newly_slept;
                    let reclaimed = claim & meta.slept;
                    meta.slept &= !reclaimed;
                    out.pruned +=
                        newly_slept.count_ones() as isize - reclaimed.count_ones() as isize;
                    meta.expanded |= claim;
                    if claim != 0 {
                        kept.push(Kept { at, sleep, claim, first: false });
                    }
                }
            }
        }
    }
    out
}

/// Turns each chunk's kept children (`kept[c]`: one list per decide
/// worker) into the next frontier, materializing and checking each
/// first arrival as it becomes a [`Prefix`], and frees the rest, on up
/// to `threads` workers. Each chunk first appends one trace node per
/// kept child to one block of its own, extending `parents`, then checks
/// each first arrival on a trace that ends in that block. The next
/// frontier is cut into chunks at multiples of ⌈len / (4 · threads)⌉,
/// as a flat frontier always was: the counts of a level that ends in a
/// violation depend on those boundaries.
fn build_level(
    forks: Vec<(Vec<Head>, Vec<Child>)>,
    kept: Vec<Vec<Vec<Kept>>>,
    threads: usize,
    check: Option<ParallelCheck>,
    tables: &Tables,
    template: &System,
    parents: &Parents,
) -> Frontier {
    let len: usize = kept.iter().flatten().map(Vec::len).sum();
    let chunk_len = len.div_ceil(threads * 4).max(1);
    let mut offset = 0;
    let items: Vec<_> = forks
        .into_iter()
        .zip(kept)
        .enumerate()
        .map(|(c, (forks, kept))| {
            let start = offset;
            offset += kept.iter().map(Vec::len).sum::<usize>();
            (c, forks, kept, start)
        })
        .collect();
    let built = par_map(items, threads, |(c, (heads, children), kept, start)| {
        let mut slots: Vec<Option<Kept>> = children.iter().map(|_| None).collect();
        let mut count = 0;
        for k in kept.into_iter().flatten() {
            let at = k.at;
            slots[at] = Some(k);
            count += 1;
        }
        let mut nodes = Vec::with_capacity(count);
        nodes.extend(children.iter().zip(&slots).filter(|(_, slot)| slot.is_some()).map(
            |(child, _)| Node { parent: child.parent, event: child.transition },
        ));
        let block = parents.extend(&tables.events, nodes);
        // Segments of this chunk's kept children, one per next-level
        // chunk they fall in, and the lowest index among them whose
        // verdict is a violation.
        let mut segments: Vec<(usize, Vec<Prefix>)> = Vec::new();
        let mut violation = usize::MAX;
        let mut rank = start;
        let mut scratch: Option<System> = None;
        for ((head, child), slot) in heads.into_iter().zip(children).zip(slots) {
            let Some(Kept { sleep, claim, first, .. }) = slot else { continue };
            let node = (rank - start) as u32;
            let verdict = match check {
                Some(check) if first => {
                    let sys = scratch.get_or_insert_with(|| template.clone());
                    tables.materialize(sys, &head.key.ids, &child.steps);
                    sys.trace_mut().point_at(&block, node);
                    judge(check, sys)
                }
                _ => None,
            };
            if is_violation(&verdict) {
                violation = violation.min(rank);
            }
            let target = rank / chunk_len;
            rank += 1;
            if segments.last().is_none_or(|(j, _)| *j != target) {
                segments.push((target, Vec::new()));
            }
            let (_, segment) = segments.last_mut().expect("segment just pushed");
            let (ids, steps, trace) = (head.key.ids, child.steps, Tip { block: c as u32, node });
            segment.push(Prefix { ids, steps, trace, sleep, claim, first, verdict });
        }
        (segments, violation, block)
    });
    let mut chunks: Vec<Vec<Vec<Prefix>>> =
        (0..len.div_ceil(chunk_len)).map(|_| Vec::new()).collect();
    let mut violation = usize::MAX;
    let mut blocks = Vec::with_capacity(built.len());
    for (segments, first_violation, block) in built {
        violation = violation.min(first_violation);
        for (target, segment) in segments {
            chunks[target].push(segment);
        }
        blocks.push(block);
    }
    let traces = Parents::Blocks(Arc::new(blocks));
    Frontier { chunk_len, violation, chunks, traces }
}

/// The schedule `trace` records past the initial configuration's
/// `base_depth` events: the process ids of its steps.
fn schedule_since(trace: &Trace, base_depth: usize) -> Vec<ProcessId> {
    trace.events_from(base_depth).map(|e| e.pid).collect()
}

/// The x-obstruction-freedom check run on one configuration: every
/// rotation-group of at most `x` live processes, under quanta 1/2/3,
/// must terminate within `budget` steps. The check behind
/// [`Explorer::check_solo_termination`] and
/// [`Explorer::check_group_termination`].
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

    /// `n` processes that each add `1 << slot` to their own component
    /// of a 4-component snapshot, then output the sum of the view they
    /// scan next: 7 once all of three have written.
    fn summing_writers(n: usize) -> System {
        #[derive(Clone, Debug)]
        struct SumSlot {
            slot: usize,
            wrote: bool,
        }
        impl SnapshotProtocol for SumSlot {
            fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
                if self.wrote {
                    ProtocolStep::Output(Value::Int(view.iter().filter_map(Value::as_int).sum()))
                } else {
                    self.wrote = true;
                    ProtocolStep::Update(self.slot, Value::Int(1 << self.slot))
                }
            }
            fn components(&self) -> usize {
                4
            }
        }
        let processes = (0..n)
            .map(|slot| {
                Box::new(SnapshotProcess::new(
                    SumSlot { slot, wrote: false },
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
    fn terminal_outputs_are_thread_count_invariant() {
        let (base, base_report) =
            Explorer::default().terminal_outputs(&two_process_system()).unwrap();
        for threads in [2, 4] {
            let (outputs, report) = Explorer::default()
                .with_threads(threads)
                .terminal_outputs(&two_process_system())
                .unwrap();
            // Canonical first-reached order, not merely the same set.
            assert_eq!(outputs, base, "t={threads}");
            assert_eq!(report.configs_visited, base_report.configs_visited);
            assert_eq!(report.terminals, base_report.terminals);
        }
    }

    #[test]
    fn dpor_visits_the_same_states_and_verdicts() {
        // The cornerstone contract: sleep sets prune forks, never
        // configurations. On and off must agree on every count except
        // `pruned`.
        for sys in [two_process_system(), independent_writers(3)] {
            let on = Explorer::default().with_threads(4);
            let off = Explorer::default().with_threads(4).with_dpor(false);
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
        }
    }

    #[test]
    fn dpor_prunes_commuting_writers() {
        // Three writers to three different components: almost every
        // adjacent pair commutes, so the reduction must actually fire.
        let sys = independent_writers(3);
        let report = Explorer::default().explore_parallel(&sys, &|_| None).unwrap();
        assert!(report.dpor);
        assert!(report.pruned > 0, "no forks pruned: {report:?}");
        assert!(report.reduction_factor() > 1.0);
    }

    /// `n` processes over one `n`-component snapshot: each writes
    /// `1 << slot` to its own component, then outputs the sum of the
    /// view it scans next. One object and `n` processes are `n + 1`
    /// key terms.
    fn slot_summers(n: usize) -> System {
        #[derive(Clone, Debug)]
        struct Summer {
            slot: usize,
            n: usize,
            wrote: bool,
        }
        impl SnapshotProtocol for Summer {
            fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
                if self.wrote {
                    ProtocolStep::Output(Value::Int(
                        view.iter().filter_map(Value::as_int).sum(),
                    ))
                } else {
                    self.wrote = true;
                    ProtocolStep::Update(self.slot, Value::Int(1 << self.slot))
                }
            }
            fn components(&self) -> usize {
                self.n
            }
        }
        let processes = (0..n)
            .map(|slot| {
                Box::new(SnapshotProcess::new(Summer { slot, n, wrote: false }, ObjectId(0)))
                    as Box<dyn Process>
            })
            .collect();
        System::new(vec![Object::snapshot(n)], processes)
    }

    #[test]
    fn keys_past_the_inline_terms_live_on_the_heap_and_stay_exact() {
        assert!(matches!(ExploreKey::of(&slot_summers(7)).terms, Row::Inline { len: 8, .. }));
        let mut sys = slot_summers(9);
        let mut key = ExploreKey::of(&sys);
        assert!(matches!(&key.terms, Row::Heap(terms) if terms.len() == 10));
        let mut in_place = sys.clone();
        let mut restepped = key.clone();
        for pid in [0, 8, 4, 8, 0, 8, 3, 0, 1, 4, 4] {
            let next = sys.successor(ProcessId(pid)).unwrap();
            let derived = key.after(&next);
            sys = sys.with_successor(next);
            key = ExploreKey::of(&sys);
            assert_eq!(derived, key, "after p{pid}");
            in_place.step(ProcessId(pid)).unwrap();
            restepped.restep(&in_place);
            assert_eq!(restepped, key, "restep after p{pid}");
        }
        assert!(sys.is_terminated(ProcessId(8)));

        let sys = slot_summers(9);
        let explore = |threads| {
            Explorer::new(Limits { max_depth: 6, max_configs: usize::MAX })
                .with_threads(threads)
                .explore_parallel(&sys, &|_| None)
                .unwrap()
        };
        let base = explore(1);
        assert!(base.dpor && base.pruned > 0, "{base:?}");
        for threads in [2, 3] {
            assert_eq!(format!("{:?}", explore(threads)), format!("{base:?}"), "t={threads}");
        }
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
        for threads in [1, 0] {
            let report = Explorer::default()
                .with_threads(threads)
                .check_solo_termination(&two_process_system(), 10)
                .unwrap();
            assert!(report.is_clean(), "violation: {:?}", report.violation);
        }
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
        for threads in [1, 2] {
            let report = Explorer::new(Limits { max_depth: 3, max_configs: 1000 })
                .with_threads(threads)
                .check_solo_termination(&sys, 20)
                .unwrap();
            assert!(!report.is_clean(), "t={threads}");
        }
    }

    #[test]
    fn violation_reports_schedule() {
        let explorer = Explorer::default();
        let report = explorer
            .explore_parallel(&two_process_system(), &|sys| {
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
    fn violation_level_counts_follow_the_chunk_boundaries() {
        // On the level where the search stops, each chunk stops at its
        // own first violation while later chunks go on counting, so
        // `terminals` and `prefilter_hits` depend on where the thread
        // count cuts that level into chunks. Every other field is the
        // same at every thread count. The pins make any change of the
        // chunk boundaries visible.
        let check = |sys: &System| {
            let seven = Some(Value::Int(7));
            (sys.all_terminated()
                && sys.output(ProcessId(0)) == seven
                && sys.output(ProcessId(1)) == seven)
                .then(|| "p0 and p1 output 7".to_string())
        };
        let schedule = [0, 0, 1, 1, 2, 2, 0, 1, 2].map(ProcessId).to_vec();
        for dpor in [true, false] {
            for (threads, terminals) in [(1, 11), (2, 10), (3, 14), (4, 14), (8, 15)] {
                let report = Explorer::default()
                    .with_threads(threads)
                    .with_dpor(dpor)
                    .explore_parallel(&summing_writers(3), &check)
                    .unwrap();
                let pinned = ExploreReport {
                    configs_visited: 142,
                    terminals,
                    pruned: if dpor { 39 } else { 0 },
                    dpor,
                    static_seed: dpor,
                    static_indep_pairs: 0,
                    prefilter_hits: 0,
                    truncated: false,
                    truncation: None,
                    violation: Some((schedule.clone(), "p0 and p1 output 7".into())),
                };
                assert_eq!(
                    format!("{report:?}"),
                    format!("{pinned:?}"),
                    "threads = {threads}, dpor = {dpor}"
                );
            }
        }

        let check = |sys: &System| {
            (sys.is_terminated(ProcessId(0)) && sys.is_terminated(ProcessId(1)))
                .then(|| "p0 and p1 wrote".to_string())
        };
        for (threads, prefilter_hits) in [(1, 71), (2, 74), (3, 77), (4, 77), (8, 77)] {
            let report = Explorer::default()
                .with_threads(threads)
                .explore_parallel(&blind_writers(5), &check)
                .unwrap();
            let pinned = ExploreReport {
                configs_visited: 16,
                terminals: 0,
                pruned: 30,
                dpor: true,
                static_seed: true,
                static_indep_pairs: 10,
                prefilter_hits,
                truncated: false,
                truncation: None,
                violation: Some((vec![ProcessId(0), ProcessId(1)], "p0 and p1 wrote".into())),
            };
            assert_eq!(format!("{report:?}"), format!("{pinned:?}"), "threads = {threads}");
        }
    }

    #[test]
    fn checks_flagging_the_depth_bound_level_are_reported() {
        // The check first flags configurations at exactly the depth
        // bound: with violations, with panics, or with both. The level
        // at the bound must report the same violation or check panic,
        // with the same counts, as the search one level deeper, where
        // that level is not the bound. Depth 9 is summing_writers(3)'s
        // terminal level, and the bound cuts depth 6 off mid-run.
        let sys = summing_writers(3);
        for depth in [6, 9] {
            for (violations, panics) in [(true, false), (false, true), (true, true)] {
                let check = move |sys: &System| {
                    if sys.trace().len() != depth {
                        return None;
                    }
                    match sys.config_fingerprint() % 3 {
                        0 if violations => Some("flagged at the bound".to_string()),
                        1 if panics => panic!("check panic at the bound"),
                        _ => None,
                    }
                };
                let mut outcomes = Vec::new();
                for threads in 1..=4 {
                    for dpor in [true, false] {
                        let at = format!(
                            "depth {depth}, violations {violations}, panics {panics}, \
                             threads {threads}, dpor {dpor}"
                        );
                        let explore = |max_depth| {
                            Explorer::new(Limits { max_depth, max_configs: usize::MAX })
                                .with_threads(threads)
                                .with_dpor(dpor)
                                .explore_parallel(&sys, &check)
                        };
                        let outcome = match (explore(depth), explore(depth + 1)) {
                            (Ok(bound), Ok(deeper)) => {
                                let counts = |r: &ExploreReport| {
                                    (r.configs_visited, r.terminals, r.pruned, r.violation.clone())
                                };
                                assert_eq!(counts(&bound), counts(&deeper), "{at}");
                                let (schedule, message) = bound.violation.expect(&at);
                                assert_eq!(schedule.len(), depth, "{at}");
                                format!("{schedule:?} {message}")
                            }
                            (Err(bound), Err(deeper)) => {
                                assert_eq!(bound.to_string(), deeper.to_string(), "{at}");
                                assert!(panics, "{at}: {bound}");
                                bound.to_string()
                            }
                            other => panic!("{at}: {other:?}"),
                        };
                        outcomes.push(outcome);
                    }
                }
                assert!(outcomes.iter().all(|o| *o == outcomes[0]), "{outcomes:?}");
            }
        }
    }

    #[test]
    fn dedup_bounds_visited_configs() {
        let explorer = Explorer::default();
        let report = explorer
            .explore_parallel(&two_process_system(), &|_| None)
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
    fn violation_level_precedence_is_thread_count_invariant() {
        // Three blind writers; p0's second write trespasses on p1's
        // component. After one step each, the level holds (in frontier
        // order) the configurations after p0, after p1 and after p2.
        // Whatever a check says about them, the outcome is decided by
        // the lowest frontier index among the step errors, check panics
        // and violations, at every thread count.
        #[derive(Clone, Debug)]
        struct Writes {
            slots: &'static [usize],
            done: usize,
        }
        impl Process for Writes {
            fn poised(&self) -> Poised {
                match self.slots.get(self.done) {
                    Some(&component) => Poised::Step(Operation::Update {
                        obj: ObjectId(0),
                        component,
                        value: Value::Int(1),
                    }),
                    None => Poised::Output(Value::Int(0)),
                }
            }
            fn receive(&mut self, _resp: Response) {
                self.done += 1;
            }
            fn boxed_clone(&self) -> Box<dyn Process> {
                Box::new(self.clone())
            }
        }
        let slots: [&'static [usize]; 3] = [&[0, 1], &[1], &[2]];
        let processes = slots
            .into_iter()
            .map(|slots| Box::new(Writes { slots, done: 0 }) as Box<dyn Process>)
            .collect();
        let mut sys = System::new(vec![Object::snapshot(3)], processes);
        sys.restrict_writer(ObjectId(0), 1, ProcessId(1));
        // The configuration after `pid`'s first step, and nothing else.
        let after = |sys: &System, pid: usize| {
            sys.trace().len() == 1 && sys.trace()[0].pid == ProcessId(pid)
        };
        let explore = |threads: usize, check: ParallelCheck| {
            Explorer::default()
                .with_preflight(false)
                .with_threads(threads)
                .explore_parallel(&sys, check)
        };
        let mut panics = Vec::new();
        for threads in [1, 2, 3, 4, 8] {
            // A step error at entry 0 (p0 trespassing) precedes a
            // panicking check at entry 1.
            let err = explore(threads, &|sys: &System| {
                assert!(!after(sys, 1), "check panic after p1");
                after(sys, 2).then(|| "after p2".to_string())
            })
            .unwrap_err();
            assert!(
                matches!(err, ModelError::WriterViolation { process: 0, component: 1 }),
                "threads = {threads}: {err:?}"
            );

            // A panicking check at entry 0 precedes a violation at 1.
            let err = explore(threads, &|sys: &System| {
                assert!(!after(sys, 0), "check panic after p0");
                after(sys, 1).then(|| "after p1".to_string())
            })
            .unwrap_err();
            assert!(matches!(err, ModelError::WorkerPanic { .. }), "threads = {threads}: {err:?}");
            panics.push(err.to_string());

            // A violation at entry 0 precedes a panicking check at 1.
            let report = explore(threads, &|sys: &System| {
                assert!(!after(sys, 1), "check panic after p1");
                after(sys, 0).then(|| "after p0".to_string())
            })
            .unwrap();
            assert_eq!(
                report.violation,
                Some((vec![ProcessId(0)], "after p0".to_string())),
                "threads = {threads}"
            );
        }
        assert_eq!(
            panics[0],
            "worker panic during frontier entry 0 (schedule [0]): check panic after p0"
        );
        assert!(panics.iter().all(|m| m == &panics[0]), "{panics:?}");
    }

    /// Waits for register 0 (the flag) to be set, then fails its next
    /// step: a panicking `receive` for the flag itself, or a write to
    /// register 1, which writer p1 owns.
    #[derive(Clone, Debug)]
    struct Trespasser {
        panics: bool,
        flagged: bool,
    }

    impl Process for Trespasser {
        fn poised(&self) -> Poised {
            if self.flagged {
                Poised::Step(Operation::Write { obj: ObjectId(1), value: Value::Int(0) })
            } else {
                Poised::Step(Operation::Read { obj: ObjectId(0) })
            }
        }
        fn receive(&mut self, resp: Response) {
            if resp == Response::Value(Value::Int(1)) {
                assert!(!self.panics, "injected receive panic");
                self.flagged = true;
            }
        }
        fn boxed_clone(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }
    }

    /// Sets the flag, then outputs.
    #[derive(Clone, Debug)]
    struct Flagger {
        done: bool,
    }

    impl Process for Flagger {
        fn poised(&self) -> Poised {
            if self.done {
                Poised::Output(Value::Int(1))
            } else {
                Poised::Step(Operation::Write { obj: ObjectId(0), value: Value::Int(1) })
            }
        }
        fn receive(&mut self, _resp: Response) {
            self.done = true;
        }
        fn boxed_clone(&self) -> Box<dyn Process> {
            Box::new(self.clone())
        }
    }

    /// A trespasser and eight flaggers: every flagger's first step
    /// leads to a configuration where the trespasser's failing step is
    /// the same (its state, the flag's state), so one level holds that
    /// step at several entries, in one chunk and across chunks.
    fn trespass_system(panics: bool) -> System {
        let trespasser = Trespasser { panics, flagged: false };
        let mut processes = vec![Box::new(trespasser) as Box<dyn Process>];
        processes.extend((0..8).map(|_| Box::new(Flagger { done: false }) as Box<dyn Process>));
        let mut sys = System::new(vec![Object::register(), Object::register()], processes);
        sys.restrict_writer(ObjectId(1), 0, ProcessId(1));
        sys
    }

    #[test]
    fn failed_steps_keep_their_canonical_index_across_chunks() {
        // The configuration where exactly the flaggers in `done` have
        // set the flag and the trespasser has (`read`) or has not seen
        // it.
        let after = |sys: &System, done: &[usize], read: bool| {
            (1..9).all(|p| sys.is_terminated(ProcessId(p)) == done.contains(&p))
                && matches!(sys.poised(ProcessId(0)), Poised::Step(Operation::Write { .. })) == read
        };
        let explore = |panics: bool, threads: usize, dpor: bool, done: &[usize], read: bool| {
            let done = done.to_vec();
            Explorer::default()
                .with_preflight(false)
                .with_threads(threads)
                .with_dpor(dpor)
                .explore_parallel(&trespass_system(panics), &move |sys: &System| {
                    after(sys, &done, read).then(|| "flagged".to_string())
                })
        };
        for threads in 1..=4 {
            for dpor in [true, false] {
                let at = format!("threads = {threads}, dpor = {dpor}");
                // Level 1 is [1], [2], … [8]: the trespasser's read
                // panics from each, first at entry 0, which precedes a
                // violation at entry 1 and follows one at entry 0.
                let err = explore(true, threads, dpor, &[2], false).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    "worker panic during frontier entry 0 (schedule [1]): injected receive panic",
                    "{at}"
                );
                let report = explore(true, threads, dpor, &[1], false).unwrap();
                assert_eq!(report.violation, Some((vec![ProcessId(1)], "flagged".into())), "{at}");

                // Level 2 begins [1, 0], [1, 2], and the trespass fails
                // from every entry the trespasser has read the flag in:
                // first at entry 0, which precedes a violation at entry
                // 1 and follows one at entry 0.
                let err = explore(false, threads, dpor, &[1, 2], false).unwrap_err();
                assert!(
                    matches!(err, ModelError::WriterViolation { process: 0, component: 0 }),
                    "{at}: {err:?}"
                );
                let report = explore(false, threads, dpor, &[1], true).unwrap();
                let schedule = vec![ProcessId(1), ProcessId(0)];
                assert_eq!(report.violation, Some((schedule, "flagged".into())), "{at}");
            }
        }
    }

    #[test]
    fn unlimited_explorations_carry_no_truncation_notice() {
        let report = Explorer::default()
            .explore_parallel(&two_process_system(), &|_| None)
            .unwrap();
        assert!(!report.truncated);
        assert!(report.truncation.is_none());
    }

    #[test]
    fn static_seeding_leaves_reports_identical() {
        // The audit contract: the matrix is a prefilter only, the
        // masks used are always the dynamic oracle's — every verdict
        // and count must match with the seeding on or off.
        for sys in
            [two_process_system(), independent_writers(3), blind_writers(3)]
        {
            let on = Explorer::default().with_threads(4);
            let off = Explorer::default().with_threads(4).with_static(false);
            let rep_on = on.explore_parallel(&sys, &|_| None).unwrap();
            let rep_off = off.explore_parallel(&sys, &|_| None).unwrap();
            assert_eq!(rep_on.configs_visited, rep_off.configs_visited);
            assert_eq!(rep_on.terminals, rep_off.terminals);
            assert_eq!(rep_on.pruned, rep_off.pruned);
            assert!(rep_on.static_seed);
            assert!(!rep_off.static_seed);
            assert_eq!(rep_off.static_indep_pairs, 0);
            assert_eq!(rep_off.prefilter_hits, 0);
        }
    }

    #[test]
    fn static_prefilter_fires_on_blind_writers() {
        // Three never-reading writers to disjoint components: all three
        // pairs are statically independent, so the matrix answers (and
        // the audit confirms) at least once per expanded configuration.
        let sys = blind_writers(3);
        let report = Explorer::default().explore_parallel(&sys, &|_| None).unwrap();
        assert!(report.static_seed);
        assert_eq!(report.static_indep_pairs, 3);
        assert!(report.prefilter_hits > 0, "prefilter never consulted: {report:?}");
        assert!(report.pruned > 0);

        // Scanning protocols are statically dependent on every writer
        // of the object: the matrix is all-dependent and never answers.
        let scanning = Explorer::default()
            .explore_parallel(&independent_writers(3), &|_| None)
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
            .explore_parallel(&blind_writers(3), &|_| None)
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
        let poised: Vec<Poised> = (0..2).map(|i| sys.poised(ProcessId(i))).collect();
        let ops = || poised.iter().map(Poised::operation);
        let mut hits = 0usize;
        let err = match StepMasks::of(ops(), true, Some(&unsound), &mut hits) {
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
        StepMasks::of(ops(), true, Some(&sound), &mut hits).unwrap();
    }
}
