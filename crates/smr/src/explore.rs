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
//! # The frontier engine
//!
//! Every entry point runs one engine: a level-synchronised breadth-first
//! frontier over schedule prefixes. Each level runs in three phases,
//! each a [`par_map`] over the workspace's worker pool (one thread by
//! default, see [`Explorer::with_threads`]; at one thread every phase
//! runs on the calling thread):
//!
//! 1. **Expand.** Workers claim chunks of the frontier in order, take
//!    ownership of them and free each entry once it is expanded. A
//!    worker derives each child's [`ExploreKey`] from its parent's key
//!    and the [`System::successor`] step. It drops the child unbuilt
//!    when the visited maps of the previous levels already cover it,
//!    and otherwise builds it, its trace already sealed, with a compact
//!    head `(key, sleep, enabled)` beside it. A level that holds a
//!    violation keeps none of its children, and it is known to hold one
//!    before it is expanded, so it builds none.
//! 2. **Decide by shard.** The visited set is one map per thread, the
//!    shard chosen by key bits. One worker per shard walks all heads in
//!    canonical order and deduplicates the arrivals at its own keys.
//!    Where the configuration budget may run out inside the level, one
//!    worker decides over all shards, so the cut falls in canonical
//!    order.
//! 3. **Build.** Workers turn the kept children into the next
//!    frontier and free the others. Each first arrival is checked as it
//!    becomes a frontier entry, while it is still in cache; the entry
//!    keeps the verdict, and the frontier the lowest index whose verdict
//!    is a violation. (The root is checked before the first level.)
//!
//! Children are ordered by (parent frontier index, process id), and
//! every arrival at a key is decided in that order, so
//! `configs_visited`, `pruned`, `truncated` and the first violation are
//! **bit-for-bit identical at every thread count**. The violation
//! reported is the first in canonical schedule order (shortest schedule
//! first, then lexicographic by process id), independent of which
//! thread happened to find it. Because levels are explored in depth
//! order, every configuration reachable within the depth bound is
//! visited (unless the configuration budget runs out).
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
use crate::system::{Successor, System};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

        // One visited shard per thread, chosen by key bits. Expanding
        // workers read every shard as a duplicate pre-filter; the
        // decide phase is the only writer, and runs strictly between
        // expansions.
        let mut visited: Vec<VisitedMap> = (0..threads).map(|_| VisitedMap::default()).collect();
        let root_masks = StepMasks::of(
            initial,
            dpor,
            matrix.as_ref(),
            &mut report.prefilter_hits,
        )?;
        let root_key = ExploreKey::of(initial);
        visited[shard_of(root_key.value(), threads)].insert(
            root_key.value(),
            StateMeta { expanded: root_masks.enabled, slept: 0 },
        );
        report.configs_visited = 1;
        let base_depth = initial.trace().len();
        let mut root = initial.clone();
        root.freeze_trace();
        let verdict = judge(check, &root);
        let mut frontier = Frontier {
            chunk_len: 1,
            violation: if is_violation(&verdict) { 0 } else { usize::MAX },
            chunks: vec![vec![vec![Prefix {
                sys: root,
                key: root_key,
                sleep: 0,
                claim: root_masks.enabled,
                first: true,
                verdict,
            }]]],
        };

        while !frontier.chunks.is_empty() {
            // Expand: each worker owns the chunks it claims and frees
            // every parent once expanded. Results come back in frontier
            // order, so every aggregate below is independent of worker
            // scheduling.
            let level = Level {
                base_depth,
                max_depth: self.limits.max_depth,
                visited: &visited,
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
            let mut children = Vec::with_capacity(chunks.len());
            let mut heads = Vec::with_capacity(chunks.len());
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
                children.push(chunk.children);
                heads.push(chunk.heads);
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
            let arrivals: usize = heads.iter().map(Vec::len).sum();
            let owners: Vec<(usize, &mut [VisitedMap])> = if arrivals > budget {
                vec![(0, &mut visited[..])]
            } else {
                visited.chunks_mut(1).enumerate().collect()
            };
            let decided = par_map(owners, threads, |(first_shard, shards)| {
                decide(&heads, shards, first_shard, threads, dpor, budget)
            });
            drop(heads);
            let mut kept: Vec<Vec<Vec<Kept>>> = children.iter().map(|_| Vec::new()).collect();
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
            frontier = build_level(children, kept, threads, check);
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
            self.explore_parallel_inner(initial, &|_| None, true)?;
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

/// The explorer's in-memory configuration key, kept per
/// component so a step re-hashes only what it touched.
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
/// matching, keyed by [`ExploreKey`] value.
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

/// The visited-state map of one shard, keyed by [`ExploreKey`] value.
/// Keys are already mixed (see [`salted`]), so the map uses them as
/// their own hashes.
type VisitedMap = HashMap<u64, StateMeta, BuildHasherDefault<KeyHasher>>;

/// The visited shard, of `shards`, that owns `key`: key bits 25..57,
/// scaled to the shard count. The map takes its bucket from the low
/// bits and its tag from the top seven, so both stay uniform within a
/// shard.
fn shard_of(key: u64, shards: usize) -> usize {
    ((u64::from((key >> 25) as u32) * shards as u64) >> 32) as usize
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

/// One schedule prefix awaiting expansion in the frontier, checked when
/// it was built.
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
}

/// One freshly forked, sealed configuration travelling from the
/// worker that built it to the worker that keeps or frees it.
struct Child {
    sys: System,
    key: ExploreKey,
}

/// What the decide phase reads of one [`Child`].
struct Head {
    key: u64,
    /// Sleep set the fork inherited (0 with DPOR off).
    sleep: u32,
    /// Live processes of the fork (0 with DPOR off — never read).
    enabled: u32,
}

/// A child the decide phase keeps for the next frontier.
struct Kept {
    /// Index of the child within its chunk.
    at: usize,
    sleep: u32,
    claim: u32,
    first: bool,
}

/// One worker chunk's share of a frontier level.
struct LevelChunk {
    terminals: usize,
    truncated: bool,
    /// Lowest-index violation within the chunk.
    violation: Option<(usize, Vec<ProcessId>, String)>,
    /// Children in (parent index, process id) order, with their heads
    /// beside them.
    children: Vec<Child>,
    heads: Vec<Head>,
    /// Output vectors of terminal configurations in this chunk.
    terminal_outputs: Vec<Vec<Value>>,
    /// Lowest-index step error within the chunk.
    error: Option<(usize, ModelError)>,
    /// Static-prefilter confirmations across the chunk's entries.
    prefilter_hits: usize,
}

/// What every worker expanding one frontier level shares.
struct Level<'a> {
    /// Trace length of the initial configuration: the schedule of any
    /// entry is its trace suffix past that point.
    base_depth: usize,
    max_depth: usize,
    /// The visited shards of all previous levels.
    visited: &'a [VisitedMap],
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
        let mut out = LevelChunk {
            terminals: 0,
            truncated: false,
            violation: None,
            children: Vec::new(),
            heads: Vec::new(),
            terminal_outputs: Vec::new(),
            error: None,
            prefilter_hits: 0,
        };
        // Past the level's violation nothing an entry does is reported;
        // before it, only a step error is.
        let build = self.violation == usize::MAX;
        for (offset, entry) in entries.into_iter().flatten().enumerate() {
            let idx = start + offset;
            let sys = &entry.sys;
            match entry.verdict.map(|verdict| *verdict) {
                Some(Verdict::Violation(msg)) => {
                    out.violation = Some((idx, schedule_since(sys, self.base_depth), msg));
                    // Later entries in the chunk cannot improve on this
                    // index.
                    break;
                }
                Some(Verdict::Panic(message)) => {
                    out.panicked(idx, sys, self.base_depth, message);
                    continue;
                }
                None => {}
            }
            // Panic isolation: a panic while forking becomes a
            // structured WorkerPanic at this entry's canonical index
            // instead of tearing down the worker and hanging the level
            // barrier.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if entry.first && sys.all_terminated() {
                    out.terminals += 1;
                    out.terminal_outputs
                        .push(sys.outputs().into_iter().map(Option::unwrap).collect());
                    return;
                }
                if sys.trace().len() - self.base_depth >= self.max_depth {
                    out.truncated = true;
                    return;
                }
                let masks = if self.dpor {
                    match StepMasks::of(sys, true, self.matrix, &mut out.prefilter_hits) {
                        Ok(masks) => Some(masks),
                        Err(err) => {
                            // An unsound matrix fails the entry closed;
                            // the canonical merge picks the lowest-index
                            // error across chunks, keeping the outcome
                            // identical at every thread count.
                            if out.error.is_none() {
                                out.error = Some((idx, err));
                            }
                            return;
                        }
                    }
                } else {
                    None
                };
                if idx > self.violation {
                    return;
                }
                if let Some(masks) = masks {
                    let mut remaining = entry.claim;
                    while remaining != 0 {
                        let q = remaining.trailing_zeros() as usize;
                        remaining &= remaining - 1;
                        let Some(next) = out.successor(sys, ProcessId(q), idx, build) else {
                            continue;
                        };
                        let key = entry.key.after(&next);
                        let sleep =
                            masks.indep[q] & (entry.sleep | (entry.claim & low_bits(q)));
                        // Only stepping q can change liveness: the
                        // child's enabled set is the parent's, minus q
                        // if it just terminated.
                        let enabled = if next.process().terminated() {
                            masks.enabled & !(1 << q)
                        } else {
                            masks.enabled
                        };
                        // Concurrent pre-filter against the previous
                        // levels' visited shards: drop the child, before
                        // it is ever built, when the merge could not
                        // possibly claim anything from it. (`expanded`
                        // can only have grown since the shards were
                        // frozen, so this never drops a live claim.)
                        if let Some(meta) = self.seen(key.value()) {
                            if enabled & !sleep & !meta.expanded == 0 {
                                continue;
                            }
                        }
                        out.push_child(sys, key, next, sleep, enabled);
                    }
                } else {
                    for i in 0..sys.process_count() {
                        let pid = ProcessId(i);
                        if sys.is_terminated(pid) {
                            continue;
                        }
                        let Some(next) = out.successor(sys, pid, idx, build) else {
                            continue;
                        };
                        let key = entry.key.after(&next);
                        // Concurrent pre-filter: configurations
                        // deduplicated at an earlier level are never
                        // built. Within-level duplicates are resolved
                        // canonically by the merge itself.
                        if self.seen(key.value()).is_none() {
                            out.push_child(sys, key, next, 0, 0);
                        }
                    }
                }
            }));
            if let Err(payload) = attempt {
                out.panicked(idx, sys, self.base_depth, panic_message(payload.as_ref()));
            }
        }
        out
    }

    /// The previous levels' bookkeeping for `key`, if it was visited.
    fn seen(&self, key: u64) -> Option<&StateMeta> {
        self.visited[shard_of(key, self.visited.len())].get(&key)
    }
}

impl LevelChunk {
    /// The step of `pid` from `sys` when its child is to be built. A
    /// step error is recorded against frontier index `idx` instead
    /// (the chunk's first error wins).
    fn successor(
        &mut self,
        sys: &System,
        pid: ProcessId,
        idx: usize,
        build: bool,
    ) -> Option<Successor> {
        match sys.successor(pid) {
            Ok(next) => build.then_some(next),
            Err(err) => {
                if self.error.is_none() {
                    self.error = Some((idx, err));
                }
                None
            }
        }
    }

    /// Builds the child `next` leads to (sealed by
    /// [`System::with_successor`]), with its head.
    fn push_child(&mut self, sys: &System, key: ExploreKey, next: Successor, sleep: u32, enabled: u32) {
        self.heads.push(Head { key: key.value(), sleep, enabled });
        self.children.push(Child { sys: sys.with_successor(next), key });
    }

    /// Records a panic at frontier index `idx`, on configuration `sys`,
    /// as a [`ModelError::WorkerPanic`] naming the entry and its
    /// schedule (the chunk's lowest-index error wins).
    fn panicked(&mut self, idx: usize, sys: &System, base_depth: usize, message: String) {
        if self.error.as_ref().is_some_and(|(best, _)| *best <= idx) {
            return;
        }
        let schedule: Vec<usize> = schedule_since(sys, base_depth).iter().map(|p| p.0).collect();
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
    heads: &[Vec<Head>],
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
        for (at, &Head { key, sleep, enabled }) in chunk.iter().enumerate() {
            let shard = shard_of(key, shard_count).wrapping_sub(first_shard);
            let Some(visited) = shards.get_mut(shard) else { continue };
            match visited.entry(key) {
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
/// worker) into the next frontier, checking each first arrival as it
/// becomes a [`Prefix`], and frees the rest, on up to `threads`
/// workers. The next frontier is cut into chunks at multiples of
/// ⌈len / (4 · threads)⌉, as a flat frontier always was: the counts of
/// a level that ends in a violation depend on those boundaries.
fn build_level(
    children: Vec<Vec<Child>>,
    kept: Vec<Vec<Vec<Kept>>>,
    threads: usize,
    check: ParallelCheck,
) -> Frontier {
    let len: usize = kept.iter().flatten().map(Vec::len).sum();
    let chunk_len = len.div_ceil(threads * 4).max(1);
    let mut offset = 0;
    let items: Vec<_> = children
        .into_iter()
        .zip(kept)
        .map(|(children, kept)| {
            let start = offset;
            offset += kept.iter().map(Vec::len).sum::<usize>();
            (children, kept, start)
        })
        .collect();
    let built = par_map(items, threads, |(children, kept, start)| {
        let mut slots: Vec<Option<Kept>> = children.iter().map(|_| None).collect();
        for k in kept.into_iter().flatten() {
            let at = k.at;
            slots[at] = Some(k);
        }
        // Segments of this chunk's kept children, one per next-level
        // chunk they fall in, and the lowest index among them whose
        // verdict is a violation.
        let mut segments: Vec<(usize, Vec<Prefix>)> = Vec::new();
        let mut violation = usize::MAX;
        let mut rank = start;
        for (Child { sys, key }, slot) in children.into_iter().zip(slots) {
            let Some(Kept { sleep, claim, first, .. }) = slot else { continue };
            let verdict = if first { judge(check, &sys) } else { None };
            if is_violation(&verdict) {
                violation = violation.min(rank);
            }
            let target = rank / chunk_len;
            rank += 1;
            if segments.last().is_none_or(|(j, _)| *j != target) {
                segments.push((target, Vec::new()));
            }
            let (_, segment) = segments.last_mut().expect("segment just pushed");
            segment.push(Prefix { sys, key, sleep, claim, first, verdict });
        }
        (segments, violation)
    });
    let mut chunks: Vec<Vec<Vec<Prefix>>> =
        (0..len.div_ceil(chunk_len)).map(|_| Vec::new()).collect();
    let mut violation = usize::MAX;
    for (segments, first_violation) in built {
        violation = violation.min(first_violation);
        for (target, segment) in segments {
            chunks[target].push(segment);
        }
    }
    Frontier { chunk_len, violation, chunks }
}

/// The schedule that produced `sys`: the process ids of its trace
/// events past the initial configuration's `base_depth` events.
fn schedule_since(sys: &System, base_depth: usize) -> Vec<ProcessId> {
    sys.trace().events_from(base_depth).map(|e| e.pid).collect()
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
