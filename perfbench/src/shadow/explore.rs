//! Shadow of `Explorer::explore_parallel` at one worker thread, the
//! call `explore --threads 1` makes: the level-synchronised frontier
//! with DPOR and static seeding on, its chunking at one worker, and the
//! canonical merge.

use super::{racing_check, racing_factory, Shadowed};
use crate::layers::{Layer, Tracer};
use rsim_smr::analyze::{self, InterferenceMatrix, LintConfig};
use rsim_smr::error::ModelError;
use rsim_smr::explore::{ExploreReport, Explorer, Limits};
use rsim_smr::hb::independent;
use rsim_smr::object::Operation;
use rsim_smr::process::{Poised, ProcessId};
use rsim_smr::system::System;
use std::collections::HashMap;

/// One `explore --protocol racing` instance.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Racing processes.
    pub procs: usize,
    /// Registers.
    pub m: usize,
    /// `--depth`.
    pub depth: usize,
    /// `--max-configs`.
    pub max_configs: usize,
}

/// Bit masks cover this many processes (the explorer's own limit).
const DPOR_MAX_PROCS: usize = 32;

/// Runs the real call untraced, then the shadow, and returns both
/// reports in `Debug` form.
pub fn run(p: Params, t: &mut Tracer) -> Result<Shadowed, String> {
    Shadowed::measure(
        || Ok(format!("{:#?}", real(p))),
        |t| Ok(format!("{:#?}", shadow(p, t))),
        t,
    )
}

/// What `explore --threads 1` computes.
pub fn real(p: Params) -> Result<ExploreReport, ModelError> {
    let system = racing_factory(p.procs, p.m)(0);
    let check = racing_check(p.procs);
    Explorer::new(Limits {
        max_depth: p.depth,
        max_configs: p.max_configs,
    })
    .with_threads(1)
    .explore_parallel(&system, &check)
}

#[derive(Clone, Copy, Default)]
struct Meta {
    expanded: u32,
    slept: u32,
}

struct Masks {
    enabled: u32,
    indep: Vec<u32>,
}

struct Prefix {
    sys: System,
    sleep: u32,
    claim: u32,
    first: bool,
}

struct Child {
    sys: System,
    fp: u64,
    sleep: u32,
    enabled: u32,
}

#[derive(Default)]
struct Chunk {
    terminals: usize,
    truncated: bool,
    violation: Option<(usize, Vec<ProcessId>, String)>,
    children: Vec<Child>,
    error: Option<(usize, ModelError)>,
    prefilter_hits: usize,
}

/// The traced re-implementation of [`real`].
pub fn shadow(p: Params, t: &mut Tracer) -> Result<ExploreReport, ModelError> {
    let root_span = t.open(|| "explore".into(), None);
    let factory = racing_factory(p.procs, p.m);
    let initial = t.time(Layer::SystemBuild, || factory(0));
    let check = racing_check(p.procs);
    t.time(Layer::Preflight, || {
        analyze::preflight(&initial, &LintConfig::default())
    })?;
    let dpor = initial.process_count() <= DPOR_MAX_PROCS;
    let matrix = dpor.then(|| {
        t.time(Layer::MatrixBuild, || {
            InterferenceMatrix::build(&initial, analyze::DEFAULT_BUDGET)
        })
    });
    let matrix = matrix.as_ref();
    let mut report = ExploreReport {
        configs_visited: 0,
        terminals: 0,
        pruned: 0,
        dpor,
        static_seed: matrix.is_some(),
        static_indep_pairs: matrix.map_or(0, InterferenceMatrix::indep_pairs),
        prefilter_hits: 0,
        truncated: false,
        truncation: None,
        violation: None,
    };
    let mut visited: HashMap<u64, Meta> = HashMap::new();
    let root_masks = t.time(Layer::Hb, || {
        masks(&initial, matrix, &mut report.prefilter_hits)
    })?;
    let root_fp = t.time(Layer::Fingerprint, || initial.config_fingerprint());
    visited.insert(
        root_fp,
        Meta {
            expanded: root_masks.enabled,
            slept: 0,
        },
    );
    report.configs_visited = 1;
    let base_depth = initial.trace().len();
    let mut root = initial.clone();
    root.freeze_trace();
    let mut frontier = vec![Prefix {
        sys: root,
        sleep: 0,
        claim: root_masks.enabled,
        first: true,
    }];
    let (mut levels, mut frontier_peak) = (0u64, 0u64);

    while !frontier.is_empty() {
        levels += 1;
        frontier_peak = frontier_peak.max(frontier.len() as u64);
        let level_span = t.open(|| format!("level {levels}"), root_span);
        // One worker walks the level in the chunks `run_level` cuts for
        // a single thread; chunk boundaries decide which entries a
        // violation cuts short, so they must match.
        let chunk_size = frontier.len().div_ceil(4).max(1);
        let mut chunks = Vec::new();
        for start in (0..frontier.len()).step_by(chunk_size) {
            let end = (start + chunk_size).min(frontier.len());
            chunks.push(expand(
                &frontier[start..end],
                start,
                base_depth,
                &check,
                &visited,
                p.depth,
                matrix,
                t,
            ));
        }
        let merged = t.time(Layer::Merge, || {
            merge(chunks, &mut report, &mut visited, p.max_configs)
        });
        // The engine frees the finished level when the next one
        // replaces it. Freeing the level's buffer is where glibc merges
        // the chunks its configurations left, so it is timed too.
        let mut finished = std::mem::take(&mut frontier);
        for entry in finished.drain(..) {
            t.time(Layer::SystemDrop, || drop(entry));
        }
        t.time(Layer::SystemDrop, || drop(finished));
        t.close(level_span);
        match merged? {
            Some(next) => frontier = next,
            None => break,
        }
    }
    t.close(root_span);
    t.count("explore.levels", levels);
    t.peak("explore.frontier_peak", frontier_peak);
    t.count("explore.new_configs", report.configs_visited as u64 - 1);
    // The engine frees its visited map on return; that large free is
    // where glibc merges the chunks of the last level.
    t.time(Layer::Visited, || drop(visited));
    Ok(report)
}

/// `StepMasks::of` with DPOR on.
fn masks(
    sys: &System,
    matrix: Option<&InterferenceMatrix>,
    prefilter_hits: &mut usize,
) -> Result<Masks, ModelError> {
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
    let mut indep = vec![0u32; n];
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
    Ok(Masks { enabled, indep })
}

/// `expand_chunk` with DPOR on.
#[allow(clippy::too_many_arguments)]
fn expand(
    entries: &[Prefix],
    start: usize,
    base_depth: usize,
    check: &dyn Fn(&System) -> Option<String>,
    visited: &HashMap<u64, Meta>,
    max_depth: usize,
    matrix: Option<&InterferenceMatrix>,
    t: &mut Tracer,
) -> Chunk {
    let mut out = Chunk::default();
    for (offset, entry) in entries.iter().enumerate() {
        let idx = start + offset;
        let sys = &entry.sys;
        if entry.first {
            if let Some(msg) = t.time(Layer::Check, || check(sys)) {
                out.violation = Some((idx, schedule_since(sys, base_depth), msg));
                break;
            }
            if sys.all_terminated() {
                out.terminals += 1;
                continue;
            }
        }
        if sys.trace().len() - base_depth >= max_depth {
            out.truncated = true;
            continue;
        }
        let masks = match t.time(Layer::Hb, || masks(sys, matrix, &mut out.prefilter_hits)) {
            Ok(masks) => masks,
            Err(err) => {
                out.error.get_or_insert((idx, err));
                continue;
            }
        };
        let mut remaining = entry.claim;
        while remaining != 0 {
            let q = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let mut fork = t.time(Layer::Fork, || sys.clone());
            if let Err(err) = t.time(Layer::Step, || fork.step(ProcessId(q))) {
                out.error.get_or_insert((idx, err));
                continue;
            }
            let fp = t.time(Layer::Fingerprint, || fork.config_fingerprint());
            let sleep = masks.indep[q] & (entry.sleep | (entry.claim & ((1u32 << q) - 1)));
            let enabled = if fork.is_terminated(ProcessId(q)) {
                masks.enabled & !(1 << q)
            } else {
                masks.enabled
            };
            let expanded = t.time(Layer::Visited, || visited.get(&fp).map(|m| m.expanded));
            if expanded.is_some_and(|expanded| enabled & !sleep & !expanded == 0) {
                t.time(Layer::SystemDrop, || drop(fork));
                continue;
            }
            out.children.push(Child {
                sys: fork,
                fp,
                sleep,
                enabled,
            });
        }
    }
    out
}

/// The canonical merge of one level. `Ok(None)` ends the exploration.
fn merge(
    chunks: Vec<Chunk>,
    report: &mut ExploreReport,
    visited: &mut HashMap<u64, Meta>,
    max_configs: usize,
) -> Result<Option<Vec<Prefix>>, ModelError> {
    let mut error: Option<(usize, ModelError)> = None;
    let mut violation: Option<(usize, Vec<ProcessId>, String)> = None;
    let mut children = Vec::new();
    for chunk in chunks {
        if let Some((idx, err)) = chunk.error {
            if error.as_ref().is_none_or(|(best, _)| idx < *best) {
                error = Some((idx, err));
            }
        }
        if let Some(found) = chunk.violation {
            if violation
                .as_ref()
                .is_none_or(|(best, _, _)| found.0 < *best)
            {
                violation = Some(found);
            }
        }
        report.terminals += chunk.terminals;
        report.truncated |= chunk.truncated;
        report.prefilter_hits += chunk.prefilter_hits;
        children.extend(chunk.children);
    }
    if let Some((err_idx, err)) = error {
        if violation
            .as_ref()
            .is_none_or(|(vio_idx, _, _)| err_idx < *vio_idx)
        {
            return Err(err);
        }
    }
    if let Some((_, sched, msg)) = violation {
        report.violation = Some((sched, msg));
        return Ok(None);
    }
    let mut next = Vec::new();
    for Child {
        mut sys,
        fp,
        sleep,
        enabled,
    } in children
    {
        match visited.get_mut(&fp) {
            None => {
                if report.configs_visited >= max_configs {
                    report.truncated = true;
                    break;
                }
                report.configs_visited += 1;
                let claim = enabled & !sleep;
                let slept = enabled & sleep;
                report.pruned += slept.count_ones() as usize;
                visited.insert(
                    fp,
                    Meta {
                        expanded: claim,
                        slept,
                    },
                );
                sys.freeze_trace();
                next.push(Prefix {
                    sys,
                    sleep,
                    claim,
                    first: true,
                });
            }
            Some(meta) => {
                let claim = enabled & !sleep & !meta.expanded;
                let newly_slept = enabled & sleep & !meta.expanded & !meta.slept;
                meta.slept |= newly_slept;
                report.pruned += newly_slept.count_ones() as usize;
                let reclaimed = claim & meta.slept;
                meta.slept &= !reclaimed;
                report.pruned -= reclaimed.count_ones() as usize;
                meta.expanded |= claim;
                if claim != 0 {
                    sys.freeze_trace();
                    next.push(Prefix {
                        sys,
                        sleep,
                        claim,
                        first: false,
                    });
                }
            }
        }
    }
    if report.truncated && next.is_empty() {
        return Ok(None);
    }
    Ok(Some(next))
}

fn schedule_since(sys: &System, base_depth: usize) -> Vec<ProcessId> {
    sys.trace().events_from(base_depth).map(|e| e.pid).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(p: Params) -> Tracer {
        let mut t = Tracer::default();
        let shadowed = run(p, &mut t).unwrap();
        shadowed.check().unwrap();
        t
    }

    #[test]
    fn shadow_matches_explore_parallel_when_truncated_by_depth() {
        let t = check(Params {
            procs: 3,
            m: 2,
            depth: 12,
            max_configs: 400_000,
        });
        assert_eq!(t.tally(Layer::Preflight).0, 1);
        assert!(t.tally(Layer::Fork).0 > 1_000);
        assert_eq!(t.tally(Layer::Fork).0, t.tally(Layer::Step).0);
    }

    #[test]
    fn shadow_matches_explore_parallel_on_a_violation() {
        // Two racing processes on one register break consensus at a
        // shallow depth: the violation path of the merge runs.
        let t = check(Params {
            procs: 2,
            m: 1,
            depth: 64,
            max_configs: 400_000,
        });
        assert!(t.tally(Layer::Check).0 > 0);
    }

    #[test]
    fn shadow_matches_explore_parallel_when_truncated_by_configs() {
        check(Params {
            procs: 3,
            m: 2,
            depth: 64,
            max_configs: 5_000,
        });
    }
}
