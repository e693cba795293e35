//! The workspace's one data-parallel worker pool.
//!
//! Every parallel path fans its work out through [`par_map`]: the
//! explorer's expand, decide and build phases, campaign and fault
//! campaign matrices, the fuzz harness and the simulation sweep.
//! Workers claim items in order and the results come back in item
//! order, so a caller that folds them in that order computes the same
//! answer at every thread count. That is how every report stays
//! byte-identical at any `--threads`.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// Resolves a configured worker count: `0` means one per available
/// core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

/// Runs `work` on every item, on up to `threads` workers (`0` = one
/// per core, see [`resolve_threads`]) that claim the items in order,
/// and returns the results in item order. The calling thread is one of
/// the workers: with one worker no thread is spawned. A panic in
/// `work` re-raises on the calling thread with its own payload once
/// every worker has stopped.
pub fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    work: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let workers = resolve_threads(threads).min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    let run = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("work queue lock").next();
            let Some((i, item)) = next else { return done };
            done.push((i, work(item)));
        }
    };
    let mut done = if workers > 1 {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(run)).collect();
            let mut done = run();
            for worker in spawned {
                done.extend(worker.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            done
        })
    } else {
        run()
    };
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, panic_any};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn results_come_back_in_item_order() {
        for threads in [1, 2, 8] {
            for len in [0, 1, 3, 100] {
                let items: Vec<usize> = (0..len).collect();
                let squares = par_map(items, threads, |i| i * i);
                let expected: Vec<usize> = (0..len).map(|i| i * i).collect();
                assert_eq!(squares, expected, "threads = {threads}, len = {len}");
            }
        }
    }

    #[test]
    fn one_thread_runs_every_item_on_the_caller() {
        let caller = thread::current().id();
        let ran_on = par_map((0..16).collect(), 1, |_: usize| thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[derive(Debug, PartialEq)]
    struct Payload(usize);

    #[test]
    fn a_panicking_item_reraises_its_own_payload() {
        // On the caller: one thread.
        let caught = catch_unwind(|| {
            par_map((0..4).collect(), 1, |i: usize| {
                if i == 2 {
                    panic_any(Payload(i));
                }
            })
        })
        .expect_err("the panic propagates");
        assert_eq!(caught.downcast_ref(), Some(&Payload(2)));

        // On a spawned worker: each of the two workers holds one item
        // at the barrier, so exactly one item runs off the caller.
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let caught = catch_unwind(|| {
            par_map((0..2).collect(), 2, |i: usize| {
                barrier.wait();
                if thread::current().id() != caller {
                    panic_any(Payload(i));
                }
            })
        })
        .expect_err("the panic propagates");
        assert!(matches!(caught.downcast_ref(), Some(Payload(0 | 1))));
    }
}
