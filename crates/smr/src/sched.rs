//! Adversarial schedulers.
//!
//! A scheduler decides which process takes the next step. The paper's
//! progress conditions are quantified over schedulers:
//!
//! * wait-freedom — every process terminates under *every* scheduler;
//! * x-obstruction-freedom — processes terminate under schedulers that
//!   eventually run only a set of ≤ x processes ([`Obstruction`]);
//! * obstruction-freedom — the x = 1 case ([`Solo`] from any point).
//!
//! Schedulers only pick among non-terminated processes; returning `None`
//! ends the run.

use crate::process::ProcessId;
use crate::system::System;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Picks the process to take the next step, or `None` to stop.
pub trait Scheduler {
    /// Chooses the next process given the current configuration.
    fn next(&mut self, system: &System) -> Option<ProcessId>;
}

fn live_processes(system: &System) -> Vec<ProcessId> {
    (0..system.process_count())
        .map(ProcessId)
        .filter(|&p| !system.is_terminated(p))
        .collect()
}

/// Cycles through live processes in index order.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at process 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn next(&mut self, system: &System) -> Option<ProcessId> {
        let n = system.process_count();
        for _ in 0..n {
            let pid = ProcessId(self.cursor % n);
            self.cursor += 1;
            if !system.is_terminated(pid) {
                return Some(pid);
            }
        }
        None
    }
}

/// Uniformly random live process each step (a seedable oblivious
/// adversary).
#[derive(Clone, Debug)]
pub struct Random {
    rng: StdRng,
}

impl Random {
    /// Creates a random scheduler from a seed (runs are reproducible).
    pub fn seeded(seed: u64) -> Self {
        Random { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Scheduler for Random {
    fn next(&mut self, system: &System) -> Option<ProcessId> {
        let live = live_processes(system);
        if live.is_empty() {
            return None;
        }
        Some(live[self.rng.gen_range(0..live.len())])
    }
}

/// Runs a single process only (a solo execution).
#[derive(Clone, Debug)]
pub struct Solo {
    pid: ProcessId,
}

impl Solo {
    /// Creates a scheduler that only ever runs `pid`.
    pub fn new(pid: ProcessId) -> Self {
        Solo { pid }
    }
}

impl Scheduler for Solo {
    fn next(&mut self, system: &System) -> Option<ProcessId> {
        if system.is_terminated(self.pid) {
            None
        } else {
            Some(self.pid)
        }
    }
}

/// Replays a fixed schedule (a sequence of process ids), then stops.
/// Terminated processes are skipped.
#[derive(Clone, Debug)]
pub struct Fixed {
    schedule: Vec<ProcessId>,
    cursor: usize,
}

impl Fixed {
    /// Creates a scheduler that replays `schedule` in order.
    pub fn new(schedule: Vec<ProcessId>) -> Self {
        Fixed { schedule, cursor: 0 }
    }
}

impl Scheduler for Fixed {
    fn next(&mut self, system: &System) -> Option<ProcessId> {
        while self.cursor < self.schedule.len() {
            let pid = self.schedule[self.cursor];
            self.cursor += 1;
            if !system.is_terminated(pid) {
                return Some(pid);
            }
        }
        let _ = system;
        None
    }
}

/// Round-robin with a per-turn quantum: each live process takes
/// `quantum` consecutive steps before the next one runs. Quantum 1 is
/// step-level alternation; quantum 2 is operation-level alternation for
/// scan/update protocols — the distinction that separates protocols
/// that converge under round-robin from those that livelock (see the
/// contrarian protocol).
#[derive(Clone, Debug)]
pub struct Quantum {
    quantum: usize,
    cursor: usize,
    used: usize,
}

impl Quantum {
    /// Creates a quantum-round-robin scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    pub fn new(quantum: usize) -> Self {
        assert!(quantum >= 1);
        Quantum { quantum, cursor: 0, used: 0 }
    }
}

impl Scheduler for Quantum {
    fn next(&mut self, system: &System) -> Option<ProcessId> {
        let n = system.process_count();
        for _ in 0..=n {
            let pid = ProcessId(self.cursor % n);
            if !system.is_terminated(pid) && self.used < self.quantum {
                self.used += 1;
                return Some(pid);
            }
            self.cursor += 1;
            self.used = 0;
        }
        None
    }
}

/// An x-obstruction adversary: interleaves randomly for a while, then
/// repeatedly picks a random set of at most `x` live processes and runs
/// only them for a burst. Under this scheduler, an x-obstruction-free
/// protocol must drive the burst set to termination once bursts are long
/// enough.
#[derive(Clone, Debug)]
pub struct Obstruction {
    rng: StdRng,
    x: usize,
    chaos_steps: usize,
    burst_len: usize,
    current_burst: Vec<ProcessId>,
    burst_remaining: usize,
    step: usize,
}

impl Obstruction {
    /// Creates an x-obstruction adversary.
    ///
    /// * `x` — maximum size of the eventually-isolated set. `0` is
    ///   clamped to `1` (an empty obstruction set could schedule
    ///   nothing; the weakest meaningful adversary runs solo bursts).
    /// * `chaos_steps` — how many fully random steps precede the bursts.
    /// * `burst_len` — how many steps each isolated burst lasts.
    pub fn new(x: usize, chaos_steps: usize, burst_len: usize, seed: u64) -> Self {
        let x = x.max(1);
        Obstruction {
            rng: StdRng::seed_from_u64(seed),
            x,
            chaos_steps,
            burst_len,
            current_burst: Vec::new(),
            burst_remaining: 0,
            step: 0,
        }
    }
}

impl Scheduler for Obstruction {
    fn next(&mut self, system: &System) -> Option<ProcessId> {
        let live = live_processes(system);
        if live.is_empty() {
            return None;
        }
        self.step += 1;
        if self.step <= self.chaos_steps {
            return Some(live[self.rng.gen_range(0..live.len())]);
        }
        // Burst phase: refresh the burst set if exhausted or dead.
        self.current_burst.retain(|p| live.contains(p));
        if self.burst_remaining == 0 || self.current_burst.is_empty() {
            let mut pool = live.clone();
            self.current_burst.clear();
            for _ in 0..self.x.min(pool.len()) {
                let i = self.rng.gen_range(0..pool.len());
                self.current_burst.push(pool.swap_remove(i));
            }
            self.burst_remaining = self.burst_len;
        }
        self.burst_remaining -= 1;
        let i = self.rng.gen_range(0..self.current_burst.len());
        Some(self.current_burst[i])
    }
}

/// A crash adversary: behaves like [`Random`], but permanently stops
/// scheduling up to `max_crashes` processes at random points. Crashed
/// processes simply take no more steps (the paper's crash model).
#[derive(Clone, Debug)]
pub struct Crash {
    rng: StdRng,
    crashed: Vec<ProcessId>,
    /// `(victim, global step at crash)` in crash order — the replay
    /// coordinates of each crash.
    crash_log: Vec<(ProcessId, usize)>,
    max_crashes: usize,
    crash_probability: f64,
}

impl Crash {
    /// Creates a crash adversary that crashes at most `max_crashes`
    /// processes, each step crashing a random live process with
    /// probability `crash_probability`.
    pub fn new(max_crashes: usize, crash_probability: f64, seed: u64) -> Self {
        Crash {
            rng: StdRng::seed_from_u64(seed),
            crashed: Vec::new(),
            crash_log: Vec::new(),
            max_crashes,
            crash_probability,
        }
    }

    /// Processes crashed so far.
    pub fn crashed(&self) -> &[ProcessId] {
        &self.crashed
    }

    /// Each crash as `(victim, global step count at the crash)`, in
    /// crash order. A correct crash model means the victim has no trace
    /// events at or after that index.
    pub fn crash_log(&self) -> &[(ProcessId, usize)] {
        &self.crash_log
    }
}

impl Scheduler for Crash {
    fn next(&mut self, system: &System) -> Option<ProcessId> {
        let live: Vec<ProcessId> = live_processes(system)
            .into_iter()
            .filter(|p| !self.crashed.contains(p))
            .collect();
        if live.is_empty() {
            return None;
        }
        if self.crashed.len() < self.max_crashes
            && live.len() > 1
            && self.rng.gen_bool(self.crash_probability)
        {
            let victim = live[self.rng.gen_range(0..live.len())];
            self.crashed.push(victim);
            self.crash_log.push((victim, system.trace().len()));
            let survivors: Vec<_> =
                live.into_iter().filter(|p| *p != victim).collect();
            return Some(survivors[self.rng.gen_range(0..survivors.len())]);
        }
        Some(live[self.rng.gen_range(0..live.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Object, ObjectId};
    use crate::process::{ProtocolStep, SnapshotProcess, SnapshotProtocol};
    use crate::value::Value;

    /// Terminates after `n` updates.
    #[derive(Clone, Debug)]
    struct Stepper {
        n: usize,
    }

    impl SnapshotProtocol for Stepper {
        fn on_scan(&mut self, _view: &[Value]) -> ProtocolStep {
            if self.n == 0 {
                ProtocolStep::Output(Value::Int(0))
            } else {
                self.n -= 1;
                ProtocolStep::Update(0, Value::Int(self.n as i64))
            }
        }
        fn components(&self) -> usize {
            1
        }
    }

    fn system(n_procs: usize, steps: usize) -> System {
        let procs = (0..n_procs)
            .map(|_| {
                Box::new(SnapshotProcess::new(Stepper { n: steps }, ObjectId(0)))
                    as Box<dyn crate::process::Process>
            })
            .collect();
        System::new(vec![Object::snapshot(1)], procs)
    }

    #[test]
    fn round_robin_completes() {
        let mut sys = system(3, 4);
        sys.run(&mut RoundRobin::new(), 10_000).unwrap();
        assert!(sys.all_terminated());
    }

    #[test]
    fn random_is_reproducible() {
        let mut a = system(3, 4);
        let mut b = system(3, 4);
        a.run(&mut Random::seeded(42), 10_000).unwrap();
        b.run(&mut Random::seeded(42), 10_000).unwrap();
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn solo_runs_one_process() {
        let mut sys = system(3, 4);
        sys.run(&mut Solo::new(ProcessId(1)), 10_000).unwrap();
        assert!(sys.is_terminated(ProcessId(1)));
        assert!(!sys.is_terminated(ProcessId(0)));
        assert!(sys.trace().iter().all(|e| e.pid == ProcessId(1)));
    }

    #[test]
    fn fixed_replays_schedule() {
        let mut sys = system(2, 4);
        let schedule = vec![ProcessId(0), ProcessId(0), ProcessId(1)];
        sys.run(&mut Fixed::new(schedule.clone()), 10_000).unwrap();
        let pids: Vec<ProcessId> = sys.trace().iter().map(|e| e.pid).collect();
        assert_eq!(pids, schedule);
    }

    #[test]
    fn quantum_scheduler_gives_consecutive_steps() {
        let mut sys = system(2, 3);
        sys.run(&mut Quantum::new(2), 10_000).unwrap();
        assert!(sys.all_terminated());
        // Steps come in runs of 2 per process (except terminal tails).
        let pids: Vec<usize> = sys.trace().iter().map(|e| e.pid.0).collect();
        let mut i = 0;
        while i + 1 < pids.len() {
            if pids[i] == pids[i + 1] {
                i += 2;
            } else {
                // A run of length 1 only happens when the process
                // terminated mid-quantum.
                i += 1;
            }
        }
    }

    #[test]
    fn quantum_one_equals_round_robin() {
        let mut a = system(3, 4);
        let mut b = system(3, 4);
        a.run(&mut Quantum::new(1), 10_000).unwrap();
        b.run(&mut RoundRobin::new(), 10_000).unwrap();
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn obstruction_eventually_isolates() {
        let mut sys = system(4, 3);
        let mut sched = Obstruction::new(2, 10, 50, 7);
        sys.run(&mut sched, 100_000).unwrap();
        assert!(sys.all_terminated());
    }

    #[test]
    fn quantum_larger_than_run_finishes_each_process_in_turn() {
        // Quantum far above any process's total step count degenerates
        // to run-to-completion, one process at a time, no panic.
        let mut sys = system(3, 2);
        sys.run(&mut Quantum::new(1_000_000), 10_000).unwrap();
        assert!(sys.all_terminated());
        let pids: Vec<usize> = sys.trace().iter().map(|e| e.pid.0).collect();
        // Each process's steps form one contiguous block.
        let mut blocks = vec![pids[0]];
        for w in pids.windows(2) {
            if w[1] != w[0] {
                blocks.push(w[1]);
            }
        }
        assert_eq!(blocks, vec![0, 1, 2]);
    }

    #[test]
    fn obstruction_with_x_zero_clamps_to_solo_bursts() {
        // x = 0 would mean an empty isolated set; it is clamped to 1
        // instead of panicking, and the schedule still terminates the
        // system.
        let mut sys = system(3, 3);
        let mut sched = Obstruction::new(0, 5, 50, 11);
        sys.run(&mut sched, 100_000).unwrap();
        assert!(sys.all_terminated());
    }

    #[test]
    fn obstruction_single_process_system() {
        // One process: chaos and bursts must both keep picking it.
        let mut sys = system(1, 4);
        let mut sched = Obstruction::new(2, 3, 10, 5);
        sys.run(&mut sched, 10_000).unwrap();
        assert!(sys.all_terminated());
    }

    #[test]
    fn crash_with_zero_budget_never_crashes() {
        // max_crashes = 0 even with crash probability 1: the adversary
        // is just a random scheduler and every process finishes.
        let mut sys = system(4, 3);
        let mut sched = Crash::new(0, 1.0, 9);
        sys.run(&mut sched, 100_000).unwrap();
        assert!(sys.all_terminated());
        assert!(sched.crashed().is_empty());
    }

    #[test]
    fn crash_adversary_still_lets_survivors_finish() {
        let mut sys = system(3, 4);
        let mut sched = Crash::new(1, 0.1, 3);
        sys.run(&mut sched, 100_000).unwrap();
        let done = (0..3)
            .filter(|&i| sys.is_terminated(ProcessId(i)))
            .count();
        assert!(done >= 2, "at most one process may be crashed");
    }

    #[test]
    fn crashed_processes_never_step_again() {
        // Run many seeds; for every crash recorded in the crash log, the
        // victim must have no trace events at or after the crash point —
        // the crash-stopped model of paper §2.
        let mut crashes_seen = 0;
        for seed in 0..32 {
            let mut sys = system(4, 5);
            let mut sched = Crash::new(2, 0.2, seed);
            sys.run(&mut sched, 100_000).unwrap();
            for &(victim, at) in sched.crash_log() {
                crashes_seen += 1;
                let late = sys
                    .trace()
                    .events_from(at)
                    .filter(|e| e.pid == victim)
                    .count();
                assert_eq!(
                    late, 0,
                    "seed {seed}: {victim:?} stepped after crashing at {at}"
                );
            }
        }
        assert!(crashes_seen > 0, "the sweep never exercised a crash");
    }

    #[test]
    fn crash_budget_is_respected() {
        for seed in 0..16 {
            let mut sys = system(5, 4);
            let mut sched = Crash::new(2, 1.0, seed);
            sys.run(&mut sched, 100_000).unwrap();
            assert!(sched.crashed().len() <= 2, "seed {seed} exceeded budget");
            assert_eq!(sched.crashed().len(), sched.crash_log().len());
            // Even a maximally aggressive adversary leaves survivors
            // running: every non-crashed process terminates.
            for i in 0..5 {
                let p = ProcessId(i);
                if !sched.crashed().contains(&p) {
                    assert!(sys.is_terminated(p), "seed {seed}: survivor {p:?} stuck");
                }
            }
        }
    }

    #[test]
    fn crash_set_is_a_deterministic_function_of_the_seed() {
        let run = |seed: u64| {
            let mut sys = system(4, 5);
            let mut sched = Crash::new(2, 0.3, seed);
            sys.run(&mut sched, 100_000).unwrap();
            (sched.crash_log().to_vec(), sys.trace().to_vec())
        };
        for seed in [0, 1, 7, 42] {
            let (log_a, trace_a) = run(seed);
            let (log_b, trace_b) = run(seed);
            assert_eq!(log_a, log_b, "crash log differs for seed {seed}");
            assert_eq!(trace_a, trace_b, "trace differs for seed {seed}");
        }
    }
}
