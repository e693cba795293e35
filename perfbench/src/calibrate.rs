//! Machine-speed calibration for a shared machine.
//!
//! On a shared 2-vCPU machine one invocation's wall time swings by
//! 20–50% over minutes, for two reasons that need different fixes:
//!
//! - *Steal*: the hypervisor runs someone else on our vCPU. The process
//!   is not running, its CPU time does not grow, but its wall time
//!   does. The kernel counts steal per machine in `/proc/stat`; it is
//!   read before and after each invocation and taken out of its wall
//!   time in proportion to how busy the process kept a vCPU.
//! - *Contention*: the vCPU runs, but slower, because other tenants
//!   share its core, caches and memory. A fixed probe (hashing into a
//!   map of growing vectors and many small allocations, about 25 MiB
//!   in all, code that lives in this benchmark and does not change
//!   with the program) is timed by its own thread CPU clock, which
//!   excludes steal, right before and right after each invocation; the
//!   invocation's CPU-busy time is rescaled to the probe's reference
//!   speed. A workload that waits on memory more than the probe does
//!   slows less than the probe, and is rescaled by a power of the
//!   probe's ratio ([`crate::workload::Workload::sensitivity`]).
//!
//! Time spent waiting, such as the service's heartbeat sleeps, is
//! neither removed nor rescaled.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The probe's CPU time on one and on two threads at once on the
/// baseline machine (see the README) when it was quiet: the speed
/// calibrated times are expressed at.
const REFERENCE_S: [f64; 2] = [0.0285, 0.0332];

mod ffi {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    pub const SC_CLK_TCK: i32 = 2;

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }
}

/// CPU time the calling thread has used, in seconds.
fn thread_cpu_s() -> f64 {
    let mut ts = ffi::Timespec::default();
    // SAFETY: `ts` is a live, correctly laid out `timespec`.
    let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Steal time so far, in seconds per vCPU: the machine-wide `steal`
/// column of `/proc/stat` over the number of vCPUs it lists. 0 where
/// the file or the column is missing.
pub fn steal_per_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let mut lines = stat.lines();
    let steal_ticks: f64 = lines
        .next()
        .and_then(|total| total.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0.0);
    let cpus = lines.take_while(|l| l.starts_with("cpu")).count().max(1);
    // SAFETY: `sysconf` only reads a configuration value.
    let ticks_per_s = unsafe { ffi::sysconf(ffi::SC_CLK_TCK) }.max(1);
    steal_ticks / ticks_per_s as f64 / cpus as f64
}

fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// One probe on the calling thread, a fixed piece of work whose CPU
/// time tracks how fast the machine runs; returns its CPU seconds.
fn probe_once() -> f64 {
    let start = thread_cpu_s();
    let mut acc = 0u64;
    // Hashing into growing per-key vectors.
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..150_000u64 {
        map.entry(mix(i) % 110_000).or_default().push(i);
    }
    for (k, v) in &map {
        acc ^= k ^ v.len() as u64;
    }
    drop(map);
    // Many small fresh allocations, read back and freed, as a search
    // that forks configurations does.
    let boxes: Vec<Box<[u64; 32]>> = (0..80_000u64).map(|i| Box::new([mix(i); 32])).collect();
    for i in (0..boxes.len()).step_by(7) {
        acc ^= boxes[mix(i as u64) as usize % boxes.len()][3];
    }
    drop(boxes);
    std::hint::black_box(acc);
    thread_cpu_s() - start
}

/// Runs the probe on `threads` (1 or 2) threads at once; returns the
/// mean CPU seconds per thread.
pub fn probe(threads: usize) -> f64 {
    if threads == 1 {
        return probe_once();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(probe_once)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

/// `wall` seconds of an invocation on `threads` threads that used `cpu`
/// CPU seconds while the machine lost `steal` seconds per vCPU, at a
/// moment when the probe took `probe_s`: the steal that delayed it is
/// removed, and its CPU-busy share (the CPU time per thread, at most
/// the wall time) is rescaled to the reference speed by the probe's
/// speed ratio raised to `sensitivity`, how strongly the workload's
/// busy time follows the probe's (1: in proportion).
pub fn calibrated(
    wall: f64,
    cpu: f64,
    threads: usize,
    steal: f64,
    probe_s: f64,
    sensitivity: f64,
) -> f64 {
    let busy = (cpu / threads as f64).min(wall);
    // Steal only delays a process while it wants a vCPU: a process
    // that ran `cpu` of the `wall - steal` seconds it could have run
    // loses that share of the steal.
    let wanted = (cpu / (wall - steal).max(f64::MIN_POSITIVE)).min(1.0);
    let waited = (wall - steal * wanted - busy).max(0.0);
    waited + busy * (REFERENCE_S[threads - 1] / probe_s).powf(sensitivity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_busy_time_is_rescaled() {
        // A fully busy run while the machine runs at half speed.
        let slow = 2.0 * REFERENCE_S[0];
        assert!((calibrated(2.0, 2.0, 1, 0.0, slow, 1.0) - 1.0).abs() < 1e-12);
        // Two threads each busy the whole time.
        let slow = 2.0 * REFERENCE_S[1];
        assert!((calibrated(2.0, 4.0, 2, 0.0, slow, 1.0) - 1.0).abs() < 1e-12);
        // A run that mostly waits keeps its waiting time.
        let slow = 2.0 * REFERENCE_S[0];
        assert!((calibrated(1.0, 0.2, 1, 0.0, slow, 1.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn sensitivity_scales_the_correction() {
        // A probe 4x slower than the reference, followed at a half:
        // busy time is rescaled by 4^-0.5.
        let slow = 4.0 * REFERENCE_S[0];
        assert!((calibrated(2.0, 2.0, 1, 0.0, slow, 0.5) - 1.0).abs() < 1e-12);
        // Not followed at all: only steal and waiting are handled.
        assert!((calibrated(2.0, 2.0, 1, 0.0, slow, 0.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn steal_is_removed_in_proportion_to_busy_time() {
        let at_reference = REFERENCE_S[0];
        // Busy for 2 s of a 2.5 s wall time that lost 0.5 s to steal.
        assert!((calibrated(2.5, 2.0, 1, 0.5, at_reference, 1.0) - 2.0).abs() < 1e-12);
        // A process that ran a fifth of the 1 s it could have run loses
        // a fifth of the steal: 1.5 s wall, 0.2 s busy, 0.5 s stolen.
        assert!((calibrated(1.5, 0.2, 1, 0.5, at_reference, 1.0) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn clocks_read_plausible_values() {
        let cpu = probe(1);
        assert!(cpu > 0.0 && cpu < 10.0, "probe CPU time {cpu}");
        assert!(steal_per_cpu_s() >= 0.0);
    }
}
