//! End-to-end measurement: the release CLI, spawned one invocation at a
//! time (a closed loop with one client), timed from spawn to exit, with
//! its CPU time read from `wait4`'s resource usage, its peak RSS from
//! `/proc`, and its time calibrated for the machine's steal and current
//! speed ([`crate::calibrate`]).

use crate::calibrate::{calibrated, probe, steal_per_cpu_s};
use crate::stats::median;
use crate::workload::Workload;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Set-up invocations (the smallest form of the command, timed for
/// `setup_s`) per one-thread round: at most [`SETUP_PER_ROUND`], and no
/// more once a round's have taken [`SETUP_ROUND_BUDGET`]. A run then
/// times 12 or more of the millisecond ones and one per round of the
/// service's 200 ms one.
const SETUP_PER_ROUND: usize = 4;
const SETUP_ROUND_BUDGET: Duration = Duration::from_millis(50);

/// Probes taken on each side of an invocation of `wall` seconds: one
/// per half second, from 1 to 8. One probe (about 40 ms) measures the
/// machine's speed over its own few milliseconds, and that speed
/// swings by ±30% from one probe to the next; a long invocation
/// averages those swings out, so it needs the median of several
/// probes, or calibrating it adds more noise than it removes.
fn probes_around(wall: f64) -> usize {
    ((wall / 0.5).ceil() as usize).clamp(1, 8)
}

/// An invocation still running after this long is killed and counted
/// as failed.
const INVOCATION_TIMEOUT: Duration = Duration::from_secs(60);

/// How often a running invocation's peak RSS is read. The first read
/// comes one period after the spawn, when the child has long since
/// replaced the harness's memory image with its own.
const RSS_POLL: Duration = Duration::from_millis(5);

/// The minimal `extern "C"` surface for reaping a child with its
/// resource usage (the standard library exposes only the exit status).
mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub rest: [i64; 14],
    }

    pub const P_PID: u32 = 1;
    pub const WEXITED: i32 = 4;
    pub const WNOWAIT: i32 = 0x0100_0000;
    pub const SIGKILL: i32 = 9;

    extern "C" {
        pub fn waitid(idtype: u32, id: u32, info: *mut [u64; 16], options: i32) -> i32;
        pub fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }
}

/// One finished CLI invocation.
pub struct Outcome {
    /// Spawn to exit.
    pub wall: Duration,
    /// Exit code; `None` when a signal ended the process.
    pub exit: Option<i32>,
    /// User plus system CPU time of the process and the children it
    /// reaped.
    pub cpu: Duration,
    /// Seconds per vCPU the machine lost to steal meanwhile.
    pub steal: f64,
    /// Peak resident set of the process itself (`VmHWM`), in KiB; 0 when
    /// it exited before the first read. `wait4`'s `ru_maxrss` is not
    /// used: a child spawned with vfork semantics inherits its parent's
    /// peak at exec.
    pub max_rss_kib: u64,
    /// Everything the process wrote to standard output.
    pub stdout: String,
}

/// Runs `cli args` to completion with standard output captured in a
/// file under `dir`.
pub fn invoke(cli: &Path, args: &[String], dir: &Path) -> Result<Outcome, String> {
    let out_path = dir.join("stdout");
    let stdout = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let steal_before = steal_per_cpu_s();
    let start = Instant::now();
    let child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
    let pid = child.id();
    // The watchdog reads the child's peak RSS while it runs and kills
    // it at the timeout. It may only touch `pid` while the child is
    // unreaped: the child is waited for without reaping first, `done`
    // is set under the lock, and only then is it reaped.
    let done = Arc::new((Mutex::new(false), Condvar::new()));
    let watchdog = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let (lock, cvar) = &*done;
            let status = format!("/proc/{pid}/status");
            let deadline = Instant::now() + INVOCATION_TIMEOUT;
            let mut peak_kib = 0;
            let mut finished = lock.lock().expect("watchdog lock");
            while !*finished {
                let now = Instant::now();
                if now >= deadline {
                    // SAFETY: `pid` is our unreaped child (reaping waits
                    // for `done`, which is still false under this lock),
                    // so the id cannot have been reused.
                    unsafe { ffi::kill(pid as i32, ffi::SIGKILL) };
                    break;
                }
                finished = cvar
                    .wait_timeout(finished, RSS_POLL.min(deadline - now))
                    .expect("watchdog lock")
                    .0;
                if !*finished {
                    peak_kib = peak_kib.max(vm_hwm_kib(&status));
                }
            }
            peak_kib
        })
    };
    let mut info = [0u64; 16];
    loop {
        // SAFETY: `info` is a writable 128-byte `siginfo_t` buffer.
        let rc = unsafe { ffi::waitid(ffi::P_PID, pid, &mut info, ffi::WEXITED | ffi::WNOWAIT) };
        if rc == 0 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("waitid: {err}"));
        }
    }
    let wall = start.elapsed();
    let steal = steal_per_cpu_s() - steal_before;
    {
        let (lock, cvar) = &*done;
        *lock.lock().expect("watchdog lock") = true;
        cvar.notify_one();
    }
    let max_rss_kib = watchdog
        .join()
        .map_err(|_| "watchdog panicked".to_string())?;
    let mut status = 0i32;
    let mut usage = ffi::Rusage::default();
    // SAFETY: `pid` is our exited, unreaped child; both out-pointers
    // point at live, correctly laid out values.
    if unsafe { ffi::wait4(pid as i32, &mut status, 0, &mut usage) } != pid as i32 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    drop(child);
    let exit = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let stdout =
        std::fs::read_to_string(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let seconds = |t: &ffi::Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
    Ok(Outcome {
        wall,
        exit,
        cpu: seconds(&usage.utime) + seconds(&usage.stime),
        steal,
        max_rss_kib,
        stdout,
    })
}

/// The `VmHWM` line of a `/proc/PID/status` file, in KiB; 0 when the
/// process is gone or has no memory image (a zombie).
fn vm_hwm_kib(status: &str) -> u64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// What one end-to-end run measured.
pub struct Measured {
    /// Invocations made (set-up, reference, warm-up and timed).
    pub attempted: usize,
    /// Invocations that exited wrongly, timed out, or failed a gate.
    pub failed: usize,
    /// `(name, value, unit)` of every end-to-end metric.
    pub metrics: Vec<(String, f64, String)>,
}

/// Removes what one invocation leaves in `dir`, so the next starts from
/// a fresh state directory and corpus.
fn clear(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir.join("state"));
    let _ = std::fs::remove_dir_all(dir.join("corpus"));
    let _ = std::fs::remove_file(dir.join("service.json"));
}

/// One timed invocation.
struct Timed {
    threads: usize,
    /// Work items per wall second.
    raw_rate: f64,
    /// Work items per calibrated second.
    rate: f64,
    rss_kib: f64,
    /// Mean probe time around the invocation.
    probe_s: f64,
}

/// Samples one end-to-end run collects.
#[derive(Default)]
struct Samples {
    attempted: usize,
    /// (wall, calibrated) seconds of each set-up invocation.
    setup: Vec<(f64, f64)>,
    timed: Vec<Timed>,
}

/// Measures workload `w` for `seconds`: one untimed warm-up, then timed
/// invocations alternating one and two threads (workers, for the
/// service) until the time is spent, with set-up invocations before
/// each one-thread invocation. The first invocation that fails ends
/// the run.
pub fn measure(w: Workload, seed: u64, seconds: f64, cli: &Path, dir: &Path) -> Measured {
    let mut s = Samples::default();
    let outcome = collect(w, seed, seconds, cli, dir, &mut s);
    clear(dir);
    let failed = match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            1
        }
    };
    let med = |values: Vec<f64>| {
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let at = |threads: usize, field: fn(&Timed) -> f64| {
        med(s
            .timed
            .iter()
            .filter(|r| r.threads == threads)
            .map(field)
            .collect())
    };
    let metric = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
    let metrics = vec![
        metric("items_per_s_t1", at(1, |r| r.rate), "1/s"),
        metric("items_per_s_t2", at(2, |r| r.rate), "1/s"),
        metric("setup_s", med(s.setup.iter().map(|r| r.1).collect()), "s"),
        // At one thread the CLI allocates in the same order every time,
        // so its peak repeats (the explorers' to 0.1%); at two, the order
        // in which the threads' allocator arenas fill and free varies,
        // and so does the peak, by up to 10% between runs.
        metric("peak_rss_mb", at(1, |r| r.rss_kib) / 1024.0, "MiB"),
        metric("raw.items_per_s_t1", at(1, |r| r.raw_rate), "1/s"),
        metric("raw.items_per_s_t2", at(2, |r| r.raw_rate), "1/s"),
        metric(
            "raw.setup_s",
            med(s.setup.iter().map(|r| r.0).collect()),
            "s",
        ),
        metric("probe.ms_t1", at(1, |r| r.probe_s) * 1e3, "ms"),
        metric("probe.ms_t2", at(2, |r| r.probe_s) * 1e3, "ms"),
    ];
    Measured {
        attempted: s.attempted,
        failed,
        metrics,
    }
}

/// One round of set-up invocations: up to [`SETUP_PER_ROUND`], stopping
/// once they have taken [`SETUP_ROUND_BUDGET`]. Returns their (wall,
/// CPU) seconds.
fn setup_round(
    w: Workload,
    seed: u64,
    cli: &Path,
    dir: &Path,
    attempted: &mut usize,
) -> Result<Vec<(f64, f64)>, String> {
    let started = Instant::now();
    let mut round = Vec::with_capacity(SETUP_PER_ROUND);
    while round.len() < SETUP_PER_ROUND && started.elapsed() < SETUP_ROUND_BUDGET {
        clear(dir);
        *attempted += 1;
        let out = invoke(cli, &w.setup_command(seed, dir), dir)?;
        if out.exit != Some(0) {
            return Err(format!("set-up invocation exited with {:?}", out.exit));
        }
        round.push((out.wall.as_secs_f64(), out.cpu.as_secs_f64()));
    }
    Ok(round)
}

fn collect(
    w: Workload,
    seed: u64,
    seconds: f64,
    cli: &Path,
    dir: &Path,
    s: &mut Samples,
) -> Result<(), String> {
    // The bytes every timed invocation must reproduce: the service's
    // single-process reference, else the warm-up's own gated output.
    let mut reference: Option<String> = None;
    if let Some(args) = w.reference_command(seed, dir) {
        s.attempted += 1;
        let out = invoke(cli, &args, dir)?;
        if out.exit != Some(0) {
            return Err(format!("reference campaign exited with {:?}", out.exit));
        }
        let path = dir.join("reference.json");
        reference =
            Some(std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }

    let start = Instant::now();
    // Invocation 0 is the warm-up; then whole (1 thread, 2 threads)
    // pairs until the time is spent. Every one-thread round, the
    // warm-up's too, also runs set-up invocations: calibrated by the
    // same probes as the timed invocation, they sample the machine over
    // the whole run, not at one moment of it.
    let mut k = 0usize;
    let mut last_wall = 0.0;
    while k < 3 || k.is_multiple_of(2) || start.elapsed().as_secs_f64() < seconds {
        let threads = if k > 0 && k.is_multiple_of(2) { 2 } else { 1 };
        let mut probes: Vec<f64> = (0..probes_around(last_wall))
            .map(|_| probe(threads))
            .collect();
        let setups = if threads == 1 {
            setup_round(w, seed, cli, dir, &mut s.attempted)?
        } else {
            Vec::new()
        };
        clear(dir);
        s.attempted += 1;
        let out = invoke(cli, &w.command(seed, threads, dir), dir)?;
        let wall = out.wall.as_secs_f64();
        last_wall = wall;
        probes.extend((0..probes_around(wall)).map(|_| probe(threads)));
        let probe_s = median(&probes);
        // `/proc/stat` counts steal in 10 ms ticks, several times one
        // set-up invocation, so they take the timed invocation's rate.
        let steal_per_s = out.steal / wall;
        for (setup_wall, setup_cpu) in setups {
            // A set-up invocation does no search worth the name, so it
            // is rescaled in full whatever the workload's sensitivity.
            let cal = calibrated(
                setup_wall,
                setup_cpu,
                1,
                steal_per_s * setup_wall,
                probe_s,
                1.0,
            );
            s.setup.push((setup_wall, cal));
        }
        let (bytes, items) = w.gate(out.exit, &out.stdout, dir)?;
        match &reference {
            Some(want) if *want != bytes => {
                return Err(format!(
                    "report at {threads} thread(s) differs from the reference"
                ));
            }
            Some(_) => {}
            None => reference = Some(bytes),
        }
        if k > 0 {
            let cal = calibrated(
                wall,
                out.cpu.as_secs_f64(),
                threads,
                out.steal,
                probe_s,
                w.sensitivity(),
            );
            s.timed.push(Timed {
                threads,
                raw_rate: items as f64 / wall,
                rate: items as f64 / cal,
                rss_kib: out.max_rss_kib as f64,
                probe_s,
            });
        }
        k += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invoke_reports_exit_code_output_and_peak_rss() {
        let dir = crate::work_root().join(format!("invoke-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let args = ["-c", "echo hello; sleep 0.05; exit 3"].map(String::from);
        let out = invoke(Path::new("/bin/sh"), &args, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let out = out.unwrap();
        assert_eq!(out.exit, Some(3));
        assert_eq!(out.stdout, "hello\n");
        assert!(out.max_rss_kib > 0, "no peak RSS read while it ran");
        assert!(out.wall >= Duration::from_millis(50));
    }
}
