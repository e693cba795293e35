//! Shadow drivers: in-process re-implementations of each workload's
//! top-level call that reach every layer through the crates' public
//! functions and time it from outside ([`crate::layers::Tracer`]).
//!
//! A shadow is only worth its numbers if it does the work the real call
//! does, so every shadow returns the report the real call would have
//! returned, and the callers compare the two byte for byte
//! ([`Shadowed::check`]). A change to the explorer, the campaign runner,
//! the service or the fuzzer that the shadow does not follow fails that
//! comparison (and the crate's tests) instead of silently timing
//! something else.

pub mod campaign;
pub mod explore;
pub mod fuzz;
pub mod service;

use crate::layers::Tracer;
use rsim_smr::system::System;
use rsim_smr::value::Value;
use rsim_tasks::agreement::consensus;
use rsim_tasks::task::ColorlessTask;
use std::time::{Duration, Instant};

/// The outcome of one real call and its shadow.
pub struct Shadowed {
    /// Untraced wall time of the real call.
    pub real_wall: Duration,
    /// Wall time of the shadow, tracing included.
    pub shadow_wall: Duration,
    /// The real call's report, rendered.
    pub real: String,
    /// The shadow's report, rendered the same way.
    pub shadow: String,
}

impl Shadowed {
    /// Times `real` untraced, then `shadow` under `t`.
    pub fn measure(
        real: impl FnOnce() -> Result<String, String>,
        shadow: impl FnOnce(&mut Tracer) -> Result<String, String>,
        t: &mut Tracer,
    ) -> Result<Shadowed, String> {
        settle_heap();
        let start = Instant::now();
        let real = real()?;
        let real_wall = start.elapsed();
        settle_heap();
        let start = Instant::now();
        let shadow = shadow(t)?;
        let shadow_wall = start.elapsed();
        Ok(Shadowed {
            real_wall,
            shadow_wall,
            real,
            shadow,
        })
    }

    /// Did the shadow reproduce the real report exactly?
    pub fn check(&self) -> Result<(), String> {
        if self.real == self.shadow {
            return Ok(());
        }
        let line = self
            .real
            .lines()
            .zip(self.shadow.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        Err(format!(
            "shadow report differs from the real report at line {}:\n  real:   {}\n  shadow: {}",
            line + 1,
            self.real.lines().nth(line).unwrap_or(""),
            self.shadow.lines().nth(line).unwrap_or(""),
        ))
    }
}

/// Pays the allocator's debt left by the previous call before the next
/// one is timed. After a call frees a large structure (an explorer's
/// frontier and visited map), glibc defers merging the freed chunks
/// until some later large free; that merge takes 100–200 ms and would
/// land on whichever layer of the next call frees first. A fresh CLI
/// process carries no such debt, so it is paid here, untimed.
pub fn settle_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only reorganises glibc's own free lists
        // and returns unused pages; it takes no pointers.
        unsafe { malloc_trim(0) };
    }
}

/// Process inputs `1..=procs`, as the CLI gives the racing protocol.
pub fn racing_inputs(procs: usize) -> Vec<Value> {
    (1..=procs as i64).map(Value::Int).collect()
}

/// The CLI's `racing` factory: `m` registers, inputs `1..=procs`.
pub fn racing_factory(procs: usize, m: usize) -> impl Fn(u64) -> System + Sync {
    let inputs = racing_inputs(procs);
    move |_seed| rsim_protocols::racing::racing_system(m, &inputs)
}

/// The CLI's `racing` check: terminated runs must solve consensus.
pub fn racing_check(procs: usize) -> impl Fn(&System) -> Option<String> + Sync {
    let inputs = racing_inputs(procs);
    move |sys| {
        if !sys.all_terminated() {
            return None;
        }
        let outs: Vec<Value> = sys.outputs().into_iter().flatten().collect();
        consensus()
            .validate(&inputs, &outs)
            .err()
            .map(|e| e.to_string())
    }
}
