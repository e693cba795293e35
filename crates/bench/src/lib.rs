//! `rsim-bench`: the Criterion benchmark harness.
//!
//! One bench file per experiment (see `EXPERIMENTS.md` at the workspace
//! root):
//!
//! * `e1_augmented` — augmented snapshot operations, contended runs,
//!   the §3.3 spec checker, thread-mode stress.
//! * `e4_simulation` — full simulation runs, σ̄ reconstruction, replay
//!   validation, and the BG baseline comparison.
//! * `e6_kset` — racing/ladder solo decisions, obstruction-adversary
//!   runs, violation search, bound-formula grid.
//! * `e7_approx` — ε sweeps of the midpoint protocol and the
//!   compressed variant.
//! * `e8_solo` — shortest-solo-path search and determinized runs.
//! * `e10_sperner` — subdivisions, Sperner verification, exhaustive
//!   search.
//! * `fault` — E12: fault-injection overhead and the exhaustive
//!   single-crash certification.
//! * `parallel_explore` — parallel explorer scaling across thread
//!   counts and campaign runs per second.
//! * `e14_hotpath` — exploration hot path: fingerprint (against its
//!   FNV-1a floor), fork, 1-thread and parallel throughput,
//!   linearizability memo; writes `BENCH_e14.json`.
//! * `e16_dpor` — partial-order reduction: forks pruned, on/off report
//!   equality, reduced throughput; writes `BENCH_e16.json`.
//!
//! Run with `cargo bench --workspace`; per-bench with
//! `cargo bench -p rsim-bench --bench e4_simulation`.
