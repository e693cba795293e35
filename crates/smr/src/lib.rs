//! `rsim-smr`: the asynchronous shared-memory runtime underlying the
//! Revisionist Simulations reproduction.
//!
//! This crate models the system of paper §2 ("Preliminaries"):
//!
//! * [`value`] — the dynamic value domain (⊥, integers, exact dyadic
//!   rationals, pairs, tuples).
//! * [`object`] — base objects (registers, m-component snapshots,
//!   max-registers, fetch&increment, swap, CAS) with their sequential
//!   specifications.
//! * [`process`] — deterministic process state machines; the
//!   Assumption 1 protocol shape ([`process::SnapshotProtocol`]) and its
//!   adapter; local solo simulation used by covering simulators.
//! * [`system`] — configurations, atomic steps, executions, traces,
//!   single-writer restrictions, indistinguishability.
//! * [`sched`] — adversarial schedulers (round-robin, random, solo,
//!   fixed, x-obstruction, crash).
//! * [`explore`] — bounded exhaustive model checking: all interleavings
//!   of small systems, solo/group termination checks, all on one
//!   deterministic breadth-first frontier engine.
//! * [`fault`] — deterministic fault injection: precisely placed
//!   crashes, stall windows, and trace-keyed triggers composable with
//!   any scheduler via [`fault::FaultScheduler`].
//! * [`shrink`] — ddmin counterexample minimisation over the joint
//!   (decision sequence, fault plan) space, preserving the violation
//!   fingerprint.
//! * [`bundle`] — portable replay bundles: self-contained JSON
//!   counterexample artifacts the `replay` CLI subcommand re-executes
//!   and verifies bit-for-bit.
//! * [`json`] — minimal JSON reader (the workspace has no serde) used
//!   by campaign checkpoints and replay bundles, plus the atomic
//!   tmp+rename writer every JSON artifact goes through.
//! * [`fingerprint`] — the sharded configuration-fingerprint cache used
//!   by the parallel explorer and campaign runner.
//! * [`campaign`] — seeded randomised campaign runner: many runs across
//!   protocol families and scheduler mixes, fanned over cores, each run
//!   replayable from its recorded seed.
//! * [`service`] — the crash-tolerant multi-process campaign service:
//!   a journaled crash-safe job queue, leased work units executed by
//!   worker processes with heartbeats/retry/quarantine, a
//!   determinism-preserving merge layer, and built-in chaos injection
//!   (worker SIGKILL, torn journal writes).
//! * [`history`] / [`linearizability`] — operation histories and a
//!   Wing–Gong linearizability checker for implemented objects.
//! * [`trace`] — per-process column diagrams and summaries of
//!   executions.
//! * [`analyze`] — the pre-flight protocol analyzer: a static linter
//!   over protocol footprints (single-writer discipline, ABA-freedom,
//!   Theorem 21 feasibility, dead steps, yield handling) and a
//!   happens-before trace checker, with stable `RS-Wxxx` lint codes
//!   and `--deny`/`--warn`/`--allow` severity configuration.
//! * [`hb`] — the happens-before runtime core: vector clocks, the
//!   exact step-commutation (independence) oracle over the object zoo,
//!   and the incremental per-execution summary shared by the analyzer's
//!   trace checker and the explorer's partial-order reduction.
//! * [`gen`] — seeded, byte-deterministic protocol generation over a
//!   small grammar, paper-aware mutation operators tagged with
//!   predicted verdicts, and the fuzz harness closing the analyze →
//!   explore → shrink → bundle loop.
//!
//! # Example: run two processes under an adversarial scheduler
//!
//! ```
//! use rsim_smr::object::{Object, ObjectId};
//! use rsim_smr::process::{Process, ProtocolStep, SnapshotProcess, SnapshotProtocol};
//! use rsim_smr::sched::Random;
//! use rsim_smr::system::System;
//! use rsim_smr::value::Value;
//!
//! #[derive(Clone, Debug)]
//! struct WriteOnce { input: i64, wrote: bool }
//!
//! impl SnapshotProtocol for WriteOnce {
//!     fn on_scan(&mut self, view: &[Value]) -> ProtocolStep {
//!         if self.wrote { ProtocolStep::Output(view[0].clone()) }
//!         else { self.wrote = true; ProtocolStep::Update(0, Value::Int(self.input)) }
//!     }
//!     fn components(&self) -> usize { 1 }
//! }
//!
//! # fn main() -> Result<(), rsim_smr::error::ModelError> {
//! let mk = |input| Box::new(SnapshotProcess::new(
//!     WriteOnce { input, wrote: false }, ObjectId(0))) as Box<dyn Process>;
//! let mut sys = System::new(vec![Object::snapshot(1)], vec![mk(1), mk(2)]);
//! sys.run(&mut Random::seeded(1), 1_000)?;
//! assert!(sys.all_terminated());
//! # Ok(())
//! # }
//! ```

pub mod analyze;
pub mod bundle;
pub mod campaign;
pub mod error;
pub mod explore;
pub mod fault;
pub mod fingerprint;
pub mod gen;
pub mod hb;
pub mod json;
pub mod history;
pub mod linearizability;
pub mod object;
pub mod process;
pub mod sched;
pub mod service;
pub mod shrink;
pub mod system;
pub mod trace;
pub mod value;

pub use error::ModelError;
pub use object::{Object, ObjectId, Operation, Response};
pub use process::{Poised, Process, ProcessId, ProtocolStep, SnapshotProcess, SnapshotProtocol};
pub use system::{Event, System};
pub use value::{Dyadic, Value};
