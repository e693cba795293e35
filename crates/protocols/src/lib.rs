//! `rsim-protocols`: the concrete protocols Π fed to the revisionist
//! simulation, plus their correctness/brokenness test harnesses.
//!
//! * [`racing`] — phased-racing k-set agreement (the \[16\]/\[47\]-style
//!   family): obstruction-free for every component count `m`; solves
//!   k-set agreement when `m ≥ n − k + 1`; observably broken when `m`
//!   is below the paper's lower bound.
//! * [`approx`] — wait-free round-based midpoint ε-approximate
//!   agreement (the \[9\]-style n-component upper bound), plus a
//!   compressed `m < n` variant used as the under-provisioned Π̃ in the
//!   Theorem 21(1)/Corollary 34 experiments.
//! * [`ladder`] — a provably correct obstruction-free consensus from a
//!   ladder of adopt-commit objects (more registers, easy safety
//!   proof); the reference against which the space-optimal racing
//!   family's fragility is documented.
//! * [`contrarian`] — obstruction-free but *not* 2-obstruction-free:
//!   the hypothesis-violating Π for the x-obstruction-free case
//!   (Lemma 32 needs Π to be x-OF for the direct simulators to
//!   terminate).
//! * [`generated`] — named fixtures from the seeded `gen:` family of
//!   `rsim-smr`: generated bases racing strictly above the bound and
//!   their paper-aware mutants, bridging the hand-written families and
//!   the fuzz harness.
//! * [`iis`] — iterated immediate snapshot (the Borowsky–Gafni level
//!   algorithm, full information): its Fubini(n)^r terminal output
//!   vectors are a closed-form oracle for the explorer.
//! * [`illformed`] — a deliberately ill-formed fixture whose four
//!   processes each violate a different paper precondition; the
//!   `rsim-smr::analyze` pre-flight must report every lint code on it.
//! * [`serializable`] — n blind max-writers whose interference graph
//!   is edge-free: the positive fixture for the static interference
//!   analyzer (RS-W010) and the explorer's static seeding.
//!
//! # Example
//!
//! ```
//! use rsim_protocols::racing::racing_system;
//! use rsim_smr::process::ProcessId;
//! use rsim_smr::value::Value;
//!
//! # fn main() -> Result<(), rsim_smr::error::ModelError> {
//! // n = 2, m = 2 (the consensus space bound is tight at m = n).
//! let mut sys = racing_system(2, &[Value::Int(1), Value::Int(2)]);
//! let out = sys.run_solo(ProcessId(0), 100)?;
//! assert_eq!(out, Value::Int(1));
//! # Ok(())
//! # }
//! ```

pub mod approx;
pub mod contrarian;
pub mod generated;
pub mod iis;
pub mod illformed;
pub mod ladder;
pub mod racing;
pub mod serializable;

pub use approx::{approx_system, compressed_approx_system, MidpointApprox};
pub use contrarian::{contrarian_system, Contrarian};
pub use generated::{generated_mutant_system, generated_system};
pub use iis::{iis_system, IteratedImmediateSnapshot};
pub use ladder::{ladder_system, LadderConsensus};
pub use racing::{racing_system, PhasedRacing};
pub use serializable::{serializable_system, MaxStamp};
