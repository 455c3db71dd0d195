//! `dozznoc-modelcheck`: a loom-style concurrency model checker for
//! the `dozz_sync` facade.
//!
//! Built with `--cfg dozz_model` (the `cargo xtask model-check`
//! configuration), every facade primitive in the workspace reports its
//! operations to the [`runtime`] installed here, and the [`explore`]
//! driver enumerates thread interleavings (and `Relaxed`-load values)
//! with a stateless DFS over a replayable decision stack. Findings —
//! deadlocks, torn `RaceCell` accesses, escaped panics —
//! carry a trace string that reproduces the failing execution
//! byte-for-byte.
//!
//! In a normal std build only the [`report`] schema, [`race::RaceCell`]
//! (as a plain unsynchronized cell) and the [`harness`] registry
//! compile; the harness bodies then run on real threads, which is what
//! the nightly ThreadSanitizer job stresses.
//!
//! See DESIGN.md §12 for the model, its guarantees, and its bounds.

pub mod harness;
pub mod race;
pub mod report;

#[cfg(dozz_model)]
mod clock;
#[cfg(dozz_model)]
mod decisions;
#[cfg(dozz_model)]
mod explore;
#[cfg(dozz_model)]
mod runtime;

#[cfg(dozz_model)]
pub use explore::{explore, replay, Config};
pub use race::RaceCell;
pub use report::{finding_seed, Finding, FindingKind, Outcome, Report, SCHEMA_VERSION};
