//! Drop-in concurrency facades for the workspace.
//!
//! Every concurrency primitive the workspace uses — mutexes, atomics
//! and scoped threads — is imported from this crate instead of `std`.
//! In a normal build the facades are plain
//! re-exports (zero-cost passthrough, proven bit-identical by the
//! determinism goldens). Under `--cfg dozz_model` the same API routes
//! every operation through the [`rt_api::ModelRt`] runtime installed by
//! `dozznoc-modelcheck`, which turns each touchpoint into a scheduling
//! point of a deterministic interleaving explorer.
//!
//! The `sync-facade` pass of `cargo xtask analyze` denies raw
//! `std::sync`/`std::thread::spawn`/`std::hint::spin_loop` use outside
//! this crate, so "the model checker sees every primitive" is a
//! statically enforced invariant, not a convention (DESIGN.md §12).
//!
//! Facade surface:
//!
//! * [`Mutex`] / [`MutexGuard`] — mirrors `std::sync::Mutex` (poisoning
//!   included).
//! * [`atomic`] — `AtomicUsize`, `AtomicU64` and the `Ordering`
//!   re-export.
//! * [`thread`] — `scope`/`spawn`, plus passthroughs for the
//!   non-scheduling helpers (`available_parallelism`, `panicking`,
//!   `current`).
//! * [`Arc`] / [`OnceLock`] — passthrough in both modes: immutable
//!   once set, so there is no interleaving to explore; re-exported here
//!   so callers need no `std::sync` import at all.
//!
//! There is deliberately no yield or spin hint: no workspace code
//! spin-waits, so the model needs no way to park a spinner. Raw
//! `spin_loop`/`yield_now` calls stay denied by the `sync-facade` pass.

#[cfg(dozz_model)]
pub mod rt_api;

#[cfg(dozz_model)]
mod model;

// ---------------------------------------------------------------------
// Passthrough mode: the facade IS std.
// ---------------------------------------------------------------------

#[cfg(not(dozz_model))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(not(dozz_model))]
pub mod atomic {
    //! Facade atomics (std passthrough).
    pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(dozz_model))]
pub mod thread {
    //! Facade threads (std passthrough).
    pub use std::thread::{
        available_parallelism, current, panicking, scope, spawn, JoinHandle, Scope,
        ScopedJoinHandle,
    };
}

// ---------------------------------------------------------------------
// Model mode: the facade routes through the installed runtime.
// ---------------------------------------------------------------------

#[cfg(dozz_model)]
pub use model::{Mutex, MutexGuard};

#[cfg(dozz_model)]
pub mod atomic {
    //! Facade atomics (instrumented).
    pub use crate::model::{AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

#[cfg(dozz_model)]
pub mod thread {
    //! Facade threads (instrumented).
    pub use crate::model::thread::{scope, spawn, JoinHandle, Scope, ScopedJoinHandle};
    pub use std::thread::{available_parallelism, current, panicking};
}

// `Arc` and `OnceLock` are passthrough in both modes: `Arc`'s refcount
// is invisible to safe code and `OnceLock` is write-once (the single
// `set` is ordered by its own internal synchronization; there is no
// protocol for the explorer to permute). Re-exported so migrated crates
// never need a raw `std::sync` import.
pub use std::sync::{Arc, OnceLock};
