//! Pass 10 — `sync-facade` (deny).
//!
//! The model checker (`cargo xtask model-check`) can only permute
//! interleavings at operations it can see, and it sees exactly the
//! `dozz_sync` facade: `Mutex`, the atomics, `thread::{scope, spawn}`.
//! A raw `std::sync` primitive anywhere else in the workspace is a
//! synchronization point the checker silently skips — its harness
//! results would claim coverage they do not have. Spin-waits
//! (`yield_now`, `spin_loop`) have no facade at all: the model cannot
//! park a spinner, so they are denied outright.
//! This pass turns that coverage guarantee into a build gate: outside
//! `crates/sync` (the facade's own implementation necessarily wraps the
//! std primitives) every use of
//!
//! - `std::sync::<anything>` (Mutex, atomics, Condvar, Barrier, mpsc, …),
//! - `std::thread::{spawn, scope, Builder, yield_now, sleep, park}`,
//! - `std::hint::spin_loop`
//!
//! is denied. `std::thread::{available_parallelism, current, panicking}`
//! stay allowed — they observe the host, create no synchronization, and
//! the facade re-exports them untouched. `std::panic` is likewise out of
//! scope (unwinding is modeled at thread boundaries, not call sites).
//!
//! The scan runs on the lexed token stream, so `use` imports, fully
//! qualified calls, and macro arguments are all seen. Its known blind
//! spot — `use std::thread;` followed by unqualified `thread::spawn` —
//! is closed by the `thread-spawn` string scan in `cargo xtask lint`,
//! which matches the unqualified form (and whose exemption table this
//! pass shares; `diag::EXEMPTIONS` keeps the two from drifting).

use crate::analyze::{for_each_level, Pass, Workspace};
use crate::diag::{Diagnostic, Severity};

/// `std::thread` members that synchronize or create threads. Everything
/// not in [`THREAD_OBSERVERS`] is treated as denied even if unlisted
/// here — new std surface should default to "route through the facade".
const THREAD_OBSERVERS: [&str; 3] = ["available_parallelism", "current", "panicking"];

pub struct SyncFacade;

impl Pass for SyncFacade {
    fn id(&self) -> &'static str {
        "sync-facade"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            // The facade crate is the one place allowed to touch the
            // std primitives: it is what makes them model-visible.
            if file.krate == "sync" {
                continue;
            }
            // The model-check runtime sits *below* the facade (it
            // implements the instrumentation the facade calls into);
            // its own state lock/condvar must be real std primitives.
            if crate::diag::is_exempt("sync-facade", &file.rel) {
                continue;
            }
            let Ok(tokens) = syn::lex(&file.src) else {
                continue; // the loader already reported the parse error
            };
            for_each_level(&tokens, &mut |level| {
                for (i, t) in level.iter().enumerate() {
                    if t.ident() != Some("std")
                        || !level.get(i + 1).is_some_and(|x| x.is_punct("::"))
                    {
                        continue;
                    }
                    let module = level.get(i + 2).and_then(|x| x.ident());
                    let member = (level.get(i + 3).is_some_and(|x| x.is_punct("::")))
                        .then(|| level.get(i + 4).and_then(|x| x.ident()))
                        .flatten();
                    let denied = match module {
                        Some("sync") => Some("std::sync"),
                        Some("hint") if member == Some("spin_loop") => Some("std::hint::spin_loop"),
                        Some("thread") => match member {
                            Some(m) if THREAD_OBSERVERS.contains(&m) => None,
                            // A bare `use std::thread;` gives local
                            // unqualified access to spawn/scope — deny
                            // the import itself.
                            _ => Some("std::thread"),
                        },
                        _ => None,
                    };
                    if let Some(what) = denied {
                        let remedy = if member == Some("spin_loop") || member == Some("yield_now") {
                            "block on a facade `Mutex` or `join` instead (the model cannot \
                             park a spinner)"
                        } else {
                            "use the `dozz_sync` facade"
                        };
                        out.push(Diagnostic {
                            rule: "sync-facade",
                            severity: Severity::Deny,
                            file: file.rel.clone(),
                            line: t.span.line,
                            column: t.span.column,
                            message: format!(
                                "`{what}` outside crates/sync — the model checker cannot \
                                 see raw std primitives, so this synchronization point \
                                 escapes `cargo xtask model-check`; {remedy} (or \
                                 `// xtask-analyze: allow(sync-facade) — <why>` with the \
                                 coverage argument)"
                            ),
                        });
                    }
                }
            });
        }
    }
}
