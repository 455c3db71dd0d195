//! Pass 6 — `thread-escape` (deny).
//!
//! `core::schedule::run_indexed` is the workspace's one thread-spawn
//! point (the lint thread-spawn scan enforces that), so every closure
//! handed to it crosses a thread boundary. rustc's `Sync` bounds catch
//! most races at compile time, but two classes of capture survive the
//! type check and still break the jobs-count determinism contract
//! (`tests/determinism.rs`):
//!
//! - interior-mutability state (`RefCell`, `Cell`, `Rc`, `UnsafeCell`,
//!   raw pointers) reached through an outer `&` — `Sync` wrappers or
//!   `unsafe impl`s can smuggle these across, and a spawn point that
//!   takes `dyn`-erased tasks leaves rustc seeing nothing;
//! - `&mut` parameters captured by reference, which a parallel fan-out
//!   would hand to several workers at once.
//!
//! The pass finds every call to a spawn point, computes each closure
//! argument's free-identifier set (via the expression parser's capture
//! analysis), and denies captures whose local binding is typed or
//! initialized with a risky type. A justified
//! `// xtask-analyze: allow(thread-escape) — <why>` marker is the
//! escape hatch when the capture is provably synchronized.

use std::collections::BTreeMap;

use syn::{Expr, Token};

use crate::analyze::{for_each_fn, Pass, Workspace};
use crate::diag::{Diagnostic, Severity};

pub struct ThreadEscape;

/// Callee names treated as thread-boundary spawn points: the cell
/// scheduler's fan-out, plus the scoped `spawn` it (and any future
/// fan-out) is built on.
pub const SPAWN_POINTS: [&str; 2] = ["run_indexed", "spawn"];

/// Type names whose capture across a thread boundary is denied.
const RISKY_TYPES: [&str; 5] = ["RefCell", "Cell", "UnsafeCell", "Rc", "OnceCell"];

impl Pass for ThreadEscape {
    fn id(&self) -> &'static str {
        "thread-escape"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            for_each_fn(file, true, &mut |fr| {
                let Some(body) = &fr.item.body else { return };
                let block = syn::parse_block(body);
                let risky = risky_bindings(fr.item, &block);
                if risky.is_empty() {
                    return;
                }
                syn::walk_block_exprs(&block, &mut |e| {
                    let (callee_is_spawn, args) = match e {
                        Expr::Call { callee, args, .. } => match &**callee {
                            Expr::Path { segments, .. } => (
                                segments
                                    .last()
                                    .is_some_and(|s| SPAWN_POINTS.contains(&s.as_str())),
                                args,
                            ),
                            _ => (false, args),
                        },
                        Expr::MethodCall { method, args, .. } => {
                            (SPAWN_POINTS.contains(&method.as_str()), args)
                        }
                        _ => return,
                    };
                    if !callee_is_spawn {
                        return;
                    }
                    for arg in args {
                        let Expr::Closure {
                            params, body, span, ..
                        } = arg
                        else {
                            continue;
                        };
                        let bound = params.iter().cloned().collect();
                        for captured in syn::free_idents(body, &bound) {
                            if let Some(why) = risky.get(&captured) {
                                out.push(Diagnostic {
                                    rule: "thread-escape",
                                    severity: Severity::Deny,
                                    file: file.rel.clone(),
                                    line: span.line,
                                    column: span.column,
                                    message: format!(
                                        "closure passed to a thread spawn point captures \
                                         `{captured}` ({why}) in `{}` — single-threaded \
                                         interior mutability crossing a thread boundary \
                                         breaks the bit-identical-parallelism contract; \
                                         share through the scheduler's indexed slots or an \
                                         atomic/lock, or justify with `// xtask-analyze: \
                                         allow(thread-escape) — <why>`",
                                        fr.qual_name()
                                    ),
                                });
                            }
                        }
                    }
                });
            });
        }
    }
}

/// Bindings in scope whose type makes a cross-thread capture risky:
/// parameters and `let` bindings annotated with (or initialized from) a
/// [`RISKY_TYPES`] constructor, plus `&mut` reference parameters.
fn risky_bindings(func: &syn::ItemFn, block: &syn::Block) -> BTreeMap<String, String> {
    let mut risky = BTreeMap::new();
    for p in &func.sig.inputs {
        let Some(name) = &p.name else { continue };
        if let Some(ty) = risky_type(&p.ty) {
            risky.insert(name.clone(), format!("parameter typed `{ty}`"));
        } else if is_mut_ref(&p.ty) {
            risky.insert(name.clone(), "a `&mut` parameter".to_string());
        }
    }
    collect_risky_lets(block, &mut risky);
    risky
}

fn collect_risky_lets(block: &syn::Block, risky: &mut BTreeMap<String, String>) {
    for stmt in &block.stmts {
        let syn::Stmt::Let {
            idents, ty, init, ..
        } = stmt
        else {
            if let syn::Stmt::Expr(e) = stmt {
                syn::walk_exprs(e, &mut |e| {
                    if let Expr::Block(b) = e {
                        collect_risky_lets(b, risky);
                    }
                });
            }
            continue;
        };
        let reason = ty
            .as_deref()
            .and_then(risky_type)
            .map(|t| format!("binding annotated `{t}`"))
            .or_else(|| {
                init.as_ref().and_then(|e| {
                    constructor_type(e).map(|t| format!("binding initialized from `{t}::…`"))
                })
            });
        if let Some(reason) = reason {
            for id in idents {
                risky.insert(id.clone(), reason.clone());
            }
        }
        if let Some(init) = init {
            syn::walk_exprs(init, &mut |e| {
                if let Expr::Block(b) = e {
                    collect_risky_lets(b, risky);
                }
            });
        }
    }
}

/// The risky type name mentioned in a type-annotation token run, if any
/// — but not through a `&`/`Arc` of atomics (those are the sanctioned
/// sharing forms and never match RISKY_TYPES anyway).
fn risky_type(ty: &[Token]) -> Option<&'static str> {
    let mut hit = None;
    syn::walk_tokens(ty, &mut |t| {
        if let Some(id) = t.ident() {
            if let Some(&r) = RISKY_TYPES.iter().find(|&&r| r == id) {
                hit.get_or_insert(r);
            }
        }
    });
    // Raw pointers: `*mut T` / `*const T`.
    if hit.is_none() {
        for (i, t) in ty.iter().enumerate() {
            if t.is_punct("*")
                && matches!(
                    ty.get(i + 1).and_then(Token::ident),
                    Some("mut") | Some("const")
                )
            {
                return Some("raw pointer");
            }
        }
    }
    hit
}

/// True for `&mut T` annotations.
fn is_mut_ref(ty: &[Token]) -> bool {
    ty.first().is_some_and(|t| t.is_punct("&")) && ty.get(1).and_then(Token::ident) == Some("mut")
}

/// `RefCell::new(..)`-style initializer → `RefCell`.
fn constructor_type(e: &Expr) -> Option<&'static str> {
    match e {
        Expr::Call { callee, .. } => match &**callee {
            Expr::Path { segments, .. } => segments
                .iter()
                .find_map(|s| RISKY_TYPES.iter().find(|&&r| r == s).copied()),
            _ => None,
        },
        _ => None,
    }
}
