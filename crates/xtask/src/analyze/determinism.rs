//! Pass 8 — `determinism-taint` (deny).
//!
//! The engine's contract — goldens in `tests/determinism.rs`, the run
//! cache's content addressing, bit-identical results at any `--jobs`
//! count — all assume a simulation's output is a pure function of its
//! config.
//! This pass walks the workspace call graph from the engine roots
//! (`Network::run`, `run_model`, `Campaign::run_cells`) and denies any
//! reachable function that touches a nondeterminism source:
//!
//! - wall clocks: `Instant::now`, `SystemTime`;
//! - ambient process state: `std::env` reads;
//! - hash-order iteration: `HashMap`/`HashSet` (engine code must use
//!   `BTreeMap`/`BTreeSet` or vectors — iteration order is seeded
//!   per-process since Rust 1.x and differs across runs);
//! - OS randomness: `thread_rng`/`rand::random` (seeded `XorShift64`
//!   streams are the sanctioned source).
//!
//! Scope: the engine crates only. The `experiments` CLI layer and the
//! bench harness legitimately read env vars and clocks *around* the
//! engine; the measurement region (`core/src/measure.rs`) is the one
//! in-scope module that reads clocks by design and carries a standing
//! waiver in the shared exemption table ([`crate::diag::EXEMPTIONS`]).

use syn::{Expr, Span};

use crate::analyze::callgraph::CallGraph;
use crate::analyze::{Pass, Workspace};
use crate::diag::{Diagnostic, Severity};

pub struct DeterminismTaint;

/// Engine entry points the taint walk starts from.
pub const ROOTS: [&str; 3] = ["Network::run", "run_model", "Campaign::run_cells"];

/// Crates whose code can be reached from inside a simulation. The CLI
/// layer (`experiments`) and the bench harness sit outside the engine
/// region and are allowed ambient effects.
pub const ENGINE_CRATES: [&str; 8] = [
    "types", "topology", "power", "ml", "traffic", "noc", "core", "dozznoc",
];

impl Pass for DeterminismTaint {
    fn id(&self) -> &'static str {
        "determinism-taint"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let graph = CallGraph::build(ws, &|f| ENGINE_CRATES.contains(&f.krate.as_str()));
        let roots: Vec<&str> = ROOTS.to_vec();
        for i in graph.reachable_from(&roots) {
            let node = &graph.nodes[i];
            if crate::diag::is_exempt("determinism-taint", &node.rel) {
                continue;
            }
            let Some(body) = &node.body else { continue };
            for (span, what, fix) in taint_sites(body) {
                out.push(Diagnostic {
                    rule: "determinism-taint",
                    severity: Severity::Deny,
                    file: node.rel.clone(),
                    line: span.line,
                    column: span.column,
                    message: format!(
                        "{what} in `{}` (reachable from the engine roots {ROOTS:?}) — \
                         simulation output must be a pure function of its config or the \
                         determinism goldens and the content-addressed run cache both \
                         break; {fix}",
                        node.qual
                    ),
                });
            }
        }
    }
}

/// Every nondeterminism source in a body: `(site, what, fix)`.
pub fn taint_sites(block: &syn::Block) -> Vec<(Span, String, &'static str)> {
    let mut sites = Vec::new();
    syn::walk_block_exprs(block, &mut |e| {
        match e {
            Expr::Path { segments, .. } => {
                scan_segments(segments, e.span(), &mut sites);
            }
            Expr::MethodCall { method, span, .. } if method == "elapsed" => {
                // `.elapsed()` only exists on Instant/SystemTime;
                // catching it covers clocks smuggled in as values.
                sites.push((
                    *span,
                    "`.elapsed()` (a wall-clock read)".to_string(),
                    "thread timing through core::measure (exempt by design) and keep \
                     readings out of simulation state",
                ));
            }
            Expr::Verbatim { tokens, .. } => {
                // Degraded parses (macro args, struct literals) still
                // carry the token evidence.
                let mut segs: Vec<String> = Vec::new();
                let mut span = Span::default();
                syn::walk_tokens(tokens, &mut |t| {
                    if let Some(id) = t.ident() {
                        if segs.is_empty() {
                            span = t.span;
                        }
                        segs.push(id.to_string());
                    }
                });
                scan_segments(&segs, span, &mut sites);
            }
            _ => {}
        }
    });
    sites
}

fn scan_segments(segments: &[String], span: Span, sites: &mut Vec<(Span, String, &'static str)>) {
    for (i, s) in segments.iter().enumerate() {
        match s.as_str() {
            "Instant" | "SystemTime" => {
                sites.push((
                    span,
                    format!("`{s}` (a wall clock)"),
                    "thread timing through core::measure (exempt by design) and keep \
                     readings out of simulation state",
                ));
            }
            "HashMap" | "HashSet" => {
                sites.push((
                    span,
                    format!("`{s}` (seeded, run-varying iteration order)"),
                    "use BTreeMap/BTreeSet or an index-keyed Vec",
                ));
            }
            "thread_rng" | "random" => {
                sites.push((
                    span,
                    format!("`{s}` (OS-seeded randomness)"),
                    "draw from a seeded XorShift64 stream carried in the config",
                ));
            }
            "env" => {
                // `env::var(..)` / `std::env::var_os(..)`: the next
                // segment is the read.
                if matches!(
                    segments.get(i + 1).map(String::as_str),
                    Some("var") | Some("var_os") | Some("vars") | Some("vars_os")
                ) {
                    sites.push((
                        span,
                        "`std::env` read (ambient process state)".to_string(),
                        "read the variable at construction/CLI time and pass the value \
                         through the config",
                    ));
                }
            }
            _ => {}
        }
    }
}
