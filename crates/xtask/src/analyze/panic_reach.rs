//! Pass 2 — `panic-reachability` (deny / advisory).
//!
//! Builds an intra-crate call graph per simulator crate by simple-name
//! resolution (an identifier directly followed by a call-argument group
//! is an edge to every same-crate function of that name — a deliberate
//! over-approximation) and walks it from the hot-path roots:
//!
//! - `Network::run` in `crates/noc` (the event loop),
//! - `run_model` in `crates/core` (the per-benchmark driver), and
//! - `PolicyRegistry::build` in `crates/core` (every registered policy
//!   factory — builders run inside campaign workers, so a panicking
//!   factory aborts a whole campaign exactly like a panicking simulator).
//!
//! In every reachable function body, `panic!` and `.unwrap()` are denied
//! (a panic mid-run aborts the whole campaign), while `.expect(..)`
//! and slice indexing are reported as advisories — both are allowed when
//! they name or embody a structural invariant, but new ones deserve
//! eyes. This pass supersedes the old string scan over the two hot-path
//! files: it follows calls instead of trusting a module list.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use syn::{Delim, ItemFn, Tok, Token};

use crate::analyze::{for_each_fn, for_each_level, Pass, Workspace};
use crate::diag::{Diagnostic, Severity};

pub struct PanicReachability;

/// (crate, root) pairs the graph is walked from. A root is matched by
/// its qualified `Type::name` or bare name.
const ROOTS: [(&str, &str); 3] = [
    ("noc", "Network::run"),
    ("core", "run_model"),
    ("core", "PolicyRegistry::build"),
];

/// Identifier keywords that can precede a `[` without it being indexing.
const NON_INDEX_PREV: [&str; 8] = [
    "if", "match", "while", "return", "in", "else", "break", "loop",
];

struct Node<'a> {
    qual: String,
    simple: &'a str,
    rel: &'a str,
    item: &'a ItemFn,
}

impl Pass for PanicReachability {
    fn id(&self) -> &'static str {
        "panic-reachability"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for (krate, root) in ROOTS {
            let mut nodes: Vec<Node<'_>> = Vec::new();
            for file in ws.files.iter().filter(|f| f.krate == krate) {
                for_each_fn(file, true, &mut |fr| {
                    nodes.push(Node {
                        qual: fr.qual_name(),
                        simple: &fr.item.sig.ident,
                        rel: &file.rel,
                        item: fr.item,
                    });
                });
            }
            let by_simple: BTreeMap<&str, Vec<usize>> =
                nodes
                    .iter()
                    .enumerate()
                    .fold(BTreeMap::new(), |mut m, (i, n)| {
                        m.entry(n.simple).or_default().push(i);
                        m
                    });

            // BFS from the root(s) along simple-name call edges.
            let mut reachable: BTreeSet<usize> = BTreeSet::new();
            let mut queue: VecDeque<usize> = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.qual == root || n.simple == root)
                .map(|(i, _)| i)
                .collect();
            while let Some(i) = queue.pop_front() {
                if !reachable.insert(i) {
                    continue;
                }
                let Some(body) = &nodes[i].item.body else {
                    continue;
                };
                for callee in call_targets(body) {
                    for &j in by_simple.get(callee.as_str()).into_iter().flatten() {
                        if !reachable.contains(&j) {
                            queue.push_back(j);
                        }
                    }
                }
            }

            for &i in &reachable {
                let n = &nodes[i];
                let Some(body) = &n.item.body else { continue };
                scan_reachable_body(body, n, root, out);
            }
        }
    }
}

/// Simple names of everything called in a body: any identifier directly
/// followed by a parenthesized argument group. Macro invocations have a
/// `!` between name and group, so they never match.
fn call_targets(body: &[Token]) -> BTreeSet<String> {
    let mut targets = BTreeSet::new();
    for_each_level(body, &mut |level| {
        for (i, t) in level.iter().enumerate() {
            if let Some(id) = t.ident() {
                if matches!(
                    level.get(i + 1).map(|n| &n.tok),
                    Some(Tok::Group(Delim::Paren, _))
                ) && !NON_INDEX_PREV.contains(&id)
                {
                    targets.insert(id.to_string());
                }
            }
        }
    });
    targets
}

fn scan_reachable_body(body: &[Token], n: &Node<'_>, root: &str, out: &mut Vec<Diagnostic>) {
    let mut indexing = 0usize;
    let mut first_index_span = syn::Span::default();
    for_each_level(body, &mut |level| {
        for (i, t) in level.iter().enumerate() {
            match &t.tok {
                // `.unwrap()` / `.expect(..)` — the leading `.` rules out
                // free functions that happen to share the name.
                Tok::Ident(id) if i > 0 && level[i - 1].is_punct(".") => {
                    let is_call = matches!(
                        level.get(i + 1).map(|x| &x.tok),
                        Some(Tok::Group(Delim::Paren, _))
                    );
                    if !is_call {
                        continue;
                    }
                    if id == "unwrap" || id == "unwrap_err" {
                        out.push(diag(
                            n.rel,
                            t.span,
                            Severity::Deny,
                            format!(
                                "`.{id}()` in `{}` (reachable from `{root}`) — a panic here \
                                 aborts the whole campaign; name the invariant with \
                                 `.expect(..)` or handle the None/Err arm",
                                n.qual
                            ),
                        ));
                    } else if id == "expect" || id == "expect_err" {
                        out.push(diag(
                            n.rel,
                            t.span,
                            Severity::Advisory,
                            format!(
                                "`.{id}(..)` in `{}` (reachable from `{root}`) — allowed \
                                 when it names a structural invariant; keep the message \
                                 specific",
                                n.qual
                            ),
                        ));
                    }
                }
                // `panic!(..)` and friends.
                Tok::Ident(id)
                    if (id == "panic" || id == "todo" || id == "unimplemented")
                        && level.get(i + 1).is_some_and(|x| x.is_punct("!")) =>
                {
                    out.push(diag(
                        n.rel,
                        t.span,
                        Severity::Deny,
                        format!(
                            "`{id}!` in `{}` (reachable from `{root}`) — return a SimError \
                             instead of aborting the simulation",
                            n.qual
                        ),
                    ));
                }
                // Slice indexing: `expr[..]` where the previous token ends
                // an expression. Aggregated per function to keep the
                // advisory readable.
                Tok::Group(Delim::Bracket, _) if i > 0 => {
                    let prev = &level[i - 1];
                    let expr_end = match &prev.tok {
                        Tok::Ident(id) => !NON_INDEX_PREV.contains(&id.as_str()),
                        Tok::Group(Delim::Paren | Delim::Bracket, _) => true,
                        _ => false,
                    };
                    if expr_end {
                        if indexing == 0 {
                            first_index_span = t.span;
                        }
                        indexing += 1;
                    }
                }
                _ => {}
            }
        }
    });
    if indexing > 0 {
        out.push(diag(
            n.rel,
            first_index_span,
            Severity::Advisory,
            format!(
                "{indexing} slice-indexing site(s) in `{}` (reachable from `{root}`) — \
                 bounds are expected to hold by construction; prefer `get` when they are \
                 not",
                n.qual
            ),
        ));
    }
}

fn diag(rel: &str, span: syn::Span, severity: Severity, message: String) -> Diagnostic {
    Diagnostic {
        rule: "panic-reachability",
        severity,
        file: rel.to_string(),
        line: span.line,
        column: span.column,
        message,
    }
}
