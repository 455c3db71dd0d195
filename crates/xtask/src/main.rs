//! `cargo xtask` — project automation for the DozzNoC reproduction.
//!
//! Four subcommands, one diagnostics engine (`xtask::diag`):
//!
//! - **`lint [--skip-clippy]`** — the fast path. Workspace clippy with
//!   warnings denied, the advisory `clippy::indexing_slicing` sweep
//!   over the simulator crates, and the string scans (`xtask::scans`):
//!   lossy tick casts, `.ticks()` narrowing, thread spawns outside the
//!   scheduler, RunStats test coverage. `--skip-clippy` runs the scans
//!   alone, with no compilation at all.
//! - **`bench [--quick] [--compare BASELINE.json] [--write-baseline]`**
//!   — the perf yardstick. Runs the regime × topology × jobs matrix
//!   through `dozz-repro bench-cell` subprocesses, writes the
//!   versioned `BENCH_matrix.json`, and with `--compare` gates against
//!   a committed baseline (`crates/xtask/bench-baseline.json`) with
//!   per-regime thresholds and a noise floor. See `xtask::bench`.
//! - **`analyze [--json PATH] [--write-baseline]`** — the deep path.
//!   Parses every workspace crate with the vendored `syn` stand-in and
//!   runs the nine semantic passes (`xtask::analyze`): unit
//!   consistency for the sealed time types, panic reachability from
//!   the simulation roots, the `Ordering::Relaxed` audit, `#[must_use]`
//!   on builders, float comparisons in report code, and the four
//!   expression-level dataflow passes — thread-boundary escape of
//!   unsynchronized state, lock/atomic
//!   discipline, determinism taint reachable from the engine roots,
//!   and interprocedural tick/cycle unit flow. Findings are
//!   filtered through justified suppressions and the checked-in
//!   baseline (`crates/xtask/analyze-baseline.json`); any surviving
//!   `deny` or `warn` fails the build. `--json` additionally writes the
//!   machine-readable report (CI uploads it next to the bench
//!   artifacts); `--write-baseline` regenerates the baseline from the
//!   current findings instead of gating on them. The tenth pass,
//!   `sync-facade`, is the static half of the model-check story: it
//!   denies raw `std::sync`/`std::thread`/`std::hint::spin_loop`
//!   outside `crates/sync`, so every synchronization point in the
//!   workspace is one the checker can permute.
//! - **`model-check [--harness NAME] [--replay NAME:TRACE] [--out PATH]
//!   [--skip-tests]`** — the dynamic half. Rebuilds the workspace under
//!   `--cfg dozz_model` (the `dozz_sync` facades swap to the
//!   instrumented runtime), proves the checker still detects the
//!   seeded torn tmp-file defect (modelcheck's test suite), then
//!   explores every registered harness to exhaustion within its
//!   bounded budget and writes the frozen `MODEL_CHECK.json` report.
//!   Non-zero exit on any
//!   finding, on non-exhaustion, or on a missed seeded defect.

use std::path::Path;
use std::process::{Command, ExitCode};

use xtask::analyze;
use xtask::bench;
use xtask::diag::{Baseline, Diagnostic, Report, Severity};
use xtask::scans;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let skip_clippy = args.iter().any(|a| a == "--skip-clippy");
            lint(skip_clippy)
        }
        Some("analyze") => {
            let json = args
                .iter()
                .position(|a| a == "--json")
                .and_then(|i| args.get(i + 1).cloned());
            let write_baseline = args.iter().any(|a| a == "--write-baseline");
            run_analyze(json.as_deref(), write_baseline)
        }
        Some("bench") => bench::run(&args[1..]),
        Some("model-check") => model_check(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask <lint|analyze|bench|model-check> [options]");
            eprintln!();
            eprintln!("  lint                workspace clippy (-D warnings), advisory");
            eprintln!("                      indexing_slicing sweep, and the string scans");
            eprintln!("                      (lossy tick casts, thread spawns, RunStats");
            eprintln!("                      test coverage)");
            eprintln!("    --skip-clippy     string scans only (no compilation)");
            eprintln!();
            eprintln!("  analyze             AST + dataflow passes over every workspace crate:");
            eprintln!("                      unit-consistency, panic-reachability,");
            eprintln!("                      atomic-ordering, must-use-builder,");
            eprintln!("                      float-compare, thread-escape, lock-discipline,");
            eprintln!("                      determinism-taint, unit-flow");
            eprintln!("    --json PATH       also write the JSON report to PATH");
            eprintln!("    --write-baseline  regenerate the grandfathered-findings file");
            eprintln!();
            eprintln!("  bench               perf yardstick: regime × topology × jobs matrix");
            eprintln!("                      through the real engine, written to");
            eprintln!("                      BENCH_matrix.json (versioned schema)");
            eprintln!("    --quick           short cells (CI profile)");
            eprintln!("    --compare PATH    gate against a baseline matrix; non-zero exit");
            eprintln!("                      on regression beyond the per-regime thresholds");
            eprintln!("    --write-baseline  also refresh crates/xtask/bench-baseline.json");
            eprintln!("    --out PATH        matrix output path (default BENCH_matrix.json)");
            eprintln!("    --skip-build      reuse an existing release dozz-repro binary");
            eprintln!();
            eprintln!("  model-check         exhaustive bounded interleaving exploration of the");
            eprintln!("                      dozz_sync harnesses under --cfg dozz_model: runs the");
            eprintln!(
                "                      modelcheck test suite (seeded-defect detection proof)"
            );
            eprintln!("                      then every registered harness, writing the frozen");
            eprintln!("                      MODEL_CHECK.json report; non-zero exit on findings,");
            eprintln!("                      non-exhaustion, or an undetected seeded defect");
            eprintln!("    --skip-tests      explore the harnesses only (no detection proof)");
            eprintln!("    --harness NAME    explore a single harness");
            eprintln!("    --replay NAME:TRACE  re-run one recorded execution byte-for-byte");
            eprintln!("    --out PATH        report path (default MODEL_CHECK.json)");
            ExitCode::FAILURE
        }
    }
}

fn lint(skip_clippy: bool) -> ExitCode {
    let root = scans::workspace_root();
    let mut failed = false;
    let mut report = Report::default();

    if skip_clippy {
        println!("xtask lint: skipping clippy passes (--skip-clippy)");
    } else {
        println!("xtask lint: cargo clippy --workspace --all-targets -- -D warnings");
        if !run_cargo(
            &root,
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
        ) {
            eprintln!("xtask lint: clippy (deny warnings) FAILED");
            failed = true;
        }

        println!("xtask lint: advisory clippy::indexing_slicing sweep (noc, topology, power)");
        match advisory_indexing_sweep(&root) {
            Ok(count) => {
                if count > 0 {
                    report.findings.push(Diagnostic {
                        rule: "indexing-slicing",
                        severity: Severity::Advisory,
                        file: "crates".into(),
                        line: 0,
                        column: 0,
                        message: format!(
                            "{count} clippy::indexing_slicing warning(s) across noc/topology/\
                             power — bounds are established by construction; new sites \
                             deserve review"
                        ),
                    });
                }
            }
            Err(msg) => {
                eprintln!("xtask lint: advisory sweep failed to compile: {msg}");
                failed = true;
            }
        }
    }

    report.findings.extend(scans::scan_tree(&root));
    print!("{}", report.render_human("xtask lint"));
    if report.failed() || failed {
        ExitCode::FAILURE
    } else {
        println!("xtask lint: OK");
        ExitCode::SUCCESS
    }
}

fn run_analyze(json: Option<&str>, write_baseline: bool) -> ExitCode {
    let root = scans::workspace_root();

    if write_baseline {
        // Re-run against an empty baseline so the file captures every
        // current finding that would otherwise gate.
        let ws = analyze::Workspace::load(&root);
        let report = analyze::run_on(&ws, Baseline::default());
        let gating: Vec<_> = report
            .findings
            .into_iter()
            .filter(|d| matches!(d.severity, Severity::Deny | Severity::Warn))
            .collect();
        let path = root.join(analyze::BASELINE_REL);
        if let Err(e) = std::fs::write(&path, Baseline::render(&gating)) {
            eprintln!("xtask analyze: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "xtask analyze: wrote {} entries to {}",
            gating.len(),
            analyze::BASELINE_REL
        );
        return ExitCode::SUCCESS;
    }

    let report = match analyze::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_human("xtask analyze"));
    if let Some(path) = json {
        let text = match serde_json::to_string_pretty(&report.to_json("analyze")) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask analyze: serialize report: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(parent) = Path::new(path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("xtask analyze: write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("xtask analyze: JSON report written to {path}");
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        println!("xtask analyze: OK");
        ExitCode::SUCCESS
    }
}

/// `cargo xtask model-check`: build the workspace under
/// `--cfg dozz_model` (facades swap to the instrumented runtime) in its
/// own target directory, prove the checker still detects the seeded
/// defects (the modelcheck test suite), then explore every registered
/// harness to exhaustion and write the frozen JSON report.
fn model_check(args: &[String]) -> ExitCode {
    let root = scans::workspace_root();
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags
        .split_whitespace()
        .any(|f| f == "dozz_model" || f == "--cfg=dozz_model")
    {
        rustflags.push_str(" --cfg dozz_model");
    }
    // A separate target dir: the model build must not evict (or be
    // evicted by) the std build's cache, and nothing std-built may leak
    // into the instrumented run.
    let target_dir = root.join("target/model-check");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let skip_tests = args.iter().any(|a| a == "--skip-tests");

    if !skip_tests {
        println!("xtask model-check: detection proof (cargo test -p dozznoc-modelcheck)");
        let ok = Command::new(&cargo)
            .args(["test", "-q", "-p", "dozznoc-modelcheck"])
            .env("RUSTFLAGS", rustflags.trim())
            .env("CARGO_TARGET_DIR", &target_dir)
            .current_dir(&root)
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if !ok {
            eprintln!(
                "xtask model-check: detection proof FAILED — the checker no longer \
                 finds the seeded defect (or a harness regressed)"
            );
            return ExitCode::FAILURE;
        }
    }

    println!("xtask model-check: exploring harnesses");
    let forwarded: Vec<&String> = args.iter().filter(|a| *a != "--skip-tests").collect();
    let status = Command::new(&cargo)
        .args([
            "run",
            "-q",
            "-p",
            "dozznoc-modelcheck",
            "--bin",
            "model-check",
            "--",
        ])
        .args(&forwarded)
        .env("RUSTFLAGS", rustflags.trim())
        .env("CARGO_TARGET_DIR", &target_dir)
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => {
            println!("xtask model-check: OK");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask model-check: cargo run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run `cargo <args>` in `root`, inheriting stdio. True on success.
fn run_cargo(root: &Path, args: &[&str]) -> bool {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    Command::new(cargo)
        .args(args)
        .current_dir(root)
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Advisory pass: surface `clippy::indexing_slicing` in the simulator
/// crates without failing on it. Returns the warning count, or the
/// captured stderr if the compile itself fails.
fn advisory_indexing_sweep(root: &Path) -> Result<usize, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "clippy",
            "-p",
            "dozznoc-noc",
            "-p",
            "dozznoc-topology",
            "-p",
            "dozznoc-power",
            "--all-targets",
            "--",
            "-W",
            "clippy::indexing_slicing",
        ])
        .current_dir(root)
        .output()
        .map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(stderr.into_owned());
    }
    Ok(stderr.matches("clippy::indexing_slicing").count())
}
