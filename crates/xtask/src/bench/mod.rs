//! `cargo xtask bench` — the decision-grade perf yardstick
//! (ROADMAP item 5).
//!
//! Runs a matrix of load regimes (light / saturation /
//! pathological-hotspot, see `dozznoc_bench::regimes`) × topologies
//! (`mesh8x8`, `cmesh4x4`) × jobs counts (`j1` = serial, `jN` = every
//! core) through the real engine and writes the measurements to
//! `BENCH_matrix.json` in the frozen, versioned shape of
//! [`schema::BenchMatrix`].
//!
//! xtask itself stays near-dependency-free, so the engine work happens
//! in a subprocess: each cell spawns `target/release/dozz-repro
//! bench-cell …`, which self-reports wall-clock, CPU seconds, peak RSS,
//! simulated-cycles/sec and flits/sec as one line of JSON (versioned:
//! `bench_cell_schema`). Process isolation is a feature — every cell
//! gets a fresh allocator and a peak-RSS reading that is actually
//! *its* peak.
//!
//! `--compare <baseline.json>` turns the run into a regression gate
//! (see [`compare`]): per-regime thresholds, a noise floor for short
//! cells, loud failures on schema drift, profile mismatch, lost
//! coverage and workload drift. The committed baseline lives at
//! [`BASELINE_REL`]; regenerate it with `--write-baseline` whenever
//! the simulator's *work* (not just its speed) legitimately changes.

pub mod compare;
pub mod schema;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::scans;
use schema::{BenchCell, BenchEnv, BenchMatrix};

/// Repo-relative path of the committed gate baseline.
pub const BASELINE_REL: &str = "crates/xtask/bench-baseline.json";

/// Version of the one-line JSON contract `dozz-repro bench-cell`
/// prints. Must match `dozznoc_experiments::bench_cell::BENCH_CELL_SCHEMA`.
const BENCH_CELL_SCHEMA: u64 = 3;

/// The topology axis of the matrix.
const TOPOLOGIES: [&str; 2] = ["mesh8x8", "cmesh4x4"];

/// The regime axis, in `dozznoc_bench::regimes` order.
const REGIMES: [&str; 3] = ["light", "saturation", "pathological-hotspot"];

/// Measurement profile: how much work each cell simulates.
#[derive(Debug, Clone, Copy)]
struct Profile {
    name: &'static str,
    duration_ns: u64,
    traces: u64,
}

/// Calibrated so the full 12-cell quick matrix lands in tens of
/// seconds on one core while each cell still simulates hundreds of
/// thousands of base-clock cycles (see `dozz-repro bench-cell`).
const QUICK: Profile = Profile {
    name: "quick",
    duration_ns: 3_000,
    traces: 4,
};
const FULL: Profile = Profile {
    name: "full",
    duration_ns: 8_000,
    traces: 6,
};

struct BenchArgs {
    quick: bool,
    compare: Option<PathBuf>,
    write_baseline: bool,
    out: PathBuf,
    skip_build: bool,
}

/// Entry point for `cargo xtask bench`.
pub fn run(raw: &[String]) -> ExitCode {
    let args = match parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            eprintln!(
                "usage: cargo xtask bench [--quick] [--compare BASELINE.json] \
                 [--write-baseline] [--out PATH] [--skip-build]"
            );
            return ExitCode::FAILURE;
        }
    };
    let root = scans::workspace_root();
    let profile = if args.quick { QUICK } else { FULL };

    if !args.skip_build {
        println!("xtask bench: cargo build --release -p dozznoc-experiments");
        if !run_cargo(&root, &["build", "--release", "-p", "dozznoc-experiments"]) {
            eprintln!("xtask bench: release build FAILED");
            return ExitCode::FAILURE;
        }
    }
    let bin = root.join("target/release/dozz-repro");
    if !bin.exists() {
        eprintln!(
            "xtask bench: {} not found (need `cargo build --release -p \
             dozznoc-experiments` or drop --skip-build)",
            bin.display()
        );
        return ExitCode::FAILURE;
    }

    let env = capture_env(&root);
    println!(
        "xtask bench: profile={} host={} cores={} rev={}",
        profile.name, env.host, env.cores, env.git_rev
    );

    let mut cells = Vec::new();
    for regime in REGIMES {
        for topo in TOPOLOGIES {
            for (label, jobs) in [("j1", 1u64), ("jN", env.cores.max(1))] {
                match run_cell(&bin, regime, topo, label, jobs, profile) {
                    Ok(cell) => {
                        println!(
                            "  {:<34} wall {:>8.1}ms  {:>12.0} cyc/s  rss {:>5.1} MiB",
                            cell.key(),
                            cell.wall_ms,
                            cell.sim_cycles_per_sec,
                            cell.max_rss_bytes as f64 / (1024.0 * 1024.0)
                        );
                        cells.push(cell);
                    }
                    Err(e) => {
                        eprintln!("xtask bench: {regime}/{topo}/{label}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    let matrix = BenchMatrix {
        profile: profile.name.to_string(),
        env,
        cells,
    };
    let text = match serde_json::to_string_pretty(&matrix.to_value()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask bench: serialize matrix: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&args.out, &text) {
        eprintln!("xtask bench: write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("xtask bench: matrix written to {}", args.out.display());

    if args.write_baseline {
        let path = root.join(BASELINE_REL);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("xtask bench: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("xtask bench: baseline written to {BASELINE_REL}");
    }

    if let Some(baseline_path) = &args.compare {
        return gate(&matrix, baseline_path);
    }
    ExitCode::SUCCESS
}

/// Load the baseline, run the gate, render the verdict.
fn gate(current: &BenchMatrix, baseline_path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask bench: read {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let baseline = match BenchMatrix::from_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask bench: {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "xtask bench: comparing against {} (host={} rev={})",
        baseline_path.display(),
        baseline.env.host,
        baseline.env.git_rev
    );
    let report = compare::compare(current, &baseline);
    print!("{}", report.render());
    if report.passed() {
        println!("xtask bench: gate OK");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask bench: gate FAILED ({} finding(s))",
            report.failures.len()
        );
        ExitCode::FAILURE
    }
}

/// Spawn one `dozz-repro bench-cell` subprocess and parse its report.
fn run_cell(
    bin: &Path,
    regime: &str,
    topo: &str,
    label: &str,
    jobs: u64,
    profile: Profile,
) -> Result<BenchCell, String> {
    let out = Command::new(bin)
        .args([
            "bench-cell",
            "--regime",
            regime,
            "--topo",
            topo,
            "--jobs",
            &jobs.to_string(),
            "--duration-ns",
            &profile.duration_ns.to_string(),
            "--traces",
            &profile.traces.to_string(),
            "--seed",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "bench-cell exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("bench-cell printed no report")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bench-cell report: {e}"))?;
    let cell_schema = v
        .get("bench_cell_schema")
        .and_then(Value::as_u64)
        .ok_or("bench-cell report missing `bench_cell_schema`")?;
    if cell_schema != BENCH_CELL_SCHEMA {
        return Err(format!(
            "bench-cell speaks schema v{cell_schema}, harness expects \
             v{BENCH_CELL_SCHEMA} — rebuild dozz-repro"
        ));
    }
    let f = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench-cell report missing `{key}`"))
    };
    let u = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("bench-cell report missing `{key}`"))
    };
    Ok(BenchCell {
        regime: regime.to_string(),
        topology: topo.to_string(),
        jobs_label: label.to_string(),
        jobs,
        engine_cells: u("engine_cells")?,
        wall_ms: f("wall_ms")?,
        cpu_s: f("cpu_s")?,
        cell_cpu_s: f("cell_cpu_s")?,
        max_rss_bytes: u("max_rss_bytes")?,
        sim_cycles: u("sim_cycles")?,
        flits: u("flits")?,
        sim_cycles_per_sec: f("sim_cycles_per_sec")?,
        flits_per_sec: f("flits_per_sec")?,
        duration_ns: u("duration_ns")?,
        traces: u("traces")?,
        seed: u("seed")?,
    })
}

/// Environment fingerprint: host, cores, rustc, git revision.
fn capture_env(root: &Path) -> BenchEnv {
    let host = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|h| h.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let rustc =
        command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".to_string());
    let mut git_rev = command_line("git", &["rev-parse", "--short", "HEAD"], root)
        .unwrap_or_else(|| "unknown".to_string());
    let dirty = command_line("git", &["status", "--porcelain"], root)
        .map(|s| !s.is_empty())
        .unwrap_or(false);
    if dirty {
        git_rev.push_str("-dirty");
    }
    BenchEnv {
        host,
        cores,
        rustc,
        git_rev,
    }
}

/// First stdout line of `cmd args`, trimmed; `None` on any failure.
fn command_line(cmd: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()
        .map(|s| s.lines().next().unwrap_or("").trim().to_string())
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

fn parse(raw: &[String]) -> Result<BenchArgs, String> {
    let mut args = BenchArgs {
        quick: false,
        compare: None,
        write_baseline: false,
        out: scans::workspace_root().join("BENCH_matrix.json"),
        skip_build: false,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--write-baseline" => args.write_baseline = true,
            "--skip-build" => args.skip_build = true,
            "--compare" => {
                let v = it.next().ok_or("--compare needs a path")?;
                args.compare = Some(PathBuf::from(v));
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                args.out = PathBuf::from(v);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}
