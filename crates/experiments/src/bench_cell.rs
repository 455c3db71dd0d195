//! `dozz-repro bench-cell` — one cell of the `cargo xtask bench`
//! regime matrix, measured in its own process.
//!
//! The harness (`crates/xtask/src/bench`) spawns this command once per
//! (regime × topology × jobs) cell so every measurement gets process
//! isolation: a fresh allocator, a peak-RSS reading that belongs to
//! this cell alone, and no JIT-style warm-up bleed between cells. The
//! command:
//!
//! 1. builds the regime's synthetic traces ([`dozznoc_bench::regimes`])
//!    and trains a small model suite — all *outside* the timed region;
//! 2. resets the process RSS high-water mark, then drives the traces ×
//!    a fixed three-policy spec mix (`baseline`, `power-gated`,
//!    `dozznoc` — no-ML, gating, and ML+DVFS hot paths) through the
//!    real engine, [`Campaign::run_trace_cells`], with the run cache
//!    disabled and per-cell measurement enabled;
//! 3. prints one JSON object on stdout (logs go to stderr) for the
//!    harness to collect.
//!
//! The stdout contract is versioned ([`BENCH_CELL_SCHEMA`]); bump it
//! whenever a field changes meaning, and keep `crates/xtask/src/bench`
//! in lockstep.

use std::num::NonZeroUsize;
use std::time::Instant;

use dozznoc_bench::regimes::{regime_trace, Regime};
use dozznoc_core::{measure, Campaign, EngineOptions, ModelSuite, PolicyRegistry, PolicySpec};
use dozznoc_core::{PolicyCellRun, Trainer};
use dozznoc_ml::FeatureSet;
use dozznoc_topology::Topology;
use dozznoc_traffic::Trace;

/// Version of the JSON object this command prints. The xtask harness
/// refuses to ingest any other version. v3 has v1's fields; v2 carried
/// an extra engine-config field that is gone.
pub const BENCH_CELL_SCHEMA: u64 = 3;

/// Paper-agnostic spec mix every bench cell runs: the no-ML baseline,
/// the gating-heavy policy and the full ML+DVFS policy, so the yardstick
/// covers the engine's three distinct per-epoch hot paths.
const SPEC_MIX: [&str; 3] = ["baseline", "power-gated", "dozznoc"];

struct Args {
    regime: Regime,
    topo_name: String,
    jobs: NonZeroUsize,
    duration_ns: u64,
    seed: u64,
    traces: usize,
}

/// Entry point: parses its own flags (the shared [`crate::ctx::Ctx`]
/// rejects unknown flags, and this command's surface is disjoint).
/// Exits 2 on usage errors.
pub fn run(raw: &[String]) {
    let args = parse(raw).unwrap_or_else(|e| {
        eprintln!("bench-cell: {e}");
        eprintln!(
            "usage: dozz-repro bench-cell --regime <light|saturation|pathological-hotspot> \
             --topo <mesh8x8|cmesh4x4> --jobs N [--duration-ns D] [--seed S] [--traces K]"
        );
        std::process::exit(2);
    });
    let topo = match args.topo_name.as_str() {
        "mesh8x8" => Topology::mesh8x8(),
        "cmesh4x4" => Topology::cmesh4x4(),
        other => {
            eprintln!("bench-cell: unknown topology `{other}` (mesh8x8|cmesh4x4)");
            std::process::exit(2);
        }
    };

    // ---- setup (untimed): traces, suite, spec validation ----
    let traces: Vec<Trace> = (0..args.traces)
        .map(|k| regime_trace(args.regime, &topo, args.duration_ns, args.seed + k as u64))
        .collect();
    let packets: usize = traces.iter().map(Trace::len).sum();
    eprintln!(
        "bench-cell: {} × {} × jobs={} — {} traces, {packets} packets",
        args.regime, args.topo_name, args.jobs, args.traces
    );
    let suite = ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(2_000),
        FeatureSet::Reduced5,
    );
    let specs: Vec<PolicySpec> = SPEC_MIX.iter().copied().map(PolicySpec::new).collect();
    let campaign = Campaign::new(topo);
    let opts = EngineOptions {
        jobs: Some(args.jobs),
        cache: None, // the yardstick always simulates
        sanitize: false,
        measure: true,
    };

    // ---- measured region: the engine run only ----
    measure::reset_max_rss();
    let cpu0 = measure::process_cpu_ns();
    let wall = Instant::now();
    let runs = campaign
        .run_trace_cells(&traces, &specs, &suite, PolicyRegistry::global(), &opts)
        .expect("bench spec mix is registered");
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let cpu_ns = measure::process_cpu_ns().saturating_sub(cpu0);
    let max_rss = measure::max_rss_bytes();

    println!("{}", render(&args, &runs, wall_ns, cpu_ns, max_rss));
}

/// Aggregate the engine cells into the flat JSON object the harness
/// ingests. "Simulated cycles" are base-clock ticks
/// ([`dozznoc_types::BASE_CLOCK_GHZ`] per ns): the finest clock the
/// simulator advances, summed over every cell's finish time.
fn render(args: &Args, runs: &[PolicyCellRun], wall_ns: u64, cpu_ns: u64, max_rss: u64) -> String {
    let sim_cycles: u64 = runs
        .iter()
        .map(|r| r.result.report.finished_at.ticks())
        .sum();
    let flits: u64 = runs
        .iter()
        .map(|r| r.result.report.stats.flits_delivered)
        .sum();
    let cell_cpu_ns: u64 = runs
        .iter()
        .filter_map(|r| r.measure.as_ref().map(|m| m.cpu_ns))
        .sum();
    let wall_s = (wall_ns as f64 / 1e9).max(f64::MIN_POSITIVE);
    let v = serde_json::json!({
        "bench_cell_schema": BENCH_CELL_SCHEMA,
        "regime": args.regime.name(),
        "topology": args.topo_name.as_str(),
        "jobs": args.jobs.get() as u64,
        "traces": args.traces as u64,
        "duration_ns": args.duration_ns,
        "seed": args.seed,
        "engine_cells": runs.len() as u64,
        "wall_ms": wall_ns as f64 / 1e6,
        "cpu_s": cpu_ns as f64 / 1e9,
        "cell_cpu_s": cell_cpu_ns as f64 / 1e9,
        "max_rss_bytes": max_rss,
        "sim_cycles": sim_cycles,
        "flits": flits,
        "sim_cycles_per_sec": sim_cycles as f64 / wall_s,
        "flits_per_sec": flits as f64 / wall_s,
    });
    serde_json::to_string(&v).expect("bench-cell JSON is a plain tree")
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut regime = None;
    let mut topo_name = None;
    let mut jobs = NonZeroUsize::MIN;
    let mut duration_ns = 8_000;
    let mut seed = 0;
    let mut traces = 6;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--regime" => {
                let v = value("--regime")?;
                regime = Some(Regime::parse(v).ok_or_else(|| format!("unknown regime `{v}`"))?);
            }
            "--topo" => topo_name = Some(value("--topo")?.clone()),
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs a positive integer".to_string())?;
            }
            "--duration-ns" => {
                duration_ns = value("--duration-ns")?
                    .parse()
                    .map_err(|_| "--duration-ns needs an integer".to_string())?;
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--traces" => {
                traces = value("--traces")?
                    .parse()
                    .map_err(|_| "--traces needs a positive integer".to_string())?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if traces == 0 {
        return Err("--traces must be ≥ 1".into());
    }
    Ok(Args {
        regime: regime.ok_or("--regime is required")?,
        topo_name: topo_name.ok_or("--topo is required")?,
        jobs,
        duration_ns,
        seed,
        traces,
    })
}
