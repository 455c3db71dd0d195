//! Traced run of the perfbench workloads.
//!
//! Repeats the work of one workload by calling each layer's public
//! entry points directly and timing those calls from outside the
//! program: the simulator itself carries no instrumentation. Spans
//! (name, start, end, parent) are kept in memory and written to
//! `<out>/trace.json` at exit, together with work counters, one record
//! per simulated cell and any failed output check. `perfbench/run.py`
//! turns the spans into per-layer self times.
//!
//! ```text
//! perfbench-tracer <headline|saturation|light> --seed S --jobs N --out DIR
//!                  [--traces K] [--duration-ns D]
//! ```
//!
//! * `headline` repeats `dozz-repro headline --quick`: both suites are
//!   trained (`run` phase) and the 2 × 25 cells simulate through the run
//!   cache on `--jobs` workers; the `rerun` phase replays every cell
//!   from that cache, as the warm command does.
//! * `saturation` / `light` repeat `dozz-repro bench-cell` for both
//!   topologies: regime traces and suite training are the `setup`
//!   phase, the three-policy cells the `run` phase.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dozznoc_bench::regimes::{regime_trace, Regime};
use dozznoc_core::cache::{campaign_base, cell_fingerprint, Fnv64};
use dozznoc_core::schedule;
use dozznoc_core::training::ReactiveKind;
use dozznoc_core::{
    Fingerprint, ModelSuite, PolicyContext, PolicyRegistry, PolicySpec, RunCache, Trainer,
};
use dozznoc_ml::{Dataset, FeatureSet};
use dozznoc_noc::{DecisionTrace, EpochObservation, Network, NocConfig, PowerPolicy, RunReport};
use dozznoc_topology::Topology;
use dozznoc_traffic::{
    Benchmark, Trace, TraceGenerator, TEST_BENCHMARKS, TRAIN_BENCHMARKS, VALIDATION_BENCHMARKS,
};
use dozznoc_types::{Mode, RouterId};
use serde_json::{json, Value};

/// The five paper models, by registry slug, in headline order.
const HEADLINE_POLICIES: [&str; 5] = ["baseline", "pg", "lead", "dozznoc", "turbo"];
/// The spec mix `dozz-repro bench-cell` runs.
const REGIME_POLICIES: [&str; 3] = ["baseline", "power-gated", "dozznoc"];
/// Trace horizon of `headline --quick`.
const HEADLINE_DURATION_NS: u64 = 4_000;
/// Trace horizon of the suite `bench-cell` trains.
const REGIME_TRAINING_NS: u64 = 2_000;
/// Epoch size of every headline and bench-cell configuration.
const EPOCH_CYCLES: u64 = 500;

/// One timed interval. Aggregate spans (`count` > 1) stand for many
/// short calls: they start with their parent and last for the calls'
/// summed duration, so self-time arithmetic treats them like any child.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// In-memory span and counter store, shared by every worker thread.
struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
    failures: Mutex<Vec<String>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            failures: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Time `f` as span `name` under `parent`; `f` receives the new
    /// span's id so its own calls can nest under it.
    fn span<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        self.span_n(name, parent, 1, f)
    }

    /// [`Tracer::span`] with an explicit `count` (the worker count of a
    /// schedule span).
    fn span_n<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        count: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // Ids only need to be unique; no other data is published through them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            count,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    fn add(&self, counter: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("counter store poisoned")
            .entry(counter)
            .or_insert(0) += n;
    }

    fn fail(&self, what: String) {
        eprintln!("perfbench-tracer: check failed: {what}");
        self.failures
            .lock()
            .expect("failure list poisoned")
            .push(what);
    }

    fn into_json(self, workload: &str, cells: Vec<Value>) -> Value {
        let wall_ns = self.now_ns();
        let spans: Vec<Value> = self
            .spans
            .into_inner()
            .expect("span store poisoned")
            .into_iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "count": s.count,
                })
            })
            .collect();
        let counts = Value::Object(
            self.counts
                .into_inner()
                .expect("counter store poisoned")
                .into_iter()
                .map(|(k, v)| (k.to_string(), json!(v)))
                .collect(),
        );
        json!({
            "workload": workload,
            "wall_ns": wall_ns,
            "spans": spans,
            "counts": counts,
            "cells": cells,
            "failures": self.failures.into_inner().expect("failure list poisoned"),
        })
    }
}

/// `PowerPolicy` decorator summing the time and number of
/// `select_mode` calls; every other method forwards unchanged, so the
/// simulation is identical to an undecorated run.
struct TimedPolicy<'a> {
    inner: &'a mut dyn PowerPolicy,
    ns: u64,
    calls: u64,
}

impl PowerPolicy for TimedPolicy<'_> {
    fn select_mode(&mut self, router: RouterId, obs: &EpochObservation) -> Mode {
        let t = Instant::now();
        let mode = self.inner.select_mode(router, obs);
        self.ns +=
            u64::try_from(t.elapsed().as_nanos()).expect("one decision takes under 584 years");
        self.calls += 1;
        mode
    }

    fn gating_enabled(&self) -> bool {
        self.inner.gating_enabled()
    }

    fn ml_features(&self) -> Option<usize> {
        self.inner.ml_features()
    }

    fn decision_trace(&self) -> Option<&DecisionTrace> {
        self.inner.decision_trace()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A generated trace with its content digest (the run-cache key part).
struct Input {
    trace: Trace,
    digest: u64,
}

fn generate(t: &Tracer, parent: u64, make: impl FnOnce() -> Trace) -> Input {
    t.span("traffic.generate", Some(parent), |_| {
        let trace = make();
        t.add("traffic.packets", trace.len() as u64);
        let digest = trace.digest();
        Input { trace, digest }
    })
}

/// `ModelSuite::train`, step by step: the gated collector trains
/// DOZZNOC (and ML+TURBO, which shares its weights), the DVFS-only
/// collector trains LEAD-τ.
fn train_suite(t: &Tracer, parent: u64, trainer: &Trainer) -> ModelSuite {
    let collect = |kind: ReactiveKind, benches: &[Benchmark]| -> Dataset {
        t.span("training.collect", Some(parent), |_| {
            let ds = trainer.collect(kind, benches);
            t.add("training.runs", benches.len() as u64);
            t.add("training.rows", ds.len() as u64);
            ds
        })
    };
    let fit = |train: &Dataset, val: &Dataset| {
        t.span("ml.fit", Some(parent), |_| {
            trainer.train_from_datasets(train, val, FeatureSet::Reduced5)
        })
    };
    let gated_train = collect(ReactiveKind::Gated, &TRAIN_BENCHMARKS);
    let gated_val = collect(ReactiveKind::Gated, &VALIDATION_BENCHMARKS);
    let dozznoc = fit(&gated_train, &gated_val);
    let lead_train = collect(ReactiveKind::DvfsOnly, &TRAIN_BENCHMARKS);
    let lead_val = collect(ReactiveKind::DvfsOnly, &VALIDATION_BENCHMARKS);
    let lead = fit(&lead_train, &lead_val);
    ModelSuite {
        turbo: dozznoc.clone(),
        dozznoc,
        lead,
    }
}

/// Build the policy through the registry and simulate one cell, timing
/// `select_mode` through [`TimedPolicy`].
fn simulate(
    t: &Tracer,
    parent: u64,
    cfg: NocConfig,
    input: &Input,
    spec: &PolicySpec,
    suite: &ModelSuite,
) -> RunReport {
    let mut policy = t
        .span("registry.build", Some(parent), |_| {
            PolicyRegistry::global().build(spec, &PolicyContext { suite })
        })
        .unwrap_or_else(|e| panic!("policy {spec} does not build: {e}"));
    t.add("registry.builds", 1);
    let report = t.span("noc.run", Some(parent), |id| {
        let start_ns = t.now_ns();
        let mut timed = TimedPolicy {
            inner: policy.as_mut(),
            ns: 0,
            calls: 0,
        };
        let report = Network::new(cfg)
            .run(&input.trace, &mut timed)
            .unwrap_or_else(|e| panic!("{spec} on {} failed: {e}", input.trace.name));
        t.push(Span {
            id: t.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(id),
            name: "policy.select_mode",
            start_ns,
            end_ns: start_ns + timed.ns,
            count: timed.calls,
        });
        t.add("policy.decisions", timed.calls);
        report
    });
    t.add("noc.runs", 1);
    let injected = input.trace.len() as u64;
    if report.stats.packets_injected != injected || report.stats.packets_delivered != injected {
        t.fail(format!(
            "{spec} on {}: {} packets in the trace, {} injected, {} delivered",
            input.trace.name,
            injected,
            report.stats.packets_injected,
            report.stats.packets_delivered
        ));
    }
    report
}

/// `schedule::run_indexed` under a `schedule.run_indexed` span whose
/// count is the worker count; each task runs under a `schedule.task`
/// span that `task` receives as its parent.
fn scheduled<T: Send>(
    t: &Tracer,
    parent: u64,
    jobs: NonZeroUsize,
    count: usize,
    task: impl Fn(usize, u64) -> T + Sync,
) -> Vec<T> {
    let workers = jobs.get().min(count) as u64;
    t.span_n("schedule.run_indexed", Some(parent), workers, |sid| {
        schedule::run_indexed(jobs, count, |i| {
            t.span("schedule.task", Some(sid), |tid| task(i, tid))
        })
    })
}

/// The per-cell record the benchmark digests and sums.
fn cell_record(topo: &Topology, report: &RunReport) -> Value {
    json!({
        "topology": topo.kind().to_string(),
        "policy": report.policy,
        "trace": report.trace,
        "finished_at": report.finished_at.ticks(),
        "packets_injected": report.stats.packets_injected,
        "packets_delivered": report.stats.packets_delivered,
        "flits_delivered": report.stats.flits_delivered,
        "epochs": report.stats.epochs,
        "static_j": report.energy.static_j,
        "dynamic_j": report.energy.dynamic_j,
    })
}

fn same_report(a: &RunReport, b: &RunReport) -> bool {
    serde_json::to_string(a).ok() == serde_json::to_string(b).ok()
}

/// One topology's share of a workload: the simulator config, the
/// trained suite, the inputs and the campaign's run-cache key.
struct Prepared {
    topo: Topology,
    cfg: NocConfig,
    suite: ModelSuite,
    inputs: Vec<Input>,
    base: Fnv64,
}

impl Prepared {
    fn new(topo: Topology, suite: ModelSuite, inputs: Vec<Input>) -> Prepared {
        let cfg = NocConfig::paper(topo)
            .try_with_epoch_cycles(EPOCH_CYCLES)
            .expect("the paper epoch is valid");
        let base = campaign_base(&cfg, &suite);
        Prepared {
            topo,
            cfg,
            suite,
            inputs,
            base,
        }
    }

    fn fingerprint(&self, input: &Input, slug: &str) -> Fingerprint {
        cell_fingerprint(self.base, input.digest, slug)
    }
}

fn topologies() -> [Topology; 2] {
    [Topology::mesh8x8(), Topology::cmesh4x4()]
}

fn headline(t: &Tracer, seed: u64, jobs: NonZeroUsize, out: &Path) -> Vec<Value> {
    let specs = HEADLINE_POLICIES.map(PolicySpec::new);
    let cache = t.span("setup", None, |_| RunCache::open(out.join(".runcache")));
    let mut cold: Vec<Vec<RunReport>> = Vec::new();
    let prepared: Vec<Prepared> = t.span("run", None, |run| {
        topologies()
            .into_iter()
            .map(|topo| {
                let trainer = Trainer::new(topo)
                    .try_with_epoch_cycles(EPOCH_CYCLES)
                    .expect("the paper epoch is valid")
                    .with_duration_ns(HEADLINE_DURATION_NS)
                    .with_seed(seed);
                let suite = train_suite(t, run, &trainer);
                let generator = TraceGenerator::new(topo)
                    .with_duration_ns(HEADLINE_DURATION_NS)
                    .with_seed(seed);
                let inputs = TEST_BENCHMARKS
                    .iter()
                    .map(|&b| generate(t, run, || generator.generate(b)))
                    .collect();
                let p = Prepared::new(topo, suite, inputs);
                let reports = scheduled(t, run, jobs, p.inputs.len() * specs.len(), |i, task| {
                    let (input, spec) = (&p.inputs[i / specs.len()], &specs[i % specs.len()]);
                    let (slug, fp) = (spec.slug(), p.fingerprint(input, &spec.slug()));
                    let hit = t.span("cache.get", Some(task), |_| {
                        cache.get(fp, &slug, &input.trace.name)
                    });
                    if let Some(report) = hit {
                        t.add("cache.hits", 1);
                        t.fail(format!(
                            "{spec} on {}: hit in a fresh cache",
                            input.trace.name
                        ));
                        return report;
                    }
                    t.add("cache.misses", 1);
                    let report = simulate(t, task, p.cfg, input, spec, &p.suite);
                    t.span("cache.put", Some(task), |_| cache.put(fp, &slug, &report));
                    report
                });
                cold.push(reports);
                p
            })
            .collect()
    });
    t.span("rerun", None, |rerun| {
        for (p, reports) in prepared.iter().zip(&cold) {
            scheduled(t, rerun, jobs, reports.len(), |i, task| {
                let (input, spec) = (&p.inputs[i / specs.len()], &specs[i % specs.len()]);
                let slug = spec.slug();
                let fp = p.fingerprint(input, &slug);
                let hit = t.span("cache.get", Some(task), |_| {
                    cache.get(fp, &slug, &input.trace.name)
                });
                match hit {
                    Some(warm) => {
                        t.add("cache.hits", 1);
                        if !same_report(&warm, &reports[i]) {
                            t.fail(format!("{spec} on {}: replay differs", input.trace.name));
                        }
                    }
                    None => {
                        t.add("cache.misses", 1);
                        t.fail(format!("{spec} on {}: no replay", input.trace.name));
                    }
                }
            });
        }
    });
    prepared
        .iter()
        .zip(&cold)
        .flat_map(|(p, reports)| reports.iter().map(|r| cell_record(&p.topo, r)))
        .collect()
}

fn regime(
    t: &Tracer,
    regime: Regime,
    seed: u64,
    jobs: NonZeroUsize,
    traces: u64,
    duration_ns: u64,
) -> Vec<Value> {
    let specs = REGIME_POLICIES.map(PolicySpec::new);
    let prepared: Vec<Prepared> = t.span("setup", None, |setup| {
        topologies()
            .into_iter()
            .map(|topo| {
                let inputs = (0..traces)
                    .map(|k| {
                        generate(t, setup, || {
                            regime_trace(regime, &topo, duration_ns, seed + k)
                        })
                    })
                    .collect();
                let trainer = Trainer::new(topo).with_duration_ns(REGIME_TRAINING_NS);
                Prepared::new(topo, train_suite(t, setup, &trainer), inputs)
            })
            .collect()
    });
    let runs: Vec<Vec<RunReport>> = t.span("run", None, |run| {
        prepared
            .iter()
            .map(|p| {
                scheduled(t, run, jobs, p.inputs.len() * specs.len(), |i, task| {
                    let (input, spec) = (&p.inputs[i / specs.len()], &specs[i % specs.len()]);
                    simulate(t, task, p.cfg, input, spec, &p.suite)
                })
            })
            .collect()
    });
    prepared
        .iter()
        .zip(&runs)
        .flat_map(|(p, reports)| reports.iter().map(|r| cell_record(&p.topo, r)))
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    jobs: NonZeroUsize,
    out: PathBuf,
    traces: u64,
    duration_ns: u64,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter();
    let workload = it.next().ok_or("missing workload")?.clone();
    let mut args = Args {
        workload,
        seed: 0,
        jobs: NonZeroUsize::MIN,
        out: PathBuf::new(),
        traces: 1,
        duration_ns: 8_000,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: `{value}` is not a positive integer");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--jobs" => args.jobs = value.parse().map_err(bad)?,
            "--out" => args.out = PathBuf::from(value),
            "--traces" => args.traces = value.parse().map_err(bad)?,
            "--duration-ns" => args.duration_ns = value.parse().map_err(bad)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.out.as_os_str().is_empty() {
        return Err("--out is required".into());
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&raw).unwrap_or_else(|e| {
        eprintln!("perfbench-tracer: {e}");
        eprintln!(
            "usage: perfbench-tracer <headline|saturation|light> --seed S --jobs N --out DIR \
             [--traces K] [--duration-ns D]"
        );
        std::process::exit(2);
    });
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", args.out.display()));
    let t = Tracer::new();
    let cells = match args.workload.as_str() {
        "headline" => headline(&t, args.seed, args.jobs, &args.out),
        name => {
            let Some(r) = Regime::parse(name) else {
                eprintln!("perfbench-tracer: unknown workload `{name}`");
                std::process::exit(2);
            };
            regime(&t, r, args.seed, args.jobs, args.traces, args.duration_ns)
        }
    };
    let doc = t.into_json(&args.workload, cells);
    let text = serde_json::to_string(&doc).expect("trace document is a plain tree");
    let path = args.out.join("trace.json");
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}
