//! Golden-file determinism harness.
//!
//! The hot-path refactors (allocation-free switch allocation,
//! heap-based event scheduling, path tables) must be *behavior
//! preserving*: the `RunReport` of every (benchmark, policy) cell has
//! to stay bit-identical across refactors. This test serializes every
//! cell of a small campaign and compares the JSON byte-for-byte
//! against a committed golden file. Rust prints `f64` as the shortest
//! string that round-trips, so string equality here is bit equality of
//! every float in every report.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! DOZZNOC_BLESS=1 cargo test --test determinism
//! ```

use std::num::NonZeroUsize;
use std::path::PathBuf;

use dozznoc::prelude::*;

/// Short horizon: determinism does not need statistical power, and the
/// suite must stay cheap enough for tier-1.
const DUR_NS: u64 = 2_000;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("run_reports.json")
}

#[test]
fn every_campaign_cell_matches_golden_run_reports() {
    let topo = Topology::mesh8x8();
    let suite = ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(DUR_NS),
        FeatureSet::Reduced5,
    );
    let results = Campaign::new(topo)
        .with_duration_ns(DUR_NS)
        .run(&TEST_BENCHMARKS, &suite);
    assert_eq!(results.len(), TEST_BENCHMARKS.len() * 5);

    // `CampaignResult` carries (benchmark, model, report); the campaign
    // already sorts cells deterministically, and the vendored serde
    // value tree preserves struct-field declaration order, so the
    // serialized document is a stable function of simulator behavior.
    let actual = serde_json::to_string_pretty(&results).expect("reports serialize");

    let path = golden_path();
    if std::env::var_os("DOZZNOC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
            .expect("create goldens dir");
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             DOZZNOC_BLESS=1 cargo test --test determinism",
            path.display()
        )
    });
    if actual != golden {
        // Point at the first diverging cell rather than dumping both
        // multi-thousand-line documents.
        let line = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
        match line {
            Some(n) => {
                let a = actual.lines().nth(n).unwrap_or_default();
                let g = golden.lines().nth(n).unwrap_or_default();
                panic!(
                    "RunReport diverged from golden at line {}:\n  actual: {a}\n  golden: {g}\n\
                     If this change is intentional, re-bless with \
                     DOZZNOC_BLESS=1 cargo test --test determinism",
                    n + 1
                );
            }
            None => panic!(
                "RunReport output differs from golden only in length \
                 ({} vs {} lines); re-bless if intentional",
                actual.lines().count(),
                golden.lines().count()
            ),
        }
    }
}

/// The engine contract: any worker count, cold or warm cache, same
/// bytes. A sequential cold run (which fills the cache), a parallel
/// uncached run and a parallel warm-cache replay must serialize to
/// identical `CampaignResult` vectors on both topologies.
#[test]
fn engine_results_are_identical_across_jobs_and_cache_states() {
    let jobs = |n: usize| NonZeroUsize::new(n).expect("positive job count");
    let benches = [Benchmark::Fft, Benchmark::X264];
    for topo in [Topology::mesh8x8(), Topology::cmesh4x4()] {
        let suite = ModelSuite::train(
            &Trainer::new(topo).with_duration_ns(DUR_NS),
            FeatureSet::Reduced5,
        );
        let campaign = Campaign::new(topo).with_duration_ns(DUR_NS);
        let cache_dir = std::env::temp_dir().join(format!(
            "dozznoc-determinism-{}-{}",
            std::process::id(),
            topo.kind()
        ));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = RunCache::open(&cache_dir);

        // Sequential, cold cache: every cell simulates and is stored.
        let sequential = campaign.run_cells(
            &benches,
            &suite,
            &EngineOptions {
                jobs: Some(jobs(1)),
                cache: Some(&cache),
                sanitize: false,
                measure: false,
            },
        );
        assert!(
            sequential.iter().all(|c| !c.cache_hit),
            "{}: cold run must simulate every cell",
            topo.kind()
        );

        // Parallel, no cache: every cell simulates on 8 workers.
        let parallel = campaign.run_cells(
            &benches,
            &suite,
            &EngineOptions {
                jobs: Some(jobs(8)),
                cache: None,
                sanitize: false,
                measure: false,
            },
        );

        // Parallel, warm cache: every cell replays from disk.
        let warm = campaign.run_cells(
            &benches,
            &suite,
            &EngineOptions {
                jobs: Some(jobs(8)),
                cache: Some(&cache),
                sanitize: false,
                measure: false,
            },
        );
        assert!(
            warm.iter().all(|c| c.cache_hit),
            "{}: warm run must replay every cell",
            topo.kind()
        );
        assert_eq!(cache.stats().hits, warm.len() as u64, "{}", topo.kind());

        let serialize = |cells: &[CellRun]| {
            let results: Vec<_> = cells.iter().map(|c| &c.result).collect();
            serde_json::to_string_pretty(&results).expect("results serialize")
        };
        let golden = serialize(&sequential);
        assert_eq!(
            golden,
            serialize(&parallel),
            "{}: jobs=8 diverged from jobs=1",
            topo.kind()
        );
        assert_eq!(
            golden,
            serialize(&warm),
            "{}: warm-cache replay diverged from simulation",
            topo.kind()
        );

        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}

/// The same engine contract for the learning plug-in policies. Both
/// learn *during* the run (recursive ridge updates, epsilon-greedy
/// Q-learning), so this is the proof that their exploration and update
/// order is a pure function of (spec, trace): jobs=1, jobs=8 and a
/// warm-cache replay must serialize bit-identically.
#[test]
fn online_policies_are_deterministic_across_jobs_and_cache_states() {
    let jobs = |n: usize| NonZeroUsize::new(n).expect("positive job count");
    let benches = [Benchmark::Fft, Benchmark::X264];
    let topo = Topology::mesh8x8();
    let suite = ModelSuite::train(
        &Trainer::new(topo).with_duration_ns(DUR_NS),
        FeatureSet::Reduced5,
    );
    let registry = PolicyRegistry::global();
    let specs = [
        PolicySpec::new("online-ridge"),
        PolicySpec::new("rl-buffer").with_param("seed", "3"),
    ];
    let campaign = Campaign::new(topo).with_duration_ns(DUR_NS);
    let cache_dir =
        std::env::temp_dir().join(format!("dozznoc-determinism-online-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = RunCache::open(&cache_dir);

    let run = |jobs_n: usize, cache: Option<&RunCache>| {
        campaign
            .run_policy_cells(
                &benches,
                &specs,
                &suite,
                registry,
                &EngineOptions {
                    jobs: Some(jobs(jobs_n)),
                    cache,
                    sanitize: false,
                    measure: false,
                },
            )
            .expect("extension specs build")
    };

    let sequential = run(1, Some(&cache));
    assert!(sequential.iter().all(|c| !c.cache_hit));
    let parallel = run(8, None);
    let warm = run(8, Some(&cache));
    assert!(warm.iter().all(|c| c.cache_hit), "warm run must replay");

    let serialize = |cells: &[PolicyCellRun]| {
        let results: Vec<_> = cells.iter().map(|c| &c.result).collect();
        serde_json::to_string_pretty(&results).expect("results serialize")
    };
    let golden = serialize(&sequential);
    assert_eq!(golden, serialize(&parallel), "jobs=8 diverged from jobs=1");
    assert_eq!(
        golden,
        serialize(&warm),
        "warm-cache replay diverged from simulation"
    );

    let _ = std::fs::remove_dir_all(&cache_dir);
}
