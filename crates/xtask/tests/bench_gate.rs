//! Fixture tests for the `cargo xtask bench --compare` regression gate.
//!
//! The fixtures under `tests/fixtures/bench/` are hand-written matrix
//! files in the frozen v3 schema. `current.json` plays the run under
//! test; each `baseline-*.json` exercises one gate policy:
//!
//! - `baseline-slow.json` — baseline a few ms slower than current:
//!   the same-machine rerun case. Must pass (within tolerance, and the
//!   small deltas sit under the noise floor).
//! - `baseline-fast.json` — baseline ~50% faster: the regression case.
//!   The gate must fire on every regime's wall-clock and throughput.
//! - `baseline-missing-regime.json` — baseline covers a cell the
//!   current run lost. Coverage shrink must fail.
//! - `baseline-schema-mismatch.json` — a v99 file. Parsing must fail
//!   loudly, pointing at `--write-baseline`, before any comparison.

use std::path::PathBuf;

use xtask::bench::compare::{compare, NOISE_FLOOR_WALL_MS};
use xtask::bench::schema::{BenchMatrix, BENCH_SCHEMA_VERSION};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/bench")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

fn matrix(name: &str) -> BenchMatrix {
    BenchMatrix::from_json(&fixture(name)).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

#[test]
fn fixtures_speak_the_current_schema() {
    // If BENCH_SCHEMA_VERSION is ever bumped, the fixtures (and the
    // committed baseline) must be regenerated in the same commit.
    assert_eq!(BENCH_SCHEMA_VERSION, 3);
    for name in [
        "current.json",
        "baseline-slow.json",
        "baseline-fast.json",
        "baseline-missing-regime.json",
    ] {
        let m = matrix(name);
        assert_eq!(m.profile, "quick", "{name}");
        assert!(!m.cells.is_empty(), "{name}");
    }
}

#[test]
fn same_machine_rerun_passes_within_noise() {
    let report = compare(&matrix("current.json"), &matrix("baseline-slow.json"));
    assert!(report.passed(), "gate should pass:\n{}", report.render());
    // The deltas are genuinely sub-floor, so the rows say so.
    assert!(
        report.render().contains("noise floor"),
        "{}",
        report.render()
    );
}

#[test]
fn gate_fires_on_slowdown() {
    let report = compare(&matrix("current.json"), &matrix("baseline-fast.json"));
    assert!(!report.passed(), "gate must fail:\n{}", report.render());
    // Every regime regressed well past its tolerance: wall findings for
    // all three cells, and the failure text names the movement.
    let wall_failures = report
        .failures
        .iter()
        .filter(|f| f.contains("wall-clock regressed"))
        .count();
    assert_eq!(wall_failures, 3, "{:#?}", report.failures);
    assert!(report
        .failures
        .iter()
        .any(|f| f.contains("throughput dropped")));
}

#[test]
fn lost_coverage_fails() {
    let report = compare(
        &matrix("current.json"),
        &matrix("baseline-missing-regime.json"),
    );
    assert!(!report.passed());
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.contains("saturation/cmesh4x4/j1") && f.contains("missing from this run")),
        "{:#?}",
        report.failures
    );
}

#[test]
fn schema_drift_fails_loudly_before_comparison() {
    let err = BenchMatrix::from_json(&fixture("baseline-schema-mismatch.json"))
        .expect_err("v99 baseline must be rejected");
    assert!(err.contains("schema mismatch"), "{err}");
    assert!(err.contains("v99"), "{err}");
    assert!(err.contains("--write-baseline"), "{err}");
}

#[test]
fn committed_baseline_parses_and_covers_the_matrix() {
    // The real gate input: the baseline checked in next to this test.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("bench-baseline.json"))
        .expect("committed bench-baseline.json exists");
    let m = BenchMatrix::from_json(&text).expect("committed baseline parses");
    assert_eq!(m.profile, "quick");
    // 3 regimes × 2 topologies × {j1, jN}.
    assert_eq!(m.cells.len(), 12, "matrix shape drifted");
    for regime in ["light", "saturation", "pathological-hotspot"] {
        for topo in ["mesh8x8", "cmesh4x4"] {
            for label in ["j1", "jN"] {
                let key = format!("{regime}/{topo}/{label}");
                assert!(
                    m.cells.iter().any(|c| c.key() == key),
                    "baseline missing {key}"
                );
            }
        }
    }
}

#[test]
fn noise_floor_is_meaningful_for_the_quick_profile() {
    // The committed baseline's shortest cell must be small enough that
    // the floor actually shields it — otherwise the floor is dead code
    // and the light regime gates on pure scheduler noise.
    let current = matrix("current.json");
    let shortest = current
        .cells
        .iter()
        .map(|c| c.wall_ms)
        .fold(f64::INFINITY, f64::min);
    assert!(
        NOISE_FLOOR_WALL_MS < shortest,
        "floor {NOISE_FLOOR_WALL_MS}ms swallows the shortest cell ({shortest}ms) entirely"
    );
}
