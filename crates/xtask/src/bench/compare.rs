//! The `--compare` regression gate.
//!
//! Pure matrix-vs-matrix logic (no I/O) so the fixture tests under
//! `tests/bench_gate.rs` can drive it directly. Policy:
//!
//! - **Profile and schema first.** A `quick` run is not comparable to a
//!   `full` baseline; schema drift is rejected during parsing
//!   ([`super::schema::BenchMatrix::from_value`]).
//! - **Coverage cannot shrink.** Every baseline cell must appear in the
//!   current matrix (same `regime/topology/jobs_label` key). Extra
//!   current cells are noted, not failed — they become gated once
//!   baselined.
//! - **The workload must be identical.** Cells are deterministic
//!   (seeded traces, fixed spec mix), so `flits`, `sim_cycles`,
//!   `engine_cells` and the profile parameters must match exactly;
//!   a mismatch means the baseline describes a different simulator and
//!   must be regenerated, not compared against.
//! - **Per-regime thresholds with a noise floor.** Wall-clock may grow
//!   by at most the regime's tolerance, and throughput may drop by at
//!   most the same, but only deltas above [`NOISE_FLOOR_WALL_MS`] of
//!   absolute wall movement can fail the gate: sub-floor wiggle on a
//!   short cell is scheduler noise, not regression signal.

use super::schema::{BenchCell, BenchMatrix};

/// Absolute wall-clock movement (ms) below which a cell can never fail
/// the gate. Calibrated to the quick profile on a busy 1-core CI
/// runner, where ±100 ms of scheduler noise on a 400 ms cell is
/// routine.
pub const NOISE_FLOOR_WALL_MS: f64 = 120.0;

/// Per-regime regression tolerance, percent.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Max allowed wall-clock growth.
    pub wall_pct: f64,
    /// Max allowed throughput (sim-cycles/sec) drop.
    pub tput_pct: f64,
}

/// The regime's tolerance. Light cells are short, so proportional
/// noise is larger and the gate is looser; the saturated regimes are
/// long enough for a tighter bound.
pub fn tolerance(regime: &str) -> Tolerance {
    match regime {
        "light" => Tolerance {
            wall_pct: 30.0,
            tput_pct: 30.0,
        },
        _ => Tolerance {
            wall_pct: 20.0,
            tput_pct: 20.0,
        },
    }
}

/// Outcome of one gate evaluation.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Human-readable per-cell rows, matrix order.
    pub rows: Vec<String>,
    /// Gate-failing findings. Non-empty ⇒ exit non-zero.
    pub failures: Vec<String>,
    /// Non-gating observations (new cells, RSS growth).
    pub notes: Vec<String>,
}

impl GateReport {
    /// True when the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render the whole report for stdout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(r);
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("note: ");
            out.push_str(n);
            out.push('\n');
        }
        for f in &self.failures {
            out.push_str("FAIL: ");
            out.push_str(f);
            out.push('\n');
        }
        out
    }
}

/// Diff `current` against `baseline` under the gate policy.
pub fn compare(current: &BenchMatrix, baseline: &BenchMatrix) -> GateReport {
    let mut report = GateReport::default();

    if current.profile != baseline.profile {
        report.failures.push(format!(
            "profile mismatch: current is `{}`, baseline is `{}` — rerun with the \
             baseline's profile or regenerate the baseline",
            current.profile, baseline.profile
        ));
        return report;
    }

    for base in &baseline.cells {
        let key = base.key();
        let Some(cur) = current.cells.iter().find(|c| c.key() == key) else {
            report.failures.push(format!(
                "{key}: cell present in baseline but missing from this run — \
                 the matrix lost coverage"
            ));
            continue;
        };
        compare_cell(cur, base, &mut report);
    }

    for cur in &current.cells {
        if !baseline.cells.iter().any(|b| b.key() == cur.key()) {
            report.notes.push(format!(
                "{}: new cell not in baseline (ungated until baselined)",
                cur.key()
            ));
        }
    }
    report
}

fn compare_cell(cur: &BenchCell, base: &BenchCell, report: &mut GateReport) {
    let key = base.key();

    // Deterministic workload: any difference in what was simulated
    // invalidates the timing comparison outright.
    let drift = [
        ("engine_cells", cur.engine_cells, base.engine_cells),
        ("flits", cur.flits, base.flits),
        ("sim_cycles", cur.sim_cycles, base.sim_cycles),
        ("duration_ns", cur.duration_ns, base.duration_ns),
        ("traces", cur.traces, base.traces),
        ("seed", cur.seed, base.seed),
    ];
    if let Some((field, c, b)) = drift.iter().find(|(_, c, b)| c != b) {
        report.failures.push(format!(
            "{key}: workload drift — `{field}` is {c} here vs {b} in the baseline; \
             the simulated work changed, regenerate the baseline \
             (`cargo xtask bench --write-baseline`)"
        ));
        return;
    }

    let tol = tolerance(&base.regime);
    let wall_delta = cur.wall_ms - base.wall_ms;
    let wall_pct = 100.0 * wall_delta / base.wall_ms.max(f64::MIN_POSITIVE);
    let tput_pct = 100.0 * (cur.sim_cycles_per_sec - base.sim_cycles_per_sec)
        / base.sim_cycles_per_sec.max(f64::MIN_POSITIVE);
    let above_floor = wall_delta.abs() > NOISE_FLOOR_WALL_MS;

    let wall_fail = wall_pct > tol.wall_pct && above_floor;
    let tput_fail = tput_pct < -tol.tput_pct && above_floor;

    let verdict = if wall_fail || tput_fail {
        "FAIL"
    } else if !above_floor {
        "ok (within noise floor)"
    } else {
        "ok"
    };
    report.rows.push(format!(
        "{key:<34} wall {:>8.1}ms → {:>8.1}ms ({wall_pct:+.1}%)  \
         tput {tput_pct:+.1}%  {verdict}",
        base.wall_ms, cur.wall_ms
    ));

    if wall_fail {
        report.failures.push(format!(
            "{key}: wall-clock regressed {wall_pct:+.1}% \
             ({:.1}ms → {:.1}ms), tolerance {}%",
            base.wall_ms, cur.wall_ms, tol.wall_pct
        ));
    }
    if tput_fail {
        report.failures.push(format!(
            "{key}: throughput dropped {tput_pct:+.1}% \
             ({:.0} → {:.0} sim-cycles/s), tolerance {}%",
            base.sim_cycles_per_sec, cur.sim_cycles_per_sec, tol.tput_pct
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::super::schema::{BenchEnv, BenchMatrix};
    use super::*;

    fn cell(regime: &str, wall_ms: f64) -> BenchCell {
        BenchCell {
            regime: regime.into(),
            topology: "mesh8x8".into(),
            jobs_label: "j1".into(),
            jobs: 1,
            engine_cells: 12,
            wall_ms,
            cpu_s: wall_ms / 1000.0,
            cell_cpu_s: wall_ms / 1000.0,
            max_rss_bytes: 10 << 20,
            sim_cycles: 500_000,
            flits: 800_000,
            sim_cycles_per_sec: 500_000.0 / (wall_ms / 1000.0),
            flits_per_sec: 800_000.0 / (wall_ms / 1000.0),
            duration_ns: 3_000,
            traces: 4,
            seed: 0,
        }
    }

    fn matrix(cells: Vec<BenchCell>) -> BenchMatrix {
        BenchMatrix {
            profile: "quick".into(),
            env: BenchEnv::default(),
            cells,
        }
    }

    #[test]
    fn identical_matrices_pass() {
        let m = matrix(vec![cell("light", 400.0), cell("saturation", 1500.0)]);
        let r = compare(&m, &m);
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn large_slowdown_fails_small_wiggle_passes() {
        let base = matrix(vec![cell("saturation", 1500.0)]);
        // +50% on a long cell: definitely above both threshold and floor.
        let slow = matrix(vec![cell("saturation", 2250.0)]);
        assert!(!compare(&slow, &base).passed());
        // +5%: inside the 20% tolerance.
        let ok = matrix(vec![cell("saturation", 1575.0)]);
        assert!(compare(&ok, &base).passed());
    }

    #[test]
    fn noise_floor_shields_short_cells() {
        let base = matrix(vec![cell("light", 100.0)]);
        // +80% but only 80 ms of movement: under the 120 ms floor.
        let wiggle = matrix(vec![cell("light", 180.0)]);
        let r = compare(&wiggle, &base);
        assert!(r.passed(), "{}", r.render());
        assert!(r.render().contains("noise floor"));
    }

    #[test]
    fn missing_cell_fails() {
        let base = matrix(vec![cell("light", 400.0), cell("saturation", 1500.0)]);
        let cur = matrix(vec![cell("light", 400.0)]);
        let r = compare(&cur, &base);
        assert!(!r.passed());
        assert!(r.failures[0].contains("missing from this run"));
    }

    #[test]
    fn extra_cell_is_note_not_failure() {
        let base = matrix(vec![cell("light", 400.0)]);
        let cur = matrix(vec![cell("light", 400.0), cell("saturation", 1500.0)]);
        let r = compare(&cur, &base);
        assert!(r.passed());
        assert_eq!(r.notes.len(), 1);
    }

    #[test]
    fn profile_mismatch_fails_outright() {
        let base = matrix(vec![cell("light", 400.0)]);
        let mut cur = matrix(vec![cell("light", 400.0)]);
        cur.profile = "full".into();
        let r = compare(&cur, &base);
        assert!(!r.passed());
        assert!(r.failures[0].contains("profile mismatch"));
    }

    #[test]
    fn workload_drift_fails_with_rebaseline_advice() {
        let base = matrix(vec![cell("light", 400.0)]);
        let mut cur = matrix(vec![cell("light", 400.0)]);
        cur.cells[0].flits += 1;
        let r = compare(&cur, &base);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("workload drift"),
            "{}",
            r.failures[0]
        );
        assert!(r.failures[0].contains("--write-baseline"));
    }

    #[test]
    fn throughput_drop_fails_even_if_wall_borderline() {
        // Construct a cell where wall grows 25% (above light's 30%? no —
        // keep regime saturation: tolerance 20) and throughput drops in
        // step. Both checks fire; at minimum the gate fails.
        let base = matrix(vec![cell("saturation", 1000.0)]);
        let cur = matrix(vec![cell("saturation", 1300.0)]);
        let r = compare(&cur, &base);
        assert!(!r.passed());
    }

    #[test]
    fn light_regime_is_looser_than_saturation() {
        assert!(tolerance("light").wall_pct > tolerance("saturation").wall_pct);
        assert!(tolerance("pathological-hotspot").wall_pct <= 20.0);
    }
}
