//! The frozen on-disk shape of `BENCH_matrix.json`.
//!
//! Everything the harness writes — and everything `--compare` is
//! willing to read — goes through [`BenchMatrix::to_value`] /
//! [`BenchMatrix::from_value`]. The version lives in
//! [`BENCH_SCHEMA_VERSION`]; any drift between a baseline file and the
//! running harness is a loud, non-negotiable error rather than a
//! silently-wrong comparison. Bump the version whenever a field is
//! added, removed, or changes meaning, and regenerate the committed
//! baseline in the same commit.

use serde_json::{Number, Value};

/// Version of the `BENCH_matrix.json` shape. A baseline with any other
/// value is rejected by [`BenchMatrix::from_value`]. v3 has the same
/// cell shape as v1; v2 carried an extra engine-config axis that is
/// gone, so v2 baselines are refused rather than silently re-keyed.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// Environment fingerprint captured at matrix time. Informational:
/// the gate compares numbers, humans compare environments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchEnv {
    /// Hostname the matrix ran on.
    pub host: String,
    /// Available hardware parallelism (the `jN` jobs count).
    pub cores: u64,
    /// `rustc --version` line.
    pub rustc: String,
    /// Short git revision of the tree (may carry a `-dirty` suffix).
    pub git_rev: String,
}

/// One measured (regime × topology × jobs) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Regime name as emitted by `dozznoc_bench::regimes::Regime`.
    pub regime: String,
    /// Topology name (`mesh8x8` | `cmesh4x4`).
    pub topology: String,
    /// Jobs-axis label: `"j1"` or `"jN"`. Keys the comparison so a
    /// 4-core baseline and a 32-core rerun still pair cells up.
    pub jobs_label: String,
    /// The concrete worker count behind the label on this machine.
    pub jobs: u64,
    /// Engine cells (traces × specs) the measurement covered.
    pub engine_cells: u64,
    /// Wall-clock of the measured engine region, milliseconds.
    pub wall_ms: f64,
    /// Process CPU time over the measured region, seconds.
    pub cpu_s: f64,
    /// Sum of per-cell worker-thread CPU time, seconds.
    pub cell_cpu_s: f64,
    /// Peak RSS over the measured region, bytes (0 where unsupported).
    pub max_rss_bytes: u64,
    /// Simulated base-clock ticks summed over all engine cells.
    pub sim_cycles: u64,
    /// Flits delivered, summed over all engine cells.
    pub flits: u64,
    /// `sim_cycles / wall`, the primary throughput figure.
    pub sim_cycles_per_sec: f64,
    /// `flits / wall`, the secondary throughput figure.
    pub flits_per_sec: f64,
    /// Trace horizon per trace, nanoseconds (profile parameter).
    pub duration_ns: u64,
    /// Traces per cell (profile parameter).
    pub traces: u64,
    /// Base trace seed.
    pub seed: u64,
}

impl BenchCell {
    /// Stable identity of the cell inside a matrix.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.regime, self.topology, self.jobs_label)
    }
}

/// A full bench run: header, environment, cells.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMatrix {
    /// Measurement profile (`"quick"` | `"full"`). Comparing across
    /// profiles is meaningless, so `--compare` refuses it.
    pub profile: String,
    /// Environment fingerprint.
    pub env: BenchEnv,
    /// Measured cells, matrix order.
    pub cells: Vec<BenchCell>,
}

impl BenchMatrix {
    /// Serialize to the versioned JSON tree.
    pub fn to_value(&self) -> Value {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("regime".into(), Value::String(c.regime.clone())),
                    ("topology".into(), Value::String(c.topology.clone())),
                    ("jobs_label".into(), Value::String(c.jobs_label.clone())),
                    ("jobs".into(), Value::Number(Number::PosInt(c.jobs))),
                    (
                        "engine_cells".into(),
                        Value::Number(Number::PosInt(c.engine_cells)),
                    ),
                    ("wall_ms".into(), Value::Number(Number::Float(c.wall_ms))),
                    ("cpu_s".into(), Value::Number(Number::Float(c.cpu_s))),
                    (
                        "cell_cpu_s".into(),
                        Value::Number(Number::Float(c.cell_cpu_s)),
                    ),
                    (
                        "max_rss_bytes".into(),
                        Value::Number(Number::PosInt(c.max_rss_bytes)),
                    ),
                    (
                        "sim_cycles".into(),
                        Value::Number(Number::PosInt(c.sim_cycles)),
                    ),
                    ("flits".into(), Value::Number(Number::PosInt(c.flits))),
                    (
                        "sim_cycles_per_sec".into(),
                        Value::Number(Number::Float(c.sim_cycles_per_sec)),
                    ),
                    (
                        "flits_per_sec".into(),
                        Value::Number(Number::Float(c.flits_per_sec)),
                    ),
                    (
                        "duration_ns".into(),
                        Value::Number(Number::PosInt(c.duration_ns)),
                    ),
                    ("traces".into(), Value::Number(Number::PosInt(c.traces))),
                    ("seed".into(), Value::Number(Number::PosInt(c.seed))),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "bench_schema".into(),
                Value::Number(Number::PosInt(BENCH_SCHEMA_VERSION)),
            ),
            ("profile".into(), Value::String(self.profile.clone())),
            (
                "env".into(),
                Value::Object(vec![
                    ("host".into(), Value::String(self.env.host.clone())),
                    (
                        "cores".into(),
                        Value::Number(Number::PosInt(self.env.cores)),
                    ),
                    ("rustc".into(), Value::String(self.env.rustc.clone())),
                    ("git_rev".into(), Value::String(self.env.git_rev.clone())),
                ]),
            ),
            ("cells".into(), Value::Array(cells)),
        ])
    }

    /// Parse and validate a matrix tree. Schema-version drift is the
    /// first check and produces a self-explanatory error.
    pub fn from_value(v: &Value) -> Result<BenchMatrix, String> {
        let schema = v
            .get("bench_schema")
            .and_then(Value::as_u64)
            .ok_or("not a bench matrix: missing `bench_schema`")?;
        if schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench schema mismatch: file is v{schema}, this harness speaks \
                 v{BENCH_SCHEMA_VERSION} — regenerate the baseline with \
                 `cargo xtask bench --write-baseline`"
            ));
        }
        let profile = str_field(v, "profile")?;
        let env = v.get("env").ok_or("missing `env`")?;
        let env = BenchEnv {
            host: str_field(env, "host")?,
            cores: u64_field(env, "cores")?,
            rustc: str_field(env, "rustc")?,
            git_rev: str_field(env, "git_rev")?,
        };
        let cells = v
            .get("cells")
            .and_then(Value::as_array)
            .ok_or("missing `cells` array")?
            .iter()
            .map(|c| {
                Ok(BenchCell {
                    regime: str_field(c, "regime")?,
                    topology: str_field(c, "topology")?,
                    jobs_label: str_field(c, "jobs_label")?,
                    jobs: u64_field(c, "jobs")?,
                    engine_cells: u64_field(c, "engine_cells")?,
                    wall_ms: f64_field(c, "wall_ms")?,
                    cpu_s: f64_field(c, "cpu_s")?,
                    cell_cpu_s: f64_field(c, "cell_cpu_s")?,
                    max_rss_bytes: u64_field(c, "max_rss_bytes")?,
                    sim_cycles: u64_field(c, "sim_cycles")?,
                    flits: u64_field(c, "flits")?,
                    sim_cycles_per_sec: f64_field(c, "sim_cycles_per_sec")?,
                    flits_per_sec: f64_field(c, "flits_per_sec")?,
                    duration_ns: u64_field(c, "duration_ns")?,
                    traces: u64_field(c, "traces")?,
                    seed: u64_field(c, "seed")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchMatrix {
            profile,
            env,
            cells,
        })
    }

    /// Parse a matrix from JSON text (baseline files, fixtures).
    pub fn from_json(text: &str) -> Result<BenchMatrix, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        BenchMatrix::from_value(&v)
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_cell(regime: &str, topo: &str, label: &str, wall_ms: f64) -> BenchCell {
        BenchCell {
            regime: regime.into(),
            topology: topo.into(),
            jobs_label: label.into(),
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

    fn sample_matrix() -> BenchMatrix {
        BenchMatrix {
            profile: "quick".into(),
            env: BenchEnv {
                host: "ci".into(),
                cores: 4,
                rustc: "rustc 1.99.0".into(),
                git_rev: "abc1234".into(),
            },
            cells: vec![
                sample_cell("light", "mesh8x8", "j1", 400.0),
                sample_cell("saturation", "mesh8x8", "jN", 1500.0),
            ],
        }
    }

    #[test]
    fn matrix_round_trips() {
        let m = sample_matrix();
        let text = serde_json::to_string_pretty(&m.to_value()).expect("tree");
        let back = BenchMatrix::from_json(&text).expect("parse back");
        assert_eq!(back, m);
    }

    #[test]
    fn schema_drift_is_a_loud_error() {
        let mut v = sample_matrix().to_value();
        if let Some(s) = v.get_mut("bench_schema") {
            *s = Value::Number(Number::PosInt(BENCH_SCHEMA_VERSION + 1));
        }
        let err = BenchMatrix::from_value(&v).expect_err("must reject");
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("--write-baseline"), "{err}");
    }

    #[test]
    fn non_matrix_json_is_rejected() {
        assert!(BenchMatrix::from_json("{\"findings\": []}").is_err());
        assert!(BenchMatrix::from_json("[]").is_err());
        assert!(BenchMatrix::from_json("not json").is_err());
    }

    #[test]
    fn cell_key_is_regime_topo_jobs() {
        let c = sample_cell("light", "mesh8x8", "j1", 1.0);
        assert_eq!(c.key(), "light/mesh8x8/j1");
    }
}
