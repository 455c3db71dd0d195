//! Findings, per-harness outcomes and the frozen `MODEL_CHECK.json`
//! report schema (v2: v1 had a lost-wakeup finding kind, gone with
//! the spin-yield primitives that could produce it).
//!
//! The report is a machine-readable artifact uploaded by CI; its shape
//! is frozen the same way `core::model::Report` is: additive changes
//! bump `schema_version`.

use serde::{Deserialize, Serialize};

/// Schema version of [`Report`]. Bump on any non-additive change.
pub const SCHEMA_VERSION: u32 = 2;

/// What kind of concurrency defect a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FindingKind {
    /// A thread is blocked (mutex/join) and nothing can run.
    Deadlock,
    /// A `RaceCell` access pair with no happens-before edge: a torn
    /// read or write on non-atomic shared state.
    DataRace,
    /// A harness assertion or any other user panic escaped a thread.
    AssertionFailure,
    /// A replayed trace disagreed with the execution: the harness is
    /// nondeterministic outside its facade touchpoints (itself a bug).
    Divergence,
}

/// One defect with everything needed to reproduce it byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Harness that produced the finding.
    pub harness: String,
    pub kind: FindingKind,
    /// Human-readable description of the defect.
    pub message: String,
    /// Replayable decision trace (`.`-joined branch indices). Feed to
    /// `cargo xtask model-check --replay <harness>:<trace>` or
    /// [`crate::replay`] to reproduce the identical execution.
    pub trace: String,
    /// FNV-1a of `harness:trace` — a short stable handle for the
    /// finding, printed in CI logs.
    pub seed: u64,
    /// The scheduled operations of the failing execution, in order.
    pub schedule: Vec<String>,
}

/// Result of exploring one harness.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outcome {
    pub harness: String,
    /// Executions actually run.
    pub executions: u64,
    /// Total scheduled operations across all executions.
    pub steps: u64,
    /// Executions cut short by the per-execution step budget.
    pub truncated: u64,
    /// The DFS tree was fully explored (within the preemption bound,
    /// if one is set) — the strongest statement the checker makes.
    pub exhausted: bool,
    /// Preemption bound in force, if any (`None` = unbounded).
    pub preemption_bound: Option<u64>,
    pub findings: Vec<Finding>,
}

impl Outcome {
    /// Exhausted with zero findings: the harness is verified within
    /// the model and bound.
    pub fn clean(&self) -> bool {
        self.exhausted && self.findings.is_empty() && self.truncated == 0
    }
}

/// The full `MODEL_CHECK.json` artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    pub schema_version: u32,
    /// All harness outcomes, in registry order.
    pub outcomes: Vec<Outcome>,
}

impl Report {
    pub fn new(outcomes: Vec<Outcome>) -> Self {
        Report {
            schema_version: SCHEMA_VERSION,
            outcomes,
        }
    }

    /// Every harness exhausted with zero findings.
    pub fn all_clean(&self) -> bool {
        self.outcomes.iter().all(Outcome::clean)
    }
}

/// FNV-1a seed for a finding handle.
pub fn finding_seed(harness: &str, trace: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in harness.bytes().chain([b':']).chain(trace.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = Report::new(vec![Outcome {
            harness: "cache_publish".to_string(),
            executions: 12,
            steps: 340,
            truncated: 0,
            exhausted: true,
            preemption_bound: Some(3),
            findings: vec![Finding {
                harness: "cache_publish".to_string(),
                kind: FindingKind::Deadlock,
                message: "no schedulable thread".to_string(),
                trace: "0.1.2".to_string(),
                seed: finding_seed("cache_publish", "0.1.2"),
                schedule: vec!["t0 spawn t1".to_string()],
            }],
        }]);
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        let back: Report = serde_json::from_str(&json).expect("report deserializes");
        assert_eq!(back, report);
        assert!(!report.all_clean());
    }

    #[test]
    fn seeds_are_stable_and_distinguish_traces() {
        assert_eq!(
            finding_seed("h", "0.1"),
            finding_seed("h", "0.1"),
            "seed is a pure function of harness and trace"
        );
        assert_ne!(finding_seed("h", "0.1"), finding_seed("h", "0.2"));
        assert_ne!(finding_seed("a", ""), finding_seed("b", ""));
    }
}
