//! Configuration validation errors.
//!
//! The builder APIs (`NocConfig`, `Campaign`, `Trainer`) validate their
//! inputs and return one of these instead of panicking. The enum is
//! hand-rolled (no `thiserror`): the workspace builds offline and the
//! error surface is small enough that a derive buys nothing.

use serde::{Deserialize, Serialize};

/// Smallest epoch the simulator accepts, in router-local cycles.
///
/// Below this the epoch observation degenerates: per-cycle rates are
/// computed over so few samples that the ML features are pure noise, and
/// the mode-switch stall (T-Switch, up to 36 cycles at M3) would span
/// multiple epochs.
pub const MIN_EPOCH_CYCLES: u64 = 10;

/// A rejected configuration value, with enough context to print a
/// actionable message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// Epoch shorter than [`MIN_EPOCH_CYCLES`] local cycles.
    DegenerateEpoch {
        /// The rejected epoch length.
        epoch_cycles: u64,
    },
    /// Time-compression factor of zero (a factor of 1 means
    /// "uncompressed"; zero would divide injection times away).
    ZeroCompression,
    /// Load-scale fraction with a zero numerator or denominator.
    ZeroLoadScale {
        /// Numerator of the rejected `num/den` injection-time scale.
        num: u64,
        /// Denominator of the rejected scale.
        den: u64,
    },
    /// A campaign restricted to an empty model set would run nothing and
    /// produce summaries with no baseline row.
    EmptyModelSet,
    /// Router pipeline depth of zero: the ready-tick arithmetic charges
    /// `pipeline_cycles - 1` extra cycles per buffered flit, so a zero
    /// depth would underflow (a flit must spend at least the ST cycle in
    /// a router anyway).
    DegeneratePipeline {
        /// The rejected pipeline depth.
        pipeline_cycles: u64,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::DegenerateEpoch { epoch_cycles } => write!(
                f,
                "degenerate epoch: {epoch_cycles} cycles (minimum {MIN_EPOCH_CYCLES})"
            ),
            ConfigError::ZeroCompression => {
                write!(f, "compression factor must be at least 1")
            }
            ConfigError::ZeroLoadScale { num, den } => {
                write!(f, "load scale {num}/{den} has a zero term")
            }
            ConfigError::EmptyModelSet => write!(f, "campaign model set is empty"),
            ConfigError::DegeneratePipeline { pipeline_cycles } => write!(
                f,
                "degenerate router pipeline: {pipeline_cycles} cycles (minimum 1)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_value() {
        let e = ConfigError::DegenerateEpoch { epoch_cycles: 3 };
        let msg = e.to_string();
        assert!(msg.contains("degenerate epoch"), "{msg}");
        assert!(msg.contains('3'), "{msg}");
        assert!(ConfigError::ZeroLoadScale { num: 0, den: 2 }
            .to_string()
            .contains("0/2"));
    }

    #[test]
    fn round_trips_through_serde() {
        let e = ConfigError::ZeroLoadScale { num: 0, den: 3 };
        let json = serde_json::to_string(&e).unwrap();
        let back: ConfigError = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
