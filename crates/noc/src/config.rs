//! Simulator configuration.

use serde::{Deserialize, Serialize};

use dozznoc_topology::{DimOrder, Topology};
use dozznoc_types::{ConfigError, MIN_EPOCH_CYCLES};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Network topology.
    pub topology: Topology,
    /// Virtual channels per input port.
    pub vcs_per_port: usize,
    /// Flit capacity of one VC buffer.
    pub vc_depth: usize,
    /// Epoch length in router-local cycles (paper default: 500; the
    /// trade-off study sweeps 100–1000).
    pub epoch_cycles: u64,
    /// Consecutive idle cycles required before a router may gate off
    /// (paper: T-Idle = 4, following Catnap).
    pub t_idle: u64,
    /// Router pipeline depth in local cycles (BW/RC → VA/SA → ST): a
    /// flit spends this many cycles in a router before its link
    /// traversal. Classic input-buffered routers are 3–4 stages.
    pub pipeline_cycles: u64,
    /// Dimension order of the DOR routing function (paper: XY).
    pub routing: DimOrder,
    /// Power Punch-style wake punching: at injection, wake signals race
    /// down the packet's entire XY path so gated routers charge while
    /// the packet is still upstream. Disabling it (ablation) leaves only
    /// the one-hop look-ahead wake at route compute, so packets pay
    /// nearly a full T-Wakeup per gated hop.
    pub wake_punch: bool,
    /// Hard safety limit on simulated ticks (guards against livelock in
    /// buggy policies; generous: ~20× a typical trace horizon).
    pub max_ticks: u64,
}

impl NocConfig {
    /// The paper's configuration for a topology: 4 VCs × 4 flits,
    /// epoch 500, T-Idle 4.
    pub fn paper(topology: Topology) -> Self {
        NocConfig {
            topology,
            vcs_per_port: 4,
            vc_depth: 4,
            epoch_cycles: 500,
            t_idle: 4,
            pipeline_cycles: 3,
            routing: DimOrder::Xy,
            wake_punch: true,
            max_ticks: 40_000_000, // ≈ 2.2 ms of simulated time
        }
    }

    /// Override the epoch size (the §IV-B sweep). Rejects epochs
    /// shorter than [`MIN_EPOCH_CYCLES`] local cycles.
    #[must_use = "the updated builder is returned, not applied in place"]
    pub fn try_with_epoch_cycles(mut self, epoch_cycles: u64) -> Result<Self, ConfigError> {
        if epoch_cycles < MIN_EPOCH_CYCLES {
            return Err(ConfigError::DegenerateEpoch { epoch_cycles });
        }
        self.epoch_cycles = epoch_cycles;
        Ok(self)
    }

    /// Override the router pipeline depth. Rejects zero: the ready-tick
    /// arithmetic books `pipeline_cycles - 1` extra cycles per buffered
    /// flit, so a zero depth would underflow the tick math.
    #[must_use = "the updated builder is returned, not applied in place"]
    pub fn try_with_pipeline_cycles(mut self, pipeline_cycles: u64) -> Result<Self, ConfigError> {
        if pipeline_cycles == 0 {
            return Err(ConfigError::DegeneratePipeline { pipeline_cycles });
        }
        self.pipeline_cycles = pipeline_cycles;
        Ok(self)
    }

    /// Override T-Idle.
    #[must_use]
    pub fn with_t_idle(mut self, t_idle: u64) -> Self {
        self.t_idle = t_idle;
        self
    }

    /// Use a different DOR dimension order (routing-sensitivity
    /// experiments).
    #[must_use]
    pub fn with_routing(mut self, routing: DimOrder) -> Self {
        self.routing = routing;
        self
    }

    /// Disable Power Punch-style path wake punching (ablation).
    pub fn without_wake_punch(mut self) -> Self {
        self.wake_punch = false;
        self
    }

    /// Total flit capacity of one router's input buffers (the IBU
    /// denominator: the paper's "theoretical maximum").
    pub fn buffer_capacity(&self) -> usize {
        self.topology.ports_per_router() * self.vcs_per_port * self.vc_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = NocConfig::paper(Topology::mesh8x8());
        assert_eq!(c.vcs_per_port, 4);
        assert_eq!(c.vc_depth, 4);
        assert_eq!(c.epoch_cycles, 500);
        assert_eq!(c.t_idle, 4);
    }

    #[test]
    fn buffer_capacity_scales_with_ports() {
        let mesh = NocConfig::paper(Topology::mesh8x8());
        assert_eq!(mesh.buffer_capacity(), 5 * 4 * 4);
        let cmesh = NocConfig::paper(Topology::cmesh4x4());
        assert_eq!(cmesh.buffer_capacity(), 8 * 4 * 4);
    }

    #[test]
    fn builders() {
        let c = NocConfig::paper(Topology::mesh8x8())
            .try_with_epoch_cycles(100)
            .expect("epoch 100 is valid")
            .with_t_idle(8);
        assert_eq!(c.epoch_cycles, 100);
        assert_eq!(c.t_idle, 8);
    }

    #[test]
    fn zero_pipeline_rejected() {
        let err = NocConfig::paper(Topology::mesh8x8())
            .try_with_pipeline_cycles(0)
            .expect_err("zero pipeline must be rejected");
        assert_eq!(
            err,
            dozznoc_types::ConfigError::DegeneratePipeline { pipeline_cycles: 0 }
        );
        // A single-stage pipeline (ST only) is the boundary and is fine.
        let c = NocConfig::paper(Topology::mesh8x8())
            .try_with_pipeline_cycles(1)
            .expect("pipeline depth 1 is valid");
        assert_eq!(c.pipeline_cycles, 1);
    }

    #[test]
    fn tiny_epoch_rejected() {
        let err = NocConfig::paper(Topology::mesh8x8())
            .try_with_epoch_cycles(1)
            .expect_err("degenerate epoch must be rejected");
        assert_eq!(
            err,
            dozznoc_types::ConfigError::DegenerateEpoch { epoch_cycles: 1 }
        );
        // The boundary value is accepted.
        assert!(NocConfig::paper(Topology::mesh8x8())
            .try_with_epoch_cycles(dozznoc_types::MIN_EPOCH_CYCLES)
            .is_ok());
    }
}
