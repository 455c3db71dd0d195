//! Per-router energy accounting.
//!
//! The simulator bills three currencies to the ledger:
//!
//! * **static energy** — state residency × leakage power (Table V J/s).
//!   Inactive routers draw nothing; a waking router is billed at its
//!   target mode's full power (paper: "While in the wakeup state, the
//!   router consumes the same amount of power as if it were in active
//!   state"), which is exactly what makes T-Breakeven meaningful.
//! * **dynamic energy** — one Table V pJ/hop charge per flit crossing a
//!   router + outgoing link, at the upstream router's current mode.
//! * **ML overhead** — one label computation per router per epoch
//!   (§III-D: 7.1 pJ for 5 features).
//!
//! The ledger also integrates state-residency statistics (off time, time
//! per mode) that double as ML features and as the Fig. 7 mode-residency
//! report.

use serde::{Deserialize, Serialize};

use dozznoc_types::{Mode, PowerState, RouterId, TickDelta, ACTIVE_MODES};

use crate::dsent::DsentCosts;
use crate::overhead::MlOverhead;
use crate::regulator::simo::SimoRegulator;

/// Accumulated energy and residency for one router.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RouterEnergy {
    /// Leakage energy billed so far, joules.
    pub static_j: f64,
    /// Switching (traffic) energy billed so far, joules.
    pub dynamic_j: f64,
    /// ML label-generation energy billed so far, joules.
    pub ml_j: f64,
    /// Rail-transition (wake/switch) energy billed so far, joules
    /// (reported separately; the paper's accounting excludes it).
    pub transition_j: f64,
    /// Residency per active mode (index = `Mode::rank`).
    pub time_active: [TickDelta; 5],
    /// Residency in the wakeup state.
    pub time_wakeup: TickDelta,
    /// Residency power-gated.
    pub time_inactive: TickDelta,
    /// Flit-hops billed.
    pub flit_hops: u64,
    /// Labels computed.
    pub labels: u64,
    /// Wake-up events.
    pub wakeups: u64,
    /// Power-gate-off events.
    pub gate_offs: u64,
    /// Gate-off events whose off-residency missed T-Breakeven.
    pub breakeven_violations: u64,
}

/// Energy and event deltas between two ledger snapshots of one router —
/// what telemetry reports per epoch ("how much did this epoch cost").
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyDelta {
    /// Leakage energy billed over the interval, joules.
    pub static_j: f64,
    /// Traffic energy billed over the interval, joules.
    pub dynamic_j: f64,
    /// ML label-generation energy billed over the interval, joules.
    pub ml_j: f64,
    /// Rail-transition energy billed over the interval, joules.
    pub transition_j: f64,
    /// Flit-hops billed over the interval.
    pub flit_hops: u64,
    /// Wake-up events over the interval.
    pub wakeups: u64,
    /// Gate-off events over the interval.
    pub gate_offs: u64,
}

impl EnergyDelta {
    /// Total NoC energy over the interval (static + dynamic + ML;
    /// transition energy reported separately, as in the paper).
    pub fn total_j(&self) -> f64 {
        self.static_j + self.dynamic_j + self.ml_j
    }
}

impl RouterEnergy {
    /// The energy billed between snapshot `prev` and `self` (two
    /// observations of the same router's ledger entry, `prev` earlier).
    pub fn delta_since(&self, prev: &RouterEnergy) -> EnergyDelta {
        EnergyDelta {
            static_j: self.static_j - prev.static_j,
            dynamic_j: self.dynamic_j - prev.dynamic_j,
            ml_j: self.ml_j - prev.ml_j,
            transition_j: self.transition_j - prev.transition_j,
            flit_hops: self.flit_hops - prev.flit_hops,
            wakeups: self.wakeups - prev.wakeups,
            gate_offs: self.gate_offs - prev.gate_offs,
        }
    }

    /// Total residency across all states.
    pub fn total_time(&self) -> TickDelta {
        let mut t = self.time_wakeup + self.time_inactive;
        for ta in self.time_active {
            t += ta;
        }
        t
    }

    /// Fraction of time spent power-gated.
    pub fn off_fraction(&self) -> f64 {
        let total = self.total_time().ticks();
        if total == 0 {
            0.0
        } else {
            self.time_inactive.ticks() as f64 / total as f64
        }
    }
}

/// Ledger over all routers of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyLedger {
    costs: DsentCosts,
    simo: SimoRegulator,
    routers: Vec<RouterEnergy>,
}

impl EnergyLedger {
    /// A fresh ledger for `num_routers` routers using the paper's cost
    /// tables.
    pub fn new(num_routers: usize) -> Self {
        EnergyLedger {
            costs: DsentCosts::paper(),
            simo: SimoRegulator::default(),
            routers: vec![RouterEnergy::default(); num_routers],
        }
    }

    /// A ledger with custom costs (for ablations).
    #[must_use]
    pub fn with_costs(num_routers: usize, costs: DsentCosts) -> Self {
        EnergyLedger {
            costs,
            simo: SimoRegulator::default(),
            routers: vec![RouterEnergy::default(); num_routers],
        }
    }

    /// The cost table in force.
    pub fn costs(&self) -> &DsentCosts {
        &self.costs
    }

    /// Bill `dt` of residency in `state` to `router`.
    pub fn bill_residency(&mut self, router: RouterId, state: PowerState, dt: TickDelta) {
        let e = &mut self.routers[router.idx()];
        match state {
            PowerState::Inactive => e.time_inactive += dt,
            PowerState::Wakeup { target, .. } => {
                e.time_wakeup += dt;
                e.static_j += self.costs.static_power_w(target) * dt.as_secs();
            }
            PowerState::Active(m) => {
                e.time_active[m.rank()] += dt;
                e.static_j += self.costs.static_power_w(m) * dt.as_secs();
            }
        }
    }

    /// Bill one flit-hop (router + link traversal) at `mode` to `router`.
    #[inline]
    pub fn bill_hop(&mut self, router: RouterId, mode: Mode) {
        let e = &mut self.routers[router.idx()];
        e.dynamic_j += self.costs.dynamic_j_per_hop(mode);
        e.flit_hops += 1;
    }

    /// Bill one ML label computation to `router`.
    #[inline]
    pub fn bill_label(&mut self, router: RouterId, overhead: &MlOverhead) {
        let e = &mut self.routers[router.idx()];
        e.ml_j += overhead.energy_j();
        e.labels += 1;
    }

    /// Record a wake-up event.
    #[inline]
    pub fn note_wakeup(&mut self, router: RouterId) {
        self.routers[router.idx()].wakeups += 1;
    }

    /// Bill rail-transition energy (wake-up charge or DVFS step).
    #[inline]
    pub fn bill_transition(&mut self, router: RouterId, joules: f64) {
        debug_assert!(joules >= 0.0 && joules.is_finite());
        self.routers[router.idx()].transition_j += joules;
    }

    /// Record a power-gate-off event; `met_breakeven` reports whether the
    /// subsequent off-residency reached T-Breakeven (recorded at wake).
    #[inline]
    pub fn note_gate_off(&mut self, router: RouterId) {
        self.routers[router.idx()].gate_offs += 1;
    }

    /// Record that an off-period ended before its break-even time.
    #[inline]
    pub fn note_breakeven_violation(&mut self, router: RouterId) {
        self.routers[router.idx()].breakeven_violations += 1;
    }

    /// Per-router view.
    pub fn router(&self, router: RouterId) -> &RouterEnergy {
        &self.routers[router.idx()]
    }

    /// All per-router records.
    pub fn routers(&self) -> &[RouterEnergy] {
        &self.routers
    }

    /// Aggregate the ledger into a report.
    pub fn report(&self) -> EnergyReport {
        let mut r = EnergyReport::default();
        for e in &self.routers {
            r.static_j += e.static_j;
            r.dynamic_j += e.dynamic_j;
            r.ml_j += e.ml_j;
            r.transition_j += e.transition_j;
            r.flit_hops += e.flit_hops;
            r.labels += e.labels;
            r.wakeups += e.wakeups;
            r.gate_offs += e.gate_offs;
            r.breakeven_violations += e.breakeven_violations;
            r.time_inactive += e.time_inactive;
            r.time_wakeup += e.time_wakeup;
            for (i, t) in e.time_active.iter().enumerate() {
                r.time_active[i] += *t;
            }
            // Wall energy: what the battery supplies once regulator
            // losses are applied per operating voltage.
            for (i, m) in ACTIVE_MODES.iter().enumerate() {
                let static_at_mode = self.costs.static_power_w(*m) * e.time_active[i].as_secs();
                r.wall_static_j += static_at_mode / self.simo.efficiency_at(*m);
            }
            // Wakeup residency is billed at the target mode, which we do
            // not track per-mode; bill conservatively at the worst
            // efficiency (M3's rail).
            let wakeup_j = e.static_j
                - ACTIVE_MODES
                    .iter()
                    .enumerate()
                    .map(|(i, m)| self.costs.static_power_w(*m) * e.time_active[i].as_secs())
                    .sum::<f64>();
            r.wall_static_j += wakeup_j.max(0.0) / self.simo.efficiency_at(Mode::M3);
        }
        r
    }
}

/// Aggregated energy totals for one run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Total leakage energy at the NoC, joules.
    pub static_j: f64,
    /// Total traffic energy, joules.
    pub dynamic_j: f64,
    /// Total ML overhead energy, joules.
    pub ml_j: f64,
    /// Total rail-transition energy, joules (excluded from the paper's
    /// dynamic/static split; reported for the transition-cost study).
    pub transition_j: f64,
    /// Leakage energy as supplied by the battery, including regulator
    /// conversion losses, joules.
    pub wall_static_j: f64,
    /// Total flit-hops.
    pub flit_hops: u64,
    /// Total labels computed.
    pub labels: u64,
    /// Total wake-ups.
    pub wakeups: u64,
    /// Total gate-off events.
    pub gate_offs: u64,
    /// Gate-offs that missed T-Breakeven.
    pub breakeven_violations: u64,
    /// Aggregate residency power-gated.
    pub time_inactive: TickDelta,
    /// Aggregate residency waking.
    pub time_wakeup: TickDelta,
    /// Aggregate residency per active mode.
    pub time_active: [TickDelta; 5],
}

impl EnergyReport {
    /// Dynamic energy including the ML overhead (the paper folds label
    /// cost into runtime overhead).
    pub fn dynamic_with_ml_j(&self) -> f64 {
        self.dynamic_j + self.ml_j
    }

    /// Total router-time across all states.
    pub fn total_time(&self) -> TickDelta {
        let mut t = self.time_inactive + self.time_wakeup;
        for ta in self.time_active {
            t += ta;
        }
        t
    }

    /// Fraction of aggregate router-time spent power-gated.
    pub fn off_fraction(&self) -> f64 {
        let total = self.total_time().ticks();
        if total == 0 {
            0.0
        } else {
            self.time_inactive.ticks() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dozznoc_types::SimTime;

    const SEC: u64 = 18_000_000_000; // one second of base ticks

    fn wake(target: Mode) -> PowerState {
        PowerState::Wakeup {
            target,
            until: SimTime::ZERO,
        }
    }

    #[test]
    fn residency_billing_uses_table_v() {
        let mut l = EnergyLedger::new(2);
        l.bill_residency(
            RouterId(0),
            PowerState::Active(Mode::M7),
            TickDelta::from_ticks(SEC),
        );
        l.bill_residency(
            RouterId(1),
            PowerState::Active(Mode::M3),
            TickDelta::from_ticks(SEC),
        );
        assert!((l.router(RouterId(0)).static_j - 0.054).abs() < 1e-9);
        assert!((l.router(RouterId(1)).static_j - 0.036).abs() < 1e-9);
    }

    #[test]
    fn inactive_draws_nothing() {
        let mut l = EnergyLedger::new(1);
        l.bill_residency(
            RouterId(0),
            PowerState::Inactive,
            TickDelta::from_ticks(SEC),
        );
        assert_eq!(l.router(RouterId(0)).static_j, 0.0);
        assert_eq!(l.router(RouterId(0)).time_inactive.ticks(), SEC);
        assert!((l.router(RouterId(0)).off_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wakeup_billed_at_target_power() {
        let mut l = EnergyLedger::new(1);
        l.bill_residency(RouterId(0), wake(Mode::M7), TickDelta::from_ticks(SEC));
        assert!((l.router(RouterId(0)).static_j - 0.054).abs() < 1e-9);
        assert_eq!(l.router(RouterId(0)).time_wakeup.ticks(), SEC);
    }

    #[test]
    fn hop_billing() {
        let mut l = EnergyLedger::new(1);
        for _ in 0..1000 {
            l.bill_hop(RouterId(0), Mode::M7);
        }
        let e = l.router(RouterId(0));
        assert_eq!(e.flit_hops, 1000);
        assert!((e.dynamic_j - 1000.0 * 56.5e-12).abs() < 1e-18);
    }

    #[test]
    fn hops_at_low_mode_cost_less() {
        let mut a = EnergyLedger::new(1);
        let mut b = EnergyLedger::new(1);
        a.bill_hop(RouterId(0), Mode::M3);
        b.bill_hop(RouterId(0), Mode::M7);
        assert!(a.router(RouterId(0)).dynamic_j < b.router(RouterId(0)).dynamic_j);
    }

    #[test]
    fn label_billing() {
        let mut l = EnergyLedger::new(1);
        let oh = MlOverhead::for_features(5);
        l.bill_label(RouterId(0), &oh);
        l.bill_label(RouterId(0), &oh);
        let e = l.router(RouterId(0));
        assert_eq!(e.labels, 2);
        assert!((e.ml_j - 2.0 * 7.1e-12).abs() < 1e-18);
    }

    #[test]
    fn report_aggregates_all_routers() {
        let mut l = EnergyLedger::new(3);
        for i in 0..3u16 {
            l.bill_residency(
                RouterId(i),
                PowerState::Active(Mode::M7),
                TickDelta::from_ticks(SEC),
            );
            l.bill_hop(RouterId(i), Mode::M7);
        }
        l.note_wakeup(RouterId(0));
        l.note_gate_off(RouterId(1));
        l.note_breakeven_violation(RouterId(1));
        let r = l.report();
        assert!((r.static_j - 3.0 * 0.054).abs() < 1e-9);
        assert_eq!(r.flit_hops, 3);
        assert_eq!(r.wakeups, 1);
        assert_eq!(r.gate_offs, 1);
        assert_eq!(r.breakeven_violations, 1);
        assert_eq!(r.time_active[Mode::M7.rank()].ticks(), 3 * SEC);
    }

    #[test]
    fn wall_energy_exceeds_noc_energy() {
        // Regulator losses mean the battery supplies more than the NoC
        // consumes.
        let mut l = EnergyLedger::new(1);
        l.bill_residency(
            RouterId(0),
            PowerState::Active(Mode::M4),
            TickDelta::from_ticks(SEC),
        );
        let r = l.report();
        assert!(r.wall_static_j > r.static_j);
        // …but by no more than the worst-case regulator inefficiency.
        assert!(r.wall_static_j < r.static_j / 0.87);
    }

    #[test]
    fn gating_halves_static_energy_in_mixed_run() {
        // A router active half the time and gated half the time spends
        // half the static energy of an always-active one.
        let mut l = EnergyLedger::new(2);
        l.bill_residency(
            RouterId(0),
            PowerState::Active(Mode::M7),
            TickDelta::from_ticks(SEC),
        );
        l.bill_residency(
            RouterId(1),
            PowerState::Active(Mode::M7),
            TickDelta::from_ticks(SEC / 2),
        );
        l.bill_residency(
            RouterId(1),
            PowerState::Inactive,
            TickDelta::from_ticks(SEC / 2),
        );
        let always = l.router(RouterId(0)).static_j;
        let gated = l.router(RouterId(1)).static_j;
        assert!((gated / always - 0.5).abs() < 1e-9);
        assert!((l.router(RouterId(1)).off_fraction() - 0.5).abs() < 1e-9);
    }
}
