//! Per-operation energy and per-component leakage derivation.
//!
//! The Fig. 9 evaluation splits energy into *dynamic* (activity-
//! proportional: MVMs, VFU ops, memory accesses, NoC flits) and
//! *leakage/static* (component standby power × active time). This module
//! turns the [`ComponentLibrary`] numbers into the per-event quantities
//! the simulator accumulates.

use crate::{ComponentLibrary, HardwareConfig, SramModel};
use serde::{Deserialize, Serialize};

/// Static power of the always-on structures, broken down per component
/// class, in mW.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LeakageBreakdown {
    /// Per single core (PIMMU + VFU + local memory + control).
    pub core_mw: f64,
    /// Per router.
    pub router_mw: f64,
    /// Global memory (whole chip).
    pub global_memory_mw: f64,
}

/// Derived per-event energies (pJ) and per-component leakage (mW).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one MVM on one crossbar, in pJ.
    pub mvm_pj_per_crossbar: f64,
    /// Energy of one VFU element-operation, in pJ.
    pub vfu_pj_per_element: f64,
    /// Energy per byte moved through a local scratchpad, in pJ.
    pub local_mem_pj_per_byte: f64,
    /// Energy per byte moved through global memory, in pJ.
    pub global_mem_pj_per_byte: f64,
    /// Energy per flit per hop on the NoC, in pJ.
    pub noc_pj_per_flit_hop: f64,
    /// Energy to program one NVM cell during a weight reload, in pJ
    /// (taken directly from [`HardwareConfig::xbar_write_pj_per_cell`]).
    pub xbar_write_pj_per_cell: f64,
    /// Static power breakdown.
    pub leakage: LeakageBreakdown,
    /// Clock used for power↔energy conversion, GHz.
    pub clock_ghz: f64,
}

impl EnergyModel {
    /// Derives the model from a hardware config and the Table I library.
    ///
    /// Accounting identities (standard practice; what they add up to
    /// is Fig. 9, see "The paper scoreboard" in `docs/BENCHMARKS.md`):
    ///
    /// * MVM: the PIMMU's dynamic power share divided across its
    ///   crossbars, integrated over `T_MVM`.
    /// * VFU: dynamic power share divided by element throughput.
    /// * Memories: CACTI-style access energy from `SramModel`.
    /// * Leakage: `leakage_fraction` of each component's Table I power.
    pub fn derive(hw: &HardwareConfig, lib: &ComponentLibrary) -> Self {
        let dyn_frac = 1.0 - hw.leakage_fraction;
        let sram = SramModel::calibrated();

        // mW * ns = pJ; T_MVM in cycles / clock_ghz = ns.
        let mvm_ns = hw.mvm_latency as f64 / hw.clock_ghz;
        let mvm_pj_per_crossbar =
            lib.pimmu.power_mw * dyn_frac / hw.crossbars_per_core as f64 * mvm_ns / 1000.0 * 1000.0;
        // (mW = pJ/ns, so power_mw * ns = pJ directly; the *1000/1000
        // pair above cancels and is kept for unit legibility.)

        let vfu_rate_elems_per_ns = hw.vfu_rate() * hw.clock_ghz;
        let vfu_pj_per_element = lib.vfu.power_mw * dyn_frac / vfu_rate_elems_per_ns;

        EnergyModel {
            mvm_pj_per_crossbar,
            vfu_pj_per_element,
            local_mem_pj_per_byte: sram.access_pj_per_byte(hw.local_memory_bytes),
            global_mem_pj_per_byte: sram.access_pj_per_byte(hw.global_memory_bytes),
            noc_pj_per_flit_hop: lib.router.power_mw * dyn_frac / hw.clock_ghz,
            xbar_write_pj_per_cell: hw.xbar_write_pj_per_cell,
            leakage: LeakageBreakdown {
                core_mw: lib.core.power_mw * hw.leakage_fraction,
                router_mw: lib.router.power_mw * hw.leakage_fraction,
                global_memory_mw: lib.global_memory.power_mw * hw.leakage_fraction,
            },
            clock_ghz: hw.clock_ghz,
        }
    }

    /// Leakage energy in pJ for a component of `power_mw` static power
    /// active for `cycles`.
    pub fn leakage_pj(&self, power_mw: f64, cycles: u64) -> f64 {
        // mW × ns = pJ.
        power_mw * (cycles as f64 / self.clock_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::derive(&HardwareConfig::puma(), &ComponentLibrary::puma())
    }

    #[test]
    fn mvm_energy_is_reasonable() {
        let m = model();
        // 0.6 * 1221.76 mW / 64 crossbars * 2000 ns ≈ 22.9 nJ.
        assert!((m.mvm_pj_per_crossbar - 22_908.0).abs() < 10.0);
    }

    #[test]
    fn global_memory_costs_more_than_local() {
        let m = model();
        assert!(m.global_mem_pj_per_byte > m.local_mem_pj_per_byte);
        // 64× capacity → 8× access energy under √ scaling.
        assert!((m.global_mem_pj_per_byte / m.local_mem_pj_per_byte - 8.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_energy_integrates_power_over_time() {
        let m = model();
        // 1 mW for 1000 cycles at 1 GHz = 1000 pJ.
        assert!((m.leakage_pj(1.0, 1000) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_leakage_fraction_means_all_dynamic() {
        let mut hw = HardwareConfig::puma();
        hw.leakage_fraction = 0.0;
        let m = EnergyModel::derive(&hw, &ComponentLibrary::puma());
        assert_eq!(m.leakage.core_mw, 0.0);
        assert!(m.mvm_pj_per_crossbar > model().mvm_pj_per_crossbar);
    }
}
