//! Analytic NoC router model standing in for Orion 3.0.
//!
//! Orion estimates router power/area from microarchitectural parameters;
//! Table I reports its output for the evaluated design (64-bit flits:
//! 43.13 mW, 0.14 mm²). This substitute pins those outputs and derives a
//! per-flit-per-hop traversal energy by attributing the router's dynamic
//! power share to a fully-utilized router (one flit per cycle at the
//! core clock), the standard Orion accounting identity.

use serde::{Deserialize, Serialize};

/// Analytic router power/area/flit-energy model (Orion 3.0 substitute).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RouterModel {
    power_mw: f64,
    area_mm2: f64,
    flit_bits: u32,
    /// Fraction of router power that is static.
    leakage_fraction: f64,
    /// Clock used to convert power to per-flit energy (GHz).
    clock_ghz: f64,
}

impl RouterModel {
    /// The model calibrated to the Table I router row (64-bit flits at
    /// 1 GHz, 40% leakage share).
    pub(crate) fn calibrated() -> Self {
        RouterModel {
            power_mw: 43.13,
            area_mm2: 0.14,
            flit_bits: 64,
            leakage_fraction: 0.4,
            clock_ghz: 1.0,
        }
    }

    /// Total router power in mW.
    pub(crate) fn power_mw(&self) -> f64 {
        self.power_mw
    }

    /// Router area in mm².
    pub(crate) fn area_mm2(&self) -> f64 {
        self.area_mm2
    }

    /// Flit width in bytes (rounded up).
    pub(crate) fn flit_bytes(&self) -> usize {
        (self.flit_bits as usize).div_ceil(8)
    }

    /// Energy for one flit to traverse one router, in pJ.
    ///
    /// Derivation: dynamic power = `(1-leak) * P`; at full utilization a
    /// router moves `clock_ghz` Gflit/s, so energy/flit =
    /// `P_dyn / rate`. For the calibrated model:
    /// `0.6 * 43.13 mW / 1 GHz ≈ 25.9 pJ`.
    pub(crate) fn flit_energy_pj(&self) -> f64 {
        self.power_mw * (1.0 - self.leakage_fraction) / self.clock_ghz
    }

    /// Flits needed to carry `bytes` of payload.
    pub(crate) fn flits_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.flit_bytes()).max(1)
    }

    /// Energy in pJ for `bytes` moved across `hops` routers.
    pub(crate) fn transfer_energy_pj(&self, bytes: usize, hops: usize) -> f64 {
        self.flits_for(bytes) as f64 * hops.max(1) as f64 * self.flit_energy_pj()
    }
}

impl Default for RouterModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_table1_router_row() {
        let r = RouterModel::calibrated();
        assert_eq!(r.power_mw(), 43.13);
        assert_eq!(r.area_mm2(), 0.14);
        assert_eq!(r.flit_bits, 64);
        assert_eq!(r.flit_bytes(), 8);
    }

    #[test]
    fn flit_energy_is_dynamic_share_over_rate() {
        let r = RouterModel::calibrated();
        assert!((r.flit_energy_pj() - 25.878).abs() < 1e-3);
    }

    #[test]
    fn transfer_energy_scales_with_flits_and_hops() {
        let r = RouterModel::calibrated();
        let one = r.transfer_energy_pj(8, 1);
        assert!((r.transfer_energy_pj(16, 1) - 2.0 * one).abs() < 1e-9);
        assert!((r.transfer_energy_pj(8, 3) - 3.0 * one).abs() < 1e-9);
        // Zero-byte messages still cost one flit (header).
        assert!(r.transfer_energy_pj(0, 1) > 0.0);
    }
}
