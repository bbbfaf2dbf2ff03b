//! Analytic SRAM model standing in for CACTI 7.
//!
//! The paper models its memories with CACTI 7 and reports two design
//! points in Table I (64 kB local: 18 mW / 0.085 mm²; 4 MB global:
//! 257.72 mW / 2.42 mm²). This model fits power-law curves
//! `P(C) = p0 * (C/C0)^α` through those two points, so it returns the
//! published values exactly at the published capacities and interpolates
//! CACTI-like sublinear scaling elsewhere. Access energy follows the
//! standard CACTI observation that energy/access grows roughly with the
//! square root of capacity.

use serde::{Deserialize, Serialize};

/// Analytic SRAM power/area/access-energy model (CACTI 7 substitute).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SramModel {
    /// Reference capacity in bytes (64 kB).
    ref_bytes: f64,
    /// Power at the reference capacity (mW).
    ref_power_mw: f64,
    /// Area at the reference capacity (mm²).
    ref_area_mm2: f64,
    /// Power scaling exponent.
    power_exp: f64,
    /// Area scaling exponent.
    area_exp: f64,
    /// Access energy at the reference capacity (pJ/byte).
    ref_access_pj_per_byte: f64,
}

impl SramModel {
    /// The model calibrated to the two Table I design points.
    pub(crate) fn calibrated() -> Self {
        let c0: f64 = 64.0 * 1024.0;
        let c1: f64 = 4.0 * 1024.0 * 1024.0;
        let ratio = (c1 / c0).ln();
        SramModel {
            ref_bytes: c0,
            ref_power_mw: 18.0,
            ref_area_mm2: 0.085,
            power_exp: (257.72_f64 / 18.0).ln() / ratio,
            area_exp: (2.42_f64 / 0.085).ln() / ratio,
            // ~1 pJ/byte for a 64 kB scratchpad at 32 nm (CACTI-class).
            ref_access_pj_per_byte: 1.0,
        }
    }

    /// Standby + clocking power for a memory of `bytes` capacity, in mW.
    pub(crate) fn power_mw(&self, bytes: usize) -> f64 {
        self.ref_power_mw * (bytes as f64 / self.ref_bytes).powf(self.power_exp)
    }

    /// Silicon area for a memory of `bytes` capacity, in mm².
    pub(crate) fn area_mm2(&self, bytes: usize) -> f64 {
        self.ref_area_mm2 * (bytes as f64 / self.ref_bytes).powf(self.area_exp)
    }

    /// `(power_mw, area_mm2)` convenience pair.
    pub(crate) fn spec(&self, bytes: usize) -> (f64, f64) {
        (self.power_mw(bytes), self.area_mm2(bytes))
    }

    /// Energy per byte accessed, in pJ (√capacity scaling).
    pub(crate) fn access_pj_per_byte(&self, bytes: usize) -> f64 {
        self.ref_access_pj_per_byte * (bytes as f64 / self.ref_bytes).sqrt()
    }
}

impl Default for SramModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table1_points_exactly() {
        let m = SramModel::calibrated();
        assert!((m.power_mw(64 * 1024) - 18.0).abs() < 1e-9);
        assert!((m.area_mm2(64 * 1024) - 0.085).abs() < 1e-9);
        assert!((m.power_mw(4 * 1024 * 1024) - 257.72).abs() < 1e-6);
        assert!((m.area_mm2(4 * 1024 * 1024) - 2.42).abs() < 1e-9);
    }

    #[test]
    fn scaling_is_monotone_and_sublinear() {
        let m = SramModel::calibrated();
        let p128 = m.power_mw(128 * 1024);
        let p64 = m.power_mw(64 * 1024);
        assert!(p128 > p64);
        // Sublinear: doubling capacity less than doubles power.
        assert!(p128 < 2.0 * p64);
    }

    #[test]
    fn access_energy_grows_with_capacity() {
        let m = SramModel::calibrated();
        assert!(m.access_pj_per_byte(4 * 1024 * 1024) > m.access_pj_per_byte(64 * 1024));
        assert!((m.access_pj_per_byte(64 * 1024) - 1.0).abs() < 1e-12);
    }
}
