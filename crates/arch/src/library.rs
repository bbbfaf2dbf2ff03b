//! The Table I component library: published power and area of every
//! accelerator component in the paper's PUMA-like instantiation.

use crate::{RouterModel, SramModel};
use serde::{Deserialize, Serialize};

/// Power/area record of one hardware component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentSpec {
    /// Component name as printed in Table I.
    pub name: String,
    /// The "Parameters / Specification" column.
    pub spec: String,
    /// Power in milliwatts.
    pub power_mw: f64,
    /// Area in square millimeters.
    pub area_mm2: f64,
}

/// The full component library of Table I.
///
/// The PIMMU/VFU/control-unit numbers are the published constants; the
/// memory and router rows are produced by the `SramModel` and
/// `RouterModel` stand-ins (CACTI 7 / Orion 3.0 substitutes), which
/// are calibrated to return exactly the published values at the
/// published design points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentLibrary {
    /// PIM matrix unit: 64 ReRAM crossbars with ADC/DAC/S&H/S&A.
    pub pimmu: ComponentSpec,
    /// Vector functional unit (12 lanes per core).
    pub vfu: ComponentSpec,
    /// 64 kB local scratchpad.
    pub local_memory: ComponentSpec,
    /// Core control unit.
    pub control_unit: ComponentSpec,
    /// One core (sum of the four above).
    pub core: ComponentSpec,
    /// NoC router with 64-bit flits.
    pub router: ComponentSpec,
    /// 4 MB global memory.
    pub global_memory: ComponentSpec,
    /// Off-chip Hyper Transport link.
    pub hyper_transport: ComponentSpec,
    /// Whole chip (36 cores + routers + global memory + HT).
    pub chip: ComponentSpec,
}

/// Table I published constants (the memory and router rows come from
/// the calibrated [`SramModel`] / [`RouterModel`] instead).
mod table1 {
    /// PIMMU power (mW) for 64 crossbars.
    pub(crate) const PIMMU_POWER_MW: f64 = 1221.76;
    /// PIMMU area (mm²).
    pub(crate) const PIMMU_AREA_MM2: f64 = 0.77;
    /// VFU power (mW), 12 per core.
    pub(crate) const VFU_POWER_MW: f64 = 22.80;
    /// VFU area (mm²).
    pub(crate) const VFU_AREA_MM2: f64 = 0.048;
    /// Control unit power (mW).
    pub(crate) const CONTROL_POWER_MW: f64 = 8.00;
    /// Control unit area (mm²).
    pub(crate) const CONTROL_AREA_MM2: f64 = 0.11;
    /// Core power (mW) — the sum of the four components above.
    pub(crate) const CORE_POWER_MW: f64 = 1270.56;
    /// Core area (mm²).
    pub(crate) const CORE_AREA_MM2: f64 = 1.01;
    /// Hyper Transport power (mW).
    pub(crate) const HT_POWER_MW: f64 = 10_400.0;
    /// Hyper Transport area (mm²).
    pub(crate) const HT_AREA_MM2: f64 = 22.88;
    /// Hyper Transport link bandwidth (GB/s).
    pub(crate) const HT_BANDWIDTH_GBS: f64 = 6.40;
    /// Chip power (mW) as published. (The naive sum
    /// `36*(core+router)+global+HT` gives ≈57.95 W; the paper prints
    /// 56.79 k mW — the difference is attributable to rounding in the
    /// per-component rows. We keep the published value.)
    pub(crate) const CHIP_POWER_MW: f64 = 56_790.0;
    /// Chip area (mm²) as published.
    pub(crate) const CHIP_AREA_MM2: f64 = 62.92;
}

impl ComponentLibrary {
    /// Builds the library for the paper's PUMA-like design point.
    pub fn puma() -> Self {
        let sram = SramModel::calibrated();
        let router = RouterModel::calibrated();
        let local = sram.spec(64 * 1024);
        let global = sram.spec(4 * 1024 * 1024);
        ComponentLibrary {
            pimmu: ComponentSpec {
                name: "PIMMU".into(),
                spec: "# crossbar 64".into(),
                power_mw: table1::PIMMU_POWER_MW,
                area_mm2: table1::PIMMU_AREA_MM2,
            },
            vfu: ComponentSpec {
                name: "VFU".into(),
                spec: "# per core 12".into(),
                power_mw: table1::VFU_POWER_MW,
                area_mm2: table1::VFU_AREA_MM2,
            },
            local_memory: ComponentSpec {
                name: "Local Memory".into(),
                spec: "capacity 64 kB".into(),
                power_mw: local.0,
                area_mm2: local.1,
            },
            control_unit: ComponentSpec {
                name: "Control Unit".into(),
                spec: "—".into(),
                power_mw: table1::CONTROL_POWER_MW,
                area_mm2: table1::CONTROL_AREA_MM2,
            },
            core: ComponentSpec {
                name: "Core".into(),
                spec: "# per chip 36".into(),
                power_mw: table1::CORE_POWER_MW,
                area_mm2: table1::CORE_AREA_MM2,
            },
            router: ComponentSpec {
                name: "Router".into(),
                spec: "flit size 64".into(),
                power_mw: router.power_mw(),
                area_mm2: router.area_mm2(),
            },
            global_memory: ComponentSpec {
                name: "Global Memory".into(),
                spec: "capacity 4 MB".into(),
                power_mw: global.0,
                area_mm2: global.1,
            },
            hyper_transport: ComponentSpec {
                name: "Hyper Transport".into(),
                spec: format!("link bandwidth {:.2} GB/s", table1::HT_BANDWIDTH_GBS),
                power_mw: table1::HT_POWER_MW,
                area_mm2: table1::HT_AREA_MM2,
            },
            chip: ComponentSpec {
                name: "Chip".into(),
                spec: "—".into(),
                power_mw: table1::CHIP_POWER_MW,
                area_mm2: table1::CHIP_AREA_MM2,
            },
        }
    }

    /// All rows in Table I order.
    pub fn rows(&self) -> [&ComponentSpec; 9] {
        [
            &self.pimmu,
            &self.vfu,
            &self.local_memory,
            &self.control_unit,
            &self.core,
            &self.router,
            &self.global_memory,
            &self.hyper_transport,
            &self.chip,
        ]
    }

    /// Core power recomputed from its constituents; Table I's own core
    /// row equals this to rounding.
    pub fn core_power_from_parts(&self) -> f64 {
        self.pimmu.power_mw
            + self.vfu.power_mw
            + self.local_memory.power_mw
            + self.control_unit.power_mw
    }

    /// Core area recomputed from its constituents.
    pub fn core_area_from_parts(&self) -> f64 {
        self.pimmu.area_mm2
            + self.vfu.area_mm2
            + self.local_memory.area_mm2
            + self.control_unit.area_mm2
    }
}

impl Default for ComponentLibrary {
    fn default() -> Self {
        Self::puma()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants_are_pinned() {
        let lib = ComponentLibrary::puma();
        assert_eq!(lib.pimmu.power_mw, 1221.76);
        assert_eq!(lib.pimmu.area_mm2, 0.77);
        assert_eq!(lib.vfu.power_mw, 22.80);
        assert_eq!(lib.control_unit.power_mw, 8.00);
        assert_eq!(lib.core.power_mw, 1270.56);
        assert_eq!(lib.router.power_mw, 43.13);
        assert_eq!(lib.hyper_transport.power_mw, 10_400.0);
    }

    #[test]
    fn calibrated_models_reproduce_memory_rows() {
        let lib = ComponentLibrary::puma();
        assert!((lib.local_memory.power_mw - 18.0).abs() < 1e-9);
        assert!((lib.local_memory.area_mm2 - 0.085).abs() < 1e-9);
        assert!((lib.global_memory.power_mw - 257.72).abs() < 1e-9);
        assert!((lib.global_memory.area_mm2 - 2.42).abs() < 1e-9);
    }

    #[test]
    fn core_row_is_the_sum_of_its_parts() {
        let lib = ComponentLibrary::puma();
        assert!((lib.core_power_from_parts() - lib.core.power_mw).abs() < 0.01);
        assert!((lib.core_area_from_parts() - lib.core.area_mm2).abs() < 0.01);
    }

    #[test]
    fn rows_iterate_in_table_order() {
        let lib = ComponentLibrary::puma();
        let names: Vec<_> = lib.rows().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names[0], "PIMMU");
        assert_eq!(names[8], "Chip");
    }
}
