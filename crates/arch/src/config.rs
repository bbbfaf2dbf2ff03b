//! Hardware configuration — the "User Input" block of paper Fig. 3.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How cores exchange data (paper: "The cores can be interconnected
/// through NoC or busses", or indirectly through global memory only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreConnection {
    /// 2-D mesh network-on-chip (the PUMA instantiation used in the
    /// paper's evaluation).
    Mesh,
    /// A shared bus: one transfer at a time, uniform latency.
    Bus,
    /// No direct core-to-core path; all transfers bounce through global
    /// memory.
    GlobalMemoryOnly,
}

/// Inter-layer pipeline granularity (paper Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineMode {
    /// High-throughput: layer-by-layer processing; once the pipeline is
    /// filled, different layers process *different inferences*. No
    /// inter-layer streaming.
    HighThroughput,
    /// Low-latency: a layer forwards each output element to its
    /// consumers immediately; consumers start as soon as their receptive
    /// window is available.
    LowLatency,
}

impl fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineMode::HighThroughput => f.write_str("HT"),
            PipelineMode::LowLatency => f.write_str("LL"),
        }
    }
}

/// The most cores a target may have (see [`HardwareConfig::validate`]).
const MAX_TOTAL_CORES: usize = 1 << 16;

/// Configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HwError {
    /// A parameter is zero or otherwise out of its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::InvalidParameter { name, detail } => {
                write!(f, "invalid hardware parameter `{name}`: {detail}")
            }
        }
    }
}

impl std::error::Error for HwError {}

/// The abstract accelerator's user-visible knobs (paper Fig. 3), plus
/// the timing constants the execution model needs.
///
/// All times are in core clock *cycles*; [`HardwareConfig::clock_ghz`]
/// converts to wall time where needed (energy integration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareConfig {
    /// Crossbar array height `Hxbar` in cells (weight-matrix rows an AG
    /// covers).
    pub crossbar_rows: usize,
    /// Crossbar array width in cells.
    pub crossbar_cols: usize,
    /// Physical crossbars per PIMMU (Table I: 64).
    pub crossbars_per_core: usize,
    /// Cores per chip (Table I: 36).
    pub cores_per_chip: usize,
    /// Chip count; total cores = `cores_per_chip * chips`.
    pub chips: usize,
    /// NVM cell precision in bits (Table I: 2-bit ReRAM).
    pub cell_bits: u32,
    /// Weight precision in bits (Table I: 16-bit fixed point).
    pub weight_bits: u32,
    /// Input/activation precision in bits (16-bit fixed point).
    pub input_bits: u32,
    /// Local scratchpad capacity per core in bytes (Table I: 64 kB).
    pub local_memory_bytes: usize,
    /// Global memory capacity in bytes (Table I: 4 MB per chip).
    pub global_memory_bytes: usize,
    /// Local memory bandwidth in bytes/cycle.
    pub local_memory_bw: f64,
    /// Global memory bandwidth in bytes/cycle (shared by all cores).
    pub global_memory_bw: f64,
    /// Latency of one MVM operation, `T_MVM`, in cycles.
    pub mvm_latency: u64,
    /// Degree of parallelism: how many AGs may compute simultaneously
    /// within a core, limited by the user-given on-chip bandwidth
    /// (paper Section V-B.1: swept over {1, 20, 40, 200, 2000}).
    pub parallelism: usize,
    /// VFUs per core (Table I: 12).
    pub vfu_per_core: usize,
    /// Elements processed per cycle by one VFU lane.
    pub vfu_lane_throughput: f64,
    /// How cores are interconnected.
    pub connection: CoreConnection,
    /// NoC per-hop router latency in cycles.
    pub noc_hop_latency: u64,
    /// NoC link bandwidth in bytes/cycle.
    pub noc_link_bw: f64,
    /// NoC flit size in bits (Table I: 64).
    pub noc_flit_bits: u32,
    /// Core clock in GHz (PUMA: 1 GHz).
    pub clock_ghz: f64,
    /// Fraction of each component's Table I power that is static
    /// (leakage) rather than activity-proportional. Calibration knob for
    /// the Fig. 9 energy split (the `fig9.*` claims of "The paper
    /// scoreboard" in `docs/BENCHMARKS.md`).
    pub leakage_fraction: f64,
    /// Cycles to program one crossbar row of NVM cells. Writes proceed
    /// row by row but are parallel across the cells of a row and across
    /// the crossbars of an array group, so rewriting an AG slice of `r`
    /// weight rows costs `r * xbar_write_row_cycles` cycles
    /// (COMPASS-style weight reloading; ReRAM SET/RESET is orders of
    /// magnitude slower than a read, hence the large default).
    pub xbar_write_row_cycles: u64,
    /// Energy to program one NVM cell, in pJ (the reload cost model's
    /// energy counterpart to `xbar_write_row_cycles`).
    pub xbar_write_pj_per_cell: f64,
}

impl HardwareConfig {
    /// The PUMA-like instantiation used throughout the paper's
    /// evaluation (Table I), at parallelism degree 20.
    pub fn puma() -> Self {
        HardwareConfig {
            crossbar_rows: 128,
            crossbar_cols: 128,
            crossbars_per_core: 64,
            cores_per_chip: 36,
            chips: 1,
            cell_bits: 2,
            weight_bits: 16,
            input_bits: 16,
            local_memory_bytes: 64 * 1024,
            global_memory_bytes: 4 * 1024 * 1024,
            local_memory_bw: 32.0,
            global_memory_bw: 64.0,
            mvm_latency: 2000,
            parallelism: 20,
            vfu_per_core: 12,
            vfu_lane_throughput: 1.0,
            connection: CoreConnection::Mesh,
            noc_hop_latency: 4,
            noc_link_bw: 8.0,
            noc_flit_bits: 64,
            clock_ghz: 1.0,
            leakage_fraction: 0.4,
            xbar_write_row_cycles: 100,
            xbar_write_pj_per_cell: 10.0,
        }
    }

    /// A scaled-down target for unit tests and examples: 4×4 cores of
    /// sixteen 64×64 crossbars storing 8-bit weights in 8-bit cells
    /// (no bit slicing, so small models fit with replication headroom).
    /// Small models compile and simulate in milliseconds on it.
    pub fn small_test() -> Self {
        HardwareConfig {
            crossbar_rows: 64,
            crossbar_cols: 64,
            crossbars_per_core: 16,
            cores_per_chip: 16,
            chips: 1,
            cell_bits: 8,
            weight_bits: 8,
            input_bits: 8,
            local_memory_bytes: 16 * 1024,
            global_memory_bytes: 1024 * 1024,
            local_memory_bw: 32.0,
            global_memory_bw: 64.0,
            mvm_latency: 64,
            parallelism: 8,
            vfu_per_core: 4,
            vfu_lane_throughput: 1.0,
            connection: CoreConnection::Mesh,
            noc_hop_latency: 2,
            noc_link_bw: 8.0,
            noc_flit_bits: 64,
            clock_ghz: 1.0,
            leakage_fraction: 0.4,
            xbar_write_row_cycles: 16,
            xbar_write_pj_per_cell: 1.0,
        }
    }

    /// Returns `puma()` scaled to `chips` chips (the paper's "Chip
    /// Number" user input): enough capacity for large networks.
    pub fn puma_with_chips(chips: usize) -> Self {
        HardwareConfig {
            chips,
            ..Self::puma()
        }
    }

    /// Returns a copy with the given parallelism degree (the Fig. 8
    /// sweep knob).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Total number of cores across all chips.
    pub fn total_cores(&self) -> usize {
        self.cores_per_chip * self.chips
    }

    /// Physical crossbar cells per weight: `ceil(weight_bits /
    /// cell_bits)`. With 16-bit weights and 2-bit cells a weight spans 8
    /// cells along the crossbar row.
    pub fn cells_per_weight(&self) -> usize {
        (self.weight_bits as usize).div_ceil(self.cell_bits as usize)
    }

    /// Weight columns available in one crossbar (`Wxbar` of the
    /// node-partitioning formulas): `crossbar_cols / cells_per_weight`.
    pub fn weight_cols_per_crossbar(&self) -> usize {
        (self.crossbar_cols / self.cells_per_weight()).max(1)
    }

    /// Crossbars available per core for weight storage.
    pub fn crossbar_capacity_per_core(&self) -> usize {
        self.crossbars_per_core
    }

    /// Total crossbars across the whole accelerator.
    pub fn total_crossbars(&self) -> usize {
        self.total_cores() * self.crossbars_per_core
    }

    /// Bytes occupied by one activation element.
    pub fn input_bytes_per_element(&self) -> usize {
        (self.input_bits as usize).div_ceil(8)
    }

    /// Element-operations per cycle of a core's VFU array.
    pub fn vfu_rate(&self) -> f64 {
        self.vfu_per_core as f64 * self.vfu_lane_throughput
    }

    /// Validates parameter domains. The total core count is at most
    /// 65 536 (2^16), thirty times the 2 124 cores the widest paper model
    /// (vgg16) is sized to: every later stage sizes per-core tables by
    /// it, so a count of hundreds of millions would abort the process on
    /// an allocation instead of failing here.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), HwError> {
        let positive: [(&'static str, usize); 8] = [
            ("crossbar_rows", self.crossbar_rows),
            ("crossbar_cols", self.crossbar_cols),
            ("crossbars_per_core", self.crossbars_per_core),
            ("cores_per_chip", self.cores_per_chip),
            ("chips", self.chips),
            ("local_memory_bytes", self.local_memory_bytes),
            ("parallelism", self.parallelism),
            ("vfu_per_core", self.vfu_per_core),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(HwError::InvalidParameter {
                    name,
                    detail: "must be positive".into(),
                });
            }
        }
        // Every later stage sizes its tables by these two products.
        let Some(cores) = self.cores_per_chip.checked_mul(self.chips) else {
            return Err(HwError::InvalidParameter {
                name: "total_cores",
                detail: format!(
                    "{} chips x {} cores per chip overflows the core count",
                    self.chips, self.cores_per_chip
                ),
            });
        };
        if cores.checked_mul(self.crossbars_per_core).is_none() {
            return Err(HwError::InvalidParameter {
                name: "total_crossbars",
                detail: format!(
                    "{cores} cores x {} crossbars per core overflows the crossbar count",
                    self.crossbars_per_core
                ),
            });
        }
        if cores > MAX_TOTAL_CORES {
            return Err(HwError::InvalidParameter {
                name: "total_cores",
                detail: format!(
                    "{} chips x {} cores per chip is {cores} cores; at most {MAX_TOTAL_CORES} \
                     are supported",
                    self.chips, self.cores_per_chip
                ),
            });
        }
        if self.cell_bits == 0 || self.weight_bits == 0 || self.input_bits == 0 {
            return Err(HwError::InvalidParameter {
                name: "bit widths",
                detail: "must be positive".into(),
            });
        }
        if self.cell_bits > self.weight_bits {
            return Err(HwError::InvalidParameter {
                name: "cell_bits",
                detail: format!(
                    "cell precision {} exceeds weight precision {}",
                    self.cell_bits, self.weight_bits
                ),
            });
        }
        if self.mvm_latency == 0 {
            return Err(HwError::InvalidParameter {
                name: "mvm_latency",
                detail: "must be positive".into(),
            });
        }
        if self.xbar_write_row_cycles == 0 {
            return Err(HwError::InvalidParameter {
                name: "xbar_write_row_cycles",
                detail: "must be positive".into(),
            });
        }
        if !self.xbar_write_pj_per_cell.is_finite() || self.xbar_write_pj_per_cell < 0.0 {
            return Err(HwError::InvalidParameter {
                name: "xbar_write_pj_per_cell",
                detail: "must be a finite non-negative number".into(),
            });
        }
        for (name, v) in [
            ("local_memory_bw", self.local_memory_bw),
            ("global_memory_bw", self.global_memory_bw),
            ("noc_link_bw", self.noc_link_bw),
            ("clock_ghz", self.clock_ghz),
            ("vfu_lane_throughput", self.vfu_lane_throughput),
        ] {
            if v <= 0.0 || v.is_nan() {
                return Err(HwError::InvalidParameter {
                    name,
                    detail: "must be positive".into(),
                });
            }
        }
        if !(0.0..=1.0).contains(&self.leakage_fraction) {
            return Err(HwError::InvalidParameter {
                name: "leakage_fraction",
                detail: "must lie in [0, 1]".into(),
            });
        }
        Ok(())
    }
}

impl Default for HardwareConfig {
    /// The paper's PUMA-like target ([`HardwareConfig::puma`]).
    fn default() -> Self {
        Self::puma()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn puma_preset_validates() {
        HardwareConfig::puma().validate().unwrap();
        HardwareConfig::small_test().validate().unwrap();
    }

    #[test]
    fn weight_cols_account_for_bit_slicing() {
        let hw = HardwareConfig::puma();
        assert_eq!(hw.cells_per_weight(), 8);
        assert_eq!(hw.weight_cols_per_crossbar(), 16);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut hw = HardwareConfig::puma();
        hw.crossbar_rows = 0;
        assert!(hw.validate().is_err());

        let mut hw = HardwareConfig::puma();
        hw.cell_bits = 32;
        assert!(hw.validate().is_err());

        let mut hw = HardwareConfig::puma();
        hw.leakage_fraction = 1.5;
        assert!(hw.validate().is_err());

        let mut hw = HardwareConfig::puma();
        hw.global_memory_bw = 0.0;
        assert!(hw.validate().is_err());

        let mut hw = HardwareConfig::puma();
        hw.xbar_write_row_cycles = 0;
        assert!(hw.validate().is_err());

        let mut hw = HardwareConfig::puma();
        hw.xbar_write_pj_per_cell = f64::NAN;
        assert!(hw.validate().is_err());

        let mut hw = HardwareConfig::puma();
        hw.xbar_write_pj_per_cell = -1.0;
        assert!(hw.validate().is_err());
    }

    #[test]
    fn overflowing_totals_are_rejected_not_wrapped() {
        // 2^62 chips x 36 cores wraps to exactly 0 cores unchecked.
        let hw = HardwareConfig::puma_with_chips(1 << 62);
        assert_eq!(
            hw.validate().unwrap_err().to_string(),
            "invalid hardware parameter `total_cores`: 4611686018427387904 chips x 36 \
             cores per chip overflows the core count"
        );
        // The cores fit, the crossbars do not.
        let hw = HardwareConfig::puma_with_chips(usize::MAX / 36);
        let err = hw.validate().unwrap_err();
        assert!(
            matches!(
                err,
                HwError::InvalidParameter {
                    name: "total_crossbars",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn a_core_count_past_the_bound_is_rejected() {
        // 10^7 chips: 3.6e8 cores, whose per-core tables alone would take
        // gigabytes.
        let hw = HardwareConfig::puma_with_chips(10_000_000);
        assert_eq!(
            hw.validate().unwrap_err().to_string(),
            "invalid hardware parameter `total_cores`: 10000000 chips x 36 cores per chip is \
             360000000 cores; at most 65536 are supported"
        );
        // The bound itself is a valid target; one chip past it is not.
        let mut hw = HardwareConfig::puma();
        hw.cores_per_chip = 1;
        hw.chips = MAX_TOTAL_CORES;
        hw.validate().unwrap();
        hw.chips += 1;
        assert!(hw.validate().is_err());
    }

    #[test]
    fn total_counts_scale_with_chips() {
        let hw = HardwareConfig::puma_with_chips(4);
        assert_eq!(hw.total_cores(), 144);
        assert_eq!(hw.total_crossbars(), 144 * 64);
    }

    #[test]
    fn serde_round_trip() {
        let hw = HardwareConfig::puma();
        let s = serde_json::to_string(&hw).unwrap();
        let hw2: HardwareConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(hw, hw2);
    }
}
