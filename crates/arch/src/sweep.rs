//! Hardware design-space enumeration: named base presets plus a
//! [`HardwareGrid`] that expands per-field value lists into the
//! cross-product of validated [`HardwareConfig`] variants.
//!
//! This is the architecture-side half of the design-space exploration
//! subsystem (the `pimcomp-dse` crate's sweep engine): the grid knows
//! which knobs are sweepable, generates one labelled configuration per
//! grid point, and validates every point before it is handed to the
//! compiler — so a sweep over hundreds of configurations fails fast on
//! the one malformed axis value instead of mid-run. The same
//! enumeration also backs the engine's `hardware: "auto"` option:
//! per-model sized chip counts are fed through a one-point grid so
//! their labels (`auto-puma+chips3+par4`) and validation match
//! explicit grids exactly.
//!
//! # Examples
//!
//! A two-axis grid over a preset (only swept axes enter the label):
//!
//! ```
//! use pimcomp_arch::HardwareGrid;
//!
//! let grid = HardwareGrid::over_preset("small_test")
//!     .unwrap()
//!     .with_chips(vec![1, 2])
//!     .with_parallelism(vec![8, 64]);
//! let points = grid.enumerate().unwrap();
//! assert_eq!(points.len(), 4);
//! assert_eq!(points[0].0, "small_test+chips1+par8");
//! ```
//!
//! Every sweepable knob is a public field; values are validated as part
//! of enumeration, so a bad axis value surfaces before any compilation:
//!
//! ```
//! use pimcomp_arch::{HardwareConfig, HardwareGrid};
//!
//! let grid = HardwareGrid {
//!     cores_per_chip: vec![8],
//!     crossbars_per_core: vec![8, 16],
//!     crossbar_size: vec![64],
//!     local_memory_kb: vec![64],
//!     mvm_latency: vec![20],
//!     noc_link_bw: vec![16.0],
//!     ..HardwareGrid::new("custom", HardwareConfig::small_test())
//! };
//! let points = grid.enumerate().unwrap();
//! assert_eq!(points.len(), 2);
//! assert_eq!(points[1].0, "custom+cores8+xbars16+xbar64+mem64k+mvm20+noc16");
//! assert_eq!(points[1].1.crossbars_per_core, 16);
//!
//! // Zero chips can never reach the compiler.
//! let bad = HardwareGrid::over_preset("small_test")
//!     .unwrap()
//!     .with_chips(vec![0]);
//! assert!(bad.enumerate().is_err());
//! ```

use crate::config::{HardwareConfig, HwError};

/// Looks up a named base preset for sweeps.
///
/// Accepted names: `puma` (the paper's Table I target) and
/// `small_test` / `small` (the scaled-down test target). Returns
/// `None` for unknown names; [`preset_names`] lists the canonical
/// spellings.
pub fn preset(name: &str) -> Option<HardwareConfig> {
    match name {
        "puma" => Some(HardwareConfig::puma()),
        "small_test" | "small" => Some(HardwareConfig::small_test()),
        _ => None,
    }
}

/// The canonical preset names [`preset`] accepts.
pub fn preset_names() -> &'static [&'static str] {
    &["puma", "small_test"]
}

/// A declarative grid over the sweepable [`HardwareConfig`] knobs.
///
/// Each field holds the axis values to sweep; an empty list keeps the
/// base configuration's value (a fixed axis). [`HardwareGrid::enumerate`]
/// expands the cross-product, labels each point with the swept values
/// (`base+chips2+par64`), and validates every resulting configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareGrid {
    /// Label of the base configuration (used as the label prefix).
    pub base_name: String,
    /// The configuration the swept fields override.
    pub base: HardwareConfig,
    /// Chip counts to sweep (`chips`).
    pub chips: Vec<usize>,
    /// Cores-per-chip values to sweep (`cores_per_chip`).
    pub cores_per_chip: Vec<usize>,
    /// Crossbars-per-core values to sweep (`crossbars_per_core`).
    pub crossbars_per_core: Vec<usize>,
    /// Square crossbar sizes to sweep (sets `crossbar_rows` and
    /// `crossbar_cols` together).
    pub crossbar_size: Vec<usize>,
    /// Parallelism degrees to sweep (`parallelism`, the Fig. 8 knob).
    pub parallelism: Vec<usize>,
    /// Local scratchpad capacities to sweep, in kilobytes.
    pub local_memory_kb: Vec<usize>,
    /// MVM latencies to sweep, in cycles.
    pub mvm_latency: Vec<u64>,
    /// NoC link bandwidths to sweep, in bytes/cycle.
    pub noc_link_bw: Vec<f64>,
}

impl HardwareGrid {
    /// A grid with no swept axes over an explicit base configuration.
    pub fn new(base_name: impl Into<String>, base: HardwareConfig) -> Self {
        HardwareGrid {
            base_name: base_name.into(),
            base,
            chips: Vec::new(),
            cores_per_chip: Vec::new(),
            crossbars_per_core: Vec::new(),
            crossbar_size: Vec::new(),
            parallelism: Vec::new(),
            local_memory_kb: Vec::new(),
            mvm_latency: Vec::new(),
            noc_link_bw: Vec::new(),
        }
    }

    /// A grid over a named [`preset`].
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] naming the valid presets when
    /// `name` is unknown.
    pub fn over_preset(name: &str) -> Result<Self, HwError> {
        let base = preset(name).ok_or_else(|| HwError::InvalidParameter {
            name: "base",
            detail: format!(
                "unknown hardware preset `{name}` (available: {})",
                preset_names().join(", ")
            ),
        })?;
        Ok(Self::new(name, base))
    }

    /// Sets the chip-count axis.
    #[must_use]
    pub fn with_chips(mut self, values: Vec<usize>) -> Self {
        self.chips = values;
        self
    }

    /// Sets the parallelism-degree axis.
    #[must_use]
    pub fn with_parallelism(mut self, values: Vec<usize>) -> Self {
        self.parallelism = values;
        self
    }

    /// Number of grid points the cross-product expands to.
    pub(crate) fn len(&self) -> usize {
        let axis = |n: usize| n.max(1);
        axis(self.chips.len())
            * axis(self.cores_per_chip.len())
            * axis(self.crossbars_per_core.len())
            * axis(self.crossbar_size.len())
            * axis(self.parallelism.len())
            * axis(self.local_memory_kb.len())
            * axis(self.mvm_latency.len())
            * axis(self.noc_link_bw.len())
    }

    /// Expands the cross-product into `(label, config)` points, in a
    /// deterministic axis-nested order, validating every configuration.
    ///
    /// Labels carry the base name plus one `+knob<value>` segment per
    /// *swept* axis (axes left at their base value do not clutter the
    /// label).
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] from
    /// [`HardwareConfig::validate`] on the first invalid point (the
    /// error is raised before any point is returned, so callers never
    /// see a partially valid sweep).
    pub fn enumerate(&self) -> Result<Vec<(String, HardwareConfig)>, HwError> {
        // Each axis yields (label_segment, mutator) pairs; fixed axes
        // yield a single no-op point with no label segment.
        fn axis<T: Copy>(
            values: &[T],
            tag: &str,
            show: impl Fn(T) -> String,
        ) -> Vec<(String, Option<T>)> {
            if values.is_empty() {
                vec![(String::new(), None)]
            } else {
                values
                    .iter()
                    .map(|&v| (format!("+{tag}{}", show(v)), Some(v)))
                    .collect()
            }
        }

        let chips = axis(&self.chips, "chips", |v: usize| v.to_string());
        let cores = axis(&self.cores_per_chip, "cores", |v: usize| v.to_string());
        let xbars = axis(&self.crossbars_per_core, "xbars", |v: usize| v.to_string());
        let size = axis(&self.crossbar_size, "xbar", |v: usize| v.to_string());
        let par = axis(&self.parallelism, "par", |v: usize| v.to_string());
        let mem = axis(&self.local_memory_kb, "mem", |v: usize| format!("{v}k"));
        let mvm = axis(&self.mvm_latency, "mvm", |v: u64| v.to_string());
        let noc = axis(&self.noc_link_bw, "noc", |v: f64| v.to_string());

        let mut out = Vec::with_capacity(self.len());
        for (l1, c) in &chips {
            for (l2, cc) in &cores {
                for (l3, xc) in &xbars {
                    for (l4, sz) in &size {
                        for (l5, p) in &par {
                            for (l6, m) in &mem {
                                for (l7, lat) in &mvm {
                                    for (l8, bw) in &noc {
                                        let mut hw = self.base.clone();
                                        if let Some(v) = c {
                                            hw.chips = *v;
                                        }
                                        if let Some(v) = cc {
                                            hw.cores_per_chip = *v;
                                        }
                                        if let Some(v) = xc {
                                            hw.crossbars_per_core = *v;
                                        }
                                        if let Some(v) = sz {
                                            hw.crossbar_rows = *v;
                                            hw.crossbar_cols = *v;
                                        }
                                        if let Some(v) = p {
                                            hw.parallelism = *v;
                                        }
                                        if let Some(v) = m {
                                            hw.local_memory_bytes = v * 1024;
                                        }
                                        if let Some(v) = lat {
                                            hw.mvm_latency = *v;
                                        }
                                        if let Some(v) = bw {
                                            hw.noc_link_bw = *v;
                                        }
                                        hw.validate()?;
                                        let label = format!(
                                            "{}{l1}{l2}{l3}{l4}{l5}{l6}{l7}{l8}",
                                            self.base_name
                                        );
                                        out.push((label, hw));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_validate() {
        for name in preset_names() {
            preset(name).unwrap().validate().unwrap();
        }
        assert!(preset("tpu").is_none());
    }

    #[test]
    fn empty_grid_yields_the_base() {
        let g = HardwareGrid::over_preset("puma").unwrap();
        let pts = g.enumerate().unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].0, "puma");
        assert_eq!(pts[0].1, HardwareConfig::puma());
    }

    #[test]
    fn cross_product_order_is_deterministic() {
        let g = HardwareGrid::over_preset("small_test")
            .unwrap()
            .with_chips(vec![1, 2])
            .with_parallelism(vec![4, 8]);
        let pts = g.enumerate().unwrap();
        assert_eq!(g.len(), 4);
        let labels: Vec<&str> = pts.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "small_test+chips1+par4",
                "small_test+chips1+par8",
                "small_test+chips2+par4",
                "small_test+chips2+par8",
            ]
        );
        assert_eq!(pts[3].1.chips, 2);
        assert_eq!(pts[3].1.parallelism, 8);
    }

    #[test]
    fn crossbar_size_sets_rows_and_cols() {
        let g = HardwareGrid {
            crossbar_size: vec![32],
            ..HardwareGrid::over_preset("small_test").unwrap()
        };
        let pts = g.enumerate().unwrap();
        assert_eq!(pts[0].1.crossbar_rows, 32);
        assert_eq!(pts[0].1.crossbar_cols, 32);
    }

    #[test]
    fn invalid_axis_value_is_rejected_up_front() {
        let g = HardwareGrid::over_preset("small_test")
            .unwrap()
            .with_chips(vec![1, 0]);
        assert!(g.enumerate().is_err());
    }

    #[test]
    fn unknown_preset_names_the_alternatives() {
        let err = HardwareGrid::over_preset("tpu").unwrap_err();
        assert!(err.to_string().contains("puma"));
    }
}
