//! Abstract crossbar-PIM accelerator architecture (paper Section III).
//!
//! The accelerator is a set of *cores* connected to a *global memory*;
//! each core holds a PIM matrix unit (PIMMU, a bundle of NVM crossbars),
//! a vector functional unit (VFU), a local scratchpad and a control unit.
//! Cores run asynchronously and synchronize on inter-core transfers.
//! This crate captures:
//!
//! * [`HardwareConfig`] — the user-input knobs of paper Fig. 3 (crossbar
//!   size, core/chip counts, connection method, bit widths, bandwidths,
//!   MVM latency, parallelism degree).
//! * [`ComponentLibrary`] — the Table I power/area numbers, with
//!   crate-private SRAM and router models standing in for CACTI 7 and
//!   Orion 3.0 (calibrated to reproduce the published constants).
//! * [`NocModel`] — 2-D mesh transfer latency/energy.
//! * [`EnergyModel`] — per-operation dynamic energies and per-component
//!   leakage powers derived from the library.
//!
//! # Example
//!
//! ```
//! use pimcomp_arch::HardwareConfig;
//!
//! let hw = HardwareConfig::puma();
//! assert_eq!(hw.crossbar_rows, 128);
//! assert_eq!(hw.cores_per_chip, 36);
//! // 16-bit weights in 2-bit cells: 8 physical columns per weight.
//! assert_eq!(hw.weight_cols_per_crossbar(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod energy;
mod library;
mod memory_model;
mod noc;
mod quant;
mod router;

pub use config::{CoreConnection, HardwareConfig, HwError, PipelineMode};
pub use energy::{EnergyModel, LeakageBreakdown};
pub use library::{ComponentLibrary, ComponentSpec};
pub(crate) use memory_model::SramModel;
pub use noc::NocModel;
pub use quant::QuantConfig;
pub(crate) use router::RouterModel;
