//! Simulation results: the quantities behind every figure of the
//! paper's evaluation.

use pimcomp_arch::{EnergyModel, HardwareConfig, PipelineMode};
use pimcomp_core::CompiledModel;
use serde::{Deserialize, Serialize};

/// Energy breakdown in picojoules (Fig. 9's dynamic/leakage split plus
/// per-component detail).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EnergyReport {
    /// Crossbar MVM energy.
    pub mvm_pj: f64,
    /// VFU energy.
    pub vfu_pj: f64,
    /// Local + global memory access energy.
    pub memory_pj: f64,
    /// NoC transfer energy.
    pub noc_pj: f64,
    /// Crossbar write energy of `weight_reload` epochs (zero for
    /// ordinary compilations and single-epoch reload plans).
    pub reload_pj: f64,
    /// Total leakage (static) energy.
    pub leakage_pj: f64,
}

impl EnergyReport {
    /// Total dynamic energy.
    pub fn dynamic_pj(&self) -> f64 {
        self.mvm_pj + self.vfu_pj + self.memory_pj + self.noc_pj + self.reload_pj
    }

    /// Total energy.
    pub fn total_pj(&self) -> f64 {
        self.dynamic_pj() + self.leakage_pj
    }
}

/// Local/global memory statistics (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct MemoryReport {
    /// Mean local-memory working set across active cores, bytes.
    pub avg_local_bytes: f64,
    /// Peak local-memory working set, bytes.
    pub peak_local_bytes: usize,
    /// Global-memory traffic per inference, bytes (loads + stores +
    /// spills).
    pub global_traffic_bytes: usize,
}

/// Full result of one simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Model name.
    pub model: String,
    /// Compiler that produced the schedule (`PIMCOMP` / `PUMA-like`).
    pub compiler: String,
    /// Pipeline mode simulated.
    pub mode: PipelineMode,
    /// HT: the steady-state pipeline interval (bottleneck core's busy
    /// time per inference). LL: the single-inference latency.
    pub total_cycles: u64,
    /// HT steady-state throughput in inferences/second.
    pub throughput_inf_per_s: f64,
    /// Latency in microseconds (meaningful in LL; in HT this is the
    /// same bottleneck interval expressed in time).
    pub latency_us: f64,
    /// MVM operations issued (one per AG per window).
    pub mvm_ops: u64,
    /// Crossbar-level MVM activations (MVM ops × crossbars per AG).
    pub crossbar_mvms: u64,
    /// VFU element-operations executed.
    pub vfu_elems: u64,
    /// Bytes moved between cores.
    pub noc_bytes: u64,
    /// Bytes moved through global memory.
    pub global_bytes: u64,
    /// Energy breakdown.
    pub energy: EnergyReport,
    /// Memory statistics.
    pub memory: MemoryReport,
    /// `weight_reload`: mapping epochs executed (0 when the model was
    /// not compiled in reload mode; 1 means it fit its budget).
    pub reload_epochs: usize,
    /// `weight_reload`: AGs rewritten per inference round.
    pub reload_ags_rewritten: usize,
    /// `weight_reload`: NVM cells written per inference round.
    pub reload_cells_rewritten: u64,
    /// `weight_reload`: cycles stalled at reload barriers (already
    /// included in `total_cycles`).
    pub reload_stall_cycles: u64,
    /// Cores that did any work.
    pub active_cores: usize,
    /// One entry per core, for bottleneck analysis; what it measures
    /// depends on the engine. HT: the cycle at which the core's last
    /// activity ends (its completion time — the maximum is the
    /// pipeline interval). LL: the sum of the core's recorded busy
    /// intervals (overlapping units count twice, so it can exceed
    /// `total_cycles`). Empty on the analytic multi-epoch
    /// `weight_reload` path.
    pub per_core_busy: Vec<u64>,
}

/// What an engine counted over one run.
#[derive(Default)]
pub(crate) struct Counters {
    pub mvm_ops: u64,
    pub crossbar_mvms: u64,
    pub vfu_elems: u64,
    pub noc_bytes: u64,
    pub noc_pj: f64,
    pub global_bytes: u64,
    pub local_bytes: u64,
}

/// Leak power of one active core with its router, in mW.
pub(crate) fn core_leak_mw(energy_model: &EnergyModel) -> f64 {
    energy_model.leakage.core_mw + energy_model.leakage.router_mw
}

/// Leak power of every chip's global memory, in mW.
pub(crate) fn global_memory_leak_mw(energy_model: &EnergyModel, hw: &HardwareConfig) -> f64 {
    energy_model.leakage.global_memory_mw * hw.chips as f64
}

/// Leakage of `active_cores` cores (with their routers) and every
/// chip's global memory, all powered for `cycles`.
pub(crate) fn makespan_leakage_pj(
    energy_model: &EnergyModel,
    hw: &HardwareConfig,
    active_cores: usize,
    cycles: u64,
) -> f64 {
    energy_model.leakage_pj(
        core_leak_mw(energy_model) * active_cores as f64 + global_memory_leak_mw(energy_model, hw),
        cycles,
    )
}

impl SimReport {
    /// Inferences per second for a pipeline interval of `cycles` at
    /// `clock_ghz`.
    pub(crate) fn throughput_from_cycles(cycles: u64, clock_ghz: f64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        clock_ghz * 1e9 / cycles as f64
    }
}

impl Counters {
    /// The one report tail of all three engines: prices the counts,
    /// adds the compiled `weight_reload` schedule's write barriers to
    /// `cycles` (every core stalls at a barrier together, so the stalls
    /// stretch the HT interval and the LL latency alike, and the cell
    /// writes add dynamic energy) and fills in the report. The caller
    /// computes `leakage_pj`: which cores leak for how long is the
    /// engine's model.
    pub(crate) fn into_report(
        self,
        compiled: &CompiledModel,
        energy_model: &EnergyModel,
        cycles: u64,
        leakage_pj: f64,
        active_cores: usize,
        per_core_busy: Vec<u64>,
    ) -> SimReport {
        let reload = compiled.reload.as_ref();
        let reload_stall_cycles = reload.map_or(0, |p| p.total_write_cycles);
        let total_cycles = cycles + reload_stall_cycles;
        let clock_ghz = compiled.hw.clock_ghz;
        SimReport {
            model: compiled.graph.name().to_string(),
            compiler: compiled.report.compiler.clone(),
            mode: compiled.mode,
            total_cycles,
            throughput_inf_per_s: SimReport::throughput_from_cycles(total_cycles, clock_ghz),
            latency_us: total_cycles as f64 / (clock_ghz * 1000.0),
            mvm_ops: self.mvm_ops,
            crossbar_mvms: self.crossbar_mvms,
            vfu_elems: self.vfu_elems,
            noc_bytes: self.noc_bytes,
            global_bytes: self.global_bytes,
            energy: EnergyReport {
                mvm_pj: self.crossbar_mvms as f64 * energy_model.mvm_pj_per_crossbar,
                vfu_pj: self.vfu_elems as f64 * energy_model.vfu_pj_per_element,
                memory_pj: self.global_bytes as f64 * energy_model.global_mem_pj_per_byte
                    + self.local_bytes as f64 * energy_model.local_mem_pj_per_byte,
                noc_pj: self.noc_pj,
                reload_pj: reload.map_or(0.0, |p| p.total_write_pj),
                leakage_pj,
            },
            memory: MemoryReport {
                avg_local_bytes: compiled.memory.avg_bytes,
                peak_local_bytes: compiled.memory.peak_bytes,
                global_traffic_bytes: self.global_bytes as usize,
            },
            reload_epochs: reload.map_or(0, |p| p.epoch_count()),
            reload_ags_rewritten: reload.map_or(0, |p| p.total_ags_written),
            reload_cells_rewritten: reload.map_or(0, |p| p.total_cells_written),
            reload_stall_cycles,
            active_cores,
            per_core_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_totals_add_up() {
        let e = EnergyReport {
            mvm_pj: 10.0,
            vfu_pj: 5.0,
            memory_pj: 3.0,
            noc_pj: 2.0,
            reload_pj: 4.0,
            leakage_pj: 20.0,
        };
        assert_eq!(e.dynamic_pj(), 24.0);
        assert_eq!(e.total_pj(), 44.0);
    }

    #[test]
    fn throughput_conversion() {
        // 1e6 cycles at 1 GHz = 1 ms -> 1000 inf/s.
        assert_eq!(SimReport::throughput_from_cycles(1_000_000, 1.0), 1000.0);
        assert_eq!(SimReport::throughput_from_cycles(0, 1.0), 0.0);
    }
}
