//! Cycle-accurate simulator for crossbar-based PIM DNN accelerators
//! (paper Section V-A.2).
//!
//! The simulator consumes the operation schedules compiled by
//! `pimcomp-core` and models the phenomena the paper's evaluation
//! depends on: MVM structural conflicts and data dependencies, the
//! per-core issue interval realizing the parallelism degree, on-chip
//! local-memory usage, global-memory bandwidth contention, inter-core
//! synchronization over the NoC, and energy (dynamic + leakage).
//!
//! The simulator reports *performance* of a compiled mapping; its
//! functional counterpart `pimcomp-exec` checks *correctness* of the
//! same mapping by executing it numerically. A sweep with a
//! `quantization` axis carries both kinds of metrics side by side.
//!
//! # Example
//!
//! Compile through a staged session, persist the result as a versioned
//! artifact, and simulate the reloaded artifact — the
//! compile-once/serve-many flow:
//!
//! ```
//! use pimcomp_arch::{HardwareConfig, PipelineMode};
//! use pimcomp_core::{CompileOptions, CompileSession, CompiledArtifact};
//! use pimcomp_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = pimcomp_ir::models::tiny_mlp();
//! let hw = HardwareConfig::small_test();
//! let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(3);
//! let compiled = CompileSession::new(hw.clone(), &graph, opts)?.run()?;
//!
//! // Persist + reload (normally across processes / machines) ...
//! let artifact = CompiledArtifact::from_json(&CompiledArtifact::new(compiled).to_json()?)?;
//!
//! // ... and serve it: the simulator fingerprint-checks the target.
//! let report = Simulator::new(hw).run_artifact(&artifact)?;
//! assert!(report.total_cycles > 0);
//! assert!(report.energy.total_pj() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ht;
mod ll;
mod reload;
mod report;
mod resources;

pub use report::{EnergyReport, MemoryReport, SimReport};

use pimcomp_arch::{ComponentLibrary, EnergyModel, HardwareConfig};
use pimcomp_core::{CompiledArtifact, CompiledModel};
use std::fmt;

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The compiled model's schedule kind does not match the requested
    /// run (internal misuse).
    WrongScheduleKind,
    /// The event budget was exhausted — the schedule appears to make no
    /// progress.
    Diverged {
        /// Diagnostic description.
        detail: String,
    },
    /// Work remained after the event queue drained (missing wake-up /
    /// unsatisfiable dependency).
    Deadlock {
        /// Diagnostic description.
        detail: String,
    },
    /// A [`CompiledArtifact`] was compiled for hardware that does not
    /// match this simulator's target (fingerprint check failed).
    HardwareMismatch {
        /// Diagnostic description.
        detail: String,
    },
    /// The schedule refers to a core, program, vec task, AG instance or
    /// node that the model does not have (a corrupted or hand-edited
    /// artifact; deserialization checks none of these).
    InvalidSchedule {
        /// Diagnostic description.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WrongScheduleKind => write!(f, "schedule kind does not match simulator"),
            SimError::Diverged { detail } => write!(f, "simulation diverged: {detail}"),
            SimError::Deadlock { detail } => write!(f, "simulation deadlocked: {detail}"),
            SimError::HardwareMismatch { detail } => {
                write!(f, "artifact/simulator hardware mismatch: {detail}")
            }
            SimError::InvalidSchedule { detail } => write!(f, "invalid schedule: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Artifacts deserialize unvalidated; each engine checks every index it
/// is about to follow, once, and reports a foreign one through this.
pub(crate) fn invalid(detail: String) -> SimError {
    SimError::InvalidSchedule { detail }
}

/// The simulator front end: dispatches a compiled model to the HT or LL
/// engine with a consistent energy model.
#[derive(Debug, Clone)]
pub struct Simulator {
    hw: HardwareConfig,
    energy: EnergyModel,
}

impl Simulator {
    /// Creates a simulator for the target, deriving energies from the
    /// Table I component library.
    pub fn new(hw: HardwareConfig) -> Self {
        let energy = EnergyModel::derive(&hw, &ComponentLibrary::puma());
        Simulator { hw, energy }
    }

    /// Executes a compiled model cycle-accurately.
    ///
    /// # Errors
    ///
    /// [`SimError::HardwareMismatch`] when the model was compiled for a
    /// target other than this simulator's (timing would come from one
    /// description and energy from the other).
    /// [`SimError::Diverged`] / [`SimError::Deadlock`] indicate a
    /// schedule that cannot complete (these are asserted against in the
    /// test suite and indicate compiler bugs).
    pub fn run(&self, compiled: &CompiledModel) -> Result<SimReport, SimError> {
        if self.hw != compiled.hw {
            return Err(SimError::HardwareMismatch {
                detail: "the model was compiled for a different `HardwareConfig` than \
                         this simulator was built for"
                    .to_string(),
            });
        }
        // Multi-epoch `weight_reload` models execute their epochs
        // serially; the event engines would model the over-committed
        // mapping as concurrent, so they take the analytic path (see
        // the `reload` module docs).
        if let Some(plan) = compiled.reload.as_ref().filter(|p| !p.is_single_epoch()) {
            return reload::run(compiled, &self.energy, plan);
        }
        match compiled.mode {
            pimcomp_arch::PipelineMode::HighThroughput => ht::run(compiled, &self.energy),
            pimcomp_arch::PipelineMode::LowLatency => ll::run(compiled, &self.energy),
        }
    }

    /// Executes a persisted [`CompiledArtifact`] after verifying it was
    /// compiled for this simulator's hardware — the serve side of the
    /// compile-once/serve-many flow.
    ///
    /// # Errors
    ///
    /// [`SimError::HardwareMismatch`] when the artifact's hardware
    /// fingerprint differs from this simulator's target, plus the
    /// [`Simulator::run`] errors.
    pub fn run_artifact(&self, artifact: &CompiledArtifact) -> Result<SimReport, SimError> {
        artifact
            .verify_hardware(&self.hw)
            .map_err(|e| SimError::HardwareMismatch {
                detail: e.to_string(),
            })?;
        self.run(artifact.model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_arch::PipelineMode;
    use pimcomp_core::{CompileOptions, PimCompiler, PumaCompiler, ReusePolicy};
    use pimcomp_ir::models;

    fn sim(mode: PipelineMode, seed: u64) -> SimReport {
        let graph = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        let compiled = PimCompiler::new(hw.clone())
            .compile(&graph, &CompileOptions::new(mode).with_fast_ga(seed))
            .unwrap();
        Simulator::new(hw).run(&compiled).unwrap()
    }

    #[test]
    fn ht_simulation_completes_with_positive_outputs() {
        let r = sim(PipelineMode::HighThroughput, 5);
        assert!(r.total_cycles > 0);
        assert!(r.throughput_inf_per_s > 0.0);
        assert!(r.mvm_ops > 0);
        assert!(r.crossbar_mvms >= r.mvm_ops);
        assert!(r.energy.dynamic_pj() > 0.0);
        assert!(r.energy.leakage_pj > 0.0);
        assert!(r.active_cores > 0);
    }

    #[test]
    fn ll_simulation_completes_with_positive_outputs() {
        let r = sim(PipelineMode::LowLatency, 5);
        assert!(r.total_cycles > 0);
        assert!(r.latency_us > 0.0);
        assert!(r.mvm_ops > 0);
    }

    #[test]
    fn mvm_op_count_matches_workload() {
        // Total MVM issues = sum over nodes of windows * AGs-per-replica
        // (replication splits windows across replicas, preserving the
        // total under the strided assignment).
        let graph = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        let compiled = PimCompiler::new(hw.clone())
            .compile(
                &graph,
                &CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(5),
            )
            .unwrap();
        let r = Simulator::new(hw).run(&compiled).unwrap();
        let expect: usize = compiled
            .partitioning
            .entries()
            .iter()
            .map(|e| e.windows * e.ags_per_replica)
            .sum();
        assert_eq!(r.mvm_ops, expect as u64);
    }

    #[test]
    fn ht_bottleneck_is_max_core_time() {
        let r = sim(PipelineMode::HighThroughput, 6);
        let max = r.per_core_busy.iter().copied().max().unwrap();
        assert_eq!(r.total_cycles, max);
    }

    #[test]
    fn pimcomp_not_slower_than_baseline_on_small_target() {
        // On this deliberately tiny target the GA's analytic objective
        // must match or beat the greedy baseline; the simulated number
        // may wobble within a tolerance because VFU/global-memory
        // effects are outside the Fig. 5 fitness. (The paper-scale
        // comparison lives in the fig8 benchmark harness.)
        let graph = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        let opts =
            CompileOptions::new(PipelineMode::HighThroughput).with_ga(pimcomp_core::GaParams {
                population: 24,
                iterations: 80,
                ..pimcomp_core::GaParams::fast(9)
            });
        let ours = PimCompiler::new(hw.clone()).compile(&graph, &opts).unwrap();
        let base = PumaCompiler::new(hw.clone())
            .compile(&graph, &opts)
            .unwrap();
        assert!(
            ours.report.estimated_fitness <= base.report.estimated_fitness * 1.02,
            "GA fitness {} vs baseline {}",
            ours.report.estimated_fitness,
            base.report.estimated_fitness
        );
        let sim = Simulator::new(hw);
        let r_ours = sim.run(&ours).unwrap();
        let r_base = sim.run(&base).unwrap();
        assert!(
            r_ours.total_cycles as f64 <= r_base.total_cycles as f64 * 1.30,
            "PIMCOMP {} vs baseline {}",
            r_ours.total_cycles,
            r_base.total_cycles
        );
    }

    #[test]
    fn higher_parallelism_never_slows_ht() {
        let graph = models::tiny_cnn();
        let mut prev = u64::MAX;
        for par in [1, 4, 16] {
            let hw = HardwareConfig::small_test().with_parallelism(par);
            let compiled = PimCompiler::new(hw.clone())
                .compile(
                    &graph,
                    &CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(13),
                )
                .unwrap();
            let r = Simulator::new(hw).run(&compiled).unwrap();
            assert!(
                r.total_cycles <= prev,
                "parallelism {par} slowed things down: {} > {prev}",
                r.total_cycles
            );
            prev = r.total_cycles;
        }
    }

    #[test]
    fn memory_policy_affects_ht_global_traffic_under_pressure() {
        let graph = models::tiny_cnn();
        let mut hw = HardwareConfig::small_test();
        hw.local_memory_bytes = 2 * 1024; // force spills for naive
        let mk = |policy| {
            let compiled = PimCompiler::new(hw.clone())
                .compile(
                    &graph,
                    &CompileOptions::new(PipelineMode::HighThroughput)
                        .with_fast_ga(21)
                        .with_policy(policy),
                )
                .unwrap();
            Simulator::new(hw.clone()).run(&compiled).unwrap()
        };
        let naive = mk(ReusePolicy::Naive);
        let ag = mk(ReusePolicy::AgReuse);
        assert!(
            naive.memory.global_traffic_bytes >= ag.memory.global_traffic_bytes,
            "naive {} < ag {}",
            naive.memory.global_traffic_bytes,
            ag.memory.global_traffic_bytes
        );
    }

    #[test]
    fn multi_epoch_reload_takes_the_analytic_path() {
        // A tight budget forces a multi-epoch plan; the report must be
        // assembled from the ReloadPlan (serial epochs + write
        // barriers), not the event engines.
        let graph = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        let compiled = PimCompiler::new(hw.clone())
            .compile(
                &graph,
                &CompileOptions::new(PipelineMode::HighThroughput)
                    .with_fast_ga(5)
                    .with_weight_reload(Some(32)),
            )
            .unwrap();
        let plan = compiled.reload.as_ref().unwrap();
        assert!(plan.epoch_count() > 1);
        let r = Simulator::new(hw).run(&compiled).unwrap();
        let batch = compiled.schedule.as_ht().map_or(1, |s| s.batch) as u64;
        assert_eq!(
            r.total_cycles,
            plan.total_compute_cycles * batch + plan.total_write_cycles
        );
        assert_eq!(r.reload_epochs, plan.epoch_count());
        assert_eq!(r.reload_ags_rewritten, plan.total_ags_written);
        assert_eq!(r.reload_stall_cycles, plan.total_write_cycles);
        assert!(r.reload_stall_cycles > 0);
        assert_eq!(r.energy.reload_pj, plan.total_write_pj);
        assert!(r.energy.reload_pj > 0.0);
        assert!(r.energy.leakage_pj > 0.0);
        assert!(r.mvm_ops > 0);
        // Event-level counters are out of scope on the analytic path.
        assert!(r.per_core_busy.is_empty());
    }

    #[test]
    fn resident_reload_simulates_like_an_ordinary_compile() {
        // A budget the model fits keeps the event engines: the report
        // must match the reload-off compilation of the same seed except
        // for the (zero-cost) reload bookkeeping.
        let graph = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        let compile = |reload: bool| {
            let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(5);
            if reload {
                opts = opts.with_weight_reload(None);
            }
            PimCompiler::new(hw.clone()).compile(&graph, &opts).unwrap()
        };
        let plain = Simulator::new(hw.clone()).run(&compile(false)).unwrap();
        let resident = compile(true);
        assert!(resident.reload.as_ref().unwrap().is_single_epoch());
        let r = Simulator::new(hw.clone()).run(&resident).unwrap();
        assert_eq!(r.total_cycles, plain.total_cycles);
        assert_eq!(r.reload_stall_cycles, 0);
        assert_eq!(r.energy.reload_pj, 0.0);
        assert_eq!(r.energy.total_pj(), plain.energy.total_pj());
    }

    #[test]
    fn ll_streaming_is_not_pathologically_slow() {
        let ht = sim(PipelineMode::HighThroughput, 31);
        let ll = sim(PipelineMode::LowLatency, 31);
        // Guard against gross regressions in the LL engine: streaming a
        // single inference should stay within a small factor of the HT
        // pipeline interval on this small model.
        assert!(ll.total_cycles <= ht.total_cycles * 8);
    }
}
