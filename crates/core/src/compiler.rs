//! What a compilation takes and what it produces (paper Fig. 3): the
//! [`CompileOptions`] a [`CompileSession`](crate::CompileSession) runs
//! under and the [`CompiledModel`] it finishes with.

use crate::ga::{GaParams, GaStats};
use crate::mapping::CoreMapping;
use crate::memory::{MemoryPlan, ReusePolicy};
use crate::partition::Partitioning;
use crate::reload::ReloadPlan;
use crate::schedule::Schedule;
use crate::waiting::DepInfo;
use crate::CompileError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use serde::{Deserialize, Serialize};

/// The largest HT transfer batch [`CompileOptions::validate`] accepts
/// (a sweep spec's `ht_batches` holds the same bound).
pub const MAX_BATCH: usize = 1 << 16;

/// User-facing compilation options (the "User Input" of paper Fig. 3
/// that is not part of the hardware description).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Application scenario: high-throughput or low-latency.
    pub mode: PipelineMode,
    /// Genetic-algorithm hyper-parameters.
    pub ga: GaParams,
    /// HT transfer batch: sliding windows processed between
    /// global-memory rounds (the paper's Fig. 10 protocol uses 2). At
    /// most 65 536 ([`CompileOptions::validate`]).
    pub batch: usize,
    /// Local-memory allocation policy.
    pub memory_policy: ReusePolicy,
    /// Resource-constrained compilation: when the model does not fit
    /// the crossbar budget, split it into *mapping epochs* and rewrite
    /// crossbar contents between them (COMPASS-style weight reloading)
    /// instead of failing with
    /// [`CompileError::InsufficientCapacity`]. Off by default.
    pub weight_reload: bool,
    /// Crossbar budget for `weight_reload` mode. `None` uses the full
    /// hardware capacity; `Some(n)` restricts placement to `n`
    /// crossbars even if the chip has more (for what-if sweeps over
    /// budgets). Only meaningful with `weight_reload: true`.
    pub reload_budget: Option<usize>,
    /// Sequence length to bind symbolic (`seq`) dimensions to before
    /// compiling. Required for transformer graphs imported with a
    /// symbolic sequence axis; ignored by fully fixed graphs.
    pub seq_len: Option<usize>,
}

impl CompileOptions {
    /// Defaults for a pipeline mode: paper GA parameters (100×200),
    /// AG-reuse, and the mode's natural batch (the paper's Fig. 10
    /// protocol value of 2 for HT; 1 for LL, where batching does not
    /// apply).
    pub fn new(mode: PipelineMode) -> Self {
        CompileOptions {
            mode,
            ga: GaParams::default(),
            batch: match mode {
                PipelineMode::HighThroughput => 2,
                PipelineMode::LowLatency => 1,
            },
            memory_policy: ReusePolicy::AgReuse,
            weight_reload: false,
            reload_budget: None,
            seq_len: None,
        }
    }

    /// Checks internal consistency. Run automatically when a
    /// [`CompileSession`](crate::CompileSession) is created, so stage
    /// code never sees malformed options.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidOptions`] when:
    ///
    /// * `batch` is zero, or above 65 536 (2^16): more windows than any
    ///   layer of the model zoo has (224 × 224 = 50 176), where the HT
    ///   simulator would issue `batch` MVMs per array group each round
    ///   and run for hours,
    /// * the GA population or generation count is zero,
    /// * `max_nodes_per_core` is pinned to zero,
    /// * a batch larger than 1 is combined with low-latency mode
    ///   (batching is a high-throughput transfer concept),
    /// * `reload_budget` is set without `weight_reload`, or is zero,
    /// * `seq_len` is set to zero.
    pub fn validate(&self) -> Result<(), CompileError> {
        let invalid = |detail: &str| {
            Err(CompileError::InvalidOptions {
                detail: detail.to_string(),
            })
        };
        if self.batch == 0 {
            return invalid("`batch` must be at least 1");
        }
        if self.batch > MAX_BATCH {
            return Err(CompileError::InvalidOptions {
                detail: format!("`batch` must be at most {MAX_BATCH}, not {}", self.batch),
            });
        }
        if self.ga.population == 0 {
            return invalid("GA population must be at least 1");
        }
        if self.ga.iterations == 0 {
            return invalid("GA generation count must be at least 1");
        }
        if self.ga.max_nodes_per_core == Some(0) {
            return invalid("`max_nodes_per_core` cannot be pinned to 0");
        }
        if self.mode == PipelineMode::LowLatency && self.batch > 1 {
            return invalid(
                "`batch` only applies to high-throughput mode; \
                 use batch 1 (the default) for low-latency compilations",
            );
        }
        if self.reload_budget.is_some() && !self.weight_reload {
            return invalid("`reload_budget` requires `weight_reload: true`");
        }
        if self.reload_budget == Some(0) {
            return invalid("`reload_budget` must be at least 1 crossbar");
        }
        if self.seq_len == Some(0) {
            return invalid("`seq_len` must be at least 1");
        }
        Ok(())
    }

    /// Replaces the GA parameters with the fast test configuration
    /// seeded by `seed`.
    pub fn with_fast_ga(mut self, seed: u64) -> Self {
        self.ga = GaParams::fast(seed);
        self
    }

    /// Sets the GA parameters.
    pub fn with_ga(mut self, ga: GaParams) -> Self {
        self.ga = ga;
        self
    }

    /// Overrides only the GA generation budget, keeping every other
    /// parameter (seed included) untouched.
    ///
    /// Because the GA's per-offspring RNG streams are keyed by
    /// `(seed, generation, slot)` — never by the total generation count
    /// — a run at a smaller budget evaluates exactly the first
    /// `iterations` generations of a longer run with the same seed.
    /// Budgeted-search drivers (successive halving over a sweep) rely
    /// on this: re-running a survivor at a larger budget continues the
    /// same deterministic trajectory instead of exploring a different
    /// one.
    pub fn with_ga_budget(mut self, iterations: usize) -> Self {
        self.ga.iterations = iterations;
        self
    }

    /// Sets the GA worker-thread count. `None` (the default) runs the
    /// search serially; any setting produces bit-identical results —
    /// see [`GaParams::parallelism`] for the determinism contract.
    pub fn with_parallelism(mut self, threads: Option<std::num::NonZeroUsize>) -> Self {
        self.ga.parallelism = threads;
        self
    }

    /// Sets the memory policy.
    pub fn with_policy(mut self, policy: ReusePolicy) -> Self {
        self.memory_policy = policy;
        self
    }

    /// Sets the HT transfer batch, as given: a zero batch is rejected by
    /// [`CompileOptions::validate`], never silently raised.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Enables `weight_reload` mode with an optional crossbar budget
    /// (`None` = the full hardware capacity).
    pub fn with_weight_reload(mut self, budget: Option<usize>) -> Self {
        self.weight_reload = true;
        self.reload_budget = budget;
        self
    }

    /// Binds symbolic sequence dimensions to `len` tokens before
    /// compiling. Has no effect on fully fixed graphs.
    pub fn with_seq_len(mut self, len: usize) -> Self {
        self.seq_len = Some(len);
        self
    }
}

/// What a compilation decided that the compiled model itself does not
/// record: who built the mapping, the GA's trace and the mapping's
/// analytic fitness. Everything else (model name, mode, replication,
/// active cores, crossbars) is read from the [`CompiledModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompileReport {
    /// Which compiler produced this (`PIMCOMP` or `PUMA-like`).
    pub compiler: String,
    /// GA trace (absent for the baseline).
    pub ga: Option<GaStats>,
    /// The mode's analytic fitness of the final mapping (cycles): HT's
    /// `F_HT` without the GA's tie-breaker, LL's `max(chain, issue
    /// floor)`, the value the GA minimised.
    pub estimated_fitness: f64,
}

/// Everything the simulator needs to execute a compiled model.
///
/// Only [`Scheduled::finish`](crate::Scheduled::finish) builds one, so
/// every derived structure agrees with the graph, hardware and mapping
/// it was derived from. Wrap it in a
/// [`CompiledArtifact`](crate::CompiledArtifact) for versioned
/// persistence: the artifact keeps the decisions, and loading derives
/// the rest again.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The normalized graph that was compiled.
    pub graph: Graph,
    /// Hardware target.
    pub hw: HardwareConfig,
    /// Pipeline mode.
    pub mode: PipelineMode,
    /// Node partitioning.
    pub partitioning: Partitioning,
    /// Replication + placement.
    pub mapping: CoreMapping,
    /// Dependency / waiting analysis.
    pub dep: DepInfo,
    /// The per-core schedule.
    pub schedule: Schedule,
    /// Local-memory plan under the selected policy.
    pub memory: MemoryPlan,
    /// Epoch/reload plan. `Some` whenever the model was compiled in
    /// `weight_reload` mode (a model that fits its budget gets a
    /// single-epoch plan with zero reload cost, so the mode stays
    /// visible in the artifact); `None` for ordinary compilations.
    pub reload: Option<ReloadPlan>,
    /// Compilation summary.
    pub report: CompileReport,
}

impl CompiledModel {
    /// Recomputes the memory plan under a different policy without
    /// recompiling (used by the Fig. 10 sweep).
    pub fn replan_memory(&self, policy: ReusePolicy) -> MemoryPlan {
        MemoryPlan::for_schedule(
            &self.graph,
            &self.schedule,
            &self.partitioning,
            &self.mapping,
            &self.dep,
            &self.hw,
            policy,
        )
    }

    /// Crossbars occupied by weights.
    pub fn crossbars_used(&self) -> usize {
        self.mapping.replication.total_crossbars(&self.partitioning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompileSession;
    use pimcomp_ir::models;

    fn compile(mode: PipelineMode) -> CompiledModel {
        let graph = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        let opts = CompileOptions::new(mode).with_fast_ga(11);
        CompileSession::new(hw, &graph, opts)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn ht_compilation_produces_ht_schedule() {
        let c = compile(PipelineMode::HighThroughput);
        assert!(c.schedule.as_ht().is_some());
        assert!(c.report.ga.is_some());
        assert!(c.report.estimated_fitness > 0.0);
    }

    #[test]
    fn ll_compilation_produces_ll_schedule() {
        let c = compile(PipelineMode::LowLatency);
        assert!(c.schedule.as_ll().is_some());
    }

    #[test]
    fn compilation_is_deterministic_per_seed() {
        let a = compile(PipelineMode::HighThroughput);
        let b = compile(PipelineMode::HighThroughput);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn replan_memory_changes_only_the_plan() {
        let c = compile(PipelineMode::HighThroughput);
        let naive = c.replan_memory(ReusePolicy::Naive);
        let ag = c.replan_memory(ReusePolicy::AgReuse);
        assert!(naive.avg_bytes >= ag.avg_bytes);
        assert_eq!(c.memory.policy, ReusePolicy::AgReuse);
    }

    #[test]
    fn normalization_folds_bn_before_compiling() {
        let graph = models::resnet18();
        let hw = HardwareConfig::puma_with_chips(8);
        let opts = CompileOptions {
            ga: GaParams {
                population: 4,
                iterations: 2,
                ..GaParams::fast(1)
            },
            ..CompileOptions::new(PipelineMode::HighThroughput)
        };
        let out = CompileSession::new(hw, &graph, opts)
            .unwrap()
            .run()
            .unwrap();
        assert!(out
            .graph
            .nodes()
            .iter()
            .all(|n| !matches!(n.op, pimcomp_ir::Op::BatchNorm)));
    }

    #[test]
    fn invalid_hardware_is_rejected() {
        let mut hw = HardwareConfig::small_test();
        hw.parallelism = 0;
        let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        let err = CompileSession::new(hw, &models::tiny_mlp(), opts).unwrap_err();
        assert!(matches!(err, CompileError::InvalidHardware { .. }));
    }
}
