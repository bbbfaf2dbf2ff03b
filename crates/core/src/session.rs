//! Staged compilation sessions: the paper's four-stage pipeline
//! (Fig. 3) exposed as typestate artifacts.
//!
//! [`PimCompiler::compile`](crate::PimCompiler::compile) runs the whole
//! pipeline in one opaque call. A [`CompileSession`] instead walks the
//! stages one typed artifact at a time,
//!
//! ```text
//! CompileSession ──partition()──► Partitioned ──optimize()──► Optimized
//!                    §IV-B                        §IV-C           │
//!                                                            schedule()
//!                                                              §IV-D
//!                                                                ▼
//!                CompiledModel ◄──finish()── Scheduled
//! ```
//!
//! so that every intermediate result is inspectable and the pipeline is
//! *re-enterable*: swap GA parameters on a [`Partitioned`] or
//! re-optimize an [`Optimized`] without repeating partitioning, replan
//! memory or rebatch a [`Scheduled`] without re-running the GA.
//! [`CompileSession::run_observed`] streams stage and GA progress
//! through a [`CompileObserver`]; a mapping built by something other
//! than the GA (the PUMA-like baseline) enters the same pipeline through
//! [`Partitioned::map_with`].
//!
//! # Example
//!
//! ```
//! use pimcomp_arch::{HardwareConfig, PipelineMode};
//! use pimcomp_core::{CompileOptions, CompileSession, ReusePolicy};
//!
//! # fn main() -> Result<(), pimcomp_core::CompileError> {
//! let graph = pimcomp_ir::models::tiny_cnn();
//! let hw = HardwareConfig::small_test();
//! let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(7);
//!
//! let scheduled = CompileSession::new(hw, &graph, opts)?
//!     .partition()?    // §IV-B  — inspect .partitioning()
//!     .optimize()?     // §IV-C  — inspect .mapping() / .ga_stats()
//!     .schedule()?;    // §IV-D  — inspect .schedule() / .memory()
//!
//! // Re-enter scheduling under a different memory policy; everything
//! // upstream (partitioning, GA result) is reused as-is.
//! let scheduled = scheduled.replan_memory(ReusePolicy::Naive);
//! let compiled = scheduled.finish();
//! assert_eq!(compiled.memory.policy, ReusePolicy::Naive);
//! # Ok(())
//! # }
//! ```

use crate::compiler::{CompileOptions, CompileReport, CompiledModel, StageTimings};
use crate::ga::{optimize_observed, GaContext, GaGeneration, GaParams, GaStats};
use crate::mapping::CoreMapping;
use crate::memory::{MemoryPlan, ReusePolicy};
use crate::partition::{EpochPlan, EpochReloadCost, Partitioning, ReloadPlan};
use crate::schedule::{HtSchedule, LlSchedule, Schedule};
use crate::waiting::DepInfo;
use crate::{fitness, CompileError};
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use std::time::{Duration, Instant};

/// The pipeline stages a [`CompileObserver`] is notified about
/// (the rows of the paper's Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompileStage {
    /// Node partitioning (§IV-B).
    NodePartitioning,
    /// Weight replicating + core mapping, the GA (§IV-C).
    ReplicatingMapping,
    /// Dataflow scheduling + memory planning (§IV-D).
    DataflowScheduling,
}

impl CompileStage {
    /// Human-readable stage name.
    pub fn label(self) -> &'static str {
        match self {
            CompileStage::NodePartitioning => "node partitioning",
            CompileStage::ReplicatingMapping => "replicating + mapping",
            CompileStage::DataflowScheduling => "dataflow scheduling",
        }
    }
}

/// Receives progress callbacks while a session compiles.
///
/// All methods have no-op defaults; implement only what you need. The
/// GA generation callback fires once per generation of the
/// replicating + mapping stage, which for paper-sized runs
/// (population 100 × 200 iterations) is frequent enough for live
/// progress bars.
pub trait CompileObserver {
    /// A stage is about to run.
    fn on_stage_start(&mut self, _stage: CompileStage) {}

    /// A stage finished in `elapsed` wall-clock time.
    fn on_stage_finish(&mut self, _stage: CompileStage, _elapsed: Duration) {}

    /// The GA completed one generation.
    fn on_ga_generation(&mut self, _progress: GaGeneration) {}
}

/// The do-nothing observer behind the unobserved entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CompileObserver for NullObserver {}

/// A validated compilation session: hardware target + normalized graph
/// + options, ready to enter the pipeline.
///
/// Creation validates all three inputs, so stage methods only fail for
/// capacity/mapping reasons, never for malformed input.
#[derive(Debug, Clone)]
pub struct CompileSession {
    hw: HardwareConfig,
    graph: Graph,
    opts: CompileOptions,
}

impl CompileSession {
    /// Validates inputs and opens a session.
    ///
    /// The graph is normalized here (batch-norm folding, dropout
    /// elimination) when `opts.normalize` is set.
    ///
    /// # Errors
    ///
    /// * [`CompileError::InvalidHardware`] / [`CompileError::InvalidGraph`]
    ///   for malformed inputs,
    /// * [`CompileError::InvalidOptions`] for malformed options (zero
    ///   batch, empty GA population or generations, HT-only options in
    ///   LL mode — see [`CompileOptions::validate`]),
    /// * [`CompileError::UnboundSeqLen`] when the graph has a symbolic
    ///   sequence dimension and `opts.seq_len` is `None`.
    pub fn new(
        hw: HardwareConfig,
        graph: &Graph,
        opts: CompileOptions,
    ) -> Result<Self, CompileError> {
        hw.validate().map_err(|e| CompileError::InvalidHardware {
            detail: e.to_string(),
        })?;
        opts.validate()?;
        // Bind the symbolic sequence length before anything computes
        // shapes; fully fixed graphs pass through untouched.
        let graph = match opts.seq_len {
            Some(len) => pimcomp_ir::transform::bind_seq_len(graph, len).map_err(|e| {
                CompileError::InvalidGraph {
                    detail: e.to_string(),
                }
            })?,
            None if graph.has_symbolic_dims() => {
                return Err(CompileError::UnboundSeqLen {
                    model: graph.name().to_string(),
                })
            }
            None => graph.clone(),
        };
        let graph = if opts.normalize {
            pimcomp_ir::transform::normalize(&graph).map_err(|e| CompileError::InvalidGraph {
                detail: e.to_string(),
            })?
        } else {
            graph
        };
        graph.validate().map_err(|e| CompileError::InvalidGraph {
            detail: e.to_string(),
        })?;
        Ok(CompileSession { hw, graph, opts })
    }

    /// Stage 1 (§IV-B): node partitioning + dependency analysis.
    ///
    /// # Errors
    ///
    /// [`CompileError::NoMvmNodes`] when nothing maps to crossbars.
    pub fn partition(self) -> Result<Partitioned, CompileError> {
        let t0 = Instant::now();
        let partitioning = Partitioning::new(&self.graph, &self.hw)?;
        let dep = DepInfo::analyze(&self.graph);
        Ok(Partitioned {
            session: self,
            partitioning,
            dep,
            elapsed: t0.elapsed(),
        })
    }

    /// Convenience: runs all stages and finishes the model.
    ///
    /// # Errors
    ///
    /// Any stage error; see the stage methods.
    pub fn run(self) -> Result<CompiledModel, CompileError> {
        self.run_observed(&mut NullObserver)
    }

    /// [`CompileSession::run`] with progress callbacks.
    ///
    /// # Errors
    ///
    /// Any stage error; see the stage methods.
    pub fn run_observed(
        self,
        observer: &mut dyn CompileObserver,
    ) -> Result<CompiledModel, CompileError> {
        observer.on_stage_start(CompileStage::NodePartitioning);
        let partitioned = self.partition()?;
        observer.on_stage_finish(CompileStage::NodePartitioning, partitioned.elapsed());
        let optimized = partitioned.optimize_observed(observer)?;
        observer.on_stage_start(CompileStage::DataflowScheduling);
        let scheduled = optimized.schedule()?;
        observer.on_stage_finish(CompileStage::DataflowScheduling, scheduled.elapsed());
        Ok(scheduled.finish())
    }
}

/// Stage-1 artifact: the partitioned workload (§IV-B) plus the
/// dependency analysis both later stages consume.
#[derive(Debug, Clone)]
pub struct Partitioned {
    session: CompileSession,
    partitioning: Partitioning,
    dep: DepInfo,
    elapsed: Duration,
}

impl Partitioned {
    /// The node partitioning (one entry per MVM node).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Wall-clock time partitioning took.
    pub(crate) fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Re-enters this stage with different options — e.g. new GA
    /// parameters or a different pipeline mode — keeping the
    /// partitioning (which depends only on graph + hardware).
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidOptions`] when the new options are
    /// malformed or change `normalize` (normalization already happened
    /// at session creation, so it cannot be revised here).
    pub(crate) fn with_options(mut self, opts: CompileOptions) -> Result<Self, CompileError> {
        opts.validate()?;
        if opts.normalize != self.session.opts.normalize {
            return Err(CompileError::InvalidOptions {
                detail: "cannot change `normalize` after partitioning; \
                         open a new session"
                    .to_string(),
            });
        }
        self.session.opts = opts;
        Ok(self)
    }

    /// Shorthand for [`Partitioned::with_options`] swapping only the GA
    /// parameters.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidOptions`] when the parameters are malformed.
    pub(crate) fn with_ga(self, ga: GaParams) -> Result<Self, CompileError> {
        let opts = self.session.opts.clone().with_ga(ga);
        self.with_options(opts)
    }

    /// Stages 2+3 (§IV-C): joint weight replication + core mapping via
    /// the genetic algorithm — or, in `weight_reload` mode when the
    /// model exceeds its crossbar budget, the deterministic epoch
    /// packer (COMPASS-style time multiplexing, no GA).
    ///
    /// # Errors
    ///
    /// * [`CompileError::InsufficientCapacity`] when even one replica
    ///   per node cannot be placed (suggesting `weight_reload` as an
    ///   escape hatch),
    /// * [`CompileError::ReloadBudgetTooSmall`] when a reload budget
    ///   cannot hold even one Array Group.
    pub fn optimize(self) -> Result<Optimized, CompileError> {
        self.optimize_observed(&mut NullObserver)
    }

    /// Stages 2+3 by a mapping strategy other than the GA: `strategy`
    /// builds the replication + placement from the partitioning (the
    /// PUMA-like baseline's [`puma_mapping`](crate::puma_mapping) is
    /// one), and the result schedules, plans memory, and reports like
    /// any other — under `compiler` as the report's compiler name, with
    /// no GA trace and no reload plan. The mapping must be one of the
    /// partitioning it was handed (as [`CoreMapping::from_chromosome`]
    /// guarantees); like the GA's own result it is not re-validated.
    ///
    /// # Errors
    ///
    /// Whatever `strategy` fails with.
    pub(crate) fn map_with(
        self,
        compiler: &'static str,
        strategy: impl FnOnce(&Partitioning, &HardwareConfig) -> Result<CoreMapping, CompileError>,
    ) -> Result<Optimized, CompileError> {
        let t0 = Instant::now();
        let mapping = strategy(&self.partitioning, &self.session.hw)?;
        Ok(Optimized {
            partitioned: self,
            mapping,
            compiler,
            ga_stats: None,
            reload: None,
            elapsed: t0.elapsed(),
        })
    }

    /// [`Partitioned::optimize`] with progress callbacks (stage events
    /// plus one [`GaGeneration`] per GA generation).
    ///
    /// # Errors
    ///
    /// Same as [`Partitioned::optimize`].
    pub(crate) fn optimize_observed(
        self,
        observer: &mut dyn CompileObserver,
    ) -> Result<Optimized, CompileError> {
        observer.on_stage_start(CompileStage::ReplicatingMapping);
        let t0 = Instant::now();
        let hw = &self.session.hw;
        let capacity = hw.crossbar_capacity_per_core();

        // `weight_reload` mode: resolve the budget and decide between
        // the GA (model fits the budgeted core prefix; reload cost is
        // zero) and the deterministic epoch packer (over budget; the
        // crossbars are time-multiplexed, so replication is pointless
        // and the GA's search space collapses — a next-fit pass is
        // both deterministic and sufficient).
        let budget = self.session.opts.weight_reload.then(|| {
            self.session
                .opts
                .reload_budget
                .unwrap_or_else(|| hw.total_crossbars())
                .min(hw.total_crossbars())
        });
        let (core_limit, epoch_plan) = match budget {
            None => (None, None),
            Some(b) => {
                let usable = (b / capacity).min(hw.total_cores());
                if usable >= 1 && self.partitioning.min_crossbars() <= usable * capacity {
                    (Some(usable), None)
                } else {
                    let plan = EpochPlan::new(&self.partitioning, hw, b)?;
                    (None, Some(plan))
                }
            }
        };

        if let Some(plan) = epoch_plan {
            let mapping = CoreMapping::from_epoch_plan(&plan, &self.partitioning, hw.total_cores());
            let reload = plan.reload_plan(&self.partitioning, hw);
            let elapsed = t0.elapsed();
            observer.on_stage_finish(CompileStage::ReplicatingMapping, elapsed);
            return Ok(Optimized {
                partitioned: self,
                mapping,
                compiler: PIMCOMP,
                ga_stats: None,
                reload: Some(reload),
                elapsed,
            });
        }

        let ctx = GaContext {
            hw: &self.session.hw,
            graph: &self.session.graph,
            partitioning: &self.partitioning,
            dep: &self.dep,
            mode: self.session.opts.mode,
            core_limit,
        };
        let (chromosome, ga_stats) = optimize_observed(&ctx, &self.session.opts.ga, &mut |p| {
            observer.on_ga_generation(p);
        })?;
        let mapping = CoreMapping::from_chromosome(&chromosome, &self.partitioning)?;
        let reload = budget.map(|b| {
            resident_reload_plan(
                &self.partitioning,
                &mapping,
                &self.session.hw,
                b,
                core_limit.unwrap_or_else(|| self.session.hw.total_cores()),
            )
        });
        let elapsed = t0.elapsed();
        observer.on_stage_finish(CompileStage::ReplicatingMapping, elapsed);
        Ok(Optimized {
            partitioned: self,
            mapping,
            compiler: PIMCOMP,
            ga_stats: Some(ga_stats),
            reload,
            elapsed,
        })
    }
}

/// The [`ReloadPlan`] of a reload-mode model that fits its budget: one
/// epoch, every weight resident, zero reload cost — kept (rather than
/// `None`) so artifacts record that the compilation was
/// budget-constrained.
fn resident_reload_plan(
    partitioning: &Partitioning,
    mapping: &CoreMapping,
    hw: &HardwareConfig,
    budget: usize,
    ring_cores: usize,
) -> ReloadPlan {
    let cells_per_weight = hw.cells_per_weight();
    let mut resident = 0u64;
    for inst in &mapping.instances {
        let e = partitioning.entry(inst.mvm);
        let rows = crate::schedule::slice_rows(e.weight_height, hw.crossbar_rows, inst.slice);
        resident += (rows * e.weight_width * cells_per_weight) as u64;
    }
    ReloadPlan {
        budget,
        ring_cores,
        epochs: vec![EpochReloadCost {
            resident_cells: resident,
            ..EpochReloadCost::default()
        }],
        total_ags_written: 0,
        total_cells_written: 0,
        total_write_cycles: 0,
        total_write_pj: 0.0,
        total_compute_cycles: 0,
    }
}

/// The compiler name of GA- and epoch-packer-built mappings.
const PIMCOMP: &str = "PIMCOMP";

/// Stage-2/3 artifact: the replication + placement result (§IV-C) —
/// from the GA, or from the epoch packer in over-budget
/// `weight_reload` compilations.
#[derive(Debug, Clone)]
pub struct Optimized {
    partitioned: Partitioned,
    mapping: CoreMapping,
    compiler: &'static str,
    ga_stats: Option<GaStats>,
    reload: Option<ReloadPlan>,
    elapsed: Duration,
}

impl Optimized {
    /// The replication + placement decision.
    pub fn mapping(&self) -> &CoreMapping {
        &self.mapping
    }

    /// The GA's optimization trace (`None` when the epoch packer
    /// produced the mapping — over-budget `weight_reload` runs skip
    /// the GA entirely).
    pub fn ga_stats(&self) -> Option<&GaStats> {
        self.ga_stats.as_ref()
    }

    /// The upstream partitioning artifact.
    pub fn partitioned(&self) -> &Partitioned {
        &self.partitioned
    }

    /// Discards this mapping and steps back to the partitioning
    /// artifact (e.g. to change the pipeline mode, which invalidates
    /// the GA's objective).
    pub(crate) fn into_partitioned(self) -> Partitioned {
        self.partitioned
    }

    /// Re-runs the GA with different parameters, reusing the
    /// partitioning. Equivalent to
    /// `self.into_partitioned().with_ga(ga)?.optimize()`.
    ///
    /// # Errors
    ///
    /// Same as [`Partitioned::optimize`], plus
    /// [`CompileError::InvalidOptions`] for malformed parameters.
    pub fn reoptimize(self, ga: GaParams) -> Result<Optimized, CompileError> {
        self.into_partitioned().with_ga(ga)?.optimize()
    }

    /// Stage 4 (§IV-D): dataflow scheduling + memory planning.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (scheduling total functions),
    /// kept fallible for forward compatibility.
    pub fn schedule(self) -> Result<Scheduled, CompileError> {
        let t0 = Instant::now();
        let (schedule, memory) = build_schedule_and_memory(
            &self.partitioned.session,
            &self.partitioned.partitioning,
            &self.partitioned.dep,
            &self.mapping,
        );
        Ok(Scheduled {
            optimized: self,
            schedule,
            memory,
            elapsed: t0.elapsed(),
        })
    }
}

fn build_schedule_and_memory(
    session: &CompileSession,
    partitioning: &Partitioning,
    dep: &DepInfo,
    mapping: &CoreMapping,
) -> (Schedule, MemoryPlan) {
    let hw = &session.hw;
    let schedule = match session.opts.mode {
        PipelineMode::HighThroughput => Schedule::HighThroughput(HtSchedule::build(
            &session.graph,
            partitioning,
            mapping,
            dep,
            hw,
            session.opts.batch,
        )),
        PipelineMode::LowLatency => Schedule::LowLatency(LlSchedule::build(
            &session.graph,
            partitioning,
            mapping,
            dep,
        )),
    };
    let memory = MemoryPlan::for_schedule(
        &session.graph,
        &schedule,
        partitioning,
        mapping,
        dep,
        hw,
        session.opts.memory_policy,
    );
    (schedule, memory)
}

/// Stage-4 artifact: per-core schedules + the local-memory plan
/// (§IV-D), one [`Scheduled::finish`] away from a [`CompiledModel`].
#[derive(Debug, Clone)]
pub struct Scheduled {
    optimized: Optimized,
    schedule: Schedule,
    memory: MemoryPlan,
    elapsed: Duration,
}

impl Scheduled {
    /// The per-core dataflow schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The local-memory plan under the session's policy.
    pub fn memory(&self) -> &MemoryPlan {
        &self.memory
    }

    /// Wall-clock time scheduling took.
    pub(crate) fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Discards the schedule and steps back to the mapping artifact.
    pub fn into_optimized(self) -> Optimized {
        self.optimized
    }

    /// Re-plans local memory under a different policy without touching
    /// the schedule (the Fig. 10 sweep).
    #[must_use]
    pub fn replan_memory(mut self, policy: ReusePolicy) -> Self {
        let t0 = Instant::now();
        self.optimized.partitioned.session.opts.memory_policy = policy;
        let partitioned = &self.optimized.partitioned;
        self.memory = MemoryPlan::for_schedule(
            &partitioned.session.graph,
            &self.schedule,
            &partitioned.partitioning,
            &self.optimized.mapping,
            &partitioned.dep,
            &partitioned.session.hw,
            policy,
        );
        self.elapsed += t0.elapsed();
        self
    }

    /// Rebuilds the schedule with a different HT transfer batch,
    /// keeping partitioning and mapping.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidOptions`] for a zero batch or when the
    /// session is in low-latency mode (batching is an HT concept).
    pub fn rebatch(mut self, batch: usize) -> Result<Self, CompileError> {
        // Set the batch directly: `with_batch` clamps zero to 1, which
        // would silently defeat the documented zero-batch rejection.
        let mut opts = self.optimized.partitioned.session.opts.clone();
        opts.batch = batch;
        opts.validate()?;
        let t0 = Instant::now();
        self.optimized.partitioned.session.opts = opts;
        let partitioned = &self.optimized.partitioned;
        let (schedule, memory) = build_schedule_and_memory(
            &partitioned.session,
            &partitioned.partitioning,
            &partitioned.dep,
            &self.optimized.mapping,
        );
        self.schedule = schedule;
        self.memory = memory;
        self.elapsed += t0.elapsed();
        Ok(self)
    }

    /// Assembles the final [`CompiledModel`] (with its
    /// [`CompileReport`]); consumes the session.
    #[must_use]
    pub fn finish(self) -> CompiledModel {
        let Scheduled {
            optimized,
            schedule,
            memory,
            elapsed: t_schedule,
        } = self;
        let Optimized {
            partitioned,
            mapping,
            compiler,
            ga_stats,
            reload,
            elapsed: t_mapping,
        } = optimized;
        let Partitioned {
            session,
            partitioning,
            dep,
            elapsed: t_partition,
        } = partitioned;

        // Multi-epoch reload plans execute serially, so their analytic
        // per-epoch compute sum replaces the mapping-based estimate
        // (which would treat all epochs as concurrently resident).
        let estimated = match reload.as_ref().filter(|p| !p.is_single_epoch()) {
            Some(plan) => plan.total_compute_cycles as f64,
            None => match session.opts.mode {
                PipelineMode::HighThroughput => {
                    fitness::ht_fitness_from_mapping(&session.hw, &partitioning, &mapping)
                }
                PipelineMode::LowLatency => fitness::ll_fitness(
                    &session.hw,
                    &session.graph,
                    &partitioning,
                    &dep,
                    &mapping.replication,
                ),
            },
        };
        let estimated = fitness::with_reload_stalls(estimated, reload.as_ref());

        let report = CompileReport {
            model: session.graph.name().to_string(),
            compiler: compiler.to_string(),
            mode: session.opts.mode,
            timings: StageTimings {
                node_partitioning: t_partition,
                replicating_mapping: t_mapping,
                dataflow_scheduling: t_schedule,
            },
            ga: ga_stats,
            replication: mapping.replication.counts().to_vec(),
            active_cores: mapping.active_cores(),
            crossbars_used: mapping.replication.total_crossbars(&partitioning),
            estimated_fitness: estimated,
        };

        CompiledModel {
            graph: session.graph,
            hw: session.hw,
            mode: session.opts.mode,
            partitioning,
            mapping,
            dep,
            schedule,
            memory,
            reload,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::models;

    fn session(mode: PipelineMode) -> CompileSession {
        CompileSession::new(
            HardwareConfig::small_test(),
            &models::tiny_cnn(),
            CompileOptions::new(mode).with_fast_ga(11),
        )
        .unwrap()
    }

    #[test]
    fn staged_pipeline_matches_legacy_compile() {
        let staged = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap()
            .finish();
        let legacy = crate::PimCompiler::new(HardwareConfig::small_test())
            .compile(
                &models::tiny_cnn(),
                &CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(11),
            )
            .unwrap();
        assert_eq!(staged.mapping, legacy.mapping);
        assert_eq!(staged.schedule, legacy.schedule);
        assert_eq!(staged.memory, legacy.memory);
        assert_eq!(staged.report.replication, legacy.report.replication);
        assert_eq!(
            staged.report.estimated_fitness,
            legacy.report.estimated_fitness
        );
    }

    #[test]
    fn stages_are_inspectable() {
        let p = session(PipelineMode::HighThroughput).partition().unwrap();
        assert!(!p.partitioning().is_empty());
        let o = p.optimize().unwrap();
        assert!(o.mapping().active_cores() > 0);
        assert!(o.ga_stats().unwrap().evaluations > 0);
        let s = o.schedule().unwrap();
        assert!(s.schedule().as_ht().is_some());
        assert!(s.memory().peak_bytes > 0);
    }

    #[test]
    fn observer_sees_stages_and_generations() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<CompileStage>,
            finished: Vec<CompileStage>,
            generations: usize,
        }
        impl CompileObserver for Recorder {
            fn on_stage_start(&mut self, stage: CompileStage) {
                self.started.push(stage);
            }
            fn on_stage_finish(&mut self, stage: CompileStage, _elapsed: Duration) {
                self.finished.push(stage);
            }
            fn on_ga_generation(&mut self, progress: GaGeneration) {
                assert!(progress.best_fitness > 0.0);
                self.generations += 1;
            }
        }
        let mut rec = Recorder::default();
        let _ = session(PipelineMode::HighThroughput)
            .run_observed(&mut rec)
            .unwrap();
        let all = [
            CompileStage::NodePartitioning,
            CompileStage::ReplicatingMapping,
            CompileStage::DataflowScheduling,
        ];
        assert_eq!(rec.started, all);
        assert_eq!(rec.finished, all);
        assert_eq!(rec.generations, GaParams::fast(11).iterations);
    }

    #[test]
    fn reoptimize_reuses_partitioning() {
        let o = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap();
        let first = o.mapping().clone();
        let o2 = o.reoptimize(GaParams::fast(99)).unwrap();
        // Different seed explores differently but stays feasible.
        o2.mapping()
            .validate(o2.partitioned().partitioning())
            .unwrap();
        let _ = first;
    }

    #[test]
    fn replan_memory_keeps_schedule() {
        let s = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap();
        let schedule_before = s.schedule().clone();
        let s = s.replan_memory(ReusePolicy::Naive);
        assert_eq!(s.schedule(), &schedule_before);
        assert_eq!(s.memory().policy, ReusePolicy::Naive);
        assert_eq!(s.finish().memory.policy, ReusePolicy::Naive);
    }

    #[test]
    fn ga_budget_runs_a_prefix_and_rejects_zero() {
        // GaParams::fast runs 24 generations; a 5-generation budget
        // (`CompileOptions::with_ga_budget`) must walk exactly the
        // first 5 generations of that trajectory.
        let budgeted = |iterations| {
            let partitioned = session(PipelineMode::HighThroughput).partition().unwrap();
            let opts = partitioned.session.opts.clone();
            partitioned
                .with_options(opts.with_ga_budget(iterations))
                .and_then(Partitioned::optimize)
        };
        let full = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap();
        let short = budgeted(5).unwrap();
        assert_eq!(short.ga_stats().unwrap().history.len(), 5);
        assert_eq!(
            short.ga_stats().unwrap().history[..],
            full.ga_stats().unwrap().history[..5]
        );
        assert!(matches!(
            budgeted(0),
            Err(CompileError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn adopted_mappings_run_the_same_pipeline() {
        let adopted = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .map_with("PUMA-like", crate::puma_mapping)
            .unwrap();
        assert!(adopted.ga_stats().is_none() && adopted.reload.is_none());
        let compiled = adopted.schedule().unwrap().finish();
        assert_eq!(compiled.report.compiler, "PUMA-like");
        assert!(compiled.report.estimated_fitness > 0.0);
        // A failing strategy fails the stage.
        let failed = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .map_with("none", |_, _| Err(CompileError::NoMvmNodes));
        assert!(matches!(failed, Err(CompileError::NoMvmNodes)));
    }

    #[test]
    fn rebatch_zero_is_rejected() {
        let s = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap();
        assert!(matches!(
            s.rebatch(0),
            Err(CompileError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn rebatch_rebuilds_the_ht_schedule() {
        let s = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap();
        let s = s.rebatch(4).unwrap();
        assert_eq!(s.schedule().as_ht().unwrap().batch, 4);
    }

    #[test]
    fn rebatch_rejected_in_ll_mode() {
        let s = session(PipelineMode::LowLatency)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap();
        assert!(matches!(
            s.rebatch(4),
            Err(CompileError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn invalid_options_rejected_at_creation() {
        let graph = models::tiny_mlp();
        let hw = HardwareConfig::small_test();
        let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        opts.batch = 0;
        assert!(matches!(
            CompileSession::new(hw.clone(), &graph, opts),
            Err(CompileError::InvalidOptions { .. })
        ));
        let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        opts.ga.population = 0;
        assert!(matches!(
            CompileSession::new(hw.clone(), &graph, opts),
            Err(CompileError::InvalidOptions { .. })
        ));
        let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        opts.ga.iterations = 0;
        assert!(matches!(
            CompileSession::new(hw, &graph, opts),
            Err(CompileError::InvalidOptions { .. })
        ));
    }
}
