//! Staged compilation sessions: the paper's four-stage pipeline
//! (Fig. 3) exposed as typestate artifacts.
//!
//! [`CompileSession::run`] runs the whole pipeline in one call; the
//! stage methods walk it one typed artifact at a time,
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
//! so that every intermediate result is inspectable and the last stage
//! is *re-enterable*: replan memory or rebatch a [`Scheduled`] without
//! re-running the GA.
//! [`CompileSession::run_observed`] streams stage and GA progress
//! through a [`CompileObserver`]; a mapping built by something other
//! than the GA (the PUMA-like baseline) enters the same pipeline through
//! [`Partitioned::map_with`], and a loaded
//! [`CompiledArtifact`](crate::CompiledArtifact)'s stored placement
//! through `Partitioned::adopt`, so partitioning, scheduling and memory
//! planning are the same code whichever way a model was made.
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

use crate::compiler::{CompileOptions, CompileReport, CompiledModel};
use crate::ga::{self, GaContext, GaGeneration, GaStats};
use crate::mapping::{AgInstance, CoreMapping};
use crate::memory::{MemoryPlan, ReusePolicy};
use crate::partition::Partitioning;
use crate::reload::{Reload, ReloadPlan};
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

/// Wall-clock time of each compilation stage (Table II rows): an
/// observer that records what [`CompileSession::run_observed`] timed.
/// Timings describe a run, not its result, so they are never part of a
/// [`CompiledModel`] or its artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Node partitioning.
    pub node_partitioning: Duration,
    /// Weight replicating + core mapping (the GA, the epoch packer, or
    /// the baseline heuristic).
    pub replicating_mapping: Duration,
    /// Dataflow scheduling (including memory planning).
    pub dataflow_scheduling: Duration,
}

impl StageTimings {
    /// Total compile time.
    pub fn total(&self) -> Duration {
        self.node_partitioning + self.replicating_mapping + self.dataflow_scheduling
    }
}

impl CompileObserver for StageTimings {
    fn on_stage_finish(&mut self, stage: CompileStage, elapsed: Duration) {
        let slot = match stage {
            CompileStage::NodePartitioning => &mut self.node_partitioning,
            CompileStage::ReplicatingMapping => &mut self.replicating_mapping,
            CompileStage::DataflowScheduling => &mut self.dataflow_scheduling,
        };
        *slot = elapsed;
    }
}

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
    /// The graph is bound to `opts.seq_len` and then normalized here
    /// (`pimcomp_ir::transform::normalize`: dropout elimination,
    /// batch-norm folding, attention fusion, dead-node pruning).
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
        let invalid = |e: pimcomp_ir::IrError| CompileError::InvalidGraph {
            detail: e.to_string(),
        };
        Self::open(hw, opts, |opts| {
            // Bind the symbolic sequence length before anything computes
            // shapes; fully fixed graphs pass through untouched.
            let graph = match opts.seq_len {
                Some(len) => pimcomp_ir::transform::bind_seq_len(graph, len).map_err(invalid)?,
                None if graph.has_symbolic_dims() => {
                    return Err(CompileError::UnboundSeqLen {
                        model: graph.name().to_string(),
                    })
                }
                None => graph.clone(),
            };
            pimcomp_ir::transform::normalize(&graph).map_err(invalid)
        })
    }

    /// Reopens a session on the graph of a compiled model, which is
    /// already bound and normalized, so neither step runs again.
    ///
    /// # Errors
    ///
    /// As [`CompileSession::new`].
    pub(crate) fn reopen(
        hw: HardwareConfig,
        graph: Graph,
        opts: CompileOptions,
    ) -> Result<Self, CompileError> {
        Self::open(hw, opts, |_| Ok(graph))
    }

    /// Validates `hw` and `opts`, then builds the graph (which every
    /// `Graph` constructor has validated).
    fn open(
        hw: HardwareConfig,
        opts: CompileOptions,
        graph: impl FnOnce(&CompileOptions) -> Result<Graph, CompileError>,
    ) -> Result<Self, CompileError> {
        hw.validate().map_err(|e| CompileError::InvalidHardware {
            detail: e.to_string(),
        })?;
        opts.validate()?;
        let graph = graph(&opts)?;
        Ok(CompileSession { hw, graph, opts })
    }

    /// Stage 1 (§IV-B): node partitioning + dependency analysis.
    ///
    /// # Errors
    ///
    /// [`CompileError::NoMvmNodes`] when nothing maps to crossbars.
    pub fn partition(self) -> Result<Partitioned, CompileError> {
        let partitioning = Partitioning::new(&self.graph, &self.hw)?;
        let dep = DepInfo::analyze(&self.graph);
        Ok(Partitioned {
            session: self,
            partitioning,
            dep,
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

    /// [`CompileSession::run`] with progress callbacks: each stage is
    /// bracketed by a start and a finish event, and the finish carries
    /// the wall-clock time of the stage call. This is the one place the
    /// pipeline is timed; a stage that fails gets no finish event.
    ///
    /// # Errors
    ///
    /// Any stage error; see the stage methods.
    pub fn run_observed(
        self,
        observer: &mut dyn CompileObserver,
    ) -> Result<CompiledModel, CompileError> {
        observer.on_stage_start(CompileStage::NodePartitioning);
        let t0 = Instant::now();
        let partitioned = self.partition()?;
        observer.on_stage_finish(CompileStage::NodePartitioning, t0.elapsed());
        observer.on_stage_start(CompileStage::ReplicatingMapping);
        let t0 = Instant::now();
        let optimized = partitioned.optimize_observed(observer)?;
        observer.on_stage_finish(CompileStage::ReplicatingMapping, t0.elapsed());
        observer.on_stage_start(CompileStage::DataflowScheduling);
        let t0 = Instant::now();
        let scheduled = optimized.schedule()?;
        observer.on_stage_finish(CompileStage::DataflowScheduling, t0.elapsed());
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
}

impl Partitioned {
    /// The node partitioning (one entry per MVM node).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Stages 2+3 (§IV-C): joint weight replication + core mapping via
    /// the genetic algorithm — or, in `weight_reload` mode when the
    /// model does not fit its crossbar budget's whole cores, the
    /// deterministic epoch packer (COMPASS-style time multiplexing, no
    /// GA).
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
        let mapping = strategy(&self.partitioning, &self.session.hw)?;
        Ok(Optimized {
            partitioned: self,
            mapping,
            compiler: compiler.to_string(),
            ga_stats: None,
            reload: None,
        })
    }

    /// Stages 2+3 replayed from a stored placement (artifact loading):
    /// the instances enter through [`CoreMapping::from_instances`], and
    /// the `weight_reload` rule decides, as it did at compile time,
    /// whether they are time-multiplexed — in which case they must be
    /// exactly the epoch packer's — or resident, in which case every
    /// core holds at most its capacity and, under a budget, the
    /// instances stay on the budget's core prefix.
    ///
    /// # Errors
    ///
    /// [`CompileError::MappingInvariant`] for a placement no compile of
    /// these options could have made; the reload rule's own errors.
    pub(crate) fn adopt(
        self,
        instances: Vec<AgInstance>,
        compiler: String,
        ga_stats: Option<GaStats>,
    ) -> Result<Optimized, CompileError> {
        let hw = &self.session.hw;
        let reload = Reload::new(&self.partitioning, hw, &self.session.opts)?;
        let cores = reload.core_limit().unwrap_or(hw.total_cores());
        let mapping = CoreMapping::from_instances(instances, &self.partitioning, cores)?;
        let fail = |detail: String| Err(CompileError::MappingInvariant { detail });
        if let (Some(packed), Some(plan)) = (&reload.packed, &reload.plan) {
            if mapping.instances != *packed {
                return fail(format!(
                    "the AG instances of a {}-epoch reload compile are not the epoch packer's",
                    plan.epoch_count()
                ));
            }
        } else {
            let capacity = hw.crossbar_capacity_per_core();
            for (core, ids) in mapping.per_core.iter().enumerate() {
                let ags = ids.iter().map(|&id| mapping.instances[id].mvm);
                let used: usize = ags
                    .map(|mvm| self.partitioning.entry(mvm).crossbars_per_ag)
                    .sum();
                if used > capacity {
                    return fail(format!(
                        "core {core} holds {used} crossbars of weights; it has {capacity}"
                    ));
                }
            }
        }
        Ok(Optimized {
            partitioned: self,
            mapping,
            compiler,
            ga_stats,
            reload: reload.plan,
        })
    }

    /// [`Partitioned::optimize`] reporting one [`GaGeneration`] per GA
    /// generation to `observer` (stage events are
    /// [`CompileSession::run_observed`]'s).
    ///
    /// # Errors
    ///
    /// Same as [`Partitioned::optimize`].
    pub(crate) fn optimize_observed(
        self,
        observer: &mut dyn CompileObserver,
    ) -> Result<Optimized, CompileError> {
        let hw = &self.session.hw;
        // The reload rule may have packed the model already; otherwise
        // the GA places it, on the budget's core prefix if it has one.
        let reload = Reload::new(&self.partitioning, hw, &self.session.opts)?;
        let core_limit = reload.core_limit();
        let (mapping, ga_stats) = match reload.packed {
            Some(instances) => (
                CoreMapping::from_instances(instances, &self.partitioning, hw.total_cores())?,
                None,
            ),
            None => {
                let ctx = GaContext {
                    hw,
                    graph: &self.session.graph,
                    partitioning: &self.partitioning,
                    dep: &self.dep,
                    mode: self.session.opts.mode,
                    core_limit,
                };
                let (chromosome, stats) = ga::optimize(&ctx, &self.session.opts.ga, &mut |p| {
                    observer.on_ga_generation(p);
                })?;
                let mapping = CoreMapping::from_chromosome(&chromosome, &self.partitioning)?;
                (mapping, Some(stats))
            }
        };
        Ok(Optimized {
            partitioned: self,
            mapping,
            compiler: PIMCOMP.to_string(),
            ga_stats,
            reload: reload.plan,
        })
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
    compiler: String,
    ga_stats: Option<GaStats>,
    reload: Option<ReloadPlan>,
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

    /// Stage 4 (§IV-D): dataflow scheduling + memory planning.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (scheduling total functions),
    /// kept fallible for forward compatibility.
    pub fn schedule(self) -> Result<Scheduled, CompileError> {
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

    /// Re-plans local memory under a different policy without touching
    /// the schedule (the Fig. 10 sweep).
    #[must_use]
    pub fn replan_memory(mut self, policy: ReusePolicy) -> Self {
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
        let opts = self
            .optimized
            .partitioned
            .session
            .opts
            .clone()
            .with_batch(batch);
        opts.validate()?;
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
        } = self;
        let Optimized {
            partitioned,
            mapping,
            compiler,
            ga_stats,
            reload,
        } = optimized;
        let Partitioned {
            session,
            partitioning,
            dep,
        } = partitioned;

        let estimated = reload.as_ref().and_then(ReloadPlan::serial_estimate);
        let estimated = estimated.unwrap_or_else(|| match session.opts.mode {
            PipelineMode::HighThroughput => {
                fitness::ht_fitness_from_mapping(&session.hw, &partitioning, &mapping)
            }
            PipelineMode::LowLatency => fitness::ll_fitness_from_mapping(
                &session.hw,
                &session.graph,
                &partitioning,
                &dep,
                &mapping,
            ),
        });

        let report = CompileReport {
            compiler,
            ga: ga_stats,
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
    use crate::GaParams;
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
    fn staged_pipeline_matches_run() {
        let staged = session(PipelineMode::HighThroughput)
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap()
            .finish();
        let legacy = session(PipelineMode::HighThroughput).run().unwrap();
        assert_eq!(staged.mapping, legacy.mapping);
        assert_eq!(staged.schedule, legacy.schedule);
        assert_eq!(staged.memory, legacy.memory);
        assert_eq!(
            staged.report.estimated_fitness,
            legacy.report.estimated_fitness
        );
    }

    #[test]
    fn ll_estimate_is_the_value_the_ga_minimised() {
        for parallelism in [1, 20] {
            let compiled = CompileSession::new(
                HardwareConfig::small_test().with_parallelism(parallelism),
                &models::tiny_cnn(),
                CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(11),
            )
            .and_then(CompileSession::run)
            .unwrap();
            let ga = compiled.report.ga.as_ref().unwrap();
            assert_eq!(
                compiled.report.estimated_fitness.to_bits(),
                ga.final_fitness.to_bits(),
                "parallelism {parallelism}"
            );
        }
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

        // `StageTimings` records one duration per stage.
        let mut timings = StageTimings::default();
        let _ = session(PipelineMode::HighThroughput)
            .run_observed(&mut timings)
            .unwrap();
        assert!(timings.node_partitioning > Duration::ZERO);
        assert!(timings.replicating_mapping > Duration::ZERO);
        assert!(timings.dataflow_scheduling > Duration::ZERO);
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
            let opts = CompileOptions::new(PipelineMode::HighThroughput)
                .with_fast_ga(11)
                .with_ga_budget(iterations);
            CompileSession::new(HardwareConfig::small_test(), &models::tiny_cnn(), opts)
                .and_then(CompileSession::partition)
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
        let opts = CompileOptions::new(PipelineMode::HighThroughput)
            .with_fast_ga(1)
            .with_batch(0);
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
            CompileSession::new(hw.clone(), &graph, opts),
            Err(CompileError::InvalidOptions { .. })
        ));
        // The largest batch is accepted, one more is not.
        for (batch, accepted) in [(1 << 16, true), ((1 << 16) + 1, false)] {
            let opts = CompileOptions::new(PipelineMode::HighThroughput)
                .with_fast_ga(1)
                .with_batch(batch);
            let session = CompileSession::new(hw.clone(), &graph, opts);
            assert_eq!(session.is_ok(), accepted, "batch {batch}");
            if !accepted {
                assert!(matches!(session, Err(CompileError::InvalidOptions { .. })));
            }
        }
        let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
        let hostile = HardwareConfig {
            chips: 10_000_000,
            ..hw
        };
        assert!(matches!(
            CompileSession::new(hostile, &graph, opts),
            Err(CompileError::InvalidHardware { .. })
        ));
    }
}
