//! The PIMCOMP compiler (paper Section IV): node partitioning, weight
//! replicating, core mapping and dataflow scheduling for crossbar-based
//! PIM DNN accelerators.
//!
//! # Pipeline
//!
//! ```text
//! Graph (pimcomp-ir) ──► Partitioning ──► GA (replication + mapping) ──► Schedule
//!                          §IV-B             §IV-C                        §IV-D
//! ```
//!
//! The primary entry point is the staged [`CompileSession`], whose
//! typed artifacts ([`Partitioned`] → [`Optimized`] → [`Scheduled`] →
//! [`CompiledModel`]) make every stage inspectable and re-enterable;
//! [`CompileSession::run`] walks them all in one call. A finished model
//! wraps into a versioned, serializable [`CompiledArtifact`] for the
//! compile-once/serve-many flow.
//!
//! # Example: staged compilation
//!
//! ```
//! use pimcomp_core::{CompileOptions, CompileSession, CompiledArtifact};
//! use pimcomp_arch::{HardwareConfig, PipelineMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = pimcomp_ir::models::tiny_cnn();
//! let hw = HardwareConfig::small_test();
//! let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1);
//!
//! // Walk the stages; inspect any intermediate artifact.
//! let session = CompileSession::new(hw, &graph, opts)?;
//! let partitioned = session.partition()?;
//! assert!(partitioned.partitioning().len() > 0);
//! let optimized = partitioned.optimize()?;
//! assert!(optimized.mapping().active_cores() > 0);
//! let compiled = optimized.schedule()?.finish();
//!
//! // Persist for later simulation without recompiling.
//! let json = CompiledArtifact::new(compiled).to_json()?;
//! assert!(CompiledArtifact::from_json(&json).is_ok());
//! # Ok(())
//! # }
//! ```
//!
//! Progress can be observed live — stage boundaries and per-generation
//! GA fitness — by passing a [`CompileObserver`] to
//! [`CompileSession::run_observed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod baseline;
mod compiler;
mod cost;
mod error;
mod fitness;
mod ga;
mod mapping;
mod memory;
mod parallel;
mod partition;
mod reload;
mod replication;
mod schedule;
mod session;
mod waiting;

pub use artifact::{
    graph_fingerprint, hardware_fingerprint, options_fingerprint, ArtifactError, CompiledArtifact,
};
pub use baseline::{puma_mapping, PumaCompiler};
pub use compiler::{CompileOptions, CompileReport, CompiledModel, MAX_BATCH};
pub use cost::{
    ht_core_time, HtCosts, HtRoundCost, HtSendCost, HtVecCost, LlCosts, LlEdge, LlRemote,
    LlUnitCost, Transfer,
};
pub use error::CompileError;
pub use fitness::{ht_fitness_from_mapping, FitnessMemo};
pub use ga::{optimize, split_stream_seed, GaContext, GaGeneration, GaParams, GaStats};
pub use mapping::{AgInstance, Chromosome, CoreMapping, Gene, GENE_RADIX};
pub use memory::{MemoryPlan, ReusePolicy};
pub use parallel::run_indexed;
pub use partition::{sized_chips, MvmIdx, NodePartition, Partitioning, DEFAULT_HEADROOM};
pub use reload::ReloadPlan;
pub use replication::ReplicationPlan;
pub use schedule::{
    slice_rows, HtNodeProgram, HtSchedule, HtSend, HtVecTask, LlProviderRef, LlReplica, LlSchedule,
    LlUnit, LlUnitKind, Schedule,
};
pub use session::{
    CompileObserver, CompileSession, CompileStage, NullObserver, Optimized, Partitioned, Scheduled,
    StageTimings,
};
pub use waiting::{required_windows, DepInfo, DepRule, EdgeDep};
