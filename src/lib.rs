//! PIMCOMP — a universal compilation framework for crossbar-based PIM
//! DNN accelerators, reproduced from Sun et al., DAC 2023.
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single name:
//!
//! * [`ir`] — DNN graph IR, shape inference, model zoo ([`pimcomp_ir`]).
//! * [`onnx`] — minimal ONNX interchange ([`pimcomp_onnx`]).
//! * [`arch`] — abstract accelerator architecture ([`pimcomp_arch`]).
//! * [`compiler`] — the staged compilation pipeline ([`pimcomp_core`]).
//! * [`exec`] — the functional executor: reference interpretation and
//!   mapped per-crossbar execution with quantization modeling
//!   ([`pimcomp_exec`]).
//! * [`sim`] — the cycle-accurate simulator ([`pimcomp_sim`]).
//! * [`dse`] — deterministic design-space exploration over compiler +
//!   simulator ([`pimcomp_dse`]).
//!
//! # Quickstart: staged compilation sessions
//!
//! The compiler is a four-stage pipeline (paper Fig. 3). A
//! [`CompileSession`](prelude::CompileSession) walks it one typed,
//! inspectable artifact at a time:
//!
//! ```
//! use pimcomp::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A model (tiny CNN from the zoo; real flows load ONNX).
//! let graph = pimcomp::ir::models::tiny_cnn();
//!
//! // 2. A hardware target (scaled-down PUMA-like preset).
//! let hw = HardwareConfig::small_test();
//!
//! // 3. Compile stage by stage in high-throughput mode.
//! let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(7);
//! let scheduled = CompileSession::new(hw.clone(), &graph, opts)?
//!     .partition()? // §IV-B: node partitioning
//!     .optimize()?  // §IV-C: GA replication + mapping
//!     .schedule()?; // §IV-D: dataflow schedule + memory plan
//! let compiled = scheduled.finish();
//!
//! // 4. Persist as a versioned artifact, reload, and simulate — the
//! //    compile-once/serve-many flow.
//! let artifact = CompiledArtifact::new(compiled);
//! let artifact = CompiledArtifact::from_json(&artifact.to_json()?)?;
//! let report = Simulator::new(hw).run_artifact(&artifact)?;
//! assert!(report.total_cycles > 0);
//! # Ok(())
//! # }
//! ```
//!
//! [`CompileSession::run`](prelude::CompileSession::run) walks every
//! stage in one call. Live progress (stage boundaries, per-generation GA fitness) streams
//! through a [`CompileObserver`](prelude::CompileObserver) passed to
//! [`CompileSession::run_observed`](prelude::CompileSession::run_observed).

pub use pimcomp_arch as arch;
pub use pimcomp_core as compiler;
pub use pimcomp_dse as dse;
pub use pimcomp_exec as exec;
pub use pimcomp_ir as ir;
pub use pimcomp_onnx as onnx;
pub use pimcomp_sim as sim;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use pimcomp_arch::{HardwareConfig, PipelineMode};
    pub use pimcomp_core::{
        ArtifactError, CompileError, CompileObserver, CompileOptions, CompileSession, CompileStage,
        CompiledArtifact, CompiledModel, GaGeneration, GaParams, Optimized, Partitioned,
        ReusePolicy, Scheduled,
    };
    pub use pimcomp_dse::{ExploreEngine, ExploreError, SweepReport, SweepSpec};
    pub use pimcomp_ir::{Graph, GraphBuilder};
    pub use pimcomp_sim::{SimReport, Simulator};
}
