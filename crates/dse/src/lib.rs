//! Deterministic design-space exploration (DSE) for the PIMCOMP
//! compiler — the evaluation harness the paper's comparison tables
//! imply: sweep models × pipeline modes × hardware configurations ×
//! memory policies × HT batches × GA seeds in one declarative run, and
//! reduce the results to a Pareto frontier over latency, throughput,
//! energy, and resource utilization.
//!
//! # Pipeline
//!
//! ```text
//! SweepSpec (JSON) ──► points (models × modes × hardware
//!        │                      × policies × batches × seeds)
//!        │                       │  fan-out over the deterministic
//!        │                       ▼  worker pool (pimcomp-core)
//!        │             CompileSession → Simulator  (per point,
//!        │                       │      artifact-cached on disk)
//!        ▼                       ▼
//!   validation          SweepReport: records + Pareto frontier,
//!                       versioned JSON / CSV, diffable
//! ```
//!
//! # Sweep axes
//!
//! * **models** — zoo names, synthetic test models, or paths to
//!   `.onnx` files (imported with [`pimcomp_onnx`], so any exporter's
//!   models sweep exactly like the built-ins);
//! * **modes** — high-throughput / low-latency;
//! * **hardware** — explicit grids over a named preset, crossed into
//!   labelled [`HardwareConfig`](pimcomp_arch::HardwareConfig)s, or
//!   `"auto"` per-model sizing via the shared
//!   headroom heuristic ([`pimcomp_core::sized_chips`]) with a
//!   sweepable parallelism list ([`AutoHardware`]);
//! * **memory_policies** — the paper's reuse-policy ablation
//!   (naive / ADD-reuse / AG-reuse) as a first-class axis;
//! * **ht_batches** — the HT transfer batch (Fig. 10's protocol
//!   value); low-latency points always run batch 1, so the axis
//!   collapses for LL modes instead of duplicating points;
//! * **seeds** — explicit GA seeds or `num_seeds` split from the
//!   master seed;
//! * **weight_reload**, **seq_lens**, **quantization** — crossbar
//!   budgets, sequence-length bindings, and functional verification,
//!   each off unless the spec names it.
//!
//! `docs/SWEEP_SPEC.md` in the repository documents every
//! spec field, default, and validation rule. The per-point knobs
//! (everything after hardware) are declared once, in the `axis` module's
//! table, which parsing, expansion, compile options, the CSV columns,
//! and the CLI banner all read; the hardware knobs are the rows of its
//! second table, which grid parsing, expansion and labels read.
//!
//! # Determinism contract
//!
//! A sweep's result is **bit-identical for any worker-thread count**:
//!
//! * each point's GA seed is either taken from the spec's explicit
//!   `seeds` axis or split from `master_seed` with the same
//!   SplitMix64 discipline the GA uses internally
//!   ([`pimcomp_core::split_stream_seed`]), so it depends only on the
//!   point's position in the sweep, never on scheduling;
//! * points are evaluated over [`pimcomp_core::run_indexed`], which
//!   reduces results in index order;
//! * reports carry no wall-clock quantities.
//!
//! Re-running a widened sweep with a cache directory recompiles only
//! the new points: finished points are persisted as versioned
//! [`CompiledArtifact`](pimcomp_core::CompiledArtifact)s keyed by
//! (graph fingerprint, hardware fingerprint, options fingerprint —
//! memory policy and HT batch included), and cache hits are
//! re-simulated from the artifact, which round-trips bit-for-bit. The
//! graph fingerprint means an `.onnx` sweep model edited in place can
//! never replay a stale artifact.
//!
//! # Guided search
//!
//! A spec may opt into **successive halving** with a `search` section
//! ([`SearchStrategy`] / [`HalvingSpec`]): every point is first
//! evaluated at a cheap GA generation budget, then each (model, mode)
//! group is filtered — points Pareto-dominated by a configurable margin
//! are pruned, and only the best `keep_fraction` (by Pareto rank, then
//! crowding distance) re-runs at the next, larger budget — until the
//! final rung runs at the spec's full `ga.iterations`. Because the GA's
//! RNG streams are keyed by `(seed, generation, slot)`, a cheap-budget
//! run is a strict prefix of the full-budget run on the same point
//! ([`pimcomp_core::CompileOptions::with_ga_budget`]), so the rungs
//! triage the *same* trajectory they later finish. Only final-rung
//! survivors compete for the Pareto frontier; every dropped point keeps
//! its cheap-rung record in the report with provenance
//! ([`PointRecord::rung`], [`PointRecord::budget`],
//! [`PointRecord::pruned_at`]). The determinism contract is unchanged:
//! guided reports are byte-identical for any thread count and cache
//! state, and [`ExploreOutcome::budget`] accounts for the evaluations
//! saved versus the exhaustive sweep.
//!
//! # Example
//!
//! ```
//! use pimcomp_dse::{ExploreEngine, SweepSpec};
//!
//! # fn main() -> Result<(), pimcomp_dse::ExploreError> {
//! let spec = SweepSpec::from_json(
//!     r#"{
//!         "models": ["tiny_mlp"],
//!         "modes": ["ht"],
//!         "hardware": { "base": "small_test", "parallelism": [4, 8] },
//!         "seeds": [1, 2],
//!         "ga": { "population": 4, "iterations": 2 }
//!     }"#,
//! )?;
//! // 1 model x 1 mode x 2 hardware x 2 seeds, every other knob at its
//! // default (AG-reuse, HT batch 2).
//! let outcome = ExploreEngine::new().with_threads(2).run(&spec)?;
//! assert_eq!(outcome.report.points.len(), 4);
//! assert!(!outcome.report.frontier.is_empty());
//! // Every record carries its compiler knobs and a stable key.
//! let p = &outcome.report.points[0];
//! assert_eq!(p.key(), "tiny_mlp/HT/small_test+par4/ag/b2/seed1");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axis;
mod cache;
mod engine;
mod report;
mod spec;

pub use axis::{policy_names, policy_spec_name, Knobs, ReloadSetting};
pub use cache::EvictionStats;
pub use engine::{
    BudgetSummary, ExploreEngine, ExploreOutcome, PointEvent, PointOutcome, ProgressSink,
    RungSummary, SweepPlan,
};
pub use report::{PointMetrics, PointRecord, SweepDiff, SweepReport, SWEEP_FORMAT_VERSION};
pub use spec::{AutoHardware, HalvingSpec, HardwareAxis, SearchStrategy, SweepPoint, SweepSpec};

use std::fmt;

/// Errors raised by the exploration engine.
///
/// Per-point compilation or simulation failures are **not** errors:
/// a batch sweep must survive one bad point, so those are recorded in
/// the report ([`PointRecord::error`]) and the sweep continues.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExploreError {
    /// The sweep spec is malformed (unknown field, bad type, empty
    /// axis, invalid hardware value, too many points, …).
    InvalidSpec {
        /// What is wrong with the spec.
        detail: String,
    },
    /// A spec references a model name the zoo does not know (and that
    /// is not an `.onnx` path).
    UnknownModel {
        /// The unresolvable name.
        name: String,
        /// Every name that would have resolved.
        available: Vec<String>,
    },
    /// An `.onnx` sweep model failed to import.
    Onnx {
        /// The model path from the spec.
        path: String,
        /// The underlying [`pimcomp_onnx::OnnxError`].
        detail: String,
    },
    /// Filesystem I/O failed (spec file, cache directory, report).
    Io {
        /// Underlying description.
        detail: String,
    },
    /// A report could not be (de)serialized.
    Serialization {
        /// Underlying description.
        detail: String,
    },
    /// A report was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the report.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::InvalidSpec { detail } => write!(f, "invalid sweep spec: {detail}"),
            ExploreError::UnknownModel { name, available } => write!(
                f,
                "unknown model `{name}`; available models: {} \
                 (or a path ending in .onnx)",
                available.join(", ")
            ),
            ExploreError::Onnx { path, detail } => {
                write!(f, "ONNX model `{path}` failed to import: {detail}")
            }
            ExploreError::Io { detail } => write!(f, "sweep I/O failed: {detail}"),
            ExploreError::Serialization { detail } => {
                write!(f, "sweep report serialization failed: {detail}")
            }
            ExploreError::UnsupportedVersion { found, supported } => write!(
                f,
                "sweep report format version {found} is not supported \
                 (this build reads v{supported})"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Every model name a sweep spec may reference by name: the zoo
/// networks plus the small synthetic test models. Paths ending in
/// `.onnx` are additionally accepted and resolved through the ONNX
/// importer.
pub(crate) fn available_models() -> Vec<String> {
    pimcomp_ir::models::ZOO
        .iter()
        .chain(pimcomp_ir::models::TEST_MODELS.iter())
        .map(|s| s.to_string())
        .collect()
}

/// Resolves a sweep model: names ending in `.onnx` are read from disk
/// and imported ([`pimcomp_onnx::import_bytes`]); anything else is
/// looked up in the zoo and the test models.
///
/// # Errors
///
/// * [`ExploreError::UnknownModel`] listing every zoo and test model
///   for an unresolvable name,
/// * [`ExploreError::Io`] when an `.onnx` path cannot be read,
/// * [`ExploreError::Onnx`] when the file is not a loadable ONNX model.
pub fn resolve_model(name: &str) -> Result<pimcomp_ir::Graph, ExploreError> {
    if name.ends_with(".onnx") {
        let bytes = std::fs::read(name).map_err(|e| ExploreError::Io {
            detail: format!("reading ONNX model `{name}`: {e}"),
        })?;
        return pimcomp_onnx::import_bytes(&bytes).map_err(|e| ExploreError::Onnx {
            path: name.to_string(),
            detail: e.to_string(),
        });
    }
    pimcomp_ir::models::test_model(name)
        .or_else(|| pimcomp_ir::models::by_name(name))
        .ok_or_else(|| ExploreError::UnknownModel {
            name: name.to_string(),
            available: available_models(),
        })
}
