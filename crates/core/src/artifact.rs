//! Versioned, serializable compiled models — the compile-once /
//! serve-many deployment artifact.
//!
//! A [`CompiledArtifact`] stores what a compilation *decided* and
//! nothing derivable from it: the compiled (normalized, sequence-bound)
//! graph, the hardware, the pipeline mode, HT batch and memory policy,
//! the `weight_reload` budget, the AG placement (one core per AG), and
//! what the mapping strategy reported (compiler name, GA trace). Loading
//! checks those facts and re-runs partitioning, dependency analysis,
//! scheduling and memory planning on them — the code compilation runs —
//! so a loaded model is one a compile could have produced, and the
//! simulator and executor need not re-validate it. Artifacts serialize
//! to JSON, survive a round trip bit-for-bit (every float of the rebuilt
//! model included), and refuse to load from another format version or
//! to execute against mismatched hardware.
//!
//! # Example
//!
//! ```
//! use pimcomp_arch::{HardwareConfig, PipelineMode};
//! use pimcomp_core::{CompileOptions, CompileSession, CompiledArtifact};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let hw = HardwareConfig::small_test();
//! let model = CompileSession::new(
//!     hw.clone(),
//!     &pimcomp_ir::models::tiny_mlp(),
//!     CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(1),
//! )?
//! .run()?;
//!
//! let json = CompiledArtifact::new(model).to_json()?;
//! let artifact = CompiledArtifact::from_json(&json)?;
//! let model = artifact.into_model(&hw)?; // fingerprint-checked
//! assert_eq!(model.hw, hw);
//! # Ok(())
//! # }
//! ```

use crate::compiler::{CompileOptions, CompiledModel};
use crate::ga::GaStats;
use crate::mapping::AgInstance;
use crate::memory::ReusePolicy;
use crate::partition::Partitioning;
use crate::session::CompileSession;
use crate::CompileError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Errors raised while persisting or loading a [`CompiledArtifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the artifact.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The artifact was compiled for different hardware than the one it
    /// is being loaded against.
    HardwareMismatch {
        /// Fingerprint of the hardware the caller provided.
        expected: u64,
        /// Fingerprint of the hardware in the artifact.
        found: u64,
    },
    /// JSON (de)serialization failed.
    Serialization(String),
    /// The artifact parsed, but its facts are not a compilation: invalid
    /// hardware, graph or options, or an AG placement that is not a
    /// mapping of the graph's partitioning (or, over a `weight_reload`
    /// budget, not the epoch packer's).
    Invalid(String),
    /// Filesystem I/O failed.
    Io(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads v{supported})"
            ),
            ArtifactError::HardwareMismatch { expected, found } => write!(
                f,
                "artifact was compiled for different hardware \
                 (fingerprint {found:#018x}, target is {expected:#018x})"
            ),
            ArtifactError::Serialization(detail) => {
                write!(f, "artifact serialization failed: {detail}")
            }
            ArtifactError::Invalid(detail) => write!(f, "invalid artifact: {detail}"),
            ArtifactError::Io(detail) => write!(f, "artifact I/O failed: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// A compiled model packaged for persistence. Only its decisions are
/// written ([`CompiledArtifact::to_json`]); everything else is derived
/// again on load ([`CompiledArtifact::from_json`]).
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    model: CompiledModel,
}

/// The serialized shape of an artifact: the facts no other field can
/// recompute. Written with the graph (`G` is `&Graph`), read with `G`
/// `()`, which only requires the field: `rebuild` decodes the graph, so
/// that one [`Graph::validate`] refuses makes the artifact invalid, not
/// unparseable.
#[derive(Serialize, Deserialize)]
struct Facts<G> {
    format_version: u32,
    graph: G,
    hw: HardwareConfig,
    mode: PipelineMode,
    batch: usize,
    memory_policy: ReusePolicy,
    /// The `weight_reload` crossbar budget, if the compile had one.
    reload_budget: Option<usize>,
    /// The core of every AG instance: one list per MVM node in
    /// partitioning order, the node's instances in (replica, slice)
    /// order, so a list holds a whole number of replicas.
    placement: Vec<Vec<usize>>,
    compiler: String,
    ga: Option<GaStats>,
}

impl Facts<()> {
    /// Decodes the artifact's `graph` and runs the compile pipeline's
    /// own stages on the stored decisions: partitioning, dependency
    /// analysis, the reload rule, scheduling, memory planning and the
    /// report — not normalization, which the stored graph has been
    /// through.
    fn rebuild(self, graph: &serde::Value) -> Result<CompiledModel, CompileError> {
        let opts = CompileOptions {
            batch: self.batch,
            memory_policy: self.memory_policy,
            weight_reload: self.reload_budget.is_some(),
            reload_budget: self.reload_budget,
            ..CompileOptions::new(self.mode)
        };
        let graph = Graph::from_value(graph).map_err(|e| CompileError::InvalidGraph {
            detail: e.to_string(),
        })?;
        let partitioned = CompileSession::reopen(self.hw, graph, opts)?.partition()?;
        let instances = expand(&self.placement, partitioned.partitioning())?;
        Ok(partitioned
            .adopt(instances, self.compiler, self.ga)?
            .schedule()?
            .finish())
    }
}

/// The AG instances a placement names, by position: core `i` of node
/// `mvm`'s list is replica `i / a`, slice `i % a` for the node's `a` AGs
/// per replica. Only the list shape is checked here; the cores are
/// checked where every mapping is, by `CoreMapping::from_instances`.
fn expand(
    placement: &[Vec<usize>],
    partitioning: &Partitioning,
) -> Result<Vec<AgInstance>, CompileError> {
    let fail = |detail: String| Err(CompileError::MappingInvariant { detail });
    let entries = partitioning.entries();
    if placement.len() != entries.len() {
        return fail(format!(
            "the placement lists {} nodes; the partitioning has {}",
            placement.len(),
            entries.len()
        ));
    }
    let mut instances = Vec::with_capacity(placement.iter().map(Vec::len).sum());
    for (mvm, (cores, entry)) in placement.iter().zip(entries).enumerate() {
        let per_replica = entry.ags_per_replica;
        if cores.is_empty() || cores.len().checked_rem(per_replica) != Some(0) {
            return fail(format!(
                "node {mvm} places {} AGs, not one or more whole replicas of {per_replica}",
                cores.len()
            ));
        }
        instances.extend(cores.iter().enumerate().map(|(i, &core)| AgInstance {
            mvm,
            replica: i / per_replica,
            slice: i % per_replica,
            core,
        }));
    }
    Ok(instances)
}

impl CompiledArtifact {
    /// The artifact format this build writes (and the only one it
    /// reads). Bump on any breaking change to the serialized shape.
    ///
    /// v2: [`GaStats`] gained the evaluation-engine counters
    /// (`full_evals`, `incremental_evals`, `cache_hits`,
    /// `evals_per_generation`).
    ///
    /// v3: [`GaStats`] gained the mutation-operator tallies
    /// (`grow_successes`, `grow_failures`), replacing the old
    /// `GA_DEBUG` stderr diagnostics.
    ///
    /// v4: `weight_reload` support — [`CompiledModel`] gained the
    /// `reload` field (the epoch/reload schedule,
    /// [`ReloadPlan`](crate::ReloadPlan)), `report.ga` became truly
    /// optional (epoch-packed compilations skip the GA), and
    /// [`HardwareConfig`] gained the crossbar write cost model
    /// (`xbar_write_row_cycles`, `xbar_write_pj_per_cell`).
    ///
    /// v5: [`CompileReport`](crate::CompileReport) keeps only `compiler`,
    /// `ga` and `estimated_fitness` — no wall-clock `timings`, so two
    /// compiles of one input serialize to the same bytes.
    ///
    /// v6: decisions only — graph, hardware, mode, batch, memory policy,
    /// reload budget, AG instances, compiler name and GA trace. The
    /// partitioning, dependency analysis, schedule, memory and reload
    /// plans, the mapping's derived tables, the estimated fitness and
    /// the hardware fingerprint are rebuilt on load.
    ///
    /// v7: the AG instances became `placement`, one core per AG: a list
    /// per MVM node in partitioning order, its cores in (replica, slice)
    /// order. The node, replica and slice of each instance follow from
    /// its position, so they are no longer written.
    pub const FORMAT_VERSION: u32 = 7;

    /// Packages a compiled model.
    #[must_use]
    pub fn new(model: CompiledModel) -> Self {
        CompiledArtifact { model }
    }

    /// The fingerprint of the hardware the model was compiled for.
    pub fn hw_fingerprint(&self) -> u64 {
        hardware_fingerprint(&self.model.hw)
    }

    /// Read-only view of the packaged model.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Checks that `hw` matches the hardware this artifact was compiled
    /// for.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::HardwareMismatch`] when the fingerprints differ.
    pub fn verify_hardware(&self, hw: &HardwareConfig) -> Result<(), ArtifactError> {
        let (expected, found) = (hardware_fingerprint(hw), self.hw_fingerprint());
        if expected != found {
            return Err(ArtifactError::HardwareMismatch { expected, found });
        }
        Ok(())
    }

    /// Unpacks the model after verifying it was compiled for `hw`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::HardwareMismatch`] when the fingerprints differ.
    pub fn into_model(self, hw: &HardwareConfig) -> Result<CompiledModel, ArtifactError> {
        self.verify_hardware(hw)?;
        Ok(self.model)
    }

    /// Unpacks the model without a hardware check (the model still
    /// carries its own `hw`; use when the artifact's target is the
    /// source of truth).
    #[must_use]
    pub fn into_model_unchecked(self) -> CompiledModel {
        self.model
    }

    /// Serializes the artifact's decisions as JSON.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Serialization`] when encoding fails.
    pub fn to_json(&self) -> Result<String, ArtifactError> {
        let m = &self.model;
        let facts = Facts {
            format_version: Self::FORMAT_VERSION,
            graph: &m.graph,
            hw: m.hw.clone(),
            mode: m.mode,
            batch: m.schedule.as_ht().map_or(1, |s| s.batch),
            memory_policy: m.memory.policy,
            reload_budget: m.reload.as_ref().map(|plan| plan.budget),
            // The instances are grouped node → replica → slice, and
            // every node has at least one.
            placement: m
                .mapping
                .instances
                .chunk_by(|a, b| a.mvm == b.mvm)
                .map(|node| node.iter().map(|inst| inst.core).collect())
                .collect(),
            compiler: m.report.compiler.clone(),
            ga: m.report.ga.clone(),
        };
        serde_json::to_string(&facts).map_err(|e| ArtifactError::Serialization(e.to_string()))
    }

    /// Deserializes an artifact from JSON and rebuilds its model. The
    /// format version is checked *before* anything else is decoded, so
    /// a version mismatch is a clean error instead of a shape mismatch.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::UnsupportedVersion`] /
    /// [`ArtifactError::Serialization`] / [`ArtifactError::Invalid`].
    pub fn from_json(json: &str) -> Result<Self, ArtifactError> {
        let value = serde_json::parse_value(json)
            .map_err(|e| ArtifactError::Serialization(e.to_string()))?;
        let found = value
            .get("format_version")
            .and_then(|v| match v {
                serde::Value::Int(i) => u32::try_from(*i).ok(),
                _ => None,
            })
            .ok_or_else(|| {
                ArtifactError::Serialization("artifact is missing `format_version`".to_string())
            })?;
        if found != Self::FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found,
                supported: Self::FORMAT_VERSION,
            });
        }
        let facts = Facts::<()>::from_value(&value)
            .map_err(|e| ArtifactError::Serialization(e.to_string()))?;
        // Present: `Facts` requires the field.
        let graph = value.get("graph").unwrap_or(&serde::Value::Null);
        let model = facts
            .rebuild(graph)
            .map_err(|e| ArtifactError::Invalid(e.to_string()))?;
        Ok(CompiledArtifact { model })
    }

    /// Writes the artifact as JSON to `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Serialization`] / [`ArtifactError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let json = self.to_json()?;
        std::fs::write(path.as_ref(), json)
            .map_err(|e| ArtifactError::Io(format!("writing {}: {e}", path.as_ref().display())))
    }

    /// Reads an artifact from a JSON file at `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] / [`ArtifactError::UnsupportedVersion`] /
    /// [`ArtifactError::Serialization`] / [`ArtifactError::Invalid`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let json = std::fs::read_to_string(path.as_ref())
            .map_err(|e| ArtifactError::Io(format!("reading {}: {e}", path.as_ref().display())))?;
        Self::from_json(&json)
    }
}

/// Stable 64-bit fingerprint of a hardware configuration: FNV-1a over
/// its canonical JSON serialization. Independent of process, platform,
/// and `HashMap` seeds (the config contains none).
#[must_use]
pub fn hardware_fingerprint(hw: &HardwareConfig) -> u64 {
    fnv1a(serde_json::to_string(hw).unwrap_or_default().as_bytes())
}

/// Stable 64-bit fingerprint of a model graph: FNV-1a over its
/// canonical JSON serialization, like [`hardware_fingerprint`].
/// Combined with the hardware and options fingerprints this keys
/// compiled-point caches — an input graph that changed (e.g. an
/// `.onnx` file edited in place) can then never replay a stale
/// artifact.
#[must_use]
pub fn graph_fingerprint(graph: &pimcomp_ir::Graph) -> u64 {
    fnv1a(serde_json::to_string(graph).unwrap_or_default().as_bytes())
}

/// Stable 64-bit fingerprint of a full set of compile options (GA
/// parameters included, worker-thread count excluded — parallelism
/// never changes the compiled result). Combined with
/// [`hardware_fingerprint`], [`graph_fingerprint`], and a model name
/// this keys compiled-point caches, e.g. the design-space exploration
/// engine's per-point artifact cache.
#[must_use]
pub fn options_fingerprint(opts: &crate::CompileOptions) -> u64 {
    let mut canonical = opts.clone();
    // Thread count is a wall-clock knob, not a result knob; two runs
    // differing only in parallelism must share cache entries.
    canonical.ga.parallelism = None;
    fnv1a(
        serde_json::to_string(&canonical)
            .unwrap_or_default()
            .as_bytes(),
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, CompileSession};
    use pimcomp_arch::PipelineMode;
    use pimcomp_ir::models;

    fn model() -> CompiledModel {
        CompileSession::new(
            HardwareConfig::small_test(),
            &models::tiny_cnn(),
            CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(5),
        )
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn json_round_trip_rebuilds_the_model() {
        let m = model();
        let json = CompiledArtifact::new(m.clone()).to_json().unwrap();
        let back = CompiledArtifact::from_json(&json).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
        let restored = back.into_model(&m.hw).unwrap();
        assert_eq!(restored.graph, m.graph);
        assert_eq!(restored.partitioning, m.partitioning);
        assert_eq!(restored.mapping, m.mapping);
        assert_eq!(restored.dep, m.dep);
        assert_eq!(restored.schedule, m.schedule);
        assert_eq!(restored.memory, m.memory);
        assert_eq!(restored.report, m.report);
    }

    #[test]
    fn the_wire_holds_decisions_only() {
        let json = CompiledArtifact::new(model()).to_json().unwrap();
        let serde::Value::Map(fields) = serde_json::parse_value(&json).unwrap() else {
            panic!("an artifact is a JSON object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "format_version",
                "graph",
                "hw",
                "mode",
                "batch",
                "memory_policy",
                "reload_budget",
                "placement",
                "compiler",
                "ga"
            ]
        );
    }

    /// HT, LL and multi-epoch reload artifacts reload to the same bytes,
    /// and their placement holds one core per AG instance.
    #[test]
    fn placements_round_trip_one_core_per_instance() {
        let options = [
            CompileOptions::new(PipelineMode::HighThroughput),
            CompileOptions::new(PipelineMode::LowLatency),
            CompileOptions::new(PipelineMode::HighThroughput).with_weight_reload(Some(32)),
        ];
        for opts in options {
            let m = CompileSession::new(
                HardwareConfig::small_test(),
                &models::tiny_cnn(),
                opts.with_fast_ga(5),
            )
            .unwrap()
            .run()
            .unwrap();
            if let Some(plan) = &m.reload {
                assert!(!plan.is_single_epoch(), "budget 32 splits tiny_cnn");
            }
            let json = CompiledArtifact::new(m.clone()).to_json().unwrap();
            let back = CompiledArtifact::from_json(&json).unwrap();
            assert_eq!(back.to_json().unwrap(), json);
            let value = serde_json::parse_value(&json).unwrap();
            let Some(serde::Value::Seq(lists)) = value.get("placement") else {
                panic!("the placement is a JSON array");
            };
            let cores: usize = lists
                .iter()
                .map(|list| match list {
                    serde::Value::Seq(cores) => {
                        assert!(cores.iter().all(|c| matches!(c, serde::Value::Int(_))));
                        cores.len()
                    }
                    other => panic!("a node's placement is a JSON array, not {other:?}"),
                })
                .sum();
            assert_eq!(cores, m.mapping.instances.len());
            assert_eq!(lists.len(), m.partitioning.entries().len());
        }
    }

    #[test]
    fn fingerprint_mismatch_fails_cleanly() {
        let artifact = CompiledArtifact::new(model());
        let other = HardwareConfig::small_test().with_parallelism(999);
        assert!(matches!(
            artifact.verify_hardware(&other),
            Err(ArtifactError::HardwareMismatch { .. })
        ));
        assert!(matches!(
            artifact.into_model(&other),
            Err(ArtifactError::HardwareMismatch { .. })
        ));
    }

    #[test]
    fn version_mismatch_fails_before_decoding() {
        let artifact = CompiledArtifact::new(model());
        let json = artifact.to_json().unwrap().replacen(
            &format!("\"format_version\":{}", CompiledArtifact::FORMAT_VERSION),
            "\"format_version\":999",
            1,
        );
        assert!(matches!(
            CompiledArtifact::from_json(&json),
            Err(ArtifactError::UnsupportedVersion {
                found: 999,
                supported: CompiledArtifact::FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn save_and_load_round_trip() {
        let artifact = CompiledArtifact::new(model());
        let dir = std::env::temp_dir().join("pimcomp-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.pimc.json");
        artifact.save(&path).unwrap();
        let back = CompiledArtifact::load(&path).unwrap();
        assert_eq!(back.to_json(), artifact.to_json());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = hardware_fingerprint(&HardwareConfig::small_test());
        let b = hardware_fingerprint(&HardwareConfig::small_test());
        assert_eq!(a, b);
        let c = hardware_fingerprint(&HardwareConfig::small_test().with_parallelism(2));
        assert_ne!(a, c);
    }
}
