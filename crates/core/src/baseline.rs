//! The PUMA-like baseline compiler (paper Section V-A.2).
//!
//! The paper compares against a faithful re-implementation of the PUMA
//! dataflow under the same framework: node replication chosen
//! *heuristically to balance the inter-layer pipeline* (replicas
//! proportional to each layer's sliding-window count, the PUMA/ISAAC
//! recipe) and a *greedy sequential* core mapping that fills cores one
//! after another. The baseline is a *mapping strategy* of the one
//! [`CompileSession`] pipeline ([`Partitioned::map_with`]): validation,
//! partitioning, scheduling, memory planning, and simulation are
//! exactly PIMCOMP's, so measured differences come from the
//! replication/mapping decisions alone.
//!
//! [`Partitioned::map_with`]: crate::Partitioned::map_with

use crate::compiler::{CompileOptions, CompiledModel};
use crate::mapping::{check_gene_limits, Chromosome, CoreMapping, Gene};
use crate::partition::Partitioning;
use crate::session::CompileSession;
use crate::CompileError;
use pimcomp_arch::HardwareConfig;
use pimcomp_ir::Graph;

/// Pipeline-balancing replication + greedy sequential mapping.
///
/// Replication: the largest per-replica window target `t` is found (by
/// binary search) such that `R_n = ceil(windows_n / t)` fits the
/// crossbar budget; early layers with many windows receive more
/// replicas, balancing stage times — the PUMA heuristic.
///
/// Mapping: AG instances are placed node by node into consecutive
/// cores, moving on only when a core fills up.
///
/// # Errors
///
/// [`CompileError::InsufficientCapacity`] when one replica of every
/// node does not fit; [`CompileError::InvalidGraph`] /
/// [`CompileError::InvalidHardware`] when a gene of the mapping could
/// not fit a [`Chromosome`] slot (see [`Chromosome::set_gene`]).
pub fn puma_mapping(
    partitioning: &Partitioning,
    hw: &HardwareConfig,
) -> Result<CoreMapping, CompileError> {
    let cores = hw.total_cores();
    let capacity = hw.crossbar_capacity_per_core();
    check_gene_limits(partitioning, capacity)?;
    let budget = cores * capacity;
    if partitioning.min_crossbars() > budget {
        return Err(CompileError::InsufficientCapacity {
            required: partitioning.min_crossbars(),
            available: budget,
        });
    }

    // Greedy sequential placement from the tightest window target
    // (smaller = more replication); if per-core fragmentation strands a
    // tail AG, back off replication (increase the target) and retry.
    let max_windows = partitioning.max_windows();
    let mut target = partitioning.fit_window_target(budget);
    loop {
        match try_greedy_placement(partitioning, cores, capacity, target) {
            Some(chrom) => return CoreMapping::from_chromosome(&chrom, partitioning),
            None if target < max_windows => {
                target = (target + target.div_ceil(8)).min(max_windows);
            }
            None => {
                return Err(CompileError::InsufficientCapacity {
                    required: partitioning.min_crossbars(),
                    available: budget,
                })
            }
        }
    }
}

/// One attempt at greedy sequential first-fit placement for window
/// target `t`; `None` when fragmentation strands an AG.
fn try_greedy_placement(
    partitioning: &Partitioning,
    cores: usize,
    capacity: usize,
    target: usize,
) -> Option<Chromosome> {
    let mut chrom = Chromosome::empty(cores, partitioning.len().max(1));
    let mut used = vec![0usize; cores];
    let mut core = 0usize;
    for mvm in 0..partitioning.len() {
        let e = partitioning.entry(mvm);
        let replicas = e.windows.div_ceil(target).max(1);
        let total_ags = replicas * e.ags_per_replica;
        let xb = e.crossbars_per_ag;
        for _ in 0..total_ags {
            // Advance to the next core with room for one AG, wrapping
            // once (first-fit) before giving up.
            if used[core] + xb > capacity {
                match (0..cores).find(|&c| used[c] + xb <= capacity) {
                    Some(c) => core = c,
                    None => return None,
                }
            }
            let slot = chrom
                .slot_of_node_on_core(core, mvm)
                .or_else(|| chrom.free_slot_of_core(core))
                .expect("slot grid sized to node count");
            let cur = chrom.gene(slot).map_or(0, |g| g.ag_count);
            chrom.set_gene(
                slot,
                Some(Gene {
                    mvm,
                    ag_count: cur + 1,
                }),
            );
            used[core] += xb;
        }
    }
    Some(chrom)
}

/// The baseline compiler: PUMA-like replication and mapping, PIMCOMP
/// scheduling/simulation machinery.
#[derive(Debug, Clone)]
pub struct PumaCompiler {
    hw: HardwareConfig,
}

impl PumaCompiler {
    /// Creates a baseline compiler for the target.
    pub fn new(hw: HardwareConfig) -> Self {
        PumaCompiler { hw }
    }

    /// Compiles `graph` with the PUMA-like mapping in place of the GA.
    /// The GA parameters inside `opts` are validated but unused, and
    /// `weight_reload` does not apply (the baseline never splits a
    /// model into epochs); every other option — pipeline mode, batch,
    /// memory policy, `seq_len` — acts as in [`PimCompiler::compile`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PimCompiler::compile`]
    /// (invalid inputs, insufficient capacity).
    ///
    /// [`PimCompiler::compile`]: crate::PimCompiler::compile
    pub fn compile(
        &self,
        graph: &Graph,
        opts: &CompileOptions,
    ) -> Result<CompiledModel, CompileError> {
        Ok(CompileSession::new(self.hw.clone(), graph, opts.clone())?
            .partition()?
            .map_with("PUMA-like", puma_mapping)?
            .schedule()?
            .finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_arch::PipelineMode;
    use pimcomp_ir::models;
    use pimcomp_ir::transform::normalize;

    #[test]
    fn puma_replicates_early_layers_more() {
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&g, &hw).unwrap();
        let m = puma_mapping(&p, &hw).unwrap();
        let counts = m.replication.counts();
        // conv1 has 32x32=1024 windows; fc2 has 1 window.
        let first = counts[0];
        let last = counts[counts.len() - 1];
        assert!(
            first >= last,
            "early layer should replicate at least as much: {counts:?}"
        );
        assert!(first > 1, "capacity allows replication: {counts:?}");
    }

    #[test]
    fn puma_mapping_is_feasible_and_valid() {
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&g, &hw).unwrap();
        let m = puma_mapping(&p, &hw).unwrap();
        m.validate(&p).unwrap();
        // Per-core capacity respected.
        let mut used = vec![0usize; hw.total_cores()];
        for inst in &m.instances {
            used[inst.core] += p.entry(inst.mvm).crossbars_per_ag;
        }
        assert!(used.iter().all(|&u| u <= hw.crossbar_capacity_per_core()));
    }

    #[test]
    fn puma_mapping_concentrates_on_few_cores() {
        // Greedy fill packs sequentially: active cores should be close
        // to the theoretical minimum.
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&g, &hw).unwrap();
        let m = puma_mapping(&p, &hw).unwrap();
        let min_cores = m
            .replication
            .total_crossbars(&p)
            .div_ceil(hw.crossbar_capacity_per_core());
        assert!(m.active_cores() <= min_cores + 2);
    }

    #[test]
    fn baseline_binds_sequence_lengths_and_validates_options() {
        // Both were drift in the baseline's old private pipeline.
        let hw = HardwareConfig::puma_with_chips(2);
        let opts = CompileOptions::new(PipelineMode::HighThroughput);
        let unbound = PumaCompiler::new(hw.clone()).compile(&models::tiny_bert(), &opts);
        assert!(matches!(unbound, Err(CompileError::UnboundSeqLen { .. })));
        let bound = PumaCompiler::new(hw.clone())
            .compile(&models::tiny_bert(), &opts.clone().with_seq_len(16))
            .unwrap();
        assert_eq!(bound.report.compiler, "PUMA-like");
        let mut zero_batch = opts;
        zero_batch.batch = 0;
        let rejected = PumaCompiler::new(hw).compile(&models::tiny_cnn(), &zero_batch);
        assert!(matches!(rejected, Err(CompileError::InvalidOptions { .. })));
    }

    #[test]
    fn baseline_compiles_both_modes() {
        let g = models::tiny_cnn();
        let hw = HardwareConfig::small_test();
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let opts = CompileOptions::new(mode);
            let out = PumaCompiler::new(hw.clone()).compile(&g, &opts).unwrap();
            assert_eq!(out.report.compiler, "PUMA-like");
            assert!(out.report.estimated_fitness > 0.0);
        }
    }
}
