//! On-chip memory reuse planning (paper Section IV-D.3, Fig. 7).
//!
//! Three allocation policies:
//!
//! * **Naive** — a fresh block per operation result; most blocks are
//!   written once, read once, never reclaimed until the node finishes.
//! * **ADD-reuse** — accumulation chains reuse a single accumulator
//!   block instead of allocating one block per partial-sum addition.
//! * **AG-reuse** — additionally, AG output buffers are recycled: MVM
//!   partials accumulate directly into the replica's accumulator, and
//!   (in LL mode) consumers retain only the live receptive-window rows
//!   of their providers instead of whole feature maps.
//!
//! The planner computes per-core working sets under each policy. In HT
//! mode, working sets beyond the local-memory capacity spill to global
//! memory (write + read back), which is how AG-reuse translates into the
//! global-access reduction of Fig. 10 (§V-B.3).

use crate::mapping::CoreMapping;
use crate::partition::Partitioning;
use crate::schedule::{HtSchedule, LlSchedule, LlUnitKind, Schedule};
use crate::waiting::{DepInfo, DepRule};
use pimcomp_arch::HardwareConfig;
use pimcomp_ir::Graph;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Local-memory allocation policy (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReusePolicy {
    /// Fresh block per operation result.
    Naive,
    /// Accumulations reuse one accumulator block.
    AddReuse,
    /// ADD-reuse plus AG output-buffer recycling.
    AgReuse,
}

impl ReusePolicy {
    /// All policies in the paper's Fig. 10 order.
    pub const ALL: [ReusePolicy; 3] = [
        ReusePolicy::Naive,
        ReusePolicy::AddReuse,
        ReusePolicy::AgReuse,
    ];

    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            ReusePolicy::Naive => "naive",
            ReusePolicy::AddReuse => "ADD-reuse",
            ReusePolicy::AgReuse => "AG-reuse",
        }
    }
}

/// The memory planner's result for one compiled model and policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// Policy this plan was computed for.
    pub policy: ReusePolicy,
    /// Working-set bytes per core.
    pub per_core_bytes: Vec<usize>,
    /// Mean working set across active cores.
    pub avg_bytes: f64,
    /// Largest per-core working set.
    pub peak_bytes: usize,
    /// HT only: spill bytes per round per core (working set beyond
    /// local capacity, written out and read back).
    pub spill_bytes_per_round: Vec<usize>,
    /// Total global-memory traffic per inference including spills
    /// (HT; LL uses global memory only at network boundaries).
    pub global_traffic: usize,
    /// Global-memory *transactions* per inference. The buffer space
    /// left after the policy's working set bounds how much each
    /// transfer can move, so wasteful policies need more, smaller
    /// transactions — the access count the paper's Fig. 10 reduction
    /// (§V-B.3) is about.
    pub global_accesses: usize,
}

impl MemoryPlan {
    /// Plans local memory for either schedule kind — the single
    /// dispatch point used by the session, the legacy driver and
    /// [`CompiledModel::replan_memory`](crate::CompiledModel::replan_memory).
    pub(crate) fn for_schedule(
        graph: &Graph,
        schedule: &Schedule,
        partitioning: &Partitioning,
        mapping: &CoreMapping,
        dep: &DepInfo,
        hw: &HardwareConfig,
        policy: ReusePolicy,
    ) -> Self {
        match schedule {
            Schedule::HighThroughput(s) => Self::for_ht(s, partitioning, mapping, hw, policy),
            Schedule::LowLatency(s) => Self::for_ll(graph, s, partitioning, dep, hw, policy),
        }
    }

    /// Plans local memory for an HT schedule.
    pub(crate) fn for_ht(
        schedule: &HtSchedule,
        partitioning: &Partitioning,
        mapping: &CoreMapping,
        hw: &HardwareConfig,
        policy: ReusePolicy,
    ) -> Self {
        let cores = hw.total_cores();
        let eb = hw.input_bytes_per_element();
        let mut per_core = vec![0usize; cores];

        for p in &schedule.programs {
            let entry = partitioning.entry(p.mvm);
            let block = entry.weight_width * schedule.batch * eb;
            // Replica composition on this core.
            let mut local: BTreeMap<usize, usize> = BTreeMap::new();
            for &id in &p.ag_instances {
                *local.entry(mapping.instances[id].replica).or_default() += 1;
            }
            let mut bytes = p.load_bytes_per_round; // input buffer
            for (&replica, &n_local) in &local {
                let owner = mapping.owners[p.mvm][replica] == p.core;
                let remote = if owner { p.recvs_per_round } else { 0 };
                bytes += match policy {
                    ReusePolicy::Naive => {
                        // AG outputs + add-chain results + recv blocks
                        // + their adds + activation result.
                        let ag_out = n_local * block;
                        let add_chain = n_local.saturating_sub(1) * block;
                        let recv = 2 * remote * block;
                        let act = if owner { block } else { 0 };
                        ag_out + add_chain + recv + act
                    }
                    ReusePolicy::AddReuse => {
                        // AG outputs + one accumulator; one recv scratch.
                        let ag_out = n_local * block;
                        let acc = block;
                        let recv = usize::from(remote > 0) * block;
                        ag_out + acc + recv
                    }
                    ReusePolicy::AgReuse => {
                        // Partials land straight in the accumulator.
                        let acc = block;
                        let recv = usize::from(remote > 0) * block;
                        acc + recv
                    }
                };
            }
            per_core[p.core] += bytes;
        }
        // Vector tasks stream through a fixed double buffer, identical
        // across policies.
        for t in &schedule.vec_tasks {
            per_core[t.core] += (2 * 1024).min(t.load_bytes + t.store_bytes + 1);
        }

        let mut spill = vec![0usize; cores];
        let mut spill_traffic = 0usize;
        let mut accesses = 0usize;
        // Transfers move at most the free buffer space per transaction;
        // a floor models the DMA granularity that always exists.
        const MIN_CHUNK: usize = 512;
        for (core, &ws) in per_core.iter().enumerate() {
            if ws > hw.local_memory_bytes {
                spill[core] = ws - hw.local_memory_bytes;
                // Each spilled byte is written out and read back each
                // round; use the core's max round count.
                let rounds = schedule.per_core[core]
                    .iter()
                    .map(|&i| schedule.programs[i].rounds)
                    .max()
                    .unwrap_or(0);
                spill_traffic += 2 * spill[core] * rounds;
            }
            // Headroom left by the policy's working set lets transfer
            // rounds batch more sliding windows (every per-round buffer
            // scales linearly with the batch), cutting the transaction
            // count; a policy that fills local memory is stuck at the
            // baseline batch. Clamped growth models DMA descriptor
            // limits.
            let avail = hw.local_memory_bytes.saturating_sub(ws).max(MIN_CHUNK);
            let batch_growth = if ws > 0 {
                (hw.local_memory_bytes as f64 / ws as f64).clamp(1.0, 32.0)
            } else {
                32.0
            };
            for &i in &schedule.per_core[core] {
                let p = &schedule.programs[i];
                let eff_rounds = ((p.rounds as f64 / batch_growth).ceil() as usize).max(1);
                let per_round = p.load_bytes_per_round.div_ceil(avail)
                    + usize::from(p.store_bytes_per_round > 0)
                        * p.store_bytes_per_round.div_ceil(avail);
                accesses += per_round * eff_rounds;
            }
            for &i in &schedule.vec_per_core[core] {
                let t = &schedule.vec_tasks[i];
                accesses += t.load_bytes.div_ceil(avail) + t.store_bytes.div_ceil(avail);
            }
        }

        let (avg, peak) = summarize(&per_core);
        MemoryPlan {
            policy,
            avg_bytes: avg,
            peak_bytes: peak,
            global_traffic: schedule.base_global_traffic() + spill_traffic,
            global_accesses: accesses,
            spill_bytes_per_round: spill,
            per_core_bytes: per_core,
        }
    }

    /// Plans local memory for an LL schedule.
    ///
    /// In LL mode inter-node data stays on chip; consumers buffer
    /// provider outputs locally. Naive/ADD-reuse retain whole provider
    /// features; AG-reuse retains only the live receptive-window rows.
    pub(crate) fn for_ll(
        graph: &Graph,
        schedule: &LlSchedule,
        partitioning: &Partitioning,
        dep: &DepInfo,
        hw: &HardwareConfig,
        policy: ReusePolicy,
    ) -> Self {
        let cores = hw.total_cores();
        let eb = hw.input_bytes_per_element();
        let mut per_core = vec![0usize; cores];

        for unit in &schedule.units {
            // Producer-side temporaries at the unit's cores.
            if let LlUnitKind::Mvm { mvm } = unit.kind {
                let entry = partitioning.entry(mvm);
                let w = entry.weight_width * eb; // one window's output
                let a = entry.ags_per_replica;
                for rep in &unit.replicas {
                    let producer_bytes = match policy {
                        // Per in-flight window: A partials + A-1 adds +
                        // activation result.
                        ReusePolicy::Naive => (2 * a) * w,
                        // Partials + single accumulator.
                        ReusePolicy::AddReuse => (a + 1) * w,
                        // Direct accumulation.
                        ReusePolicy::AgReuse => w,
                    };
                    // Spread across the replica's cores.
                    let ncores = rep.ags_per_core.len().max(1);
                    for &(core, _) in &rep.ags_per_core {
                        per_core[core] += producer_bytes / ncores;
                    }
                }
            }

            // Consumer-side provider buffers at the unit's owner cores.
            for pr in &unit.providers {
                let pnode = graph.node(pr.node);
                let p_elems = dep.elems_of(pr.node);
                let p_windows = dep.windows_of(pr.node);
                let (ph, pw) = (pnode.output_shape.height(), pnode.output_shape.width());
                let full = p_windows * p_elems * eb;
                let live = match (policy, pr.rule) {
                    (ReusePolicy::AgReuse, DepRule::SlidingWindow { kernel, stride, .. }) => {
                        // Live rows: the kernel's rows plus one stride of
                        // look-ahead.
                        let rows = (kernel.0 + stride.0).min(ph.max(1));
                        rows * pw * p_elems * eb
                    }
                    (ReusePolicy::AgReuse, DepRule::PassThrough) => 2 * p_elems * eb,
                    // Full-feature dependencies keep everything under
                    // every policy; naive/ADD keep everything always.
                    _ => full,
                };
                let owners: Vec<usize> = unit.replicas.iter().map(|r| r.owner).collect();
                let n = owners.len().max(1);
                for &core in &owners {
                    per_core[core] += live / n;
                }
            }

            // Own output staging: one window per replica owner.
            let out_w = unit.elems_per_window * eb;
            for rep in &unit.replicas {
                per_core[rep.owner] += out_w;
            }
        }

        let (avg, peak) = summarize(&per_core);
        // LL global traffic: network input loaded once, final output
        // stored once.
        let input_bytes: usize = graph
            .inputs()
            .map(|id| graph.node(id).output_shape.numel() * eb)
            .sum();
        let output_bytes: usize = graph
            .outputs()
            .map(|id| graph.node(id).output_shape.numel() * eb)
            .sum();
        MemoryPlan {
            policy,
            avg_bytes: avg,
            peak_bytes: peak,
            global_traffic: input_bytes + output_bytes,
            global_accesses: 2,
            spill_bytes_per_round: vec![0; cores],
            per_core_bytes: per_core,
        }
    }
}

fn summarize(per_core: &[usize]) -> (f64, usize) {
    let active: Vec<usize> = per_core.iter().copied().filter(|&b| b > 0).collect();
    if active.is_empty() {
        return (0.0, 0);
    }
    let sum: usize = active.iter().sum();
    (
        sum as f64 / active.len() as f64,
        active.into_iter().max().unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Chromosome, Gene};
    use pimcomp_ir::GraphBuilder;

    fn setup() -> (Graph, Partitioning, CoreMapping, DepInfo, HardwareConfig) {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 16, 16]);
        let c1 = b.conv2d("c1", x, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.relu("r", c1).unwrap();
        let _c2 = b.conv2d("c2", r, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let hw = HardwareConfig::puma();
        let part = Partitioning::new(&g, &hw).unwrap();
        let mut c = Chromosome::empty(hw.total_cores(), 4);
        c.set_gene(
            0,
            Some(Gene {
                mvm: 0,
                ag_count: 5,
            }),
        );
        c.set_gene(
            4,
            Some(Gene {
                mvm: 1,
                ag_count: 5,
            }),
        );
        let mapping = CoreMapping::from_chromosome(&c, &part).unwrap();
        let dep = DepInfo::analyze(&g);
        (g, part, mapping, dep, hw)
    }

    #[test]
    fn ht_policies_are_ordered() {
        let (g, part, mapping, dep, hw) = setup();
        let s = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        let naive = MemoryPlan::for_ht(&s, &part, &mapping, &hw, ReusePolicy::Naive);
        let add = MemoryPlan::for_ht(&s, &part, &mapping, &hw, ReusePolicy::AddReuse);
        let ag = MemoryPlan::for_ht(&s, &part, &mapping, &hw, ReusePolicy::AgReuse);
        assert!(naive.avg_bytes >= add.avg_bytes);
        assert!(add.avg_bytes >= ag.avg_bytes);
        assert!(naive.global_traffic >= ag.global_traffic);
    }

    #[test]
    fn ll_policies_are_ordered() {
        let (g, part, mapping, dep, hw) = setup();
        let s = LlSchedule::build(&g, &part, &mapping, &dep);
        let naive = MemoryPlan::for_ll(&g, &s, &part, &dep, &hw, ReusePolicy::Naive);
        let add = MemoryPlan::for_ll(&g, &s, &part, &dep, &hw, ReusePolicy::AddReuse);
        let ag = MemoryPlan::for_ll(&g, &s, &part, &dep, &hw, ReusePolicy::AgReuse);
        assert!(naive.avg_bytes >= add.avg_bytes);
        assert!(add.avg_bytes >= ag.avg_bytes);
        // AG-reuse should cut the sliding-window consumers sharply.
        assert!(ag.avg_bytes < 0.9 * naive.avg_bytes);
    }

    #[test]
    fn spill_appears_only_beyond_capacity() {
        let (g, part, mapping, dep, mut hw) = setup();
        let s = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        let no_spill = MemoryPlan::for_ht(&s, &part, &mapping, &hw, ReusePolicy::Naive);
        assert!(no_spill.spill_bytes_per_round.iter().all(|&b| b == 0));
        // Shrink local memory to force spills.
        hw.local_memory_bytes = 256;
        let spilled = MemoryPlan::for_ht(&s, &part, &mapping, &hw, ReusePolicy::Naive);
        assert!(spilled.spill_bytes_per_round.iter().any(|&b| b > 0));
        assert!(spilled.global_traffic > no_spill.global_traffic);
    }

    #[test]
    fn ll_traffic_is_boundary_only() {
        let (g, part, mapping, dep, hw) = setup();
        let s = LlSchedule::build(&g, &part, &mapping, &dep);
        let plan = MemoryPlan::for_ll(&g, &s, &part, &dep, &hw, ReusePolicy::AgReuse);
        let eb = hw.input_bytes_per_element();
        let expected = (64 * 16 * 16) * eb + (64 * 16 * 16) * eb;
        assert_eq!(plan.global_traffic, expected);
    }

    #[test]
    fn policy_labels_match_the_paper() {
        assert_eq!(ReusePolicy::Naive.label(), "naive");
        assert_eq!(ReusePolicy::AddReuse.label(), "ADD-reuse");
        assert_eq!(ReusePolicy::AgReuse.label(), "AG-reuse");
    }
}
