//! High-throughput dataflow scheduling (paper Algorithm 1).
//!
//! Every core repeatedly: loads a batch of inputs from global memory,
//! performs one MVM per unfinished AG, accumulates partial sums within
//! the core, pushes cross-core partials to the replica's owner core,
//! applies the activation and stores results back to global memory.
//! Non-MVM operations (POOL/CONCAT/ELTWISE/…) are distributed among
//! cores as independent load→VFU→store tasks (Algorithm 1, line 10).
//! An activation that is its MVM node's only reader
//! ([`folded_activations`]) is the one the owner applies: it runs inside
//! that node's programs and gets no task of its own.

use super::{folded_activations, is_costed_vec, spread_cores};
use crate::mapping::CoreMapping;
use crate::partition::Partitioning;
use crate::waiting::{vfu_window_work, DepInfo};
use pimcomp_arch::HardwareConfig;
use pimcomp_ir::{Graph, NodeId};
use std::collections::BTreeMap;

/// A per-round partial-sum message to a replica's owner core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtSend {
    /// Destination core (the replica's accumulation owner).
    pub to_core: usize,
    /// Payload bytes per round.
    pub bytes: usize,
}

/// The per-(core, node) program: all AG instances of one node living on
/// one core, executed in rounds of `batch` sliding windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtNodeProgram {
    /// The partitioned node.
    pub mvm: crate::MvmIdx,
    /// The core running this program.
    pub core: usize,
    /// AG instance ids (into `CoreMapping::instances`) on this core.
    pub ag_instances: Vec<usize>,
    /// Sliding windows each AG must process (windows per replica).
    pub windows: usize,
    /// Transfer rounds: `ceil(windows / batch)`.
    pub rounds: usize,
    /// Input bytes loaded from global memory per round.
    pub load_bytes_per_round: usize,
    /// Output bytes stored to global memory per round (owner only).
    pub store_bytes_per_round: usize,
    /// Partial-sum messages pushed per round.
    pub sends_per_round: Vec<HtSend>,
    /// Partial-sum messages expected per round (this core owns
    /// replicas with remote slices).
    pub recvs_per_round: usize,
    /// VFU element-operations per round (intra-core adds, remote-partial
    /// adds, activation).
    pub vec_elems_per_round: usize,
}

/// A distributed non-MVM task (pool/concat/eltwise/…): one core's share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtVecTask {
    /// The graph node.
    pub node: NodeId,
    /// Core executing this share.
    pub core: usize,
    /// VFU element-operations in this share.
    pub elems: usize,
    /// Bytes loaded from global memory.
    pub load_bytes: usize,
    /// Bytes stored to global memory.
    pub store_bytes: usize,
}

/// The complete HT schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtSchedule {
    /// Sliding windows per transfer round (`2` in the paper's Fig. 10
    /// evaluation protocol).
    pub batch: usize,
    /// All node programs.
    pub programs: Vec<HtNodeProgram>,
    /// Program indices per core.
    pub per_core: Vec<Vec<usize>>,
    /// Distributed non-MVM tasks.
    pub vec_tasks: Vec<HtVecTask>,
    /// Vec-task indices per core.
    pub vec_per_core: Vec<Vec<usize>>,
}

impl HtSchedule {
    /// Lowers a mapping into the HT schedule.
    ///
    /// `batch` is the number of sliding windows processed between
    /// global-memory transfer rounds (the paper's evaluation uses 2).
    pub(crate) fn build(
        graph: &Graph,
        partitioning: &Partitioning,
        mapping: &CoreMapping,
        dep: &DepInfo,
        hw: &HardwareConfig,
        batch: usize,
    ) -> Self {
        let batch = batch.max(1);
        let cores = hw.total_cores();
        let elem_bytes = hw.input_bytes_per_element();
        let mut programs: Vec<HtNodeProgram> = Vec::new();
        let mut per_core: Vec<Vec<usize>> = vec![Vec::new(); cores];

        // Group instances by (core, mvm).
        let mut groups: BTreeMap<(usize, crate::MvmIdx), Vec<usize>> = BTreeMap::new();
        for (id, inst) in mapping.instances.iter().enumerate() {
            groups.entry((inst.core, inst.mvm)).or_default().push(id);
        }

        for ((core, mvm), inst_ids) in groups {
            let entry = partitioning.entry(mvm);
            let windows = mapping.replication.windows_per_replica(partitioning, mvm);
            let rounds = windows.div_ceil(batch);
            let width = entry.weight_width;

            // Input rows each local AG slice consumes per window.
            let mut load_elems = 0usize;
            for &id in &inst_ids {
                let slice = mapping.instances[id].slice;
                let rows = slice_rows(entry.weight_height, hw.crossbar_rows, slice);
                load_elems += rows;
            }

            // Per-replica bookkeeping on this core. One partial-sum
            // message per (replica, sender core) per round, so the
            // sender-side message count matches the owners' expected
            // receive counts exactly.
            let mut sends: Vec<HtSend> = Vec::new();
            let mut recvs = 0usize;
            let mut stores = 0usize;
            let mut vec_elems = 0usize;
            let mut replicas_here: BTreeMap<usize, usize> = BTreeMap::new();
            for &id in &inst_ids {
                *replicas_here
                    .entry(mapping.instances[id].replica)
                    .or_default() += 1;
            }
            for (&replica, &local_count) in &replicas_here {
                let owner = mapping.owners[mvm][replica];
                // Intra-core accumulation of local slices.
                vec_elems += (local_count - 1) * width * batch;
                if owner == core {
                    // Remote slices each push one partial per round.
                    let remote_cores: usize = mapping
                        .replica_cores(mvm, replica)
                        .into_iter()
                        .filter(|&c| c != core)
                        .count();
                    recvs += remote_cores;
                    vec_elems += remote_cores * width * batch; // remote adds
                    vec_elems += width * batch; // activation
                    stores += width * batch * elem_bytes;
                } else if local_count > 0 {
                    sends.push(HtSend {
                        to_core: owner,
                        bytes: width * batch * elem_bytes,
                    });
                }
            }

            let idx = programs.len();
            per_core[core].push(idx);
            programs.push(HtNodeProgram {
                mvm,
                core,
                ag_instances: inst_ids,
                windows,
                rounds,
                load_bytes_per_round: load_elems * batch * elem_bytes,
                store_bytes_per_round: stores,
                sends_per_round: sends,
                recvs_per_round: recvs,
                vec_elems_per_round: vec_elems,
            });
        }

        // Distribute non-MVM operations (Algorithm 1 line 10) over the
        // owner cores of their nearest MVM providers' replicas.
        let mut vec_tasks: Vec<HtVecTask> = Vec::new();
        let mut vec_per_core: Vec<Vec<usize>> = vec![Vec::new(); cores];
        let folded = folded_activations(graph);
        for node in graph.nodes() {
            if node.op.is_mvm() || !is_costed_vec(&node.op) || folded[node.id.index()] {
                continue;
            }
            // VFU time prices the per-window *work* (contraction length
            // included for bmm/attention); memory traffic prices the
            // output *footprint*. Identical for plain streaming ops.
            let total_work = dep.windows_of(node.id) * vfu_window_work(graph, node.id);
            let out_elems = dep.windows_of(node.id) * dep.elems_of(node.id);
            let in_elems: usize = graph
                .predecessors(node.id)
                .iter()
                .map(|&p| graph.node(p).output_shape.numel())
                .sum();
            let targets = spread_cores(graph, partitioning, mapping, node.id);
            let k = targets.len().max(1);
            for (i, &core) in targets.iter().enumerate() {
                // Deal remainders to the first shares.
                let share = total_work / k + usize::from(i < total_work % k);
                if share == 0 {
                    continue;
                }
                let idx = vec_tasks.len();
                vec_per_core[core].push(idx);
                vec_tasks.push(HtVecTask {
                    node: node.id,
                    core,
                    elems: share,
                    load_bytes: (in_elems / k) * elem_bytes,
                    store_bytes: (out_elems / k) * elem_bytes,
                });
            }
        }

        HtSchedule {
            batch,
            programs,
            per_core,
            vec_tasks,
            vec_per_core,
        }
    }

    /// Total global-memory traffic per inference (loads + stores),
    /// before any spill traffic the memory planner adds.
    pub(crate) fn base_global_traffic(&self) -> usize {
        let mvm: usize = self
            .programs
            .iter()
            .map(|p| (p.load_bytes_per_round + p.store_bytes_per_round) * p.rounds)
            .sum();
        let vec: usize = self
            .vec_tasks
            .iter()
            .map(|t| t.load_bytes + t.store_bytes)
            .sum();
        mvm + vec
    }
}

/// Rows of the unfolded weight matrix covered by AG `slice`.
///
/// Slice `s` of a node's weight matrix spans rows
/// `[s * crossbar_rows, s * crossbar_rows + slice_rows(..))`; the last
/// slice carries the remainder and slices past the end are empty. This
/// is the row geometry every consumer of a compiled layout (scheduler,
/// memory planner, functional executor) must agree on, so it is public.
pub fn slice_rows(total_rows: usize, crossbar_rows: usize, slice: usize) -> usize {
    let start = slice * crossbar_rows;
    total_rows.saturating_sub(start).min(crossbar_rows)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mapping::{Chromosome, Gene};
    use pimcomp_ir::GraphBuilder;

    /// A conv whose one replica is split over two cores (3 AGs on core
    /// 0, 2 on core 1), followed by a ReLU and a max pool, on `puma`.
    pub(crate) fn setup() -> (Graph, Partitioning, CoreMapping, DepInfo, HardwareConfig) {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 8, 8]);
        // 576 rows -> 5 AGs @128; 64 cols -> 4 xbars/AG.
        let c1 = b.conv2d("c1", x, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.relu("r", c1).unwrap();
        let _p = b.max_pool("p", r, (2, 2), (2, 2), (0, 0)).unwrap();
        let g = b.finish().unwrap();
        let hw = HardwareConfig::puma();
        let part = Partitioning::new(&g, &hw).unwrap();
        let mut c = Chromosome::empty(hw.total_cores(), 4);
        // One replica split across cores 0 (3 AGs) and 1 (2 AGs).
        c.set_gene(
            0,
            Some(Gene {
                mvm: 0,
                ag_count: 3,
            }),
        );
        c.set_gene(
            4,
            Some(Gene {
                mvm: 0,
                ag_count: 2,
            }),
        );
        let mapping = CoreMapping::from_chromosome(&c, &part).unwrap();
        let dep = DepInfo::analyze(&g);
        (g, part, mapping, dep, hw)
    }

    #[test]
    fn split_replica_generates_partial_sum_traffic() {
        let (g, part, mapping, dep, hw) = setup();
        let s = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        // Two programs: (core0, node0) and (core1, node0).
        assert_eq!(s.programs.len(), 2);
        let p0 = &s.programs[s.per_core[0][0]];
        let p1 = &s.programs[s.per_core[1][0]];
        // Owner is core 0 (slice 0 lives there): receives one partial.
        assert_eq!(p0.recvs_per_round, 1);
        assert_eq!(p0.sends_per_round.len(), 0);
        assert!(p0.store_bytes_per_round > 0);
        // Core 1 sends its partial to core 0, stores nothing.
        assert_eq!(p1.sends_per_round.len(), 1);
        assert_eq!(p1.sends_per_round[0].to_core, 0);
        assert_eq!(p1.store_bytes_per_round, 0);
        assert_eq!(p1.recvs_per_round, 0);
    }

    #[test]
    fn rounds_cover_all_windows() {
        let (g, part, mapping, dep, hw) = setup();
        let s = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        for p in &s.programs {
            assert_eq!(p.windows, 64);
            assert_eq!(p.rounds, 32);
        }
        let s3 = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 3);
        assert_eq!(s3.programs[0].rounds, 22); // ceil(64/3)
    }

    #[test]
    fn load_bytes_match_slice_rows() {
        let (g, part, mapping, dep, hw) = setup();
        let s = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        let p0 = &s.programs[s.per_core[0][0]];
        // Core 0 holds slices 0,1,2: 128+128+128 rows; batch 2, 2 B/elem.
        assert_eq!(p0.load_bytes_per_round, 3 * 128 * 2 * 2);
        let p1 = &s.programs[s.per_core[1][0]];
        // Core 1 holds slices 3,4: 128 + (576-512)=64 rows.
        assert_eq!(p1.load_bytes_per_round, (128 + 64) * 2 * 2);
    }

    #[test]
    fn vec_tasks_cover_every_non_mvm_node_but_a_folded_activation() {
        let (g, part, mapping, dep, hw) = setup();
        let s = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        // The pool (64*16 elems) is present; the relu runs inside c1's
        // owner program: (3 − 1) local adds, 1 remote add and the
        // activation, each 64 columns × batch 2.
        let names: Vec<&str> = s
            .vec_tasks
            .iter()
            .map(|t| g.node(t.node).name.as_str())
            .collect();
        assert!(!names.contains(&"r"));
        assert!(names.contains(&"p"));
        let pool_total: usize = s.vec_tasks.iter().map(|t| t.elems).sum();
        assert_eq!(pool_total, 64 * 16);
        let owner = &s.programs[s.per_core[0][0]];
        assert_eq!(owner.vec_elems_per_round, (2 + 1 + 1) * 64 * 2);
    }

    fn vec_task_nodes(kind: &str) -> (Graph, Vec<NodeId>) {
        let (g, part, mapping, dep, hw) = crate::schedule::tests::fold_fixture(kind);
        let s = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        let nodes = s.vec_tasks.iter().map(|t| t.node).collect();
        (g, nodes)
    }

    #[test]
    fn a_sole_activation_gets_no_vec_task() {
        let (_, nodes) = vec_task_nodes("sole");
        assert!(nodes.is_empty(), "{nodes:?}");
    }

    #[test]
    fn an_activation_after_an_add_or_on_a_shared_output_keeps_its_vec_tasks() {
        for kind in ["after_add", "shared"] {
            let (g, nodes) = vec_task_nodes(kind);
            let [r, a] = ["r", "a"].map(|n| g.node_by_name(n).unwrap().id);
            assert!(nodes.contains(&r), "{kind}: {nodes:?}");
            assert!(nodes.contains(&a), "{kind}: {nodes:?}");
        }
    }

    #[test]
    fn slice_rows_handles_the_tail() {
        assert_eq!(slice_rows(576, 128, 0), 128);
        assert_eq!(slice_rows(576, 128, 4), 64);
        assert_eq!(slice_rows(576, 128, 5), 0);
        assert_eq!(slice_rows(100, 128, 0), 100);
    }

    #[test]
    fn base_traffic_is_positive_and_scales_with_batch() {
        let (g, part, mapping, dep, hw) = setup();
        let s2 = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        // Total traffic is batch-invariant to first order (same data
        // moved in fewer, bigger rounds); allow rounding slack.
        let s4 = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 4);
        let t2 = s2.base_global_traffic() as f64;
        let t4 = s4.base_global_traffic() as f64;
        assert!(t2 > 0.0);
        assert!((t4 / t2 - 1.0).abs() < 0.1, "t2={t2} t4={t4}");
    }
}
