//! Low-latency dataflow scheduling (paper Section IV-D.2).
//!
//! Each node streams: as soon as a node computes an output window it
//! forwards it to its consumers, and a consumer window starts once its
//! receptive-window prefix `(rd, cd)` of every provider is available.
//! Non-MVM operations are divided among cores according to the
//! replication of their predecessor convolutional layer.

use super::{is_costed_vec, spread_cores};
use crate::mapping::CoreMapping;
use crate::partition::{MvmIdx, Partitioning};
use crate::waiting::{vfu_window_work, DepInfo, DepRule};
use pimcomp_ir::{Graph, NodeId, Op};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What kind of work a pipeline unit performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LlUnitKind {
    /// Crossbar MVMs of one partitioned node (column group).
    Mvm {
        /// The partitioned node.
        mvm: MvmIdx,
    },
    /// VFU work of a non-MVM node.
    Vector,
}

/// One replica of a unit: which cores its AGs (or its VFU share) live
/// on and how many windows it handles.
///
/// Windows are assigned to replicas **strided** (`replica k` handles
/// windows `k, k+R, k+2R, …`), so the node's output prefix completes
/// smoothly — exactly what downstream receptive windows consume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlReplica {
    /// `(core, ag_count)` pairs for MVM units; a single `(core, 1)` for
    /// vector units.
    pub ags_per_core: Vec<(usize, usize)>,
    /// Accumulation / execution owner core.
    pub owner: usize,
    /// Windows this replica processes.
    pub windows: usize,
}

/// Reference to a provider node with the dependency rule of the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlProviderRef {
    /// Provider graph node.
    pub node: NodeId,
    /// Dependency rule of the consumer→provider edge.
    pub rule: DepRule,
}

/// One pipeline unit: a partitioned MVM node (column group) or a
/// non-MVM node's VFU work.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlUnit {
    /// MVM or vector.
    pub kind: LlUnitKind,
    /// The graph node this unit belongs to.
    pub node: NodeId,
    /// Display name.
    pub name: String,
    /// Total output windows of the node.
    pub windows: usize,
    /// Elements produced per window.
    pub elems_per_window: usize,
    /// Replicas (MVM: weight copies; vector: core shares).
    pub replicas: Vec<LlReplica>,
    /// Providers with edge rules (graph predecessors, inputs excluded).
    pub providers: Vec<LlProviderRef>,
    /// AGs per replica (MVM units; 0 for vector units).
    pub ags_per_replica: usize,
    /// VFU element-operations per window (vector work; for MVM units
    /// the per-window accumulate+activate cost).
    pub vfu_elems_per_window: usize,
}

/// The complete LL schedule: the set of pipeline units.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlSchedule {
    /// All units in topological order of their graph nodes.
    pub units: Vec<LlUnit>,
    /// Unit ids of each graph node (several for column-split nodes).
    pub units_of_node: HashMap<usize, Vec<usize>>,
}

impl LlSchedule {
    /// Lowers a mapping into the LL schedule.
    pub(crate) fn build(
        graph: &Graph,
        partitioning: &Partitioning,
        mapping: &CoreMapping,
        dep: &DepInfo,
    ) -> Self {
        let mut units: Vec<LlUnit> = Vec::new();
        let mut units_of_node: HashMap<usize, Vec<usize>> = HashMap::new();

        for id in graph.topo_order() {
            let node = graph.node(id);
            if matches!(node.op, Op::Input { .. }) {
                continue;
            }
            let providers: Vec<LlProviderRef> = graph
                .predecessors(id)
                .iter()
                .filter(|&&p| !matches!(graph.node(p).op, Op::Input { .. }))
                .map(|&p| LlProviderRef {
                    node: p,
                    rule: dep.edge(id, p).expect("edge analyzed").rule,
                })
                .collect();

            if node.op.is_mvm() {
                for idx in partitioning.indices_of(id) {
                    let entry = partitioning.entry(idx);
                    let r = mapping.replication.count(idx);
                    let replicas = (0..r)
                        .map(|k| {
                            let mut per_core: HashMap<usize, usize> = HashMap::new();
                            for inst in mapping
                                .instances
                                .iter()
                                .filter(|i| i.mvm == idx && i.replica == k)
                            {
                                *per_core.entry(inst.core).or_default() += 1;
                            }
                            let mut ags_per_core: Vec<(usize, usize)> =
                                per_core.into_iter().collect();
                            ags_per_core.sort_unstable();
                            LlReplica {
                                ags_per_core,
                                owner: mapping.owners[idx][k],
                                windows: strided_windows(entry.windows, r, k),
                            }
                        })
                        .collect();
                    let uid = units.len();
                    units_of_node.entry(id.index()).or_default().push(uid);
                    units.push(LlUnit {
                        kind: LlUnitKind::Mvm { mvm: idx },
                        node: id,
                        name: entry.name.clone(),
                        windows: entry.windows,
                        elems_per_window: entry.weight_width,
                        replicas,
                        providers: providers.clone(),
                        ags_per_replica: entry.ags_per_replica,
                        // Accumulate (A-1 adds per output element, spread
                        // over slices) plus the activation that follows.
                        vfu_elems_per_window: entry.weight_width
                            * entry.ags_per_replica.saturating_sub(1)
                            + entry.weight_width,
                    });
                }
            } else if is_costed_vec(&node.op) {
                // Divide across the predecessor conv's replicas
                // (Section IV-D.2), executing on their owner cores.
                let owner_cores = spread_cores(graph, partitioning, mapping, id);
                let r = owner_cores.len().max(1);
                let windows = dep.windows_of(id);
                let replicas = (0..r.min(windows.max(1)))
                    .map(|k| LlReplica {
                        ags_per_core: vec![(owner_cores[k % owner_cores.len()], 1)],
                        owner: owner_cores[k % owner_cores.len()],
                        windows: strided_windows(windows, r.min(windows.max(1)), k),
                    })
                    .collect();
                let uid = units.len();
                units_of_node.entry(id.index()).or_default().push(uid);
                units.push(LlUnit {
                    kind: LlUnitKind::Vector,
                    node: id,
                    name: node.name.clone(),
                    windows,
                    elems_per_window: dep.elems_of(id),
                    replicas,
                    providers,
                    ags_per_replica: 0,
                    vfu_elems_per_window: vfu_window_work(graph, id),
                });
            } else {
                // Zero-cost reshapes (flatten, etc.): pass-through unit
                // with no work, kept so dependency chains stay intact.
                let uid = units.len();
                units_of_node.entry(id.index()).or_default().push(uid);
                units.push(LlUnit {
                    kind: LlUnitKind::Vector,
                    node: id,
                    name: node.name.clone(),
                    windows: dep.windows_of(id),
                    elems_per_window: dep.elems_of(id),
                    replicas: vec![LlReplica {
                        ags_per_core: vec![(0, 1)],
                        owner: 0,
                        windows: dep.windows_of(id),
                    }],
                    providers,
                    ags_per_replica: 0,
                    vfu_elems_per_window: 0,
                });
            }
        }

        LlSchedule {
            units,
            units_of_node,
        }
    }

    /// Unit ids of one graph node.
    pub fn units_of(&self, node: NodeId) -> &[usize] {
        self.units_of_node
            .get(&node.index())
            .map_or(&[], |v| v.as_slice())
    }
}

/// Windows replica `k` of `r` handles under strided assignment.
pub(crate) fn strided_windows(windows: usize, r: usize, k: usize) -> usize {
    if k >= r {
        return 0;
    }
    (windows + r - 1 - k) / r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Chromosome, Gene};
    use pimcomp_arch::HardwareConfig;
    use pimcomp_ir::GraphBuilder;

    fn setup() -> (Graph, Partitioning, CoreMapping, DepInfo) {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [16, 8, 8]);
        let c1 = b.conv2d("c1", x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.relu("r", c1).unwrap();
        let c2 = b.conv2d("c2", r, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let _gap = b.global_avg_pool("gap", c2).unwrap();
        let g = b.finish().unwrap();
        let hw = HardwareConfig::puma();
        let part = Partitioning::new(&g, &hw).unwrap();
        // c1: 144 rows -> 2 AGs; c2: same. Replicate c1 twice.
        let mut c = Chromosome::empty(hw.total_cores(), 4);
        c.set_gene(
            0,
            Some(Gene {
                mvm: 0,
                ag_count: 4,
            }),
        ); // 2 replicas
        c.set_gene(
            4,
            Some(Gene {
                mvm: 1,
                ag_count: 2,
            }),
        );
        let mapping = CoreMapping::from_chromosome(&c, &part).unwrap();
        let dep = DepInfo::analyze(&g);
        (g, part, mapping, dep)
    }

    #[test]
    fn units_cover_all_non_input_nodes() {
        let (g, part, mapping, dep) = setup();
        let s = LlSchedule::build(&g, &part, &mapping, &dep);
        // conv1, relu, conv2, gap.
        assert_eq!(s.units.len(), 4);
    }

    #[test]
    fn strided_assignment_partitions_windows() {
        assert_eq!(strided_windows(10, 3, 0), 4);
        assert_eq!(strided_windows(10, 3, 1), 3);
        assert_eq!(strided_windows(10, 3, 2), 3);
        let total: usize = (0..3).map(|k| strided_windows(10, 3, k)).sum();
        assert_eq!(total, 10);
        assert_eq!(strided_windows(10, 3, 5), 0);
    }

    #[test]
    fn mvm_unit_reflects_replication() {
        let (g, part, mapping, dep) = setup();
        let s = LlSchedule::build(&g, &part, &mapping, &dep);
        let c1 = &s.units[0];
        assert!(matches!(c1.kind, LlUnitKind::Mvm { mvm: 0 }));
        assert_eq!(c1.replicas.len(), 2);
        assert_eq!(c1.replicas[0].windows + c1.replicas[1].windows, c1.windows);
        let _ = g;
    }

    #[test]
    fn vector_units_follow_predecessor_owners() {
        let (g, part, mapping, dep) = setup();
        let s = LlSchedule::build(&g, &part, &mapping, &dep);
        let relu = s.units.iter().find(|u| u.name == "r").expect("relu unit");
        // c1 has 2 replicas, both owned by core 0 -> one distinct owner.
        assert!(matches!(relu.kind, LlUnitKind::Vector));
        for rep in &relu.replicas {
            assert_eq!(rep.owner, 0);
        }
        let _ = g;
    }

    #[test]
    fn providers_skip_graph_inputs() {
        let (g, part, mapping, dep) = setup();
        let s = LlSchedule::build(&g, &part, &mapping, &dep);
        assert!(s.units[0].providers.is_empty()); // c1 fed by input only
        assert_eq!(s.units[1].providers.len(), 1); // relu <- c1
        let _ = g;
    }

    #[test]
    fn units_of_maps_back() {
        let (g, part, mapping, dep) = setup();
        let s = LlSchedule::build(&g, &part, &mapping, &dep);
        let c2 = g.node_by_name("c2").unwrap().id;
        let ids = s.units_of(c2);
        assert_eq!(ids.len(), 1);
        assert_eq!(s.units[ids[0]].node, c2);
        let _ = part;
    }
}
