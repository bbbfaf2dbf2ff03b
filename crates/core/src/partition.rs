//! Node partitioning (paper Section IV-B, Fig. 4).
//!
//! Convolution and fully connected layers are unfolded into weight
//! matrices of height `kh·kw·Cin` and width `Cout`, then sliced
//! horizontally into **Array Groups** (AGs): each AG covers `Hxbar` rows
//! of the weight matrix and all `Cout` columns, occupying
//! `ceil(Cout / Wxbar)` crossbars. One replica of a node therefore owns
//! `ceil(height / Hxbar)` AGs, and every AG processes the node's
//! `Hout × Wout` sliding windows.

use crate::CompileError;
use pimcomp_arch::HardwareConfig;
use pimcomp_ir::{Graph, NodeId, Op};
use std::collections::HashMap;

/// Index of an MVM node within a [`Partitioning`] (topological order of
/// conv/fc nodes).
pub type MvmIdx = usize;

/// Partitioning result for one convolution / fully connected node (or
/// one *column group* of it, when `Cout` is too wide for a single-core
/// AG — see [`Partitioning::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePartition {
    /// The graph node this entry describes.
    pub node: NodeId,
    /// Node name (for reports); column groups are suffixed `[cK]`.
    pub name: String,
    /// Column group index (0 for unsplit nodes).
    pub col_group: usize,
    /// Total column groups of this node.
    pub col_groups: usize,
    /// Unfolded weight matrix height `kh·kw·Cin` — also the input-vector
    /// length of one sliding window.
    pub weight_height: usize,
    /// Width of this entry's weight matrix slice (`Cout` for unsplit
    /// nodes) — also the output elements per sliding window.
    pub weight_width: usize,
    /// AGs per replica: `ceil(weight_height / Hxbar)`.
    pub ags_per_replica: usize,
    /// Crossbars per AG: `ceil(weight_width / Wxbar)`.
    pub crossbars_per_ag: usize,
    /// Sliding windows (input cycles) per inference: `Hout × Wout`.
    pub windows: usize,
    /// Output feature height (windows are row-major over this extent).
    pub out_height: usize,
    /// Output feature width.
    pub out_width: usize,
}

impl NodePartition {
    /// Crossbars one replica occupies.
    pub(crate) fn crossbars_per_replica(&self) -> usize {
        self.ags_per_replica * self.crossbars_per_ag
    }

    /// Sliding windows each replica processes when the node is
    /// replicated `r` times (windows are divided evenly; the last
    /// replica may run fewer, the estimate uses the ceiling as the
    /// paper's Fig. 5 does).
    pub(crate) fn windows_per_replica(&self, r: usize) -> usize {
        self.windows.div_ceil(r.max(1))
    }
}

/// The node-partitioning stage output: one entry per MVM node, in
/// topological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    entries: Vec<NodePartition>,
    by_node: HashMap<NodeId, MvmIdx>,
}

impl Partitioning {
    /// Runs node partitioning over every conv/fc node of `graph`.
    ///
    /// The paper's placement invariant prefers all crossbars of one AG
    /// on one core. Nodes whose `Cout` would make one AG wider than a
    /// core's PIMMU are split into *column groups* (independent `Cout`
    /// slices sharing inputs; their outputs concatenate, no cross-group
    /// accumulation is needed) so that every AG fits a core.
    ///
    /// # Errors
    ///
    /// [`CompileError::NoMvmNodes`] when the graph has no conv/fc node;
    /// [`CompileError::UnboundSeqLen`] when the graph still carries a
    /// symbolic sequence dimension (window counts need fixed shapes —
    /// bind via [`pimcomp_ir::transform::bind_seq_len`] or compile
    /// through a session with `seq_len` set).
    pub fn new(graph: &Graph, hw: &HardwareConfig) -> Result<Self, CompileError> {
        if graph.has_symbolic_dims() {
            return Err(CompileError::UnboundSeqLen {
                model: graph.name().to_string(),
            });
        }
        let wxbar = hw.weight_cols_per_crossbar();
        let max_cols_per_group = hw.crossbar_capacity_per_core() * wxbar;
        let mut entries = Vec::new();
        for id in graph.mvm_nodes() {
            let node = graph.node(id);
            let (h, w) = match &node.op {
                Op::Conv2d(c) => (c.weight_matrix_height(), c.weight_matrix_width()),
                Op::Linear(l) => (l.weight_matrix_height(), l.weight_matrix_width()),
                Op::MatMul(m) => (m.weight_matrix_height(), m.weight_matrix_width()),
                _ => unreachable!("mvm_nodes returns only conv/fc/matmul"),
            };
            let (oh, ow) = (node.output_shape.height(), node.output_shape.width());
            let col_groups = w.div_ceil(max_cols_per_group);
            for g in 0..col_groups {
                let width = if g + 1 == col_groups {
                    w - g * max_cols_per_group
                } else {
                    max_cols_per_group
                };
                let name = if col_groups == 1 {
                    node.name.clone()
                } else {
                    format!("{}[c{g}]", node.name)
                };
                entries.push(NodePartition {
                    node: id,
                    name,
                    col_group: g,
                    col_groups,
                    weight_height: h,
                    weight_width: width,
                    ags_per_replica: h.div_ceil(hw.crossbar_rows),
                    crossbars_per_ag: width.div_ceil(wxbar),
                    windows: oh * ow,
                    out_height: oh,
                    out_width: ow,
                });
            }
        }
        if entries.is_empty() {
            return Err(CompileError::NoMvmNodes);
        }
        let mut by_node = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            by_node.entry(e.node).or_insert(i);
        }
        Ok(Partitioning { entries, by_node })
    }

    /// Number of MVM nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when there are no MVM nodes (never after successful
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry by MVM index.
    pub fn entry(&self, idx: MvmIdx) -> &NodePartition {
        &self.entries[idx]
    }

    /// All entries in topological order.
    pub fn entries(&self) -> &[NodePartition] {
        &self.entries
    }

    /// First MVM index of a graph node, if it is a partitioned node
    /// (column-split nodes have consecutive indices; see
    /// [`Partitioning::indices_of`]).
    pub(crate) fn index_of(&self, node: NodeId) -> Option<MvmIdx> {
        self.by_node.get(&node).copied()
    }

    /// All MVM indices belonging to a graph node (more than one for
    /// column-split nodes).
    pub fn indices_of(&self, node: NodeId) -> Vec<MvmIdx> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.node == node)
            .map(|(i, _)| i)
            .collect()
    }

    /// Minimum crossbars to hold one replica of every node.
    pub fn min_crossbars(&self) -> usize {
        self.entries.iter().map(|e| e.crossbars_per_replica()).sum()
    }

    /// The largest window count of any node (at least 1).
    pub(crate) fn max_windows(&self) -> usize {
        let most = self.entries.iter().map(|e| e.windows).max();
        most.unwrap_or(1).max(1)
    }

    /// Smallest window target `t` whose windows-proportional replication
    /// (`R = ceil(windows/t)`) fits the crossbar `budget` — the start of
    /// both the GA's initial population and the PUMA-like baseline.
    pub(crate) fn fit_window_target(&self, budget: usize) -> usize {
        let cost = |t: usize| -> usize {
            let replicated = |e: &NodePartition| e.windows.div_ceil(t) * e.crossbars_per_replica();
            self.entries.iter().map(replicated).sum()
        };
        let (mut lo, mut hi) = (1usize, self.max_windows());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cost(mid) <= budget {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// The default headroom of [`sized_chips`], used by `pimcomp compile`
/// without `--chips`, the bench harness and a sweep's `hardware:
/// "auto"`: twice the single-replica demand, leaving room for weight
/// replication.
pub const DEFAULT_HEADROOM: f64 = 2.0;

/// Sizes a chip count for `graph` on the `base` target: enough chips
/// for `headroom ×` the single-replica crossbar demand, leaving room
/// for weight replication. This is the headroom heuristic the bench
/// harness (`hardware_for`) and the sweep engine's `hardware: "auto"`
/// option share; [`DEFAULT_HEADROOM`] is their default.
///
/// # Errors
///
/// Propagates partitioning failures ([`CompileError`]) — a graph with
/// no MVM nodes, or one whose Array Groups exceed a single core, cannot
/// be sized.
pub fn sized_chips(
    graph: &Graph,
    base: &HardwareConfig,
    headroom: f64,
) -> Result<usize, CompileError> {
    let p = Partitioning::new(graph, base)?;
    let per_chip = base.cores_per_chip * base.crossbars_per_core;
    let need = (p.min_crossbars() as f64 * headroom).ceil() as usize;
    Ok(need.div_ceil(per_chip).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::{models, GraphBuilder};

    fn hw() -> HardwareConfig {
        HardwareConfig::puma() // 128 rows, 16 weight cols per crossbar
    }

    #[test]
    fn conv_partitioning_matches_fig4_formulas() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 56, 56]);
        let c = b.conv2d("c", x, 128, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let e = p.entry(p.index_of(c).unwrap());
        assert_eq!(e.weight_height, 3 * 3 * 64); // 576
        assert_eq!(e.weight_width, 128);
        assert_eq!(e.ags_per_replica, 576usize.div_ceil(128)); // 5
        assert_eq!(e.crossbars_per_ag, 128usize.div_ceil(16)); // 8
        assert_eq!(e.windows, 56 * 56);
        assert_eq!(e.crossbars_per_replica(), 40);
    }

    #[test]
    fn fc_is_a_one_window_node() {
        let mut b = GraphBuilder::new("t");
        let x = b.input_flat("x", 512);
        let f = b.linear("fc", x, 100).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let e = p.entry(p.index_of(f).unwrap());
        assert_eq!(e.windows, 1);
        assert_eq!(e.ags_per_replica, 4); // 512/128
        assert_eq!(e.crossbars_per_ag, 7); // ceil(100/16)
    }

    #[test]
    fn windows_split_evenly_across_replicas() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 10, 10]);
        let c = b.conv2d("c", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let e = p.entry(p.index_of(c).unwrap());
        assert_eq!(e.windows, 100);
        assert_eq!(e.windows_per_replica(1), 100);
        assert_eq!(e.windows_per_replica(3), 34);
        assert_eq!(e.windows_per_replica(100), 1);
        // More replicas than windows: still one window each.
        assert_eq!(e.windows_per_replica(1000), 1);
    }

    #[test]
    fn graph_without_mvm_nodes_is_rejected() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 8, 8]);
        let _ = b.relu("r", x).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(
            Partitioning::new(&g, &hw()).unwrap_err(),
            CompileError::NoMvmNodes
        );
    }

    #[test]
    fn too_wide_nodes_split_into_column_groups() {
        // Cout beyond one core's AG width (64 crossbars * 16 cols =
        // 1024) splits: 2000 -> groups of 1024 + 976.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 8, 8]);
        let c = b.conv2d("c", x, 2000, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let idxs = p.indices_of(c);
        assert_eq!(idxs.len(), 2);
        assert_eq!(p.entry(idxs[0]).weight_width, 1024);
        assert_eq!(p.entry(idxs[1]).weight_width, 976);
        assert_eq!(p.entry(idxs[0]).crossbars_per_ag, 64);
        assert!(p.entry(idxs[0]).name.ends_with("[c0]"));
        // Column groups share windows and AG-per-replica structure.
        assert_eq!(p.entry(idxs[0]).windows, p.entry(idxs[1]).windows);
        assert_eq!(
            p.entry(idxs[0]).ags_per_replica,
            p.entry(idxs[1]).ags_per_replica
        );
    }

    #[test]
    fn vgg16_partitions_every_mvm_node() {
        let g = pimcomp_ir::transform::normalize(&models::vgg16()).unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        // 13 convs (one group each) + fc6/fc7 split 4-ways + fc8.
        assert_eq!(p.len(), 13 + 4 + 4 + 1);
        // fc6: 25088 x 4096 split into four 1024-wide column groups.
        let fc6 = p
            .entries()
            .iter()
            .find(|e| e.name == "fc6[c0]")
            .expect("fc6[c0] present");
        assert_eq!(fc6.weight_height, 25088);
        assert_eq!(fc6.ags_per_replica, 196);
        assert_eq!(fc6.crossbars_per_ag, 64);
        assert_eq!(fc6.col_groups, 4);
    }
}
