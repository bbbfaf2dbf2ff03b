//! Workload statistics used by reports and by compiler heuristics.

use crate::{Graph, Node, Op};
use serde::{Deserialize, Serialize};

/// Per-node workload statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Node name.
    pub name: String,
    /// Operator mnemonic.
    pub op: String,
    /// Weight parameter count (0 for weight-less operators).
    pub params: usize,
    /// Multiply-accumulate count for one inference.
    pub macs: usize,
    /// Output element count (0 while the shape is still symbolic).
    pub output_elems: usize,
    /// Sliding-window count `Hout*Wout` (1 for FC, the row count for
    /// matmul; 0 for non-MVM ops and for symbolic shapes).
    pub windows: usize,
}

/// Whole-graph workload statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Model name.
    pub model: String,
    /// Node count.
    pub nodes: usize,
    /// Conv + FC node count.
    pub mvm_nodes: usize,
    /// Total parameters.
    pub params: usize,
    /// Total MACs per inference.
    pub macs: usize,
    /// Per-node breakdown in topological order.
    pub per_node: Vec<NodeStats>,
}

impl NodeStats {
    /// Computes statistics for a single node.
    pub(crate) fn of(node: &Node) -> Self {
        let (params, macs, windows) = match &node.op {
            Op::Conv2d(c) => {
                let windows = node.output_shape.height() * node.output_shape.width();
                let per_window = c.weight_matrix_height() * c.out_channels;
                (c.weight_count(), per_window * windows, windows)
            }
            Op::Linear(l) => (
                l.in_features * l.out_features,
                l.in_features * l.out_features,
                1,
            ),
            Op::MatMul(m) => {
                let params = m.in_features * m.out_features;
                // Every leading-dimension row streams through the same
                // stationary weights; unknown (symbolic) row counts
                // report zero windows/MACs until bound.
                let rows = node
                    .output_shape
                    .try_numel()
                    .map(|n| n / m.out_features)
                    .unwrap_or(0);
                (params, params * rows, rows)
            }
            _ => (0, 0, 0),
        };
        NodeStats {
            name: node.name.clone(),
            op: node.op.mnemonic().to_string(),
            params,
            macs,
            output_elems: node.output_shape.try_numel().unwrap_or(0),
            windows,
        }
    }
}

impl GraphStats {
    /// Computes statistics for every node of `graph`.
    pub fn of(graph: &Graph) -> Self {
        let per_node: Vec<NodeStats> = graph
            .topo_order()
            .into_iter()
            .map(|id| NodeStats::of(graph.node(id)))
            .collect();
        GraphStats {
            model: graph.name().to_string(),
            nodes: graph.node_count(),
            mvm_nodes: per_node.iter().filter(|s| s.windows > 0).count(),
            params: per_node.iter().map(|s| s.params).sum(),
            macs: per_node.iter().map(|s| s.macs).sum(),
            per_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn conv_stats_count_macs_and_windows() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 8, 8]);
        let c = b.conv2d("c", x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let s = NodeStats::of(g.node(c));
        assert_eq!(s.windows, 64);
        assert_eq!(s.params, 3 * 3 * 3 * 16);
        assert_eq!(s.macs, 27 * 16 * 64);
    }

    #[test]
    fn fc_counts_one_window() {
        let mut b = GraphBuilder::new("t");
        let x = b.input_flat("x", 128);
        let f = b.linear("fc", x, 10).unwrap();
        let g = b.finish().unwrap();
        let s = NodeStats::of(g.node(f));
        assert_eq!(s.windows, 1);
        assert_eq!(s.macs, 1280);
    }

    #[test]
    fn matmul_stats_scale_with_bound_rows() {
        let mut b = GraphBuilder::new("t");
        let x = b.input_seq("x", 128);
        let m = b.matmul("mm", x, 256).unwrap();
        let g = b.finish().unwrap();
        // Symbolic: params known, per-inference work unknown.
        let s = NodeStats::of(g.node(m));
        assert_eq!(s.params, 128 * 256);
        assert_eq!(s.macs, 0);
        assert_eq!(s.windows, 0);
        assert_eq!(s.output_elems, 0);
        // Bound at seq 16: one window per row.
        let bound = crate::transform::bind_seq_len(&g, 16).unwrap();
        let s = NodeStats::of(bound.node_by_name("mm").unwrap());
        assert_eq!(s.windows, 16);
        assert_eq!(s.macs, 128 * 256 * 16);
        assert_eq!(s.output_elems, 16 * 256);
    }

    #[test]
    fn graph_stats_aggregate() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 8, 8]);
        let c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.relu("r", c).unwrap();
        let f = b.flatten("f", r).unwrap();
        let _l = b.linear("fc", f, 10).unwrap();
        let g = b.finish().unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.mvm_nodes, 2);
        assert!(s.macs > 0 && s.params > 0);
    }
}
