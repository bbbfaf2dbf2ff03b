//! Receptive-window dependency analysis (paper Section IV-D.2) and
//! waiting percentages (Fig. 6).
//!
//! In LL mode a node's output `(r, c)` may start once the last input it
//! requires, `(rd, cd)`, has arrived:
//!
//! ```text
//! rd = min(H, K + s·(r−1) − p)   for CONV / POOL
//! rd = H                         for FC
//! rd = r (pass-through)          for CONCAT / ELTWISE
//! ```
//!
//! (and symmetrically for columns). From this rule we derive, per graph
//! edge, the **waiting percentage** `W`: the fraction of the provider's
//! production period that must elapse before the consumer can run to
//! completion without pausing — the quantity the LL fitness function
//! iterates over (paper Fig. 6).

use pimcomp_ir::{Graph, NodeId, Op};
use std::collections::HashMap;

/// How a consumer's windows depend on one provider's windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepRule {
    /// Sliding-window operators (conv, pool): output `(r, c)` needs the
    /// provider prefix up to `(rd, cd)` per the formula above.
    SlidingWindow {
        /// Kernel `(kh, kw)`.
        kernel: (usize, usize),
        /// Stride `(sh, sw)`.
        stride: (usize, usize),
        /// Padding `(ph, pw)`.
        padding: (usize, usize),
    },
    /// The consumer needs the provider's complete output before its
    /// first window (FC, global pooling, softmax, flatten).
    Full,
    /// Streaming pass-through: consumer window `j` needs provider
    /// window `ceil((j+1)·Np/Nc)` (activation, eltwise, concat, LRN,
    /// batch-norm).
    PassThrough,
}

/// Dependency metadata of one graph edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeDep {
    /// The dependency rule.
    pub rule: DepRule,
    /// Waiting percentage `W ∈ [0, 1]`: the no-stall start offset as a
    /// fraction of the provider's production period, assuming matched
    /// production/consumption rates (replication ratios are folded in
    /// separately by the fitness function, paper Fig. 6).
    pub waiting: f64,
}

/// Per-graph dependency analysis: unit window counts, window sizes and
/// per-edge waiting percentages.
#[derive(Debug, Clone, PartialEq)]
pub struct DepInfo {
    /// Unit windows per node (indexed by `NodeId` index): spatial
    /// positions for feature ops, 1 for full-feature ops.
    pub windows: Vec<usize>,
    /// Output elements produced per window.
    pub elems_per_window: Vec<usize>,
    /// Per-edge `(consumer, provider)` dependency metadata.
    pub edges: HashMap<(NodeId, NodeId), EdgeDep>,
}

impl DepInfo {
    /// Analyzes every edge of `graph`.
    pub fn analyze(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut windows = vec![1usize; n];
        let mut elems = vec![1usize; n];
        for node in graph.nodes() {
            let (w, e) = unit_windows(graph, node.id);
            windows[node.id.index()] = w;
            elems[node.id.index()] = e;
        }
        let mut edges = HashMap::new();
        for node in graph.nodes() {
            let rule = dep_rule(&node.op);
            for &p in graph.predecessors(node.id) {
                if matches!(graph.node(p).op, Op::Input { .. }) {
                    // Inputs are resident before inference starts.
                    edges.insert((node.id, p), EdgeDep { rule, waiting: 0.0 });
                    continue;
                }
                let provider = graph.node(p);
                let w = waiting_percentage(
                    rule,
                    (node.output_shape.height(), node.output_shape.width()),
                    windows[node.id.index()],
                    (
                        provider.output_shape.height(),
                        provider.output_shape.width(),
                    ),
                    windows[p.index()],
                );
                edges.insert((node.id, p), EdgeDep { rule, waiting: w });
            }
        }
        DepInfo {
            windows,
            elems_per_window: elems,
            edges,
        }
    }

    /// Window count of a node.
    pub(crate) fn windows_of(&self, id: NodeId) -> usize {
        self.windows[id.index()]
    }

    /// Elements per window of a node.
    pub(crate) fn elems_of(&self, id: NodeId) -> usize {
        self.elems_per_window[id.index()]
    }

    /// Edge dependency, if the edge exists.
    pub fn edge(&self, consumer: NodeId, provider: NodeId) -> Option<&EdgeDep> {
        self.edges.get(&(consumer, provider))
    }
}

/// Unit windows and elements-per-window of a node.
fn unit_windows(graph: &Graph, id: NodeId) -> (usize, usize) {
    let node = graph.node(id);
    let shape = &node.output_shape;
    match &node.op {
        // Full-feature operators produce one unit.
        Op::Linear(_) | Op::GlobalAvgPool | Op::Softmax | Op::Flatten => (1, shape.numel()),
        // Everything else streams spatial positions: `height·width`
        // windows of `channels` elements. For CHW maps that is the
        // spatial extent; for `[seq, features]` streams it is one window
        // per sequence position (rank-1 shapes degenerate to a single
        // `1 × numel` window, exactly as before the rank-N refactor).
        _ => (shape.height() * shape.width(), shape.channels()),
    }
}

/// Per-window VFU work (element operations) of a node, used by the
/// schedulers and the fitness model to price vector-unit time.
///
/// For plain streaming operators one window costs its output elements.
/// Activation-by-activation matrix products carry the contraction
/// length, and fused attention prices the full `QKᵀ → softmax → ·V`
/// chain per query row, so transformer vector work scales with
/// `seq × hidden` instead of just the output footprint.
pub(crate) fn vfu_window_work(graph: &Graph, id: NodeId) -> usize {
    let node = graph.node(id);
    let (_, elems) = unit_windows(graph, id);
    match &node.op {
        Op::Bmm(_) => {
            // Contraction length = feature width of input A.
            let k = graph
                .predecessors(id)
                .first()
                .map(|&p| graph.node(p).output_shape.channels())
                .unwrap_or(1);
            elems.saturating_mul(k)
        }
        Op::Attention(_) => {
            // Per query row: s·d (scores) + s (softmax) + s·d (context).
            let s = node.output_shape.height() * node.output_shape.width();
            let d = node.output_shape.channels();
            (2 * s).saturating_mul(d).saturating_add(s)
        }
        // Mean/variance pass plus the normalize pass.
        Op::LayerNorm => 2 * elems,
        _ => elems,
    }
}

/// Dependency rule of an operator.
fn dep_rule(op: &Op) -> DepRule {
    match op {
        Op::Conv2d(c) => DepRule::SlidingWindow {
            kernel: c.kernel,
            stride: c.stride,
            padding: c.padding,
        },
        Op::Pool(p) => DepRule::SlidingWindow {
            kernel: p.kernel,
            stride: p.stride,
            padding: p.padding,
        },
        Op::Linear(_) | Op::GlobalAvgPool | Op::Softmax | Op::Flatten => DepRule::Full,
        // Both operands of an activation×activation product (and the
        // packed K/V of fused attention) must be complete before the
        // first output row; a transpose reorders the whole tensor.
        Op::Bmm(_) | Op::Attention(_) | Op::Transpose | Op::Reshape { .. } => DepRule::Full,
        _ => DepRule::PassThrough,
    }
}

/// Provider windows (prefix count, row-major) needed before consumer
/// window `j` (0-based) can start.
pub fn required_windows(
    rule: DepRule,
    j: usize,
    consumer_dims: (usize, usize),
    consumer_windows: usize,
    provider_dims: (usize, usize),
    provider_windows: usize,
) -> usize {
    let wo = consumer_dims.1.max(1);
    required_windows_at(
        rule,
        (j / wo, j % wo),
        consumer_dims,
        consumer_windows,
        provider_dims,
        provider_windows,
    )
}

/// [`required_windows`] of the consumer window at output `(row, col)`
/// (0-based; window `row · W + col` for a consumer `W` columns wide), so
/// a caller that steps through windows needs no division for them.
pub(crate) fn required_windows_at(
    rule: DepRule,
    (row, col): (usize, usize),
    consumer_dims: (usize, usize),
    consumer_windows: usize,
    provider_dims: (usize, usize),
    provider_windows: usize,
) -> usize {
    match rule {
        DepRule::Full => provider_windows,
        DepRule::PassThrough => {
            let j = row * consumer_dims.1.max(1) + col;
            if consumer_windows == provider_windows {
                // The general form below, with its division cancelled.
                (j + 1).min(provider_windows)
            } else {
                // ceil((j+1) * Np / Nc), clamped.
                ((j + 1) * provider_windows)
                    .div_ceil(consumer_windows.max(1))
                    .min(provider_windows)
            }
        }
        DepRule::SlidingWindow {
            kernel,
            stride,
            padding,
        } => {
            let (hi, wi) = provider_dims;
            let rd = (kernel.0 + stride.0 * row)
                .saturating_sub(padding.0)
                .min(hi);
            let cd = (kernel.1 + stride.1 * col)
                .saturating_sub(padding.1)
                .min(wi);
            if rd == 0 {
                0
            } else {
                ((rd - 1) * wi + cd).min(provider_windows)
            }
        }
    }
}

/// Waiting percentage for an edge: the minimal start offset (fraction of
/// the provider's production period) that lets the consumer run to
/// completion without pausing, under matched rates.
fn waiting_percentage(
    rule: DepRule,
    consumer_dims: (usize, usize),
    consumer_windows: usize,
    provider_dims: (usize, usize),
    provider_windows: usize,
) -> f64 {
    let np = provider_windows.max(1) as f64;
    let nc = consumer_windows.max(1) as f64;
    match rule {
        DepRule::Full => 1.0,
        _ => {
            // W = max_j [ dep(j)/Np − (j+1)/Nc ]; the maximum over a
            // sliding window is attained at a row boundary, so sampling
            // the first and last column of every output row is exact.
            let (ho, wo) = (consumer_dims.0.max(1), consumer_dims.1.max(1));
            let mut w: f64 = 0.0;
            for r in 0..ho {
                for c in [0, wo - 1] {
                    let j = r * wo + c;
                    if j >= consumer_windows {
                        continue;
                    }
                    let dep = required_windows(
                        rule,
                        j,
                        consumer_dims,
                        consumer_windows,
                        provider_dims,
                        provider_windows,
                    ) as f64;
                    w = w.max(dep / np - (j + 1) as f64 / nc);
                }
            }
            w.clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::GraphBuilder;

    #[test]
    fn conv_first_window_needs_k_minus_p_rows() {
        // 3x3 conv, pad 1: first output needs rows up to K - p = 2,
        // cols up to 2 -> dep = 1*W + 2 windows of the provider.
        let dep = required_windows(
            DepRule::SlidingWindow {
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            0,
            (8, 8),
            64,
            (8, 8),
            64,
        );
        assert_eq!(dep, 8 + 2);
    }

    #[test]
    fn conv_last_window_needs_everything() {
        let dep = required_windows(
            DepRule::SlidingWindow {
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            63,
            (8, 8),
            64,
            (8, 8),
            64,
        );
        assert_eq!(dep, 64);
    }

    #[test]
    fn full_rule_needs_all_provider_windows() {
        assert_eq!(
            required_windows(DepRule::Full, 0, (1, 1), 1, (7, 7), 49),
            49
        );
    }

    #[test]
    fn pass_through_scales_indices() {
        // Same sizes: j needs j+1.
        assert_eq!(
            required_windows(DepRule::PassThrough, 9, (8, 8), 64, (8, 8), 64),
            10
        );
        // Provider twice as large: j needs 2(j+1).
        assert_eq!(
            required_windows(DepRule::PassThrough, 9, (8, 8), 64, (16, 8), 128),
            20
        );
    }

    #[test]
    fn waiting_grows_with_kernel_and_stride_relation() {
        // Stride-1 3x3: waiting is the small prefix of ~2 provider rows.
        let w_s1 = waiting_percentage(
            DepRule::SlidingWindow {
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            (32, 32),
            1024,
            (32, 32),
            1024,
        );
        assert!(w_s1 > 0.0 && w_s1 < 0.2, "w = {w_s1}");

        // Stride-2 pooling consumes 4 windows per output: the provider
        // runs 'ahead' and the consumer must wait roughly half... the
        // no-stall condition keeps W moderate but larger than conv.
        let w_pool = waiting_percentage(
            DepRule::SlidingWindow {
                kernel: (2, 2),
                stride: (2, 2),
                padding: (0, 0),
            },
            (16, 16),
            256,
            (32, 32),
            1024,
        );
        assert!((0.0..=1.0).contains(&w_pool));
    }

    #[test]
    fn fc_edges_wait_for_the_whole_provider() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let f = b.flatten("f", c).unwrap();
        let fc = b.linear("fc", f, 10).unwrap();
        let g = b.finish().unwrap();
        let info = DepInfo::analyze(&g);
        assert_eq!(info.edge(f, c).unwrap().waiting, 1.0);
        assert_eq!(info.edge(fc, f).unwrap().waiting, 1.0);
    }

    #[test]
    fn input_edges_have_zero_waiting() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let info = DepInfo::analyze(&g);
        assert_eq!(info.edge(c, x).unwrap().waiting, 0.0);
    }

    #[test]
    fn eltwise_and_relu_stream() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c1 = b.conv2d("c1", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.relu("r", c1).unwrap();
        let c2 = b.conv2d("c2", x, 8, (1, 1), (1, 1), (0, 0)).unwrap();
        let add = b.eltwise_add("add", r, c2).unwrap();
        let g = b.finish().unwrap();
        let info = DepInfo::analyze(&g);
        // Streaming consumers wait (almost) nothing under matched rates.
        assert!(info.edge(r, c1).unwrap().waiting < 1e-9);
        assert!(info.edge(add, r).unwrap().waiting < 1e-9);
    }

    #[test]
    fn window_counts_follow_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let gp = b.global_avg_pool("g", c).unwrap();
        let g = b.finish().unwrap();
        let info = DepInfo::analyze(&g);
        assert_eq!(info.windows_of(x), 64);
        assert_eq!(info.windows_of(c), 64);
        assert_eq!(info.elems_of(c), 8);
        assert_eq!(info.windows_of(gp), 1);
        assert_eq!(info.elems_of(gp), 8);
    }
}
