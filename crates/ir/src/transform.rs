//! Graph normalization, run before compilation.
//!
//! The paper's front end parses ONNX and hands the backend a clean node
//! list; [`normalize`] performs the cleanup a real front end does —
//! batch-norm folding (resnet/inception export BN separately), dropout
//! elimination, attention fusion and dead-node elimination — as one
//! rewrite of the node list that builds one graph. [`bind_seq_len`]
//! binds a symbolic sequence length before it.

use crate::graph::{Graph, Node, NodeId};
use crate::op::Attention;
use crate::shape_infer::infer_output_shape;
use crate::{IrError, Op, Shape};
use std::collections::HashMap;

/// Binds the symbolic sequence length to `len`, re-running shape
/// inference over the whole graph.
///
/// Graphs without symbolic dimensions are returned unchanged, so binding
/// is idempotent and harmless on CNNs.
///
/// # Errors
///
/// Returns [`IrError::InvalidAttribute`] when `len` is zero, and
/// propagates shape-inference failures (reachable when a hostile graph
/// only type-checks for some sequence lengths).
pub fn bind_seq_len(graph: &Graph, len: usize) -> Result<Graph, IrError> {
    if len == 0 {
        return Err(IrError::InvalidAttribute {
            node: graph.name().to_string(),
            detail: "sequence length must be at least 1".into(),
        });
    }
    if !graph.has_symbolic_dims() {
        return Ok(graph.clone());
    }
    let mut shapes: HashMap<NodeId, Shape> = HashMap::new();
    let mut nodes: Vec<Node> = graph.nodes().to_vec();
    for id in graph.topo_order() {
        let old = graph.node(id);
        let op = match &old.op {
            Op::Input { shape } => Op::Input {
                shape: shape.bind_seq(len),
            },
            Op::Reshape { shape } => Op::Reshape {
                shape: shape.bind_seq(len),
            },
            other => other.clone(),
        };
        let input_shapes: Vec<&Shape> = old.inputs.iter().map(|i| &shapes[i]).collect();
        let shape = infer_output_shape(&old.name, &op, &input_shapes)?;
        shapes.insert(id, shape.clone());
        let n = &mut nodes[id.index()];
        n.op = op;
        n.output_shape = shape;
    }
    Graph::from_nodes(graph.name(), nodes)
}

/// Runs the pre-compilation cleanup and validates the result once.
///
/// In the input's topological order, `Dropout` and `BatchNorm` nodes
/// (identities at inference: dropout is off, and batch-norm's affine
/// parameters ride along with the producer's weights on the crossbars)
/// are spliced out, each consumer rewired to the identity's producer.
/// Then each `Bmm(transpose_b) → Softmax → Bmm` attention subgraph is
/// fused into one [`Op::Attention`] node, and every input nothing reads
/// is pruned. The survivors keep their topological order, renumbered
/// densely.
///
/// # Errors
///
/// Returns [`IrError`] when the cleanup leaves something that is not a
/// valid model (typically [`IrError::MissingInput`] for a graph with no
/// compute nodes left). Callers importing untrusted `.onnx` graphs
/// should surface this instead of assuming success.
pub fn normalize(graph: &Graph) -> Result<Graph, IrError> {
    let order = graph.topo_order();
    let mut nodes = graph.nodes().to_vec();
    let mut keep = vec![true; nodes.len()];
    // Where an edge into each node lands: in topological order an
    // identity's producer is already resolved, so chains splice too.
    let mut target: Vec<NodeId> = (0..nodes.len()).map(NodeId).collect();
    for &id in &order {
        let n = &mut nodes[id.0];
        for i in &mut n.inputs {
            *i = target[i.0];
        }
        if matches!(n.op, Op::Dropout | Op::BatchNorm) {
            target[id.0] = n.inputs[0];
            keep[id.0] = false;
        }
    }
    let mut consumers = vec![Vec::new(); nodes.len()];
    for &id in order.iter().filter(|id| keep[id.0]) {
        for &i in &nodes[id.0].inputs {
            consumers[i.0].push(id);
        }
    }
    fuse_attention(&mut nodes, &order, &consumers, &mut keep);
    // Every node but an input is an output or feeds one, and fusion
    // moves `Q` and `K` to the fused node, so the dead nodes are the
    // inputs nothing reads once the identities are spliced out.
    for (n, read) in nodes.iter().zip(&consumers) {
        if matches!(n.op, Op::Input { .. }) && read.is_empty() {
            keep[n.id.0] = false;
        }
    }
    let survivors: Vec<NodeId> = order.into_iter().filter(|id| keep[id.0]).collect();
    Graph::from_nodes(graph.name(), renumber(nodes, &survivors))
}

/// Fuses each `Bmm(transpose_b) → Softmax → Bmm` attention subgraph of
/// the spliced node list into a single [`Op::Attention`] node, taking
/// the score product and the softmax out of `keep`.
///
/// The pattern is matched structurally, in topological `order`: a
/// scaled score product `Q·Kᵀ` whose *only* consumer is a softmax,
/// whose *only* consumer is the context product against `V`, with `Q`,
/// `K` and `V` sharing one `[seq, hidden]` shape and none of them taken
/// by an earlier fusion. The fused node is the context product's
/// (it produces the same tensor) and is single-headed — the VFU cost
/// model depends only on `seq` and `hidden`, not the head split.
fn fuse_attention(
    nodes: &mut [Node],
    order: &[NodeId],
    consumers: &[Vec<NodeId>],
    keep: &mut [bool],
) {
    for &id in order {
        let Op::Bmm(b) = &nodes[id.0].op else {
            continue;
        };
        let [sm] = consumers[id.0][..] else { continue };
        if !b.transpose_b || !matches!(nodes[sm.0].op, Op::Softmax) {
            continue;
        }
        let [ctx] = consumers[sm.0][..] else { continue };
        let Op::Bmm(cb) = &nodes[ctx.0].op else {
            continue;
        };
        if cb.transpose_b || nodes[ctx.0].inputs[0] != sm {
            continue;
        }
        let qkv = vec![
            nodes[id.0].inputs[0],
            nodes[id.0].inputs[1],
            nodes[ctx.0].inputs[1],
        ];
        if nodes[qkv[2].0].output_shape != nodes[qkv[0].0].output_shape
            || qkv.iter().any(|i| !keep[i.0])
        {
            continue;
        }
        nodes[ctx.0].op = Op::Attention(Attention { heads: 1 });
        nodes[ctx.0].inputs = qkv;
        keep[id.0] = false;
        keep[sm.0] = false;
    }
}

/// Keeps the nodes `order` lists, renumbered densely in that order. An
/// input naming a node left out maps out of range, which
/// [`Graph::from_nodes`] refuses.
fn renumber(nodes: Vec<Node>, order: &[NodeId]) -> Vec<Node> {
    let mut new_id = vec![NodeId(order.len()); nodes.len()];
    for (i, id) in order.iter().enumerate() {
        new_id[id.0] = NodeId(i);
    }
    let mut kept: Vec<Node> = nodes
        .into_iter()
        .filter(|n| new_id[n.id.0].0 < order.len())
        .collect();
    for n in &mut kept {
        n.id = new_id[n.id.0];
        for i in &mut n.inputs {
            *i = new_id[i.0];
        }
    }
    kept.sort_unstable_by_key(|n| n.id);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn dropout_is_spliced_out() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let d = b.dropout("drop", c).unwrap();
        let _r = b.relu("r", d).unwrap();
        let g = b.finish().unwrap();
        let g2 = normalize(&g).unwrap();
        assert_eq!(g2.node_count(), 3);
        let r = g2.node_by_name("r").unwrap();
        let c = g2.node_by_name("c").unwrap();
        assert_eq!(g2.predecessors(r.id), &[c.id]);
    }

    #[test]
    fn chained_identities_resolve_transitively() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let d1 = b.dropout("d1", c).unwrap();
        let d2 = b.dropout("d2", d1).unwrap();
        let _r = b.relu("r", d2).unwrap();
        let g = b.finish().unwrap();
        let g2 = normalize(&g).unwrap();
        assert_eq!(g2.node_count(), 3);
        assert!(g2.validate().is_ok());
    }

    #[test]
    fn batch_norm_folds_into_producer() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let bn = b.batch_norm("bn", c).unwrap();
        let _r = b.relu("r", bn).unwrap();
        let g = b.finish().unwrap();
        let g2 = normalize(&g).unwrap();
        assert!(g2.node_by_name("bn").is_none());
        assert_eq!(g2.node_count(), 3);
    }

    #[test]
    fn dead_branches_are_pruned() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        // Dead side branch: never consumed downstream of relu.
        let _dead = b.conv2d("dead", x, 2, (1, 1), (1, 1), (0, 0)).unwrap();
        let _r = b.relu("r", c).unwrap();
        let g = b.finish().unwrap();
        // Both `dead` and `r` are sinks; dead-node elimination keeps all
        // non-input sinks, so nothing is removed here...
        let g2 = normalize(&g).unwrap();
        assert_eq!(g2.node_count(), 4);
        // ...but an orphaned input disappears.
        let mut b = GraphBuilder::new("t2");
        let _orphan = b.input("unused", [1, 1, 1]);
        let x = b.input("x", [4, 8, 8]);
        let _c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let g2 = normalize(&g).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert!(g2.node_by_name("unused").is_none());
    }

    #[test]
    fn normalize_pipeline_is_idempotent() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let bn = b.batch_norm("bn", c).unwrap();
        let d = b.dropout("d", bn).unwrap();
        let _r = b.relu("r", d).unwrap();
        let g = b.finish().unwrap();
        let once = normalize(&g).unwrap();
        let twice = normalize(&once).unwrap();
        assert_eq!(once, twice);
    }

    /// Builds the raw (unfused) attention subgraph over a symbolic
    /// `[seq, 64]` stream: q/k/v projections, scores, softmax, context.
    fn raw_attention_graph() -> Graph {
        let mut b = GraphBuilder::new("attn");
        let x = b.input_seq("x", 64);
        let q = b.matmul("q", x, 64).unwrap();
        let k = b.matmul("k", x, 64).unwrap();
        let v = b.matmul("v", x, 64).unwrap();
        let s = b.bmm("scores", q, k, true, true).unwrap();
        let sm = b.softmax("probs", s).unwrap();
        let _ctx = b.bmm("ctx", sm, v, false, false).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn attention_pattern_is_fused() {
        let g = raw_attention_graph();
        let fused = normalize(&g).unwrap();
        // scores + softmax disappear, ctx becomes the fused node.
        assert_eq!(fused.node_count(), g.node_count() - 2);
        let ctx = fused.node_by_name("ctx").unwrap();
        assert!(matches!(ctx.op, Op::Attention(_)));
        assert_eq!(ctx.inputs.len(), 3);
        assert!(fused.node_by_name("scores").is_none());
        assert!(fused.node_by_name("probs").is_none());
        // Output shape is preserved.
        assert_eq!(
            ctx.output_shape,
            g.node_by_name("ctx").unwrap().output_shape
        );
    }

    #[test]
    fn normalize_is_identity_without_the_pattern() {
        let mut b = GraphBuilder::new("cnn");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let _r = b.relu("r", c).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(normalize(&g).unwrap(), g);
    }

    #[test]
    fn softmax_with_extra_consumer_blocks_fusion() {
        let mut b = GraphBuilder::new("attn");
        let x = b.input_seq("x", 64);
        let q = b.matmul("q", x, 64).unwrap();
        let k = b.matmul("k", x, 64).unwrap();
        let v = b.matmul("v", x, 64).unwrap();
        let s = b.bmm("scores", q, k, true, true).unwrap();
        let sm = b.softmax("probs", s).unwrap();
        let _ctx = b.bmm("ctx", sm, v, false, false).unwrap();
        // Second consumer of the softmax: pattern must not fuse.
        let _ln = b.layer_norm("tap", sm).unwrap();
        let g = b.finish().unwrap();
        let out = normalize(&g).unwrap();
        assert_eq!(out, g);
    }

    #[test]
    fn bind_seq_len_fixes_every_shape() {
        let g = raw_attention_graph();
        assert!(g.has_symbolic_dims());
        let bound = bind_seq_len(&g, 16).unwrap();
        assert!(!bound.has_symbolic_dims());
        let ctx = bound.node_by_name("ctx").unwrap();
        assert_eq!(ctx.output_shape, Shape::new([16usize, 64]));
        let scores = bound.node_by_name("scores").unwrap();
        assert_eq!(scores.output_shape, Shape::new([16usize, 16]));
        // Different binding, different shapes; same graph otherwise.
        let bound2 = bind_seq_len(&g, 32).unwrap();
        assert_eq!(
            bound2.node_by_name("scores").unwrap().output_shape,
            Shape::new([32usize, 32])
        );
    }

    #[test]
    fn bind_seq_len_is_identity_on_fixed_graphs() {
        let mut b = GraphBuilder::new("cnn");
        let x = b.input("x", [4, 8, 8]);
        let _c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(bind_seq_len(&g, 128).unwrap(), g);
    }

    #[test]
    fn bind_seq_len_rejects_zero() {
        let g = raw_attention_graph();
        let err = bind_seq_len(&g, 0).unwrap_err();
        assert!(matches!(err, IrError::InvalidAttribute { .. }));
    }

    /// Regression: an imported graph whose only compute node is a
    /// dropout collapses to a lone orphaned input under normalize; this
    /// used to panic (`expect` on `Graph::from_nodes` hitting
    /// `MissingInput`) instead of returning an error.
    #[test]
    fn normalize_reports_graphs_that_collapse_to_nothing() {
        let mut b = GraphBuilder::new("dropout-only");
        let x = b.input("x", [4, 8, 8]);
        let _d = b.dropout("drop", x).unwrap();
        let g = b.finish().unwrap();
        // Dropout removal leaves only the input, which dead-node
        // elimination prunes as an orphaned sink, leaving nothing to
        // compile. That is an error, not a panic.
        let err = normalize(&g).unwrap_err();
        assert_eq!(err, crate::IrError::MissingInput);
    }

    /// `normalize` builds one graph whatever it rewrites: vgg16 splices
    /// dropouts, resnet18 folds batch norms, and tiny_bert bound at 16
    /// fuses attention.
    #[test]
    fn normalize_validates_once() {
        use crate::graph::tests::FROM_NODES;
        use crate::models;
        let bert = bind_seq_len(&models::tiny_bert(), 16).unwrap();
        for g in [models::vgg16(), models::resnet18(), bert] {
            FROM_NODES.with(|n| n.set(0));
            normalize(&g).unwrap();
            assert_eq!(FROM_NODES.with(std::cell::Cell::get), 1, "{}", g.name());
        }
    }
}
