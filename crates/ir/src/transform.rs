//! Graph normalization passes executed before compilation.
//!
//! The paper's front end parses ONNX and hands the backend a clean node
//! list; these passes perform the cleanup a real front end does:
//! batch-norm folding (resnet/inception export BN separately), dropout
//! elimination, and dead-node elimination.

use crate::graph::{Graph, Node, NodeId};
use crate::op::Attention;
use crate::shape_infer::infer_output_shape;
use crate::{IrError, Op, Shape};
use std::collections::{HashMap, HashSet};

/// Removes `Dropout` nodes (identity at inference), rewiring consumers to
/// the dropout's producer.
///
/// # Errors
///
/// Returns [`IrError`] when the spliced graph no longer forms a valid
/// model — e.g. [`IrError::MissingInput`] when removal leaves no nodes.
/// Every error here is reachable from an imported graph, never from a
/// well-formed model zoo network.
pub(crate) fn eliminate_dropout(graph: &Graph) -> Result<Graph, IrError> {
    remove_identity_nodes(graph, |n| matches!(n.op, Op::Dropout))
}

/// Folds `BatchNorm` nodes into the scale/shift of their producer; for
/// compilation purposes this means deleting the node, since affine
/// parameters ride along with the convolution weights on the crossbars.
///
/// # Errors
///
/// Returns [`IrError`] when the spliced graph no longer forms a valid
/// model (see [`eliminate_dropout`]).
pub(crate) fn fold_batch_norm(graph: &Graph) -> Result<Graph, IrError> {
    remove_identity_nodes(graph, |n| matches!(n.op, Op::BatchNorm))
}

/// Removes nodes whose output is never consumed and which are not graph
/// outputs of interest (conservatively: keeps every sink that is not an
/// orphaned `Input`).
///
/// # Errors
///
/// Returns [`IrError::MissingInput`] when nothing survives — an imported
/// graph whose only compute is dropout/BN collapses to bare inputs,
/// which are then orphaned sinks and pruned here.
pub(crate) fn eliminate_dead_nodes(graph: &Graph) -> Result<Graph, IrError> {
    // Mark everything reachable walking backwards from sinks.
    let mut live: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = graph
        .outputs()
        .filter(|&id| !matches!(graph.node(id).op, Op::Input { .. }))
        .collect();
    while let Some(id) = stack.pop() {
        if live.insert(id) {
            stack.extend(graph.predecessors(id).iter().copied());
        }
    }
    rebuild_subset(graph, |id| live.contains(&id))
}

/// Fuses the `Bmm(transpose_b) → Softmax → Bmm` attention subgraph into a
/// single [`Op::Attention`] node.
///
/// The pattern is matched structurally: a scaled score product
/// `Q·Kᵀ` whose *only* consumer is a softmax, whose *only* consumer is
/// the context product against `V`, with `Q`, `K` and `V` sharing one
/// `[seq, hidden]` shape. The fused node keeps the context product's
/// name (it produces the same tensor) and is created single-headed —
/// the VFU cost model depends only on `seq` and `hidden`, not the head
/// split. Graphs without the pattern are returned unchanged.
///
/// # Errors
///
/// Returns [`IrError`] when the rebuilt graph fails validation — only
/// reachable from a malformed input graph.
pub fn fuse_attention(graph: &Graph) -> Result<Graph, IrError> {
    // ctx id -> (scores id, softmax id, q, k, v)
    let mut fused: HashMap<NodeId, (NodeId, NodeId, NodeId, NodeId, NodeId)> = HashMap::new();
    let mut consumed: HashSet<NodeId> = HashSet::new();
    for id in graph.topo_order() {
        let scores = graph.node(id);
        let Op::Bmm(b) = &scores.op else { continue };
        if !b.transpose_b || graph.successors(id).len() != 1 {
            continue;
        }
        let sm_id = graph.successors(id)[0];
        if !matches!(graph.node(sm_id).op, Op::Softmax) || graph.successors(sm_id).len() != 1 {
            continue;
        }
        let ctx_id = graph.successors(sm_id)[0];
        let ctx = graph.node(ctx_id);
        let Op::Bmm(cb) = &ctx.op else { continue };
        if cb.transpose_b || ctx.inputs[0] != sm_id {
            continue;
        }
        let (q, k, v) = (scores.inputs[0], scores.inputs[1], ctx.inputs[1]);
        // Attention requires one shared [seq, hidden] shape; skip the
        // pattern (leave it unfused) when V disagrees with Q/K.
        if graph.node(v).output_shape != graph.node(q).output_shape {
            continue;
        }
        if consumed.contains(&q) || consumed.contains(&k) || consumed.contains(&v) {
            continue;
        }
        fused.insert(ctx_id, (id, sm_id, q, k, v));
        consumed.insert(id);
        consumed.insert(sm_id);
    }
    if fused.is_empty() {
        return Ok(graph.clone());
    }

    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let mut nodes = Vec::new();
    for id in graph.topo_order() {
        if consumed.contains(&id) {
            continue;
        }
        let old = graph.node(id);
        let new_id = NodeId(nodes.len());
        remap.insert(id, new_id);
        let map_inputs = |ins: &[NodeId]| -> Result<Vec<NodeId>, IrError> {
            ins.iter()
                .map(|i| {
                    remap
                        .get(i)
                        .copied()
                        .ok_or(IrError::UnknownNode { id: i.0 })
                })
                .collect()
        };
        let (op, inputs) = match fused.get(&id) {
            Some(&(_, _, q, k, v)) => (
                Op::Attention(Attention { heads: 1 }),
                map_inputs(&[q, k, v])?,
            ),
            None => (old.op.clone(), map_inputs(&old.inputs)?),
        };
        nodes.push(Node {
            id: new_id,
            name: old.name.clone(),
            op,
            inputs,
            output_shape: old.output_shape.clone(),
        });
    }
    Graph::from_nodes(graph.name(), nodes)
}

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

/// Runs the standard pre-compilation pipeline:
/// dropout elimination → batch-norm folding → attention fusion →
/// dead-node elimination.
///
/// # Errors
///
/// Returns [`IrError`] when a pass reduces the graph to something that
/// is not a valid model (typically [`IrError::MissingInput`] for a
/// graph with no compute nodes left). Callers importing untrusted
/// `.onnx` graphs should surface this instead of assuming success.
pub fn normalize(graph: &Graph) -> Result<Graph, IrError> {
    eliminate_dead_nodes(&fuse_attention(&fold_batch_norm(&eliminate_dropout(
        graph,
    )?)?)?)
}

/// Removes all single-input nodes matching `pred`, splicing consumers to
/// the removed node's producer.
fn remove_identity_nodes(graph: &Graph, pred: impl Fn(&Node) -> bool) -> Result<Graph, IrError> {
    // Resolve each removed node to its surviving ancestor.
    let mut forward: HashMap<NodeId, NodeId> = HashMap::new();
    for id in graph.topo_order() {
        let n = graph.node(id);
        if pred(n) && n.inputs.len() == 1 {
            let src = n.inputs[0];
            let resolved = *forward.get(&src).unwrap_or(&src);
            forward.insert(id, resolved);
        }
    }
    rebuild_with_remap(graph, &forward)
}

/// Rebuilds the graph keeping only nodes for which `keep` holds,
/// renumbering ids densely.
fn rebuild_subset(graph: &Graph, keep: impl Fn(NodeId) -> bool) -> Result<Graph, IrError> {
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let mut nodes = Vec::new();
    for id in graph.topo_order() {
        if !keep(id) {
            continue;
        }
        let old = graph.node(id);
        let new_id = NodeId(nodes.len());
        remap.insert(id, new_id);
        let mut inputs = Vec::with_capacity(old.inputs.len());
        for i in &old.inputs {
            // A kept node referencing a dropped one means the keep set
            // is not closed under predecessors — a malformed graph, not
            // a programming error worth a panic.
            inputs.push(*remap.get(i).ok_or(IrError::UnknownNode { id: i.0 })?);
        }
        nodes.push(Node {
            id: new_id,
            name: old.name.clone(),
            op: old.op.clone(),
            inputs,
            output_shape: old.output_shape.clone(),
        });
    }
    Graph::from_nodes(graph.name(), nodes)
}

/// Rebuilds the graph dropping the keys of `forward`, rewiring any edge
/// into a dropped node to its resolved ancestor.
fn rebuild_with_remap(graph: &Graph, forward: &HashMap<NodeId, NodeId>) -> Result<Graph, IrError> {
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let mut nodes = Vec::new();
    for id in graph.topo_order() {
        if forward.contains_key(&id) {
            continue;
        }
        let old = graph.node(id);
        let new_id = NodeId(nodes.len());
        remap.insert(id, new_id);
        let mut inputs = Vec::with_capacity(old.inputs.len());
        for i in &old.inputs {
            let resolved = forward.get(i).unwrap_or(i);
            inputs.push(
                *remap
                    .get(resolved)
                    .ok_or(IrError::UnknownNode { id: resolved.0 })?,
            );
        }
        nodes.push(Node {
            id: new_id,
            name: old.name.clone(),
            op: old.op.clone(),
            inputs,
            output_shape: old.output_shape.clone(),
        });
    }
    Graph::from_nodes(graph.name(), nodes)
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
        let g2 = eliminate_dropout(&g).unwrap();
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
        let g2 = eliminate_dropout(&g).unwrap();
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
        let g2 = fold_batch_norm(&g).unwrap();
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
        let g2 = eliminate_dead_nodes(&g).unwrap();
        assert_eq!(g2.node_count(), 4);
        // ...but an orphaned input disappears.
        let mut b = GraphBuilder::new("t2");
        let _orphan = b.input("unused", [1, 1, 1]);
        let x = b.input("x", [4, 8, 8]);
        let _c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let g2 = eliminate_dead_nodes(&g).unwrap();
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
        let fused = fuse_attention(&g).unwrap();
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
    fn fuse_attention_is_identity_without_the_pattern() {
        let mut b = GraphBuilder::new("cnn");
        let x = b.input("x", [4, 8, 8]);
        let c = b.conv2d("c", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let _r = b.relu("r", c).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(fuse_attention(&g).unwrap(), g);
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
        let out = fuse_attention(&g).unwrap();
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
        // Dropout removal leaves only the input...
        let spliced = eliminate_dropout(&g).unwrap();
        assert_eq!(spliced.node_count(), 1);
        // ...which dead-node elimination prunes as an orphaned sink,
        // leaving nothing to compile. That is an error, not a panic.
        let err = normalize(&g).unwrap_err();
        assert_eq!(err, crate::IrError::MissingInput);
    }
}
