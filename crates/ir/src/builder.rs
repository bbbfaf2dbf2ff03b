//! Ergonomic graph construction with on-the-fly shape inference.

use crate::graph::{Graph, Node, NodeId};
use crate::op::{
    Activation, Attention, Bmm, Conv2d, EltwiseKind, Linear, Lrn, MatMul, Op, Pad2d, Pool, PoolKind,
};
use crate::shape_infer::infer_output_shape;
use crate::{Dim, IrError, Shape};
use std::collections::HashSet;

/// Incrementally builds a validated [`Graph`].
///
/// Every `add`-style method performs shape inference immediately, so
/// errors surface at the offending layer rather than at `finish`.
///
/// # Example
///
/// ```
/// use pimcomp_ir::GraphBuilder;
///
/// # fn main() -> Result<(), pimcomp_ir::IrError> {
/// let mut b = GraphBuilder::new("lenet-ish");
/// let x = b.input("x", [1, 28, 28]);
/// let c1 = b.conv2d("c1", x, 6, (5, 5), (1, 1), (2, 2))?;
/// let r1 = b.relu("r1", c1)?;
/// let p1 = b.max_pool("p1", r1, (2, 2), (2, 2), (0, 0))?;
/// let f = b.flatten("flat", p1)?;
/// let fc = b.linear("fc", f, 10)?;
/// let sm = b.softmax("sm", fc)?;
/// let g = b.finish()?;
/// assert_eq!(g.node(sm).output_shape.numel(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
    names: HashSet<String>,
}

impl GraphBuilder {
    /// Starts an empty graph with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
            names: HashSet::new(),
        }
    }

    /// Output shape of an already-added node.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this builder. Fallible
    /// callers should use [`GraphBuilder::try_shape`] instead.
    pub fn shape(&self, id: NodeId) -> &Shape {
        &self.nodes[id.index()].output_shape
    }

    /// Output shape of an already-added node, or
    /// [`IrError::UnknownNode`] when `id` does not belong to this
    /// builder (e.g. a `NodeId` obtained from a different
    /// `GraphBuilder`). The shape-inferring helpers (`conv2d`,
    /// `linear`) go through this check, so a stale or foreign id
    /// surfaces as the builder's error type instead of a panic.
    ///
    /// # Errors
    ///
    /// [`IrError::UnknownNode`] for an out-of-range id.
    pub fn try_shape(&self, id: NodeId) -> Result<&Shape, IrError> {
        self.nodes
            .get(id.index())
            .map(|n| &n.output_shape)
            .ok_or(IrError::UnknownNode { id: id.index() })
    }

    /// Adds a graph input with shape `[C, H, W]` (or `[F]` via
    /// [`GraphBuilder::input_flat`]).
    pub fn input(&mut self, name: impl Into<String>, chw: [usize; 3]) -> NodeId {
        let shape = Shape::chw(chw[0], chw[1], chw[2]);
        self.push_unchecked(
            name.into(),
            Op::Input {
                shape: shape.clone(),
            },
            vec![],
            shape,
        )
    }

    /// Adds a flat graph input of `features` elements.
    pub fn input_flat(&mut self, name: impl Into<String>, features: usize) -> NodeId {
        let shape = Shape::flat(features);
        self.push_unchecked(
            name.into(),
            Op::Input {
                shape: shape.clone(),
            },
            vec![],
            shape,
        )
    }

    /// Adds a `[seq, features]` token-stream input with a symbolic
    /// sequence length (bound later by the compile session).
    pub fn input_seq(&mut self, name: impl Into<String>, features: usize) -> NodeId {
        let shape = Shape::seq_features(features);
        self.push_unchecked(
            name.into(),
            Op::Input {
                shape: shape.clone(),
            },
            vec![],
            shape,
        )
    }

    /// Adds an arbitrary operator; the general escape hatch behind the
    /// typed helpers.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures and duplicate-name errors.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: Vec<NodeId>,
    ) -> Result<NodeId, IrError> {
        let name = name.into();
        if self.names.contains(&name) {
            return Err(IrError::DuplicateName { name });
        }
        for &i in &inputs {
            if i.index() >= self.nodes.len() {
                return Err(IrError::UnknownNode { id: i.index() });
            }
        }
        let input_shapes: Vec<&Shape> = inputs
            .iter()
            .map(|&i| &self.nodes[i.index()].output_shape)
            .collect();
        let shape = infer_output_shape(&name, &op, &input_shapes)?;
        Ok(self.push_unchecked(name, op, inputs, shape))
    }

    /// Adds a 2-D convolution with square-or-rectangular kernel.
    ///
    /// The input channel count is taken from the producer's shape.
    ///
    /// # Errors
    ///
    /// Fails if the producer is not a `CxHxW` feature map, the kernel
    /// does not fit, or `input` does not belong to this builder.
    pub fn conv2d(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Result<NodeId, IrError> {
        let in_channels = self.try_shape(input)?.channels();
        self.add(
            name,
            Op::Conv2d(Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                groups: 1,
                bias: true,
            }),
            vec![input],
        )
    }

    /// Adds a fully connected layer; the input feature count is inferred.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or when `input` does not belong to this
    /// builder (the feature count always matches because it is
    /// inferred).
    pub fn linear(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        out_features: usize,
    ) -> Result<NodeId, IrError> {
        let in_features = self.try_shape(input)?.numel();
        self.add(
            name,
            Op::Linear(Linear {
                in_features,
                out_features,
                bias: true,
            }),
            vec![input],
        )
    }

    /// Adds a weight-stationary matrix multiply; the contraction width is
    /// taken from the producer's innermost (feature) dimension.
    ///
    /// # Errors
    ///
    /// Fails when the producer's feature dimension is symbolic, on
    /// duplicate names, or when `input` does not belong to this builder.
    pub fn matmul(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        out_features: usize,
    ) -> Result<NodeId, IrError> {
        let name = name.into();
        let in_features = match self.try_shape(input)?.dims().last() {
            Some(Dim::Fixed(f)) => *f,
            _ => {
                return Err(IrError::ShapeMismatch {
                    node: name,
                    detail: "matmul needs a fixed feature dimension on its input".into(),
                })
            }
        };
        self.add(
            name,
            Op::MatMul(MatMul {
                in_features,
                out_features,
                bias: true,
            }),
            vec![input],
        )
    }

    /// Adds an activation-by-activation matrix multiply (`A @ B`, or
    /// `A @ Bᵀ` when `transpose_b`).
    ///
    /// # Errors
    ///
    /// Fails when the contraction axes disagree or are symbolic.
    pub fn bmm(
        &mut self,
        name: impl Into<String>,
        a: NodeId,
        b: NodeId,
        transpose_b: bool,
        scaled: bool,
    ) -> Result<NodeId, IrError> {
        self.add(
            name,
            Op::Bmm(Bmm {
                transpose_b,
                scaled,
            }),
            vec![a, b],
        )
    }

    /// Adds a layer normalization over the feature axis.
    ///
    /// # Errors
    ///
    /// Fails only on duplicate names.
    pub fn layer_norm(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::LayerNorm, vec![input])
    }

    /// Adds a transpose of the last two dimensions.
    ///
    /// # Errors
    ///
    /// Fails when the input has rank below 2.
    pub fn transpose(&mut self, name: impl Into<String>, input: NodeId) -> Result<NodeId, IrError> {
        self.add(name, Op::Transpose, vec![input])
    }

    /// Adds a reshape to `shape`.
    ///
    /// # Errors
    ///
    /// Fails when the element count is not preserved.
    pub fn reshape(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        shape: Shape,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::Reshape { shape }, vec![input])
    }

    /// Adds a fused scaled-dot-product attention over `(q, k, v)`.
    ///
    /// # Errors
    ///
    /// Fails when the inputs are not three equal `[seq, hidden]` streams
    /// or `heads` does not divide the hidden width.
    pub fn attention(
        &mut self,
        name: impl Into<String>,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        heads: usize,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::Attention(Attention { heads }), vec![q, k, v])
    }

    /// Adds a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Fails if the kernel does not fit the input.
    pub fn max_pool(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Result<NodeId, IrError> {
        self.pool(name, input, PoolKind::Max, kernel, stride, padding, false)
    }

    /// Adds a pooling layer with full attribute control.
    ///
    /// # Errors
    ///
    /// Fails if the kernel does not fit the input.
    #[allow(clippy::too_many_arguments)]
    pub fn pool(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        kind: PoolKind,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        ceil_mode: bool,
    ) -> Result<NodeId, IrError> {
        self.add(
            name,
            Op::Pool(Pool {
                kind,
                kernel,
                stride,
                padding,
                ceil_mode,
            }),
            vec![input],
        )
    }

    /// Adds a global average pool.
    ///
    /// # Errors
    ///
    /// Fails if the producer is not a feature map.
    pub fn global_avg_pool(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::GlobalAvgPool, vec![input])
    }

    /// Adds an activation.
    ///
    /// # Errors
    ///
    /// Fails only on duplicate names.
    pub fn activation(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        act: Activation,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::Activation(act), vec![input])
    }

    /// Adds a ReLU (the activation used by all five paper benchmarks).
    ///
    /// # Errors
    ///
    /// Fails only on duplicate names.
    pub fn relu(&mut self, name: impl Into<String>, input: NodeId) -> Result<NodeId, IrError> {
        self.activation(name, input, Activation::Relu)
    }

    /// Adds a channel concat over two or more producers.
    ///
    /// # Errors
    ///
    /// Fails if fewer than two inputs are given or spatial dims differ.
    pub fn concat(
        &mut self,
        name: impl Into<String>,
        inputs: Vec<NodeId>,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::Concat, inputs)
    }

    /// Adds an element-wise addition (resnet shortcut join).
    ///
    /// # Errors
    ///
    /// Fails if the two inputs have different shapes.
    pub fn eltwise_add(
        &mut self,
        name: impl Into<String>,
        a: NodeId,
        b: NodeId,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::Eltwise(EltwiseKind::Add), vec![a, b])
    }

    /// Adds a flatten.
    ///
    /// # Errors
    ///
    /// Fails only on duplicate names.
    pub fn flatten(&mut self, name: impl Into<String>, input: NodeId) -> Result<NodeId, IrError> {
        self.add(name, Op::Flatten, vec![input])
    }

    /// Adds a softmax.
    ///
    /// # Errors
    ///
    /// Fails only on duplicate names.
    pub fn softmax(&mut self, name: impl Into<String>, input: NodeId) -> Result<NodeId, IrError> {
        self.add(name, Op::Softmax, vec![input])
    }

    /// Adds an inference-time batch-norm node (folded into its producer
    /// by [`transform::normalize`](crate::transform::normalize)).
    ///
    /// # Errors
    ///
    /// Fails only on duplicate names.
    pub fn batch_norm(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::BatchNorm, vec![input])
    }

    /// Adds a dropout node (identity at inference).
    ///
    /// # Errors
    ///
    /// Fails only on duplicate names.
    pub fn dropout(&mut self, name: impl Into<String>, input: NodeId) -> Result<NodeId, IrError> {
        self.add(name, Op::Dropout, vec![input])
    }

    /// Adds a local response normalization.
    ///
    /// # Errors
    ///
    /// Fails when `size` is zero.
    pub fn lrn(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        size: usize,
    ) -> Result<NodeId, IrError> {
        self.add(
            name,
            Op::Lrn(Lrn {
                size,
                alpha: 1e-4,
                beta: 0.75,
            }),
            vec![input],
        )
    }

    /// Adds a standalone zero-padding node.
    ///
    /// # Errors
    ///
    /// Fails if the producer is not a feature map.
    pub fn pad(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        height: usize,
        width: usize,
    ) -> Result<NodeId, IrError> {
        self.add(name, Op::Pad(Pad2d { height, width }), vec![input])
    }

    /// Finalizes and validates the graph.
    ///
    /// # Errors
    ///
    /// Propagates any structural invariant violation found by
    /// [`Graph::validate`].
    pub fn finish(self) -> Result<Graph, IrError> {
        Graph::from_nodes(self.name, self.nodes)
    }

    fn push_unchecked(
        &mut self,
        name: String,
        op: Op,
        inputs: Vec<NodeId>,
        output_shape: Shape,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.names.insert(name.clone());
        self.nodes.push(Node {
            id,
            name,
            op,
            inputs,
            output_shape,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_infers_shapes_eagerly() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 32, 32]);
        let c = b.conv2d("c", x, 16, (3, 3), (2, 2), (1, 1)).unwrap();
        assert_eq!(b.shape(c), &Shape::chw(16, 16, 16));
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 8, 8]);
        b.relu("r", x).unwrap();
        let err = b.relu("r", x).unwrap_err();
        assert!(matches!(err, IrError::DuplicateName { .. }));
    }

    #[test]
    fn builder_rejects_bad_shape_at_add_time() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 4, 4]);
        let err = b.conv2d("c", x, 8, (7, 7), (1, 1), (0, 0)).unwrap_err();
        assert!(matches!(err, IrError::ShapeMismatch { .. }));
    }

    #[test]
    fn foreign_node_ids_error_instead_of_panicking() {
        // Ids minted by one builder are meaningless in another; the
        // shape-inferring helpers must surface that as the builder's
        // error type, not an index panic reaching library callers.
        let mut big = GraphBuilder::new("big");
        let x = big.input("x", [3, 8, 8]);
        let r = big.relu("r", x).unwrap();
        let foreign = big.relu("r2", r).unwrap();

        let mut small = GraphBuilder::new("small");
        let _ = small.input("x", [3, 8, 8]);
        assert!(matches!(
            small.conv2d("c", foreign, 8, (3, 3), (1, 1), (1, 1)),
            Err(IrError::UnknownNode { id: 2 })
        ));
        assert!(matches!(
            small.linear("fc", foreign, 10),
            Err(IrError::UnknownNode { id: 2 })
        ));
        assert!(matches!(
            small.try_shape(foreign),
            Err(IrError::UnknownNode { id: 2 })
        ));
        // `add` already validated ids; it must keep doing so.
        assert!(matches!(
            small.relu("r", foreign),
            Err(IrError::UnknownNode { id: 2 })
        ));
    }

    #[test]
    fn linear_from_feature_map_implicitly_flattens() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [512, 7, 7]);
        let fc = b.linear("fc", x, 4096).unwrap();
        assert_eq!(b.shape(fc), &Shape::flat(4096));
        let g = b.finish().unwrap();
        match &g.node(fc).op {
            Op::Linear(l) => assert_eq!(l.in_features, 512 * 7 * 7),
            other => panic!("expected linear, got {other}"),
        }
    }

    #[test]
    fn finish_validates() {
        let mut b = GraphBuilder::new("t");
        let _ = b.input("x", [3, 8, 8]);
        assert!(b.finish().is_ok());
    }
}
