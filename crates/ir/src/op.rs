//! Operator definitions.
//!
//! The operator set mirrors what the paper's benchmark networks need:
//! convolution and fully connected layers (the MVM producers mapped onto
//! crossbars), pooling, activation, element-wise, concat and a handful of
//! shape/normalization utilities handled by the VFU or local memory.

use serde::{Deserialize, Serialize};
use std::fmt;

/// 2-D convolution attributes.
///
/// Kernel, stride and padding are `(height, width)` pairs so that the
/// factorized 1×7 / 7×1 convolutions of inception-v3 are representable.
/// Padding is symmetric per dimension (pad `p` adds `p` rows/columns on
/// both sides), matching the benchmark networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2d {
    /// Input channel count `Cin`.
    pub in_channels: usize,
    /// Output channel count `Cout`.
    pub out_channels: usize,
    /// Kernel size `(kh, kw)`.
    pub kernel: (usize, usize),
    /// Stride `(sh, sw)`.
    pub stride: (usize, usize),
    /// Symmetric padding `(ph, pw)`.
    pub padding: (usize, usize),
    /// Channel groups (1 for all paper benchmarks; kept for generality).
    pub groups: usize,
    /// Whether a bias vector is added (handled by the VFU).
    pub bias: bool,
}

impl Conv2d {
    /// Height of the unfolded weight matrix: `kh * kw * Cin / groups`.
    ///
    /// This is the row count the node-partitioning stage slices into
    /// crossbar-height Array Groups (paper Fig. 4).
    pub fn weight_matrix_height(&self) -> usize {
        self.kernel.0 * self.kernel.1 * self.in_channels / self.groups
    }

    /// Width of the unfolded weight matrix: `Cout`.
    pub fn weight_matrix_width(&self) -> usize {
        self.out_channels
    }

    /// Total weight element count.
    pub(crate) fn weight_count(&self) -> usize {
        self.weight_matrix_height() * self.weight_matrix_width() * self.groups
    }
}

/// Fully connected (`Gemm` in ONNX) attributes.
///
/// Treated as a 1×1 convolution over a 1×1 feature map by the
/// node-partitioning stage (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Linear {
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
    /// Whether a bias vector is added.
    pub bias: bool,
}

impl Linear {
    /// Height of the weight matrix (`in_features`).
    pub fn weight_matrix_height(&self) -> usize {
        self.in_features
    }

    /// Width of the weight matrix (`out_features`).
    pub fn weight_matrix_width(&self) -> usize {
        self.out_features
    }
}

/// Weight-stationary matrix multiply applied per row of a token stream
/// (`[.., in] @ W[in, out] -> [.., out]`).
///
/// The weight matrix is mapped onto crossbars exactly like a fully
/// connected layer — the only difference is that every leading-dimension
/// row (e.g. every sequence position) streams through the same arrays,
/// so the operator produces `seq` windows instead of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatMul {
    /// Contraction width (rows of the stationary weight matrix).
    pub in_features: usize,
    /// Output width (columns of the stationary weight matrix).
    pub out_features: usize,
    /// Whether a bias vector is added (handled by the VFU).
    pub bias: bool,
}

impl MatMul {
    /// Height of the weight matrix (`in_features`).
    pub fn weight_matrix_height(&self) -> usize {
        self.in_features
    }

    /// Width of the weight matrix (`out_features`).
    pub fn weight_matrix_width(&self) -> usize {
        self.out_features
    }
}

/// Activation-by-activation matrix multiply (`A @ B`), executed by the
/// VFU — neither operand is a stationary weight, so nothing is mapped
/// onto crossbars (attention score and context products).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bmm {
    /// Multiply by `B`ᵀ instead of `B` (the Q·Kᵀ score product).
    pub transpose_b: bool,
    /// Scale the product by `1/sqrt(k)` where `k` is the contraction
    /// width (scaled dot-product attention).
    pub scaled: bool,
}

/// Fused scaled-dot-product attention over `(Q, K, V)` token streams.
///
/// Built by [`transform::normalize`](crate::transform::normalize) from
/// the `Bmm(transpose_b) → Softmax → Bmm` subgraph; executed by the VFU
/// with cost `2·s·d + s` multiply-accumulates per query row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attention {
    /// Number of attention heads (`hidden % heads == 0`).
    pub heads: usize,
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// 2-D pooling attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pool {
    /// Max or average.
    pub kind: PoolKind,
    /// Kernel size `(kh, kw)`.
    pub kernel: (usize, usize),
    /// Stride `(sh, sw)`.
    pub stride: (usize, usize),
    /// Symmetric padding `(ph, pw)`.
    pub padding: (usize, usize),
    /// Use ceiling instead of floor when computing the output extent
    /// (googlenet's 3×3/2 pools use ceil mode).
    pub ceil_mode: bool,
}

/// Activation function applied element-wise by the VFU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit (transformer feed-forward blocks).
    Gelu,
}

/// Element-wise binary combination of equally-shaped inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EltwiseKind {
    /// Element-wise addition (resnet shortcut joins).
    Add,
    /// Element-wise multiplication.
    Mul,
}

/// Local response normalization (googlenet stem).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Lrn {
    /// Neighbourhood size across channels.
    pub size: usize,
    /// Scale parameter α.
    pub alpha: f64,
    /// Exponent β.
    pub beta: f64,
}

/// Standalone zero-padding of a feature map (handled in local memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pad2d {
    /// Rows added on both top and bottom.
    pub height: usize,
    /// Columns added on both left and right.
    pub width: usize,
}

/// A graph operator.
///
/// Operators fall into the paper's execution-model classes:
///
/// * **MVM producers** mapped onto PIM crossbars: [`Op::Conv2d`],
///   [`Op::Linear`], [`Op::MatMul`].
/// * **VFU vector operations**: pooling, activation, element-wise, LRN,
///   batch-norm, softmax, layer-norm, activation-matmul, attention.
/// * **Local-memory data movement**: concat, flatten, pad, transpose,
///   reshape (no arithmetic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Op {
    /// Graph input carrying the initial feature map.
    Input {
        /// Shape of the input feature.
        shape: crate::Shape,
    },
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully connected layer.
    Linear(Linear),
    /// Max/average pooling.
    Pool(Pool),
    /// Global average pooling (spatial extent collapses to 1×1).
    GlobalAvgPool,
    /// Element-wise activation.
    Activation(Activation),
    /// Channel-axis concatenation of two or more inputs.
    Concat,
    /// Element-wise binary combination.
    Eltwise(EltwiseKind),
    /// Collapse `[C, H, W]` into `[C*H*W]`.
    Flatten,
    /// Softmax over the feature axis.
    Softmax,
    /// Batch normalization (foldable into the preceding convolution).
    BatchNorm,
    /// Dropout (identity at inference time; removable).
    Dropout,
    /// Local response normalization.
    Lrn(Lrn),
    /// Standalone zero padding.
    Pad(Pad2d),
    /// Weight-stationary per-row matrix multiply (crossbar-mapped).
    MatMul(MatMul),
    /// Activation-by-activation matrix multiply (VFU).
    Bmm(Bmm),
    /// Layer normalization over the feature axis.
    LayerNorm,
    /// Swap the last two dimensions (local-memory data movement).
    Transpose,
    /// Reinterpret the element stream under a new shape.
    Reshape {
        /// Target shape (must preserve the element count).
        shape: crate::Shape,
    },
    /// Fused scaled-dot-product attention over `(Q, K, V)`.
    Attention(Attention),
}

impl Op {
    /// Short lower-case mnemonic (stable; used in reports and traces).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Conv2d(_) => "conv",
            Op::Linear(_) => "fc",
            Op::Pool(p) => match p.kind {
                PoolKind::Max => "maxpool",
                PoolKind::Avg => "avgpool",
            },
            Op::GlobalAvgPool => "gap",
            Op::Activation(a) => match a {
                Activation::Relu => "relu",
                Activation::Sigmoid => "sigmoid",
                Activation::Tanh => "tanh",
                Activation::Gelu => "gelu",
            },
            Op::Concat => "concat",
            Op::Eltwise(e) => match e {
                EltwiseKind::Add => "add",
                EltwiseKind::Mul => "mul",
            },
            Op::Flatten => "flatten",
            Op::Softmax => "softmax",
            Op::BatchNorm => "batchnorm",
            Op::Dropout => "dropout",
            Op::Lrn(_) => "lrn",
            Op::Pad(_) => "pad",
            Op::MatMul(_) => "matmul",
            Op::Bmm(_) => "bmm",
            Op::LayerNorm => "layernorm",
            Op::Transpose => "transpose",
            Op::Reshape { .. } => "reshape",
            Op::Attention(_) => "attention",
        }
    }

    /// `true` for operators whose weights are mapped onto crossbars and
    /// which therefore go through node partitioning / replication
    /// (convolution, fully connected, and weight-stationary matmul).
    pub fn is_mvm(&self) -> bool {
        matches!(self, Op::Conv2d(_) | Op::Linear(_) | Op::MatMul(_))
    }

    /// The `(height, width)` of the stationary weight matrix an MVM
    /// operator maps onto crossbars (the unfolded matrix the
    /// node-partitioning stage slices); `None` for non-MVM operators.
    /// Functional kernels synthesize and index weights by exactly this
    /// geometry.
    pub fn weight_matrix(&self) -> Option<(usize, usize)> {
        match self {
            Op::Conv2d(c) => Some((c.weight_matrix_height(), c.weight_matrix_width())),
            Op::Linear(l) => Some((l.weight_matrix_height(), l.weight_matrix_width())),
            Op::MatMul(m) => Some((m.weight_matrix_height(), m.weight_matrix_width())),
            _ => None,
        }
    }

    /// Whether an MVM operator adds a bias vector (one element per
    /// weight-matrix column, applied by the VFU after accumulation);
    /// `None` for non-MVM operators.
    pub fn has_bias(&self) -> Option<bool> {
        match self {
            Op::Conv2d(c) => Some(c.bias),
            Op::Linear(l) => Some(l.bias),
            Op::MatMul(m) => Some(m.bias),
            _ => None,
        }
    }

    /// Number of inputs this operator requires; `None` when variadic
    /// (concat accepts two or more).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Input { .. } => Some(0),
            Op::Eltwise(_) | Op::Bmm(_) => Some(2),
            Op::Attention(_) => Some(3),
            Op::Concat => None,
            _ => Some(1),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_weight_matrix_dims() {
        let c = Conv2d {
            in_channels: 64,
            out_channels: 128,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            groups: 1,
            bias: true,
        };
        assert_eq!(c.weight_matrix_height(), 3 * 3 * 64);
        assert_eq!(c.weight_matrix_width(), 128);
        assert_eq!(c.weight_count(), 9 * 64 * 128);
    }

    #[test]
    fn asymmetric_kernel_weight_matrix() {
        let c = Conv2d {
            in_channels: 128,
            out_channels: 192,
            kernel: (1, 7),
            stride: (1, 1),
            padding: (0, 3),
            groups: 1,
            bias: false,
        };
        assert_eq!(c.weight_matrix_height(), 7 * 128);
    }

    #[test]
    fn grouped_conv_divides_height() {
        let c = Conv2d {
            in_channels: 64,
            out_channels: 64,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            groups: 2,
            bias: false,
        };
        assert_eq!(c.weight_matrix_height(), 9 * 32);
    }

    #[test]
    fn arity_of_common_ops() {
        assert_eq!(Op::Eltwise(EltwiseKind::Add).arity(), Some(2));
        assert_eq!(Op::Concat.arity(), None);
        assert_eq!(Op::Flatten.arity(), Some(1));
        assert_eq!(
            Op::Bmm(Bmm {
                transpose_b: false,
                scaled: false
            })
            .arity(),
            Some(2)
        );
        assert_eq!(Op::Attention(Attention { heads: 4 }).arity(), Some(3));
        assert_eq!(
            Op::Input {
                shape: crate::Shape::flat(1)
            }
            .arity(),
            Some(0)
        );
    }
}
