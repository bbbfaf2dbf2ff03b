//! Per-operator output shape inference.

use crate::{Dim, IrError, Op, Shape};

/// Computes one spatial output extent for a sliding-window operator.
///
/// `floor((in + 2*pad - kernel) / stride) + 1`, or the ceiling variant
/// when `ceil_mode` is set (googlenet pools).
pub(crate) fn window_extent(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    ceil_mode: bool,
) -> Option<usize> {
    // Checked: an imported graph can carry a pad near usize::MAX, and
    // `input + 2*pad` must not wrap (or abort in debug builds).
    let padded = pad.checked_mul(2).and_then(|p| input.checked_add(p))?;
    if padded < kernel || stride == 0 {
        return None;
    }
    let span = padded - kernel;
    let out = if ceil_mode {
        span.div_ceil(stride) + 1
    } else {
        span / stride + 1
    };
    Some(out)
}

/// Infers the output shape of `op` given its input shapes.
///
/// `node` is used only for error messages.
///
/// # Errors
///
/// Returns [`IrError::ArityMismatch`] when the wrong number of inputs is
/// supplied, [`IrError::ShapeMismatch`] when an input shape is not
/// acceptable for the operator, and [`IrError::InvalidAttribute`] when an
/// attribute is out of domain (e.g. zero stride).
pub(crate) fn infer_output_shape(node: &str, op: &Op, inputs: &[&Shape]) -> Result<Shape, IrError> {
    let arity_err = |expected: usize| IrError::ArityMismatch {
        node: node.to_string(),
        expected,
        actual: inputs.len(),
    };
    let shape_err = |detail: String| IrError::ShapeMismatch {
        node: node.to_string(),
        detail,
    };
    let attr_err = |detail: String| IrError::InvalidAttribute {
        node: node.to_string(),
        detail,
    };

    match op {
        Op::Input { shape } => {
            if !inputs.is_empty() {
                return Err(arity_err(0));
            }
            Ok(shape.clone())
        }
        Op::Conv2d(c) => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            if !x.is_chw() {
                return Err(shape_err(format!("conv expects CxHxW input, got {x}")));
            }
            if x.channels() != c.in_channels {
                return Err(shape_err(format!(
                    "conv expects {} input channels, got {}",
                    c.in_channels,
                    x.channels()
                )));
            }
            if c.kernel.0 == 0 || c.kernel.1 == 0 {
                return Err(attr_err("kernel must be positive".into()));
            }
            if c.stride.0 == 0 || c.stride.1 == 0 {
                return Err(attr_err("stride must be positive".into()));
            }
            if c.groups == 0 || c.in_channels % c.groups != 0 || c.out_channels % c.groups != 0 {
                return Err(attr_err(format!(
                    "groups {} must divide Cin {} and Cout {}",
                    c.groups, c.in_channels, c.out_channels
                )));
            }
            let h = window_extent(x.height(), c.kernel.0, c.stride.0, c.padding.0, false)
                .ok_or_else(|| {
                    // Saturating: this message must not itself overflow
                    // on the adversarial padding it is reporting.
                    shape_err(format!(
                        "kernel {}x{} larger than padded input {}x{}",
                        c.kernel.0,
                        c.kernel.1,
                        x.height().saturating_add(c.padding.0.saturating_mul(2)),
                        x.width().saturating_add(c.padding.1.saturating_mul(2))
                    ))
                })?;
            let w = window_extent(x.width(), c.kernel.1, c.stride.1, c.padding.1, false)
                .ok_or_else(|| shape_err("kernel wider than padded input".into()))?;
            Ok(Shape::chw(c.out_channels, h, w))
        }
        Op::Linear(l) => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            let numel = x
                .try_numel()
                .ok_or_else(|| shape_err(format!("fc expects a fixed input shape, got {x}")))?;
            if numel != l.in_features {
                return Err(shape_err(format!(
                    "fc expects {} input features, got {numel} ({x})",
                    l.in_features,
                )));
            }
            Ok(Shape::flat(l.out_features))
        }
        Op::Pool(p) => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            if !x.is_chw() {
                return Err(shape_err(format!("pool expects CxHxW input, got {x}")));
            }
            if p.kernel.0 == 0 || p.kernel.1 == 0 {
                return Err(attr_err("kernel must be positive".into()));
            }
            if p.stride.0 == 0 || p.stride.1 == 0 {
                return Err(attr_err("stride must be positive".into()));
            }
            let h = window_extent(x.height(), p.kernel.0, p.stride.0, p.padding.0, p.ceil_mode)
                .ok_or_else(|| shape_err("pool kernel larger than padded input".into()))?;
            let w = window_extent(x.width(), p.kernel.1, p.stride.1, p.padding.1, p.ceil_mode)
                .ok_or_else(|| shape_err("pool kernel larger than padded input".into()))?;
            Ok(Shape::chw(x.channels(), h, w))
        }
        Op::GlobalAvgPool => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            if !x.is_chw() {
                return Err(shape_err(format!("gap expects CxHxW input, got {x}")));
            }
            Ok(Shape::chw(x.channels(), 1, 1))
        }
        Op::Activation(_) | Op::BatchNorm | Op::Dropout | Op::Softmax | Op::LayerNorm => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            Ok(x.clone())
        }
        Op::MatMul(m) => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            match x.dims().last() {
                Some(Dim::Fixed(f)) if *f == m.in_features => {}
                _ => {
                    return Err(shape_err(format!(
                        "matmul expects {} input features on the last axis, got {x}",
                        m.in_features
                    )));
                }
            }
            let mut dims = x.dims().to_vec();
            *dims.last_mut().expect("shape is never empty") = Dim::Fixed(m.out_features);
            Ok(Shape::from_dims(dims))
        }
        Op::Bmm(b) => {
            if inputs.len() != 2 {
                return Err(arity_err(2));
            }
            let (a, bb) = (inputs[0], inputs[1]);
            if a.rank() != 2 || bb.rank() != 2 {
                return Err(shape_err(format!(
                    "bmm expects rank-2 inputs, got {a} and {bb}"
                )));
            }
            // Contraction axis: last of A against last (transposed) or
            // first of B. A symbolic axis contracts against itself
            // (the seq-length context product), so equality of `Dim`s —
            // not fixedness — is what matters here.
            let (contract_a, contract_b, out) = if b.transpose_b {
                (a.dims()[1], bb.dims()[1], [a.dims()[0], bb.dims()[0]])
            } else {
                (a.dims()[1], bb.dims()[0], [a.dims()[0], bb.dims()[1]])
            };
            if contract_a != contract_b {
                return Err(shape_err(format!(
                    "bmm contraction axes must match: {a} vs {bb}{}",
                    if b.transpose_b { " (transposed)" } else { "" }
                )));
            }
            Ok(Shape::from_dims(out.to_vec()))
        }
        Op::Transpose => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            if x.rank() < 2 {
                return Err(shape_err(format!(
                    "transpose expects at least rank-2 input, got {x}"
                )));
            }
            let mut dims = x.dims().to_vec();
            dims.swap(x.rank() - 2, x.rank() - 1);
            Ok(Shape::from_dims(dims))
        }
        Op::Reshape { shape } => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            let seq_count = |s: &Shape| s.dims().iter().filter(|d| matches!(d, Dim::Seq)).count();
            // Checked: the target shape is an attribute, unchecked
            // until its node's extents are.
            let fixed_product = |s: &Shape| {
                let mut fixed = s.dims().iter().filter_map(|d| d.fixed());
                fixed.try_fold(1usize, usize::checked_mul)
            };
            if seq_count(x) != seq_count(shape) || fixed_product(x) != fixed_product(shape) {
                return Err(shape_err(format!(
                    "reshape must preserve the element count: {x} -> {shape}"
                )));
            }
            Ok(shape.clone())
        }
        Op::Attention(at) => {
            if inputs.len() != 3 {
                return Err(arity_err(3));
            }
            let q = inputs[0];
            for x in inputs {
                if x.rank() != 2 || **x != *q {
                    return Err(shape_err(format!(
                        "attention expects three equal rank-2 (seq x hidden) inputs, got {q} vs {x}"
                    )));
                }
            }
            let hidden = match q.dims()[1] {
                Dim::Fixed(h) => h,
                Dim::Seq => {
                    return Err(shape_err(format!(
                        "attention hidden width must be fixed, got {q}"
                    )));
                }
            };
            if at.heads == 0 || hidden % at.heads != 0 {
                return Err(attr_err(format!(
                    "attention heads {} must be positive and divide hidden width {hidden}",
                    at.heads
                )));
            }
            Ok(q.clone())
        }
        Op::Lrn(l) => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            if l.size == 0 {
                return Err(attr_err("lrn size must be positive".into()));
            }
            Ok(x.clone())
        }
        Op::Concat => {
            if inputs.len() < 2 {
                return Err(arity_err(2));
            }
            let first = inputs[0];
            if !first.is_chw() {
                return Err(shape_err(format!(
                    "concat expects CxHxW inputs, got {first}"
                )));
            }
            let (h, w) = (first.height(), first.width());
            let mut channels = 0usize;
            for x in inputs {
                if !x.is_chw() || x.height() != h || x.width() != w {
                    return Err(shape_err(format!(
                        "concat inputs must share spatial dims; got {first} vs {x}"
                    )));
                }
                channels = channels
                    .checked_add(x.channels())
                    .ok_or_else(|| shape_err("concat channel count overflows".into()))?;
            }
            Ok(Shape::chw(channels, h, w))
        }
        Op::Eltwise(_) => {
            if inputs.len() != 2 {
                return Err(arity_err(2));
            }
            if inputs[0] != inputs[1] {
                return Err(shape_err(format!(
                    "eltwise inputs must match: {} vs {}",
                    inputs[0], inputs[1]
                )));
            }
            Ok(inputs[0].clone())
        }
        Op::Flatten => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            let numel = x.try_numel().ok_or_else(|| {
                shape_err(format!("flatten expects a fixed input shape, got {x}"))
            })?;
            Ok(Shape::flat(numel))
        }
        Op::Pad(p) => {
            let x = single(inputs).ok_or_else(|| arity_err(1))?;
            if !x.is_chw() {
                return Err(shape_err(format!("pad expects CxHxW input, got {x}")));
            }
            let grow = |extent: usize, pad: usize| {
                pad.checked_mul(2)
                    .and_then(|twice| extent.checked_add(twice))
                    .ok_or_else(|| attr_err(format!("pad {pad} overflows the tensor extent")))
            };
            Ok(Shape::chw(
                x.channels(),
                grow(x.height(), p.height)?,
                grow(x.width(), p.width)?,
            ))
        }
    }
}

fn single<'a>(inputs: &[&'a Shape]) -> Option<&'a Shape> {
    if inputs.len() == 1 {
        Some(inputs[0])
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, EltwiseKind, Linear, Pool, PoolKind};

    fn conv(cin: usize, cout: usize, k: usize, s: usize, p: usize) -> Op {
        Op::Conv2d(Conv2d {
            in_channels: cin,
            out_channels: cout,
            kernel: (k, k),
            stride: (s, s),
            padding: (p, p),
            groups: 1,
            bias: true,
        })
    }

    #[test]
    fn conv_same_padding_preserves_extent() {
        let x = Shape::chw(64, 56, 56);
        let y = infer_output_shape("c", &conv(64, 128, 3, 1, 1), &[&x]).unwrap();
        assert_eq!(y, Shape::chw(128, 56, 56));
    }

    #[test]
    fn conv_stride_two_halves_extent() {
        let x = Shape::chw(3, 224, 224);
        let y = infer_output_shape("c", &conv(3, 64, 7, 2, 3), &[&x]).unwrap();
        assert_eq!(y, Shape::chw(64, 112, 112));
    }

    #[test]
    fn conv_rejects_channel_mismatch() {
        let x = Shape::chw(3, 8, 8);
        let e = infer_output_shape("c", &conv(4, 8, 3, 1, 1), &[&x]).unwrap_err();
        assert!(matches!(e, IrError::ShapeMismatch { .. }));
    }

    #[test]
    fn conv_rejects_oversized_kernel() {
        let x = Shape::chw(3, 4, 4);
        let e = infer_output_shape("c", &conv(3, 8, 7, 1, 0), &[&x]).unwrap_err();
        assert!(matches!(e, IrError::ShapeMismatch { .. }));
    }

    #[test]
    fn asymmetric_conv_shapes() {
        let op = Op::Conv2d(Conv2d {
            in_channels: 128,
            out_channels: 192,
            kernel: (1, 7),
            stride: (1, 1),
            padding: (0, 3),
            groups: 1,
            bias: false,
        });
        let x = Shape::chw(128, 17, 17);
        let y = infer_output_shape("c", &op, &[&x]).unwrap();
        assert_eq!(y, Shape::chw(192, 17, 17));
    }

    #[test]
    fn pool_floor_vs_ceil() {
        // span = 12 - 3 = 9: floor(9/2)+1 = 5, ceil(9/2)+1 = 6.
        let x = Shape::chw(64, 12, 12);
        let floor = Op::Pool(Pool {
            kind: PoolKind::Max,
            kernel: (3, 3),
            stride: (2, 2),
            padding: (0, 0),
            ceil_mode: false,
        });
        let ceil = Op::Pool(Pool {
            kind: PoolKind::Max,
            kernel: (3, 3),
            stride: (2, 2),
            padding: (0, 0),
            ceil_mode: true,
        });
        assert_eq!(
            infer_output_shape("p", &floor, &[&x]).unwrap(),
            Shape::chw(64, 5, 5)
        );
        assert_eq!(
            infer_output_shape("p", &ceil, &[&x]).unwrap(),
            Shape::chw(64, 6, 6)
        );
    }

    #[test]
    fn linear_checks_feature_count() {
        let op = Op::Linear(Linear {
            in_features: 512,
            out_features: 10,
            bias: true,
        });
        let ok = Shape::flat(512);
        assert_eq!(
            infer_output_shape("fc", &op, &[&ok]).unwrap(),
            Shape::flat(10)
        );
        // A CxHxW input with matching element count is also accepted
        // (implicit flatten, as ONNX Gemm often sees).
        let chw = Shape::chw(512, 1, 1);
        assert_eq!(
            infer_output_shape("fc", &op, &[&chw]).unwrap(),
            Shape::flat(10)
        );
        let bad = Shape::flat(100);
        assert!(infer_output_shape("fc", &op, &[&bad]).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let a = Shape::chw(64, 28, 28);
        let b = Shape::chw(128, 28, 28);
        let c = Shape::chw(32, 28, 28);
        let y = infer_output_shape("cat", &Op::Concat, &[&a, &b, &c]).unwrap();
        assert_eq!(y, Shape::chw(224, 28, 28));
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let a = Shape::chw(64, 28, 28);
        let b = Shape::chw(64, 14, 14);
        assert!(infer_output_shape("cat", &Op::Concat, &[&a, &b]).is_err());
    }

    #[test]
    fn eltwise_requires_equal_shapes() {
        let a = Shape::chw(64, 28, 28);
        let b = Shape::chw(64, 28, 28);
        let y = infer_output_shape("add", &Op::Eltwise(EltwiseKind::Add), &[&a, &b]).unwrap();
        assert_eq!(y, a);
        let c = Shape::chw(32, 28, 28);
        assert!(infer_output_shape("add", &Op::Eltwise(EltwiseKind::Add), &[&a, &c]).is_err());
    }

    #[test]
    fn flatten_collapses() {
        let x = Shape::chw(512, 7, 7);
        let y = infer_output_shape("f", &Op::Flatten, &[&x]).unwrap();
        assert_eq!(y, Shape::flat(512 * 7 * 7));
    }

    /// Regression: adversarial attribute values from an imported graph
    /// used to overflow (`input + 2*pad` aborts in debug builds) or
    /// slip through unvalidated (zero-sized pool kernels); all of them
    /// must surface as structured errors instead.
    #[test]
    fn hostile_attributes_error_instead_of_panicking() {
        // Conv padding near usize::MAX: both the inference and its
        // error message must survive.
        let x = Shape::chw(3, 8, 8);
        let huge_pad = Op::Conv2d(Conv2d {
            in_channels: 3,
            out_channels: 8,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (usize::MAX / 2 + 1, usize::MAX / 2 + 1),
            groups: 1,
            bias: true,
        });
        let e = infer_output_shape("c", &huge_pad, &[&x]).unwrap_err();
        assert!(matches!(e, IrError::ShapeMismatch { .. }));

        // Pad op whose growth overflows the extent.
        let pad = Op::Pad(crate::Pad2d {
            height: usize::MAX / 2 + 1,
            width: 0,
        });
        let e = infer_output_shape("pad", &pad, &[&x]).unwrap_err();
        assert!(matches!(e, IrError::InvalidAttribute { .. }));

        // Zero-sized pool kernel used to be accepted silently.
        let pool = Op::Pool(Pool {
            kind: PoolKind::Max,
            kernel: (0, 3),
            stride: (1, 1),
            padding: (0, 0),
            ceil_mode: false,
        });
        let e = infer_output_shape("p", &pool, &[&x]).unwrap_err();
        assert!(matches!(e, IrError::InvalidAttribute { .. }));
    }

    #[test]
    fn matmul_preserves_leading_dims() {
        let op = Op::MatMul(crate::MatMul {
            in_features: 128,
            out_features: 256,
            bias: true,
        });
        // Symbolic leading dim flows through untouched.
        let x = Shape::seq_features(128);
        let y = infer_output_shape("mm", &op, &[&x]).unwrap();
        assert_eq!(y, Shape::from_dims(vec![Dim::Seq, Dim::Fixed(256)]));
        // Bound token stream.
        let x = Shape::new([64usize, 128]);
        let y = infer_output_shape("mm", &op, &[&x]).unwrap();
        assert_eq!(y, Shape::new([64usize, 256]));
        // Feature-width mismatch is structured.
        let bad = Shape::seq_features(100);
        let e = infer_output_shape("mm", &op, &[&bad]).unwrap_err();
        assert!(matches!(e, IrError::ShapeMismatch { .. }));
    }

    #[test]
    fn bmm_scores_and_context_shapes() {
        let scores = Op::Bmm(crate::Bmm {
            transpose_b: true,
            scaled: true,
        });
        let q = Shape::seq_features(128);
        let y = infer_output_shape("scores", &scores, &[&q, &q]).unwrap();
        assert_eq!(y, Shape::from_dims(vec![Dim::Seq, Dim::Seq]));

        let ctx = Op::Bmm(crate::Bmm {
            transpose_b: false,
            scaled: false,
        });
        // [seq, seq] x [seq, 128]: the symbolic axis contracts against
        // itself and the result stays symbolic in the leading dim.
        let v = Shape::seq_features(128);
        let y = infer_output_shape("ctx", &ctx, &[&y, &v]).unwrap();
        assert_eq!(y, Shape::from_dims(vec![Dim::Seq, Dim::Fixed(128)]));
        // A fixed axis against the symbolic one does not match.
        let bad = Shape::new([64usize, 128]);
        let sym = Shape::seq_features(128);
        let e = infer_output_shape("ctx", &ctx, &[&bad, &sym]).unwrap_err();
        assert!(matches!(e, IrError::ShapeMismatch { .. }));

        let bound = Shape::new([64usize, 64]);
        let v = Shape::new([64usize, 128]);
        let y = infer_output_shape("ctx", &ctx, &[&bound, &v]).unwrap();
        assert_eq!(y, Shape::new([64usize, 128]));
    }

    #[test]
    fn transpose_and_reshape() {
        let x = Shape::new([64usize, 128]);
        let y = infer_output_shape("t", &Op::Transpose, &[&x]).unwrap();
        assert_eq!(y, Shape::new([128usize, 64]));
        let e = infer_output_shape("t", &Op::Transpose, &[&Shape::flat(8)]).unwrap_err();
        assert!(matches!(e, IrError::ShapeMismatch { .. }));

        let re = Op::Reshape {
            shape: Shape::new([128usize, 64]),
        };
        assert!(infer_output_shape("r", &re, &[&x]).is_ok());
        let bad = Op::Reshape {
            shape: Shape::new([128usize, 63]),
        };
        assert!(infer_output_shape("r", &bad, &[&x]).is_err());
        // Symbolic reshapes must preserve both the fixed product and the
        // symbolic dim count.
        let sym = Shape::seq_features(128);
        let re_sym = Op::Reshape {
            shape: Shape::from_dims(vec![Dim::Fixed(128), Dim::Seq]),
        };
        assert!(infer_output_shape("r", &re_sym, &[&sym]).is_ok());
        let drop_seq = Op::Reshape {
            shape: Shape::flat(128),
        };
        assert!(infer_output_shape("r", &drop_seq, &[&sym]).is_err());
    }

    #[test]
    fn attention_validates_heads_and_inputs() {
        let op = Op::Attention(crate::Attention { heads: 4 });
        let q = Shape::seq_features(128);
        assert_eq!(infer_output_shape("at", &op, &[&q, &q, &q]).unwrap(), q);
        // Arity.
        let e = infer_output_shape("at", &op, &[&q, &q]).unwrap_err();
        assert!(matches!(e, IrError::ArityMismatch { expected: 3, .. }));
        // Mismatched K.
        let k = Shape::seq_features(64);
        assert!(infer_output_shape("at", &op, &[&q, &k, &q]).is_err());
        // Heads must divide hidden.
        let bad = Op::Attention(crate::Attention { heads: 3 });
        let e = infer_output_shape("at", &bad, &[&q, &q, &q]).unwrap_err();
        assert!(matches!(e, IrError::InvalidAttribute { .. }));
    }

    /// Regression (rank audit): ops that index into dims must reject
    /// hostile rank-1 / rank-4 / symbolic inputs with structured errors
    /// instead of panicking or silently mis-reading extents.
    #[test]
    fn hostile_ranks_error_instead_of_panicking() {
        let r1 = Shape::flat(7);
        let r4 = Shape::new([2usize, 3, 4, 5]);
        let sym = Shape::seq_features(16);

        for x in [&r1, &r4, &sym] {
            let e = infer_output_shape("g", &Op::GlobalAvgPool, &[x]).unwrap_err();
            assert!(matches!(e, IrError::ShapeMismatch { .. }), "gap on {x}");
            let e = infer_output_shape("cat", &Op::Concat, &[x, x]).unwrap_err();
            assert!(matches!(e, IrError::ShapeMismatch { .. }), "concat on {x}");
        }

        // Flatten accepts any fixed rank but must reject symbolic input.
        assert_eq!(
            infer_output_shape("f", &Op::Flatten, &[&r4]).unwrap(),
            Shape::flat(2 * 3 * 4 * 5)
        );
        let e = infer_output_shape("f", &Op::Flatten, &[&sym]).unwrap_err();
        assert!(matches!(e, IrError::ShapeMismatch { .. }));

        // Linear likewise needs a fixed element count.
        let fc = Op::Linear(Linear {
            in_features: 16,
            out_features: 4,
            bias: false,
        });
        let e = infer_output_shape("fc", &fc, &[&sym]).unwrap_err();
        assert!(matches!(e, IrError::ShapeMismatch { .. }));
    }

    #[test]
    fn window_extent_edge_cases() {
        // Kernel exactly covers the input: one window.
        assert_eq!(window_extent(3, 3, 1, 0, false), Some(1));
        // Kernel larger than padded input: no window.
        assert_eq!(window_extent(2, 3, 1, 0, false), None);
        // Padding rescues it.
        assert_eq!(window_extent(2, 3, 1, 1, false), Some(2));
        // Zero stride is invalid.
        assert_eq!(window_extent(8, 3, 0, 0, false), None);
    }
}
