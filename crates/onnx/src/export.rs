//! PIMCOMP IR → ONNX export.
//!
//! Produces a structurally complete `ModelProto`: nodes with canonical
//! ONNX operator names and attributes, value infos for graph inputs and
//! outputs, and weight initializers carrying correct *dims* with empty
//! payloads (compilation never reads weight values, and the executor
//! synthesizes them from a seed: "Functional execution & quantization"
//! in `docs/ARCHITECTURE.md`).

use crate::proto::{
    AttributeProto, GraphProto, ModelProto, NodeProto, TensorProto, TensorShapeProto,
    ValueInfoProto,
};
use pimcomp_ir::{Activation, Dim, EltwiseKind, Graph, Op, PoolKind, Shape};

/// ONNX opset the exporter targets.
pub const EXPORT_OPSET: i64 = 13;

/// Exports a graph to an ONNX model.
pub fn export_graph(graph: &Graph) -> ModelProto {
    let mut g = GraphProto {
        name: graph.name().to_string(),
        ..Default::default()
    };

    let value_name = |id: pimcomp_ir::NodeId| -> String { format!("v_{}", graph.node(id).name) };

    for id in graph.topo_order() {
        let node = graph.node(id);
        match &node.op {
            Op::Input { shape } => {
                g.input.push(ValueInfoProto {
                    name: value_name(id),
                    elem_type: 1,
                    shape: nchw_shape(shape),
                });
            }
            op => {
                let mut n = NodeProto {
                    name: node.name.clone(),
                    output: vec![value_name(id)],
                    ..Default::default()
                };
                for &p in &node.inputs {
                    n.input.push(value_name(p));
                }
                fill_op(&mut n, &mut g, op, &node.name);
                g.node.push(n);
            }
        }
    }

    for id in graph.outputs() {
        g.output.push(ValueInfoProto {
            name: value_name(id),
            elem_type: 1,
            shape: nchw_shape(&graph.node(id).output_shape),
        });
    }

    ModelProto {
        ir_version: 8,
        producer_name: "pimcomp".into(),
        producer_version: env!("CARGO_PKG_VERSION").into(),
        opset_version: EXPORT_OPSET,
        graph: Some(g),
    }
}

fn nchw_shape(shape: &Shape) -> TensorShapeProto {
    let mut dims: Vec<Option<i64>> = vec![Some(1)];
    dims.extend(shape.dims().iter().map(|d| match d {
        Dim::Fixed(n) => Some(*n as i64),
        // Symbolic sequence length round-trips as a `dim_param`.
        Dim::Seq => None,
    }));
    TensorShapeProto { dims }
}

fn fill_op(n: &mut NodeProto, g: &mut GraphProto, op: &Op, name: &str) {
    match op {
        Op::Input { .. } => unreachable!("inputs handled by caller"),
        Op::Conv2d(c) => {
            n.op_type = "Conv".into();
            n.attribute = vec![
                AttributeProto::ints("kernel_shape", vec![c.kernel.0 as i64, c.kernel.1 as i64]),
                AttributeProto::ints("strides", vec![c.stride.0 as i64, c.stride.1 as i64]),
                AttributeProto::ints(
                    "pads",
                    vec![
                        c.padding.0 as i64,
                        c.padding.1 as i64,
                        c.padding.0 as i64,
                        c.padding.1 as i64,
                    ],
                ),
                AttributeProto::int("group", c.groups as i64),
            ];
            let wname = format!("{name}_weight");
            g.initializer.push(TensorProto {
                dims: vec![
                    c.out_channels as i64,
                    (c.in_channels / c.groups) as i64,
                    c.kernel.0 as i64,
                    c.kernel.1 as i64,
                ],
                data_type: 1,
                name: wname.clone(),
                raw_data: vec![],
            });
            n.input.push(wname);
            if c.bias {
                let bname = format!("{name}_bias");
                g.initializer.push(TensorProto {
                    dims: vec![c.out_channels as i64],
                    data_type: 1,
                    name: bname.clone(),
                    raw_data: vec![],
                });
                n.input.push(bname);
            }
        }
        Op::Linear(l) => {
            n.op_type = "Gemm".into();
            n.attribute = vec![AttributeProto::int("transB", 1)];
            let wname = format!("{name}_weight");
            g.initializer.push(TensorProto {
                dims: vec![l.out_features as i64, l.in_features as i64],
                data_type: 1,
                name: wname.clone(),
                raw_data: vec![],
            });
            n.input.push(wname);
            if l.bias {
                let bname = format!("{name}_bias");
                g.initializer.push(TensorProto {
                    dims: vec![l.out_features as i64],
                    data_type: 1,
                    name: bname.clone(),
                    raw_data: vec![],
                });
                n.input.push(bname);
            }
        }
        Op::Pool(p) => {
            n.op_type = match p.kind {
                PoolKind::Max => "MaxPool".into(),
                PoolKind::Avg => "AveragePool".into(),
            };
            n.attribute = vec![
                AttributeProto::ints("kernel_shape", vec![p.kernel.0 as i64, p.kernel.1 as i64]),
                AttributeProto::ints("strides", vec![p.stride.0 as i64, p.stride.1 as i64]),
                AttributeProto::ints(
                    "pads",
                    vec![
                        p.padding.0 as i64,
                        p.padding.1 as i64,
                        p.padding.0 as i64,
                        p.padding.1 as i64,
                    ],
                ),
                AttributeProto::int("ceil_mode", i64::from(p.ceil_mode)),
            ];
        }
        Op::GlobalAvgPool => n.op_type = "GlobalAveragePool".into(),
        Op::Activation(a) => {
            n.op_type = match a {
                Activation::Relu => "Relu".into(),
                Activation::Sigmoid => "Sigmoid".into(),
                Activation::Tanh => "Tanh".into(),
                Activation::Gelu => "Gelu".into(),
            }
        }
        Op::Concat => {
            n.op_type = "Concat".into();
            n.attribute = vec![AttributeProto::int("axis", 1)];
        }
        Op::Eltwise(e) => {
            n.op_type = match e {
                EltwiseKind::Add => "Add".into(),
                EltwiseKind::Mul => "Mul".into(),
            }
        }
        Op::Flatten => {
            n.op_type = "Flatten".into();
            n.attribute = vec![AttributeProto::int("axis", 1)];
        }
        Op::Softmax => {
            n.op_type = "Softmax".into();
            n.attribute = vec![AttributeProto::int("axis", 1)];
        }
        Op::BatchNorm => {
            n.op_type = "BatchNormalization".into();
            n.attribute = vec![AttributeProto::float("epsilon", 1e-5)];
        }
        Op::Dropout => n.op_type = "Dropout".into(),
        Op::Lrn(l) => {
            n.op_type = "LRN".into();
            n.attribute = vec![
                AttributeProto::int("size", l.size as i64),
                AttributeProto::float("alpha", l.alpha as f32),
                AttributeProto::float("beta", l.beta as f32),
            ];
        }
        Op::Pad(p) => {
            n.op_type = "Pad".into();
            n.attribute = vec![AttributeProto::ints(
                "pads",
                vec![
                    p.height as i64,
                    p.width as i64,
                    p.height as i64,
                    p.width as i64,
                ],
            )];
        }
        Op::MatMul(m) => {
            // Activation @ stationary weight, `W` laid out `[in, out]`.
            // An optional third bias input is this exporter's extension
            // (plain ONNX pairs MatMul with a following Add).
            n.op_type = "MatMul".into();
            let wname = format!("{name}_weight");
            g.initializer.push(TensorProto {
                dims: vec![m.in_features as i64, m.out_features as i64],
                data_type: 1,
                name: wname.clone(),
                raw_data: vec![],
            });
            n.input.push(wname);
            if m.bias {
                let bname = format!("{name}_bias");
                g.initializer.push(TensorProto {
                    dims: vec![m.out_features as i64],
                    data_type: 1,
                    name: bname.clone(),
                    raw_data: vec![],
                });
                n.input.push(bname);
            }
        }
        Op::Bmm(bm) => {
            // Activation @ activation; transpose/scale ride along as
            // attributes the importer understands.
            n.op_type = "MatMul".into();
            let mut attrs = Vec::new();
            if bm.transpose_b {
                attrs.push(AttributeProto::int("transB", 1));
            }
            if bm.scaled {
                attrs.push(AttributeProto::int("scaled", 1));
            }
            n.attribute = attrs;
        }
        Op::LayerNorm => {
            n.op_type = "LayerNormalization".into();
            n.attribute = vec![AttributeProto::float("epsilon", 1e-5)];
        }
        Op::Transpose => n.op_type = "Transpose".into(),
        Op::Reshape { shape } => {
            n.op_type = "Reshape".into();
            n.attribute = vec![AttributeProto::ints(
                "shape",
                shape
                    .dims()
                    .iter()
                    .map(|d| match d {
                        Dim::Fixed(v) => *v as i64,
                        Dim::Seq => -1,
                    })
                    .collect(),
            )];
        }
        Op::Attention(a) => {
            n.op_type = "Attention".into();
            n.attribute = vec![AttributeProto::int("heads", a.heads as i64)];
        }
        // `Op` is non-exhaustive; any future variant must be wired up
        // here. Exporting it as Identity keeps the file well-formed.
        _ => {
            debug_assert!(false, "unhandled op variant in ONNX export");
            n.op_type = "Identity".into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::models;

    #[test]
    fn export_emits_weight_initializers_with_dims() {
        let g = models::tiny_cnn();
        let model = export_graph(&g);
        let gp = model.graph.unwrap();
        let conv_w = gp
            .initializer
            .iter()
            .find(|t| t.name == "conv1_weight")
            .expect("conv1 weight exported");
        assert_eq!(conv_w.dims, vec![16, 3, 3, 3]);
        let fc_w = gp
            .initializer
            .iter()
            .find(|t| t.name == "fc1_weight")
            .expect("fc1 weight exported");
        assert_eq!(fc_w.dims, vec![128, 2048]);
    }

    #[test]
    fn export_declares_graph_io() {
        let g = models::tiny_mlp();
        let model = export_graph(&g);
        let gp = model.graph.unwrap();
        assert_eq!(gp.input.len(), 1);
        assert_eq!(gp.output.len(), 1);
        // Flat 256-input with an explicit batch of 1.
        assert_eq!(gp.input[0].shape.dims, vec![Some(1), Some(256)]);
    }

    #[test]
    fn exported_bytes_decode_back() {
        let g = models::two_branch();
        let bytes = export_graph(&g).encode();
        let model = crate::proto::ModelProto::decode(&bytes).unwrap();
        assert_eq!(model.opset_version, EXPORT_OPSET);
        assert_eq!(model.graph.unwrap().node.len(), g.node_count() - 1);
    }
}
