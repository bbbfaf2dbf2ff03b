//! ONNX → PIMCOMP IR import.
//!
//! Resolves the ONNX value-name dataflow into [`Graph`] edges, reading
//! layer hyper-parameters from node attributes and weight shapes from
//! initializer dims (weight *values* are irrelevant to compilation and
//! are ignored). Batch dimensions (symbolic or 1) are stripped: PIMCOMP
//! compiles single-sample inference.

use crate::proto::{GraphProto, ModelProto, NodeProto};
use crate::OnnxError;
use pimcomp_ir::{Activation, Dim, EltwiseKind, Graph, GraphBuilder, NodeId, Op, PoolKind, Shape};
use std::collections::{HashMap, HashSet};

/// Imports raw `.onnx` bytes into a validated IR graph.
///
/// # Errors
///
/// * Wire-format failures from decoding the bytes.
/// * [`OnnxError::MissingGraph`] — model without a graph.
/// * [`OnnxError::UnsupportedOp`] — operator outside the supported
///   DNN-inference subset.
/// * [`OnnxError::Import`] — structural problems (unknown value names,
///   unsupported attribute combinations, shape conflicts).
/// * [`OnnxError::InvalidGraph`] — the converted graph failed final
///   validation (no input, cycle, …).
pub fn import_bytes(bytes: &[u8]) -> Result<Graph, OnnxError> {
    import_model(&ModelProto::decode(bytes)?)
}

/// [`import_bytes`] from an already decoded model.
pub(crate) fn import_model(model: &ModelProto) -> Result<Graph, OnnxError> {
    let graph = model.graph.as_ref().ok_or(OnnxError::MissingGraph)?;
    import_graph(graph)
}

fn import_graph(g: &GraphProto) -> Result<Graph, OnnxError> {
    let mut b = GraphBuilder::new(if g.name.is_empty() {
        "onnx_model"
    } else {
        g.name.as_str()
    });

    // Weight dims by initializer name.
    let weights: HashMap<&str, &[i64]> = g
        .initializer
        .iter()
        .map(|t| (t.name.as_str(), t.dims.as_slice()))
        .collect();

    // Value name -> producing IR node.
    let mut value: HashMap<String, NodeId> = HashMap::new();

    // Graph inputs that are not initializers become IR inputs.
    for vi in &g.input {
        if weights.contains_key(vi.name.as_str()) {
            continue;
        }
        // `dim_param` (None) and non-positive `dim_value`s are dynamic:
        // a leading dynamic dim is the batch (stripped — PIMCOMP
        // compiles single-sample inference), any other becomes the
        // symbolic sequence length.
        let raw: Vec<Option<usize>> = vi
            .shape
            .dims
            .iter()
            .map(|d| match d {
                Some(v) if *v > 0 => Some(*v as usize),
                _ => None,
            })
            .collect();
        let bad_shape = || OnnxError::Import {
            detail: format!(
                "input `{}` has unsupported shape {:?}",
                vi.name, vi.shape.dims
            ),
        };
        let id = match raw.as_slice() {
            // 4-D NCHW with a batch of 1 (or dynamic batch).
            [None | Some(1), Some(c), Some(h), Some(w)] => b.input(&vi.name, [*c, *h, *w]),
            // [batch, seq, hidden] token stream.
            [None | Some(1), None, Some(f)] => b.input_seq(&vi.name, *f),
            [Some(c), Some(h), Some(w)] => b.input(&vi.name, [*c, *h, *w]),
            [None, Some(f)] => b.input_seq(&vi.name, *f),
            [Some(1), Some(f)] => b.input_flat(&vi.name, *f),
            [Some(s), Some(f)] => {
                // A fixed [seq, hidden] token stream.
                b.add(
                    &vi.name,
                    Op::Input {
                        shape: Shape::new([*s, *f]),
                    },
                    vec![],
                )
                .map_err(|_| bad_shape())?
            }
            [Some(f)] => b.input_flat(&vi.name, *f),
            _ => return Err(bad_shape()),
        };
        value.insert(vi.name.clone(), id);
    }

    let nodes = fuse_erf_gelu(g);
    for (idx, node) in nodes.iter().enumerate() {
        let name = if node.name.is_empty() {
            format!("{}_{}", node.op_type.to_lowercase(), idx)
        } else {
            node.name.clone()
        };
        let id = import_node(&mut b, node, &name, &value, &weights)?;
        for out in &node.output {
            value.insert(out.clone(), id);
        }
    }

    b.finish().map_err(|e| OnnxError::InvalidGraph {
        detail: e.to_string(),
    })
}

/// Structurally fuses the exported-GELU subgraph
/// `Div(x, √2) → Erf → Add(·, 1) → Mul(·, x) [→ Mul(·, 0.5)]`
/// into a single synthetic `Gelu` node (the pattern HuggingFace-style
/// exporters emit; constant *values* are never materialized here, so the
/// match is purely structural).
///
/// Unmatched nodes pass through unchanged, in their original order; the
/// fused node takes the position (and final output) of the last node of
/// the pattern.
fn fuse_erf_gelu(g: &GraphProto) -> Vec<NodeProto> {
    // value name -> producing node index; node index -> consumer indices.
    let mut producer: HashMap<&str, usize> = HashMap::new();
    for (i, n) in g.node.iter().enumerate() {
        for out in &n.output {
            producer.insert(out.as_str(), i);
        }
    }
    let consumers = |val: &str| -> Vec<usize> {
        g.node
            .iter()
            .enumerate()
            .filter(|(_, n)| n.input.iter().any(|i| i == val))
            .map(|(i, _)| i)
            .collect()
    };

    let mut dropped: HashSet<usize> = HashSet::new();
    // last-node index -> replacement Gelu node.
    let mut fused: HashMap<usize, NodeProto> = HashMap::new();

    for (ei, erf) in g.node.iter().enumerate() {
        if erf.op_type != "Erf" || erf.input.len() != 1 || erf.output.len() != 1 {
            continue;
        }
        // Producer must be Div(x, const).
        let Some(&di) = producer.get(erf.input[0].as_str()) else {
            continue;
        };
        let div = &g.node[di];
        if div.op_type != "Div" || div.input.len() != 2 || consumers(&erf.input[0]).len() != 1 {
            continue;
        }
        let x = div.input[0].clone();
        // Sole consumer of the Erf must be an Add.
        let add_users = consumers(&erf.output[0]);
        let [ai] = add_users.as_slice() else { continue };
        let add = &g.node[*ai];
        if add.op_type != "Add" || add.output.len() != 1 {
            continue;
        }
        // Sole consumer of the Add must be a Mul tying back to x.
        let mul_users = consumers(&add.output[0]);
        let [mi] = mul_users.as_slice() else { continue };
        let mul = &g.node[*mi];
        if mul.op_type != "Mul" || !mul.input.contains(&x) || mul.output.len() != 1 {
            continue;
        }
        // Optional trailing Mul(·, 0.5).
        let (last, out) = match consumers(&mul.output[0]).as_slice() {
            [m2i]
                if g.node[*m2i].op_type == "Mul"
                    && g.node[*m2i].output.len() == 1
                    && g.node[*m2i]
                        .input
                        .iter()
                        .any(|i| !producer.contains_key(i.as_str())) =>
            {
                (*m2i, g.node[*m2i].output[0].clone())
            }
            _ => (*mi, mul.output[0].clone()),
        };
        let members = [di, ei, *ai, *mi, last];
        if members.iter().any(|m| dropped.contains(m)) {
            continue;
        }
        dropped.extend(members);
        let name = if erf.name.is_empty() {
            format!("gelu_{ei}")
        } else {
            format!("{}_gelu", erf.name)
        };
        fused.insert(
            last,
            NodeProto {
                name,
                op_type: "Gelu".into(),
                input: vec![x],
                output: vec![out],
                ..Default::default()
            },
        );
    }

    g.node
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match fused.remove(&i) {
            Some(gelu) => Some(gelu),
            None if dropped.contains(&i) => None,
            None => Some(n.clone()),
        })
        .collect()
}

fn data_input(
    node: &NodeProto,
    i: usize,
    value: &HashMap<String, NodeId>,
) -> Result<NodeId, OnnxError> {
    let name = node.input.get(i).ok_or_else(|| OnnxError::Import {
        detail: format!("node `{}` missing input {i}", node.op_type),
    })?;
    value.get(name).copied().ok_or_else(|| OnnxError::Import {
        detail: format!("unknown value `{name}` consumed by `{}`", node.op_type),
    })
}

fn pair(v: &[i64], default: usize) -> (usize, usize) {
    match v {
        [a] => (*a as usize, *a as usize),
        [a, b, ..] => (*a as usize, *b as usize),
        [] => (default, default),
    }
}

/// Symmetric `(ph, pw)` from an ONNX `pads` attribute
/// `[begin_h, begin_w, end_h, end_w]`.
fn sym_pads(node: &NodeProto) -> Result<(usize, usize), OnnxError> {
    let pads = node.attr_ints("pads");
    match pads {
        [] => Ok((0, 0)),
        [bh, bw, eh, ew] if bh == eh && bw == ew => Ok((*bh as usize, *bw as usize)),
        [b, e] if b == e => Ok((*b as usize, *b as usize)),
        other => Err(OnnxError::Import {
            detail: format!(
                "asymmetric padding {other:?} on `{}` is not supported",
                node.op_type
            ),
        }),
    }
}

fn import_node(
    b: &mut GraphBuilder,
    node: &NodeProto,
    name: &str,
    value: &HashMap<String, NodeId>,
    weights: &HashMap<&str, &[i64]>,
) -> Result<NodeId, OnnxError> {
    let err = |detail: String| OnnxError::Import { detail };
    let ir = |e: pimcomp_ir::IrError| OnnxError::Import {
        detail: e.to_string(),
    };

    match node.op_type.as_str() {
        "Conv" => {
            let x = data_input(node, 0, value)?;
            let wname = node
                .input
                .get(1)
                .ok_or_else(|| err(format!("Conv `{name}` has no weight input")))?;
            let wdims = weights.get(wname.as_str()).ok_or_else(|| {
                err(format!(
                    "Conv `{name}` weight `{wname}` is not an initializer"
                ))
            })?;
            if wdims.len() != 4 {
                return Err(err(format!(
                    "Conv `{name}` weight has {} dims, expected 4",
                    wdims.len()
                )));
            }
            let out_channels = wdims[0] as usize;
            let kernel = match node.attr_ints("kernel_shape") {
                [] => (wdims[2] as usize, wdims[3] as usize),
                ks => pair(ks, 1),
            };
            let strides = pair(node.attr_ints("strides"), 1);
            let padding = sym_pads(node)?;
            let groups = node.attr_i("group", 1) as usize;
            let dil = pair(node.attr_ints("dilations"), 1);
            if dil != (1, 1) {
                return Err(err(format!(
                    "Conv `{name}` with dilation {dil:?} is not supported"
                )));
            }
            let in_channels = b.shape(x).channels();
            b.add(
                name,
                Op::Conv2d(pimcomp_ir::Conv2d {
                    in_channels,
                    out_channels,
                    kernel,
                    stride: strides,
                    padding,
                    groups,
                    bias: node.input.len() > 2,
                }),
                vec![x],
            )
            .map_err(ir)
        }
        "Gemm" => {
            let x = data_input(node, 0, value)?;
            let wname = node
                .input
                .get(1)
                .ok_or_else(|| err(format!("Gemm `{name}` has no weight input")))?;
            let wdims = weights.get(wname.as_str()).ok_or_else(|| {
                err(format!(
                    "Gemm `{name}` weight `{wname}` is not an initializer"
                ))
            })?;
            if wdims.len() != 2 {
                return Err(err(format!("Gemm `{name}` weight must be 2-D")));
            }
            let trans_b = node.attr_i("transB", 0) != 0;
            let out_features = if trans_b { wdims[0] } else { wdims[1] } as usize;
            b.linear(name, x, out_features).map_err(ir)
        }
        "MatMul" => {
            let x = data_input(node, 0, value)?;
            let second = node
                .input
                .get(1)
                .ok_or_else(|| err(format!("MatMul `{name}` has only one input")))?;
            match weights.get(second.as_str()) {
                // Activation @ stationary weight: crossbar-mapped matmul
                // applied per token row, `W` laid out `[in, out]`.
                Some(wdims) => {
                    if wdims.len() != 2 {
                        return Err(err(format!("MatMul `{name}` weight must be 2-D")));
                    }
                    b.add(
                        name,
                        Op::MatMul(pimcomp_ir::MatMul {
                            in_features: wdims[0] as usize,
                            out_features: wdims[1] as usize,
                            // Third input = bias initializer (exporter
                            // convention; plain ONNX MatMul has two).
                            bias: node.input.len() > 2,
                        }),
                        vec![x],
                    )
                    .map_err(ir)
                }
                // Activation @ activation: a VFU product. `transB` and
                // `scaled` ride along as attributes (our exporter's
                // encoding of the attention score product).
                None => {
                    let y = data_input(node, 1, value)?;
                    b.bmm(
                        name,
                        x,
                        y,
                        node.attr_i("transB", 0) != 0,
                        node.attr_i("scaled", 0) != 0,
                    )
                    .map_err(ir)
                }
            }
        }
        "MaxPool" | "AveragePool" => {
            let x = data_input(node, 0, value)?;
            let kind = if node.op_type == "MaxPool" {
                PoolKind::Max
            } else {
                PoolKind::Avg
            };
            let kernel = pair(node.attr_ints("kernel_shape"), 1);
            let strides = pair(node.attr_ints("strides"), kernel.0);
            let padding = sym_pads(node)?;
            let ceil_mode = node.attr_i("ceil_mode", 0) != 0;
            b.pool(name, x, kind, kernel, strides, padding, ceil_mode)
                .map_err(ir)
        }
        "GlobalAveragePool" => {
            let x = data_input(node, 0, value)?;
            b.global_avg_pool(name, x).map_err(ir)
        }
        "Relu" => {
            let x = data_input(node, 0, value)?;
            b.activation(name, x, Activation::Relu).map_err(ir)
        }
        "Sigmoid" => {
            let x = data_input(node, 0, value)?;
            b.activation(name, x, Activation::Sigmoid).map_err(ir)
        }
        "Tanh" => {
            let x = data_input(node, 0, value)?;
            b.activation(name, x, Activation::Tanh).map_err(ir)
        }
        "Gelu" => {
            let x = data_input(node, 0, value)?;
            b.activation(name, x, Activation::Gelu).map_err(ir)
        }
        "LayerNormalization" => {
            let x = data_input(node, 0, value)?;
            b.layer_norm(name, x).map_err(ir)
        }
        "Transpose" => {
            let x = data_input(node, 0, value)?;
            // Our Transpose swaps the last two dims; an explicit `perm`
            // must agree (the default reverses all dims, which for the
            // rank-2 streams we support is the same swap).
            let rank = b.shape(x).rank();
            let perm = node.attr_ints("perm");
            if !perm.is_empty() {
                let mut expect: Vec<i64> = (0..rank as i64).collect();
                if rank >= 2 {
                    expect.swap(rank - 2, rank - 1);
                }
                if perm != expect {
                    return Err(err(format!(
                        "Transpose `{name}` with perm {perm:?} is not a last-two-dims swap"
                    )));
                }
            }
            b.transpose(name, x).map_err(ir)
        }
        "Attention" => {
            let q = data_input(node, 0, value)?;
            let k = data_input(node, 1, value)?;
            let v = data_input(node, 2, value)?;
            let heads = node.attr_i("heads", 1) as usize;
            b.attention(name, q, k, v, heads).map_err(ir)
        }
        "Concat" => {
            let axis = node.attr_i("axis", 1);
            if axis != 1 {
                return Err(err(format!(
                    "Concat `{name}` with axis {axis} is not supported"
                )));
            }
            let inputs: Result<Vec<NodeId>, OnnxError> = (0..node.input.len())
                .map(|i| data_input(node, i, value))
                .collect();
            b.concat(name, inputs?).map_err(ir)
        }
        "Add" | "Sum" => {
            let a = data_input(node, 0, value)?;
            let c = data_input(node, 1, value)?;
            b.add(name, Op::Eltwise(EltwiseKind::Add), vec![a, c])
                .map_err(ir)
        }
        "Mul" => {
            let a = data_input(node, 0, value)?;
            let c = data_input(node, 1, value)?;
            b.add(name, Op::Eltwise(EltwiseKind::Mul), vec![a, c])
                .map_err(ir)
        }
        "Flatten" => {
            let x = data_input(node, 0, value)?;
            b.flatten(name, x).map_err(ir)
        }
        "Reshape" => {
            let x = data_input(node, 0, value)?;
            let dims = node.attr_ints("shape");
            if dims.is_empty() {
                // Reshape in classification nets collapses to the FC
                // input; without an explicit target it is represented as
                // Flatten (a zero-cost view).
                b.flatten(name, x).map_err(ir)
            } else {
                // Explicit target (our exporter's encoding): -1 is the
                // symbolic sequence length.
                let target: Result<Vec<Dim>, OnnxError> = dims
                    .iter()
                    .map(|&d| match d {
                        -1 => Ok(Dim::Seq),
                        v if v > 0 => Ok(Dim::Fixed(v as usize)),
                        v => Err(err(format!("Reshape `{name}` has invalid target dim {v}"))),
                    })
                    .collect();
                b.reshape(name, x, Shape::from_dims(target?)).map_err(ir)
            }
        }
        "Softmax" => {
            let x = data_input(node, 0, value)?;
            b.softmax(name, x).map_err(ir)
        }
        "BatchNormalization" => {
            let x = data_input(node, 0, value)?;
            b.batch_norm(name, x).map_err(ir)
        }
        "Dropout" | "Identity" => {
            let x = data_input(node, 0, value)?;
            b.dropout(name, x).map_err(ir)
        }
        "LRN" => {
            let x = data_input(node, 0, value)?;
            let size = node.attr_i("size", 5) as usize;
            b.lrn(name, x, size).map_err(ir)
        }
        "Pad" => {
            let x = data_input(node, 0, value)?;
            let (ph, pw) = sym_pads(node)?;
            b.pad(name, x, ph, pw).map_err(ir)
        }
        other => Err(OnnxError::UnsupportedOp {
            op_type: other.into(),
            node: name.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_graph;

    #[test]
    fn unsupported_op_is_reported() {
        let mut g = GraphProto {
            name: "g".into(),
            ..Default::default()
        };
        g.input.push(crate::proto::ValueInfoProto {
            name: "x".into(),
            elem_type: 1,
            shape: crate::proto::TensorShapeProto {
                dims: vec![Some(1), Some(3), Some(8), Some(8)],
            },
        });
        g.node.push(NodeProto {
            input: vec!["x".into()],
            output: vec!["y".into()],
            name: "rnn".into(),
            op_type: "LSTM".into(),
            ..Default::default()
        });
        let model = ModelProto {
            graph: Some(g),
            ..Default::default()
        };
        assert!(matches!(
            import_model(&model),
            Err(OnnxError::UnsupportedOp { .. })
        ));
    }

    #[test]
    fn invalid_graph_is_an_error_not_a_panic() {
        // A deliberately malformed model: it decodes fine and every
        // node converts, but the assembled graph has no input node, so
        // final validation must reject it with a structured error.
        let g = GraphProto {
            name: "no_inputs".into(),
            ..Default::default()
        };
        let model = ModelProto {
            graph: Some(g),
            ..Default::default()
        };
        let err = import_model(&model).unwrap_err();
        assert!(matches!(err, OnnxError::InvalidGraph { .. }), "{err}");
        assert!(err.to_string().contains("validation"));

        // The same property holds end to end through the wire format.
        let bytes = model.encode();
        assert!(matches!(
            import_bytes(&bytes),
            Err(OnnxError::InvalidGraph { .. })
        ));
    }

    #[test]
    fn round_trip_preserves_tiny_cnn_structure() {
        let original = pimcomp_ir::models::tiny_cnn();
        let model = export_graph(&original);
        let bytes = model.encode();
        let back = import_bytes(&bytes).unwrap();
        assert_eq!(back.node_count(), original.node_count());
        // Same op multiset in topo order.
        let ops = |g: &Graph| -> Vec<String> {
            g.topo_order()
                .into_iter()
                .map(|id| g.node(id).op.mnemonic().to_string())
                .collect()
        };
        assert_eq!(ops(&back), ops(&original));
        // Same shapes at every node.
        for (a, z) in original.topo_order().iter().zip(back.topo_order()) {
            assert_eq!(original.node(*a).output_shape, back.node(z).output_shape);
        }
    }

    #[test]
    fn round_trip_preserves_matmul_softmax_graph() {
        // A symbolic [seq, 64] stream through a weight matmul, the raw
        // score/softmax/context pattern, and a final projection.
        let mut b = pimcomp_ir::GraphBuilder::new("mm_softmax");
        let x = b.input_seq("x", 64);
        let q = b.matmul("q", x, 64).unwrap();
        let k = b.matmul("k", x, 64).unwrap();
        let s = b.bmm("scores", q, k, true, true).unwrap();
        let p = b.softmax("probs", s).unwrap();
        let v = b.matmul("v", x, 64).unwrap();
        let ctx = b.bmm("ctx", p, v, false, false).unwrap();
        let _out = b.matmul("proj", ctx, 32).unwrap();
        let original = b.finish().unwrap();

        let back = import_bytes(&export_graph(&original).encode()).unwrap();
        assert_eq!(back.node_count(), original.node_count());
        for (a, z) in original.topo_order().iter().zip(back.topo_order()) {
            let (na, nz) = (original.node(*a), back.node(z));
            assert_eq!(na.op, nz.op, "{}", na.name);
            assert_eq!(na.output_shape, nz.output_shape, "{}", na.name);
        }
        // The symbolic dim survived the wire format.
        assert!(back.has_symbolic_dims());
    }

    #[test]
    fn round_trip_preserves_tiny_bert() {
        let original = pimcomp_ir::models::tiny_bert();
        let back = import_bytes(&export_graph(&original).encode()).unwrap();
        assert_eq!(back.node_count(), original.node_count());
        for (a, z) in original.topo_order().iter().zip(back.topo_order()) {
            assert_eq!(original.node(*a).op, back.node(z).op);
        }
    }

    #[test]
    fn erf_gelu_pattern_fuses_to_one_gelu() {
        // x -> Div(x, c) -> Erf -> Add(., one) -> Mul(., x) -> Mul(., half)
        let mut g = GraphProto {
            name: "erf".into(),
            ..Default::default()
        };
        g.input.push(crate::proto::ValueInfoProto {
            name: "x".into(),
            elem_type: 1,
            shape: crate::proto::TensorShapeProto {
                dims: vec![Some(1), None, Some(16)],
            },
        });
        let n = |name: &str, op: &str, input: &[&str], output: &str| NodeProto {
            name: name.into(),
            op_type: op.into(),
            input: input.iter().map(|s| s.to_string()).collect(),
            output: vec![output.into()],
            ..Default::default()
        };
        g.node.push(n("div", "Div", &["x", "sqrt2"], "d"));
        g.node.push(n("erf", "Erf", &["d"], "e"));
        g.node.push(n("add", "Add", &["e", "one"], "a"));
        g.node.push(n("mul", "Mul", &["a", "x"], "m"));
        g.node.push(n("half", "Mul", &["m", "c05"], "y"));
        let model = ModelProto {
            graph: Some(g),
            ..Default::default()
        };
        let back = import_model(&model).unwrap();
        assert_eq!(back.node_count(), 2);
        let gelu = back
            .nodes()
            .iter()
            .find(|nd| matches!(nd.op, Op::Activation(Activation::Gelu)))
            .expect("fused gelu node");
        assert_eq!(gelu.output_shape, Shape::seq_features(16));
    }

    #[test]
    fn round_trip_preserves_branching_models() {
        for original in [
            pimcomp_ir::models::two_branch(),
            pimcomp_ir::models::squeezenet(),
            pimcomp_ir::models::resnet18(),
        ] {
            let model = export_graph(&original);
            let back = import_bytes(&model.encode())
                .unwrap_or_else(|e| panic!("{}: {e}", original.name()));
            assert_eq!(
                back.node_count(),
                original.node_count(),
                "{}",
                original.name()
            );
            let a = pimcomp_ir::GraphStats::of(&original);
            let z = pimcomp_ir::GraphStats::of(&back);
            assert_eq!(a.params, z.params, "{}", original.name());
            assert_eq!(a.macs, z.macs, "{}", original.name());
        }
    }
}
