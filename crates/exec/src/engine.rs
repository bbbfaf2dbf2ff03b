//! The shared execution engine: graph validation, topological
//! traversal, and the functional kernels for every non-MVM operator.
//!
//! The reference interpreter and the mapped executor differ *only* in
//! how they compute the MVM operators (convolution, fully connected,
//! weight-stationary matmul); everything else — pooling, activations,
//! attention, normalization, data movement — runs on the VFU or in
//! local memory in both worlds and therefore executes through the exact
//! same kernel code here. The MVM strategy is injected as an
//! [`MvmBackend`], which receives the unfolded weight matrix and the
//! im2col'd input panels and returns the pre-bias output, computing it
//! through calls into the one kernel ([`MvmJob::gemm`]). This construction
//! guarantees that any differential disagreement between the two
//! executors is attributable to the compiled layout.

use crate::error::ExecError;
use crate::gemm::{gemm, pack_rows, Tier, NR};
use crate::tensor::Tensor;
use pimcomp_ir::{infer_output_shape, synth, Activation, Conv2d, Graph, Node, Op, PoolKind, Shape};
use std::ops::Range;

/// The unfolded stationary weight matrix of one MVM node, stored
/// column-major so a crossbar column (a row range of one output
/// column) is a contiguous slice.
pub struct WeightMatrix {
    /// Matrix height (contraction length).
    pub height: usize,
    /// Matrix width (output columns).
    pub width: usize,
    /// Column-major elements: column `c` is `cols[c*height..(c+1)*height]`.
    pub cols: Vec<f32>,
}

/// One MVM computation handed to a backend: input panels (per
/// convolution group) times a stationary weight matrix.
pub struct MvmJob<'a> {
    /// The node being computed.
    pub node: &'a Node,
    /// Output rows (sliding windows for convolution, sequence
    /// positions for matmul, 1 for fully connected).
    pub windows: usize,
    /// Weight-matrix height (= input row length).
    pub height: usize,
    /// Weight-matrix width (total output columns across groups).
    pub width: usize,
    /// Convolution groups (1 for everything else). Output column `c`
    /// contracts against the panels of group `c / (width / groups)`.
    pub groups: usize,
    /// The im2col'd input, `[group][window-block][k][32]`: per group
    /// one [`pack_rows`]-layout panel set (32 windows a block, the last
    /// block zero-padded).
    pub panels: &'a [f32],
    /// The unfolded weight matrix, synthesized for this one job: a
    /// backend that models weight storage rewrites it in place.
    pub weights: WeightMatrix,
}

impl MvmJob<'_> {
    /// The kernel over this job: `out[c][w] (= | +=)` the contraction of
    /// window `w` against weight column `c` over the rows `k`, for
    /// every column in `cols` (split at convolution group boundaries,
    /// each piece against its group's panels).
    pub fn gemm(&self, cols: Range<usize>, k: Range<usize>, out: &mut [f32], accumulate: bool) {
        let per_group = self.width / self.groups;
        let group_len = self.windows.div_ceil(NR) * self.height * NR;
        let tier = Tier::widest();
        let mut c = cols.start;
        while c < cols.end {
            let g = c / per_group;
            let piece = c..cols.end.min((g + 1) * per_group);
            c = piece.end;
            let panels = &self.panels[g * group_len..(g + 1) * group_len];
            gemm(
                tier,
                &self.weights,
                piece,
                panels,
                self.windows,
                k.clone(),
                out,
                accumulate,
            );
        }
    }
}

/// An MVM computation strategy: direct f32 matmul (reference) or the
/// compiled per-crossbar layout (mapped).
pub trait MvmBackend {
    /// Computes the pre-bias output, `[width × windows]`: one
    /// contiguous row of windows per output column (CHW for a
    /// convolution).
    fn mvm(&mut self, job: &mut MvmJob) -> Result<Vec<f32>, ExecError>;
}

/// Synthesizes the unfolded weight matrix of an MVM node
/// (column-major; element `(r, c)` has synthesis index `c*height + r`
/// under tag `"<node>/w"`), scaled by `1/sqrt(height)` so activations
/// stay O(1) through deep networks.
pub(crate) fn synth_weights(seed: u64, name: &str, height: usize, width: usize) -> WeightMatrix {
    let scale = 1.0 / (height.max(1) as f32).sqrt();
    let mut cols = vec![0.0; height * width];
    synth_fill(Tier::widest(), seed, &format!("{name}/w"), scale, &mut cols);
    WeightMatrix {
        height,
        width,
        cols,
    }
}

/// [`synth::fill`] run on `tier` (or the widest narrower tier the CPU
/// has): the same bits as [`synth::values`] on every tier. AVX-512DQ
/// brings the 64-bit vector multiply the hash is made of; AVX2
/// emulates it from 32-bit ones.
#[allow(unsafe_code)]
fn synth_fill(tier: Tier, seed: u64, tag: &str, scale: f32, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512
        && std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: the running CPU supports AVX-512F and AVX-512DQ, checked above.
        return unsafe { synth_fill_avx512(seed, tag, scale, out) };
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && std::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked on the line above.
        return unsafe { synth_fill_avx2(seed, tag, scale, out) };
    }
    synth::fill(seed, tag, scale, out)
}

/// [`synth::fill`] with AVX-512F and AVX-512DQ enabled: call it only on a
/// CPU that has both.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn synth_fill_avx512(seed: u64, tag: &str, scale: f32, out: &mut [f32]) {
    synth::fill(seed, tag, scale, out)
}

/// [`synth::fill`] with AVX2 enabled: call it only on a CPU that has
/// AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn synth_fill_avx2(seed: u64, tag: &str, scale: f32, out: &mut [f32]) {
    synth::fill(seed, tag, scale, out)
}

/// Synthesizes an MVM node's bias vector (tag `"<node>/b"`).
pub(crate) fn synth_bias(seed: u64, name: &str, width: usize) -> Vec<f32> {
    synth::values(seed, &format!("{name}/b"), width, 0.1)
}

/// Synthesizes a graph input tensor (tag `"<node>/x"`).
pub fn synth_input(seed: u64, name: &str, len: usize) -> Vec<f32> {
    synth::values(seed, &format!("{name}/x"), len, 1.0)
}

/// The concrete extents of a shape; the engine rejects symbolic graphs
/// up front, so a symbolic dim here is an internal inconsistency.
fn fixed_dims(node: &str, shape: &Shape) -> Result<Vec<usize>, ExecError> {
    shape
        .dims()
        .iter()
        .map(|d| match d {
            pimcomp_ir::Dim::Fixed(n) => Ok(*n),
            pimcomp_ir::Dim::Seq => Err(ExecError::ShapeMismatch {
                node: node.to_string(),
                detail: "unexpected symbolic `seq` dimension".to_string(),
            }),
        })
        .collect()
}

/// Validates an (artifact-loaded, therefore untrusted) graph for
/// execution: concrete shapes, in-range node ids, correct arities, an
/// acyclic topology, and recorded output shapes that agree with shape
/// inference. Returns a deterministic topological order.
fn validate_for_execution(graph: &Graph) -> Result<Vec<usize>, ExecError> {
    if graph.has_symbolic_dims() {
        return Err(ExecError::SymbolicShape {
            model: graph.name().to_string(),
        });
    }
    let nodes = graph.nodes();
    let n = nodes.len();
    for (i, node) in nodes.iter().enumerate() {
        if node.id.0 != i {
            return Err(ExecError::InvalidGraph {
                detail: format!("node `{}` has id {} at position {i}", node.name, node.id.0),
            });
        }
        for input in &node.inputs {
            if input.0 >= n {
                return Err(ExecError::NodeOutOfRange {
                    node: node.name.clone(),
                    id: input.0,
                    count: n,
                });
            }
        }
        match node.op.arity() {
            Some(a) if node.inputs.len() != a => {
                return Err(ExecError::InvalidGraph {
                    detail: format!(
                        "node `{}` ({}) needs {a} inputs, has {}",
                        node.name,
                        node.op.mnemonic(),
                        node.inputs.len()
                    ),
                })
            }
            None if node.inputs.len() < 2 => {
                return Err(ExecError::InvalidGraph {
                    detail: format!("variadic node `{}` has fewer than 2 inputs", node.name),
                })
            }
            _ => {}
        }
        // Recorded shapes must agree with what the operator computes on
        // its inputs' recorded shapes — a tampered artifact cannot
        // smuggle an inconsistent tensor size past this.
        let input_shapes: Vec<&Shape> = node
            .inputs
            .iter()
            .map(|i| &nodes[i.0].output_shape)
            .collect();
        let inferred = infer_output_shape(&node.name, &node.op, &input_shapes).map_err(|e| {
            ExecError::ShapeMismatch {
                node: node.name.clone(),
                detail: e.to_string(),
            }
        })?;
        if inferred != node.output_shape {
            return Err(ExecError::ShapeMismatch {
                node: node.name.clone(),
                detail: format!(
                    "recorded output shape {:?} but operator computes {:?}",
                    node.output_shape, inferred
                ),
            });
        }
        // Every element count execution allocates, multiplied out
        // checked: artifact-controlled extents must not wrap a size.
        let overflow = || ExecError::ShapeMismatch {
            node: node.name.clone(),
            detail: "element count overflows usize".to_string(),
        };
        let numel = node.output_shape.try_numel().ok_or_else(overflow)?;
        let groups = match &node.op {
            Op::Conv2d(c) => {
                let taps = c.kernel.0.checked_mul(c.kernel.1);
                taps.and_then(|t| t.checked_mul(c.in_channels))
                    .ok_or_else(overflow)?;
                c.groups
            }
            _ => 1,
        };
        if let Some((height, width)) = node.op.weight_matrix() {
            // One product bounds the weight matrix, the im2col panels
            // (windows padded to a block, per group) and the mapped
            // backend's per-slice partials.
            (numel / width.max(1))
                .checked_add(NR)
                .and_then(|w| w.checked_mul(height)?.checked_mul(width.max(groups)))
                .ok_or_else(overflow)?;
        }
    }

    // Kahn's algorithm, smallest-id-first among ready nodes: a
    // deterministic order, with cycle detection (graph.topo_order()
    // assumes a validated graph; this path cannot).
    let mut indegree = vec![0usize; n];
    for node in nodes {
        for _ in &node.inputs {
            indegree[node.id.0] += 1;
        }
    }
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for node in nodes {
        for input in &node.inputs {
            successors[input.0].push(node.id.0);
        }
    }
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        order.push(i);
        for &s in &successors[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(std::cmp::Reverse(s));
            }
        }
    }
    if order.len() != n {
        return Err(ExecError::InvalidGraph {
            detail: "graph contains a cycle".to_string(),
        });
    }
    Ok(order)
}

/// Executes a graph with deterministically synthesized inputs and
/// weights, computing MVM nodes through `backend`. Returns the graph's
/// output tensors (nodes with no successors) as `(name, tensor)`
/// pairs in ascending node-id order.
pub fn run_graph(
    graph: &Graph,
    seed: u64,
    backend: &mut dyn MvmBackend,
) -> Result<Vec<(String, Tensor)>, ExecError> {
    let order = validate_for_execution(graph)?;
    let nodes = graph.nodes();
    let n = nodes.len();

    // Reference counts so large activations free as soon as their last
    // consumer has run; graph outputs keep one extra reference.
    let mut refs = vec![0usize; n];
    for node in nodes {
        for input in &node.inputs {
            refs[input.0] += 1;
        }
    }
    let output_ids: Vec<usize> = (0..n).filter(|&i| refs[i] == 0).collect();
    for &i in &output_ids {
        refs[i] += 1;
    }

    let mut values: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
    for &i in &order {
        let node = &nodes[i];
        let inputs: Vec<&Tensor> = node
            .inputs
            .iter()
            .map(|id| {
                values[id.0]
                    .as_ref()
                    .ok_or_else(|| ExecError::InvalidGraph {
                        detail: format!("node `{}` consumed before production", nodes[id.0].name),
                    })
            })
            .collect::<Result<_, _>>()?;
        let out = eval_node(node, &inputs, seed, backend)?;
        let out_dims = fixed_dims(&node.name, &node.output_shape)?;
        if out.dims != out_dims {
            return Err(ExecError::ShapeMismatch {
                node: node.name.clone(),
                detail: format!("kernel produced {:?}, expected {:?}", out.dims, out_dims),
            });
        }
        drop(inputs);
        values[i] = Some(out);
        for id in &node.inputs {
            refs[id.0] -= 1;
            if refs[id.0] == 0 {
                values[id.0] = None;
            }
        }
    }

    Ok(output_ids
        .into_iter()
        .map(|i| {
            let t = values[i].take().expect("output tensor retained");
            (nodes[i].name.clone(), t)
        })
        .collect())
}

/// Evaluates one node.
fn eval_node(
    node: &Node,
    inputs: &[&Tensor],
    seed: u64,
    backend: &mut dyn MvmBackend,
) -> Result<Tensor, ExecError> {
    let out_dims = fixed_dims(&node.name, &node.output_shape)?;
    let shape_err = |detail: String| ExecError::ShapeMismatch {
        node: node.name.clone(),
        detail,
    };
    match &node.op {
        Op::Input { .. } => {
            let len = out_dims.iter().product();
            Ok(Tensor::new(out_dims, synth_input(seed, &node.name, len)))
        }
        Op::Conv2d(_) | Op::Linear(_) | Op::MatMul(_) => eval_mvm(node, inputs[0], seed, backend),
        Op::Pool(p) => {
            let x = inputs[0];
            let (c, ih, iw) = chw(x).map_err(shape_err)?;
            let (oh, ow) = (out_dims[1], out_dims[2]);
            let mut out = Tensor::zeros(out_dims);
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let y0 = (oy * p.stride.0) as isize - p.padding.0 as isize;
                        let x0 = (ox * p.stride.1) as isize - p.padding.1 as isize;
                        let mut acc = match p.kind {
                            PoolKind::Max => f32::NEG_INFINITY,
                            PoolKind::Avg => 0.0,
                        };
                        let mut count = 0usize;
                        for ky in 0..p.kernel.0 {
                            for kx in 0..p.kernel.1 {
                                let (y, xx) = (y0 + ky as isize, x0 + kx as isize);
                                if y < 0 || xx < 0 || y >= ih as isize || xx >= iw as isize {
                                    continue;
                                }
                                let v = x.data[(ch * ih + y as usize) * iw + xx as usize];
                                match p.kind {
                                    PoolKind::Max => acc = acc.max(v),
                                    PoolKind::Avg => acc += v,
                                }
                                count += 1;
                            }
                        }
                        // Padding elements are excluded: max over an
                        // empty window is 0, avg divides by the
                        // in-bounds count.
                        out.data[(ch * oh + oy) * ow + ox] = match p.kind {
                            PoolKind::Max if count == 0 => 0.0,
                            PoolKind::Max => acc,
                            PoolKind::Avg if count == 0 => 0.0,
                            PoolKind::Avg => acc / count as f32,
                        };
                    }
                }
            }
            Ok(out)
        }
        Op::GlobalAvgPool => {
            let x = inputs[0];
            let (c, ih, iw) = chw(x).map_err(shape_err)?;
            let hw = (ih * iw) as f32;
            let data = (0..c)
                .map(|ch| x.data[ch * ih * iw..(ch + 1) * ih * iw].iter().sum::<f32>() / hw)
                .collect();
            Ok(Tensor::new(out_dims, data))
        }
        Op::Activation(a) => {
            let f: fn(f32) -> f32 = match a {
                Activation::Relu => |v| v.max(0.0),
                Activation::Sigmoid => |v| 1.0 / (1.0 + (-v).exp()),
                Activation::Tanh => |v| v.tanh(),
                Activation::Gelu => gelu,
            };
            Ok(Tensor::new(
                out_dims,
                inputs[0].data.iter().map(|&v| f(v)).collect(),
            ))
        }
        Op::Concat => {
            // Channel-wise concatenation of equal-extent CHW maps.
            let mut data = Vec::with_capacity(out_dims.iter().product());
            for x in inputs {
                chw(x).map_err(shape_err)?;
                data.extend_from_slice(&x.data);
            }
            Ok(Tensor::new(out_dims, data))
        }
        Op::Eltwise(kind) => {
            let (a, b) = (inputs[0], inputs[1]);
            if a.dims != b.dims {
                return Err(shape_err(format!(
                    "eltwise operands {:?} vs {:?}",
                    a.dims, b.dims
                )));
            }
            let data = a
                .data
                .iter()
                .zip(&b.data)
                .map(|(&x, &y)| match kind {
                    pimcomp_ir::EltwiseKind::Add => x + y,
                    pimcomp_ir::EltwiseKind::Mul => x * y,
                })
                .collect();
            Ok(Tensor::new(out_dims, data))
        }
        Op::Flatten => Ok(Tensor::new(out_dims, inputs[0].data.clone())),
        Op::Softmax => {
            let x = inputs[0];
            let last = *x.dims.last().ok_or_else(|| shape_err("rank 0".into()))?;
            let mut data = x.data.clone();
            for row in data.chunks_mut(last.max(1)) {
                softmax_row(row);
            }
            Ok(Tensor::new(out_dims, data))
        }
        // Inference-time identities: the compiler folds batch-norm into
        // the adjacent convolution during normalization (the IR carries
        // no BN statistics), and dropout is a no-op outside training.
        Op::BatchNorm | Op::Dropout => Ok(Tensor::new(out_dims, inputs[0].data.clone())),
        Op::Lrn(l) => {
            let x = inputs[0];
            let (c, ih, iw) = chw(x).map_err(shape_err)?;
            let mut out = Tensor::zeros(out_dims);
            let half_lo = (l.size - 1) / 2;
            let half_hi = l.size - 1 - half_lo;
            for ch in 0..c {
                let lo = ch.saturating_sub(half_lo);
                let hi = (ch + half_hi).min(c - 1);
                for p in 0..ih * iw {
                    let sq: f64 = (lo..=hi)
                        .map(|cc| {
                            let v = x.data[cc * ih * iw + p] as f64;
                            v * v
                        })
                        .sum();
                    // ONNX LRN: x / (bias + alpha/size * sq_sum)^beta
                    // with bias = 1.
                    let denom = (1.0 + l.alpha / l.size as f64 * sq).powf(l.beta);
                    out.data[ch * ih * iw + p] = (x.data[ch * ih * iw + p] as f64 / denom) as f32;
                }
            }
            Ok(out)
        }
        Op::Pad(p) => {
            let x = inputs[0];
            let (c, ih, iw) = chw(x).map_err(shape_err)?;
            let (oh, ow) = (out_dims[1], out_dims[2]);
            let mut out = Tensor::zeros(out_dims);
            for ch in 0..c {
                for y in 0..ih {
                    for xx in 0..iw {
                        out.data[(ch * oh + y + p.height) * ow + xx + p.width] =
                            x.data[(ch * ih + y) * iw + xx];
                    }
                }
            }
            Ok(out)
        }
        Op::Bmm(b) => {
            let (a, bb) = (inputs[0], inputs[1]);
            let (m, k) = rank2(a).map_err(shape_err)?;
            let (bd0, bd1) = rank2(bb).map_err(shape_err)?;
            let nn = if b.transpose_b { bd0 } else { bd1 };
            let bk = if b.transpose_b { bd1 } else { bd0 };
            if bk != k {
                return Err(shape_err(format!("bmm contraction {k} vs {bk}")));
            }
            let scale = if b.scaled {
                1.0 / (k as f32).sqrt()
            } else {
                1.0
            };
            let mut data = vec![0.0f32; m * nn];
            for i in 0..m {
                for j in 0..nn {
                    let mut acc = 0.0f32;
                    for t in 0..k {
                        let bv = if b.transpose_b {
                            bb.data[j * k + t]
                        } else {
                            bb.data[t * nn + j]
                        };
                        acc += a.data[i * k + t] * bv;
                    }
                    data[i * nn + j] = acc * scale;
                }
            }
            Ok(Tensor::new(out_dims, data))
        }
        Op::LayerNorm => {
            let x = inputs[0];
            let last = *x.dims.last().ok_or_else(|| shape_err("rank 0".into()))?;
            let mut data = x.data.clone();
            for row in data.chunks_mut(last.max(1)) {
                let mean = row.iter().sum::<f32>() / row.len() as f32;
                let var =
                    row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / row.len() as f32;
                let inv = 1.0 / (var + 1e-5).sqrt();
                for v in row {
                    *v = (*v - mean) * inv;
                }
            }
            Ok(Tensor::new(out_dims, data))
        }
        Op::Transpose => {
            let x = inputs[0];
            if x.dims.len() < 2 {
                return Err(shape_err("transpose needs rank >= 2".into()));
            }
            let (r, c) = (x.dims[x.dims.len() - 2], x.dims[x.dims.len() - 1]);
            let batch = x.data.len() / (r * c).max(1);
            let mut data = vec![0.0f32; x.data.len()];
            for b in 0..batch {
                for i in 0..r {
                    for j in 0..c {
                        data[b * r * c + j * r + i] = x.data[b * r * c + i * c + j];
                    }
                }
            }
            Ok(Tensor::new(out_dims, data))
        }
        Op::Reshape { .. } => Ok(Tensor::new(out_dims, inputs[0].data.clone())),
        Op::Attention(att) => {
            let (q, k, v) = (inputs[0], inputs[1], inputs[2]);
            let (s, h) = rank2(q).map_err(shape_err)?;
            if att.heads == 0 || h % att.heads != 0 {
                return Err(shape_err(format!("heads {} !| hidden {h}", att.heads)));
            }
            let d = h / att.heads;
            let scale = 1.0 / (d as f32).sqrt();
            let mut out = vec![0.0f32; s * h];
            let mut scores = vec![0.0f32; s];
            for head in 0..att.heads {
                let o = head * d;
                for i in 0..s {
                    for (j, sc) in scores.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for t in 0..d {
                            acc += q.data[i * h + o + t] * k.data[j * h + o + t];
                        }
                        *sc = acc * scale;
                    }
                    softmax_row(&mut scores);
                    for t in 0..d {
                        let mut acc = 0.0f32;
                        for (j, sc) in scores.iter().enumerate() {
                            acc += sc * v.data[j * h + o + t];
                        }
                        out[i * h + o + t] = acc;
                    }
                }
            }
            Ok(Tensor::new(out_dims, out))
        }
        other => Err(ExecError::UnsupportedOp {
            node: node.name.clone(),
            op: other.mnemonic().to_string(),
        }),
    }
}

/// Evaluates an MVM node through the backend: unfold the input into
/// panels, synthesize the weight matrix, multiply, add bias. The
/// backend's `[column][window]` output is the CHW (or flat) output
/// layout already; only a token stream needs transposing back.
fn eval_mvm(
    node: &Node,
    input: &Tensor,
    seed: u64,
    backend: &mut dyn MvmBackend,
) -> Result<Tensor, ExecError> {
    let shape_err = |detail: String| ExecError::ShapeMismatch {
        node: node.name.clone(),
        detail,
    };
    let out_dims = fixed_dims(&node.name, &node.output_shape)?;
    let (height, width) = node
        .op
        .weight_matrix()
        .ok_or_else(|| shape_err("not an MVM operator".into()))?;
    let has_bias = node.op.has_bias().unwrap_or(false);
    let weights = synth_weights(seed, &node.name, height, width);
    let bias = if has_bias {
        synth_bias(seed, &node.name, width)
    } else {
        vec![0.0; width]
    };
    // Sliding windows for a convolution, sequence positions for a
    // matmul, 1 for fully connected.
    let windows = out_dims.iter().product::<usize>() / width.max(1);

    let (groups, panels) = match &node.op {
        Op::Conv2d(c) => {
            let (_, ih, iw) = chw(input).map_err(&shape_err)?;
            let panels = im2col(c, &input.data, (ih, iw), (out_dims[1], out_dims[2]));
            (c.groups, panels)
        }
        Op::Linear(_) | Op::MatMul(_) => {
            if input.data.len() != windows * height {
                return Err(shape_err(format!(
                    "input of {} values is not {windows} rows of {height}",
                    input.data.len()
                )));
            }
            (1, pack_rows(&input.data, windows, height))
        }
        _ => unreachable!("eval_mvm called on non-MVM op"),
    };
    let mut job = MvmJob {
        node,
        windows,
        height,
        width,
        groups,
        panels: &panels,
        weights,
    };
    let mut out = backend.mvm(&mut job)?;
    for (row, b) in out.chunks_exact_mut(windows.max(1)).zip(&bias) {
        for v in row {
            *v += b;
        }
    }
    if matches!(node.op, Op::MatMul(_)) {
        let by_column = out;
        out = vec![0.0f32; by_column.len()];
        for (c, row) in by_column.chunks_exact(windows.max(1)).enumerate() {
            for (w, &v) in row.iter().enumerate() {
                out[w * width + c] = v;
            }
        }
    }
    Ok(Tensor::new(out_dims, out))
}

/// Unfolds the CHW `input` (`ih × iw` per channel) of convolution
/// `conv` with an `oh × ow` output into the kernel's panels,
/// `[group][window-block][k][NR]`: row `k = (channel, ky, kx)` of window
/// `(oy, ox)` holds `input[channel][oy·sy + ky − py][ox·sx + kx − px]`,
/// or stays 0 where that lies in the padding.
///
/// It fills one panel row at a time. Per `kx` the in-bounds `ox` are
/// one range, so an output row's share of a panel row is one strided
/// run of an input row, copied in pieces that stay inside one block.
fn im2col(
    conv: &Conv2d,
    input: &[f32],
    (ih, iw): (usize, usize),
    (oh, ow): (usize, usize),
) -> Vec<f32> {
    let ((kh, kw), (sy, sx), (py, px)) = (conv.kernel, conv.stride, conv.padding);
    let cpg = conv.in_channels / conv.groups;
    let height = conv.weight_matrix_height();
    let group_len = (oh * ow).div_ceil(NR) * height * NR;
    let mut panels = vec![0.0f32; conv.groups * group_len];
    for (g, group) in panels.chunks_exact_mut(group_len.max(1)).enumerate() {
        for cl in 0..cpg {
            let plane = &input[(g * cpg + cl) * ih * iw..][..ih * iw];
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (cl * kh + ky) * kw + kx;
                    // `0 <= ox·sx + kx − px < iw` for `ox` in `lo..hi`.
                    let lo = px.saturating_sub(kx).div_ceil(sx);
                    let hi = (iw + px).saturating_sub(kx).div_ceil(sx).min(ow);
                    for oy in 0..oh {
                        // A row in the top padding wraps past `ih`.
                        let y = (oy * sy + ky).wrapping_sub(py);
                        if y >= ih {
                            continue;
                        }
                        let src = &plane[y * iw..(y + 1) * iw];
                        let mut ox = lo;
                        while ox < hi {
                            let w = oy * ow + ox;
                            let n = (hi - ox).min(NR - w % NR);
                            let dst = &mut group[(w / NR * height + r) * NR + w % NR..][..n];
                            let x = ox * sx + kx - px;
                            if sx == 1 {
                                dst.copy_from_slice(&src[x..x + n]);
                            } else {
                                for (d, s) in dst.iter_mut().zip(src[x..].iter().step_by(sx)) {
                                    *d = *s;
                                }
                            }
                            ox += n;
                        }
                    }
                }
            }
        }
    }
    panels
}

/// GELU, tanh approximation (the form PIM VFU libraries implement).
fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// In-place numerically stable softmax of one row.
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Interprets a tensor as `[C, H, W]`.
fn chw(t: &Tensor) -> Result<(usize, usize, usize), String> {
    match t.dims[..] {
        [c, h, w] => Ok((c, h, w)),
        _ => Err(format!("expected CHW feature map, got {:?}", t.dims)),
    }
}

/// Interprets a tensor as `[rows, cols]`.
fn rank2(t: &Tensor) -> Result<(usize, usize), String> {
    match t.dims[..] {
        [r, c] => Ok((r, c)),
        _ => Err(format!("expected rank-2 tensor, got {:?}", t.dims)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tier_synthesizes_the_scalar_bits() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Odd lengths, so that vector loops and their scalar tails both
        // run, and the scales the walker uses.
        for (seed, tag, len, scale) in [
            (1, "conv1/w", 1, 1.0),
            (7, "layer1.0.conv1/w", 31, 1.0 / 576f32.sqrt()),
            (7, "fc/b", 33, 0.1),
            (u64::MAX, "input/x", 257, 1.0),
            (3, "", 1001, 1.0 / 3f32.sqrt()),
        ] {
            let scalar: Vec<f32> = (0..len)
                .map(|i| scale * synth::unit(seed, tag, i))
                .collect();
            assert_eq!(bits(&synth::values(seed, tag, len, scale)), bits(&scalar));
            for tier in Tier::available() {
                let mut out = vec![f32::NAN; len];
                synth_fill(tier, seed, tag, scale, &mut out);
                assert_eq!(bits(&out), bits(&scalar), "{tier:?}: {tag} x {len}");
            }
        }
    }

    /// The panels of [`im2col`] built element by element: per group,
    /// one row-major `[window][k]` matrix, then [`pack_rows`].
    fn naive_im2col(
        conv: &Conv2d,
        input: &[f32],
        ih: usize,
        iw: usize,
        oh: usize,
        ow: usize,
    ) -> Vec<f32> {
        let ((kh, kw), (sy, sx), (py, px)) = (conv.kernel, conv.stride, conv.padding);
        let cpg = conv.in_channels / conv.groups;
        let height = cpg * kh * kw;
        let mut panels = Vec::new();
        for g in 0..conv.groups {
            let mut rows = vec![0.0f32; oh * ow * height];
            for oy in 0..oh {
                for ox in 0..ow {
                    for cl in 0..cpg {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let y = (oy * sy + ky) as isize - py as isize;
                                let x = (ox * sx + kx) as isize - px as isize;
                                if (0..ih as isize).contains(&y) && (0..iw as isize).contains(&x) {
                                    let k = (cl * kh + ky) * kw + kx;
                                    rows[(oy * ow + ox) * height + k] =
                                        input[((g * cpg + cl) * ih + y as usize) * iw + x as usize];
                                }
                            }
                        }
                    }
                }
            }
            panels.extend(pack_rows(&rows, oh * ow, height));
        }
        panels
    }

    #[test]
    fn im2col_matches_a_per_element_unfold() {
        for stride in [1, 2] {
            for padding in [0, 1, 3] {
                for kernel in [1, 3, 7] {
                    for groups in [1, 2] {
                        // Output widths 7, 14 and 33 make runs that end
                        // mid-block and cross block boundaries; 3 × 7 is
                        // a layer of fewer than 32 windows.
                        for (oh, ow) in [(3, 7), (2, 14), (3, 33), (1, 33)] {
                            // The input extent that gives `o` outputs, or
                            // one pixel where the padding alone covers
                            // the kernel (its output is then taller).
                            let extent = |o: usize| {
                                ((o - 1) * stride + kernel)
                                    .saturating_sub(2 * padding)
                                    .max(1)
                            };
                            let (ih, iw) = (extent(oh), extent(ow));
                            let oh = (ih + 2 * padding - kernel) / stride + 1;
                            assert_eq!((iw + 2 * padding - kernel) / stride + 1, ow);
                            let conv = Conv2d {
                                in_channels: 2 * groups,
                                out_channels: 2 * groups,
                                kernel: (kernel, kernel),
                                stride: (stride, stride),
                                padding: (padding, padding),
                                groups,
                                bias: false,
                            };
                            let input: Vec<f32> =
                                (0..2 * groups * ih * iw).map(|i| i as f32 + 1.0).collect();
                            assert_eq!(
                                im2col(&conv, &input, (ih, iw), (oh, ow)),
                                naive_im2col(&conv, &input, ih, iw, oh, ow),
                                "stride {stride} padding {padding} kernel {kernel} groups {groups} \
                                 input {ih}x{iw} output {oh}x{ow}"
                            );
                        }
                    }
                }
            }
        }
    }
}
