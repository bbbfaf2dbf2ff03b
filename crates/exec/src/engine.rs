//! The shared execution engine: the executor's own graph checks,
//! topological traversal, and the functional kernels for every non-MVM
//! operator.
//!
//! The reference interpreter and the mapped executor differ *only* in
//! how they compute the MVM operators (convolution, fully connected,
//! weight-stationary matmul); everything else — pooling, activations,
//! attention, normalization, data movement — runs on the VFU or in
//! local memory in both worlds and therefore executes through the exact
//! same kernel code here. The MVM strategy is injected as an
//! [`MvmBackend`], which receives the node as an [`MvmJob`] and returns
//! the pre-bias output, computing it tile pair by tile pair — a column
//! tile of the synthesized weight matrix against a window tile of the
//! im2col'd input panels — through calls into the one kernel
//! ([`MvmTile::gemm`]). This construction
//! guarantees that any differential disagreement between the two
//! executors is attributable to the compiled layout.

use crate::error::ExecError;
use crate::gemm::{gemm, pack_rows, Tier, NR};
use crate::tensor::Tensor;
use pimcomp_ir::{synth, Activation, Conv2d, Graph, Node, Op, PoolKind, Shape};
use std::ops::Range;

/// A column tile of one MVM node's unfolded stationary weight matrix,
/// stored column-major so a crossbar column (a row range of one output
/// column) is a contiguous slice.
pub struct WeightMatrix {
    /// Matrix height (contraction length).
    pub height: usize,
    /// The node's output columns this tile holds.
    pub columns: Range<usize>,
    /// Column-major elements: node column `c` is
    /// `cols[(c - columns.start) * height..][..height]`.
    pub cols: Vec<f32>,
}

/// How an MVM node is cut into tiles: weight tiles of whole columns, at
/// most `weights` elements each (at least one column), and panel tiles
/// of whole 32-window blocks across every group, at most `panels`
/// elements each (at least one block).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tiling {
    weights: usize,
    panels: usize,
}

impl Tiling {
    /// The executor's tiles: a weight tile of at most 1 MiB, which stays
    /// in a 2 MiB L2 beside one panel block of resnet18's widest layer
    /// (4608 rows, 576 KiB), and a panel tile of at most 2 MiB, which
    /// holds every window of that layer and of the layer before, so
    /// their panels are unfolded once however many weight tiles they
    /// have.
    pub(crate) const L2: Tiling = Tiling {
        weights: 1 << 18,
        panels: 1 << 19,
    };

    /// One column and one block a tile: every tile boundary there is.
    #[cfg(test)]
    pub(crate) const SMALLEST: Tiling = Tiling {
        weights: 1,
        panels: 1,
    };

    /// One tile a node.
    #[cfg(test)]
    pub(crate) const WHOLE: Tiling = Tiling {
        weights: usize::MAX,
        panels: usize::MAX,
    };

    /// The weight tiles of a `height × width` matrix.
    fn columns(self, height: usize, width: usize) -> impl DoubleEndedIterator<Item = Range<usize>> {
        let step = (self.weights / height.max(1)).max(1);
        (0..width)
            .step_by(step)
            .map(move |c| c..width.min(c + step))
    }

    /// The panel tiles of `windows` windows in blocks of `block`
    /// elements.
    fn windows(self, block: usize, windows: usize) -> impl Iterator<Item = Range<usize>> {
        let step = (self.panels / block.max(1)).max(1).saturating_mul(NR);
        (0..windows)
            .step_by(step)
            .map(move |w| w..windows.min(w + step))
    }
}

/// Where an MVM job's panels come from.
enum Unfold<'a> {
    /// A convolution's CHW input, `ih × iw` per channel, and its
    /// `oh × ow` output: [`im2col`].
    Conv {
        conv: &'a Conv2d,
        input: &'a [f32],
        in_hw: (usize, usize),
        out_hw: (usize, usize),
    },
    /// Row-major `[windows × height]` input rows: [`pack_rows`].
    Rows(&'a [f32]),
}

/// One MVM node handed to a backend: its seed-synthesized weight
/// matrix times its unfolded input, which the backend computes one
/// tile pair at a time ([`MvmJob::for_each_tile`]), so that no more
/// than one weight tile and one panel tile of the node exist at once.
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
    /// Convolution groups (1 for everything else).
    pub groups: usize,
    input: Unfold<'a>,
    seed: u64,
    tiling: Tiling,
    /// The weight tile.
    weights: WeightMatrix,
    /// The panel tile, and the windows it holds.
    panels: Vec<f32>,
    panel_windows: Range<usize>,
}

impl MvmJob<'_> {
    /// Synthesizes weight columns `columns` into the weight tile:
    /// element `(r, c)` has synthesis index `c*height + r` under tag
    /// `"<node>/w"`, scaled by `1/sqrt(height)` so activations stay O(1)
    /// through deep networks.
    fn synthesize(&mut self, columns: Range<usize>) {
        let height = self.height;
        let (tag, scale) = self.weight_tensor();
        let len = columns.len() * height;
        self.weights.cols.resize(len, 0.0);
        let start = columns.start * height;
        synth_fill(
            Tier::widest(),
            self.seed,
            &tag,
            scale,
            start,
            &mut self.weights.cols,
        );
        self.weights.columns = columns;
    }

    /// The synthesis tag and scale of the node's weights.
    fn weight_tensor(&self) -> (String, f32) {
        let scale = 1.0 / (self.height.max(1) as f32).sqrt();
        (format!("{}/w", self.node.name), scale)
    }

    /// Unfolds the input of `windows` into the panel tile.
    fn unfold(&mut self, windows: Range<usize>) {
        let height = self.height;
        let len = self.groups * windows.len().div_ceil(NR) * height * NR;
        self.panels.resize(len, 0.0);
        match self.input {
            Unfold::Conv {
                conv,
                input,
                in_hw,
                out_hw,
            } => im2col(
                conv,
                input,
                in_hw,
                out_hw,
                windows.clone(),
                &mut self.panels,
            ),
            Unfold::Rows(rows) => pack_rows(
                &rows[windows.start * height..windows.end * height],
                windows.len(),
                height,
                &mut self.panels,
            ),
        }
        self.panel_windows = windows;
    }

    /// The largest weight magnitude of the node, from the weights'
    /// draws alone: no weight is synthesized ([`synth::max_abs`]).
    pub(crate) fn max_abs_weight(&self) -> f32 {
        let (tag, scale) = self.weight_tensor();
        synth_max_abs(
            Tier::widest(),
            self.seed,
            &tag,
            scale,
            self.height * self.width,
        )
    }

    /// Runs `each` on every tile pair of the node: weight tiles outer,
    /// each passed to `rewrite` once, right after it is synthesized (a
    /// backend that models weight storage rewrites it in place), and
    /// panel tiles inner (a node of one panel tile is unfolded once).
    /// Every output cell belongs to exactly one tile pair.
    pub fn for_each_tile(
        &mut self,
        mut rewrite: impl FnMut(&mut [f32]),
        mut each: impl FnMut(&MvmTile<'_>),
    ) {
        let block = self.groups * self.height * NR;
        for columns in self.tiling.columns(self.height, self.width) {
            self.synthesize(columns);
            rewrite(&mut self.weights.cols);
            for windows in self.tiling.windows(block, self.windows) {
                if self.panel_windows != windows {
                    self.unfold(windows.clone());
                }
                each(&MvmTile {
                    width: self.width,
                    groups: self.groups,
                    stride: self.windows,
                    windows,
                    panels: &self.panels,
                    weights: &self.weights,
                });
            }
        }
    }
}

/// One tile pair of an [`MvmJob`]: a weight tile against a panel tile.
pub struct MvmTile<'a> {
    /// Weight-matrix width (the node's output columns across groups).
    pub width: usize,
    /// Convolution groups (1 for everything else). Output column `c`
    /// contracts against the panels of group `c / (width / groups)`.
    pub groups: usize,
    /// The node's windows: the length of one column of its
    /// `[column][window]` output.
    pub stride: usize,
    /// The windows the panels hold.
    pub windows: Range<usize>,
    /// The unfolded input of `windows`, `[group][window-block][k][32]`:
    /// per group one [`pack_rows`]-layout panel set (32 windows a block,
    /// the last block zero-padded).
    pub panels: &'a [f32],
    /// The weight tile.
    pub weights: &'a WeightMatrix,
}

impl MvmTile<'_> {
    /// The kernel over this tile pair: `out[c][w] (= | +=)` the
    /// contraction of window `w` against weight column `c` over the rows
    /// `k`, for every column in `cols` (which lie in the weight tile;
    /// split at convolution group boundaries, each piece against its
    /// group's panels) and every window of the panel tile. `out` is the
    /// node's `[column][window]` output.
    pub fn gemm(&self, cols: Range<usize>, k: Range<usize>, out: &mut [f32], accumulate: bool) {
        let per_group = self.width / self.groups;
        let group_len = self.windows.len().div_ceil(NR) * self.weights.height * NR;
        let tier = Tier::widest();
        let mut c = cols.start;
        while c < cols.end {
            let g = c / per_group;
            let piece = c..cols.end.min((g + 1) * per_group);
            c = piece.end;
            let panels = &self.panels[g * group_len..(g + 1) * group_len];
            gemm(
                tier,
                self.weights,
                piece,
                panels,
                self.windows.len(),
                k.clone(),
                out,
                (self.windows.start, self.stride),
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
    /// convolution), through kernel calls on the job's tile pairs.
    fn mvm(&mut self, job: &mut MvmJob) -> Result<Vec<f32>, ExecError>;
}

/// [`synth::fill`] run on `tier` (or the widest narrower tier the CPU
/// has): the same bits as [`synth::values`] on every tier. AVX-512DQ
/// brings the 64-bit vector multiply the hash is made of; AVX2
/// emulates it from 32-bit ones.
#[allow(unsafe_code)]
fn synth_fill(tier: Tier, seed: u64, tag: &str, scale: f32, start: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512
        && std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: the running CPU supports AVX-512F and AVX-512DQ, checked above.
        return unsafe { synth_fill_avx512(seed, tag, scale, start, out) };
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && std::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked on the line above.
        return unsafe { synth_fill_avx2(seed, tag, scale, start, out) };
    }
    synth::fill(seed, tag, scale, start, out)
}

/// [`synth::fill`] with AVX-512F and AVX-512DQ enabled: call it only on a
/// CPU that has both.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn synth_fill_avx512(seed: u64, tag: &str, scale: f32, start: usize, out: &mut [f32]) {
    synth::fill(seed, tag, scale, start, out)
}

/// [`synth::fill`] with AVX2 enabled: call it only on a CPU that has
/// AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn synth_fill_avx2(seed: u64, tag: &str, scale: f32, start: usize, out: &mut [f32]) {
    synth::fill(seed, tag, scale, start, out)
}

/// [`synth::max_abs`] at the widest vector tier `tier` allows on this
/// CPU, like [`synth_fill`].
#[allow(unsafe_code)]
fn synth_max_abs(tier: Tier, seed: u64, tag: &str, scale: f32, len: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512
        && std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: the running CPU supports AVX-512F and AVX-512DQ, checked above.
        return unsafe { synth_max_abs_avx512(seed, tag, scale, len) };
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && std::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked on the line above.
        return unsafe { synth_max_abs_avx2(seed, tag, scale, len) };
    }
    synth::max_abs(seed, tag, scale, len)
}

/// [`synth::max_abs`] with AVX-512F and AVX-512DQ enabled: call it only
/// on a CPU that has both.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn synth_max_abs_avx512(seed: u64, tag: &str, scale: f32, len: usize) -> f32 {
    synth::max_abs(seed, tag, scale, len)
}

/// [`synth::max_abs`] with AVX2 enabled: call it only on a CPU that has
/// AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn synth_max_abs_avx2(seed: u64, tag: &str, scale: f32, len: usize) -> f32 {
    synth::max_abs(seed, tag, scale, len)
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

/// What the executor checks beyond the [`Graph`] invariants: concrete
/// shapes, and an allocation bound of its own. Every graph is validated
/// where it is built or deserialized — structure, recorded shapes,
/// extents — so this is all that is left to refuse.
fn validate_for_execution(graph: &Graph) -> Result<(), ExecError> {
    if graph.has_symbolic_dims() {
        return Err(ExecError::SymbolicShape {
            model: graph.name().to_string(),
        });
    }
    for node in graph.nodes() {
        let Some((height, width)) = node.op.weight_matrix() else {
            continue;
        };
        let groups = match &node.op {
            Op::Conv2d(c) => c.groups,
            _ => 1,
        };
        // An MVM node allocates its output, at 8 bits the mapped
        // backend's per-slice partials (at most `height` outputs' worth,
        // of which the output is the first), one weight tile (at most
        // the whole matrix) and one panel tile (at most every group's
        // panels, windows padded to a block). One product bounds them
        // all; the graph bounds the output's element count.
        (node.output_shape.numel() / width.max(1))
            .checked_add(NR)
            .and_then(|w| w.checked_mul(height)?.checked_mul(width.max(groups)))
            .ok_or_else(|| ExecError::ShapeMismatch {
                node: node.name.clone(),
                detail: "the tile allocation overflows usize".to_string(),
            })?;
    }
    Ok(())
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
    run_tiled(graph, seed, Tiling::L2, backend)
}

/// [`run_graph`] with every MVM node cut into `tiling`'s tiles.
pub(crate) fn run_tiled(
    graph: &Graph,
    seed: u64,
    tiling: Tiling,
    backend: &mut dyn MvmBackend,
) -> Result<Vec<(String, Tensor)>, ExecError> {
    validate_for_execution(graph)?;
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
    for id in graph.topo_order() {
        let (i, node) = (id.0, graph.node(id));
        let inputs: Vec<&Tensor> = node
            .inputs
            .iter()
            .map(|id| values[id.0].as_ref().expect("inputs run first"))
            .collect();
        let out = eval_node(node, &inputs, seed, tiling, backend)?;
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
    tiling: Tiling,
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
        Op::Conv2d(_) | Op::Linear(_) | Op::MatMul(_) => {
            eval_mvm(node, inputs[0], seed, tiling, backend)
        }
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
            // One loop per function, so that each inlines its function
            // instead of calling it through a pointer per element.
            fn map(x: &[f32], f: impl Fn(f32) -> f32) -> Vec<f32> {
                x.iter().map(|&v| f(v)).collect()
            }
            let x = &inputs[0].data;
            let data = match a {
                Activation::Relu => map(x, |v| v.max(0.0)),
                Activation::Sigmoid => map(x, |v| 1.0 / (1.0 + (-v).exp())),
                Activation::Tanh => map(x, f32::tanh),
                Activation::Gelu => map(x, gelu),
            };
            Ok(Tensor::new(out_dims, data))
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

/// Evaluates an MVM node through the backend, which multiplies the
/// synthesized weights into the unfolded input one tile pair at a time
/// (see [`MvmJob`]), then adds the bias. The backend's
/// `[column][window]` output is the CHW (or flat) output layout already;
/// only a token stream needs transposing back.
fn eval_mvm(
    node: &Node,
    input: &Tensor,
    seed: u64,
    tiling: Tiling,
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
    // Sliding windows for a convolution, sequence positions for a
    // matmul, 1 for fully connected.
    let windows = out_dims.iter().product::<usize>() / width.max(1);

    let (groups, unfold) = match &node.op {
        Op::Conv2d(conv) => {
            let (_, ih, iw) = chw(input).map_err(&shape_err)?;
            let unfold = Unfold::Conv {
                conv,
                input: &input.data,
                in_hw: (ih, iw),
                out_hw: (out_dims[1], out_dims[2]),
            };
            (conv.groups, unfold)
        }
        Op::Linear(_) | Op::MatMul(_) => {
            if input.data.len() != windows * height {
                return Err(shape_err(format!(
                    "input of {} values is not {windows} rows of {height}",
                    input.data.len()
                )));
            }
            (1, Unfold::Rows(&input.data))
        }
        _ => unreachable!("eval_mvm called on non-MVM op"),
    };
    let mut job = MvmJob {
        node,
        windows,
        height,
        width,
        groups,
        input: unfold,
        seed,
        tiling,
        weights: WeightMatrix {
            height,
            columns: 0..0,
            cols: Vec::new(),
        },
        panels: Vec::new(),
        panel_windows: 0..0,
    };
    let mut out = backend.mvm(&mut job)?;
    drop(job);
    // A node without a bias adds zeros, which turn every -0.0 into +0.0.
    let bias = if node.op.has_bias().unwrap_or(false) {
        synth_bias(seed, &node.name, width)
    } else {
        vec![0.0; width]
    };
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

/// Unfolds windows `windows` (which start at a multiple of `NR`) of the
/// CHW `input` (`ih × iw` per channel) of convolution `conv` with an
/// `oh × ow` output into the kernel's panels, `[group][window-block][k][NR]`
/// over those windows' blocks: the first `groups · blocks · height · NR`
/// elements of `panels`. Row `k = (channel, ky, kx)` of window
/// `(oy, ox)` holds `input[channel][oy·sy + ky − py][ox·sx + kx − px]`,
/// or 0 where that lies in the padding.
///
/// It fills one panel row at a time. Per `kx` the in-bounds `ox` are
/// one range, so an output row's share of a panel row is one strided
/// run of an input row, copied in pieces that stay inside one block.
fn im2col(
    conv: &Conv2d,
    input: &[f32],
    (ih, iw): (usize, usize),
    (oh, ow): (usize, usize),
    windows: Range<usize>,
    panels: &mut [f32],
) {
    let ((kh, kw), (sy, sx), (py, px)) = (conv.kernel, conv.stride, conv.padding);
    let cpg = conv.in_channels / conv.groups;
    let height = conv.weight_matrix_height();
    let group_len = windows.len().div_ceil(NR) * height * NR;
    let panels = &mut panels[..conv.groups * group_len];
    panels.fill(0.0);
    if windows.is_empty() {
        return;
    }
    // The output rows the windows touch.
    let rows = windows.start / ow..windows.end.div_ceil(ow).min(oh);
    for (g, group) in panels.chunks_exact_mut(group_len.max(1)).enumerate() {
        for cl in 0..cpg {
            let plane = &input[(g * cpg + cl) * ih * iw..][..ih * iw];
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (cl * kh + ky) * kw + kx;
                    // `0 <= ox·sx + kx − px < iw` for `ox` in `lo..hi`.
                    let lo = px.saturating_sub(kx).div_ceil(sx);
                    let hi = (iw + px).saturating_sub(kx).div_ceil(sx).min(ow);
                    for oy in rows.clone() {
                        // A row in the top padding wraps past `ih`.
                        let y = (oy * sy + ky).wrapping_sub(py);
                        if y >= ih {
                            continue;
                        }
                        let src = &plane[y * iw..(y + 1) * iw];
                        // The row's windows inside the tile, as `ox`.
                        let row = oy * ow;
                        let mut ox = lo.max(windows.start.saturating_sub(row));
                        let end = hi.min(windows.end - row);
                        while ox < end {
                            let w = row + ox - windows.start;
                            let n = (end - ox).min(NR - w % NR);
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
                synth_fill(tier, seed, tag, scale, 0, &mut out);
                assert_eq!(bits(&out), bits(&scalar), "{tier:?}: {tag} x {len}");
                // A tile from index `start` on: the same elements.
                let start = len / 3;
                let mut tile = vec![f32::NAN; len - start];
                synth_fill(tier, seed, tag, scale, start, &mut tile);
                assert_eq!(
                    bits(&tile),
                    bits(&scalar[start..]),
                    "{tier:?}: {tag} from {start}"
                );
                // The largest magnitude, folded over the floats.
                let fold = scalar.iter().map(|x| x.to_bits() & !(1 << 31)).max();
                let max_abs = synth_max_abs(tier, seed, tag, scale, len);
                assert_eq!(Some(max_abs.to_bits()), fold, "{tier:?}: max of {tag}");
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
            let start = panels.len();
            panels.resize(start + (oh * ow).div_ceil(NR) * height * NR, f32::NAN);
            pack_rows(&rows, oh * ow, height, &mut panels[start..]);
        }
        panels
    }

    #[test]
    fn im2col_matches_a_per_element_unfold_tile_by_tile() {
        for stride in [1, 2] {
            for padding in [0, 1, 3] {
                for kernel in [1, 3, 7] {
                    for groups in [1, 2] {
                        // Output widths 7, 11, 14 and 33 make runs that
                        // end mid-block and cross block boundaries, and
                        // put block boundaries mid output row; 3 × 7 and
                        // 2 × 14 are layers of fewer than 32 windows.
                        for (oh, ow) in [(3, 7), (2, 14), (3, 33), (1, 33), (12, 11)] {
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
                            let what = format!(
                                "stride {stride} padding {padding} kernel {kernel} \
                                 groups {groups} input {ih}x{iw} output {oh}x{ow}"
                            );
                            let windows = oh * ow;
                            let whole = naive_im2col(&conv, &input, ih, iw, oh, ow);
                            // Every tile length in blocks, from one block
                            // to all of them, through one reused buffer.
                            let mut panels = vec![f32::NAN; whole.len()];
                            let blocks = windows.div_ceil(NR);
                            let group_len = whole.len() / groups;
                            for step in 1..=blocks {
                                let mut tiled = vec![Vec::new(); groups];
                                for b in (0..blocks).step_by(step) {
                                    let tile = b * NR..windows.min((b + step) * NR);
                                    im2col(&conv, &input, (ih, iw), (oh, ow), tile, &mut panels);
                                    let len = (step.min(blocks - b)) * group_len / blocks;
                                    for (g, t) in tiled.iter_mut().enumerate() {
                                        t.extend_from_slice(&panels[g * len..(g + 1) * len]);
                                    }
                                }
                                assert_eq!(tiled.concat(), whole, "{what}, tiles of {step} blocks");
                            }
                        }
                    }
                }
            }
        }
    }
}
