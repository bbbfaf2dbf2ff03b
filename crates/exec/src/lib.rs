//! Functional executor: verify that compiled mappings compute the
//! right tensors.
//!
//! Everything upstream of this crate reasons about *where* weights go
//! and *when* crossbars fire; nothing checks that the layout still
//! computes the model. This crate closes that loop with two executors
//! over the same IR graph:
//!
//! * [`ReferenceBackend`] — plain f32 kernels (im2col convolution,
//!   dense matmul, attention, layer norm, …) computing the gold
//!   numerics.
//! * [`MappedBackend`] — the same inputs pushed through a
//!   [`CompiledModel`]'s per-crossbar layout: weights split by
//!   Array-Group row slices and column groups, partial sums
//!   accumulated per the core mapping.
//!
//! Both run the graph with [`run_graph`] and multiply through the one
//! register-tiled kernel behind [`MvmTile::gemm`], one tile pair of a
//! node at a time (a column tile of its weights against a window tile
//! of its unfolded input) — the reference over the whole contraction,
//! the mapped executor one crossbar-height slice at a time;
//! [`verify_model`] differentially compares them. Inputs,
//! weights and biases are synthesized deterministically from a seed
//! ([`pimcomp_ir::synth`]), so a `(graph, seed)` pair fully determines
//! every tensor — goldens are reproducible bytes.
//!
//! The same bytes on every CPU: the kernel and weight synthesis are
//! compiled for the baseline target and again with AVX2 and with
//! AVX-512 enabled, the quantized path's two per-element passes for the
//! baseline and AVX2, and each picks the widest copy the CPU runs. Only
//! the number of output cells per instruction (and the kernel's tile
//! shape) changes; every cell's chain of separately rounded operations
//! is the same (see the `gemm` module), and synthesis is integer
//! arithmetic with one exact conversion. Those dispatch calls, eight
//! with weight synthesis's maximum fold, are the crate's only `unsafe`
//! code, each under its feature check.
//!
//! With a [`QuantConfig`] the mapped executor also models the analog
//! datapath (weight bit-slicing, ADC clipping); [`verify_model`] then
//! reports `output_rmse` / `top1_match`, which the DSE sweep exposes
//! as accuracy metrics.
//!
//! Per the repo's panic policy, a hostile graph surfaces as an
//! [`ExecError`], never a panic; hostile or truncated artifacts are
//! refused when they load
//! ([`CompiledArtifact::from_json`](pimcomp_core::CompiledArtifact::from_json)).

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod engine;
mod error;
mod gemm;
mod mapped;
mod reference;
mod tensor;

pub use engine::{run_graph, synth_input, MvmBackend, MvmJob, MvmTile, WeightMatrix};
pub use error::ExecError;
pub use gemm::pack_rows;
pub use mapped::{slice_cells, MappedBackend};
pub use reference::ReferenceBackend;
pub use tensor::Tensor;

use pimcomp_arch::QuantConfig;
use pimcomp_core::CompiledModel;
use pimcomp_ir::Graph;

/// Runs the reference interpreter over `graph` with seed-synthesized
/// inputs and weights, returning the graph's output tensors (nodes no
/// other node consumes) in ascending node-id order.
///
/// # Errors
///
/// [`ExecError::SymbolicShape`] while the graph has a symbolic `seq`
/// dimension, and [`ExecError::ShapeMismatch`] for an MVM node whose
/// tiles the executor cannot allocate. Nothing else about the graph is
/// checked here: a [`Graph`] is validated where it is built or
/// deserialized.
pub fn reference_outputs(graph: &Graph, seed: u64) -> Result<Vec<(String, Tensor)>, ExecError> {
    let mut backend = ReferenceBackend;
    run_graph(graph, seed, &mut backend)
}

/// Runs the same seed-synthesized inference through the compiled
/// per-crossbar layout, optionally under crossbar quantization.
///
/// # Errors
///
/// Any [`ExecError`] of the graph run or of [`MappedBackend::new`].
pub fn mapped_outputs(
    model: &CompiledModel,
    seed: u64,
    quant: Option<QuantConfig>,
) -> Result<Vec<(String, Tensor)>, ExecError> {
    let mut backend = MappedBackend::new(model, quant)?;
    run_graph(&model.graph, seed, &mut backend)
}

/// The result of differentially verifying a compiled model against the
/// reference interpreter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOutcome {
    /// Root-mean-square error between the mapped and reference output
    /// tensors (concatenated in ascending node-id order). Exactly 0.0
    /// for unquantized runs where the layout preserves summation
    /// order (single Array Group per replica); otherwise a few
    /// f32-roundoff ULPs.
    pub output_rmse: f64,
    /// Whether the index of the largest output element (first strict
    /// maximum) agrees between mapped and reference — a 1-sample
    /// top-1 accuracy proxy.
    pub top1_match: bool,
    /// Total output elements compared.
    pub output_len: usize,
}

/// Differentially verifies a compiled model: runs the reference
/// interpreter and the mapped executor on the same seed-synthesized
/// inference and compares outputs.
///
/// # Errors
///
/// Any [`ExecError`] from either executor, plus
/// [`ExecError::ShapeMismatch`] if the two executors disagree on
/// output structure (which would itself be a compiler bug).
pub fn verify_model(
    model: &CompiledModel,
    seed: u64,
    quant: Option<QuantConfig>,
) -> Result<VerifyOutcome, ExecError> {
    let reference = reference_outputs(&model.graph, seed)?;
    verify_against(&reference, model, seed, quant)
}

/// [`verify_model`] against an already computed `reference` — the
/// [`reference_outputs`] of `model.graph` at the same `seed` — so one
/// reference run serves an unquantized and a quantized check.
///
/// # Errors
///
/// As [`verify_model`], less the reference run's own.
pub fn verify_against(
    reference: &[(String, Tensor)],
    model: &CompiledModel,
    seed: u64,
    quant: Option<QuantConfig>,
) -> Result<VerifyOutcome, ExecError> {
    let mapped = mapped_outputs(model, seed, quant)?;
    if reference.len() != mapped.len() {
        return Err(ExecError::ShapeMismatch {
            node: model.graph.name().to_string(),
            detail: format!(
                "reference produced {} outputs, mapped produced {}",
                reference.len(),
                mapped.len()
            ),
        });
    }
    let mut ref_all = Vec::new();
    let mut map_all = Vec::new();
    for ((rn, rt), (mn, mt)) in reference.iter().zip(&mapped) {
        if rn != mn || rt.dims != mt.dims {
            return Err(ExecError::ShapeMismatch {
                node: rn.clone(),
                detail: format!(
                    "reference output `{rn}` {:?} vs mapped `{mn}` {:?}",
                    rt.dims, mt.dims
                ),
            });
        }
        ref_all.extend_from_slice(&rt.data);
        map_all.extend_from_slice(&mt.data);
    }
    Ok(VerifyOutcome {
        output_rmse: rmse(&map_all, &ref_all),
        top1_match: top1(&map_all) == top1(&ref_all),
        output_len: ref_all.len(),
    })
}

/// Root-mean-square error between two equal-length f32 slices,
/// accumulated in f64 in ascending index order (deterministic). Empty
/// slices yield 0.0.
pub fn rmse(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| {
            let d = f64::from(*x) - f64::from(*y);
            d * d
        })
        .sum();
    (sum / a.len() as f64).sqrt()
}

/// Index of the first strict maximum (ties resolve to the lowest
/// index). NaN elements are skipped, so a NaN can neither be the
/// maximum nor displace it; `None` when no element is a number.
pub fn top1(v: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            _ if x.is_nan() => {}
            Some((_, bx)) if x <= bx => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{run_tiled, Tiling};
    use pimcomp_arch::{HardwareConfig, PipelineMode};
    use pimcomp_core::{CompileOptions, CompileSession, GaParams};
    use pimcomp_ir::{Conv2d, GraphBuilder, Op};

    /// tiny_cnn, and a grouped convolution (2 groups of 288 rows, five
    /// 64-row slices each, over 144 windows: four blocks and a ragged
    /// one), compiled for the small test target.
    fn models() -> Vec<CompiledModel> {
        let mut b = GraphBuilder::new("grouped");
        let x = b.input("input", [64, 12, 12]);
        let conv = Conv2d {
            in_channels: 64,
            out_channels: 8,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            groups: 2,
            bias: true,
        };
        b.add("conv", Op::Conv2d(conv), vec![x]).unwrap();
        [pimcomp_ir::models::tiny_cnn(), b.finish().unwrap()]
            .iter()
            .map(|graph| {
                let opts =
                    CompileOptions::new(PipelineMode::HighThroughput).with_ga(GaParams::fast(3));
                CompileSession::new(HardwareConfig::small_test(), graph, opts)
                    .and_then(CompileSession::run)
                    .unwrap()
            })
            .collect()
    }

    /// Tiles change only the order in which output cells are visited:
    /// one column and one block a tile, the executor's tiles and one tile
    /// a node compute the same bits, in both backends, unquantized and at
    /// 8 bits (whose weight scale then comes from a pre-pass over the
    /// node's tiles).
    #[test]
    fn every_tiling_computes_the_same_bits() {
        let bits = |outputs: Vec<(String, Tensor)>| -> Vec<(String, Vec<u32>)> {
            outputs
                .into_iter()
                .map(|(name, t)| (name, t.data.iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        for model in models() {
            let q8 = QuantConfig::for_hardware(&model.hw, 8).unwrap();
            for seed in [1, 9] {
                let run = |tiling, backend: &mut dyn MvmBackend| {
                    bits(run_tiled(&model.graph, seed, tiling, backend).unwrap())
                };
                let what = format!("{} seed {seed}", model.graph.name());
                let whole = run(Tiling::WHOLE, &mut ReferenceBackend);
                for tiling in [Tiling::SMALLEST, Tiling::L2] {
                    let tiled = run(tiling, &mut ReferenceBackend);
                    assert!(tiled == whole, "{what}: reference, {tiling:?}");
                }
                for quant in [None, Some(q8)] {
                    let mapped = || MappedBackend::new(&model, quant).unwrap();
                    let whole = run(Tiling::WHOLE, &mut mapped());
                    for tiling in [Tiling::SMALLEST, Tiling::L2] {
                        let tiled = run(tiling, &mut mapped());
                        assert!(tiled == whole, "{what}: mapped {quant:?}, {tiling:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[], &[]), 0.0);
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let r = rmse(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((r - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn top1_first_strict_max() {
        assert_eq!(top1(&[]), None);
        assert_eq!(top1(&[1.0]), Some(0));
        assert_eq!(top1(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(top1(&[-5.0, -2.0, -3.0]), Some(1));
        assert_eq!(top1(&[1.0, f32::NAN, 0.5]), Some(0));
        assert_eq!(top1(&[f32::NAN, -1.0, f32::NAN]), Some(1));
        assert_eq!(top1(&[f32::NAN]), None);
    }
}
