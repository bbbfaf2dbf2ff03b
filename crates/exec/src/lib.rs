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
//!   accumulated per the core mapping, replica coverage and reload
//!   epoch plans cross-checked.
//!
//! Both run the graph with [`run_graph`] and multiply through the one
//! register-tiled kernel behind [`MvmJob::gemm`] — the reference over
//! the whole contraction, the mapped executor one crossbar-height slice
//! at a time; [`verify_model`] differentially compares them. Inputs,
//! weights and biases are synthesized deterministically from a seed
//! ([`pimcomp_ir::synth`]), so a `(graph, seed)` pair fully determines
//! every tensor — goldens are reproducible bytes.
//!
//! With a [`QuantConfig`] the mapped executor also models the analog
//! datapath (weight bit-slicing, ADC clipping); [`verify_model`] then
//! reports `output_rmse` / `top1_match`, which the DSE sweep exposes
//! as accuracy metrics.
//!
//! Per the repo's panic policy, artifact-loaded data is never indexed
//! raw: hostile or truncated artifacts surface as [`ExecError`]s.

#![forbid(unsafe_code)]

mod engine;
mod error;
mod gemm;
mod mapped;
mod reference;
mod tensor;

pub use engine::{run_graph, synth_input, MvmBackend, MvmJob, WeightMatrix};
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
/// Any [`ExecError`] a malformed or symbolic graph produces.
pub fn reference_outputs(graph: &Graph, seed: u64) -> Result<Vec<(String, Tensor)>, ExecError> {
    let mut backend = ReferenceBackend;
    run_graph(graph, seed, &mut backend)
}

/// Runs the same seed-synthesized inference through the compiled
/// per-crossbar layout, optionally under crossbar quantization.
///
/// # Errors
///
/// Any [`ExecError`], including the mapping-coverage and reload-plan
/// validation errors of [`MappedBackend::new`].
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
/// index); `None` for an empty slice.
pub fn top1(v: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            Some((_, bx)) if x <= bx => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
