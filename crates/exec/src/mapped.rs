//! The mapped MVM strategy: execute a compiled model's per-crossbar
//! layout numerically.
//!
//! Each MVM node's weight matrix is split exactly the way the compiled
//! partitioning and mapping say it is: column groups first, then Array
//! Groups (crossbar-height row slices), each AG's columns living on
//! physical crossbars; replicas hold the same weights and share the
//! windows, so they compute nothing different. Every `(column group,
//! slice)` is one call into the kernel ([`MvmTile::gemm`]) per tile
//! pair over that slice's row range, and a window's output element is
//! the sum of its per-slice partial sums, accumulated in ascending
//! slice order at the replica's owner core — so a wrong row range or
//! column offset shows as a wrong tensor a differential test catches. The model is trusted:
//! only [`Scheduled::finish`](pimcomp_core::Scheduled::finish) builds
//! one, and a loaded artifact is checked where it enters
//! ([`CompiledArtifact::from_json`](pimcomp_core::CompiledArtifact::from_json)).
//!
//! With a [`QuantConfig`], the executor additionally models the analog
//! datapath: weights are rounded to `weight_bits`-bit integers under a
//! per-node symmetric scale, taken over every weight tile of the node
//! before the first is rounded (their base-`2^cell_bits` bit-slice
//! decomposition is value-exact, see [`slice_cells`]), and every
//! per-crossbar column sum passes through an ADC that rounds and clips
//! to a `2^adc_bits`-level grid over a per-node calibrated full scale
//! (the largest magnitude among the node's stored partials).
//! ADC grids over one full scale are nested in `adc_bits`, so the
//! per-partial error — and with it the single-layer output RMSE — is
//! monotone non-increasing in ADC resolution.

use crate::engine::{MvmBackend, MvmJob, MvmTile};
use crate::error::ExecError;
use crate::gemm::Tier;
use pimcomp_arch::QuantConfig;
use pimcomp_core::{slice_rows, CompiledModel};

/// Computes MVM nodes through the compiled per-crossbar layout.
pub struct MappedBackend<'a> {
    model: &'a CompiledModel,
    quant: Option<QuantConfig>,
}

impl<'a> MappedBackend<'a> {
    /// Builds the executor for `model`, optionally modelling the analog
    /// datapath under `quant`.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidQuant`] for bad quantization knobs.
    pub fn new(model: &'a CompiledModel, quant: Option<QuantConfig>) -> Result<Self, ExecError> {
        if let Some(q) = &quant {
            q.validate().map_err(|e| ExecError::InvalidQuant {
                detail: e.to_string(),
            })?;
        }
        Ok(MappedBackend { model, quant })
    }

    /// The node's partition entries, in column-group order. A graph
    /// other than the model's own can name a node the partitioning has
    /// no entry for, or one of another shape.
    fn node_entries(&self, job: &MvmJob) -> Result<Vec<usize>, ExecError> {
        let indices = self.model.partitioning.indices_of(job.node.id);
        let entries = self.model.partitioning.entries();
        let Some(&first) = indices.first() else {
            return Err(ExecError::MissingPartition {
                node: job.node.name.clone(),
            });
        };
        let e = &entries[first];
        let width: usize = indices.iter().map(|&i| entries[i].weight_width).sum();
        if (e.weight_height, e.windows, width) != (job.height, job.windows, job.width) {
            return Err(ExecError::ShapeMismatch {
                node: job.node.name.clone(),
                detail: format!(
                    "partition entry expects {}×{width} over {} windows, kernel computes {}×{} \
                     over {} windows",
                    e.weight_height, e.windows, job.height, job.width, job.windows
                ),
            });
        }
        Ok(indices)
    }

    /// Runs the layout over one tile pair: one kernel call per
    /// `(column group, slice)` over the group's columns in the weight
    /// tile and the slice's rows. Each call either adds its partial sums
    /// into the one `[width × windows]` output `out` is, or — with
    /// `store_slices` — stores them into output `s` of the
    /// `[slice][width × windows]` outputs `out` then holds.
    fn replay(&self, tile: &MvmTile, indices: &[usize], out: &mut [f32], store_slices: bool) {
        let entries = self.model.partitioning.entries();
        let hx = self.model.hw.crossbar_rows;
        let cells = tile.width * tile.stride;
        let columns = &tile.weights.columns;
        let mut col_base = 0usize;
        for &idx in indices {
            let e = &entries[idx];
            let cols = col_base.max(columns.start)..columns.end.min(col_base + e.weight_width);
            col_base += e.weight_width;
            if cols.is_empty() {
                continue;
            }
            for s in 0..e.ags_per_replica {
                let k = s * hx..s * hx + slice_rows(e.weight_height, hx, s);
                let at = if store_slices { s * cells } else { 0 };
                tile.gemm(cols.clone(), k, &mut out[at..at + cells], !store_slices);
            }
        }
    }
}

impl MvmBackend for MappedBackend<'_> {
    fn mvm(&mut self, job: &mut MvmJob) -> Result<Vec<f32>, ExecError> {
        let indices = self.node_entries(job)?;
        let cells = job.width * job.windows;
        let tier = Tier::widest();
        // One scale for the whole node, so it is taken before the first
        // tile is rounded.
        let quantize = self
            .quant
            .map(|q| (job.max_abs_weight(), q.weight_qmax() as f32));
        let rewrite = |cols: &mut [f32]| {
            if let Some((max_abs, qmax)) = quantize {
                quantize_weights(tier, cols, max_abs, qmax);
            }
        };
        match self.quant.filter(|q| !q.is_ideal_adc()) {
            // Unquantized, or an ideal converter: weight quantization
            // is then the only accuracy effect — the ADC-monotonicity
            // baseline.
            None => {
                let mut out = vec![0.0f32; cells];
                job.for_each_tile(rewrite, |tile| self.replay(tile, &indices, &mut out, false));
                Ok(out)
            }
            Some(q) => {
                // Every per-crossbar partial is computed once and
                // stored, then converted and summed in place into slice
                // 0's output, which is the node's.
                let slices = job.height.div_ceil(self.model.hw.crossbar_rows);
                let mut partials = vec![0.0f32; slices.max(1) * cells];
                job.for_each_tile(rewrite, |tile| {
                    self.replay(tile, &indices, &mut partials, true)
                });
                adc_accumulate(tier, &mut partials, cells, q.adc_half_levels());
                // Truncated, not shrunk: a shrink would hand back the
                // tail in place, so no block this large would ever be
                // freed, and glibc's malloc would map fresh,
                // page-faulting memory for every node's partials (about
                // 16 k faults a resnet18 run) instead of reusing it.
                partials.truncate(cells);
                Ok(partials)
            }
        }
    }
}

// The two per-element passes of the quantized path take the kernel's
// shape (see `gemm`): a portable `#[inline(always)]` body, an AVX2 copy
// of it, and a dispatcher that runs the copy on any tier from AVX2 up.
// Under AVX2, `f32::round` is inline vector code instead of a `roundf`
// call per element, with the same round-half-away-from-zero result.

/// Rounds the column-major weights `cols` (a tile of a matrix whose
/// largest magnitude is `max_abs`) in place to signed integers in
/// `[-qmax, qmax]` under the matrix's symmetric scale, leaving the
/// dequantized values. The physical bit-slice storage
/// (base-`2^cell_bits` cells) reconstructs these values exactly, so
/// computing with the dequantized matrix is the cell-accurate result —
/// see [`slice_cells`].
#[allow(unsafe_code)]
fn quantize_weights(tier: Tier, cols: &mut [f32], max_abs: f32, qmax: f32) {
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && std::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked on the line above.
        return unsafe { quantize_weights_avx2(cols, max_abs, qmax) };
    }
    quantize_weights_body(cols, max_abs, qmax)
}

/// [`quantize_weights_body`] compiled with AVX2 enabled: call it only on
/// a CPU that has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn quantize_weights_avx2(cols: &mut [f32], max_abs: f32, qmax: f32) {
    quantize_weights_body(cols, max_abs, qmax)
}

#[inline(always)]
fn quantize_weights_body(cols: &mut [f32], max_abs: f32, qmax: f32) {
    if max_abs == 0.0 {
        return;
    }
    let scale = max_abs / qmax;
    for v in cols {
        *v = (*v / scale).round().clamp(-qmax, qmax) * scale;
    }
}

/// Passes the stored per-crossbar partials, `[slice][cells]` (at least
/// one slice), through the ADC and sums them in ascending slice order
/// into slice 0's cells, in place. The full scale is the largest partial
/// magnitude of the node — a function of the quantized weights and the
/// input only, NOT of `adc_bits`, so grids of different resolutions
/// nest.
#[allow(unsafe_code)]
fn adc_accumulate(tier: Tier, partials: &mut [f32], cells: usize, half_levels: i64) {
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && std::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked on the line above.
        return unsafe { adc_accumulate_avx2(partials, cells, half_levels) };
    }
    adc_accumulate_body(partials, cells, half_levels)
}

/// [`adc_accumulate_body`] compiled with AVX2 enabled: call it only on a
/// CPU that has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn adc_accumulate_avx2(partials: &mut [f32], cells: usize, half_levels: i64) {
    adc_accumulate_body(partials, cells, half_levels)
}

#[inline(always)]
fn adc_accumulate_body(partials: &mut [f32], cells: usize, half_levels: i64) {
    let full_scale = partials.iter().fold(0.0f32, |m, p| m.max(p.abs()));
    let (sum, rest) = partials.split_at_mut(cells);
    // `0.0 +`: the sum starts from +0.0 as a zeroed output would, so a
    // -0.0 conversion sums to +0.0.
    for o in sum.iter_mut() {
        *o = 0.0 + adc_quantize(*o, full_scale, half_levels);
    }
    for tile in rest.chunks_exact(cells.max(1)) {
        for (o, &p) in sum.iter_mut().zip(tile) {
            *o += adc_quantize(p, full_scale, half_levels);
        }
    }
}

/// One ADC conversion: round `x` to the signed `2^adc_bits`-level grid
/// of step `full_scale / 2^(adc_bits-1)` and clip to its range. Grids
/// of increasing resolution over one full scale are nested (every
/// coarse level is a fine level and the clip range only widens), so
/// `|x - adc(x)|` is non-increasing in `adc_bits`.
#[inline(always)]
fn adc_quantize(x: f32, full_scale: f32, half_levels: i64) -> f32 {
    if full_scale <= 0.0 {
        return 0.0;
    }
    let step = full_scale / half_levels as f32;
    let q = (x / step)
        .round()
        .clamp(-(half_levels as f32), (half_levels - 1) as f32);
    q * step
}

/// Decomposes a non-negative quantized weight into base-`2^cell_bits`
/// cell conductances, least significant cell first. Exposed for the
/// bit-slicing exactness tests: the decomposition reconstructs the
/// integer exactly, which is why `quantize_weights`'s dequantized
/// matrix equals the cell-level computation.
pub fn slice_cells(value: u64, cell_bits: u32, cells: u32) -> Vec<u64> {
    let base = 1u64 << cell_bits;
    let mut rest = value;
    let mut out = Vec::with_capacity(cells as usize);
    for _ in 0..cells {
        out.push(rest % base);
        rest /= base;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_slice_decomposition_is_exact() {
        // Every 16-bit offset-encoded weight decomposes into 2-bit
        // cells and reconstructs exactly — the cell-level layout
        // computes the same value as the dequantized matrix.
        for value in [0u64, 1, 2, 37, 255, 32767, 65534, 65535] {
            for cell_bits in [1u32, 2, 4, 8] {
                let cells = 16u32.div_ceil(cell_bits);
                let sliced = slice_cells(value, cell_bits, cells);
                let rebuilt: u64 = sliced
                    .iter()
                    .enumerate()
                    .map(|(i, c)| c << (cell_bits * i as u32))
                    .sum();
                assert_eq!(rebuilt, value, "value {value} cell_bits {cell_bits}");
                assert!(sliced.iter().all(|&c| c < (1 << cell_bits)));
            }
        }
    }

    #[test]
    fn adc_grids_nest() {
        // Every representable level of a b-bit ADC is representable by
        // a (b+1)-bit ADC over the same full scale, so the pointwise
        // error is non-increasing in resolution.
        let fs = 3.7f32;
        for x in [-4.0f32, -3.7, -1.234, -0.01, 0.0, 0.5, 1.9999, 3.69, 5.0] {
            let mut prev = f32::INFINITY;
            for bits in 1..=12u32 {
                let half = 1i64 << (bits - 1);
                let err = (x - adc_quantize(x, fs, half)).abs();
                assert!(
                    err <= prev + 1e-9,
                    "x={x} bits={bits}: err {err} > coarser {prev}"
                );
                prev = err;
            }
        }
    }

    #[test]
    fn adc_clips_to_range() {
        let half = 128i64; // 8-bit
        let fs = 1.0f32;
        assert_eq!(
            adc_quantize(10.0, fs, half),
            (half - 1) as f32 / half as f32
        );
        assert_eq!(adc_quantize(-10.0, fs, half), -1.0);
        assert_eq!(adc_quantize(0.0, fs, half), 0.0);
    }

    #[test]
    fn every_tier_matches_the_portable_bits() {
        // The `_body` fns called here are the baseline-target passes;
        // the dispatchers run the AVX2 copies on every tier from AVX2
        // up. Inputs are cycled to odd lengths so that vector loops and
        // their scalar tails both see every value.
        let tiers = Tier::available();
        let cycle = |pattern: &[f32], n: usize| -> Vec<f32> {
            pattern.iter().copied().cycle().take(n).collect()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let max_abs = |v: &[f32]| v.iter().fold(0.0f32, |m, w| m.max(w.abs()));

        // A max |w| of qmax makes the scale 1, so `k + 0.5` are exact
        // ties, which round away from zero.
        let ties: Vec<f32> = (-6..6).map(|k| k as f32 + 0.5).collect();
        let signed = [&ties[..], &[127.0, -127.0, 0.0, -0.0, 3.0, -126.5]].concat();
        for (cols, qmax) in [
            (cycle(&signed, 131), 127.0),
            (cycle(&[0.3, -0.7, 1.1, -2.9, 0.05, -0.0], 45), 7.0),
            (cycle(&[0.0, -0.0], 37), 127.0), // an all-zero matrix stays as it is
        ] {
            let mut portable = cols.clone();
            quantize_weights_body(&mut portable, max_abs(&cols), qmax);
            for &tier in &tiers {
                let mut dispatched = cols.clone();
                quantize_weights(tier, &mut dispatched, max_abs(&cols), qmax);
                assert_eq!(bits(&portable), bits(&dispatched), "{tier:?}: {cols:?}");
                // Tile by tile under the matrix's scale: the same bits.
                let mut tiled = cols.clone();
                for tile in tiled.chunks_mut(10) {
                    quantize_weights(tier, tile, max_abs(&cols), qmax);
                }
                assert_eq!(bits(&portable), bits(&tiled), "{tier:?} tiled: {cols:?}");
            }
        }
        let mut rounded = signed.clone();
        quantize_weights(Tier::widest(), &mut rounded, 127.0, 127.0);
        assert_eq!(rounded[..4], [-6.0, -5.0, -4.0, -3.0]);
        assert_eq!(rounded[8..12], [3.0, 4.0, 5.0, 6.0]);
        assert_eq!(rounded[15].to_bits(), (-0.0f32).to_bits());

        // Full scale 4 over 128 half levels is a step of 1/32, so odd
        // multiples of 1/64 are ties; +4 lies beyond the top level
        // (127/32). At one half level every partial from 2 up lies
        // beyond the top level (0). A subnormal full scale underflows
        // the step to 0, so every partial lies beyond one clip end.
        let adc_ties: Vec<f32> = (-9..9).map(|k| (2 * k + 1) as f32 / 64.0).collect();
        let adc = [&adc_ties[..], &[4.0, -4.0, 0.0, -0.0, 3.99, -3.99]].concat();
        let ulp = f32::from_bits(1);
        let tiny = [3.0 * ulp, -2.0 * ulp, ulp, -3.0 * ulp];
        for (partials, cells, half) in [
            (cycle(&adc, 2 * 67), 67, 128),
            (cycle(&adc, 3 * 67), 67, 1),
            (cycle(&[0.0, -0.0, -0.0], 2 * 19), 19, 128), // full scale 0
            (cycle(&tiny, 2 * 19), 19, 128),
            (cycle(&adc, 23), 23, 128), // one slice
        ] {
            // What the conversion replaces: the slices converted and
            // added in ascending order into a zeroed output.
            let full_scale = max_abs(&partials);
            let mut zeroed = vec![0.0f32; cells];
            for tile in partials.chunks_exact(cells) {
                for (o, &p) in zeroed.iter_mut().zip(tile) {
                    *o += adc_quantize(p, full_scale, half);
                }
            }
            let mut portable = partials.clone();
            adc_accumulate_body(&mut portable, cells, half);
            assert_eq!(
                bits(&portable[..cells]),
                bits(&zeroed),
                "half {half}: {partials:?}"
            );
            for &tier in &tiers {
                let mut dispatched = partials.clone();
                adc_accumulate(tier, &mut dispatched, cells, half);
                assert_eq!(
                    bits(&portable),
                    bits(&dispatched),
                    "{tier:?}, half {half}: {partials:?}"
                );
            }
        }
        let mut out = adc.clone();
        adc_accumulate(Tier::widest(), &mut out, adc.len(), 128);
        assert_eq!(out[..2], [-9.0 / 32.0, -8.0 / 32.0]);
        assert_eq!(out[16..20], [8.0 / 32.0, 9.0 / 32.0, 127.0 / 32.0, -4.0]);
        assert_eq!(out[21].to_bits(), 0.0f32.to_bits(), "-0.0 converts to +0.0");
    }
}
