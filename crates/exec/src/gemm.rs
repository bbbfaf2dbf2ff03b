//! The one MVM kernel both backends run: a register-tiled GEMM whose
//! SIMD lanes and unrolled accumulators are *different output cells*.
//!
//! Float addition cannot be reassociated, so a single dot product is
//! bound by the latency of its add chain. The kernel leaves every
//! chain exactly as it is — each output cell starts at `0.0` and adds
//! its products in ascending `k` — and runs `MR × NR` of them side by
//! side. Per cell the arithmetic is therefore literally that of a
//! scalar ascending-index dot product, bit for bit, for any tile shape.
//!
//! The panels are `NR` = 32 windows wide for every [`Tier`]; only the
//! tile's column count `MR` differs, chosen so that each tier holds
//! eight vector accumulators: one column (eight SSE2 registers) in the
//! portable body, two columns (eight ymm) in `gemm_avx2`, four columns
//! (eight zmm) in `gemm_avx512`. Those two are
//! `#[target_feature]` copies of the one body that [`gemm`] calls when
//! the running CPU has the feature. Every lane is still one cell's
//! chain of a separately rounded multiply and add — no FMA, no
//! `mul_add`, no intrinsics — so the outputs are bit-identical across
//! CPUs as well as across tile shapes.

use crate::engine::WeightMatrix;
use std::ops::Range;

/// Windows per packed input panel: the tile's lane dimension.
pub(crate) const NR: usize = 32;

/// The instruction-set tiers the executor's hot loops are compiled
/// for, narrowest first. Every tier computes the same bits. The
/// dispatchers take the tier to run, so that the tests can run each
/// one; the executor passes [`Tier::widest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// The crate's baseline target (SSE2 on x86-64).
    Portable,
    /// AVX2.
    Avx2,
    /// AVX-512F with AVX-512DQ.
    Avx512,
}

impl Tier {
    /// The widest tier the running CPU executes (std caches the
    /// feature checks, so this is a few loads).
    pub(crate) fn widest() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq")
            {
                return Tier::Avx512;
            }
            if std::is_x86_feature_detected!("avx2") {
                return Tier::Avx2;
            }
        }
        Tier::Portable
    }

    /// Every tier the running CPU executes: what the bit-identity
    /// tests compare.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Tier> {
        let widest = Tier::widest();
        [Tier::Portable, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|&t| t <= widest)
            .collect()
    }
}

/// Packs row-major `[windows × height]` input rows into the kernel's
/// `[window-block][k][NR]` panels (`NR` = 32 windows a block), so one
/// `k` step of a tile is one contiguous load: the first
/// `windows.div_ceil(NR) * height * NR` elements of `panels`, the last
/// block zero-padded.
pub fn pack_rows(rows: &[f32], windows: usize, height: usize, panels: &mut [f32]) {
    let panels = &mut panels[..windows.div_ceil(NR) * height * NR];
    panels.fill(0.0);
    for (w, row) in rows.chunks_exact(height.max(1)).take(windows).enumerate() {
        let lane = w / NR * height * NR + w % NR;
        for (k, &v) in row.iter().enumerate() {
            panels[lane + k * NR] = v;
        }
    }
}

/// `out[c·stride + offset + w] (= | +=) Σ_{k ∈ k} panels[w][k] ·
/// weights[c][k]` for every column `c` in `cols` and every window `w`
/// in `0..windows`, run on `tier` (or the widest narrower tier the CPU
/// has).
///
/// `panels` is one [`pack_rows`]-layout panel set over the height of
/// `weights`, `cols` lies in `weights.columns`, and `out` is
/// `[column][window]` with `stride` cells per column, of which the
/// panels' windows start at `offset` (only their cells in the rows of
/// `cols` are touched). Each cell's sum starts at `0.0` and ascends
/// through `k`; `accumulate` adds that sum to `out` instead of storing
/// it.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    tier: Tier,
    weights: &WeightMatrix,
    cols: Range<usize>,
    panels: &[f32],
    windows: usize,
    k: Range<usize>,
    out: &mut [f32],
    (offset, stride): (usize, usize),
    accumulate: bool,
) {
    let at = (offset, stride);
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512 && std::is_x86_feature_detected!("avx512f") {
        // SAFETY: the running CPU supports AVX-512F, checked on the line above.
        return unsafe { gemm_avx512(weights, cols, panels, windows, k, out, at, accumulate) };
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && std::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked on the line above.
        return unsafe { gemm_avx2(weights, cols, panels, windows, k, out, at, accumulate) };
    }
    gemm_body::<1>(weights, cols, panels, windows, k, out, at, accumulate)
}

/// [`gemm_body`] with AVX-512F enabled, four columns a tile: call it
/// only on a CPU that has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx512(
    weights: &WeightMatrix,
    cols: Range<usize>,
    panels: &[f32],
    windows: usize,
    k: Range<usize>,
    out: &mut [f32],
    at: (usize, usize),
    accumulate: bool,
) {
    gemm_body::<4>(weights, cols, panels, windows, k, out, at, accumulate)
}

/// [`gemm_body`] with AVX2 enabled, two columns a tile: call it only on
/// a CPU that has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx2(
    weights: &WeightMatrix,
    cols: Range<usize>,
    panels: &[f32],
    windows: usize,
    k: Range<usize>,
    out: &mut [f32],
    at: (usize, usize),
    accumulate: bool,
) {
    gemm_body::<2>(weights, cols, panels, windows, k, out, at, accumulate)
}

/// The pattern of one step of `tile!`'s zip, `((xk, &a), &b)…`.
macro_rules! zipped {
    ($p:pat) => { $p };
    ($p:pat, $w:ident $(, $rest:ident)*) => { zipped!(($p, &$w) $(, $rest)*) };
}

/// One tile's `k` loop: the panel steps zipped with one weight column
/// per name, so the loop indexes nothing, and each step adds
/// `step[lane] · w` into accumulator row `i` for the `i`-th column `w`.
macro_rules! tile {
    ($acc:ident, $steps:expr; $($w:ident = $col:expr),+) => {{
        let steps = $steps.iter();
        $(let steps = steps.zip($col);)+
        for zipped!(xk $(, $w)+) in steps {
            for (tile, wv) in $acc.iter_mut().zip([$($w),+]) {
                for (cell, xv) in tile.iter_mut().zip(xk) {
                    *cell += xv * wv;
                }
            }
        }
    }};
}

/// The kernel itself at `MR` columns a tile, inlined into each of its
/// callers so that it is compiled at each caller's target features.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_body<const MR: usize>(
    weights: &WeightMatrix,
    cols: Range<usize>,
    panels: &[f32],
    windows: usize,
    k: Range<usize>,
    out: &mut [f32],
    (offset, stride): (usize, usize),
    accumulate: bool,
) {
    const { assert!(MR == 1 || MR == 2 || MR == 4) };
    let Some(last) = cols.end.checked_sub(1) else {
        return;
    };
    let height = weights.height;
    for w0 in (0..windows).step_by(NR) {
        let x = &panels[(w0 / NR * height + k.start) * NR..(w0 / NR * height + k.end) * NR];
        let steps = x.as_chunks::<NR>().0;
        for c in cols.clone().step_by(MR) {
            // A ragged last tile recomputes the last column in its
            // spare rows; only `cols.end - c` rows are stored.
            let col = |i: usize| {
                let c = (c + i).min(last) - weights.columns.start;
                &weights.cols[c * height + k.start..c * height + k.end]
            };
            // Steps are `[f32; NR]` arrays, so both tile extents are
            // compile-time constants and the accumulators stay in
            // vector registers.
            let mut acc = [[0.0f32; NR]; MR];
            match MR {
                1 => tile!(acc, steps; a = col(0)),
                2 => tile!(acc, steps; a = col(0), b = col(1)),
                _ => tile!(acc, steps; a = col(0), b = col(1), cc = col(2), d = col(3)),
            }
            for (i, tile) in acc.iter().enumerate().take(cols.end - c) {
                let row = (c + i) * stride + offset;
                let row = &mut out[row + w0..row + windows];
                for (o, a) in row.iter_mut().zip(tile) {
                    *o = if accumulate { *o + a } else { *a };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar chain every cell must reproduce.
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    fn values(n: usize, state: &mut u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                match i % 11 {
                    3 => -0.0,
                    7 => 0.0,
                    _ => (*state >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
                }
            })
            .collect()
    }

    #[test]
    fn every_tier_computes_the_scalar_dot_bit_for_bit() {
        let tiers = Tier::available();
        let mut state = 7u64;
        // Windows ragged against NR (1 for Linear, 31, 33, 65), widths
        // ragged against every tier's MR, heights below a crossbar
        // slice, and empty / partial / full k ranges; each against a
        // tile whose columns start at 0 or 3, written into output rows
        // of exactly its windows or into rows with cells on both sides.
        for (windows, height, width) in [
            (1, 5, 1),
            (1, 300, 7),
            (31, 3, 4),
            (33, 130, 6),
            (65, 1, 9),
            (32, 17, 5),
            (65, 40, 3),
        ] {
            let rows = values(windows * height, &mut state);
            let mut panels = vec![f32::NAN; windows.div_ceil(NR) * height * NR];
            pack_rows(&rows, windows, height, &mut panels);
            for (first, offset, stride) in [(0, 0, windows), (3, 2, windows + 7)] {
                let weights = WeightMatrix {
                    height,
                    columns: first..first + width,
                    cols: values(width * height, &mut state),
                };
                for (cols, k) in [
                    (0..width, 0..height),
                    (0..width, height / 2..height / 2),
                    (width / 2..width, 1.min(height)..height),
                    (0..width.min(3), 0..height.min(128)),
                    (1.min(width)..width, height / 3..height - height / 4),
                ] {
                    let cols = first + cols.start..first + cols.end;
                    let seed = values((first + width) * stride, &mut state);
                    for &tier in &tiers {
                        for accumulate in [false, true] {
                            let mut out = seed.clone();
                            let (c2, k2) = (cols.clone(), k.clone());
                            let at = (offset, stride);
                            gemm(
                                tier, &weights, c2, &panels, windows, k2, &mut out, at, accumulate,
                            );
                            for (cell, &was) in seed.iter().enumerate() {
                                let (c, w) = (cell / stride, (cell % stride).wrapping_sub(offset));
                                let want = match cols.contains(&c) && w < windows {
                                    false => was,
                                    true => {
                                        let col = (c - first) * height;
                                        let p = dot(
                                            &rows[w * height..][k.clone()],
                                            &weights.cols[col..][k.clone()],
                                        );
                                        if accumulate {
                                            was + p
                                        } else {
                                            p
                                        }
                                    }
                                };
                                assert_eq!(
                                    out[cell].to_bits(),
                                    want.to_bits(),
                                    "{tier:?}: {windows}x{height}x{width} cols {cols:?} k {k:?} \
                                     at {offset}/{stride} cell ({c},{w})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_extents_do_nothing() {
        let mut panels = [f32::NAN; 1];
        pack_rows(&[], 0, 5, &mut panels);
        pack_rows(&[], 3, 0, &mut panels);
        assert!(panels[0].is_nan());
        let matrix = |height, width| WeightMatrix {
            height,
            columns: 0..width,
            cols: vec![1.0; height * width],
        };
        for tier in Tier::available() {
            let mut out = [1.0f32; 3];
            gemm(
                tier,
                &matrix(0, 3),
                0..3,
                &[],
                1,
                0..0,
                &mut out,
                (0, 1),
                true,
            );
            assert_eq!(out, [1.0; 3]);
            gemm(
                tier,
                &matrix(0, 3),
                0..3,
                &[],
                1,
                0..0,
                &mut out,
                (0, 1),
                false,
            );
            assert_eq!(out, [0.0; 3]);
            gemm(
                tier,
                &matrix(4, 1),
                0..0,
                &[1.0; 4 * NR],
                1,
                0..4,
                &mut out,
                (0, 1),
                true,
            );
            assert_eq!(out, [0.0; 3]);
        }
    }
}
