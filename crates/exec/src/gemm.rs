//! The one MVM kernel both backends run: a register-tiled GEMM whose
//! SIMD lanes and unrolled accumulators are *different output cells*.
//!
//! Float addition cannot be reassociated, so a single dot product is
//! bound by the latency of its add chain. The kernel leaves every
//! chain exactly as it is — each output cell starts at `0.0` and adds
//! its products in ascending `k` — and runs `MR × NR` of them side by
//! side. Per cell the arithmetic is therefore literally that of a
//! scalar ascending-index dot product, bit for bit, for any tile shape.

use crate::engine::WeightMatrix;
use std::ops::Range;

/// Windows per packed input panel: the tile's lane dimension.
pub(crate) const NR: usize = 8;
/// Weight columns per tile.
const MR: usize = 4;

/// Packs row-major `[windows × height]` input rows into the kernel's
/// `[window-block][k][NR]` panels, so one `k` step of a tile is one
/// contiguous load. The last block is zero-padded.
pub fn pack_rows(rows: &[f32], windows: usize, height: usize) -> Vec<f32> {
    let mut panels = vec![0.0f32; windows.div_ceil(NR) * height * NR];
    for (w, row) in rows.chunks_exact(height.max(1)).take(windows).enumerate() {
        let lane = w / NR * height * NR + w % NR;
        for (k, &v) in row.iter().enumerate() {
            panels[lane + k * NR] = v;
        }
    }
    panels
}

/// `out[c][w] (= | +=) Σ_{k ∈ k} panels[w][k] · weights[c][k]` for every
/// column `c` in `cols` and every window.
///
/// `panels` is one [`pack_rows`]-layout panel set over the height of
/// `weights`, and `out` is `[column][window]` with `windows` cells per
/// column (only the rows of `cols` are touched). Each cell's sum starts
/// at `0.0` and ascends through `k`; `accumulate` adds that sum to
/// `out` instead of storing it.
pub(crate) fn gemm(
    weights: &WeightMatrix,
    cols: Range<usize>,
    panels: &[f32],
    windows: usize,
    k: Range<usize>,
    out: &mut [f32],
    accumulate: bool,
) {
    let Some(last) = cols.end.checked_sub(1) else {
        return;
    };
    let height = weights.height;
    for w0 in (0..windows).step_by(NR) {
        let x = &panels[(w0 / NR * height + k.start) * NR..(w0 / NR * height + k.end) * NR];
        for c in cols.clone().step_by(MR) {
            // A ragged last tile recomputes the last column in its
            // spare rows; only `cols.end - c` rows are stored.
            let col = |i: usize| {
                let c = (c + i).min(last);
                &weights.cols[c * height + k.start..c * height + k.end]
            };
            // Steps are `[f32; NR]` arrays, so both tile extents are
            // compile-time constants and the accumulators stay in
            // vector registers.
            let mut acc = [[0.0f32; NR]; MR];
            let steps = x.as_chunks::<NR>().0.iter();
            let steps = steps.zip(col(0)).zip(col(1)).zip(col(2)).zip(col(3));
            for ((((xk, &a), &b), &cc), &d) in steps {
                for (tile, wv) in acc.iter_mut().zip([a, b, cc, d]) {
                    for (cell, xv) in tile.iter_mut().zip(xk) {
                        *cell += xv * wv;
                    }
                }
            }
            for (i, tile) in acc.iter().enumerate().take(cols.end - c) {
                let row = &mut out[(c + i) * windows + w0..(c + i + 1) * windows];
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
    fn every_cell_is_the_scalar_dot_bit_for_bit() {
        let mut state = 7u64;
        // Ragged against MR and NR, a single window (Linear), heights
        // below a crossbar slice, and empty / partial / full k ranges.
        for (windows, height, width) in [(1, 5, 1), (1, 300, 7), (9, 3, 4), (17, 130, 6), (8, 1, 9)]
        {
            let rows = values(windows * height, &mut state);
            let weights = WeightMatrix {
                height,
                width,
                cols: values(width * height, &mut state),
            };
            let panels = pack_rows(&rows, windows, height);
            for (cols, k) in [
                (0..width, 0..height),
                (0..width, height / 2..height / 2),
                (width / 2..width, 1.min(height)..height),
                (0..width.min(3), 0..height.min(128)),
            ] {
                let seed = values(width * windows, &mut state);
                for accumulate in [false, true] {
                    let mut out = seed.clone();
                    let (c2, k2) = (cols.clone(), k.clone());
                    gemm(&weights, c2, &panels, windows, k2, &mut out, accumulate);
                    for c in 0..width {
                        for w in 0..windows {
                            let cell = c * windows + w;
                            let p = dot(
                                &rows[w * height..][k.clone()],
                                &weights.cols[c * height..][k.clone()],
                            );
                            let want = match (cols.contains(&c), accumulate) {
                                (false, _) => seed[cell],
                                (true, false) => p,
                                (true, true) => seed[cell] + p,
                            };
                            assert_eq!(
                                out[cell].to_bits(),
                                want.to_bits(),
                                "{windows}x{height}x{width} cols {cols:?} k {k:?} cell ({c},{w})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_extents_do_nothing() {
        assert!(pack_rows(&[], 0, 5).is_empty());
        assert!(pack_rows(&[], 3, 0).is_empty());
        let matrix = |height, width| WeightMatrix {
            height,
            width,
            cols: vec![1.0; height * width],
        };
        let mut out = [1.0f32; 3];
        gemm(&matrix(0, 3), 0..3, &[], 1, 0..0, &mut out, true);
        assert_eq!(out, [1.0; 3]);
        gemm(&matrix(0, 3), 0..3, &[], 1, 0..0, &mut out, false);
        assert_eq!(out, [0.0; 3]);
        gemm(&matrix(4, 1), 0..0, &[1.0; 32], 1, 0..4, &mut out, true);
        assert_eq!(out, [0.0; 3]);
    }
}
