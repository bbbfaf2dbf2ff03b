//! Deterministic synthesis of test tensors (inputs, weights, biases)
//! from a seed.
//!
//! The zoo graphs are shape-only — they carry no trained parameters —
//! so functional execution needs *some* numbers. This module produces
//! them reproducibly: every element is a pure function of
//! `(seed, tag, index)`, where `tag` is a stable per-tensor label
//! (conventionally the node name plus a `/w` / `/b` / `/x` suffix).
//! Two executors that synthesize the same tensor therefore see
//! bit-identical values regardless of traversal order, thread count or
//! process, which is what makes differential testing of compiled
//! layouts against a reference interpreter possible.
//!
//! Values are drawn from SplitMix64 output mapped uniformly onto
//! `[-1, 1)`; callers apply their own scaling (e.g. `1/sqrt(fan_in)`
//! for weights, so activations stay O(1) through deep networks).

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline(always)]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a hash of a tag string (stable across platforms and releases).
fn tag_hash(tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One synthesized element: uniform in `[-1, 1)`, a pure function of
/// `(seed, tag, index)`.
pub fn unit(seed: u64, tag: &str, index: usize) -> f32 {
    unit_hashed(seed, tag_hash(tag), index)
}

#[inline(always)]
fn unit_hashed(seed: u64, tag: u64, index: usize) -> f32 {
    unit_of(draw(seed, tag, index))
}

/// The 24 high bits of an element's hash: the element's draw.
#[inline(always)]
fn draw(seed: u64, tag: u64, index: usize) -> u32 {
    let word =
        mix64(seed ^ tag.rotate_left(17) ^ (index as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    (word >> 40) as u32
}

/// A draw mapped onto `[-1, 1)`: `2 * draw / 2^24 - 1`, exact in f32.
#[inline(always)]
fn unit_of(draw: u32) -> f32 {
    let frac = draw as f32 / (1u64 << 24) as f32;
    2.0 * frac - 1.0
}

/// A synthesized tensor of `len` elements in `[-scale, scale)`.
pub fn values(seed: u64, tag: &str, len: usize, scale: f32) -> Vec<f32> {
    let mut out = vec![0.0; len];
    fill(seed, tag, scale, 0, &mut out);
    out
}

/// Writes elements `start..start + out.len()` of the tensor [`values`]
/// synthesizes, so a caller can synthesize one tile of a tensor at a
/// time.
///
/// The one synthesis loop: integer arithmetic per element and one
/// exact conversion, with no dependence between elements, so a caller
/// compiled with wider vector features (the executor's AVX2 and
/// AVX-512 copies) vectorises it to the same bits. `#[inline(always)]`
/// so that it is compiled at each caller's target features.
#[inline(always)]
pub fn fill(seed: u64, tag: &str, scale: f32, start: usize, out: &mut [f32]) {
    let h = tag_hash(tag);
    for (i, v) in out.iter_mut().enumerate() {
        *v = scale * unit_hashed(seed, h, start + i);
    }
}

/// The largest magnitude among the `len` elements [`values`]
/// synthesizes, `0.0` for none, without synthesizing them: it folds the
/// least and greatest draws and converts those two. That is exact: an
/// element's unit value is exact, so `|unit|` peaks at one of the two
/// extreme draws, and rounding `scale × unit` to nearest is monotone and
/// odd-symmetric, so the largest `|scale × unit|` is the one at that
/// draw. `#[inline(always)]` for the same reason as [`fill`].
#[inline(always)]
pub fn max_abs(seed: u64, tag: &str, scale: f32, len: usize) -> f32 {
    let h = tag_hash(tag);
    let (mut least, mut most) = (u32::MAX, 0);
    for i in 0..len {
        let d = draw(seed, h, i);
        least = least.min(d);
        most = most.max(d);
    }
    if len == 0 {
        return 0.0;
    }
    let magnitude = |d| (scale * unit_of(d)).abs();
    magnitude(least).max(magnitude(most))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic_and_tag_sensitive() {
        let a = values(1, "conv1/w", 16, 1.0);
        let b = values(1, "conv1/w", 16, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, values(1, "conv2/w", 16, 1.0));
        assert_ne!(a, values(2, "conv1/w", 16, 1.0));
    }

    #[test]
    fn elements_are_independent_of_vector_length() {
        // Element i must not depend on how many elements were asked
        // for — executors may synthesize slices lazily.
        let long = values(7, "x", 100, 1.0);
        let short = values(7, "x", 10, 1.0);
        assert_eq!(&long[..10], &short[..]);
        assert_eq!(long[42], unit(7, "x", 42));
        let mut tile = [0.0; 7];
        fill(7, "x", 1.0, 40, &mut tile);
        assert_eq!(&long[40..47], &tile[..]);
    }

    #[test]
    fn values_stay_in_range_and_are_not_degenerate() {
        let v = values(3, "input/x", 4096, 1.0);
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean} suspiciously far from 0");
        assert!(v.iter().any(|x| *x > 0.5) && v.iter().any(|x| *x < -0.5));
    }

    /// The float fold the integer one replaces: the largest `|value|`
    /// over a synthesized tensor, as bits.
    #[test]
    fn max_abs_equals_the_fold_over_synthesized_values() {
        let lengths = [0, 1, 2, 3, 7, 64, 1000, 4099];
        let scales = [
            1.0,
            0.25,
            1.0 / 3f32.sqrt(),
            1.0 / 4608f32.sqrt(),
            3.7e-3,
            1e30,
        ];
        for seed in [0, 1, 7, 42, u64::MAX] {
            for tag in ["conv1/w", "fc/w", "layer4_0_conv2/w", ""] {
                for scale in scales {
                    for len in lengths {
                        let fold = values(seed, tag, len, scale)
                            .iter()
                            .map(|v| v.to_bits() & !(1 << 31))
                            .fold(0, u32::max);
                        let got = max_abs(seed, tag, scale, len);
                        assert_eq!(got.to_bits(), fold, "{seed} {tag:?} {scale} {len}");
                    }
                }
            }
        }
        // Length 1 is one value's magnitude, of either sign.
        let firsts: Vec<f32> = (0..32).map(|seed| values(seed, "w", 1, 0.5)[0]).collect();
        assert!(firsts.iter().any(|v| *v < 0.0) && firsts.iter().any(|v| *v > 0.0));
        for (seed, v) in (0..32).zip(&firsts) {
            assert_eq!(max_abs(seed, "w", 0.5, 1), v.abs());
        }
    }

    #[test]
    fn scale_is_applied() {
        let v = values(3, "w", 8, 0.25);
        assert!(v.iter().all(|x| x.abs() <= 0.25));
    }
}
