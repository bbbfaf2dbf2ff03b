//! Crossbar quantization knobs: weight bit-slicing and ADC precision.
//!
//! A crossbar stores each `weight_bits`-bit weight across
//! `ceil(weight_bits / cell_bits)` NVM cells, and every analog
//! column-sum passes through an ADC of finite resolution before digital
//! accumulation. The bit-slice decomposition is value-exact (it is an
//! integer base-`2^cell_bits` expansion), so the accuracy loss of a
//! compiled layout comes from two places this config captures:
//!
//! * weight quantization — weights are rounded to `weight_bits`-bit
//!   signed integers under a per-node symmetric scale, and
//! * ADC clipping — each per-crossbar partial sum is rounded to a
//!   `2^adc_bits`-level grid over a calibrated full-scale range.
//!
//! Both effects are modeled by the functional executor
//! (`pimcomp-exec`); this crate only owns the knobs, so that hardware
//! description and numerics stay in their own layers.
//!
//! `adc_bits` grids are nested — every level of a `b`-bit ADC is also a
//! level of a `b+1`-bit ADC over the same full scale — so output error
//! is monotone non-increasing in `adc_bits`, a property the test suite
//! relies on.

use crate::config::{HardwareConfig, HwError};
use serde::{Deserialize, Serialize};

/// Quantization model of a crossbar target: how many bits a weight
/// carries, how wide one NVM cell is, and how precise the ADC is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Signed weight precision in bits (weights quantize to
    /// `[-(2^(b-1) - 1), 2^(b-1) - 1]` under a per-node scale).
    pub weight_bits: u32,
    /// Bits stored per NVM cell; a weight occupies
    /// `ceil(weight_bits / cell_bits)` cells (bit slicing).
    pub cell_bits: u32,
    /// ADC resolution in bits: each per-crossbar partial sum is rounded
    /// and clipped to a signed `2^adc_bits`-level grid. The maximum
    /// value, 32, models an *ideal* converter (its grid resolves below
    /// f32 precision, so the executor skips conversion entirely) — the
    /// baseline the ADC-monotonicity tests measure against.
    pub adc_bits: u32,
}

impl QuantConfig {
    /// The quantization model of a hardware target: `weight_bits` and
    /// `cell_bits` come from the target (they are already compilation
    /// knobs — they set the crossbar column budget), `adc_bits` is the
    /// new accuracy knob.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] when the resulting config fails
    /// [`QuantConfig::validate`].
    pub fn for_hardware(hw: &HardwareConfig, adc_bits: u32) -> Result<Self, HwError> {
        let q = QuantConfig {
            weight_bits: hw.weight_bits,
            cell_bits: hw.cell_bits,
            adc_bits,
        };
        q.validate()?;
        Ok(q)
    }

    /// Largest representable quantized weight magnitude:
    /// `2^(weight_bits - 1) - 1`.
    pub fn weight_qmax(&self) -> i64 {
        (1i64 << (self.weight_bits - 1)) - 1
    }

    /// Signed ADC levels on each side of zero: `2^(adc_bits - 1)`.
    pub fn adc_half_levels(&self) -> i64 {
        1i64 << (self.adc_bits - 1)
    }

    /// `true` when the ADC is ideal (`adc_bits == 32`): conversion is
    /// lossless at f32 precision and the executor bypasses it, leaving
    /// weight quantization as the only accuracy effect.
    pub fn is_ideal_adc(&self) -> bool {
        self.adc_bits >= 32
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] when a bit width is zero, exceeds
    /// 32, `weight_bits` is 1 (a symmetric quantizer at one bit has no
    /// nonzero level: [`QuantConfig::weight_qmax`] is 0), or
    /// `cell_bits > weight_bits`.
    pub fn validate(&self) -> Result<(), HwError> {
        let range = |name: &'static str, v: u32| {
            if v == 0 || v > 32 {
                return Err(HwError::InvalidParameter {
                    name,
                    detail: format!("must be in 1..=32, got {v}"),
                });
            }
            Ok(())
        };
        range("weight_bits", self.weight_bits)?;
        range("cell_bits", self.cell_bits)?;
        range("adc_bits", self.adc_bits)?;
        if self.weight_bits < 2 {
            return Err(HwError::InvalidParameter {
                name: "weight_bits",
                detail: format!(
                    "a symmetric {}-bit quantizer has no nonzero level; use at least 2",
                    self.weight_bits
                ),
            });
        }
        if self.cell_bits > self.weight_bits {
            return Err(HwError::InvalidParameter {
                name: "cell_bits",
                detail: format!(
                    "cell width {} exceeds weight width {}",
                    self.cell_bits, self.weight_bits
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_hardware_matches_config_helpers() {
        let hw = HardwareConfig::puma();
        let q = QuantConfig::for_hardware(&hw, 8).unwrap();
        assert_eq!(q.weight_bits, 16);
        assert_eq!(q.cell_bits, 2);
        assert_eq!(q.weight_qmax(), 32767);
        assert_eq!(q.adc_half_levels(), 128);
    }

    #[test]
    fn validate_rejects_bad_widths() {
        let hw = HardwareConfig::puma();
        assert!(QuantConfig::for_hardware(&hw, 0).is_err());
        assert!(QuantConfig::for_hardware(&hw, 33).is_err());
        let bad = QuantConfig {
            weight_bits: 4,
            cell_bits: 8,
            adc_bits: 8,
        };
        let e = bad.validate().unwrap_err();
        assert!(e.to_string().contains("cell_bits"));
        let one_bit = QuantConfig {
            weight_bits: 1,
            cell_bits: 1,
            adc_bits: 8,
        };
        let e = one_bit.validate().unwrap_err();
        assert!(e.to_string().contains("weight_bits"), "{e}");
        let two_bit = QuantConfig {
            weight_bits: 2,
            ..one_bit
        };
        assert_eq!(two_bit.validate(), Ok(()));
        assert_eq!(two_bit.weight_qmax(), 1);
    }
}
