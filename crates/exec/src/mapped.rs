//! The mapped MVM strategy: execute a compiled model's per-crossbar
//! layout numerically.
//!
//! Each MVM node's weight matrix is split exactly the way the compiled
//! [`Partitioning`] and [`CoreMapping`] say it is: column groups first,
//! then Array Groups (crossbar-height row slices), each AG's columns
//! living on physical crossbars; replicas hold the same weights and
//! share the windows, so they are validated but compute nothing
//! different. Every `(column group, slice)` is one call into the
//! kernel ([`MvmJob::gemm`]) over that slice's row range, and
//! a window's output element is the sum of its per-slice partial sums,
//! accumulated in ascending slice order at the replica's owner core —
//! so a missing, duplicated or misplaced AG in the mapping produces
//! either a structured [`ExecError`] or a wrong tensor a differential
//! test catches.
//!
//! With a [`QuantConfig`], the executor additionally models the analog
//! datapath: weights are rounded to `weight_bits`-bit integers under a
//! per-node symmetric scale (their base-`2^cell_bits` bit-slice
//! decomposition is value-exact, see [`slice_cells`]), and every
//! per-crossbar column sum passes through an ADC that rounds and clips
//! to a `2^adc_bits`-level grid over a per-node calibrated full scale
//! (the largest magnitude among the node's stored partials).
//! ADC grids over one full scale are nested in `adc_bits`, so the
//! per-partial error — and with it the single-layer output RMSE — is
//! monotone non-increasing in ADC resolution.

use crate::engine::{MvmBackend, MvmJob, WeightMatrix};
use crate::error::ExecError;
use pimcomp_arch::QuantConfig;
use pimcomp_core::{slice_rows, CompiledModel, EpochPlan};

/// Computes MVM nodes through the compiled per-crossbar layout.
pub struct MappedBackend<'a> {
    model: &'a CompiledModel,
    quant: Option<QuantConfig>,
}

impl<'a> MappedBackend<'a> {
    /// Builds the executor, validating everything it will index: the
    /// replication counts, every AG instance's `(mvm, replica, slice,
    /// core)`, the owner table, per-entry geometry against the
    /// hardware, and (for multi-epoch `weight_reload` artifacts) the
    /// reconstructed epoch plan.
    ///
    /// # Errors
    ///
    /// [`ExecError::MappingIncomplete`] / [`ExecError::CoreOutOfRange`]
    /// / [`ExecError::ReloadPlanMismatch`] on any inconsistency a
    /// truncated or tampered artifact could exhibit, and
    /// [`ExecError::InvalidQuant`] for bad quantization knobs.
    pub fn new(model: &'a CompiledModel, quant: Option<QuantConfig>) -> Result<Self, ExecError> {
        if let Some(q) = &quant {
            q.validate().map_err(|e| ExecError::InvalidQuant {
                detail: e.to_string(),
            })?;
        }
        let entries = model.partitioning.entries();
        let counts = model.mapping.replication.counts();
        if counts.len() != entries.len() {
            return Err(ExecError::MappingIncomplete {
                detail: format!(
                    "replication plan covers {} nodes, partitioning has {}",
                    counts.len(),
                    entries.len()
                ),
            });
        }
        let total_cores = model.hw.total_cores();
        let hx = model.hw.crossbar_rows;
        let wcc = model.hw.weight_cols_per_crossbar();
        if hx == 0 || wcc == 0 {
            return Err(ExecError::MappingIncomplete {
                detail: "hardware has zero crossbar rows or weight columns".to_string(),
            });
        }
        for (i, e) in entries.iter().enumerate() {
            if counts[i] == 0 {
                return Err(ExecError::MappingIncomplete {
                    detail: format!("entry {i} (`{}`) has replication 0", e.name),
                });
            }
            if e.ags_per_replica != e.weight_height.div_ceil(hx)
                || e.crossbars_per_ag != e.weight_width.div_ceil(wcc)
            {
                return Err(ExecError::MappingIncomplete {
                    detail: format!(
                        "entry {i} (`{}`) geometry ({} AGs × {} crossbars) disagrees with \
                         a {}×{} weight matrix on {hx}-row, {wcc}-weight-column crossbars",
                        e.name,
                        e.ags_per_replica,
                        e.crossbars_per_ag,
                        e.weight_height,
                        e.weight_width
                    ),
                });
            }
        }

        // Coverage: every (entry, replica, slice) is held by exactly
        // one AG instance on an in-range core.
        let mut covered: Vec<Vec<Vec<bool>>> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| vec![vec![false; e.ags_per_replica]; counts[i]])
            .collect();
        for inst in &model.mapping.instances {
            let slot = covered
                .get_mut(inst.mvm)
                .ok_or(ExecError::MappingIncomplete {
                    detail: format!(
                        "AG instance names MVM entry {} of {}",
                        inst.mvm,
                        entries.len()
                    ),
                })?
                .get_mut(inst.replica)
                .ok_or_else(|| ExecError::MappingIncomplete {
                    detail: format!(
                        "AG instance names replica {} of entry {} (replication {})",
                        inst.replica, inst.mvm, counts[inst.mvm]
                    ),
                })?
                .get_mut(inst.slice)
                .ok_or_else(|| ExecError::MappingIncomplete {
                    detail: format!(
                        "AG instance names slice {} of entry {} ({} AGs per replica)",
                        inst.slice, inst.mvm, entries[inst.mvm].ags_per_replica
                    ),
                })?;
            if inst.core >= total_cores {
                return Err(ExecError::CoreOutOfRange {
                    core: inst.core,
                    total: total_cores,
                });
            }
            if std::mem::replace(slot, true) {
                return Err(ExecError::MappingIncomplete {
                    detail: format!(
                        "duplicate AG instance (entry {}, replica {}, slice {})",
                        inst.mvm, inst.replica, inst.slice
                    ),
                });
            }
        }
        for (i, replicas) in covered.iter().enumerate() {
            for (r, slices) in replicas.iter().enumerate() {
                if let Some(s) = slices.iter().position(|&held| !held) {
                    return Err(ExecError::MappingIncomplete {
                        detail: format!("no AG instance for entry {i}, replica {r}, slice {s}"),
                    });
                }
            }
        }

        // Owner table: one accumulation core per replica, in range.
        if model.mapping.owners.len() != entries.len() {
            return Err(ExecError::MappingIncomplete {
                detail: format!(
                    "owner table covers {} nodes, partitioning has {}",
                    model.mapping.owners.len(),
                    entries.len()
                ),
            });
        }
        for (i, owners) in model.mapping.owners.iter().enumerate() {
            if owners.len() != counts[i] {
                return Err(ExecError::MappingIncomplete {
                    detail: format!(
                        "entry {i} has {} owners for {} replicas",
                        owners.len(),
                        counts[i]
                    ),
                });
            }
            for &core in owners {
                if core >= total_cores {
                    return Err(ExecError::CoreOutOfRange {
                        core,
                        total: total_cores,
                    });
                }
            }
        }

        let backend = MappedBackend { model, quant };
        backend.check_reload_plan()?;
        Ok(backend)
    }

    /// Multi-epoch `weight_reload` artifacts: reconstruct the
    /// (deterministic) epoch plan from the stored budget and insist it
    /// covers every Array Group exactly once with replication 1 — the
    /// duplication-free time-multiplexing contract that only numerics
    /// can falsify.
    fn check_reload_plan(&self) -> Result<(), ExecError> {
        let Some(plan) = self.model.reload.as_ref().filter(|p| !p.is_single_epoch()) else {
            return Ok(());
        };
        let entries = self.model.partitioning.entries();
        let counts = self.model.mapping.replication.counts();
        if counts.iter().any(|&c| c != 1) {
            return Err(ExecError::ReloadPlanMismatch {
                detail: "multi-epoch reload mapping must be duplication-free (replication 1)"
                    .to_string(),
            });
        }
        let rebuilt = EpochPlan::new(&self.model.partitioning, &self.model.hw, plan.budget)
            .map_err(|e| ExecError::ReloadPlanMismatch {
                detail: format!("cannot rebuild epoch plan for budget {}: {e}", plan.budget),
            })?;
        if rebuilt.epoch_count() != plan.epoch_count() {
            return Err(ExecError::ReloadPlanMismatch {
                detail: format!(
                    "stored plan has {} epochs, rebuilt plan has {}",
                    plan.epoch_count(),
                    rebuilt.epoch_count()
                ),
            });
        }
        let mut seen: Vec<Vec<bool>> = entries
            .iter()
            .map(|e| vec![false; e.ags_per_replica])
            .collect();
        for epoch in &rebuilt.epochs {
            for a in epoch {
                let slot = seen
                    .get_mut(a.mvm)
                    .and_then(|s| s.get_mut(a.slice))
                    .ok_or_else(|| ExecError::ReloadPlanMismatch {
                        detail: format!(
                            "epoch assignment (entry {}, slice {}) is out of range",
                            a.mvm, a.slice
                        ),
                    })?;
                if *slot {
                    return Err(ExecError::ReloadPlanMismatch {
                        detail: format!(
                            "entry {} slice {} is written in two epochs",
                            a.mvm, a.slice
                        ),
                    });
                }
                *slot = true;
            }
        }
        if let Some((i, s)) = seen
            .iter()
            .enumerate()
            .find_map(|(i, v)| v.iter().position(|&b| !b).map(|s| (i, s)))
        {
            return Err(ExecError::ReloadPlanMismatch {
                detail: format!("entry {i} slice {s} is never scheduled in any epoch"),
            });
        }
        Ok(())
    }

    /// The node's partition entries in column-group order, validated
    /// against the job geometry.
    fn node_entries(&self, job: &MvmJob) -> Result<Vec<usize>, ExecError> {
        let mut indices = self.model.partitioning.indices_of(job.node.id);
        if indices.is_empty() {
            return Err(ExecError::MissingPartition {
                node: job.node.name.clone(),
            });
        }
        let entries = self.model.partitioning.entries();
        indices.sort_by_key(|&i| entries[i].col_group);
        let mut width = 0usize;
        for (pos, &i) in indices.iter().enumerate() {
            let e = &entries[i];
            if e.col_group != pos || e.col_groups != indices.len() {
                return Err(ExecError::MappingIncomplete {
                    detail: format!(
                        "column groups of `{}` are not consecutive (group {} of {})",
                        job.node.name, e.col_group, e.col_groups
                    ),
                });
            }
            if e.weight_height != job.height || e.windows != job.windows {
                return Err(ExecError::ShapeMismatch {
                    node: job.node.name.clone(),
                    detail: format!(
                        "partition entry expects {}×? over {} windows, kernel computes {}×{} \
                         over {} windows",
                        e.weight_height, e.windows, job.height, job.width, job.windows
                    ),
                });
            }
            width += e.weight_width;
        }
        if width != job.width {
            return Err(ExecError::ShapeMismatch {
                node: job.node.name.clone(),
                detail: format!(
                    "column groups cover {width} columns, weight matrix has {}",
                    job.width
                ),
            });
        }
        Ok(indices)
    }

    /// Runs the layout: one kernel call per `(column group, slice)`
    /// over that slice's rows. Each call either adds its partial sums
    /// into the one `[width × windows]` tile `out` is, or — with
    /// `store_slices` — stores them into tile `s` of the
    /// `[slice][width × windows]` tiles `out` then holds.
    fn replay(&self, job: &MvmJob, indices: &[usize], out: &mut [f32], store_slices: bool) {
        let entries = self.model.partitioning.entries();
        let hx = self.model.hw.crossbar_rows;
        let cells = job.width * job.windows;
        let mut col_base = 0usize;
        for &idx in indices {
            let e = &entries[idx];
            let cols = col_base..col_base + e.weight_width;
            for s in 0..e.ags_per_replica {
                let k = s * hx..s * hx + slice_rows(e.weight_height, hx, s);
                let tile = if store_slices { s * cells } else { 0 };
                job.gemm(cols.clone(), k, &mut out[tile..tile + cells], !store_slices);
            }
            col_base += e.weight_width;
        }
    }
}

impl MvmBackend for MappedBackend<'_> {
    fn mvm(&mut self, job: &mut MvmJob) -> Result<Vec<f32>, ExecError> {
        let indices = self.node_entries(job)?;
        let mut out = vec![0.0f32; job.width * job.windows];
        if let Some(q) = &self.quant {
            quantize_weights(&mut job.weights, q);
        }
        match self.quant.filter(|q| !q.is_ideal_adc()) {
            // Unquantized, or an ideal converter: weight quantization
            // is then the only accuracy effect — the ADC-monotonicity
            // baseline.
            None => self.replay(job, &indices, &mut out, false),
            Some(q) => {
                // Every per-crossbar partial is computed once and
                // stored. The ADC full scale is the largest unclipped
                // partial magnitude of this node — a function of the
                // quantized weights and the input only, NOT of
                // adc_bits, so grids of different resolutions nest.
                let slices = job.height.div_ceil(self.model.hw.crossbar_rows);
                let mut partials = vec![0.0f32; slices * out.len()];
                self.replay(job, &indices, &mut partials, true);
                let full_scale = partials.iter().fold(0.0f32, |m, p| m.max(p.abs()));
                let half = q.adc_half_levels();
                for tile in partials.chunks_exact(out.len().max(1)) {
                    for (o, &p) in out.iter_mut().zip(tile) {
                        *o += adc_quantize(p, full_scale, half);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Rounds weights in place to `weight_bits`-bit signed integers under
/// a symmetric per-matrix scale, leaving the dequantized values. The
/// physical bit-slice storage (base-`2^cell_bits` cells) reconstructs
/// these values exactly, so computing with the dequantized matrix is
/// the cell-accurate result — see [`slice_cells`].
fn quantize_weights(w: &mut WeightMatrix, q: &QuantConfig) {
    let qmax = q.weight_qmax() as f32;
    let max_abs = w.cols.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max_abs == 0.0 {
        return;
    }
    let scale = max_abs / qmax;
    for v in &mut w.cols {
        *v = (*v / scale).round().clamp(-qmax, qmax) * scale;
    }
}

/// One ADC conversion: round `x` to the signed `2^adc_bits`-level grid
/// of step `full_scale / 2^(adc_bits-1)` and clip to its range. Grids
/// of increasing resolution over one full scale are nested (every
/// coarse level is a fine level and the clip range only widens), so
/// `|x - adc(x)|` is non-increasing in `adc_bits`.
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
}
