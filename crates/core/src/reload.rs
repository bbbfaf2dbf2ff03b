//! Weight reloading (`weight_reload` mode): the COMPASS-style
//! resource-constrained regime, where a fixed crossbar budget is
//! time-multiplexed instead of holding every weight at once.
//!
//! Everything the mode decides lives here. [`Reload::new`] applies the
//! one rule, the same way at compile time and when an artifact is
//! loaded: a model whose single replica fits the budget's whole cores
//! stays resident on that core prefix, where the GA places it; any
//! other model is packed next-fit into serial *mapping epochs* over a
//! ring of cores, and the crossbars of cores shared by several epochs
//! are rewritten between them. Either way the compile records a
//! [`ReloadPlan`]: what the rewrites cost, and for packed models the
//! per-epoch compute estimate that stands in for the mapping's.

use crate::compiler::CompileOptions;
use crate::mapping::AgInstance;
use crate::partition::Partitioning;
use crate::schedule::slice_rows;
use crate::{cost, CompileError};
use pimcomp_arch::HardwareConfig;

/// The reload schedule of a `weight_reload` compilation: its budget,
/// its epoch count and what one inference round costs in rewrites.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadPlan {
    /// The crossbar budget the schedule respects.
    pub budget: usize,
    /// Cores `0..ring_cores` hold every AG: the resident prefix, or the
    /// packer's ring.
    pub ring_cores: usize,
    /// Mapping epochs, executed serially.
    epochs: usize,
    /// Total AG rewrites per inference round.
    pub total_ags_written: usize,
    /// Total cells written per inference round.
    pub total_cells_written: u64,
    /// Total reload stall cycles per inference round (sum of the
    /// per-epoch barriers).
    pub total_write_cycles: u64,
    /// Total write energy per inference round, in pJ.
    pub total_write_pj: f64,
    /// Sum of the per-epoch analytic compute estimates (epochs execute
    /// serially). Zero for a resident model, whose GA mapping is
    /// estimated instead; only read when the plan has several epochs.
    pub total_compute_cycles: u64,
}

impl ReloadPlan {
    /// Number of epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs
    }

    /// `true` when the model runs in one epoch (no reload cost; the
    /// compilation is equivalent to an ordinary one).
    pub fn is_single_epoch(&self) -> bool {
        self.epochs <= 1
    }

    /// The compile's estimated fitness when its epochs run serially:
    /// the per-epoch compute sum plus the write stalls. `None` for a
    /// single epoch, which rewrites nothing, so its mapping is
    /// estimated like any other.
    pub(crate) fn serial_estimate(&self) -> Option<f64> {
        let serial = self.total_compute_cycles as f64 + self.total_write_cycles as f64;
        (!self.is_single_epoch()).then_some(serial)
    }
}

/// What the `weight_reload` rule decided for one model.
#[derive(Debug, Default)]
pub(crate) struct Reload {
    /// The reload schedule; `None` outside `weight_reload` mode.
    pub(crate) plan: Option<ReloadPlan>,
    /// The epoch packer's AG instances, epoch after epoch; `None` when
    /// the GA places the model.
    pub(crate) packed: Option<Vec<AgInstance>>,
}

impl Reload {
    /// Applies the rule: `weight_reload` off decides nothing; otherwise
    /// the budget defaults to, and is clamped at, the hardware's
    /// crossbars, and a model that fits its whole cores stays resident
    /// (one epoch, zero reload cost — kept so the compile records that
    /// it was budget-constrained) while any other is packed.
    ///
    /// # Errors
    ///
    /// [`CompileError::ReloadBudgetTooSmall`] when the budget cannot
    /// hold even one Array Group.
    pub(crate) fn new(
        partitioning: &Partitioning,
        hw: &HardwareConfig,
        opts: &CompileOptions,
    ) -> Result<Self, CompileError> {
        if !opts.weight_reload {
            return Ok(Reload::default());
        }
        let total = hw.total_crossbars();
        let budget = opts.reload_budget.unwrap_or(total).min(total);
        let capacity = hw.crossbar_capacity_per_core();
        let usable = (budget / capacity).min(hw.total_cores());
        if usable >= 1 && partitioning.min_crossbars() <= usable * capacity {
            let plan = ReloadPlan {
                budget,
                ring_cores: usable,
                epochs: 1,
                total_ags_written: 0,
                total_cells_written: 0,
                total_write_cycles: 0,
                total_write_pj: 0.0,
                total_compute_cycles: 0,
            };
            return Ok(Reload {
                plan: Some(plan),
                packed: None,
            });
        }
        let packing = EpochPlan::new(partitioning, hw, budget)?;
        Ok(Reload {
            plan: Some(packing.cost(partitioning, hw)),
            packed: Some(packing.instances),
        })
    }

    /// The cores the GA may place on: a resident model's budget prefix;
    /// `None`, every core, otherwise.
    pub(crate) fn core_limit(&self) -> Option<usize> {
        match (&self.plan, &self.packed) {
            (Some(plan), None) => Some(plan.ring_cores),
            _ => None,
        }
    }
}

/// The epoch packer's placement: every AG once (replication is fixed
/// at 1), split into serial epochs over a ring of cores.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EpochPlan {
    /// AG instances in `(node, slice)` order, which is also epoch order.
    instances: Vec<AgInstance>,
    /// Where each epoch ends in `instances` (exclusive).
    ends: Vec<usize>,
    /// The crossbar budget (clamped to the hardware's crossbars).
    budget: usize,
    /// Cores `0..ring_cores` form the ring; no AG is placed outside it.
    ring_cores: usize,
}

impl EpochPlan {
    /// Packs every AG instance into capacity-feasible epochs over a
    /// fixed ring of cores.
    ///
    /// The ring spans cores `0..ceil(budget / capacity)` (clamped to
    /// the core count), each capped at the per-core capacity except the
    /// last, which absorbs the budget remainder. AG instances are
    /// visited in `(mvm, slice)` order and placed next-fit: a rotating
    /// pointer sticks to its current core until an AG no longer fits,
    /// then advances around the ring; when a full lap finds no room the
    /// epoch closes, every core's occupancy resets, and packing
    /// continues in a fresh epoch (the pointer persists so adjacent
    /// epochs start filling where the previous one stopped). The
    /// procedure is deterministic — no search, no randomness — so
    /// epoch plans are bit-identical across runs by construction.
    ///
    /// # Errors
    ///
    /// [`CompileError::ReloadBudgetTooSmall`] when `budget` cannot hold
    /// the widest single AG (the atomic placement unit).
    fn new(
        partitioning: &Partitioning,
        hw: &HardwareConfig,
        budget: usize,
    ) -> Result<Self, CompileError> {
        let capacity = hw.crossbar_capacity_per_core();
        let budget = budget.min(hw.total_crossbars());
        let min_ag = partitioning
            .entries()
            .iter()
            .map(|e| e.crossbars_per_ag)
            .max()
            .unwrap_or(0);
        if budget < min_ag {
            return Err(CompileError::ReloadBudgetTooSmall { budget, min_ag });
        }
        let ring_cores = budget.div_ceil(capacity).min(hw.total_cores());
        let cap_of = |core: usize| {
            if core + 1 == ring_cores && budget < ring_cores * capacity {
                budget - (ring_cores - 1) * capacity
            } else {
                capacity
            }
        };

        let mut instances = Vec::new();
        let mut ends = Vec::new();
        let mut used = vec![0usize; ring_cores];
        let mut ptr = 0usize;
        for (mvm, entry) in partitioning.entries().iter().enumerate() {
            let w = entry.crossbars_per_ag;
            for slice in 0..entry.ags_per_replica {
                let fit = |used: &[usize]| {
                    let mut ring = (0..ring_cores).map(|step| (ptr + step) % ring_cores);
                    ring.find(|&core| used[core] + w <= cap_of(core))
                };
                let core = match fit(&used) {
                    Some(core) => core,
                    None => {
                        // Close the epoch; the widest-AG check above makes
                        // the AG fit the fresh one.
                        ends.push(instances.len());
                        used.fill(0);
                        fit(&used).expect("an empty ring holds every admitted AG")
                    }
                };
                used[core] += w;
                ptr = core;
                instances.push(AgInstance {
                    mvm,
                    replica: 0,
                    slice,
                    core,
                });
            }
        }
        ends.push(instances.len());
        Ok(EpochPlan {
            instances,
            ends,
            budget,
            ring_cores,
        })
    }

    /// Each epoch's AG instances, in execution order.
    fn epochs(&self) -> impl Iterator<Item = &[AgInstance]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.instances[start..end])
    }

    /// Derives the reload cost of this placement.
    ///
    /// Residency rule: a core shared by several epochs has its contents
    /// rewritten at every epoch boundary, so *all* its AGs are charged
    /// — including epoch 0's, because in steady state (one reload pass
    /// per inference round) even the first epoch's weights were
    /// overwritten by the previous pass. A core hosting AGs of exactly
    /// one epoch keeps its weights resident and is never rewritten; a
    /// single-epoch plan therefore costs nothing, matching ordinary
    /// compilation.
    ///
    /// Per AG, programming is row-serial but cell- and
    /// crossbar-parallel ([`cost::slice_rewrite`]); cores
    /// write serially within themselves but in parallel with each
    /// other, so an epoch's stall is the maximum per-core write-cycle
    /// sum, and the plan total is the sum over epochs.
    ///
    /// Each epoch also gets an analytic per-inference compute estimate:
    /// the Fig. 5 per-core busy-time model ([`crate::cost::ht_core_time`])
    /// applied to the epoch's AGs, maxed over cores. Epochs execute
    /// serially, so the simulator sums these instead of event-simulating
    /// an over-committed mapping (which would model all epochs as
    /// physically concurrent).
    fn cost(&self, partitioning: &Partitioning, hw: &HardwareConfig) -> ReloadPlan {
        let mut core_epochs = vec![0usize; self.ring_cores];
        for epoch in self.epochs() {
            let mut seen = vec![false; self.ring_cores];
            for a in epoch {
                if !seen[a.core] {
                    seen[a.core] = true;
                    core_epochs[a.core] += 1;
                }
            }
        }

        let mut plan = ReloadPlan {
            budget: self.budget,
            ring_cores: self.ring_cores,
            epochs: self.ends.len(),
            total_ags_written: 0,
            total_cells_written: 0,
            total_write_cycles: 0,
            total_write_pj: 0.0,
            total_compute_cycles: 0,
        };
        let mut windows_on = vec![Vec::new(); self.ring_cores];
        for epoch in self.epochs() {
            let mut write_cycles_on = vec![0u64; self.ring_cores];
            let mut write_pj = 0.0;
            windows_on.iter_mut().for_each(Vec::clear);
            for a in epoch {
                let e = partitioning.entry(a.mvm);
                windows_on[a.core].push((1, e.windows));
                if core_epochs[a.core] > 1 {
                    let rows = slice_rows(e.weight_height, hw.crossbar_rows, a.slice);
                    let (cycles, cells, pj) = cost::slice_rewrite(hw, rows, e.weight_width);
                    plan.total_ags_written += 1;
                    plan.total_cells_written += cells;
                    write_pj += pj;
                    write_cycles_on[a.core] = write_cycles_on[a.core].saturating_add(cycles);
                }
            }
            let barrier = write_cycles_on.into_iter().max().unwrap_or(0);
            let compute = windows_on
                .iter_mut()
                .map(|items| cost::ht_core_time_in_place(hw, items));
            plan.total_write_cycles = plan.total_write_cycles.saturating_add(barrier);
            plan.total_write_pj += write_pj;
            plan.total_compute_cycles = plan
                .total_compute_cycles
                .saturating_add(compute.max().unwrap_or(0));
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_arch::PipelineMode;
    use pimcomp_ir::models;
    use std::collections::BTreeMap;

    fn small_partitioning() -> (Partitioning, HardwareConfig) {
        let hw = HardwareConfig::small_test();
        let g = pimcomp_ir::transform::normalize(&models::tiny_cnn()).unwrap();
        let p = Partitioning::new(&g, &hw).unwrap();
        (p, hw)
    }

    #[test]
    fn epoch_plan_places_every_ag_exactly_once_within_budget() {
        let (p, hw) = small_partitioning();
        let budget = 32;
        let plan = EpochPlan::new(&p, &hw, budget).unwrap();
        assert!(plan.ends.len() > 1, "tiny_cnn must overflow 32 crossbars");
        // Every (mvm, slice) instance appears exactly once across all
        // epochs, on a ring core, and each epoch respects the budget.
        let mut seen = std::collections::BTreeSet::new();
        for epoch in plan.epochs() {
            assert!(!epoch.is_empty());
            let mut used = vec![0usize; plan.ring_cores];
            for a in epoch {
                assert!(a.core < plan.ring_cores && a.replica == 0);
                assert!(seen.insert((a.mvm, a.slice)), "duplicate placement");
                used[a.core] += p.entry(a.mvm).crossbars_per_ag;
            }
            assert!(used.iter().sum::<usize>() <= budget);
            for (core, &u) in used.iter().enumerate() {
                assert!(
                    u <= hw.crossbar_capacity_per_core(),
                    "core {core} over capacity"
                );
            }
        }
        let total: usize = p.entries().iter().map(|e| e.ags_per_replica).sum();
        assert_eq!(seen.len(), total);
        assert_eq!(plan.instances.len(), total);
    }

    #[test]
    fn epoch_plan_is_deterministic() {
        let (p, hw) = small_partitioning();
        let a = EpochPlan::new(&p, &hw, 32).unwrap();
        let b = EpochPlan::new(&p, &hw, 32).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn budget_below_widest_ag_is_a_structured_error() {
        let (p, hw) = small_partitioning();
        let min_ag = p
            .entries()
            .iter()
            .map(|e| e.crossbars_per_ag)
            .max()
            .unwrap();
        match EpochPlan::new(&p, &hw, min_ag - 1) {
            Err(CompileError::ReloadBudgetTooSmall { budget, min_ag: m }) => {
                assert_eq!((budget, m), (min_ag - 1, min_ag));
            }
            other => panic!("expected ReloadBudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn fitting_budget_yields_single_zero_cost_epoch() {
        let (p, hw) = small_partitioning();
        let plan = EpochPlan::new(&p, &hw, hw.total_crossbars()).unwrap();
        assert_eq!(plan.ends.len(), 1);
        let reload = plan.cost(&p, &hw);
        assert!(reload.is_single_epoch());
        // Every core hosts AGs of exactly one epoch, so nothing is
        // ever rewritten (the analytic compute estimate is still
        // populated, but single-epoch models use the event-driven
        // simulator instead).
        assert_eq!(reload.total_ags_written, 0);
        assert_eq!(reload.total_cells_written, 0);
        assert_eq!(reload.total_write_cycles, 0);
        assert_eq!(reload.total_write_pj, 0.0);
        assert!(reload.total_compute_cycles > 0);
        assert_eq!(reload.serial_estimate(), None);
    }

    #[test]
    fn multi_epoch_reload_cost_totals_are_the_epoch_sums() {
        let (p, hw) = small_partitioning();
        let plan = EpochPlan::new(&p, &hw, 32).unwrap();
        let reload = plan.cost(&p, &hw);
        assert_eq!(reload.epoch_count(), plan.ends.len());
        assert!(reload.total_write_cycles > 0);
        assert!(reload.total_write_pj > 0.0);

        // Per-epoch oracle: `(write cycles, compute cycles, cells)` of
        // each epoch, the compute grouped per core and node as Fig. 5
        // states it.
        let shared: Vec<bool> = (0..plan.ring_cores)
            .map(|core| {
                plan.epochs()
                    .filter(|e| e.iter().any(|a| a.core == core))
                    .count()
                    > 1
            })
            .collect();
        let oracle: Vec<(u64, u64, u64)> = plan
            .epochs()
            .map(|epoch| {
                let mut write = vec![0u64; plan.ring_cores];
                let mut nodes = vec![BTreeMap::<usize, usize>::new(); plan.ring_cores];
                let mut cells = 0;
                for a in epoch {
                    let e = p.entry(a.mvm);
                    *nodes[a.core].entry(a.mvm).or_default() += 1;
                    if shared[a.core] {
                        let rows = slice_rows(e.weight_height, hw.crossbar_rows, a.slice);
                        write[a.core] += rows as u64 * hw.xbar_write_row_cycles;
                        cells += (rows * e.weight_width * hw.cells_per_weight()) as u64;
                    }
                }
                let compute = nodes.iter().map(|nodes| {
                    let items: Vec<(usize, usize)> = nodes
                        .iter()
                        .map(|(&mvm, &ags)| (ags, p.entry(mvm).windows))
                        .collect();
                    crate::cost::ht_core_time(&hw, &items)
                });
                let write = write.into_iter().max().unwrap();
                (write, compute.max().unwrap(), cells)
            })
            .collect();
        // Serial epochs: every epoch contributes nonzero compute, and
        // the totals are exactly the per-epoch sums.
        assert!(oracle.iter().all(|&(_, compute, _)| compute > 0));
        let sum = |f: fn(&(u64, u64, u64)) -> u64| oracle.iter().map(f).sum::<u64>();
        assert_eq!(reload.total_write_cycles, sum(|e| e.0));
        assert_eq!(reload.total_compute_cycles, sum(|e| e.1));
        assert_eq!(reload.total_cells_written, sum(|e| e.2));
        assert_eq!(
            reload.serial_estimate(),
            Some(sum(|e| e.1) as f64 + sum(|e| e.0) as f64)
        );
    }

    #[test]
    fn oversized_budget_clamps_to_the_hardware() {
        let (p, hw) = small_partitioning();
        let plan = EpochPlan::new(&p, &hw, usize::MAX).unwrap();
        assert_eq!(plan.budget, hw.total_crossbars());
        assert_eq!(plan.ends.len(), 1);
    }

    #[test]
    fn the_rule_keeps_a_fitting_model_resident_and_packs_the_rest() {
        let (p, hw) = small_partitioning();
        let opts =
            |budget| CompileOptions::new(PipelineMode::HighThroughput).with_weight_reload(budget);
        let off = Reload::new(&p, &hw, &CompileOptions::new(PipelineMode::HighThroughput)).unwrap();
        assert!(off.plan.is_none() && off.packed.is_none() && off.core_limit().is_none());
        let resident = Reload::new(&p, &hw, &opts(None)).unwrap();
        let plan = resident.plan.as_ref().unwrap();
        assert!(resident.packed.is_none() && plan.is_single_epoch());
        assert_eq!(resident.core_limit(), Some(plan.ring_cores));
        let packed = Reload::new(&p, &hw, &opts(Some(32))).unwrap();
        assert_eq!(packed.core_limit(), None);
        assert_eq!(
            packed.packed.unwrap(),
            EpochPlan::new(&p, &hw, 32).unwrap().instances
        );
    }
}
