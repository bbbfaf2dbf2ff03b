//! Analytic simulation of multi-epoch `weight_reload` models.
//!
//! A model compiled over a crossbar budget smaller than its footprint
//! executes epoch by epoch: one epoch's Array Groups are resident,
//! compute runs, then shared cores are reprogrammed with the next
//! epoch's weights. Epochs therefore *serialize* — the event-driven
//! engines, which execute a mapping as physically concurrent, would
//! both mismodel that and blow their event budgets on the
//! over-committed placements reload mode produces. This module instead
//! assembles the report analytically from the compiled
//! [`ReloadPlan`]:
//!
//! * **cycles** — the plan's per-epoch Fig. 5 compute estimates plus
//!   the reload write barriers (the HT batch is windows per
//!   global-memory round, so it moves no per-inference work);
//! * **MVM work/energy** — exact counts from the mapping (every AG
//!   processes its node's windows once per inference);
//! * **leakage** — active cores and global memory leak over the whole
//!   serialized makespan (no early power-down across epochs).
//!
//! Event-level effects — NoC transfers, global-memory port contention,
//! VFU chains — are not modeled on this path; their counters read zero
//! and `per_core_busy` is empty. Single-epoch reload plans (one epoch
//! holds every AG) take the ordinary event-driven engines instead.

use crate::report::{makespan_leakage_pj, Counters, SimReport};
use crate::resources::later;
use crate::SimError;
use pimcomp_arch::EnergyModel;
use pimcomp_core::{CompiledModel, ReloadPlan};

/// Assembles the analytic report for a multi-epoch reload model.
///
/// # Errors
///
/// [`SimError::Diverged`] when the makespan does not fit the simulated
/// clock (the plan's cycle sums saturate at `u64::MAX`).
pub(crate) fn run(
    compiled: &CompiledModel,
    energy_model: &EnergyModel,
    plan: &ReloadPlan,
) -> Result<SimReport, SimError> {
    // Exact MVM work: replication is 1 on this path, so each AG
    // instance runs its node's full window count per inference.
    let mut counted = Counters::default();
    for inst in &compiled.mapping.instances {
        let e = compiled.partitioning.entry(inst.mvm);
        counted.mvm_ops += e.windows as u64;
        counted.crossbar_mvms += (e.windows * e.crossbars_per_ag) as u64;
    }

    // The plan's sums saturate, and a saturated estimate is no clock.
    let compute_cycles = plan.total_compute_cycles;
    if compute_cycles == u64::MAX {
        return Err(SimError::Diverged {
            detail: "the simulated clock overflows u64 at the reload epochs' compute estimate"
                .to_string(),
        });
    }

    // Serialized epochs keep every active core powered across the whole
    // makespan, write barriers included (a core hosting epoch-3 weights
    // cannot power down while epoch 0 runs — it is about to be
    // rewritten).
    let active = compiled.mapping.active_cores();
    let makespan = later(
        compute_cycles,
        plan.total_write_cycles,
        "a reload write barrier",
    )?;
    let leak = makespan_leakage_pj(energy_model, &compiled.hw, active, makespan);
    let busy = Vec::new();
    Ok(counted.into_report(compiled, energy_model, compute_cycles, leak, active, busy))
}
