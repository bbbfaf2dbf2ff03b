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
//! [`ReloadPlan`](pimcomp_core::ReloadPlan):
//!
//! * **cycles** — the plan's per-epoch Fig. 5 compute estimates
//!   (scaled by the HT batch) plus the reload write barriers;
//! * **MVM work/energy** — exact counts from the mapping (every AG
//!   processes its node's windows once per inference);
//! * **leakage** — active cores and global memory leak over the whole
//!   serialized makespan (no early power-down across epochs).
//!
//! Event-level effects — NoC transfers, global-memory port contention,
//! VFU chains — are not modeled on this path; their counters read zero
//! and `per_core_busy` is empty. Single-epoch reload plans (the model
//! fit its budget) take the ordinary event-driven engines instead.

use crate::report::{makespan_leakage_pj, Counters, SimReport};
use crate::{invalid, SimError};
use pimcomp_arch::EnergyModel;
use pimcomp_core::{CompiledModel, ReloadPlan};

/// Assembles the analytic report for a multi-epoch reload model.
pub(crate) fn run(
    compiled: &CompiledModel,
    energy_model: &EnergyModel,
    plan: &ReloadPlan,
) -> Result<SimReport, SimError> {
    let batch = compiled.schedule.as_ht().map_or(1, |s| s.batch).max(1);

    // Exact MVM work: replication is 1 on this path, so each AG
    // instance runs its node's full window count per inference.
    let mut counted = Counters::default();
    let entries = compiled.partitioning.entries();
    for inst in &compiled.mapping.instances {
        let e = entries
            .get(inst.mvm)
            .ok_or_else(|| invalid(format!("an AG instance computes node {}", inst.mvm)))?;
        counted.mvm_ops += (e.windows * batch) as u64;
        counted.crossbar_mvms += (e.windows * batch * e.crossbars_per_ag) as u64;
    }

    // The Fig. 5 per-epoch estimates are linear in the operation-cycle
    // count, so batch scales them exactly.
    let compute_cycles = plan.total_compute_cycles * batch as u64;

    // Serialized epochs keep every active core powered across the whole
    // makespan, write barriers included (a core hosting epoch-3 weights
    // cannot power down while epoch 0 runs — it is about to be
    // rewritten).
    let active = compiled.mapping.active_cores();
    let makespan = compute_cycles + plan.total_write_cycles;
    let leak = makespan_leakage_pj(energy_model, &compiled.hw, active, makespan);
    let busy = Vec::new();
    Ok(counted.into_report(compiled, energy_model, compute_cycles, leak, active, busy))
}
