//! The one place schedule work becomes durations.
//!
//! Every cycle formula of the model is defined here, and nowhere else:
//! `pimcomp-arch` describes what the hardware *is* (its knobs, the
//! Table I energy library and the NoC topology), and this module alone
//! prices work on it. Four things read it:
//!
//! * the HT event engine, through [`HtCosts`]: per program, one round's
//!   global-memory load (with the core's spill share) and store, the
//!   span its MVMs take at most, its VFU passes and its partial-sum
//!   sends; per vec task, its load, VFU pass and store;
//! * the LL event engine, through [`LlCosts`]: per pipeline unit, one
//!   window's VFU pass, each replica's partial-sum traffic to its owner,
//!   the inbound forwarding delay and the provider edges;
//! * the GA's HT fitness and the reload packer, through the Fig. 5
//!   per-core busy time [`ht_core_time`]; the GA's LL fitness, through
//!   the Fig. 6 chain terms ([`ll_window_cycles`], [`vfu_elems_per_cycle`])
//!   and the LL issue floor ([`issue_floor`]);
//! * the reload packer's write barrier and write energy, through
//!   [`slice_rewrite`].
//!
//! The tables are built once per run from a schedule and hold only
//! constants; the engines keep state, queues and the clock. The timing
//! primitives (`issue_interval`, `operation_cycle_cost`, `vfu_cycles`,
//! `global_memory_cycles`, `xbar_write_cycles`) are private to this
//! module, and it alone builds a `NocModel`.

use crate::partition::Partitioning;
use crate::schedule::{HtSchedule, LlReplica, LlSchedule, LlUnitKind};
use crate::waiting::{required_windows_at, DepInfo, DepRule};
use pimcomp_arch::{HardwareConfig, NocModel};
use pimcomp_ir::{Graph, NodeId};
use std::ops::Range;

/// The MVM issue interval `T_interval` in cycles: consecutive MVM
/// launches within one core are spaced by at least this much, which
/// realizes the parallelism degree `T_MVM / T_interval`
/// (paper Fig. 5: `f(n) = n*T_interval` when issue-bound).
fn issue_interval(hw: &HardwareConfig) -> u64 {
    (hw.mvm_latency as f64 / hw.parallelism as f64)
        .ceil()
        .max(1.0) as u64
}

/// Cost in cycles of one *operation cycle* (one sliding window
/// across `n` concurrently-active AGs in a core): the paper's
/// `f(n) = max(n*T_interval, T_MVM)`, saturating at `u64::MAX` (a
/// latency near `u64::MAX` validates).
fn operation_cycle_cost(hw: &HardwareConfig, n_ags: usize) -> u64 {
    (n_ags as u64)
        .saturating_mul(issue_interval(hw))
        .max(hw.mvm_latency)
}

/// Cycles for the VFU array of a core to process `elements`
/// element-operations, saturating at `u64::MAX` (the float-to-integer
/// `as` saturates; a throughput near zero validates).
fn vfu_cycles(hw: &HardwareConfig, elements: usize) -> u64 {
    (elements as f64 / hw.vfu_rate()).ceil() as u64
}

/// Cycles to move `bytes` through the global memory port (bandwidth
/// only; contention is the simulator's job), saturating at
/// `u64::MAX` like [`vfu_cycles`].
fn global_memory_cycles(hw: &HardwareConfig, bytes: usize) -> u64 {
    (bytes as f64 / hw.global_memory_bw).ceil() as u64
}

/// Cycles to rewrite an array-group slice covering `rows` weight
/// rows: programming is row-serial but cell- and crossbar-parallel,
/// so only the row count matters. Saturates at `u64::MAX` like
/// [`operation_cycle_cost`].
fn xbar_write_cycles(hw: &HardwareConfig, rows: usize) -> u64 {
    (rows as u64).saturating_mul(hw.xbar_write_row_cycles)
}

/// Estimated busy time of one core in HT mode (paper Fig. 5).
///
/// `items` holds `(ag_count, cycles)` pairs: a node contributing
/// `ag_count` AGs, each of which must run `cycles` operation cycles
/// (sliding windows). AGs start in turn at `T_interval` spacing; each
/// operation cycle over `n` live AGs costs
/// `f(n) = max(n·T_interval, T_MVM)`. As nodes complete, `n` drops —
/// the piecewise rearrangement of Fig. 5(b)/(c).
pub fn ht_core_time(hw: &HardwareConfig, items: &[(usize, usize)]) -> u64 {
    ht_core_time_in_place(hw, &mut items.to_vec())
}

/// [`ht_core_time`] over a caller-owned buffer (filtered and sorted in
/// place), so the GA's hottest loop can reuse one scratch allocation
/// across cores. A core's entries need no grouping by node first: the
/// model only sees how many AGs are still live at each window count, so
/// equal-window entries merge exactly.
pub(crate) fn ht_core_time_in_place(hw: &HardwareConfig, items: &mut Vec<(usize, usize)>) -> u64 {
    items.retain(|&(a, c)| a > 0 && c > 0);
    if items.is_empty() {
        return 0;
    }
    items.sort_by_key(|&(_, cycles)| cycles);
    let mut live: usize = items.iter().map(|&(a, _)| a).sum();
    let mut done_cycles = 0usize;
    let mut time = 0u64;
    for &(ags, cycles) in items.iter() {
        let span = (cycles - done_cycles) as u64;
        if span > 0 {
            time = time.saturating_add(span.saturating_mul(operation_cycle_cost(hw, live)));
            done_cycles = cycles;
        }
        live -= ags;
    }
    time
}

/// One window of an MVM column group in the Fig. 6 LL chain, as the
/// chain's `f64`: an operation cycle over the `ags_per_replica` AGs of
/// one replica. The node's `U_x` is `⌈windows / R⌉` of these.
pub(crate) fn ll_window_cycles(hw: &HardwareConfig, ags_per_replica: usize) -> f64 {
    operation_cycle_cost(hw, ags_per_replica) as f64
}

/// Element-operations per cycle of one core's VFU array: a vector
/// node's Fig. 6 `U_x` is its work over this rate times the `R_pred`
/// cores it spreads over.
pub(crate) fn vfu_elems_per_cycle(hw: &HardwareConfig) -> f64 {
    hw.vfu_rate()
}

/// The LL issue floor: the busiest core's issue load (its AGs times
/// their node's windows per replica) scaled by `T_interval`.
pub(crate) fn issue_floor(hw: &HardwareConfig, worst_load: u64) -> f64 {
    worst_load as f64 * issue_interval(hw) as f64
}

/// The price of rewriting an AG slice of `rows` weight rows and `cols`
/// weight columns: `(cycles, cells, pJ)` — the cycles its core spends
/// programming it, the NVM cells written and their energy.
pub(crate) fn slice_rewrite(hw: &HardwareConfig, rows: usize, cols: usize) -> (u64, u64, f64) {
    let cells = (rows * cols * hw.cells_per_weight()) as u64;
    let pj = cells as f64 * hw.xbar_write_pj_per_cell;
    (xbar_write_cycles(hw, rows), cells, pj)
}

/// The bytes of one global-memory transfer and the port cycles they take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Bytes moved between a core's local memory and its chip's global
    /// memory.
    pub bytes: usize,
    /// Cycles the chip's global-memory port is held (bandwidth only;
    /// contention is the engine's).
    pub cycles: u64,
}

/// A per-round partial-sum message with its NoC cost.
#[derive(Debug, Clone, PartialEq)]
pub struct HtSendCost {
    /// Destination core (the replica's accumulation owner).
    pub to_core: usize,
    /// The program on `to_core` accumulating this node, if any.
    pub owner: Option<usize>,
    /// Payload bytes.
    pub bytes: u64,
    /// NoC cycles from the sender's core to `to_core`.
    pub cycles: u64,
    /// NoC energy of the transfer, in pJ.
    pub energy_pj: f64,
}

/// The per-round costs of one HT program.
#[derive(Debug, Clone, PartialEq)]
pub struct HtRoundCost {
    /// Global-memory load: the inputs plus the program's share of its
    /// core's spill write-out/read-back traffic.
    pub load: Transfer,
    /// Global-memory store of the round's results.
    pub store: Transfer,
    /// Crossbars each of the program's AGs drives per MVM.
    pub crossbars_per_ag: u64,
    /// A bound on how long after its first issue slot the round's last
    /// MVM ends: `k × T_interval + batch × T_MVM` for its `k` MVMs (the
    /// `batch` MVMs of one AG may queue behind each other; the program's
    /// previous round ended before the store that let this one start).
    pub mvm_span: u64,
    /// VFU element-operations once every partial arrived (remote adds
    /// + activation); zero for programs that own no remote slices.
    pub remote_add_elems: usize,
    /// VFU cycles of `remote_add_elems`.
    pub remote_add_cycles: u64,
    /// VFU element-operations right after the MVMs (intra-core adds).
    pub local_add_elems: usize,
    /// VFU cycles of `local_add_elems`.
    pub local_add_cycles: u64,
    /// Partial-sum messages pushed every round.
    pub sends: Vec<HtSendCost>,
}

/// The costs of one HT vec task: load, VFU pass, store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtVecCost {
    /// Global-memory load of the task's inputs.
    pub load: Transfer,
    /// Global-memory store of its outputs.
    pub store: Transfer,
    /// VFU cycles of its element-operations.
    pub vfu_pass: u64,
}

/// Every duration the HT engine adds, indexed like the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct HtCosts {
    /// `T_interval`: the spacing of MVM issues within a core.
    pub t_interval: u64,
    /// `T_MVM`: the latency of one MVM.
    pub t_mvm: u64,
    /// Per program: one round's costs.
    pub rounds: Vec<HtRoundCost>,
    /// Per vec task.
    pub vec_tasks: Vec<HtVecCost>,
}

impl HtCosts {
    /// Prices `schedule` on `hw`; `spill_bytes_per_round` is the memory
    /// plan's per-core spill traffic. The schedule is the compiler's own
    /// derivation (a loaded artifact rebuilds it), so its indices are
    /// not re-checked here.
    pub fn new(
        hw: &HardwareConfig,
        partitioning: &Partitioning,
        schedule: &HtSchedule,
        spill_bytes_per_round: &[usize],
    ) -> Self {
        let noc = NocModel::new(hw);
        let transfer = |bytes| Transfer {
            bytes,
            cycles: global_memory_cycles(hw, bytes),
        };
        let batch = schedule.batch as u64;
        // The program on `core` running node `mvm` (a core runs one per node).
        let program = |core: usize, mvm| {
            let mut on_core = schedule.per_core[core].iter().copied();
            on_core.find(|&pid| schedule.programs[pid].mvm == mvm)
        };

        HtCosts {
            t_interval: issue_interval(hw),
            t_mvm: hw.mvm_latency,
            rounds: schedule
                .programs
                .iter()
                .map(|p| {
                    let entry = partitioning.entry(p.mvm);
                    let recvs = p.recvs_per_round;
                    let remote_add_elems = if recvs > 0 {
                        (recvs + 1) * entry.weight_width * schedule.batch
                    } else {
                        0
                    };
                    let spill_share =
                        2 * spill_bytes_per_round[p.core] / schedule.per_core[p.core].len().max(1);
                    let local_add_elems = p.vec_elems_per_round.saturating_sub(remote_add_elems);
                    HtRoundCost {
                        load: transfer(p.load_bytes_per_round + spill_share),
                        store: transfer(p.store_bytes_per_round),
                        crossbars_per_ag: entry.crossbars_per_ag as u64,
                        mvm_span: (batch.saturating_mul(p.ag_instances.len() as u64))
                            .saturating_mul(issue_interval(hw))
                            .saturating_add(batch.saturating_mul(hw.mvm_latency)),
                        remote_add_elems,
                        remote_add_cycles: vfu_cycles(hw, remote_add_elems),
                        local_add_elems,
                        local_add_cycles: vfu_cycles(hw, local_add_elems),
                        sends: p
                            .sends_per_round
                            .iter()
                            .map(|s| HtSendCost {
                                to_core: s.to_core,
                                owner: program(s.to_core, p.mvm),
                                bytes: s.bytes as u64,
                                cycles: noc.transfer_cycles(p.core, s.to_core, s.bytes),
                                energy_pj: noc.transfer_energy_pj(p.core, s.to_core, s.bytes),
                            })
                            .collect(),
                    }
                })
                .collect(),
            vec_tasks: schedule
                .vec_tasks
                .iter()
                .map(|t| HtVecCost {
                    load: transfer(t.load_bytes),
                    store: transfer(t.store_bytes),
                    vfu_pass: vfu_cycles(hw, t.elems),
                })
                .collect(),
        }
    }
}

/// One `(unit, provider)` edge as the LL dependency check reads it,
/// resolved once instead of through the edge map and both graph nodes
/// on every check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlEdge {
    /// Provider node index.
    pub provider: usize,
    rule: DepRule,
    consumer_dims: (usize, usize),
    consumer_windows: usize,
    provider_dims: (usize, usize),
    provider_windows: usize,
}

impl LlEdge {
    /// Provider windows (prefix length) the consumer window at output
    /// `(row, col)` needs.
    pub fn required(&self, row: usize, col: usize) -> usize {
        required_windows_at(
            self.rule,
            (row, col),
            self.consumer_dims,
            self.consumer_windows,
            self.provider_dims,
            self.provider_windows,
        )
    }
}

/// The partial-sum traffic of one window of an MVM replica: every core
/// but the owner sends its share to the owner.
#[derive(Debug, Clone, PartialEq)]
pub struct LlRemote {
    /// The slowest of those transfers (0 when the owner holds every AG).
    pub cycles: u64,
    /// Where the energy of each lies in [`LlCosts::partial_pj`].
    pub pj: Range<usize>,
}

/// The per-window costs of one LL pipeline unit.
#[derive(Debug, Clone, PartialEq)]
pub struct LlUnitCost {
    /// Cycles of one window's VFU pass on the owner (accumulate +
    /// activate for MVM units).
    pub vfu_pass: u64,
    /// Inbound forwarding delay: the slowest provider owner → this
    /// unit's owner transfer of one provider window.
    pub forward_cycles: u64,
    /// The unit's providers, in schedule order.
    pub edges: Vec<LlEdge>,
    /// Per replica of an MVM unit; empty for vector units.
    pub remotes: Vec<LlRemote>,
}

/// Every duration the LL engine adds, indexed like the schedule's units.
#[derive(Debug, Clone, PartialEq)]
pub struct LlCosts {
    /// `T_interval`: the spacing of MVM issues within a core.
    pub t_interval: u64,
    /// `T_MVM`: the latency of one MVM.
    pub t_mvm: u64,
    /// Per unit.
    pub units: Vec<LlUnitCost>,
    /// Every replica's partial-sum transfer energies, one flat array in
    /// (unit, replica, `ags_per_core`) order: a window adds its
    /// replica's to the run's `f64` total one by one, and the total
    /// depends on the order.
    pub partial_pj: Vec<f64>,
}

impl LlCosts {
    /// Prices `schedule`, lowered from `graph` under `dep`, on `hw`.
    pub fn new(
        hw: &HardwareConfig,
        graph: &Graph,
        partitioning: &Partitioning,
        dep: &DepInfo,
        schedule: &LlSchedule,
    ) -> Self {
        let noc = NocModel::new(hw);
        let eb = hw.input_bytes_per_element();
        let units = &schedule.units;
        let dims = |id: NodeId| {
            let shape = &graph.node(id).output_shape;
            (shape.height(), shape.width())
        };
        let mut partial_pj = Vec::new();
        LlCosts {
            t_interval: issue_interval(hw),
            t_mvm: hw.mvm_latency,
            units: units
                .iter()
                .map(|u| {
                    // Provider owner -> consumer owner, one window's payload.
                    let dst = u.replicas.first().map_or(0, |r| r.owner);
                    let forward_cycles = u
                        .providers
                        .iter()
                        .map(|p| {
                            let first = schedule.units_of(p.node).first().map(|&pu| &units[pu]);
                            let src = first.and_then(|pu| pu.replicas.first());
                            let bytes = first.map_or(0, |pu| pu.elems_per_window * eb);
                            noc.transfer_cycles(src.map_or(dst, |r| r.owner), dst, bytes)
                        })
                        .max()
                        .unwrap_or(0);
                    let edges = u.providers.iter().map(|p| LlEdge {
                        provider: p.node.index(),
                        rule: p.rule,
                        consumer_dims: dims(u.node),
                        consumer_windows: dep.windows_of(u.node),
                        provider_dims: dims(p.node),
                        provider_windows: dep.windows_of(p.node),
                    });
                    let remotes = match u.kind {
                        LlUnitKind::Mvm { mvm } => {
                            let bytes = partitioning.entry(mvm).weight_width * eb;
                            let mut remote = |r: &LlReplica| {
                                let senders =
                                    r.ags_per_core.iter().filter(|&&(core, _)| core != r.owner);
                                let start = partial_pj.len();
                                partial_pj.extend(senders.clone().map(|&(core, _)| {
                                    noc.transfer_energy_pj(core, r.owner, bytes)
                                }));
                                LlRemote {
                                    cycles: senders
                                        .map(|&(core, _)| noc.transfer_cycles(core, r.owner, bytes))
                                        .max()
                                        .unwrap_or(0),
                                    pj: start..partial_pj.len(),
                                }
                            };
                            u.replicas.iter().map(&mut remote).collect()
                        }
                        LlUnitKind::Vector => Vec::new(),
                    };
                    LlUnitCost {
                        vfu_pass: vfu_cycles(hw, u.vfu_elems_per_window),
                        forward_cycles,
                        edges: edges.collect(),
                        remotes,
                    }
                })
                .collect(),
            partial_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Chromosome, CoreMapping, Gene};
    use crate::schedule::split_replica_fixture;
    use pimcomp_ir::GraphBuilder;

    /// Energy of one 8-byte flit through one router on `puma`: the
    /// calibrated router's dynamic power, 43.13 mW × (1 − 0.4), at 1 GHz.
    const FLIT_PJ: f64 = 43.13 * (1.0 - 0.4);

    fn hw() -> HardwareConfig {
        // T_MVM = 2000, parallelism 20 -> T_interval = 100.
        HardwareConfig::puma()
    }

    #[test]
    fn issue_interval_matches_parallelism() {
        let hw = HardwareConfig::puma().with_parallelism(20);
        assert_eq!(issue_interval(&hw), 100);
        let hw1 = hw.clone().with_parallelism(1);
        assert_eq!(issue_interval(&hw1), 2000);
        let hw2000 = hw.with_parallelism(2000);
        assert_eq!(issue_interval(&hw2000), 1);
    }

    #[test]
    fn operation_cycle_cost_is_max_of_issue_and_latency() {
        let hw = HardwareConfig::puma().with_parallelism(20);
        // Few AGs: latency-bound.
        assert_eq!(operation_cycle_cost(&hw, 3), 2000);
        // Many AGs: issue-bound (n * 100 > 2000 for n > 20).
        assert_eq!(operation_cycle_cost(&hw, 30), 3000);
        // Break-even at exactly the parallelism degree.
        assert_eq!(operation_cycle_cost(&hw, 20), 2000);
    }

    #[test]
    fn near_zero_rates_saturate_the_cycle_counts() {
        let mut hw = HardwareConfig::puma();
        hw.global_memory_bw = 1e-300;
        hw.vfu_lane_throughput = 1e-300;
        hw.validate().unwrap();
        assert_eq!(global_memory_cycles(&hw, 64), u64::MAX);
        assert_eq!(vfu_cycles(&hw, 64), u64::MAX);
        assert_eq!(global_memory_cycles(&hw, 0), 0);
        assert_eq!(vfu_cycles(&hw, 0), 0);
    }

    #[test]
    fn huge_timing_knobs_saturate_the_cycle_counts() {
        let mut hw = HardwareConfig::puma();
        hw.mvm_latency = u64::MAX;
        hw.xbar_write_row_cycles = u64::MAX / 2;
        hw.validate().unwrap();
        assert_eq!(operation_cycle_cost(&hw, 1), u64::MAX);
        assert_eq!(operation_cycle_cost(&hw, usize::MAX), u64::MAX);
        assert_eq!(xbar_write_cycles(&hw, 3), u64::MAX);
        assert_eq!(xbar_write_cycles(&hw, 0), 0);
    }

    /// One 128-row slice of a 64-column node on `puma`: 8 cells a
    /// weight, 100 cycles a row, 10 pJ a cell.
    #[test]
    fn slice_rewrite_is_hand_computed() {
        let cells = 128 * 64 * 8;
        assert_eq!(slice_rewrite(&hw(), 128, 64), (128 * 100, cells, 655_360.0));
    }

    #[test]
    fn fig5_example_reproduces() {
        // Fig. 5: 4 nodes with (2 AGs, 3000), (2, 1000), (1, 500),
        // (3, 300) on one core. time = 300·f(8) + 200·f(5) + 500·f(4)
        // + 2000·f(2). With T_int=100, T_MVM=2000:
        // f(8)=2000, f(5)=2000, f(4)=2000, f(2)=2000 (all latency-bound
        // at parallelism 20) -> use parallelism 1 to match the paper's
        // issue-bound regime instead.
        let mut cfg = hw().with_parallelism(1);
        cfg.mvm_latency = 2000; // T_interval = 2000
        let items = [(2usize, 3000usize), (2, 1000), (1, 500), (3, 300)];
        // All segments issue-bound: f(n) = n * 2000.
        let expect: u64 = 300 * 8 * 2000 + 200 * 5 * 2000 + 500 * 4 * 2000 + 2000 * 2 * 2000;
        assert_eq!(ht_core_time(&cfg, &items), expect);
    }

    #[test]
    fn ht_core_time_latency_bound_regime() {
        // One AG: every operation cycle costs T_MVM.
        assert_eq!(ht_core_time(&hw(), &[(1, 10)]), 10 * 2000);
    }

    #[test]
    fn ht_core_time_empty_is_zero() {
        assert_eq!(ht_core_time(&hw(), &[]), 0);
        assert_eq!(ht_core_time(&hw(), &[(0, 100), (2, 0)]), 0);
    }

    /// Every term of both rounds of the split-replica conv at batch 2:
    /// `puma` moves 64 B a cycle through the global port, runs 12 VFU
    /// lanes, holds 2 B activations, and routes a 6 × 6 mesh at 4 cycles
    /// a hop and 8 B a cycle a link.
    #[test]
    fn ht_round_terms_are_hand_computed() {
        let (g, part, mapping, dep, hw) = split_replica_fixture();
        let s = HtSchedule::build(&g, &part, &mapping, &dep, &hw, 2);
        // Core 0 spills 100 B a round, written out and read back by its
        // one program.
        let mut spill = vec![0; hw.total_cores()];
        spill[0] = 100;
        let costs = HtCosts::new(&hw, &part, &s, &spill);
        assert_eq!((costs.t_interval, costs.t_mvm), (100, 2000));
        let (owner, sender) = (s.per_core[0][0], s.per_core[1][0]);

        // The owner holds slices 0-2 (3 × 128 rows) and accumulates.
        let o = &costs.rounds[owner];
        let load = 3 * 128 * 2 * 2 + 2 * 100; // rows × batch × 2 B + spill
        assert_eq!(
            o.load,
            Transfer {
                bytes: load,
                cycles: 28
            }
        ); // ⌈1736 / 64⌉
        let store = 64 * 2 * 2; // 64 columns × batch × 2 B
        assert_eq!(
            o.store,
            Transfer {
                bytes: store,
                cycles: 4
            }
        );
        // 3 AGs × batch issues at T_interval, then batch × T_MVM.
        assert_eq!(o.mvm_span, 3 * 2 * 100 + 2 * 2000);
        // (1 partial + 1 activation) × 64 columns × batch, after the
        // partial arrives; (3 − 1) × 64 × batch intra-core adds before.
        assert_eq!((o.remote_add_elems, o.remote_add_cycles), (256, 22)); // ⌈256 / 12⌉
        assert_eq!((o.local_add_elems, o.local_add_cycles), (256, 22));
        assert_eq!(o.crossbars_per_ag, 4);
        assert!(o.sends.is_empty());

        // The sender holds slices 3-4 (128 + 64 rows), stores nothing,
        // and sends its partial row to the owner, one hop away.
        let r = &costs.rounds[sender];
        assert_eq!(
            r.load,
            Transfer {
                bytes: (128 + 64) * 2 * 2,
                cycles: 12
            }
        );
        assert_eq!(
            r.store,
            Transfer {
                bytes: 0,
                cycles: 0
            }
        );
        assert_eq!(r.mvm_span, 2 * 2 * 100 + 2 * 2000);
        assert_eq!((r.remote_add_elems, r.remote_add_cycles), (0, 0));
        assert_eq!((r.local_add_elems, r.local_add_cycles), (128, 11)); // ⌈128 / 12⌉
        let send = HtSendCost {
            to_core: 0,
            owner: Some(owner),
            bytes: 256,
            cycles: 4 + 256 / 8,
            energy_pj: 32.0 * FLIT_PJ, // 32 flits, one router
        };
        assert_eq!(r.sends, [send]);

        // The ReLU runs inside the conv's owner program (the activation
        // term above), so only the pool (16 windows of 64 elements)
        // is a vec task, on core 0, the conv's owner: load the whole
        // input, one VFU pass, store the output.
        let named = |name: &str| {
            let vid = s.vec_tasks.iter().position(|t| g.node(t.node).name == name);
            vid.map(|vid| costs.vec_tasks[vid])
        };
        assert_eq!(named("r"), None);
        let pool = HtVecCost {
            load: Transfer {
                bytes: 8192,
                cycles: 128,
            },
            store: Transfer {
                bytes: 2048,
                cycles: 32,
            },
            vfu_pass: 86, // ⌈1024 / 12⌉
        };
        assert_eq!(named("p"), Some(pool));
    }

    /// A conv split over cores 0 and 1 feeds, through a ReLU folded
    /// into it, a conv split over cores 2 (the owner, slices 0-1), 3 and
    /// 5 — one and three hops from it on `puma`'s 6 × 6 mesh.
    #[test]
    fn ll_unit_terms_are_hand_computed() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 8, 8]);
        let c1 = b.conv2d("c1", x, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.relu("r", c1).unwrap();
        let _c2 = b.conv2d("c2", r, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let hw = hw();
        let part = Partitioning::new(&g, &hw).unwrap();
        let mut c = Chromosome::empty(hw.total_cores(), 4);
        for (slot, mvm, ag_count) in [(0, 0, 3), (4, 0, 2), (8, 1, 2), (12, 1, 2), (20, 1, 1)] {
            c.set_gene(slot, Some(Gene { mvm, ag_count }));
        }
        let mapping = CoreMapping::from_chromosome(&c, &part).unwrap();
        let dep = DepInfo::analyze(&g);
        let s = LlSchedule::build(&g, &part, &mapping, &dep);
        let costs = LlCosts::new(&hw, &g, &part, &dep, &s);
        assert_eq!((costs.t_interval, costs.t_mvm), (100, 2000));
        assert_eq!(costs.units.len(), 2);
        let [c1, c2] = [0, 1].map(|u| &costs.units[u]);
        // A partial row is 64 columns × 2 B = 16 flits, 16 link cycles.
        let hop = |hops: u64| 4 * hops + 16;

        // c1: core 1 sends one hop; 64 × (5 − 1) adds + 64 activations.
        assert_eq!(
            c1.remotes,
            [LlRemote {
                cycles: hop(1),
                pj: 0..1
            }]
        );
        assert_eq!((c1.vfu_pass, c1.forward_cycles), (27, 0)); // ⌈320 / 12⌉
        assert!(c1.edges.is_empty());

        // c2: the slowest partial is core 5's, three hops; the energies
        // stay in core order. The ReLU has no unit: an activated c1
        // window (64 elements) comes two hops from core 0, c1's owner,
        // and c2's first window needs c1's first 8 + 2 = 10 windows
        // (3 × 3 kernel, padding 1).
        assert_eq!(
            c2.remotes,
            [LlRemote {
                cycles: hop(3),
                pj: 1..3
            }]
        );
        let pj = [16.0 * FLIT_PJ, 16.0 * FLIT_PJ, 16.0 * 3.0 * FLIT_PJ];
        assert_eq!(costs.partial_pj, pj);
        assert_eq!((c2.vfu_pass, c2.forward_cycles), (27, hop(2)));
        assert_eq!((c2.edges[0].provider, c2.edges[0].required(0, 0)), (1, 10));
    }
}
