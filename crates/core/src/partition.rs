//! Node partitioning (paper Section IV-B, Fig. 4).
//!
//! Convolution and fully connected layers are unfolded into weight
//! matrices of height `kh·kw·Cin` and width `Cout`, then sliced
//! horizontally into **Array Groups** (AGs): each AG covers `Hxbar` rows
//! of the weight matrix and all `Cout` columns, occupying
//! `ceil(Cout / Wxbar)` crossbars. One replica of a node therefore owns
//! `ceil(height / Hxbar)` AGs, and every AG processes the node's
//! `Hout × Wout` sliding windows.

use crate::CompileError;
use pimcomp_arch::HardwareConfig;
use pimcomp_ir::{Graph, NodeId, Op};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Index of an MVM node within a [`Partitioning`] (topological order of
/// conv/fc nodes).
pub type MvmIdx = usize;

/// Partitioning result for one convolution / fully connected node (or
/// one *column group* of it, when `Cout` is too wide for a single-core
/// AG — see [`Partitioning::new`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePartition {
    /// The graph node this entry describes.
    pub node: NodeId,
    /// Node name (for reports); column groups are suffixed `[cK]`.
    pub name: String,
    /// Column group index (0 for unsplit nodes).
    pub col_group: usize,
    /// Total column groups of this node.
    pub col_groups: usize,
    /// Unfolded weight matrix height `kh·kw·Cin` — also the input-vector
    /// length of one sliding window.
    pub weight_height: usize,
    /// Width of this entry's weight matrix slice (`Cout` for unsplit
    /// nodes) — also the output elements per sliding window.
    pub weight_width: usize,
    /// AGs per replica: `ceil(weight_height / Hxbar)`.
    pub ags_per_replica: usize,
    /// Crossbars per AG: `ceil(weight_width / Wxbar)`.
    pub crossbars_per_ag: usize,
    /// Sliding windows (input cycles) per inference: `Hout × Wout`.
    pub windows: usize,
    /// Output feature height (windows are row-major over this extent).
    pub out_height: usize,
    /// Output feature width.
    pub out_width: usize,
}

impl NodePartition {
    /// Crossbars one replica occupies.
    pub(crate) fn crossbars_per_replica(&self) -> usize {
        self.ags_per_replica * self.crossbars_per_ag
    }

    /// Sliding windows each replica processes when the node is
    /// replicated `r` times (windows are divided evenly; the last
    /// replica may run fewer, the estimate uses the ceiling as the
    /// paper's Fig. 5 does).
    pub(crate) fn windows_per_replica(&self, r: usize) -> usize {
        self.windows.div_ceil(r.max(1))
    }
}

/// The node-partitioning stage output: one entry per MVM node, in
/// topological order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partitioning {
    entries: Vec<NodePartition>,
    #[serde(skip)]
    by_node: HashMap<NodeId, MvmIdx>,
}

impl Partitioning {
    /// Runs node partitioning over every conv/fc node of `graph`.
    ///
    /// The paper's placement invariant prefers all crossbars of one AG
    /// on one core. Nodes whose `Cout` would make one AG wider than a
    /// core's PIMMU are split into *column groups* (independent `Cout`
    /// slices sharing inputs; their outputs concatenate, no cross-group
    /// accumulation is needed) so that every AG fits a core.
    ///
    /// # Errors
    ///
    /// [`CompileError::NoMvmNodes`] when the graph has no conv/fc node;
    /// [`CompileError::UnboundSeqLen`] when the graph still carries a
    /// symbolic sequence dimension (window counts need fixed shapes —
    /// bind via [`pimcomp_ir::transform::bind_seq_len`] or compile
    /// through a session with `seq_len` set).
    pub fn new(graph: &Graph, hw: &HardwareConfig) -> Result<Self, CompileError> {
        if graph.has_symbolic_dims() {
            return Err(CompileError::UnboundSeqLen {
                model: graph.name().to_string(),
            });
        }
        let wxbar = hw.weight_cols_per_crossbar();
        let max_cols_per_group = hw.crossbar_capacity_per_core() * wxbar;
        let mut entries = Vec::new();
        for id in graph.mvm_nodes() {
            let node = graph.node(id);
            let (h, w) = match &node.op {
                Op::Conv2d(c) => (c.weight_matrix_height(), c.weight_matrix_width()),
                Op::Linear(l) => (l.weight_matrix_height(), l.weight_matrix_width()),
                Op::MatMul(m) => (m.weight_matrix_height(), m.weight_matrix_width()),
                _ => unreachable!("mvm_nodes returns only conv/fc/matmul"),
            };
            let (oh, ow) = (node.output_shape.height(), node.output_shape.width());
            let col_groups = w.div_ceil(max_cols_per_group);
            for g in 0..col_groups {
                let width = if g + 1 == col_groups {
                    w - g * max_cols_per_group
                } else {
                    max_cols_per_group
                };
                let name = if col_groups == 1 {
                    node.name.clone()
                } else {
                    format!("{}[c{g}]", node.name)
                };
                entries.push(NodePartition {
                    node: id,
                    name,
                    col_group: g,
                    col_groups,
                    weight_height: h,
                    weight_width: width,
                    ags_per_replica: h.div_ceil(hw.crossbar_rows),
                    crossbars_per_ag: width.div_ceil(wxbar),
                    windows: oh * ow,
                    out_height: oh,
                    out_width: ow,
                });
            }
        }
        if entries.is_empty() {
            return Err(CompileError::NoMvmNodes);
        }
        let mut by_node = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            by_node.entry(e.node).or_insert(i);
        }
        Ok(Partitioning { entries, by_node })
    }

    /// Number of MVM nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when there are no MVM nodes (never after successful
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry by MVM index.
    pub fn entry(&self, idx: MvmIdx) -> &NodePartition {
        &self.entries[idx]
    }

    /// All entries in topological order.
    pub fn entries(&self) -> &[NodePartition] {
        &self.entries
    }

    /// First MVM index of a graph node, if it is a partitioned node
    /// (column-split nodes have consecutive indices; see
    /// [`Partitioning::indices_of`]).
    pub(crate) fn index_of(&self, node: NodeId) -> Option<MvmIdx> {
        self.by_node.get(&node).copied().or_else(|| {
            // After deserialization the map is rebuilt lazily here.
            self.entries.iter().position(|e| e.node == node)
        })
    }

    /// All MVM indices belonging to a graph node (more than one for
    /// column-split nodes).
    pub fn indices_of(&self, node: NodeId) -> Vec<MvmIdx> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.node == node)
            .map(|(i, _)| i)
            .collect()
    }

    /// Minimum crossbars to hold one replica of every node.
    pub fn min_crossbars(&self) -> usize {
        self.entries.iter().map(|e| e.crossbars_per_replica()).sum()
    }

    /// The largest window count of any node (at least 1).
    pub(crate) fn max_windows(&self) -> usize {
        let most = self.entries.iter().map(|e| e.windows).max();
        most.unwrap_or(1).max(1)
    }

    /// Smallest window target `t` whose windows-proportional replication
    /// (`R = ceil(windows/t)`) fits the crossbar `budget` — the start of
    /// both the GA's initial population and the PUMA-like baseline.
    pub(crate) fn fit_window_target(&self, budget: usize) -> usize {
        let cost = |t: usize| -> usize {
            let replicated = |e: &NodePartition| e.windows.div_ceil(t) * e.crossbars_per_replica();
            self.entries.iter().map(replicated).sum()
        };
        let (mut lo, mut hi) = (1usize, self.max_windows());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cost(mid) <= budget {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// Placement of one Array-Group instance within a mapping epoch
/// (`weight_reload` mode; replication is fixed at 1, so an AG instance
/// is identified by `(mvm, slice)` alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochAssignment {
    /// Which partitioned node.
    pub mvm: MvmIdx,
    /// AG index within the node's single replica.
    pub slice: usize,
    /// Core holding this AG's crossbars during its epoch.
    pub core: usize,
}

/// Epoch decomposition of a model under a fixed crossbar budget
/// (`weight_reload` mode, COMPASS-style).
///
/// Execution proceeds epoch by epoch; between epochs the crossbars of
/// cores shared by several epochs are reprogrammed with the next
/// epoch's weights. A model that fits its budget yields a single epoch
/// and a zero-cost [`ReloadPlan`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochPlan {
    /// AG placements per epoch, in `(mvm, slice)` order within each.
    pub epochs: Vec<Vec<EpochAssignment>>,
    /// The crossbar budget the plan respects (clamped to the hardware's
    /// total crossbars).
    pub budget: usize,
    /// Cores `0..ring_cores` form the placement ring; no AG is placed
    /// outside it.
    pub ring_cores: usize,
}

impl EpochPlan {
    /// Packs every AG instance (replication 1) into capacity-feasible
    /// epochs over a fixed ring of cores.
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
    pub fn new(
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

        let mut epochs = Vec::new();
        let mut current: Vec<EpochAssignment> = Vec::new();
        let mut used = vec![0usize; ring_cores];
        let mut ptr = 0usize;
        for (mvm, entry) in partitioning.entries().iter().enumerate() {
            let w = entry.crossbars_per_ag;
            for slice in 0..entry.ags_per_replica {
                let mut placed = false;
                for step in 0..ring_cores {
                    let core = (ptr + step) % ring_cores;
                    if used[core] + w <= cap_of(core) {
                        used[core] += w;
                        ptr = core;
                        current.push(EpochAssignment { mvm, slice, core });
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    // Close the epoch and retry in a fresh one; the
                    // widest-AG check above guarantees it fits there.
                    epochs.push(std::mem::take(&mut current));
                    used.iter_mut().for_each(|u| *u = 0);
                    for step in 0..ring_cores {
                        let core = (ptr + step) % ring_cores;
                        if used[core] + w <= cap_of(core) {
                            used[core] += w;
                            ptr = core;
                            current.push(EpochAssignment { mvm, slice, core });
                            placed = true;
                            break;
                        }
                    }
                    debug_assert!(placed, "AG must fit an empty epoch");
                }
            }
        }
        if !current.is_empty() {
            epochs.push(current);
        }
        Ok(EpochPlan {
            epochs,
            budget,
            ring_cores,
        })
    }

    /// Number of epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Derives the reload cost of this plan.
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
    /// crossbar-parallel ([`HardwareConfig::xbar_write_cycles`]); cores
    /// write serially within themselves but in parallel with each
    /// other, so an epoch's stall is the maximum per-core write-cycle
    /// sum, and the plan total is the sum over epochs.
    ///
    /// Each epoch also carries an analytic per-inference compute
    /// estimate (`compute_cycles`): the Fig. 5 per-core busy-time model
    /// ([`ht_core_time`](crate::ht_fitness)'s kernel) applied to the
    /// epoch's resident AGs, maxed over cores. Epochs execute serially,
    /// so the simulator sums these instead of event-simulating an
    /// over-committed mapping (which would model all epochs as
    /// physically concurrent).
    pub(crate) fn reload_plan(
        &self,
        partitioning: &Partitioning,
        hw: &HardwareConfig,
    ) -> ReloadPlan {
        let mut core_epochs = vec![0usize; self.ring_cores];
        for epoch in &self.epochs {
            let mut seen = vec![false; self.ring_cores];
            for a in epoch {
                if !seen[a.core] {
                    seen[a.core] = true;
                    core_epochs[a.core] += 1;
                }
            }
        }
        let resident_core = |core: usize| core_epochs[core] <= 1;

        let cells_per_weight = hw.cells_per_weight();
        let mut epochs = Vec::with_capacity(self.epochs.len());
        let mut total_ags = 0usize;
        let mut total_cells = 0u64;
        let mut total_cycles = 0u64;
        let mut total_pj = 0.0f64;
        let mut total_compute = 0u64;
        for epoch in &self.epochs {
            let mut cost = EpochReloadCost::default();
            let mut per_core_cycles = vec![0u64; self.ring_cores];
            // (ag_count, windows) per (core, mvm) for the Fig. 5 model.
            let mut per_core_items: Vec<BTreeMap<MvmIdx, usize>> =
                vec![BTreeMap::new(); self.ring_cores];
            for a in epoch {
                let e = partitioning.entry(a.mvm);
                let rows = crate::schedule::slice_rows(e.weight_height, hw.crossbar_rows, a.slice);
                let cells = (rows * e.weight_width * cells_per_weight) as u64;
                if resident_core(a.core) {
                    cost.resident_cells += cells;
                } else {
                    cost.ags_written += 1;
                    cost.cells_written += cells;
                    per_core_cycles[a.core] += hw.xbar_write_cycles(rows);
                    cost.write_pj += cells as f64 * hw.xbar_write_pj_per_cell;
                }
                *per_core_items[a.core].entry(a.mvm).or_default() += 1;
            }
            cost.write_cycles = per_core_cycles.iter().copied().max().unwrap_or(0);
            cost.compute_cycles = per_core_items
                .iter()
                .map(|items| {
                    let items: Vec<(usize, usize)> = items
                        .iter()
                        .map(|(&mvm, &ags)| (ags, partitioning.entry(mvm).windows))
                        .collect();
                    crate::fitness::ht_core_time(hw, &items)
                })
                .max()
                .unwrap_or(0);
            total_ags += cost.ags_written;
            total_cells += cost.cells_written;
            total_cycles += cost.write_cycles;
            total_pj += cost.write_pj;
            total_compute += cost.compute_cycles;
            epochs.push(cost);
        }
        ReloadPlan {
            budget: self.budget,
            ring_cores: self.ring_cores,
            epochs,
            total_ags_written: total_ags,
            total_cells_written: total_cells,
            total_write_cycles: total_cycles,
            total_write_pj: total_pj,
            total_compute_cycles: total_compute,
        }
    }
}

/// Reload cost of one epoch of a [`ReloadPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct EpochReloadCost {
    /// AGs whose crossbars are reprogrammed entering this epoch.
    pub ags_written: usize,
    /// NVM cells those writes touch.
    pub cells_written: u64,
    /// Cells of this epoch's AGs that stay resident (single-epoch
    /// cores) and are never rewritten.
    pub resident_cells: u64,
    /// Stall cycles of the reload barrier: max per-core write time
    /// (cores program in parallel, rows within a core serially).
    pub write_cycles: u64,
    /// Write energy in pJ (`cells_written × xbar_write_pj_per_cell`).
    pub write_pj: f64,
    /// Analytic per-inference compute estimate for this epoch (Fig. 5
    /// per-core busy-time model, maxed over cores). Only consumed by
    /// multi-epoch plans — single-epoch models run the event-driven
    /// simulator instead (and resident plans record zero here).
    pub compute_cycles: u64,
}

/// The serialized reload schedule of a `weight_reload` compilation:
/// per-epoch write costs plus totals, derived from an [`EpochPlan`].
/// Stored in the
/// [`CompiledModel`](crate::CompiledModel) so artifacts carry the full
/// reload story and simulators/reports need no recomputation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReloadPlan {
    /// The crossbar budget the schedule respects.
    pub budget: usize,
    /// Cores forming the placement ring.
    pub ring_cores: usize,
    /// Per-epoch write costs, in execution order.
    pub epochs: Vec<EpochReloadCost>,
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
    /// serially). Zero in single-epoch plans.
    pub total_compute_cycles: u64,
}

impl ReloadPlan {
    /// Number of epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// `true` when the model fit its budget in one epoch (no reload
    /// cost; the compilation is equivalent to an ordinary one).
    pub fn is_single_epoch(&self) -> bool {
        self.epochs.len() <= 1
    }
}

/// Sizes a chip count for `graph` on the `base` target: enough chips
/// for `headroom ×` the single-replica crossbar demand, leaving room
/// for weight replication. This is the headroom heuristic the bench
/// harness (`hardware_for`) and the sweep engine's `hardware: "auto"`
/// option share; `headroom` 2.0 is the harness default.
///
/// # Errors
///
/// Propagates partitioning failures ([`CompileError`]) — a graph with
/// no MVM nodes, or one whose Array Groups exceed a single core, cannot
/// be sized.
pub fn sized_chips(
    graph: &Graph,
    base: &HardwareConfig,
    headroom: f64,
) -> Result<usize, CompileError> {
    let p = Partitioning::new(graph, base)?;
    let per_chip = base.cores_per_chip * base.crossbars_per_core;
    let need = (p.min_crossbars() as f64 * headroom).ceil() as usize;
    Ok(need.div_ceil(per_chip).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::{models, GraphBuilder};

    fn hw() -> HardwareConfig {
        HardwareConfig::puma() // 128 rows, 16 weight cols per crossbar
    }

    #[test]
    fn conv_partitioning_matches_fig4_formulas() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 56, 56]);
        let c = b.conv2d("c", x, 128, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let e = p.entry(p.index_of(c).unwrap());
        assert_eq!(e.weight_height, 3 * 3 * 64); // 576
        assert_eq!(e.weight_width, 128);
        assert_eq!(e.ags_per_replica, 576usize.div_ceil(128)); // 5
        assert_eq!(e.crossbars_per_ag, 128usize.div_ceil(16)); // 8
        assert_eq!(e.windows, 56 * 56);
        assert_eq!(e.crossbars_per_replica(), 40);
    }

    #[test]
    fn fc_is_a_one_window_node() {
        let mut b = GraphBuilder::new("t");
        let x = b.input_flat("x", 512);
        let f = b.linear("fc", x, 100).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let e = p.entry(p.index_of(f).unwrap());
        assert_eq!(e.windows, 1);
        assert_eq!(e.ags_per_replica, 4); // 512/128
        assert_eq!(e.crossbars_per_ag, 7); // ceil(100/16)
    }

    #[test]
    fn windows_split_evenly_across_replicas() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 10, 10]);
        let c = b.conv2d("c", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let e = p.entry(p.index_of(c).unwrap());
        assert_eq!(e.windows, 100);
        assert_eq!(e.windows_per_replica(1), 100);
        assert_eq!(e.windows_per_replica(3), 34);
        assert_eq!(e.windows_per_replica(100), 1);
        // More replicas than windows: still one window each.
        assert_eq!(e.windows_per_replica(1000), 1);
    }

    #[test]
    fn graph_without_mvm_nodes_is_rejected() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 8, 8]);
        let _ = b.relu("r", x).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(
            Partitioning::new(&g, &hw()).unwrap_err(),
            CompileError::NoMvmNodes
        );
    }

    #[test]
    fn too_wide_nodes_split_into_column_groups() {
        // Cout beyond one core's AG width (64 crossbars * 16 cols =
        // 1024) splits: 2000 -> groups of 1024 + 976.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [3, 8, 8]);
        let c = b.conv2d("c", x, 2000, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let idxs = p.indices_of(c);
        assert_eq!(idxs.len(), 2);
        assert_eq!(p.entry(idxs[0]).weight_width, 1024);
        assert_eq!(p.entry(idxs[1]).weight_width, 976);
        assert_eq!(p.entry(idxs[0]).crossbars_per_ag, 64);
        assert!(p.entry(idxs[0]).name.ends_with("[c0]"));
        // Column groups share windows and AG-per-replica structure.
        assert_eq!(p.entry(idxs[0]).windows, p.entry(idxs[1]).windows);
        assert_eq!(
            p.entry(idxs[0]).ags_per_replica,
            p.entry(idxs[1]).ags_per_replica
        );
    }

    #[test]
    fn vgg16_partitions_every_mvm_node() {
        let g = pimcomp_ir::transform::normalize(&models::vgg16()).unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        // 13 convs (one group each) + fc6/fc7 split 4-ways + fc8.
        assert_eq!(p.len(), 13 + 4 + 4 + 1);
        // fc6: 25088 x 4096 split into four 1024-wide column groups.
        let fc6 = p
            .entries()
            .iter()
            .find(|e| e.name == "fc6[c0]")
            .expect("fc6[c0] present");
        assert_eq!(fc6.weight_height, 25088);
        assert_eq!(fc6.ags_per_replica, 196);
        assert_eq!(fc6.crossbars_per_ag, 64);
        assert_eq!(fc6.col_groups, 4);
    }

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
        assert!(
            plan.epoch_count() > 1,
            "tiny_cnn must overflow 32 crossbars"
        );
        // Every (mvm, slice) instance appears exactly once across all
        // epochs, on a ring core, and each epoch respects the budget.
        let mut seen = std::collections::BTreeSet::new();
        for epoch in &plan.epochs {
            let mut used = vec![0usize; plan.ring_cores];
            for a in epoch {
                assert!(a.core < plan.ring_cores);
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
        assert_eq!(plan.epoch_count(), 1);
        let reload = plan.reload_plan(&p, &hw);
        assert!(reload.is_single_epoch());
        // Every core hosts AGs of exactly one epoch, so nothing is
        // ever rewritten (the analytic compute estimate is still
        // populated, but single-epoch models use the event-driven
        // simulator instead).
        assert_eq!(reload.total_ags_written, 0);
        assert_eq!(reload.total_cells_written, 0);
        assert_eq!(reload.total_write_cycles, 0);
        assert_eq!(reload.total_write_pj, 0.0);
    }

    #[test]
    fn multi_epoch_reload_cost_totals_are_the_epoch_sums() {
        let (p, hw) = small_partitioning();
        let plan = EpochPlan::new(&p, &hw, 32).unwrap();
        let reload = plan.reload_plan(&p, &hw);
        assert_eq!(reload.epoch_count(), plan.epoch_count());
        assert!(reload.total_write_cycles > 0);
        assert!(reload.total_write_pj > 0.0);
        // Serial epochs: every epoch contributes nonzero compute, and
        // the totals are exactly the per-epoch sums.
        assert!(reload.epochs.iter().all(|e| e.compute_cycles > 0));
        assert_eq!(
            reload.total_write_cycles,
            reload.epochs.iter().map(|e| e.write_cycles).sum::<u64>()
        );
        assert_eq!(
            reload.total_compute_cycles,
            reload.epochs.iter().map(|e| e.compute_cycles).sum::<u64>()
        );
        assert_eq!(
            reload.total_cells_written,
            reload.epochs.iter().map(|e| e.cells_written).sum::<u64>()
        );
    }

    #[test]
    fn oversized_budget_clamps_to_the_hardware() {
        let (p, hw) = small_partitioning();
        let plan = EpochPlan::new(&p, &hw, usize::MAX).unwrap();
        assert_eq!(plan.budget, hw.total_crossbars());
        assert_eq!(plan.epoch_count(), 1);
    }
}
