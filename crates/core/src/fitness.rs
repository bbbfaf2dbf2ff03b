//! GA fitness functions for both compilation modes (paper Section
//! IV-C.2, Figs. 5 and 6). Lower is better for both.
//!
//! Besides the from-scratch estimators this module hosts the
//! *evaluation engine* the GA runs on:
//!
//! * [`EvalBasis`] — the mode-specific intermediate data an evaluation
//!   leaves behind (per-core busy times in HT mode, the chain estimate
//!   in LL mode) from which a mutated offspring can be re-evaluated
//!   incrementally: `F_HT` is a max over cores, so only cores touched
//!   by a mutation need recomputation, and the LL chain estimate
//!   depends only on replication counts, so placement-only mutations
//!   reuse it verbatim.
//! * [`FitnessMemo`] — a fitness cache keyed by the chromosome
//!   [fingerprint](crate::Chromosome::fingerprint), so re-visiting a
//!   chromosome evaluated in an *earlier* generation (grow-then-shrink
//!   walks, re-derived offspring) skips evaluation entirely. Within
//!   one generation the cache is frozen — the GA looks entries up
//!   against the state at batch start and records new results at the
//!   index-ordered reduction — so duplicate offspring of the same
//!   batch are each computed; that is what keeps the result
//!   independent of worker scheduling.
//!
//! Both paths are *exact*: an incremental or memoized evaluation
//! returns the bit-identical `f64` the from-scratch estimator would,
//! which the property tests in `tests/properties.rs` assert.

use crate::ga::GaContext;
use crate::mapping::Chromosome;
use crate::partition::{MvmIdx, Partitioning};
use crate::replication::ReplicationPlan;
use crate::waiting::DepInfo;
use crate::CompileError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::{Graph, NodeId, Op};
use std::collections::HashMap;
use std::sync::Arc;

/// Estimated busy time of one core in HT mode (paper Fig. 5).
///
/// `items` holds `(ag_count, cycles)` pairs: a node contributing
/// `ag_count` AGs, each of which must run `cycles` operation cycles
/// (sliding windows). AGs start in turn at `T_interval` spacing; each
/// operation cycle over `n` live AGs costs
/// `f(n) = max(n·T_interval, T_MVM)`. As nodes complete, `n` drops —
/// the piecewise rearrangement of Fig. 5(b)/(c).
pub fn ht_core_time(hw: &HardwareConfig, items: &[(usize, usize)]) -> u64 {
    let mut items: Vec<(usize, usize)> = items.to_vec();
    ht_core_time_in_place(hw, &mut items)
}

/// [`ht_core_time`] over a caller-owned buffer (filtered and sorted in
/// place), so the GA's hottest loop can reuse one scratch allocation
/// across cores.
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
            time += span * hw.operation_cycle_cost(live);
            done_cycles = cycles;
        }
        live -= ags;
    }
    time
}

/// Weight of the mean-load tie-breaker added to the `max` objective.
///
/// `F_HT = max_i time_i` is a plateau-heavy landscape: replicating one
/// of several equally-loaded bottleneck nodes leaves the max unchanged,
/// so a pure-max GA stalls. A small fraction of the mean core time is
/// added as a tie-breaker — it never changes which of two mappings with
/// different maxima wins, but gives the GA a gradient across plateaus.
pub(crate) const HT_TIE_BREAK: f64 = 1e-3;

/// Fills `out` with every node's windows per replica under
/// `replication` — computed once per evaluation, so the per-gene loops
/// index a table instead of dividing.
fn fill_windows_per_replica(
    partitioning: &Partitioning,
    replication: &ReplicationPlan,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.extend(
        partitioning
            .entries()
            .iter()
            .zip(replication.counts())
            .map(|(entry, &r)| entry.windows_per_replica(r)),
    );
}

/// HT busy time of one chromosome core (the per-core term of `F_HT`)
/// given every node's windows per replica
/// ([`fill_windows_per_replica`]). `scratch` is a reusable buffer so
/// per-core evaluation in the GA's hottest loop does not allocate.
fn ht_core_time_of(
    hw: &HardwareConfig,
    chromosome: &Chromosome,
    windows_per_replica: &[usize],
    core: usize,
    scratch: &mut Vec<(usize, usize)>,
) -> u64 {
    scratch.clear();
    scratch.extend(
        chromosome
            .genes_of_core(core)
            .map(|(_, gene)| (gene.ag_count, windows_per_replica[gene.mvm])),
    );
    ht_core_time_in_place(hw, scratch)
}

/// Folds per-core busy times into the HT fitness scalar
/// (`max + tie-break`). Pure and order-insensitive (integer max/sum),
/// so incremental and from-scratch evaluations combine bit-identically.
pub(crate) fn ht_combine(core_times: &[u64]) -> f64 {
    let mut worst = 0u64;
    let mut sum = 0u64;
    let mut active = 0u64;
    for &t in core_times {
        worst = worst.max(t);
        if t > 0 {
            sum += t;
            active += 1;
        }
    }
    worst as f64 + HT_TIE_BREAK * sum as f64 / active.max(1) as f64
}

/// HT fitness `F_HT = max_i time_i` over all cores (paper Fig. 5),
/// plus the [`HT_TIE_BREAK`] mean-load term.
pub(crate) fn ht_fitness(
    hw: &HardwareConfig,
    partitioning: &Partitioning,
    chromosome: &Chromosome,
    replication: &ReplicationPlan,
) -> f64 {
    let (mut windows, mut scratch) = (Vec::new(), Vec::new());
    fill_windows_per_replica(partitioning, replication, &mut windows);
    let core_times: Vec<u64> = (0..chromosome.cores())
        .map(|core| ht_core_time_of(hw, chromosome, &windows, core, &mut scratch))
        .collect();
    ht_combine(&core_times)
}

/// Adds the reload-barrier stalls of a `weight_reload` plan to a mode
/// fitness estimate (both in cycles), so reload-aware compilations are
/// scored on the full cost of time-multiplexing: a tight budget that
/// forces many epochs loses to a looser one even when their compute
/// fitness ties. `None` (ordinary compilation) passes through.
pub(crate) fn with_reload_stalls(
    fitness: f64,
    reload: Option<&crate::partition::ReloadPlan>,
) -> f64 {
    fitness + reload.map_or(0.0, |p| p.total_write_cycles as f64)
}

/// HT fitness computed from a materialized [`CoreMapping`] instead of a
/// chromosome (used for baseline mappings built without the GA). The
/// `max` objective only — no tie-breaker — so reported values compare
/// directly against the paper's `F_HT`.
///
/// [`CoreMapping`]: crate::mapping::CoreMapping
pub fn ht_fitness_from_mapping(
    hw: &HardwareConfig,
    partitioning: &Partitioning,
    mapping: &crate::mapping::CoreMapping,
) -> f64 {
    let mut worst = 0u64;
    for ids in &mapping.per_core {
        if ids.is_empty() {
            continue;
        }
        // Collapse instances to (ag_count, cycles) per node.
        let mut per_node: HashMap<usize, usize> = HashMap::new();
        for &id in ids {
            *per_node.entry(mapping.instances[id].mvm).or_default() += 1;
        }
        let items: Vec<(usize, usize)> = per_node
            .into_iter()
            .map(|(mvm, ags)| {
                (
                    ags,
                    mapping.replication.windows_per_replica(partitioning, mvm),
                )
            })
            .collect();
        worst = worst.max(ht_core_time(hw, &items));
    }
    worst as f64
}

/// Per-node quantities for the LL estimate.
#[derive(Debug, Clone, Copy)]
struct LlNodeState {
    start: f64,
    finish: f64,
}

/// LL fitness (paper Fig. 6): iterate nodes in topological order; a
/// consumer starts after its provider has produced for `W × P_p` time,
/// and cannot finish before the provider does (`f = min(R_p/R_x, 1)`
/// rate-throttling folds into the finish recursion).
///
/// Uninterrupted execution times `U_x`:
/// * MVM nodes: `windows/R × max(ags_per_replica·T_interval, T_MVM)`
///   (minimum over column groups folded via the max of group times);
/// * vector/memory nodes: element count divided by the VFU rate of the
///   `R_pred` cores the work is distributed over (Section IV-D.2).
pub(crate) fn ll_fitness(
    hw: &HardwareConfig,
    graph: &Graph,
    partitioning: &Partitioning,
    dep: &DepInfo,
    replication: &ReplicationPlan,
) -> f64 {
    ll_chain_estimate(hw, graph, partitioning, dep, replication)
}

/// LL fitness including a per-core issue-capacity floor.
///
/// The Fig. 6 chain estimate assumes each replica's core is dedicated;
/// when many AGs share a core, the core's MVM issue bandwidth
/// (`1/T_interval`) bounds the inference time from below by
/// `Σ windows-per-AG × T_interval` on the busiest core. Taking the max
/// keeps the GA from stacking streaming pipelines onto one core at low
/// parallelism degrees.
pub(crate) fn ll_fitness_with_issue_floor(
    hw: &HardwareConfig,
    graph: &Graph,
    partitioning: &Partitioning,
    dep: &DepInfo,
    chromosome: &Chromosome,
    replication: &ReplicationPlan,
) -> f64 {
    let chain = ll_chain_estimate(hw, graph, partitioning, dep, replication);
    chain.max(ll_issue_floor(hw, partitioning, chromosome, replication))
}

/// The per-core issue-capacity floor of
/// [`ll_fitness_with_issue_floor`]: `max_core Σ windows-per-AG` scaled
/// by the issue interval. The only placement-dependent part of the LL
/// fitness, recomputed on every evaluation (the chain term is
/// replication-only and can be reused incrementally).
pub(crate) fn ll_issue_floor(
    hw: &HardwareConfig,
    partitioning: &Partitioning,
    chromosome: &Chromosome,
    replication: &ReplicationPlan,
) -> f64 {
    let (mut windows, mut loads) = (Vec::new(), Vec::new());
    fill_windows_per_replica(partitioning, replication, &mut windows);
    ll_issue_floor_in(hw, chromosome, &windows, &mut loads)
}

/// [`ll_issue_floor`] given every node's windows per replica, over a
/// caller-owned per-core load buffer, so the GA's evaluation loop does
/// not allocate it per offspring.
fn ll_issue_floor_in(
    hw: &HardwareConfig,
    chromosome: &Chromosome,
    windows_per_replica: &[usize],
    loads: &mut Vec<u64>,
) -> f64 {
    let mut worst: u64 = 0;
    loads.clear();
    loads.resize(chromosome.cores(), 0);
    for (slot, gene) in chromosome.genes() {
        let core = chromosome.core_of_slot(slot);
        loads[core] += gene.ag_count as u64 * windows_per_replica[gene.mvm] as u64;
        worst = worst.max(loads[core]);
    }
    worst as f64 * hw.issue_interval() as f64
}

/// The Fig. 6 topological chain estimate (from-scratch entry point:
/// builds the static tables and state buffer per call).
fn ll_chain_estimate(
    hw: &HardwareConfig,
    graph: &Graph,
    partitioning: &Partitioning,
    dep: &DepInfo,
    replication: &ReplicationPlan,
) -> f64 {
    let tables = LlStatic::build(hw, graph, partitioning, dep);
    let mut states = Vec::new();
    ll_chain_estimate_in(&tables, replication, &mut states)
}

/// Everything the LL chain estimate reads that does *not* depend on
/// the replication plan — graph, partitioning, dependency analysis and
/// the hardware's cost primitives — flattened into dense per-node
/// tables so the GA's hottest LL loop does no hash lookups, no
/// topological sorting and no per-node allocation. Built once per
/// evaluation context, i.e. once per GA run (the tables are only valid
/// for the `(hw, graph, partitioning, dep)` they were built from).
pub(crate) struct LlStatic {
    /// Node ids in the same topological order `Graph::topo_order`
    /// yields, paired with each node's static record.
    topo: Vec<usize>,
    /// Dense by node id.
    nodes: Vec<LlStaticNode>,
    /// `HardwareConfig::vfu_rate`.
    vfu_rate: f64,
}

struct LlStaticNode {
    is_input: bool,
    is_mvm: bool,
    /// MVM nodes: `(index, windows, operation_cycle_cost(ags_per_replica))`
    /// per partition entry, in `Partitioning::indices_of` order.
    mvm_indices: Vec<(MvmIdx, usize, f64)>,
    /// Non-MVM nodes: partition indices of the nearest MVM providers.
    provider_indices: Vec<MvmIdx>,
    /// Non-MVM nodes: `windows_of * vfu_window_work` — total VFU work,
    /// equal to the plain element count for streaming operators.
    elems: usize,
    /// Predecessors in `Graph::predecessors` order with the edge's
    /// waiting fraction (0 when the dependency edge is untracked).
    preds: Vec<(usize, f64)>,
}

impl LlStatic {
    fn build(
        hw: &HardwareConfig,
        graph: &Graph,
        partitioning: &Partitioning,
        dep: &DepInfo,
    ) -> Self {
        #[cfg(test)]
        tests::LL_STATIC_BUILDS.with(|n| n.set(n.get() + 1));
        let nodes = (0..graph.node_count())
            .map(|raw| {
                let id = NodeId(raw);
                let node = graph.node(id);
                let is_mvm = node.op.is_mvm();
                LlStaticNode {
                    is_input: matches!(node.op, Op::Input { .. }),
                    is_mvm,
                    mvm_indices: if is_mvm {
                        partitioning
                            .indices_of(id)
                            .into_iter()
                            .map(|idx| {
                                let e = partitioning.entry(idx);
                                let per_window = hw.operation_cycle_cost(e.ags_per_replica);
                                (idx, e.windows, per_window as f64)
                            })
                            .collect()
                    } else {
                        Vec::new()
                    },
                    provider_indices: if is_mvm {
                        Vec::new()
                    } else {
                        graph
                            .mvm_providers(id)
                            .into_iter()
                            .flat_map(|p| partitioning.indices_of(p))
                            .collect()
                    },
                    elems: dep.windows_of(id) * crate::waiting::vfu_window_work(graph, id),
                    preds: graph
                        .predecessors(id)
                        .iter()
                        .map(|&p| (p.0, dep.edge(id, p).map_or(0.0, |e| e.waiting)))
                        .collect(),
                }
            })
            .collect();
        LlStatic {
            topo: graph.topo_order().into_iter().map(|id| id.0).collect(),
            nodes,
            vfu_rate: hw.vfu_rate(),
        }
    }
}

/// The Fig. 6 chain recursion over prebuilt [`LlStatic`] tables and a
/// reusable state buffer. Performs the arithmetic in exactly the order
/// the original hash-map walk did, so the result is bit-identical.
fn ll_chain_estimate_in(
    tables: &LlStatic,
    replication: &ReplicationPlan,
    states: &mut Vec<LlNodeState>,
) -> f64 {
    states.clear();
    states.resize(
        tables.nodes.len(),
        LlNodeState {
            start: 0.0,
            finish: 0.0,
        },
    );
    let mut last_finish: f64 = 0.0;

    for &id in &tables.topo {
        let node = &tables.nodes[id];
        if node.is_input {
            states[id] = LlNodeState {
                start: 0.0,
                finish: 0.0,
            };
            continue;
        }

        let u = static_node_uninterrupted_time(tables, node, replication);

        let mut start: f64 = 0.0;
        let mut providers_finish: f64 = 0.0;
        for &(p, w) in &node.preds {
            let ps = states[p];
            let period = (ps.finish - ps.start).max(0.0);
            start = start.max(ps.start + period * w);
            providers_finish = providers_finish.max(ps.finish);
        }

        let finish = (start + u).max(providers_finish);
        last_finish = last_finish.max(finish);
        states[id] = LlNodeState { start, finish };
    }
    last_finish
}

/// Uninterrupted execution time `U_x` of one node under the plan, over
/// an [`LlStaticNode`] record (the graph/partitioning walks hoisted
/// out): MVM nodes take the max over their column groups of
/// `ceil(windows/R) × max(ags_per_replica·T_interval, T_MVM)`;
/// vector/memory nodes divide their element count by the VFU rate of
/// the `R_pred` cores the work is distributed over (Section IV-D.2).
fn static_node_uninterrupted_time(
    tables: &LlStatic,
    node: &LlStaticNode,
    replication: &ReplicationPlan,
) -> f64 {
    if node.is_mvm {
        let mut u: f64 = 0.0;
        for &(idx, windows, per_window) in &node.mvm_indices {
            let r = replication.count(idx);
            u = u.max(windows.div_ceil(r) as f64 * per_window);
        }
        u
    } else {
        let r_pred = node
            .provider_indices
            .iter()
            .map(|&idx| replication.count(idx))
            .max()
            .unwrap_or(1);
        node.elems as f64 / (tables.vfu_rate * r_pred as f64)
    }
}

// ---------------------------------------------------------------------------
// Evaluation engine: incremental bases + fitness memoization
// ---------------------------------------------------------------------------

/// Mode-specific intermediate data an evaluation leaves behind, from
/// which a mutated offspring can be re-evaluated incrementally.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EvalBasis {
    /// The replication plan the evaluation was computed under, kept so
    /// reuse checks compare replica counts against the child's plan
    /// instead of re-walking either chromosome's slots.
    plan: ReplicationPlan,
    detail: EvalDetail,
}

#[derive(Debug, Clone, PartialEq)]
enum EvalDetail {
    /// HT mode: the busy time of every core. `F_HT` is a max over
    /// cores, so a child only recomputes the cores its mutation dirtied.
    Ht {
        /// Per-core busy times in core order.
        core_times: Vec<u64>,
    },
    /// LL mode: the Fig. 6 chain estimate. It depends only on the
    /// replication counts, so placement-only mutations reuse it and
    /// just recompute the per-core issue floor.
    Ll {
        /// The topological chain estimate.
        chain: f64,
    },
}

/// How a fitness value was obtained (for the `GaStats` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvalKind {
    /// Every core (HT) or the full chain (LL) was computed.
    Full,
    /// A parent basis was reused; only dirtied state was recomputed.
    Incremental,
}

/// Reusable buffers for the evaluation engine, owned per GA worker for
/// a whole run (see `run_indexed_on`) or per [`FitnessMemo`].
/// Everything in here is overwritten before being read, so reuse across
/// evaluations is an allocation optimization only — results stay
/// bit-identical.
#[derive(Default)]
pub(crate) struct EvalScratch {
    /// `(ag_count, cycles)` buffer for [`ht_core_time_of`].
    items: Vec<(usize, usize)>,
    /// Every node's windows per replica under the plan being evaluated.
    windows: Vec<usize>,
    /// Per-core busy times of a draft still being mutated
    /// ([`ht_critical_node`]; an evaluation builds its basis directly).
    times: Vec<u64>,
    /// Batched list of cores to re-evaluate (HT incremental).
    dirty: Vec<usize>,
    /// Membership mask for `dirty` (reset between evaluations).
    dirty_mask: Vec<bool>,
    /// Per-core issue loads (LL floor).
    loads: Vec<u64>,
    /// Per-node chain states (LL).
    states: Vec<LlNodeState>,
}

/// Fills `times` with the per-core HT busy times of `chromosome` under
/// `plan`, derived from the evaluation `basis` of the chromosome it was
/// mutated from: one copy of the parent's times, patched in place.
/// `touched` lists every core whose slots differ from that parent
/// (duplicates and unchanged cores are harmless). Only those cores are
/// recomputed, plus every core hosting a node whose replica count
/// differs from the basis: its windows-per-replica shifted on *all* of
/// its cores, not only where AGs moved. (A core that hosted such a node
/// in the parent only has lost the gene, so it is in `touched`.)
/// Leaves the plan's windows per replica in `scratch.windows`.
///
/// `false`, with `times` untouched, when `basis` is not an HT basis
/// over the same core count.
fn ht_core_times_from(
    ctx: &GaContext<'_>,
    chromosome: &Chromosome,
    plan: &ReplicationPlan,
    (basis, touched): (&EvalBasis, &[usize]),
    scratch: &mut EvalScratch,
    times: &mut Vec<u64>,
) -> bool {
    let EvalDetail::Ht { core_times } = &basis.detail else {
        return false;
    };
    if core_times.len() != chromosome.cores() {
        return false;
    }
    times.clear();
    times.extend_from_slice(core_times);
    fill_windows_per_replica(ctx.partitioning, plan, &mut scratch.windows);
    scratch.dirty.clear();
    scratch.dirty_mask.clear();
    scratch.dirty_mask.resize(chromosome.cores(), false);
    let mut mark = |core: usize| {
        if !scratch.dirty_mask[core] {
            scratch.dirty_mask[core] = true;
            scratch.dirty.push(core);
        }
    };
    touched.iter().copied().for_each(&mut mark);
    let counts = basis.plan.counts().iter().zip(plan.counts());
    for (node, (before, now)) in counts.enumerate() {
        if before != now {
            chromosome
                .slots_of_node(node)
                .map(|slot| chromosome.core_of_slot(slot))
                .for_each(&mut mark);
        }
    }
    for &core in &scratch.dirty {
        times[core] = ht_core_time_of(
            ctx.hw,
            chromosome,
            &scratch.windows,
            core,
            &mut scratch.items,
        );
    }
    true
}

/// A node with AGs on the bottleneck core (largest estimated HT time)
/// of a draft under mutation, preferring the gene with the largest
/// cycle count there. The core times are those of `parent` (the
/// evaluation basis of the individual the draft was copied from, with
/// the cores written since), recomputed only where they moved — see
/// [`ht_core_times_from`]. `None` outside HT mode or on an empty core.
pub(crate) fn ht_critical_node(
    ctx: &GaContext<'_>,
    chromosome: &Chromosome,
    plan: &ReplicationPlan,
    parent: (&EvalBasis, &[usize]),
    scratch: &mut EvalScratch,
) -> Option<MvmIdx> {
    let mut times = std::mem::take(&mut scratch.times);
    let mut worst: Option<(u64, usize)> = None;
    if ht_core_times_from(ctx, chromosome, plan, parent, scratch, &mut times) {
        for (core, &t) in times.iter().enumerate() {
            if worst.is_none_or(|(w, _)| t > w) {
                worst = Some((t, core));
            }
        }
    }
    scratch.times = times;
    let (_, core) = worst?;
    chromosome
        .genes_of_core(core)
        .max_by_key(|(_, g)| scratch.windows[g.mvm])
        .map(|(_, g)| g.mvm)
}

/// Evaluates a chromosome's fitness under its replication `plan`,
/// incrementally when the evaluation basis of the chromosome it was
/// mutated from is supplied together with the cores the mutation
/// touched (see [`ht_core_times_from`]). `ll` is the context's
/// [`LlStatic`] tables (`Some` whenever `ctx.mode` is LL — see
/// [`FitnessMemo::ll_tables`]); `scratch` provides the reusable
/// buffers and never influences the result.
///
/// The returned `f64` is bit-identical to the from-scratch estimators
/// ([`ht_fitness`] / [`ll_fitness_with_issue_floor`]) regardless of the
/// path taken: HT recombines exact per-core integers, and the LL chain
/// is a pure function of the replication counts that are checked for
/// equality before reuse.
pub(crate) fn compute_fitness(
    ctx: &GaContext<'_>,
    ll: Option<&LlStatic>,
    chromosome: &Chromosome,
    plan: ReplicationPlan,
    parent: Option<(&EvalBasis, &[usize])>,
    scratch: &mut EvalScratch,
) -> (f64, EvalBasis, EvalKind) {
    match ctx.mode {
        PipelineMode::HighThroughput => {
            // The child's basis: the one copy of the parent's made.
            let mut core_times = Vec::new();
            let incremental = parent.is_some_and(|parent| {
                ht_core_times_from(ctx, chromosome, &plan, parent, scratch, &mut core_times)
            });
            if !incremental {
                fill_windows_per_replica(ctx.partitioning, &plan, &mut scratch.windows);
                core_times.extend((0..chromosome.cores()).map(|core| {
                    ht_core_time_of(
                        ctx.hw,
                        chromosome,
                        &scratch.windows,
                        core,
                        &mut scratch.items,
                    )
                }));
            }
            let fitness = ht_combine(&core_times);
            let detail = EvalDetail::Ht { core_times };
            let kind = if incremental {
                EvalKind::Incremental
            } else {
                EvalKind::Full
            };
            (fitness, EvalBasis { plan, detail }, kind)
        }
        PipelineMode::LowLatency => {
            let reused = parent.and_then(|(basis, _)| match &basis.detail {
                EvalDetail::Ll { chain } if basis.plan == plan => Some(*chain),
                _ => None,
            });
            let (chain, kind) = match reused {
                Some(chain) => (chain, EvalKind::Incremental),
                None => {
                    let tables = ll.expect("an LL context carries its LL tables");
                    (
                        ll_chain_estimate_in(tables, &plan, &mut scratch.states),
                        EvalKind::Full,
                    )
                }
            };
            fill_windows_per_replica(ctx.partitioning, &plan, &mut scratch.windows);
            let floor = ll_issue_floor_in(ctx.hw, chromosome, &scratch.windows, &mut scratch.loads);
            let detail = EvalDetail::Ll { chain };
            (chain.max(floor), EvalBasis { plan, detail }, kind)
        }
    }
}

/// Whether two chromosomes share the same slot grid (a precondition for
/// reusing per-core state between them).
fn same_grid(a: &Chromosome, b: &Chromosome) -> bool {
    a.cores() == b.cores() && a.max_nodes_per_core() == b.max_nodes_per_core()
}

/// Collects into `out` the core of every slot whose content differs
/// between `parent` and `child` — the touched set of a mutation nobody
/// recorded. Only [`FitnessMemo::evaluate_mutated`] needs this grid
/// diff; the GA's drafts list the cores their operators touched.
fn collect_dirty_cores(parent: &Chromosome, child: &Chromosome, out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        (0..child.len())
            .filter(|&slot| parent.slot_differs(child, slot))
            .map(|slot| child.core_of_slot(slot)),
    );
}

/// Entries the memo keeps per unique chromosome.
#[derive(Debug, Clone)]
pub(crate) struct MemoEntry {
    /// The memoized fitness.
    pub fitness: f64,
    /// The evaluation basis, shared so descendants can re-evaluate
    /// incrementally without recomputing it.
    pub basis: Arc<EvalBasis>,
}

/// Default cap on memoized chromosomes; beyond it, new results are
/// still returned but no longer recorded (deterministic: the insertion
/// order is the GA's deterministic evaluation order).
const MEMO_CAPACITY: usize = 1 << 16;

/// A fitness memoization cache over chromosome fingerprints, exact by
/// construction (see the module docs).
///
/// The GA consults it before every offspring evaluation; it is also a
/// public building block so external search drivers (and the property
/// tests) can reuse the incremental engine:
///
/// ```
/// use pimcomp_arch::{HardwareConfig, PipelineMode};
/// use pimcomp_core::{DepInfo, FitnessMemo, GaContext, Partitioning};
/// use pimcomp_ir::transform::normalize;
///
/// let graph = normalize(&pimcomp_ir::models::tiny_cnn()).unwrap();
/// let hw = HardwareConfig::small_test();
/// let partitioning = Partitioning::new(&graph, &hw).unwrap();
/// let dep = DepInfo::analyze(&graph);
/// let ctx = GaContext {
///     hw: &hw,
///     graph: &graph,
///     partitioning: &partitioning,
///     dep: &dep,
///     mode: PipelineMode::HighThroughput,
///     core_limit: None,
/// };
/// let mut memo = FitnessMemo::new(&ctx);
/// # let cores = hw.total_cores();
/// # let capacity = hw.crossbar_capacity_per_core();
/// # let mut chromosome = pimcomp_core::Chromosome::empty(cores, partitioning.len());
/// # let mut used = vec![0usize; cores];
/// # for idx in 0..partitioning.len() {
/// #     let entry = partitioning.entry(idx);
/// #     for _ in 0..entry.ags_per_replica {
/// #         let core = (0..cores)
/// #             .find(|&c| used[c] + entry.crossbars_per_ag <= capacity)
/// #             .expect("one replica per node fits the test target");
/// #         used[core] += entry.crossbars_per_ag;
/// #         let slot = chromosome
/// #             .slot_of_node_on_core(core, idx)
/// #             .or_else(|| chromosome.free_slot_of_core(core))
/// #             .expect("free slot");
/// #         let cur = chromosome.gene(slot).map_or(0, |g| g.ag_count);
/// #         chromosome.set_gene(slot, Some(pimcomp_core::Gene { mvm: idx, ag_count: cur + 1 }));
/// #     }
/// # }
/// let first = memo.evaluate(&chromosome).unwrap();
/// let again = memo.evaluate(&chromosome).unwrap(); // cache hit
/// assert_eq!(first.to_bits(), again.to_bits());
/// assert_eq!(memo.cache_hits(), 1);
/// ```
pub struct FitnessMemo<'a> {
    ctx: &'a GaContext<'a>,
    entries: HashMap<u128, MemoEntry>,
    /// The context's LL tables (`None` in HT mode), built with the memo
    /// and shared by every evaluation under it.
    ll: Option<LlStatic>,
    scratch: EvalScratch,
    /// Cores in which a child differs from its parent
    /// ([`FitnessMemo::evaluate_mutated`]).
    diff: Vec<usize>,
    hits: usize,
    full: usize,
    incremental: usize,
}

impl<'a> FitnessMemo<'a> {
    /// An empty memo for the given evaluation context.
    pub fn new(ctx: &'a GaContext<'a>) -> Self {
        FitnessMemo {
            ctx,
            entries: HashMap::new(),
            ll: (ctx.mode == PipelineMode::LowLatency)
                .then(|| LlStatic::build(ctx.hw, ctx.graph, ctx.partitioning, ctx.dep)),
            scratch: EvalScratch::default(),
            diff: Vec::new(),
            hits: 0,
            full: 0,
            incremental: 0,
        }
    }

    /// The context's LL tables, for [`compute_fitness`] calls made
    /// beside the memo (the GA's workers).
    pub(crate) fn ll_tables(&self) -> Option<&LlStatic> {
        self.ll.as_ref()
    }

    /// Evaluates a chromosome, returning the memoized value when its
    /// fingerprint was seen before.
    ///
    /// # Errors
    ///
    /// Propagates invariant violations from replication derivation.
    pub fn evaluate(&mut self, chromosome: &Chromosome) -> Result<f64, CompileError> {
        self.evaluate_with(chromosome, None)
    }

    /// Evaluates `child` incrementally against a previously evaluated
    /// `parent` (falling back to a full evaluation when the parent was
    /// never seen), returning the memoized value on a fingerprint hit.
    ///
    /// # Errors
    ///
    /// Propagates invariant violations from replication derivation.
    pub fn evaluate_mutated(
        &mut self,
        parent: &Chromosome,
        child: &Chromosome,
    ) -> Result<f64, CompileError> {
        self.evaluate_with(child, Some(parent))
    }

    fn evaluate_with(
        &mut self,
        chromosome: &Chromosome,
        parent: Option<&Chromosome>,
    ) -> Result<f64, CompileError> {
        let fingerprint = chromosome.fingerprint();
        if let Some(entry) = self.lookup(fingerprint) {
            let fitness = entry.fitness;
            self.hits += 1;
            return Ok(fitness);
        }
        let plan = chromosome.replication(self.ctx.partitioning)?;
        let parent = parent
            .filter(|p| same_grid(p, chromosome))
            .and_then(|p| Some((p, &self.entries.get(&p.fingerprint())?.basis)));
        let parent = parent.map(|(p, basis)| {
            collect_dirty_cores(p, chromosome, &mut self.diff);
            (basis.as_ref(), self.diff.as_slice())
        });
        let (fitness, basis, kind) = compute_fitness(
            self.ctx,
            self.ll.as_ref(),
            chromosome,
            plan,
            parent,
            &mut self.scratch,
        );
        self.observe(kind);
        self.record(fingerprint, fitness, Arc::new(basis));
        Ok(fitness)
    }

    /// Cached entry for a fingerprint, if present.
    pub(crate) fn lookup(&self, fingerprint: u128) -> Option<&MemoEntry> {
        self.entries.get(&fingerprint)
    }

    /// Records an evaluation result (no-op once the cap is reached, and
    /// first-write-wins for duplicate fingerprints — both deterministic
    /// because callers insert in evaluation order).
    pub(crate) fn record(&mut self, fingerprint: u128, fitness: f64, basis: Arc<EvalBasis>) {
        if self.entries.len() < MEMO_CAPACITY {
            self.entries
                .entry(fingerprint)
                .or_insert(MemoEntry { fitness, basis });
        }
    }

    /// Bumps the hit counter (used by the GA engine, which looks up
    /// entries from worker threads and tallies at the merge point).
    pub(crate) fn observe_hit(&mut self) {
        self.hits += 1;
    }

    /// Bumps the evaluation counter matching `kind`.
    pub(crate) fn observe(&mut self, kind: EvalKind) {
        match kind {
            EvalKind::Full => self.full += 1,
            EvalKind::Incremental => self.incremental += 1,
        }
    }

    /// Evaluations answered from the cache.
    pub fn cache_hits(&self) -> usize {
        self.hits
    }

    /// Evaluations computed from scratch.
    pub(crate) fn full_evals(&self) -> usize {
        self.full
    }

    /// Evaluations computed incrementally from a parent basis.
    pub(crate) fn incremental_evals(&self) -> usize {
        self.incremental
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pimcomp_ir::GraphBuilder;

    thread_local! {
        /// How often this thread ran [`LlStatic::build`].
        pub(crate) static LL_STATIC_BUILDS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn hw() -> HardwareConfig {
        // T_MVM = 2000, parallelism 20 -> T_interval = 100.
        HardwareConfig::puma()
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
        let cfg = hw();
        assert_eq!(ht_core_time(&cfg, &[(1, 10)]), 10 * 2000);
    }

    #[test]
    fn ht_core_time_empty_is_zero() {
        assert_eq!(ht_core_time(&hw(), &[]), 0);
        assert_eq!(ht_core_time(&hw(), &[(0, 100), (2, 0)]), 0);
    }

    #[test]
    fn ht_fitness_is_max_over_cores() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 28, 28]);
        let c1 = b.conv2d("c1", x, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let _ = b.conv2d("c2", c1, 32, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let p = Partitioning::new(&g, &hw()).unwrap();
        let mut c = Chromosome::empty(2, 4);
        c.set_gene(
            0,
            Some(crate::mapping::Gene {
                mvm: 0,
                ag_count: p.entry(0).ags_per_replica,
            }),
        );
        c.set_gene(
            4,
            Some(crate::mapping::Gene {
                mvm: 1,
                ag_count: p.entry(1).ags_per_replica,
            }),
        );
        let plan = c.replication(&p).unwrap();
        let f = ht_fitness(&hw(), &p, &c, &plan);
        let t0 = ht_core_time(&hw(), &[(p.entry(0).ags_per_replica, 28 * 28)]);
        let t1 = ht_core_time(&hw(), &[(p.entry(1).ags_per_replica, 28 * 28)]);
        let expect = t0.max(t1) as f64 + HT_TIE_BREAK * (t0 + t1) as f64 / 2.0;
        assert!((f - expect).abs() < 1e-9, "{f} vs {expect}");
    }

    #[test]
    fn replication_reduces_both_fitnesses() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [16, 16, 16]);
        let c1 = b.conv2d("c1", x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let _c2 = b.conv2d("c2", c1, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let cfg = hw();
        let p = Partitioning::new(&g, &cfg).unwrap();
        let dep = DepInfo::analyze(&g);

        let r1 = ReplicationPlan::ones(&p);
        let mut r2 = ReplicationPlan::ones(&p);
        r2.set_count(0, 4);
        r2.set_count(1, 4);

        let ll1 = ll_fitness(&cfg, &g, &p, &dep, &r1);
        let ll2 = ll_fitness(&cfg, &g, &p, &dep, &r2);
        assert!(
            ll2 < ll1,
            "4x replication should cut LL estimate: {ll2} vs {ll1}"
        );
    }

    #[test]
    fn ll_fitness_respects_chain_waiting() {
        // conv -> fc: the fc must wait for the conv to finish entirely
        // (W = 1), so LL time >= conv time + fc time.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [8, 8, 8]);
        let c = b.conv2d("c", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let f = b.flatten("f", c).unwrap();
        let _fc = b.linear("fc", f, 10).unwrap();
        let g = b.finish().unwrap();
        let cfg = hw();
        let p = Partitioning::new(&g, &cfg).unwrap();
        let dep = DepInfo::analyze(&g);
        let plan = ReplicationPlan::ones(&p);
        let total = ll_fitness(&cfg, &g, &p, &dep, &plan);

        let conv_u = 64.0 * cfg.mvm_latency as f64; // 64 windows, 1 AG
        assert!(total >= conv_u, "{total} < {conv_u}");
    }

    #[test]
    fn streaming_chain_overlaps_execution() {
        // Two equal convs with stride-1 3x3: consumer waits only a tiny
        // prefix, so total << sum of layer times.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [8, 16, 16]);
        let c1 = b.conv2d("c1", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let _c2 = b.conv2d("c2", c1, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        let cfg = hw();
        let p = Partitioning::new(&g, &cfg).unwrap();
        let dep = DepInfo::analyze(&g);
        let plan = ReplicationPlan::ones(&p);
        let total = ll_fitness(&cfg, &g, &p, &dep, &plan);
        let u1 = 256.0 * cfg.mvm_latency as f64;
        let u2 = 256.0 * cfg.mvm_latency as f64;
        assert!(total < 0.8 * (u1 + u2), "{total} vs {}", u1 + u2);
        assert!(total >= u1.max(u2));
    }
}
