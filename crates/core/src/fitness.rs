//! GA fitness functions for both compilation modes (paper Section
//! IV-C.2, Figs. 5 and 6). Lower is better for both.
//!
//! Besides the from-scratch estimators this module hosts the
//! *evaluation engine* the GA runs on:
//!
//! * [`EvalBasis`] — the mode-specific intermediate data an evaluation
//!   leaves behind (per-core busy times in HT mode; the chain estimate
//!   and per-core issue loads in LL mode) from which a mutated
//!   offspring can be re-evaluated incrementally: `F_HT` and the LL
//!   issue floor are maxima over per-core integers, so only the cores a
//!   mutation dirtied need recomputation, and the LL chain estimate
//!   depends only on replication counts, so placement-only mutations
//!   reuse it verbatim. The per-core terms sit in shared blocks of 64
//!   cores, each with its fold ([`CoreTerms`]), so a child copies and
//!   folds again only the blocks whose terms moved.
//! * [`FitnessMemo`] — a fitness cache keyed by the chromosome
//!   [fingerprint](crate::Chromosome::fingerprint), so re-visiting a
//!   chromosome evaluated in an *earlier* generation (grow-then-shrink
//!   walks, re-derived offspring) skips evaluation entirely. Within
//!   one generation the cache is frozen — the GA looks entries up
//!   against the state at batch start and records new results at the
//!   index-ordered reduction — so duplicate offspring of the same
//!   batch are each computed; that is what keeps the result
//!   independent of worker scheduling. An entry is a fitness plus a
//!   *weak* pointer to its basis: the memo remembers every fitness of
//!   a run, but a basis lives only while a population member holds it,
//!   so the GA's memory follows its population, not its evaluation
//!   count. A hit whose basis is gone rebuilds it from the chromosome
//!   (a pure function of it), which is not counted as an evaluation.
//!
//! Both paths are *exact*: an incremental or memoized evaluation
//! returns the bit-identical `f64` the from-scratch estimator would,
//! which the property tests in `tests/properties.rs` assert (and, in
//! builds with debug assertions, every LL evaluation checks its issue
//! floor against [`ll_issue_floor`] from scratch).

use crate::cost::{self, ht_core_time_in_place};
use crate::ga::GaContext;
use crate::mapping::{Chromosome, CORE_BLOCK};
use crate::partition::{MvmIdx, Partitioning};
use crate::replication::ReplicationPlan;
use crate::schedule::folded_activations;
use crate::waiting::DepInfo;
use crate::CompileError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::{Graph, NodeId, Op};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

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

/// HT busy time of one chromosome core (the per-core term of `F_HT`):
/// its genes' `(ag_count, windows per replica)` pairs
/// ([`fill_windows_per_replica`]), priced by
/// [`ht_core_time_in_place`]. `scratch` is a reusable buffer so
/// per-core evaluation in the GA's hottest loop does not allocate.
fn ht_core_term(
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

/// What the fitness reads of a run of per-core terms: the largest, and
/// for HT the saturating sum and how many are non-zero (0 and 0 for LL,
/// whose issue floor reads the largest alone). Integer max, the
/// saturating sum of non-negative integers and a count are associative,
/// so the fold of blocks' folds is the fold of all their terms, bit for
/// bit, whichever way the terms are grouped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TermFold {
    worst: u64,
    sum: u64,
    active: u64,
}

impl TermFold {
    /// The fold of `terms`, with their sum and count of non-zero ones
    /// when `ht`, in one pass.
    pub(crate) fn of(terms: &[u64], ht: bool) -> Self {
        let mut fold = TermFold::default();
        for &t in terms {
            fold.worst = fold.worst.max(t);
            if ht {
                fold.sum = fold.sum.saturating_add(t);
                fold.active += u64::from(t > 0);
            }
        }
        fold
    }

    /// The fold of two runs' terms from the fold of each.
    fn merge(self, other: Self) -> Self {
        TermFold {
            worst: self.worst.max(other.worst),
            sum: self.sum.saturating_add(other.sum),
            active: self.active + other.active,
        }
    }
}

/// Folds per-core busy times into the HT fitness scalar
/// (`max + tie-break`). The fold is order-insensitive ([`TermFold`]), so
/// incremental and from-scratch evaluations combine bit-identically.
fn ht_combine(fold: TermFold) -> f64 {
    fold.worst as f64 + HT_TIE_BREAK * fold.sum as f64 / fold.active.max(1) as f64
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
        .map(|core| ht_core_term(hw, chromosome, &windows, core, &mut scratch))
        .collect();
    ht_combine(TermFold::of(&core_times, true))
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
    let core_time = |ids: &Vec<usize>| {
        let mvms = ids.iter().map(|&id| mapping.instances[id].mvm);
        let windows = mvms.map(|mvm| mapping.replication.windows_per_replica(partitioning, mvm));
        ht_core_time_in_place(hw, &mut windows.map(|w| (1, w)).collect())
    };
    mapping.per_core.iter().map(core_time).max().unwrap_or(0) as f64
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
///
/// From scratch: builds the [`LlStatic`] tables the GA builds once.
pub(crate) fn ll_fitness(
    hw: &HardwareConfig,
    graph: &Graph,
    partitioning: &Partitioning,
    dep: &DepInfo,
    replication: &ReplicationPlan,
) -> f64 {
    let tables = LlStatic::build(hw, graph, partitioning, dep);
    ll_chain_estimate_in(&tables, replication, &mut Vec::new())
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
    let chain = ll_fitness(hw, graph, partitioning, dep, replication);
    chain.max(ll_issue_floor(hw, partitioning, chromosome, replication))
}

/// [`ll_fitness_with_issue_floor`] computed from a materialized
/// [`CoreMapping`]: the value the GA minimised for its own mappings,
/// and the same objective for a mapping built without it. Each instance
/// is one AG, so a core's issue load is its instances' windows per
/// replica summed.
///
/// [`CoreMapping`]: crate::mapping::CoreMapping
pub(crate) fn ll_fitness_from_mapping(
    hw: &HardwareConfig,
    graph: &Graph,
    partitioning: &Partitioning,
    dep: &DepInfo,
    mapping: &crate::mapping::CoreMapping,
) -> f64 {
    let chain = ll_fitness(hw, graph, partitioning, dep, &mapping.replication);
    let windows = |id: usize| {
        let mvm = mapping.instances[id].mvm;
        mapping.replication.windows_per_replica(partitioning, mvm) as u64
    };
    let load = |ids: &Vec<usize>| {
        ids.iter()
            .fold(0u64, |l, &id| l.saturating_add(windows(id)))
    };
    let worst = mapping.per_core.iter().map(load).max().unwrap_or(0);
    chain.max(cost::issue_floor(hw, worst))
}

/// The per-core issue-capacity floor of
/// [`ll_fitness_with_issue_floor`]: `max_core Σ windows-per-AG` scaled
/// by the issue interval. The only placement-dependent part of the LL
/// fitness: the GA keeps every core's load in its evaluation basis and
/// recomputes only the cores a mutation dirtied (the chain term is
/// replication-only and can be reused verbatim). This from-scratch walk
/// over the genes is the reference the incremental loads must match.
pub(crate) fn ll_issue_floor(
    hw: &HardwareConfig,
    partitioning: &Partitioning,
    chromosome: &Chromosome,
    replication: &ReplicationPlan,
) -> f64 {
    let mut windows = Vec::new();
    fill_windows_per_replica(partitioning, replication, &mut windows);
    let mut loads = vec![0u64; chromosome.cores()];
    for (slot, gene) in chromosome.genes() {
        let load = &mut loads[chromosome.core_of_slot(slot)];
        *load = load.saturating_add(gene_issue_load(gene.ag_count, windows[gene.mvm]));
    }
    cost::issue_floor(hw, TermFold::of(&loads, false).worst)
}

/// One gene's issue load: its AGs times the node's windows per replica.
fn gene_issue_load(ag_count: usize, windows_per_replica: usize) -> u64 {
    (ag_count as u64).saturating_mul(windows_per_replica as u64)
}

/// LL issue load of one chromosome core (the per-core term of the issue
/// floor) given every node's windows per replica; saturating, like
/// [`ht_core_time_in_place`].
fn ll_core_load(chromosome: &Chromosome, windows_per_replica: &[usize], core: usize) -> u64 {
    chromosome.genes_of_core(core).fold(0, |load, (_, gene)| {
        load.saturating_add(gene_issue_load(
            gene.ag_count,
            windows_per_replica[gene.mvm],
        ))
    })
}

/// Everything the LL chain estimate reads that does *not* depend on
/// the replication plan — graph, partitioning, dependency analysis and
/// the hardware terms [`cost`] prices — flattened into dense per-node
/// tables so the GA's hottest LL loop does no hash lookups, no
/// topological sorting and no per-node allocation. Built once per
/// evaluation context, i.e. once per GA run (the tables are only valid
/// for the `(hw, graph, partitioning, dep)` they were built from).
pub(crate) struct LlStatic {
    /// Node ids in the same topological order `Graph::topo_order`
    /// yields, paired with each node's static record; an activation that
    /// folds into its MVM node is no stage of its own, as in the
    /// schedules, and its consumers read that node.
    topo: Vec<usize>,
    /// Dense by node id.
    nodes: Vec<LlStaticNode>,
    /// [`cost::vfu_elems_per_cycle`].
    vfu_elems_per_cycle: f64,
}

struct LlStaticNode {
    is_input: bool,
    is_mvm: bool,
    /// MVM nodes: `(index, windows, cost::ll_window_cycles(ags_per_replica))`
    /// per partition entry, in `Partitioning::indices_of` order.
    mvm_indices: Vec<(MvmIdx, usize, f64)>,
    /// Non-MVM nodes: partition indices of the nearest MVM providers.
    provider_indices: Vec<MvmIdx>,
    /// Non-MVM nodes: `windows_of * vfu_window_work` — total VFU work,
    /// equal to the plain element count for streaming operators.
    elems: usize,
    /// Predecessors in `Graph::predecessors` order with the edge's
    /// waiting fraction (0 when the dependency edge is untracked); a
    /// folded activation stands for its MVM node.
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
        let folded = folded_activations(graph);
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
                                let per_window = cost::ll_window_cycles(hw, e.ags_per_replica);
                                (idx, e.windows, per_window)
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
                        .map(|&p| {
                            let w = dep.edge(id, p).map_or(0.0, |e| e.waiting);
                            let stage = if folded[p.0] {
                                graph.predecessors(p)[0]
                            } else {
                                p
                            };
                            (stage.0, w)
                        })
                        .collect(),
                }
            })
            .collect();
        let topo = graph.topo_order().into_iter().filter(|id| !folded[id.0]);
        LlStatic {
            topo: topo.map(|id| id.0).collect(),
            nodes,
            vfu_elems_per_cycle: cost::vfu_elems_per_cycle(hw),
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
        node.elems as f64 / (tables.vfu_elems_per_cycle * r_pred as f64)
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
        /// Per-core busy times.
        core_times: CoreTerms,
    },
    /// LL mode: the Fig. 6 chain estimate beside the issue load of every
    /// core. The chain depends only on the replication counts, so
    /// placement-only mutations reuse it; the issue floor is the largest
    /// load, and a child recomputes only the loads of the cores its
    /// mutation dirtied.
    Ll {
        /// The topological chain estimate.
        chain: f64,
        /// Per-core issue loads.
        loads: CoreTerms,
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

/// The per-core fitness terms of a chromosome (HT busy times, LL issue
/// loads), in blocks of [`CORE_BLOCK`] cores behind `Arc`s, each block
/// with the fold of its terms. A child's terms share its parent's
/// blocks: a block in which a term changes is copied with the new
/// terms, and only the blocks so copied are folded again.
/// The fitness then reads one fold per block (34 on vgg16's 2124 cores),
/// and a population member holds only the blocks its mutations moved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoreTerms {
    blocks: Vec<Arc<TermBlock>>,
    cores: usize,
    /// HT busy times, whose folds carry a sum and a count (else LL
    /// issue loads, whose folds carry the largest alone).
    ht: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct TermBlock {
    /// The terms of the block's cores; 0 past the grid's last core,
    /// which no fold, maximum or count of non-zero terms sees.
    terms: [u64; CORE_BLOCK],
    /// The fold of `terms`.
    fold: TermFold,
}

impl CoreTerms {
    /// The terms `term(core)` of `cores` cores (HT busy times when
    /// `ht`, else LL issue loads).
    fn from_fn(cores: usize, ht: bool, mut term: impl FnMut(usize) -> u64) -> Self {
        let blocks = (0..cores.div_ceil(CORE_BLOCK))
            .map(|block| {
                let mut terms = [0; CORE_BLOCK];
                let first = block * CORE_BLOCK;
                let real = (cores - first).min(CORE_BLOCK);
                for (core, t) in (first..first + real).zip(&mut terms) {
                    *t = term(core);
                }
                // The terms past the last core are 0, which no fold sees.
                let fold = TermFold::of(&terms[..real], ht);
                Arc::new(TermBlock { terms, fold })
            })
            .collect();
        CoreTerms { blocks, cores, ht }
    }

    /// Core `core`'s term.
    fn get(&self, core: usize) -> u64 {
        self.blocks[core / CORE_BLOCK].terms[core % CORE_BLOCK]
    }

    /// These terms with `patches` (`(core, term)` pairs in core order)
    /// in place of the terms of their cores: a table sharing every block
    /// in which no term changes, and holding a new block, folded again,
    /// for each block in which one does.
    fn patched(&self, patches: &[(usize, u64)]) -> CoreTerms {
        let mut rest = patches;
        let blocks = self.blocks.iter().enumerate().map(|(index, block)| {
            let first = index * CORE_BLOCK;
            let split = rest.partition_point(|&(core, _)| core < first + CORE_BLOCK);
            let (here, later) = rest.split_at(split);
            rest = later;
            if here
                .iter()
                .all(|&(core, term)| block.terms[core - first] == term)
            {
                return Arc::clone(block);
            }
            let mut terms = block.terms;
            for &(core, term) in here {
                terms[core - first] = term;
            }
            let real = (self.cores - first).min(CORE_BLOCK);
            let fold = TermFold::of(&terms[..real], self.ht);
            Arc::new(TermBlock { terms, fold })
        });
        CoreTerms {
            blocks: blocks.collect(),
            cores: self.cores,
            ht: self.ht,
        }
    }

    /// The fold of every term, from the blocks' folds.
    fn fold(&self) -> TermFold {
        let folds = self.blocks.iter().map(|block| block.fold);
        folds.fold(TermFold::default(), TermFold::merge)
    }

    /// The first core holding the largest term once `patches` (`(core,
    /// term)` pairs in core order) replace the terms of their cores,
    /// without copying a block: a block no patch lands in offers its
    /// fold's largest term (and, when that is a new largest, the first
    /// of its cores holding it); a block a patch lands in is scanned
    /// core by core.
    pub(crate) fn critical_core(&self, patches: &[(usize, u64)]) -> Option<usize> {
        let mut worst: Option<(u64, usize)> = None;
        let mut rest = patches;
        for (index, block) in self.blocks.iter().enumerate() {
            let first = index * CORE_BLOCK;
            let split = rest.partition_point(|&(core, _)| core < first + CORE_BLOCK);
            let (here, later) = rest.split_at(split);
            rest = later;
            if here.is_empty() {
                let w = block.fold.worst;
                if worst.is_none_or(|(best, _)| w > best) {
                    let at = block.terms.iter().position(|&t| t == w)?;
                    worst = Some((w, first + at));
                }
                continue;
            }
            let mut terms = block.terms;
            for &(core, term) in here {
                terms[core - first] = term;
            }
            for (at, &t) in terms.iter().enumerate() {
                if worst.is_none_or(|(best, _)| t > best) {
                    worst = Some((t, first + at));
                }
            }
        }
        worst.map(|(_, core)| core)
    }

    /// Whether every block's fold is the fold of its terms and no term
    /// past the last core is set — what the `debug_assert!`s check.
    fn folds_current(&self) -> bool {
        if self.blocks.len() != self.cores.div_ceil(CORE_BLOCK) {
            return false;
        }
        let past_last = self.blocks.len() * CORE_BLOCK - self.cores;
        let padding = self
            .blocks
            .last()
            .map_or(&[][..], |b| &b.terms[CORE_BLOCK - past_last..]);
        padding.iter().all(|&t| t == 0)
            && self
                .blocks
                .iter()
                .all(|b| b.fold == TermFold::of(&b.terms, self.ht))
    }
}

/// Reusable buffers for the evaluation engine, owned per GA worker for
/// a whole run (see `run_indexed_on`) or per [`FitnessMemo`].
/// Everything in here is overwritten before being read, so reuse across
/// evaluations is an allocation optimization only — results stay
/// bit-identical.
#[derive(Default)]
pub(crate) struct EvalScratch {
    /// `(ag_count, cycles)` buffer for [`ht_core_term`].
    items: Vec<(usize, usize)>,
    /// Every node's windows per replica under the plan being evaluated.
    windows: Vec<usize>,
    /// The cores to re-evaluate (incremental evaluation), and a
    /// membership mask for them (both reset between evaluations).
    dirty: Vec<usize>,
    dirty_mask: Vec<bool>,
    /// The recomputed terms of the `dirty` cores, in core order.
    patches: Vec<(usize, u64)>,
    /// Per-node chain states (LL).
    states: Vec<LlNodeState>,
}

/// The mode's per-core fitness term of one chromosome core given every
/// node's windows per replica: the HT busy time, or the LL issue load.
fn core_term(
    ctx: &GaContext<'_>,
    chromosome: &Chromosome,
    windows_per_replica: &[usize],
    core: usize,
    items: &mut Vec<(usize, usize)>,
) -> u64 {
    match ctx.mode {
        PipelineMode::HighThroughput => {
            ht_core_term(ctx.hw, chromosome, windows_per_replica, core, items)
        }
        PipelineMode::LowLatency => ll_core_load(chromosome, windows_per_replica, core),
    }
}

/// The per-core fitness terms of the evaluation `basis` of the
/// chromosome `chromosome` was mutated from, with the terms that moved
/// recomputed into `scratch.patches` (`(core, term)` pairs in core
/// order). `touched` lists every core whose slots differ from that
/// parent (duplicates and unchanged cores are harmless). Only those
/// cores are recomputed, plus every core hosting a node whose replica
/// count differs from the basis: its windows-per-replica shifted on
/// *all* of its cores, not only where AGs moved. (A core that hosted
/// such a node in the parent only has lost the gene, so it is in
/// `touched`.) Leaves the plan's windows per replica in
/// `scratch.windows`.
///
/// `None` when `basis` is not a basis of the context's mode over the
/// same core count.
fn patches_from<'b>(
    ctx: &GaContext<'_>,
    chromosome: &Chromosome,
    plan: &ReplicationPlan,
    (basis, touched): (&'b EvalBasis, &[usize]),
    scratch: &mut EvalScratch,
) -> Option<&'b CoreTerms> {
    let parent = match (&basis.detail, ctx.mode) {
        (EvalDetail::Ht { core_times }, PipelineMode::HighThroughput) => core_times,
        (EvalDetail::Ll { loads, .. }, PipelineMode::LowLatency) => loads,
        _ => return None,
    };
    if parent.cores != chromosome.cores() {
        return None;
    }
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
    scratch.dirty.sort_unstable();
    scratch.patches.clear();
    for &core in &scratch.dirty {
        let term = core_term(ctx, chromosome, &scratch.windows, core, &mut scratch.items);
        scratch.patches.push((core, term));
    }
    Some(parent)
}

/// A node with AGs on the bottleneck core (largest estimated HT time)
/// of a draft under mutation, preferring the gene with the largest
/// cycle count there. The core times are those of `parent` (the
/// evaluation basis of the individual the draft was copied from, with
/// the cores written since), recomputed only where they moved — see
/// [`patches_from`] — and the bottleneck is found from the block folds
/// without copying a block. `None` outside HT mode or on an empty core.
pub(crate) fn ht_critical_node(
    ctx: &GaContext<'_>,
    chromosome: &Chromosome,
    plan: &ReplicationPlan,
    parent: (&EvalBasis, &[usize]),
    scratch: &mut EvalScratch,
) -> Option<MvmIdx> {
    if ctx.mode != PipelineMode::HighThroughput {
        return None;
    }
    let terms = patches_from(ctx, chromosome, plan, parent, scratch)?;
    let core = terms.critical_core(&scratch.patches)?;
    chromosome
        .genes_of_core(core)
        .max_by_key(|(_, g)| scratch.windows[g.mvm])
        .map(|(_, g)| g.mvm)
}

/// Evaluates a chromosome's fitness under its replication `plan`,
/// incrementally when the evaluation basis of the chromosome it was
/// mutated from is supplied together with the cores the mutation
/// touched (see [`patches_from`]). `ll` is the context's
/// [`LlStatic`] tables (`Some` whenever `ctx.mode` is LL — see
/// [`FitnessMemo::ll_tables`]); `scratch` provides the reusable
/// buffers and never influences the result.
///
/// The returned `f64` is bit-identical to the from-scratch estimators
/// ([`ht_fitness`] / [`ll_fitness_with_issue_floor`]) regardless of the
/// path taken: both modes recombine exact per-core integers, and the LL
/// chain is a pure function of the replication counts that are checked
/// for equality before reuse.
pub(crate) fn compute_fitness(
    ctx: &GaContext<'_>,
    ll: Option<&LlStatic>,
    chromosome: &Chromosome,
    plan: ReplicationPlan,
    parent: Option<(&EvalBasis, &[usize])>,
    scratch: &mut EvalScratch,
) -> (f64, EvalBasis, EvalKind) {
    // The child's per-core terms: the parent's blocks, those its
    // mutation moved copied.
    let patched = parent
        .and_then(|parent| patches_from(ctx, chromosome, &plan, parent, scratch))
        .map(|terms| terms.patched(&scratch.patches));
    let incremental = patched.is_some();
    let ht = ctx.mode == PipelineMode::HighThroughput;
    let terms = patched.unwrap_or_else(|| {
        fill_windows_per_replica(ctx.partitioning, &plan, &mut scratch.windows);
        CoreTerms::from_fn(chromosome.cores(), ht, |core| {
            core_term(ctx, chromosome, &scratch.windows, core, &mut scratch.items)
        })
    });
    debug_assert!(
        terms.folds_current(),
        "every block of per-core terms holds the fold of its terms"
    );
    debug_assert_eq!(
        terms.fold(),
        TermFold::of(
            &(0..terms.cores)
                .map(|core| terms.get(core))
                .collect::<Vec<_>>(),
            ht
        ),
        "the blocks' folds fold to the fold of every term"
    );
    match ctx.mode {
        PipelineMode::HighThroughput => {
            let fitness = ht_combine(terms.fold());
            let detail = EvalDetail::Ht { core_times: terms };
            let kind = if incremental {
                EvalKind::Incremental
            } else {
                EvalKind::Full
            };
            (fitness, EvalBasis { plan, detail }, kind)
        }
        PipelineMode::LowLatency => {
            let reused = parent.and_then(|(basis, _)| match &basis.detail {
                EvalDetail::Ll { chain, .. } if basis.plan == plan => Some(*chain),
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
            let floor = cost::issue_floor(ctx.hw, terms.fold().worst);
            debug_assert_eq!(
                floor.to_bits(),
                ll_issue_floor(ctx.hw, ctx.partitioning, chromosome, &plan).to_bits(),
                "the issue floor of the kept loads is the floor from scratch"
            );
            let detail = EvalDetail::Ll {
                chain,
                loads: terms,
            };
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
        parent
            .differing_slots(child)
            .map(|slot| child.core_of_slot(slot)),
    );
}

/// Entries the memo keeps per unique chromosome.
#[derive(Debug, Clone)]
pub(crate) struct MemoEntry {
    /// The memoized fitness.
    pub fitness: f64,
    /// The evaluation basis while some holder of it (a population
    /// member) is alive, so descendants can re-evaluate incrementally
    /// without recomputing it; once it is gone, whoever needs it
    /// rebuilds it from the chromosome.
    pub basis: Weak<EvalBasis>,
}

/// Cap on memoized chromosomes (an entry is a fitness plus a weak
/// pointer); beyond it, new results are still returned but no longer
/// recorded (deterministic: the insertion order is the GA's
/// deterministic evaluation order).
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
    /// The memo holds no basis itself, so a parent whose basis is gone
    /// has it rebuilt from `parent` first; that rebuild is not counted.
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
        let parent = match parent.filter(|p| same_grid(p, chromosome)) {
            Some(p) => self.basis_of(p)?.map(|basis| (p, basis)),
            None => None,
        };
        let parent = parent.as_ref().map(|(p, basis)| {
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
        self.record(fingerprint, fitness, &Arc::new(basis));
        Ok(fitness)
    }

    /// The evaluation basis of a memoized chromosome: the live one, else
    /// rebuilt from `chromosome` from scratch — not counted, the memo
    /// already holds its fitness. `None` for a chromosome never seen.
    fn basis_of(
        &mut self,
        chromosome: &Chromosome,
    ) -> Result<Option<Arc<EvalBasis>>, CompileError> {
        let Some(entry) = self.lookup(chromosome.fingerprint()) else {
            return Ok(None);
        };
        if let Some(basis) = entry.basis.upgrade() {
            return Ok(Some(basis));
        }
        let memoized = entry.fitness;
        let plan = chromosome.replication(self.ctx.partitioning)?;
        let (fitness, basis, _) = compute_fitness(
            self.ctx,
            self.ll.as_ref(),
            chromosome,
            plan,
            None,
            &mut self.scratch,
        );
        debug_assert_eq!(
            fitness.to_bits(),
            memoized.to_bits(),
            "a rebuilt basis reproduces the memoized fitness"
        );
        Ok(Some(Arc::new(basis)))
    }

    /// Cached entry for a fingerprint, if present.
    pub(crate) fn lookup(&self, fingerprint: u128) -> Option<&MemoEntry> {
        self.entries.get(&fingerprint)
    }

    /// Records an evaluation result with a weak pointer to its basis
    /// (no-op once the cap is reached, and first-write-wins for
    /// duplicate fingerprints — both deterministic because callers
    /// insert in evaluation order).
    pub(crate) fn record(&mut self, fingerprint: u128, fitness: f64, basis: &Arc<EvalBasis>) {
        if self.entries.len() < MEMO_CAPACITY {
            self.entries.entry(fingerprint).or_insert(MemoEntry {
                fitness,
                basis: Arc::downgrade(basis),
            });
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
impl CoreTerms {
    /// Every core's term, in core order.
    pub(crate) fn flat(&self) -> Vec<u64> {
        (0..self.cores).map(|core| self.get(core)).collect()
    }

    /// Each block's fold, as the block keeps it.
    pub(crate) fn block_folds(&self) -> Vec<TermFold> {
        self.blocks.iter().map(|block| block.fold).collect()
    }

    /// Whether `self` and `other` hold block `block` in one shared
    /// allocation.
    pub(crate) fn shares_block(&self, other: &Self, block: usize) -> bool {
        Arc::ptr_eq(&self.blocks[block], &other.blocks[block])
    }
}

#[cfg(test)]
impl EvalBasis {
    /// The per-core terms of the evaluation.
    pub(crate) fn terms(&self) -> &CoreTerms {
        match &self.detail {
            EvalDetail::Ht { core_times } => core_times,
            EvalDetail::Ll { loads, .. } => loads,
        }
    }
}

/// The mode's per-core terms of `chromosome` under `plan`, computed core
/// by core into one flat vector: the oracle of the block storage.
#[cfg(test)]
pub(crate) fn flat_core_terms(
    ctx: &GaContext<'_>,
    chromosome: &Chromosome,
    plan: &ReplicationPlan,
) -> Vec<u64> {
    let (mut windows, mut items) = (Vec::new(), Vec::new());
    fill_windows_per_replica(ctx.partitioning, plan, &mut windows);
    (0..chromosome.cores())
        .map(|core| core_term(ctx, chromosome, &windows, core, &mut items))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::ht_core_time;
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

    /// `tiny_cnn` on the small test target: one replica of every node
    /// placed first-fit (the parent), and the same chromosome with its
    /// first gene moved whole to another core (the child: same
    /// replication, so LL reuses the parent's chain too).
    fn parent_and_child() -> (Graph, HardwareConfig, Chromosome, Chromosome) {
        let graph = pimcomp_ir::transform::normalize(&pimcomp_ir::models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let p = Partitioning::new(&graph, &hw).unwrap();
        let capacity = hw.crossbar_capacity_per_core();
        let mut parent = Chromosome::empty(hw.total_cores(), 4);
        let mut used = vec![0; hw.total_cores()];
        for idx in 0..p.len() {
            let entry = p.entry(idx);
            for _ in 0..entry.ags_per_replica {
                let core = (0..used.len())
                    .find(|&c| used[c] + entry.crossbars_per_ag <= capacity)
                    .unwrap();
                used[core] += entry.crossbars_per_ag;
                let slot = parent
                    .slot_of_node_on_core(core, idx)
                    .or_else(|| parent.free_slot_of_core(core))
                    .unwrap();
                let ag_count = parent.gene(slot).map_or(0, |g| g.ag_count) + 1;
                parent.set_gene(slot, Some(crate::Gene { mvm: idx, ag_count }));
            }
        }
        let (slot, gene) = parent.genes().next().unwrap();
        let need = gene.ag_count * p.entry(gene.mvm).crossbars_per_ag;
        let to = (0..used.len())
            .find(|&c| c != parent.core_of_slot(slot) && used[c] + need <= capacity)
            .unwrap();
        let mut child = parent.clone();
        child.set_gene(slot, None);
        child.set_gene(child.free_slot_of_core(to).unwrap(), Some(gene));
        (graph, hw, parent, child)
    }

    #[test]
    fn a_basis_patched_from_the_parent_equals_one_from_scratch() {
        // A placement-only move: only the cores it touched differ, and
        // every per-core term (not just the largest) must be current.
        let (graph, hw, parent, child) = parent_and_child();
        let p = Partitioning::new(&graph, &hw).unwrap();
        let dep = DepInfo::analyze(&graph);
        let mut touched = Vec::new();
        collect_dirty_cores(&parent, &child, &mut touched);
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let ctx = GaContext {
                hw: &hw,
                graph: &graph,
                partitioning: &p,
                dep: &dep,
                mode,
                core_limit: None,
            };
            let tables = LlStatic::build(&hw, &graph, &p, &dep);
            let mut scratch = EvalScratch::default();
            let mut evaluate = |c: &Chromosome, parent| {
                let plan = c.replication(&p).unwrap();
                compute_fitness(&ctx, Some(&tables), c, plan, parent, &mut scratch)
            };
            let (_, basis, _) = evaluate(&parent, None);
            let patched = evaluate(&child, Some((&basis, &touched)));
            let fresh = evaluate(&child, None);
            assert_eq!(patched.1, fresh.1, "{mode}");
            assert_eq!(patched.0.to_bits(), fresh.0.to_bits(), "{mode}");
            assert_eq!(
                (patched.2, fresh.2),
                (EvalKind::Incremental, EvalKind::Full)
            );
        }
    }

    #[test]
    fn a_dropped_basis_leaves_its_fitness_in_the_memo() {
        let (graph, hw, parent, _) = parent_and_child();
        let p = Partitioning::new(&graph, &hw).unwrap();
        let dep = DepInfo::analyze(&graph);
        let ctx = GaContext {
            hw: &hw,
            graph: &graph,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        let mut memo = FitnessMemo::new(&ctx);
        let plan = parent.replication(&p).unwrap();
        let mut scratch = EvalScratch::default();
        let (fitness, basis, _) = compute_fitness(&ctx, None, &parent, plan, None, &mut scratch);
        let basis = Arc::new(basis);
        let fingerprint = parent.fingerprint();
        memo.record(fingerprint, fitness, &basis);
        assert!(memo.lookup(fingerprint).unwrap().basis.upgrade().is_some());
        drop(basis);
        let entry = memo.lookup(fingerprint).unwrap();
        assert_eq!(entry.fitness.to_bits(), fitness.to_bits());
        assert!(entry.basis.upgrade().is_none());
    }

    #[test]
    fn a_parent_without_its_basis_still_evaluates_a_child_incrementally() {
        let (graph, hw, parent, child) = parent_and_child();
        let p = Partitioning::new(&graph, &hw).unwrap();
        let dep = DepInfo::analyze(&graph);
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let ctx = GaContext {
                hw: &hw,
                graph: &graph,
                partitioning: &p,
                dep: &dep,
                mode,
                core_limit: None,
            };
            let mut memo = FitnessMemo::new(&ctx);
            // `evaluate` keeps no holder of the basis it records.
            memo.evaluate(&parent).unwrap();
            let entry = memo.lookup(parent.fingerprint()).unwrap();
            assert!(entry.basis.upgrade().is_none(), "{mode}");
            let fitness = memo.evaluate_mutated(&parent, &child).unwrap();
            assert_eq!(
                fitness.to_bits(),
                ctx.fitness(&child).unwrap().to_bits(),
                "{mode}"
            );
            // The parent's rebuild is not an evaluation.
            let counts = (
                memo.full_evals(),
                memo.incremental_evals(),
                memo.cache_hits(),
            );
            assert_eq!(counts, (1, 1, 0), "{mode}");
        }
    }
}
