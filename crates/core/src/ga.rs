//! The modified genetic algorithm jointly optimizing weight replication
//! and core mapping (paper Section IV-C).
//!
//! Individuals are [`Chromosome`]s (gene grids of
//! `core_num × max_node_num_in_core` slots). As in the paper, the
//! crossover phase is skipped — recombining two mappings almost never
//! yields a feasible mapping — and evolution proceeds through four
//! mutation operators:
//!
//! 1. **Grow**: increase a node's replication, placing the new replica's
//!    AGs on random cores with free capacity.
//! 2. **Shrink**: decrease a node's replication, returning its crossbars.
//! 3. **Spread**: move part of one gene's AGs to another core.
//! 4. **Merge**: fold one gene into a gene of the same node on another
//!    core.
//!
//! All operators preserve feasibility (crossbar capacity and per-core
//! node limits), so no penalty terms are needed.
//!
//! # The search engine
//!
//! The search is nearly all of a compilation's time (92% of the
//! ledger's traced paper-scale pass), and inside it no part dominates:
//! on the widest paper target (vgg16 in HT mode: 2124 cores x 4 slots,
//! population 100 x 200 generations, about 0.25 s on one thread; timers
//! in a scratch copy) the four mutation operators take half (shrink
//! alone a quarter: half of its moves halve the most replicated node,
//! rewriting hundreds of genes; merge an eighth), and copying a parent's
//! draft on an offspring's first write is a fifth of that half;
//! incremental fitness evaluation takes three tenths, building and
//! evaluating the initial population a tenth, and selection, the memo
//! and the reduction the rest. Most of that is proportional to what a
//! move changes, not to the gene grid, and every part is built to keep
//! it so: the grid is two 16-bit columns, so the copy an offspring
//! makes when an operator first writes to it (over half never do) moves
//! 4 bytes a slot; placement plans all AGs of a call in one pass over
//! the cores (`place_ags_from`), and a failed call reports the room it
//! found, so a halving retry loop scans once more at most
//! (`place_halving`); a `Draft` carries the per-core occupancy, the
//! least occupancy of each block of 64 cores, per-node AG totals and
//! the list of cores its operators wrote, so nothing re-derives them
//! from the grid; the placement and spread scans step over every block
//! in which no core has room for the request, and a placement whose
//! fresh slots already cover what is left finds its remaining top-ups
//! among the node's genes instead of core by core (on vgg16 the two
//! scans visited 35 M cores in a search, and now visit 0.7 M); one
//! node's genes are found through the chromosome's per-node index of
//! the 64-slot blocks holding them (26 k lookups in a vgg16 search read
//! 0.29 M of 3.5 M blocks); evaluation recomputes the cores on the
//! draft's list and those hosting a node whose replica count changed —
//! in the one copy of the parent's per-core terms (HT busy times, LL
//! issue loads) that becomes the child's basis — instead of diffing two
//! grids or walking every gene; and what does not depend on the
//! individual (the LL chain tables, each worker's scratch buffers) is
//! built once per run, not once per generation. What is still
//! grid-sized is the draft copy and, per evaluation, the copy of the
//! parent's per-core terms and their fold into the fitness (HT's
//! `ht_combine`, the LL floor's maximum): flat passes over contiguous
//! words. On top of that the engine
//! evaluates in parallel, incrementally and memoized, while staying
//! **deterministic to the bit** for a given [`GaParams::seed`]:
//!
//! * **Seed-stream splitting** — every initial individual and every
//!   offspring slot of every generation owns a private [`StdRng`]
//!   seeded by SplitMix64-mixing the master seed with the (generation,
//!   slot) pair. No RNG is ever shared, so the random choices a slot
//!   makes cannot depend on scheduling.
//! * **Batched offspring** — each generation derives its full offspring
//!   batch (selection + mutation) up front against the immutable parent
//!   population, then evaluates the batch across a scoped worker pool
//!   ([`GaParams::parallelism`]) with an index-ordered reduction.
//!   Serial and parallel runs share one code path, so any thread count
//!   (including 1) produces bit-identical populations and
//!   [`GaStats`].
//! * **Memoization + incrementality** — results are cached by
//!   [chromosome fingerprint](Chromosome::fingerprint)
//!   ([`FitnessMemo`](crate::FitnessMemo)), and offspring that differ
//!   from their parent in a few genes are re-evaluated incrementally
//!   (per-core recomputation in both modes, chain-estimate reuse in LL
//!   mode) — exactly, not approximately. The memo keeps every fitness
//!   but only a weak pointer to each evaluation basis, so the bases
//!   alive at any time are the population's: memory is about population
//!   × (grid + per-core terms), not evaluations × cores. A hit whose
//!   basis is gone rebuilds it from its parent's, as a miss would.

use crate::fitness::{
    compute_fitness, ht_critical_node, ht_fitness, ll_fitness_with_issue_floor, EvalBasis,
    EvalKind, EvalScratch, FitnessMemo,
};
use crate::mapping::{check_gene_limits, replication_of_totals, Chromosome, Gene};
use crate::parallel::run_indexed_on;
use crate::partition::{MvmIdx, Partitioning};
use crate::replication::ReplicationPlan;
use crate::waiting::DepInfo;
use crate::CompileError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_ir::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Arc;

/// Genetic-algorithm hyper-parameters.
///
/// Defaults follow the paper's evaluation: population 100, 200
/// iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Population size (paper: 100).
    pub population: usize,
    /// Generation count (paper: 200).
    pub iterations: usize,
    /// RNG seed for reproducible compilations.
    pub seed: u64,
    /// Fraction of the population carried over unchanged each
    /// generation.
    pub elite_fraction: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Maximum mutation operators applied to one child. At least 1:
    /// [`CompileOptions::validate`](crate::CompileOptions::validate)
    /// rejects 0, and a direct [`optimize`] call treats it as 1.
    pub max_mutations_per_child: usize,
    /// Per-core distinct-node limit (`max_node_num_in_core`); `None`
    /// selects a heuristic based on node and core counts. A pin past the
    /// partitioned node count acts as the node count (a core holds at
    /// most one gene per node).
    pub max_nodes_per_core: Option<usize>,
    /// Worker threads for offspring construction and fitness
    /// evaluation. `None` (the default) runs serially on the calling
    /// thread.
    ///
    /// **Determinism contract (seed-stream splitting).** The result is
    /// bit-identical for every setting: each initial individual and
    /// each offspring slot of each generation draws from its own
    /// [`StdRng`] stream whose seed is derived from [`GaParams::seed`]
    /// and the (generation, slot) pair by a SplitMix64-style mix —
    /// never from a shared generator — fitness evaluation is a pure
    /// function of the chromosome, and batch results are reduced in
    /// slot order. Parallelism therefore changes wall-clock time only,
    /// never the compiled mapping or the [`GaStats`] trace.
    ///
    /// When this field is `None`, the `PIMCOMP_GA_THREADS` environment
    /// variable (a positive integer) supplies the default instead — CI
    /// uses it to run the whole test suite through both the serial and
    /// the parallel path. An explicit `Some(n)` always wins, so tests
    /// and benchmarks that compare thread counts stay meaningful under
    /// the override.
    pub parallelism: Option<NonZeroUsize>,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 100,
            iterations: 200,
            seed: 0xC0FFEE,
            elite_fraction: 0.2,
            tournament: 3,
            max_mutations_per_child: 3,
            max_nodes_per_core: None,
            parallelism: None,
        }
    }
}

impl GaParams {
    /// A down-scaled configuration for tests and examples (population
    /// 16, 24 iterations, given seed).
    pub fn fast(seed: u64) -> Self {
        GaParams {
            population: 16,
            iterations: 24,
            seed,
            ..Self::default()
        }
    }
}

/// The worker-thread count a run will actually use:
/// [`GaParams::parallelism`] when explicitly set, else the
/// `PIMCOMP_GA_THREADS` environment default (a positive integer),
/// else 1.
pub(crate) fn effective_parallelism(params: &GaParams) -> usize {
    if let Some(n) = params.parallelism {
        return n.get();
    }
    if let Ok(raw) = std::env::var("PIMCOMP_GA_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    1
}

/// Derives the seed of one private RNG stream from the master seed
/// (SplitMix64-style avalanche over the `(stage, index)` pair; stage 0
/// is population initialization, stage `g + 1` is generation `g`).
fn stream_seed(master: u64, stage: u64, index: u64) -> u64 {
    let mut z = master
        ^ stage.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits a deterministic child seed from `master` for the stream
/// addressed by `(stage, index)` — the same SplitMix64-style avalanche
/// the GA uses internally for its per-offspring RNG streams (see
/// [`GaParams::parallelism`]).
///
/// Exposed for drivers that fan deterministic work out over many
/// compilations (the design-space exploration engine derives each sweep
/// point's GA seed this way), so results stay bit-identical for any
/// thread count or evaluation order.
pub fn split_stream_seed(master: u64, stage: u64, index: u64) -> u64 {
    stream_seed(master, stage, index)
}

/// Optimization trace returned alongside the best chromosome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaStats {
    /// Best fitness of the initial random population.
    pub initial_fitness: f64,
    /// Best fitness after the final generation.
    pub final_fitness: f64,
    /// Best fitness at each generation.
    pub history: Vec<f64>,
    /// Total fitness evaluations computed (full + incremental;
    /// memo-cache hits are *not* evaluations).
    pub evaluations: usize,
    /// Evaluations computed from scratch (initial population, and
    /// offspring whose parent basis could not be reused).
    pub full_evals: usize,
    /// Evaluations computed incrementally from the parent's basis
    /// (dirty-core recomputation in HT mode, chain reuse in LL mode).
    pub incremental_evals: usize,
    /// Offspring whose fitness the memo cache answered. A hit whose
    /// evaluation basis no population member holds any more rebuilds
    /// the basis (for its own offspring to build on); that is not an
    /// evaluation, and the fitness is the memo's.
    pub cache_hits: usize,
    /// Fitness evaluations computed in each generation (the initial
    /// population is excluded; it accounts for
    /// `evaluations - evals_per_generation.sum()`).
    pub evals_per_generation: Vec<usize>,
    /// Grow mutations that placed at least one additional replica.
    pub grow_successes: usize,
    /// Grow mutations that found headroom but could not place anything
    /// (capacity or per-core slot exhaustion). A high ratio of failures
    /// to successes means the population is wedged against the crossbar
    /// budget — the diagnostic `GA_DEBUG` stderr prints used to carry.
    pub grow_failures: usize,
}

/// One generation's progress snapshot, delivered to
/// [`CompileObserver::on_ga_generation`](crate::CompileObserver::on_ga_generation)
/// while the GA runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaGeneration {
    /// Generation index (0-based).
    pub generation: usize,
    /// Total generations this run will execute.
    pub total_generations: usize,
    /// Best fitness in the population after this generation.
    pub best_fitness: f64,
    /// Cumulative fitness evaluations so far.
    pub evaluations: usize,
    /// Cumulative fitness-memo cache hits so far.
    pub cache_hits: usize,
    /// Cumulative grow mutations that succeeded so far (see
    /// [`GaStats::grow_successes`]).
    pub grow_successes: usize,
    /// Cumulative grow mutations that failed so far (see
    /// [`GaStats::grow_failures`]).
    pub grow_failures: usize,
}

/// Everything the fitness functions need, bundled for reuse.
pub struct GaContext<'a> {
    /// Hardware target.
    pub hw: &'a HardwareConfig,
    /// The (normalized) graph.
    pub graph: &'a Graph,
    /// Node partitioning.
    pub partitioning: &'a Partitioning,
    /// Dependency/waiting analysis.
    pub dep: &'a DepInfo,
    /// Which fitness to optimize.
    pub mode: PipelineMode,
    /// Restricts the search to cores `0..limit` (`None` = every core).
    /// Used by `weight_reload` compilations whose crossbar budget is
    /// smaller than the chip, so the GA packs into the budgeted prefix
    /// of cores; downstream stages size arrays by the full core count,
    /// so a limited chromosome simply leaves the tail cores empty.
    pub core_limit: Option<usize>,
}

impl GaContext<'_> {
    /// Cores available to the search: the hardware's core count, or the
    /// `core_limit` prefix when one is set (never more than the chip
    /// has).
    pub(crate) fn cores(&self) -> usize {
        let total = self.hw.total_cores();
        self.core_limit.map_or(total, |l| l.min(total)).max(1)
    }

    /// Evaluates the mode's fitness for a chromosome from scratch
    /// (lower is better). This is the reference implementation the
    /// memoized/incremental engine ([`FitnessMemo`](crate::FitnessMemo))
    /// must match bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates invariant violations from replication derivation.
    pub fn fitness(&self, chromosome: &Chromosome) -> Result<f64, CompileError> {
        let plan = chromosome.replication(self.partitioning)?;
        Ok(match self.mode {
            PipelineMode::HighThroughput => {
                ht_fitness(self.hw, self.partitioning, chromosome, &plan)
            }
            PipelineMode::LowLatency => ll_fitness_with_issue_floor(
                self.hw,
                self.graph,
                self.partitioning,
                self.dep,
                chromosome,
                &plan,
            ),
        })
    }
}

/// Cores a [`Draft`] summarizes together: a scan for a core with room
/// steps over a whole block of them when its least-occupied core has
/// none.
const CORE_BLOCK: usize = 64;

/// The mutable state the mutation operators work on: a chromosome plus
/// the summaries of it they would otherwise re-derive from the gene
/// grid on every move. [`Draft::set_ag_count`] is the only writer of
/// the chromosome, and keeps all of them current.
#[derive(Debug, Clone)]
struct Draft {
    chromosome: Chromosome,
    /// Crossbars occupied on each core (at most a core's capacity,
    /// which [`check_gene_limits`] holds to 32 bits).
    used_crossbars: Vec<u32>,
    /// For each [`CORE_BLOCK`] of cores, the crossbars occupied on its
    /// least-occupied core.
    block_floor: Vec<u32>,
    /// AG instances of each node over all cores.
    ag_totals: Vec<usize>,
    /// Cores written since the draft was cloned from its parent (with
    /// repeats), so evaluation recomputes those cores instead of
    /// diffing two grids. Empty in every population member.
    touched: Vec<usize>,
}

impl Draft {
    fn empty(cores: usize, max_nodes: usize, nodes: usize) -> Self {
        Draft {
            chromosome: Chromosome::empty(cores, max_nodes),
            used_crossbars: vec![0; cores],
            block_floor: vec![0; cores.div_ceil(CORE_BLOCK)],
            ag_totals: vec![0; nodes],
            touched: Vec::new(),
        }
    }

    /// Makes `slot` hold `ag_count` AGs of `node` (`xb` crossbars each;
    /// 0 empties the slot). The slot must be free or already hold
    /// `node`.
    fn set_ag_count(&mut self, slot: usize, node: MvmIdx, xb: usize, ag_count: usize) {
        let gene = (ag_count > 0).then_some(Gene {
            mvm: node,
            ag_count,
        });
        let prev = self.chromosome.set_gene(slot, gene);
        debug_assert!(prev.is_none_or(|g| g.mvm == node));
        let before = prev.map_or(0, |g| g.ag_count);
        let core = self.chromosome.core_of_slot(slot);
        let was = self.used_crossbars[core];
        let used = u32::try_from(self.used(core) + ag_count * xb - before * xb)
            .expect("a core holds at most its capacity");
        self.used_crossbars[core] = used;
        // Only a fall below the floor, or a rise of the core that held
        // it, moves a block's floor.
        let block = core / CORE_BLOCK;
        if used < self.block_floor[block] {
            self.block_floor[block] = used;
        } else if used > was && was == self.block_floor[block] {
            self.block_floor[block] = self.recomputed_floor(block);
        }
        debug_assert_eq!(
            self.block_floor[block],
            self.recomputed_floor(block),
            "the block floor of core {core} is current"
        );
        self.ag_totals[node] = self.ag_totals[node] + ag_count - before;
        self.touched.push(core);
    }

    /// Crossbars occupied on `core`.
    fn used(&self, core: usize) -> usize {
        self.used_crossbars[core] as usize
    }

    /// The crossbars occupied on the least-occupied core of `block`,
    /// from the per-core counts.
    fn recomputed_floor(&self, block: usize) -> u32 {
        let end = ((block + 1) * CORE_BLOCK).min(self.used_crossbars.len());
        let cores = &self.used_crossbars[block * CORE_BLOCK..end];
        cores.iter().copied().min().expect("a block holds a core")
    }

    /// The cores of `cores`, in order, except those of blocks in which
    /// no core has `needed` crossbars free — a scan that `continue`s on
    /// every core without that room sees the same cores it acts on.
    fn cores_with_room(
        &self,
        cores: Range<usize>,
        needed: usize,
        capacity: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let Range { start, end } = cores;
        (start / CORE_BLOCK..end.div_ceil(CORE_BLOCK))
            .filter(move |&block| self.block_floor[block] as usize + needed <= capacity)
            .flat_map(move |block| {
                (block * CORE_BLOCK).max(start)..((block + 1) * CORE_BLOCK).min(end)
            })
    }

    /// Adds `n` AGs of `node` to `slot` (free, or already holding it).
    fn add_ags(&mut self, slot: usize, node: MvmIdx, xb: usize, n: usize) {
        let cur = self.chromosome.gene(slot).map_or(0, |g| g.ag_count);
        self.set_ag_count(slot, node, xb, cur + n);
    }

    /// The replication plan the AG totals imply.
    fn replication(&self, partitioning: &Partitioning) -> Result<ReplicationPlan, CompileError> {
        replication_of_totals(partitioning, &self.ag_totals)
    }
}

/// A population member: a draft plus its evaluation result. An
/// offspring no operator managed to change shares its parent's draft.
#[derive(Debug)]
struct Individual {
    draft: Arc<Draft>,
    fitness: f64,
    fingerprint: u128,
    basis: Arc<EvalBasis>,
}

/// How an offspring obtained its fitness (tallied into [`GaStats`]).
enum OffspringSource {
    /// No mutation applied; the parent's result carries over.
    Unchanged,
    /// Answered by the fitness memo.
    CacheHit,
    /// Computed (fully or incrementally).
    Evaluated(EvalKind),
}

/// Per-offspring mutation-operator diagnostics, carried back from the
/// worker and reduced in slot order so the tallies are deterministic
/// for any thread count. This replaces the old `GA_DEBUG` stderr
/// prints, which read `std::env::var` inside the hot mutation loop and
/// wrote diagnostics from a library crate; the tallies now flow through
/// [`GaStats`] and the [`GaGeneration`] observer snapshot instead.
#[derive(Debug, Clone, Copy, Default)]
struct MutationTally {
    grow_ok: usize,
    grow_failed: usize,
}

/// One derived-and-evaluated offspring, produced by a worker.
struct Offspring {
    draft: Arc<Draft>,
    fitness: f64,
    fingerprint: u128,
    basis: Arc<EvalBasis>,
    source: OffspringSource,
    tally: MutationTally,
}

/// Reusable per-worker buffers for offspring derivation. Purely an
/// allocation cache (cleared before every use), so reuse across
/// offspring slots never changes results.
#[derive(Default)]
struct MutScratch {
    /// Placement plan: `(slot, AGs to add)` on cores already hosting
    /// the node.
    top_ups: Vec<(usize, usize)>,
    /// Placement plan: `(free slot, AG room)` on cores not hosting it.
    fresh: Vec<(usize, usize)>,
    /// One node's gene slots: the walk order of shrink and merge, and
    /// the hosting cores a placement tops up last.
    slots: Vec<usize>,
}

/// Everything one evaluation worker reuses across its offspring slots.
#[derive(Default)]
struct WorkerScratch {
    eval: EvalScratch,
    mutation: MutScratch,
}

/// Heuristic `max_node_num_in_core` when the user does not pin one.
pub(crate) fn default_max_nodes_per_core(nodes: usize, cores: usize) -> usize {
    ((2 * nodes).div_ceil(cores) + 2).clamp(4, nodes.max(4))
}

/// Runs the GA and returns the best chromosome with its trace.
///
/// # Errors
///
/// [`CompileError::InsufficientCapacity`] when even one replica of every
/// node cannot be placed; [`CompileError::InvalidOptions`] when
/// [`GaParams::max_nodes_per_core`] is pinned to 0 or to a grid whose
/// slot count overflows; [`CompileError::InvalidGraph`] /
/// [`CompileError::InvalidHardware`] when a gene could outgrow a
/// [`Chromosome`] slot (see [`Chromosome::set_gene`]).
pub fn optimize(
    ctx: &GaContext<'_>,
    params: &GaParams,
) -> Result<(Chromosome, GaStats), CompileError> {
    optimize_observed(ctx, params, &mut |_| {})
}

/// Runs the GA like [`optimize`], invoking `on_generation` after every
/// generation with a [`GaGeneration`] progress snapshot.
///
/// # Errors
///
/// As [`optimize`].
pub(crate) fn optimize_observed(
    ctx: &GaContext<'_>,
    params: &GaParams,
    on_generation: &mut dyn FnMut(GaGeneration),
) -> Result<(Chromosome, GaStats), CompileError> {
    let cores = ctx.cores();
    let capacity = ctx.hw.crossbar_capacity_per_core();
    let max_nodes = params
        .max_nodes_per_core
        .unwrap_or_else(|| default_max_nodes_per_core(ctx.partitioning.len(), cores));
    if max_nodes == 0 {
        return Err(CompileError::InvalidOptions {
            detail: "`max_nodes_per_core` cannot be pinned to 0".into(),
        });
    }
    if cores.checked_mul(max_nodes).is_none() {
        return Err(CompileError::InvalidOptions {
            detail: format!(
                "a gene grid of {cores} cores x {max_nodes} `max_nodes_per_core` slots \
                 is too large to index"
            ),
        });
    }
    // A core holds at most one gene per node, so a pin past the node
    // count would only add slots no gene can use. (The heuristic's floor
    // of 4 stays: it fixes the grid, and so the search, of a small graph.)
    let max_nodes = match params.max_nodes_per_core {
        Some(_) => max_nodes.min(ctx.partitioning.len().max(1)),
        None => max_nodes,
    };
    check_gene_limits(ctx.partitioning, capacity)?;

    let required = ctx.partitioning.min_crossbars();
    let available = cores * capacity;
    if required > available {
        return Err(CompileError::InsufficientCapacity {
            required,
            available,
        });
    }

    // Built once per run and lent to the workers of every batch: the
    // memo with the mode's static tables, and one scratch per worker.
    let mut memo = FitnessMemo::new(ctx);
    let mut workers: Vec<WorkerScratch> = (0..effective_parallelism(params))
        .map(|_| WorkerScratch::default())
        .collect();
    let pop_n = params.population.max(1);
    let init = InitPlan::new(ctx, cores, max_nodes, capacity);

    // Initial population: random replication numbers per node (the
    // paper's initialization), placed big-AGs-first so fragmentation
    // cannot strand them. Individual 0 stays at the minimum plan as a
    // safe anchor. Every individual derives from its own seed stream
    // and is evaluated from scratch across the worker pool.
    let built = run_indexed_on(&mut workers, pop_n, |ws, i| {
        let mut rng = StdRng::seed_from_u64(stream_seed(params.seed, 0, i as u64));
        let draft = initial_draft(ctx, &init, i > 0, &mut rng, &mut ws.mutation)?;
        let plan = draft.replication(ctx.partitioning)?;
        let (fitness, basis, _) = compute_fitness(
            ctx,
            memo.ll_tables(),
            &draft.chromosome,
            plan,
            None,
            &mut ws.eval,
        );
        Ok::<_, CompileError>((draft, fitness, basis))
    });
    let mut population: Vec<Individual> = Vec::with_capacity(pop_n);
    for result in built {
        let (draft, fitness, basis) = result?;
        let fingerprint = draft.chromosome.fingerprint();
        let basis = Arc::new(basis);
        memo.observe(EvalKind::Full);
        memo.record(fingerprint, fitness, &basis);
        population.push(Individual {
            draft: Arc::new(draft),
            fitness,
            fingerprint,
            basis,
        });
    }

    population.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
    let initial_fitness = population[0].fitness;
    let mut history = Vec::with_capacity(params.iterations);
    let mut evals_per_generation = Vec::with_capacity(params.iterations);
    let mut grow_successes = 0usize;
    let mut grow_failures = 0usize;

    let elite =
        ((params.population as f64 * params.elite_fraction).ceil() as usize).clamp(1, pop_n);

    for gen in 0..params.iterations {
        let offspring_n = pop_n - elite;
        let evals_before = memo.full_evals() + memo.incremental_evals();

        // Derive and evaluate the whole offspring batch against the
        // immutable parent population; each slot owns its RNG stream.
        let results = run_indexed_on(&mut workers, offspring_n, |ws, slot| {
            let mut rng =
                StdRng::seed_from_u64(stream_seed(params.seed, gen as u64 + 1, slot as u64));
            let parent = tournament(&population, params.tournament, &mut rng);
            // Copied from the parent by the first operator that writes.
            let mut draft = Cow::Borrowed(&*parent.draft);
            let n_mut = rng.gen_range(1..=params.max_mutations_per_child.max(1));
            let mut changed = false;
            let mut tally = MutationTally::default();
            for _ in 0..n_mut {
                changed |= mutate(
                    &mut draft,
                    &parent.basis,
                    ctx,
                    capacity,
                    &mut rng,
                    &mut tally,
                    ws,
                );
            }
            if !changed {
                return Ok(Offspring {
                    draft: parent.draft.clone(),
                    fitness: parent.fitness,
                    fingerprint: parent.fingerprint,
                    basis: parent.basis.clone(),
                    source: OffspringSource::Unchanged,
                    tally,
                });
            }
            // The touched list has served once the offspring is
            // evaluated; population members carry none.
            let mut draft = draft.into_owned();
            let touched = std::mem::take(&mut draft.touched);
            let fingerprint = draft.chromosome.fingerprint();
            let memoized = memo.lookup(fingerprint);
            let live = memoized.and_then(|e| Some((e.fitness, e.basis.upgrade()?)));
            let (fitness, basis, source) = match live {
                Some((fitness, basis)) => (fitness, basis, OffspringSource::CacheHit),
                None => {
                    let plan = draft.replication(ctx.partitioning)?;
                    let (fitness, basis, kind) = compute_fitness(
                        ctx,
                        memo.ll_tables(),
                        &draft.chromosome,
                        plan,
                        Some((&parent.basis, &touched)),
                        &mut ws.eval,
                    );
                    match memoized {
                        // A hit whose basis no population member holds
                        // any more: rebuilt as a miss computes it, and
                        // still a hit, not an evaluation.
                        Some(entry) => {
                            debug_assert_eq!(
                                fitness.to_bits(),
                                entry.fitness.to_bits(),
                                "a rebuilt basis reproduces the memoized fitness"
                            );
                            (entry.fitness, Arc::new(basis), OffspringSource::CacheHit)
                        }
                        None => (fitness, Arc::new(basis), OffspringSource::Evaluated(kind)),
                    }
                }
            };
            Ok::<_, CompileError>(Offspring {
                draft: Arc::new(draft),
                fitness,
                fingerprint,
                basis,
                source,
                tally,
            })
        });

        // Index-ordered reduction: tally stats and fill the memo in
        // slot order, so the outcome is independent of thread count.
        let mut next = std::mem::take(&mut population);
        next.truncate(elite);
        for result in results {
            let off = result?;
            grow_successes += off.tally.grow_ok;
            grow_failures += off.tally.grow_failed;
            match off.source {
                OffspringSource::Unchanged => {}
                OffspringSource::CacheHit => memo.observe_hit(),
                OffspringSource::Evaluated(kind) => {
                    memo.observe(kind);
                    memo.record(off.fingerprint, off.fitness, &off.basis);
                }
            }
            next.push(Individual {
                draft: off.draft,
                fitness: off.fitness,
                fingerprint: off.fingerprint,
                basis: off.basis,
            });
        }
        next.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        population = next;
        history.push(population[0].fitness);
        evals_per_generation.push(memo.full_evals() + memo.incremental_evals() - evals_before);
        on_generation(GaGeneration {
            generation: gen,
            total_generations: params.iterations,
            best_fitness: population[0].fitness,
            evaluations: memo.full_evals() + memo.incremental_evals(),
            cache_hits: memo.cache_hits(),
            grow_successes,
            grow_failures,
        });
    }

    let best = population.remove(0);
    let stats = GaStats {
        initial_fitness,
        final_fitness: best.fitness,
        history,
        evaluations: memo.full_evals() + memo.incremental_evals(),
        full_evals: memo.full_evals(),
        incremental_evals: memo.incremental_evals(),
        cache_hits: memo.cache_hits(),
        evals_per_generation,
        grow_successes,
        grow_failures,
    };
    Ok((best.draft.chromosome.clone(), stats))
}

/// What every initial individual of a run shares — pure functions of
/// the context, computed once per [`optimize_observed`] call instead of
/// once per individual.
struct InitPlan {
    /// The gene grid: cores the search may use, slots per core.
    cores: usize,
    max_nodes: usize,
    /// Crossbars per core.
    capacity: usize,
    /// Placement order: wide-AG nodes first, so fragmentation cannot
    /// strand them.
    order: Vec<MvmIdx>,
    /// The largest window count of any node.
    max_windows: usize,
    /// The occupancy levels an individual draws one of, as `(crossbar
    /// budget, smallest window target fitting it)` at 98%, 90% and 75%
    /// of `total_crossbars`.
    occupancy: [(usize, usize); 3],
}

impl InitPlan {
    fn new(ctx: &GaContext<'_>, cores: usize, max_nodes: usize, capacity: usize) -> Self {
        let total_crossbars = cores * capacity;
        let mut order: Vec<MvmIdx> = (0..ctx.partitioning.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(ctx.partitioning.entry(i).crossbars_per_ag));
        let occupancy = [98usize, 90, 75].map(|pct| {
            let budget = total_crossbars * pct / 100;
            (budget, ctx.partitioning.fit_window_target(budget))
        });
        InitPlan {
            cores,
            max_nodes,
            capacity,
            order,
            max_windows: ctx.partitioning.max_windows(),
            occupancy,
        }
    }
}

/// Builds a feasible draft. With `randomize` set, each node draws
/// a random power-of-two replication number (halved until it fits);
/// otherwise every node gets exactly one replica.
fn initial_draft(
    ctx: &GaContext<'_>,
    init: &InitPlan,
    randomize: bool,
    rng: &mut StdRng,
    ms: &mut MutScratch,
) -> Result<Draft, CompileError> {
    let (cores, capacity) = (init.cores, init.capacity);
    let mut ind = Cow::Owned(Draft::empty(cores, init.max_nodes, ctx.partitioning.len()));
    // Pass 1: the mandatory replica of every node, wide-AG nodes first
    // so fragmentation cannot strand them.
    for &mvm in &init.order {
        let a = ctx.partitioning.entry(mvm).ags_per_replica;
        // Whether a call fits does not depend on where its scan starts
        // (`place_ags_from`), so a failure from the random start is
        // true capacity or slot exhaustion.
        let start = rng.gen_range(0..cores);
        if place_ags_from(&mut ind, ctx, mvm, a, capacity, start, ms).is_err() {
            return Err(CompileError::InsufficientCapacity {
                required: ctx.partitioning.min_crossbars(),
                available: cores * capacity,
            });
        }
    }
    // Pass 2: random replication — the paper's initialization draws a
    // random replication number per node. Unstructured draws saturate
    // the crossbar budget and freeze every later mutation, so the draw
    // is structured: each individual samples a random *window target*
    // `t` (log-uniform) and replicates every node toward
    // `ceil(windows/t)`, stopping at ~85% occupancy so the mutation
    // operators always have room to move.
    if randomize {
        // A random fraction of individuals draw aggressive targets
        // (up to ~98% occupancy, where the balanced heuristic lives);
        // the rest keep slack so the mutation operators can move.
        let (budget, t_fit) = init.occupancy[rng.gen_range(0..init.occupancy.len())];
        let max_windows = init.max_windows;
        // Log-uniform sample in [t_fit, max_windows], biased low (more
        // replication) by taking the min of two draws.
        let (lo, hi) = ((t_fit.max(1) as f64).ln(), (max_windows.max(2) as f64).ln());
        let draw = |rng: &mut StdRng| rng.gen_range(lo..=hi).exp().round().max(1.0) as usize;
        let t = draw(rng).min(draw(rng));
        let mut occupied: usize = (0..cores).map(|core| ind.used(core)).sum();
        for &mvm in &init.order {
            let entry = ctx.partitioning.entry(mvm);
            let want = entry.windows.div_ceil(t).max(1);
            let mut extra = want.saturating_sub(1).min(entry.windows.saturating_sub(1));
            // Respect the occupancy budget.
            let per_replica = entry.crossbars_per_replica().max(1);
            extra = extra.min(budget.saturating_sub(occupied) / per_replica);
            occupied += per_replica * place_halving(&mut ind, ctx, mvm, extra, capacity, rng, ms);
        }
    }
    let mut ind = ind.into_owned();
    ind.touched = Vec::new();
    Ok(ind)
}

/// Tournament selection.
fn tournament<'a>(population: &'a [Individual], k: usize, rng: &mut StdRng) -> &'a Individual {
    let mut best = &population[rng.gen_range(0..population.len())];
    for _ in 1..k.max(1) {
        let cand = &population[rng.gen_range(0..population.len())];
        if cand.fitness < best.fitness {
            best = cand;
        }
    }
    best
}

/// Applies one random mutation operator; returns whether the chromosome
/// changed. `parent` is the evaluation basis of the individual the
/// draft was cloned from.
///
/// Node selection is criticality-biased in HT mode: half of the grow
/// operations target a node on the current bottleneck core, and half of
/// the shrinks target the most over-replicated node. Uniform-random
/// selection (the paper's wording) needs far more generations to walk
/// the `max`-objective plateau; the bias changes which node is drawn,
/// not what the operators do.
fn mutate(
    ind: &mut Cow<'_, Draft>,
    parent: &EvalBasis,
    ctx: &GaContext<'_>,
    capacity: usize,
    rng: &mut StdRng,
    tally: &mut MutationTally,
    ws: &mut WorkerScratch,
) -> bool {
    let n = ctx.partitioning.len();
    let ms = &mut ws.mutation;
    match rng.gen_range(0..4u8) {
        0 => {
            let node = if ctx.mode == PipelineMode::HighThroughput && rng.gen_bool(0.5) {
                critical_node(ind, parent, ctx, &mut ws.eval).unwrap_or_else(|| rng.gen_range(0..n))
            } else {
                rng.gen_range(0..n)
            };
            mutate_grow(ind, ctx, node, capacity, rng, tally, ms)
        }
        1 => {
            let node = if rng.gen_bool(0.5) {
                over_replicated_node(ind, ctx).unwrap_or_else(|| rng.gen_range(0..n))
            } else {
                rng.gen_range(0..n)
            };
            mutate_shrink(ind, ctx, node, rng, ms)
        }
        2 => mutate_spread(ind, ctx, capacity, rng),
        _ => mutate_merge(ind, ctx, capacity, rng, ms),
    }
}

/// A node with AGs on the bottleneck core (largest estimated HT time),
/// preferring the gene with the largest cycle count there. The core
/// times are the parent's, recomputed only where earlier mutations of
/// this offspring moved them.
fn critical_node(
    ind: &Draft,
    parent: &EvalBasis,
    ctx: &GaContext<'_>,
    scratch: &mut EvalScratch,
) -> Option<MvmIdx> {
    let plan = ind.replication(ctx.partitioning).ok()?;
    ht_critical_node(ctx, &ind.chromosome, &plan, (parent, &ind.touched), scratch)
}

/// The replicated node with the smallest windows-per-replica (the most
/// over-replicated one; shrinking it frees the most useful capacity).
fn over_replicated_node(ind: &Draft, ctx: &GaContext<'_>) -> Option<MvmIdx> {
    let replicas = |i: MvmIdx| ind.ag_totals[i] / ctx.partitioning.entry(i).ags_per_replica;
    (0..ctx.partitioning.len())
        .filter(|&i| replicas(i) > 1)
        .min_by_key(|&i| ctx.partitioning.entry(i).windows_per_replica(replicas(i)))
}

/// Operator I: increase `node`'s replication, scattering the new AGs
/// onto cores with free capacity. The step size is geometric (up to
/// doubling the current count) so large targets are reachable in few
/// generations; falls back to +1, leaves the draft as it was on failure.
fn mutate_grow(
    ind: &mut Cow<'_, Draft>,
    ctx: &GaContext<'_>,
    node: MvmIdx,
    capacity: usize,
    rng: &mut StdRng,
    tally: &mut MutationTally,
    ms: &mut MutScratch,
) -> bool {
    let entry = ctx.partitioning.entry(node);
    let a = entry.ags_per_replica;
    let cur = ind.ag_totals[node] / a.max(1);
    // Replicating beyond one replica per window is pure waste.
    let headroom = entry.windows.saturating_sub(cur);
    if headroom == 0 {
        return false;
    }
    let amount = rng.gen_range(1..=cur.max(1)).min(headroom);
    let grown = place_halving(ind, ctx, node, amount, capacity, rng, ms) > 0;
    if grown {
        tally.grow_ok += 1;
    } else {
        tally.grow_failed += 1;
    }
    grown
}

/// Operator II: decrease `node`'s replication (geometric step, at least
/// one replica remains), recovering the crossbars from its genes.
fn mutate_shrink(
    ind: &mut Cow<'_, Draft>,
    ctx: &GaContext<'_>,
    node: MvmIdx,
    rng: &mut StdRng,
    ms: &mut MutScratch,
) -> bool {
    let entry = ctx.partitioning.entry(node);
    let a = entry.ags_per_replica;
    let total = ind.ag_totals[node];
    if total < 2 * a {
        return false; // last replica must stay
    }
    let cur = total / a;
    let amount = rng.gen_range(1..cur);
    let mut to_remove = amount * a;
    // Walk this node's gene slots in random order, shaving counts.
    ms.slots.clear();
    ms.slots.extend(ind.chromosome.slots_of_node(node));
    ms.slots.shuffle(rng);
    let ind = ind.to_mut();
    for &slot in &ms.slots {
        if to_remove == 0 {
            break;
        }
        let gene = ind.chromosome.gene(slot).expect("slot of the node");
        let take = gene.ag_count.min(to_remove);
        to_remove -= take;
        ind.set_ag_count(slot, node, entry.crossbars_per_ag, gene.ag_count - take);
    }
    debug_assert_eq!(to_remove, 0);
    true
}

/// A uniformly random gene — with `splittable`, among those of two or
/// more AGs: what `choose` returns on the list of them in slot order
/// (one `gen_range(0..len)` draw, none when there is no such gene)
/// without building the list.
fn choose_gene(
    chromosome: &Chromosome,
    splittable: bool,
    rng: &mut StdRng,
) -> Option<(usize, Gene)> {
    let len = chromosome.gene_count(splittable);
    if len == 0 {
        return None;
    }
    chromosome.nth_gene(splittable, rng.gen_range(0..len))
}

/// Operator III: spread part of a random gene's AGs to another core.
fn mutate_spread(
    ind: &mut Cow<'_, Draft>,
    ctx: &GaContext<'_>,
    capacity: usize,
    rng: &mut StdRng,
) -> bool {
    let Some((slot, gene)) = choose_gene(&ind.chromosome, true, rng) else {
        return false;
    };
    let xb = ctx.partitioning.entry(gene.mvm).crossbars_per_ag;
    let src_core = ind.chromosome.core_of_slot(slot);
    let move_n = rng.gen_range(1..gene.ag_count);
    let needed = move_n * xb;

    // The first core in circular order from a random start, other than
    // the source, with room for the AGs and a slot for the node.
    let cores = ind.chromosome.cores();
    let start = rng.gen_range(0..cores);
    let draft: &Draft = ind;
    let dst_slot = draft
        .cores_with_room(start..cores, needed, capacity)
        .chain(draft.cores_with_room(0..start, needed, capacity))
        .filter(|&dst| dst != src_core && draft.used(dst) + needed <= capacity)
        .find_map(|dst| {
            let (hosting, free) = draft.chromosome.probe_core(dst, gene.mvm);
            hosting.or(free)
        });
    let Some(dst_slot) = dst_slot else {
        return false;
    };
    let ind = ind.to_mut();
    ind.add_ags(dst_slot, gene.mvm, xb, move_n);
    ind.set_ag_count(slot, gene.mvm, xb, gene.ag_count - move_n);
    true
}

/// Operator IV: merge a whole gene into a gene of the same node on
/// another core.
fn mutate_merge(
    ind: &mut Cow<'_, Draft>,
    ctx: &GaContext<'_>,
    capacity: usize,
    rng: &mut StdRng,
    ms: &mut MutScratch,
) -> bool {
    let Some((slot, gene)) = choose_gene(&ind.chromosome, false, rng) else {
        return false;
    };
    let xb = ctx.partitioning.entry(gene.mvm).crossbars_per_ag;
    let src_core = ind.chromosome.core_of_slot(slot);
    let needed = gene.ag_count * xb;

    // Candidate targets: other cores already hosting this node.
    ms.slots.clear();
    ms.slots.extend(
        ind.chromosome
            .slots_of_node(gene.mvm)
            .filter(|&s| ind.chromosome.core_of_slot(s) != src_core),
    );
    ms.slots.shuffle(rng);
    for &dst_slot in &ms.slots {
        let dst_core = ind.chromosome.core_of_slot(dst_slot);
        if ind.used(dst_core) + needed > capacity {
            continue;
        }
        let ind = ind.to_mut();
        ind.add_ags(dst_slot, gene.mvm, xb, gene.ag_count);
        ind.set_ag_count(slot, gene.mvm, xb, 0);
        return true;
    }
    false
}

/// Adds the largest of `replicas`, `replicas / 2`, `replicas / 4`, …
/// whole replicas of `node` that fits, each attempt scanning from its
/// own random start; returns how many were placed (0 when not even one
/// fits, leaving the draft as it was).
///
/// Every attempt draws its start, but only the first one and the one
/// that fits scan: the first failure reports the room every later
/// attempt would find ([`place_ags_from`]), so the doomed ones in
/// between are decided by a comparison.
fn place_halving(
    ind: &mut Cow<'_, Draft>,
    ctx: &GaContext<'_>,
    node: MvmIdx,
    mut replicas: usize,
    capacity: usize,
    rng: &mut StdRng,
    ms: &mut MutScratch,
) -> usize {
    let a = ctx.partitioning.entry(node).ags_per_replica;
    let cores = ind.chromosome.cores();
    let mut room = usize::MAX;
    while replicas > 0 {
        let start = rng.gen_range(0..cores);
        if replicas * a > room {
            debug_assert_eq!(
                place_ags_from(ind, ctx, node, replicas * a, capacity, start, ms),
                Err(room),
                "a rescan finds the reported room"
            );
        } else {
            match place_ags_from(ind, ctx, node, replicas * a, capacity, start, ms) {
                Ok(()) => return replicas,
                Err(fits) => {
                    debug_assert_eq!(room, usize::MAX, "what the reported room admits fits");
                    room = fits;
                }
            }
        }
        replicas /= 2;
    }
    0
}

/// Places `count` AGs of `node` on cores with capacity and slot room,
/// scanning circularly from `start`. Cores already hosting the node
/// are preferred (they need no fresh slot), which keeps slot pressure
/// low. All-or-nothing: a failed call leaves the draft as it was and
/// reports how many AGs would have fit.
///
/// Places AG after AG, each on the first core in circular order from
/// `start` that hosts the node and has room for one more, else on the
/// first that has room and a free slot — computed per *core*, not per
/// AG. While some hosting core has room, the first of them keeps being
/// picked until it is full, and hosting cores never change meanwhile:
/// that is one sweep topping up each hosting core in scan order. Once
/// none has room, the first non-hosting core with room and a free slot
/// is opened; it is then the only hosting core with room, so it is
/// picked until full, and the next core to open lies strictly later in
/// scan order: a second sweep over the non-hosting cores. Both sweeps
/// read disjoint cores of the state before the call, so one read-only
/// pass plans them (`ms.top_ups`, `ms.fresh`) and nothing is written
/// unless all `count` AGs fit.
///
/// A failed call has seen every core, topped every hosting core up to
/// its room and listed every non-hosting core with room and a free
/// slot, so `Err` carries the sum of both rooms — a property of the
/// draft and the node, not of `start`. A call fits exactly when `count`
/// is within it: the top-ups take `min(count, hosting room)` wherever
/// the sweep starts, and the fresh list stops early only once it
/// already covers what is left.
///
/// Two rules skip cores the pass would only `continue` on. The scan
/// steps over every block of cores none of which has room for one AG
/// ([`Draft::cores_with_room`]). And once the fresh slots cover what
/// is left, no further fresh slot is listed (`left` only falls), so
/// only top-ups can still change the plan: the node's genes
/// ([`Chromosome::slots_of_node`]) give the remaining hosting cores in
/// scan order ([`top_up_hosts`]). A failing call never gets there, so
/// its reported room is the full scan's.
fn place_ags_from(
    ind: &mut Cow<'_, Draft>,
    ctx: &GaContext<'_>,
    node: MvmIdx,
    count: usize,
    capacity: usize,
    start: usize,
    ms: &mut MutScratch,
) -> Result<(), usize> {
    let xb = ctx.partitioning.entry(node).crossbars_per_ag;
    let draft: &Draft = ind;
    let cores = draft.chromosome.cores();
    ms.top_ups.clear();
    ms.fresh.clear();
    // AGs still unplaced after the top-ups so far, and the room in the
    // fresh slots listed so far.
    let mut left = count;
    let mut fresh_room = 0usize;
    let scan = draft
        .cores_with_room(start..cores, xb, capacity)
        .chain(draft.cores_with_room(0..start, xb, capacity));
    for core in scan {
        if left == 0 {
            break;
        }
        if fresh_room >= left {
            // What the scan has not reached: the rest of its segment,
            // and the whole second segment if this is the first.
            let rest = if core >= start {
                [core..cores, 0..start]
            } else {
                [core..start, 0..0]
            };
            top_up_hosts(draft, node, xb, capacity, rest, &mut left, ms);
            break;
        }
        if draft.used(core) + xb > capacity {
            continue;
        }
        let room = (capacity - draft.used(core)) / xb;
        match draft.chromosome.probe_core(core, node) {
            (Some(slot), _) => {
                let n = room.min(left);
                ms.top_ups.push((slot, n));
                left -= n;
            }
            (None, Some(slot)) => {
                ms.fresh.push((slot, room));
                fresh_room += room;
            }
            _ => {}
        }
    }
    if fresh_room < left {
        return Err(count - left + fresh_room);
    }
    let ind = ind.to_mut();
    for &(slot, n) in &ms.top_ups {
        ind.add_ags(slot, node, xb, n);
    }
    for &(slot, room) in &ms.fresh {
        if left == 0 {
            break;
        }
        let n = room.min(left);
        ind.add_ags(slot, node, xb, n);
        left -= n;
    }
    Ok(())
}

/// The rest of [`place_ags_from`]'s plan once its fresh slots cover
/// `left`: a top-up of each core of `rest` (in order) that hosts `node`
/// and has room, until nothing is left. The node's genes come from
/// [`Chromosome::slots_of_node`], in slot and therefore core order.
fn top_up_hosts(
    draft: &Draft,
    node: MvmIdx,
    xb: usize,
    capacity: usize,
    rest: [Range<usize>; 2],
    left: &mut usize,
    ms: &mut MutScratch,
) {
    let chromosome = &draft.chromosome;
    ms.slots.clear();
    ms.slots.extend(chromosome.slots_of_node(node));
    let first_on = |core: usize| {
        ms.slots
            .partition_point(|&s| chromosome.core_of_slot(s) < core)
    };
    for cores in rest {
        for &slot in &ms.slots[first_on(cores.start)..first_on(cores.end)] {
            if *left == 0 {
                return;
            }
            let core = chromosome.core_of_slot(slot);
            if draft.used(core) + xb > capacity {
                continue;
            }
            let n = ((capacity - draft.used(core)) / xb).min(*left);
            ms.top_ups.push((slot, n));
            *left -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_ir::models;
    use pimcomp_ir::transform::normalize;
    use rand::RngCore;

    fn setup(mode: PipelineMode) -> (Graph, HardwareConfig) {
        let g = normalize(&models::tiny_cnn()).unwrap();
        let hw = HardwareConfig::small_test();
        let _ = mode;
        (g, hw)
    }

    fn run(mode: PipelineMode, seed: u64) -> (Chromosome, GaStats, Partitioning) {
        run_with(mode, seed, None)
    }

    fn run_with(
        mode: PipelineMode,
        seed: u64,
        parallelism: Option<NonZeroUsize>,
    ) -> (Chromosome, GaStats, Partitioning) {
        let (g, hw) = setup(mode);
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode,
            core_limit: None,
        };
        let params = GaParams {
            parallelism,
            ..GaParams::fast(seed)
        };
        let (best, stats) = optimize(&ctx, &params).unwrap();
        (best, stats, p)
    }

    #[test]
    fn ga_improves_or_matches_initial_fitness_ht() {
        let (_, stats, _) = run(PipelineMode::HighThroughput, 1);
        assert!(stats.final_fitness <= stats.initial_fitness);
        assert!(stats.evaluations > 0);
        assert_eq!(stats.history.len(), GaParams::fast(1).iterations);
    }

    #[test]
    fn ga_improves_or_matches_initial_fitness_ll() {
        let (_, stats, _) = run(PipelineMode::LowLatency, 2);
        assert!(stats.final_fitness <= stats.initial_fitness);
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let (a, _, _) = run(PipelineMode::HighThroughput, 42);
        let (b, _, _) = run(PipelineMode::HighThroughput, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_run_matches_serial_bit_for_bit() {
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let (serial_best, serial_stats, _) = run_with(mode, 11, None);
            let (par_best, par_stats, _) = run_with(mode, 11, NonZeroUsize::new(4));
            assert_eq!(serial_best, par_best, "{mode}: chromosomes diverged");
            assert_eq!(serial_stats, par_stats, "{mode}: stats diverged");
        }
    }

    #[test]
    fn eval_stats_are_consistent() {
        let (_, stats, _) = run(PipelineMode::HighThroughput, 9);
        assert_eq!(
            stats.evaluations,
            stats.full_evals + stats.incremental_evals
        );
        let per_gen: usize = stats.evals_per_generation.iter().sum();
        // Initial population accounts for the remainder.
        assert_eq!(stats.evaluations - per_gen, GaParams::fast(9).population);
        // Single-gene mutations dominate, so the incremental path must
        // actually be exercised.
        assert!(stats.incremental_evals > 0, "{stats:?}");
    }

    #[test]
    fn best_chromosome_is_feasible() {
        let (best, _, p) = run(PipelineMode::HighThroughput, 7);
        let hw = HardwareConfig::small_test();
        let used = best.used_crossbars(&p);
        assert!(used.iter().all(|&u| u <= hw.crossbar_capacity_per_core()));
        let plan = best.replication(&p).unwrap();
        assert!(plan.counts().iter().all(|&r| r >= 1));
        let mapping = crate::mapping::CoreMapping::from_chromosome(&best, &p).unwrap();
        assert_eq!(mapping.replication, plan);
    }

    #[test]
    fn ga_exploits_replication_when_capacity_allows() {
        // tiny_cnn on the small target leaves plenty of room, so the GA
        // should end with at least one node replicated.
        let (best, _, p) = run(PipelineMode::HighThroughput, 3);
        let plan = best.replication(&p).unwrap();
        assert!(
            plan.counts().iter().any(|&r| r > 1),
            "expected some replication, got {:?}",
            plan.counts()
        );
    }

    #[test]
    fn insufficient_capacity_is_reported() {
        let g = normalize(&models::vgg16()).unwrap();
        let hw = HardwareConfig::small_test(); // far too small for vgg16
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        assert!(matches!(
            optimize(&ctx, &GaParams::fast(1)),
            Err(CompileError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn grow_tallies_are_populated_and_thread_invariant() {
        let (_, serial, _) = run_with(PipelineMode::HighThroughput, 5, None);
        let (_, parallel, _) = run_with(PipelineMode::HighThroughput, 5, NonZeroUsize::new(4));
        assert_eq!(serial.grow_successes, parallel.grow_successes);
        assert_eq!(serial.grow_failures, parallel.grow_failures);
        assert!(
            serial.grow_successes > 0,
            "a fast GA run on tiny_cnn should grow at least once: {serial:?}"
        );
    }

    #[test]
    fn budgeted_run_is_a_prefix_of_the_full_run() {
        // Seed streams are keyed by (seed, generation, slot), so a
        // k-generation run draws exactly the streams of the first k
        // generations of a longer run — the property successive-halving
        // drivers rely on when re-running survivors at a larger budget.
        let (g, hw) = setup(PipelineMode::HighThroughput);
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        let full = GaParams {
            iterations: 12,
            ..GaParams::fast(21)
        };
        let short = GaParams {
            iterations: 4,
            ..full.clone()
        };
        let (_, full_stats) = optimize(&ctx, &full).unwrap();
        let (_, short_stats) = optimize(&ctx, &short).unwrap();
        assert_eq!(short_stats.history[..], full_stats.history[..4]);
        assert_eq!(
            short_stats.evals_per_generation[..],
            full_stats.evals_per_generation[..4]
        );
        assert_eq!(short_stats.initial_fitness, full_stats.initial_fitness);
    }

    /// The placement kernel as it was before batching, kept as the
    /// reference oracle: one AG per full circular scan of the cores.
    fn place_one_ag_per_scan(
        chromosome: &mut Chromosome,
        used_crossbars: &mut [usize],
        (node, xb): (MvmIdx, usize),
        count: usize,
        capacity: usize,
        start: usize,
    ) -> bool {
        let cores = chromosome.cores();
        let mut placed: Vec<usize> = Vec::with_capacity(count); // slots touched
        'outer: for _ in 0..count {
            // First pass: merge into a core already hosting the node.
            let mut fallback: Option<(usize, usize)> = None;
            for off in 0..cores {
                let core = (start + off) % cores;
                if used_crossbars[core] + xb > capacity {
                    continue;
                }
                if let Some(slot) = chromosome.slot_of_node_on_core(core, node) {
                    let cur = chromosome.gene(slot).map_or(0, |g| g.ag_count);
                    let ag_count = cur + 1;
                    chromosome.set_gene(
                        slot,
                        Some(Gene {
                            mvm: node,
                            ag_count,
                        }),
                    );
                    used_crossbars[core] += xb;
                    placed.push(slot);
                    continue 'outer;
                }
                if fallback.is_none() {
                    if let Some(slot) = chromosome.free_slot_of_core(core) {
                        fallback = Some((core, slot));
                    }
                }
            }
            // Second pass: open a fresh slot.
            if let Some((core, slot)) = fallback {
                chromosome.set_gene(
                    slot,
                    Some(Gene {
                        mvm: node,
                        ag_count: 1,
                    }),
                );
                used_crossbars[core] += xb;
                placed.push(slot);
                continue 'outer;
            }
            // Could not place this AG: roll back everything.
            for &slot in placed.iter().rev() {
                let core = chromosome.core_of_slot(slot);
                let gene = chromosome.gene(slot).expect("just placed");
                used_crossbars[core] -= xb;
                chromosome.set_gene(
                    slot,
                    (gene.ag_count > 1).then_some(Gene {
                        mvm: node,
                        ag_count: gene.ag_count - 1,
                    }),
                );
            }
            return false;
        }
        true
    }

    /// A random feasible draft on a `cores x max_nodes` grid: genes of
    /// random nodes and sizes dropped on random cores, so some cores
    /// end up full, some out of slots, and a node sits on no, one or
    /// many cores.
    fn random_draft(
        p: &Partitioning,
        (cores, max_nodes): (usize, usize),
        capacity: usize,
        fill: usize,
        rng: &mut StdRng,
    ) -> Draft {
        let mut draft = Draft::empty(cores, max_nodes, p.len());
        for _ in 0..fill {
            let node = rng.gen_range(0..p.len());
            let xb = p.entry(node).crossbars_per_ag;
            let core = rng.gen_range(0..cores);
            let room = (capacity - draft.used(core)) / xb;
            let (hosting, free) = draft.chromosome.probe_core(core, node);
            let (Some(slot), true) = (hosting.or(free), room > 0) else {
                continue;
            };
            draft.add_ags(slot, node, xb, rng.gen_range(1..=room));
        }
        draft.touched.clear();
        draft
    }

    /// The node of the narrowest AGs.
    fn narrowest(p: &Partitioning) -> MvmIdx {
        (0..p.len())
            .min_by_key(|&i| p.entry(i).crossbars_per_ag)
            .unwrap()
    }

    /// A draft on a `cores x max_nodes` grid whose blocks of cores are
    /// packed to a random level each: every core full, every core a few
    /// crossbars short of full (the room the narrowest node fills), or
    /// as [`random_draft`] left it. So a scan meets whole blocks without
    /// room for its request next to blocks with some.
    fn packed_draft(
        p: &Partitioning,
        (cores, max_nodes): (usize, usize),
        capacity: usize,
        rng: &mut StdRng,
    ) -> Draft {
        let narrow = narrowest(p);
        let xb = p.entry(narrow).crossbars_per_ag;
        let mut draft = random_draft(p, (cores, max_nodes), capacity, cores / 2, rng);
        let loose = rng.gen_range(0..3);
        for block in 0..cores.div_ceil(CORE_BLOCK) {
            let slack = match rng.gen_range(0..4) {
                kind if kind < loose => continue,
                0 | 1 => 0,
                _ => rng.gen_range(1..=3usize) * xb,
            };
            for core in block * CORE_BLOCK..((block + 1) * CORE_BLOCK).min(cores) {
                let ags = capacity.saturating_sub(draft.used(core) + slack) / xb;
                let (hosting, free) = draft.chromosome.probe_core(core, narrow);
                if let (Some(slot), true) = (hosting.or(free), ags > 0) {
                    draft.add_ags(slot, narrow, xb, ags);
                }
            }
        }
        draft.touched.clear();
        draft
    }

    /// Grids whose scans cross, start on and end inside blocks of
    /// cores: one short of a block, one block, one past it, two blocks
    /// and a core, and a partial fourth block.
    const BLOCK_GRIDS: [(usize, usize); 5] = [(63, 3), (64, 2), (65, 3), (129, 4), (200, 3)];

    /// Scan starts on a grid of `cores`: the first core, cores inside a
    /// block, on either side of each block edge, and the last core.
    fn block_starts(cores: usize) -> impl Iterator<Item = usize> {
        [0, 1, 37, 63, 64, 65, 127, 128, 129, 150, cores - 1]
            .into_iter()
            .filter(move |&start| start < cores)
    }

    /// Asserts that every block floor of `draft` is its least-occupied
    /// core's count, recomputed from the per-core counts.
    fn assert_floors_current(draft: &Draft, at: &str) {
        let floors: Vec<u32> = draft
            .used_crossbars
            .chunks(CORE_BLOCK)
            .map(|block| *block.iter().min().unwrap())
            .collect();
        assert_eq!(draft.block_floor, floors, "{at}");
    }

    /// What the placement calls a test checked did.
    #[derive(Debug, Default)]
    struct PlacementTally {
        calls: usize,
        failures: usize,
        fresh_opened: usize,
        topped_up: usize,
    }

    /// Places `count` AGs of `node` on `before` from `start` with
    /// [`place_ags_from`] and asserts the outcome is
    /// [`place_one_ag_per_scan`]'s: the same chromosome, occupancy and
    /// totals, and for a failed call nothing written and a reported
    /// room that is exactly what the oracle fits.
    fn check_placement(
        ctx: &GaContext<'_>,
        before: &Draft,
        (node, start, count): (MvmIdx, usize, usize),
        ms: &mut MutScratch,
        tally: &mut PlacementTally,
    ) {
        let p = ctx.partitioning;
        let capacity = ctx.hw.crossbar_capacity_per_core();
        let cores = before.chromosome.cores();
        let xb = p.entry(node).crossbars_per_ag;
        let oracle = |count: usize| {
            let mut chromosome = before.chromosome.clone();
            let mut used: Vec<usize> = (0..cores).map(|c| before.used(c)).collect();
            let ok = place_one_ag_per_scan(
                &mut chromosome,
                &mut used,
                (node, xb),
                count,
                capacity,
                start,
            );
            (ok, chromosome, used)
        };
        let mut batched = Cow::Borrowed(before);
        let placed = place_ags_from(&mut batched, ctx, node, count, capacity, start, ms);
        let ok = placed.is_ok();
        let (expected, chromosome, used) = oracle(count);
        let at = format!("{cores} cores, node {node}, start {start}, count {count}");
        assert_eq!(ok, expected, "{at}");
        assert_eq!(batched.chromosome, chromosome, "{at}");
        assert_eq!(batched.chromosome.fingerprint(), chromosome.fingerprint());
        let batched_used: Vec<usize> = (0..cores).map(|c| batched.used(c)).collect();
        assert_eq!(batched_used, used, "{at}");
        assert_eq!(batched.ag_totals, chromosome.ag_totals(p), "{at}");
        assert_floors_current(&batched, &at);
        if !ok {
            // A failed call writes nothing (and copies nothing).
            assert!(matches!(batched, Cow::Borrowed(_)), "{at}");
            assert_eq!(chromosome, before.chromosome, "{at}");
            assert_eq!(batched.used_crossbars, before.used_crossbars, "{at}");
            // The reported room is exactly what fits, wherever the scan
            // starts.
            let room = placed.unwrap_err();
            assert!(room < count, "{at}");
            assert!(oracle(room).0 && !oracle(room + 1).0, "{at}: room {room}");
            for from in [start, 0, cores - 1] {
                let mut fits = Cow::Borrowed(before);
                let fit = place_ags_from(&mut fits, ctx, node, room, capacity, from, ms);
                assert_eq!(fit, Ok(()), "{at}: {room} from {from}");
            }
        }
        tally.calls += 1;
        tally.failures += usize::from(!ok);
        tally.fresh_opened +=
            usize::from(ok && chromosome.genes().count() > before.chromosome.genes().count());
        tally.topped_up += usize::from(
            ok && {
                let mut grown = before.chromosome.genes();
                grown.any(|(slot, g)| chromosome.gene(slot) != Some(g))
            },
        );
    }

    /// resnet18 on PUMA partitions into nodes 1 to 32 crossbars wide.
    fn resnet18_on_puma() -> (Graph, HardwareConfig, Partitioning, DepInfo) {
        let g = normalize(&models::resnet18()).unwrap();
        let hw = HardwareConfig::puma();
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        (g, hw, p, dep)
    }

    #[test]
    fn batched_placement_matches_one_ag_per_scan() {
        let (g, hw, p, dep) = resnet18_on_puma();
        // A `core_limit` reaches the kernel only as the grid's core
        // count.
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: Some(5),
        };
        let prefix = (ctx.cores(), 3);
        let capacity = hw.crossbar_capacity_per_core();
        // AGs of `node` the cores of `draft` have crossbars for.
        let room_for = |draft: &Draft, node: MvmIdx| -> usize {
            let xb = p.entry(node).crossbars_per_ag;
            let cores = 0..draft.chromosome.cores();
            cores.map(|core| (capacity - draft.used(core)) / xb).sum()
        };
        let mut rng = StdRng::seed_from_u64(0x0D1F);
        let mut ms = MutScratch::default();
        let mut tally = PlacementTally::default();
        // Small grids filled at random: every start, most counts.
        for (shape, fill) in [
            ((1, 1), 1),
            ((7, 1), 5),
            ((6, 2), 12),
            (prefix, 9),
            ((9, 4), 40),
        ] {
            for _ in 0..12 {
                let before = random_draft(&p, shape, capacity, fill, &mut rng);
                let node = rng.gen_range(0..p.len());
                let free = room_for(&before, node);
                for start in 0..shape.0 {
                    for count in (1..=free + 2).filter(|c| *c < 6 || c % 5 == 0 || *c >= free) {
                        check_placement(&ctx, &before, (node, start, count), &mut ms, &mut tally);
                    }
                }
            }
        }
        // Packed grids of several blocks of cores, from starts around
        // the block edges. Half the calls place the node that fills the
        // packed cores, so hosting cores with room sit in every block.
        let narrow = narrowest(&p);
        for shape in BLOCK_GRIDS {
            for _ in 0..10 {
                let before = packed_draft(&p, shape, capacity, &mut rng);
                assert_floors_current(&before, "packed");
                let node = if rng.gen_bool(0.5) {
                    narrow
                } else {
                    rng.gen_range(0..p.len())
                };
                let free = room_for(&before, node);
                let counts = (1..=3).chain([free / 4, free / 2, free.max(1) - 1, free, free + 1]);
                for start in block_starts(shape.0) {
                    for count in counts.clone().filter(|&c| c > 0) {
                        check_placement(&ctx, &before, (node, start, count), &mut ms, &mut tally);
                    }
                }
            }
        }
        // The sweep must have exercised every branch, not just agreed
        // on trivial cases.
        let PlacementTally {
            calls,
            failures,
            fresh_opened,
            topped_up,
        } = tally;
        assert!(calls > 3000, "{calls} calls");
        assert!(
            failures > 200 && failures < calls / 2,
            "{failures} failures"
        );
        assert!(fresh_opened > 200, "{fresh_opened} calls opened a slot");
        assert!(
            topped_up > 200,
            "{topped_up} calls topped a hosting core up"
        );
    }

    /// The halving loop as it was before a failed scan reported its
    /// room, kept as the reference oracle: one full scan per step.
    fn place_halving_scan_per_step(
        ind: &mut Cow<'_, Draft>,
        ctx: &GaContext<'_>,
        node: MvmIdx,
        mut replicas: usize,
        capacity: usize,
        rng: &mut StdRng,
        ms: &mut MutScratch,
    ) -> usize {
        let a = ctx.partitioning.entry(node).ags_per_replica;
        while replicas > 0 {
            let start = rng.gen_range(0..ind.chromosome.cores());
            if place_ags_from(ind, ctx, node, replicas * a, capacity, start, ms).is_ok() {
                return replicas;
            }
            replicas /= 2;
        }
        0
    }

    #[test]
    fn halving_placement_matches_a_scan_per_step() {
        let (g, hw, p, dep) = resnet18_on_puma();
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        let capacity = hw.crossbar_capacity_per_core();
        let mut rng = StdRng::seed_from_u64(0x4A1F);
        let mut ms = MutScratch::default();
        // Calls that placed the first amount, a halved one, nothing;
        // and calls whose reported room was exactly a halved amount.
        let (mut first, mut halved, mut none, mut exact) = (0usize, 0usize, 0usize, 0usize);
        // Small grids filled at random, and packed ones of several
        // blocks of cores (`None`).
        let small = [((1, 1), 1), ((7, 1), 5), ((6, 2), 12), ((9, 4), 40)];
        let grids = (small.map(|(shape, fill)| (shape, Some(fill))).into_iter())
            .chain(BLOCK_GRIDS.map(|shape| (shape, None)));
        for (shape, fill) in grids {
            for _ in 0..40 {
                let before = match fill {
                    Some(fill) => random_draft(&p, shape, capacity, fill, &mut rng),
                    None => packed_draft(&p, shape, capacity, &mut rng),
                };
                let node = rng.gen_range(0..p.len());
                let a = p.entry(node).ags_per_replica;
                let mut probe = Cow::Borrowed(&before);
                let room = place_ags_from(&mut probe, &ctx, node, usize::MAX, capacity, 0, &mut ms)
                    .unwrap_err();
                // Amounts around the room, and the two whose first
                // halving lands on it exactly.
                let fit = room / a;
                let amounts = (1..=4).chain(fit.saturating_sub(1)..=fit + 1).chain([
                    2 * fit,
                    2 * fit + 1,
                    4 * fit + 3,
                    64 * (fit + 1),
                ]);
                for replicas in amounts.filter(|&r| r > 0) {
                    let seed = rng.next_u64();
                    let (mut fast_rng, mut slow_rng) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let (mut fast, mut slow) = (Cow::Borrowed(&before), Cow::Borrowed(&before));
                    let placed = place_halving(
                        &mut fast,
                        &ctx,
                        node,
                        replicas,
                        capacity,
                        &mut fast_rng,
                        &mut ms,
                    );
                    let expected = place_halving_scan_per_step(
                        &mut slow,
                        &ctx,
                        node,
                        replicas,
                        capacity,
                        &mut slow_rng,
                        &mut ms,
                    );
                    let at =
                        format!("grid {shape:?}, node {node}, {replicas} replicas, room {room}");
                    assert_eq!(placed, expected, "{at}");
                    assert_eq!(fast.chromosome, slow.chromosome, "{at}");
                    assert_eq!(fast.chromosome.fingerprint(), slow.chromosome.fingerprint());
                    assert_eq!(fast.used_crossbars, slow.used_crossbars, "{at}");
                    assert_eq!(fast.ag_totals, slow.ag_totals, "{at}");
                    assert_eq!(fast.touched, slow.touched, "{at}");
                    assert_floors_current(&fast, &at);
                    assert_eq!(matches!(fast, Cow::Borrowed(_)), placed == 0, "{at}");
                    // Same draws: both streams continue identically.
                    assert_eq!(fast_rng.next_u64(), slow_rng.next_u64(), "{at}");
                    first += usize::from(placed == replicas);
                    halved += usize::from(placed > 0 && placed < replicas);
                    none += usize::from(placed == 0);
                    exact += usize::from(placed > 0 && placed < replicas && placed * a == room);
                }
            }
        }
        assert!(
            first > 100 && halved > 100 && none > 100 && exact > 30,
            "{first} placed at once, {halved} after halving ({exact} at exactly the room), {none} not"
        );
    }

    /// The spread operator as it was before the block floors, kept as
    /// the reference oracle: a destination search that visits every
    /// core in circular order.
    fn mutate_spread_core_by_core(
        ind: &mut Cow<'_, Draft>,
        ctx: &GaContext<'_>,
        capacity: usize,
        rng: &mut StdRng,
    ) -> bool {
        let Some((slot, gene)) = choose_gene(&ind.chromosome, true, rng) else {
            return false;
        };
        let xb = ctx.partitioning.entry(gene.mvm).crossbars_per_ag;
        let src_core = ind.chromosome.core_of_slot(slot);
        let move_n = rng.gen_range(1..gene.ag_count);
        let needed = move_n * xb;

        let cores = ind.chromosome.cores();
        let start = rng.gen_range(0..cores);
        for off in 0..cores {
            let dst = (start + off) % cores;
            if dst == src_core || ind.used(dst) + needed > capacity {
                continue;
            }
            let (hosting, free) = ind.chromosome.probe_core(dst, gene.mvm);
            let Some(dst_slot) = hosting.or(free) else {
                continue;
            };
            let ind = ind.to_mut();
            ind.add_ags(dst_slot, gene.mvm, xb, move_n);
            ind.set_ag_count(slot, gene.mvm, xb, gene.ag_count - move_n);
            return true;
        }
        false
    }

    #[test]
    fn spread_matches_a_core_by_core_search() {
        let (g, hw, p, dep) = resnet18_on_puma();
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        let capacity = hw.crossbar_capacity_per_core();
        let mut rng = StdRng::seed_from_u64(0x5F12);
        let (mut moved, mut stuck) = (0usize, 0usize);
        let grids = [(1, 2), (7, 1), (9, 4)].into_iter().chain(BLOCK_GRIDS);
        for shape in grids {
            for _ in 0..30 {
                let before = packed_draft(&p, shape, capacity, &mut rng);
                for _ in 0..20 {
                    let seed = rng.next_u64();
                    let (mut fast_rng, mut slow_rng) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let (mut fast, mut slow) = (Cow::Borrowed(&before), Cow::Borrowed(&before));
                    let spread = mutate_spread(&mut fast, &ctx, capacity, &mut fast_rng);
                    let expected =
                        mutate_spread_core_by_core(&mut slow, &ctx, capacity, &mut slow_rng);
                    let at = format!("grid {shape:?}, seed {seed}");
                    assert_eq!(spread, expected, "{at}");
                    assert_eq!(fast.chromosome, slow.chromosome, "{at}");
                    assert_eq!(fast.used_crossbars, slow.used_crossbars, "{at}");
                    assert_eq!(fast.touched, slow.touched, "{at}");
                    assert_floors_current(&fast, &at);
                    assert_eq!(matches!(fast, Cow::Borrowed(_)), !spread, "{at}");
                    // Same draws: both streams continue identically.
                    assert_eq!(fast_rng.next_u64(), slow_rng.next_u64(), "{at}");
                    moved += usize::from(spread);
                    stuck += usize::from(!spread);
                }
            }
        }
        assert!(moved > 1000 && stuck > 300, "{moved} moved, {stuck} not");
    }

    #[test]
    fn pinned_grids_that_cannot_exist_are_structured_errors() {
        // `CompileOptions::validate` rejects a 0 pin; a direct caller
        // gets the same error instead of `Chromosome::empty`'s assert,
        // and a pin whose slot count overflows gets one too.
        let (g, hw) = setup(PipelineMode::HighThroughput);
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        for (pin, wording) in [
            (0, "`max_nodes_per_core` cannot be pinned to 0"),
            (usize::MAX / 2, "too large to index"),
        ] {
            let params = GaParams {
                max_nodes_per_core: Some(pin),
                ..GaParams::fast(3)
            };
            match optimize(&ctx, &params) {
                Err(CompileError::InvalidOptions { detail }) => {
                    assert!(detail.contains(wording), "{detail}")
                }
                other => panic!("pin {pin}: {:?}", other.map(|(_, stats)| stats)),
            }
        }
    }

    #[test]
    fn a_pin_past_the_node_count_searches_the_node_count_grid() {
        // Slots past the node count can never hold a gene: a pin there
        // used to allocate them all (2^40 aborted the process).
        let (g, hw) = setup(PipelineMode::HighThroughput);
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        let search = |pin: usize| {
            let params = GaParams {
                max_nodes_per_core: Some(pin),
                ..GaParams::fast(1)
            };
            let (best, stats) = optimize(&ctx, &params).unwrap();
            let plan = best.replication(&p).unwrap();
            let mapping = crate::mapping::CoreMapping::from_chromosome(&best, &p).unwrap();
            (plan, mapping, stats)
        };
        let nodes = p.len();
        let at_the_node_count = search(nodes);
        for pin in [1 << 40, usize::MAX / ctx.cores(), 100 * nodes] {
            assert_eq!(search(pin), at_the_node_count, "pin {pin}");
        }
    }

    #[test]
    fn a_core_that_could_outgrow_a_gene_is_a_structured_error() {
        // 128x128 windows of a one-AG node: on cores of 2^20 crossbars
        // one gene could reach the radix, which `set_gene` refuses by
        // panicking — so neither mapping strategy starts.
        let mut b = pimcomp_ir::GraphBuilder::new("wide");
        let x = b.input("x", [3, 128, 128]);
        let _ = b.conv2d("c", x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = normalize(&b.finish().unwrap()).unwrap();
        for (crossbars_per_core, fits) in [(16, true), (1 << 20, false)] {
            let mut hw = HardwareConfig::small_test();
            hw.crossbars_per_core = crossbars_per_core;
            let p = Partitioning::new(&g, &hw).unwrap();
            let dep = DepInfo::analyze(&g);
            let ctx = GaContext {
                hw: &hw,
                graph: &g,
                partitioning: &p,
                dep: &dep,
                mode: PipelineMode::HighThroughput,
                core_limit: None,
            };
            let searched = optimize(&ctx, &GaParams::fast(3)).map(|(_, stats)| stats.evaluations);
            let greedy = crate::baseline::puma_mapping(&p, &hw).map(|m| m.active_cores());
            if fits {
                assert!(
                    searched.is_ok() && greedy.is_ok(),
                    "{searched:?} {greedy:?}"
                );
            } else {
                for result in [searched, greedy] {
                    assert!(
                        matches!(result, Err(CompileError::InvalidHardware { .. })),
                        "{result:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ll_tables_are_built_once_per_run() {
        use crate::fitness::tests::LL_STATIC_BUILDS;
        // Serial, so every evaluation of the run happens on this
        // thread, where the counter is.
        let before = LL_STATIC_BUILDS.with(|n| n.get());
        let (_, stats, _) = run_with(PipelineMode::LowLatency, 2, None);
        assert!(stats.full_evals > GaParams::fast(2).population, "{stats:?}");
        assert_eq!(LL_STATIC_BUILDS.with(|n| n.get()) - before, 1);
        // HT evaluation never reads them.
        run_with(PipelineMode::HighThroughput, 2, None);
        assert_eq!(LL_STATIC_BUILDS.with(|n| n.get()) - before, 1);
    }

    #[test]
    fn ll_issue_loads_stay_exact_on_a_multi_block_grid() {
        // 80 cores: replica-count changes dirty hosting cores in several
        // blocks of the node-block index and of the draft's floors. With
        // debug assertions on, every evaluation checks its incremental
        // issue floor against the floor from scratch.
        let g = normalize(&models::tiny_cnn()).unwrap();
        let mut hw = HardwareConfig::small_test();
        hw.chips = 5;
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::LowLatency,
            core_limit: None,
        };
        assert!(ctx.cores() >= 65);
        let (best, stats) = optimize(&ctx, &GaParams::fast(5)).unwrap();
        assert!(
            stats.grow_successes > 0 && stats.incremental_evals > 0,
            "{stats:?}"
        );
        let spans_blocks = |node| {
            let mut blocks = best.slots_of_node(node).map(|slot| slot / 64);
            blocks
                .next()
                .is_some_and(|first| blocks.any(|b| b != first))
        };
        assert!((0..p.len()).any(spans_blocks));
        assert_eq!(
            stats.final_fitness.to_bits(),
            ctx.fitness(&best).unwrap().to_bits()
        );
    }

    #[test]
    fn choose_gene_matches_choose_on_the_gene_list() {
        let g = normalize(&models::tiny_cnn()).unwrap();
        let p = Partitioning::new(&g, &HardwareConfig::small_test()).unwrap();
        let mut rng = StdRng::seed_from_u64(0xC400);
        let (mut picks, mut empties) = (0usize, 0usize);
        for fill in [0usize, 1, 2, 6, 30, 200] {
            for _ in 0..20 {
                // Capacity 2 leaves most genes at one AG, so the
                // splittable list is sometimes empty and sometimes not.
                let capacity = 2 * p
                    .entries()
                    .iter()
                    .map(|e| e.crossbars_per_ag)
                    .max()
                    .unwrap();
                let chromosome = random_draft(&p, (23, 3), capacity, fill, &mut rng).chromosome;
                for splittable in [false, true] {
                    let min_ags = if splittable { 2 } else { 1 };
                    let list: Vec<(usize, Gene)> = chromosome
                        .genes()
                        .filter(|(_, g)| g.ag_count >= min_ags)
                        .collect();
                    for seed in 0..8 {
                        let mut listed = StdRng::seed_from_u64(seed);
                        let mut selected = listed.clone();
                        let expected = list.choose(&mut listed).copied();
                        assert_eq!(
                            choose_gene(&chromosome, splittable, &mut selected),
                            expected
                        );
                        // Same draws: both streams continue identically.
                        assert_eq!(listed.next_u64(), selected.next_u64());
                        picks += usize::from(expected.is_some());
                        empties += usize::from(expected.is_none());
                    }
                }
            }
        }
        assert!(
            picks > 500 && empties > 100,
            "{picks} picks, {empties} empty"
        );
    }

    #[test]
    fn zero_mutations_per_child_does_not_panic() {
        // `CompileOptions::validate` rejects 0; a direct caller gets the
        // smallest legal value instead of an empty-range panic.
        let (g, hw) = setup(PipelineMode::HighThroughput);
        let p = Partitioning::new(&g, &hw).unwrap();
        let dep = DepInfo::analyze(&g);
        let ctx = GaContext {
            hw: &hw,
            graph: &g,
            partitioning: &p,
            dep: &dep,
            mode: PipelineMode::HighThroughput,
            core_limit: None,
        };
        let zero = GaParams {
            max_mutations_per_child: 0,
            ..GaParams::fast(3)
        };
        let one = GaParams {
            max_mutations_per_child: 1,
            ..GaParams::fast(3)
        };
        assert_eq!(
            optimize(&ctx, &zero).unwrap(),
            optimize(&ctx, &one).unwrap()
        );
    }

    #[test]
    fn stream_seeds_do_not_collide_trivially() {
        let mut seen = std::collections::HashSet::new();
        for stage in 0..64u64 {
            for index in 0..64u64 {
                assert!(seen.insert(stream_seed(42, stage, index)));
            }
        }
    }
}
