//! Gene encoding and core-mapping materialization (paper Section IV-C).
//!
//! Each **gene** represents several AGs of one node mapped to one core,
//! encoded as the integer `node_index * 10000 + ag_count` (the paper's
//! example: `1030025` = 25 AGs of node 103). A **chromosome** is a fixed
//! grid of `core_num × max_node_num_in_core` gene slots; the slot
//! position determines the core. Decoding a chromosome yields a
//! [`CoreMapping`]: concrete AG instances `(node, replica, slice)`
//! assigned to cores, with per-replica accumulation owners.

use crate::partition::{MvmIdx, Partitioning};
use crate::replication::ReplicationPlan;
use crate::CompileError;
use serde::{Deserialize, Serialize};

/// The paper's gene radix: `code = node_index * 10000 + ag_count`.
pub const GENE_RADIX: u64 = 10_000;

/// Several AGs of one node on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Gene {
    /// Which partitioned node.
    pub mvm: MvmIdx,
    /// How many of its AG instances live on this slot's core.
    pub ag_count: usize,
}

impl Gene {
    /// Encodes as the paper's integer representation.
    ///
    /// # Panics
    ///
    /// Panics if `ag_count >= 10000` (outside the paper's radix).
    pub fn code(&self) -> u64 {
        assert!(
            (self.ag_count as u64) < GENE_RADIX,
            "ag_count {} exceeds the gene radix",
            self.ag_count
        );
        self.mvm as u64 * GENE_RADIX + self.ag_count as u64
    }

    /// Decodes the paper's integer representation; `None` if the AG
    /// count field is zero (an empty slot).
    pub fn from_code(code: u64) -> Option<Self> {
        let ag_count = (code % GENE_RADIX) as usize;
        if ag_count == 0 {
            return None;
        }
        Some(Gene {
            mvm: (code / GENE_RADIX) as usize,
            ag_count,
        })
    }
}

/// A fixed grid of gene slots: `core_num × max_node_num_in_core`.
///
/// `max_node_num_in_core` bounds how many distinct nodes one core may
/// host, which keeps the mapping from scattering so far that on-chip
/// communication dominates (paper Section IV-C.1).
///
/// Storage is struct-of-arrays: the node index and AG count of every
/// slot live in parallel 16-bit columns (a gene holds fewer than
/// [`GENE_RADIX`] AGs of one of at most 65 536 nodes — see
/// [`Chromosome::set_gene`] — so the GA's copy of a parent's grid moves
/// 4 bytes a slot) with a bitset marking occupied slots
/// (and a second one marking genes of two or more AGs, the ones a
/// spread can split), so the GA's slot scans walk contiguous words
/// instead of discriminant-tagged options, a uniformly random gene is
/// a popcount walk over a bitset, and the memoization fingerprint can
/// be maintained incrementally (XOR in/out one slot's contribution on
/// every [`Chromosome::set_gene`]) instead of rehashing the whole grid
/// per offspring. Serialization keeps the original
/// `{slots, cores, max_nodes_per_core}` shape, so on-disk artifacts
/// are unaffected by the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chromosome {
    mvms: Vec<u16>,
    ags: Vec<u16>,
    occupied: Vec<u64>,
    /// Slots whose gene holds at least two AGs.
    splittable: Vec<u64>,
    cores: usize,
    max_nodes_per_core: usize,
    fp: u128,
}

/// The serialized shape of a [`Chromosome`] (its original
/// array-of-options layout, kept stable across the SoA refactor).
#[derive(Serialize, Deserialize)]
struct ChromosomeWire {
    slots: Vec<Option<Gene>>,
    cores: usize,
    max_nodes_per_core: usize,
}

impl Serialize for Chromosome {
    fn to_value(&self) -> serde::Value {
        ChromosomeWire {
            slots: (0..self.len()).map(|s| self.gene(s)).collect(),
            cores: self.cores,
            max_nodes_per_core: self.max_nodes_per_core,
        }
        .to_value()
    }
}

impl Deserialize for Chromosome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let wire = ChromosomeWire::from_value(v)?;
        if wire.cores == 0
            || wire.max_nodes_per_core == 0
            || wire.slots.len() != wire.cores * wire.max_nodes_per_core
        {
            return Err(serde::DeError::new(format!(
                "chromosome grid {}x{} does not match {} slots",
                wire.cores,
                wire.max_nodes_per_core,
                wire.slots.len()
            )));
        }
        let mut c = Chromosome::empty(wire.cores, wire.max_nodes_per_core);
        for (slot, gene) in wire.slots.into_iter().enumerate() {
            if let Some(g) = gene.filter(|g| narrow(*g).is_none()) {
                return Err(serde::DeError::new(format!(
                    "slot {slot}: gene of {} AGs of node {} does not fit a chromosome \
                     (fewer than {GENE_RADIX} AGs, node index at most {})",
                    g.ag_count,
                    g.mvm,
                    u16::MAX
                )));
            }
            c.set_gene(slot, gene);
        }
        Ok(c)
    }
}

/// A gene as the 16-bit `(node, AG count)` pair the slot columns store;
/// `None` when it holds [`GENE_RADIX`] AGs or more, or its node index
/// is past `u16::MAX`.
fn narrow(gene: Gene) -> Option<(u16, u16)> {
    let ags = u16::try_from(gene.ag_count).ok()?;
    (u64::from(ags) < GENE_RADIX).then_some((u16::try_from(gene.mvm).ok()?, ags))
}

/// Slots [`Chromosome::slots_of_node`] rules in or out with one
/// branch-free sweep of the node column (a multiple of every SIMD
/// width, and 128 bytes of it).
const SCAN_BLOCK: usize = 64;

/// SplitMix64 finalizer used to derive the per-slot fingerprint tokens.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Chromosome {
    /// An empty chromosome for `cores` cores with the given per-core
    /// node limit.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn empty(cores: usize, max_nodes_per_core: usize) -> Self {
        assert!(cores > 0 && max_nodes_per_core > 0);
        let slots = cores * max_nodes_per_core;
        let base = u128::from(mix64(cores as u64 ^ 0x5049_4D43_4F4D_5031))
            | (u128::from(mix64(max_nodes_per_core as u64 ^ 0x6368_726f_6d6f_736f)) << 64);
        Chromosome {
            mvms: vec![0; slots],
            ags: vec![0; slots],
            occupied: vec![0; slots.div_ceil(64)],
            splittable: vec![0; slots.div_ceil(64)],
            cores,
            max_nodes_per_core,
            fp: base,
        }
    }

    /// The fingerprint contribution of one occupied slot: a 128-bit
    /// pseudo-random token of the `(slot, mvm, ag_count)` triple,
    /// XOR-combined into [`Chromosome::fingerprint`].
    fn slot_token(slot: usize, gene: Gene) -> u128 {
        let lo = mix64(
            mix64(mix64(slot as u64 ^ 0x243F_6A88_85A3_08D3) ^ gene.mvm as u64)
                ^ gene.ag_count as u64,
        );
        let hi = mix64(
            mix64(mix64(slot as u64 ^ 0x1319_8A2E_0370_7344) ^ gene.ag_count as u64)
                ^ gene.mvm as u64,
        );
        u128::from(lo) | (u128::from(hi) << 64)
    }

    #[inline]
    fn is_occupied(&self, slot: usize) -> bool {
        self.occupied[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Total slot count (`cores × max_node_num_in_core`).
    pub fn len(&self) -> usize {
        self.mvms.len()
    }

    /// `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&w| w == 0)
    }

    /// Core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Per-core node limit.
    pub(crate) fn max_nodes_per_core(&self) -> usize {
        self.max_nodes_per_core
    }

    /// The core a slot index belongs to.
    pub fn core_of_slot(&self, slot: usize) -> usize {
        slot / self.max_nodes_per_core
    }

    /// Slot range of a core.
    pub(crate) fn slots_of_core(&self, core: usize) -> std::ops::Range<usize> {
        core * self.max_nodes_per_core..(core + 1) * self.max_nodes_per_core
    }

    /// The stored content of a slot, occupied or not, widened.
    #[inline]
    fn stored(&self, slot: usize) -> Gene {
        Gene {
            mvm: usize::from(self.mvms[slot]),
            ag_count: usize::from(self.ags[slot]),
        }
    }

    /// Gene in a slot.
    pub fn gene(&self, slot: usize) -> Option<Gene> {
        self.is_occupied(slot).then(|| self.stored(slot))
    }

    /// Replaces a slot's content, returning the previous gene.
    ///
    /// # Panics
    ///
    /// Panics if the gene does not fit the 16-bit slot columns:
    /// `ag_count` must be below [`GENE_RADIX`] (the bound
    /// [`Gene::code`] asserts) and `mvm` at most `u16::MAX`. Nothing is
    /// ever truncated silently; [`optimize`](crate::optimize) and the
    /// PUMA-like baseline return an error up front for a target or
    /// graph on which they could build such a gene.
    pub fn set_gene(&mut self, slot: usize, gene: Option<Gene>) -> Option<Gene> {
        let prev = self.gene(slot);
        if let Some(g) = prev {
            self.fp ^= Self::slot_token(slot, g);
        }
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        match gene {
            Some(g) => {
                let (mvm, ags) = narrow(g).unwrap_or_else(|| {
                    panic!(
                        "gene of {} AGs of node {} does not fit a chromosome slot",
                        g.ag_count, g.mvm
                    )
                });
                self.fp ^= Self::slot_token(slot, g);
                self.mvms[slot] = mvm;
                self.ags[slot] = ags;
                self.occupied[word] |= bit;
            }
            None => {
                self.mvms[slot] = 0;
                self.ags[slot] = 0;
                self.occupied[word] &= !bit;
            }
        }
        if self.ags[slot] >= 2 {
            self.splittable[word] |= bit;
        } else {
            self.splittable[word] &= !bit;
        }
        prev
    }

    /// All `(slot, gene)` pairs in slot order. Iterates the occupancy
    /// bitset word-wise (skipping empty regions), so scans over sparse
    /// grids touch only occupied slots.
    pub fn genes(&self) -> impl Iterator<Item = (usize, Gene)> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(move |(word, &bits)| {
                let mut rest = bits;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(word * 64 + bit)
                })
            })
            .map(|slot| (slot, self.stored(slot)))
    }

    /// Genes of one core.
    pub fn genes_of_core(&self, core: usize) -> impl Iterator<Item = (usize, Gene)> + '_ {
        self.slots_of_core(core)
            .filter_map(|s| self.gene(s).map(|g| (s, g)))
    }

    /// First free slot of a core, if any.
    pub fn free_slot_of_core(&self, core: usize) -> Option<usize> {
        self.slots_of_core(core).find(|&s| !self.is_occupied(s))
    }

    /// Where a gene of `mvm` lives or could live on `core`, in one walk
    /// over the core's slots: `(slot already holding the node, first
    /// free slot)` — [`Chromosome::slot_of_node_on_core`] and
    /// [`Chromosome::free_slot_of_core`] together.
    pub(crate) fn probe_core(&self, core: usize, mvm: MvmIdx) -> (Option<usize>, Option<usize>) {
        let mut free = None;
        for slot in self.slots_of_core(core) {
            if !self.is_occupied(slot) {
                free = free.or(Some(slot));
            } else if usize::from(self.mvms[slot]) == mvm {
                return (Some(slot), free);
            }
        }
        (None, free)
    }

    /// Whether `slot` holds different content in `self` and `other`
    /// (the slot-level diff behind `FitnessMemo::evaluate_mutated`;
    /// compares the SoA columns directly so no `Option` is built).
    pub(crate) fn slot_differs(&self, other: &Self, slot: usize) -> bool {
        let occ = self.is_occupied(slot);
        occ != other.is_occupied(slot)
            || (occ && (self.mvms[slot] != other.mvms[slot] || self.ags[slot] != other.ags[slot]))
    }

    /// Slot of a gene of `mvm` on `core`, if present.
    pub fn slot_of_node_on_core(&self, core: usize, mvm: MvmIdx) -> Option<usize> {
        self.probe_core(core, mvm).0
    }

    /// Slots holding a gene of `mvm`, in slot order. Sweeps the node
    /// column a [`SCAN_BLOCK`] at a time with a branch-free "does any
    /// slot here name the node" reduction (which compiles to vector
    /// compares over the 16-bit column) and walks slot by slot only the
    /// blocks that can contain it (empty slots hold node 0, so only a
    /// match needs the occupancy check) — which is what lets the GA
    /// find one node's genes on a multi-thousand-core grid without
    /// testing every slot.
    pub(crate) fn slots_of_node(&self, mvm: MvmIdx) -> impl Iterator<Item = usize> + '_ {
        // A node index no slot can store has no slots.
        let node = u16::try_from(mvm).ok();
        self.mvms
            .chunks(SCAN_BLOCK)
            .enumerate()
            .filter(move |(_, block)| {
                node.is_some_and(|n| block.iter().fold(false, |hit, &m| hit | (m == n)))
            })
            .flat_map(move |(index, block)| {
                let first = index * SCAN_BLOCK;
                (first..first + block.len())
                    .filter(move |&slot| Some(self.mvms[slot]) == node && self.is_occupied(slot))
            })
    }

    /// The bitset a random gene is drawn from: every gene, or only the
    /// `splittable` ones (two or more AGs).
    fn gene_pool(&self, splittable: bool) -> &[u64] {
        if splittable {
            &self.splittable
        } else {
            &self.occupied
        }
    }

    /// How many genes there are — with `splittable`, how many of two or
    /// more AGs.
    pub(crate) fn gene_count(&self, splittable: bool) -> usize {
        self.gene_pool(splittable)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The `index`-th gene in slot order (with `splittable`, among
    /// those of two or more AGs): element `index` of the list
    /// [`Chromosome::genes`] would yield, found by popcount without
    /// building it.
    pub(crate) fn nth_gene(&self, splittable: bool, index: usize) -> Option<(usize, Gene)> {
        let mut skip = index;
        for (word, &bits) in self.gene_pool(splittable).iter().enumerate() {
            let here = bits.count_ones() as usize;
            if skip >= here {
                skip -= here;
                continue;
            }
            let mut rest = bits;
            for _ in 0..skip {
                rest &= rest - 1;
            }
            let slot = word * 64 + rest.trailing_zeros() as usize;
            return self.gene(slot).map(|gene| (slot, gene));
        }
        None
    }

    /// Total AG instances of `mvm` across all cores.
    pub fn ag_total(&self, mvm: MvmIdx) -> usize {
        self.slots_of_node(mvm)
            .map(|slot| usize::from(self.ags[slot]))
            .sum()
    }

    /// Crossbars used on each core under `partitioning` — the capacity
    /// oracle of the GA and mapping tests.
    #[cfg(test)]
    pub(crate) fn used_crossbars(&self, partitioning: &Partitioning) -> Vec<usize> {
        let mut used = vec![0usize; self.cores];
        for (slot, gene) in self.genes() {
            used[self.core_of_slot(slot)] +=
                gene.ag_count * partitioning.entry(gene.mvm).crossbars_per_ag;
        }
        used
    }

    /// AG totals per node in a single pass over the genes.
    pub(crate) fn ag_totals(&self, partitioning: &Partitioning) -> Vec<usize> {
        let mut totals = vec![0usize; partitioning.len()];
        for (_, gene) in self.genes() {
            if gene.mvm < totals.len() {
                totals[gene.mvm] += gene.ag_count;
            }
        }
        totals
    }

    /// Derives the replication plan implied by AG totals.
    ///
    /// # Errors
    ///
    /// [`CompileError::MappingInvariant`] when some node's AG total is
    /// zero or not a multiple of its AGs-per-replica.
    pub(crate) fn replication(
        &self,
        partitioning: &Partitioning,
    ) -> Result<ReplicationPlan, CompileError> {
        replication_of_totals(partitioning, &self.ag_totals(partitioning))
    }

    /// The paper's flat integer encoding of the whole chromosome
    /// (`0` for empty slots).
    pub fn to_codes(&self) -> Vec<u64> {
        (0..self.len())
            .map(|s| self.gene(s).map_or(0, |g| g.code()))
            .collect()
    }

    /// A 128-bit Zobrist-style fingerprint over the grid dimensions and
    /// every slot — the key of the GA's fitness memoization cache.
    ///
    /// The value is the XOR of a pseudo-random token per occupied slot
    /// (derived from the `(slot, mvm, ag_count)` triple by SplitMix64
    /// mixing) over a dimension-derived base, maintained incrementally
    /// by [`Chromosome::set_gene`] — reading it is O(1) no matter how
    /// large the grid is, which matters because the GA fingerprints
    /// every offspring.
    ///
    /// Equal chromosomes always produce equal fingerprints; at 128 bits
    /// the collision probability over a GA run's worth of distinct
    /// chromosomes (≤ 2^16 memo entries) is negligible.
    pub fn fingerprint(&self) -> u128 {
        self.fp
    }

    /// Rebuilds a chromosome from [`Chromosome::to_codes`] output.
    ///
    /// # Panics
    ///
    /// Panics if `codes` length is not `cores * max_nodes_per_core`, or
    /// a code names a node index past `u16::MAX` (see
    /// [`Chromosome::set_gene`]; the AG field of a code is below
    /// [`GENE_RADIX`] by construction).
    pub fn from_codes(codes: &[u64], cores: usize, max_nodes_per_core: usize) -> Self {
        assert_eq!(codes.len(), cores * max_nodes_per_core);
        let mut c = Chromosome::empty(cores, max_nodes_per_core);
        for (slot, &code) in codes.iter().enumerate() {
            c.set_gene(slot, Gene::from_code(code));
        }
        c
    }
}

/// Rejects, before any gene is written, a compilation whose mapping
/// strategy (the GA, the PUMA-like baseline) could build a gene that
/// [`Chromosome::set_gene`] refuses: every node index must fit 16 bits,
/// a core's crossbar count 32 bits (the GA's per-core occupancy), and
/// no core may hold [`GENE_RADIX`] AGs of one node. A gene is bounded
/// by what fits a core (`capacity / crossbars_per_ag`) and by the
/// node's useful replication (one replica per window).
///
/// # Errors
///
/// [`CompileError::InvalidGraph`] for too many partitioned nodes,
/// [`CompileError::InvalidHardware`] for a core that large.
pub(crate) fn check_gene_limits(
    partitioning: &Partitioning,
    capacity: usize,
) -> Result<(), CompileError> {
    if partitioning.len() > usize::from(u16::MAX) + 1 {
        return Err(CompileError::InvalidGraph {
            detail: format!(
                "{} partitioned nodes; a gene grid indexes at most {}",
                partitioning.len(),
                usize::from(u16::MAX) + 1
            ),
        });
    }
    let widest_gene = partitioning
        .entries()
        .iter()
        .map(|e| {
            (capacity / e.crossbars_per_ag.max(1))
                .min(e.windows.max(1).saturating_mul(e.ags_per_replica))
        })
        .max()
        .unwrap_or(0);
    if u32::try_from(capacity).is_err() || widest_gene as u64 >= GENE_RADIX {
        return Err(CompileError::InvalidHardware {
            detail: format!(
                "a core of {capacity} crossbars can hold {widest_gene} array groups of one \
                 node; the gene encoding stops below {GENE_RADIX}"
            ),
        });
    }
    Ok(())
}

/// The replication plan implied by per-node AG totals
/// ([`Chromosome::ag_totals`], or the totals a GA draft keeps current
/// itself).
///
/// # Errors
///
/// [`CompileError::MappingInvariant`] when some node's AG total is zero
/// or not a multiple of its AGs-per-replica.
pub(crate) fn replication_of_totals(
    partitioning: &Partitioning,
    totals: &[usize],
) -> Result<ReplicationPlan, CompileError> {
    let mut counts = Vec::with_capacity(partitioning.len());
    for (idx, &total) in totals.iter().enumerate() {
        let a = partitioning.entry(idx).ags_per_replica;
        if total == 0 || total % a != 0 {
            return Err(CompileError::MappingInvariant {
                detail: format!(
                    "node {} ({}) has {total} AGs, not a positive multiple of {a}",
                    idx,
                    partitioning.entry(idx).name
                ),
            });
        }
        counts.push(total / a);
    }
    Ok(ReplicationPlan::from_counts(partitioning, counts))
}

/// One AG instance: a concrete `(node, replica, slice)` living on a
/// core. `slice` is the AG's position along the weight-matrix height;
/// partial sums of all slices of one replica accumulate at the replica's
/// owner core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgInstance {
    /// Which partitioned node.
    pub mvm: MvmIdx,
    /// Replica index within the node.
    pub replica: usize,
    /// AG index within the replica (weight-matrix row block).
    pub slice: usize,
    /// Core holding all of this AG's crossbars.
    pub core: usize,
}

/// The decoded mapping: concrete AG instances per core plus replica
/// accumulation owners.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreMapping {
    /// Replication plan the mapping realizes.
    pub replication: ReplicationPlan,
    /// All AG instances, grouped by node then replica then slice.
    pub instances: Vec<AgInstance>,
    /// Instance indices living on each core.
    pub per_core: Vec<Vec<usize>>,
    /// `owners[mvm][replica]` = core of the replica's first AG, where
    /// partial sums accumulate (paper Algorithm 1, line 7).
    pub owners: Vec<Vec<usize>>,
}

impl CoreMapping {
    /// Materializes a chromosome into concrete AG instances.
    ///
    /// Assignment is replica-aware: every gene first receives as many
    /// *whole* replicas as fit (`floor(ag_count / A)`), so those
    /// replicas accumulate entirely within one core; only the gene
    /// leftovers are pooled into split replicas. This minimizes the
    /// inter-core partial-sum synchronization of Algorithm 1 line 7.
    ///
    /// # Errors
    ///
    /// [`CompileError::MappingInvariant`] when a node's AG total is not
    /// a whole number of replicas.
    pub fn from_chromosome(
        chromosome: &Chromosome,
        partitioning: &Partitioning,
    ) -> Result<Self, CompileError> {
        let replication = chromosome.replication(partitioning)?;
        let cores = chromosome.cores();
        let mut instances = Vec::new();
        let mut per_core = vec![Vec::new(); cores];
        let mut owners: Vec<Vec<usize>> = Vec::with_capacity(partitioning.len());

        for mvm in 0..partitioning.len() {
            let a = partitioning.entry(mvm).ags_per_replica;
            let r = replication.count(mvm);
            // Gene capacities in slot order.
            let gene_cores: Vec<(usize, usize)> = chromosome
                .genes()
                .filter(|(_, g)| g.mvm == mvm)
                .map(|(slot, g)| (chromosome.core_of_slot(slot), g.ag_count))
                .collect();
            let mut node_owners = vec![usize::MAX; r];
            let mut replica = 0usize;
            let push = |core: usize,
                        replica: usize,
                        slice: usize,
                        instances: &mut Vec<AgInstance>,
                        per_core: &mut Vec<Vec<usize>>,
                        node_owners: &mut Vec<usize>| {
                if slice == 0 {
                    node_owners[replica] = core;
                }
                let id = instances.len();
                instances.push(AgInstance {
                    mvm,
                    replica,
                    slice,
                    core,
                });
                per_core[core].push(id);
            };
            // Pass 1: whole replicas within single genes.
            let mut leftovers: Vec<(usize, usize)> = Vec::new(); // (core, count)
            for &(core, count) in &gene_cores {
                let whole = count / a;
                for _ in 0..whole {
                    for slice in 0..a {
                        push(
                            core,
                            replica,
                            slice,
                            &mut instances,
                            &mut per_core,
                            &mut node_owners,
                        );
                    }
                    replica += 1;
                }
                if count % a > 0 {
                    leftovers.push((core, count % a));
                }
            }
            // Pass 2: pool leftovers into split replicas.
            let mut slice = 0usize;
            for (core, count) in leftovers {
                for _ in 0..count {
                    push(
                        core,
                        replica,
                        slice,
                        &mut instances,
                        &mut per_core,
                        &mut node_owners,
                    );
                    slice += 1;
                    if slice == a {
                        slice = 0;
                        replica += 1;
                    }
                }
            }
            debug_assert_eq!(replica, r);
            debug_assert_eq!(slice, 0);
            owners.push(node_owners);
        }

        Ok(CoreMapping {
            replication,
            instances,
            per_core,
            owners,
        })
    }

    /// Materializes an epoch plan (`weight_reload` mode) into the same
    /// mapping shape the GA produces, overlaying all epochs: every AG
    /// instance keeps the core its epoch assigned it, and replication
    /// is fixed at 1 (duplication-free placement — time-multiplexed
    /// crossbars leave no room for replicas).
    ///
    /// Cores shared by several epochs are *physically* over-committed
    /// here — that is the point of weight reloading; capacity holds
    /// within each epoch, which [`EpochPlan::new`](crate::partition::EpochPlan::new) guarantees.
    /// Instances are ordered by node then slice, matching
    /// [`CoreMapping::from_chromosome`]'s node/replica/slice order.
    pub(crate) fn from_epoch_plan(
        plan: &crate::partition::EpochPlan,
        partitioning: &Partitioning,
        cores: usize,
    ) -> Self {
        let mut core_of = vec![Vec::new(); partitioning.len()];
        for (mvm, e) in partitioning.entries().iter().enumerate() {
            core_of[mvm] = vec![usize::MAX; e.ags_per_replica];
        }
        for epoch in &plan.epochs {
            for a in epoch {
                core_of[a.mvm][a.slice] = a.core;
            }
        }
        let mut instances = Vec::new();
        let mut per_core = vec![Vec::new(); cores];
        let mut owners = Vec::with_capacity(partitioning.len());
        for (mvm, slices) in core_of.iter().enumerate() {
            debug_assert!(!slices.contains(&usize::MAX), "epoch plan covers all AGs");
            owners.push(vec![slices[0]]);
            for (slice, &core) in slices.iter().enumerate() {
                let id = instances.len();
                instances.push(AgInstance {
                    mvm,
                    replica: 0,
                    slice,
                    core,
                });
                per_core[core].push(id);
            }
        }
        CoreMapping {
            replication: ReplicationPlan::ones(partitioning),
            instances,
            per_core,
            owners,
        }
    }

    /// Number of cores that host at least one AG.
    pub fn active_cores(&self) -> usize {
        self.per_core.iter().filter(|v| !v.is_empty()).count()
    }

    /// Cores (deduplicated, sorted) hosting AGs of `(mvm, replica)`.
    pub(crate) fn replica_cores(&self, mvm: MvmIdx, replica: usize) -> Vec<usize> {
        let mut cores: Vec<usize> = self
            .instances
            .iter()
            .filter(|i| i.mvm == mvm && i.replica == replica)
            .map(|i| i.core)
            .collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// Checks internal consistency (every replica fully placed, owners
    /// defined, per-core index coherent).
    ///
    /// # Errors
    ///
    /// [`CompileError::MappingInvariant`] describing the first violation.
    pub fn validate(&self, partitioning: &Partitioning) -> Result<(), CompileError> {
        let fail = |detail: String| Err(CompileError::MappingInvariant { detail });
        for (mvm, node_owners) in self.owners.iter().enumerate() {
            if node_owners.len() != self.replication.count(mvm) {
                return fail(format!("node {mvm}: owner count != replica count"));
            }
            if node_owners.contains(&usize::MAX) {
                return fail(format!("node {mvm}: replica without owner"));
            }
            let a = partitioning.entry(mvm).ags_per_replica;
            let n = self.instances.iter().filter(|i| i.mvm == mvm).count();
            if n != a * self.replication.count(mvm) {
                return fail(format!(
                    "node {mvm}: {n} instances, expected {}",
                    a * self.replication.count(mvm)
                ));
            }
        }
        for (core, ids) in self.per_core.iter().enumerate() {
            for &id in ids {
                if self.instances[id].core != core {
                    return fail(format!("instance {id} mis-indexed on core {core}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_arch::HardwareConfig;
    use pimcomp_ir::GraphBuilder;

    fn part() -> Partitioning {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 28, 28]);
        // 3x3x64 -> 576 rows -> 5 AGs; 64 cols -> 4 crossbars/AG.
        let c1 = b.conv2d("c1", x, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let _c2 = b.conv2d("c2", c1, 32, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        Partitioning::new(&g, &HardwareConfig::puma()).unwrap()
    }

    #[test]
    fn gene_code_round_trip_matches_paper_format() {
        let g = Gene {
            mvm: 103,
            ag_count: 25,
        };
        assert_eq!(g.code(), 1_030_025);
        assert_eq!(Gene::from_code(1_030_025), Some(g));
        assert_eq!(Gene::from_code(0), None);
        assert_eq!(Gene::from_code(1_030_000), None);
    }

    #[test]
    fn chromosome_slot_to_core_arithmetic() {
        let c = Chromosome::empty(4, 3);
        assert_eq!(c.len(), 12);
        assert_eq!(c.core_of_slot(0), 0);
        assert_eq!(c.core_of_slot(2), 0);
        assert_eq!(c.core_of_slot(3), 1);
        assert_eq!(c.slots_of_core(2), 6..9);
    }

    fn filled() -> (Chromosome, Partitioning) {
        let p = part();
        let mut c = Chromosome::empty(4, 2);
        // Node 0: 5 AGs per replica, 2 replicas = 10 AGs: 6 on core 0, 4 on core 1.
        c.set_gene(
            0,
            Some(Gene {
                mvm: 0,
                ag_count: 6,
            }),
        );
        c.set_gene(
            2,
            Some(Gene {
                mvm: 0,
                ag_count: 4,
            }),
        );
        // Node 1: 5 AGs per replica, 1 replica on core 2.
        c.set_gene(
            4,
            Some(Gene {
                mvm: 1,
                ag_count: 5,
            }),
        );
        (c, p)
    }

    #[test]
    fn replication_is_derived_from_ag_totals() {
        let (c, p) = filled();
        let plan = c.replication(&p).unwrap();
        assert_eq!(plan.count(0), 2);
        assert_eq!(plan.count(1), 1);
    }

    #[test]
    fn non_multiple_ag_total_is_an_invariant_violation() {
        let (mut c, p) = filled();
        c.set_gene(
            2,
            Some(Gene {
                mvm: 0,
                ag_count: 3,
            }),
        ); // total 9, not /5
        assert!(matches!(
            c.replication(&p),
            Err(CompileError::MappingInvariant { .. })
        ));
    }

    #[test]
    fn mapping_materializes_instances_and_owners() {
        let (c, p) = filled();
        let m = CoreMapping::from_chromosome(&c, &p).unwrap();
        m.validate(&p).unwrap();
        // Node 0: replica 0 entirely on core 0 (6 >= 5); replica 1
        // split: slice 0 on core 0 (the 6th AG), slices 1-4 on core 1.
        assert_eq!(m.owners[0], vec![0, 0]);
        assert_eq!(m.replica_cores(0, 0), vec![0]);
        assert_eq!(m.replica_cores(0, 1), vec![0, 1]);
        assert_eq!(m.owners[1], vec![2]);
        assert_eq!(m.active_cores(), 3);
    }

    #[test]
    fn used_crossbars_accounts_ag_width() {
        let (c, p) = filled();
        let used = c.used_crossbars(&p);
        // Node 0: 4 xbars/AG; node 1: 2 xbars/AG (32 cols / 16).
        assert_eq!(used[0], 6 * 4);
        assert_eq!(used[1], 4 * 4);
        assert_eq!(used[2], 5 * 2);
        assert_eq!(used[3], 0);
    }

    #[test]
    fn codes_round_trip() {
        let (c, _) = filled();
        let codes = c.to_codes();
        let c2 = Chromosome::from_codes(&codes, 4, 2);
        assert_eq!(c, c2);
    }

    #[test]
    fn fingerprint_is_path_independent() {
        // The incrementally maintained fingerprint must depend only on
        // the final content, not on the set_gene history.
        let (c, _) = filled();
        let rebuilt = Chromosome::from_codes(&c.to_codes(), 4, 2);
        assert_eq!(c.fingerprint(), rebuilt.fingerprint());

        // Scribble over a slot and restore it: fingerprint returns.
        let mut d = c.clone();
        let before = d.fingerprint();
        let old = d.set_gene(
            1,
            Some(Gene {
                mvm: 1,
                ag_count: 3,
            }),
        );
        assert_ne!(d.fingerprint(), before);
        d.set_gene(1, old);
        assert_eq!(d.fingerprint(), before);
        assert_eq!(d, c);

        // Distinct grids (even with identical flattened content) and
        // distinct slots disagree.
        assert_ne!(
            Chromosome::empty(4, 2).fingerprint(),
            Chromosome::empty(2, 4).fingerprint()
        );
        let mut a = Chromosome::empty(4, 2);
        let mut b = Chromosome::empty(4, 2);
        a.set_gene(
            0,
            Some(Gene {
                mvm: 0,
                ag_count: 1,
            }),
        );
        b.set_gene(
            1,
            Some(Gene {
                mvm: 0,
                ag_count: 1,
            }),
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn serde_keeps_the_array_of_options_wire_format() {
        let mut c = Chromosome::empty(2, 2);
        c.set_gene(
            2,
            Some(Gene {
                mvm: 7,
                ag_count: 3,
            }),
        );
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(
            json,
            r#"{"slots":[null,null,{"mvm":7,"ag_count":3},null],"cores":2,"max_nodes_per_core":2}"#
        );
        let back: Chromosome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.fingerprint(), c.fingerprint());

        // A grid/slot-count mismatch is a deserialization error, not a
        // panic or a silently corrupted chromosome.
        let bad = r#"{"slots":[null,null],"cores":2,"max_nodes_per_core":2}"#;
        assert!(serde_json::from_str::<Chromosome>(bad).is_err());

        // So is a gene the 16-bit columns cannot hold: nothing is
        // truncated into a different, valid-looking gene.
        let with_gene = |mvm: u64, ag_count: u64| {
            let json = format!(
                r#"{{"slots":[null,{{"mvm":{mvm},"ag_count":{ag_count}}}],"cores":1,"max_nodes_per_core":2}}"#
            );
            serde_json::from_str::<Chromosome>(&json)
        };
        for (mvm, ag_count) in [(7, 70_000), (1 << 40, 3), (7, 10_000), (65_536, 3)] {
            let err = with_gene(mvm, ag_count).expect_err("gene does not fit");
            assert!(err.to_string().contains("does not fit"), "{err}");
        }
        let widest = with_gene(65_535, 9_999).expect("the widest gene fits");
        assert_eq!(
            widest.gene(1),
            Some(Gene {
                mvm: 65_535,
                ag_count: 9_999
            })
        );
    }

    #[test]
    #[should_panic(expected = "does not fit a chromosome slot")]
    fn set_gene_refuses_an_ag_count_at_the_radix() {
        Chromosome::empty(1, 1).set_gene(
            0,
            Some(Gene {
                mvm: 0,
                ag_count: GENE_RADIX as usize,
            }),
        );
    }

    #[test]
    #[should_panic(expected = "does not fit a chromosome slot")]
    fn from_codes_refuses_a_node_index_past_16_bits() {
        Chromosome::from_codes(&[65_536 * GENE_RADIX + 1], 1, 1);
    }

    #[test]
    fn gene_limits_are_checked_before_any_gene_is_written() {
        // `part()`'s nodes stop at 28x28 windows x 5 AGs, below the
        // radix on a core of any size that 32 bits can count.
        check_gene_limits(&part(), u32::MAX as usize).unwrap();
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 56, 56]);
        let _ = b.conv2d("c1", x, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let p = Partitioning::new(&b.finish().unwrap(), &HardwareConfig::puma()).unwrap();
        check_gene_limits(&p, HardwareConfig::puma().crossbar_capacity_per_core()).unwrap();
        // 56x56 windows x 5 AGs of 4 crossbars: a core of 40 000
        // crossbars could be asked to hold 10 000 AGs of the node.
        let err = check_gene_limits(&p, 40_000).unwrap_err();
        assert!(
            matches!(&err, CompileError::InvalidHardware { detail } if detail.contains("10000")),
            "{err}"
        );
        check_gene_limits(&p, 39_999).unwrap();
        let err = check_gene_limits(&p, usize::MAX).unwrap_err();
        assert!(matches!(err, CompileError::InvalidHardware { .. }), "{err}");
    }

    /// `Chromosome` against the array of options it replaced.
    struct Model {
        slots: Vec<Option<Gene>>,
        max_nodes: usize,
    }

    impl Model {
        fn genes(&self) -> Vec<(usize, Gene)> {
            let genes = self.slots.iter().enumerate();
            genes.filter_map(|(s, g)| g.map(|g| (s, g))).collect()
        }

        fn pool(&self, splittable: bool) -> Vec<(usize, Gene)> {
            let mut genes = self.genes();
            genes.retain(|(_, g)| !splittable || g.ag_count >= 2);
            genes
        }

        fn probe(&self, core: usize, mvm: MvmIdx) -> (Option<usize>, Option<usize>) {
            let range = core * self.max_nodes..(core + 1) * self.max_nodes;
            let hosting = range
                .clone()
                .find(|&s| self.slots[s].is_some_and(|g| g.mvm == mvm));
            // A free slot is reported only when the walk met it before
            // the hosting one.
            let free = range
                .take_while(|&s| Some(s) != hosting)
                .find(|&s| self.slots[s].is_none());
            (hosting, free)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        #[test]
        fn chromosome_matches_an_array_of_options(
            cores in 1usize..70,
            max_nodes in 1usize..5,
            nodes in 1usize..7,
            writes in proptest::collection::vec(
                (0usize..10_000, 0usize..8, 0usize..7, 0usize..40),
                0..120,
            ),
        ) {
            // Slot counts 1..=276: below, at and past the 64-slot scan
            // block, mostly not a multiple of it.
            let len = cores * max_nodes;
            // Node indices 0..nodes with the last one at the column's
            // limit; AG counts 0 (which `set_gene` stores as given), 1
            // (not splittable), small ones and the radix limit.
            let node = |n: usize| if n % nodes == nodes - 1 { 65_535 } else { n % nodes };
            let ags = |a: usize| if a == 39 { 9_999 } else { a % 5 };
            let mut c = Chromosome::empty(cores, max_nodes);
            let mut model = Model { slots: vec![None; len], max_nodes };
            for (at, kind, n, a) in writes {
                let slot = at % len;
                let gene = (kind > 1).then(|| Gene { mvm: node(n), ag_count: ags(a) });
                let prev = c.set_gene(slot, gene);
                proptest::prop_assert_eq!(prev, std::mem::replace(&mut model.slots[slot], gene));
            }

            for slot in 0..len {
                proptest::prop_assert_eq!(c.gene(slot), model.slots[slot]);
            }
            proptest::prop_assert_eq!(c.genes().collect::<Vec<_>>(), model.genes());
            proptest::prop_assert_eq!(c.is_empty(), model.genes().is_empty());
            let probes = (0..nodes).map(node).chain([0, 65_535, 65_536, 70_000]);
            for mvm in probes {
                let of_node: Vec<usize> = model
                    .genes()
                    .into_iter()
                    .filter(|(_, g)| g.mvm == mvm)
                    .map(|(s, _)| s)
                    .collect();
                proptest::prop_assert_eq!(c.slots_of_node(mvm).collect::<Vec<_>>(), &of_node[..]);
                let total: usize = of_node.iter().map(|&s| model.slots[s].unwrap().ag_count).sum();
                proptest::prop_assert_eq!(c.ag_total(mvm), total);
                for core in 0..cores {
                    proptest::prop_assert_eq!(c.probe_core(core, mvm), model.probe(core, mvm));
                }
            }
            for core in 0..cores {
                let of_core: Vec<(usize, Gene)> = model
                    .genes()
                    .into_iter()
                    .filter(|(s, _)| s / max_nodes == core)
                    .collect();
                proptest::prop_assert_eq!(c.genes_of_core(core).collect::<Vec<_>>(), of_core);
            }
            for splittable in [false, true] {
                let pool = model.pool(splittable);
                proptest::prop_assert_eq!(c.gene_count(splittable), pool.len());
                for (index, &entry) in pool.iter().enumerate() {
                    proptest::prop_assert_eq!(c.nth_gene(splittable, index), Some(entry));
                }
                proptest::prop_assert_eq!(c.nth_gene(splittable, pool.len()), None);
            }

            // The same content reached another way is the same value,
            // fingerprint included: written once in reverse slot order,
            // through serde, and through the paper's integer codes.
            let mut rebuilt = Chromosome::empty(cores, max_nodes);
            for (slot, gene) in model.genes().into_iter().rev() {
                rebuilt.set_gene(slot, Some(gene));
            }
            let json = serde_json::to_string(&c).unwrap();
            let parsed: Chromosome = serde_json::from_str(&json).unwrap();
            for other in [&rebuilt, &parsed] {
                proptest::prop_assert_eq!(other, &c);
                proptest::prop_assert_eq!(other.fingerprint(), c.fingerprint());
            }
            // (A code of 0 AGs decodes to an empty slot.)
            if model.genes().iter().all(|(_, g)| g.ag_count > 0) {
                let coded = Chromosome::from_codes(&c.to_codes(), cores, max_nodes);
                proptest::prop_assert_eq!(coded.fingerprint(), c.fingerprint());
                proptest::prop_assert_eq!(coded, c);
            }
        }
    }
}
