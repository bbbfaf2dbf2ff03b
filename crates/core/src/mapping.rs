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
use std::cmp::Ordering;
use std::sync::Arc;

/// The paper's gene radix: `code = node_index * 10000 + ag_count`.
pub const GENE_RADIX: u64 = 10_000;

/// Several AGs of one node on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Cores one block of the GA's per-core state covers: a [`Chromosome`]
/// keeps the slots (and the GA's crossbar count) of each such block of
/// cores, and the GA's evaluation bases their fitness terms, each block
/// behind its own `Arc`. A copy shares every block, and a write copies
/// only the block it lands in (`Arc::make_mut`), so an offspring holds
/// its own copy of the few blocks its mutations touched and shares the
/// rest with its parent.
pub(crate) const CORE_BLOCK: usize = 64;

/// One block's slots: the node column and the AG-count column, one
/// 16-bit word a slot each, then a bitset marking occupied slots and one
/// marking genes of two or more AGs (each 64-bit word as four 16-bit
/// quarters, lowest first). A block holds [`CORE_BLOCK`] cores, a whole
/// number of 64-slot words, so every block starts on a word of the grid
/// and a slot keeps its bit position in it; the last block holds the
/// cores left.
#[derive(Clone, Copy)]
struct SlotBlock<'a> {
    data: &'a [u16],
    slots: usize,
}

/// The `u16`s a block of `cores` cores and `slots` slots takes: the two
/// halves of a tally for each core, two columns and two bitsets of
/// `slots.div_ceil(64)` words.
fn block_len(cores: usize, slots: usize) -> usize {
    2 * cores + bits_at(slots, true) + 4 * slots.div_ceil(64)
}

/// Where a block's bitsets start: the occupancy one, then (one bitset
/// later) the splittable one.
fn bits_at(slots: usize, splittable: bool) -> usize {
    2 * slots + usize::from(splittable) * 4 * slots.div_ceil(64)
}

impl<'a> SlotBlock<'a> {
    /// The node column.
    fn column(self) -> &'a [u16] {
        &self.data[..self.slots]
    }

    /// Word `word` of the occupancy bitset, or with `splittable` of the
    /// bitset of genes of two or more AGs.
    #[inline]
    fn word(self, splittable: bool, word: usize) -> u64 {
        let at = bits_at(self.slots, splittable) + 4 * word;
        let quarters = &self.data[at..at + 4];
        quarters
            .iter()
            .rev()
            .fold(0, |word, &q| word << 16 | u64::from(q))
    }

    /// Every word of a bitset, in order.
    fn words(self, splittable: bool) -> impl Iterator<Item = u64> + 'a {
        (0..self.slots.div_ceil(64)).map(move |word| self.word(splittable, word))
    }

    #[inline]
    fn is_occupied(self, local: usize) -> bool {
        self.data[2 * self.slots + local / 16] & (1 << (local % 16)) != 0
    }

    /// The node stored in a slot, occupied or not.
    #[inline]
    fn mvm(self, local: usize) -> u16 {
        self.data[local]
    }

    /// The stored content of a slot, occupied or not, widened.
    #[inline]
    fn stored(self, local: usize) -> Gene {
        Gene {
            mvm: usize::from(self.data[local]),
            ag_count: usize::from(self.data[self.slots + local]),
        }
    }

    /// Whether `local` holds different content in `self` and `other`.
    fn slot_differs(self, other: Self, local: usize) -> bool {
        let occ = self.is_occupied(local);
        occ != other.is_occupied(local)
            || (occ
                && (self.data[local] != other.data[local]
                    || self.data[self.slots + local] != other.data[self.slots + local]))
    }

    /// The slots of word `word` holding a gene of `node`, as a bit mask
    /// over the word: one byte-wide compare per lane (which compiles to
    /// vector compares over the node column), then each 8 bytes of 0/1
    /// packed into 8 bits by one multiply, which moves byte `i`'s low bit
    /// to bit `56 + i` with no carries between them.
    fn node_mask(self, node: u16, word: usize) -> u64 {
        let first = word * SCAN_BLOCK;
        let column = &self.column()[first..self.slots.min(first + SCAN_BLOCK)];
        let mut lanes = [0u8; SCAN_BLOCK];
        for (lane, &m) in lanes.iter_mut().zip(column) {
            *lane = u8::from(m == node);
        }
        let matches = lanes.chunks_exact(8).rev().fold(0u64, |mask, bytes| {
            let bytes = u64::from_le_bytes(bytes.try_into().expect("8 lanes"));
            mask << 8 | bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56
        });
        matches & self.word(false, word)
    }
}

/// Stores `(node, AG count)` in slot `local` of a block of `slots` slots
/// and marks it occupied or not.
fn write_slot(data: &mut [u16], slots: usize, local: usize, stored: (u16, u16), occupied: bool) {
    (data[local], data[slots + local]) = stored;
    let bit = 1u16 << (local % 16);
    for (splittable, set) in [(false, occupied), (true, stored.1 >= 2)] {
        let at = bits_at(slots, splittable) + local / 16;
        if set {
            data[at] |= bit;
        } else {
            data[at] &= !bit;
        }
    }
}

/// One block of a [`Chromosome`]: its data, shared until written, and
/// what the chromosome keeps of it beside it, current after every
/// write.
#[derive(Debug, Clone)]
struct Block {
    /// The block's cores' tallies ([`Chromosome::tally`]) as two runs
    /// of 16-bit halves, every core's low half and then every core's
    /// high half (so a scan for the least reads two contiguous runs),
    /// then the block's slots ([`SlotBlock`]), in one allocation, so a
    /// block is one allocation to copy and a gene and its core's tally
    /// are written in one copy.
    data: Arc<[u16]>,
    /// How many of the block's slots hold a gene, and how many a gene of
    /// two or more AGs: a random gene's block is found from these.
    genes: [u32; 2],
    /// The least tally of the block's cores ([`Chromosome::least_tally`]),
    /// and how many of them hold it.
    least_tally: u32,
    holding_least: u32,
}

/// A fixed grid of gene slots: `core_num × max_node_num_in_core`.
///
/// `max_node_num_in_core` bounds how many distinct nodes one core may
/// host, which keeps the mapping from scattering so far that on-chip
/// communication dominates (paper Section IV-C.1).
///
/// Storage is one shared block per 64 cores, each behind an `Arc`: the
/// node index and AG count of every slot, in two 16-bit columns (a gene
/// holds fewer than [`GENE_RADIX`] AGs of one of at most 65 536 nodes —
/// see [`Chromosome::set_gene`]), with a bitset
/// marking occupied slots (and a second one marking genes of two or
/// more AGs, the ones a spread can split), so the GA's slot scans walk
/// contiguous words instead of discriminant-tagged options, a uniformly
/// random gene is a popcount walk over a bitset (after a walk over
/// per-block gene counts), and the memoization fingerprint can be
/// maintained incrementally (XOR in/out one slot's contribution on
/// every [`Chromosome::set_gene`]) instead of rehashing the whole grid
/// per offspring. A clone shares every block with the original, and a
/// write copies the one block it lands in while another chromosome
/// still holds it (`Arc::make_mut`), so the GA's offspring copies the
/// blocks its mutations touch and nothing of the rest. A per-node index
/// of the 64-slot words holding each node's genes lets the GA find one
/// node's genes by reading only those words of the slot column.
#[derive(Debug, Clone)]
pub struct Chromosome {
    /// The blocks, of `block_slots` slots each but the last.
    blocks: Vec<Block>,
    /// Slots per full block.
    block_slots: usize,
    /// The node-block index: one row per node index ever written, in the
    /// order of first writes, of one count per [`SCAN_BLOCK`] (how many
    /// of its slots hold a gene of the node).
    node_blocks: Vec<u8>,
    /// `row_of[node]` is the node's row in `node_blocks` plus one (0: no
    /// row); as long as the largest node index written.
    row_of: Vec<u32>,
    cores: usize,
    max_nodes_per_core: usize,
    fp: u128,
    /// Whether every write went through [`Chromosome::set_gene_weighted`],
    /// so the tallies are current: what the `debug_assert!`s on reading
    /// them check.
    tallied: bool,
}

/// Equal grids are equal chromosomes, whatever order their genes were
/// written in: the node-block index (whose rows follow that order) and
/// the fields derived from the grid are left out, and blocks the two
/// share are equal without a look.
impl PartialEq for Chromosome {
    fn eq(&self, other: &Self) -> bool {
        self.cores == other.cores
            && self.max_nodes_per_core == other.max_nodes_per_core
            && (0..self.blocks.len()).all(|b| {
                // The two columns and the occupancy bitset (the
                // splittable one and the tallies are left out).
                let (mine, theirs) = (self.block(b), other.block(b));
                let grid = bits_at(mine.slots, true);
                Arc::ptr_eq(&self.blocks[b].data, &other.blocks[b].data)
                    || mine.data[..grid] == theirs.data[..grid]
            })
    }
}

impl Eq for Chromosome {}

/// A gene as the 16-bit `(node, AG count)` pair a slot stores;
/// `None` when it holds [`GENE_RADIX`] AGs or more, or its node index
/// is past `u16::MAX`.
fn narrow(gene: Gene) -> Option<(u16, u16)> {
    let ags = u16::try_from(gene.ag_count).ok()?;
    (u64::from(ags) < GENE_RADIX).then_some((u16::try_from(gene.mvm).ok()?, ags))
}

/// Slots the node-block index summarizes together: one word of the
/// occupancy bitset, so a block's genes of a node are one 64-lane
/// compare of the slot column's node halves ANDed with that word.
const SCAN_BLOCK: usize = 64;

/// The set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

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
        let block_slots = CORE_BLOCK * max_nodes_per_core;
        let base = u128::from(mix64(cores as u64 ^ 0x5049_4D43_4F4D_5031))
            | (u128::from(mix64(max_nodes_per_core as u64 ^ 0x6368_726f_6d6f_736f)) << 64);
        // Every full block starts as one shared empty block.
        let full: Arc<[u16]> = Arc::from(vec![0; block_len(CORE_BLOCK, block_slots)]);
        let blocks = (0..cores.div_ceil(CORE_BLOCK))
            .map(|block| {
                let here = (cores - block * CORE_BLOCK).min(CORE_BLOCK);
                let data = if here == CORE_BLOCK {
                    Arc::clone(&full)
                } else {
                    Arc::from(vec![0; block_len(here, here * max_nodes_per_core)])
                };
                Block {
                    data,
                    genes: [0; 2],
                    least_tally: 0,
                    holding_least: here as u32,
                }
            })
            .collect();
        Chromosome {
            blocks,
            block_slots,
            node_blocks: Vec::new(),
            row_of: Vec::new(),
            cores,
            max_nodes_per_core,
            fp: base,
            tallied: true,
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

    /// The block holding `slot` and the slot's index in it.
    #[inline]
    fn locate(&self, slot: usize) -> (usize, usize) {
        let block = self.core_of_slot(slot) / CORE_BLOCK;
        (block, slot - block * self.block_slots)
    }

    /// Words of the occupancy bitset over the grid.
    fn words(&self) -> usize {
        self.len().div_ceil(64)
    }

    /// Block `block`'s slots.
    #[inline]
    fn block(&self, block: usize) -> SlotBlock<'_> {
        let cores = self.block_cores(block);
        SlotBlock {
            data: &self.blocks[block].data[2 * cores..],
            slots: cores * self.max_nodes_per_core,
        }
    }

    /// How many cores block `block` holds.
    #[inline]
    fn block_cores(&self, block: usize) -> usize {
        (self.cores - block * CORE_BLOCK).min(CORE_BLOCK)
    }

    /// The block holding `core`'s slots, the index of its first slot in
    /// the block, and the grid index of that slot.
    #[inline]
    fn core_block(&self, core: usize) -> (SlotBlock<'_>, usize, usize) {
        let first = core * self.max_nodes_per_core;
        let local = core % CORE_BLOCK * self.max_nodes_per_core;
        (self.block(core / CORE_BLOCK), local, first)
    }

    /// Total slot count (`cores × max_node_num_in_core`).
    pub fn len(&self) -> usize {
        self.cores * self.max_nodes_per_core
    }

    /// `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        (0..self.blocks.len()).all(|b| self.block(b).words(false).all(|w| w == 0))
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
    #[inline]
    pub fn core_of_slot(&self, slot: usize) -> usize {
        slot / self.max_nodes_per_core
    }

    /// Slot range of a core.
    #[cfg(test)]
    pub(crate) fn slots_of_core(&self, core: usize) -> std::ops::Range<usize> {
        core * self.max_nodes_per_core..(core + 1) * self.max_nodes_per_core
    }

    /// The stored content of a slot, occupied or not, widened.
    #[inline]
    fn stored(&self, slot: usize) -> Gene {
        let (block, local) = self.locate(slot);
        self.block(block).stored(local)
    }

    /// Gene in a slot.
    #[inline]
    pub fn gene(&self, slot: usize) -> Option<Gene> {
        let (block, local) = self.locate(slot);
        let block = self.block(block);
        block.is_occupied(local).then(|| block.stored(local))
    }

    /// Replaces a slot's content, returning the previous gene. A slot in
    /// a block this chromosome shares with a copy copies that block
    /// first.
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
        self.tallied = false;
        self.write(slot, gene, None)
    }

    /// The tally of `core`: a 32-bit count kept at the head of the block
    /// of the core's slots, the AGs of its genes weighted by the weight
    /// their writer gave each node ([`Chromosome::set_gene_weighted`];
    /// the GA gives a node's crossbars per AG, so the tally is the
    /// crossbars the core occupies). A write of a gene and of its core's
    /// count so copies one block, not two. It is current only in a
    /// chromosome every write of which went through
    /// [`Chromosome::set_gene_weighted`] — the GA's drafts; after a
    /// [`Chromosome::set_gene`] it is stale, and reading it is a
    /// `debug_assert!` failure. Equality, the fingerprint and the mapping
    /// leave it out.
    #[inline]
    pub(crate) fn tally(&self, core: usize) -> u32 {
        debug_assert!(self.tallied, "a tally read after an unweighted write");
        let block = core / CORE_BLOCK;
        let (data, at) = (&self.blocks[block].data, core % CORE_BLOCK);
        u32::from(data[at]) | u32::from(data[self.block_cores(block) + at]) << 16
    }

    /// The least tally of the cores of block `block` (of
    /// [`CORE_BLOCK`] cores): the GA's scans for a core with room step
    /// over a block whose least-occupied core has none. Current as the
    /// tallies are ([`Chromosome::tally`]).
    #[inline]
    pub(crate) fn least_tally(&self, block: usize) -> u32 {
        debug_assert!(self.tallied, "a tally read after an unweighted write");
        self.blocks[block].least_tally
    }

    /// The least tally of block `block`'s cores and how many of them
    /// hold it, from the tallies.
    fn recomputed_least_tally(&self, block: usize) -> (u32, u32) {
        let cores = self.block_cores(block);
        let (low, high) = self.blocks[block].data[..2 * cores].split_at(cores);
        let tallies = low.iter().zip(high);
        let tallies = tallies.map(|(&low, &high)| u32::from(low) | u32::from(high) << 16);
        tallies.fold((u32::MAX, 0), |(least, holding), tally| {
            match tally.cmp(&least) {
                Ordering::Less => (tally, 1),
                Ordering::Equal => (least, holding + 1),
                Ordering::Greater => (least, holding),
            }
        })
    }

    /// [`Chromosome::set_gene`], also moving the tally of the slot's core
    /// by `weight` per AG the slot gains or loses.
    ///
    /// # Panics
    ///
    /// As [`Chromosome::set_gene`], and when the tally leaves `0..2^32`.
    pub(crate) fn set_gene_weighted(
        &mut self,
        slot: usize,
        gene: Option<Gene>,
        weight: usize,
    ) -> Option<Gene> {
        debug_assert!(self.tallied, "a weighted write after an unweighted one");
        self.write(slot, gene, Some(weight))
    }

    /// Writes a slot and, given a weight, moves the tally of its core
    /// ([`Chromosome::set_gene_weighted`]).
    fn write(&mut self, slot: usize, gene: Option<Gene>, weight: Option<usize>) -> Option<Gene> {
        let stored = gene.map_or((0, 0), |g| {
            narrow(g).unwrap_or_else(|| {
                panic!(
                    "gene of {} AGs of node {} does not fit a chromosome slot",
                    g.ag_count, g.mvm
                )
            })
        });
        let core = self.core_of_slot(slot);
        let block = core / CORE_BLOCK;
        let local = slot - block * self.block_slots;
        let here = self.block(block);
        let slots = here.slots;
        let prev = here.is_occupied(local).then(|| here.stored(local));
        let word = slot / 64;
        if let Some(g) = prev {
            self.fp ^= Self::slot_token(slot, g);
            let row = self.row_start(g.mvm).expect("a stored node has a row");
            self.node_blocks[row + word] -= 1;
        }
        if let Some(g) = gene {
            self.fp ^= Self::slot_token(slot, g);
            let row = self.row_start(g.mvm).unwrap_or_else(|| self.add_row(g.mvm));
            self.node_blocks[row + word] += 1;
        }
        let tally = weight.map(|weight| {
            let was = self.tally(core);
            let ags = |g: Option<Gene>| g.map_or(0, |g| g.ag_count) * weight;
            let now = u32::try_from(was as usize + ags(gene) - ags(prev))
                .expect("a core's tally fits 32 bits");
            (was, now)
        });
        let tallies = 2 * self.block_cores(block);
        let entry = &mut self.blocks[block];
        let splits = |g: Option<Gene>| u32::from(g.is_some_and(|g| g.ag_count >= 2));
        let counts = &mut entry.genes;
        counts[0] = counts[0] + u32::from(gene.is_some()) - u32::from(prev.is_some());
        counts[1] = counts[1] + splits(gene) - splits(prev);
        let data = Arc::make_mut(&mut entry.data);
        write_slot(&mut data[tallies..], slots, local, stored, gene.is_some());
        if let Some((was, now)) = tally {
            let at = core % CORE_BLOCK;
            (data[at], data[tallies / 2 + at]) = (now as u16, (now >> 16) as u16);
            // The least tally moves only when a core falls below it, or
            // when the last core holding it rises: only then are the
            // block's tallies read again.
            let least = entry.least_tally;
            if now < least {
                (entry.least_tally, entry.holding_least) = (now, 1);
            } else if now == least && was != least {
                entry.holding_least += 1;
            } else if now > least && was == least {
                entry.holding_least -= 1;
                if entry.holding_least == 0 {
                    let least = self.recomputed_least_tally(block);
                    let entry = &mut self.blocks[block];
                    (entry.least_tally, entry.holding_least) = least;
                }
            }
            let entry = &self.blocks[block];
            debug_assert_eq!(
                (entry.least_tally, entry.holding_least),
                self.recomputed_least_tally(block),
                "the least tally of block {block} and its holders are current"
            );
        }
        debug_assert_eq!(
            self.blocks[block].genes,
            [false, true].map(|splittable| {
                let words = self.block(block).words(splittable);
                words.map(u64::count_ones).sum::<u32>()
            }),
            "the gene counts of block {block} match its bitsets"
        );
        for node in [prev, gene].into_iter().flatten().map(|g| g.mvm) {
            debug_assert_eq!(
                u32::from(self.node_row(node).expect("a written node has a row")[word]),
                self.block(block)
                    .node_mask(node as u16, local / SCAN_BLOCK)
                    .count_ones(),
                "the node-block index of node {node} matches block {word} of the column"
            );
        }
        prev
    }

    /// Gives `node` a row of the node-block index, all blocks empty,
    /// and returns where it starts.
    fn add_row(&mut self, node: MvmIdx) -> usize {
        if self.row_of.len() <= node {
            self.row_of.resize(node + 1, 0);
        }
        let start = self.node_blocks.len();
        self.node_blocks.resize(start + self.words(), 0);
        let rows = self.node_blocks.len() / self.words();
        self.row_of[node] = u32::try_from(rows).expect("a row per 16-bit node index");
        start
    }

    /// Where `node`'s row of the node-block index starts, if it has one.
    fn row_start(&self, node: MvmIdx) -> Option<usize> {
        let row = *self.row_of.get(node).filter(|&&row| row > 0)?;
        Some((row as usize - 1) * self.words())
    }

    /// `node`'s row of the node-block index, if it has one.
    fn node_row(&self, node: MvmIdx) -> Option<&[u8]> {
        let start = self.row_start(node)?;
        Some(&self.node_blocks[start..start + self.words()])
    }

    /// All `(slot, gene)` pairs in slot order. Iterates the occupancy
    /// bitset word-wise (skipping empty regions), so scans over sparse
    /// grids touch only occupied slots.
    pub fn genes(&self) -> impl Iterator<Item = (usize, Gene)> + '_ {
        let block_slots = self.block_slots;
        (0..self.blocks.len()).flat_map(move |b| {
            let block = self.block(b);
            let words = block.words(false).enumerate();
            words
                .flat_map(|(word, bits)| set_bits(bits).map(move |bit| word * 64 + bit))
                .map(move |local| (b * block_slots + local, block.stored(local)))
        })
    }

    /// Genes of one core.
    pub fn genes_of_core(&self, core: usize) -> impl Iterator<Item = (usize, Gene)> + '_ {
        let (block, local, first) = self.core_block(core);
        (0..self.max_nodes_per_core).filter_map(move |i| {
            let at = local + i;
            block.is_occupied(at).then(|| (first + i, block.stored(at)))
        })
    }

    /// First free slot of a core, if any.
    pub fn free_slot_of_core(&self, core: usize) -> Option<usize> {
        let (block, local, first) = self.core_block(core);
        (0..self.max_nodes_per_core)
            .find(|&i| !block.is_occupied(local + i))
            .map(|i| first + i)
    }

    /// Where a gene of `mvm` lives or could live on `core`, in one walk
    /// over the core's slots: `(slot already holding the node, first
    /// free slot)` — [`Chromosome::slot_of_node_on_core`] and
    /// [`Chromosome::free_slot_of_core`] together.
    pub(crate) fn probe_core(&self, core: usize, mvm: MvmIdx) -> (Option<usize>, Option<usize>) {
        let (block, local, first) = self.core_block(core);
        let mut free = None;
        for i in 0..self.max_nodes_per_core {
            if !block.is_occupied(local + i) {
                free = free.or(Some(first + i));
            } else if usize::from(block.mvm(local + i)) == mvm {
                return (Some(first + i), free);
            }
        }
        (None, free)
    }

    /// The slots whose content differs between `self` and `other`, in
    /// slot order (the slot-level diff behind
    /// `FitnessMemo::evaluate_mutated`). Blocks the two share are
    /// skipped unread; the others compare the columns directly, so no
    /// `Option` is built.
    pub(crate) fn differing_slots<'a>(
        &'a self,
        other: &'a Self,
    ) -> impl Iterator<Item = usize> + 'a {
        let block_slots = self.block_slots;
        let shared = |b: &usize| Arc::ptr_eq(&self.blocks[*b].data, &other.blocks[*b].data);
        (0..self.blocks.len())
            .filter(move |b| !shared(b))
            .flat_map(move |b| {
                let (mine, theirs) = (self.block(b), other.block(b));
                (0..mine.slots)
                    .filter(move |&local| mine.slot_differs(theirs, local))
                    .map(move |local| b * block_slots + local)
            })
    }

    /// Slot of a gene of `mvm` on `core`, if present.
    pub fn slot_of_node_on_core(&self, core: usize, mvm: MvmIdx) -> Option<usize> {
        self.probe_core(core, mvm).0
    }

    /// Slots holding a gene of `mvm`, in slot order. Visits only the
    /// words the node-block index lists for the node, and takes a
    /// word's slots from one match mask (`SlotBlock::node_mask`),
    /// so the GA finds one node's genes on a multi-thousand-core grid
    /// without reading the rest of the node column.
    pub(crate) fn slots_of_node(&self, mvm: MvmIdx) -> impl Iterator<Item = usize> + '_ {
        // A node index no slot can store has no row.
        let row = u16::try_from(mvm).ok().zip(self.node_row(mvm));
        row.into_iter().flat_map(move |(node, counts)| {
            let words = counts.iter().enumerate().filter(|&(_, &n)| n > 0);
            words.flat_map(move |(word, _)| {
                // A full block's slots are `max_nodes_per_core` words.
                let block = word / self.max_nodes_per_core;
                let local = word - block * self.max_nodes_per_core;
                let slots = set_bits(self.block(block).node_mask(node, local));
                slots.map(move |bit| word * SCAN_BLOCK + bit)
            })
        })
    }

    /// How many genes there are — with `splittable`, how many of two or
    /// more AGs.
    pub(crate) fn gene_count(&self, splittable: bool) -> usize {
        let counts = self.blocks.iter().map(|b| b.genes[usize::from(splittable)]);
        counts.map(|c| c as usize).sum()
    }

    /// The `index`-th gene in slot order (with `splittable`, among
    /// those of two or more AGs): element `index` of the list
    /// [`Chromosome::genes`] would yield, found by popcount without
    /// building it.
    pub(crate) fn nth_gene(&self, splittable: bool, index: usize) -> Option<(usize, Gene)> {
        let mut skip = index;
        for (b, block) in self.blocks.iter().enumerate() {
            let in_block = block.genes[usize::from(splittable)] as usize;
            if skip >= in_block {
                skip -= in_block;
                continue;
            }
            for (word, bits) in self.block(b).words(splittable).enumerate() {
                let here = bits.count_ones() as usize;
                if skip >= here {
                    skip -= here;
                    continue;
                }
                let mut rest = bits;
                for _ in 0..skip {
                    rest &= rest - 1;
                }
                // A marked slot is occupied.
                let local = word * 64 + rest.trailing_zeros() as usize;
                return Some((b * self.block_slots + local, self.block(b).stored(local)));
            }
        }
        None
    }

    /// Total AG instances of `mvm` across all cores.
    pub fn ag_total(&self, mvm: MvmIdx) -> usize {
        self.slots_of_node(mvm)
            .map(|slot| self.stored(slot).ag_count)
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

    /// `mvm`'s gene count per block as the node-block index holds it
    /// (all zero for a node without a row) — what the mapping tests
    /// check against the column.
    #[cfg(test)]
    fn indexed_counts(&self, mvm: MvmIdx) -> Vec<u8> {
        let row = self.node_row(mvm).map(<[u8]>::to_vec);
        row.unwrap_or_else(|| vec![0; self.words()])
    }

    /// Whether `self` and `other` hold block `block` of slots in one
    /// shared allocation — what the GA's sharing tests check.
    #[cfg(test)]
    pub(crate) fn shares_block(&self, other: &Self, block: usize) -> bool {
        Arc::ptr_eq(&self.blocks[block].data, &other.blocks[block].data)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Index of each node's first instance.
    first: Vec<usize>,
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
    /// a whole, positive number of replicas.
    pub fn from_chromosome(
        chromosome: &Chromosome,
        partitioning: &Partitioning,
    ) -> Result<Self, CompileError> {
        let mut instances = Vec::new();
        for mvm in 0..partitioning.len() {
            let a = partitioning.entry(mvm).ags_per_replica;
            // The node's `k`-th AG is slice `k % A` of replica `k / A`.
            let mut placed = 0usize;
            let mut place = |core: usize, count: usize| {
                for k in placed..placed + count {
                    instances.push(AgInstance {
                        mvm,
                        replica: k / a,
                        slice: k % a,
                        core,
                    });
                }
                placed += count;
            };
            // Pass 1: whole replicas within single genes, in slot order.
            let mut leftovers: Vec<(usize, usize)> = Vec::new(); // (core, count)
            for slot in chromosome.slots_of_node(mvm) {
                let core = chromosome.core_of_slot(slot);
                let count = chromosome.gene(slot).map_or(0, |g| g.ag_count);
                place(core, count - count % a);
                leftovers.push((core, count % a));
            }
            // Pass 2: pool leftovers into split replicas.
            for (core, count) in leftovers {
                place(core, count);
            }
        }
        Self::from_instances(instances, partitioning, chromosome.cores())
    }

    /// Assembles a mapping from its AG instances — the one constructor
    /// every mapping goes through, whether the GA, the epoch packer or
    /// a loaded artifact placed them. The instances must enumerate
    /// every `(node, replica, slice)` exactly once and in that order:
    /// node by node, each node's replicas `0..R` (`R ≥ 1`), each
    /// replica's slices `0..A`. The replication plan, the per-core
    /// index and the owners (each replica's slice-0 core) are derived.
    ///
    /// # Errors
    ///
    /// [`CompileError::MappingInvariant`] naming the first instance with
    /// a foreign node, slice or core, the first repeated one, or the
    /// first missing `(node, replica, slice)`.
    pub fn from_instances(
        instances: Vec<AgInstance>,
        partitioning: &Partitioning,
        cores: usize,
    ) -> Result<Self, CompileError> {
        let fail = |detail: String| Err(CompileError::MappingInvariant { detail });
        let entries = partitioning.entries();
        let mut per_core = vec![Vec::new(); cores];
        let mut owners: Vec<Vec<usize>> = vec![Vec::new(); entries.len()];
        let mut first = Vec::with_capacity(entries.len());
        // The `(node, replica, slice)` the enumeration expects next; once
        // a node holds a whole replica, the next node may start instead.
        let mut next = (0, 0, 0);
        let node_done = |(_, replica, slice): (usize, usize, usize)| replica > 0 && slice == 0;
        for (id, inst) in instances.iter().enumerate() {
            let at = (inst.mvm, inst.replica, inst.slice);
            if node_done(next) && at.0 > next.0 {
                next = (next.0 + 1, 0, 0);
            }
            let Some(entry) = entries.get(inst.mvm) else {
                return fail(format!(
                    "AG instance {id} names node {} of {}",
                    inst.mvm,
                    entries.len()
                ));
            };
            if inst.slice >= entry.ags_per_replica || inst.core >= cores {
                return fail(format!(
                    "AG instance {id} places slice {} of node {} ({} per replica) on core {} \
                     of {cores}",
                    inst.slice, inst.mvm, entry.ags_per_replica, inst.core
                ));
            }
            if at != next {
                let (what, (n, r, s)) = if at < next {
                    ("repeats", at)
                } else {
                    ("skips", next)
                };
                return fail(format!(
                    "AG instance {id} {what} node {n}, replica {r}, slice {s}"
                ));
            }
            if inst.slice == 0 {
                owners[inst.mvm].push(inst.core);
                if inst.replica == 0 {
                    first.push(id);
                }
            }
            per_core[inst.core].push(id);
            next = if inst.slice + 1 == entry.ags_per_replica {
                (inst.mvm, inst.replica + 1, 0)
            } else {
                (inst.mvm, inst.replica, inst.slice + 1)
            };
        }
        if !(node_done(next) && next.0 + 1 == entries.len()) {
            let (n, r, s) = if node_done(next) {
                (next.0 + 1, 0, 0)
            } else {
                next
            };
            return fail(format!(
                "no AG instance for node {n}, replica {r}, slice {s}"
            ));
        }
        let counts = owners.iter().map(Vec::len).collect();
        Ok(CoreMapping {
            replication: ReplicationPlan::from_counts(partitioning, counts),
            instances,
            per_core,
            owners,
            first,
        })
    }

    /// Number of cores that host at least one AG.
    pub fn active_cores(&self) -> usize {
        self.per_core.iter().filter(|v| !v.is_empty()).count()
    }

    /// The AG instances of `(mvm, replica)`, slice by slice: instances
    /// run node by node and replica by replica
    /// ([`CoreMapping::from_instances`]), so a replica's are one run.
    pub(crate) fn replica_instances(&self, mvm: MvmIdx, replica: usize) -> &[AgInstance] {
        let end = self.first.get(mvm + 1).map_or(self.instances.len(), |&e| e);
        let per_replica = (end - self.first[mvm]) / self.replication.count(mvm);
        let start = self.first[mvm] + replica * per_replica;
        &self.instances[start..start + per_replica]
    }

    /// Cores (deduplicated, sorted) hosting AGs of `(mvm, replica)`.
    pub(crate) fn replica_cores(&self, mvm: MvmIdx, replica: usize) -> Vec<usize> {
        let mut cores: Vec<usize> = self
            .replica_instances(mvm, replica)
            .iter()
            .map(|i| i.core)
            .collect();
        cores.sort_unstable();
        cores.dedup();
        cores
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

    #[test]
    fn tallies_follow_weighted_writes_across_blocks() {
        // 130 cores of 3 slots: two full blocks and a third of 2 cores.
        let mut c = Chromosome::empty(130, 3);
        let gene = |mvm, ag_count| Some(Gene { mvm, ag_count });
        c.set_gene_weighted(3 * 129 + 1, gene(7, 5), 2);
        c.set_gene_weighted(3 * 64, gene(7, 1), 3);
        assert_eq!((c.tally(129), c.tally(64), c.tally(0)), (10, 3, 0));
        assert_eq!((0..3).map(|b| c.least_tally(b)).collect::<Vec<_>>(), [0; 3]);
        // Both cores of the last block occupied: its least tally rises.
        c.set_gene_weighted(3 * 128, gene(8, 2), 4);
        assert_eq!(c.least_tally(2), 8);
        c.set_gene_weighted(3 * 129 + 1, None, 2);
        assert_eq!((c.tally(129), c.least_tally(2)), (0, 0));
        // A tally past 16 bits keeps its high half.
        c.set_gene_weighted(0, gene(1, 3), 70_000);
        assert_eq!((c.tally(0), c.least_tally(0)), (210_000, 0));
        // The tallies are no part of the grid.
        let plain = Chromosome::from_codes(&c.to_codes(), 130, 3);
        assert_eq!(plain, c);
        assert_eq!(plain.fingerprint(), c.fingerprint());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a tally read after an unweighted write")]
    fn a_tally_read_after_an_unweighted_write_panics() {
        let mut c = Chromosome::empty(2, 2);
        c.set_gene(
            0,
            Some(Gene {
                mvm: 1,
                ag_count: 1,
            }),
        );
        c.tally(0);
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
        // Node 0: replica 0 entirely on core 0 (6 >= 5); replica 1
        // split: slice 0 on core 0 (the 6th AG), slices 1-4 on core 1.
        assert_eq!(m.owners[0], vec![0, 0]);
        assert_eq!(m.replica_cores(0, 0), vec![0]);
        assert_eq!(m.replica_cores(0, 1), vec![0, 1]);
        assert_eq!(m.owners[1], vec![2]);
        assert_eq!(m.active_cores(), 3);
    }

    #[test]
    fn instances_are_checked_where_they_enter() {
        let (c, p) = filled();
        let m = CoreMapping::from_chromosome(&c, &p).unwrap();
        let again = CoreMapping::from_instances(m.instances.clone(), &p, 4).unwrap();
        assert_eq!(again, m);
        let rejects = |edit: &dyn Fn(&mut Vec<AgInstance>), needle: &str| {
            let mut instances = m.instances.clone();
            edit(&mut instances);
            let err = CoreMapping::from_instances(instances, &p, 4).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        };
        rejects(&|i| i[0].mvm = 2, "names node 2 of 2");
        rejects(&|i| i[0].slice = 5, "slice 5");
        rejects(&|i| i[0].core = 4, "core 4 of 4");
        rejects(&|i| i[3].replica = 2, "skips node 0, replica 0, slice 3");
        rejects(&|i| i.push(i[0]), "repeats node 0, replica 0, slice 0");
        rejects(
            &|i| i.truncate(10),
            "no AG instance for node 1, replica 0, slice 0",
        );
        rejects(
            &|i| i.truncate(12),
            "no AG instance for node 1, replica 0, slice 2",
        );
        rejects(&|i| i.swap(0, 1), "skips node 0, replica 0, slice 0");
        // Node 0's AG total must be a whole number of replicas.
        rejects(
            &|i| i.truncate(9),
            "no AG instance for node 0, replica 1, slice 4",
        );
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

        /// Genes of `mvm` per block of 64 slots.
        fn block_counts(&self, mvm: MvmIdx) -> Vec<u8> {
            let mut counts = vec![0; self.slots.len().div_ceil(64)];
            for (slot, _) in self.genes().into_iter().filter(|(_, g)| g.mvm == mvm) {
                counts[slot / 64] += 1;
            }
            counts
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
            hostile_at in 0usize..10_000,
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
            let mut write = |slot: usize, gene: Option<Gene>| {
                let prev = c.set_gene(slot, gene);
                proptest::prop_assert_eq!(prev, std::mem::replace(&mut model.slots[slot], gene));
            };
            for (at, kind, n, a) in writes {
                let gene = (kind > 1).then(|| Gene { mvm: node(n), ag_count: ags(a) });
                write(at % len, gene);
            }
            // Write orders the node-block index must survive, on nodes
            // 7 and 8, which the random writes never name. Node 7's row
            // is added after node 65 535's.
            let gene = |mvm, ag_count| Some(Gene { mvm, ag_count });
            let at = hostile_at % len;
            write((at + 2) % len, gene(65_535, 1));
            write((at + 3) % len, gene(7, 2));
            // A gene rewritten in place with a new AG count.
            write((at + 5) % len, gene(7, 1));
            write((at + 5) % len, gene(7, 3));
            // A removal that empties node 8's only block while node 7
            // stays in it (`at ^ 1` is in the same block of 64).
            if at ^ 1 < len {
                write(at, gene(8, 2));
                write(at ^ 1, gene(7, 1));
                write(at, None);
            }

            for slot in 0..len {
                proptest::prop_assert_eq!(c.gene(slot), model.slots[slot]);
            }
            proptest::prop_assert_eq!(c.genes().collect::<Vec<_>>(), model.genes());
            proptest::prop_assert_eq!(c.is_empty(), model.genes().is_empty());
            let probes = (0..nodes).map(node).chain([0, 7, 8, 9, 40_000, 65_535, 65_536, 70_000]);
            for mvm in probes.clone() {
                proptest::prop_assert_eq!(c.indexed_counts(mvm), model.block_counts(mvm));
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
            // fingerprint included, though its index rows differ: written
            // in reverse slot order, each gene over a transient one of a
            // node the grid ends without, and through the paper's
            // integer codes.
            let mut rebuilt = Chromosome::empty(cores, max_nodes);
            for (slot, gene) in model.genes().into_iter().rev() {
                rebuilt.set_gene(slot, Some(Gene { mvm: 40_000, ag_count: 1 }));
                rebuilt.set_gene(slot, Some(gene));
            }
            if let Some(free) = model.slots.iter().position(Option::is_none) {
                rebuilt.set_gene(free, Some(Gene { mvm: 9, ag_count: 2 }));
                rebuilt.set_gene(free, None);
            }
            proptest::prop_assert_eq!(&rebuilt, &c);
            proptest::prop_assert_eq!(rebuilt.fingerprint(), c.fingerprint());
            for mvm in probes {
                proptest::prop_assert_eq!(rebuilt.indexed_counts(mvm), model.block_counts(mvm));
            }
            // (A code of 0 AGs decodes to an empty slot.)
            if model.genes().iter().all(|(_, g)| g.ag_count > 0) {
                let coded = Chromosome::from_codes(&c.to_codes(), cores, max_nodes);
                proptest::prop_assert_eq!(coded.fingerprint(), c.fingerprint());
                proptest::prop_assert_eq!(&coded, &rebuilt);
                proptest::prop_assert_eq!(coded, c);
            }
        }
    }
}
