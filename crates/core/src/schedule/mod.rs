//! Dataflow scheduling (paper Section IV-D): lowering a mapping into
//! per-core execution structures for the two pipeline modes.
//!
//! The paper deliberately leaves the operation-sequence format open
//! ("a series of instructions, or a schedule of basic operators"); this
//! implementation emits *schedules of basic operators* — compact
//! per-core programs whose basic operations are MVM, VEC, COMM and MEM —
//! which the cycle-accurate simulator interprets.

mod ht;
mod ll;

pub use ht::{slice_rows, HtNodeProgram, HtSchedule, HtSend, HtVecTask};
pub use ll::{LlProviderRef, LlReplica, LlSchedule, LlUnit, LlUnitKind};

use crate::mapping::CoreMapping;
use crate::partition::Partitioning;
use pimcomp_ir::{Graph, NodeId, Op};

/// A compiled dataflow schedule, one variant per pipeline mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Layer-by-layer pipeline over different inferences (Algorithm 1).
    HighThroughput(HtSchedule),
    /// Element-granular streaming pipeline within one inference.
    LowLatency(LlSchedule),
}

impl Schedule {
    /// The HT schedule, if this is one.
    pub fn as_ht(&self) -> Option<&HtSchedule> {
        match self {
            Schedule::HighThroughput(s) => Some(s),
            Schedule::LowLatency(_) => None,
        }
    }

    /// The LL schedule, if this is one.
    pub fn as_ll(&self) -> Option<&LlSchedule> {
        match self {
            Schedule::LowLatency(s) => Some(s),
            Schedule::HighThroughput(_) => None,
        }
    }
}

/// Operators with nonzero VFU/memory cost (pure reshapes are free;
/// BN/dropout are assumed folded).
fn is_costed_vec(op: &Op) -> bool {
    matches!(
        op,
        Op::Pool(_)
            | Op::GlobalAvgPool
            | Op::Activation(_)
            | Op::Concat
            | Op::Eltwise(_)
            | Op::Softmax
            | Op::Lrn(_)
            | Op::Pad(_)
            | Op::LayerNorm
            | Op::Bmm(_)
            | Op::Attention(_)
    )
}

/// Cores a non-MVM node's work spreads over: owner cores of the nearest
/// MVM providers' replicas (Section IV-D.2), falling back to core 0.
fn spread_cores(
    graph: &Graph,
    partitioning: &Partitioning,
    mapping: &CoreMapping,
    node: NodeId,
) -> Vec<usize> {
    let mut cores: Vec<usize> = graph
        .mvm_providers(node)
        .into_iter()
        .filter_map(|p| partitioning.index_of(p))
        .flat_map(|idx| mapping.owners[idx].iter().copied())
        .collect();
    cores.sort_unstable();
    cores.dedup();
    if cores.is_empty() {
        cores.push(0);
    }
    cores
}

#[cfg(test)]
pub(crate) use ht::tests::setup as split_replica_fixture;
