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
use pimcomp_ir::{Graph, Node, NodeId, Op};

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

/// The activations that fold into their producer, dense by node index:
/// an [`Op::Activation`] whose only input is an MVM node that no other
/// node reads. The replica's owner core accumulates, activates and
/// stores (Algorithm 1), so the MVM side's VFU work already holds the
/// activation, and neither scheduler builds a stage of its own for it;
/// consumers read the MVM node's output grid, which is the
/// activation's.
pub(crate) fn folded_activations(graph: &Graph) -> Vec<bool> {
    let mut readers = vec![0usize; graph.node_count()];
    for node in graph.nodes() {
        for &p in &node.inputs {
            readers[p.index()] += 1;
        }
    }
    let folds = |node: &Node| match node.inputs[..] {
        [p] => graph.node(p).op.is_mvm() && readers[p.index()] == 1,
        _ => false,
    };
    graph
        .nodes()
        .iter()
        .map(|node| matches!(node.op, Op::Activation(_)) && folds(node))
        .collect()
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mapping::{Chromosome, Gene};
    use crate::waiting::DepInfo;
    use pimcomp_arch::HardwareConfig;
    use pimcomp_ir::GraphBuilder;

    /// The three boundaries of the fold on `puma`, each MVM node one
    /// replica on its own core (node `i` on core `i`): a relu that is
    /// its conv's only reader (`sole`), a relu after an `Add`
    /// (`after_add`), and a relu whose conv a second node also reads
    /// (`shared`).
    pub(crate) fn fold_fixture(
        kind: &str,
    ) -> (Graph, Partitioning, CoreMapping, DepInfo, HardwareConfig) {
        let mut b = GraphBuilder::new(kind);
        let x = b.input("x", [16, 8, 8]);
        let c1 = b.conv2d("c1", x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        match kind {
            "sole" => {
                let r = b.relu("r", c1).unwrap();
                b.conv2d("c2", r, 16, (3, 3), (1, 1), (1, 1)).unwrap();
            }
            "after_add" => {
                let c2 = b.conv2d("c2", x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
                let a = b.eltwise_add("a", c1, c2).unwrap();
                b.relu("r", a).unwrap();
            }
            "shared" => {
                let r = b.relu("r", c1).unwrap();
                b.eltwise_add("a", r, c1).unwrap();
            }
            _ => unreachable!("unknown fold fixture {kind}"),
        }
        let g = b.finish().unwrap();
        let hw = HardwareConfig::puma();
        let part = Partitioning::new(&g, &hw).unwrap();
        let mut c = Chromosome::empty(hw.total_cores(), 4);
        for mvm in 0..part.len() {
            let ag_count = part.entry(mvm).ags_per_replica;
            c.set_gene(4 * mvm, Some(Gene { mvm, ag_count }));
        }
        let mapping = CoreMapping::from_chromosome(&c, &part).unwrap();
        let dep = DepInfo::analyze(&g);
        (g, part, mapping, dep, hw)
    }

    #[test]
    fn only_a_sole_reader_activation_on_an_mvm_node_folds() {
        for (kind, folds) in [("sole", true), ("after_add", false), ("shared", false)] {
            let (g, ..) = fold_fixture(kind);
            let relu = g.node_by_name("r").unwrap().id;
            let folded = folded_activations(&g);
            assert_eq!(folded[relu.index()], folds, "{kind}");
            assert_eq!(folded.iter().filter(|&&f| f).count(), usize::from(folds));
        }
    }
}
