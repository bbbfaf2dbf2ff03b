//! The DNN graph: a DAG of operator nodes with resolved shapes.

use crate::{IrError, Op, Shape};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Identifier of a node within one [`Graph`].
///
/// Ids are dense indices assigned in insertion order; they are stable for
/// the lifetime of the graph (removal passes produce a *new* graph).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operator instance in the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Dense id of this node.
    pub id: NodeId,
    /// Unique human-readable name (e.g. `conv1_1`).
    pub name: String,
    /// The operator and its attributes.
    pub op: Op,
    /// Data predecessors, in operator-argument order.
    pub inputs: Vec<NodeId>,
    /// Resolved output shape.
    pub output_shape: Shape,
}

/// A directed acyclic graph of DNN operators with resolved shapes.
///
/// Construct via [`GraphBuilder`](crate::GraphBuilder); the builder
/// performs shape inference and validation so that every `Graph` in
/// circulation satisfies the invariants checked by [`Graph::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "GraphData", into = "GraphData")]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    /// successors[i] lists nodes consuming the output of node i.
    successors: Vec<Vec<NodeId>>,
}

/// Serialized form of [`Graph`]: the successor index is derived data and
/// is rebuilt on deserialization.
#[derive(Serialize, Deserialize)]
struct GraphData {
    name: String,
    nodes: Vec<Node>,
}

impl From<GraphData> for Graph {
    fn from(d: GraphData) -> Self {
        let mut g = Graph {
            name: d.name,
            nodes: d.nodes,
            successors: Vec::new(),
        };
        g.rebuild_successors();
        g
    }
}

impl From<Graph> for GraphData {
    fn from(g: Graph) -> Self {
        GraphData {
            name: g.name,
            nodes: g.nodes,
        }
    }
}

impl Graph {
    /// Assembles a graph from parts, validating structure and rebuilding
    /// the successor index.
    ///
    /// # Errors
    ///
    /// Returns an error if node ids are not dense insertion-order ids, if
    /// names are duplicated, if any input reference is out of range, or
    /// if the graph is cyclic or lacks an input node.
    pub(crate) fn from_nodes(name: impl Into<String>, nodes: Vec<Node>) -> Result<Self, IrError> {
        let mut g = Graph {
            name: name.into(),
            nodes,
            successors: Vec::new(),
        };
        g.rebuild_successors();
        g.validate()?;
        Ok(g)
    }

    /// Graph name (typically the model name, e.g. `vgg16`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes, including the input node(s).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes in insertion (id) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks a node up by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Ids of the graph input nodes.
    pub fn inputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Input { .. }))
            .map(|n| n.id)
    }

    /// Ids of nodes with no consumers (the network outputs).
    pub fn outputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.successors
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_empty())
            .map(|(i, _)| NodeId(i))
    }

    /// Consumers of `id`'s output.
    pub(crate) fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.successors[id.0]
    }

    /// Producers feeding `id`.
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).inputs
    }

    /// Nodes in a topological order (inputs first).
    ///
    /// The order is deterministic: among ready nodes the one with the
    /// smallest id is emitted first, so compilation results are
    /// reproducible run to run.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut indegree: Vec<usize> = self.nodes.iter().map(|n| n.inputs.len()).collect();
        // A BinaryHeap<Reverse<_>> would also work; with the dense-id
        // invariant a sorted ready queue is simpler and fast enough.
        let mut ready: VecDeque<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.inputs.is_empty())
            .map(|n| n.id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = ready.pop_front() {
            order.push(id);
            for &succ in self.successors(id) {
                indegree[succ.0] -= 1;
                if indegree[succ.0] == 0 {
                    // Insert keeping the queue sorted by id for determinism.
                    let pos = ready.iter().position(|&r| r.0 > succ.0);
                    match pos {
                        Some(p) => ready.insert(p, succ),
                        None => ready.push_back(succ),
                    }
                }
            }
        }
        order
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// * [`IrError::UnknownNode`] — an input reference is out of range or
    ///   ids are not dense insertion-order indices.
    /// * [`IrError::DuplicateName`] — two nodes share a name.
    /// * [`IrError::ArityMismatch`] — operator input count is wrong.
    /// * [`IrError::CyclicGraph`] — a cycle exists.
    /// * [`IrError::MissingInput`] — no [`Op::Input`] node.
    pub fn validate(&self) -> Result<(), IrError> {
        let mut names = HashSet::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.0 != i {
                return Err(IrError::UnknownNode { id: n.id.0 });
            }
            if !names.insert(n.name.as_str()) {
                return Err(IrError::DuplicateName {
                    name: n.name.clone(),
                });
            }
            for inp in &n.inputs {
                if inp.0 >= self.nodes.len() {
                    return Err(IrError::UnknownNode { id: inp.0 });
                }
            }
            match n.op.arity() {
                Some(k) if n.inputs.len() != k => {
                    return Err(IrError::ArityMismatch {
                        node: n.name.clone(),
                        expected: k,
                        actual: n.inputs.len(),
                    })
                }
                None if n.inputs.len() < 2 => {
                    return Err(IrError::ArityMismatch {
                        node: n.name.clone(),
                        expected: 2,
                        actual: n.inputs.len(),
                    })
                }
                _ => {}
            }
        }
        if self.topo_order().len() != self.nodes.len() {
            return Err(IrError::CyclicGraph);
        }
        if self.inputs().next().is_none() {
            return Err(IrError::MissingInput);
        }
        Ok(())
    }

    /// `true` while any node's output shape still carries the symbolic
    /// sequence length (the graph must be bound via
    /// [`transform::bind_seq_len`](crate::transform::bind_seq_len) before
    /// compilation).
    pub fn has_symbolic_dims(&self) -> bool {
        self.nodes.iter().any(|n| n.output_shape.is_symbolic())
    }

    /// Ids of convolution / fully connected nodes (the MVM producers that
    /// undergo partitioning and replication), in topological order.
    pub fn mvm_nodes(&self) -> Vec<NodeId> {
        self.topo_order()
            .into_iter()
            .filter(|&id| self.node(id).op.is_mvm())
            .collect()
    }

    /// For node `id`, returns the nearest MVM (conv/fc) ancestors reached
    /// by walking producer edges through non-MVM nodes.
    ///
    /// The LL scheduler uses this to find the *provider* conv layer(s) of
    /// each node when deriving waiting percentages, and the scheduler
    /// assigns non-MVM work to cores following the replication of the
    /// predecessor conv layer (Section IV-D.2).
    pub fn mvm_providers(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = HashSet::new();
        let mut stack: Vec<NodeId> = self.predecessors(id).to_vec();
        let mut providers = Vec::new();
        while let Some(p) = stack.pop() {
            if !seen.insert(p) {
                continue;
            }
            if self.node(p).op.is_mvm() {
                providers.push(p);
            } else {
                stack.extend(self.predecessors(p).iter().copied());
            }
        }
        providers.sort();
        providers
    }

    /// Rebuilds the successor adjacency (called after deserialization and
    /// by `from_nodes`).
    pub(crate) fn rebuild_successors(&mut self) {
        let mut succ = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &inp in &n.inputs {
                if inp.0 < succ.len() {
                    succ[inp.0].push(n.id);
                }
            }
        }
        self.successors = succ;
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph {} ({} nodes)", self.name, self.nodes.len())?;
        for n in &self.nodes {
            write!(f, "  {} {} [{}] <-", n.id, n.name, n.op)?;
            for i in &n.inputs {
                write!(f, " {i}")?;
            }
            writeln!(f, "  -> {}", n.output_shape)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::collections::HashMap;

    fn diamond() -> Graph {
        // input -> conv_a -> {conv_b, conv_c} -> add -> out
        let mut b = GraphBuilder::new("diamond");
        let x = b.input("x", [8, 16, 16]);
        let a = b.conv2d("a", x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let l = b.conv2d("b", a, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.conv2d("c", a, 8, (1, 1), (1, 1), (0, 0)).unwrap();
        let _y = b.eltwise_add("add", l, r).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        assert_eq!(order.len(), g.node_count());
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in g.nodes() {
            for &p in &n.inputs {
                assert!(pos[&p] < pos[&n.id], "{p} must precede {}", n.id);
            }
        }
    }

    #[test]
    fn successors_are_inverse_of_predecessors() {
        let g = diamond();
        for n in g.nodes() {
            for &p in g.predecessors(n.id) {
                assert!(g.successors(p).contains(&n.id));
            }
        }
    }

    #[test]
    fn outputs_have_no_successors() {
        let g = diamond();
        let outs: Vec<_> = g.outputs().collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(g.node(outs[0]).name, "add");
    }

    #[test]
    fn mvm_providers_skip_non_mvm_nodes() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", [4, 8, 8]);
        let c1 = b.conv2d("c1", x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.relu("r", c1).unwrap();
        let p = b.max_pool("p", r, (2, 2), (2, 2), (0, 0)).unwrap();
        let c2 = b.conv2d("c2", p, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.mvm_providers(c2), vec![c1]);
        // The first conv's provider walk reaches the input and finds none.
        assert!(g.mvm_providers(c1).is_empty());
        let _ = p;
    }

    #[test]
    fn validate_rejects_cycles() {
        let g = diamond();
        let mut nodes = g.nodes().to_vec();
        // Introduce a back edge: a (id 1) now also consumes add (id 4).
        nodes[1].inputs.push(NodeId(4));
        // Fix arity by swapping the op for an eltwise (2 inputs).
        nodes[1].op = Op::Eltwise(crate::EltwiseKind::Add);
        let err = Graph::from_nodes("bad", nodes).unwrap_err();
        assert_eq!(err, IrError::CyclicGraph);
    }

    #[test]
    fn validate_rejects_duplicate_names() {
        let g = diamond();
        let mut nodes = g.nodes().to_vec();
        nodes[2].name = "a".into();
        let err = Graph::from_nodes("bad", nodes).unwrap_err();
        assert!(matches!(err, IrError::DuplicateName { .. }));
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let g2: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, g2);
        // Derived successor index must have been rebuilt.
        assert_eq!(g2.successors(NodeId(1)).len(), 2);
    }
}
