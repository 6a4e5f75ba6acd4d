//! The dataflow graph: a DAG of sources and operators with output taps.
//!
//! Structural checks over a built graph (zero-input operators, dangling
//! outputs, missing taps) live in `esp_lint::GraphSpec::of(&df).validate()`;
//! the graph itself only refuses wiring it cannot represent.

use esp_types::{EspError, Result};

use crate::operator::{Operator, Source};

/// Identifies a node (source or operator) in a [`Dataflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in [`Dataflow`] insertion order — the same
    /// indexing [`Dataflow::node_ids`] iterates in, usable as a stable
    /// handle by external tooling (e.g. graph linters).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Identifies an output tap registered with [`Dataflow::add_tap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TapId(pub(crate) usize);

impl TapId {
    /// The tap's index in [`Dataflow::add_tap`] registration order.
    pub fn index(&self) -> usize {
        self.0
    }
}

pub(crate) enum NodeKind {
    Source(Box<dyn Source>),
    Operator {
        op: Box<dyn Operator>,
        /// `inputs[port]` = upstream node feeding that port.
        inputs: Vec<NodeId>,
    },
}

pub(crate) struct Node {
    pub kind: NodeKind,
}

/// A directed acyclic dataflow of [`Source`]s and [`Operator`]s.
///
/// Construction is append-only: an operator may only reference nodes that
/// already exist, so the graph is acyclic by construction and node ids are
/// already a topological order. Output is observed through *taps*: any node
/// may be tapped, and the runner records that node's per-epoch output.
pub struct Dataflow {
    pub(crate) nodes: Vec<Node>,
    /// taps[i] = node whose output tap `i` observes.
    pub(crate) taps: Vec<NodeId>,
}

impl Dataflow {
    /// Create an empty dataflow.
    pub fn new() -> Dataflow {
        Dataflow {
            nodes: Vec::new(),
            taps: Vec::new(),
        }
    }

    /// Add a source node.
    pub fn add_source(&mut self, src: Box<dyn Source>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind: NodeKind::Source(src),
        });
        id
    }

    /// Add an operator fed by `inputs` (one upstream node per input port).
    ///
    /// Errors if any input id is unknown (including forward references,
    /// which would create a cycle) or the port count does not match
    /// [`Operator::n_inputs`].
    pub fn add_operator(&mut self, op: Box<dyn Operator>, inputs: &[NodeId]) -> Result<NodeId> {
        let id = NodeId(self.nodes.len());
        for input in inputs {
            if input.0 >= id.0 {
                return Err(EspError::Config(format!(
                    "operator '{}' references node {} which does not precede it",
                    op.name(),
                    input.0
                )));
            }
        }
        if op.n_inputs() != inputs.len() {
            return Err(EspError::Config(format!(
                "operator '{}' expects {} input(s) but was wired with {}",
                op.name(),
                op.n_inputs(),
                inputs.len()
            )));
        }
        self.nodes.push(Node {
            kind: NodeKind::Operator {
                op,
                inputs: inputs.to_vec(),
            },
        });
        Ok(id)
    }

    /// Register an output tap on `node`. The runner collects that node's
    /// per-epoch output batches under the returned [`TapId`].
    pub fn add_tap(&mut self, node: NodeId) -> Result<TapId> {
        if node.0 >= self.nodes.len() {
            return Err(EspError::Config(format!(
                "tap references unknown node {}",
                node.0
            )));
        }
        let id = TapId(self.taps.len());
        self.taps.push(node);
        Ok(id)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the dataflow has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Name of a node, for diagnostics.
    pub fn node_name(&self, id: NodeId) -> &str {
        match &self.nodes[id.0].kind {
            NodeKind::Source(s) => s.name(),
            NodeKind::Operator { op, .. } => op.name(),
        }
    }

    /// All node ids in insertion (= topological) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// True when `id` is a source node (as opposed to an operator).
    pub fn is_source(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.0].kind, NodeKind::Source(_))
    }

    /// The upstream nodes feeding each input port of `id` (empty for
    /// sources).
    pub fn node_inputs(&self, id: NodeId) -> &[NodeId] {
        match &self.nodes[id.0].kind {
            NodeKind::Source(_) => &[],
            NodeKind::Operator { inputs, .. } => inputs,
        }
    }

    /// The nodes observed by taps, in tap order.
    pub fn tapped_nodes(&self) -> &[NodeId] {
        &self.taps
    }
}

impl Default for Dataflow {
    fn default() -> Self {
        Dataflow::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::ScriptedSource;
    use crate::ops::PassThrough;

    #[test]
    fn wiring_validates_port_count() {
        let mut df = Dataflow::new();
        let s = df.add_source(Box::new(ScriptedSource::new("s", vec![])));
        // PassThrough has one input; wiring two is a config error.
        let err = df
            .add_operator(Box::new(PassThrough::new()), &[s, s])
            .unwrap_err();
        assert!(matches!(err, EspError::Config(_)));
    }

    #[test]
    fn forward_reference_rejected() {
        let mut df = Dataflow::new();
        let s = df.add_source(Box::new(ScriptedSource::new("s", vec![])));
        let bogus = NodeId(7);
        assert!(df
            .add_operator(Box::new(PassThrough::new()), &[bogus])
            .is_err());
        assert!(df.add_operator(Box::new(PassThrough::new()), &[s]).is_ok());
    }

    #[test]
    fn tap_requires_existing_node() {
        let mut df = Dataflow::new();
        assert!(df.add_tap(NodeId(0)).is_err());
        let s = df.add_source(Box::new(ScriptedSource::new("s", vec![])));
        assert!(df.add_tap(s).is_ok());
    }

    #[test]
    fn introspection_exposes_structure() {
        let mut df = Dataflow::new();
        let s = df.add_source(Box::new(ScriptedSource::new("s", vec![])));
        let p = df.add_operator(Box::new(PassThrough::new()), &[s]).unwrap();
        let tap = df.add_tap(p).unwrap();
        assert!(df.is_source(s));
        assert!(!df.is_source(p));
        assert_eq!(df.node_inputs(p), &[s]);
        assert!(df.node_inputs(s).is_empty());
        assert_eq!(df.tapped_nodes(), &[p]);
        assert_eq!(df.node_ids().count(), 2);
        assert_eq!(tap.index(), 0);
        assert_eq!(df.node_name(s), "s");
    }
}
