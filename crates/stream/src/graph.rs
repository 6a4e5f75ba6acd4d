//! The dataflow graph: a DAG of sources and stages with output taps.
//!
//! Construction is append-only, so the graph is acyclic and every edge
//! and tap names an existing node by construction; the builder refuses
//! any wiring that would break that.

use esp_types::{EspError, Result};

use crate::operator::{Source, Stage};

/// Identifies a node (source or stage) in a [`Dataflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Identifies an output tap registered with [`Dataflow::add_tap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TapId(pub(crate) usize);

pub(crate) enum NodeKind {
    Source(Box<dyn Source>),
    Stage {
        stage: Box<dyn Stage>,
        /// Upstream nodes, in the order their outputs are appended to
        /// the stage's input.
        inputs: Vec<NodeId>,
    },
}

pub(crate) struct Node {
    pub kind: NodeKind,
}

/// A directed acyclic dataflow of [`Source`]s and [`Stage`]s.
///
/// Construction is append-only: a stage may only reference nodes that
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

    /// Add a stage fed by `inputs`: each epoch its input is their
    /// outputs, appended in this order.
    ///
    /// Errors if any input id is unknown (including forward references,
    /// which would create a cycle).
    pub fn add_operator(&mut self, stage: Box<dyn Stage>, inputs: &[NodeId]) -> Result<NodeId> {
        let id = NodeId(self.nodes.len());
        if let Some(input) = inputs.iter().find(|input| input.0 >= id.0) {
            return Err(EspError::Config(format!(
                "stage '{}' references node {} which does not precede it",
                stage.name(),
                input.0
            )));
        }
        self.nodes.push(Node {
            kind: NodeKind::Stage {
                stage,
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
            NodeKind::Stage { stage, .. } => stage.name(),
        }
    }

    /// All node ids in insertion (= topological) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
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
    use crate::ops::UnionOp;

    #[test]
    fn forward_reference_rejected() {
        let mut df = Dataflow::new();
        let s = df.add_source(Box::new(ScriptedSource::new("s", vec![])));
        let bogus = NodeId(7);
        assert!(df.add_operator(Box::new(UnionOp::new()), &[bogus]).is_err());
        assert!(df.add_operator(Box::new(UnionOp::new()), &[s]).is_ok());
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
        let u = df.add_operator(Box::new(UnionOp::new()), &[s, s]).unwrap();
        assert_eq!(df.len(), 2);
        assert_eq!(df.node_ids().collect::<Vec<_>>(), vec![s, u]);
        assert_eq!(df.node_name(s), "s");
        assert_eq!(df.node_name(u), "union");
    }
}
