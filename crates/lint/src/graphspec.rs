//! Structural linting of operator graphs.
//!
//! A [`Dataflow`](esp_stream::Dataflow) is built append-only — every
//! operator names its inputs at insertion, so cycles and forward
//! references are unrepresentable by construction. [`GraphSpec`] is the
//! edge-list form a *planned* topology takes before it is lowered to a
//! `Dataflow` (hand-written wiring plans, generated deployments), where
//! nothing rules those defects out; [`GraphSpec::validate`] finds them
//! statically. [`GraphSpec::of`] snapshots an existing `Dataflow` into
//! the same representation so one checker serves both.

use esp_stream::Dataflow;
use esp_types::Diagnostic;

/// What a node in a planned topology is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A tuple producer; takes no inputs.
    Source,
    /// An operator expecting exactly `n_inputs` input ports.
    Operator {
        /// Number of input ports the operator declares.
        n_inputs: usize,
    },
}

/// One node of a planned topology.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Display name, used in diagnostics.
    pub name: String,
    /// Whether this is a source or an operator, and its arity.
    pub kind: NodeKind,
}

/// One directed edge of a planned topology: `from`'s output feeds
/// `to`'s input port `port`.
#[derive(Debug, Clone, Copy)]
pub struct GraphEdge {
    /// Index of the producing node.
    pub from: usize,
    /// Index of the consuming node.
    pub to: usize,
    /// Input port on the consuming node (0-based).
    pub port: usize,
}

/// A planned operator topology in edge-list form.
#[derive(Debug, Clone, Default)]
pub struct GraphSpec {
    /// Nodes, addressed by index from [`GraphSpec::edges`] and
    /// [`GraphSpec::taps`].
    pub nodes: Vec<GraphNode>,
    /// Directed edges wiring outputs to input ports.
    pub edges: Vec<GraphEdge>,
    /// Indices of nodes whose output is observed downstream.
    pub taps: Vec<usize>,
}

impl GraphSpec {
    /// Snapshot an existing dataflow into spec form, so the structural
    /// checks (and any tooling built on them) can run over graphs that
    /// were assembled programmatically.
    pub fn of(flow: &Dataflow) -> GraphSpec {
        let mut spec = GraphSpec::default();
        for id in flow.node_ids() {
            let kind = if flow.is_source(id) {
                NodeKind::Source
            } else {
                NodeKind::Operator {
                    n_inputs: flow.node_inputs(id).len(),
                }
            };
            spec.nodes.push(GraphNode {
                name: flow.node_name(id).to_string(),
                kind,
            });
            for (port, input) in flow.node_inputs(id).iter().enumerate() {
                spec.edges.push(GraphEdge {
                    from: input.index(),
                    to: id.index(),
                    port,
                });
            }
        }
        spec.taps = flow.tapped_nodes().iter().map(|t| t.index()).collect();
        spec
    }

    /// Check the topology and return every finding, sorted for
    /// presentation. Errors (cycles, arity mismatches, dangling
    /// references) make the plan unrunnable;
    /// warnings (unconsumed outputs, no taps) flag work that would be
    /// silently discarded.
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let n = self.nodes.len();

        // Dangling references first: later checks index by node.
        let mut edges_ok = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            if e.from >= n || e.to >= n {
                diags.push(Diagnostic::error(
                    "E0406",
                    format!(
                        "edge {} -> {} (port {}) references a node that does not exist \
                         ({} nodes declared)",
                        e.from, e.to, e.port, n
                    ),
                ));
            } else {
                edges_ok.push(*e);
            }
        }
        for &t in &self.taps {
            if t >= n {
                diags.push(Diagnostic::error(
                    "E0406",
                    format!("tap references node {t}, but only {n} nodes are declared"),
                ));
            }
        }

        // Per-node port bookkeeping.
        let mut inbound: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &edges_ok {
            inbound[e.to].push(e.port);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let ports = &mut inbound[i];
            ports.sort_unstable();
            match node.kind {
                NodeKind::Source => {
                    if !ports.is_empty() {
                        diags.push(Diagnostic::error(
                            "E0405",
                            format!(
                                "source '{}' has {} inbound edge(s); sources take no inputs",
                                node.name,
                                ports.len()
                            ),
                        ));
                    }
                }
                NodeKind::Operator { n_inputs } => {
                    if n_inputs == 0 {
                        diags.push(
                            Diagnostic::error(
                                "E0404",
                                format!("operator '{}' declares zero inputs", node.name),
                            )
                            .with_note(
                                "an operator with no inputs never fires; if it produces \
                                 tuples it should be a source",
                            ),
                        );
                    } else if ports.len() != n_inputs
                        || ports.iter().enumerate().any(|(want, &got)| want != got)
                    {
                        diags.push(
                            Diagnostic::error(
                                "E0405",
                                format!(
                                    "operator '{}' expects {} input port(s) but is wired \
                                     with {:?}",
                                    node.name,
                                    n_inputs,
                                    ports.as_slice()
                                ),
                            )
                            .with_note("every port 0..n_inputs must be fed by exactly one edge"),
                        );
                    }
                }
            }
        }

        if let Some(cycle) = self.find_cycle(&edges_ok) {
            let names: Vec<&str> = cycle.iter().map(|&i| self.nodes[i].name.as_str()).collect();
            diags.push(
                Diagnostic::error(
                    "E0401",
                    format!("operator graph contains a cycle: {}", names.join(" -> ")),
                )
                .with_note(
                    "push dataflow over bounded queues deadlocks on a cycle: every \
                     operator waits on its own downstream",
                ),
            );
        }

        // Dangling outputs: produced but never consumed nor tapped.
        let mut consumed = vec![false; n];
        for e in &edges_ok {
            consumed[e.from] = true;
        }
        for &t in self.taps.iter().filter(|&&t| t < n) {
            consumed[t] = true;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if !consumed[i] {
                diags.push(
                    Diagnostic::warning(
                        "E0402",
                        format!(
                            "output of '{}' is neither consumed by another operator \
                             nor tapped",
                            node.name
                        ),
                    )
                    .with_note("its tuples are computed and immediately discarded"),
                );
            }
        }
        if n > 0 && self.taps.is_empty() {
            diags.push(
                Diagnostic::warning("E0403", "graph has no taps; no output is observable")
                    .with_note("add a tap to the node whose cleaned stream you consume"),
            );
        }

        // Transitively dead regions: the direct E0402 check sees one hop;
        // a backward reachability fixpoint over the valid edges finds
        // nodes whose output *is* consumed, but only by chains that never
        // reach a tap — the whole sub-graph computes tuples nobody sees.
        if self.taps.iter().any(|&t| t < n) {
            let mut graph = crate::flow::FlowGraph::new(n);
            let mut feeds = vec![false; n];
            for e in &edges_ok {
                graph.add_edge(e.from, e.to);
                feeds[e.from] = true;
            }
            let mut is_tap = vec![false; n];
            for &t in self.taps.iter().filter(|&&t| t < n) {
                is_tap[t] = true;
            }
            let facts = crate::flow::fixpoint(
                &graph,
                crate::flow::Direction::Backward,
                &false,
                |i, reaches: &bool| *reaches || is_tap[i],
            );
            for (i, node) in self.nodes.iter().enumerate() {
                if feeds[i] && !facts.exit[i] {
                    diags.push(
                        Diagnostic::warning(
                            "E0902",
                            format!(
                                "output of '{}' is consumed, but never reaches any tap",
                                node.name
                            ),
                        )
                        .with_note(
                            "every downstream path from this node ends in an unobserved \
                             operator; tap one of them or remove the branch",
                        ),
                    );
                }
            }
        }

        esp_types::diag::sort_diagnostics(&mut diags);
        diags
    }

    /// DFS cycle detection (white/grey/black). Returns one witness cycle
    /// as a node-index path `a -> ... -> a`.
    fn find_cycle(&self, edges: &[GraphEdge]) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in edges {
            succ[e.from].push(e.to);
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut mark = vec![Mark::White; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if mark[start] != Mark::White {
                continue;
            }
            // Iterative DFS: (node, next successor index) stack.
            let mut stack = vec![(start, 0usize)];
            mark[start] = Mark::Grey;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if let Some(&s) = succ[node].get(*next) {
                    *next += 1;
                    match mark[s] {
                        Mark::White => {
                            mark[s] = Mark::Grey;
                            parent[s] = node;
                            stack.push((s, 0));
                        }
                        Mark::Grey => {
                            // Back edge: walk parents from `node` to `s`.
                            let mut path = vec![s];
                            let mut cur = node;
                            while cur != s {
                                path.push(cur);
                                cur = parent[cur];
                            }
                            path.push(s);
                            path.reverse();
                            return Some(path);
                        }
                        Mark::Black => {}
                    }
                } else {
                    mark[node] = Mark::Black;
                    stack.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_stream::{ops::PassThrough, ScriptedSource};

    fn src(name: &str) -> GraphNode {
        GraphNode {
            name: name.into(),
            kind: NodeKind::Source,
        }
    }

    fn op(name: &str, n_inputs: usize) -> GraphNode {
        GraphNode {
            name: name.into(),
            kind: NodeKind::Operator { n_inputs },
        }
    }

    fn edge(from: usize, to: usize, port: usize) -> GraphEdge {
        GraphEdge { from, to, port }
    }

    fn codes(spec: &GraphSpec) -> Vec<&'static str> {
        spec.validate().into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn linear_chain_is_clean() {
        let spec = GraphSpec {
            nodes: vec![src("in"), op("point", 1), op("smooth", 1)],
            edges: vec![edge(0, 1, 0), edge(1, 2, 0)],
            taps: vec![2],
        };
        assert!(codes(&spec).is_empty(), "{:?}", spec.validate());
    }

    #[test]
    fn cycle_is_an_error() {
        let spec = GraphSpec {
            nodes: vec![op("a", 1), op("b", 1)],
            edges: vec![edge(0, 1, 0), edge(1, 0, 0)],
            taps: vec![1],
        };
        assert!(codes(&spec).contains(&"E0401"), "{:?}", spec.validate());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let spec = GraphSpec {
            nodes: vec![op("a", 1)],
            edges: vec![edge(0, 0, 0)],
            taps: vec![0],
        };
        assert!(codes(&spec).contains(&"E0401"));
    }

    #[test]
    fn dangling_output_and_missing_taps_warn() {
        let spec = GraphSpec {
            nodes: vec![src("in"), op("smooth", 1)],
            edges: vec![edge(0, 1, 0)],
            taps: vec![],
        };
        let diags = spec.validate();
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E0402"));
        assert!(codes.contains(&"E0403"));
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    }

    #[test]
    fn consumed_branch_that_never_reaches_a_tap_is_e0902() {
        // in → point → smooth(tap), plus a side branch in → fork → sink
        // where sink is unobserved: fork's output is consumed (by sink),
        // but nothing on that branch reaches the tap.
        let spec = GraphSpec {
            nodes: vec![
                src("in"),
                op("point", 1),
                op("smooth", 1),
                op("fork", 1),
                op("sink", 1),
            ],
            edges: vec![edge(0, 1, 0), edge(1, 2, 0), edge(0, 3, 0), edge(3, 4, 0)],
            taps: vec![2],
        };
        let diags = spec.validate();
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "E0902")
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(dead.len(), 1, "{diags:#?}");
        assert!(dead[0].contains("'fork'"), "{dead:?}");
        // The chain end itself is the one-hop E0402, not E0902.
        assert!(
            diags
                .iter()
                .any(|d| d.code == "E0402" && d.message.contains("'sink'")),
            "{diags:#?}"
        );
        // `in` feeds both branches; the tapped one keeps it alive.
        assert!(!dead[0].contains("'in'"));
    }

    #[test]
    fn zero_input_operator_is_an_error() {
        let spec = GraphSpec {
            nodes: vec![op("orphan", 0)],
            edges: vec![],
            taps: vec![0],
        };
        assert!(codes(&spec).contains(&"E0404"));
    }

    #[test]
    fn fan_in_mismatches() {
        // Missing port 1, duplicate port 0, and an edge into a source.
        let spec = GraphSpec {
            nodes: vec![src("in"), op("merge", 2)],
            edges: vec![edge(0, 1, 0), edge(0, 1, 0), edge(1, 0, 0)],
            taps: vec![1],
        };
        let codes = codes(&spec);
        assert_eq!(codes.iter().filter(|&&c| c == "E0405").count(), 2);
    }

    #[test]
    fn dangling_references() {
        let spec = GraphSpec {
            nodes: vec![src("in")],
            edges: vec![edge(0, 7, 0)],
            taps: vec![9],
        };
        // The broken edge is dropped, so the source's output also counts
        // as dangling (E0402) — both E0406s must still be present.
        let codes = codes(&spec);
        assert_eq!(codes.iter().filter(|&&c| c == "E0406").count(), 2);
    }

    #[test]
    fn snapshot_of_real_dataflow_is_clean() {
        let mut flow = Dataflow::new();
        let s = flow.add_source(Box::new(ScriptedSource::new("in", Vec::new())));
        let p = flow
            .add_operator(Box::new(PassThrough::new()), &[s])
            .unwrap();
        flow.add_tap(p).unwrap();
        let spec = GraphSpec::of(&flow);
        assert_eq!(spec.nodes.len(), 2);
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
    }

    #[test]
    fn snapshot_of_clean_graph_has_no_diagnostics() {
        let mut flow = Dataflow::new();
        let s = flow.add_source(Box::new(ScriptedSource::new("s", Vec::new())));
        let p = flow
            .add_operator(Box::new(PassThrough::new()), &[s])
            .unwrap();
        flow.add_tap(p).unwrap();
        assert!(GraphSpec::of(&flow).validate().is_empty());
        // Empty graphs are trivially valid too.
        assert!(GraphSpec::of(&Dataflow::new()).validate().is_empty());
    }

    #[test]
    fn snapshot_flags_zero_input_operator() {
        // `UnionOp::new(0)` declares zero input ports: constructible, but
        // it never receives a tuple.
        let mut flow = Dataflow::new();
        let z = flow
            .add_operator(Box::new(esp_stream::ops::UnionOp::new(0)), &[])
            .unwrap();
        flow.add_tap(z).unwrap();
        let diags = GraphSpec::of(&flow).validate();
        assert!(
            diags.iter().any(|d| d.code == "E0404" && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn snapshot_warns_on_dangling_output_and_missing_taps() {
        let mut flow = Dataflow::new();
        let s = flow.add_source(Box::new(ScriptedSource::new("in", Vec::new())));
        flow.add_operator(Box::new(PassThrough::new()), &[s])
            .unwrap();
        let diags = GraphSpec::of(&flow).validate();
        assert!(diags.iter().any(|d| d.code == "E0402"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "E0403"), "{diags:?}");
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
    }
}
