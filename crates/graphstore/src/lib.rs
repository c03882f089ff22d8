//! A graph data-processing engine (Neo4j-like substrate).
//!
//! The paper's graph store: "path-finding in Neo4j" (§I) and the Cypher
//! ("cipher") operators of §III-A.1 — "match, subtree, path, and join".
//! A property graph with labeled vertices/edges and native operators:
//! pattern match and BFS shortest path.
//!
//! # Examples
//!
//! ```
//! use pspp_graphstore::GraphStore;
//! use pspp_common::Value;
//!
//! let mut g = GraphStore::new("social");
//! let a = g.add_node("Person", vec![("name".into(), Value::from("ada"))]);
//! let b = g.add_node("Person", vec![("name".into(), Value::from("bob"))]);
//! g.add_edge(a, b, "KNOWS", 1.0).unwrap();
//! assert_eq!(g.shortest_path(a, b).unwrap(), vec![a, b]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{HashMap, VecDeque};

use pspp_common::{EngineId, Error, Result, Value};

/// A vertex id.
pub type NodeId = u64;

/// A labeled vertex with properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Unique id.
    pub id: NodeId,
    /// Label (e.g. `Person`, `Patient`).
    pub label: String,
    /// Property map.
    pub props: HashMap<String, Value>,
}

/// A typed, weighted, directed edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub from: NodeId,
    /// Target vertex.
    pub to: NodeId,
    /// Relationship type (e.g. `KNOWS`, `ADMITTED_TO`).
    pub rel: String,
    /// Weight for path-finding.
    pub weight: f64,
}

/// One step of a match pattern: follow edges of type `rel` to nodes
/// labeled `node_label` (either may be `None` = wildcard).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PatternStep {
    /// Required relationship type, if any.
    pub rel: Option<String>,
    /// Required target label, if any.
    pub node_label: Option<String>,
}

impl PatternStep {
    /// A step matching `rel` edges into `label` nodes.
    pub fn new(rel: impl Into<String>, label: impl Into<String>) -> Self {
        PatternStep {
            rel: Some(rel.into()),
            node_label: Some(label.into()),
        }
    }

    /// A step that follows any edge into any node.
    pub fn any() -> Self {
        PatternStep::default()
    }
}

/// The graph engine.
#[derive(Debug, Clone)]
pub struct GraphStore {
    id: EngineId,
    nodes: HashMap<NodeId, Node>,
    adjacency: HashMap<NodeId, Vec<Edge>>,
    next_id: NodeId,
}

impl GraphStore {
    /// An empty graph.
    pub fn new(id: impl Into<EngineId>) -> Self {
        GraphStore {
            id: id.into(),
            nodes: HashMap::new(),
            adjacency: HashMap::new(),
            next_id: 0,
        }
    }

    /// The engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// Adds a vertex, returning its id.
    pub fn add_node(&mut self, label: impl Into<String>, props: Vec<(String, Value)>) -> NodeId {
        let id = self.next_id;
        self.next_id += 1;
        self.nodes.insert(
            id,
            Node {
                id,
                label: label.into(),
                props: props.into_iter().collect(),
            },
        );
        id
    }

    /// Adds a directed edge.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] if either endpoint does not exist.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        rel: impl Into<String>,
        weight: f64,
    ) -> Result<()> {
        if !self.nodes.contains_key(&from) || !self.nodes.contains_key(&to) {
            return Err(Error::Invalid(format!(
                "edge {from}->{to} has missing endpoint"
            )));
        }
        self.adjacency.entry(from).or_default().push(Edge {
            from,
            to,
            rel: rel.into(),
            weight,
        });
        Ok(())
    }

    /// Vertex lookup.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All vertices with `label`.
    pub fn nodes_with_label(&self, label: &str) -> Vec<&Node> {
        let mut out: Vec<&Node> = self.nodes.values().filter(|n| n.label == label).collect();
        out.sort_by_key(|n| n.id);
        out
    }

    /// Outgoing edges of a vertex.
    pub fn edges_from(&self, id: NodeId) -> &[Edge] {
        self.adjacency.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Cypher-style pattern match: starting from nodes labeled
    /// `start_label`, follow `steps`, returning each full matched path of
    /// node ids (`MATCH (a:L1)-[:R1]->(b:L2)-...`).
    pub fn match_pattern(&self, start_label: &str, steps: &[PatternStep]) -> Vec<Vec<NodeId>> {
        let mut paths: Vec<Vec<NodeId>> = self
            .nodes_with_label(start_label)
            .into_iter()
            .map(|n| vec![n.id])
            .collect();
        for step in steps {
            let mut next = Vec::new();
            for path in &paths {
                // Every path holds at least its start node.
                let Some(&tail) = path.last() else { continue };
                for e in self.edges_from(tail) {
                    if step.rel.as_ref().is_some_and(|r| *r != e.rel) {
                        continue;
                    }
                    let node = &self.nodes[&e.to];
                    if step.node_label.as_ref().is_some_and(|l| *l != node.label) {
                        continue;
                    }
                    let mut p = path.clone();
                    p.push(e.to);
                    next.push(p);
                }
            }
            paths = next;
        }
        paths.sort();
        paths
    }

    /// Unweighted shortest path (BFS) from `from` to `to`, inclusive.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for unknown endpoints; `Ok(vec![])`
    /// when no path exists.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Result<Vec<NodeId>> {
        if !self.nodes.contains_key(&from) || !self.nodes.contains_key(&to) {
            return Err(Error::Invalid("unknown endpoint".into()));
        }
        let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen: std::collections::HashSet<NodeId> = [from].into();
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                break;
            }
            for e in self.edges_from(cur) {
                if seen.insert(e.to) {
                    prev.insert(e.to, cur);
                    queue.push_back(e.to);
                }
            }
        }
        Ok(Self::reconstruct(from, to, &prev))
    }

    fn reconstruct(from: NodeId, to: NodeId, prev: &HashMap<NodeId, NodeId>) -> Vec<NodeId> {
        if from == to {
            return vec![from];
        }
        let mut path = vec![to];
        let mut cur = to;
        while let Some(&p) = prev.get(&cur) {
            path.push(p);
            cur = p;
            if cur == from {
                path.reverse();
                return path;
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a -> b -> c -> d, plus a -> c shortcut (weight 10).
    fn diamond() -> (GraphStore, [NodeId; 4]) {
        let mut g = GraphStore::new("g");
        let a = g.add_node("P", vec![]);
        let b = g.add_node("P", vec![]);
        let c = g.add_node("P", vec![]);
        let d = g.add_node("P", vec![]);
        g.add_edge(a, b, "E", 1.0).unwrap();
        g.add_edge(b, c, "E", 1.0).unwrap();
        g.add_edge(c, d, "E", 1.0).unwrap();
        g.add_edge(a, c, "E", 10.0).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        let (g, [a, _, c, d]) = diamond();
        assert_eq!(g.shortest_path(a, c).unwrap(), vec![a, c]); // 1 hop via shortcut
        assert_eq!(g.shortest_path(a, d).unwrap().len(), 3);
        assert_eq!(g.shortest_path(a, a).unwrap(), vec![a]);
    }

    #[test]
    fn unreachable_returns_empty() {
        let mut g = GraphStore::new("g");
        let a = g.add_node("P", vec![]);
        let b = g.add_node("P", vec![]);
        assert!(g.shortest_path(a, b).unwrap().is_empty());
    }

    #[test]
    fn unknown_endpoints_error() {
        let (g, [a, ..]) = diamond();
        assert!(g.shortest_path(a, 999).is_err());
        assert!(g.shortest_path(999, a).is_err());
    }

    #[test]
    fn edge_to_missing_node_rejected() {
        let mut g = GraphStore::new("g");
        let a = g.add_node("P", vec![]);
        assert!(g.add_edge(a, 42, "E", 1.0).is_err());
    }

    #[test]
    fn pattern_match_respects_rel_and_label() {
        let mut g = GraphStore::new("g");
        let p = g.add_node("Patient", vec![]);
        let adm = g.add_node("Admission", vec![]);
        let icu = g.add_node("Ward", vec![]);
        let gen = g.add_node("Ward", vec![]);
        g.add_edge(p, adm, "HAS_ADMISSION", 1.0).unwrap();
        g.add_edge(adm, icu, "IN_WARD", 1.0).unwrap();
        g.add_edge(adm, gen, "TRANSFERRED", 1.0).unwrap();
        let paths = g.match_pattern(
            "Patient",
            &[
                PatternStep::new("HAS_ADMISSION", "Admission"),
                PatternStep::new("IN_WARD", "Ward"),
            ],
        );
        assert_eq!(paths, vec![vec![p, adm, icu]]);
        // Wildcard step matches both wards.
        let all = g.match_pattern(
            "Patient",
            &[
                PatternStep::new("HAS_ADMISSION", "Admission"),
                PatternStep::any(),
            ],
        );
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn label_scan_sorted() {
        let (g, [a, b, c, d]) = diamond();
        let ids: Vec<NodeId> = g.nodes_with_label("P").iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![a, b, c, d]);
        assert!(g.nodes_with_label("X").is_empty());
    }
}
