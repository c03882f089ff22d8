//! A graph data-processing engine (Neo4j-like substrate).
//!
//! The paper's graph store: "path-finding in Neo4j" (§I) and the Cypher
//! ("cipher") operators of §III-A.1 — "match, subtree, path, and join".
//! A property graph with labeled vertices/edges and native operators:
//! pattern match, BFS shortest path, Dijkstra weighted path, k-hop
//! neighborhoods and PageRank.
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

use std::collections::{BinaryHeap, HashMap, VecDeque};

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
    reverse: HashMap<NodeId, Vec<NodeId>>,
    next_id: NodeId,
}

impl GraphStore {
    /// An empty graph.
    pub fn new(id: impl Into<EngineId>) -> Self {
        GraphStore {
            id: id.into(),
            nodes: HashMap::new(),
            adjacency: HashMap::new(),
            reverse: HashMap::new(),
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
        self.reverse.entry(to).or_default().push(from);
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

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(Vec::len).sum()
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

    /// Weighted shortest path (Dijkstra): `(path, total_weight)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for unknown endpoints or negative
    /// weights; `Ok((vec![], inf))` when unreachable.
    pub fn dijkstra(&self, from: NodeId, to: NodeId) -> Result<(Vec<NodeId>, f64)> {
        if !self.nodes.contains_key(&from) || !self.nodes.contains_key(&to) {
            return Err(Error::Invalid("unknown endpoint".into()));
        }
        #[derive(PartialEq)]
        struct Entry(f64, NodeId);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.total_cmp(&self.0) // min-heap
            }
        }

        let mut dist: HashMap<NodeId, f64> = HashMap::from([(from, 0.0)]);
        let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
        let mut heap = BinaryHeap::from([Entry(0.0, from)]);
        while let Some(Entry(d, cur)) = heap.pop() {
            if cur == to {
                break;
            }
            if d > dist.get(&cur).copied().unwrap_or(f64::INFINITY) {
                continue;
            }
            for e in self.edges_from(cur) {
                if e.weight < 0.0 {
                    return Err(Error::Invalid("negative edge weight".into()));
                }
                let nd = d + e.weight;
                if nd < dist.get(&e.to).copied().unwrap_or(f64::INFINITY) {
                    dist.insert(e.to, nd);
                    prev.insert(e.to, cur);
                    heap.push(Entry(nd, e.to));
                }
            }
        }
        let path = Self::reconstruct(from, to, &prev);
        let total = dist.get(&to).copied().unwrap_or(f64::INFINITY);
        Ok((path, total))
    }

    /// All vertices within `k` hops of `from` (excluding `from`).
    pub fn k_hop(&self, from: NodeId, k: usize) -> Vec<NodeId> {
        let mut frontier = vec![from];
        let mut seen: std::collections::HashSet<NodeId> = [from].into();
        let mut out = Vec::new();
        for _ in 0..k {
            let mut next = Vec::new();
            for n in frontier {
                for e in self.edges_from(n) {
                    if seen.insert(e.to) {
                        next.push(e.to);
                        out.push(e.to);
                    }
                }
            }
            frontier = next;
        }
        out.sort_unstable();
        out
    }

    /// PageRank with damping 0.85; returns scores summing to ~1.
    pub fn pagerank(&self, iterations: usize) -> HashMap<NodeId, f64> {
        let n = self.nodes.len();
        if n == 0 {
            return HashMap::new();
        }
        let damping = 0.85;
        let mut rank: HashMap<NodeId, f64> =
            self.nodes.keys().map(|&id| (id, 1.0 / n as f64)).collect();
        for _ in 0..iterations {
            let mut next: HashMap<NodeId, f64> = self
                .nodes
                .keys()
                .map(|&id| (id, (1.0 - damping) / n as f64))
                .collect();
            let mut dangling = 0.0;
            for (&id, r) in &rank {
                let edges = self.edges_from(id);
                if edges.is_empty() {
                    dangling += r;
                } else {
                    let share = damping * r / edges.len() as f64;
                    // `add_edge` only links nodes that exist, and `next`
                    // holds every node.
                    for e in edges {
                        if let Some(v) = next.get_mut(&e.to) {
                            *v += share;
                        }
                    }
                }
            }
            let redistribute = damping * dangling / n as f64;
            for v in next.values_mut() {
                *v += redistribute;
            }
            rank = next;
        }
        rank
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
    fn dijkstra_prefers_light_weight() {
        let (g, [a, b, c, _]) = diamond();
        let (path, w) = g.dijkstra(a, c).unwrap();
        assert_eq!(path, vec![a, b, c]); // 2.0 beats the 10.0 shortcut
        assert!((w - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unreachable_returns_empty() {
        let mut g = GraphStore::new("g");
        let a = g.add_node("P", vec![]);
        let b = g.add_node("P", vec![]);
        assert!(g.shortest_path(a, b).unwrap().is_empty());
        let (p, w) = g.dijkstra(a, b).unwrap();
        assert!(p.is_empty());
        assert!(w.is_infinite());
    }

    #[test]
    fn unknown_endpoints_error() {
        let (g, [a, ..]) = diamond();
        assert!(g.shortest_path(a, 999).is_err());
        assert!(g.dijkstra(999, a).is_err());
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
    fn k_hop_expansion() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.k_hop(a, 1), vec![b, c]);
        assert_eq!(g.k_hop(a, 2), vec![b, c, d]);
        assert!(g.k_hop(d, 3).is_empty());
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_sinks_high() {
        let (g, [a, _, c, d]) = diamond();
        let pr = g.pagerank(30);
        let total: f64 = pr.values().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(pr[&d] > pr[&a]); // d absorbs rank, a has no in-edges
        assert!(pr[&c] > pr[&a]);
    }

    #[test]
    fn negative_weights_rejected() {
        let mut g = GraphStore::new("g");
        let a = g.add_node("P", vec![]);
        let b = g.add_node("P", vec![]);
        g.add_edge(a, b, "E", -1.0).unwrap();
        assert!(g.dijkstra(a, b).is_err());
    }

    #[test]
    fn label_scan_sorted() {
        let (g, [a, b, c, d]) = diamond();
        let ids: Vec<NodeId> = g.nodes_with_label("P").iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![a, b, c, d]);
        assert!(g.nodes_with_label("X").is_empty());
    }
}
