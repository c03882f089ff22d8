//! The program DAG: nodes, edges, validation, topological order, stages,
//! and DOT export.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use pspp_common::{Error, Result};

use crate::op::Operator;
use crate::shard::ShardPlan;
use crate::Annotations;

/// Identifies a node inside a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node: an operator, its data inputs, its subprogram tag (the
/// control level of the hierarchical IR) and plan annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramNode {
    /// Node id.
    pub id: NodeId,
    /// The operator.
    pub op: Operator,
    /// Data inputs, in positional order.
    pub inputs: Vec<NodeId>,
    /// Which subprogram (source language block) produced this node —
    /// Fig. 5's control nodes.
    pub subprogram: String,
    /// Optimizer annotations.
    pub annotations: Annotations,
}

/// One scheduler stage of a program (see [`Program::execution_stages`]):
/// `compute` nodes are mutually independent and may execute
/// concurrently; `forwards` are fused pass-through nodes resolved
/// before the stage runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stage {
    /// Fused nodes that alias their single input (in id order).
    pub forwards: Vec<NodeId>,
    /// Independently executable nodes (in id order).
    pub compute: Vec<NodeId>,
}

/// A heterogeneous program as a data-flow DAG of typed operators.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    nodes: Vec<ProgramNode>,
    outputs: Vec<NodeId>,
    /// The distribution plan the optimizer made for this program, shared
    /// by its clones (a plan cache's entries, a served query's copy).
    shard_plan: Option<Arc<ShardPlan>>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a source node (no inputs).
    pub fn add_source(&mut self, op: Operator, subprogram: impl Into<String>) -> NodeId {
        self.add_node(op, vec![], subprogram)
    }

    /// Adds a node with inputs.
    ///
    /// # Panics
    ///
    /// Panics if any input id is unknown (construction-time programming
    /// error; use [`Program::validate`] for semantic checks).
    pub fn add_node(
        &mut self,
        op: Operator,
        inputs: Vec<NodeId>,
        subprogram: impl Into<String>,
    ) -> NodeId {
        for i in &inputs {
            assert!(i.0 < self.nodes.len(), "unknown input {i}");
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(ProgramNode {
            id,
            op,
            inputs,
            subprogram: subprogram.into(),
            annotations: Annotations::default(),
        });
        id
    }

    /// Marks a node as a program output.
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// The output nodes.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// All nodes.
    pub fn nodes(&self) -> &[ProgramNode] {
        &self.nodes
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics on unknown id.
    pub fn node(&self, id: NodeId) -> &ProgramNode {
        &self.nodes[id.0]
    }

    /// Mutable node lookup.
    ///
    /// # Panics
    ///
    /// Panics on unknown id.
    pub fn node_mut(&mut self, id: NodeId) -> &mut ProgramNode {
        &mut self.nodes[id.0]
    }

    /// Stores `plan` as the distribution plan the cost model prices and
    /// the executor runs, replacing any earlier one.
    pub fn set_shard_plan(&mut self, plan: ShardPlan) {
        self.shard_plan = Some(Arc::new(plan));
    }

    /// The stored distribution plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] when none is stored, or when it covers
    /// another number of nodes (another program's plan).
    pub fn shard_plan(&self) -> Result<&Arc<ShardPlan>> {
        let n = self.len();
        let plan = self.shard_plan.as_ref().filter(|plan| plan.len() == n);
        plan.ok_or_else(|| Error::Semantic(format!("no distribution plan of these {n} nodes")))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the program has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Consumers of each node.
    pub fn consumers(&self) -> HashMap<NodeId, Vec<NodeId>> {
        let mut m: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for n in &self.nodes {
            for &i in &n.inputs {
                m.entry(i).or_default().push(n.id);
            }
        }
        m
    }

    /// Checks arity and acyclicity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        for n in &self.nodes {
            if n.inputs.len() != n.op.arity() {
                return Err(Error::Semantic(format!(
                    "{} ({}) expects {} inputs, has {}",
                    n.id,
                    n.op.name(),
                    n.op.arity(),
                    n.inputs.len()
                )));
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Topological order (Kahn). Fails on cycles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let mut in_deg: Vec<usize> = self.nodes.iter().map(|n| n.inputs.len()).collect();
        let consumers = self.consumers();
        let mut queue: VecDeque<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.inputs.is_empty())
            .map(|n| n.id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &c in consumers.get(&id).map_or(&[][..], Vec::as_slice) {
                in_deg[c.0] -= 1;
                if in_deg[c.0] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if order.len() != self.nodes.len() {
            return Err(Error::Semantic("program graph has a cycle".into()));
        }
        Ok(order)
    }

    /// Groups nodes into pipeline stages: stage `k` holds nodes whose
    /// longest path from a source has length `k`. Nodes in one stage can
    /// run concurrently; consecutive stages can be pipelined (§IV-D: "the
    /// optimized IR may be considered to be a sequence of stages").
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] if the graph has a cycle.
    pub fn stages(&self) -> Result<Vec<Vec<NodeId>>> {
        let order = self.topo_order()?;
        let mut level: HashMap<NodeId, usize> = HashMap::new();
        let mut max_level = 0usize;
        for id in order {
            let node = self.node(id);
            let l = node.inputs.iter().map(|i| level[i] + 1).max().unwrap_or(0);
            level.insert(id, l);
            max_level = max_level.max(l);
        }
        let mut stages = vec![Vec::new(); max_level + 1];
        for (id, l) in level {
            stages[l].push(id);
        }
        for s in &mut stages {
            s.sort();
        }
        Ok(stages)
    }

    /// Groups nodes into scheduler-ready stages: [`Program::stages`]
    /// with each stage's fused pass-through nodes separated from its
    /// compute nodes.
    ///
    /// The concurrency contract the executor relies on: every node in
    /// one stage depends only on nodes in strictly earlier stages, so a
    /// stage's `compute` nodes are mutually independent and may run on
    /// separate threads. `forwards` nodes (fused into their consumer by
    /// L1 rewrites) just alias their single input and are resolved
    /// before the stage's compute set launches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] if the graph has a cycle.
    pub fn execution_stages(&self) -> Result<Vec<Stage>> {
        Ok(self
            .stages()?
            .into_iter()
            .map(|ids| {
                let (forwards, compute) = ids
                    .into_iter()
                    .partition(|id| self.node(*id).annotations.fused_into_consumer);
                Stage { forwards, compute }
            })
            .collect())
    }

    /// Edges whose endpoints live in different subprograms — the
    /// cross-engine data transfers of Fig. 5 (dotted lines), each of
    /// which the migrator must service.
    pub fn cross_subprogram_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for n in &self.nodes {
            for &i in &n.inputs {
                if self.node(i).subprogram != n.subprogram {
                    out.push((i, n.id));
                }
            }
        }
        out
    }

    /// The distinct subprogram tags, in first-appearance order.
    pub fn subprograms(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for n in &self.nodes {
            if seen.insert(n.subprogram.as_str()) {
                out.push(n.subprogram.as_str());
            }
        }
        out
    }

    /// Counts nodes per operator name (used by E4's IR statistics).
    pub fn op_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for n in &self.nodes {
            *m.entry(n.op.name()).or_insert(0) += 1;
        }
        m
    }

    /// GraphViz DOT rendering, clustered by subprogram (the visual shape
    /// of Fig. 5).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph program {\n  rankdir=LR;\n");
        for (ci, sub) in self.subprograms().iter().enumerate() {
            s.push_str(&format!(
                "  subgraph cluster_{ci} {{\n    label=\"{sub}\";\n"
            ));
            for n in self.nodes.iter().filter(|n| n.subprogram == *sub) {
                let extra = n
                    .annotations
                    .device
                    .map(|d| format!("\\n@{d}"))
                    .unwrap_or_default();
                s.push_str(&format!(
                    "    {} [label=\"{}{}\"];\n",
                    n.id,
                    n.op.name(),
                    extra
                ));
            }
            s.push_str("  }\n");
        }
        for n in &self.nodes {
            for &i in &n.inputs {
                let style = if self.node(i).subprogram != n.subprogram {
                    " [style=dashed]" // cross-engine migration edge
                } else {
                    ""
                };
                s.push_str(&format!("  {} -> {}{};\n", i, n.id, style));
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{Predicate, TableRef};

    fn sample() -> Program {
        // Fig. 5 in miniature: SQL scan -> sort (postgres) joined with a
        // graph match (neo4j), consumed by an ML train (spark).
        let mut p = Program::new();
        let scan = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![crate::op::SortSpec {
                    column: "date".into(),
                    ascending: true,
                }],
            },
            vec![scan],
            "sql",
        );
        let gmatch = p.add_source(
            Operator::GraphMatch {
                table: TableRef::new("neo", "patients"),
                start_label: "Patient".into(),
                steps: vec![(Some("HAS".into()), None)],
            },
            "cypher",
        );
        let join = p.add_node(
            Operator::HashJoin {
                left_on: "pid".into(),
                right_on: "pid".into(),
            },
            vec![sort, gmatch],
            "python",
        );
        p.mark_output(join);
        p
    }

    #[test]
    fn topo_order_respects_edges() {
        let p = sample();
        let order = p.topo_order().unwrap();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in p.nodes() {
            for i in &n.inputs {
                assert!(pos[i] < pos[&n.id]);
            }
        }
    }

    #[test]
    fn stages_group_by_depth() {
        let p = sample();
        let stages = p.stages().unwrap();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].len(), 2); // both sources
        assert_eq!(stages[2], vec![NodeId(3)]);
    }

    #[test]
    fn cross_subprogram_edges_found() {
        let p = sample();
        let cross = p.cross_subprogram_edges();
        assert_eq!(cross.len(), 2); // sort->join and match->join
        assert_eq!(p.subprograms(), vec!["sql", "cypher", "python"]);
    }

    #[test]
    fn validate_catches_bad_arity() {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("e", "t")), "sql");
        p.add_node(
            Operator::HashJoin {
                left_on: "a".into(),
                right_on: "b".into(),
            },
            vec![s], // needs 2 inputs
            "sql",
        );
        assert!(matches!(p.validate(), Err(Error::Semantic(_))));
    }

    #[test]
    fn validate_ok_on_sample() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn cycle_detected() {
        let mut p = sample();
        // Force a cycle by editing the raw inputs.
        p.node_mut(NodeId(0)).inputs = vec![NodeId(3)];
        assert!(p.topo_order().is_err());
    }

    #[test]
    fn dot_contains_clusters_and_dashed_migrations() {
        let p = sample();
        let dot = p.to_dot();
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("hash_join"));
    }

    #[test]
    fn histogram_counts_ops() {
        let p = sample();
        let h = p.op_histogram();
        assert_eq!(h["scan"], 1);
        assert_eq!(h["hash_join"], 1);
    }

    #[test]
    fn outputs_deduplicated() {
        let mut p = sample();
        p.mark_output(NodeId(3));
        assert_eq!(p.outputs().len(), 1);
    }

    #[test]
    fn filter_predicate_embedded() {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("e", "t")), "sql");
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::gt("age", 64i64),
            },
            vec![s],
            "sql",
        );
        match &p.node(f).op {
            Operator::Filter { predicate } => {
                assert_eq!(
                    predicate.selectivity(),
                    Predicate::gt("age", 64i64).selectivity()
                );
            }
            _ => panic!("wrong op"),
        }
    }
}
