//! The hierarchical intermediate representation (Fig. 5, §IV-B.1).
//!
//! "One approach is to have a hierarchical IR consisting of control nodes
//! and each control node may have a data-flow graph for an operator."
//! This crate implements exactly that: a [`Program`] is a DAG of typed
//! [`Operator`] nodes, each tagged with the *subprogram* it came from
//! (the control level — one subprogram per source language/engine in the
//! heterogeneous program) while the node edges form the data-flow level.
//!
//! The optimizer rewrites the graph (L1), annotates placements
//! ([`Annotations`]: engine + device per node), and the executor walks it
//! in topological stages.
//!
//! # Examples
//!
//! ```
//! use pspp_ir::{Program, Operator};
//! use pspp_common::{Predicate, TableRef};
//!
//! let mut p = Program::new();
//! let scan = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
//! let filter = p.add_node(Operator::Filter { predicate: Predicate::gt("age", 64i64) }, vec![scan], "sql");
//! p.mark_output(filter);
//! assert_eq!(p.topo_order().unwrap().len(), 2);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod graph;
pub mod op;
pub mod shard;

pub use graph::{NodeId, Program, ProgramNode, Stage};
pub use op::{partial_agg_specs, AggFn, AggSpec, Operator, SortSpec, TextSearchMode, TsAgg};
pub use shard::{
    exchange_pays, repartition_pays, shuffle_copy_key, subtree_signature, subtree_source_table,
    ExchangeCounts, ExchangeKind, NodeShard, PlanOptions, ShardPlan, EXCHANGE_OVERHEAD_ROWS,
    REPARTITION_COPY_BPS,
};

use std::sync::Arc;

use pspp_common::{DeviceKind, EngineId, ShardId};

/// One node's membership in a fused device-resident chain, attached to
/// a scatter slot by the placement pass: the chain pays the host→device
/// transfer once at the head (`pos == 0`) and intermediate edges move
/// over the device-local link instead of PCIe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionTag {
    /// Index of the chain in the placement plan's `fused_chains`.
    pub chain: usize,
    /// Position of this node within the chain (0 = head).
    pub pos: usize,
    /// Total chain length in nodes.
    pub len: usize,
}

/// A device-resident fused chain at one shard: adjacent plan nodes
/// whose picks landed on the same coprocessor, executed back-to-back
/// without surfacing intermediates to the host (§III–§IV: pipeline the
/// operators, pay PCIe once).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedChain {
    /// The shard replica the chain runs at.
    pub shard: ShardId,
    /// The coprocessor every member runs on.
    pub device: DeviceKind,
    /// Member nodes in producer → consumer order.
    pub nodes: Vec<NodeId>,
    /// Intermediate-transfer seconds saved vs unfused per-node offload.
    pub saved_seconds: f64,
}

/// Which of a node's output columns any consumer reads, recorded by the
/// L1 demand pass (rewrite rule 7) when that is a strict subset. The
/// migration codec ships a producer's demanded columns only, a join
/// builds only its own, the planner prices `columns.len() / of` of the
/// producer's bytes, and `EXPLAIN` prints the list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDemand {
    /// The demanded columns, named as the node's full output schema
    /// names them (a join's `x_r` included) and in that schema's order.
    /// Shared: a plan's join-site records carry the list too, and every
    /// served query clones its plan summary.
    pub columns: Arc<[String]>,
    /// How many columns the full output schema has.
    pub of: usize,
}

impl ColumnDemand {
    /// The demanded share of the columns — of the bytes too, as the
    /// planner prices a migration that ships these columns alone.
    pub fn share(&self) -> f64 {
        self.columns.len() as f64 / self.of as f64
    }
}

impl std::fmt::Display for ColumnDemand {
    /// `[pid, name] of 5 cols`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] of {} cols", self.columns.join(", "), self.of)
    }
}

/// Per-node plan annotations filled in by the optimizer (§IV-B.3:
/// "the core must decide where each task should be assigned").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Annotations {
    /// The engine instance that executes the node (None = middleware).
    pub engine: Option<EngineId>,
    /// The computing unit the node's kernel runs on (the pick at the
    /// critical — slowest — scatter slot when the node fans out).
    pub device: Option<DeviceKind>,
    /// Per scatter-slot device picks for a fanned-out node, aligned
    /// with its [`NodeShard::scatter`] order — a fused chain or a
    /// contended device may move single slots (a chain's members onto
    /// its device, a queued slot back to its host). `None` means "use
    /// `device` everywhere".
    pub shard_devices: Option<Vec<DeviceKind>>,
    /// Per scatter-slot fused-chain membership, aligned with the
    /// [`NodeShard::scatter`] order (index 0 for unsharded nodes).
    /// `None` (and `None` entries) mean the slot runs unfused.
    pub shard_fusion: Option<Vec<Option<FusionTag>>>,
    /// Per scatter-slot device queue wait (seconds) charged by the
    /// contended-device pass, aligned with the scatter order.
    pub shard_queue_waits: Option<Vec<f64>>,
    /// Estimated output rows.
    pub est_rows: Option<f64>,
    /// Estimated output bytes.
    pub est_bytes: Option<f64>,
    /// Estimated execution seconds (simulated).
    pub est_seconds: Option<f64>,
    /// Whether this node was fused into its consumer by L1 rewrites.
    pub fused_into_consumer: bool,
    /// The output columns some consumer reads; `None` means every
    /// column (the literal plan).
    pub demand: Option<ColumnDemand>,
}
