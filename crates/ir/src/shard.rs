//! The physical shard plan: every IR node annotated with its output
//! [`Distribution`], scatter set, and one typed [`ExchangeKind`] per
//! input edge, computed once at planning time.
//!
//! Polystore++ argues cross-engine data movement is the dominant cost
//! and must be optimizer-visible rather than an executor side effect
//! (§IV-A.b); BigDAWG routes cross-island queries through explicit
//! CAST/migration steps the same way. [`ShardPlan::plan`] therefore
//! makes *every* re-layout an explicit exchange edge the cost model can
//! price:
//!
//! * a `Scan` of a partitioned table inherits its
//!   [`PartitionSpec`]'s distribution (normalized: width-1 layouts plan
//!   as [`Distribution::Single`] — see [`Distribution::normalize`], the
//!   one rule deciding when "partitioned" means "multi-shard") and fans
//!   out over its scatter set;
//! * `Filter` preserves its input's distribution and `Project`
//!   preserves it only while the partition key survives — both consume
//!   the input through [`ExchangeKind::Local`] edges (aligned per-shard
//!   partials, no data movement);
//! * a `HashJoin` whose inputs are compatibly partitioned on the join
//!   keys (see [`Distribution::join`]) stays partitioned and executes
//!   *colocated*; a replicated build side rides an
//!   [`ExchangeKind::Broadcast`] edge. A `HashJoin` on *mismatched*
//!   layouts no longer collapses to a single gathered task: when the
//!   exchange pays (see [`exchange_pays`]) the planner emits
//!   [`ExchangeKind::ShuffleHash`] edges that re-hash each side's rows
//!   to the join key's layout, keeping the join one build+probe task
//!   per destination shard;
//! * `GroupBy` over a partitioned input splits into per-shard stages:
//!   *partition-wise* (a plain colocated fan-out) when the group keys
//!   contain the partition key, or per-shard partial aggregation
//!   spliced by an [`ExchangeKind::MergePartials`] edge otherwise;
//! * every other operator gathers its partitioned inputs through
//!   explicit [`ExchangeKind::Gather`] edges and produces
//!   [`Distribution::Single`] output. (`SortMergeJoin` deliberately
//!   gathers: its output is globally key-sorted, which a shard-ordered
//!   concatenation of per-shard merges would not reproduce.)
//!
//! The gather-vs-shuffle choice is a pure function of the program's
//! cardinality annotations ([`exchange_pays`]). The plan is made once
//! per optimization and the program carries it
//! ([`Program::set_shard_plan`]): the cost model prices it and the
//! executor runs it, so the plan that runs is the plan that was priced.

use pspp_common::partition::{fnv1a, FNV_OFFSET};
use pspp_common::{
    CopyKey, Distribution, JoinDistribution, PartitionSpec, Result, ShardId, TableRef,
};

use crate::graph::{NodeId, Program};
use crate::op::Operator;

/// Simulated per-destination-shard overhead of an exchange, in row
/// units: the fixed cost of opening a shard bucket, the barrier join,
/// and the ordered splice, expressed as "rows' worth of routing work".
/// An exchange over `w` destinations pays `w * EXCHANGE_OVERHEAD_ROWS`
/// up front; re-laying-out `r` rows saves `r * (1 - 1/w)` rows of
/// single-site work, which is the crossover [`exchange_pays`] tests.
pub const EXCHANGE_OVERHEAD_ROWS: f64 = 256.0;

/// The cost rule choosing shuffle/merge-partials over a gather: an
/// exchange over `width` destination shards pays when the per-shard
/// parallelism it buys (`rows * (1 - 1/width)` rows of work saved)
/// exceeds its per-shard overhead (`width * `[`EXCHANGE_OVERHEAD_ROWS`]
/// rows of routing work). With no cardinality estimate (`None` — the
/// program was never costed) the planner defaults to the exchange,
/// matching the executor's exchange-on default.
pub fn exchange_pays(est_rows: Option<f64>, width: usize) -> bool {
    let w = width as f64;
    match est_rows {
        None => true,
        Some(rows) => rows * (1.0 - 1.0 / w) > w * EXCHANGE_OVERHEAD_ROWS,
    }
}

/// Memory bandwidth assumed for persisting an already-routed shuffle
/// layout as a materialized copy: the rows are in memory and bucketed,
/// so the copy streams at DRAM speed rather than the interconnect's.
pub const REPARTITION_COPY_BPS: f64 = 10e9;

/// The cost rule deciding when a shuffle layout is worth persisting:
/// materialize once the *cumulative* simulated seconds spent
/// re-shuffling the same subtree this epoch exceed the one-time cost
/// of copying its `bytes` at memory speed. A single 10GbE shuffle of
/// N bytes already costs ~8x the memory copy, so a hot layout
/// materializes on its first routing; a layout whose shuffles are
/// dominated by fixed overhead waits until repetition proves it hot.
pub fn repartition_pays(cumulative_shuffle_seconds: f64, bytes: u64) -> bool {
    cumulative_shuffle_seconds > bytes as f64 / REPARTITION_COPY_BPS
}

/// A stable digest of the operator subtree rooted at `id`: the ops of
/// every reachable node folded in a deterministic DFS order. Two
/// shuffles share a digest exactly when they route the output of an
/// identical operator chain — pushed-down filters and projections
/// change the digest, so a materialized copy of a filtered scan never
/// serves the unfiltered one.
pub fn subtree_signature(program: &Program, id: NodeId) -> u64 {
    fn visit(program: &Program, id: NodeId, seen: &mut Vec<bool>, hash: &mut u64) {
        if std::mem::replace(&mut seen[id.0], true) {
            return;
        }
        let node = program.node(id);
        *hash = fnv1a(format!("{:?}", node.op).as_bytes(), *hash);
        *hash = fnv1a(&[u8::from(node.annotations.fused_into_consumer)], *hash);
        for &input in &node.inputs {
            visit(program, input, seen, hash);
        }
    }
    let mut hash = FNV_OFFSET;
    let mut seen = vec![false; program.len()];
    visit(program, id, &mut seen, &mut hash);
    hash
}

/// The single stored table feeding the subtree rooted at `id`, when
/// exactly one scan does — the anchor of a materialized repartition's
/// [`CopyKey`]. Multi-table subtrees (a shuffled join of joins) return
/// `None` and are never materialized.
pub fn subtree_source_table(program: &Program, id: NodeId) -> Option<TableRef> {
    fn visit(program: &Program, id: NodeId, seen: &mut Vec<bool>, tables: &mut Vec<TableRef>) {
        if std::mem::replace(&mut seen[id.0], true) {
            return;
        }
        let node = program.node(id);
        if let Some(t) = node.op.source_table() {
            if !tables.contains(t) {
                tables.push(t.clone());
            }
        }
        for &input in &node.inputs {
            visit(program, input, seen, tables);
        }
    }
    let mut seen = vec![false; program.len()];
    let mut tables = Vec::new();
    visit(program, id, &mut seen, &mut tables);
    match tables.as_slice() {
        [one] => Some(one.clone()),
        _ => None,
    }
}

/// The [`CopyKey`] identifying a materialized layout of input edge
/// `input` shuffled on `key` to `width` shards — `None` when the
/// subtree has no single source table to anchor the copy.
pub fn shuffle_copy_key(
    program: &Program,
    input: NodeId,
    key: &str,
    width: u32,
) -> Option<CopyKey> {
    let table = subtree_source_table(program, input)?;
    Some(CopyKey {
        table,
        column: key.to_owned(),
        width,
        signature: subtree_signature(program, input),
    })
}

/// The node that executes for `id`: `id` itself, or the producer a
/// fused pass-through aliases.
fn executing(program: &Program, mut id: NodeId) -> NodeId {
    while program.node(id).annotations.fused_into_consumer {
        id = program.node(id).inputs[0];
    }
    id
}

/// Whether exactly one input edge reads `producer`, seen through fused
/// aliases, and no program output does.
fn sole_reader(program: &Program, producer: NodeId) -> bool {
    let reads = |&id: &NodeId| executing(program, id) == producer;
    let edges = program
        .nodes()
        .iter()
        .filter(|n| !n.annotations.fused_into_consumer)
        .flat_map(|n| &n.inputs);
    !program.outputs().iter().any(reads) && edges.filter(|id| reads(id)).count() == 1
}

/// How one input edge's rows reach the consuming node's tasks — the
/// typed exchange vocabulary every re-layout goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeKind {
    /// No data movement: a single-site consumer reads the input's
    /// gathered result in place, or an aligned colocated task reads its
    /// own shard's partial.
    Local,
    /// The input's per-shard partials are spliced to one site in shard
    /// order before the (single-task) consumer runs.
    Gather,
    /// Every destination task reads the input's full copy (a replicated
    /// build side, or an unsharded input feeding a fanned-out join).
    Broadcast,
    /// The input's rows are re-hashed on `key` into `width` destination
    /// buckets by the stable FNV routing rule
    /// ([`Distribution::route_indices`]); destination task `k` consumes
    /// bucket `k`.
    ShuffleHash {
        /// Column whose hash routes each row.
        key: String,
        /// Number of destination shards.
        width: u32,
    },
    /// The consumer runs a per-shard *partial* aggregation over the
    /// input's partials, and a merge stage combines the partial states
    /// in shard order (partial-aggregate + merge `GroupBy`).
    MergePartials,
}

impl std::fmt::Display for ExchangeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeKind::Local => write!(f, "local"),
            ExchangeKind::Gather => write!(f, "gather"),
            ExchangeKind::Broadcast => write!(f, "broadcast"),
            ExchangeKind::ShuffleHash { key, width } => write!(f, "shuffle({key}) x {width}"),
            ExchangeKind::MergePartials => write!(f, "merge-partials"),
        }
    }
}

/// Exchange-edge totals over a plan, reported by the optimizer's
/// placement summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeCounts {
    /// [`ExchangeKind::Gather`] edges.
    pub gathers: usize,
    /// [`ExchangeKind::Broadcast`] edges.
    pub broadcasts: usize,
    /// [`ExchangeKind::ShuffleHash`] edges that still route rows.
    pub shuffles: usize,
    /// [`ExchangeKind::MergePartials`] edges.
    pub merge_partials: usize,
    /// [`ExchangeKind::ShuffleHash`] edges served from a materialized
    /// repartition: the layout is persisted, so no rows move.
    pub materialized: usize,
}

impl ExchangeCounts {
    /// Total number of row-moving exchange edges (a materialized
    /// shuffle moves none).
    pub fn total(&self) -> usize {
        self.gathers + self.broadcasts + self.shuffles + self.merge_partials
    }
}

/// The plan switches — one value, handed once, to the distribution
/// pass, which keeps it on its plan ([`ShardPlan::options`]). The pass
/// consumes `colocate` and `exchange`; the executor reads `materialize`
/// off the plan, and the cost model's chain pass `fusion`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Execute compatibly-partitioned joins (and distribution-preserving
    /// filters/projections/aggregations) per shard. Off reverts every
    /// non-source node to a gather — the PR-3 baseline plan E18
    /// compares against — whatever `exchange` says.
    pub colocate: bool,
    /// Emit shuffle/merge-partials exchanges for mismatched-key joins
    /// and non-partition-wise `GroupBy`s. Off reverts those nodes to
    /// gathers — the gathered baseline E19 compares against.
    pub exchange: bool,
    /// Run the device-resident kernel-fusion pass: adjacent same-device
    /// coprocessor picks form chains that pay the host link once at the
    /// head. Off prices every offloaded node alone — the unfused
    /// baseline E23 compares against.
    pub fusion: bool,
    /// Materialized repartitions: the executor persists a shuffled
    /// layout once its cumulative exchange cost exceeds the one-time
    /// copy ([`repartition_pays`]), later plans mark the same edges
    /// copy-served ([`NodeShard::is_copy_served`]: zero rows routed,
    /// priced at zero; an earlier plan still routes), and any epoch
    /// bump invalidates every layout.
    pub materialize: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            colocate: true,
            exchange: true,
            fusion: true,
            materialize: false,
        }
    }
}

impl PlanOptions {
    /// The PR-3 gather-everything baseline.
    pub fn gathered() -> Self {
        PlanOptions {
            colocate: false,
            exchange: false,
            ..PlanOptions::default()
        }
    }

    /// Whether the plan may re-lay rows out across shards: the
    /// repartitioning exchanges are a refinement of colocated
    /// execution, so `colocate: false` switches them off too.
    fn repartitions(self) -> bool {
        self.colocate && self.exchange
    }
}

/// One node's slice of the shard plan.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeShard {
    /// How the node's output rows are distributed across shards.
    pub distribution: Distribution,
    /// The shard tasks the node fans out into, in gather order.
    pub scatter: Vec<ShardId>,
    /// Whether the node executes colocated: one task per scatter
    /// entry, each consuming its aligned inputs' per-shard partials
    /// through [`ExchangeKind::Local`] edges.
    pub colocated: bool,
    /// Whether a fanned-out consumer reads this node's per-shard
    /// partials, so the executor must retain them past the gather.
    pub partials_needed: bool,
    /// How each input edge's rows reach this node's tasks, parallel to
    /// the node's input list (empty for sources).
    pub exchanges: Vec<ExchangeKind>,
    /// Parallel to `exchanges` when non-empty: `true` marks a
    /// [`ExchangeKind::ShuffleHash`] edge whose routing is served from
    /// a materialized repartition (no rows move). Empty means no edge
    /// is served.
    pub copy_served: Vec<bool>,
    /// `Some((key, width))` marks a *routed* producer: its one reader,
    /// seen through fused aliases, is a [`ExchangeKind::ShuffleHash`]
    /// edge re-hashing on `key` over `width` destinations that no copy
    /// serves, and no program output reads it. Its tasks route their
    /// rows as they produce them and the shuffle takes each
    /// destination's rows from there; nothing gathers them. A physical
    /// annotation only: it changes no price.
    pub routed: Option<(String, u32)>,
}

impl NodeShard {
    /// The plan entry of unsharded work: single-site output, one
    /// shard-0 task.
    pub fn single() -> Self {
        NodeShard {
            distribution: Distribution::Single,
            scatter: vec![ShardId::ZERO],
            colocated: false,
            partials_needed: false,
            exchanges: Vec::new(),
            copy_served: Vec::new(),
            routed: None,
        }
    }

    /// Whether input edge `idx`'s shuffle is served from a
    /// materialized repartition.
    pub fn is_copy_served(&self, idx: usize) -> bool {
        self.copy_served.get(idx).copied().unwrap_or(false)
    }

    /// Number of tasks the node fans out into.
    pub fn scatter_width(&self) -> usize {
        self.scatter.len()
    }

    /// The exchange on input edge `idx` ([`ExchangeKind::Local`] when
    /// the plan recorded none — sources and default entries).
    pub fn exchange(&self, idx: usize) -> &ExchangeKind {
        self.exchanges.get(idx).unwrap_or(&ExchangeKind::Local)
    }

    /// Whether any input edge is a [`ExchangeKind::ShuffleHash`].
    pub fn shuffles(&self) -> bool {
        self.exchanges
            .iter()
            .any(|e| matches!(e, ExchangeKind::ShuffleHash { .. }))
    }

    /// Whether any input edge is a [`ExchangeKind::MergePartials`].
    pub fn merges_partials(&self) -> bool {
        self.exchanges
            .iter()
            .any(|e| matches!(e, ExchangeKind::MergePartials))
    }

    /// The inputs this node consumes through an explicit gather.
    pub fn gathered_input_count(&self) -> usize {
        self.exchanges
            .iter()
            .filter(|e| matches!(e, ExchangeKind::Gather))
            .count()
    }
}

impl Default for NodeShard {
    fn default() -> Self {
        NodeShard::single()
    }
}

/// The physical distribution plan for one program: a [`NodeShard`] per
/// IR node.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    nodes: Vec<NodeShard>,
    /// The switches the plan was made under.
    pub options: PlanOptions,
    /// The engine-state epoch of the layout the plan was made against
    /// (0 until the planner stamps it).
    pub epoch: u64,
}

impl ShardPlan {
    /// Plans distribution for `program`: propagates each source
    /// table's partition spec (`spec_of`) through the operator
    /// lattice, emitting one typed [`ExchangeKind`] per input edge.
    /// The gather-vs-shuffle choice reads the program's `est_rows`
    /// annotations through [`exchange_pays`].
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::Semantic`] on cyclic programs and
    /// [`pspp_common::Error::EmptyShardSet`]/[`pspp_common::Error::Config`]
    /// for invalid partition specs.
    pub fn plan<F>(program: &Program, spec_of: F, options: PlanOptions) -> Result<ShardPlan>
    where
        F: Fn(&TableRef) -> Option<PartitionSpec>,
    {
        Self::plan_with_copies(program, spec_of, |_| false, options)
    }

    /// [`ShardPlan::plan`] consulting a materialized-repartition store
    /// when `options.materialize` is on: `copy_of` answers whether a
    /// live persisted layout exists for a [`CopyKey`]. Shuffle edges whose layout is stored are marked
    /// [`NodeShard::is_copy_served`] — the executor serves them from
    /// the copy (zero rows routed) and the cost model prices them
    /// free — and a fully-served shuffle is planned even when
    /// [`exchange_pays`] alone would have gathered.
    ///
    /// # Errors
    ///
    /// As [`ShardPlan::plan`].
    pub fn plan_with_copies<F, C>(
        program: &Program,
        spec_of: F,
        copy_of: C,
        options: PlanOptions,
    ) -> Result<ShardPlan>
    where
        F: Fn(&TableRef) -> Option<PartitionSpec>,
        C: Fn(&CopyKey) -> bool,
    {
        let copy_of = |k: &CopyKey| options.materialize && copy_of(k);
        let order = program.topo_order()?;
        let mut nodes: Vec<NodeShard> = vec![NodeShard::single(); program.len()];
        for id in order {
            let node = program.node(id);
            let entry = if node.annotations.fused_into_consumer {
                // A fused pass-through aliases its input: consumers see
                // through it to the producer's distribution.
                node.inputs.first().map_or_else(NodeShard::single, |i| {
                    let mut e = nodes[i.0].clone();
                    e.colocated = false;
                    e.partials_needed = false;
                    e.exchanges.clear();
                    e.copy_served.clear();
                    e
                })
            } else if let Some(table) = node.op.source_table() {
                match spec_of(table) {
                    Some(spec) => {
                        spec.validate()?;
                        // The one width rule: width-1 layouts plan as
                        // unsharded work.
                        let distribution = Distribution::from_spec(&spec).normalize();
                        NodeShard {
                            scatter: distribution.scatter(),
                            distribution,
                            colocated: false,
                            partials_needed: false,
                            exchanges: Vec::new(),
                            copy_served: Vec::new(),
                            routed: None,
                        }
                    }
                    None => NodeShard::single(),
                }
            } else {
                match &node.op {
                    Operator::Filter { .. } if options.colocate => {
                        Self::preserve(&nodes, node.inputs[0], None)
                    }
                    Operator::Project { columns } if options.colocate => {
                        Self::preserve(&nodes, node.inputs[0], Some(columns))
                    }
                    Operator::HashJoin { left_on, right_on } if options.colocate => {
                        Self::plan_hash_join(
                            program, &nodes, id, left_on, right_on, &copy_of, options,
                        )
                    }
                    Operator::GroupBy { keys, .. } if options.colocate => {
                        Self::plan_group_by(program, &nodes, id, keys, options)
                    }
                    _ => Self::gather_all(&nodes, node.inputs.iter()),
                }
            };
            nodes[id.0] = entry;
        }
        // Mark the executing producer (resolving through fused
        // aliases) of every input whose per-shard partials a
        // fanned-out consumer reads — Local edges of colocated nodes
        // and every MergePartials edge — so the executor retains them
        // past the gather. Collect the producers of unserved shuffle
        // edges on the way: a plan without one allocates nothing more.
        let mut plan = ShardPlan {
            nodes,
            options,
            epoch: 0,
        };
        let mut shuffled: Vec<(NodeId, String, u32)> = Vec::new();
        for n in program.nodes() {
            if n.annotations.fused_into_consumer {
                continue;
            }
            for (idx, &input) in n.inputs.iter().enumerate() {
                let entry = &plan.nodes[n.id.0];
                if let ExchangeKind::ShuffleHash { key, width } = entry.exchange(idx) {
                    if !entry.is_copy_served(idx) {
                        shuffled.push((executing(program, input), key.clone(), *width));
                    }
                }
                if !plan.reads_partial(n.id, idx, input) {
                    continue;
                }
                let mut p = input;
                loop {
                    plan.nodes[p.0].partials_needed = true;
                    if program.node(p).annotations.fused_into_consumer {
                        p = program.node(p).inputs[0];
                    } else {
                        break;
                    }
                }
            }
        }
        for (producer, key, width) in shuffled {
            let entry = &plan.nodes[producer.0];
            // A producer gathered by a splice or a partial merge is not
            // the concatenation of its tasks' rows, so its tasks cannot
            // route for it.
            if !entry.shuffles() && !entry.merges_partials() && sole_reader(program, producer) {
                plan.nodes[producer.0].routed = Some((key, width));
            }
        }
        Ok(plan)
    }

    /// Whether each task of `id` reads its own shard's partial of input
    /// edge `idx` (produced by `input`) rather than the input's whole,
    /// gathered output: an aligned [`ExchangeKind::Local`] edge of a
    /// colocated node over a partitioned producer, or a
    /// [`ExchangeKind::MergePartials`] edge. The one rule the planner
    /// (retaining partials), the cost model (per-task volume) and the
    /// executor (task inputs) share.
    pub fn reads_partial(&self, id: NodeId, idx: usize, input: NodeId) -> bool {
        let node = self.node(id);
        match node.exchange(idx) {
            ExchangeKind::Local => node.colocated && self.node(input).distribution.is_partitioned(),
            ExchangeKind::MergePartials => true,
            _ => false,
        }
    }

    /// Plans a hash join: colocated when the layouts align, otherwise a
    /// cost-chosen shuffle (re-hash both sides to the join keys'
    /// layout) or an explicit gather. Shuffle edges whose routed
    /// layout is already materialized (`copy_of`) are marked served —
    /// and a join whose every shuffle edge is served plans the shuffle
    /// even when [`exchange_pays`] would have gathered, because the
    /// movement it prices no longer happens.
    fn plan_hash_join(
        program: &Program,
        nodes: &[NodeShard],
        id: NodeId,
        left_on: &str,
        right_on: &str,
        copy_of: &impl Fn(&CopyKey) -> bool,
        options: PlanOptions,
    ) -> NodeShard {
        let inputs = &program.node(id).inputs;
        let (l, r) = (&nodes[inputs[0].0], &nodes[inputs[1].0]);
        match Distribution::join(&l.distribution, left_on, &r.distribution, right_on) {
            JoinDistribution::Colocated { output } => NodeShard {
                // A colocated outcome always has a multi-shard
                // partitioned probe (left) side — width-1 layouts were
                // normalized to Single at the source — and its scatter
                // drives the join's tasks. The build side is either
                // aligned (Local) or a replicated broadcast.
                scatter: l.scatter.clone(),
                distribution: output,
                colocated: true,
                partials_needed: false,
                exchanges: vec![
                    ExchangeKind::Local,
                    if r.distribution.is_partitioned() {
                        ExchangeKind::Local
                    } else {
                        ExchangeKind::Broadcast
                    },
                ],
                copy_served: Vec::new(),
                routed: None,
            },
            JoinDistribution::Gather => {
                // Mismatched layouts: shuffle both sides to the join
                // keys' layout when the exchange pays, else gather.
                let width = [l, r]
                    .iter()
                    .filter(|n| n.distribution.is_partitioned())
                    .map(|n| n.distribution.shard_count())
                    .max()
                    .unwrap_or(1);
                let est = Self::edge_rows(program, inputs.iter());
                let w = width as u32;
                let served = |input: NodeId, key: &str| {
                    shuffle_copy_key(program, input, key, w).is_some_and(|k| copy_of(&k))
                };
                let left_served = width > 1 && served(inputs[0], left_on);
                let right_shuffles = r.distribution.is_partitioned();
                let right_served = right_shuffles && width > 1 && served(inputs[1], right_on);
                let all_served = left_served && (!right_shuffles || right_served);
                if options.repartitions() && width > 1 && (all_served || exchange_pays(est, width))
                {
                    NodeShard {
                        // The splice restores the gathered probe order,
                        // so the shuffled join's output is Single — a
                        // downstream consumer sees exactly the gathered
                        // plan's bytes.
                        distribution: Distribution::Single,
                        scatter: (0..w).map(ShardId).collect(),
                        colocated: false,
                        partials_needed: false,
                        exchanges: vec![
                            ExchangeKind::ShuffleHash {
                                key: left_on.to_owned(),
                                width: w,
                            },
                            if right_shuffles {
                                ExchangeKind::ShuffleHash {
                                    key: right_on.to_owned(),
                                    width: w,
                                }
                            } else {
                                ExchangeKind::Broadcast
                            },
                        ],
                        copy_served: vec![left_served, right_served],
                        routed: None,
                    }
                } else {
                    Self::gather_all(nodes, inputs.iter())
                }
            }
        }
    }

    /// Plans a group-by over a partitioned input: partition-wise when
    /// the group keys contain the partition key (each group lives
    /// wholly on one shard, so per-shard aggregation concatenated in
    /// shard order is the gathered answer), partial-aggregate + merge
    /// when the exchange pays, an explicit gather otherwise.
    fn plan_group_by(
        program: &Program,
        nodes: &[NodeShard],
        id: NodeId,
        keys: &[String],
        options: PlanOptions,
    ) -> NodeShard {
        let inputs = &program.node(id).inputs;
        let src = &nodes[inputs[0].0];
        if !src.distribution.is_partitioned() {
            return Self::gather_all(nodes, inputs.iter());
        }
        let Some(partition_key) = src.distribution.key() else {
            return Self::gather_all(nodes, inputs.iter());
        };
        if keys.iter().any(|k| k == partition_key) {
            // Partition-wise: the group keys pin every group to one
            // shard, and the key column survives into the output.
            return NodeShard {
                distribution: src.distribution.clone(),
                scatter: src.scatter.clone(),
                colocated: true,
                partials_needed: false,
                exchanges: vec![ExchangeKind::Local],
                copy_served: Vec::new(),
                routed: None,
            };
        }
        let width = src.scatter.len();
        let est = Self::edge_rows(program, inputs.iter());
        if options.repartitions() && exchange_pays(est, width) {
            NodeShard {
                distribution: Distribution::Single,
                scatter: src.scatter.clone(),
                colocated: false,
                partials_needed: false,
                exchanges: vec![ExchangeKind::MergePartials],
                copy_served: Vec::new(),
                routed: None,
            }
        } else {
            Self::gather_all(nodes, inputs.iter())
        }
    }

    /// Total estimated rows crossing the given input edges, from the
    /// program's cardinality annotations; `None` when any edge is
    /// un-estimated (an uncosted program).
    fn edge_rows<'a>(program: &Program, inputs: impl Iterator<Item = &'a NodeId>) -> Option<f64> {
        let mut total = 0.0;
        for &i in inputs {
            total += program.node(i).annotations.est_rows?;
        }
        Some(total)
    }

    /// A single-input node preserving its input's distribution: when
    /// the input is partitioned the node executes colocated (one task
    /// per shard partial); `columns` applies the projection rule.
    fn preserve(nodes: &[NodeShard], input: NodeId, columns: Option<&Vec<String>>) -> NodeShard {
        let src = &nodes[input.0];
        let distribution = match columns {
            Some(cols) => src.distribution.after_projection(cols),
            None => src.distribution.clone(),
        };
        if distribution.is_partitioned() && src.distribution.is_partitioned() {
            NodeShard {
                scatter: src.scatter.clone(),
                distribution,
                colocated: true,
                partials_needed: false,
                exchanges: vec![ExchangeKind::Local],
                copy_served: Vec::new(),
                routed: None,
            }
        } else if src.distribution.is_partitioned() {
            // Re-keyed projection: explicit gather of the input.
            NodeShard {
                exchanges: vec![ExchangeKind::Gather],
                ..NodeShard::single()
            }
        } else {
            NodeShard {
                distribution,
                exchanges: vec![ExchangeKind::Local],
                ..NodeShard::single()
            }
        }
    }

    /// A node that gathers every partitioned input and runs at one
    /// site.
    fn gather_all<'a>(nodes: &[NodeShard], inputs: impl Iterator<Item = &'a NodeId>) -> NodeShard {
        NodeShard {
            exchanges: inputs
                .map(|i| {
                    if nodes[i.0].distribution.is_partitioned() {
                        ExchangeKind::Gather
                    } else {
                        ExchangeKind::Local
                    }
                })
                .collect(),
            ..NodeShard::single()
        }
    }

    /// One node's plan entry.
    ///
    /// # Panics
    ///
    /// Panics on ids from a different program.
    pub fn node(&self, id: NodeId) -> &NodeShard {
        &self.nodes[id.0]
    }

    /// Number of shard tasks `id` fans out into.
    pub fn scatter_width(&self, id: NodeId) -> usize {
        self.nodes[id.0].scatter_width()
    }

    /// Number of planned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Exchange-edge totals across the plan, by kind.
    pub fn exchange_counts(&self) -> ExchangeCounts {
        let mut counts = ExchangeCounts::default();
        for node in &self.nodes {
            for (idx, e) in node.exchanges.iter().enumerate() {
                match e {
                    ExchangeKind::Local => {}
                    ExchangeKind::Gather => counts.gathers += 1,
                    ExchangeKind::Broadcast => counts.broadcasts += 1,
                    ExchangeKind::ShuffleHash { .. } if node.is_copy_served(idx) => {
                        counts.materialized += 1;
                    }
                    ExchangeKind::ShuffleHash { .. } => counts.shuffles += 1,
                    ExchangeKind::MergePartials => counts.merge_partials += 1,
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AggFn, AggSpec};
    use pspp_common::{Predicate, Value};

    fn spec_map(
        specs: Vec<(TableRef, PartitionSpec)>,
    ) -> impl Fn(&TableRef) -> Option<PartitionSpec> {
        move |t: &TableRef| {
            specs
                .iter()
                .find(|(table, _)| table == t)
                .map(|(_, s)| s.clone())
        }
    }

    /// A plan's node entries — what two plans made under different
    /// switches can agree on; each keeps its own options.
    fn entries(plan: &ShardPlan) -> Vec<NodeShard> {
        plan.nodes.clone()
    }

    fn join_program(left: TableRef, right: TableRef, on: &str) -> (Program, NodeId) {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(left), "sql");
        let b = p.add_source(Operator::scan(right), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: on.into(),
                right_on: on.into(),
            },
            vec![a, b],
            "sql",
        );
        p.mark_output(j);
        (p, j)
    }

    fn group_program(table: TableRef, keys: &[&str]) -> (Program, NodeId) {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(table), "sql");
        let g = p.add_node(
            Operator::GroupBy {
                keys: keys.iter().map(|k| (*k).into()).collect(),
                aggs: vec![AggSpec {
                    func: AggFn::Count,
                    column: "*".into(),
                    output: "n".into(),
                }],
            },
            vec![a],
            "sql",
        );
        p.mark_output(g);
        (p, g)
    }

    #[test]
    fn unpartitioned_program_is_all_single() {
        let (p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "k");
        let plan = ShardPlan::plan(&p, |_| None, PlanOptions::default()).unwrap();
        assert_eq!(plan.len(), 3);
        for n in p.nodes() {
            assert_eq!(plan.node(n.id).distribution, Distribution::Single);
            assert!(!plan.node(n.id).colocated);
            assert!(!plan.node(n.id).shuffles());
        }
        assert_eq!(plan.scatter_width(j), 1);
        assert_eq!(plan.exchange_counts(), ExchangeCounts::default());
    }

    #[test]
    fn compatible_hash_join_colocates_and_keeps_distribution() {
        let (p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("pid", 4)),
        ]);
        let plan = ShardPlan::plan(&p, specs, PlanOptions::default()).unwrap();
        let join = plan.node(j);
        assert!(join.colocated);
        assert_eq!(join.scatter_width(), 4);
        assert_eq!(join.distribution.key(), Some("pid"));
        assert_eq!(
            join.exchanges,
            vec![ExchangeKind::Local, ExchangeKind::Local]
        );
        // Both scan producers must retain their per-shard partials.
        assert!(plan.node(NodeId(0)).partials_needed);
        assert!(plan.node(NodeId(1)).partials_needed);
    }

    #[test]
    fn mismatched_keys_shuffle_both_sides_by_default() {
        let (p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            // Partitioned on the wrong column: cannot colocate, but the
            // shuffle keeps the join per-shard.
            (TableRef::new("db2", "b"), PartitionSpec::hash("age", 4)),
        ]);
        let plan = ShardPlan::plan(&p, specs, PlanOptions::default()).unwrap();
        let join = plan.node(j);
        assert!(!join.colocated);
        assert!(join.shuffles());
        assert_eq!(join.scatter_width(), 4, "one build+probe task per shard");
        assert_eq!(
            join.exchanges,
            vec![
                ExchangeKind::ShuffleHash {
                    key: "pid".into(),
                    width: 4
                },
                ExchangeKind::ShuffleHash {
                    key: "pid".into(),
                    width: 4
                },
            ]
        );
        // The spliced output is the gathered plan's bytes.
        assert_eq!(join.distribution, Distribution::Single);
        // Shuffle reads gathered inputs, not partials.
        assert!(!plan.node(NodeId(0)).partials_needed);
        assert_eq!(plan.exchange_counts().shuffles, 2);
    }

    #[test]
    fn small_estimated_joins_gather_instead_of_shuffling() {
        let (mut p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        // Tiny estimated inputs: the per-shard exchange overhead beats
        // the parallelism, so the planner gathers.
        for id in [NodeId(0), NodeId(1)] {
            p.node_mut(id).annotations.est_rows = Some(100.0);
        }
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("age", 4)),
        ]);
        let plan = ShardPlan::plan(&p, &specs, PlanOptions::default()).unwrap();
        let join = plan.node(j);
        assert!(!join.shuffles());
        assert_eq!(join.gathered_input_count(), 2);
        assert_eq!(join.scatter_width(), 1);

        // Large estimates flip the same plan to a shuffle.
        for id in [NodeId(0), NodeId(1)] {
            p.node_mut(id).annotations.est_rows = Some(100_000.0);
        }
        let plan = ShardPlan::plan(&p, &specs, PlanOptions::default()).unwrap();
        assert!(plan.node(j).shuffles());
        assert_eq!(plan.node(j).scatter_width(), 4);
    }

    #[test]
    fn exchange_off_reverts_mismatched_joins_to_gather() {
        let (p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("age", 4)),
        ]);
        let plan = ShardPlan::plan(
            &p,
            &specs,
            PlanOptions {
                exchange: false,
                ..PlanOptions::default()
            },
        )
        .unwrap();
        let join = plan.node(j);
        assert!(
            !join.shuffles(),
            "`exchange: false` is the gathered baseline"
        );
        assert_eq!(join.gathered_input_count(), 2);
        assert_eq!(join.distribution, Distribution::Single);
        // Compatible joins still colocate under `exchange: false`.
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("pid", 4)),
        ]);
        let plan = ShardPlan::plan(
            &p,
            &specs,
            PlanOptions {
                exchange: false,
                ..PlanOptions::default()
            },
        )
        .unwrap();
        assert!(plan.node(j).colocated);
    }

    #[test]
    fn shuffle_against_an_unsharded_side_broadcasts_it() {
        let (p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let specs = spec_map(vec![(
            TableRef::new("db1", "a"),
            PartitionSpec::hash("age", 4),
        )]);
        let plan = ShardPlan::plan(&p, specs, PlanOptions::default()).unwrap();
        let join = plan.node(j);
        assert!(join.shuffles());
        assert_eq!(
            join.exchanges[1],
            ExchangeKind::Broadcast,
            "the unsharded build side is broadcast to every task"
        );
        assert_eq!(plan.exchange_counts().broadcasts, 1);
    }

    #[test]
    fn group_by_on_partition_key_is_partition_wise() {
        let (p, g) = group_program(TableRef::new("db1", "a"), &["pid", "age"]);
        let specs = spec_map(vec![(
            TableRef::new("db1", "a"),
            PartitionSpec::hash("pid", 4),
        )]);
        let plan = ShardPlan::plan(&p, &specs, PlanOptions::default()).unwrap();
        let group = plan.node(g);
        assert!(group.colocated, "each group lives wholly on one shard");
        assert_eq!(group.scatter_width(), 4);
        assert_eq!(group.distribution.key(), Some("pid"));
        assert_eq!(group.exchanges, vec![ExchangeKind::Local]);
        assert!(plan.node(NodeId(0)).partials_needed);
        // Partition-wise grouping is a colocation feature, not an
        // exchange: it survives `exchange: false` like colocated joins
        // do, and reverts only with `colocate: false`.
        let plan = ShardPlan::plan(
            &p,
            &specs,
            PlanOptions {
                exchange: false,
                ..PlanOptions::default()
            },
        )
        .unwrap();
        assert!(plan.node(g).colocated);
        let plan = ShardPlan::plan(&p, &specs, PlanOptions::gathered()).unwrap();
        assert!(!plan.node(g).colocated);
        assert_eq!(plan.node(g).gathered_input_count(), 1);
    }

    #[test]
    fn group_by_off_partition_key_splits_into_partial_plus_merge() {
        let (p, g) = group_program(TableRef::new("db1", "a"), &["age"]);
        let specs = spec_map(vec![(
            TableRef::new("db1", "a"),
            PartitionSpec::hash("pid", 4),
        )]);
        let plan = ShardPlan::plan(&p, &specs, PlanOptions::default()).unwrap();
        let group = plan.node(g);
        assert!(!group.colocated);
        assert!(group.merges_partials());
        assert_eq!(group.scatter_width(), 4, "one partial task per shard");
        assert_eq!(group.distribution, Distribution::Single);
        assert!(
            plan.node(NodeId(0)).partials_needed,
            "partial aggregation reads the scan's per-shard partials"
        );
        assert_eq!(plan.exchange_counts().merge_partials, 1);

        // The exchange toggle reverts it to a gather.
        let plan = ShardPlan::plan(
            &p,
            &specs,
            PlanOptions {
                exchange: false,
                ..PlanOptions::default()
            },
        )
        .unwrap();
        assert!(!plan.node(g).merges_partials());
        assert_eq!(plan.node(g).gathered_input_count(), 1);
    }

    #[test]
    fn exchange_without_colocation_is_the_gathered_plan() {
        // A mismatched-key join and an off-key group-by: the two nodes
        // the default plan repartitions.
        let (mut p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let g = p.add_node(
            Operator::GroupBy {
                keys: vec!["age".into()],
                aggs: vec![],
            },
            vec![NodeId(0)],
            "sql",
        );
        p.mark_output(g);
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("age", 4)),
        ]);
        let default = ShardPlan::plan(&p, &specs, PlanOptions::default()).unwrap();
        assert!(default.node(j).shuffles() && default.node(g).merges_partials());
        let off_on = PlanOptions {
            colocate: false,
            ..PlanOptions::default()
        };
        assert!(off_on.exchange && !off_on.repartitions());
        assert_eq!(
            entries(&ShardPlan::plan(&p, &specs, off_on).unwrap()),
            entries(&ShardPlan::plan(&p, &specs, PlanOptions::gathered()).unwrap())
        );
    }

    #[test]
    fn tiny_group_by_gathers_by_cost() {
        let (mut p, g) = group_program(TableRef::new("db1", "a"), &["age"]);
        p.node_mut(NodeId(0)).annotations.est_rows = Some(50.0);
        let specs = spec_map(vec![(
            TableRef::new("db1", "a"),
            PartitionSpec::hash("pid", 4),
        )]);
        let plan = ShardPlan::plan(&p, &specs, PlanOptions::default()).unwrap();
        assert!(!plan.node(g).merges_partials());
        assert_eq!(plan.node(g).gathered_input_count(), 1);
    }

    #[test]
    fn width_one_layouts_plan_as_single_everywhere() {
        // The unified width-1 rule: a hashed x1 layout must not take
        // any colocated/partial code path — it plans exactly like
        // unsharded data.
        let (p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 1)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("pid", 1)),
        ]);
        let plan = ShardPlan::plan(&p, specs, PlanOptions::default()).unwrap();
        for n in p.nodes() {
            let e = plan.node(n.id);
            assert_eq!(e.distribution, Distribution::Single, "node {}", n.id);
            assert!(!e.colocated && !e.partials_needed && !e.shuffles());
            assert_eq!(e.scatter_width(), 1);
        }
        assert_eq!(plan.exchange_counts(), ExchangeCounts::default());
        assert_eq!(plan.scatter_width(j), 1);
    }

    #[test]
    fn filter_preserves_and_join_colocates_through_it() {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "a")), "sql");
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::ge("age", 10i64),
            },
            vec![a],
            "sql",
        );
        let b = p.add_source(Operator::scan(TableRef::new("db2", "b")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "pid".into(),
                right_on: "pid".into(),
            },
            vec![f, b],
            "sql",
        );
        p.mark_output(j);
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 2)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("pid", 2)),
        ]);
        let plan = ShardPlan::plan(&p, specs, PlanOptions::default()).unwrap();
        let filter = plan.node(f);
        assert!(filter.colocated, "filter executes per shard");
        assert_eq!(filter.distribution.key(), Some("pid"));
        assert_eq!(filter.scatter_width(), 2);
        assert!(filter.partials_needed, "join reads the filter's partials");
        assert!(plan.node(j).colocated);
    }

    #[test]
    fn projection_keeping_key_preserves_dropping_key_degrades() {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "a")), "sql");
        let keep = p.add_node(
            Operator::Project {
                columns: vec!["pid".into(), "age".into()],
            },
            vec![a],
            "sql",
        );
        let drop = p.add_node(
            Operator::Project {
                columns: vec!["age".into()],
            },
            vec![keep],
            "sql",
        );
        p.mark_output(drop);
        let specs = spec_map(vec![(
            TableRef::new("db1", "a"),
            PartitionSpec::hash("pid", 3),
        )]);
        let plan = ShardPlan::plan(&p, specs, PlanOptions::default()).unwrap();
        assert!(plan.node(keep).colocated);
        assert_eq!(plan.node(keep).distribution.key(), Some("pid"));
        // Re-keying projection degrades to single with an explicit
        // gather of its (still partitioned) input.
        let rekeyed = plan.node(drop);
        assert!(!rekeyed.colocated);
        assert_eq!(rekeyed.distribution, Distribution::Single);
        assert_eq!(rekeyed.exchanges, vec![ExchangeKind::Gather]);
    }

    #[test]
    fn fused_aliases_are_transparent_to_colocation() {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "a")), "sql");
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::True,
            },
            vec![a],
            "sql",
        );
        p.node_mut(f).annotations.fused_into_consumer = true;
        let b = p.add_source(Operator::scan(TableRef::new("db2", "b")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "pid".into(),
                right_on: "pid".into(),
            },
            vec![f, b],
            "sql",
        );
        p.mark_output(j);
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 2)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("pid", 2)),
        ]);
        let plan = ShardPlan::plan(&p, specs, PlanOptions::default()).unwrap();
        assert!(plan.node(j).colocated, "colocation sees through fusion");
        assert_eq!(plan.node(f).distribution.key(), Some("pid"));
        assert!(
            plan.node(a).partials_needed,
            "the executing producer behind the alias retains partials"
        );
        assert!(
            plan.node(f).partials_needed,
            "the alias forwards partials too"
        );
    }

    #[test]
    fn sort_gathers_partitioned_inputs() {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "a")), "sql");
        let s = p.add_node(
            Operator::Sort {
                keys: vec![crate::op::SortSpec {
                    column: "pid".into(),
                    ascending: true,
                }],
            },
            vec![a],
            "sql",
        );
        p.mark_output(s);
        let specs = spec_map(vec![(
            TableRef::new("db1", "a"),
            PartitionSpec::range("pid", vec![Value::Int(10)]),
        )]);
        let plan = ShardPlan::plan(&p, specs, PlanOptions::default()).unwrap();
        assert_eq!(plan.node(a).scatter_width(), 2);
        assert_eq!(plan.node(s).distribution, Distribution::Single);
        assert_eq!(plan.node(s).exchanges, vec![ExchangeKind::Gather]);
    }

    #[test]
    fn colocate_off_reverts_to_gathered_joins() {
        let (p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("pid", 4)),
        ]);
        let plan = ShardPlan::plan(&p, &specs, PlanOptions::gathered()).unwrap();
        assert!(!plan.node(j).colocated);
        assert_eq!(plan.node(j).gathered_input_count(), 2);
        // Scans still scatter: the PR-3 baseline keeps scan speedup.
        assert_eq!(plan.node(NodeId(0)).scatter_width(), 4);
    }

    #[test]
    fn materialized_copies_mark_shuffle_edges_served() {
        let (p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("age", 4)),
        ]);
        let materialize = PlanOptions {
            materialize: true,
            ..PlanOptions::default()
        };
        // No copies — or a store nobody switched on: a plain shuffle.
        let plan = ShardPlan::plan_with_copies(&p, &specs, |_| false, materialize).unwrap();
        assert_eq!(
            entries(&plan),
            entries(
                &ShardPlan::plan_with_copies(&p, &specs, |_| true, PlanOptions::default()).unwrap()
            )
        );
        assert!(plan.node(j).shuffles());
        assert!(!plan.node(j).is_copy_served(0));
        assert_eq!(plan.exchange_counts().shuffles, 2);
        assert_eq!(plan.exchange_counts().materialized, 0);

        // Every layout materialized: both edges served, counted apart.
        let plan = ShardPlan::plan_with_copies(&p, &specs, |_| true, materialize).unwrap();
        let join = plan.node(j);
        assert!(join.shuffles(), "the edge kind is still a shuffle");
        assert!(join.is_copy_served(0) && join.is_copy_served(1));
        let counts = plan.exchange_counts();
        assert_eq!((counts.shuffles, counts.materialized), (0, 2));

        // Only the probe side materialized: the build still routes.
        let probe_key = shuffle_copy_key(&p, NodeId(0), "pid", 4).unwrap();
        assert_eq!(probe_key.table, TableRef::new("db1", "a"));
        let plan =
            ShardPlan::plan_with_copies(&p, &specs, |k| *k == probe_key, materialize).unwrap();
        let join = plan.node(j);
        assert!(join.is_copy_served(0) && !join.is_copy_served(1));
        let counts = plan.exchange_counts();
        assert_eq!((counts.shuffles, counts.materialized), (1, 1));
    }

    #[test]
    fn served_copies_flip_a_cost_gather_back_to_shuffle() {
        let (mut p, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        // Tiny estimates gather without copies...
        for id in [NodeId(0), NodeId(1)] {
            p.node_mut(id).annotations.est_rows = Some(100.0);
        }
        let specs = spec_map(vec![
            (TableRef::new("db1", "a"), PartitionSpec::hash("pid", 4)),
            (TableRef::new("db2", "b"), PartitionSpec::hash("age", 4)),
        ]);
        let plan = ShardPlan::plan(&p, &specs, PlanOptions::default()).unwrap();
        assert!(!plan.node(j).shuffles());
        // ...but with every layout persisted the shuffle is free, so
        // the planner keeps it.
        let materialize = PlanOptions {
            materialize: true,
            ..PlanOptions::default()
        };
        let plan = ShardPlan::plan_with_copies(&p, &specs, |_| true, materialize).unwrap();
        assert!(plan.node(j).shuffles());
        assert!(plan.node(j).is_copy_served(0));
    }

    #[test]
    fn subtree_signatures_distinguish_pushed_work() {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "a")), "sql");
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::ge("age", 10i64),
            },
            vec![a],
            "sql",
        );
        p.mark_output(f);
        assert_ne!(
            subtree_signature(&p, a),
            subtree_signature(&p, f),
            "a filtered scan must not share a copy with the bare scan"
        );
        assert_eq!(subtree_source_table(&p, f), Some(TableRef::new("db1", "a")));
        // A join of two tables has no single anchor table.
        let (p2, j) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        assert_eq!(subtree_source_table(&p2, j), None);
        assert!(shuffle_copy_key(&p2, j, "pid", 4).is_none());
    }

    #[test]
    fn repartition_pays_weighs_cumulative_shuffles_against_the_copy() {
        let bytes = 1_000_000u64; // 1 MB -> 100 us memory copy
        assert!(!repartition_pays(50e-6, bytes));
        assert!(repartition_pays(150e-6, bytes));
        assert!(repartition_pays(1e-9, 0), "empty layouts are free to keep");
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let (p, _) = join_program(TableRef::new("db1", "a"), TableRef::new("db2", "b"), "pid");
        let specs = spec_map(vec![(
            TableRef::new("db1", "a"),
            PartitionSpec::hash("pid", 0),
        )]);
        assert!(matches!(
            ShardPlan::plan(&p, specs, PlanOptions::default()),
            Err(pspp_common::Error::EmptyShardSet(_))
        ));
    }
}
