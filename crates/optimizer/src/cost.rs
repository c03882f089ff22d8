//! Cardinality estimation, per-device operator costing, and placement
//! (§IV-B.3: "the core must decide where each task should be assigned").
//!
//! Every figure here is a [`crate::price`] formula evaluated on an
//! estimated volume — the executor evaluates the same formulas on the
//! actual counts — so prediction error comes from cardinality
//! estimation (measured by experiment E15) and from the terms the price
//! list marks as billed by one side only.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pspp_accel::{AcceleratorFleet, DeploymentMode, LogCa, SimDuration};
use pspp_common::{DataModel, DeviceKind, EngineId, Result, ShardId, TableRef};
use pspp_ir::{
    ColumnDemand, ExchangeCounts, ExchangeKind, FusedChain, FusionTag, NodeId, Operator, Program,
    ProgramNode, ShardPlan,
};
pub use pspp_telemetry::JoinSite;

use crate::price;
use crate::rewrite::resolve_fused;

/// Base statistics for one stored dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Row (or element) count.
    pub rows: f64,
    /// Mean row payload bytes.
    pub row_bytes: f64,
}

impl Default for TableStats {
    fn default() -> Self {
        TableStats {
            rows: 10_000.0,
            row_bytes: 64.0,
        }
    }
}

/// One input of a join, as the site rule sees it.
#[derive(Debug, Clone)]
struct JoinSide {
    /// The engine the input's rows are on.
    engine: Option<EngineId>,
    /// Estimated bytes of the input.
    bytes: f64,
    /// The estimated bytes a migration of it ships
    /// ([`CostModel::demanded_bytes`]).
    shipped: f64,
    /// The columns of it somebody reads — what a migration would ship —
    /// when they are not all of them.
    kept: Option<ColumnDemand>,
    /// Whether that engine was reached through a relational `Scan`.
    relational: bool,
}

/// The outcome of placement: per-node device/cost plus plan totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Estimated per-node execution seconds, indexed by node id.
    pub node_seconds: HashMap<NodeId, f64>,
    /// Estimated migration seconds across cross-engine edges.
    pub migration_seconds: f64,
    /// Estimated total (sequential) plan seconds.
    pub total_seconds: f64,
    /// Nodes offloaded to accelerators.
    pub offloaded: usize,
    /// Exchange-edge totals of the priced plan, by kind — how many
    /// gathers, broadcasts, shuffles and partial merges the optimizer
    /// chose.
    pub exchanges: ExchangeCounts,
    /// Estimated seconds spent in repartitioning exchanges (shuffle
    /// routing and partial-state merges), included in `total_seconds`.
    pub exchange_seconds: f64,
    /// Per-(node, shard) device pick: which computing unit each shard
    /// replica of a fanned-out node runs on. The executor consumes
    /// these — it never re-derives a device — so planned and executed
    /// assignments agree by construction. Slots of one node start on
    /// one pick; the fusion and queue passes may move single slots.
    pub device_picks: HashMap<(NodeId, ShardId), DeviceKind>,
    /// Device-resident fused chains formed by the fusion pass, in
    /// discovery order. [`pspp_ir::Annotations::shard_fusion`] tags
    /// index into this vector, so executed fusion (reported by the
    /// executor per task) can be asserted equal to the plan.
    pub fused_chains: Vec<FusedChain>,
    /// Total planned device-queue wait across contended slots,
    /// included in the affected nodes' critical paths.
    pub queue_wait_seconds: f64,
    /// Where each join over inputs on different engines runs, with the
    /// two byte estimates that decided it and the migration it is
    /// billed, in plan order.
    pub join_sites: Vec<JoinSite>,
}

impl PlacementPlan {
    /// Renders the plan alone (`EXPLAIN`, nothing executes): planned
    /// seconds per node, each cross-engine join's site with the two
    /// byte estimates compared, and the plan's totals.
    pub fn explain(&self) -> String {
        pspp_telemetry::explain_plan(&self.planned_costs())
    }

    /// This plan's estimates in the shape `EXPLAIN ANALYZE` joins
    /// against executed traces (see
    /// [`pspp_telemetry::explain_analyze`]).
    pub fn planned_costs(&self) -> pspp_telemetry::PlannedCosts {
        pspp_telemetry::PlannedCosts {
            node_seconds: self.node_seconds.clone(),
            total_seconds: self.total_seconds,
            exchange_seconds: self.exchange_seconds,
            migration_seconds: self.migration_seconds,
            join_sites: self.join_sites.clone(),
        }
    }
}

/// The optimizer cost model: table statistics. The deployment's layout
/// — partition specs, live repartition copies, the device fleet — stays
/// with its owner (the engine registry): the distribution plan made
/// from it rides the program, and the fleet is handed to
/// [`CostModel::place`] per call.
#[derive(Debug, Clone)]
pub struct CostModel {
    stats: HashMap<TableRef, TableStats>,
}

impl CostModel {
    /// Creates a model over dataset statistics.
    pub fn new(stats: HashMap<TableRef, TableStats>) -> Self {
        CostModel { stats }
    }

    /// Estimated cost on `fleet`'s host of the shard-ordered gather
    /// concatenating `width` partials totaling `rows` output rows
    /// ([`price::splice`]). Zero when nothing scatters.
    pub fn gather_cost(fleet: &AcceleratorFleet, width: usize, rows: f64) -> SimDuration {
        if width <= 1 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs(price::splice(fleet, width, rows.max(0.0)))
    }

    /// Fills `est_rows`/`est_bytes` annotations in topological order.
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::Semantic`] on cyclic programs.
    pub fn estimate_cardinalities(&self, program: &mut Program) -> Result<()> {
        let order = program.topo_order()?;
        for id in order {
            let node = program.node(id).clone();
            let input_est: Vec<(f64, f64)> = node
                .inputs
                .iter()
                .map(|&i| Self::estimate_of(program.node(resolve_fused(program, i))))
                .collect();
            let (rows, bytes) = self.estimate_node(&node.op, &input_est);
            let ann = &mut program.node_mut(id).annotations;
            ann.est_rows = Some(rows);
            ann.est_bytes = Some(bytes);
        }
        Ok(())
    }

    fn estimate_node(&self, op: &Operator, inputs: &[(f64, f64)]) -> (f64, f64) {
        let stats_for = |t: &TableRef| self.stats.get(t).copied().unwrap_or_default();
        match op {
            Operator::Scan {
                table,
                predicate,
                projection,
            } => {
                let s = stats_for(table);
                let rows = (s.rows * predicate.selectivity()).max(1.0);
                let width = if projection.is_some() {
                    s.row_bytes * 0.5
                } else {
                    s.row_bytes
                };
                (rows, rows * width)
            }
            Operator::TsRange { table, lo, hi } => {
                let s = stats_for(table);
                let frac = (((hi - lo) as f64) / 86_400.0).clamp(0.01, 1.0);
                (s.rows * frac, s.rows * frac * 16.0)
            }
            Operator::TsWindow { lo, hi, width, .. } => {
                let windows = (((hi - lo) / width.max(&1)) as f64).max(1.0);
                (windows, windows * 16.0)
            }
            Operator::GraphMatch { table, steps, .. } => {
                let s = stats_for(table);
                let fanout = 3.0f64.powi(steps.len() as i32);
                let rows = (s.rows * 0.1 * fanout).max(1.0);
                (rows, rows * 24.0)
            }
            Operator::TextSearch { table, mode, .. } => {
                let s = stats_for(table);
                let rows = match mode {
                    pspp_ir::TextSearchMode::Ranked(k) => (*k as f64).min(s.rows),
                    _ => s.rows * 0.1,
                };
                (rows, rows * 16.0)
            }
            Operator::Filter { predicate } => {
                let (r, b) = inputs[0];
                let sel = predicate.selectivity();
                (r * sel, b * sel)
            }
            Operator::Project { columns } => {
                let (r, b) = inputs[0];
                let frac = (columns.len() as f64 * 0.15).min(1.0);
                (r, b * frac)
            }
            Operator::Sort { .. } => inputs[0],
            Operator::HashJoin { .. } | Operator::SortMergeJoin { .. } => {
                let (lr, lb) = inputs[0];
                let (rr, rb) = inputs[1];
                let rows = (lr.max(rr) * 1.2).max(1.0);
                let width = (lb / lr.max(1.0)) + (rb / rr.max(1.0));
                (rows, rows * width)
            }
            Operator::GroupBy { .. } => {
                let (r, b) = inputs[0];
                ((r * 0.1).max(1.0), (b * 0.1).max(16.0))
            }
            Operator::Limit { n } => {
                let (r, b) = inputs[0];
                let rows = (*n as f64).min(r);
                (rows, b * rows / r.max(1.0))
            }
            Operator::TrainMlp { .. } => (1.0, 4096.0), // the model itself
            Operator::Predict => inputs[0],
            Operator::KMeansCluster { k, .. } => {
                let (r, _) = inputs[0];
                (r, r * 8.0 + *k as f64 * 64.0)
            }
        }
    }

    /// Estimated execution seconds of `op` on `device` of `fleet` —
    /// each shard replica is priced on its own devices — including the
    /// coprocessor transfer where applicable; `None` when the fleet has
    /// no such device or it cannot run the operator.
    pub fn node_cost_on(
        fleet: &AcceleratorFleet,
        op: &Operator,
        device: DeviceKind,
        est_rows: f64,
        est_bytes: f64,
    ) -> Option<SimDuration> {
        let profile = price::planned_profile(fleet, op, device)?;
        let kernel = price::training(profile, op, est_rows, est_bytes).unwrap_or_else(|| {
            price::compute(
                profile,
                op,
                est_rows.max(1.0) as u64,
                est_bytes.max(1.0) as u64,
            )
        });
        let moved = Self::transfer_bytes(op, est_rows, est_bytes);
        Some(kernel + price::transfer(fleet, device, moved, false))
    }

    /// [`price::offload_bytes`] at an estimated volume.
    fn transfer_bytes(op: &Operator, est_rows: f64, est_bytes: f64) -> u64 {
        price::offload_bytes(op, est_rows.max(0.0) as u64, est_bytes.max(0.0) as u64)
    }

    /// The LogCA profitability model \[43\] for offloading `op` to
    /// `device` of `fleet` at the given **per-task** cardinality, paired
    /// with the granularity `g` (bytes crossing the offload boundary)
    /// it should be evaluated at.
    ///
    /// The model's parameters are derived from the same price list
    /// [`CostModel::node_cost_on`] prices with — `o` is the device's
    /// launch overhead, `l` the attachment link's per-byte time (zero
    /// for standalone / bump-in-the-wire devices), `c` the host's
    /// per-byte compute time at this granularity (β = 1), and `a` the
    /// kernel-only acceleration — so `speedup(g) ≥ 1` is exactly the
    /// "does offload pay at this granularity" question.
    ///
    /// Placement evaluates it on **per-shard** volumes: a node the
    /// shard plan fans out over `w` replicas offloads `rows / w` per
    /// task, and a granularity profitable whole-table can fall under
    /// the device's break-even once split `w` ways.
    ///
    /// Returns `None` for the host itself and whenever either side
    /// cannot run the kernel (no host alternative means no gate).
    pub fn offload_model_on(
        fleet: &AcceleratorFleet,
        op: &Operator,
        device: DeviceKind,
        est_rows: f64,
        est_bytes: f64,
    ) -> Option<(LogCa, u64)> {
        if device == DeviceKind::Cpu {
            return None;
        }
        let host_t = Self::node_cost_on(fleet, op, DeviceKind::Cpu, est_rows, est_bytes)?.as_secs();
        let accel_t = Self::node_cost_on(fleet, op, device, est_rows, est_bytes)?.as_secs();
        if host_t <= 0.0 || accel_t <= 0.0 {
            return None;
        }
        let g =
            price::offload_bytes(op, est_rows.max(1.0) as u64, est_bytes.max(1.0) as u64).max(1);
        let o = price::launch_seconds(fleet, device);
        let link_t = price::transfer(fleet, device, g, false).as_secs();
        let l = link_t / g as f64;
        let kernel_t = (accel_t - o - link_t).max(1e-15);
        let a = (host_t / kernel_t).max(1e-6);
        let c = host_t / g as f64;
        Some((LogCa::new(l, o, c, 1.0, a), g))
    }

    /// Estimated migration seconds for moving `bytes` between data
    /// models ([`price::migration_estimate`]).
    pub fn migration_cost(&self, bytes: f64, from: DataModel, to: DataModel) -> SimDuration {
        price::migration_estimate(bytes.max(0.0) as u64, from, to)
    }

    /// Cost-based placement: annotates every live node with the device
    /// minimizing its estimated cost, fills `est_seconds`, and returns
    /// the plan summary.
    ///
    /// Pricing is distribution-aware: a node the [`ShardPlan`] fans
    /// out over `w` shards (a partitioned scan, a colocated join, a
    /// shuffled join, a partial aggregation, a distribution-preserving
    /// filter/projection) is priced at `1/w` of each fanned-out input's
    /// volume — the per-shard tasks run on distinct replicas in
    /// parallel, matching the executor's max-over-shards accounting —
    /// plus a [`CostModel::gather_cost`] term for the shard-ordered
    /// merge of its output and a migration-class charge for every
    /// row-moving exchange edge (shuffle routing, partial-state
    /// splices), so L2 placement trades shard parallelism against data
    /// movement. The gather-vs-shuffle choice itself is
    /// [`pspp_ir::exchange_pays`] over the estimated rows crossing the
    /// edge, evaluated inside the distribution pass over the estimated
    /// cardinalities — which is why the crossover flips with the table
    /// statistics. Each node is priced once, and every scatter slot
    /// starts on that pick; the fusion and queue passes may then move
    /// single slots.
    ///
    /// The plan priced is the one the program carries
    /// ([`Program::shard_plan`]), which the executor runs: the caller
    /// estimates cardinalities ([`CostModel::estimate_cardinalities`]),
    /// runs the deployment's distribution pass over them, and hands
    /// `fleet`, the deployment's devices. The fusion pass runs when the
    /// plan was made with [`pspp_ir::PlanOptions::fusion`] on.
    ///
    /// # Errors
    ///
    /// Returns [`pspp_common::Error::Semantic`] on cyclic programs and
    /// on a program with no plan or a plan of another length.
    pub fn place(&self, program: &mut Program, fleet: &AcceleratorFleet) -> Result<PlacementPlan> {
        let plan = Arc::clone(program.shard_plan()?);
        let order = program.topo_order()?;
        let mut node_seconds = HashMap::new();
        let mut device_picks = HashMap::new();
        let mut slot_secs: HashMap<NodeId, Vec<f64>> = HashMap::new();
        let mut volumes: HashMap<NodeId, (f64, f64)> = HashMap::new();
        let mut gathers: HashMap<NodeId, f64> = HashMap::new();
        let mut offloaded = 0usize;
        let mut total = 0.0f64;
        let mut exchange_seconds = 0.0f64;
        // Nodes whose engine was reached through a relational `Scan`:
        // the only engines that may host a join.
        let mut relational_sites: HashSet<NodeId> = HashSet::new();
        let mut join_sites: Vec<JoinSite> = Vec::new();
        for &id in &order {
            let node = program.node(id).clone();
            if node.annotations.fused_into_consumer {
                continue;
            }
            // Compute cost is driven by the *input* volume (sources
            // use their own output estimate), at per-task scale: a
            // node the plan fans out over w shards sees 1/w of each
            // partitioned input, while a broadcast (replicated or
            // gathered) join side arrives whole at every task.
            let width = plan.scatter_width(id);
            let (est_rows, est_bytes) = Self::estimate_of(&node);
            let (task_rows, task_bytes) = if node.inputs.is_empty() {
                (est_rows / width as f64, est_bytes / width as f64)
            } else {
                let per_input = node.inputs.iter().enumerate().map(|(idx, &i)| {
                    let (rows, bytes) = Self::estimate_of(program.node(resolve_fused(program, i)));
                    let tasks = Self::tasks_sharing(&plan, id, idx, i);
                    (rows / tasks, bytes / tasks)
                });
                price::work_volume(&node.op, per_input)
            };
            // Exchange edges are priced like migration, by the prices
            // the executor's barriers charge.
            let mut exchange = 0.0f64;
            for (idx, &i) in node.inputs.iter().enumerate() {
                let (rows, bytes) = Self::estimate_of(program.node(resolve_fused(program, i)));
                match plan.node(id).exchange(idx) {
                    // A copy-served shuffle replays a stored layout:
                    // nothing crosses the wire, nothing is priced.
                    ExchangeKind::ShuffleHash { .. } if plan.node(id).is_copy_served(idx) => {}
                    ExchangeKind::ShuffleHash { width: w, .. } => {
                        exchange += price::shuffle_barrier(
                            fleet,
                            true,
                            rows.max(0.0) as u64,
                            bytes.max(0.0) as u64,
                            *w as usize,
                        )
                        .1;
                    }
                    ExchangeKind::MergePartials => {
                        // Partial states (one row per group per shard)
                        // cross shards and splice on the host.
                        exchange += Self::gather_cost(fleet, width.max(2), est_rows * width as f64)
                            .as_secs();
                    }
                    _ => {}
                }
            }
            // Like the executor's barrier, the exchange bill rides the
            // plan's data-movement account, not the node's kernel time.
            exchange_seconds += exchange;
            let gather = Self::gather_cost(fleet, width, est_rows).as_secs();
            // The node is priced once, at per-task volume; every
            // scatter slot starts on that pick.
            let mut best: Option<(DeviceKind, SimDuration)> = None;
            for device in DeviceKind::all() {
                // LogCA profitability gate, evaluated at *per-shard*
                // granularity: an accelerator whose speedup at this
                // task's volume is under 1 never enters the running,
                // however the raw cycle estimates round.
                if device != DeviceKind::Cpu {
                    if let Some((logca, g)) =
                        Self::offload_model_on(fleet, &node.op, device, task_rows, task_bytes)
                    {
                        if logca.speedup(g) < 1.0 {
                            continue;
                        }
                    }
                }
                if let Some(t) = Self::node_cost_on(fleet, &node.op, device, task_rows, task_bytes)
                {
                    if best.is_none_or(|(_, bt)| t < bt) {
                        best = Some((device, t));
                    }
                }
            }
            let (device, secs) = best.map_or((DeviceKind::Cpu, 0.0), |(d, t)| (d, t.as_secs()));
            let scatter = &plan.node(id).scatter;
            for &shard in scatter {
                device_picks.insert((id, shard), device);
            }
            let per_slot = vec![secs; scatter.len()];
            slot_secs.insert(id, per_slot);
            volumes.insert(id, (task_rows, task_bytes));
            gathers.insert(id, gather);
            let engine = Self::node_engine(program, &node, &mut relational_sites, &mut join_sites);
            program.node_mut(id).annotations.engine = engine;
        }
        // Pipeline-granular adjustment passes over the per-slot picks:
        // device-resident kernel fusion, then contended-device
        // queueing over the (possibly promoted) picks.
        let mut fusion_tags: HashMap<NodeId, Vec<Option<FusionTag>>> = HashMap::new();
        let fused_chains = if plan.options.fusion {
            Self::fuse_pass(
                program,
                &plan,
                fleet,
                &order,
                &mut device_picks,
                &mut slot_secs,
                &volumes,
                &mut fusion_tags,
            )
        } else {
            Vec::new()
        };
        let (queue_waits, queue_wait_seconds) = Self::queue_pass(
            program,
            &plan,
            fleet,
            &mut device_picks,
            &mut slot_secs,
            &volumes,
            &fusion_tags,
        )?;
        // Finalize per-node estimates from the adjusted slots: the
        // node's estimate is the critical (slowest) slot — device time
        // plus any queue wait — matching the executor's
        // max-over-shards accounting.
        for &id in &order {
            if program.node(id).annotations.fused_into_consumer {
                continue;
            }
            let scatter = &plan.node(id).scatter;
            let secs_slots = &slot_secs[&id];
            let waits = queue_waits.get(&id);
            let mut picks = Vec::with_capacity(scatter.len());
            let mut critical = (DeviceKind::Cpu, 0.0f64);
            for (k, &shard) in scatter.iter().enumerate() {
                let device = device_picks[&(id, shard)];
                let secs = secs_slots[k] + waits.map_or(0.0, |w| w[k]);
                picks.push(device);
                if secs > critical.1 || picks.len() == 1 {
                    critical = (device, secs);
                }
            }
            let seconds = critical.1 + gathers[&id];
            if picks.iter().any(|&d| d != DeviceKind::Cpu) {
                offloaded += 1;
            }
            let ann = &mut program.node_mut(id).annotations;
            // `device` carries the critical slot's pick; `shard_devices`
            // the per-slot map the executor consumes.
            ann.device = Some(critical.0);
            ann.shard_devices = if scatter.len() > 1 { Some(picks) } else { None };
            ann.shard_fusion = fusion_tags.get(&id).cloned();
            ann.shard_queue_waits = waits.filter(|w| w.iter().any(|&x| x > 0.0)).cloned();
            ann.est_seconds = Some(seconds);
            node_seconds.insert(id, seconds);
            total += seconds;
        }
        // Migration across engine changes.
        let mut migration = 0.0;
        for n in program.nodes() {
            if n.annotations.fused_into_consumer {
                continue;
            }
            let mut staged = 0.0;
            for &i in &n.inputs {
                let src = program.node(resolve_fused(program, i));
                if src.annotations.engine != n.annotations.engine {
                    let bytes = Self::demanded_bytes(src);
                    staged += self
                        .migration_cost(bytes, DataModel::Relational, DataModel::Relational)
                        .as_secs();
                }
            }
            if let Some(site) = join_sites.iter_mut().find(|s| s.node == n.id) {
                site.migration_seconds = staged;
            }
            migration += staged;
        }
        total += migration + exchange_seconds;
        Ok(PlacementPlan {
            node_seconds,
            migration_seconds: migration,
            total_seconds: total,
            offloaded,
            exchanges: plan.exchange_counts(),
            exchange_seconds,
            device_picks,
            fused_chains,
            queue_wait_seconds,
            join_sites,
        })
    }

    /// `node`'s estimated output (rows, bytes); a node nobody estimated
    /// counts as 1 000 rows of 64 bytes.
    fn estimate_of(node: &ProgramNode) -> (f64, f64) {
        let ann = &node.annotations;
        (
            ann.est_rows.unwrap_or(1_000.0),
            ann.est_bytes.unwrap_or(64_000.0),
        )
    }

    /// The estimated bytes of `node`'s output that some consumer reads:
    /// what a migration of it ships — the codec leaves the other columns
    /// behind — priced as the demanded columns' share of all of them.
    fn demanded_bytes(node: &ProgramNode) -> f64 {
        let (_, bytes) = Self::estimate_of(node);
        match &node.annotations.demand {
            Some(demand) => bytes * demand.share(),
            None => bytes,
        }
    }

    /// How many of `id`'s tasks share input edge `idx` (from `input`)
    /// between them: an aligned partial, a shuffled bucket or a
    /// partial-aggregation shard is one task's 1/width of the input; a
    /// broadcast or gathered side arrives whole at every task.
    fn tasks_sharing(plan: &ShardPlan, id: NodeId, idx: usize, input: NodeId) -> f64 {
        let node = plan.node(id);
        match node.exchange(idx) {
            ExchangeKind::ShuffleHash { width, .. } => f64::from(*width),
            _ if plan.reads_partial(id, idx, input) => node.scatter_width() as f64,
            _ => 1.0,
        }
    }

    /// The engine `node` runs on. Sources stay with their table; a join
    /// runs where the input that would ship the most already is
    /// ([`Self::join_site`]), so the side that ships less is what
    /// migrates; every other transform
    /// inherits its first input's engine (data gravity). `relational`
    /// collects the nodes whose engine a relational `Scan` reached;
    /// `join_sites` gets a record per join whose inputs sit on
    /// different engines.
    fn node_engine(
        program: &Program,
        node: &ProgramNode,
        relational: &mut HashSet<NodeId>,
        join_sites: &mut Vec<JoinSite>,
    ) -> Option<EngineId> {
        if let Some(table) = node.op.source_table() {
            if matches!(node.op, Operator::Scan { .. }) {
                relational.insert(node.id);
            }
            return Some(table.engine.clone());
        }
        let sides: Vec<JoinSide> = node
            .inputs
            .iter()
            .map(|&i| {
                let producer = resolve_fused(program, i);
                let producer = program.node(producer);
                let ann = &producer.annotations;
                JoinSide {
                    engine: ann.engine.clone(),
                    bytes: Self::estimate_of(producer).1,
                    shipped: Self::demanded_bytes(producer),
                    kept: ann.demand.clone(),
                    relational: relational.contains(&producer.id),
                }
            })
            .collect();
        let is_join = price::is_join(&node.op);
        let host = if is_join { Self::join_site(&sides) } else { 0 };
        let site = sides.get(host)?;
        if site.relational {
            relational.insert(node.id);
        }
        if let (true, [left, right]) = (is_join, &sides[..]) {
            if let (Some(l), Some(r)) = (&left.engine, &right.engine) {
                if l != r {
                    join_sites.push(JoinSite {
                        node: node.id,
                        site: [l, r][host].clone(),
                        left: (l.clone(), left.bytes),
                        right: (r.clone(), right.bytes),
                        kept: [left.kept.clone(), right.kept.clone()],
                        migration_seconds: 0.0,
                    });
                }
            }
        }
        site.engine.clone()
    }

    /// The input whose engine hosts a join: the one whose migration
    /// would ship strictly the most estimated bytes (its demanded
    /// columns' share) among those a relational `Scan` reaches — a
    /// text, timeseries or graph connector never hosts a join — so what
    /// migrates is the side that ships less. Ties, and joins no
    /// relational scan feeds, keep the first input.
    fn join_site(sides: &[JoinSide]) -> usize {
        let mut host: Option<usize> = None;
        for (idx, side) in sides.iter().enumerate() {
            if side.relational && host.is_none_or(|h| side.shipped > sides[h].shipped) {
                host = Some(idx);
            }
        }
        host.unwrap_or(0)
    }

    /// Kernel-fusion pass (§III–§IV: pipeline operators on the
    /// accelerator so intermediates never surface to the host). Walks
    /// the plan in topological order and, per scatter slot, greedily
    /// grows chains of adjacent nodes that can run back-to-back on the
    /// same coprocessor of the same shard: the chain pays host→device
    /// transfer once at the head, intermediate edges are billed at the
    /// device-local link, and the LogCA profitability gate re-runs on
    /// the chain as a whole — so a chain can be profitable where each
    /// node alone is not (nodes get *promoted* onto the device), and a
    /// set of individually-profitable nodes can stay unfused when the
    /// chain math doesn't carry.
    #[allow(clippy::too_many_arguments)]
    fn fuse_pass(
        program: &Program,
        plan: &ShardPlan,
        fleet: &AcceleratorFleet,
        order: &[NodeId],
        device_picks: &mut HashMap<(NodeId, ShardId), DeviceKind>,
        slot_secs: &mut HashMap<NodeId, Vec<f64>>,
        volumes: &HashMap<NodeId, (f64, f64)>,
        fusion_tags: &mut HashMap<NodeId, Vec<Option<FusionTag>>>,
    ) -> Vec<FusedChain> {
        // A producer edge is fusable only when the producer's full
        // output flows straight into this one consumer on the same
        // shard layout: a Local exchange, single consumer, not a
        // program output, identical scatter vectors.
        let mut consumer_count: HashMap<NodeId, usize> = HashMap::new();
        for n in program.nodes() {
            if n.annotations.fused_into_consumer {
                continue;
            }
            for &i in &n.inputs {
                *consumer_count.entry(resolve_fused(program, i)).or_insert(0) += 1;
            }
        }
        let outputs: Vec<NodeId> = program.outputs().to_vec();
        // Open chains under construction, keyed by (tail node, shard).
        struct Build {
            shard: ShardId,
            slot: usize,
            device: DeviceKind,
            nodes: Vec<NodeId>,
            /// Fused per-member device seconds, head first.
            member_secs: Vec<f64>,
            /// Total fused chain seconds.
            fused: f64,
            /// Total standalone (pre-fusion) slot seconds.
            solo: f64,
            /// Host (CPU) seconds for the whole chain.
            host: f64,
            /// Summed launch overheads across members.
            launch: f64,
            /// Head transfer granularity (the one PCIe payment).
            head_g: u64,
        }
        let mut open: Vec<Build> = Vec::new();
        let mut tails: HashMap<(NodeId, ShardId), usize> = HashMap::new();
        for &id in order {
            let node = program.node(id);
            if node.annotations.fused_into_consumer {
                continue;
            }
            // The eligible producer edge for this node, if any: the
            // widest Local edge whose producer feeds only us.
            let mut producer: Option<(NodeId, f64)> = None;
            for (idx, &i) in node.inputs.iter().enumerate() {
                let p = resolve_fused(program, i);
                if !matches!(plan.node(id).exchange(idx), ExchangeKind::Local) {
                    continue;
                }
                if consumer_count.get(&p).copied().unwrap_or(0) != 1 {
                    continue;
                }
                if outputs.contains(&p) {
                    continue;
                }
                if plan.node(p).scatter != plan.node(id).scatter {
                    continue;
                }
                let bytes =
                    Self::estimate_of(program.node(p)).1 / Self::tasks_sharing(plan, id, idx, i);
                if producer.is_none_or(|(_, b)| bytes > b) {
                    producer = Some((p, bytes));
                }
            }
            let scatter = plan.node(id).scatter.clone();
            let (c_rows, c_bytes) = volumes[&id];
            for (k, &shard) in scatter.iter().enumerate() {
                let solo_c = slot_secs[&id][k];
                let host_c =
                    match Self::node_cost_on(fleet, &node.op, DeviceKind::Cpu, c_rows, c_bytes) {
                        Some(t) => t.as_secs(),
                        None => continue,
                    };
                // Try to extend an open chain ending at our producer.
                let extended =
                    producer.and_then(|(p, bytes)| Some((*tails.get(&(p, shard))?, bytes)));
                if let Some((bi, edge_bytes)) = extended {
                    let b = &open[bi];
                    let pick = device_picks[&(id, shard)];
                    // A slot already committed to a *different* device
                    // breaks the chain; a host pick is promotable.
                    if pick == b.device || pick == DeviceKind::Cpu {
                        if let Some(body) = Self::fused_member_cost(
                            fleet, &node.op, b.device, c_rows, c_bytes, edge_bytes,
                        ) {
                            // Never extend past the point where the
                            // member itself regresses vs its solo cost.
                            if body <= solo_c {
                                let launch = price::launch_seconds(fleet, b.device);
                                let b = &mut open[bi];
                                if let Some(&prev_tail) = b.nodes.last() {
                                    tails.remove(&(prev_tail, shard));
                                }
                                b.nodes.push(id);
                                b.member_secs.push(body);
                                b.fused += body;
                                b.solo += solo_c;
                                b.host += host_c;
                                b.launch += launch;
                                tails.insert((id, shard), bi);
                                continue;
                            }
                        }
                    }
                }
                // Otherwise try to seed a fresh chain on this edge:
                // pick the cheapest coprocessor both endpoints can run
                // on (attached in Coprocessor mode — a standalone or
                // bump-in-the-wire device pays no PCIe and has nothing
                // to fuse away).
                let Some((p, edge_bytes)) = producer else {
                    continue;
                };
                let p_node = program.node(p);
                let (p_rows, p_bytes) = volumes[&p];
                let solo_p = slot_secs[&p][k];
                let host_p =
                    match Self::node_cost_on(fleet, &p_node.op, DeviceKind::Cpu, p_rows, p_bytes) {
                        Some(t) => t.as_secs(),
                        None => continue,
                    };
                let p_pick = device_picks[&(p, shard)];
                let c_pick = device_picks[&(id, shard)];
                let mut best: Option<(DeviceKind, f64, f64)> = None;
                for device in DeviceKind::all() {
                    if device == DeviceKind::Cpu {
                        continue;
                    }
                    // Respect committed non-host picks: fusing must
                    // not silently move a slot off its chosen device.
                    if (p_pick != DeviceKind::Cpu && p_pick != device)
                        || (c_pick != DeviceKind::Cpu && c_pick != device)
                    {
                        continue;
                    }
                    let Some(attached) = fleet.device(device) else {
                        continue;
                    };
                    if attached.mode != DeploymentMode::Coprocessor {
                        continue;
                    }
                    let Some(head) = Self::node_cost_on(fleet, &p_node.op, device, p_rows, p_bytes)
                    else {
                        continue;
                    };
                    let Some(body) = Self::fused_member_cost(
                        fleet, &node.op, device, c_rows, c_bytes, edge_bytes,
                    ) else {
                        continue;
                    };
                    let head = head.as_secs();
                    if best.is_none_or(|(_, h, b)| head + body < h + b) {
                        best = Some((device, head, body));
                    }
                }
                let Some((device, head, body)) = best else {
                    continue;
                };
                // A seed that is already worse than the standalone
                // picks can never be rescued by growing — skip it.
                if head + body > solo_p + solo_c {
                    continue;
                }
                let head_g = Self::transfer_bytes(&p_node.op, p_rows, p_bytes).max(1);
                let launch = price::launch_seconds(fleet, device);
                let bi = open.len();
                open.push(Build {
                    shard,
                    slot: k,
                    device,
                    nodes: vec![p, id],
                    member_secs: vec![head, body],
                    fused: head + body,
                    solo: solo_p + solo_c,
                    host: host_p + host_c,
                    launch: launch * 2.0,
                    head_g,
                });
                tails.insert((id, shard), bi);
            }
        }
        // Emit: re-run the LogCA profitability gate on each chain as a
        // whole. The chain's LogCA parameters are derived so that
        // speedup(g) >= 1 exactly when chain host time >= fused time.
        let mut chains = Vec::new();
        for b in open {
            if b.nodes.len() < 2 || b.host <= 0.0 {
                continue;
            }
            let g = b.head_g;
            let gf = g as f64;
            let link_t = price::transfer(fleet, b.device, g, false).as_secs();
            let kernel_t = (b.fused - b.launch - link_t).max(1e-15);
            let logca = LogCa::new(
                link_t / gf,
                b.launch,
                b.host / gf,
                1.0,
                (b.host / kernel_t).max(1e-6),
            );
            if logca.speedup(g) < 1.0 || b.fused > b.solo {
                continue;
            }
            let chain = chains.len();
            let len = b.nodes.len();
            for (pos, (&nid, &secs)) in b.nodes.iter().zip(&b.member_secs).enumerate() {
                device_picks.insert((nid, b.shard), b.device);
                if let Some(slots) = slot_secs.get_mut(&nid) {
                    slots[b.slot] = secs;
                }
                let width = plan.node(nid).scatter.len();
                fusion_tags.entry(nid).or_insert_with(|| vec![None; width])[b.slot] =
                    Some(FusionTag { chain, pos, len });
            }
            chains.push(FusedChain {
                shard: b.shard,
                device: b.device,
                nodes: b.nodes,
                saved_seconds: b.solo - b.fused,
            });
        }
        chains
    }

    /// Contended-device queueing: when several (node, shard) slots of
    /// one execution stage pick the same *physical* device (a fleet
    /// with declared capacity, shared by every shard), serialize them on a deterministic queue
    /// — stable stage order, earliest-available server, ties to the
    /// lowest server index — and put the wait on each slot's critical
    /// path. A non-fused slot falls back to its host when waiting
    /// beats the exclusive-price fiction; fused members wait rather
    /// than fission their chain.
    fn queue_pass(
        program: &Program,
        plan: &ShardPlan,
        fleet: &AcceleratorFleet,
        device_picks: &mut HashMap<(NodeId, ShardId), DeviceKind>,
        slot_secs: &mut HashMap<NodeId, Vec<f64>>,
        volumes: &HashMap<NodeId, (f64, f64)>,
        fusion_tags: &HashMap<NodeId, Vec<Option<FusionTag>>>,
    ) -> Result<(HashMap<NodeId, Vec<f64>>, f64)> {
        let mut waits: HashMap<NodeId, Vec<f64>> = HashMap::new();
        let mut total = 0.0f64;
        for stage in program.execution_stages()? {
            // One server vector per device: every shard shares the
            // fleet's pool.
            let mut servers: HashMap<DeviceKind, Vec<f64>> = HashMap::new();
            for &id in &stage.compute {
                let node = program.node(id);
                let scatter = plan.node(id).scatter.clone();
                for (k, &shard) in scatter.iter().enumerate() {
                    let device = device_picks[&(id, shard)];
                    if device == DeviceKind::Cpu {
                        continue;
                    }
                    let Some(cap) = fleet.capacity(device) else {
                        continue;
                    };
                    let queue = servers
                        .entry(device)
                        .or_insert_with(|| vec![0.0; cap.max(1)]);
                    let (si, avail) = queue.iter().enumerate().fold(
                        (0usize, f64::INFINITY),
                        |(bi, bt), (i, &t)| {
                            if t < bt {
                                (i, t)
                            } else {
                                (bi, bt)
                            }
                        },
                    );
                    let secs = slot_secs[&id][k];
                    let fused = fusion_tags.get(&id).and_then(|v| v[k]).is_some();
                    if !fused && avail > 0.0 {
                        let (rows, bytes) = volumes[&id];
                        if let Some(host) =
                            Self::node_cost_on(fleet, &node.op, DeviceKind::Cpu, rows, bytes)
                        {
                            let host = host.as_secs();
                            if host < avail + secs {
                                // Waiting beats the fiction of
                                // exclusive access: run on the host
                                // instead, freeing the device.
                                device_picks.insert((id, shard), DeviceKind::Cpu);
                                if let Some(slots) = slot_secs.get_mut(&id) {
                                    slots[k] = host;
                                }
                                continue;
                            }
                        }
                    }
                    if avail > 0.0 {
                        waits.entry(id).or_insert_with(|| vec![0.0; scatter.len()])[k] = avail;
                        total += avail;
                    }
                    queue[si] = avail + secs;
                }
            }
        }
        Ok((waits, total))
    }

    /// Cost of a non-head fused-chain member on `device` at one shard:
    /// the standalone device cost with its host→device transfer
    /// replaced by the resident-input price of the fused edge's bytes
    /// (the same offload-bytes convention the executed charge uses, so
    /// planned savings equal executed savings). Requires a
    /// Coprocessor-mode attachment (other modes pay no transfer, so
    /// fusion has nothing to save).
    fn fused_member_cost(
        fleet: &AcceleratorFleet,
        op: &Operator,
        device: DeviceKind,
        est_rows: f64,
        est_bytes: f64,
        edge_bytes: f64,
    ) -> Option<f64> {
        if fleet.device(device)?.mode != DeploymentMode::Coprocessor {
            return None;
        }
        let full = Self::node_cost_on(fleet, op, device, est_rows, est_bytes)?.as_secs();
        let moved = Self::transfer_bytes(op, est_rows, est_bytes);
        let pcie = price::transfer(fleet, device, moved, false).as_secs();
        let resident = Self::transfer_bytes(op, est_rows, edge_bytes);
        let local = price::transfer(fleet, device, resident, true).as_secs();
        Some((full - pcie + local).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_accel::fleet::AttachedDevice;
    use pspp_accel::{DeviceProfile, Interconnect};
    use pspp_common::{Error, PartitionSpec, Predicate};
    use pspp_ir::{PlanOptions, SortSpec};

    /// The layout a deployment's registry would own — partition specs
    /// and the device fleet — and the switches its distribution pass
    /// runs under, built once per test and lent to `place`.
    struct Layout {
        specs: HashMap<TableRef, PartitionSpec>,
        fleet: AcceleratorFleet,
        options: PlanOptions,
    }

    impl Layout {
        fn on(fleet: AcceleratorFleet) -> Self {
            Layout {
                specs: HashMap::new(),
                fleet,
                options: PlanOptions::default(),
            }
        }

        fn options(mut self, options: PlanOptions) -> Self {
            self.options = options;
            self
        }

        fn hash(mut self, table: TableRef, column: &str, shards: u32) -> Self {
            self.specs
                .insert(table, PartitionSpec::hash(column, shards));
            self
        }

        /// `m.place` over this layout, the way a deployment optimizes:
        /// cardinalities, then the distribution plan from
        /// [`ShardPlan::plan`] over the local spec map, carried by `p`.
        fn place(&self, m: &CostModel, p: &mut Program) -> PlacementPlan {
            m.estimate_cardinalities(p).unwrap();
            let plan = ShardPlan::plan(p, |t| self.specs.get(t).cloned(), self.options);
            p.set_shard_plan(plan.unwrap());
            m.place(p, &self.fleet).unwrap()
        }
    }

    /// The scatter width of `id` in the plan `p` carries.
    fn width(p: &Program, id: NodeId) -> usize {
        p.shard_plan().unwrap().scatter_width(id)
    }

    fn workstation() -> Layout {
        Layout::on(AcceleratorFleet::workstation())
    }

    fn model() -> CostModel {
        CostModel::new(stats())
    }

    fn stats() -> HashMap<TableRef, TableStats> {
        let mut stats = HashMap::new();
        stats.insert(
            TableRef::new("db1", "big"),
            TableStats {
                rows: 2_000_000.0,
                row_bytes: 64.0,
            },
        );
        stats.insert(
            TableRef::new("db2", "small"),
            TableStats {
                rows: 1_000.0,
                row_bytes: 32.0,
            },
        );
        stats
    }

    fn sort_program() -> (Program, NodeId) {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "big")), "sql");
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "date".into(),
                    ascending: true,
                }],
            },
            vec![s],
            "sql",
        );
        p.mark_output(sort);
        (p, sort)
    }

    #[test]
    fn cardinalities_flow_through() {
        let m = model();
        let mut p = Program::new();
        let s = p.add_source(
            Operator::Scan {
                table: TableRef::new("db1", "big"),
                predicate: Predicate::eq("k", 1i64),
                projection: None,
            },
            "sql",
        );
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::gt("v", 0i64),
            },
            vec![s],
            "sql",
        );
        p.mark_output(f);
        m.estimate_cardinalities(&mut p).unwrap();
        let scan_rows = p.node(s).annotations.est_rows.unwrap();
        let filter_rows = p.node(f).annotations.est_rows.unwrap();
        assert!(scan_rows < 2_000_000.0);
        assert!(filter_rows < scan_rows);
    }

    #[test]
    fn placement_offloads_big_sort_to_fpga() {
        let m = model();
        let (mut p, sort) = sort_program();
        let plan = workstation().place(&m, &mut p);
        assert_eq!(p.node(sort).annotations.device, Some(DeviceKind::Fpga));
        assert!(plan.offloaded >= 1);
        assert!(plan.total_seconds > 0.0);
    }

    #[test]
    fn small_inputs_stay_on_cpu() {
        let m = model();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db2", "small")), "sql");
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "k".into(),
                    ascending: true,
                }],
            },
            vec![s],
            "sql",
        );
        p.mark_output(sort);
        workstation().place(&m, &mut p);
        assert_eq!(p.node(sort).annotations.device, Some(DeviceKind::Cpu));
    }

    #[test]
    fn train_goes_to_tpu() {
        let m = model();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "big")), "sql");
        let t = p.add_node(
            Operator::TrainMlp {
                label_column: "y".into(),
                hidden: vec![64, 32],
                epochs: 10,
                batch_size: 32,
                learning_rate: 0.1,
            },
            vec![s],
            "ml",
        );
        p.mark_output(t);
        workstation().place(&m, &mut p);
        assert_eq!(p.node(t).annotations.device, Some(DeviceKind::Tpu));
    }

    /// `left JOIN right ON k = k` over two sources; returns (program, join).
    fn join_of(left: Operator, right: Operator) -> (Program, NodeId) {
        let mut p = Program::new();
        let a = p.add_source(left, "sql");
        let b = p.add_source(right, "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "k".into(),
                right_on: "k".into(),
            },
            vec![a, b],
            "sql",
        );
        p.mark_output(j);
        (p, j)
    }

    fn engine_of(p: &Program, id: NodeId) -> Option<&str> {
        p.node(id).annotations.engine.as_ref().map(|e| e.as_str())
    }

    #[test]
    fn cross_engine_edges_charge_migration() {
        let m = model();
        let big = || Operator::scan(TableRef::new("db1", "big"));
        let small = || Operator::scan(TableRef::new("db2", "small"));
        let small_bytes = 1_000.0 * 32.0;
        let bill = m
            .migration_cost(small_bytes, DataModel::Relational, DataModel::Relational)
            .as_secs();
        // Whichever side the big table is on, the join runs there and
        // the small table is what the plan pays to move.
        for (left, right) in [(big(), small()), (small(), big())] {
            let (mut p, j) = join_of(left, right);
            let plan = workstation().place(&m, &mut p);
            assert_eq!(engine_of(&p, j), Some("db1"));
            assert_eq!(plan.migration_seconds, bill);
            let [site] = &plan.join_sites[..] else {
                panic!("one cross-engine join, one site record");
            };
            assert_eq!((site.node, site.site.as_str()), (j, "db1"));
            assert_eq!(site.left.1.min(site.right.1), small_bytes);
            assert_eq!(site.migration_seconds, bill);
        }
    }

    /// A side whose consumers read a quarter of its columns is billed a
    /// quarter of its bytes to migrate, and the site is chosen on those
    /// shipped bytes: the big side read down to a sliver ships less
    /// than the small one and migrates to it. The record holds both.
    #[test]
    fn migration_prices_the_demanded_columns_and_the_site_weighs_what_ships() {
        let m = model();
        let (small_bytes, big_bytes) = (1_000.0 * 32.0, 2_000_000.0 * 64.0);
        let (mut p, j) = join_of(
            Operator::scan(TableRef::new("db2", "small")),
            Operator::scan(TableRef::new("db1", "big")),
        );
        let kept = |of| ColumnDemand {
            columns: ["k".to_string()].into(),
            of,
        };
        let bill = |bytes| {
            m.migration_cost(bytes, DataModel::Relational, DataModel::Relational)
                .as_secs()
        };
        p.node_mut(NodeId(0)).annotations.demand = Some(kept(4));
        let plan = workstation().place(&m, &mut p.clone());
        assert_eq!(plan.join_sites[0].site.as_str(), "db1");
        assert_eq!(plan.migration_seconds, bill(small_bytes / 4.0));
        // 1 000 B of the big side ship against the small side's 8 000 B.
        let sliver = (big_bytes / 1_000.0) as usize;
        p.node_mut(NodeId(1)).annotations.demand = Some(kept(sliver));
        let plan = workstation().place(&m, &mut p);
        let [site] = &plan.join_sites[..] else {
            panic!("one cross-engine join, one site record");
        };
        assert_eq!(engine_of(&p, j), Some("db2"));
        assert_eq!(
            (site.site.as_str(), site.left.1, site.right.1),
            ("db2", small_bytes, big_bytes)
        );
        assert_eq!(site.kept, [Some(kept(4)), Some(kept(sliver))]);
        assert_eq!(
            (plan.migration_seconds, site.migration_seconds),
            (bill(1_000.0), bill(1_000.0))
        );
        let explain = plan.explain();
        assert!(
            explain.contains("site=db2 (left db2 32000B -> 8000B [k] of 4 cols, right db1 "),
            "{explain}"
        );
    }

    #[test]
    fn join_site_ties_keep_the_first_input() {
        let mut stats = stats();
        stats.insert(
            TableRef::new("db2", "small"),
            stats[&TableRef::new("db1", "big")],
        );
        let m = CostModel::new(stats);
        let (mut p, j) = join_of(
            Operator::scan(TableRef::new("db2", "small")),
            Operator::scan(TableRef::new("db1", "big")),
        );
        workstation().place(&m, &mut p);
        assert_eq!(engine_of(&p, j), Some("db2"));
    }

    #[test]
    fn connectors_never_host_a_join() {
        // The text search returns far more bytes than the 1000-row
        // table, on either side; the join still runs on the database.
        let m = model();
        let search = || Operator::TextSearch {
            table: TableRef::new("text", "notes"),
            terms: vec!["icu".into()],
            mode: pspp_ir::TextSearchMode::Any,
        };
        let small = || Operator::scan(TableRef::new("db2", "small"));
        for (left, right) in [(search(), small()), (small(), search())] {
            let (mut p, j) = join_of(left, right);
            workstation().place(&m, &mut p);
            assert_eq!(engine_of(&p, j), Some("db2"));
        }
        // With no relational side at all, first-input gravity stands.
        let window = Operator::TsWindow {
            table: TableRef::new("ts", "vitals"),
            lo: 0,
            hi: 1_000,
            width: 10,
            agg: pspp_ir::TsAgg::Mean,
        };
        let (mut p, j) = join_of(search(), window);
        workstation().place(&m, &mut p);
        assert_eq!(engine_of(&p, j), Some("text"));
    }

    #[test]
    fn remodel_factor_raises_migration_cost() {
        let m = model();
        let plain = m.migration_cost(1e6, DataModel::Relational, DataModel::Relational);
        let remodel = m.migration_cost(1e6, DataModel::Text, DataModel::Tensor);
        assert!(remodel.as_secs() > plain.as_secs() * 2.0);
    }

    #[test]
    fn fused_nodes_cost_nothing() {
        let m = model();
        let (mut p, _) = sort_program();
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::True,
            },
            vec![p.outputs()[0]],
            "sql",
        );
        p.node_mut(f).annotations.fused_into_consumer = true;
        let plan = workstation().place(&m, &mut p);
        assert!(!plan.node_seconds.contains_key(&f));
    }

    #[test]
    fn a_plan_for_another_program_is_a_typed_error() {
        // A program with no plan has nothing to price, and a plan
        // shorter than the program would index out of bounds in
        // `ShardPlan::node`: `place` refuses both. The executor refuses
        // them through the same check, `Program::shard_plan`.
        let (mut p, _) = sort_program();
        let err = model().place(&mut p, &workstation().fleet).unwrap_err();
        assert!(matches!(err, Error::Semantic(_)), "got {err:?}");
        let (other, _) = scan_program();
        let foreign = ShardPlan::plan(&other, |_| None, PlanOptions::default()).unwrap();
        p.set_shard_plan(foreign);
        let err = model().place(&mut p, &workstation().fleet).unwrap_err();
        assert!(matches!(err, Error::Semantic(_)), "got {err:?}");
    }

    fn scan_program() -> (Program, NodeId) {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "big")), "sql");
        p.mark_output(s);
        (p, s)
    }

    #[test]
    fn four_shard_scan_is_priced_at_a_quarter_plus_gather() {
        // The acceptance identity: sharded estimate = unsharded
        // estimate over rows/4 + the gather term. Same device, same
        // kernel model — only the scatter width differs.
        let m = model();
        let sharded = workstation().hash(TableRef::new("db1", "big"), "k", 4);

        let (mut p_flat, s_flat) = scan_program();
        let flat = workstation().place(&m, &mut p_flat);
        let (mut p_shard, s_shard) = scan_program();
        let plan = sharded.place(&m, &mut p_shard);

        assert_eq!(width(&p_shard, s_shard), 4);
        assert_eq!(width(&p_flat, s_flat), 1);

        let est_rows = p_shard.node(s_shard).annotations.est_rows.unwrap();
        let est_bytes = p_shard.node(s_shard).annotations.est_bytes.unwrap();
        let device = p_shard.node(s_shard).annotations.device.unwrap();
        let fleet = &sharded.fleet;
        let gather = CostModel::gather_cost(fleet, 4, est_rows).as_secs();
        let quarter = CostModel::node_cost_on(
            fleet,
            &p_shard.node(s_shard).op,
            device,
            est_rows / 4.0,
            est_bytes / 4.0,
        )
        .unwrap()
        .as_secs();
        let predicted = plan.node_seconds[&s_shard];
        assert!(
            (predicted - (quarter + gather)).abs() < 1e-12,
            "sharded scan estimate {predicted} != per-shard cost {quarter} + gather {gather}"
        );
        assert!(gather > 0.0, "gathering 4 partials is not free");
        assert!(
            predicted < flat.node_seconds[&s_flat],
            "shard parallelism must cut the estimate ({predicted} vs {})",
            flat.node_seconds[&s_flat]
        );
        // The speedup is roughly the scatter width (gather term and
        // launch overhead eat a little of it).
        let ratio = flat.node_seconds[&s_flat] / predicted;
        assert!(
            ratio > 2.0 && ratio <= 4.5,
            "4-shard scan speedup {ratio:.2}x out of the plausible band"
        );
    }

    #[test]
    fn colocated_join_is_priced_at_per_shard_volume() {
        let mut stats = stats();
        stats.insert(
            TableRef::new("db2", "big2"),
            TableStats {
                rows: 2_000_000.0,
                row_bytes: 64.0,
            },
        );
        let m = CostModel::new(stats);
        let sharded_on = |right_key: &str| {
            workstation()
                .hash(TableRef::new("db1", "big"), "k", 4)
                .hash(TableRef::new("db2", "big2"), right_key, 4)
        };
        let join_program = || {
            let mut p = Program::new();
            let a = p.add_source(Operator::scan(TableRef::new("db1", "big")), "sql");
            let b = p.add_source(Operator::scan(TableRef::new("db2", "big2")), "sql");
            let j = p.add_node(
                Operator::HashJoin {
                    left_on: "k".into(),
                    right_on: "k".into(),
                },
                vec![a, b],
                "sql",
            );
            p.mark_output(j);
            (p, j)
        };
        let (mut p_flat, j_flat) = join_program();
        let flat = workstation().place(&m, &mut p_flat);
        let (mut p_shard, j_shard) = join_program();
        let plan = sharded_on("k").place(&m, &mut p_shard);
        assert_eq!(width(&p_shard, j_shard), 4, "join priced colocated");
        assert!(
            plan.node_seconds[&j_shard] < flat.node_seconds[&j_flat],
            "colocated join estimate must beat the gathered one ({} vs {})",
            plan.node_seconds[&j_shard],
            flat.node_seconds[&j_flat]
        );
        // Mismatched keys at these (large) stats shuffle: the join is
        // still priced at the full scatter width.
        let (mut p_mis, j_mis) = join_program();
        let plan_mis = sharded_on("other").place(&m, &mut p_mis);
        assert_eq!(width(&p_mis, j_mis), 4);
        assert_eq!(plan_mis.exchanges.shuffles, 2);
        assert!(plan_mis.exchange_seconds > 0.0);
    }

    /// The acceptance crossover: the same mismatched-key join plan must
    /// flip between gather and shuffle purely on estimated row counts.
    #[test]
    fn placement_flips_between_gather_and_shuffle_at_the_crossover() {
        let join_program = || {
            let mut p = Program::new();
            let a = p.add_source(Operator::scan(TableRef::new("db1", "t1")), "sql");
            let b = p.add_source(Operator::scan(TableRef::new("db2", "t2")), "sql");
            let j = p.add_node(
                Operator::HashJoin {
                    left_on: "k".into(),
                    right_on: "k".into(),
                },
                vec![a, b],
                "sql",
            );
            p.mark_output(j);
            (p, j)
        };
        let model_with_rows = |rows: f64| {
            let mut stats = HashMap::new();
            for t in [TableRef::new("db1", "t1"), TableRef::new("db2", "t2")] {
                stats.insert(
                    t.clone(),
                    TableStats {
                        rows,
                        row_bytes: 64.0,
                    },
                );
            }
            CostModel::new(stats)
        };
        // Mismatched partition keys: never colocated, so the plan is
        // gather or shuffle by cost alone.
        let layout = workstation().hash(TableRef::new("db1", "t1"), "k", 4).hash(
            TableRef::new("db2", "t2"),
            "other",
            4,
        );
        // Below the crossover (see pspp_ir::exchange_pays at width 4:
        // total rows must exceed ~1365): gather.
        let (mut p_small, j_small) = join_program();
        let small = layout.place(&model_with_rows(400.0), &mut p_small);
        assert_eq!(width(&p_small, j_small), 1, "small joins gather");
        assert_eq!(small.exchanges.shuffles, 0);
        assert_eq!(small.exchanges.gathers, 2);

        // Above the crossover: shuffle, priced per shard.
        let (mut p_big, j_big) = join_program();
        let big = layout.place(&model_with_rows(100_000.0), &mut p_big);
        assert_eq!(width(&p_big, j_big), 4, "big joins shuffle");
        assert_eq!(big.exchanges.shuffles, 2);
        assert_eq!(big.exchanges.gathers, 0);
        assert!(big.exchange_seconds > 0.0);
    }

    /// The per-shard cardinality regression: offload profitability is
    /// a function of **per-task** granularity. A bump-in-the-wire FPGA
    /// wins the hash-partition kernel at the gathered join's 200k-row
    /// granularity, but once the shard plan colocates the same join 4
    /// ways each 50k-row task falls under the LogCA break-even —
    /// whole-table rows would overstate `g` by the scatter width and
    /// offload every replica at a loss.
    #[test]
    fn offload_profitability_is_judged_at_per_shard_granularity() {
        let t1 = TableRef::new("db1", "t1");
        let t2 = TableRef::new("db2", "t2");
        let fleet = || {
            AcceleratorFleet::new(
                DeviceProfile::cpu(),
                vec![AttachedDevice {
                    profile: DeviceProfile::fpga(),
                    mode: DeploymentMode::BumpInTheWire,
                    link: Interconnect::pcie(),
                }],
            )
            .expect("cpu host")
        };
        let mut stats = HashMap::new();
        for t in [t1.clone(), t2.clone()] {
            stats.insert(
                t,
                TableStats {
                    rows: 100_000.0,
                    row_bytes: 64.0,
                },
            );
        }
        let m = CostModel::new(stats);
        let join_program = || {
            let mut p = Program::new();
            let a = p.add_source(Operator::scan(t1.clone()), "sql");
            let b = p.add_source(Operator::scan(t2.clone()), "sql");
            let j = p.add_node(
                Operator::HashJoin {
                    left_on: "k".into(),
                    right_on: "k".into(),
                },
                vec![a, b],
                "sql",
            );
            p.mark_output(j);
            (p, j)
        };

        // Gathered: build + probe = 200k rows per task — offload pays.
        let (mut p_flat, j_flat) = join_program();
        Layout::on(fleet()).place(&m, &mut p_flat);
        assert_eq!(width(&p_flat, j_flat), 1);
        assert_eq!(
            p_flat.node(j_flat).annotations.device,
            Some(DeviceKind::Fpga),
            "gathered 200k-row hash join offloads"
        );

        // Colocated 4 ways: 50k rows per task — under the break-even,
        // every replica stays on its host.
        let (mut p_shard, j_shard) = join_program();
        // Matching keys: the join plans colocated at width 4.
        Layout::on(fleet())
            .hash(t1.clone(), "k", 4)
            .hash(t2.clone(), "k", 4)
            .place(&m, &mut p_shard);
        assert_eq!(width(&p_shard, j_shard), 4, "join planned colocated");
        assert_eq!(
            p_shard.node(j_shard).annotations.device,
            Some(DeviceKind::Cpu),
            "per-shard 50k-row tasks stay on the CPU"
        );

        // The LogCA model itself brackets the crossover: profitable at
        // the gathered granularity, unprofitable per shard, with the
        // break-even granularity strictly between the two.
        let op = Operator::HashJoin {
            left_on: "k".into(),
            right_on: "k".into(),
        };
        let offload_model = |rows: f64| {
            CostModel::offload_model_on(&fleet(), &op, DeviceKind::Fpga, rows, rows * 64.0).unwrap()
        };
        let (whole, g_whole) = offload_model(200_000.0);
        assert!(whole.speedup(g_whole) > 1.0);
        let (shard, g_shard) = offload_model(50_000.0);
        assert!(shard.speedup(g_shard) < 1.0);
        let crossover = whole.break_even(g_whole).expect("profitable at 200k rows");
        assert!(
            g_shard < crossover && crossover <= g_whole,
            "break-even {crossover} B outside ({g_shard}, {g_whole}] B"
        );
    }

    #[test]
    fn exchange_off_prices_the_gathered_baseline() {
        let mut stats = HashMap::new();
        for t in [TableRef::new("db1", "t1"), TableRef::new("db2", "t2")] {
            stats.insert(
                t.clone(),
                TableStats {
                    rows: 100_000.0,
                    row_bytes: 64.0,
                },
            );
        }
        let model = CostModel::new(stats);
        let layout = |exchange: bool| {
            let layout = workstation().hash(TableRef::new("db1", "t1"), "k", 4);
            layout
                .hash(TableRef::new("db2", "t2"), "other", 4)
                .options(PlanOptions {
                    exchange,
                    ..PlanOptions::default()
                })
        };
        let program = || {
            let mut p = Program::new();
            let a = p.add_source(Operator::scan(TableRef::new("db1", "t1")), "sql");
            let b = p.add_source(Operator::scan(TableRef::new("db2", "t2")), "sql");
            let j = p.add_node(
                Operator::HashJoin {
                    left_on: "k".into(),
                    right_on: "k".into(),
                },
                vec![a, b],
                "sql",
            );
            p.mark_output(j);
            (p, j)
        };
        let (mut p_ex, j_ex) = program();
        let with = layout(true).place(&model, &mut p_ex);
        let (mut p_base, j_base) = program();
        let without = layout(false).place(&model, &mut p_base);
        assert_eq!(width(&p_base, j_base), 1);
        assert_eq!(without.exchanges.shuffles, 0);
        assert!(
            with.node_seconds[&j_ex] < without.node_seconds[&j_base],
            "the shuffled join estimate must beat the gathered one ({} vs {})",
            with.node_seconds[&j_ex],
            without.node_seconds[&j_base]
        );
    }

    /// A chain profitable where each node alone is not: over a slow
    /// (4 GB/s) coprocessor link, a single 1M-row sort loses to the
    /// host because the PCIe shuttle erodes the kernel win, so both
    /// sorts pick the CPU in isolation. Fusing the back-to-back sorts
    /// pays PCIe once at the head and moves the intermediate over the
    /// device-local link — the chain-level LogCA gate passes and both
    /// nodes get *promoted* onto the FPGA.
    #[test]
    fn fusion_promotes_chain_profitable_nodes() {
        let slow_fleet = || {
            let mut link = Interconnect::pcie();
            link.bandwidth_bps = 4.0e9;
            AcceleratorFleet::new(
                DeviceProfile::cpu(),
                vec![AttachedDevice {
                    profile: DeviceProfile::fpga(),
                    mode: DeploymentMode::Coprocessor,
                    link,
                }],
            )
            .expect("cpu host")
        };
        let mut stats = HashMap::new();
        stats.insert(
            TableRef::new("db1", "big"),
            TableStats {
                rows: 1_000_000.0,
                row_bytes: 64.0,
            },
        );
        let two_sorts = || {
            let mut p = Program::new();
            let s = p.add_source(Operator::scan(TableRef::new("db1", "big")), "sql");
            let sort1 = p.add_node(
                Operator::Sort {
                    keys: vec![SortSpec {
                        column: "a".into(),
                        ascending: true,
                    }],
                },
                vec![s],
                "sql",
            );
            let sort2 = p.add_node(
                Operator::Sort {
                    keys: vec![SortSpec {
                        column: "b".into(),
                        ascending: true,
                    }],
                },
                vec![sort1],
                "sql",
            );
            p.mark_output(sort2);
            (p, sort1, sort2)
        };

        // Unfused baseline: each sort judged alone stays on the host.
        let slow = Layout::on(slow_fleet());
        let unfused = Layout::on(slow_fleet()).options(PlanOptions {
            fusion: false,
            ..PlanOptions::default()
        });
        let m = CostModel::new(stats);
        let (mut p_off, s1_off, s2_off) = two_sorts();
        let plan_off = unfused.place(&m, &mut p_off);
        assert!(plan_off.fused_chains.is_empty());
        assert_eq!(p_off.node(s1_off).annotations.device, Some(DeviceKind::Cpu));
        assert_eq!(p_off.node(s2_off).annotations.device, Some(DeviceKind::Cpu));

        // Fused: the sort->sort chain clears the chain-level gate.
        let (mut p_on, s1_on, s2_on) = two_sorts();
        let plan_on = slow.place(&m, &mut p_on);
        let chain = plan_on
            .fused_chains
            .iter()
            .find(|c| c.nodes.contains(&s2_on))
            .expect("sort->sort fused");
        assert_eq!(chain.device, DeviceKind::Fpga);
        assert!(chain.nodes.contains(&s1_on), "head rides the chain");
        assert!(chain.saved_seconds > 0.0);
        assert_eq!(p_on.node(s1_on).annotations.device, Some(DeviceKind::Fpga));
        assert_eq!(p_on.node(s2_on).annotations.device, Some(DeviceKind::Fpga));
        let tag = p_on.node(s2_on).annotations.shard_fusion.as_ref().unwrap()[0]
            .expect("tail slot tagged");
        assert_eq!((tag.pos, tag.len), (tag.len - 1, chain.nodes.len()));
        assert!(
            plan_on.total_seconds < plan_off.total_seconds,
            "fused plan {} not under unfused {}",
            plan_on.total_seconds,
            plan_off.total_seconds
        );
    }

    /// The opposite gate direction: nodes that are individually
    /// profitable on *different* devices stay unfused — fusing would
    /// silently move one off its best device, so the chain never forms
    /// and both keep their standalone picks.
    #[test]
    fn fusion_rejects_chains_across_device_picks() {
        let m = model();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "big")), "sql");
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "k".into(),
                    ascending: true,
                }],
            },
            vec![s],
            "sql",
        );
        let train = p.add_node(
            Operator::TrainMlp {
                label_column: "y".into(),
                hidden: vec![64, 32],
                epochs: 10,
                batch_size: 32,
                learning_rate: 0.1,
            },
            vec![sort],
            "ml",
        );
        p.mark_output(train);
        let plan = workstation().place(&m, &mut p);
        assert_eq!(p.node(sort).annotations.device, Some(DeviceKind::Fpga));
        assert_eq!(p.node(train).annotations.device, Some(DeviceKind::Tpu));
        assert!(
            !plan
                .fused_chains
                .iter()
                .any(|c| c.nodes.contains(&sort) && c.nodes.contains(&train)),
            "sort (FPGA) and train (TPU) must not fuse"
        );
    }

    /// Contended-device queueing: two same-stage training nodes both
    /// want the single declared TPU. The placer serializes them in
    /// stable slot order — the first runs immediately, the second
    /// carries the queue wait on its critical path — and a declared
    /// capacity of 2 dissolves the contention.
    #[test]
    fn contended_device_queues_in_stable_order() {
        let mut stats = HashMap::new();
        stats.insert(
            TableRef::new("db1", "big"),
            TableStats {
                rows: 2_000_000.0,
                row_bytes: 64.0,
            },
        );
        let train = || Operator::TrainMlp {
            label_column: "y".into(),
            hidden: vec![64, 32],
            epochs: 10,
            batch_size: 32,
            learning_rate: 0.1,
        };
        let program = || {
            let mut p = Program::new();
            let s = p.add_source(Operator::scan(TableRef::new("db1", "big")), "sql");
            let t1 = p.add_node(train(), vec![s], "ml");
            let t2 = p.add_node(train(), vec![s], "ml");
            p.mark_output(t1);
            p.mark_output(t2);
            (p, t1, t2)
        };

        let m = CostModel::new(stats);
        let tpus =
            |n| Layout::on(AcceleratorFleet::workstation().with_capacity(DeviceKind::Tpu, n));
        let (mut p1, t1, t2) = program();
        let plan = tpus(1).place(&m, &mut p1);
        // Training's device win is enormous, so the loser waits rather
        // than falling back to the host.
        assert_eq!(p1.node(t1).annotations.device, Some(DeviceKind::Tpu));
        assert_eq!(p1.node(t2).annotations.device, Some(DeviceKind::Tpu));
        assert!(plan.queue_wait_seconds > 0.0);
        assert!(p1.node(t1).annotations.shard_queue_waits.is_none());
        let waits = p1.node(t2).annotations.shard_queue_waits.as_ref().unwrap();
        assert!((waits[0] - plan.queue_wait_seconds).abs() < 1e-12);
        assert!(
            plan.node_seconds[&t2] > plan.node_seconds[&t1],
            "the queued slot's wait rides its critical path"
        );

        // Two physical TPUs: no queue, identical estimates.
        let (mut p2, w1, w2) = program();
        let plan2 = tpus(2).place(&m, &mut p2);
        assert_eq!(plan2.queue_wait_seconds, 0.0);
        assert!((plan2.node_seconds[&w1] - plan2.node_seconds[&w2]).abs() < 1e-12);

        // Undeclared capacity keeps the historical exclusive-access
        // pricing bit-exact.
        let (mut p3, f1, f2) = program();
        let plan3 = workstation().place(&m, &mut p3);
        assert_eq!(plan3.queue_wait_seconds, 0.0);
        assert_eq!(plan3.node_seconds[&f1], plan2.node_seconds[&w1]);
        assert_eq!(plan3.node_seconds[&f2], plan2.node_seconds[&w2]);
    }

    /// When waiting beats the exclusive-price fiction, the gate sends
    /// the queued slot back to its host: two same-stage 2M-row sorts
    /// contend for one FPGA whose win over the host is under 2x, so
    /// serving the second from the queue would be slower than just
    /// running it on the CPU.
    #[test]
    fn contention_falls_back_to_host_when_waiting_loses() {
        let mut stats = HashMap::new();
        stats.insert(
            TableRef::new("db1", "big"),
            TableStats {
                rows: 2_000_000.0,
                row_bytes: 64.0,
            },
        );
        let sort = |col: &str| Operator::Sort {
            keys: vec![SortSpec {
                column: col.into(),
                ascending: true,
            }],
        };
        let m = CostModel::new(stats);
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "big")), "sql");
        let s1 = p.add_node(sort("a"), vec![s], "sql");
        let s2 = p.add_node(sort("b"), vec![s], "sql");
        p.mark_output(s1);
        p.mark_output(s2);
        let plan = Layout::on(AcceleratorFleet::workstation().with_capacity(DeviceKind::Fpga, 1))
            .place(&m, &mut p);
        assert_eq!(p.node(s1).annotations.device, Some(DeviceKind::Fpga));
        assert_eq!(
            p.node(s2).annotations.device,
            Some(DeviceKind::Cpu),
            "queued sort falls back to the host"
        );
        assert_eq!(plan.queue_wait_seconds, 0.0, "a fallback never waits");
    }
}
