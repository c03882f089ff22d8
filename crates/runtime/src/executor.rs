//! The executor: an orchestration loop over the physical execution
//! layer (§IV-D).
//!
//! Every operator runs through [`physical::run`]; the [`Placer`]
//! resolves where each node runs and migrates foreign inputs there;
//! each task's bill is the price list's ([`price::task`]), posted to
//! the run's ledger. The loop walks the program's topological stages
//! and runs each stage's tasks on the calling thread, in task order.
//! Shard parallelism lives where the paper puts it, on the simulated
//! clock: a node's time is its slowest shard task's, as if each shard's
//! replica ran its own. The wall clock gets its concurrency from the
//! query service's workers, one query each. A stage's tasks here run
//! for 45 µs to 0.8 ms; handing one to another thread cost more than it
//! bought on every sharded polybench template (a thread per task: +12 %
//! wall per op at two shards against this loop in the same build;
//! persistent helper threads still lost 10 % to it), so there is one
//! loop and it has no mode.
//!
//! Distribution is a *plan* property: the optimizer's distribution pass
//! ([`Placer::plan_distribution`]) gives every node its
//! [`pspp_ir::ShardPlan`] entry — one typed [`ExchangeKind`] per input
//! edge — and the program carries the plan. The stage loop runs it and
//! never plans: a program with no plan, or one made at an epoch the
//! registry has left ([`Error::StalePlan`]), is a typed error. A task is
//! one (node, shard) pair. Each node's output is held once, in one map,
//! as a `NodeOutput`:
//!
//! * `Gathered` — the whole output at one site;
//! * `Partials` — a node whose plan has `partials_needed` (a fanned-out
//!   reader reads it shard by shard): its per-shard outputs in scatter
//!   order, beside the gathered copy every other reader takes, which
//!   shares their rows;
//! * `Routed` — a *routed* producer's rows ([`pspp_ir::NodeShard::routed`]:
//!   a shuffle is its one reader), split by destination as its tasks
//!   produce them — a relational scan hashes the key out of the table's
//!   column image, any other operator has its output rows hashed — until
//!   that shuffle takes them. A scan's selection is split as positions:
//!   each destination's bucket is a selection over the shards'
//!   snapshots, and no row of it is built.
//!
//! A fused node aliases its producer's entry. Rows cross between the
//! entries and the tasks at two exhaustive `match`es, neither with a `_`
//! arm, so an exchange kind the executor has no arm for does not compile:
//!
//! * **The task boundary** (`Executor::edge_inputs`) turns an input
//!   edge's ([`ExchangeKind`], producer's `NodeOutput`) into each task's
//!   input. An aligned [`ExchangeKind::Local`] or an
//!   [`ExchangeKind::MergePartials`] edge hands each task its own shard's
//!   partial; [`ExchangeKind::Gather`], [`ExchangeKind::Broadcast`] and
//!   an unsharded `Local` hand every task the gathered copy; an
//!   [`ExchangeKind::ShuffleHash`] edge hands each destination task its
//!   bucket, in gathered order — taken from a routed producer, replayed
//!   from the stored layout where the plan marks the edge copy-served,
//!   or routed from the gathered copy. A pair the plan cannot produce is
//!   an [`Error::Execution`].
//! * **The merge point** (`Executor::merge`) turns a node's task runs
//!   into its `NodeOutput`: gathered in shard order (keeping the
//!   partials where the plan needs them), moved into a routed
//!   producer's destination buckets, spliced back into the gathered
//!   probe order by each destination's per-probe-row match counts (a
//!   shuffled `HashJoin`, so shuffled and gathered plans are
//!   byte-identical), or merged from partial-aggregation states in shard
//!   order. A merge-partials `GroupBy` that sums or averages a `Float`
//!   column is *demoted* to one gathered task, since merging would
//!   re-associate the additions.
//!
//! Every bill posts once, straight to the run's ledger, in the order the
//! loop runs it: a stage's nodes in node-id order, each to completion —
//! its tasks in task (shard) order, each posting its migrations, its
//! operator's charge and its queue wait, then the exchange its merge
//! charges as migration-class transfer events on the node's critical
//! path. A node's bill does not depend on what else shared its stage.
//!
//! Byte sizes travel with the rows: a gather of sized partials, a routed
//! bucket and a spliced output all know their size when they are built,
//! and the charge never walks one to price it. Rows move rather than
//! being copied wherever their holder is the only one: a gather takes
//! each partial nobody retained, a routed merge each task's rows, a
//! shuffle its routed producer's buckets, and the splice each
//! destination's output. Scans' selections are never rows at either
//! match: a gather appends them into one selection over every shard's
//! snapshot, and a routed merge splits their positions.

use std::collections::HashMap;
use std::sync::OnceLock;

use pspp_accel::{AcceleratorFleet, CostLedger, EventKind, SimDuration};
use pspp_common::{CopyKey, DataType, DeviceKind, Error, Result, Routes, ShardId};
use pspp_ir::{
    AggFn, AggSpec, ColumnDemand, ExchangeKind, NodeId, Operator, Program, ShardPlan, Stage,
};
use pspp_optimizer::rewrite::resolve_fused;
use pspp_optimizer::{price, OptLevel};
use pspp_relstore::{ops as relops, AggregateSpec};
use pspp_telemetry::{ExchangeTrace, MetricsRegistry, NodeTrace, TaskTrace};

use crate::dataset::{Dataset, Payload, Routed, RowBuf};
use crate::physical::{self, ExecCtx, Placer, RouteRequest};
use crate::registry::EngineRegistry;
/// Chunks used by the pipelined-stages model (§IV-D).
const PIPELINE_CHUNKS: f64 = 8.0;

/// Execution accounting for one program run.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Program outputs in `Program::outputs()` order.
    pub outputs: Vec<Dataset>,
    /// Simulated seconds per live node (execution only).
    pub node_seconds: HashMap<NodeId, f64>,
    /// Simulated seconds spent migrating data across engines.
    pub migration_seconds: f64,
    /// Makespan with sequential stage execution.
    pub makespan_sequential: f64,
    /// Makespan with pipelined stage execution.
    pub makespan_pipelined: f64,
    /// Whether the pipelined makespan is the effective one.
    pub pipelined: bool,
    /// Number of operators that ran on an accelerator.
    pub offloaded: usize,
    /// The device each (node, shard) task actually ran on — consumed
    /// from the plan's per-slot picks (never re-derived), with host
    /// fallback where the registry's fleet lacks the planned device. The
    /// acceptance check compares this map against
    /// `PlacementPlan::device_picks`.
    pub device_assignments: HashMap<(NodeId, ShardId), DeviceKind>,
    /// Per-node execution traces in the stage loop's merge order — the
    /// order whose `critical_seconds` sum reproduces
    /// `makespan_sequential` bit-for-bit. Always collected (they are
    /// cheap and pure); renderers consume them on demand.
    pub traces: Vec<NodeTrace>,
    /// Device-resident fused chains the tasks actually honored,
    /// reconstructed from the per-task fusion tags and indexed like the
    /// plan's `fused_chains` — so planned == executed fusion is
    /// assertable (members dropped by host fallbacks surface as shorter
    /// chains, never silently).
    pub fused_chains: Vec<pspp_ir::FusedChain>,
    /// Total simulated device-queue wait the tasks paid.
    pub queue_wait_seconds: f64,
}

impl ExecutionReport {
    /// The effective makespan under the configured execution mode.
    pub fn makespan(&self) -> f64 {
        if self.pipelined {
            self.makespan_pipelined
        } else {
            self.makespan_sequential
        }
    }
}

/// The orchestrator-side state of one shuffled node's exchange: where
/// each probe row went and the exchange's simulated transfer bill.
#[derive(Debug, Default)]
struct ShuffleBarrier {
    /// Per destination bucket, each probe row's index in the gathered
    /// probe side, ascending: the keys the splice merges on.
    probe_origins: Vec<Vec<usize>>,
    /// Rows routed across shards.
    routed_rows: u64,
    /// Bytes routed across shards.
    bytes: u64,
    /// Simulated seconds of the exchange (partition + serialize +
    /// wire + decode, plus per-shard overhead).
    seconds: f64,
    /// Device the accelerated leg of the exchange ran on (`Cpu` when
    /// every stage stayed on the host).
    device: DeviceKind,
    /// Rows served from a materialized repartition — replayed from the
    /// stored index buckets instead of crossing the wire.
    served_rows: u64,
    /// Bytes those served rows would have routed.
    served_bytes: u64,
    /// Freshly routed edges that may persist their layout, each with its
    /// buckets' origins and bytes, until the exchange's bill is known.
    copies: Vec<(CopyKey, Vec<Vec<usize>>, u64)>,
    /// Bytes persisted into the repartition store by this exchange.
    stored_bytes: u64,
    /// Simulated seconds of the one-time memory copy persisting them.
    store_seconds: f64,
}

/// One input edge as the task boundary reads it.
#[derive(Debug)]
struct Edge<'a> {
    /// The consuming node.
    id: NodeId,
    /// The edge's position among the node's inputs.
    idx: usize,
    /// The node the edge reads (a fused alias reads its producer).
    input: NodeId,
    kind: &'a ExchangeKind,
    /// Whether the plan serves this shuffle edge from a stored layout.
    served: bool,
    /// The plan's [`pspp_ir::PlanOptions::materialize`].
    materialize: bool,
    /// How many tasks the consuming node runs.
    tasks: usize,
}

/// One node's output, held once however its readers take it.
#[derive(Debug)]
enum NodeOutput {
    /// The whole output at one site.
    Gathered(Dataset),
    /// The per-shard outputs in scatter order, for a fanned-out reader,
    /// and the gathered copy, sharing their rows, for every other one.
    Partials {
        shards: Vec<Dataset>,
        gathered: Dataset,
    },
    /// A routed producer's rows, split by destination, until the one
    /// shuffle that reads them takes them.
    Routed(Routed),
}

impl NodeOutput {
    /// The whole output, where one site holds it.
    fn gathered(&self) -> Option<&Dataset> {
        match self {
            NodeOutput::Gathered(d) | NodeOutput::Partials { gathered: d, .. } => Some(d),
            NodeOutput::Routed(_) => None,
        }
    }

    /// Rows the node produced, however they are held.
    fn rows(&self) -> usize {
        match self {
            NodeOutput::Gathered(d) | NodeOutput::Partials { gathered: d, .. } => d.len(),
            NodeOutput::Routed(split) => split.len(),
        }
    }
}

/// How a node's task runs become its output: the merge point's cases.
#[derive(Debug)]
enum Merge {
    /// Concatenate the runs in task (shard) order, keeping each run's
    /// output too when a fanned-out reader reads them shard by shard.
    Gather { keep_shards: bool },
    /// A routed producer: move each run's rows into this many
    /// destination buckets.
    Route(usize),
    /// A shuffled join: splice the destinations' outputs back into the
    /// gathered probe order.
    Splice(ShuffleBarrier),
    /// A partial-aggregate `GroupBy`: merge the shards' partial states.
    Partials,
    /// A merge-partials `GroupBy` over a float sum, run as one gathered
    /// task instead (see [`Executor::reassociates_floats`]).
    Demoted,
}

/// One (node, shard) unit of stage work, resolved and ready to run.
#[derive(Debug)]
struct Task<'p> {
    id: NodeId,
    shard: ShardId,
    /// Scatter-slot index of this task in the node's gather order —
    /// the key into the plan's per-slot device picks.
    slot: usize,
    inputs: Vec<Dataset>,
    role: Role<'p>,
}

/// What a task is for, and so what it reports beside its rows.
#[derive(Debug, Clone)]
enum Role<'p> {
    /// Runs the node's operator.
    Run,
    /// Runs the per-shard partial of a merged aggregation.
    Partial(Operator),
    /// A shuffled-join destination: its join also reports each probe
    /// row's match count, the splice's chunk sizes.
    Count,
    /// A routed producer's task: it also reports where each output row
    /// goes, hashed on the shuffle's key over its width.
    Route(&'p str, u32),
}

/// What a task reported beside its rows, as its [`Role`] asked.
#[derive(Debug)]
enum Reported {
    Nothing,
    MatchCounts(Vec<usize>),
    Routes(Routes),
}

/// One task's run — or a node's runs folded into one — staged for its
/// node's merge.
#[derive(Debug)]
struct NodeRun {
    id: NodeId,
    output: Dataset,
    reported: Reported,
    acc: Accounts,
}

/// What a run cost and did, folded across a node's tasks.
#[derive(Debug, Default)]
struct Accounts {
    /// Simulated execution seconds (excluding migration).
    exec_seconds: f64,
    /// Simulated seconds migrating this node's foreign inputs, summed
    /// across shard tasks (total data-movement work).
    migration_seconds: f64,
    /// Simulated critical-path seconds: the slowest shard task's
    /// execution *plus its own* migration (per-shard migrations run
    /// concurrently with the other shards' tasks, so they overlap).
    critical_seconds: f64,
    /// Per-task traces folded into this run, in task (gather) order.
    tasks: Vec<TaskTrace>,
    /// Exchange edges charged while merging this run.
    exchanges: Vec<ExchangeTrace>,
}

impl Accounts {
    /// Folds the next shard task's accounts into these: simulated
    /// execution and critical-path time are the slowest replica's
    /// (shards run on distinct engine replicas in parallel on the
    /// simulated clock, each migrating its own partial), total
    /// migration work and traces accumulate in task order.
    fn fold(&mut self, next: Accounts) {
        self.exec_seconds = self.exec_seconds.max(next.exec_seconds);
        self.migration_seconds += next.migration_seconds;
        self.critical_seconds = self.critical_seconds.max(next.critical_seconds);
        self.tasks.extend(next.tasks);
        self.exchanges.extend(next.exchanges);
    }

    /// Traces an exchange edge of `kind` that moved `rows` (`bytes`) on
    /// `device` in `secs` seconds.
    fn trace(&mut self, kind: &'static str, device: DeviceKind, rows: u64, bytes: u64, secs: f64) {
        self.exchanges.push(ExchangeTrace {
            kind,
            rows: rows as usize,
            bytes: bytes as usize,
            seconds: secs,
            device,
        });
    }
}

impl NodeRun {
    /// Folds the next shard's partial into this run (shard-ordered
    /// gather): rows concatenate in shard order — scans' selections into
    /// one selection ([`RowBuf::append`]) — and keep their summed byte
    /// size; the accounts fold as in [`Accounts::fold`].
    fn absorb(&mut self, mut next: NodeRun) -> Result<()> {
        let (Payload::Rows { rows, .. }, Ok(more)) =
            (&mut self.output.payload, next.output.take_rows())
        else {
            return Err(Error::Execution(format!(
                "sharded node {} produced a non-row partial",
                self.id
            )));
        };
        // Copy-on-write: a partial some consumer still reads keeps its
        // own buffer, and the gathered copy shares the rows themselves;
        // one nobody else holds moves its rows over.
        rows.append_owned(more);
        self.acc.fold(next.acc);
        Ok(())
    }
}

/// The middleware executor.
#[derive(Debug, Clone)]
pub struct Executor {
    ledger: CostLedger,
    placer: Placer,
    /// The optimization level: device annotations are honored from L2
    /// on (below it everything runs on the host), stages pipeline at L3.
    level: OptLevel,
    /// Metrics sink for executor, placer and kernel-charge instrumentation
    /// (`None` runs unobserved).
    metrics: Option<MetricsRegistry>,
}

impl Executor {
    /// An executor posting to `ledger`. Devices come from the registry
    /// a program executes against ([`EngineRegistry::fleet`]): every
    /// task, exchange barrier and partial merge runs and bills on it.
    pub fn new(ledger: CostLedger) -> Self {
        Executor {
            placer: Placer::new(ledger.clone()),
            ledger,
            level: OptLevel::L2,
            metrics: None,
        }
    }

    /// Records executor, placer and kernel-charge instrumentation into
    /// `metrics`. All recorded values are integer counts or bucketed
    /// simulated durations, so observation never perturbs execution and
    /// snapshots are deterministic.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.placer = self.placer.with_metrics(metrics.clone());
        self.metrics = Some(metrics);
        self
    }

    /// Executes at `level` (default [`OptLevel::L2`]): accelerator
    /// offload from L2 on ([`OptLevel::placement`]), pipelined stage
    /// accounting at L3 ([`OptLevel::pipelined`]).
    pub fn level(mut self, level: OptLevel) -> Self {
        self.level = level;
        self
    }

    /// The shared ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Executes a validated program against the registry: the
    /// distribution plan the program carries, under the switches it was
    /// made with ([`pspp_ir::PlanOptions::materialize`] persists hot
    /// shuffle layouts and replays the edges the plan marks served).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Semantic`] for a program with no distribution
    /// plan or a plan of another length, [`Error::StalePlan`] when the
    /// plan was made at an epoch other than the registry's, and
    /// [`Error::Execution`] (and engine-specific errors) when an
    /// operator cannot run. A run that fails leaves in the ledger the
    /// events of every node that finished before the failing one, its
    /// own stage's included, and whatever the failing task posted
    /// before its error; nothing reads a failed run's ledger.
    pub fn execute(&self, program: &Program, registry: &EngineRegistry) -> Result<ExecutionReport> {
        program.validate()?;
        let plan = program.shard_plan()?;
        let (planned, current) = (plan.epoch, registry.epoch());
        if planned != current {
            return Err(Error::StalePlan { planned, current });
        }
        let stages = program.execution_stages()?;
        let mut outputs: HashMap<NodeId, NodeOutput> = HashMap::new();
        let mut traces: Vec<NodeTrace> = Vec::new();

        for (stage_idx, stage) in stages.iter().enumerate() {
            let runs = self.run_stage(program, &stage.compute, plan, registry, &mut outputs)?;
            for (id, run) in runs {
                // Trace appended in merge order — the same order
                // `makespans` sums node times, so a span tree built
                // over these traces reproduces the sequential makespan
                // exactly.
                let trace = NodeTrace {
                    id,
                    op: program.node(id).op.name().to_string(),
                    stage: stage_idx,
                    rows: outputs.get(&id).map_or(0, NodeOutput::rows),
                    exec_seconds: run.exec_seconds,
                    migration_seconds: run.migration_seconds,
                    critical_seconds: run.critical_seconds,
                    tasks: run.tasks,
                    exchanges: run.exchanges,
                };
                self.observe_run(&trace);
                traces.push(trace);
            }
        }

        let node_total = traces.iter().map(|t| (t.id, t.critical_seconds)).collect();
        let (makespan_sequential, makespan_pipelined) = makespans(&stages, &node_total);
        // Rebuild the executed fused chains from the honored per-task
        // tags: same indices as the plan's chains, members in chain
        // position order, savings summed from the charges' resident-
        // link discounts.
        let mut executed_chains = std::collections::BTreeMap::<_, Vec<_>>::new();
        let mut queue_wait_seconds = 0.0f64;
        let mut device_assignments = HashMap::new();
        for trace in &traces {
            for task in &trace.tasks {
                device_assignments.insert((trace.id, task.shard), task.device);
                queue_wait_seconds += task.queue_seconds;
                if let Some(tag) = task.fused {
                    let member = (tag.pos, trace.id, task);
                    executed_chains.entry(tag.chain).or_default().push(member);
                }
            }
        }
        let fused_chains = executed_chains
            .into_values()
            .map(|mut members| {
                members.sort_by_key(|&(pos, ..)| pos);
                pspp_ir::FusedChain {
                    shard: members[0].2.shard,
                    device: members[0].2.device,
                    nodes: members.iter().map(|&(_, id, _)| id).collect(),
                    saved_seconds: members.iter().map(|(.., t)| t.fused_saved_seconds).sum(),
                }
            })
            .collect();
        // Every output leaves with its rows built: a scan's selection
        // must not hold the table's snapshot in a report or a cache,
        // nor leave the building to a reader off the clock.
        let outputs = program
            .outputs()
            .iter()
            .map(|&id| {
                let output = outputs.get(&resolve_fused(program, id));
                (output.and_then(NodeOutput::gathered).cloned())
                    .map(Dataset::built)
                    .ok_or_else(|| Error::Execution(format!("missing output {id}")))
            })
            .collect::<Result<_>>()?;
        Ok(ExecutionReport {
            outputs,
            node_seconds: traces.iter().map(|t| (t.id, t.exec_seconds)).collect(),
            migration_seconds: traces.iter().fold(0.0, |s, t| s + t.migration_seconds),
            makespan_sequential,
            makespan_pipelined,
            pipelined: self.level.pipelined(),
            offloaded: traces.iter().filter(|t| offloaded(t)).count(),
            device_assignments,
            traces,
            fused_chains,
            queue_wait_seconds,
        })
    }

    /// Records one merged node run into the metrics registry (no-op when
    /// unobserved). Runs in merge order; every
    /// recorded value is an integer count or a bucketed simulated
    /// duration, so snapshots are deterministic.
    fn observe_run(&self, trace: &NodeTrace) {
        let Some(metrics) = &self.metrics else {
            return;
        };
        let count =
            |name: &str, help: &str, labels: &[(&str, &str)]| metrics.counter(name, help, labels);
        let time =
            |name: &str, help: &str, labels: &[(&str, &str)]| metrics.histogram(name, help, labels);
        let op = [("op", trace.op.as_str())];
        count("pspp_executor_nodes_total", "Plan nodes executed", &op).inc();
        if offloaded(trace) {
            let help = "Plan nodes that ran on an accelerator";
            count("pspp_executor_offloaded_nodes_total", help, &[]).inc();
        }
        let help = "Simulated critical-path seconds per plan node";
        time("pspp_node_critical_seconds", help, &[]).observe_seconds(trace.critical_seconds);
        for task in &trace.tasks {
            let device = format!("{:?}", task.device);
            let on_device = [("device", device.as_str())];
            count(
                "pspp_executor_tasks_total",
                "Per-shard tasks executed",
                &on_device,
            )
            .inc();
            if task.fallback() {
                let help = "Tasks whose planned accelerator was unavailable";
                count("pspp_host_fallbacks_total", help, &[]).inc();
            }
            if task.queue_seconds > 0.0 {
                let help = "Simulated wait for a contended device per task";
                let queue = time("pspp_device_queue_seconds", help, &on_device);
                queue.observe_seconds(task.queue_seconds);
            }
            // Count each chain once, at its head.
            if task.fused.is_some_and(|tag| tag.pos == 0) {
                let help = "Device-resident fused chains executed";
                count("pspp_fused_chains", help, &on_device).inc();
            }
        }
        for exchange in &trace.exchanges {
            let of_kind = [("kind", exchange.kind)];
            let help = "Rows routed through exchange edges";
            count("pspp_exchange_rows_total", help, &of_kind).add(exchange.rows as u64);
            let help = "Bytes moved through exchange edges";
            count("pspp_exchange_bytes_total", help, &of_kind).add(exchange.bytes as u64);
        }
    }

    /// The stage step: runs each compute node to completion, in node-id
    /// order — builds its tasks at the task boundary
    /// ([`Executor::node_tasks`]), runs them one after another on the
    /// calling thread in task (shard) order, and merges their runs at
    /// the merge point ([`Executor::merge`]) into its entry of `outputs`.
    /// The first task to fail ends the stage with its error. Returns each
    /// node's accounts in node-id order.
    fn run_stage(
        &self,
        program: &Program,
        compute: &[NodeId],
        plan: &ShardPlan,
        registry: &EngineRegistry,
        outputs: &mut HashMap<NodeId, NodeOutput>,
    ) -> Result<Vec<(NodeId, Accounts)>> {
        compute
            .iter()
            .map(|&id| {
                let (tasks, merge) = self.node_tasks(program, id, plan, registry, outputs)?;
                let runs = tasks
                    .into_iter()
                    .map(|task| self.run_node(program, task, registry))
                    .collect::<Result<_>>()?;
                let (acc, output) = self.merge(program, id, merge, runs, registry)?;
                outputs.insert(id, output);
                Ok((id, acc))
            })
            .collect()
    }

    /// The task boundary: node `id`'s tasks — one per scatter slot for a
    /// source, a colocated node, a shuffled join or a partial
    /// aggregation, one shard-0 task otherwise — each input edge handed
    /// out by [`Executor::edge_inputs`], and how their runs merge. A
    /// shuffled node's exchange is billed here, before any task runs.
    fn node_tasks<'p>(
        &self,
        program: &Program,
        id: NodeId,
        plan: &'p ShardPlan,
        registry: &EngineRegistry,
        outputs: &mut HashMap<NodeId, NodeOutput>,
    ) -> Result<(Vec<Task<'p>>, Merge)> {
        let (node, info) = (program.node(id), plan.node(id));
        let output_of = |i: &NodeId| outputs.get(&resolve_fused(program, *i));
        let demoted = info.merges_partials()
            && Self::reassociates_floats(&node.op, node.inputs.first().and_then(output_of))?;
        let fans_out = node.inputs.is_empty()
            || info.colocated
            || info.shuffles()
            || (info.merges_partials() && !demoted);
        let (zero, gather) = ([ShardId::ZERO], ExchangeKind::Gather);
        let shards = if fans_out { &info.scatter[..] } else { &zero };
        let mut inputs = vec![Vec::with_capacity(node.inputs.len()); shards.len()];
        let mut barrier = ShuffleBarrier::default();
        for (idx, &input) in node.inputs.iter().enumerate() {
            let edge = Edge {
                id,
                idx,
                input,
                // A demoted merge reads its input gathered.
                kind: if demoted { &gather } else { info.exchange(idx) },
                served: info.is_copy_served(idx),
                materialize: plan.options.materialize,
                tasks: shards.len(),
            };
            let datasets = self.edge_inputs(program, registry, edge, outputs, &mut barrier)?;
            for (task_inputs, d) in inputs.iter_mut().zip(datasets) {
                task_inputs.push(d);
            }
        }
        let (merge, role) = if info.shuffles() {
            self.bill_shuffle(id, &mut barrier, registry, shards.len())?;
            (Merge::Splice(barrier), Role::Count)
        } else if demoted {
            (Merge::Demoted, Role::Run)
        } else if info.merges_partials() {
            (Merge::Partials, Role::Partial(Self::partial_op(&node.op)?))
        } else if let Some((key, width)) = &info.routed {
            (Merge::Route(*width as usize), Role::Route(key, *width))
        } else {
            let keep_shards = info.partials_needed;
            (Merge::Gather { keep_shards }, Role::Run)
        };
        let tasks = (shards.iter().zip(inputs).enumerate())
            .map(|(slot, (&shard, inputs))| Task {
                id,
                shard,
                slot,
                inputs,
                role: role.clone(),
            })
            .collect();
        Ok((tasks, merge))
    }

    /// The task boundary's one dispatch: hands `edge`'s producer output
    /// to each of the consuming node's tasks, by the edge's exchange
    /// kind. A shuffle edge takes a routed producer's buckets out of
    /// `outputs`, and tallies its rows, bytes and probe origins into
    /// `barrier`.
    ///
    /// # Errors
    ///
    /// [`Error::Execution`] for a producer that has not run, a pair the
    /// plan cannot produce, or partials or buckets other than one per
    /// task.
    fn edge_inputs(
        &self,
        program: &Program,
        registry: &EngineRegistry,
        edge: Edge<'_>,
        outputs: &mut HashMap<NodeId, NodeOutput>,
        barrier: &mut ShuffleBarrier,
    ) -> Result<Vec<Dataset>> {
        let (id, idx, input, kind, tasks) = (edge.id, edge.idx, edge.input, edge.kind, edge.tasks);
        let source = resolve_fused(program, input);
        let missing = || Error::Execution(format!("missing input {input} for {id}"));
        let copy_key = |key: &str, width: u32| {
            let key = || pspp_ir::shuffle_copy_key(program, input, key, width);
            edge.materialize.then(key).flatten()
        };
        let (split, served, copy) = match (kind, outputs.get(&source).ok_or_else(missing)?) {
            (
                ExchangeKind::Local | ExchangeKind::MergePartials,
                NodeOutput::Partials { shards, .. },
            ) => {
                if shards.len() != tasks {
                    return Err(Error::Execution(format!(
                        "{} partials of {source} for the {tasks} tasks of {id}",
                        shards.len()
                    )));
                }
                return Ok(shards.clone());
            }
            (
                ExchangeKind::Local | ExchangeKind::Gather | ExchangeKind::Broadcast,
                NodeOutput::Gathered(d),
            )
            | (
                ExchangeKind::Gather | ExchangeKind::Broadcast,
                NodeOutput::Partials { gathered: d, .. },
            ) => return Ok(vec![d.clone(); tasks]),
            (
                ExchangeKind::ShuffleHash { key, width },
                NodeOutput::Gathered(d) | NodeOutput::Partials { gathered: d, .. },
            ) => {
                // A served edge replays its stored layout: zero rows
                // cross the wire. A stale or mismatched entry falls back
                // to routing.
                let copy = copy_key(key, *width);
                let rows = d.try_rows()?;
                let lookup = |k: &CopyKey| registry.repartitions().lookup(k, rows.len());
                let stored = copy.as_ref().filter(|_| edge.served).and_then(lookup);
                let routes = match &stored {
                    Some(buckets) => Routes::of_buckets(rows, buckets)?,
                    None => Routes::of_rows(d.schema()?, rows, key, *width)?,
                };
                let mut split = Routed::new(d, routes.bytes.len())?;
                split.push(d.row_buf()?.clone(), &routes)?;
                (split, stored.is_some(), copy)
            }
            // The plan routes a producer only where no copy serves its
            // edge.
            (ExchangeKind::ShuffleHash { key, width }, NodeOutput::Routed(_)) => {
                match outputs.remove(&source) {
                    Some(NodeOutput::Routed(split)) => (split, false, copy_key(key, *width)),
                    _ => return Err(missing()),
                }
            }
            (ExchangeKind::MergePartials, NodeOutput::Gathered(_))
            | (
                ExchangeKind::Local
                | ExchangeKind::Gather
                | ExchangeKind::Broadcast
                | ExchangeKind::MergePartials,
                NodeOutput::Routed(_),
            ) => {
                return Err(Error::Execution(format!(
                    "{kind} input {idx} of {id} cannot read how {source} holds its output"
                )))
            }
        };
        let (rows, bytes) = (split.len() as u64, split.byte_size());
        let (buckets, dests) = split.into_buckets();
        if buckets.len() != tasks {
            return Err(Error::Execution(format!(
                "shuffled node {id}: input {idx} routes to {} destinations, the plan has {tasks}",
                buckets.len()
            )));
        }
        // Origins are read by the splice (the probe edge) and by a
        // layout that may persist; a build edge's are not built.
        let copy = copy.filter(|_| !served);
        let origins =
            (idx == 0 || copy.is_some()).then(|| crate::dataset::origins(&buckets, &dests));
        if served {
            barrier.served_rows += rows;
            barrier.served_bytes += bytes;
        } else {
            barrier.routed_rows += rows;
            barrier.bytes += bytes;
        }
        if let (Some(k), Some(origins)) = (copy, &origins) {
            barrier.copies.push((k, origins.clone(), bytes));
        }
        if let (0, Some(origins)) = (idx, origins) {
            barrier.probe_origins = origins;
        }
        Ok(buckets)
    }

    /// Bills shuffled node `id`'s exchange by the price the planner
    /// estimated it with: hash-partition the routed rows, serialize one
    /// stream per destination shard, cross the exchange wire, decode on
    /// the receivers — each kernel stage on the fleet's best device when
    /// offload is enabled, the host otherwise. Row placement itself
    /// always uses the stable FNV rule, so the device choice never moves
    /// a byte. Each freshly routed edge then records its share of the
    /// bill; once the cumulative shuffle spend on its key exceeds the
    /// one-time memory copy ([`pspp_ir::repartition_pays`]), the layout
    /// persists and the copy is charged to the barrier.
    fn bill_shuffle(
        &self,
        id: NodeId,
        barrier: &mut ShuffleBarrier,
        registry: &EngineRegistry,
        width: usize,
    ) -> Result<()> {
        if barrier.probe_origins.is_empty() {
            return Err(Error::Execution(format!(
                "shuffled node {id} has no shuffled probe side"
            )));
        }
        let fleet = registry.fleet();
        let (rows, bytes) = (barrier.routed_rows, barrier.bytes);
        let (bill, seconds) =
            price::shuffle_barrier(fleet, self.level.placement(), rows, bytes, width);
        barrier.seconds = seconds;
        barrier.device = if bill.serialize_device != DeviceKind::Cpu {
            bill.serialize_device
        } else {
            bill.partition_device
        };
        let repartitions = registry.repartitions();
        // A plan made before its layout was persisted routes the edge
        // again; the stored copy stays, and is not paid for twice.
        let mut copies = std::mem::take(&mut barrier.copies);
        copies.retain(|(key, ..)| !repartitions.contains(key));
        for (key, buckets, edge_bytes) in copies {
            // No edge routes bytes when the exchange routes none.
            let share = edge_bytes as f64 / bytes.max(1) as f64;
            let cumulative = repartitions.observe(&key, bill.seconds * share);
            if pspp_ir::repartition_pays(cumulative, edge_bytes) {
                barrier.stored_bytes += edge_bytes;
                repartitions.store(key, buckets, edge_bytes);
            }
        }
        barrier.store_seconds = barrier.stored_bytes as f64 / pspp_ir::REPARTITION_COPY_BPS;
        Ok(())
    }

    /// The merge point's one dispatch: node `id`'s task runs, in task
    /// order, become its accounts and its output; an exchange it charges
    /// posts to the run's ledger.
    fn merge(
        &self,
        program: &Program,
        id: NodeId,
        merge: Merge,
        group: Vec<NodeRun>,
        registry: &EngineRegistry,
    ) -> Result<(Accounts, NodeOutput)> {
        let gathered = |run: NodeRun| (run.acc, NodeOutput::Gathered(run.output));
        Ok(match merge {
            Merge::Gather { keep_shards: false } | Merge::Demoted => {
                gathered(Self::gather_runs(id, group)?)
            }
            Merge::Gather { keep_shards: true } => {
                let shards = group.iter().map(|run| run.output.clone()).collect();
                let run = Self::gather_runs(id, group)?;
                let gathered = run.output;
                (run.acc, NodeOutput::Partials { shards, gathered })
            }
            Merge::Route(width) => {
                let (acc, split) = Self::route_runs(id, group, width)?;
                (acc, NodeOutput::Routed(split))
            }
            Merge::Splice(barrier) => gathered(self.splice_shuffle(id, group, &barrier)?),
            Merge::Partials => gathered(self.merge_partial_runs(program, id, group, registry)?),
        })
    }

    /// The plain gather: folds one node's task runs into the first, in
    /// task (shard) order.
    fn gather_runs(id: NodeId, group: Vec<NodeRun>) -> Result<NodeRun> {
        let mut it = group.into_iter();
        let mut acc = it
            .next()
            .ok_or_else(|| Error::Execution(format!("node {id} has no task run to gather")))?;
        for next in it {
            acc.absorb(next)?;
        }
        Ok(acc)
    }

    /// The routed producer's merge: each task's rows move into their
    /// destinations' buckets (a scan's selection as its positions),
    /// task (shard) order kept within each, and the accounts fold into
    /// the first run's as a gather's would.
    fn route_runs(id: NodeId, group: Vec<NodeRun>, width: usize) -> Result<(Accounts, Routed)> {
        let mut routed: Option<(Accounts, Routed)> = None;
        for mut run in group {
            let Reported::Routes(routes) = run.reported else {
                return Err(Error::Execution(format!(
                    "a task of routed node {id} reported no routes"
                )));
            };
            let rows = run.output.take_rows()?;
            let (acc, mut split) = match routed.take() {
                Some((mut first, split)) => {
                    first.fold(run.acc);
                    (first, split)
                }
                None => (run.acc, Routed::new(&run.output, width)?),
            };
            split.push(rows, &routes)?;
            routed = Some((acc, split));
        }
        routed.ok_or_else(|| Error::Execution(format!("node {id} has no task run to route")))
    }

    /// The per-shard partial operator of a partial-aggregate + merge
    /// `GroupBy` (see [`pspp_ir::partial_agg_specs`]).
    fn partial_op(op: &Operator) -> Result<Operator> {
        match op {
            Operator::GroupBy { keys, aggs } => Ok(Operator::GroupBy {
                keys: keys.clone(),
                aggs: pspp_ir::partial_agg_specs(aggs),
            }),
            other => Err(Error::Execution(format!(
                "merge-partials planned for non-aggregate {}",
                other.name()
            ))),
        }
    }

    /// Whether a partial-aggregate + merge of `op` over `input` must
    /// fall back to the gathered plan to stay bit-identical: float
    /// addition is not associative, so a `Sum`/`Avg` over a `Float`
    /// column would merge to different low bits than the single-site
    /// left-to-right fold. Integer columns (and `Count`/`Min`/`Max` over
    /// anything) are exact, so they keep the per-shard split.
    fn reassociates_floats(op: &Operator, input: Option<&NodeOutput>) -> Result<bool> {
        let (Operator::GroupBy { aggs, .. }, Some(NodeOutput::Partials { gathered, .. })) =
            (op, input)
        else {
            return Ok(false);
        };
        let schema = gathered.schema()?;
        Ok(aggs.iter().any(|a| {
            matches!(a.func, AggFn::Sum | AggFn::Avg)
                && (schema.field(&a.column)).is_some_and(|f| f.data_type == DataType::Float)
        }))
    }

    /// The shuffle barrier: splices per-destination join outputs back
    /// into the gathered probe order. Each destination's output rows
    /// group into contiguous per-probe-row chunks (the hash join emits
    /// matches in probe order), whose sizes each task's join reported,
    /// and a destination's probe rows are in gathered order; merging the
    /// destinations' chunk streams on their global probe index
    /// reproduces the gathered plan's bytes exactly.
    fn splice_shuffle(
        &self,
        id: NodeId,
        group: Vec<NodeRun>,
        barrier: &ShuffleBarrier,
    ) -> Result<NodeRun> {
        // Per destination, its (global probe index, length) chunks in
        // order and the rows they cut its output into.
        let mut streams = Vec::with_capacity(group.len());
        let (mut total, mut byte_size) = (0usize, 0u64);
        let mut acc: Option<NodeRun> = None;
        for (d, mut run) in group.into_iter().enumerate() {
            let Reported::MatchCounts(counts) =
                std::mem::replace(&mut run.reported, Reported::Nothing)
            else {
                return Err(Error::Execution(format!(
                    "shuffled task of {id} reported no match counts"
                )));
            };
            let out_rows = run.output.take_rows().map_err(|_| {
                Error::Execution(format!("shuffled node {id} produced a non-row output"))
            })?;
            let origins = barrier.probe_origins.get(d).map_or(&[][..], Vec::as_slice);
            if counts.len() != origins.len() {
                return Err(Error::Execution(format!(
                    "shuffled node {id}, destination {d}: {} match counts for {} probe rows",
                    counts.len(),
                    origins.len()
                )));
            }
            let matched = counts.iter().sum::<usize>();
            if matched != out_rows.len() {
                return Err(Error::Execution(format!(
                    "shuffle barrier for {id} mis-spliced: {matched} of {} rows",
                    out_rows.len()
                )));
            }
            total += matched;
            byte_size += out_rows.byte_size();
            let chunks = origins.iter().copied().zip(counts).filter(|&(_, n)| n > 0);
            streams.push((chunks.peekable(), out_rows.into_rows().into_iter()));
            match &mut acc {
                None => acc = Some(run),
                Some(first) => first.acc.fold(run.acc),
            }
        }
        let mut run =
            acc.ok_or_else(|| Error::Execution(format!("shuffled node {id} has no task run")))?;
        // Splice in probe order: each probe row sits in one bucket, so
        // the origins are distinct, and the next chunk is the smallest
        // origin at the head of a stream. The rows move; their size is
        // the sum of the outputs', which the tasks' charges asked for.
        let mut spliced = Vec::with_capacity(total);
        while let Some((_, d)) = streams
            .iter_mut()
            .enumerate()
            .filter_map(|(d, (chunks, _))| Some((chunks.peek()?.0, d)))
            .min()
        {
            let (chunks, rows) = &mut streams[d];
            if let Some((_, n)) = chunks.next() {
                spliced.extend(rows.by_ref().take(n));
            }
        }
        if let Payload::Rows { rows, .. } = &mut run.output.payload {
            *rows = RowBuf::pre_sized(spliced, byte_size);
        }
        // The exchange rides the node's critical path and charges its
        // rows as migration-class transfer work.
        let acc = &mut run.acc;
        acc.migration_seconds += barrier.seconds + barrier.store_seconds;
        acc.critical_seconds += barrier.seconds + barrier.store_seconds;
        let (device, rows, bytes) = (barrier.device, barrier.routed_rows, barrier.bytes);
        self.transfer("exchange.shuffle", device, bytes, barrier.seconds);
        acc.trace("shuffle", device, rows, bytes, barrier.seconds);
        if barrier.stored_bytes > 0 {
            let (bytes, seconds) = (barrier.stored_bytes, barrier.store_seconds);
            self.transfer("exchange.materialize", DeviceKind::Cpu, bytes, seconds);
        }
        if barrier.served_rows > 0 {
            // Served edges replay stored buckets — no wire crossing, no
            // charge; the trace records the movement they avoided.
            let (rows, bytes) = (barrier.served_rows, barrier.served_bytes);
            acc.trace("materialized", DeviceKind::Cpu, rows, bytes, 0.0);
        }
        Ok(run)
    }

    /// The merge stage of a partial-aggregate `GroupBy`: concatenates
    /// the per-shard partial states in shard order and combines them
    /// into the final aggregate rows (see
    /// [`pspp_relstore::ops::merge_group_partials`]).
    fn merge_partial_runs(
        &self,
        program: &Program,
        id: NodeId,
        group: Vec<NodeRun>,
        registry: &EngineRegistry,
    ) -> Result<NodeRun> {
        let Operator::GroupBy { keys, aggs } = &program.node(id).op else {
            return Err(Error::Execution(format!(
                "merge-partials planned for non-aggregate {id}"
            )));
        };
        let width = group.len();
        let mut run = Self::gather_runs(id, group)?;
        let spec = |a: &AggSpec| {
            AggregateSpec::new(physical::agg_fn(a.func), a.column.clone(), a.output.clone())
        };
        let specs: Vec<AggregateSpec> = aggs.iter().map(spec).collect();
        let partial_bytes = run.output.byte_size();
        let (schema, rows) = {
            let Payload::Rows { schema, rows } = &run.output.payload else {
                return Err(Error::Execution(format!(
                    "partial aggregation of {id} produced a non-row output"
                )));
            };
            relops::merge_group_partials(schema, rows, keys.len(), &specs)?
        };
        run.output = Dataset::rows(schema, rows, run.output.model, run.output.location.clone());
        // The merge splices partial states on the host: charge it like
        // an exchange barrier on the critical path.
        let seconds = price::splice(registry.fleet(), width, run.output.len() as f64);
        let acc = &mut run.acc;
        acc.migration_seconds += seconds;
        acc.critical_seconds += seconds;
        self.transfer("exchange.merge", DeviceKind::Cpu, partial_bytes, seconds);
        let rows = run.output.len() as u64;
        acc.trace("merge", DeviceKind::Cpu, rows, partial_bytes, seconds);
        Ok(run)
    }

    /// Posts a migration-class transfer event: `component` moved `bytes`
    /// on `device` in `seconds`.
    fn transfer(&self, component: &'static str, device: DeviceKind, bytes: u64, seconds: f64) {
        let duration = SimDuration::from_secs(seconds);
        self.ledger
            .post(component, device, EventKind::Transfer, bytes, duration, 0.0);
    }

    /// Executes one (node, shard) task: placement, input migration, the
    /// operator's run, and cost attribution — its migrations, its
    /// operator's charge and its queue wait post to the run's ledger as
    /// they happen. The task's role picks the operator (the node's own,
    /// or the per-shard partial of a merged aggregation) and what the
    /// task reports beside its rows.
    fn run_node(
        &self,
        program: &Program,
        task: Task,
        registry: &EngineRegistry,
    ) -> Result<NodeRun> {
        let (id, shard, slot, role) = (task.id, task.shard, task.slot, &task.role);
        let node = program.node(id);
        let op = match role {
            Role::Partial(op) => op,
            Role::Run | Role::Count | Role::Route(..) => &node.op,
        };
        if matches!(role, Role::Count) && !matches!(op, Operator::HashJoin { .. }) {
            return Err(Error::Execution(format!(
                "shuffle planned for non-hash-join {id}"
            )));
        }
        let target = Placer::target_engine_of(node, &task.inputs);
        // An input that crosses engines goes through the codec, the
        // columns its producer's consumers read and no others, and
        // arrives as a selection over the batch it decoded.
        let demand = |&i: &NodeId| {
            program
                .node(resolve_fused(program, i))
                .annotations
                .demand
                .as_ref()
        };
        let demands: Vec<Option<&ColumnDemand>> = node.inputs.iter().map(demand).collect();
        let (inputs, bill) =
            self.placer
                .stage_datasets(task.inputs, &demands, target.as_ref(), registry)?;

        // The device is *consumed* from the plan's per-slot pick —
        // never re-derived here — falling back to the node-wide
        // annotation for unsharded plans, and to the host when the
        // registry's fleet has no such device attached (a plan priced
        // on another fleet).
        let fleet = registry.fleet();
        let annotations = &node.annotations;
        let at_slot = |picks: &Vec<DeviceKind>| picks.get(slot).copied();
        let planned = (annotations.shard_devices.as_ref().and_then(at_slot))
            .or(annotations.device)
            .unwrap_or_default();
        let offload = self.level.placement();
        let device = if offload && (planned == DeviceKind::Cpu || fleet.device(planned).is_some()) {
            planned
        } else {
            DeviceKind::Cpu
        };
        // A shuffled-join bucket's join also reports its per-probe-row
        // match counts — the barrier's splice chunk sizes. A routed
        // producer's task learns where each row goes from the operator
        // when it can say (a relational scan), else from the rows it
        // returned.
        let (probe_counts, routes) = (OnceLock::new(), OnceLock::new());
        let ctx = ExecCtx::new(fleet, &self.ledger, offload)
            .at_shard(shard)
            .demanding(node.annotations.demand.as_ref());
        let mut ctx = match role {
            Role::Count => ctx.counting_probe_matches(&probe_counts),
            &Role::Route(key, width) => ctx.routing(RouteRequest {
                key,
                width,
                routes: &routes,
            }),
            Role::Run | Role::Partial(_) => ctx,
        };
        if let Some(n) = Self::kept_by_limit(program, id, op) {
            ctx = ctx.ordering_only(n);
        }
        // An ML operator's seconds are the busy time of what it posts.
        let mark = self.ledger.len();
        let output = physical::run(op, &inputs, target.as_ref(), registry, &ctx)?;
        let reported = match (role, routes.into_inner()) {
            (Role::Count, _) => probe_counts
                .into_inner()
                .map_or(Reported::Nothing, Reported::MatchCounts),
            (Role::Route(..), Some(answered)) => Reported::Routes(answered),
            (&Role::Route(key, width), None) => Reported::Routes(Routes::of_rows(
                output.schema()?,
                output.try_rows()?,
                key,
                width,
            )?),
            (Role::Run | Role::Partial(_), _) => Reported::Nothing,
        };

        // Charge the simulated clock with actual sizes: the volume the
        // inputs put through the kernel (a join's sides add up — which
        // is how a colocated task with a per-shard probe and a
        // broadcast build side charges less than the gathered join),
        // and never less than the output.
        let (in_rows, in_bytes) =
            price::work_volume(op, inputs.iter().map(|d| (d.len() as u64, d.byte_size())));
        let work_rows = in_rows.max(output.len() as u64);
        let work_bytes = in_bytes.max(output.byte_size());
        // Fused-chain membership is honored only when the task actually
        // runs on the planned coprocessor: a host fallback drops the
        // tag (counted fission, never silent), and non-head members
        // read device-resident input over the local link instead of
        // paying the attachment's PCIe transfer.
        let on_planned_device = device == planned && device != DeviceKind::Cpu;
        let tags = annotations.shard_fusion.as_ref();
        let fused = tags.and_then(|tags| tags.get(slot).copied().flatten());
        let fused = fused.filter(|_| on_planned_device);
        let resident = fused.is_some_and(|tag| tag.pos > 0);
        let (exec_seconds, fused_saved_seconds) = self.charge(
            fleet,
            mark,
            op,
            id,
            device,
            (work_rows, work_bytes),
            resident,
        );
        // A contended device serves this slot after its queue wait; the
        // wait rides the critical path (and the ledger), but only when
        // the task really ran on the contended device.
        let waits = annotations.shard_queue_waits.as_ref();
        let wait = waits.and_then(|w| w.get(slot).copied()).unwrap_or(0.0);
        let queue_seconds = if on_planned_device { wait } else { 0.0 };
        if queue_seconds > 0.0 {
            self.ledger.post(
                format!("executor.queue_wait@{id}"),
                device,
                EventKind::Launch,
                0,
                SimDuration::from_secs(queue_seconds),
                0.0,
            );
        }
        let critical_seconds = exec_seconds + bill.seconds + queue_seconds;
        let task_trace = TaskTrace {
            shard,
            slot,
            planned,
            device,
            rows: output.len(),
            exec_seconds,
            migration_seconds: bill.seconds,
            critical_seconds,
            queue_seconds,
            fused,
            fused_saved_seconds,
        };
        let acc = Accounts {
            exec_seconds,
            migration_seconds: bill.seconds,
            critical_seconds,
            tasks: vec![task_trace],
            exchanges: Vec::new(),
        };
        Ok(NodeRun {
            id,
            output,
            reported,
            acc,
        })
    }

    /// Posts the executed `op`'s [`price::task`] — planned on `device`
    /// of `fleet`, over `work` (rows, bytes) — to the run's ledger as
    /// `executor.{op}@{node}` and counts the charge per serving device;
    /// returns its seconds and the transfer seconds a device-resident
    /// input saved (zero unless `resident`: a fused-chain member after
    /// the head reads its input where its producer left it).
    ///
    /// The price falls back to the host profile when `device` does not
    /// run (or has zero efficiency for) the operator's kernel class;
    /// attached accelerators also pay their transfer. An ML operator is
    /// accounted by the ML engine itself — its kernels posted their own
    /// `mlengine.*` events while running, after the ledger's length was
    /// `mark` — so its cost is their busy seconds and nothing is posted.
    #[allow(clippy::too_many_arguments)]
    fn charge(
        &self,
        fleet: &AcceleratorFleet,
        mark: usize,
        op: &Operator,
        node: NodeId,
        device: DeviceKind,
        (rows, bytes): (u64, u64),
        resident: bool,
    ) -> (f64, f64) {
        if matches!(
            op,
            Operator::TrainMlp { .. } | Operator::Predict | Operator::KMeansCluster { .. }
        ) {
            return (self.ledger.busy_since(mark).as_secs(), 0.0);
        }
        let price = price::task(fleet, op, device, rows, bytes, resident);
        let served_by = price.profile.kind();
        self.ledger.post(
            format!("executor.{}@{node}", op.name()),
            served_by,
            EventKind::Compute,
            bytes,
            price.duration,
            price.profile.energy_j(price.duration.as_secs()),
        );
        if let Some(metrics) = &self.metrics {
            let device = format!("{served_by:?}");
            metrics
                .counter(
                    "pspp_kernel_charges_total",
                    "Operator kernel charges by serving device",
                    &[("device", &device)],
                )
                .inc();
        }
        (price.duration.as_secs(), price.resident_saving)
    }

    /// `n` when `op` is node `id`'s `Sort`, no program output, whose one
    /// reader is a `Limit n` that runs (a fused node would forward the
    /// sort's every row): that sort need order only the first `n` rows.
    fn kept_by_limit(program: &Program, id: NodeId, op: &Operator) -> Option<usize> {
        if !matches!(op, Operator::Sort { .. }) || program.outputs().contains(&id) {
            return None;
        }
        let mut readers = program.nodes().iter().filter(|n| n.inputs.contains(&id));
        let reader = readers.next()?;
        match reader.op {
            Operator::Limit { n }
                if readers.next().is_none() && !reader.annotations.fused_into_consumer =>
            {
                Some(n)
            }
            _ => None,
        }
    }
}

/// Whether a node ran on an attached accelerator: a task leaves the host
/// only for a device the registry's fleet attaches.
fn offloaded(trace: &NodeTrace) -> bool {
    trace
        .tasks
        .iter()
        .any(|task| task.device != DeviceKind::Cpu)
}

/// Sequential and pipelined makespans over live-node stage times.
fn makespans(stages: &[Stage], node_total: &HashMap<NodeId, f64>) -> (f64, f64) {
    let stage_times: Vec<f64> = stages
        .iter()
        .map(|stage| {
            stage
                .compute
                .iter()
                .filter_map(|id| node_total.get(id))
                .fold(0.0f64, |a, &b| a.max(b))
        })
        .collect();
    // Sum in stage/node order: f64 addition is order-sensitive, and the
    // makespan must be bit-identical across runs and execution modes.
    let sequential: f64 = stages
        .iter()
        .flat_map(|stage| &stage.compute)
        .filter_map(|id| node_total.get(id))
        .sum();
    let bottleneck = stage_times.iter().fold(0.0f64, |a, &b| a.max(b));
    let stage_sum: f64 = stage_times.iter().sum();
    let pipelined = bottleneck + (stage_sum - bottleneck) / PIPELINE_CHUNKS;
    (sequential, pipelined)
}

#[cfg(test)]
mod routing_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType, EngineId, Predicate, Row, Schema, TableRef, Value};
    use pspp_ir::{AggFn, Operator, PlanOptions};
    use pspp_relstore::RelationalStore;

    use crate::registry::EngineInstance;

    fn registry() -> EngineRegistry {
        let mut r = EngineRegistry::new();
        let mut db1 = RelationalStore::new("db1");
        db1.create_table(
            "admissions",
            Schema::new(vec![
                ("pid", DataType::Int),
                ("age", DataType::Int),
                ("los", DataType::Float),
            ]),
        )
        .unwrap();
        db1.insert(
            "admissions",
            (0..200)
                .map(|i| row![i as i64, (20 + i % 60) as i64, (i % 10) as f64])
                .collect(),
        )
        .unwrap();
        let mut db2 = RelationalStore::new("db2");
        db2.create_table(
            "patients",
            Schema::new(vec![("pid", DataType::Int), ("name", DataType::Str)]),
        )
        .unwrap();
        db2.insert(
            "patients",
            (0..200).map(|i| row![i as i64, format!("p{i}")]).collect(),
        )
        .unwrap();
        r.register(EngineId::new("db1"), EngineInstance::Relational(db1))
            .unwrap();
        r.register(EngineId::new("db2"), EngineInstance::Relational(db2))
            .unwrap();
        r.set_fleet(pspp_accel::AcceleratorFleet::workstation());
        r
    }

    fn exec() -> Executor {
        Executor::new(CostLedger::new())
    }

    /// Plans `p` over `registry` under `options` — the distribution
    /// pass `Polystore::optimize_at` runs — and executes the plan on
    /// `e`.
    fn run_with(
        e: &Executor,
        p: &Program,
        registry: &EngineRegistry,
        options: PlanOptions,
    ) -> Result<ExecutionReport> {
        let mut p = p.clone();
        Placer::plan_distribution(&mut p, registry, options)?;
        e.execute(&p, registry)
    }

    /// [`run_with`] under the default switches.
    fn run(e: &Executor, p: &Program, registry: &EngineRegistry) -> Result<ExecutionReport> {
        run_with(e, p, registry, PlanOptions::default())
    }

    fn no_exchange() -> PlanOptions {
        PlanOptions {
            exchange: false,
            ..PlanOptions::default()
        }
    }

    fn materializing() -> PlanOptions {
        PlanOptions {
            materialize: true,
            ..PlanOptions::default()
        }
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let mut p = Program::new();
        let s = p.add_source(
            Operator::Scan {
                table: TableRef::new("db1", "admissions"),
                predicate: Predicate::ge("age", 60i64),
                projection: Some(vec!["pid".into(), "age".into()]),
            },
            "sql",
        );
        p.mark_output(s);
        let report = run(&exec(), &p, &registry()).unwrap();
        let out = &report.outputs[0];
        assert!(!out.is_empty() && out.len() < 200);
        assert_eq!(out.schema().unwrap().arity(), 2);
        assert!(report.makespan_sequential > 0.0);
    }

    #[test]
    fn cross_engine_join_triggers_migration() {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "patients")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "pid".into(),
                right_on: "pid".into(),
            },
            vec![a, b],
            "sql",
        );
        // Execute the join at db1: patient rows must migrate.
        p.node_mut(j).annotations.engine = Some(EngineId::new("db1"));
        p.mark_output(j);
        let e = exec();
        let report = run(&e, &p, &registry()).unwrap();
        assert_eq!(report.outputs[0].len(), 200);
        assert!(report.migration_seconds > 0.0);
        assert!(e
            .ledger()
            .events()
            .iter()
            .any(|ev| ev.component == "migrate.transfer"));
    }

    #[test]
    fn fused_nodes_forward_inputs() {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::True,
            },
            vec![s],
            "sql",
        );
        p.node_mut(f).annotations.fused_into_consumer = true;
        let lim = p.add_node(Operator::Limit { n: 5 }, vec![f], "sql");
        p.mark_output(lim);
        let report = run(&exec(), &p, &registry()).unwrap();
        assert_eq!(report.outputs[0].len(), 5);
        assert!(!report.node_seconds.contains_key(&f));
    }

    /// Trains on `admissions` with `los` the label, then scores the
    /// table's `projection`.
    fn train_and_predict(projection: Option<Vec<String>>) -> Result<ExecutionReport> {
        let mut p = Program::new();
        let s1 = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let t = p.add_node(
            Operator::TrainMlp {
                label_column: "los".into(),
                hidden: vec![8],
                epochs: 2,
                batch_size: 32,
                learning_rate: 0.1,
            },
            vec![s1],
            "ml",
        );
        let s2 = p.add_source(
            Operator::Scan {
                table: TableRef::new("db1", "admissions"),
                predicate: Predicate::True,
                projection,
            },
            "sql",
        );
        let pred = p.add_node(Operator::Predict, vec![s2, t], "ml");
        p.mark_output(pred);
        run(&exec(), &p, &registry())
    }

    #[test]
    fn train_and_predict_end_to_end() {
        let report = train_and_predict(Some(vec!["pid".into(), "age".into()])).unwrap();
        let out = &report.outputs[0];
        assert_eq!(out.len(), 200);
        let schema = out.schema().unwrap();
        assert_eq!(schema.names(), ["pid", "age", "prediction"]);
        for r in out.try_rows().unwrap().iter().take(5) {
            let pr = r[schema.arity() - 1].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&pr));
        }
    }

    #[test]
    fn scoring_a_table_that_still_holds_the_label_is_a_width_error() {
        assert!(matches!(train_and_predict(None), Err(Error::Invalid(_))));
    }

    /// A scan of `admissions` read by one `TrainMlp` per hidden width,
    /// `los` the label, each an output: the trainings share a stage.
    fn trainings(widths: &[usize]) -> Program {
        let mut p = Program::new();
        let scan = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        for &width in widths {
            let train = Operator::TrainMlp {
                label_column: "los".into(),
                hidden: vec![width],
                epochs: 2,
                batch_size: 32,
                learning_rate: 0.1,
            };
            let t = p.add_node(train, vec![scan], "ml");
            p.mark_output(t);
        }
        p
    }

    #[test]
    fn ml_nodes_sharing_a_stage_are_billed_as_each_is_alone() {
        let r = registry();
        let billed = |p: &Program| {
            let e = exec();
            let report = run(&e, p, &r).unwrap();
            (report, e.ledger().events())
        };
        let twin = trainings(&[8, 4]);
        let both = [NodeId(1), NodeId(2)];
        assert_eq!(twin.execution_stages().unwrap()[1].compute, both);
        let (report, events) = billed(&twin);
        // Past the scan's events, the ledger holds each training's events
        // in node order, each as that training posts them alone, and each
        // training's seconds are the bits it has alone.
        let mut at = 0;
        for (id, width) in both.into_iter().zip([8, 4]) {
            let (alone, alone_events) = billed(&trainings(&[width]));
            let seconds = alone.node_seconds[&NodeId(1)];
            assert!(seconds > 0.0);
            assert_eq!(report.node_seconds[&id].to_bits(), seconds.to_bits());
            let scan = (alone_events.iter())
                .take_while(|e| !e.component.starts_with("mlengine"))
                .count();
            if at == 0 {
                assert_eq!(events[..scan], alone_events[..scan]);
                at = scan;
            }
            let own = &alone_events[scan..];
            assert_eq!(events[at..at + own.len()], *own, "training {id}");
            at += own.len();
        }
        assert_eq!(at, events.len());
    }

    #[test]
    fn a_stage_failing_at_its_second_node_keeps_the_first_nodes_events() {
        // One model scores a projection of `admissions` that leaves the
        // label out and, when `failing`, the whole table too: a width
        // error in the same stage, after the first scoring finished.
        let program = |failing: bool| {
            let mut p = trainings(&[8]);
            let (scan, t) = (NodeId(0), NodeId(1));
            let features = p.add_source(
                Operator::Scan {
                    table: TableRef::new("db1", "admissions"),
                    predicate: Predicate::True,
                    projection: Some(vec!["pid".into(), "age".into()]),
                },
                "sql",
            );
            let scored = p.add_node(Operator::Predict, vec![features, t], "ml");
            p.mark_output(scored);
            if failing {
                let unscorable = p.add_node(Operator::Predict, vec![scan, t], "ml");
                p.mark_output(unscorable);
                let last = p.execution_stages().unwrap().pop().unwrap();
                assert_eq!(last.compute, [scored, unscorable]);
            }
            p
        };
        let r = registry();
        let whole = exec();
        run(&whole, &program(false), &r).unwrap();
        let failed = exec();
        let err = run(&failed, &program(true), &r).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "got {err:?}");
        // The scoring that finished posted its launch and forward GEMMs,
        // and the failed run's ledger keeps them: it is the whole run's.
        let events = whole.ledger().events();
        assert_eq!(events.last().unwrap().component, "mlengine.forward");
        assert_eq!(failed.ledger().len(), events.len());
        assert_eq!(failed.ledger().events(), events);
    }

    #[test]
    fn a_sort_read_by_a_limit_alone_orders_only_what_the_limit_keeps() {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let by_age = Operator::Sort {
            keys: vec![pspp_ir::SortSpec {
                column: "age".into(),
                ascending: false,
            }],
        };
        let sort = p.add_node(by_age.clone(), vec![s], "sql");
        let lim = p.add_node(Operator::Limit { n: 7 }, vec![sort], "sql");
        p.mark_output(lim);
        assert_eq!(Executor::kept_by_limit(&p, sort, &by_age), Some(7));
        assert_eq!(
            Executor::kept_by_limit(&p, lim, &Operator::Limit { n: 7 }),
            None
        );

        // The first seven of the stable sort (ages repeat every 60 rows),
        // from a sort that still counts, and bills, every row.
        let registry = registry();
        let table = registry
            .relational(&EngineId::new("db1"))
            .unwrap()
            .table("admissions")
            .unwrap();
        let sorted = relops::sort_rows(
            table.schema(),
            table.rows(),
            &[pspp_relstore::SortKey::desc("age")],
        )
        .unwrap();
        let report = run(&exec(), &p, &registry).unwrap();
        assert_eq!(report.outputs[0].try_rows().unwrap(), &sorted[..7]);
        let rows_of = |id| report.traces.iter().find(|t| t.id == id).unwrap().rows;
        assert_eq!(rows_of(sort), 200);

        // A second reader, or the sort being an output, needs every row
        // in order.
        let mut shown = p.clone();
        shown.mark_output(sort);
        assert_eq!(Executor::kept_by_limit(&shown, sort, &by_age), None);
        let mut shared = p.clone();
        let again = shared.add_node(Operator::Limit { n: 7 }, vec![sort], "sql");
        shared.mark_output(again);
        assert_eq!(Executor::kept_by_limit(&shared, sort, &by_age), None);
    }

    #[test]
    fn group_by_executes() {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let g = p.add_node(
            Operator::GroupBy {
                keys: vec![],
                aggs: vec![pspp_ir::AggSpec {
                    func: AggFn::Count,
                    column: "*".into(),
                    output: "n".into(),
                }],
            },
            vec![s],
            "sql",
        );
        p.mark_output(g);
        let report = run(&exec(), &p, &registry()).unwrap();
        assert_eq!(report.outputs[0].try_rows().unwrap()[0][0], Value::Int(200));
    }

    #[test]
    fn pipelined_makespan_never_exceeds_sequential() {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::ge("age", 30i64),
            },
            vec![a],
            "sql",
        );
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![pspp_ir::SortSpec {
                    column: "age".into(),
                    ascending: true,
                }],
            },
            vec![f],
            "sql",
        );
        p.mark_output(sort);
        let report = run(&exec().level(OptLevel::L3), &p, &registry()).unwrap();
        assert!(report.makespan_pipelined <= report.makespan_sequential + 1e-12);
        assert!(report.pipelined);
        assert!(report.makespan() <= report.makespan_sequential);
    }

    #[test]
    fn offload_disabled_runs_cpu_only() {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![pspp_ir::SortSpec {
                    column: "age".into(),
                    ascending: true,
                }],
            },
            vec![a],
            "sql",
        );
        p.node_mut(sort).annotations.device = Some(DeviceKind::Fpga);
        p.mark_output(sort);
        let report = run(&exec().level(OptLevel::L1), &p, &registry()).unwrap();
        assert_eq!(report.offloaded, 0);
    }

    /// One scan feeding a filter on each of `columns`: a single stage
    /// with two compute nodes, added in the order given.
    fn two_filters(columns: [&str; 2]) -> (Program, [NodeId; 2]) {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let filters = columns.map(|column| {
            let predicate = Predicate::ge(column, 30i64);
            let f = p.add_node(Operator::Filter { predicate }, vec![s], "sql");
            p.mark_output(f);
            f
        });
        (p, filters)
    }

    #[test]
    fn stage_runs_its_nodes_in_node_id_order() {
        let r = registry();
        let (p, [by_age, by_pid]) = two_filters(["age", "pid"]);
        assert_eq!(
            p.execution_stages().unwrap()[1].compute,
            vec![by_age, by_pid]
        );
        let report = run(&exec(), &p, &r).unwrap();
        assert_eq!(report.outputs.len(), 2);
        let order: Vec<NodeId> = report.traces.iter().map(|t| t.id).skip(1).collect();
        assert_eq!(order, vec![by_age, by_pid], "lower node id first");

        // Two failing nodes in one stage: the first by task order ends
        // the stage with its error, on every run.
        let (p, _) = two_filters(["nope_a", "nope_b"]);
        for _ in 0..4 {
            match run(&exec(), &p, &r) {
                Err(Error::ColumnNotFound(column)) => assert_eq!(column, "nope_a"),
                other => panic!("expected the first filter's error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sharded_scan_gathers_identical_rows_and_cuts_scan_time() {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        p.mark_output(s);
        let flat = registry();
        let base = run(&exec(), &p, &flat).unwrap();

        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::range(
                    "pid",
                    vec![50i64.into(), 100i64.into(), 150i64.into()],
                ),
            )
            .unwrap();
        let report = run(&exec(), &p, &sharded).unwrap();
        assert_eq!(
            report.outputs[0].try_rows().unwrap(),
            base.outputs[0].try_rows().unwrap(),
            "range scatter-gather reproduces the unsharded scan bit-for-bit"
        );
        assert!(
            report.node_seconds[&s] < base.node_seconds[&s],
            "4 parallel shard replicas must beat one ({} vs {})",
            report.node_seconds[&s],
            base.node_seconds[&s]
        );

        // The gather of sized scan partials carries its size.
        assert_eq!(
            known_bytes(&report.outputs[0]),
            Some(walked_bytes(&report.outputs[0]))
        );
    }

    /// The test registry's two tables, as the catalog would publish them.
    fn schemas() -> HashMap<TableRef, Schema> {
        let registry = registry();
        let schema_of = |engine: &str, table: &str| {
            let store = registry.relational(&EngineId::new(engine)).unwrap();
            (
                TableRef::new(engine, table),
                store.table(table).unwrap().schema().clone(),
            )
        };
        HashMap::from([schema_of("db1", "admissions"), schema_of("db2", "patients")])
    }

    /// `SELECT name FROM admissions JOIN db2.patients ON pid = pid WHERE
    /// predicate`, joined at db2 so the admissions rows migrate; returns
    /// (program, admissions scan).
    fn federated_name_query(predicate: Predicate) -> (Program, NodeId) {
        let (mut p, j) = pid_join_program();
        p.node_mut(j).annotations.engine = Some(EngineId::new("db2"));
        let f = p.add_node(Operator::Filter { predicate }, vec![j], "sql");
        let out = p.add_node(
            Operator::Project {
                columns: vec!["name".into()],
            },
            vec![f],
            "sql",
        );
        let mut q = Program::new();
        for node in p.nodes() {
            let id = q.add_node(
                node.op.clone(),
                node.inputs.clone(),
                node.subprogram.clone(),
            );
            q.node_mut(id).annotations = node.annotations.clone();
        }
        q.mark_output(out);
        (q, p.node(j).inputs[0])
    }

    /// Bytes the run's migrations put on the wire.
    fn shipped_bytes(e: &Executor) -> u64 {
        let events = e.ledger().events();
        let transfers = events
            .iter()
            .filter(|ev| ev.component == "migrate.transfer");
        transfers.map(|ev| ev.bytes).sum()
    }

    #[test]
    fn a_federated_join_ships_and_builds_only_the_columns_somebody_reads() {
        let elderly = || Predicate::ge("age", 60i64);
        let (literal, _) = federated_name_query(elderly());
        let (mut pruned, scan) = federated_name_query(elderly());
        let report = pspp_optimizer::optimize_l1(&mut pruned, &schemas());
        assert_eq!(
            report.column_prunings, 2,
            "the join and the admissions scan"
        );
        let demand = pruned.node(scan).annotations.demand.as_ref().unwrap();
        assert_eq!(demand.to_string(), "[pid] of 3 cols");

        let (wide, narrow) = (exec(), exec());
        let want = run(&wide, &literal, &registry()).unwrap();
        let got = run(&narrow, &pruned, &registry()).unwrap();
        let (want, got) = (&want.outputs[0], &got.outputs[0]);
        assert_eq!(got.try_rows().unwrap(), want.try_rows().unwrap());
        assert_eq!(got.schema().unwrap(), want.schema().unwrap());
        assert!(!got.is_empty());
        // 200 full rows of 24 bytes against the filtered rows' `pid`s:
        // the batch the codec staged held exactly `[pid]`.
        let filtered = registry()
            .relational(&EngineId::new("db1"))
            .unwrap()
            .scan("admissions", &Predicate::ge("age", 60i64), None)
            .unwrap();
        assert_eq!(shipped_bytes(&wide), 200 * 24);
        assert_eq!(shipped_bytes(&narrow), filtered.rows.len() as u64 * 8);

        // A second reader of the admissions scan (which keeps the filter
        // above the join, so it is one on the right side's rows): the
        // one migration ships what either reads.
        let (mut shared, scan) = federated_name_query(Predicate::lt("pid_r", 100i64));
        let ages = shared.add_node(
            Operator::Project {
                columns: vec!["age".into()],
            },
            vec![scan],
            "sql",
        );
        shared.mark_output(ages);
        pspp_optimizer::optimize_l1(&mut shared, &schemas());
        let demand = shared.node(scan).annotations.demand.as_ref().unwrap();
        assert_eq!(demand.to_string(), "[pid, age] of 3 cols");
        let both = exec();
        let report = run(&both, &shared, &registry()).unwrap();
        assert_eq!(shipped_bytes(&both), 200 * 16);
        let names: Vec<Row> = (0..100).map(|i| row![format!("p{i}")]).collect();
        assert_eq!(report.outputs[0].try_rows().unwrap(), names);
    }

    #[test]
    fn a_three_way_join_under_a_projection_is_narrowed_to_the_literal_rows() {
        // (admissions ⋈ patients) ⋈ patients is `pid, age, los, pid_r,
        // name, pid_r2, name_r`: every name is one column's, so the
        // demand pass narrows both joins and the migrations feeding them.
        let (mut p, inner) = pid_join_program();
        let again = p.add_source(Operator::scan(TableRef::new("db2", "patients")), "sql");
        let outer = p.add_node(
            Operator::HashJoin {
                left_on: "pid".into(),
                right_on: "pid".into(),
            },
            vec![inner, again],
            "sql",
        );
        let out = p.add_node(
            Operator::Project {
                columns: vec!["name_r".into(), "pid_r2".into()],
            },
            vec![outer],
            "sql",
        );
        let mut literal = Program::new();
        for node in p.nodes() {
            literal.add_node(
                node.op.clone(),
                node.inputs.clone(),
                node.subprogram.clone(),
            );
        }
        literal.mark_output(out);
        let mut optimized = literal.clone();
        let report = pspp_optimizer::optimize_l1(&mut optimized, &schemas());
        assert!(report.column_prunings > 0);
        let demand = optimized.node(outer).annotations.demand.as_ref().unwrap();
        assert_eq!(demand.to_string(), "[pid_r2, name_r] of 7 cols");
        let want = run(&exec(), &literal, &registry()).unwrap();
        let got = run(&exec(), &optimized, &registry()).unwrap();
        assert_eq!(got.outputs[0].len(), 200);
        assert_eq!(
            got.outputs[0].try_rows().unwrap(),
            want.outputs[0].try_rows().unwrap()
        );
        assert_eq!(
            got.outputs[0].schema().unwrap(),
            want.outputs[0].schema().unwrap()
        );
    }

    #[test]
    fn an_empty_side_skips_the_codec_and_still_answers_under_the_literal_schema() {
        // Nobody is 1000: the admissions side is empty, so it is handed
        // to the join as it came — all three columns — while the plan
        // says `[pid]`. The join resolves what it builds by name.
        let nobody = || Predicate::ge("age", 1000i64);
        let (literal, _) = federated_name_query(nobody());
        let (mut pruned, scan) = federated_name_query(nobody());
        pspp_optimizer::optimize_l1(&mut pruned, &schemas());
        assert!(pruned.node(scan).annotations.demand.is_some());
        let e = exec();
        let want = run(&exec(), &literal, &registry()).unwrap();
        let got = run(&e, &pruned, &registry()).unwrap();
        assert!(got.outputs[0].is_empty());
        assert_eq!(
            got.outputs[0].schema().unwrap(),
            want.outputs[0].schema().unwrap()
        );
        assert_eq!(shipped_bytes(&e), 0);
    }

    /// `run_node` asks every output for its byte size, so what an
    /// executed dataset knows proves nothing: ask the operators and the
    /// codec directly, before anyone else has.
    #[test]
    fn sorts_joins_and_decoded_rows_arrive_sized() {
        let registry = registry();
        let (fleet, ledger) = (registry.fleet(), CostLedger::new());
        let ctx = ExecCtx::new(fleet, &ledger, false);
        let run = |op: &Operator, inputs: &[Dataset]| {
            let out = physical::run(op, inputs, None, &registry, &ctx).unwrap();
            assert_eq!(known_bytes(&out), Some(walked_bytes(&out)), "{}", op.name());
            out
        };
        let admissions = run(&Operator::scan(TableRef::new("db1", "admissions")), &[]);
        let patients = run(&Operator::scan(TableRef::new("db2", "patients")), &[]);
        // A sort moves row pointers: its input's size is its own.
        let by_age = Operator::Sort {
            keys: vec![pspp_ir::SortSpec {
                column: "age".into(),
                ascending: false,
            }],
        };
        run(&by_age, std::slice::from_ref(&admissions));
        // Both joins sum the bytes of the rows they build.
        let on = || ("pid".to_string(), "pid".to_string());
        let (left_on, right_on) = on();
        let sides = [admissions.clone(), patients];
        assert_eq!(
            run(&Operator::HashJoin { left_on, right_on }, &sides).len(),
            200
        );
        let (left_on, right_on) = on();
        let joined = run(&Operator::SortMergeJoin { left_on, right_on }, &sides);
        // A limit that keeps every row is its input.
        run(
            &Operator::Limit { n: 200 },
            std::slice::from_ref(&admissions),
        );
        // A filter, a projection and a group-by size what they build,
        // over a scan's selection and over rows alike.
        let elderly = Operator::Filter {
            predicate: Predicate::ge("age", 60i64),
        };
        let two = Operator::Project {
            columns: vec!["age".into(), "pid".into()],
        };
        let by_age = Operator::GroupBy {
            keys: vec!["age".into()],
            aggs: vec![pspp_ir::AggSpec {
                func: AggFn::Avg,
                column: "los".into(),
                output: "m".into(),
            }],
        };
        for input in [admissions.clone(), joined] {
            for op in [&elderly, &two, &by_age] {
                assert!(!run(op, std::slice::from_ref(&input)).is_empty());
            }
        }

        // A migrated input arrives as a selection of every row the codec
        // decoded, its bytes known from the batch's widths. Hash-joined
        // at db2 (the federated join's shape), it is read where it lies:
        // never built, and the join is the one over built rows.
        let placer = Placer::new(CostLedger::new());
        let target = EngineId::new("db2");
        let (mut staged, _) = placer
            .stage_datasets(vec![admissions.clone()], &[], Some(&target), &registry)
            .unwrap();
        let migrated = staged.remove(0);
        assert_eq!(migrated.location, target);
        let buf = migrated.row_buf().unwrap();
        assert!(buf.as_selection().is_some() && buf.is_unbuilt_selection());
        let known = known_bytes(&migrated);
        let patients = &sides[1];
        let (left_on, right_on) = on();
        let join = Operator::HashJoin { left_on, right_on };
        let got = run(&join, &[migrated.clone(), patients.clone()]);
        assert!(
            buf.is_unbuilt_selection(),
            "the join built the migrated rows"
        );
        let built = |d: &Dataset| {
            let rows = d.row_buf().unwrap().as_selection().unwrap().rows();
            Dataset::rows(
                d.schema().unwrap().clone(),
                rows,
                d.model,
                d.location.clone(),
            )
        };
        let want = run(&join, &[built(&migrated), built(patients)]);
        assert_eq!(got.schema().unwrap(), want.schema().unwrap());
        assert_eq!(got.try_rows().unwrap(), want.try_rows().unwrap());
        assert_eq!(got.byte_size(), want.byte_size());
        // Its rows are the source's, and its known bytes the walked ones.
        assert_eq!(migrated.try_rows().unwrap(), admissions.try_rows().unwrap());
        assert_eq!(known, Some(walked_bytes(&migrated)));
    }

    #[test]
    fn a_projection_of_every_column_in_order_is_its_input() {
        let registry = registry();
        let (fleet, ledger) = (registry.fleet(), CostLedger::new());
        let ctx = ExecCtx::new(fleet, &ledger, false);
        let project = |d: &Dataset, columns: &[&str]| {
            let columns = columns.iter().map(|c| c.to_string()).collect();
            let op = Operator::Project { columns };
            let out = physical::run(&op, std::slice::from_ref(d), None, &registry, &ctx).unwrap();
            let (Payload::Rows { rows: a, .. }, Payload::Rows { rows: b, .. }) =
                (&d.payload, &out.payload)
            else {
                panic!("rows in, rows out");
            };
            (a.ptr_eq(b), out)
        };
        let schema = Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]);
        let rows = vec![row![1i64, 10i64], row![2i64, 20i64]];
        let d = Dataset::rows(
            schema,
            rows,
            pspp_common::DataModel::Relational,
            EngineId::new("db1"),
        );
        assert!(project(&d, &["k", "v"]).0);
        assert!(!project(&d, &["v", "k"]).0);
        assert!(!project(&d, &["k"]).0);
        // Two columns answering to one name: the second `k_r` is not
        // what a projection naming `k_r` twice returns.
        let chained = Schema::new(vec![
            ("k", DataType::Int),
            ("k_r", DataType::Int),
            ("k_r", DataType::Int),
        ]);
        let rows = vec![row![1i64, 2i64, 3i64]];
        let d = Dataset::rows(
            chained,
            rows,
            pspp_common::DataModel::Relational,
            EngineId::new("db1"),
        );
        let (same, out) = project(&d, &["k", "k_r", "k_r"]);
        assert!(!same);
        assert_eq!(out.try_rows().unwrap(), [row![1i64, 2i64, 2i64]]);
    }

    #[test]
    fn hash_sharded_join_preserves_results() {
        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::hash("pid", 2),
            )
            .unwrap();
        sharded
            .reshard(
                &TableRef::new("db2", "patients"),
                pspp_common::PartitionSpec::hash("pid", 2),
            )
            .unwrap();
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "patients")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "pid".into(),
                right_on: "pid".into(),
            },
            vec![a, b],
            "sql",
        );
        p.node_mut(j).annotations.engine = Some(EngineId::new("db1"));
        p.mark_output(j);
        let report = run(&exec(), &p, &sharded).unwrap();
        assert_eq!(report.outputs[0].len(), 200, "every pid still joins");
        assert!(report.migration_seconds > 0.0);
    }

    /// A dataset's payload bytes, walked row by row.
    fn walked_bytes(d: &Dataset) -> u64 {
        let rows = d.try_rows().unwrap();
        rows.iter().map(|r| r.byte_size() as u64).sum()
    }

    /// The payload bytes a dataset knows without walking its rows.
    fn known_bytes(d: &Dataset) -> Option<u64> {
        match &d.payload {
            Payload::Rows { rows, .. } => rows.known_byte_size(),
            Payload::Model(_) => None,
        }
    }

    /// Rows in a canonical order, for set-equality checks against
    /// deployments whose gather order legitimately differs (hash
    /// partitions interleave the insert order even when gathered).
    fn sorted_rows(d: &Dataset) -> Vec<pspp_common::Row> {
        let mut rows = d.try_rows().unwrap().to_vec();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    /// The pid-joined program both colocation tests execute.
    fn pid_join_program() -> (Program, pspp_ir::NodeId) {
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "patients")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "pid".into(),
                right_on: "pid".into(),
            },
            vec![a, b],
            "sql",
        );
        p.mark_output(j);
        (p, j)
    }

    #[test]
    fn colocated_join_is_bit_identical_to_gathered_and_faster() {
        let mut sharded = registry();
        for (engine, table) in [("db1", "admissions"), ("db2", "patients")] {
            sharded
                .reshard(
                    &TableRef::new(engine, table),
                    pspp_common::PartitionSpec::hash("pid", 4),
                )
                .unwrap();
        }
        let (p, j) = pid_join_program();

        let flat = run(&exec(), &p, &registry()).unwrap();
        let colocated = run(&exec(), &p, &sharded).unwrap();
        let gathered = run_with(&exec(), &p, &sharded, PlanOptions::gathered()).unwrap();

        assert_eq!(
            colocated.outputs[0].try_rows().unwrap(),
            gathered.outputs[0].try_rows().unwrap(),
            "colocated and gathered plans must agree bit-for-bit"
        );
        assert_eq!(
            sorted_rows(&colocated.outputs[0]),
            sorted_rows(&flat.outputs[0]),
            "colocated join must reproduce the unsharded row set"
        );
        assert!(
            colocated.node_seconds[&j] < gathered.node_seconds[&j],
            "4 per-shard build+probe tasks must beat one gathered join ({} vs {})",
            colocated.node_seconds[&j],
            gathered.node_seconds[&j]
        );
        // Per-shard migration accounting: every shard task staged its
        // foreign patients partial.
        assert!(colocated.migration_seconds > 0.0);
    }

    /// The mismatched-layout registry both shuffle tests use:
    /// admissions hashed on pid, patients hashed on *name*.
    fn mismatched_registry(shards: u32) -> EngineRegistry {
        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::hash("pid", shards),
            )
            .unwrap();
        sharded
            .reshard(
                &TableRef::new("db2", "patients"),
                pspp_common::PartitionSpec::hash("name", shards),
            )
            .unwrap();
        sharded
    }

    #[test]
    fn mismatched_partition_keys_shuffle_and_match_the_gathered_bytes() {
        // admissions hashed on pid, patients hashed on *name*: no
        // colocation — the plan re-hashes both sides to the join key's
        // layout and the per-shard join must reproduce the gathered
        // plan byte-for-byte.
        let (p, j) = pid_join_program();
        for shards in [2u32, 4] {
            let sharded = mismatched_registry(shards);
            let plan = Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default())
                .unwrap();
            assert!(!plan.node(j).colocated);
            assert!(plan.node(j).shuffles(), "mismatched keys must shuffle");
            assert_eq!(plan.node(j).scatter_width(), shards as usize);
            let shuffled = run(&exec(), &p, &sharded).unwrap();
            let gathered = run_with(&exec(), &p, &sharded, no_exchange()).unwrap();
            let flat = run(&exec(), &p, &registry()).unwrap();
            assert_eq!(
                shuffled.outputs[0].try_rows().unwrap(),
                gathered.outputs[0].try_rows().unwrap(),
                "shuffled and gathered joins must agree bit-for-bit at {shards} shards"
            );
            assert_eq!(
                sorted_rows(&shuffled.outputs[0]),
                sorted_rows(&flat.outputs[0]),
                "shuffled join must reproduce the unsharded row set"
            );
            assert!(
                shuffled.node_seconds[&j] < gathered.node_seconds[&j],
                "{shards} per-shard build+probe tasks must beat one gathered join ({} vs {})",
                shuffled.node_seconds[&j],
                gathered.node_seconds[&j]
            );
            // The gathered-baseline plan really gathers.
            let base_plan =
                Placer::plan_distribution(&mut p.clone(), &sharded, no_exchange()).unwrap();
            assert!(!base_plan.node(j).shuffles());
            assert_eq!(base_plan.node(j).gathered_input_count(), 2);

            // The spliced output's carried size is the walked one.
            assert_eq!(
                known_bytes(&shuffled.outputs[0]),
                Some(walked_bytes(&shuffled.outputs[0]))
            );
        }
    }

    /// A shuffled join and a gathered sort over two shards' scans read
    /// the scans' selections through the exchange: every routed bucket
    /// and the gathered input are selections nobody has built, before
    /// and after their tasks run, and the buckets' rows, bytes and
    /// origins, the join's probe counts and both nodes' outputs are what
    /// the same scans' built rows give.
    #[test]
    fn routed_and_gathered_scans_stay_unbuilt_selections() {
        let sharded = mismatched_registry(2);
        let e = exec();
        let unbuilt = |d: &Dataset| d.row_buf().unwrap().is_unbuilt_selection();
        let rows_of = |d: &Dataset| match d.row_buf().unwrap().as_selection() {
            Some(selection) => selection.rows(),
            None => d.try_rows().unwrap().to_vec(),
        };
        // Each task run twice: over its inputs as handed, and over the
        // same rows built.
        let run_both = |p: &Program, tasks: Vec<Task>, built: Vec<Task>| {
            let held: Vec<Dataset> = tasks.iter().flat_map(|t| t.inputs.clone()).collect();
            assert!(!held.is_empty() && held.iter().all(unbuilt));
            let runs: Vec<NodeRun> = tasks
                .into_iter()
                .map(|t| e.run_node(p, t, &sharded).unwrap())
                .collect();
            let built: Vec<NodeRun> = built
                .into_iter()
                .map(|t| e.run_node(p, t, &sharded).unwrap())
                .collect();
            assert!(held.iter().all(unbuilt), "a task built its input's rows");
            for (run, want) in runs.iter().zip(&built) {
                assert_eq!(rows_of(&run.output), rows_of(&want.output));
                assert_eq!(run.output.byte_size(), want.output.byte_size());
                let counts = |r: &NodeRun| match &r.reported {
                    Reported::MatchCounts(counts) => Some(counts.clone()),
                    _ => None,
                };
                assert_eq!(counts(run), counts(want));
            }
            (runs, built)
        };
        let parts = |d: &Dataset| d.row_buf().unwrap().as_selection().unwrap().part_count();

        // The join: both scans routed where they run, into two buckets.
        let (p, j) = pid_join_program();
        let plan =
            Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default()).unwrap();
        assert!(plan.node(j).shuffles());
        let (mut routed, mut from_rows) = (HashMap::new(), HashMap::new());
        for scan in p.node(j).inputs.clone() {
            let (tasks, merge) = e
                .node_tasks(&p, scan, &plan, &sharded, &mut routed)
                .unwrap();
            let Merge::Route(width) = merge else {
                panic!("scan {scan} of a shuffled join merges by routing, not by {merge:?}");
            };
            let runs: Vec<NodeRun> = tasks
                .into_iter()
                .map(|t| e.run_node(&p, t, &sharded).unwrap())
                .collect();
            assert!(runs.iter().all(|run| unbuilt(&run.output)));
            let built_runs = runs.iter().map(|run| NodeRun {
                id: run.id,
                output: run.output.clone().built(),
                reported: match &run.reported {
                    Reported::Routes(routes) => Reported::Routes(routes.clone()),
                    _ => panic!("a routed scan reports its routes"),
                },
                acc: Accounts::default(),
            });
            let built_runs: Vec<NodeRun> = built_runs.collect();
            let merged = |runs| e.merge(&p, scan, Merge::Route(width), runs, &sharded);
            routed.insert(scan, merged(runs).unwrap().1);
            from_rows.insert(scan, merged(built_runs).unwrap().1);
        }
        let (tasks, merge) = e.node_tasks(&p, j, &plan, &sharded, &mut routed).unwrap();
        let (want_tasks, want_merge) = e
            .node_tasks(&p, j, &plan, &sharded, &mut from_rows)
            .unwrap();
        let (Merge::Splice(barrier), Merge::Splice(want)) = (merge, want_merge) else {
            panic!("a shuffled join merges by splicing");
        };
        assert_eq!(barrier.probe_origins, want.probe_origins);
        assert_eq!(
            (barrier.routed_rows, barrier.bytes),
            (want.routed_rows, want.bytes)
        );
        for (task, want) in tasks.iter().zip(&want_tasks) {
            // `admissions` is hashed on the join key already, so each of
            // its buckets holds one shard's rows; `patients` is hashed on
            // `name`, so each of its buckets mixes both shards'.
            assert_eq!(task.inputs.iter().map(parts).collect::<Vec<_>>(), [1, 2]);
            for (bucket, rows) in task.inputs.iter().zip(&want.inputs) {
                assert_eq!(rows_of(bucket), rows_of(rows));
                assert_eq!(known_bytes(bucket), Some(walked_bytes(rows)));
            }
        }
        let (runs, built) = run_both(&p, tasks, want_tasks);
        let spliced = |runs, barrier| exec().splice_shuffle(j, runs, barrier).unwrap();
        let (got, want) = (spliced(runs, &barrier), spliced(built, &want));
        assert_eq!(
            got.output.try_rows().unwrap(),
            want.output.try_rows().unwrap()
        );
        let whole = run(&e, &p, &sharded).unwrap();
        assert_eq!(
            whole.outputs[0].try_rows().unwrap(),
            got.output.try_rows().unwrap()
        );

        // The sort: the two shards' scans gathered into one selection.
        let mut p = Program::new();
        let scan = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let keys = vec![
            pspp_ir::SortSpec {
                column: "age".into(),
                ascending: false,
            },
            pspp_ir::SortSpec {
                column: "pid".into(),
                ascending: true,
            },
        ];
        let sort = p.add_node(Operator::Sort { keys }, vec![scan], "sql");
        p.mark_output(sort);
        let plan =
            Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default()).unwrap();
        let mut outputs = HashMap::new();
        e.run_stage(&p, &[scan], &plan, &sharded, &mut outputs)
            .unwrap();
        let (tasks, _) = e
            .node_tasks(&p, sort, &plan, &sharded, &mut outputs)
            .unwrap();
        assert_eq!(parts(&tasks[0].inputs[0]), 2);
        let want_tasks = (tasks.iter())
            .map(|task| Task {
                inputs: task.inputs.iter().map(|d| d.clone().built()).collect(),
                role: task.role.clone(),
                ..*task
            })
            .collect();
        let (runs, _) = run_both(&p, tasks, want_tasks);
        let whole = run(&e, &p, &sharded).unwrap();
        assert_eq!(
            rows_of(&runs[0].output),
            whole.outputs[0].try_rows().unwrap()
        );
    }

    #[test]
    fn int_and_float_keys_that_compare_equal_colocate() {
        // `los` holds whole numbers as `Float`s, `pid` is an `Int`:
        // hashed on either, equal keys share a shard, so the join on
        // them colocates and still finds every match.
        let mut sharded = registry();
        for (engine, table, column) in [("db1", "admissions", "los"), ("db2", "patients", "pid")] {
            sharded
                .reshard(
                    &TableRef::new(engine, table),
                    pspp_common::PartitionSpec::hash(column, 2),
                )
                .unwrap();
        }
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let b = p.add_source(Operator::scan(TableRef::new("db2", "patients")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "los".into(),
                right_on: "pid".into(),
            },
            vec![a, b],
            "sql",
        );
        p.mark_output(j);
        let plan =
            Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default()).unwrap();
        assert!(plan.node(j).colocated);
        let colocated = run(&exec(), &p, &sharded).unwrap();
        let gathered = run_with(&exec(), &p, &sharded, PlanOptions::gathered()).unwrap();
        assert_eq!(gathered.outputs[0].len(), 200, "every los is some pid");
        assert_eq!(
            colocated.outputs[0].try_rows().unwrap(),
            gathered.outputs[0].try_rows().unwrap()
        );
    }

    #[test]
    fn shuffle_charges_exchange_rows_as_migration() {
        let (p, _) = pid_join_program();
        let sharded = mismatched_registry(2);
        let e = exec();
        let report = run(&e, &p, &sharded).unwrap();
        let events = e.ledger().events();
        let shuffle_events: Vec<_> = events
            .iter()
            .filter(|ev| ev.component == "exchange.shuffle")
            .collect();
        assert_eq!(shuffle_events.len(), 1, "one barrier per shuffled node");
        assert!(shuffle_events[0].bytes > 0);
        assert!(shuffle_events[0].duration.as_secs() > 0.0);
        assert!(report.migration_seconds >= shuffle_events[0].duration.as_secs());
    }

    #[test]
    fn materialized_repartitions_serve_the_second_run_byte_identically() {
        let (p, j) = pid_join_program();
        let sharded = mismatched_registry(2);
        let e = exec();

        let first = run_with(&e, &p, &sharded, materializing()).unwrap();
        let stats = sharded.repartitions().stats();
        assert!(
            stats.stores >= 1,
            "first run persists the routed layout: {stats:?}"
        );
        assert!(
            e.ledger()
                .events()
                .iter()
                .any(|ev| ev.component == "exchange.materialize"),
            "persisting the layout charges its one-time copy"
        );

        // The second plan consults the copies and serves both edges.
        let plan = Placer::plan_distribution(&mut p.clone(), &sharded, materializing()).unwrap();
        assert!(plan.node(j).is_copy_served(0) && plan.node(j).is_copy_served(1));
        let counts = plan.exchange_counts();
        assert_eq!((counts.materialized, counts.shuffles), (2, 0));

        let second = run_with(&e, &p, &sharded, materializing()).unwrap();
        assert!(sharded.repartitions().stats().hits >= 2);
        assert_eq!(
            first.outputs[0].try_rows().unwrap(),
            second.outputs[0].try_rows().unwrap(),
            "served and routed runs must agree bit-for-bit"
        );
        let off = run(&exec(), &p, &sharded).unwrap();
        assert_eq!(
            second.outputs[0].try_rows().unwrap(),
            off.outputs[0].try_rows().unwrap(),
            "materialize on/off must agree bit-for-bit"
        );

        // The served run moved nothing over the wire: its traces show
        // only "materialized" exchange rows, and the barrier charge is
        // amortized to (near) zero.
        let kind_rows = |r: &ExecutionReport, kind: &str| -> usize {
            r.traces
                .iter()
                .flat_map(|t| t.exchanges.iter())
                .filter(|x| x.kind == kind)
                .map(|x| x.rows)
                .sum()
        };
        assert_eq!(kind_rows(&second, "shuffle"), 0, "no rows routed");
        assert!(kind_rows(&second, "materialized") > 0);
        assert!(
            second.migration_seconds < first.migration_seconds,
            "served exchange must be cheaper ({} vs {})",
            second.migration_seconds,
            first.migration_seconds
        );
    }

    #[test]
    fn epoch_bump_invalidates_materialized_copies() {
        let (p, _) = pid_join_program();
        let sharded = mismatched_registry(2);
        let e = exec();
        let first = run_with(&e, &p, &sharded, materializing()).unwrap();
        assert!(sharded.repartitions().stats().stores >= 1);

        // Any engine-state mutation bumps the epoch; stored layouts
        // must not serve across it.
        sharded.bump_epoch();
        let third = run_with(&e, &p, &sharded, materializing()).unwrap();
        let routed: usize = third
            .traces
            .iter()
            .flat_map(|t| t.exchanges.iter())
            .filter(|x| x.kind == "shuffle")
            .map(|x| x.rows)
            .sum();
        assert!(routed > 0, "stale copies must not serve the exchange");
        assert!(sharded.repartitions().stats().invalidations >= 1);
        assert_eq!(
            first.outputs[0].try_rows().unwrap(),
            third.outputs[0].try_rows().unwrap()
        );
    }

    #[test]
    fn partition_wise_group_by_matches_the_gathered_plan() {
        use pspp_ir::AggSpec;
        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::hash("pid", 4),
            )
            .unwrap();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let g = p.add_node(
            Operator::GroupBy {
                // pid is the partition key: partition-wise execution.
                keys: vec!["pid".into()],
                aggs: vec![
                    AggSpec {
                        func: AggFn::Count,
                        column: "*".into(),
                        output: "n".into(),
                    },
                    AggSpec {
                        func: AggFn::Avg,
                        column: "los".into(),
                        output: "mean_los".into(),
                    },
                ],
            },
            vec![s],
            "sql",
        );
        p.mark_output(g);
        let plan =
            Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default()).unwrap();
        assert!(
            plan.node(g).colocated,
            "group keys contain the partition key"
        );
        assert_eq!(plan.node(g).scatter_width(), 4);
        let partitioned = run(&exec(), &p, &sharded).unwrap();
        // Partition-wise grouping is a colocation feature: the gathered
        // baseline needs colocation off, `exchange: false` alone keeps it.
        let still_partitioned = run_with(&exec(), &p, &sharded, no_exchange()).unwrap();
        let gathered = run_with(&exec(), &p, &sharded, PlanOptions::gathered()).unwrap();
        assert_eq!(
            partitioned.outputs[0].try_rows().unwrap(),
            still_partitioned.outputs[0].try_rows().unwrap()
        );
        assert_eq!(
            partitioned.outputs[0].try_rows().unwrap(),
            gathered.outputs[0].try_rows().unwrap(),
            "partition-wise aggregation must match the gathered plan bit-for-bit"
        );
        assert!(partitioned.node_seconds[&g] < gathered.node_seconds[&g]);
    }

    #[test]
    fn partial_aggregate_merge_matches_the_gathered_plan() {
        use pspp_ir::AggSpec;
        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::hash("pid", 4),
            )
            .unwrap();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let g = p.add_node(
            Operator::GroupBy {
                // age is NOT the partition key: partial + merge. All
                // aggregated columns are integers, so partial sums are
                // exact and the merge is byte-identical.
                keys: vec!["age".into()],
                aggs: vec![
                    AggSpec {
                        func: AggFn::Count,
                        column: "*".into(),
                        output: "n".into(),
                    },
                    AggSpec {
                        func: AggFn::Sum,
                        column: "pid".into(),
                        output: "pid_sum".into(),
                    },
                    AggSpec {
                        func: AggFn::Avg,
                        column: "pid".into(),
                        output: "pid_avg".into(),
                    },
                    AggSpec {
                        func: AggFn::Min,
                        column: "pid".into(),
                        output: "pid_min".into(),
                    },
                    AggSpec {
                        func: AggFn::Max,
                        column: "pid".into(),
                        output: "pid_max".into(),
                    },
                ],
            },
            vec![s],
            "sql",
        );
        p.mark_output(g);
        let plan =
            Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default()).unwrap();
        assert!(plan.node(g).merges_partials());
        assert_eq!(plan.node(g).scatter_width(), 4);
        let merged = run(&exec(), &p, &sharded).unwrap();
        let gathered = run_with(&exec(), &p, &sharded, no_exchange()).unwrap();
        assert_eq!(
            merged.outputs[0].try_rows().unwrap(),
            gathered.outputs[0].try_rows().unwrap(),
            "partial+merge aggregation must match the gathered plan bit-for-bit"
        );
        assert!(
            merged.node_seconds[&g] < gathered.node_seconds[&g],
            "4 partial tasks must beat one gathered aggregation ({} vs {})",
            merged.node_seconds[&g],
            gathered.node_seconds[&g]
        );
    }

    #[test]
    fn float_sums_demote_the_merge_to_stay_bit_identical() {
        use pspp_ir::AggSpec;
        // Summing a Float column per shard and merging would
        // re-associate the addition; the executor must fall back to
        // the gathered aggregation so exchange == gathered holds even
        // for floats.
        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::hash("pid", 4),
            )
            .unwrap();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let g = p.add_node(
            Operator::GroupBy {
                keys: vec!["age".into()],
                aggs: vec![AggSpec {
                    func: AggFn::Avg,
                    column: "los".into(), // Float column
                    output: "mean_los".into(),
                }],
            },
            vec![s],
            "sql",
        );
        p.mark_output(g);
        // The plan still chooses merge-partials (no type info at plan
        // time)…
        let plan =
            Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default()).unwrap();
        assert!(plan.node(g).merges_partials());
        // …but execution demotes, and bytes match the gathered plan
        // and the flat deployment exactly.
        let merged = run(&exec(), &p, &sharded).unwrap();
        let gathered = run_with(&exec(), &p, &sharded, no_exchange()).unwrap();
        assert_eq!(
            merged.outputs[0].try_rows().unwrap(),
            gathered.outputs[0].try_rows().unwrap(),
            "float aggregation must stay bit-identical to the gathered plan"
        );
        assert!(merged.outputs[0]
            .try_rows()
            .unwrap()
            .iter()
            .any(|r| matches!(r[1], Value::Float(_))));
    }

    #[test]
    fn replicated_build_side_broadcasts_into_a_colocated_join() {
        // Satellite regression: a replicated table is colocatable with
        // any hashed partner — the broadcast join builds each shard
        // task against the full copy.
        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::hash("pid", 4),
            )
            .unwrap();
        sharded
            .reshard(
                &TableRef::new("db2", "patients"),
                pspp_common::PartitionSpec::replicated(2),
            )
            .unwrap();
        let (p, j) = pid_join_program();
        let plan =
            Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default()).unwrap();
        assert!(plan.node(j).colocated, "broadcast join must colocate");
        assert_eq!(plan.node(j).scatter.len(), 4);

        let flat = run(&exec(), &p, &registry()).unwrap();
        let broadcast = run(&exec(), &p, &sharded).unwrap();
        let gathered = run_with(&exec(), &p, &sharded, PlanOptions::gathered()).unwrap();
        assert_eq!(
            broadcast.outputs[0].try_rows().unwrap(),
            gathered.outputs[0].try_rows().unwrap(),
            "broadcast and gathered plans must agree bit-for-bit"
        );
        assert_eq!(
            sorted_rows(&broadcast.outputs[0]),
            sorted_rows(&flat.outputs[0]),
            "broadcast join must reproduce the unsharded row set"
        );
        assert!(broadcast.node_seconds[&j] < gathered.node_seconds[&j]);
    }

    #[test]
    fn filter_between_scan_and_join_executes_per_shard() {
        // An explicit (unfused) filter preserves its input's
        // distribution, so the join downstream still colocates and the
        // filter itself fans out per shard.
        let mut sharded = registry();
        for (engine, table) in [("db1", "admissions"), ("db2", "patients")] {
            sharded
                .reshard(
                    &TableRef::new(engine, table),
                    pspp_common::PartitionSpec::hash("pid", 2),
                )
                .unwrap();
        }
        let mut p = Program::new();
        let a = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::ge("age", 30i64),
            },
            vec![a],
            "sql",
        );
        let b = p.add_source(Operator::scan(TableRef::new("db2", "patients")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "pid".into(),
                right_on: "pid".into(),
            },
            vec![f, b],
            "sql",
        );
        p.mark_output(j);
        let plan =
            Placer::plan_distribution(&mut p.clone(), &sharded, PlanOptions::default()).unwrap();
        assert!(plan.node(f).colocated, "filter rides the shard layout");
        assert!(plan.node(j).colocated);
        let report = run(&exec(), &p, &sharded).unwrap();
        let gathered = run_with(&exec(), &p, &sharded, PlanOptions::gathered()).unwrap();
        let flat = run(&exec(), &p, &registry()).unwrap();
        assert_eq!(
            report.outputs[0].try_rows().unwrap(),
            gathered.outputs[0].try_rows().unwrap(),
            "per-shard filter + colocated join == gathered plan bit-for-bit"
        );
        assert_eq!(
            sorted_rows(&report.outputs[0]),
            sorted_rows(&flat.outputs[0])
        );
    }

    #[test]
    fn annotated_scan_of_partitioned_table_still_reads_every_shard() {
        // Regression: an optimizer annotation diverting a scan node to
        // another engine must not narrow the read to shard 0 of the
        // table's home (which holds only a fraction of the rows).
        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::hash("pid", 4),
            )
            .unwrap();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        p.node_mut(s).annotations.engine = Some(EngineId::new("db2"));
        p.mark_output(s);
        let report = run(&exec(), &p, &sharded).unwrap();
        assert_eq!(report.outputs[0].len(), 200, "rows silently dropped");
    }

    #[test]
    fn replicated_table_reads_one_replica() {
        let mut sharded = registry();
        sharded
            .reshard(
                &TableRef::new("db1", "admissions"),
                pspp_common::PartitionSpec::replicated(3),
            )
            .unwrap();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        p.mark_output(s);
        let report = run(&exec(), &p, &sharded).unwrap();
        assert_eq!(report.outputs[0].len(), 200, "no duplicate rows gathered");
    }

    /// A hand-built task run of `id` over one `Int` column — a merge
    /// path's input without a stage behind it.
    fn run_of(id: NodeId, keys: &[i64], probe_counts: Option<Vec<usize>>) -> NodeRun {
        NodeRun {
            id,
            output: Dataset::rows(
                Schema::new(vec![("k", DataType::Int)]),
                keys.iter().map(|&k| row![k]).collect(),
                pspp_common::DataModel::Relational,
                EngineId::new("db1"),
            ),
            reported: probe_counts.map_or(Reported::Nothing, Reported::MatchCounts),
            acc: Accounts::default(),
        }
    }

    /// A free barrier over the given per-destination probe origins.
    fn barrier_of(probe_origins: Vec<Vec<usize>>) -> ShuffleBarrier {
        ShuffleBarrier {
            probe_origins,
            ..ShuffleBarrier::default()
        }
    }

    fn execution_error<T: std::fmt::Debug>(result: Result<T>) -> String {
        match result {
            Err(Error::Execution(msg)) => msg,
            other => panic!("expected an execution error, got {other:?}"),
        }
    }

    #[test]
    fn merge_paths_turn_an_empty_task_group_into_a_typed_error() {
        let id = NodeId(7);
        assert!(execution_error(Executor::gather_runs(id, Vec::new())).contains("n7"));
        let barrier = barrier_of(vec![Vec::new()]);
        assert!(execution_error(exec().splice_shuffle(id, Vec::new(), &barrier)).contains("n7"));
        assert!(execution_error(Executor::route_runs(id, Vec::new(), 2)).contains("n7"));
        // A routed producer's task that reported no routes is typed too.
        let silent = vec![run_of(id, &[1], None)];
        assert!(execution_error(Executor::route_runs(id, silent, 2)).contains("no routes"));

        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let g = p.add_node(
            Operator::GroupBy {
                keys: vec!["age".into()],
                aggs: Vec::new(),
            },
            vec![s],
            "sql",
        );
        let msg = execution_error(exec().merge_partial_runs(&p, g, Vec::new(), &registry()));
        assert!(msg.contains(&g.to_string()), "got {msg}");
    }

    #[test]
    fn a_task_whose_input_never_ran_is_a_typed_error() {
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let lim = p.add_node(Operator::Limit { n: 5 }, vec![s], "sql");
        let plan =
            Placer::plan_distribution(&mut p.clone(), &registry(), PlanOptions::default()).unwrap();
        // No outputs at all: the limit's input is unknown.
        let got = exec().node_tasks(&p, lim, &plan, &registry(), &mut HashMap::new());
        let msg = execution_error(got);
        assert!(msg.contains(&lim.to_string()), "got {msg}");
    }

    /// Every (exchange kind, producer output) pair through the task
    /// boundary's dispatch, for a node of two tasks over three rows: a
    /// pair the plan produces hands each task its shard, its bucket or
    /// the whole copy; any other pair is a typed error, never a panic.
    #[test]
    fn every_exchange_reads_every_held_output_or_fails_typed() {
        let registry = registry();
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "admissions")), "sql");
        let on = || "k".to_string();
        let join = Operator::HashJoin {
            left_on: on(),
            right_on: on(),
        };
        let j = p.add_node(join, vec![s, s], "sql");
        let rows = |keys: &[i64]| run_of(s, keys, None).output;
        let held = || {
            let whole = rows(&[1, 2, 3]);
            let routes =
                Routes::of_rows(whole.schema().unwrap(), whole.try_rows().unwrap(), "k", 2);
            let mut split = Routed::new(&whole, 2).unwrap();
            split
                .push(whole.row_buf().unwrap().clone(), &routes.unwrap())
                .unwrap();
            [
                NodeOutput::Gathered(whole.clone()),
                NodeOutput::Partials {
                    shards: vec![rows(&[1]), rows(&[2, 3])],
                    gathered: whole,
                },
                NodeOutput::Routed(split),
            ]
        };
        let kinds = [
            ExchangeKind::Local,
            ExchangeKind::Gather,
            ExchangeKind::Broadcast,
            ExchangeKind::ShuffleHash {
                key: on(),
                width: 2,
            },
            ExchangeKind::MergePartials,
        ];
        for kind in &kinds {
            for output in held() {
                // Rows over both tasks: split three, copied six, or an
                // error. No `_` arm, so a new kind or variant must say.
                let want = match (kind, &output) {
                    (
                        ExchangeKind::Local | ExchangeKind::MergePartials,
                        NodeOutput::Partials { .. },
                    )
                    | (
                        ExchangeKind::ShuffleHash { .. },
                        NodeOutput::Gathered(_)
                        | NodeOutput::Partials { .. }
                        | NodeOutput::Routed(_),
                    ) => Some(3),
                    (
                        ExchangeKind::Local | ExchangeKind::Gather | ExchangeKind::Broadcast,
                        NodeOutput::Gathered(_),
                    )
                    | (
                        ExchangeKind::Gather | ExchangeKind::Broadcast,
                        NodeOutput::Partials { .. },
                    ) => Some(6),
                    (ExchangeKind::MergePartials, NodeOutput::Gathered(_))
                    | (
                        ExchangeKind::Local
                        | ExchangeKind::Gather
                        | ExchangeKind::Broadcast
                        | ExchangeKind::MergePartials,
                        NodeOutput::Routed(_),
                    ) => None,
                };
                let was_routed = matches!(output, NodeOutput::Routed(_));
                let mut outputs = HashMap::from([(s, output)]);
                let edge = Edge {
                    id: j,
                    idx: 0,
                    input: s,
                    kind,
                    served: false,
                    materialize: false,
                    tasks: 2,
                };
                let mut barrier = ShuffleBarrier::default();
                let got = exec().edge_inputs(&p, &registry, edge, &mut outputs, &mut barrier);
                let Some(want) = want else {
                    let msg = execution_error(got);
                    assert!(msg.contains(&kind.to_string()), "{kind}: {msg}");
                    continue;
                };
                let inputs = got.unwrap_or_else(|e| panic!("{kind}: {e}"));
                assert_eq!(inputs.len(), 2, "{kind}");
                assert_eq!(
                    inputs.iter().map(Dataset::len).sum::<usize>(),
                    want,
                    "{kind}"
                );
                // A shuffle takes a routed producer's rows; every other
                // reader leaves the output where it was.
                let shuffled = matches!(kind, ExchangeKind::ShuffleHash { .. });
                assert_eq!(outputs.contains_key(&s), !(shuffled && was_routed));
            }
        }

        // Partials or buckets other than one per task are typed too.
        for kind in [&kinds[0], &kinds[3]] {
            let [_, partials, _] = held();
            let mut outputs = HashMap::from([(s, partials)]);
            let edge = Edge {
                id: j,
                idx: 0,
                input: s,
                kind,
                served: false,
                materialize: false,
                tasks: 3,
            };
            let got =
                exec().edge_inputs(&p, &registry, edge, &mut outputs, &mut Default::default());
            execution_error(got);
        }
    }

    #[test]
    fn splice_takes_chunk_sizes_from_the_tasks_and_rejects_a_short_count_vector() {
        let id = NodeId(3);
        // Probe rows 0 and 2 went to destination 0, row 1 to
        // destination 1; row 0 matched twice, row 1 once, row 2 never.
        let barrier = barrier_of(vec![vec![0, 2], vec![1]]);
        let group = |counts0: Vec<usize>| {
            vec![
                run_of(id, &[10, 11], Some(counts0)),
                run_of(id, &[20], Some(vec![1])),
            ]
        };
        let spliced = exec()
            .splice_shuffle(id, group(vec![2, 0]), &barrier)
            .unwrap();
        assert_eq!(
            spliced.output.try_rows().unwrap(),
            [row![10i64], row![11i64], row![20i64]]
        );
        assert_eq!(spliced.output.byte_size(), walked_bytes(&spliced.output));

        // One count for two probe rows: `zip` would stop early and the
        // offsets would still add up (2 of 2 rows), so the length is
        // checked first and the error names the node and destination.
        let msg = execution_error(exec().splice_shuffle(id, group(vec![2]), &barrier));
        assert!(
            msg.contains("n3") && msg.contains("destination 0"),
            "got {msg}"
        );
        // More runs than the barrier routed to is the same error.
        let mut extra = group(vec![2, 0]);
        extra.push(run_of(id, &[], Some(vec![0])));
        let msg = execution_error(exec().splice_shuffle(id, extra, &barrier));
        assert!(msg.contains("destination 2"), "got {msg}");
        // A task whose join reported nothing is typed too.
        let mut silent = group(vec![2, 0]);
        silent[1].reported = Reported::Nothing;
        let msg = execution_error(exec().splice_shuffle(id, silent, &barrier));
        assert!(msg.contains("no match counts"), "got {msg}");
    }

    /// The nested-loop inner join on column 0 — NULL keys match
    /// nothing — with each left row's match count: the reference the
    /// shuffle oracle holds the hash join, its counts and the splice to.
    fn reference_join(left: &[Row], right: &[Row]) -> (Vec<Row>, Vec<usize>) {
        let mut out = Vec::new();
        let counts = left
            .iter()
            .map(|l| {
                let before = out.len();
                for r in right {
                    if !l[0].is_null() && l[0] == r[0] {
                        out.push(l.concat(r));
                    }
                }
                out.len() - before
            })
            .collect();
        (out, counts)
    }

    /// One side of the oracle's join: `(key, payload length)` pairs
    /// become `(k Int, s Str)` rows; key −1 is NULL, the others are
    /// shifted by `offset` so each side holds keys the other lacks.
    fn oracle_side(pairs: &[(i64, usize)], offset: i64) -> Dataset {
        let rows = pairs
            .iter()
            .map(|&(k, n)| {
                let key = if k < 0 {
                    Value::Null
                } else {
                    Value::Int(k + offset)
                };
                Row::from(vec![key, Value::from("p".repeat(n))])
            })
            .collect();
        Dataset::rows(
            Schema::new(vec![("k", DataType::Int), ("s", DataType::Str)]),
            rows,
            pspp_common::DataModel::Relational,
            EngineId::new("db1"),
        )
    }

    /// `d` split over `width` destinations on its column `k`, as a
    /// shuffle splits a gathered input: the buckets and their origins.
    fn split(d: &Dataset, width: u32) -> (Vec<Dataset>, Vec<Vec<usize>>) {
        let rows = d.try_rows().unwrap();
        let routes = Routes::of_rows(d.schema().unwrap(), rows, "k", width).unwrap();
        let mut split = Routed::new(d, width as usize).unwrap();
        split.push(d.row_buf().unwrap().clone(), &routes).unwrap();
        let (buckets, dests) = split.into_buckets();
        let origins = crate::dataset::origins(&buckets, &dests);
        (buckets, origins)
    }

    proptest::proptest! {
        /// The shuffle oracle: route both sides of a join into 1–4
        /// destinations by the stable FNV rule, join each destination
        /// with the counted join, splice — and get the gathered join,
        /// row for row, with every size carried instead of walked.
        #[test]
        fn shuffle_splice_matches_the_gathered_join_and_carries_sizes(
            left in proptest::prop::collection::vec((-1i64..8, 0usize..6), 0..40),
            right in proptest::prop::collection::vec((-1i64..8, 0usize..6), 0..40),
            width in 1u32..5,
        ) {
            use proptest::prop_assert_eq;
            let (l, r) = (oracle_side(&left, 0), oracle_side(&right, 3));
            let (ls, lrows) = (l.schema().unwrap(), l.try_rows().unwrap());
            let (rs, rrows) = (r.schema().unwrap(), r.try_rows().unwrap());
            let (expect, expect_counts) = reference_join(lrows, rrows);
            let kind = pspp_relstore::JoinKind::Inner;

            // The gathered join and its counts against the reference.
            let (_, gathered, counts) =
                relops::hash_join_counted(ls, lrows, rs, rrows, "k", "k", kind).unwrap();
            prop_assert_eq!(&gathered, &expect);
            prop_assert_eq!(&counts, &expect_counts);
            prop_assert_eq!(counts.iter().sum::<usize>(), gathered.len());

            // Route, join per destination, splice.
            let target = pspp_common::Distribution::repartition("k", width);
            let (lb, origins) = split(&l, width);
            let (rb, _) = split(&r, width);
            prop_assert_eq!(lb.len(), width as usize);
            if width > 1 {
                prop_assert_eq!(&origins, &target.route_indices(ls, lrows).unwrap());
            }
            let id = NodeId(2);
            let mut group = Vec::new();
            for (d, (lk, rk)) in lb.iter().zip(&rb).enumerate() {
                prop_assert_eq!(lk.byte_size(), walked_bytes(lk));
                prop_assert_eq!(rk.byte_size(), walked_bytes(rk));
                let (schema, rows, counts) = relops::hash_join_counted(
                    ls, lk.try_rows().unwrap(), rs, rk.try_rows().unwrap(), "k", "k", kind,
                )
                .unwrap();
                // Each count is that probe row's matches on the
                // gathered build side: a key's rows all route together.
                for (&origin, &n) in origins[d].iter().zip(&counts) {
                    prop_assert_eq!(n, expect_counts[origin]);
                }
                prop_assert_eq!(counts.iter().sum::<usize>(), rows.len());
                let mut run = run_of(id, &[], Some(counts));
                run.output = Dataset::rows(schema, rows, l.model, l.location.clone());
                group.push(run);
            }
            let spliced = exec().splice_shuffle(id, group, &barrier_of(origins)).unwrap();
            prop_assert_eq!(spliced.output.try_rows().unwrap(), &expect[..]);
            prop_assert_eq!(spliced.output.byte_size(), walked_bytes(&spliced.output));

            // A gather of the sized buckets knows its size too.
            let partials = lb.into_iter().map(|bucket| {
                let mut run = run_of(id, &[], None);
                run.output = bucket;
                run
            });
            let regathered = Executor::gather_runs(id, partials.collect()).unwrap().output;
            prop_assert_eq!(regathered.len(), lrows.len());
            prop_assert_eq!(known_bytes(&regathered), Some(walked_bytes(&l)));
        }
    }
}
