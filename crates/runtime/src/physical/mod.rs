//! The physical execution layer: engines and accelerators as
//! interchangeable execution substrates behind one interface (§IV).
//!
//! The layer splits operator execution into three orthogonal concerns,
//! each owned by one component:
//!
//! * [`EngineAdapter`] — *how* an operator runs. One adapter per engine
//!   kind (relational, key/value, timeseries, graph, array, text,
//!   stream) plus [`adapters::MlAdapter`] for the ML patterns; the
//!   [`AdapterRegistry`] dispatches each IR operator to the first
//!   adapter claiming it. Adding a backend is "implement one trait" —
//!   the executor never names a concrete engine.
//! * [`Placer`] — *where* an operator runs. Resolves the target engine
//!   (optimizer annotation → source table → data gravity) and stages
//!   the node's inputs there, invoking the data migrator once per
//!   foreign input and accounting the migration cost.
//! * [`Charger`] — *what* an operator costs. Posts the price list's
//!   bill for it ([`pspp_optimizer::price`], the formulas the planner
//!   estimated with) and its energy to the run's [`CostLedger`].
//!
//! All three are `Sync`-clean. One executor runs a query's tasks one
//! after another on its caller's thread, giving each task a private
//! scoped ledger and merging events back in node order, so outputs,
//! makespans and the executor's ledger repeat exactly; the query
//! service runs many such queries at once, one per worker thread, over
//! shared adapters and a shared registry.

pub mod adapter;
pub mod adapters;
pub mod charger;
pub mod placer;

pub use adapter::{AdapterRegistry, EngineAdapter};
pub use charger::Charger;
pub use placer::Placer;

use std::sync::OnceLock;

use pspp_accel::{AcceleratorFleet, CostLedger, DeviceProfile, KernelClass};
use pspp_common::{Routes, ShardId};
use pspp_ir::ColumnDemand;

/// Everything an adapter may consult while running one operator: the
/// accelerator fleet, the (task-scoped) cost ledger, whether device
/// offload is enabled for this run, which shard replica the task
/// addresses, which of the node's output columns its consumers read,
/// for a shuffled-join bucket where to leave the join's per-probe-row
/// match counts, for a task whose rows a shuffle reads next where to
/// leave each row's destination, and for a sort read only by a limit
/// how many rows the limit keeps.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    fleet: &'a AcceleratorFleet,
    ledger: &'a CostLedger,
    offload: bool,
    shard: ShardId,
    probe_counts: Option<&'a OnceLock<Vec<usize>>>,
    demand: Option<&'a ColumnDemand>,
    route: Option<RouteRequest<'a>>,
    ordered_prefix: Option<usize>,
}

/// A shuffle's request to the task producing its input: hash-route the
/// output rows on `key` over `width` destinations and leave the answer
/// in `routes`. An operator that cannot answer leaves it empty, and the
/// executor routes the rows the operator returned.
#[derive(Debug, Clone, Copy)]
pub struct RouteRequest<'a> {
    /// The output column whose value routes each row.
    pub key: &'a str,
    /// Number of destinations.
    pub width: u32,
    /// Where the answer goes: each output row's destination, in output
    /// order, and each destination's bytes.
    pub routes: &'a OnceLock<Routes>,
}

impl<'a> ExecCtx<'a> {
    /// A context over `fleet`, posting to `ledger`, addressing shard 0.
    pub fn new(fleet: &'a AcceleratorFleet, ledger: &'a CostLedger, offload: bool) -> Self {
        ExecCtx {
            fleet,
            ledger,
            offload,
            shard: ShardId::ZERO,
            probe_counts: None,
            demand: None,
            route: None,
            ordered_prefix: None,
        }
    }

    /// This context redirected at one shard replica — the executor
    /// builds one per scatter-gather task.
    pub fn at_shard(mut self, shard: ShardId) -> Self {
        self.shard = shard;
        self
    }

    /// The shard replica source operators should read from.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// This context asking the hash join it runs to leave in `slot`
    /// how many output rows each probe row produced — the executor
    /// builds one per shuffled-join bucket, whose barrier splices by
    /// those counts.
    pub fn counting_probe_matches(mut self, slot: &'a OnceLock<Vec<usize>>) -> Self {
        self.probe_counts = Some(slot);
        self
    }

    /// Where a hash join leaves its per-probe-row match counts, when
    /// the task's barrier needs them.
    pub fn probe_counts(&self) -> Option<&'a OnceLock<Vec<usize>>> {
        self.probe_counts
    }

    /// This context asking the operator it runs to route its output
    /// for a shuffle — the executor builds one per task of a node whose
    /// only reader is that shuffle ([`pspp_ir::NodeShard::routed`]).
    pub fn routing(mut self, request: RouteRequest<'a>) -> Self {
        self.route = Some(request);
        self
    }

    /// The shuffle's routing request, when a shuffle reads this task's
    /// output next.
    pub fn route(&self) -> Option<RouteRequest<'a>> {
        self.route
    }

    /// This context for a sort whose one reader is a `Limit n` and
    /// which is no program output: only its first `n` rows need be in
    /// order. It still returns every row, so its length, bytes and bill
    /// are the full sort's.
    pub fn ordering_only(mut self, n: usize) -> Self {
        self.ordered_prefix = Some(n);
        self
    }

    /// How many leading rows a sort must order, when not all of them.
    pub fn ordered_prefix(&self) -> Option<usize> {
        self.ordered_prefix
    }

    /// This context for a node whose consumers read only `demand` of
    /// its output (the plan's [`pspp_ir::Annotations::demand`]; `None`
    /// is every column). A join builds those columns and no others.
    pub fn demanding(mut self, demand: Option<&'a ColumnDemand>) -> Self {
        self.demand = demand;
        self
    }

    /// The output columns the node's consumers read, named as its full
    /// output schema names them; `None` is every column.
    pub fn demand(&self) -> Option<&'a [String]> {
        self.demand.map(|d| &d.columns[..])
    }

    /// The accelerator fleet.
    pub fn fleet(&self) -> &'a AcceleratorFleet {
        self.fleet
    }

    /// The ledger this node's costs post to.
    pub fn ledger(&self) -> &'a CostLedger {
        self.ledger
    }

    /// Whether device annotations are honored (L2+).
    pub fn offload(&self) -> bool {
        self.offload
    }

    /// The device profile ML kernels train/score on: the fleet's best
    /// matrix engine under offload, otherwise the host.
    pub fn training_profile(&self) -> &'a DeviceProfile {
        if self.offload {
            self.fleet
                .best_device(KernelClass::Gemm)
                .unwrap_or_else(|| self.fleet.host())
        } else {
            self.fleet.host()
        }
    }
}
