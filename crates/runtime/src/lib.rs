//! The Polystore++ middleware runtime (§III, §IV-D).
//!
//! * [`Dataset`] — data flowing between operators: rows plus their data
//!   model and current engine location. [`output_digest`] is what a
//!   run's outputs returned, whatever engine or layout produced them.
//! * [`ShardedRegistry`] — the deployed engine instances (Fig. 4's
//!   server pools), each an ordered list of shard replicas; partitioned
//!   tables carry a [`pspp_common::PartitionSpec`] routing scans to
//!   their shards ([`EngineRegistry`] remains the single-shard alias).
//! * [`physical`] — the physical execution layer: the
//!   [`EngineAdapter`] boundary (one adapter per engine kind plus the
//!   ML adapter), the [`Placer`] (target-engine resolution and
//!   cross-engine migration accounting) and the
//!   [`physical::Charger`] (simulated cost attribution).
//! * [`Executor`] — the orchestration loop: walks an annotated IR
//!   program in topological stages, scatters each stage into (node,
//!   shard) tasks run in task order on the calling thread, gathers
//!   shard partials in shard order, dispatches every operator through
//!   the adapter registry, and accounts the simulated makespan both
//!   sequentially and pipelined (§IV-D: "the whole workload execution
//!   can be perceived as a pipeline of the stages' execution"). Shards
//!   run in parallel on the simulated clock (a node costs its slowest
//!   shard task); concurrent queries, one per thread, are the query
//!   service's business. A per-stage hand-off to other threads cost
//!   more wall time than these sub-millisecond tasks take.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dataset;
pub mod executor;
pub mod physical;
pub mod registry;

pub use dataset::{output_digest, Dataset, Payload, RowBuf};
pub use executor::{ExecutionReport, Executor};
pub use physical::{AdapterRegistry, Charger, EngineAdapter, ExecCtx, Placer};
pub use registry::{EngineInstance, EngineRegistry, RebalanceReport, ShardedRegistry};
