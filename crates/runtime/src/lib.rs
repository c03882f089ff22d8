//! The Polystore++ middleware runtime (§III, §IV-D).
//!
//! * [`Dataset`] — data flowing between operators: rows plus their data
//!   model and current engine location. [`output_digest`] is what a
//!   run's outputs returned, whatever engine or layout produced them.
//! * [`ShardedRegistry`] — the deployed engine instances (Fig. 4's
//!   server pools), each an ordered list of shard replicas; partitioned
//!   tables carry a [`pspp_common::PartitionSpec`] routing scans to
//!   their shards ([`EngineRegistry`] remains the single-shard alias).
//! * [`physical`] — the physical execution layer: [`physical::run`]
//!   (one exhaustive `match` from each IR operator to the engine
//!   adapter function that executes it) and the [`Placer`]
//!   (target-engine resolution and cross-engine migration accounting).
//! * [`Executor`] — the orchestration loop: walks an annotated IR
//!   program in topological stages, scatters each stage into (node,
//!   shard) tasks run in task order on the calling thread, gathers
//!   shard partials in shard order, runs every operator through
//!   [`physical::run`], bills it from the price list, and accounts the
//!   simulated makespan both sequentially and pipelined (§IV-D: "the
//!   whole workload execution can be perceived as a pipeline of the
//!   stages' execution"). Shards
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
pub use physical::{ExecCtx, Placer};
pub use registry::{EngineInstance, EngineRegistry, RebalanceReport, ShardedRegistry};
