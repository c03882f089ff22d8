//! The Polystore++ query service: the serving layer that mediates many
//! concurrent clients over one shared polystore deployment.
//!
//! The library crates below this one ([`pspp_core`] and friends) are a
//! single-request stack: compile, optimize, execute, return. Real
//! polystore deployments (BigDAWG, and the business-analytics setting
//! of the Polystore++ paper) are *services*: many sessions issue
//! queries against shared engine state, repeat queries should not pay
//! the frontend and optimizer again, and an overloaded system must
//! queue or shed work instead of collapsing. This crate adds that
//! layer:
//!
//! - [`QueryService`] owns an `Arc`-shared [`pspp_core::Polystore`]
//!   and a bounded worker pool; [`Session`]s submit [`Query`]s through
//!   the admission controller and wait for [`QueryResponse`]s.
//! - [`SessionCore`] scales session count past the worker pool: a
//!   deterministic event loop holds 10k–1M parked sessions as state
//!   machines (Parked → Queued → Running → Done) on the simulated
//!   clock, with weighted fair queueing across tenants over the
//!   bounded submission queue.
//! - Both tiers serve a query down **one path**, written once (the
//!   private `serve` module): build the key, ask the plan cache, plan
//!   on a miss, ask the result cache, execute on a miss, memoize, bill
//!   the lookup or the work. The tiers differ in what surrounds it
//!   (threads and tickets; events and tenants) and in the physical
//!   layer a miss falls through to — the service compiles and executes
//!   directly, the session core behind its global `(plan digest,
//!   epoch)` compile and execution memos — so the same query sequence
//!   costs the same simulated seconds in either.
//! - [`PlanCache`] memoizes compiled + optimized plans keyed by
//!   (dialect, query text, engine-state epoch); every plan is built at
//!   the system's one optimization level, and cache hits skip the
//!   frontend and optimizer entirely.
//!   [`ResultCache`] memoizes whole executions keyed by `(plan digest,
//!   engine-state epoch)`; hits bypass the executor and are billed at
//!   lookup cost. Every engine mutation bumps the epoch, so stale hits
//!   are structurally impossible. Both are thin wrappers over **one
//!   LRU** at one fixed capacity (256 entries — a constant, nobody
//!   ever set another); the result cache adds an epoch watermark.
//! - The result cache is switched where the tier is built —
//!   [`ServiceConfig::result_cache`],
//!   [`SessionCoreConfig::result_cache`], default off — and nowhere
//!   else: `pspp_core` does not know it exists.
//! - [`AdmissionConfig`] bounds concurrency and queue depth, with a
//!   [`AdmissionPolicy`] of blocking backpressure or load shedding;
//!   rejections carry a deterministic retry-after hint derived from
//!   queue depth and the observed mean service time — one rule, which
//!   the session core's back-off reads too.
//! - Per-session statistics (latency histogram, cache hit rate,
//!   rejection counts) merge into a [`ServiceReport`].
//!
//! Following the repo-wide methodology (real data plane, simulated
//! clock), per-query *latency* is simulated time — planning cost plus
//! execution makespan — so every reported number is deterministic and
//! bit-reproducible at any concurrency level, while execution itself
//! runs on real worker threads against the real engines.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pspp_core::prelude::*;
//! use pspp_service::{Query, QueryService, ServiceConfig};
//!
//! # fn main() -> pspp_common::Result<()> {
//! let system = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
//!     patients: 40,
//!     ..Default::default()
//! }))
//! .build()?;
//! let service = QueryService::new(Arc::new(system), ServiceConfig::default())?;
//! let session = service.open_session();
//! let sql = "SELECT pid FROM admissions WHERE age >= 65";
//! let cold = session.execute(&Query::sql(sql))?;
//! let warm = session.execute(&Query::sql(sql))?;
//! assert!(!cold.cache_hit && warm.cache_hit);
//! assert!(warm.service_seconds < cold.service_seconds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// ROADMAP item 5: no panicking shortcut outside tests. The lock idiom
// below recovers a poisoned guard instead of unwrapping it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod admission;
pub mod cache;
mod serve;
pub mod service;
pub mod sessions;
pub mod stats;

pub use admission::{AdmissionConfig, AdmissionPolicy, AdmissionStats, Ticket, WorkerPool};
pub use cache::{
    CacheStats, CachedPlan, CachedResult, Dialect, PlanCache, PlanKey, ResultCache,
    ResultCacheStats, ResultKey,
};
pub use service::{Query, QueryResponse, QueryService, ServiceConfig, Session};
pub use sessions::{
    ReshardEvent, SessionCore, SessionCoreConfig, SessionCoreReport, SessionScript, SessionState,
    SessionStep, TenantReport,
};
pub use stats::{ServiceReport, SessionReport};

/// Locks `mutex`, recovering the guard if a holder panicked: every
/// value this crate keeps under a mutex (counters, cache maps, session
/// lists) is valid after each single update, so a poisoned lock still
/// guards usable data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
