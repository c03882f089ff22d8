//! Deterministic observability for the polystore: metrics, span trees,
//! `EXPLAIN ANALYZE`, and a Prometheus text exporter.
//!
//! Everything in this crate is keyed to the *simulated* clock maintained by
//! [`pspp_accel`]'s cost ledger, not wall time. That buys an unusual
//! property for an observability stack: traces and metric snapshots are
//! byte-reproducible — the same query on the same data produces the same
//! span tree and the same export on any machine at any parallelism, so tests
//! can assert on them exactly and observation can never perturb a digest.
//!
//! The layers:
//!
//! - [`metrics`] — a shared [`MetricsRegistry`] with
//!   counter/gauge/histogram handles; all storage is integer so
//!   concurrent updates commute.
//! - [`trace`] — the raw [`NodeTrace`] records the
//!   executor emits, one per plan node in merge order.
//! - [`span`] — [`SpanTree`] folds traces into a per-query
//!   tree with critical-path marking; renders as text or JSON.
//! - [`explain`] — [`explain_analyze`] joins the
//!   optimizer's planned costs against executed traces;
//!   [`explain_plan`] renders the plan alone.
//! - [`prom`] — Prometheus text exposition renderer plus a minimal parser
//!   for round-trip tests.
//! - [`json`] — the JSON document model the exporters share: insertion
//!   ordered and deterministic, so renders are byte-stable and diffable.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod explain;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod span;
pub mod trace;

pub use explain::{explain_analyze, explain_plan, JoinSite, PlannedCosts};
pub use json::Json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramData, MetricEntry, MetricKind, MetricValue,
    MetricsRegistry, MetricsSnapshot,
};
pub use prom::PromSample;
pub use span::{Span, SpanKind, SpanTree};
pub use trace::{ExchangeTrace, NodeTrace, TaskTrace};
