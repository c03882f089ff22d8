//! polybench: a two-clock benchmark for polystorepp.
//!
//! The wall clock is measured so that it repeats: every timed unit is a
//! fixed piece of work, repeated pass-major over the whole run, and its
//! cost is the lower quartile of its repeats (its *quiet cost*). The
//! simulated clock — the paper's cost models — is recorded beside it and
//! must repeat bit for bit. See `README.md` for the metrics, the
//! workloads and the noise rules.

#![warn(missing_docs)]

pub mod compare;
pub mod direct;
pub mod json;
pub mod metrics;
pub mod oplist;
pub mod pin;
pub mod probes;
pub mod procstat;
pub mod run;
pub mod served;
pub mod stats;
pub mod trace;
pub mod workload;
