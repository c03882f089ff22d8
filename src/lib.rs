//! Polystore++ — an accelerated polystore system for heterogeneous
//! workloads.
//!
//! This is the umbrella crate of the workspace: it re-exports the public
//! facade ([`pspp_core`]) plus every substrate crate, so downstream users
//! can depend on a single package. See the README for a tour and the
//! `examples/` directory for runnable end-to-end scenarios.
//!
//! # Quickstart
//!
//! ```
//! use polystorepp::prelude::*;
//!
//! # fn main() -> pspp_common::Result<()> {
//! let deployment = datagen::clinical(&ClinicalConfig { patients: 30, ..Default::default() });
//! let system = Polystore::from_deployment(deployment)
//!     .accelerators(AcceleratorFleet::workstation())
//!     .opt_level(OptLevel::L3)
//!     .build()?;
//! let report = system.run_sql("SELECT pid FROM admissions WHERE age >= 65")?;
//! println!("{} rows in {:.3} simulated ms",
//!          report.execution.outputs[0].len(), report.makespan() * 1e3);
//! # Ok(())
//! # }
//! ```

pub use pspp_accel as accel;
pub use pspp_common as common;
pub use pspp_core as core;
pub use pspp_frontend as frontend;
pub use pspp_graphstore as graphstore;
pub use pspp_ir as ir;
pub use pspp_migrate as migrate;
pub use pspp_mlengine as mlengine;
pub use pspp_optimizer as optimizer;
pub use pspp_relstore as relstore;
pub use pspp_runtime as runtime;
pub use pspp_service as service;
pub use pspp_telemetry as telemetry;
pub use pspp_textstore as textstore;
pub use pspp_tsstore as tsstore;

/// One-stop imports for applications.
pub mod prelude {
    pub use pspp_common::{
        row, Batch, DataModel, DataType, DeviceKind, EngineId, EngineKind, Error, Predicate,
        Result, Row, Schema, TableRef, Value,
    };
    pub use pspp_core::prelude::*;
    pub use pspp_service::{
        AdmissionConfig, AdmissionPolicy, Query, QueryService, ServiceConfig, Session,
    };
}
