//! Polystore++: the accelerated polystore facade (Fig. 4).
//!
//! [`Polystore`] ties the whole stack together: the EIDE-style builder
//! configures engines, the accelerator fleet and the optimization level;
//! [`Polystore::compile_sql`] / [`Polystore::compile`] /
//! [`Polystore::compile_nlq`] parse heterogeneous programs into the IR;
//! [`Polystore::optimize`] runs L1 rewrites and cost-based placement;
//! [`Polystore::execute`] runs the plan across engines, accelerators and
//! the data migrator, returning results plus the simulated cost report.
//!
//! [`datagen`] builds the synthetic deployments used by the examples,
//! tests and benchmarks: a MIMIC-III-shaped clinical deployment (Fig. 2)
//! and an enterprise recommendation deployment (Fig. 1).
//!
//! # Examples
//!
//! ```
//! use pspp_core::prelude::*;
//!
//! # fn main() -> pspp_common::Result<()> {
//! let deployment = datagen::clinical(&ClinicalConfig { patients: 50, ..Default::default() });
//! let system = Polystore::from_deployment(deployment)
//!     .accelerators(AcceleratorFleet::workstation())
//!     .opt_level(OptLevel::L3)
//!     .build()?;
//! let report = system.run_sql("SELECT pid, age FROM admissions WHERE age >= 65")?;
//! assert!(report.execution.outputs[0].len() > 0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod datagen;
pub mod system;

pub use datagen::{ClinicalConfig, Deployment, RecommendationConfig};
pub use system::{Polystore, PolystoreBuilder, RunReport};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::datagen::{self, ClinicalConfig, Deployment, RecommendationConfig};
    pub use crate::system::{Polystore, PolystoreBuilder, RunReport};
    pub use pspp_accel::{AcceleratorFleet, CostLedger, DeviceKind, DeviceProfile, KernelClass};
    pub use pspp_common::{PartitionSpec, ShardId, TableRef};
    pub use pspp_frontend::{Catalog, HeterogeneousProgram, Language};
    pub use pspp_ir::{FusedChain, Operator, PlanOptions, Program, SortSpec};
    pub use pspp_migrate::{MigrationPath, Migrator};
    pub use pspp_optimizer::{OptLevel, TableStats};
    pub use pspp_runtime::{
        output_digest, Dataset, EngineInstance, EngineRegistry, Executor, ShardedRegistry,
    };
}
