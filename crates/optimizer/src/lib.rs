//! The Polystore++ optimizer (§IV-B.3, §IV-C).
//!
//! Three layers, matching Fig. 6, over one price list:
//!
//! * **L1 rewrites** ([`rewrite`]) — semantic, engine-agnostic IR
//!   transformations: predicate/projection pushdown into scans, filter
//!   fusion, join-algorithm selection.
//! * **Cost model + placement** ([`cost`]) — cardinality estimation,
//!   per-(operator, device) simulated-cost prediction, migration-cost
//!   estimation, and a greedy HEFT-style placement pass that assigns
//!   every node an engine and a device.
//! * **The price list** ([`price`]) — the formulas behind every
//!   simulated second, evaluated by the cost model on estimates and by
//!   the runtime on actual counts.
//! * **Design-space exploration** ([`dse`]) — the §IV-C black-box
//!   multi-objective optimizer: categorical/ordinal design spaces,
//!   random search, and **active learning** with a random-forest
//!   surrogate ([`forest`]) that iteratively samples near the predicted
//!   Pareto front (Fig. 8), plus Pareto/hypervolume utilities.
//!
//! # Examples
//!
//! ```
//! use pspp_optimizer::dse::{DesignSpace, Param};
//!
//! let space = DesignSpace::new(vec![
//!     Param::categorical("device", &["cpu", "gpu", "fpga"]),
//!     Param::ordinal("batch", &[8.0, 16.0, 32.0, 64.0]),
//! ]);
//! assert_eq!(space.size(), 12);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod dse;
pub mod forest;
pub mod price;
pub mod rewrite;

pub use cost::{CostModel, PlacementPlan, TableStats};
pub use dse::{ActiveLearner, DesignSpace, Objectives, Param, ParetoFront, Point, RandomSearch};
pub use forest::{RandomForest, RegressionTree};
pub use rewrite::{optimize_l1, OptLevel, RewriteReport};
