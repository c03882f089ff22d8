//! The compiler frontend: parses heterogeneous programs into the IR.
//!
//! The paper's EIDE (§III, §IV-A) lets applications mix programming
//! paradigms — SQL for relational work, Cypher for graphs, Python-ish ML
//! pipelines — and the compiler frontend "faces the task of constructing
//! a compute graph from a variety of sub-programs" (§IV-B.2). This crate
//! provides:
//!
//! * [`sql`] — a mini-SQL parser (SELECT/JOIN/WHERE/GROUP BY/ORDER
//!   BY/LIMIT) lowering to relational IR operators;
//! * [`cypher`] — a Cypher-like `MATCH` parser lowering to
//!   [`pspp_ir::Operator::GraphMatch`];
//! * [`mldsl`] — a small ML pipeline DSL (`TRAIN MLP ...`, `KMEANS ...`)
//!   lowering to the ML operators of Figs. 2–3 and 7;
//! * [`tsdsl`] — a timeseries DSL (`WINDOW ... WIDTH ... AGG ...`);
//! * [`nlq`] — template-based natural-language queries (§IV-A.e);
//! * [`hetero`] — the [`HeterogeneousProgram`] builder that stitches
//!   subprograms into one [`pspp_ir::Program`], wiring cross-language
//!   dataset references into cross-subprogram edges (Fig. 5);
//! * [`catalog`] — the deployment catalog (table → engine + schema) used
//!   for name resolution and schema inference.
//!
//! # Examples
//!
//! ```
//! use pspp_frontend::{Catalog, sql};
//! use pspp_common::{Schema, DataType, TableRef};
//!
//! # fn main() -> pspp_common::Result<()> {
//! let mut catalog = Catalog::new();
//! catalog.register(
//!     TableRef::new("db1", "admissions"),
//!     Schema::new(vec![("pid", DataType::Int), ("age", DataType::Int)]),
//! );
//! let program = sql::parse_to_program(
//!     "SELECT pid FROM admissions WHERE age > 64", &catalog)?;
//! assert_eq!(program.nodes().len(), 3); // scan, filter, project
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod cypher;
pub mod hetero;
pub mod lexer;
pub mod mldsl;
pub mod nlq;
pub mod sql;
pub mod tsdsl;

pub use catalog::Catalog;
pub use hetero::{HeterogeneousProgram, Language, SubprogramSpec};
