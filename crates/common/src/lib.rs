//! Common data model and utilities shared by every Polystore++ crate.
//!
//! A polystore federates engines with *different* data models (relational,
//! timeseries, graph, text, tensor — §II-A of the paper). This crate
//! defines the lowest common denominator those engines exchange:
//! dynamically typed [`Value`]s, [`Schema`]s, row-major [`Row`]s and
//! column-major [`Batch`]es, plus the [`DataModel`]/[`EngineKind`] tags
//! the middleware uses to reason about placement and migration.
//!
//! # Examples
//!
//! ```
//! use pspp_common::{Schema, DataType, Row, Value, Batch};
//!
//! let schema = Schema::new(vec![
//!     ("pid", DataType::Int),
//!     ("name", DataType::Str),
//! ]);
//! let rows = vec![
//!     Row::from(vec![Value::Int(1), Value::from("ada")]),
//!     Row::from(vec![Value::Int(2), Value::from("grace")]),
//! ];
//! let batch = Batch::from_rows(&schema, rows.clone()).unwrap();
//! assert_eq!(batch.num_rows(), 2);
//! assert_eq!(batch.to_rows(), rows);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod device;
pub mod digest;
pub mod distribution;
pub mod error;
pub mod hash;
pub mod ids;
pub mod model;
pub mod partition;
pub mod predicate;
pub mod repartition;
pub mod rng;
pub mod row;
pub mod schema;
pub mod value;

pub use batch::{Batch, Column, KeyIndex, StrColumn, TypedColumn};
pub use device::DeviceKind;
pub use digest::OutputDigest;
pub use distribution::{Distribution, JoinDistribution};
pub use error::{Error, Result};
pub use hash::{FxBuildHasher, FxHasher};
pub use ids::{EngineId, TableRef};
pub use model::{DataModel, EngineKind};
pub use partition::{
    hash_grow_moved_fraction, HashLayout, HashRouter, PartitionSpec, Routes, ShardId,
};
pub use predicate::{BoundPredicate, ColumnSource, Predicate};
pub use repartition::{CopyKey, MaterializedRepartitions, RepartitionStats};
pub use rng::SplitMix64;
pub use row::{row_major, Row};
pub use schema::{Field, Schema, SchemaLookup};
pub use value::{DataType, Value, ValueRef};

/// Number of bytes in one mebibyte; used across cost models and reports.
pub const MIB: u64 = 1 << 20;

/// Number of bytes in one gibibyte; used across cost models and reports.
pub const GIB: u64 = 1 << 30;
