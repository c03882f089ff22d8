//! The distribution property: how a plan node's output rows are spread
//! across shard replicas, and when two distributions are compatible
//! enough to join without gathering.
//!
//! [`PartitionSpec`] describes how a *stored table* is laid out;
//! [`Distribution`] is the planning-time property that layout induces
//! on every operator's output as it propagates through a program
//! (BigDAWG's islands meet exchange-free planning: a join whose inputs
//! are compatibly partitioned on the join keys executes per shard —
//! *colocated* — instead of gathering both sides to one replica).
//!
//! The property forms a small lattice, ordered by how much layout
//! knowledge the planner retains:
//!
//! ```text
//!        Hashed(k) x N      Ranged(k) x N     (partitioned: one task/shard)
//!               \                /
//!                Replicated x N                (full copy on every shard)
//!                       |
//!                    Single                    (one site; the gather result)
//! ```
//!
//! Filters preserve the property, projections preserve it only while
//! the partition key survives, and every other operator degrades its
//! output to [`Distribution::Single`] via an explicit exchange — a
//! gather, or a [`Distribution::repartition`] shuffle that re-hashes
//! rows to a new key's layout so the consumer can stay per-shard.
//!
//! Width-1 layouts carry no useful placement knowledge (all rows on one
//! shard), so [`Distribution::normalize`] folds them into
//! [`Distribution::Single`]; every planning entry point applies it,
//! which is the single rule deciding when "partitioned" means
//! "multi-shard".

use std::fmt;

use crate::partition::{HashRouter, PartitionSpec, RoutingRule, ShardId};
use crate::{Result, Row, Schema, Value};

/// How one plan node's output rows are distributed across shard
/// replicas.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Distribution {
    /// All rows live at one site (unsharded data, or the result of an
    /// explicit gather).
    #[default]
    Single,
    /// Every shard holds a full copy of the rows; any one replica can
    /// serve a read, and any shard of a partitioned partner can join
    /// against its local copy (broadcast).
    Replicated {
        /// Number of shard replicas holding a copy.
        shards: u32,
    },
    /// Rows are hash-partitioned on `column` across `shards` shards
    /// (the layout a [`PartitionSpec::Hash`] table induces).
    Hashed {
        /// Partition key column.
        column: String,
        /// Number of shard replicas.
        shards: u32,
    },
    /// Rows are range-partitioned on `column` by the given ascending
    /// split points (the layout a [`PartitionSpec::Range`] table
    /// induces). Two ranged distributions are compatible only when
    /// their boundaries are identical.
    Ranged {
        /// Partition key column.
        column: String,
        /// Ascending split points (`boundaries.len() + 1` shards).
        boundaries: Vec<Value>,
    },
}

/// The outcome of planning a join over two distributed inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinDistribution {
    /// The inputs' shard layouts align on the join keys: the join
    /// executes as one task per shard (build + probe on that shard's
    /// rows) and its output keeps `output` as its distribution.
    Colocated {
        /// Distribution of the colocated join's output.
        output: Distribution,
    },
    /// The layouts do not align; the planner must insert an explicit
    /// gather of the partitioned inputs before the join runs at one
    /// site.
    Gather,
}

impl Distribution {
    /// The distribution a stored table's partition spec induces on a
    /// full scan of that table.
    pub fn from_spec(spec: &PartitionSpec) -> Self {
        match spec {
            PartitionSpec::Hash { column, shards } => Distribution::Hashed {
                column: column.clone(),
                shards: *shards,
            },
            PartitionSpec::Range { column, boundaries } => Distribution::Ranged {
                column: column.clone(),
                boundaries: boundaries.clone(),
            },
            PartitionSpec::Replicated { shards } => Distribution::Replicated { shards: *shards },
        }
    }

    /// The target layout of an exchange that re-hashes rows on `key`
    /// across `width` shards — the shuffle destination a repartitioning
    /// exchange routes into. Normalized: a width-1 target is
    /// [`Distribution::Single`] (shuffling everything to one shard is a
    /// gather).
    pub fn repartition(key: impl Into<String>, width: u32) -> Distribution {
        Distribution::Hashed {
            column: key.into(),
            shards: width,
        }
        .normalize()
    }

    /// The unified width-1 rule: a hashed or ranged layout spanning a
    /// single shard plans exactly like unsharded data — one task, no
    /// partial retention, no colocation bookkeeping — so it folds to
    /// [`Distribution::Single`]. Multi-shard layouts (and replicated
    /// copies, whose replica count still matters for broadcasts) pass
    /// through unchanged.
    pub fn normalize(self) -> Distribution {
        match &self {
            Distribution::Hashed { shards, .. } if *shards <= 1 => Distribution::Single,
            Distribution::Ranged { boundaries, .. } if boundaries.is_empty() => {
                Distribution::Single
            }
            _ => self,
        }
    }

    /// The deterministic row-routing rule of a repartitioning exchange:
    /// the destination-shard bucket each of `rows` lands in under this
    /// layout, as per-shard index lists (stable FNV-1a hash for
    /// [`Distribution::Hashed`], boundary search for
    /// [`Distribution::Ranged`] — the same routing stored tables use).
    /// Within each bucket, indices stay in input order, so splicing
    /// buckets in (source order, destination shard) order is
    /// reproducible bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Invalid`] for layouts without a routing
    /// rule ([`Single`] and [`Replicated`] rows are not routed) and
    /// [`crate::Error::ColumnNotFound`] when the key column is missing.
    ///
    /// [`Single`]: Distribution::Single
    /// [`Replicated`]: Distribution::Replicated
    pub fn route_indices(&self, schema: &Schema, rows: &[Row]) -> Result<Vec<Vec<usize>>> {
        let (column, rule) = match self {
            Distribution::Hashed { column, shards } => {
                (column, RoutingRule::Hash(HashRouter::new(*shards)?))
            }
            Distribution::Ranged { column, boundaries } => {
                (column, RoutingRule::range(boundaries)?)
            }
            other => {
                return Err(crate::Error::Invalid(format!(
                    "distribution {other} has no row-routing rule"
                )))
            }
        };
        let idx = schema.require(column)?;
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); rule.width()];
        for (i, row) in rows.iter().enumerate() {
            buckets[rule.shard(&row[idx])].push(i);
        }
        Ok(buckets)
    }

    /// Number of shard replicas the rows span (1 for [`Single`]).
    ///
    /// [`Single`]: Distribution::Single
    pub fn shard_count(&self) -> usize {
        match self {
            Distribution::Single => 1,
            Distribution::Replicated { shards } | Distribution::Hashed { shards, .. } => {
                *shards as usize
            }
            Distribution::Ranged { boundaries, .. } => boundaries.len() + 1,
        }
    }

    /// The shard tasks a node with this output distribution fans out
    /// into, in gather (merge) order: every shard for partitioned
    /// distributions, a single shard-0 task otherwise (replicated
    /// reads are served by one replica). A zero-shard replicated
    /// layout yields the empty set, which spec validation rejects as
    /// [`crate::Error::EmptyShardSet`].
    pub fn scatter(&self) -> Vec<ShardId> {
        match self {
            Distribution::Single => vec![ShardId::ZERO],
            Distribution::Replicated { shards } if *shards > 0 => vec![ShardId::ZERO],
            _ => (0..self.shard_count() as u32).map(ShardId).collect(),
        }
    }

    /// The partition key column, when the distribution has one.
    pub fn key(&self) -> Option<&str> {
        match self {
            Distribution::Hashed { column, .. } | Distribution::Ranged { column, .. } => {
                Some(column)
            }
            _ => None,
        }
    }

    /// Whether rows are genuinely split across shards (hashed or
    /// ranged) — the distributions whose per-shard partials a
    /// colocated consumer reads.
    pub fn is_partitioned(&self) -> bool {
        matches!(
            self,
            Distribution::Hashed { .. } | Distribution::Ranged { .. }
        )
    }

    /// The distribution after projecting to `columns`: partitioned
    /// distributions survive only while the partition key is kept
    /// (a re-keying projection degrades to [`Distribution::Single`] —
    /// the rows are still physically split, but no downstream join can
    /// rely on the dropped key, so the planner gathers). Replicated
    /// and single inputs are unaffected.
    pub fn after_projection(&self, columns: &[String]) -> Distribution {
        match self.key() {
            Some(key) if columns.iter().any(|c| c == key) => self.clone(),
            Some(_) => Distribution::Single,
            None => self.clone(),
        }
    }

    /// Plans a hash-join over inputs distributed as `left`/`right`,
    /// joining `left_on = right_on`.
    ///
    /// Colocation rules:
    ///
    /// * `Hashed(left_on) x N` ⋈ `Hashed(right_on) x N` — equal shard
    ///   counts and keys matching the join keys: matching rows share a
    ///   hash, hence a shard. Output stays `Hashed(left_on) x N`.
    /// * `Ranged(left_on, B)` ⋈ `Ranged(right_on, B)` — identical
    ///   boundaries: matching keys land in the same range slot. Output
    ///   stays `Ranged(left_on, B)`.
    /// * partitioned-on-`left_on` ⋈ `Replicated` — broadcast join: any
    ///   hashed or ranged probe side is colocatable with a replicated
    ///   partner, because every shard task can build against a full
    ///   copy. Output keeps the probe side's distribution.
    ///
    /// The broadcast rule is asymmetric by design: the executor's hash
    /// join probes *left* rows in input order, so a partitioned left
    /// against a replicated right gathers bit-identically (output
    /// order is the left gather order). A replicated *left* against a
    /// partitioned right would emit output grouped by the right side's
    /// shards — a different row order than the gathered plan — so the
    /// planner gathers instead. Never a silent reorder, never a wrong
    /// answer.
    pub fn join(
        left: &Distribution,
        left_on: &str,
        right: &Distribution,
        right_on: &str,
    ) -> JoinDistribution {
        use Distribution::{Hashed, Ranged, Replicated};
        match (left, right) {
            (
                Hashed {
                    column: lc,
                    shards: ln,
                },
                Hashed {
                    column: rc,
                    shards: rn,
                },
            ) if lc == left_on && rc == right_on && ln == rn => JoinDistribution::Colocated {
                output: left.clone(),
            },
            (
                Ranged {
                    column: lc,
                    boundaries: lb,
                },
                Ranged {
                    column: rc,
                    boundaries: rb,
                },
            ) if lc == left_on && rc == right_on && lb == rb => JoinDistribution::Colocated {
                output: left.clone(),
            },
            (partitioned, Replicated { .. })
                if partitioned.is_partitioned() && partitioned.key() == Some(left_on) =>
            {
                JoinDistribution::Colocated {
                    output: partitioned.clone(),
                }
            }
            _ => JoinDistribution::Gather,
        }
    }
}

impl From<&PartitionSpec> for Distribution {
    fn from(spec: &PartitionSpec) -> Self {
        Distribution::from_spec(spec)
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Distribution::Single => write!(f, "single"),
            Distribution::Replicated { shards } => write!(f, "replicated x {shards}"),
            Distribution::Hashed { column, shards } => write!(f, "hashed({column}) x {shards}"),
            Distribution::Ranged { column, boundaries } => {
                write!(f, "ranged({column}) x {}", boundaries.len() + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashed(column: &str, shards: u32) -> Distribution {
        Distribution::Hashed {
            column: column.into(),
            shards,
        }
    }

    fn ranged(column: &str, boundaries: Vec<Value>) -> Distribution {
        Distribution::Ranged {
            column: column.into(),
            boundaries,
        }
    }

    #[test]
    fn spec_induces_distribution() {
        assert_eq!(
            Distribution::from_spec(&PartitionSpec::hash("pid", 4)),
            hashed("pid", 4)
        );
        assert_eq!(
            Distribution::from(&PartitionSpec::replicated(3)),
            Distribution::Replicated { shards: 3 }
        );
        let spec = PartitionSpec::range("pid", vec![Value::Int(5)]);
        let d = Distribution::from_spec(&spec);
        assert_eq!(d.shard_count(), 2);
        assert_eq!(d.key(), Some("pid"));
    }

    #[test]
    fn scatter_fans_partitioned_and_serves_replicated_from_one() {
        assert_eq!(
            hashed("k", 3).scatter(),
            vec![ShardId(0), ShardId(1), ShardId(2)]
        );
        assert_eq!(
            Distribution::Replicated { shards: 3 }.scatter(),
            vec![ShardId::ZERO]
        );
        assert_eq!(Distribution::Single.scatter(), vec![ShardId::ZERO]);
    }

    #[test]
    fn matching_hash_layouts_colocate() {
        let out = Distribution::join(&hashed("pid", 4), "pid", &hashed("pid", 4), "pid");
        assert_eq!(
            out,
            JoinDistribution::Colocated {
                output: hashed("pid", 4)
            }
        );
        // Key names may differ between the two sides, as long as each
        // matches its own join key.
        let out = Distribution::join(&hashed("pid", 2), "pid", &hashed("patient", 2), "patient");
        assert!(matches!(out, JoinDistribution::Colocated { .. }));
    }

    #[test]
    fn mismatched_hash_layouts_gather() {
        // Different shard counts.
        assert_eq!(
            Distribution::join(&hashed("pid", 4), "pid", &hashed("pid", 2), "pid"),
            JoinDistribution::Gather
        );
        // Partitioned on a column other than the join key.
        assert_eq!(
            Distribution::join(&hashed("age", 4), "pid", &hashed("pid", 4), "pid"),
            JoinDistribution::Gather
        );
        // Hash x range never aligns.
        assert_eq!(
            Distribution::join(
                &hashed("pid", 2),
                "pid",
                &ranged("pid", vec![Value::Int(5)]),
                "pid"
            ),
            JoinDistribution::Gather
        );
    }

    #[test]
    fn equal_range_boundaries_colocate_unequal_gather() {
        let b = vec![Value::Int(10), Value::Int(20)];
        assert!(matches!(
            Distribution::join(&ranged("pid", b.clone()), "pid", &ranged("pid", b), "pid"),
            JoinDistribution::Colocated { .. }
        ));
        assert_eq!(
            Distribution::join(
                &ranged("pid", vec![Value::Int(10)]),
                "pid",
                &ranged("pid", vec![Value::Int(11)]),
                "pid"
            ),
            JoinDistribution::Gather
        );
    }

    #[test]
    fn replicated_broadcasts_against_any_partitioned_probe_side() {
        // The satellite regression: a replicated table is colocatable
        // with any hashed partner, whatever the partner's shard count.
        for shards in [1u32, 2, 8] {
            let out = Distribution::join(
                &hashed("pid", shards),
                "pid",
                &Distribution::Replicated { shards: 3 },
                "pid",
            );
            assert_eq!(
                out,
                JoinDistribution::Colocated {
                    output: hashed("pid", shards)
                },
                "broadcast must colocate at {shards} shards"
            );
        }
        // Ranged probe sides broadcast too.
        assert!(matches!(
            Distribution::join(
                &ranged("pid", vec![Value::Int(5)]),
                "pid",
                &Distribution::Replicated { shards: 2 },
                "pid"
            ),
            JoinDistribution::Colocated { .. }
        ));
        // Replicated on the *left* gathers: the probe side drives the
        // output row order, so broadcasting it would reorder.
        assert_eq!(
            Distribution::join(
                &Distribution::Replicated { shards: 2 },
                "pid",
                &hashed("pid", 2),
                "pid"
            ),
            JoinDistribution::Gather
        );
        // Replicated x replicated is a single-site join already.
        assert_eq!(
            Distribution::join(
                &Distribution::Replicated { shards: 2 },
                "pid",
                &Distribution::Replicated { shards: 2 },
                "pid"
            ),
            JoinDistribution::Gather
        );
    }

    #[test]
    fn single_inputs_always_gather() {
        assert_eq!(
            Distribution::join(&Distribution::Single, "pid", &hashed("pid", 2), "pid"),
            JoinDistribution::Gather
        );
        assert_eq!(
            Distribution::join(&hashed("pid", 2), "pid", &Distribution::Single, "pid"),
            JoinDistribution::Gather
        );
    }

    #[test]
    fn projection_preserves_while_key_survives() {
        let d = hashed("pid", 4);
        assert_eq!(
            d.after_projection(&["pid".into(), "age".into()]),
            hashed("pid", 4)
        );
        // Re-keying projection degrades to single.
        assert_eq!(d.after_projection(&["age".into()]), Distribution::Single);
        // Keyless distributions are unaffected.
        assert_eq!(
            Distribution::Replicated { shards: 2 }.after_projection(&["age".into()]),
            Distribution::Replicated { shards: 2 }
        );
        assert_eq!(
            Distribution::Single.after_projection(&["age".into()]),
            Distribution::Single
        );
    }

    #[test]
    fn repartition_targets_normalize_width_one_to_single() {
        assert_eq!(Distribution::repartition("pid", 4), hashed("pid", 4));
        assert_eq!(Distribution::repartition("pid", 1), Distribution::Single);
        assert_eq!(Distribution::repartition("pid", 0), Distribution::Single);
        // The same rule folds width-1 stored layouts.
        assert_eq!(hashed("pid", 1).normalize(), Distribution::Single);
        assert_eq!(ranged("pid", vec![]).normalize(), Distribution::Single);
        assert_eq!(hashed("pid", 2).normalize(), hashed("pid", 2));
        assert_eq!(
            Distribution::Replicated { shards: 1 }.normalize(),
            Distribution::Replicated { shards: 1 },
            "replica counts still matter for broadcasts"
        );
    }

    #[test]
    fn route_indices_is_a_stable_partition_of_the_input() {
        use crate::{row, DataType, Schema};
        let schema = Schema::new(vec![("k", DataType::Int), ("v", DataType::Str)]);
        let rows: Vec<crate::Row> = (0..50).map(|i| row![i as i64, format!("r{i}")]).collect();
        let dist = Distribution::repartition("k", 4);
        let a = dist.route_indices(&schema, &rows).unwrap();
        let b = dist.route_indices(&schema, &rows).unwrap();
        assert_eq!(a, b, "routing must be deterministic");
        assert_eq!(a.len(), 4);
        let mut flat: Vec<usize> = a.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(flat, (0..50).collect::<Vec<_>>(), "a true partition");
        for bucket in &a {
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "input order kept");
        }
        // The routing agrees with the stored-table rule: the same rows
        // distributed by the equivalent PartitionSpec land identically.
        let spec = PartitionSpec::hash("k", 4);
        let stored = spec.distribute(&schema, &rows).unwrap();
        for (bucket, rows_in_shard) in a.iter().zip(&stored) {
            let routed: Vec<_> = bucket.iter().map(|&i| rows[i].clone()).collect();
            assert_eq!(&routed, rows_in_shard);
        }
    }

    #[test]
    fn route_indices_rejects_unrouteable_layouts() {
        use crate::{DataType, Schema};
        let schema = Schema::new(vec![("k", DataType::Int)]);
        assert!(matches!(
            Distribution::Single.route_indices(&schema, &[]),
            Err(crate::Error::Invalid(_))
        ));
        assert!(matches!(
            Distribution::Replicated { shards: 2 }.route_indices(&schema, &[]),
            Err(crate::Error::Invalid(_))
        ));
        assert!(matches!(
            hashed("nope", 2).route_indices(&schema, &[]),
            Err(crate::Error::ColumnNotFound(_))
        ));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Distribution::Single.to_string(), "single");
        assert_eq!(hashed("pid", 4).to_string(), "hashed(pid) x 4");
        assert_eq!(
            ranged("pid", vec![Value::Int(1)]).to_string(),
            "ranged(pid) x 2"
        );
        assert_eq!(
            Distribution::Replicated { shards: 2 }.to_string(),
            "replicated x 2"
        );
    }
}
