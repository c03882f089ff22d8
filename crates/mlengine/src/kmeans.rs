//! K-means clustering written as OptiML-style parallel patterns (Fig. 7).
//!
//! The paper's Fig. 7 shows a Tensorflow k-means translated into OptiML's
//! `untilconverged { samples.groupRowsBy { minIndex(dist) } .map(mean) }`.
//! The implementation below keeps that structure — a `map` over samples
//! (assignment: each sample's nearest centroid) and a `groupBy`-average
//! (update: each cluster's mean) — because those are the parallel
//! patterns a CGRA/FPGA backend would map to hardware, and it lays the
//! data out the way such a backend streams it:
//!
//! - The `n × dim` samples are transposed once per run into one column
//!   per feature, each cut into blocks of four samples (two pairs of
//!   lanes, one 128-bit vector register each).
//! - The `map` takes a block at a time. For each centroid it sums each
//!   sample's `(c - x)²` over the columns in column order, from `0.0`,
//!   and keeps the arg-min with a select on a strictly smaller distance,
//!   the index held as an `f64` lane beside the distance. Samples of one
//!   to four columns take a body with the width fixed; any other width
//!   takes one generic body.
//! - The `groupBy`'s sums and counts are folded into the same pass: once
//!   a block's nearest centroids are known, its samples are counted and
//!   added into their clusters, block after block in sample order.
//!
//! Every accumulator therefore sees the same additions in the same order
//! as a row-at-a-time assignment followed by a separate groupBy loop, so
//! assignments, centroids and inertia are those of that loop bit for bit
//! (`tests/kmeans_oracle.rs` holds them to it). A centroid coordinate
//! that comes out NaN is stored as the one NaN, [`f64::NAN`]: the sign
//! and payload of a NaN sum depend on which operand code generation
//! puts first, and would otherwise differ between two compilations of
//! the same fold.

use pspp_accel::kernels::{KernelReport, Matrix};
use pspp_accel::{CostLedger, DeviceKind, DeviceProfile, KernelClass};
use pspp_common::{Error, Result, SplitMix64};

/// K-means hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f64,
    /// Seed for centroid initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 4,
            max_iters: 50,
            tol: 1e-6,
            seed: 1,
        }
    }
}

/// The clustering result.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    /// Final centroids (`k × dim`).
    pub centroids: Matrix,
    /// Per-sample cluster index.
    pub assignments: Vec<usize>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

impl KMeans {
    /// Runs k-means on `samples` (`n × dim`, row-major), charging
    /// `device` for the distance and update patterns. The samples are
    /// transposed once into blocked columns; each iteration is then one
    /// pass over them that assigns a block at a time and folds it into
    /// the clusters' sums and counts, which are allocated once per run
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for `k == 0` or `k > n`.
    pub fn run(
        device: &DeviceProfile,
        samples: &Matrix,
        config: &KMeansConfig,
        ledger: Option<&CostLedger>,
    ) -> Result<KMeans> {
        let n = samples.rows();
        let dim = samples.cols();
        let k = config.k;
        if k == 0 || k > n {
            return Err(Error::Invalid(format!("k={k} out of range for n={n}")));
        }

        // Initialize centroids on a shuffled sample (tf.random_shuffle +
        // slice in Fig. 7's left column).
        let mut order: Vec<usize> = (0..n).collect();
        SplitMix64::new(config.seed).shuffle(&mut order);
        let mut centroids = Matrix::zeros(k, dim);
        for (c, &i) in order.iter().take(k).enumerate() {
            for d in 0..dim {
                centroids.set(c, d, samples.get(i, d));
            }
        }

        let columns = Columns::of(samples);
        let mut assignments = vec![0usize; n];
        let mut sums = vec![0.0; k * dim];
        let mut counts = vec![0usize; k];
        let mut iterations = 0;
        for _ in 0..config.max_iters {
            iterations += 1;
            // Pattern 1 — map over samples: nearest-centroid assignment
            // (`kMeans.mapRows(mean => dist(sample, mean)).minIndex`),
            // with pattern 2's per-cluster counts and sums folded into
            // the same pass.
            sums.fill(0.0);
            counts.fill(0);
            let to = (&mut assignments[..], &mut sums[..], &mut counts[..]);
            let means = centroids.as_slice();
            match dim {
                1 => pass(&columns, 1, to, |b| assign_block::<1>(&columns, b, means)),
                2 => pass(&columns, 2, to, |b| assign_block::<2>(&columns, b, means)),
                3 => pass(&columns, 3, to, |b| assign_block::<3>(&columns, b, means)),
                4 => pass(&columns, 4, to, |b| assign_block::<4>(&columns, b, means)),
                _ => pass(&columns, dim, to, |b| {
                    assign_block_any(&columns, b, means, k)
                }),
            }
            // Pattern 2 — groupBy + average: new centroids
            // (`clusters.map(e => e.sum / e.length)`).
            let mut movement = 0.0;
            #[allow(clippy::needless_range_loop)] // c indexes counts, sums and centroids alike
            for c in 0..k {
                if counts[c] == 0 {
                    continue; // empty cluster keeps its centroid
                }
                for d in 0..dim {
                    let new = sums[c * dim + d] / counts[c] as f64;
                    // Every NaN stored as the one NaN (module docs).
                    let new = if new.is_nan() { f64::NAN } else { new };
                    movement += (new - centroids.get(c, d)).abs();
                    centroids.set(c, d, new);
                }
            }
            if movement < config.tol {
                break;
            }
        }

        let inertia: f64 = (0..n)
            .map(|i| {
                let c = assignments[i];
                samples
                    .row(i)
                    .iter()
                    .zip(centroids.row(c))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
            })
            .sum();

        // Charge the device: iterations × n × k × dim fused
        // multiply-adds for assignment plus n × dim for the update.
        let cycles = Self::cycles(device, n as u64, k as u64, dim as u64, iterations as u64);
        KernelReport::charge(
            device,
            KernelClass::KMeans,
            n as u64,
            (n * dim * 8) as u64,
            cycles,
            ledger,
            "mlengine.kmeans",
        );

        Ok(KMeans {
            centroids,
            assignments,
            iterations,
            inertia,
        })
    }

    /// Device cycles for the full clustering run.
    pub fn cycles(device: &DeviceProfile, n: u64, k: u64, dim: u64, iters: u64) -> u64 {
        let flops = iters as f64 * (n as f64 * k as f64 * dim as f64 * 3.0 + n as f64 * dim as f64);
        match device.kind() {
            DeviceKind::Tpu => {
                // Distance matrix as batched GEMM on the systolic array.
                let eff = device.efficiency(KernelClass::KMeans).max(1e-3);
                (flops / (device.lanes as f64 * device.lanes as f64 * 2.0 * eff)).ceil() as u64
            }
            _ => {
                let eff = device.efficiency(KernelClass::KMeans).max(1e-3);
                (flops / (device.lanes as f64 * 2.0 * eff)).ceil() as u64
            }
        }
    }
}

/// Samples per pair: the `f64` lanes of one 128-bit vector register,
/// which every x86-64 target has.
const PAIR: usize = 2;
/// Samples per block of the assignment: two pairs.
const BLOCK: usize = 2 * PAIR;

/// One column's values over one block of samples, pair by pair:
/// sample `j` of the block at `[j / PAIR][j % PAIR]`.
type Block = [[f64; PAIR]; 2];

/// The samples a column at a time, each column cut into blocks of
/// [`BLOCK`] samples in sample order; the last block of each column is
/// padded with `0.0`.
struct Columns {
    /// Column `d`'s block `b` at `d * blocks + b`.
    lanes: Vec<Block>,
    /// Blocks per column.
    blocks: usize,
}

impl Columns {
    /// `samples` (`n × dim`, row-major) transposed.
    fn of(samples: &Matrix) -> Self {
        let (n, dim) = (samples.rows(), samples.cols());
        let blocks = n.div_ceil(BLOCK);
        let mut lanes = vec![[[0.0; PAIR]; 2]; dim * blocks];
        for (d, column) in lanes.chunks_exact_mut(blocks).enumerate() {
            for (i, row) in samples.as_slice().chunks_exact(dim).enumerate() {
                column[i / BLOCK][i % BLOCK / PAIR][i % PAIR] = row[d];
            }
        }
        Columns { lanes, blocks }
    }

    /// Column `d`'s values in block `b`.
    #[inline(always)]
    fn block(&self, d: usize, b: usize) -> &Block {
        &self.lanes[d * self.blocks + b]
    }
}

/// One pass over `columns`' samples of `dim` columns, a block at a time
/// in sample order: `assign(b)` picks block `b`'s nearest centroids,
/// each sample's pick goes to `assignments`, and the sample is counted
/// in `counts` and added into its cluster's row of `sums` in sample
/// order. Every sum therefore sees the additions a separate groupBy loop
/// over the assignments makes, in its order, starting from what it held.
/// The padded lanes of the last block get picks too; they are never
/// read. Callers pass `dim` as a constant where they can: inlined, the
/// fold over a sample's columns is then unrolled.
#[inline(always)]
fn pass(
    columns: &Columns,
    dim: usize,
    (assignments, sums, counts): (&mut [usize], &mut [f64], &mut [usize]),
    assign: impl Fn(usize) -> Block,
) {
    for (b, slots) in assignments.chunks_mut(BLOCK).enumerate() {
        let picks = assign(b);
        for (j, slot) in slots.iter_mut().enumerate() {
            let (h, j) = (j / PAIR, j % PAIR);
            let c = picks[h][j] as usize;
            *slot = c;
            counts[c] += 1;
            for (d, sum) in sums[c * dim..][..dim].iter_mut().enumerate() {
                *sum += columns.block(d, b)[h][j];
            }
        }
    }
}

/// Block `b`'s nearest of `centroids` (rows of `D` values, one after
/// another), samples of one to four columns. The width fixed, each
/// distance is unrolled: the same additions in the same order as the
/// loop over columns, and none of its overhead, which otherwise is most
/// of a distance over a few columns (and most of `hetero_ml`'s k-means
/// ops).
#[inline(always)]
fn assign_block<const D: usize>(columns: &Columns, b: usize, centroids: &[f64]) -> Block {
    let xs: [Block; D] = std::array::from_fn(|d| *columns.block(d, b));
    let (mut lo, mut hi) = (ArgMin::FIRST, ArgMin::FIRST);
    for (c, centroid) in centroids.chunks_exact(D).enumerate() {
        let (mut d2_lo, mut d2_hi) = ([0.0; PAIR], [0.0; PAIR]);
        for d in 0..D {
            for j in 0..PAIR {
                let t = centroid[d] - xs[d][0][j];
                d2_lo[j] += t * t;
                let t = centroid[d] - xs[d][1][j];
                d2_hi[j] += t * t;
            }
        }
        lo.keep(c, &d2_lo);
        hi.keep(c, &d2_hi);
    }
    [lo.index, hi.index]
}

/// Block `b`'s nearest of the `k` `centroids`, samples of any width:
/// zero columns too, where every distance is `0.0` and the first
/// centroid is every sample's.
fn assign_block_any(columns: &Columns, b: usize, centroids: &[f64], k: usize) -> Block {
    let dim = centroids.len() / k;
    let (mut lo, mut hi) = (ArgMin::FIRST, ArgMin::FIRST);
    for c in 0..k {
        let (mut d2_lo, mut d2_hi) = ([0.0; PAIR], [0.0; PAIR]);
        for (d, &mean) in centroids[c * dim..][..dim].iter().enumerate() {
            let xs = columns.block(d, b);
            for j in 0..PAIR {
                let t = mean - xs[0][j];
                d2_lo[j] += t * t;
                let t = mean - xs[1][j];
                d2_hi[j] += t * t;
            }
        }
        lo.keep(c, &d2_lo);
        hi.keep(c, &d2_hi);
    }
    [lo.index, hi.index]
}

/// A pair's nearest centroid so far and its squared distance, per lane.
///
/// A block keeps one of these per pair, in variables of their own, not
/// one over all four lanes: the compiler then blends each pair with one
/// compare and one select over a vector register, where a select over
/// four lanes is lowered, on a two-lane target, through a chain of
/// shuffles that costs more than the distances.
struct ArgMin {
    /// The centroid's index, an `f64` so that it blends with the
    /// distances.
    index: [f64; PAIR],
    distance: [f64; PAIR],
}

impl ArgMin {
    /// The first centroid at an infinite distance: a lane whose every
    /// distance is NaN keeps it.
    const FIRST: ArgMin = ArgMin {
        index: [0.0; PAIR],
        distance: [f64::INFINITY; PAIR],
    };

    /// Centroid `c`, at `d2`, replaces the best of every lane it is
    /// strictly nearer, by a select and not a branch: of equal
    /// distances the first wins, and a NaN never does.
    ///
    /// Written over lane indices: the same loop over zipped iterators
    /// compiles, after inlining, to the four-lane select the type's docs
    /// describe.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    fn keep(&mut self, c: usize, d2: &[f64; PAIR]) {
        let c = c as f64;
        for j in 0..PAIR {
            let closer = d2[j] < self.distance[j];
            self.index[j] = if closer { c } else { self.index[j] };
            self.distance[j] = if closer { d2[j] } else { self.distance[j] };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// A distance adds its columns' squares in column order, in the
    /// bodies of a fixed width and the generic one alike: `1 + 1 + 1e16`
    /// is `1e16 + 2`, while `1e16 + 1 + 1` rounds to `1e16`, so the
    /// second centroid is the nearer only when the sums run in that
    /// order. Every lane of the block sees it.
    #[test]
    fn a_distance_adds_its_columns_in_order() {
        for width in 3..=6 {
            let pad = |row: [f64; 3]| row.into_iter().chain([0.0; 3]).take(width);
            let centroids: Vec<f64> = pad([1.0, 1.0, 1e8]).chain(pad([1e8, 1.0, 1.0])).collect();
            let columns = Columns::of(&Matrix::zeros(BLOCK, width));
            let nearest = match width {
                3 => assign_block::<3>(&columns, 0, &centroids),
                4 => assign_block::<4>(&columns, 0, &centroids),
                _ => assign_block_any(&columns, 0, &centroids, 2),
            };
            assert_eq!(nearest, [[1.0; PAIR]; 2], "width {width}");
        }
    }

    /// Samples of no columns take the generic body: every distance is
    /// `0.0`, so every sample goes to the first centroid.
    #[test]
    fn samples_of_no_columns_go_to_the_first_centroid() {
        let samples = Matrix::zeros(7, 0);
        let config = KMeansConfig {
            k: 3,
            ..Default::default()
        };
        let got = KMeans::run(&DeviceProfile::cpu(), &samples, &config, None).unwrap();
        assert_eq!(got.assignments, vec![0; 7]);
        assert_eq!((got.iterations, got.inertia), (1, 0.0));
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = Dataset::synthetic_blobs(300, 2, 3, 17);
        let result = KMeans::run(
            &DeviceProfile::cpu(),
            data.features(),
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        // Every generated cluster maps to exactly one k-means cluster.
        let mut mapping = std::collections::HashMap::new();
        let mut pure = 0usize;
        for (i, &a) in result.assignments.iter().enumerate() {
            let truth = data.labels()[i] as usize;
            let entry = mapping.entry(truth).or_insert(a);
            if *entry == a {
                pure += 1;
            }
        }
        let purity = pure as f64 / data.len() as f64;
        assert!(purity > 0.95, "purity {purity}");
        assert!(result.iterations < 50);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = Dataset::synthetic_blobs(200, 3, 4, 23);
        let run = |k| {
            KMeans::run(
                &DeviceProfile::cpu(),
                data.features(),
                &KMeansConfig {
                    k,
                    ..Default::default()
                },
                None,
            )
            .unwrap()
            .inertia
        };
        assert!(run(4) < run(2));
        assert!(run(2) < run(1));
    }

    #[test]
    fn invalid_k_rejected() {
        let data = Dataset::synthetic_blobs(10, 2, 2, 1);
        for k in [0, 11] {
            assert!(KMeans::run(
                &DeviceProfile::cpu(),
                data.features(),
                &KMeansConfig {
                    k,
                    ..Default::default()
                },
                None,
            )
            .is_err());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Dataset::synthetic_blobs(100, 2, 3, 5);
        let cfg = KMeansConfig {
            k: 3,
            seed: 9,
            ..Default::default()
        };
        let a = KMeans::run(&DeviceProfile::cpu(), data.features(), &cfg, None).unwrap();
        let b = KMeans::run(&DeviceProfile::cpu(), data.features(), &cfg, None).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn accelerators_cost_less_time_and_energy() {
        let cpu = DeviceProfile::cpu();
        let gpu = DeviceProfile::gpu();
        let (n, k, dim, iters) = (1 << 20, 16, 16, 10);
        let t_cpu = cpu.cycles_to_s(KMeans::cycles(&cpu, n, k, dim, iters));
        let t_gpu = gpu.cycles_to_s(KMeans::cycles(&gpu, n, k, dim, iters));
        assert!(t_gpu < t_cpu / 5.0, "gpu {t_gpu}s vs cpu {t_cpu}s");
    }

    #[test]
    fn charges_kmeans_kernel() {
        let data = Dataset::synthetic_blobs(50, 2, 2, 3);
        let ledger = CostLedger::new();
        KMeans::run(
            &DeviceProfile::cpu(),
            data.features(),
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            Some(&ledger),
        )
        .unwrap();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.events()[0].component, "mlengine.kmeans");
    }
}
