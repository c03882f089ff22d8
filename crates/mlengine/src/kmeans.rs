//! K-means clustering written as OptiML-style parallel patterns (Fig. 7).
//!
//! The paper's Fig. 7 shows a Tensorflow k-means translated into OptiML's
//! `untilconverged { samples.groupRowsBy { minIndex(dist) } .map(mean) }`.
//! The implementation below keeps exactly that structure — a `map` over
//! samples (assignment) and a `groupBy`-average (update) — because those
//! are the parallel patterns a CGRA/FPGA backend would map to hardware.

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
    /// Runs k-means on `samples` (`n × dim`), charging `device` for the
    /// distance and update patterns.
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

        let mut assignments = vec![0usize; n];
        let mut iterations = 0;
        for _ in 0..config.max_iters {
            iterations += 1;
            // Pattern 1 — map over samples: nearest-centroid assignment
            // (`kMeans.mapRows(mean => dist(sample, mean)).minIndex`).
            // A sample of no columns is nearest the first centroid,
            // where `assignments` starts.
            let rows = samples.as_slice().chunks_exact(dim.max(1));
            for (slot, sample) in assignments.iter_mut().zip(rows) {
                *slot = nearest(sample, centroids.as_slice());
            }
            // Pattern 2 — groupBy + average: new centroids
            // (`clusters.map(e => e.sum / e.length)`).
            let mut sums = Matrix::zeros(k, dim);
            let mut counts = vec![0usize; k];
            for (i, &c) in assignments.iter().enumerate() {
                counts[c] += 1;
                let row = samples.row(i);
                let acc = sums.row_mut(c);
                for (a, b) in acc.iter_mut().zip(row) {
                    *a += b;
                }
            }
            let mut movement = 0.0;
            #[allow(clippy::needless_range_loop)] // c indexes counts, sums and centroids alike
            for c in 0..k {
                if counts[c] == 0 {
                    continue; // empty cluster keeps its centroid
                }
                for d in 0..dim {
                    let new = sums.get(c, d) / counts[c] as f64;
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

/// The first of `centroids` — rows of `sample.len()` values, one after
/// another — nearest `sample` by squared distance: each distance the sum
/// of `(a - b) * (a - b)` in column order, and the minimum kept with a
/// select, not a branch. Only a strictly smaller distance replaces it,
/// so of equal ones the first wins and a NaN never does (none at all:
/// the first centroid).
///
/// Samples of one to four columns take a body with the width fixed, so
/// the distance is unrolled: the same additions in the same order, and
/// none of the loop's overhead per column, which otherwise is most of a
/// distance over a few columns (and most of `hetero_ml`'s k-means ops).
#[inline]
fn nearest(sample: &[f64], centroids: &[f64]) -> usize {
    match sample.len() {
        1 => nearest_of::<1>(sample, centroids),
        2 => nearest_of::<2>(sample, centroids),
        3 => nearest_of::<3>(sample, centroids),
        4 => nearest_of::<4>(sample, centroids),
        _ => nearest_of_any(sample, centroids),
    }
}

/// [`nearest`] over samples of `D` columns.
#[inline]
fn nearest_of<const D: usize>(sample: &[f64], centroids: &[f64]) -> usize {
    let (mut best, mut best_d2) = (0, f64::INFINITY);
    for (c, centroid) in centroids.chunks_exact(D).enumerate() {
        let mut d2 = 0.0;
        for d in 0..D {
            d2 += (centroid[d] - sample[d]) * (centroid[d] - sample[d]);
        }
        let closer = d2 < best_d2;
        best = if closer { c } else { best };
        best_d2 = if closer { d2 } else { best_d2 };
    }
    best
}

/// [`nearest`] over samples of any width.
fn nearest_of_any(sample: &[f64], centroids: &[f64]) -> usize {
    let (mut best, mut best_d2) = (0, f64::INFINITY);
    for (c, centroid) in centroids.chunks_exact(sample.len()).enumerate() {
        let d2: f64 = (centroid.iter().zip(sample))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let closer = d2 < best_d2;
        best = if closer { c } else { best };
        best_d2 = if closer { d2 } else { best_d2 };
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// A distance adds its columns' squares in column order, in the
    /// unrolled bodies and the generic one alike: `1 + 1 + 1e16` is
    /// `1e16 + 2`, while `1e16 + 1 + 1` rounds to `1e16`, so the second
    /// centroid is the nearer only when the sums run in that order.
    #[test]
    fn a_distance_adds_its_columns_in_order() {
        for width in 3..=5 {
            let pad = |row: [f64; 3]| row.into_iter().chain([0.0; 2]).take(width);
            let centroids: Vec<f64> = pad([1.0, 1.0, 1e8]).chain(pad([1e8, 1.0, 1.0])).collect();
            assert_eq!(nearest(&vec![0.0; width], &centroids), 1, "width {width}");
        }
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
