//! `KMeans::run` against the loop it replaced, bit for bit.
//!
//! The kernel reads the samples a column at a time, picks a block's
//! nearest centroids with a select instead of a branch, and sums each
//! block into its clusters in the same pass. The reference below is the
//! whole clustering as it was written before: the same initialization,
//! an assignment that reads samples and centroids as contiguous rows,
//! computes each distance as `(a - b) * (a - b)` summed in column order
//! and replaces the best on a strictly smaller one, in a branch, and
//! then a separate groupBy loop that sums the samples in sample order.
//! Assignments, centroid bits, inertia bits and the iteration count must
//! be the reference's. Both store a centroid coordinate that comes out
//! NaN as [`f64::NAN`]: a NaN sum's sign and payload follow which operand
//! code generation puts first, which two compilations of one fold need
//! not agree on.
//!
//! Samples have 1–8 columns (the widths with a body of their own and
//! the generic one) and 1–100 rows (several blocks, the last one often
//! short). Their cells come from a few small values, so two centroids
//! are often exactly as far from a sample (the first must win); now and
//! then a NaN or an infinity, whose distances are NaN or infinite and
//! must never win; and now and then `±1e8`, whose square swamps the
//! small ones', so that a distance summed in another column order, or a
//! cluster summed in another sample order, rounds to other bits.

use proptest::prelude::*;
use pspp_accel::kernels::Matrix;
use pspp_accel::DeviceProfile;
use pspp_common::SplitMix64;
use pspp_mlengine::{KMeans, KMeansConfig};

/// What the reference returns: assignments, centroids, iterations,
/// inertia.
type Clustering = (Vec<usize>, Matrix, usize, f64);

/// K-means as the engine ran it before the select: `KMeans::run`'s
/// body with the branch in the assignment.
fn reference(samples: &Matrix, config: &KMeansConfig) -> Clustering {
    let (n, dim, k) = (samples.rows(), samples.cols(), config.k);
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
        for (i, slot) in assignments.iter_mut().enumerate() {
            let row = samples.row(i);
            let mut best = (0usize, f64::INFINITY);
            for c in 0..k {
                let d2: f64 = centroids
                    .row(c)
                    .iter()
                    .zip(row)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if d2 < best.1 {
                    best = (c, d2);
                }
            }
            *slot = best.0;
        }
        let mut sums = Matrix::zeros(k, dim);
        let mut counts = vec![0usize; k];
        for (i, &c) in assignments.iter().enumerate() {
            counts[c] += 1;
            for (a, b) in sums.row_mut(c).iter_mut().zip(samples.row(i)) {
                *a += b;
            }
        }
        let mut movement = 0.0;
        #[allow(clippy::needless_range_loop)] // c indexes counts, sums and centroids alike
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            for d in 0..dim {
                let new = sums.get(c, d) / counts[c] as f64;
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
            (samples.row(i).iter())
                .zip(centroids.row(assignments[i]))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        })
        .sum();
    (assignments, centroids, iterations, inertia)
}

/// A cell: mostly one of a few small values (ties), now and then a NaN,
/// an infinity or `±1e8`.
fn arb_cell() -> impl Strategy<Value = f64> {
    let small = || (-3i8..4).prop_map(f64::from);
    prop_oneof![
        small(),
        small(),
        small(),
        small(),
        small(),
        small(),
        (-300i16..300).prop_map(|v| f64::from(v) / 7.0),
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
        prop_oneof![Just(1e8), Just(-1e8)],
    ]
}

/// Samples of 1–8 columns and 1–100 rows, `k` in `1..=min(rows, 9)`,
/// 1–8 iterations, any seed; the tolerance `0.0` now and then, so that
/// every iteration runs.
fn arb_case() -> impl Strategy<Value = (Matrix, KMeansConfig)> {
    (
        (1usize..9, 1usize..101),
        prop::collection::vec(arb_cell(), 800..801),
        (0usize..9, 1usize..9),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|((dim, rows), cells, (k, max_iters), seed, exact)| {
            let cells = cells[..rows * dim].to_vec();
            let samples = Matrix::from_vec(rows, dim, cells).expect("rows × dim cells");
            let config = KMeansConfig {
                k: 1 + k % rows.min(9),
                max_iters,
                tol: if exact { 0.0 } else { 1e-6 },
                seed,
            };
            (samples, config)
        })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn kmeans_is_the_branching_loop_bit_for_bit((samples, config) in arb_case()) {
        let got = KMeans::run(&DeviceProfile::cpu(), &samples, &config, None)
            .expect("k within the rows");
        let (assignments, centroids, iterations, inertia) = reference(&samples, &config);
        prop_assert_eq!(&got.assignments, &assignments);
        prop_assert_eq!(bits(&got.centroids), bits(&centroids));
        prop_assert_eq!(got.iterations, iterations);
        prop_assert_eq!(got.inertia.to_bits(), inertia.to_bits());
    }
}

/// A sample exactly as near two centroids goes to the first of them; a
/// sample whose every distance is NaN goes to the first centroid.
#[test]
fn ties_go_to_the_first_centroid_and_nan_never_wins() {
    let run = |cells: Vec<f64>| {
        let samples = Matrix::from_vec(cells.len(), 1, cells).expect("n × 1");
        // Every sample a centroid, in the seed's order; one pass.
        let config = KMeansConfig {
            k: samples.rows(),
            max_iters: 1,
            tol: 0.0,
            seed: 1,
        };
        let got = KMeans::run(&DeviceProfile::cpu(), &samples, &config, None).expect("k = n");
        assert_eq!(got.assignments, reference(&samples, &config).0);
        got
    };
    // Two centroids at 1.0: both samples there go to the first, and the
    // other keeps its value with no sample.
    let got = run(vec![1.0, 1.0, 5.0]);
    let first = (0..3).find(|&c| got.centroids.get(c, 0) == 1.0);
    assert_eq!(got.assignments[0], got.assignments[1]);
    assert_eq!(Some(got.assignments[0]), first, "{got:?}");

    let got = run(vec![f64::NAN, 5.0, -5.0]);
    assert_eq!(got.assignments[0], 0, "{got:?}");
}
