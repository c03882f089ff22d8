//! The host GEMM kernels against a ten-line reference, bit for bit.
//!
//! The order contract (see `kernels::gemm`): every element of `C` starts
//! at `0.0`, walks `p` ascending, skips left entries equal to `0.0` and
//! otherwise does `c += a * b`. Tiling must never show in the bits, and
//! the skip must keep `0 · inf` out of the sum.

use proptest::prelude::*;
use pspp_accel::kernels::{Gemm, Matrix};
use pspp_common::SplitMix64;

/// `C = L · B` with `left(i, p)` the left operand's entries.
fn reference(
    left: impl Fn(usize, usize) -> f64,
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                let a = left(i, p);
                if a == 0.0 {
                    continue;
                }
                c[i * n + j] += a * b[p * n + j];
            }
        }
    }
    c
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Widths on both sides of every strip boundary (16, 8, 4, 2, 1),
/// the GEMV width, and the empty matrix.
const WIDTHS: [usize; 22] = [
    0, 1, 1, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 37, 48, 63, 64, 71,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn kernels_equal_the_reference_bit_for_bit(
        seed in 0u64..u64::MAX,
        m in 0usize..21,
        k in 0usize..41,
        width in 0usize..22,
        zeros in 0u8..4,
    ) {
        let n = WIDTHS[width];
        let mut rng = SplitMix64::new(seed);
        // Left operand `m×k`: dense, sparse, sparse with whole zero
        // columns (a dead ReLU unit is zero for every example), or all
        // zero; `-0.0` counts as zero.
        let dead: Vec<bool> = (0..k).map(|_| zeros == 3 || (zeros == 2 && rng.next_bool(0.4))).collect();
        let mut left = vec![0.0; m * k];
        for i in 0..m {
            for p in 0..k {
                left[i * k + p] = if dead[p] || (zeros >= 1 && rng.next_bool(0.5)) {
                    if rng.next_bool(0.5) { 0.0 } else { -0.0 }
                } else {
                    rng.next_range(-2.0, 2.0)
                };
            }
        }
        // Right operand `k×n`: a row every left entry skips holds only
        // what `0 · x` would turn into NaN, and a few live rows hold an
        // infinity that must reach exactly the elements whose left
        // entry is not zero.
        let mut b = vec![0.0; k * n];
        for p in 0..k {
            let hot = rng.next_bool(0.05);
            for j in 0..n {
                b[p * n + j] = if dead[p] {
                    [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.next_index(3)]
                } else if hot {
                    f64::INFINITY
                } else {
                    rng.next_range(-2.0, 2.0)
                };
            }
        }
        let want = reference(|i, p| left[i * k + p], &b, m, k, n);

        let mut c = vec![f64::NAN; m * n];
        Gemm::multiply_into(&left, &b, &mut c, m, k, n);
        prop_assert_eq!(bits(&c), bits(&want));

        // The same left operand stored transposed (`k×m`).
        let mut left_t = vec![0.0; k * m];
        for i in 0..m {
            for p in 0..k {
                left_t[p * m + i] = left[i * k + p];
            }
        }
        let mut c = vec![f64::NAN; m * n];
        Gemm::multiply_at_into(&left_t, &b, &mut c, m, k, n);
        prop_assert_eq!(bits(&c), bits(&want));

        let a = Matrix::from_vec(m, k, left).expect("m×k");
        let b = Matrix::from_vec(k, n, b).expect("k×n");
        let c = Gemm::multiply_host(&a, &b).expect("shapes agree");
        prop_assert_eq!(bits(c.as_slice()), bits(&want));
    }
}
