//! Dense GEMM/GEMV: the workhorse of DNN training and inference
//! (§III-A.1: "deep-learning algorithms are converted into GEMV and GEMM
//! operations for inference and training").
//!
//! The host implementation is register-tiled: a strip of `C` stays in
//! locals across the whole inner-dimension loop. The device models
//! capture the defining structures: CPUs fused-multiply-add across SIMD
//! lanes, GPUs across thousands of lanes, and the TPU's systolic array
//! processing `E×E` tiles with a `k + 2E` fill per tile.
//!
//! # Order contract
//!
//! Every host kernel here computes each element of `C` the same way:
//! start from `0.0`, walk the inner dimension `p` in ascending order,
//! skip every `p` whose *left* operand entry equals `0.0`, and otherwise
//! do `c += a * b` as a separate multiply and add. Tiling only changes
//! which elements are in flight together, never the order within one,
//! so results are bit-identical across tile widths and across the two
//! forms ([`Gemm::multiply_into`], [`Gemm::multiply_at_into`]). The
//! zero-skip is part of the result, not an optimisation: `0.0 * inf` is
//! `NaN`, so a skipped entry keeps a non-finite right operand out of
//! the sum (dead ReLU units make whole zero columns in training).

use pspp_common::{Error, Result};

use crate::device::{DeviceKind, DeviceProfile, KernelClass};
use crate::kernels::KernelReport;
use crate::ledger::CostLedger;

/// A dense row-major `f64` matrix.
///
/// # Examples
///
/// ```
/// use pspp_accel::kernels::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(a.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::Invalid(format!(
                "matrix {rows}x{cols} needs {} values, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] on ragged rows.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(Error::Invalid("ragged matrix rows".into()));
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Payload bytes.
    pub fn byte_size(&self) -> u64 {
        (self.data.len() * 8) as u64
    }
}

/// GEMM/GEMV kernel with per-device cost models.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gemm;

impl Gemm {
    /// `C = A · B`, charging the device model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] on dimension mismatch.
    pub fn run(
        profile: &DeviceProfile,
        a: &Matrix,
        b: &Matrix,
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> Result<(Matrix, KernelReport)> {
        let c = Self::multiply_host(a, b)?;
        let report = Self::charge(profile, a.rows(), a.cols(), b.cols(), ledger, component);
        Ok((c, report))
    }

    /// Charges the device model for an `m×k · k×n` multiply without
    /// running it: the report (and ledger event) [`Gemm::run`] produces
    /// for operands of those shapes.
    pub fn charge(
        profile: &DeviceProfile,
        m: usize,
        k: usize,
        n: usize,
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> KernelReport {
        let (m, k, n) = (m as u64, k as u64, n as u64);
        let cycles = Self::cycles(profile, m, k, n);
        let bytes = (m * k + k * n + m * n) * 8;
        let kernel = if n == 1 {
            KernelClass::Gemv
        } else {
            KernelClass::Gemm
        };
        KernelReport::charge(profile, kernel, m * n, bytes, cycles, ledger, component)
    }

    /// Host matrix multiply into a fresh matrix; see the module's order
    /// contract.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] on dimension mismatch.
    pub fn multiply_host(a: &Matrix, b: &Matrix) -> Result<Matrix> {
        if a.cols() != b.rows() {
            return Err(Error::Invalid(format!(
                "gemm dims {}x{} . {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            )));
        }
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Matrix::zeros(m, n);
        Self::multiply_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
        Ok(c)
    }

    /// `C = A · B` into the caller's buffer: `a` is `m×k`, `b` is `k×n`
    /// and `c` is `m×n`, all row-major. Overwrites `c`.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length is not its shape's.
    pub fn multiply_into(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
        assert_shapes(a, b, c, m, k, n);
        if c.is_empty() || k == 0 {
            c.fill(0.0);
        } else if n == 1 {
            let blocked = gemv_rows::<GEMV_ROWS>(a, b, c, k);
            gemv_rows::<1>(&a[blocked * k..], b, &mut c[blocked..], k);
        } else {
            tiled(|i| a[i * k..(i + 1) * k].iter().copied(), b, c, n);
        }
    }

    /// `C = Aᵀ · B` without materialising the transpose: `a` is `k×m`
    /// (so `Aᵀ` is `m×k`), `b` is `k×n` and `c` is `m×n`, all
    /// row-major. Overwrites `c` with exactly what
    /// [`Gemm::multiply_into`] gives for the transposed copy of `a`.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length is not its shape's.
    pub fn multiply_at_into(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
        assert_shapes(a, b, c, m, k, n);
        if c.is_empty() || k == 0 {
            c.fill(0.0);
        } else if n == 1 {
            gemv_at(a, b, c);
        } else {
            tiled(|i| a[i..].iter().step_by(m).copied(), b, c, n);
        }
    }

    /// Device cycles for an `m×k · k×n` multiply.
    pub fn cycles(profile: &DeviceProfile, m: u64, k: u64, n: u64) -> u64 {
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let kernel = if n == 1 {
            KernelClass::Gemv
        } else {
            KernelClass::Gemm
        };
        match profile.kind() {
            DeviceKind::Tpu => {
                // Systolic tiles of E×E with a (k + 2E) fill per tile pass.
                let e = profile.lanes;
                let tiles = m.div_ceil(e) * n.div_ceil(e);
                let eff = profile.efficiency(kernel).max(1e-3);
                ((tiles * (k + 2 * e)) as f64 / eff).ceil() as u64
            }
            DeviceKind::Fpga => {
                // A 32x32 MAC array on the fabric.
                let macs_per_cycle = 1024.0 * profile.efficiency(kernel).max(1e-3);
                (flops / 2.0 / macs_per_cycle).ceil() as u64
            }
            _ => {
                // FMA across lanes: lanes × 2 flops/cycle × efficiency.
                let eff = profile.efficiency(kernel).max(1e-3);
                let flops_per_cycle = profile.lanes as f64 * 2.0 * eff;
                (flops / flops_per_cycle).ceil() as u64
            }
        }
    }
}

fn assert_shapes(a: &[f64], b: &[f64], c: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "left operand is not {m}x{k}");
    assert_eq!(b.len(), k * n, "right operand is not {k}x{n}");
    assert_eq!(c.len(), m * n, "output is not {m}x{n}");
}

/// `C = L · B` for `n ≥ 2`, where `left_row(i)` yields row `i` of the
/// left operand in ascending `p`. Strips of 16 columns, then one of each
/// smaller power of two, cover any `n` with every strip in locals:
/// sixteen `f64`s are eight SSE2 registers, half the baseline x86-64
/// file, which leaves room for the broadcast left entry and the loaded
/// row of `B`. (Strips of 32 spill there: dense multiplies measured up
/// to 20 % slower, and only mostly-zero left operands gained, from
/// paying the zero test half as often.)
fn tiled<I: Iterator<Item = f64>>(
    left_row: impl Fn(usize) -> I,
    b: &[f64],
    c: &mut [f64],
    n: usize,
) {
    let mut j0 = 0;
    while j0 < n {
        j0 += match n - j0 {
            16.. => strip::<16, I>(&left_row, b, c, n, j0),
            8.. => strip::<8, I>(&left_row, b, c, n, j0),
            4.. => strip::<4, I>(&left_row, b, c, n, j0),
            2.. => strip::<2, I>(&left_row, b, c, n, j0),
            _ => strip::<1, I>(&left_row, b, c, n, j0),
        };
    }
}

/// Columns `j0..j0 + W` of every row of `C`; returns `W`.
fn strip<const W: usize, I: Iterator<Item = f64>>(
    left_row: &impl Fn(usize) -> I,
    b: &[f64],
    c: &mut [f64],
    n: usize,
    j0: usize,
) -> usize {
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        let mut acc = [0.0f64; W];
        for (av, b_row) in left_row(i).zip(b.chunks_exact(n)) {
            if av == 0.0 {
                continue;
            }
            for (x, &bv) in acc.iter_mut().zip(&b_row[j0..j0 + W]) {
                *x += av * bv;
            }
        }
        c_row[j0..j0 + W].copy_from_slice(&acc);
    }
    W
}

/// Rows of a GEMV advanced together: one row alone is a serial chain of
/// dependent adds, eight rows are eight independent chains.
const GEMV_ROWS: usize = 8;

/// `c = A · b` for a column vector `b` (`n = 1`, `k ≥ 1`), `R` rows at a
/// time; returns how many rows that covered (a multiple of `R`).
fn gemv_rows<const R: usize>(a: &[f64], b: &[f64], c: &mut [f64], k: usize) -> usize {
    let blocks = a.chunks_exact(R * k).zip(c.chunks_exact_mut(R));
    let covered = blocks.len() * R;
    for (a_block, c_block) in blocks {
        let rows: [&[f64]; R] = std::array::from_fn(|r| &a_block[r * k..][..b.len()]);
        let mut acc = [0.0f64; R];
        for (p, &bv) in b.iter().enumerate() {
            for (x, a_row) in acc.iter_mut().zip(rows) {
                let av = a_row[p];
                *x = if av == 0.0 { *x } else { *x + av * bv };
            }
        }
        c_block.copy_from_slice(&acc);
    }
    covered
}

/// `c = Aᵀ · b` for a column vector `b` (`n = 1`, `k ≥ 1`): row `p` of
/// `a` holds the left entries of every output element at that `p`, so
/// the outputs advance together down the rows.
fn gemv_at(a: &[f64], b: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    for (a_row, &bv) in a.chunks_exact(c.len()).zip(b) {
        for (x, &av) in c.iter_mut().zip(a_row) {
            *x = if av == 0.0 { *x } else { *x + av * bv };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::SplitMix64;

    #[test]
    fn multiply_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = Gemm::multiply_host(&a, &b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn multiply_matches_naive_on_random() {
        let mut rng = SplitMix64::new(3);
        let (m, k, n) = (17, 33, 9);
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|_| rng.next_range(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let b = Matrix::from_vec(
            k,
            n,
            (0..k * n).map(|_| rng.next_range(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let c = Gemm::multiply_host(&a, &b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let expect: f64 = (0..k).map(|p| a.get(i, p) * b.get(p, j)).sum();
                assert!((c.get(i, j) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(Gemm::multiply_host(&a, &b).is_err());
    }

    #[test]
    fn tpu_dominates_large_gemm() {
        let cpu = DeviceProfile::cpu();
        let tpu = DeviceProfile::tpu();
        let (m, k, n) = (1024, 1024, 1024);
        let t_cpu = cpu.cycles_to_s(Gemm::cycles(&cpu, m, k, n));
        let t_tpu = tpu.cycles_to_s(Gemm::cycles(&tpu, m, k, n));
        assert!(t_cpu / t_tpu > 20.0, "speedup {}", t_cpu / t_tpu);
    }

    #[test]
    fn tpu_underutilized_on_small_tiles() {
        let tpu = DeviceProfile::tpu();
        // A 16x16 GEMM still pays a full tile: effective throughput is low.
        let cyc_small = Gemm::cycles(&tpu, 16, 16, 16);
        let cyc_big = Gemm::cycles(&tpu, 256, 256, 256);
        let flops_small = 2.0 * 16f64.powi(3);
        let flops_big = 2.0 * 256f64.powi(3);
        let eff_small = flops_small / cyc_small as f64;
        let eff_big = flops_big / cyc_big as f64;
        assert!(eff_big > 100.0 * eff_small);
    }

    #[test]
    fn gemv_classified() {
        let (_, r) = Gemm::run(
            &DeviceProfile::cpu(),
            &Matrix::zeros(4, 4),
            &Matrix::zeros(4, 1),
            None,
            "t",
        )
        .unwrap();
        assert_eq!(r.kernel, KernelClass::Gemv);
    }
}
