//! Feature datasets: the tensor data model of the ML engine.

use pspp_accel::kernels::Matrix;
use pspp_common::{Error, Result, SplitMix64};

/// A supervised dataset: row-per-example features plus binary labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] when feature rows and labels disagree.
    pub fn new(features: Matrix, labels: Vec<f64>) -> Result<Self> {
        if features.rows() != labels.len() {
            return Err(Error::Invalid(format!(
                "{} feature rows vs {} labels",
                features.rows(),
                labels.len()
            )));
        }
        Ok(Dataset { features, labels })
    }

    /// Builds from per-example feature vectors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] on ragged features or length mismatch.
    pub fn from_examples(examples: &[(Vec<f64>, f64)]) -> Result<Self> {
        let rows = examples.len();
        let cols = examples.first().map_or(0, |(f, _)| f.len());
        let mut data = Vec::with_capacity(rows * cols);
        let mut labels = Vec::with_capacity(rows);
        for (f, y) in examples {
            if f.len() != cols {
                return Err(Error::Invalid("ragged feature vectors".into()));
            }
            data.extend_from_slice(f);
            labels.push(*y);
        }
        Ok(Dataset {
            features: Matrix::from_vec(rows, cols, data)?,
            labels,
        })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// The feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The labels.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// The `i`-th example's features.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn example(&self, i: usize) -> (&[f64], f64) {
        (self.features.row(i), self.labels[i])
    }

    /// Deterministic shuffled split into `(train, test)` with `test_frac`
    /// of examples in the test set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for fractions outside (0, 1).
    pub fn split(&self, test_frac: f64, seed: u64) -> Result<(Dataset, Dataset)> {
        if !(0.0..1.0).contains(&test_frac) || test_frac == 0.0 {
            return Err(Error::Invalid("test_frac must be in (0,1)".into()));
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        SplitMix64::new(seed).shuffle(&mut order);
        let n_test = ((self.len() as f64) * test_frac).round() as usize;
        let (test_idx, train_idx) = order.split_at(n_test.min(self.len()));
        Ok((self.subset(train_idx)?, self.subset(test_idx)?))
    }

    /// The subset of examples at `indices`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for out-of-bounds indices.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        let cols = self.dim();
        let mut data = Vec::with_capacity(indices.len() * cols);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(Error::Invalid(format!("example index {i} out of bounds")));
            }
            data.extend_from_slice(self.features.row(i));
            labels.push(self.labels[i]);
        }
        Ok(Dataset {
            features: Matrix::from_vec(indices.len(), cols, data)?,
            labels,
        })
    }

    /// A deterministic synthetic binary task: `y = 1` iff the first
    /// feature exceeds 0.5 (plus light noise on the other dims). Used by
    /// tests and benchmarks.
    pub fn synthetic_threshold(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut features = Matrix::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let x0 = rng.next_f64();
            if let Some((first, rest)) = features.row_mut(i).split_first_mut() {
                *first = x0;
                rest.fill_with(|| rng.next_f64());
            }
            labels.push(if x0 > 0.5 { 1.0 } else { 0.0 });
        }
        Dataset { features, labels }
    }

    /// A deterministic clustering task of `k` Gaussians in `dim`
    /// dimensions (centers drawn between -5 and 5, spread 0.4, sample `i`
    /// drawn from Gaussian `i % k`); labels are the generating cluster
    /// (used to sanity-check k-means).
    pub fn synthetic_blobs(n: usize, dim: usize, k: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let centers: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.next_range(-5.0, 5.0)).collect())
            .collect();
        let mut features = Matrix::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % k;
            for (v, center_d) in features.row_mut(i).iter_mut().zip(&centers[c]) {
                *v = center_d + rng.next_gaussian() * 0.4;
            }
            labels.push(c as f64);
        }
        Dataset { features, labels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks_lengths() {
        assert!(Dataset::new(Matrix::zeros(3, 2), vec![0.0; 3]).is_ok());
        assert!(Dataset::new(Matrix::zeros(3, 2), vec![0.0; 2]).is_err());
        assert!(Dataset::from_examples(&[(vec![1.0], 0.0), (vec![1.0, 2.0], 1.0)]).is_err());
    }

    #[test]
    fn split_partitions_every_example() {
        let d = Dataset::synthetic_threshold(100, 3, 1);
        let (train, test) = d.split(0.2, 9).unwrap();
        assert_eq!(train.len() + test.len(), 100);
        assert_eq!(test.len(), 20);
        assert_eq!(train.dim(), 3);
        assert!(d.split(0.0, 9).is_err());
        assert!(d.split(1.0, 9).is_err());
    }

    #[test]
    fn split_is_deterministic() {
        let d = Dataset::synthetic_threshold(50, 2, 1);
        let (a, _) = d.split(0.3, 5).unwrap();
        let (b, _) = d.split(0.3, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn blobs_have_k_distinct_labels() {
        let d = Dataset::synthetic_blobs(90, 2, 3, 7);
        let mut labels: Vec<i64> = d.labels().iter().map(|&l| l as i64).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels, vec![0, 1, 2]);
    }

    #[test]
    fn subset_bounds_checked() {
        let d = Dataset::synthetic_threshold(10, 2, 1);
        assert!(d.subset(&[0, 9]).is_ok());
        assert!(d.subset(&[10]).is_err());
    }
}
