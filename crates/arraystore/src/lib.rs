//! An array data-processing engine (SciDB-like substrate).
//!
//! The paper's array store: "matrix operations in SciDB" (§I). Dense
//! n-dimensional `f64` arrays with reshaping, elementwise ops and 2-d
//! matrix multiply routed through the accelerator GEMM kernel.
//!
//! # Examples
//!
//! ```
//! use pspp_arraystore::{ArrayStore, NdArray};
//!
//! # fn main() -> pspp_common::Result<()> {
//! let mut store = ArrayStore::new("arrays");
//! store.put("a", NdArray::from_vec(vec![2, 3], (0..6).map(f64::from).collect())?)?;
//! let s = store.get("a")?.sum();
//! assert_eq!(s, 15.0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

use pspp_accel::kernels::{Gemm, Matrix};
use pspp_common::{EngineId, Error, Result};

/// A dense n-dimensional array of `f64` in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct NdArray {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl NdArray {
    /// An all-zero array.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        NdArray {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Builds from a flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] when the buffer does not match the shape.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f64>) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(Error::Invalid(format!(
                "shape {shape:?} needs {n} elements, got {}",
                data.len()
            )));
        }
        Ok(NdArray { shape, data })
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Element at a full index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for wrong arity or out-of-bounds index.
    pub fn get(&self, index: &[usize]) -> Result<f64> {
        Ok(self.data[self.offset(index)?])
    }

    /// Sets the element at a full index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for wrong arity or out-of-bounds index.
    pub fn set(&mut self, index: &[usize], value: f64) -> Result<()> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() {
            return Err(Error::Invalid(format!(
                "index arity {} vs ndim {}",
                index.len(),
                self.shape.len()
            )));
        }
        let mut off = 0usize;
        for (d, (&i, &s)) in index.iter().zip(&self.shape).enumerate() {
            if i >= s {
                return Err(Error::Invalid(format!(
                    "index {i} out of bounds in dim {d}"
                )));
            }
            off = off * s + i;
        }
        Ok(off)
    }

    /// Reshapes without copying semantics change.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] when element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(Error::Invalid("reshape changes element count".into()));
        }
        self.shape = shape;
        Ok(self)
    }

    /// Elementwise combination with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] on shape mismatch.
    pub fn zip_with<F: Fn(f64, f64) -> f64>(&self, other: &NdArray, f: F) -> Result<NdArray> {
        if self.shape != other.shape {
            return Err(Error::Invalid(format!(
                "shape mismatch {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        NdArray::from_vec(self.shape.clone(), data)
    }

    /// Elementwise map.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> NdArray {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Converts a 2-d array into an accelerator [`Matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] unless `ndim == 2`.
    pub fn to_matrix(&self) -> Result<Matrix> {
        if self.shape.len() != 2 {
            return Err(Error::Invalid(format!(
                "to_matrix on {}-d array",
                self.ndim()
            )));
        }
        Matrix::from_vec(self.shape[0], self.shape[1], self.data.clone())
    }

    /// Builds a 2-d array from a [`Matrix`].
    pub fn from_matrix(m: &Matrix) -> NdArray {
        NdArray {
            shape: vec![m.rows(), m.cols()],
            data: m.as_slice().to_vec(),
        }
    }
}

/// The array engine: named arrays plus native operators.
#[derive(Debug, Clone)]
pub struct ArrayStore {
    id: EngineId,
    arrays: BTreeMap<String, NdArray>,
}

impl ArrayStore {
    /// An empty store.
    pub fn new(id: impl Into<EngineId>) -> Self {
        ArrayStore {
            id: id.into(),
            arrays: BTreeMap::new(),
        }
    }

    /// The engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// Stores an array under `name` (replacing any previous).
    ///
    /// # Errors
    ///
    /// Currently infallible; reserved for quota enforcement.
    pub fn put(&mut self, name: impl Into<String>, array: NdArray) -> Result<()> {
        self.arrays.insert(name.into(), array);
        Ok(())
    }

    /// Fetches an array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] for unknown names.
    pub fn get(&self, name: &str) -> Result<&NdArray> {
        self.arrays
            .get(name)
            .ok_or_else(|| Error::TableNotFound(format!("array {name}")))
    }

    /// Names of stored arrays.
    pub fn names(&self) -> Vec<&str> {
        self.arrays.keys().map(String::as_str).collect()
    }

    /// Elementwise add of two stored arrays, stored as `out`.
    ///
    /// # Errors
    ///
    /// Propagates lookup and shape errors.
    pub fn add(&mut self, a: &str, b: &str, out: impl Into<String>) -> Result<()> {
        let r = self.get(a)?.zip_with(self.get(b)?, |x, y| x + y)?;
        self.arrays.insert(out.into(), r);
        Ok(())
    }

    /// 2-d matrix multiply `out = a · b` with the host GEMM kernel, stored
    /// as `out`.
    ///
    /// # Errors
    ///
    /// Propagates lookup, shape and dimension errors.
    pub fn matmul(&mut self, a: &str, b: &str, out: impl Into<String>) -> Result<()> {
        let ma = self.get(a)?.to_matrix()?;
        let mb = self.get(b)?.to_matrix()?;
        let mc =
            Gemm::multiply_host(&ma, &mb).map_err(|e| Error::Invalid(format!("matmul: {e}")))?;
        self.arrays.insert(out.into(), NdArray::from_matrix(&mc));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr23() -> NdArray {
        NdArray::from_vec(vec![2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap()
    }

    #[test]
    fn indexing_row_major() {
        let a = arr23();
        assert_eq!(a.get(&[0, 2]).unwrap(), 2.0);
        assert_eq!(a.get(&[1, 0]).unwrap(), 3.0);
        assert!(a.get(&[2, 0]).is_err());
        assert!(a.get(&[0]).is_err());
    }

    #[test]
    fn set_and_get() {
        let mut a = arr23();
        a.set(&[1, 1], 42.0).unwrap();
        assert_eq!(a.get(&[1, 1]).unwrap(), 42.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = arr23().reshape(vec![3, 2]).unwrap();
        assert_eq!(a.get(&[2, 1]).unwrap(), 5.0);
        assert!(arr23().reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn elementwise() {
        let a = arr23();
        let doubled = a.zip_with(&a, |x, y| x + y).unwrap();
        assert_eq!(doubled.sum(), 30.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = arr23();
        let b = NdArray::zeros(vec![3, 2]);
        assert!(a.zip_with(&b, |x, _| x).is_err());
    }

    #[test]
    fn store_put_get_add() {
        let mut s = ArrayStore::new("arr");
        s.put("a", arr23()).unwrap();
        s.put("b", arr23()).unwrap();
        s.add("a", "b", "c").unwrap();
        assert_eq!(s.get("c").unwrap().sum(), 30.0);
        assert!(s.get("missing").is_err());
        assert_eq!(s.names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn store_matmul_matches_manual() {
        let mut s = ArrayStore::new("arr");
        s.put(
            "a",
            NdArray::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
        )
        .unwrap();
        s.put(
            "i",
            NdArray::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
        )
        .unwrap();
        s.matmul("a", "i", "out").unwrap();
        assert_eq!(s.get("out").unwrap(), s.get("a").unwrap());
    }

    #[test]
    fn matrix_roundtrip() {
        let a = arr23();
        let m = a.to_matrix().unwrap();
        assert_eq!(NdArray::from_matrix(&m), a);
        assert!(NdArray::zeros(vec![2, 2, 2]).to_matrix().is_err());
    }
}
