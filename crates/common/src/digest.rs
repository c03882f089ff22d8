//! What a query returned, as one number.
//!
//! One query runs along many engine paths — offload on or off, sharded
//! or not, a join sited on either store — and every path must return
//! the same result. [`OutputDigest`] is the one definition of "the
//! same": per output, its columns' names and types, its row count, and
//! a commutative fold of per-row hashes. The order rows arrive in, the
//! engine that holds them and the shard layout they were gathered from
//! are not part of a result, so none of them reaches the digest.
//!
//! Each value is hashed behind its variant's tag, and a variable-length
//! value behind its length: `Int(1)` and `Float(1.0)` differ here,
//! although they compare equal and the routing hash
//! ([`crate::partition`]) sends them to one shard; `NULL` and `''`
//! differ; `["ab", "c"]` and `["a", "bc"]` differ. A row hashes as
//! FNV-1a continued from 0 over its values, so a row of no columns
//! hashes to 0 and adds nothing to the fold: the row count is what
//! tells such outputs apart, and it guards every other fold against
//! wrapping round.
//!
//! Nothing is allocated: values are fed to the hash straight from the
//! rows.

use crate::partition::{fnv1a, FNV_OFFSET};
use crate::{DataType, Row, Schema, Value};

/// Payload tags: a row set, or a tensor of `f64`s (a model's layers).
const ROWS: u8 = b'R';
const TENSOR: u8 = b'T';

/// The tag of each variant. None is zero, so a row's hash leaves 0 at
/// its first value.
const NULL: u8 = 1;
const BOOL: u8 = 2;
const INT: u8 = 3;
const FLOAT: u8 = 4;
const STR: u8 = 5;
const BYTES: u8 = 6;
const TIMESTAMP: u8 = 7;

/// The digest of a run's outputs, fed one output at a time in output
/// order (see the module docs for what it covers).
///
/// # Examples
///
/// ```
/// use pspp_common::{row, DataType, OutputDigest, Schema};
///
/// let schema = Schema::new(vec![("k", DataType::Int), ("s", DataType::Str)]);
/// let of = |rows: &[pspp_common::Row]| {
///     let mut digest = OutputDigest::new();
///     digest.rows(&schema, rows);
///     digest.finish()
/// };
/// let (a, b) = (row![1i64, "x"], row![2i64, "y"]);
/// assert_eq!(of(&[a.clone(), b.clone()]), of(&[b.clone(), a.clone()]));
/// assert_ne!(of(&[a.clone(), b.clone()]), of(&[a.clone(), a, b]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputDigest(u64);

impl Default for OutputDigest {
    fn default() -> Self {
        OutputDigest(FNV_OFFSET)
    }
}

impl OutputDigest {
    /// The digest of no outputs.
    pub fn new() -> Self {
        OutputDigest::default()
    }

    /// Adds one tabular output: `rows` under `schema`, in any order.
    pub fn rows(&mut self, schema: &Schema, rows: &[Row]) {
        self.byte(ROWS);
        self.len(schema.arity());
        for field in schema.fields() {
            self.len(field.name.len());
            self.0 = fnv1a(field.name.as_bytes(), self.0);
            self.byte(type_tag(field.data_type));
        }
        self.len(rows.len());
        let fold = rows
            .iter()
            .fold(0u64, |sum, row| sum.wrapping_add(row_hash(row)));
        self.0 = fnv1a(&fold.to_le_bytes(), self.0);
    }

    /// Adds one tensor: its shape, then its values' bit patterns in
    /// order (one layer's weights or biases of a trained model).
    pub fn tensor(&mut self, shape: &[usize], values: &[f64]) {
        self.byte(TENSOR);
        self.len(shape.len());
        for &dim in shape {
            self.len(dim);
        }
        self.len(values.len());
        for v in values {
            self.0 = fnv1a(&v.to_bits().to_le_bytes(), self.0);
        }
    }

    /// The digest of everything added so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    fn byte(&mut self, b: u8) {
        self.0 = fnv1a(&[b], self.0);
    }

    fn len(&mut self, n: usize) {
        self.0 = fnv1a(&(n as u64).to_le_bytes(), self.0);
    }
}

/// A column type's tag: the tag of its values.
fn type_tag(data_type: DataType) -> u8 {
    match data_type {
        DataType::Bool => BOOL,
        DataType::Int => INT,
        DataType::Float => FLOAT,
        DataType::Str => STR,
        DataType::Bytes => BYTES,
        DataType::Timestamp => TIMESTAMP,
    }
}

/// FNV-1a from 0 over each value's tag and bytes, a string's or byte
/// array's behind its length.
fn row_hash(row: &Row) -> u64 {
    row.iter().fold(0, |hash, value| match value {
        Value::Null => fnv1a(&[NULL], hash),
        Value::Bool(b) => fnv1a(&[BOOL, u8::from(*b)], hash),
        Value::Int(v) => fnv1a(&v.to_le_bytes(), fnv1a(&[INT], hash)),
        Value::Float(v) => fnv1a(&v.to_bits().to_le_bytes(), fnv1a(&[FLOAT], hash)),
        Value::Str(s) => varlen(STR, s.as_bytes(), hash),
        Value::Bytes(b) => varlen(BYTES, b, hash),
        Value::Timestamp(v) => fnv1a(&v.to_le_bytes(), fnv1a(&[TIMESTAMP], hash)),
    })
}

fn varlen(tag: u8, bytes: &[u8], hash: u64) -> u64 {
    let hash = fnv1a(&(bytes.len() as u64).to_le_bytes(), fnv1a(&[tag], hash));
    fnv1a(bytes, hash)
}
