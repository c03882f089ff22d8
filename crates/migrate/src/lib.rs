//! The data migrator (DM): moving datasets between engines (§III-A.3).
//!
//! Three transfer paths reproduce the paper's PipeGen discussion:
//!
//! * [`MigrationPath::CsvFile`] — the naive path: export to CSV text,
//!   ship the (inflated) file, reparse on arrival. Both codec directions
//!   are *really executed* on the row data.
//! * [`MigrationPath::BinaryPipe`] — PipeGen-style typed columnar
//!   buffers streamed over a network pipe, no disk, no text.
//! * [`MigrationPath::Rdma`] — binary buffers over an RDMA link that
//!   bypasses the host protocol stack.
//!
//! Serialization can run on the host CPU or be offloaded to a
//! streaming accelerator ([`Migrator::with_accelerator`]), and the
//! transform and transfer phases can be **pipelined** so the wire and
//! the serializer work concurrently — both §III-A.3 offload
//! opportunities.
//!
//! Every path arrives as a [`Batch`], the receiving engine's in-memory
//! form: the binary decoder writes each column of the frame straight
//! into its typed vector (words into `i64`s or `f64`s, strings into one
//! buffer, bitmaps into validity flags) and sums each row's payload
//! bytes, and builds no row. The runtime hands the batch on as a
//! selection of its rows, which the kernels read where it lies.

// No panicking shortcut outside tests: a malformed frame is an
// `Error::Migration`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csv;

use pspp_accel::kernels::serialize::{SerializerModel, WireFormat};
use pspp_accel::{CostLedger, DeviceProfile, EventKind, Interconnect, SimDuration};
use pspp_common::{
    Batch, Column, DataModel, DataType, DeviceKind, Error, Result, Schema, StrColumn, TypedColumn,
};

/// Which wire path a migration takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationPath {
    /// CSV text over the network, via staging files.
    CsvFile,
    /// Typed binary columns over a network pipe (PipeGen).
    BinaryPipe,
    /// Typed binary columns over RDMA.
    Rdma,
}

impl MigrationPath {
    fn wire_format(self) -> WireFormat {
        match self {
            MigrationPath::CsvFile => WireFormat::Csv,
            _ => WireFormat::BinaryColumnar,
        }
    }
}

/// The cost breakdown of one migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Path taken.
    pub path: MigrationPath,
    /// Payload bytes (in-memory).
    pub payload_bytes: u64,
    /// Bytes on the wire (CSV inflates).
    pub wire_bytes: u64,
    /// Simulated serialization time.
    pub encode: SimDuration,
    /// Simulated wire time.
    pub transfer: SimDuration,
    /// Simulated deserialization time.
    pub decode: SimDuration,
    /// End-to-end simulated time (pipelined when enabled: the slowest
    /// stage dominates instead of the sum).
    pub total: SimDuration,
    /// Whether stages were pipelined.
    pub pipelined: bool,
    /// Extra remodeling factor applied (cross data-model CAST).
    pub remodel_factor: f64,
}

impl MigrationReport {
    /// Fraction of total time spent in (de)serialization — the paper's
    /// "most of the time is spent transforming different data types into
    /// optimized binary".
    pub fn transform_fraction(&self) -> f64 {
        let xform = self.encode.as_secs() + self.decode.as_secs();
        if self.pipelined {
            // In a pipeline the fraction is of the bottleneck structure;
            // report against the stage sum for comparability.
            xform / (xform + self.transfer.as_secs()).max(f64::MIN_POSITIVE)
        } else {
            xform / self.total.as_secs().max(f64::MIN_POSITIVE)
        }
    }
}

/// The data migrator.
#[derive(Debug, Clone)]
pub struct Migrator {
    serializer: DeviceProfile,
    pipelined: bool,
    chunks: u64,
    ledger: Option<CostLedger>,
}

impl Default for Migrator {
    fn default() -> Self {
        Migrator::new()
    }
}

impl Migrator {
    /// A host-CPU migrator over the paper's m4.large-class network.
    pub fn new() -> Self {
        Migrator {
            serializer: DeviceProfile::cpu(),
            pipelined: false,
            chunks: 64,
            ledger: None,
        }
    }

    /// Routes (de)serialization through an accelerator profile
    /// (bump-in-the-wire on the NIC path, so no PCIe charge).
    pub fn with_accelerator(mut self, device: DeviceProfile) -> Self {
        self.serializer = device;
        self
    }

    /// Enables pipelining of transform and transfer (§III: "pipelining
    /// it to reduce latency").
    pub fn pipelined(mut self, on: bool) -> Self {
        self.pipelined = on;
        self
    }

    /// Posts costs to a shared ledger.
    pub fn with_ledger(mut self, ledger: CostLedger) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Migrates a batch, really encoding and re-decoding the data, and
    /// returns the batch as decoded at the destination plus the cost
    /// report.
    ///
    /// `from`/`to` data models add the CAST remodeling factor of
    /// §IV-A.b when they differ.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Migration`] when the codec round-trip fails.
    pub fn migrate(
        &self,
        batch: &Batch,
        path: MigrationPath,
        from: DataModel,
        to: DataModel,
    ) -> Result<(Batch, MigrationReport)> {
        // ---- real data plane ----
        let decoded = match path {
            MigrationPath::CsvFile => {
                let text = csv::encode(batch);
                csv::decode(batch.schema(), &text)
                    .map_err(|e| Error::Migration(format!("csv roundtrip: {e}")))?
            }
            MigrationPath::BinaryPipe | MigrationPath::Rdma => {
                let bytes = binary_encode(batch);
                binary_decode(batch.schema(), &bytes)
                    .map_err(|e| Error::Migration(format!("binary roundtrip: {e}")))?
            }
        };

        // ---- simulated cost plane ----
        let payload = batch.byte_size() as u64;
        let format = path.wire_format();
        let wire_bytes = (payload as f64 * format.size_factor()) as u64;
        let remodel_factor = DataModel::remodel_factor(from, to);

        let encode = SerializerModel::encode_stream(
            &self.serializer,
            payload,
            format,
            false,
            None,
            "migrate.encode",
        );
        let decode = SerializerModel::encode_stream(
            &self.serializer,
            payload,
            format,
            true,
            None,
            "migrate.decode",
        );
        let mut encode_t = SimDuration::from_secs(encode.duration.as_secs() * remodel_factor);
        let mut decode_t = SimDuration::from_secs(decode.duration.as_secs() * remodel_factor);
        // CSV staging also writes + reads a disk file (~200 MB/s).
        if path == MigrationPath::CsvFile {
            let disk = SimDuration::from_secs(wire_bytes as f64 / 200.0e6);
            encode_t += disk;
            decode_t += disk;
        }
        let link = match path {
            MigrationPath::Rdma => Interconnect::rdma(),
            _ => Interconnect::network(),
        };
        let transfer = link.transfer_time(wire_bytes);

        let total = if self.pipelined {
            // Chunked pipeline: fill with the first chunk of each stage,
            // then the slowest stage streams.
            let stages = [encode_t, transfer, decode_t];
            let fill: SimDuration = stages
                .iter()
                .map(|s| SimDuration::from_secs(s.as_secs() / self.chunks as f64))
                .sum();
            let bottleneck = stages.into_iter().fold(SimDuration::ZERO, SimDuration::max);
            fill + bottleneck
        } else {
            encode_t + transfer + decode_t
        };

        if let Some(ledger) = &self.ledger {
            ledger.post(
                "migrate.encode",
                self.serializer.kind(),
                EventKind::Transform,
                payload,
                encode_t,
                self.serializer.energy_j(encode_t.as_secs()),
            );
            ledger.post(
                "migrate.transfer",
                DeviceKind::Cpu,
                EventKind::Transfer,
                wire_bytes,
                transfer,
                0.0,
            );
            ledger.post(
                "migrate.decode",
                self.serializer.kind(),
                EventKind::Transform,
                payload,
                decode_t,
                self.serializer.energy_j(decode_t.as_secs()),
            );
        }

        let report = MigrationReport {
            path,
            payload_bytes: payload,
            wire_bytes,
            encode: encode_t,
            transfer,
            decode: decode_t,
            total,
            pipelined: self.pipelined,
            remodel_factor,
        };
        Ok((decoded, report))
    }
}

/// Typed columnar binary encoding (the PipeGen wire format): the row
/// count, then per column a validity bitmap (bit `r` set when row `r`
/// is not NULL) followed by the column's values.
pub fn binary_encode(batch: &Batch) -> Vec<u8> {
    let mut out = Vec::with_capacity(batch.byte_size() + 64);
    out.extend_from_slice(&(batch.num_rows() as u64).to_le_bytes());
    for (column, valid) in batch.columns() {
        out.extend(valid.chunks(8).map(|bits| {
            bits.iter()
                .enumerate()
                .fold(0u8, |byte, (i, &valid)| byte | u8::from(valid) << i)
        }));
        match column {
            Column::Int(v) | Column::Timestamp(v) => SerializerModel::pack_i64s(v, &mut out),
            Column::Float(v) => SerializerModel::pack_f64s(v, &mut out),
            Column::Bool(v) => out.extend(v.iter().map(|&b| u8::from(b))),
            Column::Str(v) => {
                for s in v.iter() {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
            Column::Bytes(v) => {
                for b in v {
                    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    out.extend_from_slice(b);
                }
            }
        }
    }
    out
}

/// Whether row `r` is not NULL in a column's validity bitmap.
fn is_valid(validity: &[u8], r: usize) -> bool {
    validity[r / 8] >> (r % 8) & 1 == 1
}

/// Decodes [`binary_encode`] output into a batch under `schema`, a
/// column at a time: the bitmap into validity flags, and the values
/// straight into the column's typed vector — fixed-width words as they
/// are, strings into one buffer, each non-NULL one checked UTF-8. A NULL
/// holds its type's default, whatever the frame carries there. No row
/// is built.
///
/// # Errors
///
/// Returns [`Error::Migration`] on truncated or malformed buffers.
pub fn binary_decode(schema: &Schema, bytes: &[u8]) -> Result<Batch> {
    let truncated = || Error::Migration("truncated binary buffer".into());
    let bad_header = || Error::Migration("bad header".into());
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8]> {
        let end = pos
            .checked_add(n)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(truncated)?;
        let s = &bytes[pos..end];
        pos = end;
        Ok(s)
    };
    let n_rows = u64::from_le_bytes(*take(8)?.first_chunk().ok_or_else(truncated)?);
    let n_rows = usize::try_from(n_rows).map_err(|_| bad_header())?;
    let mut columns: Vec<TypedColumn> = Vec::with_capacity(schema.arity());
    for field in schema.fields() {
        // The bitmap is taken before anything is sized by `n_rows`,
        // which bounds it by the buffer's length.
        let bitmap = take(n_rows.div_ceil(8))?;
        let valid: Vec<bool> = (0..n_rows).map(|r| is_valid(bitmap, r)).collect();
        // The values of the rows in order, each `T::default()` where
        // the row is NULL.
        fn words<T: Default>(valid: &[bool], raw: &[[u8; 8]], of: impl Fn([u8; 8]) -> T) -> Vec<T> {
            let word = |(&v, &w)| if v { of(w) } else { T::default() };
            valid.iter().zip(raw).map(word).collect()
        }
        let values = match field.data_type {
            DataType::Bool => {
                let raw = take(n_rows)?;
                Column::Bool(valid.iter().zip(raw).map(|(&v, &b)| v && b != 0).collect())
            }
            data_type @ (DataType::Int | DataType::Timestamp | DataType::Float) => {
                let raw = take(n_rows.checked_mul(8).ok_or_else(bad_header)?)?;
                let raw = raw.as_chunks().0;
                match data_type {
                    DataType::Int => Column::Int(words(&valid, raw, i64::from_le_bytes)),
                    DataType::Timestamp => {
                        Column::Timestamp(words(&valid, raw, i64::from_le_bytes))
                    }
                    _ => Column::Float(words(&valid, raw, f64::from_le_bytes)),
                }
            }
            DataType::Str => {
                let mut strings = StrColumn::default();
                for &v in &valid {
                    let len = u32::from_le_bytes(*take(4)?.first_chunk().ok_or_else(truncated)?);
                    let raw = take(len as usize)?;
                    let bad = |_| Error::Migration("bad utf8".into());
                    strings.push(if v {
                        std::str::from_utf8(raw).map_err(bad)?
                    } else {
                        ""
                    });
                }
                Column::Str(strings)
            }
            DataType::Bytes => {
                let mut arrays = Vec::with_capacity(n_rows);
                for &v in &valid {
                    let len = u32::from_le_bytes(*take(4)?.first_chunk().ok_or_else(truncated)?);
                    let raw = take(len as usize)?;
                    arrays.push(if v { raw.to_vec() } else { Vec::new() });
                }
                Column::Bytes(arrays)
            }
        };
        columns.push((values, valid));
    }
    Batch::from_typed(schema.clone(), n_rows, columns).map_err(|e| Error::Migration(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{row, DataType, Row, Value};

    /// The PipeGen row shape: 4 ints + 3 doubles (§III-A.3).
    fn pipegen_batch(n: usize) -> Batch {
        let schema = Schema::new(vec![
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("d", DataType::Int),
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("z", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                row![
                    i as i64,
                    (i * 2) as i64,
                    (i * 3) as i64,
                    (i * 5) as i64,
                    i as f64 * 0.5,
                    i as f64 * 0.25,
                    i as f64 * 0.125
                ]
            })
            .collect();
        Batch::from_rows(&schema, rows).unwrap()
    }

    #[test]
    fn binary_roundtrip_preserves_rows() {
        let b = pipegen_batch(100);
        let bytes = binary_encode(&b);
        let decoded = binary_decode(b.schema(), &bytes).unwrap();
        assert_eq!(decoded.to_rows(), b.to_rows());
        assert_eq!(decoded, b);
    }

    #[test]
    fn binary_decode_rejects_truncation() {
        let b = pipegen_batch(10);
        let bytes = binary_encode(&b);
        assert!(binary_decode(b.schema(), &bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn a_header_claiming_more_rows_than_the_frame_holds_is_typed() {
        let schema = Schema::new(
            DataType::all()
                .iter()
                .map(|t| (t.to_string(), *t))
                .collect(),
        );
        let row = Row::from(vec![
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::from("ab"),
            Value::Bytes(vec![1, 2]),
            Value::Timestamp(99),
        ]);
        for batch in [
            pipegen_batch(10),
            Batch::from_rows(&schema, vec![row; 3]).unwrap(),
        ] {
            let n = batch.num_rows() as u64;
            for claim in [n + 1, n * 8 + 1, 1 << 40, u64::MAX / 8 + 1, u64::MAX] {
                let mut bytes = binary_encode(&batch);
                bytes[..8].copy_from_slice(&claim.to_le_bytes());
                let got = binary_decode(batch.schema(), &bytes);
                assert!(matches!(got, Err(Error::Migration(_))), "{claim}: {got:?}");
            }
        }
    }

    #[test]
    fn all_paths_preserve_data() {
        let b = pipegen_batch(64);
        let m = Migrator::new();
        for path in [
            MigrationPath::CsvFile,
            MigrationPath::BinaryPipe,
            MigrationPath::Rdma,
        ] {
            let (out, _) = m
                .migrate(&b, path, DataModel::Relational, DataModel::Relational)
                .unwrap();
            assert_eq!(out.to_rows(), b.to_rows(), "{path:?}");
        }
    }

    /// Each value of `rows` as its variant and bits: a float compared
    /// bitwise, where `Value`'s `PartialEq` is not reflexive on NaN
    /// (and takes `-0.0` for `0.0`). Decimal text carries neither a
    /// NaN's sign nor its payload, so over CSV (`any_nan`) a NaN is
    /// any NaN.
    fn bitwise(rows: &[Row], any_nan: bool) -> Vec<Vec<String>> {
        let value = |v: &Value| match v {
            Value::Float(x) if any_nan && x.is_nan() => "Float(NaN)".to_owned(),
            Value::Float(x) => format!("Float({:#018x})", x.to_bits()),
            other => format!("{other:?}"),
        };
        rows.iter()
            .map(|r| r.values().iter().map(value).collect())
            .collect()
    }

    #[test]
    fn nulls_of_every_type_survive_every_path() {
        let types = DataType::all();
        let schema = Schema::new(types.iter().map(|t| (t.to_string(), *t)).collect());
        let full = Row::from(vec![
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::from("a,\"b\""),
            Value::Bytes(vec![0, 0xde, 0xad]),
            Value::Timestamp(99),
        ]);
        // One row per column with that column NULL, between a row with
        // no NULLs and one with nothing else; nine rows, so the bitmap
        // spills into a second byte.
        let mut rows = vec![full.clone()];
        for c in 0..types.len() {
            let mut values = full.clone().into_values();
            values[c] = Value::Null;
            rows.push(Row::from(values));
        }
        rows.push(Row::from(vec![Value::Null; types.len()]));
        rows.push(full);
        // Edge values: `-0.0`, NaNs with a payload (either sign), the
        // empty string, a multi-byte one, empty bytes.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        for (x, text) in [(-0.0, ""), (nan, "é—ü"), (-nan, "\u{1f600}")] {
            rows.push(Row::from(vec![
                Value::Bool(false),
                Value::Int(i64::MIN),
                Value::Float(x),
                Value::from(text),
                Value::Bytes(vec![]),
                Value::Timestamp(i64::MAX),
            ]));
        }
        let batch = Batch::from_rows(&schema, rows.clone()).unwrap();
        // And a frame of no rows at all.
        let empty = Batch::from_rows(&schema, Vec::new()).unwrap();
        for path in [
            MigrationPath::CsvFile,
            MigrationPath::BinaryPipe,
            MigrationPath::Rdma,
        ] {
            for (batch, rows) in [(&batch, &rows[..]), (&empty, &[])] {
                let (migrated, report) = Migrator::new()
                    .migrate(batch, path, DataModel::Relational, DataModel::Relational)
                    .unwrap();
                let csv = path == MigrationPath::CsvFile;
                let out = migrated.to_rows();
                assert_eq!(bitwise(&out, csv), bitwise(rows, csv), "{path:?}");
                // Each row's width is its payload bytes, a NULL one.
                let walked: Vec<u32> = rows.iter().map(|r| r.byte_size() as u32).collect();
                assert_eq!(migrated.widths(), walked, "{path:?}");
                assert_eq!(migrated.schema(), batch.schema());
                // The bill prices payload bytes; validity rides free.
                assert_eq!(report.payload_bytes, batch.byte_size() as u64);
            }
        }
    }

    #[test]
    fn binary_pipe_much_faster_than_csv() {
        let b = pipegen_batch(10_000);
        let m = Migrator::new();
        let (_, csv) = m
            .migrate(
                &b,
                MigrationPath::CsvFile,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        let (_, bin) = m
            .migrate(
                &b,
                MigrationPath::BinaryPipe,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        let speedup = csv.total.as_secs() / bin.total.as_secs();
        assert!(speedup > 2.0, "binary should beat csv, got {speedup:.2}x");
        assert!(csv.wire_bytes > bin.wire_bytes);
    }

    #[test]
    fn csv_time_dominated_by_transform() {
        // The PipeGen observation: most time goes to the type transform.
        let b = pipegen_batch(10_000);
        let m = Migrator::new();
        let (_, csv) = m
            .migrate(
                &b,
                MigrationPath::CsvFile,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        assert!(
            csv.transform_fraction() > 0.4,
            "transform fraction {}",
            csv.transform_fraction()
        );
    }

    #[test]
    fn rdma_beats_tcp_pipe() {
        let b = pipegen_batch(10_000);
        let m = Migrator::new();
        let (_, tcp) = m
            .migrate(
                &b,
                MigrationPath::BinaryPipe,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        let (_, rdma) = m
            .migrate(
                &b,
                MigrationPath::Rdma,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        assert!(rdma.transfer < tcp.transfer);
    }

    #[test]
    fn accelerated_serializer_reduces_encode_time() {
        let b = pipegen_batch(10_000);
        let host = Migrator::new();
        let accel = Migrator::new().with_accelerator(DeviceProfile::fpga());
        let (_, h) = host
            .migrate(
                &b,
                MigrationPath::CsvFile,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        let (_, a) = accel
            .migrate(
                &b,
                MigrationPath::CsvFile,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        assert!(a.encode < h.encode);
    }

    #[test]
    fn pipelining_approaches_bottleneck_time() {
        let b = pipegen_batch(20_000);
        let seq = Migrator::new();
        let piped = Migrator::new().pipelined(true);
        let (_, s) = seq
            .migrate(
                &b,
                MigrationPath::BinaryPipe,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        let (_, p) = piped
            .migrate(
                &b,
                MigrationPath::BinaryPipe,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        assert!(p.total < s.total);
        let bottleneck = s.encode.max(s.transfer).max(s.decode);
        assert!(p.total.as_secs() < bottleneck.as_secs() * 1.2);
    }

    #[test]
    fn remodel_factor_applied_cross_model() {
        let b = pipegen_batch(1_000);
        let m = Migrator::new();
        let (_, same) = m
            .migrate(
                &b,
                MigrationPath::BinaryPipe,
                DataModel::Relational,
                DataModel::Relational,
            )
            .unwrap();
        let (_, cross) = m
            .migrate(
                &b,
                MigrationPath::BinaryPipe,
                DataModel::Relational,
                DataModel::Tensor,
            )
            .unwrap();
        assert!(cross.encode > same.encode);
        assert_eq!(cross.remodel_factor, 2.0);
    }

    #[test]
    fn ledger_receives_three_events() {
        let b = pipegen_batch(100);
        let ledger = CostLedger::new();
        let m = Migrator::new().with_ledger(ledger.clone());
        m.migrate(
            &b,
            MigrationPath::BinaryPipe,
            DataModel::Relational,
            DataModel::Relational,
        )
        .unwrap();
        assert_eq!(ledger.len(), 3);
    }
}
