//! Serialization cost models for data migration (§III-A.3).
//!
//! The paper highlights PipeGen's finding that when migrating data between
//! stores "most of the time is spent transforming different data types
//! into optimized binary." This module models the per-byte cost of the
//! three transform paths the migrator supports — text (CSV), binary
//! columnar, and accelerator-pipelined binary — and provides a real
//! columnar byte packer used by the binary pipe.

use crate::device::{DeviceKind, DeviceProfile, KernelClass};
use crate::kernels::{cpu_cores, KernelReport};
use crate::ledger::CostLedger;

/// The wire format a dataset is transformed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Comma-separated text: numeric values are formatted and reparsed.
    Csv,
    /// Typed columnar binary: fixed-width columns are memcpy-ready.
    BinaryColumnar,
}

impl WireFormat {
    /// Host CPU cycles per payload byte to encode into this format.
    ///
    /// CSV pays number formatting (~25 cycles/byte of payload); binary
    /// packing is close to a copy (~1.5 cycles/byte).
    pub fn encode_cycles_per_byte(self) -> f64 {
        match self {
            WireFormat::Csv => 25.0,
            WireFormat::BinaryColumnar => 1.5,
        }
    }

    /// Host CPU cycles per byte to decode from this format.
    pub fn decode_cycles_per_byte(self) -> f64 {
        match self {
            WireFormat::Csv => 30.0, // parsing is dearer than formatting
            WireFormat::BinaryColumnar => 1.0,
        }
    }

    /// Wire-size expansion factor over the in-memory payload.
    ///
    /// Textual encoding of 8-byte numerics inflates data (the paper's
    /// GNMT example: gigabytes of weights balloon "into the terabyte
    /// range" as text). A conservative 2.4× is used for mixed numeric
    /// rows; binary stays 1×.
    pub fn size_factor(self) -> f64 {
        match self {
            WireFormat::Csv => 2.4,
            WireFormat::BinaryColumnar => 1.0,
        }
    }
}

/// Serialization kernel model.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerializerModel;

impl SerializerModel {
    /// Charges the device for transforming `payload_bytes` into `format`.
    ///
    /// On accelerators the transform runs as a streaming pipeline at line
    /// rate irrespective of format (the FPGA formats numbers in hardware),
    /// which is exactly the §III-A.3 offload opportunity.
    pub fn encode(
        profile: &DeviceProfile,
        payload_bytes: u64,
        format: WireFormat,
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> KernelReport {
        let cycles = Self::cycles(profile, payload_bytes, format.encode_cycles_per_byte());
        KernelReport::charge(
            profile,
            KernelClass::Serialize,
            payload_bytes,
            payload_bytes,
            cycles,
            ledger,
            component,
        )
    }

    /// Charges the device for decoding `payload_bytes` from `format`.
    pub fn decode(
        profile: &DeviceProfile,
        payload_bytes: u64,
        format: WireFormat,
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> KernelReport {
        let cycles = Self::cycles(profile, payload_bytes, format.decode_cycles_per_byte());
        KernelReport::charge(
            profile,
            KernelClass::Serialize,
            payload_bytes,
            payload_bytes,
            cycles,
            ledger,
            component,
        )
    }

    /// Charges a **single-threaded stream** transform: one migration
    /// pipe is one connection, so the host cannot parallelize it across
    /// cores (PipeGen's situation); accelerators still stream at line
    /// rate.
    pub fn encode_stream(
        profile: &DeviceProfile,
        payload_bytes: u64,
        format: WireFormat,
        decode: bool,
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> KernelReport {
        let cpb = if decode {
            format.decode_cycles_per_byte()
        } else {
            format.encode_cycles_per_byte()
        };
        let cycles = match profile.kind() {
            DeviceKind::Cpu => (payload_bytes as f64 * cpb).ceil() as u64,
            _ => Self::cycles(profile, payload_bytes, cpb),
        };
        KernelReport::charge(
            profile,
            KernelClass::Serialize,
            payload_bytes,
            payload_bytes,
            cycles,
            ledger,
            component,
        )
    }

    fn cycles(profile: &DeviceProfile, bytes: u64, cpu_cycles_per_byte: f64) -> u64 {
        let bf = bytes as f64;
        match profile.kind() {
            DeviceKind::Cpu => (bf * cpu_cycles_per_byte / cpu_cores(profile)).ceil() as u64,
            DeviceKind::Tpu => u64::MAX / 4,
            _ => {
                // Streaming transform at `lanes` bytes/cycle × efficiency,
                // independent of the textual/binary distinction.
                let eff = profile.efficiency(KernelClass::Serialize).max(1e-3);
                (bf / (profile.lanes as f64 * eff)).ceil() as u64
            }
        }
    }

    /// Packs typed columns into a contiguous little-endian buffer: the
    /// real data plane of the binary pipe.
    pub fn pack_f64s(values: &[f64], out: &mut Vec<u8>) {
        out.reserve(values.len() * 8);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Packs `i64`s little-endian.
    pub fn pack_i64s(values: &[i64], out: &mut Vec<u8>) {
        out.reserve(values.len() * 8);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_encoding_dominates_binary_on_cpu() {
        let cpu = DeviceProfile::cpu();
        let bytes = 1 << 26;
        let csv = SerializerModel::encode(&cpu, bytes, WireFormat::Csv, None, "t");
        let bin = SerializerModel::encode(&cpu, bytes, WireFormat::BinaryColumnar, None, "t");
        let ratio = csv.duration.as_secs() / bin.duration.as_secs();
        assert!(ratio > 10.0, "csv/binary ratio {ratio}");
    }

    #[test]
    fn fpga_serializes_csv_at_line_rate() {
        let cpu = DeviceProfile::cpu();
        let fpga = DeviceProfile::fpga();
        let bytes = 1 << 26;
        let host = SerializerModel::encode(&cpu, bytes, WireFormat::Csv, None, "t");
        let accel = SerializerModel::encode(&fpga, bytes, WireFormat::Csv, None, "t");
        assert!(accel.duration < host.duration);
    }

    #[test]
    fn pack_is_little_endian_in_order() {
        let xs = [1.5f64, -2.25, 0.0, f64::MAX];
        let mut buf = Vec::new();
        SerializerModel::pack_f64s(&xs, &mut buf);
        let want: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(buf, want);

        let ys = [i64::MIN, -1, 0, 42, i64::MAX];
        let mut buf = Vec::new();
        SerializerModel::pack_i64s(&ys, &mut buf);
        let want: Vec<u8> = ys.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(buf, want);
    }

    #[test]
    fn csv_inflates_wire_size() {
        assert!(WireFormat::Csv.size_factor() > 2.0);
        assert_eq!(WireFormat::BinaryColumnar.size_factor(), 1.0);
    }
}
