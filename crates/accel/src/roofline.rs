//! The Roofline performance model (§IV-B.4, reference \[53\]).
//!
//! Attainable throughput of a kernel on a device is bounded by
//! `min(peak_compute, operational_intensity × memory_bandwidth)`.
//! The paper notes the Roofline model extends naturally to fixed hardware
//! but is harder for reconfigurable fabrics.

use crate::device::DeviceProfile;

/// A device roofline: peak compute and memory bandwidth ceilings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak arithmetic throughput, ops/second.
    pub peak_ops_per_s: f64,
    /// Peak memory bandwidth, bytes/second.
    pub mem_bw_bps: f64,
}

impl Roofline {
    /// Builds the roofline for a device profile.
    pub fn for_device(profile: &DeviceProfile) -> Self {
        Roofline {
            peak_ops_per_s: profile.peak_ops_per_s(),
            mem_bw_bps: profile.mem_bw_bps,
        }
    }

    /// Attainable throughput (ops/s) at operational intensity `oi`
    /// (ops per byte moved).
    pub fn attainable_ops_per_s(&self, oi: f64) -> f64 {
        self.peak_ops_per_s.min(oi * self.mem_bw_bps)
    }

    /// The ridge point: operational intensity where the kernel turns from
    /// memory-bound to compute-bound.
    pub fn ridge_point(&self) -> f64 {
        self.peak_ops_per_s / self.mem_bw_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceilings_apply() {
        let r = Roofline {
            peak_ops_per_s: 1e12,
            mem_bw_bps: 1e11,
        };
        // Below the ridge (10 ops/byte) bandwidth rules.
        assert_eq!(r.attainable_ops_per_s(1.0), 1e11);
        // Above it compute rules.
        assert_eq!(r.attainable_ops_per_s(100.0), 1e12);
        assert!((r.ridge_point() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tpu_ridge_is_far_right() {
        // Systolic arrays need huge intensity to saturate: the ridge point
        // of the TPU must dwarf the CPU's.
        let cpu = Roofline::for_device(&DeviceProfile::cpu());
        let tpu = Roofline::for_device(&DeviceProfile::tpu());
        assert!(tpu.ridge_point() > 30.0 * cpu.ridge_point());
    }
}
