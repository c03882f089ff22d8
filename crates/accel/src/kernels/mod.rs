//! Accelerator kernel library (§III-A).
//!
//! Each kernel pairs a **real host implementation** (results are always
//! computed, so correctness is testable) with **per-device cycle models**
//! that encode the structural advantage each device has on that kernel —
//! e.g. a spatially unrolled bitonic network streams one element per lane
//! per cycle regardless of the `n·log n` comparison count a CPU must pay.

pub mod filter;
pub mod gemm;
pub mod partition;
pub mod serialize;
pub mod sort;

use crate::device::{DeviceKind, DeviceProfile, KernelClass};
use crate::ledger::{CostEvent, CostLedger, EventKind, SimDuration};

pub use filter::StreamFilter;
pub use gemm::{Gemm, Matrix};
pub use partition::HashPartitioner;
pub use serialize::SerializerModel;
pub use sort::BitonicSorter;

/// The outcome of one simulated kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Device the kernel ran on.
    pub device: DeviceKind,
    /// Kernel class.
    pub kernel: KernelClass,
    /// Elements processed.
    pub elems: u64,
    /// Payload bytes touched.
    pub bytes: u64,
    /// Device cycles charged (includes launch overhead).
    pub cycles: u64,
    /// Simulated duration (`cycles / clock`).
    pub duration: SimDuration,
    /// Energy consumed, joules.
    pub energy_j: f64,
}

impl KernelReport {
    /// Builds a report from a cycle count, deriving time and energy from
    /// the device profile, and optionally posts it to a ledger.
    pub fn charge(
        profile: &DeviceProfile,
        kernel: KernelClass,
        elems: u64,
        bytes: u64,
        busy_cycles: u64,
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> KernelReport {
        let cycles = busy_cycles + profile.launch_overhead_cycles;
        let duration = SimDuration::from_secs(profile.cycles_to_s(cycles));
        let energy_j = profile.energy_j(duration.as_secs());
        let report = KernelReport {
            device: profile.kind(),
            kernel,
            elems,
            bytes,
            cycles,
            duration,
            energy_j,
        };
        if let Some(ledger) = ledger {
            ledger.post_event(report.event(component));
        }
        report
    }

    /// The compute event this kernel run posts as `component`.
    pub fn event(&self, component: &'static str) -> CostEvent {
        CostEvent {
            component: component.into(),
            device: self.device,
            kind: EventKind::Compute,
            bytes: self.bytes,
            duration: self.duration,
            energy_j: self.energy_j,
        }
    }
}

/// Number of host CPU cores implied by a profile (`lanes / simd_width`).
pub(crate) fn cpu_cores(profile: &DeviceProfile) -> f64 {
    (profile.lanes as f64 / 4.0).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_includes_launch_overhead() {
        let gpu = DeviceProfile::gpu();
        let r = KernelReport::charge(&gpu, KernelClass::Gemm, 10, 80, 1_000, None, "t");
        assert_eq!(r.cycles, 1_000 + gpu.launch_overhead_cycles);
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn charge_posts_to_ledger() {
        let ledger = CostLedger::new();
        let cpu = DeviceProfile::cpu();
        KernelReport::charge(
            &cpu,
            KernelClass::Sort,
            4,
            32,
            100,
            Some(&ledger),
            "relstore.sort",
        );
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.events()[0].component, "relstore.sort");
    }
}
