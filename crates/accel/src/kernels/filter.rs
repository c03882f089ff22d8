//! Streaming filter/projection in the data-access path (§III-A.2).
//!
//! "A Polystore++ system can stream output of a sequential scan operation
//! returning large amount of data to FPGA-based accelerator to filter
//! and/or project relevant columns and records to reduce the amount of
//! data communicated to the main memory."
//!
//! The kernel filters for real and reports both the cycles spent and the
//! bytes that survive — the executor uses the latter to account for the
//! reduced host-memory traffic in bump-in-the-wire mode.

use crate::device::{DeviceKind, DeviceProfile, KernelClass};
use crate::kernels::{cpu_cores, KernelReport};
use crate::ledger::CostLedger;

/// Result of a filtering pass: the kernel report plus data-reduction info.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// Simulation report.
    pub report: KernelReport,
    /// Input payload bytes.
    pub bytes_in: u64,
    /// Bytes surviving the predicate (what reaches host memory).
    pub bytes_out: u64,
    /// Rows surviving.
    pub rows_out: u64,
}

impl FilterOutcome {
    /// Fraction of input bytes that reached host memory.
    pub fn reduction(&self) -> f64 {
        if self.bytes_in == 0 {
            1.0
        } else {
            self.bytes_out as f64 / self.bytes_in as f64
        }
    }
}

/// Streaming filter/project kernel.
///
/// # Examples
///
/// ```
/// use pspp_accel::kernels::StreamFilter;
/// use pspp_accel::DeviceProfile;
///
/// let data = vec![1i64, -2, 3, -4];
/// let (kept, outcome) = StreamFilter::run(
///     &DeviceProfile::fpga(), &data, 8, |x| **x > 0, None, "scan.filter");
/// assert_eq!(kept, vec![1, 3]);
/// assert!(outcome.reduction() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamFilter;

impl StreamFilter {
    /// Filters `data` with `pred`, charging the device model.
    ///
    /// `elem_bytes` is the payload size of one element (used for byte
    /// accounting; predicates see borrowed elements).
    pub fn run<T: Clone, F: FnMut(&&T) -> bool>(
        profile: &DeviceProfile,
        data: &[T],
        elem_bytes: u64,
        pred: F,
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> (Vec<T>, FilterOutcome) {
        let kept: Vec<T> = data.iter().filter(pred).cloned().collect();
        let n = data.len() as u64;
        let bytes_in = n * elem_bytes;
        let bytes_out = kept.len() as u64 * elem_bytes;
        let cycles = Self::cycles(profile, n, bytes_in);
        let report = KernelReport::charge(
            profile,
            KernelClass::FilterProject,
            n,
            bytes_in,
            cycles,
            ledger,
            component,
        );
        let outcome = FilterOutcome {
            report,
            bytes_in,
            bytes_out,
            rows_out: kept.len() as u64,
        };
        (kept, outcome)
    }

    /// Device cycles to filter `n` elements / `bytes` of payload.
    pub fn cycles(profile: &DeviceProfile, n: u64, bytes: u64) -> u64 {
        let nf = n as f64;
        match profile.kind() {
            DeviceKind::Cpu => {
                // Predicate evaluation (~3 cycles/elem/core) or memory
                // bandwidth, whichever dominates.
                let compute = nf * 3.0 / cpu_cores(profile);
                let mem = bytes as f64 / profile.mem_bw_bps * profile.clock_hz;
                compute.max(mem).ceil() as u64
            }
            DeviceKind::Gpu | DeviceKind::Cgra => {
                let eff = profile.efficiency(KernelClass::FilterProject).max(1e-3);
                (nf / (profile.lanes as f64 * eff)).ceil() as u64
            }
            DeviceKind::Fpga => {
                // Line rate: `lanes` elements per cycle, II=1.
                let eff = profile.efficiency(KernelClass::FilterProject);
                (nf / (profile.lanes as f64 * eff)).ceil() as u64
            }
            DeviceKind::Tpu => u64::MAX / 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_correctly() {
        let data: Vec<i64> = (0..100).collect();
        let (kept, outcome) =
            StreamFilter::run(&DeviceProfile::cpu(), &data, 8, |x| **x % 2 == 0, None, "t");
        assert_eq!(kept.len(), 50);
        assert_eq!(outcome.rows_out, 50);
        assert!((outcome.reduction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fpga_filters_at_line_rate() {
        let fpga = DeviceProfile::fpga();
        let cpu = DeviceProfile::cpu();
        let n = 1u64 << 24;
        let t_fpga = fpga.cycles_to_s(StreamFilter::cycles(&fpga, n, n * 8));
        let t_cpu = cpu.cycles_to_s(StreamFilter::cycles(&cpu, n, n * 8));
        assert!(t_fpga < t_cpu);
    }

    #[test]
    fn cpu_filter_is_memory_bound_for_wide_rows() {
        let cpu = DeviceProfile::cpu();
        let n = 1u64 << 20;
        let narrow = StreamFilter::cycles(&cpu, n, n * 8);
        let wide = StreamFilter::cycles(&cpu, n, n * 512);
        assert!(wide > narrow * 10);
    }

    #[test]
    fn empty_input() {
        let data: Vec<i64> = vec![];
        let (kept, outcome) =
            StreamFilter::run(&DeviceProfile::cpu(), &data, 8, |_| true, None, "t");
        assert!(kept.is_empty());
        assert_eq!(outcome.reduction(), 1.0);
    }
}
