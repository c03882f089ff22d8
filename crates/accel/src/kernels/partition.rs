//! Hash partitioning: the shuffle primitive behind joins and group-bys.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::device::{DeviceKind, DeviceProfile, KernelClass};
use crate::kernels::{cpu_cores, KernelReport};
use crate::ledger::CostLedger;

/// Hash-partitioning kernel.
///
/// # Examples
///
/// ```
/// use pspp_accel::kernels::HashPartitioner;
/// use pspp_accel::DeviceProfile;
///
/// let data = vec![1u64, 2, 3, 4, 5, 6, 7, 8];
/// let (parts, _) = HashPartitioner::run(
///     &DeviceProfile::cpu(), data, 4, |x| *x, None, "t");
/// assert_eq!(parts.len(), 4);
/// assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 8);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl HashPartitioner {
    /// Splits `data` into `parts` buckets by key hash, charging the model.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn run<T, K: Hash, F: FnMut(&T) -> K>(
        profile: &DeviceProfile,
        data: Vec<T>,
        parts: usize,
        mut key: F,
        ledger: Option<&CostLedger>,
        component: &'static str,
    ) -> (Vec<Vec<T>>, KernelReport) {
        assert!(parts > 0, "parts must be positive");
        let n = data.len() as u64;
        let mut out: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
        for item in data {
            let mut h = DefaultHasher::new();
            key(&item).hash(&mut h);
            let bucket = (h.finish() % parts as u64) as usize;
            out[bucket].push(item);
        }
        let cycles = Self::cycles(profile, n);
        let report = KernelReport::charge(
            profile,
            KernelClass::HashPartition,
            n,
            n * 8,
            cycles,
            ledger,
            component,
        );
        (out, report)
    }

    /// Device cycles to partition `n` keys.
    pub fn cycles(profile: &DeviceProfile, n: u64) -> u64 {
        let nf = n as f64;
        match profile.kind() {
            DeviceKind::Cpu => (nf * 10.0 / cpu_cores(profile)).ceil() as u64,
            DeviceKind::Tpu => u64::MAX / 4,
            _ => {
                let eff = profile.efficiency(KernelClass::HashPartition).max(1e-3);
                (nf / (profile.lanes as f64 * eff)).ceil() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_deterministic_and_complete() {
        let data: Vec<u64> = (0..1000).collect();
        let (a, _) =
            HashPartitioner::run(&DeviceProfile::cpu(), data.clone(), 8, |x| *x, None, "t");
        let (b, _) = HashPartitioner::run(&DeviceProfile::cpu(), data, 8, |x| *x, None, "t");
        assert_eq!(a, b);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 1000);
    }

    #[test]
    fn same_key_same_bucket() {
        let data = vec![(1u64, "a"), (2, "b"), (1, "c")];
        let (parts, _) = HashPartitioner::run(&DeviceProfile::cpu(), data, 16, |x| x.0, None, "t");
        let bucket_of_1: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().any(|(k, _)| *k == 1))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bucket_of_1.len(), 1);
        assert_eq!(parts[bucket_of_1[0]].len(), 2);
    }

    #[test]
    fn balance_is_reasonable() {
        let data: Vec<u64> = (0..10_000).collect();
        let (parts, _) = HashPartitioner::run(&DeviceProfile::cpu(), data, 4, |x| *x, None, "t");
        for p in &parts {
            let frac = p.len() as f64 / 10_000.0;
            assert!((0.15..0.35).contains(&frac), "skewed bucket: {frac}");
        }
    }

    #[test]
    fn fpga_line_rate_beats_cpu() {
        let cpu = DeviceProfile::cpu();
        let fpga = DeviceProfile::fpga();
        let n = 1 << 22;
        assert!(
            fpga.cycles_to_s(HashPartitioner::cycles(&fpga, n))
                < cpu.cycles_to_s(HashPartitioner::cycles(&cpu, n))
        );
    }
}
