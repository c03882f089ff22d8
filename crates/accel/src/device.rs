//! Device models: CPU, GPU, FPGA, CGRA and TPU profiles (§II-B).

use std::fmt;

pub use pspp_common::DeviceKind;

/// The classes of operators the paper identifies as offload candidates
/// (§III-A.1–§III-A.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Sorting (bitonic network on FPGA \[45\]).
    Sort,
    /// Streaming selection + projection in the data-access path (§III-A.2).
    FilterProject,
    /// Dense matrix-matrix multiply (DNN training, §III-A.1).
    Gemm,
    /// Dense matrix-vector multiply (DNN inference, §III-A.1).
    Gemv,
    /// Hash partition / shuffle.
    HashPartition,
    /// Group-by aggregation.
    Aggregate,
    /// (De)serialization for data migration (§III-A.3).
    Serialize,
    /// Adapter rule-engine: IR-to-native operator mapping (§III-A.4).
    RuleTransform,
    /// Distance + assignment step of clustering (Fig. 7).
    KMeans,
    /// Graph traversal (BFS frontier expansion).
    GraphTraverse,
}

impl KernelClass {
    /// All kernel classes, in a stable order.
    pub fn all() -> [KernelClass; 10] {
        [
            KernelClass::Sort,
            KernelClass::FilterProject,
            KernelClass::Gemm,
            KernelClass::Gemv,
            KernelClass::HashPartition,
            KernelClass::Aggregate,
            KernelClass::Serialize,
            KernelClass::RuleTransform,
            KernelClass::KMeans,
            KernelClass::GraphTraverse,
        ]
    }
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelClass::Sort => "sort",
            KernelClass::FilterProject => "filter-project",
            KernelClass::Gemm => "gemm",
            KernelClass::Gemv => "gemv",
            KernelClass::HashPartition => "hash-partition",
            KernelClass::Aggregate => "aggregate",
            KernelClass::Serialize => "serialize",
            KernelClass::RuleTransform => "rule-transform",
            KernelClass::KMeans => "kmeans",
            KernelClass::GraphTraverse => "graph-traverse",
        };
        f.write_str(s)
    }
}

/// A concrete device model.
///
/// All simulated costs in the workspace derive from these few parameters,
/// so the model stays auditable: `time = cycles / clock_hz`,
/// `energy = time × power_w`, and each kernel's cycle count comes from the
/// throughput fields below (see [`crate::kernels`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Which class of device this is.
    pub kind: DeviceKind,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Number of parallel lanes (cores × SIMD width for CPU/GPU, parallel
    /// pipelines for FPGA/CGRA, MAC-array edge for TPU).
    pub lanes: u64,
    /// Board power draw while busy, in watts.
    pub power_w: f64,
    /// Idle power draw, in watts (charged while a kernel's device waits).
    pub idle_power_w: f64,
    /// Peak local memory bandwidth in bytes/second.
    pub mem_bw_bps: f64,
    /// Fixed per-kernel-launch overhead in cycles (driver + setup). Zero
    /// for the host CPU.
    pub launch_overhead_cycles: u64,
    /// Time to reconfigure the fabric for a different kernel, in seconds.
    /// Zero for fixed-function and instruction-programmed devices.
    pub reconfigure_s: f64,
    /// One-time synthesis / place-and-route cost in seconds (FPGA only).
    /// Charged by design-space exploration when it evaluates a brand-new
    /// configuration (§IV-A.d: "repeated synthesis ... hours to days").
    pub synthesis_s: f64,
}

impl DeviceProfile {
    /// A 16-core, 3 GHz host CPU with AVX-ish 4-wide lanes.
    pub fn cpu() -> Self {
        DeviceProfile {
            kind: DeviceKind::Cpu,
            clock_hz: 3.0e9,
            lanes: 64, // 16 cores x 4-wide SIMD
            power_w: 95.0,
            idle_power_w: 25.0,
            mem_bw_bps: 60.0e9,
            launch_overhead_cycles: 0,
            reconfigure_s: 0.0,
            synthesis_s: 0.0,
        }
    }

    /// A discrete GPU: 1.4 GHz, 4096 lanes, 600 GB/s HBM.
    pub fn gpu() -> Self {
        DeviceProfile {
            kind: DeviceKind::Gpu,
            clock_hz: 1.4e9,
            lanes: 4096,
            power_w: 250.0,
            idle_power_w: 30.0,
            mem_bw_bps: 600.0e9,
            launch_overhead_cycles: 20_000, // ~14 us kernel launch
            reconfigure_s: 0.0,
            synthesis_s: 0.0,
        }
    }

    /// A mid-size FPGA: 300 MHz fabric, 64 parallel pipeline lanes,
    /// 100 ms full reconfiguration, hours-scale synthesis.
    pub fn fpga() -> Self {
        DeviceProfile {
            kind: DeviceKind::Fpga,
            clock_hz: 300.0e6,
            lanes: 64,
            power_w: 25.0,
            idle_power_w: 5.0,
            mem_bw_bps: 38.0e9,
            launch_overhead_cycles: 3_000, // ~10 us DMA descriptor setup
            reconfigure_s: 0.100,
            synthesis_s: 4.0 * 3600.0,
        }
    }

    /// A CGRA (Plasticine-like): 1 GHz pattern units, microsecond
    /// reconfiguration (§II-B: "CGRAs have short reconfiguration time").
    pub fn cgra() -> Self {
        DeviceProfile {
            kind: DeviceKind::Cgra,
            clock_hz: 1.0e9,
            lanes: 256,
            power_w: 15.0,
            idle_power_w: 3.0,
            mem_bw_bps: 100.0e9,
            launch_overhead_cycles: 1_000,
            reconfigure_s: 20.0e-6,
            synthesis_s: 60.0, // minutes-scale mapping, not hours
        }
    }

    /// A TPU-style systolic array: 256×256 MACs at 700 MHz, fixed function.
    pub fn tpu() -> Self {
        DeviceProfile {
            kind: DeviceKind::Tpu,
            clock_hz: 700.0e6,
            lanes: 256, // systolic edge; peak MACs/cycle = lanes^2
            power_w: 75.0,
            idle_power_w: 10.0,
            mem_bw_bps: 300.0e9,
            launch_overhead_cycles: 10_000,
            reconfigure_s: 0.0,
            synthesis_s: 0.0,
        }
    }

    /// The default profile for a device kind.
    pub fn preset(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::Cpu => Self::cpu(),
            DeviceKind::Gpu => Self::gpu(),
            DeviceKind::Fpga => Self::fpga(),
            DeviceKind::Cgra => Self::cgra(),
            DeviceKind::Tpu => Self::tpu(),
        }
    }

    /// Which device kind this profile models.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Whether this device can run `kernel` at all.
    ///
    /// Fixed-function devices only run their matched kernels; the CPU runs
    /// everything; reconfigurable fabrics run everything they have a
    /// bitstream for.
    pub fn supports(&self, kernel: KernelClass) -> bool {
        match self.kind {
            DeviceKind::Cpu | DeviceKind::Fpga | DeviceKind::Cgra => true,
            // Divergent control flow (rule engines, varlen text framing)
            // does not map onto SIMD lanes.
            DeviceKind::Gpu => {
                !matches!(kernel, KernelClass::RuleTransform | KernelClass::Serialize)
            }
            DeviceKind::Tpu => matches!(
                kernel,
                KernelClass::Gemm | KernelClass::Gemv | KernelClass::KMeans
            ),
        }
    }

    /// Sustained efficiency (0..=1] of this device on a kernel class,
    /// relative to its own peak throughput. Encodes the paper's qualitative
    /// matching: GPUs excel at SIMD matrix work, FPGAs at streaming
    /// pipelines, TPUs at GEMM, CPUs are mediocre everywhere.
    pub fn efficiency(&self, kernel: KernelClass) -> f64 {
        use DeviceKind::*;
        use KernelClass::*;
        match (self.kind, kernel) {
            (Cpu, Gemm | Gemv) => 0.30,
            (Cpu, Sort) => 0.25,
            (Cpu, _) => 0.35,
            (Gpu, Gemm) => 0.65,
            (Gpu, Gemv) => 0.40,
            (Gpu, KMeans) => 0.55,
            (Gpu, Sort) => 0.06, // global-memory-bound bitonic schedule
            (Gpu, FilterProject | HashPartition | Aggregate) => 0.30,
            (Gpu, Serialize) => 0.0,
            (Gpu, GraphTraverse) => 0.15, // irregular access
            (Gpu, RuleTransform) => 0.0,
            (Fpga, Sort | FilterProject | Serialize) => 0.95, // II=1 pipelines
            (Fpga, HashPartition | Aggregate | RuleTransform) => 0.85,
            (Fpga, Gemm | Gemv) => 0.50,
            (Fpga, KMeans) => 0.70,
            (Fpga, GraphTraverse) => 0.40,
            (Cgra, Gemm | Gemv | KMeans) => 0.60,
            (Cgra, Sort | FilterProject | HashPartition | Aggregate) => 0.75,
            (Cgra, Serialize | RuleTransform) => 0.65,
            (Cgra, GraphTraverse) => 0.35,
            (Tpu, Gemm) => 0.90,
            (Tpu, Gemv) => 0.35, // memory-bound on a systolic array
            (Tpu, KMeans) => 0.60,
            (Tpu, _) => 0.0,
        }
    }

    /// Peak arithmetic throughput in operations per second (multiply-add
    /// counted as two ops for CPU/GPU; the TPU's systolic array performs
    /// `lanes²` MACs per cycle).
    pub fn peak_ops_per_s(&self) -> f64 {
        match self.kind {
            DeviceKind::Tpu => self.clock_hz * (self.lanes as f64) * (self.lanes as f64) * 2.0,
            _ => self.clock_hz * self.lanes as f64 * 2.0,
        }
    }

    /// Converts cycles on this device to simulated seconds.
    pub fn cycles_to_s(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// Busy energy in joules for a simulated duration.
    pub fn energy_j(&self, busy_s: f64) -> f64 {
        busy_s * self.power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_all_kinds() {
        for kind in DeviceKind::all() {
            let p = DeviceProfile::preset(kind);
            assert_eq!(p.kind(), kind);
            assert!(p.clock_hz > 0.0);
            assert!(p.power_w > p.idle_power_w);
        }
    }

    #[test]
    fn tpu_only_runs_matrix_kernels() {
        let tpu = DeviceProfile::tpu();
        assert!(tpu.supports(KernelClass::Gemm));
        assert!(!tpu.supports(KernelClass::Sort));
        assert_eq!(tpu.efficiency(KernelClass::Serialize), 0.0);
    }

    #[test]
    fn cpu_runs_everything() {
        let cpu = DeviceProfile::cpu();
        for k in KernelClass::all() {
            assert!(cpu.supports(k));
            assert!(cpu.efficiency(k) > 0.0);
        }
    }

    #[test]
    fn fpga_beats_cpu_on_streaming_efficiency() {
        let cpu = DeviceProfile::cpu();
        let fpga = DeviceProfile::fpga();
        for k in [
            KernelClass::Sort,
            KernelClass::FilterProject,
            KernelClass::Serialize,
        ] {
            assert!(fpga.efficiency(k) > cpu.efficiency(k));
        }
    }

    #[test]
    fn tpu_peak_is_orders_of_magnitude_above_cpu() {
        let cpu = DeviceProfile::cpu().peak_ops_per_s();
        let tpu = DeviceProfile::tpu().peak_ops_per_s();
        assert!(tpu / cpu > 100.0, "tpu {tpu:.2e} vs cpu {cpu:.2e}");
    }

    #[test]
    fn cgra_reconfigures_much_faster_than_fpga() {
        assert!(DeviceProfile::cgra().reconfigure_s < DeviceProfile::fpga().reconfigure_s / 100.0);
    }

    #[test]
    fn cycles_to_seconds() {
        let cpu = DeviceProfile::cpu();
        assert!((cpu.cycles_to_s(3_000_000_000) - 1.0).abs() < 1e-12);
    }
}
