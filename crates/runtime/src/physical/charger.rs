//! The charger: simulated cost attribution for operator execution.

use pspp_accel::kernels::{BitonicSorter, Gemm, HashPartitioner, StreamFilter};
use pspp_accel::{AcceleratorFleet, CostLedger, Interconnect, KernelClass, SimDuration};
use pspp_common::DeviceKind;
use pspp_ir::{NodeId, Operator};
use pspp_telemetry::MetricsRegistry;

/// Owns ledger/kernel cost attribution: which kernel class an operator
/// maps to, which device profile actually serves it, and the posted
/// compute + transfer + energy charges.
#[derive(Debug, Clone, Copy)]
pub struct Charger<'a> {
    fleet: &'a AcceleratorFleet,
    /// Metrics sink for kernel-charge counters; borrowed so the charger
    /// stays `Copy`.
    metrics: Option<&'a MetricsRegistry>,
    /// Device-resident input link: a non-head fused-chain member reads
    /// its input from the device-local memory its producer left it in,
    /// so the host↔device transfer is billed at this link instead of
    /// the attachment's (PCIe) link.
    resident: Option<&'a Interconnect>,
}

impl<'a> Charger<'a> {
    /// A charger over `fleet`.
    pub fn new(fleet: &'a AcceleratorFleet) -> Self {
        Charger {
            fleet,
            metrics: None,
            resident: None,
        }
    }

    /// Counts kernel charges per serving device into `metrics`.
    pub fn with_metrics(mut self, metrics: Option<&'a MetricsRegistry>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Bills the charged operator's transfer at `link` instead of the
    /// device attachment (fused-chain members after the head).
    pub fn with_resident_link(mut self, link: Option<&'a Interconnect>) -> Self {
        self.resident = link;
        self
    }

    /// The accelerator kernel class executing `op`.
    pub fn kernel_for(op: &Operator) -> KernelClass {
        match op {
            Operator::Sort { .. } | Operator::SortMergeJoin { .. } => KernelClass::Sort,
            Operator::HashJoin { .. } => KernelClass::HashPartition,
            Operator::GroupBy { .. }
            | Operator::TsWindow { .. }
            | Operator::StreamWindow { .. } => KernelClass::Aggregate,
            Operator::GraphMatch { .. } => KernelClass::GraphTraverse,
            Operator::TrainMlp { .. } => KernelClass::Gemm,
            Operator::Predict => KernelClass::Gemv,
            Operator::KMeansCluster { .. } => KernelClass::KMeans,
            _ => KernelClass::FilterProject,
        }
    }

    /// Whether `op`'s cost is accounted by the ML engine itself (its
    /// kernels post their own `mlengine.*` events while running).
    pub fn is_ml_op(op: &Operator) -> bool {
        matches!(
            op,
            Operator::TrainMlp { .. } | Operator::Predict | Operator::KMeansCluster { .. }
        )
    }

    /// The ML engine's busy seconds already posted to `ledger` (the
    /// execution cost of an ML operator run against a node-scoped
    /// ledger).
    pub fn ml_seconds(ledger: &CostLedger) -> f64 {
        ledger.busy_for("mlengine").as_secs()
    }

    /// Posts the simulated execution cost of `op` to `ledger` and
    /// returns its seconds.
    ///
    /// Falls back to the host profile when the annotated device does not
    /// support (or has zero efficiency for) the operator's kernel class;
    /// attached accelerators additionally pay their transfer cost.
    pub fn charge(
        &self,
        ledger: &CostLedger,
        op: &Operator,
        device: DeviceKind,
        rows: u64,
        bytes: u64,
        node: NodeId,
    ) -> f64 {
        self.charge_detailed(ledger, op, device, rows, bytes, node)
            .0
    }

    /// [`Charger::charge`], additionally returning the transfer seconds
    /// saved by a device-resident input link (zero when no
    /// [`Charger::with_resident_link`] applies).
    pub fn charge_detailed(
        &self,
        ledger: &CostLedger,
        op: &Operator,
        device: DeviceKind,
        rows: u64,
        bytes: u64,
        node: NodeId,
    ) -> (f64, f64) {
        let kernel = Self::kernel_for(op);
        let profile = match self.fleet.profile(device) {
            Some(p) if p.supports(kernel) && p.efficiency(kernel) > 0.0 => p,
            _ => self.fleet.host(),
        };
        let cycles = match op {
            Operator::Sort { .. } | Operator::SortMergeJoin { .. } => {
                BitonicSorter::cycles(profile, rows)
            }
            Operator::HashJoin { .. } | Operator::GroupBy { .. } => {
                HashPartitioner::cycles(profile, rows)
            }
            Operator::Predict => Gemm::cycles(profile, rows, 32, 1),
            _ => StreamFilter::cycles(profile, rows, bytes),
        };
        let mut t =
            SimDuration::from_secs(profile.cycles_to_s(cycles + profile.launch_overhead_cycles));
        let mut saved = 0.0f64;
        if let Some(attached) = self.fleet.device(profile.kind()) {
            let transfer_bytes = match op {
                Operator::Sort { .. } | Operator::SortMergeJoin { .. } => rows * 16,
                _ => bytes,
            };
            let full = attached.transfer_cost(transfer_bytes);
            let billed = match self.resident {
                // Resident input: the producer left the data in device
                // memory, so the transfer crosses the local link.
                Some(link) => {
                    let local = link.transfer_time(transfer_bytes);
                    if local < full {
                        local
                    } else {
                        full
                    }
                }
                None => full,
            };
            saved = (full - billed).as_secs();
            t += billed;
        }
        ledger.post(
            format!("executor.{}@{node}", op.name()),
            profile.kind(),
            pspp_accel::EventKind::Compute,
            bytes,
            t,
            profile.energy_j(t.as_secs()),
        );
        if let Some(metrics) = self.metrics {
            let device = format!("{:?}", profile.kind());
            metrics
                .counter(
                    "pspp_kernel_charges_total",
                    "Operator kernel charges by serving device",
                    &[("device", &device)],
                )
                .inc();
        }
        (t.as_secs(), saved)
    }
}
