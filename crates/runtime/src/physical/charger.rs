//! The charger: simulated cost attribution for operator execution.

use pspp_accel::{AcceleratorFleet, CostLedger};
use pspp_common::DeviceKind;
use pspp_ir::{NodeId, Operator};
use pspp_optimizer::price;
use pspp_telemetry::MetricsRegistry;

/// Posts an executed operator's [`price::task`] to the ledger and
/// counts the charge per serving device. The price itself — kernel
/// class, serving profile, cycles, transfer — is the price list's.
#[derive(Debug, Clone, Copy)]
pub struct Charger<'a> {
    fleet: &'a AcceleratorFleet,
    /// Metrics sink for kernel-charge counters; borrowed so the charger
    /// stays `Copy`.
    metrics: Option<&'a MetricsRegistry>,
    /// Whether the charged operator reads a device-resident input: a
    /// non-head fused-chain member finds it in the device-local memory
    /// its producer left it in.
    resident: bool,
}

impl<'a> Charger<'a> {
    /// A charger over `fleet`, counting kernel charges per serving
    /// device into `metrics`; `resident` bills the charged operator's
    /// input as device-resident (fused-chain members after the head).
    pub fn new(
        fleet: &'a AcceleratorFleet,
        metrics: Option<&'a MetricsRegistry>,
        resident: bool,
    ) -> Self {
        Charger {
            fleet,
            metrics,
            resident,
        }
    }

    /// Posts the simulated execution cost of `op` to `ledger`; returns
    /// its seconds and the transfer seconds a device-resident input
    /// saved (zero unless the charger bills a resident input).
    ///
    /// Falls back to the host profile when the annotated device does not
    /// support (or has zero efficiency for) the operator's kernel class;
    /// attached accelerators additionally pay their transfer cost. An ML
    /// operator is accounted by the ML engine itself — its kernels
    /// posted their own `mlengine.*` events to the task's ledger while
    /// running — so its cost is their busy seconds and nothing is posted.
    pub fn charge(
        &self,
        ledger: &CostLedger,
        op: &Operator,
        device: DeviceKind,
        rows: u64,
        bytes: u64,
        node: NodeId,
    ) -> (f64, f64) {
        if matches!(
            op,
            Operator::TrainMlp { .. } | Operator::Predict | Operator::KMeansCluster { .. }
        ) {
            return (ledger.busy_for("mlengine").as_secs(), 0.0);
        }
        let price = price::task(self.fleet, op, device, rows, bytes, self.resident);
        let served_by = price.profile.kind();
        ledger.post(
            format!("executor.{}@{node}", op.name()),
            served_by,
            pspp_accel::EventKind::Compute,
            bytes,
            price.duration,
            price.profile.energy_j(price.duration.as_secs()),
        );
        if let Some(metrics) = self.metrics {
            let device = format!("{served_by:?}");
            metrics
                .counter(
                    "pspp_kernel_charges_total",
                    "Operator kernel charges by serving device",
                    &[("device", &device)],
                )
                .inc();
        }
        (price.duration.as_secs(), price.resident_saving)
    }
}
