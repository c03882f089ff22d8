//! The price list: every formula that turns (operator, device, rows,
//! bytes) into simulated seconds, written once.
//!
//! The paper's optimizer (§IV-B) maps a plan onto heterogeneous devices
//! from one model of what offload, transfer and movement cost.
//! [`CostModel`](crate::CostModel) calls these functions on *estimated*
//! volumes while placing, fusing and queueing; `pspp-runtime`'s
//! executor and exchange barriers call the same functions on the
//! *actual* counts. Whatever separates a planned from an executed figure
//! is therefore estimate error plus the terms marked **plan** or
//! **execute** below — never two formulas drifting.
//!
//! | price | formula | stands for | billed by |
//! |---|---|---|---|
//! | [`kernel_class`] | operator → accelerator kernel class | §III-A kernel library | both |
//! | [`planned_profile`] | the device's profile, if it runs the class at non-zero efficiency | §IV-B.3 device choice | plan (an unsupported device is skipped) |
//! | [`serving_profile`] | the same, falling back to the host | §IV-D execution | execute (counted as a host fallback) |
//! | [`compute`] | `cycles_to_s(kernel cycles(rows, bytes) + launch)` | LogCA `o + C(g)/A` | both |
//! | [`training`] | GEMM / k-means flops from rows × feature width | LogCA for ML ops | plan only — executed ML ops bill from the events `mlengine` posts while it trains |
//! | [`launch_seconds`] | `cycles_to_s(launch)` of an attached device | LogCA `o` | plan (the profitability gates) |
//! | [`offload_bytes`] | sorts ship `rows * 16` (key + row id), everything else its payload | LogCA granularity `g` | both |
//! | [`transfer`] | attachment link `latency + bytes/bw` in coprocessor mode, zero otherwise; a device-resident input pays the local link when that is cheaper | PCIe / LogCA `L·g` | both |
//! | [`task`] | [`compute`] + [`transfer`] on the [`serving_profile`] | one offloaded task | execute (the planner adds the same two terms on its [`planned_profile`]) |
//! | [`work_volume`] | a join pays the sum of its sides, everything else its largest pass | build + probe vs one streaming pass | both |
//! | [`TASK_OVERHEAD_S`] | 2 µs per task joined or bucket opened | scatter / gather bookkeeping | both |
//! | [`splice`] | `rows / (host clock · lanes) + width · overhead` | shard-ordered gather, partial-state merge | both for `MergePartials` edges; the planner's per-node gather term (`CostModel::gather_cost`, every fanned-out node) is plan only — the executor splices row handles and posts nothing |
//! | [`exchange_wire`] | 10 GbE, `20 µs + bytes/1.25 GB/s + 0.2 ns/B` host copy | PipeGen wire | both |
//! | [`shuffle_barrier`] | `shuffle_bill` (partition + encode + wire + decode) + `width · overhead` | PipeGen over the exchange | both |
//! | [`migration_estimate`] | wire time × remodel factor | §IV-A.b data-model change | plan only — the `Migrator` bills encode + wire + decode from the frame it actually builds |
//!
//! Billed on the **execute** side alone, with no planned counterpart:
//! `exchange.materialize`'s one-time copy. The engine stores post
//! nothing; every operator they run is billed through [`task`].

use pspp_accel::exchange::{shuffle_bill, ShuffleBill};
use pspp_accel::kernels::{BitonicSorter, Gemm, HashPartitioner, StreamFilter};
use pspp_accel::{AcceleratorFleet, DeviceProfile, Interconnect, KernelClass, SimDuration};
use pspp_common::{DataModel, DeviceKind};
use pspp_ir::Operator;

/// Simulated bookkeeping of one scattered task: the task join of a
/// gather, the bucket open + ordered splice of an exchange destination.
pub const TASK_OVERHEAD_S: f64 = 2e-6;

/// The wire every cross-shard and cross-engine byte is priced over.
pub fn exchange_wire() -> Interconnect {
    Interconnect::network_10g()
}

/// Whether `op` is a join — the operators [`work_volume`] sums over.
pub fn is_join(op: &Operator) -> bool {
    matches!(
        op,
        Operator::HashJoin { .. } | Operator::SortMergeJoin { .. }
    )
}

/// The accelerator kernel class executing `op`.
pub fn kernel_class(op: &Operator) -> KernelClass {
    match op {
        Operator::Scan { .. }
        | Operator::Filter { .. }
        | Operator::Project { .. }
        | Operator::Limit { .. }
        | Operator::TsRange { .. }
        | Operator::TextSearch { .. } => KernelClass::FilterProject,
        Operator::Sort { .. } | Operator::SortMergeJoin { .. } => KernelClass::Sort,
        Operator::HashJoin { .. } => KernelClass::HashPartition,
        Operator::GroupBy { .. } | Operator::TsWindow { .. } => KernelClass::Aggregate,
        Operator::GraphMatch { .. } => KernelClass::GraphTraverse,
        Operator::TrainMlp { .. } => KernelClass::Gemm,
        Operator::Predict => KernelClass::Gemv,
        Operator::KMeansCluster { .. } => KernelClass::KMeans,
    }
}

fn serves(
    fleet: &AcceleratorFleet,
    device: DeviceKind,
    kernel: KernelClass,
) -> Option<&DeviceProfile> {
    fleet
        .profile(device)
        .filter(|p| p.supports(kernel) && p.efficiency(kernel) > 0.0)
}

/// The profile `op` would run on at `device`: `None` when the fleet has
/// no such device or it cannot run the operator's kernel class.
pub fn planned_profile<'f>(
    fleet: &'f AcceleratorFleet,
    op: &Operator,
    device: DeviceKind,
) -> Option<&'f DeviceProfile> {
    serves(fleet, device, kernel_class(op))
}

/// The profile that actually serves `op` planned on `device`: the
/// device's own when it runs the kernel class, the host's otherwise.
pub fn serving_profile<'f>(
    fleet: &'f AcceleratorFleet,
    op: &Operator,
    device: DeviceKind,
) -> &'f DeviceProfile {
    serves(fleet, device, kernel_class(op)).unwrap_or_else(|| fleet.host())
}

fn launched(profile: &DeviceProfile, cycles: u64) -> SimDuration {
    SimDuration::from_secs(profile.cycles_to_s(cycles + profile.launch_overhead_cycles))
}

/// Kernel seconds of `op` over `rows` / `bytes` on `profile`, launch
/// overhead included.
pub fn compute(profile: &DeviceProfile, op: &Operator, rows: u64, bytes: u64) -> SimDuration {
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
    launched(profile, cycles)
}

/// Planned kernel seconds of a training operator from its estimated
/// input (`None` for every other operator): GEMM flops over the hidden
/// layers for `TrainMlp`, distance evaluations for `KMeansCluster`.
/// Plan only — an executed training bills what the ML engine posts.
pub fn training(
    profile: &DeviceProfile,
    op: &Operator,
    est_rows: f64,
    est_bytes: f64,
) -> Option<SimDuration> {
    let cycles = match op {
        Operator::TrainMlp { hidden, epochs, .. } => {
            // epochs × (forward + backward ≈ 6×) GEMM flops.
            let dim = (est_bytes / est_rows.max(1.0) / 8.0).max(4.0);
            let mut flops = 0.0;
            let mut prev = dim;
            for &h in hidden {
                flops += 2.0 * est_rows * prev * h as f64;
                prev = h as f64;
            }
            flops += 2.0 * est_rows * prev;
            flops *= *epochs as f64 * 3.0;
            let edge = (flops / 2.0).cbrt().max(8.0) as u64;
            Gemm::cycles(profile, edge, edge, edge)
        }
        Operator::KMeansCluster { k, max_iters } => {
            let dim = (est_bytes / est_rows.max(1.0) / 8.0).max(2.0);
            let flops = *max_iters as f64 * est_rows * *k as f64 * dim * 3.0;
            let eff = profile.efficiency(KernelClass::KMeans).max(1e-3);
            (flops / (profile.lanes as f64 * 2.0 * eff)).ceil() as u64
        }
        _ => return None,
    };
    Some(launched(profile, cycles))
}

/// Kernel-launch overhead of `device`, in seconds (zero for the host
/// and for a fleet without the device).
pub fn launch_seconds(fleet: &AcceleratorFleet, device: DeviceKind) -> f64 {
    fleet.device(device).map_or(0.0, |attached| {
        let profile = &attached.profile;
        profile.cycles_to_s(profile.launch_overhead_cycles)
    })
}

/// Bytes `op` ships across the offload boundary: a sort ships keys +
/// row ids (16 B/row; the host applies the returned permutation),
/// everything else its payload.
pub fn offload_bytes(op: &Operator, rows: u64, bytes: u64) -> u64 {
    match op {
        Operator::Sort { .. } | Operator::SortMergeJoin { .. } => rows * 16,
        _ => bytes,
    }
}

/// Prices moving `bytes` to `device`: the attachment link in
/// coprocessor mode, nothing for the host and for standalone or
/// bump-in-the-wire devices. A `resident` input — the producer left it
/// in device memory (a fused-chain member after the head) — crosses the
/// device-local link instead when that is cheaper.
pub fn transfer(
    fleet: &AcceleratorFleet,
    device: DeviceKind,
    bytes: u64,
    resident: bool,
) -> SimDuration {
    let attachment = fleet
        .device(device)
        .map_or(SimDuration::ZERO, |attached| attached.transfer_cost(bytes));
    if resident {
        let local = Interconnect::local().transfer_time(bytes);
        if local < attachment {
            return local;
        }
    }
    attachment
}

/// The executed price of one task.
#[derive(Debug, Clone, Copy)]
pub struct TaskPrice<'f> {
    /// The profile that served the task (the host on a fallback).
    pub profile: &'f DeviceProfile,
    /// Kernel seconds plus the billed transfer.
    pub duration: SimDuration,
    /// Transfer seconds a device-resident input saved.
    pub resident_saving: f64,
}

/// Prices `op` over its actual `rows` / `bytes`, planned on `device`.
pub fn task<'f>(
    fleet: &'f AcceleratorFleet,
    op: &Operator,
    device: DeviceKind,
    rows: u64,
    bytes: u64,
    resident: bool,
) -> TaskPrice<'f> {
    let profile = serving_profile(fleet, op, device);
    let moved = offload_bytes(op, rows, bytes);
    let attachment = transfer(fleet, profile.kind(), moved, false);
    let billed = transfer(fleet, profile.kind(), moved, resident);
    TaskPrice {
        profile,
        duration: compute(profile, op, rows, bytes) + billed,
        resident_saving: (attachment - billed).as_secs(),
    }
}

/// The (rows, bytes) a task's kernel works through, from its inputs'
/// volumes: a join builds and probes (the sum of its sides), everything
/// else pays for its largest pass. Zero for a source.
pub fn work_volume<T>(op: &Operator, inputs: impl IntoIterator<Item = (T, T)>) -> (T, T)
where
    T: Copy + Default + PartialOrd + std::ops::Add<Output = T>,
{
    let join = is_join(op);
    let larger = |a: T, b: T| if b > a { b } else { a };
    inputs
        .into_iter()
        .fold((T::default(), T::default()), |(ar, ab), (r, b)| {
            if join {
                (ar + r, ab + b)
            } else {
                (larger(ar, r), larger(ab, b))
            }
        })
}

/// Seconds to splice `rows` row handles from `width` partials on the
/// host — about a cycle per row across its lanes, the payloads never
/// move — plus one task overhead per partial.
pub fn splice(fleet: &AcceleratorFleet, width: usize, rows: f64) -> f64 {
    let host = fleet.host();
    rows / (host.clock_hz * host.lanes as f64) + width as f64 * TASK_OVERHEAD_S
}

/// Prices a shuffle barrier routing `rows` rows (`bytes` payload bytes)
/// to `width` destinations over [`exchange_wire`]: the data plane's
/// [`shuffle_bill`] and, with one task overhead per destination added,
/// the barrier's seconds.
pub fn shuffle_barrier(
    fleet: &AcceleratorFleet,
    accelerate: bool,
    rows: u64,
    bytes: u64,
    width: usize,
) -> (ShuffleBill, f64) {
    let bill = shuffle_bill(fleet, accelerate, rows, bytes, width, &exchange_wire());
    (bill, bill.seconds + width as f64 * TASK_OVERHEAD_S)
}

/// Planned seconds to move `bytes` between data models: the wire alone,
/// scaled by the remodeling factor (§IV-A.b).
pub fn migration_estimate(bytes: u64, from: DataModel, to: DataModel) -> SimDuration {
    let wire = exchange_wire().transfer_time(bytes);
    SimDuration::from_secs(wire.as_secs() * DataModel::remodel_factor(from, to))
}
