//! Hardware-accelerator simulation substrate for Polystore++.
//!
//! The paper proposes offloading polystore components to FPGAs, GPUs, CGRAs
//! and fixed-function ASICs (TPU-style). None of that hardware is available
//! in a pure-Rust reproduction, so this crate substitutes **cycle-cost
//! device models with a real data plane**: every kernel computes its result
//! for real on the host (sorts sort, GEMMs multiply), while charging a
//! simulated clock and energy ledger derived from the device model. All
//! CPU-vs-accelerator comparisons in the benchmark suite are therefore
//! deterministic, hardware-free, and reproduce the *shape* of the paper's
//! claims (who wins, by what factor, where crossovers fall).
//!
//! Components:
//!
//! * [`DeviceProfile`] / [`DeviceKind`] — clock, parallelism, power, and
//!   per-kernel efficiency for CPU, GPU, FPGA, CGRA and TPU (§II-B).
//! * [`CostLedger`] — the simulated clock: every operation posts a
//!   [`CostEvent`]; reports aggregate by component and device.
//! * [`Interconnect`] — PCIe / network / RDMA transfer models (§III-A.3).
//! * [`logca`] — the LogCA analytical model for offload profitability \[43\].
//! * [`roofline`] — the Roofline model (§IV-B.4).
//! * [`kernels`] — accelerator kernel library: bitonic sort network,
//!   streaming filter/project, systolic GEMM/GEMV, hash partition,
//!   serialization engine (§III-A.1–§III-A.4).
//! * [`AcceleratorFleet`] — the set of devices a deployment owns, with
//!   deployment modes standalone / coprocessor / bump-in-the-wire.
//!
//! # Examples
//!
//! ```
//! use pspp_accel::{AcceleratorFleet, DeviceKind, KernelClass};
//!
//! let fleet = AcceleratorFleet::workstation();
//! let best = fleet.best_device(KernelClass::Gemm).unwrap();
//! assert_eq!(best.kind(), DeviceKind::Tpu);
//! ```

#![forbid(unsafe_code)]
// ROADMAP item 5: no panicking shortcut outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod device;
pub mod exchange;
pub mod fleet;
pub mod kernels;
pub mod ledger;
pub mod link;
pub mod logca;
pub mod roofline;

pub use device::{DeviceKind, DeviceProfile, KernelClass};
pub use fleet::{AcceleratorFleet, DeploymentMode, Placement};
pub use ledger::{CostEvent, CostLedger, CostSummary, EventKind, SimDuration};
pub use link::{Interconnect, LinkKind};
pub use logca::LogCa;
pub use roofline::Roofline;
