//! The accelerator fleet: which devices a deployment owns, how they are
//! attached, and which device should run a given kernel (§III).

use pspp_common::{Error, Result};

use crate::device::{DeviceKind, DeviceProfile, KernelClass};
use crate::kernels::{
    filter::StreamFilter, gemm::Gemm, partition::HashPartitioner, sort::BitonicSorter,
};
use crate::ledger::SimDuration;
use crate::link::Interconnect;

/// How an accelerator is deployed relative to the data path (§I: "deploy
/// accelerators in standalone, coprocessor, or bump-in-the-wire modes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeploymentMode {
    /// Key functions run entirely on the device; data is resident there.
    Standalone,
    /// Device hangs off the host over PCIe; inputs/outputs cross the link.
    #[default]
    Coprocessor,
    /// Device sits between the store and the host on the data path; no
    /// extra transfer, but throughput is capped by the wire.
    BumpInTheWire,
}

impl std::fmt::Display for DeploymentMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeploymentMode::Standalone => "standalone",
            DeploymentMode::Coprocessor => "coprocessor",
            DeploymentMode::BumpInTheWire => "bump-in-the-wire",
        };
        f.write_str(s)
    }
}

/// One accelerator attached to the deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct AttachedDevice {
    /// Device model.
    pub profile: DeviceProfile,
    /// How it is attached.
    pub mode: DeploymentMode,
    /// The link inputs/outputs cross in coprocessor mode.
    pub link: Interconnect,
}

impl AttachedDevice {
    /// The device kind.
    pub fn kind(&self) -> DeviceKind {
        self.profile.kind()
    }

    /// Transfer cost of moving `bytes` to (or from) the device, given the
    /// deployment mode. Bump-in-the-wire and standalone devices see data
    /// on its existing path, so no extra transfer is charged.
    pub fn transfer_cost(&self, bytes: u64) -> SimDuration {
        match self.mode {
            DeploymentMode::Coprocessor => self.link.transfer_time(bytes),
            DeploymentMode::Standalone | DeploymentMode::BumpInTheWire => SimDuration::ZERO,
        }
    }
}

/// A placement decision: which device runs a kernel and how data reaches
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// The executing device.
    pub device: DeviceKind,
    /// Its deployment mode.
    pub mode: DeploymentMode,
}

impl Placement {
    /// Execution on the host CPU.
    pub fn host() -> Self {
        Placement {
            device: DeviceKind::Cpu,
            mode: DeploymentMode::Standalone,
        }
    }
}

/// The set of computing units available to a Polystore++ deployment.
///
/// # Examples
///
/// ```
/// use pspp_accel::{AcceleratorFleet, DeviceKind, KernelClass};
/// let fleet = AcceleratorFleet::workstation();
/// assert!(fleet.device(DeviceKind::Fpga).is_some());
/// let sorted_on = fleet.best_device(KernelClass::Sort).unwrap().kind();
/// assert_eq!(sorted_on, DeviceKind::Fpga);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorFleet {
    host: DeviceProfile,
    devices: Vec<AttachedDevice>,
    /// Declared physical instances per device kind. Absent kinds keep
    /// the historical exclusive-access fiction (every slot prices the
    /// device as if alone); a declared capacity makes concurrent picks
    /// of the same device queue behind `capacity` servers.
    capacities: Vec<(DeviceKind, usize)>,
}

impl AcceleratorFleet {
    /// A fleet with only the host CPU (the paper's baseline polystore).
    pub fn cpu_only() -> Self {
        AcceleratorFleet {
            host: DeviceProfile::cpu(),
            devices: vec![],
            capacities: vec![],
        }
    }

    /// Host + GPU + FPGA + TPU, all as PCIe coprocessors.
    pub fn workstation() -> Self {
        AcceleratorFleet {
            host: DeviceProfile::cpu(),
            devices: vec![
                AttachedDevice {
                    profile: DeviceProfile::gpu(),
                    mode: DeploymentMode::Coprocessor,
                    link: Interconnect::pcie(),
                },
                AttachedDevice {
                    profile: DeviceProfile::fpga(),
                    mode: DeploymentMode::Coprocessor,
                    link: Interconnect::pcie(),
                },
                AttachedDevice {
                    profile: DeviceProfile::tpu(),
                    mode: DeploymentMode::Coprocessor,
                    link: Interconnect::pcie(),
                },
            ],
            capacities: vec![],
        }
    }

    /// The full menagerie: workstation plus a CGRA coprocessor and the
    /// FPGA moved into the data path (bump-in-the-wire), the §III-A.2
    /// configuration.
    pub fn datacenter() -> Self {
        AcceleratorFleet {
            host: DeviceProfile::cpu(),
            devices: vec![
                AttachedDevice {
                    profile: DeviceProfile::gpu(),
                    mode: DeploymentMode::Coprocessor,
                    link: Interconnect::pcie(),
                },
                AttachedDevice {
                    profile: DeviceProfile::fpga(),
                    mode: DeploymentMode::BumpInTheWire,
                    link: Interconnect::pcie(),
                },
                AttachedDevice {
                    profile: DeviceProfile::cgra(),
                    mode: DeploymentMode::Coprocessor,
                    link: Interconnect::pcie(),
                },
                AttachedDevice {
                    profile: DeviceProfile::tpu(),
                    mode: DeploymentMode::Standalone,
                    link: Interconnect::local(),
                },
            ],
            capacities: vec![],
        }
    }

    /// A custom fleet.
    pub fn new(host: DeviceProfile, devices: Vec<AttachedDevice>) -> Result<Self> {
        if host.kind() != DeviceKind::Cpu {
            return Err(Error::Config("fleet host must be a CPU".into()));
        }
        Ok(AcceleratorFleet {
            host,
            devices,
            capacities: vec![],
        })
    }

    /// Declares `count` physical instances of `kind` (builder style).
    ///
    /// Placement then serializes concurrent same-stage picks of `kind`
    /// onto `count` servers and puts the queue wait on the critical
    /// path; undeclared kinds keep pricing exclusive access.
    pub fn with_capacity(mut self, kind: DeviceKind, count: usize) -> Self {
        self.capacities.retain(|(k, _)| *k != kind);
        if count > 0 {
            self.capacities.push((kind, count));
        }
        self
    }

    /// The declared physical instance count for `kind`, if any.
    pub fn capacity(&self, kind: DeviceKind) -> Option<usize> {
        self.capacities
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| *c)
    }

    /// The host CPU profile.
    pub fn host(&self) -> &DeviceProfile {
        &self.host
    }

    /// The attached accelerators (excluding the host).
    pub fn devices(&self) -> &[AttachedDevice] {
        &self.devices
    }

    /// Looks up an attached device by kind.
    pub fn device(&self, kind: DeviceKind) -> Option<&AttachedDevice> {
        if kind == DeviceKind::Cpu {
            return None;
        }
        self.devices.iter().find(|d| d.kind() == kind)
    }

    /// The profile that executes on `kind` (host or accelerator).
    pub fn profile(&self, kind: DeviceKind) -> Option<&DeviceProfile> {
        if kind == DeviceKind::Cpu {
            Some(&self.host)
        } else {
            self.device(kind).map(|d| &d.profile)
        }
    }

    /// Estimated end-to-end time of running `kernel` over `elems`
    /// reference elements on `device`, including transfer in coprocessor
    /// mode. This is the fleet's internal cost model for device selection.
    pub fn estimate(
        &self,
        device: DeviceKind,
        kernel: KernelClass,
        elems: u64,
    ) -> Option<SimDuration> {
        let profile = self.profile(device)?;
        if !profile.supports(kernel) || profile.efficiency(kernel) <= 0.0 {
            return None;
        }
        let cycles = reference_cycles(profile, kernel, elems);
        let mut t =
            SimDuration::from_secs(profile.cycles_to_s(cycles + profile.launch_overhead_cycles));
        if let Some(attached) = self.device(device) {
            t += attached.transfer_cost(elems * 8);
        }
        Some(t)
    }

    /// The device (possibly the host) minimizing estimated time for
    /// `kernel` at a representative granularity; `None` if no device
    /// supports the kernel.
    pub fn best_device(&self, kernel: KernelClass) -> Option<&DeviceProfile> {
        let elems = reference_elems(kernel);
        let mut best: Option<(&DeviceProfile, SimDuration)> = None;
        for kind in DeviceKind::all() {
            let (Some(profile), Some(t)) = (self.profile(kind), self.estimate(kind, kernel, elems))
            else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                best = Some((profile, t));
            }
        }
        best.map(|(p, _)| p)
    }
}

/// Representative problem size per kernel class for device selection.
fn reference_elems(kernel: KernelClass) -> u64 {
    match kernel {
        KernelClass::Gemm => 512 * 512,
        KernelClass::Gemv => 4096,
        _ => 1 << 22,
    }
}

/// Cycle estimate used by the fleet-internal cost model.
fn reference_cycles(profile: &DeviceProfile, kernel: KernelClass, elems: u64) -> u64 {
    match kernel {
        KernelClass::Sort => BitonicSorter::cycles(profile, elems),
        KernelClass::FilterProject => StreamFilter::cycles(profile, elems, elems * 8),
        KernelClass::Gemm => {
            let edge = (elems as f64).sqrt() as u64;
            Gemm::cycles(profile, edge, edge, edge)
        }
        KernelClass::Gemv => Gemm::cycles(profile, elems, elems, 1),
        KernelClass::HashPartition | KernelClass::Aggregate => {
            HashPartitioner::cycles(profile, elems)
        }
        KernelClass::Serialize => {
            // Representative serialize work is the expensive type
            // transform (PipeGen's dominant cost), not a plain memcpy.
            crate::kernels::serialize::SerializerModel::encode(
                profile,
                elems * 8,
                crate::kernels::serialize::WireFormat::Csv,
                None,
                "fleet.estimate",
            )
            .cycles
        }
        KernelClass::RuleTransform => {
            // ~200 cycles per rule application on CPU, line rate on fabric.
            match profile.kind() {
                DeviceKind::Cpu => elems * 200 / (profile.lanes / 4).max(1),
                _ => elems / (profile.lanes / 4).max(1),
            }
        }
        KernelClass::KMeans => {
            // distance evaluations ~ elems × dim(8) × 2 flops
            let flops = elems as f64 * 16.0;
            let eff = profile.efficiency(kernel).max(1e-3);
            (flops / (profile.lanes as f64 * 2.0 * eff)).ceil() as u64
        }
        KernelClass::GraphTraverse => {
            let eff = profile.efficiency(kernel).max(1e-3);
            ((elems as f64) * 8.0 / (profile.lanes as f64 * eff)).ceil() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_only_fleet_has_no_accelerators() {
        let fleet = AcceleratorFleet::cpu_only();
        assert!(fleet.devices().is_empty());
        // Host still executes everything.
        assert_eq!(
            fleet.best_device(KernelClass::Sort).unwrap().kind(),
            DeviceKind::Cpu
        );
    }

    #[test]
    fn workstation_routes_kernels_to_matched_devices() {
        let fleet = AcceleratorFleet::workstation();
        assert_eq!(
            fleet.best_device(KernelClass::Gemm).unwrap().kind(),
            DeviceKind::Tpu
        );
        assert_eq!(
            fleet.best_device(KernelClass::Sort).unwrap().kind(),
            DeviceKind::Fpga
        );
        // The serializer's type transform (PipeGen's dominant cost) runs
        // at line rate on the fabric and wins even across PCIe.
        assert_eq!(
            fleet.best_device(KernelClass::Serialize).unwrap().kind(),
            DeviceKind::Fpga
        );
        let datacenter = AcceleratorFleet::datacenter();
        assert_eq!(
            datacenter
                .best_device(KernelClass::Serialize)
                .unwrap()
                .kind(),
            DeviceKind::Fpga
        );
    }

    #[test]
    fn bump_in_the_wire_has_no_transfer_cost() {
        let fleet = AcceleratorFleet::datacenter();
        let fpga = fleet.device(DeviceKind::Fpga).unwrap();
        assert_eq!(fpga.mode, DeploymentMode::BumpInTheWire);
        assert_eq!(fpga.transfer_cost(1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn coprocessor_charges_pcie() {
        let fleet = AcceleratorFleet::workstation();
        let gpu = fleet.device(DeviceKind::Gpu).unwrap();
        assert!(gpu.transfer_cost(1 << 30).as_secs() > 0.05);
    }

    #[test]
    fn non_cpu_host_rejected() {
        assert!(AcceleratorFleet::new(DeviceProfile::gpu(), vec![]).is_err());
    }

    #[test]
    fn unsupported_kernel_estimate_is_none() {
        let fleet = AcceleratorFleet::workstation();
        assert!(fleet
            .estimate(DeviceKind::Tpu, KernelClass::Sort, 1024)
            .is_none());
    }
}
