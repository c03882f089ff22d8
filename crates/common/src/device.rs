//! The device-kind vocabulary shared between the IR, optimizer and the
//! accelerator simulator.
//!
//! Device *models* (clocks, power, efficiencies) live in `pspp-accel`;
//! only the enumeration lives here so that plan annotations can name a
//! target device without depending on the simulator.

use std::fmt;

/// The class of computing unit executing a kernel (§II-B of the paper);
/// the host CPU by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// General-purpose multicore host CPU.
    #[default]
    Cpu,
    /// Wide-SIMD throughput device (hundreds of low-clocked cores).
    Gpu,
    /// Reconfigurable pipeline fabric (LUT-based), low clock, deep pipelines.
    Fpga,
    /// Coarse-grain reconfigurable array (Plasticine-like): pattern units,
    /// microsecond reconfiguration.
    Cgra,
    /// Fixed-function systolic matrix engine (TPU/Brainwave-like).
    Tpu,
}

impl DeviceKind {
    /// All device kinds, in a stable order.
    pub fn all() -> [DeviceKind; 5] {
        [
            DeviceKind::Cpu,
            DeviceKind::Gpu,
            DeviceKind::Fpga,
            DeviceKind::Cgra,
            DeviceKind::Tpu,
        ]
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::Cpu => "cpu",
            DeviceKind::Gpu => "gpu",
            DeviceKind::Fpga => "fpga",
            DeviceKind::Cgra => "cgra",
            DeviceKind::Tpu => "tpu",
        };
        f.pad(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_distinct_and_displayable() {
        let mut names: Vec<String> = DeviceKind::all().iter().map(|d| d.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn display_honours_width_and_alignment() {
        assert_eq!(format!("{:<6}|", DeviceKind::Gpu), "gpu   |");
        assert_eq!(format!("{:>5}", DeviceKind::Tpu), "  tpu");
    }
}
