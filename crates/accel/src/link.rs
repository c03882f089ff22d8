//! Interconnect models: PCIe, datacenter network, RDMA (§III-A.3).

use std::fmt;

use crate::ledger::SimDuration;

/// The class of link data moves over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Host ↔ accelerator over PCIe.
    Pcie,
    /// Server ↔ server over a TCP datacenter network (the PipeGen path).
    Network,
    /// Server ↔ server over RDMA, bypassing the host network stack
    /// (§III-A.3: "transfer data from one server's memory to another
    /// bypassing overheads of memory copy in a network protocol stack").
    Rdma,
    /// On-board memory (device-local DRAM/HBM); used for standalone mode.
    Local,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkKind::Pcie => "pcie",
            LinkKind::Network => "network",
            LinkKind::Rdma => "rdma",
            LinkKind::Local => "local",
        };
        f.write_str(s)
    }
}

/// A bandwidth/latency model of one interconnect.
///
/// Transfer time follows the classic α+βn model: `latency + bytes/bw`,
/// plus a per-byte CPU copy overhead for protocol stacks that touch host
/// memory (zero for RDMA — that is exactly its advantage).
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    /// The link kind.
    pub kind: LinkKind,
    /// One-way latency, seconds.
    pub latency_s: f64,
    /// Sustained bandwidth, bytes/second.
    pub bandwidth_bps: f64,
    /// Extra host-CPU copy cost per byte (protocol stack, bounce buffers),
    /// seconds/byte. Zero for RDMA and on-board memory.
    pub host_copy_s_per_byte: f64,
}

impl Interconnect {
    /// PCIe gen3 x16-ish: 12 GB/s, 1 µs latency.
    pub fn pcie() -> Self {
        Interconnect {
            kind: LinkKind::Pcie,
            latency_s: 1.0e-6,
            bandwidth_bps: 12.0e9,
            host_copy_s_per_byte: 0.0,
        }
    }

    /// Datacenter TCP: modeled after the paper's PipeGen experiment on
    /// m4.large instances (≈450 Mbit/s effective), 50 µs latency, and a
    /// protocol-stack copy cost on both ends.
    pub fn network() -> Self {
        Interconnect {
            kind: LinkKind::Network,
            latency_s: 50.0e-6,
            bandwidth_bps: 56.25e6, // 450 Mbit/s
            host_copy_s_per_byte: 2.0e-10,
        }
    }

    /// A 10 GbE-class datacenter link for scaled-up scenarios.
    pub fn network_10g() -> Self {
        Interconnect {
            kind: LinkKind::Network,
            latency_s: 20.0e-6,
            bandwidth_bps: 1.25e9,
            host_copy_s_per_byte: 2.0e-10,
        }
    }

    /// RDMA over the same wire as [`Interconnect::network_10g`]: identical
    /// bandwidth, lower latency, and **no host copy** — the paper's
    /// motivation for RDMA accelerators.
    pub fn rdma() -> Self {
        Interconnect {
            kind: LinkKind::Rdma,
            latency_s: 3.0e-6,
            bandwidth_bps: 1.25e9,
            host_copy_s_per_byte: 0.0,
        }
    }

    /// Device-local memory: effectively free transfer for resident data.
    pub fn local() -> Self {
        Interconnect {
            kind: LinkKind::Local,
            latency_s: 0.2e-6,
            bandwidth_bps: 300.0e9,
            host_copy_s_per_byte: 0.0,
        }
    }

    /// Simulated time to move `bytes` over this link, one way.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let wire = self.latency_s + bytes as f64 / self.bandwidth_bps;
        let copies = bytes as f64 * self.host_copy_s_per_byte;
        SimDuration::from_secs(wire + copies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_bytes() {
        let net = Interconnect::network();
        let t1 = net.transfer_time(1 << 20);
        let t2 = net.transfer_time(1 << 24);
        assert!(t2.as_secs() > 10.0 * t1.as_secs());
    }

    #[test]
    fn rdma_beats_tcp_on_same_wire() {
        let bytes = 1 << 30;
        let tcp = Interconnect::network_10g().transfer_time(bytes);
        let rdma = Interconnect::rdma().transfer_time(bytes);
        assert!(rdma < tcp, "rdma {rdma} vs tcp {tcp}");
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let pcie = Interconnect::pcie();
        let t = pcie.transfer_time(64);
        assert!(t.as_secs() > 0.9e-6);
        let effective_bps = 64.0 / t.as_secs();
        assert!(effective_bps < pcie.bandwidth_bps / 100.0);
    }

    #[test]
    fn pipegen_scale_check() {
        // The paper: 10^9 elements (4 int + 3 double ≈ 40 GB incl. overhead)
        // in 35 minutes on m4.large. Pure wire time on our 450 Mbit/s model
        // for 40 GB is ~12.7 min; serialization accounts for the rest,
        // which matches "most of the time is spent transforming".
        let bytes = 40u64 * (1 << 30);
        let t = Interconnect::network().transfer_time(bytes).as_secs();
        assert!(
            (600.0..1500.0).contains(&t),
            "wire time should be minutes-scale, got {t}s"
        );
    }
}
