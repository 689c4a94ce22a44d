//! Cluster descriptions: how many nodes, how many processes per node, and
//! what the interconnect looks like.

use pip_runtime::Topology;
use pip_transport::netcard::NicParams;

/// A simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Processes (PiP tasks) per node.
    pub ppn: usize,
    /// The adapter/link model shared by every node.
    pub nic: NicParams,
}

impl ClusterSpec {
    /// Build a cluster of `nodes` × `ppn` with the default (Omni-Path) NIC.
    pub fn new(nodes: usize, ppn: usize) -> Self {
        Self {
            nodes,
            ppn,
            nic: NicParams::default(),
        }
    }

    /// The paper's testbed: 128 dual-socket Broadwell nodes, 18 ranks per
    /// node (2304 ranks total), Intel Omni-Path at 100 Gb/s and 97 M msg/s.
    pub fn hpdc23() -> Self {
        Self::new(128, 18)
    }

    /// A laptop-sized cluster for tests and examples.
    pub fn small() -> Self {
        Self::new(4, 4)
    }

    /// Replace the NIC model.
    pub fn with_nic(mut self, nic: NicParams) -> Self {
        self.nic = nic;
        self
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.nodes * self.ppn
    }

    /// The topology of this cluster.
    pub fn topology(&self) -> Topology {
        Topology::new(self.nodes, self.ppn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpdc23_matches_the_paper() {
        let spec = ClusterSpec::hpdc23();
        assert_eq!(spec.nodes, 128);
        assert_eq!(spec.ppn, 18);
        assert_eq!(spec.world_size(), 2304);
        assert!((spec.nic.bytes_per_ns - 12.5).abs() < 1e-12);
    }

    #[test]
    fn topology_agrees_with_spec() {
        let spec = ClusterSpec::new(6, 3);
        let topo = spec.topology();
        assert_eq!(topo.nodes(), 6);
        assert_eq!(topo.ppn(), 3);
        assert_eq!(topo.world_size(), spec.world_size());
    }

    #[test]
    fn with_nic_replaces_parameters() {
        let spec = ClusterSpec::small().with_nic(NicParams::commodity_25g());
        assert!(spec.nic.bytes_per_ns < 4.0);
    }
}
