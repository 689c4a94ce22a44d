//! Simulation parameters: everything the engine needs besides the trace.

use pip_transport::cost::{IntranodeCost, IntranodeMechanism, Nanos};
use pip_transport::memcpy::MemcpyModel;
use pip_transport::netcard::{NicModel, NicParams};

/// Parameters of one simulation run.
///
/// A comparator MPI library is expressed as a `SimParams`: its intra-node
/// transport, its per-message software overhead on top of the raw
/// send/receive path, and any per-operation synchronization cost (the
/// PiP-MPICH "message size synchronization" the paper discusses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// The interconnect.
    pub nic: NicParams,
    /// Intra-node transport used when a message's endpoints share a node or
    /// when the trace contains `CopyIntra` operations without an override.
    pub intranode: IntranodeCost,
    /// Host memory model for reductions and local packing.
    pub memcpy: MemcpyModel,
    /// Base cost of a node-local barrier episode.
    pub local_barrier_base: Nanos,
    /// Additional barrier cost per participating rank (fan-in/fan-out work).
    pub local_barrier_per_rank: Nanos,
    /// Library software overhead added to every send (matching, queueing,
    /// datatype handling) on top of the NIC host overhead.
    pub software_send_overhead: Nanos,
    /// Library software overhead added to every receive.
    pub software_recv_overhead: Nanos,
}

impl SimParams {
    /// Parameters using the default Omni-Path NIC and PiP intra-node
    /// transport with no extra software overhead.
    pub fn pip_defaults() -> Self {
        Self {
            nic: NicParams::default(),
            intranode: IntranodeCost::defaults_for(IntranodeMechanism::Pip),
            memcpy: MemcpyModel::default(),
            local_barrier_base: 180.0,
            local_barrier_per_rank: 18.0,
            software_send_overhead: 0.0,
            software_recv_overhead: 0.0,
        }
    }

    /// Replace the intra-node transport.
    pub fn with_intranode(mut self, mechanism: IntranodeMechanism) -> Self {
        self.intranode = IntranodeCost::defaults_for(mechanism);
        self
    }

    /// Add per-message software overhead (library tax).
    pub fn with_software_overhead(mut self, send: Nanos, recv: Nanos) -> Self {
        self.software_send_overhead = send;
        self.software_recv_overhead = recv;
        self
    }

    /// The NIC model wrapper.
    pub fn nic_model(&self) -> NicModel {
        NicModel::new(self.nic)
    }

    /// Cost of one node-local barrier episode with `ppn` participants.
    pub fn barrier_cost(&self, ppn: usize) -> Nanos {
        self.local_barrier_base + self.local_barrier_per_rank * ppn as Nanos
    }
}

impl Default for SimParams {
    fn default() -> Self {
        Self::pip_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_use_pip_transport() {
        let params = SimParams::default();
        assert_eq!(params.intranode.mechanism, IntranodeMechanism::Pip);
    }

    #[test]
    fn builders_modify_fields() {
        let params = SimParams::pip_defaults()
            .with_intranode(IntranodeMechanism::Cma)
            .with_software_overhead(100.0, 120.0);
        assert_eq!(params.intranode.mechanism, IntranodeMechanism::Cma);
        assert_eq!(params.software_send_overhead, 100.0);
        assert_eq!(params.software_recv_overhead, 120.0);
    }

    #[test]
    fn barrier_cost_grows_with_ppn() {
        let params = SimParams::default();
        assert!(params.barrier_cost(18) > params.barrier_cost(2));
    }
}
