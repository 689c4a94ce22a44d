//! # pip-mpi-model
//!
//! Models of the MPI libraries the paper compares against, plus PiP-MColl
//! itself.  A [`LibraryProfile`] bundles everything that distinguishes the
//! comparators at the message sizes the paper studies:
//!
//! * which **algorithm** the library selects for each collective and message
//!   size ([`selection`]),
//! * which **intra-node transport** it uses (CMA, XPMEM, POSIX shared
//!   memory, or PiP),
//! * its per-message **software overhead** and, for PiP-MPICH, the
//!   message-size synchronization cost the paper identifies as its weakness,
//!
//! and knows how to turn all of that into the `SimParams` the discrete-event
//! simulator consumes and how to [`dispatch`] a collective call to the right
//! algorithm implementation (for real execution on the thread runtime or for
//! recording into a [`plan`], which lowers to a simulator trace).
//!
//! Calibration constants and their provenance are documented in
//! [`calibration`].

#![forbid(unsafe_code)]

pub mod calibration;
pub mod dispatch;
pub mod plan;
pub mod selection;

use pip_netsim::params::SimParams;
use pip_transport::cost::{IntranodeMechanism, Nanos};

pub use dispatch::OwnedCollective;
pub use plan::{
    compile_folded, ClusterPlanCache, CollectiveShape, CompressSpec, PlanCache, PlanKey,
};
pub use selection::{Algorithm, Selection};

/// The five MPI implementations evaluated in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Library {
    /// Open MPI: flat (non-node-aware) algorithms over CMA for intra-node
    /// transfers.
    OpenMpi,
    /// Intel MPI: flat small-message algorithms over a POSIX shared-memory
    /// double-copy transport, with slightly leaner software overhead.
    IntelMpi,
    /// MVAPICH2: node-aware (single-leader) scatter/bcast plus flat
    /// small-message allgather, over kernel-assisted CMA/XPMEM transports.
    Mvapich2,
    /// PiP-MPICH: MPICH's flat algorithms running on PiP address-space
    /// sharing — the paper's baseline.  Fast copies, but every transfer pays
    /// the message-size synchronization the paper calls out.
    PipMpich,
    /// PiP-MColl: the paper's contribution — multi-object node-aware
    /// algorithms over PiP.
    PipMColl,
}

impl Library {
    /// All libraries in the order the paper's figures list them.
    pub const ALL: [Library; 5] = [
        Library::OpenMpi,
        Library::IntelMpi,
        Library::Mvapich2,
        Library::PipMpich,
        Library::PipMColl,
    ];

    /// Display name used in figures and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Library::OpenMpi => "Open MPI",
            Library::IntelMpi => "Intel-MPI",
            Library::Mvapich2 => "MVAPICH2",
            Library::PipMpich => "PiP-MPICH",
            Library::PipMColl => "PiP-MColl",
        }
    }

    /// The default profile for this library.
    pub fn profile(&self) -> LibraryProfile {
        LibraryProfile::for_library(*self)
    }
}

/// Everything that characterizes one MPI implementation in this model.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryProfile {
    /// Which library this profile describes.
    pub library: Library,
    /// Intra-node data-movement mechanism.
    pub intranode: IntranodeMechanism,
    /// Software overhead added to every send beyond the NIC host overhead
    /// (matching, queueing, datatype handling).
    pub software_send_overhead: Nanos,
    /// Software overhead added to every receive.
    pub software_recv_overhead: Nanos,
    /// Extra synchronization cost paid on every message (send and receive)
    /// by PiP-MPICH: the "message size synchronization before
    /// communications" the paper identifies (§3).
    pub per_message_sync: Nanos,
    /// Algorithm selection: the library's ordered rule list, read through
    /// [`LibraryProfile::algorithm_for`].
    pub selection: Selection,
}

impl LibraryProfile {
    /// The default profile of `library`, calibrated per [`calibration`].
    pub fn for_library(library: Library) -> Self {
        use calibration as cal;
        match library {
            Library::OpenMpi => Self {
                library,
                intranode: IntranodeMechanism::Cma,
                software_send_overhead: cal::OPENMPI_SEND_OVERHEAD,
                software_recv_overhead: cal::OPENMPI_RECV_OVERHEAD,
                per_message_sync: 0.0,
                selection: Selection::new(selection::OPEN_MPI),
            },
            Library::IntelMpi => Self {
                library,
                intranode: IntranodeMechanism::PosixShmem,
                software_send_overhead: cal::INTELMPI_SEND_OVERHEAD,
                software_recv_overhead: cal::INTELMPI_RECV_OVERHEAD,
                per_message_sync: 0.0,
                selection: Selection::new(selection::INTEL_MPI),
            },
            Library::Mvapich2 => Self {
                library,
                intranode: IntranodeMechanism::Xpmem,
                software_send_overhead: cal::MVAPICH2_SEND_OVERHEAD,
                software_recv_overhead: cal::MVAPICH2_RECV_OVERHEAD,
                per_message_sync: 0.0,
                selection: Selection::new(selection::MVAPICH2),
            },
            Library::PipMpich => Self {
                library,
                intranode: IntranodeMechanism::Pip,
                software_send_overhead: cal::PIPMPICH_SEND_OVERHEAD,
                software_recv_overhead: cal::PIPMPICH_RECV_OVERHEAD,
                per_message_sync: cal::PIPMPICH_SIZE_SYNC,
                selection: Selection::new(selection::PIP_MPICH),
            },
            Library::PipMColl => Self {
                library,
                intranode: IntranodeMechanism::Pip,
                software_send_overhead: cal::PIPMCOLL_SEND_OVERHEAD,
                software_recv_overhead: cal::PIPMCOLL_RECV_OVERHEAD,
                per_message_sync: 0.0,
                selection: Selection::new(selection::PIP_MCOLL),
            },
        }
    }

    /// Display name of the library.
    pub fn name(&self) -> &'static str {
        self.library.name()
    }

    /// The algorithm this profile runs for `shape` on a communicator of
    /// `world` ranks — the one place dispatch and the plan caches decide
    /// it.  For an allreduce `shape.block` is the packed byte count.
    pub fn algorithm_for(&self, shape: &CollectiveShape, world: usize) -> Algorithm {
        self.selection.algorithm(shape.kind, shape.block, world)
    }

    /// Simulation parameters for this library on the given NIC.
    pub fn sim_params(&self, nic: pip_transport::netcard::NicParams) -> SimParams {
        let mut params = SimParams::pip_defaults().with_intranode(self.intranode);
        params.nic = nic;
        params.software_send_overhead = self.software_send_overhead + self.per_message_sync;
        params.software_recv_overhead = self.software_recv_overhead + self.per_message_sync;
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_libraries_match_the_figures() {
        assert_eq!(Library::ALL.len(), 5);
        let names: Vec<_> = Library::ALL.iter().map(Library::name).collect();
        assert_eq!(
            names,
            vec![
                "Open MPI",
                "Intel-MPI",
                "MVAPICH2",
                "PiP-MPICH",
                "PiP-MColl"
            ]
        );
    }

    #[test]
    fn pip_libraries_use_pip_transport() {
        assert_eq!(
            Library::PipMpich.profile().intranode,
            IntranodeMechanism::Pip
        );
        assert_eq!(
            Library::PipMColl.profile().intranode,
            IntranodeMechanism::Pip
        );
    }

    #[test]
    fn only_pip_mpich_pays_size_synchronization() {
        for library in Library::ALL {
            let profile = library.profile();
            if library == Library::PipMpich {
                assert!(profile.per_message_sync > 0.0);
            } else {
                assert_eq!(profile.per_message_sync, 0.0);
            }
        }
    }

    #[test]
    fn sim_params_fold_sync_into_software_overhead() {
        let nic = pip_transport::netcard::NicParams::default();
        let pip_mpich = Library::PipMpich.profile().sim_params(nic);
        let pip_mcoll = Library::PipMColl.profile().sim_params(nic);
        assert!(pip_mpich.software_send_overhead > pip_mcoll.software_send_overhead);
        assert_eq!(pip_mpich.intranode.mechanism, IntranodeMechanism::Pip);
    }

    #[test]
    fn comparators_use_kernel_or_shm_transports() {
        assert_eq!(
            Library::OpenMpi.profile().intranode,
            IntranodeMechanism::Cma
        );
        assert_eq!(
            Library::IntelMpi.profile().intranode,
            IntranodeMechanism::PosixShmem
        );
        assert_eq!(
            Library::Mvapich2.profile().intranode,
            IntranodeMechanism::Xpmem
        );
    }
}
