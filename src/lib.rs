//! # pip-mcoll
//!
//! Facade crate for the PiP-MColl reproduction (Huang et al., HPDC '23:
//! *Accelerating MPI Collectives with Process-in-Process-based Multi-object
//! Techniques*).
//!
//! The workspace implements, from scratch:
//!
//! * a Process-in-Process substrate ([`runtime`]): tasks sharing one address
//!   space, exposed memory regions, intra-node synchronization and a
//!   tag-matching fabric;
//! * the intra-node data-movement mechanisms the paper compares against —
//!   POSIX shared memory (double copy), CMA, XPMEM — plus PiP direct copy and
//!   a NIC model, each with a calibrated cost model ([`transport`]);
//! * a discrete-event cluster simulator ([`netsim`]) that replays collective
//!   communication traces against those cost models at the paper's scale
//!   (128 nodes × 18 processes per node);
//! * the collective algorithms ([`collectives`]): the classical baselines
//!   (binomial tree, Bruck, recursive doubling, ring, single-leader
//!   hierarchical) and the PiP-MColl multi-object algorithms;
//! * an MPI-like core library ([`core`]) exposing communicators, datatypes,
//!   point-to-point and collective operations;
//! * comparator library presets ([`model`]) reproducing the algorithm and
//!   transport choices of Open MPI, Intel MPI, MVAPICH2, PiP-MPICH and
//!   PiP-MColl.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the reproduction of every figure in the paper.

#![forbid(unsafe_code)]

pub use pip_collectives as collectives;
pub use pip_mcoll_core as core;
pub use pip_mpi_model as model;
pub use pip_netsim as netsim;
pub use pip_runtime as runtime;
pub use pip_transport as transport;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use pip_collectives::comm::{Comm, ThreadComm};
    pub use pip_mcoll_core::comm::Communicator;
    pub use pip_mcoll_core::datatype::{Datatype, DtypeId, Layout, Op, ReduceKernel, ReduceOp};
    pub use pip_mcoll_core::world::World;
    pub use pip_mpi_model::{Library, LibraryProfile};
    pub use pip_netsim::cluster::ClusterSpec;
    pub use pip_netsim::network::SimulationReport;
    pub use pip_runtime::{Cluster, TaskCtx, Topology};
}
