//! # pip-mcoll-core
//!
//! The user-facing MPI-like library of the PiP-MColl reproduction: typed
//! datatypes and reduction operators, communicators with point-to-point and
//! collective operations, and a [`world::World`] launcher that spins up a
//! simulated cluster inside the current process.
//!
//! The collective implementations live in `pip-collectives`; which algorithm
//! a call uses is decided by the [`pip_mpi_model::LibraryProfile`] the
//! communicator was created with, exactly as the comparator MPI libraries
//! make that decision from message size and communicator shape.  Running the
//! same program under `Library::PipMColl` and under `Library::Mvapich2`
//! therefore exercises the paper's design and its baseline on identical
//! workloads.
//!
//! ```
//! use pip_mcoll_core::prelude::*;
//!
//! // 2 nodes x 3 processes, PiP-MColl algorithms.
//! let sums = World::builder()
//!     .nodes(2)
//!     .ppn(3)
//!     .library(Library::PipMColl)
//!     .run(|comm| {
//!         let mine = [comm.rank() as u64];
//!         let everyone = comm.allgather(&mine);
//!         everyone.iter().sum::<u64>()
//!     })
//!     .unwrap();
//! assert!(sums.iter().all(|&s| s == 15));
//! ```
//!
//! Beyond the blocking calls, [`comm::Communicator`] offers request-based
//! **non-blocking** collectives (`iallgather`, `iallreduce`, `ireduce`,
//! `ireduce_scatter`, `iscan`, …) returning a [`comm::CollRequest`], and
//! **persistent** handles (`allgather_init`, `allreduce_init`,
//! `reduce_scatter_init`, …) that pin a compiled plan to pre-bound buffers
//! and can be started any number of times ([`comm::PersistentColl`]).
//! The reduction family — `reduce`, `reduce_scatter`, `scan`, `exscan` —
//! shares all three entry styles with the original six collectives, and
//! every reduction takes its operator as one argument: a built-in
//! `ReduceOp` or a registered `&Op` ([`datatype::Reduction`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod datatype;
pub mod world;

/// Convenient re-exports for application code.
pub mod prelude {
    pub use crate::comm::{wait_all, CollRequest, Communicator, PersistentColl};
    pub use crate::datatype::{Datatype, DtypeId, Layout, Op, ReduceKernel, ReduceOp};
    pub use crate::world::{World, WorldBuilder};
    pub use pip_mpi_model::Library;
    pub use pip_runtime::Topology;
}

pub use comm::{wait_all, CollRequest, Communicator, PersistentColl};
pub use datatype::{
    Datatype, DtypeId, Layout, Op, OwnedReduction, ReduceIdent, ReduceKernel, ReduceOp, Reduction,
};
pub use world::{World, WorldBuilder};
