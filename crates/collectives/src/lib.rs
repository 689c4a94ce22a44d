//! # pip-collectives
//!
//! The collective algorithms of the PiP-MColl reproduction.
//!
//! Every algorithm is written once against the [`comm::Comm`] trait, touching
//! payload bytes only through its buffer type ([`buf::Buf`]), and can then
//! be
//!
//! * **executed** on the thread-based PiP runtime ([`comm::ThreadComm`]),
//!   moving real bytes — this is how correctness is established against the
//!   sequential [`oracle`]; or
//! * **compiled** with [`plan::PlanComm`] into a symbolic [`plan::Plan`]
//!   that can be cached, executed repeatedly ([`plan::PlanCursor`]) and
//!   lowered to a `pip-netsim` trace ([`plan::Plan::to_trace`]) — the
//!   plan/execute split, and how the paper-scale performance figures are
//!   produced.
//!
//! ## Algorithm families
//!
//! * [`binomial`] — binomial-tree broadcast, scatter and gather (the
//!   small-message defaults of MPICH-derived libraries).
//! * [`bruck`] — Bruck allgather and alltoall (non-power-of-two small
//!   messages).
//! * [`recursive_doubling`] — recursive-doubling allgather and allreduce and
//!   the dissemination barrier.
//! * [`ring`] — ring allgather, ring reduce_scatter and ring
//!   (reduce-scatter + allgather) allreduce, the large-message baselines.
//! * [`recursive_halving`] — recursive-halving reduce_scatter, the MPICH
//!   small/medium-message default for commutative operators.
//! * [`scan`] — inclusive and exclusive prefix reductions (recursive
//!   doubling and the linear pipeline Open MPI defaults to).
//! * [`hierarchical`] — classic *single-leader* two-level collectives: the
//!   node leader is the only process that talks to the network, everything
//!   else moves through node-local shared memory.  This is the
//!   "single-object" design the paper improves on.
//! * [`multi_object`] — the PiP-MColl algorithms: every local process drives
//!   the NIC simultaneously, using the shared address space to read and
//!   write the node leader's buffers directly (HPDC '23, §2).
//!
//! [`oracle`] holds sequential reference implementations used by the tests.
//!
//! ## Execution models
//!
//! Compiled plans run one way: a [`plan::PlanCursor`] walks a plan
//! *resumably*, advancing only as completions become available, on buffers
//! it owns.  A blocking collective drives its cursor to completion in place
//! ([`request::drive_to_done`]); the [`request::ProgressEngine`] drives many
//! cursors at once to give MPI-style non-blocking and persistent
//! collectives.

#![warn(missing_docs)]
// The one exception is `datatype::elem_buf`, the byte views of typed
// buffers; every `unsafe` block there documents why it is sound.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod binomial;
pub mod bruck;
pub mod buf;
pub mod comm;
pub mod compress;
pub mod datatype;
pub mod hierarchical;
pub mod multi_object;
pub mod oracle;
pub mod plan;
pub mod recursive_doubling;
pub mod recursive_halving;
pub mod request;
pub mod ring;
pub mod scan;

pub use buf::{Buf, SymBuf, SymVec};
pub use comm::{BufVec, Comm, ReduceFn, ThreadComm};
pub use compress::{Codec, FloatDatatype, FloatElem};
pub use datatype::{
    Datatype, DtypeId, Layout, Op, OwnedReduction, ReduceIdent, ReduceKernel, ReduceOp, Reduction,
};
pub use request::{ProgressEngine, ReqId};

/// Identifies a collective operation (used by the library presets and the
/// benchmark harness to name what they are measuring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// MPI_Bcast.
    Bcast,
    /// MPI_Scatter.
    Scatter,
    /// MPI_Gather.
    Gather,
    /// MPI_Allgather.
    Allgather,
    /// MPI_Reduce.
    Reduce,
    /// MPI_Allreduce.
    Allreduce,
    /// MPI_Reduce_scatter_block.
    ReduceScatter,
    /// MPI_Scan.
    Scan,
    /// MPI_Exscan.
    Exscan,
    /// MPI_Alltoall.
    Alltoall,
    /// MPI_Barrier.
    Barrier,
}

impl CollectiveKind {
    /// Display name matching MPI nomenclature.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveKind::Bcast => "MPI_Bcast",
            CollectiveKind::Scatter => "MPI_Scatter",
            CollectiveKind::Gather => "MPI_Gather",
            CollectiveKind::Allgather => "MPI_Allgather",
            CollectiveKind::Reduce => "MPI_Reduce",
            CollectiveKind::Allreduce => "MPI_Allreduce",
            CollectiveKind::ReduceScatter => "MPI_Reduce_scatter",
            CollectiveKind::Scan => "MPI_Scan",
            CollectiveKind::Exscan => "MPI_Exscan",
            CollectiveKind::Alltoall => "MPI_Alltoall",
            CollectiveKind::Barrier => "MPI_Barrier",
        }
    }

    /// All collectives implemented in this crate.
    pub const ALL: [CollectiveKind; 11] = [
        CollectiveKind::Bcast,
        CollectiveKind::Scatter,
        CollectiveKind::Gather,
        CollectiveKind::Allgather,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::ReduceScatter,
        CollectiveKind::Scan,
        CollectiveKind::Exscan,
        CollectiveKind::Alltoall,
        CollectiveKind::Barrier,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_names_follow_mpi_convention() {
        assert_eq!(CollectiveKind::Allgather.name(), "MPI_Allgather");
        assert_eq!(CollectiveKind::Scatter.name(), "MPI_Scatter");
        assert_eq!(CollectiveKind::Barrier.name(), "MPI_Barrier");
    }

    #[test]
    fn all_kinds_have_unique_names() {
        let names: std::collections::HashSet<_> =
            CollectiveKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), CollectiveKind::ALL.len());
    }
}
