//! Typed elements and reduction operators.
//!
//! The implementation lives in [`pip_collectives::datatype`] so the
//! collective algorithms, the plan cache and this user-facing crate all
//! share one definition of element types, reduction operators and the
//! monomorphized [`ReduceKernel`]s; this module re-exports it under the
//! historical `pip_mcoll_core::datatype` path.
//!
//! See the source module for the wire-format stability rules, the
//! NaN-propagating float semantics and the chunked kernel design.

pub use pip_collectives::datatype::{
    from_bytes, read_into, to_bytes, Datatype, DtypeId, Layout, Op, OwnedReduction, ReduceIdent,
    ReduceKernel, ReduceOp, LANES,
};

pub use pip_collectives::compress::FloatDatatype;
