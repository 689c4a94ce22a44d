//! Typed elements and reduction operators.
//!
//! The implementation lives in [`pip_collectives::datatype`] so the
//! collective algorithms, the plan cache and this user-facing crate all
//! share one definition of element types, reduction operators and the
//! monomorphized [`ReduceKernel`]s; this module re-exports it under the
//! historical `pip_mcoll_core::datatype` path.
//!
//! See the source module for the wire-format stability rules (the wire
//! bytes are the host bytes, so only little-endian hosts are supported),
//! the NaN-propagating float semantics and the reduction kernels' loop.

pub use pip_collectives::datatype::{
    as_bytes, as_bytes_mut, from_bytes, read_into, to_bytes, Datatype, DtypeId, ElemBuf, Layout,
    Op, OwnedReduction, ReduceIdent, ReduceKernel, ReduceOp,
};

pub use pip_collectives::compress::FloatDatatype;

/// Built-in and registered operators go through the same entry points:
///
/// ```
/// use pip_mcoll_core::prelude::*;
///
/// let abs_max = Op::of_typed::<f32>(|a, b| a.abs().max(b.abs()));
/// let results = World::builder()
///     .nodes(1)
///     .ppn(2)
///     .library(Library::PipMColl)
///     .run(|comm| {
///         let mut totals = vec![comm.rank() as f32 + 0.25; 4];
///         comm.allreduce(&mut totals, ReduceOp::Sum);
///         let mut peaks = vec![-(comm.rank() as f32) - 0.5; 4];
///         comm.allreduce(&mut peaks, &abs_max);
///         (totals, peaks)
///     })
///     .unwrap();
/// assert_eq!(results[0], (vec![1.5; 4], vec![1.5; 4]));
/// ```
pub use pip_collectives::datatype::Reduction;
