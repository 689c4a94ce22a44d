//! Dispatching a collective call to the algorithm a library would select.
//!
//! An [`OwnedCollective`] is the one description of a collective invocation,
//! whatever its entry style: a blocking call runs it to completion in place
//! ([`run_blocking`]), a non-blocking request or persistent handle wraps it
//! in a cursor the progress engine drives ([`begin_planned`],
//! [`plan_owned`]).  All three derive the same
//! [`crate::plan::CollectiveShape`] and so share one plan-cache entry.
//!
//! [`execute`] is generic over the communicator, so the same code path runs
//! a collective for real on the thread runtime (the oversized-message
//! bypass of [`run_blocking`], which takes the runtime's [`ThreadComm`]
//! because a cursor runs only there) and records it into a plan
//! (`crate::plan::compile_rank` drives it against the recording `PlanComm`);
//! the simulator's traces are those plans lowered
//! (`crate::plan::compile_cluster`, then `Plan::to_trace`).

use std::rc::Rc;

use pip_collectives::comm::{Comm, ReduceFn, ThreadComm};
use pip_collectives::datatype::{DtypeId, ElemBuf, Layout, OwnedReduction};
use pip_collectives::plan::{ExecPlan, IoShape, PlanCursor};
use pip_collectives::Buf;
use pip_collectives::{
    binomial, bruck, hierarchical, multi_object, recursive_doubling, recursive_halving, ring, scan,
};

use pip_collectives::CollectiveKind;

use crate::calibration::GENERIC_COLLECTIVE_SETUP;
use crate::plan::{CollectiveShape, CompressSpec, PlanCache, EXEC_PLAN_MAX_BYTES};
use crate::selection::Algorithm;
use crate::LibraryProfile;

/// Execute one invocation of `shape` on `comm` with `algorithm`, the
/// library's resolved choice for it ([`crate::LibraryProfile::algorithm_for`]),
/// after the per-collective setup delay every library pays
/// ([`GENERIC_COLLECTIVE_SETUP`]).  The algorithm is all a recording reads
/// of a library, which is why it, not the library, keys the plan caches.
///
/// The buffers fill the slots of the shape's [`IoShape`]: `send` is the
/// send buffer and `recv` the receive buffer or, for the in/out kinds
/// (bcast, allreduce, scans), the one caller buffer, always packed: a
/// strided caller buffer is packed by the caller ([`run_blocking`]).  `op`
/// is the operator of the reduction kinds, over `shape.elem_size`-byte
/// elements.  The buffers are the communicator's ([`Comm::Buf`]): byte
/// slices on the thread runtime, symbolic buffers when recording.
///
/// `tag` must be unique per outstanding collective on the communicator
/// (callers typically use a per-communicator sequence number shifted left).
pub fn execute<C: Comm>(
    algorithm: Algorithm,
    comm: &C,
    shape: &CollectiveShape,
    send: Option<&C::Buf>,
    recv: Option<&mut C::Buf>,
    op: Option<&ReduceFn<'_, C::Buf>>,
    tag: u64,
) {
    use Algorithm as A;
    comm.delay(GENERIC_COLLECTIVE_SETUP);
    let CollectiveShape {
        root,
        elem_size: elem,
        ..
    } = *shape;
    if algorithm.kind() == CollectiveKind::Allreduce {
        let len = recv.as_deref().map(Buf::len);
        debug_assert_eq!(len, Some(shape.block), "the shape keys packed bytes");
    }
    match algorithm {
        A::AllgatherBruck => bruck::allgather_bruck(comm, bound(send), bound(recv), tag),
        A::AllgatherRecursiveDoubling => {
            recursive_doubling::allgather_recursive_doubling(comm, bound(send), bound(recv), tag)
        }
        A::AllgatherRing => ring::allgather_ring(comm, bound(send), bound(recv), tag),
        A::AllgatherMultiObject => {
            multi_object::allgather_multi_object(comm, bound(send), bound(recv), tag)
        }
        A::ScatterBinomial => binomial::scatter_binomial(comm, send, bound(recv), root, tag),
        A::ScatterHierarchical => {
            hierarchical::scatter_hierarchical(comm, send, bound(recv), root, tag)
        }
        A::ScatterMultiObject => {
            multi_object::scatter_multi_object(comm, send, bound(recv), root, tag)
        }
        A::BcastBinomial => binomial::bcast_binomial(comm, bound(recv), root, tag),
        A::BcastHierarchical => hierarchical::bcast_hierarchical(comm, bound(recv), root, tag),
        A::BcastMultiObject => multi_object::bcast_multi_object(comm, bound(recv), root, tag),
        A::GatherBinomial => binomial::gather_binomial(comm, bound(send), recv, root, tag),
        A::GatherMultiObject => {
            multi_object::gather_multi_object(comm, bound(send), recv, root, tag)
        }
        A::AllreduceRecursiveDoubling => {
            recursive_doubling::allreduce_recursive_doubling(comm, bound(recv), bound(op), tag)
        }
        A::AllreduceRing => ring::allreduce_ring(comm, bound(recv), elem, bound(op), tag),
        A::AllreduceHierarchical => {
            hierarchical::allreduce_hierarchical(comm, bound(recv), bound(op), tag)
        }
        A::AllreduceMultiObject => {
            multi_object::allreduce_multi_object(comm, bound(recv), elem, bound(op), tag)
        }
        A::ReduceBinomial => {
            binomial::reduce_binomial(comm, bound(send), recv, bound(op), root, tag)
        }
        A::ReduceMultiObject => {
            multi_object::reduce_multi_object(comm, bound(send), recv, elem, bound(op), root, tag)
        }
        A::ReduceScatterRecursiveHalving => recursive_halving::reduce_scatter_recursive_halving(
            comm,
            bound(send),
            bound(recv),
            bound(op),
            tag,
        ),
        A::ReduceScatterRing => {
            ring::reduce_scatter_ring(comm, bound(send), bound(recv), bound(op), tag)
        }
        A::ReduceScatterMultiObject => multi_object::reduce_scatter_multi_object(
            comm,
            bound(send),
            bound(recv),
            elem,
            bound(op),
            tag,
        ),
        A::ScanRecursiveDoubling => {
            scan::scan_recursive_doubling(comm, bound(recv), bound(op), tag)
        }
        A::ScanLinear => scan::scan_linear(comm, bound(recv), bound(op), tag),
        A::ExscanRecursiveDoubling => {
            scan::exscan_recursive_doubling(comm, bound(recv), bound(op), tag)
        }
        A::ExscanLinear => scan::exscan_linear(comm, bound(recv), bound(op), tag),
        A::AlltoallBruck => bruck::alltoall_bruck(comm, bound(send), bound(recv), tag),
        A::AlltoallMultiObject => {
            multi_object::alltoall_multi_object(comm, bound(send), bound(recv), tag)
        }
        A::Barrier => recursive_doubling::barrier_dissemination(comm, tag),
    }
}

/// A buffer or operator the shape's kind always binds.
fn bound<T>(slot: Option<T>) -> T {
    slot.expect("the collective's shape binds this slot")
}

/// A collective invocation over owned buffers — the one request type every
/// entry style builds.
///
/// Owned, because a non-blocking request or persistent handle outlives the
/// call frame that created it; a blocking call builds the same request and
/// runs it in place.  The buffer type `B` is anything that reads as bytes:
/// what is executed holds the caller's typed vectors as [`ElemBuf`]s, so the
/// plan reads and writes the caller's own allocation; the byte-vector
/// default is what shape-only callers build.  Receive buffers are not part
/// of the request: [`OwnedCollective::into_io`] allocates them to the shape
/// the plan declares, so ranks where a buffer is insignificant (non-root
/// gather and reduce) allocate nothing.
#[derive(Debug)]
pub enum OwnedCollective<B = Vec<u8>> {
    /// MPI_Allgather: one block per rank on return.
    Allgather {
        /// Contribution of the calling rank.
        sendbuf: B,
    },
    /// MPI_Scatter from `root`.
    Scatter {
        /// Root's send buffer (one block per rank); `None` on other ranks.
        sendbuf: Option<B>,
        /// Per-rank block size in bytes.
        block: usize,
        /// Root rank.
        root: usize,
    },
    /// MPI_Bcast from `root`.
    Bcast {
        /// In/out payload; significant at the root on entry.
        buf: B,
        /// Root rank.
        root: usize,
    },
    /// MPI_Gather to `root`.
    Gather {
        /// Contribution of the calling rank.
        sendbuf: B,
        /// Root rank.
        root: usize,
    },
    /// MPI_Allreduce with a commutative operator.
    Allreduce {
        /// In/out contribution.  With a non-contiguous `layout` this is the
        /// strided caller buffer of `layout.extent() * op.elem_size()`
        /// bytes; elements in the layout's gaps are left untouched.
        buf: B,
        /// The reduction operator; its identity (builtin `(datatype, op)`
        /// pair or registered user-op id) keys the plan cache, its byte
        /// closure is what the plan runs.
        op: OwnedReduction,
        /// Optional derived datatype describing which elements of `buf`
        /// participate, in *element* units (an `MPI_Type_vector`).  `None`
        /// means the whole buffer is contiguous payload.
        layout: Option<Layout>,
        /// Optional error-bounded lossy compression of large transfers
        /// (`None` = exact).  Only meaningful for float element types on
        /// the plan path; the oversized-message bypass and non-float
        /// operators ignore it and stay exact.
        compress: Option<CompressSpec>,
    },
    /// MPI_Reduce to `root` with a commutative operator.
    Reduce {
        /// Contribution of the calling rank.
        sendbuf: B,
        /// Root rank.
        root: usize,
        /// The reduction operator; see [`OwnedCollective::Allreduce`].
        op: OwnedReduction,
    },
    /// MPI_Reduce_scatter_block with a commutative operator.
    ReduceScatter {
        /// One block per rank (`world * block` bytes).
        sendbuf: B,
        /// The reduction operator; see [`OwnedCollective::Allreduce`].
        op: OwnedReduction,
    },
    /// MPI_Scan (inclusive prefix) with a commutative operator.
    Scan {
        /// Contribution on entry; combination of ranks `0..=rank` on return.
        buf: B,
        /// The reduction operator; see [`OwnedCollective::Allreduce`].
        op: OwnedReduction,
    },
    /// MPI_Exscan (exclusive prefix) with a commutative operator.  Rank 0's
    /// buffer comes back untouched (MPI leaves it undefined).
    Exscan {
        /// Contribution on entry; combination of ranks `0..rank` on return.
        buf: B,
        /// The reduction operator; see [`OwnedCollective::Allreduce`].
        op: OwnedReduction,
    },
    /// MPI_Alltoall.
    Alltoall {
        /// One block per destination rank.
        sendbuf: B,
    },
    /// MPI_Barrier.
    Barrier,
}

impl<B: std::ops::Deref<Target = [u8]>> OwnedCollective<B> {
    /// The [`CollectiveShape`] of this invocation on a world of `world`
    /// ranks — the plan-cache key component.
    pub fn shape(&self, world: usize) -> CollectiveShape {
        use CollectiveKind as Kind;
        use CollectiveShape as Shape;
        let reduction = |kind, block, root, op: &OwnedReduction| {
            Shape::reduction(kind, block, root, op.elem_size(), Some(op.ident()))
        };
        match self {
            OwnedCollective::Allgather { sendbuf } => {
                Shape::plain(Kind::Allgather, sendbuf.len(), 0)
            }
            OwnedCollective::Scatter { block, root, .. } => {
                Shape::plain(Kind::Scatter, *block, *root)
            }
            OwnedCollective::Bcast { buf, root } => Shape::plain(Kind::Bcast, buf.len(), *root),
            OwnedCollective::Gather { sendbuf, root } => {
                Shape::plain(Kind::Gather, sendbuf.len(), *root)
            }
            OwnedCollective::Allreduce {
                buf,
                op,
                layout,
                compress,
            } => Shape::allreduce(
                buf.len(),
                op.elem_size(),
                Some(op.ident()),
                *layout,
                *compress,
            ),
            OwnedCollective::Reduce { sendbuf, root, op } => {
                reduction(Kind::Reduce, sendbuf.len(), *root, op)
            }
            OwnedCollective::ReduceScatter { sendbuf, op } => {
                reduction(Kind::ReduceScatter, sendbuf.len() / world.max(1), 0, op)
            }
            OwnedCollective::Scan { buf, op } => reduction(Kind::Scan, buf.len(), 0, op),
            OwnedCollective::Exscan { buf, op } => reduction(Kind::Exscan, buf.len(), 0, op),
            OwnedCollective::Alltoall { sendbuf } => {
                Shape::plain(Kind::Alltoall, sendbuf.len() / world.max(1), 0)
            }
            OwnedCollective::Barrier => Shape::plain(Kind::Barrier, 0, 0),
        }
    }

    /// The reduction operator, for the reduction kinds.
    pub fn op(&self) -> Option<&OwnedReduction> {
        match self {
            OwnedCollective::Allreduce { op, .. }
            | OwnedCollective::Reduce { op, .. }
            | OwnedCollective::ReduceScatter { op, .. }
            | OwnedCollective::Scan { op, .. }
            | OwnedCollective::Exscan { op, .. } => Some(op),
            _ => None,
        }
    }
}

impl OwnedCollective<ElemBuf> {
    /// Split into the `(sendbuf, recvbuf)` pair a [`PlanCursor`] (or
    /// [`execute`]) takes, allocating a zeroed receive buffer of `dtype`
    /// elements to the length `io` declares.  In/out collectives (bcast,
    /// allreduce, scans) travel in the receive slot, and buffers that are
    /// insignificant at this rank (non-root scatter send, non-root gather
    /// and reduce receive) come out as `None`.
    pub fn into_io(self, io: &IoShape, dtype: DtypeId) -> (Option<ElemBuf>, Option<ElemBuf>) {
        let recvbuf = || io.recvbuf.map(|len| ElemBuf::zeroed(dtype, len));
        match self {
            OwnedCollective::Allgather { sendbuf }
            | OwnedCollective::Gather { sendbuf, .. }
            | OwnedCollective::Reduce { sendbuf, .. }
            | OwnedCollective::ReduceScatter { sendbuf, .. }
            | OwnedCollective::Alltoall { sendbuf } => (Some(sendbuf), recvbuf()),
            // MPI semantics: significant only at the root; drop a buffer a
            // non-root caller supplied anyway.
            OwnedCollective::Scatter { sendbuf, .. } => {
                (sendbuf.filter(|_| io.sendbuf.is_some()), recvbuf())
            }
            OwnedCollective::Bcast { buf, .. }
            | OwnedCollective::Allreduce { buf, .. }
            | OwnedCollective::Scan { buf, .. }
            | OwnedCollective::Exscan { buf, .. } => (None, Some(buf)),
            OwnedCollective::Barrier => (None, None),
        }
    }
}

/// Run `request` to completion before returning — the blocking entry style
/// — and hand back its receive (or in/out) buffer, now holding the result
/// (`None` where this rank binds none, e.g. off-root gather).  `dtype` is
/// the element type of the receive buffer [`OwnedCollective::into_io`]
/// allocates.
///
/// The request builds the cursor a non-blocking one builds
/// ([`begin_planned`]), then the cursor runs in place on the calling
/// thread: a blocking call does not drive the communicator's progress
/// engine.
///
/// Shapes whose buffer footprint exceeds [`EXEC_PLAN_MAX_BYTES`] skip the
/// plan path and [`execute`] the algorithm directly, on a packed copy of a
/// strided buffer (the derived datatype only an allreduce carries) whose
/// result is scattered back without disturbing the gaps.  The regions such
/// a call exposes by name are retired before it returns
/// ([`ThreadComm::release_shared`]).
pub fn run_blocking(
    profile: &LibraryProfile,
    comm: &ThreadComm<'_>,
    request: OwnedCollective<ElemBuf>,
    dtype: DtypeId,
    tag: u64,
    cache: &mut PlanCache,
) -> Option<ElemBuf> {
    let world = comm.world_size();
    let shape = request.shape(world);
    if shape.buffer_footprint(world) > EXEC_PLAN_MAX_BYTES {
        cache.note_bypass();
        let op = request.op().cloned();
        let (send, mut recv) = request.into_io(&shape.io_for(comm.rank(), world), dtype);
        let layout = shape.layout.map(|l| l.scaled(shape.elem_size));
        let mut packed = Vec::new();
        if let (Some(l), Some(buf)) = (layout, recv.as_deref()) {
            l.pack_bytes(buf, &mut packed);
        }
        execute(
            profile.algorithm_for(&shape, world),
            comm,
            &shape,
            send.as_deref(),
            match layout {
                Some(_) => Some(&mut packed[..]),
                None => recv.as_deref_mut(),
            },
            op.as_ref().map(OwnedReduction::as_fn),
            tag,
        );
        if let (Some(l), Some(buf)) = (layout, recv.as_deref_mut()) {
            l.unpack_bytes(&packed, buf);
        }
        comm.release_shared();
        return recv;
    }
    let mut cursor = begin_planned(profile, comm, request, dtype, tag, cache);
    cursor.run(comm.ctx());
    cursor.into_output().recvbuf
}

/// Resolve `request` against the plan cache: the compiled plan plus the
/// owned `(sendbuf, recvbuf)` pair split to its shape, the receive buffer
/// of `dtype` elements.  The single source
/// of the shape → lookup-or-compile → buffer-split sequence, shared by all
/// three entry styles, so they can never populate different cache entries
/// or split buffers differently.
#[allow(clippy::type_complexity)]
pub fn plan_owned<C: Comm>(
    profile: &LibraryProfile,
    comm: &C,
    request: OwnedCollective<ElemBuf>,
    dtype: DtypeId,
    cache: &mut PlanCache,
) -> (Rc<ExecPlan>, Option<ElemBuf>, Option<ElemBuf>) {
    let shape = request.shape(comm.world_size());
    let plan = cache.lookup_or_compile(profile, comm.topology(), comm.rank(), &shape);
    let (sendbuf, recvbuf) = request.into_io(&plan.io, dtype);
    (plan, sendbuf, recvbuf)
}

/// Begin a non-blocking collective: resolve the request against the plan
/// cache ([`plan_owned`]) and wrap the compiled plan plus the owned buffers
/// and operator into a resumable [`PlanCursor`] ready to be driven by a
/// `pip_collectives::request::ProgressEngine` (or run in place, as
/// [`run_blocking`] does).
///
/// Unlike the blocking path there is no large-message bypass: a request
/// *requires* a compiled program to be resumable, so oversized shapes pay
/// the compile (once — persistent handles and repeats reuse the cache).
pub fn begin_planned<C: Comm>(
    profile: &LibraryProfile,
    comm: &C,
    request: OwnedCollective<ElemBuf>,
    dtype: DtypeId,
    tag: u64,
    cache: &mut PlanCache,
) -> PlanCursor {
    let op = request.op().cloned();
    let (plan, sendbuf, recvbuf) = plan_owned(profile, comm, request, dtype, cache);
    PlanCursor::new(plan, sendbuf, recvbuf, tag, cache.arena(), op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile_cluster;
    use crate::Library;
    use pip_collectives::datatype::{ReduceKernel, ReduceOp};
    use pip_collectives::oracle;
    use pip_collectives::plan::Fidelity;
    use pip_collectives::ThreadComm;
    use pip_runtime::{Cluster, Topology};

    /// Run an allgather through the dispatcher for every library on the real
    /// runtime and check the result against the oracle — this exercises the
    /// exact code path the figures measure, end to end.
    #[test]
    fn dispatched_allgather_is_correct_for_every_library() {
        let topo = Topology::new(3, 2);
        let world = topo.world_size();
        let block = 16;
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let shape = CollectiveShape::plain(CollectiveKind::Allgather, block, 0);
        for library in Library::ALL {
            let profile = library.profile();
            let results = Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                let sendbuf = oracle::rank_payload(comm.rank(), block);
                let mut recvbuf = vec![0u8; world * block];
                execute(
                    profile.algorithm_for(&shape, world),
                    &comm,
                    &shape,
                    Some(&sendbuf),
                    Some(&mut recvbuf),
                    None,
                    1,
                );
                recvbuf
            })
            .unwrap();
            for buf in &results {
                assert_eq!(buf, &expected, "{} allgather incorrect", library.name());
            }
        }
    }

    #[test]
    fn dispatched_scatter_is_correct_for_every_library() {
        let topo = Topology::new(2, 3);
        let world = topo.world_size();
        let block = 8;
        let sendbuf = oracle::rank_payload(0, world * block);
        let expected = oracle::scatter(&sendbuf, world);
        let shape = CollectiveShape::plain(CollectiveKind::Scatter, block, 0);
        for library in Library::ALL {
            let profile = library.profile();
            let sendbuf_ref = &sendbuf;
            let results = Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                let mut recvbuf = vec![0u8; block];
                let send = (comm.rank() == 0).then_some(sendbuf_ref.as_slice());
                let algorithm = profile.algorithm_for(&shape, world);
                execute(algorithm, &comm, &shape, send, Some(&mut recvbuf), None, 1);
                recvbuf
            })
            .unwrap();
            for (rank, buf) in results.iter().enumerate() {
                assert_eq!(buf, &expected[rank], "{} scatter incorrect", library.name());
            }
        }
    }

    #[test]
    fn dispatched_allreduce_is_correct_for_every_library() {
        let topo = Topology::new(2, 2);
        let world = topo.world_size();
        let len = 24;
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle::allreduce(&contributions, oracle::wrapping_add_u8);
        let kernel = ReduceKernel::of::<u8>(ReduceOp::Sum);
        let shape = CollectiveShape::allreduce(len, 1, Some(kernel.ident()), None, None);
        for library in Library::ALL {
            let profile = library.profile();
            let results = Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                let mut buf = oracle::rank_payload(comm.rank(), len);
                let op = Some(kernel.as_fn());
                let algorithm = profile.algorithm_for(&shape, world);
                execute(algorithm, &comm, &shape, None, Some(&mut buf), op, 1);
                buf
            })
            .unwrap();
            for buf in &results {
                assert_eq!(buf, &expected, "{} allreduce incorrect", library.name());
            }
        }
    }

    /// `into_io` allocates exactly the receive buffers the shape's `IoShape`
    /// declares at each rank, of the element type asked for: nothing where
    /// a buffer is insignificant, the caller's own buffer for the in/out
    /// kinds.
    #[test]
    fn into_io_allocates_only_what_the_io_shape_declares() {
        let world = 4;
        let split = |request: OwnedCollective<ElemBuf>, rank: usize, dtype| {
            let io = request.shape(world).io_for(rank, world);
            request.into_io(&io, dtype)
        };
        let bytes = |byte, len| Some(ElemBuf::U8(vec![byte; len]));
        let gather = || OwnedCollective::Gather {
            sendbuf: ElemBuf::U8(vec![7; 8]),
            root: 2,
        };
        assert_eq!(split(gather(), 1, DtypeId::U8), (bytes(7, 8), None));
        assert_eq!(split(gather(), 2, DtypeId::U8), (bytes(7, 8), bytes(0, 32)));
        let scatter = || OwnedCollective::Scatter {
            sendbuf: Some(ElemBuf::F64(vec![1.0; 4])),
            block: 8,
            root: 0,
        };
        let f64s = |value, len| Some(ElemBuf::F64(vec![value; len]));
        assert_eq!(split(scatter(), 3, DtypeId::F64), (None, f64s(0.0, 1)));
        assert_eq!(
            split(scatter(), 0, DtypeId::F64),
            (f64s(1.0, 4), f64s(0.0, 1))
        );
        // A strided allreduce keeps its extent-length buffer; the cursor
        // packs it.
        let strided = OwnedCollective::Allreduce {
            buf: ElemBuf::F32(vec![5.0; 10]),
            op: OwnedReduction::Typed(ReduceKernel::of::<f32>(ReduceOp::Sum)),
            layout: Some(Layout::vector(3, 2, 4)),
            compress: None,
        };
        assert!(strided.op().is_some());
        let (send, recv) = split(strided, 1, DtypeId::F32);
        assert_eq!((send, recv), (None, Some(ElemBuf::F32(vec![5.0; 10]))));
        let barrier = OwnedCollective::Barrier;
        assert!(barrier.op().is_none());
        assert_eq!(split(barrier, 0, DtypeId::U8), (None, None));
    }

    /// The owned request derives exactly the shape a caller of [`execute`]
    /// over borrowed buffers keys with (the `CollectiveShape` constructors
    /// over the same lengths) — the plan path and the oversized-message
    /// bypass must describe one invocation identically.
    #[test]
    fn owned_collective_shapes_agree_with_borrowed_requests() {
        let world = 4;
        let block = 8;
        let shape = |request: OwnedCollective| request.shape(world);

        let sendbuf = vec![0u8; block];
        assert_eq!(
            shape(OwnedCollective::Allgather {
                sendbuf: sendbuf.clone()
            }),
            CollectiveShape::plain(CollectiveKind::Allgather, sendbuf.len(), 0)
        );
        assert_eq!(
            shape(OwnedCollective::Scatter {
                sendbuf: None,
                block,
                root: 3,
            }),
            CollectiveShape::plain(CollectiveKind::Scatter, block, 3)
        );
        let sendbuf = vec![0u8; block * world];
        assert_eq!(
            shape(OwnedCollective::Alltoall {
                sendbuf: sendbuf.clone()
            }),
            CollectiveShape::plain(CollectiveKind::Alltoall, sendbuf.len() / world, 0)
        );

        // Typed reductions agree too — including the (datatype, op) identity.
        let kernel = ReduceKernel::of::<f32>(ReduceOp::Sum);
        let buf = vec![0u8; block];
        let owned = shape(OwnedCollective::Allreduce {
            buf: buf.clone(),
            op: OwnedReduction::Typed(kernel),
            layout: None,
            compress: None,
        });
        let borrowed = CollectiveShape::allreduce(buf.len(), 4, Some(kernel.ident()), None, None);
        assert_eq!(owned, borrowed);
        assert_eq!(owned.elem_size, 4);
        assert_eq!(owned.reduce, Some(kernel.ident()));

        // Registered user operators agree as well, and a derived datatype
        // keys by its packed size plus the layout triple.
        let op = pip_collectives::Op::create(2, |acc, other| {
            for (a, b) in acc.iter_mut().zip(other) {
                *a = a.wrapping_add(*b);
            }
        });
        let layout = Layout::vector(3, 2, 4);
        let strided = vec![0u8; layout.extent() * 2];
        let owned = shape(OwnedCollective::Allreduce {
            buf: strided.clone(),
            op: OwnedReduction::User(op.clone()),
            layout: Some(layout),
            compress: None,
        });
        let borrowed =
            CollectiveShape::allreduce(strided.len(), 2, Some(op.ident()), Some(layout), None);
        assert_eq!(owned, borrowed);
        assert_eq!(owned.block, layout.packed_len() * 2);
        assert_eq!(owned.layout, Some(layout));
        assert_eq!(owned.reduce, Some(op.ident()));
    }

    /// `begin_planned` populates the cache entry the blocking path
    /// ([`run_blocking`]) hits afterwards — one compile serves both
    /// execution models — and both compute the same allgather.
    #[test]
    fn begin_planned_shares_the_plan_cache_with_blocking_dispatch() {
        let profile = Library::PipMColl.profile();
        let topo = Topology::new(2, 2);
        let world = topo.world_size();
        let block = 16;
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let request = || OwnedCollective::Allgather {
                sendbuf: oracle::rank_payload(comm.rank(), block).into(),
            };
            let mut cache = crate::plan::PlanCache::new();
            let u8s = DtypeId::U8;
            let mut cursor = begin_planned(&profile, &comm, request(), u8s, 1 << 16, &mut cache);
            assert!(!cursor.is_finished());
            assert_eq!(cache.stats(), (0, 1));
            cursor.run(ctx);
            let planned = cursor.into_output().recvbuf;
            let blocking = run_blocking(&profile, &comm, request(), u8s, 2 << 16, &mut cache);
            assert_eq!(cache.stats(), (1, 1));
            (planned, blocking)
        })
        .unwrap();
        for (planned, blocking) in results {
            assert_eq!(planned, Some(expected.clone().into()));
            assert_eq!(blocking, Some(expected.clone().into()));
        }
    }

    #[test]
    fn pip_mcoll_spreads_network_work_across_local_ranks() {
        let topo = Topology::new(8, 4);
        let shape = CollectiveShape::plain(CollectiveKind::Allgather, 64, 0);
        let [mcoll, mvapich] = [Library::PipMColl, Library::Mvapich2].map(|library| {
            compile_cluster(&library.profile(), topo, &shape, Fidelity::Schedule).to_trace(1)
        });
        // Flat Bruck: every rank sends in every round.  Multi-object: at most
        // a couple of sends per rank.
        let mcoll_max_sends = (0..4).map(|r| mcoll.ranks[r].send_count()).max().unwrap();
        let mvapich_rank0_sends = mvapich.ranks[0].send_count();
        assert!(mcoll_max_sends < mvapich_rank0_sends);
    }

    #[test]
    fn large_allgather_switches_algorithms_for_comparators() {
        let topo = Topology::new(4, 2);
        let profile = Library::OpenMpi.profile();
        let [small, large] = [64, 64 * 1024].map(|bytes| {
            let shape = CollectiveShape::plain(CollectiveKind::Allgather, bytes, 0);
            compile_cluster(&profile, topo, &shape, Fidelity::Schedule).to_trace(1)
        });
        // Ring allgather sends p-1 messages per rank; Bruck sends log2(p).
        assert!(large.ranks[0].send_count() > small.ranks[0].send_count());
    }
}
