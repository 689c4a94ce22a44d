//! Dispatching a collective call to the algorithm a library would select.
//!
//! [`execute`] is generic over the communicator, so the same code path runs
//! a collective for real on the thread runtime and records it into a plan
//! (`crate::plan::compile_rank` drives it against the recording
//! `PlanComm`).  The planned entry points ([`execute_planned`],
//! [`begin_planned`]) execute cached plans instead; the simulator's traces
//! are those plans lowered (`crate::plan::compile_cluster`, then
//! `Plan::to_trace`).

use pip_collectives::comm::{Comm, NonBlockingComm};
use pip_collectives::datatype::{Layout, OwnedReduction, Reduction};
use pip_collectives::plan::{IoShape, PlanCursor, RankPlan, RecvBuf, SendBuf};
use pip_collectives::{
    binomial, bruck, hierarchical, multi_object, recursive_doubling, recursive_halving, ring, scan,
};

use pip_collectives::CollectiveKind;

use crate::selection::{
    AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, GatherAlgo, ReduceAlgo,
    ReduceScatterAlgo, ScanAlgo, ScatterAlgo,
};
use crate::LibraryProfile;

/// A collective invocation, expressed over raw byte buffers (the `core`
/// crate layers typed buffers on top).
pub enum CollectiveRequest<'a> {
    /// MPI_Allgather: `sendbuf` is this rank's block, `recvbuf` holds one
    /// block per rank on return.
    Allgather {
        /// Contribution of the calling rank.
        sendbuf: &'a [u8],
        /// Receives every rank's contribution.
        recvbuf: &'a mut [u8],
    },
    /// MPI_Scatter from `root`.
    Scatter {
        /// Root's send buffer (one block per rank); `None` on other ranks.
        sendbuf: Option<&'a [u8]>,
        /// Receives the calling rank's block.
        recvbuf: &'a mut [u8],
        /// Root rank.
        root: usize,
    },
    /// MPI_Bcast from `root`.
    Bcast {
        /// Payload; holds the root's data on return.
        buf: &'a mut [u8],
        /// Root rank.
        root: usize,
    },
    /// MPI_Gather to `root`.
    Gather {
        /// Contribution of the calling rank.
        sendbuf: &'a [u8],
        /// Root's receive buffer (one block per rank); `None` elsewhere.
        recvbuf: Option<&'a mut [u8]>,
        /// Root rank.
        root: usize,
    },
    /// MPI_Allreduce with a commutative operator.
    Allreduce {
        /// Contribution on entry, reduced vector on return.  With a
        /// non-contiguous `layout` this is the strided caller buffer of
        /// `layout.extent() * op.elem_size()` bytes; elements in the
        /// layout's gaps are left untouched.
        buf: &'a mut [u8],
        /// The reduction operator (typed kernel, registered
        /// [`pip_collectives::Op`], or opaque byte closure).
        op: Reduction<'a>,
        /// Optional derived datatype describing which elements of `buf`
        /// participate, in *element* units (an `MPI_Type_vector`).  `None`
        /// means the whole buffer is contiguous payload.
        layout: Option<Layout>,
        /// Optional error-bounded lossy compression of large transfers
        /// (`None` = exact).  Only meaningful for float element types on
        /// the planned dispatch path; the direct path and non-float
        /// operators ignore it and stay exact.
        compress: Option<crate::plan::CompressSpec>,
    },
    /// MPI_Reduce to `root` with a commutative operator.
    Reduce {
        /// Contribution of the calling rank.
        sendbuf: &'a [u8],
        /// Root's receive buffer (same length as `sendbuf`); `None`
        /// elsewhere.
        recvbuf: Option<&'a mut [u8]>,
        /// Root rank.
        root: usize,
        /// The reduction operator (typed kernel or opaque byte closure).
        op: Reduction<'a>,
    },
    /// MPI_Reduce_scatter_block with a commutative operator.
    ReduceScatter {
        /// One block per rank (`world * recvbuf.len()` bytes).
        sendbuf: &'a [u8],
        /// Receives this rank's fully reduced block.
        recvbuf: &'a mut [u8],
        /// The reduction operator (typed kernel or opaque byte closure).
        op: Reduction<'a>,
    },
    /// MPI_Scan (inclusive prefix) with a commutative operator.
    Scan {
        /// Contribution on entry; combination of ranks `0..=rank` on return.
        buf: &'a mut [u8],
        /// The reduction operator (typed kernel or opaque byte closure).
        op: Reduction<'a>,
    },
    /// MPI_Exscan (exclusive prefix) with a commutative operator.  Rank 0's
    /// buffer is left untouched (MPI leaves it undefined).
    Exscan {
        /// Contribution on entry; combination of ranks `0..rank` on return.
        buf: &'a mut [u8],
        /// The reduction operator (typed kernel or opaque byte closure).
        op: Reduction<'a>,
    },
    /// MPI_Alltoall.
    Alltoall {
        /// One block per destination rank.
        sendbuf: &'a [u8],
        /// One block per source rank on return.
        recvbuf: &'a mut [u8],
    },
    /// MPI_Barrier.
    Barrier,
}

/// Execute `request` on `comm` using the algorithms `profile` selects.
///
/// `tag` must be unique per outstanding collective on the communicator
/// (callers typically use a per-communicator sequence number shifted left).
pub fn execute<C: Comm>(
    profile: &LibraryProfile,
    comm: &C,
    request: CollectiveRequest<'_>,
    tag: u64,
) {
    comm.delay(profile.per_collective_setup);
    let world = comm.world_size();
    match request {
        CollectiveRequest::Allgather { sendbuf, recvbuf } => {
            match profile.selection.allgather_for(sendbuf.len(), world) {
                AllgatherAlgo::Bruck => bruck::allgather_bruck(comm, sendbuf, recvbuf, tag),
                AllgatherAlgo::RecursiveDoubling => {
                    recursive_doubling::allgather_recursive_doubling(comm, sendbuf, recvbuf, tag)
                }
                AllgatherAlgo::Ring => ring::allgather_ring(comm, sendbuf, recvbuf, tag),
                AllgatherAlgo::Hierarchical => {
                    hierarchical::allgather_hierarchical(comm, sendbuf, recvbuf, tag)
                }
                AllgatherAlgo::MultiObject => {
                    multi_object::allgather_multi_object(comm, sendbuf, recvbuf, tag)
                }
            }
        }
        CollectiveRequest::Scatter {
            sendbuf,
            recvbuf,
            root,
        } => match profile.selection.scatter {
            ScatterAlgo::Binomial => binomial::scatter_binomial(comm, sendbuf, recvbuf, root, tag),
            ScatterAlgo::Hierarchical => {
                hierarchical::scatter_hierarchical(comm, sendbuf, recvbuf, root, tag)
            }
            ScatterAlgo::MultiObject => {
                multi_object::scatter_multi_object(comm, sendbuf, recvbuf, root, tag)
            }
        },
        CollectiveRequest::Bcast { buf, root } => match profile.selection.bcast {
            BcastAlgo::Binomial => binomial::bcast_binomial(comm, buf, root, tag),
            BcastAlgo::Hierarchical => hierarchical::bcast_hierarchical(comm, buf, root, tag),
            BcastAlgo::MultiObject => multi_object::bcast_multi_object(comm, buf, root, tag),
        },
        CollectiveRequest::Gather {
            sendbuf,
            recvbuf,
            root,
        } => match profile.selection.gather {
            GatherAlgo::Binomial => binomial::gather_binomial(comm, sendbuf, recvbuf, root, tag),
            GatherAlgo::MultiObject => {
                multi_object::gather_multi_object(comm, sendbuf, recvbuf, root, tag)
            }
        },
        CollectiveRequest::Allreduce {
            buf, op, layout, ..
        } => {
            let f = op.as_fn();
            let elem = op.elem_size();
            match layout
                .map(|l| l.scaled(elem))
                .filter(|l| !l.is_contiguous())
            {
                Some(l) => {
                    // Derived datatype: gather the strided elements into a
                    // packed scratch vector, reduce that contiguously, then
                    // scatter the result back without disturbing the gaps.
                    let mut packed = Vec::with_capacity(l.packed_len());
                    l.pack_bytes(buf, &mut packed);
                    allreduce_bytes(profile, comm, &mut packed, elem, f, tag);
                    l.unpack_bytes(&packed, buf);
                }
                None => allreduce_bytes(profile, comm, buf, elem, f, tag),
            }
        }
        CollectiveRequest::Reduce {
            sendbuf,
            recvbuf,
            root,
            op,
        } => {
            let f = op.as_fn();
            match profile.selection.reduce {
                ReduceAlgo::Binomial => {
                    binomial::reduce_binomial(comm, sendbuf, recvbuf, f, root, tag)
                }
                ReduceAlgo::MultiObject => multi_object::reduce_multi_object(
                    comm,
                    sendbuf,
                    recvbuf,
                    op.elem_size(),
                    f,
                    root,
                    tag,
                ),
            }
        }
        CollectiveRequest::ReduceScatter {
            sendbuf,
            recvbuf,
            op,
        } => {
            let f = op.as_fn();
            match profile.selection.reduce_scatter_for(recvbuf.len()) {
                ReduceScatterAlgo::RecursiveHalving => {
                    recursive_halving::reduce_scatter_recursive_halving(
                        comm, sendbuf, recvbuf, f, tag,
                    )
                }
                ReduceScatterAlgo::Ring => {
                    ring::reduce_scatter_ring(comm, sendbuf, recvbuf, f, tag)
                }
                ReduceScatterAlgo::MultiObject => multi_object::reduce_scatter_multi_object(
                    comm,
                    sendbuf,
                    recvbuf,
                    op.elem_size(),
                    f,
                    tag,
                ),
            }
        }
        CollectiveRequest::Scan { buf, op } => match profile.selection.scan {
            ScanAlgo::RecursiveDoubling => {
                scan::scan_recursive_doubling(comm, buf, op.as_fn(), tag)
            }
            ScanAlgo::Linear => scan::scan_linear(comm, buf, op.as_fn(), tag),
        },
        CollectiveRequest::Exscan { buf, op } => match profile.selection.scan {
            ScanAlgo::RecursiveDoubling => {
                scan::exscan_recursive_doubling(comm, buf, op.as_fn(), tag)
            }
            ScanAlgo::Linear => scan::exscan_linear(comm, buf, op.as_fn(), tag),
        },
        CollectiveRequest::Alltoall { sendbuf, recvbuf } => match profile.selection.alltoall {
            AlltoallAlgo::Bruck => bruck::alltoall_bruck(comm, sendbuf, recvbuf, tag),
            AlltoallAlgo::MultiObject => {
                multi_object::alltoall_multi_object(comm, sendbuf, recvbuf, tag)
            }
        },
        CollectiveRequest::Barrier => recursive_doubling::barrier_dissemination(comm, tag),
    }
}

/// Run the selected allreduce algorithm over a contiguous byte vector —
/// the common tail of the contiguous and packed (derived-datatype) paths.
fn allreduce_bytes<C: Comm>(
    profile: &LibraryProfile,
    comm: &C,
    buf: &mut [u8],
    elem_size: usize,
    f: &pip_collectives::ReduceFn<'_>,
    tag: u64,
) {
    match profile
        .selection
        .allreduce_for_fabric(buf.len(), profile.fabric)
    {
        AllreduceAlgo::RecursiveDoubling => {
            recursive_doubling::allreduce_recursive_doubling(comm, buf, f, tag)
        }
        AllreduceAlgo::Ring => ring::allreduce_ring(comm, buf, elem_size, f, tag),
        AllreduceAlgo::Hierarchical => hierarchical::allreduce_hierarchical(comm, buf, f, tag),
        AllreduceAlgo::MultiObject => {
            multi_object::allreduce_multi_object(comm, buf, elem_size, f, tag)
        }
    }
}

impl<'a> CollectiveRequest<'a> {
    /// Whether this is a reduction whose operator carries **no identity**
    /// (an anonymous [`Reduction::Opaque`] closure).  Such an invocation
    /// must never populate the plan cache: the key would collapse to
    /// `(kind, size)` alone, so a *different* anonymous operator of the
    /// same width would replay the first one's plan.  Callers who want the
    /// cached fast path register an [`pip_collectives::Op`] instead.
    fn has_anonymous_reduction(&self) -> bool {
        match self {
            CollectiveRequest::Allreduce { op, .. }
            | CollectiveRequest::Reduce { op, .. }
            | CollectiveRequest::ReduceScatter { op, .. }
            | CollectiveRequest::Scan { op, .. }
            | CollectiveRequest::Exscan { op, .. } => op.ident().is_none(),
            _ => false,
        }
    }

    /// Route the caller's buffers into the `(send, receive)` slots of a
    /// cursor executing a plan of shape `io`, next to the reduction operator
    /// if there is one.  In/out collectives (bcast, allreduce, scans) travel
    /// in the receive slot.
    fn into_io(
        self,
        io: &IoShape,
    ) -> (
        Option<SendBuf<'a>>,
        Option<RecvBuf<'a>>,
        Option<Reduction<'a>>,
    ) {
        use CollectiveRequest as R;
        let (send, recv, op) = match self {
            R::Allgather { sendbuf, recvbuf } | R::Alltoall { sendbuf, recvbuf } => {
                (Some(sendbuf), Some(recvbuf), None)
            }
            R::Scatter {
                sendbuf, recvbuf, ..
            } => (sendbuf, Some(recvbuf), None),
            R::Bcast { buf, .. } => (None, Some(buf), None),
            R::Gather {
                sendbuf, recvbuf, ..
            } => (Some(sendbuf), recvbuf, None),
            R::Allreduce { buf, op, .. } | R::Scan { buf, op } | R::Exscan { buf, op } => {
                (None, Some(buf), Some(op))
            }
            R::Reduce {
                sendbuf,
                recvbuf,
                op,
                ..
            } => (Some(sendbuf), recvbuf, Some(op)),
            R::ReduceScatter {
                sendbuf,
                recvbuf,
                op,
            } => (Some(sendbuf), Some(recvbuf), Some(op)),
            R::Barrier => (None, None, None),
        };
        // MPI semantics: a scatter's send buffer and a gather's or reduce's
        // receive buffer are significant only at the root.  Other ranks may
        // still pass one; their plan has no use for it, so it is dropped
        // here rather than tripping the cursor's shape check.
        (
            send.filter(|_| io.sendbuf.is_some()).map(SendBuf::Borrowed),
            recv.filter(|_| io.recvbuf.is_some()).map(RecvBuf::Borrowed),
            op,
        )
    }
}

/// Execute `request` through the per-communicator plan cache: look the
/// invocation's shape up, compile the rank's plan on a miss, then drive a
/// cursor over the caller's borrowed buffers to completion — the hot path
/// of repeated collectives never re-interprets the algorithm, and a blocking
/// collective is the same interpreter a request runs on, finished in place.
///
/// Shapes whose buffer footprint exceeds
/// [`crate::plan::EXEC_PLAN_MAX_BYTES`] skip the plan path and execute the
/// algorithm directly: the fingerprint compile's cost scales with buffer
/// bytes, and large messages are bandwidth-bound, so compiling them buys
/// nothing.
pub fn execute_planned<C: NonBlockingComm>(
    profile: &LibraryProfile,
    comm: &C,
    request: CollectiveRequest<'_>,
    tag: u64,
    cache: &mut crate::plan::PlanCache,
) {
    if request.has_anonymous_reduction() {
        // Anonymous opaque operators have no identity to key the cache
        // with; caching them would alias distinct operators of the same
        // element width onto one plan (see `has_anonymous_reduction`).
        cache.note_bypass();
        execute(profile, comm, request, tag);
        return;
    }
    let world = comm.world_size();
    let shape = crate::plan::CollectiveShape::of(&request, world);
    if shape.buffer_footprint(world) > crate::plan::EXEC_PLAN_MAX_BYTES {
        cache.note_bypass();
        execute(profile, comm, request, tag);
        return;
    }
    let plan = cache.lookup_or_compile(profile, comm.topology(), comm.rank(), &shape);
    let (sendbuf, recvbuf, op) = request.into_io(&plan.io);
    let mut cursor = PlanCursor::new(plan, sendbuf, recvbuf, tag, cache.arena());
    cursor.run(comm, op.as_ref().map(Reduction::as_fn));
}

/// A collective invocation over **owned** byte buffers — the form the
/// non-blocking and persistent APIs need, since a request outlives the call
/// frame that created it.
///
/// The variants mirror [`CollectiveRequest`] minus the receive buffers:
/// output buffers are allocated by [`OwnedCollective::into_io`] to match the
/// compiled plan's shape (so non-root scatter/gather ranks allocate
/// nothing).
#[derive(Debug)]
pub enum OwnedCollective {
    /// MPI_Iallgather / MPI_Allgather_init.
    Allgather {
        /// Contribution of the calling rank.
        sendbuf: Vec<u8>,
    },
    /// MPI_Iscatter / MPI_Scatter_init from `root`.
    Scatter {
        /// Root's send buffer (one block per rank); `None` on other ranks.
        sendbuf: Option<Vec<u8>>,
        /// Per-rank block size in bytes.
        block: usize,
        /// Root rank.
        root: usize,
    },
    /// MPI_Ibcast / MPI_Bcast_init from `root`.
    Bcast {
        /// In/out payload; significant at the root on entry.
        buf: Vec<u8>,
        /// Root rank.
        root: usize,
    },
    /// MPI_Igather / MPI_Gather_init to `root`.
    Gather {
        /// Contribution of the calling rank.
        sendbuf: Vec<u8>,
        /// Root rank.
        root: usize,
    },
    /// MPI_Iallreduce / MPI_Allreduce_init (operator supplied separately to
    /// the progress engine).
    Allreduce {
        /// In/out contribution.  With a non-contiguous `layout` this holds
        /// `layout.extent() * op.elem_size()` bytes.
        buf: Vec<u8>,
        /// The reduction operator; its identity (builtin `(datatype, op)`
        /// pair or registered user-op id) keys the plan cache, its byte
        /// closure is what the progress engine runs.
        op: OwnedReduction,
        /// Optional derived datatype in element units; see
        /// [`CollectiveRequest::Allreduce`].
        layout: Option<Layout>,
        /// Optional error-bounded lossy compression; see
        /// [`CollectiveRequest::Allreduce`].
        compress: Option<crate::plan::CompressSpec>,
    },
    /// MPI_Ireduce / MPI_Reduce_init to `root` (operator supplied separately
    /// to the progress engine).
    Reduce {
        /// Contribution of the calling rank.
        sendbuf: Vec<u8>,
        /// Root rank.
        root: usize,
        /// The reduction operator; its identity keys the plan cache, its
        /// byte closure is what the progress engine runs.
        op: OwnedReduction,
    },
    /// MPI_Ireduce_scatter / MPI_Reduce_scatter_init (operator supplied
    /// separately).
    ReduceScatter {
        /// One block per rank (`world * block` bytes).
        sendbuf: Vec<u8>,
        /// The reduction operator; its identity keys the plan cache, its
        /// byte closure is what the progress engine runs.
        op: OwnedReduction,
    },
    /// MPI_Iscan / MPI_Scan_init (operator supplied separately).
    Scan {
        /// In/out contribution.
        buf: Vec<u8>,
        /// The reduction operator; its identity keys the plan cache, its
        /// byte closure is what the progress engine runs.
        op: OwnedReduction,
    },
    /// MPI_Iexscan / MPI_Exscan_init (operator supplied separately).
    Exscan {
        /// In/out contribution.
        buf: Vec<u8>,
        /// The reduction operator; its identity keys the plan cache, its
        /// byte closure is what the progress engine runs.
        op: OwnedReduction,
    },
    /// MPI_Ialltoall / MPI_Alltoall_init.
    Alltoall {
        /// One block per destination rank.
        sendbuf: Vec<u8>,
    },
}

impl OwnedCollective {
    /// The [`crate::plan::CollectiveShape`] of this invocation on a world
    /// of `world` ranks — the plan-cache key component, identical to what
    /// the blocking path derives via [`crate::plan::CollectiveShape::of`].
    pub fn shape(&self, world: usize) -> crate::plan::CollectiveShape {
        use crate::plan::CollectiveShape as Shape;
        use CollectiveKind as Kind;
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
        }
    }

    /// Split into the `(sendbuf, recvbuf)` pair a [`PlanCursor`] takes,
    /// allocating the receive buffer to the shape `plan` declares.  In/out
    /// collectives (bcast, allreduce) travel in the receive slot, and
    /// buffers that are insignificant at this rank (non-root scatter send,
    /// non-root gather receive) come out as `None`.
    pub fn into_io(self, plan: &RankPlan) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        match self {
            OwnedCollective::Allgather { sendbuf } | OwnedCollective::Alltoall { sendbuf } => {
                let recvbuf = plan.io.recvbuf.map(|len| vec![0u8; len]);
                (Some(sendbuf), recvbuf)
            }
            OwnedCollective::Scatter { sendbuf, .. } => {
                // MPI semantics: significant only at the root; drop a buffer
                // a non-root caller supplied anyway.
                let sendbuf = if plan.io.sendbuf.is_some() {
                    sendbuf
                } else {
                    None
                };
                let recvbuf = plan.io.recvbuf.map(|len| vec![0u8; len]);
                (sendbuf, recvbuf)
            }
            OwnedCollective::Bcast { buf, .. }
            | OwnedCollective::Allreduce { buf, .. }
            | OwnedCollective::Scan { buf, .. }
            | OwnedCollective::Exscan { buf, .. } => (None, Some(buf)),
            OwnedCollective::Gather { sendbuf, .. }
            | OwnedCollective::Reduce { sendbuf, .. }
            | OwnedCollective::ReduceScatter { sendbuf, .. } => {
                let recvbuf = plan.io.recvbuf.map(|len| vec![0u8; len]);
                (Some(sendbuf), recvbuf)
            }
        }
    }
}

/// Resolve `request` against the plan cache: the compiled plan plus the
/// owned `(sendbuf, recvbuf)` pair split to its shape.  The single source
/// of the shape → lookup-or-compile → buffer-split sequence, shared by the
/// one-shot request path ([`begin_planned`]) and persistent-handle
/// initialization, so the two execution models can never populate
/// different cache entries or split buffers differently.
#[allow(clippy::type_complexity)]
pub fn plan_owned<C: Comm>(
    profile: &LibraryProfile,
    comm: &C,
    request: OwnedCollective,
    cache: &mut crate::plan::PlanCache,
) -> (std::rc::Rc<RankPlan>, Option<Vec<u8>>, Option<Vec<u8>>) {
    let shape = request.shape(comm.world_size());
    let plan = cache.lookup_or_compile(profile, comm.topology(), comm.rank(), &shape);
    let (sendbuf, recvbuf) = request.into_io(&plan);
    (plan, sendbuf, recvbuf)
}

/// Begin a non-blocking collective: look the shape up in the plan cache
/// (compiling on a miss, exactly like [`execute_planned`]) and wrap the
/// compiled plan plus the owned buffers into a resumable [`PlanCursor`]
/// ready to be driven by a `pip_collectives::request::ProgressEngine`.
///
/// Unlike the blocking path there is no large-message bypass: a request
/// *requires* a compiled program to be resumable, so oversized shapes pay
/// the compile (once — persistent handles and repeats reuse the cache).
pub fn begin_planned<C: Comm>(
    profile: &LibraryProfile,
    comm: &C,
    request: OwnedCollective,
    tag: u64,
    cache: &mut crate::plan::PlanCache,
) -> PlanCursor<'static> {
    let (plan, sendbuf, recvbuf) = plan_owned(profile, comm, request, cache);
    PlanCursor::new(
        plan,
        sendbuf.map(SendBuf::Owned),
        recvbuf.map(RecvBuf::Owned),
        tag,
        cache.arena(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_cluster, CollectiveShape};
    use crate::Library;
    use pip_collectives::datatype::{ReduceKernel, ReduceOp};
    use pip_collectives::oracle;
    use pip_collectives::plan::{Fidelity, PlanComm};
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
        for library in Library::ALL {
            let profile = library.profile();
            let results = Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                let sendbuf = oracle::rank_payload(comm.rank(), block);
                let mut recvbuf = vec![0u8; world * block];
                execute(
                    &profile,
                    &comm,
                    CollectiveRequest::Allgather {
                        sendbuf: &sendbuf,
                        recvbuf: &mut recvbuf,
                    },
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
        for library in Library::ALL {
            let profile = library.profile();
            let sendbuf_ref = &sendbuf;
            let results = Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                let mut recvbuf = vec![0u8; block];
                let send = (comm.rank() == 0).then_some(sendbuf_ref.as_slice());
                execute(
                    &profile,
                    &comm,
                    CollectiveRequest::Scatter {
                        sendbuf: send,
                        recvbuf: &mut recvbuf,
                        root: 0,
                    },
                    1,
                );
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
        for library in Library::ALL {
            let profile = library.profile();
            let results = Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                let mut buf = oracle::rank_payload(comm.rank(), len);
                execute(
                    &profile,
                    &comm,
                    CollectiveRequest::Allreduce {
                        buf: &mut buf,
                        op: Reduction::typed::<u8>(ReduceOp::Sum),
                        layout: None,
                        compress: None,
                    },
                    1,
                );
                buf
            })
            .unwrap();
            for buf in &results {
                assert_eq!(buf, &expected, "{} allreduce incorrect", library.name());
            }
        }
    }

    /// The owned (non-blocking) request form derives exactly the shape the
    /// borrowed (blocking) form does — they must share plan-cache entries.
    #[test]
    fn owned_collective_shapes_agree_with_borrowed_requests() {
        let world = 4;
        let block = 8;
        let mut recvbuf = vec![0u8; block];

        let owned = OwnedCollective::Allgather {
            sendbuf: vec![0u8; block],
        };
        let sendbuf = vec![0u8; block];
        let mut allgather_recv = vec![0u8; block * world];
        let borrowed = CollectiveRequest::Allgather {
            sendbuf: &sendbuf,
            recvbuf: &mut allgather_recv,
        };
        assert_eq!(
            owned.shape(world),
            crate::plan::CollectiveShape::of(&borrowed, world)
        );

        let owned = OwnedCollective::Scatter {
            sendbuf: None,
            block,
            root: 3,
        };
        let borrowed = CollectiveRequest::Scatter {
            sendbuf: None,
            recvbuf: &mut recvbuf,
            root: 3,
        };
        assert_eq!(
            owned.shape(world),
            crate::plan::CollectiveShape::of(&borrowed, world)
        );

        let owned = OwnedCollective::Alltoall {
            sendbuf: vec![0u8; block * world],
        };
        let sendbuf = vec![0u8; block * world];
        let mut alltoall_recv = vec![0u8; block * world];
        let borrowed = CollectiveRequest::Alltoall {
            sendbuf: &sendbuf,
            recvbuf: &mut alltoall_recv,
        };
        assert_eq!(
            owned.shape(world),
            crate::plan::CollectiveShape::of(&borrowed, world)
        );

        // Typed reductions agree too — including the (datatype, op) identity.
        let kernel = ReduceKernel::of::<f32>(ReduceOp::Sum);
        let owned = OwnedCollective::Allreduce {
            buf: vec![0u8; block],
            op: OwnedReduction::Typed(kernel),
            layout: None,
            compress: None,
        };
        let mut allreduce_buf = vec![0u8; block];
        let borrowed = CollectiveRequest::Allreduce {
            buf: &mut allreduce_buf,
            op: Reduction::Typed(kernel),
            layout: None,
            compress: None,
        };
        let shape = crate::plan::CollectiveShape::of(&borrowed, world);
        assert_eq!(owned.shape(world), shape);
        assert_eq!(shape.elem_size, 4);
        assert_eq!(shape.reduce, Some(kernel.ident()));

        // Registered user operators agree as well, and a derived datatype
        // keys by its packed size plus the layout triple.
        let op = pip_collectives::Op::create(2, |acc, other| {
            for (a, b) in acc.iter_mut().zip(other) {
                *a = a.wrapping_add(*b);
            }
        });
        let layout = Layout::vector(3, 2, 4);
        let owned = OwnedCollective::Allreduce {
            buf: vec![0u8; layout.extent() * 2],
            op: OwnedReduction::User(op.clone()),
            layout: Some(layout),
            compress: None,
        };
        let mut strided_buf = vec![0u8; layout.extent() * 2];
        let borrowed = CollectiveRequest::Allreduce {
            buf: &mut strided_buf,
            op: Reduction::User(&op),
            layout: Some(layout),
            compress: None,
        };
        let shape = crate::plan::CollectiveShape::of(&borrowed, world);
        assert_eq!(owned.shape(world), shape);
        assert_eq!(shape.block, layout.packed_len() * 2);
        assert_eq!(shape.layout, Some(layout));
        assert_eq!(shape.reduce, Some(op.ident()));
    }

    /// `begin_planned` populates the same cache entry the blocking path
    /// hits afterwards: one compile serves both execution models.
    #[test]
    fn begin_planned_shares_the_plan_cache_with_blocking_dispatch() {
        let profile = Library::PipMColl.profile();
        let topo = Topology::new(2, 2);
        let mut cache = crate::plan::PlanCache::new();
        let cursor = begin_planned(
            &profile,
            &PlanComm::new(0, topo, 0, Fidelity::Schedule),
            OwnedCollective::Allgather {
                sendbuf: vec![0u8; 16],
            },
            1 << 16,
            &mut cache,
        );
        assert!(!cursor.is_finished());
        assert_eq!(cache.stats(), (0, 1));
        // The blocking path's lookup for the same shape is a hit.
        let shape = crate::plan::CollectiveShape {
            kind: CollectiveKind::Allgather,
            block: 16,
            root: 0,
            elem_size: 1,
            reduce: None,
            layout: None,
            compress: None,
        };
        cache.lookup_or_compile(&profile, topo, 0, &shape);
        assert_eq!(cache.stats(), (1, 1));
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
