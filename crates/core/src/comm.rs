//! The [`Communicator`]: the MPI-like handle application code uses for
//! point-to-point and collective communication.
//!
//! A communicator wraps one task of the PiP thread runtime together with the
//! [`LibraryProfile`] that decides which collective algorithms are used.  It
//! hands out monotonically increasing collective sequence numbers so that
//! concurrent and back-to-back collectives never collide on tags or shared
//! buffer names.
//!
//! Every collective call, whatever its entry style — blocking, `i*` or
//! `*_init` — builds the same `pip_mpi_model::OwnedCollective` request (one
//! builder per collective kind holds that kind's preconditions) and goes
//! through the communicator's **plan cache**: the first invocation of a
//! `(collective, message size, root)` shape compiles the selected algorithm
//! to a `pip_collectives::plan::RankPlan`; every repeat looks the compiled
//! plan up and executes it directly — the persistent-collective fast path
//! for production traffic that issues the same collectives over and over.
//! The entry style only decides when the plan is started and waited on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pip_collectives::comm::{Comm as _, ThreadComm};
use pip_collectives::plan::{ArenaStats, ExecPlan, PlanCursor, SharedArena};
use pip_collectives::request::{ProgressEngine, ReqId};
use pip_mpi_model::{dispatch, CompressSpec, LibraryProfile, OwnedCollective, PlanCache};
use pip_runtime::{TaskCtx, Topology};

use crate::datatype::{
    as_bytes, as_bytes_mut, from_bytes, Datatype, DtypeId, ElemBuf, FloatDatatype, Layout,
    OwnedReduction, ReduceOp, Reduction,
};

/// Tag space reserved for each collective invocation (rounds and phases are
/// encoded in the low bits).
const COLLECTIVE_TAG_STRIDE: u64 = 1 << 16;

/// Tag space where point-to-point tags live, above all collective tags.
const P2P_TAG_BASE: u64 = 1 << 48;

/// Completion mapping of a request or persistent handle: turns the receive
/// buffer (`None` where this rank binds none, e.g. off-root gather) into the
/// call's typed result.  The buffer is the typed vector the request
/// allocated or the caller handed in, so the mapping unwraps it: no decode,
/// no second allocation.
type Finish<O> = fn(Option<ElemBuf>) -> O;

/// The typed result of a collective that binds a receive (or in/out) buffer
/// at every rank.
fn received<T: Datatype>(recv: Option<ElemBuf>) -> Vec<T> {
    T::from_elem_buf(recv.expect("the collective binds a receive buffer at every rank"))
}

/// The typed result of a rooted collective: `Some` at the root only.
fn at_root<T: Datatype>(recv: Option<ElemBuf>) -> Option<Vec<T>> {
    recv.map(T::from_elem_buf)
}

/// The completion of a blocking in/out call: the result overwrites `buf`.
fn written<T: Datatype>(buf: &mut [T]) -> impl FnOnce(Option<ElemBuf>) + '_ {
    |recv| buf.copy_from_slice(&received::<T>(recv))
}

/// The request's copy of the caller's `values`, as the buffer the plan
/// reads.
fn owned<T: Datatype>(values: &[T]) -> ElemBuf {
    T::into_elem_buf(values.to_vec())
}

/// A collective request together with the element type of its receive
/// buffer, which the request allocates when it is split for execution.
type Request = (OwnedCollective<ElemBuf>, DtypeId);

/// An MPI-like communicator bound to one process of the launched world.
pub struct Communicator<'a> {
    inner: ThreadComm<'a>,
    profile: LibraryProfile,
    next_collective: Cell<u64>,
    plans: RefCell<PlanCache>,
    engine: RefCell<ProgressEngine>,
}

impl<'a> Communicator<'a> {
    /// Wrap a task context with the given library profile.  Most code uses
    /// [`crate::world::World`] instead of calling this directly.
    pub fn new(ctx: &'a TaskCtx, profile: LibraryProfile) -> Self {
        Self {
            inner: ThreadComm::new(ctx),
            profile,
            next_collective: Cell::new(1),
            plans: RefCell::new(PlanCache::new()),
            engine: RefCell::new(ProgressEngine::new()),
        }
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.inner.rank()
    }

    /// Number of processes in the world.
    pub fn size(&self) -> usize {
        self.inner.world_size()
    }

    /// The cluster topology.
    pub fn topology(&self) -> Topology {
        self.inner.topology()
    }

    /// The node hosting this process.
    pub fn node_id(&self) -> usize {
        self.inner.node_id()
    }

    /// This process's rank within its node.
    pub fn local_rank(&self) -> usize {
        self.inner.local_rank()
    }

    /// The library profile driving algorithm selection.
    pub fn profile(&self) -> &LibraryProfile {
        &self.profile
    }

    /// `(hits, misses)` of the per-communicator plan cache.
    pub fn plan_stats(&self) -> (u64, u64) {
        self.plans.borrow().stats()
    }

    /// Number of distinct compiled plans held by the per-communicator cache
    /// (one per [`pip_mpi_model::CollectiveShape`] ever dispatched).
    pub fn plan_entries(&self) -> usize {
        self.plans.borrow().len()
    }

    /// Scratch-buffer arena accounting for every collective this
    /// communicator dispatched (blocking, non-blocking and persistent): in
    /// the persistent steady state (`*_init` → repeated `start()`) the miss
    /// counter stops moving after the first invocation of each shape.
    pub fn arena_stats(&self) -> ArenaStats {
        self.plans.borrow().arena_stats()
    }

    fn next_tag(&self) -> u64 {
        let seq = self.next_collective.get();
        self.next_collective.set(seq + 1);
        seq * COLLECTIVE_TAG_STRIDE
    }

    /// The blocking runner: run `request` to completion through the plan
    /// cache and map its receive buffer to the call's result.
    fn run<O>(&self, (request, dtype): Request, finish: impl FnOnce(Option<ElemBuf>) -> O) -> O {
        let recv = dispatch::run_blocking(
            &self.profile,
            &self.inner,
            request,
            dtype,
            self.next_tag(),
            &mut self.plans.borrow_mut(),
        );
        finish(recv)
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send a typed message to `dest` with a user `tag`.
    pub fn send<T: Datatype>(&self, dest: usize, tag: u64, data: &[T]) {
        self.inner.send(dest, P2P_TAG_BASE + tag, as_bytes(data));
    }

    /// Receive exactly `count` typed elements from `source` with `tag`.
    pub fn recv<T: Datatype>(&self, source: usize, tag: u64, count: usize) -> Vec<T> {
        from_bytes(&self.inner.recv(source, P2P_TAG_BASE + tag, count * T::SIZE))
    }

    /// Combined send and receive with the same peer count on both sides.
    pub fn sendrecv<T: Datatype>(
        &self,
        dest: usize,
        send_data: &[T],
        source: usize,
        recv_count: usize,
        tag: u64,
    ) -> Vec<T> {
        from_bytes(&self.inner.sendrecv(
            dest,
            P2P_TAG_BASE + tag,
            as_bytes(send_data),
            source,
            P2P_TAG_BASE + tag,
            recv_count * T::SIZE,
        ))
    }

    // ------------------------------------------------------------------
    // Strided (derived-datatype) point-to-point
    // ------------------------------------------------------------------
    //
    // The `MPI_Type_vector` analogue: a [`Layout`] names which elements of
    // the caller's buffer travel, the wire always carries the packed form.
    // A strided side matches a contiguous `recv` or `sendrecv` of
    // `layout.packed_len()` elements and vice versa, exactly as MPI
    // datatypes match by type signature rather than by layout.

    /// Combined strided send and receive: ship the `send_layout`-selected
    /// elements of `send_data` to `dest` while scattering the incoming
    /// packed block from `source` into the `recv_layout`-selected positions
    /// of `recv_buf`.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv_strided<T: Datatype>(
        &self,
        dest: usize,
        send_data: &[T],
        send_layout: Layout,
        source: usize,
        recv_layout: Layout,
        recv_buf: &mut [T],
        tag: u64,
    ) {
        assert_eq!(
            send_data.len(),
            send_layout.extent(),
            "send buffer must span the layout's extent"
        );
        assert_eq!(
            recv_buf.len(),
            recv_layout.extent(),
            "receive buffer must span the layout's extent"
        );
        let mut packed = Vec::new();
        send_layout
            .scaled(T::SIZE)
            .pack_bytes(as_bytes(send_data), &mut packed);
        let recv_byte_layout = recv_layout.scaled(T::SIZE);
        let incoming = self.inner.sendrecv(
            dest,
            P2P_TAG_BASE + tag,
            &packed,
            source,
            P2P_TAG_BASE + tag,
            recv_byte_layout.packed_len(),
        );
        recv_byte_layout.unpack_bytes(&incoming, as_bytes_mut(recv_buf));
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------
    //
    // Every blocking call below runs the same request its `i*` and `*_init`
    // twins submit (see "Request builders"), through the same plan cache,
    // to completion before it returns.

    /// MPI_Allgather: every rank contributes `send`; returns the
    /// concatenation of all contributions in rank order.
    pub fn allgather<T: Datatype>(&self, send: &[T]) -> Vec<T> {
        self.run(self.allgather_request(send), received)
    }

    /// MPI_Scatter: the root supplies `send` (one block of `count` elements
    /// per rank); every rank receives its block.
    pub fn scatter<T: Datatype>(&self, send: Option<&[T]>, count: usize, root: usize) -> Vec<T> {
        self.run(self.scatter_request(send, count, root), received)
    }

    /// MPI_Bcast: `buf` holds the root's data on return at every rank.
    pub fn bcast<T: Datatype>(&self, buf: &mut [T], root: usize) {
        self.run(self.bcast_request(buf, root), written(buf))
    }

    /// MPI_Gather: every rank contributes `send`; the root receives all
    /// contributions in rank order (`Some` at root, `None` elsewhere).
    pub fn gather<T: Datatype>(&self, send: &[T], root: usize) -> Option<Vec<T>> {
        self.run(self.gather_request(send, root), at_root)
    }

    /// MPI_Allreduce; `buf` holds the reduced vector on return at every
    /// rank.
    pub fn allreduce<T: Datatype>(&self, buf: &mut [T], op: impl Reduction<T>) {
        let request = self.allreduce_request(buf, op, None, None);
        self.run(request, written(buf))
    }

    /// [`Communicator::allreduce`] over error-bounded lossy-compressed
    /// transfers: every element of the result is within `bound` of the
    /// exact reduction.  Large inter-process transfers of the compiled
    /// schedule travel as predictor-compressed streams (C-Coll style);
    /// messages under the profile's `compress_min_bytes` threshold — and
    /// node-local shared-memory moves — stay exact.  `bound == 0.0` is the
    /// exact [`Communicator::allreduce`].
    ///
    /// Non-blocking and persistent variants:
    /// [`Communicator::iallreduce_compressed`] and
    /// [`Communicator::allreduce_compressed_init`].
    pub fn allreduce_compressed<T: FloatDatatype>(&self, buf: &mut [T], op: ReduceOp, bound: f64) {
        let request = self.allreduce_request(buf, op, None, Some(bound));
        self.run(request, written(buf))
    }

    /// MPI_Reduce: every rank contributes `send`;
    /// returns `Some` of the element-wise combination at the root, `None`
    /// elsewhere.
    pub fn reduce<T: Datatype>(
        &self,
        send: &[T],
        op: impl Reduction<T>,
        root: usize,
    ) -> Option<Vec<T>> {
        self.run(self.reduce_request(send, op, root), at_root)
    }

    /// MPI_Reduce_scatter_block: `send` holds one block of `count` elements
    /// per rank; returns this rank's fully reduced block.
    pub fn reduce_scatter<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
        op: impl Reduction<T>,
    ) -> Vec<T> {
        let request = self.reduce_scatter_request(send, count, op);
        self.run(request, received)
    }

    /// MPI_Scan; `buf` holds the inclusive prefix (ranks `0..=rank`) on
    /// return.
    pub fn scan<T: Datatype>(&self, buf: &mut [T], op: impl Reduction<T>) {
        self.run(self.scan_request(buf, op), written(buf))
    }

    /// MPI_Exscan; `buf` holds the exclusive prefix (ranks `0..rank`) on
    /// return.  Rank 0's buffer is left untouched (MPI leaves it
    /// undefined).
    pub fn exscan<T: Datatype>(&self, buf: &mut [T], op: impl Reduction<T>) {
        self.run(self.exscan_request(buf, op), written(buf))
    }

    /// [`Communicator::allreduce`] over a strided buffer: only the
    /// `layout`-selected elements of `buf` (which spans `layout.extent()`
    /// elements) participate; gap elements are left untouched at every
    /// rank.  The layout is part of the plan-cache key, so a strided and a
    /// contiguous allreduce of equal packed size never share a plan.
    pub fn allreduce_strided<T: Datatype>(
        &self,
        buf: &mut [T],
        layout: Layout,
        op: impl Reduction<T>,
    ) {
        let request = self.allreduce_request(buf, op, Some(layout), None);
        self.run(request, written(buf))
    }

    /// MPI_Alltoall: `send` holds one block of `count` elements per
    /// destination rank; returns one block per source rank.
    pub fn alltoall<T: Datatype>(&self, send: &[T], count: usize) -> Vec<T> {
        self.run(self.alltoall_request(send, count), received)
    }

    /// MPI_Barrier.
    pub fn barrier(&self) {
        self.run((OwnedCollective::Barrier, DtypeId::U8), |_| ())
    }

    // ------------------------------------------------------------------
    // Non-blocking collectives (MPI_I*)
    // ------------------------------------------------------------------
    //
    // Every `i*` call compiles (or looks up) the collective's plan, wraps it
    // in a resumable cursor, registers it with the communicator's progress
    // engine and kicks it once (so the leading posts go out at call time,
    // as a real MPI_I* does); the returned request completes it.
    //
    // **Ordering contract.**  Non-blocking collectives are *collective*
    // operations: every rank must issue the matching call, in the same
    // order relative to all other collectives on the communicator.
    // Completion calls may then happen in any order — any `wait`/`test`
    // advances every outstanding request.  One restriction follows from
    // progress living inside completion calls (there is no background
    // progress thread): *blocking* operations do not advance outstanding
    // requests, so all ranks must also order their blocking operations
    // identically relative to their completion calls.  Ranks that disagree
    // — one rank entering a blocking collective while its peer waits on a
    // request whose progress needs that rank — surface as a receive/
    // progress timeout rather than a hang.

    /// The non-blocking runner: register a cursor for `request` with the
    /// progress engine and kick it to its first blocking point.
    fn submit<O>(&self, (request, dtype): Request, finish: Finish<O>) -> CollRequest<'_, O> {
        let cursor = dispatch::begin_planned(
            &self.profile,
            &self.inner,
            request,
            dtype,
            self.next_tag(),
            &mut self.plans.borrow_mut(),
        );
        let id = self.engine.borrow_mut().submit(cursor);
        self.progress();
        CollRequest {
            comm: self,
            id,
            finish,
        }
    }

    /// Step every outstanding request once; returns whether any advanced.
    fn progress(&self) -> bool {
        self.engine.borrow_mut().progress(self.inner.ctx())
    }

    /// Requests submitted but not yet completed-and-collected.
    pub fn outstanding_requests(&self) -> usize {
        self.engine.borrow().outstanding()
    }

    /// Non-blocking [`Communicator::allgather`]: returns immediately; the
    /// request's `wait` yields the concatenation of all contributions.
    pub fn iallgather<T: Datatype>(&self, send: &[T]) -> CollRequest<'_, Vec<T>> {
        self.submit(self.allgather_request(send), received)
    }

    /// Non-blocking [`Communicator::scatter`]: the root supplies one block
    /// of `count` elements per rank; `wait` yields this rank's block.
    pub fn iscatter<T: Datatype>(
        &self,
        send: Option<&[T]>,
        count: usize,
        root: usize,
    ) -> CollRequest<'_, Vec<T>> {
        self.submit(self.scatter_request(send, count, root), received)
    }

    /// Non-blocking [`Communicator::bcast`]: `buf` supplies the root's data;
    /// `wait` yields the broadcast vector at every rank.
    pub fn ibcast<T: Datatype>(&self, buf: &[T], root: usize) -> CollRequest<'_, Vec<T>> {
        self.submit(self.bcast_request(buf, root), received)
    }

    /// Non-blocking [`Communicator::gather`]: `wait` yields `Some` of the
    /// rank-ordered concatenation at the root, `None` elsewhere.
    pub fn igather<T: Datatype>(&self, send: &[T], root: usize) -> CollRequest<'_, Option<Vec<T>>> {
        self.submit(self.gather_request(send, root), at_root)
    }

    /// Non-blocking [`Communicator::allreduce`]: `wait` yields the reduced
    /// vector at every rank.
    pub fn iallreduce<T: Datatype>(
        &self,
        buf: &[T],
        op: impl Reduction<T>,
    ) -> CollRequest<'_, Vec<T>> {
        self.submit(self.allreduce_request(buf, op, None, None), received)
    }

    /// Non-blocking [`Communicator::allreduce_compressed`]: `wait` yields
    /// a vector whose every element is within `bound` of the exact
    /// reduction.
    pub fn iallreduce_compressed<T: FloatDatatype>(
        &self,
        buf: &[T],
        op: ReduceOp,
        bound: f64,
    ) -> CollRequest<'_, Vec<T>> {
        let request = self.allreduce_request(buf, op, None, Some(bound));
        self.submit(request, received)
    }

    /// Non-blocking [`Communicator::reduce`]: `wait` yields `Some` of the
    /// combination at the root, `None` elsewhere.
    pub fn ireduce<T: Datatype>(
        &self,
        send: &[T],
        op: impl Reduction<T>,
        root: usize,
    ) -> CollRequest<'_, Option<Vec<T>>> {
        self.submit(self.reduce_request(send, op, root), at_root)
    }

    /// Non-blocking [`Communicator::reduce_scatter`]: `send` holds one
    /// block of `count` elements per rank; `wait` yields this rank's fully
    /// reduced block.
    pub fn ireduce_scatter<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
        op: impl Reduction<T>,
    ) -> CollRequest<'_, Vec<T>> {
        let request = self.reduce_scatter_request(send, count, op);
        self.submit(request, received)
    }

    /// Non-blocking [`Communicator::scan`]: `wait` yields the inclusive
    /// prefix at every rank.
    pub fn iscan<T: Datatype>(&self, buf: &[T], op: impl Reduction<T>) -> CollRequest<'_, Vec<T>> {
        self.submit(self.scan_request(buf, op), received)
    }

    /// Non-blocking [`Communicator::exscan`]: `wait` yields the exclusive
    /// prefix (rank 0 gets its input back, see [`Communicator::exscan`]).
    pub fn iexscan<T: Datatype>(
        &self,
        buf: &[T],
        op: impl Reduction<T>,
    ) -> CollRequest<'_, Vec<T>> {
        self.submit(self.exscan_request(buf, op), received)
    }

    /// Non-blocking [`Communicator::alltoall`]: `send` holds one block of
    /// `count` elements per destination; `wait` yields one block per source.
    pub fn ialltoall<T: Datatype>(&self, send: &[T], count: usize) -> CollRequest<'_, Vec<T>> {
        self.submit(self.alltoall_request(send, count), received)
    }

    /// Non-blocking [`Communicator::allreduce_strided`]: `wait` yields the
    /// full extent-length vector with the gap elements as submitted.
    pub fn iallreduce_strided<T: Datatype>(
        &self,
        buf: &[T],
        layout: Layout,
        op: impl Reduction<T>,
    ) -> CollRequest<'_, Vec<T>> {
        let request = self.allreduce_request(buf, op, Some(layout), None);
        self.submit(request, received)
    }

    // ------------------------------------------------------------------
    // Persistent collectives (MPI_*_init / MPI_Start)
    // ------------------------------------------------------------------

    /// The persistent runner: resolve `request` against the plan cache
    /// exactly as the other entry styles do, and pin the plan to the
    /// request's buffers.
    fn init<O>(&self, (request, dtype): Request, finish: Finish<O>) -> PersistentColl<'_, O> {
        let op = request.op().cloned();
        let mut plans = self.plans.borrow_mut();
        let (plan, sendbuf, recvbuf) =
            dispatch::plan_owned(&self.profile, &self.inner, request, dtype, &mut plans);
        PersistentColl {
            comm: self,
            plan,
            sendbuf,
            recvbuf,
            arena: plans.arena(),
            op,
            active: None,
            finish,
        }
    }

    /// Persistent [`Communicator::allgather`]: compile once, then
    /// `start()`/`wait()` any number of times with the pinned buffers.
    pub fn allgather_init<T: Datatype>(&self, send: &[T]) -> PersistentColl<'_, Vec<T>> {
        self.init(self.allgather_request(send), received)
    }

    /// Persistent [`Communicator::scatter`] from `root` (the root pins one
    /// block of `count` elements per rank).
    pub fn scatter_init<T: Datatype>(
        &self,
        send: Option<&[T]>,
        count: usize,
        root: usize,
    ) -> PersistentColl<'_, Vec<T>> {
        self.init(self.scatter_request(send, count, root), received)
    }

    /// Persistent [`Communicator::bcast`] from `root`; update the root's
    /// payload between starts with [`PersistentColl::write_send`].
    pub fn bcast_init<T: Datatype>(&self, buf: &[T], root: usize) -> PersistentColl<'_, Vec<T>> {
        self.init(self.bcast_request(buf, root), received)
    }

    /// Persistent [`Communicator::gather`] to `root`; `wait` yields `Some`
    /// at the root, `None` elsewhere.
    pub fn gather_init<T: Datatype>(
        &self,
        send: &[T],
        root: usize,
    ) -> PersistentColl<'_, Option<Vec<T>>> {
        self.init(self.gather_request(send, root), at_root)
    }

    /// Persistent [`Communicator::allreduce`].
    pub fn allreduce_init<T: Datatype>(
        &self,
        buf: &[T],
        op: impl Reduction<T>,
    ) -> PersistentColl<'_, Vec<T>> {
        self.init(self.allreduce_request(buf, op, None, None), received)
    }

    /// Persistent [`Communicator::allreduce_compressed`]: the compiled
    /// lossy-transfer schedule is reused across starts, so repeat traffic
    /// pays neither re-planning nor re-calibration of the wire model.
    pub fn allreduce_compressed_init<T: FloatDatatype>(
        &self,
        buf: &[T],
        op: ReduceOp,
        bound: f64,
    ) -> PersistentColl<'_, Vec<T>> {
        let request = self.allreduce_request(buf, op, None, Some(bound));
        self.init(request, received)
    }

    /// Persistent [`Communicator::reduce`] to `root`; `wait` yields `Some`
    /// at the root, `None` elsewhere.
    pub fn reduce_init<T: Datatype>(
        &self,
        send: &[T],
        op: impl Reduction<T>,
        root: usize,
    ) -> PersistentColl<'_, Option<Vec<T>>> {
        self.init(self.reduce_request(send, op, root), at_root)
    }

    /// Persistent [`Communicator::reduce_scatter`] (one pinned block of
    /// `count` elements per rank).
    pub fn reduce_scatter_init<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
        op: impl Reduction<T>,
    ) -> PersistentColl<'_, Vec<T>> {
        let request = self.reduce_scatter_request(send, count, op);
        self.init(request, received)
    }

    /// Persistent [`Communicator::scan`].
    pub fn scan_init<T: Datatype>(
        &self,
        buf: &[T],
        op: impl Reduction<T>,
    ) -> PersistentColl<'_, Vec<T>> {
        self.init(self.scan_request(buf, op), received)
    }

    /// Persistent [`Communicator::exscan`] (rank 0 gets its pinned input
    /// back on every `wait`).
    pub fn exscan_init<T: Datatype>(
        &self,
        buf: &[T],
        op: impl Reduction<T>,
    ) -> PersistentColl<'_, Vec<T>> {
        self.init(self.exscan_request(buf, op), received)
    }

    /// Persistent [`Communicator::allreduce_strided`]: the pinned buffer
    /// spans `layout.extent()` elements, of which only the selected ones
    /// participate; every `wait` yields the full extent-length vector.
    pub fn allreduce_strided_init<T: Datatype>(
        &self,
        buf: &[T],
        layout: Layout,
        op: impl Reduction<T>,
    ) -> PersistentColl<'_, Vec<T>> {
        let request = self.allreduce_request(buf, op, Some(layout), None);
        self.init(request, received)
    }

    /// Persistent [`Communicator::alltoall`] (one pinned block of `count`
    /// elements per destination rank).
    pub fn alltoall_init<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
    ) -> PersistentColl<'_, Vec<T>> {
        self.init(self.alltoall_request(send, count), received)
    }

    // ------------------------------------------------------------------
    // Request builders
    // ------------------------------------------------------------------
    //
    // One per collective kind, shared by the blocking, `i*` and `*_init`
    // entry styles: the three check the same preconditions and describe
    // the invocation with the same request, so they share its plan-cache
    // shape.

    fn allgather_request<T: Datatype>(&self, send: &[T]) -> Request {
        (
            OwnedCollective::Allgather {
                sendbuf: owned(send),
            },
            T::ID,
        )
    }

    fn scatter_request<T: Datatype>(
        &self,
        send: Option<&[T]>,
        count: usize,
        root: usize,
    ) -> Request {
        // Significant only at the root, as in MPI: a non-root's buffer is
        // dropped unread (see `OwnedCollective::into_io`).
        if self.rank() == root {
            assert_eq!(
                send.map(<[T]>::len),
                Some(count * self.size()),
                "root must supply count * size elements"
            );
        }
        (
            OwnedCollective::Scatter {
                sendbuf: send.map(owned),
                block: count * T::SIZE,
                root,
            },
            T::ID,
        )
    }

    fn bcast_request<T: Datatype>(&self, buf: &[T], root: usize) -> Request {
        (
            OwnedCollective::Bcast {
                buf: owned(buf),
                root,
            },
            T::ID,
        )
    }

    fn gather_request<T: Datatype>(&self, send: &[T], root: usize) -> Request {
        (
            OwnedCollective::Gather {
                sendbuf: owned(send),
                root,
            },
            T::ID,
        )
    }

    /// An allreduce of `buf`, over the `layout`-selected elements when one
    /// is given, compressed within `bound` when one is given.  The
    /// compression spec pairs the bound with this profile's bytes-on-wire
    /// threshold (`selection.compress_min_bytes`); normalization against
    /// the actual message size happens at shape time, so a bound of `0.0`
    /// (or a buffer under the threshold) degrades to the exact plan.
    fn allreduce_request<T: Datatype>(
        &self,
        buf: &[T],
        op: impl Reduction<T>,
        layout: Option<Layout>,
        bound: Option<f64>,
    ) -> Request {
        if let Some(layout) = layout {
            assert_eq!(
                buf.len(),
                layout.extent(),
                "buffer must span the layout's extent"
            );
        }
        let compress = bound.map(|bound| {
            assert!(
                bound >= 0.0 && bound.is_finite(),
                "compression error bound must be finite and non-negative, got {bound}"
            );
            CompressSpec::from_bound(bound, self.profile.selection.compress_min_bytes)
        });
        (
            OwnedCollective::Allreduce {
                buf: owned(buf),
                op: op.reduction(),
                layout,
                compress,
            },
            T::ID,
        )
    }

    fn reduce_request<T: Datatype>(
        &self,
        send: &[T],
        op: impl Reduction<T>,
        root: usize,
    ) -> Request {
        (
            OwnedCollective::Reduce {
                sendbuf: owned(send),
                root,
                op: op.reduction(),
            },
            T::ID,
        )
    }

    fn reduce_scatter_request<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
        op: impl Reduction<T>,
    ) -> Request {
        assert_eq!(
            send.len(),
            count * self.size(),
            "sendbuf must hold count * size elements"
        );
        (
            OwnedCollective::ReduceScatter {
                sendbuf: owned(send),
                op: op.reduction(),
            },
            T::ID,
        )
    }

    fn scan_request<T: Datatype>(&self, buf: &[T], op: impl Reduction<T>) -> Request {
        (
            OwnedCollective::Scan {
                buf: owned(buf),
                op: op.reduction(),
            },
            T::ID,
        )
    }

    fn exscan_request<T: Datatype>(&self, buf: &[T], op: impl Reduction<T>) -> Request {
        (
            OwnedCollective::Exscan {
                buf: owned(buf),
                op: op.reduction(),
            },
            T::ID,
        )
    }

    fn alltoall_request<T: Datatype>(&self, send: &[T], count: usize) -> Request {
        assert_eq!(
            send.len(),
            count * self.size(),
            "sendbuf must hold count * size elements"
        );
        (
            OwnedCollective::Alltoall {
                sendbuf: owned(send),
            },
            T::ID,
        )
    }
}

/// Handle to one outstanding non-blocking collective (the MPI request
/// object).  Obtained from the `Communicator::i*` methods; completed with
/// [`CollRequest::wait`] (or polled with [`CollRequest::test`]), in any
/// order relative to other requests.
///
/// Dropping a request without completing it leaves the collective
/// outstanding; peers waiting on it will only complete while *some*
/// completion call on this communicator keeps the progress engine turning.
/// Complete every request, as MPI requires.
pub struct CollRequest<'c, O> {
    comm: &'c Communicator<'c>,
    id: ReqId,
    finish: Finish<O>,
}

impl<O> CollRequest<'_, O> {
    /// Poll for completion without blocking: advances every outstanding
    /// request on the communicator once and reports whether *this* one has
    /// finished (after which [`CollRequest::wait`] returns immediately).
    pub fn test(&mut self) -> bool {
        self.comm.progress();
        self.comm.engine.borrow().is_complete(self.id)
    }

    /// Block until the collective completes and return its result.  A peer
    /// that never issues the matching collective surfaces as a launch error
    /// after the fabric's receive-timeout grace period (see
    /// [`pip_collectives::request::drive_to_done`]).
    pub fn wait(self) -> O {
        let comm = self.comm;
        let output = comm.engine.borrow_mut().wait(comm.inner.ctx(), self.id);
        (self.finish)(output.recvbuf)
    }
}

impl<O> std::fmt::Debug for CollRequest<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollRequest").field("id", &self.id).finish()
    }
}

/// Complete a batch of requests (MPI_Waitall) and return their results in
/// the order the requests were passed — completion itself may happen in any
/// order, since every `wait` advances all outstanding requests.
pub fn wait_all<'c, O>(requests: impl IntoIterator<Item = CollRequest<'c, O>>) -> Vec<O> {
    requests.into_iter().map(CollRequest::wait).collect()
}

/// A persistent collective (MPI_*_init): the compiled plan pinned to a set
/// of caller buffers, startable any number of times.
///
/// The cycle is `write_send` (optional, to refresh the input) → [`start`] →
/// [`wait`], repeated; the plan is compiled at most once (and shared with
/// every other invocation of the same shape through the communicator's plan
/// cache).  As with non-blocking collectives, every rank must `start` its
/// handle in the same order relative to the communicator's other
/// collectives.
///
/// [`start`]: PersistentColl::start
/// [`wait`]: PersistentColl::wait
pub struct PersistentColl<'c, O> {
    comm: &'c Communicator<'c>,
    plan: Rc<ExecPlan>,
    sendbuf: Option<ElemBuf>,
    recvbuf: Option<ElemBuf>,
    /// The communicator's shared scratch arena: every start after the first
    /// reacquires the buffers the previous execution released.
    arena: SharedArena,
    /// The reduction operator; each start hands its cursor a clone (a copy
    /// of a built-in kernel, an `Arc` clone of a user operator).
    op: Option<OwnedReduction>,
    active: Option<ReqId>,
    finish: Finish<O>,
}

impl<O> PersistentColl<'_, O> {
    /// Begin one execution of the pinned collective.
    ///
    /// # Panics
    ///
    /// Panics when the previous execution has not been completed with
    /// [`PersistentColl::wait`].
    pub fn start(&mut self) {
        assert!(
            self.active.is_none(),
            "persistent collective already started"
        );
        let cursor = PlanCursor::new(
            Rc::clone(&self.plan),
            self.sendbuf.take(),
            self.recvbuf.take(),
            self.comm.next_tag(),
            Rc::clone(&self.arena),
            self.op.clone(),
        );
        let id = self.comm.engine.borrow_mut().submit(cursor);
        self.active = Some(id);
        // Kick to the first blocking point so the leading posts go out at
        // start time, as with the one-shot `i*` calls.
        self.comm.progress();
    }

    /// Poll the in-flight execution; `true` once it can be waited without
    /// blocking.
    pub fn test(&mut self) -> bool {
        let id = self.active.expect("persistent collective not started");
        self.comm.progress();
        self.comm.engine.borrow().is_complete(id)
    }

    /// Complete the in-flight execution and return its result; the pinned
    /// buffers return to the handle for the next [`PersistentColl::start`].
    /// The result is one copy of the pinned receive buffer, which the
    /// handle keeps.
    pub fn wait(&mut self) -> O {
        let id = self
            .active
            .take()
            .expect("persistent collective not started");
        let ctx = self.comm.inner.ctx();
        let output = self.comm.engine.borrow_mut().wait(ctx, id);
        self.sendbuf = output.sendbuf;
        self.recvbuf = output.recvbuf;
        (self.finish)(self.recvbuf.clone())
    }

    /// Overwrite the pinned input buffer with `data` (the persistent
    /// equivalent of passing a fresh send buffer): the next
    /// [`PersistentColl::start`] transmits the new bytes.  For in/out
    /// collectives (bcast, allreduce) this writes the single pinned buffer.
    ///
    /// # Panics
    ///
    /// Panics while an execution is active, when this rank binds no input
    /// buffer (e.g. a non-root scatter rank), or when `data`'s byte length
    /// differs from the pinned buffer's.
    pub fn write_send<T: Datatype>(&mut self, data: &[T]) {
        assert!(
            self.active.is_none(),
            "cannot rebind input while the collective is active"
        );
        let target = if self.plan.io.inout {
            self.recvbuf.as_mut()
        } else {
            self.sendbuf.as_mut()
        };
        let target = target.expect("this rank binds no input buffer");
        assert_eq!(
            data.len() * T::SIZE,
            target.len(),
            "input length must match the pinned buffer"
        );
        target.copy_from_slice(as_bytes(data));
    }
}

impl<O> std::fmt::Debug for PersistentColl<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentColl")
            .field("active", &self.active)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Op;
    use crate::world::World;
    use pip_mpi_model::Library;
    use pip_runtime::Cluster;
    use std::time::Duration;

    #[test]
    fn typed_point_to_point_round_trip() {
        let results = World::builder()
            .nodes(1)
            .ppn(2)
            .library(Library::PipMColl)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, &[1.5f64, -2.5]);
                    Vec::new()
                } else {
                    comm.recv::<f64>(0, 7, 2)
                }
            })
            .unwrap();
        assert_eq!(results[1], vec![1.5, -2.5]);
    }

    #[test]
    fn collective_sequence_numbers_keep_back_to_back_collectives_separate() {
        let results = World::builder()
            .nodes(2)
            .ppn(2)
            .library(Library::PipMColl)
            .run(|comm| {
                // Two different collectives back to back on the same
                // communicator must not interfere.
                let first = comm.allgather(&[comm.rank() as u32]);
                let second = comm.allgather(&[(comm.rank() * 10) as u32]);
                comm.barrier();
                (first, second)
            })
            .unwrap();
        for (first, second) in results {
            assert_eq!(first, vec![0, 1, 2, 3]);
            assert_eq!(second, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn typed_allreduce_supports_min_and_max() {
        let results = World::builder()
            .nodes(2)
            .ppn(3)
            .library(Library::PipMColl)
            .run(|comm| {
                let mut maxes = [comm.rank() as i64, -(comm.rank() as i64)];
                comm.allreduce(&mut maxes, ReduceOp::Max);
                let mut mins = [comm.rank() as f64];
                comm.allreduce(&mut mins, ReduceOp::Min);
                (maxes, mins)
            })
            .unwrap();
        for (maxes, mins) in results {
            assert_eq!(maxes, [5, 0]);
            assert_eq!(mins, [0.0]);
        }
    }

    /// Regression pin for the plan-cache routing of MPI_Barrier: the first
    /// barrier compiles a `CollectiveShape { kind: Barrier, .. }` entry,
    /// every later barrier is a cache hit — the barrier must never bypass
    /// the plan cache the way oversized payload collectives do.
    #[test]
    fn barrier_is_served_from_the_plan_cache() {
        let results = World::builder()
            .nodes(2)
            .ppn(2)
            .library(Library::PipMColl)
            .run(|comm| {
                comm.barrier();
                let after_first = (comm.plan_stats(), comm.plan_entries());
                comm.barrier();
                comm.barrier();
                let after_third = (comm.plan_stats(), comm.plan_entries());
                (after_first, after_third)
            })
            .unwrap();
        for (after_first, after_third) in results {
            assert_eq!(after_first, ((0, 1), 1), "first barrier must compile");
            assert_eq!(
                after_third,
                ((2, 1), 1),
                "repeated barriers must hit the cached plan"
            );
        }
    }

    #[test]
    fn typed_reduction_family_round_trips() {
        let results = World::builder()
            .nodes(2)
            .ppn(3)
            .library(Library::PipMColl)
            .run(|comm| {
                let world = comm.size();
                let rank = comm.rank() as i64;
                let reduced = comm.reduce(&[rank, 10 * rank], ReduceOp::Sum, 1);
                let scattered = comm.reduce_scatter(
                    &(0..world as i64).map(|i| rank + i).collect::<Vec<_>>(),
                    1,
                    ReduceOp::Sum,
                );
                let mut prefix = [rank];
                comm.scan(&mut prefix, ReduceOp::Sum);
                let mut exclusive = [rank];
                comm.exscan(&mut exclusive, ReduceOp::Sum);
                (reduced, scattered, prefix[0], exclusive[0])
            })
            .unwrap();
        let world = 6i64;
        let rank_sum: i64 = (0..world).sum();
        for (rank, (reduced, scattered, prefix, exclusive)) in results.iter().enumerate() {
            let rank = rank as i64;
            if rank == 1 {
                assert_eq!(reduced.as_ref().unwrap(), &vec![rank_sum, 10 * rank_sum]);
            } else {
                assert!(reduced.is_none());
            }
            // Block r of the reduced vector: sum over ranks of (rank + r).
            assert_eq!(scattered, &vec![rank_sum + world * rank]);
            assert_eq!(*prefix, (0..=rank).sum::<i64>());
            if rank == 0 {
                assert_eq!(*exclusive, 0, "rank 0 exscan keeps its input");
            } else {
                assert_eq!(*exclusive, (0..rank).sum::<i64>());
            }
        }
    }

    /// Which entry style runs a collective.
    #[derive(Debug, Clone, Copy)]
    enum Style {
        Blocking,
        Request,
        Persistent,
    }

    /// Run one invocation at `style` and return its result.
    fn run_as<'c, O>(
        style: Style,
        blocking: impl FnOnce() -> O,
        request: impl FnOnce() -> CollRequest<'c, O>,
        persistent: impl FnOnce() -> PersistentColl<'c, O>,
    ) -> O {
        match style {
            Style::Blocking => blocking(),
            Style::Request => request().wait(),
            Style::Persistent => {
                let mut handle = persistent();
                handle.start();
                handle.wait()
            }
        }
    }

    /// `n` distinct values per rank.
    fn data(comm: &Communicator<'_>, n: usize) -> Vec<f32> {
        (0..n).map(|i| (comm.rank() * n + i) as f32 * 0.5).collect()
    }

    /// One case per collective kind plus the allreduce user-operator,
    /// `_strided` and `_compressed` variants: rank `comm`'s call at
    /// `style`.  The shapes of the cases are pairwise distinct.
    type Case = (&'static str, fn(&Communicator<'_>, Style, &Op) -> Vec<f32>);
    const CASES: [Case; 14] = [
        ("allgather", |c, s, _| {
            let x = data(c, 4);
            run_as(
                s,
                || c.allgather(&x),
                || c.iallgather(&x),
                || c.allgather_init(&x),
            )
        }),
        ("scatter", |c, s, _| {
            let x = (c.rank() == 1).then(|| data(c, 4 * c.size()));
            let x = x.as_deref();
            let (blocking, request) = (|| c.scatter(x, 4, 1), || c.iscatter(x, 4, 1));
            run_as(s, blocking, request, || c.scatter_init(x, 4, 1))
        }),
        ("bcast", |c, s, _| {
            let x = data(c, 3);
            let blocking = || {
                let mut buf = x.clone();
                c.bcast(&mut buf, 2);
                buf
            };
            run_as(s, blocking, || c.ibcast(&x, 2), || c.bcast_init(&x, 2))
        }),
        ("gather", |c, s, _| {
            let x = data(c, 2);
            run_as(
                s,
                || c.gather(&x, 3),
                || c.igather(&x, 3),
                || c.gather_init(&x, 3),
            )
            .unwrap_or_default()
        }),
        ("allreduce", |c, s, _| {
            let x = data(c, 5);
            let blocking = || {
                let mut buf = x.clone();
                c.allreduce(&mut buf, ReduceOp::Sum);
                buf
            };
            let request = || c.iallreduce(&x, ReduceOp::Sum);
            run_as(s, blocking, request, || c.allreduce_init(&x, ReduceOp::Sum))
        }),
        ("reduce", |c, s, _| {
            let x = data(c, 5);
            let (op, root) = (ReduceOp::Max, 4);
            let (blocking, request) = (|| c.reduce(&x, op, root), || c.ireduce(&x, op, root));
            run_as(s, blocking, request, || c.reduce_init(&x, op, root)).unwrap_or_default()
        }),
        ("reduce_scatter", |c, s, _| {
            let x = data(c, 3 * c.size());
            let op = ReduceOp::Min;
            let blocking = || c.reduce_scatter(&x, 3, op);
            let request = || c.ireduce_scatter(&x, 3, op);
            run_as(s, blocking, request, || c.reduce_scatter_init(&x, 3, op))
        }),
        ("scan", |c, s, _| {
            let x = data(c, 7);
            let blocking = || {
                let mut buf = x.clone();
                c.scan(&mut buf, ReduceOp::Sum);
                buf
            };
            let request = || c.iscan(&x, ReduceOp::Sum);
            run_as(s, blocking, request, || c.scan_init(&x, ReduceOp::Sum))
        }),
        ("exscan", |c, s, _| {
            let x = data(c, 7);
            let blocking = || {
                let mut buf = x.clone();
                c.exscan(&mut buf, ReduceOp::Sum);
                buf
            };
            let request = || c.iexscan(&x, ReduceOp::Sum);
            run_as(s, blocking, request, || c.exscan_init(&x, ReduceOp::Sum))
        }),
        ("alltoall", |c, s, _| {
            let x = data(c, 2 * c.size());
            run_as(
                s,
                || c.alltoall(&x, 2),
                || c.ialltoall(&x, 2),
                || c.alltoall_init(&x, 2),
            )
        }),
        // The barrier has no `i*` or `*_init` form: every style is the
        // blocking call.
        ("barrier", |c, _, _| {
            c.barrier();
            Vec::new()
        }),
        ("allreduce_user_op", |c, s, op| {
            let x = data(c, 5);
            let blocking = || {
                let mut buf = x.clone();
                c.allreduce(&mut buf, op);
                buf
            };
            run_as(
                s,
                blocking,
                || c.iallreduce(&x, op),
                || c.allreduce_init(&x, op),
            )
        }),
        ("allreduce_strided", |c, s, _| {
            let layout = Layout::vector(3, 2, 4);
            let x = data(c, layout.extent());
            let blocking = || {
                let mut buf = x.clone();
                c.allreduce_strided(&mut buf, layout, ReduceOp::Sum);
                buf
            };
            let request = || c.iallreduce_strided(&x, layout, ReduceOp::Sum);
            run_as(s, blocking, request, || {
                c.allreduce_strided_init(&x, layout, ReduceOp::Sum)
            })
        }),
        ("allreduce_compressed", |c, s, _| {
            // Large enough to stay over the profile's compression threshold,
            // so the spec is not normalized away.
            let x = data(c, c.profile().selection.compress_min_bytes / 4);
            let (op, bound) = (ReduceOp::Sum, 1e-3);
            let blocking = || {
                let mut buf = x.clone();
                c.allreduce_compressed(&mut buf, op, bound);
                buf
            };
            let request = || c.iallreduce_compressed(&x, op, bound);
            run_as(s, blocking, request, || {
                c.allreduce_compressed_init(&x, op, bound)
            })
        }),
    ];

    /// One shape per invocation, whatever the entry style: each case's
    /// blocking call compiles its plan once, and its `i*` and `*_init` twins
    /// at the same size hit that plan — at every rank — and all three
    /// compute the same result.
    #[test]
    fn every_entry_style_shares_one_plan_per_invocation() {
        let sum = Op::of_typed::<f32>(|a, b| a + b);
        let topo = Topology::new(2, 3);
        let profile = Library::PipMColl.profile();
        World::run_with_profile(topo, profile, |comm| {
            for (name, case) in CASES {
                let (before, entries) = (comm.plan_stats(), comm.plan_entries());
                let results = [Style::Blocking, Style::Request, Style::Persistent]
                    .map(|style| case(comm, style, &sum));
                let (hits, misses) = comm.plan_stats();
                let rank = comm.rank();
                assert_eq!(
                    (hits - before.0, misses - before.1),
                    (2, 1),
                    "{name} at rank {rank}: (hits, misses) of its three entry styles"
                );
                assert_eq!(comm.plan_entries(), entries + 1, "{name} at rank {rank}");
                assert_eq!(
                    results[0], results[1],
                    "{name}: blocking vs i* at rank {rank}"
                );
                assert_eq!(
                    results[0], results[2],
                    "{name}: blocking vs init at rank {rank}"
                );
            }
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "sendbuf must hold count * size elements")]
    fn alltoall_rejects_a_short_send_buffer() {
        World::builder()
            .nodes(1)
            .ppn(2)
            .run(|comm| comm.alltoall(&[1u32, 2, 3], 2))
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "root must supply count * size elements")]
    fn scatter_rejects_a_root_without_a_send_buffer() {
        // The non-root waits for the root that panicked; a short deadline
        // ends its wait.
        let topo = Topology::new(1, 2);
        Cluster::launch_with_timeout(topo, Duration::from_millis(100), |ctx| {
            Communicator::new(ctx, Library::PipMColl.profile()).scatter::<u32>(None, 2, 0)
        })
        .unwrap();
    }

    /// The send buffer is significant only at the root: a non-root's
    /// wrong-length buffer is ignored at every entry style.
    #[test]
    fn scatter_ignores_a_non_root_send_buffer() {
        let (topo, root) = (Topology::new(2, 2), 1);
        World::run_with_profile(topo, Library::PipMColl.profile(), |comm| {
            let rank = comm.rank();
            let blocks = data(comm, 3 * comm.size());
            let clean = comm.scatter((rank == root).then_some(&blocks[..]), 3, root);
            let junk = [7.0f32; 5];
            let send = Some(if rank == root { &blocks[..] } else { &junk[..] });
            for style in [Style::Blocking, Style::Request, Style::Persistent] {
                let result = run_as(
                    style,
                    || comm.scatter(send, 3, root),
                    || comm.iscatter(send, 3, root),
                    || comm.scatter_init(send, 3, root),
                );
                assert_eq!(result, clean, "{style:?} at rank {rank}");
            }
        })
        .unwrap();
    }

    #[test]
    fn sendrecv_exchanges_between_neighbours() {
        let results = World::builder()
            .nodes(1)
            .ppn(4)
            .library(Library::OpenMpi)
            .run(|comm| {
                let right = (comm.rank() + 1) % comm.size();
                let left = (comm.rank() + comm.size() - 1) % comm.size();
                let received = comm.sendrecv(right, &[comm.rank() as u32], left, 1, 3);
                received[0]
            })
            .unwrap();
        assert_eq!(results, vec![3, 0, 1, 2]);
    }
}
