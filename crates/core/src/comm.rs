//! The [`Communicator`]: the MPI-like handle application code uses for
//! point-to-point and collective communication.
//!
//! A communicator wraps one task of the PiP thread runtime together with the
//! [`LibraryProfile`] that decides which collective algorithms are used.  It
//! hands out monotonically increasing collective sequence numbers so that
//! concurrent and back-to-back collectives never collide on tags or shared
//! buffer names.
//!
//! Every collective call goes through the communicator's **plan cache**: the
//! first invocation of a `(collective, message size, root)` shape compiles
//! the selected algorithm to a `pip_collectives::plan::RankPlan`; every
//! repeat looks the compiled plan up and executes it directly — the
//! persistent-collective fast path for production traffic that issues the
//! same collectives over and over.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pip_collectives::comm::{Comm as _, ThreadComm};
use pip_collectives::plan::{ArenaStats, PlanCursor, RankPlan, RecvBuf, SendBuf, SharedArena};
use pip_collectives::request::{ProgressEngine, ReqId, SharedReduceOp};
use pip_mpi_model::{
    dispatch, CollectiveRequest, CompressSpec, LibraryProfile, OwnedCollective, PlanCache,
};
use pip_runtime::{TaskCtx, Topology};

use crate::datatype::{
    from_bytes, read_into, to_bytes, Datatype, FloatDatatype, Layout, Op, OwnedReduction,
    ReduceKernel, ReduceOp, Reduction,
};

/// Tag space reserved for each collective invocation (rounds and phases are
/// encoded in the low bits).
const COLLECTIVE_TAG_STRIDE: u64 = 1 << 16;

/// Completion mapping of a one-shot request: consumes the receive buffer
/// (`None` where this rank binds none, e.g. off-root gather).
type RequestFinish<'c, O> = Box<dyn FnOnce(Option<Vec<u8>>) -> O + 'c>;

/// Completion mapping of a persistent handle: borrows the pinned receive
/// buffer, reusable across starts.
type PersistentFinish<'c, O> = Box<dyn Fn(Option<&[u8]>) -> O + 'c>;
/// Tag space where point-to-point tags live, above all collective tags.
const P2P_TAG_BASE: u64 = 1 << 48;

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

    /// Dispatch a collective through the plan cache: lookup-or-compile, then
    /// run the compiled plan.
    fn collective(&self, request: CollectiveRequest<'_>) {
        dispatch::execute_planned(
            &self.profile,
            &self.inner,
            request,
            self.next_tag(),
            &mut self.plans.borrow_mut(),
        );
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send a typed message to `dest` with a user `tag`.
    pub fn send<T: Datatype>(&self, dest: usize, tag: u64, data: &[T]) {
        self.inner.send(dest, P2P_TAG_BASE + tag, &to_bytes(data));
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
            &to_bytes(send_data),
            source,
            P2P_TAG_BASE + tag,
            recv_count * T::SIZE,
        ))
    }

    // ------------------------------------------------------------------
    // Strided (derived-datatype) point-to-point
    // ------------------------------------------------------------------
    //
    // The `MPI_Type_vector` analogues: a [`Layout`] names which elements of
    // the caller's buffer travel, the wire always carries the packed form.
    // A strided send matches a contiguous `recv` of `layout.packed_len()`
    // elements and vice versa, exactly as MPI datatypes match by type
    // signature rather than by layout.

    /// Send the `layout`-selected elements of `data` (which spans
    /// `layout.extent()` elements) to `dest`; the wire carries the
    /// `layout.packed_len()` selected elements contiguously.
    pub fn send_strided<T: Datatype>(&self, dest: usize, tag: u64, data: &[T], layout: Layout) {
        assert_eq!(
            data.len(),
            layout.extent(),
            "send buffer must span the layout's extent"
        );
        let bytes = to_bytes(data);
        let mut packed = Vec::new();
        layout.scaled(T::SIZE).pack_bytes(&bytes, &mut packed);
        self.inner.send(dest, P2P_TAG_BASE + tag, &packed);
    }

    /// Receive `layout.packed_len()` elements from `source` and scatter
    /// them into the `layout`-selected positions of `buf` (which spans
    /// `layout.extent()` elements); gap elements are left untouched.
    pub fn recv_strided<T: Datatype>(
        &self,
        source: usize,
        tag: u64,
        layout: Layout,
        buf: &mut [T],
    ) {
        assert_eq!(
            buf.len(),
            layout.extent(),
            "receive buffer must span the layout's extent"
        );
        let byte_layout = layout.scaled(T::SIZE);
        let packed = self
            .inner
            .recv(source, P2P_TAG_BASE + tag, byte_layout.packed_len());
        let mut bytes = to_bytes(buf);
        byte_layout.unpack_bytes(&packed, &mut bytes);
        read_into(buf, &bytes);
    }

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
        let send_bytes = to_bytes(send_data);
        let mut packed = Vec::new();
        send_layout
            .scaled(T::SIZE)
            .pack_bytes(&send_bytes, &mut packed);
        let recv_byte_layout = recv_layout.scaled(T::SIZE);
        let incoming = self.inner.sendrecv(
            dest,
            P2P_TAG_BASE + tag,
            &packed,
            source,
            P2P_TAG_BASE + tag,
            recv_byte_layout.packed_len(),
        );
        let mut bytes = to_bytes(recv_buf);
        recv_byte_layout.unpack_bytes(&incoming, &mut bytes);
        read_into(recv_buf, &bytes);
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// MPI_Allgather: every rank contributes `send`; returns the
    /// concatenation of all contributions in rank order.
    pub fn allgather<T: Datatype>(&self, send: &[T]) -> Vec<T> {
        let sendbuf = to_bytes(send);
        let mut recvbuf = vec![0u8; sendbuf.len() * self.size()];
        self.collective(CollectiveRequest::Allgather {
            sendbuf: &sendbuf,
            recvbuf: &mut recvbuf,
        });
        from_bytes(&recvbuf)
    }

    /// MPI_Scatter: the root supplies `send` (one block of `count` elements
    /// per rank); every rank receives its block.
    pub fn scatter<T: Datatype>(&self, send: Option<&[T]>, count: usize, root: usize) -> Vec<T> {
        if let Some(send) = send {
            assert_eq!(
                send.len(),
                count * self.size(),
                "root must supply count * size elements"
            );
        }
        let sendbuf = send.map(to_bytes);
        let mut recvbuf = vec![0u8; count * T::SIZE];
        self.collective(CollectiveRequest::Scatter {
            sendbuf: sendbuf.as_deref(),
            recvbuf: &mut recvbuf,
            root,
        });
        from_bytes(&recvbuf)
    }

    /// MPI_Bcast: `buf` holds the root's data on return at every rank.
    pub fn bcast<T: Datatype>(&self, buf: &mut [T], root: usize) {
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Bcast {
            buf: &mut bytes,
            root,
        });
        read_into(buf, &bytes);
    }

    /// MPI_Gather: every rank contributes `send`; the root receives all
    /// contributions in rank order (`Some` at root, `None` elsewhere).
    pub fn gather<T: Datatype>(&self, send: &[T], root: usize) -> Option<Vec<T>> {
        let sendbuf = to_bytes(send);
        let mut recvbuf = vec![0u8; sendbuf.len() * self.size()];
        let is_root = self.rank() == root;
        self.collective(CollectiveRequest::Gather {
            sendbuf: &sendbuf,
            recvbuf: is_root.then_some(recvbuf.as_mut_slice()),
            root,
        });
        is_root.then(|| from_bytes(&recvbuf))
    }

    /// MPI_Allreduce with a built-in operator; `buf` holds the reduced
    /// vector on return at every rank.
    pub fn allreduce<T: Datatype>(&self, buf: &mut [T], op: ReduceOp) {
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Allreduce {
            buf: &mut bytes,
            op: Reduction::typed::<T>(op),
            layout: None,
            compress: None,
        });
        read_into(buf, &bytes);
    }

    /// The compression spec for a caller-requested error bound: the bound
    /// plus this profile's bytes-on-wire threshold
    /// (`selection.compress_min_bytes`).  Normalization against the actual
    /// message size happens at shape time, so a bound of `0.0` (or a
    /// buffer under the threshold) degrades to the exact plan.
    fn compress_spec(&self, bound: f64) -> Option<CompressSpec> {
        assert!(
            bound >= 0.0 && bound.is_finite(),
            "compression error bound must be finite and non-negative, got {bound}"
        );
        Some(CompressSpec::from_bound(
            bound,
            self.profile.selection.compress_min_bytes,
        ))
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
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Allreduce {
            buf: &mut bytes,
            op: Reduction::typed::<T>(op),
            layout: None,
            compress: self.compress_spec(bound),
        });
        read_into(buf, &bytes);
    }

    /// MPI_Reduce with a built-in operator: every rank contributes `send`;
    /// returns `Some` of the element-wise combination at the root, `None`
    /// elsewhere.
    pub fn reduce<T: Datatype>(&self, send: &[T], op: ReduceOp, root: usize) -> Option<Vec<T>> {
        let sendbuf = to_bytes(send);
        let is_root = self.rank() == root;
        let mut recvbuf = is_root.then(|| vec![0u8; sendbuf.len()]);
        self.collective(CollectiveRequest::Reduce {
            sendbuf: &sendbuf,
            recvbuf: recvbuf.as_deref_mut(),
            root,
            op: Reduction::typed::<T>(op),
        });
        recvbuf.map(|bytes| from_bytes(&bytes))
    }

    /// MPI_Reduce_scatter_block with a built-in operator: `send` holds one
    /// block of `count` elements per rank; returns this rank's fully
    /// reduced block.
    pub fn reduce_scatter<T: Datatype>(&self, send: &[T], count: usize, op: ReduceOp) -> Vec<T> {
        assert_eq!(
            send.len(),
            count * self.size(),
            "sendbuf must hold count * size elements"
        );
        let sendbuf = to_bytes(send);
        let mut recvbuf = vec![0u8; count * T::SIZE];
        self.collective(CollectiveRequest::ReduceScatter {
            sendbuf: &sendbuf,
            recvbuf: &mut recvbuf,
            op: Reduction::typed::<T>(op),
        });
        from_bytes(&recvbuf)
    }

    /// MPI_Scan with a built-in operator; `buf` holds the inclusive prefix
    /// (ranks `0..=rank`) on return.
    pub fn scan<T: Datatype>(&self, buf: &mut [T], op: ReduceOp) {
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Scan {
            buf: &mut bytes,
            op: Reduction::typed::<T>(op),
        });
        read_into(buf, &bytes);
    }

    /// MPI_Exscan with a built-in operator; `buf` holds the exclusive
    /// prefix (ranks `0..rank`) on return.  Rank 0's buffer is left
    /// untouched (MPI leaves it undefined).
    pub fn exscan<T: Datatype>(&self, buf: &mut [T], op: ReduceOp) {
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Exscan {
            buf: &mut bytes,
            op: Reduction::typed::<T>(op),
        });
        read_into(buf, &bytes);
    }

    // ------------------------------------------------------------------
    // User-defined operators (MPI_Op_create) and derived datatypes
    // ------------------------------------------------------------------
    //
    // A registered [`Op`] carries a process-unique identity minted at
    // [`Op::create`] time, so collectives run with it share plan-cache
    // entries with each other but never with a different operator of the
    // same element width.  The operator must be **associative and
    // commutative** over the serialized little-endian element bytes — the
    // algorithms combine contributions in topology-dependent order.

    /// Check a user operator against the element type it is applied to.
    fn check_op<T: Datatype>(op: &Op) {
        assert_eq!(
            op.elem_size(),
            T::SIZE,
            "operator element size ({}) must match the datatype width ({})",
            op.elem_size(),
            T::SIZE,
        );
    }

    /// [`Communicator::allreduce`] with a registered user operator; `buf`
    /// holds the reduced vector on return at every rank.
    ///
    /// Non-blocking and persistent variants: [`Communicator::iallreduce_op`]
    /// and [`Communicator::allreduce_op_init`].
    pub fn allreduce_op<T: Datatype>(&self, buf: &mut [T], op: &Op) {
        Self::check_op::<T>(op);
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Allreduce {
            buf: &mut bytes,
            op: Reduction::User(op),
            layout: None,
            compress: None,
        });
        read_into(buf, &bytes);
    }

    /// [`Communicator::reduce`] with a registered user operator.
    pub fn reduce_op<T: Datatype>(&self, send: &[T], op: &Op, root: usize) -> Option<Vec<T>> {
        Self::check_op::<T>(op);
        let sendbuf = to_bytes(send);
        let is_root = self.rank() == root;
        let mut recvbuf = is_root.then(|| vec![0u8; sendbuf.len()]);
        self.collective(CollectiveRequest::Reduce {
            sendbuf: &sendbuf,
            recvbuf: recvbuf.as_deref_mut(),
            root,
            op: Reduction::User(op),
        });
        recvbuf.map(|bytes| from_bytes(&bytes))
    }

    /// [`Communicator::reduce_scatter`] with a registered user operator.
    pub fn reduce_scatter_op<T: Datatype>(&self, send: &[T], count: usize, op: &Op) -> Vec<T> {
        Self::check_op::<T>(op);
        assert_eq!(
            send.len(),
            count * self.size(),
            "sendbuf must hold count * size elements"
        );
        let sendbuf = to_bytes(send);
        let mut recvbuf = vec![0u8; count * T::SIZE];
        self.collective(CollectiveRequest::ReduceScatter {
            sendbuf: &sendbuf,
            recvbuf: &mut recvbuf,
            op: Reduction::User(op),
        });
        from_bytes(&recvbuf)
    }

    /// [`Communicator::scan`] with a registered user operator.
    pub fn scan_op<T: Datatype>(&self, buf: &mut [T], op: &Op) {
        Self::check_op::<T>(op);
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Scan {
            buf: &mut bytes,
            op: Reduction::User(op),
        });
        read_into(buf, &bytes);
    }

    /// [`Communicator::exscan`] with a registered user operator (rank 0's
    /// buffer is left untouched).
    pub fn exscan_op<T: Datatype>(&self, buf: &mut [T], op: &Op) {
        Self::check_op::<T>(op);
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Exscan {
            buf: &mut bytes,
            op: Reduction::User(op),
        });
        read_into(buf, &bytes);
    }

    /// [`Communicator::allreduce`] over a strided buffer: only the
    /// `layout`-selected elements of `buf` (which spans `layout.extent()`
    /// elements) participate; gap elements are left untouched at every
    /// rank.  The layout is part of the plan-cache key, so a strided and a
    /// contiguous allreduce of equal packed size never share a plan.
    pub fn allreduce_strided<T: Datatype>(&self, buf: &mut [T], layout: Layout, op: ReduceOp) {
        assert_eq!(
            buf.len(),
            layout.extent(),
            "buffer must span the layout's extent"
        );
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Allreduce {
            buf: &mut bytes,
            op: Reduction::typed::<T>(op),
            layout: Some(layout),
            compress: None,
        });
        read_into(buf, &bytes);
    }

    /// [`Communicator::allreduce_strided`] with a registered user operator.
    pub fn allreduce_strided_op<T: Datatype>(&self, buf: &mut [T], layout: Layout, op: &Op) {
        Self::check_op::<T>(op);
        assert_eq!(
            buf.len(),
            layout.extent(),
            "buffer must span the layout's extent"
        );
        let mut bytes = to_bytes(buf);
        self.collective(CollectiveRequest::Allreduce {
            buf: &mut bytes,
            op: Reduction::User(op),
            layout: Some(layout),
            compress: None,
        });
        read_into(buf, &bytes);
    }

    // ------------------------------------------------------------------
    // Typed by-value reduction entry points
    // ------------------------------------------------------------------
    //
    // MPI's `(buf, count, datatype, op)` signature with the datatype as the
    // type parameter.  `reduce` and `reduce_scatter` already take `&[T]` by
    // value; these complete the family for the in-place calls.  Every entry
    // compiles to a monomorphized `(T, op)` kernel (`ReduceKernel`), and
    // `T = u8` is the trivial byte instantiation.

    /// By-value [`Communicator::allreduce`]: returns the element-wise
    /// combination of every rank's `buf`, leaving the input untouched.
    ///
    /// ```
    /// use pip_mcoll_core::prelude::*;
    ///
    /// let totals = World::builder()
    ///     .nodes(1)
    ///     .ppn(2)
    ///     .library(Library::PipMColl)
    ///     .run(|comm| {
    ///         let gradient = vec![comm.rank() as f32 + 0.25; 4];
    ///         comm.allreduce_t::<f32>(&gradient, ReduceOp::Sum)
    ///     })
    ///     .unwrap();
    /// assert_eq!(totals[0], vec![1.5; 4]);
    /// ```
    ///
    /// Non-blocking and persistent variants: [`Communicator::iallreduce`]
    /// and [`Communicator::allreduce_init`].
    pub fn allreduce_t<T: Datatype>(&self, buf: &[T], op: ReduceOp) -> Vec<T> {
        let mut out = buf.to_vec();
        self.allreduce(&mut out, op);
        out
    }

    /// By-value [`Communicator::scan`]: returns the inclusive prefix
    /// combination over ranks `0..=rank`.
    ///
    /// Non-blocking and persistent variants: [`Communicator::iscan`] and
    /// [`Communicator::scan_init`].
    pub fn scan_t<T: Datatype>(&self, buf: &[T], op: ReduceOp) -> Vec<T> {
        let mut out = buf.to_vec();
        self.scan(&mut out, op);
        out
    }

    /// By-value [`Communicator::exscan`]: returns the exclusive prefix
    /// combination over ranks `0..rank` (rank 0 gets its input back).
    ///
    /// Non-blocking and persistent variants: [`Communicator::iexscan`] and
    /// [`Communicator::exscan_init`].
    pub fn exscan_t<T: Datatype>(&self, buf: &[T], op: ReduceOp) -> Vec<T> {
        let mut out = buf.to_vec();
        self.exscan(&mut out, op);
        out
    }

    /// MPI_Alltoall: `send` holds one block of `count` elements per
    /// destination rank; returns one block per source rank.
    pub fn alltoall<T: Datatype>(&self, send: &[T], count: usize) -> Vec<T> {
        assert_eq!(send.len(), count * self.size());
        let sendbuf = to_bytes(send);
        let mut recvbuf = vec![0u8; sendbuf.len()];
        self.collective(CollectiveRequest::Alltoall {
            sendbuf: &sendbuf,
            recvbuf: &mut recvbuf,
        });
        from_bytes(&recvbuf)
    }

    /// MPI_Barrier.
    pub fn barrier(&self) {
        self.collective(CollectiveRequest::Barrier);
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

    /// Register a cursor for `owned` with the progress engine and kick it
    /// to its first blocking point.
    fn submit_owned(&self, owned: OwnedCollective, op: Option<SharedReduceOp>) -> ReqId {
        let cursor = dispatch::begin_planned(
            &self.profile,
            &self.inner,
            owned,
            self.next_tag(),
            &mut self.plans.borrow_mut(),
        );
        let id = self.engine.borrow_mut().submit(cursor, op);
        self.progress();
        id
    }

    fn submit_request<'s, O>(
        &'s self,
        owned: OwnedCollective,
        op: Option<SharedReduceOp>,
        finish: RequestFinish<'s, O>,
    ) -> CollRequest<'s, O> {
        CollRequest {
            comm: self,
            id: self.submit_owned(owned, op),
            finish,
        }
    }

    /// Step every outstanding request once; returns whether any advanced.
    fn progress(&self) -> bool {
        self.engine.borrow_mut().progress(&self.inner)
    }

    /// Requests submitted but not yet completed-and-collected.
    pub fn outstanding_requests(&self) -> usize {
        self.engine.borrow().outstanding()
    }

    /// Non-blocking [`Communicator::allgather`]: returns immediately; the
    /// request's `wait` yields the concatenation of all contributions.
    pub fn iallgather<T: Datatype>(&self, send: &[T]) -> CollRequest<'_, Vec<T>> {
        self.submit_request(
            OwnedCollective::Allgather {
                sendbuf: to_bytes(send),
            },
            None,
            Box::new(|recv| from_bytes(&recv.expect("allgather binds a receive buffer"))),
        )
    }

    /// Non-blocking [`Communicator::scatter`]: the root supplies one block
    /// of `count` elements per rank; `wait` yields this rank's block.
    pub fn iscatter<T: Datatype>(
        &self,
        send: Option<&[T]>,
        count: usize,
        root: usize,
    ) -> CollRequest<'_, Vec<T>> {
        if let Some(send) = send {
            assert_eq!(
                send.len(),
                count * self.size(),
                "root must supply count * size elements"
            );
        }
        self.submit_request(
            OwnedCollective::Scatter {
                sendbuf: send.map(to_bytes),
                block: count * T::SIZE,
                root,
            },
            None,
            Box::new(|recv| from_bytes(&recv.expect("scatter binds a receive buffer"))),
        )
    }

    /// Non-blocking [`Communicator::bcast`]: `buf` supplies the root's data;
    /// `wait` yields the broadcast vector at every rank.
    pub fn ibcast<T: Datatype>(&self, buf: &[T], root: usize) -> CollRequest<'_, Vec<T>> {
        self.submit_request(
            OwnedCollective::Bcast {
                buf: to_bytes(buf),
                root,
            },
            None,
            Box::new(|recv| from_bytes(&recv.expect("bcast binds an in/out buffer"))),
        )
    }

    /// Non-blocking [`Communicator::gather`]: `wait` yields `Some` of the
    /// rank-ordered concatenation at the root, `None` elsewhere.
    pub fn igather<T: Datatype>(&self, send: &[T], root: usize) -> CollRequest<'_, Option<Vec<T>>> {
        self.submit_request(
            OwnedCollective::Gather {
                sendbuf: to_bytes(send),
                root,
            },
            None,
            Box::new(|recv| recv.map(|bytes| from_bytes(&bytes))),
        )
    }

    /// Non-blocking [`Communicator::allreduce`]: `wait` yields the reduced
    /// vector at every rank.
    pub fn iallreduce<T: Datatype>(&self, buf: &[T], op: ReduceOp) -> CollRequest<'_, Vec<T>> {
        let kernel = ReduceKernel::of::<T>(op);
        self.submit_request(
            OwnedCollective::Allreduce {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
                layout: None,
                compress: None,
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(&recv.expect("allreduce binds an in/out buffer"))),
        )
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
        let kernel = ReduceKernel::of::<T>(op);
        let compress = self.compress_spec(bound);
        self.submit_request(
            OwnedCollective::Allreduce {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
                layout: None,
                compress,
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(&recv.expect("allreduce binds an in/out buffer"))),
        )
    }

    /// Non-blocking [`Communicator::reduce`]: `wait` yields `Some` of the
    /// combination at the root, `None` elsewhere.
    pub fn ireduce<T: Datatype>(
        &self,
        send: &[T],
        op: ReduceOp,
        root: usize,
    ) -> CollRequest<'_, Option<Vec<T>>> {
        let kernel = ReduceKernel::of::<T>(op);
        self.submit_request(
            OwnedCollective::Reduce {
                sendbuf: to_bytes(send),
                root,
                op: OwnedReduction::Typed(kernel),
            },
            Some(kernel.shared()),
            Box::new(|recv| recv.map(|bytes| from_bytes(&bytes))),
        )
    }

    /// Non-blocking [`Communicator::reduce_scatter`]: `send` holds one
    /// block of `count` elements per rank; `wait` yields this rank's fully
    /// reduced block.
    pub fn ireduce_scatter<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
        op: ReduceOp,
    ) -> CollRequest<'_, Vec<T>> {
        assert_eq!(
            send.len(),
            count * self.size(),
            "sendbuf must hold count * size elements"
        );
        let kernel = ReduceKernel::of::<T>(op);
        self.submit_request(
            OwnedCollective::ReduceScatter {
                sendbuf: to_bytes(send),
                op: OwnedReduction::Typed(kernel),
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(&recv.expect("reduce_scatter binds a receive buffer"))),
        )
    }

    /// Non-blocking [`Communicator::scan`]: `wait` yields the inclusive
    /// prefix at every rank.
    pub fn iscan<T: Datatype>(&self, buf: &[T], op: ReduceOp) -> CollRequest<'_, Vec<T>> {
        let kernel = ReduceKernel::of::<T>(op);
        self.submit_request(
            OwnedCollective::Scan {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(&recv.expect("scan binds an in/out buffer"))),
        )
    }

    /// Non-blocking [`Communicator::exscan`]: `wait` yields the exclusive
    /// prefix (rank 0 gets its input back, see [`Communicator::exscan`]).
    pub fn iexscan<T: Datatype>(&self, buf: &[T], op: ReduceOp) -> CollRequest<'_, Vec<T>> {
        let kernel = ReduceKernel::of::<T>(op);
        self.submit_request(
            OwnedCollective::Exscan {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(&recv.expect("exscan binds an in/out buffer"))),
        )
    }

    /// Non-blocking [`Communicator::alltoall`]: `send` holds one block of
    /// `count` elements per destination; `wait` yields one block per source.
    pub fn ialltoall<T: Datatype>(&self, send: &[T], count: usize) -> CollRequest<'_, Vec<T>> {
        assert_eq!(send.len(), count * self.size());
        self.submit_request(
            OwnedCollective::Alltoall {
                sendbuf: to_bytes(send),
            },
            None,
            Box::new(|recv| from_bytes(&recv.expect("alltoall binds a receive buffer"))),
        )
    }

    /// Non-blocking [`Communicator::allreduce_op`]: `wait` yields the
    /// vector reduced with the registered user operator.
    pub fn iallreduce_op<T: Datatype>(&self, buf: &[T], op: &Op) -> CollRequest<'_, Vec<T>> {
        Self::check_op::<T>(op);
        self.submit_request(
            OwnedCollective::Allreduce {
                buf: to_bytes(buf),
                op: OwnedReduction::User(op.clone()),
                layout: None,
                compress: None,
            },
            Some(op.shared()),
            Box::new(|recv| from_bytes(&recv.expect("allreduce binds an in/out buffer"))),
        )
    }

    /// Non-blocking [`Communicator::reduce_op`]: `wait` yields `Some` of
    /// the combination at the root, `None` elsewhere.
    pub fn ireduce_op<T: Datatype>(
        &self,
        send: &[T],
        op: &Op,
        root: usize,
    ) -> CollRequest<'_, Option<Vec<T>>> {
        Self::check_op::<T>(op);
        self.submit_request(
            OwnedCollective::Reduce {
                sendbuf: to_bytes(send),
                root,
                op: OwnedReduction::User(op.clone()),
            },
            Some(op.shared()),
            Box::new(|recv| recv.map(|bytes| from_bytes(&bytes))),
        )
    }

    /// Non-blocking [`Communicator::reduce_scatter_op`].
    pub fn ireduce_scatter_op<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
        op: &Op,
    ) -> CollRequest<'_, Vec<T>> {
        Self::check_op::<T>(op);
        assert_eq!(
            send.len(),
            count * self.size(),
            "sendbuf must hold count * size elements"
        );
        self.submit_request(
            OwnedCollective::ReduceScatter {
                sendbuf: to_bytes(send),
                op: OwnedReduction::User(op.clone()),
            },
            Some(op.shared()),
            Box::new(|recv| from_bytes(&recv.expect("reduce_scatter binds a receive buffer"))),
        )
    }

    /// Non-blocking [`Communicator::scan_op`].
    pub fn iscan_op<T: Datatype>(&self, buf: &[T], op: &Op) -> CollRequest<'_, Vec<T>> {
        Self::check_op::<T>(op);
        self.submit_request(
            OwnedCollective::Scan {
                buf: to_bytes(buf),
                op: OwnedReduction::User(op.clone()),
            },
            Some(op.shared()),
            Box::new(|recv| from_bytes(&recv.expect("scan binds an in/out buffer"))),
        )
    }

    /// Non-blocking [`Communicator::exscan_op`].
    pub fn iexscan_op<T: Datatype>(&self, buf: &[T], op: &Op) -> CollRequest<'_, Vec<T>> {
        Self::check_op::<T>(op);
        self.submit_request(
            OwnedCollective::Exscan {
                buf: to_bytes(buf),
                op: OwnedReduction::User(op.clone()),
            },
            Some(op.shared()),
            Box::new(|recv| from_bytes(&recv.expect("exscan binds an in/out buffer"))),
        )
    }

    /// Non-blocking [`Communicator::allreduce_strided`]: `wait` yields the
    /// full extent-length vector with the gap elements as submitted.
    pub fn iallreduce_strided<T: Datatype>(
        &self,
        buf: &[T],
        layout: Layout,
        op: ReduceOp,
    ) -> CollRequest<'_, Vec<T>> {
        assert_eq!(
            buf.len(),
            layout.extent(),
            "buffer must span the layout's extent"
        );
        let kernel = ReduceKernel::of::<T>(op);
        self.submit_request(
            OwnedCollective::Allreduce {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
                layout: Some(layout),
                compress: None,
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(&recv.expect("allreduce binds an in/out buffer"))),
        )
    }

    // ------------------------------------------------------------------
    // Persistent collectives (MPI_*_init / MPI_Start)
    // ------------------------------------------------------------------

    fn init_persistent<'s, O>(
        &'s self,
        owned: OwnedCollective,
        op: Option<SharedReduceOp>,
        finish: PersistentFinish<'s, O>,
    ) -> PersistentColl<'s, O> {
        // Same shape → lookup-or-compile → buffer-split sequence as the
        // one-shot request path, so both share cache entries.
        let mut plans = self.plans.borrow_mut();
        let (plan, sendbuf, recvbuf) =
            dispatch::plan_owned(&self.profile, &self.inner, owned, &mut plans);
        let arena = plans.arena();
        drop(plans);
        PersistentColl {
            comm: self,
            plan,
            sendbuf,
            recvbuf,
            arena,
            op,
            active: None,
            finish,
        }
    }

    /// Persistent [`Communicator::allgather`]: compile once, then
    /// `start()`/`wait()` any number of times with the pinned buffers.
    pub fn allgather_init<T: Datatype>(&self, send: &[T]) -> PersistentColl<'_, Vec<T>> {
        self.init_persistent(
            OwnedCollective::Allgather {
                sendbuf: to_bytes(send),
            },
            None,
            Box::new(|recv| from_bytes(recv.expect("allgather binds a receive buffer"))),
        )
    }

    /// Persistent [`Communicator::scatter`] from `root` (the root pins one
    /// block of `count` elements per rank).
    pub fn scatter_init<T: Datatype>(
        &self,
        send: Option<&[T]>,
        count: usize,
        root: usize,
    ) -> PersistentColl<'_, Vec<T>> {
        if let Some(send) = send {
            assert_eq!(
                send.len(),
                count * self.size(),
                "root must supply count * size elements"
            );
        }
        self.init_persistent(
            OwnedCollective::Scatter {
                sendbuf: send.map(to_bytes),
                block: count * T::SIZE,
                root,
            },
            None,
            Box::new(|recv| from_bytes(recv.expect("scatter binds a receive buffer"))),
        )
    }

    /// Persistent [`Communicator::bcast`] from `root`; update the root's
    /// payload between starts with [`PersistentColl::write_send`].
    pub fn bcast_init<T: Datatype>(&self, buf: &[T], root: usize) -> PersistentColl<'_, Vec<T>> {
        self.init_persistent(
            OwnedCollective::Bcast {
                buf: to_bytes(buf),
                root,
            },
            None,
            Box::new(|recv| from_bytes(recv.expect("bcast binds an in/out buffer"))),
        )
    }

    /// Persistent [`Communicator::gather`] to `root`; `wait` yields `Some`
    /// at the root, `None` elsewhere.
    pub fn gather_init<T: Datatype>(
        &self,
        send: &[T],
        root: usize,
    ) -> PersistentColl<'_, Option<Vec<T>>> {
        self.init_persistent(
            OwnedCollective::Gather {
                sendbuf: to_bytes(send),
                root,
            },
            None,
            Box::new(|recv| recv.map(from_bytes)),
        )
    }

    /// Persistent [`Communicator::allreduce`] with a built-in operator.
    pub fn allreduce_init<T: Datatype>(
        &self,
        buf: &[T],
        op: ReduceOp,
    ) -> PersistentColl<'_, Vec<T>> {
        let kernel = ReduceKernel::of::<T>(op);
        self.init_persistent(
            OwnedCollective::Allreduce {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
                layout: None,
                compress: None,
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(recv.expect("allreduce binds an in/out buffer"))),
        )
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
        let kernel = ReduceKernel::of::<T>(op);
        let compress = self.compress_spec(bound);
        self.init_persistent(
            OwnedCollective::Allreduce {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
                layout: None,
                compress,
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(recv.expect("allreduce binds an in/out buffer"))),
        )
    }

    /// Persistent [`Communicator::reduce`] to `root` with a built-in
    /// operator; `wait` yields `Some` at the root, `None` elsewhere.
    pub fn reduce_init<T: Datatype>(
        &self,
        send: &[T],
        op: ReduceOp,
        root: usize,
    ) -> PersistentColl<'_, Option<Vec<T>>> {
        let kernel = ReduceKernel::of::<T>(op);
        self.init_persistent(
            OwnedCollective::Reduce {
                sendbuf: to_bytes(send),
                root,
                op: OwnedReduction::Typed(kernel),
            },
            Some(kernel.shared()),
            Box::new(|recv| recv.map(from_bytes)),
        )
    }

    /// Persistent [`Communicator::reduce_scatter`] with a built-in operator
    /// (one pinned block of `count` elements per rank).
    pub fn reduce_scatter_init<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
        op: ReduceOp,
    ) -> PersistentColl<'_, Vec<T>> {
        assert_eq!(
            send.len(),
            count * self.size(),
            "sendbuf must hold count * size elements"
        );
        let kernel = ReduceKernel::of::<T>(op);
        self.init_persistent(
            OwnedCollective::ReduceScatter {
                sendbuf: to_bytes(send),
                op: OwnedReduction::Typed(kernel),
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(recv.expect("reduce_scatter binds a receive buffer"))),
        )
    }

    /// Persistent [`Communicator::scan`] with a built-in operator.
    pub fn scan_init<T: Datatype>(&self, buf: &[T], op: ReduceOp) -> PersistentColl<'_, Vec<T>> {
        let kernel = ReduceKernel::of::<T>(op);
        self.init_persistent(
            OwnedCollective::Scan {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(recv.expect("scan binds an in/out buffer"))),
        )
    }

    /// Persistent [`Communicator::exscan`] with a built-in operator (rank 0
    /// gets its pinned input back on every `wait`).
    pub fn exscan_init<T: Datatype>(&self, buf: &[T], op: ReduceOp) -> PersistentColl<'_, Vec<T>> {
        let kernel = ReduceKernel::of::<T>(op);
        self.init_persistent(
            OwnedCollective::Exscan {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(recv.expect("exscan binds an in/out buffer"))),
        )
    }

    /// Persistent [`Communicator::allreduce_op`] with a registered user
    /// operator.
    pub fn allreduce_op_init<T: Datatype>(&self, buf: &[T], op: &Op) -> PersistentColl<'_, Vec<T>> {
        Self::check_op::<T>(op);
        self.init_persistent(
            OwnedCollective::Allreduce {
                buf: to_bytes(buf),
                op: OwnedReduction::User(op.clone()),
                layout: None,
                compress: None,
            },
            Some(op.shared()),
            Box::new(|recv| from_bytes(recv.expect("allreduce binds an in/out buffer"))),
        )
    }

    /// Persistent [`Communicator::reduce_op`] to `root` with a registered
    /// user operator; `wait` yields `Some` at the root, `None` elsewhere.
    pub fn reduce_op_init<T: Datatype>(
        &self,
        send: &[T],
        op: &Op,
        root: usize,
    ) -> PersistentColl<'_, Option<Vec<T>>> {
        Self::check_op::<T>(op);
        self.init_persistent(
            OwnedCollective::Reduce {
                sendbuf: to_bytes(send),
                root,
                op: OwnedReduction::User(op.clone()),
            },
            Some(op.shared()),
            Box::new(|recv| recv.map(from_bytes)),
        )
    }

    /// Persistent [`Communicator::reduce_scatter_op`] with a registered
    /// user operator (one pinned block of `count` elements per rank).
    pub fn reduce_scatter_op_init<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
        op: &Op,
    ) -> PersistentColl<'_, Vec<T>> {
        Self::check_op::<T>(op);
        assert_eq!(
            send.len(),
            count * self.size(),
            "sendbuf must hold count * size elements"
        );
        self.init_persistent(
            OwnedCollective::ReduceScatter {
                sendbuf: to_bytes(send),
                op: OwnedReduction::User(op.clone()),
            },
            Some(op.shared()),
            Box::new(|recv| from_bytes(recv.expect("reduce_scatter binds a receive buffer"))),
        )
    }

    /// Persistent [`Communicator::scan_op`] with a registered user operator.
    pub fn scan_op_init<T: Datatype>(&self, buf: &[T], op: &Op) -> PersistentColl<'_, Vec<T>> {
        Self::check_op::<T>(op);
        self.init_persistent(
            OwnedCollective::Scan {
                buf: to_bytes(buf),
                op: OwnedReduction::User(op.clone()),
            },
            Some(op.shared()),
            Box::new(|recv| from_bytes(recv.expect("scan binds an in/out buffer"))),
        )
    }

    /// Persistent [`Communicator::exscan_op`] with a registered user
    /// operator (rank 0 gets its pinned input back on every `wait`).
    pub fn exscan_op_init<T: Datatype>(&self, buf: &[T], op: &Op) -> PersistentColl<'_, Vec<T>> {
        Self::check_op::<T>(op);
        self.init_persistent(
            OwnedCollective::Exscan {
                buf: to_bytes(buf),
                op: OwnedReduction::User(op.clone()),
            },
            Some(op.shared()),
            Box::new(|recv| from_bytes(recv.expect("exscan binds an in/out buffer"))),
        )
    }

    /// Persistent [`Communicator::allreduce_strided`]: the pinned buffer
    /// spans `layout.extent()` elements, of which only the selected ones
    /// participate; every `wait` yields the full extent-length vector.
    pub fn allreduce_strided_init<T: Datatype>(
        &self,
        buf: &[T],
        layout: Layout,
        op: ReduceOp,
    ) -> PersistentColl<'_, Vec<T>> {
        assert_eq!(
            buf.len(),
            layout.extent(),
            "buffer must span the layout's extent"
        );
        let kernel = ReduceKernel::of::<T>(op);
        self.init_persistent(
            OwnedCollective::Allreduce {
                buf: to_bytes(buf),
                op: OwnedReduction::Typed(kernel),
                layout: Some(layout),
                compress: None,
            },
            Some(kernel.shared()),
            Box::new(|recv| from_bytes(recv.expect("allreduce binds an in/out buffer"))),
        )
    }

    /// Persistent [`Communicator::alltoall`] (one pinned block of `count`
    /// elements per destination rank).
    pub fn alltoall_init<T: Datatype>(
        &self,
        send: &[T],
        count: usize,
    ) -> PersistentColl<'_, Vec<T>> {
        assert_eq!(send.len(), count * self.size());
        self.init_persistent(
            OwnedCollective::Alltoall {
                sendbuf: to_bytes(send),
            },
            None,
            Box::new(|recv| from_bytes(recv.expect("alltoall binds a receive buffer"))),
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
    finish: RequestFinish<'c, O>,
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
        let output = comm.engine.borrow_mut().wait(&comm.inner, self.id);
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
    plan: Rc<RankPlan>,
    sendbuf: Option<Vec<u8>>,
    recvbuf: Option<Vec<u8>>,
    /// The communicator's shared scratch arena: every start after the first
    /// reacquires the buffers the previous execution released.
    arena: SharedArena,
    op: Option<SharedReduceOp>,
    active: Option<ReqId>,
    finish: PersistentFinish<'c, O>,
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
            self.sendbuf.take().map(SendBuf::Owned),
            self.recvbuf.take().map(RecvBuf::Owned),
            self.comm.next_tag(),
            Rc::clone(&self.arena),
        );
        let id = self
            .comm
            .engine
            .borrow_mut()
            .submit(cursor, self.op.clone());
        self.active = Some(id);
        // Kick to the first blocking point so the leading posts go out at
        // start time, as with the one-shot `i*` calls.
        self.comm.progress();
    }

    /// Whether an execution is in flight (started but not waited).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
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
    pub fn wait(&mut self) -> O {
        let id = self
            .active
            .take()
            .expect("persistent collective not started");
        let output = self.comm.engine.borrow_mut().wait(&self.comm.inner, id);
        self.sendbuf = output.sendbuf;
        self.recvbuf = output.recvbuf;
        (self.finish)(self.recvbuf.as_deref())
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
        for (value, chunk) in data.iter().zip(target.chunks_exact_mut(T::SIZE)) {
            value.write_le(chunk);
        }
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
    use crate::world::World;
    use pip_mpi_model::Library;

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
