//! The resumable plan stepper behind non-blocking and persistent
//! collectives.
//!
//! [`execute_rank_plan`](crate::plan::exec::execute_rank_plan) walks a
//! compiled [`RankPlan`] in one blocking sweep.  A [`PlanCursor`] walks the
//! *same* program incrementally: every call to [`PlanCursor::step`] executes
//! ops until it reaches one whose completion is not yet available (a receive
//! whose message has not arrived, a node barrier a peer has not reached) and
//! then returns [`StepOutcome::Blocked`] instead of waiting.  A progress
//! engine (see [`crate::request`]) can therefore drive many outstanding
//! collectives on one communicator, advancing each as its messages land —
//! the MPI `MPI_I*` / persistent-collective execution model.
//!
//! Two things differ from the blocking executor, both forced by resumability:
//!
//! * **Buffers are owned.**  A blocked cursor outlives the call frame that
//!   created it, so it owns its send/receive buffers and hands them back
//!   through [`PlanCursor::into_output`] once finished.  Persistent handles
//!   reuse exactly this: the same buffers travel into a fresh cursor on
//!   every `start()`.
//! * **Nothing parks the thread.**  Shared regions and node barriers live in
//!   the invocation's node-local scope ([`pip_runtime::scope`], entered on
//!   the first step and left when the program drains or the cursor is
//!   dropped).  A region a peer has not exposed yet and a barrier a peer has
//!   not reached are both *polled* — one table lookup, one atomic load —
//!   and the scope is keyed by the invocation tag, so out-of-order progress
//!   of interleaved collectives cannot pair arrivals or regions of
//!   different collectives.

use std::rc::Rc;

use crate::comm::{NonBlockingComm, ReduceFn};
use crate::compress::{compress, decompress};
use crate::plan::arena::{shared_arena, SharedArena};
use crate::plan::exec::{materialize_into, store_val};
use crate::plan::ir::{Fidelity, NameId, PlanOp, RankPlan, Src};
use pip_runtime::{ExposedRegion, ScopeHandle};

/// What one [`PlanCursor::step`] call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// At least one operation (or barrier arrival) completed; more work may
    /// remain.
    Advanced,
    /// The cursor is waiting on a peer (unarrived message, unexposed region
    /// or barrier); no state changed.
    Blocked,
    /// The whole program has executed and the output buffer holds the
    /// collective's result.
    Done,
}

/// A resumable execution of one rank's compiled plan.
///
/// Created from a cached plan plus *owned* caller buffers and the invocation
/// tag; driven by [`PlanCursor::step`] until [`StepOutcome::Done`]; consumed
/// by [`PlanCursor::into_output`], which returns the buffers (the receive
/// buffer then holds the collective's result).
///
/// Like the blocking executor, output writes ([`PlanOp::CopyOut`]) are
/// deferred until the program finishes so `SendBuf`/`RecvInit` reads always
/// observe the caller's pre-execution bytes, even for in/out collectives
/// where input and output are the same buffer.
#[derive(Debug)]
pub struct PlanCursor {
    plan: Rc<RankPlan>,
    tag: u64,
    /// This rank's membership of the invocation's node-local scope; `None`
    /// before the first step and after the program drained.
    scope: Option<ScopeHandle>,
    pc: usize,
    vals: Vec<Option<Vec<u8>>>,
    pending_out: Vec<(usize, Vec<u8>)>,
    sendbuf: Option<Vec<u8>>,
    recvbuf: Option<Vec<u8>>,
    /// The caller's original strided send buffer while `sendbuf` holds its
    /// packed staging (`Some` only when the plan declares a send layout).
    caller_send: Option<Vec<u8>>,
    /// The caller's original strided receive buffer while `recvbuf` holds
    /// its packed staging; unpacked back (gaps preserved) when the program
    /// drains, so [`PlanCursor::into_output`] always returns the caller's
    /// extent-length buffers.
    caller_recv: Option<Vec<u8>>,
    /// Scratch-buffer pool; shared with the communicator (and hence every
    /// other cursor and the blocking executor of the same rank), so repeat
    /// invocations reuse each other's buffers — see
    /// [`crate::plan::arena::BufferArena`].
    arena: SharedArena,
    /// Arrival count that completes the node barrier at `pc`, once arrived.
    barrier_target: Option<usize>,
    finished: bool,
}

/// The buffers a finished cursor hands back (see
/// [`PlanCursor::into_output`]).
#[derive(Debug)]
pub struct CursorOutput {
    /// The send buffer the cursor was created with, unchanged.
    pub sendbuf: Option<Vec<u8>>,
    /// The receive (or in/out) buffer, now holding the collective's result.
    pub recvbuf: Option<Vec<u8>>,
}

impl PlanCursor {
    /// Wrap `plan` with owned caller buffers for one invocation tagged
    /// `tag`.
    ///
    /// For in/out collectives (bcast, allreduce) pass the single caller
    /// buffer as `recvbuf` and `None` for `sendbuf`, as with
    /// [`crate::plan::exec::PlanIo`].
    ///
    /// # Panics
    ///
    /// Panics when the plan is schedule-fidelity or the buffer lengths
    /// disagree with the plan's [`crate::plan::ir::IoShape`] — caller bugs,
    /// not data-dependent failures.
    pub fn new(
        plan: Rc<RankPlan>,
        sendbuf: Option<Vec<u8>>,
        recvbuf: Option<Vec<u8>>,
        tag: u64,
    ) -> Self {
        Self::with_arena(plan, sendbuf, recvbuf, tag, shared_arena())
    }

    /// As [`PlanCursor::new`] with a caller-provided scratch-buffer arena.
    ///
    /// Persistent collectives and per-communicator dispatch pass the
    /// communicator's shared arena here, so every `start()` after the first
    /// runs without allocating (`tests/arena_steady_state.rs` pins this).
    pub fn with_arena(
        plan: Rc<RankPlan>,
        sendbuf: Option<Vec<u8>>,
        recvbuf: Option<Vec<u8>>,
        tag: u64,
        arena: SharedArena,
    ) -> Self {
        assert_eq!(
            plan.fidelity,
            Fidelity::Exec,
            "schedule-fidelity plans cannot be executed"
        );
        // When a layout is present the caller's buffer spans the layout
        // extent; otherwise it is exactly the packed length the plan was
        // recorded with.
        let expect_send = if plan.io.inout { None } else { plan.io.sendbuf };
        assert_eq!(
            sendbuf.as_ref().map(Vec::len),
            expect_send.map(|len| plan.io.send_layout.map_or(len, |l| l.extent())),
            "send buffer does not match the plan's shape"
        );
        assert_eq!(
            recvbuf.as_ref().map(Vec::len),
            plan.io
                .recvbuf
                .map(|len| plan.io.recv_layout.map_or(len, |l| l.extent())),
            "receive buffer does not match the plan's shape"
        );
        // Pack strided caller buffers into contiguous staging: the plan body
        // was recorded against packed bytes and never sees a gap byte. The
        // originals are stashed and restored (with staged output unpacked
        // into them) when the program drains.
        let mut sendbuf = sendbuf;
        let mut recvbuf = recvbuf;
        let mut caller_send = None;
        let mut caller_recv = None;
        {
            let mut pool = arena.borrow_mut();
            if let Some(layout) = plan.io.send_layout {
                if let Some(buf) = sendbuf.take() {
                    let mut stage = pool.acquire(layout.packed_len());
                    layout.pack_bytes(&buf, &mut stage);
                    caller_send = Some(buf);
                    sendbuf = Some(stage);
                }
            }
            if let Some(layout) = plan.io.recv_layout {
                if let Some(buf) = recvbuf.take() {
                    let mut stage = pool.acquire(layout.packed_len());
                    layout.pack_bytes(&buf, &mut stage);
                    caller_recv = Some(buf);
                    recvbuf = Some(stage);
                }
            }
        }
        let vals = vec![None; plan.val_lens.len()];
        Self {
            plan,
            tag,
            scope: None,
            pc: 0,
            vals,
            pending_out: Vec::new(),
            sendbuf,
            recvbuf,
            caller_send,
            caller_recv,
            arena,
            barrier_target: None,
            finished: false,
        }
    }

    /// The invocation tag this cursor executes under.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Whether the program has fully executed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Whether the plan requires a reduction operator at step time.
    pub fn needs_reduce_op(&self) -> bool {
        self.plan.io.needs_reduce_op
    }

    /// Recover the buffers after the program finished; the receive buffer
    /// holds the collective's result.
    ///
    /// # Panics
    ///
    /// Panics when the cursor has not reached [`StepOutcome::Done`].
    pub fn into_output(self) -> CursorOutput {
        assert!(self.finished, "cursor has not finished executing its plan");
        CursorOutput {
            sendbuf: self.sendbuf,
            recvbuf: self.recvbuf,
        }
    }

    /// Execute ops until the next one would block, the program ends, or
    /// nothing can be done.  `op` must be `Some` whenever the plan contains
    /// reductions ([`PlanCursor::needs_reduce_op`]).
    ///
    /// Returns [`StepOutcome::Advanced`] when any forward progress happened
    /// (including consuming barrier arrivals without passing the barrier),
    /// [`StepOutcome::Blocked`] when the cursor is waiting on peers, and
    /// [`StepOutcome::Done`] once the output buffer holds the result.
    pub fn step<C: NonBlockingComm>(&mut self, comm: &C, op: Option<&ReduceFn<'_>>) -> StepOutcome {
        if self.finished {
            return StepOutcome::Done;
        }
        if self.scope.is_none() {
            assert_eq!(
                comm.rank(),
                self.plan.rank,
                "plan compiled for a different rank"
            );
            assert_eq!(
                comm.topology(),
                self.plan.topology,
                "plan compiled for a different topology"
            );
            self.scope = Some(comm.enter_scope(self.tag, &self.plan.names));
        }
        let mut advanced = false;
        while self.pc < self.plan.ops.len() {
            match self.step_one(comm, op) {
                StepOutcome::Advanced => advanced = true,
                StepOutcome::Blocked => {
                    return if advanced {
                        StepOutcome::Advanced
                    } else {
                        StepOutcome::Blocked
                    };
                }
                StepOutcome::Done => unreachable!("step_one never reports Done"),
            }
        }
        // Program drained: leave the scope, flush the deferred output writes
        // and return every scratch buffer to the arena for the next
        // invocation.
        self.scope = None;
        let mut arena = self.arena.borrow_mut();
        if let Some(out) = self.recvbuf.as_mut() {
            for (offset, data) in self.pending_out.drain(..) {
                out[offset..offset + data.len()].copy_from_slice(&data);
                arena.release(data);
            }
        } else {
            assert!(self.pending_out.is_empty(), "output writes need a buffer");
        }
        for slot in &mut self.vals {
            if let Some(buf) = slot.take() {
                arena.release(buf);
            }
        }
        // Unpack staged strided output back into the caller's buffer (gap
        // bytes preserved) and restore the originals, so `into_output`
        // returns the caller's extent-length buffers.
        if let Some(mut buf) = self.caller_recv.take() {
            let layout = self.plan.io.recv_layout.expect("staging implies a layout");
            let stage = self.recvbuf.take().expect("staged receive buffer");
            layout.unpack_bytes(&stage, &mut buf);
            arena.release(stage);
            self.recvbuf = Some(buf);
        }
        if let Some(buf) = self.caller_send.take() {
            let stage = self.sendbuf.take().expect("staged send buffer");
            arena.release(stage);
            self.sendbuf = Some(buf);
        }
        drop(arena);
        self.finished = true;
        StepOutcome::Done
    }

    /// Attempt exactly the op at `pc`; advances `pc` on completion.
    fn step_one<C: NonBlockingComm>(&mut self, comm: &C, op: Option<&ReduceFn<'_>>) -> StepOutcome {
        match &self.plan.ops[self.pc] {
            PlanOp::SharedAlloc { name, len } => {
                self.expose(*name, *len);
            }
            PlanOp::SharedPublish { name, src } => {
                let data = self.materialize(src);
                self.expose(*name, data.len()).write(0, &data);
                self.arena.borrow_mut().release(data);
            }
            PlanOp::SharedCollect { name, len, dst } => {
                let Some(region) = self.region(self.scope().local_rank(), *name) else {
                    return StepOutcome::Blocked;
                };
                let mut data = self.arena.borrow_mut().acquire(*len);
                region.read_into_vec(0, *len, &mut data);
                self.store_val(*dst, data);
            }
            PlanOp::SharedWrite {
                owner_local,
                name,
                offset,
                src,
            } => {
                let Some(region) = self.region(*owner_local, *name) else {
                    return StepOutcome::Blocked;
                };
                let data = self.materialize(src);
                region.write(*offset, &data);
                self.arena.borrow_mut().release(data);
            }
            PlanOp::SharedRead {
                owner_local,
                name,
                offset,
                len,
                dst,
            } => {
                let Some(region) = self.region(*owner_local, *name) else {
                    return StepOutcome::Blocked;
                };
                let mut data = self.arena.borrow_mut().acquire(*len);
                region.read_into_vec(*offset, *len, &mut data);
                self.store_val(*dst, data);
            }
            PlanOp::Send { dest, tag: t, src } => {
                let data = self.materialize(src);
                comm.send_owned(*dest, self.tag + t, data);
            }
            PlanOp::Recv {
                source,
                tag: t,
                len,
                dst,
            } => match comm.try_recv(*source, self.tag + t, *len) {
                Some(data) => self.store_val(*dst, data),
                None => return StepOutcome::Blocked,
            },
            PlanOp::Compress {
                dest,
                tag: t,
                src,
                codec,
                ..
            } => {
                let data = self.materialize(src);
                let frame = compress(&data, *codec);
                self.arena.borrow_mut().release(data);
                comm.send_owned(*dest, self.tag + t, frame);
            }
            PlanOp::Decompress {
                source,
                tag: t,
                raw_len,
                dst,
                codec,
                ..
            } => match comm.try_recv_unsized(*source, self.tag + t) {
                Some(frame) => {
                    let data = decompress(&frame, *raw_len, *codec);
                    self.store_val(*dst, data);
                }
                None => return StepOutcome::Blocked,
            },
            PlanOp::SendFromShared {
                owner_local,
                name,
                offset,
                len,
                dest,
                tag: t,
            } => {
                let Some(region) = self.region(*owner_local, *name) else {
                    return StepOutcome::Blocked;
                };
                // The single copy out of the shared region is the only one;
                // the buffer then moves into the fabric.
                let mut data = self.arena.borrow_mut().acquire(*len);
                region.read_into_vec(*offset, *len, &mut data);
                comm.send_owned(*dest, self.tag + t, data);
            }
            PlanOp::RecvIntoShared {
                owner_local,
                name,
                offset,
                source,
                tag: t,
                len,
            } => {
                // Look the region up first: a message taken off the fabric
                // cannot be put back.
                let Some(region) = self.region(*owner_local, *name) else {
                    return StepOutcome::Blocked;
                };
                let Some(data) = comm.try_recv(*source, self.tag + t, *len) else {
                    return StepOutcome::Blocked;
                };
                region.write(*offset, &data);
                self.arena.borrow_mut().release(data);
            }
            PlanOp::NodeBarrier => {
                let Some(target) = self.barrier_target else {
                    // Arriving is progress even while peers are missing.
                    self.barrier_target = Some(self.scope().barrier_arrive());
                    return StepOutcome::Advanced;
                };
                if !self.scope().barrier_passed(target) {
                    return StepOutcome::Blocked;
                }
                self.barrier_target = None;
            }
            PlanOp::Reduce { dst, acc, other } => {
                let mut acc_bytes = self.materialize(acc);
                let other_bytes = self.materialize(other);
                let op = op.expect("plan requires a reduction operator");
                op(&mut acc_bytes, &other_bytes);
                self.arena.borrow_mut().release(other_bytes);
                self.store_val(*dst, acc_bytes);
            }
            PlanOp::CopyOut { offset, src } => {
                let data = self.materialize(src);
                self.pending_out.push((*offset, data));
            }
            PlanOp::ChargeCopy { bytes } => comm.charge_copy(*bytes),
            PlanOp::ChargeReduce { bytes } => comm.charge_reduce(*bytes),
            PlanOp::Delay { nanos } => comm.delay(*nanos),
        }
        self.pc += 1;
        StepOutcome::Advanced
    }

    /// Store `data` into value slot `dst`, releasing any previous buffer.
    fn store_val(&mut self, dst: u32, data: Vec<u8>) {
        store_val(&mut self.vals, &mut self.arena.borrow_mut(), dst, data);
    }

    fn scope(&self) -> &ScopeHandle {
        self.scope.as_ref().expect("step entered the scope")
    }

    /// Expose this rank's region `name` in the invocation's scope.
    fn expose(&self, name: NameId, len: usize) -> ExposedRegion {
        self.scope()
            .expose(name, len)
            .expect("a plan exposes each region with one length")
    }

    /// A peer's region, `None` (the op blocks) until its owner exposed it.
    fn region(&self, owner_local: usize, name: NameId) -> Option<ExposedRegion> {
        self.scope().try_region(owner_local, name)
    }

    /// Resolve a symbolic source against the owned buffers and runtime
    /// values into an arena-backed buffer (the cursor-side twin of the
    /// blocking executor's `materialize_into`).
    fn materialize(&self, src: &Src) -> Vec<u8> {
        let mut bytes = self.arena.borrow_mut().acquire(src.len());
        materialize_into(
            &mut bytes,
            src,
            &self.plan.io,
            self.sendbuf.as_deref(),
            self.recvbuf.as_deref(),
            &self.vals,
        );
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Comm, ThreadComm};
    use crate::plan::ir::IoShape;
    use crate::plan::record::{assemble, PlanComm, EXEC_PASSES};
    use pip_runtime::{Cluster, Fabric, NodeSpace, TaskCtx, Topology};

    fn compile_exchange(rank: usize, topo: Topology) -> RankPlan {
        let passes = (0..EXEC_PASSES as u32)
            .map(|pass| {
                let comm = PlanComm::new(rank, topo, pass, Fidelity::Exec);
                let mut sendbuf = vec![0u8; 4];
                comm.fill_sendbuf(&mut sendbuf);
                let peer = 1 - rank;
                comm.send(peer, 0, &sendbuf);
                let got = comm.recv(peer, 0, 4);
                comm.node_barrier();
                comm.finish(Some(got))
            })
            .collect();
        assemble(
            rank,
            topo,
            Fidelity::Exec,
            IoShape {
                sendbuf: Some(4),
                recvbuf: Some(4),
                ..IoShape::default()
            },
            passes,
        )
    }

    /// A cursor-driven exchange (send, recv, node barrier) completes with
    /// real bytes and returns the buffers.
    #[test]
    fn cursor_completes_an_exchange_incrementally() {
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            // Compiling is deterministic, so each task building its own plan
            // (Rc is not shareable across the task threads) changes nothing.
            let plan = Rc::new(compile_exchange(comm.rank(), topo));
            let sendbuf = vec![10 + comm.rank() as u8; 4];
            let mut cursor = PlanCursor::new(plan, Some(sendbuf), Some(vec![0u8; 4]), 7 << 16);
            let mut spins = 0u32;
            loop {
                match cursor.step(&comm, None) {
                    StepOutcome::Done => break,
                    StepOutcome::Advanced => {}
                    StepOutcome::Blocked => {
                        spins += 1;
                        assert!(spins < 1_000_000, "cursor spun without progress");
                        std::thread::yield_now();
                    }
                }
            }
            cursor.into_output().recvbuf.unwrap()
        })
        .unwrap();
        assert_eq!(results[0], vec![11; 4]);
        assert_eq!(results[1], vec![10; 4]);
    }

    /// A consumer stepped before its producer reports `Blocked` on the
    /// unexposed region instead of parking: one thread steps both ranks of
    /// a node, consumer first, and the exchange still completes.
    #[test]
    fn unexposed_region_blocks_the_cursor_not_the_thread() {
        let topo = Topology::new(1, 2);
        let compile = |rank: usize| {
            let passes = (0..EXEC_PASSES as u32)
                .map(|pass| {
                    let comm = PlanComm::new(rank, topo, pass, Fidelity::Exec);
                    let mut sendbuf = vec![0u8; 4];
                    comm.fill_sendbuf(&mut sendbuf);
                    let got = if rank == 0 {
                        comm.shared_publish("box", &sendbuf);
                        sendbuf
                    } else {
                        comm.shared_read(0, "box", 0, 4)
                    };
                    comm.finish(Some(got))
                })
                .collect();
            let io = IoShape {
                sendbuf: Some(4),
                recvbuf: Some(4),
                ..IoShape::default()
            };
            Rc::new(assemble(rank, topo, Fidelity::Exec, io, passes))
        };
        let node = NodeSpace::new(0, 2);
        let fabric = Fabric::new(2);
        let ctxs = [0, 1].map(|rank| TaskCtx::new(rank, topo, node.clone(), fabric.clone()));
        let comms = [ThreadComm::new(&ctxs[0]), ThreadComm::new(&ctxs[1])];
        let mut cursors = [0, 1].map(|rank| {
            let sendbuf = vec![40 + rank as u8; 4];
            PlanCursor::new(compile(rank), Some(sendbuf), Some(vec![0u8; 4]), 3 << 16)
        });
        assert_eq!(cursors[1].step(&comms[1], None), StepOutcome::Blocked);
        assert_eq!(cursors[1].step(&comms[1], None), StepOutcome::Blocked);
        assert_eq!(cursors[0].step(&comms[0], None), StepOutcome::Done);
        assert_eq!(node.exposed_count(), 1, "the consumer is still inside");
        assert_eq!(cursors[1].step(&comms[1], None), StepOutcome::Done);
        assert_eq!(node.exposed_count(), 0, "the last leaver retired the scope");
        let [_, consumer] = cursors;
        assert_eq!(consumer.into_output().recvbuf.unwrap(), vec![40; 4]);
    }

    #[test]
    #[should_panic(expected = "schedule-fidelity")]
    fn cursor_refuses_schedule_fidelity_plans() {
        let topo = Topology::new(1, 1);
        let comm = PlanComm::new(0, topo, 0, Fidelity::Schedule);
        comm.node_barrier();
        let plan = assemble(
            0,
            topo,
            Fidelity::Schedule,
            IoShape::default(),
            vec![comm.finish(None)],
        );
        let _ = PlanCursor::new(Rc::new(plan), None, None, 1 << 16);
    }

    #[test]
    #[should_panic(expected = "does not match the plan's shape")]
    fn cursor_rejects_wrong_buffer_lengths() {
        let topo = Topology::new(1, 2);
        let plan = Rc::new(compile_exchange(0, topo));
        let _ = PlanCursor::new(plan, Some(vec![0u8; 2]), Some(vec![0u8; 4]), 1 << 16);
    }
}
