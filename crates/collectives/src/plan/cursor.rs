//! The plan interpreter: the one piece of code that executes a compiled
//! [`RankPlan`], on the PiP thread runtime's task context ([`TaskCtx`]).
//!
//! A [`PlanCursor`] walks one rank's program incrementally: every call to
//! [`PlanCursor::step`] executes ops until it reaches one whose completion
//! is not yet available (a receive whose message has not arrived, a region a
//! peer has not exposed, a node barrier a peer has not reached) and then
//! returns [`StepOutcome::Blocked`] instead of waiting.  A cursor owns the
//! caller's buffers and the reduction operator, and hands the buffers back
//! through [`PlanCursor::into_output`]; all three entry styles run on it:
//!
//! * a **blocking** collective drives its cursor to [`StepOutcome::Done`] in
//!   place ([`PlanCursor::run`]) before the call returns;
//! * a **request** or **persistent handle** outlives the call frame that
//!   created it: its cursor sits in a [`crate::request::ProgressEngine`]
//!   beside the communicator's other outstanding collectives — the MPI
//!   `MPI_I*` / persistent execution model.  Persistent handles send the same
//!   buffers (and a clone of their operator) into a fresh cursor on every
//!   `start()`.
//!
//! **Nothing parks the thread.**  Shared regions and node barriers live in
//! the invocation's node-local scope ([`pip_runtime::scope`], entered on the
//! first step and left when the program drains or the cursor is dropped).  A
//! region a peer has not exposed yet and a barrier a peer has not reached
//! are both *polled* — one table lookup, one atomic load — and the scope is
//! keyed by the invocation tag, so out-of-order progress of interleaved
//! collectives cannot pair arrivals or regions of different collectives.
//!
//! The caller's buffers are held as [`ElemBuf`]s — the caller's own typed
//! vectors, read and written as their bytes — so a finished cursor hands
//! back the very allocation the result was computed in.  Scratch buffers
//! (materialized operands, value slots, output writes of the caller's own
//! bytes, strided staging, compressed frames) come from the communicator's
//! [`crate::plan::arena::BufferArena`], so repeat executions of one shape
//! stop allocating — whatever the entry style.
//!
//! **Regions are filled from the caller's bytes in place.**  A
//! `SharedPublish` or `SharedWrite` whose source is one `SendBuf`/`RecvInit`
//! segment copies straight from the caller's buffer (or its packed staging,
//! when strided) into the region — the bytes `materialize` would have
//! copied at that step, since output writes are deferred to the drain and
//! a direct read never lands in a range a later op reads.  Sources with
//! value slots or literals are still materialized.
//!
//! **Output writes take no buffer unless they read the output.**  A
//! `CopyOut` whose bytes are value slots, literals or the send buffer
//! records only its op index; the drain copies straight from them into the
//! receive buffer.  That is sound because a validated plan defines every
//! value once ([`crate::plan::PlanError::RedefinedValue`]), the slots are
//! released only after the flush, and the send buffer is never the receive
//! buffer.  A `CopyOut` that reads the receive buffer's entry bytes
//! (`RecvInit`) is still copied when it runs, because the flush overwrites
//! what it reads.
//!
//! **Direct shared reads take no slot either.**  A `SharedRead` copies the
//! peer's region straight into the receive buffer at the offset its
//! `CopyOut` would have written, and that `CopyOut` does nothing, so each
//! byte moves once.  A read qualifies when all four hold:
//!
//! 1. its value is read exactly once, by one `CopyOut` of the whole value;
//! 2. that `CopyOut` overlaps no other `CopyOut` (the flush applies them in
//!    program order, after the read landed);
//! 3. no later op reads the caller's bytes of that range — a `RecvInit`
//!    segment (an in/out plan's input is one too: it has no `SendBuf`);
//! 4. the receive buffer is not staged (strided): staging is unpacked at
//!    the drain.
//!
//! [`ExecPlan`] decides this once per plan, when the plan enters a cache;
//! every other value keeps its slot.

use std::ops::Deref;
use std::rc::Rc;

use crate::compress::{compress_into, decompress_into, max_frame_len};
use crate::datatype::{ElemBuf, OwnedReduction};
use crate::plan::arena::SharedArena;
use crate::plan::ir::{Fidelity, NameId, PlanOp, RankPlan, Src, SrcSeg};
use crate::request::drive_to_done;
use pip_runtime::{ExposedRegion, ScopeHandle, TaskCtx};

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

/// A rank's compiled plan together with what every execution of it derives
/// from its ops alone: which shared reads land straight in the receive
/// buffer ([`ExecPlan::direct_reads`]).
///
/// The table is computed once, when the plan enters a cache, and kept
/// beside the [`RankPlan`] rather than in it, so the plan's own form (its
/// `Debug` rendering is what `tests/plan_golden.rs` hashes) does not
/// change.  Dereferences to the plan.
#[derive(Debug)]
pub struct ExecPlan {
    plan: RankPlan,
    /// Per value: the receive-buffer offset a direct `SharedRead` of it
    /// lands at; `None` for a value that takes a slot.
    direct: Vec<Option<usize>>,
}

impl ExecPlan {
    /// Wrap `plan`, deciding which of its shared reads land directly.
    pub fn new(plan: RankPlan) -> Self {
        let direct = direct_offsets(&plan);
        Self { plan, direct }
    }

    /// How many `SharedRead`s land straight in the receive buffer, each
    /// skipping a value slot and the `CopyOut` that would flush it.
    pub fn direct_reads(&self) -> usize {
        self.direct.iter().flatten().count()
    }

    /// Whether `CopyOut` source `src` is a value already read into place.
    fn landed(&self, src: &Src) -> bool {
        matches!(src.segs[..], [SrcSeg::Val { id, .. }] if self.direct[id as usize].is_some())
    }
}

impl Deref for ExecPlan {
    type Target = RankPlan;

    fn deref(&self) -> &RankPlan {
        &self.plan
    }
}

/// The receive-buffer offset each value's `SharedRead` may land at
/// directly (see the module docs for the four conditions).  Linear in the
/// ops apart from sorting the output writes and checking each candidate
/// against the later reads of the caller's bytes.
fn direct_offsets(plan: &RankPlan) -> Vec<Option<usize>> {
    let vals = plan.val_lens.len();
    let mut direct = vec![None; vals];
    // Condition 4: staged output is unpacked at the drain, so a direct
    // write into the caller's buffer would land at the wrong offsets.
    if plan.fidelity != Fidelity::Exec || plan.io.recv_layout.is_some() {
        return direct;
    }
    let mut uses = vec![0usize; vals];
    let mut read_at = vec![None; vals];
    // (start, end, op) of every output write, and of every read of the
    // receive buffer's caller bytes.
    let mut outs = Vec::new();
    let mut caller_reads = Vec::new();
    for (pc, op) in plan.ops.iter().enumerate() {
        for seg in op.sources().flat_map(|src| &src.segs) {
            match *seg {
                SrcSeg::Val { id, .. } => uses[id as usize] += 1,
                SrcSeg::RecvInit { offset, len } => caller_reads.push((offset, offset + len, pc)),
                _ => {}
            }
        }
        match op {
            PlanOp::SharedRead { dst, .. } => read_at[*dst as usize] = Some(pc),
            PlanOp::CopyOut { offset, src } => outs.push((*offset, offset + src.len(), pc)),
            _ => {}
        }
    }
    // Condition 2: mark the output writes that overlap another one.  Sorted
    // by start, a write overlaps an earlier one iff it starts before the
    // furthest end so far, and a later one iff the next start is before
    // its own end.
    outs.sort_unstable();
    let mut shared_range = vec![false; plan.ops.len()];
    let mut furthest = 0;
    for (k, &(start, end, pc)) in outs.iter().enumerate() {
        let next_start = outs.get(k + 1).map_or(usize::MAX, |next| next.0);
        shared_range[pc] = start < furthest || next_start < end;
        furthest = furthest.max(end);
    }
    for &(start, end, pc) in &outs {
        let PlanOp::CopyOut { src, .. } = &plan.ops[pc] else {
            unreachable!("outs holds CopyOut ops only");
        };
        // Condition 1: the whole value, read by this write alone.
        let [SrcSeg::Val { id, len, .. }] = src.segs[..] else {
            continue;
        };
        let id = id as usize;
        let Some(read) = read_at[id] else { continue };
        if uses[id] != 1 || len != plan.val_lens[id] || shared_range[pc] {
            continue;
        }
        // Condition 3: nothing after the read looks at the caller's bytes
        // it overwrites.
        let clobbers =
            |&(from, to, at): &(usize, usize, usize)| at > read && from < end && start < to;
        if !caller_reads.iter().any(clobbers) {
            direct[id] = Some(start);
        }
    }
    direct
}

/// A resumable execution of one rank's compiled plan.
///
/// Created from a cached plan, the caller's buffers and the invocation tag;
/// driven by [`PlanCursor::step`] until
/// [`StepOutcome::Done`], after which the receive buffer holds the
/// collective's result.
///
/// Output writes ([`PlanOp::CopyOut`]) are deferred until the program
/// finishes so `RecvInit` reads always observe the receive buffer's
/// pre-execution bytes — for in/out collectives, the caller's input.
#[derive(Debug)]
pub struct PlanCursor {
    plan: Rc<ExecPlan>,
    tag: u64,
    /// This rank's membership of the invocation's node-local scope; `None`
    /// before the first step and after the program drained.
    scope: Option<ScopeHandle>,
    pc: usize,
    vals: Vec<Option<Vec<u8>>>,
    /// Deferred output writes in program order: the `CopyOut` op's index,
    /// plus its bytes when they read the receive buffer's entry bytes (which
    /// the flush overwrites) and so had to be copied when the op ran.
    /// `None` means the bytes are value slots, literals or the send buffer,
    /// read at flush time.
    pending_out: Vec<(usize, Option<Vec<u8>>)>,
    /// The caller's buffers, typed as the caller made them and read and
    /// written as their bytes: the receive buffer is extent-length when the
    /// plan declares its layout; otherwise each is exactly the packed length
    /// the plan was recorded with.
    sendbuf: Option<ElemBuf>,
    recvbuf: Option<ElemBuf>,
    /// Packed staging of a strided receive buffer (`Some` only when the
    /// plan declares its layout).  The plan body was recorded against packed
    /// bytes and reads this instead of the caller's buffer, so it never
    /// sees a gap byte; staged output is unpacked into the caller's buffer
    /// (gaps preserved) when the program drains.
    recv_stage: Option<Vec<u8>>,
    /// Scratch-buffer pool, shared with the communicator and hence with
    /// every other cursor of the same rank, so repeat invocations reuse each
    /// other's buffers (`tests/arena_steady_state.rs` pins this).
    arena: SharedArena,
    /// The operator of the plan's reductions; `Some` whenever the plan has
    /// any ([`crate::plan::ir::IoShape::needs_reduce_op`]).
    op: Option<OwnedReduction>,
    /// Arrival count that completes the node barrier at `pc`, once arrived.
    barrier_target: Option<usize>,
    finished: bool,
}

/// The owned buffers a finished cursor hands back (see
/// [`PlanCursor::into_output`]).
#[derive(Debug)]
pub struct CursorOutput {
    /// The send buffer the cursor was created with, unchanged.
    pub sendbuf: Option<ElemBuf>,
    /// The receive (or in/out) buffer, now holding the collective's result.
    pub recvbuf: Option<ElemBuf>,
}

impl PlanCursor {
    /// Wrap `plan` with the caller's buffers and reduction operator for one
    /// invocation tagged `tag`, drawing every scratch buffer from `arena`.
    ///
    /// For in/out collectives (bcast, allreduce) pass the single caller
    /// buffer as `recvbuf` and `None` for `sendbuf`: the plan reads its
    /// input as [`SrcSeg::RecvInit`], the receive buffer's pre-output
    /// contents.
    ///
    /// # Panics
    ///
    /// Panics when the plan is schedule-fidelity, the buffer lengths
    /// disagree with the plan's [`crate::plan::ir::IoShape`], or the plan
    /// reduces and `op` is `None` — caller bugs, not data-dependent
    /// failures.
    pub fn new(
        plan: Rc<ExecPlan>,
        sendbuf: Option<ElemBuf>,
        recvbuf: Option<ElemBuf>,
        tag: u64,
        arena: SharedArena,
        op: Option<OwnedReduction>,
    ) -> Self {
        assert_eq!(
            plan.fidelity,
            Fidelity::Exec,
            "schedule-fidelity plans cannot be executed"
        );
        assert!(
            !plan.io.needs_reduce_op || op.is_some(),
            "plan requires a reduction operator"
        );
        assert_eq!(
            sendbuf.as_deref().map(<[u8]>::len),
            plan.io.sendbuf,
            "send buffer does not match the plan's shape"
        );
        assert_eq!(
            recvbuf.as_deref().map(<[u8]>::len),
            plan.io
                .recvbuf
                .map(|len| plan.io.recv_layout.map_or(len, |l| l.extent())),
            "receive buffer does not match the plan's shape"
        );
        let layout = plan.io.recv_layout;
        let recv_stage = layout.zip(recvbuf.as_deref()).map(|(layout, buf)| {
            let mut stage = arena.borrow_mut().acquire(layout.packed_len());
            layout.pack_bytes(buf, &mut stage);
            stage
        });
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
            recv_stage,
            arena,
            op,
            barrier_target: None,
            finished: false,
        }
    }

    /// Whether the program has fully executed.
    pub fn is_finished(&self) -> bool {
        self.finished
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

    /// Where the cursor stands — invocation tag, op index and the op it is
    /// at (kind, peer or region, tag offset) — for the wait loop's failure
    /// report ([`crate::request::drive_to_done`]).
    pub fn blocked_on(&self) -> String {
        let region = |owner_local: usize, name: NameId| {
            let name = &self.plan.names[name as usize];
            format!("region {name:?} of local rank {owner_local}")
        };
        let message = |source: usize, tag: u64| format!("from rank {source}, tag offset {tag}");
        let op = match self.plan.ops.get(self.pc) {
            None => "end of program".to_string(),
            Some(PlanOp::NodeBarrier) => "NodeBarrier".to_string(),
            Some(&PlanOp::Recv { source, tag, .. }) => format!("Recv {}", message(source, tag)),
            Some(&PlanOp::Decompress { source, tag, .. }) => {
                format!("Decompress {}", message(source, tag))
            }
            Some(&PlanOp::RecvIntoShared {
                owner_local,
                name,
                source,
                tag,
                ..
            }) => format!(
                "RecvIntoShared {} into {}",
                message(source, tag),
                region(owner_local, name)
            ),
            Some(&PlanOp::SharedCollect { name, .. }) => {
                let own = self.plan.topology.local_rank_of(self.plan.rank);
                format!("SharedCollect of {}", region(own, name))
            }
            Some(&PlanOp::SharedWrite {
                owner_local, name, ..
            }) => format!("SharedWrite to {}", region(owner_local, name)),
            Some(&PlanOp::SharedRead {
                owner_local, name, ..
            }) => format!("SharedRead of {}", region(owner_local, name)),
            Some(&PlanOp::SendFromShared {
                owner_local, name, ..
            }) => format!("SendFromShared out of {}", region(owner_local, name)),
            Some(_) => "an op that never blocks".to_string(),
        };
        let (pc, len) = (self.pc, self.plan.ops.len());
        format!("invocation tag {:#x}, op {pc}/{len}: {op}", self.tag)
    }

    /// Execute ops on `ctx` until the next one would block, the program
    /// ends, or nothing can be done.
    ///
    /// Returns [`StepOutcome::Advanced`] when any forward progress happened
    /// (including consuming barrier arrivals without passing the barrier),
    /// [`StepOutcome::Blocked`] when the cursor is waiting on peers, and
    /// [`StepOutcome::Done`] once the output buffer holds the result.
    pub fn step(&mut self, ctx: &TaskCtx) -> StepOutcome {
        if self.finished {
            return StepOutcome::Done;
        }
        if self.scope.is_none() {
            assert_eq!(
                ctx.rank(),
                self.plan.rank,
                "plan compiled for a different rank"
            );
            assert_eq!(
                ctx.topology(),
                self.plan.topology,
                "plan compiled for a different topology"
            );
            self.scope = Some(ctx.enter_scope(self.tag, &self.plan.names));
        }
        let mut advanced = false;
        while self.pc < self.plan.ops.len() {
            match self.step_one(ctx) {
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
        // (in program order, so a later write to a range wins) and return
        // every scratch buffer to the arena for the next invocation.  The
        // value slots are released only after the flush read them.
        self.scope = None;
        let mut arena = self.arena.borrow_mut();
        if !self.pending_out.is_empty() {
            let out: &mut [u8] = match self.recv_stage.as_mut() {
                Some(stage) => stage,
                None => self
                    .recvbuf
                    .as_deref_mut()
                    .expect("output writes need a buffer"),
            };
            for (pc, copied) in self.pending_out.drain(..) {
                let PlanOp::CopyOut { offset, src } = &self.plan.ops[pc] else {
                    unreachable!("only CopyOut ops defer output writes");
                };
                let mut at = *offset;
                let mut write = |bytes: &[u8]| {
                    out[at..at + bytes.len()].copy_from_slice(bytes);
                    at += bytes.len();
                };
                match copied {
                    Some(data) => {
                        write(&data);
                        arena.release(data);
                    }
                    None => {
                        for seg in &src.segs {
                            let bytes = match *seg {
                                SrcSeg::SendBuf { offset, len } => {
                                    let sendbuf = self.sendbuf.as_deref();
                                    &sendbuf.expect("the plan's buffers are present")
                                        [offset..offset + len]
                                }
                                _ => held_bytes(&self.vals, seg).expect("deferred by reference"),
                            };
                            write(bytes);
                        }
                    }
                }
            }
        }
        for slot in &mut self.vals {
            if let Some(buf) = slot.take() {
                arena.release(buf);
            }
        }
        if let Some(stage) = self.recv_stage.take() {
            let layout = self.plan.io.recv_layout.expect("staging implies a layout");
            let out = self.recvbuf.as_deref_mut().expect("staged receive buffer");
            layout.unpack_bytes(&stage, out);
            arena.release(stage);
        }
        drop(arena);
        self.finished = true;
        StepOutcome::Done
    }

    /// Drive the cursor to [`StepOutcome::Done`] before returning — what
    /// makes a collective *blocking*.  Fails as
    /// [`crate::request::drive_to_done`] states.
    pub fn run(&mut self, ctx: &TaskCtx) {
        drive_to_done(ctx, self, |cursor| cursor.step(ctx), Self::blocked_on);
    }

    /// Attempt exactly the op at `pc`; advances `pc` on completion.
    fn step_one(&mut self, ctx: &TaskCtx) -> StepOutcome {
        match &self.plan.ops[self.pc] {
            PlanOp::SharedAlloc { name, len } => {
                self.expose(*name, *len);
            }
            PlanOp::SharedPublish { name, src } => {
                self.with_src(src, |bytes| self.expose(*name, bytes.len()).write(0, bytes));
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
                self.with_src(src, |bytes| region.write(*offset, bytes));
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
                if let Some(at) = self.plan.direct[*dst as usize] {
                    let out = self
                        .recvbuf
                        .as_deref_mut()
                        .expect("direct reads need a buffer");
                    region.read(*offset, &mut out[at..at + *len]);
                } else {
                    let mut data = self.arena.borrow_mut().acquire(*len);
                    region.read_into_vec(*offset, *len, &mut data);
                    self.store_val(*dst, data);
                }
            }
            PlanOp::Send { dest, tag: t, src } => {
                let data = self.materialize(src);
                ctx.send(*dest, self.tag + t, data).expect("send failed");
            }
            PlanOp::Recv {
                source,
                tag: t,
                len,
                dst,
            } => match self.try_recv(ctx, *source, *t) {
                Some(data) => {
                    self.assert_len(ctx, *source, *t, *len, &data);
                    self.store_val(*dst, data);
                }
                None => return StepOutcome::Blocked,
            },
            PlanOp::Compress {
                dest,
                tag: t,
                src,
                codec,
                ..
            } => {
                // The frame is sized for the worst case, so encoding never
                // reallocates and the peer's arena gets this capacity class
                // back when it releases the frame.
                let data = self.materialize(src);
                let mut arena = self.arena.borrow_mut();
                let mut frame = arena.acquire(max_frame_len(data.len(), *codec));
                compress_into(&data, *codec, &mut frame);
                arena.release(data);
                drop(arena);
                ctx.send(*dest, self.tag + t, frame).expect("send failed");
            }
            PlanOp::Decompress {
                source,
                tag: t,
                raw_len,
                dst,
                codec,
                ..
            } => match self.try_recv(ctx, *source, *t) {
                Some(frame) => {
                    let mut arena = self.arena.borrow_mut();
                    let mut data = arena.acquire(*raw_len);
                    decompress_into(&frame, *raw_len, *codec, &mut data);
                    // The frame replaces the one this rank's own sends
                    // carried away.
                    arena.release(frame);
                    drop(arena);
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
                ctx.send(*dest, self.tag + t, data).expect("send failed");
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
                let Some(data) = self.try_recv(ctx, *source, *t) else {
                    return StepOutcome::Blocked;
                };
                self.assert_len(ctx, *source, *t, *len, &data);
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
                let op = self.op.as_ref().expect("checked by PlanCursor::new");
                op.as_fn()(&mut acc_bytes, &other_bytes);
                self.arena.borrow_mut().release(other_bytes);
                self.store_val(*dst, acc_bytes);
            }
            // A value read straight into place has nothing left to write.
            PlanOp::CopyOut { src, .. } if self.plan.landed(src) => {}
            PlanOp::CopyOut { src, .. } => {
                // The receive buffer's entry bytes are copied now, before the
                // flush overwrites them; value slots, literals and the send
                // buffer are read at flush time.
                let reads_output = src
                    .segs
                    .iter()
                    .any(|seg| matches!(seg, SrcSeg::RecvInit { .. }));
                let copied = reads_output.then(|| self.materialize(src));
                self.pending_out.push((self.pc, copied));
            }
            // Modelled costs only: the thread runtime has no clock to charge.
            PlanOp::ChargeCopy { .. } | PlanOp::Delay { .. } => {}
        }
        self.pc += 1;
        StepOutcome::Advanced
    }

    /// The message from `source` tagged `t` past the invocation tag, once it
    /// has arrived.
    fn try_recv(&self, ctx: &TaskCtx, source: usize, t: u64) -> Option<Vec<u8>> {
        let msg = ctx
            .try_recv(source, self.tag + t)
            .expect("try_recv failed")?;
        Some(msg.payload)
    }

    /// A received message must be exactly the length the plan recorded: a
    /// mismatch is a schedule bug, not a data-dependent failure.
    fn assert_len(&self, ctx: &TaskCtx, source: usize, t: u64, len: usize, data: &[u8]) {
        assert_eq!(
            data.len(),
            len,
            "rank {} expected {} bytes from {} (tag {}), got {}",
            ctx.rank(),
            len,
            source,
            self.tag + t,
            data.len()
        );
    }

    /// Store `data` into value slot `dst`.  A validated plan defines every
    /// value once, so the slot is empty and keeps these bytes until the
    /// drain — which the deferred output writes rely on.
    fn store_val(&mut self, dst: u32, data: Vec<u8>) {
        let slot = &mut self.vals[dst as usize];
        assert!(slot.is_none(), "value {dst} defined twice");
        *slot = Some(data);
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

    /// The bytes of `seg` when it names the caller's buffers — for
    /// `RecvInit`, the receive buffer's packed staging when strided; `None`
    /// for a value slot or a literal.
    fn caller_bytes(&self, seg: &SrcSeg) -> Option<&[u8]> {
        let (buf, offset, len) = match *seg {
            SrcSeg::SendBuf { offset, len } => (self.sendbuf.as_deref(), offset, len),
            SrcSeg::RecvInit { offset, len } => (
                self.recv_stage.as_deref().or(self.recvbuf.as_deref()),
                offset,
                len,
            ),
            _ => return None,
        };
        Some(&buf.expect("the plan's buffers are present")[offset..offset + len])
    }

    /// Resolve a symbolic source against the caller's buffers and the
    /// runtime values into an arena-backed buffer.
    fn materialize(&self, src: &Src) -> Vec<u8> {
        let mut out = self.arena.borrow_mut().acquire(src.len());
        for seg in &src.segs {
            let bytes = self
                .caller_bytes(seg)
                .or_else(|| held_bytes(&self.vals, seg));
            out.extend_from_slice(bytes.expect("held by the cursor"));
        }
        out
    }

    /// Run `f` on the bytes `src` names.  A source that is one segment of
    /// the caller's buffers is read in place — the bytes `materialize`
    /// would copy at this step; any other is materialized into an arena
    /// buffer, released afterwards.
    fn with_src(&self, src: &Src, f: impl FnOnce(&[u8])) {
        if let [seg] = &src.segs[..] {
            if let Some(bytes) = self.caller_bytes(seg) {
                return f(bytes);
            }
        }
        let data = self.materialize(src);
        f(&data);
        self.arena.borrow_mut().release(data);
    }
}

/// The bytes of `seg` when the cursor holds them itself — a value slot or a
/// literal of the plan; `None` for the caller's buffers.
fn held_bytes<'a>(vals: &'a [Option<Vec<u8>>], seg: &'a SrcSeg) -> Option<&'a [u8]> {
    match seg {
        SrcSeg::Val { id, offset, len } => {
            let val = vals[*id as usize]
                .as_deref()
                .expect("value defined before use");
            Some(&val[*offset..*offset + *len])
        }
        SrcSeg::Lit(data) => Some(data),
        SrcSeg::SendBuf { .. } | SrcSeg::RecvInit { .. } => None,
        SrcSeg::Opaque { .. } => unreachable!("exec-fidelity plans have no opaque bytes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{Buf, SymBuf};
    use crate::comm::Comm;
    use crate::datatype::{Layout, ReduceKernel, ReduceOp};
    use crate::plan::arena::shared_arena;
    use crate::plan::ir::IoShape;
    use crate::plan::record::{self, PlanComm};
    use pip_runtime::{Cluster, Fabric, NodeSpace, TaskCtx, Topology};

    /// Compile `rank`'s plan of `body` by recording it.  Compiling is
    /// deterministic, so each task building its own plan (`Rc` is not
    /// shareable across the task threads) changes nothing.
    fn compile(
        rank: usize,
        topo: Topology,
        io: IoShape,
        body: impl FnOnce(&PlanComm, Option<&SymBuf>, Option<&mut SymBuf>),
    ) -> Rc<ExecPlan> {
        let plan = record::compile(rank, topo, Fidelity::Exec, io, body);
        Rc::new(ExecPlan::new(plan))
    }

    fn io(sendbuf: usize, recvbuf: usize) -> IoShape {
        IoShape {
            sendbuf: Some(sendbuf),
            recvbuf: Some(recvbuf),
            ..IoShape::default()
        }
    }

    fn compile_exchange(rank: usize, topo: Topology) -> Rc<ExecPlan> {
        compile(rank, topo, io(4, 4), |comm, send, recv| {
            let peer = 1 - rank;
            comm.send(peer, 0, send.unwrap());
            let got = comm.recv(peer, 0, 4);
            comm.node_barrier();
            recv.unwrap().copy_from(0, &got);
        })
    }

    /// Byte-wise wrapping addition, the `u8` instantiation of `Sum`.
    fn byte_add() -> Option<OwnedReduction> {
        Some(OwnedReduction::Typed(ReduceKernel::of::<u8>(ReduceOp::Sum)))
    }

    /// A cursor completes an exchange (send, recv, node barrier) with real
    /// bytes and returns the buffers.
    #[test]
    fn cursor_completes_an_exchange_incrementally() {
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let mut cursor = PlanCursor::new(
                compile_exchange(ctx.rank(), topo),
                Some(vec![10 + ctx.rank() as u8; 4].into()),
                Some(vec![0u8; 4].into()),
                7 << 16,
                shared_arena(),
                None,
            );
            cursor.run(ctx);
            let output = cursor.into_output();
            assert_eq!(&output.sendbuf.unwrap()[..], &[10 + ctx.rank() as u8; 4]);
            output.recvbuf.unwrap().to_vec()
        })
        .unwrap();
        assert_eq!(results[0], vec![11; 4]);
        assert_eq!(results[1], vec![10; 4]);
    }

    /// An 8-byte in/out allreduce of two ranks, recorded through the opaque
    /// reducer interception.
    fn compile_reduce_exchange(rank: usize, topo: Topology) -> Rc<ExecPlan> {
        let inout = IoShape {
            sendbuf: None,
            recvbuf: Some(8),
            inout: true,
            needs_reduce_op: true,
            ..IoShape::default()
        };
        compile(rank, topo, inout, |comm, _, buf| {
            let buf = buf.unwrap();
            comm.send(1 - rank, 0, buf);
            let incoming = comm.recv(1 - rank, 0, 8);
            comm.reducer()(buf, &incoming);
        })
    }

    /// A reduce plan recorded through the opaque interception executes, on
    /// the caller's in/out buffer, with a typed
    /// [`crate::datatype::ReduceKernel`] supplied at run time — the plan
    /// itself is operator-agnostic, so one recording serves every invocation
    /// with the same `(datatype, op)` key.
    #[test]
    fn recorded_reduce_plan_executes_with_a_typed_kernel() {
        use crate::datatype::Datatype;
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let rank = ctx.rank();
            let plan = compile_reduce_exchange(rank, topo);
            let buf = i32::into_elem_buf(vec![rank as i32 + 1, -(rank as i32) - 10]);
            let kernel = OwnedReduction::Typed(ReduceKernel::of::<i32>(ReduceOp::Sum));
            let arena = shared_arena();
            let mut cursor = PlanCursor::new(plan, None, Some(buf), 9 << 16, arena, Some(kernel));
            cursor.run(ctx);
            i32::from_elem_buf(cursor.into_output().recvbuf.unwrap())
        })
        .unwrap();
        for (rank, out) in results.iter().enumerate() {
            assert_eq!(out, &vec![3, -21], "typed planned reduce at rank {rank}");
        }
    }

    /// The same cached plan executes twice on one communicator without the
    /// shared-region namespaces or tags colliding.
    #[test]
    fn repeated_execution_of_one_plan_does_not_collide() {
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let rank = ctx.rank();
            let plan = compile(rank, topo, io(2, 4), |comm, send, recv| {
                if rank == 0 {
                    comm.shared_alloc("stage_0", 4);
                }
                comm.node_barrier();
                comm.shared_write(0, "stage_0", rank * 2, send.unwrap());
                comm.node_barrier();
                recv.unwrap()
                    .copy_from(0, &comm.shared_read(0, "stage_0", 0, 4));
            });
            let arena = shared_arena();
            [1u8, 2].map(|call| {
                let mut cursor = PlanCursor::new(
                    Rc::clone(&plan),
                    Some(vec![call * (10 + rank as u8); 2].into()),
                    Some(vec![0u8; 4].into()),
                    (call as u64) << 16,
                    Rc::clone(&arena),
                    None,
                );
                cursor.run(ctx);
                cursor.into_output().recvbuf.unwrap().to_vec()
            })
        })
        .unwrap();
        assert_eq!(results[0][0], vec![10, 10, 11, 11]);
        assert_eq!(results[0][1], vec![20, 20, 22, 22]);
    }

    /// A consumer stepped before its producer reports `Blocked` on the
    /// unexposed region instead of parking: one thread steps both ranks of
    /// a node, consumer first, and the exchange still completes.
    #[test]
    fn unexposed_region_blocks_the_cursor_not_the_thread() {
        let topo = Topology::new(1, 2);
        let compile = |rank: usize| {
            compile(rank, topo, io(4, 4), |comm, send, recv| {
                let (send, recv) = (send.unwrap(), recv.unwrap());
                if rank == 0 {
                    comm.shared_publish("box", send);
                    recv.copy_from(0, send);
                } else {
                    recv.copy_from(0, &comm.shared_read(0, "box", 0, 4));
                }
            })
        };
        let node = NodeSpace::new(0, 2);
        let fabric = Fabric::new(2);
        let ctxs = [0, 1].map(|rank| TaskCtx::new(rank, topo, node.clone(), fabric.clone()));
        let mut cursors = [0, 1].map(|rank| {
            PlanCursor::new(
                compile(rank),
                Some(vec![40 + rank as u8; 4].into()),
                Some(vec![0u8; 4].into()),
                3 << 16,
                shared_arena(),
                None,
            )
        });
        assert_eq!(cursors[1].step(&ctxs[1]), StepOutcome::Blocked);
        assert_eq!(cursors[1].step(&ctxs[1]), StepOutcome::Blocked);
        assert!(
            cursors[1]
                .blocked_on()
                .contains("region \"box\" of local rank 0"),
            "{}",
            cursors[1].blocked_on()
        );
        assert_eq!(cursors[0].step(&ctxs[0]), StepOutcome::Done);
        assert_eq!(node.exposed_count(), 1, "the consumer is still inside");
        assert_eq!(cursors[1].step(&ctxs[1]), StepOutcome::Done);
        assert_eq!(node.exposed_count(), 0, "the last leaver retired the scope");
        let [_, consumer] = cursors;
        assert_eq!(&consumer.into_output().recvbuf.unwrap()[..], &[40; 4]);
    }

    /// Output writes of value slots are flushed from the slots, writes of
    /// the caller's buffer are copied when their op runs: on an in/out
    /// buffer, `RecvInit` writes that follow a write to the range they read
    /// (by reference or copied) still see the pre-execution bytes, the flush
    /// applies both kinds in program order, and a source mixing a value with
    /// the caller's buffer is copied too.
    #[test]
    fn in_out_output_writes_read_pre_execution_bytes_in_program_order() {
        let topo = Topology::new(1, 1);
        let src = |segs: Vec<SrcSeg>| Src { segs };
        let val = |offset, len| SrcSeg::Val { id: 0, offset, len };
        let copy_out = |offset, segs| PlanOp::CopyOut {
            offset,
            src: src(segs),
        };
        let plan = RankPlan {
            rank: 0,
            topology: topo,
            fidelity: Fidelity::Exec,
            io: IoShape {
                recvbuf: Some(16),
                inout: true,
                needs_reduce_op: true,
                ..IoShape::default()
            },
            names: Vec::new(),
            val_lens: vec![4],
            ops: vec![
                PlanOp::Reduce {
                    dst: 0,
                    acc: src(vec![SrcSeg::RecvInit { offset: 0, len: 4 }]),
                    other: src(vec![SrcSeg::Lit(vec![10; 4])]),
                },
                copy_out(0, vec![val(0, 4)]),
                copy_out(4, vec![SrcSeg::RecvInit { offset: 0, len: 4 }]),
                copy_out(8, vec![SrcSeg::RecvInit { offset: 4, len: 4 }]),
                copy_out(10, vec![val(2, 2)]),
                copy_out(12, vec![val(0, 2), SrcSeg::RecvInit { offset: 0, len: 2 }]),
            ],
        };
        plan.validate().unwrap();
        let results = Cluster::launch(topo, |ctx| {
            let arena = shared_arena();
            let buf = ElemBuf::U8((1..=16).collect());
            let plan = Rc::new(ExecPlan::new(plan.clone()));
            let mut cursor = PlanCursor::new(
                plan,
                None,
                Some(buf),
                1 << 16,
                Rc::clone(&arena),
                byte_add(),
            );
            cursor.run(ctx);
            let stats = arena.borrow().stats();
            (cursor.into_output().recvbuf.unwrap().to_vec(), stats)
        })
        .unwrap();
        let (out, stats) = &results[0];
        assert_eq!(
            out,
            &[11, 12, 13, 14, 1, 2, 3, 4, 5, 6, 13, 14, 11, 12, 1, 2],
            "value writes from the slots, caller-buffer writes from pre-execution bytes"
        );
        // The two reduction operands, the two RecvInit writes and the mixed
        // write take a buffer; the two value writes do not.
        assert_eq!(stats.hits + stats.misses, 5, "{stats:?}");
        assert_eq!(stats.released, 5, "{stats:?}");
    }

    /// A one-rank plan whose first op publishes `region` as region 0, so
    /// the rest can read it back with `SharedRead`s.
    fn hand_plan(io: IoShape, region: &[u8], val_lens: Vec<usize>, ops: Vec<PlanOp>) -> RankPlan {
        let publish = PlanOp::SharedPublish {
            name: 0,
            src: Src {
                segs: vec![SrcSeg::Lit(region.to_vec())],
            },
        };
        let plan = RankPlan {
            rank: 0,
            topology: Topology::new(1, 1),
            fidelity: Fidelity::Exec,
            io: IoShape {
                needs_reduce_op: true,
                ..io
            },
            names: vec!["region".to_string()],
            val_lens,
            ops: std::iter::once(publish).chain(ops).collect(),
        };
        plan.validate().unwrap();
        plan
    }

    /// Run `plan` on one rank, with byte-wise wrapping addition as the
    /// reduction operator: the receive buffer afterwards, the arena
    /// buffers the run acquired and the plan's direct reads.
    fn run_hand_plan(
        plan: &RankPlan,
        sendbuf: Option<Vec<u8>>,
        recvbuf: Vec<u8>,
    ) -> (Vec<u8>, u64, usize) {
        let results = Cluster::launch(plan.topology, |ctx| {
            let arena = shared_arena();
            let plan = Rc::new(ExecPlan::new(plan.clone()));
            let direct = plan.direct_reads();
            let mut cursor = PlanCursor::new(
                plan,
                sendbuf.clone().map(ElemBuf::from),
                Some(recvbuf.clone().into()),
                1 << 16,
                Rc::clone(&arena),
                byte_add(),
            );
            cursor.run(ctx);
            let stats = arena.borrow().stats();
            assert_eq!(stats.hits + stats.misses, stats.released, "{stats:?}");
            let out = cursor.into_output().recvbuf.unwrap().to_vec();
            (out, stats.hits + stats.misses, direct)
        })
        .unwrap();
        results.into_iter().next().unwrap()
    }

    fn read(offset: usize, len: usize, dst: u32) -> PlanOp {
        PlanOp::SharedRead {
            owner_local: 0,
            name: 0,
            offset,
            len,
            dst,
        }
    }

    fn copy_out(offset: usize, seg: SrcSeg) -> PlanOp {
        PlanOp::CopyOut {
            offset,
            src: Src { segs: vec![seg] },
        }
    }

    fn val(id: u32, offset: usize, len: usize) -> SrcSeg {
        SrcSeg::Val { id, offset, len }
    }

    const REGION: [u8; 16] = [
        100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115,
    ];

    /// The caller's receive buffer on entry: `1..=len`.
    fn initial(len: usize) -> Vec<u8> {
        (1..=len as u8).collect()
    }

    /// Two shared reads that each fill one range of the output land there
    /// directly: the result is the one the value slots give, and the run
    /// acquires exactly one buffer fewer per direct read.  Neither a
    /// `RecvInit` read of the range before the reads nor a `SendBuf` read
    /// after them stops the rule: the first sees the entry bytes anyway,
    /// and the send buffer is not the output.  The twin writes each value
    /// out in two halves, which keeps both reads in slots.
    #[test]
    fn direct_reads_land_in_place_and_take_no_buffer() {
        let reduce = |dst, seg| PlanOp::Reduce {
            dst,
            acc: Src { segs: vec![seg] },
            other: Src {
                segs: vec![SrcSeg::Lit(vec![1; 8])],
            },
        };
        let plan = |copy_outs: Vec<PlanOp>| {
            let ops = [
                vec![
                    reduce(2, SrcSeg::RecvInit { offset: 4, len: 8 }),
                    read(0, 8, 0),
                    read(8, 8, 1),
                ],
                copy_outs,
                vec![reduce(3, SrcSeg::SendBuf { offset: 0, len: 8 })],
            ];
            hand_plan(io(8, 16), &REGION, vec![8; 4], ops.concat())
        };
        let whole = plan(vec![copy_out(8, val(0, 0, 8)), copy_out(0, val(1, 0, 8))]);
        let halves = plan(vec![
            copy_out(8, val(0, 0, 4)),
            copy_out(12, val(0, 4, 4)),
            copy_out(0, val(1, 0, 4)),
            copy_out(4, val(1, 4, 4)),
        ]);
        let expected = [&REGION[8..], &REGION[..8]].concat();
        let sendbuf = Some(vec![7; 8]);
        let (out, acquired, direct) = run_hand_plan(&whole, sendbuf.clone(), initial(16));
        let (slot_out, slot_acquired, slot_direct) = run_hand_plan(&halves, sendbuf, initial(16));
        assert_eq!((direct, slot_direct), (2, 0));
        assert_eq!(out, expected);
        assert_eq!(slot_out, expected);
        assert_eq!(slot_acquired - acquired, direct as u64);
    }

    /// A `CopyOut` of the send buffer is read at the flush, as a value slot
    /// is: it takes no arena buffer, where one of the receive buffer's entry
    /// bytes, which the flush overwrites, takes one.
    #[test]
    fn send_buffer_output_writes_take_no_buffer() {
        let plan = |seg| hand_plan(io(8, 16), &REGION, vec![], vec![copy_out(4, seg)]);
        let input: Vec<u8> = (21..29).collect();
        let sent = plan(SrcSeg::SendBuf { offset: 0, len: 8 });
        let (out, acquired, _) = run_hand_plan(&sent, Some(input.clone()), initial(16));
        let entry = plan(SrcSeg::RecvInit { offset: 8, len: 8 });
        let (_, entry_acquired, _) = run_hand_plan(&entry, Some(input.clone()), initial(16));
        let mut expected = initial(16);
        expected[4..12].copy_from_slice(&input);
        assert_eq!(out, expected);
        assert_eq!(entry_acquired - acquired, 1);
    }

    /// Every condition of the direct-read rule, broken once: each read
    /// keeps its slot, and the output is what the slots give.
    #[test]
    fn reads_that_break_a_condition_keep_their_slots() {
        let entry = initial(16);
        let inout = IoShape {
            recvbuf: Some(16),
            inout: true,
            ..IoShape::default()
        };
        let staged = IoShape {
            recv_layout: Some(Layout::vector(2, 8, 12)),
            ..io(0, 16)
        };
        let mut part = entry.clone();
        part[4..8].copy_from_slice(&REGION[..4]);
        let cases: Vec<(&str, IoShape, Vec<PlanOp>, Vec<u8>)> = vec![
            (
                "a later RecvInit read of the range must see the entry bytes",
                io(0, 16),
                vec![
                    read(0, 8, 0),
                    copy_out(0, val(0, 0, 8)),
                    copy_out(8, SrcSeg::RecvInit { offset: 4, len: 8 }),
                ],
                [&REGION[..8], &entry[4..12]].concat(),
            ),
            (
                "an in/out plan's later read of its input sees the entry bytes",
                inout,
                vec![
                    read(8, 8, 0),
                    copy_out(0, val(0, 0, 8)),
                    copy_out(8, SrcSeg::RecvInit { offset: 0, len: 8 }),
                ],
                [&REGION[8..], &entry[..8]].concat(),
            ),
            (
                "an earlier overlapping write is flushed after the read landed",
                io(0, 16),
                vec![
                    copy_out(4, SrcSeg::Lit(vec![9; 8])),
                    read(0, 8, 0),
                    copy_out(0, val(0, 0, 8)),
                ],
                [&REGION[..8], &[9; 4][..], &entry[12..]].concat(),
            ),
            (
                "a value read twice",
                io(0, 16),
                vec![
                    read(0, 8, 0),
                    copy_out(0, val(0, 0, 8)),
                    copy_out(8, val(0, 0, 8)),
                ],
                [&REGION[..8], &REGION[..8]].concat(),
            ),
            (
                "a value written out in part",
                io(0, 16),
                vec![read(0, 8, 0), copy_out(4, val(0, 0, 4))],
                part,
            ),
            (
                "a staged receive buffer is unpacked at the drain, gaps kept",
                staged,
                vec![
                    read(0, 8, 0),
                    copy_out(0, val(0, 0, 8)),
                    copy_out(8, SrcSeg::Lit(vec![9; 8])),
                ],
                [&REGION[..8], &initial(20)[8..12], &[9; 8][..]].concat(),
            ),
        ];
        for (case, io, ops, expected) in cases {
            let plan = hand_plan(io, &REGION, vec![8], ops);
            let sendbuf = io.sendbuf.map(|len| vec![0; len]);
            let recvbuf = initial(io.recv_layout.map_or(16, |l| l.extent()));
            let (out, _, direct) = run_hand_plan(&plan, sendbuf, recvbuf);
            assert_eq!(direct, 0, "{case}");
            assert_eq!(out, expected, "{case}");
        }
    }

    #[test]
    #[should_panic(expected = "schedule-fidelity")]
    fn cursor_refuses_schedule_fidelity_plans() {
        let comm = PlanComm::new(0, Topology::new(1, 1), Fidelity::Schedule);
        comm.node_barrier();
        let plan = Rc::new(ExecPlan::new(comm.finish(IoShape::default(), None)));
        let _ = PlanCursor::new(plan, None, None, 1 << 16, shared_arena(), None);
    }

    /// A plan that reduces is refused without an operator when the cursor
    /// is built, before any op runs or any peer is involved.
    #[test]
    #[should_panic(expected = "plan requires a reduction operator")]
    fn cursor_refuses_a_reduction_plan_without_an_operator() {
        let plan = compile_reduce_exchange(0, Topology::new(1, 2));
        assert!(plan.io.needs_reduce_op);
        let buf = ElemBuf::from(vec![0u8; 8]);
        let _ = PlanCursor::new(plan, None, Some(buf), 1 << 16, shared_arena(), None);
    }

    #[test]
    #[should_panic(expected = "does not match the plan's shape")]
    fn cursor_rejects_wrong_buffer_lengths() {
        let short = vec![0u8; 2];
        let plan = compile_exchange(0, Topology::new(1, 2));
        let _ = PlanCursor::new(
            plan,
            Some(short.into()),
            Some(vec![0u8; 4].into()),
            1 << 16,
            shared_arena(),
            None,
        );
    }
}
