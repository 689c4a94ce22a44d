//! Request bookkeeping for non-blocking and persistent collectives: the
//! progress engine that drives every outstanding [`PlanCursor`] on a
//! communicator.
//!
//! MPI's completion calls (`MPI_Wait`, `MPI_Test`, `MPI_Waitall`) are
//! allowed in *any* order relative to submission, which means waiting on one
//! request must still advance the others — otherwise two ranks waiting on
//! different requests of the same pair of collectives would deadlock.  The
//! [`ProgressEngine`] therefore owns the cursors of **all** outstanding
//! collectives of one communicator, and every [`ProgressEngine::progress`]
//! call steps every one of them.  Completion is observed per request id;
//! completed outputs are parked until the owner collects them with
//! [`ProgressEngine::take_output`].
//!
//! The engine is deliberately single-threaded (one engine per communicator,
//! one communicator per rank thread): progress happens inside the caller's
//! `wait`/`test`, on that rank's [`TaskCtx`], exactly like an MPI
//! implementation progressing from within completion calls.
//!
//! A request's cursor is the same kind of cursor a blocking collective runs:
//! both own the invocation's buffers and operator and differ only in who
//! drives them.
//! [`drive_to_done`] is the one wait loop of the execute plane: a blocking
//! collective drives its own cursor with it, [`ProgressEngine::wait`] drives
//! the whole engine with it.

use std::time::Instant;

use pip_runtime::TaskCtx;

use crate::plan::cursor::{CursorOutput, PlanCursor, StepOutcome};

/// Identifier of one submitted collective within its engine.
pub type ReqId = u64;

/// One submitted collective: either still executing or finished with its
/// output parked.
enum Slot {
    // Boxed: a cursor (plan handle, buffers, staging) dwarfs the parked
    // output, and slots outlive many step() passes.
    Running(Box<PlanCursor>),
    Finished(CursorOutput),
}

/// Drives all outstanding non-blocking collectives of one communicator.
#[derive(Default)]
pub struct ProgressEngine {
    slots: Vec<(ReqId, Slot)>,
    next_id: ReqId,
}

impl std::fmt::Debug for ProgressEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressEngine")
            .field("outstanding", &self.outstanding())
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl ProgressEngine {
    /// An engine with no outstanding requests.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a cursor and return the id its completion will be reported
    /// under.
    pub fn submit(&mut self, cursor: PlanCursor) -> ReqId {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.push((id, Slot::Running(Box::new(cursor))));
        id
    }

    /// Step every outstanding cursor once on `ctx`; returns whether *any* of
    /// them made forward progress.
    pub fn progress(&mut self, ctx: &TaskCtx) -> bool {
        let mut advanced = false;
        for (_, slot) in self.slots.iter_mut() {
            let Slot::Running(cursor) = slot else {
                continue;
            };
            match cursor.step(ctx) {
                StepOutcome::Advanced => advanced = true,
                StepOutcome::Blocked => {}
                StepOutcome::Done => {
                    advanced = true;
                    let parked = Slot::Finished(CursorOutput {
                        sendbuf: None,
                        recvbuf: None,
                    });
                    let Slot::Running(cursor) = std::mem::replace(slot, parked) else {
                        unreachable!("slot was running");
                    };
                    *slot = Slot::Finished(cursor.into_output());
                }
            }
        }
        advanced
    }

    /// Whether request `id` has finished executing (its output is parked and
    /// [`ProgressEngine::take_output`] will succeed).
    pub fn is_complete(&self, id: ReqId) -> bool {
        self.slots
            .iter()
            .any(|(slot_id, slot)| *slot_id == id && matches!(slot, Slot::Finished(_)))
    }

    /// Drive every outstanding request until request `id` completes, then
    /// remove it and return its buffers ([`drive_to_done`] states how the
    /// wait fails).
    pub fn wait(&mut self, ctx: &TaskCtx, id: ReqId) -> CursorOutput {
        let step = |engine: &mut Self| {
            let advanced = engine.progress(ctx);
            if engine.is_complete(id) {
                StepOutcome::Done
            } else if advanced {
                StepOutcome::Advanced
            } else {
                StepOutcome::Blocked
            }
        };
        let blocked_on = |engine: &Self| {
            let waited = engine.slots.iter().find(|(slot_id, _)| *slot_id == id);
            match waited {
                Some((_, Slot::Running(cursor))) => cursor.blocked_on(),
                _ => format!("request {id}, which is not outstanding"),
            }
        };
        drive_to_done(ctx, self, step, blocked_on);
        self.take_output(id)
    }

    /// Remove a completed request and return its buffers.
    ///
    /// # Panics
    ///
    /// Panics when `id` is unknown (already taken) or still running.
    pub fn take_output(&mut self, id: ReqId) -> CursorOutput {
        let index = self
            .slots
            .iter()
            .position(|(slot_id, _)| *slot_id == id)
            .expect("request id is outstanding");
        match self.slots.remove(index).1 {
            Slot::Finished(output) => output,
            Slot::Running(_) => panic!("request {id} has not completed"),
        }
    }

    /// Number of submitted requests not yet taken (running or parked).
    pub fn outstanding(&self) -> usize {
        self.slots.len()
    }
}

/// The one wait loop: call `step` on `state` until it reports
/// [`StepOutcome::Done`], yielding the thread between fruitless polls.
///
/// # Panics
///
/// Panics — surfacing as `RuntimeError::TaskPanicked` from the launch — once
/// `step` has reported nothing but [`StepOutcome::Blocked`] for the
/// fabric's receive timeout ([`pip_runtime::Fabric::recv_timeout`], so a
/// broken schedule fails after the same grace period whichever way a rank
/// waits): a peer that never issues the matching collective becomes a
/// bounded failure naming this rank and what it is `blocked_on`, never a
/// hang.
pub fn drive_to_done<S>(
    ctx: &TaskCtx,
    state: &mut S,
    mut step: impl FnMut(&mut S) -> StepOutcome,
    blocked_on: impl Fn(&S) -> String,
) {
    let timeout = ctx.fabric().recv_timeout();
    // The clock is read only while blocked.
    let mut blocked_since = None;
    loop {
        match step(state) {
            StepOutcome::Done => return,
            StepOutcome::Advanced => blocked_since = None,
            StepOutcome::Blocked => {
                assert!(
                    blocked_since.get_or_insert_with(Instant::now).elapsed() < timeout,
                    "rank {}: no progress for {timeout:?} at {} — every rank must issue the \
                     matching collective",
                    ctx.rank(),
                    blocked_on(state),
                );
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use crate::buf::Buf;
    use crate::comm::Comm;
    use crate::plan::ir::IoShape;
    use crate::plan::{compile, shared_arena, ExecPlan, Fidelity};
    use pip_runtime::{Cluster, Topology};

    /// Compile a two-rank ping with a per-invocation distinct tag space.
    fn compile_exchange(rank: usize, topo: Topology) -> Rc<ExecPlan> {
        let io = IoShape {
            sendbuf: Some(2),
            recvbuf: Some(2),
            ..IoShape::default()
        };
        let plan = compile(rank, topo, Fidelity::Exec, io, |comm, send, recv| {
            let peer = 1 - rank;
            comm.send(peer, 0, send.unwrap());
            recv.unwrap().copy_from(0, &comm.recv(peer, 0, 2));
        });
        Rc::new(ExecPlan::new(plan))
    }

    /// Several outstanding executions of the same plan complete out of
    /// submission order through one engine.
    #[test]
    fn engine_completes_interleaved_requests_out_of_order() {
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let plan = compile_exchange(ctx.rank(), topo);
            let mut engine = ProgressEngine::new();
            let ids: Vec<ReqId> = (0..4u8)
                .map(|call| {
                    let cursor = PlanCursor::new(
                        Rc::clone(&plan),
                        Some(vec![call * 10 + ctx.rank() as u8; 2].into()),
                        Some(vec![0u8; 2].into()),
                        (call as u64 + 1) << 16,
                        shared_arena(),
                        None,
                    );
                    engine.submit(cursor)
                })
                .collect();
            assert_eq!(engine.outstanding(), 4);
            // Collect in reverse order of submission.
            let mut outputs = vec![Vec::new(); 4];
            for (call, &id) in ids.iter().enumerate().rev() {
                outputs[call] = engine.wait(ctx, id).recvbuf.unwrap().to_vec();
            }
            assert_eq!(engine.outstanding(), 0);
            outputs
        })
        .unwrap();
        for call in 0..4u8 {
            assert_eq!(results[0][call as usize], vec![call * 10 + 1; 2]);
            assert_eq!(results[1][call as usize], vec![call * 10; 2]);
        }
    }
}
