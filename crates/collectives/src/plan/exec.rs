//! Executing a compiled [`RankPlan`] against any [`Comm`].
//!
//! The executor replaces per-call algorithm interpretation on the hot path:
//! peers, tags, offsets and buffer routing were all decided at compile time,
//! so running a plan is a single linear walk over its ops.  Tags are rebased
//! by the invocation tag and shared regions live in the invocation's own
//! node-local scope ([`pip_runtime::scope`]), so one cached plan can be
//! executed any number of times on the same communicator without collisions.
//!
//! Scratch buffers (materialized payloads, value slots, deferred output
//! writes) come from a [`BufferArena`]: pass one that outlives the call
//! ([`execute_rank_plan_reusing`]) and repeat executions of the same shape
//! stop allocating entirely — the persistent-collective steady state.

use crate::comm::{Comm, ReduceFn};
use crate::compress::{compress, decompress};
use crate::plan::arena::BufferArena;
use crate::plan::ir::{Fidelity, IoShape, NameId, PlanOp, RankPlan, Src, SrcSeg};
use pip_runtime::ExposedRegion;

/// The caller buffers a plan execution operates on.
///
/// For in/out collectives (bcast, allreduce) pass the single caller buffer
/// as `recvbuf` and leave `sendbuf` as `None`; the plan's
/// [`crate::plan::ir::IoShape::inout`] flag makes the executor read
/// [`SrcSeg::SendBuf`] from the receive buffer's pre-output contents (output
/// writes are deferred to the end of the run, so the input bytes stay
/// readable throughout).
#[derive(Debug, Default)]
pub struct PlanIo<'a> {
    /// The caller's send buffer, if the plan declares one.
    pub sendbuf: Option<&'a [u8]>,
    /// The caller's receive (or in/out) buffer, if the plan declares one.
    pub recvbuf: Option<&'a mut [u8]>,
}

/// Execute `plan` on `comm` with the invocation tag `tag`.
///
/// `op` must be `Some` when the plan contains reductions
/// ([`crate::plan::ir::IoShape::needs_reduce_op`]).
///
/// # Panics
///
/// Panics when the plan is schedule-fidelity, the buffers disagree with the
/// plan's [`crate::plan::ir::IoShape`], the communicator's coordinates
/// disagree with the plan's, or a required reduction operator is missing —
/// all of which are caller bugs, not data-dependent failures.
pub fn execute_rank_plan<C: Comm>(
    plan: &RankPlan,
    comm: &C,
    io: PlanIo<'_>,
    op: Option<&ReduceFn<'_>>,
    tag: u64,
) {
    let mut arena = BufferArena::new();
    execute_rank_plan_reusing(plan, comm, io, op, tag, &mut arena);
}

/// Resolve a symbolic source into `out` (cleared first) against the caller
/// buffers and the runtime values — shared by the blocking executor and the
/// cursor.
pub(crate) fn materialize_into(
    out: &mut Vec<u8>,
    src: &Src,
    io: &IoShape,
    sendbuf: Option<&[u8]>,
    recvbuf: Option<&[u8]>,
    vals: &[Option<Vec<u8>>],
) {
    out.clear();
    for seg in &src.segs {
        match seg {
            SrcSeg::SendBuf { offset, len } => {
                let buf: &[u8] = if io.inout {
                    recvbuf.expect("in/out buffer present")
                } else {
                    sendbuf.expect("send buffer present")
                };
                out.extend_from_slice(&buf[*offset..*offset + *len]);
            }
            SrcSeg::RecvInit { offset, len } => {
                let buf = recvbuf.expect("receive buffer present");
                out.extend_from_slice(&buf[*offset..*offset + *len]);
            }
            SrcSeg::Val { id, offset, len } => {
                let val = vals[*id as usize]
                    .as_deref()
                    .expect("value defined before use");
                out.extend_from_slice(&val[*offset..*offset + *len]);
            }
            SrcSeg::Lit(data) => out.extend_from_slice(data),
            SrcSeg::Opaque { .. } => unreachable!("exec-fidelity plans have no opaque bytes"),
        }
    }
}

/// Store `data` into value slot `dst`, releasing any buffer the slot held.
pub(crate) fn store_val(
    vals: &mut [Option<Vec<u8>>],
    arena: &mut BufferArena,
    dst: u32,
    data: Vec<u8>,
) {
    if let Some(old) = vals[dst as usize].replace(data) {
        arena.release(old);
    }
}

/// As [`execute_rank_plan`], drawing every scratch buffer from `arena`.
///
/// Passing the same arena across invocations makes the steady state
/// allocation-free: buffers released at the end of one run (value slots,
/// deferred output writes, received payloads) are reacquired by the next.
/// Buffers a run sends away through the fabric are balanced, for symmetric
/// collectives, by the received payloads it releases.
pub fn execute_rank_plan_reusing<C: Comm>(
    plan: &RankPlan,
    comm: &C,
    io: PlanIo<'_>,
    op: Option<&ReduceFn<'_>>,
    tag: u64,
    arena: &mut BufferArena,
) {
    assert_eq!(
        plan.fidelity,
        Fidelity::Exec,
        "schedule-fidelity plans cannot be executed"
    );
    assert_eq!(comm.rank(), plan.rank, "plan compiled for a different rank");
    assert_eq!(
        comm.topology(),
        plan.topology,
        "plan compiled for a different topology"
    );
    let PlanIo {
        sendbuf,
        mut recvbuf,
    } = io;
    // When a layout is present the caller's buffer spans the layout extent;
    // otherwise it is exactly the packed length the plan was recorded with.
    let expect_send = if plan.io.inout { None } else { plan.io.sendbuf };
    assert_eq!(
        sendbuf.map(<[u8]>::len),
        expect_send.map(|len| plan.io.send_layout.map_or(len, |l| l.extent())),
        "send buffer does not match the plan's shape"
    );
    assert_eq!(
        recvbuf.as_deref().map(<[u8]>::len),
        plan.io
            .recvbuf
            .map(|len| plan.io.recv_layout.map_or(len, |l| l.extent())),
        "receive buffer does not match the plan's shape"
    );
    if plan.io.needs_reduce_op {
        assert!(op.is_some(), "plan requires a reduction operator");
    }

    // Pack strided caller buffers into contiguous scratch: the plan body was
    // recorded against packed bytes and never sees a gap byte.
    let mut send_stage: Option<Vec<u8>> = None;
    if let (Some(layout), Some(buf)) = (plan.io.send_layout, sendbuf) {
        let mut stage = arena.acquire(layout.packed_len());
        layout.pack_bytes(buf, &mut stage);
        send_stage = Some(stage);
    }
    let mut recv_stage: Option<Vec<u8>> = None;
    if let (Some(layout), Some(buf)) = (plan.io.recv_layout, recvbuf.as_deref()) {
        let mut stage = arena.acquire(layout.packed_len());
        layout.pack_bytes(buf, &mut stage);
        recv_stage = Some(stage);
    }
    let sendbuf = send_stage.as_deref().or(sendbuf);
    let recv_view = recv_stage.as_deref().or(recvbuf.as_deref());

    // The invocation's node-local scope; left when this call returns.  A
    // region a peer has not exposed yet is waited for (bounded).
    let scope = comm.enter_scope(tag, &plan.names);
    let expose = |name: NameId, len: usize| -> ExposedRegion {
        scope
            .expose(name, len)
            .expect("a plan exposes each region with one length")
    };
    let region = |owner_local: usize, name: NameId| -> ExposedRegion {
        scope
            .region(owner_local, name)
            .expect("shared region exposed by its owner")
    };

    let mut vals: Vec<Option<Vec<u8>>> = vec![None; plan.val_lens.len()];
    // Output writes are deferred so that SendBuf/RecvInit reads always see
    // the caller's pre-execution bytes, even when input and output alias.
    let mut pending_out: Vec<(usize, Vec<u8>)> = Vec::new();

    for plan_op in &plan.ops {
        match plan_op {
            PlanOp::SharedAlloc { name, len } => {
                expose(*name, *len);
            }
            PlanOp::SharedPublish { name, src } => {
                let mut data = arena.acquire(src.len());
                materialize_into(&mut data, src, &plan.io, sendbuf, recv_view, &vals);
                expose(*name, data.len()).write(0, &data);
                arena.release(data);
            }
            PlanOp::SharedCollect { name, len, dst } => {
                let mut data = arena.acquire(*len);
                region(scope.local_rank(), *name).read_into_vec(0, *len, &mut data);
                store_val(&mut vals, arena, *dst, data);
            }
            PlanOp::SharedWrite {
                owner_local,
                name,
                offset,
                src,
            } => {
                let mut data = arena.acquire(src.len());
                materialize_into(&mut data, src, &plan.io, sendbuf, recv_view, &vals);
                region(*owner_local, *name).write(*offset, &data);
                arena.release(data);
            }
            PlanOp::SharedRead {
                owner_local,
                name,
                offset,
                len,
                dst,
            } => {
                let mut data = arena.acquire(*len);
                region(*owner_local, *name).read_into_vec(*offset, *len, &mut data);
                store_val(&mut vals, arena, *dst, data);
            }
            PlanOp::Send { dest, tag: t, src } => {
                let mut data = arena.acquire(src.len());
                materialize_into(&mut data, src, &plan.io, sendbuf, recv_view, &vals);
                // The buffer moves into the fabric and on to the peer, whose
                // receive will feed it into *its* arena.
                comm.send_owned(*dest, tag + t, data);
            }
            PlanOp::Recv {
                source,
                tag: t,
                len,
                dst,
            } => {
                let data = comm.recv(*source, tag + t, *len);
                store_val(&mut vals, arena, *dst, data);
            }
            PlanOp::Compress {
                dest,
                tag: t,
                src,
                codec,
                ..
            } => {
                let mut data = arena.acquire(src.len());
                materialize_into(&mut data, src, &plan.io, sendbuf, recv_view, &vals);
                let frame = compress(&data, *codec);
                arena.release(data);
                comm.send_owned(*dest, tag + t, frame);
            }
            PlanOp::Decompress {
                source,
                tag: t,
                raw_len,
                dst,
                codec,
                ..
            } => {
                // The frame's length depends on the sender's payload, so the
                // receive is unsized; the decoded length is asserted instead.
                let frame = comm.recv_unsized(*source, tag + t);
                let data = decompress(&frame, *raw_len, *codec);
                store_val(&mut vals, arena, *dst, data);
            }
            PlanOp::SendFromShared {
                owner_local,
                name,
                offset,
                len,
                dest,
                tag: t,
            } => {
                // The single copy out of the shared region is the only one;
                // the buffer then moves into the fabric.
                let mut data = arena.acquire(*len);
                region(*owner_local, *name).read_into_vec(*offset, *len, &mut data);
                comm.send_owned(*dest, tag + t, data);
            }
            PlanOp::RecvIntoShared {
                owner_local,
                name,
                offset,
                source,
                tag: t,
                len,
            } => {
                let data = comm.recv(*source, tag + t, *len);
                region(*owner_local, *name).write(*offset, &data);
                arena.release(data);
            }
            PlanOp::NodeBarrier => comm.node_barrier(),
            PlanOp::Reduce { dst, acc, other } => {
                let mut acc_bytes = arena.acquire(acc.len());
                materialize_into(&mut acc_bytes, acc, &plan.io, sendbuf, recv_view, &vals);
                let mut other_bytes = arena.acquire(other.len());
                materialize_into(&mut other_bytes, other, &plan.io, sendbuf, recv_view, &vals);
                let op = op.expect("plan requires a reduction operator");
                op(&mut acc_bytes, &other_bytes);
                arena.release(other_bytes);
                store_val(&mut vals, arena, *dst, acc_bytes);
            }
            PlanOp::CopyOut { offset, src } => {
                let mut data = arena.acquire(src.len());
                materialize_into(&mut data, src, &plan.io, sendbuf, recv_view, &vals);
                pending_out.push((*offset, data));
            }
            PlanOp::ChargeCopy { bytes } => comm.charge_copy(*bytes),
            PlanOp::ChargeReduce { bytes } => comm.charge_reduce(*bytes),
            PlanOp::Delay { nanos } => comm.delay(*nanos),
        }
    }

    if !pending_out.is_empty() {
        let out: &mut [u8] = match recv_stage.as_mut() {
            Some(stage) => stage,
            None => recvbuf.as_deref_mut().expect("receive buffer present"),
        };
        for (offset, data) in pending_out {
            out[offset..offset + data.len()].copy_from_slice(&data);
            arena.release(data);
        }
    }
    // Scatter staged output back into the caller's strided buffer, leaving
    // the gap bytes untouched, and return the scratch to the arena.
    if let Some(stage) = recv_stage.take() {
        let layout = plan.io.recv_layout.expect("recv staging implies a layout");
        layout.unpack_bytes(&stage, recvbuf.expect("receive buffer present"));
        arena.release(stage);
    }
    if let Some(stage) = send_stage.take() {
        arena.release(stage);
    }
    for slot in &mut vals {
        if let Some(buf) = slot.take() {
            arena.release(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ThreadComm;
    use crate::plan::ir::{IoShape, ValId};
    use crate::plan::record::{assemble, PlanComm, EXEC_PASSES};
    use pip_runtime::{Cluster, Topology};

    /// Compile a two-rank exchange by recording it, then execute the plans
    /// on the thread runtime with real payloads.
    #[test]
    fn recorded_exchange_executes_with_real_bytes() {
        let topo = Topology::new(1, 2);
        let compile = |rank: usize| {
            let passes = (0..EXEC_PASSES as u32)
                .map(|pass| {
                    let comm = PlanComm::new(rank, topo, pass, crate::plan::ir::Fidelity::Exec);
                    let mut sendbuf = vec![0u8; 4];
                    comm.fill_sendbuf(&mut sendbuf);
                    let peer = 1 - rank;
                    comm.send(peer, 0, &sendbuf);
                    let got = comm.recv(peer, 0, 4);
                    comm.finish(Some(got))
                })
                .collect();
            assemble(
                rank,
                topo,
                crate::plan::ir::Fidelity::Exec,
                IoShape {
                    sendbuf: Some(4),
                    recvbuf: Some(4),
                    ..IoShape::default()
                },
                passes,
            )
        };
        let plans = [compile(0), compile(1)];
        let plans_ref = &plans;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = vec![10 + comm.rank() as u8; 4];
            let mut recvbuf = vec![0u8; 4];
            execute_rank_plan(
                &plans_ref[comm.rank()],
                &comm,
                PlanIo {
                    sendbuf: Some(&sendbuf),
                    recvbuf: Some(&mut recvbuf),
                },
                None,
                7 << 16,
            );
            recvbuf
        })
        .unwrap();
        assert_eq!(results[0], vec![11; 4]);
        assert_eq!(results[1], vec![10; 4]);
    }

    /// A reduce plan recorded through the opaque interception executes with
    /// a typed [`crate::datatype::ReduceKernel`] supplied at run time — the
    /// plan itself is operator-agnostic, so one recording serves every
    /// invocation with the same `(datatype, op)` key.
    #[test]
    fn recorded_reduce_plan_executes_with_a_typed_kernel() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(1, 2);
        let compile = |rank: usize| {
            let passes = (0..EXEC_PASSES as u32)
                .map(|pass| {
                    let comm = PlanComm::new(rank, topo, pass, crate::plan::ir::Fidelity::Exec);
                    let mut buf = vec![0u8; 8];
                    comm.fill_sendbuf(&mut buf);
                    let peer = 1 - rank;
                    comm.send(peer, 0, &buf);
                    let incoming = comm.recv(peer, 0, 8);
                    let op = comm.reducer();
                    op(&mut buf, &incoming);
                    drop(op);
                    comm.charge_reduce(8);
                    comm.finish(Some(buf))
                })
                .collect();
            assemble(
                rank,
                topo,
                crate::plan::ir::Fidelity::Exec,
                IoShape {
                    sendbuf: None,
                    recvbuf: Some(8),
                    inout: true,
                    needs_reduce_op: true,
                    ..IoShape::default()
                },
                passes,
            )
        };
        let plans = [compile(0), compile(1)];
        let plans_ref = &plans;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let input: [i32; 2] = [comm.rank() as i32 + 1, -(comm.rank() as i32) - 10];
            let mut buf = to_bytes(&input);
            let kernel = ReduceKernel::of::<i32>(ReduceOp::Sum);
            execute_rank_plan(
                &plans_ref[comm.rank()],
                &comm,
                PlanIo {
                    sendbuf: None,
                    recvbuf: Some(&mut buf),
                },
                Some(kernel.as_fn()),
                9 << 16,
            );
            from_bytes::<i32>(&buf)
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
        let compile = |rank: usize| {
            let passes = (0..EXEC_PASSES as u32)
                .map(|pass| {
                    let comm = PlanComm::new(rank, topo, pass, crate::plan::ir::Fidelity::Exec);
                    let mut sendbuf = vec![0u8; 2];
                    comm.fill_sendbuf(&mut sendbuf);
                    if rank == 0 {
                        comm.shared_alloc("stage_0", 4);
                    }
                    comm.node_barrier();
                    comm.shared_write(0, "stage_0", rank * 2, &sendbuf);
                    comm.node_barrier();
                    let all = comm.shared_read(0, "stage_0", 0, 4);
                    comm.finish(Some(all))
                })
                .collect();
            assemble(
                rank,
                topo,
                crate::plan::ir::Fidelity::Exec,
                IoShape {
                    sendbuf: Some(2),
                    recvbuf: Some(4),
                    ..IoShape::default()
                },
                passes,
            )
        };
        let plans = [compile(0), compile(1)];
        let plans_ref = &plans;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut outputs = Vec::new();
            for call in 0..2u8 {
                let sendbuf = vec![(1 + call) * (10 + comm.rank() as u8); 2];
                let mut recvbuf = vec![0u8; 4];
                execute_rank_plan(
                    &plans_ref[comm.rank()],
                    &comm,
                    PlanIo {
                        sendbuf: Some(&sendbuf),
                        recvbuf: Some(&mut recvbuf),
                    },
                    None,
                    (call as u64 + 1) << 16,
                );
                outputs.push(recvbuf);
            }
            outputs
        })
        .unwrap();
        assert_eq!(results[0][0], vec![10, 10, 11, 11]);
        assert_eq!(results[0][1], vec![20, 20, 22, 22]);
    }

    /// Repeat executions of one plan with a long-lived arena stop touching
    /// the allocator: every buffer the second run needs was released by the
    /// first (value slots and output writes locally, sent payloads by the
    /// peer's symmetric receive).
    #[test]
    fn reused_arena_makes_repeat_executions_allocation_free() {
        let topo = Topology::new(1, 2);
        let compile = |rank: usize| {
            let passes = (0..EXEC_PASSES as u32)
                .map(|pass| {
                    let comm = PlanComm::new(rank, topo, pass, crate::plan::ir::Fidelity::Exec);
                    let mut sendbuf = vec![0u8; 8];
                    comm.fill_sendbuf(&mut sendbuf);
                    let peer = 1 - rank;
                    comm.send(peer, 0, &sendbuf);
                    let got = comm.recv(peer, 0, 8);
                    comm.finish(Some(got))
                })
                .collect();
            assemble(
                rank,
                topo,
                crate::plan::ir::Fidelity::Exec,
                IoShape {
                    sendbuf: Some(8),
                    recvbuf: Some(8),
                    ..IoShape::default()
                },
                passes,
            )
        };
        let plans = [compile(0), compile(1)];
        let plans_ref = &plans;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut arena = BufferArena::new();
            let mut misses_after = Vec::new();
            for call in 0..4u64 {
                let sendbuf = vec![call as u8 + 1; 8];
                let mut recvbuf = vec![0u8; 8];
                execute_rank_plan_reusing(
                    &plans_ref[comm.rank()],
                    &comm,
                    PlanIo {
                        sendbuf: Some(&sendbuf),
                        recvbuf: Some(&mut recvbuf),
                    },
                    None,
                    (call + 1) << 16,
                    &mut arena,
                );
                assert_eq!(recvbuf, vec![call as u8 + 1; 8]);
                misses_after.push(arena.stats().misses);
            }
            misses_after
        })
        .unwrap();
        for misses_after in &results {
            assert!(misses_after[0] > 0, "the first run must fill the pool");
            assert_eq!(
                misses_after[1..],
                [misses_after[0]; 3],
                "repeat runs must be served entirely from the arena"
            );
        }
    }

    #[test]
    #[should_panic(expected = "schedule-fidelity")]
    fn schedule_plans_refuse_execution() {
        let topo = Topology::new(1, 1);
        let comm = PlanComm::new(0, topo, 0, crate::plan::ir::Fidelity::Schedule);
        comm.node_barrier();
        let plan = assemble(
            0,
            topo,
            crate::plan::ir::Fidelity::Schedule,
            IoShape::default(),
            vec![comm.finish(None)],
        );
        let _ = ValId::default();
        // Any Comm works for the fidelity check; recording is the cheapest.
        let recorder = crate::comm::TraceComm::new(0, topo);
        execute_rank_plan(&plan, &recorder, PlanIo::default(), None, 1 << 16);
    }
}
