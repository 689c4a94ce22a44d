//! Compiling a collective algorithm to a [`RankPlan`] by *recording* it.
//!
//! [`PlanComm`] is the recording [`Comm`] implementation, beside the
//! executing `ThreadComm`: it runs the unmodified algorithm once per rank
//! without moving real data and writes the plan's ops as the algorithm
//! calls it, which execute later or lower to a simulator trace
//! ([`record_trace`] records and lowers an ad-hoc schedule in one call).
//!
//! **One op type.**  The recorder pushes [`PlanOp`]s in their final form:
//! region names are interned into the recording's name table on first use,
//! values are numbered densely from 0 and every payload is its [`Src`].
//! [`PlanComm::finish`] then derives the trailing [`PlanOp::CopyOut`]s from
//! the output buffer and validates the plan.
//!
//! **Provenance is carried, not inferred.**  Algorithms touch payload bytes
//! only through their communicator's buffers ([`crate::buf::Buf`]), and the
//! recorder's are [`SymBuf`]s: each knows, run by run, where its bytes came
//! from.  The caller's buffers start as one `SendBuf` or `RecvInit` run;
//! every receive, shared read or collect, and every reduction's result (the
//! recorder's own operator, [`PlanComm::reducer`]), is a fresh value's
//! `Val` run; a buffer the algorithm zero-fills itself is a zero run, which
//! the plan reads as [`SrcSeg::Lit`].  Slicing and copying move runs,
//! joining a run to the one before it when it continues it (the next bytes
//! of the same buffer, or more zeroes), so a payload's runs are the
//! segments of its source as they stand.  A buffer holds no payload bytes,
//! so an algorithm cannot branch on them: what one run records is the
//! schedule of every execution.
//!
//! **In place.**  A receive or shared read the algorithm lands in its own
//! buffer ([`Comm::recv_into`], [`Comm::shared_read_into`]) records the same
//! op and defines the same value as its `Vec` twin, so the plan does not
//! depend on which of the two the algorithm called.
//!
//! **Schedule fidelity** tracks no source: every run the recorder hands out
//! is opaque and absorbs zeroes and copies, so every buffer is one run and
//! every payload is [`Src::opaque`] of its length.  Either fidelity costs
//! one run of the algorithm, O(ops) plus the algorithm's own slicing and
//! copying, which moves runs, never bytes.

use std::sync::Mutex;

use pip_netsim::trace::Trace;
use pip_runtime::Topology;

use crate::buf::{Buf, Origin, Seg, SymBuf, SymVec};
use crate::comm::Comm;
use crate::plan::ir::{Fidelity, IoShape, NameId, Plan, PlanOp, RankPlan, Src, SrcSeg, ValId};

/// Why the recording's lock cannot be poisoned: nothing panics while it is
/// held, so a panic ends the recording before the lock is taken again.
const POISONED: &str = "no recording step panics while holding the lock";

/// What the recording has written so far.
#[derive(Debug, Default)]
struct Recording {
    /// The plan's ops.
    ops: Vec<PlanOp>,
    /// Region names, interned in first-use order.
    names: Vec<String>,
    /// Length of each value.
    val_lens: Vec<usize>,
}

impl Recording {
    /// The id of region `name`, interned on first use.
    fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.names.iter().position(|n| n == name) {
            return id as NameId;
        }
        self.names.push(name.to_owned());
        (self.names.len() - 1) as NameId
    }
}

/// The recording [`Comm`] implementation: one instance records one rank's
/// plan, which [`PlanComm::finish`] returns.
pub struct PlanComm {
    rank: usize,
    topology: Topology,
    fidelity: Fidelity,
    state: Mutex<Recording>,
}

impl PlanComm {
    /// Create a recorder for `rank` in `topology`.
    pub fn new(rank: usize, topology: Topology, fidelity: Fidelity) -> Self {
        Self {
            rank,
            topology,
            fidelity,
            state: Mutex::new(Recording::default()),
        }
    }

    /// `seg` as this recording tracks it: opaque under schedule fidelity.
    fn seed(&self, seg: Seg) -> Seg {
        match self.fidelity {
            Fidelity::Exec => seg,
            Fidelity::Schedule => Seg::new(Origin::Opaque, seg.len),
        }
    }

    /// A reduction operator that records [`PlanOp::Reduce`] and makes the
    /// accumulator a fresh value.  The compile driver passes this to the
    /// reduction kinds instead of the caller's real operator — typed or
    /// opaque — which is supplied again at execution time (e.g. as a
    /// [`crate::datatype::ReduceKernel`]).  The recorded plan is therefore
    /// operator-agnostic; the plan cache keys it by the reduction's
    /// `(datatype, op)` identity because the *schedule* (element-aligned
    /// chunk boundaries) depends on the element size.
    pub fn reducer(&self) -> impl Fn(&mut SymBuf, &SymBuf) + Sync + '_ {
        move |acc: &mut SymBuf, other: &SymBuf| {
            let (acc_src, other) = (self.src(acc), self.src(other));
            let seg = self.define_val(acc.len(), |_, dst| PlanOp::Reduce {
                dst,
                acc: acc_src,
                other,
            });
            acc.set(seg);
        }
    }

    /// End the recording: derive the trailing [`PlanOp::CopyOut`]s from
    /// `out`, the caller-visible output buffer as the algorithm left it
    /// (`None` when the rank has none, e.g. a non-root gather rank), and
    /// validate.  Exec fidelity writes one `CopyOut` per run of `out`,
    /// except a run that still holds the receive buffer's entry bytes at
    /// their own position (bytes the algorithm left untouched, or an in/out
    /// collective's input left in place); a schedule-fidelity plan writes no
    /// output.
    ///
    /// Panics if the plan fails validation.
    pub fn finish(self, io: IoShape, out: Option<&SymBuf>) -> RankPlan {
        let Recording {
            mut ops,
            names,
            mut val_lens,
        } = self.state.into_inner().expect(POISONED);
        if self.fidelity == Fidelity::Exec {
            for (offset, seg) in out.into_iter().flat_map(SymBuf::runs) {
                if !matches!(seg, SrcSeg::RecvInit { offset: from, .. } if from == offset) {
                    let src = Src { segs: vec![seg] };
                    ops.push(PlanOp::CopyOut { offset, src });
                }
            }
        }
        // Plans live in caches: keep none of the recording's growth slack.
        ops.shrink_to_fit();
        val_lens.shrink_to_fit();
        let needs_reduce_op = ops.iter().any(|op| matches!(op, PlanOp::Reduce { .. }));
        let rank = self.rank;
        let plan = RankPlan {
            rank,
            topology: self.topology,
            fidelity: self.fidelity,
            io: IoShape {
                needs_reduce_op,
                ..io
            },
            names,
            val_lens,
            ops,
        };
        plan.validate().unwrap_or_else(|e| {
            panic!("rank {rank}: compiled plan failed validation: {e}");
        });
        plan
    }

    /// The source to record for payload `data`: its runs under exec
    /// fidelity, opaque of its length under schedule fidelity.
    fn src(&self, data: &SymBuf) -> Src {
        match self.fidelity {
            Fidelity::Exec => data.src(),
            Fidelity::Schedule => Src::opaque(data.len()),
        }
    }

    /// Record the op `make_op` builds against the recording.
    fn push(&self, make_op: impl FnOnce(&mut Recording) -> PlanOp) {
        let mut state = self.state.lock().expect(POISONED);
        let op = make_op(&mut state);
        state.ops.push(op);
    }

    /// Record `op`, which defines a new value of `len` bytes, and return
    /// the run that holds it.
    fn define_val(&self, len: usize, make_op: impl FnOnce(&mut Recording, ValId) -> PlanOp) -> Seg {
        let mut state = self.state.lock().expect(POISONED);
        state.val_lens.push(len);
        let id = (state.val_lens.len() - 1) as ValId;
        let op = make_op(&mut state, id);
        state.ops.push(op);
        self.seed(Seg::new(Origin::Val(id), len))
    }

    /// Record a receive of `len` bytes; the run that holds them.
    fn recv_run(&self, source: usize, tag: u64, len: usize) -> Seg {
        self.define_val(len, |_, dst| PlanOp::Recv {
            source,
            tag,
            len,
            dst,
        })
    }

    /// Record a shared read of `len` bytes; the run that holds them.
    fn read_run(&self, owner_local: usize, name: &str, offset: usize, len: usize) -> Seg {
        self.define_val(len, |state, dst| PlanOp::SharedRead {
            owner_local,
            name: state.intern(name),
            offset,
            len,
            dst,
        })
    }
}

impl Comm for PlanComm {
    type Buf = SymBuf;

    fn rank(&self) -> usize {
        self.rank
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn send(&self, dest: usize, tag: u64, data: &SymBuf) {
        let src = self.src(data);
        self.push(|_| PlanOp::Send { dest, tag, src });
    }

    fn recv(&self, source: usize, tag: u64, len: usize) -> SymVec {
        SymBuf::of(self.recv_run(source, tag, len))
    }

    fn recv_into(&self, source: usize, tag: u64, out: &mut SymBuf) {
        out.set(self.recv_run(source, tag, out.len()));
    }

    fn shared_alloc(&self, name: &str, len: usize) {
        self.push(|state| PlanOp::SharedAlloc {
            name: state.intern(name),
            len,
        });
    }

    fn shared_publish(&self, name: &str, data: &SymBuf) {
        let src = self.src(data);
        self.push(|state| PlanOp::SharedPublish {
            name: state.intern(name),
            src,
        });
    }

    fn shared_collect(&self, name: &str, len: usize) -> SymVec {
        let seg = self.define_val(len, |state, dst| PlanOp::SharedCollect {
            name: state.intern(name),
            len,
            dst,
        });
        SymBuf::of(seg)
    }

    fn shared_write(&self, owner_local: usize, name: &str, offset: usize, data: &SymBuf) {
        let src = self.src(data);
        self.push(|state| PlanOp::SharedWrite {
            owner_local,
            name: state.intern(name),
            offset,
            src,
        });
    }

    fn shared_read(&self, owner_local: usize, name: &str, offset: usize, len: usize) -> SymVec {
        SymBuf::of(self.read_run(owner_local, name, offset, len))
    }

    fn shared_read_into(&self, owner_local: usize, name: &str, offset: usize, out: &mut SymBuf) {
        out.set(self.read_run(owner_local, name, offset, out.len()));
    }

    fn send_from_shared(
        &self,
        owner_local: usize,
        name: &str,
        offset: usize,
        len: usize,
        dest: usize,
        tag: u64,
    ) {
        self.push(|state| PlanOp::SendFromShared {
            owner_local,
            name: state.intern(name),
            offset,
            len,
            dest,
            tag,
        });
    }

    fn recv_into_shared(
        &self,
        owner_local: usize,
        name: &str,
        offset: usize,
        source: usize,
        tag: u64,
        len: usize,
    ) {
        self.push(|state| PlanOp::RecvIntoShared {
            owner_local,
            name: state.intern(name),
            offset,
            source,
            tag,
            len,
        });
    }

    fn node_barrier(&self) {
        self.push(|_| PlanOp::NodeBarrier);
    }

    fn charge_copy(&self, bytes: usize) {
        self.push(|_| PlanOp::ChargeCopy { bytes });
    }

    fn delay(&self, nanos: f64) {
        self.push(|_| PlanOp::Delay { nanos });
    }
}

/// Compile `rank`'s plan of `body`, which runs the algorithm once against
/// the recorder and the caller buffers `io` declares — the send buffer, then
/// the receive (or in/out) buffer, whose final runs are the plan's output.
pub fn compile(
    rank: usize,
    topology: Topology,
    fidelity: Fidelity,
    io: IoShape,
    body: impl FnOnce(&PlanComm, Option<&SymBuf>, Option<&mut SymBuf>),
) -> RankPlan {
    let comm = PlanComm::new(rank, topology, fidelity);
    let caller = |seg: Seg| SymBuf::of(comm.seed(seg));
    let send = io.sendbuf.map(|len| caller(Seg::new(Origin::SendBuf, len)));
    let mut recv = io
        .recvbuf
        .map(|len| caller(Seg::new(Origin::RecvInit, len)));
    body(&comm, send.as_deref(), recv.as_deref_mut());
    comm.finish(io, recv.as_deref())
}

/// Record a full-cluster trace of an ad-hoc schedule: run `per_rank` once per
/// rank against a schedule-fidelity [`PlanComm`] and lower the plans with tag
/// base 0, so the trace carries the literal tags the closure used.
///
/// The closure must run the *same* algorithm every rank would run; recording
/// is sequential and needs no threads because recorded receives never block.
pub fn record_trace(topology: Topology, per_rank: impl Fn(&PlanComm)) -> Trace {
    let ranks = (0..topology.world_size())
        .map(|rank| {
            let io = IoShape::default();
            compile(rank, topology, Fidelity::Schedule, io, |comm, _, _| {
                per_rank(comm)
            })
        })
        .collect();
    Plan::from_ranks(topology, ranks).to_trace(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_netsim::trace::TraceOp;
    use pip_transport::cost::IntranodeMechanism;
    use proptest::prelude::*;

    fn exchange_io() -> IoShape {
        IoShape {
            sendbuf: Some(4),
            recvbuf: Some(4),
            ..IoShape::default()
        }
    }

    /// Rank 0's exec plan of `body`, on the caller buffers `io` declares.
    fn exec(io: IoShape, body: impl FnOnce(&PlanComm, &SymBuf, &mut SymBuf)) -> RankPlan {
        compile(
            0,
            Topology::new(1, 2),
            Fidelity::Exec,
            io,
            |comm, send, recv| body(comm, send.unwrap(), recv.unwrap()),
        )
    }

    /// The source of the `index`-th op of `plan`, which reads one.
    fn src_of(plan: &RankPlan, index: usize) -> &[SrcSeg] {
        &plan.ops[index]
            .sources()
            .next()
            .expect("the op reads a source")
            .segs
    }

    #[test]
    fn plan_comm_records_a_simple_exchange() {
        let plan = exec(exchange_io(), |comm, send, recv| {
            comm.send(1, 0, send);
            let data = comm.recv(1, 1, 4);
            comm.node_barrier();
            recv.copy_from(0, &data);
        });
        assert_eq!(plan.ops.len(), 4);
        assert_eq!(src_of(&plan, 0), [SrcSeg::SendBuf { offset: 0, len: 4 }]);
        assert!(matches!(
            plan.ops[1],
            PlanOp::Recv {
                source: 1,
                tag: 1,
                len: 4,
                dst: 0
            }
        ));
        assert!(matches!(plan.ops[2], PlanOp::NodeBarrier));
        assert!(matches!(plan.ops[3], PlanOp::CopyOut { offset: 0, .. }));
        let val = SrcSeg::Val {
            id: 0,
            offset: 0,
            len: 4,
        };
        assert_eq!(src_of(&plan, 3), [val]);
    }

    /// Two adjacent slices of one buffer, sent together, are one segment.
    #[test]
    fn adjacent_slices_sent_together_are_one_segment() {
        let plan = exec(exchange_io(), |comm, send, _| {
            let mut payload = SymBuf::zeroed(4);
            payload.copy_from(0, &send.slice(0..1));
            payload.copy_from(1, &send.slice(1..4));
            comm.send(1, 0, &payload);
        });
        assert_eq!(src_of(&plan, 0), [SrcSeg::SendBuf { offset: 0, len: 4 }]);
    }

    /// A buffer of zeroes the algorithm made itself is a literal.
    #[test]
    fn zeroes_the_algorithm_made_are_a_literal() {
        let plan = exec(exchange_io(), |comm, _, _| {
            comm.send(1, 0, &SymBuf::zeroed(3));
        });
        assert_eq!(src_of(&plan, 0), [SrcSeg::Lit(vec![0; 3])]);
    }

    /// A reduction's result is a fresh value, whatever its operands were.
    #[test]
    fn a_reduction_result_is_a_fresh_value() {
        let plan = exec(exchange_io(), |comm, send, _| {
            let mut acc = send.to_owned();
            comm.reducer()(&mut acc, &comm.recv(1, 0, 4));
            comm.send(1, 1, &acc);
        });
        assert!(matches!(plan.ops[1], PlanOp::Reduce { dst: 1, .. }));
        let fresh = SrcSeg::Val {
            id: 1,
            offset: 0,
            len: 4,
        };
        assert_eq!(src_of(&plan, 2), [fresh]);
    }

    /// A receive landed in place defines the same value as its `Vec` twin.
    #[test]
    fn an_in_place_receive_defines_the_value_of_its_vec_twin() {
        let record = |in_place: bool| {
            exec(exchange_io(), move |comm, _, recv| {
                if in_place {
                    recv.with_mut(1..3, |out| comm.recv_into(1, 0, out));
                } else {
                    recv.copy_from(1, &comm.recv(1, 0, 2));
                }
            })
        };
        assert_eq!(record(true), record(false));
    }

    /// Successive bytes of different buffers are two segments, and zeroes
    /// after the send buffer's bytes a literal of their own.
    #[test]
    fn resolver_detects_literals_and_concatenations() {
        let plan = exec(exchange_io(), |comm, send, recv| {
            let mut payload = SymBuf::zeroed(6);
            payload.copy_from(0, &send.slice(2..4));
            payload.copy_from(2, &recv.slice(0..2));
            comm.send(1, 0, &payload);
        });
        assert_eq!(
            src_of(&plan, 0),
            [
                SrcSeg::SendBuf { offset: 2, len: 2 },
                SrcSeg::RecvInit { offset: 0, len: 2 },
                SrcSeg::Lit(vec![0; 2]),
            ]
        );
    }

    /// Bytes of a received value, sliced and sent on, name that value's
    /// range.
    #[test]
    fn resolver_round_trips_value_bytes() {
        let plan = exec(exchange_io(), |comm, _, _| {
            let data = comm.recv(1, 0, 16);
            comm.send(1, 1, &data.slice(4..12));
        });
        let bytes = SrcSeg::Val {
            id: 0,
            offset: 4,
            len: 8,
        };
        assert_eq!(src_of(&plan, 1), [bytes]);
    }

    /// Where each byte of a payload came from: `None` for a zero the
    /// algorithm wrote, else the buffer (0 send, 1 receive, 2.. values) and
    /// the offset in it.
    type ByteOrigin = Option<(usize, usize)>;

    /// The segments a payload of `origins` reads: maximal runs of
    /// successive bytes of one buffer, or of zeroes.
    fn segments(origins: &[ByteOrigin]) -> Vec<SrcSeg> {
        let mut segs: Vec<SrcSeg> = Vec::new();
        for (i, origin) in origins.iter().enumerate() {
            let continues = i > 0
                && match (origins[i - 1], *origin) {
                    (None, None) => true,
                    (Some((a, x)), Some((b, y))) => a == b && x + 1 == y,
                    _ => false,
                };
            if continues {
                match segs.last_mut().unwrap() {
                    SrcSeg::Lit(bytes) => bytes.push(0),
                    SrcSeg::SendBuf { len, .. }
                    | SrcSeg::RecvInit { len, .. }
                    | SrcSeg::Val { len, .. } => *len += 1,
                    SrcSeg::Opaque { .. } => unreachable!(),
                }
                continue;
            }
            segs.push(match *origin {
                None => SrcSeg::Lit(vec![0]),
                Some((0, offset)) => SrcSeg::SendBuf { offset, len: 1 },
                Some((1, offset)) => SrcSeg::RecvInit { offset, len: 1 },
                Some((buf, offset)) => SrcSeg::Val {
                    id: (buf - 2) as ValId,
                    offset,
                    len: 1,
                },
            });
        }
        segs
    }

    proptest! {
        /// A payload assembled by random copies of slices of the caller's
        /// buffers and received values into a zeroed buffer reads exactly
        /// the segments a byte-by-byte model of the copies gives.
        #[test]
        fn prop_concatenations_resolve_to_their_segments(
            len in 1usize..48,
            draws in collection::vec(any::<u64>(), 0..40),
        ) {
            let io = IoShape { sendbuf: Some(24), recvbuf: Some(24), ..IoShape::default() };
            let mut expected = Vec::new();
            let plan = exec(io, |comm, send, recv| {
                let vals: Vec<_> = (0..3).map(|tag| comm.recv(1, tag, 16)).collect();
                let mut payload = SymBuf::zeroed(len);
                let mut model: Vec<ByteOrigin> = vec![None; len];
                for draw in draws.chunks_exact(4) {
                    let buf = draw[0] as usize % 6;
                    let source: &SymBuf = match buf {
                        0 => send,
                        1 => recv,
                        2..=4 => &vals[buf - 2],
                        _ => &SymBuf::zeroed(16),
                    };
                    let start = draw[1] as usize % source.len();
                    let n = 1 + draw[2] as usize % (source.len() - start).min(len);
                    let at = draw[3] as usize % (len - n + 1);
                    payload.copy_from(at, &source.slice(start..start + n));
                    for i in 0..n {
                        model[at + i] = (buf < 5).then_some((buf, start + i));
                    }
                }
                comm.send(1, 9, &payload);
                expected = segments(&model);
            });
            prop_assert_eq!(src_of(&plan, 3), &expected[..]);
        }
    }

    #[test]
    fn schedule_fidelity_produces_opaque_payloads_in_one_pass() {
        let topo = Topology::new(1, 2);
        let io = IoShape::default();
        let plan = compile(0, topo, Fidelity::Schedule, io, |comm, _, _| {
            comm.send(1, 0, &SymBuf::zeroed(16));
            comm.recv(1, 0, 16);
        });
        assert!(matches!(
            &plan.ops[0],
            PlanOp::Send { src, .. } if src.is_opaque() && src.len() == 16
        ));
    }

    /// Under schedule fidelity the caller's buffers and the in-place reads
    /// are opaque, and each `_into` read records exactly what its `Vec` twin
    /// records.
    #[test]
    fn schedule_fidelity_in_place_reads_write_nothing_and_record_their_twins() {
        let topo = Topology::new(1, 2);
        let io = IoShape {
            sendbuf: Some(4),
            recvbuf: Some(24),
            ..IoShape::default()
        };
        let in_place = compile(0, topo, Fidelity::Schedule, io, |comm, send, recv| {
            let recv = recv.unwrap();
            recv.with_mut(0..16, |out| comm.recv_into(1, 3, out));
            recv.with_mut(16..24, |out| comm.shared_read_into(1, "x", 8, out));
            assert_eq!(*send.unwrap(), *SymBuf::of(Seg::new(Origin::Opaque, 4)));
            assert_eq!(*recv, *SymBuf::of(Seg::new(Origin::Opaque, 24)));
        });
        let twins = compile(0, topo, Fidelity::Schedule, io, |comm, _, _| {
            comm.recv(1, 3, 16);
            comm.shared_read(1, "x", 8, 8);
        });
        assert_eq!(
            in_place.ops,
            vec![
                PlanOp::Recv {
                    source: 1,
                    tag: 3,
                    len: 16,
                    dst: 0
                },
                PlanOp::SharedRead {
                    owner_local: 1,
                    name: 0,
                    offset: 8,
                    len: 8,
                    dst: 1
                },
            ]
        );
        assert_eq!(in_place.names, ["x"]);
        assert_eq!(in_place, twins);
    }

    /// Through the exec compile, landing a receive or a shared read in
    /// place gives the plan of receiving a `Vec` and copying it into the
    /// same slice.
    #[test]
    fn exec_in_place_reads_assemble_to_the_plan_of_read_and_copy() {
        let io = IoShape {
            sendbuf: Some(4),
            recvbuf: Some(16),
            ..IoShape::default()
        };
        let body = |in_place: bool| {
            move |comm: &PlanComm, send: &SymBuf, recv: &mut SymBuf| {
                comm.send(1, 0, send);
                if in_place {
                    recv.with_mut(2..10, |out| comm.recv_into(1, 1, out));
                    recv.with_mut(11..15, |out| comm.shared_read_into(1, "x", 4, out));
                } else {
                    recv.copy_from(2, &comm.recv(1, 1, 8));
                    recv.copy_from(11, &comm.shared_read(1, "x", 4, 4));
                }
                comm.send(1, 2, &recv.slice(0..12));
            }
        };
        let plan = exec(io, body(true));
        assert_eq!(plan, exec(io, body(false)));
        // The received bytes reach the outgoing payload and the output.
        let received = SrcSeg::Val {
            id: 0,
            offset: 0,
            len: 8,
        };
        assert_eq!(src_of(&plan, 3)[1], received);
        assert!(plan.ops.iter().any(|op| matches!(
            op,
            PlanOp::CopyOut { offset: 11, src } if src.segs == vec![SrcSeg::Val { id: 1, offset: 0, len: 4 }]
        )));
    }

    #[test]
    fn reducer_interception_tracks_reduced_data() {
        let io = IoShape {
            sendbuf: None,
            recvbuf: Some(8),
            inout: true,
            ..IoShape::default()
        };
        let plan = compile(
            0,
            Topology::new(1, 1),
            Fidelity::Exec,
            io,
            |comm, _, buf| {
                let buf = buf.unwrap();
                let other = comm.recv(0, 0, 8);
                comm.reducer()(buf, &other);
                comm.send(0, 1, buf);
            },
        );
        // Recv, Reduce, Send, CopyOut.
        assert_eq!(plan.ops.len(), 4);
        // The in/out buffer's input is the receive buffer's entry bytes.
        assert!(matches!(
            &plan.ops[1],
            PlanOp::Reduce { dst: 1, acc, .. }
                if acc.segs == vec![SrcSeg::RecvInit { offset: 0, len: 8 }]
        ));
        let reduced = SrcSeg::Val {
            id: 1,
            offset: 0,
            len: 8,
        };
        assert_eq!(src_of(&plan, 2), std::slice::from_ref(&reduced));
        assert!(matches!(plan.ops[3], PlanOp::CopyOut { offset: 0, .. }));
        assert_eq!(src_of(&plan, 3), [reduced]);
        assert!(plan.io.needs_reduce_op);
    }

    /// Every `Comm` method and the recorder's reduction operator reach the
    /// trace through the recorder and lowering: messages keep their peers,
    /// sizes and tags, shared reads and writes become transport-priced
    /// copies, `charge_copy` a PiP copy, a reduction a reduction over its
    /// second operand, and the free PiP operations (alloc, publish,
    /// collect) vanish.
    #[test]
    fn record_trace_lowers_every_comm_method() {
        let trace = record_trace(Topology::new(2, 2), |comm| {
            if comm.rank() != 1 {
                return;
            }
            comm.send(3, 7, &SymBuf::zeroed(32));
            assert_eq!(comm.recv(3, 8, 16).len(), 16);
            comm.shared_alloc("x", 64);
            comm.shared_publish("y", &SymBuf::zeroed(4));
            assert_eq!(comm.shared_collect("y", 4).len(), 4);
            comm.shared_write(0, "x", 0, &SymBuf::zeroed(8));
            assert_eq!(comm.shared_read(0, "x", 8, 12).len(), 12);
            comm.node_barrier();
            comm.charge_copy(40);
            comm.reducer()(&mut SymBuf::zeroed(64), &SymBuf::zeroed(64));
            comm.delay(123.0);
            comm.send_from_shared(0, "x", 0, 24, 2, 9);
            comm.recv_into_shared(0, "x", 24, 2, 10, 20);
        });
        assert_eq!(
            &trace.ranks[1].ops[..],
            &[
                TraceOp::Send {
                    dest: 3,
                    bytes: 32,
                    tag: 7
                },
                TraceOp::Recv {
                    source: 3,
                    bytes: 16,
                    tag: 8
                },
                TraceOp::CopyIntra {
                    bytes: 8,
                    mechanism: None,
                },
                TraceOp::CopyIntra {
                    bytes: 12,
                    mechanism: None,
                },
                TraceOp::LocalBarrier,
                TraceOp::CopyIntra {
                    bytes: 40,
                    mechanism: Some(IntranodeMechanism::Pip),
                },
                TraceOp::Reduce { bytes: 64 },
                TraceOp::Delay { nanos: 123.0 },
                TraceOp::Send {
                    dest: 2,
                    bytes: 24,
                    tag: 9
                },
                TraceOp::Recv {
                    source: 2,
                    bytes: 20,
                    tag: 10
                },
            ][..]
        );
        assert!(trace.ranks[0].ops.is_empty());
    }

    /// A reduction needs no cost hook: the `Reduce` the recorder's operator
    /// writes lowers to a trace reduction over its second operand's bytes,
    /// at its own position.
    #[test]
    fn record_trace_prices_a_reduction_where_it_is_recorded() {
        let trace = record_trace(Topology::new(1, 2), |comm| {
            if comm.rank() == 1 {
                comm.send(0, 0, &SymBuf::zeroed(24));
                comm.recv(0, 1, 24);
                return;
            }
            let mut acc = SymBuf::zeroed(24);
            let other = comm.recv(1, 0, 24);
            comm.reducer()(&mut acc, &other);
            comm.send(1, 1, &acc);
        });
        assert_eq!(
            &trace.ranks[0].ops[..],
            &[
                TraceOp::Recv {
                    source: 1,
                    bytes: 24,
                    tag: 0
                },
                TraceOp::Reduce { bytes: 24 },
                TraceOp::Send {
                    dest: 1,
                    bytes: 24,
                    tag: 1
                },
            ][..]
        );
    }

    #[test]
    fn record_trace_produces_one_entry_per_rank() {
        let topo = Topology::new(2, 2);
        let trace = record_trace(topo, |comm| {
            let next = (comm.rank() + 1) % comm.world_size();
            let prev = (comm.rank() + comm.world_size() - 1) % comm.world_size();
            comm.send(next, 0, &SymBuf::zeroed(8));
            comm.recv(prev, 0, 8);
        });
        assert_eq!(trace.ranks.len(), 4);
        assert!(trace.validate().is_ok());
        assert_eq!(trace.total_messages(), 4);
    }
}
