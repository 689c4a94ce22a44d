//! The collective-schedule IR: a validated, per-rank program of
//! communication and data-movement operations with *symbolic* buffer
//! references.
//!
//! A [`Plan`] is what a collective algorithm compiles to: one [`RankPlan`]
//! per rank, each an ordered list of [`PlanOp`]s, with each distinct program
//! stored once (a node-symmetric plan keeps node 0's programs and relabels
//! the other ranks' from them).  Data-carrying operations
//! reference bytes through [`Src`] — a concatenation of ranges over the
//! caller's send buffer, the initial contents of the receive buffer, or
//! *values* (bytes that materialize during execution: received messages,
//! shared-memory reads, reduction results).  Because every reference is
//! symbolic, the same plan can be
//!
//! * **executed** on the PiP thread runtime's task context with fresh
//!   caller buffers ([`crate::plan::cursor::PlanCursor`]), or
//! * **lowered** straight to a `pip-netsim` [`Trace`] without running the
//!   algorithm again ([`Plan::to_trace`]).
//!
//! Plans are compiled at tag base 0; [`Plan::to_trace`] and the executor
//! rebase every tag by the invocation tag, and shared-region names are
//! namespaced per invocation so back-to-back executions of the same cached
//! plan never collide.

use std::borrow::Cow;

use pip_netsim::trace::{OpVec, RankTrace, Trace, TraceOp};
use pip_netsim::FoldGroup;
use pip_runtime::Topology;
use pip_transport::cost::IntranodeMechanism;

use crate::compress::Codec;

/// Index of a runtime value (received message, shared read, reduction
/// result) within a rank's plan.
pub type ValId = u32;

/// Index into [`RankPlan::names`].
pub type NameId = u32;

/// How many distinct peer-free programs [`Plan::to_trace`] interns; a
/// program beyond them keeps its own storage.
const INTERNED_PEER_FREE: usize = 8;

/// How much information a plan carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Full data provenance: every payload resolves to symbolic sources, so
    /// the plan can be executed and must reproduce the algorithm's output.
    Exec,
    /// Schedule only: payloads carry lengths but not provenance
    /// ([`SrcSeg::Opaque`]).  Enough for [`Plan::to_trace`]; refusing
    /// execution.
    Schedule,
}

/// One contiguous piece of a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SrcSeg {
    /// Bytes `offset..offset + len` of the caller's send buffer.
    SendBuf {
        /// Start within the send buffer.
        offset: usize,
        /// Length in bytes.
        len: usize,
    },
    /// Bytes of the caller's receive buffer *as it was on entry*.
    RecvInit {
        /// Start within the receive buffer.
        offset: usize,
        /// Length in bytes.
        len: usize,
    },
    /// Bytes `offset..offset + len` of runtime value `id`.
    Val {
        /// The value.
        id: ValId,
        /// Start within the value.
        offset: usize,
        /// Length in bytes.
        len: usize,
    },
    /// Bytes that are the same on every execution (the algorithm wrote
    /// constants, e.g. zero padding).
    Lit(Vec<u8>),
    /// Unknown provenance of a known length (schedule-fidelity plans only).
    Opaque {
        /// Length in bytes.
        len: usize,
    },
}

impl SrcSeg {
    /// Length of this segment in bytes.
    pub fn len(&self) -> usize {
        match self {
            SrcSeg::SendBuf { len, .. }
            | SrcSeg::RecvInit { len, .. }
            | SrcSeg::Val { len, .. }
            | SrcSeg::Opaque { len } => *len,
            SrcSeg::Lit(bytes) => bytes.len(),
        }
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A payload source: a concatenation of segments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Src {
    /// Segments in concatenation order.
    pub segs: Vec<SrcSeg>,
}

impl Src {
    /// A source with no bytes.
    pub fn empty() -> Self {
        Self::default()
    }

    /// An opaque source of `len` bytes (schedule fidelity).
    pub fn opaque(len: usize) -> Self {
        Self {
            segs: vec![SrcSeg::Opaque { len }],
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.segs.iter().map(SrcSeg::len).sum()
    }

    /// Whether the source carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any segment is [`SrcSeg::Opaque`].
    pub fn is_opaque(&self) -> bool {
        self.segs.iter().any(|s| matches!(s, SrcSeg::Opaque { .. }))
    }
}

/// One operation of a rank's compiled program.
///
/// The communication operations mirror the [`crate::comm::Comm`] surface
/// one-for-one (so lowering to a trace is mechanical); [`PlanOp::Reduce`]
/// and [`PlanOp::CopyOut`] are *data* operations the compiler derived from
/// the algorithm's private buffer manipulation — they move bytes at
/// execution time.  A reduction lowers to the trace's reduction cost; a
/// `CopyOut` is invisible to it, like the private copy it replaces.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Expose a shared region of `len` bytes owned by this rank.
    SharedAlloc {
        /// Region name.
        name: NameId,
        /// Region length.
        len: usize,
    },
    /// Expose a shared region and fill it from `src` (free under PiP).
    SharedPublish {
        /// Region name.
        name: NameId,
        /// Bytes to publish.
        src: Src,
    },
    /// Read back a whole region this rank owns into value `dst` (free).
    SharedCollect {
        /// Region name.
        name: NameId,
        /// Region length.
        len: usize,
        /// Value receiving the bytes.
        dst: ValId,
    },
    /// Store `src` into local rank `owner_local`'s region at `offset`.
    SharedWrite {
        /// Owner of the region within this node.
        owner_local: usize,
        /// Region name.
        name: NameId,
        /// Byte offset within the region.
        offset: usize,
        /// Bytes to store.
        src: Src,
    },
    /// Load `len` bytes from a peer's region into value `dst`.
    SharedRead {
        /// Owner of the region within this node.
        owner_local: usize,
        /// Region name.
        name: NameId,
        /// Byte offset within the region.
        offset: usize,
        /// Length in bytes.
        len: usize,
        /// Value receiving the bytes.
        dst: ValId,
    },
    /// Send `src` to `dest` with tag base + `tag`.
    Send {
        /// Destination rank.
        dest: usize,
        /// Tag offset from the invocation tag.
        tag: u64,
        /// The bytes sent.
        src: Src,
    },
    /// Receive `len` bytes from `source` into value `dst`.
    Recv {
        /// Source rank.
        source: usize,
        /// Tag offset from the invocation tag.
        tag: u64,
        /// Expected length.
        len: usize,
        /// Value receiving the bytes.
        dst: ValId,
    },
    /// Compress `src` under `codec` and send the frame to `dest` — the
    /// fused lossy twin of [`PlanOp::Send`], produced by the compression
    /// rewrite pass.  The live frame's length depends on the payload;
    /// lowered traces price the transfer at the deterministic
    /// `wire_bytes` both endpoints stamped from the calibration stream
    /// (see [`crate::compress::calibrated_wire_bytes`]), plus a
    /// [`TraceOp::Codec`] pass over the raw length for the codec's CPU
    /// cost — a single vectorized sweep priced at streaming-copy speed.
    Compress {
        /// Destination rank.
        dest: usize,
        /// Tag offset from the invocation tag.
        tag: u64,
        /// Uncompressed payload.
        src: Src,
        /// Error-bound codec applied to the payload.
        codec: Codec,
        /// Calibrated wire size the trace charges for this transfer.
        wire_bytes: usize,
    },
    /// Receive a compressed frame from `source` and decompress it into
    /// value `dst` of exactly `raw_len` bytes — the fused lossy twin of
    /// [`PlanOp::Recv`].  Both endpoints derive the same `wire_bytes`
    /// from `(raw_len, codec)`, so lowered traces keep matched
    /// send/receive byte counts.
    Decompress {
        /// Source rank.
        source: usize,
        /// Tag offset from the invocation tag.
        tag: u64,
        /// Uncompressed length the frame must decode to.
        raw_len: usize,
        /// Value receiving the decoded bytes.
        dst: ValId,
        /// Error-bound codec the sender applied.
        codec: Codec,
        /// Calibrated wire size the trace charges for this transfer.
        wire_bytes: usize,
    },
    /// Send straight out of a peer's shared region (zero-copy).
    SendFromShared {
        /// Owner of the region within this node.
        owner_local: usize,
        /// Region name.
        name: NameId,
        /// Byte offset within the region.
        offset: usize,
        /// Length in bytes.
        len: usize,
        /// Destination rank.
        dest: usize,
        /// Tag offset from the invocation tag.
        tag: u64,
    },
    /// Receive straight into a peer's shared region (zero-copy).
    RecvIntoShared {
        /// Owner of the region within this node.
        owner_local: usize,
        /// Region name.
        name: NameId,
        /// Byte offset within the region.
        offset: usize,
        /// Source rank.
        source: usize,
        /// Tag offset from the invocation tag.
        tag: u64,
        /// Length in bytes.
        len: usize,
    },
    /// Barrier across the tasks of this rank's node.
    NodeBarrier,
    /// Apply the caller's reduction operator: `dst = op(acc, other)`.
    ///
    /// Data operation that replaces the algorithm's private `op(...)` call,
    /// and the reduction's one cost record: it lowers to a trace reduction
    /// over `other`'s bytes, at its own position.
    Reduce {
        /// Value receiving the reduced bytes.
        dst: ValId,
        /// Accumulator input.
        acc: Src,
        /// Second operand.
        other: Src,
    },
    /// Write `src` into the caller's receive buffer at `offset`.
    ///
    /// Data operation — replaces the algorithm's private copies into the
    /// output buffer; does not lower to a trace op.
    CopyOut {
        /// Destination offset within the receive buffer.
        offset: usize,
        /// Bytes to write.
        src: Src,
    },
    /// Cost annotation: a private copy of `bytes` bytes.
    ChargeCopy {
        /// Bytes copied.
        bytes: usize,
    },
    /// Cost annotation: fixed software overhead.
    Delay {
        /// Duration in nanoseconds.
        nanos: f64,
    },
}

impl PlanOp {
    /// The sources the op reads, in field order (a reduction's accumulator
    /// first) — the one list of the ops that read a [`Src`].
    pub(crate) fn sources(&self) -> impl Iterator<Item = &Src> {
        let (first, second) = match self {
            PlanOp::SharedPublish { src, .. }
            | PlanOp::SharedWrite { src, .. }
            | PlanOp::Send { src, .. }
            | PlanOp::Compress { src, .. }
            | PlanOp::CopyOut { src, .. } => (Some(src), None),
            PlanOp::Reduce { acc, other, .. } => (Some(acc), Some(other)),
            PlanOp::SharedAlloc { .. }
            | PlanOp::SharedCollect { .. }
            | PlanOp::SharedRead { .. }
            | PlanOp::Recv { .. }
            | PlanOp::Decompress { .. }
            | PlanOp::SendFromShared { .. }
            | PlanOp::RecvIntoShared { .. }
            | PlanOp::NodeBarrier
            | PlanOp::ChargeCopy { .. }
            | PlanOp::Delay { .. } => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// Buffer shapes a plan expects from its caller.
///
/// `sendbuf`/`recvbuf` are always the **packed** lengths the plan's ops were
/// recorded against. When the receive layout is present, the *caller's*
/// buffer spans the layout extent instead; the executor packs it into
/// packed-length scratch before replay and unpacks afterwards, so the plan
/// body never sees a gap byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoShape {
    /// Required send-buffer length in packed bytes (`None`: no send buffer,
    /// e.g. a non-root scatter rank).
    pub sendbuf: Option<usize>,
    /// Required receive-buffer length in packed bytes (`None`: no receive
    /// buffer, e.g. a non-root gather rank).
    pub recvbuf: Option<usize>,
    /// The send and receive buffer are the *same* caller buffer (bcast,
    /// allreduce, scan, exscan): the plan has no send buffer and reads its input as
    /// [`SrcSeg::RecvInit`].  Entry points read the flag to know which
    /// buffer takes the caller's input.
    pub inout: bool,
    /// The plan contains [`PlanOp::Reduce`] and needs a reduction operator
    /// (set by [`crate::plan::PlanComm::finish`] from the ops).
    pub needs_reduce_op: bool,
    /// Strided layout of the caller's receive buffer, in **bytes**
    /// ([`crate::datatype::Layout::scaled`]). `None`: contiguous. For
    /// `inout` plans this is the layout of the single caller buffer.
    pub recv_layout: Option<crate::datatype::Layout>,
}

/// Problems detected by plan validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An op references a name index outside [`RankPlan::names`].
    BadName {
        /// Rank whose plan is invalid.
        rank: usize,
        /// Index of the offending op.
        op: usize,
    },
    /// An op references a value never defined, defined later, or out of
    /// range.
    UndefinedValue {
        /// Rank whose plan is invalid.
        rank: usize,
        /// Index of the offending op.
        op: usize,
        /// The value referenced.
        val: ValId,
    },
    /// An op defines a value an earlier op already defined.  Plans are
    /// single-assignment: the executor reads a value's bytes at any later
    /// point of the run (deferred output writes read them at the end).
    RedefinedValue {
        /// Rank whose plan is invalid.
        rank: usize,
        /// Index of the offending op.
        op: usize,
        /// The value defined twice.
        val: ValId,
    },
    /// A source range exceeds the referenced buffer or value.
    SrcOutOfBounds {
        /// Rank whose plan is invalid.
        rank: usize,
        /// Index of the offending op.
        op: usize,
    },
    /// A `CopyOut` writes outside the receive buffer, or the plan writes
    /// output without declaring a receive buffer.
    OutOfBoundsOutput {
        /// Rank whose plan is invalid.
        rank: usize,
        /// Index of the offending op.
        op: usize,
    },
    /// A shared-region access exceeds the region, or targets a region never
    /// allocated.
    BadRegionAccess {
        /// Rank whose plan is invalid.
        rank: usize,
        /// Index of the offending op.
        op: usize,
        /// Region name.
        name: String,
    },
    /// Two allocations of the same region disagree on length.
    RegionSizeConflict {
        /// Region name.
        name: String,
    },
    /// The lowered trace failed structural validation (unmatched messages,
    /// inconsistent barriers, bad peer ranks).
    InvalidSchedule(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadName { rank, op } => {
                write!(f, "rank {rank} op {op}: name index out of range")
            }
            PlanError::UndefinedValue { rank, op, val } => {
                write!(f, "rank {rank} op {op}: value {val} used before definition")
            }
            PlanError::RedefinedValue { rank, op, val } => {
                write!(f, "rank {rank} op {op}: value {val} defined twice")
            }
            PlanError::SrcOutOfBounds { rank, op } => {
                write!(f, "rank {rank} op {op}: source range out of bounds")
            }
            PlanError::OutOfBoundsOutput { rank, op } => {
                write!(f, "rank {rank} op {op}: output write out of bounds")
            }
            PlanError::BadRegionAccess { rank, op, name } => {
                write!(f, "rank {rank} op {op}: bad access to region {name:?}")
            }
            PlanError::RegionSizeConflict { name } => {
                write!(f, "region {name:?} allocated with conflicting lengths")
            }
            PlanError::InvalidSchedule(e) => write!(f, "invalid schedule: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The compiled program of one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPlan {
    /// The rank this plan was compiled for.
    pub rank: usize,
    /// The topology it was compiled for.
    pub topology: Topology,
    /// How much information the plan carries.
    pub fidelity: Fidelity,
    /// Buffer shapes expected from the caller.
    pub io: IoShape,
    /// Shared-region names, as recorded at the canonical tag base; the
    /// executor namespaces them per invocation.
    pub names: Vec<String>,
    /// Length of each runtime value, indexed by [`ValId`].
    pub val_lens: Vec<usize>,
    /// Operations in program order.
    pub ops: Vec<PlanOp>,
}

impl RankPlan {
    /// Validate the rank-local invariants: in-range names, values defined
    /// once and before use, in-bounds source ranges and output writes.
    pub fn validate(&self) -> Result<(), PlanError> {
        let rank = self.rank;
        let mut defined = vec![false; self.val_lens.len()];
        let check_name = |op: usize, name: NameId| -> Result<(), PlanError> {
            if (name as usize) < self.names.len() {
                Ok(())
            } else {
                Err(PlanError::BadName { rank, op })
            }
        };
        for (i, op) in self.ops.iter().enumerate() {
            let check_src = |src: &Src, defined: &[bool]| -> Result<(), PlanError> {
                for seg in &src.segs {
                    match *seg {
                        SrcSeg::SendBuf { offset, len } => {
                            let limit = self
                                .io
                                .sendbuf
                                .ok_or(PlanError::SrcOutOfBounds { rank, op: i })?;
                            if offset + len > limit {
                                return Err(PlanError::SrcOutOfBounds { rank, op: i });
                            }
                        }
                        SrcSeg::RecvInit { offset, len } => {
                            let limit = self
                                .io
                                .recvbuf
                                .ok_or(PlanError::SrcOutOfBounds { rank, op: i })?;
                            if offset + len > limit {
                                return Err(PlanError::SrcOutOfBounds { rank, op: i });
                            }
                        }
                        SrcSeg::Val { id, offset, len } => {
                            let id = id as usize;
                            if id >= defined.len() || !defined[id] {
                                return Err(PlanError::UndefinedValue {
                                    rank,
                                    op: i,
                                    val: id as ValId,
                                });
                            }
                            if offset + len > self.val_lens[id] {
                                return Err(PlanError::SrcOutOfBounds { rank, op: i });
                            }
                        }
                        SrcSeg::Lit(_) | SrcSeg::Opaque { .. } => {}
                    }
                }
                Ok(())
            };
            let define = |op_idx: usize, val: ValId, len: usize, defined: &mut Vec<bool>| {
                let idx = val as usize;
                if idx >= self.val_lens.len() || self.val_lens[idx] != len {
                    return Err(PlanError::UndefinedValue {
                        rank,
                        op: op_idx,
                        val,
                    });
                }
                if defined[idx] {
                    return Err(PlanError::RedefinedValue {
                        rank,
                        op: op_idx,
                        val,
                    });
                }
                defined[idx] = true;
                Ok(())
            };
            match op {
                PlanOp::SharedAlloc { name, .. } => check_name(i, *name)?,
                PlanOp::SharedPublish { name, src } => {
                    check_name(i, *name)?;
                    check_src(src, &defined)?;
                }
                PlanOp::SharedCollect { name, len, dst } => {
                    check_name(i, *name)?;
                    define(i, *dst, *len, &mut defined)?;
                }
                PlanOp::SharedWrite { name, src, .. } => {
                    check_name(i, *name)?;
                    check_src(src, &defined)?;
                }
                PlanOp::SharedRead { name, len, dst, .. } => {
                    check_name(i, *name)?;
                    define(i, *dst, *len, &mut defined)?;
                }
                PlanOp::Send { src, .. } => check_src(src, &defined)?,
                PlanOp::Recv { len, dst, .. } => define(i, *dst, *len, &mut defined)?,
                PlanOp::Compress { src, .. } => check_src(src, &defined)?,
                PlanOp::Decompress { raw_len, dst, .. } => define(i, *dst, *raw_len, &mut defined)?,
                PlanOp::SendFromShared { name, .. } | PlanOp::RecvIntoShared { name, .. } => {
                    check_name(i, *name)?
                }
                PlanOp::NodeBarrier => {}
                PlanOp::Reduce { dst, acc, other } => {
                    check_src(acc, &defined)?;
                    check_src(other, &defined)?;
                    define(i, *dst, acc.len(), &mut defined)?;
                }
                PlanOp::CopyOut { offset, src } => {
                    check_src(src, &defined)?;
                    let limit = self
                        .io
                        .recvbuf
                        .ok_or(PlanError::OutOfBoundsOutput { rank, op: i })?;
                    if offset + src.len() > limit {
                        return Err(PlanError::OutOfBoundsOutput { rank, op: i });
                    }
                }
                PlanOp::ChargeCopy { .. } | PlanOp::Delay { .. } => {}
            }
        }
        Ok(())
    }

    /// Lower this rank's program to the simulator's trace ops, with tags
    /// rebased by `tag`.
    pub fn to_trace_ops(&self, tag: u64) -> Vec<TraceOp> {
        let mut ops = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            match op {
                PlanOp::Send { dest, tag: t, src } => ops.push(TraceOp::Send {
                    dest: *dest,
                    bytes: src.len(),
                    tag: tag + t,
                }),
                PlanOp::Recv {
                    source,
                    tag: t,
                    len,
                    ..
                } => ops.push(TraceOp::Recv {
                    source: *source,
                    bytes: *len,
                    tag: tag + t,
                }),
                // A compressed transfer costs the codec pass (one
                // vectorized sweep of the raw bytes at streaming-copy
                // speed) plus the calibrated wire size on the network.
                PlanOp::Compress {
                    dest,
                    tag: t,
                    src,
                    wire_bytes,
                    ..
                } => {
                    ops.push(TraceOp::Codec { bytes: src.len() });
                    ops.push(TraceOp::Send {
                        dest: *dest,
                        bytes: *wire_bytes,
                        tag: tag + t,
                    });
                }
                PlanOp::Decompress {
                    source,
                    tag: t,
                    raw_len,
                    wire_bytes,
                    ..
                } => {
                    ops.push(TraceOp::Recv {
                        source: *source,
                        bytes: *wire_bytes,
                        tag: tag + t,
                    });
                    ops.push(TraceOp::Codec { bytes: *raw_len });
                }
                PlanOp::SendFromShared {
                    len, dest, tag: t, ..
                } => ops.push(TraceOp::Send {
                    dest: *dest,
                    bytes: *len,
                    tag: tag + t,
                }),
                PlanOp::RecvIntoShared {
                    source,
                    tag: t,
                    len,
                    ..
                } => ops.push(TraceOp::Recv {
                    source: *source,
                    bytes: *len,
                    tag: tag + t,
                }),
                PlanOp::SharedWrite { src, .. } => ops.push(TraceOp::CopyIntra {
                    bytes: src.len(),
                    mechanism: None,
                }),
                PlanOp::SharedRead { len, .. } => ops.push(TraceOp::CopyIntra {
                    bytes: *len,
                    mechanism: None,
                }),
                PlanOp::NodeBarrier => ops.push(TraceOp::LocalBarrier),
                PlanOp::ChargeCopy { bytes } => ops.push(TraceOp::CopyIntra {
                    bytes: *bytes,
                    mechanism: Some(IntranodeMechanism::Pip),
                }),
                PlanOp::Reduce { other, .. } => ops.push(TraceOp::Reduce { bytes: other.len() }),
                PlanOp::Delay { nanos } => ops.push(TraceOp::Delay { nanos: *nanos }),
                // Free under PiP (a peer addresses the buffer in place) or
                // pure data ops the trace never sees.
                PlanOp::SharedAlloc { .. }
                | PlanOp::SharedPublish { .. }
                | PlanOp::SharedCollect { .. }
                | PlanOp::CopyOut { .. } => {}
            }
        }
        ops
    }
}

/// A whole-cluster plan: every rank's program, each distinct program stored
/// once.
///
/// A node-symmetric plan stores node 0's `ppn` programs plus the node group
/// that carries them onto every other node: rank `(n, l)` runs node 0's
/// program of local rank `l` with its global-rank peers relabeled by the
/// group element carrying node 0 to node `n` ([`RankPlan::relabeled`]).  Any
/// other plan stores all `world` programs and no group.  The representation
/// cannot be seen from outside: [`Plan::rank`] materialises an instantiated
/// rank only when asked, and equality is rank by rank.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The topology the plan was compiled for.
    pub topology: Topology,
    /// The stored programs: node 0's, indexed by local rank, when `group`
    /// is set; every rank's, indexed by rank, otherwise.
    programs: Vec<RankPlan>,
    /// The node group instantiating every other node from node 0.
    group: Option<FoldGroup>,
}

impl Plan {
    /// A plan of one stored program per rank, indexed by rank.
    pub fn from_ranks(topology: Topology, ranks: Vec<RankPlan>) -> Self {
        assert_eq!(ranks.len(), topology.world_size(), "one program per rank");
        Self {
            topology,
            programs: ranks,
            group: None,
        }
    }

    /// A node-symmetric plan: node 0's programs `reps`, one per local rank,
    /// and the node group carrying them onto every other node.  The caller
    /// vouches for the symmetry at whole-program strength
    /// ([`crate::plan::ranks_equal_under`]); `pip-mpi-model`'s
    /// `compile_cluster` checks it on probe nodes.
    pub fn from_representatives(topology: Topology, group: FoldGroup, reps: Vec<RankPlan>) -> Self {
        assert_eq!(
            reps.len(),
            topology.ppn(),
            "one representative per local rank"
        );
        assert!(
            reps.iter()
                .enumerate()
                .all(|(local, rep)| rep.rank == local),
            "representatives are node 0's ranks in order"
        );
        assert!(
            group != FoldGroup::Xor || topology.nodes().is_power_of_two(),
            "the XOR group needs a power-of-two node count"
        );
        Self {
            topology,
            programs: reps,
            group: Some(group),
        }
    }

    /// The node group instantiating the plan from node 0's programs, or
    /// `None` when every rank's program is stored.
    pub fn group(&self) -> Option<FoldGroup> {
        self.group
    }

    /// The stored programs: node 0's when [`Plan::group`] is set, every
    /// rank's otherwise.
    pub fn programs(&self) -> &[RankPlan] {
        &self.programs
    }

    /// Index of the stored program rank `rank` runs, and the node delta its
    /// peers are relabeled by (0: the program is the rank's own).
    fn program_of(&self, rank: usize) -> (usize, usize) {
        assert!(
            rank < self.topology.world_size(),
            "rank {rank} out of range"
        );
        match self.group {
            Some(_) => (
                self.topology.local_rank_of(rank),
                self.topology.node_of(rank),
            ),
            None => (rank, 0),
        }
    }

    /// Rank `rank`'s program: borrowed when it is stored, relabeled from its
    /// node-0 representative otherwise.
    pub fn rank(&self, rank: usize) -> Cow<'_, RankPlan> {
        let (program, delta) = self.program_of(rank);
        let program = &self.programs[program];
        match self.group {
            Some(group) if delta != 0 => Cow::Owned(program.relabeled(group, delta, rank)),
            _ => Cow::Borrowed(program),
        }
    }

    /// Every rank's program in rank order (see [`Plan::rank`]).
    pub fn ranks(&self) -> impl ExactSizeIterator<Item = Cow<'_, RankPlan>> {
        (0..self.topology.world_size()).map(|rank| self.rank(rank))
    }

    /// Lower the whole plan to a validated-shape [`Trace`] with tags rebased
    /// by `tag` — the one way a simulator trace is made.
    ///
    /// Each stored program is lowered once, and ranks share storage by
    /// construction, never by comparing their programs:
    ///
    /// * a lowered program with a peer is moved into the rank that stores
    ///   it, and each rank relabeled from it (a plan with a
    ///   [`Plan::group`]) takes its own relabeled copy;
    /// * a peer-free program is its own image under every relabeling, so
    ///   every rank running it shares one [`OpVec`].  Equal peer-free
    ///   programs are interned in a short list, so every non-leader of a
    ///   hierarchical schedule shares one across local ranks, and across
    ///   the nodes of a plan that stores every rank.
    pub fn to_trace(&self, tag: u64) -> Trace {
        let mut peer_free: Vec<OpVec> = Vec::new();
        let lowered: Vec<(OpVec, bool)> = self
            .programs
            .iter()
            .map(|plan| {
                let ops = plan.to_trace_ops(tag);
                if ops.iter().any(|op| op.peer().is_some()) {
                    return (ops.into(), true);
                }
                if let Some(shared) = peer_free.iter().find(|shared| ***shared == ops[..]) {
                    return (shared.clone(), false);
                }
                let ops = OpVec::from(ops);
                if peer_free.len() < INTERNED_PEER_FREE {
                    peer_free.push(ops.clone());
                }
                (ops, false)
            })
            .collect();
        let ranks = (0..self.topology.world_size())
            .map(|rank| {
                let (program, delta) = self.program_of(rank);
                let (ops, has_peers) = &lowered[program];
                let ops = match self.group {
                    Some(group) if delta != 0 && *has_peers => ops
                        .iter()
                        .map(|op| group.relabel_op(*op, self.topology, delta))
                        .collect::<Vec<_>>()
                        .into(),
                    _ => ops.clone(),
                };
                RankTrace { ops }
            })
            .collect();
        Trace {
            topology: self.topology,
            ranks,
        }
    }

    /// Validate every rank's program plus the cross-rank invariants: matched
    /// send/receive multisets, consistent barrier counts, and in-bounds
    /// shared-region accesses against the regions the owning ranks allocate.
    ///
    /// [`RankPlan::validate`] reads no peer field, so a relabeled rank
    /// validates exactly as its representative: each stored program is
    /// checked once.
    pub fn validate(&self) -> Result<(), PlanError> {
        use std::collections::HashMap;
        for plan in &self.programs {
            plan.validate()?;
        }
        // Message matching and barrier consistency: reuse the trace
        // validator on the lowered schedule.
        self.to_trace(0)
            .validate()
            .map_err(|e| PlanError::InvalidSchedule(e.to_string()))?;
        // Region accesses name node-local owners, which relabeling fixes:
        // each rank is checked through its stored program.
        let stored = |rank: usize| &self.programs[self.program_of(rank).0];
        // Region registry: (node, owner_local, name) -> len.
        let mut regions: HashMap<(usize, usize, String), usize> = HashMap::new();
        for rank in 0..self.topology.world_size() {
            let plan = stored(rank);
            let node = self.topology.node_of(rank);
            let local = self.topology.local_rank_of(rank);
            for op in &plan.ops {
                let (name, len) = match op {
                    PlanOp::SharedAlloc { name, len } => (*name, *len),
                    PlanOp::SharedPublish { name, src } => (*name, src.len()),
                    _ => continue,
                };
                let name = plan.names[name as usize].clone();
                match regions.entry((node, local, name.clone())) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if *e.get() != len {
                            return Err(PlanError::RegionSizeConflict { name });
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(len);
                    }
                }
            }
        }
        let region_len = |node: usize, owner: usize, name: &str| -> Option<usize> {
            regions.get(&(node, owner, name.to_string())).copied()
        };
        for rank in 0..self.topology.world_size() {
            let plan = stored(rank);
            let node = self.topology.node_of(rank);
            for (i, op) in plan.ops.iter().enumerate() {
                let access = match op {
                    PlanOp::SharedWrite {
                        owner_local,
                        name,
                        offset,
                        src,
                    } => Some((*owner_local, *name, *offset, src.len())),
                    PlanOp::SharedRead {
                        owner_local,
                        name,
                        offset,
                        len,
                        ..
                    }
                    | PlanOp::SendFromShared {
                        owner_local,
                        name,
                        offset,
                        len,
                        ..
                    }
                    | PlanOp::RecvIntoShared {
                        owner_local,
                        name,
                        offset,
                        len,
                        ..
                    } => Some((*owner_local, *name, *offset, *len)),
                    PlanOp::SharedCollect { name, len, dst: _ } => {
                        Some((self.topology.local_rank_of(rank), *name, 0, *len))
                    }
                    _ => None,
                };
                if let Some((owner, name, offset, len)) = access {
                    let name = &plan.names[name as usize];
                    match region_len(node, owner, name) {
                        Some(region) if offset + len <= region => {}
                        _ => {
                            return Err(PlanError::BadRegionAccess {
                                rank,
                                op: i,
                                name: name.clone(),
                            })
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Rank-by-rank equality: two plans are equal when every rank runs the same
/// program, however each stores it.
impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        self.topology == other.topology
            && if self.group == other.group {
                // The same group derives equal ranks from equal programs.
                self.programs == other.programs
            } else {
                self.ranks().eq(other.ranks())
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_plan(rank: usize, topo: Topology) -> RankPlan {
        RankPlan {
            rank,
            topology: topo,
            fidelity: Fidelity::Exec,
            io: IoShape {
                sendbuf: Some(4),
                recvbuf: Some(8),
                ..IoShape::default()
            },
            names: vec!["r_0".to_string()],
            val_lens: vec![4],
            ops: Vec::new(),
        }
    }

    #[test]
    fn validate_accepts_define_before_use() {
        let topo = Topology::new(1, 2);
        let mut plan = leaf_plan(0, topo);
        plan.ops = vec![
            PlanOp::Recv {
                source: 1,
                tag: 0,
                len: 4,
                dst: 0,
            },
            PlanOp::CopyOut {
                offset: 4,
                src: Src {
                    segs: vec![SrcSeg::Val {
                        id: 0,
                        offset: 0,
                        len: 4,
                    }],
                },
            },
        ];
        plan.validate().unwrap();
    }

    #[test]
    fn validate_rejects_use_before_define() {
        let topo = Topology::new(1, 2);
        let mut plan = leaf_plan(0, topo);
        plan.ops = vec![PlanOp::Send {
            dest: 1,
            tag: 0,
            src: Src {
                segs: vec![SrcSeg::Val {
                    id: 0,
                    offset: 0,
                    len: 4,
                }],
            },
        }];
        assert!(matches!(
            plan.validate().unwrap_err(),
            PlanError::UndefinedValue { val: 0, .. }
        ));
    }

    #[test]
    fn validate_rejects_a_value_defined_twice() {
        let topo = Topology::new(1, 2);
        let mut plan = leaf_plan(0, topo);
        let recv = |tag| PlanOp::Recv {
            source: 1,
            tag,
            len: 4,
            dst: 0,
        };
        plan.ops = vec![recv(0), recv(1)];
        assert_eq!(
            plan.validate().unwrap_err(),
            PlanError::RedefinedValue {
                rank: 0,
                op: 1,
                val: 0
            }
        );
    }

    #[test]
    fn validate_rejects_out_of_bounds_copy_out() {
        let topo = Topology::new(1, 2);
        let mut plan = leaf_plan(0, topo);
        plan.ops = vec![PlanOp::CopyOut {
            offset: 6,
            src: Src {
                segs: vec![SrcSeg::SendBuf { offset: 0, len: 4 }],
            },
        }];
        assert!(matches!(
            plan.validate().unwrap_err(),
            PlanError::OutOfBoundsOutput { .. }
        ));
    }

    #[test]
    fn validate_rejects_oversized_sendbuf_range() {
        let topo = Topology::new(1, 2);
        let mut plan = leaf_plan(0, topo);
        plan.ops = vec![PlanOp::Send {
            dest: 1,
            tag: 0,
            src: Src {
                segs: vec![SrcSeg::SendBuf { offset: 2, len: 4 }],
            },
        }];
        assert!(matches!(
            plan.validate().unwrap_err(),
            PlanError::SrcOutOfBounds { .. }
        ));
    }

    /// An in/out plan has no send buffer: its input is `RecvInit`, so a
    /// `SendBuf` read is out of bounds however long the receive buffer is.
    #[test]
    fn validate_rejects_a_sendbuf_read_in_an_in_out_plan() {
        let topo = Topology::new(1, 2);
        let mut plan = leaf_plan(0, topo);
        plan.io = IoShape {
            recvbuf: Some(8),
            inout: true,
            ..IoShape::default()
        };
        plan.ops = vec![PlanOp::Send {
            dest: 1,
            tag: 0,
            src: Src {
                segs: vec![SrcSeg::SendBuf { offset: 0, len: 4 }],
            },
        }];
        assert_eq!(
            plan.validate().unwrap_err(),
            PlanError::SrcOutOfBounds { rank: 0, op: 0 }
        );
    }

    #[test]
    fn plan_validate_rejects_unmatched_messages() {
        let topo = Topology::new(1, 2);
        let mut a = leaf_plan(0, topo);
        a.ops = vec![PlanOp::Send {
            dest: 1,
            tag: 0,
            src: Src {
                segs: vec![SrcSeg::SendBuf { offset: 0, len: 4 }],
            },
        }];
        let b = leaf_plan(1, topo);
        let plan = Plan::from_ranks(topo, vec![a, b]);
        assert!(matches!(
            plan.validate().unwrap_err(),
            PlanError::InvalidSchedule(_)
        ));
    }

    #[test]
    fn plan_validate_rejects_region_overflow() {
        let topo = Topology::new(1, 2);
        let mut a = leaf_plan(0, topo);
        a.ops = vec![PlanOp::SharedAlloc { name: 0, len: 4 }];
        let mut b = leaf_plan(1, topo);
        b.ops = vec![PlanOp::SharedWrite {
            owner_local: 0,
            name: 0,
            offset: 2,
            src: Src {
                segs: vec![SrcSeg::SendBuf { offset: 0, len: 4 }],
            },
        }];
        let plan = Plan::from_ranks(topo, vec![a, b]);
        assert!(matches!(
            plan.validate().unwrap_err(),
            PlanError::BadRegionAccess { rank: 1, .. }
        ));
    }

    #[test]
    fn lowering_rebases_tags_and_skips_data_ops() {
        let topo = Topology::new(1, 2);
        let mut a = leaf_plan(0, topo);
        a.val_lens = vec![4, 4];
        a.io.needs_reduce_op = true;
        a.ops = vec![
            PlanOp::Recv {
                source: 1,
                tag: 3,
                len: 4,
                dst: 0,
            },
            PlanOp::Reduce {
                dst: 1,
                acc: Src {
                    segs: vec![SrcSeg::SendBuf { offset: 0, len: 4 }],
                },
                other: Src {
                    segs: vec![SrcSeg::Val {
                        id: 0,
                        offset: 0,
                        len: 4,
                    }],
                },
            },
            PlanOp::CopyOut {
                offset: 0,
                src: Src {
                    segs: vec![SrcSeg::Val {
                        id: 1,
                        offset: 0,
                        len: 4,
                    }],
                },
            },
        ];
        let ops = a.to_trace_ops(100);
        assert_eq!(ops.len(), 2);
        assert!(matches!(
            ops[0],
            TraceOp::Recv {
                source: 1,
                bytes: 4,
                tag: 103
            }
        ));
        assert!(matches!(ops[1], TraceOp::Reduce { bytes: 4 }));
    }

    /// Node `n`'s leader sends to node `n + 1`'s and receives from node
    /// `n − 1`'s; every other rank only copies and meets the barrier.
    fn leader_ring_rank(rank: usize, topo: Topology) -> RankPlan {
        let (nodes, node) = (topo.nodes(), topo.node_of(rank));
        let mut plan = leaf_plan(rank, topo);
        plan.fidelity = Fidelity::Schedule;
        plan.ops = if topo.is_node_root(rank) {
            vec![
                PlanOp::Send {
                    dest: topo.rank_of((node + 1) % nodes, 0),
                    tag: 0,
                    src: Src::opaque(4),
                },
                PlanOp::Recv {
                    source: topo.rank_of((node + nodes - 1) % nodes, 0),
                    tag: 0,
                    len: 4,
                    dst: 0,
                },
                PlanOp::NodeBarrier,
            ]
        } else {
            vec![PlanOp::ChargeCopy { bytes: 4 }, PlanOp::NodeBarrier]
        };
        plan
    }

    #[test]
    fn lowering_shares_peer_free_programs_by_construction() {
        let topo = Topology::new(4, 3);
        let ranks: Vec<RankPlan> = (0..topo.world_size())
            .map(|rank| leader_ring_rank(rank, topo))
            .collect();
        let reps = ranks[..topo.ppn()].to_vec();
        for plan in [
            Plan::from_ranks(topo, ranks.clone()),
            Plan::from_representatives(topo, FoldGroup::Rotation, reps),
        ] {
            let trace = plan.to_trace(0);
            // Every rank lowers as its own program does.
            for (rank, rank_plan) in ranks.iter().enumerate() {
                assert_eq!(*trace.ranks[rank].ops, rank_plan.to_trace_ops(0)[..]);
            }
            let shares =
                |a: usize, b: usize| trace.ranks[a].ops.shares_storage_with(&trace.ranks[b].ops);
            // The peer-free programs of both non-leader classes share one
            // vector across every node; each leader keeps its own.
            let followers = (0..topo.world_size()).filter(|&rank| !topo.is_node_root(rank));
            assert!(followers.into_iter().all(|rank| shares(1, rank)));
            assert!(![(0, 3), (3, 6), (6, 9), (0, 1)]
                .into_iter()
                .any(|(a, b)| shares(a, b)));
        }
    }
}
