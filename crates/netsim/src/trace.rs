//! Communication traces: the per-rank operation sequences the simulator
//! replays.
//!
//! A trace is produced by recording a collective algorithm into a plan
//! (`pip_collectives::plan::PlanComm`) and lowering it
//! (`pip_collectives::plan::Plan::to_trace`), so it contains exactly the
//! sends, receives, intra-node copies, reductions and barriers the algorithm
//! would perform — with payload *sizes* but not payload bytes.

use std::sync::{Arc, OnceLock};

use pip_runtime::Topology;
use pip_transport::cost::{IntranodeMechanism, Nanos};

/// One operation executed by one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOp {
    /// Post a message of `bytes` bytes to `dest` with `tag`.  The sender is
    /// busy for its host overhead; delivery is asynchronous.
    Send { dest: usize, bytes: usize, tag: u64 },
    /// Wait for a message of `bytes` bytes from `source` with `tag`.
    Recv {
        source: usize,
        bytes: usize,
        tag: u64,
    },
    /// Move `bytes` bytes between two tasks of the same node through the
    /// intra-node mechanism configured in the simulation parameters (or an
    /// explicit override).
    CopyIntra {
        bytes: usize,
        /// Mechanism override; `None` uses the simulation's configured
        /// intra-node transport.
        mechanism: Option<IntranodeMechanism>,
    },
    /// Apply a reduction over `bytes` bytes of local data.
    Reduce { bytes: usize },
    /// One codec pass (compress or decompress) over `bytes` bytes of raw
    /// payload.  The error-bounded predictor codec is a single vectorized
    /// sweep — predict, quantize, pack (or the reverse) — with no
    /// reduction arithmetic, so it is priced at streaming-copy speed
    /// rather than [`TraceOp::Reduce`]'s arithmetic rate.
    Codec { bytes: usize },
    /// Generic local work of a fixed duration (software bookkeeping the
    /// algorithm performs, e.g. PiP-MPICH's size synchronization).
    Delay { nanos: Nanos },
    /// An **application compute interval**: work the caller performs between
    /// posting a non-blocking collective and completing it.  Costs the same
    /// as [`TraceOp::Delay`] on the executing rank's timeline but is
    /// accounted separately, so overlap studies can tell communication time
    /// from compute time — while a rank computes, messages already posted
    /// keep flowing through the NIC and the wire, which is exactly the
    /// communication/computation overlap the async-leader design exposes.
    Compute { nanos: Nanos },
    /// Node-wide barrier: all ranks of the executing rank's node must reach
    /// their matching barrier before any of them proceeds.
    LocalBarrier,
}

impl TraceOp {
    /// Bytes carried by this operation (0 for barriers and delays).
    pub fn bytes(&self) -> usize {
        match self {
            TraceOp::Send { bytes, .. }
            | TraceOp::Recv { bytes, .. }
            | TraceOp::CopyIntra { bytes, .. }
            | TraceOp::Reduce { bytes }
            | TraceOp::Codec { bytes } => *bytes,
            TraceOp::Delay { .. } | TraceOp::Compute { .. } | TraceOp::LocalBarrier => 0,
        }
    }

    /// The rank a send goes to or a receive comes from; `None` for every
    /// other op.
    pub fn peer(&self) -> Option<usize> {
        match *self {
            TraceOp::Send { dest, .. } => Some(dest),
            TraceOp::Recv { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Copy-on-write storage for one rank's operation list.
///
/// Whole classes of ranks can run one op vector: a program with no peer is
/// its own image under every node relabeling, so every rank of its class
/// runs it unchanged (every non-leader of a hierarchical collective, for
/// instance), and a 10^5-rank trace must not materialize 10^5 copies of it.
/// `Plan::to_trace` hands such ranks clones of one `OpVec`, which holds the
/// ops behind an [`Arc`]: cloning a shared vector is a reference-count bump,
/// and the first mutation of a shared vector transparently un-shares it
/// (`Arc::make_mut`), so the `Vec`-style mutating API (`push`, `insert`)
/// keeps working for trace-building callers.
#[derive(Debug, Clone)]
pub struct OpVec(Arc<Vec<TraceOp>>);

impl OpVec {
    /// An empty op list.  All empty `OpVec`s share one allocation, so
    /// `Trace::empty` at 10^6 ranks performs no per-rank op allocations.
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<Vec<TraceOp>>> = OnceLock::new();
        Self(EMPTY.get_or_init(|| Arc::new(Vec::new())).clone())
    }

    /// Append an op, un-sharing the storage first if it is aliased.
    pub fn push(&mut self, op: TraceOp) {
        Arc::make_mut(&mut self.0).push(op);
    }

    /// Insert an op at `index`, un-sharing the storage first if aliased.
    pub fn insert(&mut self, index: usize, op: TraceOp) {
        Arc::make_mut(&mut self.0).insert(index, op);
    }

    /// Whether `self` and `other` alias the same underlying allocation.
    pub fn shares_storage_with(&self, other: &OpVec) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for OpVec {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<TraceOp>> for OpVec {
    fn from(ops: Vec<TraceOp>) -> Self {
        Self(Arc::new(ops))
    }
}

impl std::ops::Deref for OpVec {
    type Target = [TraceOp];

    fn deref(&self) -> &[TraceOp] {
        &self.0
    }
}

impl PartialEq for OpVec {
    fn eq(&self, other: &Self) -> bool {
        // Aliased storage is equal without looking at the elements.
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl<'a> IntoIterator for &'a OpVec {
    type Item = &'a TraceOp;
    type IntoIter = std::slice::Iter<'a, TraceOp>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The ordered operations of one rank.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankTrace {
    /// Operations in program order.
    pub ops: OpVec,
}

impl RankTrace {
    /// Number of sends in the trace.
    pub fn send_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Send { .. }))
            .count()
    }

    /// Number of receives in the trace.
    pub fn recv_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Recv { .. }))
            .count()
    }

    /// Total bytes sent by this rank.
    pub fn bytes_sent(&self) -> usize {
        self.ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Send { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }
}

/// A whole-cluster trace: one [`RankTrace`] per rank plus the topology it was
/// recorded for.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The cluster the trace describes.
    pub topology: Topology,
    /// Per-rank operation lists, indexed by rank.
    pub ranks: Vec<RankTrace>,
}

/// Problems detected by [`Trace::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The number of rank traces does not match the topology's world size.
    WrongRankCount { expected: usize, actual: usize },
    /// A send or receive references a rank outside the world.
    RankOutOfRange { rank: usize, op_rank: usize },
    /// Sends and receives do not pair up: for some (source, dest, tag) the
    /// message counts differ.
    UnmatchedMessages {
        source: usize,
        dest: usize,
        tag: u64,
        sent: usize,
        received: usize,
    },
    /// Ranks of the same node disagree on how many barrier episodes they
    /// participate in.
    BarrierMismatch {
        node: usize,
        min_count: usize,
        max_count: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::WrongRankCount { expected, actual } => {
                write!(
                    f,
                    "trace has {actual} rank entries, topology expects {expected}"
                )
            }
            TraceError::RankOutOfRange { rank, op_rank } => {
                write!(f, "rank {rank} references out-of-range rank {op_rank}")
            }
            TraceError::UnmatchedMessages {
                source,
                dest,
                tag,
                sent,
                received,
            } => write!(
                f,
                "messages {source}->{dest} tag {tag}: {sent} sent but {received} received"
            ),
            TraceError::BarrierMismatch {
                node,
                min_count,
                max_count,
            } => write!(
                f,
                "node {node}: ranks disagree on barrier count ({min_count}..{max_count})"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Create an empty trace (no operations) for `topology`.
    pub fn empty(topology: Topology) -> Self {
        Self {
            topology,
            ranks: vec![RankTrace::default(); topology.world_size()],
        }
    }

    /// Append `op` to `rank`'s program.
    pub fn push(&mut self, rank: usize, op: TraceOp) {
        self.ranks[rank].ops.push(op);
    }

    /// Replace `rank`'s program wholesale.  Passing a clone of another rank's
    /// [`OpVec`] shares its storage instead of copying it.
    pub fn set_rank_ops(&mut self, rank: usize, ops: OpVec) {
        self.ranks[rank].ops = ops;
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> usize {
        self.ranks.iter().map(RankTrace::send_count).sum()
    }

    /// Messages whose source and destination live on different nodes.
    pub fn internode_messages(&self) -> usize {
        let mut count = 0;
        for (rank, trace) in self.ranks.iter().enumerate() {
            for op in &trace.ops {
                if let TraceOp::Send { dest, .. } = op {
                    if !self.topology.same_node(rank, *dest) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Check the structural invariants the simulator relies on: correct rank
    /// count, in-range peers, matched send/receive multisets, and consistent
    /// barrier counts within each node.
    pub fn validate(&self) -> Result<(), TraceError> {
        let world = self.topology.world_size();
        if self.ranks.len() != world {
            return Err(TraceError::WrongRankCount {
                expected: world,
                actual: self.ranks.len(),
            });
        }
        // Single pass over the ops: bounds-check peers, count sends per
        // destination and receives per receiver, and count barriers.
        let mut send_end = vec![0usize; world];
        let mut recv_counts = vec![0usize; world];
        let mut barrier_counts = vec![0usize; world];
        for (rank, trace) in self.ranks.iter().enumerate() {
            for op in &trace.ops {
                match *op {
                    TraceOp::Send { dest, .. } => {
                        if dest >= world {
                            return Err(TraceError::RankOutOfRange {
                                rank,
                                op_rank: dest,
                            });
                        }
                        send_end[dest] += 1;
                    }
                    TraceOp::Recv { source, .. } => {
                        if source >= world {
                            return Err(TraceError::RankOutOfRange {
                                rank,
                                op_rank: source,
                            });
                        }
                        recv_counts[rank] += 1;
                    }
                    TraceOp::LocalBarrier => barrier_counts[rank] += 1,
                    _ => {}
                }
            }
        }
        let programs = self.ranks.iter().map(|rt| &rt.ops);
        if let Some(u) = match_messages(programs, send_end, &recv_counts, |rank, dest| (dest, rank))
        {
            return Err(TraceError::UnmatchedMessages {
                source: u.source,
                dest: u.dest,
                tag: u.tag,
                sent: u.sent,
                received: u.received,
            });
        }
        for node in 0..self.topology.nodes() {
            let counts = self.topology.ranks_on_node(node).map(|r| barrier_counts[r]);
            let (min, max) = counts.fold((usize::MAX, 0), |(lo, hi), c| (lo.min(c), hi.max(c)));
            if min != usize::MAX && min != max {
                return Err(TraceError::BarrierMismatch {
                    node,
                    min_count: min,
                    max_count: max,
                });
            }
        }
        Ok(())
    }
}

/// A `(source, dest, tag)` message key whose send and receive counts
/// differ, with both counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Unmatched {
    pub source: usize,
    pub dest: usize,
    pub tag: u64,
    pub sent: usize,
    pub received: usize,
}

/// Check that every receiver's sends and receives are equal `(source, tag)`
/// multisets and return the smallest `(source, dest, tag)` key that is not.
///
/// `programs` are the sending programs in order, program `i` also being
/// receiver `i`'s; `route(i, dest)` names the receiver a send of program
/// `i` to `dest` is counted against and the source that receiver sees (the
/// identity `(dest, i)` for a whole trace).  The caller has range-checked
/// every peer and counted the sends per receiver (`send_end`) and the
/// receives per program (`recv_counts`).  Receives are already grouped by
/// receiver; sends are bucketed by receiver with a counting sort, so only
/// each receiver's two small buckets are ever sorted, and only when they
/// differ as they stand.
pub(crate) fn match_messages<'a>(
    programs: impl Iterator<Item = &'a OpVec>,
    mut send_end: Vec<usize>,
    recv_counts: &[usize],
    route: impl Fn(usize, usize) -> (usize, usize),
) -> Option<Unmatched> {
    // Exclusive prefix sums: `send_end[d]` becomes the start of bucket `d`,
    // and the scatter advances it to the bucket's end.
    let mut total = 0;
    for slot in &mut send_end {
        total += std::mem::replace(slot, total);
    }
    let mut sent = vec![(0usize, 0u64); total];
    let mut received = Vec::with_capacity(recv_counts.iter().sum());
    for (program, ops) in programs.enumerate() {
        for op in ops {
            match *op {
                TraceOp::Send { dest, tag, .. } => {
                    let (receiver, source) = route(program, dest);
                    sent[send_end[receiver]] = (source, tag);
                    send_end[receiver] += 1;
                }
                TraceOp::Recv { source, tag, .. } => received.push((source, tag)),
                _ => {}
            }
        }
    }
    let mut first: Option<Unmatched> = None;
    let (mut s0, mut r0) = (0, 0);
    for (dest, (&s1, &count)) in send_end.iter().zip(recv_counts).enumerate() {
        let r1 = r0 + count;
        let (sent, received) = (&mut sent[s0..s1], &mut received[r0..r1]);
        (s0, r0) = (s1, r1);
        if sent == received {
            continue;
        }
        sent.sort_unstable();
        received.sort_unstable();
        if let Some(((source, tag), s, r)) = first_unmatched(sent, received) {
            if first.is_none_or(|best| (source, dest, tag) < (best.source, best.dest, best.tag)) {
                first = Some(Unmatched {
                    source,
                    dest,
                    tag,
                    sent: s,
                    received: r,
                });
            }
        }
    }
    first
}

/// The smallest `(source, tag)` key whose counts differ between one
/// receiver's sorted send and receive buckets, with both counts.
fn first_unmatched(
    sent: &[(usize, u64)],
    received: &[(usize, u64)],
) -> Option<((usize, u64), usize, usize)> {
    let (mut i, mut j) = (0, 0);
    loop {
        let key = match (sent.get(i), received.get(j)) {
            (Some(&s), Some(&r)) => s.min(r),
            (Some(&s), None) => s,
            (None, Some(&r)) => r,
            (None, None) => return None,
        };
        let (s0, r0) = (i, j);
        while sent.get(i) == Some(&key) {
            i += 1;
        }
        while received.get(j) == Some(&key) {
            j += 1;
        }
        if i - s0 != j - r0 {
            return Some((key, i - s0, j - r0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_topology() -> Topology {
        Topology::new(2, 2)
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = Trace::empty(tiny_topology());
        assert!(trace.validate().is_ok());
        assert_eq!(trace.total_messages(), 0);
    }

    #[test]
    fn matched_send_recv_is_valid() {
        let mut trace = Trace::empty(tiny_topology());
        trace.push(
            0,
            TraceOp::Send {
                dest: 2,
                bytes: 64,
                tag: 1,
            },
        );
        trace.push(
            2,
            TraceOp::Recv {
                source: 0,
                bytes: 64,
                tag: 1,
            },
        );
        assert!(trace.validate().is_ok());
        assert_eq!(trace.total_messages(), 1);
        assert_eq!(trace.internode_messages(), 1);
    }

    #[test]
    fn unmatched_send_is_detected() {
        let mut trace = Trace::empty(tiny_topology());
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 8,
                tag: 0,
            },
        );
        let err = trace.validate().unwrap_err();
        assert!(matches!(
            err,
            TraceError::UnmatchedMessages {
                sent: 1,
                received: 0,
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_peer_is_detected() {
        let mut trace = Trace::empty(tiny_topology());
        trace.push(
            0,
            TraceOp::Send {
                dest: 9,
                bytes: 8,
                tag: 0,
            },
        );
        assert!(matches!(
            trace.validate().unwrap_err(),
            TraceError::RankOutOfRange { op_rank: 9, .. }
        ));
    }

    #[test]
    fn barrier_mismatch_is_detected() {
        let mut trace = Trace::empty(tiny_topology());
        trace.push(0, TraceOp::LocalBarrier);
        // Rank 1 (same node as 0) never reaches a barrier.
        let err = trace.validate().unwrap_err();
        assert!(matches!(err, TraceError::BarrierMismatch { node: 0, .. }));
    }

    #[test]
    fn wrong_rank_count_is_detected() {
        let mut trace = Trace::empty(tiny_topology());
        trace.ranks.pop();
        assert!(matches!(
            trace.validate().unwrap_err(),
            TraceError::WrongRankCount {
                expected: 4,
                actual: 3
            }
        ));
    }

    #[test]
    fn intra_node_messages_not_counted_as_internode() {
        let mut trace = Trace::empty(tiny_topology());
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 8,
                tag: 0,
            },
        );
        trace.push(
            1,
            TraceOp::Recv {
                source: 0,
                bytes: 8,
                tag: 0,
            },
        );
        assert_eq!(trace.internode_messages(), 0);
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn rank_trace_counters() {
        let mut rt = RankTrace::default();
        rt.ops.push(TraceOp::Send {
            dest: 1,
            bytes: 10,
            tag: 0,
        });
        rt.ops.push(TraceOp::Send {
            dest: 2,
            bytes: 20,
            tag: 0,
        });
        rt.ops.push(TraceOp::Recv {
            source: 1,
            bytes: 5,
            tag: 0,
        });
        rt.ops.push(TraceOp::LocalBarrier);
        assert_eq!(rt.send_count(), 2);
        assert_eq!(rt.recv_count(), 1);
        assert_eq!(rt.bytes_sent(), 30);
    }

    #[test]
    fn mutating_a_shared_op_vector_unshares_it() {
        let shared: OpVec = vec![TraceOp::Reduce { bytes: 8 }].into();
        let mut a = shared.clone();
        assert!(a.shares_storage_with(&shared));
        a.push(TraceOp::LocalBarrier);
        assert!(!a.shares_storage_with(&shared));
        assert_eq!(shared.len(), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_op_vectors_share_one_allocation() {
        let a = OpVec::new();
        let b = OpVec::default();
        assert!(a.shares_storage_with(&b));
        assert!(a.is_empty());
    }

    #[test]
    fn op_bytes_accessor() {
        assert_eq!(
            TraceOp::Send {
                dest: 0,
                bytes: 7,
                tag: 0
            }
            .bytes(),
            7
        );
        assert_eq!(TraceOp::LocalBarrier.bytes(), 0);
        assert_eq!(TraceOp::Delay { nanos: 5.0 }.bytes(), 0);
        assert_eq!(TraceOp::Reduce { bytes: 12 }.bytes(), 12);
    }
}
