//! Schedule symmetry: equivalence classes of ranks and the folded trace
//! representation the engine can replay one representative per class.
//!
//! Most collective schedules are *node-symmetric*: relabeling every rank by
//! a node permutation maps the schedule onto itself.  Two permutation groups
//! cover the algorithms in this repository:
//!
//! * **Rotation** — `(n, l) → ((n + d) mod N, l)`.  Ring-structured
//!   schedules (neighbor exchanges, ring allgather) close under rotations.
//! * **XOR** — `(n, l) → (n ⊕ d, l)` for power-of-two node counts.
//!   Recursive-doubling schedules close under XOR masks.
//!
//! Both groups act transitively on nodes and fix local ranks, so when a
//! trace is invariant the ranks sharing a local rank form one equivalence
//! class: they execute the same program modulo the relabeling, observe
//! mirror-image network contention, and finish at the same time.  The
//! folded replay in [`crate::engine`] — the full replay's event loop run
//! over node 0's ranks — exploits exactly this.
//!
//! Detection is *verified*, not assumed: [`FoldedTrace::detect`] checks
//! each candidate group against every rank's op list in one pass (O(total
//! ops) per group) and returns `None` — the caller falls back to full
//! replay — whenever the classes do not close.  Traces that never exist in
//! full are folded from node 0's programs with
//! [`FoldedTrace::from_representatives`], the caller vouching for the
//! symmetry (`pip-mpi-model`'s `compile_folded` probes a few nodes).
//!
//! One pass per group suffices because both groups act *regularly* on
//! nodes: exactly one element `g_n` carries node 0 to node `n` (rotation by
//! `n`, or XOR with `n`), namely [`FoldGroup::relabel_rank`] with
//! `delta = n`.  Invariance means `g(ops(r)) = ops(g(r))` for every element
//! `g` and rank `r`.
//!
//! * Taking `r = (0, l)` and `g = g_n`: rank `(n, l)` must run node 0's
//!   program of local rank `l` relabeled by `g_n`.
//! * Conversely, if every rank does, take any `g` and `r = (m, l)`:
//!   `g(ops(r)) = (g ∘ g_m)(ops(0, l))`, and `g ∘ g_m` carries node 0 to
//!   `g(m)`, so it *is* `g_{g(m)}` and the result is `ops(g(r))`.
//!
//! So comparing every node with node 0 proves invariance under the whole
//! group, where checking generators took one pass each (`log2 N` for XOR).
//!
//! The same regularity makes validation a node-0 question
//! ([`FoldedTrace::validate`]): node `n`'s messages are node 0's relabeled
//! by `g_n`, so the whole trace's sends and receives match exactly when
//! node 0's receives match the sends the group carries into node 0.  A
//! replay of a trace that folds checks that instead of every rank, and
//! [`FoldedTrace::from_representatives`] checks it on every folded trace it
//! builds.
//!
//! The node map is [`FoldGroup::relabel_rank`]; detection, expansion and
//! the plan-level comparisons in `pip-collectives` all relabel through it.

use pip_runtime::Topology;

use crate::perturb::Perturbation;
use crate::trace::{match_messages, OpVec, Trace, TraceOp};

/// The node-relabeling group under which a schedule is symmetric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldGroup {
    /// Node translation `(n, l) → ((n + d) mod N, l)`; closes ring-structured
    /// schedules.
    Rotation,
    /// Node XOR `(n, l) → (n ⊕ d, l)` (requires a power-of-two node count);
    /// closes recursive-doubling schedules.
    Xor,
}

impl FoldGroup {
    /// The node map: the image of `rank` under the group element that
    /// carries node 0 to node `delta`.  Local ranks are fixed.
    ///
    /// Ranks are node-major, so a rotation moves a rank by `delta` whole
    /// nodes modulo the world, and an XOR swaps its node term: one division
    /// either way, on the hot path of detection and lowering.
    #[inline]
    pub fn relabel_rank(self, rank: usize, topology: Topology, delta: usize) -> usize {
        debug_assert!(rank < topology.world_size());
        let ppn = topology.ppn();
        match self {
            FoldGroup::Rotation => (rank + delta * ppn) % topology.world_size(),
            FoldGroup::Xor => {
                let node = rank / ppn;
                rank - node * ppn + (node ^ delta) * ppn
            }
        }
    }

    /// Node `to` seen from node `from`: the `delta` of the element that
    /// carries `from` to `to` — `(to − from) mod N` for a rotation,
    /// `from ⊕ to` for XOR.  Relabeling both nodes by one element of the
    /// group leaves it unchanged.
    #[inline]
    pub(crate) fn delta(self, from: usize, to: usize, nodes: usize) -> usize {
        match self {
            FoldGroup::Rotation => (to + nodes - from) % nodes,
            FoldGroup::Xor => from ^ to,
        }
    }

    /// `op` with its peer, if it has one, carried by [`Self::relabel_rank`].
    #[inline]
    pub fn relabel_op(self, op: TraceOp, topology: Topology, delta: usize) -> TraceOp {
        match op {
            TraceOp::Send { dest, bytes, tag } => TraceOp::Send {
                dest: self.relabel_rank(dest, topology, delta),
                bytes,
                tag,
            },
            TraceOp::Recv { source, bytes, tag } => TraceOp::Recv {
                source: self.relabel_rank(source, topology, delta),
                bytes,
                tag,
            },
            other => other,
        }
    }
}

/// Problems detected when constructing a [`FoldedTrace`] directly from
/// representative programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldError {
    /// The representative list does not hold exactly one program per local
    /// rank.
    WrongClassCount { expected: usize, actual: usize },
    /// A representative references a peer outside the world.
    PeerOutOfRange { class: usize, peer: usize },
    /// The XOR group needs a power-of-two node count.
    NodesNotPowerOfTwo { nodes: usize },
    /// Representatives disagree on how many barrier episodes they run.
    BarrierMismatch { min_count: usize, max_count: usize },
    /// Node 0's rank `dest` receives a different number of messages from
    /// `source` with `tag` than the group carries into it: the smallest such
    /// `(source, dest, tag)` key, with both counts.
    UnmatchedMessages {
        source: usize,
        dest: usize,
        tag: u64,
        sent: usize,
        received: usize,
    },
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::WrongClassCount { expected, actual } => {
                write!(f, "expected {expected} class representatives, got {actual}")
            }
            FoldError::PeerOutOfRange { class, peer } => {
                write!(f, "class {class} references out-of-range peer {peer}")
            }
            FoldError::NodesNotPowerOfTwo { nodes } => {
                write!(
                    f,
                    "XOR folding needs a power-of-two node count, got {nodes}"
                )
            }
            FoldError::BarrierMismatch {
                min_count,
                max_count,
            } => write!(
                f,
                "representatives disagree on barrier count ({min_count}..{max_count})"
            ),
            FoldError::UnmatchedMessages {
                source,
                dest,
                tag,
                sent,
                received,
            } => write!(
                f,
                "messages {source}->{dest} tag {tag}: the group carries {sent} into node 0 \
                 but {received} are received"
            ),
        }
    }
}

impl std::error::Error for FoldError {}

/// A symmetry-folded trace: the programs of node 0's ranks (one
/// representative per equivalence class) plus the group that maps node 0
/// onto every other node.
#[derive(Debug, Clone)]
pub struct FoldedTrace {
    topology: Topology,
    group: FoldGroup,
    reps: Vec<OpVec>,
}

impl FoldedTrace {
    /// Try to fold `trace`: verify it is invariant under a transitive node
    /// group and extract node 0's programs as class representatives.
    ///
    /// Returns `None` when no candidate group closes — single-node
    /// topologies, rooted collectives, prefix scans, and mixed-group
    /// schedules (a ring phase composed with a recursive-doubling phase)
    /// all land here and must be replayed in full.
    ///
    /// Detection proves invariance, not validity, and runs on unvalidated
    /// traces: node 0's peers are range-checked before any is relabeled, so
    /// a node 0 naming a rank outside the world does not fold.  A trace that
    /// folds is valid exactly when [`FoldedTrace::validate`] passes.
    pub fn detect(trace: &Trace) -> Option<FoldedTrace> {
        let topology = trace.topology;
        let (nodes, world) = (topology.nodes(), topology.world_size());
        if nodes < 2 || trace.ranks.len() != world {
            return None;
        }
        let node0 = &trace.ranks[..topology.ppn()];
        if node0
            .iter()
            .flat_map(|rt| rt.ops.iter())
            .any(|op| op.peer().is_some_and(|peer| peer >= world))
        {
            return None;
        }
        let group = if is_invariant(trace, FoldGroup::Rotation) {
            FoldGroup::Rotation
        } else if nodes.is_power_of_two() && is_invariant(trace, FoldGroup::Xor) {
            FoldGroup::Xor
        } else {
            return None;
        };
        Some(FoldedTrace {
            topology,
            group,
            reps: node0.iter().map(|rt| rt.ops.clone()).collect(),
        })
    }

    /// [`FoldedTrace::detect`], additionally refusing to fold a perturbed
    /// run: per-link jitter and message drops both distinguish nodes and
    /// break the mirror-image contention argument, so only the identity
    /// perturbation may fold.
    pub fn detect_with(trace: &Trace, perturbation: Option<&Perturbation>) -> Option<FoldedTrace> {
        if perturbation.is_some_and(|p| !p.is_identity()) {
            return None;
        }
        Self::detect(trace)
    }

    /// Build a folded trace directly from per-class representative programs
    /// (node 0's ranks, one per local rank) without materializing — or even
    /// knowing — the other ranks' programs.  This is the entry point for
    /// projection sweeps at 10^5–10^6 ranks, where compiling every rank is
    /// itself infeasible; the caller asserts the symmetry (typically by
    /// probing a few remote nodes) instead of this constructor verifying it
    /// against a full trace.  The folded trace is validated through its
    /// classes ([`FoldedTrace::validate`]).
    pub fn from_representatives(
        topology: Topology,
        group: FoldGroup,
        reps: Vec<OpVec>,
    ) -> Result<FoldedTrace, FoldError> {
        if group == FoldGroup::Xor && !topology.nodes().is_power_of_two() {
            return Err(FoldError::NodesNotPowerOfTwo {
                nodes: topology.nodes(),
            });
        }
        if reps.len() != topology.ppn() {
            return Err(FoldError::WrongClassCount {
                expected: topology.ppn(),
                actual: reps.len(),
            });
        }
        let folded = FoldedTrace {
            topology,
            group,
            reps,
        };
        folded.validate()?;
        Ok(folded)
    }

    /// Check the trace this folds to through its classes: every peer is in
    /// range, the representatives agree on their barrier count, and each of
    /// node 0's ranks receives exactly the `(source, tag)` multiset the
    /// group carries into it.
    ///
    /// A representative's send to node `d` reaches node 0 from the class
    /// member the element `m` taking `d` to node 0 makes of it:
    /// `relabel_rank(local, m)`.  Every rank runs its representative
    /// relabeled and the group acts regularly on nodes, so each node's
    /// messages are node 0's relabeled: this passes exactly when
    /// [`Trace::validate`] passes on the expanded trace, at the cost of
    /// node 0's ops.
    pub fn validate(&self) -> Result<(), FoldError> {
        let (topology, group) = (self.topology, self.group);
        let (world, ppn) = (topology.world_size(), topology.ppn());
        // One pass range-checks peers, counts the sends into each of node
        // 0's ranks and each one's receives, and counts barriers.
        let mut send_end = vec![0usize; ppn];
        let mut recv_counts = vec![0usize; ppn];
        let mut barrier_counts = (usize::MAX, 0usize);
        for (class, ops) in self.reps.iter().enumerate() {
            let mut barriers = 0usize;
            for op in ops {
                if let Some(peer) = op.peer().filter(|&peer| peer >= world) {
                    return Err(FoldError::PeerOutOfRange { class, peer });
                }
                match *op {
                    TraceOp::Send { dest, .. } => send_end[topology.local_rank_of(dest)] += 1,
                    TraceOp::Recv { .. } => recv_counts[class] += 1,
                    TraceOp::LocalBarrier => barriers += 1,
                    _ => {}
                }
            }
            barrier_counts.0 = barrier_counts.0.min(barriers);
            barrier_counts.1 = barrier_counts.1.max(barriers);
        }
        if barrier_counts.0 != barrier_counts.1 {
            return Err(FoldError::BarrierMismatch {
                min_count: barrier_counts.0,
                max_count: barrier_counts.1,
            });
        }
        // A send to node `d` arrives at node 0 from the class member the
        // element taking `d` to node 0 makes of the sender.
        let route = |class: usize, dest: usize| {
            let m = group.delta(topology.node_of(dest), 0, topology.nodes());
            let source = group.relabel_rank(class, topology, m);
            (topology.local_rank_of(dest), source)
        };
        match match_messages(self.reps.iter(), send_end, &recv_counts, route) {
            Some(u) => Err(FoldError::UnmatchedMessages {
                source: u.source,
                dest: u.dest,
                tag: u.tag,
                sent: u.sent,
                received: u.received,
            }),
            None => Ok(()),
        }
    }

    /// The full topology this folded trace projects onto.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The group the schedule is symmetric under.
    pub fn group(&self) -> FoldGroup {
        self.group
    }

    /// The representative programs, one per local rank of node 0.
    pub fn representatives(&self) -> &[OpVec] {
        &self.reps
    }

    /// The rank equivalence classes: class `l` holds rank `(m, l)` of every
    /// node `m`.
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let ppn = self.topology.ppn();
        (0..ppn)
            .map(|l| {
                (0..self.topology.nodes())
                    .map(|m| self.topology.rank_of(m, l))
                    .collect()
            })
            .collect()
    }

    /// For an outgoing message from node 0 to `dest_node`, the node whose
    /// mirror-image message arrives at node 0 at the symmetric moment.
    pub fn mirror_source_node(&self, dest_node: usize) -> usize {
        let nodes = self.topology.nodes();
        match self.group {
            FoldGroup::Rotation => (nodes - dest_node) % nodes,
            FoldGroup::Xor => dest_node,
        }
    }

    /// Total events a full replay of the projected trace would process —
    /// the per-class op counts scaled by class size.  Used by throughput
    /// reporting.
    pub fn projected_events(&self) -> usize {
        self.reps.iter().map(|ops| ops.len()).sum::<usize>() * self.topology.nodes()
    }

    /// Materialize the full per-rank trace by relabeling every class
    /// representative onto every node.  Intended for tests and small
    /// topologies; at projection scale this is exactly the allocation the
    /// folded replay avoids.
    pub fn expand(&self) -> Trace {
        let mut trace = Trace::empty(self.topology);
        for node in 0..self.topology.nodes() {
            for (l, rep) in self.reps.iter().enumerate() {
                let rank = self.topology.rank_of(node, l);
                if node == 0 {
                    trace.set_rank_ops(rank, rep.clone());
                } else {
                    let ops: Vec<TraceOp> = rep
                        .iter()
                        .map(|op| self.group.relabel_op(*op, self.topology, node))
                        .collect();
                    trace.set_rank_ops(rank, ops.into());
                }
            }
        }
        trace
    }
}

/// Check that `trace` is invariant under `group`: every rank `(n, l)` runs
/// node 0's program of local rank `l` relabeled by the element that carries
/// node 0 to node `n` (see the module doc for why that suffices).
fn is_invariant(trace: &Trace, group: FoldGroup) -> bool {
    let topology = trace.topology;
    let reps = &trace.ranks[..topology.ppn()];
    (1..topology.nodes()).all(|node| {
        reps.iter().enumerate().all(|(local, rep)| {
            let image = &trace.ranks[topology.rank_of(node, local)].ops;
            // Compare op-for-op with an on-the-fly relabel: no allocation.
            rep.ops.len() == image.len()
                && rep
                    .ops
                    .iter()
                    .zip(image.iter())
                    .all(|(op, image_op)| group.relabel_op(*op, topology, node) == *image_op)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring over nodes at fixed local rank: rotation-symmetric.
    fn ring_trace(nodes: usize, ppn: usize) -> Trace {
        let topo = Topology::new(nodes, ppn);
        let mut trace = Trace::empty(topo);
        for rank in 0..topo.world_size() {
            let node = topo.node_of(rank);
            let local = topo.local_rank_of(rank);
            let next = topo.rank_of((node + 1) % nodes, local);
            let prev = topo.rank_of((node + nodes - 1) % nodes, local);
            trace.push(
                rank,
                TraceOp::Send {
                    dest: next,
                    bytes: 64,
                    tag: 3,
                },
            );
            trace.push(
                rank,
                TraceOp::Recv {
                    source: prev,
                    bytes: 64,
                    tag: 3,
                },
            );
        }
        trace
    }

    /// Same-local-rank recursive doubling over nodes: XOR-symmetric.
    fn doubling_trace(nodes: usize, ppn: usize) -> Trace {
        assert!(nodes.is_power_of_two());
        let topo = Topology::new(nodes, ppn);
        let mut trace = Trace::empty(topo);
        let mut mask = 1;
        while mask < nodes {
            for rank in 0..topo.world_size() {
                let node = topo.node_of(rank);
                let local = topo.local_rank_of(rank);
                let peer = topo.rank_of(node ^ mask, local);
                trace.push(
                    rank,
                    TraceOp::Send {
                        dest: peer,
                        bytes: 32,
                        tag: mask as u64,
                    },
                );
                trace.push(
                    rank,
                    TraceOp::Recv {
                        source: peer,
                        bytes: 32,
                        tag: mask as u64,
                    },
                );
            }
            mask <<= 1;
        }
        trace
    }

    #[test]
    fn ring_schedule_folds_under_rotation() {
        let trace = ring_trace(5, 3);
        let folded = FoldedTrace::detect(&trace).expect("ring should fold");
        assert_eq!(folded.group(), FoldGroup::Rotation);
        assert_eq!(folded.representatives().len(), 3);
        assert_eq!(folded.classes().len(), 3);
        assert_eq!(folded.classes()[1], vec![1, 4, 7, 10, 13]);
    }

    #[test]
    fn recursive_doubling_folds_under_xor() {
        let trace = doubling_trace(8, 2);
        let folded = FoldedTrace::detect(&trace).expect("doubling should fold");
        assert_eq!(folded.group(), FoldGroup::Xor);
    }

    #[test]
    fn rooted_schedule_does_not_fold() {
        let topo = Topology::new(3, 2);
        let mut trace = Trace::empty(topo);
        // Everyone sends to rank 0: node 0 is special, classes cannot close.
        for rank in 1..topo.world_size() {
            trace.push(
                rank,
                TraceOp::Send {
                    dest: 0,
                    bytes: 8,
                    tag: rank as u64,
                },
            );
            trace.push(
                0,
                TraceOp::Recv {
                    source: rank,
                    bytes: 8,
                    tag: rank as u64,
                },
            );
        }
        assert!(FoldedTrace::detect(&trace).is_none());
    }

    #[test]
    fn single_node_topologies_do_not_fold() {
        let trace = Trace::empty(Topology::new(1, 4));
        assert!(FoldedTrace::detect(&trace).is_none());
    }

    #[test]
    fn expand_round_trips_the_original_trace() {
        for trace in [ring_trace(4, 2), doubling_trace(4, 3)] {
            let folded = FoldedTrace::detect(&trace).unwrap();
            assert_eq!(folded.expand(), trace);
        }
    }

    #[test]
    fn mirror_source_node_inverts_the_group() {
        let folded = FoldedTrace::detect(&ring_trace(5, 1)).unwrap();
        // Outgoing to node 1 mirrors an arrival from node 4 under rotation.
        assert_eq!(folded.mirror_source_node(1), 4);
        let folded = FoldedTrace::detect(&doubling_trace(4, 1)).unwrap();
        // XOR is an involution: outgoing to d mirrors an arrival from d.
        assert_eq!(folded.mirror_source_node(3), 3);
    }

    #[test]
    fn relabel_rank_moves_the_node_and_keeps_the_local_rank() {
        let topology = Topology::new(8, 3);
        for group in [FoldGroup::Rotation, FoldGroup::Xor] {
            for rank in 0..topology.world_size() {
                for delta in 0..8 {
                    let node = topology.node_of(rank);
                    let mapped = match group {
                        FoldGroup::Rotation => (node + delta) % 8,
                        FoldGroup::Xor => node ^ delta,
                    };
                    assert_eq!(
                        group.relabel_rank(rank, topology, delta),
                        topology.rank_of(mapped, topology.local_rank_of(rank)),
                        "{group:?} rank {rank} delta {delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_is_invariant_under_the_group() {
        let topology = Topology::new(8, 1);
        for group in [FoldGroup::Rotation, FoldGroup::Xor] {
            for (from, to) in [(0, 3), (5, 2), (7, 7), (6, 1)] {
                let delta = group.delta(from, to, 8);
                assert_eq!(group.relabel_rank(from, topology, delta), to);
                for g in 0..8 {
                    let image = |n| group.relabel_rank(n, topology, g);
                    assert_eq!(group.delta(image(from), image(to), 8), delta);
                }
            }
        }
    }

    #[test]
    fn from_representatives_validates_structure() {
        let topo = Topology::new(4, 2);
        let reps: Vec<OpVec> = vec![Vec::new().into(); 2];
        assert!(FoldedTrace::from_representatives(topo, FoldGroup::Rotation, reps).is_ok());
        let reps: Vec<OpVec> = vec![Vec::new().into(); 3];
        assert!(matches!(
            FoldedTrace::from_representatives(topo, FoldGroup::Rotation, reps),
            Err(FoldError::WrongClassCount { expected: 2, .. })
        ));
        let bad: Vec<OpVec> = vec![
            vec![TraceOp::Send {
                dest: 99,
                bytes: 1,
                tag: 0,
            }]
            .into(),
            Vec::new().into(),
        ];
        assert!(matches!(
            FoldedTrace::from_representatives(topo, FoldGroup::Rotation, bad),
            Err(FoldError::PeerOutOfRange { peer: 99, .. })
        ));
        assert!(matches!(
            FoldedTrace::from_representatives(
                Topology::new(3, 1),
                FoldGroup::Xor,
                vec![Vec::new().into()]
            ),
            Err(FoldError::NodesNotPowerOfTwo { nodes: 3 })
        ));
    }
}
