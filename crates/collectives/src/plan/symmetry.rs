//! Plan-level symmetry: equivalence classes of ranks in a compiled plan.
//!
//! [`crate::plan::ir::Plan`] lowers to a `pip-netsim` trace, and the trace
//! layer already detects node symmetry ([`pip_netsim::FoldedTrace`]).  Doing
//! the analysis *before* lowering has two advantages:
//!
//! * Symmetry can be established — and, for probing callers, *sampled* —
//!   per compiled rank without materializing the world's trace, and a
//!   stronger whole-program comparison is available when a caller wants to
//!   share one compiled program between ranks.
//! * The classes let a caller compile one representative per class instead
//!   of the whole world.  `pip-mpi-model`'s class compiler uses exactly
//!   this, both to reach 10^5–10^6-rank projections without an O(world)
//!   compile and to *instantiate* a whole-cluster plan's remaining ranks
//!   from node 0's ([`RankPlan::relabeled`]).
//!
//! The candidate groups mirror the trace layer: node **rotation**
//! `(n, l) → ((n + d) mod N, l)` for ring-structured schedules and node
//! **XOR** `(n, l) → (n ⊕ d, l)` for recursive-doubling schedules.  Both
//! fix local ranks, so when a group closes the classes are "same local
//! rank, any node".
//!
//! Two comparison strengths are exposed, because a plan op carries fields a
//! trace op does not:
//!
//! * [`schedules_equal_under`] compares the **schedule projection** — the
//!   trace-relevant content of each op, with peers relabeled.  Data-op
//!   details that never reach the simulator (`CopyOut` offsets, value
//!   identities, payload provenance) are ignored; an allgather whose ranks
//!   write their blocks at rank-dependent output offsets still folds.
//!   This is the notion [`PlanSymmetry::analyze`] and [`folded_trace`] use.
//! * [`ranks_equal_under`] compares the **whole program** under the
//!   relabeling, data ops included — the strictly stronger statement a
//!   caller needs to instantiate one rank's plan from another's, and the
//!   exact inverse of [`RankPlan::relabeled`].
//!
//! When neither group closes, [`PlanSymmetry::analyze`] falls back to
//! partitioning ranks by *identical programs* — no relabeling, so peers
//! must literally match, which only same-program no-communication ranks
//! satisfy across nodes — but the partition is still exact.

use pip_netsim::trace::TraceOp;
use pip_netsim::{FoldGroup, FoldedTrace};
use pip_runtime::Topology;
use pip_transport::cost::IntranodeMechanism;

use super::ir::{Plan, PlanOp, RankPlan};

/// The node-symmetry structure of a compiled [`Plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSymmetry {
    group: Option<FoldGroup>,
    classes: Vec<Vec<usize>>,
}

impl PlanSymmetry {
    /// Partition `plan`'s ranks into equivalence classes.
    ///
    /// Tries the rotation generator first (one generator proves closure of
    /// the cyclic group), then every XOR bit mask for power-of-two node
    /// counts.  Verification is exact at the schedule projection — every
    /// trace-relevant op of every rank is compared against its image under
    /// the relabeling ([`schedules_equal_under`]) — and costs O(total ops)
    /// per generator.  When no group closes, ranks with bytewise-identical
    /// programs share a class.
    pub fn analyze(plan: &Plan) -> PlanSymmetry {
        let topology = plan.topology;
        let nodes = topology.nodes();
        if nodes >= 2 && plan.ranks.len() == topology.world_size() {
            let group = if generator_closes(plan, FoldGroup::Rotation, 1) {
                Some(FoldGroup::Rotation)
            } else if nodes.is_power_of_two()
                && (0..nodes.trailing_zeros())
                    .all(|bit| generator_closes(plan, FoldGroup::Xor, 1 << bit))
            {
                Some(FoldGroup::Xor)
            } else {
                None
            };
            if group.is_some() {
                // The group acts transitively on nodes and fixes local
                // ranks: class `l` is rank `(m, l)` of every node.
                let classes = (0..topology.ppn())
                    .map(|l| (0..nodes).map(|m| topology.rank_of(m, l)).collect())
                    .collect();
                return PlanSymmetry { group, classes };
            }
        }
        PlanSymmetry {
            group: None,
            classes: identical_program_classes(plan),
        }
    }

    /// The group the plan closed under, if any.
    pub fn group(&self) -> Option<FoldGroup> {
        self.group
    }

    /// The rank equivalence classes, each sorted ascending; their union is
    /// the whole world.
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Number of equivalence classes (the number of distinct programs a
    /// folded replay must process).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Whether a transitive node group closed — i.e. whether the plan can
    /// be replayed folded with one representative per local rank.
    pub fn folds(&self) -> bool {
        self.group.is_some()
    }

    /// Fraction of ranks a folded replay simulates (1.0 when nothing
    /// folds and every class is a singleton).
    pub fn replay_fraction(&self) -> f64 {
        let world: usize = self.classes.iter().map(|c| c.len()).sum();
        if world == 0 {
            1.0
        } else {
            self.classes.len() as f64 / world as f64
        }
    }
}

/// Lower `plan` to a symmetry-folded trace, materializing only node 0's
/// programs.  Returns `None` when no node group closes (rooted collectives,
/// single-node topologies) — the caller should lower with
/// [`Plan::to_trace`] and replay in full.
///
/// The folded trace is built with [`FoldedTrace::from_representatives`]
/// rather than trace-level detection, so only `ppn` programs are lowered —
/// the other `world - ppn` never exist as trace ops at all.
pub fn folded_trace(plan: &Plan, tag: u64) -> Option<FoldedTrace> {
    let symmetry = PlanSymmetry::analyze(plan);
    let group = symmetry.group()?;
    let reps = plan.ranks[..plan.topology.ppn()]
        .iter()
        .map(|rank_plan| rank_plan.to_trace_ops(tag).into())
        .collect();
    // Plan-level closure implies the structural invariants the constructor
    // re-checks (peer ranges, uniform barrier counts), so this cannot fail
    // on an analyzed plan.
    FoldedTrace::from_representatives(plan.topology, group, reps).ok()
}

/// Compare two rank programs' *schedule projections* under the group
/// element carrying nodes by `delta`: each op is reduced to the trace op it
/// lowers to (data ops vanish, exactly as in `RankPlan::to_trace_ops`) and
/// compared with `base`'s global-rank peers relabeled.  Exposed so
/// `pip-mpi-model` can verify a claimed symmetry by probing a few compiled
/// ranks instead of the world.
pub fn schedules_equal_under(
    topology: Topology,
    group: FoldGroup,
    delta: usize,
    base: &RankPlan,
    image: &RankPlan,
) -> bool {
    let relabeled = base
        .ops
        .iter()
        .flat_map(schedule_atoms)
        .map(|op| relabel_atom(op, group, topology, delta));
    relabeled.eq(image.ops.iter().flat_map(schedule_atoms))
}

/// The trace ops a plan op lowers to (zero, one, or — for the fused
/// compressed transfers — two), with tags left at their recorded offsets
/// (rebasing shifts all ranks alike, so equality is unaffected).  Must
/// mirror `RankPlan::to_trace_ops` — pinned by a test below.
fn schedule_atoms(op: &PlanOp) -> Vec<TraceOp> {
    match op {
        PlanOp::Send { dest, tag, src } => vec![TraceOp::Send {
            dest: *dest,
            bytes: src.len(),
            tag: *tag,
        }],
        PlanOp::Recv {
            source, tag, len, ..
        } => vec![TraceOp::Recv {
            source: *source,
            bytes: *len,
            tag: *tag,
        }],
        PlanOp::Compress {
            dest,
            tag,
            src,
            wire_bytes,
            ..
        } => vec![
            TraceOp::Codec { bytes: src.len() },
            TraceOp::Send {
                dest: *dest,
                bytes: *wire_bytes,
                tag: *tag,
            },
        ],
        PlanOp::Decompress {
            source,
            tag,
            raw_len,
            wire_bytes,
            ..
        } => vec![
            TraceOp::Recv {
                source: *source,
                bytes: *wire_bytes,
                tag: *tag,
            },
            TraceOp::Codec { bytes: *raw_len },
        ],
        PlanOp::SendFromShared { len, dest, tag, .. } => vec![TraceOp::Send {
            dest: *dest,
            bytes: *len,
            tag: *tag,
        }],
        PlanOp::RecvIntoShared {
            source, tag, len, ..
        } => vec![TraceOp::Recv {
            source: *source,
            bytes: *len,
            tag: *tag,
        }],
        PlanOp::SharedWrite { src, .. } => vec![TraceOp::CopyIntra {
            bytes: src.len(),
            mechanism: None,
            first_use: false,
        }],
        PlanOp::SharedRead { len, .. } => vec![TraceOp::CopyIntra {
            bytes: *len,
            mechanism: None,
            first_use: false,
        }],
        PlanOp::NodeBarrier => vec![TraceOp::LocalBarrier],
        PlanOp::ChargeCopy { bytes } => vec![TraceOp::CopyIntra {
            bytes: *bytes,
            mechanism: Some(IntranodeMechanism::Pip),
            first_use: false,
        }],
        PlanOp::ChargeReduce { bytes } => vec![TraceOp::Reduce { bytes: *bytes }],
        PlanOp::Delay { nanos } => vec![TraceOp::Delay { nanos: *nanos }],
        PlanOp::SharedAlloc { .. }
        | PlanOp::SharedPublish { .. }
        | PlanOp::SharedCollect { .. }
        | PlanOp::Reduce { .. }
        | PlanOp::CopyOut { .. } => Vec::new(),
    }
}

fn relabel_atom(op: TraceOp, group: FoldGroup, topology: Topology, delta: usize) -> TraceOp {
    match op {
        TraceOp::Send { dest, bytes, tag } => TraceOp::Send {
            dest: relabel_rank(dest, group, topology, delta),
            bytes,
            tag,
        },
        TraceOp::Recv { source, bytes, tag } => TraceOp::Recv {
            source: relabel_rank(source, group, topology, delta),
            bytes,
            tag,
        },
        other => other,
    }
}

/// Compare two whole rank programs under the group element carrying nodes
/// by `delta`: metadata must match verbatim, every op — data ops included —
/// must match with `base`'s global-rank peers relabeled.  Strictly stronger
/// than [`schedules_equal_under`], and the exact inverse of
/// [`RankPlan::relabeled`]: for two plans of `topology` it holds iff
/// `base.relabeled(group, delta, image.rank) == *image` — what a caller
/// needs to instantiate `image` from `base` instead of compiling it.
pub fn ranks_equal_under(
    topology: Topology,
    group: FoldGroup,
    delta: usize,
    base: &RankPlan,
    image: &RankPlan,
) -> bool {
    base.fidelity == image.fidelity
        && base.io == image.io
        && base.names == image.names
        && base.val_lens == image.val_lens
        && base.ops.len() == image.ops.len()
        && base.ops.iter().zip(&image.ops).all(|(op, image_op)| {
            let mut op = op.clone();
            relabel_peer(&mut op, group, topology, delta);
            op == *image_op
        })
}

impl RankPlan {
    /// The program of rank `rank`, instantiated from this one by the group
    /// element carrying nodes by `delta`: a clone with every global-rank
    /// peer relabeled and everything else — metadata, names, offsets,
    /// values, costs — verbatim.  Only correct for a `rank` whose own
    /// program [`ranks_equal_under`] would accept as the image.
    pub fn relabeled(&self, group: FoldGroup, delta: usize, rank: usize) -> RankPlan {
        let mut image = self.clone();
        image.rank = rank;
        for op in &mut image.ops {
            relabel_peer(op, group, self.topology, delta);
        }
        image
    }
}

/// The field through which `op` addresses a peer by global rank, if it has
/// one — the single place that knows which ops do.  `owner_local` fields
/// are node-local and fixed by both groups; everything else (names,
/// offsets, values, costs) is peer-free.
fn peer_mut(op: &mut PlanOp) -> Option<&mut usize> {
    match op {
        PlanOp::Send { dest, .. }
        | PlanOp::Compress { dest, .. }
        | PlanOp::SendFromShared { dest, .. } => Some(dest),
        PlanOp::Recv { source, .. }
        | PlanOp::Decompress { source, .. }
        | PlanOp::RecvIntoShared { source, .. } => Some(source),
        PlanOp::SharedAlloc { .. }
        | PlanOp::SharedPublish { .. }
        | PlanOp::SharedCollect { .. }
        | PlanOp::SharedWrite { .. }
        | PlanOp::SharedRead { .. }
        | PlanOp::NodeBarrier
        | PlanOp::Reduce { .. }
        | PlanOp::CopyOut { .. }
        | PlanOp::ChargeCopy { .. }
        | PlanOp::ChargeReduce { .. }
        | PlanOp::Delay { .. } => None,
    }
}

fn relabel_peer(op: &mut PlanOp, group: FoldGroup, topology: Topology, delta: usize) {
    if let Some(peer) = peer_mut(op) {
        *peer = relabel_rank(*peer, group, topology, delta);
    }
}

fn relabel_rank(rank: usize, group: FoldGroup, topology: Topology, delta: usize) -> usize {
    let node = topology.node_of(rank);
    let local = topology.local_rank_of(rank);
    let mapped = match group {
        FoldGroup::Rotation => (node + delta) % topology.nodes(),
        FoldGroup::Xor => node ^ delta,
    };
    topology.rank_of(mapped, local)
}

/// Check that relabeling every rank's schedule by `delta` reproduces the
/// mapped rank's schedule exactly.
fn generator_closes(plan: &Plan, group: FoldGroup, delta: usize) -> bool {
    let topology = plan.topology;
    plan.ranks.iter().enumerate().all(|(rank, rank_plan)| {
        let image = relabel_rank(rank, group, topology, delta);
        schedules_equal_under(topology, group, delta, rank_plan, &plan.ranks[image])
    })
}

/// Fallback partition: ranks with identical programs (metadata and ops,
/// ignoring the `rank` field itself) share a class.
fn identical_program_classes(plan: &Plan) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut reps: Vec<&RankPlan> = Vec::new();
    for (rank, rank_plan) in plan.ranks.iter().enumerate() {
        let found = reps.iter().position(|rep| {
            rep.fidelity == rank_plan.fidelity
                && rep.io == rank_plan.io
                && rep.names == rank_plan.names
                && rep.val_lens == rank_plan.val_lens
                && rep.ops == rank_plan.ops
        });
        match found {
            Some(class) => classes[class].push(rank),
            None => {
                reps.push(rank_plan);
                classes.push(vec![rank]);
            }
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::{Fidelity, IoShape};

    /// A hand-built node ring at fixed local rank: rotation-symmetric.
    fn ring_plan(nodes: usize, ppn: usize, bytes: usize) -> Plan {
        let topology = Topology::new(nodes, ppn);
        let ranks = (0..topology.world_size())
            .map(|rank| {
                let node = topology.node_of(rank);
                let local = topology.local_rank_of(rank);
                let next = topology.rank_of((node + 1) % nodes, local);
                let prev = topology.rank_of((node + nodes - 1) % nodes, local);
                RankPlan {
                    rank,
                    topology,
                    fidelity: Fidelity::Schedule,
                    io: IoShape::default(),
                    names: Vec::new(),
                    val_lens: vec![bytes],
                    ops: vec![
                        PlanOp::Send {
                            dest: next,
                            tag: 0,
                            src: crate::plan::ir::Src::opaque(bytes),
                        },
                        PlanOp::Recv {
                            source: prev,
                            tag: 0,
                            len: bytes,
                            dst: 0,
                        },
                    ],
                }
            })
            .collect();
        Plan { topology, ranks }
    }

    /// Recursive doubling over nodes: XOR-symmetric, not rotation-symmetric
    /// for nodes > 2.
    fn doubling_plan(nodes: usize, ppn: usize) -> Plan {
        assert!(nodes.is_power_of_two());
        let topology = Topology::new(nodes, ppn);
        let ranks = (0..topology.world_size())
            .map(|rank| {
                let node = topology.node_of(rank);
                let local = topology.local_rank_of(rank);
                let mut ops = Vec::new();
                let mut val_lens = Vec::new();
                let mut mask = 1usize;
                while mask < nodes {
                    let peer = topology.rank_of(node ^ mask, local);
                    ops.push(PlanOp::Send {
                        dest: peer,
                        tag: mask as u64,
                        src: crate::plan::ir::Src::opaque(16),
                    });
                    ops.push(PlanOp::Recv {
                        source: peer,
                        tag: mask as u64,
                        len: 16,
                        dst: val_lens.len() as u32,
                    });
                    val_lens.push(16);
                    mask <<= 1;
                }
                RankPlan {
                    rank,
                    topology,
                    fidelity: Fidelity::Schedule,
                    io: IoShape::default(),
                    names: Vec::new(),
                    val_lens,
                    ops,
                }
            })
            .collect();
        Plan { topology, ranks }
    }

    /// Everyone sends to rank 0: rooted, no node group closes.
    fn rooted_plan(nodes: usize, ppn: usize) -> Plan {
        let topology = Topology::new(nodes, ppn);
        let ranks = (0..topology.world_size())
            .map(|rank| {
                let (ops, val_lens) = if rank == 0 {
                    let ops = (1..topology.world_size())
                        .map(|peer| PlanOp::Recv {
                            source: peer,
                            tag: peer as u64,
                            len: 8,
                            dst: (peer - 1) as u32,
                        })
                        .collect();
                    (ops, vec![8; topology.world_size() - 1])
                } else {
                    (
                        vec![PlanOp::Send {
                            dest: 0,
                            tag: rank as u64,
                            src: crate::plan::ir::Src::opaque(8),
                        }],
                        Vec::new(),
                    )
                };
                RankPlan {
                    rank,
                    topology,
                    fidelity: Fidelity::Schedule,
                    io: IoShape::default(),
                    names: Vec::new(),
                    val_lens,
                    ops,
                }
            })
            .collect();
        Plan { topology, ranks }
    }

    #[test]
    fn ring_plan_closes_under_rotation() {
        let symmetry = PlanSymmetry::analyze(&ring_plan(5, 3, 64));
        assert_eq!(symmetry.group(), Some(FoldGroup::Rotation));
        assert_eq!(symmetry.class_count(), 3);
        assert_eq!(symmetry.classes()[1], vec![1, 4, 7, 10, 13]);
        assert!((symmetry.replay_fraction() - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn doubling_plan_closes_under_xor() {
        let symmetry = PlanSymmetry::analyze(&doubling_plan(8, 2));
        assert_eq!(symmetry.group(), Some(FoldGroup::Xor));
        assert_eq!(symmetry.class_count(), 2);
    }

    #[test]
    fn rooted_plan_falls_back_to_identical_program_classes() {
        let symmetry = PlanSymmetry::analyze(&rooted_plan(3, 2));
        assert_eq!(symmetry.group(), None);
        assert!(!symmetry.folds());
        // Rank 0 is alone; every sender has a distinct dest tag... the tags
        // differ per rank, so all classes are singletons here.
        assert_eq!(symmetry.class_count(), 6);
        assert!((symmetry.replay_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_programs_share_a_fallback_class() {
        // Single-node plans never fold, but ranks running the same local
        // program still collapse into one class.
        let topology = Topology::new(1, 4);
        let ranks = (0..4)
            .map(|rank| RankPlan {
                rank,
                topology,
                fidelity: Fidelity::Schedule,
                io: IoShape::default(),
                names: Vec::new(),
                val_lens: Vec::new(),
                ops: vec![PlanOp::NodeBarrier, PlanOp::ChargeCopy { bytes: 256 }],
            })
            .collect();
        let symmetry = PlanSymmetry::analyze(&Plan { topology, ranks });
        assert_eq!(symmetry.group(), None);
        assert_eq!(symmetry.class_count(), 1);
        assert_eq!(symmetry.classes()[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn folded_trace_matches_full_lowering() {
        for plan in [ring_plan(6, 2, 512), doubling_plan(4, 3)] {
            let folded = folded_trace(&plan, 7).expect("symmetric plan should fold");
            assert_eq!(folded.expand(), plan.to_trace(7));
        }
    }

    #[test]
    fn folded_trace_is_none_for_rooted_plans() {
        assert!(folded_trace(&rooted_plan(3, 2), 0).is_none());
    }

    #[test]
    fn probe_comparison_matches_relabeled_ranks() {
        let plan = ring_plan(5, 2, 32);
        let topology = plan.topology;
        // Node 0 local 1 relabeled by delta 3 should equal node 3 local 1,
        // at both comparison strengths (this plan has no data ops that
        // vary by rank).
        for check in [ranks_equal_under, schedules_equal_under] {
            assert!(check(
                topology,
                FoldGroup::Rotation,
                3,
                &plan.ranks[1],
                &plan.ranks[topology.rank_of(3, 1)],
            ));
            // ... and must not equal a different local rank's program.
            assert!(!check(
                topology,
                FoldGroup::Rotation,
                3,
                &plan.ranks[0],
                &plan.ranks[topology.rank_of(3, 1)],
            ));
        }
    }

    #[test]
    fn compressed_transfers_relabel_at_both_strengths() {
        // The compression rewrite turns the ring's inter-node transfers into
        // Compress/Decompress, which address their peer by global rank just
        // like Send/Recv: a symmetric schedule must stay symmetric at
        // whole-program strength once compressed.
        let mut plan = ring_plan(5, 2, 1024);
        let codec = crate::compress::Codec {
            elem: crate::compress::FloatElem::F64,
            bound: 1e-3,
        };
        for rank_plan in &mut plan.ranks {
            assert_eq!(
                crate::plan::compress_rank_transfers(rank_plan, codec, 512),
                2
            );
        }
        let topology = plan.topology;
        let image = &plan.ranks[topology.rank_of(3, 1)];
        for check in [ranks_equal_under, schedules_equal_under] {
            assert!(check(
                topology,
                FoldGroup::Rotation,
                3,
                &plan.ranks[1],
                image
            ));
            assert!(!check(
                topology,
                FoldGroup::Rotation,
                2,
                &plan.ranks[1],
                image
            ));
        }
        assert_eq!(
            &plan.ranks[1].relabeled(FoldGroup::Rotation, 3, image.rank),
            image
        );
    }

    #[test]
    fn rank_dependent_data_ops_fold_at_schedule_strength_only() {
        // An allgather-like plan: the communication schedule is a node
        // ring, but each rank writes its output at a rank-dependent offset.
        let mut plan = ring_plan(4, 2, 16);
        for (rank, rank_plan) in plan.ranks.iter_mut().enumerate() {
            rank_plan.io.recvbuf = Some(8 * 16);
            rank_plan.ops.push(PlanOp::CopyOut {
                offset: rank * 16,
                src: crate::plan::ir::Src::opaque(16),
            });
        }
        let topology = plan.topology;
        let image = topology.rank_of(1, 0);
        assert!(!ranks_equal_under(
            topology,
            FoldGroup::Rotation,
            1,
            &plan.ranks[0],
            &plan.ranks[image],
        ));
        assert!(schedules_equal_under(
            topology,
            FoldGroup::Rotation,
            1,
            &plan.ranks[0],
            &plan.ranks[image],
        ));
        let symmetry = PlanSymmetry::analyze(&plan);
        assert_eq!(symmetry.group(), Some(FoldGroup::Rotation));
        let folded = folded_trace(&plan, 0).expect("schedule symmetry folds");
        assert_eq!(folded.expand(), plan.to_trace(0));
    }

    #[test]
    fn schedule_atoms_mirror_to_trace_ops() {
        // `schedule_atoms` must stay in lockstep with `to_trace_ops`: same
        // ops, same order, tags shifted by exactly the rebase.
        let plan = ring_plan(3, 2, 64);
        for rank_plan in &plan.ranks {
            let atoms: Vec<TraceOp> = rank_plan.ops.iter().flat_map(schedule_atoms).collect();
            assert_eq!(atoms, rank_plan.to_trace_ops(0));
        }
    }
}
