//! Plan-level symmetry: comparing compiled rank programs under a node
//! relabeling.
//!
//! `pip-mpi-model`'s class compiler compiles node 0's ranks plus a few
//! probe ranks and checks that a node group — the rotation and XOR groups of
//! [`pip_netsim::FoldGroup`], whose node map
//! ([`FoldGroup::relabel_rank`]) is the one used everywhere — carries node
//! 0's programs onto the probes'.  That lets it reach 10^5–10^6-rank
//! projections without an O(world) compile, and store a whole-cluster plan
//! as node 0's programs plus the group
//! ([`Plan::from_representatives`](super::Plan::from_representatives)):
//! [`Plan::rank`](super::Plan::rank) *instantiates* any other rank from its
//! representative ([`RankPlan::relabeled`]) only when asked, and
//! [`Plan::to_trace`](super::Plan::to_trace) relabels the representative's
//! trace ops instead, since lowering commutes with relabeling.  Whole traces
//! are folded by [`pip_netsim::FoldedTrace::detect`], not here.
//!
//! Two comparison strengths are exposed, because a plan op carries fields a
//! trace op does not:
//!
//! * [`schedules_equal_under`] compares the **schedule projection** — the
//!   trace ops each rank lowers to (`RankPlan::to_trace_ops`), with peers
//!   relabeled.  Data-op details that never reach the simulator (`CopyOut`
//!   offsets, value identities, payload provenance) are ignored; an
//!   allgather whose ranks write their blocks at rank-dependent output
//!   offsets still folds.
//! * [`ranks_equal_under`] compares the **whole program** under the
//!   relabeling, data ops included — the strictly stronger statement a
//!   caller needs to instantiate one rank's plan from another's, and the
//!   exact inverse of [`RankPlan::relabeled`].

use pip_netsim::FoldGroup;
use pip_runtime::Topology;

use super::ir::{PlanOp, RankPlan};

/// Compare two rank programs' *schedule projections* under the group
/// element carrying nodes by `delta`: both are lowered to trace ops
/// (`RankPlan::to_trace_ops`, tags left at their recorded offsets — rebasing
/// shifts all ranks alike) and compared with `base`'s global-rank peers
/// relabeled.  Exposed so `pip-mpi-model` can verify a claimed symmetry by
/// probing a few compiled ranks instead of the world.
pub fn schedules_equal_under(
    topology: Topology,
    group: FoldGroup,
    delta: usize,
    base: &RankPlan,
    image: &RankPlan,
) -> bool {
    let relabeled = base
        .to_trace_ops(0)
        .into_iter()
        .map(|op| group.relabel_op(op, topology, delta));
    relabeled.eq(image.to_trace_ops(0))
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
        | PlanOp::Delay { .. } => None,
    }
}

fn relabel_peer(op: &mut PlanOp, group: FoldGroup, topology: Topology, delta: usize) {
    if let Some(peer) = peer_mut(op) {
        *peer = group.relabel_rank(*peer, topology, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::{Fidelity, IoShape, Plan};
    use pip_netsim::FoldedTrace;
    use std::borrow::Cow;

    /// A hand-built node ring at fixed local rank: rotation-symmetric.
    fn ring_ranks(nodes: usize, ppn: usize, bytes: usize) -> Vec<RankPlan> {
        let topology = Topology::new(nodes, ppn);
        (0..topology.world_size())
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
            .collect()
    }

    /// Recursive doubling over nodes: XOR-symmetric, not rotation-symmetric
    /// for nodes > 2.
    fn doubling_ranks(nodes: usize, ppn: usize) -> Vec<RankPlan> {
        assert!(nodes.is_power_of_two());
        let topology = Topology::new(nodes, ppn);
        (0..topology.world_size())
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
            .collect()
    }

    /// Everyone sends to rank 0: rooted, no node group closes.
    fn rooted_ranks(nodes: usize, ppn: usize) -> Vec<RankPlan> {
        let topology = Topology::new(nodes, ppn);
        (0..topology.world_size())
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
            .collect()
    }

    /// Whether the group element `delta` carries every rank's schedule onto
    /// its image's — the whole-plan version of what the class compiler
    /// samples with probes.
    fn closes(ranks: &[RankPlan], group: FoldGroup, delta: usize) -> bool {
        let topology = ranks[0].topology;
        ranks.iter().all(|base| {
            let image = &ranks[group.relabel_rank(base.rank, topology, delta)];
            schedules_equal_under(topology, group, delta, base, image)
        })
    }

    /// Node 0's lowered programs as a folded trace under `group`, the way
    /// `compile_folded` builds one.
    fn fold_node0(ranks: &[RankPlan], group: FoldGroup, tag: u64) -> FoldedTrace {
        let topology = ranks[0].topology;
        let reps = ranks[..topology.ppn()]
            .iter()
            .map(|rank_plan| rank_plan.to_trace_ops(tag).into())
            .collect();
        FoldedTrace::from_representatives(topology, group, reps).unwrap()
    }

    /// The whole-cluster plan storing every one of `ranks`.
    fn plan_of(ranks: Vec<RankPlan>) -> Plan {
        Plan::from_ranks(ranks[0].topology, ranks)
    }

    #[test]
    fn ring_plan_closes_under_rotation() {
        let ranks = ring_ranks(5, 3, 64);
        assert!(closes(&ranks, FoldGroup::Rotation, 1));
        let folded = FoldedTrace::detect(&plan_of(ranks).to_trace(0)).expect("ring folds");
        assert_eq!(folded.group(), FoldGroup::Rotation);
        assert_eq!(folded.classes()[1], vec![1, 4, 7, 10, 13]);
    }

    #[test]
    fn doubling_plan_closes_under_xor() {
        let ranks = doubling_ranks(8, 2);
        assert!(!closes(&ranks, FoldGroup::Rotation, 1));
        assert!([1, 2, 4]
            .into_iter()
            .all(|mask| closes(&ranks, FoldGroup::Xor, mask)));
        let folded = FoldedTrace::detect(&plan_of(ranks).to_trace(0)).expect("doubling folds");
        assert_eq!(folded.group(), FoldGroup::Xor);
        assert_eq!(folded.representatives().len(), 2);
    }

    #[test]
    fn folded_trace_matches_full_lowering() {
        for (ranks, group) in [
            (ring_ranks(6, 2, 512), FoldGroup::Rotation),
            (doubling_ranks(4, 3), FoldGroup::Xor),
        ] {
            assert_eq!(
                fold_node0(&ranks, group, 7).expand(),
                plan_of(ranks).to_trace(7)
            );
        }
    }

    /// A plan of node 0's programs and their group is the plan of every
    /// rank, seen from outside: rank by rank, lowered, validated and
    /// compared.  Only the non-zero nodes' ranks are materialised.
    #[test]
    fn a_plan_of_representatives_equals_the_plan_of_every_rank() {
        for (ranks, group) in [
            (ring_ranks(6, 2, 512), FoldGroup::Rotation),
            (doubling_ranks(4, 3), FoldGroup::Xor),
        ] {
            let topology = ranks[0].topology;
            let reps = ranks[..topology.ppn()].to_vec();
            let instantiated = Plan::from_representatives(topology, group, reps);
            assert_eq!(instantiated.group(), Some(group));
            assert_eq!(instantiated.programs().len(), topology.ppn());
            for (rank, expected) in ranks.iter().enumerate() {
                let materialised = instantiated.rank(rank);
                assert_eq!(&*materialised, expected, "rank {rank}");
                let stored = matches!(materialised, Cow::Borrowed(_));
                assert_eq!(stored, topology.node_of(rank) == 0, "rank {rank}");
            }
            assert_eq!(instantiated.ranks().len(), topology.world_size());
            instantiated.validate().unwrap();
            let full = plan_of(ranks);
            assert_eq!(instantiated.to_trace(7), full.to_trace(7));
            assert_eq!(instantiated, full);
            assert_eq!(full, instantiated);
        }
        // The wrong group instantiates other ranks, and equality sees it.
        let ranks = doubling_ranks(4, 3);
        let topology = ranks[0].topology;
        let rotated =
            Plan::from_representatives(topology, FoldGroup::Rotation, ranks[..3].to_vec());
        assert_ne!(rotated, plan_of(ranks));
    }

    #[test]
    fn folded_trace_is_none_for_rooted_plans() {
        let ranks = rooted_ranks(3, 2);
        assert!(!closes(&ranks, FoldGroup::Rotation, 1));
        assert!(FoldedTrace::detect(&plan_of(ranks).to_trace(0)).is_none());
    }

    #[test]
    fn probe_comparison_matches_relabeled_ranks() {
        let ranks = ring_ranks(5, 2, 32);
        let topology = ranks[0].topology;
        // Node 0 local 1 relabeled by delta 3 should equal node 3 local 1,
        // at both comparison strengths (this plan has no data ops that
        // vary by rank).
        for check in [ranks_equal_under, schedules_equal_under] {
            assert!(check(
                topology,
                FoldGroup::Rotation,
                3,
                &ranks[1],
                &ranks[topology.rank_of(3, 1)],
            ));
            // ... and must not equal a different local rank's program.
            assert!(!check(
                topology,
                FoldGroup::Rotation,
                3,
                &ranks[0],
                &ranks[topology.rank_of(3, 1)],
            ));
        }
    }

    #[test]
    fn compressed_transfers_relabel_at_both_strengths() {
        // The compression rewrite turns the ring's inter-node transfers into
        // Compress/Decompress, which address their peer by global rank just
        // like Send/Recv: a symmetric schedule must stay symmetric at
        // whole-program strength once compressed.
        let mut ranks = ring_ranks(5, 2, 1024);
        let codec = crate::compress::Codec {
            elem: crate::compress::FloatElem::F64,
            bound: 1e-3,
        };
        for rank_plan in &mut ranks {
            assert_eq!(
                crate::plan::compress_rank_transfers(rank_plan, codec, 512),
                2
            );
        }
        let topology = ranks[0].topology;
        let image = &ranks[topology.rank_of(3, 1)];
        for check in [ranks_equal_under, schedules_equal_under] {
            assert!(check(topology, FoldGroup::Rotation, 3, &ranks[1], image));
            assert!(!check(topology, FoldGroup::Rotation, 2, &ranks[1], image));
        }
        assert_eq!(
            &ranks[1].relabeled(FoldGroup::Rotation, 3, image.rank),
            image
        );
    }

    #[test]
    fn rank_dependent_data_ops_fold_at_schedule_strength_only() {
        // An allgather-like plan: the communication schedule is a node
        // ring, but each rank writes its output at a rank-dependent offset.
        let mut ranks = ring_ranks(4, 2, 16);
        for (rank, rank_plan) in ranks.iter_mut().enumerate() {
            rank_plan.io.recvbuf = Some(8 * 16);
            rank_plan.ops.push(PlanOp::CopyOut {
                offset: rank * 16,
                src: crate::plan::ir::Src::opaque(16),
            });
        }
        let topology = ranks[0].topology;
        let image = topology.rank_of(1, 0);
        assert!(!ranks_equal_under(
            topology,
            FoldGroup::Rotation,
            1,
            &ranks[0],
            &ranks[image],
        ));
        assert!(schedules_equal_under(
            topology,
            FoldGroup::Rotation,
            1,
            &ranks[0],
            &ranks[image],
        ));
        assert!(closes(&ranks, FoldGroup::Rotation, 1));
        let folded = fold_node0(&ranks, FoldGroup::Rotation, 0);
        assert_eq!(folded.expand(), plan_of(ranks).to_trace(0));
    }
}
