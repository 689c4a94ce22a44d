//! For a verified node-symmetric schedule, `compile_cluster` stores node 0's
//! programs and the node group instead of recording the other ranks;
//! `Plan::rank` instantiates them on demand.  That must be invisible: every
//! rank the plan hands out has to equal the one rank-by-rank compilation
//! produces, field for field, whether or not the schedule instantiates.
//!
//! The reference is built here as `(0..world).map(compile_rank)` — never
//! through `compile_cluster` — so the oracle shares nothing with the class
//! compiler but the per-rank recorder.  Rank equality cannot tell
//! "instantiated" from "fell back to O(world)", so the instantiated-rank
//! counts and the stored programs are asserted separately.

use pip_mcoll::collectives::plan::symmetry::ranks_equal_under;
use pip_mcoll::collectives::plan::{Fidelity, IoShape, Plan, PlanOp, RankPlan, Src};
use pip_mcoll::collectives::{Codec, CollectiveKind, FloatElem, Layout};
use pip_mcoll::model::plan::{compile_cluster, compile_rank};
use pip_mcoll::model::{ClusterPlanCache, CollectiveShape, CompressSpec, Library};
use pip_mcoll::netsim::cluster::ClusterSpec;
use pip_mcoll::netsim::{FoldGroup, FoldedTrace};
use pip_mcoll::runtime::Topology;
use proptest::prelude::*;

/// Two-node, single-ppn, odd, prime, power-of-two (XOR candidates) and
/// probe-sparse node counts: at 33 and 64 nodes the three probes leave 29
/// and 60 nodes unsampled.
const TOPOLOGIES: [(usize, usize); 9] = [
    (2, 3),
    (3, 1),
    (5, 4),
    (7, 5),
    (8, 2),
    (12, 3),
    (16, 4),
    (33, 3),
    (64, 2),
];

const ROOTED_KINDS: [CollectiveKind; 4] = [
    CollectiveKind::Scatter,
    CollectiveKind::Bcast,
    CollectiveKind::Gather,
    CollectiveKind::Reduce,
];

fn shape(kind: CollectiveKind, block: usize, root: usize) -> CollectiveShape {
    let reduces = matches!(
        kind,
        CollectiveKind::Allreduce
            | CollectiveKind::Reduce
            | CollectiveKind::ReduceScatter
            | CollectiveKind::Scan
            | CollectiveKind::Exscan
    );
    CollectiveShape {
        kind,
        block: if kind == CollectiveKind::Barrier {
            0
        } else {
            block
        },
        root,
        elem_size: if reduces { 4 } else { 1 },
        reduce: None,
        layout: None,
        compress: None,
    }
}

/// The independent reference: every rank recorded through the algorithm.
fn rank_by_rank(
    library: Library,
    topology: Topology,
    shape: &CollectiveShape,
    fidelity: Fidelity,
) -> Plan {
    let profile = library.profile();
    let ranks = (0..topology.world_size())
        .map(|rank| compile_rank(&profile, topology, rank, shape, fidelity))
        .collect();
    Plan::from_ranks(topology, ranks)
}

/// Assert that `compile_cluster` equals the rank-by-rank reference, rank by
/// rank, and return the reference.
fn assert_equals_rank_by_rank(
    library: Library,
    topology: Topology,
    shape: &CollectiveShape,
    fidelity: Fidelity,
) -> Plan {
    let compiled = compile_cluster(&library.profile(), topology, shape, fidelity);
    let reference = rank_by_rank(library, topology, shape, fidelity);
    assert_eq!(compiled.topology, reference.topology);
    // Not `assert_eq!`: a failure would print two whole-cluster plans.  Each
    // rank is compared as `Plan::rank` hands it out, so an instantiated rank
    // is materialised from its representative here.
    let differing: Vec<usize> = (0..topology.world_size())
        .filter(|&rank| compiled.rank(rank) != reference.rank(rank))
        .collect();
    assert!(
        differing.is_empty(),
        "{} {:?} {} B root {} on {}x{} at {fidelity:?}: compile_cluster differs from \
         rank-by-rank compilation at ranks {differing:?}",
        library.name(),
        shape.kind,
        shape.block,
        shape.root,
        topology.nodes(),
        topology.ppn(),
    );
    reference
}

/// `(ranks_compiled, ranks_instantiated)` of compiling `shape` once through
/// a fresh cluster cache.
fn counts(library: Library, topology: Topology, shape: &CollectiveShape) -> (u64, u64) {
    let mut cache = ClusterPlanCache::new();
    cache.lookup_or_compile(&library.profile(), topology, shape);
    cache.compile_counts()
}

fn grid(fidelity: Fidelity) {
    for (nodes, ppn) in TOPOLOGIES {
        let topology = Topology::new(nodes, ppn);
        for library in Library::ALL {
            for kind in CollectiveKind::ALL {
                let blocks: &[usize] = if kind == CollectiveKind::Barrier {
                    &[0]
                } else {
                    &[64, 512]
                };
                for &block in blocks {
                    assert_equals_rank_by_rank(library, topology, &shape(kind, block, 0), fidelity);
                }
            }
        }
    }
}

#[test]
fn schedule_plans_equal_rank_by_rank_compilation_on_the_grid() {
    grid(Fidelity::Schedule);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a minute unoptimized; CI runs this suite in release"
)]
fn exec_plans_equal_rank_by_rank_compilation_on_the_grid() {
    grid(Fidelity::Exec);
}

/// A root away from rank 0 moves the asymmetry of a rooted schedule off
/// node 0 — onto a probe node (the last one) or onto a node no probe looks
/// at (node 2, and the first non-leader of the middle node).
#[test]
fn rooted_kinds_with_nonzero_roots_equal_rank_by_rank_compilation() {
    for (nodes, ppn) in [(5, 4), (8, 2), (12, 3), (16, 4)] {
        let topology = Topology::new(nodes, ppn);
        let roots = [
            topology.world_size() - 1,
            topology.rank_of(2, 0),
            topology.rank_of(nodes / 2, ppn - 1),
        ];
        for library in Library::ALL {
            for kind in ROOTED_KINDS {
                for root in roots {
                    for fidelity in [Fidelity::Schedule, Fidelity::Exec] {
                        assert_equals_rank_by_rank(
                            library,
                            topology,
                            &shape(kind, 64, root),
                            fidelity,
                        );
                    }
                }
            }
        }
    }
}

/// The reproducer of the `Compress::dest` / `Decompress::source` gap: a
/// compressed Allreduce is as node-symmetric as the exact plan of the same
/// shape, so it must instantiate exactly when that one does.
#[test]
fn compressed_allreduce_instantiates_like_the_exact_plan() {
    let topology = Topology::new(16, 8);
    let exact = CollectiveShape {
        elem_size: 8,
        ..shape(CollectiveKind::Allreduce, topology.world_size() * 8 * 64, 0)
    };
    let compressed = CollectiveShape {
        compress: Some(CompressSpec::from_bound(1e-3, 256)),
        ..exact
    };
    let mut instantiating = 0;
    for library in Library::ALL {
        assert_equals_rank_by_rank(library, topology, &compressed, Fidelity::Schedule);
        let plan = compile_cluster(
            &library.profile(),
            topology,
            &compressed,
            Fidelity::Schedule,
        );
        let rewritten = plan.ranks().any(|rank| {
            rank.ops
                .iter()
                .any(|op| matches!(op, PlanOp::Compress { .. } | PlanOp::Decompress { .. }))
        });
        assert!(rewritten, "{}: nothing was compressed", library.name());
        let compressed_counts = counts(library, topology, &compressed);
        assert_eq!(
            compressed_counts,
            counts(library, topology, &exact),
            "{}: compressed and exact plans must share their symmetry",
            library.name()
        );
        instantiating += usize::from(compressed_counts.1 > 0);
    }
    assert!(
        instantiating >= 2,
        "only {instantiating} libraries instantiate"
    );
}

#[test]
fn strided_allreduce_equals_rank_by_rank_compilation() {
    let strided = CollectiveShape {
        layout: Some(Layout::vector(16, 4, 7)),
        ..shape(CollectiveKind::Allreduce, 16 * 4 * 4, 0)
    };
    for library in Library::ALL {
        for fidelity in [Fidelity::Schedule, Fidelity::Exec] {
            assert_equals_rank_by_rank(library, Topology::new(8, 2), &strided, fidelity);
        }
    }
}

/// Symmetric schedules compile `(1 + probes) × ppn` ranks and instantiate
/// the rest; everything else compiles the world.  The counts repeat exactly.
#[test]
fn counts_tell_instantiation_from_the_fallback() {
    let topology = Topology::new(16, 4);
    let world = topology.world_size() as u64;
    // Probes {1, 8, 15} plus node 0: four nodes' worth of recording runs.
    let instantiated = (4 * 4, world - 4 * 4);
    let allgather = shape(CollectiveKind::Allgather, 64, 0);
    assert_eq!(counts(Library::OpenMpi, topology, &allgather), instantiated);
    assert_eq!(
        counts(Library::Mvapich2, topology, &allgather),
        instantiated
    );
    // PiP-MColl's allgather splits its step-⑥ shared reads by node.
    assert_eq!(counts(Library::PipMColl, topology, &allgather), (world, 0));
    let allreduce = shape(CollectiveKind::Allreduce, 64, 0);
    assert_eq!(
        counts(Library::PipMColl, topology, &allreduce),
        instantiated
    );
    for kind in ROOTED_KINDS {
        for library in Library::ALL {
            let rooted = counts(library, topology, &shape(kind, 64, 0));
            assert_eq!(rooted, (world, 0), "{} {kind:?}", library.name());
        }
    }
    // A single node has nothing to instantiate from.
    let one_node = Topology::new(1, 6);
    assert_eq!(counts(Library::OpenMpi, one_node, &allgather), (6, 0));

    // Counts accumulate per compile, and a hit compiles nothing.
    let mut cache = ClusterPlanCache::new();
    let profile = Library::OpenMpi.profile();
    cache.lookup_or_compile(&profile, topology, &allgather);
    cache.lookup_or_compile(&profile, topology, &shape(CollectiveKind::Scatter, 64, 0));
    cache.lookup_or_compile(&profile, topology, &allgather);
    assert_eq!(cache.stats(), (1, 2));
    assert_eq!(cache.compile_counts(), (16 + world, world - 16));
}

/// The 30 cells of `bench_all`'s `sim_sweep` at paper scale: every
/// library's plan equals rank-by-rank compilation, and the cache compiles
/// only the 16 distinct schedules behind them, 6 of which instantiate.  A
/// library that selects an algorithm an earlier library already compiled
/// for the cell shares that plan and compiles nothing.  Each cell's
/// `to_trace(1)` lowers every rank as the reference's own program does, and
/// the MVAPICH2 allreduce's peer-free non-leaders share one op vector.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "records 2 304 ranks per cell for the reference; CI runs this suite in release"
)]
fn the_paper_scale_sweep_compiles_sixteen_of_its_thirty_cells_and_instantiates_six() {
    let topology = ClusterSpec::hpdc23().topology();
    let mut cache = ClusterPlanCache::new();
    for kind in [
        CollectiveKind::Allgather,
        CollectiveKind::Scatter,
        CollectiveKind::Allreduce,
    ] {
        for block in [64, 512] {
            // `bench_all` keys every kind with `elem_size: 1`.
            let cell = CollectiveShape {
                elem_size: 1,
                ..shape(kind, block, 0)
            };
            for library in Library::ALL {
                let reference =
                    assert_equals_rank_by_rank(library, topology, &cell, Fidelity::Schedule);
                // Bruck allgather: all four comparators.  Binomial scatter
                // and recursive-doubling allreduce: Open MPI, Intel MPI and
                // PiP-MPICH.
                let shared = match library {
                    Library::IntelMpi | Library::PipMpich => true,
                    Library::Mvapich2 => kind == CollectiveKind::Allgather,
                    Library::OpenMpi | Library::PipMColl => false,
                };
                let instantiates = match kind {
                    CollectiveKind::Allgather => library != Library::PipMColl,
                    CollectiveKind::Allreduce => {
                        matches!(library, Library::Mvapich2 | Library::PipMColl)
                    }
                    _ => false,
                };
                let before = cache.compile_counts();
                let plan = cache.lookup_or_compile(&library.profile(), topology, &cell);
                let after = cache.compile_counts();
                assert_eq!(
                    (after.0 - before.0, after.1 - before.1),
                    if shared {
                        (0, 0)
                    } else if instantiates {
                        (72, 2_232)
                    } else {
                        (2_304, 0)
                    },
                    "{} {kind:?} {block} B",
                    library.name()
                );
                // An instantiating cell stores node 0's 18 programs, a
                // fallback cell all 2 304.
                assert_eq!(
                    (plan.group().is_some(), plan.programs().len()),
                    if instantiates {
                        (true, topology.ppn())
                    } else {
                        (false, topology.world_size())
                    },
                    "{} {kind:?} {block} B: stored programs",
                    library.name()
                );
                // Lowering shares storage by construction; every rank must
                // still lower as the reference's own program does.
                let trace = plan.to_trace(1);
                let differing: Vec<usize> = (0..topology.world_size())
                    .filter(|&rank| {
                        *trace.ranks[rank].ops != reference.rank(rank).to_trace_ops(1)[..]
                    })
                    .collect();
                assert!(
                    differing.is_empty(),
                    "{} {kind:?} {block} B: to_trace differs from the reference's lowering at \
                     ranks {differing:?}",
                    library.name()
                );
                if library == Library::Mvapich2 && kind == CollectiveKind::Allreduce {
                    // Every non-leader runs one peer-free program: one
                    // vector across its 17 classes and 128 nodes.
                    let peer_free: Vec<_> = trace
                        .ranks
                        .iter()
                        .map(|rt| &rt.ops)
                        .filter(|ops| ops.iter().all(|op| op.peer().is_none()))
                        .collect();
                    assert_eq!(peer_free.len(), topology.world_size() - topology.nodes());
                    assert!(
                        peer_free
                            .iter()
                            .all(|ops| ops.shares_storage_with(peer_free[0])),
                        "MVAPICH2 allreduce {block} B: peer-free programs do not share one vector"
                    );
                }
            }
        }
    }
    assert_eq!(
        cache.compile_counts(),
        (6 * 72 + 10 * 2_304, 6 * 2_232),
        "one sweep's totals"
    );
    assert_eq!(cache.stats(), (14, 16), "14 shared cells, 16 compiles");
}

/// Probing samples the symmetry; it does not prove it.  This hand-built
/// 8-node ring is rotation-symmetric on node 0 and on every node the probe
/// policy looks at — {1, N/2, N−1} = {1, 4, 7} — but node 3 charges an extra
/// copy.  Whole-program comparison accepts all three probes, so a class
/// compiler fed this schedule would instantiate node 3 from node 0 and be
/// wrong; only the exhaustive analysis sees it.  No algorithm in the
/// workspace behaves like this — which is a property of the algorithms, not
/// of the probes, and the reason the rank-by-rank grid above is the oracle.
#[test]
fn probes_sample_the_symmetry_they_do_not_prove_it() {
    let nodes = 8;
    let topology = Topology::new(nodes, 1);
    let ranks: Vec<RankPlan> = (0..nodes)
        .map(|node| {
            let mut ops = vec![
                PlanOp::Send {
                    dest: (node + 1) % nodes,
                    tag: 0,
                    src: Src::opaque(64),
                },
                PlanOp::Recv {
                    source: (node + nodes - 1) % nodes,
                    tag: 0,
                    len: 64,
                    dst: 0,
                },
            ];
            if node == 3 {
                ops.push(PlanOp::ChargeCopy { bytes: 64 });
            }
            RankPlan {
                rank: node,
                topology,
                fidelity: Fidelity::Schedule,
                io: IoShape::default(),
                names: Vec::new(),
                val_lens: vec![64],
                ops,
            }
        })
        .collect();
    let plan = Plan::from_ranks(topology, ranks.clone());
    plan.validate().unwrap();

    let carried = |node: usize| {
        ranks_equal_under(topology, FoldGroup::Rotation, node, &ranks[0], &ranks[node])
    };
    for probe in [1, nodes / 2, nodes - 1] {
        assert!(carried(probe), "probe node {probe} looks symmetric");
    }
    assert!(!carried(3), "node 3 is not node 0's image");
    assert_ne!(
        ranks[0].relabeled(FoldGroup::Rotation, 3, 3),
        ranks[3],
        "instantiating node 3 from node 0 would be wrong"
    );
    assert!(FoldedTrace::detect(&plan.to_trace(0)).is_none());
}

/// A rank program touching every peer-addressing op plus peer-free ones,
/// with peers and payload sizes drawn from `seeds`.
fn program(rank: usize, topology: Topology, seeds: &[u64]) -> RankPlan {
    let world = topology.world_size() as u64;
    let codec = Codec {
        elem: FloatElem::F64,
        bound: 1e-3,
    };
    let ops = seeds
        .iter()
        .map(|&seed| {
            let peer = (seed % world) as usize;
            let len = 8 * (1 + (seed >> 32) % 64) as usize;
            let tag = (seed >> 16) & 0xff;
            match (seed >> 8) % 8 {
                0 => PlanOp::Send {
                    dest: peer,
                    tag,
                    src: Src::opaque(len),
                },
                1 => PlanOp::Recv {
                    source: peer,
                    tag,
                    len,
                    dst: 0,
                },
                2 => PlanOp::Compress {
                    dest: peer,
                    tag,
                    src: Src::opaque(len),
                    codec,
                    wire_bytes: len / 2,
                },
                3 => PlanOp::Decompress {
                    source: peer,
                    tag,
                    raw_len: len,
                    dst: 0,
                    codec,
                    wire_bytes: len / 2,
                },
                4 => PlanOp::SendFromShared {
                    owner_local: peer % topology.ppn(),
                    name: 0,
                    offset: len,
                    len,
                    dest: peer,
                    tag,
                },
                5 => PlanOp::RecvIntoShared {
                    owner_local: peer % topology.ppn(),
                    name: 0,
                    offset: len,
                    source: peer,
                    tag,
                    len,
                },
                6 => PlanOp::SharedRead {
                    owner_local: peer % topology.ppn(),
                    name: 0,
                    offset: 0,
                    len,
                    dst: 0,
                },
                _ => PlanOp::NodeBarrier,
            }
        })
        .collect();
    RankPlan {
        rank,
        topology,
        fidelity: Fidelity::Schedule,
        io: IoShape::default(),
        names: vec!["region".to_string()],
        val_lens: vec![512],
        ops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `relabeled` is a group action — the inverse element undoes it — and
    /// `ranks_equal_under` is its exact inverse: it accepts every relabeled
    /// image, and nothing that differs from one in a single peer.
    #[test]
    fn relabeling_round_trips_and_is_what_ranks_equal_under_accepts(
        log_nodes in 1usize..6,
        any_nodes in 2usize..40,
        ppn in 1usize..5,
        xor in any::<bool>(),
        rank_seed in any::<usize>(),
        delta_seed in any::<usize>(),
        seeds in collection::vec(any::<u64>(), 0..24),
    ) {
        let (group, nodes) = if xor {
            (FoldGroup::Xor, 1 << log_nodes)
        } else {
            (FoldGroup::Rotation, any_nodes)
        };
        let topology = Topology::new(nodes, ppn);
        let base = program(rank_seed % topology.world_size(), topology, &seeds);
        let node = topology.node_of(base.rank);
        let delta = 1 + delta_seed % (nodes - 1);
        let (inverse, image_node) = match group {
            FoldGroup::Rotation => (nodes - delta, (node + delta) % nodes),
            FoldGroup::Xor => (delta, node ^ delta),
        };
        let image_rank = topology.rank_of(image_node, topology.local_rank_of(base.rank));

        let image = base.relabeled(group, delta, image_rank);
        prop_assert_eq!(image.rank, image_rank);
        prop_assert_eq!(&image.relabeled(group, inverse, base.rank), &base);
        prop_assert!(ranks_equal_under(topology, group, delta, &base, &image));

        // Nudge one peer of the image: the comparison must notice.
        let mut nudged = image.clone();
        let peer = nudged.ops.iter_mut().find_map(|op| match op {
            PlanOp::Send { dest: peer, .. }
            | PlanOp::Compress { dest: peer, .. }
            | PlanOp::SendFromShared { dest: peer, .. }
            | PlanOp::Recv { source: peer, .. }
            | PlanOp::Decompress { source: peer, .. }
            | PlanOp::RecvIntoShared { source: peer, .. } => Some(peer),
            _ => None,
        });
        if let Some(peer) = peer {
            *peer = (*peer + 1) % topology.world_size();
            prop_assert!(!ranks_equal_under(topology, group, delta, &base, &nudged));
        }
    }

    /// The two facts a stored representative stands on for its instantiated
    /// ranks: lowering commutes with relabeling, so `Plan::to_trace` may
    /// relabel a representative's trace ops instead of lowering each
    /// instantiated rank; and validation reads no peer, so the
    /// representative's result is every instantiation's.
    #[test]
    fn relabeling_commutes_with_lowering_and_keeps_validation(
        log_nodes in 1usize..6,
        any_nodes in 2usize..40,
        ppn in 1usize..5,
        xor in any::<bool>(),
        rank_seed in any::<usize>(),
        delta_seed in any::<usize>(),
        tag in 0u64..1 << 20,
        seeds in collection::vec(any::<u64>(), 0..24),
    ) {
        let (group, nodes) = if xor {
            (FoldGroup::Xor, 1 << log_nodes)
        } else {
            (FoldGroup::Rotation, any_nodes)
        };
        let topology = Topology::new(nodes, ppn);
        let rep = program(rank_seed % topology.world_size(), topology, &seeds);
        let delta = delta_seed % nodes;
        let image_node = match group {
            FoldGroup::Rotation => (topology.node_of(rep.rank) + delta) % nodes,
            FoldGroup::Xor => topology.node_of(rep.rank) ^ delta,
        };
        let image_rank = topology.rank_of(image_node, topology.local_rank_of(rep.rank));
        let image = rep.relabeled(group, delta, image_rank);

        let relabeled_ops: Vec<_> = rep
            .to_trace_ops(tag)
            .into_iter()
            .map(|op| group.relabel_op(op, topology, delta))
            .collect();
        prop_assert_eq!(image.to_trace_ops(tag), relabeled_ops);
        // The rank number is only reported in an error; renumber the
        // representative alone to compare the results whole.
        let renumbered = RankPlan {
            rank: image_rank,
            ..rep.clone()
        };
        prop_assert_eq!(image.validate(), renumbered.validate());
    }
}
