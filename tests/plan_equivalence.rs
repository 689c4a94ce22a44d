//! The plan/execute split is pinned both ways:
//!
//! 1. **Executor vs. oracle** — compiling every collective × library on a
//!    topology grid (including non-power-of-two worlds) to exec-fidelity
//!    plans and running them as blocking calls (`dispatch::run_blocking`) on
//!    the thread runtime reproduces the sequential oracle exactly.
//! 2. **Lowering** — every schedule-fidelity cluster plan validates, and
//!    exec- and schedule-fidelity plans lower to the same trace.  What the
//!    lowered traces contain is frozen by hash in `tests/plan_golden.rs`.
//! 3. **In place vs. engine-driven** — the one plan interpreter produces the
//!    same bytes whether a blocking call drives it in place or a progress
//!    engine drives it beside other requests.

use std::cell::RefCell;

use pip_mcoll::collectives::datatype::{DtypeId, ElemBuf};
use pip_mcoll::collectives::oracle;
use pip_mcoll::collectives::plan::{Fidelity, PlanOp};
use pip_mcoll::collectives::request::ProgressEngine;
use pip_mcoll::collectives::{
    CollectiveKind, Layout, OwnedReduction, ReduceKernel, ReduceOp, ThreadComm,
};
use pip_mcoll::model::plan::{compile_cluster, PlanCache};
use pip_mcoll::model::{dispatch, CollectiveShape, CompressSpec, Library, OwnedCollective};
use pip_mcoll::runtime::{Cluster, Topology};

const TOPOLOGIES: [(usize, usize); 5] = [(1, 1), (1, 4), (2, 3), (3, 3), (5, 2)];

/// Run every collective as a blocking call on the thread runtime (the
/// repeated allgather must hit the cache) and compare against the oracle.
#[test]
fn plan_executor_matches_oracle_for_every_collective_and_library() {
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let block = 5; // odd block size to stress uneven partitions
            let root = (world - 1) / 2;
            let profile = library.profile();

            let contributions: Vec<Vec<u8>> =
                (0..world).map(|r| oracle::rank_payload(r, block)).collect();
            let expected_allgather = oracle::allgather(&contributions);
            let expected_gather = oracle::gather(&contributions);
            let expected_allreduce = oracle::allreduce(&contributions, oracle::wrapping_add_u8);
            let scatter_src = oracle::rank_payload(root, world * block);
            let expected_scatter = oracle::scatter(&scatter_src, world);
            let bcast_src = oracle::rank_payload(root, block);
            let alltoall_inputs: Vec<Vec<u8>> = (0..world)
                .map(|r| oracle::rank_payload(r, world * block))
                .collect();
            let expected_alltoall = oracle::alltoall(&alltoall_inputs, world);

            let scatter_src_ref = &scatter_src;
            let bcast_src_ref = &bcast_src;
            let results = Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                let rank = ctx.rank();
                let cache = RefCell::new(PlanCache::new());
                let mut tag = 0u64;
                let mut run = |request: OwnedCollective<ElemBuf>| {
                    tag += 1 << 16;
                    let mut cache = cache.borrow_mut();
                    let u8s = DtypeId::U8;
                    let recv =
                        dispatch::run_blocking(&profile, &comm, request, u8s, tag, &mut cache);
                    recv.map(|buf| buf.to_vec())
                };

                // Allgather, twice (the repeat must be served by the cache).
                let sendbuf = oracle::rank_payload(rank, block);
                let mut allgather_out = None;
                for _ in 0..2 {
                    allgather_out = run(OwnedCollective::Allgather {
                        sendbuf: sendbuf.clone().into(),
                    });
                }

                // Scatter from a mid-world root.
                let scatter_out = run(OwnedCollective::Scatter {
                    sendbuf: (rank == root).then(|| scatter_src_ref.clone().into()),
                    block,
                    root,
                });

                // Bcast from the same root.
                let bcast_out = run(OwnedCollective::Bcast {
                    buf: if rank == root {
                        bcast_src_ref.clone().into()
                    } else {
                        vec![0u8; block].into()
                    },
                    root,
                });

                // Gather to the root.
                let gather_out = run(OwnedCollective::Gather {
                    sendbuf: sendbuf.clone().into(),
                    root,
                });

                // Allreduce (byte-wise wrapping sum).
                let allreduce_out = run(OwnedCollective::Allreduce {
                    buf: oracle::rank_payload(rank, block).into(),
                    op: OwnedReduction::Typed(ReduceKernel::of::<u8>(ReduceOp::Sum)),
                    layout: None,
                    compress: None,
                });

                // Alltoall.
                let alltoall_out = run(OwnedCollective::Alltoall {
                    sendbuf: oracle::rank_payload(rank, world * block).into(),
                });

                // Barrier.
                assert_eq!(run(OwnedCollective::Barrier), None);

                let (hits, misses) = cache.borrow().stats();
                (
                    allgather_out,
                    scatter_out,
                    bcast_out,
                    gather_out,
                    allreduce_out,
                    alltoall_out,
                    hits,
                    misses,
                )
            })
            .unwrap();

            for (rank, result) in results.iter().enumerate() {
                let ctx = format!("{} on {nodes}x{ppn} rank {rank}", library.name());
                let (allgather, scatter, bcast, gather, allreduce, alltoall, hits, misses) = result;
                assert_eq!(
                    allgather,
                    &Some(expected_allgather.clone()),
                    "allgather {ctx}"
                );
                assert_eq!(
                    scatter,
                    &Some(expected_scatter[rank].clone()),
                    "scatter {ctx}"
                );
                assert_eq!(bcast, &Some(bcast_src.clone()), "bcast {ctx}");
                let expected_gather = (rank == root).then(|| expected_gather.clone());
                assert_eq!(gather, &expected_gather, "gather {ctx}");
                assert_eq!(
                    allreduce,
                    &Some(expected_allreduce.clone()),
                    "allreduce {ctx}"
                );
                assert_eq!(
                    alltoall,
                    &Some(expected_alltoall[rank].clone()),
                    "alltoall {ctx}"
                );
                assert_eq!(*hits, 1, "repeated allgather must hit the cache ({ctx})");
                assert_eq!(
                    *misses, 7,
                    "seven distinct shapes compile once each ({ctx})"
                );
            }
        }
    }
}

/// Elements per rank block of the in-place-vs-engine table.
const COUNT: usize = 6;
/// The strided allreduce: three blocks of two elements, starts four apart.
const STRIDED: Layout = Layout {
    count: 3,
    blocklen: 2,
    stride: 4,
};
/// What the gap elements of the strided buffer hold before and after.
const GAP: i32 = 0x0EEE_EEEE;

/// Rank `rank`'s `blocks` blocks of `f32`s (the compressed row needs
/// floats; every row's operator is the `f32` sum but the strided row's).
fn floats(rank: usize, blocks: usize) -> ElemBuf {
    let values: Vec<f32> = (0..blocks * COUNT)
        .map(|i| ((rank * 5 + i * 3) % 17) as f32 * 0.25)
        .collect();
    ElemBuf::F32(values)
}

fn f32_sum() -> OwnedReduction {
    OwnedReduction::Typed(ReduceKernel::of::<f32>(ReduceOp::Sum))
}

/// One row per collective kind — every [`CollectiveKind`] but the barrier,
/// which has no bytes to compare — plus the two allreduce variants that take
/// their own route through the cursor: strided (packed staging) and
/// compressed (unsized receives).  Each builds rank `rank`'s invocation on
/// a `world`-rank world rooted at `root`.
type Row = (
    &'static str,
    fn(usize, usize, usize) -> OwnedCollective<ElemBuf>,
);
const ROWS: [Row; 12] = [
    ("allgather", |rank, _, _| OwnedCollective::Allgather {
        sendbuf: floats(rank, 1),
    }),
    ("scatter", |rank, world, root| OwnedCollective::Scatter {
        // Every rank passes a buffer; it is significant only at the root.
        sendbuf: Some(floats(rank, world)),
        block: COUNT * 4,
        root,
    }),
    ("bcast", |rank, _, root| OwnedCollective::Bcast {
        buf: floats(rank, 1),
        root,
    }),
    ("gather", |rank, _, root| OwnedCollective::Gather {
        sendbuf: floats(rank, 1),
        root,
    }),
    ("allreduce", |rank, _, _| OwnedCollective::Allreduce {
        buf: floats(rank, 1),
        op: f32_sum(),
        layout: None,
        compress: None,
    }),
    ("reduce", |rank, _, root| OwnedCollective::Reduce {
        sendbuf: floats(rank, 1),
        root,
        op: f32_sum(),
    }),
    ("reduce_scatter", |rank, world, _| {
        OwnedCollective::ReduceScatter {
            sendbuf: floats(rank, world),
            op: f32_sum(),
        }
    }),
    ("scan", |rank, _, _| OwnedCollective::Scan {
        buf: floats(rank, 1),
        op: f32_sum(),
    }),
    ("exscan", |rank, _, _| OwnedCollective::Exscan {
        buf: floats(rank, 1),
        op: f32_sum(),
    }),
    ("alltoall", |rank, world, _| OwnedCollective::Alltoall {
        sendbuf: floats(rank, world),
    }),
    ("strided allreduce", |rank, _, _| {
        let mut elems = vec![GAP; STRIDED.extent()];
        for (i, elem) in elems.iter_mut().enumerate() {
            if i % STRIDED.stride < STRIDED.blocklen {
                *elem = (rank * 10 + i) as i32;
            }
        }
        OwnedCollective::Allreduce {
            buf: ElemBuf::I32(elems),
            op: OwnedReduction::Typed(ReduceKernel::of::<i32>(ReduceOp::Sum)),
            layout: Some(STRIDED),
            compress: None,
        }
    }),
    ("compressed allreduce", |rank, _, _| {
        OwnedCollective::Allreduce {
            buf: floats(rank, 1),
            op: f32_sum(),
            layout: None,
            compress: Some(CompressSpec::from_bound(1e-3, 0)),
        }
    }),
];

/// Every row of [`ROWS`], for every library on three topologies, once
/// through `run_blocking` (a cursor driven in place) and once through
/// `begin_planned` + a `ProgressEngine` (a cursor driven beside the engine's
/// other requests), from one plan cache: byte-identical results, one
/// compile per shape, every scope retired, strided gaps untouched.
#[test]
fn in_place_and_engine_driven_cursors_agree_for_every_collective_and_library() {
    for library in Library::ALL {
        for (nodes, ppn) in [(1, 4), (2, 3), (3, 3)] {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let root = world / 2;
            let profile = library.profile();
            let what = format!("{} on {nodes}x{ppn}", library.name());

            // The compressed row must really cross the unsized-receive path
            // wherever the schedule has a wire to compress on.
            if nodes > 1 {
                let (_, compressed) = ROWS[ROWS.len() - 1];
                let shape = compressed(0, world, root).shape(world);
                let plan = compile_cluster(&profile, topo, &shape, Fidelity::Exec);
                let lossy = |op: &PlanOp| matches!(op, PlanOp::Decompress { .. });
                let compressed = plan.ranks().any(|rank| rank.ops.iter().any(lossy));
                assert!(compressed, "{what}: nothing was compressed");
            }

            Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                let rank = ctx.rank();
                let mut cache = PlanCache::new();
                let mut engine = ProgressEngine::new();
                let mut tag = 0u64;
                let mut next_tag = || {
                    tag += 1 << 16;
                    tag
                };
                for (name, build) in ROWS {
                    let strided = name == "strided allreduce";
                    let dtype = if strided { DtypeId::I32 } else { DtypeId::F32 };
                    let request = build(rank, world, root);
                    let in_place = dispatch::run_blocking(
                        &profile,
                        &comm,
                        request,
                        dtype,
                        next_tag(),
                        &mut cache,
                    );
                    let request = build(rank, world, root);
                    let cursor = dispatch::begin_planned(
                        &profile,
                        &comm,
                        request,
                        dtype,
                        next_tag(),
                        &mut cache,
                    );
                    let id = engine.submit(cursor);
                    let driven = engine.wait(ctx, id).recvbuf;
                    // Equal bytes; the typed results keep the element type.
                    let bytes = |buf: &Option<ElemBuf>| buf.as_deref().map(<[u8]>::to_vec);
                    assert_eq!(
                        bytes(&in_place),
                        bytes(&driven),
                        "{name}, {what}, rank {rank}"
                    );
                    let dtypes = (
                        in_place.map(|b| b.dtype()),
                        driven.as_ref().map(ElemBuf::dtype),
                    );
                    assert_eq!(dtypes.0, dtypes.1, "{name}, {what}, rank {rank}");
                    if strided {
                        let elems = match driven {
                            Some(ElemBuf::I32(elems)) => elems,
                            other => panic!("strided result {other:?}"),
                        };
                        for (i, elem) in elems.into_iter().enumerate() {
                            let in_gap = i % STRIDED.stride >= STRIDED.blocklen;
                            assert_eq!(elem == GAP, in_gap, "element {i}, {what}, rank {rank}");
                        }
                    }
                }
                let barrier = OwnedCollective::Barrier;
                let u8s = DtypeId::U8;
                dispatch::run_blocking(&profile, &comm, barrier, u8s, next_tag(), &mut cache);
                let rows = ROWS.len() as u64;
                assert_eq!(
                    cache.stats(),
                    (rows, rows + 1),
                    "one compile per shape, {what}"
                );
                assert_eq!(cache.bypasses(), 0, "{what}");
                // Once the node's ranks are all through, no scope is left.
                ctx.node_barrier();
                assert_eq!(ctx.node().exposed_count(), 0, "{what}");
            })
            .unwrap();
        }
    }
}

/// Every collective's schedule-fidelity cluster plan passes the whole-plan
/// validator, for every library on a topology grid.
#[test]
fn schedule_plans_validate_for_every_collective_and_library() {
    for library in Library::ALL {
        for (nodes, ppn) in [(2, 3), (3, 3), (4, 3), (5, 2)] {
            let topo = Topology::new(nodes, ppn);
            let profile = library.profile();
            let root = topo.world_size() - 1;
            for kind in CollectiveKind::ALL {
                let case = CollectiveShape::plain(kind, 64, root);
                let plan = compile_cluster(&profile, topo, &case, Fidelity::Schedule);
                plan.validate().unwrap_or_else(|e| {
                    panic!(
                        "{} {kind:?} on {nodes}x{ppn}: plan invalid: {e}",
                        library.name()
                    )
                });
            }
        }
    }
}

/// Exec-fidelity plans carry the same schedule as schedule-fidelity ones —
/// tracking where payload bytes come from must not perturb the op stream.
#[test]
fn exec_and_schedule_fidelity_agree_on_the_schedule() {
    let topo = Topology::new(3, 2);
    for library in [Library::PipMColl, Library::OpenMpi, Library::PipMpich] {
        let profile = library.profile();
        for kind in [
            CollectiveKind::Allgather,
            CollectiveKind::Allreduce,
            CollectiveKind::Alltoall,
        ] {
            let case = shape(kind, 24, 0);
            let schedule = compile_cluster(&profile, topo, &case, Fidelity::Schedule);
            let exec = compile_cluster(&profile, topo, &case, Fidelity::Exec);
            assert_eq!(
                exec.to_trace(1),
                schedule.to_trace(1),
                "{} {kind:?}: fidelities disagree on the schedule",
                library.name()
            );
        }
    }
}

/// The folded replay is pinned against the full replay on every collective
/// × library × topology of the lowering grid: identical makespans, per-rank
/// finish times and statistics whether or not the schedule actually folds
/// (unfoldable schedules take the fallback path inside `run_folded`).  The
/// probe-based folded compilation must also agree with trace-level fold
/// detection and expand to the full lowering.
#[test]
fn folded_replay_matches_full_replay_for_every_collective_and_library() {
    use pip_mcoll::model::plan::compile_folded;
    use pip_mcoll::netsim::{FoldedTrace, SimEngine, SimParams};

    let engine = SimEngine::new(SimParams::default());
    let mut folded_cases = 0usize;
    for library in Library::ALL {
        for (nodes, ppn) in [(2, 3), (3, 3), (4, 3), (5, 2), (8, 2)] {
            let topo = Topology::new(nodes, ppn);
            let profile = library.profile();
            let bytes = 64;
            let root = topo.world_size() - 1;
            let cases = [
                shape(CollectiveKind::Allgather, bytes, 0),
                shape(CollectiveKind::Scatter, bytes, root),
                shape(CollectiveKind::Bcast, bytes, root),
                shape(CollectiveKind::Gather, bytes, root),
                shape(CollectiveKind::Allreduce, bytes, 0),
                shape(CollectiveKind::Alltoall, bytes, 0),
                shape(CollectiveKind::Barrier, 0, 0),
            ];
            for case in cases {
                let ctx = format!("{} {:?} on {nodes}x{ppn}", library.name(), case.kind);
                let plan = compile_cluster(&profile, topo, &case, Fidelity::Schedule);
                let trace = plan.to_trace(1);

                // Replay differential: folded == full, bit for bit where
                // the quantities are order-independent.
                let full = engine
                    .run(&trace)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let folded = engine
                    .run_folded(&trace)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_eq!(folded.makespan, full.makespan, "{ctx}: makespan");
                assert_eq!(folded.rank_finish, full.rank_finish, "{ctx}: rank_finish");
                assert_eq!(
                    folded.stats.internode_messages, full.stats.internode_messages,
                    "{ctx}: internode_messages"
                );
                assert_eq!(
                    folded.stats.internode_bytes, full.stats.internode_bytes,
                    "{ctx}: internode_bytes"
                );
                assert_eq!(
                    folded.stats.intranode_messages, full.stats.intranode_messages,
                    "{ctx}: intranode_messages"
                );
                assert_eq!(
                    folded.stats.barrier_episodes, full.stats.barrier_episodes,
                    "{ctx}: barrier_episodes"
                );

                // Analysis consistency: probe-based folded compilation must
                // fold exactly the traces whole-trace detection folds.
                let probed = compile_folded(&profile, topo, &case, 1);
                assert_eq!(
                    probed.is_some(),
                    FoldedTrace::detect(&trace).is_some(),
                    "{ctx}: probe-based compile disagrees with trace detection"
                );
                if let Some(probed) = probed {
                    folded_cases += 1;
                    assert_eq!(
                        probed.expand(),
                        trace,
                        "{ctx}: folded compile expands to a different trace"
                    );
                }
            }
        }
    }
    // The pin is only meaningful if a healthy share of the grid folds.
    assert!(
        folded_cases >= 40,
        "only {folded_cases} folded cases across the grid"
    );
}

fn shape(kind: CollectiveKind, block: usize, root: usize) -> CollectiveShape {
    CollectiveShape {
        kind,
        block,
        root,
        elem_size: 1,
        reduce: None,
        layout: None,
        compress: None,
    }
}
