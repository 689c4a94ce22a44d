//! Integration test: invocation scopes — lifecycle, pool steady state,
//! isolation of interleaved collectives, and the end of barrier traffic.
//!
//! Every plan invocation resolves its shared regions and node barriers in a
//! node-local scope (`pip_runtime::scope`) that the node's last rank to
//! leave retires.  Pinned here, for every library:
//!
//! * (a) scopes never leak: `NodeSpace::exposed_count()` returns to where it
//!   was, whatever mix of blocking, `i*` and persistent calls ran — blocking
//!   calls too large for a plan, which run the algorithm directly and
//!   expose its regions by name, included;
//! * (b) the region pool reaches its steady state after one round;
//! * (c) six requests outstanding at once, completed in a different order on
//!   every rank, never see each other's regions or barrier arrivals — and
//!   never read a shared byte they did not write: debug builds hand out
//!   recycled regions filled with `0xA5`, so a stale read breaks the oracle
//!   comparison (recycled regions are *not* zero-filled; no compiled plan
//!   needs them to be);
//! * (d) node barriers cost no fabric messages any more;
//! * (e) the atomic barrier holds up on real threads: a thousand persistent
//!   starts with four one-shot collectives kept in flight, under seeded
//!   yields and sleeps between progress passes.

use std::collections::VecDeque;
use std::time::Duration;

use pip_mcoll::collectives::oracle;
use pip_mcoll::collectives::plan::{Fidelity, PlanOp};
use pip_mcoll::collectives::CollectiveKind;
use pip_mcoll::core::prelude::*;
use pip_mcoll::model::plan::{compile_rank, CollectiveShape};
use pip_mcoll::runtime::{Cluster, Fabric};

const TOPOLOGIES: [(usize, usize); 2] = [(2, 3), (4, 4)];
/// Elements per rank block.
const COUNT: usize = 4;

/// Rank `rank`'s block for (`round`, `salt`): small values, so `u32` sums
/// over any world here never wrap.
fn block(rank: usize, round: usize, salt: usize) -> Vec<u32> {
    (0..COUNT)
        .map(|i| ((rank * 7 + round * 3 + salt * 11 + i) % 251) as u32)
        .collect()
}

/// Rank `rank`'s `world` blocks (scatter root input, reduce_scatter input).
fn wide(rank: usize, round: usize, salt: usize, world: usize) -> Vec<u32> {
    (0..world)
        .flat_map(|b| block(rank + b, round, salt))
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Allgather,
    Scatter,
    Allreduce,
    ReduceScatter,
}

const KINDS: [Kind; 4] = [
    Kind::Allgather,
    Kind::Scatter,
    Kind::Allreduce,
    Kind::ReduceScatter,
];

/// What `rank` must receive from `kind` on inputs (`round`, `salt`).
fn expected(kind: Kind, rank: usize, round: usize, salt: usize, world: usize) -> Vec<u32> {
    let blocks: Vec<Vec<u32>> = (0..world).map(|r| block(r, round, salt)).collect();
    let wides: Vec<Vec<u32>> = (0..world).map(|r| wide(r, round, salt, world)).collect();
    match kind {
        Kind::Allgather => blocks.concat(),
        Kind::Scatter => wides[0][rank * COUNT..(rank + 1) * COUNT].to_vec(),
        Kind::Allreduce => oracle::allreduce_t(&blocks, ReduceOp::Sum),
        Kind::ReduceScatter => oracle::reduce_scatter_t(&wides, world, ReduceOp::Sum)[rank].clone(),
    }
}

/// Issue `kind` as a one-shot request (root 0 where rooted).
fn issue<'c>(
    comm: &'c Communicator<'_>,
    kind: Kind,
    round: usize,
    salt: usize,
) -> CollRequest<'c, Vec<u32>> {
    let (rank, world) = (comm.rank(), comm.size());
    match kind {
        Kind::Allgather => comm.iallgather(&block(rank, round, salt)),
        Kind::Scatter => {
            let src = (rank == 0).then(|| wide(0, round, salt, world));
            comm.iscatter(src.as_deref(), COUNT, 0)
        }
        Kind::Allreduce => comm.iallreduce(&block(rank, round, salt), ReduceOp::Sum),
        Kind::ReduceScatter => {
            comm.ireduce_scatter(&wide(rank, round, salt, world), COUNT, ReduceOp::Sum)
        }
    }
}

fn blocking(comm: &Communicator<'_>, kind: Kind, round: usize, salt: usize) -> Vec<u32> {
    let (rank, world) = (comm.rank(), comm.size());
    match kind {
        Kind::Allgather => comm.allgather(&block(rank, round, salt)),
        Kind::Scatter => {
            let src = (rank == 0).then(|| wide(0, round, salt, world));
            comm.scatter(src.as_deref(), COUNT, 0)
        }
        Kind::Allreduce => {
            let mut buf = block(rank, round, salt);
            comm.allreduce(&mut buf, ReduceOp::Sum);
            buf
        }
        Kind::ReduceScatter => {
            comm.reduce_scatter(&wide(rank, round, salt, world), COUNT, ReduceOp::Sum)
        }
    }
}

fn persistent<'c>(comm: &'c Communicator<'_>, kind: Kind) -> PersistentColl<'c, Vec<u32>> {
    let (rank, world) = (comm.rank(), comm.size());
    match kind {
        Kind::Allgather => comm.allgather_init(&block(rank, 0, 0)),
        Kind::Scatter => {
            let src = (rank == 0).then(|| wide(0, 0, 0, world));
            comm.scatter_init(src.as_deref(), COUNT, 0)
        }
        Kind::Allreduce => comm.allreduce_init(&block(rank, 0, 0), ReduceOp::Sum),
        Kind::ReduceScatter => {
            comm.reduce_scatter_init(&wide(rank, 0, 0, world), COUNT, ReduceOp::Sum)
        }
    }
}

/// Refresh a persistent handle's input for (`round`, `salt`).
fn rebind(
    handle: &mut PersistentColl<'_, Vec<u32>>,
    kind: Kind,
    rank: usize,
    round: usize,
    salt: usize,
    world: usize,
) {
    match kind {
        Kind::Allgather | Kind::Allreduce => handle.write_send(&block(rank, round, salt)),
        Kind::Scatter if rank == 0 => handle.write_send(&wide(0, round, salt, world)),
        Kind::Scatter => {}
        Kind::ReduceScatter => handle.write_send(&wide(rank, round, salt, world)),
    }
}

/// (a) + (b): 100 rounds of every collective in every entry style.  A node
/// barrier after each call keeps one invocation live per node, so the
/// pool's peak — and with it "no miss after round 0" — does not depend on
/// thread timing.
#[test]
fn scopes_are_retired_and_the_pool_reaches_a_steady_state() {
    const ROUNDS: usize = 100;
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let per_rank = Cluster::launch(topo, |ctx| {
                let node = ctx.node();
                let exposed_before = node.exposed_count();
                ctx.node_barrier();
                let comm = Communicator::new(ctx, library.profile());
                let rank = comm.rank();
                let mut handles = KINDS.map(|kind| persistent(&comm, kind));
                let mut misses_after_first = 0;
                for round in 0..ROUNDS {
                    for (k, kind) in KINDS.into_iter().enumerate() {
                        let got = blocking(&comm, kind, round, 0);
                        assert_eq!(got, expected(kind, rank, round, 0, world));
                        ctx.node_barrier();
                        let got = issue(&comm, kind, round, 1).wait();
                        assert_eq!(got, expected(kind, rank, round, 1, world));
                        ctx.node_barrier();
                        rebind(&mut handles[k], kind, rank, round, 2, world);
                        handles[k].start();
                        let got = handles[k].wait();
                        assert_eq!(got, expected(kind, rank, round, 2, world));
                        ctx.node_barrier();
                    }
                    if round == 0 {
                        misses_after_first = node.pool_stats().misses;
                    }
                }
                (
                    exposed_before,
                    node.exposed_count(),
                    misses_after_first,
                    node.pool_stats(),
                )
            })
            .unwrap();
            let what = format!("{library:?} on {nodes}x{ppn}");
            for (rank, (before, after, misses_after_first, pool)) in per_rank.iter().enumerate() {
                assert_eq!(after, before, "{what}: rank {rank} sees leaked regions");
                assert_eq!(
                    pool.misses, *misses_after_first,
                    "{what}: the region pool missed after the first round ({pool:?})"
                );
                if library == Library::PipMColl {
                    assert!(pool.hits > pool.misses, "{what}: {pool:?}");
                }
            }
        }
    }
}

/// (a) past the plan path: blocking calls whose buffers exceed
/// `EXEC_PLAN_MAX_BYTES` (4 MiB) run the algorithm on the communicator
/// itself, and its named regions (`mo_ag_{tag}`, `mo_ar_out_{tag}`, …)
/// must be retired when the call returns, not kept one per call.
#[test]
fn oversized_blocking_calls_release_their_regions() {
    const CALLS: usize = 2;
    // 2 MiB per rank (8 MiB gathered) and 5 MiB reduced.
    const GATHER: usize = (2 << 20) / 4;
    const REDUCE: usize = (5 << 20) / 4;
    let topo = Topology::new(1, 4);
    let world = topo.world_size();
    let counts = Cluster::launch(topo, |ctx| {
        let comm = Communicator::new(ctx, Library::PipMColl.profile());
        let rank = comm.rank() as u32;
        // Read between two barriers: no rank is inside a call meanwhile.
        let settled = || {
            ctx.node_barrier();
            let count = ctx.node().exposed_count();
            ctx.node_barrier();
            count
        };
        let mut counts = vec![settled()];
        for call in 0..CALLS as u32 {
            let got = comm.allgather(&vec![rank + call; GATHER]);
            assert!((0..world).all(|r| got[r * GATHER..(r + 1) * GATHER]
                .iter()
                .all(|&v| v == r as u32 + call)));
            counts.push(settled());
            let mut buf = vec![rank + call; REDUCE];
            comm.allreduce(&mut buf, ReduceOp::Sum);
            let sum = (0..world as u32).map(|r| r + call).sum::<u32>();
            assert!(buf.iter().all(|&v| v == sum));
            counts.push(settled());
        }
        counts
    })
    .unwrap();
    for (rank, counts) in counts.iter().enumerate() {
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "rank {rank}: exposed regions after each call {counts:?}"
        );
    }
}

/// (c): six requests outstanding at once, waited in an order rotated by
/// rank, over several rounds so that later rounds run on recycled (in debug
/// builds: poisoned) region buffers.
#[test]
fn interleaved_requests_stay_isolated_on_recycled_regions() {
    const ROUNDS: usize = 4;
    let mix = [
        Kind::Allgather,
        Kind::Scatter,
        Kind::Allreduce,
        Kind::ReduceScatter,
        Kind::Allgather,
        Kind::Allreduce,
    ];
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let what = format!("{library:?} on {nodes}x{ppn}");
            Cluster::launch(topo, |ctx| {
                let comm = Communicator::new(ctx, library.profile());
                let rank = comm.rank();
                for round in 0..ROUNDS {
                    let mut requests: Vec<_> = mix
                        .iter()
                        .enumerate()
                        .map(|(salt, &kind)| Some(issue(&comm, kind, round, salt)))
                        .collect();
                    for turn in 0..mix.len() {
                        let salt = (turn + rank) % mix.len();
                        let got = requests[salt].take().expect("waited once").wait();
                        assert_eq!(
                            got,
                            expected(mix[salt], rank, round, salt, world),
                            "{what}: rank {rank} round {round} request {salt} ({:?}) — a \
                             0xA5A5A5A5 element means a plan read a recycled region's bytes \
                             without writing them first",
                            mix[salt]
                        );
                    }
                }
                ctx.node_barrier();
                assert_eq!(ctx.node().exposed_count(), 0, "{what}: rank {rank}");
            })
            .unwrap();
        }
    }
}

/// (d): the fabric carries exactly the messages the plans send — the node
/// barriers of an `iallgather` on 4x4 no longer add arrival/release traffic.
#[test]
fn barriers_send_no_messages() {
    let topo = Topology::new(4, 4);
    let profile = Library::PipMColl.profile();
    let shape = CollectiveShape {
        kind: CollectiveKind::Allgather,
        block: COUNT * 4,
        root: 0,
        elem_size: 1,
        reduce: None,
        layout: None,
        compress: None,
    };
    let mut planned_sends = 0;
    let mut planned_barriers = 0;
    for rank in 0..topo.world_size() {
        let plan = compile_rank(&profile, topo, rank, &shape, Fidelity::Exec);
        for op in &plan.ops {
            match op {
                PlanOp::Send { .. } | PlanOp::SendFromShared { .. } | PlanOp::Compress { .. } => {
                    planned_sends += 1
                }
                PlanOp::NodeBarrier => planned_barriers += 1,
                _ => {}
            }
        }
    }
    assert!(planned_sends > 0 && planned_barriers > 0);

    let fabric = Fabric::new(topo.world_size());
    Cluster::launch_with_fabric(topo, fabric.clone(), |ctx| {
        let comm = Communicator::new(ctx, profile.clone());
        let got = comm.iallgather(&block(comm.rank(), 0, 0)).wait();
        assert_eq!(
            got,
            expected(Kind::Allgather, comm.rank(), 0, 0, comm.size())
        );
    })
    .unwrap();
    assert_eq!(fabric.stats().sends, planned_sends);
}

/// Seeded schedule noise between progress passes: mostly nothing, often a
/// yield, now and then a short sleep.
struct Perturb(u64);

impl Perturb {
    fn step(&mut self) {
        // xorshift64
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        match self.0 % 64 {
            0 => std::thread::sleep(Duration::from_micros(50)),
            1..=16 => std::thread::yield_now(),
            _ => {}
        }
    }
}

/// (e): back-to-back persistent allreduce starts, each polled to completion
/// under schedule noise while four one-shot collectives stay in flight (the
/// oldest is retired and replaced every eighth start).  A lost or mispaired
/// barrier arrival would stall until the progress timeout and panic.
fn barrier_stress(nodes: usize, ppn: usize, seed: u64) {
    const STARTS: usize = 1_000;
    const IN_FLIGHT: usize = 4;
    let topo = Topology::new(nodes, ppn);
    let world = topo.world_size();
    Cluster::launch(topo, |ctx| {
        let comm = Communicator::new(ctx, Library::PipMColl.profile());
        let rank = comm.rank();
        let mut noise = Perturb(seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut handle = persistent(&comm, Kind::Allreduce);
        let mut in_flight = VecDeque::new();
        let mut issued = 0;
        let retire = |in_flight: &mut VecDeque<(usize, CollRequest<'_, Vec<u32>>)>,
                      noise: &mut Perturb| {
            let (n, mut request) = in_flight.pop_front().expect("a request in flight");
            while !request.test() {
                noise.step();
            }
            let kind = KINDS[n % KINDS.len()];
            assert_eq!(request.wait(), expected(kind, rank, n, 1, world));
        };
        for start in 0..STARTS {
            while in_flight.len() < IN_FLIGHT {
                let kind = KINDS[issued % KINDS.len()];
                in_flight.push_back((issued, issue(&comm, kind, issued, 1)));
                issued += 1;
            }
            rebind(&mut handle, Kind::Allreduce, rank, start, 0, world);
            handle.start();
            while !handle.test() {
                noise.step();
            }
            assert_eq!(
                handle.wait(),
                expected(Kind::Allreduce, rank, start, 0, world),
                "rank {rank} start {start}"
            );
            if start % 8 == 7 {
                retire(&mut in_flight, &mut noise);
            }
        }
        while !in_flight.is_empty() {
            retire(&mut in_flight, &mut noise);
        }
        ctx.node_barrier();
        assert_eq!(ctx.node().exposed_count(), 0);
    })
    .unwrap();
}

#[test]
fn barrier_stress_one_node_of_eight() {
    barrier_stress(1, 8, 0x5EED_0001);
}

#[test]
fn barrier_stress_two_nodes_of_four() {
    barrier_stress(2, 4, 0x5EED_0002);
}
