//! Cross-crate integration tests: every collective, executed for real on the
//! thread runtime through the public `Communicator` API, for every modelled
//! library, across a grid of topologies — checked against the sequential
//! oracle.

use pip_mcoll::collectives::oracle;
use pip_mcoll::core::prelude::*;

const TOPOLOGIES: [(usize, usize); 5] = [(1, 1), (1, 4), (2, 3), (3, 2), (4, 4)];

fn for_each_config(mut f: impl FnMut(Library, usize, usize)) {
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            f(library, nodes, ppn);
        }
    }
}

#[test]
fn allgather_matches_oracle_everywhere() {
    for_each_config(|library, nodes, ppn| {
        let world = nodes * ppn;
        let expected: Vec<u32> = (0..world as u32).flat_map(|r| [r, r * 100]).collect();
        let results = World::builder()
            .nodes(nodes)
            .ppn(ppn)
            .library(library)
            .run(|comm| comm.allgather(&[comm.rank() as u32, comm.rank() as u32 * 100]))
            .unwrap();
        for r in results {
            assert_eq!(r, expected, "{} on {nodes}x{ppn}", library.name());
        }
    });
}

#[test]
fn scatter_matches_oracle_everywhere() {
    for_each_config(|library, nodes, ppn| {
        let world = nodes * ppn;
        let payload: Vec<i64> = (0..(world * 3) as i64).collect();
        let payload_ref = &payload;
        let results = World::builder()
            .nodes(nodes)
            .ppn(ppn)
            .library(library)
            .run(|comm| {
                let send = (comm.rank() == 0).then_some(payload_ref.as_slice());
                comm.scatter(send, 3, 0)
            })
            .unwrap();
        for (rank, block) in results.iter().enumerate() {
            let expected: Vec<i64> = (rank as i64 * 3..rank as i64 * 3 + 3).collect();
            assert_eq!(block, &expected, "{} on {nodes}x{ppn}", library.name());
        }
    });
}

#[test]
fn bcast_matches_oracle_everywhere() {
    for_each_config(|library, nodes, ppn| {
        let world = nodes * ppn;
        let root = world / 2;
        let results = World::builder()
            .nodes(nodes)
            .ppn(ppn)
            .library(library)
            .run(|comm| {
                let mut buf = if comm.rank() == root {
                    [13f32, -7.25, 0.5]
                } else {
                    [0.0; 3]
                };
                comm.bcast(&mut buf, root);
                buf
            })
            .unwrap();
        for buf in results {
            assert_eq!(
                buf,
                [13f32, -7.25, 0.5],
                "{} on {nodes}x{ppn}",
                library.name()
            );
        }
    });
}

#[test]
fn gather_matches_oracle_everywhere() {
    for_each_config(|library, nodes, ppn| {
        let world = nodes * ppn;
        let results = World::builder()
            .nodes(nodes)
            .ppn(ppn)
            .library(library)
            .run(|comm| comm.gather(&[comm.rank() as u16, 99], 0))
            .unwrap();
        let expected: Vec<u16> = (0..world as u16).flat_map(|r| [r, 99]).collect();
        assert_eq!(results[0].as_deref(), Some(expected.as_slice()));
        for other in &results[1..] {
            assert!(other.is_none());
        }
    });
}

#[test]
fn allreduce_sum_and_max_match_oracle_everywhere() {
    for_each_config(|library, nodes, ppn| {
        let world = nodes * ppn;
        let results = World::builder()
            .nodes(nodes)
            .ppn(ppn)
            .library(library)
            .run(|comm| {
                let mut sums = [comm.rank() as u64, 1];
                comm.allreduce(&mut sums, ReduceOp::Sum);
                let mut maxes = [comm.rank() as i32 - 5];
                comm.allreduce(&mut maxes, ReduceOp::Max);
                (sums, maxes)
            })
            .unwrap();
        let expected_sum = (world * (world - 1) / 2) as u64;
        for (sums, maxes) in results {
            assert_eq!(sums, [expected_sum, world as u64], "{}", library.name());
            assert_eq!(maxes, [world as i32 - 6], "{}", library.name());
        }
    });
}

#[test]
fn alltoall_matches_oracle_everywhere() {
    for_each_config(|library, nodes, ppn| {
        let world = nodes * ppn;
        let results = World::builder()
            .nodes(nodes)
            .ppn(ppn)
            .library(library)
            .run(|comm| {
                // Block j of rank i is i*1000 + j.
                let send: Vec<u32> = (0..world as u32)
                    .map(|j| comm.rank() as u32 * 1000 + j)
                    .collect();
                comm.alltoall(&send, 1)
            })
            .unwrap();
        for (rank, recv) in results.iter().enumerate() {
            let expected: Vec<u32> = (0..world as u32).map(|i| i * 1000 + rank as u32).collect();
            assert_eq!(recv, &expected, "{} on {nodes}x{ppn}", library.name());
        }
    });
}

/// Non-power-of-two worlds (9 and 10 ranks): recursive doubling cannot run
/// pure, so these force the Bruck allgather/alltoall paths and the binomial
/// fallback of every library's rule list.
const NONPOW2_TOPOLOGIES: [(usize, usize); 2] = [(3, 3), (5, 2)];

#[test]
fn allreduce_matches_oracle_on_nonpow2_topologies() {
    for library in Library::ALL {
        for (nodes, ppn) in NONPOW2_TOPOLOGIES {
            let world = nodes * ppn;
            let results = World::builder()
                .nodes(nodes)
                .ppn(ppn)
                .library(library)
                .run(|comm| {
                    // Three elements so reductions that split the payload
                    // across local ranks hit an uneven partition.
                    let rank = comm.rank() as u64;
                    let mut sums = [rank, rank * rank, 7];
                    comm.allreduce(&mut sums, ReduceOp::Sum);
                    let mut mins = [comm.rank() as i32 * -3 + 4];
                    comm.allreduce(&mut mins, ReduceOp::Min);
                    (sums, mins)
                })
                .unwrap();
            let sum: u64 = (0..world as u64).sum();
            let sq_sum: u64 = (0..world as u64).map(|r| r * r).sum();
            let min = (world as i32 - 1) * -3 + 4;
            for (sums, mins) in results {
                assert_eq!(
                    sums,
                    [sum, sq_sum, 7 * world as u64],
                    "{} allreduce sum on {nodes}x{ppn}",
                    library.name()
                );
                assert_eq!(
                    mins,
                    [min],
                    "{} allreduce min on {nodes}x{ppn}",
                    library.name()
                );
            }
        }
    }
}

#[test]
fn alltoall_matches_oracle_on_nonpow2_topologies() {
    for library in Library::ALL {
        for (nodes, ppn) in NONPOW2_TOPOLOGIES {
            let world = nodes * ppn;
            let block = 3; // multi-element blocks on an odd-sized world
            let results = World::builder()
                .nodes(nodes)
                .ppn(ppn)
                .library(library)
                .run(move |comm| {
                    let send: Vec<u16> = (0..world * block)
                        .map(|j| (comm.rank() * 10_000 + j) as u16)
                        .collect();
                    comm.alltoall(&send, block)
                })
                .unwrap();
            for (rank, recv) in results.iter().enumerate() {
                let expected: Vec<u16> = (0..world)
                    .flat_map(|sender| {
                        (0..block).map(move |e| (sender * 10_000 + rank * block + e) as u16)
                    })
                    .collect();
                assert_eq!(recv, &expected, "{} on {nodes}x{ppn}", library.name());
            }
        }
    }
}

#[test]
fn gather_matches_oracle_on_nonpow2_topologies_with_nonzero_root() {
    for library in Library::ALL {
        for (nodes, ppn) in NONPOW2_TOPOLOGIES {
            let world = nodes * ppn;
            // A root in the middle of the last node exercises the rotated
            // binomial tree rather than the rank-0 special case.
            let root = world - 2;
            let results = World::builder()
                .nodes(nodes)
                .ppn(ppn)
                .library(library)
                .run(move |comm| comm.gather(&[comm.rank() as u32, 7, 77], root))
                .unwrap();
            let expected: Vec<u32> = (0..world as u32).flat_map(|r| [r, 7, 77]).collect();
            for (rank, result) in results.iter().enumerate() {
                if rank == root {
                    assert_eq!(
                        result.as_deref(),
                        Some(expected.as_slice()),
                        "{} on {nodes}x{ppn}",
                        library.name()
                    );
                } else {
                    assert!(result.is_none(), "{} on {nodes}x{ppn}", library.name());
                }
            }
        }
    }
}

#[test]
fn bcast_matches_oracle_on_nonpow2_topologies_with_nonzero_roots() {
    for library in Library::ALL {
        for (nodes, ppn) in NONPOW2_TOPOLOGIES {
            let world = nodes * ppn;
            // Roots at the far end, mid-world (a non-leader on a middle
            // node), and rank 0 exercise the rotated binomial tree, the
            // representative selection of the hierarchical/multi-object
            // paths, and the common special case.
            for root in [world - 1, world / 2 + 1, 0] {
                let results = World::builder()
                    .nodes(nodes)
                    .ppn(ppn)
                    .library(library)
                    .run(move |comm| {
                        let mut buf = if comm.rank() == root {
                            [root as u64 * 11 + 1, 42, root as u64]
                        } else {
                            [0; 3]
                        };
                        comm.bcast(&mut buf, root);
                        buf
                    })
                    .unwrap();
                for buf in results {
                    assert_eq!(
                        buf,
                        [root as u64 * 11 + 1, 42, root as u64],
                        "{} bcast root {root} on {nodes}x{ppn}",
                        library.name()
                    );
                }
            }
        }
    }
}

#[test]
fn scatter_matches_oracle_on_nonpow2_topologies_with_nonzero_roots() {
    for library in Library::ALL {
        for (nodes, ppn) in NONPOW2_TOPOLOGIES {
            let world = nodes * ppn;
            for root in [world - 1, world / 2 + 1, 0] {
                let block = 3usize; // odd-sized blocks on an odd-sized world
                let payload: Vec<i32> = (0..(world * block) as i32).map(|v| v * 2 - 7).collect();
                let payload_ref = &payload;
                let results = World::builder()
                    .nodes(nodes)
                    .ppn(ppn)
                    .library(library)
                    .run(move |comm| {
                        let send = (comm.rank() == root).then_some(payload_ref.as_slice());
                        comm.scatter(send, block, root)
                    })
                    .unwrap();
                for (rank, got) in results.iter().enumerate() {
                    let expected = &payload[rank * block..(rank + 1) * block];
                    assert_eq!(
                        got.as_slice(),
                        expected,
                        "{} scatter root {root} on {nodes}x{ppn}",
                        library.name()
                    );
                }
            }
        }
    }
}

#[test]
fn repeated_collectives_hit_the_plan_cache() {
    // The production-traffic story: back-to-back identical collectives on
    // one communicator compile once and then run from the cache — and still
    // produce fresh, correct results every time.
    let results = World::builder()
        .nodes(2)
        .ppn(3)
        .library(Library::PipMColl)
        .run(|comm| {
            let mut gathered = Vec::new();
            for round in 0..5u32 {
                gathered = comm.allgather(&[comm.rank() as u32 + round * 100]);
            }
            let (hits, misses) = comm.plan_stats();
            (gathered, hits, misses)
        })
        .unwrap();
    for (gathered, hits, misses) in results {
        assert_eq!(gathered, vec![400, 401, 402, 403, 404, 405]);
        assert_eq!(misses, 1, "one compile for five identical calls");
        assert_eq!(hits, 4, "every repeat must hit the cache");
    }
}

#[test]
fn byte_level_collectives_match_oracle_on_random_payloads() {
    // Exercise the raw byte-level algorithms (as the dispatcher uses them)
    // on payloads from the oracle's deterministic generator.
    for library in [Library::PipMColl, Library::Mvapich2, Library::PipMpich] {
        let nodes = 3;
        let ppn = 3;
        let world = nodes * ppn;
        let block = 37; // deliberately odd
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let results = World::builder()
            .nodes(nodes)
            .ppn(ppn)
            .library(library)
            .run(|comm| comm.allgather(&oracle::rank_payload(comm.rank(), block)))
            .unwrap();
        for r in results {
            assert_eq!(r, expected, "{}", library.name());
        }
    }
}
