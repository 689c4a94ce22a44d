//! Integration test: the execute plane's steady state is allocation-free.
//!
//! Persistent collectives (`*_init` → repeated `start()`) are the paper's
//! repeated-small-collective workload in API form.  With the plan cache the
//! repeats never recompile; with the buffer arena they must also never
//! allocate: every scratch buffer the second and later invocations need was
//! released into the communicator's arena by the first (value slots
//! locally, sent payloads replaced by the peers' symmetric receives).  The
//! pin is on the arena's miss counter — it stops moving after the first
//! invocation of each shape, on every rank — and, for PiP-MColl on 2×2, on
//! the exact number of buffers one steady-state start acquires.

use pip_mcoll::core::comm::Communicator;
use pip_mcoll::core::datatype::ReduceOp;
use pip_mcoll::core::world::World;
use pip_mcoll::model::Library;

/// Arena misses must stop after the first invocation of each persistent
/// shape; the collectives must stay correct across repeats with refreshed
/// inputs while not allocating.
fn assert_persistent_starts_are_allocation_free(library: Library, nodes: usize, ppn: usize) {
    let starts = 8usize;
    let results = World::builder()
        .nodes(nodes)
        .ppn(ppn)
        .library(library)
        .run(|comm| {
            let world = comm.size();
            let rank = comm.rank() as i64;
            let count = 16usize;

            let mut allreduce = comm.allreduce_init(&vec![0i64; count], ReduceOp::Sum);
            let rs_zero = vec![0i64; count * world];
            let mut reduce_scatter = comm.reduce_scatter_init(&rs_zero, count, ReduceOp::Sum);

            let mut misses_per_start = Vec::new();
            for round in 0..starts as i64 {
                // Refresh both inputs so every start moves distinct bytes.
                allreduce.write_send(&vec![rank + round; count]);
                allreduce.start();
                let reduced = allreduce.wait();
                let rank_sum: i64 = (0..world as i64).sum();
                assert_eq!(
                    reduced,
                    vec![rank_sum + world as i64 * round; count],
                    "round {round} allreduce wrong under {library:?}"
                );

                let rs_input: Vec<i64> = (0..world)
                    .flat_map(|block| vec![rank + block as i64 + round; count])
                    .collect();
                reduce_scatter.write_send(&rs_input);
                reduce_scatter.start();
                let block = reduce_scatter.wait();
                let expected = rank_sum + world as i64 * (rank + round);
                assert_eq!(
                    block,
                    vec![expected; count],
                    "round {round} reduce_scatter wrong under {library:?}"
                );

                misses_per_start.push(comm.arena_stats().misses);
            }
            (misses_per_start, comm.arena_stats())
        })
        .unwrap();

    for (rank, (misses_per_start, stats)) in results.iter().enumerate() {
        let after_first = misses_per_start[0];
        assert!(
            after_first > 0,
            "rank {rank}: the first invocation must fill the pool"
        );
        assert_eq!(
            misses_per_start[1..],
            vec![after_first; starts - 1][..],
            "rank {rank} under {library:?}: persistent starts allocated after the first \
             invocation (misses per start: {misses_per_start:?})"
        );
        assert!(
            stats.hits > stats.misses,
            "rank {rank}: the steady state must be dominated by pool hits ({stats:?})"
        );
    }
}

#[test]
fn pip_mcoll_persistent_starts_perform_zero_arena_misses_after_the_first() {
    assert_persistent_starts_are_allocation_free(Library::PipMColl, 2, 4);
}

#[test]
fn open_mpi_persistent_starts_perform_zero_arena_misses_after_the_first() {
    assert_persistent_starts_are_allocation_free(Library::OpenMpi, 2, 4);
}

/// Persistent *compressed* allreduce: a `Compress` op encodes into a frame
/// drawn from the arena and a `Decompress` op decodes into an arena buffer
/// and releases the frame it received, so the frames a rank's sends carry
/// away are replaced by the frames its receives bring in.  After the first
/// start nothing allocates, and every buffer acquired is released exactly
/// once — a receive never slips an extra buffer into the pool.
///
/// The pool is keyed by exact length, so a rank stays balanced only when
/// what it sends and receives falls into the same size classes.  That holds
/// for PiP-MColl's inter-node exchanges on any topology, but a ring with
/// several ranks per node sends one neighbour a raw (intra-node, exact)
/// buffer and gets a frame back from the other: the ring runs one rank per
/// node, where every edge is compressed.
fn assert_compressed_starts_are_balanced(library: Library, nodes: usize, ppn: usize) {
    const STARTS: usize = 50;
    const BOUND: f64 = 1e-3;
    let results = World::builder()
        .nodes(nodes)
        .ppn(ppn)
        .library(library)
        .run(|comm| {
            let world = comm.size();
            // Every inter-node ring chunk at the profile's wire threshold,
            // so the plan really carries Compress/Decompress ops.
            let len = world * library.profile().selection.compress_min_bytes / 8;
            let input = |rank: usize, round: usize| -> Vec<f64> {
                (0..len)
                    .map(|i| ((i + 97 * rank + 31 * round) as f64 * 0.003).sin())
                    .collect()
            };
            let mut allreduce =
                comm.allreduce_compressed_init(&vec![0.0f64; len], ReduceOp::Sum, BOUND);
            let mut stats = Vec::new();
            for round in 0..=STARTS {
                allreduce.write_send(&input(comm.rank(), round));
                allreduce.start();
                let reduced = allreduce.wait();
                let exact = (0..world).fold(vec![0.0; len], |mut acc, rank| {
                    acc.iter_mut()
                        .zip(input(rank, round))
                        .for_each(|(a, v)| *a += v);
                    acc
                });
                for (i, (got, want)) in reduced.iter().zip(&exact).enumerate() {
                    assert!(
                        (got - want).abs() <= BOUND + 1e-9,
                        "round {round} element {i}: {got} vs {want} under {library:?}"
                    );
                }
                stats.push(comm.arena_stats());
            }
            stats
        })
        .unwrap();

    for (rank, stats) in results.iter().enumerate() {
        let first = stats[0];
        for (start, now) in stats.iter().enumerate().skip(1) {
            assert_eq!(
                now.misses, first.misses,
                "rank {rank} under {library:?}: start {start} allocated ({now:?} after {first:?})"
            );
            let acquired = (now.hits - first.hits) + (now.misses - first.misses);
            assert_eq!(
                now.released - first.released,
                acquired,
                "rank {rank} under {library:?}: {start} starts acquired {acquired} buffers but \
                 released {} ({now:?} after {first:?})",
                now.released - first.released
            );
        }
    }
}

#[test]
fn pip_mcoll_compressed_persistent_starts_keep_the_arena_balanced() {
    assert_compressed_starts_are_balanced(Library::PipMColl, 2, 2);
}

#[test]
fn open_mpi_compressed_persistent_starts_keep_the_arena_balanced() {
    assert_compressed_starts_are_balanced(Library::OpenMpi, 4, 1);
}

/// Arena acquisitions (hits plus misses) of one steady-state `start()`:
/// the first start fills the pool, and every later one must acquire exactly
/// as many buffers as the second.
fn acquisitions_per_start(comm: &Communicator, mut start: impl FnMut()) -> u64 {
    let acquired = || {
        let stats = comm.arena_stats();
        stats.hits + stats.misses
    };
    start();
    let per_start: Vec<u64> = (0..3)
        .map(|_| {
            let before = acquired();
            start();
            acquired() - before
        })
        .collect();
    assert!(
        per_start.iter().all(|&n| n == per_start[0]),
        "rank {}: steady-state starts acquired {per_start:?} buffers",
        comm.rank()
    );
    per_start[0]
}

/// Copy-count guard: exactly how many scratch buffers one steady-state
/// start of PiP-MColl's persistent allgather, allreduce and compressed
/// allreduce takes from the arena on 2×2, per rank.  Output writes of value
/// slots are flushed straight from the slots and take no buffer, a shared
/// read whose value fills one range of the output and nothing else lands
/// there directly and takes none either, and a region published or written
/// from one range of the caller's buffer is filled from it in place; a
/// stray copy shows up here as a larger count.
#[test]
fn pip_mcoll_steady_state_starts_acquire_a_pinned_number_of_buffers() {
    let library = Library::PipMColl;
    let results = World::builder()
        .nodes(2)
        .ppn(2)
        .library(library)
        .run(|comm| {
            let rank = comm.rank();
            let len = comm.size() * library.profile().selection.compress_min_bytes / 8;
            let input: Vec<f64> = (0..len).map(|i| (i + 97 * rank) as f64 * 0.5).collect();

            let mut allgather = comm.allgather_init(&input[..256]);
            let gathered = acquisitions_per_start(comm, || {
                allgather.start();
                let out = allgather.wait();
                assert_eq!(out[256 * rank..256 * (rank + 1)], input[..256]);
            });
            let mut allreduce = comm.allreduce_init(&input, ReduceOp::Sum);
            let reduced = acquisitions_per_start(comm, || {
                allreduce.start();
                allreduce.wait();
            });
            let mut compressed = comm.allreduce_compressed_init(&input, ReduceOp::Sum, 1e-3);
            let compressed = acquisitions_per_start(comm, || {
                compressed.start();
                compressed.wait();
            });
            [gathered, reduced, compressed]
        })
        .unwrap();
    // A cursor that also copied every value-slot output write took
    // [4, 11, 13], [3, 11, 13], [6, 11, 13] and [5, 11, 13]; one that read
    // every shared region into a value slot took [3, 9, 11], [2, 9, 11],
    // [4, 9, 11] and [3, 9, 11]; one that staged every published or
    // written region in a buffer took [2, 8, 10], [1, 8, 10], [2, 8, 10]
    // and [1, 8, 10].
    assert_eq!(
        results,
        vec![[1, 7, 9], [0, 7, 9], [1, 7, 9], [0, 7, 9]],
        "arena acquisitions per start of [allgather, allreduce, compressed allreduce], by rank"
    );
}

/// The blocking dispatch path shares the same arena: back-to-back blocking
/// allreduces on a communicator stop allocating once the first call of the
/// shape has filled the pool.
#[test]
fn repeated_blocking_collectives_reuse_the_arena() {
    let results = World::builder()
        .nodes(2)
        .ppn(2)
        .library(Library::PipMColl)
        .run(|comm| {
            let mut misses_per_call = Vec::new();
            for round in 0..6i64 {
                let mut buf = [comm.rank() as i64 + round; 8];
                comm.allreduce(&mut buf, ReduceOp::Sum);
                assert_eq!(buf[0], 6 + 4 * round);
                misses_per_call.push(comm.arena_stats().misses);
            }
            misses_per_call
        })
        .unwrap();
    for (rank, misses_per_call) in results.iter().enumerate() {
        assert_eq!(
            misses_per_call[1..],
            vec![misses_per_call[0]; 5][..],
            "rank {rank}: repeated blocking allreduces must be served from the arena \
             ({misses_per_call:?})"
        );
    }
}
