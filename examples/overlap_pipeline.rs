//! Overlapping a non-blocking allreduce with local compute, and pipelining
//! iterations through a persistent handle — the request-based API end to
//! end, with every result asserted against the expected value so this
//! example doubles as a smoke test (CI runs it).
//!
//! ```text
//! cargo run --example overlap_pipeline
//! ```
//!
//! The shape of the pipeline is the classic iterative-solver loop:
//!
//! ```text
//! iallreduce(x)  ──►  compute on local data  ──►  wait  ──►  next iteration
//! ```
//!
//! While the rank computes, messages the collective already posted keep
//! moving, and any `test`/`wait` on the communicator advances *every*
//! outstanding request — so interleaving several requests works too.

#![forbid(unsafe_code)]

use pip_mcoll::core::prelude::*;

/// Stand-in for application compute: a little arithmetic the optimizer
/// cannot delete.
fn local_compute(seed: u64, iters: u64) -> u64 {
    let mut acc = seed | 1;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

fn main() {
    let nodes = 2;
    let ppn = 3;
    let world = nodes * ppn;

    // --- Non-blocking allreduce overlapped with compute -----------------
    let results = World::builder()
        .nodes(nodes)
        .ppn(ppn)
        .library(Library::PipMColl)
        .run(|comm| {
            let rank = comm.rank() as u64;
            let contribution: Vec<u64> = (0..8).map(|i| rank * 100 + i).collect();

            // Post the collective, then compute while it progresses.
            let request = comm.iallreduce(&contribution, ReduceOp::Sum);
            let computed = local_compute(rank, 10_000);
            let reduced = request.wait();

            // Interleaved outstanding requests complete in any order.
            let r1 = comm.iallgather(&[rank]);
            let bcast_in = if comm.rank() == 0 { [7u64] } else { [0u64] };
            let r2 = comm.ibcast(&bcast_in, 0);
            let bcast = r2.wait();
            let gathered = r1.wait();

            (computed, reduced, gathered, bcast)
        })
        .expect("cluster ran to completion");

    let expected_reduced: Vec<u64> = (0..8)
        .map(|i| (0..world as u64).map(|r| r * 100 + i).sum())
        .collect();
    let expected_gathered: Vec<u64> = (0..world as u64).collect();
    for (rank, (computed, reduced, gathered, bcast)) in results.iter().enumerate() {
        assert_eq!(*computed, local_compute(rank as u64, 10_000));
        assert_eq!(
            reduced, &expected_reduced,
            "iallreduce result at rank {rank}"
        );
        assert_eq!(
            gathered, &expected_gathered,
            "iallgather result at rank {rank}"
        );
        assert_eq!(bcast, &[7u64], "ibcast result at rank {rank}");
    }
    println!("non-blocking allreduce + compute overlap: OK ({world} ranks)");

    // --- Persistent pipeline: compile once, start every iteration --------
    let iterations = 4u64;
    let results = World::builder()
        .nodes(nodes)
        .ppn(ppn)
        .library(Library::PipMColl)
        .run(|comm| {
            let rank = comm.rank() as u64;
            let mut handle = comm.allreduce_init(&[rank, rank], ReduceOp::Sum);
            let (_, misses_after_init) = comm.plan_stats();

            let mut sums = Vec::new();
            for iter in 0..iterations {
                // Refresh the pinned input, start, overlap compute, wait.
                handle.write_send(&[rank + iter, rank * 2 + iter]);
                handle.start();
                let _ = local_compute(rank ^ iter, 2_000);
                sums.push(handle.wait());
            }

            let (_, misses_after_loop) = comm.plan_stats();
            assert_eq!(
                misses_after_init, misses_after_loop,
                "persistent starts must reuse the compiled plan"
            );
            sums
        })
        .expect("cluster ran to completion");

    for (rank, sums) in results.iter().enumerate() {
        for iter in 0..iterations {
            let expected = [
                (0..world as u64).map(|r| r + iter).sum::<u64>(),
                (0..world as u64).map(|r| r * 2 + iter).sum::<u64>(),
            ];
            assert_eq!(
                sums[iter as usize], expected,
                "persistent allreduce at rank {rank}, iteration {iter}"
            );
        }
    }
    println!("persistent allreduce pipeline ({iterations} starts, one compile): OK");
}
