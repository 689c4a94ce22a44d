//! The ML gradient-sharding loop over the reduction family — every result
//! asserted against the expected value so this example doubles as a smoke
//! test (CI runs it).
//!
//! ```text
//! cargo run --example gradient_reduce
//! ```
//!
//! Three patterns, each the reduction-family workhorse of a real workload:
//!
//! 1. **`ireduce` overlapped with compute** — the parameter-server step:
//!    every worker contributes its gradient, the root applies the update
//!    while the next batch's forward pass runs.
//! 2. **`reduce_scatter` + `allgather`** — sharded data-parallel training
//!    (ZeRO-style): each rank owns one shard of the summed gradient, updates
//!    it locally, and the shards are allgathered back — the decomposition
//!    the paper's multi-object allreduce is built from (§2).
//! 3. **`scan`/`exscan`** — prefix sums over per-rank batch counts, the
//!    standard way to compute global sample offsets in a data pipeline.

#![forbid(unsafe_code)]

use pip_mcoll::core::prelude::*;

fn main() {
    let nodes = 2;
    let ppn = 3;
    let world = nodes * ppn;
    let shard = 4usize; // gradient elements owned per rank

    let results = World::builder()
        .nodes(nodes)
        .ppn(ppn)
        .library(Library::PipMColl)
        .run(|comm| {
            let rank = comm.rank() as i64;

            // Real f32 gradients, as a training loop would produce. The
            // values are multiples of 0.25 (exactly representable), so the
            // sums below are exact in any combination order and the
            // assertions can use `==`.
            let grad = |i: usize| (rank as f32 * 10.0 + i as f32) * 0.25;

            // --- 1. ireduce: parameter-server gradient aggregation ------
            let gradient: Vec<f32> = (0..8).map(grad).collect();
            let request = comm.ireduce(&gradient, ReduceOp::Sum, 0);
            // Overlap: the next batch's "forward pass" runs while the
            // reduction progresses.
            let mut forward = 1u64;
            for i in 0..5_000u64 {
                forward = forward.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            let aggregated = request.wait();
            if comm.rank() == 0 {
                let got = aggregated.expect("root receives the aggregate");
                for (i, value) in got.iter().enumerate() {
                    let want: f32 = (0..world)
                        .map(|r| (r as f32 * 10.0 + i as f32) * 0.25)
                        .sum();
                    assert_eq!(*value, want, "ireduce element {i}");
                }
            } else {
                assert!(aggregated.is_none(), "non-roots receive nothing");
            }

            // --- 2. reduce_scatter + allgather: sharded update ----------
            let full_gradient: Vec<f32> = (0..world * shard)
                .map(|i| rank as f32 * 0.25 + i as f32)
                .collect();
            let mut my_shard = comm.reduce_scatter(&full_gradient, shard, ReduceOp::Sum);
            // Local optimizer step on the owned shard only: average the
            // summed gradient across the data-parallel workers.
            for value in &mut my_shard {
                *value /= world as f32;
            }
            let updated = comm.allgather(&my_shard);
            assert_eq!(updated.len(), world * shard);
            let rank_sum: f32 = (0..world).map(|r| r as f32 * 0.25).sum();
            for (i, value) in updated.iter().enumerate() {
                let summed = rank_sum + (world * i) as f32;
                assert_eq!(*value, summed / world as f32, "sharded update element {i}");
            }

            // --- 3. scan/exscan: global sample offsets ------------------
            let batch = [rank + 1]; // rank r contributes r + 1 samples
            let mut offset = batch;
            comm.exscan(&mut offset, ReduceOp::Sum);
            let start = if comm.rank() == 0 { 0 } else { offset[0] };
            let mut total = batch;
            comm.scan(&mut total, ReduceOp::Sum);
            assert_eq!(start, (0..rank).map(|r| r + 1).sum::<i64>());
            assert_eq!(total[0], (0..=rank).map(|r| r + 1).sum::<i64>());

            (forward, start, total[0])
        })
        .unwrap();

    println!("gradient_reduce: all reduction-family assertions passed");
    for (rank, (_, start, through)) in results.iter().enumerate() {
        println!("  rank {rank}: samples [{start}, {through})");
    }
}
