//! Quickstart: launch a simulated 2-node × 4-process cluster inside this
//! process, run a few collectives with the PiP-MColl algorithms, and verify
//! the results.
//!
//! ```text
//! cargo run --example quickstart
//! ```

#![forbid(unsafe_code)]

use pip_mcoll::core::prelude::*;

fn main() {
    // A "cluster" of 2 nodes with 4 PiP tasks each, using the paper's
    // multi-object algorithms.
    let results = World::builder()
        .nodes(2)
        .ppn(4)
        .library(Library::PipMColl)
        .run(|comm| {
            // Every rank contributes its rank id; allgather returns the full
            // vector on every rank.
            let gathered = comm.allgather(&[comm.rank() as u32]);

            // The root scatters one double per rank.
            let scattered = if comm.rank() == 0 {
                let payload: Vec<f64> = (0..comm.size()).map(|r| r as f64 * 1.5).collect();
                comm.scatter(Some(&payload), 1, 0)
            } else {
                comm.scatter(None, 1, 0)
            };

            // Global sum of every rank's value.
            let mut sum = [comm.rank() as u64 + 1];
            comm.allreduce(&mut sum, ReduceOp::Sum);

            comm.barrier();
            (gathered, scattered[0], sum[0])
        })
        .expect("cluster ran to completion");

    let world = results.len();
    for (rank, (gathered, scattered, sum)) in results.iter().enumerate() {
        assert_eq!(gathered.len(), world);
        assert_eq!(*scattered, rank as f64 * 1.5);
        assert_eq!(*sum, (world * (world + 1) / 2) as u64);
    }
    println!("quickstart: {world} ranks ran allgather, scatter, allreduce and barrier");
    println!("rank 0 allgather result: {:?}", results[0].0);
    println!("rank 3 scatter block:    {}", results[3].1);
    println!("global sum (all ranks):  {}", results[0].2);
}
