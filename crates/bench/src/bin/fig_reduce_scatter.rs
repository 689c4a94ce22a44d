//! Reduce_scatter sweep on the paper's testbed: MPI_Reduce_scatter_block
//! with small per-process blocks (16–512 B) on 128 nodes × 18 processes per
//! node, comparing Open MPI, Intel MPI, MVAPICH2, PiP-MPICH and PiP-MColl.
//!
//! The paper's chunked-ownership allreduce (§2) is exactly reduce_scatter
//! followed by allgather, so this sweep isolates the first half: the
//! multi-object chunk-ownership exchange against the classic recursive-
//! halving and ring schedules of the comparators.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin fig_reduce_scatter
//! ```

#![forbid(unsafe_code)]

use pip_collectives::CollectiveKind;
use pip_mcoll_bench::figures::{collective_comparison, PAPER_SMALL_SIZES};
use pip_mcoll_bench::report::render_scaled_table;
use pip_netsim::cluster::ClusterSpec;

fn main() {
    let cluster = ClusterSpec::hpdc23();
    let table = collective_comparison(CollectiveKind::ReduceScatter, cluster, &PAPER_SMALL_SIZES);
    println!("=== Reduce_scatter, small messages, 128 nodes x 18 ppn ===\n");
    println!("{}", render_scaled_table(&table));
    let (size, speedup) = table.best_speedup_vs_fastest_competitor();
    println!(
        "Best PiP-MColl speedup over the fastest competitor: {:.2}x at {} B",
        speedup, size
    );
}
