//! Regenerates **Figure 1** of the paper: MPI_Scatter with small messages
//! (16–512 B per process) on 128 nodes × 18 processes per node, comparing
//! Open MPI, Intel MPI, MVAPICH2, PiP-MPICH and PiP-MColl.
//!
//! The paper reports scaled execution time normalized to PiP-MColl, clips
//! competitors above 4×, and highlights a best speedup of 65 % over the
//! fastest competitor at 256 B.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin fig1_scatter
//! ```

#![forbid(unsafe_code)]

use pip_collectives::CollectiveKind;
use pip_mcoll_bench::figures::{collective_comparison, PAPER_SMALL_SIZES};
use pip_mcoll_bench::report::render_scaled_table;
use pip_netsim::cluster::ClusterSpec;

fn main() {
    let cluster = ClusterSpec::hpdc23();
    let table = collective_comparison(CollectiveKind::Scatter, cluster, &PAPER_SMALL_SIZES);
    println!("=== Figure 1: MPI_Scatter, small messages, 128 nodes x 18 ppn ===\n");
    println!("{}", render_scaled_table(&table));
    let (size, speedup) = table.best_speedup_vs_fastest_competitor();
    println!(
        "Paper reference: best speedup 1.65x (65%) at 256 B; reproduced: {:.2}x at {} B",
        speedup, size
    );
}
