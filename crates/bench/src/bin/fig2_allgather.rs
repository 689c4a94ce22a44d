//! Regenerates **Figure 2** of the paper: MPI_Allgather with small messages
//! (16–512 B per process) on 128 nodes × 18 processes per node.
//!
//! The paper's headline: PiP-MColl is the fastest implementation at every
//! size and is over 4.6× as fast as the fastest competitor at 64 B, while
//! PiP-MPICH (the non-multi-object PiP baseline) is sometimes the slowest
//! implementation because of its message-size synchronization overhead.
//! The binary asserts the first two claims after printing the table.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin fig2_allgather
//! ```

#![forbid(unsafe_code)]

use pip_collectives::CollectiveKind;
use pip_mcoll_bench::figures::{collective_comparison, PAPER_SMALL_SIZES};
use pip_mcoll_bench::report::render_scaled_table;
use pip_mpi_model::Library;
use pip_netsim::cluster::ClusterSpec;

fn main() {
    let cluster = ClusterSpec::hpdc23();
    let table = collective_comparison(CollectiveKind::Allgather, cluster, &PAPER_SMALL_SIZES);
    println!("=== Figure 2: MPI_Allgather, small messages, 128 nodes x 18 ppn ===\n");
    println!("{}", render_scaled_table(&table));

    let idx_64 = table.sizes.iter().position(|&s| s == 64).unwrap();
    let fastest_other = Library::ALL
        .iter()
        .filter(|&&l| l != Library::PipMColl)
        .map(|&l| table.series_for(l).time_us[idx_64])
        .fold(f64::INFINITY, f64::min);
    let speedup_64 = fastest_other / table.series_for(Library::PipMColl).time_us[idx_64];
    println!(
        "Paper reference: over 4.6x vs the fastest competitor at 64 B; reproduced: {speedup_64:.2}x"
    );
    println!(
        "Paper reference: PiP-MPICH sometimes slowest; reproduced: slowest at {} of {} sizes",
        table.pip_mpich_worst_count(),
        table.sizes.len()
    );
    assert!(
        table.pip_mcoll_fastest_everywhere(),
        "PiP-MColl is not the fastest library at every size"
    );
    assert!(
        speedup_64 >= 4.6,
        "the paper reports over 4.6x at 64 B; reproduced {speedup_64:.2}x"
    );
}
