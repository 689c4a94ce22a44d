//! Ablation **ABL-LARGE**: the paper claims the design "also boosts
//! performance for larger messages, resulting in comprehensive improvement
//! for various message sizes."  This binary repeats the Figure 1/2
//! comparison for 1 KiB – 256 KiB per-process messages.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin abl_large_messages
//! ```

#![forbid(unsafe_code)]

use pip_collectives::CollectiveKind;
use pip_mcoll_bench::figures::{collective_comparison, LARGE_SIZES};
use pip_mcoll_bench::report::render_scaled_table;
use pip_netsim::cluster::ClusterSpec;

fn main() {
    // A fraction of the paper's node count keeps the largest cells (256 KiB
    // per process x 288 ranks: a 72 MiB allgather result per rank) within
    // seconds while preserving the wide-node regime (18 processes per node).
    let cluster = ClusterSpec::new(16, 18);
    println!("=== ABL-LARGE: larger messages (16 nodes x 18 ppn) ===\n");
    for kind in [CollectiveKind::Allgather, CollectiveKind::Scatter] {
        let table = collective_comparison(kind, cluster, &LARGE_SIZES);
        println!("{}", render_scaled_table(&table));
        println!();
    }
}
