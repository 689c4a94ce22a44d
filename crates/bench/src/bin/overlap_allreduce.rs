//! Communication/computation overlap of a non-blocking allreduce, per
//! library, on the paper's cluster — one table row per library × message
//! size.
//!
//! For every library × message size the compute interval is set to that
//! library's own collective makespan (the fully-hideable operating point),
//! so the overlap efficiency answers: *if the application has exactly
//! enough compute to hide the collective, what fraction does this schedule
//! actually hide?*  The paper's async-leader argument predicts multi-object
//! schedules — where every local rank posts its own network work up front —
//! hide more than designs that must synchronize before injecting.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin overlap_allreduce
//! ```

#![forbid(unsafe_code)]

use pip_mcoll_bench::overlap::{allreduce_overlap_sweep, OVERLAP_MODEL_SLACK};
use pip_netsim::cluster::ClusterSpec;

fn main() {
    let cluster = ClusterSpec::hpdc23();
    let sizes = [16usize, 64, 256, 1024, 4096];
    println!(
        "=== Overlap: non-blocking MPI_Allreduce on {}x{}, compute = own collective makespan ===\n",
        cluster.nodes, cluster.ppn
    );
    println!(
        "| library | bytes | compute (ns) | collective (ns) | blocking (ns) | overlapped (ns) | overlap efficiency |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for point in allreduce_overlap_sweep(cluster, &sizes, 1.0) {
        println!(
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.4} |",
            point.library.name(),
            point.bytes,
            point.compute_ns,
            point.collective_ns,
            point.blocking_ns,
            point.overlapped_ns,
            point.efficiency
        );
        assert!(
            point.overlapped_ns <= point.blocking_ns * OVERLAP_MODEL_SLACK,
            "overlap must never be (meaningfully) slower than blocking"
        );
    }
}
