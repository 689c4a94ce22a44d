//! Ablation **ABL-SCALE**: scalability of the 64 B allgather as the node
//! count grows from 4 to 256 (18 processes per node throughout), comparing
//! PiP-MColl against the strongest competitor configuration at each scale.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin abl_node_scaling
//! ```

#![forbid(unsafe_code)]

use pip_collectives::CollectiveKind;
use pip_mcoll_bench::figures::collective_comparison;
use pip_mpi_model::Library;
use pip_netsim::cluster::ClusterSpec;

fn main() {
    let bytes = 64usize;
    println!("=== ABL-SCALE: MPI_Allgather, 64 B per process, 18 ppn, varying node count ===\n");
    println!("| Nodes | Ranks | PiP-MColl (us) | Best competitor (us) | Competitor | Speedup |");
    println!("|---|---|---|---|---|---|");
    for nodes in [4usize, 8, 16, 32, 64, 128, 256] {
        let cluster = ClusterSpec::new(nodes, 18);
        let table = collective_comparison(CollectiveKind::Allgather, cluster, &[bytes]);
        let mcoll = table.series_for(Library::PipMColl).time_us[0];
        let (best_lib, best_time) = Library::ALL
            .iter()
            .filter(|&&l| l != Library::PipMColl)
            .map(|&l| (l, table.series_for(l).time_us[0]))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        println!(
            "| {nodes} | {} | {mcoll:.1} | {best_time:.1} | {} | {:.2}x |",
            cluster.world_size(),
            best_lib.name(),
            best_time / mcoll
        );
    }
    println!("\nThe multi-object advantage grows with scale: more nodes mean more inter-node");
    println!("messages per collective, which a single leader cannot inject fast enough.");
}
