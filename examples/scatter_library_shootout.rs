//! Figure-1-style comparison from the public API: simulate MPI_Scatter with
//! small messages for every modelled MPI library and print the scaled
//! execution times.
//!
//! The default cluster is small so the example finishes in a couple of
//! seconds; pass `--paper` to use the paper's 128-node × 18-ppn testbed.
//!
//! ```text
//! cargo run --release --example scatter_library_shootout [-- --paper]
//! ```

#![forbid(unsafe_code)]

use pip_mcoll::collectives::plan::Fidelity;
use pip_mcoll::collectives::CollectiveKind;
use pip_mcoll::model::plan::compile_cluster;
use pip_mcoll::model::{CollectiveShape, Library};
use pip_mcoll::netsim::cluster::ClusterSpec;
use pip_mcoll::netsim::network::simulate;

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let cluster = if paper_scale {
        ClusterSpec::hpdc23()
    } else {
        ClusterSpec::new(16, 6)
    };
    let sizes = [16usize, 64, 256, 512];
    println!(
        "{} on {} nodes x {} ppn ({} ranks)\n",
        CollectiveKind::Scatter.name(),
        cluster.nodes,
        cluster.ppn,
        cluster.world_size()
    );

    let mut times = vec![vec![0.0f64; sizes.len()]; Library::ALL.len()];
    for (li, library) in Library::ALL.iter().enumerate() {
        let profile = library.profile();
        let params = profile.sim_params(cluster.nic);
        for (si, &bytes) in sizes.iter().enumerate() {
            let shape = CollectiveShape::plain(CollectiveKind::Scatter, bytes, 0);
            let trace = compile_cluster(&profile, cluster.topology(), &shape, Fidelity::Schedule)
                .to_trace(1);
            times[li][si] = simulate(library.name(), &trace, &params)
                .expect("valid trace")
                .makespan_us;
        }
    }

    print!("{:<12}", "library");
    for &bytes in &sizes {
        print!("{:>12}", format!("{bytes} B"));
    }
    println!();
    let mcoll = Library::ALL.iter().position(|&l| l == Library::PipMColl);
    let reference = &times[mcoll.expect("PiP-MColl is a modelled library")];
    for (li, library) in Library::ALL.iter().enumerate() {
        print!("{:<12}", library.name());
        for (si, _) in sizes.iter().enumerate() {
            print!("{:>12}", format!("{:.2}x", times[li][si] / reference[si]));
        }
        println!();
    }
    println!("\n(values are scaled execution time, PiP-MColl = 1.00x; lower is better)");
}
