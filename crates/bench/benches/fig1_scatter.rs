//! Criterion bench for Figure 1 (MPI_Scatter, small messages): measures the
//! end-to-end pipeline (schedule compilation, lowering and discrete-event
//! simulation) per library on a reduced cluster so `cargo bench` stays fast,
//! and reports the simulated execution times for the paper-scale cluster once
//! per run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pip_collectives::plan::Fidelity;
use pip_collectives::CollectiveKind;
use pip_mcoll_bench::figures::collective_comparison;
use pip_mpi_model::plan::compile_cluster;
use pip_mpi_model::{CollectiveShape, Library};
use pip_netsim::cluster::ClusterSpec;
use pip_netsim::network::simulate;

fn bench_scatter_pipeline(c: &mut Criterion) {
    let cluster = ClusterSpec::new(16, 4);
    let topology = cluster.topology();
    let mut group = c.benchmark_group("fig1_scatter_pipeline_16x4");
    group.sample_size(10);
    let shape = CollectiveShape::plain(CollectiveKind::Scatter, 256, 0);
    for library in Library::ALL {
        let profile = library.profile();
        let params = profile.sim_params(cluster.nic);
        group.bench_function(BenchmarkId::from_parameter(library.name()), |b| {
            b.iter(|| {
                let trace =
                    compile_cluster(&profile, topology, &shape, Fidelity::Schedule).to_trace(1);
                simulate(library.name(), &trace, &params)
                    .unwrap()
                    .makespan_ns
            });
        });
    }
    group.finish();

    // Print the paper-scale figure once so `cargo bench` output contains the
    // reproduced series.
    let table = collective_comparison(CollectiveKind::Scatter, ClusterSpec::hpdc23(), &[256]);
    println!(
        "\n[fig1] 256 B scatter on 128x18, simulated microseconds: {:?}",
        table
            .series
            .iter()
            .map(|s| (s.library.name(), s.time_us[0]))
            .collect::<Vec<_>>()
    );
}

criterion_group!(benches, bench_scatter_pipeline);
criterion_main!(benches);
