//! Integration tests of the full measurement pipeline (dispatch → trace →
//! simulation): the qualitative claims of the paper's figures must hold on
//! clusters small enough to simulate in a debug-build test run.

use pip_mcoll::collectives::plan::Fidelity;
use pip_mcoll::collectives::CollectiveKind;
use pip_mcoll::model::plan::compile_cluster;
use pip_mcoll::model::{CollectiveShape, Library, LibraryProfile};
use pip_mcoll::netsim::cluster::ClusterSpec;
use pip_mcoll::netsim::network::simulate;
use pip_mcoll_bench::figures::collective_comparison;

#[test]
fn pip_mcoll_wins_small_message_allgather_and_scatter() {
    let cluster = ClusterSpec::new(12, 6);
    for kind in [CollectiveKind::Allgather, CollectiveKind::Scatter] {
        let table = collective_comparison(kind, cluster, &[16, 64, 256]);
        assert!(table.pip_mcoll_fastest_everywhere(), "{kind:?}: {table:?}");
    }
}

#[test]
fn allgather_advantage_is_substantial_at_64_bytes() {
    // The paper's CLAIM-4.6: PiP-MColl is several times faster than the
    // fastest competitor for small allgathers.  The factor grows with the
    // node count (the full >4.6x is checked at paper scale by the ignored
    // test below and by the `fig2_allgather` binary); at this reduced scale
    // it must still be a clear win.
    let cluster = ClusterSpec::new(16, 8);
    let table = collective_comparison(CollectiveKind::Allgather, cluster, &[64]);
    let (_, speedup) = table.best_speedup_vs_fastest_competitor();
    assert!(speedup > 1.4, "expected a clear win, got {speedup:.2}x");
}

#[test]
fn pip_mpich_is_among_the_slowest_for_small_messages() {
    // CLAIM-PIPMPICH: the PiP baseline without the multi-object design is
    // sometimes the worst implementation.
    let cluster = ClusterSpec::new(12, 6);
    let table = collective_comparison(CollectiveKind::Allgather, cluster, &[16, 32, 64]);
    assert!(table.pip_mpich_worst_count() >= 1, "{table:?}");
}

#[test]
fn multi_object_beats_single_leader_for_every_collective_kind() {
    let cluster = ClusterSpec::new(8, 6);
    let topology = cluster.topology();
    let mcoll = Library::PipMColl.profile();
    let mvapich = Library::Mvapich2.profile();
    for (name, kind, bytes) in [
        ("allgather", CollectiveKind::Allgather, 128),
        ("scatter", CollectiveKind::Scatter, 128),
        ("bcast", CollectiveKind::Bcast, 128),
        ("allreduce", CollectiveKind::Allreduce, 4096),
    ] {
        let shape = CollectiveShape::plain(kind, bytes, 0);
        let makespan = |profile: &LibraryProfile| {
            let trace = compile_cluster(profile, topology, &shape, Fidelity::Schedule).to_trace(1);
            simulate(name, &trace, &profile.sim_params(cluster.nic))
                .unwrap()
                .makespan_ns
        };
        let t_mcoll = makespan(&mcoll);
        let t_mvapich = makespan(&mvapich);
        assert!(
            t_mcoll < t_mvapich,
            "{name}: PiP-MColl {t_mcoll:.0} ns should beat MVAPICH2 {t_mvapich:.0} ns"
        );
    }
}

#[test]
fn simulation_is_deterministic_across_repeated_runs() {
    let cluster = ClusterSpec::new(6, 4);
    let profile = Library::PipMColl.profile();
    let params = profile.sim_params(cluster.nic);
    let shape = CollectiveShape::plain(CollectiveKind::Allgather, 64, 0);
    let trace =
        compile_cluster(&profile, cluster.topology(), &shape, Fidelity::Schedule).to_trace(1);
    let a = simulate("a", &trace, &params).unwrap();
    let b = simulate("b", &trace, &params).unwrap();
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.internode_messages, b.internode_messages);
}

#[test]
fn execution_time_is_monotone_in_message_size_for_every_library() {
    let cluster = ClusterSpec::new(8, 4);
    let table = collective_comparison(CollectiveKind::Allgather, cluster, &[16, 128, 1024]);
    for series in &table.series {
        assert!(
            series.time_us[0] <= series.time_us[1] && series.time_us[1] <= series.time_us[2],
            "{:?}: {:?}",
            series.library,
            series.time_us
        );
    }
}

#[test]
#[ignore = "paper-scale simulation; run with --ignored (a few seconds in release)"]
fn paper_scale_allgather_headline_claim() {
    let cluster = ClusterSpec::hpdc23();
    let table = collective_comparison(CollectiveKind::Allgather, cluster, &[64]);
    let (_, speedup) = table.best_speedup_vs_fastest_competitor();
    assert!(
        speedup > 4.0,
        "paper reports >4.6x at 64 B; model gives {speedup:.2}x"
    );
}

#[test]
#[ignore = "beyond-testbed simulation; run with --ignored (seconds in release)"]
fn thousand_node_allgather_headline_claim() {
    // 1024 nodes x 18 ppn = 18,432 ranks — 8x the paper's testbed, a scale
    // the seed heap engine could not turn around inside a test budget.  The
    // calendar engine replays the full five-library comparison in seconds,
    // and the small-message advantage grows with the node count, so the
    // 128-node headline bound must still clear.
    let cluster = ClusterSpec::new(1024, 18);
    let table = collective_comparison(CollectiveKind::Allgather, cluster, &[64]);
    let (_, speedup) = table.best_speedup_vs_fastest_competitor();
    assert!(
        speedup > 4.0,
        "paper reports >4.6x at 64 B on 128 nodes; at 1024 nodes the model gives {speedup:.2}x"
    );
}
