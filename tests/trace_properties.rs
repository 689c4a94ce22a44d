//! Property-based integration tests: for randomly drawn topologies, message
//! sizes and libraries, recorded collective schedules are structurally valid
//! (matched sends/receives, consistent barriers), simulate without deadlock,
//! and respect basic physical invariants.

use proptest::prelude::*;

use pip_mcoll::collectives::plan::Fidelity;
use pip_mcoll::collectives::CollectiveKind;
use pip_mcoll::model::plan::compile_cluster;
use pip_mcoll::model::{CollectiveShape, Library, LibraryProfile};
use pip_mcoll::netsim::cluster::ClusterSpec;
use pip_mcoll::netsim::network::simulate;
use pip_mcoll::runtime::Topology;

fn arb_library() -> impl Strategy<Value = Library> {
    prop_oneof![
        Just(Library::OpenMpi),
        Just(Library::IntelMpi),
        Just(Library::Mvapich2),
        Just(Library::PipMpich),
        Just(Library::PipMColl),
    ]
}

/// The collectives the first property draws from.
const KINDS: [CollectiveKind; 5] = [
    CollectiveKind::Allgather,
    CollectiveKind::Scatter,
    CollectiveKind::Bcast,
    CollectiveKind::Allreduce,
    CollectiveKind::Gather,
];

/// The simulator's trace of `kind` at `bytes` per rank, rooted at rank 0.
fn record(
    profile: &LibraryProfile,
    topology: Topology,
    kind: CollectiveKind,
    bytes: usize,
) -> pip_mcoll::netsim::trace::Trace {
    let shape = CollectiveShape::plain(kind, bytes, 0);
    compile_cluster(profile, topology, &shape, Fidelity::Schedule).to_trace(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recorded_schedules_validate_and_simulate(
        nodes in 1usize..10,
        ppn in 1usize..6,
        bytes in 1usize..1024,
        collective in 0usize..KINDS.len(),
        library in arb_library(),
    ) {
        let topology = Topology::new(nodes, ppn);
        let profile = library.profile();
        let trace = record(&profile, topology, KINDS[collective], bytes);
        prop_assert!(trace.validate().is_ok());
        let params = profile.sim_params(ClusterSpec::new(nodes, ppn).nic);
        let report = simulate(library.name(), &trace, &params);
        prop_assert!(report.is_ok(), "simulation failed: {report:?}");
        let report = report.unwrap();
        prop_assert!(report.makespan_ns.is_finite());
        prop_assert!(report.makespan_ns >= 0.0);
        prop_assert!(report.nic_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn larger_payloads_never_finish_faster(
        nodes in 2usize..8,
        ppn in 1usize..5,
        bytes in 8usize..512,
        library in arb_library(),
    ) {
        let topology = Topology::new(nodes, ppn);
        let profile = library.profile();
        let params = profile.sim_params(ClusterSpec::new(nodes, ppn).nic);
        let small = record(&profile, topology, CollectiveKind::Allgather, bytes);
        let large = record(&profile, topology, CollectiveKind::Allgather, bytes * 4);
        let small = simulate("s", &small, &params).unwrap();
        let large = simulate("l", &large, &params).unwrap();
        prop_assert!(large.makespan_ns + 1e-6 >= small.makespan_ns);
    }

    #[test]
    fn internode_traffic_of_allgather_is_at_least_the_information_bound(
        nodes in 2usize..8,
        ppn in 1usize..5,
        bytes in 1usize..256,
    ) {
        // Every node must receive every other node's contribution at least
        // once: (nodes - 1) * ppn * bytes inbound per node.
        let topology = Topology::new(nodes, ppn);
        let profile = Library::PipMColl.profile();
        let trace = record(&profile, topology, CollectiveKind::Allgather, bytes);
        let lower_bound = nodes * (nodes - 1) * ppn * bytes;
        let mut internode_bytes = 0usize;
        for (rank, rt) in trace.ranks.iter().enumerate() {
            for op in &rt.ops {
                if let pip_mcoll::netsim::trace::TraceOp::Send { dest, bytes, .. } = op {
                    if !topology.same_node(rank, *dest) {
                        internode_bytes += bytes;
                    }
                }
            }
        }
        prop_assert!(internode_bytes >= lower_bound,
            "{internode_bytes} < {lower_bound} for {nodes}x{ppn}, {bytes} B");
    }

    #[test]
    fn multi_object_critical_path_messages_are_bounded(
        nodes in 2usize..40,
        ppn in 1usize..8,
        bytes in 1usize..128,
    ) {
        // The multi-object allgather sends at most one message per phase per
        // process, and there are at most log_{P+1}(N) + 1 phases.
        let topology = Topology::new(nodes, ppn);
        let profile = Library::PipMColl.profile();
        let trace = record(&profile, topology, CollectiveKind::Allgather, bytes);
        let phases = {
            let base = ppn + 1;
            let mut span = 1usize;
            let mut count = 0usize;
            while span * base <= nodes {
                span *= base;
                count += 1;
            }
            if span < nodes { count += 1; }
            count
        };
        for rt in &trace.ranks {
            prop_assert!(rt.send_count() <= phases);
        }
    }
}
