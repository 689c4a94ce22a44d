//! Liveness of real collective schedules on a degraded fabric.
//!
//! The perturbation plane's drop model retries each lost inter-node
//! message up to `max_retries` times.  Two properties must hold on the
//! *actual* schedules the libraries record — not just synthetic rings:
//!
//! * a drop rate the retry budget absorbs always completes, on every
//!   collective × library × topology grid point, on both the full and the
//!   folded path (never a hang, never a deadlock);
//! * a drop rate that exhausts the budget yields a structured
//!   [`SimError::Failure`] naming the starved `(rank, tag)` pairs — the
//!   run still terminates and still says *what* starved.
//!
//! The `--ignored` test is the paper-scale headline: Allreduce at 128×18
//! under 1% drops + 500 ns jitter, where PiP-MColl must still beat the
//! single-leader MVAPICH2 baseline in absolute time.

use pip_collectives::plan::Fidelity;
use pip_collectives::CollectiveKind;
use pip_mpi_model::plan::compile_cluster;
use pip_mpi_model::{CollectiveShape, Library};
use pip_netsim::cluster::ClusterSpec;
use pip_netsim::{DropSpec, Perturbation, RunOptions, SimEngine, SimError};
use pip_runtime::Topology;

/// A drop rate an 10-deep retry budget absorbs: exhaustion needs 11
/// consecutive losses (p ≈ 5e-15 per message), which the deterministic
/// draws never produce at these trace sizes.
fn sub_budget(seed: u64) -> Perturbation {
    Perturbation {
        seed,
        latency_jitter: 200.0,
        drop: DropSpec {
            rate: 0.05,
            max_retries: 10,
            timeout: 1_500.0,
            backoff: 2.0,
        },
    }
}

/// Every message is lost more times than the budget allows.
fn over_budget(seed: u64) -> Perturbation {
    Perturbation {
        seed,
        drop: DropSpec {
            rate: 1.0,
            max_retries: 3,
            timeout: 500.0,
            backoff: 2.0,
        },
        ..Perturbation::NONE
    }
}

const COLLECTIVES: &[(&str, CollectiveKind)] = &[
    ("allgather", CollectiveKind::Allgather),
    ("allreduce", CollectiveKind::Allreduce),
    ("reduce_scatter", CollectiveKind::ReduceScatter),
    ("alltoall", CollectiveKind::Alltoall),
];

const LIBRARIES: &[Library] = &[Library::PipMColl, Library::Mvapich2, Library::OpenMpi];

const TOPOLOGIES: &[(usize, usize)] = &[(2, 2), (4, 3)];

#[test]
fn sub_budget_drops_complete_on_the_collective_grid() {
    let nic = ClusterSpec::hpdc23().nic;
    for &(name, kind) in COLLECTIVES {
        let shape = CollectiveShape::plain(kind, 2_048, 0);
        for &library in LIBRARIES {
            let profile = library.profile();
            for &(nodes, ppn) in TOPOLOGIES {
                let topology = Topology::new(nodes, ppn);
                let trace =
                    compile_cluster(&profile, topology, &shape, Fidelity::Schedule).to_trace(1);
                let engine = SimEngine::new(profile.sim_params(nic));
                let options =
                    RunOptions::default().with_perturbation(sub_budget(nodes as u64 * 31 + 7));
                let label = format!("{name}/{}/{nodes}x{ppn}", library.name());
                let full = engine
                    .run_with(&trace, options)
                    .unwrap_or_else(|e| panic!("{label} full: {e}"));
                // The folded path must terminate too; asymmetric link jitter
                // forces it through the full-replay fallback, which is
                // exactly the path a degradation sweep takes.
                let folded = engine
                    .run_folded_with(&trace, options)
                    .unwrap_or_else(|e| panic!("{label} folded: {e}"));
                assert_eq!(full.makespan, folded.makespan, "{label}");
                assert_eq!(full.stats.retries, folded.stats.retries, "{label}");
                assert!(full.makespan.is_finite(), "{label}");
            }
        }
    }
}

#[test]
fn over_budget_drops_fail_structurally_on_real_schedules() {
    let nic = ClusterSpec::hpdc23().nic;
    let topology = Topology::new(4, 3);
    let shape = CollectiveShape::plain(CollectiveKind::Allreduce, 2_048, 0);
    for &library in LIBRARIES {
        let profile = library.profile();
        let trace = compile_cluster(&profile, topology, &shape, Fidelity::Schedule).to_trace(1);
        let engine = SimEngine::new(profile.sim_params(nic));
        let options = RunOptions::default().with_perturbation(over_budget(5));
        let err = engine
            .run_with(&trace, options)
            .expect_err("total loss must not complete");
        match err {
            SimError::Failure(failure) => {
                assert!(!failure.starved.is_empty(), "{}", library.name());
                assert!(!failure.stuck_ranks.is_empty(), "{}", library.name());
                for starved in &failure.starved {
                    assert!(
                        starved.rank < topology.world_size(),
                        "{}: starved rank out of range",
                        library.name()
                    );
                    assert_eq!(starved.attempts, 4, "{}", library.name());
                }
            }
            other => panic!("{}: expected Failure, got {other:?}", library.name()),
        }
    }
}

/// Paper-scale headline: the multi-object schedule keeps its absolute win
/// under moderate degradation (1% drops, 500 ns jitter) at 128×18.
#[test]
#[ignore = "paper-scale: ~seconds, run with --ignored"]
fn paper_scale_degradation_headline() {
    let nic = ClusterSpec::hpdc23().nic;
    let topology = Topology::new(128, 18);
    let perturbation = Perturbation {
        seed: 0x4852_5043_2023,
        latency_jitter: 500.0,
        drop: DropSpec {
            rate: 0.01,
            max_retries: 8,
            timeout: 2_000.0,
            backoff: 2.0,
        },
    };
    let options = RunOptions::summary().with_perturbation(perturbation);
    let shape = CollectiveShape::plain(CollectiveKind::Allreduce, 4_096, 0);
    let mut makespans = Vec::new();
    for &library in &[Library::PipMColl, Library::Mvapich2] {
        let profile = library.profile();
        let trace = compile_cluster(&profile, topology, &shape, Fidelity::Schedule).to_trace(1);
        let engine = SimEngine::new(profile.sim_params(nic));
        let outcome = engine
            .run_with(&trace, options)
            .unwrap_or_else(|e| panic!("{}: {e}", library.name()));
        assert!(outcome.stats.retries > 0, "{}", library.name());
        makespans.push(outcome.makespan);
    }
    assert!(
        makespans[0] < makespans[1],
        "PiP-MColl must beat MVAPICH2 under 1% drops at 128x18: {:.1} vs {:.1} us",
        makespans[0] / 1e3,
        makespans[1] / 1e3
    );
}
