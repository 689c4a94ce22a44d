//! **Projection figure**: MPI_Allreduce (4 KiB per process) extrapolated far
//! beyond the paper's 128-node testbed, to 10^5–10^6 ranks.
//!
//! The paper measures PiP-MColl on 2304 ranks and argues the multi-object
//! design scales because the leader fan-out keeps per-node software overhead
//! flat.  This figure runs that argument forward: each library's schedule is
//! compiled *folded* (one node's ranks plus symmetry probes — O(ppn) work,
//! independent of the node count) and replayed with
//! [`SimEngine::run_folded_trace`], so a 1,048,576-rank Allreduce simulates
//! in milliseconds without ever materializing the million-rank trace.
//!
//! Reported per scale point:
//! - predicted makespan per library (µs),
//! - multi-object speedup: PiP-MColl vs MVAPICH2, the node-aware
//!   *single-leader* baseline — the gap the multi-object design is built
//!   to hold as the node count grows,
//! - projected event count: the events a full replay would process, which
//!   the folded replay never materializes.
//!
//! Every column is a pure function of the schedules and the cost model, so
//! the output is committed as `docs/figures/fig_projection.txt`; the folded
//! replay's wall time is `bench_all`'s `sim_replay` workload.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin fig_projection
//! ```

#![forbid(unsafe_code)]

use pip_collectives::CollectiveKind;
use pip_mpi_model::{compile_folded, CollectiveShape, Library};
use pip_netsim::cluster::ClusterSpec;
use pip_netsim::{RunOptions, SimEngine};
use pip_runtime::Topology;

/// Per-process block size: the paper's medium-message Allreduce point.
const BLOCK: usize = 4096;

/// Processes per node.  Power-of-two so the Xor (recursive-doubling) fold
/// applies across the whole library grid; 16 is the nearest such count to
/// the testbed's 18.
const PPN: usize = 16;

/// Node counts to sweep.  Powers of two from the paper's testbed scale up
/// to 65536 nodes = 1,048,576 ranks.
const NODES: [usize; 6] = [128, 1024, 4096, 16384, 32768, 65536];

fn main() {
    let nic = ClusterSpec::hpdc23().nic;
    let shape = CollectiveShape {
        kind: CollectiveKind::Allreduce,
        block: BLOCK,
        root: 0,
        elem_size: 1,
        reduce: None,
        layout: None,
        compress: None,
    };

    println!("=== Projection: MPI_Allreduce {BLOCK} B/process, ppn {PPN}, folded replay ===\n");

    let mut header = String::from("| nodes | ranks |");
    let mut rule = String::from("|---:|---:|");
    for library in Library::ALL {
        header.push_str(&format!(" {} (us) |", library.name()));
        rule.push_str("---:|");
    }
    header.push_str(" MColl vs MVAPICH2 | events |");
    rule.push_str("---:|---:|");
    println!("{header}");
    println!("{rule}");

    let mut headline: Option<(usize, f64)> = None;
    for nodes in NODES {
        let topology = Topology::new(nodes, PPN);
        let world = topology.world_size();
        let mut times: Vec<Option<f64>> = Vec::with_capacity(Library::ALL.len());
        let mut events = 0usize;
        for library in Library::ALL {
            let profile = library.profile();
            let Some(folded) = compile_folded(&profile, topology, &shape, 1) else {
                times.push(None);
                continue;
            };
            events += folded.projected_events();
            let engine = SimEngine::new(profile.sim_params(nic));
            let outcome = engine
                .run_folded_trace(&folded, RunOptions::summary())
                .unwrap_or_else(|e| {
                    panic!("{} on {nodes}x{PPN}: {e}", library.name());
                });
            times.push(Some(outcome.makespan / 1_000.0));
        }

        let mut row = format!("| {nodes} | {world} |");
        for t in &times {
            match t {
                Some(us) => row.push_str(&format!(" {us:.1} |")),
                None => row.push_str(" - |"),
            }
        }
        let mcoll = times[lib_index(Library::PipMColl)];
        let single_leader = times[lib_index(Library::Mvapich2)];
        let speedup = match (mcoll, single_leader) {
            (Some(m), Some(s)) if m > 0.0 => {
                let x = s / m;
                if world >= 100_000 {
                    headline = Some((world, x));
                }
                format!("{x:.2}x")
            }
            _ => "-".to_string(),
        };
        row.push_str(&format!(" {speedup} | {events} |"));
        println!("{row}");
    }

    println!();
    match headline {
        Some((world, x)) => println!(
            "Paper reference: multi-object leaders keep scaling past the testbed; \
             projected: PiP-MColl {x:.2}x vs single-leader MVAPICH2 at {world} ranks"
        ),
        None => println!(
            "Paper reference: multi-object leaders keep scaling past the testbed; \
             projected: no >=10^5-rank point folded (unexpected)"
        ),
    }
}

fn lib_index(library: Library) -> usize {
    Library::ALL
        .iter()
        .position(|&l| l == library)
        .expect("library in ALL")
}
