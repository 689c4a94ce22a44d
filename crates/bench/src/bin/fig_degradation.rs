//! **Degradation figure**: MPI_Allreduce (4 KiB per process) on a degraded
//! fabric — drop-rate × latency-jitter sweep across the five libraries.
//!
//! The healthy-fabric figures show PiP-MColl winning on per-node software
//! overhead.  This figure asks what happens when the fabric misbehaves:
//! every inter-node message is exposed to a seeded drop model (retry after
//! a timeout with exponential backoff) and per-link latency jitter.  The
//! measured answer at 128×18 is two-sided — PiP-MColl keeps its absolute
//! win through moderate degradation (<= 1% drops, any swept jitter), but
//! its multi-leader fan-out exposes *more concurrent* inter-node messages
//! than a single-leader schedule, so at extreme drop rates (5%) the
//! lower-message-count MVAPICH2 schedule overtakes it in absolute time.
//! Relative inflation follows the retry count and the healthy baseline:
//! MVAPICH2's single leader retries the fewest messages and inflates
//! least, and PiP-MColl, the fastest healthy run, inflates most (a fixed
//! retry timeout is a larger fraction of a faster collective).
//!
//! Reported per (drop rate, jitter) grid point and library: simulated
//! makespan, inflation over that library's own healthy baseline, retry
//! count, and retransmitted bytes.  The sweep is deterministic — one seed,
//! pure-hash draws — so the tables are reproducible bit-for-bit; the output
//! is committed as `docs/figures/fig_degradation.txt`.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin fig_degradation
//! ```

#![forbid(unsafe_code)]

use pip_collectives::plan::Fidelity;
use pip_collectives::CollectiveKind;
use pip_mpi_model::plan::compile_cluster;
use pip_mpi_model::{CollectiveShape, Library};
use pip_netsim::cluster::ClusterSpec;
use pip_netsim::{DropSpec, Perturbation, RunOptions, SimEngine, Trace};
use pip_runtime::Topology;

/// Per-process block size: the paper's medium-message Allreduce point.
const BLOCK: usize = 4096;

/// One seed for the whole figure; the tables are a pure function of it.
const SEED: u64 = 0x4852_5043_2023;

/// Drop rates swept, from a healthy fabric to one the retry budget still
/// absorbs.
const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

/// Per-link latency jitter swept, in nanoseconds.
const JITTERS: [f64; 3] = [0.0, 500.0, 2_000.0];

struct Point {
    library: &'static str,
    drop_rate: f64,
    jitter_ns: f64,
    makespan_us: f64,
    inflation: f64,
    retries: usize,
    retransmitted_bytes: usize,
}

fn perturbation(drop_rate: f64, jitter_ns: f64) -> Perturbation {
    Perturbation {
        seed: SEED,
        latency_jitter: jitter_ns,
        drop: DropSpec {
            rate: drop_rate,
            max_retries: 8,
            timeout: 2_000.0,
            backoff: 2.0,
        },
    }
}

fn main() {
    let topology = Topology::new(128, 18);
    let nic = ClusterSpec::hpdc23().nic;

    println!(
        "=== Degradation: MPI_Allreduce {BLOCK} B/process on {}x{}, drop-rate x jitter ===\n",
        topology.nodes(),
        topology.ppn()
    );

    // Compile and lower each library's schedule once; the same trace is
    // replayed at every grid point so the sweep isolates the fabric, not the
    // recorder.
    let shape = CollectiveShape::plain(CollectiveKind::Allreduce, BLOCK, 0);
    let traces: Vec<(Library, Trace, SimEngine)> = Library::ALL
        .iter()
        .map(|&library| {
            let profile = library.profile();
            let trace = compile_cluster(&profile, topology, &shape, Fidelity::Schedule).to_trace(1);
            let engine = SimEngine::new(profile.sim_params(nic));
            (library, trace, engine)
        })
        .collect();

    let mut header = String::from("| drop rate | jitter (ns) |");
    let mut rule = String::from("|---:|---:|");
    for library in Library::ALL {
        header.push_str(&format!(" {} (us, x) |", library.name()));
        rule.push_str("---:|");
    }
    println!("{header}");
    println!("{rule}");

    let mut points: Vec<Point> = Vec::new();
    let mut baselines = vec![0.0f64; Library::ALL.len()];
    for rate in RATES {
        for jitter in JITTERS {
            let mut row = format!("| {rate} | {jitter} |");
            for (idx, (library, trace, engine)) in traces.iter().enumerate() {
                let config = perturbation(rate, jitter);
                let options = RunOptions::summary().with_perturbation(config);
                let outcome = engine.run_with(trace, options).unwrap_or_else(|e| {
                    panic!(
                        "{} at rate={rate} jitter={jitter}: {e} — the 8-deep \
                         retry budget must absorb every swept drop rate",
                        library.name()
                    )
                });
                let makespan_us = outcome.makespan / 1_000.0;
                if rate == 0.0 && jitter == 0.0 {
                    // The identity point doubles as the healthy baseline;
                    // pin that the zero-magnitude config really is one.
                    let healthy = engine
                        .run_with(trace, RunOptions::summary())
                        .expect("healthy replay");
                    assert_eq!(
                        outcome,
                        healthy,
                        "{}: zero-magnitude grid point must equal the \
                         unperturbed run exactly",
                        library.name()
                    );
                    baselines[idx] = makespan_us;
                }
                if rate >= 0.01 {
                    assert!(
                        outcome.stats.retries > 0,
                        "{} at rate={rate}: expected retransmissions",
                        library.name()
                    );
                }
                let inflation = makespan_us / baselines[idx];
                row.push_str(&format!(" {makespan_us:.1} ({inflation:.2}x) |"));
                points.push(Point {
                    library: library.name(),
                    drop_rate: rate,
                    jitter_ns: jitter,
                    makespan_us,
                    inflation,
                    retries: outcome.stats.retries,
                    retransmitted_bytes: outcome.stats.retransmitted_bytes,
                });
            }
            println!("{row}");
        }
    }

    println!("\nRetries and retransmitted bytes per point:\n");
    let mut header = String::from("| drop rate | jitter (ns) |");
    for library in Library::ALL {
        header.push_str(&format!(" {} (retries, B) |", library.name()));
    }
    println!("{header}");
    println!("{rule}");
    for row_points in points.chunks(Library::ALL.len()) {
        let mut row = format!(
            "| {} | {} |",
            row_points[0].drop_rate, row_points[0].jitter_ns
        );
        for p in row_points {
            row.push_str(&format!(" {}, {} |", p.retries, p.retransmitted_bytes));
        }
        println!("{row}");
    }

    // Headline: relative inflation at the harshest grid point (worst fabric
    // vs each library's own healthy run), plus the absolute winner there —
    // the two can disagree, and that disagreement is the figure's finding.
    println!("\nInflation at the harshest point (lower inflates less):");
    let (worst_rate, worst_jitter) = (RATES[RATES.len() - 1], JITTERS[JITTERS.len() - 1]);
    let mut harshest: Vec<(&'static str, f64, f64)> = points
        .iter()
        .filter(|p| p.drop_rate == worst_rate && p.jitter_ns == worst_jitter)
        .map(|p| (p.library, p.inflation, p.makespan_us))
        .collect();
    harshest.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (library, inflation, makespan_us) in &harshest {
        println!("  {library}: {inflation:.3}x ({makespan_us:.1} us absolute)");
    }
    let fastest = harshest
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("harshest point has entries");
    println!(
        "Absolute winner at the harshest point: {} at {:.1} us.",
        fastest.0, fastest.2
    );
}
