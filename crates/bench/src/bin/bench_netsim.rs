//! **BENCH-NETSIM**: throughput of the simulation plane's event engine.
//!
//! A dense multi-round chunked-pipeline exchange (each rank reduces and
//! stages a message as a chain of chunk ops before a shifted send/recv, the
//! shape a multi-object 4 MiB schedule lowers to) is replayed by the
//! calendar-queue engine and by the seed `BinaryHeap` engine
//! (`run_reference`) across topology sizes up to the paper's 128×18.  The
//! headline is events/sec; the run **asserts a ≥5× calendar-over-seed win
//! on the hpdc23 topology** (the acceptance bar of the engine rewrite).
//! The seed engine pays one heap round-trip per op; the calendar engine
//! applies chunk chains inline between scheduling points, which is where
//! the win comes from.
//!
//! The figure pipeline's own stages (compile, lower, replay, folded replay
//! and the projected events/sec of a million-rank sweep) are timed by the
//! `bench_all` package's `sim_sweep` and `sim_replay` workloads.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin bench_netsim
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use pip_netsim::trace::{Trace, TraceOp};
use pip_netsim::{RunOptions, SimEngine, SimParams};
use pip_runtime::Topology;

/// Replays per timed measurement; the best (fastest) replay is reported so
/// one scheduling hiccup cannot fail the assertion.
const REPLAYS: usize = 3;

/// Exchange rounds of the synthetic workload: enough events to time
/// reliably, small enough for a CI smoke run.
const ROUNDS: usize = 10;

/// Chunk ops per round.  A 4 MiB payload staged as ~43 KiB chunks — the
/// shape the multi-object reduction pipeline lowers to — alternates a
/// per-chunk reduce with a per-chunk staging copy before the send.
const CHUNKS: usize = 96;

const SUMMARY: RunOptions = RunOptions::summary();

/// A dense, valid, deterministic workload: every round each rank works
/// through a chunk pipeline (alternating reduce and staging-copy ops, the
/// per-chunk chain a multi-object schedule records), then runs a shifted
/// exchange `rank -> (rank + d) % world` with round-specific tags, with a
/// node barrier every fourth round.  The shift varies per round so messages
/// cross both the NIC and the intra-node path.
fn exchange_trace(nodes: usize, ppn: usize, rounds: usize) -> Trace {
    let topology = Topology::new(nodes, ppn);
    let world = topology.world_size();
    let mut trace = Trace::empty(topology);
    for round in 0..rounds {
        let shift = (round * ppn + 1) % world;
        let tag = round as u64;
        for rank in 0..world {
            trace.push(
                rank,
                TraceOp::Delay {
                    nanos: 40.0 + (rank % 7) as f64,
                },
            );
            for chunk in 0..CHUNKS {
                if chunk % 2 == 0 {
                    trace.push(rank, TraceOp::Reduce { bytes: 4096 });
                } else {
                    trace.push(
                        rank,
                        TraceOp::CopyIntra {
                            bytes: 4096,
                            mechanism: None,
                        },
                    );
                }
            }
            trace.push(
                rank,
                TraceOp::Send {
                    dest: (rank + shift) % world,
                    bytes: 65536,
                    tag,
                },
            );
            trace.push(
                rank,
                TraceOp::Recv {
                    source: (rank + world - shift) % world,
                    bytes: 65536,
                    tag,
                },
            );
        }
        if round % 4 == 3 {
            for rank in 0..world {
                trace.push(rank, TraceOp::LocalBarrier);
            }
        }
    }
    trace
}

/// Best-of-N wall time of `f`, in seconds.
fn best_seconds(mut f: impl FnMut()) -> f64 {
    (0..REPLAYS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    println!("=== BENCH-NETSIM: calendar-queue engine vs seed heap engine ===\n");
    let engine = SimEngine::new(SimParams::default());

    println!("| Topology | Events | Calendar Mev/s | Seed Mev/s | Speedup |");
    println!("|---|---|---|---|---|");
    // The grid ends at hpdc23 (128x18), the point the headline asserts on.
    let mut speedup = 0.0;
    for (nodes, ppn) in [(16, 8), (64, 18), (128, 18)] {
        let trace = exchange_trace(nodes, ppn, ROUNDS);
        let events: usize = trace.ranks.iter().map(|r| r.ops.len()).sum();
        let calendar = best_seconds(|| {
            engine.run_with(&trace, SUMMARY).expect("calendar replay");
        });
        let reference = best_seconds(|| {
            engine.run_reference(&trace).expect("reference replay");
        });
        speedup = reference / calendar;
        println!(
            "| {nodes}x{ppn} | {events} | {:.2} | {:.2} | {speedup:.2}x |",
            events as f64 / calendar / 1e6,
            events as f64 / reference / 1e6,
        );
    }
    println!("\nHeadline: {speedup:.2}x events/sec over the seed engine on hpdc23 (128x18).");
    assert!(
        speedup >= 5.0,
        "calendar engine must be >=5x the seed engine on hpdc23, got {speedup:.2}x"
    );
}
