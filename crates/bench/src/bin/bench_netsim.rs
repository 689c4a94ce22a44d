//! **BENCH-NETSIM**: throughput of the simulation plane.
//!
//! Three measurements, one JSON artifact (`BENCH_netsim.json`):
//!
//! 1. **Engine differential** — a dense multi-round chunked-pipeline
//!    exchange (each rank reduces and stages a message as a chain of chunk
//!    ops before a shifted send/recv, the shape a multi-object 4 MiB
//!    schedule lowers to) replayed by the calendar-queue engine and by the
//!    seed `BinaryHeap` engine (`run_reference`) across topology sizes up
//!    to the paper's 128×18.  The headline is events/sec; the run
//!    **asserts a ≥5× calendar-over-seed win on the hpdc23 topology** (the
//!    acceptance bar of the engine rewrite).  The seed engine pays one
//!    heap round-trip per op; the calendar engine applies chunk chains
//!    inline between scheduling points, which is where the win comes from.
//! 2. **Collective data points** — the real figure pipeline (compile an
//!    allgather/allreduce schedule, lower it to a trace, simulate it) timed
//!    end to end on hpdc23, so a regression in per-data-point wall time is
//!    visible even if raw event throughput stays flat.
//! 3. **Folded replay** — a node-symmetric exchange replayed via
//!    `run_folded_trace` at paper scale and at a 16384-node projection
//!    scale, reporting *projected* events/sec (events a full replay would
//!    have processed per wall-clock second) — the quantity that makes
//!    million-rank sweeps tractable.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin bench_netsim
//! ```

use std::time::Instant;

use pip_collectives::plan::Fidelity;
use pip_collectives::CollectiveKind;
use pip_mpi_model::plan::compile_cluster;
use pip_mpi_model::{CollectiveShape, Library};
use pip_netsim::cluster::ClusterSpec;
use pip_netsim::fold::{FoldGroup, FoldedTrace};
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
                            first_use: false,
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

struct GridPoint {
    nodes: usize,
    ppn: usize,
    events: usize,
    calendar_eps: f64,
    reference_eps: f64,
    speedup: f64,
}

struct CollectivePoint {
    collective: &'static str,
    compile_ms: f64,
    calendar_ms: f64,
    reference_ms: f64,
}

struct FoldedPoint {
    nodes: usize,
    ppn: usize,
    projected_events: usize,
    wall_ms: f64,
    projected_eps: f64,
}

/// A rotation-symmetric node ring at every local rank, built directly as a
/// folded trace (the full per-rank trace never exists).
fn folded_ring(nodes: usize, ppn: usize, rounds: usize) -> FoldedTrace {
    let topology = Topology::new(nodes, ppn);
    let reps = (0..ppn)
        .map(|local| {
            let mut ops = Vec::with_capacity(rounds * 2);
            for round in 0..rounds {
                let next = topology.rank_of(1, local);
                let prev = topology.rank_of(nodes - 1, local);
                ops.push(TraceOp::Send {
                    dest: next,
                    bytes: 256,
                    tag: round as u64,
                });
                ops.push(TraceOp::Recv {
                    source: prev,
                    bytes: 256,
                    tag: round as u64,
                });
            }
            ops.into()
        })
        .collect();
    FoldedTrace::from_representatives(topology, FoldGroup::Rotation, reps)
        .expect("ring representatives are structurally valid")
}

fn main() {
    println!("=== BENCH-NETSIM: calendar-queue engine vs seed heap engine ===\n");
    let params = SimParams::default();
    let engine = SimEngine::new(params);

    // 1. Engine differential across topology sizes.
    println!("| Topology | Events | Calendar Mev/s | Seed Mev/s | Speedup |");
    println!("|---|---|---|---|---|");
    let mut grid: Vec<GridPoint> = Vec::new();
    for (nodes, ppn) in [(16, 8), (64, 18), (128, 18)] {
        let trace = exchange_trace(nodes, ppn, ROUNDS);
        let events: usize = trace.ranks.iter().map(|r| r.ops.len()).sum();
        let calendar = best_seconds(|| {
            engine.run_with(&trace, SUMMARY).expect("calendar replay");
        });
        let reference = best_seconds(|| {
            engine.run_reference(&trace).expect("reference replay");
        });
        let point = GridPoint {
            nodes,
            ppn,
            events,
            calendar_eps: events as f64 / calendar,
            reference_eps: events as f64 / reference,
            speedup: reference / calendar,
        };
        println!(
            "| {}x{} | {} | {:.2} | {:.2} | {:.2}x |",
            nodes,
            ppn,
            events,
            point.calendar_eps / 1e6,
            point.reference_eps / 1e6,
            point.speedup
        );
        grid.push(point);
    }
    let hpdc23 = grid.last().expect("grid has the hpdc23 point");
    assert_eq!((hpdc23.nodes, hpdc23.ppn), (128, 18));
    println!(
        "\nHeadline: {:.2}x events/sec over the seed engine on hpdc23 (128x18).",
        hpdc23.speedup
    );
    assert!(
        hpdc23.speedup >= 5.0,
        "calendar engine must be >=5x the seed engine on hpdc23, got {:.2}x",
        hpdc23.speedup
    );

    // 2. Real figure data points on hpdc23: compile, lower, simulate.
    let cluster = ClusterSpec::hpdc23();
    let profile = Library::PipMColl.profile();
    let sim_params = profile.sim_params(cluster.nic);
    let sim_engine = SimEngine::new(sim_params);
    let mut collective_points: Vec<CollectivePoint> = Vec::new();
    println!("\n| Collective (hpdc23) | Compile + lower ms | Calendar ms | Seed ms |");
    println!("|---|---|---|---|");
    for (name, kind, bytes) in [
        ("allgather_64B", CollectiveKind::Allgather, 64),
        ("allreduce_4096B", CollectiveKind::Allreduce, 4096),
    ] {
        let shape = CollectiveShape::plain(kind, bytes, 0);
        let t0 = Instant::now();
        let trace =
            compile_cluster(&profile, cluster.topology(), &shape, Fidelity::Schedule).to_trace(1);
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let calendar_ms = best_seconds(|| {
            sim_engine.run_with(&trace, SUMMARY).expect("calendar");
        }) * 1e3;
        let reference_ms = best_seconds(|| {
            sim_engine.run_reference(&trace).expect("reference");
        }) * 1e3;
        println!("| {name} | {compile_ms:.1} | {calendar_ms:.2} | {reference_ms:.2} |");
        collective_points.push(CollectivePoint {
            collective: name,
            compile_ms,
            calendar_ms,
            reference_ms,
        });
    }

    // 3. Folded replay: projected events/sec at paper and projection scale.
    let mut folded_points: Vec<FoldedPoint> = Vec::new();
    println!("\n| Folded ring | Projected events | Wall ms | Projected Mev/s |");
    println!("|---|---|---|---|");
    for (nodes, ppn) in [(128, 18), (16384, 18)] {
        let folded = folded_ring(nodes, ppn, ROUNDS * 4);
        let projected_events = folded.projected_events();
        let wall = best_seconds(|| {
            engine
                .run_folded_trace(&folded, SUMMARY)
                .expect("folded replay");
        });
        let point = FoldedPoint {
            nodes,
            ppn,
            projected_events,
            wall_ms: wall * 1e3,
            projected_eps: projected_events as f64 / wall,
        };
        println!(
            "| {}x{} | {} | {:.3} | {:.1} |",
            nodes,
            ppn,
            projected_events,
            point.wall_ms,
            point.projected_eps / 1e6
        );
        folded_points.push(point);
    }

    let mut json = String::from("{\n  \"bench\": \"netsim_engine\",\n  \"schema\": 1,\n");
    json.push_str(&format!(
        "  \"rounds\": {ROUNDS},\n  \"chunks\": {CHUNKS},\n  \"replays\": {REPLAYS},\n"
    ));
    json.push_str("  \"grid\": [\n");
    for (idx, p) in grid.iter().enumerate() {
        let comma = if idx + 1 == grid.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"nodes\":{},\"ppn\":{},\"events\":{},\"calendar_events_per_sec\":{:.0},\
             \"reference_events_per_sec\":{:.0},\"speedup\":{:.3}}}{comma}\n",
            p.nodes, p.ppn, p.events, p.calendar_eps, p.reference_eps, p.speedup
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"headline\": {{\"topology\": \"128x18\", \"speedup\": {:.3}, \
         \"events_per_sec\": {:.0}, \"required\": 5.0}},\n",
        hpdc23.speedup, hpdc23.calendar_eps
    ));
    json.push_str("  \"collective_points\": [\n");
    for (idx, p) in collective_points.iter().enumerate() {
        let comma = if idx + 1 == collective_points.len() {
            ""
        } else {
            ","
        };
        json.push_str(&format!(
            "    {{\"collective\":\"{}\",\"compile_ms\":{:.2},\"calendar_ms\":{:.3},\
             \"reference_ms\":{:.3}}}{comma}\n",
            p.collective, p.compile_ms, p.calendar_ms, p.reference_ms
        ));
    }
    json.push_str("  ],\n  \"folded\": [\n");
    for (idx, p) in folded_points.iter().enumerate() {
        let comma = if idx + 1 == folded_points.len() {
            ""
        } else {
            ","
        };
        json.push_str(&format!(
            "    {{\"nodes\":{},\"ppn\":{},\"projected_events\":{},\"wall_ms\":{:.3},\
             \"projected_events_per_sec\":{:.0}}}{comma}\n",
            p.nodes, p.ppn, p.projected_events, p.wall_ms, p.projected_eps
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_netsim.json", &json).expect("write BENCH_netsim.json");
    println!(
        "\nWrote BENCH_netsim.json ({} grid points, {} collective points, {} folded points).",
        grid.len(),
        collective_points.len(),
        folded_points.len()
    );
}
