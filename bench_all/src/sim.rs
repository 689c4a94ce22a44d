//! The simulate-plane workloads: the figure pipeline at the paper's scale.
//!
//! Both are single-threaded and deterministic: every simulated statistic
//! must repeat exactly, from iteration to iteration and from run to run.
//! `sim_sweep` is the pipeline run cold (a fresh plan cache per sweep, so
//! whole-cluster compilation dominates); `sim_replay` is the same plane
//! used warm (cached plans, so lowering, validation and replay dominate).

use std::time::Instant;

use pip_collectives::CollectiveKind;
use pip_mcoll_bench::figures::collective_comparison;
use pip_mpi_model::{compile_folded, ClusterPlanCache, CollectiveShape, Library};
use pip_netsim::cluster::ClusterSpec;
use pip_netsim::network::{simulate, simulate_degraded};
use pip_netsim::{DropSpec, FoldedTrace, Perturbation, RunOptions, SimEngine};
use pip_runtime::Topology;

use crate::clock::Stopwatch;
use crate::measure::{disturbance_note, end_to_end_metrics, repeat_setup, wall_over_cpu, TimeBox};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::workloads::{LayerMetrics, RunConfig, RunOutput};

/// Tag base the figure binaries lower their plans with.
const TRACE_TAG: u64 = 1;

/// Share of a traced run's time box spent untraced, as the reference for
/// `bench.trace_overhead`.
const REFERENCE_SHARE: f64 = 0.35;

fn shape(kind: CollectiveKind, block: usize) -> CollectiveShape {
    CollectiveShape {
        kind,
        block,
        root: 0,
        elem_size: 1,
        reduce: None,
        layout: None,
        compress: None,
    }
}

/// One iteration's outcome: a simulated makespan per operation (`None`
/// where the simulator reported an error) plus counts.
#[derive(Debug, Default)]
struct Iteration {
    makespan_us: Vec<Option<f64>>,
    /// Operations that failed a check of their own (not fastest, folded
    /// replay disagreeing with full replay).
    failed_checks: u64,
    /// Trace ops the full replays of this iteration processed.
    events: u64,
    projected_events: u64,
    retries: u64,
    speedup_allgather: f64,
    speedup_scatter: f64,
}

impl Iteration {
    /// Record one operation's simulated makespan, given in nanoseconds.
    fn push_ns(&mut self, makespan_ns: Option<f64>) {
        self.makespan_us.push(makespan_ns.map(|ns| ns / 1e3));
    }

    fn makespan_sum(&self) -> f64 {
        self.makespan_us.iter().flatten().sum()
    }

    /// Operations of this iteration that failed: simulator errors, failed
    /// checks, and makespans that differ in any bit from the reference
    /// iteration's.
    fn failures(&self, reference: &Iteration) -> u64 {
        let errors = self.makespan_us.iter().filter(|m| m.is_none()).count() as u64;
        let drifted = self
            .makespan_us
            .iter()
            .zip(&reference.makespan_us)
            .filter(|(mine, theirs)| match (mine, theirs) {
                (Some(a), Some(b)) => a.to_bits() != b.to_bits(),
                _ => false,
            })
            .count() as u64;
        errors + self.failed_checks + drifted
    }
}

/// A simulate-plane workload: set-up state `S`, one iteration at a time.
trait SimWorkload {
    type State;
    /// Times set-up is repeated; its median is reported.
    const SETUP_REPEATS: usize;
    fn setup(&self) -> Self::State;
    fn iterate(&self, state: &mut Self::State, rec: &mut Recorder, iter: u32) -> Iteration;
    /// Per-layer metrics from the traced iterations.
    fn layer_metrics(
        &self,
        state: &Self::State,
        rec: &Recorder,
        iterations: &[Iteration],
        layers: &mut LayerMetrics,
    );
    /// Span names of the stages; their time should cover the iteration.
    fn stages(&self) -> &'static [&'static str];
}

struct Loop {
    /// CPU time of every iteration.
    iter_ns: Vec<f64>,
    /// Wall time of the same iterations.
    wall_ns: Vec<f64>,
    iterations: Vec<Iteration>,
}

fn run_loop<W: SimWorkload>(
    workload: &W,
    state: &mut W::State,
    rec: &mut Recorder,
    mut time_box: TimeBox,
) -> Loop {
    let mut out = Loop {
        iter_ns: Vec::new(),
        wall_ns: Vec::new(),
        iterations: Vec::new(),
    };
    while time_box.next() {
        let iter = out.iterations.len() as u32;
        let span = rec.enter("iteration", iter);
        let started = Stopwatch::start();
        let iteration = workload.iterate(state, rec, iter);
        out.iter_ns.push(started.cpu_ns());
        out.wall_ns.push(started.wall_ns());
        rec.exit(span);
        out.iterations.push(iteration);
    }
    out
}

fn run_workload<W: SimWorkload>(cfg: &RunConfig, workload: &W) -> RunOutput {
    let (setup_s, mut state) = repeat_setup(W::SETUP_REPEATS, || workload.setup());
    let count = |loops: &[&Loop]| {
        // The first iteration of the run is the reference the others must
        // repeat bit for bit.
        let reference = &loops[0].iterations[0];
        let all = || loops.iter().flat_map(|l| &l.iterations);
        let attempted: u64 = all().map(|i| i.makespan_us.len() as u64).sum();
        let failed: u64 = all().map(|i| i.failures(reference)).sum();
        (attempted, failed)
    };
    if !cfg.traced {
        // At least two iterations, so repetition is always checked.
        let measured = run_loop(
            workload,
            &mut state,
            &mut Recorder::off(),
            TimeBox::new(cfg.seconds, 2, usize::MAX),
        );
        let (attempted, failed) = count(&[&measured]);
        return RunOutput {
            attempted,
            failed,
            iterations: measured.iter_ns.len(),
            metrics: end_to_end_metrics(&setup_s, &measured.iter_ns, attempted),
            notes: vec![disturbance_note(&measured.iter_ns, &measured.wall_ns)],
            spans: None,
        };
    }

    let reference = run_loop(
        workload,
        &mut state,
        &mut Recorder::off(),
        TimeBox::new(cfg.seconds * REFERENCE_SHARE, 1, usize::MAX),
    );
    let mut rec = Recorder::new(true);
    let traced = run_loop(
        workload,
        &mut state,
        &mut rec,
        TimeBox::new(cfg.seconds * (1.0 - REFERENCE_SHARE), 2, usize::MAX),
    );
    let (attempted, failed) = count(&[&reference, &traced]);

    let mut layers = LayerMetrics::default();
    layers.set(
        "bench.trace_overhead",
        median(&traced.iter_ns) / median(&reference.iter_ns),
    );
    layers.set("bench.iter_ms_p90", percentile(&traced.iter_ns, 90.0) / 1e6);
    layers.set(
        "bench.wall_over_cpu",
        wall_over_cpu(&traced.iter_ns, &traced.wall_ns),
    );
    layers.set("bench.failed_share", failed as f64 / attempted as f64);
    workload.layer_metrics(&state, &rec, &traced.iterations, &mut layers);

    let totals = rec.totals_by_name();
    let in_stages: u64 = workload
        .stages()
        .iter()
        .filter_map(|stage| totals.get(stage))
        .map(|t| t.total_ns)
        .sum();
    let in_iterations = totals["iteration"].total_ns;
    let mut notes = vec![
        "host time per stage, ms per iteration (median), and self time of the enclosing spans:"
            .to_string(),
    ];
    for (name, t) in &totals {
        notes.push(format!(
            "  {:<18} {:>10.3} ms/iter  count {:>6}  self {:>6.2} % of iteration time",
            name,
            median(&rec.per_iteration_ns(name)) / 1e6,
            t.count,
            100.0 * t.self_ns as f64 / in_iterations as f64
        ));
    }
    let coverage = in_stages as f64 / in_iterations as f64;
    notes.push(format!(
        "  stages cover {:.2} % of the iteration time{}",
        100.0 * coverage,
        if coverage < 0.95 {
            " -- WARNING: below 95 %, a stage is missing a span"
        } else {
            ""
        }
    ));
    RunOutput {
        attempted,
        failed,
        iterations: traced.iter_ns.len(),
        metrics: layers.finish(),
        notes,
        spans: Some(rec),
    }
}

fn stage_ms(rec: &Recorder, stage: &str) -> f64 {
    median(&rec.per_iteration_ns(stage)) / 1e6
}

/// Events replayed per second of host time in stage `stage`, median over
/// iterations.
fn events_per_s(rec: &Recorder, stage: &str, events: impl Iterator<Item = u64>) -> f64 {
    let rates: Vec<f64> = rec
        .per_iteration_ns(stage)
        .iter()
        .zip(events)
        .map(|(ns, events)| events as f64 / (ns / 1e9))
        .collect();
    median(&rates)
}

// ---------------------------------------------------------------------------
// sim_sweep
// ---------------------------------------------------------------------------

const SWEEP_KINDS: [CollectiveKind; 3] = [
    CollectiveKind::Allgather,
    CollectiveKind::Scatter,
    CollectiveKind::Allreduce,
];
const SWEEP_SIZES: [usize; 2] = [64, 512];

struct Sweep;

struct SweepState {
    cluster: ClusterSpec,
    hits: u64,
    misses: u64,
}

impl Sweep {
    /// Every (kind, size) column under every library, from a fresh cache.
    fn sweep(
        &self,
        sizes: &[usize],
        state: &mut SweepState,
        rec: &mut Recorder,
        iter: u32,
    ) -> Iteration {
        let topology = state.cluster.topology();
        let mut cache = ClusterPlanCache::new();
        let mut out = Iteration::default();
        for kind in SWEEP_KINDS {
            for &bytes in sizes {
                let column_start = out.makespan_us.len();
                for library in Library::ALL {
                    let cell = rec.enter("cell", iter);
                    let profile = library.profile();
                    let params = profile.sim_params(state.cluster.nic);
                    let plan = rec.span("compile_cluster", iter, || {
                        cache.lookup_or_compile(&profile, topology, &shape(kind, bytes))
                    });
                    let trace = rec.span("to_trace", iter, || plan.to_trace(TRACE_TAG));
                    let report = rec.span("simulate", iter, || {
                        simulate(library.name(), &trace, &params)
                    });
                    rec.exit(cell);
                    out.events += trace.ranks.iter().map(|r| r.ops.len() as u64).sum::<u64>();
                    out.makespan_us.push(report.ok().map(|r| r.makespan_us));
                }
                // The paper's claim: PiP-MColl is the fastest library at
                // every small allgather and scatter size.
                let column = &out.makespan_us[column_start..];
                let mcoll_idx = Library::ALL
                    .iter()
                    .position(|&l| l == Library::PipMColl)
                    .expect("PiP-MColl is a library");
                let fastest_other = column
                    .iter()
                    .enumerate()
                    .filter(|&(idx, _)| idx != mcoll_idx)
                    .filter_map(|(_, m)| *m)
                    .fold(f64::INFINITY, f64::min);
                if let Some(mcoll) = column[mcoll_idx] {
                    let speedup = fastest_other / mcoll;
                    let best = match kind {
                        CollectiveKind::Allgather => Some(&mut out.speedup_allgather),
                        CollectiveKind::Scatter => Some(&mut out.speedup_scatter),
                        _ => None,
                    };
                    if let Some(best) = best {
                        *best = best.max(speedup);
                        if speedup < 1.0 {
                            out.failed_checks += 1;
                        }
                    }
                }
            }
        }
        let (hits, misses) = cache.stats();
        state.hits += hits;
        state.misses += misses;
        out
    }
}

impl SimWorkload for Sweep {
    type State = SweepState;
    const SETUP_REPEATS: usize = 5;

    /// Cluster spec plus a warm-up sweep of the first size's columns, so
    /// the allocator has grown before anything is timed.
    fn setup(&self) -> SweepState {
        let mut state = SweepState {
            cluster: ClusterSpec::hpdc23(),
            hits: 0,
            misses: 0,
        };
        self.sweep(&SWEEP_SIZES[..1], &mut state, &mut Recorder::off(), 0);
        SweepState {
            hits: 0,
            misses: 0,
            ..state
        }
    }

    fn iterate(&self, state: &mut SweepState, rec: &mut Recorder, iter: u32) -> Iteration {
        self.sweep(&SWEEP_SIZES, state, rec, iter)
    }

    fn stages(&self) -> &'static [&'static str] {
        &["compile_cluster", "to_trace", "simulate"]
    }

    fn layer_metrics(
        &self,
        state: &SweepState,
        rec: &Recorder,
        iterations: &[Iteration],
        layers: &mut LayerMetrics,
    ) {
        let last = iterations.last().expect("at least one traced iteration");
        layers.set(
            "mpi-model.compile_cluster_ms_p50",
            stage_ms(rec, "compile_cluster"),
        );
        layers.set(
            "mpi-model.cluster_cache_hit_share",
            state.hits as f64 / (state.hits + state.misses) as f64,
        );
        layers.set("collectives.lower_ms_p50", stage_ms(rec, "to_trace"));
        layers.set("netsim.replay_ms_p50", stage_ms(rec, "simulate"));
        layers.set(
            "netsim.events_per_s",
            events_per_s(rec, "simulate", iterations.iter().map(|i| i.events)),
        );
        layers.set("netsim.makespan_us_sum", last.makespan_sum());
        layers.set("netsim.speedup_allgather", last.speedup_allgather);
        layers.set("netsim.speedup_scatter", last.speedup_scatter);

        // Cross-check through the figure binaries' route (process-wide
        // cache): one allgather column cold, then warm.
        let table_ms = || {
            let started = Instant::now();
            let table = collective_comparison(CollectiveKind::Allgather, state.cluster, &[64]);
            assert!(table.pip_mcoll_fastest_everywhere());
            started.elapsed().as_nanos() as f64 / 1e6
        };
        layers.set("bench.table_cold_ms", table_ms());
        layers.set("bench.table_warm_ms", table_ms());
    }
}

// ---------------------------------------------------------------------------
// sim_replay
// ---------------------------------------------------------------------------

const REPLAY_LIBRARIES: [Library; 3] = [Library::PipMColl, Library::Mvapich2, Library::OpenMpi];
const REPLAY_BYTES: usize = 4096;
const PROJECTION_NODES: usize = 65_536;
const PROJECTION_PPN: usize = 16;

struct Replay {
    /// Seed of the drop model.
    seed: u64,
}

struct ReplayState {
    cluster: ClusterSpec,
    cache: ClusterPlanCache,
    /// `(hits, misses)` of the cache when set-up ended.
    stats_after_setup: (u64, u64),
}

impl Replay {
    /// 1 % message loss with the retry budget of the degradation figure.
    fn drops(&self) -> Perturbation {
        Perturbation {
            seed: self.seed,
            drop: DropSpec {
                rate: 0.01,
                max_retries: 8,
                timeout: 2_000.0,
                backoff: 2.0,
            },
            ..Perturbation::NONE
        }
    }
}

impl SimWorkload for Replay {
    type State = ReplayState;
    const SETUP_REPEATS: usize = 9;

    /// Cluster spec plus the whole-cluster plans every iteration reuses.
    fn setup(&self) -> ReplayState {
        let cluster = ClusterSpec::hpdc23();
        let mut cache = ClusterPlanCache::new();
        for library in REPLAY_LIBRARIES {
            cache.lookup_or_compile(
                &library.profile(),
                cluster.topology(),
                &shape(CollectiveKind::Allreduce, REPLAY_BYTES),
            );
        }
        let stats_after_setup = cache.stats();
        ReplayState {
            cluster,
            cache,
            stats_after_setup,
        }
    }

    fn iterate(&self, state: &mut ReplayState, rec: &mut Recorder, iter: u32) -> Iteration {
        let summary = RunOptions::summary();
        let topology = state.cluster.topology();
        let allreduce = shape(CollectiveKind::Allreduce, REPLAY_BYTES);
        let mut out = Iteration::default();
        for library in REPLAY_LIBRARIES {
            let profile = library.profile();
            let params = profile.sim_params(state.cluster.nic);
            let engine = SimEngine::new(params);
            let plan = rec.span("lookup", iter, || {
                state
                    .cache
                    .lookup_or_compile(&profile, topology, &allreduce)
            });
            let trace = rec.span("to_trace", iter, || plan.to_trace(TRACE_TAG));
            let valid = rec.span("validate", iter, || trace.validate().is_ok());
            let full = rec.span("run_with", iter, || engine.run_with(&trace, summary));
            let foldable = rec.span("detect", iter, || FoldedTrace::detect(&trace).is_some());
            let folded = rec.span("run_folded_with", iter, || {
                engine.run_folded_with(&trace, summary)
            });
            out.events += trace.ranks.iter().map(|r| r.ops.len() as u64).sum::<u64>();
            let full_ns = full.ok().filter(|_| valid).map(|o| o.makespan);
            let folded_ns = folded.ok().map(|o| o.makespan);
            // A folded replay must agree with the full one bit for bit.
            if foldable && full_ns.map(f64::to_bits) != folded_ns.map(f64::to_bits) {
                out.failed_checks += 1;
            }
            out.push_ns(full_ns);
            out.push_ns(folded_ns);
            if library == Library::PipMColl {
                let degraded = rec.span("simulate_degraded", iter, || {
                    simulate_degraded(library.name(), &trace, &params, self.drops())
                });
                out.retries += degraded.as_ref().map_or(0, |r| r.retries as u64);
                out.push_ns(degraded.ok().map(|r| r.makespan_ns));
            }
        }
        // The million-rank projection: compile and replay one node's worth.
        let profile = Library::PipMColl.profile();
        let projection = Topology::new(PROJECTION_NODES, PROJECTION_PPN);
        let folded = rec.span("compile_folded", iter, || {
            compile_folded(&profile, projection, &allreduce, TRACE_TAG)
        });
        let outcome = folded.as_ref().map(|folded| {
            out.projected_events += folded.projected_events() as u64;
            let engine = SimEngine::new(profile.sim_params(state.cluster.nic));
            rec.span("run_folded_trace", iter, || {
                engine.run_folded_trace(folded, summary)
            })
        });
        out.push_ns(outcome.and_then(Result::ok).map(|o| o.makespan));
        out
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            "lookup",
            "to_trace",
            "validate",
            "run_with",
            "detect",
            "run_folded_with",
            "simulate_degraded",
            "compile_folded",
            "run_folded_trace",
        ]
    }

    fn layer_metrics(
        &self,
        state: &ReplayState,
        rec: &Recorder,
        iterations: &[Iteration],
        layers: &mut LayerMetrics,
    ) {
        let last = iterations.last().expect("at least one traced iteration");
        let (hits, misses) = state.cache.stats();
        let (hits, misses) = (
            hits - state.stats_after_setup.0,
            misses - state.stats_after_setup.1,
        );
        layers.set(
            "mpi-model.cluster_cache_hit_share",
            hits as f64 / (hits + misses) as f64,
        );
        layers.set(
            "mpi-model.compile_folded_ms",
            stage_ms(rec, "compile_folded"),
        );
        layers.set("collectives.lower_ms_p50", stage_ms(rec, "to_trace"));
        layers.set("netsim.validate_ms_p50", stage_ms(rec, "validate"));
        layers.set("netsim.replay_ms_p50", stage_ms(rec, "run_with"));
        layers.set(
            "netsim.events_per_s",
            events_per_s(rec, "run_with", iterations.iter().map(|i| i.events)),
        );
        layers.set("netsim.fold_detect_ms_p50", stage_ms(rec, "detect"));
        layers.set(
            "netsim.folded_replay_ms_p50",
            stage_ms(rec, "run_folded_with"),
        );
        layers.set(
            "netsim.degraded_replay_ms_p50",
            stage_ms(rec, "simulate_degraded"),
        );
        layers.set(
            "netsim.projected_events_per_s",
            events_per_s(
                rec,
                "run_folded_trace",
                iterations.iter().map(|i| i.projected_events),
            ),
        );
        layers.set("netsim.makespan_us_sum", last.makespan_sum());
        layers.set("netsim.retries", last.retries as f64);
    }
}

pub fn run_sweep(cfg: &RunConfig) -> RunOutput {
    run_workload(cfg, &Sweep)
}

pub fn run_replay(cfg: &RunConfig) -> RunOutput {
    run_workload(cfg, &Replay { seed: cfg.seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(makespans: &[Option<f64>]) -> Iteration {
        Iteration {
            makespan_us: makespans.to_vec(),
            ..Iteration::default()
        }
    }

    #[test]
    fn an_iteration_fails_on_errors_checks_and_any_drift() {
        let reference = iteration(&[Some(1.0), Some(2.0), Some(3.0)]);
        assert_eq!(reference.failures(&reference), 0);
        assert_eq!(reference.makespan_sum(), 6.0);
        let errored = iteration(&[Some(1.0), None, Some(3.0)]);
        assert_eq!(errored.failures(&reference), 1);
        let drifted = iteration(&[Some(1.0), Some(2.0 + f64::EPSILON * 2.0), Some(3.0)]);
        assert_eq!(drifted.failures(&reference), 1);
        let mut unchecked = iteration(&[Some(1.0), Some(2.0), Some(3.0)]);
        unchecked.failed_checks = 2;
        assert_eq!(unchecked.failures(&reference), 2);
    }

    #[test]
    fn the_drop_model_follows_the_seed() {
        let a = Replay { seed: 1 }.drops();
        let b = Replay { seed: 2 }.drops();
        assert_eq!(a.seed, 1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.drop, b.drop);
        assert!(!a.is_identity());
    }
}
