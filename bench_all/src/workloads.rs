//! The benchmark's vocabulary: workload and metric names, units and
//! regression bounds.  `BENCHMARK.json` at the root of the repository lists
//! the same names; a unit test keeps the two in step.

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const EXEC_SMALL: &str = "exec_small";
pub const EXEC_LARGE: &str = "exec_large";
pub const SIM_SWEEP: &str = "sim_sweep";
pub const SIM_REPLAY: &str = "sim_replay";

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: EXEC_SMALL,
        why: "64 B/rank collectives on a 4x4 lockstep world: per-message software overhead \
              (plan lookup, arena, lane match, cursor steps) does all the work, bytes are noise",
    },
    WorkloadInfo {
        name: EXEC_LARGE,
        why: "256 KiB collectives incl. compressed allreduce on the same world: byte-proportional \
              work (conversion, copy, reduce kernel, codec, page faults) dominates, lookups are noise",
    },
    WorkloadInfo {
        name: SIM_SWEEP,
        why: "the figure pipeline run cold at 128x18: fresh plan cache, compile -> lower -> simulate \
              per cell, so whole-cluster compilation dominates and the engine is almost idle",
    },
    WorkloadInfo {
        name: SIM_REPLAY,
        why: "the simulate plane used warm: cached plans, so lowering, validation, full, folded and \
              degraded replay and the 1M-rank projection dominate and compilation is bypassed",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricInfo {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before `compare` calls it regressed; 0 for per-layer metrics,
    /// which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload.  Failures are not a
/// metric here because a metric must never be 0: they travel as the
/// `attempted` / `failed` counts of every result (and as
/// `bench.failed_share` among the per-layer numbers).
pub const END_TO_END: [MetricInfo; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("iter_ms_p50", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
];

/// Per-layer metrics, grouped by the crate they measure.  A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [MetricInfo; 63] = [
    // core: one world-call of each op, median over rounds.
    layer("core.iallgather_us_p50", "us", Lower),
    layer("core.iscatter_us_p50", "us", Lower),
    layer("core.iallreduce_us_p50", "us", Lower),
    layer("core.ireduce_scatter_us_p50", "us", Lower),
    layer("core.pallgather_us_p50", "us", Lower),
    layer("core.pallreduce_us_p50", "us", Lower),
    layer("core.iallreduce_large_us_p50", "us", Lower),
    layer("core.iallgather_large_us_p50", "us", Lower),
    layer("core.iallreduce_compressed_us_p50", "us", Lower),
    layer("core.pallreduce_large_us_p50", "us", Lower),
    layer("core.to_from_bytes_ns_per_kib", "ns/KiB", Lower),
    layer("core.round_us_p99", "us", Lower),
    layer("core.blocking_allreduce_us_p50", "us", Lower),
    // mpi-model: plan caches and compilation.
    layer("mpi-model.plan_hit_ns", "ns", Lower),
    layer("mpi-model.plan_hits_per_round", "count", Lower),
    layer("mpi-model.plan_misses", "count", Lower),
    layer("mpi-model.plan_compile_us", "us", Lower),
    layer("mpi-model.compile_cluster_ms_p50", "ms", Lower),
    layer("mpi-model.cluster_cache_hit_share", "ratio", Higher),
    layer("mpi-model.compile_folded_ms", "ms", Lower),
    // collectives: arena, plan interpreter, kernels, codec, lowering.
    layer("collectives.arena_ns_per_acquire", "ns", Lower),
    layer("collectives.arena_hits_per_round", "count", Higher),
    layer("collectives.arena_misses_steady", "count", Lower),
    layer("collectives.plan_ops_per_round", "count", Lower),
    layer("collectives.interp_residual_us", "us", Lower),
    layer("collectives.interp_ns_per_op", "ns", Lower),
    layer("collectives.reduce_gbps.f32_sum", "GB/s", Higher),
    layer("collectives.compress_mbps", "MB/s", Higher),
    layer("collectives.decompress_mbps", "MB/s", Higher),
    layer("collectives.codec_ratio", "ratio", Higher),
    layer("collectives.interp_residual_large_us", "us", Lower),
    layer("collectives.lower_ms_p50", "ms", Lower),
    // pip-runtime: fabric lanes and shared regions.
    layer("pip-runtime.fabric_ns_per_msg", "ns", Lower),
    layer("pip-runtime.msgs_per_round", "count", Lower),
    layer("pip-runtime.scanned_per_recv", "ratio", Higher),
    layer("pip-runtime.lock_contentions", "count", Lower),
    layer("pip-runtime.expose_attach_ns", "ns", Lower),
    layer("pip-runtime.fabric_ns_per_msg_64k", "ns", Lower),
    layer("pip-runtime.bytes_copied_per_round", "count", Lower),
    layer("pip-runtime.regions_per_round", "count", Lower),
    layer("pip-runtime.launch_ms", "ms", Lower),
    // transport: copy engines, and measured cost over modelled cost.
    layer("transport.copy_gbps.pip", "GB/s", Higher),
    layer("transport.copy_gbps.posix_shmem", "GB/s", Higher),
    layer("transport.copy_vs_model", "ratio", Lower),
    layer("transport.reduce_vs_model", "ratio", Lower),
    layer("transport.codec_vs_model", "ratio", Lower),
    // netsim: host time per stage and per event; simulated statistics.
    layer("netsim.validate_ms_p50", "ms", Lower),
    layer("netsim.replay_ms_p50", "ms", Lower),
    layer("netsim.events_per_s", "1/s", Higher),
    layer("netsim.fold_detect_ms_p50", "ms", Lower),
    layer("netsim.folded_replay_ms_p50", "ms", Lower),
    layer("netsim.degraded_replay_ms_p50", "ms", Lower),
    layer("netsim.projected_events_per_s", "1/s", Higher),
    layer("netsim.makespan_us_sum", "us", Lower),
    layer("netsim.retries", "count", Lower),
    layer("netsim.speedup_allgather", "ratio", Higher),
    layer("netsim.speedup_scatter", "ratio", Higher),
    // bench: the figure-table route, and the cost of looking.
    layer("bench.table_cold_ms", "ms", Lower),
    layer("bench.table_warm_ms", "ms", Lower),
    layer("bench.trace_overhead", "ratio", Lower),
    layer("bench.iter_ms_p90", "ms", Lower),
    layer("bench.wall_over_cpu", "ratio", Lower),
    layer("bench.failed_share", "ratio", Lower),
];

/// Per-layer metrics that are counts or simulated-time statistics and must
/// repeat exactly between two runs of one commit with one seed.
pub const EXACT_REPEAT: [&str; 10] = [
    "mpi-model.plan_hits_per_round",
    "mpi-model.plan_misses",
    "collectives.arena_misses_steady",
    "collectives.plan_ops_per_round",
    "pip-runtime.msgs_per_round",
    "pip-runtime.regions_per_round",
    "netsim.makespan_us_sum",
    "netsim.retries",
    "netsim.speedup_allgather",
    "netsim.speedup_scatter",
];

pub fn end_to_end(name: &str) -> Option<&'static MetricInfo> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static MetricInfo> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// End-to-end metrics only: spread of the run's own blocks (see
    /// [`crate::stats::block_spread`]).
    pub block_spread: f64,
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    /// Upper limit on the measured part of the run, in seconds.
    pub seconds: f64,
    pub traced: bool,
}

/// What one run found.
#[derive(Debug)]
pub struct RunOutput {
    /// Operations attempted (world-calls, cells or replays) and how many
    /// of them produced a wrong or missing output.
    pub attempted: u64,
    pub failed: u64,
    /// Iterations measured (rounds or sweeps).
    pub iterations: usize,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced
    /// one.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the human reader (attribution tables, notes).
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub spans: Option<crate::spans::Recorder>,
}

/// Accumulates per-layer metrics, checking every name against
/// [`PER_LAYER`] and filling the layers a workload leaves out with 0.
#[derive(Debug, Default)]
pub struct LayerMetrics(Vec<Metric>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(per_layer(name).is_some(), "unknown per-layer metric {name}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "per-layer metric {name} set twice"
        );
        self.0.push(Metric {
            name,
            value,
            block_spread: 0.0,
        });
    }

    /// Every per-layer metric in table order, 0 where nothing was set.
    pub fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|info| {
                self.0
                    .iter()
                    .find(|m| m.name == info.name)
                    .cloned()
                    .unwrap_or(Metric {
                        name: info.name,
                        value: 0.0,
                        block_spread: 0.0,
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads() {
        let file = benchmark_json();
        let listed: Vec<(&str, &str)> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_units_and_bounds() {
        let file = benchmark_json();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = file.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, info) in listed.iter().zip(table) {
                assert_eq!(field(entry, "name"), info.name);
                assert_eq!(field(entry, "unit"), info.unit, "{}", info.name);
                assert_eq!(
                    field(entry, "better"),
                    info.better.as_str(),
                    "{}",
                    info.name
                );
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(Json::as_f64);
                    assert_eq!(bound, Some(info.bound), "{}", info.name);
                    assert!(info.bound > 0.0 && info.bound <= 0.25);
                }
            }
        }
    }

    #[test]
    fn names_are_unique_and_exact_repeat_names_exist() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in EXACT_REPEAT {
            assert!(per_layer(name).is_some(), "{name}");
        }
    }

    #[test]
    fn unset_layers_report_zero_in_table_order() {
        let mut layers = LayerMetrics::default();
        layers.set("bench.trace_overhead", 1.25);
        let all = layers.finish();
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(all[0].name, PER_LAYER[0].name);
        assert_eq!(all[0].value, 0.0);
        let set = all
            .iter()
            .find(|m| m.name == "bench.trace_overhead")
            .unwrap();
        assert_eq!(set.value, 1.25);
    }
}
