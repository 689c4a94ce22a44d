//! Rendering results: the lines a person reads, the one-line result the
//! driver reads, and the results file `compare` reads.

use crate::json::Json;
use crate::stats::{samples_beyond, MIN_BEYOND};
use crate::workloads::{end_to_end, per_layer, Metric, RunConfig, RunOutput, WorkloadInfo};

pub const SCHEMA: &str = "bench_all/1";

fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .or_else(|| per_layer(name))
        .map_or("", |info| info.unit)
}

/// Every metric of a run by name, with its unit, plus the run's notes.
pub fn print_run(cfg: &RunConfig, output: &RunOutput) {
    println!(
        "== {} ({}, seed {}): {} iterations, {} operations attempted, {} failed",
        cfg.workload,
        if cfg.traced { "traced" } else { "untraced" },
        cfg.seed,
        output.iterations,
        output.attempted,
        output.failed
    );
    for metric in &output.metrics {
        let mut line = format!(
            "  {:<40} {:>16.4} {}",
            metric.name,
            metric.value,
            unit_of(metric.name)
        );
        if let Some(info) = end_to_end(metric.name) {
            line.push_str(&format!(
                "   (bound {:.0} %, block spread {:.1} %)",
                100.0 * info.bound,
                100.0 * metric.block_spread
            ));
        }
        if metric.name == "bench.iter_ms_p90"
            && samples_beyond(output.iterations, 90.0) < MIN_BEYOND
        {
            line.push_str(&format!(
                "   [only {} samples beyond it]",
                samples_beyond(output.iterations, 90.0)
            ));
        }
        println!("{line}");
    }
    if !cfg.traced {
        println!(
            "  {:<40} {:>16.4} ratio",
            "failed_share",
            output.failed as f64 / output.attempted as f64
        );
    }
    for note in &output.notes {
        println!("  {note}");
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(unit_of(m.name))),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output in a single run: exactly the keys the
/// driver's contract names.
pub fn driver_line(output: &RunOutput) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(output.failed == 0)),
        ("attempted", Json::Int(output.attempted)),
        ("failed", Json::Int(output.failed)),
        ("metrics", metrics_json(&output.metrics)),
    ])
    .render()
}

/// Everything one run found, as the file a single run leaves in `--out`
/// for the full run that started it.  End-to-end metrics carry their bound
/// and block spread.
pub fn run_record(output: &RunOutput) -> Json {
    let metrics = output
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::str(unit_of(m.name))),
            ];
            if let Some(info) = end_to_end(m.name) {
                fields.push(("bound", Json::Num(info.bound)));
                fields.push(("block_spread", Json::Num(m.block_spread)));
            }
            (m.name.to_string(), Json::obj(fields))
        })
        .collect();
    Json::obj(vec![
        ("attempted", Json::Int(output.attempted)),
        ("failed", Json::Int(output.failed)),
        ("iterations", Json::Int(output.iterations as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One workload's entry in the results file, from the records of its
/// untraced and traced runs.
pub fn workload_json(info: &WorkloadInfo, untraced: &Json, traced: &Json) -> Json {
    let counts = |record: &Json| {
        Json::Obj(
            ["attempted", "failed", "iterations"]
                .iter()
                .map(|key| {
                    (
                        key.to_string(),
                        record.get(key).cloned().unwrap_or(Json::Null),
                    )
                })
                .collect(),
        )
    };
    let metrics = |record: &Json| match record.get("metrics") {
        Some(Json::Obj(fields)) => fields.clone(),
        _ => Vec::new(),
    };
    let count = |key: &str| untraced.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let mut e2e = metrics(untraced);
    e2e.push((
        "failed_share".to_string(),
        Json::obj(vec![
            ("value", Json::Num(count("failed") / count("attempted"))),
            ("unit", Json::str("ratio")),
        ]),
    ));
    Json::obj(vec![
        ("name", Json::str(info.name)),
        ("why", Json::str(info.why)),
        ("untraced", counts(untraced)),
        ("traced", counts(traced)),
        ("end_to_end", Json::Obj(e2e)),
        ("per_layer", Json::Obj(metrics(traced))),
    ])
}

/// The results file of a full run.
pub fn results_json(seed: u64, seconds: f64, quick: bool, env: Json, workloads: Vec<Json>) -> Json {
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("quick", Json::Bool(quick)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("env", env),
        ("workloads", Json::Arr(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{LayerMetrics, END_TO_END, PER_LAYER, WORKLOADS};

    fn untraced() -> RunOutput {
        RunOutput {
            attempted: 600,
            failed: 0,
            iterations: 100,
            metrics: crate::measure::end_to_end_metrics(&[0.5], &[1e6; 100], 600),
            notes: Vec::new(),
            spans: None,
        }
    }

    fn traced() -> RunOutput {
        let mut layers = LayerMetrics::default();
        layers.set("pip-runtime.msgs_per_round", 368.0);
        RunOutput {
            attempted: 300,
            failed: 3,
            iterations: 50,
            metrics: layers.finish(),
            notes: Vec::new(),
            spans: None,
        }
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&untraced());
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<_> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let metrics = parsed.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        let p50 = parsed
            .get("metrics")
            .and_then(|m| m.get("iter_ms_p50"))
            .unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.0));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn a_traced_driver_line_lists_every_per_layer_metric_and_flags_failures() {
        let parsed = Json::parse(&driver_line(&traced())).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("failed"), Some(&Json::Int(3)));
        let metrics = parsed.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn the_results_file_round_trips() {
        let entry = workload_json(
            &WORKLOADS[0],
            &run_record(&untraced()),
            &run_record(&traced()),
        );
        let file = results_json(7, 20.0, false, Json::obj(vec![]), vec![entry]);
        let parsed = Json::parse(&file.render_pretty()).unwrap();
        assert_eq!(parsed, file);
        let workload = &parsed.get("workloads").and_then(Json::as_arr).unwrap()[0];
        let e2e = workload.get("end_to_end").unwrap();
        assert_eq!(
            e2e.get("iter_ms_p50")
                .and_then(|m| m.get("bound"))
                .and_then(Json::as_f64),
            end_to_end("iter_ms_p50").map(|info| info.bound)
        );
        assert_eq!(
            e2e.get("failed_share")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        let msgs = workload
            .get("per_layer")
            .and_then(|p| p.get("pip-runtime.msgs_per_round"))
            .unwrap();
        assert_eq!(msgs.get("value").and_then(Json::as_f64), Some(368.0));
        assert!(msgs.get("bound").is_none());
        assert_eq!(
            workload.get("traced").and_then(|t| t.get("failed")),
            Some(&Json::Int(3))
        );
    }
}
