//! `bench_all compare <a.json> <b.json>`: is `b` no worse than `a`?
//!
//! One row per workload and end-to-end metric, with both medians, the
//! ratio with its base, and a verdict.  Counts and simulated statistics
//! that must repeat exactly are compared exactly.

use crate::json::Json;
use crate::report::SCHEMA;
use crate::workloads::{Better, MetricInfo, END_TO_END, EXACT_REPEAT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Within,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// Not worse by more than the bound, but a run's own blocks spread
    /// wider than the bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a` by which `b` is worse (negative when better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

pub fn verdict(info: &MetricInfo, a: f64, b: f64, block_spread: f64) -> Verdict {
    if worsening(info.better, a, b) > info.bound {
        Verdict::Regressed
    } else if block_spread > info.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// What a comparison found, worst first in [`Outcome::exit_code`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub regressed: usize,
    pub unresolved: usize,
    /// Exact-repeat numbers that differ, and failed operations.
    pub broken: usize,
}

impl Outcome {
    /// 0: every metric within its bound; 1: a regression, a count that did
    /// not repeat or a failed operation; 2: nothing regressed but something
    /// is unresolved.
    pub fn exit_code(&self) -> i32 {
        if self.regressed > 0 || self.broken > 0 {
            1
        } else if self.unresolved > 0 {
            2
        } else {
            0
        }
    }
}

/// Whether a parsed file is a full-length results file of this benchmark.
fn accept(file: &Json) -> Result<(), String> {
    if file.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} results file"));
    }
    if file.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(
            "a --quick run is a smoke test, not a measurement; refusing to compare it".to_string(),
        );
    }
    Ok(())
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    accept(&file).map_err(|e| format!("{path}: {e}"))?;
    Ok(file)
}

fn workloads(file: &Json) -> &[Json] {
    file.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn number(entry: Option<&Json>, key: &str) -> Option<f64> {
    entry.and_then(|e| e.get(key)).and_then(Json::as_f64)
}

/// Compare two parsed results files, returning the report lines.
pub fn compare_files(a: &Json, b: &Json) -> (Vec<String>, Outcome) {
    let mut lines = Vec::new();
    let mut outcome = Outcome::default();
    let same_seed = a.get("seed") == b.get("seed");
    lines.push(format!(
        "{:<11} {:<12} {:>14} {:>14} {:>16} {:>6} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound", "spread"
    ));
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            lines.push(format!("{name:<11} missing from b"));
            outcome.broken += 1;
            continue;
        };
        for info in &END_TO_END {
            let ea = wa.get("end_to_end").and_then(|e| e.get(info.name));
            let eb = wb.get("end_to_end").and_then(|e| e.get(info.name));
            let (Some(va), Some(vb)) = (number(ea, "value"), number(eb, "value")) else {
                lines.push(format!("{name:<11} {:<12} missing", info.name));
                outcome.broken += 1;
                continue;
            };
            let spread = number(ea, "block_spread")
                .unwrap_or(0.0)
                .max(number(eb, "block_spread").unwrap_or(0.0));
            let verdict = verdict(info, va, vb, spread);
            match verdict {
                Verdict::Regressed => outcome.regressed += 1,
                Verdict::Unresolved => outcome.unresolved += 1,
                Verdict::Within => {}
            }
            lines.push(format!(
                "{name:<11} {:<12} {va:>14.4} {vb:>14.4} {:>9.4}x of a {:>5.0}% {:>6.1}%  {}",
                info.name,
                vb / va,
                100.0 * info.bound,
                100.0 * spread,
                verdict.as_str()
            ));
        }
        for (side, w) in [("a", wa), ("b", wb)] {
            for run in ["untraced", "traced"] {
                let failed = w
                    .get(run)
                    .and_then(|r| r.get("failed"))
                    .and_then(Json::as_u64);
                if failed != Some(0) {
                    lines.push(format!(
                        "{name:<11} {side}: {run} run has failed operations ({failed:?})"
                    ));
                    outcome.broken += 1;
                }
            }
        }
        if !same_seed {
            continue;
        }
        for exact in EXACT_REPEAT {
            let value = |w: &Json| number(w.get("per_layer").and_then(|p| p.get(exact)), "value");
            let (va, vb) = (value(wa), value(wb));
            if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                lines.push(format!(
                    "{name:<11} {exact} must repeat exactly: a {va:?}, b {vb:?}"
                ));
                outcome.broken += 1;
            }
        }
    }
    if !same_seed {
        lines.push(
            "seeds differ: exact-repeat counts and simulated statistics were not compared"
                .to_string(),
        );
    }
    lines.push(format!(
        "{} regressed, {} unresolved, {} broken (failed operations or counts that did not repeat)",
        outcome.regressed, outcome.unresolved, outcome.broken
    ));
    (lines, outcome)
}

/// Entry point of the `compare` subcommand; returns the exit code.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_all compare: {e}");
            return 3;
        }
    };
    let (lines, outcome) = compare_files(&a, &b);
    for line in lines {
        println!("{line}");
    }
    outcome.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: u64, p50: f64, ops: f64, spread: f64, msgs: f64, failed: u64) -> Json {
        let metric = |value: f64, spread: f64| {
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("block_spread", Json::Num(spread)),
            ])
        };
        let counts = |failed| Json::obj(vec![("failed", Json::Int(failed))]);
        let per_layer = Json::Obj(
            EXACT_REPEAT
                .iter()
                .map(|name| {
                    let value = if *name == "pip-runtime.msgs_per_round" {
                        msgs
                    } else {
                        1.0
                    };
                    (
                        name.to_string(),
                        Json::obj(vec![("value", Json::Num(value))]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("quick", Json::Bool(false)),
            ("seed", Json::Int(seed)),
            (
                "workloads",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("exec_small")),
                    ("untraced", counts(failed)),
                    ("traced", counts(0)),
                    (
                        "end_to_end",
                        Json::obj(vec![
                            ("setup_s", metric(1.0, 0.0)),
                            ("iter_ms_p50", metric(p50, spread)),
                            ("ops_per_s", metric(ops, 0.0)),
                            ("peak_rss_mb", metric(100.0, 0.0)),
                        ]),
                    ),
                    ("per_layer", per_layer),
                ])]),
            ),
        ])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let metric = |better| MetricInfo {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        };
        let (p50, ops) = (&metric(Better::Lower), &metric(Better::Higher));
        assert_eq!(verdict(p50, 1.0, 1.09, 0.0), Verdict::Within);
        assert_eq!(verdict(p50, 1.0, 1.11, 0.0), Verdict::Regressed);
        assert_eq!(verdict(p50, 1.0, 0.5, 0.0), Verdict::Within);
        assert_eq!(verdict(p50, 1.0, 1.0, 0.2), Verdict::Unresolved);
        assert_eq!(verdict(p50, 1.0, 1.5, 0.2), Verdict::Regressed);
        // Higher is better: losing more than 10 % of the rate is the regression.
        assert_eq!(verdict(ops, 100.0, 91.0, 0.0), Verdict::Within);
        assert_eq!(verdict(ops, 100.0, 89.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(ops, 100.0, 150.0, 0.0), Verdict::Within);
    }

    #[test]
    fn identical_files_are_within_and_exit_zero() {
        let a = file(1, 1.0, 100.0, 0.01, 368.0, 0);
        let (lines, outcome) = compare_files(&a, &a);
        assert_eq!(outcome, Outcome::default());
        assert_eq!(outcome.exit_code(), 0);
        assert_eq!(lines.iter().filter(|l| l.ends_with("within")).count(), 4);
    }

    #[test]
    fn regressions_unresolved_and_broken_counts_set_the_exit_code() {
        let a = file(1, 1.0, 100.0, 0.01, 368.0, 0);
        let slower = file(1, 1.3, 70.0, 0.01, 368.0, 0);
        let (_, outcome) = compare_files(&a, &slower);
        assert_eq!(outcome.regressed, 2);
        assert_eq!(outcome.exit_code(), 1);

        let noisy = file(1, 1.0, 100.0, 0.3, 368.0, 0);
        let (_, outcome) = compare_files(&a, &noisy);
        assert_eq!((outcome.regressed, outcome.unresolved), (0, 1));
        assert_eq!(outcome.exit_code(), 2);

        let recount = file(1, 1.0, 100.0, 0.01, 369.0, 0);
        let (lines, outcome) = compare_files(&a, &recount);
        assert_eq!(outcome.broken, 1);
        assert_eq!(outcome.exit_code(), 1);
        assert!(lines.iter().any(|l| l.contains("must repeat exactly")));

        let failing = file(1, 1.0, 100.0, 0.01, 368.0, 2);
        assert_eq!(compare_files(&a, &failing).1.exit_code(), 1);
    }

    #[test]
    fn different_seeds_skip_the_exact_comparison() {
        let a = file(1, 1.0, 100.0, 0.01, 368.0, 0);
        let b = file(2, 1.0, 100.0, 0.01, 400.0, 0);
        let (lines, outcome) = compare_files(&a, &b);
        assert_eq!(outcome.exit_code(), 0);
        assert!(lines.iter().any(|l| l.starts_with("seeds differ")));
    }

    #[test]
    fn quick_runs_and_foreign_files_are_refused() {
        let good = file(1, 1.0, 100.0, 0.01, 368.0, 0);
        assert!(accept(&good).is_ok());
        let mut quick = good.clone();
        if let Json::Obj(fields) = &mut quick {
            assert_eq!(fields[1].0, "quick");
            fields[1].1 = Json::Bool(true);
        }
        assert!(accept(&quick).unwrap_err().contains("--quick"));
        let foreign = Json::obj(vec![("schema", Json::str("other"))]);
        assert!(accept(&foreign).unwrap_err().contains("results file"));
        assert!(load("no/such/results.json").is_err());
        assert_eq!(run("no/such/a.json", "no/such/b.json"), 3);
    }
}
