//! `bench_all`: one repeatable benchmark for the execute and simulate
//! planes, with per-layer attribution.  See `README.md` beside this
//! package's manifest for what is measured and why.
//!
//! ```text
//! bench_all [--seed N] [--seconds S] [--only W] [--quick] [--out DIR]
//!     every workload untraced, then traced, each in a process of its own;
//!     prints every metric and writes DIR/results.json and
//!     DIR/trace_<workload>.json (DIR: target/bench)
//! bench_all --workload W --trace 0|1 [--seed N] [--seconds S] [--out DIR]
//!     one run; the last line of standard output is the result as JSON
//! bench_all compare A.json B.json
//!     is B no worse than A?  exit 0 within, 1 regressed/broken, 2 unresolved
//! ```

mod clock;
mod compare;
mod env;
mod exec;
mod inputs;
mod json;
mod layers;
mod lockstep;
mod measure;
mod report;
mod sim;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use workloads::{RunConfig, RunOutput, WorkloadInfo, WORKLOADS};

/// Length of one measured run unless `--seconds` says otherwise; the same
/// number is `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

/// Upper limit on events written to one Chrome-trace file.
const TRACE_FILE_EVENTS: usize = 20_000;

#[derive(Debug, PartialEq)]
struct Args {
    seed: u64,
    seconds: f64,
    /// `--workload`: a single run under the driver's contract.
    workload: Option<&'static str>,
    traced: bool,
    /// `--only`: restrict a full run to one workload.
    only: Option<&'static str>,
    quick: bool,
    out: Option<PathBuf>,
}

fn workload_named(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|w| *w == name)
        .ok_or_else(|| {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        workload: None,
        traced: false,
        only: None,
        quick: false,
        out: None,
    };
    let mut trace_given = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                let text = value()?;
                parsed.seed = text
                    .parse()
                    .map_err(|_| format!("--seed {text:?}: not a u64"))?;
            }
            "--seconds" => {
                let text = value()?;
                parsed.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {text:?}: not a positive number"))?;
            }
            "--workload" => parsed.workload = Some(workload_named(value()?)?),
            "--only" => parsed.only = Some(workload_named(value()?)?),
            "--trace" => {
                trace_given = true;
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload.is_some() && (parsed.only.is_some() || parsed.quick) {
        return Err("--workload is a single run; --only and --quick belong to a full run".into());
    }
    if trace_given && parsed.workload.is_none() {
        return Err("--trace needs --workload (a full run does both)".into());
    }
    Ok(parsed)
}

fn run_one(cfg: &RunConfig) -> RunOutput {
    match cfg.workload {
        workloads::EXEC_SMALL => exec::run(cfg, &exec::SMALL),
        workloads::EXEC_LARGE => exec::run(cfg, &exec::LARGE),
        workloads::SIM_SWEEP => sim::run_sweep(cfg),
        workloads::SIM_REPLAY => sim::run_replay(cfg),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn write_file(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Write the spans of the first iterations of a traced run.
fn write_trace(dir: &Path, workload: &str, output: &RunOutput) -> Result<(), String> {
    let Some(rec) = &output.spans else {
        return Ok(());
    };
    let per_iteration = rec.spans().len().div_ceil(output.iterations.max(1));
    let max_iters = (TRACE_FILE_EVENTS / per_iteration.max(1)).max(1) as u32;
    write_file(
        dir,
        &format!("trace_{workload}.json"),
        &rec.chrome_trace(max_iters).render(),
    )
}

fn record_name(workload: &str, traced: bool) -> String {
    format!(
        "run_{workload}_{}.json",
        if traced { "traced" } else { "untraced" }
    )
}

/// A single run under the driver's contract.  With `--out` it also leaves
/// its trace file and a record of the run there.
fn single_run(args: &Args, workload: &'static str) -> Result<bool, String> {
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let output = {
        let _companion = clock::Companion::start();
        run_one(&cfg)
    };
    report::print_run(&cfg, &output);
    if let Some(dir) = &args.out {
        write_trace(dir, workload, &output)?;
        // For the full run that started this one, which removes it again.
        let record = dir.join(record_name(workload, args.traced));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&record, report::run_record(&output).render_pretty()))
            .map_err(|e| format!("{}: {e}", record.display()))?;
    }
    println!("{}", report::driver_line(&output));
    Ok(output.failed == 0)
}

/// Every workload untraced, then traced, and the results file.
///
/// Each run is a single run in a process of its own, so that peak memory
/// and allocator state are a workload's own and a full run measures exactly
/// what the driver's single runs measure.
fn full_run(args: &Args) -> Result<bool, String> {
    let seconds = if args.quick {
        args.seconds / 20.0
    } else {
        args.seconds
    };
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/bench"));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let selected: Vec<&WorkloadInfo> = WORKLOADS
        .iter()
        .filter(|w| args.only.is_none_or(|only| only == w.name))
        .collect();
    let mut clean = true;
    let mut run = |workload: &str, traced: bool| -> Result<Json, String> {
        // `status()` waits for the child to end.
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&dir)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => clean = false,
            _ => return Err(format!("{workload} run ended with {status}")),
        }
        let path = dir.join(record_name(workload, traced));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    // End-to-end numbers first, with tracing off; then the traced runs.
    let untraced = selected
        .iter()
        .map(|w| run(w.name, false))
        .collect::<Result<Vec<_>, _>>()?;
    let traced = selected
        .iter()
        .map(|w| run(w.name, true))
        .collect::<Result<Vec<_>, _>>()?;
    let entries = selected
        .iter()
        .zip(untraced.iter().zip(&traced))
        .map(|(info, (untraced, traced))| report::workload_json(info, untraced, traced))
        .collect();
    let results = report::results_json(args.seed, seconds, args.quick, env::describe(), entries);
    write_file(&dir, "results.json", &results.render_pretty())?;
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => ExitCode::from(compare::run(a, b) as u8),
            _ => {
                eprintln!("usage: bench_all compare <a.json> <b.json>");
                ExitCode::from(3)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("bench_all: {message}");
            return ExitCode::from(3);
        }
    };
    let outcome = match parsed.workload {
        Some(workload) => single_run(&parsed, workload),
        None => full_run(&parsed),
    };
    match outcome {
        // A wrong output is a failed run, whatever the timings say.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench_all: {message}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_invocation_parses() {
        let args = parse(&[
            "--workload",
            "sim_replay",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some("sim_replay"));
        assert_eq!(args.seed, u64::MAX);
        assert_eq!(args.seconds, 20.0);
        assert!(args.traced);
        assert_eq!(args.out, None);
    }

    #[test]
    fn a_full_run_defaults_to_seed_1_and_the_benchmark_length() {
        let args = parse(&[]).unwrap();
        assert_eq!(
            (args.seed, args.seconds, args.quick),
            (1, DEFAULT_SECONDS, false)
        );
        let args = parse(&["--only", "exec_large", "--quick", "--out", "x/y"]).unwrap();
        assert_eq!(args.only, Some("exec_large"));
        assert!(args.quick);
        assert_eq!(args.out, Some(PathBuf::from("x/y")));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "1"],
            &["--workload", "exec_small", "--trace", "2"],
            &["--workload", "exec_small", "--quick"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
