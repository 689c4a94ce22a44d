//! Where a result was measured: recorded with every results file, because
//! none of the numbers mean anything on another machine.

use std::process::Command;

use crate::json::Json;

/// First line of a command's standard output, or "unknown" when the command
/// is missing or fails (the driver's checkout, for one, is not a git
/// repository).  `output()` waits for the child to end.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn describe() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj(vec![
        ("nproc", Json::Int(nproc)),
        ("cpu", Json::str(cpu_model())),
        (
            "git_rev",
            Json::str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
    ])
}
