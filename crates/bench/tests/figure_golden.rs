//! The paper's figure and ablation tables are committed artifacts: every
//! deterministic binary of this crate runs here and its stdout must equal
//! `docs/figures/<bin>.txt` byte for byte.  A change that moves a number —
//! a selection row, a calibration constant, an engine tie-break — fails
//! with the file and its first differing line, or with the binary's own
//! failing assert.
//!
//! A deliberate change regenerates the file and records the regeneration
//! in CHANGES.md:
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin fig1_scatter > docs/figures/fig1_scatter.txt
//! cargo run --release -p pip-mcoll-bench --bin fig_compression -- --small > docs/figures/fig_compression.txt
//! ```
//!
//! The host-timed binaries (`bench_netsim`, `bench_reduce_kernels`,
//! `abl_mailbox_contention`) print wall-clock rates and are not pinned.

use std::path::Path;
use std::process::Command;

/// Run `exe` with `args` and compare its stdout with the committed table.
fn check(bin: &str, exe: &str, args: &[&str]) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("tables are UTF-8");
    let file = format!("docs/figures/{bin}.txt");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(&file);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
    if actual == committed {
        return;
    }
    let command = [&[bin][..], args].concat().join(" ");
    let (mut committed_lines, mut actual_lines) = (committed.lines(), actual.lines());
    let mut line = 1;
    loop {
        match (committed_lines.next(), actual_lines.next()) {
            (Some(c), Some(a)) if c == a => line += 1,
            (c, a) => panic!(
                "{file} differs from the output of `{command}` at line {line}:\n  \
                 committed: {}\n  now:       {}\nIf the change is deliberate, regenerate \
                 the file and record it in CHANGES.md.",
                c.unwrap_or("<end of file>"),
                a.unwrap_or("<end of output>"),
            ),
        }
    }
}

macro_rules! golden {
    ($($bin:ident $(, $arg:literal)?;)*) => {$(
        #[test]
        #[cfg_attr(
            debug_assertions,
            ignore = "the paper-scale sweeps take minutes unoptimized; CI runs this suite in release"
        )]
        fn $bin() {
            check(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                &[$($arg)?],
            );
        }
    )*};
}

golden! {
    fig1_scatter;
    fig2_allgather;
    fig_reduce_scatter;
    fig_projection;
    fig_compression, "--small";
    fig_degradation;
    abl_large_messages;
    abl_node_scaling;
    abl_message_rate;
    abl_sync_overhead;
    abl_transport_latency;
    overlap_allreduce;
}
