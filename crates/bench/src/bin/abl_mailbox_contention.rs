//! Ablation **ABL-MAILBOX** (§3–4): mailbox shard count vs. message
//! throughput at the paper's intra-node scale (18 processes per node on the
//! hpdc23 testbed).
//!
//! `abl_message_rate` shows the *analytic* effect — many sender objects
//! saturate the NIC where one cannot.  This ablation shows the same effect
//! on the functional runtime: 18 live ranks hammer each other's mailboxes
//! with mixed tags, and the shard-count axis (1 → 2 → 4 → 8) splits the
//! single shared lock into independent objects.  One shard is the
//! single-lock baseline the speedups are relative to.
//!
//! Asserted, because it is a count and not a timing: every receive
//! examines exactly one lane head (scanned per message is 1.0) at every
//! shard count.  Throughput and lock contentions are printed, not asserted.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin abl_mailbox_contention
//! ```

#![forbid(unsafe_code)]

use pip_mcoll_bench::fabric_bench::{
    rounds_for_budget, run_mailbox_workload, MAILBOX_PAYLOAD_BYTES, SHARD_AXIS,
};

/// The hpdc23 testbed runs 18 processes per node; the fabric of one node is
/// what the shard count shards.
const HPDC23_PPN: usize = 18;

/// A deep mixed-tag backlog: the regime in which a single shared queue
/// would have to scan, and which the lanes match in O(1).
const OUTSTANDING: usize = 512;
const MESSAGE_BUDGET: usize = 60_000;

fn main() {
    let rounds = rounds_for_budget(HPDC23_PPN, OUTSTANDING, MESSAGE_BUDGET);
    println!(
        "=== ABL-MAILBOX: shard count vs. throughput ({HPDC23_PPN} ranks, {OUTSTANDING} outstanding, {MAILBOX_PAYLOAD_BYTES} B) ===\n"
    );
    println!("| Shards | M msg/s | Speedup vs 1 shard | Lock contentions | Scanned/msg |");
    println!("|---|---|---|---|---|");

    let mut single_lock_rate = None;
    for shards in SHARD_AXIS {
        let point = run_mailbox_workload(HPDC23_PPN, OUTSTANDING, rounds, shards);
        assert_eq!(
            point.messages_scanned, point.messages,
            "{shards} shards: every receive must examine exactly one lane head"
        );
        let baseline = *single_lock_rate.get_or_insert(point.msgs_per_sec);
        let speedup = point.msgs_per_sec / baseline;
        println!(
            "| {} | {:.2} | {:.2}x | {} | {:.1} |",
            shards,
            point.msgs_per_sec / 1e6,
            speedup,
            point.lock_contentions,
            point.messages_scanned as f64 / point.messages as f64
        );
    }

    println!(
        "\nSharding the mailbox splits the shared lock, and exact lanes leave nothing to scan — \
         the multi-object technique applied to the simulated substrate."
    );
}
