//! Ablation **ABL-MSGRATE** (§2 motivation): achievable per-node message
//! rate and throughput as a function of the number of concurrent sender
//! objects per node.
//!
//! This is the effect the multi-object design exploits: a single process
//! cannot saturate the Omni-Path adapter's ~97 M msg/s, but many concurrent
//! senders can.  The table prints both the analytic model and a simulated
//! burst of small messages.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin abl_message_rate
//! ```

#![forbid(unsafe_code)]

use pip_netsim::params::SimParams;
use pip_netsim::trace::{Trace, TraceOp};
use pip_netsim::SimEngine;
use pip_runtime::Topology;
use pip_transport::netcard::NicModel;

fn simulated_rate(senders: usize, messages_per_sender: usize, bytes: usize) -> f64 {
    // Two nodes; `senders` processes on node 0 each blast messages at their
    // counterpart on node 1.
    let topo = Topology::new(2, senders.max(1));
    let mut trace = Trace::empty(topo);
    for s in 0..senders {
        for m in 0..messages_per_sender {
            let dest = topo.rank_of(1, s);
            trace.push(
                s,
                TraceOp::Send {
                    dest,
                    bytes,
                    tag: m as u64,
                },
            );
            trace.push(
                dest,
                TraceOp::Recv {
                    source: s,
                    bytes,
                    tag: m as u64,
                },
            );
        }
    }
    let outcome = SimEngine::new(SimParams::default()).run(&trace).unwrap();
    let total_messages = senders * messages_per_sender;
    total_messages as f64 / (outcome.makespan / 1e9)
}

fn main() {
    let nic = NicModel::default();
    let bytes = 64;
    let messages_per_sender = 200;
    println!("=== ABL-MSGRATE: node message rate vs. concurrent sender objects (64 B) ===\n");
    println!(
        "| Senders | Model rate (M msg/s) | Simulated rate (M msg/s) | Model throughput (Gb/s) |"
    );
    println!("|---|---|---|---|");
    for senders in [1, 2, 4, 8, 12, 18, 24, 36] {
        let model_rate = nic.node_message_rate(senders, bytes) / 1e6;
        let sim_rate = simulated_rate(senders, messages_per_sender, bytes) / 1e6;
        let throughput = nic.node_throughput(senders, bytes) * 8.0 / 1e9;
        println!("| {senders} | {model_rate:.2} | {sim_rate:.2} | {throughput:.2} |");
    }
    println!();
    let single = nic.node_message_rate(1, bytes);
    let full = nic.node_message_rate(18, bytes);
    println!(
        "18 sender objects achieve {:.1}x the message rate of a single sender (adapter cap: {:.0} M msg/s).",
        full / single,
        1e9 / nic.nic_occupancy(bytes) / 1e6
    );
}
