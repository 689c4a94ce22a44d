//! The motivation behind the multi-object design, from the public API: how
//! the achievable per-node message rate grows with the number of concurrent
//! sender processes ("objects"), and where the adapter's aggregate message
//! rate caps it.
//!
//! ```text
//! cargo run --release --example message_rate
//! ```

#![forbid(unsafe_code)]

use pip_mcoll::netsim::params::SimParams;
use pip_mcoll::netsim::trace::{Trace, TraceOp};
use pip_mcoll::netsim::SimEngine;
use pip_mcoll::runtime::Topology;
use pip_mcoll::transport::netcard::NicModel;

fn main() {
    let nic = NicModel::default();
    let bytes = 64;
    println!(
        "Omni-Path model: 100 Gb/s, {:.0} M msg/s aggregate\n",
        1e9 / nic.nic_occupancy(bytes) / 1e6
    );
    println!(
        "{:<10} {:<22} {:<22}",
        "senders", "model rate (M msg/s)", "simulated (M msg/s)"
    );
    for senders in [1usize, 2, 4, 8, 12, 18] {
        let model = nic.node_message_rate(senders, bytes) / 1e6;

        let topo = Topology::new(2, senders);
        let mut trace = Trace::empty(topo);
        let per_sender = 200;
        for s in 0..senders {
            for m in 0..per_sender {
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
        let simulated = (senders * per_sender) as f64 / (outcome.makespan / 1e9) / 1e6;
        println!("{senders:<10} {model:<22.2} {simulated:<22.2}");
    }
    println!("\nA single process is limited by its per-message host overhead; eighteen");
    println!("concurrent sender objects (one per core used by the paper) multiply the");
    println!("achievable rate, which is exactly what PiP-MColl's multi-object design does.");
}
