//! The paper's §2 workload from the public API: run the multi-object
//! allgather for real on the thread runtime across a grid of node counts and
//! processes per node, verify every result against the oracle, and report
//! how many inter-node messages each design issues per process (the quantity
//! the multi-object design minimizes on the critical path).
//!
//! ```text
//! cargo run --release --example allgather_nodes
//! ```

#![forbid(unsafe_code)]

use pip_mcoll::collectives::comm::Comm;
use pip_mcoll::collectives::multi_object::allgather_multi_object;
use pip_mcoll::collectives::plan::{record_trace, PlanComm};
use pip_mcoll::collectives::{bruck, hierarchical, Buf, SymBuf};
use pip_mcoll::core::prelude::*;

fn main() {
    println!("multi-object allgather, real execution on the thread runtime\n");
    println!(
        "{:<10} {:<6} {:<8} {:<10}",
        "nodes", "ppn", "ranks", "verified"
    );
    for (nodes, ppn) in [(2, 2), (3, 3), (4, 4), (6, 3), (8, 2)] {
        let results = World::builder()
            .nodes(nodes)
            .ppn(ppn)
            .library(Library::PipMColl)
            .run(|comm| comm.allgather(&[comm.rank() as u32]))
            .expect("run succeeded");
        let world = nodes * ppn;
        let expected: Vec<u32> = (0..world as u32).collect();
        let ok = results.iter().all(|r| *r == expected);
        println!("{:<10} {:<6} {:<8} {:<10}", nodes, ppn, world, ok);
        assert!(ok);
    }

    // Critical-path message counts per process for the three designs on a
    // mid-sized cluster (recorded, not executed).
    let topo = Topology::new(32, 8);
    let block = 64;
    let per_rank_sends = |label: &str, f: &dyn Fn(&PlanComm)| {
        let trace = record_trace(topo, f);
        let max_sends = trace.ranks.iter().map(|r| r.send_count()).max().unwrap();
        let total: usize = trace.ranks.iter().map(|r| r.send_count()).sum();
        println!("{label:<24} max sends/process: {max_sends:<4} total messages: {total}");
    };
    println!("\nschedule shape on 32 nodes x 8 ppn, 64 B per process:");
    per_rank_sends("multi-object (PiP-MColl)", &|comm| {
        let sendbuf = SymBuf::zeroed(block);
        let mut recvbuf = SymBuf::zeroed(comm.world_size() * block);
        allgather_multi_object(comm, &sendbuf, &mut recvbuf, 1);
    });
    per_rank_sends("single-leader hierarchical", &|comm| {
        let sendbuf = SymBuf::zeroed(block);
        let mut recvbuf = SymBuf::zeroed(comm.world_size() * block);
        hierarchical::allgather_hierarchical(comm, &sendbuf, &mut recvbuf, 1);
    });
    per_rank_sends("flat Bruck", &|comm| {
        let sendbuf = SymBuf::zeroed(block);
        let mut recvbuf = SymBuf::zeroed(comm.world_size() * block);
        bruck::allgather_bruck(comm, &sendbuf, &mut recvbuf, 1);
    });
}
