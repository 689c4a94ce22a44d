//! Multi-object scatter: the root node's processes split the fan-out among
//! themselves, each sending whole node-blocks straight out of the root's
//! send buffer (PiP zero-copy), and on every destination node one process
//! receives the node-block into shared memory from which every local process
//! copies its own block.

use crate::buf::Buf;
use crate::comm::Comm;
use crate::multi_object::schedule::responsible_nodes;

/// Multi-object scatter from global rank `root`.  `sendbuf` must be `Some`
/// at the root (one block per rank, absolute rank order); every rank's
/// `recvbuf` receives its block.
pub fn scatter_multi_object<C: Comm>(
    comm: &C,
    sendbuf: Option<&C::Buf>,
    recvbuf: &mut C::Buf,
    root: usize,
    tag: u64,
) {
    let block = recvbuf.len();
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let rank = comm.rank();
    let node_block = ppn * block;
    let topo = comm.topology();
    let root_node = topo.node_of(root);
    let root_local = topo.local_rank_of(root);
    let src_name = format!("mo_sc_src_{tag}");
    let stage_name = format!("mo_sc_stage_{tag}");

    // The local rank that receives a given remote node's block (mirrors the
    // sender assignment so send and receive overheads spread evenly).
    let receiver_local_for = |n: usize| n % ppn;

    if node == root_node {
        // The root publishes its send buffer; under PiP its peers can read
        // it directly, so publication is free.
        if rank == root {
            let sendbuf = sendbuf.expect("root must supply a send buffer");
            assert_eq!(sendbuf.len(), comm.world_size() * block);
            comm.shared_publish(&src_name, sendbuf);
        }
        comm.node_barrier();

        // Every root-node process serves its share of the remote nodes,
        // sending each node's block straight out of the root's buffer.
        for n in responsible_nodes(nodes, ppn, local, root_node) {
            let dst = topo.rank_of(n, receiver_local_for(n));
            comm.send_from_shared(root_local, &src_name, n * node_block, node_block, dst, tag);
        }

        // Local delivery: each root-node process copies its own block out of
        // the root's buffer.
        comm.shared_read_into(root_local, &src_name, rank * block, recvbuf);
        comm.node_barrier();
    } else {
        // One process per remote node receives the node-block into shared
        // memory.
        let receiver_local = receiver_local_for(node);
        if local == receiver_local {
            comm.shared_alloc(&stage_name, node_block);
            let sender_local = node % ppn;
            let src = topo.rank_of(root_node, sender_local);
            comm.recv_into_shared(receiver_local, &stage_name, 0, src, tag, node_block);
        }
        comm.node_barrier();
        comm.shared_read_into(receiver_local, &stage_name, local * block, recvbuf);
        comm.node_barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{Buf, SymBuf};
    use crate::comm::ThreadComm;
    use crate::oracle;
    use crate::plan::record_trace;
    use pip_runtime::{Cluster, Topology};

    fn run(nodes: usize, ppn: usize, block: usize, root: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let sendbuf = oracle::rank_payload(root, world * block);
        let expected = oracle::scatter(&sendbuf, world);
        let sendbuf_ref = &sendbuf;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut recvbuf = vec![0u8; block];
            let send = (comm.rank() == root).then_some(sendbuf_ref.as_slice());
            scatter_multi_object(&comm, send, &mut recvbuf, root, 3300);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(
                buf, &expected[rank],
                "multi-object scatter mismatch at rank {rank}"
            );
        }
    }

    #[test]
    fn root_zero_small_cluster() {
        run(3, 3, 16, 0);
    }

    #[test]
    fn root_zero_power_of_two() {
        run(4, 2, 8, 0);
    }

    #[test]
    fn root_on_middle_node_non_leader() {
        run(3, 4, 8, 5);
    }

    #[test]
    fn single_node() {
        run(1, 6, 8, 2);
    }

    #[test]
    fn single_rank_per_node() {
        run(5, 1, 32, 0);
    }

    #[test]
    fn more_nodes_than_ppn() {
        run(9, 2, 4, 0);
    }

    #[test]
    fn more_ppn_than_nodes() {
        run(2, 7, 4, 1);
    }

    #[test]
    fn trace_fanout_is_shared_by_root_node_processes() {
        let nodes = 13;
        let ppn = 4;
        let block = 64;
        let topo = Topology::new(nodes, ppn);
        let sendbuf = SymBuf::zeroed(topo.world_size() * block);
        let trace = record_trace(topo, |comm| {
            let mut recvbuf = SymBuf::zeroed(block);
            let send = (comm.rank() == 0).then_some(&*sendbuf);
            scatter_multi_object(comm, send, &mut recvbuf, 0, 1);
        });
        trace.validate().unwrap();
        // 12 remote nodes spread over 4 senders: every root-node process
        // sends 3 messages; a single-leader design would send 12 from rank 0.
        for local in 0..ppn {
            assert_eq!(trace.ranks[local].send_count(), 3);
        }
        // Non-root-node processes never send.
        for rank in ppn..topo.world_size() {
            assert_eq!(trace.ranks[rank].send_count(), 0);
        }
    }

    #[test]
    fn trace_receivers_are_spread_across_local_ranks() {
        let nodes = 6;
        let ppn = 3;
        let block = 16;
        let topo = Topology::new(nodes, ppn);
        let sendbuf = SymBuf::zeroed(topo.world_size() * block);
        let trace = record_trace(topo, |comm| {
            let mut recvbuf = SymBuf::zeroed(block);
            let send = (comm.rank() == 0).then_some(&*sendbuf);
            scatter_multi_object(comm, send, &mut recvbuf, 0, 1);
        });
        trace.validate().unwrap();
        // Each remote node n receives exactly one network message, at local
        // rank n % ppn.
        for n in 1..nodes {
            for local in 0..ppn {
                let rank = topo.rank_of(n, local);
                let expected = usize::from(local == n % ppn);
                assert_eq!(trace.ranks[rank].recv_count(), expected);
            }
        }
    }
}
