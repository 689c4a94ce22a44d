//! Multi-object gather: each node assembles its node-block in shared memory,
//! one process per node sends it, and the root node's processes share the
//! receive work by depositing remote node-blocks straight into the root's
//! (exposed) receive buffer.

use crate::buf::Buf;
use crate::comm::Comm;
use crate::multi_object::schedule::responsible_nodes;

/// Multi-object gather to global rank `root`: every rank contributes
/// `sendbuf`; the root's `recvbuf` (world × block bytes) receives all blocks
/// in rank order.
pub fn gather_multi_object<C: Comm>(
    comm: &C,
    sendbuf: &C::Buf,
    recvbuf: Option<&mut C::Buf>,
    root: usize,
    tag: u64,
) {
    let block = sendbuf.len();
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let rank = comm.rank();
    let node_block = ppn * block;
    let topo = comm.topology();
    let root_node = topo.node_of(root);
    let root_local = topo.local_rank_of(root);
    let dst_name = format!("mo_ga_dst_{tag}");
    let stage_name = format!("mo_ga_stage_{tag}");

    // The local rank on a remote node that sends its node-block, and the
    // matching local rank on the root node that receives it.
    let courier_local_for = |n: usize| n % ppn;

    if node == root_node {
        // The root's receive buffer is exposed so that its node peers can
        // deposit remote node-blocks and local contributions directly.
        if rank == root {
            assert_eq!(
                recvbuf.as_deref().map(Buf::len),
                Some(comm.world_size() * block),
                "root recvbuf must hold one block per rank"
            );
            comm.shared_alloc(&dst_name, comm.world_size() * block);
        }
        comm.node_barrier();

        // Intra-node: every root-node process deposits its own block.
        comm.shared_write(root_local, &dst_name, rank * block, sendbuf);

        // Inter-node: this process receives the node-blocks of the remote
        // nodes it is responsible for, straight into the root's buffer.
        for n in responsible_nodes(nodes, ppn, local, root_node) {
            let src = topo.rank_of(n, courier_local_for(n));
            comm.recv_into_shared(root_local, &dst_name, n * node_block, src, tag, node_block);
        }
        comm.node_barrier();

        if rank == root {
            let gathered = comm.shared_collect(&dst_name, comm.world_size() * block);
            recvbuf.expect("root recvbuf").copy_from(0, &gathered);
        }
    } else {
        // Remote node: gather the node-block into the courier's staging
        // buffer, then the courier ships it to the root node.
        let courier = courier_local_for(node);
        if local == courier {
            comm.shared_alloc(&stage_name, node_block);
        }
        comm.node_barrier();
        comm.shared_write(courier, &stage_name, local * block, sendbuf);
        comm.node_barrier();
        if local == courier {
            let dst = topo.rank_of(root_node, courier);
            comm.send_from_shared(courier, &stage_name, 0, node_block, dst, tag);
        }
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
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::gather(&contributions);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), block);
            let mut recvbuf = vec![0u8; world * block];
            let recv = (comm.rank() == root).then_some(recvbuf.as_mut_slice());
            gather_multi_object(&comm, &sendbuf, recv, root, 3700);
            recvbuf
        })
        .unwrap();
        assert_eq!(
            results[root], expected,
            "multi-object gather mismatch at root"
        );
    }

    #[test]
    fn root_zero() {
        run(4, 3, 8, 0);
    }

    #[test]
    fn root_not_a_leader() {
        run(3, 2, 16, 3);
    }

    #[test]
    fn single_node() {
        run(1, 4, 8, 1);
    }

    #[test]
    fn single_rank_per_node() {
        run(5, 1, 8, 0);
    }

    #[test]
    fn more_nodes_than_ppn() {
        run(7, 2, 4, 0);
    }

    #[test]
    fn trace_receives_are_spread_across_root_node() {
        let nodes = 9;
        let ppn = 4;
        let block = 32;
        let topo = Topology::new(nodes, ppn);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(block);
            let mut recvbuf = SymBuf::zeroed(comm.world_size() * block);
            let recv = (comm.rank() == 0).then_some(&mut *recvbuf);
            gather_multi_object(comm, &sendbuf, recv, 0, 1);
        });
        trace.validate().unwrap();
        // 8 remote nodes over 4 root-node receivers: two network receives
        // each; a single-leader gather would put all 8 on rank 0.
        for local in 0..ppn {
            assert_eq!(trace.ranks[local].recv_count(), 2);
        }
    }
}
