//! Multi-object broadcast: the root publishes its buffer, the root node's
//! processes share the fan-out to the remote nodes, and on every remote node
//! one process receives into shared memory from which all local processes
//! copy the payload.

use crate::buf::Buf;
use crate::comm::Comm;
use crate::multi_object::schedule::responsible_nodes;

/// Multi-object broadcast from global rank `root`: after the call every
/// rank's `buf` equals the root's `buf`.
pub fn bcast_multi_object<C: Comm>(comm: &C, buf: &mut C::Buf, root: usize, tag: u64) {
    let len = buf.len();
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let rank = comm.rank();
    let topo = comm.topology();
    let root_node = topo.node_of(root);
    let root_local = topo.local_rank_of(root);
    let src_name = format!("mo_bc_src_{tag}");
    let stage_name = format!("mo_bc_stage_{tag}");

    let receiver_local_for = |n: usize| n % ppn;

    if node == root_node {
        if rank == root {
            comm.shared_publish(&src_name, buf);
        }
        comm.node_barrier();
        for n in responsible_nodes(nodes, ppn, local, root_node) {
            let dst = topo.rank_of(n, receiver_local_for(n));
            comm.send_from_shared(root_local, &src_name, 0, len, dst, tag);
        }
        if rank != root {
            comm.shared_read_into(root_local, &src_name, 0, buf);
        }
        comm.node_barrier();
    } else {
        let receiver_local = receiver_local_for(node);
        if local == receiver_local {
            comm.shared_alloc(&stage_name, len);
            let sender_local = node % ppn;
            let src = topo.rank_of(root_node, sender_local);
            comm.recv_into_shared(receiver_local, &stage_name, 0, src, tag, len);
        }
        comm.node_barrier();
        comm.shared_read_into(receiver_local, &stage_name, 0, buf);
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

    fn run(nodes: usize, ppn: usize, len: usize, root: usize) {
        let topo = Topology::new(nodes, ppn);
        let expected = oracle::rank_payload(root, len);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = if comm.rank() == root {
                oracle::rank_payload(root, len)
            } else {
                vec![0u8; len]
            };
            bcast_multi_object(&comm, &mut buf, root, 3500);
            buf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected, "multi-object bcast mismatch at rank {rank}");
        }
    }

    #[test]
    fn root_zero() {
        run(4, 3, 64, 0);
    }

    #[test]
    fn root_not_a_leader() {
        run(3, 3, 32, 4);
    }

    #[test]
    fn single_node() {
        run(1, 5, 16, 3);
    }

    #[test]
    fn single_rank_per_node() {
        run(6, 1, 8, 2);
    }

    #[test]
    fn more_ppn_than_nodes() {
        run(2, 6, 24, 0);
    }

    #[test]
    fn empty_payload() {
        run(2, 2, 0, 0);
    }

    #[test]
    fn trace_fanout_split_across_root_node() {
        let nodes = 9;
        let ppn = 4;
        let topo = Topology::new(nodes, ppn);
        let trace = record_trace(topo, |comm| {
            let mut buf = SymBuf::zeroed(128);
            bcast_multi_object(comm, &mut buf, 0, 1);
        });
        trace.validate().unwrap();
        let sends: Vec<usize> = (0..ppn).map(|r| trace.ranks[r].send_count()).collect();
        // 8 remote nodes over 4 senders: two each.
        assert_eq!(sends, vec![2, 2, 2, 2]);
    }
}
