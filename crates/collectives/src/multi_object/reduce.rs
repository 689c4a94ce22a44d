//! Multi-object reduce: the chunk-ownership phase followed by a node-local
//! assembly at the root.
//!
//! The restricted inter-node exchange of
//! [`crate::multi_object::reduce_scatter::reduce_owned_chunk`] leaves every
//! node holding the complete globally reduced vector, spread across its `P`
//! local owners — so once the chunks are published, the root assembles its
//! receive buffer entirely through node-local shared-memory reads.  Every
//! local rank of every node drives the NIC during the exchange (the
//! multi-object property); no single process funnels the vector.

use crate::buf::Buf;
use crate::comm::{Comm, ReduceFn};
use crate::multi_object::reduce_scatter::{elem_chunk_bounds, reduce_owned_chunk};

/// Multi-object reduce for a commutative `op`: every rank contributes
/// `sendbuf`; the root's `recvbuf` receives the element-wise combination of
/// all contributions.
///
/// `recvbuf` must be `Some` at the root and is ignored elsewhere.
/// `elem_size` is the size of one reduction element in bytes.
pub fn reduce_multi_object<C: Comm>(
    comm: &C,
    sendbuf: &C::Buf,
    recvbuf: Option<&mut C::Buf>,
    elem_size: usize,
    op: &ReduceFn<'_, C::Buf>,
    root: usize,
    tag: u64,
) {
    let ppn = comm.ppn();
    let local = comm.local_rank();
    let len = sendbuf.len();
    let out_name = format!("mo_rd_out_{tag}");

    let chunk = reduce_owned_chunk(comm, sendbuf, elem_size, op, "mo_rd", tag);

    // Publish the reduced chunk; the root's node now holds the whole vector
    // locally, so the root assembles it with at most `P` shared reads.
    comm.shared_publish(&out_name, &chunk.bytes);
    comm.node_barrier();
    if comm.rank() == root {
        let recvbuf = recvbuf.expect("root must supply recvbuf");
        assert_eq!(recvbuf.len(), len, "recvbuf must match the send buffer");
        for owner in 0..ppn {
            let (s, e) = elem_chunk_bounds(len, elem_size, ppn, owner);
            if s == e {
                continue;
            }
            if owner == local {
                recvbuf.copy_from(s, &chunk.bytes);
            } else {
                recvbuf.with_mut(s..e, |out| comm.shared_read_into(owner, &out_name, 0, out));
            }
        }
    }
    comm.node_barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{Buf, SymBuf};
    use crate::comm::ThreadComm;
    use crate::oracle;
    use crate::plan::record_trace;
    use pip_runtime::{Cluster, Topology};

    fn run(nodes: usize, ppn: usize, root: usize, len: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle::reduce(&contributions, oracle::wrapping_add_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), len);
            let mut recvbuf = vec![0u8; len];
            let recv = (comm.rank() == root).then_some(recvbuf.as_mut_slice());
            reduce_multi_object(
                &comm,
                &sendbuf,
                recv,
                1,
                &oracle::wrapping_add_u8,
                root,
                4600,
            );
            recvbuf
        })
        .unwrap();
        assert_eq!(
            results[root], expected,
            "multi-object reduce mismatch at root {root} ({nodes}x{ppn})"
        );
    }

    #[test]
    fn two_nodes_root_zero() {
        run(2, 4, 0, 64);
    }

    #[test]
    fn odd_nodes_non_leader_root() {
        // The root is not a node leader and sits mid-world.
        run(3, 3, 4, 35);
    }

    #[test]
    fn prime_node_count_last_rank_root() {
        run(5, 2, 9, 16);
    }

    #[test]
    fn single_node() {
        run(1, 4, 2, 32);
    }

    #[test]
    fn single_rank_per_node() {
        run(4, 1, 3, 16);
    }

    #[test]
    fn vector_shorter_than_ppn() {
        run(2, 6, 1, 3);
    }

    #[test]
    fn single_rank_total() {
        run(1, 1, 0, 8);
    }

    #[test]
    fn max_operator_reaches_root_exactly_once_per_contribution() {
        let topo = Topology::new(3, 2);
        let world = topo.world_size();
        let len = 13;
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle::reduce(&contributions, oracle::max_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), len);
            let mut recvbuf = vec![0u8; len];
            let recv = (comm.rank() == 5).then_some(recvbuf.as_mut_slice());
            reduce_multi_object(&comm, &sendbuf, recv, 1, &oracle::max_u8, 5, 4700);
            recvbuf
        })
        .unwrap();
        assert_eq!(results[5], expected);
    }

    #[test]
    fn typed_i32_sum_reaches_a_non_leader_root() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(3, 2);
        let world = topo.world_size();
        let root = 3;
        let contributions: Vec<Vec<i32>> = (0..world)
            .map(|r| (0..6).map(|i| (r as i32 - 2) * 100 + i).collect())
            .collect();
        let expected = oracle::allreduce_t(&contributions, ReduceOp::Sum);
        let inputs = &contributions;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = to_bytes(&inputs[comm.rank()]);
            let mut recvbuf = vec![0u8; sendbuf.len()];
            let recv = (comm.rank() == root).then_some(recvbuf.as_mut_slice());
            let kernel = ReduceKernel::of::<i32>(ReduceOp::Sum);
            reduce_multi_object(&comm, &sendbuf, recv, 4, kernel.as_fn(), root, 4750);
            from_bytes::<i32>(&recvbuf)
        })
        .unwrap();
        assert_eq!(results[root], expected);
    }

    #[test]
    fn trace_every_local_rank_talks_to_the_network() {
        let topo = Topology::new(8, 4);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(4096);
            let mut recvbuf = SymBuf::zeroed(4096);
            let recv = (comm.rank() == 0).then_some(&mut *recvbuf);
            reduce_multi_object(comm, &sendbuf, recv, 1, &comm.reducer(), 0, 1);
        });
        trace.validate().unwrap();
        // The multi-object property: every local rank of every node runs
        // the restricted inter-node exchange on its own chunk.
        for local in 0..4 {
            assert_eq!(trace.ranks[local].send_count(), 3);
            assert_eq!(trace.ranks[local].bytes_sent(), 3 * 1024);
        }
    }
}
