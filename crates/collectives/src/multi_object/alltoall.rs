//! Multi-object alltoall: a node-aware pairwise exchange in which each local
//! rank handles a disjoint subset of the partner nodes, shipping whole
//! `P × P`-block tiles assembled in (and delivered through) the shared
//! address space.
//!
//! For every pair of nodes `(A, B)` exactly one tile of `P·P` blocks flows in
//! each direction, so the inter-node message count per node drops from
//! `P·(W - P)` (flat pairwise) to `N - 1`, while the `P` local ranks share
//! those `N - 1` messages — the same multi-object principle as the other
//! collectives.

use crate::buf::Buf;
use crate::comm::Comm;

/// Multi-object alltoall: `sendbuf` holds one block per destination rank;
/// `recvbuf` receives one block from every source rank (both world × block
/// bytes).
pub fn alltoall_multi_object<C: Comm>(comm: &C, sendbuf: &C::Buf, recvbuf: &mut C::Buf, tag: u64) {
    let p = comm.world_size();
    assert_eq!(sendbuf.len(), recvbuf.len());
    assert_eq!(sendbuf.len() % p, 0);
    let block = sendbuf.len() / p;
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let topo = comm.topology();
    let node_tile = ppn * ppn * block; // data one node sends to one node
    let in_name = format!("mo_a2a_in_{tag}");
    let out_name = format!("mo_a2a_out_{tag}");

    // Publish the send buffer (free under PiP) and expose a landing zone for
    // the tiles addressed to this process's node that this process is
    // responsible for receiving.
    comm.shared_publish(&in_name, sendbuf);
    comm.shared_alloc(&out_name, nodes * ppn * block);
    comm.node_barrier();

    // Intra-node delivery: blocks destined for processes of this node are
    // copied directly between the published buffers.
    for peer_local in 0..ppn {
        let peer_rank = topo.rank_of(node, peer_local);
        let range = peer_rank * block..(peer_rank + 1) * block;
        if peer_local == local {
            recvbuf.copy_from(range.start, &sendbuf.slice(range));
        } else {
            // Read the block peer -> me straight from the peer's buffer.
            recvbuf.with_mut(range, |dst| {
                comm.shared_read_into(peer_local, &in_name, comm.rank() * block, dst)
            });
        }
    }

    // Inter-node exchange: the node pair (A, B) is handled by local rank
    // (A + B) % ppn on both sides, which spreads the N-1 tiles evenly over
    // the local ranks and keeps the pairing symmetric.  The handler
    // assembles the outgoing tile (every local process's blocks for that
    // node) by reading its peers' published buffers, sends it, and scatters
    // the symmetric incoming tile to its peers' landing zones.
    let handler_of = |a: usize, b: usize| (a + b) % ppn;
    for remote in (0..nodes).filter(|&d| d != node && handler_of(node, d) == local) {
        let mut tile = C::Buf::zeroed(node_tile);
        for src_local in 0..ppn {
            let range_start = topo.rank_of(remote, 0) * block;
            let range_len = ppn * block;
            let at = src_local * range_len;
            if src_local == local {
                tile.copy_from(at, &sendbuf.slice(range_start..range_start + range_len));
            } else {
                let data = comm.shared_read(src_local, &in_name, range_start, range_len);
                tile.copy_from(at, &data);
            }
        }
        let partner = topo.rank_of(remote, local);
        let incoming = comm.sendrecv(partner, tag, &tile, partner, tag, node_tile);
        // The incoming tile is ordered by sending local rank, then by
        // destination local rank; deliver each piece to its destination's
        // landing zone (or straight into our own recvbuf).
        for src_local in 0..ppn {
            for dst_local in 0..ppn {
                let at = (src_local * ppn + dst_local) * block;
                let piece = &incoming.slice(at..at + block);
                if dst_local == local {
                    let src_rank = topo.rank_of(remote, src_local);
                    recvbuf.copy_from(src_rank * block, piece);
                } else {
                    // Deliver straight into the destination peer's landing
                    // zone through shared memory.
                    let offset = (remote * ppn + src_local) * block;
                    comm.shared_write(dst_local, &out_name, offset, piece);
                }
            }
        }
    }
    comm.node_barrier();

    // Collect the blocks peers deposited for us (sources on nodes whose tile
    // was handled by another local rank).  The landing zone is our own
    // buffer, so collecting it is free under PiP.
    let landing = comm.shared_collect(&out_name, nodes * ppn * block);
    for remote in (0..nodes).filter(|&d| d != node && handler_of(node, d) != local) {
        for src_local in 0..ppn {
            let src_rank = topo.rank_of(remote, src_local);
            let offset = (remote * ppn + src_local) * block;
            recvbuf.copy_from(src_rank * block, &landing.slice(offset..offset + block));
        }
    }
    comm.node_barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ThreadComm;
    use crate::oracle;
    use pip_runtime::{Cluster, Topology};

    fn run(nodes: usize, ppn: usize, block: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let inputs: Vec<Vec<u8>> = (0..world)
            .map(|r| oracle::rank_payload(r, world * block))
            .collect();
        let expected = oracle::alltoall(&inputs, world);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), world * block);
            let mut recvbuf = vec![0u8; world * block];
            alltoall_multi_object(&comm, &sendbuf, &mut recvbuf, 4300);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(
                buf, &expected[rank],
                "multi-object alltoall mismatch at rank {rank}"
            );
        }
    }

    #[test]
    fn two_nodes() {
        run(2, 3, 4);
    }

    #[test]
    fn odd_nodes() {
        run(3, 2, 8);
    }

    #[test]
    fn single_node() {
        run(1, 4, 4);
    }

    #[test]
    fn single_rank_per_node() {
        run(4, 1, 4);
    }

    #[test]
    fn ppn_exceeds_nodes() {
        run(2, 5, 2);
    }
}
