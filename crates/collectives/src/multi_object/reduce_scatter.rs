//! Multi-object reduce_scatter — the chunk-ownership phase of the paper's
//! allreduce (§2), exposed as a collective of its own.
//!
//! The phase structure is exactly the first half of the multi-object
//! allreduce: the vector is split into `P` element-aligned chunks, local
//! rank `R_l` owns chunk `R_l`, reduces it across its node through the
//! shared address space, and joins an inter-node recursive-doubling
//! exchange restricted to the processes with the same local rank — `P`
//! concurrent inter-node reductions per node.  [`reduce_owned_chunk`] is
//! that phase, shared verbatim by [`reduce_scatter_multi_object`],
//! [`crate::multi_object::reduce_multi_object`] and
//! [`crate::multi_object::allreduce_multi_object`] (which is literally this
//! phase followed by the intra-node allgather of the chunks).
//!
//! For reduce_scatter proper (MPI_Reduce_scatter_block semantics: one block
//! per rank in, block `r` out at rank `r`), the reduced `P`-chunks —
//! replicated on every node by the restricted exchange — are published
//! node-locally and each rank extracts its own block from the chunks of its
//! node's owners, paying at most two shared-memory reads.

use crate::buf::Buf;
use crate::comm::{BufVec, Comm, ReduceFn};
use crate::multi_object::schedule::chunk_bounds;
use crate::recursive_doubling::largest_pow2_leq;

/// The globally reduced chunk owned by this rank after the chunk-ownership
/// phase: byte range `start..end` of the full vector, already combined
/// across every rank of the world.
pub struct OwnedChunk<C: Comm> {
    /// Start of the chunk within the full vector, in bytes.
    pub start: usize,
    /// End of the chunk within the full vector, in bytes.
    pub end: usize,
    /// The reduced bytes (`end - start` of them).
    pub bytes: BufVec<C>,
}

/// Byte bounds of local rank `index`'s chunk of a vector of `len` bytes
/// holding `len / elem_size` whole elements, split across `ppn` owners.
pub(crate) fn elem_chunk_bounds(
    len: usize,
    elem_size: usize,
    ppn: usize,
    index: usize,
) -> (usize, usize) {
    let elements = len / elem_size;
    let (s, e) = chunk_bounds(elements, ppn, index);
    (s * elem_size, e * elem_size)
}

/// The chunk-ownership reduce phase (paper §2): publish the contribution,
/// reduce the owned chunk across the node through shared memory, then run
/// the restricted inter-node recursive doubling.  Returns the globally
/// reduced chunk this rank owns.
///
/// `prefix` namespaces the shared input region (`{prefix}_in_{tag}`) so
/// each caller keeps its legacy region names.
pub fn reduce_owned_chunk<C: Comm>(
    comm: &C,
    buf: &C::Buf,
    elem_size: usize,
    op: &ReduceFn<'_, C::Buf>,
    prefix: &str,
    tag: u64,
) -> OwnedChunk<C> {
    let len = buf.len();
    assert!(elem_size > 0, "element size must be positive");
    assert_eq!(len % elem_size, 0, "buffer must hold whole elements");
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let topo = comm.topology();
    let in_name = format!("{prefix}_in_{tag}");

    // Every process publishes its contribution (free under PiP).
    comm.shared_publish(&in_name, buf);
    comm.node_barrier();

    // Intra-node reduction of this process's chunk across all local peers.
    let (start, end) = elem_chunk_bounds(len, elem_size, ppn, local);
    let mut chunk = buf.slice(start..end).into_owned();
    for peer in 0..ppn {
        if peer == local || chunk.is_empty() {
            continue;
        }
        let contribution = comm.shared_read(peer, &in_name, start, end - start);
        op(&mut chunk, &contribution);
    }

    // Inter-node recursive doubling among the processes with the same local
    // rank (one independent allreduce per chunk).
    if nodes > 1 && !chunk.is_empty() {
        let peer_rank = |n: usize| topo.rank_of(n, local);
        let pof2 = largest_pow2_leq(nodes);
        let rem = nodes - pof2;
        let bytes = chunk.len();
        let newnode: isize = if node < 2 * rem {
            if node.is_multiple_of(2) {
                comm.send(peer_rank(node + 1), tag, &chunk);
                -1
            } else {
                let data = comm.recv(peer_rank(node - 1), tag, bytes);
                op(&mut chunk, &data);
                (node / 2) as isize
            }
        } else {
            (node - rem) as isize
        };
        if newnode >= 0 {
            let newnode = newnode as usize;
            let to_node = |nn: usize| if nn < rem { nn * 2 + 1 } else { nn + rem };
            let mut mask = 1usize;
            let mut round = 1u64;
            while mask < pof2 {
                let partner = peer_rank(to_node(newnode ^ mask));
                let received =
                    comm.sendrecv(partner, tag + round, &chunk, partner, tag + round, bytes);
                op(&mut chunk, &received);
                mask <<= 1;
                round += 1;
            }
        }
        if node < 2 * rem {
            if node.is_multiple_of(2) {
                comm.recv_into(peer_rank(node + 1), tag + 63, &mut chunk);
            } else {
                comm.send(peer_rank(node - 1), tag + 63, &chunk);
            }
        }
    }

    OwnedChunk {
        start,
        end,
        bytes: chunk,
    }
}

/// Multi-object reduce_scatter for a commutative `op`: `sendbuf` holds one
/// block per rank (`world * recvbuf.len()` bytes); `recvbuf` receives this
/// rank's fully reduced block.
///
/// `elem_size` is the size of one reduction element in bytes; the block
/// size must be a multiple of it so the chunk partition and the block
/// boundaries both fall on whole elements.
pub fn reduce_scatter_multi_object<C: Comm>(
    comm: &C,
    sendbuf: &C::Buf,
    recvbuf: &mut C::Buf,
    elem_size: usize,
    op: &ReduceFn<'_, C::Buf>,
    tag: u64,
) {
    let world = comm.world_size();
    let block = recvbuf.len();
    assert_eq!(
        sendbuf.len(),
        world * block,
        "sendbuf must hold one block per rank"
    );
    assert_eq!(block % elem_size, 0, "block must hold whole elements");
    let ppn = comm.ppn();
    let local = comm.local_rank();
    let rank = comm.rank();
    let len = sendbuf.len();
    let out_name = format!("mo_rs_out_{tag}");

    let chunk = reduce_owned_chunk(comm, sendbuf, elem_size, op, "mo_rs", tag);

    // Publish the globally reduced chunk; every node now holds the whole
    // reduced vector across its local owners, so each rank extracts its own
    // block from at most a couple of node-local chunks.
    comm.shared_publish(&out_name, &chunk.bytes);
    comm.node_barrier();
    let (block_start, block_end) = (rank * block, (rank + 1) * block);
    for owner in 0..ppn {
        let (s, e) = elem_chunk_bounds(len, elem_size, ppn, owner);
        let lo = s.max(block_start);
        let hi = e.min(block_end);
        if lo >= hi {
            continue;
        }
        if owner == local {
            recvbuf.copy_from(lo - block_start, &chunk.bytes.slice(lo - s..hi - s));
        } else {
            recvbuf.with_mut(lo - block_start..hi - block_start, |dst| {
                comm.shared_read_into(owner, &out_name, lo - s, dst)
            });
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

    fn run(nodes: usize, ppn: usize, block: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> = (0..world)
            .map(|r| oracle::rank_payload(r, world * block))
            .collect();
        let expected = oracle::reduce_scatter(&contributions, world, oracle::wrapping_add_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), world * block);
            let mut recvbuf = vec![0u8; block];
            reduce_scatter_multi_object(
                &comm,
                &sendbuf,
                &mut recvbuf,
                1,
                &oracle::wrapping_add_u8,
                4300,
            );
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(
                buf, &expected[rank],
                "multi-object reduce_scatter mismatch at rank {rank} ({nodes}x{ppn})"
            );
        }
    }

    #[test]
    fn two_nodes_even_chunks() {
        run(2, 4, 8);
    }

    #[test]
    fn odd_nodes_blocks_straddle_chunk_boundaries() {
        // 9 ranks x 5-byte blocks: the ppn-chunk partition of the 45-byte
        // vector does not align with block boundaries, so extraction spans
        // two owners.
        run(3, 3, 5);
    }

    #[test]
    fn prime_node_count() {
        run(5, 2, 4);
    }

    #[test]
    fn single_node() {
        run(1, 4, 8);
    }

    #[test]
    fn single_rank_per_node() {
        run(4, 1, 8);
    }

    #[test]
    fn single_rank_total() {
        run(1, 1, 8);
    }

    #[test]
    fn blocks_smaller_than_ppn_leave_empty_chunks() {
        // 12 ranks, 1-byte blocks: the 12-byte vector split across 6 local
        // owners leaves several 2-byte chunks; extraction still lands every
        // block.
        run(2, 6, 1);
    }

    #[test]
    fn f64_sum_reduction_stays_element_aligned() {
        let topo = Topology::new(2, 3);
        let world = topo.world_size();
        let elements_per_block = 2;
        let block = elements_per_block * 8;
        let expected: Vec<f64> = (0..world * elements_per_block)
            .map(|i| (0..world).map(|r| (r * 100 + i) as f64).sum())
            .collect();
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut sendbuf = Vec::new();
            for i in 0..world * elements_per_block {
                sendbuf.extend_from_slice(&((comm.rank() * 100 + i) as f64).to_le_bytes());
            }
            let mut recvbuf = vec![0u8; block];
            reduce_scatter_multi_object(&comm, &sendbuf, &mut recvbuf, 8, &oracle::sum_f64, 4400);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            let values: Vec<f64> = buf
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for (i, value) in values.iter().enumerate() {
                let want = expected[rank * elements_per_block + i];
                assert!((value - want).abs() < 1e-9, "rank {rank} element {i}");
            }
        }
    }

    #[test]
    fn typed_u64_max_matches_the_typed_oracle_across_chunk_boundaries() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        // 9 ranks x 3-element blocks: the ppn-chunk partition does not align
        // with block boundaries, so typed extraction spans owners.
        let topo = Topology::new(3, 3);
        let world = topo.world_size();
        let elements_per_block = 3;
        let contributions: Vec<Vec<u64>> = (0..world)
            .map(|r| {
                (0..world * elements_per_block)
                    .map(|i| ((r * 31 + i * 7) % 97) as u64)
                    .collect()
            })
            .collect();
        let expected = oracle::reduce_scatter_t(&contributions, world, ReduceOp::Max);
        let inputs = &contributions;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = to_bytes(&inputs[comm.rank()]);
            let mut recvbuf = vec![0u8; elements_per_block * 8];
            let kernel = ReduceKernel::of::<u64>(ReduceOp::Max);
            reduce_scatter_multi_object(&comm, &sendbuf, &mut recvbuf, 8, kernel.as_fn(), 4450);
            from_bytes::<u64>(&recvbuf)
        })
        .unwrap();
        for (rank, out) in results.iter().enumerate() {
            assert_eq!(out, &expected[rank], "typed reduce_scatter at rank {rank}");
        }
    }

    #[test]
    fn trace_every_local_rank_talks_to_the_network() {
        let topo = Topology::new(8, 4);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(4096);
            let mut recvbuf = SymBuf::zeroed(4096 / 32);
            reduce_scatter_multi_object(comm, &sendbuf, &mut recvbuf, 1, &comm.reducer(), 1);
        });
        trace.validate().unwrap();
        // Every local rank of node 0 runs the 3 restricted recursive-
        // doubling rounds on its own quarter of the vector.
        for local in 0..4 {
            assert_eq!(trace.ranks[local].send_count(), 3);
            assert_eq!(trace.ranks[local].bytes_sent(), 3 * 1024);
        }
    }
}
