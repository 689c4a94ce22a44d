//! Multi-object allreduce: the reduction vector is split into `P` chunks;
//! local rank `R_l` owns chunk `R_l`, reduces it across its node through the
//! shared address space, then joins an inter-node recursive-doubling
//! allreduce restricted to the processes with the same local rank.  The node
//! therefore runs `P` concurrent inter-node reductions (one per chunk)
//! instead of funnelling the whole vector through its leader.
//!
//! Structurally the algorithm is **reduce_scatter followed by allgather**:
//! the chunk-ownership reduce phase
//! ([`crate::multi_object::reduce_scatter::reduce_owned_chunk`], shared
//! verbatim with the standalone multi-object reduce_scatter and reduce) and
//! then the intra-node allgather of the reduced chunks through the shared
//! address space.  The decomposition preserves the pre-refactor schedule
//! op-for-op — pinned by `monolithic_and_decomposed_schedules_agree` below.

use crate::buf::Buf;
use crate::comm::{Comm, ReduceFn};
use crate::multi_object::reduce_scatter::{elem_chunk_bounds, reduce_owned_chunk};

/// Multi-object allreduce for a commutative `op`; `buf` holds this rank's
/// contribution on entry and the fully reduced vector on return.
///
/// `elem_size` is the size of one reduction element in bytes; the per-chunk
/// partition is aligned to it so `op` always sees whole elements.
pub fn allreduce_multi_object<C: Comm>(
    comm: &C,
    buf: &mut C::Buf,
    elem_size: usize,
    op: &ReduceFn<'_, C::Buf>,
    tag: u64,
) {
    let len = buf.len();
    let ppn = comm.ppn();
    let local = comm.local_rank();
    let out_name = format!("mo_ar_out_{tag}");

    // Phase 1 — reduce_scatter: the chunk-ownership reduce (intra-node
    // reduction of the owned chunk plus the restricted inter-node exchange).
    let chunk = reduce_owned_chunk(comm, buf, elem_size, op, "mo_ar", tag);

    // Phase 2 — allgather: publish the globally reduced chunk and assemble
    // the full vector from the node's local owners.
    comm.shared_publish(&out_name, &chunk.bytes);
    comm.node_barrier();
    for owner in 0..ppn {
        let (s, e) = elem_chunk_bounds(len, elem_size, ppn, owner);
        if s == e {
            continue;
        }
        if owner == local {
            buf.copy_from(s, &chunk.bytes);
        } else {
            buf.with_mut(s..e, |out| comm.shared_read_into(owner, &out_name, 0, out));
        }
    }
    comm.node_barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{Buf, SymBuf};
    use crate::comm::ThreadComm;
    use crate::multi_object::schedule::chunk_bounds;
    use crate::oracle;
    use crate::plan::record_trace;
    use crate::recursive_doubling::largest_pow2_leq;
    use pip_runtime::{Cluster, Topology};

    fn run(nodes: usize, ppn: usize, len: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle::allreduce(&contributions, oracle::wrapping_add_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = oracle::rank_payload(comm.rank(), len);
            allreduce_multi_object(&comm, &mut buf, 1, &oracle::wrapping_add_u8, 3900);
            buf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(
                buf, &expected,
                "multi-object allreduce mismatch at rank {rank}"
            );
        }
    }

    #[test]
    fn two_nodes_even_chunks() {
        run(2, 4, 64);
    }

    #[test]
    fn odd_nodes_uneven_chunks() {
        run(3, 3, 35);
    }

    #[test]
    fn prime_node_count() {
        run(5, 2, 16);
    }

    #[test]
    fn single_node() {
        run(1, 4, 32);
    }

    #[test]
    fn single_rank_per_node() {
        run(4, 1, 16);
    }

    #[test]
    fn vector_shorter_than_ppn() {
        // Some chunks are empty.
        run(2, 6, 3);
    }

    #[test]
    fn single_rank_total() {
        run(1, 1, 8);
    }

    #[test]
    fn f64_sum_reduction() {
        let topo = Topology::new(2, 3);
        let world = topo.world_size();
        let elements = 4;
        let expected: Vec<f64> = (0..elements)
            .map(|i| (0..world).map(|r| (r * 10 + i) as f64).sum())
            .collect();
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = Vec::new();
            for i in 0..elements {
                buf.extend_from_slice(&((comm.rank() * 10 + i) as f64).to_le_bytes());
            }
            allreduce_multi_object(&comm, &mut buf, 8, &oracle::sum_f64, 4100);
            buf
        })
        .unwrap();
        for buf in results {
            let values: Vec<f64> = buf
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for (value, want) in values.iter().zip(&expected) {
                assert!((value - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn typed_f32_max_multi_object_propagates_nan_everywhere() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(2, 2);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            // One NaN lane (from rank 3), one clean lane per chunk of the
            // multi-object split.
            let input: Vec<f32> = (0..8)
                .map(|i| {
                    if comm.rank() == 3 && i % 4 == 1 {
                        f32::NAN
                    } else {
                        (comm.rank() * 8 + i) as f32
                    }
                })
                .collect();
            let mut buf = to_bytes(&input);
            let kernel = ReduceKernel::of::<f32>(ReduceOp::Max);
            allreduce_multi_object(&comm, &mut buf, 4, kernel.as_fn(), 4150);
            from_bytes::<f32>(&buf)
        })
        .unwrap();
        for (rank, out) in results.iter().enumerate() {
            for (i, value) in out.iter().enumerate() {
                if i % 4 == 1 {
                    assert!(value.is_nan(), "rank {rank} elem {i}: NaN lane lost");
                } else {
                    assert_eq!(*value, (24 + i) as f32, "rank {rank} elem {i}");
                }
            }
        }
    }

    #[test]
    fn trace_every_local_rank_talks_to_the_network() {
        let topo = Topology::new(8, 4);
        let trace = record_trace(topo, |comm| {
            let mut buf = SymBuf::zeroed(4096);
            allreduce_multi_object(comm, &mut buf, 1, &comm.reducer(), 1);
        });
        trace.validate().unwrap();
        // Every local rank of node 0 sends in the inter-node phase (8 nodes
        // = 3 recursive-doubling rounds on its own chunk).
        for local in 0..4 {
            assert_eq!(trace.ranks[local].send_count(), 3);
            // Each round carries one quarter of the vector.
            assert_eq!(trace.ranks[local].bytes_sent(), 3 * 1024);
        }
    }

    /// A verbatim copy of the pre-refactor monolithic multi-object allreduce
    /// — the schedule the decomposed reduce_scatter + allgather form must
    /// reproduce op for op.
    fn allreduce_multi_object_monolithic<C: Comm>(
        comm: &C,
        buf: &mut C::Buf,
        elem_size: usize,
        op: &ReduceFn<'_, C::Buf>,
        tag: u64,
    ) {
        let len = buf.len();
        assert!(elem_size > 0, "element size must be positive");
        assert_eq!(len % elem_size, 0, "buffer must hold whole elements");
        let ppn = comm.ppn();
        let nodes = comm.num_nodes();
        let node = comm.node_id();
        let local = comm.local_rank();
        let topo = comm.topology();
        let in_name = format!("mo_ar_in_{tag}");
        let out_name = format!("mo_ar_out_{tag}");

        comm.shared_publish(&in_name, buf);
        comm.node_barrier();

        let elements = len / elem_size;
        let elem_chunk = |index: usize| {
            let (s, e) = chunk_bounds(elements, ppn, index);
            (s * elem_size, e * elem_size)
        };
        let (start, end) = elem_chunk(local);
        let mut chunk = buf.slice(start..end).into_owned();
        for peer in 0..ppn {
            if peer == local || chunk.is_empty() {
                continue;
            }
            let contribution = comm.shared_read(peer, &in_name, start, end - start);
            op(&mut chunk, &contribution);
        }

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
                    let data = comm.recv(peer_rank(node + 1), tag + 63, bytes);
                    chunk.copy_from(0, &data);
                } else {
                    comm.send(peer_rank(node - 1), tag + 63, &chunk);
                }
            }
        }

        comm.shared_publish(&out_name, &chunk);
        comm.node_barrier();
        for owner in 0..ppn {
            let (s, e) = elem_chunk(owner);
            if s == e {
                continue;
            }
            if owner == local {
                buf.copy_from(s, &chunk);
            } else {
                let data = comm.shared_read(owner, &out_name, 0, e - s);
                buf.copy_from(s, &data);
            }
        }
        comm.node_barrier();
    }

    /// The decomposition pin: the reduce_scatter + allgather form records
    /// exactly the schedule of the pre-refactor monolith, op for op, on a
    /// topology grid including non-power-of-two node counts and empty
    /// chunks.
    #[test]
    fn monolithic_and_decomposed_schedules_agree() {
        for (nodes, ppn, len) in [
            (1, 1, 8),
            (1, 4, 32),
            (2, 4, 64),
            (3, 3, 35),
            (5, 2, 16),
            (2, 6, 3),
            (8, 4, 4096),
        ] {
            let topo = Topology::new(nodes, ppn);
            let decomposed = record_trace(topo, |comm| {
                let mut buf = SymBuf::zeroed(len);
                allreduce_multi_object(comm, &mut buf, 1, &comm.reducer(), 77);
            });
            let monolithic = record_trace(topo, |comm| {
                let mut buf = SymBuf::zeroed(len);
                allreduce_multi_object_monolithic(comm, &mut buf, 1, &comm.reducer(), 77);
            });
            assert_eq!(
                decomposed, monolithic,
                "decomposed allreduce schedule diverges on {nodes}x{ppn} len {len}"
            );
        }
    }
}
