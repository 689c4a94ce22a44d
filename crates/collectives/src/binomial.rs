//! Binomial-tree broadcast, scatter, gather and reduce — the classic
//! small-message algorithms of MPICH-derived libraries (and therefore of the
//! Open MPI / Intel MPI / MVAPICH2 comparators at the message sizes the
//! paper studies).
//!
//! All three operate on a *virtual rank* `vrank = (rank - root) mod p` so
//! that the tree is always rooted at virtual rank 0, and they handle
//! non-power-of-two process counts the way MPICH does (subtree sizes are
//! clipped at the world size).

use crate::buf::Buf;
use crate::comm::{Comm, ReduceFn};

fn vrank_of(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

fn rank_of(vrank: usize, root: usize, p: usize) -> usize {
    (vrank + root) % p
}

/// Number of ranks in the subtree rooted at `vrank` — the most blocks a
/// scatter or gather ever holds there: the whole world at the root, the
/// lowest set bit of `vrank` (clipped at the world's end) elsewhere.
fn subtree_size(vrank: usize, p: usize) -> usize {
    if vrank == 0 {
        p
    } else {
        (1 << vrank.trailing_zeros()).min(p - vrank)
    }
}

/// Binomial-tree broadcast: after the call every rank's `buf` equals the
/// root's `buf`.
pub fn bcast_binomial<C: Comm>(comm: &C, buf: &mut C::Buf, root: usize, tag: u64) {
    let p = comm.world_size();
    if p == 1 {
        return;
    }
    let rank = comm.rank();
    let vrank = vrank_of(rank, root, p);

    // Receive phase: find the bit where this rank hangs off the tree.
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            let src = rank_of(vrank - mask, root, p);
            comm.recv_into(src, tag, buf);
            break;
        }
        mask <<= 1;
    }

    // Send phase: forward to the subtrees hanging off lower bits.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            let dst = rank_of(vrank + mask, root, p);
            comm.send(dst, tag, buf);
        }
        mask >>= 1;
    }
}

/// Binomial-tree scatter: the root's `sendbuf` holds one block per rank (in
/// absolute rank order); every rank receives its block into `recvbuf`.
///
/// `sendbuf` must be `Some` at the root and is ignored elsewhere.
pub fn scatter_binomial<C: Comm>(
    comm: &C,
    sendbuf: Option<&C::Buf>,
    recvbuf: &mut C::Buf,
    root: usize,
    tag: u64,
) {
    let p = comm.world_size();
    let rank = comm.rank();
    let block = recvbuf.len();
    if p == 1 {
        let sendbuf = sendbuf.expect("root must supply a send buffer");
        recvbuf.copy_from(0, &sendbuf.slice(0..block));
        return;
    }
    let vrank = vrank_of(rank, root, p);

    // Working buffer in virtual-rank order; entry i holds the block destined
    // for virtual rank vrank + i while it travels down the tree.
    let mut tmp = C::Buf::zeroed(subtree_size(vrank, p) * block);
    let mut curr_blocks = 0usize;
    if rank == root {
        let sendbuf = sendbuf.expect("root must supply a send buffer");
        assert_eq!(
            sendbuf.len(),
            p * block,
            "root send buffer must hold one block per rank"
        );
        for i in 0..p {
            let abs = rank_of(i, root, p);
            tmp.copy_from(i * block, &sendbuf.slice(abs * block..(abs + 1) * block));
        }
        if root != 0 {
            // MPICH copies into a rotated temporary only for non-zero roots.
            comm.charge_copy(p * block);
        }
        curr_blocks = p;
    }

    // Receive phase.
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            let src = rank_of(vrank - mask, root, p);
            let recv_blocks = mask.min(p - vrank);
            tmp.with_mut(0..recv_blocks * block, |out| comm.recv_into(src, tag, out));
            curr_blocks = recv_blocks;
            break;
        }
        mask <<= 1;
    }

    // Send phase: peel off the far half of the blocks we hold at each step.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            let dst = rank_of(vrank + mask, root, p);
            let send_blocks = curr_blocks - mask;
            comm.send(
                dst,
                tag,
                &tmp.slice(mask * block..(mask + send_blocks) * block),
            );
            curr_blocks -= send_blocks;
        }
        mask >>= 1;
    }

    recvbuf.copy_from(0, &tmp.slice(0..block));
}

/// Binomial-tree gather: every rank contributes `sendbuf`; the root's
/// `recvbuf` receives all blocks in absolute rank order.
///
/// `recvbuf` must be `Some` at the root and is ignored elsewhere.
pub fn gather_binomial<C: Comm>(
    comm: &C,
    sendbuf: &C::Buf,
    recvbuf: Option<&mut C::Buf>,
    root: usize,
    tag: u64,
) {
    let p = comm.world_size();
    let rank = comm.rank();
    let block = sendbuf.len();
    if p == 1 {
        recvbuf
            .expect("root must supply recvbuf")
            .copy_from(0, sendbuf);
        return;
    }
    let vrank = vrank_of(rank, root, p);

    // Own block first, then each child subtree's blocks as they arrive.
    let mut tmp = C::Buf::zeroed(subtree_size(vrank, p) * block);
    tmp.copy_from(0, sendbuf);
    let mut curr_blocks = 1usize;

    let mut mask = 1usize;
    while mask < p {
        if vrank & mask == 0 {
            if vrank + mask < p {
                let child_v = vrank + mask;
                let src = rank_of(child_v, root, p);
                let recv_blocks = mask.min(p - child_v);
                tmp.with_mut(mask * block..(mask + recv_blocks) * block, |out| {
                    comm.recv_into(src, tag, out)
                });
                curr_blocks += recv_blocks;
            }
        } else {
            let dst = rank_of(vrank - mask, root, p);
            comm.send(dst, tag, &tmp.slice(0..curr_blocks * block));
            break;
        }
        mask <<= 1;
    }

    if rank == root {
        let recvbuf = recvbuf.expect("root must supply recvbuf");
        assert_eq!(recvbuf.len(), p * block);
        for i in 0..p {
            let abs = rank_of(i, root, p);
            recvbuf.copy_from(abs * block, &tmp.slice(i * block..(i + 1) * block));
        }
        if root != 0 {
            comm.charge_copy(p * block);
        }
    }
}

/// Binomial-tree reduce for a commutative `op`: every rank contributes
/// `sendbuf`; the root's `recvbuf` receives the element-wise combination of
/// all contributions.  Leaves send their contribution up the tree; interior
/// ranks combine every child subtree into a private accumulator before
/// forwarding it.
///
/// `recvbuf` must be `Some` at the root and is ignored elsewhere.
pub fn reduce_binomial<C: Comm>(
    comm: &C,
    sendbuf: &C::Buf,
    recvbuf: Option<&mut C::Buf>,
    op: &ReduceFn<'_, C::Buf>,
    root: usize,
    tag: u64,
) {
    let p = comm.world_size();
    let rank = comm.rank();
    let bytes = sendbuf.len();
    if p == 1 {
        recvbuf
            .expect("root must supply recvbuf")
            .copy_from(0, sendbuf);
        return;
    }
    let vrank = vrank_of(rank, root, p);

    let mut acc = sendbuf.to_owned();
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask == 0 {
            // Combine the child subtree hanging off this bit, if it exists.
            if vrank + mask < p {
                let src = rank_of(vrank + mask, root, p);
                let data = comm.recv(src, tag, bytes);
                op(&mut acc, &data);
            }
        } else {
            let dst = rank_of(vrank - mask, root, p);
            comm.send(dst, tag, &acc);
            break;
        }
        mask <<= 1;
    }

    if rank == root {
        recvbuf
            .expect("root must supply recvbuf")
            .copy_from(0, &acc);
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

    fn run_bcast(nodes: usize, ppn: usize, root: usize, len: usize) {
        let topo = Topology::new(nodes, ppn);
        let reference = oracle::rank_payload(root, len);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = if comm.rank() == root {
                oracle::rank_payload(root, len)
            } else {
                vec![0u8; len]
            };
            bcast_binomial(&comm, &mut buf, root, 100);
            buf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &reference, "bcast mismatch at rank {rank}");
        }
    }

    fn run_scatter(nodes: usize, ppn: usize, root: usize, block: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let sendbuf = oracle::rank_payload(root, world * block);
        let expected = oracle::scatter(&sendbuf, world);
        let sendbuf_ref = &sendbuf;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut recvbuf = vec![0u8; block];
            let send = (comm.rank() == root).then_some(sendbuf_ref.as_slice());
            scatter_binomial(&comm, send, &mut recvbuf, root, 200);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected[rank], "scatter mismatch at rank {rank}");
        }
    }

    fn run_gather(nodes: usize, ppn: usize, root: usize, block: usize) {
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
            gather_binomial(&comm, &sendbuf, recv, root, 300);
            recvbuf
        })
        .unwrap();
        assert_eq!(results[root], expected, "gather mismatch at root {root}");
    }

    #[test]
    fn bcast_power_of_two_world() {
        run_bcast(2, 4, 0, 64);
    }

    #[test]
    fn bcast_non_power_of_two_world_and_nonzero_root() {
        run_bcast(3, 3, 4, 33);
    }

    #[test]
    fn bcast_single_rank() {
        run_bcast(1, 1, 0, 16);
    }

    #[test]
    fn bcast_two_ranks_root_one() {
        run_bcast(1, 2, 1, 8);
    }

    #[test]
    fn scatter_power_of_two_world() {
        run_scatter(2, 4, 0, 16);
    }

    #[test]
    fn scatter_non_power_of_two_world() {
        run_scatter(3, 2, 0, 8);
    }

    #[test]
    fn scatter_nonzero_root() {
        run_scatter(2, 3, 4, 32);
    }

    #[test]
    fn scatter_prime_world_size() {
        run_scatter(7, 1, 3, 8);
    }

    #[test]
    fn scatter_single_rank() {
        run_scatter(1, 1, 0, 64);
    }

    #[test]
    fn gather_power_of_two_world() {
        run_gather(2, 4, 0, 16);
    }

    #[test]
    fn gather_non_power_of_two_world() {
        run_gather(3, 2, 5, 8);
    }

    #[test]
    fn gather_prime_world_size() {
        run_gather(5, 1, 2, 24);
    }

    #[test]
    fn gather_single_rank() {
        run_gather(1, 1, 0, 8);
    }

    fn run_reduce(nodes: usize, ppn: usize, root: usize, len: usize) {
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
            reduce_binomial(&comm, &sendbuf, recv, &oracle::wrapping_add_u8, root, 400);
            recvbuf
        })
        .unwrap();
        assert_eq!(results[root], expected, "reduce mismatch at root {root}");
    }

    #[test]
    fn reduce_power_of_two_world() {
        run_reduce(2, 4, 0, 16);
    }

    #[test]
    fn reduce_non_power_of_two_world_and_nonzero_root() {
        run_reduce(3, 3, 4, 33);
    }

    #[test]
    fn reduce_prime_world_size() {
        run_reduce(7, 1, 3, 8);
    }

    #[test]
    fn reduce_single_rank() {
        run_reduce(1, 1, 0, 8);
    }

    #[test]
    fn reduce_min_operator_keeps_elementwise_minimum() {
        let topo = Topology::new(2, 3);
        let world = topo.world_size();
        let len = 9;
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle::reduce(&contributions, oracle::min_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), len);
            let mut recvbuf = vec![0u8; len];
            let recv = (comm.rank() == 2).then_some(recvbuf.as_mut_slice());
            reduce_binomial(&comm, &sendbuf, recv, &oracle::min_u8, 2, 410);
            recvbuf
        })
        .unwrap();
        assert_eq!(results[2], expected);
    }

    #[test]
    fn reduce_typed_u64_prod_matches_the_typed_oracle() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(3, 2);
        let world = topo.world_size();
        let root = 1;
        let contributions: Vec<Vec<u64>> = (0..world)
            .map(|r| (0..5).map(|i| (r as u64 + 2) * 10 + i).collect())
            .collect();
        let expected = oracle::allreduce_t(&contributions, ReduceOp::Prod);
        let inputs = &contributions;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = to_bytes(&inputs[comm.rank()]);
            let mut recvbuf = vec![0u8; sendbuf.len()];
            let recv = (comm.rank() == root).then_some(recvbuf.as_mut_slice());
            let kernel = ReduceKernel::of::<u64>(ReduceOp::Prod);
            reduce_binomial(&comm, &sendbuf, recv, kernel.as_fn(), root, 420);
            from_bytes::<u64>(&recvbuf)
        })
        .unwrap();
        assert_eq!(results[root], expected);
    }

    #[test]
    fn reduce_trace_sends_exactly_p_minus_1_messages() {
        let topo = Topology::new(8, 1);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(32);
            let mut recvbuf = SymBuf::zeroed(32);
            let recv = (comm.rank() == 0).then_some(&mut *recvbuf);
            reduce_binomial(comm, &sendbuf, recv, &comm.reducer(), 0, 1);
        });
        trace.validate().unwrap();
        // A binomial reduce over p ranks moves exactly p-1 messages; the
        // root sends none and receives log2(p).
        assert_eq!(trace.total_messages(), 7);
        assert_eq!(trace.ranks[0].send_count(), 0);
    }

    #[test]
    fn bcast_trace_has_logarithmic_depth_and_full_coverage() {
        let topo = Topology::new(16, 1);
        let trace = record_trace(topo, |comm| {
            let mut buf = SymBuf::zeroed(64);
            bcast_binomial(comm, &mut buf, 0, 1);
        });
        trace.validate().unwrap();
        // A binomial broadcast over p ranks sends exactly p-1 messages.
        assert_eq!(trace.total_messages(), 15);
        // The root sends log2(p) of them.
        assert_eq!(trace.ranks[0].send_count(), 4);
    }

    #[test]
    fn scatter_trace_message_volume_matches_theory() {
        let world = 8;
        let block = 32;
        let topo = Topology::new(world, 1);
        let sendbuf = SymBuf::zeroed(world * block);
        let trace = record_trace(topo, |comm| {
            let mut recvbuf = SymBuf::zeroed(block);
            let send = (comm.rank() == 0).then_some(&*sendbuf);
            scatter_binomial(comm, send, &mut recvbuf, 0, 1);
        });
        trace.validate().unwrap();
        // Binomial scatter moves sum over levels of p/2 blocks = block * p/2 * log p... exact:
        // each rank except the root receives its subtree once: total bytes = sum of subtree sizes.
        let total: usize = trace.ranks.iter().map(|r| r.bytes_sent()).sum();
        // For p=8: subtrees received: 4+2+1 (from root) + 2+1 + 1 + ... = 4+2+2+1+1+1+1 = 12 blocks.
        assert_eq!(total, 12 * block);
    }

    #[test]
    fn subtree_sizes_are_one_plus_the_children_and_cover_the_world() {
        // The temporaries of scatter and gather are sized by `subtree_size`:
        // it must equal the rank itself plus every child subtree (the
        // children of `vrank` hang off the bits below its lowest set bit),
        // for power-of-two and clipped worlds alike.
        for p in 1..=40usize {
            assert_eq!(subtree_size(0, p), p);
            for vrank in 0..p {
                let mut mask = 1usize;
                let mut blocks = 1;
                while mask < p && vrank & mask == 0 {
                    if vrank + mask < p {
                        blocks += subtree_size(vrank + mask, p);
                    }
                    mask <<= 1;
                }
                assert_eq!(subtree_size(vrank, p), blocks, "vrank {vrank} of {p}");
            }
        }
    }
}
