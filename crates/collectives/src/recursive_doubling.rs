//! Recursive-doubling algorithms: allgather (power-of-two ranks), allreduce
//! (arbitrary ranks, with the MPICH non-power-of-two pre/post step), and the
//! dissemination barrier.

use crate::buf::Buf;
use crate::comm::{Comm, ReduceFn};

/// Largest power of two that is `<= n` (`n >= 1`).
pub fn largest_pow2_leq(n: usize) -> usize {
    debug_assert!(n >= 1);
    1usize << (usize::BITS - 1 - n.leading_zeros())
}

/// Recursive-doubling allgather.  Requires a power-of-two world size (the
/// MPI libraries fall back to Bruck otherwise; callers should do the same —
/// see the `SmallPow2` rows of `pip-mpi-model`'s rule lists).
pub fn allgather_recursive_doubling<C: Comm>(
    comm: &C,
    sendbuf: &C::Buf,
    recvbuf: &mut C::Buf,
    tag: u64,
) {
    let p = comm.world_size();
    assert!(p.is_power_of_two(), "recursive doubling requires 2^k ranks");
    let rank = comm.rank();
    let block = sendbuf.len();
    assert_eq!(recvbuf.len(), p * block);

    recvbuf.copy_from(rank * block, sendbuf);
    let mut mask = 1usize;
    let mut round = 0u64;
    while mask < p {
        let partner = rank ^ mask;
        // The contiguous range of blocks this rank currently owns starts at
        // the rank with the low `log2(mask)` bits cleared.
        let my_start = (rank & !(mask - 1)) * block;
        let partner_start = (partner & !(mask - 1)) * block;
        let len = mask * block;
        // The same op order as `sendrecv`, landing the partner's blocks in
        // place.
        comm.send(
            partner,
            tag + round,
            &recvbuf.slice(my_start..my_start + len),
        );
        recvbuf.with_mut(partner_start..partner_start + len, |out| {
            comm.recv_into(partner, tag + round, out)
        });
        mask <<= 1;
        round += 1;
    }
}

/// Recursive-doubling allreduce for a commutative `op`.  Handles
/// non-power-of-two world sizes with the standard fold-in/fold-out step.
pub fn allreduce_recursive_doubling<C: Comm>(
    comm: &C,
    buf: &mut C::Buf,
    op: &ReduceFn<'_, C::Buf>,
    tag: u64,
) {
    let p = comm.world_size();
    let rank = comm.rank();
    let bytes = buf.len();
    if p == 1 {
        return;
    }

    let pof2 = largest_pow2_leq(p);
    let rem = p - pof2;

    // Fold the first 2*rem ranks into rem ranks so a power of two remains.
    let newrank: isize = if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            comm.send(rank + 1, tag, buf);
            -1
        } else {
            let data = comm.recv(rank - 1, tag, bytes);
            op(buf, &data);
            (rank / 2) as isize
        }
    } else {
        (rank - rem) as isize
    };

    // Recursive doubling among the pof2 survivors.
    if newrank >= 0 {
        let newrank = newrank as usize;
        let to_real = |nr: usize| -> usize {
            if nr < rem {
                nr * 2 + 1
            } else {
                nr + rem
            }
        };
        let mut mask = 1usize;
        let mut round = 1u64;
        while mask < pof2 {
            let partner = to_real(newrank ^ mask);
            let received = comm.sendrecv(partner, tag + round, buf, partner, tag + round, bytes);
            op(buf, &received);
            mask <<= 1;
            round += 1;
        }
    }

    // Hand the result back to the folded-out ranks.
    if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            comm.recv_into(rank + 1, tag + 63, buf);
        } else {
            comm.send(rank - 1, tag + 63, buf);
        }
    }
}

/// Dissemination barrier: `ceil(log2 p)` rounds of zero-byte messages.
pub fn barrier_dissemination<C: Comm>(comm: &C, tag: u64) {
    let p = comm.world_size();
    if p == 1 {
        return;
    }
    let rank = comm.rank();
    let mut step = 1usize;
    let mut round = 0u64;
    while step < p {
        let dst = (rank + step) % p;
        let src = (rank + p - step) % p;
        comm.sendrecv(dst, tag + round, &C::Buf::zeroed(0), src, tag + round, 0);
        step <<= 1;
        round += 1;
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

    #[test]
    fn largest_pow2_examples() {
        assert_eq!(largest_pow2_leq(1), 1);
        assert_eq!(largest_pow2_leq(2), 2);
        assert_eq!(largest_pow2_leq(3), 2);
        assert_eq!(largest_pow2_leq(18), 16);
        assert_eq!(largest_pow2_leq(128), 128);
        assert_eq!(largest_pow2_leq(2304), 2048);
    }

    fn run_allgather_rd(nodes: usize, ppn: usize, block: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), block);
            let mut recvbuf = vec![0u8; world * block];
            allgather_recursive_doubling(&comm, &sendbuf, &mut recvbuf, 900);
            recvbuf
        })
        .unwrap();
        for buf in &results {
            assert_eq!(buf, &expected);
        }
    }

    fn run_allreduce_rd(nodes: usize, ppn: usize, len: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle::allreduce(&contributions, oracle::wrapping_add_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = oracle::rank_payload(comm.rank(), len);
            allreduce_recursive_doubling(&comm, &mut buf, &oracle::wrapping_add_u8, 1100);
            buf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected, "allreduce mismatch at rank {rank}");
        }
    }

    #[test]
    fn allgather_rd_small_power_of_two() {
        run_allgather_rd(2, 2, 16);
    }

    #[test]
    fn allgather_rd_larger_power_of_two() {
        run_allgather_rd(4, 4, 8);
    }

    #[test]
    fn allgather_rd_single_rank() {
        run_allgather_rd(1, 1, 8);
    }

    #[test]
    #[should_panic(expected = "recursive doubling requires 2^k ranks")]
    fn allgather_rd_rejects_non_power_of_two() {
        run_allgather_rd(3, 1, 8);
    }

    #[test]
    fn allreduce_rd_power_of_two() {
        run_allreduce_rd(2, 4, 64);
    }

    #[test]
    fn allreduce_rd_non_power_of_two() {
        run_allreduce_rd(3, 2, 32);
    }

    #[test]
    fn allreduce_rd_prime_world() {
        run_allreduce_rd(7, 1, 16);
    }

    #[test]
    fn allreduce_rd_two_ranks() {
        run_allreduce_rd(1, 2, 8);
    }

    #[test]
    fn allreduce_rd_single_rank() {
        run_allreduce_rd(1, 1, 8);
    }

    #[test]
    fn allreduce_rd_f64_sum() {
        let topo = Topology::new(2, 3);
        let world = topo.world_size();
        let expected: f64 = (0..world as u64).map(|r| r as f64 + 0.5).sum();
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = (comm.rank() as f64 + 0.5).to_le_bytes().to_vec();
            allreduce_recursive_doubling(&comm, &mut buf, &oracle::sum_f64, 1200);
            f64::from_le_bytes(buf.try_into().unwrap())
        })
        .unwrap();
        for value in results {
            assert!((value - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn allreduce_rd_typed_f32_max_propagates_nan() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(2, 2);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            // Element 0 carries a NaN on rank 2 only; element 1 is clean.
            let input: [f32; 2] = if comm.rank() == 2 {
                [f32::NAN, 2.0]
            } else {
                [comm.rank() as f32, comm.rank() as f32]
            };
            let mut buf = to_bytes(&input);
            let kernel = ReduceKernel::of::<f32>(ReduceOp::Max);
            allreduce_recursive_doubling(&comm, &mut buf, kernel.as_fn(), 1250);
            from_bytes::<f32>(&buf)
        })
        .unwrap();
        for (rank, out) in results.iter().enumerate() {
            assert!(
                out[0].is_nan(),
                "rank {rank}: NaN must propagate through max"
            );
            assert_eq!(out[1], 3.0, "rank {rank}: clean lane takes the true max");
        }
    }

    #[test]
    fn barrier_completes_on_all_world_sizes() {
        for (nodes, ppn) in [(1, 1), (1, 2), (3, 1), (2, 3), (4, 4)] {
            let topo = Topology::new(nodes, ppn);
            let results = Cluster::launch(topo, |ctx| {
                let comm = ThreadComm::new(ctx);
                barrier_dissemination(&comm, 1300);
                true
            })
            .unwrap();
            assert!(results.into_iter().all(|done| done));
        }
    }

    #[test]
    fn barrier_trace_rounds_are_logarithmic() {
        let topo = Topology::new(9, 1);
        let trace = record_trace(topo, |comm| barrier_dissemination(comm, 1));
        trace.validate().unwrap();
        // ceil(log2(9)) = 4 rounds of one zero-byte message per rank.
        assert_eq!(trace.ranks[0].send_count(), 4);
        assert_eq!(trace.ranks[0].bytes_sent(), 0);
    }

    #[test]
    fn allreduce_trace_matches_volume_for_power_of_two() {
        let topo = Topology::new(8, 1);
        let trace = record_trace(topo, |comm| {
            let mut buf = SymBuf::zeroed(128);
            allreduce_recursive_doubling(comm, &mut buf, &comm.reducer(), 1);
        });
        trace.validate().unwrap();
        // log2(8) = 3 rounds, full buffer each round.
        assert_eq!(trace.ranks[0].send_count(), 3);
        assert_eq!(trace.ranks[0].bytes_sent(), 3 * 128);
    }
}
