//! Recursive-halving reduce_scatter — the MPICH default for commutative
//! operators at small and medium message sizes.
//!
//! Every rank contributes `world` blocks; rank `r` ends with block `r` of
//! the element-wise combination of all contributions
//! (MPI_Reduce_scatter_block semantics).  Non-power-of-two worlds use the
//! standard fold step: the first `2 * rem` ranks pair up so a power of two
//! remains, each surviving odd rank representing *two* real blocks through
//! the halving and handing the even partner's block back at the end.

use crate::buf::Buf;
use crate::comm::{Comm, ReduceFn};
use crate::recursive_doubling::largest_pow2_leq;

/// The real-rank block range `(start, end)` represented by "new rank" `j`
/// after folding `rem` pairs: `j < rem` stands for real ranks `2j` and
/// `2j + 1`, `j >= rem` for real rank `j + rem`.
fn newrank_blocks(j: usize, rem: usize) -> (usize, usize) {
    if j < rem {
        (2 * j, 2 * j + 2)
    } else {
        (j + rem, j + rem + 1)
    }
}

/// Recursive-halving reduce_scatter for a commutative `op`.
///
/// `sendbuf` holds one block per rank (`world * recvbuf.len()` bytes);
/// `recvbuf` receives this rank's fully reduced block.
pub fn reduce_scatter_recursive_halving<C: Comm>(
    comm: &C,
    sendbuf: &C::Buf,
    recvbuf: &mut C::Buf,
    op: &ReduceFn<'_, C::Buf>,
    tag: u64,
) {
    let p = comm.world_size();
    let rank = comm.rank();
    let block = recvbuf.len();
    assert_eq!(
        sendbuf.len(),
        p * block,
        "sendbuf must hold one block per rank"
    );
    if p == 1 {
        recvbuf.copy_from(0, sendbuf);
        return;
    }

    let pof2 = largest_pow2_leq(p);
    let rem = p - pof2;
    let mut buf = sendbuf.to_owned();

    // Fold step: even ranks of the first 2*rem send their whole vector to
    // the odd partner, which then represents both ranks' blocks.
    let newrank: isize = if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            comm.send(rank + 1, tag, &buf);
            -1
        } else {
            let data = comm.recv(rank - 1, tag, buf.len());
            op(&mut buf, &data);
            (rank / 2) as isize
        }
    } else {
        (rank - rem) as isize
    };

    if newrank >= 0 {
        let newrank = newrank as usize;
        let to_real = |nr: usize| -> usize {
            if nr < rem {
                nr * 2 + 1
            } else {
                nr + rem
            }
        };
        // Recursive halving over the pof2 new-rank blocks: keep the half
        // containing this rank's own block, exchange-and-reduce the other.
        let mut lo = 0usize;
        let mut hi = pof2;
        let mut mask = pof2 >> 1;
        let mut round = 1u64;
        while mask > 0 {
            let partner = to_real(newrank ^ mask);
            let mid = lo + mask;
            let (keep, send) = if newrank < lo + mask {
                ((lo, mid), (mid, hi))
            } else {
                ((mid, hi), (lo, mid))
            };
            let byte_range = |(a, b): (usize, usize)| -> (usize, usize) {
                (
                    newrank_blocks(a, rem).0 * block,
                    newrank_blocks(b - 1, rem).1 * block,
                )
            };
            let (ss, se) = byte_range(send);
            let (ks, ke) = byte_range(keep);
            let outgoing = buf.slice(ss..se).into_owned();
            let incoming = comm.sendrecv(
                partner,
                tag + round,
                &outgoing,
                partner,
                tag + round,
                ke - ks,
            );
            buf.with_mut(ks..ke, |acc| op(acc, &incoming));
            lo = keep.0;
            hi = keep.1;
            mask >>= 1;
            round += 1;
        }
        debug_assert_eq!(hi, lo + 1);
        // This new rank now holds its real block(s), fully reduced.
        let (first, last) = newrank_blocks(lo, rem);
        if newrank < rem {
            // Hand the folded-out even partner its block back.
            comm.send(
                2 * newrank,
                tag + 63,
                &buf.slice(first * block..(first + 1) * block),
            );
            recvbuf.copy_from(0, &buf.slice((last - 1) * block..last * block));
        } else {
            recvbuf.copy_from(0, &buf.slice(first * block..last * block));
        }
    } else {
        comm.recv_into(rank + 1, tag + 63, recvbuf);
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
            reduce_scatter_recursive_halving(
                &comm,
                &sendbuf,
                &mut recvbuf,
                &oracle::wrapping_add_u8,
                2100,
            );
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(
                buf, &expected[rank],
                "reduce_scatter mismatch at rank {rank} ({nodes}x{ppn})"
            );
        }
    }

    #[test]
    fn power_of_two_world() {
        run(2, 2, 8);
    }

    #[test]
    fn non_power_of_two_world() {
        run(3, 2, 8);
    }

    #[test]
    fn prime_world_size() {
        run(7, 1, 5);
    }

    #[test]
    fn odd_block_size() {
        run(3, 3, 7);
    }

    #[test]
    fn two_ranks() {
        run(1, 2, 16);
    }

    #[test]
    fn single_rank() {
        run(1, 1, 8);
    }

    #[test]
    fn max_operator_survives_the_fold_step() {
        // Non-power-of-two world with a non-invertible operator: a wrong
        // contribution subset (double-count or miss) changes the result.
        let topo = Topology::new(5, 1);
        let world = topo.world_size();
        let block = 4;
        let contributions: Vec<Vec<u8>> = (0..world)
            .map(|r| oracle::rank_payload(r, world * block))
            .collect();
        let expected = oracle::reduce_scatter(&contributions, world, oracle::max_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), world * block);
            let mut recvbuf = vec![0u8; block];
            reduce_scatter_recursive_halving(&comm, &sendbuf, &mut recvbuf, &oracle::max_u8, 2200);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected[rank]);
        }
    }

    #[test]
    fn typed_f64_max_reduce_scatter_matches_the_typed_oracle_with_nan() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(3, 1);
        let world = topo.world_size();
        let block = 3;
        // Rank 1 contributes a NaN in the element that lands in rank 2's
        // block; everything else is finite and rank-dependent.
        let contributions: Vec<Vec<f64>> = (0..world)
            .map(|r| {
                (0..world * block)
                    .map(|i| {
                        if r == 1 && i == 2 * block {
                            f64::NAN
                        } else {
                            (r * 100 + i) as f64 - 450.0
                        }
                    })
                    .collect()
            })
            .collect();
        let expected = oracle::reduce_scatter_t(&contributions, world, ReduceOp::Max);
        let inputs = &contributions;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = to_bytes(&inputs[comm.rank()]);
            let mut recvbuf = vec![0u8; block * 8];
            let kernel = ReduceKernel::of::<f64>(ReduceOp::Max);
            reduce_scatter_recursive_halving(&comm, &sendbuf, &mut recvbuf, kernel.as_fn(), 2250);
            from_bytes::<f64>(&recvbuf)
        })
        .unwrap();
        for (rank, out) in results.iter().enumerate() {
            for (i, (got, want)) in out.iter().zip(&expected[rank]).enumerate() {
                if want.is_nan() {
                    assert!(got.is_nan(), "rank {rank} elem {i}: NaN must survive");
                } else {
                    assert_eq!(got, want, "rank {rank} elem {i}");
                }
            }
        }
        assert!(expected[2][0].is_nan(), "the NaN lane must land on rank 2");
    }

    #[test]
    fn trace_rounds_are_logarithmic_for_power_of_two() {
        let world = 8;
        let block = 16;
        let topo = Topology::new(world, 1);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(world * block);
            let mut recvbuf = SymBuf::zeroed(block);
            reduce_scatter_recursive_halving(comm, &sendbuf, &mut recvbuf, &comm.reducer(), 1);
        });
        trace.validate().unwrap();
        // Power of two: log2(p) exchange rounds, each halving the volume:
        // 4 + 2 + 1 blocks sent per rank.
        assert_eq!(trace.ranks[0].send_count(), 3);
        assert_eq!(trace.ranks[0].bytes_sent(), 7 * block);
    }
}
