//! Prefix reductions: MPI_Scan (inclusive) and MPI_Exscan (exclusive).
//!
//! Two algorithm families, matching what the comparator libraries ship:
//!
//! * **Recursive doubling** ([`scan_recursive_doubling`],
//!   [`exscan_recursive_doubling`]) — the MPICH default: `ceil(log2 p)`
//!   rounds in which every rank exchanges its *partial* (the combination of
//!   its hypercube group) and folds contributions from lower-ranked partners
//!   into its own prefix.
//! * **Linear pipeline** ([`scan_linear`], [`exscan_linear`]) — Open MPI's
//!   base implementation: rank `r` waits for the prefix of `0..r` from its
//!   left neighbour, combines, and forwards to `r + 1`.
//!
//! Exclusive-scan semantics at rank 0: MPI leaves the receive buffer
//! undefined; this implementation pins it to the rank's own input (the
//! buffer is left untouched), and `oracle::exscan` mirrors that.

use crate::buf::Buf;
use crate::comm::{BufVec, Comm, ReduceFn};

/// Recursive-doubling inclusive scan for a commutative `op`: on return,
/// rank `r`'s `buf` holds the combination of the contributions of ranks
/// `0..=r`.
pub fn scan_recursive_doubling<C: Comm>(
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
    // `partial` accumulates every contribution seen so far (the hypercube
    // group); `buf` accumulates only those from ranks <= rank (the prefix).
    let mut partial = buf.to_owned();
    let mut mask = 1usize;
    let mut round = 0u64;
    while mask < p {
        let partner = rank ^ mask;
        if partner < p {
            let received =
                comm.sendrecv(partner, tag + round, &partial, partner, tag + round, bytes);
            op(&mut partial, &received);
            if partner < rank {
                op(buf, &received);
            }
        }
        mask <<= 1;
        round += 1;
    }
}

/// Recursive-doubling exclusive scan for a commutative `op`: on return,
/// rank `r > 0`'s `buf` holds the combination of the contributions of ranks
/// `0..r`; rank 0's `buf` is left untouched.
pub fn exscan_recursive_doubling<C: Comm>(
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
    let mut partial = buf.to_owned();
    // The exclusive prefix is built only from lower-ranked partners'
    // partials; the first such contribution seeds it.
    let mut prefix: Option<BufVec<C>> = None;
    let mut mask = 1usize;
    let mut round = 0u64;
    while mask < p {
        let partner = rank ^ mask;
        if partner < p {
            let received =
                comm.sendrecv(partner, tag + round, &partial, partner, tag + round, bytes);
            op(&mut partial, &received);
            if partner < rank {
                match prefix.as_mut() {
                    Some(prefix) => op(prefix, &received),
                    None => prefix = Some(received),
                }
            }
        }
        mask <<= 1;
        round += 1;
    }
    if let Some(prefix) = prefix {
        buf.copy_from(0, &prefix);
        comm.charge_copy(bytes);
    }
}

/// Linear-pipeline inclusive scan: rank `r` receives the prefix of `0..r`
/// from rank `r - 1`, combines its own contribution and forwards the
/// inclusive prefix to rank `r + 1`.
pub fn scan_linear<C: Comm>(comm: &C, buf: &mut C::Buf, op: &ReduceFn<'_, C::Buf>, tag: u64) {
    let p = comm.world_size();
    let rank = comm.rank();
    let bytes = buf.len();
    if p == 1 {
        return;
    }
    if rank > 0 {
        let prefix = comm.recv(rank - 1, tag, bytes);
        op(buf, &prefix);
    }
    if rank + 1 < p {
        comm.send(rank + 1, tag, buf);
    }
}

/// Linear-pipeline exclusive scan: rank `r > 0` receives the prefix of
/// `0..r` (its result) and forwards the inclusive prefix; rank 0's `buf` is
/// left untouched.
pub fn exscan_linear<C: Comm>(comm: &C, buf: &mut C::Buf, op: &ReduceFn<'_, C::Buf>, tag: u64) {
    let p = comm.world_size();
    let rank = comm.rank();
    let bytes = buf.len();
    if p == 1 {
        return;
    }
    if rank == 0 {
        comm.send(1, tag, buf);
        return;
    }
    let prefix = comm.recv(rank - 1, tag, bytes);
    if rank + 1 < p {
        let mut inclusive = (*prefix).to_owned();
        op(&mut inclusive, buf);
        comm.send_owned(rank + 1, tag, inclusive);
    }
    buf.copy_from(0, &prefix);
    comm.charge_copy(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{Buf, SymBuf};
    use crate::comm::ThreadComm;
    use crate::oracle;
    use crate::plan::record_trace;
    use pip_runtime::{Cluster, Topology};

    type ByteCombine = fn(&mut [u8], &[u8]);
    type OracleFn = fn(&[Vec<u8>], ByteCombine) -> Vec<Vec<u8>>;

    fn run_scan<F>(
        algo: F,
        oracle_fn: OracleFn,
        nodes: usize,
        ppn: usize,
        len: usize,
        op: ByteCombine,
    ) where
        F: for<'a, 'b> Fn(&ThreadComm<'a>, &mut [u8], &ReduceFn<'b>, u64) + Sync,
    {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle_fn(&contributions, op);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = oracle::rank_payload(comm.rank(), len);
            algo(&comm, &mut buf, &op, 2500);
            buf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected[rank], "scan mismatch at rank {rank}");
        }
    }

    fn scan_oracle(contributions: &[Vec<u8>], op: ByteCombine) -> Vec<Vec<u8>> {
        oracle::scan(contributions, op)
    }

    fn exscan_oracle(contributions: &[Vec<u8>], op: ByteCombine) -> Vec<Vec<u8>> {
        oracle::exscan(contributions, op)
    }

    #[test]
    fn scan_rd_matches_oracle_on_grid() {
        for (nodes, ppn) in [(1, 1), (1, 2), (2, 2), (3, 2), (5, 1), (3, 3)] {
            run_scan(
                |c, b, o, t| scan_recursive_doubling(c, b, o, t),
                scan_oracle,
                nodes,
                ppn,
                11,
                oracle::wrapping_add_u8,
            );
        }
    }

    #[test]
    fn exscan_rd_matches_oracle_on_grid() {
        for (nodes, ppn) in [(1, 1), (1, 2), (2, 2), (3, 2), (5, 1), (3, 3)] {
            run_scan(
                |c, b, o, t| exscan_recursive_doubling(c, b, o, t),
                exscan_oracle,
                nodes,
                ppn,
                11,
                oracle::wrapping_add_u8,
            );
        }
    }

    #[test]
    fn scan_linear_matches_oracle_on_grid() {
        for (nodes, ppn) in [(1, 1), (1, 2), (3, 2), (2, 3)] {
            run_scan(
                |c, b, o, t| scan_linear(c, b, o, t),
                scan_oracle,
                nodes,
                ppn,
                9,
                oracle::wrapping_add_u8,
            );
        }
    }

    #[test]
    fn exscan_linear_matches_oracle_on_grid() {
        for (nodes, ppn) in [(1, 1), (1, 2), (3, 2), (2, 3)] {
            run_scan(
                |c, b, o, t| exscan_linear(c, b, o, t),
                exscan_oracle,
                nodes,
                ppn,
                9,
                oracle::wrapping_add_u8,
            );
        }
    }

    #[test]
    fn scan_with_max_requires_the_exact_prefix_subset() {
        // Max is not invertible: any rank folded into the wrong prefix
        // cannot be cancelled out, so subset errors are visible.
        run_scan(
            |c, b, o, t| scan_recursive_doubling(c, b, o, t),
            scan_oracle,
            3,
            3,
            8,
            oracle::max_u8,
        );
        run_scan(
            |c, b, o, t| exscan_recursive_doubling(c, b, o, t),
            exscan_oracle,
            3,
            3,
            8,
            oracle::min_u8,
        );
    }

    #[test]
    fn typed_i32_scans_match_the_typed_oracle() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(3, 2);
        let world = topo.world_size();
        let contributions: Vec<Vec<i32>> = (0..world)
            .map(|r| (0..5).map(|i| (r as i32 + 1) * 1000 - i * 7).collect())
            .collect();
        let expected_scan = oracle::scan_t(&contributions, ReduceOp::Sum);
        let expected_exscan = oracle::exscan_t(&contributions, ReduceOp::Sum);
        let inputs = &contributions;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let kernel = ReduceKernel::of::<i32>(ReduceOp::Sum);
            let mut inclusive = to_bytes(&inputs[comm.rank()]);
            scan_recursive_doubling(&comm, &mut inclusive, kernel.as_fn(), 2600);
            let mut exclusive = to_bytes(&inputs[comm.rank()]);
            exscan_recursive_doubling(&comm, &mut exclusive, kernel.as_fn(), 2700);
            (from_bytes::<i32>(&inclusive), from_bytes::<i32>(&exclusive))
        })
        .unwrap();
        for (rank, (inclusive, exclusive)) in results.iter().enumerate() {
            assert_eq!(inclusive, &expected_scan[rank], "scan at rank {rank}");
            assert_eq!(exclusive, &expected_exscan[rank], "exscan at rank {rank}");
        }
    }

    #[test]
    fn scan_rd_trace_has_logarithmic_rounds() {
        let topo = Topology::new(8, 1);
        let trace = record_trace(topo, |comm| {
            let mut buf = SymBuf::zeroed(16);
            scan_recursive_doubling(comm, &mut buf, &comm.reducer(), 1);
        });
        trace.validate().unwrap();
        // Power-of-two world: every rank exchanges in every one of the
        // log2(p) rounds.
        assert_eq!(trace.ranks[0].send_count(), 3);
    }

    #[test]
    fn scan_linear_trace_is_a_chain() {
        let topo = Topology::new(6, 1);
        let trace = record_trace(topo, |comm| {
            let mut buf = SymBuf::zeroed(16);
            scan_linear(comm, &mut buf, &comm.reducer(), 1);
        });
        trace.validate().unwrap();
        assert_eq!(trace.total_messages(), 5);
    }
}
