//! Ring algorithms: the bandwidth-optimal large-message baselines — ring
//! allgather, ring reduce_scatter and ring allreduce (reduce-scatter
//! followed by allgather).

use crate::buf::Buf;
use crate::comm::{Comm, ReduceFn};

/// Ring allgather: `p - 1` steps; in each step every rank forwards to its
/// right neighbour the block it received in the previous step.
pub fn allgather_ring<C: Comm>(comm: &C, sendbuf: &C::Buf, recvbuf: &mut C::Buf, tag: u64) {
    let p = comm.world_size();
    let rank = comm.rank();
    let block = sendbuf.len();
    assert_eq!(recvbuf.len(), p * block);
    recvbuf.copy_from(rank * block, sendbuf);
    if p == 1 {
        return;
    }
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;
    for step in 0..p - 1 {
        // Block to forward: the one that originated `step` ranks behind us.
        let send_block = (rank + p - step) % p;
        let recv_block = (rank + p - step - 1) % p;
        // The same op order as `sendrecv`, landing the block in place.
        let tag = tag + step as u64;
        comm.send(
            right,
            tag,
            &recvbuf.slice(send_block * block..(send_block + 1) * block),
        );
        recvbuf.with_mut(recv_block * block..(recv_block + 1) * block, |out| {
            comm.recv_into(left, tag, out)
        });
    }
}

/// Ring allreduce: a reduce-scatter ring (each rank ends up owning the fully
/// reduced value of one chunk) followed by a ring allgather of the chunks.
/// This is the bandwidth-optimal algorithm used for large messages.
///
/// The buffer is split into `p` chunks at `elem_size`-aligned boundaries, so
/// `op` is only ever handed whole elements — splitting a multi-byte element
/// across two chunks would corrupt it when each half is reduced separately.
/// `buf.len()` must be a multiple of `elem_size` but the element count need
/// not be divisible by `p` (trailing chunks are smaller, possibly empty).
pub fn allreduce_ring<C: Comm>(
    comm: &C,
    buf: &mut C::Buf,
    elem_size: usize,
    op: &ReduceFn<'_, C::Buf>,
    tag: u64,
) {
    let p = comm.world_size();
    let rank = comm.rank();
    if p == 1 {
        return;
    }
    assert_eq!(
        buf.len() % elem_size,
        0,
        "ring allreduce buffer of {} B is not a whole number of {}-byte elements",
        buf.len(),
        elem_size
    );
    let n = buf.len() / elem_size;
    let chunk_bounds = |i: usize| -> (usize, usize) {
        let base = n / p;
        let extra = n % p;
        let start = i * base + i.min(extra);
        let len = base + usize::from(i < extra);
        (start * elem_size, (start + len) * elem_size)
    };
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;

    // Reduce-scatter phase: after p-1 steps, rank r owns the fully reduced
    // chunk (r + 1) % p.
    for step in 0..p - 1 {
        let send_chunk = (rank + p - step) % p;
        let recv_chunk = (rank + p - step - 1) % p;
        let (ss, se) = chunk_bounds(send_chunk);
        let (rs, re) = chunk_bounds(recv_chunk);
        let outgoing = buf.slice(ss..se).into_owned();
        let incoming = comm.sendrecv(
            right,
            tag + step as u64,
            &outgoing,
            left,
            tag + step as u64,
            re - rs,
        );
        buf.with_mut(rs..re, |acc| op(acc, &incoming));
    }

    // Allgather phase: circulate the reduced chunks.
    for step in 0..p - 1 {
        let send_chunk = (rank + 1 + p - step) % p;
        let recv_chunk = (rank + p - step) % p;
        let (ss, se) = chunk_bounds(send_chunk);
        let (rs, re) = chunk_bounds(recv_chunk);
        let tag = tag + 1000 + step as u64;
        comm.send(right, tag, &buf.slice(ss..se));
        buf.with_mut(rs..re, |out| comm.recv_into(left, tag, out));
    }
}

/// Ring reduce_scatter for a commutative `op`: `p - 1` steps in which every
/// rank forwards a partially reduced block to its right neighbour, folding
/// its own contribution in as the block passes through.  Bandwidth-optimal:
/// each rank moves `(p - 1) / p` of the vector once.
///
/// `sendbuf` holds one block per rank (`world * recvbuf.len()` bytes);
/// `recvbuf` receives this rank's fully reduced block.
pub fn reduce_scatter_ring<C: Comm>(
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
    let mut buf = sendbuf.to_owned();
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;
    // Block indices are chosen so that after p-1 steps rank r has folded
    // every contribution into block r.
    for step in 0..p - 1 {
        let send_block = (rank + p - step - 1) % p;
        let recv_block = (rank + p - step - 2) % p;
        let outgoing = buf
            .slice(send_block * block..(send_block + 1) * block)
            .into_owned();
        let incoming = comm.sendrecv(
            right,
            tag + step as u64,
            &outgoing,
            left,
            tag + step as u64,
            block,
        );
        buf.with_mut(recv_block * block..(recv_block + 1) * block, |acc| {
            op(acc, &incoming)
        });
    }
    recvbuf.copy_from(0, &buf.slice(rank * block..(rank + 1) * block));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{Buf, SymBuf};
    use crate::comm::ThreadComm;
    use crate::oracle;
    use crate::plan::record_trace;
    use pip_runtime::{Cluster, Topology};

    fn run_allgather_ring(nodes: usize, ppn: usize, block: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), block);
            let mut recvbuf = vec![0u8; world * block];
            allgather_ring(&comm, &sendbuf, &mut recvbuf, 1500);
            recvbuf
        })
        .unwrap();
        for buf in &results {
            assert_eq!(buf, &expected);
        }
    }

    fn run_allreduce_ring(nodes: usize, ppn: usize, len: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle::allreduce(&contributions, oracle::wrapping_add_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = oracle::rank_payload(comm.rank(), len);
            allreduce_ring(&comm, &mut buf, 1, &oracle::wrapping_add_u8, 1700);
            buf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected, "ring allreduce mismatch at rank {rank}");
        }
    }

    #[test]
    fn allgather_ring_power_of_two() {
        run_allgather_ring(2, 2, 8);
    }

    #[test]
    fn allgather_ring_non_power_of_two() {
        run_allgather_ring(3, 2, 16);
    }

    #[test]
    fn allgather_ring_single_rank() {
        run_allgather_ring(1, 1, 8);
    }

    #[test]
    fn allreduce_ring_even_split() {
        run_allreduce_ring(2, 2, 64);
    }

    #[test]
    fn allreduce_ring_uneven_split() {
        // 6 ranks, 32 bytes: chunks of 6,6,5,5,5,5.
        run_allreduce_ring(3, 2, 32);
    }

    #[test]
    fn allreduce_ring_len_smaller_than_world() {
        run_allreduce_ring(5, 1, 3);
    }

    #[test]
    fn allreduce_ring_single_rank() {
        run_allreduce_ring(1, 1, 16);
    }

    #[test]
    fn allreduce_ring_two_ranks() {
        run_allreduce_ring(1, 2, 9);
    }

    #[test]
    fn allreduce_ring_typed_i32_min_matches_the_typed_oracle() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(3, 2);
        let world = topo.world_size();
        let contributions: Vec<Vec<i32>> = (0..world)
            .map(|r| (0..7).map(|i| (r as i32 - 3) * 17 - i).collect())
            .collect();
        let expected = oracle::allreduce_t(&contributions, ReduceOp::Min);
        let inputs = &contributions;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = to_bytes(&inputs[comm.rank()]);
            let kernel = ReduceKernel::of::<i32>(ReduceOp::Min);
            allreduce_ring(&comm, &mut buf, 4, kernel.as_fn(), 1750);
            from_bytes::<i32>(&buf)
        })
        .unwrap();
        for (rank, out) in results.iter().enumerate() {
            assert_eq!(
                out, &expected,
                "typed ring allreduce mismatch at rank {rank}"
            );
        }
    }

    #[test]
    fn ring_allgather_trace_has_p_minus_1_rounds() {
        let world = 6;
        let topo = Topology::new(world, 1);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(8);
            let mut recvbuf = SymBuf::zeroed(world * 8);
            allgather_ring(comm, &sendbuf, &mut recvbuf, 1);
        });
        trace.validate().unwrap();
        assert_eq!(trace.ranks[0].send_count(), world - 1);
    }

    #[test]
    fn ring_allreduce_trace_volume_is_2n_per_rank() {
        let world = 4;
        let len = 64;
        let topo = Topology::new(world, 1);
        let trace = record_trace(topo, |comm| {
            let mut buf = SymBuf::zeroed(len);
            allreduce_ring(comm, &mut buf, 1, &comm.reducer(), 1);
        });
        trace.validate().unwrap();
        // Each rank sends 2 * (p-1) chunks of n/p bytes.
        let sent = trace.ranks[0].bytes_sent();
        assert_eq!(sent, 2 * (len / world) * (world - 1));
        assert!(sent <= 2 * len);
    }
}
