//! Bruck algorithms: the classical small-message allgather for arbitrary
//! (especially non-power-of-two) process counts, and the Bruck alltoall.
//!
//! The Bruck allgather runs in `ceil(log2 p)` rounds; in round `i` every rank
//! sends everything it has gathered so far (up to `2^i` blocks) to
//! `rank - 2^i` and receives as much from `rank + 2^i`.  The buffer is kept
//! in *rotated* order (own block first) and shifted back at the end.

use crate::buf::Buf;
use crate::comm::Comm;

/// Bruck allgather: every rank contributes `sendbuf`; `recvbuf` receives all
/// contributions in rank order (identical on every rank).
pub fn allgather_bruck<C: Comm>(comm: &C, sendbuf: &C::Buf, recvbuf: &mut C::Buf, tag: u64) {
    let p = comm.world_size();
    let rank = comm.rank();
    let block = sendbuf.len();
    assert_eq!(recvbuf.len(), p * block, "recvbuf must hold world blocks");
    if p == 1 {
        recvbuf.copy_from(0, sendbuf);
        return;
    }

    // Rotated working buffer: position i holds the block of rank (rank + i) % p.
    let mut tmp = C::Buf::zeroed(p * block);
    tmp.copy_from(0, sendbuf);

    let mut have = 1usize; // blocks gathered so far
    let mut step = 1usize;
    let mut round = 0u64;
    while step < p {
        let count = step.min(p - have);
        let dst = (rank + p - step) % p;
        let src = (rank + step) % p;
        // The same op order as `sendrecv`, landing the blocks in place.
        comm.send(dst, tag + round, &tmp.slice(0..count * block));
        tmp.with_mut(have * block..(have + count) * block, |out| {
            comm.recv_into(src, tag + round, out)
        });
        have += count;
        step <<= 1;
        round += 1;
    }
    debug_assert_eq!(have, p);

    // Shift back into absolute rank order: rotated positions 0..p - rank
    // hold ranks rank..p, the rest ranks 0..rank — two contiguous copies.
    let split = (p - rank) * block;
    recvbuf.copy_from(rank * block, &tmp.slice(0..split));
    recvbuf.copy_from(0, &tmp.slice(split..p * block));
    comm.charge_copy(p * block);
}

/// Bruck alltoall: rank `i`'s input block `j` ends up as rank `j`'s output
/// block `i`.  Runs in `ceil(log2 p)` rounds exchanging roughly half the
/// buffer each round — the small-message alltoall of MPICH.
pub fn alltoall_bruck<C: Comm>(comm: &C, sendbuf: &C::Buf, recvbuf: &mut C::Buf, tag: u64) {
    let p = comm.world_size();
    let rank = comm.rank();
    assert_eq!(sendbuf.len(), recvbuf.len());
    assert_eq!(sendbuf.len() % p, 0, "buffers must hold world blocks");
    let block = sendbuf.len() / p;
    if p == 1 {
        recvbuf.copy_from(0, sendbuf);
        return;
    }

    // Phase 1: local rotation so that the block destined for rank
    // (rank + i) % p sits at position i.
    let mut tmp = C::Buf::zeroed(p * block);
    for i in 0..p {
        let src_block = (rank + i) % p;
        tmp.copy_from(
            i * block,
            &sendbuf.slice(src_block * block..(src_block + 1) * block),
        );
    }
    comm.charge_copy(p * block);

    // Phase 2: log rounds; in round k every block whose position has bit k
    // set is sent to rank + 2^k and replaced by the blocks received from
    // rank - 2^k.
    let mut round = 0u64;
    let mut pof2 = 1usize;
    while pof2 < p {
        let dst = (rank + pof2) % p;
        let src = (rank + p - pof2) % p;
        let positions: Vec<usize> = (0..p).filter(|i| i & pof2 != 0).collect();
        let mut outgoing = C::Buf::zeroed(positions.len() * block);
        for (slot, &i) in positions.iter().enumerate() {
            outgoing.copy_from(slot * block, &tmp.slice(i * block..(i + 1) * block));
        }
        comm.charge_copy(outgoing.len());
        let incoming = comm.sendrecv(
            dst,
            tag + round,
            &outgoing,
            src,
            tag + round,
            outgoing.len(),
        );
        for (slot, &i) in positions.iter().enumerate() {
            tmp.copy_from(i * block, &incoming.slice(slot * block..(slot + 1) * block));
        }
        comm.charge_copy(incoming.len());
        pof2 <<= 1;
        round += 1;
    }

    // Phase 3: inverse rotation and reversal.  After phase 2, position i
    // holds the block sent by rank (rank - i) mod p destined for us.
    for i in 0..p {
        let sender = (rank + p - i) % p;
        recvbuf.copy_from(sender * block, &tmp.slice(i * block..(i + 1) * block));
    }
    comm.charge_copy(p * block);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::{Buf, SymBuf};
    use crate::comm::ThreadComm;
    use crate::oracle;
    use crate::plan::record_trace;
    use pip_runtime::{Cluster, Topology};

    fn run_allgather(nodes: usize, ppn: usize, block: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), block);
            let mut recvbuf = vec![0u8; world * block];
            allgather_bruck(&comm, &sendbuf, &mut recvbuf, 500);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected, "allgather mismatch at rank {rank}");
        }
    }

    fn run_alltoall(nodes: usize, ppn: usize, block: usize) {
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
            alltoall_bruck(&comm, &sendbuf, &mut recvbuf, 700);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected[rank], "alltoall mismatch at rank {rank}");
        }
    }

    #[test]
    fn allgather_power_of_two() {
        run_allgather(4, 2, 16);
    }

    #[test]
    fn allgather_non_power_of_two() {
        run_allgather(3, 2, 8);
    }

    #[test]
    fn allgather_prime_world() {
        run_allgather(7, 1, 8);
    }

    #[test]
    fn allgather_single_rank() {
        run_allgather(1, 1, 32);
    }

    #[test]
    fn allgather_two_ranks() {
        run_allgather(1, 2, 4);
    }

    #[test]
    fn allgather_wide_node() {
        run_allgather(2, 9, 4);
    }

    #[test]
    fn alltoall_power_of_two() {
        run_alltoall(4, 1, 4);
    }

    #[test]
    fn alltoall_non_power_of_two() {
        run_alltoall(3, 2, 2);
    }

    #[test]
    fn alltoall_prime_world() {
        run_alltoall(5, 1, 3);
    }

    #[test]
    fn alltoall_single_rank() {
        run_alltoall(1, 1, 6);
    }

    #[test]
    fn allgather_trace_rounds_are_logarithmic() {
        let world = 12;
        let topo = Topology::new(world, 1);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(16);
            let mut recvbuf = SymBuf::zeroed(world * 16);
            allgather_bruck(comm, &sendbuf, &mut recvbuf, 1);
        });
        trace.validate().unwrap();
        // ceil(log2(12)) = 4 rounds, one send per rank per round.
        assert_eq!(trace.ranks[0].send_count(), 4);
        // Every rank ends up sending p-1 blocks in total.
        assert_eq!(trace.ranks[0].bytes_sent(), (world - 1) * 16);
    }

    #[test]
    fn allgather_trace_at_paper_scale_validates() {
        let topo = Topology::new(128, 18);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(64);
            let mut recvbuf = SymBuf::zeroed(comm.world_size() * 64);
            allgather_bruck(comm, &sendbuf, &mut recvbuf, 1);
        });
        trace.validate().unwrap();
        // ceil(log2(2304)) = 12 rounds.
        assert_eq!(trace.ranks[0].send_count(), 12);
    }
}
