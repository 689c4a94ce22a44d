//! The paper's multi-object Bruck allgather (HPDC '23, §2, steps ①–⑥).
//!
//! 1. ① Intra-node gather: every process stores its `C_b`-byte block into
//!    the node leader's destination buffer `A_d` through the PiP shared
//!    address space.
//! 2. ②–④ Multi-object Bruck exchange over nodes with base `B_k = P + 1`:
//!    in each phase, local rank `R_l` pairs with the nodes at offset
//!    `(R_l + 1) · S_p`, sends the first `S_p` node-blocks of `A_d` straight
//!    out of the leader's buffer and receives `S_p` node-blocks straight into
//!    it at offset `(R_l + 1) · S_p` — so a node keeps `P` messages in
//!    flight per phase and needs only `log_{P+1} N` phases instead of
//!    `log_2 N`.
//! 3. ⑤ A remainder phase covers the node-blocks left over when `N` is not a
//!    power of `P + 1`.
//! 4. ⑥ Every process copies the gathered buffer out in absolute rank order
//!    (the "shift" plus intra-node broadcast of the paper, fused into two
//!    contiguous PiP reads per process).

use crate::buf::Buf;
use crate::comm::Comm;
use crate::multi_object::schedule::bruck_phases;

/// Multi-object allgather: every rank contributes `sendbuf` (`C_b` bytes);
/// `recvbuf` (world × `C_b` bytes) receives all contributions in rank order.
pub fn allgather_multi_object<C: Comm>(comm: &C, sendbuf: &C::Buf, recvbuf: &mut C::Buf, tag: u64) {
    let block = sendbuf.len();
    let p = comm.world_size();
    assert_eq!(recvbuf.len(), p * block, "recvbuf must hold world blocks");
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let node_block = ppn * block;
    let name = format!("mo_ag_{tag}");

    // Step ①: intra-node gather into the leader's buffer A_d, kept in
    // rotated node order (own node-block first).
    if comm.is_node_root() {
        comm.shared_alloc(&name, nodes * node_block);
    }
    comm.node_barrier();
    comm.shared_write(0, &name, local * block, sendbuf);
    comm.node_barrier();

    // Steps ②–⑤: multi-object Bruck exchange over nodes.
    let topo = comm.topology();
    for (phase, t) in bruck_phases(nodes, ppn, node, local)
        .into_iter()
        .enumerate()
    {
        if t.count > 0 {
            let dst = topo.rank_of(t.dst_node, local);
            let src = topo.rank_of(t.src_node, local);
            let bytes = t.count * node_block;
            let phase_tag = tag + phase as u64;
            comm.send_from_shared(0, &name, 0, bytes, dst, phase_tag);
            comm.recv_into_shared(0, &name, t.recv_offset * node_block, src, phase_tag, bytes);
        }
        // All local ranks synchronize between phases so that the next
        // phase's sends see the blocks this phase deposited.
        comm.node_barrier();
    }

    // Step ⑥: copy out in absolute rank order (two contiguous reads undo the
    // rotation).
    let split = (nodes - node) * node_block;
    recvbuf.with_mut(node * node_block..p * block, |tail| {
        comm.shared_read_into(0, &name, 0, tail)
    });
    if node > 0 {
        recvbuf.with_mut(0..node * node_block, |head| {
            comm.shared_read_into(0, &name, split, head)
        });
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
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let sendbuf = oracle::rank_payload(comm.rank(), block);
            let mut recvbuf = vec![0u8; world * block];
            allgather_multi_object(&comm, &sendbuf, &mut recvbuf, 3100);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(
                buf, &expected,
                "multi-object allgather mismatch at rank {rank}"
            );
        }
    }

    #[test]
    fn two_nodes_three_ppn() {
        run(2, 3, 16);
    }

    #[test]
    fn nodes_not_power_of_base() {
        run(5, 2, 8);
    }

    #[test]
    fn exact_power_of_base() {
        // base = ppn + 1 = 3; nodes = 9 = 3^2: two full phases, no remainder.
        run(9, 2, 4);
    }

    #[test]
    fn single_node() {
        run(1, 4, 8);
    }

    #[test]
    fn single_rank_per_node() {
        // Degenerates to classic radix-2 Bruck over nodes.
        run(6, 1, 8);
    }

    #[test]
    fn many_nodes_wide_ppn() {
        run(7, 5, 4);
    }

    #[test]
    fn more_ppn_than_nodes() {
        run(3, 6, 4);
    }

    #[test]
    fn single_byte_blocks() {
        run(4, 3, 1);
    }

    #[test]
    fn trace_every_local_rank_sends_in_parallel() {
        let topo = Topology::new(12, 4);
        let block = 64;
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(block);
            let mut recvbuf = SymBuf::zeroed(comm.world_size() * block);
            allgather_multi_object(comm, &sendbuf, &mut recvbuf, 1);
        });
        trace.validate().unwrap();
        // With nodes=12, ppn=4 (base 5): one full phase (5 <= 12), then a
        // remainder phase.  In the full phase all 4 local ranks send; in the
        // remainder phase ranks with offset < 12 send.
        let node0_senders = (0..4).filter(|&r| trace.ranks[r].send_count() > 0).count();
        assert_eq!(node0_senders, 4, "all local ranks must drive the network");
        // The single-leader design would concentrate all sends on rank 0.
        assert!(trace.ranks[0].send_count() <= 2);
    }

    #[test]
    fn trace_paper_scale_has_two_phases() {
        let topo = Topology::new(128, 18);
        let block = 64;
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(block);
            let mut recvbuf = SymBuf::zeroed(comm.world_size() * block);
            allgather_multi_object(comm, &sendbuf, &mut recvbuf, 1);
        });
        trace.validate().unwrap();
        // base 19: full phase at span 1..19, remainder covers 19..128.
        // Every local rank sends at most twice (once per phase).
        for rank in 0..18 {
            assert!(trace.ranks[rank].send_count() <= 2);
        }
        // Compare against the classic Bruck (12 rounds for 2304 ranks): the
        // multi-object critical path per process is far shorter.
        assert!(trace.ranks[0].send_count() < 12);
    }
}
