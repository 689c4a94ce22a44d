//! Classic *single-leader* (single-object) two-level collectives.
//!
//! These are the node-aware algorithms MVAPICH2- and Intel-MPI-class
//! libraries use: exactly one process per node (the leader, local rank 0)
//! talks to the network; every other process moves its data to or from the
//! leader through node-local shared memory.  They are the design PiP-MColl's
//! multi-object algorithms improve on: with one leader per node the adapter
//! sees only one injecting process, so small-message collectives are limited
//! by that single process's message rate.
//!
//! Intra-node staging is expressed with the `Comm` shared-memory operations,
//! so the simulator charges it at whatever transport the comparator library
//! uses (POSIX-SHMEM double copy, CMA, XPMEM or PiP).

use crate::buf::Buf;
use crate::comm::{Comm, ReduceFn};
use crate::recursive_doubling::largest_pow2_leq;

fn region(tag: u64, what: &str) -> String {
    format!("hier_{what}_{tag}")
}

/// Single-leader hierarchical allgather.
///
/// 1. Intra-node gather into the leader's staging buffer (stored in
///    *rotated node order*: the own node's block first).
/// 2. Bruck allgather of node blocks among the leaders, sending straight out
///    of / receiving straight into the staging buffer.
/// 3. Every process copies the result out of the leader's staging buffer.
pub fn allgather_hierarchical<C: Comm>(comm: &C, sendbuf: &C::Buf, recvbuf: &mut C::Buf, tag: u64) {
    let p = comm.world_size();
    let block = sendbuf.len();
    assert_eq!(recvbuf.len(), p * block);
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let node_block = ppn * block;
    let name = region(tag, "ag");

    if nodes == 1 {
        // Pure intra-node: gather into the leader's buffer and read back.
        if comm.is_node_root() {
            comm.shared_alloc(&name, node_block);
        }
        comm.node_barrier();
        comm.shared_write(0, &name, local * block, sendbuf);
        comm.node_barrier();
        comm.shared_read_into(0, &name, 0, recvbuf);
        return;
    }

    // Step 1: intra-node gather into the leader's staging buffer.  The
    // buffer is in rotated node order (own node at position 0), so locals
    // write at offset `local * block` inside position 0.
    if comm.is_node_root() {
        comm.shared_alloc(&name, nodes * node_block);
    }
    comm.node_barrier();
    comm.shared_write(0, &name, local * block, sendbuf);
    comm.node_barrier();

    // Step 2: Bruck allgather over the leaders, node-block granularity.
    if comm.is_node_root() {
        let mut have = 1usize;
        let mut step = 1usize;
        let mut round = 0u64;
        while step < nodes {
            let count = step.min(nodes - have);
            let dst_node = (node + nodes - step) % nodes;
            let src_node = (node + step) % nodes;
            let dst = comm.topology().node_root(dst_node);
            let src = comm.topology().node_root(src_node);
            comm.send_from_shared(0, &name, 0, count * node_block, dst, tag + round);
            comm.recv_into_shared(
                0,
                &name,
                have * node_block,
                src,
                tag + round,
                count * node_block,
            );
            have += count;
            step <<= 1;
            round += 1;
        }
        debug_assert_eq!(have, nodes);
    }
    comm.node_barrier();

    // Step 3: every process copies the gathered data out, un-rotating the
    // node order (two contiguous reads).
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

/// Single-leader hierarchical scatter from global rank `root`.
///
/// 1. The root scatters node blocks to each node's representative (the root
///    itself on its own node, the leader elsewhere) over a binomial tree.
/// 2. Each representative stages its node block in shared memory; every
///    local process copies its own block out.
pub fn scatter_hierarchical<C: Comm>(
    comm: &C,
    sendbuf: Option<&C::Buf>,
    recvbuf: &mut C::Buf,
    root: usize,
    tag: u64,
) {
    let block = recvbuf.len();
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let rank = comm.rank();
    let node_block = ppn * block;
    let topo = comm.topology();
    let root_node = topo.node_of(root);
    let name = region(tag, "sc");

    // The per-node representative for the inter-node phase.
    let rep_of = |n: usize| -> usize {
        if n == root_node {
            root
        } else {
            topo.node_root(n)
        }
    };
    let my_rep = rep_of(node);
    let i_am_rep = rank == my_rep;

    // Step 1: binomial scatter of node blocks over representatives, in
    // virtual node order rooted at the root's node.
    let mut staged = C::Buf::zeroed(0);
    if i_am_rep {
        let vnode = (node + nodes - root_node) % nodes;
        let mut tmp = C::Buf::zeroed(nodes * node_block);
        let mut curr_blocks = 0usize;
        if rank == root {
            let sendbuf = sendbuf.expect("root must supply a send buffer");
            assert_eq!(sendbuf.len(), comm.world_size() * block);
            for i in 0..nodes {
                let abs_node = (root_node + i) % nodes;
                tmp.copy_from(
                    i * node_block,
                    &sendbuf.slice(abs_node * node_block..(abs_node + 1) * node_block),
                );
            }
            if root_node != 0 {
                comm.charge_copy(nodes * node_block);
            }
            curr_blocks = nodes;
        }
        let mut mask = 1usize;
        while mask < nodes {
            if vnode & mask != 0 {
                let src_node = ((vnode - mask) + root_node) % nodes;
                let recv_blocks = mask.min(nodes - vnode);
                tmp.with_mut(0..recv_blocks * node_block, |out| {
                    comm.recv_into(rep_of(src_node), tag, out)
                });
                curr_blocks = recv_blocks;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vnode + mask < nodes {
                let dst_node = ((vnode + mask) + root_node) % nodes;
                let send_blocks = curr_blocks - mask;
                comm.send(
                    rep_of(dst_node),
                    tag,
                    &tmp.slice(mask * node_block..(mask + send_blocks) * node_block),
                );
                curr_blocks -= send_blocks;
            }
            mask >>= 1;
        }
        staged = tmp.slice(0..node_block).into_owned();
    }

    // Step 2: the representative stages its node block; locals copy out.
    if i_am_rep {
        comm.shared_alloc(&name, node_block);
        comm.shared_write(topo.local_rank_of(my_rep), &name, 0, &staged);
    }
    comm.node_barrier();
    comm.shared_read_into(topo.local_rank_of(my_rep), &name, local * block, recvbuf);
    comm.node_barrier();
}

/// Single-leader hierarchical broadcast from global rank `root`.
pub fn bcast_hierarchical<C: Comm>(comm: &C, buf: &mut C::Buf, root: usize, tag: u64) {
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let rank = comm.rank();
    let topo = comm.topology();
    let root_node = topo.node_of(root);
    let len = buf.len();
    let name = region(tag, "bc");

    let rep_of = |n: usize| -> usize {
        if n == root_node {
            root
        } else {
            topo.node_root(n)
        }
    };
    let my_rep = rep_of(node);
    let i_am_rep = rank == my_rep;

    // Step 1: binomial broadcast among representatives.
    if i_am_rep && nodes > 1 {
        let vnode = (node + nodes - root_node) % nodes;
        let mut mask = 1usize;
        while mask < nodes {
            if vnode & mask != 0 {
                let src_node = ((vnode - mask) + root_node) % nodes;
                comm.recv_into(rep_of(src_node), tag, buf);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vnode + mask < nodes {
                let dst_node = ((vnode + mask) + root_node) % nodes;
                comm.send(rep_of(dst_node), tag, buf);
            }
            mask >>= 1;
        }
    }

    // Step 2: stage in shared memory and copy out on every non-rep process.
    if i_am_rep {
        comm.shared_alloc(&name, len);
        comm.shared_write(topo.local_rank_of(my_rep), &name, 0, buf);
    }
    comm.node_barrier();
    if !i_am_rep {
        comm.shared_read_into(topo.local_rank_of(my_rep), &name, 0, buf);
    }
    comm.node_barrier();
}

/// Single-leader hierarchical allreduce for a commutative `op`.
///
/// 1. Intra-node: every process deposits its vector in the leader's slot
///    buffer; the leader reduces the node's contributions.
/// 2. Leaders run a recursive-doubling allreduce among themselves.
/// 3. The leader publishes the result; locals copy it out.
pub fn allreduce_hierarchical<C: Comm>(
    comm: &C,
    buf: &mut C::Buf,
    op: &ReduceFn<'_, C::Buf>,
    tag: u64,
) {
    let ppn = comm.ppn();
    let nodes = comm.num_nodes();
    let node = comm.node_id();
    let local = comm.local_rank();
    let len = buf.len();
    let topo = comm.topology();
    let slots = region(tag, "ar_slots");
    let result = region(tag, "ar_result");

    // Step 1: deposit contributions.
    if comm.is_node_root() {
        comm.shared_alloc(&slots, ppn * len);
        comm.shared_alloc(&result, len);
    }
    comm.node_barrier();
    if !comm.is_node_root() {
        comm.shared_write(0, &slots, local * len, buf);
    }
    comm.node_barrier();

    if comm.is_node_root() {
        // Reduce the node's contributions into the leader's private buffer.
        for peer in 1..ppn {
            let contribution = comm.shared_read(0, &slots, peer * len, len);
            op(buf, &contribution);
        }

        // Step 2: recursive-doubling allreduce among leaders.
        if nodes > 1 {
            let pof2 = largest_pow2_leq(nodes);
            let rem = nodes - pof2;
            let leader_of = |n: usize| topo.node_root(n);
            let newnode: isize = if node < 2 * rem {
                if node.is_multiple_of(2) {
                    comm.send(leader_of(node + 1), tag, buf);
                    -1
                } else {
                    let data = comm.recv(leader_of(node - 1), tag, len);
                    op(buf, &data);
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
                    let partner = leader_of(to_node(newnode ^ mask));
                    let received =
                        comm.sendrecv(partner, tag + round, buf, partner, tag + round, len);
                    op(buf, &received);
                    mask <<= 1;
                    round += 1;
                }
            }
            if node < 2 * rem {
                if node.is_multiple_of(2) {
                    comm.recv_into(leader_of(node + 1), tag + 63, buf);
                } else {
                    comm.send(leader_of(node - 1), tag + 63, buf);
                }
            }
        }

        // Step 3: publish.
        comm.shared_write(0, &result, 0, buf);
    }
    comm.node_barrier();
    if !comm.is_node_root() {
        comm.shared_read_into(0, &result, 0, buf);
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
            allgather_hierarchical(&comm, &sendbuf, &mut recvbuf, 2100);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected, "hier allgather mismatch at rank {rank}");
        }
    }

    fn run_scatter(nodes: usize, ppn: usize, block: usize, root: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let sendbuf = oracle::rank_payload(root, world * block);
        let expected = oracle::scatter(&sendbuf, world);
        let sendbuf_ref = &sendbuf;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut recvbuf = vec![0u8; block];
            let send = (comm.rank() == root).then_some(sendbuf_ref.as_slice());
            scatter_hierarchical(&comm, send, &mut recvbuf, root, 2300);
            recvbuf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected[rank], "hier scatter mismatch at rank {rank}");
        }
    }

    fn run_bcast(nodes: usize, ppn: usize, len: usize, root: usize) {
        let topo = Topology::new(nodes, ppn);
        let expected = oracle::rank_payload(root, len);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = if comm.rank() == root {
                oracle::rank_payload(root, len)
            } else {
                vec![0u8; len]
            };
            bcast_hierarchical(&comm, &mut buf, root, 2500);
            buf
        })
        .unwrap();
        for buf in &results {
            assert_eq!(buf, &expected);
        }
    }

    fn run_allreduce(nodes: usize, ppn: usize, len: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, len)).collect();
        let expected = oracle::allreduce(&contributions, oracle::wrapping_add_u8);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut buf = oracle::rank_payload(comm.rank(), len);
            allreduce_hierarchical(&comm, &mut buf, &oracle::wrapping_add_u8, 2700);
            buf
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected, "hier allreduce mismatch at rank {rank}");
        }
    }

    #[test]
    fn allreduce_hierarchical_typed_f64_min_propagates_nan() {
        use crate::datatype::{from_bytes, to_bytes, ReduceKernel, ReduceOp};
        let topo = Topology::new(2, 3);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let input: [f64; 3] = if comm.rank() == 4 {
                [f64::NAN, -0.0, 4.0]
            } else {
                [comm.rank() as f64, 0.0, comm.rank() as f64]
            };
            let mut buf = to_bytes(&input);
            let kernel = ReduceKernel::of::<f64>(ReduceOp::Min);
            allreduce_hierarchical(&comm, &mut buf, kernel.as_fn(), 2750);
            from_bytes::<f64>(&buf)
        })
        .unwrap();
        for (rank, out) in results.iter().enumerate() {
            assert!(out[0].is_nan(), "rank {rank}: NaN must win the min");
            // total_cmp ordering: -0.0 < +0.0, so the -0.0 contribution wins.
            assert!(
                out[1] == 0.0 && out[1].is_sign_negative(),
                "rank {rank}: min must pick -0.0 over +0.0"
            );
            assert_eq!(out[2], 0.0, "rank {rank}: clean lane takes the true min");
        }
    }

    #[test]
    fn allgather_two_nodes() {
        run_allgather(2, 3, 16);
    }

    #[test]
    fn allgather_non_power_of_two_nodes() {
        run_allgather(3, 2, 8);
    }

    #[test]
    fn allgather_single_node() {
        run_allgather(1, 4, 8);
    }

    #[test]
    fn allgather_many_nodes_one_rank_each() {
        run_allgather(6, 1, 4);
    }

    #[test]
    fn allgather_wide_nodes() {
        run_allgather(4, 5, 4);
    }

    #[test]
    fn scatter_root_zero() {
        run_scatter(3, 3, 8, 0);
    }

    #[test]
    fn scatter_root_is_leader_of_middle_node() {
        run_scatter(3, 2, 8, 2);
    }

    #[test]
    fn scatter_root_is_not_a_leader() {
        run_scatter(2, 3, 16, 4);
    }

    #[test]
    fn scatter_single_node() {
        run_scatter(1, 5, 8, 2);
    }

    #[test]
    fn bcast_root_zero() {
        run_bcast(3, 2, 64, 0);
    }

    #[test]
    fn bcast_root_not_a_leader() {
        run_bcast(2, 4, 32, 5);
    }

    #[test]
    fn bcast_single_node() {
        run_bcast(1, 3, 16, 1);
    }

    #[test]
    fn allreduce_two_nodes() {
        run_allreduce(2, 3, 32);
    }

    #[test]
    fn allreduce_odd_nodes() {
        run_allreduce(5, 2, 16);
    }

    #[test]
    fn allreduce_single_node() {
        run_allreduce(1, 4, 24);
    }

    #[test]
    fn allgather_trace_only_leaders_touch_the_network() {
        let topo = Topology::new(4, 3);
        let trace = record_trace(topo, |comm| {
            let sendbuf = SymBuf::zeroed(32);
            let mut recvbuf = SymBuf::zeroed(comm.world_size() * 32);
            allgather_hierarchical(comm, &sendbuf, &mut recvbuf, 1);
        });
        trace.validate().unwrap();
        for (rank, rank_trace) in trace.ranks.iter().enumerate() {
            let is_leader = topo.is_node_root(rank);
            if is_leader {
                assert!(rank_trace.send_count() > 0, "leader {rank} must send");
            } else {
                assert_eq!(
                    rank_trace.send_count(),
                    0,
                    "non-leader {rank} must not send"
                );
            }
        }
    }

    #[test]
    fn scatter_trace_single_sender_per_node_pair() {
        let topo = Topology::new(4, 2);
        let sendbuf = SymBuf::zeroed(topo.world_size() * 16);
        let trace = record_trace(topo, |comm| {
            let mut recvbuf = SymBuf::zeroed(16);
            let send = (comm.rank() == 0).then_some(&*sendbuf);
            scatter_hierarchical(comm, send, &mut recvbuf, 0, 1);
        });
        trace.validate().unwrap();
        // Only representatives (leaders) exchange network messages.
        let senders = trace
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.send_count() > 0)
            .map(|(r, _)| r)
            .collect::<Vec<_>>();
        for rank in senders {
            assert!(topo.is_node_root(rank));
        }
    }
}
