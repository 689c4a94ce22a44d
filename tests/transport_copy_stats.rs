//! Integration test: each functional copy engine performs exactly the copy
//! count and system-call count the paper attributes to its mechanism.
//!
//! * PiP — one plain copy, no kernel involvement (HPDC '18 / HPDC '23 §2);
//! * POSIX shared memory — double copy through a bounded staging segment
//!   (Parsons & Pai, IPDPS '14);
//! * CMA — single copy, but one `process_vm_readv`-style system call per
//!   transfer (Chakraborty et al., CLUSTER '17);
//! * XPMEM — single copy; attach syscalls and first-touch page faults are
//!   paid once per buffer and amortized by the registration cache
//!   (Hashmi et al., IPDPS '18).

use pip_mcoll::collectives::{Comm as _, ThreadComm};
use pip_mcoll::runtime::{Cluster, Fabric, Topology};
use pip_mcoll::transport::cma::{CmaEngine, MAX_BYTES_PER_SYSCALL};
use pip_mcoll::transport::pip::PipCopyEngine;
use pip_mcoll::transport::posix_shmem::{PosixShmemEngine, DEFAULT_SEGMENT_BYTES};
use pip_mcoll::transport::xpmem::XpmemEngine;
use pip_mcoll::transport::{engine_for, CopyEngine, IntranodeMechanism};

/// A message that fits one SHMEM segment and one CMA syscall but spans
/// multiple pages, so every accounting dimension is exercised at once.
const PAYLOAD: usize = 10_000;

fn payload() -> Vec<u8> {
    (0..PAYLOAD).map(|i| (i % 251) as u8).collect()
}

const PAGE_SIZE: usize = 4096;

#[test]
fn pip_is_one_copy_zero_syscalls() {
    let mut engine = PipCopyEngine::new();
    let src = payload();
    let mut dst = vec![0u8; PAYLOAD];
    let stats = engine.copy(&src, &mut dst);
    assert_eq!(dst, src);
    assert_eq!(stats.copies, 1);
    assert_eq!(stats.syscalls, 0);
    assert_eq!(stats.page_faults, 0);
    assert_eq!(stats.staged_bytes, 0);
    assert_eq!(stats.bytes_moved, PAYLOAD);
}

#[test]
fn posix_shmem_is_a_double_copy_through_the_segment() {
    let mut engine = PosixShmemEngine::default();
    let src = payload();
    let mut dst = vec![0u8; PAYLOAD];
    let stats = engine.copy(&src, &mut dst);
    assert_eq!(dst, src);
    // One segment-sized chunk suffices, so exactly copy-in + copy-out.
    const { assert!(PAYLOAD <= DEFAULT_SEGMENT_BYTES) };
    assert_eq!(stats.copies, 2);
    assert_eq!(stats.bytes_moved, 2 * PAYLOAD);
    assert_eq!(stats.staged_bytes, PAYLOAD);
    assert_eq!(stats.syscalls, 0);
    assert_eq!(stats.page_faults, 0);
}

#[test]
fn posix_shmem_pipelines_messages_larger_than_the_segment() {
    let segment = 1024;
    let mut engine = PosixShmemEngine::with_segment_size(segment);
    let len = 3 * segment + 100; // 4 chunks
    let src = vec![7u8; len];
    let mut dst = vec![0u8; len];
    let stats = engine.copy(&src, &mut dst);
    assert_eq!(dst, src);
    assert_eq!(stats.copies, 2 * 4, "copy-in + copy-out per chunk");
    assert_eq!(stats.bytes_moved, 2 * len);
    assert_eq!(stats.staged_bytes, len);
}

#[test]
fn cma_is_one_copy_one_syscall_per_transfer() {
    let mut engine = CmaEngine::new();
    let src = payload();
    let mut dst = vec![0u8; PAYLOAD];
    let stats = engine.copy(&src, &mut dst);
    assert_eq!(dst, src);
    assert_eq!(stats.copies, 1);
    assert_eq!(stats.syscalls, 1);
    assert_eq!(stats.bytes_moved, PAYLOAD);
    assert_eq!(stats.staged_bytes, 0);
    assert_eq!(stats.page_faults, 0);

    // Each further transfer pays its own kernel crossing: the per-message
    // overhead the paper's introduction attributes to kernel-assisted copies.
    for _ in 0..9 {
        engine.copy(&src, &mut dst);
    }
    assert_eq!(engine.totals().syscalls, 10);
    assert_eq!(engine.totals().copies, 10);
}

#[test]
fn cma_splits_giant_transfers_across_syscalls() {
    let len = MAX_BYTES_PER_SYSCALL + 1;
    let src = vec![9u8; len];
    let mut dst = vec![0u8; len];
    let mut engine = CmaEngine::new();
    let stats = engine.copy(&src, &mut dst);
    assert_eq!(dst, src);
    assert_eq!(stats.syscalls, 2);
    assert_eq!(stats.copies, 2);
    assert_eq!(stats.bytes_moved, len);
}

#[test]
fn xpmem_pays_attach_once_and_faults_once_per_page() {
    let mut engine = XpmemEngine::new();
    let src = payload();
    let mut dst = vec![0u8; PAYLOAD];
    let pages = PAYLOAD.div_ceil(PAGE_SIZE);

    let cold = engine.copy_segment(42, &src, &mut dst);
    assert_eq!(dst, src);
    assert_eq!(cold.copies, 1);
    assert_eq!(cold.syscalls, 2, "xpmem_get + xpmem_attach on first use");
    assert_eq!(cold.page_faults, pages);
    assert_eq!(cold.bytes_moved, PAYLOAD);

    // Steady state — what OSU-style benchmark loops observe: the
    // registration cache absorbs both the attach and the page faults.
    let warm = engine.copy_segment(42, &src, &mut dst);
    assert_eq!(warm.copies, 1);
    assert_eq!(warm.syscalls, 0);
    assert_eq!(warm.page_faults, 0);

    // A different buffer starts cold again.
    let other = engine.copy_segment(43, &src, &mut dst);
    assert_eq!(other.syscalls, 2);
    assert_eq!(other.page_faults, pages);
}

// ---------------------------------------------------------------------------
// Fabric payload accounting: a message through the thread runtime is at most
// ONE transport-level copy.
// ---------------------------------------------------------------------------

/// `ThreadComm::send` borrows the caller's bytes, so exactly one copy (into
/// the fabric payload) is allowed; the allocation must then travel to the
/// receiver untouched.
#[test]
fn thread_comm_send_is_exactly_one_copy() {
    let topo = Topology::new(1, 2);
    let fabric = Fabric::new(topo.world_size());
    let sends = 16usize;
    Cluster::launch_with_fabric(topo, fabric.clone(), |ctx| {
        let comm = ThreadComm::new(ctx);
        if comm.rank() == 0 {
            for round in 0..sends as u64 {
                comm.send(1, round, &[7u8; PAYLOAD]);
            }
        } else {
            for round in 0..sends as u64 {
                assert_eq!(comm.recv(0, round, PAYLOAD), vec![7u8; PAYLOAD]);
            }
        }
    })
    .unwrap();
    let stats = fabric.stats();
    assert_eq!(stats.sends, sends);
    assert_eq!(stats.payload_copies, sends, "one copy per borrowed send");
    assert_eq!(stats.bytes_copied, sends * PAYLOAD);
}

/// `Comm::send_owned` hands an owned buffer to the fabric: zero
/// transport-level copies end to end.
#[test]
fn owned_sends_cross_the_fabric_with_zero_copies() {
    let topo = Topology::new(1, 2);
    let fabric = Fabric::new(topo.world_size());
    let sends = 16usize;
    Cluster::launch_with_fabric(topo, fabric.clone(), |ctx| {
        let comm = ThreadComm::new(ctx);
        if comm.rank() == 0 {
            for round in 0..sends as u64 {
                comm.send_owned(1, round, vec![9u8; PAYLOAD]);
            }
        } else {
            for round in 0..sends as u64 {
                assert_eq!(comm.recv(0, round, PAYLOAD), vec![9u8; PAYLOAD]);
            }
        }
    })
    .unwrap();
    let stats = fabric.stats();
    assert_eq!(stats.sends, sends);
    assert_eq!(
        stats.payload_copies, 0,
        "owned payloads must move, not copy"
    );
    assert_eq!(stats.bytes_copied, 0);
}

/// Relaying a received message by moving its vector on (`TaskCtx::send`)
/// costs zero additional accounted copies, and the final receiver holds the
/// original sender's allocation: peers in one address space hand each other
/// the pointer, not the bytes.  This pins the fix for the old
/// borrow-and-recopy relay path (`send_bytes` on a payload the rank already
/// owned).
#[test]
fn forwarded_payloads_cost_zero_extra_copies() {
    let topo = Topology::new(1, 3);
    let fabric = Fabric::new(topo.world_size());
    let addresses = Cluster::launch_with_fabric(topo, fabric.clone(), |ctx| match ctx.rank() {
        0 => {
            // The only allocation in the whole relay: the original owned send.
            let payload = vec![7u8; PAYLOAD];
            let address = payload.as_ptr() as usize;
            ctx.send(1, 1, payload).unwrap();
            address
        }
        1 => {
            let msg = ctx.recv(0, 1).unwrap();
            let address = msg.payload.as_ptr() as usize;
            ctx.send(2, 2, msg.payload).unwrap();
            address
        }
        _ => {
            let msg = ctx.recv(1, 2).unwrap();
            assert_eq!(msg.payload, [7u8; PAYLOAD]);
            msg.payload.as_ptr() as usize
        }
    })
    .unwrap();
    assert_eq!(
        addresses,
        vec![addresses[0]; 3],
        "the relayed message must be the sender's allocation"
    );
    let stats = fabric.stats();
    assert_eq!(stats.sends, 2);
    assert_eq!(
        stats.payload_copies, 0,
        "relayed payloads must move, not copy"
    );
    assert_eq!(stats.bytes_copied, 0);
}

/// The zero-copy shared-buffer path (`send_from_shared`) reads the shared
/// region once and moves that allocation into the fabric — no second copy.
#[test]
fn send_from_shared_adds_no_fabric_copy() {
    let topo = Topology::new(2, 1);
    let fabric = Fabric::new(topo.world_size());
    Cluster::launch_with_fabric(topo, fabric.clone(), |ctx| {
        let comm = ThreadComm::new(ctx);
        if comm.rank() == 0 {
            comm.shared_alloc("src", PAYLOAD);
            comm.shared_write(0, "src", 0, &vec![3u8; PAYLOAD]);
            comm.send_from_shared(0, "src", 0, PAYLOAD, 1, 5);
        } else {
            assert_eq!(comm.recv(0, 5, PAYLOAD), vec![3u8; PAYLOAD]);
        }
    })
    .unwrap();
    assert_eq!(fabric.stats().payload_copies, 0);
}

#[test]
fn engine_factory_matches_mechanism_attribution() {
    let src = payload();
    for mechanism in IntranodeMechanism::ALL {
        let mut engine = engine_for(mechanism);
        assert_eq!(engine.mechanism(), mechanism);

        let mut dst = vec![0u8; PAYLOAD];
        // Warm the engine once so XPMEM's one-time attach does not obscure
        // the steady-state accounting the paper's tables describe.
        engine.copy(&src, &mut dst);
        let mut dst = vec![0u8; PAYLOAD];
        let stats = engine.copy(&src, &mut dst);
        assert_eq!(dst, src, "{mechanism:?} corrupted the payload");

        assert_eq!(
            stats.copies,
            mechanism.copies_per_transfer(),
            "{mechanism:?} copy count"
        );
        assert_eq!(
            stats.bytes_moved,
            PAYLOAD * mechanism.copies_per_transfer(),
            "{mechanism:?} bytes moved"
        );
        let expected_syscalls = if mechanism.syscall_per_transfer() {
            1
        } else {
            0
        };
        assert_eq!(stats.syscalls, expected_syscalls, "{mechanism:?} syscalls");

        // The cost model the simulator charges must agree with what the
        // functional engine just did.
        let cost = engine.cost_model();
        assert_eq!(cost.copies, stats.copies, "{mechanism:?} cost-model copies");
        assert_eq!(
            cost.syscalls_per_transfer, stats.syscalls,
            "{mechanism:?} cost-model syscalls"
        );
    }
}
