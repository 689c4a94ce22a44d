//! Integration test: each functional copy engine performs exactly the copy
//! count its mechanism's cost model charges.
//!
//! * PiP, CMA and XPMEM — one copy of the payload, at any size.  CMA's
//!   per-transfer system call (Chakraborty et al., CLUSTER '17) and XPMEM's
//!   attach and first-touch page faults (Hashmi et al., IPDPS '18) are
//!   charged by `IntranodeCost`, whose own tests pin them;
//! * POSIX shared memory — double copy through a bounded staging segment
//!   (Parsons & Pai, IPDPS '14).
//!
//! The rest of the file checks the thread runtime's fabric: a message is at
//! most one transport-level copy.

use pip_mcoll::collectives::{Comm as _, ThreadComm};
use pip_mcoll::runtime::{Cluster, Fabric, Topology};
use pip_mcoll::transport::pip::SingleCopyEngine;
use pip_mcoll::transport::posix_shmem::{PosixShmemEngine, DEFAULT_SEGMENT_BYTES};
use pip_mcoll::transport::{engine_for, CopyEngine, IntranodeCost, IntranodeMechanism};

/// A message that fits one SHMEM segment but spans multiple pages.
const PAYLOAD: usize = 10_000;

/// A message larger than 8 MiB: a single-copy engine must still move it in
/// one pass, as its cost model charges.
const GIANT: usize = (8 << 20) + 1;

fn payload_of(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

fn payload() -> Vec<u8> {
    payload_of(PAYLOAD)
}

#[test]
fn pip_is_one_copy_zero_syscalls() {
    let mut engine = SingleCopyEngine::new(IntranodeMechanism::Pip);
    let src = payload();
    let mut dst = vec![0u8; PAYLOAD];
    let stats = engine.copy(&src, &mut dst);
    assert_eq!(dst, src);
    assert_eq!(stats.copies, 1);
    assert_eq!(stats.bytes_moved, PAYLOAD);
    let cost = IntranodeCost::defaults_for(IntranodeMechanism::Pip);
    assert_eq!(cost.syscalls_per_transfer, 0, "PiP never enters the kernel");
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
    for len in [PAYLOAD, GIANT] {
        let src = payload_of(len);
        for mechanism in IntranodeMechanism::ALL {
            let copies = mechanism.copies_per_transfer();
            if len == GIANT && copies != 1 {
                // POSIX-SHMEM counts one pass per segment chunk;
                // `posix_shmem_pipelines_messages_larger_than_the_segment`
                // pins that.
                continue;
            }
            let mut engine = engine_for(mechanism);
            assert_eq!(engine.mechanism(), mechanism);

            let mut dst = vec![0u8; len];
            let stats = engine.copy(&src, &mut dst);
            assert!(dst == src, "{mechanism:?} corrupted a {len} B payload");
            assert_eq!(stats.copies, copies, "{mechanism:?} copy count at {len} B");
            assert_eq!(
                stats.bytes_moved,
                len * copies,
                "{mechanism:?} bytes moved at {len} B"
            );

            // The cost model the simulator charges must agree with what the
            // functional engine just did.
            assert_eq!(
                IntranodeCost::defaults_for(mechanism).copies,
                stats.copies,
                "{mechanism:?} cost-model copies at {len} B"
            );
        }
    }
}
