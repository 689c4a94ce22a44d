//! Recording allocates per region name, not per op, and not per payload
//! byte.
//!
//! A thread-local counting allocator measures one schedule-fidelity
//! recording of `R` and of `4R` shared-region ops that all name the same
//! region.  The recorder interns a name once per recording and grows its op
//! and value tables by doubling, so the extra `3R` ops may cost only a few
//! reallocations; a recorder that copied the name into every op would pay
//! at least one allocation per op.  It also measures the bytes an
//! exec-fidelity compile allocates at two block sizes: the recorder tracks
//! where bytes come from, never the bytes, so the cost does not grow with
//! the block.  The counters are per thread, so the test harness's other
//! threads cannot disturb them.
//!
//! This file is its own test binary because the counting allocator is
//! global to the binary it is linked into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pip_collectives::comm::Comm;
use pip_collectives::multi_object::allgather_multi_object;
use pip_collectives::plan::{compile, Fidelity, IoShape, PlanComm};
use pip_collectives::{Buf, SymBuf};
use pip_runtime::Topology;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations and the
/// bytes they ask for (a `realloc` counts as one, of its new size).
struct Counting;

fn count_one(bytes: usize) {
    // `try_with`: the thread-locals may already be gone while a thread
    // exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// counting touches only a `const`-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while recording one
/// `shared_alloc` and then `ops` shared reads and sends out of the same
/// region, alternately.
fn recording_allocations(ops: usize) -> usize {
    let mut out = SymBuf::zeroed(8);
    let before = ALLOCATIONS.with(Cell::get);
    let comm = PlanComm::new(0, Topology::new(2, 2), Fidelity::Schedule);
    comm.shared_alloc("region", 64);
    for op in 0..ops {
        if op % 2 == 0 {
            comm.shared_read_into(1, "region", 8, &mut out);
        } else {
            comm.send_from_shared(1, "region", 16, 8, 2, op as u64);
        }
    }
    drop(comm.finish(IoShape::default(), None));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn recording_allocations_do_not_grow_with_the_op_count() {
    const R: usize = 256;
    let few = recording_allocations(R);
    let many = recording_allocations(4 * R);
    assert!(
        many < few + R / 8,
        "{R} ops allocate {few} times, {} ops {many}: the extra ops cost {}",
        4 * R,
        many - few
    );
}

/// Bytes the calling thread allocates while compiling rank 0's exec plan of
/// a PiP-MColl allgather of `block` bytes per rank on 4×4.
fn allgather_compile_bytes(block: usize) -> usize {
    let topology = Topology::new(4, 4);
    let io = IoShape {
        sendbuf: Some(block),
        recvbuf: Some(topology.world_size() * block),
        ..IoShape::default()
    };
    let before = BYTES.with(Cell::get);
    let plan = compile(0, topology, Fidelity::Exec, io, |comm, send, recv| {
        allgather_multi_object(comm, send.unwrap(), recv.unwrap(), 0)
    });
    drop(plan);
    BYTES.with(Cell::get) - before
}

#[test]
fn exec_compile_bytes_do_not_grow_with_the_block() {
    let small = allgather_compile_bytes(64);
    let large = allgather_compile_bytes(1 << 20);
    assert!(
        large <= 2 * small,
        "compiling the 64 B allgather allocates {small} B, the 1 MiB one {large} B"
    );
}
