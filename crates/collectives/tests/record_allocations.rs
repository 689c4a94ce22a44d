//! Recording allocates per region name, not per op.
//!
//! A thread-local counting allocator measures one schedule-fidelity
//! recording of `R` and of `4R` shared-region ops that all name the same
//! region.  The recorder interns a name once per pass and grows its op and
//! value tables by doubling, so the extra `3R` ops may cost only a few
//! reallocations; a recorder that copied the name into every op would pay
//! at least one allocation per op.  The counter is per thread, so the test
//! harness's other threads cannot disturb it.
//!
//! This file is its own test binary because the counting allocator is
//! global to the binary it is linked into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pip_collectives::comm::Comm;
use pip_collectives::plan::{Fidelity, PlanComm};
use pip_runtime::Topology;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations (a
/// `realloc` counts as one).
struct Counting;

fn count_one() {
    // `try_with`: the thread-local may already be gone while a thread
    // exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// counting touches only a `const`-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
    let mut out = [0u8; 8];
    let before = ALLOCATIONS.with(Cell::get);
    let comm = PlanComm::new(0, Topology::new(2, 2), 0, Fidelity::Schedule);
    comm.shared_alloc("region", 64);
    for op in 0..ops {
        if op % 2 == 0 {
            comm.shared_read_into(1, "region", 8, &mut out);
        } else {
            comm.send_from_shared(1, "region", 16, 8, 2, op as u64);
        }
    }
    drop(comm.finish(None));
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
