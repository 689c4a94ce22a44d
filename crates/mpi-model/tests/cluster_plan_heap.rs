//! A node-symmetric whole-cluster plan holds heap for node 0's programs,
//! not for every rank.
//!
//! A thread-local counting allocator measures the heap one
//! `compile_cluster` result still holds when it returns: the bytes
//! allocated minus the bytes freed on the calling thread while compiling,
//! so the recording's temporaries and the dropped probes cancel out.  A
//! PiP-MColl 64 B allreduce instantiates, so its plan on 64×4 may hold no
//! more than on 8×4 beyond the few extra inter-node steps a larger node
//! count gives each program.  A rooted scatter stores every rank, so on the
//! same pair its plan must grow with the world, about 8×: the control that
//! shows the counter sees the plans at all.  The counter is per thread, so
//! the test harness's other threads cannot disturb it.
//!
//! This file is its own test binary because the counting allocator is
//! global to the binary it is linked into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pip_collectives::plan::Fidelity;
use pip_collectives::CollectiveKind;
use pip_mpi_model::plan::compile_cluster;
use pip_mpi_model::{CollectiveShape, Library};
use pip_runtime::Topology;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, tracking the calling thread's live heap bytes.
struct Counting;

fn track(delta: isize) {
    // `try_with`: the thread-local may already be gone while a thread
    // exits.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// tracking touches only a `const`-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes the schedule-fidelity plan of `kind` (64 B per rank, root 0)
/// under `library` holds on `nodes`×4 once compiled.
fn plan_heap(library: Library, kind: CollectiveKind, nodes: usize) -> isize {
    let shape = CollectiveShape::plain(kind, 64, 0);
    let topology = Topology::new(nodes, 4);
    let profile = library.profile();
    let before = LIVE_BYTES.with(Cell::get);
    let plan = compile_cluster(&profile, topology, &shape, Fidelity::Schedule);
    let held = LIVE_BYTES.with(Cell::get) - before;
    drop(plan);
    held
}

#[test]
fn an_instantiated_plan_holds_heap_for_node_zero_only() {
    let allreduce = |nodes| plan_heap(Library::PipMColl, CollectiveKind::Allreduce, nodes);
    let scatter = |nodes| plan_heap(Library::PipMColl, CollectiveKind::Scatter, nodes);
    let (small, large) = (allreduce(8), allreduce(64));
    assert!(small > 0, "the counter sees the plan: {small} B");
    // log2(nodes) inter-node steps: 3 on 8 nodes, 6 on 64.  Storing every
    // rank would hold 8× at least.
    assert!(
        large < 2 * small,
        "instantiated allreduce: {small} B on 8x4, {large} B on 64x4"
    );
    let (small, large) = (scatter(8), scatter(64));
    let growth = large as f64 / small as f64;
    assert!(
        (6.0..=10.0).contains(&growth),
        "rooted scatter, every rank stored: {small} B on 8x4, {large} B on 64x4 ({growth:.2}x)"
    );
}
