//! What completing a collective allocates, and what a message costs the
//! fabric.
//!
//! The receive buffer a request executes on is the typed vector its `wait`
//! returns, so completing a finished non-blocking collective allocates
//! nothing, and a persistent handle's `wait` allocates exactly the one
//! result vector it hands out while it keeps its pinned buffer for the next
//! start.  A thread-local counting allocator measures `wait` alone, on a
//! warm 1×2 PiP-MColl world: each rank first polls its request to
//! completion with `test`, so the measured call does no progress work.  The
//! counter is per thread, so the other rank's thread cannot disturb it.
//!
//! Underneath, a message is the sender's owned vector: an owned send and
//! its matched receive on a warm fabric allocate nothing at all.
//!
//! This file is its own test binary because the counting allocator is
//! global to the binary it is linked into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use pip_mcoll_core::prelude::*;
use pip_runtime::fabric::MatchSpec;
use pip_runtime::Fabric;

thread_local! {
    /// `(allocations, bytes)` the thread asked the allocator for.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting the calling thread's allocations and
/// their bytes (a `realloc` counts as one allocation of its new size).
struct Counting;

fn count(bytes: usize) {
    // `try_with`: the thread-local may already be gone while a thread
    // exits.
    let _ = ALLOCATED.try_with(|n| {
        let (count, total) = n.get();
        n.set((count + 1, total + bytes));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// counting touches only a `const`-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the `(allocations, bytes)` the calling thread made
/// while running it.
fn allocated_during<O>(f: impl FnOnce() -> O) -> (O, (usize, usize)) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    let after = ALLOCATED.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

/// Poll `test` until it reports completion, failing after a generous
/// deadline instead of spinning forever.
fn poll(mut test: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !test() {
        assert!(Instant::now() < deadline, "the collective never completed");
        std::thread::yield_now();
    }
}

/// 64 KiB of `f32` per rank, as the `exec_large` allgather moves.
const GATHER_LEN: usize = 16 * 1024;
/// 256 KiB of `f32`, as the `exec_large` allreduces move.
const REDUCE_LEN: usize = 64 * 1024;

fn input(rank: usize, len: usize) -> Vec<f32> {
    (0..len).map(|i| (rank * len + i) as f32 * 0.5).collect()
}

/// Run `body` on every rank of a 1×2 PiP-MColl world.
fn on_two_ranks<R: Send>(body: impl Fn(&Communicator<'_>) -> R + Sync) -> Vec<R> {
    World::builder()
        .nodes(1)
        .ppn(2)
        .library(Library::PipMColl)
        .run(body)
        .unwrap()
}

#[test]
fn waiting_on_finished_requests_allocates_nothing() {
    let results = on_two_ranks(|comm| {
        let gather_in = input(comm.rank(), GATHER_LEN);
        let reduce_in = input(comm.rank(), REDUCE_LEN);
        let mut measured = Vec::new();
        // The first round compiles the plans and fills the arena; the
        // later ones are warm.
        for _ in 0..3 {
            let mut gather = comm.iallgather(&gather_in);
            poll(|| gather.test());
            let (gathered, allocated) = allocated_during(|| gather.wait());
            assert_eq!(gathered.len(), 2 * GATHER_LEN);
            let mine = comm.rank() * GATHER_LEN;
            assert_eq!(gathered[mine..mine + GATHER_LEN], gather_in[..]);

            let mut reduce = comm.iallreduce(&reduce_in, ReduceOp::Sum);
            poll(|| reduce.test());
            let (reduced, reduce_allocated) = allocated_during(|| reduce.wait());
            assert_eq!(
                reduced[1],
                input(0, REDUCE_LEN)[1] + input(1, REDUCE_LEN)[1]
            );
            measured.push((allocated, reduce_allocated));
        }
        measured
    });
    for (rank, measured) in results.iter().enumerate() {
        for (round, &(gather, reduce)) in measured.iter().enumerate().skip(1) {
            assert_eq!(
                gather,
                (0, 0),
                "rank {rank}, round {round}: iallgather's wait allocated (count, bytes)"
            );
            assert_eq!(
                reduce,
                (0, 0),
                "rank {rank}, round {round}: iallreduce's wait allocated (count, bytes)"
            );
        }
    }
}

#[test]
fn a_persistent_wait_allocates_one_result_vector() {
    let results = on_two_ranks(|comm| {
        let reduce_in = input(comm.rank(), REDUCE_LEN);
        let mut handle = comm.allreduce_init(&reduce_in, ReduceOp::Sum);
        let mut measured = Vec::new();
        for _ in 0..3 {
            handle.start();
            poll(|| handle.test());
            let (reduced, allocated) = allocated_during(|| handle.wait());
            assert_eq!(reduced.len(), REDUCE_LEN);
            measured.push(allocated);
        }
        measured
    });
    for (rank, measured) in results.iter().enumerate() {
        for (round, &allocated) in measured.iter().enumerate().skip(1) {
            assert_eq!(
                allocated,
                (1, REDUCE_LEN * 4),
                "rank {rank}, round {round}: allreduce_init's wait allocated (count, bytes)"
            );
        }
    }
}

#[test]
fn an_owned_send_and_its_receive_allocate_nothing() {
    let fabric = Fabric::new(2);
    let lane = MatchSpec::exact(0, 7);
    let mut measured = Vec::new();
    // The first round creates the lane; the later ones find it warm.
    for round in 0..3u8 {
        let payload = vec![round; 64];
        let address = payload.as_ptr();
        let (msg, allocated) = allocated_during(|| {
            fabric.send(0, 1, lane.tag, payload).unwrap();
            fabric.try_recv(1, lane).unwrap()
        });
        let msg = msg.expect("the message was just sent");
        assert_eq!(msg.payload, vec![round; 64]);
        assert_eq!(
            msg.payload.as_ptr(),
            address,
            "the receiver holds the sent vector"
        );
        measured.push(allocated);
    }
    for (round, &allocated) in measured.iter().enumerate().skip(1) {
        assert_eq!(
            allocated,
            (0, 0),
            "round {round}: an owned send and its receive allocated (count, bytes)"
        );
    }
}
