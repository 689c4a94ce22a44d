//! Replay allocates per rank, not per message.
//!
//! A thread-local counting allocator measures one replay of the same
//! multi-node exchange at `R` and at `4R` rounds.  Every round sends a
//! fresh tag, so a match table that allocates per `(source, tag)` key (or
//! per message) pays for every extra round; the engine's mailboxes, queue
//! buckets and validation buffers are sized by ranks and grow to their
//! steady state within the first rounds.  The counter is per thread, so
//! the test harness's other threads cannot disturb it.
//!
//! This file is its own test binary because the counting allocator is
//! global to the binary it is linked into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pip_netsim::{RunOptions, SimEngine, SimParams, Trace, TraceOp};
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

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `rounds` rounds in which every rank sends to the same local rank on the
/// next node and on the node after it, then receives both, under a fresh
/// tag per round.
fn exchange(topology: Topology, rounds: usize) -> Trace {
    let nodes = topology.nodes();
    let mut trace = Trace::empty(topology);
    for round in 0..rounds {
        let tag = round as u64;
        for rank in 0..topology.world_size() {
            let node = topology.node_of(rank);
            let local = topology.local_rank_of(rank);
            let peer = |hop: usize| topology.rank_of((node + hop) % nodes, local);
            let from = |hop: usize| topology.rank_of((node + nodes - hop) % nodes, local);
            for hop in [1, 2] {
                let bytes = 256 * hop;
                trace.push(
                    rank,
                    TraceOp::Send {
                        dest: peer(hop),
                        bytes,
                        tag,
                    },
                );
            }
            for hop in [1, 2] {
                let bytes = 256 * hop;
                trace.push(
                    rank,
                    TraceOp::Recv {
                        source: from(hop),
                        bytes,
                        tag,
                    },
                );
            }
        }
    }
    trace
}

#[test]
fn replay_allocations_scale_with_ranks_not_messages() {
    const ROUNDS: usize = 16;
    let topology = Topology::new(4, 4);
    let engine = SimEngine::new(SimParams::default());
    let replay = |trace: &Trace| {
        let outcome = engine.run_with(trace, RunOptions::summary()).unwrap();
        assert!(outcome.makespan > 0.0);
    };
    let (short, long) = (exchange(topology, ROUNDS), exchange(topology, 4 * ROUNDS));
    // Warm up once so one-time lazily initialised state is not counted.
    replay(&short);
    let short_allocations = allocations_during(|| replay(&short));
    let long_allocations = allocations_during(|| replay(&long));
    let extra_messages = long.total_messages() - short.total_messages();
    let ranks = topology.world_size();
    assert!(
        long_allocations.saturating_sub(short_allocations) <= ranks,
        "{extra_messages} more messages cost {short_allocations} -> {long_allocations} \
         allocations, more than one per rank ({ranks})"
    );
}
