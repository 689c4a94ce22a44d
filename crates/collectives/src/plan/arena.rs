//! The buffer arena behind the zero-allocation steady state of the execute
//! plane.
//!
//! Every run of a compiled plan materializes the same multiset of scratch
//! buffers: one per value slot it fills (received messages, shared reads
//! that do not land directly, reduction accumulators), one per operand it
//! materializes (sent payloads, published or written regions, reduction
//! and codec inputs), and one per output write of the caller's own bytes.
//! Output writes of value slots take none: the drain copies them straight
//! from the slots.  A shared read whose value only fills one range of the
//! output takes none either: it lands in the receive buffer directly (see
//! [`crate::plan::cursor`] for the four conditions).  Nor does a region
//! published or written from one range of the caller's buffer: it is
//! filled from the caller's bytes in place.
//! Allocating those from the global allocator on every invocation is
//! exactly the per-call overhead persistent collectives (`*_init` →
//! repeated `start()`) exist to avoid, so the
//! [`crate::plan::cursor::PlanCursor`] draws them from a [`BufferArena`]
//! instead: a free-list pool keyed by the buffer length the plan's value
//! slots declare.
//!
//! The pool reaches a steady state because a plan's buffer traffic is
//! balanced across invocations: every buffer acquired for a value slot, an
//! operand or an output write is released back when the op is done with it
//! or the run finishes, and the buffers a rank's sends carry away (they
//! move into the fabric and on to the peer) are replaced by the received
//! messages its receives bring in — which are released into the pool when
//! the run finishes.  Compressed transfers follow the same rule: the sender
//! encodes into an arena buffer of the frame's worst-case length, the
//! receiver decodes into an arena buffer and releases the frame it was
//! sent.  After the first invocation of a symmetric collective, repeat
//! invocations therefore hit the pool for every acquisition;
//! [`ArenaStats::misses`] stays flat, which `tests/arena_steady_state.rs`
//! pins for persistent allreduce and reduce_scatter, together with the exact
//! number of acquisitions per start.
//!
//! One arena serves one rank (plans of all shapes share it, since pooling
//! is by buffer length); it is shared between every cursor of a
//! communicator — blocking calls, requests and persistent handles — through
//! the [`SharedArena`] handle.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Pool accounting (see [`BufferArena::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Acquisitions served from the pool — no allocator involvement.
    pub hits: u64,
    /// Acquisitions that had to allocate (pool had no buffer of the
    /// requested length).  In the persistent-collective steady state this
    /// counter stops moving after the first `start()`.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub released: u64,
    /// Buffers dropped on release because their size class was already full
    /// (the pool's memory bound).
    pub dropped: u64,
}

/// Buffers of one exact capacity the pool will retain at most.  Collectives
/// acquire at most a few buffers per size class per invocation, so the cap
/// only matters for pathological callers; it bounds pool memory at
/// `cap × size` per class.
const MAX_POOLED_PER_CLASS: usize = 256;

/// A free-list buffer pool keyed by buffer capacity.
///
/// [`BufferArena::acquire`] hands out an *empty* `Vec<u8>` whose capacity is
/// at least the requested length (exactly, in practice: classes are keyed by
/// the capacities previously released).  [`BufferArena::release`] returns a
/// buffer to its class.  Zero-length requests are served without touching
/// the pool or the stats — an empty `Vec` never allocates.
#[derive(Debug, Default)]
pub struct BufferArena {
    classes: HashMap<usize, Vec<Vec<u8>>>,
    stats: ArenaStats,
}

impl BufferArena {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take an empty buffer with capacity for `len` bytes, reusing a pooled
    /// allocation when one of that class exists.
    pub fn acquire(&mut self, len: usize) -> Vec<u8> {
        if len == 0 {
            return Vec::new();
        }
        if let Some(class) = self.classes.get_mut(&len) {
            if let Some(mut buf) = class.pop() {
                buf.clear();
                self.stats.hits += 1;
                return buf;
            }
        }
        self.stats.misses += 1;
        Vec::with_capacity(len)
    }

    /// Return `buf` to the pool (keyed by its capacity).  Buffers with zero
    /// capacity, or whose class is already at the retention cap, are
    /// dropped.
    pub fn release(&mut self, buf: Vec<u8>) {
        let class = buf.capacity();
        if class == 0 {
            return;
        }
        let pooled = self.classes.entry(class).or_default();
        if pooled.len() >= MAX_POOLED_PER_CLASS {
            self.stats.dropped += 1;
            return;
        }
        self.stats.released += 1;
        pooled.push(buf);
    }

    /// Pool accounting since creation.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of buffers currently pooled (across all size classes).
    pub fn pooled(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }
}

/// A [`BufferArena`] shareable between the plan cursors and persistent
/// handles of one rank.  Single-threaded by construction
/// (one communicator per rank thread), hence `Rc<RefCell>`.
pub type SharedArena = Rc<RefCell<BufferArena>>;

/// A fresh, empty [`SharedArena`].
pub fn shared_arena() -> SharedArena {
    Rc::new(RefCell::new(BufferArena::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_miss_then_release_then_hit() {
        let mut arena = BufferArena::new();
        let mut buf = arena.acquire(16);
        assert_eq!(buf.capacity(), 16);
        assert!(buf.is_empty());
        buf.extend_from_slice(&[7u8; 16]);
        let ptr = buf.as_ptr();
        arena.release(buf);
        assert_eq!(arena.pooled(), 1);
        let again = arena.acquire(16);
        assert_eq!(again.as_ptr(), ptr, "the pooled allocation must be reused");
        assert!(again.is_empty(), "reused buffers come back cleared");
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses, stats.released), (1, 1, 1));
    }

    #[test]
    fn distinct_lengths_use_distinct_classes() {
        let mut arena = BufferArena::new();
        arena.release({
            let mut b = Vec::with_capacity(8);
            b.push(1u8);
            b
        });
        let other = arena.acquire(16);
        assert_eq!(other.capacity(), 16);
        assert_eq!(arena.stats().misses, 1, "a different class must allocate");
        assert_eq!(arena.acquire(8).capacity(), 8);
        assert_eq!(arena.stats().hits, 1);
    }

    #[test]
    fn zero_length_requests_bypass_the_pool() {
        let mut arena = BufferArena::new();
        let buf = arena.acquire(0);
        assert_eq!(buf.capacity(), 0);
        arena.release(buf);
        assert_eq!(arena.stats(), ArenaStats::default());
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn release_respects_the_retention_cap() {
        let mut arena = BufferArena::new();
        for _ in 0..MAX_POOLED_PER_CLASS + 3 {
            arena.release(Vec::with_capacity(4));
        }
        assert_eq!(arena.pooled(), MAX_POOLED_PER_CLASS);
        assert_eq!(arena.stats().dropped, 3);
    }
}
