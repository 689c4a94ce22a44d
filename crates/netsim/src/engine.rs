//! The discrete-event engine that replays a [`Trace`] against the cost
//! models and produces completion times.
//!
//! ## Model
//!
//! * Every rank is a sequential processor: an operation starts when the
//!   previous one has completed.
//! * `Send` charges the sender its host overhead (NIC `o` plus library
//!   software overhead) and then hands the message to the node's adapter,
//!   which serializes injections: a new message may enter the wire only
//!   `max(g_nic, bytes/G)` after the previous one from the same node.  The
//!   receiving node's adapter serializes arrivals the same way.  Intra-node
//!   messages bypass the adapter entirely and are charged to the configured
//!   intra-node mechanism.
//! * `Recv` completes at `max(posted, arrival) + o_recv`.
//! * `LocalBarrier` releases all ranks of the node at the time the last of
//!   them arrives plus the barrier cost.
//!
//! The engine is deterministic: events at equal times are ordered by a
//! static tie class and then by a monotonically increasing insertion
//! sequence number (see "Tie order" below).
//!
//! ## Scheduler
//!
//! The seed implementation (preserved in `crate::reference`) kept a
//! `BinaryHeap` of `(time, seq, rank)` events and hash-map mailboxes keyed
//! by `(source, dest, tag)`.  Both show up hard in profiles at paper scale
//! (128 nodes x 18 ranks): every op pays two `O(log n)` heap moves and at
//! least one SipHash lookup.  This engine replaces them with:
//!
//! * a **calendar queue**: a ring of 1024 time buckets whose width is
//!   auto-tuned to the NIC injection gap (the dominant event spacing), with
//!   a spill heap for far-future events (long `Delay`s).  Pushes are O(1);
//!   pops sort one small bucket at a time, preserving the exact global
//!   `(time, tie key)` order of the heap version.  A bucket sorts on one
//!   128-bit integer, the time's bit pattern above the tie key: event times
//!   are non-negative and never NaN, so their bits order exactly as the
//!   times do.
//! * **flat mailboxes**: one list of pending `(source, tag, arrival)`
//!   messages per receiver, scanned linearly and matched per key in
//!   delivery order, plus the one key the (sequential) receiver is blocked
//!   on.  Collectives keep few messages pending per rank, so matching is a
//!   few compares instead of a hash, and each list keeps its allocation for
//!   the whole replay: matching allocates nothing per message.
//! * **generation-tagged events**: each rank carries a generation counter,
//!   bumped whenever it blocks or finishes; events record the generation
//!   they were scheduled under and stale ones are dropped on pop without
//!   touching rank state.
//! * **inline op chaining**: purely rank-local ops (`Delay`, `Compute`,
//!   `Reduce`, `CopyIntra`) touch no shared state and are applied in a
//!   burst without a queue round-trip per op.  The chain breaks before any
//!   op that reads or writes shared state (`Send`, `Recv`, `LocalBarrier`),
//!   which is re-queued at the advanced clock so node-level resources are
//!   still claimed in global `(time, class)` order — unless nothing else is
//!   scheduled first, in which case the rank runs ahead without the
//!   round-trip.
//!
//! ## Tie order
//!
//! Both engines pack an event's tie key as `class << 40 | seq` above its
//! time.  A replay decides once per call whether its trace folds: a full
//! trace by [`FoldedTrace::detect_with`] under the run's perturbation, a
//! folded trace by its own group.  A trace that does not fold has class 0
//! everywhere, so its ties break in insertion order alone.  In a trace that
//! folds, a rank's event takes the class `1 + local·N + offset` of the op
//! it runs next, where `offset` is the node an internode send goes to, seen
//! from the rank's own node under the group (`(dst − src) mod N` for a
//! rotation, `src ⊕ dst` for XOR), and 0 for any other op.
//!
//! Neither term changes under the group, so every node breaks its ties
//! alike.  Two events of one time and one class on different nodes belong
//! to one local rank whose next op either sends to one relative node or
//! stays on its own node, so they touch disjoint adapters, mailboxes and
//! barriers, and commute.  The full replay of a trace that folds is
//! therefore node-symmetric, and folded replay reproduces it bit for bit.
//!
//! The classes are read from a `[local][pc]` table of node 0's programs, so
//! a push costs one lookup; the event loop is generic over the tie order,
//! so a replay in insertion order has no lookups at all.  A class takes the
//! key's top 24 bits, so a replay of a trace that folds over 2^24 ranks or
//! more panics.
//!
//! ## Folded replay
//!
//! [`SimEngine::run_folded`] exploits schedule symmetry (see
//! [`crate::fold`]): when every node runs the same program modulo a node
//! relabeling, simulating node 0's ranks alone reproduces the full
//! system's timing.  This turns an `O(world)` replay into `O(ppn)`, which
//! is what makes million-rank projection sweeps tractable.
//!
//! Full and folded replay are one event loop over the *simulated* ranks:
//! the whole world, or node 0's ranks — global ranks `0..ppn`, so every
//! rank-indexed structure works unchanged, and per-node adapter and
//! barrier state is sized for the one simulated node.  Folding changes
//! exactly four things:
//!
//! * **the receive side of an internode send**: instead of claiming the
//!   destination's adapter, the send registers the mirror-image *incoming*
//!   message node 0 receives at the same moment (from the node the group
//!   maps onto node 0, with the same injection-complete time);
//! * **the mirror flush**: those pending arrivals are applied to node 0's
//!   adapter as soon as simulated time advances past the instant they were
//!   registered, sorted by the tie class each mirror sender shares with its
//!   node-0 image — the order the full replay processes them in;
//! * **the run-ahead gate**: pending arrivals are not queue events, so a
//!   rank only runs ahead when none are pending;
//! * **the projection**: counters scale by the node count, the skew
//!   percentiles stride by it, and per-rank finish times — and a deadlock's
//!   stuck ranks — are broadcast across each equivalence class.
//!
//! ## Perturbation
//!
//! A [`Perturbation`] in [`RunOptions`] degrades the fabric by two
//! settings: per-link latency jitter and probabilistic message drops with a
//! retry/timeout/backoff model (see [`crate::perturb`]).  All draws are
//! pure hashes of static identifiers, so the calendar engine and the seed
//! reference engine produce bit-identical perturbed timings.  Both settings
//! draw per link or per message, so a perturbed run is replayed in full:
//! only the identity config folds.  A message whose retry budget is
//! exhausted starves its receive and the run reports a structured
//! [`SimFailure`] naming the starved `(rank, tag)` pairs instead of an
//! undiagnosable deadlock.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use pip_runtime::Topology;
use pip_transport::cost::{IntranodeCost, IntranodeMechanism, Nanos};

use crate::fold::{FoldGroup, FoldedTrace};
use crate::params::SimParams;
use crate::perturb::{PerturbState, Perturbation};
use crate::trace::{Trace, TraceError, TraceOp};

/// Fixed cost of completing an intra-node receive (polling the flag the
/// sender set in shared memory).  The payload copy itself is charged to the
/// sender's transfer cost.
pub(crate) const INTRA_RECV_FLAG_COST: Nanos = 40.0;

/// Totally ordered wrapper for simulation timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(Nanos);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Options controlling what a replay records and how the fabric behaves.
///
/// Build one with [`RunOptions::recorded`] or [`RunOptions::summary`] and
/// refine it per sub-run with the `with_*` builders, so one call site can
/// mix recorded, summary-only, and perturbed replays without ad-hoc struct
/// literals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Record per-rank completion times in [`SimOutcome::rank_finish`].
    ///
    /// Defaults to `true` (the historical behaviour).  Summary-only
    /// callers — sweeps over very large worlds in particular — should turn
    /// this off; the makespan and statistics are unaffected and the
    /// `rank_finish` vector is left empty.
    pub record_rank_finish: bool,
    /// Degraded-fabric injection (see [`Perturbation`]).  `None` — the
    /// default — simulates a healthy fabric and costs nothing on the hot
    /// path.
    pub perturbation: Option<Perturbation>,
}

impl RunOptions {
    /// The historical default: record per-rank finish times, healthy fabric.
    pub const fn recorded() -> Self {
        Self {
            record_rank_finish: true,
            perturbation: None,
        }
    }

    /// Summary-only: skip the per-rank finish vector (makespan and
    /// statistics are unaffected).
    pub const fn summary() -> Self {
        Self {
            record_rank_finish: false,
            perturbation: None,
        }
    }

    /// Attach a degraded-fabric config to this sub-run.
    #[must_use]
    pub fn with_perturbation(mut self, perturbation: Perturbation) -> Self {
        self.perturbation = Some(perturbation);
        self
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        Self::recorded()
    }
}

// ---------------------------------------------------------------------------
// Calendar queue
// ---------------------------------------------------------------------------

/// Number of buckets in the calendar ring.  Power of two so the slot of a
/// bucket index is a mask.
const CALENDAR_BUCKETS: usize = 1024;
const CALENDAR_MASK: u64 = CALENDAR_BUCKETS as u64 - 1;

/// Bits of an event's tie key below its tie class: the insertion sequence.
pub(crate) const TIE_SEQ_BITS: u32 = 40;

/// A scheduled wakeup for one rank.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: Nanos,
    /// The tie key, `class << TIE_SEQ_BITS | insertion sequence`: events
    /// at equal times pop by class, then in insertion order.
    seq: u64,
    rank: u32,
    gen: u32,
}

impl Event {
    /// Whether this event pops after one pushed now at `(t, tie)`, which
    /// would take the next sequence number: a later time or a larger class.
    #[inline]
    fn after(&self, t: Nanos, tie: u64) -> bool {
        match self.time.total_cmp(&t) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => self.seq >> TIE_SEQ_BITS > tie >> TIE_SEQ_BITS,
        }
    }
}

/// Ordering adapter for the overflow heap (min-heap via `Reverse`).
#[derive(Debug)]
struct OverflowEvent(Event);

impl PartialEq for OverflowEvent {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq && TimeKey(self.0.time) == TimeKey(other.0.time)
    }
}

impl Eq for OverflowEvent {}

impl PartialOrd for OverflowEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OverflowEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        TimeKey(self.0.time)
            .cmp(&TimeKey(other.0.time))
            .then(self.0.seq.cmp(&other.0.seq))
    }
}

/// A calendar queue: O(1) insertion into a ring of fixed-width time
/// buckets, with a spill heap for events beyond the ring's horizon.
///
/// Pop order is exactly ascending `(time, seq)` — identical to the
/// `BinaryHeap` scheduler it replaces — because events are only ever popped
/// out of the single *current* bucket, which is sorted once when the queue
/// advances into it.
#[derive(Debug)]
struct CalendarQueue {
    /// Reciprocal of the bucket width; multiply to find a bucket index.
    inv_width: f64,
    /// Absolute index of the bucket currently being drained.
    base: u64,
    /// The ring.  Slot `b & CALENDAR_MASK` holds bucket `b` for
    /// `base < b < base + CALENDAR_BUCKETS`.
    ring: Vec<Vec<Event>>,
    /// Drained, empty bucket vectors, handed to the next empty slot that
    /// receives an event: the ring holds as many allocations as it ever has
    /// non-empty buckets at once, not one per slot simulated time reaches.
    spare: Vec<Vec<Event>>,
    /// Events currently stored in the ring (not counting `current`).
    ring_len: usize,
    /// Far-future events, min-heap on `(time, seq)`.
    overflow: BinaryHeap<Reverse<OverflowEvent>>,
    /// Events that land in (or before) the bucket being drained — wakeups
    /// and re-queues at the current horizon.  A small min-heap merged with
    /// `current` at pop time; this keeps insertion O(log k) instead of an
    /// O(n) splice into the sorted bucket.
    incoming: BinaryHeap<Reverse<OverflowEvent>>,
    /// The drained current bucket, sorted ascending `(time, seq)`.
    current: Vec<Event>,
    /// Read position within `current`.
    cursor: usize,
    /// Next insertion sequence number (the tie-break below the class).
    seq: u64,
    /// Total events stored across `current`, `ring`, and `overflow`.
    len: usize,
}

impl CalendarQueue {
    /// `hint` is the expected steady-state event population (one in-flight
    /// event per runnable rank); the merge structures are pre-sized to it so
    /// the first simulated round does not grow them step by step.
    fn new(width: Nanos, hint: usize) -> Self {
        let width = if width.is_finite() && width > 0.0 {
            width
        } else {
            1.0
        };
        Self {
            inv_width: 1.0 / width,
            base: 0,
            ring: (0..CALENDAR_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            incoming: BinaryHeap::with_capacity(hint),
            current: Vec::with_capacity(hint),
            cursor: 0,
            seq: 0,
            len: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, time: Nanos) -> u64 {
        // Times are non-negative; enormous times saturate the cast, which
        // simply routes them through the overflow heap.
        (time * self.inv_width) as u64
    }

    /// Schedule a fresh event of tie class `tie` (already shifted into
    /// place; see [`TieClasses`]), assigning the next sequence number.
    #[inline]
    fn push(&mut self, time: Nanos, tie: u64, rank: u32, gen: u32) {
        debug_assert!(self.seq < 1 << TIE_SEQ_BITS);
        let seq = tie | self.seq;
        self.seq += 1;
        self.insert(Event {
            time,
            seq,
            rank,
            gen,
        });
    }

    /// Re-insert a popped event, preserving its original sequence number
    /// (and therefore its position in the global tie order).
    #[inline]
    fn reinsert(&mut self, ev: Event) {
        self.insert(ev);
    }

    fn insert(&mut self, ev: Event) {
        // `advance` sorts on the time's bits, which order non-negative,
        // non-NaN times exactly as `total_cmp` does.
        debug_assert!(
            ev.time.is_sign_positive() && !ev.time.is_nan(),
            "event time {} is negative or NaN",
            ev.time
        );
        self.len += 1;
        let b = self.bucket_of(ev.time);
        if b <= self.base {
            // Belongs to the bucket being drained (or, for folded-replay
            // wakeups, an earlier one): goes to the merge heap.
            self.incoming.push(Reverse(OverflowEvent(ev)));
        } else if b < self.base + CALENDAR_BUCKETS as u64 {
            self.push_ring(b, ev);
        } else {
            self.overflow.push(Reverse(OverflowEvent(ev)));
        }
    }

    fn pop(&mut self) -> Option<Event> {
        loop {
            match (self.current.get(self.cursor), self.incoming.peek()) {
                (Some(&cur), Some(Reverse(OverflowEvent(inc)))) => {
                    self.len -= 1;
                    let inc_first = inc
                        .time
                        .total_cmp(&cur.time)
                        .then(inc.seq.cmp(&cur.seq))
                        .is_lt();
                    if inc_first {
                        let Some(Reverse(OverflowEvent(ev))) = self.incoming.pop() else {
                            unreachable!()
                        };
                        return Some(ev);
                    }
                    self.cursor += 1;
                    return Some(cur);
                }
                (Some(&cur), None) => {
                    self.cursor += 1;
                    self.len -= 1;
                    return Some(cur);
                }
                (None, Some(_)) => {
                    self.len -= 1;
                    let Some(Reverse(OverflowEvent(ev))) = self.incoming.pop() else {
                        unreachable!()
                    };
                    return Some(ev);
                }
                (None, None) => {
                    if self.len == 0 {
                        self.current.clear();
                        self.cursor = 0;
                        return None;
                    }
                    self.advance();
                }
            }
        }
    }

    /// True when an event pushed *now* at `(t, tie)` would be the very next
    /// pop — i.e. every queued event is strictly later than `t` or of a
    /// larger class (a fresh push always receives the largest sequence
    /// number, so it loses any tie of time and class).  This is what lets
    /// the replay loop continue a rank inline instead of a push immediately
    /// followed by a pop.
    fn next_is_after(&mut self, t: Nanos, tie: u64) -> bool {
        loop {
            return match (self.current.get(self.cursor), self.incoming.peek()) {
                (Some(cur), Some(Reverse(OverflowEvent(inc)))) => {
                    cur.after(t, tie) && inc.after(t, tie)
                }
                (Some(cur), None) => cur.after(t, tie),
                (None, Some(Reverse(OverflowEvent(inc)))) => inc.after(t, tie),
                (None, None) => {
                    if self.len == 0 {
                        return true;
                    }
                    self.advance();
                    continue;
                }
            };
        }
    }

    /// Store `ev` in the ring slot of bucket `b`, reusing a spare vector if
    /// the slot has none.
    #[inline]
    fn push_ring(&mut self, b: u64, ev: Event) {
        let slot = &mut self.ring[(b & CALENDAR_MASK) as usize];
        if slot.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *slot = spare;
            }
        }
        slot.push(ev);
        self.ring_len += 1;
    }

    /// Move to the next non-empty bucket and drain it into `current`.
    fn advance(&mut self) {
        self.current.clear();
        self.cursor = 0;
        loop {
            if self.ring_len == 0 {
                // Ring exhausted: jump straight to the overflow's horizon
                // instead of stepping through empty buckets.
                match self.overflow.peek() {
                    Some(Reverse(OverflowEvent(min))) => self.base = self.bucket_of(min.time),
                    None => return,
                }
            } else {
                self.base += 1;
            }
            // Pull overflow events that now fall inside the ring's window.
            while let Some(Reverse(OverflowEvent(ev))) = self.overflow.peek() {
                let b = self.bucket_of(ev.time);
                if b >= self.base + CALENDAR_BUCKETS as u64 {
                    break;
                }
                let Some(Reverse(OverflowEvent(ev))) = self.overflow.pop() else {
                    unreachable!()
                };
                if b <= self.base {
                    self.current.push(ev);
                } else {
                    self.push_ring(b, ev);
                }
            }
            let slot = (self.base & CALENDAR_MASK) as usize;
            if !self.ring[slot].is_empty() {
                self.ring_len -= self.ring[slot].len();
                let mut drained = std::mem::take(&mut self.ring[slot]);
                self.current.append(&mut drained);
                self.spare.push(drained);
            }
            if !self.current.is_empty() {
                // One integer key: `(time, seq)` order (see `insert`).
                self.current
                    .sort_unstable_by_key(|ev| (ev.time.to_bits() as u128) << 64 | ev.seq as u128);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Message matching
// ---------------------------------------------------------------------------

/// One receiver's mailbox: the messages delivered but not yet received, in
/// delivery order, and the one key the receiver is blocked on.
///
/// A rank is sequential, so it waits on at most one `(source, tag)` at a
/// time.  Collectives post matching sends and receives round by round, so
/// `pending` stays short and a linear scan beats hashing; the list keeps
/// its allocation for the whole replay, so matching allocates nothing per
/// message.
#[derive(Debug, Default)]
struct Mailbox {
    /// `(source, tag, arrival)` per message, in delivery order.
    pending: Vec<(u32, u64, Nanos)>,
    /// The `(source, tag)` the receiver is blocked on, if any.
    blocked: Option<(u32, u64)>,
}

impl Mailbox {
    /// Record a message arrival.  Returns `true` when the receiver was
    /// blocked on this key (the caller must wake it).
    fn deliver(&mut self, source: u32, tag: u64, arrival: Nanos) -> bool {
        self.pending.push((source, tag, arrival));
        self.blocked.take_if(|key| *key == (source, tag)).is_some()
    }

    /// Take the oldest pending arrival for `(source, tag)`.  When no message
    /// is pending the receiver is marked blocked on the key and `None` is
    /// returned.
    fn consume(&mut self, source: u32, tag: u64) -> Option<Nanos> {
        match self
            .pending
            .iter()
            .position(|&(s, t, _)| s == source && t == tag)
        {
            // An ordered removal: messages with one key are matched in the
            // order they were sent.
            Some(i) => Some(self.pending.remove(i).2),
            None => {
                self.blocked = Some((source, tag));
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rank and barrier state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    Runnable,
    BlockedOnRecv,
    BlockedOnBarrier,
    Finished,
}

#[derive(Debug)]
struct RankRuntime {
    pc: usize,
    gen: u32,
    ready_time: Nanos,
    finish_time: Nanos,
    state: RankState,
}

impl RankRuntime {
    fn fresh() -> Self {
        Self {
            pc: 0,
            gen: 0,
            ready_time: 0.0,
            finish_time: 0.0,
            state: RankState::Runnable,
        }
    }
}

/// The tie class of `rank` about to run `op` (`None` once its program is
/// done) in a replay of a trace that folds under `group`:
/// `1 + local·N + offset`, where `offset` is the node an internode send
/// goes to, seen from the rank's own node under the group
/// ([`FoldGroup::delta`]), and 0 for any other op.  Both terms are
/// invariant under the group, so every node breaks its ties alike.
pub(crate) fn tie_class(
    group: FoldGroup,
    topology: Topology,
    rank: usize,
    op: Option<&TraceOp>,
) -> u64 {
    let offset = match op {
        Some(&TraceOp::Send { dest, .. }) if !topology.same_node(rank, dest) => group.delta(
            topology.node_of(rank),
            topology.node_of(dest),
            topology.nodes(),
        ),
        _ => 0,
    };
    (1 + topology.local_rank_of(rank) * topology.nodes() + offset) as u64
}

/// How one replay breaks time ties above insertion order.  The event loop
/// is generic over it, so a replay in insertion order compiles the class
/// lookups away.
trait TieOrder {
    /// The tie class of `rank`'s event at `pc`, shifted into tie-key
    /// position.
    fn of(&self, rank: usize, pc: usize) -> u64;
}

/// The tie order of a trace that does not fold: every event has class 0,
/// so ties break in insertion order alone.
struct InsertionOrder;

impl TieOrder for InsertionOrder {
    #[inline]
    fn of(&self, _rank: usize, _pc: usize) -> u64 {
        0
    }
}

/// The static tie classes of a trace that folds: one row per local rank,
/// read from node 0's programs, where entry `pc` is [`tie_class`] of that
/// rank at `pc`, with one entry past the last op.
#[derive(Debug)]
struct TieClasses {
    /// The rows, flattened and shifted into tie-key position.
    keys: Vec<u64>,
    /// Start of each simulated rank's row (its local rank's) in `keys`.
    rows: Vec<usize>,
}

impl TieClasses {
    fn new(folded: &FoldedTrace, sim_ranks: usize) -> Self {
        let (group, topology) = (folded.group(), folded.topology());
        assert!(
            topology.world_size() < 1 << (64 - TIE_SEQ_BITS),
            "a world of {} ranks has more tie classes than an event key holds",
            topology.world_size()
        );
        let mut keys = Vec::new();
        let mut starts = Vec::with_capacity(topology.ppn());
        for (local, program) in folded.representatives().iter().enumerate() {
            starts.push(keys.len());
            keys.extend(
                (0..=program.len())
                    .map(|pc| tie_class(group, topology, local, program.get(pc)) << TIE_SEQ_BITS),
            );
        }
        let rows = (0..sim_ranks)
            .map(|rank| starts[topology.local_rank_of(rank)])
            .collect();
        Self { keys, rows }
    }
}

impl TieOrder for TieClasses {
    #[inline]
    fn of(&self, rank: usize, pc: usize) -> u64 {
        self.keys[self.rows[rank] + pc]
    }
}

/// The single active barrier episode of one node.
///
/// A rank can only reach its next `LocalBarrier` after the previous episode
/// released *all* of the node's ranks, so at most one episode per node is
/// ever in flight and a flat slot replaces the seed's episode-index map.
#[derive(Debug, Default)]
struct BarrierSlot {
    arrived: usize,
    latest: Nanos,
    waiters: Vec<u32>,
}

/// Serialize a message that reaches an adapter at `rx_ready` on the
/// adapter's arrival side (`rx_free`, `busy`); returns when it has landed.
fn land(rx_free: &mut Nanos, busy: &mut Nanos, rx_ready: Nanos, occupancy: Nanos) -> Nanos {
    let rx_end = rx_ready.max(*rx_free) + occupancy;
    *rx_free = rx_end;
    *busy += occupancy;
    rx_end
}

/// An inter-node arrival a folded replay owes node 0: the mirror image of a
/// message node 0 sent, coming from the node the group maps onto node 0.
#[derive(Debug)]
struct MirrorRx {
    /// The tie class of the send, which the mirror sender shares.
    tie: u64,
    source: u32,
    dest: usize,
    tag: u64,
    rx_ready: Nanos,
    occupancy: Nanos,
}

/// The ranks one replay simulates: every rank of a trace, or node 0's ranks
/// of a folded trace — global ranks `0..ppn`, so rank, node, match-table,
/// barrier and perturbation indexing is the same for both.
#[derive(Debug, Clone, Copy)]
enum Simulated<'a> {
    /// Every rank of a trace that does not fold.
    World(&'a Trace),
    /// Every rank of a trace that folds as given, which keys its ties.
    Symmetric(&'a Trace, &'a FoldedTrace),
    /// Node 0's ranks of a folded trace.
    Node0(&'a FoldedTrace),
}

impl<'a> Simulated<'a> {
    #[inline]
    fn program(self, rank: usize) -> &'a [TraceOp] {
        match self {
            Simulated::World(trace) | Simulated::Symmetric(trace, _) => &trace.ranks[rank].ops,
            Simulated::Node0(folded) => &folded.representatives()[rank],
        }
    }
}

/// Make `dest`, blocked on the message arriving at `arrival`, runnable.
fn wake(
    ranks: &mut [RankRuntime],
    queue: &mut CalendarQueue,
    ties: &impl TieOrder,
    dest: usize,
    arrival: Nanos,
) {
    ranks[dest].state = RankState::Runnable;
    let wake = arrival.max(ranks[dest].ready_time);
    queue.push(
        wake,
        ties.of(dest, ranks[dest].pc),
        dest as u32,
        ranks[dest].gen,
    );
}

/// Detect whether `trace` folds under `perturbation` and validate it on the
/// way: through its classes when it folds, in full otherwise.  When the
/// class check fails — which it does exactly when the full validation
/// fails — the full validator runs, so the error is always its own.
fn validated_fold(
    trace: &Trace,
    perturbation: Option<&Perturbation>,
) -> Result<Option<FoldedTrace>, SimError> {
    let folded = FoldedTrace::detect_with(trace, perturbation);
    if folded.as_ref().is_none_or(|f| f.validate().is_err()) {
        trace.validate().map_err(SimError::InvalidTrace)?;
    }
    Ok(folded)
}

/// The run-ahead gate: whether a rank may apply its next shared-state op at
/// `(t, tie)` without a queue round-trip.  That is exact when nothing else
/// can happen first — every queued event is later or of a larger class —
/// and nothing is owed outside the queue: pending mirror arrivals of a
/// folded replay are not queue events, so the rank waits until they are
/// applied.
#[inline]
fn may_run_ahead(queue: &mut CalendarQueue, mirror: &[MirrorRx], t: Nanos, tie: u64) -> bool {
    mirror.is_empty() && queue.next_is_after(t, tie)
}

// ---------------------------------------------------------------------------
// Public outcome types
// ---------------------------------------------------------------------------

/// Per-run simulation statistics beyond the makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Messages that crossed the network.
    pub internode_messages: usize,
    /// Messages whose endpoints shared a node.
    pub intranode_messages: usize,
    /// Message bytes that crossed the network.
    pub internode_bytes: usize,
    /// Total simulated NIC injection occupancy summed over nodes.
    pub nic_busy_total: Nanos,
    /// Largest single-node NIC injection occupancy.
    pub nic_busy_max: Nanos,
    /// Number of node-local barrier episodes completed.
    pub barrier_episodes: usize,
    /// Total application compute time ([`TraceOp::Compute`]) summed over
    /// ranks.
    pub compute_total: Nanos,
    /// Retransmissions performed by the drop/retry model (0 on a healthy
    /// fabric).
    pub retries: usize,
    /// Message bytes retransmitted by the drop/retry model.
    pub retransmitted_bytes: usize,
    /// Median rank-finish skew: the median of `finish - earliest_finish`
    /// over ranks (0 when every rank finishes together).
    pub finish_skew_p50: Nanos,
    /// 99th-percentile rank-finish skew (nearest-rank percentile).
    pub finish_skew_p99: Nanos,
}

/// Rank-finish skew percentiles from class-sorted finish times.
///
/// `sorted` holds one finish time per equivalence class in ascending order
/// and `stride` is the class multiplicity: the full world's sorted finish
/// array has `sorted[i / stride]` at position `i`.  The full replay passes
/// the whole world with `stride == 1`; the folded replay passes node 0's
/// classes with `stride == nodes`, which reproduces the full replay's
/// percentiles bit for bit because class members finish at bitwise-equal
/// times.
pub(crate) fn skew_percentiles(sorted: &[Nanos], world: usize, stride: usize) -> (Nanos, Nanos) {
    if sorted.is_empty() || world == 0 {
        return (0.0, 0.0);
    }
    let lo = sorted[0];
    let pick = |p: f64| {
        let idx = ((world - 1) as f64 * p).round() as usize;
        sorted[(idx / stride).min(sorted.len() - 1)] - lo
    };
    (pick(0.50), pick(0.99))
}

/// The outcome of replaying one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Completion time of the whole schedule (maximum over ranks).
    pub makespan: Nanos,
    /// Per-rank completion times.  Empty when the run was configured with
    /// [`RunOptions::record_rank_finish`] set to `false`.
    pub rank_finish: Vec<Nanos>,
    /// Aggregate statistics.
    pub stats: SimStats,
}

/// A receive that can never complete because the matching message exhausted
/// its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarvedRecv {
    /// The receiving rank.
    pub rank: usize,
    /// The sending rank whose message was never delivered.
    pub source: usize,
    /// The message tag.
    pub tag: u64,
    /// Transmission attempts made before giving up (`max_retries + 1`).
    pub attempts: u32,
}

/// Structured description of a run that failed under the drop model: the
/// fabric lost messages beyond their retry budget, so the schedule cannot
/// complete — reported instead of an indistinguishable deadlock (and, in a
/// real system, instead of a hang).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFailure {
    /// Receives starved by undeliverable messages, sorted by
    /// `(rank, source, tag)`.
    pub starved: Vec<StarvedRecv>,
    /// Every rank that never completed its program (a superset of the
    /// starved receivers: ranks upstream of a starved rank stall too).
    pub stuck_ranks: Vec<usize>,
}

/// Errors the engine can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The trace failed structural validation.
    InvalidTrace(TraceError),
    /// The schedule deadlocked: some ranks can never make progress (their
    /// receives or barriers are never satisfied).
    Deadlock {
        /// Ranks that never completed their programs.
        stuck_ranks: Vec<usize>,
    },
    /// The drop model exhausted at least one message's retry budget, so the
    /// schedule cannot complete.  Unlike [`SimError::Deadlock`] this names
    /// the starved `(rank, tag)` pairs, distinguishing fabric loss from a
    /// schedule bug.
    Failure(SimFailure),
    /// A directly-replayed folded trace was given a non-identity
    /// [`Perturbation`]: its per-link and per-message draws make node 0
    /// unrepresentative and the full trace is not available to fall back
    /// to.  Use [`SimEngine::run_with`] instead.
    AsymmetricPerturbation,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidTrace(err) => write!(f, "invalid trace: {err}"),
            SimError::Deadlock { stuck_ranks } => {
                write!(f, "simulation deadlocked; stuck ranks: {stuck_ranks:?}")
            }
            SimError::Failure(failure) => {
                let first = failure.starved.first();
                write!(
                    f,
                    "simulation failed: {} message(s) exhausted the retry budget",
                    failure.starved.len()
                )?;
                if let Some(s) = first {
                    write!(
                        f,
                        " (first starved recv: rank {} from {} tag {} after {} attempts)",
                        s.rank, s.source, s.tag, s.attempts
                    )?;
                }
                write!(f, "; stuck ranks: {:?}", failure.stuck_ranks)
            }
            SimError::AsymmetricPerturbation => write!(
                f,
                "folded replay requires an unperturbed fabric; \
                 replay the full trace instead"
            ),
        }
    }
}

impl std::error::Error for SimError {}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The discrete-event simulator.
#[derive(Debug)]
pub struct SimEngine {
    params: SimParams,
}

impl SimEngine {
    /// Create an engine with the given parameters.
    pub fn new(params: SimParams) -> Self {
        Self { params }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Bucket width for the calendar queue: a small multiple of the NIC
    /// injection gap, which is the natural spacing between events in a
    /// message-dominated schedule.
    fn bucket_width(&self) -> Nanos {
        (self.params.nic.nic_message_gap * 8.0).max(1.0)
    }

    /// Replay `trace` and return completion times and statistics.
    pub fn run(&self, trace: &Trace) -> Result<SimOutcome, SimError> {
        self.run_with(trace, RunOptions::default())
    }

    /// Replay `trace` with explicit recording options.
    ///
    /// Every rank is simulated.  When the trace folds under the run's
    /// perturbation ([`FoldedTrace::detect_with`]), equal-time events are
    /// ordered by the fold's static tie classes, so the replay is
    /// node-symmetric and [`Self::run_folded_with`] reproduces it exactly;
    /// otherwise ties break in insertion order.
    ///
    /// Detection runs first: a trace that folds is validated through its
    /// classes ([`FoldedTrace::validate`]), any other in full
    /// ([`Trace::validate`]), and an invalid trace is always reported with
    /// the full validator's error.
    pub fn run_with(&self, trace: &Trace, options: RunOptions) -> Result<SimOutcome, SimError> {
        let folded = validated_fold(trace, options.perturbation.as_ref())?;
        let simulated = match &folded {
            Some(folded) => Simulated::Symmetric(trace, folded),
            None => Simulated::World(trace),
        };
        self.replay(simulated, options)
    }

    /// Replay `trace` with the seed heap-based scheduler (see
    /// `crate::reference`).  Kept for differential testing and as the
    /// baseline the calendar engine is benchmarked against.
    pub fn run_reference(&self, trace: &Trace) -> Result<SimOutcome, SimError> {
        crate::reference::replay(&self.params, trace, RunOptions::default())
    }

    /// [`Self::run_reference`] with explicit options, including
    /// perturbation — this is what the chaos-differential suite pins the
    /// calendar engine against.
    pub fn run_reference_with(
        &self,
        trace: &Trace,
        options: RunOptions,
    ) -> Result<SimOutcome, SimError> {
        crate::reference::replay(&self.params, trace, options)
    }

    /// Replay `trace`, folding it by symmetry when possible.
    ///
    /// When [`FoldedTrace::detect`] finds a node-transitive symmetry, only
    /// node 0's ranks are simulated and the result — a deadlock's stuck
    /// ranks included — is projected onto the full world; otherwise this is
    /// the full replay.  The outcome is identical to [`Self::run`] up to
    /// float accumulation order in `compute_total`, `nic_busy_total` and
    /// `nic_busy_max`.
    pub fn run_folded(&self, trace: &Trace) -> Result<SimOutcome, SimError> {
        self.run_folded_with(trace, RunOptions::default())
    }

    /// [`Self::run_folded`] with explicit recording options.
    ///
    /// A non-identity [`Perturbation`] (per-link jitter or drops) makes
    /// node 0 unrepresentative, so detection refuses to fold and the full
    /// world is replayed.  Validation follows detection as in
    /// [`Self::run_with`]: through the classes when the trace folds, in full
    /// otherwise, with the full validator's error either way.
    pub fn run_folded_with(
        &self,
        trace: &Trace,
        options: RunOptions,
    ) -> Result<SimOutcome, SimError> {
        match validated_fold(trace, options.perturbation.as_ref())? {
            Some(folded) => self.replay(Simulated::Node0(&folded), options),
            None => self.replay(Simulated::World(trace), options),
        }
    }

    /// Replay an already-folded trace directly.
    ///
    /// This skips detection and full-trace validation, which is the point:
    /// at projection scale (10^5–10^6 ranks) the full trace is never
    /// materialized.  The caller vouches for the symmetry (e.g. via
    /// [`FoldedTrace::detect`] or probe-verified compilation).  A reported
    /// deadlock names every rank of each stuck equivalence class.
    ///
    /// Only the identity perturbation is accepted: the full trace is not
    /// available to fall back to, so any config with per-link or
    /// per-message draws is rejected with
    /// [`SimError::AsymmetricPerturbation`] rather than silently producing
    /// a node-0-only approximation.
    pub fn run_folded_trace(
        &self,
        folded: &FoldedTrace,
        options: RunOptions,
    ) -> Result<SimOutcome, SimError> {
        if options
            .perturbation
            .as_ref()
            .is_some_and(|p| !p.is_identity())
        {
            return Err(SimError::AsymmetricPerturbation);
        }
        self.replay(Simulated::Node0(folded), options)
    }

    /// The one event loop.  Callers validate; this only replays.  A trace
    /// that folds is replayed with its tie classes, any other in insertion
    /// order.
    fn replay(
        &self,
        simulated: Simulated<'_>,
        options: RunOptions,
    ) -> Result<SimOutcome, SimError> {
        match simulated {
            Simulated::World(_) => self.replay_in(simulated, options, &InsertionOrder),
            Simulated::Symmetric(trace, folded) => {
                let ties = TieClasses::new(folded, trace.topology.world_size());
                self.replay_in(simulated, options, &ties)
            }
            Simulated::Node0(folded) => {
                let ties = TieClasses::new(folded, folded.topology().ppn());
                self.replay_in(simulated, options, &ties)
            }
        }
    }

    /// [`Self::replay`] under the tie order `ties`.
    fn replay_in(
        &self,
        simulated: Simulated<'_>,
        options: RunOptions,
        ties: &impl TieOrder,
    ) -> Result<SimOutcome, SimError> {
        let (topology, folded) = match simulated {
            Simulated::World(trace) | Simulated::Symmetric(trace, _) => (trace.topology, None),
            Simulated::Node0(folded) => (folded.topology(), Some(folded)),
        };
        let world = topology.world_size();
        // A folded replay simulates node 0 and stands for `copies` of it.
        let copies = if folded.is_some() {
            topology.nodes()
        } else {
            1
        };
        let sim_ranks = world / copies;
        let sim_nodes = topology.nodes() / copies;
        let nic = self.params.nic_model();
        let intranode = self.params.intranode;

        let mut ranks: Vec<RankRuntime> = (0..sim_ranks).map(|_| RankRuntime::fresh()).collect();
        // Node-level NIC resources of the simulated nodes.
        let mut tx_free = vec![0.0f64; sim_nodes];
        let mut rx_free = vec![0.0f64; sim_nodes];
        let mut nic_busy = vec![0.0f64; sim_nodes];
        let mut mailboxes: Vec<Mailbox> = (0..sim_ranks).map(|_| Mailbox::default()).collect();
        let mut barriers: Vec<BarrierSlot> =
            (0..sim_nodes).map(|_| BarrierSlot::default()).collect();
        let mut release_buf: Vec<u32> = Vec::new();

        let mut stats = SimStats::default();
        let mut queue = CalendarQueue::new(self.bucket_width(), sim_ranks);
        // Only unperturbed runs are folded (perturbed ones are rejected or
        // replayed in full): every perturbation draws per link or per
        // message, so node 0 would not stand for every node.
        debug_assert!(
            folded.is_none()
                || options
                    .perturbation
                    .as_ref()
                    .is_none_or(Perturbation::is_identity)
        );
        let perturb = PerturbState::new(options.perturbation.as_ref());
        // Receives starved by messages whose retry budget was exhausted.
        let mut starved: Vec<StarvedRecv> = Vec::new();
        // Folded replay only: the mirror arrivals owed to node 0, all
        // registered at one simulated instant (`mirror_time`).
        let mut mirror: Vec<MirrorRx> = Vec::new();
        let mut mirror_time = 0.0f64;

        // Chunked pipelines repeat one op shape thousands of times; a
        // one-entry memo per local-op kind turns the repeated cost-model
        // evaluation into a compare and an add.
        let mut reduce_memo: (usize, Nanos) = (usize::MAX, 0.0);
        let mut codec_memo: (usize, Nanos) = (usize::MAX, 0.0);
        let mut copy_memo: (usize, Option<IntranodeMechanism>, Nanos) = (usize::MAX, None, 0.0);

        for rank in 0..sim_ranks {
            queue.push(0.0, ties.of(rank, 0), rank as u32, 0);
        }

        loop {
            let ev = queue.pop();
            if !mirror.is_empty() && ev.is_none_or(|e| e.time.total_cmp(&mirror_time).is_gt()) {
                // Time is about to move past the batch: apply it in the
                // order the full replay's scheduler would process the
                // mirror sends.  All of them happen at one instant, where
                // the full replay orders events by tie class; each mirror
                // sender shares its node-0 image's class, and no two
                // senders to one node share a class.  A stable sort by
                // class (append order for one rank's sends) therefore
                // reproduces the full interleaving.
                mirror.sort_by_key(|m| m.tie);
                for m in mirror.drain(..) {
                    let arrival = land(&mut rx_free[0], &mut nic_busy[0], m.rx_ready, m.occupancy);
                    if mailboxes[m.dest].deliver(m.source, m.tag, arrival) {
                        wake(&mut ranks, &mut queue, ties, m.dest, arrival);
                    }
                }
                if let Some(ev) = ev {
                    queue.reinsert(ev);
                }
                continue;
            }
            let Some(ev) = ev else { break };
            let rank = ev.rank as usize;
            if ev.gen != ranks[rank].gen {
                // Stale wakeup from before the rank last blocked/finished.
                continue;
            }
            let mut now = ev.time.max(ranks[rank].ready_time);
            let ops = simulated.program(rank);
            // Chain purely rank-local ops without queue round-trips; break
            // (and re-queue) before anything touching shared state.
            let mut chained = false;
            loop {
                let pc = ranks[rank].pc;
                if pc >= ops.len() {
                    ranks[rank].state = RankState::Finished;
                    ranks[rank].finish_time = now;
                    ranks[rank].gen = ranks[rank].gen.wrapping_add(1);
                    break;
                }
                let op = ops[pc];
                let shared = matches!(
                    op,
                    TraceOp::Send { .. } | TraceOp::Recv { .. } | TraceOp::LocalBarrier
                );
                // A chained rank may only touch shared state (NIC slots,
                // mailboxes, barriers) if it may run ahead to its advanced
                // clock — applying the op right away is then
                // indistinguishable from a re-queue immediately followed by
                // the pop of that same event.  Otherwise resume through the
                // queue so claims happen in global `(time, class)` order.
                if shared && chained {
                    let tie = ties.of(rank, ranks[rank].pc);
                    if !may_run_ahead(&mut queue, &mirror, now, tie) {
                        ranks[rank].ready_time = now;
                        queue.push(now, tie, ev.rank, ranks[rank].gen);
                        break;
                    }
                }
                match op {
                    TraceOp::Delay { nanos } => {
                        now += nanos.max(0.0);
                        ranks[rank].pc += 1;
                        chained = true;
                    }
                    TraceOp::Compute { nanos } => {
                        // Same timeline effect as a delay; accounted
                        // separately so overlap efficiency can be derived
                        // from the stats.
                        let busy = nanos.max(0.0);
                        stats.compute_total += busy;
                        now += busy;
                        ranks[rank].pc += 1;
                        chained = true;
                    }
                    TraceOp::Reduce { bytes } => {
                        if reduce_memo.0 != bytes {
                            reduce_memo = (bytes, self.params.memcpy.reduce_cost(bytes));
                        }
                        now += reduce_memo.1;
                        ranks[rank].pc += 1;
                        chained = true;
                    }
                    TraceOp::Codec { bytes } => {
                        // A codec pass streams the raw payload once at copy
                        // speed; no reduction-arithmetic surcharge.
                        if codec_memo.0 != bytes {
                            codec_memo = (bytes, self.params.memcpy.copy_cost(bytes));
                        }
                        now += codec_memo.1;
                        ranks[rank].pc += 1;
                        chained = true;
                    }
                    TraceOp::CopyIntra { bytes, mechanism } => {
                        if copy_memo.0 != bytes || copy_memo.1 != mechanism {
                            let cost_model = mechanism
                                .map(IntranodeCost::defaults_for)
                                .unwrap_or(intranode);
                            copy_memo = (bytes, mechanism, cost_model.transfer_cost(bytes, false));
                        }
                        now += copy_memo.2;
                        ranks[rank].pc += 1;
                        chained = true;
                    }
                    TraceOp::Send { dest, bytes, tag } => {
                        let src_node = topology.node_of(rank);
                        let dst_node = topology.node_of(dest);
                        let (sender_done, arrival) = if rank == dest {
                            // Self message: a local copy.
                            let done = now + self.params.memcpy.copy_cost(bytes);
                            (done, Some(done))
                        } else if src_node == dst_node {
                            stats.intranode_messages += 1;
                            let cost = intranode.transfer_cost(bytes, false)
                                + self.params.software_send_overhead;
                            let done = now + cost;
                            (done, Some(done))
                        } else {
                            stats.internode_messages += 1;
                            stats.internode_bytes += bytes;
                            let sender_done = now
                                + nic.host_send_overhead(bytes)
                                + self.params.software_send_overhead;
                            let occupancy = nic.nic_occupancy(bytes);
                            // The drop fate is a pure hash of (rank, pc), so
                            // both engines agree on it regardless of event
                            // order.  Retransmissions serialize on the
                            // sender's adapter; the host-side send call
                            // returns as usual (the NIC retries on its own).
                            let fate = perturb.send_fate(rank, pc);
                            let tx_start = sender_done.max(tx_free[src_node]);
                            let tx_end = perturb.retransmit_chain(
                                tx_start + occupancy,
                                occupancy,
                                fate.retries,
                            );
                            tx_free[src_node] = tx_end;
                            nic_busy[src_node] += occupancy * (1 + fate.retries) as f64;
                            stats.retries += fate.retries as usize;
                            stats.retransmitted_bytes += bytes * fate.retries as usize;
                            let rx_ready = tx_end
                                + nic.wire_latency()
                                + perturb.extra_latency(src_node, dst_node);
                            if !fate.delivered {
                                starved.push(StarvedRecv {
                                    rank: dest,
                                    source: rank,
                                    tag,
                                    attempts: fate.retries + 1,
                                });
                                (sender_done, None)
                            } else if let Some(folded) = folded {
                                // By symmetry the node the group maps onto
                                // node 0 sends node 0 the mirror image of
                                // this message at this same moment.
                                let src_node = folded.mirror_source_node(dst_node);
                                if mirror.is_empty() {
                                    mirror_time = now;
                                }
                                mirror.push(MirrorRx {
                                    tie: ties.of(rank, ranks[rank].pc),
                                    source: topology.rank_of(src_node, rank) as u32,
                                    dest: topology.local_rank_of(dest),
                                    tag,
                                    rx_ready,
                                    occupancy,
                                });
                                (sender_done, None)
                            } else {
                                let arrival = land(
                                    &mut rx_free[dst_node],
                                    &mut nic_busy[dst_node],
                                    rx_ready,
                                    occupancy,
                                );
                                (sender_done, Some(arrival))
                            }
                        };
                        if let Some(arrival) = arrival {
                            if mailboxes[dest].deliver(rank as u32, tag, arrival) {
                                // Wake the receiver blocked on this message.
                                wake(&mut ranks, &mut queue, ties, dest, arrival);
                            }
                        }
                        ranks[rank].pc += 1;
                        ranks[rank].ready_time = sender_done;
                        // Run-ahead: keep executing this rank if nothing
                        // else is scheduled before its send completes (the
                        // receiver wake above is already queued and counts).
                        let tie = ties.of(rank, ranks[rank].pc);
                        if may_run_ahead(&mut queue, &mirror, sender_done, tie) {
                            now = sender_done;
                            chained = false;
                            continue;
                        }
                        queue.push(sender_done, tie, ev.rank, ranks[rank].gen);
                        break;
                    }
                    TraceOp::Recv { source, bytes, tag } => {
                        match mailboxes[rank].consume(source as u32, tag) {
                            Some(arrival) => {
                                let same_node = topology.same_node(source, rank);
                                let recv_cost = if same_node || source == rank {
                                    INTRA_RECV_FLAG_COST + self.params.software_recv_overhead
                                } else {
                                    nic.host_recv_overhead(bytes)
                                        + self.params.software_recv_overhead
                                };
                                let done = now.max(arrival) + recv_cost;
                                ranks[rank].pc += 1;
                                ranks[rank].ready_time = done;
                                let tie = ties.of(rank, ranks[rank].pc);
                                if may_run_ahead(&mut queue, &mirror, done, tie) {
                                    now = done;
                                    chained = false;
                                    continue;
                                }
                                queue.push(done, tie, ev.rank, ranks[rank].gen);
                            }
                            None => {
                                ranks[rank].state = RankState::BlockedOnRecv;
                                ranks[rank].ready_time = now;
                                ranks[rank].gen = ranks[rank].gen.wrapping_add(1);
                            }
                        }
                        break;
                    }
                    TraceOp::LocalBarrier => {
                        let node = topology.node_of(rank);
                        let ppn = topology.ppn();
                        let slot = &mut barriers[node];
                        slot.arrived += 1;
                        slot.latest = slot.latest.max(now);
                        if slot.arrived == ppn {
                            let release = slot.latest + self.params.barrier_cost(ppn);
                            stats.barrier_episodes += 1;
                            release_buf.clear();
                            release_buf.append(&mut slot.waiters);
                            release_buf.push(ev.rank);
                            slot.arrived = 0;
                            slot.latest = 0.0;
                            for &waiter in &release_buf {
                                let w = waiter as usize;
                                ranks[w].state = RankState::Runnable;
                                ranks[w].pc += 1;
                                ranks[w].ready_time = release;
                                queue.push(release, ties.of(w, ranks[w].pc), waiter, ranks[w].gen);
                            }
                        } else {
                            slot.waiters.push(ev.rank);
                            ranks[rank].state = RankState::BlockedOnBarrier;
                            ranks[rank].ready_time = now;
                            ranks[rank].gen = ranks[rank].gen.wrapping_add(1);
                        }
                        break;
                    }
                }
            }
        }

        // Every rank must have drained its program; otherwise the schedule
        // deadlocked (validation catches most causes, but e.g. circular
        // waits are only detectable here) — unless the drop model starved
        // messages, in which case the structured failure names them.
        if ranks.iter().any(|r| r.state != RankState::Finished) {
            // World rank `r` is simulated by rank `r mod sim_ranks`, as for
            // `rank_finish` below: a folded replay's stuck representative
            // stands for its whole class.
            let stuck: Vec<usize> = (0..world)
                .filter(|&rank| ranks[rank % sim_ranks].state != RankState::Finished)
                .collect();
            if starved.is_empty() {
                return Err(SimError::Deadlock { stuck_ranks: stuck });
            }
            starved.sort_unstable_by_key(|s| (s.rank, s.source, s.tag));
            return Err(SimError::Failure(SimFailure {
                starved,
                stuck_ranks: stuck,
            }));
        }

        // Project the simulated nodes onto the world (the identity for a
        // full replay, where `copies == 1`): integer counters scale
        // exactly; the float totals are `copies * x` where the full replay
        // sums `copies` bitwise-identical per-node values.
        let n = copies as f64;
        stats.internode_messages *= copies;
        stats.intranode_messages *= copies;
        stats.internode_bytes *= copies;
        stats.barrier_episodes *= copies;
        stats.compute_total *= n;
        stats.nic_busy_total = nic_busy.iter().sum::<Nanos>() * n;
        stats.nic_busy_max = nic_busy.iter().copied().fold(0.0, Nanos::max);

        // Each class finish time occurs `copies` times in the world's
        // sorted finish array, so the percentile lookup strides by
        // `copies` and reproduces the full replay's skew bit for bit.
        let mut sorted_finish: Vec<Nanos> = ranks.iter().map(|r| r.finish_time).collect();
        sorted_finish.sort_unstable_by(|a, b| a.total_cmp(b));
        (stats.finish_skew_p50, stats.finish_skew_p99) =
            skew_percentiles(&sorted_finish, world, copies);

        let makespan = ranks.iter().map(|r| r.finish_time).fold(0.0, Nanos::max);
        let rank_finish = if options.record_rank_finish {
            // World rank `r` is simulated by rank `r`, or by its class
            // representative `r mod ppn` on node 0.
            (0..world)
                .map(|rank| ranks[rank % sim_ranks].finish_time)
                .collect()
        } else {
            Vec::new()
        };
        Ok(SimOutcome {
            makespan,
            rank_finish,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_runtime::Topology;
    use pip_transport::cost::IntranodeMechanism;

    fn engine() -> SimEngine {
        SimEngine::new(SimParams::default())
    }

    fn topo(nodes: usize, ppn: usize) -> Topology {
        Topology::new(nodes, ppn)
    }

    #[test]
    fn empty_trace_completes_at_time_zero() {
        let trace = Trace::empty(topo(2, 2));
        let outcome = engine().run(&trace).unwrap();
        assert_eq!(outcome.makespan, 0.0);
        assert_eq!(outcome.stats.internode_messages, 0);
    }

    #[test]
    fn single_internode_message_latency_matches_model() {
        let mut trace = Trace::empty(topo(2, 1));
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 64,
                tag: 0,
            },
        );
        trace.push(
            1,
            TraceOp::Recv {
                source: 0,
                bytes: 64,
                tag: 0,
            },
        );
        let engine = engine();
        let outcome = engine.run(&trace).unwrap();
        let nic = engine.params().nic_model();
        let expected = nic.host_send_overhead(64)
            + 2.0 * nic.nic_occupancy(64)
            + nic.wire_latency()
            + nic.host_recv_overhead(64);
        assert!((outcome.makespan - expected).abs() < 1e-6);
        assert_eq!(outcome.stats.internode_messages, 1);
        assert_eq!(outcome.stats.internode_bytes, 64);
    }

    #[test]
    fn intranode_message_bypasses_the_nic() {
        let mut trace = Trace::empty(topo(1, 2));
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 64,
                tag: 0,
            },
        );
        trace.push(
            1,
            TraceOp::Recv {
                source: 0,
                bytes: 64,
                tag: 0,
            },
        );
        let outcome = engine().run(&trace).unwrap();
        assert_eq!(outcome.stats.internode_messages, 0);
        assert_eq!(outcome.stats.intranode_messages, 1);
        assert_eq!(outcome.stats.nic_busy_total, 0.0);
        // Intra-node through PiP is far cheaper than crossing the wire.
        assert!(outcome.makespan < 1000.0);
    }

    #[test]
    fn recv_posted_before_send_still_completes() {
        // Rank 1 (receiver) is scheduled first but must block and be woken.
        let mut trace = Trace::empty(topo(2, 1));
        trace.push(
            1,
            TraceOp::Recv {
                source: 0,
                bytes: 8,
                tag: 9,
            },
        );
        trace.push(0, TraceOp::Delay { nanos: 5000.0 });
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 8,
                tag: 9,
            },
        );
        let outcome = engine().run(&trace).unwrap();
        assert!(outcome.makespan > 5000.0);
        assert!(outcome.rank_finish[1] >= outcome.rank_finish[0]);
    }

    #[test]
    fn nic_serializes_messages_from_the_same_node() {
        // Two senders on node 0 each send 8 messages to node 1; the node's
        // adapter must serialize them, so the makespan exceeds a single
        // sender's host overhead chain.
        let messages = 8;
        let mut trace = Trace::empty(topo(2, 2));
        for sender in [0usize, 1] {
            for m in 0..messages {
                trace.push(
                    sender,
                    TraceOp::Send {
                        dest: 2 + sender,
                        bytes: 16,
                        tag: m,
                    },
                );
            }
        }
        for receiver in [2usize, 3] {
            for m in 0..messages {
                trace.push(
                    receiver,
                    TraceOp::Recv {
                        source: receiver - 2,
                        bytes: 16,
                        tag: m,
                    },
                );
            }
        }
        let engine = engine();
        let outcome = engine.run(&trace).unwrap();
        let nic = engine.params().nic_model();
        // Lower bound: the NIC must inject 16 messages back to back.
        let nic_bound = 16.0 * nic.nic_occupancy(16);
        assert!(outcome.stats.nic_busy_max >= nic_bound - 1e-6);
        assert!(outcome.makespan > nic_bound);
    }

    #[test]
    fn multiple_senders_beat_a_single_sender_for_many_small_messages() {
        // The multi-object premise: sending N messages from one process is
        // slower than sending N/k messages from each of k processes on the
        // same node, because host overhead dominates small messages.
        let total_messages = 32;
        let nodes = 2;

        // Single sender.
        let mut single = Trace::empty(topo(nodes, 4));
        for m in 0..total_messages {
            single.push(
                0,
                TraceOp::Send {
                    dest: 4,
                    bytes: 32,
                    tag: m as u64,
                },
            );
            single.push(
                4,
                TraceOp::Recv {
                    source: 0,
                    bytes: 32,
                    tag: m as u64,
                },
            );
        }

        // Four senders, four receivers.
        let mut multi = Trace::empty(topo(nodes, 4));
        for m in 0..total_messages {
            let sender = m % 4;
            let receiver = 4 + m % 4;
            multi.push(
                sender,
                TraceOp::Send {
                    dest: receiver,
                    bytes: 32,
                    tag: m as u64,
                },
            );
            multi.push(
                receiver,
                TraceOp::Recv {
                    source: sender,
                    bytes: 32,
                    tag: m as u64,
                },
            );
        }

        let engine = engine();
        let t_single = engine.run(&single).unwrap().makespan;
        let t_multi = engine.run(&multi).unwrap().makespan;
        assert!(
            t_multi < t_single / 2.0,
            "multi-object ({t_multi:.0} ns) should be well under half of single-object ({t_single:.0} ns)"
        );
    }

    #[test]
    fn barrier_releases_all_ranks_at_the_same_time() {
        let mut trace = Trace::empty(topo(1, 4));
        trace.push(0, TraceOp::Delay { nanos: 1000.0 });
        for rank in 0..4 {
            trace.push(rank, TraceOp::LocalBarrier);
        }
        let outcome = engine().run(&trace).unwrap();
        let finish = &outcome.rank_finish;
        for rank in 1..4 {
            assert!((finish[rank] - finish[0]).abs() < 1e-9);
        }
        assert!(outcome.makespan >= 1000.0);
        assert_eq!(outcome.stats.barrier_episodes, 1);
    }

    #[test]
    fn barriers_only_synchronize_within_a_node() {
        let mut trace = Trace::empty(topo(2, 2));
        // Node 0 ranks barrier quickly; node 1 ranks delay first.
        for rank in [0usize, 1] {
            trace.push(rank, TraceOp::LocalBarrier);
        }
        for rank in [2usize, 3] {
            trace.push(rank, TraceOp::Delay { nanos: 10_000.0 });
            trace.push(rank, TraceOp::LocalBarrier);
        }
        let outcome = engine().run(&trace).unwrap();
        assert!(outcome.rank_finish[0] < 1000.0);
        assert!(outcome.rank_finish[2] >= 10_000.0);
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let mut trace = Trace::empty(topo(1, 2));
        // Rank 0 waits for a message that is sent only after rank 1's own
        // receive from rank 0 — a classic circular wait.
        trace.push(
            0,
            TraceOp::Recv {
                source: 1,
                bytes: 8,
                tag: 0,
            },
        );
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 8,
                tag: 0,
            },
        );
        trace.push(
            1,
            TraceOp::Recv {
                source: 0,
                bytes: 8,
                tag: 0,
            },
        );
        trace.push(
            1,
            TraceOp::Send {
                dest: 0,
                bytes: 8,
                tag: 0,
            },
        );
        let err = SimEngine::new(SimParams::default())
            .run(&trace)
            .unwrap_err();
        match err {
            SimError::Deadlock { stuck_ranks } => {
                assert_eq!(stuck_ranks, vec![0, 1]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn invalid_trace_is_rejected_before_running() {
        let mut trace = Trace::empty(topo(1, 2));
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 8,
                tag: 0,
            },
        );
        // No matching receive.
        let engine = engine();
        for result in [
            engine.run(&trace),
            engine.run_folded(&trace),
            engine.run_folded_with(&trace, RunOptions::summary()),
        ] {
            assert!(matches!(result.unwrap_err(), SimError::InvalidTrace(_)));
        }
    }

    #[test]
    fn cma_intranode_transport_is_slower_than_pip_for_small_messages() {
        let mut trace = Trace::empty(topo(1, 2));
        for m in 0..16u64 {
            trace.push(
                0,
                TraceOp::Send {
                    dest: 1,
                    bytes: 16,
                    tag: m,
                },
            );
            trace.push(
                1,
                TraceOp::Recv {
                    source: 0,
                    bytes: 16,
                    tag: m,
                },
            );
        }
        let pip = SimEngine::new(SimParams::default()).run(&trace).unwrap();
        let cma = SimEngine::new(SimParams::default().with_intranode(IntranodeMechanism::Cma))
            .run(&trace)
            .unwrap();
        assert!(cma.makespan > pip.makespan * 2.0);
    }

    #[test]
    fn determinism_identical_runs_identical_results() {
        let mut trace = Trace::empty(topo(4, 3));
        for rank in 0..12usize {
            let peer = (rank + 3) % 12;
            trace.push(
                rank,
                TraceOp::Send {
                    dest: peer,
                    bytes: 128,
                    tag: 7,
                },
            );
            let from = (rank + 12 - 3) % 12;
            trace.push(
                rank,
                TraceOp::Recv {
                    source: from,
                    bytes: 128,
                    tag: 7,
                },
            );
            trace.push(rank, TraceOp::LocalBarrier);
        }
        let a = engine().run(&trace).unwrap();
        let b = engine().run(&trace).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn self_send_is_a_local_copy() {
        let mut trace = Trace::empty(topo(1, 1));
        trace.push(
            0,
            TraceOp::Send {
                dest: 0,
                bytes: 1024,
                tag: 0,
            },
        );
        trace.push(
            0,
            TraceOp::Recv {
                source: 0,
                bytes: 1024,
                tag: 0,
            },
        );
        let outcome = engine().run(&trace).unwrap();
        assert_eq!(outcome.stats.internode_messages, 0);
        assert!(outcome.makespan < 5000.0);
    }

    #[test]
    fn software_overhead_increases_every_message_cost() {
        let mut trace = Trace::empty(topo(2, 1));
        for m in 0..4u64 {
            trace.push(
                0,
                TraceOp::Send {
                    dest: 1,
                    bytes: 8,
                    tag: m,
                },
            );
            trace.push(
                1,
                TraceOp::Recv {
                    source: 0,
                    bytes: 8,
                    tag: m,
                },
            );
        }
        let base = SimEngine::new(SimParams::default()).run(&trace).unwrap();
        let taxed = SimEngine::new(SimParams::default().with_software_overhead(500.0, 500.0))
            .run(&trace)
            .unwrap();
        assert!(taxed.makespan > base.makespan + 4.0 * 500.0 - 1.0);
    }

    #[test]
    fn same_key_messages_are_received_in_send_order() {
        // Ranks 1 and 2 (nodes 1 and 2) each post three same-tag messages to
        // rank 0 before it posts a receive.  Rank 0's adapter lands them
        // alternately, one occupancy apart: A1 B1 A2 B2 A3 B3, with A_j at
        // `o_send + L + 2j occupancy` and B_j one occupancy later.  Rank 0
        // takes A's three, then B's three: a mailbox that reorders one key's
        // messages while removing another's hands B3 to the receive of B1.
        const BYTES: usize = 65_536;
        const START: Nanos = 5_000.0;
        let engine = engine();
        let nic = engine.params().nic_model();
        let occupancy = nic.nic_occupancy(BYTES);
        let arrival = |source: usize, j: usize| {
            nic.host_send_overhead(BYTES)
                + nic.wire_latency()
                + (2 * j + source - 1) as Nanos * occupancy
        };
        let order = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)];
        let mut done = START;
        for received in 1..=order.len() {
            // Rank 0 posts only the first `received` receives, so its finish
            // time is that receive's completion; the trace is replayed
            // without validation because the rest of the messages stay
            // pending.
            let mut trace = Trace::empty(topo(3, 1));
            for source in [1, 2] {
                for _ in 0..3 {
                    let send = TraceOp::Send {
                        dest: 0,
                        bytes: BYTES,
                        tag: 5,
                    };
                    trace.push(source, send);
                }
            }
            trace.push(0, TraceOp::Delay { nanos: START });
            for &(source, _) in &order[..received] {
                let recv = TraceOp::Recv {
                    source,
                    bytes: BYTES,
                    tag: 5,
                };
                trace.push(0, recv);
            }
            let (source, j) = order[received - 1];
            done = done.max(arrival(source, j)) + nic.host_recv_overhead(BYTES);
            let outcome = engine
                .replay(Simulated::World(&trace), RunOptions::recorded())
                .unwrap();
            let finish = outcome.rank_finish[0];
            assert!(
                (finish - done).abs() < 1e-6,
                "receive {received} (from {source}, message {j}) completed at {finish}, expected {done}"
            );
        }
    }

    // --- calendar queue ---------------------------------------------------

    #[test]
    fn calendar_queue_pops_in_time_then_seq_order() {
        let mut queue = CalendarQueue::new(10.0, 0);
        // Deliberately scrambled insertion across buckets, plus exact ties.
        for (time, rank) in [
            (55.0, 0u32),
            (5.0, 1),
            (55.0, 2),
            (5000.0, 3),
            (0.0, 4),
            (55.0, 5),
        ] {
            queue.push(time, 0, rank, 0);
        }
        let order: Vec<(Nanos, u32)> = std::iter::from_fn(|| queue.pop())
            .map(|e| (e.time, e.rank))
            .collect();
        assert_eq!(
            order,
            vec![
                (0.0, 4),
                (5.0, 1),
                (55.0, 0),
                (55.0, 2),
                (55.0, 5),
                (5000.0, 3)
            ]
        );
    }

    #[test]
    fn calendar_queue_routes_far_future_events_through_overflow() {
        let mut queue = CalendarQueue::new(1.0, 0);
        // Window is CALENDAR_BUCKETS ns wide; these are far beyond it.
        let horizon = CALENDAR_BUCKETS as f64;
        queue.push(horizon * 1e6, 0, 0, 0);
        queue.push(3.0, 0, 1, 0);
        queue.push(horizon * 2e6, 0, 2, 0);
        assert_eq!(queue.overflow.len(), 2);
        assert_eq!(queue.pop().map(|e| e.rank), Some(1));
        // Popping past the near event must jump-rebase into the overflow.
        assert_eq!(queue.pop().map(|e| e.rank), Some(0));
        assert_eq!(queue.pop().map(|e| e.rank), Some(2));
        assert_eq!(queue.pop().map(|e| e.rank), None);
    }

    #[test]
    fn calendar_queue_reinsert_preserves_tie_order() {
        let mut queue = CalendarQueue::new(10.0, 0);
        queue.push(7.0, 0, 0, 0);
        queue.push(7.0, 0, 1, 0);
        let first = queue.pop().unwrap();
        assert_eq!(first.rank, 0);
        // Re-inserting the earlier-seq event puts it back ahead of the tie.
        queue.reinsert(first);
        assert_eq!(queue.pop().map(|e| e.rank), Some(0));
        assert_eq!(queue.pop().map(|e| e.rank), Some(1));
    }

    #[test]
    fn far_future_delay_routes_through_overflow_and_matches_reference() {
        // A delay of a full second dwarfs the ~84 us calendar window, so
        // the resumption event must take the overflow path; the reference
        // engine pins the expected timing.
        let mut trace = Trace::empty(topo(2, 1));
        trace.push(0, TraceOp::Delay { nanos: 1e9 });
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 64,
                tag: 0,
            },
        );
        trace.push(
            1,
            TraceOp::Recv {
                source: 0,
                bytes: 64,
                tag: 0,
            },
        );
        let engine = engine();
        let calendar = engine.run(&trace).unwrap();
        let reference = engine.run_reference(&trace).unwrap();
        assert!(calendar.makespan > 1e9);
        assert_eq!(calendar.makespan, reference.makespan);
        assert_eq!(calendar.rank_finish, reference.rank_finish);
    }

    // --- determinism and generations --------------------------------------

    fn node_ring_trace(nodes: usize, ppn: usize) -> Trace {
        let topology = topo(nodes, ppn);
        let mut trace = Trace::empty(topology);
        for rank in 0..topology.world_size() {
            let node = topology.node_of(rank);
            let local = topology.local_rank_of(rank);
            let next = topology.rank_of((node + 1) % nodes, local);
            let prev = topology.rank_of((node + nodes - 1) % nodes, local);
            trace.push(
                rank,
                TraceOp::Send {
                    dest: next,
                    bytes: 256,
                    tag: 11,
                },
            );
            trace.push(
                rank,
                TraceOp::Recv {
                    source: prev,
                    bytes: 256,
                    tag: 11,
                },
            );
            trace.push(rank, TraceOp::LocalBarrier);
        }
        trace
    }

    #[test]
    fn determinism_holds_at_paper_scale_topology() {
        // 1024 x 18 = 18432 ranks: large enough that the calendar ring
        // wraps and bucket sorting handles thousands of exact time ties.
        let trace = node_ring_trace(1024, 18);
        let a = engine().run(&trace).unwrap();
        let b = engine().run(&trace).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.stats.internode_messages, 18432);
    }

    #[test]
    fn deadlock_after_partial_progress_reports_exact_stuck_set() {
        // Ranks exchange a healthy round first (so generations have been
        // bumped by real blocking) and then deadlock; the stuck list must
        // name exactly the circularly-waiting ranks, same as the seed
        // engine.
        let mut trace = Trace::empty(topo(2, 2));
        for (a, b) in [(0usize, 2usize), (1, 3)] {
            trace.push(
                a,
                TraceOp::Send {
                    dest: b,
                    bytes: 32,
                    tag: 1,
                },
            );
            trace.push(
                b,
                TraceOp::Recv {
                    source: a,
                    bytes: 32,
                    tag: 1,
                },
            );
        }
        // Now ranks 0 and 2 wait on each other in a cycle; 1 and 3 finish.
        trace.push(
            0,
            TraceOp::Recv {
                source: 2,
                bytes: 8,
                tag: 2,
            },
        );
        trace.push(
            0,
            TraceOp::Send {
                dest: 2,
                bytes: 8,
                tag: 2,
            },
        );
        trace.push(
            2,
            TraceOp::Recv {
                source: 0,
                bytes: 8,
                tag: 2,
            },
        );
        trace.push(
            2,
            TraceOp::Send {
                dest: 0,
                bytes: 8,
                tag: 2,
            },
        );
        let engine = engine();
        let calendar = engine.run(&trace).unwrap_err();
        let reference = engine.run_reference(&trace).unwrap_err();
        assert_eq!(calendar, reference);
        assert!(matches!(
            calendar,
            SimError::Deadlock { ref stuck_ranks } if *stuck_ranks == vec![0, 2]
        ));
    }

    #[test]
    fn calendar_engine_matches_reference_on_mixed_trace() {
        // A trace exercising every op kind, asymmetric across ranks so no
        // folding symmetry hides scheduling differences.
        let topology = topo(3, 2);
        let mut trace = Trace::empty(topology);
        for rank in 0..6usize {
            trace.push(
                rank,
                TraceOp::Delay {
                    nanos: 13.25 * (rank as f64 + 1.0),
                },
            );
            trace.push(rank, TraceOp::Compute { nanos: 40.5 });
            trace.push(rank, TraceOp::Reduce { bytes: 512 });
            let peer = (rank + 2) % 6;
            trace.push(
                rank,
                TraceOp::Send {
                    dest: peer,
                    bytes: 100 + 37 * rank,
                    tag: 5,
                },
            );
            let from = (rank + 4) % 6;
            trace.push(
                rank,
                TraceOp::Recv {
                    source: from,
                    bytes: 100 + 37 * from,
                    tag: 5,
                },
            );
            trace.push(
                rank,
                TraceOp::CopyIntra {
                    bytes: 2048,
                    mechanism: None,
                },
            );
            trace.push(rank, TraceOp::LocalBarrier);
        }
        let engine = engine();
        let calendar = engine.run(&trace).unwrap();
        let reference = engine.run_reference(&trace).unwrap();
        assert_eq!(calendar.makespan, reference.makespan);
        assert_eq!(calendar.rank_finish, reference.rank_finish);
        assert_eq!(
            calendar.stats.internode_messages,
            reference.stats.internode_messages
        );
        assert_eq!(
            calendar.stats.intranode_messages,
            reference.stats.intranode_messages
        );
        assert_eq!(
            calendar.stats.barrier_episodes,
            reference.stats.barrier_episodes
        );
    }

    // --- rank-finish recording --------------------------------------------

    #[test]
    fn summary_only_runs_skip_rank_finish_but_keep_the_rest() {
        let trace = node_ring_trace(3, 2);
        let engine = engine();
        let full = engine.run(&trace).unwrap();
        let summary = engine.run_with(&trace, RunOptions::summary()).unwrap();
        assert!(summary.rank_finish.is_empty());
        assert_eq!(full.rank_finish.len(), 6);
        assert_eq!(summary.makespan, full.makespan);
        assert_eq!(summary.stats, full.stats);
    }

    // --- folded replay ----------------------------------------------------

    #[test]
    fn folded_replay_matches_full_replay_on_a_node_ring() {
        for (nodes, ppn) in [(2usize, 1usize), (4, 3), (5, 2), (8, 4)] {
            let trace = node_ring_trace(nodes, ppn);
            let engine = engine();
            let full = engine.run(&trace).unwrap();
            let folded = engine.run_folded(&trace).unwrap();
            assert_eq!(folded.makespan, full.makespan, "{nodes}x{ppn}");
            assert_eq!(folded.rank_finish, full.rank_finish, "{nodes}x{ppn}");
            assert_eq!(
                folded.stats.internode_messages,
                full.stats.internode_messages
            );
            assert_eq!(
                folded.stats.intranode_messages,
                full.stats.intranode_messages
            );
            assert_eq!(folded.stats.internode_bytes, full.stats.internode_bytes);
            assert_eq!(folded.stats.barrier_episodes, full.stats.barrier_episodes);
            assert!((folded.stats.nic_busy_total - full.stats.nic_busy_total).abs() < 1e-6);
            assert!((folded.stats.nic_busy_max - full.stats.nic_busy_max).abs() < 1e-6);
        }
    }

    #[test]
    fn folded_replay_matches_full_replay_under_xor_symmetry() {
        // Recursive doubling over nodes at every local rank.
        let nodes = 8usize;
        let ppn = 2usize;
        let topology = topo(nodes, ppn);
        let mut trace = Trace::empty(topology);
        let mut mask = 1usize;
        while mask < nodes {
            for rank in 0..topology.world_size() {
                let node = topology.node_of(rank);
                let local = topology.local_rank_of(rank);
                let peer = topology.rank_of(node ^ mask, local);
                trace.push(
                    rank,
                    TraceOp::Send {
                        dest: peer,
                        bytes: 96,
                        tag: mask as u64,
                    },
                );
                trace.push(
                    rank,
                    TraceOp::Recv {
                        source: peer,
                        bytes: 96,
                        tag: mask as u64,
                    },
                );
            }
            mask <<= 1;
        }
        let engine = engine();
        let full = engine.run(&trace).unwrap();
        let folded = engine.run_folded(&trace).unwrap();
        assert_eq!(folded.makespan, full.makespan);
        assert_eq!(folded.rank_finish, full.rank_finish);
    }

    #[test]
    fn unfoldable_traces_fall_back_to_full_replay() {
        // Rooted gather: node 0 is special, so no folding; run_folded must
        // agree with run exactly (it runs the same code path).
        let topology = topo(3, 2);
        let mut trace = Trace::empty(topology);
        for rank in 1..topology.world_size() {
            trace.push(
                rank,
                TraceOp::Send {
                    dest: 0,
                    bytes: 64,
                    tag: rank as u64,
                },
            );
            trace.push(
                0,
                TraceOp::Recv {
                    source: rank,
                    bytes: 64,
                    tag: rank as u64,
                },
            );
        }
        let engine = engine();
        assert_eq!(
            engine.run_folded(&trace).unwrap(),
            engine.run(&trace).unwrap()
        );
    }

    #[test]
    fn folded_deadlock_expands_stuck_ranks_across_their_classes() {
        // A symmetric trace in which local rank 0 of every node receives
        // before any send is posted, while local rank 1 completes a ring
        // exchange.  The folded replay only sees node 0, and its stuck list
        // names every rank of the stuck class — the full replay's list.
        let nodes = 3usize;
        let topology = topo(nodes, 2);
        let mut trace = Trace::empty(topology);
        for rank in 0..topology.world_size() {
            let (node, local) = (topology.node_of(rank), topology.local_rank_of(rank));
            let prev = topology.rank_of((node + nodes - 1) % nodes, local);
            let next = topology.rank_of((node + 1) % nodes, local);
            let recv = TraceOp::Recv {
                source: prev,
                bytes: 8,
                tag: 0,
            };
            let send = TraceOp::Send {
                dest: next,
                bytes: 8,
                tag: 0,
            };
            let program = if local == 0 {
                [recv, send]
            } else {
                [send, recv]
            };
            for op in program {
                trace.push(rank, op);
            }
        }
        let engine = engine();
        let err = engine.run_folded(&trace).unwrap_err();
        assert_eq!(err, engine.run(&trace).unwrap_err());
        assert_eq!(
            err,
            SimError::Deadlock {
                stuck_ranks: vec![0, 2, 4]
            }
        );
    }

    #[test]
    fn tied_sends_from_two_source_nodes_replay_node_symmetrically() {
        // At time 0 local rank 0 of every node sends one node on and local
        // rank 1 two nodes on, so every adapter takes two messages sent at
        // one instant from two source nodes.  Insertion (rank) order lands
        // node 1's message from local rank 0 first but node 2's from local
        // rank 1 first — not node-symmetric; the tie classes order every
        // node alike, so the full replay is symmetric and the fold matches
        // it.
        let nodes = 3usize;
        let topology = topo(nodes, 2);
        let mut trace = Trace::empty(topology);
        for rank in 0..topology.world_size() {
            let (node, local) = (topology.node_of(rank), topology.local_rank_of(rank));
            let shift = local + 1;
            let dest = topology.rank_of((node + shift) % nodes, local);
            let source = topology.rank_of((node + nodes - shift) % nodes, local);
            trace.push(
                rank,
                TraceOp::Send {
                    dest,
                    bytes: 4096,
                    tag: 0,
                },
            );
            trace.push(
                rank,
                TraceOp::Recv {
                    source,
                    bytes: 4096,
                    tag: 0,
                },
            );
        }
        let engine = engine();
        let options = RunOptions::recorded();
        let full = engine.run_with(&trace, options).unwrap();
        let folded = engine.run_folded_with(&trace, options).unwrap();
        let reference = engine.run_reference(&trace).unwrap();
        for (rank, finish) in full.rank_finish.iter().enumerate() {
            assert_eq!(*finish, full.rank_finish[rank % 2], "rank {rank}");
        }
        for other in [&folded, &reference] {
            assert_eq!(other.makespan, full.makespan);
            assert_eq!(other.rank_finish, full.rank_finish);
        }
    }

    #[test]
    fn folded_summary_runs_scale_to_large_worlds() {
        // 512 nodes x 18 ranks = 9216 ranks replayed as 18.
        let nodes = 512usize;
        let ppn = 18usize;
        let trace = node_ring_trace(nodes, ppn);
        let folded = FoldedTrace::detect(&trace).expect("ring folds");
        let outcome = engine()
            .run_folded_trace(&folded, RunOptions::summary())
            .unwrap();
        assert!(outcome.rank_finish.is_empty());
        assert_eq!(outcome.stats.internode_messages, nodes * ppn);
        assert!(outcome.makespan > 0.0);
    }
}
