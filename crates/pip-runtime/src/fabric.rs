//! The inter-node fabric: a tag-matching mailbox standing in for the
//! interconnect (Intel Omni-Path in the paper's testbed).
//!
//! Within the correctness runtime every simulated node lives in one Rust
//! process, so the "network" is a set of per-rank inboxes with MPI-style
//! exact `(source, tag)` matching, an unexpected-message queue, and a
//! configurable receive timeout that turns deadlocks in a broken schedule
//! into test failures instead of hangs.
//!
//! ## Multi-object mailboxes
//!
//! The paper's central observation (§3–4) is that a *single* shared
//! communication object serializes every sender and receiver of a node on
//! one lock and forces receives to scan all in-flight traffic.  The fabric
//! avoids both: each destination rank owns a set of independently locked
//! shards, a message is routed to a shard by its `(source, tag)` pair, and
//! within a shard each `(source, tag)` pair has its own FIFO *lane*.  A
//! receive names its exact `(source, tag)` — collectives know every peer
//! and every round tag in advance, so there is no wildcard receive — and
//! therefore locks only its own shard and pops the head of its lane: O(1)
//! instead of a scan, and senders targeting different shards never
//! contend.  The lanes of one shard share its condition variable, so a
//! send wakes every receiver waiting in that shard and each one that finds
//! its own lane still empty goes back to waiting.
//!
//! The shard count is the only layout knob; one shard is the single-lock
//! baseline `abl_mailbox_contention` sweeps from.
//!
//! The fabric carries *payload bytes only*; timing at scale is produced by
//! the `pip-netsim` crate from traces, not by measuring this mailbox.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{Result, RuntimeError};
use crate::sync::ContendedMutex;

/// Message tag, mirroring MPI's integer tags (wide enough to encode
/// collective round numbers without collision).
pub type Tag = u64;

/// Matching specification for a receive: the exact source rank and tag the
/// message must carry.  It is also the key of the message's lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchSpec {
    /// Required source rank.
    pub source: usize,
    /// Required tag.
    pub tag: Tag,
}

impl MatchSpec {
    /// Match a specific `(source, tag)` pair.
    pub fn exact(source: usize, tag: Tag) -> Self {
        Self { source, tag }
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Rank of the sender.
    pub source: usize,
    /// Tag attached by the sender.
    pub tag: Tag,
    /// The message bytes: the sender's allocation, moved, never copied.
    pub payload: Vec<u8>,
}

/// Default shard count per destination rank: enough that the senders of a
/// paper-scale node (18 processes) rarely collide on a shard lock.
pub const DEFAULT_MAILBOX_SHARDS: usize = 8;

/// Copy, matching and contention accounting for one fabric (see
/// `tests/transport_copy_stats.rs` and `abl_mailbox_contention`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricStats {
    /// Messages that entered the fabric.
    pub sends: usize,
    /// Copies the fabric performed to take ownership of borrowed bytes
    /// ([`Fabric::send_bytes`]).  Owned sends contribute zero.
    pub payload_copies: usize,
    /// Bytes those copies moved.
    pub bytes_copied: usize,
    /// Completed receives.  Every receive names its exact `(source, tag)`
    /// and pops the head of that lane.
    pub exact_recvs: usize,
    /// Always 0: the fabric has no wildcard receive.  The field stays so
    /// readers that sum `exact_recvs + wildcard_recvs` keep their shape.
    pub wildcard_recvs: usize,
    /// Lane heads examined while matching receives — the measure of how
    /// much in-flight traffic receivers had to wade through.  A receive
    /// examines only its own lane's head, so this equals `exact_recvs`.
    pub messages_scanned: usize,
    /// Mailbox lock acquisitions that found the lock already held, summed
    /// over every shard of every inbox.  The quantity the multi-object
    /// sharding drives toward zero.
    pub lock_contentions: usize,
}

/// Empty lane queues a shard keeps around for reuse.  Collective tags are
/// unique per invocation, so lanes come and go constantly; recycling their
/// backing allocations keeps the per-message cost flat.
const SPARE_LANES_PER_SHARD: usize = 64;

/// Per-(source, tag) FIFO lanes of one mailbox shard, plus the recycling
/// pool for emptied lanes.
#[derive(Debug, Default)]
struct ShardState {
    lanes: HashMap<MatchSpec, VecDeque<Message>>,
    spare: Vec<VecDeque<Message>>,
}

impl ShardState {
    fn push(&mut self, key: MatchSpec, message: Message) {
        let spare = &mut self.spare;
        self.lanes
            .entry(key)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back(message);
    }

    /// Pop the head of lane `key`, retiring the lane once empty so the map
    /// does not grow with the (unbounded) set of tags ever used.
    fn pop_lane(&mut self, key: MatchSpec) -> Option<Message> {
        let lane = self.lanes.get_mut(&key)?;
        let message = lane.pop_front();
        if lane.is_empty() {
            let lane = self.lanes.remove(&key).expect("lane exists");
            if self.spare.len() < SPARE_LANES_PER_SHARD {
                self.spare.push(lane);
            }
        }
        message
    }
}

/// One independently locked mailbox shard.
#[derive(Debug, Default)]
struct Shard {
    state: ContendedMutex<ShardState>,
    condvar: Condvar,
}

/// The multi-object inbox of one destination rank.
#[derive(Debug)]
struct Inbox {
    shards: Box<[Shard]>,
}

impl Inbox {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| Shard::default()).collect(),
        }
    }

    /// The shard a `(source, tag)` lane lives in.  Any deterministic
    /// function works for correctness (a lane never spans shards); mixing
    /// both components spreads a collective's per-round tags and its
    /// many sources across the shard set.
    fn shard_for(&self, key: MatchSpec) -> &Shard {
        let mut h = (key.source as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= key.tag.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn lock_contentions(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.state.contended())
            .sum()
    }

    fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .state
                    .lock()
                    .lanes
                    .values()
                    .map(VecDeque::len)
                    .sum::<usize>()
            })
            .sum()
    }
}

/// The fabric connecting all ranks of a launched cluster.
///
/// Cloning the handle is cheap; all clones refer to the same mailboxes.
#[derive(Debug, Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

#[derive(Debug)]
struct FabricInner {
    inboxes: Vec<Inbox>,
    recv_timeout: Duration,
    sends: AtomicUsize,
    payload_copies: AtomicUsize,
    bytes_copied: AtomicUsize,
    recvs: AtomicUsize,
}

/// Default receive timeout.  Collective schedules complete in milliseconds at
/// the scales the correctness runtime is used for, so thirty seconds only
/// triggers on genuinely broken schedules (mismatched send/recv pairs).
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

impl Fabric {
    /// Create a fabric for `world_size` ranks with the default shard count
    /// and timeout.
    pub fn new(world_size: usize) -> Self {
        Self::with_shards(world_size, DEFAULT_MAILBOX_SHARDS, DEFAULT_RECV_TIMEOUT)
    }

    /// Create a fabric with a custom receive timeout (useful in tests that
    /// deliberately provoke mismatched schedules).
    pub fn with_timeout(world_size: usize, recv_timeout: Duration) -> Self {
        Self::with_shards(world_size, DEFAULT_MAILBOX_SHARDS, recv_timeout)
    }

    /// Create a fabric with `shards` mailbox shards per destination rank —
    /// the knob the multi-object ablation sweeps.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn with_shards(world_size: usize, shards: usize, recv_timeout: Duration) -> Self {
        assert!(shards > 0, "a sharded mailbox needs at least one shard");
        Self {
            inner: Arc::new(FabricInner {
                inboxes: (0..world_size).map(|_| Inbox::new(shards)).collect(),
                recv_timeout,
                sends: AtomicUsize::new(0),
                payload_copies: AtomicUsize::new(0),
                bytes_copied: AtomicUsize::new(0),
                recvs: AtomicUsize::new(0),
            }),
        }
    }

    /// The receive timeout this fabric was configured with.  Pollers (the
    /// non-blocking progress engine) use it as their no-progress deadline so
    /// a broken schedule fails after the same grace period whether it is
    /// driven by blocking receives or by completion polling.
    pub fn recv_timeout(&self) -> Duration {
        self.inner.recv_timeout
    }

    /// Copy, matching and contention accounting since the fabric was
    /// created.
    pub fn stats(&self) -> FabricStats {
        let recvs = self.inner.recvs.load(Ordering::Relaxed);
        FabricStats {
            sends: self.inner.sends.load(Ordering::Relaxed),
            payload_copies: self.inner.payload_copies.load(Ordering::Relaxed),
            bytes_copied: self.inner.bytes_copied.load(Ordering::Relaxed),
            exact_recvs: recvs,
            wildcard_recvs: 0,
            messages_scanned: recvs,
            lock_contentions: self.inner.inboxes.iter().map(Inbox::lock_contentions).sum(),
        }
    }

    /// Number of ranks attached to the fabric.
    pub fn world_size(&self) -> usize {
        self.inner.inboxes.len()
    }

    fn inbox(&self, rank: usize) -> Result<&Inbox> {
        self.inner
            .inboxes
            .get(rank)
            .ok_or(RuntimeError::RankOutOfRange {
                rank,
                world_size: self.world_size(),
            })
    }

    /// Deliver `payload` from `source` to `dest` with `tag`.
    ///
    /// The owned vector moves through the fabric and reaches the receiver
    /// as the same allocation — the PiP "pass a pointer, not the bytes"
    /// hand-off — so relaying a received message is a move too; use
    /// [`Fabric::send_bytes`] for borrowed data (one accounted copy).
    pub fn send(&self, source: usize, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<()> {
        // Validate the source too so a typo'd rank id fails loudly.
        self.inbox(source)?;
        let inbox = self.inbox(dest)?;
        self.inner.sends.fetch_add(1, Ordering::Relaxed);
        let key = MatchSpec::exact(source, tag);
        let message = Message {
            source,
            tag,
            payload,
        };
        let shard = inbox.shard_for(key);
        shard.state.lock().push(key, message);
        shard.condvar.notify_all();
        Ok(())
    }

    /// As [`Fabric::send`] for borrowed bytes: performs (and accounts) the
    /// single copy needed to take ownership.
    pub fn send_bytes(&self, source: usize, dest: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.inner.payload_copies.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_copied
            .fetch_add(data.len(), Ordering::Relaxed);
        self.send(source, dest, tag, data.to_vec())
    }

    /// Blocking matched receive for rank `receiver`: waits on the shard of
    /// the `(source, tag)` lane only.
    ///
    /// Messages that arrived earlier but do not match stay queued (the
    /// unexpected-message queue), preserving per-(source, tag) FIFO order as
    /// MPI requires.
    pub fn recv(&self, receiver: usize, spec: MatchSpec) -> Result<Message> {
        let shard = self.inbox(receiver)?.shard_for(spec);
        let deadline = Instant::now() + self.inner.recv_timeout;
        let mut state = shard.state.lock();
        loop {
            if let Some(message) = self.take(&mut state, spec) {
                return Ok(message);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::RecvTimeout {
                    receiver,
                    source: spec.source,
                    tag: spec.tag,
                });
            }
            state = shard
                .condvar
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Non-blocking matched receive: returns `Ok(None)` when nothing matches.
    pub fn try_recv(&self, receiver: usize, spec: MatchSpec) -> Result<Option<Message>> {
        let shard = self.inbox(receiver)?.shard_for(spec);
        let mut state = shard.state.lock();
        Ok(self.take(&mut state, spec))
    }

    /// Number of messages currently queued for `rank` (matched or not).
    pub fn pending(&self, rank: usize) -> Result<usize> {
        Ok(self.inbox(rank)?.pending())
    }

    /// O(1) lane pop (caller holds the shard lock).
    fn take(&self, state: &mut ShardState, spec: MatchSpec) -> Option<Message> {
        let message = state.pop_lane(spec)?;
        self.inner.recvs.fetch_add(1, Ordering::Relaxed);
        Some(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// The shard counts every semantics test must hold under: the
    /// single-lock baseline and the default.
    const SHARD_COUNTS: [usize; 2] = [1, DEFAULT_MAILBOX_SHARDS];

    fn fabric_with(shards: usize, world: usize) -> Fabric {
        Fabric::with_shards(world, shards, DEFAULT_RECV_TIMEOUT)
    }

    #[test]
    fn send_then_recv_delivers_payload() {
        for shards in SHARD_COUNTS {
            let fabric = fabric_with(shards, 4);
            fabric.send(1, 2, 7, vec![1, 2, 3]).unwrap();
            let msg = fabric.recv(2, MatchSpec::exact(1, 7)).unwrap();
            assert_eq!(msg.source, 1);
            assert_eq!(msg.tag, 7);
            assert_eq!(msg.payload, vec![1, 2, 3]);
        }
    }

    #[test]
    fn matching_skips_unexpected_messages() {
        for shards in SHARD_COUNTS {
            let fabric = fabric_with(shards, 2);
            fabric.send(0, 1, 5, vec![5]).unwrap();
            fabric.send(0, 1, 6, vec![6]).unwrap();
            // Receive tag 6 first even though tag 5 arrived earlier.
            let msg = fabric.recv(1, MatchSpec::exact(0, 6)).unwrap();
            assert_eq!(msg.payload, vec![6]);
            // Tag 5 is still there.
            let msg = fabric.recv(1, MatchSpec::exact(0, 5)).unwrap();
            assert_eq!(msg.payload, vec![5]);
            assert_eq!(fabric.pending(1).unwrap(), 0);
        }
    }

    #[test]
    fn fifo_order_preserved_per_source_and_tag() {
        for shards in SHARD_COUNTS {
            let fabric = fabric_with(shards, 2);
            for i in 0..10u8 {
                fabric.send(0, 1, 3, vec![i]).unwrap();
            }
            for i in 0..10u8 {
                let msg = fabric.recv(1, MatchSpec::exact(0, 3)).unwrap();
                assert_eq!(msg.payload, vec![i]);
            }
        }
    }

    #[test]
    fn recv_blocks_until_message_arrives() {
        for shards in SHARD_COUNTS {
            let fabric = fabric_with(shards, 2);
            let receiver = fabric.clone();
            let handle = thread::spawn(move || receiver.recv(1, MatchSpec::exact(0, 1)).unwrap());
            thread::sleep(Duration::from_millis(20));
            fabric.send(0, 1, 1, vec![99]).unwrap();
            assert_eq!(handle.join().unwrap().payload, vec![99]);
        }
    }

    /// With one shard every lane shares one condition variable: a message
    /// on another lane wakes a blocked receiver, which must go back to
    /// waiting for its own lane and leave the other message queued.
    #[test]
    fn a_message_on_another_lane_of_the_shard_does_not_satisfy_a_receiver() {
        let fabric = fabric_with(1, 2);
        let receiver = fabric.clone();
        let handle = thread::spawn(move || receiver.recv(1, MatchSpec::exact(0, 1)).unwrap());
        thread::sleep(Duration::from_millis(20));
        fabric.send(0, 1, 2, vec![2]).unwrap();
        thread::sleep(Duration::from_millis(20));
        assert!(
            !handle.is_finished(),
            "lane (0, 2) satisfied a receive on (0, 1)"
        );
        fabric.send(0, 1, 1, vec![1]).unwrap();
        assert_eq!(handle.join().unwrap().payload, vec![1]);
        assert_eq!(fabric.pending(1).unwrap(), 1);
        let other = fabric.try_recv(1, MatchSpec::exact(0, 2)).unwrap();
        assert_eq!(
            other.expect("lane (0, 2) is still pending").payload,
            vec![2]
        );
    }

    #[test]
    fn recv_times_out_on_missing_message() {
        for shards in SHARD_COUNTS {
            let fabric = Fabric::with_shards(2, shards, Duration::from_millis(30));
            let err = fabric.recv(0, MatchSpec::exact(1, 4)).unwrap_err();
            assert!(matches!(
                err,
                RuntimeError::RecvTimeout {
                    receiver: 0,
                    source: 1,
                    tag: 4
                }
            ));
        }
    }

    #[test]
    fn try_recv_does_not_block() {
        for shards in SHARD_COUNTS {
            let fabric = fabric_with(shards, 2);
            assert!(fabric
                .try_recv(0, MatchSpec::exact(1, 2))
                .unwrap()
                .is_none());
            fabric.send(1, 0, 2, vec![1]).unwrap();
            assert!(fabric
                .try_recv(0, MatchSpec::exact(1, 3))
                .unwrap()
                .is_none());
            assert!(fabric
                .try_recv(0, MatchSpec::exact(1, 2))
                .unwrap()
                .is_some());
            assert!(fabric
                .try_recv(0, MatchSpec::exact(1, 2))
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn owned_sends_move_without_copy_and_are_accounted() {
        let fabric = Fabric::new(2);
        let payload = vec![1u8, 2, 3];
        let ptr = payload.as_ptr();
        fabric.send(0, 1, 9, payload).unwrap();
        let msg = fabric.recv(1, MatchSpec::exact(0, 9)).unwrap();
        assert_eq!(
            msg.payload.as_ptr(),
            ptr,
            "owned payload must not be copied"
        );
        assert_eq!(fabric.stats().payload_copies, 0);
        fabric.send_bytes(1, 0, 3, &[7, 8]).unwrap();
        let stats = fabric.stats();
        assert_eq!(stats.sends, 2);
        assert_eq!(stats.payload_copies, 1);
        assert_eq!(stats.bytes_copied, 2);
    }

    /// Relaying a received message moves its vector on: no accounted copy,
    /// and the final receiver holds the original sender's allocation.
    #[test]
    fn forwarded_payloads_share_the_allocation() {
        let fabric = Fabric::new(3);
        let payload = vec![5u8; 64];
        let ptr = payload.as_ptr();
        fabric.send(0, 1, 4, payload).unwrap();
        let msg = fabric.recv(1, MatchSpec::exact(0, 4)).unwrap();
        fabric.send(1, 2, 4, msg.payload).unwrap();
        let relayed = fabric.recv(2, MatchSpec::exact(1, 4)).unwrap();
        assert_eq!(relayed.payload.as_ptr(), ptr, "relaying must not copy");
        assert_eq!(fabric.stats().payload_copies, 0);
        assert_eq!(fabric.stats().sends, 2);
    }

    #[test]
    fn out_of_range_ranks_are_rejected() {
        let fabric = Fabric::new(2);
        assert!(fabric.send(0, 5, 0, vec![]).is_err());
        assert!(fabric.send(5, 0, 0, vec![]).is_err());
        assert!(fabric.recv(5, MatchSpec::exact(0, 0)).is_err());
        assert!(fabric.try_recv(5, MatchSpec::exact(0, 0)).is_err());
        assert!(fabric.pending(9).is_err());
    }

    #[test]
    fn zero_shard_layout_is_rejected() {
        let result = std::panic::catch_unwind(|| Fabric::with_shards(2, 0, DEFAULT_RECV_TIMEOUT));
        assert!(result.is_err());
    }

    #[test]
    fn many_concurrent_senders_one_receiver() {
        for shards in SHARD_COUNTS {
            let fabric = fabric_with(shards, 17);
            thread::scope(|scope| {
                for sender in 1..17 {
                    let fabric = fabric.clone();
                    scope.spawn(move || {
                        for round in 0..8u64 {
                            fabric.send(sender, 0, round, vec![sender as u8]).unwrap();
                        }
                    });
                }
                for sender in 1..17 {
                    for round in 0..8u64 {
                        let msg = fabric.recv(0, MatchSpec::exact(sender, round)).unwrap();
                        assert_eq!(msg.payload, vec![sender as u8]);
                    }
                }
            });
            assert_eq!(fabric.pending(0).unwrap(), 0);
        }
    }

    /// The exact-match path is O(1): draining mixed-tag traffic in reverse
    /// order scans exactly one lane head per receive.
    #[test]
    fn sharded_matching_scans_one_entry_per_exact_recv() {
        let messages = 64u64;
        let fabric = fabric_with(DEFAULT_MAILBOX_SHARDS, 2);
        for tag in 0..messages {
            fabric.send(0, 1, tag, vec![tag as u8]).unwrap();
        }
        for tag in (0..messages).rev() {
            let msg = fabric.recv(1, MatchSpec::exact(0, tag)).unwrap();
            assert_eq!(msg.payload, vec![tag as u8]);
        }
        let stats = fabric.stats();
        assert_eq!(
            stats.messages_scanned, messages as usize,
            "exact receives must pop lane heads directly"
        );
        assert_eq!(stats.exact_recvs, messages as usize);
        assert_eq!(stats.wildcard_recvs, 0);
    }
}
