//! Integration tests pinning the observable semantics of the multi-object
//! (sharded) fabric.
//!
//! Sharding the mailbox is a pure performance transformation: per-(source,
//! tag) FIFO order and matched-receive results must not depend on the shard
//! count, under any interleaving of senders and any receive order.  The
//! properties here generate random workloads and drive several shard counts
//! through them.

use std::time::Duration;

use pip_mcoll::runtime::fabric::MatchSpec;
use pip_mcoll::runtime::Fabric;
use proptest::prelude::*;

/// Deterministic splitmix64, used to derive randomized receive orders from a
/// generated seed (the shim proptest has no `Vec` shuffling strategy).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one generated workload: `sources` sender threads each send
/// `per_lane` messages on each of `tags` tag lanes to rank 0 (interleaved
/// across lanes, so arrival order mixes lanes), then the receiver drains
/// every lane in a seed-derived random order.  Returns, per (source, tag)
/// lane, the sequence of payload indices in receive order.
fn run_workload(
    shards: usize,
    sources: usize,
    tags: usize,
    per_lane: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    let world = sources + 1;
    let fabric = Fabric::with_shards(world, shards, Duration::from_secs(20));
    std::thread::scope(|scope| {
        for source in 1..=sources {
            let fabric = fabric.clone();
            scope.spawn(move || {
                // Interleave lanes: message i of every tag goes out before
                // message i + 1 of any tag.
                for index in 0..per_lane {
                    for tag in 0..tags as u64 {
                        fabric
                            .send(source, 0, tag, vec![source as u8, tag as u8, index as u8])
                            .unwrap();
                    }
                }
            });
        }
    });
    // Drain lanes one exact receive at a time, in a randomized lane order.
    let mut rng = seed;
    let mut remaining: Vec<(usize, u64, usize)> = (1..=sources)
        .flat_map(|s| (0..tags as u64).map(move |t| (s, t, per_lane)))
        .collect();
    let mut received: Vec<Vec<u8>> = vec![Vec::new(); sources * tags + tags];
    while !remaining.is_empty() {
        let pick = (splitmix(&mut rng) % remaining.len() as u64) as usize;
        let (source, tag, left) = &mut remaining[pick];
        let msg = fabric.recv(0, MatchSpec::exact(*source, *tag)).unwrap();
        assert_eq!(msg.source, *source);
        assert_eq!(msg.tag, *tag);
        assert_eq!(msg.payload[0] as usize, *source);
        assert_eq!(msg.payload[1] as u64, *tag);
        received[*source * tags + *tag as usize].push(msg.payload[2]);
        *left -= 1;
        if *left == 0 {
            remaining.swap_remove(pick);
        }
    }
    assert_eq!(fabric.pending(0).unwrap(), 0, "every message was received");
    received
}

proptest! {
    /// Per-(source, tag) FIFO order holds at every shard count, for any
    /// interleaving of concurrent senders and any receive order: each lane
    /// yields its messages in send order.
    #[test]
    fn prop_fifo_per_lane_and_layouts_agree(
        sources in 1usize..5,
        tags in 1usize..5,
        per_lane in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        let expected: Vec<u8> = (0..per_lane as u8).collect();
        for shards in [1, 2, 8] {
            let received = run_workload(shards, sources, tags, per_lane, seed);
            for lane in &received[tags..] {
                prop_assert_eq!(lane, &expected);
            }
        }
    }
}

/// Cross-shard non-interference, pinned on counts rather than wall clock:
/// an exact receive stays O(1) — it examines exactly one lane head — no
/// matter how much unmatched traffic from other (source, tag) pairs is
/// queued in the other lanes.
#[test]
fn exact_receives_ignore_unmatched_backlog() {
    let fabric = Fabric::new(4);
    // Flood rank 0 with unmatched messages across many lanes.
    let backlog = 4000;
    for i in 0..backlog as u64 {
        fabric.send(1, 0, 1000 + i, vec![0]).unwrap();
        fabric.send(2, 0, 1000 + i, vec![0]).unwrap();
    }
    let scanned_before = fabric.stats().messages_scanned;
    fabric.send(3, 0, 7, vec![42]).unwrap();
    let msg = fabric.recv(0, MatchSpec::exact(3, 7)).unwrap();
    assert_eq!(msg.payload, vec![42]);
    assert_eq!(
        fabric.stats().messages_scanned - scanned_before,
        1,
        "an exact receive must not wade through other lanes' backlog"
    );
    assert_eq!(fabric.pending(0).unwrap(), 2 * backlog);
}
