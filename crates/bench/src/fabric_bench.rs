//! Measuring the multi-object mailbox win on the real thread runtime.
//!
//! The paper's §3 argument is that one shared communication object per node
//! serializes all senders on a single lock and forces receivers to scan
//! every in-flight message; sharding into multiple objects removes both.
//! Every receive on our fabric is an exact `(source, tag)` lane pop, so the
//! scan is gone at any shard count; the shard count is the lock axis, and
//! one shard is the single-lock baseline.  `abl_mailbox_contention` sweeps
//! it at the paper's 18-processes-per-node scale.
//!
//! The workload is a mixed-tag exchange chosen to reproduce the access
//! pattern collectives put on the fabric: every rank posts a burst of
//! distinctly tagged messages to every peer (many concurrent senders per
//! inbox — the lock-contention axis), then drains its own inbox in *reverse*
//! tag order (receives that arrive "late" relative to matching order — the
//! unexpected-message-queue axis).  Sends are buffered and never block, so
//! post-then-drain cannot deadlock.

use std::time::{Duration, Instant};

use pip_runtime::fabric::MatchSpec;
use pip_runtime::Fabric;

/// Message size used by the mailbox workloads: small enough that matching
/// and locking — not memcpy — dominate, as in the paper's small-message
/// regime.
pub const MAILBOX_PAYLOAD_BYTES: usize = 8;

/// One measured grid point of a mailbox sweep.
#[derive(Debug, Clone)]
pub struct MailboxPoint {
    /// Mailbox shards per destination rank the fabric ran with.
    pub shards: usize,
    /// Number of ranks (each a live thread sending and receiving).
    pub ranks: usize,
    /// Messages each rank posts to each peer before draining (the
    /// in-flight backlog a receive has to match against).
    pub outstanding: usize,
    /// Total messages moved through the fabric.
    pub messages: usize,
    /// Wall-clock time for the whole exchange.
    pub seconds: f64,
    /// Throughput in messages per second.
    pub msgs_per_sec: f64,
    /// Mailbox lock acquisitions that found the lock held.
    pub lock_contentions: usize,
    /// Lane heads examined while matching receives.
    pub messages_scanned: usize,
}

/// The shard axis the mailbox ablation sweeps: one shard (the
/// single-lock baseline) up to 8 (the fabric's default).
pub const SHARD_AXIS: [usize; 4] = [1, 2, 4, 8];

/// Run the mixed-tag exchange on `ranks` live threads for `rounds` rounds
/// with `outstanding` messages per (sender, peer) pair per round.
///
/// Every rank r, per round: post `outstanding` messages to every other rank
/// (tags unique per round), then receive its own `(ranks - 1) ×
/// outstanding` messages in reverse tag order.  Total messages =
/// `ranks × (ranks - 1) × outstanding × rounds`.
pub fn run_mailbox_workload(
    ranks: usize,
    outstanding: usize,
    rounds: usize,
    shards: usize,
) -> MailboxPoint {
    assert!(ranks >= 2, "the exchange needs at least two ranks");
    let fabric = Fabric::with_shards(ranks, shards, Duration::from_secs(120));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for rank in 0..ranks {
            let fabric = fabric.clone();
            scope.spawn(move || {
                for round in 0..rounds {
                    let tag_base = (round * outstanding) as u64;
                    for m in 0..outstanding as u64 {
                        for peer in 0..ranks {
                            if peer == rank {
                                continue;
                            }
                            fabric
                                .send(
                                    rank,
                                    peer,
                                    tag_base + m,
                                    vec![rank as u8; MAILBOX_PAYLOAD_BYTES],
                                )
                                .expect("send");
                        }
                    }
                    // Reverse order: a linear-scan queue would wade past
                    // every not-yet-wanted earlier tag here.
                    for m in (0..outstanding as u64).rev() {
                        for peer in 0..ranks {
                            if peer == rank {
                                continue;
                            }
                            let msg = fabric
                                .recv(rank, MatchSpec::exact(peer, tag_base + m))
                                .expect("recv");
                            assert_eq!(
                                msg.payload.as_slice(),
                                &[peer as u8; MAILBOX_PAYLOAD_BYTES]
                            );
                        }
                    }
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let messages = ranks * (ranks - 1) * outstanding * rounds;
    let stats = fabric.stats();
    MailboxPoint {
        shards,
        ranks,
        outstanding,
        messages,
        seconds,
        msgs_per_sec: messages as f64 / seconds.max(1e-9),
        lock_contentions: stats.lock_contentions,
        messages_scanned: stats.messages_scanned,
    }
}

/// Pick a round count that moves roughly `message_budget` messages for the
/// given grid cell, so every point runs long enough to time and short
/// enough for a CI smoke run.
pub fn rounds_for_budget(ranks: usize, outstanding: usize, message_budget: usize) -> usize {
    (message_budget / (ranks * (ranks - 1) * outstanding)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_completes_and_counts_messages_for_every_layout() {
        for shards in [1, 4] {
            let point = run_mailbox_workload(4, 8, 2, shards);
            assert_eq!(point.messages, 4 * 3 * 8 * 2);
            assert!(point.seconds > 0.0);
            assert!(point.msgs_per_sec > 0.0);
        }
    }

    /// The structural claim behind the multi-object design, asserted on
    /// counts rather than wall-clock so it is immune to scheduler noise:
    /// each receive examines one lane head, at every shard count, although
    /// up to 7 × 32 = 224 messages wait in its inbox.
    #[test]
    fn sharded_layout_scans_orders_of_magnitude_less() {
        for shards in [1, 8] {
            let point = run_mailbox_workload(8, 32, 1, shards);
            assert_eq!(
                point.messages_scanned, point.messages,
                "exact receives pop exactly one lane head each ({shards} shards)"
            );
        }
    }

    #[test]
    fn rounds_for_budget_is_at_least_one() {
        assert_eq!(rounds_for_budget(16, 64, 100), 1);
        assert!(rounds_for_budget(2, 4, 8000) >= 100);
    }
}
