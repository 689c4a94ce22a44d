//! The seed discrete-event engine, retained as a reference.
//!
//! This is the original `BinaryHeap` + hash-map-mailbox replay loop the
//! calendar-queue engine in [`crate::engine`] replaced.  It stays in the
//! tree for two reasons:
//!
//! * **Differential testing** — the calendar engine's makespans are pinned
//!   against this implementation on randomized traces (the two engines share
//!   every cost formula, so any divergence is a scheduling bug, not a model
//!   change).
//! * **Benchmarking** — `bench_netsim` measures the calendar engine's
//!   events/sec improvement against this baseline; keeping the baseline
//!   compiled means the headline ratio is measured, not remembered.
//!
//! The scheduler is the seed's, with one addition both engines share: a
//! trace that folds breaks time ties by the static tie class of each
//! rank's next op before insertion order (see [`crate::engine`]'s "Tie
//! order"; here the class is read from the rank's own program, not from a
//! table of node 0's).  See [`crate::engine`] for the documented cost model
//! both engines implement.  The perturbation plane
//! ([`crate::perturb`]: link jitter and drops) is applied by both engines —
//! every draw is a pure hash of static identifiers, so the two engines stay
//! bit-for-bit comparable under every perturbation config, which is what
//! the chaos-differential suite pins.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use pip_transport::cost::{IntranodeCost, Nanos};

use crate::engine::{
    skew_percentiles, tie_class, RunOptions, SimError, SimFailure, SimOutcome, SimStats,
    StarvedRecv, INTRA_RECV_FLAG_COST, TIE_SEQ_BITS,
};
use crate::fold::FoldedTrace;
use crate::params::SimParams;
use crate::perturb::PerturbState;
use crate::trace::{Trace, TraceOp};

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
    ready_time: Nanos,
    state: RankState,
    barriers_done: usize,
    finish_time: Nanos,
}

#[derive(Debug, Default)]
struct BarrierEpisode {
    arrived: usize,
    latest_arrival: Nanos,
    waiters: Vec<usize>,
}

/// Replay `trace` with the seed heap-based scheduler.
pub(crate) fn replay(
    params: &SimParams,
    trace: &Trace,
    options: RunOptions,
) -> Result<SimOutcome, SimError> {
    trace.validate().map_err(SimError::InvalidTrace)?;
    let topology = trace.topology;
    let world = topology.world_size();
    let nic = params.nic_model();
    let intranode = params.intranode;

    let mut ranks: Vec<RankRuntime> = (0..world)
        .map(|_| RankRuntime {
            pc: 0,
            ready_time: 0.0,
            state: RankState::Runnable,
            barriers_done: 0,
            finish_time: 0.0,
        })
        .collect();

    // Node-level NIC resources.
    let mut tx_free = vec![0.0f64; topology.nodes()];
    let mut rx_free = vec![0.0f64; topology.nodes()];
    let mut nic_busy = vec![0.0f64; topology.nodes()];

    // In-flight messages: (source, dest, tag) -> arrival times, FIFO.
    let mut mailbox: HashMap<(usize, usize, u64), VecDeque<Nanos>> = HashMap::new();
    // Ranks blocked on a receive, keyed the same way.
    let mut blocked_recv: HashMap<(usize, usize, u64), usize> = HashMap::new();
    // Barrier bookkeeping per node: episode index -> state.
    let mut barriers: Vec<HashMap<usize, BarrierEpisode>> =
        (0..topology.nodes()).map(|_| HashMap::new()).collect();

    let mut stats = SimStats::default();
    let perturb = PerturbState::new(options.perturbation.as_ref());
    let mut starved: Vec<StarvedRecv> = Vec::new();

    // A trace that folds breaks time ties by the tie class of each rank's
    // next op, read here from the rank's own program; any other trace by
    // insertion order alone.
    let group = FoldedTrace::detect_with(trace, options.perturbation.as_ref()).map(|f| f.group());
    let class = |rank: usize, pc: usize| {
        group.map_or(0, |group| {
            tie_class(group, topology, rank, trace.ranks[rank].ops.get(pc)) << TIE_SEQ_BITS
        })
    };

    // Event queue: (time, class << TIE_SEQ_BITS | seq, rank).
    let mut queue: BinaryHeap<Reverse<(TimeKey, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push_event = |queue: &mut BinaryHeap<Reverse<(TimeKey, u64, usize)>>,
                      seq: &mut u64,
                      time: Nanos,
                      rank: usize,
                      pc: usize| {
        queue.push(Reverse((TimeKey(time), class(rank, pc) | *seq, rank)));
        *seq += 1;
    };

    for rank in 0..world {
        push_event(&mut queue, &mut seq, 0.0, rank, 0);
    }

    while let Some(Reverse((TimeKey(now), _, rank))) = queue.pop() {
        let state = ranks[rank].state;
        if state == RankState::Finished
            || state == RankState::BlockedOnRecv
            || state == RankState::BlockedOnBarrier
        {
            // Blocked ranks are re-scheduled explicitly when unblocked;
            // stale events are ignored.
            continue;
        }
        let now = now.max(ranks[rank].ready_time);
        let pc = ranks[rank].pc;
        let ops = &trace.ranks[rank].ops;
        if pc >= ops.len() {
            ranks[rank].state = RankState::Finished;
            ranks[rank].finish_time = now;
            continue;
        }
        match ops[pc] {
            TraceOp::Send { dest, bytes, tag } => {
                let src_node = topology.node_of(rank);
                let dst_node = topology.node_of(dest);
                let (sender_done, arrival) = if rank == dest {
                    // Self message: a local copy.
                    let done = now + params.memcpy.copy_cost(bytes);
                    (done, Some(done))
                } else if src_node == dst_node {
                    stats.intranode_messages += 1;
                    let cost =
                        intranode.transfer_cost(bytes, false) + params.software_send_overhead;
                    let done = now + cost;
                    (done, Some(done))
                } else {
                    stats.internode_messages += 1;
                    stats.internode_bytes += bytes;
                    let sender_done =
                        now + nic.host_send_overhead(bytes) + params.software_send_overhead;
                    let occupancy = nic.nic_occupancy(bytes);
                    // Same pure-hash fate as the calendar engine: the draw
                    // depends only on (rank, pc), never on event order.
                    let fate = perturb.send_fate(rank, pc);
                    let tx_start = sender_done.max(tx_free[src_node]);
                    let tx_end =
                        perturb.retransmit_chain(tx_start + occupancy, occupancy, fate.retries);
                    tx_free[src_node] = tx_end;
                    nic_busy[src_node] += occupancy * (1 + fate.retries) as f64;
                    stats.retries += fate.retries as usize;
                    stats.retransmitted_bytes += bytes * fate.retries as usize;
                    if fate.delivered {
                        let rx_ready =
                            tx_end + nic.wire_latency() + perturb.extra_latency(src_node, dst_node);
                        let rx_start = rx_ready.max(rx_free[dst_node]);
                        let rx_end = rx_start + occupancy;
                        rx_free[dst_node] = rx_end;
                        nic_busy[dst_node] += occupancy;
                        (sender_done, Some(rx_end))
                    } else {
                        starved.push(StarvedRecv {
                            rank: dest,
                            source: rank,
                            tag,
                            attempts: fate.retries + 1,
                        });
                        (sender_done, None)
                    }
                };
                if let Some(arrival) = arrival {
                    mailbox
                        .entry((rank, dest, tag))
                        .or_default()
                        .push_back(arrival);
                    // Wake a receiver blocked on this message.
                    if let Some(&receiver) = blocked_recv.get(&(rank, dest, tag)) {
                        blocked_recv.remove(&(rank, dest, tag));
                        ranks[receiver].state = RankState::Runnable;
                        let wake = arrival.max(ranks[receiver].ready_time);
                        push_event(&mut queue, &mut seq, wake, receiver, ranks[receiver].pc);
                    }
                }
                ranks[rank].pc += 1;
                ranks[rank].ready_time = sender_done;
                push_event(&mut queue, &mut seq, sender_done, rank, pc + 1);
            }
            TraceOp::Recv { source, bytes, tag } => {
                let key = (source, rank, tag);
                let available = mailbox.get_mut(&key).and_then(|queue| queue.pop_front());
                match available {
                    Some(arrival) => {
                        let same_node = topology.same_node(source, rank);
                        let recv_cost = if same_node || source == rank {
                            INTRA_RECV_FLAG_COST + params.software_recv_overhead
                        } else {
                            nic.host_recv_overhead(bytes) + params.software_recv_overhead
                        };
                        let done = now.max(arrival) + recv_cost;
                        ranks[rank].pc += 1;
                        ranks[rank].ready_time = done;
                        push_event(&mut queue, &mut seq, done, rank, pc + 1);
                    }
                    None => {
                        ranks[rank].state = RankState::BlockedOnRecv;
                        ranks[rank].ready_time = now;
                        blocked_recv.insert(key, rank);
                    }
                }
            }
            TraceOp::CopyIntra { bytes, mechanism } => {
                let cost_model = mechanism
                    .map(IntranodeCost::defaults_for)
                    .unwrap_or(intranode);
                let done = now + cost_model.transfer_cost(bytes, false);
                ranks[rank].pc += 1;
                ranks[rank].ready_time = done;
                push_event(&mut queue, &mut seq, done, rank, pc + 1);
            }
            TraceOp::Reduce { bytes } => {
                let done = now + params.memcpy.reduce_cost(bytes);
                ranks[rank].pc += 1;
                ranks[rank].ready_time = done;
                push_event(&mut queue, &mut seq, done, rank, pc + 1);
            }
            TraceOp::Codec { bytes } => {
                let done = now + params.memcpy.copy_cost(bytes);
                ranks[rank].pc += 1;
                ranks[rank].ready_time = done;
                push_event(&mut queue, &mut seq, done, rank, pc + 1);
            }
            TraceOp::Delay { nanos } => {
                let done = now + nanos.max(0.0);
                ranks[rank].pc += 1;
                ranks[rank].ready_time = done;
                push_event(&mut queue, &mut seq, done, rank, pc + 1);
            }
            TraceOp::Compute { nanos } => {
                // Same timeline effect as a delay; accounted separately
                // so overlap efficiency can be derived from the stats.
                let busy = nanos.max(0.0);
                stats.compute_total += busy;
                let done = now + busy;
                ranks[rank].pc += 1;
                ranks[rank].ready_time = done;
                push_event(&mut queue, &mut seq, done, rank, pc + 1);
            }
            TraceOp::LocalBarrier => {
                let node = topology.node_of(rank);
                let ppn = topology.ppn();
                let episode_index = ranks[rank].barriers_done;
                let episode = barriers[node].entry(episode_index).or_default();
                episode.arrived += 1;
                episode.latest_arrival = episode.latest_arrival.max(now);
                if episode.arrived == ppn {
                    let release = episode.latest_arrival + params.barrier_cost(ppn);
                    stats.barrier_episodes += 1;
                    let waiters: Vec<usize> = episode
                        .waiters
                        .drain(..)
                        .chain(std::iter::once(rank))
                        .collect();
                    barriers[node].remove(&episode_index);
                    for waiter in waiters {
                        ranks[waiter].state = RankState::Runnable;
                        ranks[waiter].pc += 1;
                        ranks[waiter].barriers_done += 1;
                        ranks[waiter].ready_time = release;
                        push_event(&mut queue, &mut seq, release, waiter, ranks[waiter].pc);
                    }
                } else {
                    episode.waiters.push(rank);
                    ranks[rank].state = RankState::BlockedOnBarrier;
                    ranks[rank].ready_time = now;
                }
            }
        }
    }

    // Every rank must have drained its program; otherwise the schedule
    // deadlocked (validation catches most causes, but e.g. circular
    // waits are only detectable here) — unless the drop model starved
    // messages, in which case the structured failure names them.
    let stuck: Vec<usize> = ranks
        .iter()
        .enumerate()
        .filter(|(_, r)| r.state != RankState::Finished)
        .map(|(rank, _)| rank)
        .collect();
    if !stuck.is_empty() {
        if starved.is_empty() {
            return Err(SimError::Deadlock { stuck_ranks: stuck });
        }
        starved.sort_unstable_by_key(|s| (s.rank, s.source, s.tag));
        return Err(SimError::Failure(SimFailure {
            starved,
            stuck_ranks: stuck,
        }));
    }

    stats.nic_busy_total = nic_busy.iter().sum();
    stats.nic_busy_max = nic_busy.iter().copied().fold(0.0, Nanos::max);

    let mut sorted_finish: Vec<Nanos> = ranks.iter().map(|r| r.finish_time).collect();
    sorted_finish.sort_unstable_by(|a, b| a.total_cmp(b));
    (stats.finish_skew_p50, stats.finish_skew_p99) = skew_percentiles(&sorted_finish, world, 1);

    let makespan = ranks.iter().map(|r| r.finish_time).fold(0.0, Nanos::max);
    let rank_finish: Vec<Nanos> = if options.record_rank_finish {
        ranks.iter().map(|r| r.finish_time).collect()
    } else {
        Vec::new()
    };
    Ok(SimOutcome {
        makespan,
        rank_finish,
        stats,
    })
}
