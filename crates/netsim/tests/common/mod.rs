//! Random trace generators shared by the differential suites.

// Each suite uses its own subset of the generators.
#![allow(dead_code)]

use pip_netsim::{FoldGroup, Trace, TraceOp};
use pip_runtime::Topology;

/// Small deterministic generator so a failing case is reproducible from the
/// printed seed alone.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        // splitmix64 step.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    pub fn pick(&mut self, choices: &[f64]) -> f64 {
        choices[self.below(choices.len() as u64) as usize]
    }
}

/// A rank-local op of `kind` (delay, compute, reduction, intra-node copy,
/// codec pass) with an irregular (non-tying) cost.
fn local_op(rng: &mut Lcg, kind: u64) -> TraceOp {
    match kind {
        0 => TraceOp::Delay {
            nanos: 0.27 * rng.below(10_000) as f64,
        },
        1 => TraceOp::Compute {
            nanos: 0.31 * rng.below(10_000) as f64,
        },
        2 => TraceOp::Reduce {
            bytes: 1 + rng.below(65_536) as usize,
        },
        3 => TraceOp::CopyIntra {
            bytes: 1 + rng.below(65_536) as usize,
            mechanism: None,
        },
        _ => TraceOp::Codec {
            bytes: 1 + rng.below(65_536) as usize,
        },
    }
}

/// A random node-symmetric trace, which always folds: local-op preludes
/// (codec passes included) are drawn per local rank and shared by every
/// node, and each round exchanges `(n, l) → ((n + d_l) mod N, (l + s) mod
/// ppn)` — intra-node when `d_l == 0`, a self-send when `s == 0` too —
/// optionally followed by a barrier.  Nothing depends on the node, so node
/// rotation maps the trace onto itself.
///
/// Each local rank `l` draws its own node shift `d_l`, so a node takes tied
/// arrivals from several source nodes at once: the case where a tie order
/// that is not node-symmetric would make the full replay itself asymmetric.
pub fn symmetric_trace(nodes: usize, ppn: usize, rounds: usize, seed: u64) -> Trace {
    symmetric_trace_under(FoldGroup::Rotation, nodes, ppn, rounds, seed)
}

/// [`symmetric_trace`] under either group: each node shift `d_l` is the
/// group element `(n, l) → (g_d(n), l)` (a rotation or, for a power-of-two
/// node count, an XOR mask), so the trace is invariant under `group`.
pub fn symmetric_trace_under(
    group: FoldGroup,
    nodes: usize,
    ppn: usize,
    rounds: usize,
    seed: u64,
) -> Trace {
    let topology = Topology::new(nodes, ppn);
    let world = topology.world_size();
    let mut rng = Lcg(seed | 1);
    let mut trace = Trace::empty(topology);
    for round in 0..rounds {
        for local in 0..ppn {
            let prelude: Vec<TraceOp> = (0..rng.below(3))
                .map(|_| {
                    let kind = rng.below(5);
                    local_op(&mut rng, kind)
                })
                .collect();
            for node in 0..nodes {
                for &op in &prelude {
                    trace.push(topology.rank_of(node, local), op);
                }
            }
        }
        let d: Vec<usize> = (0..ppn).map(|_| rng.below(nodes as u64) as usize).collect();
        let s = rng.below(ppn as u64) as usize;
        let bytes = 1 + rng.below(5_000) as usize;
        let tag = round as u64;
        // The group element undoing `d`.
        let inverse = |d: usize| match group {
            FoldGroup::Rotation => nodes - d,
            FoldGroup::Xor => d,
        };
        let shifted = |rank: usize, d: usize, s: usize| {
            let node = topology.node_of(group.relabel_rank(rank, topology, d));
            topology.rank_of(node, (topology.local_rank_of(rank) + s) % ppn)
        };
        for rank in 0..world {
            let dest = shifted(rank, d[topology.local_rank_of(rank)], s);
            trace.push(rank, TraceOp::Send { dest, bytes, tag });
        }
        for rank in 0..world {
            // The sender's local rank picks the shift to undo.
            let sender_local = (topology.local_rank_of(rank) + ppn - s) % ppn;
            let source = shifted(rank, inverse(d[sender_local]), ppn - s);
            trace.push(rank, TraceOp::Recv { source, bytes, tag });
        }
        if rng.below(4) == 0 {
            for rank in 0..world {
                trace.push(rank, TraceOp::LocalBarrier);
            }
        }
    }
    trace
}

/// A random valid trace: every send is matched by a receive, barriers are
/// collective per node, and local ops have irregular (non-tying) costs.
/// Preludes are drawn per rank, so almost no such trace folds: this is the
/// generator for the folded replay's fallback path.  Some rounds end in a
/// [`burst`] of same-key messages.
pub fn random_trace(nodes: usize, ppn: usize, rounds: usize, seed: u64) -> Trace {
    let topology = Topology::new(nodes, ppn);
    let world = topology.world_size();
    let mut rng = Lcg(seed | 1);
    let mut trace = Trace::empty(topology);
    for round in 0..rounds {
        // Per-rank local preludes with irregular costs.
        for rank in 0..world {
            for _ in 0..rng.below(3) {
                let kind = rng.below(4);
                let op = local_op(&mut rng, kind);
                trace.push(rank, op);
            }
        }
        // A shifted exchange: rank -> (rank + d) % world, matched receives.
        let shift = rng.below(world as u64) as usize;
        let bytes = 1 + rng.below(5_000) as usize;
        let tag = round as u64;
        for rank in 0..world {
            trace.push(
                rank,
                TraceOp::Send {
                    dest: (rank + shift) % world,
                    bytes,
                    tag,
                },
            );
        }
        for rank in 0..world {
            trace.push(
                rank,
                TraceOp::Recv {
                    source: (rank + world - shift) % world,
                    bytes,
                    tag,
                },
            );
        }
        if rng.below(2) == 0 {
            burst(&mut trace, &mut rng, round);
        }
        if rng.below(4) == 0 {
            for rank in 0..world {
                trace.push(rank, TraceOp::LocalBarrier);
            }
        }
    }
    trace
}

/// Two sources each post three or four same-tag messages of irregular sizes
/// to one receiver, which then receives all of the first source's and then
/// all of the second's.  The messages are usually pending, interleaved by
/// source, when the receives are posted, so which arrival each receive gets
/// is decided by per-key FIFO matching.
fn burst(trace: &mut Trace, rng: &mut Lcg, round: usize) {
    let world = trace.topology.world_size() as u64;
    let receiver = rng.below(world) as usize;
    let sources = [rng.below(world) as usize, rng.below(world) as usize];
    let count = 3 + rng.below(2) as usize;
    // Distinct from every exchange tag.
    let tag = 1 << 32 | round as u64;
    let sizes: Vec<Vec<usize>> = sources
        .iter()
        .map(|_| (0..count).map(|_| 1 + rng.below(20_000) as usize).collect())
        .collect();
    for (&source, sizes) in sources.iter().zip(&sizes) {
        for &bytes in sizes {
            let dest = receiver;
            trace.push(source, TraceOp::Send { dest, bytes, tag });
        }
    }
    for (&source, sizes) in sources.iter().zip(&sizes) {
        for &bytes in sizes {
            trace.push(receiver, TraceOp::Recv { source, bytes, tag });
        }
    }
}
