//! Oracles for the two structural checks every replay entry runs.
//!
//! `Trace::validate` matches sends to receives per receiver with a counting
//! sort, and `FoldedTrace::detect` checks each node against node 0 in one
//! pass.  Their earlier formulations are kept here, verbatim in substance,
//! as oracles: a world-wide sort of every message key walked in lockstep,
//! and one relabel-and-compare pass per group generator.  Both are proptested
//! against the library on random traces with one injected defect each: the
//! result must be equal, down to which message key a mismatch names.

use pip_netsim::trace::TraceError;
use pip_netsim::{FoldGroup, FoldedTrace, Trace, TraceOp};
use proptest::prelude::*;

mod common;
use common::{random_trace, symmetric_trace, symmetric_trace_under, Lcg};

// ---------------------------------------------------------------------------
// Validation oracle: sort every message key, walk both lists in lockstep.
// ---------------------------------------------------------------------------

fn sorted_validate(trace: &Trace) -> Result<(), TraceError> {
    let world = trace.topology.world_size();
    if trace.ranks.len() != world {
        return Err(TraceError::WrongRankCount {
            expected: world,
            actual: trace.ranks.len(),
        });
    }
    let mut sent: Vec<(usize, usize, u64)> = Vec::new();
    let mut received: Vec<(usize, usize, u64)> = Vec::new();
    let mut barrier_counts: Vec<usize> = vec![0; world];
    for (rank, rt) in trace.ranks.iter().enumerate() {
        for op in &rt.ops {
            match *op {
                TraceOp::Send { dest, tag, .. } => {
                    if dest >= world {
                        return Err(TraceError::RankOutOfRange {
                            rank,
                            op_rank: dest,
                        });
                    }
                    sent.push((rank, dest, tag));
                }
                TraceOp::Recv { source, tag, .. } => {
                    if source >= world {
                        return Err(TraceError::RankOutOfRange {
                            rank,
                            op_rank: source,
                        });
                    }
                    received.push((source, rank, tag));
                }
                TraceOp::LocalBarrier => barrier_counts[rank] += 1,
                _ => {}
            }
        }
    }
    sent.sort_unstable();
    received.sort_unstable();
    let (mut i, mut j) = (0, 0);
    while i < sent.len() || j < received.len() {
        let key = match (sent.get(i), received.get(j)) {
            (Some(&s), Some(&r)) => s.min(r),
            (Some(&s), None) => s,
            (None, Some(&r)) => r,
            (None, None) => break,
        };
        let (s0, r0) = (i, j);
        while sent.get(i) == Some(&key) {
            i += 1;
        }
        while received.get(j) == Some(&key) {
            j += 1;
        }
        if i - s0 != j - r0 {
            return Err(TraceError::UnmatchedMessages {
                source: key.0,
                dest: key.1,
                tag: key.2,
                sent: i - s0,
                received: j - r0,
            });
        }
    }
    let topology = trace.topology;
    for node in 0..topology.nodes() {
        let counts = topology.ranks_on_node(node).map(|r| barrier_counts[r]);
        let (min, max) = counts.fold((usize::MAX, 0), |(lo, hi), c| (lo.min(c), hi.max(c)));
        if min != usize::MAX && min != max {
            return Err(TraceError::BarrierMismatch {
                node,
                min_count: min,
                max_count: max,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Detection oracle: one relabel-and-compare pass per group generator.
// ---------------------------------------------------------------------------

/// Whether relabeling every rank's program by the element `delta`
/// reproduces the mapped rank's program exactly.
fn generator_closes(trace: &Trace, group: FoldGroup, delta: usize) -> bool {
    let topology = trace.topology;
    trace.ranks.iter().enumerate().all(|(rank, rt)| {
        let image = &trace.ranks[group.relabel_rank(rank, topology, delta)].ops;
        rt.ops.len() == image.len()
            && rt
                .ops
                .iter()
                .zip(image.iter())
                .all(|(op, image_op)| group.relabel_op(*op, topology, delta) == *image_op)
    })
}

/// The group `FoldedTrace::detect` must find: rotation is generated by the
/// shift by one, XOR by the single-bit masks.
fn generator_detect(trace: &Trace) -> Option<FoldGroup> {
    let nodes = trace.topology.nodes();
    if nodes < 2 || trace.ranks.len() != trace.topology.world_size() {
        return None;
    }
    if generator_closes(trace, FoldGroup::Rotation, 1) {
        Some(FoldGroup::Rotation)
    } else if nodes.is_power_of_two()
        && (0..nodes.trailing_zeros()).all(|bit| generator_closes(trace, FoldGroup::Xor, 1 << bit))
    {
        Some(FoldGroup::Xor)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Defect injection
// ---------------------------------------------------------------------------

/// Replace `rank`'s program by `edit` applied to a copy of it.
fn edit_rank(trace: &mut Trace, rank: usize, edit: impl FnOnce(&mut Vec<TraceOp>)) {
    let mut ops = trace.ranks[rank].ops.to_vec();
    edit(&mut ops);
    trace.set_rank_ops(rank, ops.into());
}

/// Positions in `rank`'s program of the ops `pick` selects.
fn positions(trace: &Trace, rank: usize, pick: impl Fn(&TraceOp) -> bool) -> Vec<usize> {
    let ops = &trace.ranks[rank].ops;
    (0..ops.len()).filter(|&i| pick(&ops[i])).collect()
}

/// A random op position of a random rank among those `pick` selects, if
/// any rank has one.
fn random_op(
    trace: &Trace,
    rng: &mut Lcg,
    pick: impl Fn(&TraceOp) -> bool,
) -> Option<(usize, usize)> {
    let candidates: Vec<(usize, usize)> = (0..trace.ranks.len())
        .flat_map(|rank| {
            positions(trace, rank, &pick)
                .into_iter()
                .map(move |i| (rank, i))
        })
        .collect();
    (!candidates.is_empty()).then(|| candidates[rng.below(candidates.len() as u64) as usize])
}

fn is_send(op: &TraceOp) -> bool {
    matches!(op, TraceOp::Send { .. })
}

fn is_recv(op: &TraceOp) -> bool {
    matches!(op, TraceOp::Recv { .. })
}

/// Inject defect `kind` into `trace`:
/// 0 drops a receive, 1 duplicates a send, 2 shifts the tag of every
/// message op of one rank, 3 points one message op at a rank outside the
/// world, 4 gives one rank an extra barrier, anything else leaves the trace
/// valid.
fn inject(trace: &mut Trace, kind: u64, rng: &mut Lcg) {
    let world = trace.topology.world_size();
    match kind {
        0 => {
            if let Some((rank, i)) = random_op(trace, rng, is_recv) {
                edit_rank(trace, rank, |ops| {
                    ops.remove(i);
                });
            }
        }
        1 => {
            if let Some((rank, i)) = random_op(trace, rng, is_send) {
                edit_rank(trace, rank, |ops| ops.insert(i, ops[i]));
            }
        }
        2 => {
            let rank = rng.below(world as u64) as usize;
            let shift = 1 + rng.below(3);
            edit_rank(trace, rank, |ops| {
                for op in ops {
                    if let TraceOp::Send { tag, .. } | TraceOp::Recv { tag, .. } = op {
                        *tag += shift;
                    }
                }
            });
        }
        3 => {
            let beyond = world + rng.below(4) as usize;
            if let Some((rank, i)) = random_op(trace, rng, |op| is_send(op) || is_recv(op)) {
                edit_rank(trace, rank, |ops| match &mut ops[i] {
                    TraceOp::Send { dest: peer, .. } | TraceOp::Recv { source: peer, .. } => {
                        *peer = beyond;
                    }
                    _ => unreachable!(),
                });
            }
        }
        4 => {
            let rank = rng.below(world as u64) as usize;
            edit_rank(trace, rank, |ops| {
                let at = rng.below(ops.len() as u64 + 1) as usize;
                ops.insert(at, TraceOp::LocalBarrier);
            });
        }
        _ => {}
    }
}

/// Change one op of a random rank on a random node other than 0: 0 retags
/// or resizes it, 1 drops the program's last op, 2 appends a delay.
fn perturb_off_node_zero(trace: &mut Trace, kind: u64, rng: &mut Lcg) {
    let topology = trace.topology;
    let node = 1 + rng.below(topology.nodes() as u64 - 1) as usize;
    let rank = topology.rank_of(node, rng.below(topology.ppn() as u64) as usize);
    let pick = rng.next();
    edit_rank(trace, rank, |ops| match kind {
        0 if !ops.is_empty() => {
            let i = pick as usize % ops.len();
            ops[i] = match ops[i] {
                TraceOp::Send { dest, bytes, tag } => TraceOp::Send {
                    dest,
                    bytes,
                    tag: tag + 1,
                },
                TraceOp::Recv { source, bytes, tag } => TraceOp::Recv {
                    source,
                    bytes,
                    tag: tag + 1,
                },
                TraceOp::LocalBarrier => TraceOp::Delay { nanos: 1.0 },
                other => TraceOp::Reduce {
                    bytes: other.bytes() + 1,
                },
            };
        }
        1 => {
            ops.pop();
        }
        _ => ops.push(TraceOp::Delay { nanos: 1.0 }),
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn validate_agrees_with_the_sorting_oracle(
        nodes in 1usize..6,
        ppn in 1usize..5,
        rounds in 1usize..5,
        kind in 0u64..6,
        seed in any::<u64>(),
    ) {
        let mut trace = random_trace(nodes, ppn, rounds, seed);
        inject(&mut trace, kind, &mut Lcg(seed ^ 0x5eed));
        prop_assert_eq!(
            trace.validate(),
            sorted_validate(&trace),
            "{}x{} rounds={} defect={} seed={}", nodes, ppn, rounds, kind, seed
        );
    }

    #[test]
    fn detect_agrees_with_the_generator_oracle(
        nodes in 2usize..9,
        ppn in 1usize..4,
        rounds in 1usize..5,
        xor in any::<bool>(),
        kind in 0u64..4,
        seed in any::<u64>(),
    ) {
        let mut trace = if xor && nodes.is_power_of_two() {
            symmetric_trace_under(FoldGroup::Xor, nodes, ppn, rounds, seed)
        } else {
            symmetric_trace(nodes, ppn, rounds, seed)
        };
        if kind < 3 {
            perturb_off_node_zero(&mut trace, kind, &mut Lcg(seed ^ 0xf01d));
        }
        prop_assert_eq!(
            FoldedTrace::detect(&trace).map(|folded| folded.group()),
            generator_detect(&trace),
            "{}x{} rounds={} xor={} change={} seed={}", nodes, ppn, rounds, xor, kind, seed
        );
    }
}

#[test]
fn the_generators_exercise_both_groups_and_every_outcome() {
    // Guard against a generator drift that would leave the proptests above
    // comparing only trivial cases.
    let mut seen = [0usize; 3];
    for seed in 0..64 {
        let xor = symmetric_trace_under(FoldGroup::Xor, 4, 2, 3, seed);
        let rotation = symmetric_trace(5, 2, 3, seed);
        let mut broken = symmetric_trace(4, 2, 3, seed);
        perturb_off_node_zero(&mut broken, seed % 3, &mut Lcg(seed));
        for trace in [xor, rotation, broken] {
            let slot = match generator_detect(&trace) {
                Some(FoldGroup::Rotation) => 0,
                Some(FoldGroup::Xor) => 1,
                None => 2,
            };
            seen[slot] += 1;
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    let mut errors = [0usize; 4];
    for seed in 0..64 {
        for kind in 0..5 {
            let mut trace = random_trace(3, 2, 3, seed);
            inject(&mut trace, kind, &mut Lcg(seed));
            match sorted_validate(&trace) {
                Err(TraceError::UnmatchedMessages { .. }) => errors[0] += 1,
                Err(TraceError::RankOutOfRange { .. }) => errors[1] += 1,
                Err(TraceError::BarrierMismatch { .. }) => errors[2] += 1,
                _ => errors[3] += 1,
            }
        }
    }
    assert!(errors[..3].iter().all(|&n| n > 0), "{errors:?}");
}
