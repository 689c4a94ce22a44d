//! Differential pin between the three replay paths.
//!
//! The calendar-queue engine replaced the seed `BinaryHeap` scheduler; both
//! implement the identical cost model, so on any valid trace their outcomes
//! must agree — the makespan and per-rank finish times bitwise, the float
//! accumulators up to summation order.  The folded replay must in turn
//! agree with the full replay whether or not the trace actually folds
//! (unfoldable traces fall back to the full path).
//!
//! Traces are generated randomly: shifted all-to-one-peer exchange rounds
//! with local-op preludes (delays, compute, reductions, copies), optional
//! barrier rounds, and self-sends when the shift is zero.  Per-rank
//! preludes almost never fold, so the folded replay is also pinned on a
//! node-symmetric generator whose every trace folds, with a node shift per
//! local rank: there folded, full and reference replays agree bit for bit.

use pip_netsim::{
    DropSpec, FoldGroup, FoldedTrace, Perturbation, RunOptions, SimEngine, SimError, SimParams,
    Trace, TraceOp,
};
use pip_runtime::Topology;
use proptest::prelude::*;

mod common;
use common::{random_trace, symmetric_trace, symmetric_trace_under, Lcg};

fn assert_outcomes_agree(
    label: &str,
    a: &pip_netsim::engine::SimOutcome,
    b: &pip_netsim::engine::SimOutcome,
) {
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(a.rank_finish, b.rank_finish, "{label}: rank_finish");
    assert_eq!(
        a.stats.internode_messages, b.stats.internode_messages,
        "{label}: internode_messages"
    );
    assert_eq!(
        a.stats.intranode_messages, b.stats.intranode_messages,
        "{label}: intranode_messages"
    );
    assert_eq!(
        a.stats.internode_bytes, b.stats.internode_bytes,
        "{label}: internode_bytes"
    );
    assert_eq!(
        a.stats.barrier_episodes, b.stats.barrier_episodes,
        "{label}: barrier_episodes"
    );
    // Float accumulators may differ by summation order only.
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    assert!(
        close(a.stats.compute_total, b.stats.compute_total),
        "{label}: compute_total {} vs {}",
        a.stats.compute_total,
        b.stats.compute_total
    );
    assert!(
        close(a.stats.nic_busy_total, b.stats.nic_busy_total),
        "{label}: nic_busy_total {} vs {}",
        a.stats.nic_busy_total,
        b.stats.nic_busy_total
    );
    assert!(
        close(a.stats.nic_busy_max, b.stats.nic_busy_max),
        "{label}: nic_busy_max {} vs {}",
        a.stats.nic_busy_max,
        b.stats.nic_busy_max
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn calendar_engine_matches_seed_engine_on_random_traces(
        nodes in 1usize..6,
        ppn in 1usize..5,
        rounds in 1usize..5,
        seed in any::<u64>(),
    ) {
        let trace = random_trace(nodes, ppn, rounds, seed);
        let engine = SimEngine::new(SimParams::default());
        let calendar = engine.run(&trace).expect("calendar replay");
        let reference = engine.run_reference(&trace).expect("reference replay");
        assert_outcomes_agree(
            &format!("{nodes}x{ppn} rounds={rounds} seed={seed}"),
            &calendar,
            &reference,
        );
    }

    #[test]
    fn folded_replay_matches_full_replay_on_random_traces(
        nodes in 1usize..6,
        ppn in 1usize..5,
        rounds in 1usize..5,
        seed in any::<u64>(),
    ) {
        let trace = random_trace(nodes, ppn, rounds, seed);
        let engine = SimEngine::new(SimParams::default());
        let full = engine.run(&trace).expect("full replay");
        let folded = engine.run_folded(&trace).expect("folded replay");
        assert_outcomes_agree(
            &format!("{nodes}x{ppn} rounds={rounds} seed={seed}"),
            &folded,
            &full,
        );
    }

    #[test]
    fn folded_replay_matches_full_replay_on_node_symmetric_traces(
        nodes in 2usize..6,
        ppn in 1usize..5,
        rounds in 1usize..5,
        seed in any::<u64>(),
    ) {
        let trace = symmetric_trace(nodes, ppn, rounds, seed);
        prop_assert!(FoldedTrace::detect(&trace).is_some());
        let engine = SimEngine::new(SimParams::default());
        let full = engine.run(&trace).expect("full replay");
        let folded = engine.run_folded(&trace).expect("folded replay");
        assert_outcomes_agree(
            &format!("sym {nodes}x{ppn} rounds={rounds} seed={seed}"),
            &folded,
            &full,
        );
    }

    #[test]
    fn taxed_library_parameters_preserve_the_differential(
        nodes in 1usize..5,
        ppn in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Software overhead moves every timestamp; the engines must still
        // agree exactly.
        let trace = random_trace(nodes, ppn, 3, seed);
        let params = SimParams::default().with_software_overhead(137.0, 93.0);
        let engine = SimEngine::new(params);
        let calendar = engine.run(&trace).expect("calendar replay");
        let reference = engine.run_reference(&trace).expect("reference replay");
        assert_outcomes_agree(
            &format!("taxed {nodes}x{ppn} seed={seed}"),
            &calendar,
            &reference,
        );
    }
}

/// Node-symmetric traces per fold group in the exactness sweep below: 4 000
/// in all optimized (CI runs this suite in release too), a tenth in debug.
const EXACTNESS_CASES_PER_GROUP: usize = if cfg!(debug_assertions) { 200 } else { 2_000 };

#[test]
fn folded_full_and_reference_replays_agree_on_per_local_rank_shifts() {
    // Each local rank shifts by its own node offset, so nodes take tied
    // arrivals from several source nodes.  The full replay stays
    // node-symmetric only because both engines order such ties by the
    // fold's static classes; the fold then matches it bit for bit.
    let engine = SimEngine::new(SimParams::default());
    let mut rng = Lcg(0x7e57_f01d);
    for case in 0..2 * EXACTNESS_CASES_PER_GROUP {
        let (group, nodes) = if case % 2 == 0 {
            (FoldGroup::Rotation, 2 + rng.below(7) as usize)
        } else {
            (FoldGroup::Xor, 2 << rng.below(3))
        };
        let ppn = 1 + rng.below(4) as usize;
        let rounds = 1 + rng.below(4) as usize;
        let seed = rng.next();
        let trace = symmetric_trace_under(group, nodes, ppn, rounds, seed);
        let label = format!("{group:?} {nodes}x{ppn} rounds={rounds} seed={seed}");
        assert!(FoldedTrace::detect(&trace).is_some(), "{label}: folds");
        let full = engine.run(&trace).expect("full replay");
        let folded = engine.run_folded(&trace).expect("folded replay");
        let reference = engine.run_reference(&trace).expect("reference replay");
        assert_outcomes_agree(&format!("folded {label}"), &folded, &full);
        assert_outcomes_agree(&format!("reference {label}"), &reference, &full);
    }
}

#[test]
fn summary_mode_matches_recorded_mode_on_random_traces() {
    for seed in 0..8u64 {
        let trace = random_trace(3, 3, 3, seed);
        let engine = SimEngine::new(SimParams::default());
        let recorded = engine.run(&trace).unwrap();
        let summary = engine.run_with(&trace, RunOptions::summary()).unwrap();
        assert!(summary.rank_finish.is_empty());
        assert_eq!(summary.makespan, recorded.makespan);
        assert_eq!(summary.stats, recorded.stats);
    }
}

/// A circular wait: every rank posts its receive before its send, so no
/// message is ever produced and no rank can progress.
fn circular_wait_trace() -> Trace {
    let topology = Topology::new(3, 1);
    let mut trace = Trace::empty(topology);
    for rank in 0..3 {
        trace.push(
            rank,
            TraceOp::Recv {
                source: (rank + 2) % 3,
                bytes: 64,
                tag: 9,
            },
        );
        trace.push(
            rank,
            TraceOp::Send {
                dest: (rank + 1) % 3,
                bytes: 64,
                tag: 9,
            },
        );
    }
    trace
}

#[test]
fn deadlock_detection_survives_an_active_perturbation() {
    // A genuine circular wait must still be reported as `Deadlock` — not
    // misclassified as a drop-induced `Failure` — even when the drop model
    // is armed, because no message was ever sent to be dropped.  Both
    // engines must name the same stuck set.
    let trace = circular_wait_trace();
    let perturbation = Perturbation {
        seed: 11,
        drop: DropSpec {
            rate: 0.5,
            max_retries: 2,
            timeout: 100.0,
            backoff: 2.0,
        },
        ..Perturbation::NONE
    };
    let options = RunOptions::default().with_perturbation(perturbation);
    let engine = SimEngine::new(SimParams::default());
    let calendar = engine.run_with(&trace, options).unwrap_err();
    let reference = engine.run_reference_with(&trace, options).unwrap_err();
    assert_eq!(calendar, reference);
    match calendar {
        SimError::Deadlock { stuck_ranks } => assert_eq!(stuck_ranks, vec![0, 1, 2]),
        other => panic!("expected Deadlock, got {other:?}"),
    }
}
