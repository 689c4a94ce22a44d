//! Chaos-differential pin for the perturbation plane.
//!
//! Every random draw in [`pip_netsim::perturb`] is a pure hash of static
//! identifiers — (seed, src-node, dst-node) for link jitter, (seed, rank,
//! pc, attempt) for drops — so the calendar-queue engine and the seed
//! reference engine
//! must agree *bit-for-bit* on every perturbed run, exactly as they do on
//! healthy ones.  This suite pins that property over random traces × random
//! perturbation configs, plus the surrounding invariants:
//!
//! * **identity** — a zero-magnitude config reproduces the unperturbed run
//!   exactly on every path (full, folded, reference);
//! * **no perturbed fold** — every other config draws per link or per
//!   message, so a folded entry point replays it in full or rejects it;
//! * **determinism** — same seed, same outcome; different seed, different
//!   timeline; distribution sanity for the draws;
//! * **liveness** — drop rates below the retry budget always complete,
//!   rates above it yield a structured [`SimError::Failure`] naming the
//!   starved `(rank, tag)` pairs — never a hang, never a bare deadlock.

use pip_netsim::{
    DropSpec, FoldedTrace, Perturbation, RunOptions, SimEngine, SimError, SimParams, Trace, TraceOp,
};
use pip_runtime::Topology;
use proptest::prelude::*;

mod common;
use common::{random_trace, symmetric_trace, Lcg};

/// A random perturbation drawn from small discrete sets so every regime —
/// inert, jitter-only, lossy, combined — shows up across the proptest
/// cases.  Retry budgets are deep enough that sub-unity drop rates
/// practically always deliver, keeping most cases on the `Ok` path.
fn random_perturbation(seed: u64) -> Perturbation {
    let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9) | 1);
    Perturbation {
        seed: rng.next(),
        latency_jitter: rng.pick(&[0.0, 250.0]),
        drop: DropSpec {
            rate: rng.pick(&[0.0, 0.02, 0.1]),
            max_retries: 6 + rng.below(4) as u32,
            timeout: 1_000.0 + rng.below(2_000) as f64,
            backoff: 1.0 + rng.below(3) as f64,
        },
    }
}

/// [`random_perturbation`] with the inert draws made non-identity: a
/// 250 ns jitter bound wherever the draw came out jitter-free and lossless.
fn random_active_perturbation(seed: u64) -> Perturbation {
    let mut perturbation = random_perturbation(seed);
    if perturbation.is_identity() {
        perturbation.latency_jitter = 250.0;
    }
    perturbation
}

/// A config with every magnitude at its neutral element: active in shape
/// (non-zero retry budget) but an arithmetic identity.
fn zero_magnitude_perturbation(seed: u64) -> Perturbation {
    Perturbation {
        seed,
        latency_jitter: 0.0,
        drop: DropSpec {
            rate: 0.0,
            max_retries: 8,
            timeout: 1_000.0,
            backoff: 2.0,
        },
    }
}

/// Bitwise agreement on everything event-ordering cannot touch; tolerance
/// only for float accumulators whose summation order differs by design.
fn assert_outcomes_agree(
    label: &str,
    a: &pip_netsim::engine::SimOutcome,
    b: &pip_netsim::engine::SimOutcome,
) {
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(a.rank_finish, b.rank_finish, "{label}: rank_finish");
    assert_eq!(a.stats.retries, b.stats.retries, "{label}: retries");
    assert_eq!(
        a.stats.retransmitted_bytes, b.stats.retransmitted_bytes,
        "{label}: retransmitted_bytes"
    );
    assert_eq!(
        a.stats.finish_skew_p50, b.stats.finish_skew_p50,
        "{label}: finish_skew_p50"
    );
    assert_eq!(
        a.stats.finish_skew_p99, b.stats.finish_skew_p99,
        "{label}: finish_skew_p99"
    );
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
    fn calendar_engine_matches_reference_under_random_perturbations(
        nodes in 1usize..6,
        ppn in 1usize..5,
        rounds in 1usize..5,
        seed in any::<u64>(),
    ) {
        let trace = random_trace(nodes, ppn, rounds, seed);
        let perturbation = random_perturbation(seed);
        let options = RunOptions::default().with_perturbation(perturbation);
        let engine = SimEngine::new(SimParams::default());
        let label = format!("{nodes}x{ppn} rounds={rounds} seed={seed}");
        match (
            engine.run_with(&trace, options),
            engine.run_reference_with(&trace, options),
        ) {
            (Ok(calendar), Ok(reference)) => {
                assert_outcomes_agree(&label, &calendar, &reference);
            }
            // A starved message (drop budget exhausted) must be reported
            // identically: same starved list, same stuck set.
            (Err(calendar), Err(reference)) => prop_assert_eq!(calendar, reference),
            (a, b) => panic!("{label}: engines disagree on success: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn zero_magnitude_config_is_invisible_on_every_path(
        nodes in 1usize..6,
        ppn in 1usize..5,
        rounds in 1usize..4,
        seed in any::<u64>(),
    ) {
        let trace = random_trace(nodes, ppn, rounds, seed);
        let identity = zero_magnitude_perturbation(seed);
        prop_assert!(identity.is_identity());
        let options = RunOptions::default().with_perturbation(identity);
        let engine = SimEngine::new(SimParams::default());

        let baseline = engine.run(&trace).expect("baseline");
        prop_assert_eq!(&engine.run_with(&trace, options).expect("full"), &baseline);
        prop_assert_eq!(
            &engine.run_folded_with(&trace, options).expect("folded"),
            &engine.run_folded(&trace).expect("folded baseline")
        );
        prop_assert_eq!(
            &engine.run_reference_with(&trace, options).expect("reference"),
            &engine.run_reference(&trace).expect("reference baseline")
        );
    }

    #[test]
    fn perturbed_symmetric_traces_replay_in_full(
        nodes in 2usize..6,
        ppn in 1usize..5,
        rounds in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Every one of these traces folds unperturbed; under any
        // non-identity config `run_folded_with` must replay the full world
        // (bit-identical to `run_with`) and the direct folded entry point,
        // with no full trace to fall back to, must refuse.
        let trace = symmetric_trace(nodes, ppn, rounds, seed);
        let folded = FoldedTrace::detect(&trace).expect("symmetric traces fold");
        let perturbation = random_active_perturbation(seed);
        prop_assert!(FoldedTrace::detect_with(&trace, Some(&perturbation)).is_none());
        let options = RunOptions::default().with_perturbation(perturbation);
        let engine = SimEngine::new(SimParams::default());
        match (
            engine.run_with(&trace, options),
            engine.run_folded_with(&trace, options),
        ) {
            (Ok(full), Ok(folded)) => prop_assert_eq!(full, folded),
            (Err(full), Err(folded)) => prop_assert_eq!(full, folded),
            (a, b) => panic!("fallback mismatch: {a:?} vs {b:?}"),
        }
        prop_assert_eq!(
            engine.run_folded_trace(&folded, options),
            Err(SimError::AsymmetricPerturbation)
        );
    }

    #[test]
    fn asymmetric_perturbations_fall_back_to_full_replay(
        nodes in 2usize..6,
        ppn in 1usize..5,
        seed in any::<u64>(),
    ) {
        // `run_folded_with` must notice the asymmetry and silently replay
        // in full, so its outcome equals `run_with` bit-for-bit.
        let trace = random_trace(nodes, ppn, 2, seed);
        let perturbation = random_active_perturbation(seed);
        prop_assert!(!perturbation.is_identity());
        let options = RunOptions::default().with_perturbation(perturbation);
        let engine = SimEngine::new(SimParams::default());
        match (
            engine.run_with(&trace, options),
            engine.run_folded_with(&trace, options),
        ) {
            (Ok(full), Ok(folded)) => prop_assert_eq!(full, folded),
            (Err(full), Err(folded)) => prop_assert_eq!(full, folded),
            (a, b) => panic!("fallback mismatch: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn same_seed_reproduces_the_exact_outcome() {
    let trace = random_trace(4, 3, 3, 42);
    let perturbation = random_perturbation(42);
    let options = RunOptions::default().with_perturbation(perturbation);
    let engine = SimEngine::new(SimParams::default());
    let first = engine.run_with(&trace, options).expect("first run");
    let second = engine.run_with(&trace, options).expect("second run");
    assert_eq!(first, second);
}

#[test]
fn different_seeds_move_the_timeline() {
    let trace = random_trace(4, 3, 3, 42);
    let base = Perturbation {
        latency_jitter: 500.0,
        ..Perturbation::NONE
    };
    let engine = SimEngine::new(SimParams::default());
    let makespans: Vec<f64> = (0..4u64)
        .map(|seed| {
            let options = RunOptions::default().with_perturbation(Perturbation { seed, ..base });
            engine.run_with(&trace, options).expect("run").makespan
        })
        .collect();
    assert!(
        makespans.windows(2).any(|w| w[0] != w[1]),
        "four seeds produced identical makespans: {makespans:?}"
    );
}

#[test]
fn perturbed_summary_runs_skip_rank_finish_but_keep_the_stats() {
    let trace = random_trace(3, 3, 3, 7);
    let perturbation = random_perturbation(7);
    let engine = SimEngine::new(SimParams::default());
    let recorded = engine
        .run_with(
            &trace,
            RunOptions::default().with_perturbation(perturbation),
        )
        .expect("recorded");
    let summary = engine
        .run_with(
            &trace,
            RunOptions::summary().with_perturbation(perturbation),
        )
        .expect("summary");
    assert!(!recorded.rank_finish.is_empty());
    assert!(summary.rank_finish.is_empty());
    assert_eq!(summary.makespan, recorded.makespan);
    assert_eq!(summary.stats, recorded.stats);
}

// --- distribution sanity (different seeds, public draw API) -------------

#[test]
fn mean_link_jitter_is_within_tolerance() {
    let perturbation = Perturbation {
        seed: 123,
        latency_jitter: 1_000.0,
        ..Perturbation::NONE
    };
    let n = 200usize;
    let mut sum = 0.0;
    for src in 0..n {
        for dst in 0..n {
            sum += perturbation.link_latency_extra(src, dst);
        }
    }
    let mean = sum / (n * n) as f64;
    // Uniform on [0, jitter): mean = jitter / 2 = 500.
    assert!(
        (450.0..=550.0).contains(&mean),
        "mean link latency extra {mean} outside [450, 550]"
    );
}

#[test]
fn drop_rate_matches_first_attempt_frequency() {
    let perturbation = Perturbation {
        seed: 7,
        drop: DropSpec {
            rate: 0.1,
            max_retries: 3,
            timeout: 1_000.0,
            backoff: 2.0,
        },
        ..Perturbation::NONE
    };
    let retried = (0..20_000)
        .filter(|&pc| perturbation.send_fate(0, pc).retries > 0)
        .count();
    let freq = retried as f64 / 20_000.0;
    assert!(
        (0.09..=0.11).contains(&freq),
        "first-attempt drop frequency {freq} outside [0.09, 0.11]"
    );
}

// --- liveness / failure modes -------------------------------------------

/// An inter-node ring exchange (the shape every collective in the repo
/// reduces to at node granularity).
fn internode_ring_trace(nodes: usize, ppn: usize) -> Trace {
    let topology = Topology::new(nodes, ppn);
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
                bytes: 4_096,
                tag: 5,
            },
        );
        trace.push(
            rank,
            TraceOp::Recv {
                source: prev,
                bytes: 4_096,
                tag: 5,
            },
        );
    }
    trace
}

#[test]
fn sub_budget_drop_rates_always_complete() {
    // With rate 0.05 and a 10-deep retry budget, exhausting the budget
    // needs 11 consecutive losses (p ≈ 5e-15): the deterministic draws
    // never produce one, so every grid point must complete.
    let engine = SimEngine::new(SimParams::default());
    for &(nodes, ppn) in &[(2usize, 2usize), (4, 3), (6, 1)] {
        let trace = internode_ring_trace(nodes, ppn);
        for seed in 0..16u64 {
            let perturbation = Perturbation {
                seed,
                drop: DropSpec {
                    rate: 0.05,
                    max_retries: 10,
                    timeout: 1_000.0,
                    backoff: 2.0,
                },
                ..Perturbation::NONE
            };
            let options = RunOptions::default().with_perturbation(perturbation);
            let outcome = engine
                .run_with(&trace, options)
                .unwrap_or_else(|e| panic!("{nodes}x{ppn} seed={seed}: {e}"));
            let reference = engine
                .run_reference_with(&trace, options)
                .unwrap_or_else(|e| panic!("{nodes}x{ppn} seed={seed} reference: {e}"));
            assert_outcomes_agree(
                &format!("live {nodes}x{ppn} seed={seed}"),
                &outcome,
                &reference,
            );
        }
    }
}

#[test]
fn exhausted_drop_budget_reports_structured_failure_not_deadlock() {
    let trace = internode_ring_trace(4, 2);
    let perturbation = Perturbation {
        seed: 1,
        drop: DropSpec {
            rate: 1.0,
            max_retries: 2,
            timeout: 500.0,
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
        SimError::Failure(failure) => {
            assert!(!failure.starved.is_empty());
            assert!(!failure.stuck_ranks.is_empty());
            // Every starved entry names the receiver, sender, and tag of a
            // message whose drop budget ran out.
            for starved in &failure.starved {
                assert!(starved.rank < trace.topology.world_size());
                assert_eq!(starved.tag, 5);
                assert_eq!(starved.attempts, 3); // 1 try + 2 retries
            }
        }
        other => panic!("expected SimError::Failure, got {other:?}"),
    }
}
