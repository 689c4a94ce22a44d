//! High-level simulation entry point and reporting.

use pip_transport::cost::Nanos;

use crate::engine::{RunOptions, SimEngine, SimError, SimOutcome};
use crate::params::SimParams;
use crate::perturb::Perturbation;
use crate::trace::Trace;

/// A human- and machine-readable summary of one simulated collective.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Label supplied by the caller (e.g. the library preset name).
    pub label: String,
    /// Completion time of the collective in nanoseconds.
    pub makespan_ns: Nanos,
    /// Completion time in microseconds (the unit the paper plots).
    pub makespan_us: f64,
    /// Number of ranks simulated.
    pub world_size: usize,
    /// Messages that crossed the network.
    pub internode_messages: usize,
    /// Messages between tasks of one node.
    pub intranode_messages: usize,
    /// Bytes that crossed the network.
    pub internode_bytes: usize,
    /// Message bytes retransmitted by the drop/retry model (zero on a
    /// healthy fabric).
    pub retransmitted_bytes: usize,
    /// Total bytes-on-wire: every internode payload byte including
    /// retransmissions (`internode_bytes + retransmitted_bytes`).  The axis
    /// the compression figures report.
    pub wire_bytes: usize,
    /// Largest per-node NIC occupancy, as a fraction of the makespan
    /// (how close the busiest adapter came to saturation).
    pub nic_utilization: f64,
    /// Number of node-local barrier episodes.
    pub barrier_episodes: usize,
    /// Retransmissions forced by the perturbation's drop model (zero on a
    /// healthy fabric).
    pub retries: usize,
    /// p99 spread of rank finish times, in microseconds (zero when all
    /// ranks finish together).
    pub finish_skew_p99_us: f64,
}

impl SimulationReport {
    /// Build a report from a raw engine outcome.
    pub fn from_outcome(label: impl Into<String>, world_size: usize, outcome: &SimOutcome) -> Self {
        let nic_utilization = if outcome.makespan > 0.0 {
            outcome.stats.nic_busy_max / outcome.makespan
        } else {
            0.0
        };
        Self {
            label: label.into(),
            makespan_ns: outcome.makespan,
            makespan_us: outcome.makespan / 1000.0,
            world_size,
            internode_messages: outcome.stats.internode_messages,
            intranode_messages: outcome.stats.intranode_messages,
            internode_bytes: outcome.stats.internode_bytes,
            retransmitted_bytes: outcome.stats.retransmitted_bytes,
            wire_bytes: outcome.stats.internode_bytes + outcome.stats.retransmitted_bytes,
            nic_utilization,
            barrier_episodes: outcome.stats.barrier_episodes,
            retries: outcome.stats.retries,
            finish_skew_p99_us: outcome.stats.finish_skew_p99 / 1000.0,
        }
    }
}

/// Recording options for summary reports: the report only consumes the
/// makespan and aggregate statistics, so per-rank finish times are skipped.
const SUMMARY_OPTIONS: RunOptions = RunOptions::summary();

/// Simulate `trace` under `params` and label the report.
///
/// A node-symmetric schedule is replayed folded, from node 0's ranks
/// ([`SimEngine::run_folded_with`]); the report is the full replay's.  Such
/// a trace is also validated through node 0's programs alone
/// ([`crate::FoldedTrace::validate`]) instead of rank by rank; an invalid
/// trace fails with the full validator's error either way.
pub fn simulate(
    label: impl Into<String>,
    trace: &Trace,
    params: &SimParams,
) -> Result<SimulationReport, SimError> {
    simulate_degraded(label, trace, params, Perturbation::NONE)
}

/// Like [`simulate`], but replay under a degraded fabric described by
/// `perturbation`.  Like [`simulate`], an identity perturbation of a
/// symmetric schedule is replayed folded; every other config is replayed in
/// full.
pub fn simulate_degraded(
    label: impl Into<String>,
    trace: &Trace,
    params: &SimParams,
    perturbation: Perturbation,
) -> Result<SimulationReport, SimError> {
    let engine = SimEngine::new(*params);
    let options = SUMMARY_OPTIONS.with_perturbation(perturbation);
    let outcome = engine.run_folded_with(trace, options)?;
    Ok(SimulationReport::from_outcome(
        label,
        trace.topology.world_size(),
        &outcome,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::DropSpec;
    use crate::trace::TraceOp;
    use pip_runtime::Topology;

    fn ping_pong_trace() -> Trace {
        let mut trace = Trace::empty(Topology::new(2, 1));
        trace.push(
            0,
            TraceOp::Send {
                dest: 1,
                bytes: 256,
                tag: 0,
            },
        );
        trace.push(
            1,
            TraceOp::Recv {
                source: 0,
                bytes: 256,
                tag: 0,
            },
        );
        trace.push(
            1,
            TraceOp::Send {
                dest: 0,
                bytes: 256,
                tag: 1,
            },
        );
        trace.push(
            0,
            TraceOp::Recv {
                source: 1,
                bytes: 256,
                tag: 1,
            },
        );
        trace
    }

    #[test]
    fn simulate_produces_consistent_units() {
        let report = simulate("ping-pong", &ping_pong_trace(), &SimParams::default()).unwrap();
        assert_eq!(report.label, "ping-pong");
        assert!((report.makespan_us - report.makespan_ns / 1000.0).abs() < 1e-12);
        assert_eq!(report.world_size, 2);
        assert_eq!(report.internode_messages, 2);
        assert_eq!(report.internode_bytes, 512);
        assert_eq!(report.retransmitted_bytes, 0);
        assert_eq!(report.wire_bytes, 512);
    }

    #[test]
    fn folded_simulation_reports_match_full_simulation() {
        // A node-symmetric ring at 6x2: simulate and simulate_degraded fold
        // it under the identity perturbation and must produce the report of
        // the full replay.
        let topology = Topology::new(6, 2);
        let mut trace = Trace::empty(topology);
        for rank in 0..topology.world_size() {
            let node = topology.node_of(rank);
            let local = topology.local_rank_of(rank);
            let next = topology.rank_of((node + 1) % 6, local);
            let prev = topology.rank_of((node + 5) % 6, local);
            trace.push(
                rank,
                TraceOp::Send {
                    dest: next,
                    bytes: 512,
                    tag: 0,
                },
            );
            trace.push(
                rank,
                TraceOp::Recv {
                    source: prev,
                    bytes: 512,
                    tag: 0,
                },
            );
        }
        let params = SimParams::default();
        let outcome = SimEngine::new(params)
            .run_with(&trace, SUMMARY_OPTIONS)
            .unwrap();
        let full = SimulationReport::from_outcome("ring", topology.world_size(), &outcome);
        let folded = simulate("ring", &trace, &params).unwrap();
        assert_eq!(folded, full);
        let degraded = simulate_degraded("ring", &trace, &params, Perturbation::NONE).unwrap();
        assert_eq!(degraded, full);
    }

    #[test]
    fn nic_utilization_is_bounded() {
        let report = simulate("x", &ping_pong_trace(), &SimParams::default()).unwrap();
        assert!(report.nic_utilization >= 0.0);
        assert!(report.nic_utilization <= 1.0);
    }

    #[test]
    fn degraded_with_identity_perturbation_matches_baseline() {
        let trace = ping_pong_trace();
        let healthy = simulate("x", &trace, &SimParams::default()).unwrap();
        let degraded =
            simulate_degraded("x", &trace, &SimParams::default(), Perturbation::NONE).unwrap();
        assert_eq!(healthy, degraded);
    }

    #[test]
    fn degraded_run_reports_retries_and_slows_down() {
        let trace = ping_pong_trace();
        let healthy = simulate("x", &trace, &SimParams::default()).unwrap();
        let perturbation = Perturbation {
            seed: 7,
            drop: DropSpec {
                rate: 0.9,
                max_retries: 50,
                timeout: 500.0,
                backoff: 2.0,
            },
            ..Perturbation::NONE
        };
        let degraded = simulate_degraded("x", &trace, &SimParams::default(), perturbation).unwrap();
        assert!(degraded.retries > 0);
        assert!(degraded.makespan_ns > healthy.makespan_ns);
        // Every retry re-sends the 256-byte payload, and the wire total
        // accounts for both the first transmission and every repeat.
        assert_eq!(degraded.retransmitted_bytes, degraded.retries * 256);
        assert_eq!(
            degraded.wire_bytes,
            degraded.internode_bytes + degraded.retransmitted_bytes
        );
        assert_eq!(healthy.wire_bytes, healthy.internode_bytes);
    }
}
