//! Modeling communication/computation overlap for non-blocking collectives.
//!
//! The request-based API lets an application post a collective, compute, and
//! only then wait — while it computes, messages that were already posted
//! keep flowing through the NIC and across the wire.  This module quantifies
//! how much of a compute interval a library's schedule can hide, using the
//! same compiled plans and discrete-event simulator as the figures:
//!
//! * the **blocking** baseline places a [`TraceOp::Compute`] interval
//!   *before* each rank's collective program — compute then communicate,
//!   nothing hidden (`t_blocking ≈ compute + t_collective`);
//! * the **overlapped** variant places the compute interval after each
//!   rank's leading run of wait-free operations — everything up to its
//!   first receive or node barrier.  This models `iallreduce` + one
//!   progress kick + compute + `wait` on a runtime whose progress engine
//!   runs *inside completion calls* (no background progress thread): the
//!   kick drives the cursor until it first blocks, so exactly the leading
//!   posts are in flight while the application computes.
//!
//! Overlap efficiency is the fraction of the hideable time actually hidden:
//! `(t_blocking - t_overlapped) / min(compute, t_collective)`.  The numbers
//! are deliberately honest about the kick-once model: schedules that
//! front-load network injections (flat recursive doubling — round-one
//! messages fly during the compute) recover a few percent, while schedules
//! that synchronize intra-node before injecting (the multi-object design)
//! recover nothing — their entire pitch is that the leader stages are cheap
//! enough that the *blocking* makespan already beats everyone else's
//! overlapped one at small sizes, so there is little left to hide.  Full
//! overlap of the leader stages would need a dedicated progress object (a
//! natural next step for the runtime; the trace op and this harness are the
//! measurement surface for it).

use pip_collectives::plan::Fidelity;
use pip_collectives::CollectiveKind;
use pip_mpi_model::plan::compile_cluster;
use pip_mpi_model::{CollectiveShape, Library};
use pip_netsim::cluster::ClusterSpec;
use pip_netsim::network::simulate;
use pip_netsim::trace::{Trace, TraceOp};

/// Slack allowed when asserting "overlapped is never slower than blocking":
/// moving the compute interval shifts *when* each rank's messages hit its
/// node's NIC adapter, and the adapter serializes injections in arrival
/// order, so the overlapped schedule can queue a later round marginally
/// worse than the blocking one.  The effect is a fraction of a percent;
/// anything beyond this factor is a real regression.
pub const OVERLAP_MODEL_SLACK: f64 = 1.02;

/// One measured point of an overlap sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapPoint {
    /// The library whose schedule was simulated.
    pub library: Library,
    /// Per-process message size in bytes.
    pub bytes: usize,
    /// Length of the compute interval each rank overlaps, in nanoseconds.
    pub compute_ns: f64,
    /// Makespan of the collective alone, in nanoseconds.
    pub collective_ns: f64,
    /// Makespan of compute-then-collective (no overlap), in nanoseconds.
    pub blocking_ns: f64,
    /// Makespan with the compute interval placed after the posting prefix.
    pub overlapped_ns: f64,
    /// `(blocking - overlapped) / min(compute, collective)`, clamped to
    /// `[0, 1]`.
    pub efficiency: f64,
}

/// Insert a compute interval of `nanos` into every rank of `trace`.
///
/// With `overlap` false the interval goes first (compute, then the whole
/// collective).  With `overlap` true it goes after the rank's longest
/// prefix of wait-free operations (before its first receive or node
/// barrier) — the point a single progress kick after submission reaches, so
/// everything already posted proceeds concurrently with the compute.
/// Placing it at the first *wait* on every rank (rather than, say, each
/// rank's first internode receive) keeps the insertion structurally
/// homogeneous across ranks; heterogeneous placements let compute intervals
/// stack along cross-rank dependency chains and overstate the cost.  Both
/// transformations preserve trace validity: message matching and per-node
/// barrier counts are untouched, and no operation is reordered (compute
/// only delays what follows it).
pub fn with_compute(trace: &Trace, nanos: f64, overlap: bool) -> Trace {
    let mut out = trace.clone();
    for rank_trace in &mut out.ranks {
        let pos = if overlap {
            rank_trace
                .ops
                .iter()
                .position(|op| matches!(op, TraceOp::Recv { .. } | TraceOp::LocalBarrier))
                .unwrap_or(rank_trace.ops.len())
        } else {
            0
        };
        rank_trace.ops.insert(pos, TraceOp::Compute { nanos });
    }
    out
}

/// Shared core of the overlap measurements: compile once, simulate the
/// bare collective, derive the compute interval from its makespan via
/// `compute_of`, then simulate the blocking and overlapped placements.
fn overlap_point(
    library: Library,
    cluster: ClusterSpec,
    bytes: usize,
    compute_of: impl FnOnce(f64) -> f64,
) -> OverlapPoint {
    let profile = library.profile();
    let params = profile.sim_params(cluster.nic);
    let shape = CollectiveShape {
        kind: CollectiveKind::Allreduce,
        block: bytes,
        root: 0,
        elem_size: 1,
        reduce: None,
        layout: None,
        compress: None,
    };
    let plan = compile_cluster(&profile, cluster.topology(), &shape, Fidelity::Schedule);
    let trace = plan.to_trace(1);
    let run = |t: &Trace, label: &str| {
        simulate(label, t, &params)
            .unwrap_or_else(|e| panic!("{} overlap {bytes} B: {e}", library.name()))
            .makespan_us
            * 1000.0
    };
    let collective_ns = run(&trace, "collective");
    let compute_ns = compute_of(collective_ns);
    let blocking_ns = run(&with_compute(&trace, compute_ns, false), "blocking");
    let overlapped_ns = run(&with_compute(&trace, compute_ns, true), "overlapped");
    let hideable = compute_ns.min(collective_ns);
    let efficiency = if hideable > 0.0 {
        ((blocking_ns - overlapped_ns) / hideable).clamp(0.0, 1.0)
    } else {
        0.0
    };
    OverlapPoint {
        library,
        bytes,
        compute_ns,
        collective_ns,
        blocking_ns,
        overlapped_ns,
        efficiency,
    }
}

/// Simulate the overlap behaviour of one library's allreduce of `bytes`
/// bytes on `cluster`, with a compute interval of `compute_ns` per rank.
pub fn allreduce_overlap(
    library: Library,
    cluster: ClusterSpec,
    bytes: usize,
    compute_ns: f64,
) -> OverlapPoint {
    overlap_point(library, cluster, bytes, |_| compute_ns)
}

/// Sweep every library across `sizes`, with the compute interval set to
/// `compute_factor ×` that library's own collective makespan (so every
/// library is probed at a comparable "fully hideable" operating point).
pub fn allreduce_overlap_sweep(
    cluster: ClusterSpec,
    sizes: &[usize],
    compute_factor: f64,
) -> Vec<OverlapPoint> {
    let mut points = Vec::new();
    for library in Library::ALL {
        for &bytes in sizes {
            points.push(overlap_point(library, cluster, bytes, |collective_ns| {
                collective_ns * compute_factor
            }));
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_never_slower_than_blocking_and_efficiency_in_range() {
        let cluster = ClusterSpec::new(4, 4);
        for library in Library::ALL {
            for bytes in [64usize, 1024] {
                let point = allreduce_overlap(library, cluster, bytes, 20_000.0);
                assert!(
                    point.overlapped_ns <= point.blocking_ns * OVERLAP_MODEL_SLACK,
                    "{}: overlapped {} > blocking {}",
                    library.name(),
                    point.overlapped_ns,
                    point.blocking_ns
                );
                assert!(
                    point.blocking_ns >= point.collective_ns,
                    "{}: compute must not shrink the makespan",
                    library.name()
                );
                assert!((0.0..=1.0).contains(&point.efficiency));
            }
        }
    }

    #[test]
    fn compute_insertion_preserves_trace_validity() {
        let cluster = ClusterSpec::new(3, 3);
        let profile = Library::PipMColl.profile();
        let shape = CollectiveShape {
            kind: CollectiveKind::Allreduce,
            block: 128,
            root: 0,
            elem_size: 1,
            reduce: None,
            layout: None,
            compress: None,
        };
        let plan = compile_cluster(&profile, cluster.topology(), &shape, Fidelity::Schedule);
        let trace = plan.to_trace(1);
        with_compute(&trace, 5_000.0, false).validate().unwrap();
        with_compute(&trace, 5_000.0, true).validate().unwrap();
    }
}
