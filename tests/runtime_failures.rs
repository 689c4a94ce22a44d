//! Failure-injection integration tests: the runtime and the simulator must
//! turn broken programs and broken schedules into structured errors, never
//! into hangs or silent corruption.

use std::time::{Duration, Instant};

use pip_mcoll::core::prelude::*;
use pip_mcoll::netsim::engine::{SimEngine, SimError};
use pip_mcoll::netsim::params::SimParams;
use pip_mcoll::netsim::trace::{Trace, TraceOp};
use pip_mcoll::runtime::{Cluster, RuntimeError, Topology};

#[test]
fn task_panic_is_attributed_to_the_failing_rank() {
    let err = Cluster::launch(Topology::new(2, 2), |ctx| {
        if ctx.rank() == 3 {
            panic!("injected fault on rank 3");
        }
        ctx.rank()
    })
    .unwrap_err();
    match err {
        RuntimeError::TaskPanicked { rank, message } => {
            assert_eq!(rank, 3);
            assert!(message.contains("injected fault"));
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn mismatched_point_to_point_times_out_instead_of_hanging() {
    let results =
        Cluster::launch_with_timeout(Topology::new(1, 2), Duration::from_millis(50), |ctx| {
            if ctx.rank() == 0 {
                // Waits for a message that is never sent.
                ctx.recv(1, 99).map(|_| ())
            } else {
                Ok(())
            }
        })
        .unwrap();
    assert!(matches!(results[0], Err(RuntimeError::RecvTimeout { .. })));
    assert!(results[1].is_ok());
}

/// Launch `topology` with a 100 ms progress deadline and run `program` on
/// every rank, telling rank 1 to skip its part.  Its node peer, rank 0, must
/// fail in bounded time instead of hanging, with the one wait loop's report:
/// the stalled rank, the invocation, and the op it is stuck at — a node
/// barrier, which no fabric deadline covers.
fn assert_rank_1_stalls_rank_0(topology: Topology, program: impl Fn(&Communicator, bool) + Sync) {
    let started = Instant::now();
    let outcome = Cluster::launch_with_timeout(topology, Duration::from_millis(100), |ctx| {
        let comm = Communicator::new(ctx, Library::PipMColl.profile());
        program(&comm, comm.rank() == 1);
    });
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    match outcome {
        Err(RuntimeError::TaskPanicked { rank: 0, message }) => {
            let stalled_at = "rank 0: no progress for 100ms at invocation tag 0x10000, op ";
            assert!(message.starts_with(stalled_at), "{message}");
            assert!(message.contains(": NodeBarrier — "), "{message}");
        }
        other => panic!("expected rank 0 to report the stall, got {other:?}"),
    }
}

#[test]
fn mismatched_blocking_collective_fails_instead_of_hanging() {
    let allreduce = |comm: &Communicator, skip: bool| {
        if !skip {
            comm.allreduce(&mut [1.0f32; 16], ReduceOp::Sum);
        }
    };
    // One node: only the barrier waits.  Two nodes: node 1's ranks are
    // stuck in receives at the same time.
    assert_rank_1_stalls_rank_0(Topology::new(1, 2), allreduce);
    assert_rank_1_stalls_rank_0(Topology::new(2, 2), allreduce);
}

#[test]
fn mismatched_request_wait_fails_instead_of_hanging() {
    // Rank 1 starts the collective but never completes it, so its cursor
    // stops at its first blocking point for good.
    assert_rank_1_stalls_rank_0(Topology::new(2, 2), |comm, skip| {
        let request = comm.iallreduce(&[1.0f32; 16], ReduceOp::Sum);
        if !skip {
            request.wait();
        }
    });
}

#[test]
fn wrong_sized_region_access_is_reported() {
    let results = Cluster::launch(Topology::new(1, 2), |ctx| {
        if ctx.local_rank() == 0 {
            ctx.expose("window", 8);
        }
        ctx.node_barrier();
        let region = ctx.attach(0, "window");
        let outcome = region.try_write(6, &[0u8; 8]);
        ctx.node_barrier();
        outcome
    })
    .unwrap();
    assert!(matches!(
        results[1],
        Err(RuntimeError::RegionOutOfBounds { capacity: 8, .. })
    ));
}

#[test]
fn simulator_rejects_unmatched_schedules() {
    let mut trace = Trace::empty(Topology::new(2, 1));
    trace.push(
        0,
        TraceOp::Send {
            dest: 1,
            bytes: 64,
            tag: 0,
        },
    );
    // Receive never posted on rank 1.
    let err = SimEngine::new(SimParams::default())
        .run(&trace)
        .unwrap_err();
    assert!(matches!(err, SimError::InvalidTrace(_)));
}

#[test]
fn simulator_reports_circular_waits_as_deadlock() {
    let mut trace = Trace::empty(Topology::new(2, 1));
    trace.push(
        0,
        TraceOp::Recv {
            source: 1,
            bytes: 8,
            tag: 0,
        },
    );
    trace.push(
        0,
        TraceOp::Send {
            dest: 1,
            bytes: 8,
            tag: 0,
        },
    );
    trace.push(
        1,
        TraceOp::Recv {
            source: 0,
            bytes: 8,
            tag: 0,
        },
    );
    trace.push(
        1,
        TraceOp::Send {
            dest: 0,
            bytes: 8,
            tag: 0,
        },
    );
    let err = SimEngine::new(SimParams::default())
        .run(&trace)
        .unwrap_err();
    match err {
        SimError::Deadlock { stuck_ranks } => assert_eq!(stuck_ranks, vec![0, 1]),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn user_program_panic_surfaces_through_the_world_api() {
    let err = World::builder()
        .nodes(1)
        .ppn(3)
        .library(Library::PipMColl)
        .run(|comm| {
            if comm.rank() == 2 {
                panic!("application bug");
            }
            comm.rank()
        })
        .unwrap_err();
    assert!(err.to_string().contains("application bug"));
}
