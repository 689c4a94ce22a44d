//! The lockstep world: every rank of a small cluster driven by one thread.
//!
//! A threaded world measures the scheduler as much as the library: the same
//! blocking 64 B allreduce in a long-lived 1x2 world read 64 / 20 / 51 us
//! p50 in three consecutive runs on the 2-core sandbox (condvar wake-ups).
//! Here the world is built from the runtime's public pieces and one driver
//! thread makes every rank's non-blocking call in rank order, then polls
//! the requests round-robin until all are complete.  That is a closed loop
//! with one outstanding world-call; it measures the software cost of a
//! collective summed over ranks, not the parallel critical path and not
//! wake-up latency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pip_mcoll_core::{CollRequest, Communicator, PersistentColl};
use pip_mpi_model::Library;
use pip_runtime::{Fabric, NodeSpace, TaskCtx, Topology};

use crate::spans::Recorder;

/// A correct world completes any call of this benchmark in milliseconds;
/// past this the driver reports a stall instead of spinning forever.
const STALL_LIMIT: Duration = Duration::from_secs(60);

pub struct World {
    fabric: Fabric,
    ctxs: Vec<TaskCtx>,
}

impl World {
    pub fn new(nodes: usize, ppn: usize) -> Self {
        let topology = Topology::new(nodes, ppn);
        let fabric = Fabric::new(topology.world_size());
        let spaces: Vec<Arc<NodeSpace>> = (0..nodes).map(|n| NodeSpace::new(n, ppn)).collect();
        let ctxs = (0..topology.world_size())
            .map(|rank| {
                TaskCtx::new(
                    rank,
                    topology,
                    Arc::clone(&spaces[topology.node_of(rank)]),
                    fabric.clone(),
                )
            })
            .collect();
        Self { fabric, ctxs }
    }

    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Shared regions currently registered, over all nodes.
    pub fn exposed_regions(&self) -> usize {
        self.ctxs
            .iter()
            .filter(|ctx| ctx.is_node_root())
            .map(|ctx| ctx.node().exposed_count())
            .sum()
    }

    /// One communicator per rank, in rank order.
    pub fn communicators(&self, library: Library) -> Vec<Communicator<'_>> {
        self.ctxs
            .iter()
            .map(|ctx| Communicator::new(ctx, library.profile()))
            .collect()
    }
}

/// Call `poll` (one round-robin pass over every rank) until it reports
/// that all ranks are complete.
fn poll_until_complete(name: &str, mut poll: impl FnMut() -> bool) {
    let started = Instant::now();
    let mut passes = 0u64;
    while !poll() {
        passes += 1;
        if passes.is_multiple_of(4096) && started.elapsed() > STALL_LIMIT {
            panic!("lockstep world stalled in {name}: no completion after {STALL_LIMIT:?}");
        }
    }
}

/// One world-call of a non-blocking collective: every rank issues in rank
/// order, the driver polls `test()` round-robin until all ranks are
/// complete, then collects with `wait()`.  Recorded as a span `name` with
/// children `issue`, `progress` and `finish`.
pub fn world_call<'c, O>(
    rec: &mut Recorder,
    name: &'static str,
    iter: u32,
    world: usize,
    issue: impl FnMut(usize) -> CollRequest<'c, O>,
) -> Vec<O> {
    let op = rec.enter(name, iter);
    let phase = rec.enter("issue", iter);
    let mut requests: Vec<CollRequest<'c, O>> = (0..world).map(issue).collect();
    rec.exit(phase);
    let phase = rec.enter("progress", iter);
    poll_until_complete(name, || {
        // No short-circuit: every rank is polled on every pass.
        requests.iter_mut().fold(true, |all, r| r.test() & all)
    });
    rec.exit(phase);
    let phase = rec.enter("finish", iter);
    let results = requests.into_iter().map(CollRequest::wait).collect();
    rec.exit(phase);
    rec.exit(op);
    results
}

/// One world-call on persistent handles: `write_send` + `start` on every
/// rank in rank order, poll, then `wait()`.
pub fn persistent_call<O>(
    rec: &mut Recorder,
    name: &'static str,
    iter: u32,
    handles: &mut [PersistentColl<'_, O>],
    inputs: &[Vec<f32>],
) -> Vec<O> {
    let op = rec.enter(name, iter);
    let phase = rec.enter("issue", iter);
    for (handle, input) in handles.iter_mut().zip(inputs) {
        handle.write_send(input);
        handle.start();
    }
    rec.exit(phase);
    let phase = rec.enter("progress", iter);
    poll_until_complete(name, || {
        handles.iter_mut().fold(true, |all, h| h.test() & all)
    });
    rec.exit(phase);
    let phase = rec.enter("finish", iter);
    let results = handles.iter_mut().map(PersistentColl::wait).collect();
    rec.exit(phase);
    rec.exit(op);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_mcoll_core::ReduceOp;

    #[test]
    fn one_thread_completes_a_collective_on_every_rank() {
        let world = World::new(2, 2);
        let comms = world.communicators(Library::PipMColl);
        let mut rec = Recorder::new(true);
        let sums = world_call(&mut rec, "iallreduce", 0, comms.len(), |rank| {
            comms[rank].iallreduce(&[rank as u32, 1], ReduceOp::Sum)
        });
        assert_eq!(sums, vec![vec![6, 4]; 4]);
        let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["iallreduce", "issue", "progress", "finish"]);
        assert!(comms.iter().all(|c| c.outstanding_requests() == 0));
    }
}
