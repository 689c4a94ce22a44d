//! Launching a simulated cluster and the per-task context handed to user
//! code.
//!
//! [`Cluster::launch`] spawns one thread per rank (the PiP task), builds the
//! per-node [`NodeSpace`]s and the global [`Fabric`], runs the user closure
//! on every task, joins everything, and propagates panics as structured
//! errors.  [`TaskCtx`] is what the closure receives: the task's coordinates
//! plus handles to its node's shared address space and the fabric.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::error::{Result, RuntimeError};
use crate::fabric::{Fabric, MatchSpec, Message, Tag};
use crate::memory::ExposedRegion;
use crate::node::NodeSpace;
use crate::scope::ScopeHandle;
use crate::topology::Topology;

/// Per-task context: everything a PiP task can see.
#[derive(Debug, Clone)]
pub struct TaskCtx {
    rank: usize,
    topology: Topology,
    node: Arc<NodeSpace>,
    fabric: Fabric,
}

impl TaskCtx {
    /// Construct a context directly (exposed so tests and single-task tools
    /// can build a context without going through [`Cluster::launch`]).
    pub fn new(rank: usize, topology: Topology, node: Arc<NodeSpace>, fabric: Fabric) -> Self {
        Self {
            rank,
            topology,
            node,
            fabric,
        }
    }

    /// This task's global rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.topology.world_size()
    }

    /// The cluster topology.
    #[inline]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The node hosting this task.
    #[inline]
    pub fn node_id(&self) -> usize {
        self.topology.node_of(self.rank)
    }

    /// This task's local rank within its node (the paper's `R_l`).
    #[inline]
    pub fn local_rank(&self) -> usize {
        self.topology.local_rank_of(self.rank)
    }

    /// Processes per node (the paper's `P`).
    #[inline]
    pub fn ppn(&self) -> usize {
        self.topology.ppn()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topology.nodes()
    }

    /// Whether this task is its node's leader (local rank 0).
    #[inline]
    pub fn is_node_root(&self) -> bool {
        self.local_rank() == 0
    }

    /// Handle to this task's node space.
    pub fn node(&self) -> &Arc<NodeSpace> {
        &self.node
    }

    /// Handle to the inter-node fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    // ------------------------------------------------------------------
    // PiP shared-address-space operations (intra-node).
    // ------------------------------------------------------------------

    /// Expose a region of `len` bytes under `name`, owned by this task.
    pub fn expose(&self, name: &str, len: usize) -> ExposedRegion {
        self.node
            .expose(self.local_rank(), name, len)
            .expect("expose failed")
    }

    /// Attach to a region exposed by local rank `owner_local_rank`.
    pub fn attach(&self, owner_local_rank: usize, name: &str) -> ExposedRegion {
        self.node
            .attach(owner_local_rank, name)
            .expect("attach failed")
    }

    /// Enter the node-local scope of the collective invocation tagged `tag`
    /// (see [`NodeSpace::enter_scope`]); dropping the handle leaves it.
    pub fn enter_scope(&self, tag: u64, names: &[String]) -> ScopeHandle {
        self.node
            .enter_scope(tag, self.local_rank(), names)
            .expect("a task's local rank is within its node")
    }

    /// Node-wide barrier across this node's tasks; returns the completed
    /// barrier generation.
    pub fn node_barrier(&self) -> u64 {
        self.node.barrier().wait()
    }

    // ------------------------------------------------------------------
    // Fabric operations (inter-node, also usable intra-node).
    // ------------------------------------------------------------------

    /// Send `payload` to `dest` with `tag`.  The owned vector moves into
    /// the fabric without being copied.
    pub fn send(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<()> {
        self.fabric.send(self.rank, dest, tag, payload)
    }

    /// Send borrowed bytes to `dest` with `tag`: exactly one copy, accounted
    /// in [`Fabric::stats`].
    pub fn send_bytes(&self, dest: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.fabric.send_bytes(self.rank, dest, tag, data)
    }

    /// Blocking receive from `source` with `tag`.
    pub fn recv(&self, source: usize, tag: Tag) -> Result<Message> {
        self.fabric.recv(self.rank, MatchSpec::exact(source, tag))
    }

    /// Non-blocking receive from `source` with `tag`: returns `Ok(None)`
    /// when no matching message has arrived yet.  This is the completion
    /// primitive the request-based collectives poll on.
    pub fn try_recv(&self, source: usize, tag: Tag) -> Result<Option<Message>> {
        self.fabric
            .try_recv(self.rank, MatchSpec::exact(source, tag))
    }

    /// Combined send + receive (both directions proceed concurrently because
    /// sends never block in the mailbox fabric).
    pub fn sendrecv(
        &self,
        dest: usize,
        send_tag: Tag,
        payload: Vec<u8>,
        source: usize,
        recv_tag: Tag,
    ) -> Result<Message> {
        self.send(dest, send_tag, payload)?;
        self.recv(source, recv_tag)
    }
}

/// Launches simulated clusters.
pub struct Cluster;

impl Cluster {
    /// Spawn `topology.world_size()` tasks, run `f` on each, and collect the
    /// per-rank return values in rank order.
    ///
    /// Panics inside any task are caught and reported as
    /// [`RuntimeError::TaskPanicked`] for the lowest-ranked panicking task.
    pub fn launch<T, F>(topology: Topology, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&TaskCtx) -> T + Sync,
    {
        Self::launch_with_fabric(topology, Fabric::new(topology.world_size()), f)
    }

    /// As [`Cluster::launch`] but with a caller-provided fabric (e.g. one
    /// with a short receive timeout for negative tests).
    pub fn launch_with_fabric<T, F>(topology: Topology, fabric: Fabric, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&TaskCtx) -> T + Sync,
    {
        assert_eq!(
            fabric.world_size(),
            topology.world_size(),
            "fabric and topology disagree on world size"
        );
        let nodes: Vec<Arc<NodeSpace>> = (0..topology.nodes())
            .map(|node_id| NodeSpace::new(node_id, topology.ppn()))
            .collect();

        let world = topology.world_size();
        let mut outcomes: Vec<Option<std::result::Result<T, String>>> =
            (0..world).map(|_| None).collect();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(world);
            for rank in 0..world {
                let ctx = TaskCtx::new(
                    rank,
                    topology,
                    Arc::clone(&nodes[topology.node_of(rank)]),
                    fabric.clone(),
                );
                let f = &f;
                handles.push(scope.spawn(move || {
                    panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))).map_err(|payload| {
                        if let Some(s) = payload.downcast_ref::<&str>() {
                            (*s).to_string()
                        } else if let Some(s) = payload.downcast_ref::<String>() {
                            s.clone()
                        } else {
                            "panic payload of unknown type".to_string()
                        }
                    })
                }));
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                outcomes[rank] = Some(
                    handle
                        .join()
                        .unwrap_or_else(|_| Err("task thread terminated abnormally".to_string())),
                );
            }
        });

        let mut results = Vec::with_capacity(world);
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome.expect("every rank produced an outcome") {
                Ok(value) => results.push(value),
                Err(message) => return Err(RuntimeError::TaskPanicked { rank, message }),
            }
        }
        Ok(results)
    }

    /// Launch with a fabric whose receive timeout is `timeout` — convenience
    /// for tests that exercise deliberately broken schedules.
    pub fn launch_with_timeout<T, F>(topology: Topology, timeout: Duration, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&TaskCtx) -> T + Sync,
    {
        Self::launch_with_fabric(
            topology,
            Fabric::with_timeout(topology.world_size(), timeout),
            f,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_returns_results_in_rank_order() {
        let topo = Topology::new(3, 2);
        let results = Cluster::launch(topo, |ctx| ctx.rank() * 10).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn coordinates_are_consistent() {
        let topo = Topology::new(2, 4);
        let results = Cluster::launch(topo, |ctx| {
            assert_eq!(ctx.rank(), ctx.node_id() * ctx.ppn() + ctx.local_rank());
            assert_eq!(ctx.world_size(), 8);
            assert_eq!(ctx.num_nodes(), 2);
            (ctx.node_id(), ctx.local_rank(), ctx.is_node_root())
        })
        .unwrap();
        assert_eq!(results[0], (0, 0, true));
        assert_eq!(results[5], (1, 1, false));
    }

    #[test]
    fn point_to_point_ring_works() {
        let topo = Topology::new(2, 3);
        let results = Cluster::launch(topo, |ctx| {
            let next = (ctx.rank() + 1) % ctx.world_size();
            let prev = (ctx.rank() + ctx.world_size() - 1) % ctx.world_size();
            ctx.send(next, 0, vec![ctx.rank() as u8]).unwrap();
            let msg = ctx.recv(prev, 0).unwrap();
            msg.payload[0] as usize
        })
        .unwrap();
        for (rank, &received) in results.iter().enumerate() {
            assert_eq!(received, (rank + 6 - 1) % 6);
        }
    }

    #[test]
    fn exposed_memory_intra_node_gather() {
        let topo = Topology::new(2, 4);
        let results = Cluster::launch(topo, |ctx| {
            // Every task writes its rank into the node root's exposed buffer,
            // which is the intra-node gather step of the PiP-MColl allgather.
            let root_buf = if ctx.is_node_root() {
                ctx.expose("gather", ctx.ppn())
            } else {
                ctx.attach(0, "gather")
            };
            root_buf.write(ctx.local_rank(), &[ctx.rank() as u8]);
            ctx.node_barrier();
            root_buf.to_vec()
        })
        .unwrap();
        assert_eq!(results[0], vec![0, 1, 2, 3]);
        assert_eq!(results[7], vec![4, 5, 6, 7]);
    }

    #[test]
    fn sendrecv_pairs_do_not_deadlock() {
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let peer = 1 - ctx.rank();
            let msg = ctx
                .sendrecv(peer, 1, vec![ctx.rank() as u8 + 100], peer, 1)
                .unwrap();
            msg.payload[0]
        })
        .unwrap();
        assert_eq!(results, vec![101, 100]);
    }

    #[test]
    fn panic_in_one_task_is_reported_with_rank() {
        let topo = Topology::new(1, 4);
        let err = Cluster::launch(topo, |ctx| {
            if ctx.rank() == 2 {
                panic!("injected failure");
            }
            ctx.rank()
        })
        .unwrap_err();
        match err {
            RuntimeError::TaskPanicked { rank, message } => {
                assert_eq!(rank, 2);
                assert!(message.contains("injected failure"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn short_timeout_turns_deadlock_into_error() {
        let topo = Topology::new(1, 2);
        let err = Cluster::launch_with_timeout(topo, Duration::from_millis(30), |ctx| {
            if ctx.rank() == 0 {
                // Rank 0 waits for a message nobody sends.
                ctx.recv(1, 42).map(|m| m.payload.len())
            } else {
                Ok(0)
            }
        })
        .unwrap();
        assert!(matches!(err[0], Err(RuntimeError::RecvTimeout { .. })));
        assert!(matches!(err[1], Ok(0)));
    }

    #[test]
    fn single_rank_cluster_works() {
        let topo = Topology::new(1, 1);
        let results = Cluster::launch(topo, |ctx| {
            let region = ctx.expose("self", 4);
            region.write(0, &[1, 2, 3, 4]);
            ctx.node_barrier();
            region.to_vec()
        })
        .unwrap();
        assert_eq!(results, vec![vec![1, 2, 3, 4]]);
    }
}
