//! A [`NodeSpace`] is the in-process stand-in for one compute node whose
//! tasks were spawned under PiP: a single shared "virtual address space"
//! holding the node's exposed regions, plus the node-wide synchronization
//! objects the intra-node collective phases need.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{Result, RuntimeError};
use crate::memory::{ExposedRegion, RegionKey};
use crate::scope::{RegionPoolStats, ScopeRegistry};
use crate::sync::SenseBarrier;

/// How long [`NodeSpace::attach`] waits for a peer to expose a region before
/// reporting [`RuntimeError::RegionNotExposed`].
pub const ATTACH_TIMEOUT: Duration = Duration::from_secs(30);

/// One simulated node: `ppn` tasks sharing an address space.
#[derive(Debug)]
pub struct NodeSpace {
    node_id: usize,
    ppn: usize,
    regions: Mutex<HashMap<RegionKey, ExposedRegion>>,
    region_published: Condvar,
    barrier: SenseBarrier,
    scopes: ScopeRegistry,
}

impl NodeSpace {
    /// Create a node with `ppn` tasks.
    pub fn new(node_id: usize, ppn: usize) -> Arc<Self> {
        assert!(ppn > 0, "a node hosts at least one task");
        Arc::new(Self {
            node_id,
            ppn,
            regions: Mutex::new(HashMap::new()),
            region_published: Condvar::new(),
            barrier: SenseBarrier::new(ppn),
            scopes: ScopeRegistry::default(),
        })
    }

    /// The node's id within the cluster.
    pub fn node_id(&self) -> usize {
        self.node_id
    }

    /// Tasks hosted by this node.
    pub fn ppn(&self) -> usize {
        self.ppn
    }

    /// The region registry, locked; never poisons (see [`crate::sync`]).
    fn regions(&self) -> MutexGuard<'_, HashMap<RegionKey, ExposedRegion>> {
        self.regions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Expose (or re-open) a region named `name` owned by `owner_local_rank`.
    ///
    /// Exposing the same name twice with the same length returns the existing
    /// region, which lets algorithms call `expose` unconditionally at the top
    /// of every invocation; a conflicting length is an error.
    pub fn expose(
        &self,
        owner_local_rank: usize,
        name: impl Into<String>,
        len: usize,
    ) -> Result<ExposedRegion> {
        if owner_local_rank >= self.ppn {
            return Err(RuntimeError::LocalRankOutOfRange {
                local_rank: owner_local_rank,
                ppn: self.ppn,
            });
        }
        let name = name.into();
        let key = RegionKey::new(owner_local_rank, name.clone());
        let mut regions = self.regions();
        if let Some(existing) = regions.get(&key) {
            if existing.len() != len {
                return Err(RuntimeError::RegionSizeMismatch {
                    name,
                    exposed: existing.len(),
                    requested: len,
                });
            }
            return Ok(existing.clone());
        }
        let region = ExposedRegion::allocate(name, len);
        regions.insert(key, region.clone());
        self.region_published.notify_all();
        Ok(region)
    }

    /// Attach to a region exposed by `owner_local_rank`, blocking until it is
    /// published (bounded by [`ATTACH_TIMEOUT`]).
    pub fn attach(&self, owner_local_rank: usize, name: &str) -> Result<ExposedRegion> {
        if owner_local_rank >= self.ppn {
            return Err(RuntimeError::LocalRankOutOfRange {
                local_rank: owner_local_rank,
                ppn: self.ppn,
            });
        }
        let key = RegionKey::new(owner_local_rank, name);
        let deadline = Instant::now() + ATTACH_TIMEOUT;
        let mut regions = self.regions();
        loop {
            if let Some(region) = regions.get(&key) {
                return Ok(region.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::RegionNotExposed {
                    owner_local_rank,
                    name: name.to_string(),
                });
            }
            regions = self
                .region_published
                .wait_timeout(regions, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Drop a region from the registry (e.g. at the end of a communicator's
    /// lifetime).  Outstanding handles keep the storage alive.
    pub fn unexpose(&self, owner_local_rank: usize, name: &str) -> bool {
        let key = RegionKey::new(owner_local_rank, name);
        self.regions().remove(&key).is_some()
    }

    /// Number of regions currently exposed on the node: the named ones plus
    /// those held by live invocation scopes (see [`crate::scope`]).
    pub fn exposed_count(&self) -> usize {
        self.regions().len() + self.scopes.exposed_count()
    }

    /// Accounting of the pool invocation scopes draw their regions from.
    pub fn pool_stats(&self) -> RegionPoolStats {
        self.scopes.pool_stats()
    }

    pub(crate) fn scopes(&self) -> &ScopeRegistry {
        &self.scopes
    }

    /// The node-wide barrier shared by all tasks of this node.
    pub fn barrier(&self) -> &SenseBarrier {
        &self.barrier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn expose_then_attach_shares_storage() {
        let node = NodeSpace::new(0, 2);
        let region = node.expose(0, "dest", 16).unwrap();
        region.write(0, &[1, 2, 3, 4]);
        let attached = node.attach(0, "dest").unwrap();
        assert_eq!(attached.read_vec(0, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn expose_is_idempotent_with_same_len() {
        let node = NodeSpace::new(0, 1);
        let a = node.expose(0, "buf", 8).unwrap();
        a.write(0, &[9]);
        let b = node.expose(0, "buf", 8).unwrap();
        assert_eq!(b.read_vec(0, 1).unwrap(), vec![9]);
        assert_eq!(node.exposed_count(), 1);
    }

    #[test]
    fn expose_size_conflict_is_error() {
        let node = NodeSpace::new(0, 1);
        node.expose(0, "buf", 8).unwrap();
        let err = node.expose(0, "buf", 16).unwrap_err();
        assert!(matches!(err, RuntimeError::RegionSizeMismatch { .. }));
    }

    #[test]
    fn attach_blocks_until_exposed() {
        let node = NodeSpace::new(0, 2);
        let waiter = Arc::clone(&node);
        let handle = thread::spawn(move || waiter.attach(1, "late").unwrap());
        thread::sleep(Duration::from_millis(20));
        let region = node.expose(1, "late", 4).unwrap();
        region.write(0, &[5]);
        let attached = handle.join().unwrap();
        assert_eq!(attached.read_vec(0, 1).unwrap(), vec![5]);
    }

    #[test]
    fn unexpose_removes_registry_entry_but_keeps_handles_alive() {
        let node = NodeSpace::new(0, 1);
        let region = node.expose(0, "tmp", 4).unwrap();
        assert!(node.unexpose(0, "tmp"));
        assert!(!node.unexpose(0, "tmp"));
        region.write(0, &[3]);
        assert_eq!(region.read_vec(0, 1).unwrap(), vec![3]);
    }

    #[test]
    fn invalid_local_rank_rejected() {
        let node = NodeSpace::new(0, 2);
        assert!(node.expose(2, "x", 4).is_err());
        assert!(node.attach(7, "x").is_err());
    }

    #[test]
    fn different_owners_can_use_the_same_name() {
        let node = NodeSpace::new(0, 2);
        let a = node.expose(0, "slot", 4).unwrap();
        let b = node.expose(1, "slot", 8).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 8);
        assert_eq!(node.exposed_count(), 2);
    }
}
