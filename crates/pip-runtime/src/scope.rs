//! Invocation scopes: the node-local state of *one* collective invocation.
//!
//! Under PiP the ranks of a node cooperate through plain loads and stores
//! in one address space; a collective needs no name service and no message
//! to find a peer's buffer or to learn that every peer has arrived.  An
//! invocation scope gives the plan interpreter exactly that: one object per
//! `(node, invocation tag)` holding
//!
//! * the invocation's shared regions in a dense table indexed by
//!   `(owner local rank, name id)` — no string formatting, hashing or
//!   allocation per shared read or write — and
//! * one cumulative arrival counter for its node barriers.
//!
//! Nothing here waits: a region its owner has not exposed yet and a barrier a
//! peer has not reached are *reported* ([`ScopeHandle::try_region`],
//! [`ScopeHandle::barrier_passed`]) and the caller polls, under its own
//! deadline.
//!
//! **Lifetime.**  The first local rank to [`NodeSpace::enter_scope`] under a
//! tag creates the scope; every later rank of the node finds it there and
//! shares it through an `Arc`.  Each rank holds a [`ScopeHandle`] for as long
//! as it executes the invocation and *leaves* by dropping it; when the
//! `ppn`-th rank has left, the scope is removed from the node, its region
//! buffers return to the node's pool (keyed by region length) and the empty
//! scope object is kept for the next invocation.  A rank therefore touches
//! the node's scope registry twice per invocation, and in the steady state
//! an invocation allocates nothing and touches no fresh page.
//!
//! **Isolation.**  Interleaved collectives cannot pair with each other:
//! regions and arrivals of invocation `t` live in the scope keyed by `t`
//! and nowhere else, exactly as its messages live under tags rebased by `t`.
//!
//! **Region contents.**  A region drawn from the pool holds whatever its
//! previous user left (debug builds overwrite it with `0xA5` on recycling so
//! a plan that reads bytes it never wrote fails loudly); a plan must write
//! every shared byte it reads, which `tests/region_lifecycle.rs` pins for
//! every compiled collective.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::{Result, RuntimeError};
use crate::memory::ExposedRegion;
use crate::node::NodeSpace;

/// Name every pooled scope region reports in errors.
const SCOPE_REGION_NAME: &str = "invocation-scope region";

/// Accounting of the node's region pool (see [`NodeSpace::pool_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionPoolStats {
    /// Regions served from the pool — no allocation, no fresh pages.
    pub hits: u64,
    /// Regions that had to be allocated.  Stops moving once every region
    /// length a workload uses has been seen at its peak concurrency.
    pub misses: u64,
}

/// The shared state of one invocation on one node.
#[derive(Debug)]
struct InvocationScope {
    table: Mutex<ScopeTable>,
    /// Barrier arrivals of the whole invocation, never reset while it
    /// lives: episode `k` is complete once the count reaches `(k + 1) * ppn`,
    /// because no rank arrives at episode `k + 1` before `k` completed.
    arrivals: AtomicUsize,
}

impl InvocationScope {
    /// The region table, locked; never poisons (see [`crate::sync`]).
    fn table(&self) -> MutexGuard<'_, ScopeTable> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug, Default)]
struct ScopeTable {
    /// Node-wide names of this invocation: the first `live_names` entries
    /// (the rest are spare `String`s kept for their capacity).
    names: Vec<String>,
    live_names: usize,
    /// `slots[name * ppn + owner_local]`.
    slots: Vec<Option<ExposedRegion>>,
}

impl ScopeTable {
    /// Node-wide id of `name`, registering it on first sight.
    fn intern(&mut self, name: &str, ppn: usize) -> u32 {
        if let Some(id) = self.names[..self.live_names].iter().position(|n| n == name) {
            return id as u32;
        }
        match self.names.get_mut(self.live_names) {
            Some(spare) => {
                spare.clear();
                spare.push_str(name);
            }
            None => self.names.push(name.to_string()),
        }
        self.live_names += 1;
        self.slots.resize(self.live_names * ppn, None);
        (self.live_names - 1) as u32
    }
}

#[derive(Debug)]
struct LiveScope {
    tag: u64,
    scope: Arc<InvocationScope>,
    /// Ranks that have left; the scope is removed when it reaches `ppn`.
    left: usize,
}

#[derive(Debug, Default)]
struct ScopePool {
    /// Free regions by length.
    regions: HashMap<usize, Vec<ExposedRegion>>,
    /// Emptied scope objects (their tables keep their capacity).
    scopes: Vec<Arc<InvocationScope>>,
    stats: RegionPoolStats,
}

/// A node's live invocation scopes and the pool they draw from.  Both grow
/// to the peak number of concurrently live scopes / regions and stay there.
#[derive(Debug, Default)]
pub(crate) struct ScopeRegistry {
    live: Mutex<Vec<LiveScope>>,
    pool: Mutex<ScopePool>,
    /// Regions held by live scopes (a statistic: publishes no data).
    exposed: AtomicUsize,
}

impl ScopeRegistry {
    /// The live scopes, locked; never poisons (see [`crate::sync`]).
    fn live(&self) -> MutexGuard<'_, Vec<LiveScope>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The pool, locked; never poisons.
    fn pool(&self) -> MutexGuard<'_, ScopePool> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn exposed_count(&self) -> usize {
        self.exposed.load(Ordering::Relaxed)
    }

    pub(crate) fn pool_stats(&self) -> RegionPoolStats {
        self.pool().stats
    }

    /// Find the scope of `tag`, creating it when this is the first rank in.
    fn enter(&self, tag: u64) -> Arc<InvocationScope> {
        let mut live = self.live();
        if let Some(entry) = live.iter().find(|entry| entry.tag == tag) {
            return Arc::clone(&entry.scope);
        }
        let scope = self.pool().scopes.pop().unwrap_or_else(|| {
            Arc::new(InvocationScope {
                table: Mutex::default(),
                arrivals: AtomicUsize::new(0),
            })
        });
        live.push(LiveScope {
            tag,
            scope: Arc::clone(&scope),
            left: 0,
        });
        scope
    }

    /// One rank leaves the scope of `tag`; the last of `ppn` recycles it.
    fn leave(&self, tag: u64, ppn: usize) {
        let scope = {
            let mut live = self.live();
            let Some(index) = live.iter().position(|entry| entry.tag == tag) else {
                return;
            };
            live[index].left += 1;
            if live[index].left < ppn {
                return;
            }
            live.swap_remove(index).scope
        };
        // Every rank has left, so nobody reads the table or the counter
        // any more and no region handle is out.  (Table before pool, the
        // order `ScopeHandle::expose` takes them in.)
        let mut table = scope.table();
        let mut pool = self.pool();
        table.live_names = 0;
        for region in table.slots.drain(..).flatten() {
            self.exposed.fetch_sub(1, Ordering::Relaxed);
            if region.is_sole_handle() {
                #[cfg(debug_assertions)]
                region.with_slice_mut(|bytes| bytes.fill(0xA5));
                pool.regions.entry(region.len()).or_default().push(region);
            }
        }
        drop(table);
        // Relaxed: the next user finds the scope through the pool and
        // registry mutexes, which order this store before its arrivals.
        scope.arrivals.store(0, Ordering::Relaxed);
        pool.scopes.push(scope);
    }

    fn acquire_region(&self, len: usize) -> ExposedRegion {
        let mut pool = self.pool();
        if let Some(region) = pool.regions.get_mut(&len).and_then(Vec::pop) {
            pool.stats.hits += 1;
            return region;
        }
        pool.stats.misses += 1;
        drop(pool);
        ExposedRegion::allocate(SCOPE_REGION_NAME, len)
    }
}

/// One rank's membership of an invocation scope (see the module docs).
/// Dropping the handle leaves the scope.
#[derive(Debug)]
pub struct ScopeHandle {
    node: Arc<NodeSpace>,
    scope: Arc<InvocationScope>,
    tag: u64,
    local_rank: usize,
    /// This rank's name ids → the scope's, when they differ (ranks whose
    /// plans first use the names in different orders); `None` is identity.
    remap: Option<Box<[u32]>>,
}

impl NodeSpace {
    /// Enter the scope of the invocation tagged `tag` as `local_rank`,
    /// creating it if this is the node's first rank to arrive.
    ///
    /// `names` is this rank's table of shared-region names for the
    /// invocation (identical strings on every rank that uses a region, in
    /// any order); the handle's methods take indices into it.  Every rank
    /// of the node must enter each invocation exactly once — the scope is
    /// retired when `ppn` ranks have dropped their handles.
    pub fn enter_scope(
        self: &Arc<Self>,
        tag: u64,
        local_rank: usize,
        names: &[String],
    ) -> Result<ScopeHandle> {
        let ppn = self.ppn();
        if local_rank >= ppn {
            return Err(RuntimeError::LocalRankOutOfRange { local_rank, ppn });
        }
        let scope = self.scopes().enter(tag);
        let mut remap: Option<Box<[u32]>> = None;
        if !names.is_empty() {
            let mut table = scope.table();
            for (mine, name) in names.iter().enumerate() {
                let id = table.intern(name, ppn);
                if id as usize != mine {
                    remap.get_or_insert_with(|| (0..names.len() as u32).collect())[mine] = id;
                }
            }
        }
        Ok(ScopeHandle {
            node: Arc::clone(self),
            scope,
            tag,
            local_rank,
            remap,
        })
    }
}

impl ScopeHandle {
    /// The local rank this handle acts as (the owner of what it exposes).
    pub fn local_rank(&self) -> usize {
        self.local_rank
    }

    fn slot(&self, owner_local: usize, name: u32) -> usize {
        let ppn = self.node.ppn();
        assert!(
            owner_local < ppn,
            "local rank {owner_local} out of range (ppn {ppn})"
        );
        let name = self.remap.as_ref().map_or(name, |map| map[name as usize]);
        name as usize * ppn + owner_local
    }

    /// Expose this rank's region `name` with `len` bytes.  Exposing it again
    /// with the same length returns the same region; another length is an
    /// error.
    pub fn expose(&self, name: u32, len: usize) -> Result<ExposedRegion> {
        let slot = self.slot(self.local_rank, name);
        let mut table = self.scope.table();
        if let Some(existing) = &table.slots[slot] {
            if existing.len() != len {
                return Err(RuntimeError::RegionSizeMismatch {
                    name: table.names[slot / self.node.ppn()].clone(),
                    exposed: existing.len(),
                    requested: len,
                });
            }
            return Ok(existing.clone());
        }
        let region = self.node.scopes().acquire_region(len);
        table.slots[slot] = Some(region.clone());
        drop(table);
        self.node.scopes().exposed.fetch_add(1, Ordering::Relaxed);
        Ok(region)
    }

    /// The region `name` of local rank `owner_local`, or `None` while its
    /// owner has not exposed it yet.  Never blocks: the plan cursor polls.
    pub fn try_region(&self, owner_local: usize, name: u32) -> Option<ExposedRegion> {
        let slot = self.slot(owner_local, name);
        self.scope.table().slots[slot].clone()
    }

    /// Arrive at the invocation's next node barrier.  Returns the arrival
    /// count at which that barrier is complete, to be polled with
    /// [`ScopeHandle::barrier_passed`].
    ///
    /// The increment is a release (and the poll an acquire), and
    /// read-modify-writes extend a release sequence, so everything any rank
    /// did before arriving happens-before everything any rank does after it
    /// saw the barrier pass.
    pub fn barrier_arrive(&self) -> usize {
        let ppn = self.node.ppn();
        let before = self.scope.arrivals.fetch_add(1, Ordering::AcqRel);
        (before / ppn + 1) * ppn
    }

    /// Whether the barrier whose [`ScopeHandle::barrier_arrive`] returned
    /// `target` is complete.
    pub fn barrier_passed(&self, target: usize) -> bool {
        self.scope.arrivals.load(Ordering::Acquire) >= target
    }
}

impl Drop for ScopeHandle {
    fn drop(&mut self) {
        self.node.scopes().leave(self.tag, self.node.ppn());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn ranks_share_regions_by_index_and_the_last_leaver_recycles() {
        let node = NodeSpace::new(0, 2);
        let table = names(&["stage"]);
        let a = node.enter_scope(7, 0, &table).unwrap();
        let b = node.enter_scope(7, 1, &table).unwrap();
        assert!(b.try_region(0, 0).is_none(), "not exposed yet");
        a.expose(0, 8).unwrap().write(2, &[5, 6]);
        assert_eq!(b.try_region(0, 0).unwrap().read_vec(2, 2).unwrap(), [5, 6]);
        assert_eq!(node.exposed_count(), 1);
        drop(a);
        assert_eq!(node.exposed_count(), 1, "one rank is still inside");
        drop(b);
        assert_eq!(node.exposed_count(), 0);
        assert_eq!(node.pool_stats(), RegionPoolStats { hits: 0, misses: 1 });

        // The next invocation reuses the buffer (poisoned in debug builds).
        let a = node.enter_scope(8, 0, &table).unwrap();
        let region = a.expose(0, 8).unwrap();
        assert_eq!(node.pool_stats(), RegionPoolStats { hits: 1, misses: 1 });
        if cfg!(debug_assertions) {
            assert_eq!(region.to_vec(), vec![0xA5; 8]);
        }
    }

    #[test]
    fn scopes_of_different_tags_are_isolated() {
        let node = NodeSpace::new(0, 2);
        let table = names(&["x"]);
        let first = node.enter_scope(1, 0, &table).unwrap();
        let second = node.enter_scope(2, 0, &table).unwrap();
        first.expose(0, 4).unwrap();
        let peer_second = node.enter_scope(2, 1, &table).unwrap();
        assert!(peer_second.try_region(0, 0).is_none());
        second.expose(0, 4).unwrap();
        assert!(peer_second.try_region(0, 0).is_some());
        // Arrivals do not leak between tags either.
        let target = first.barrier_arrive();
        assert!(!first.barrier_passed(target));
        assert!(!second.barrier_passed(second.barrier_arrive()));
    }

    #[test]
    fn name_ids_are_reconciled_across_ranks() {
        let node = NodeSpace::new(0, 2);
        let a = node.enter_scope(3, 0, &names(&["in", "out"])).unwrap();
        let b = node.enter_scope(3, 1, &names(&["out", "in"])).unwrap();
        a.expose(1, 4).unwrap().write(0, &[1, 2, 3, 4]);
        // Rank 1 calls rank 0's "out" by its own id for that name.
        assert_eq!(b.try_region(0, 0).unwrap().to_vec(), [1, 2, 3, 4]);
        assert!(b.try_region(0, 1).is_none());
    }

    #[test]
    fn barrier_counts_episodes_cumulatively() {
        let node = NodeSpace::new(0, 3);
        let handles: Vec<_> = (0..3)
            .map(|l| node.enter_scope(9, l, &[]).unwrap())
            .collect();
        for episode in 1..=3 {
            let targets: Vec<_> = handles[..2].iter().map(|h| h.barrier_arrive()).collect();
            assert_eq!(targets, [episode * 3; 2]);
            assert!(!handles[0].barrier_passed(targets[0]));
            let last = handles[2].barrier_arrive();
            assert!(handles.iter().all(|h| h.barrier_passed(last)));
        }
    }

    #[test]
    fn re_exposing_checks_the_length() {
        let node = NodeSpace::new(0, 1);
        let scope = node.enter_scope(1, 0, &names(&["buf"])).unwrap();
        scope.expose(0, 8).unwrap().write(0, &[9]);
        assert_eq!(scope.expose(0, 8).unwrap().read_vec(0, 1).unwrap(), [9]);
        assert!(matches!(
            scope.expose(0, 16),
            Err(RuntimeError::RegionSizeMismatch { .. })
        ));
        assert!(node.enter_scope(1, 1, &[]).is_err());
    }
}
