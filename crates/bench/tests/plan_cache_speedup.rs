//! Acceptance check for the plan caches on the paper's hpdc23 topology
//! (128 nodes × 18 ppn): a repeated allgather compiles once, and every later
//! lookup is a hit handing back the *same* plan — the cache never silently
//! degrades into a recompile.
//!
//! The guarantee is asserted through the caches' own counters and pointer
//! identity, not through a wall-clock ratio: a cold whole-cluster compile of
//! a node-symmetric schedule now costs about as much as lowering the cached
//! plan, so "N× faster than cold" says nothing about whether the cache works.

use std::rc::Rc;
use std::sync::Arc;

use pip_collectives::CollectiveKind;
use pip_mpi_model::{ClusterPlanCache, CollectiveShape, Library, PlanCache};
use pip_netsim::cluster::ClusterSpec;

fn allgather_shape() -> CollectiveShape {
    CollectiveShape {
        kind: CollectiveKind::Allgather,
        block: 64,
        root: 0,
        elem_size: 1,
        reduce: None,
        layout: None,
        compress: None,
    }
}

#[test]
fn repeated_rank_dispatch_compiles_once_and_shares_the_plan() {
    let topology = ClusterSpec::hpdc23().topology();
    let profile = Library::PipMColl.profile();
    let shape = allgather_shape();

    // Cold: what a communicator pays on its first allgather of this shape.
    let mut cache = PlanCache::new();
    let first = cache.lookup_or_compile(&profile, topology, 0, &shape);
    assert!(!first.ops.is_empty());
    assert_eq!(cache.stats(), (0, 1));

    // Warm: what every later identical allgather gets before executing.
    let reps = 1000u64;
    for _ in 0..reps {
        let again = cache.lookup_or_compile(&profile, topology, 0, &shape);
        assert!(Rc::ptr_eq(&first, &again), "a hit must share the plan");
    }
    assert_eq!(cache.stats(), (reps, 1));
}

#[test]
fn repeated_figure_cell_compiles_once_and_shares_the_plan() {
    let topology = ClusterSpec::hpdc23().topology();
    let shape = allgather_shape();

    // One library whose allgather instantiates and the one whose does not:
    // the cache's guarantee is the same on both compile paths.
    for library in [Library::OpenMpi, Library::PipMColl] {
        let profile = library.profile();
        let mut cache = ClusterPlanCache::new();
        let first = cache.lookup_or_compile(&profile, topology, &shape);
        assert_eq!(first.ranks().len(), topology.world_size());
        assert_eq!(cache.stats(), (0, 1));
        let compiled = cache.compile_counts();

        let reps = 10u64;
        for _ in 0..reps {
            let again = cache.lookup_or_compile(&profile, topology, &shape);
            assert!(Arc::ptr_eq(&first, &again), "a hit must share the plan");
        }
        assert_eq!(cache.stats(), (reps, 1));
        assert_eq!(cache.compile_counts(), compiled, "a hit compiles nothing");
    }
}
