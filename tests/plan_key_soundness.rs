//! The plan caches key on what a recording reads of a library — the
//! algorithm it selects for the shape — not on the library.  That is only
//! sound if the key is the plan's full functional determinant: two cells
//! with equal [`PlanKey`]s must compile to equal plans, whichever libraries
//! they came from.  The sweep below compiles every cell without a cache and
//! checks that, then checks that [`ClusterPlanCache`] shares a plan between
//! two cells exactly when their keys are equal.

use std::collections::HashMap;
use std::sync::Arc;

use pip_mcoll::collectives::datatype::{DtypeId, ReduceIdent, ReduceOp};
use pip_mcoll::collectives::plan::{Fidelity, Plan};
use pip_mcoll::collectives::CollectiveKind;
use pip_mcoll::model::plan::compile_cluster;
use pip_mcoll::model::{
    ClusterPlanCache, CollectiveShape, CompressSpec, Library, LibraryProfile, PlanKey,
};
use pip_mcoll::runtime::Topology;

/// 4×4 has a power-of-two world, so the recursive-doubling allgather rule
/// fires; 3×3 has not.
const TOPOLOGIES: [(usize, usize); 2] = [(4, 4), (3, 3)];

/// Both sides of the 32 KiB large-message switch.
const BLOCKS: [usize; 2] = [64, 40_960];

const F32_SUM: ReduceIdent = ReduceIdent::Builtin {
    dtype: DtypeId::F32,
    op: ReduceOp::Sum,
};

fn reduces(kind: CollectiveKind) -> bool {
    matches!(
        kind,
        CollectiveKind::Allreduce
            | CollectiveKind::Reduce
            | CollectiveKind::ReduceScatter
            | CollectiveKind::Scan
            | CollectiveKind::Exscan
    )
}

/// Every shape of the sweep for `profile`: each kind at each block (the
/// barrier once), plus the error-bounded compressed allreduce.
fn shapes(profile: &LibraryProfile) -> Vec<CollectiveShape> {
    let mut shapes = Vec::new();
    for kind in CollectiveKind::ALL {
        if kind == CollectiveKind::Barrier {
            shapes.push(CollectiveShape::plain(kind, 0, 0));
            continue;
        }
        for block in BLOCKS {
            shapes.push(if reduces(kind) {
                CollectiveShape::reduction(kind, block, 0, 4, Some(F32_SUM))
            } else {
                CollectiveShape::plain(kind, block, 0)
            });
        }
    }
    for block in BLOCKS {
        let spec = CompressSpec::from_bound(1e-3, profile.selection.compress_min_bytes);
        shapes.push(CollectiveShape::allreduce(
            block,
            4,
            Some(F32_SUM),
            None,
            Some(spec),
        ));
    }
    shapes
}

struct Cell {
    label: String,
    key: PlanKey,
    plan: Plan,
    cached: Arc<Plan>,
}

#[test]
fn equal_keys_mean_equal_plans_and_the_cache_shares_exactly_those() {
    for (nodes, ppn) in TOPOLOGIES {
        let topology = Topology::new(nodes, ppn);
        let mut cache = ClusterPlanCache::new();
        let mut cells: Vec<Cell> = Vec::new();
        for library in Library::ALL {
            let profile = library.profile();
            for shape in shapes(&profile) {
                cells.push(Cell {
                    label: format!("{} {shape:?} on {nodes}x{ppn}", library.name()),
                    key: PlanKey::new(&profile, topology, shape),
                    plan: compile_cluster(&profile, topology, &shape, Fidelity::Schedule),
                    cached: cache.lookup_or_compile(&profile, topology, &shape),
                });
            }
        }

        let mut first_of_key: HashMap<PlanKey, &Cell> = HashMap::new();
        for cell in &cells {
            assert_eq!(*cell.cached, cell.plan, "{}: cached plan", cell.label);
            let first = first_of_key.entry(cell.key).or_insert(cell);
            assert!(
                first.plan == cell.plan,
                "{} and {} share a key but compile to different plans",
                first.label,
                cell.label
            );
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses as usize, first_of_key.len(), "one compile per key");
        assert_eq!((hits + misses) as usize, cells.len());
        assert!(
            hits > 0,
            "libraries selecting the same algorithm must share plans"
        );

        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert_eq!(
                    Arc::ptr_eq(&a.cached, &b.cached),
                    a.key == b.key,
                    "{} vs {}: the cache must share a plan exactly when the keys are equal",
                    a.label,
                    b.label
                );
            }
        }
    }
}
