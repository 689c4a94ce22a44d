//! Criterion bench for the plan/execute split: cold compile versus
//! plan-cache-hit dispatch latency for a repeated 64 B allgather on the
//! paper's hpdc23 testbed (128 nodes × 18 processes per node).
//!
//! Two granularities are measured:
//!
//! * **rank plan (exec fidelity)** — what a `Communicator` compiles on its
//!   dispatch hot path: as many fingerprint passes of the algorithm as the
//!   plan's bytes need (four here: the 2 304-block receive buffer alone is
//!   144 KiB) plus payload resolution for one rank, versus a cache lookup;
//! * **cluster plan (schedule fidelity)** — what figure generation compiles
//!   per data point: one algorithm pass for every one of the 2304 ranks,
//!   versus a cache lookup plus the `Plan → Trace` lowering.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pip_collectives::plan::Fidelity;
use pip_collectives::CollectiveKind;
use pip_mpi_model::plan::{compile_rank, ClusterPlanCache, PlanCache};
use pip_mpi_model::{CollectiveShape, Library};
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

fn bench_rank_plan_dispatch(c: &mut Criterion) {
    let topology = ClusterSpec::hpdc23().topology();
    let profile = Library::PipMColl.profile();
    let shape = allgather_shape();

    let mut group = c.benchmark_group("rank_plan_dispatch_128x18_allgather_64B");
    group.sample_size(10);
    group.bench_function("cold_compile", |b| {
        b.iter(|| {
            let mut cache = PlanCache::new();
            black_box(cache.lookup_or_compile(&profile, topology, 0, &shape));
        });
    });
    let mut warm = PlanCache::new();
    warm.lookup_or_compile(&profile, topology, 0, &shape);
    group.bench_function("cache_hit", |b| {
        b.iter(|| {
            black_box(warm.lookup_or_compile(&profile, topology, 0, &shape));
        });
    });
    group.finish();
}

fn bench_cluster_plan_figures(c: &mut Criterion) {
    let topology = ClusterSpec::hpdc23().topology();
    let profile = Library::PipMColl.profile();
    let shape = allgather_shape();

    let mut group = c.benchmark_group("cluster_plan_figures_128x18_allgather_64B");
    group.sample_size(10);
    group.bench_function("cold_compile", |b| {
        b.iter(|| {
            let mut cache = ClusterPlanCache::new();
            black_box(cache.lookup_or_compile(&profile, topology, &shape));
        });
    });
    let mut warm = ClusterPlanCache::new();
    warm.lookup_or_compile(&profile, topology, &shape);
    group.bench_function("cache_hit_plus_lowering", |b| {
        b.iter(|| {
            let plan = warm.lookup_or_compile(&profile, topology, &shape);
            black_box(plan.to_trace(1));
        });
    });
    group.finish();

    // Print the ratio the acceptance criterion cares about: a cold
    // exec-fidelity rank compile versus a hit on the same dispatch-path
    // PlanCache (including its profile-memo and Rc-clone cost).
    let t0 = std::time::Instant::now();
    let fresh = compile_rank(&profile, topology, 0, &shape, Fidelity::Exec);
    let cold = t0.elapsed();
    let mut dispatch_cache = PlanCache::new();
    dispatch_cache.lookup_or_compile(&profile, topology, 0, &shape);
    let t1 = std::time::Instant::now();
    for _ in 0..1000 {
        black_box(dispatch_cache.lookup_or_compile(&profile, topology, 0, &shape));
    }
    let hit = t1.elapsed() / 1000;
    println!(
        "\n[plan_cache] cold exec-fidelity rank compile: {cold:?} ({} ops); \
         dispatch cache hit: {hit:?}; ratio ~{:.0}x",
        fresh.ops.len(),
        cold.as_secs_f64() / hit.as_secs_f64().max(1e-9)
    );
}

criterion_group!(
    benches,
    bench_rank_plan_dispatch,
    bench_cluster_plan_figures
);
criterion_main!(benches);
