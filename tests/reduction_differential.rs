//! Differential property harness for the reduction family — reduce,
//! reduce_scatter, scan and exscan are pinned against the sequential oracle
//! for every library × topology (including non-power-of-two worlds and
//! blocks that do not divide into the per-node chunk partition), via all
//! three entry styles:
//!
//! 1. **blocking** (`Communicator::{reduce, reduce_scatter, scan, exscan}`),
//! 2. **non-blocking** (`i*`, submitted interleaved and waited in per-rank
//!    rotated order),
//! 3. **persistent** (`*_init` with refreshed inputs, starts never
//!    recompile).
//!
//! Their schedule-fidelity plans are validated in `tests/plan_equivalence.rs`
//! and their lowered traces frozen by hash in `tests/plan_golden.rs`.
//!
//! Proptest drives randomized sizes (non-power-of-two, non-divisible),
//! roots and operators — including the non-invertible Min/Max, where a
//! wrong contribution *subset* (not merely a wrong combination order) is
//! visible in the result.  A plan-cache key regression pins that distinct
//! reduction shapes never alias one cache entry.

use proptest::prelude::*;

use pip_mcoll::collectives::oracle;
use pip_mcoll::collectives::CollectiveKind;
use pip_mcoll::collectives::OwnedReduction;
use pip_mcoll::core::prelude::*;
use pip_mcoll::model::plan::{PlanCache, PlanKey};
use pip_mcoll::model::{Algorithm, CollectiveShape, OwnedCollective};

const TOPOLOGIES: [(usize, usize); 5] = [(1, 1), (1, 4), (2, 3), (3, 3), (5, 2)];

/// Deterministic per-rank payload, varied per round.
fn payload(rank: usize, len: usize, round: usize) -> Vec<u8> {
    let mut bytes = oracle::rank_payload(rank + round * 31, len);
    for b in &mut bytes {
        *b = b.wrapping_add(round as u8);
    }
    bytes
}

/// The byte-level combine matching a typed `ReduceOp` over `u8` elements.
fn combine_for(op: ReduceOp) -> fn(&mut [u8], &[u8]) {
    match op {
        ReduceOp::Sum => oracle::wrapping_add_u8,
        ReduceOp::Max => oracle::max_u8,
        ReduceOp::Min => oracle::min_u8,
        ReduceOp::Prod => |acc: &mut [u8], other: &[u8]| {
            for (a, b) in acc.iter_mut().zip(other) {
                *a = a.wrapping_mul(*b);
            }
        },
    }
}

/// Expected results for every rank: (reduce@root, reduce_scatter block,
/// scan prefix, exscan prefix).
struct Expected {
    reduce: Vec<u8>,
    reduce_scatter: Vec<Vec<u8>>,
    scan: Vec<Vec<u8>>,
    exscan: Vec<Vec<u8>>,
}

fn expected(world: usize, block: usize, op: ReduceOp, round: usize) -> Expected {
    let combine = combine_for(op);
    let vectors: Vec<Vec<u8>> = (0..world)
        .map(|r| payload(r, world * block, round))
        .collect();
    let blocks: Vec<Vec<u8>> = (0..world).map(|r| payload(r, block, round)).collect();
    Expected {
        reduce: oracle::reduce(&blocks, combine),
        reduce_scatter: oracle::reduce_scatter(&vectors, world, combine),
        scan: oracle::scan(&blocks, combine),
        exscan: oracle::exscan(&blocks, combine),
    }
}

/// Run all four blocking reduction collectives on every rank and return the
/// per-rank observations.
#[allow(clippy::type_complexity)]
fn run_blocking(
    library: Library,
    nodes: usize,
    ppn: usize,
    block: usize,
    root: usize,
    op: ReduceOp,
) -> Vec<(Option<Vec<u8>>, Vec<u8>, Vec<u8>, Vec<u8>)> {
    let topo = Topology::new(nodes, ppn);
    let world = topo.world_size();
    World::run_with_profile(topo, library.profile(), |comm| {
        let rank = comm.rank();
        let reduced = comm.reduce(&payload(rank, block, 0), op, root);
        let scattered = comm.reduce_scatter(&payload(rank, world * block, 0), block, op);
        let mut prefix = payload(rank, block, 0);
        comm.scan(&mut prefix, op);
        let mut exclusive = payload(rank, block, 0);
        comm.exscan(&mut exclusive, op);
        (reduced, scattered, prefix, exclusive)
    })
    .unwrap()
}

fn check_case(library: Library, nodes: usize, ppn: usize, block: usize, root: usize, op: ReduceOp) {
    let world = nodes * ppn;
    let root = root % world;
    let want = expected(world, block, op, 0);
    let results = run_blocking(library, nodes, ppn, block, root, op);
    for (rank, (reduced, scattered, prefix, exclusive)) in results.iter().enumerate() {
        let ctx = format!(
            "{} on {nodes}x{ppn} rank {rank} block {block} root {root} {op:?}",
            library.name()
        );
        if rank == root {
            assert_eq!(reduced.as_ref().unwrap(), &want.reduce, "reduce {ctx}");
        } else {
            assert!(reduced.is_none(), "reduce off-root must be None ({ctx})");
        }
        assert_eq!(
            scattered, &want.reduce_scatter[rank],
            "reduce_scatter {ctx}"
        );
        assert_eq!(prefix, &want.scan[rank], "scan {ctx}");
        assert_eq!(exclusive, &want.exscan[rank], "exscan {ctx}");
    }
}

/// Entry style 1 — blocking, every library × topology on a fixed odd block.
#[test]
fn blocking_reduction_family_matches_oracle_everywhere() {
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            let world = nodes * ppn;
            check_case(library, nodes, ppn, 5, (world - 1) / 2, ReduceOp::Sum);
        }
    }
}

/// Large blocks cross the reduce_scatter Ring switch point for the
/// comparators (per-rank block >= LARGE_MESSAGE_THRESHOLD) while PiP-MColl
/// stays multi-object — both must still match the oracle.
#[test]
fn large_block_reduce_scatter_crosses_the_ring_switch() {
    let (nodes, ppn) = (2, 3);
    for library in [Library::OpenMpi, Library::PipMpich, Library::PipMColl] {
        let block = pip_mcoll::model::selection::LARGE_MESSAGE_THRESHOLD;
        let world = nodes * ppn;
        let shape = CollectiveShape::plain(CollectiveKind::ReduceScatter, block, 0);
        assert_eq!(
            library.profile().algorithm_for(&shape, world),
            if library == Library::PipMColl {
                Algorithm::ReduceScatterMultiObject
            } else {
                Algorithm::ReduceScatterRing
            }
        );
        let topo = Topology::new(nodes, ppn);
        let want = expected(world, block, ReduceOp::Sum, 0);
        let results = World::run_with_profile(topo, library.profile(), |comm| {
            comm.reduce_scatter(
                &payload(comm.rank(), world * block, 0),
                block,
                ReduceOp::Sum,
            )
        })
        .unwrap();
        for (rank, scattered) in results.iter().enumerate() {
            assert_eq!(
                scattered,
                &want.reduce_scatter[rank],
                "{} large-block reduce_scatter rank {rank}",
                library.name()
            );
        }
    }
}

/// Entry style 2 — non-blocking: all four submitted before any wait, waited
/// in per-rank rotated order, for every library × topology.
#[test]
fn nonblocking_reduction_family_matches_oracle_with_rotated_waits() {
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let block = 5;
            let root = (world - 1) / 2;
            let want = expected(world, block, ReduceOp::Sum, 0);

            let results = World::run_with_profile(topo, library.profile(), |comm| {
                let rank = comm.rank();
                let r_reduce = comm.ireduce(&payload(rank, block, 0), ReduceOp::Sum, root);
                let r_rs =
                    comm.ireduce_scatter(&payload(rank, world * block, 0), block, ReduceOp::Sum);
                let r_scan = comm.iscan(&payload(rank, block, 0), ReduceOp::Sum);
                let r_exscan = comm.iexscan(&payload(rank, block, 0), ReduceOp::Sum);
                assert_eq!(comm.outstanding_requests(), 4);

                let mut reduce_out = None;
                let mut outputs: [Option<Vec<u8>>; 3] = [None, None, None];
                let mut r_reduce = Some(r_reduce);
                let mut r_rs = Some(r_rs);
                let mut r_scan = Some(r_scan);
                let mut r_exscan = Some(r_exscan);
                let mut order: Vec<usize> = (0..4).collect();
                order.rotate_left(rank % 4);
                for slot in order {
                    match slot {
                        0 => reduce_out = Some(r_reduce.take().unwrap().wait()),
                        1 => outputs[0] = Some(r_rs.take().unwrap().wait()),
                        2 => outputs[1] = Some(r_scan.take().unwrap().wait()),
                        3 => outputs[2] = Some(r_exscan.take().unwrap().wait()),
                        _ => unreachable!(),
                    }
                }
                assert_eq!(comm.outstanding_requests(), 0);
                (reduce_out.unwrap(), outputs)
            })
            .unwrap();

            for (rank, (reduced, outputs)) in results.iter().enumerate() {
                let ctx = format!("{} on {nodes}x{ppn} rank {rank}", library.name());
                if rank == root {
                    assert_eq!(reduced.as_ref().unwrap(), &want.reduce, "ireduce {ctx}");
                } else {
                    assert!(reduced.is_none(), "ireduce off-root ({ctx})");
                }
                assert_eq!(
                    outputs[0].as_ref().unwrap(),
                    &want.reduce_scatter[rank],
                    "ireduce_scatter {ctx}"
                );
                assert_eq!(
                    outputs[1].as_ref().unwrap(),
                    &want.scan[rank],
                    "iscan {ctx}"
                );
                assert_eq!(
                    outputs[2].as_ref().unwrap(),
                    &want.exscan[rank],
                    "iexscan {ctx}"
                );
            }
        }
    }
}

/// Entry style 3 — persistent: repeated starts with refreshed inputs, and
/// the starts never recompile (plan-cache miss counter pinned), for every
/// library × topology.
#[test]
fn persistent_reduction_family_matches_oracle_across_repeated_starts() {
    const ROUNDS: usize = 3;
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let block = 5;
            let root = (world - 1) / 2;

            let results = World::run_with_profile(topo, library.profile(), |comm| {
                let rank = comm.rank();
                let mut reduce = comm.reduce_init(&payload(rank, block, 0), ReduceOp::Sum, root);
                let mut rs = comm.reduce_scatter_init(
                    &payload(rank, world * block, 0),
                    block,
                    ReduceOp::Sum,
                );
                let mut scan = comm.scan_init(&payload(rank, block, 0), ReduceOp::Sum);
                let mut exscan = comm.exscan_init(&payload(rank, block, 0), ReduceOp::Sum);
                let (_, misses_after_init) = comm.plan_stats();

                let mut rounds_out = Vec::new();
                for round in 0..ROUNDS {
                    if round > 0 {
                        reduce.write_send(&payload(rank, block, round));
                        rs.write_send(&payload(rank, world * block, round));
                        scan.write_send(&payload(rank, block, round));
                        exscan.write_send(&payload(rank, block, round));
                    }
                    reduce.start();
                    rs.start();
                    scan.start();
                    exscan.start();
                    // Wait in reverse start order.
                    let e = exscan.wait();
                    let s = scan.wait();
                    let r = rs.wait();
                    let d = reduce.wait();
                    rounds_out.push((d, r, s, e));
                }
                let (_, misses_after_rounds) = comm.plan_stats();
                assert_eq!(
                    misses_after_init, misses_after_rounds,
                    "persistent reduction starts must never recompile"
                );
                rounds_out
            })
            .unwrap();

            for round in 0..ROUNDS {
                let want = expected(world, block, ReduceOp::Sum, round);
                for (rank, rounds_out) in results.iter().enumerate() {
                    let ctx = format!(
                        "{} on {nodes}x{ppn} rank {rank} round {round}",
                        library.name()
                    );
                    let (d, r, s, e) = &rounds_out[round];
                    if rank == root {
                        assert_eq!(d.as_ref().unwrap(), &want.reduce, "reduce_init {ctx}");
                    } else {
                        assert!(d.is_none(), "reduce_init off-root ({ctx})");
                    }
                    assert_eq!(r, &want.reduce_scatter[rank], "reduce_scatter_init {ctx}");
                    assert_eq!(s, &want.scan[rank], "scan_init {ctx}");
                    assert_eq!(e, &want.exscan[rank], "exscan_init {ctx}");
                }
            }
        }
    }
}

fn shape(kind: CollectiveKind, block: usize, root: usize) -> CollectiveShape {
    CollectiveShape {
        kind,
        block,
        root,
        elem_size: 1,
        reduce: None,
        layout: None,
        compress: None,
    }
}

/// Plan-cache key regression: distinct reduction shapes (different roots,
/// reduce_scatter vs allreduce of the same size) must never collide in
/// `PlanKey` or share a cache entry.
#[test]
fn distinct_reduction_shapes_never_collide_in_the_plan_cache() {
    let profile = Library::PipMColl.profile();
    let topo = Topology::new(2, 2);
    let shapes = [
        shape(CollectiveKind::Reduce, 8, 0),
        shape(CollectiveKind::Reduce, 8, 1),
        shape(CollectiveKind::ReduceScatter, 8, 0),
        shape(CollectiveKind::Allreduce, 8, 0),
        shape(CollectiveKind::Scan, 8, 0),
        shape(CollectiveKind::Exscan, 8, 0),
    ];
    // The keys themselves are pairwise distinct...
    for (i, a) in shapes.iter().enumerate() {
        for b in &shapes[i + 1..] {
            assert_ne!(
                PlanKey::new(&profile, topo, *a),
                PlanKey::new(&profile, topo, *b),
                "{a:?} and {b:?} alias one plan key"
            );
        }
    }
    // ...and a live cache keeps one entry per shape: all compiles are
    // misses, every repeat is a hit, and the entry count never merges.
    let mut cache = PlanCache::new();
    for s in &shapes {
        cache.lookup_or_compile(&profile, topo, 0, s);
    }
    assert_eq!(cache.len(), shapes.len());
    assert_eq!(cache.stats(), (0, shapes.len() as u64));
    for s in &shapes {
        cache.lookup_or_compile(&profile, topo, 0, s);
    }
    assert_eq!(cache.len(), shapes.len());
    assert_eq!(cache.stats(), (shapes.len() as u64, shapes.len() as u64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized differential check: arbitrary block sizes (including
    /// non-power-of-two and sizes that do not divide across ppn chunks),
    /// arbitrary roots, Sum plus the non-invertible Min/Max, across every
    /// library on a randomly drawn topology.
    #[test]
    fn prop_reduction_family_matches_oracle(
        topo_idx in 0usize..TOPOLOGIES.len(),
        block in 1usize..24,
        root_seed in 0usize..64,
        op_idx in 0usize..3,
    ) {
        let (nodes, ppn) = TOPOLOGIES[topo_idx];
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][op_idx];
        for library in Library::ALL {
            check_case(library, nodes, ppn, block, root_seed, op);
        }
    }
}

// ---------------------------------------------------------------------
// Typed differential harness
// ---------------------------------------------------------------------

/// Test-local value model: deterministic generation plus an equality that
/// absorbs combine-order rounding for floats (integers compare exactly; the
/// distributed algorithms are free to reassociate a float Sum/Prod, so those
/// compare within a relative epsilon, with NaN equal to NaN).
trait TestValue: Datatype + std::fmt::Debug {
    fn gen(seed: u32) -> Self;
    fn close(a: Self, b: Self) -> bool;
}

impl TestValue for i32 {
    fn gen(seed: u32) -> Self {
        let magnitude = (seed % 3) as i32 + 1;
        if seed % 7 < 3 {
            -magnitude
        } else {
            magnitude
        }
    }
    fn close(a: Self, b: Self) -> bool {
        a == b
    }
}

impl TestValue for u64 {
    fn gen(seed: u32) -> Self {
        (seed % 4) as u64 + 1
    }
    fn close(a: Self, b: Self) -> bool {
        a == b
    }
}

impl TestValue for f32 {
    fn gen(seed: u32) -> Self {
        ((seed % 16) as f32 - 7.5) * 0.25
    }
    fn close(a: Self, b: Self) -> bool {
        float_close(a as f64, b as f64, 1e-4)
    }
}

impl TestValue for f64 {
    fn gen(seed: u32) -> Self {
        ((seed % 32) as f64 - 15.5) * 0.125
    }
    fn close(a: Self, b: Self) -> bool {
        float_close(a, b, 1e-10)
    }
}

/// Relative-epsilon float comparison with NaN == NaN: the associativity
/// tolerance for reassociated float reductions.
fn float_close(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

fn typed_inputs<T: TestValue>(world: usize, len: usize, round: usize) -> Vec<Vec<T>> {
    (0..world)
        .map(|rank| {
            (0..len)
                .map(|i| T::gen((rank * 131 + i * 7 + round * 53) as u32))
                .collect()
        })
        .collect()
}

fn assert_close<T: TestValue>(got: &[T], want: &[T], ctx: &str) {
    assert_eq!(got.len(), want.len(), "length mismatch: {ctx}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            T::close(*g, *w),
            "element {i} diverges: got {g:?}, want {w:?} ({ctx})"
        );
    }
}

/// Blocking typed entries — reduce, reduce_scatter, in-place allreduce —
/// and the by-value `iallreduce`/`iscan`/`iexscan(..).wait()` against the
/// typed oracle, for one `(T, op)` on one library × topology.
fn check_typed_case<T: TestValue>(
    library: Library,
    nodes: usize,
    ppn: usize,
    block: usize,
    root: usize,
    op: ReduceOp,
) {
    let topo = Topology::new(nodes, ppn);
    let world = topo.world_size();
    let root = root % world;
    let blocks: Vec<Vec<T>> = typed_inputs(world, block, 0);
    let vectors: Vec<Vec<T>> = typed_inputs(world, world * block, 0);
    let want_reduce = oracle::allreduce_t(&blocks, op);
    let want_rs = oracle::reduce_scatter_t(&vectors, world, op);
    let want_scan = oracle::scan_t(&blocks, op);
    let want_exscan = oracle::exscan_t(&blocks, op);

    let blocks_ref = &blocks;
    let vectors_ref = &vectors;
    let results = World::run_with_profile(topo, library.profile(), |comm| {
        let rank = comm.rank();
        let reduced = comm.reduce(&blocks_ref[rank], op, root);
        let scattered = comm.reduce_scatter(&vectors_ref[rank], block, op);
        let mut inplace = blocks_ref[rank].clone();
        comm.allreduce(&mut inplace, op);
        let byvalue = comm.iallreduce(&blocks_ref[rank], op).wait();
        let scanned = comm.iscan(&blocks_ref[rank], op).wait();
        let exclusive = comm.iexscan(&blocks_ref[rank], op).wait();
        (reduced, scattered, inplace, byvalue, scanned, exclusive)
    })
    .unwrap();

    for (rank, (reduced, scattered, inplace, byvalue, scanned, exclusive)) in
        results.iter().enumerate()
    {
        let ctx = format!(
            "{} {} {op:?} on {nodes}x{ppn} rank {rank} block {block} root {root}",
            library.name(),
            std::any::type_name::<T>(),
        );
        if rank == root {
            assert_close(reduced.as_deref().unwrap(), &want_reduce, &ctx);
        } else {
            assert!(reduced.is_none(), "reduce off-root must be None ({ctx})");
        }
        assert_close(scattered, &want_rs[rank], &ctx);
        assert_close(inplace, &want_reduce, &ctx);
        assert_close(byvalue, &want_reduce, &ctx);
        assert_close(scanned, &want_scan[rank], &ctx);
        assert_close(exclusive, &want_exscan[rank], &ctx);
    }
}

/// Non-blocking and persistent typed entries for one `(T, op)` — submitted
/// together, waited out of order; persistent handles restarted with
/// refreshed inputs and pinned against recompiles.
fn check_typed_async_case<T: TestValue>(
    library: Library,
    nodes: usize,
    ppn: usize,
    block: usize,
    op: ReduceOp,
) {
    const ROUNDS: usize = 2;
    let topo = Topology::new(nodes, ppn);
    let world = topo.world_size();
    let root = (world - 1) / 2;
    let blocks: Vec<Vec<Vec<T>>> = (0..ROUNDS).map(|r| typed_inputs(world, block, r)).collect();
    let blocks_ref = &blocks;

    let results = World::run_with_profile(topo, library.profile(), |comm| {
        let rank = comm.rank();

        // Non-blocking: all four in flight, waited in reverse order.
        let r_all = comm.iallreduce(&blocks_ref[0][rank], op);
        let r_reduce = comm.ireduce(&blocks_ref[0][rank], op, root);
        let r_scan = comm.iscan(&blocks_ref[0][rank], op);
        let r_exscan = comm.iexscan(&blocks_ref[0][rank], op);
        let nb_exscan = r_exscan.wait();
        let nb_scan = r_scan.wait();
        let nb_reduce = r_reduce.wait();
        let nb_all = r_all.wait();

        // Persistent: restart with round-dependent inputs, never recompile.
        let mut p_all = comm.allreduce_init(&blocks_ref[0][rank], op);
        let (_, misses_after_init) = comm.plan_stats();
        let mut persistent = Vec::new();
        for (round, round_blocks) in blocks_ref.iter().enumerate().take(ROUNDS) {
            if round > 0 {
                p_all.write_send(&round_blocks[rank]);
            }
            p_all.start();
            persistent.push(p_all.wait());
        }
        let (_, misses_after_rounds) = comm.plan_stats();
        assert_eq!(
            misses_after_init, misses_after_rounds,
            "persistent typed starts must never recompile"
        );
        (nb_all, nb_reduce, nb_scan, nb_exscan, persistent)
    })
    .unwrap();

    let want_all = oracle::allreduce_t(&blocks[0], op);
    let want_scan = oracle::scan_t(&blocks[0], op);
    let want_exscan = oracle::exscan_t(&blocks[0], op);
    for (rank, (nb_all, nb_reduce, nb_scan, nb_exscan, persistent)) in results.iter().enumerate() {
        let ctx = format!(
            "{} {} {op:?} async on {nodes}x{ppn} rank {rank}",
            library.name(),
            std::any::type_name::<T>(),
        );
        assert_close(nb_all, &want_all, &ctx);
        if rank == root {
            assert_close(nb_reduce.as_deref().unwrap(), &want_all, &ctx);
        } else {
            assert!(nb_reduce.is_none(), "ireduce off-root ({ctx})");
        }
        assert_close(nb_scan, &want_scan[rank], &ctx);
        assert_close(nb_exscan, &want_exscan[rank], &ctx);
        for (round, got) in persistent.iter().enumerate() {
            let want = oracle::allreduce_t(&blocks[round], op);
            assert_close(got, &want, &format!("{ctx} round {round}"));
        }
    }
}

/// Blocking typed grid: all four datatypes × all four operators × every
/// library on a mid-sized non-power-of-two topology.
#[test]
fn typed_blocking_family_matches_oracle_for_all_types_and_ops() {
    for library in Library::ALL {
        for op in ReduceOp::ALL {
            check_typed_case::<f32>(library, 2, 3, 5, 2, op);
            check_typed_case::<f64>(library, 2, 3, 5, 2, op);
            check_typed_case::<i32>(library, 2, 3, 5, 2, op);
            check_typed_case::<u64>(library, 2, 3, 5, 2, op);
        }
    }
}

/// Non-blocking + persistent typed grid on a smaller topology.
#[test]
fn typed_async_family_matches_oracle_for_all_types_and_ops() {
    for library in Library::ALL {
        for op in ReduceOp::ALL {
            check_typed_async_case::<f32>(library, 1, 4, 6, op);
            check_typed_async_case::<f64>(library, 1, 4, 6, op);
            check_typed_async_case::<i32>(library, 1, 4, 6, op);
            check_typed_async_case::<u64>(library, 1, 4, 6, op);
        }
    }
}

/// Large typed f64 allreduce/reduce_scatter crossing the Ring switch point:
/// the element-aligned ring chunking must hold when the per-rank payload is
/// past `LARGE_MESSAGE_THRESHOLD` and the element count does not divide by
/// the world size.
#[test]
fn typed_f64_large_messages_survive_the_ring_switch() {
    let (nodes, ppn) = (2, 3);
    let world = nodes * ppn;
    // An odd element count past the threshold: 4099 * 8 B > 32 KiB, and
    // 4099 % 6 != 0 so ring chunks are uneven.
    let count = 4099;
    assert!(count * 8 > pip_mcoll::model::selection::LARGE_MESSAGE_THRESHOLD);
    let inputs: Vec<Vec<f64>> = typed_inputs(world, count, 0);
    let want = oracle::allreduce_t(&inputs, ReduceOp::Sum);
    let inputs_ref = &inputs;
    for library in Library::ALL {
        let results =
            World::run_with_profile(Topology::new(nodes, ppn), library.profile(), |comm| {
                let mut buf = inputs_ref[comm.rank()].clone();
                comm.allreduce(&mut buf, ReduceOp::Sum);
                buf
            })
            .unwrap();
        for (rank, got) in results.iter().enumerate() {
            assert_close(
                got,
                &want,
                &format!("{} large f64 allreduce rank {rank}", library.name()),
            );
        }
    }
}

/// NaN differential: with a NaN planted in one rank's contribution, every
/// library × topology produces the identical, canonically propagated result
/// for Max and Min — bitwise, because the kernels canonicalize NaN.
#[test]
fn nan_inputs_reduce_identically_across_all_algorithms() {
    for op in [ReduceOp::Max, ReduceOp::Min] {
        for (nodes, ppn) in [(1, 4), (2, 3), (3, 3)] {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let block = 6;
            let mut blocks: Vec<Vec<f64>> = typed_inputs(world, block, 0);
            // Plant NaNs on two ranks, one lane overlapping, one distinct.
            blocks[0][1] = f64::NAN;
            blocks[world - 1][1] = f64::NAN;
            blocks[world - 1][4] = f64::NAN;
            let want = oracle::allreduce_t(&blocks, op);
            assert!(want[1].is_nan() && want[4].is_nan());

            let blocks_ref = &blocks;
            let mut per_library: Vec<Vec<u64>> = Vec::new();
            for library in Library::ALL {
                let results = World::run_with_profile(topo, library.profile(), |comm| {
                    let mut buf = blocks_ref[comm.rank()].clone();
                    comm.allreduce(&mut buf, op);
                    buf
                })
                .unwrap();
                for (rank, got) in results.iter().enumerate() {
                    let ctx = format!("{} {op:?} on {nodes}x{ppn} rank {rank}", library.name());
                    assert_close(got, &want, &ctx);
                    assert!(got[1].is_nan() && got[4].is_nan(), "NaN lanes lost ({ctx})");
                }
                // Canonical NaN propagation makes the result bit-exact, so
                // every library must agree with every other bit for bit.
                per_library.push(results[0].iter().map(|v| v.to_bits()).collect());
            }
            for bits in &per_library[1..] {
                assert_eq!(
                    bits, &per_library[0],
                    "libraries disagree bitwise on NaN propagation ({nodes}x{ppn} {op:?})"
                );
            }
        }
    }
}

/// Plan-cache key regression for the typed layer: same kind, block, root and
/// element size, but a different datatype or operator, must produce distinct
/// `PlanKey`s and distinct cache entries — an f32-Sum plan must never serve
/// an i32-Max call.
#[test]
fn same_shape_different_type_or_op_never_aliases_a_plan() {
    let profile = Library::PipMColl.profile();
    let topo = Topology::new(2, 2);
    let ident = |kernel: ReduceKernel| kernel.ident();
    let mk = |reduce| CollectiveShape {
        kind: CollectiveKind::Allreduce,
        block: 32,
        root: 0,
        elem_size: 4,
        reduce: Some(reduce),
        layout: None,
        compress: None,
    };
    // All three shapes are 32 B of 4-byte elements; only the (type, op)
    // identity differs.
    let shapes = [
        mk(ident(ReduceKernel::of::<f32>(ReduceOp::Sum))),
        mk(ident(ReduceKernel::of::<i32>(ReduceOp::Sum))),
        mk(ident(ReduceKernel::of::<f32>(ReduceOp::Max))),
    ];
    for (i, a) in shapes.iter().enumerate() {
        for b in &shapes[i + 1..] {
            assert_ne!(
                PlanKey::new(&profile, topo, *a),
                PlanKey::new(&profile, topo, *b),
                "{a:?} and {b:?} alias one plan key"
            );
        }
    }
    let mut cache = PlanCache::new();
    for s in &shapes {
        cache.lookup_or_compile(&profile, topo, 0, s);
    }
    assert_eq!(
        cache.len(),
        shapes.len(),
        "typed shapes merged in the cache"
    );
    assert_eq!(cache.stats(), (0, shapes.len() as u64));
}

/// Tentpole regression (the opaque plan-key aliasing hole): registered
/// user operators carry their minted identity into the plan key.  Two
/// distinct `Op`s of the same element width, and a builtin f32-Sum kernel
/// of that same width, must produce three pairwise-distinct keys and three
/// cache entries — before user-op identities existed, every opaque
/// reduction collapsed onto the `(kind, block, elem_size)` entry, so an
/// elem-size-4 user operator would have replayed the cached f32-Sum plan.
#[test]
fn user_operators_never_alias_builtins_or_each_other_in_the_plan_cache() {
    let profile = Library::PipMColl.profile();
    let topo = Topology::new(2, 2);
    let wrapping_add = |acc: &mut [u8], other: &[u8]| {
        for (a, b) in acc.iter_mut().zip(other) {
            *a = a.wrapping_add(*b);
        }
    };
    // Same closure body twice on purpose: identity comes from registration,
    // not from what the operator computes.
    let op_a = Op::create(4, wrapping_add);
    let op_b = Op::create(4, wrapping_add);
    let mk = |reduce| CollectiveShape {
        kind: CollectiveKind::Allreduce,
        block: 32,
        root: 0,
        elem_size: 4,
        reduce: Some(reduce),
        layout: None,
        compress: None,
    };
    let shapes = [
        mk(ReduceKernel::of::<f32>(ReduceOp::Sum).ident()),
        mk(op_a.ident()),
        mk(op_b.ident()),
    ];
    for (i, a) in shapes.iter().enumerate() {
        for b in &shapes[i + 1..] {
            assert_ne!(
                PlanKey::new(&profile, topo, *a),
                PlanKey::new(&profile, topo, *b),
                "{a:?} and {b:?} alias one plan key"
            );
        }
    }
    let mut cache = PlanCache::new();
    for s in &shapes {
        cache.lookup_or_compile(&profile, topo, 0, s);
    }
    assert_eq!(
        cache.len(),
        shapes.len(),
        "user-op shapes merged in the cache"
    );
    assert_eq!(cache.stats(), (0, shapes.len() as u64));
    // Clones of a registered operator share its identity — and its plan.
    assert_eq!(op_a.ident(), op_a.clone().ident());
    cache.lookup_or_compile(&profile, topo, 0, &mk(op_a.clone().ident()));
    assert_eq!(cache.stats(), (1, shapes.len() as u64));
}

/// Derived-datatype regression: a strided allreduce and a contiguous one
/// of the *same packed byte count* must never share a plan — the layout
/// triple is part of the shape — while a contiguous layout normalizes away
/// (`Layout::contiguous` keys identically to no layout at all).
#[test]
fn strided_and_contiguous_allreduce_of_equal_packed_bytes_never_alias() {
    let profile = Library::PipMColl.profile();
    let topo = Topology::new(2, 2);
    let ident = ReduceKernel::of::<f32>(ReduceOp::Sum).ident();
    let mk = |layout| CollectiveShape {
        kind: CollectiveKind::Allreduce,
        block: 32,
        root: 0,
        elem_size: 4,
        reduce: Some(ident),
        layout,
        compress: None,
    };
    // All three move 8 f32 = 32 packed bytes; only the memory walk differs.
    let shapes = [
        mk(None),
        mk(Some(Layout::vector(4, 2, 3))),
        mk(Some(Layout::vector(2, 4, 6))),
    ];
    for (i, a) in shapes.iter().enumerate() {
        for b in &shapes[i + 1..] {
            assert_ne!(
                PlanKey::new(&profile, topo, *a),
                PlanKey::new(&profile, topo, *b),
                "{a:?} and {b:?} alias one plan key"
            );
        }
    }
    let mut cache = PlanCache::new();
    for s in &shapes {
        cache.lookup_or_compile(&profile, topo, 0, s);
    }
    assert_eq!(
        cache.len(),
        shapes.len(),
        "layout shapes merged in the cache"
    );

    // A contiguous layout is normalized away before keying: the request
    // paths pass `layout.filter(|l| !l.is_contiguous())`, so stride ==
    // blocklen and the no-layout form describe the same plan.
    let request = OwnedCollective::Allreduce {
        buf: vec![0u8; 32],
        op: OwnedReduction::Typed(ReduceKernel::of::<f32>(ReduceOp::Sum)),
        layout: Some(Layout::vector(4, 2, 2)),
        compress: None,
    };
    assert_eq!(request.shape(4), mk(None));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized typed differential check: random type, operator, block
    /// size and root across every library on a drawn topology.  The f64 arm
    /// doubles as the associativity-tolerance check: the harness compares
    /// within a relative epsilon, never exactly, so reassociated sums pass
    /// while wrong contribution subsets still fail.
    #[test]
    fn prop_typed_reduction_family_matches_oracle(
        topo_idx in 0usize..TOPOLOGIES.len(),
        block in 1usize..16,
        root_seed in 0usize..64,
        op_idx in 0usize..4,
        type_idx in 0usize..4,
    ) {
        let (nodes, ppn) = TOPOLOGIES[topo_idx];
        let op = ReduceOp::ALL[op_idx];
        for library in Library::ALL {
            match type_idx {
                0 => check_typed_case::<f32>(library, nodes, ppn, block, root_seed, op),
                1 => check_typed_case::<f64>(library, nodes, ppn, block, root_seed, op),
                2 => check_typed_case::<i32>(library, nodes, ppn, block, root_seed, op),
                _ => check_typed_case::<u64>(library, nodes, ppn, block, root_seed, op),
            }
        }
    }
}
