//! Differential harness for error-bounded lossy-compressed collectives —
//! the C-Coll plane's correctness contract, pinned end to end:
//!
//! 1. **Bounded error everywhere**: `allreduce_compressed` (blocking,
//!    non-blocking and persistent) stays within `bound` of the exact
//!    oracle **element-wise on every rank**, across libraries ×
//!    multi-node topologies × swept bounds.  Inputs are multiples of
//!    `0.25` with small magnitude, so the exact sum is representable and
//!    reassociation-free — the oracle is bit-defined and the only
//!    admissible deviation is the codec's.
//! 2. **Compression really engages**: the compiled cluster plan moves
//!    strictly fewer send bytes than the exact plan (and the lossy result
//!    actually differs from the exact one), so the bounded-error pass is
//!    not vacuously exact.
//! 3. **Exact paths stay bit-for-bit**: a zero bound, or a message under
//!    the wire threshold, produces bitwise the plain `allreduce` result —
//!    the spec normalizes away and the exact plan is shared.
//! 4. **Plan-key aliasing regression**: distinct bounds and thresholds
//!    key distinct cache entries; a normalized-away spec keys the *same*
//!    entry as the exact shape.
//! 5. **Codec round-trip property**: randomized streams (including NaN,
//!    infinities, huge magnitudes and empty input) reconstruct within the
//!    bound element-wise, with non-finite values preserved bitwise, in a
//!    frame no longer than `max_frame_len`.

use proptest::prelude::*;

use pip_mcoll::collectives::compress::{compress, decompress, max_frame_len, Codec, FloatElem};
use pip_mcoll::collectives::plan::Fidelity;
use pip_mcoll::collectives::CollectiveKind;
use pip_mcoll::core::prelude::*;
use pip_mcoll::model::plan::{compile_cluster, PlanCache, PlanKey};
use pip_mcoll::model::{CollectiveShape, CompressSpec};
use pip_mcoll::netsim::trace::TraceOp;

/// Multi-node topologies: compression rewrites only inter-node transfers,
/// so single-node worlds would make the harness vacuous.  Engaged-size
/// payloads make each `World` run expensive, so debug builds (the tier-1
/// `cargo test` gate) keep one topology and one bound; release builds
/// sweep the full grid.
#[cfg(debug_assertions)]
const TOPOLOGIES: [(usize, usize); 1] = [(2, 3)];
#[cfg(not(debug_assertions))]
const TOPOLOGIES: [(usize, usize); 2] = [(2, 3), (3, 3)];

/// Swept end-to-end error bounds.
#[cfg(debug_assertions)]
const BOUNDS: [f64; 1] = [1e-2];
#[cfg(not(debug_assertions))]
const BOUNDS: [f64; 2] = [1e-2, 1e-4];

/// Deterministic per-rank payload of multiples of `0.25` in `[-8, 8]`:
/// sums across any rank subset in any order are exactly representable in
/// f64, so the oracle below is *the* exact answer and every deviation in a
/// compressed run is codec error.
fn payload(rank: usize, len: usize, round: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let k = ((i * 7 + rank * 131 + round * 53) % 65) as i64 - 32;
            k as f64 * 0.25
        })
        .collect()
}

/// Element-wise exact sum of every rank's payload.
fn oracle_sum(world: usize, len: usize, round: usize) -> Vec<f64> {
    let mut acc = vec![0.0f64; len];
    for rank in 0..world {
        for (a, v) in acc.iter_mut().zip(payload(rank, len, round)) {
            *a += v;
        }
    }
    acc
}

/// Elements per rank sized so every ring chunk (`block / world`) sits at
/// the profile's wire threshold — the compressed plan engages for the
/// chunked Ring schedules, and the footprint stays under the plan-path
/// bypass limit.
fn engaged_len(library: Library, world: usize) -> usize {
    world * library.profile().selection.compress_min_bytes / 8
}

fn assert_within(got: &[f64], want: &[f64], bound: f64, ctx: &str) {
    assert_eq!(got.len(), want.len(), "length mismatch: {ctx}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= bound + 1e-12,
            "element {i} breaks the bound: got {g}, want {w}, |err| = {} > {bound} ({ctx})",
            (g - w).abs()
        );
    }
}

/// Contract 1, blocking entry: every library × topology × bound.
#[test]
fn blocking_compressed_allreduce_stays_within_bound_everywhere() {
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let len = engaged_len(library, world);
            let want = oracle_sum(world, len, 0);
            for bound in BOUNDS {
                let results = World::run_with_profile(topo, library.profile(), |comm| {
                    let mut buf = payload(comm.rank(), len, 0);
                    comm.allreduce_compressed(&mut buf, ReduceOp::Sum, bound);
                    buf
                })
                .unwrap();
                for (rank, got) in results.iter().enumerate() {
                    let ctx = format!(
                        "{} on {nodes}x{ppn} rank {rank} bound {bound:.0e}",
                        library.name()
                    );
                    assert_within(got, &want, bound, &ctx);
                }
            }
        }
    }
}

/// Contract 1, non-blocking + persistent entries: submitted together,
/// persistent restarted with refreshed inputs and pinned against
/// recompiles.
#[test]
fn async_compressed_allreduce_stays_within_bound() {
    const ROUNDS: usize = 2;
    let bound = BOUNDS[0];
    for library in Library::ALL {
        let (nodes, ppn) = TOPOLOGIES[0];
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let len = engaged_len(library, world);

        let results = World::run_with_profile(topo, library.profile(), |comm| {
            let rank = comm.rank();
            let nb = comm
                .iallreduce_compressed(&payload(rank, len, 0), ReduceOp::Sum, bound)
                .wait();

            let mut p =
                comm.allreduce_compressed_init(&payload(rank, len, 0), ReduceOp::Sum, bound);
            let (_, misses_after_init) = comm.plan_stats();
            let mut persistent = Vec::new();
            for round in 0..ROUNDS {
                if round > 0 {
                    p.write_send(&payload(rank, len, round));
                }
                p.start();
                persistent.push(p.wait());
            }
            let (_, misses_after_rounds) = comm.plan_stats();
            assert_eq!(
                misses_after_init, misses_after_rounds,
                "persistent compressed starts must never recompile"
            );
            (nb, persistent)
        })
        .unwrap();

        let want_first = oracle_sum(world, len, 0);
        for (rank, (nb, persistent)) in results.iter().enumerate() {
            let ctx = format!("{} on {nodes}x{ppn} rank {rank}", library.name());
            assert_within(nb, &want_first, bound, &format!("iallreduce {ctx}"));
            for (round, got) in persistent.iter().enumerate() {
                let want = oracle_sum(world, len, round);
                assert_within(
                    got,
                    &want,
                    bound,
                    &format!("persistent round {round} {ctx}"),
                );
            }
        }
    }
}

/// Total bytes posted by `TraceOp::Send` across the lowered cluster plan.
fn plan_send_bytes(library: Library, topo: Topology, shape: &CollectiveShape) -> usize {
    let plan = compile_cluster(&library.profile(), topo, shape, Fidelity::Schedule);
    plan.validate().unwrap();
    plan.to_trace(1)
        .ranks
        .iter()
        .flat_map(|r| r.ops.iter())
        .filter_map(|op| match op {
            TraceOp::Send { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .sum()
}

/// Contract 2: the compressed plan moves strictly fewer send bytes than
/// the exact plan for the Ring-selecting comparator, never more for any
/// library — and the lossy numeric result really differs from the exact
/// one, so contract 1 is not passing vacuously.
#[test]
fn compression_engages_in_plans_and_results() {
    let (nodes, ppn) = TOPOLOGIES[0];
    let topo = Topology::new(nodes, ppn);
    let world = topo.world_size();
    for library in Library::ALL {
        let len = engaged_len(library, world);
        let block = len * 8;
        let spec =
            CompressSpec::from_bound(BOUNDS[0], library.profile().selection.compress_min_bytes);
        let mk = |compress| CollectiveShape {
            kind: CollectiveKind::Allreduce,
            block,
            root: 0,
            elem_size: 8,
            reduce: None,
            layout: None,
            compress,
        };
        let exact = plan_send_bytes(library, topo, &mk(None));
        let compressed = plan_send_bytes(library, topo, &mk(spec.normalized_for(block)));
        assert!(
            compressed <= exact,
            "{}: compressed plan moves more bytes ({compressed} > {exact})",
            library.name()
        );
        if library == Library::OpenMpi {
            assert!(
                compressed < exact,
                "ring compressed plan must shed send bytes ({compressed} vs {exact})"
            );
        }
    }

    // Numeric engagement on the ring: the lossy result differs from the
    // exact one somewhere (while staying within the bound — contract 1).
    let library = Library::OpenMpi;
    let len = engaged_len(library, world);
    let lossy = World::run_with_profile(topo, library.profile(), |comm| {
        let mut buf = payload(comm.rank(), len, 0);
        comm.allreduce_compressed(&mut buf, ReduceOp::Sum, BOUNDS[0]);
        buf
    })
    .unwrap();
    let want = oracle_sum(world, len, 0);
    assert!(
        lossy[0].iter().zip(&want).any(|(g, w)| g != w),
        "loose-bound compressed allreduce reproduced the exact sum bit-for-bit — \
         the codec cannot have engaged"
    );
}

/// Contract 3: a zero bound and an under-threshold message both normalize
/// to the exact plan and reproduce plain `allreduce` bit-for-bit.
#[test]
fn exact_paths_stay_bit_for_bit() {
    let (nodes, ppn) = TOPOLOGIES[0];
    let topo = Topology::new(nodes, ppn);
    for library in Library::ALL {
        let world = topo.world_size();
        let big = engaged_len(library, world);
        let small = 64; // 512 B: far under every wire threshold.
        let results = World::run_with_profile(topo, library.profile(), move |comm| {
            let rank = comm.rank();
            // Zero bound on an engaged-size message.
            let mut zero_bound = payload(rank, big, 0);
            comm.allreduce_compressed(&mut zero_bound, ReduceOp::Sum, 0.0);
            let mut plain_big = payload(rank, big, 0);
            comm.allreduce(&mut plain_big, ReduceOp::Sum);
            // Loose bound on an under-threshold message.
            let mut tiny = payload(rank, small, 0);
            comm.allreduce_compressed(&mut tiny, ReduceOp::Sum, BOUNDS[0]);
            let mut plain_tiny = payload(rank, small, 0);
            comm.allreduce(&mut plain_tiny, ReduceOp::Sum);
            (zero_bound, plain_big, tiny, plain_tiny)
        })
        .unwrap();
        for (rank, (zero_bound, plain_big, tiny, plain_tiny)) in results.iter().enumerate() {
            let ctx = format!("{} rank {rank}", library.name());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(zero_bound),
                bits(plain_big),
                "bound 0.0 diverged from plain allreduce ({ctx})"
            );
            assert_eq!(
                bits(tiny),
                bits(plain_tiny),
                "under-threshold message diverged from plain allreduce ({ctx})"
            );
        }
    }
}

/// Contract 4: compression is part of the plan key.  Distinct bounds and
/// thresholds never alias; a normalized-away spec shares the exact entry.
#[test]
fn compression_specs_key_distinct_plan_cache_entries() {
    let profile = Library::PipMColl.profile();
    let topo = Topology::new(2, 2);
    let block = 1 << 17; // 128 KiB: above every threshold used below.
    let mk = |compress| CollectiveShape {
        kind: CollectiveKind::Allreduce,
        block,
        root: 0,
        elem_size: 8,
        reduce: None,
        layout: None,
        compress,
    };
    let shapes = [
        mk(None),
        mk(CompressSpec::from_bound(1e-2, 1 << 15).normalized_for(block)),
        mk(CompressSpec::from_bound(1e-4, 1 << 15).normalized_for(block)),
        // Same bound, different wire threshold: still a different plan —
        // which transfers get rewritten depends on the threshold.
        mk(CompressSpec::from_bound(1e-2, 1 << 17).normalized_for(block)),
    ];
    for s in &shapes[1..] {
        assert!(s.compress.is_some(), "spec unexpectedly normalized away");
    }
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
    assert_eq!(cache.len(), shapes.len());
    assert_eq!(cache.stats(), (0, shapes.len() as u64));

    // Normalized-away specs share the exact entry: zero bound, and a
    // message under the threshold, both key identically to no spec.
    assert_eq!(
        PlanKey::new(
            &profile,
            topo,
            mk(CompressSpec::from_bound(0.0, 1 << 15).normalized_for(block))
        ),
        PlanKey::new(&profile, topo, mk(None)),
    );
    assert!(CompressSpec::from_bound(1e-2, block * 2)
        .normalized_for(block)
        .is_none());
    cache.lookup_or_compile(
        &profile,
        topo,
        0,
        &mk(CompressSpec::from_bound(0.0, 1 << 15).normalized_for(block)),
    );
    assert_eq!(cache.len(), shapes.len(), "exact entry was not shared");
    assert_eq!(cache.stats(), (1, shapes.len() as u64));
}

/// Contract 5 support: one round-trip through the public codec, asserting
/// the frame-length ceiling, the bound on finite elements and bitwise
/// preservation of non-finite ones.
fn check_roundtrip_f64(values: &[f64], bound: f64) {
    let codec = Codec {
        elem: FloatElem::F64,
        bound,
    };
    let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let frame = compress(&data, codec);
    assert!(frame.len() <= max_frame_len(data.len(), codec));
    let back = decompress(&frame, data.len(), codec);
    assert_eq!(back.len(), data.len());
    for (i, (orig, chunk)) in values.iter().zip(back.chunks_exact(8)).enumerate() {
        let got = f64::from_le_bytes(chunk.try_into().unwrap());
        if orig.is_finite() {
            assert!(
                (got - orig).abs() <= bound,
                "element {i}: |{got} - {orig}| > {bound}"
            );
        } else {
            assert_eq!(
                got.to_bits(),
                orig.to_bits(),
                "non-finite element {i} not preserved bitwise"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized f64 streams — smooth-ish, jumpy, huge, special — round-
    /// trip within the bound; NaN/infinities survive bitwise.  The shim's
    /// integer strategies drive a seed-to-float map that mixes ordinary
    /// magnitudes with NaN, infinities, signed zeros, huge values and
    /// subnormals.
    #[test]
    fn prop_codec_roundtrip_f64(
        seeds in collection::vec(0u64..u64::MAX, 0..600),
        bound_idx in 0usize..4,
    ) {
        let bound = [1e-1, 1e-3, 1e-6, 1e-9][bound_idx];
        let values: Vec<f64> = seeds.iter().map(|&s| f64_from_seed(s)).collect();
        check_roundtrip_f64(&values, bound);
    }

    /// f32 streams under the f32 codec: the bound holds in the stored
    /// (f32) domain, non-finite lanes survive bitwise.
    #[test]
    fn prop_codec_roundtrip_f32(
        seeds in collection::vec(0u64..u64::MAX, 0..600),
        bound_idx in 0usize..2,
    ) {
        let bound = [1e-1, 1e-3][bound_idx];
        let codec = Codec { elem: FloatElem::F32, bound };
        let values: Vec<f32> = seeds.iter().map(|&s| f32_from_seed(s)).collect();
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let frame = compress(&data, codec);
        prop_assert!(frame.len() <= max_frame_len(data.len(), codec));
        let back = decompress(&frame, data.len(), codec);
        prop_assert_eq!(back.len(), data.len());
        for (i, (orig, chunk)) in values.iter().zip(back.chunks_exact(4)).enumerate() {
            let got = f32::from_le_bytes(chunk.try_into().unwrap());
            if orig.is_finite() {
                prop_assert!(
                    (f64::from(got) - f64::from(*orig)).abs() <= bound,
                    "element {}: |{} - {}| > {}", i, got, orig, bound
                );
            } else {
                prop_assert_eq!(got.to_bits(), orig.to_bits(), "non-finite element {} lost", i);
            }
        }
    }
}

/// Map a random seed to an f64: mostly ordinary magnitudes in
/// `[-1e6, 1e6)`, with a 1-in-4 sprinkle of special values.
fn f64_from_seed(seed: u64) -> f64 {
    match seed % 32 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e300,
        4 => -1e300,
        5 => f64::MIN_POSITIVE,
        6 => 0.0,
        7 => -0.0,
        _ => {
            let unit = (seed >> 11) as f64 / (1u64 << 53) as f64;
            unit * 2e6 - 1e6
        }
    }
}

/// f32 twin of [`f64_from_seed`] over `[-1e4, 1e4)`.
fn f32_from_seed(seed: u64) -> f32 {
    match seed % 32 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0f32,
        _ => {
            let unit = (seed >> 11) as f64 / (1u64 << 53) as f64;
            (unit * 2e4 - 1e4) as f32
        }
    }
}
