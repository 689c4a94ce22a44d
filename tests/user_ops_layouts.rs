//! Differential harness for user-defined operators (`MPI_Op_create`) and
//! derived datatypes (`MPI_Type_vector` layouts).
//!
//! User operators are exercised with **seeded closures** the library cannot
//! possibly special-case: `x ⊕ y = x.wrapping_add(y).wrapping_add(c)` for a
//! per-test constant `c`.  The operator is associative and commutative —
//! `(x ⊕ y) ⊕ z = x + y + z + 2c = x ⊕ (y ⊕ z)` — yet its result is exactly
//! checkable in closed form: reducing `n` contributions yields
//! `Σ values + (n − 1)·c`, so a wrong combination *count* (an operator
//! applied once too often or too rarely anywhere in the tree) shifts the
//! result by a multiple of `c` and is caught, not just a wrong subset.
//!
//! Strided allreduce pins the layout contract: only the selected elements
//! are reduced, gap elements survive untouched, and the result matches the
//! sequential oracle applied to the packed view.  Both surfaces run through
//! all three entry styles (blocking, `i*`, `*_init`) for every library ×
//! topology, and a proptest pins the pack/unpack round trip itself —
//! including non-power-of-two counts and the `stride == blocklen`
//! (contiguous) edge.

use proptest::prelude::*;

use pip_mcoll::collectives::oracle;
use pip_mcoll::core::prelude::*;

const TOPOLOGIES: [(usize, usize); 5] = [(1, 1), (1, 4), (2, 3), (3, 3), (5, 2)];

/// Deterministic per-rank u64 payload, varied per round.
fn payload_u64(rank: usize, len: usize, round: usize) -> Vec<u64> {
    (0..len)
        .map(|i| {
            let x = (rank as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64)
                .wrapping_add((round as u64) << 32);
            x ^ (x >> 29)
        })
        .collect()
}

/// The seeded user operator: `acc ⊕ other = acc + other + c` (wrapping).
fn seeded_op(c: u64) -> Op {
    Op::of_typed::<u64>(move |x, y| x.wrapping_add(y).wrapping_add(c))
}

/// Closed form of reducing one element position across `ranks` with the
/// seeded operator: `Σ values + (n − 1)·c`.
fn seeded_fold(values: impl IntoIterator<Item = u64>, c: u64) -> u64 {
    let mut n = 0u64;
    let mut sum = 0u64;
    for v in values {
        n += 1;
        sum = sum.wrapping_add(v);
    }
    sum.wrapping_add(c.wrapping_mul(n.saturating_sub(1)))
}

/// Closed form of the seeded operator over the round-`round` payloads of
/// `ranks`, element by element.
fn seeded_reduce(
    ranks: impl Iterator<Item = usize> + Clone,
    len: usize,
    round: usize,
    c: u64,
) -> Vec<u64> {
    (0..len)
        .map(|i| seeded_fold(ranks.clone().map(|r| payload_u64(r, len, round)[i]), c))
        .collect()
}

const BLOCK: usize = 6;
const SEED_C: u64 = 0x0123_4567_89ab_cdef;

/// One rank's results of the five reductions with one operator, each over
/// its own payload round: allreduce (0), reduce to rank 0 (1),
/// reduce_scatter of `BLOCK` elements per rank (2), scan (3) and exscan (4).
type Reductions = (Vec<u64>, Option<Vec<u64>>, Vec<u64>, Vec<u64>, Vec<u64>);

/// The input of round `round` at `rank`: one `BLOCK` per rank for
/// reduce_scatter, one `BLOCK` for the others.
fn input(rank: usize, world: usize, round: usize) -> Vec<u64> {
    let len = if round == 2 { BLOCK * world } else { BLOCK };
    payload_u64(rank, len, round)
}

/// [`Reductions`] of the seeded operator in closed form.  Rank 0's exscan
/// gets its input back (the blocking call leaves its buffer untouched).
fn expected_reductions(world: usize, rank: usize, c: u64) -> Reductions {
    let scattered = seeded_reduce(0..world, BLOCK * world, 2, c);
    let exclusive = match rank {
        0 => input(0, world, 4),
        _ => seeded_reduce(0..rank, BLOCK, 4, c),
    };
    (
        seeded_reduce(0..world, BLOCK, 0, c),
        (rank == 0).then(|| seeded_reduce(0..world, BLOCK, 1, c)),
        scattered[rank * BLOCK..(rank + 1) * BLOCK].to_vec(),
        seeded_reduce(0..=rank, BLOCK, 3, c),
        exclusive,
    )
}

/// Run `program` with the seeded operator on every library × topology and
/// check each rank's [`Reductions`] against the closed form.
fn check_user_op_reductions(
    style: &str,
    program: impl Fn(&Communicator, &Op) -> Reductions + Sync,
) {
    for library in Library::ALL {
        for (nodes, ppn) in TOPOLOGIES {
            let topo = Topology::new(nodes, ppn);
            let op = seeded_op(SEED_C);
            let results =
                World::run_with_profile(topo, library.profile(), |comm| program(comm, &op))
                    .unwrap();
            for (rank, got) in results.into_iter().enumerate() {
                let ctx = format!("{style} on {} {nodes}x{ppn} rank {rank}", library.name());
                let want = expected_reductions(topo.world_size(), rank, SEED_C);
                assert_eq!(got.0, want.0, "allreduce {ctx}");
                assert_eq!(got.1, want.1, "reduce {ctx}");
                assert_eq!(got.2, want.2, "reduce_scatter {ctx}");
                assert_eq!(got.3, want.3, "scan {ctx}");
                assert_eq!(got.4, want.4, "exscan {ctx}");
            }
        }
    }
}

/// Blocking entry style: the five reductions with the seeded operator match
/// the closed form for every library × topology.
#[test]
fn blocking_user_operator_matches_closed_form_everywhere() {
    check_user_op_reductions("blocking", |comm, op| {
        let (rank, world) = (comm.rank(), comm.size());
        let mut all = input(rank, world, 0);
        comm.allreduce(&mut all, op);
        let reduced = comm.reduce(&input(rank, world, 1), op, 0);
        let scattered = comm.reduce_scatter(&input(rank, world, 2), BLOCK, op);
        let mut prefix = input(rank, world, 3);
        comm.scan(&mut prefix, op);
        let mut exclusive = input(rank, world, 4);
        comm.exscan(&mut exclusive, op);
        (all, reduced, scattered, prefix, exclusive)
    });
}

/// Non-blocking entry style: the five seeded requests submitted together
/// and waited in reverse order still match the closed form.
#[test]
fn nonblocking_user_operator_matches_closed_form_everywhere() {
    check_user_op_reductions("non-blocking", |comm, op| {
        let (rank, world) = (comm.rank(), comm.size());
        let r_all = comm.iallreduce(&input(rank, world, 0), op);
        let r_reduced = comm.ireduce(&input(rank, world, 1), op, 0);
        let r_scattered = comm.ireduce_scatter(&input(rank, world, 2), BLOCK, op);
        let r_prefix = comm.iscan(&input(rank, world, 3), op);
        let r_exclusive = comm.iexscan(&input(rank, world, 4), op);
        let exclusive = r_exclusive.wait();
        let prefix = r_prefix.wait();
        let scattered = r_scattered.wait();
        let reduced = r_reduced.wait();
        (r_all.wait(), reduced, scattered, prefix, exclusive)
    });
}

/// Persistent entry style: repeated starts of the five handles with the
/// pinned inputs yield the closed form every round, and the starts never
/// recompile.
#[test]
fn persistent_user_operator_matches_closed_form_and_never_recompiles() {
    check_user_op_reductions("persistent", |comm, op| {
        let (rank, world) = (comm.rank(), comm.size());
        let mut all = comm.allreduce_init(&input(rank, world, 0), op);
        let mut reduced = comm.reduce_init(&input(rank, world, 1), op, 0);
        let mut scattered = comm.reduce_scatter_init(&input(rank, world, 2), BLOCK, op);
        let mut prefix = comm.scan_init(&input(rank, world, 3), op);
        let mut exclusive = comm.exscan_init(&input(rank, world, 4), op);
        let (_, misses_after_init) = comm.plan_stats();
        let mut rounds = Vec::new();
        for round in 0..3 {
            if round > 0 {
                // The in/out buffers hold the previous results; re-pin the
                // inputs, as MPI applications do.
                all.write_send(&input(rank, world, 0));
                prefix.write_send(&input(rank, world, 3));
                exclusive.write_send(&input(rank, world, 4));
            }
            all.start();
            reduced.start();
            scattered.start();
            prefix.start();
            exclusive.start();
            rounds.push((
                all.wait(),
                reduced.wait(),
                scattered.wait(),
                prefix.wait(),
                exclusive.wait(),
            ));
        }
        let (_, misses_after_rounds) = comm.plan_stats();
        assert_eq!(
            misses_after_init, misses_after_rounds,
            "persistent user-operator starts must never recompile"
        );
        assert!(
            rounds.windows(2).all(|w| w[0] == w[1]),
            "rounds differ at rank {rank}"
        );
        rounds.swap_remove(0)
    });
}

/// A user operator applies only to elements of its own width.
#[test]
#[should_panic(expected = "operator element size")]
fn user_operator_rejects_a_datatype_of_another_width() {
    let xor = Op::of_typed::<u32>(|x, y| x ^ y);
    World::builder()
        .nodes(1)
        .ppn(2)
        .run(|comm| comm.allreduce(&mut [1u64, 2], &xor))
        .unwrap();
}

/// Two *distinct* seeded operators used back to back in one world: if their
/// plans aliased (the pre-fix hole — equal element width, equal shape), the
/// second collective would run the first closure's plan.  With different
/// constants the closed forms differ at every element, so aliasing is
/// observable, not silent.
#[test]
fn distinct_seeded_operators_in_one_world_never_cross_results() {
    const C1: u64 = 1_000_003;
    const C2: u64 = 7_777_777;
    for library in Library::ALL {
        let topo = Topology::new(2, 3);
        let world = topo.world_size();
        let op1 = seeded_op(C1);
        let op2 = seeded_op(C2);
        let results = World::run_with_profile(topo, library.profile(), |comm| {
            let rank = comm.rank();
            let mut first = payload_u64(rank, BLOCK, 0);
            comm.allreduce(&mut first, &op1);
            let mut second = payload_u64(rank, BLOCK, 0);
            comm.allreduce(&mut second, &op2);
            // Same shape again with op1: must be a cache hit *of op1's
            // plan*, not op2's.
            let mut third = payload_u64(rank, BLOCK, 0);
            comm.allreduce(&mut third, &op1);
            (first, second, third)
        })
        .unwrap();
        let want1 = seeded_reduce(0..world, BLOCK, 0, C1);
        let want2 = seeded_reduce(0..world, BLOCK, 0, C2);
        assert_ne!(want1, want2, "seeds must separate the closed forms");
        for (rank, (first, second, third)) in results.iter().enumerate() {
            let ctx = format!("{} rank {rank}", library.name());
            assert_eq!(first, &want1, "op1 {ctx}");
            assert_eq!(second, &want2, "op2 {ctx}");
            assert_eq!(third, &want1, "op1 replay {ctx}");
        }
    }
}

// ---------------------------------------------------------------------
// Strided (derived-datatype) allreduce
// ---------------------------------------------------------------------

/// The column-like layout the strided tests use: 3 blocks of 2 elements
/// with stride 5 → extent 12, packed 6.
fn strided_layout() -> Layout {
    Layout::vector(3, 2, 5)
}

/// Expected strided allreduce: the packed positions hold the oracle result,
/// the gaps hold the rank's own submitted values.
fn expected_strided(world: usize, rank: usize, layout: Layout, round: usize) -> Vec<u64> {
    let extent = layout.extent();
    let contributions: Vec<Vec<u64>> = (0..world)
        .map(|r| {
            let full = payload_u64(r, extent, round);
            selected_indices(layout).map(|i| full[i]).collect()
        })
        .collect();
    let reduced = oracle::allreduce_t::<u64>(&contributions, ReduceOp::Sum);
    let mut out = payload_u64(rank, extent, round);
    for (slot, value) in selected_indices(layout).zip(reduced) {
        out[slot] = value;
    }
    out
}

/// Iterator over the element indices a layout selects.
fn selected_indices(layout: Layout) -> impl Iterator<Item = usize> {
    let (count, blocklen, stride) = (layout.count, layout.blocklen, layout.stride);
    (0..count).flat_map(move |b| (0..blocklen).map(move |i| b * stride + i))
}

/// Strided allreduce through all three entry styles: packed positions match
/// the oracle, gap elements survive untouched.
#[test]
fn strided_allreduce_matches_oracle_through_all_entry_styles() {
    let layout = strided_layout();
    for library in Library::ALL {
        for (nodes, ppn) in [(1, 4), (3, 3)] {
            let topo = Topology::new(nodes, ppn);
            let world = topo.world_size();
            let results = World::run_with_profile(topo, library.profile(), |comm| {
                let rank = comm.rank();
                // Blocking, in place.
                let mut blocking = payload_u64(rank, layout.extent(), 0);
                comm.allreduce_strided(&mut blocking, layout, ReduceOp::Sum);
                // Non-blocking.
                let nonblocking = comm
                    .iallreduce_strided(
                        &payload_u64(rank, layout.extent(), 1),
                        layout,
                        ReduceOp::Sum,
                    )
                    .wait();
                // Persistent, two starts of the pinned input.
                let mut handle = comm.allreduce_strided_init(
                    &payload_u64(rank, layout.extent(), 2),
                    layout,
                    ReduceOp::Sum,
                );
                handle.start();
                let persistent_a = handle.wait();
                handle.write_send(&payload_u64(rank, layout.extent(), 2));
                handle.start();
                let persistent_b = handle.wait();
                (blocking, nonblocking, persistent_a, persistent_b)
            })
            .unwrap();
            for (rank, (blocking, nonblocking, pa, pb)) in results.iter().enumerate() {
                let ctx = format!("{} on {nodes}x{ppn} rank {rank}", library.name());
                assert_eq!(
                    blocking,
                    &expected_strided(world, rank, layout, 0),
                    "blocking {ctx}"
                );
                assert_eq!(
                    nonblocking,
                    &expected_strided(world, rank, layout, 1),
                    "non-blocking {ctx}"
                );
                let want = expected_strided(world, rank, layout, 2);
                assert_eq!(pa, &want, "persistent round 0 {ctx}");
                assert_eq!(pb, &want, "persistent round 1 {ctx}");
            }
        }
    }
}

/// The combination surface: a *user* operator over a *strided* buffer.
#[test]
fn strided_allreduce_with_user_operator_matches_closed_form() {
    let layout = strided_layout();
    for library in Library::ALL {
        let topo = Topology::new(2, 3);
        let world = topo.world_size();
        let op = seeded_op(SEED_C);
        let results = World::run_with_profile(topo, library.profile(), |comm| {
            let rank = comm.rank();
            let mut buf = payload_u64(rank, layout.extent(), 0);
            comm.allreduce_strided(&mut buf, layout, &op);
            buf
        })
        .unwrap();
        let extent = layout.extent();
        for (rank, got) in results.iter().enumerate() {
            let mut want = payload_u64(rank, extent, 0);
            for slot in selected_indices(layout) {
                want[slot] =
                    seeded_fold((0..world).map(|r| payload_u64(r, extent, 0)[slot]), SEED_C);
            }
            assert_eq!(got, &want, "{} rank {rank}", library.name());
        }
    }
}

/// Strided point-to-point: a column exchanged via `sendrecv_strided`
/// arrives in the peer's column positions with gaps untouched.
#[test]
fn strided_sendrecv_scatters_into_the_selected_positions() {
    let layout = strided_layout();
    let topo = Topology::new(1, 2);
    let results = World::run_with_profile(topo, Library::PipMColl.profile(), |comm| {
        let rank = comm.rank();
        let peer = 1 - rank;
        let send = payload_u64(rank, layout.extent(), 0);
        let mut recv = vec![u64::MAX; layout.extent()];
        comm.sendrecv_strided(peer, &send, layout, peer, layout, &mut recv, 7);
        recv
    })
    .unwrap();
    for (rank, got) in results.iter().enumerate() {
        let peer_full = payload_u64(1 - rank, layout.extent(), 0);
        for i in 0..layout.extent() {
            if selected_indices(layout).any(|s| s == i) {
                assert_eq!(got[i], peer_full[i], "rank {rank} selected {i}");
            } else {
                assert_eq!(got[i], u64::MAX, "rank {rank} gap {i} must survive");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pack/unpack round trip
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `unpack(pack(src))` restores every selected byte and preserves every
    /// gap byte — across non-power-of-two counts, blocklens and strides,
    /// including the `stride == blocklen` contiguous edge and `count == 0`.
    #[test]
    fn pack_unpack_round_trips_and_preserves_gaps(
        count in 0usize..9,
        blocklen in 1usize..6,
        extra in 0usize..4,
    ) {
        let layout = Layout::vector(count, blocklen, blocklen + extra);
        prop_assert_eq!(layout.is_contiguous(), count <= 1 || extra == 0);

        let src: Vec<u8> = (0..layout.extent()).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect();
        let mut packed = Vec::new();
        layout.pack_bytes(&src, &mut packed);
        prop_assert_eq!(packed.len(), layout.packed_len());
        prop_assert_eq!(layout.packed_len(), count * blocklen);

        // Unpack into a sentinel-filled buffer: selected positions take the
        // packed bytes, gaps keep the sentinel.
        let mut out = vec![0xEEu8; layout.extent()];
        layout.unpack_bytes(&packed, &mut out);
        let mut cursor = 0;
        for block in 0..count {
            for i in 0..blocklen {
                prop_assert_eq!(out[block * (blocklen + extra) + i], packed[cursor]);
                cursor += 1;
            }
        }
        let selected: Vec<usize> = (0..count)
            .flat_map(|b| (0..blocklen).map(move |i| b * (blocklen + extra) + i))
            .collect();
        for i in 0..layout.extent() {
            if selected.contains(&i) {
                prop_assert_eq!(out[i], src[i], "selected byte {} must round-trip", i);
            } else {
                prop_assert_eq!(out[i], 0xEE, "gap byte {} must be preserved", i);
            }
        }

        // And the packed form itself is a fixed point.
        let mut repacked = Vec::new();
        layout.pack_bytes(&out, &mut repacked);
        prop_assert_eq!(repacked, packed);
    }
}
