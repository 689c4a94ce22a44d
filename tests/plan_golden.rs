//! Exec-fidelity compilation is pinned to a golden table: the recorder's
//! provenance recovery may change how it inverts fingerprints, but never
//! which `RankPlan` it emits.
//!
//! Each case compiles one collective shape on every rank of a topology and
//! folds the `Debug` rendering of the rank plans into one FNV-1a hash.  The
//! tables were captured at the commit *before* the fingerprint bijection
//! replaced the per-byte provenance map (PR 14's parent) and have stayed
//! green through every later change of fingerprint key, including the dense
//! location keys that record only as many passes as a plan's bytes need.
//! The cases that push megabytes of fingerprints through the recorder sit in
//! a table of their own, [`GOLDEN_LARGE`] (a few seconds unoptimized).
//! When the plan IR itself changes on purpose, regenerate both with
//!
//! ```text
//! cargo test --release --test plan_golden -- --ignored --nocapture print_golden_table
//! ```
//!
//! A third table, [`LOWERED_GOLDEN`], pins what the simulator replays: the
//! traces schedule-fidelity cluster plans lower to.  It was captured while a
//! second, per-rank recorder still existed and was checked to equal its
//! traces, so it freezes that recorder's output now that lowering is the only
//! way to produce a trace.

use std::fmt::Write;

use pip_mcoll::collectives::plan::Fidelity;
use pip_mcoll::collectives::{CollectiveKind, DtypeId, Layout, ReduceIdent, ReduceOp};
use pip_mcoll::model::plan::{compile_cluster, compile_rank};
use pip_mcoll::model::{CollectiveShape, CompressSpec, Library};
use pip_mcoll::runtime::Topology;

/// FNV-1a over everything written to it: a hash with a fixed definition, so
/// the table does not depend on the standard library's hasher.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

const F32_SUM: ReduceIdent = ReduceIdent::Builtin {
    dtype: DtypeId::F32,
    op: ReduceOp::Sum,
};

fn shape(kind: CollectiveKind, block: usize, root: usize) -> CollectiveShape {
    let reduces = matches!(
        kind,
        CollectiveKind::Allreduce
            | CollectiveKind::Reduce
            | CollectiveKind::ReduceScatter
            | CollectiveKind::Scan
            | CollectiveKind::Exscan
    );
    CollectiveShape {
        kind,
        block,
        root,
        elem_size: if reduces { 4 } else { 1 },
        reduce: reduces.then_some(F32_SUM),
        layout: None,
        compress: None,
    }
}

/// One table entry: the hash of the plans `shape` compiles to on every rank
/// of `topo`.
fn case(name: String, library: Library, topo: Topology, shape: &CollectiveShape) -> (String, u64) {
    let profile = library.profile();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for rank in 0..topo.world_size() {
        let plan = compile_rank(&profile, topo, rank, shape, Fidelity::Exec);
        write!(hash, "{plan:?}").unwrap();
    }
    (name, hash.0)
}

/// `kinds` (those whose element size divides the block) x `blocks` x library
/// x topology, in table order.
fn grid_cases(kinds: &[CollectiveKind], blocks: &[usize]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &kind in kinds {
        for &block in blocks {
            if block % shape(kind, block, 0).elem_size != 0 {
                continue;
            }
            for library in Library::ALL {
                for (nodes, ppn) in [(1, 1), (2, 3), (4, 4)] {
                    let topo = Topology::new(nodes, ppn);
                    // A root in mid-world exercises both sides of every tree.
                    let root = (topo.world_size() - 1) / 2;
                    out.push(case(
                        format!("{kind:?}/{block}/{library:?}/{nodes}x{ppn}"),
                        library,
                        topo,
                        &shape(kind, block, root),
                    ));
                }
            }
        }
    }
    out
}

/// Every collective that moves data.
const DATA_KINDS: [CollectiveKind; 10] = [
    CollectiveKind::Allgather,
    CollectiveKind::Scatter,
    CollectiveKind::Bcast,
    CollectiveKind::Gather,
    CollectiveKind::Allreduce,
    CollectiveKind::Reduce,
    CollectiveKind::ReduceScatter,
    CollectiveKind::Scan,
    CollectiveKind::Exscan,
    CollectiveKind::Alltoall,
];

/// The cases of [`GOLDEN`]: the grid at small blocks, the barrier, and a
/// strided layout (a shape component the grid leaves at `None`).
fn small_cases() -> Vec<(String, u64)> {
    let mut out = grid_cases(&DATA_KINDS, &[1, 4, 64]);
    out.extend(grid_cases(&[CollectiveKind::Barrier], &[0]));
    let strided = CollectiveShape {
        layout: Some(Layout::vector(16, 4, 7)),
        ..shape(CollectiveKind::Allreduce, 16 * 4 * 4, 0)
    };
    out.push(case(
        "Allreduce/strided16x4x7/PipMColl/4x4".to_string(),
        Library::PipMColl,
        Topology::new(4, 4),
        &strided,
    ));
    out
}

/// The cases of [`GOLDEN_LARGE`]: the grid at 4 KiB blocks, the two shapes
/// whose compile cost motivated the bijection (a mebibyte of fingerprints
/// per pass and rank), and a compressed allreduce.
fn large_cases() -> Vec<(String, u64)> {
    let mut out = grid_cases(&DATA_KINDS, &[4096]);
    let topo = Topology::new(4, 4);
    let mcoll = Library::PipMColl;
    for kind in [CollectiveKind::Allgather, CollectiveKind::Allreduce] {
        out.push(case(
            format!("{kind:?}/65536/PipMColl/4x4"),
            mcoll,
            topo,
            &shape(kind, 65536, 0),
        ));
    }
    let compressed = CollectiveShape {
        compress: Some(CompressSpec::from_bound(1e-3, 1024)),
        ..shape(CollectiveKind::Allreduce, 16384, 0)
    };
    out.push(case(
        "Allreduce/compressed16384/PipMColl/4x4".to_string(),
        mcoll,
        topo,
        &compressed,
    ));
    out
}

/// The cases of [`LOWERED_GOLDEN`]: one row per (kind, library), hashing the
/// `Debug` rendering of the trace a 64 B schedule-fidelity plan rooted at
/// the last rank lowers to, with tag base 1, on each of four topologies.
fn lowered_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for kind in CollectiveKind::ALL {
        for library in Library::ALL {
            let profile = library.profile();
            let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
            for (nodes, ppn) in [(2, 3), (3, 3), (4, 3), (5, 2)] {
                let topo = Topology::new(nodes, ppn);
                let shape = CollectiveShape::plain(kind, 64, topo.world_size() - 1);
                let trace = compile_cluster(&profile, topo, &shape, Fidelity::Schedule).to_trace(1);
                write!(hash, "{trace:?}").unwrap();
            }
            out.push((format!("{kind:?}/{library:?}"), hash.0));
        }
    }
    out
}

fn assert_golden(cases: &[(String, u64)], golden: &[(&str, u64)]) {
    assert_eq!(cases.len(), golden.len(), "case list and table differ");
    let wrong: Vec<String> = cases
        .iter()
        .zip(golden)
        .filter(|((name, hash), (gname, ghash))| name != gname || hash != ghash)
        .map(|((name, hash), (gname, ghash))| {
            format!("{name}: {hash:#018x} != {gname}: {ghash:#018x}")
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} plans differ from the golden table:\n{}",
        wrong.len(),
        cases.len(),
        wrong.join("\n")
    );
}

#[test]
fn exec_plans_match_the_golden_table() {
    assert_golden(&small_cases(), GOLDEN);
}

#[test]
fn large_exec_plans_match_the_golden_table() {
    assert_golden(&large_cases(), GOLDEN_LARGE);
}

#[test]
fn lowered_traces_match_the_golden_table() {
    assert_golden(&lowered_cases(), LOWERED_GOLDEN);
}

#[test]
#[ignore = "prints the tables to paste in after a deliberate plan-IR change"]
fn print_golden_table() {
    for (table, cases) in [
        ("GOLDEN", small_cases()),
        ("GOLDEN_LARGE", large_cases()),
        ("LOWERED_GOLDEN", lowered_cases()),
    ] {
        println!("{table}:");
        for (name, hash) in cases {
            println!("    (\"{name}\", {hash:#018x}),");
        }
    }
}

/// Captured at commit bf0c180 (per-byte provenance map), release build.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("Allgather/1/OpenMpi/1x1", 0xd968542cd2541d0e),
    ("Allgather/1/OpenMpi/2x3", 0x4c2a735c834604f5),
    ("Allgather/1/OpenMpi/4x4", 0xc63c85b3601c2976),
    ("Allgather/1/IntelMpi/1x1", 0xd968542cd2541d0e),
    ("Allgather/1/IntelMpi/2x3", 0x4c2a735c834604f5),
    ("Allgather/1/IntelMpi/4x4", 0x63083f68a6bf4917),
    ("Allgather/1/Mvapich2/1x1", 0xd968542cd2541d0e),
    ("Allgather/1/Mvapich2/2x3", 0x4c2a735c834604f5),
    ("Allgather/1/Mvapich2/4x4", 0x63083f68a6bf4917),
    ("Allgather/1/PipMpich/1x1", 0xd968542cd2541d0e),
    ("Allgather/1/PipMpich/2x3", 0x4c2a735c834604f5),
    ("Allgather/1/PipMpich/4x4", 0x63083f68a6bf4917),
    ("Allgather/1/PipMColl/1x1", 0xc20159ee624de0ce),
    ("Allgather/1/PipMColl/2x3", 0x170ea4dfd5dc08ac),
    ("Allgather/1/PipMColl/4x4", 0xac7a119b65dbac03),
    ("Allgather/4/OpenMpi/1x1", 0x3febe7399970ffe1),
    ("Allgather/4/OpenMpi/2x3", 0xc084699451b54e8b),
    ("Allgather/4/OpenMpi/4x4", 0x6d439f927e25a248),
    ("Allgather/4/IntelMpi/1x1", 0x3febe7399970ffe1),
    ("Allgather/4/IntelMpi/2x3", 0xc084699451b54e8b),
    ("Allgather/4/IntelMpi/4x4", 0x0b232e50a3c24c4b),
    ("Allgather/4/Mvapich2/1x1", 0x3febe7399970ffe1),
    ("Allgather/4/Mvapich2/2x3", 0xc084699451b54e8b),
    ("Allgather/4/Mvapich2/4x4", 0x0b232e50a3c24c4b),
    ("Allgather/4/PipMpich/1x1", 0x3febe7399970ffe1),
    ("Allgather/4/PipMpich/2x3", 0xc084699451b54e8b),
    ("Allgather/4/PipMpich/4x4", 0x0b232e50a3c24c4b),
    ("Allgather/4/PipMColl/1x1", 0xe15bb36b8ee26aaf),
    ("Allgather/4/PipMColl/2x3", 0x097107a5bbee07b4),
    ("Allgather/4/PipMColl/4x4", 0x5a369bea1e982f21),
    ("Allgather/64/OpenMpi/1x1", 0x6c35749f38e30da9),
    ("Allgather/64/OpenMpi/2x3", 0x9add24964b8fca6f),
    ("Allgather/64/OpenMpi/4x4", 0xa318dcaff4fcfaf1),
    ("Allgather/64/IntelMpi/1x1", 0x6c35749f38e30da9),
    ("Allgather/64/IntelMpi/2x3", 0x9add24964b8fca6f),
    ("Allgather/64/IntelMpi/4x4", 0xdc83da129075e0a5),
    ("Allgather/64/Mvapich2/1x1", 0x6c35749f38e30da9),
    ("Allgather/64/Mvapich2/2x3", 0x9add24964b8fca6f),
    ("Allgather/64/Mvapich2/4x4", 0xdc83da129075e0a5),
    ("Allgather/64/PipMpich/1x1", 0x6c35749f38e30da9),
    ("Allgather/64/PipMpich/2x3", 0x9add24964b8fca6f),
    ("Allgather/64/PipMpich/4x4", 0xdc83da129075e0a5),
    ("Allgather/64/PipMColl/1x1", 0xa6940421b43d5bf7),
    ("Allgather/64/PipMColl/2x3", 0x0f005f441e04caf3),
    ("Allgather/64/PipMColl/4x4", 0x5ccc6270f218a09d),
    ("Scatter/1/OpenMpi/1x1", 0xd968542cd2541d0e),
    ("Scatter/1/OpenMpi/2x3", 0x62563d4686be7729),
    ("Scatter/1/OpenMpi/4x4", 0xba049e4b3281dbdc),
    ("Scatter/1/IntelMpi/1x1", 0xd968542cd2541d0e),
    ("Scatter/1/IntelMpi/2x3", 0x62563d4686be7729),
    ("Scatter/1/IntelMpi/4x4", 0xba049e4b3281dbdc),
    ("Scatter/1/Mvapich2/1x1", 0x189de1873a1542a3),
    ("Scatter/1/Mvapich2/2x3", 0xfe981fe2d06b374d),
    ("Scatter/1/Mvapich2/4x4", 0x3577b335852cd439),
    ("Scatter/1/PipMpich/1x1", 0xd968542cd2541d0e),
    ("Scatter/1/PipMpich/2x3", 0x62563d4686be7729),
    ("Scatter/1/PipMpich/4x4", 0xba049e4b3281dbdc),
    ("Scatter/1/PipMColl/1x1", 0xdf025eb1be2abde1),
    ("Scatter/1/PipMColl/2x3", 0xde89892151d48adb),
    ("Scatter/1/PipMColl/4x4", 0x862433bf5a11312a),
    ("Scatter/4/OpenMpi/1x1", 0x3febe7399970ffe1),
    ("Scatter/4/OpenMpi/2x3", 0xcc4273c7fb38e241),
    ("Scatter/4/OpenMpi/4x4", 0xdfc26e6f3935d1f6),
    ("Scatter/4/IntelMpi/1x1", 0x3febe7399970ffe1),
    ("Scatter/4/IntelMpi/2x3", 0xcc4273c7fb38e241),
    ("Scatter/4/IntelMpi/4x4", 0xdfc26e6f3935d1f6),
    ("Scatter/4/Mvapich2/1x1", 0x7ef5161cd375ddb2),
    ("Scatter/4/Mvapich2/2x3", 0xa9ca3f1006e424e9),
    ("Scatter/4/Mvapich2/4x4", 0x3f1d254e0d9b4def),
    ("Scatter/4/PipMpich/1x1", 0x3febe7399970ffe1),
    ("Scatter/4/PipMpich/2x3", 0xcc4273c7fb38e241),
    ("Scatter/4/PipMpich/4x4", 0xdfc26e6f3935d1f6),
    ("Scatter/4/PipMColl/1x1", 0x8d62981e5b85f0eb),
    ("Scatter/4/PipMColl/2x3", 0xcd3d0cbedc3c5e43),
    ("Scatter/4/PipMColl/4x4", 0x673725f66d271095),
    ("Scatter/64/OpenMpi/1x1", 0x6c35749f38e30da9),
    ("Scatter/64/OpenMpi/2x3", 0x2f8426eb3bfd933b),
    ("Scatter/64/OpenMpi/4x4", 0x23263cd8bcb2ad4d),
    ("Scatter/64/IntelMpi/1x1", 0x6c35749f38e30da9),
    ("Scatter/64/IntelMpi/2x3", 0x2f8426eb3bfd933b),
    ("Scatter/64/IntelMpi/4x4", 0x23263cd8bcb2ad4d),
    ("Scatter/64/Mvapich2/1x1", 0x2370493eb4ebac58),
    ("Scatter/64/Mvapich2/2x3", 0xf5474a34966e225e),
    ("Scatter/64/Mvapich2/4x4", 0x8d2dee9fc9d271eb),
    ("Scatter/64/PipMpich/1x1", 0x6c35749f38e30da9),
    ("Scatter/64/PipMpich/2x3", 0x2f8426eb3bfd933b),
    ("Scatter/64/PipMpich/4x4", 0x23263cd8bcb2ad4d),
    ("Scatter/64/PipMColl/1x1", 0x9e21cdec2ca003e9),
    ("Scatter/64/PipMColl/2x3", 0xe049727ddac430a9),
    ("Scatter/64/PipMColl/4x4", 0x0642b356980c6dbb),
    ("Bcast/1/OpenMpi/1x1", 0xe407a7effe509ba3),
    ("Bcast/1/OpenMpi/2x3", 0x3f4d7a31f6b6d221),
    ("Bcast/1/OpenMpi/4x4", 0xc04b585d75550940),
    ("Bcast/1/IntelMpi/1x1", 0xf8d1ea5f77b7c15e),
    ("Bcast/1/IntelMpi/2x3", 0xd353bc147cf8a614),
    ("Bcast/1/IntelMpi/4x4", 0xe117041e169613a7),
    ("Bcast/1/Mvapich2/1x1", 0xf8d1ea5f77b7c15e),
    ("Bcast/1/Mvapich2/2x3", 0xd353bc147cf8a614),
    ("Bcast/1/Mvapich2/4x4", 0xe117041e169613a7),
    ("Bcast/1/PipMpich/1x1", 0xe407a7effe509ba3),
    ("Bcast/1/PipMpich/2x3", 0x3f4d7a31f6b6d221),
    ("Bcast/1/PipMpich/4x4", 0xc04b585d75550940),
    ("Bcast/1/PipMColl/1x1", 0x8687ac1f48c8188e),
    ("Bcast/1/PipMColl/2x3", 0xb963d0fb98005d5d),
    ("Bcast/1/PipMColl/4x4", 0x39c90b82cbf0c94c),
    ("Bcast/4/OpenMpi/1x1", 0xace053591ed1834c),
    ("Bcast/4/OpenMpi/2x3", 0x11328b14deaca8a5),
    ("Bcast/4/OpenMpi/4x4", 0xa728e68b566a65ac),
    ("Bcast/4/IntelMpi/1x1", 0x45a950b81980e26f),
    ("Bcast/4/IntelMpi/2x3", 0x9893ad095ad0ef56),
    ("Bcast/4/IntelMpi/4x4", 0xcd4f9544b4c00f93),
    ("Bcast/4/Mvapich2/1x1", 0x45a950b81980e26f),
    ("Bcast/4/Mvapich2/2x3", 0x9893ad095ad0ef56),
    ("Bcast/4/Mvapich2/4x4", 0xcd4f9544b4c00f93),
    ("Bcast/4/PipMpich/1x1", 0xace053591ed1834c),
    ("Bcast/4/PipMpich/2x3", 0x11328b14deaca8a5),
    ("Bcast/4/PipMpich/4x4", 0xa728e68b566a65ac),
    ("Bcast/4/PipMColl/1x1", 0xab0d75de85dd6ec2),
    ("Bcast/4/PipMColl/2x3", 0xa9bd72bd92818bea),
    ("Bcast/4/PipMColl/4x4", 0xaad9b3e38e367e43),
    ("Bcast/64/OpenMpi/1x1", 0x935cb17e73b33f20),
    ("Bcast/64/OpenMpi/2x3", 0xeceb99e08e8b33f3),
    ("Bcast/64/OpenMpi/4x4", 0x1ca3aafb6666307e),
    ("Bcast/64/IntelMpi/1x1", 0x1c6d94a8f2abae1d),
    ("Bcast/64/IntelMpi/2x3", 0xbe9a57bf106b265e),
    ("Bcast/64/IntelMpi/4x4", 0x17ca5ae81dfdec7b),
    ("Bcast/64/Mvapich2/1x1", 0x1c6d94a8f2abae1d),
    ("Bcast/64/Mvapich2/2x3", 0xbe9a57bf106b265e),
    ("Bcast/64/Mvapich2/4x4", 0x17ca5ae81dfdec7b),
    ("Bcast/64/PipMpich/1x1", 0x935cb17e73b33f20),
    ("Bcast/64/PipMpich/2x3", 0xeceb99e08e8b33f3),
    ("Bcast/64/PipMpich/4x4", 0x1ca3aafb6666307e),
    ("Bcast/64/PipMColl/1x1", 0xbabb4c47f82c89bc),
    ("Bcast/64/PipMColl/2x3", 0x3dadf157e920368c),
    ("Bcast/64/PipMColl/4x4", 0xb0c0021b39cf8ffb),
    ("Gather/1/OpenMpi/1x1", 0xd968542cd2541d0e),
    ("Gather/1/OpenMpi/2x3", 0xabd2e5ea4664f5dd),
    ("Gather/1/OpenMpi/4x4", 0xf4347e0381d73249),
    ("Gather/1/IntelMpi/1x1", 0xd968542cd2541d0e),
    ("Gather/1/IntelMpi/2x3", 0xabd2e5ea4664f5dd),
    ("Gather/1/IntelMpi/4x4", 0xf4347e0381d73249),
    ("Gather/1/Mvapich2/1x1", 0xd968542cd2541d0e),
    ("Gather/1/Mvapich2/2x3", 0xabd2e5ea4664f5dd),
    ("Gather/1/Mvapich2/4x4", 0xf4347e0381d73249),
    ("Gather/1/PipMpich/1x1", 0xd968542cd2541d0e),
    ("Gather/1/PipMpich/2x3", 0xabd2e5ea4664f5dd),
    ("Gather/1/PipMpich/4x4", 0xf4347e0381d73249),
    ("Gather/1/PipMColl/1x1", 0xfe706cd61b73c509),
    ("Gather/1/PipMColl/2x3", 0xa025f375fafa2493),
    ("Gather/1/PipMColl/4x4", 0xdfd81164fe593b75),
    ("Gather/4/OpenMpi/1x1", 0x3febe7399970ffe1),
    ("Gather/4/OpenMpi/2x3", 0x8f8187242d3d9077),
    ("Gather/4/OpenMpi/4x4", 0xe9e3672d926396cc),
    ("Gather/4/IntelMpi/1x1", 0x3febe7399970ffe1),
    ("Gather/4/IntelMpi/2x3", 0x8f8187242d3d9077),
    ("Gather/4/IntelMpi/4x4", 0xe9e3672d926396cc),
    ("Gather/4/Mvapich2/1x1", 0x3febe7399970ffe1),
    ("Gather/4/Mvapich2/2x3", 0x8f8187242d3d9077),
    ("Gather/4/Mvapich2/4x4", 0xe9e3672d926396cc),
    ("Gather/4/PipMpich/1x1", 0x3febe7399970ffe1),
    ("Gather/4/PipMpich/2x3", 0x8f8187242d3d9077),
    ("Gather/4/PipMpich/4x4", 0xe9e3672d926396cc),
    ("Gather/4/PipMColl/1x1", 0x8800aa38b33c6598),
    ("Gather/4/PipMColl/2x3", 0x2dc552f29f2216fd),
    ("Gather/4/PipMColl/4x4", 0x3ecd2b4183de21e7),
    ("Gather/64/OpenMpi/1x1", 0x6c35749f38e30da9),
    ("Gather/64/OpenMpi/2x3", 0x5a27c8bc733cfc1f),
    ("Gather/64/OpenMpi/4x4", 0xa24261d9d8ec9d2e),
    ("Gather/64/IntelMpi/1x1", 0x6c35749f38e30da9),
    ("Gather/64/IntelMpi/2x3", 0x5a27c8bc733cfc1f),
    ("Gather/64/IntelMpi/4x4", 0xa24261d9d8ec9d2e),
    ("Gather/64/Mvapich2/1x1", 0x6c35749f38e30da9),
    ("Gather/64/Mvapich2/2x3", 0x5a27c8bc733cfc1f),
    ("Gather/64/Mvapich2/4x4", 0xa24261d9d8ec9d2e),
    ("Gather/64/PipMpich/1x1", 0x6c35749f38e30da9),
    ("Gather/64/PipMpich/2x3", 0x5a27c8bc733cfc1f),
    ("Gather/64/PipMpich/4x4", 0xa24261d9d8ec9d2e),
    ("Gather/64/PipMColl/1x1", 0xdca5bf4e4595b3ae),
    ("Gather/64/PipMColl/2x3", 0x8324c621c05ba8e6),
    ("Gather/64/PipMColl/4x4", 0x5b28f034193e3174),
    ("Allreduce/4/OpenMpi/1x1", 0xace053591ed1834c),
    ("Allreduce/4/OpenMpi/2x3", 0x8b82f6f218413478),
    ("Allreduce/4/OpenMpi/4x4", 0x38834d413e839295),
    ("Allreduce/4/IntelMpi/1x1", 0xace053591ed1834c),
    ("Allreduce/4/IntelMpi/2x3", 0x8b82f6f218413478),
    ("Allreduce/4/IntelMpi/4x4", 0x38834d413e839295),
    ("Allreduce/4/Mvapich2/1x1", 0xf7c12b9d84f06ba8),
    ("Allreduce/4/Mvapich2/2x3", 0xa53f93cc4dcb8928),
    ("Allreduce/4/Mvapich2/4x4", 0x3bd5262dd9f872f9),
    ("Allreduce/4/PipMpich/1x1", 0xace053591ed1834c),
    ("Allreduce/4/PipMpich/2x3", 0x8b82f6f218413478),
    ("Allreduce/4/PipMpich/4x4", 0x38834d413e839295),
    ("Allreduce/4/PipMColl/1x1", 0xc49b7ffcd0bafac7),
    ("Allreduce/4/PipMColl/2x3", 0x22efdefe11300cba),
    ("Allreduce/4/PipMColl/4x4", 0x308945fc70806ecd),
    ("Allreduce/64/OpenMpi/1x1", 0x935cb17e73b33f20),
    ("Allreduce/64/OpenMpi/2x3", 0x8429978f075b4f04),
    ("Allreduce/64/OpenMpi/4x4", 0x60eea18c6f2a7369),
    ("Allreduce/64/IntelMpi/1x1", 0x935cb17e73b33f20),
    ("Allreduce/64/IntelMpi/2x3", 0x8429978f075b4f04),
    ("Allreduce/64/IntelMpi/4x4", 0x60eea18c6f2a7369),
    ("Allreduce/64/Mvapich2/1x1", 0x0e36b423623a6084),
    ("Allreduce/64/Mvapich2/2x3", 0x446fd093f762688c),
    ("Allreduce/64/Mvapich2/4x4", 0x5b9f7dff91c4477b),
    ("Allreduce/64/PipMpich/1x1", 0x935cb17e73b33f20),
    ("Allreduce/64/PipMpich/2x3", 0x8429978f075b4f04),
    ("Allreduce/64/PipMpich/4x4", 0x60eea18c6f2a7369),
    ("Allreduce/64/PipMColl/1x1", 0x93816f52293ca913),
    ("Allreduce/64/PipMColl/2x3", 0x195d520382704fac),
    ("Allreduce/64/PipMColl/4x4", 0xaeca91bef35f1dff),
    ("Reduce/4/OpenMpi/1x1", 0x3febe7399970ffe1),
    ("Reduce/4/OpenMpi/2x3", 0xfe16f28d21eaab4d),
    ("Reduce/4/OpenMpi/4x4", 0x094f6eb56d88206a),
    ("Reduce/4/IntelMpi/1x1", 0x3febe7399970ffe1),
    ("Reduce/4/IntelMpi/2x3", 0xfe16f28d21eaab4d),
    ("Reduce/4/IntelMpi/4x4", 0x094f6eb56d88206a),
    ("Reduce/4/Mvapich2/1x1", 0x3febe7399970ffe1),
    ("Reduce/4/Mvapich2/2x3", 0xfe16f28d21eaab4d),
    ("Reduce/4/Mvapich2/4x4", 0x094f6eb56d88206a),
    ("Reduce/4/PipMpich/1x1", 0x3febe7399970ffe1),
    ("Reduce/4/PipMpich/2x3", 0xfe16f28d21eaab4d),
    ("Reduce/4/PipMpich/4x4", 0x094f6eb56d88206a),
    ("Reduce/4/PipMColl/1x1", 0x2908b98ee4076820),
    ("Reduce/4/PipMColl/2x3", 0xe5e00c36b41a619e),
    ("Reduce/4/PipMColl/4x4", 0x8f2b9ede7c6444df),
    ("Reduce/64/OpenMpi/1x1", 0x6c35749f38e30da9),
    ("Reduce/64/OpenMpi/2x3", 0xb6f46d2e4f2d3815),
    ("Reduce/64/OpenMpi/4x4", 0xc1d9ef4f034287d0),
    ("Reduce/64/IntelMpi/1x1", 0x6c35749f38e30da9),
    ("Reduce/64/IntelMpi/2x3", 0xb6f46d2e4f2d3815),
    ("Reduce/64/IntelMpi/4x4", 0xc1d9ef4f034287d0),
    ("Reduce/64/Mvapich2/1x1", 0x6c35749f38e30da9),
    ("Reduce/64/Mvapich2/2x3", 0xb6f46d2e4f2d3815),
    ("Reduce/64/Mvapich2/4x4", 0xc1d9ef4f034287d0),
    ("Reduce/64/PipMpich/1x1", 0x6c35749f38e30da9),
    ("Reduce/64/PipMpich/2x3", 0xb6f46d2e4f2d3815),
    ("Reduce/64/PipMpich/4x4", 0xc1d9ef4f034287d0),
    ("Reduce/64/PipMColl/1x1", 0xb831471d201dcf12),
    ("Reduce/64/PipMColl/2x3", 0xaf08e13007fd56e3),
    ("Reduce/64/PipMColl/4x4", 0xfdca64e61b96cf01),
    ("ReduceScatter/4/OpenMpi/1x1", 0x3febe7399970ffe1),
    ("ReduceScatter/4/OpenMpi/2x3", 0xe530f6e58fb7d23a),
    ("ReduceScatter/4/OpenMpi/4x4", 0xfba8034244ce886f),
    ("ReduceScatter/4/IntelMpi/1x1", 0x3febe7399970ffe1),
    ("ReduceScatter/4/IntelMpi/2x3", 0xe530f6e58fb7d23a),
    ("ReduceScatter/4/IntelMpi/4x4", 0xfba8034244ce886f),
    ("ReduceScatter/4/Mvapich2/1x1", 0x3febe7399970ffe1),
    ("ReduceScatter/4/Mvapich2/2x3", 0xe530f6e58fb7d23a),
    ("ReduceScatter/4/Mvapich2/4x4", 0xfba8034244ce886f),
    ("ReduceScatter/4/PipMpich/1x1", 0x3febe7399970ffe1),
    ("ReduceScatter/4/PipMpich/2x3", 0xe530f6e58fb7d23a),
    ("ReduceScatter/4/PipMpich/4x4", 0xfba8034244ce886f),
    ("ReduceScatter/4/PipMColl/1x1", 0x4c23bee0fff50fac),
    ("ReduceScatter/4/PipMColl/2x3", 0x90a7261db07ef44c),
    ("ReduceScatter/4/PipMColl/4x4", 0xfdfdf3aac21cdca5),
    ("ReduceScatter/64/OpenMpi/1x1", 0x6c35749f38e30da9),
    ("ReduceScatter/64/OpenMpi/2x3", 0x5f4dd38b3eae5a0c),
    ("ReduceScatter/64/OpenMpi/4x4", 0xc68e17c213137e4f),
    ("ReduceScatter/64/IntelMpi/1x1", 0x6c35749f38e30da9),
    ("ReduceScatter/64/IntelMpi/2x3", 0x5f4dd38b3eae5a0c),
    ("ReduceScatter/64/IntelMpi/4x4", 0xc68e17c213137e4f),
    ("ReduceScatter/64/Mvapich2/1x1", 0x6c35749f38e30da9),
    ("ReduceScatter/64/Mvapich2/2x3", 0x5f4dd38b3eae5a0c),
    ("ReduceScatter/64/Mvapich2/4x4", 0xc68e17c213137e4f),
    ("ReduceScatter/64/PipMpich/1x1", 0x6c35749f38e30da9),
    ("ReduceScatter/64/PipMpich/2x3", 0x5f4dd38b3eae5a0c),
    ("ReduceScatter/64/PipMpich/4x4", 0xc68e17c213137e4f),
    ("ReduceScatter/64/PipMColl/1x1", 0x88b17119f4e0ddae),
    ("ReduceScatter/64/PipMColl/2x3", 0x0a56886296dea726),
    ("ReduceScatter/64/PipMColl/4x4", 0xb0e3960ae85e0bc3),
    ("Scan/4/OpenMpi/1x1", 0xace053591ed1834c),
    ("Scan/4/OpenMpi/2x3", 0xf901912e79195962),
    ("Scan/4/OpenMpi/4x4", 0x0cd3e328e73012bc),
    ("Scan/4/IntelMpi/1x1", 0xace053591ed1834c),
    ("Scan/4/IntelMpi/2x3", 0x2ec3cfa1a2139b4a),
    ("Scan/4/IntelMpi/4x4", 0xf4b8213951a859d2),
    ("Scan/4/Mvapich2/1x1", 0xace053591ed1834c),
    ("Scan/4/Mvapich2/2x3", 0x2ec3cfa1a2139b4a),
    ("Scan/4/Mvapich2/4x4", 0xf4b8213951a859d2),
    ("Scan/4/PipMpich/1x1", 0xace053591ed1834c),
    ("Scan/4/PipMpich/2x3", 0x2ec3cfa1a2139b4a),
    ("Scan/4/PipMpich/4x4", 0xf4b8213951a859d2),
    ("Scan/4/PipMColl/1x1", 0xace053591ed1834c),
    ("Scan/4/PipMColl/2x3", 0x2ec3cfa1a2139b4a),
    ("Scan/4/PipMColl/4x4", 0xf4b8213951a859d2),
    ("Scan/64/OpenMpi/1x1", 0x935cb17e73b33f20),
    ("Scan/64/OpenMpi/2x3", 0x5cf7c352fae5023a),
    ("Scan/64/OpenMpi/4x4", 0x4a209ade9f53be7e),
    ("Scan/64/IntelMpi/1x1", 0x935cb17e73b33f20),
    ("Scan/64/IntelMpi/2x3", 0x217bc2269656e9a4),
    ("Scan/64/IntelMpi/4x4", 0x45e2034dfdbf0f96),
    ("Scan/64/Mvapich2/1x1", 0x935cb17e73b33f20),
    ("Scan/64/Mvapich2/2x3", 0x217bc2269656e9a4),
    ("Scan/64/Mvapich2/4x4", 0x45e2034dfdbf0f96),
    ("Scan/64/PipMpich/1x1", 0x935cb17e73b33f20),
    ("Scan/64/PipMpich/2x3", 0x217bc2269656e9a4),
    ("Scan/64/PipMpich/4x4", 0x45e2034dfdbf0f96),
    ("Scan/64/PipMColl/1x1", 0x935cb17e73b33f20),
    ("Scan/64/PipMColl/2x3", 0x217bc2269656e9a4),
    ("Scan/64/PipMColl/4x4", 0x45e2034dfdbf0f96),
    ("Exscan/4/OpenMpi/1x1", 0xace053591ed1834c),
    ("Exscan/4/OpenMpi/2x3", 0x6409cd258caac72b),
    ("Exscan/4/OpenMpi/4x4", 0xaaa8eef35cf9c1b9),
    ("Exscan/4/IntelMpi/1x1", 0xace053591ed1834c),
    ("Exscan/4/IntelMpi/2x3", 0x9bd979fa3b700c68),
    ("Exscan/4/IntelMpi/4x4", 0x049d5ffa77d7ae73),
    ("Exscan/4/Mvapich2/1x1", 0xace053591ed1834c),
    ("Exscan/4/Mvapich2/2x3", 0x9bd979fa3b700c68),
    ("Exscan/4/Mvapich2/4x4", 0x049d5ffa77d7ae73),
    ("Exscan/4/PipMpich/1x1", 0xace053591ed1834c),
    ("Exscan/4/PipMpich/2x3", 0x9bd979fa3b700c68),
    ("Exscan/4/PipMpich/4x4", 0x049d5ffa77d7ae73),
    ("Exscan/4/PipMColl/1x1", 0xace053591ed1834c),
    ("Exscan/4/PipMColl/2x3", 0x9bd979fa3b700c68),
    ("Exscan/4/PipMColl/4x4", 0x049d5ffa77d7ae73),
    ("Exscan/64/OpenMpi/1x1", 0x935cb17e73b33f20),
    ("Exscan/64/OpenMpi/2x3", 0x2157f46b39ae7715),
    ("Exscan/64/OpenMpi/4x4", 0x86876e2d290e86bb),
    ("Exscan/64/IntelMpi/1x1", 0x935cb17e73b33f20),
    ("Exscan/64/IntelMpi/2x3", 0x062bf95b1b0ba35c),
    ("Exscan/64/IntelMpi/4x4", 0xb85deb91e8ffe797),
    ("Exscan/64/Mvapich2/1x1", 0x935cb17e73b33f20),
    ("Exscan/64/Mvapich2/2x3", 0x062bf95b1b0ba35c),
    ("Exscan/64/Mvapich2/4x4", 0xb85deb91e8ffe797),
    ("Exscan/64/PipMpich/1x1", 0x935cb17e73b33f20),
    ("Exscan/64/PipMpich/2x3", 0x062bf95b1b0ba35c),
    ("Exscan/64/PipMpich/4x4", 0xb85deb91e8ffe797),
    ("Exscan/64/PipMColl/1x1", 0x935cb17e73b33f20),
    ("Exscan/64/PipMColl/2x3", 0x062bf95b1b0ba35c),
    ("Exscan/64/PipMColl/4x4", 0xb85deb91e8ffe797),
    ("Alltoall/1/OpenMpi/1x1", 0xd968542cd2541d0e),
    ("Alltoall/1/OpenMpi/2x3", 0x45235d901951062e),
    ("Alltoall/1/OpenMpi/4x4", 0xe9d18fa4a48819a5),
    ("Alltoall/1/IntelMpi/1x1", 0xd968542cd2541d0e),
    ("Alltoall/1/IntelMpi/2x3", 0x45235d901951062e),
    ("Alltoall/1/IntelMpi/4x4", 0xe9d18fa4a48819a5),
    ("Alltoall/1/Mvapich2/1x1", 0xd968542cd2541d0e),
    ("Alltoall/1/Mvapich2/2x3", 0x45235d901951062e),
    ("Alltoall/1/Mvapich2/4x4", 0xe9d18fa4a48819a5),
    ("Alltoall/1/PipMpich/1x1", 0xd968542cd2541d0e),
    ("Alltoall/1/PipMpich/2x3", 0x45235d901951062e),
    ("Alltoall/1/PipMpich/4x4", 0xe9d18fa4a48819a5),
    ("Alltoall/1/PipMColl/1x1", 0x1823e881d2169838),
    ("Alltoall/1/PipMColl/2x3", 0xe872ce02421e51fc),
    ("Alltoall/1/PipMColl/4x4", 0xd2fc3e7183111fdb),
    ("Alltoall/4/OpenMpi/1x1", 0x3febe7399970ffe1),
    ("Alltoall/4/OpenMpi/2x3", 0xad803ae11e6f92ca),
    ("Alltoall/4/OpenMpi/4x4", 0x4f9b1c0a074f4fcf),
    ("Alltoall/4/IntelMpi/1x1", 0x3febe7399970ffe1),
    ("Alltoall/4/IntelMpi/2x3", 0xad803ae11e6f92ca),
    ("Alltoall/4/IntelMpi/4x4", 0x4f9b1c0a074f4fcf),
    ("Alltoall/4/Mvapich2/1x1", 0x3febe7399970ffe1),
    ("Alltoall/4/Mvapich2/2x3", 0xad803ae11e6f92ca),
    ("Alltoall/4/Mvapich2/4x4", 0x4f9b1c0a074f4fcf),
    ("Alltoall/4/PipMpich/1x1", 0x3febe7399970ffe1),
    ("Alltoall/4/PipMpich/2x3", 0xad803ae11e6f92ca),
    ("Alltoall/4/PipMpich/4x4", 0x4f9b1c0a074f4fcf),
    ("Alltoall/4/PipMColl/1x1", 0x47da23269d22c7bf),
    ("Alltoall/4/PipMColl/2x3", 0x58e31aaf8cf4d7cf),
    ("Alltoall/4/PipMColl/4x4", 0x9890db39028f7f81),
    ("Alltoall/64/OpenMpi/1x1", 0x6c35749f38e30da9),
    ("Alltoall/64/OpenMpi/2x3", 0x2bcc35a03283f1ac),
    ("Alltoall/64/OpenMpi/4x4", 0xa63e129d69e96e03),
    ("Alltoall/64/IntelMpi/1x1", 0x6c35749f38e30da9),
    ("Alltoall/64/IntelMpi/2x3", 0x2bcc35a03283f1ac),
    ("Alltoall/64/IntelMpi/4x4", 0xa63e129d69e96e03),
    ("Alltoall/64/Mvapich2/1x1", 0x6c35749f38e30da9),
    ("Alltoall/64/Mvapich2/2x3", 0x2bcc35a03283f1ac),
    ("Alltoall/64/Mvapich2/4x4", 0xa63e129d69e96e03),
    ("Alltoall/64/PipMpich/1x1", 0x6c35749f38e30da9),
    ("Alltoall/64/PipMpich/2x3", 0x2bcc35a03283f1ac),
    ("Alltoall/64/PipMpich/4x4", 0xa63e129d69e96e03),
    ("Alltoall/64/PipMColl/1x1", 0xd40266fdf9aef11f),
    ("Alltoall/64/PipMColl/2x3", 0xd3af23add694341f),
    ("Alltoall/64/PipMColl/4x4", 0xde5bff2e64b0bdbd),
    ("Barrier/0/OpenMpi/1x1", 0xf5b16b62b08991be),
    ("Barrier/0/OpenMpi/2x3", 0x74e6d5fb22956bb6),
    ("Barrier/0/OpenMpi/4x4", 0x198c81fec7738be7),
    ("Barrier/0/IntelMpi/1x1", 0xf5b16b62b08991be),
    ("Barrier/0/IntelMpi/2x3", 0x74e6d5fb22956bb6),
    ("Barrier/0/IntelMpi/4x4", 0x198c81fec7738be7),
    ("Barrier/0/Mvapich2/1x1", 0xf5b16b62b08991be),
    ("Barrier/0/Mvapich2/2x3", 0x74e6d5fb22956bb6),
    ("Barrier/0/Mvapich2/4x4", 0x198c81fec7738be7),
    ("Barrier/0/PipMpich/1x1", 0xf5b16b62b08991be),
    ("Barrier/0/PipMpich/2x3", 0x74e6d5fb22956bb6),
    ("Barrier/0/PipMpich/4x4", 0x198c81fec7738be7),
    ("Barrier/0/PipMColl/1x1", 0xf5b16b62b08991be),
    ("Barrier/0/PipMColl/2x3", 0x74e6d5fb22956bb6),
    ("Barrier/0/PipMColl/4x4", 0x198c81fec7738be7),
    ("Allreduce/strided16x4x7/PipMColl/4x4", 0x0c555c7595f4b3f9),
];

/// Captured at commit bf0c180 (per-byte provenance map), release build.  The
/// compressed row was re-captured when the dual-quantization codec replaced
/// the Lorenzo one: only its `wire_bytes` (the calibrated frame size) moved.
#[rustfmt::skip]
const GOLDEN_LARGE: &[(&str, u64)] = &[
    ("Allgather/4096/OpenMpi/1x1", 0xc739b539f7fc12e6),
    ("Allgather/4096/OpenMpi/2x3", 0x7e9deec8d14b53e5),
    ("Allgather/4096/OpenMpi/4x4", 0x0511e0fdb001a1f9),
    ("Allgather/4096/IntelMpi/1x1", 0xc739b539f7fc12e6),
    ("Allgather/4096/IntelMpi/2x3", 0x7e9deec8d14b53e5),
    ("Allgather/4096/IntelMpi/4x4", 0xdb8039b84e630a5d),
    ("Allgather/4096/Mvapich2/1x1", 0xc739b539f7fc12e6),
    ("Allgather/4096/Mvapich2/2x3", 0x7e9deec8d14b53e5),
    ("Allgather/4096/Mvapich2/4x4", 0xdb8039b84e630a5d),
    ("Allgather/4096/PipMpich/1x1", 0xc739b539f7fc12e6),
    ("Allgather/4096/PipMpich/2x3", 0x7e9deec8d14b53e5),
    ("Allgather/4096/PipMpich/4x4", 0xdb8039b84e630a5d),
    ("Allgather/4096/PipMColl/1x1", 0x9467debf4f90ec5e),
    ("Allgather/4096/PipMColl/2x3", 0x332c29a96888f2f4),
    ("Allgather/4096/PipMColl/4x4", 0xf6da269fd0a1e9f5),
    ("Scatter/4096/OpenMpi/1x1", 0xc739b539f7fc12e6),
    ("Scatter/4096/OpenMpi/2x3", 0x51766416b3eb5179),
    ("Scatter/4096/OpenMpi/4x4", 0x10c908e13458ed81),
    ("Scatter/4096/IntelMpi/1x1", 0xc739b539f7fc12e6),
    ("Scatter/4096/IntelMpi/2x3", 0x51766416b3eb5179),
    ("Scatter/4096/IntelMpi/4x4", 0x10c908e13458ed81),
    ("Scatter/4096/Mvapich2/1x1", 0x30750a454041a7e1),
    ("Scatter/4096/Mvapich2/2x3", 0x2353fca638152ef9),
    ("Scatter/4096/Mvapich2/4x4", 0xd359cd214b4ddc19),
    ("Scatter/4096/PipMpich/1x1", 0xc739b539f7fc12e6),
    ("Scatter/4096/PipMpich/2x3", 0x51766416b3eb5179),
    ("Scatter/4096/PipMpich/4x4", 0x10c908e13458ed81),
    ("Scatter/4096/PipMColl/1x1", 0xc4b75de122fa4165),
    ("Scatter/4096/PipMColl/2x3", 0x23eda7bcd2f9a531),
    ("Scatter/4096/PipMColl/4x4", 0x2e39bdcfd3d5c47d),
    ("Bcast/4096/OpenMpi/1x1", 0xf479df99edaa60b9),
    ("Bcast/4096/OpenMpi/2x3", 0xb3424b8659613c61),
    ("Bcast/4096/OpenMpi/4x4", 0x244c25123eef246a),
    ("Bcast/4096/IntelMpi/1x1", 0xf179206b92187ffc),
    ("Bcast/4096/IntelMpi/2x3", 0x073cc8ca7ba7a6f2),
    ("Bcast/4096/IntelMpi/4x4", 0xe6b74326a765a873),
    ("Bcast/4096/Mvapich2/1x1", 0xf179206b92187ffc),
    ("Bcast/4096/Mvapich2/2x3", 0x073cc8ca7ba7a6f2),
    ("Bcast/4096/Mvapich2/4x4", 0xe6b74326a765a873),
    ("Bcast/4096/PipMpich/1x1", 0xf479df99edaa60b9),
    ("Bcast/4096/PipMpich/2x3", 0xb3424b8659613c61),
    ("Bcast/4096/PipMpich/4x4", 0x244c25123eef246a),
    ("Bcast/4096/PipMColl/1x1", 0x7bb5128829568c36),
    ("Bcast/4096/PipMColl/2x3", 0xdea950d2b32621fd),
    ("Bcast/4096/PipMColl/4x4", 0x3e11d74de26ad570),
    ("Gather/4096/OpenMpi/1x1", 0xc739b539f7fc12e6),
    ("Gather/4096/OpenMpi/2x3", 0xe28c9b40f14c0229),
    ("Gather/4096/OpenMpi/4x4", 0xdca69911a85867d8),
    ("Gather/4096/IntelMpi/1x1", 0xc739b539f7fc12e6),
    ("Gather/4096/IntelMpi/2x3", 0xe28c9b40f14c0229),
    ("Gather/4096/IntelMpi/4x4", 0xdca69911a85867d8),
    ("Gather/4096/Mvapich2/1x1", 0xc739b539f7fc12e6),
    ("Gather/4096/Mvapich2/2x3", 0xe28c9b40f14c0229),
    ("Gather/4096/Mvapich2/4x4", 0xdca69911a85867d8),
    ("Gather/4096/PipMpich/1x1", 0xc739b539f7fc12e6),
    ("Gather/4096/PipMpich/2x3", 0xe28c9b40f14c0229),
    ("Gather/4096/PipMpich/4x4", 0xdca69911a85867d8),
    ("Gather/4096/PipMColl/1x1", 0x42bc1fdb2c9367df),
    ("Gather/4096/PipMColl/2x3", 0x99d3172ca15ba52f),
    ("Gather/4096/PipMColl/4x4", 0x5b41c181421e6c84),
    ("Allreduce/4096/OpenMpi/1x1", 0xf479df99edaa60b9),
    ("Allreduce/4096/OpenMpi/2x3", 0xcbb98cc6ff3649b8),
    ("Allreduce/4096/OpenMpi/4x4", 0xba52fef37344a981),
    ("Allreduce/4096/IntelMpi/1x1", 0xf479df99edaa60b9),
    ("Allreduce/4096/IntelMpi/2x3", 0xcbb98cc6ff3649b8),
    ("Allreduce/4096/IntelMpi/4x4", 0xba52fef37344a981),
    ("Allreduce/4096/Mvapich2/1x1", 0x4f6b6ef981af3638),
    ("Allreduce/4096/Mvapich2/2x3", 0x2ae5aaa1567be944),
    ("Allreduce/4096/Mvapich2/4x4", 0xebb16baaa018cfb1),
    ("Allreduce/4096/PipMpich/1x1", 0xf479df99edaa60b9),
    ("Allreduce/4096/PipMpich/2x3", 0xcbb98cc6ff3649b8),
    ("Allreduce/4096/PipMpich/4x4", 0xba52fef37344a981),
    ("Allreduce/4096/PipMColl/1x1", 0x3c4d9d9c13c01e24),
    ("Allreduce/4096/PipMColl/2x3", 0xdb4788c6f33966d8),
    ("Allreduce/4096/PipMColl/4x4", 0xf21348b4e76106c9),
    ("Reduce/4096/OpenMpi/1x1", 0xc739b539f7fc12e6),
    ("Reduce/4096/OpenMpi/2x3", 0x949b18de0e29ccc2),
    ("Reduce/4096/OpenMpi/4x4", 0xfcf54fa4eb5f8057),
    ("Reduce/4096/IntelMpi/1x1", 0xc739b539f7fc12e6),
    ("Reduce/4096/IntelMpi/2x3", 0x949b18de0e29ccc2),
    ("Reduce/4096/IntelMpi/4x4", 0xfcf54fa4eb5f8057),
    ("Reduce/4096/Mvapich2/1x1", 0xc739b539f7fc12e6),
    ("Reduce/4096/Mvapich2/2x3", 0x949b18de0e29ccc2),
    ("Reduce/4096/Mvapich2/4x4", 0xfcf54fa4eb5f8057),
    ("Reduce/4096/PipMpich/1x1", 0xc739b539f7fc12e6),
    ("Reduce/4096/PipMpich/2x3", 0x949b18de0e29ccc2),
    ("Reduce/4096/PipMpich/4x4", 0xfcf54fa4eb5f8057),
    ("Reduce/4096/PipMColl/1x1", 0x13b6b923afee790f),
    ("Reduce/4096/PipMColl/2x3", 0xd45c003e2148bb7c),
    ("Reduce/4096/PipMColl/4x4", 0xc8172eab0ff29c81),
    ("ReduceScatter/4096/OpenMpi/1x1", 0xc739b539f7fc12e6),
    ("ReduceScatter/4096/OpenMpi/2x3", 0x2ddc45885661bda2),
    ("ReduceScatter/4096/OpenMpi/4x4", 0x6eb2a01e33b6ce07),
    ("ReduceScatter/4096/IntelMpi/1x1", 0xc739b539f7fc12e6),
    ("ReduceScatter/4096/IntelMpi/2x3", 0x2ddc45885661bda2),
    ("ReduceScatter/4096/IntelMpi/4x4", 0x6eb2a01e33b6ce07),
    ("ReduceScatter/4096/Mvapich2/1x1", 0xc739b539f7fc12e6),
    ("ReduceScatter/4096/Mvapich2/2x3", 0x2ddc45885661bda2),
    ("ReduceScatter/4096/Mvapich2/4x4", 0x6eb2a01e33b6ce07),
    ("ReduceScatter/4096/PipMpich/1x1", 0xc739b539f7fc12e6),
    ("ReduceScatter/4096/PipMpich/2x3", 0x2ddc45885661bda2),
    ("ReduceScatter/4096/PipMpich/4x4", 0x6eb2a01e33b6ce07),
    ("ReduceScatter/4096/PipMColl/1x1", 0x8535ba50d44bbdf3),
    ("ReduceScatter/4096/PipMColl/2x3", 0x5f9321ae6adcd7cf),
    ("ReduceScatter/4096/PipMColl/4x4", 0x656c2316a39f8b07),
    ("Scan/4096/OpenMpi/1x1", 0xf479df99edaa60b9),
    ("Scan/4096/OpenMpi/2x3", 0x9e7069df3dae7d9a),
    ("Scan/4096/OpenMpi/4x4", 0xa9dbdbeddce28dc6),
    ("Scan/4096/IntelMpi/1x1", 0xf479df99edaa60b9),
    ("Scan/4096/IntelMpi/2x3", 0x75df2a02611a84bb),
    ("Scan/4096/IntelMpi/4x4", 0x25761b38232c8c7f),
    ("Scan/4096/Mvapich2/1x1", 0xf479df99edaa60b9),
    ("Scan/4096/Mvapich2/2x3", 0x75df2a02611a84bb),
    ("Scan/4096/Mvapich2/4x4", 0x25761b38232c8c7f),
    ("Scan/4096/PipMpich/1x1", 0xf479df99edaa60b9),
    ("Scan/4096/PipMpich/2x3", 0x75df2a02611a84bb),
    ("Scan/4096/PipMpich/4x4", 0x25761b38232c8c7f),
    ("Scan/4096/PipMColl/1x1", 0xf479df99edaa60b9),
    ("Scan/4096/PipMColl/2x3", 0x75df2a02611a84bb),
    ("Scan/4096/PipMColl/4x4", 0x25761b38232c8c7f),
    ("Exscan/4096/OpenMpi/1x1", 0xf479df99edaa60b9),
    ("Exscan/4096/OpenMpi/2x3", 0x0349c9a0df79316e),
    ("Exscan/4096/OpenMpi/4x4", 0xec42634dd3818560),
    ("Exscan/4096/IntelMpi/1x1", 0xf479df99edaa60b9),
    ("Exscan/4096/IntelMpi/2x3", 0x8ea6dd4326e140a4),
    ("Exscan/4096/IntelMpi/4x4", 0x2c596c13b71f4903),
    ("Exscan/4096/Mvapich2/1x1", 0xf479df99edaa60b9),
    ("Exscan/4096/Mvapich2/2x3", 0x8ea6dd4326e140a4),
    ("Exscan/4096/Mvapich2/4x4", 0x2c596c13b71f4903),
    ("Exscan/4096/PipMpich/1x1", 0xf479df99edaa60b9),
    ("Exscan/4096/PipMpich/2x3", 0x8ea6dd4326e140a4),
    ("Exscan/4096/PipMpich/4x4", 0x2c596c13b71f4903),
    ("Exscan/4096/PipMColl/1x1", 0xf479df99edaa60b9),
    ("Exscan/4096/PipMColl/2x3", 0x8ea6dd4326e140a4),
    ("Exscan/4096/PipMColl/4x4", 0x2c596c13b71f4903),
    ("Alltoall/4096/OpenMpi/1x1", 0xc739b539f7fc12e6),
    ("Alltoall/4096/OpenMpi/2x3", 0xb19492657d78281e),
    ("Alltoall/4096/OpenMpi/4x4", 0xbdbe7eeabee68dbf),
    ("Alltoall/4096/IntelMpi/1x1", 0xc739b539f7fc12e6),
    ("Alltoall/4096/IntelMpi/2x3", 0xb19492657d78281e),
    ("Alltoall/4096/IntelMpi/4x4", 0xbdbe7eeabee68dbf),
    ("Alltoall/4096/Mvapich2/1x1", 0xc739b539f7fc12e6),
    ("Alltoall/4096/Mvapich2/2x3", 0xb19492657d78281e),
    ("Alltoall/4096/Mvapich2/4x4", 0xbdbe7eeabee68dbf),
    ("Alltoall/4096/PipMpich/1x1", 0xc739b539f7fc12e6),
    ("Alltoall/4096/PipMpich/2x3", 0xb19492657d78281e),
    ("Alltoall/4096/PipMpich/4x4", 0xbdbe7eeabee68dbf),
    ("Alltoall/4096/PipMColl/1x1", 0x5e201df7a026c41c),
    ("Alltoall/4096/PipMColl/2x3", 0x67b020de0a18ed39),
    ("Alltoall/4096/PipMColl/4x4", 0x87e689bd8fbf881d),
    ("Allgather/65536/PipMColl/4x4", 0x8d4edc7c994e8385),
    ("Allreduce/65536/PipMColl/4x4", 0x7eaa0b3187da023b),
    ("Allreduce/compressed16384/PipMColl/4x4", 0xd8e85e70cc470d05),
];

/// Captured at commit 0c91471, where every row was also checked to hash the
/// legacy per-rank recording of the same cells identically.  The 32 rows
/// whose traces hold intra-node copies were re-captured when
/// `TraceOp::CopyIntra` lost its always-false `first_use` field; each new
/// hash equals the previous trace's rendering with `, first_use: false`
/// removed.
#[rustfmt::skip]
const LOWERED_GOLDEN: &[(&str, u64)] = &[
    ("Bcast/OpenMpi", 0x0fe59bc036966bb7),
    ("Bcast/IntelMpi", 0x3e73b04383b45bc7),
    ("Bcast/Mvapich2", 0x3e73b04383b45bc7),
    ("Bcast/PipMpich", 0x0fe59bc036966bb7),
    ("Bcast/PipMColl", 0x53e89e4781274f2c),
    ("Scatter/OpenMpi", 0xee9dfe1a29872b85),
    ("Scatter/IntelMpi", 0xee9dfe1a29872b85),
    ("Scatter/Mvapich2", 0xf6e83c927c7cad94),
    ("Scatter/PipMpich", 0xee9dfe1a29872b85),
    ("Scatter/PipMColl", 0x97b423372c3b867a),
    ("Gather/OpenMpi", 0x1bbfd0239eaa2cd9),
    ("Gather/IntelMpi", 0x1bbfd0239eaa2cd9),
    ("Gather/Mvapich2", 0x1bbfd0239eaa2cd9),
    ("Gather/PipMpich", 0x1bbfd0239eaa2cd9),
    ("Gather/PipMColl", 0x394523f1195269ac),
    ("Allgather/OpenMpi", 0x6da61d97b90a55ca),
    ("Allgather/IntelMpi", 0x6da61d97b90a55ca),
    ("Allgather/Mvapich2", 0x6da61d97b90a55ca),
    ("Allgather/PipMpich", 0x6da61d97b90a55ca),
    ("Allgather/PipMColl", 0xde5827a8460f3a8e),
    ("Reduce/OpenMpi", 0xbfe0333777781dba),
    ("Reduce/IntelMpi", 0xbfe0333777781dba),
    ("Reduce/Mvapich2", 0xbfe0333777781dba),
    ("Reduce/PipMpich", 0xbfe0333777781dba),
    ("Reduce/PipMColl", 0xb88640de0b9ca923),
    ("Allreduce/OpenMpi", 0xd24ab956d5ab3c1c),
    ("Allreduce/IntelMpi", 0xd24ab956d5ab3c1c),
    ("Allreduce/Mvapich2", 0x64bdd7c91bd3a0e5),
    ("Allreduce/PipMpich", 0xd24ab956d5ab3c1c),
    ("Allreduce/PipMColl", 0x15d257a997eae206),
    ("ReduceScatter/OpenMpi", 0x7d2eef9f8270ebc7),
    ("ReduceScatter/IntelMpi", 0x7d2eef9f8270ebc7),
    ("ReduceScatter/Mvapich2", 0x7d2eef9f8270ebc7),
    ("ReduceScatter/PipMpich", 0x7d2eef9f8270ebc7),
    ("ReduceScatter/PipMColl", 0x5dd6fc6bdb16cd2e),
    ("Scan/OpenMpi", 0x467f5d40cd022331),
    ("Scan/IntelMpi", 0x9eed744b667afcdc),
    ("Scan/Mvapich2", 0x9eed744b667afcdc),
    ("Scan/PipMpich", 0x9eed744b667afcdc),
    ("Scan/PipMColl", 0x9eed744b667afcdc),
    ("Exscan/OpenMpi", 0xed7fd52488dbf176),
    ("Exscan/IntelMpi", 0x7afef17d0ef4ebfe),
    ("Exscan/Mvapich2", 0x7afef17d0ef4ebfe),
    ("Exscan/PipMpich", 0x7afef17d0ef4ebfe),
    ("Exscan/PipMColl", 0x7afef17d0ef4ebfe),
    ("Alltoall/OpenMpi", 0x1e2a0a5622935ccf),
    ("Alltoall/IntelMpi", 0x1e2a0a5622935ccf),
    ("Alltoall/Mvapich2", 0x1e2a0a5622935ccf),
    ("Alltoall/PipMpich", 0x1e2a0a5622935ccf),
    ("Alltoall/PipMColl", 0x943760b53a68e647),
    ("Barrier/OpenMpi", 0x7e1714d42436399b),
    ("Barrier/IntelMpi", 0x7e1714d42436399b),
    ("Barrier/Mvapich2", 0x7e1714d42436399b),
    ("Barrier/PipMpich", 0x7e1714d42436399b),
    ("Barrier/PipMColl", 0x7e1714d42436399b),
];
