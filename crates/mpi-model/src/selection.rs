//! Per-library algorithm selection: one ordered rule list per library.
//!
//! MPI libraries pick a collective algorithm from the message size, the
//! communicator size and (for node-aware libraries) the topology.  The
//! lists below reproduce the choices the comparators make in the regime the
//! paper evaluates (small and medium messages, large communicators), plus
//! the large-message switch points so that the "larger messages" experiments
//! exercise the same crossovers real libraries have.
//!
//! Every switch here keys on the *per-rank block* against
//! [`LARGE_MESSAGE_THRESHOLD`].  That is this model's simplification: the
//! real libraries' documented rules mostly key on total bytes (and some on
//! processes per node), which a rule list can express once a [`When`]
//! reads them.

use pip_collectives::CollectiveKind;

/// One algorithm a library can run, named by its collective and its
/// schedule.  Everything a recording reads of the selection, so it is what
/// the plan caches key on — two libraries resolving to the same `Algorithm`
/// share one compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Allgather by Bruck's algorithm (any rank count).
    AllgatherBruck,
    /// Allgather by recursive doubling (power-of-two rank counts).
    AllgatherRecursiveDoubling,
    /// Allgather by ring (large messages).
    AllgatherRing,
    /// PiP-MColl multi-object Bruck allgather with base P+1.
    AllgatherMultiObject,
    /// Scatter by a binomial tree over all ranks.
    ScatterBinomial,
    /// Single-leader two-level scatter.
    ScatterHierarchical,
    /// PiP-MColl multi-object scatter.
    ScatterMultiObject,
    /// Broadcast by a binomial tree over all ranks.
    BcastBinomial,
    /// Single-leader two-level broadcast.
    BcastHierarchical,
    /// PiP-MColl multi-object broadcast.
    BcastMultiObject,
    /// Gather by a binomial tree over all ranks.
    GatherBinomial,
    /// PiP-MColl multi-object gather.
    GatherMultiObject,
    /// Allreduce by recursive doubling (small messages).
    AllreduceRecursiveDoubling,
    /// Allreduce by ring reduce-scatter + allgather (large messages).
    AllreduceRing,
    /// Single-leader two-level allreduce.
    AllreduceHierarchical,
    /// PiP-MColl multi-object chunked allreduce.
    AllreduceMultiObject,
    /// Reduce by a binomial tree over all ranks (MPICH-derived default).
    ReduceBinomial,
    /// PiP-MColl multi-object chunk-ownership reduce.
    ReduceMultiObject,
    /// Reduce_scatter by recursive halving (MPICH default for commutative
    /// operators at small and medium sizes).
    ReduceScatterRecursiveHalving,
    /// Reduce_scatter by ring pipeline (bandwidth-optimal at large sizes).
    ReduceScatterRing,
    /// PiP-MColl multi-object chunk-ownership reduce_scatter.
    ReduceScatterMultiObject,
    /// Scan by recursive doubling (MPICH default).
    ScanRecursiveDoubling,
    /// Scan by linear pipeline (Open MPI's base implementation).
    ScanLinear,
    /// Exscan by recursive doubling (MPICH default).
    ExscanRecursiveDoubling,
    /// Exscan by linear pipeline (Open MPI's base implementation).
    ExscanLinear,
    /// Alltoall by Bruck's algorithm (small messages).
    AlltoallBruck,
    /// PiP-MColl multi-object node-aware pairwise exchange.
    AlltoallMultiObject,
    /// The dissemination barrier every library runs.
    Barrier,
}

impl Algorithm {
    /// The collective this algorithm implements.
    pub fn kind(self) -> CollectiveKind {
        use Algorithm as A;
        use CollectiveKind as K;
        match self {
            A::AllgatherBruck
            | A::AllgatherRecursiveDoubling
            | A::AllgatherRing
            | A::AllgatherMultiObject => K::Allgather,
            A::ScatterBinomial | A::ScatterHierarchical | A::ScatterMultiObject => K::Scatter,
            A::BcastBinomial | A::BcastHierarchical | A::BcastMultiObject => K::Bcast,
            A::GatherBinomial | A::GatherMultiObject => K::Gather,
            A::AllreduceRecursiveDoubling
            | A::AllreduceRing
            | A::AllreduceHierarchical
            | A::AllreduceMultiObject => K::Allreduce,
            A::ReduceBinomial | A::ReduceMultiObject => K::Reduce,
            A::ReduceScatterRecursiveHalving
            | A::ReduceScatterRing
            | A::ReduceScatterMultiObject => K::ReduceScatter,
            A::ScanRecursiveDoubling | A::ScanLinear => K::Scan,
            A::ExscanRecursiveDoubling | A::ExscanLinear => K::Exscan,
            A::AlltoallBruck | A::AlltoallMultiObject => K::Alltoall,
            A::Barrier => K::Barrier,
        }
    }
}

/// The byte threshold (per-process message size) above which libraries
/// switch from latency-oriented to bandwidth-oriented algorithms.
pub const LARGE_MESSAGE_THRESHOLD: usize = 32 * 1024;

/// The condition under which a [`Rule`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Unconditionally: the last row of each kind.
    Always,
    /// The per-rank block is below [`LARGE_MESSAGE_THRESHOLD`].
    Small,
    /// Small, on a power-of-two world.
    SmallPow2,
}

impl When {
    fn holds(self, block: usize, world: usize) -> bool {
        let small = block < LARGE_MESSAGE_THRESHOLD;
        match self {
            When::Always => true,
            When::Small => small,
            When::SmallPow2 => small && world.is_power_of_two(),
        }
    }
}

/// One row of a rule list: run the algorithm when the condition holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule(pub When, pub Algorithm);

/// Open MPI, simplified: flat algorithms throughout, Bruck allgather on any
/// world, the linear scan pipeline, and ring allgather, allreduce and
/// reduce_scatter from a 32 KiB per-rank block.  Open MPI's tuned decision
/// rules key on total bytes and communicator size instead.
pub const OPEN_MPI: &[Rule] = &[
    Rule(When::Small, Algorithm::AllgatherBruck),
    Rule(When::Always, Algorithm::AllgatherRing),
    Rule(When::Always, Algorithm::ScatterBinomial),
    Rule(When::Always, Algorithm::BcastBinomial),
    Rule(When::Always, Algorithm::GatherBinomial),
    Rule(When::Small, Algorithm::AllreduceRecursiveDoubling),
    Rule(When::Always, Algorithm::AllreduceRing),
    Rule(When::Always, Algorithm::ReduceBinomial),
    Rule(When::Small, Algorithm::ReduceScatterRecursiveHalving),
    Rule(When::Always, Algorithm::ReduceScatterRing),
    Rule(When::Always, Algorithm::ScanLinear),
    Rule(When::Always, Algorithm::ExscanLinear),
    Rule(When::Always, Algorithm::AlltoallBruck),
    Rule(When::Always, Algorithm::Barrier),
];

/// Intel MPI, simplified from its MPICH-derived defaults: recursive
/// doubling replaces Bruck allgather on power-of-two worlds, broadcast is
/// node-aware, and the ring switches sit at a 32 KiB per-rank block, not
/// at MPICH's total-bytes thresholds.
pub const INTEL_MPI: &[Rule] = &[
    Rule(When::SmallPow2, Algorithm::AllgatherRecursiveDoubling),
    Rule(When::Small, Algorithm::AllgatherBruck),
    Rule(When::Always, Algorithm::AllgatherRing),
    Rule(When::Always, Algorithm::ScatterBinomial),
    Rule(When::Always, Algorithm::BcastHierarchical),
    Rule(When::Always, Algorithm::GatherBinomial),
    Rule(When::Small, Algorithm::AllreduceRecursiveDoubling),
    Rule(When::Always, Algorithm::AllreduceRing),
    Rule(When::Always, Algorithm::ReduceBinomial),
    Rule(When::Small, Algorithm::ReduceScatterRecursiveHalving),
    Rule(When::Always, Algorithm::ReduceScatterRing),
    Rule(When::Always, Algorithm::ScanRecursiveDoubling),
    Rule(When::Always, Algorithm::ExscanRecursiveDoubling),
    Rule(When::Always, Algorithm::AlltoallBruck),
    Rule(When::Always, Algorithm::Barrier),
];

/// MVAPICH2, simplified: node-aware (single-leader) scatter, broadcast and
/// small-message allreduce, with MPICH's flat allgather algorithms,
/// switched at a 32 KiB per-rank block.
pub const MVAPICH2: &[Rule] = &[
    Rule(When::SmallPow2, Algorithm::AllgatherRecursiveDoubling),
    Rule(When::Small, Algorithm::AllgatherBruck),
    Rule(When::Always, Algorithm::AllgatherRing),
    Rule(When::Always, Algorithm::ScatterHierarchical),
    Rule(When::Always, Algorithm::BcastHierarchical),
    Rule(When::Always, Algorithm::GatherBinomial),
    Rule(When::Small, Algorithm::AllreduceHierarchical),
    Rule(When::Always, Algorithm::AllreduceRing),
    Rule(When::Always, Algorithm::ReduceBinomial),
    Rule(When::Small, Algorithm::ReduceScatterRecursiveHalving),
    Rule(When::Always, Algorithm::ReduceScatterRing),
    Rule(When::Always, Algorithm::ScanRecursiveDoubling),
    Rule(When::Always, Algorithm::ExscanRecursiveDoubling),
    Rule(When::Always, Algorithm::AlltoallBruck),
    Rule(When::Always, Algorithm::Barrier),
];

/// PiP-MPICH: stock MPICH algorithms (flat, recursive doubling allgather
/// on power-of-two worlds) over the PiP transport, switched at a 32 KiB
/// per-rank block where MPICH's own rules key on total bytes.
pub const PIP_MPICH: &[Rule] = &[
    Rule(When::SmallPow2, Algorithm::AllgatherRecursiveDoubling),
    Rule(When::Small, Algorithm::AllgatherBruck),
    Rule(When::Always, Algorithm::AllgatherRing),
    Rule(When::Always, Algorithm::ScatterBinomial),
    Rule(When::Always, Algorithm::BcastBinomial),
    Rule(When::Always, Algorithm::GatherBinomial),
    Rule(When::Small, Algorithm::AllreduceRecursiveDoubling),
    Rule(When::Always, Algorithm::AllreduceRing),
    Rule(When::Always, Algorithm::ReduceBinomial),
    Rule(When::Small, Algorithm::ReduceScatterRecursiveHalving),
    Rule(When::Always, Algorithm::ReduceScatterRing),
    Rule(When::Always, Algorithm::ScanRecursiveDoubling),
    Rule(When::Always, Algorithm::ExscanRecursiveDoubling),
    Rule(When::Always, Algorithm::AlltoallBruck),
    Rule(When::Always, Algorithm::Barrier),
];

/// PiP-MColl: the multi-object algorithms at every size wherever they
/// exist.  Scan and exscan have no multi-object variant and stay MPICH's.
pub const PIP_MCOLL: &[Rule] = &[
    Rule(When::Always, Algorithm::AllgatherMultiObject),
    Rule(When::Always, Algorithm::ScatterMultiObject),
    Rule(When::Always, Algorithm::BcastMultiObject),
    Rule(When::Always, Algorithm::GatherMultiObject),
    Rule(When::Always, Algorithm::AllreduceMultiObject),
    Rule(When::Always, Algorithm::ReduceMultiObject),
    Rule(When::Always, Algorithm::ReduceScatterMultiObject),
    Rule(When::Always, Algorithm::ScanRecursiveDoubling),
    Rule(When::Always, Algorithm::ExscanRecursiveDoubling),
    Rule(When::Always, Algorithm::AlltoallMultiObject),
    Rule(When::Always, Algorithm::Barrier),
];

/// A library's selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The ordered rule list: the first row of the asked-for kind whose
    /// condition holds wins.
    pub rules: &'static [Rule],
    /// Bytes-on-wire threshold for error-bounded lossy compression: a
    /// compressed allreduce only rewrites transfers of at least this many
    /// bytes (below it, the codec's latency overhead outweighs the wire
    /// savings, exactly like the large-message algorithm switch).
    pub compress_min_bytes: usize,
}

impl Selection {
    /// The policy of `rules`, compressing from the large-message threshold.
    pub fn new(rules: &'static [Rule]) -> Self {
        Self {
            rules,
            compress_min_bytes: LARGE_MESSAGE_THRESHOLD,
        }
    }

    /// The algorithm for a `kind` collective with a per-rank block of
    /// `block` bytes (an allreduce's packed vector) on `world` ranks.
    ///
    /// # Panics
    ///
    /// If the list has no row of `kind` that holds — every stock list ends
    /// each kind with a [`When::Always`] row.
    pub fn algorithm(&self, kind: CollectiveKind, block: usize, world: usize) -> Algorithm {
        self.rules
            .iter()
            .find(|Rule(when, algorithm)| algorithm.kind() == kind && when.holds(block, world))
            .map(|Rule(_, algorithm)| *algorithm)
            .unwrap_or_else(|| panic!("the rule list selects no {kind:?} algorithm"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CollectiveKind as Kind;

    const COMPARATORS: [&[Rule]; 4] = [OPEN_MPI, INTEL_MPI, MVAPICH2, PIP_MPICH];

    fn pick(rules: &'static [Rule], kind: Kind, block: usize, world: usize) -> Algorithm {
        Selection::new(rules).algorithm(kind, block, world)
    }

    #[test]
    fn pip_mcoll_always_selects_multi_object() {
        let pick = |kind, block| pick(PIP_MCOLL, kind, block, 2304);
        assert_eq!(pick(Kind::Allgather, 64), Algorithm::AllgatherMultiObject);
        assert_eq!(
            pick(Kind::Allgather, 1 << 20),
            Algorithm::AllgatherMultiObject
        );
        assert_eq!(pick(Kind::Allreduce, 64), Algorithm::AllreduceMultiObject);
        assert_eq!(pick(Kind::Scatter, 64), Algorithm::ScatterMultiObject);
    }

    #[test]
    fn comparators_use_flat_small_message_allgather() {
        for rules in COMPARATORS {
            let algo = pick(rules, Kind::Allgather, 64, 2304);
            assert!(
                matches!(
                    algo,
                    Algorithm::AllgatherBruck | Algorithm::AllgatherRecursiveDoubling
                ),
                "expected a flat algorithm, got {algo:?}"
            );
        }
    }

    #[test]
    fn power_of_two_switches_bruck_to_recursive_doubling() {
        assert_eq!(
            pick(PIP_MPICH, Kind::Allgather, 64, 1024),
            Algorithm::AllgatherRecursiveDoubling
        );
        assert_eq!(
            pick(PIP_MPICH, Kind::Allgather, 64, 2304),
            Algorithm::AllgatherBruck
        );
        // Open MPI keeps Bruck regardless.
        assert_eq!(
            pick(OPEN_MPI, Kind::Allgather, 64, 1024),
            Algorithm::AllgatherBruck
        );
    }

    #[test]
    fn large_messages_switch_to_ring() {
        for rules in COMPARATORS {
            assert_eq!(
                pick(rules, Kind::Allgather, LARGE_MESSAGE_THRESHOLD, 100),
                Algorithm::AllgatherRing
            );
            assert_eq!(
                pick(rules, Kind::Allreduce, 1 << 20, 100),
                Algorithm::AllreduceRing
            );
            assert_ne!(
                pick(rules, Kind::Allreduce, 256, 100),
                Algorithm::AllreduceRing
            );
        }
        assert_eq!(
            pick(OPEN_MPI, Kind::Allreduce, 256, 100),
            Algorithm::AllreduceRecursiveDoubling
        );
    }

    #[test]
    fn mvapich2_is_node_aware_for_rooted_collectives() {
        assert_eq!(
            pick(MVAPICH2, Kind::Scatter, 64, 16),
            Algorithm::ScatterHierarchical
        );
        assert_eq!(
            pick(MVAPICH2, Kind::Bcast, 64, 16),
            Algorithm::BcastHierarchical
        );
    }

    #[test]
    fn pip_mcoll_selects_multi_object_for_the_reduction_family() {
        assert_eq!(
            pick(PIP_MCOLL, Kind::Reduce, 64, 16),
            Algorithm::ReduceMultiObject
        );
        for block in [64, 1 << 20] {
            assert_eq!(
                pick(PIP_MCOLL, Kind::ReduceScatter, block, 16),
                Algorithm::ReduceScatterMultiObject
            );
        }
    }

    #[test]
    fn comparators_switch_reduce_scatter_to_ring_for_large_vectors() {
        for rules in COMPARATORS {
            assert_eq!(
                pick(rules, Kind::ReduceScatter, 256, 16),
                Algorithm::ReduceScatterRecursiveHalving
            );
            assert_eq!(
                pick(rules, Kind::ReduceScatter, LARGE_MESSAGE_THRESHOLD, 16),
                Algorithm::ReduceScatterRing
            );
            assert_eq!(
                pick(rules, Kind::Reduce, 256, 16),
                Algorithm::ReduceBinomial
            );
        }
    }

    #[test]
    fn open_mpi_uses_the_linear_scan_pipeline() {
        assert_eq!(pick(OPEN_MPI, Kind::Scan, 64, 16), Algorithm::ScanLinear);
        assert_eq!(
            pick(OPEN_MPI, Kind::Exscan, 64, 16),
            Algorithm::ExscanLinear
        );
        assert_eq!(
            pick(PIP_MPICH, Kind::Scan, 64, 16),
            Algorithm::ScanRecursiveDoubling
        );
    }

    /// No variant is dead: some library chooses each, for a block below or
    /// at [`LARGE_MESSAGE_THRESHOLD`] and a power-of-two or other world.  One list of names makes both the array and
    /// an exhaustive match, so a new variant must be listed to compile.
    #[test]
    fn every_algorithm_is_selected_by_some_library() {
        macro_rules! every {
            ($($variant:ident),* $(,)?) => {{
                let _exhaustive = |algorithm: Algorithm| match algorithm {
                    $(Algorithm::$variant => ()),*
                };
                [$(Algorithm::$variant),*]
            }};
        }
        let every = every![
            AllgatherBruck,
            AllgatherRecursiveDoubling,
            AllgatherRing,
            AllgatherMultiObject,
            ScatterBinomial,
            ScatterHierarchical,
            ScatterMultiObject,
            BcastBinomial,
            BcastHierarchical,
            BcastMultiObject,
            GatherBinomial,
            GatherMultiObject,
            AllreduceRecursiveDoubling,
            AllreduceRing,
            AllreduceHierarchical,
            AllreduceMultiObject,
            ReduceBinomial,
            ReduceMultiObject,
            ReduceScatterRecursiveHalving,
            ReduceScatterRing,
            ReduceScatterMultiObject,
            ScanRecursiveDoubling,
            ScanLinear,
            ExscanRecursiveDoubling,
            ExscanLinear,
            AlltoallBruck,
            AlltoallMultiObject,
            Barrier,
        ];
        let mut chosen = std::collections::HashSet::new();
        for rules in [OPEN_MPI, INTEL_MPI, MVAPICH2, PIP_MPICH, PIP_MCOLL] {
            let selection = Selection::new(rules);
            for kind in Kind::ALL {
                for block in [64, LARGE_MESSAGE_THRESHOLD] {
                    for world in [16, 18] {
                        chosen.insert(selection.algorithm(kind, block, world));
                    }
                }
            }
        }
        let dead: Vec<_> = every.iter().filter(|a| !chosen.contains(a)).collect();
        assert!(dead.is_empty(), "no library chooses {dead:?}");
    }

    #[test]
    fn every_list_resolves_every_kind_to_an_algorithm_of_that_kind() {
        let lists = [
            ("OPEN_MPI", OPEN_MPI),
            ("INTEL_MPI", INTEL_MPI),
            ("MVAPICH2", MVAPICH2),
            ("PIP_MPICH", PIP_MPICH),
            ("PIP_MCOLL", PIP_MCOLL),
        ];
        for (name, rules) in lists {
            let selection = Selection::new(rules);
            for kind in Kind::ALL {
                for block in [0, 64, LARGE_MESSAGE_THRESHOLD - 1, LARGE_MESSAGE_THRESHOLD] {
                    for world in [1, 6, 16, 2304] {
                        let algorithm = selection.algorithm(kind, block, world);
                        assert_eq!(algorithm.kind(), kind, "{name} {block} B on {world}");
                    }
                }
            }
        }
    }
}
