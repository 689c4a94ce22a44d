//! Per-library algorithm selection tables.
//!
//! MPI libraries pick a collective algorithm from the message size, the
//! communicator size and (for node-aware libraries) the topology.  The
//! tables below reproduce the choices the comparators make in the regime the
//! paper evaluates (small and medium messages, large communicators), plus
//! the large-message switch points so that the "larger messages" experiments
//! exercise the same crossovers real libraries have.

/// Allgather algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllgatherAlgo {
    /// Bruck's algorithm (small messages, any rank count).
    Bruck,
    /// Recursive doubling (small messages, power-of-two ranks).
    RecursiveDoubling,
    /// Ring (large messages).
    Ring,
    /// Single-leader two-level algorithm.
    Hierarchical,
    /// PiP-MColl multi-object Bruck with base P+1.
    MultiObject,
}

/// Scatter algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScatterAlgo {
    /// Binomial tree over all ranks.
    Binomial,
    /// Single-leader two-level algorithm.
    Hierarchical,
    /// PiP-MColl multi-object scatter.
    MultiObject,
}

/// Broadcast algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcastAlgo {
    /// Binomial tree over all ranks.
    Binomial,
    /// Single-leader two-level algorithm.
    Hierarchical,
    /// PiP-MColl multi-object broadcast.
    MultiObject,
}

/// Gather algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatherAlgo {
    /// Binomial tree over all ranks.
    Binomial,
    /// PiP-MColl multi-object gather.
    MultiObject,
}

/// Allreduce algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllreduceAlgo {
    /// Recursive doubling (small messages).
    RecursiveDoubling,
    /// Ring reduce-scatter + allgather (large messages).
    Ring,
    /// Single-leader two-level algorithm.
    Hierarchical,
    /// PiP-MColl multi-object chunked allreduce.
    MultiObject,
}

/// Alltoall algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlltoallAlgo {
    /// Bruck's algorithm (small messages).
    Bruck,
    /// PiP-MColl multi-object node-aware pairwise exchange.
    MultiObject,
}

/// Reduce algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceAlgo {
    /// Binomial tree over all ranks (MPICH-derived small-message default).
    Binomial,
    /// PiP-MColl multi-object chunk-ownership reduce.
    MultiObject,
}

/// Reduce_scatter algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceScatterAlgo {
    /// Recursive halving (MPICH default for commutative operators at small
    /// and medium sizes).
    RecursiveHalving,
    /// Ring pipeline (bandwidth-optimal large-message choice).
    Ring,
    /// PiP-MColl multi-object chunk-ownership reduce_scatter.
    MultiObject,
}

/// Scan / exscan algorithm choices (the prefix collectives share one
/// switch, as the real libraries do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanAlgo {
    /// Recursive doubling (MPICH default).
    RecursiveDoubling,
    /// Linear pipeline (Open MPI's base implementation).
    Linear,
}

/// One resolved selection: the algorithm a library runs for one collective
/// invocation, tagged by the collective kind.  Everything a recording reads
/// of the selection table, so it is what the plan caches key on — two
/// libraries resolving to the same `Algorithm` share one compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// MPI_Allgather.
    Allgather(AllgatherAlgo),
    /// MPI_Scatter.
    Scatter(ScatterAlgo),
    /// MPI_Bcast.
    Bcast(BcastAlgo),
    /// MPI_Gather.
    Gather(GatherAlgo),
    /// MPI_Allreduce.
    Allreduce(AllreduceAlgo),
    /// MPI_Reduce.
    Reduce(ReduceAlgo),
    /// MPI_Reduce_scatter_block.
    ReduceScatter(ReduceScatterAlgo),
    /// MPI_Scan.
    Scan(ScanAlgo),
    /// MPI_Exscan.
    Exscan(ScanAlgo),
    /// MPI_Alltoall.
    Alltoall(AlltoallAlgo),
    /// MPI_Barrier: every library runs the dissemination barrier.
    Barrier,
}

/// The byte threshold (per-process message size) above which libraries
/// switch from latency-oriented to bandwidth-oriented algorithms.
pub const LARGE_MESSAGE_THRESHOLD: usize = 32 * 1024;

/// The message-drop rate at which the degradation sweep
/// (`BENCH_degradation.json`) shows deep multi-leader fan-outs starting to
/// lose to the single-leader hierarchy: every extra inter-node message is
/// another retransmission lottery ticket, so above this rate selection
/// should trade parallelism for fewer, larger transfers.
pub const LOSSY_DROP_CROSSOVER: f64 = 0.05;

/// Observed fabric health, as a selection dimension.  Libraries that adapt
/// (PiP-MColl) switch their allreduce to a shallower schedule on a lossy
/// fabric; the comparators' tables keep their stock choice in both states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricCondition {
    /// Nominal fabric: negligible drops, selection by message size alone.
    Healthy,
    /// Drop rate at or above [`LOSSY_DROP_CROSSOVER`]: prefer schedules
    /// with fewer inter-node messages.
    Lossy,
}

impl FabricCondition {
    /// Classify a measured (or configured) message-drop rate.
    pub fn from_drop_rate(rate: f64) -> Self {
        if rate >= LOSSY_DROP_CROSSOVER {
            FabricCondition::Lossy
        } else {
            FabricCondition::Healthy
        }
    }
}

/// Per-collective algorithm selection for one library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionTable {
    /// Allgather for small messages (below [`LARGE_MESSAGE_THRESHOLD`]).
    pub allgather_small: AllgatherAlgo,
    /// Allgather for large messages.
    pub allgather_large: AllgatherAlgo,
    /// Scatter (same algorithm across the sizes studied).
    pub scatter: ScatterAlgo,
    /// Broadcast.
    pub bcast: BcastAlgo,
    /// Gather.
    pub gather: GatherAlgo,
    /// Allreduce for small messages.
    pub allreduce_small: AllreduceAlgo,
    /// Allreduce for large messages.
    pub allreduce_large: AllreduceAlgo,
    /// Allreduce on a [`FabricCondition::Lossy`] fabric (any size): the
    /// schedule with the fewest inter-node messages the library offers.
    pub allreduce_lossy: AllreduceAlgo,
    /// Alltoall.
    pub alltoall: AlltoallAlgo,
    /// Reduce (same algorithm across the sizes studied).
    pub reduce: ReduceAlgo,
    /// Reduce_scatter for small messages (per-rank block below
    /// [`LARGE_MESSAGE_THRESHOLD`]).
    pub reduce_scatter_small: ReduceScatterAlgo,
    /// Reduce_scatter for large messages.
    pub reduce_scatter_large: ReduceScatterAlgo,
    /// Scan and exscan.
    pub scan: ScanAlgo,
    /// Whether recursive doubling replaces Bruck when the rank count is a
    /// power of two (MPICH-derived behaviour).
    pub prefer_recursive_doubling_pow2: bool,
    /// Bytes-on-wire threshold for error-bounded lossy compression: a
    /// compressed allreduce only rewrites transfers of at least this many
    /// bytes (below it, the codec's latency overhead outweighs the wire
    /// savings, exactly like the large-message algorithm switch).
    pub compress_min_bytes: usize,
}

impl SelectionTable {
    /// Open MPI (tuned decision rules, flat algorithms at this scale).
    pub fn open_mpi() -> Self {
        Self {
            allgather_small: AllgatherAlgo::Bruck,
            allgather_large: AllgatherAlgo::Ring,
            scatter: ScatterAlgo::Binomial,
            bcast: BcastAlgo::Binomial,
            gather: GatherAlgo::Binomial,
            allreduce_small: AllreduceAlgo::RecursiveDoubling,
            allreduce_large: AllreduceAlgo::Ring,
            allreduce_lossy: AllreduceAlgo::RecursiveDoubling,
            alltoall: AlltoallAlgo::Bruck,
            reduce: ReduceAlgo::Binomial,
            reduce_scatter_small: ReduceScatterAlgo::RecursiveHalving,
            reduce_scatter_large: ReduceScatterAlgo::Ring,
            scan: ScanAlgo::Linear,
            prefer_recursive_doubling_pow2: false,
            compress_min_bytes: LARGE_MESSAGE_THRESHOLD,
        }
    }

    /// Intel MPI (MPICH-derived defaults).
    pub fn intel_mpi() -> Self {
        Self {
            allgather_small: AllgatherAlgo::Bruck,
            allgather_large: AllgatherAlgo::Ring,
            scatter: ScatterAlgo::Binomial,
            bcast: BcastAlgo::Hierarchical,
            gather: GatherAlgo::Binomial,
            allreduce_small: AllreduceAlgo::RecursiveDoubling,
            allreduce_large: AllreduceAlgo::Ring,
            allreduce_lossy: AllreduceAlgo::RecursiveDoubling,
            alltoall: AlltoallAlgo::Bruck,
            reduce: ReduceAlgo::Binomial,
            reduce_scatter_small: ReduceScatterAlgo::RecursiveHalving,
            reduce_scatter_large: ReduceScatterAlgo::Ring,
            scan: ScanAlgo::RecursiveDoubling,
            prefer_recursive_doubling_pow2: true,
            compress_min_bytes: LARGE_MESSAGE_THRESHOLD,
        }
    }

    /// MVAPICH2 (node-aware scatter/bcast/allreduce, flat small allgather).
    pub fn mvapich2() -> Self {
        Self {
            allgather_small: AllgatherAlgo::Bruck,
            allgather_large: AllgatherAlgo::Ring,
            scatter: ScatterAlgo::Hierarchical,
            bcast: BcastAlgo::Hierarchical,
            gather: GatherAlgo::Binomial,
            allreduce_small: AllreduceAlgo::Hierarchical,
            allreduce_large: AllreduceAlgo::Ring,
            allreduce_lossy: AllreduceAlgo::Hierarchical,
            alltoall: AlltoallAlgo::Bruck,
            reduce: ReduceAlgo::Binomial,
            reduce_scatter_small: ReduceScatterAlgo::RecursiveHalving,
            reduce_scatter_large: ReduceScatterAlgo::Ring,
            scan: ScanAlgo::RecursiveDoubling,
            prefer_recursive_doubling_pow2: true,
            compress_min_bytes: LARGE_MESSAGE_THRESHOLD,
        }
    }

    /// PiP-MPICH: stock MPICH algorithm selection over the PiP transport.
    pub fn pip_mpich() -> Self {
        Self {
            allgather_small: AllgatherAlgo::Bruck,
            allgather_large: AllgatherAlgo::Ring,
            scatter: ScatterAlgo::Binomial,
            bcast: BcastAlgo::Binomial,
            gather: GatherAlgo::Binomial,
            allreduce_small: AllreduceAlgo::RecursiveDoubling,
            allreduce_large: AllreduceAlgo::Ring,
            allreduce_lossy: AllreduceAlgo::RecursiveDoubling,
            alltoall: AlltoallAlgo::Bruck,
            reduce: ReduceAlgo::Binomial,
            reduce_scatter_small: ReduceScatterAlgo::RecursiveHalving,
            reduce_scatter_large: ReduceScatterAlgo::Ring,
            scan: ScanAlgo::RecursiveDoubling,
            prefer_recursive_doubling_pow2: true,
            compress_min_bytes: LARGE_MESSAGE_THRESHOLD,
        }
    }

    /// PiP-MColl: the multi-object algorithms everywhere they exist.
    pub fn pip_mcoll() -> Self {
        Self {
            allgather_small: AllgatherAlgo::MultiObject,
            allgather_large: AllgatherAlgo::MultiObject,
            scatter: ScatterAlgo::MultiObject,
            bcast: BcastAlgo::MultiObject,
            gather: GatherAlgo::MultiObject,
            allreduce_small: AllreduceAlgo::MultiObject,
            allreduce_large: AllreduceAlgo::MultiObject,
            allreduce_lossy: AllreduceAlgo::Hierarchical,
            alltoall: AlltoallAlgo::MultiObject,
            reduce: ReduceAlgo::MultiObject,
            reduce_scatter_small: ReduceScatterAlgo::MultiObject,
            reduce_scatter_large: ReduceScatterAlgo::MultiObject,
            scan: ScanAlgo::RecursiveDoubling,
            prefer_recursive_doubling_pow2: false,
            compress_min_bytes: LARGE_MESSAGE_THRESHOLD,
        }
    }

    /// The allgather algorithm for a per-process block of `bytes` bytes on a
    /// communicator of `world` ranks.
    pub fn allgather_for(&self, bytes: usize, world: usize) -> AllgatherAlgo {
        let algo = if bytes >= LARGE_MESSAGE_THRESHOLD {
            self.allgather_large
        } else {
            self.allgather_small
        };
        if algo == AllgatherAlgo::Bruck
            && self.prefer_recursive_doubling_pow2
            && world.is_power_of_two()
        {
            AllgatherAlgo::RecursiveDoubling
        } else {
            algo
        }
    }

    /// The allreduce algorithm for a vector of `bytes` bytes.
    pub fn allreduce_for(&self, bytes: usize) -> AllreduceAlgo {
        if bytes >= LARGE_MESSAGE_THRESHOLD {
            self.allreduce_large
        } else {
            self.allreduce_small
        }
    }

    /// The allreduce algorithm for a vector of `bytes` bytes on a fabric in
    /// the given condition: a lossy fabric overrides the size-based choice
    /// with [`SelectionTable::allreduce_lossy`].
    pub fn allreduce_for_fabric(&self, bytes: usize, fabric: FabricCondition) -> AllreduceAlgo {
        match fabric {
            FabricCondition::Healthy => self.allreduce_for(bytes),
            FabricCondition::Lossy => self.allreduce_lossy,
        }
    }

    /// The reduce_scatter algorithm for a per-rank output block of `bytes`
    /// bytes (the same per-process message-size axis the other collectives
    /// switch on; the ring's `p - 1` rounds only pay off once each block is
    /// bandwidth-bound).
    pub fn reduce_scatter_for(&self, bytes: usize) -> ReduceScatterAlgo {
        if bytes >= LARGE_MESSAGE_THRESHOLD {
            self.reduce_scatter_large
        } else {
            self.reduce_scatter_small
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pip_mcoll_always_selects_multi_object() {
        let table = SelectionTable::pip_mcoll();
        assert_eq!(table.allgather_for(64, 2304), AllgatherAlgo::MultiObject);
        assert_eq!(
            table.allgather_for(1 << 20, 2304),
            AllgatherAlgo::MultiObject
        );
        assert_eq!(table.allreduce_for(64), AllreduceAlgo::MultiObject);
        assert_eq!(table.scatter, ScatterAlgo::MultiObject);
    }

    #[test]
    fn comparators_use_flat_small_message_allgather() {
        for table in [
            SelectionTable::open_mpi(),
            SelectionTable::intel_mpi(),
            SelectionTable::mvapich2(),
            SelectionTable::pip_mpich(),
        ] {
            let algo = table.allgather_for(64, 2304);
            assert!(
                matches!(
                    algo,
                    AllgatherAlgo::Bruck | AllgatherAlgo::RecursiveDoubling
                ),
                "expected a flat algorithm, got {algo:?}"
            );
        }
    }

    #[test]
    fn power_of_two_switches_bruck_to_recursive_doubling() {
        let table = SelectionTable::pip_mpich();
        assert_eq!(
            table.allgather_for(64, 1024),
            AllgatherAlgo::RecursiveDoubling
        );
        assert_eq!(table.allgather_for(64, 2304), AllgatherAlgo::Bruck);
        // Open MPI keeps Bruck regardless.
        assert_eq!(
            SelectionTable::open_mpi().allgather_for(64, 1024),
            AllgatherAlgo::Bruck
        );
    }

    #[test]
    fn large_messages_switch_to_ring() {
        let table = SelectionTable::open_mpi();
        assert_eq!(
            table.allgather_for(LARGE_MESSAGE_THRESHOLD, 100),
            AllgatherAlgo::Ring
        );
        assert_eq!(table.allreduce_for(1 << 20), AllreduceAlgo::Ring);
        assert_eq!(table.allreduce_for(256), AllreduceAlgo::RecursiveDoubling);
    }

    #[test]
    fn mvapich2_is_node_aware_for_rooted_collectives() {
        let table = SelectionTable::mvapich2();
        assert_eq!(table.scatter, ScatterAlgo::Hierarchical);
        assert_eq!(table.bcast, BcastAlgo::Hierarchical);
    }

    #[test]
    fn pip_mcoll_selects_multi_object_for_the_reduction_family() {
        let table = SelectionTable::pip_mcoll();
        assert_eq!(table.reduce, ReduceAlgo::MultiObject);
        assert_eq!(table.reduce_scatter_for(64), ReduceScatterAlgo::MultiObject);
        assert_eq!(
            table.reduce_scatter_for(1 << 20),
            ReduceScatterAlgo::MultiObject
        );
    }

    #[test]
    fn comparators_switch_reduce_scatter_to_ring_for_large_vectors() {
        for table in [
            SelectionTable::open_mpi(),
            SelectionTable::intel_mpi(),
            SelectionTable::mvapich2(),
            SelectionTable::pip_mpich(),
        ] {
            assert_eq!(
                table.reduce_scatter_for(256),
                ReduceScatterAlgo::RecursiveHalving
            );
            assert_eq!(
                table.reduce_scatter_for(LARGE_MESSAGE_THRESHOLD),
                ReduceScatterAlgo::Ring
            );
            assert_eq!(table.reduce, ReduceAlgo::Binomial);
        }
    }

    #[test]
    fn open_mpi_uses_the_linear_scan_pipeline() {
        assert_eq!(SelectionTable::open_mpi().scan, ScanAlgo::Linear);
        assert_eq!(
            SelectionTable::pip_mpich().scan,
            ScanAlgo::RecursiveDoubling
        );
    }
}
