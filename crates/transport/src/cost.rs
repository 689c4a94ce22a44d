//! Cost model types shared by every transport.
//!
//! All latencies are simulated nanoseconds.  The default constants are
//! calibrated against published measurements for dual-socket Broadwell nodes
//! (the paper's testbed) and the mechanism papers the comparators are built
//! on: CMA (Chakraborty et al., CLUSTER '17), XPMEM reductions (Hashmi et
//! al., IPDPS '18), POSIX-SHMEM hierarchical collectives (Parsons & Pai,
//! IPDPS '14) and PiP (Hori et al., HPDC '18).  Absolute values matter less
//! than their *structure*: which mechanism pays a syscall per operation,
//! which pays it once, which copies twice, and which just copies.

/// Simulated time in nanoseconds.
pub type Nanos = f64;

/// The intra-node data-movement mechanisms compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntranodeMechanism {
    /// Process-in-Process: peers share one address space, a transfer is a
    /// plain `memcpy` with no kernel involvement (Hori et al., HPDC '18).
    Pip,
    /// POSIX shared memory: copy-in to a bounded shared segment, copy-out on
    /// the receiver — the classic double copy (Parsons & Pai, IPDPS '14).
    PosixShmem,
    /// Cross Memory Attach (`process_vm_readv`/`writev`): a single copy, but
    /// every call is a system call (Chakraborty et al., CLUSTER '17).
    Cma,
    /// XPMEM: single copy through a mapped segment; expose/attach are
    /// syscalls amortized by a registration cache, and first-touch page
    /// faults are charged per page (Hashmi et al., IPDPS '18).
    Xpmem,
}

impl IntranodeMechanism {
    /// All mechanisms, in presentation order.
    pub const ALL: [IntranodeMechanism; 4] = [
        IntranodeMechanism::Pip,
        IntranodeMechanism::PosixShmem,
        IntranodeMechanism::Cma,
        IntranodeMechanism::Xpmem,
    ];

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            IntranodeMechanism::Pip => "PiP",
            IntranodeMechanism::PosixShmem => "POSIX-SHMEM",
            IntranodeMechanism::Cma => "CMA",
            IntranodeMechanism::Xpmem => "XPMEM",
        }
    }

    /// Number of times the payload crosses memory for one transfer.
    pub fn copies_per_transfer(&self) -> usize {
        match self {
            IntranodeMechanism::PosixShmem => 2,
            _ => 1,
        }
    }
}

/// What a functional copy engine actually did for one transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CopyStats {
    /// Total bytes moved, counting each copy of the payload separately
    /// (a double copy of `n` bytes reports `2n`).
    pub bytes_moved: usize,
    /// Number of distinct copy passes over the payload.
    pub copies: usize,
}

/// Cost model for one intra-node mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntranodeCost {
    /// The mechanism being modelled.
    pub mechanism: IntranodeMechanism,
    /// Fixed software overhead per transfer (queue handling, header setup).
    pub per_transfer_overhead: Nanos,
    /// Cost of one system call, charged `syscalls_per_transfer` times.
    pub syscall_cost: Nanos,
    /// System calls charged on every transfer.
    pub syscalls_per_transfer: usize,
    /// One-time setup cost for a new peer buffer (XPMEM attach); amortized by
    /// the registration cache, so charged only on `first_use`.
    pub setup_cost: Nanos,
    /// Cost of a soft page fault, charged per 4 KiB page on first touch.
    pub page_fault_cost: Nanos,
    /// Copy cost per byte (inverse of sustained single-core copy bandwidth).
    pub per_byte_copy: Nanos,
    /// Number of copy passes over the payload per transfer.
    pub copies: usize,
}

/// Bytes per page used for first-touch page-fault accounting.
pub const PAGE_SIZE: usize = 4096;

impl IntranodeCost {
    /// Default calibration for `mechanism` (see module docs for provenance).
    pub fn defaults_for(mechanism: IntranodeMechanism) -> Self {
        // ~13 GB/s sustained single-core copy bandwidth on Broadwell.
        let per_byte_copy = 0.077;
        match mechanism {
            IntranodeMechanism::Pip => Self {
                mechanism,
                per_transfer_overhead: 60.0,
                syscall_cost: 0.0,
                syscalls_per_transfer: 0,
                setup_cost: 0.0,
                page_fault_cost: 0.0,
                per_byte_copy,
                copies: 1,
            },
            IntranodeMechanism::PosixShmem => Self {
                mechanism,
                per_transfer_overhead: 90.0,
                syscall_cost: 0.0,
                syscalls_per_transfer: 0,
                setup_cost: 0.0,
                page_fault_cost: 0.0,
                per_byte_copy,
                copies: 2,
            },
            IntranodeMechanism::Cma => Self {
                mechanism,
                per_transfer_overhead: 80.0,
                syscall_cost: 450.0,
                syscalls_per_transfer: 1,
                setup_cost: 0.0,
                page_fault_cost: 0.0,
                per_byte_copy,
                copies: 1,
            },
            IntranodeMechanism::Xpmem => Self {
                mechanism,
                per_transfer_overhead: 80.0,
                syscall_cost: 0.0,
                syscalls_per_transfer: 0,
                setup_cost: 2600.0,
                page_fault_cost: 1100.0,
                per_byte_copy,
                copies: 1,
            },
        }
    }

    /// Latency of transferring `bytes` bytes.
    ///
    /// `first_use` selects whether setup (attach) and first-touch page-fault
    /// costs apply; steady-state collective loops pass `false` because the
    /// buffers are registered and warm after the first iteration, which is
    /// how the paper benchmarks (OSU-style loops) behave.
    pub fn transfer_cost(&self, bytes: usize, first_use: bool) -> Nanos {
        let mut cost = self.per_transfer_overhead
            + self.syscall_cost * self.syscalls_per_transfer as Nanos
            + self.per_byte_copy * (bytes * self.copies) as Nanos;
        if first_use {
            cost += self.setup_cost;
            let pages = bytes.div_ceil(PAGE_SIZE).max(1);
            cost += self.page_fault_cost * pages as Nanos;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pip_is_cheapest_for_small_messages() {
        let bytes = 64;
        let pip = IntranodeCost::defaults_for(IntranodeMechanism::Pip).transfer_cost(bytes, false);
        for mechanism in [
            IntranodeMechanism::PosixShmem,
            IntranodeMechanism::Cma,
            IntranodeMechanism::Xpmem,
        ] {
            let other = IntranodeCost::defaults_for(mechanism).transfer_cost(bytes, false);
            assert!(
                pip <= other,
                "PiP ({pip}) should not cost more than {mechanism:?} ({other}) at {bytes} B"
            );
        }
    }

    #[test]
    fn cma_syscall_dominates_small_messages() {
        let cma = IntranodeCost::defaults_for(IntranodeMechanism::Cma);
        let small = cma.transfer_cost(16, false);
        assert!(
            small > 450.0,
            "16 B CMA transfer ({small} ns) must pay the syscall"
        );
    }

    #[test]
    fn double_copy_hurts_posix_shmem_for_large_messages() {
        let shmem = IntranodeCost::defaults_for(IntranodeMechanism::PosixShmem);
        let pip = IntranodeCost::defaults_for(IntranodeMechanism::Pip);
        let bytes = 1 << 20;
        let ratio = shmem.transfer_cost(bytes, false) / pip.transfer_cost(bytes, false);
        assert!(
            ratio > 1.8,
            "POSIX-SHMEM should approach 2x PiP for 1 MiB, got {ratio:.2}x"
        );
    }

    #[test]
    fn xpmem_first_use_pays_attach_and_faults() {
        let xpmem = IntranodeCost::defaults_for(IntranodeMechanism::Xpmem);
        let cold = xpmem.transfer_cost(8192, true);
        let warm = xpmem.transfer_cost(8192, false);
        assert!(cold > warm + 2600.0);
    }

    #[test]
    fn copies_per_transfer_matches_cost_model() {
        for mechanism in IntranodeMechanism::ALL {
            let cost = IntranodeCost::defaults_for(mechanism);
            assert_eq!(cost.copies, mechanism.copies_per_transfer());
        }
    }

    proptest! {
        #[test]
        fn prop_cost_is_monotone_in_size(bytes in 0usize..(1 << 22), extra in 1usize..4096) {
            for mechanism in IntranodeMechanism::ALL {
                let cost = IntranodeCost::defaults_for(mechanism);
                prop_assert!(cost.transfer_cost(bytes + extra, false) >= cost.transfer_cost(bytes, false));
            }
        }

        #[test]
        fn prop_first_use_never_cheaper(bytes in 0usize..(1 << 20)) {
            for mechanism in IntranodeMechanism::ALL {
                let cost = IntranodeCost::defaults_for(mechanism);
                prop_assert!(cost.transfer_cost(bytes, true) >= cost.transfer_cost(bytes, false));
            }
        }

        #[test]
        fn prop_costs_are_finite_and_positive(bytes in 0usize..(1 << 24)) {
            for mechanism in IntranodeMechanism::ALL {
                let cost = IntranodeCost::defaults_for(mechanism).transfer_cost(bytes, false);
                prop_assert!(cost.is_finite());
                prop_assert!(cost > 0.0);
            }
        }
    }
}
