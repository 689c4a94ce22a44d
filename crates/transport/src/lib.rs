//! # pip-transport
//!
//! The data-movement substrates that PiP-MColl and its comparators are built
//! on, reproduced as two complementary artefacts per mechanism:
//!
//! 1. a **functional copy engine** that performs the same number of copies
//!    through the same kind of staging the real mechanism performs (so the
//!    correctness runtime exercises honest data paths), and
//! 2. a **cost model** that charges the latency the mechanism would incur on
//!    the paper's testbed: system calls for CMA, attach + page-fault costs
//!    for XPMEM, the double copy of POSIX shared memory, and the plain
//!    load/store copy of PiP.
//!
//! The crate also hosts the [`netcard`] model — a LogGP-style description of
//! the Omni-Path adapter with separate *per-process* and *per-NIC* message
//! rate limits.  The gap between those two limits is exactly what the
//! paper's multi-object design exploits: a single sender process cannot
//! saturate the adapter's 97 M msg/s, but eighteen concurrent senders can.
//!
//! All costs are expressed in nanoseconds ([`Nanos`]) of simulated time.

#![forbid(unsafe_code)]

pub mod cma;
pub mod cost;
pub mod memcpy;
pub mod netcard;
pub mod pip;
pub mod posix_shmem;
pub mod xpmem;

pub use cost::{CopyStats, IntranodeCost, IntranodeMechanism, Nanos};
pub use netcard::{NicModel, NicParams};

/// A functional intra-node copy engine.
///
/// Engines move real bytes between buffers exactly the way the mechanism
/// they model would (single copy, double copy through a bounded segment, …)
/// and report what they did in a [`CopyStats`], which the tests use to check
/// that each mechanism performs the copy count and system-call count the
/// paper attributes to it.
pub trait CopyEngine {
    /// The mechanism this engine implements.
    fn mechanism(&self) -> IntranodeMechanism;

    /// Copy `src` into `dst` (same length) and report the work performed.
    fn copy(&mut self, src: &[u8], dst: &mut [u8]) -> CopyStats;

    /// The cost model matching this engine's mechanism with default
    /// calibration.
    fn cost_model(&self) -> IntranodeCost {
        IntranodeCost::defaults_for(self.mechanism())
    }
}

/// Build the default copy engine for a mechanism.
pub fn engine_for(mechanism: IntranodeMechanism) -> Box<dyn CopyEngine + Send> {
    match mechanism {
        IntranodeMechanism::Pip => Box::new(pip::PipCopyEngine::new()),
        IntranodeMechanism::PosixShmem => Box::new(posix_shmem::PosixShmemEngine::default()),
        IntranodeMechanism::Cma => Box::new(cma::CmaEngine::new()),
        IntranodeMechanism::Xpmem => Box::new(xpmem::XpmemEngine::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_for_returns_matching_mechanism() {
        for mechanism in IntranodeMechanism::ALL {
            let engine = engine_for(mechanism);
            assert_eq!(engine.mechanism(), mechanism);
        }
    }

    #[test]
    fn all_engines_copy_correctly() {
        let src: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for mechanism in IntranodeMechanism::ALL {
            let mut engine = engine_for(mechanism);
            let mut dst = vec![0u8; src.len()];
            let stats = engine.copy(&src, &mut dst);
            assert_eq!(dst, src, "{mechanism:?} corrupted data");
            assert!(stats.bytes_moved >= src.len());
        }
    }
}
