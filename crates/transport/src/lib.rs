//! # pip-transport
//!
//! The data-movement substrates that PiP-MColl and its comparators are built
//! on.  Each mechanism is a **cost model** ([`IntranodeCost`]) that charges
//! the latency the mechanism would incur on the paper's testbed: system
//! calls for CMA, attach + page-fault costs for XPMEM, the double copy of
//! POSIX shared memory, and the plain load/store copy of PiP.  The
//! simulator prices every intra-node transfer with it.
//!
//! Beside the models, one **functional copy engine** per data path moves
//! real bytes the way the mechanism does: a single copy for PiP, CMA and
//! XPMEM ([`pip::SingleCopyEngine`]), and a double copy through a bounded
//! segment for POSIX-SHMEM ([`posix_shmem::PosixShmemEngine`]).
//!
//! The crate also hosts the [`netcard`] model — a LogGP-style description of
//! the Omni-Path adapter with separate *per-process* and *per-NIC* message
//! rate limits.  The gap between those two limits is exactly what the
//! paper's multi-object design exploits: a single sender process cannot
//! saturate the adapter's 97 M msg/s, but eighteen concurrent senders can.
//!
//! All costs are expressed in nanoseconds ([`Nanos`]) of simulated time.

#![forbid(unsafe_code)]

pub mod cost;
pub mod memcpy;
pub mod netcard;
pub mod pip;
pub mod posix_shmem;

pub use cost::{CopyStats, IntranodeCost, IntranodeMechanism, Nanos};
pub use netcard::{NicModel, NicParams};

/// A functional intra-node copy engine.
///
/// Engines move real bytes between buffers exactly the way the mechanism
/// they model would (single copy, double copy through a bounded segment)
/// and report what they did in a [`CopyStats`], which the tests use to check
/// that each mechanism performs the copy count its cost model charges.
pub trait CopyEngine {
    /// The mechanism this engine implements.
    fn mechanism(&self) -> IntranodeMechanism;

    /// Copy `src` into `dst` (same length) and report the work performed.
    fn copy(&mut self, src: &[u8], dst: &mut [u8]) -> CopyStats;
}

/// Build the default copy engine for a mechanism: POSIX-SHMEM stages
/// through a segment, every other mechanism moves the payload once.
pub fn engine_for(mechanism: IntranodeMechanism) -> Box<dyn CopyEngine + Send> {
    match mechanism {
        IntranodeMechanism::PosixShmem => Box::new(posix_shmem::PosixShmemEngine::default()),
        IntranodeMechanism::Pip | IntranodeMechanism::Cma | IntranodeMechanism::Xpmem => {
            Box::new(pip::SingleCopyEngine::new(mechanism))
        }
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
