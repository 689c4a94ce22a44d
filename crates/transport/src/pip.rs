//! The single-copy engine: one direct copy between two buffers, no staging.
//! That is PiP's transfer between peers in one (shared) address space, and
//! the data movement of CMA and XPMEM too — their kernel crossings, attach
//! and first-touch page faults are what [`IntranodeCost`] charges, not
//! extra passes over the payload.
//!
//! A transfer that needs no copy at all — a producer handing its buffer to
//! a consumer — is not a copy engine's business: the fabric moves the
//! owned vector (`Fabric::send`), which is the PiP "pass a pointer, not the
//! bytes" hand-off.
//!
//! [`IntranodeCost`]: crate::IntranodeCost

use crate::cost::{CopyStats, IntranodeMechanism};
use crate::CopyEngine;

/// Functional model of a single-copy transfer (PiP, CMA, XPMEM).
#[derive(Debug, Clone)]
pub struct SingleCopyEngine {
    mechanism: IntranodeMechanism,
}

impl SingleCopyEngine {
    /// A fresh engine for `mechanism`.
    ///
    /// # Panics
    ///
    /// If `mechanism` moves a payload more than once (POSIX-SHMEM).
    pub fn new(mechanism: IntranodeMechanism) -> Self {
        assert_eq!(
            mechanism.copies_per_transfer(),
            1,
            "{mechanism:?} is not a single-copy mechanism"
        );
        Self { mechanism }
    }
}

impl CopyEngine for SingleCopyEngine {
    fn mechanism(&self) -> IntranodeMechanism {
        self.mechanism
    }

    fn copy(&mut self, src: &[u8], dst: &mut [u8]) -> CopyStats {
        assert_eq!(src.len(), dst.len(), "single copy requires equal lengths");
        dst.copy_from_slice(src);
        CopyStats {
            bytes_moved: src.len(),
            copies: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntranodeCost;

    #[test]
    fn single_copy_no_syscalls() {
        let mut engine = SingleCopyEngine::new(IntranodeMechanism::Pip);
        let src = vec![3u8; 512];
        let mut dst = vec![0u8; 512];
        let stats = engine.copy(&src, &mut dst);
        assert_eq!(dst, src);
        assert_eq!(stats.copies, 1);
        assert_eq!(stats.bytes_moved, 512);
        let cost = IntranodeCost::defaults_for(engine.mechanism());
        assert_eq!(cost.syscalls_per_transfer, 0);
    }

    #[test]
    fn zero_length_copy_is_free_of_data() {
        let mut engine = SingleCopyEngine::new(IntranodeMechanism::Pip);
        let stats = engine.copy(&[], &mut []);
        assert_eq!(stats.bytes_moved, 0);
        assert_eq!(stats.copies, 1);
    }

    #[test]
    #[should_panic(expected = "not a single-copy mechanism")]
    fn a_double_copy_mechanism_is_rejected() {
        SingleCopyEngine::new(IntranodeMechanism::PosixShmem);
    }
}
