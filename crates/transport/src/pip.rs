//! The PiP copy engine: a single direct copy between two buffers that live in
//! the same (shared) address space.  No staging, no system call, no
//! first-touch penalty beyond the ordinary memory system.
//!
//! A transfer that needs no copy at all — a producer handing its buffer to
//! a consumer — is not a copy engine's business: the fabric moves the
//! owned vector (`Fabric::send`), which is the PiP "pass a pointer, not the
//! bytes" hand-off.

use crate::cost::{CopyStats, IntranodeMechanism};
use crate::CopyEngine;

/// Functional model of a PiP peer-to-peer transfer.
#[derive(Debug, Default, Clone)]
pub struct PipCopyEngine {
    total: CopyStats,
}

impl PipCopyEngine {
    /// Create a fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative statistics over the engine's lifetime.
    pub fn totals(&self) -> CopyStats {
        self.total
    }
}

impl CopyEngine for PipCopyEngine {
    fn mechanism(&self) -> IntranodeMechanism {
        IntranodeMechanism::Pip
    }

    fn copy(&mut self, src: &[u8], dst: &mut [u8]) -> CopyStats {
        assert_eq!(src.len(), dst.len(), "PiP copy requires equal lengths");
        dst.copy_from_slice(src);
        let stats = CopyStats {
            bytes_moved: src.len(),
            copies: 1,
            syscalls: 0,
            page_faults: 0,
            staged_bytes: 0,
        };
        self.total.merge(&stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_copy_no_syscalls() {
        let mut engine = PipCopyEngine::new();
        let src = vec![3u8; 512];
        let mut dst = vec![0u8; 512];
        let stats = engine.copy(&src, &mut dst);
        assert_eq!(dst, src);
        assert_eq!(stats.copies, 1);
        assert_eq!(stats.syscalls, 0);
        assert_eq!(stats.staged_bytes, 0);
        assert_eq!(stats.bytes_moved, 512);
    }

    #[test]
    fn totals_accumulate() {
        let mut engine = PipCopyEngine::new();
        for _ in 0..4 {
            let src = vec![1u8; 100];
            let mut dst = vec![0u8; 100];
            engine.copy(&src, &mut dst);
        }
        assert_eq!(engine.totals().bytes_moved, 400);
        assert_eq!(engine.totals().copies, 4);
    }

    #[test]
    fn zero_length_copy_is_free_of_data() {
        let mut engine = PipCopyEngine::new();
        let stats = engine.copy(&[], &mut []);
        assert_eq!(stats.bytes_moved, 0);
        assert_eq!(stats.copies, 1);
    }
}
