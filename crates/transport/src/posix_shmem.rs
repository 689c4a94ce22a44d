//! The POSIX shared-memory copy engine: the sender copies its payload into a
//! bounded shared segment, the receiver copies it back out — the double copy
//! the paper (and Parsons & Pai, IPDPS '14) identifies as the limiting factor
//! of SHMEM-based collectives for medium and large messages.
//!
//! Messages larger than the segment are pipelined through it in chunks,
//! exactly as an MPI implementation pipelines through its fixed-size copy
//! buffers.

use crate::cost::{CopyStats, IntranodeMechanism};
use crate::CopyEngine;

/// Default shared-segment (copy buffer) size: 64 KiB per peer pair, the
/// common default of MPICH/Open MPI shared-memory BTLs.
pub const DEFAULT_SEGMENT_BYTES: usize = 64 * 1024;

/// Functional model of a POSIX-SHMEM transfer.
#[derive(Debug, Clone)]
pub struct PosixShmemEngine {
    segment: Vec<u8>,
}

impl Default for PosixShmemEngine {
    fn default() -> Self {
        Self::with_segment_size(DEFAULT_SEGMENT_BYTES)
    }
}

impl PosixShmemEngine {
    /// Create an engine whose shared segment holds `segment_bytes` bytes.
    pub fn with_segment_size(segment_bytes: usize) -> Self {
        assert!(segment_bytes > 0, "segment must be non-empty");
        Self {
            segment: vec![0u8; segment_bytes],
        }
    }
}

impl CopyEngine for PosixShmemEngine {
    fn mechanism(&self) -> IntranodeMechanism {
        IntranodeMechanism::PosixShmem
    }

    fn copy(&mut self, src: &[u8], dst: &mut [u8]) -> CopyStats {
        assert_eq!(src.len(), dst.len(), "SHMEM copy requires equal lengths");
        let chunk = self.segment.len();
        let mut stats = CopyStats::default();
        let mut offset = 0;
        while offset < src.len() {
            let len = chunk.min(src.len() - offset);
            // Copy-in: sender -> shared segment.
            self.segment[..len].copy_from_slice(&src[offset..offset + len]);
            // Copy-out: shared segment -> receiver.
            dst[offset..offset + len].copy_from_slice(&self.segment[..len]);
            stats.bytes_moved += 2 * len;
            stats.copies += 2;
            offset += len;
        }
        if src.is_empty() {
            // A zero-byte message still performs the handshake (no data).
            stats.copies = 2;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn double_copy_reported() {
        let mut engine = PosixShmemEngine::default();
        let src = vec![9u8; 1000];
        let mut dst = vec![0u8; 1000];
        let stats = engine.copy(&src, &mut dst);
        assert_eq!(dst, src);
        assert_eq!(stats.bytes_moved, 2000);
        assert_eq!(stats.copies, 2);
    }

    #[test]
    fn large_message_is_pipelined_through_segment() {
        let mut engine = PosixShmemEngine::with_segment_size(256);
        let src: Vec<u8> = (0..2000).map(|i| (i % 251) as u8).collect();
        let mut dst = vec![0u8; 2000];
        let stats = engine.copy(&src, &mut dst);
        assert_eq!(dst, src);
        // 2000 B through a 256 B segment: 8 chunks, copy-in + copy-out each.
        assert_eq!(stats.copies, 2 * 8);
    }

    #[test]
    fn message_smaller_than_segment_uses_one_round_trip() {
        let mut engine = PosixShmemEngine::with_segment_size(4096);
        let src = vec![1u8; 64];
        let mut dst = vec![0u8; 64];
        let stats = engine.copy(&src, &mut dst);
        assert_eq!(stats.copies, 2);
    }

    proptest! {
        #[test]
        fn prop_shmem_is_lossless(payload in proptest::collection::vec(any::<u8>(), 0..8192), segment in 1usize..1024) {
            let mut engine = PosixShmemEngine::with_segment_size(segment);
            let mut dst = vec![0u8; payload.len()];
            let stats = engine.copy(&payload, &mut dst);
            prop_assert_eq!(&dst, &payload);
            prop_assert_eq!(stats.bytes_moved, payload.len() * 2);
        }
    }
}
