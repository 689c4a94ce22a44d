//! A small memory-system model shared by the copy engines and the simulator:
//! piecewise copy bandwidth (cache-resident vs. DRAM-resident payloads) and
//! the cost of applying a reduction operator while streaming.

use crate::cost::Nanos;

/// Copy/streaming cost model for one core of the simulated node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemcpyModel {
    /// Fixed overhead of issuing any copy (function call, loop setup).
    pub base_latency: Nanos,
    /// Per-byte cost while the payload fits in the last-level cache.
    pub per_byte_cached: Nanos,
    /// Per-byte cost once the payload spills to DRAM.
    pub per_byte_dram: Nanos,
    /// Transfer size at which the DRAM rate takes over.
    pub llc_bytes: usize,
    /// Extra per-byte cost of applying an arithmetic reduction (e.g. f64 sum)
    /// while streaming, on top of the copy cost.
    pub per_byte_reduce: Nanos,
}

impl Default for MemcpyModel {
    fn default() -> Self {
        // Broadwell-class single core: ~13 GB/s DRAM copy, ~30 GB/s in LLC.
        Self {
            base_latency: 40.0,
            per_byte_cached: 0.033,
            per_byte_dram: 0.077,
            llc_bytes: 32 << 20,
            per_byte_reduce: 0.05,
        }
    }
}

impl MemcpyModel {
    /// Cost of copying `bytes` bytes once.
    pub fn copy_cost(&self, bytes: usize) -> Nanos {
        let per_byte = if bytes <= self.llc_bytes {
            self.per_byte_cached
        } else {
            self.per_byte_dram
        };
        self.base_latency + per_byte * bytes as Nanos
    }

    /// Cost of streaming `bytes` bytes through a reduction operator
    /// (read both operands, combine, write the result).
    pub fn reduce_cost(&self, bytes: usize) -> Nanos {
        self.copy_cost(bytes) + self.per_byte_reduce * bytes as Nanos
    }
}

/// Copy `src` into `dst` through chunks of at most `chunk` bytes, invoking
/// `per_chunk` before each chunk copy.  Returns the number of chunks.
///
/// The POSIX-SHMEM and CMA engines use this helper to reproduce the chunked
/// data paths of the real mechanisms (bounded shared segments, bounded iovec
/// batches).
pub fn copy_chunked(
    src: &[u8],
    dst: &mut [u8],
    chunk: usize,
    mut per_chunk: impl FnMut(usize),
) -> usize {
    assert_eq!(src.len(), dst.len(), "copy_chunked requires equal lengths");
    assert!(chunk > 0, "chunk size must be positive");
    let mut chunks = 0;
    let mut offset = 0;
    while offset < src.len() {
        let len = chunk.min(src.len() - offset);
        per_chunk(len);
        dst[offset..offset + len].copy_from_slice(&src[offset..offset + len]);
        offset += len;
        chunks += 1;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn copy_cost_grows_with_size() {
        let model = MemcpyModel::default();
        assert!(model.copy_cost(1024) < model.copy_cost(4096));
        assert!(model.copy_cost(0) >= model.base_latency);
    }

    #[test]
    fn dram_rate_applies_past_llc() {
        let model = MemcpyModel::default();
        let just_inside = model.copy_cost(model.llc_bytes);
        let just_outside = model.copy_cost(model.llc_bytes + 1);
        // Crossing the boundary switches to the slower per-byte rate, so the
        // whole payload becomes more expensive per byte.
        assert!(just_outside > just_inside);
    }

    #[test]
    fn reduce_costs_more_than_copy() {
        let model = MemcpyModel::default();
        assert!(model.reduce_cost(1 << 16) > model.copy_cost(1 << 16));
    }

    #[test]
    fn copy_chunked_copies_everything() {
        let src: Vec<u8> = (0..100u8).collect();
        let mut dst = vec![0u8; 100];
        let mut seen = Vec::new();
        let chunks = copy_chunked(&src, &mut dst, 32, |len| seen.push(len));
        assert_eq!(dst, src);
        assert_eq!(chunks, 4);
        assert_eq!(seen, vec![32, 32, 32, 4]);
    }

    #[test]
    fn copy_chunked_handles_exact_multiple() {
        let src = vec![7u8; 64];
        let mut dst = vec![0u8; 64];
        let chunks = copy_chunked(&src, &mut dst, 16, |_| {});
        assert_eq!(chunks, 4);
        assert_eq!(dst, src);
    }

    #[test]
    fn copy_chunked_empty_is_zero_chunks() {
        let chunks = copy_chunked(&[], &mut [], 16, |_| panic!("no chunks expected"));
        assert_eq!(chunks, 0);
    }

    proptest! {
        #[test]
        fn prop_chunked_copy_is_lossless(payload in proptest::collection::vec(any::<u8>(), 0..2048), chunk in 1usize..512) {
            let mut dst = vec![0u8; payload.len()];
            let chunks = copy_chunked(&payload, &mut dst, chunk, |_| {});
            prop_assert_eq!(&dst, &payload);
            prop_assert_eq!(chunks, payload.len().div_ceil(chunk));
        }

        #[test]
        fn prop_copy_cost_monotone(a in 0usize..(1 << 26), b in 0usize..(1 << 26)) {
            let model = MemcpyModel::default();
            let (small, large) = if a <= b { (a, b) } else { (b, a) };
            // Monotone within each regime; across the LLC boundary the DRAM
            // rate only ever makes the larger payload more expensive.
            prop_assert!(model.copy_cost(large) + 1e-9 >= model.copy_cost(small));
        }
    }
}
