//! A small memory-system model the simulator prices local work with:
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

    proptest! {
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
