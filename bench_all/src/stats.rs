//! Order statistics for timing samples.

/// 1-based nearest-rank index of percentile `p` (0 < p <= 100) among `n`
/// sorted samples: the smallest rank with at least `p` % of the samples at
/// or below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p`.  A tail
/// percentile is only *resolved* with at least [`MIN_BEYOND`] of them.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The "at least ten samples beyond it" rule for reporting a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of unsorted `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Number of consecutive blocks a run's samples are split into to judge
/// whether the run itself was steady.
pub const BLOCKS: usize = 5;

/// `stat` of each of `blocks` consecutive, near-equal slices of `samples`
/// (in arrival order).  Fewer samples than blocks yields one block per
/// sample.
pub fn block_stats(samples: &[f64], blocks: usize, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let blocks = blocks.min(samples.len()).max(1);
    (0..blocks)
        .map(|b| {
            let lo = b * samples.len() / blocks;
            let hi = (b + 1) * samples.len() / blocks;
            stat(&samples[lo..hi])
        })
        .collect()
}

/// Spread of a run: (largest − smallest block statistic) ÷ the median of
/// the block statistics.  `compare` calls a metric *unresolved* when this
/// is wider than the metric's regression bound.
pub fn block_spread(samples: &[f64], blocks: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let stats = block_stats(samples, blocks, stat);
    let lo = stats.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = stats.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = median(&stats);
    if mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // Five samples: p50 is the 3rd, p90 and p100 the 5th, p20 the 1st.
        assert_eq!(nearest_rank(5, 50.0), 3);
        assert_eq!(nearest_rank(5, 90.0), 5);
        assert_eq!(nearest_rank(5, 100.0), 5);
        assert_eq!(nearest_rank(5, 20.0), 1);
        assert_eq!(nearest_rank(5, 21.0), 2);
        assert_eq!(nearest_rank(100, 90.0), 90);
        assert_eq!(nearest_rank(1, 99.0), 1);
    }

    #[test]
    fn percentile_picks_the_ranked_sample_regardless_of_order() {
        let samples = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 40.0), 3.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 needs 100 samples to leave ten above it; p99 needs 1000.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(samples_beyond(100, 90.0) >= MIN_BEYOND);
        assert!(samples_beyond(999, 99.0) < MIN_BEYOND);
        assert!(samples_beyond(1000, 99.0) >= MIN_BEYOND);
        assert_eq!(samples_beyond(7, 90.0), 0);
    }

    #[test]
    fn blocks_split_in_arrival_order() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            block_stats(&samples, 5, median),
            vec![1.0, 3.0, 5.0, 7.0, 9.0]
        );
        // Uneven split: 7 samples into 3 blocks of 2, 2 and 3.
        let samples: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(block_stats(&samples, 3, median), vec![1.0, 3.0, 6.0]);
        let longest = |block: &[f64]| block.len() as f64;
        assert_eq!(block_stats(&samples, 3, longest), vec![2.0, 2.0, 3.0]);
        // Fewer samples than blocks.
        assert_eq!(block_stats(&[4.0, 2.0], 5, median), vec![4.0, 2.0]);
    }

    #[test]
    fn block_spread_is_range_over_median_of_block_statistics() {
        // Block medians 10, 10, 11, 10, 12 -> (12 - 10) / 10.
        let samples = [10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 10.0, 10.0, 12.0, 12.0];
        assert!((block_spread(&samples, 5, median) - 0.2).abs() < 1e-12);
        assert_eq!(block_spread(&[3.0; 20], 5, median), 0.0);
        assert_eq!(block_spread(&[], 5, median), 0.0);
        // Any statistic: block maxima 1, 4 -> (4 - 1) / 1.
        let max = |block: &[f64]| block.iter().copied().fold(0.0, f64::max);
        assert_eq!(block_spread(&[1.0, 1.0, 4.0, 2.0], 2, max), 3.0);
    }
}
