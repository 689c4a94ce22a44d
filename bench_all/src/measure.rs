//! Pieces every workload shares: the time box, set-up timing, and turning
//! iteration samples into the end-to-end metrics.

use std::time::Instant;

use crate::clock::Stopwatch;
use crate::stats::{block_spread, median, BLOCKS};
use crate::workloads::Metric;

/// Iterations of one measured phase: at most `max_iters`, and no new
/// iteration once `seconds` of wall time have passed — but never fewer than
/// `min_iters`, so a short box still yields a median.
pub struct TimeBox {
    started: Instant,
    seconds: f64,
    min_iters: usize,
    max_iters: usize,
    done: usize,
}

impl TimeBox {
    pub fn new(seconds: f64, min_iters: usize, max_iters: usize) -> Self {
        Self {
            started: Instant::now(),
            seconds,
            min_iters,
            max_iters: max_iters.max(min_iters),
            done: 0,
        }
    }

    /// Whether the box allows no further iteration.
    pub fn ended(&self) -> bool {
        self.done >= self.min_iters
            && (self.done >= self.max_iters || self.started.elapsed().as_secs_f64() >= self.seconds)
    }

    /// Whether to run another iteration; counts it if so.
    pub fn next(&mut self) -> bool {
        let go = !self.ended();
        if go {
            self.done += 1;
        }
        go
    }
}

/// Run `setup` `repeats` times, keeping the value of the last run, and
/// return the CPU time of each in seconds.  Set-up is repeated so that its
/// reported median is steadier than one cold pass.
pub fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    assert!(repeats > 0);
    let mut seconds = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        // Drop the previous world before building the next one, so peak
        // memory is one world's, not two.
        drop(last.take());
        let started = Stopwatch::start();
        last = Some(setup());
        seconds.push(started.cpu_ns() / 1e9);
    }
    (seconds, last.expect("at least one repeat"))
}

/// High-water mark of this process's resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time over CPU time of the same iterations: 1.0 on a machine that
/// left the run alone, 2.0 when it had the processor half of the time.
pub fn wall_over_cpu(cpu_ns: &[f64], wall_ns: &[f64]) -> f64 {
    wall_ns.iter().sum::<f64>() / cpu_ns.iter().sum::<f64>()
}

/// The line an untraced run prints about how disturbed it was.
pub fn disturbance_note(cpu_ns: &[f64], wall_ns: &[f64]) -> String {
    format!(
        "timings are CPU time; wall time of the same iterations was {:.3} x that \
         (median iteration {:.4} ms of wall time)",
        wall_over_cpu(cpu_ns, wall_ns),
        median(wall_ns) / 1e6
    )
}

/// The end-to-end metrics of an untraced run, in table order.
///
/// `setup_s` holds the CPU time of every set-up, `iter_ns` the CPU time of
/// every iteration in arrival order; `ops` is the number of operations those
/// iterations completed.
pub fn end_to_end_metrics(setup_s: &[f64], iter_ns: &[f64], ops: u64) -> Vec<Metric> {
    let per_iter = ops as f64 / iter_ns.len() as f64;
    let p50 = |block: &[f64]| median(block) / 1e6;
    let rate = |block: &[f64]| per_iter * block.len() as f64 / (block.iter().sum::<f64>() / 1e9);
    // Three blocks, so that the first, cold set-up does not decide the
    // spread on its own.
    let spread_of_setup = block_spread(setup_s, 3, median);
    let metric = |name, value, block_spread| Metric {
        name,
        value,
        block_spread,
    };
    vec![
        metric("setup_s", median(setup_s), spread_of_setup),
        metric(
            "iter_ms_p50",
            p50(iter_ns),
            block_spread(iter_ns, BLOCKS, p50),
        ),
        metric(
            "ops_per_s",
            rate(iter_ns),
            block_spread(iter_ns, BLOCKS, rate),
        ),
        metric("peak_rss_mb", peak_rss_mb(), 0.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_box_honours_floor_and_cap() {
        // No time at all: the floor still runs.
        let mut floor = TimeBox::new(0.0, 3, 10);
        assert_eq!(std::iter::from_fn(|| floor.next().then_some(())).count(), 3);
        assert!(floor.ended());
        // Plenty of time: the cap stops it.
        let mut cap = TimeBox::new(3600.0, 1, 4);
        assert!(!cap.ended());
        assert_eq!(std::iter::from_fn(|| cap.next().then_some(())).count(), 4);
        assert!(cap.ended());
    }

    #[test]
    fn setup_repeats_keep_the_last_value() {
        let mut built = 0;
        let (seconds, last) = repeat_setup(3, || {
            built += 1;
            built
        });
        assert_eq!(seconds.len(), 3);
        assert_eq!(last, 3);
    }

    #[test]
    fn end_to_end_metrics_follow_the_table() {
        // Ten iterations of 2 ms, three operations each.
        let metrics = end_to_end_metrics(&[0.5, 0.7, 0.6], &[2e6; 10], 30);
        let names: Vec<_> = metrics.iter().map(|m| m.name).collect();
        let table: Vec<_> = crate::workloads::END_TO_END
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, table);
        assert_eq!(metrics[0].value, 0.6);
        assert_eq!(metrics[1].value, 2.0);
        assert!((metrics[2].value - 1500.0).abs() < 1e-9);
        assert!(metrics[3].value > 0.0);
        assert_eq!(metrics[1].block_spread, 0.0);
    }

    #[test]
    fn disturbance_is_wall_over_cpu() {
        assert_eq!(wall_over_cpu(&[2.0, 2.0], &[3.0, 5.0]), 2.0);
        assert!(disturbance_note(&[1e6; 4], &[1.5e6; 4]).contains("1.500 x"));
    }
}
