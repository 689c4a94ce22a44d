//! Seeded input generation.  The program under test only ever sees the
//! buffers made here; the same seed gives the same buffers.

/// splitmix64: small, fast, and good enough to vary payloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A generator for one named sub-stream, independent of how many values
    /// other streams draw.
    pub fn fork(&self, stream: u64) -> Rng {
        Rng(Rng(self.0 ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64())
    }
}

/// `len` values on a grid of 1/64 in `[-8, 8)`.
///
/// Every sum of up to a few thousand such values is exact in `f32`, so a
/// reduction gives the same bits in whatever order an algorithm folds the
/// ranks, and results can be compared with the rank-order oracle exactly.
pub fn grid_values(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| ((rng.next_u64() % 1024) as f32 - 512.0) / 64.0)
        .collect()
}

/// `len` samples of a slowly varying signal (a sum of two sinusoids with
/// seeded amplitude, phase and period), rounded to a grid of 1/1024.
///
/// Smooth, so the Lorenzo-predictor codec of the compressed allreduce
/// quantizes rather than storing blocks verbatim; on a grid, so exact
/// reductions of 16 ranks still compare bit-for-bit with the oracle.
pub fn smooth_values(rng: &mut Rng, len: usize) -> Vec<f32> {
    let amp_a = 1.0 + 2.0 * rng.unit();
    let amp_b = 0.25 + 0.5 * rng.unit();
    let phase_a = std::f64::consts::TAU * rng.unit();
    let phase_b = std::f64::consts::TAU * rng.unit();
    let step_a = std::f64::consts::TAU / (4000.0 + 4000.0 * rng.unit());
    let step_b = std::f64::consts::TAU / (600.0 + 600.0 * rng.unit());
    (0..len)
        .map(|i| {
            let x = i as f64;
            let v = amp_a * (phase_a + step_a * x).sin() + amp_b * (phase_b + step_b * x).sin();
            ((v * 1024.0).round() / 1024.0) as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for make in [grid_values, smooth_values] {
            let a = make(&mut Rng::new(42), 1000);
            let b = make(&mut Rng::new(42), 1000);
            let c = make(&mut Rng::new(43), 1000);
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn forks_do_not_depend_on_draw_order() {
        let root = Rng::new(7);
        let mut early = root.fork(3);
        let mut other = root.fork(4);
        other.next_u64();
        let mut late = root.fork(3);
        assert_eq!(early.next_u64(), late.next_u64());
        assert_ne!(root.fork(3).next_u64(), root.fork(4).next_u64());
    }

    #[test]
    fn grid_sums_are_exact_in_any_order() {
        let mut rng = Rng::new(1);
        let ranks: Vec<Vec<f32>> = (0..16).map(|_| grid_values(&mut rng, 64)).collect();
        for i in 0..64 {
            let forward: f32 = ranks.iter().map(|r| r[i]).sum();
            let backward: f32 = ranks.iter().rev().map(|r| r[i]).sum();
            let pairwise: f32 = ranks.chunks(2).map(|pair| pair[0][i] + pair[1][i]).sum();
            assert_eq!(forward.to_bits(), backward.to_bits());
            assert_eq!(forward.to_bits(), pairwise.to_bits());
        }
    }

    #[test]
    fn smooth_values_stay_on_their_grid_and_in_range() {
        let values = smooth_values(&mut Rng::new(9), 4096);
        for v in values {
            assert!(v.abs() <= 4.0);
            assert_eq!((v * 1024.0).fract(), 0.0);
        }
    }
}
