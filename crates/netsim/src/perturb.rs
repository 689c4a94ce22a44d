//! Deterministic fault and variability injection for the simulation plane.
//!
//! A [`Perturbation`] describes a degraded fabric: straggling ranks, noisy
//! links, and lossy links with a retry budget.  It is carried through
//! [`crate::engine::RunOptions`] and applied identically by the
//! calendar-queue engine — whose one event loop also runs the folded
//! replay when the config is node-symmetric — and the seed reference
//! engine, so every path stays differentially pinned under every config.
//!
//! ## Determinism
//!
//! Nothing here keeps mutable random state.  Every draw is a pure hash of
//! the config seed plus *static* identifiers of the thing being perturbed:
//!
//! * straggler draws hash `(seed, rank)`;
//! * link draws hash `(seed, source node, destination node)`;
//! * drop draws hash `(seed, sender rank, program counter, attempt)`.
//!
//! The two engines process events in different orders (the calendar engine
//! chains rank-local ops inline; the heap engine round-trips every op), but
//! since no draw depends on processing order they compute bit-identical
//! values, which is what lets the chaos-differential suite assert exact
//! equality of makespans, per-rank finish times and retry counts.

use pip_transport::cost::Nanos;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash `(seed, domain, keys...)` to a uniform draw in `[0, 1)`.
#[inline]
fn draw(seed: u64, domain: u64, keys: &[u64]) -> f64 {
    let mut h = mix(seed ^ domain);
    for &k in keys {
        h = mix(h ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    // 53 mantissa bits -> [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const DOMAIN_STRAGGLER_PICK: u64 = 0x5354_5241_4747_4c31;
const DOMAIN_STRAGGLER_DELAY: u64 = 0x5354_5241_4747_4c32;
const DOMAIN_LINK_LATENCY: u64 = 0x4c49_4e4b_4c41_5431;
const DOMAIN_LINK_OCCUPANCY: u64 = 0x4c49_4e4b_4f43_4331;
const DOMAIN_DROP: u64 = 0x4452_4f50_4452_4f50;

/// Per-rank straggler injection: a subset of ranks starts late and/or
/// computes slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// Fraction of ranks afflicted, drawn per rank from the seed.
    /// `1.0` afflicts every rank (the node-symmetric case); `0.0` none.
    pub fraction: f64,
    /// Fixed start delay added to every afflicted rank, in ns.
    pub start_delay: Nanos,
    /// Upper bound of an extra per-rank uniformly drawn start delay, in ns.
    pub start_delay_jitter: Nanos,
    /// Stretch factor (>= 1.0) applied to every [`crate::trace::TraceOp::Compute`]
    /// interval of an afflicted rank.  Values below 1.0 are treated as 1.0.
    pub compute_slowdown: f64,
}

impl StragglerSpec {
    /// No stragglers.
    pub const NONE: Self = Self {
        fraction: 0.0,
        start_delay: 0.0,
        start_delay_jitter: 0.0,
        compute_slowdown: 1.0,
    };

    /// True when the spec cannot change any timestamp.
    pub fn is_inert(&self) -> bool {
        self.fraction <= 0.0
            || (self.start_delay <= 0.0
                && self.start_delay_jitter <= 0.0
                && self.compute_slowdown <= 1.0)
    }

    /// True when every node experiences identical straggling: either inert,
    /// or every rank afflicted with a deterministic (jitter-free) delay.
    pub fn is_node_symmetric(&self) -> bool {
        self.is_inert() || (self.fraction >= 1.0 && self.start_delay_jitter <= 0.0)
    }
}

/// Per-link latency and bandwidth degradation, keyed by the directed
/// `(source node, destination node)` pair.  Intra-node traffic bypasses the
/// NIC and is never affected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Fixed extra wire latency on every internode link, in ns.
    pub latency_pad: Nanos,
    /// Upper bound of a per-link latency offset drawn per directed node
    /// pair, in ns.
    pub latency_jitter: Nanos,
    /// Uniform bandwidth derating: NIC occupancy of every internode message
    /// is multiplied by this factor (>= 1.0; below 1.0 is treated as 1.0).
    pub occupancy_factor: f64,
    /// Upper bound of an extra per-link occupancy multiplier: a link's
    /// total factor is `occupancy_factor * (1 + u * occupancy_jitter)` with
    /// `u` drawn uniformly from `[0, 1)` per directed node pair.
    pub occupancy_jitter: f64,
}

impl LinkSpec {
    /// Healthy links.
    pub const NONE: Self = Self {
        latency_pad: 0.0,
        latency_jitter: 0.0,
        occupancy_factor: 1.0,
        occupancy_jitter: 0.0,
    };

    /// True when the spec cannot change any timestamp.
    pub fn is_inert(&self) -> bool {
        self.latency_pad <= 0.0
            && self.latency_jitter <= 0.0
            && self.occupancy_factor <= 1.0
            && self.occupancy_jitter <= 0.0
    }

    /// True when every link degrades identically (no per-link draws).
    pub fn is_node_symmetric(&self) -> bool {
        self.latency_jitter <= 0.0 && self.occupancy_jitter <= 0.0
    }
}

/// Probabilistic per-message transmission loss with sender-side retry,
/// timeout and exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropSpec {
    /// Probability that one transmission attempt of an internode message is
    /// lost, drawn independently per attempt.
    pub rate: f64,
    /// Retry budget: retransmissions attempted after the first loss.  Once
    /// `max_retries + 1` attempts have all been lost the message is
    /// undeliverable and the run reports a structured
    /// [`crate::engine::SimFailure`].
    pub max_retries: u32,
    /// Sender-side timeout before the first retransmission, in ns.
    pub timeout: Nanos,
    /// Multiplier applied to the timeout after every further loss
    /// (>= 1.0; below 1.0 is treated as 1.0).
    pub backoff: f64,
}

impl DropSpec {
    /// Lossless links.
    pub const NONE: Self = Self {
        rate: 0.0,
        max_retries: 0,
        timeout: 0.0,
        backoff: 1.0,
    };

    /// True when no message can ever be lost.
    pub fn is_inert(&self) -> bool {
        self.rate <= 0.0
    }

    /// Drops are per-message draws, so any active drop spec breaks node
    /// symmetry.
    pub fn is_node_symmetric(&self) -> bool {
        self.is_inert()
    }
}

/// A seeded, deterministic description of a degraded fabric.
///
/// Attach one to a run via
/// [`RunOptions::with_perturbation`](crate::engine::RunOptions::with_perturbation).
/// The same config and seed reproduce the same simulation bit for bit on
/// every engine path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// Seed for every random draw.  Two runs with the same seed are
    /// identical; different seeds redraw every straggler, link and drop.
    pub seed: u64,
    /// Straggling ranks.
    pub straggler: StragglerSpec,
    /// Degraded links.
    pub link: LinkSpec,
    /// Lossy links.
    pub drop: DropSpec,
}

/// The fate of one internode message under the drop model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendFate {
    /// Whether any attempt within the retry budget succeeded.
    pub delivered: bool,
    /// Retransmissions performed (0 when the first attempt succeeded; the
    /// full `max_retries` when the message was never delivered).
    pub retries: u32,
}

impl Perturbation {
    /// A perturbation that changes nothing (useful as a baseline config).
    pub const NONE: Self = Self {
        seed: 0,
        straggler: StragglerSpec::NONE,
        link: LinkSpec::NONE,
        drop: DropSpec::NONE,
    };

    /// True when the config cannot change any timestamp or drop any
    /// message — a zero-magnitude config reproduces the unperturbed run
    /// exactly.
    pub fn is_identity(&self) -> bool {
        self.straggler.is_inert() && self.link.is_inert() && self.drop.is_inert()
    }

    /// True when every node experiences an identical fabric, which is the
    /// condition for folded replay to stay exact: uniform stragglers,
    /// uniform link derating, and no drops.
    pub fn is_node_symmetric(&self) -> bool {
        self.straggler.is_node_symmetric()
            && self.link.is_node_symmetric()
            && self.drop.is_node_symmetric()
    }

    /// Whether `rank` is afflicted by the straggler spec.
    pub fn rank_is_straggler(&self, rank: usize) -> bool {
        if self.straggler.fraction >= 1.0 {
            true
        } else if self.straggler.fraction <= 0.0 {
            false
        } else {
            draw(self.seed, DOMAIN_STRAGGLER_PICK, &[rank as u64]) < self.straggler.fraction
        }
    }

    /// Start delay injected before `rank`'s first operation, in ns.
    pub fn rank_start_delay(&self, rank: usize) -> Nanos {
        if !self.rank_is_straggler(rank) {
            return 0.0;
        }
        let base = self.straggler.start_delay.max(0.0);
        if self.straggler.start_delay_jitter > 0.0 {
            base + draw(self.seed, DOMAIN_STRAGGLER_DELAY, &[rank as u64])
                * self.straggler.start_delay_jitter
        } else {
            base
        }
    }

    /// Compute-stretch factor for `rank` (1.0 when unafflicted).
    pub fn rank_compute_slowdown(&self, rank: usize) -> f64 {
        if self.straggler.compute_slowdown > 1.0 && self.rank_is_straggler(rank) {
            self.straggler.compute_slowdown
        } else {
            1.0
        }
    }

    /// Extra wire latency on the directed link `src_node -> dst_node`, in ns.
    pub fn link_latency_extra(&self, src_node: usize, dst_node: usize) -> Nanos {
        let pad = self.link.latency_pad.max(0.0);
        if self.link.latency_jitter > 0.0 {
            pad + draw(
                self.seed,
                DOMAIN_LINK_LATENCY,
                &[src_node as u64, dst_node as u64],
            ) * self.link.latency_jitter
        } else {
            pad
        }
    }

    /// NIC-occupancy multiplier for the directed link `src_node -> dst_node`.
    pub fn link_occupancy_factor(&self, src_node: usize, dst_node: usize) -> f64 {
        let base = if self.link.occupancy_factor > 1.0 {
            self.link.occupancy_factor
        } else {
            1.0
        };
        if self.link.occupancy_jitter > 0.0 {
            base * (1.0
                + draw(
                    self.seed,
                    DOMAIN_LINK_OCCUPANCY,
                    &[src_node as u64, dst_node as u64],
                ) * self.link.occupancy_jitter)
        } else {
            base
        }
    }

    /// The fate of the internode message the sender `rank` posts at program
    /// counter `pc`: attempts are drawn independently until one succeeds or
    /// the retry budget is exhausted.
    pub fn send_fate(&self, rank: usize, pc: usize) -> SendFate {
        if self.drop.is_inert() {
            return SendFate {
                delivered: true,
                retries: 0,
            };
        }
        for attempt in 0..=self.drop.max_retries {
            let lost = self.rate_covers(rank, pc, attempt);
            if !lost {
                return SendFate {
                    delivered: true,
                    retries: attempt,
                };
            }
        }
        SendFate {
            delivered: false,
            retries: self.drop.max_retries,
        }
    }

    /// Whether attempt number `attempt` of the message `(rank, pc)` is lost.
    fn rate_covers(&self, rank: usize, pc: usize, attempt: u32) -> bool {
        if self.drop.rate >= 1.0 {
            return true;
        }
        draw(
            self.seed,
            DOMAIN_DROP,
            &[rank as u64, pc as u64, attempt as u64],
        ) < self.drop.rate
    }
}

// ---------------------------------------------------------------------------
// Engine-side precomputed state
// ---------------------------------------------------------------------------

/// Per-run perturbation state shared by both engines.
///
/// Precomputes the per-rank straggler draws and caches activity flags so the
/// unperturbed hot path pays a predictable branch and nothing else.  Both
/// engines go through these methods with the same arguments, so the
/// arithmetic — and therefore every timestamp — is identical by
/// construction.
#[derive(Debug)]
pub(crate) struct PerturbState {
    config: Option<Perturbation>,
    /// `(start delay, compute slowdown)` per rank; empty when no straggler
    /// spec is active.
    stragglers: Vec<(Nanos, f64)>,
    link_latency: bool,
    link_occupancy: bool,
    drops: bool,
}

impl PerturbState {
    pub(crate) fn new(config: Option<&Perturbation>, world: usize) -> Self {
        let stragglers = match config {
            Some(p) if !p.straggler.is_inert() => (0..world)
                .map(|rank| (p.rank_start_delay(rank), p.rank_compute_slowdown(rank)))
                .collect(),
            _ => Vec::new(),
        };
        Self {
            config: config.copied(),
            stragglers,
            link_latency: config
                .is_some_and(|p| p.link.latency_pad > 0.0 || p.link.latency_jitter > 0.0),
            link_occupancy: config
                .is_some_and(|p| p.link.occupancy_factor > 1.0 || p.link.occupancy_jitter > 0.0),
            drops: config.is_some_and(|p| !p.drop.is_inert()),
        }
    }

    /// Start delay of `rank`, in ns.
    #[inline]
    pub(crate) fn start_delay(&self, rank: usize) -> Nanos {
        self.stragglers.get(rank).map_or(0.0, |s| s.0)
    }

    /// `(busy, extra)` for a compute interval of `nanos` on `rank`: the
    /// stretched duration and the straggler-induced inflation.
    #[inline]
    pub(crate) fn compute(&self, rank: usize, nanos: Nanos) -> (Nanos, Nanos) {
        let busy = nanos.max(0.0);
        match self.stragglers.get(rank) {
            Some(&(_, factor)) if factor > 1.0 => {
                let slowed = busy * factor;
                (slowed, slowed - busy)
            }
            _ => (busy, 0.0),
        }
    }

    /// NIC occupancy for a message on the directed link
    /// `src_node -> dst_node`, after bandwidth derating.
    #[inline]
    pub(crate) fn occupancy(&self, base: Nanos, src_node: usize, dst_node: usize) -> Nanos {
        if !self.link_occupancy {
            return base;
        }
        let p = self.config.as_ref().expect("flag implies config");
        base * p.link_occupancy_factor(src_node, dst_node)
    }

    /// Extra wire latency on the directed link `src_node -> dst_node`.
    #[inline]
    pub(crate) fn extra_latency(&self, src_node: usize, dst_node: usize) -> Nanos {
        if !self.link_latency {
            return 0.0;
        }
        self.config
            .as_ref()
            .expect("flag implies config")
            .link_latency_extra(src_node, dst_node)
    }

    /// The drop-model fate of the message `(rank, pc)`.
    #[inline]
    pub(crate) fn send_fate(&self, rank: usize, pc: usize) -> SendFate {
        if !self.drops {
            return SendFate {
                delivered: true,
                retries: 0,
            };
        }
        self.config
            .as_ref()
            .expect("flag implies config")
            .send_fate(rank, pc)
    }

    /// Serialize `retries` retransmissions after the first injection ends
    /// at `first_tx_end`: each waits out the (exponentially backed-off)
    /// timeout and then re-occupies the adapter for `occupancy`.  Returns
    /// the injection-complete time of the final attempt.
    #[inline]
    pub(crate) fn retransmit_chain(
        &self,
        first_tx_end: Nanos,
        occupancy: Nanos,
        retries: u32,
    ) -> Nanos {
        if retries == 0 {
            return first_tx_end;
        }
        let p = self.config.as_ref().expect("retries imply config");
        let backoff = p.drop.backoff.max(1.0);
        let mut wait = p.drop.timeout.max(0.0);
        let mut tx_end = first_tx_end;
        for _ in 0..retries {
            tx_end += wait + occupancy;
            wait *= backoff;
        }
        tx_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Perturbation {
        Perturbation {
            seed: 42,
            ..Perturbation::NONE
        }
    }

    #[test]
    fn identity_config_is_identity_and_symmetric() {
        assert!(Perturbation::NONE.is_identity());
        assert!(Perturbation::NONE.is_node_symmetric());
        // Zero magnitudes stay inert even with everything "enabled".
        let zero = Perturbation {
            seed: 7,
            straggler: StragglerSpec {
                fraction: 1.0,
                start_delay: 0.0,
                start_delay_jitter: 0.0,
                compute_slowdown: 1.0,
            },
            link: LinkSpec::NONE,
            drop: DropSpec {
                rate: 0.0,
                max_retries: 5,
                timeout: 1000.0,
                backoff: 2.0,
            },
        };
        assert!(zero.is_identity());
        assert!(zero.is_node_symmetric());
    }

    #[test]
    fn symmetry_classification_matches_the_draw_structure() {
        let mut p = base();
        p.straggler = StragglerSpec {
            fraction: 1.0,
            start_delay: 500.0,
            start_delay_jitter: 0.0,
            compute_slowdown: 1.5,
        };
        assert!(p.is_node_symmetric(), "uniform stragglers are symmetric");
        p.straggler.fraction = 0.5;
        assert!(!p.is_node_symmetric(), "per-rank picks break symmetry");
        p.straggler.fraction = 1.0;
        p.straggler.start_delay_jitter = 100.0;
        assert!(!p.is_node_symmetric(), "per-rank jitter breaks symmetry");

        let mut p = base();
        p.link.latency_pad = 250.0;
        p.link.occupancy_factor = 1.3;
        assert!(p.is_node_symmetric(), "uniform derating is symmetric");
        p.link.latency_jitter = 10.0;
        assert!(!p.is_node_symmetric(), "per-link jitter breaks symmetry");

        let mut p = base();
        p.drop.rate = 0.01;
        assert!(!p.is_node_symmetric(), "drops always break symmetry");
    }

    #[test]
    fn straggler_draws_are_deterministic_and_fraction_bounded() {
        let p = Perturbation {
            seed: 99,
            straggler: StragglerSpec {
                fraction: 0.25,
                start_delay: 1000.0,
                start_delay_jitter: 500.0,
                compute_slowdown: 2.0,
            },
            ..base()
        };
        let afflicted = (0..10_000).filter(|&r| p.rank_is_straggler(r)).count();
        // Uniform draws: expect ~2500, allow a generous band.
        assert!((2000..3000).contains(&afflicted), "got {afflicted}");
        for rank in 0..100 {
            assert_eq!(p.rank_start_delay(rank), p.rank_start_delay(rank));
            if p.rank_is_straggler(rank) {
                let d = p.rank_start_delay(rank);
                assert!((1000.0..1500.0).contains(&d));
                assert_eq!(p.rank_compute_slowdown(rank), 2.0);
            } else {
                assert_eq!(p.rank_start_delay(rank), 0.0);
                assert_eq!(p.rank_compute_slowdown(rank), 1.0);
            }
        }
    }

    #[test]
    fn mean_link_jitter_is_within_tolerance() {
        let p = Perturbation {
            seed: 3,
            link: LinkSpec {
                latency_pad: 100.0,
                latency_jitter: 1000.0,
                occupancy_factor: 1.0,
                occupancy_jitter: 0.2,
            },
            ..base()
        };
        let n = 10_000usize;
        let mean_latency: f64 =
            (0..n).map(|i| p.link_latency_extra(i, i + 1)).sum::<f64>() / n as f64;
        // Uniform over [100, 1100): mean 600 +- a few percent.
        assert!(
            (570.0..630.0).contains(&mean_latency),
            "mean latency {mean_latency}"
        );
        let mean_factor: f64 = (0..n)
            .map(|i| p.link_occupancy_factor(i, i + 1))
            .sum::<f64>()
            / n as f64;
        // Uniform over [1.0, 1.2): mean 1.1 +- a little.
        assert!((1.09..1.11).contains(&mean_factor), "mean {mean_factor}");
    }

    #[test]
    fn drop_rate_matches_first_attempt_loss_frequency() {
        let p = Perturbation {
            seed: 11,
            drop: DropSpec {
                rate: 0.1,
                max_retries: 4,
                timeout: 1000.0,
                backoff: 2.0,
            },
            ..base()
        };
        let n = 50_000usize;
        let retried = (0..n).filter(|&pc| p.send_fate(0, pc).retries > 0).count();
        let observed = retried as f64 / n as f64;
        assert!(
            (0.09..0.11).contains(&observed),
            "observed first-attempt loss rate {observed}"
        );
    }

    #[test]
    fn exhausted_budget_reports_undelivered_with_full_retries() {
        let p = Perturbation {
            seed: 1,
            drop: DropSpec {
                rate: 1.0,
                max_retries: 3,
                timeout: 500.0,
                backoff: 2.0,
            },
            ..base()
        };
        let fate = p.send_fate(4, 9);
        assert!(!fate.delivered);
        assert_eq!(fate.retries, 3);
    }

    #[test]
    fn retransmit_chain_applies_exponential_backoff() {
        let p = Perturbation {
            seed: 1,
            drop: DropSpec {
                rate: 0.5,
                max_retries: 8,
                timeout: 100.0,
                backoff: 2.0,
            },
            ..base()
        };
        let state = PerturbState::new(Some(&p), 1);
        // first_tx_end 1000, occupancy 10: retries wait 100 then 200.
        let t = state.retransmit_chain(1000.0, 10.0, 2);
        assert_eq!(t, 1000.0 + 100.0 + 10.0 + 200.0 + 10.0);
        assert_eq!(state.retransmit_chain(1000.0, 10.0, 0), 1000.0);
    }

    #[test]
    fn inert_state_returns_pass_through_values() {
        let state = PerturbState::new(None, 8);
        assert_eq!(state.start_delay(3), 0.0);
        assert_eq!(state.compute(3, 123.0), (123.0, 0.0));
        assert_eq!(state.occupancy(77.0, 0, 1), 77.0);
        assert_eq!(state.extra_latency(0, 1), 0.0);
        let fate = state.send_fate(0, 0);
        assert!(fate.delivered);
        assert_eq!(fate.retries, 0);
    }
}
