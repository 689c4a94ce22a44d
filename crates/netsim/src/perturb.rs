//! Deterministic fault and variability injection for the simulation plane.
//!
//! A [`Perturbation`] describes a degraded fabric by two settings: per-link
//! latency jitter and lossy links with a retry budget.  It is carried
//! through [`crate::engine::RunOptions`] and applied identically by the
//! calendar-queue engine and the seed reference engine, so both stay
//! differentially pinned under every config.  Both settings draw per link
//! or per message, so a perturbed run is never node-symmetric: the folded
//! replay only ever runs unperturbed.
//!
//! ## Determinism
//!
//! Nothing here keeps mutable random state.  Every draw is a pure hash of
//! the config seed plus *static* identifiers of the thing being perturbed:
//!
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

const DOMAIN_LINK_LATENCY: u64 = 0x4c49_4e4b_4c41_5431;
const DOMAIN_DROP: u64 = 0x4452_4f50_4452_4f50;

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
    /// identical; different seeds redraw every link and drop.
    pub seed: u64,
    /// Upper bound of a per-link wire-latency offset, in ns, drawn
    /// uniformly per directed `(source node, destination node)` pair.
    /// Intra-node traffic bypasses the NIC and is never affected.
    pub latency_jitter: Nanos,
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
        latency_jitter: 0.0,
        drop: DropSpec::NONE,
    };

    /// True when the config cannot change any timestamp or drop any
    /// message — a zero-magnitude config reproduces the unperturbed run
    /// exactly.  Any other config draws per link or per message, so this
    /// is also the condition for a folded replay to stay exact.
    pub fn is_identity(&self) -> bool {
        self.latency_jitter <= 0.0 && self.drop.is_inert()
    }

    /// Extra wire latency on the directed link `src_node -> dst_node`, in ns.
    pub fn link_latency_extra(&self, src_node: usize, dst_node: usize) -> Nanos {
        if self.latency_jitter > 0.0 {
            draw(
                self.seed,
                DOMAIN_LINK_LATENCY,
                &[src_node as u64, dst_node as u64],
            ) * self.latency_jitter
        } else {
            0.0
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
/// Caches activity flags so the unperturbed hot path pays a predictable
/// branch and nothing else.  Both engines go through these methods with the
/// same arguments, so the arithmetic — and therefore every timestamp — is
/// identical by construction.
#[derive(Debug)]
pub(crate) struct PerturbState {
    config: Option<Perturbation>,
    link_latency: bool,
    drops: bool,
}

impl PerturbState {
    pub(crate) fn new(config: Option<&Perturbation>) -> Self {
        Self {
            config: config.copied(),
            link_latency: config.is_some_and(|p| p.latency_jitter > 0.0),
            drops: config.is_some_and(|p| !p.drop.is_inert()),
        }
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
        // The identity is the only node-symmetric config, so the only one
        // a folded replay accepts.
        assert!(Perturbation::NONE.is_identity());
        // Zero magnitudes stay inert even with a retry budget configured.
        let zero = Perturbation {
            seed: 7,
            latency_jitter: 0.0,
            drop: DropSpec {
                rate: 0.0,
                max_retries: 5,
                timeout: 1000.0,
                backoff: 2.0,
            },
        };
        assert!(zero.is_identity());
    }

    #[test]
    fn symmetry_classification_matches_the_draw_structure() {
        // Each setting draws per link or per message, so either one alone
        // distinguishes nodes.
        let mut p = base();
        p.latency_jitter = 10.0;
        assert!(!p.is_identity(), "per-link jitter breaks symmetry");
        let mut p = base();
        p.drop.rate = 0.01;
        assert!(!p.is_identity(), "drops always break symmetry");
    }

    #[test]
    fn mean_link_jitter_is_within_tolerance() {
        let p = Perturbation {
            seed: 3,
            latency_jitter: 1000.0,
            ..base()
        };
        let n = 10_000usize;
        let mean_latency: f64 =
            (0..n).map(|i| p.link_latency_extra(i, i + 1)).sum::<f64>() / n as f64;
        // Uniform over [0, 1000): mean 500 +- a few percent.
        assert!(
            (470.0..530.0).contains(&mean_latency),
            "mean latency {mean_latency}"
        );
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
        let state = PerturbState::new(Some(&p));
        // first_tx_end 1000, occupancy 10: retries wait 100 then 200.
        let t = state.retransmit_chain(1000.0, 10.0, 2);
        assert_eq!(t, 1000.0 + 100.0 + 10.0 + 200.0 + 10.0);
        assert_eq!(state.retransmit_chain(1000.0, 10.0, 0), 1000.0);
    }

    #[test]
    fn inert_state_returns_pass_through_values() {
        let state = PerturbState::new(None);
        assert_eq!(state.extra_latency(0, 1), 0.0);
        let fate = state.send_fate(0, 0);
        assert!(fate.delivered);
        assert_eq!(fate.retries, 0);
    }
}
