//! Per-link residual channel-error models: independent and bursty.
//!
//! The Hydra channel in [`crate::channel`] models the *shared*
//! medium: every receiver in a collision domain draws from one stream
//! and the error probability is a function of SNR and airtime alone.
//! Real links also carry *residual* error that is link-local and often
//! bursty — interference, shadowing, a microwave oven. This module
//! models that residue per directed link with a [`LinkErrorModel`]:
//!
//! * [`LinkErrorModel::Independent`] — every transmission on the link
//!   corrupts each subframe independently with probability `ber`;
//! * [`LinkErrorModel::GilbertElliott`] — the classic two-state burst
//!   model. The link sits in a *good* or *bad* state; each
//!   transmission first advances the state (good→bad with `p_gb`,
//!   bad→good with `p_bg`), then corrupts each subframe with the
//!   current state's error probability.
//!
//! The model is exactly solvable, which makes it a test oracle:
//!
//! * stationary bad-state probability `π_b = p_gb / (p_gb + p_bg)`;
//! * stationary loss `π_b·ber_bad + π_g·ber_good`
//!   ([`LinkErrorModel::stationary_loss`]);
//! * bad-state sojourns are geometric with mean `1/p_bg` transmissions
//!   ([`LinkErrorModel::mean_burst_len`]).
//!
//! Determinism: each link runs its own [`LinkErrorState`] over an
//! [`Rng`] stream derived statelessly from a root seed and the link id
//! (see [`link_stream`]), so draws on one link never perturb another
//! link's stream, and a world that carries traffic on only a subset of
//! links reproduces each of those links' streams bit-for-bit.

use hydra_sim::rng::stream_seed;
use hydra_sim::Rng;

use crate::channel::{ChannelModel, SubframeCtx};

/// Stream id of the link-error root within a world's seed space (the
/// ASCII bytes `"LINK"`), kept clear of the MAC (`i + 1`) and channel
/// (`0xC0DE + c`) fork streams.
pub const LINK_ERROR_STREAM: u64 = 0x4C49_4E4B;

/// A per-link residual error model (applied on top of the shared Hydra
/// channel).
///
/// `ber_*` values are per-subframe corruption probabilities in `0..=1`
/// (the *block* error ratio of one subframe in that state); the state
/// machine advances once per transmission on the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkErrorModel {
    /// Memoryless: every subframe corrupts with probability `ber`.
    Independent {
        /// Per-subframe corruption probability.
        ber: f64,
    },
    /// Two-state bursty (Gilbert–Elliott) error process.
    GilbertElliott {
        /// Good→bad transition probability per transmission.
        p_gb: f64,
        /// Bad→good transition probability per transmission.
        p_bg: f64,
        /// Per-subframe corruption probability in the good state.
        ber_good: f64,
        /// Per-subframe corruption probability in the bad state.
        ber_bad: f64,
    },
}

impl LinkErrorModel {
    /// Stationary probability of the bad state, `π_b = p_gb / (p_gb + p_bg)`
    /// (0 for [`LinkErrorModel::Independent`], or when both transition
    /// probabilities are 0).
    pub fn stationary_bad(&self) -> f64 {
        match *self {
            LinkErrorModel::Independent { .. } => 0.0,
            LinkErrorModel::GilbertElliott { p_gb, p_bg, .. } => {
                if p_gb + p_bg <= 0.0 {
                    0.0
                } else {
                    p_gb / (p_gb + p_bg)
                }
            }
        }
    }

    /// The stationary per-subframe loss probability — the analytical
    /// oracle `π_b·ber_bad + π_g·ber_good` (just `ber` for the
    /// independent model).
    pub fn stationary_loss(&self) -> f64 {
        match *self {
            LinkErrorModel::Independent { ber } => ber,
            LinkErrorModel::GilbertElliott { ber_good, ber_bad, .. } => {
                let pi_b = self.stationary_bad();
                pi_b * ber_bad + (1.0 - pi_b) * ber_good
            }
        }
    }

    /// Mean bad-state sojourn in transmissions, `1/p_bg` (bad-state
    /// dwell times are geometric). `None` for the independent model or
    /// when the bad state is absorbing (`p_bg == 0`).
    pub fn mean_burst_len(&self) -> Option<f64> {
        match *self {
            LinkErrorModel::Independent { .. } => None,
            LinkErrorModel::GilbertElliott { p_bg, .. } => (p_bg > 0.0).then(|| 1.0 / p_bg),
        }
    }
}

/// Seed of one directed link's error stream: statelessly derived from
/// the world's link-error root and the packed link id, so stream
/// creation order (and which links a restricted world simulates) cannot
/// change any link's draws.
pub fn link_stream(root: u64, tx: usize, rx: usize) -> u64 {
    stream_seed(root, ((tx as u64) << 32) | rx as u64)
}

/// The running error state of one directed link.
#[derive(Debug, Clone)]
pub struct LinkErrorState {
    model: LinkErrorModel,
    /// This link's private RNG stream (state transitions *and*
    /// corruption draws), isolated from every other link and from the
    /// shared channel streams.
    pub rng: Rng,
    /// Current Gilbert–Elliott state (always false for independent).
    bad: bool,
}

impl LinkErrorState {
    /// A fresh link state in the good state, drawing from the stream
    /// derived via [`link_stream`].
    pub fn new(model: LinkErrorModel, root: u64, tx: usize, rx: usize) -> Self {
        LinkErrorState { model, rng: Rng::seed_from_u64(link_stream(root, tx, rx)), bad: false }
    }

    /// Advances the state machine by one transmission and returns the
    /// per-subframe corruption probability now in force. Gilbert–Elliott
    /// consumes exactly one RNG draw per call; the independent model
    /// consumes none (its probability never changes).
    pub fn begin_frame(&mut self) -> f64 {
        match self.model {
            LinkErrorModel::Independent { ber } => ber,
            LinkErrorModel::GilbertElliott { p_gb, p_bg, ber_good, ber_bad } => {
                let flip = self.rng.chance(if self.bad { p_bg } else { p_gb });
                if flip {
                    self.bad = !self.bad;
                }
                if self.bad {
                    ber_bad
                } else {
                    ber_good
                }
            }
        }
    }
}

/// One transmission's link-error pass: a [`ChannelModel`] that corrupts
/// every subframe with the fixed probability a [`LinkErrorState`]
/// returned from [`LinkErrorState::begin_frame`]. Drive it through
/// [`crate::apply_channel`] with the *link's* RNG to reuse the
/// copy-on-corrupt machinery.
#[derive(Debug, Clone, Copy)]
pub struct LinkErrorPass {
    /// Per-subframe corruption probability for this transmission.
    pub p: f64,
}

impl ChannelModel for LinkErrorPass {
    fn subframe_corrupt(&mut self, _ctx: &SubframeCtx, rng: &mut Rng) -> bool {
        rng.chance(self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GE: LinkErrorModel =
        LinkErrorModel::GilbertElliott { p_gb: 0.05, p_bg: 0.45, ber_good: 0.01, ber_bad: 0.6 };

    #[test]
    fn stationary_math_matches_hand_calculation() {
        // π_b = 0.05 / 0.5 = 0.1; loss = 0.1·0.6 + 0.9·0.01 = 0.069.
        assert!((GE.stationary_bad() - 0.1).abs() < 1e-12);
        assert!((GE.stationary_loss() - 0.069).abs() < 1e-12);
        assert_eq!(GE.mean_burst_len(), Some(1.0 / 0.45));
        assert_eq!(LinkErrorModel::Independent { ber: 0.25 }.stationary_loss(), 0.25);
        assert_eq!(LinkErrorModel::Independent { ber: 0.25 }.mean_burst_len(), None);
    }

    /// Satellite oracle 1: empirical loss over ≥10k transmissions
    /// converges to the stationary loss `π_b·ber_bad + π_g·ber_good`.
    #[test]
    fn empirical_loss_converges_to_stationary_loss() {
        const FRAMES: usize = 50_000;
        for seed in [1u64, 7, 42] {
            let mut st = LinkErrorState::new(GE, seed, 0, 1);
            let mut hits = 0usize;
            for _ in 0..FRAMES {
                let p = st.begin_frame();
                // One corruption decision per transmission: the loss
                // rate is then exactly the stationary loss.
                if st.rng.chance(p) {
                    hits += 1;
                }
            }
            let empirical = hits as f64 / FRAMES as f64;
            let oracle = GE.stationary_loss();
            // σ ≈ √(p(1-p)/n) ≈ 0.0011; 5σ keeps the test quiet.
            assert!(
                (empirical - oracle).abs() < 0.006,
                "seed {seed}: empirical {empirical} vs oracle {oracle}"
            );
        }
    }

    /// Satellite oracle 2: bad-state sojourns are geometric with mean
    /// `1/p_bg` transmissions.
    #[test]
    fn burst_lengths_are_geometric_with_mean_inverse_p_bg() {
        const FRAMES: usize = 100_000;
        let mut st = LinkErrorState::new(GE, 3, 0, 1);
        let mut bursts: Vec<usize> = Vec::new();
        let mut run = 0usize;
        for _ in 0..FRAMES {
            st.begin_frame();
            if st.bad {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        assert!(bursts.len() > 1_000, "expected thousands of bursts, got {}", bursts.len());
        let mean = bursts.iter().sum::<usize>() as f64 / bursts.len() as f64;
        let oracle = GE.mean_burst_len().unwrap();
        assert!((mean - oracle).abs() / oracle < 0.1, "mean burst {mean} vs oracle {oracle}");
        // Geometric shape check: P(L > k) = (1 - p_bg)^k. Compare the
        // empirical survivor function at a few depths.
        for k in [1usize, 2, 4] {
            let emp = bursts.iter().filter(|&&l| l > k).count() as f64 / bursts.len() as f64;
            let exact = (1.0 - 0.45f64).powi(k as i32);
            assert!((emp - exact).abs() < 0.03, "survivor at {k}: {emp} vs {exact}");
        }
    }

    /// Satellite oracle 3: `Independent { ber }` is the equal-state
    /// Gilbert–Elliott chain — the probability sequence is identical.
    #[test]
    fn independent_equals_equal_state_gilbert_elliott() {
        let ber = 0.07;
        let mut ind = LinkErrorState::new(LinkErrorModel::Independent { ber }, 9, 2, 3);
        let mut ge = LinkErrorState::new(
            LinkErrorModel::GilbertElliott { p_gb: 0.3, p_bg: 0.7, ber_good: ber, ber_bad: ber },
            9,
            2,
            3,
        );
        for _ in 0..10_000 {
            assert_eq!(ind.begin_frame(), ber);
            assert_eq!(ge.begin_frame(), ber);
        }
        assert!((ge.model.stationary_loss() - ber).abs() < 1e-12);
    }

    /// Per-link streams are isolated: however much one link draws, a
    /// different link's stream replays bit-for-bit.
    #[test]
    fn link_streams_are_isolated() {
        let root = 0xFEED;
        let reference: Vec<u64> = {
            let mut b = LinkErrorState::new(GE, root, 4, 5);
            (0..64).map(|_| b.rng.next_u64()).collect()
        };
        for a_draws in [0usize, 1, 1000] {
            let mut a = LinkErrorState::new(GE, root, 0, 1);
            for _ in 0..a_draws {
                a.begin_frame();
            }
            let mut b = LinkErrorState::new(GE, root, 4, 5);
            let replay: Vec<u64> = (0..64).map(|_| b.rng.next_u64()).collect();
            assert_eq!(replay, reference, "link (4,5) perturbed by {a_draws} draws on (0,1)");
        }
        // Directionality: (tx, rx) and (rx, tx) are distinct streams.
        assert_ne!(link_stream(root, 0, 1), link_stream(root, 1, 0));
    }
}
