//! Bit-error-rate models for the AWGN channel.
//!
//! Standard Gray-coded M-QAM BER approximations driven by the Gaussian
//! Q-function. These feed the per-subframe corruption decisions; at the
//! paper's operating point (25 dB link SNR minus implementation loss) the
//! experiment rates are quasi-lossless and 64-QAM is unusable, matching
//! the paper's observations.

use crate::rates::{Modulation, Rate};

/// The Gaussian Q-function via the complementary error function.
pub fn q(x: f64) -> f64 {
    0.5 * erfc(x / core::f64::consts::SQRT_2)
}

/// Complementary error function (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly =
        t * (0.254829592 + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Converts dB to linear power ratio.
fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Uncoded BER for a modulation at a given symbol SNR (linear).
fn uncoded_ber(modulation: Modulation, snr_linear: f64) -> f64 {
    match modulation {
        Modulation::Bpsk => q((2.0 * snr_linear).sqrt()),
        Modulation::Qpsk => q(snr_linear.sqrt()),
        Modulation::Qam16 | Modulation::Qam64 => {
            let m = modulation.points() as f64;
            let k = modulation.bits_per_symbol() as f64;
            (4.0 / k) * (1.0 - 1.0 / m.sqrt()) * q((3.0 * snr_linear / (m - 1.0)).sqrt())
        }
    }
}

/// Effective coded BER for a full rate at a link SNR in dB.
///
/// Approximates convolutional coding as an SNR gain (per-code-rate,
/// see [`crate::rates::CodeRate::coding_gain_db`]). Clamped to [0, 0.5].
pub fn coded_ber(rate: Rate, snr_db: f64) -> f64 {
    let eff_db = snr_db + rate.code_rate().coding_gain_db();
    let ber = uncoded_ber(rate.modulation(), db_to_linear(eff_db));
    ber.clamp(0.0, 0.5)
}

/// Probability that a block of `bits` bits contains at least one bit error.
pub fn block_error_prob(ber: f64, bits: u64) -> f64 {
    if ber <= 0.0 {
        return 0.0;
    }
    if ber >= 0.5 {
        return 1.0;
    }
    // 1 - (1-ber)^bits, computed in log space for numerical stability.
    1.0 - ((bits as f64) * (1.0 - ber).ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_function_known_values() {
        assert!((q(0.0) - 0.5).abs() < 1e-6);
        assert!((q(1.0) - 0.1587).abs() < 1e-3);
        assert!((q(3.0) - 0.00135).abs() < 1e-4);
        assert!(q(6.0) < 1e-8);
    }

    #[test]
    fn erfc_symmetry() {
        for x in [0.1, 0.5, 1.0, 2.0] {
            assert!((erfc(-x) + erfc(x) - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn ber_monotone_in_snr() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let low = uncoded_ber(m, db_to_linear(5.0));
            let high = uncoded_ber(m, db_to_linear(20.0));
            assert!(low > high, "{m:?}: {low} <= {high}");
        }
    }

    #[test]
    fn higher_order_modulation_is_worse() {
        let snr = db_to_linear(12.0);
        assert!(uncoded_ber(Modulation::Bpsk, snr) < uncoded_ber(Modulation::Qam16, snr));
        assert!(uncoded_ber(Modulation::Qam16, snr) < uncoded_ber(Modulation::Qam64, snr));
    }

    #[test]
    fn paper_operating_point() {
        // Effective SNR = 25 dB link - 6 dB implementation loss = 19 dB.
        let eff = 19.0;
        // Experiment rates: a full 1464 B frame must be quasi-lossless.
        for r in Rate::EXPERIMENT {
            let p = block_error_prob(coded_ber(r, eff), 1464 * 8);
            assert!(p < 1e-3, "{r}: frame error {p}");
        }
        // 64-QAM 5/6 must be unusable.
        let p = block_error_prob(coded_ber(Rate::R6_50, eff), 1464 * 8);
        assert!(p > 0.5, "64-QAM should be broken at 19 dB: {p}");
    }

    #[test]
    fn block_error_prob_limits() {
        assert_eq!(block_error_prob(0.0, 10_000), 0.0);
        assert_eq!(block_error_prob(0.5, 1), 1.0);
        let p1 = block_error_prob(1e-5, 1000);
        let p2 = block_error_prob(1e-5, 10_000);
        assert!(p1 < p2);
        assert!((0.0..=1.0).contains(&p1));
    }
}
