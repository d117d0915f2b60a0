//! Voice quality estimation: the ITU-T G.107 E-model.
//!
//! Maps the network-level measurements the jitter buffer collects (one-way
//! delay, effective loss) and the codec's impairment profile to the
//! transmission rating factor `R` and a mean opinion score (MOS). This is
//! how experiment E6 turns simulator packet traces into the "is this call
//! usable?" answer the paper's scenarios care about.

use siphoc_simnet::time::SimDuration;

use crate::codec::Codec;
use crate::jitter::StreamStats;

/// The default transmission rating for a zero-impairment narrowband call
/// (G.107 default parameter set).
pub const R_DEFAULT: f64 = 93.2;

/// A computed quality estimate for one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Transmission rating factor (0–100).
    pub r_factor: f64,
    /// Mean opinion score (1.0–4.5).
    pub mos: f64,
    /// Mouth-to-ear delay used (network + jitter buffer).
    pub delay: SimDuration,
    /// Effective loss fraction used (network + late).
    pub loss_fraction: f64,
}

/// Delay impairment `Id` (G.107 simplified form): linear below 177.3 ms,
/// steeper above.
pub fn delay_impairment(mouth_to_ear: SimDuration) -> f64 {
    let d = mouth_to_ear.as_millis_f64();
    let base = 0.024 * d;
    let extra = if d > 177.3 { 0.11 * (d - 177.3) } else { 0.0 };
    base + extra
}

/// Effective equipment impairment `Ie_eff` (G.107 §7.2) under random loss.
pub fn loss_impairment(codec: &Codec, loss_fraction: f64) -> f64 {
    let ppl = (loss_fraction * 100.0).clamp(0.0, 100.0);
    codec.ie + (95.0 - codec.ie) * ppl / (ppl + codec.bpl)
}

/// Maps an R factor to MOS (G.107 Annex B). The raw cubic dips slightly
/// below 1.0 for small positive R, so the result is clamped to the
/// defined MOS range `[1.0, 4.5]`.
pub fn mos_from_r(r: f64) -> f64 {
    if r <= 0.0 {
        1.0
    } else if r >= 100.0 {
        4.5
    } else {
        (1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6).clamp(1.0, 4.5)
    }
}

/// Computes the E-model estimate for a stream.
///
/// `mouth_to_ear` should include the playout buffer depth on top of the
/// measured network delay.
pub fn evaluate(codec: &Codec, mouth_to_ear: SimDuration, loss_fraction: f64) -> QualityReport {
    let r = (R_DEFAULT - delay_impairment(mouth_to_ear) - loss_impairment(codec, loss_fraction))
        .clamp(0.0, 100.0);
    QualityReport {
        r_factor: r,
        mos: mos_from_r(r),
        delay: mouth_to_ear,
        loss_fraction,
    }
}

/// Convenience: evaluates directly from receiver [`StreamStats`] and the
/// jitter buffer depth.
pub fn evaluate_stream(
    codec: &Codec,
    stats: &StreamStats,
    buffer_depth: SimDuration,
) -> QualityReport {
    evaluate(
        codec,
        stats.mean_delay() + buffer_depth,
        stats.effective_loss_fraction(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_call_scores_high() {
        let q = evaluate(&Codec::PCMU, SimDuration::from_millis(20), 0.0);
        assert!(q.r_factor > 90.0, "{q:?}");
        assert!(q.mos > 4.3, "{q:?}");
    }

    #[test]
    fn loss_degrades_mos_monotonically() {
        let mut prev = f64::INFINITY;
        for loss in [0.0, 0.01, 0.03, 0.05, 0.10, 0.20] {
            let q = evaluate(&Codec::PCMU, SimDuration::from_millis(50), loss);
            assert!(q.mos < prev, "loss {loss} must reduce MOS");
            prev = q.mos;
        }
        // 20% loss is unusable.
        assert!(prev < 2.8, "{prev}");
    }

    #[test]
    fn delay_kink_at_177ms() {
        let below = delay_impairment(SimDuration::from_millis(170));
        let above = delay_impairment(SimDuration::from_millis(190));
        let slope_below = below / 170.0;
        let slope_above = (above - below) / 20.0;
        assert!(slope_above > slope_below * 3.0);
    }

    #[test]
    fn codec_impairment_lowers_mos() {
        let pcmu = evaluate(&Codec::PCMU, SimDuration::from_millis(50), 0.0);
        let impaired = Codec {
            ie: 20.0,
            ..Codec::PCMU
        };
        let worse = evaluate(&impaired, SimDuration::from_millis(50), 0.0);
        assert!(pcmu.mos > worse.mos, "Ie 20 is an intrinsic impairment");
    }

    #[test]
    fn mos_bounds() {
        assert_eq!(mos_from_r(-5.0), 1.0);
        assert_eq!(mos_from_r(150.0), 4.5);
        let mid = mos_from_r(70.0);
        assert!(mid > 3.0 && mid < 4.5);
    }

    #[test]
    fn evaluate_stream_includes_buffer_depth() {
        let stats = StreamStats {
            played: 100,
            expected: 100,
            delay_sum_us: 100 * 30_000,
            delay_samples: 100,
            ..StreamStats::default()
        };
        let q = evaluate_stream(&Codec::PCMU, &stats, SimDuration::from_millis(60));
        assert_eq!(q.delay, SimDuration::from_millis(90));
    }
}
