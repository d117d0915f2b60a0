//! The wireless channel model.
//!
//! The testbed in the paper is a set of 802.11b laptops/handhelds in ad hoc
//! mode, with firewalls enforcing multihop topologies. The simulator
//! replaces it with a unit-disk radio with:
//!
//! * per-node FIFO transmit queues and per-frame serialization delay
//!   (`MAC overhead + bytes * 8 / bitrate + random backoff`),
//! * distance-dependent loss on top of a base loss probability,
//! * 802.11-style retransmission for unicast frames (none for broadcast),
//!   with layer-2 TX-failure feedback on retry exhaustion — the signal AODV
//!   uses for link-break detection.
//!
//! Channel-wide contention between *different* senders is not modeled; at
//! the traffic levels of the paper's experiments the per-node queueing delay
//! dominates. This simplification is recorded in `DESIGN.md`.

use crate::net::{Datagram, L2Dst};
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Distance-dependent loss on top of a base loss probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    /// Loss probability applied at any distance.
    pub base: f64,
    /// Fraction of the radio range that is loss-free (beyond the base loss);
    /// between this radius and the full range, loss ramps quadratically up
    /// to `edge_loss`.
    pub clear_fraction: f64,
    /// Loss probability at the very edge of the range.
    pub edge_loss: f64,
}

impl LossModel {
    /// A lossless channel (useful for protocol-logic tests).
    pub const IDEAL: LossModel = LossModel {
        base: 0.0,
        clear_fraction: 1.0,
        edge_loss: 0.0,
    };

    /// A mildly lossy 802.11-like channel: 1% base loss, clean out to 70% of
    /// range, 60% loss at the edge.
    pub const TYPICAL: LossModel = LossModel {
        base: 0.01,
        clear_fraction: 0.7,
        edge_loss: 0.6,
    };

    /// Precomputes the per-range invariants (clear radius, ramp
    /// denominator), the one way to sample this model: the broadcast
    /// fan-out prepares once per transmission, a unicast hop once per
    /// draw. The ramp stays a division by the precomputed
    /// `range - clear`, never an inverse multiply, so seeded traces do
    /// not drift.
    pub fn prepare(&self, range: f64) -> PreparedLoss {
        let clear = range * self.clear_fraction;
        PreparedLoss {
            base: self.base,
            edge_loss: self.edge_loss,
            range,
            clear,
            denom: range - clear,
        }
    }
}

/// A [`LossModel`] with its per-range invariants hoisted out of the
/// per-receiver sampling loop. Build one with [`LossModel::prepare`].
#[derive(Debug, Clone, Copy)]
pub struct PreparedLoss {
    base: f64,
    edge_loss: f64,
    range: f64,
    /// `range * clear_fraction`, inside which only `base` loss applies.
    clear: f64,
    /// `range - clear`, the quadratic ramp's denominator.
    denom: f64,
}

impl PreparedLoss {
    /// Loss probability for a receiver at `dist`. Distances beyond the
    /// range always lose the frame.
    pub fn loss_probability(&self, dist: f64) -> f64 {
        if dist > self.range {
            return 1.0;
        }
        let ramp = if dist <= self.clear || self.range <= self.clear {
            0.0
        } else {
            let f = (dist - self.clear) / self.denom;
            f * f * self.edge_loss
        };
        (self.base + ramp).clamp(0.0, 1.0)
    }

    /// Samples whether a frame at `dist` is lost.
    pub fn sample_loss(&self, dist: f64, rng: &mut SimRng) -> bool {
        rng.chance(self.loss_probability(dist))
    }
}

/// Link bit rate of every radio: 802.11b's 11 Mb/s.
pub const BITRATE_BPS: f64 = 11.0e6;
/// Fixed per-frame MAC/PHY overhead (preamble, IFS, ACK round).
pub const MAC_OVERHEAD: SimDuration = SimDuration::from_micros(300);
/// One-hop propagation delay.
pub const PROP_DELAY: SimDuration = SimDuration::from_micros(1);
/// Upper bound of the uniform random backoff added per transmission.
pub const BACKOFF_MAX: SimDuration = SimDuration::from_micros(400);
/// Retransmissions of a unicast frame (802.11 retry limit).
pub const UNICAST_RETRIES: u8 = 4;

/// Static parameters of every radio in the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioConfig {
    /// Maximum reception distance in meters.
    pub range: f64,
    /// Loss model.
    pub loss: LossModel,
    /// Carrier sensing: when enabled, a node defers its transmission while
    /// any node within range is on the air (shared-channel contention).
    /// Off by default — per-node queueing alone matches the paper-scale
    /// traffic; the `exp_tables --only A2` ablation measures the difference.
    pub carrier_sense: bool,
}

impl RadioConfig {
    /// 802.11b-flavored defaults: 100 m range and [`LossModel::TYPICAL`]
    /// (the bit rate, backoff and retry limit are this module's constants).
    pub fn default_80211b() -> RadioConfig {
        RadioConfig {
            range: 100.0,
            loss: LossModel::TYPICAL,
            carrier_sense: false,
        }
    }

    /// Same geometry but a perfect channel; protocol-logic tests use this to
    /// eliminate stochastic loss.
    pub fn ideal() -> RadioConfig {
        RadioConfig {
            loss: LossModel::IDEAL,
            ..RadioConfig::default_80211b()
        }
    }
}

/// Time to serialize `wire_len` bytes onto the air, including MAC
/// overhead and a sampled backoff below [`BACKOFF_MAX`].
pub fn tx_time(wire_len: usize, rng: &mut SimRng) -> SimDuration {
    let serialize = SimDuration::from_secs_f64(wire_len as f64 * 8.0 / BITRATE_BPS);
    let backoff = SimDuration::from_micros(rng.range_u64(0, BACKOFF_MAX.as_micros()));
    MAC_OVERHEAD + serialize + backoff
}

impl Default for RadioConfig {
    fn default() -> RadioConfig {
        RadioConfig::default_80211b()
    }
}

/// A frame waiting in (or moving through) a node's transmit queue.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Layer-2 destination.
    pub dst: L2Dst,
    /// Encapsulated datagram.
    pub dgram: Datagram,
    /// Remaining retransmissions (unicast only).
    pub retries_left: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_never_loses_in_range() {
        let m = LossModel::IDEAL.prepare(100.0);
        assert_eq!(m.loss_probability(99.9), 0.0);
        assert_eq!(m.loss_probability(100.1), 1.0);
    }

    #[test]
    fn typical_model_ramps_toward_edge() {
        let m = LossModel::TYPICAL.prepare(100.0);
        let near = m.loss_probability(10.0);
        let mid = m.loss_probability(85.0);
        let edge = m.loss_probability(100.0);
        assert!(near < mid && mid < edge, "{near} {mid} {edge}");
        assert!((near - 0.01).abs() < 1e-9);
        assert!((edge - 0.61).abs() < 1e-9);
    }

    #[test]
    fn tx_time_scales_with_size() {
        let mut rng = SimRng::from_seed_and_stream(0, 0);
        // 100 and 1000 bytes at 11 Mb/s are ~73 and ~727 us, each plus
        // 300 us overhead and a backoff below BACKOFF_MAX.
        for (bytes, airtime) in [(100, 72), (1000, 727)] {
            let t = tx_time(bytes, &mut rng).as_micros();
            let floor = 300 + airtime;
            assert!(
                t >= floor && t <= floor + 1 + BACKOFF_MAX.as_micros(),
                "{bytes} B: {t} us"
            );
        }
    }

    #[test]
    fn sampled_loss_rate_matches_probability() {
        let m = LossModel {
            base: 0.25,
            clear_fraction: 1.0,
            edge_loss: 0.0,
        }
        .prepare(100.0);
        let mut rng = SimRng::from_seed_and_stream(4, 4);
        let n = 20_000;
        let losses = (0..n).filter(|_| m.sample_loss(10.0, &mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }
}
