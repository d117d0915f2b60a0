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
    /// denominator) so per-receiver calls in the broadcast loop skip the
    /// redundant recomputation. The prepared model performs *the exact
    /// same float operations* on the hot path — in particular the ramp
    /// stays a division by the precomputed `range - clear`, never an
    /// inverse multiply — so loss probabilities are bit-identical to
    /// [`LossModel::loss_probability`] and seeded traces do not drift.
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

    /// Loss probability for a receiver at `dist` when the radio range is
    /// `range`. Distances beyond `range` always lose the frame.
    pub fn loss_probability(&self, dist: f64, range: f64) -> f64 {
        self.prepare(range).loss_probability(dist)
    }

    /// Samples whether a frame at `dist` is lost.
    pub fn sample_loss(&self, dist: f64, range: f64, rng: &mut SimRng) -> bool {
        rng.chance(self.loss_probability(dist, range))
    }
}

/// A [`LossModel`] with its per-range invariants hoisted out of the
/// per-receiver sampling loop. Build one per transmission with
/// [`LossModel::prepare`].
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
    /// Loss probability for a receiver at `dist`; bit-identical to the
    /// unprepared [`LossModel::loss_probability`].
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

/// Static parameters of every radio in the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioConfig {
    /// Maximum reception distance in meters.
    pub range: f64,
    /// Upper bound of the uniform random backoff added per transmission.
    pub backoff_max: SimDuration,
    /// Number of retransmissions for unicast frames (802.11 retry limit).
    pub unicast_retries: u8,
    /// Loss model.
    pub loss: LossModel,
    /// Carrier sensing: when enabled, a node defers its transmission while
    /// any node within range is on the air (shared-channel contention).
    /// Off by default — per-node queueing alone matches the paper-scale
    /// traffic; the `exp_tables --only A2` ablation measures the difference.
    pub carrier_sense: bool,
}

impl RadioConfig {
    /// 802.11b-flavored defaults: 100 m range, 11 Mb/s, 4 retries,
    /// [`LossModel::TYPICAL`].
    pub fn default_80211b() -> RadioConfig {
        RadioConfig {
            range: 100.0,
            backoff_max: SimDuration::from_micros(400),
            unicast_retries: 4,
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

    /// Time to serialize `wire_len` bytes onto the air, including MAC
    /// overhead and a sampled backoff.
    pub fn tx_time(&self, wire_len: usize, rng: &mut SimRng) -> SimDuration {
        let serialize = SimDuration::from_secs_f64(wire_len as f64 * 8.0 / BITRATE_BPS);
        let backoff = if self.backoff_max.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.range_u64(0, self.backoff_max.as_micros().max(1)))
        };
        MAC_OVERHEAD + serialize + backoff
    }
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
    fn prepared_loss_is_bit_identical() {
        for model in [LossModel::IDEAL, LossModel::TYPICAL] {
            for range in [50.0, 100.0, 250.0] {
                let prepared = model.prepare(range);
                let mut dist = 0.0;
                while dist <= range + 10.0 {
                    let a = model.loss_probability(dist, range);
                    let b = prepared.loss_probability(dist);
                    assert_eq!(a.to_bits(), b.to_bits(), "dist {dist} range {range}");
                    dist += 0.37;
                }
            }
        }
    }

    #[test]
    fn ideal_model_never_loses_in_range() {
        let m = LossModel::IDEAL;
        assert_eq!(m.loss_probability(99.9, 100.0), 0.0);
        assert_eq!(m.loss_probability(100.1, 100.0), 1.0);
    }

    #[test]
    fn typical_model_ramps_toward_edge() {
        let m = LossModel::TYPICAL;
        let near = m.loss_probability(10.0, 100.0);
        let mid = m.loss_probability(85.0, 100.0);
        let edge = m.loss_probability(100.0, 100.0);
        assert!(near < mid && mid < edge, "{near} {mid} {edge}");
        assert!((near - 0.01).abs() < 1e-9);
        assert!((edge - 0.61).abs() < 1e-9);
    }

    #[test]
    fn tx_time_scales_with_size() {
        let cfg = RadioConfig {
            backoff_max: SimDuration::ZERO,
            ..RadioConfig::ideal()
        };
        let mut rng = SimRng::from_seed_and_stream(0, 0);
        let small = cfg.tx_time(100, &mut rng);
        let large = cfg.tx_time(1000, &mut rng);
        assert!(large > small);
        // 1000 bytes at 11 Mb/s is ~727 us plus 300 us overhead.
        let expect = 300 + (1000.0 * 8.0 / 11.0e6 * 1e6) as u64;
        assert!((large.as_micros() as i64 - expect as i64).abs() <= 1);
    }

    #[test]
    fn sampled_loss_rate_matches_probability() {
        let m = LossModel {
            base: 0.25,
            clear_fraction: 1.0,
            edge_loss: 0.0,
        };
        let mut rng = SimRng::from_seed_and_stream(4, 4);
        let n = 20_000;
        let losses = (0..n)
            .filter(|_| m.sample_loss(10.0, 100.0, &mut rng))
            .count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }
}
