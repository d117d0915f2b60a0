//! Voice codec models.
//!
//! Codecs are modeled by their traffic shape (frame interval and size) and
//! their ITU-T G.113 impairment parameters (`Ie`, `Bpl`) used by the
//! E-model in [`crate::quality`]. Audio content itself is synthetic.

use siphoc_simnet::time::SimDuration;

/// A voice codec's traffic and impairment profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Codec {
    /// Display name.
    pub name: &'static str,
    /// RTP payload type.
    pub payload_type: u8,
    /// Time between frames.
    pub frame_interval: SimDuration,
    /// Payload bytes per frame.
    pub frame_bytes: usize,
    /// RTP timestamp units per frame (8 kHz clock for narrowband).
    pub timestamp_step: u32,
    /// Equipment impairment factor `Ie` (G.113).
    pub ie: f64,
    /// Packet-loss robustness factor `Bpl` (G.113).
    pub bpl: f64,
}

impl Codec {
    /// G.711 µ-law, 20 ms frames (the softphone default the paper's
    /// clients negotiate).
    pub const PCMU: Codec = Codec {
        name: "G.711/PCMU",
        payload_type: 0,
        frame_interval: SimDuration::from_millis(20),
        frame_bytes: 160,
        timestamp_step: 160,
        ie: 0.0,
        bpl: 25.1,
    };
}
