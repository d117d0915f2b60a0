//! # siphoc-media
//!
//! The VoIP media plane: RTP/RTCP packets, codec traffic models, a
//! receiver jitter buffer, and ITU-T G.107 E-model quality scoring. A
//! [`session::MediaProcess`] runs beside each user agent and turns the
//! simulated network's loss/delay/jitter into per-call MOS reports
//! (experiment E6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod jitter;
pub mod quality;
pub mod rtp;
pub mod session;

/// Trace dissector for RTP media (ports 8000–8099): sequence number,
/// timestamp and payload type.
pub fn rtp_dissector(port: u16, payload: &[u8]) -> Option<(String, String)> {
    if !(8000..8100).contains(&port) {
        return None;
    }
    match rtp::RtpPacket::parse(payload) {
        Ok(p) => Some((
            "rtp".to_owned(),
            format!(
                "PT={} seq={} ts={} ssrc={:08x}",
                p.payload_type, p.seq, p.timestamp, p.ssrc
            ),
        )),
        Err(_) => Some(("rtp".to_owned(), "malformed".to_owned())),
    }
}
