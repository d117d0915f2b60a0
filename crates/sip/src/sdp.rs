//! Minimal SDP (RFC 4566 subset) for audio offer/answer.
//!
//! An INVITE carries an offer naming where the caller wants RTP; the 200 OK
//! answers with the callee's RTP endpoint. Only a single G.711 µ-law audio
//! stream (payload type 0) is modeled — what the paper's softphones
//! (Kphone, Twinkle, Minisip) negotiate by default.

use std::fmt;
use std::str::FromStr;

use siphoc_simnet::net::{Addr, SocketAddr};

/// An SDP session description for one audio stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sdp {
    /// Session originator username (`o=` line).
    pub origin_user: String,
    /// Session id / version (`o=` line).
    pub session_id: u64,
    /// Connection address (`c=` line).
    pub addr: Addr,
    /// Audio media port (`m=` line).
    pub audio_port: u16,
    /// Offered RTP/AVP payload types (0 = PCMU).
    pub payload_types: Vec<u8>,
}

impl Sdp {
    /// Builds a standard single-stream PCMU description.
    pub fn audio(user: &str, session_id: u64, rtp: SocketAddr) -> Sdp {
        Sdp {
            origin_user: user.to_owned(),
            session_id,
            addr: rtp.addr,
            audio_port: rtp.port,
            payload_types: vec![0],
        }
    }

    /// The RTP endpoint this description names.
    pub fn rtp_endpoint(&self) -> SocketAddr {
        SocketAddr::new(self.addr, self.audio_port)
    }

    /// Produces the answer to this offer from the given local endpoint,
    /// intersecting payload types (first common type wins).
    pub fn answer(&self, user: &str, session_id: u64, rtp: SocketAddr) -> Option<Sdp> {
        let common: Vec<u8> = self.payload_types.iter().copied().take(1).collect();
        if common.is_empty() {
            return None;
        }
        Some(Sdp {
            origin_user: user.to_owned(),
            session_id,
            addr: rtp.addr,
            audio_port: rtp.port,
            payload_types: common,
        })
    }
}

impl fmt::Display for Sdp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (user, id, addr) = (&self.origin_user, self.session_id, self.addr);
        write!(
            f,
            "v=0\r\no={user} {id} {id} IN IP4 {addr}\r\ns=-\r\nc=IN IP4 {addr}\r\nt=0 0\r\nm=audio {} RTP/AVP ",
            self.audio_port
        )?;
        for (i, pt) in self.payload_types.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{pt}")?;
        }
        f.write_str("\r\n")
    }
}

/// Error returned when SDP fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSdpError {
    what: &'static str,
}

impl fmt::Display for ParseSdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SDP: {}", self.what)
    }
}

impl std::error::Error for ParseSdpError {}

impl FromStr for Sdp {
    type Err = ParseSdpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |what| ParseSdpError { what };
        let mut origin_user = None;
        let mut session_id = 0u64;
        let mut addr = None;
        let mut audio = None;
        for line in s.lines() {
            let line = line.trim_end_matches('\r');
            if let Some(o) = line.strip_prefix("o=") {
                let mut it = o.split_whitespace();
                origin_user = Some(it.next().ok_or_else(|| err("o= user"))?.to_owned());
                session_id = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("o= id"))?;
            } else if let Some(c) = line.strip_prefix("c=") {
                let a = c
                    .strip_prefix("IN IP4 ")
                    .ok_or_else(|| err("c= network type"))?;
                addr = Some(a.trim().parse().map_err(|_| err("c= address"))?);
            } else if let Some(m) = line.strip_prefix("m=audio ") {
                let mut it = m.split_whitespace();
                let port: u16 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("m= port"))?;
                let proto = it.next().ok_or_else(|| err("m= proto"))?;
                if proto != "RTP/AVP" {
                    return Err(err("m= proto"));
                }
                let types: Vec<u8> = it.filter_map(|t| t.parse().ok()).collect();
                if types.is_empty() {
                    return Err(err("m= payload types"));
                }
                audio = Some((port, types));
            }
        }
        let (audio_port, payload_types) = audio.ok_or_else(|| err("missing m=audio"))?;
        Ok(Sdp {
            origin_user: origin_user.ok_or_else(|| err("missing o="))?,
            session_id,
            addr: addr.ok_or_else(|| err("missing c="))?,
            audio_port,
            payload_types,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let sdp = Sdp::audio("alice", 42, "10.0.0.1:8000".parse().unwrap());
        let text = sdp.to_string();
        assert!(text.contains("m=audio 8000 RTP/AVP 0\r"));
        assert_eq!(text.parse::<Sdp>().unwrap(), sdp);
    }

    #[test]
    fn answer_picks_common_type() {
        let offer = Sdp::audio("alice", 1, "10.0.0.1:8000".parse().unwrap());
        let ans = offer
            .answer("bob", 2, "10.0.0.2:8002".parse().unwrap())
            .unwrap();
        assert_eq!(ans.payload_types, vec![0]);
        assert_eq!(ans.rtp_endpoint().to_string(), "10.0.0.2:8002");
    }

    #[test]
    fn rejects_missing_sections() {
        assert!("v=0\r\n".parse::<Sdp>().is_err());
        assert!("o=a 1 1 IN IP4 10.0.0.1\r\nc=IN IP4 10.0.0.1\r\n"
            .parse::<Sdp>()
            .is_err());
        assert!(
            "o=a 1 1 IN IP4 x\r\nc=IN IP6 ::1\r\nm=audio 1 RTP/AVP 0\r\n"
                .parse::<Sdp>()
                .is_err()
        );
    }

    #[test]
    fn rejects_non_avp_media() {
        let text = "o=a 1 1 IN IP4 10.0.0.1\r\nc=IN IP4 10.0.0.1\r\nm=audio 8000 UDP/TLS 0\r\n";
        assert!(text.parse::<Sdp>().is_err());
    }
}
