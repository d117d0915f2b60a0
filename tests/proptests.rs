//! Property-based tests over the stack's parsers, codecs and invariants,
//! run on the seeded driver in `support/check.rs`.
//!
//! Three recurring properties:
//! * round-trip: `parse(serialize(x)) == x` for arbitrary well-formed `x`;
//! * totality: parsers never panic on arbitrary bytes;
//! * model invariants: monotonicity/conservation laws of the quality
//!   model, jitter buffer and routing table.

#[path = "support/check.rs"]
mod check;

use std::collections::BTreeSet;

use check::{bytes, check, maybe, mutate, string, usize_in, vec_of};
use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec};
use wireless_adhoc_voip::core::tunnel::TunnelMsg;
use wireless_adhoc_voip::internet::relay::RelayMsg;
use wireless_adhoc_voip::media::codec::Codec;
use wireless_adhoc_voip::media::jitter::JitterBuffer;
use wireless_adhoc_voip::media::quality;
use wireless_adhoc_voip::media::rtp::{RtcpReport, RtpPacket};
use wireless_adhoc_voip::routing::aodv::AodvMsg;
use wireless_adhoc_voip::routing::olsr::{LinkStatus, OlsrMsg};
use wireless_adhoc_voip::simnet::fault::{FaultPlan, LinkSelector, PacketFaultKind};
use wireless_adhoc_voip::simnet::net::{Addr, Datagram, SocketAddr};
use wireless_adhoc_voip::simnet::node::{NodeConfig, NodeId};
use wireless_adhoc_voip::simnet::process::{Ctx, Effect};
use wireless_adhoc_voip::simnet::radio::RadioConfig;
use wireless_adhoc_voip::simnet::rng::SimRng;
use wireless_adhoc_voip::simnet::route::{Route, RoutingTable};
use wireless_adhoc_voip::simnet::stats::NodeStats;
use wireless_adhoc_voip::simnet::time::{SimDuration, SimTime};
use wireless_adhoc_voip::simnet::world::{World, WorldConfig};
use wireless_adhoc_voip::sip::headers::{CSeq, NameAddr, Via};
use wireless_adhoc_voip::sip::msg::{Method, SipMessage, StatusCode};
use wireless_adhoc_voip::sip::sdp::Sdp;
use wireless_adhoc_voip::sip::txn::{TransactionLayer, TxnEvent};
use wireless_adhoc_voip::sip::ua::CallEvent;
use wireless_adhoc_voip::sip::uri::Aor;
use wireless_adhoc_voip::sip::uri::SipUri;
use wireless_adhoc_voip::slp::msg::SlpMsg;
use wireless_adhoc_voip::slp::service::{EntryAuth, ServiceEntry, ServiceQuery, SlpRecord};

/// Cases per property unless the property says otherwise.
const CASES: u32 = 256;

// ----------------------------------------------------------------------
// Generators
// ----------------------------------------------------------------------

fn arb_addr(rng: &mut SimRng) -> Addr {
    Addr(rng.next_u64() as u32)
}

fn arb_sock(rng: &mut SimRng) -> SocketAddr {
    SocketAddr::new(arb_addr(rng), rng.next_u64() as u16)
}

/// Tokens safe inside our whitespace-delimited text formats.
fn arb_token(rng: &mut SimRng) -> String {
    loop {
        let s = string(rng, "a-z0-9._@-", 1..25);
        // `-` alone is the wire marker for the empty key; exclude it.
        if s != "-" {
            return s;
        }
    }
}

fn arb_entry(rng: &mut SimRng) -> ServiceEntry {
    ServiceEntry {
        service_type: arb_token(rng),
        key: arb_token(rng),
        contact: arb_sock(rng),
        origin: arb_addr(rng),
        seq: rng.next_u64(),
        lifetime_secs: rng.next_u64() as u32,
        auth: None,
    }
}

const ALL_METHODS: [Method; 6] = [
    Method::Register,
    Method::Invite,
    Method::Ack,
    Method::Bye,
    Method::Cancel,
    Method::Options,
];

fn arb_method(rng: &mut SimRng) -> Method {
    ALL_METHODS[usize_in(rng, 0..ALL_METHODS.len())]
}

/// Printable header values with no leading/trailing whitespace (the
/// parser trims around the colon) and no CR/LF.
fn arb_header_value(rng: &mut SimRng) -> String {
    let mut v = string(rng, "!-~", 1..2);
    if rng.chance(0.5) {
        v += &string(rng, " -~", 0..29);
        v += &string(rng, "!-~", 1..2);
    }
    v
}

/// Extension headers, exercising the non-interned (owned) header-name
/// path alongside the interned well-known set.
fn arb_extras(rng: &mut SimRng) -> Vec<(String, String)> {
    vec_of(rng, 0..4, |rng| {
        (
            format!("X-{}", string(rng, "A-Za-z", 1..11)),
            arb_header_value(rng),
        )
    })
}

/// Any non-control character, printable ASCII half the time.
fn arb_char(rng: &mut SimRng) -> char {
    if rng.chance(0.5) {
        return char::from(rng.range_u64(0x20, 0x7f) as u8);
    }
    loop {
        if let Some(c) = char::from_u32(rng.range_u64(0, 0x11_0000) as u32) {
            if !c.is_control() {
                return c;
            }
        }
    }
}

fn arb_datagram(rng: &mut SimRng) -> Datagram {
    let mut d = Datagram::new(arb_sock(rng), arb_sock(rng), bytes(rng, 0..60));
    d.ttl = rng.next_u64() as u8;
    d
}

fn arb_relay_msg(rng: &mut SimRng) -> RelayMsg {
    match usize_in(rng, 0..5) {
        0 => RelayMsg::AllocReq {
            client: arb_addr(rng),
        },
        1 => RelayMsg::AllocOk {
            client: arb_addr(rng),
            relayed: arb_addr(rng),
        },
        2 => RelayMsg::Permit {
            relayed: arb_addr(rng),
            peer: arb_addr(rng),
        },
        3 => RelayMsg::RelayFwd {
            inner: arb_datagram(rng),
        },
        _ => RelayMsg::RelayData {
            inner: arb_datagram(rng),
        },
    }
}

/// Arbitrary bytes, or a valid message with some bytes flipped.
fn noise_or_mutant(rng: &mut SimRng, valid: impl FnOnce(&mut SimRng) -> Vec<u8>) -> Vec<u8> {
    if rng.chance(0.5) {
        bytes(rng, 0..200)
    } else {
        let wire = valid(rng);
        mutate(rng, wire)
    }
}

// ----------------------------------------------------------------------
// Round-trips
// ----------------------------------------------------------------------

#[test]
fn addr_display_parse_round_trip() {
    check("addr_display_parse_round_trip", CASES, |rng| {
        let a = arb_addr(rng);
        assert_eq!(a.to_string().parse::<Addr>().unwrap(), a);
    });
}

#[test]
fn socket_addr_round_trip() {
    check("socket_addr_round_trip", CASES, |rng| {
        let sa = arb_sock(rng);
        assert_eq!(sa.to_string().parse::<SocketAddr>().unwrap(), sa);
    });
}

#[test]
fn sip_uri_round_trip() {
    check("sip_uri_round_trip", CASES, |rng| {
        let uri = SipUri {
            user: Some(string(rng, "a-z0-9", 1..13)),
            host: string(rng, "a-z0-9.", 1..21),
            port: maybe(rng, |rng| rng.range_u64(1, 1 << 16) as u16),
            params: vec![],
        };
        assert_eq!(uri.to_string().parse::<SipUri>().unwrap(), uri);
    });
}

#[test]
fn via_round_trip() {
    check("via_round_trip", CASES, |rng| {
        let sent_by = arb_sock(rng);
        let branch = format!("z9hG4bK{}", string(rng, "a-f0-9", 1..17));
        let via = Via::new(sent_by, &branch);
        assert_eq!(via.to_string().parse::<Via>().unwrap(), via);
    });
}

#[test]
fn cseq_round_trip() {
    check("cseq_round_trip", CASES, |rng| {
        let c = CSeq {
            seq: rng.next_u64() as u32,
            method: string(rng, "A-Z", 2..11),
        };
        assert_eq!(c.to_string().parse::<CSeq>().unwrap(), c);
    });
}

#[test]
fn name_addr_round_trip() {
    check("name_addr_round_trip", CASES, |rng| {
        let user = string(rng, "a-z", 1..9);
        let host = string(rng, "a-z.", 1..13);
        let mut na = NameAddr::new(SipUri::new(&user, &host));
        if let Some(t) = maybe(rng, |rng| string(rng, "a-f0-9", 1..9)) {
            na.set_tag(&t);
        }
        assert_eq!(na.to_string().parse::<NameAddr>().unwrap(), na);
    });
}

#[test]
fn sip_message_round_trip() {
    check("sip_message_round_trip", CASES, |rng| {
        let user = string(rng, "a-z", 1..9);
        let host = string(rng, "a-z.", 1..13);
        let call_id = string(rng, "a-z0-9-", 1..21);
        let cseq = rng.range_u64(1, 1_000_000);
        let body = string(rng, " -~", 0..81);
        let mut m = SipMessage::request(Method::Invite, SipUri::new(&user, &host));
        m.headers_mut()
            .push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKx");
        m.headers_mut()
            .push("From", format!("<sip:{user}@{host}>;tag=a"));
        m.headers_mut().push("To", format!("<sip:{user}@{host}>"));
        m.headers_mut().push("Call-ID", &call_id);
        m.headers_mut().push("CSeq", format!("{cseq} INVITE"));
        m.set_body(&body, Some("text/plain"));
        assert_eq!(SipMessage::parse(&m.to_wire()).unwrap(), m);
    });
}

/// Every method, with extension headers.
#[test]
fn sip_request_render_parse_round_trip() {
    check("sip_request_render_parse_round_trip", CASES, |rng| {
        let method = arb_method(rng);
        let user = string(rng, "a-z", 1..9);
        let host = string(rng, "a-z.", 1..13);
        let call_id = string(rng, "a-z0-9-", 1..21);
        let cseq = rng.range_u64(1, 1_000_000);
        let extras = arb_extras(rng);
        let body = string(rng, " -~", 0..81);
        let mut m = SipMessage::request(method, SipUri::new(&user, &host));
        m.headers_mut()
            .push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKx");
        m.headers_mut()
            .push("From", format!("<sip:{user}@{host}>;tag=a"));
        m.headers_mut().push("To", format!("<sip:{user}@{host}>"));
        m.headers_mut().push("Call-ID", &call_id);
        m.headers_mut()
            .push("CSeq", format!("{cseq} {}", method.as_str()));
        for (name, value) in &extras {
            m.headers_mut().push(name, value);
        }
        if !body.is_empty() {
            m.set_body(&body, Some("application/sdp"));
        }
        assert_eq!(SipMessage::parse(&m.to_wire()).unwrap(), m);
    });
}

/// Responses across the full status range (including codes without a
/// canonical reason phrase) survive render↔parse byte-exactly.
#[test]
fn sip_response_render_parse_round_trip() {
    check("sip_response_render_parse_round_trip", CASES, |rng| {
        let code = rng.range_u64(100, 700) as u16;
        let user = string(rng, "a-z", 1..9);
        let host = string(rng, "a-z.", 1..13);
        let call_id = string(rng, "a-z0-9-", 1..21);
        let cseq = rng.range_u64(1, 1_000_000);
        let extras = arb_extras(rng);
        let body = string(rng, " -~", 0..81);
        let mut req = SipMessage::request(Method::Invite, SipUri::new(&user, &host));
        req.headers_mut()
            .push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKx");
        req.headers_mut()
            .push("From", format!("<sip:{user}@{host}>;tag=a"));
        req.headers_mut().push("To", format!("<sip:{user}@{host}>"));
        req.headers_mut().push("Call-ID", &call_id);
        req.headers_mut().push("CSeq", format!("{cseq} INVITE"));
        let mut m = SipMessage::response_to(&req, StatusCode(code));
        for (name, value) in &extras {
            m.headers_mut().push(name, value);
        }
        if !body.is_empty() {
            m.set_body(&body, Some("application/sdp"));
        }
        assert_eq!(SipMessage::parse(&m.to_wire()).unwrap(), m);
    });
}

#[test]
fn sdp_round_trip() {
    check("sdp_round_trip", CASES, |rng| {
        let user = string(rng, "a-z", 1..9);
        let sdp = Sdp::audio(&user, u64::from(rng.next_u64() as u32), arb_sock(rng));
        assert_eq!(sdp.to_string().parse::<Sdp>().unwrap(), sdp);
    });
}

#[test]
fn service_entry_round_trip() {
    check("service_entry_round_trip", CASES, |rng| {
        let e = arb_entry(rng);
        let wire = e.to_wire();
        assert_eq!(SlpRecord::parse(&wire).unwrap(), SlpRecord::Reg(e));
    });
}

#[test]
fn slp_rply_round_trip() {
    check("slp_rply_round_trip", CASES, |rng| {
        let m = SlpMsg::SrvRply {
            xid: rng.next_u64() as u32,
            entries: vec_of(rng, 0..5, arb_entry),
        };
        assert_eq!(SlpMsg::parse(&m.to_wire()).unwrap(), m);
    });
}

/// Any SLP message, each kind equally likely.
fn arb_slp_msg(rng: &mut SimRng) -> SlpMsg {
    let xid = rng.next_u64() as u32;
    match usize_in(rng, 0..10) {
        0 => SlpMsg::SrvReg {
            xid,
            service_type: arb_token(rng),
            key: arb_token(rng),
            contact: arb_sock(rng),
            lifetime_secs: rng.next_u64() as u32,
        },
        1 => SlpMsg::SrvDeReg {
            xid,
            service_type: arb_token(rng),
            key: arb_token(rng),
        },
        2 => SlpMsg::SrvAck { xid },
        3 => SlpMsg::SrvRqst {
            xid,
            service_type: arb_token(rng),
            key: arb_token(rng),
        },
        4 => SlpMsg::SrvRqstX {
            xid,
            service_type: arb_token(rng),
            key: arb_token(rng),
        },
        5 => SlpMsg::SrvRply {
            xid,
            entries: vec_of(rng, 0..5, arb_entry),
        },
        6 => SlpMsg::McastRqst {
            origin: arb_addr(rng),
            fid: xid,
            ttl: rng.next_u64() as u8,
            reply_to: arb_sock(rng),
            service_type: arb_token(rng),
            key: arb_token(rng),
        },
        7 | 8 => SlpMsg::FloodReg {
            origin: arb_addr(rng),
            fid: xid,
            ttl: rng.next_u64() as u8,
            entries: vec_of(rng, 0..5, arb_entry),
        },
        _ => SlpMsg::Hello {
            entries: vec_of(rng, 0..5, arb_entry),
        },
    }
}

/// Every kind, the broadcast REGISTER and HELLO floods included.
#[test]
fn slp_msg_round_trip() {
    check("slp_msg_round_trip", CASES, |rng| {
        let m = arb_slp_msg(rng);
        assert_eq!(SlpMsg::parse(&m.to_wire()).unwrap(), m);
    });
}

#[test]
fn aodv_rreq_round_trip() {
    check("aodv_rreq_round_trip", CASES, |rng| {
        let m = AodvMsg::Rreq {
            flags: rng.range_u64(0, 4) as u8,
            hop_count: rng.next_u64() as u8,
            ttl: rng.next_u64() as u8,
            rreq_id: rng.next_u64() as u32,
            dst: arb_addr(rng),
            dst_seq: 7,
            orig: arb_addr(rng),
            orig_seq: 9,
            entries: vec_of(rng, 0..4, |rng| bytes(rng, 0..40)),
        };
        assert_eq!(AodvMsg::parse(&m.to_bytes()).unwrap(), m);
    });
}

#[test]
fn olsr_tc_round_trip() {
    check("olsr_tc_round_trip", CASES, |rng| {
        let m = OlsrMsg::Tc {
            orig: arb_addr(rng),
            msg_seq: rng.next_u64() as u16,
            ansn: rng.next_u64() as u16,
            ttl: rng.next_u64() as u8,
            selectors: vec_of(rng, 0..8, arb_addr),
            entries: vec![],
        };
        assert_eq!(OlsrMsg::parse(&m.to_bytes()).unwrap(), m);
    });
}

fn arb_rtp(rng: &mut SimRng) -> RtpPacket {
    RtpPacket {
        payload_type: rng.range_u64(0, 128) as u8,
        seq: rng.next_u64() as u16,
        timestamp: rng.next_u64() as u32,
        ssrc: rng.next_u64() as u32,
        payload: bytes(rng, 0..200),
    }
}

#[test]
fn rtp_round_trip() {
    check("rtp_round_trip", CASES, |rng| {
        let p = arb_rtp(rng);
        assert_eq!(RtpPacket::parse(&p.to_bytes()).unwrap(), p);
    });
}

// ----------------------------------------------------------------------
// Totality: parsers must never panic on arbitrary input
// ----------------------------------------------------------------------

#[test]
fn sip_parser_total() {
    check("sip_parser_total", CASES, |rng| {
        let _ = SipMessage::parse(&String::from_utf8_lossy(&bytes(rng, 0..300)));
    });
}

#[test]
fn aodv_parser_total() {
    check("aodv_parser_total", CASES, |rng| {
        let _ = AodvMsg::parse(&bytes(rng, 0..200));
    });
}

#[test]
fn olsr_parser_total() {
    check("olsr_parser_total", CASES, |rng| {
        let _ = OlsrMsg::parse(&bytes(rng, 0..200));
    });
}

#[test]
fn slp_parser_total() {
    check("slp_parser_total", CASES, |rng| {
        let b = noise_or_mutant(rng, |rng| arb_slp_msg(rng).to_wire());
        let _ = SlpMsg::parse(&b);
        let _ = SlpRecord::parse(&b);
    });
}

/// Any piggyback record: an entry, signed or not, or a query, either
/// with the empty key half of the time.
fn arb_slp_record(rng: &mut SimRng) -> SlpRecord {
    let key = |rng: &mut SimRng| maybe(rng, arb_token).unwrap_or_default();
    if rng.chance(0.5) {
        SlpRecord::Reg(ServiceEntry {
            key: key(rng),
            auth: maybe(rng, |rng| EntryAuth {
                pk: rng.next_u64(),
                sig: rng.next_u64(),
            }),
            ..arb_entry(rng)
        })
    } else {
        SlpRecord::Query(ServiceQuery {
            service_type: arb_token(rng),
            key: key(rng),
            origin: arb_addr(rng),
            qid: rng.next_u64(),
        })
    }
}

fn render_slp_record(r: &SlpRecord) -> Vec<u8> {
    match r {
        SlpRecord::Reg(e) => e.to_wire(),
        SlpRecord::Query(q) => q.to_wire(),
    }
}

/// A valid record's tokens re-joined by runs of ASCII whitespace, with
/// zeros or a `+` before some decimal tokens: bytes that parse but are
/// not what the renderer writes.
fn respell(rng: &mut SimRng, wire: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(wire).into_owned();
    let mut out = string(rng, " \t\n", 0..3);
    for token in text.split_ascii_whitespace() {
        if token.bytes().all(|b| b.is_ascii_digit()) && rng.chance(0.5) {
            out += if rng.chance(0.5) { "+" } else { "00" };
        }
        out += token;
        out += &string(rng, " \t\n", 1..4);
    }
    out.into_bytes()
}

/// The piggyback record's parser over arbitrary, corrupted and
/// respelled bytes: whatever parses renders to bytes that parse back to
/// the same record and render the same again, and the parsed record owns
/// no more heap than the input is long.
#[test]
fn slp_record_parse_render_is_idempotent_and_bounded() {
    let mut parsed = 0;
    check("slp_record_parse_render", CASES, |rng| {
        let b = match usize_in(rng, 0..3) {
            0 => noise_or_mutant(rng, |rng| render_slp_record(&arb_slp_record(rng))),
            _ => {
                let wire = render_slp_record(&arb_slp_record(rng));
                respell(rng, &wire)
            }
        };
        let Ok(r) = SlpRecord::parse(&b) else {
            return;
        };
        parsed += 1;
        let heap = match &r {
            SlpRecord::Reg(e) => e.service_type.capacity() + e.key.capacity(),
            SlpRecord::Query(q) => q.service_type.capacity() + q.key.capacity(),
        };
        assert!(heap <= b.len(), "{heap} heap bytes from {} input", b.len());
        let wire = render_slp_record(&r);
        let again = SlpRecord::parse(&wire).unwrap();
        assert_eq!(again, r);
        assert_eq!(render_slp_record(&again), wire);
    });
    assert!(parsed > CASES / 2, "only {parsed} inputs parsed");
}

/// The tunnel codec, relay messages included, over arbitrary and
/// corrupted bytes: whatever parses renders to bytes that parse back to
/// the same message and render the same again, and an encapsulated
/// datagram holds no more payload than the input is long.
#[test]
fn tunnel_msg_parse_render_is_idempotent_and_bounded() {
    let mut parsed = 0;
    check("tunnel_msg_parse_render", CASES, |rng| {
        let b = match usize_in(rng, 0..3) {
            0 => noise_or_mutant(rng, |rng| arb_tunnel_msg(rng).to_wire()),
            _ => arb_tunnel_msg(rng).to_wire(),
        };
        let Some(m) = TunnelMsg::parse(&b) else {
            return;
        };
        parsed += 1;
        let held = match &m {
            TunnelMsg::Data { inner }
            | TunnelMsg::Relay(RelayMsg::RelayFwd { inner } | RelayMsg::RelayData { inner }) => {
                inner.payload.len()
            }
            _ => 0,
        };
        assert!(
            held <= b.len(),
            "{held} payload bytes from {} input",
            b.len()
        );
        let wire = m.to_wire();
        let again = TunnelMsg::parse(&wire).unwrap();
        assert_eq!(again, m);
        assert_eq!(again.to_wire(), wire);
    });
    assert!(parsed > CASES / 2, "only {parsed} inputs parsed");
}

/// RTP and RTCP over arbitrary and corrupted bytes: whatever parses
/// renders to bytes that parse back to the same packet and render the
/// same again, and a packet's payload is no longer than its input.
#[test]
fn rtp_parse_render_is_idempotent_and_bounded() {
    let mut parsed = 0;
    check("rtp_parse_render", CASES, |rng| {
        let b = match usize_in(rng, 0..3) {
            0 => bytes(rng, 0..200),
            1 => {
                let wire = arb_rtp(rng).to_bytes();
                mutate(rng, wire)
            }
            _ => {
                let report = RtcpReport {
                    ssrc: rng.next_u64() as u32,
                    lost: rng.next_u64() as u32,
                    highest_seq: rng.next_u64() as u32,
                    jitter: rng.next_u64() as u32,
                };
                mutate(rng, report.to_bytes())
            }
        };
        if let Ok(p) = RtpPacket::parse(&b) {
            parsed += 1;
            let heap = p.payload.capacity();
            assert!(heap <= b.len(), "{heap} heap bytes from {} input", b.len());
            let wire = p.to_bytes();
            let again = RtpPacket::parse(&wire).unwrap();
            assert_eq!(again, p);
            assert_eq!(again.to_bytes(), wire);
        }
        if let Ok(r) = RtcpReport::parse(&b) {
            parsed += 1;
            let wire = r.to_bytes();
            let again = RtcpReport::parse(&wire).unwrap();
            assert_eq!(again, r);
            assert_eq!(again.to_bytes(), wire);
        }
    });
    assert!(parsed > CASES / 2, "only {parsed} inputs parsed");
}

/// Piggybacked entries as the routing codecs carry them.
fn arb_entries(rng: &mut SimRng) -> Vec<Vec<u8>> {
    vec_of(rng, 0..4, |rng| bytes(rng, 0..40))
}

/// Any AODV message kind.
fn arb_aodv_msg(rng: &mut SimRng) -> AodvMsg {
    match usize_in(rng, 0..4) {
        0 => AodvMsg::Rreq {
            flags: rng.next_u64() as u8,
            hop_count: rng.next_u64() as u8,
            ttl: rng.next_u64() as u8,
            rreq_id: rng.next_u64() as u32,
            dst: arb_addr(rng),
            dst_seq: rng.next_u64() as u32,
            orig: arb_addr(rng),
            orig_seq: rng.next_u64() as u32,
            entries: arb_entries(rng),
        },
        1 => AodvMsg::Rrep {
            flags: rng.next_u64() as u8,
            hop_count: rng.next_u64() as u8,
            dst: arb_addr(rng),
            dst_seq: rng.next_u64() as u32,
            orig: arb_addr(rng),
            lifetime: SimDuration::from_millis(rng.next_u64() as u32 as u64),
            entries: arb_entries(rng),
        },
        2 => AodvMsg::Rerr {
            dests: vec_of(rng, 0..6, |rng| (arb_addr(rng), rng.next_u64() as u32)),
        },
        _ => AodvMsg::Hello {
            seq: rng.next_u64() as u32,
            entries: arb_entries(rng),
        },
    }
}

/// Either OLSR message kind.
fn arb_olsr_msg(rng: &mut SimRng) -> OlsrMsg {
    let status = |rng: &mut SimRng| match usize_in(rng, 0..3) {
        0 => LinkStatus::Heard,
        1 => LinkStatus::Sym,
        _ => LinkStatus::Mpr,
    };
    if rng.chance(0.5) {
        OlsrMsg::Hello {
            neighbors: vec_of(rng, 0..10, |rng| (arb_addr(rng), status(rng))),
            entries: arb_entries(rng),
        }
    } else {
        OlsrMsg::Tc {
            orig: arb_addr(rng),
            msg_seq: rng.next_u64() as u16,
            ansn: rng.next_u64() as u16,
            ttl: rng.next_u64() as u8,
            selectors: vec_of(rng, 0..10, arb_addr),
            entries: arb_entries(rng),
        }
    }
}

/// Heap bytes a parsed list of piggybacked entries owns.
fn entries_heap(entries: &Vec<Vec<u8>>) -> usize {
    let blocks: usize = entries.iter().map(Vec::capacity).sum();
    entries.capacity() * std::mem::size_of::<Vec<u8>>() + blocks
}

/// Most heap bytes a parsed routing message may own per input byte: an
/// entry's two-byte length prefix becomes a 24-byte `Vec` in the list.
const ROUTING_HEAP_PER_INPUT_BYTE: usize = 12;

/// Both routing codecs (`routing::wire` underneath) over arbitrary,
/// corrupted and valid bytes: whatever parses renders to bytes that parse
/// back to the same message and render the same again, and the parsed
/// message owns at most `ROUTING_HEAP_PER_INPUT_BYTE` heap bytes per
/// input byte.
#[test]
fn routing_msg_parse_render_is_idempotent_and_bounded() {
    let mut parsed = 0;
    check("routing_msg_parse_render", CASES, |rng| {
        let aodv = rng.chance(0.5);
        let valid = |rng: &mut SimRng| match aodv {
            true => arb_aodv_msg(rng).to_bytes(),
            false => arb_olsr_msg(rng).to_bytes(),
        };
        let b = match usize_in(rng, 0..3) {
            0 => noise_or_mutant(rng, valid),
            _ => valid(rng),
        };
        let bound = ROUTING_HEAP_PER_INPUT_BYTE * b.len();
        if let Ok(m) = AodvMsg::parse(&b) {
            parsed += 1;
            let heap = match &m {
                AodvMsg::Rreq { entries, .. }
                | AodvMsg::Rrep { entries, .. }
                | AodvMsg::Hello { entries, .. } => entries_heap(entries),
                AodvMsg::Rerr { dests } => dests.capacity() * std::mem::size_of::<(Addr, u32)>(),
            };
            assert!(heap <= bound, "{heap} heap bytes from {} input", b.len());
            let wire = m.to_bytes();
            let again = AodvMsg::parse(&wire).unwrap();
            assert_eq!(again, m);
            assert_eq!(again.to_bytes(), wire);
        }
        if let Ok(m) = OlsrMsg::parse(&b) {
            parsed += 1;
            let heap = match &m {
                OlsrMsg::Hello { neighbors, entries } => {
                    neighbors.capacity() * std::mem::size_of::<(Addr, LinkStatus)>()
                        + entries_heap(entries)
                }
                OlsrMsg::Tc {
                    selectors, entries, ..
                } => selectors.capacity() * std::mem::size_of::<Addr>() + entries_heap(entries),
            };
            assert!(heap <= bound, "{heap} heap bytes from {} input", b.len());
            let wire = m.to_bytes();
            let again = OlsrMsg::parse(&wire).unwrap();
            assert_eq!(again, m);
            assert_eq!(again.to_bytes(), wire);
        }
    });
    assert!(parsed > CASES / 2, "only {parsed} inputs parsed");
}

/// An arbitrary request, or a response to one, with a Via stack,
/// extension headers and maybe a body.
fn arb_sip_message(rng: &mut SimRng) -> SipMessage {
    let user = string(rng, "a-z", 1..9);
    let host = string(rng, "a-z.", 1..13);
    let method = arb_method(rng);
    let mut m = SipMessage::request(method, SipUri::new(&user, &host));
    for _ in 0..usize_in(rng, 1..4) {
        m.headers_mut()
            .push("Via", Via::new(arb_sock(rng), &arb_token(rng)));
    }
    m.headers_mut().push("Max-Forwards", rng.range_u64(0, 71));
    m.headers_mut().push(
        "From",
        format!("<sip:{user}@{host}>;tag={}", arb_token(rng)),
    );
    m.headers_mut().push("To", format!("<sip:{user}@{host}>"));
    m.headers_mut().push("Call-ID", arb_token(rng));
    m.headers_mut()
        .push("CSeq", CSeq::new(rng.next_u64() as u32, method.as_str()));
    if rng.chance(0.5) {
        m = SipMessage::response_to(&m, StatusCode(rng.range_u64(100, 700) as u16));
    }
    m.headers_mut()
        .push("Contact", format!("<sip:{user}@{}>", arb_sock(rng)));
    for (name, value) in arb_extras(rng) {
        m.headers_mut().push(&name, value);
    }
    let body = string(rng, " -~", 0..81);
    if !body.is_empty() {
        m.set_body(&body, Some("application/sdp"));
    }
    m
}

/// Header names with an RFC 3261 § 7.3.3 compact form.
const COMPACT: [(&str, &str); 7] = [
    ("Via", "v"),
    ("From", "f"),
    ("To", "t"),
    ("Call-ID", "i"),
    ("Contact", "m"),
    ("Content-Length", "l"),
    ("Content-Type", "c"),
];

/// A rendered message with every header name in compact form or in
/// random case, blanks around the colon and after the value, and a
/// response's reason phrase rewritten: text that parses but is not what
/// the renderer writes.
fn respell_sip(rng: &mut SimRng, wire: &str) -> String {
    let (head, body) = wire.split_once("\r\n\r\n").expect("rendered head");
    let mut lines = head.split("\r\n");
    let start = lines.next().expect("start line");
    let mut out = match start.strip_prefix("SIP/2.0 ") {
        Some(status) => format!("SIP/2.0 {} {}", &status[..3], string(rng, " -~", 0..16)),
        None => start.to_owned(),
    };
    for line in lines {
        let (name, value) = line.split_once(": ").expect("rendered header");
        let compact = COMPACT.iter().find(|(long, _)| *long == name);
        let name = match compact {
            Some((_, short)) if rng.chance(0.5) => short.to_string(),
            _ => name
                .chars()
                .map(|c| {
                    if rng.chance(0.5) {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect(),
        };
        out += "\r\n";
        out += &name;
        out += &string(rng, " \t", 0..3);
        out += ":";
        out += &string(rng, " \t", 0..3);
        out += value;
        out += &string(rng, " \t", 0..3);
    }
    out += "\r\n\r\n";
    out += body;
    out
}

/// The SIP parser over arbitrary, corrupted and respelled messages:
/// whatever parses renders to text that parses back to the same message
/// and renders the same again, a respelled message reads as the one it
/// respells, and the parsed headers own no more heap than the input is
/// long plus one 12-byte span per line.
#[test]
fn sip_msg_parse_render_is_idempotent_and_bounded() {
    let mut parsed = 0;
    check("sip_msg_parse_render", CASES, |rng| {
        let (text, original) = match usize_in(rng, 0..3) {
            0 => {
                let b = noise_or_mutant(rng, |rng| arb_sip_message(rng).to_bytes());
                (String::from_utf8_lossy(&b).into_owned(), None)
            }
            _ => {
                let m = arb_sip_message(rng);
                (respell_sip(rng, &m.to_wire()), Some(m))
            }
        };
        let Ok(m) = SipMessage::parse(&text) else {
            assert!(original.is_none(), "respelled text did not parse: {text:?}");
            return;
        };
        parsed += 1;
        let heap = m.headers().heap_bytes();
        let bound = text.len() + 12 * text.matches('\n').count();
        assert!(heap <= bound, "{heap} heap bytes from {} input", text.len());
        if let Some(original) = original {
            assert_eq!(m.top_via(), original.top_via());
            assert_eq!(
                m.headers().get_all("Via").count(),
                original.headers().get_all("Via").count()
            );
            assert_eq!(m.from_header(), original.from_header());
            assert_eq!(m.to_header(), original.to_header());
            assert_eq!(m.call_id(), original.call_id());
            assert_eq!(m.cseq(), original.cseq());
            assert_eq!(m.contact(), original.contact());
            assert_eq!(m.body(), original.body());
        }
        let wire = m.to_wire();
        let again = SipMessage::parse(&wire).unwrap();
        assert_eq!(again, m);
        assert_eq!(again.to_wire(), wire);
    });
    assert!(parsed > CASES / 2, "only {parsed} inputs parsed");
}

/// Any single-stream SDP body with one to four payload types.
fn arb_sdp(rng: &mut SimRng) -> Sdp {
    Sdp {
        origin_user: string(rng, "a-zA-Z0-9._-", 1..12),
        session_id: rng.next_u64(),
        addr: arb_addr(rng),
        audio_port: rng.next_u64() as u16,
        payload_types: vec_of(rng, 1..5, |rng| rng.next_u64() as u8),
    }
}

/// An SDP body as another softphone might spell it: bare `\n` line ends,
/// runs of blanks between the `o=` and `m=` fields, `+` or zeros before
/// their numbers (the user name excepted) and attribute lines the parser
/// skips.
fn respell_sdp(rng: &mut SimRng, sdp: &Sdp) -> String {
    let mut out = String::new();
    for line in sdp.to_string().lines() {
        let (head, fields) = match (line.strip_prefix("o="), line.strip_prefix("m=audio ")) {
            (Some(rest), _) => ("o=", rest),
            (_, Some(rest)) => ("m=audio ", rest),
            _ => (line, ""),
        };
        out += head;
        for (i, field) in fields.split(' ').filter(|f| !f.is_empty()).enumerate() {
            if i > 0 {
                out += &string(rng, " \t", 1..4);
            }
            let user = head == "o=" && i == 0;
            if !user && field.bytes().all(|b| b.is_ascii_digit()) && rng.chance(0.5) {
                out += if rng.chance(0.5) { "+" } else { "00" };
            }
            out += field;
        }
        out += if rng.chance(0.5) { "\r\n" } else { "\n" };
        if rng.chance(0.25) {
            out += "a=rtpmap:0 PCMU/8000\r\n";
        }
    }
    out
}

/// The SDP parser over arbitrary, corrupted and respelled bodies:
/// whatever parses renders to text that parses back to the same
/// description and renders the same again, a respelled body reads as the
/// one it respells, and the description owns no more heap than the input
/// is long.
#[test]
fn sdp_parse_render_is_idempotent_and_bounded() {
    let mut parsed = 0;
    check("sdp_parse_render", CASES, |rng| {
        let (text, original) = match usize_in(rng, 0..3) {
            0 => {
                let b = noise_or_mutant(rng, |rng| arb_sdp(rng).to_string().into_bytes());
                (String::from_utf8_lossy(&b).into_owned(), None)
            }
            _ => {
                let sdp = arb_sdp(rng);
                (respell_sdp(rng, &sdp), Some(sdp))
            }
        };
        let Ok(sdp) = text.parse::<Sdp>() else {
            assert!(original.is_none(), "respelled body did not parse: {text:?}");
            return;
        };
        parsed += 1;
        let heap = sdp.origin_user.capacity() + sdp.payload_types.capacity();
        assert!(
            heap <= text.len(),
            "{heap} heap bytes from {} input",
            text.len()
        );
        if let Some(original) = original {
            assert_eq!(sdp, original, "{text:?}");
        }
        let wire = sdp.to_string();
        let again: Sdp = wire.parse().unwrap();
        assert_eq!(again, sdp);
        assert_eq!(again.to_string(), wire);
    });
    assert!(parsed > CASES / 2, "only {parsed} inputs parsed");
}

#[test]
fn rtp_parser_total() {
    check("rtp_parser_total", CASES, |rng| {
        let b = bytes(rng, 0..200);
        let _ = RtpPacket::parse(&b);
        let _ = RtcpReport::parse(&b);
    });
}

#[test]
fn uri_parser_total() {
    check("uri_parser_total", CASES, |rng| {
        let n = usize_in(rng, 0..61);
        let s: String = (0..n).map(|_| arb_char(rng)).collect();
        let _ = s.parse::<SipUri>();
        let _ = s.parse::<Via>();
        let _ = s.parse::<NameAddr>();
    });
}

fn arb_tunnel_msg(rng: &mut SimRng) -> TunnelMsg {
    match usize_in(rng, 0..6) {
        0 => TunnelMsg::Connect,
        1 => TunnelMsg::Lease {
            public: arb_addr(rng),
            lifetime_secs: rng.next_u64() as u32,
        },
        2 => TunnelMsg::Data {
            inner: arb_datagram(rng),
        },
        3 => TunnelMsg::Ping {
            seq: rng.next_u64(),
        },
        4 => TunnelMsg::Pong {
            seq: rng.next_u64(),
        },
        _ => TunnelMsg::Relay(arb_relay_msg(rng)),
    }
}

#[test]
fn tunnel_parser_total() {
    check("tunnel_parser_total", CASES, |rng| {
        let b = noise_or_mutant(rng, |rng| arb_tunnel_msg(rng).to_wire());
        let _ = TunnelMsg::parse(&b);
    });
}

#[test]
fn relay_parser_total() {
    check("relay_parser_total", CASES, |rng| {
        let b = noise_or_mutant(rng, |rng| arb_relay_msg(rng).to_wire());
        let _ = RelayMsg::parse(&b);
    });
}

#[test]
fn sdp_parser_total() {
    check("sdp_parser_total", CASES, |rng| {
        let b = noise_or_mutant(rng, |rng| {
            let sdp = Sdp::audio("alice", rng.next_u64(), arb_sock(rng));
            sdp.to_string().into_bytes()
        });
        let _ = String::from_utf8_lossy(&b).parse::<Sdp>();
    });
}

// ----------------------------------------------------------------------
// Model invariants
// ----------------------------------------------------------------------

#[test]
fn mos_decreases_with_loss() {
    check("mos_decreases_with_loss", CASES, |rng| {
        let d = SimDuration::from_millis(rng.range_u64(0, 400));
        let (l1, l2) = (rng.range_f64(0.0, 0.5), rng.range_f64(0.0, 0.5));
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let q_lo = quality::evaluate(&Codec::PCMU, d, lo);
        let q_hi = quality::evaluate(&Codec::PCMU, d, hi);
        assert!(q_hi.mos <= q_lo.mos + 1e-9);
    });
}

#[test]
fn mos_decreases_with_delay() {
    check("mos_decreases_with_delay", CASES, |rng| {
        let loss = rng.range_f64(0.0, 0.3);
        let (d1, d2) = (rng.range_u64(0, 500), rng.range_u64(0, 500));
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let q_lo = quality::evaluate(&Codec::PCMU, SimDuration::from_millis(lo), loss);
        let q_hi = quality::evaluate(&Codec::PCMU, SimDuration::from_millis(hi), loss);
        assert!(q_hi.mos <= q_lo.mos + 1e-9);
    });
}

#[test]
fn mos_always_in_valid_range() {
    check("mos_always_in_valid_range", CASES, |rng| {
        let delay = SimDuration::from_millis(rng.range_u64(0, 5_000));
        let q = quality::evaluate(&Codec::PCMU, delay, rng.range_f64(0.0, 1.0));
        assert!((1.0..=4.5).contains(&q.mos), "MOS {}", q.mos);
        assert!((0.0..=100.0).contains(&q.r_factor));
    });
}

#[test]
fn jitter_buffer_conserves_packets() {
    check("jitter_buffer_conserves_packets", CASES, |rng| {
        let seqs = vec_of(rng, 1..100, |rng| rng.next_u64() as u16);
        let mut jb = JitterBuffer::new(SimDuration::from_millis(60));
        let mut fed = 0u64;
        for (i, seq) in seqs.iter().enumerate() {
            let sent = SimTime::from_millis(20 * i as u64);
            let mut p = RtpPacket {
                payload_type: 0,
                seq: *seq,
                timestamp: 0,
                ssrc: 1,
                payload: vec![0u8; 160],
            };
            p.stamp_send_time(sent);
            jb.on_packet(&p, sent + SimDuration::from_millis(10));
            fed += 1;
        }
        let s = jb.stats();
        // Every fed packet is accounted exactly once.
        assert_eq!(s.played + s.late + s.duplicates, fed);
        // Expected is at least the distinct packets seen.
        assert!(s.expected >= 1);
        assert!(s.effective_loss_fraction() >= 0.0 && s.effective_loss_fraction() <= 1.0);
    });
}

#[test]
fn sip_parser_total_on_corrupted_valid_messages() {
    check(
        "sip_parser_total_on_corrupted_valid_messages",
        CASES,
        |rng| {
            // Start from a fully well-formed INVITE and mangle bytes the way
            // the chaos engine's `Corrupt` fault does: the parser must stay
            // total on near-valid input, not just on random noise.
            let mut m = SipMessage::request(Method::Invite, SipUri::new("bob", "voicehoc.ch"));
            m.headers_mut()
                .push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKchaos");
            m.headers_mut()
                .push("From", "<sip:alice@voicehoc.ch>;tag=a1");
            m.headers_mut().push("To", "<sip:bob@voicehoc.ch>");
            m.headers_mut().push("Call-ID", "chaos-call-1");
            m.headers_mut().push("CSeq", "1 INVITE");
            m.set_body("v=0", Some("application/sdp"));
            let wire = mutate(rng, m.to_wire().into_bytes());
            let _ = SipMessage::parse(&String::from_utf8_lossy(&wire));
        },
    );
}

#[test]
fn routing_table_lookup_agrees_with_insert() {
    check("routing_table_lookup_agrees_with_insert", CASES, |rng| {
        let dests: BTreeSet<u32> = vec_of(rng, 1..50, |rng| rng.next_u64() as u32)
            .into_iter()
            .collect();
        let next = rng.next_u64() as u32;
        let mut t = RoutingTable::new();
        for d in &dests {
            t.insert(
                Addr(*d),
                Route {
                    next_hop: Addr(next),
                    hops: 1,
                    expires: SimTime::MAX,
                    seq: 0,
                },
            );
        }
        assert_eq!(t.len(), dests.len());
        for d in &dests {
            let r = t.lookup(Addr(*d), SimTime::ZERO);
            assert_eq!(r.map(|r| r.next_hop), Some(Addr(next)));
        }
        // Invalidating the shared next hop empties the table.
        let dead = t.invalidate_via(Addr(next));
        assert_eq!(dead.len(), dests.len());
        assert!(t.is_empty());
    });
}

// ----------------------------------------------------------------------
// Duplicate suppression under forced retransmission
// ----------------------------------------------------------------------

/// Builds an INVITE carrying everything a server transaction matches on.
fn chaos_invite(branch: &str) -> SipMessage {
    let mut m = SipMessage::request(Method::Invite, SipUri::new("bob", "voicehoc.ch"));
    m.headers_mut()
        .push("Via", format!("SIP/2.0/UDP 10.0.0.1:5060;branch={branch}"));
    m.headers_mut()
        .push("From", "<sip:alice@voicehoc.ch>;tag=a1");
    m.headers_mut().push("To", "<sip:bob@voicehoc.ch>");
    m.headers_mut().push("Call-ID", "dup-call-1");
    m.headers_mut().push("CSeq", "1 INVITE");
    m
}

/// However many times a request or its ACK is retransmitted, the
/// transaction layer surfaces exactly one `Request` and one `Ack`;
/// every duplicate is absorbed (replaying the cached final).
#[test]
fn txn_layer_absorbs_duplicated_requests_and_acks() {
    check(
        "txn_layer_absorbs_duplicated_requests_and_acks",
        CASES,
        |rng| {
            let dups = usize_in(rng, 1..6);
            let mut rng = SimRng::from_seed_and_stream(7, 7);
            let mut routes = RoutingTable::new();
            let mut stats = NodeStats::default();
            let mut obs: siphoc_simnet::obs::NodeObs = Default::default();
            let mut effects: Vec<Effect> = Vec::new();
            let mut ctx = Ctx::for_test(
                SimTime::ZERO,
                Addr::manet(2),
                &mut rng,
                &mut routes,
                &mut stats,
                &mut obs,
                &mut effects,
            );
            let mut tl = TransactionLayer::new(5060);
            let inv = chaos_invite("z9hG4bKdup");
            let from = SocketAddr::new(Addr::manet(1), 5060);

            let mut surfaced = Vec::new();
            for _ in 0..=dups {
                if let Some(TxnEvent::Request { key, .. }) =
                    tl.on_datagram(&mut ctx, inv.clone(), from)
                {
                    surfaced.push(key);
                }
            }
            assert_eq!(surfaced.len(), 1, "one Request event per branch");

            // Answer with a final; further INVITE copies only replay it.
            let ok = SipMessage::response_to(&inv, StatusCode::OK);
            tl.respond(&mut ctx, &surfaced[0], ok);
            for _ in 0..dups {
                assert!(tl.on_datagram(&mut ctx, inv.clone(), from).is_none());
            }

            // Duplicated ACKs for the 2xx surface exactly once.
            let mut ack = SipMessage::request(Method::Ack, SipUri::new("bob", "voicehoc.ch"));
            ack.headers_mut()
                .push("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bKdup");
            ack.headers_mut().push("Call-ID", "dup-call-1");
            ack.headers_mut().push("CSeq", "1 ACK");
            let mut acks = 0;
            for _ in 0..=dups {
                if matches!(
                    tl.on_datagram(&mut ctx, ack.clone(), from),
                    Some(TxnEvent::Ack { .. })
                ) {
                    acks += 1;
                }
            }
            assert_eq!(acks, 1, "one Ack event per confirmed final");
        },
    );
}

/// End-to-end: whatever the seed and duplication rate, a call through
/// the full stack yields exactly one incoming dialog and one
/// establishment per side — duplicated finals never produce duplicate
/// `CallEvent`s.
#[test]
fn duplicated_finals_never_duplicate_call_events() {
    check("duplicated_finals_never_duplicate_call_events", 8, |rng| {
        let seed = rng.range_u64(0, 10_000);
        let dup_p = rng.range_f64(0.5, 1.0);
        let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
        let mk = |name: &str, call: Option<(u64, &str, u64)>| {
            let mut ua = VoipAppConfig::fig2(name, "voicehoc.ch")
                .to_ua_config()
                .expect("config");
            ua.answer_delay = SimDuration::from_millis(50);
            if let Some((at, to, dur)) = call {
                ua = ua.call_at(
                    SimTime::from_secs(at),
                    Aor::new(to, "voicehoc.ch"),
                    SimDuration::from_secs(dur),
                );
            }
            ua
        };
        let alice = deploy(
            &mut w,
            NodeSpec::relay(0.0, 0.0).with_user(mk("alice", Some((5, "bob", 5)))),
        );
        let bob = deploy(
            &mut w,
            NodeSpec::relay(50.0, 0.0).with_user(mk("bob", None)),
        );
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::All,
            PacketFaultKind::Duplicate,
            dup_p,
            SimTime::ZERO,
            SimTime::from_secs(60),
        ));
        w.run_for(SimDuration::from_secs(30));

        let a = alice.ua_logs[0].borrow();
        let b = bob.ua_logs[0].borrow();
        assert_eq!(
            a.count(|e| matches!(e, CallEvent::Established { .. })),
            1,
            "alice: {:?}",
            a.events()
        );
        assert_eq!(
            b.count(|e| matches!(e, CallEvent::IncomingCall { .. })),
            1,
            "bob: {:?}",
            b.events()
        );
        assert_eq!(
            b.count(|e| matches!(e, CallEvent::Established { .. })),
            1,
            "bob: {:?}",
            b.events()
        );
    });
}

// ----------------------------------------------------------------------
// Multi-homing invariants under gateway churn
// ----------------------------------------------------------------------

/// Under arbitrary sequential gateway churn the Connection Provider
/// (a) never exposes two public leases at once — promotion and
/// renumbering swap the alias atomically; (b) conserves its standby
/// accounting — every lease it ever warmed is promoted, declared
/// dead, dropped or expired, with at most `standby_target` still in
/// hand; and (c) retires every keepalive generation — once the last
/// gateway is gone and the outage declared, no stray standby or
/// tunnel pings keep firing from leaked timer chains.
#[test]
fn gateway_churn_never_doubles_leases_or_leaks_keepalives() {
    check(
        "gateway_churn_never_doubles_leases_or_leaks_keepalives",
        8,
        |rng| {
            let seed = rng.range_u64(0, 10_000);
            let churn = vec_of(rng, 1..5, |rng| {
                (
                    usize_in(rng, 0..3),
                    rng.range_u64(500, 4_000),
                    rng.range_u64(1_000, 4_000),
                )
            });
            let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
            // Three one-hop gateways around the client: churn can never
            // partition the survivors.
            let gws = [
                deploy(
                    &mut w,
                    NodeSpec::relay(0.0, 0.0).with_gateway(Addr::new(82, 130, 64, 1)),
                ),
                deploy(
                    &mut w,
                    NodeSpec::relay(120.0, 0.0).with_gateway(Addr::new(82, 130, 65, 1)),
                ),
                deploy(
                    &mut w,
                    NodeSpec::relay(60.0, 60.0).with_gateway(Addr::new(82, 130, 66, 1)),
                ),
            ];
            let alice = deploy(
                &mut w,
                NodeSpec::relay(60.0, 0.0).with_standby(2, SimDuration::from_secs(1)),
            );
            let pubs = |w: &World| -> usize {
                w.node(alice.id)
                    .local_addrs()
                    .filter(|a| a.is_public())
                    .count()
            };
            // Step the world in 100 ms slices, checking the single-lease
            // invariant at every slice boundary.
            let step_checked = |w: &mut World, ms: u64| {
                let mut left = ms;
                while left > 0 {
                    let slice = left.min(100);
                    w.run_for(SimDuration::from_millis(slice));
                    left -= slice;
                    assert!(
                        pubs(w) <= 1,
                        "two active leases at {:?}: {:?}",
                        w.now(),
                        w.node(alice.id).local_addrs().collect::<Vec<_>>()
                    );
                }
            };

            step_checked(&mut w, 15_000);
            for (idx, down_ms, up_ms) in churn {
                w.set_node_up(gws[idx].id, false);
                step_checked(&mut w, down_ms);
                w.set_node_up(gws[idx].id, true);
                step_checked(&mut w, up_ms);
            }
            // All three are up again: the client must re-lease within the
            // probe backoff's worst case.
            let releases = (0..700).any(|_| {
                step_checked(&mut w, 100);
                pubs(&w) == 1
            });
            assert!(releases, "client must hold one lease once churn ends");

            // Standby conservation: promotions and deaths only come out of
            // warmed leases, and whatever is unaccounted is still warm — at
            // most the configured target.
            let st = w.stats(alice.id);
            let warmed = st.get("cp.standby_warm").packets;
            let promoted = st.get("cp.promote").packets;
            let dead = st.get("cp.standby_dead").packets;
            let dropped = st.get("cp.standby_drop").packets;
            let expired = st.get("cp.standby_expired").packets;
            assert!(
                warmed >= promoted + dead,
                "promotions ({promoted}) + standby deaths ({dead}) exceed leases ever warmed ({warmed})"
            );
            assert!(
                warmed.saturating_sub(promoted + dead + dropped + expired) <= 2,
                "more than standby_target leases unaccounted: warmed {warmed}, \
                 promoted {promoted}, dead {dead}, dropped {dropped}, expired {expired}"
            );

            // Generation hygiene: kill every gateway, let the outage be
            // declared, and verify the keepalive machinery goes silent — a
            // leaked generation would keep a ping chain alive forever.
            for gw in &gws {
                w.set_node_up(gw.id, false);
            }
            let offline = (0..600).any(|_| {
                step_checked(&mut w, 100);
                pubs(&w) == 0
            });
            assert!(offline, "outage must be declared once no gateway exists");
            w.run_for(SimDuration::from_secs(5));
            let st = w.stats(alice.id);
            let (ping0, sping0) = (st.get("cp.ping").packets, st.get("cp.standby_ping").packets);
            w.run_for(SimDuration::from_secs(10));
            let st = w.stats(alice.id);
            assert_eq!(
                st.get("cp.ping").packets,
                ping0,
                "tunnel keepalives must stop with the lease"
            );
            assert_eq!(
                st.get("cp.standby_ping").packets,
                sping0,
                "standby keepalives must stop with the warm set"
            );
        },
    );
}

// ----------------------------------------------------------------------
// Hot-path determinism: the spatial index and shared payloads are pure
// optimizations
// ----------------------------------------------------------------------

/// FNV-1a over every captured trace field plus the dispatched event
/// count. Any divergence in receiver discovery, iteration order or RNG
/// draw order between two runs shows up as a different fingerprint.
fn trace_fingerprint(w: &World) -> u64 {
    use wireless_adhoc_voip::simnet::trace::TraceKind;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&mut h, &w.events_processed().to_le_bytes());
    for e in w.trace().entries() {
        eat(&mut h, &e.time.as_micros().to_le_bytes());
        eat(&mut h, &e.node.0.to_le_bytes());
        let kind: u8 = match e.kind {
            TraceKind::RadioTx => 1,
            TraceKind::RadioRx => 2,
            TraceKind::WiredRx => 3,
            TraceKind::Loopback => 4,
            TraceKind::Drop => 5,
        };
        eat(&mut h, &[kind]);
        eat(&mut h, e.reason.unwrap_or("").as_bytes());
        eat(&mut h, &e.dgram.ttl.to_le_bytes());
        eat(&mut h, &e.dgram.payload);
    }
    h
}

/// The world under test, or the full-scan reference it must equal.
fn mesh_world(seed: u64, spatial: bool) -> World {
    let cfg = WorldConfig::new(seed);
    if spatial {
        World::new(cfg)
    } else {
        World::with_full_scan_reference(cfg)
    }
}

/// Broadcast-heavy mesh on the default (lossy) radio; per-receiver loss
/// draws make the fingerprint sensitive to receiver-iteration order.
fn beacon_mesh_fingerprint(seed: u64, n: usize, spatial: bool) -> u64 {
    let mut w = mesh_world(seed, spatial);
    let mut rng = SimRng::from_seed_and_stream(seed, 4242);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let x = (i % 4) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        let y = (i / 4) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        ids.push(w.add_node(NodeConfig::manet(x, y)));
    }
    w.trace_mut().set_enabled(true);
    let mut t_ms = 0u64;
    while t_ms < 2_000 {
        w.run_until(SimTime::from_millis(t_ms));
        for &id in &ids {
            let src = SocketAddr::new(w.node(id).addr(), 9900);
            let dst = SocketAddr::new(Addr::BROADCAST, 9900);
            w.inject(id, Datagram::new(src, dst, id_payload(id)));
        }
        t_ms += 250;
    }
    w.run_until(SimTime::from_millis(2_000));
    trace_fingerprint(&w)
}

/// Per-sender payload so a swapped receiver/sender ordering cannot
/// accidentally fingerprint the same.
fn id_payload(id: NodeId) -> Vec<u8> {
    let mut p = vec![0xB5u8; 32];
    p[0] = id.0 as u8;
    p
}

/// For arbitrary seeds and mesh sizes, the grid-indexed hot path and
/// the full-scan reference produce byte-identical traces, and a rerun
/// with the same seed reproduces the run exactly.
#[test]
fn spatial_index_never_changes_the_trace() {
    check("spatial_index_never_changes_the_trace", 12, |rng| {
        let seed = rng.range_u64(0, 100_000);
        let n = usize_in(rng, 2..18);
        let grid = beacon_mesh_fingerprint(seed, n, true);
        let scan = beacon_mesh_fingerprint(seed, n, false);
        assert_eq!(
            grid, scan,
            "grid vs full scan diverged (seed {seed}, n {n})"
        );
        let again = beacon_mesh_fingerprint(seed, n, true);
        assert_eq!(
            grid, again,
            "same seed not reproducible (seed {seed}, n {n})"
        );
    });
}

/// A change [`mobile_mesh_fingerprint`] makes between run segments; a
/// node index is taken modulo the mutable nodes.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Park the node at `(x, y)`.
    Teleport(usize, f64, f64),
    /// Crash the node if it is up, restart it if it is down.
    Power(usize),
    /// Set the node walking random waypoints from where it stands, at up
    /// to the given speed: static → waypoint, or a waypoint node onto a
    /// new speed bound, whose replans queued under the old model must
    /// not move it.
    Walk(usize, f64),
    /// Stop the node where it stands: waypoint → static without a jump.
    Park(usize),
    /// Add a node at `(x, y)`.
    Join(f64, f64),
}

/// As [`beacon_mesh_fingerprint`], but nodes move, fail and arrive:
/// between run segments a random node is teleported, crashed or
/// restarted, set walking or parked, or a node joins, while a few nodes
/// walk random waypoints throughout. A pacer walking at 20 m/s, which no
/// mutation touches, keeps the neighbour lists' horizon at most 1.25 s,
/// so the 5 s run crosses at least three horizons; every mutation and
/// every horizon re-derives lists between broadcasts, and the radio must
/// read liveness from the arena. Asserts that between two segments no
/// node moves farther than its speed bound allows. Returns the trace
/// fingerprint and the world's `sim.neighbor_rebuilds`.
fn mobile_mesh_fingerprint(seed: u64, n: usize, muts: &[Mutation], spatial: bool) -> (u64, f64) {
    use wireless_adhoc_voip::simnet::mobility::{distance, Area, Mobility, WaypointParams};
    let mut w = mesh_world(seed, spatial);
    let mut rng = SimRng::from_seed_and_stream(seed, 4242);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let x = (i % 4) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        let y = (i / 4) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        ids.push(w.add_node(NodeConfig::manet(x, y)));
    }
    // A couple of waypoint walkers exercise on-schedule replans.
    let area = Area::new(300.0, 300.0);
    let wp = WaypointParams::new(5.0, 20.0, SimDuration::from_millis(100));
    for &id in ids.iter().take(2) {
        let start = (rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0));
        w.set_mobility(
            id,
            Mobility::random_waypoint(start, wp, area, SimTime::ZERO, &mut rng),
        );
    }
    let pacer = w.add_node(NodeConfig::manet(150.0, 150.0));
    let fast = WaypointParams::new(20.0, 20.0, SimDuration::ZERO);
    w.set_mobility(
        pacer,
        Mobility::random_waypoint((150.0, 150.0), fast, area, SimTime::ZERO, &mut rng),
    );
    w.trace_mut().set_enabled(true);
    // Each node's speed bound, by id, and where it stood after the last
    // mutation: between two steps no node outruns its bound by more than
    // the neighbour lists' rounding pad.
    let mut top_speed = vec![0.0; w.node_count()];
    for &id in ids.iter().take(2) {
        top_speed[id.0 as usize] = wp.max_speed;
    }
    top_speed[pacer.0 as usize] = fast.max_speed;
    let pad = 1e-3 * w.config().radio.range;
    let mut stood: Vec<(f64, f64)> = Vec::new();
    let mut t_ms = 0u64;
    let mut next_mut = 0usize;
    while t_ms < 5_000 {
        w.run_until(SimTime::from_millis(t_ms));
        for (i, &from) in stood.iter().enumerate() {
            let moved = distance(from, w.position(NodeId(i as u32)));
            let reach = top_speed[i] * 0.25 + pad;
            assert!(
                moved <= reach,
                "n{i} moved {moved} m in 250 ms, bound {reach} m"
            );
        }
        let pick = |idx: usize| ids[idx % ids.len()];
        match muts.get(next_mut) {
            Some(&Mutation::Teleport(idx, x, y)) => {
                let id = pick(idx);
                w.set_mobility(id, Mobility::fixed(x, y));
                top_speed[id.0 as usize] = 0.0;
            }
            Some(&Mutation::Power(idx)) => {
                let id = pick(idx);
                w.set_node_up(id, !w.is_up(id));
            }
            Some(&Mutation::Walk(idx, top)) => {
                let id = pick(idx);
                let params = WaypointParams::new(top / 2.0, top, SimDuration::from_millis(100));
                let mobility =
                    Mobility::random_waypoint(w.position(id), params, area, w.now(), &mut rng);
                w.set_mobility(id, mobility);
                top_speed[id.0 as usize] = top;
            }
            Some(&Mutation::Park(idx)) => {
                let id = pick(idx);
                let (x, y) = w.position(id);
                w.set_mobility(id, Mobility::fixed(x, y));
                top_speed[id.0 as usize] = 0.0;
            }
            Some(&Mutation::Join(x, y)) => {
                ids.push(w.add_node(NodeConfig::manet(x, y)));
                top_speed.push(0.0);
            }
            None => {}
        }
        next_mut += 1;
        stood = (0..w.node_count() as u32)
            .map(|i| w.position(NodeId(i)))
            .collect();
        for &id in ids.iter().chain([&pacer]) {
            let src = SocketAddr::new(w.node(id).addr(), 9900);
            let dst = SocketAddr::new(Addr::BROADCAST, 9900);
            w.inject(id, Datagram::new(src, dst, id_payload(id)));
        }
        t_ms += 250;
    }
    w.run_until(SimTime::from_millis(5_000));
    let rebuilds = w.obs_registry().gauge("sim.neighbor_rebuilds", &[]);
    (trace_fingerprint(&w), rebuilds.unwrap_or(0.0))
}

/// Neighbour-list maintenance is trace-invisible: under arbitrary
/// teleports, crashes, restarts, changes of mobility model and speed
/// bound, nodes joining mid-run and runs that cross several drift
/// horizons, the lists and the full-scan reference agree byte-for-byte,
/// no node outruns its speed bound, and the run reproduces exactly.
#[test]
fn incremental_grid_never_changes_the_trace() {
    check("incremental_grid_never_changes_the_trace", 10, |rng| {
        let seed = rng.range_u64(0, 100_000);
        let n = usize_in(rng, 4..16);
        let muts = vec_of(rng, 0..12, |rng| {
            let idx = rng.next_u64() as usize;
            let (x, y) = (rng.range_f64(-50.0, 350.0), rng.range_f64(-50.0, 350.0));
            match rng.range_u64(0, 10) {
                0..=2 => Mutation::Power(idx),
                3..=5 => Mutation::Teleport(idx, x, y),
                6 | 7 => Mutation::Walk(idx, rng.range_f64(5.0, 40.0)),
                8 => Mutation::Park(idx),
                _ => Mutation::Join(x, y),
            }
        });
        let (grid, rebuilds) = mobile_mesh_fingerprint(seed, n, &muts, true);
        let (scan, _) = mobile_mesh_fingerprint(seed, n, &muts, false);
        assert_eq!(
            grid, scan,
            "incremental grid diverged from full scan (seed {seed}, n {n}, {muts:?})"
        );
        // One build and at least three horizon refreshes.
        assert!(rebuilds >= 4.0, "{rebuilds} derivations (seed {seed})");
        let (again, _) = mobile_mesh_fingerprint(seed, n, &muts, true);
        assert_eq!(
            grid, again,
            "same seed not reproducible (seed {seed}, n {n})"
        );
    });
}

// ----------------------------------------------------------------------
// Adversarial: the hardened registry vs forged advert streams
// ----------------------------------------------------------------------

/// A hardened registry (`require_signed`) holding a validly-signed
/// SIP binding never lets an arbitrary stream of forgeries evict or
/// replace it — unsigned impersonations, attacker-signed
/// impersonations under the victim's coordinates, and Sybil entries
/// under attacker origins all bounce off the signature check and the
/// AOR/origin pins, whatever their contact, sequence boost or
/// lifetime. Afterwards the honest contact is still the only one
/// served for the AOR.
#[test]
fn forged_advert_stream_never_evicts_a_signed_entry() {
    use wireless_adhoc_voip::simnet::ident::KeyPair;
    use wireless_adhoc_voip::slp::registry::{Absorb, SlpRegistry};
    use wireless_adhoc_voip::slp::service::service_types;

    check(
        "forged_advert_stream_never_evicts_a_signed_entry",
        CASES,
        |rng| {
            let forgeries = vec_of(rng, 1..48, |rng| {
                (
                    arb_sock(rng),
                    arb_addr(rng),
                    rng.next_u64(),
                    rng.range_u64(1, 100_000) as u32,
                    rng.next_u64(),
                    rng.range_u64(0, 3) as u8,
                )
            });
            let now = SimTime::from_secs(5);
            let victim_origin = Addr::new(10, 0, 0, 7);
            let victim = KeyPair::for_addr(victim_origin.0);
            let aor = "bob@voicehoc.ch";
            let honest = ServiceEntry::sip_binding(
                aor,
                SocketAddr::new(victim_origin, 5060),
                victim_origin,
                3,
                600,
            )
            .signed(&victim);

            let mut reg = SlpRegistry::new();
            reg.set_require_signed(true);
            assert_eq!(reg.absorb_checked(honest.clone(), now), Absorb::Fresh);

            for (contact, sybil_origin, seq_boost, lifetime, sk, shape) in forgeries {
                let origin = if shape == 2 {
                    sybil_origin
                } else {
                    victim_origin
                };
                let forged = ServiceEntry::sip_binding(
                    aor,
                    contact,
                    origin,
                    3u64.saturating_add(seq_boost),
                    lifetime,
                );
                let kp = KeyPair::from_secret(sk);
                // Dolev–Yao: the adversary holds every key except the victim's.
                if kp == victim {
                    continue;
                }
                let forged = match shape {
                    0 => forged,             // unsigned impersonation
                    _ => forged.signed(&kp), // signed impersonation / Sybil
                };
                let verdict = reg.absorb_checked(forged, now);
                assert!(
                    verdict.rejected(),
                    "forgery absorbed as {verdict:?} (shape {shape})"
                );
            }

            let served = reg.lookup(service_types::SIP, aor, now);
            assert_eq!(served.len(), 1, "forgeries changed what is served");
            assert_eq!(served[0].contact, honest.contact);
            assert_eq!(served[0].origin, honest.origin);
            assert_eq!(
                reg.pinned_aor_identity(aor),
                Some(victim.identity()),
                "the AOR pin drifted off the victim's identity"
            );
        },
    );
}
