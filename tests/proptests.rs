//! Property-based tests over the stack's parsers, codecs and invariants.
//!
//! Three recurring properties:
//! * round-trip: `parse(serialize(x)) == x` for arbitrary well-formed `x`;
//! * totality: parsers never panic on arbitrary bytes;
//! * model invariants: monotonicity/conservation laws of the quality
//!   model, jitter buffer and routing table.

use proptest::prelude::*;

use wireless_adhoc_voip::core::config::VoipAppConfig;
use wireless_adhoc_voip::core::nodesetup::{deploy, NodeSpec};
use wireless_adhoc_voip::media::codec::Codec;
use wireless_adhoc_voip::media::jitter::JitterBuffer;
use wireless_adhoc_voip::media::quality;
use wireless_adhoc_voip::media::rtp::{RtcpReport, RtpPacket};
use wireless_adhoc_voip::routing::aodv::AodvMsg;
use wireless_adhoc_voip::routing::olsr::OlsrMsg;
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
use wireless_adhoc_voip::slp::service::{ServiceEntry, SlpRecord};

// ----------------------------------------------------------------------
// Generators
// ----------------------------------------------------------------------

fn arb_addr() -> impl Strategy<Value = Addr> {
    any::<u32>().prop_map(Addr)
}

fn arb_sock() -> impl Strategy<Value = SocketAddr> {
    (arb_addr(), any::<u16>()).prop_map(|(a, p)| SocketAddr::new(a, p))
}

/// Tokens safe inside our whitespace-delimited text formats.
fn arb_token() -> impl Strategy<Value = String> {
    // `-` alone is the wire marker for the empty key; exclude it.
    "[a-z0-9._@-]{1,24}".prop_filter("reserved", |s| s != "-")
}

fn arb_entry() -> impl Strategy<Value = ServiceEntry> {
    (
        arb_token(),
        arb_token(),
        arb_sock(),
        arb_addr(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(|(st, key, contact, origin, seq, lifetime)| ServiceEntry {
            service_type: st,
            key,
            contact,
            origin,
            seq,
            lifetime_secs: lifetime,
            auth: None,
        })
}

const ALL_METHODS: [Method; 6] = [
    Method::Register,
    Method::Invite,
    Method::Ack,
    Method::Bye,
    Method::Cancel,
    Method::Options,
];

fn arb_method() -> impl Strategy<Value = Method> {
    (0usize..ALL_METHODS.len()).prop_map(|i| ALL_METHODS[i])
}

/// Printable header values with no leading/trailing whitespace (the
/// parser trims around the colon) and no CR/LF.
fn arb_header_value() -> impl Strategy<Value = String> {
    "[!-~]([ -~]{0,28}[!-~])?"
}

// ----------------------------------------------------------------------
// Round-trips
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn addr_display_parse_round_trip(a in arb_addr()) {
        let shown = a.to_string();
        prop_assert_eq!(shown.parse::<Addr>().unwrap(), a);
    }

    #[test]
    fn socket_addr_round_trip(sa in arb_sock()) {
        prop_assert_eq!(sa.to_string().parse::<SocketAddr>().unwrap(), sa);
    }

    #[test]
    fn sip_uri_round_trip(user in "[a-z0-9]{1,12}", host in "[a-z0-9.]{1,20}", port in proptest::option::of(1u16..)) {
        let uri = SipUri { user: Some(user), host, port, params: vec![] };
        let shown = uri.to_string();
        prop_assert_eq!(shown.parse::<SipUri>().unwrap(), uri);
    }

    #[test]
    fn via_round_trip(sent_by in arb_sock(), branch in "z9hG4bK[a-f0-9]{1,16}") {
        let via = Via::new(sent_by, &branch);
        prop_assert_eq!(via.to_string().parse::<Via>().unwrap(), via);
    }

    #[test]
    fn cseq_round_trip(seq in any::<u32>(), method in "[A-Z]{2,10}") {
        let c = CSeq { seq, method };
        prop_assert_eq!(c.to_string().parse::<CSeq>().unwrap(), c);
    }

    #[test]
    fn name_addr_round_trip(user in "[a-z]{1,8}", host in "[a-z.]{1,12}", tag in proptest::option::of("[a-f0-9]{1,8}")) {
        let mut na = NameAddr::new(SipUri::new(&user, &host));
        if let Some(t) = &tag {
            na.set_tag(t);
        }
        prop_assert_eq!(na.to_string().parse::<NameAddr>().unwrap(), na);
    }

    #[test]
    fn sip_message_round_trip(
        user in "[a-z]{1,8}",
        host in "[a-z.]{1,12}",
        call_id in "[a-z0-9-]{1,20}",
        cseq in 1u32..1_000_000,
        body in "[ -~&&[^\r\n]]{0,80}",
    ) {
        let mut m = SipMessage::request(Method::Invite, SipUri::new(&user, &host));
        m.headers_mut().push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKx");
        m.headers_mut().push("From", format!("<sip:{user}@{host}>;tag=a"));
        m.headers_mut().push("To", format!("<sip:{user}@{host}>"));
        m.headers_mut().push("Call-ID", &call_id);
        m.headers_mut().push("CSeq", format!("{cseq} INVITE"));
        m.set_body(&body, Some("text/plain"));
        prop_assert_eq!(SipMessage::parse(&m.to_wire()).unwrap(), m);
    }

    /// Every method, with extension headers exercising the non-interned
    /// (owned) header-name path alongside the interned well-known set.
    #[test]
    fn sip_request_render_parse_round_trip(
        method in arb_method(),
        user in "[a-z]{1,8}",
        host in "[a-z.]{1,12}",
        call_id in "[a-z0-9-]{1,20}",
        cseq in 1u32..1_000_000,
        extras in proptest::collection::vec(
            ("X-[A-Za-z]{1,10}", arb_header_value()),
            0..4,
        ),
        body in "[ -~&&[^\r\n]]{0,80}",
    ) {
        let mut m = SipMessage::request(method, SipUri::new(&user, &host));
        m.headers_mut().push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKx");
        m.headers_mut().push("From", format!("<sip:{user}@{host}>;tag=a"));
        m.headers_mut().push("To", format!("<sip:{user}@{host}>"));
        m.headers_mut().push("Call-ID", &call_id);
        m.headers_mut().push("CSeq", format!("{cseq} {}", method.as_str()));
        for (name, value) in &extras {
            m.headers_mut().push(name, value);
        }
        if !body.is_empty() {
            m.set_body(&body, Some("application/sdp"));
        }
        prop_assert_eq!(SipMessage::parse(&m.to_wire()).unwrap(), m);
    }

    /// Responses across the full status range (including codes without a
    /// canonical reason phrase) survive render↔parse byte-exactly.
    #[test]
    fn sip_response_render_parse_round_trip(
        code in 100u16..700,
        user in "[a-z]{1,8}",
        host in "[a-z.]{1,12}",
        call_id in "[a-z0-9-]{1,20}",
        cseq in 1u32..1_000_000,
        extras in proptest::collection::vec(
            ("X-[A-Za-z]{1,10}", arb_header_value()),
            0..4,
        ),
        body in "[ -~&&[^\r\n]]{0,80}",
    ) {
        let mut req = SipMessage::request(Method::Invite, SipUri::new(&user, &host));
        req.headers_mut().push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKx");
        req.headers_mut().push("From", format!("<sip:{user}@{host}>;tag=a"));
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
        prop_assert_eq!(SipMessage::parse(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn sdp_round_trip(user in "[a-z]{1,8}", id in any::<u32>(), sock in arb_sock()) {
        let sdp = Sdp::audio(&user, id as u64, sock);
        prop_assert_eq!(sdp.to_string().parse::<Sdp>().unwrap(), sdp);
    }

    #[test]
    fn service_entry_round_trip(e in arb_entry()) {
        let wire = e.to_wire();
        prop_assert_eq!(SlpRecord::parse(&wire).unwrap(), SlpRecord::Reg(e));
    }

    #[test]
    fn slp_rply_round_trip(xid in any::<u32>(), entries in proptest::collection::vec(arb_entry(), 0..5)) {
        let m = SlpMsg::SrvRply { xid, entries };
        prop_assert_eq!(SlpMsg::parse(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn aodv_rreq_round_trip(
        flags in 0u8..4,
        hop_count in any::<u8>(),
        ttl in any::<u8>(),
        rreq_id in any::<u32>(),
        dst in arb_addr(),
        orig in arb_addr(),
        entries in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..4),
    ) {
        let m = AodvMsg::Rreq {
            flags, hop_count, ttl, rreq_id, dst, dst_seq: 7, orig, orig_seq: 9, entries,
        };
        prop_assert_eq!(AodvMsg::parse(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn olsr_tc_round_trip(
        orig in arb_addr(),
        msg_seq in any::<u16>(),
        ansn in any::<u16>(),
        ttl in any::<u8>(),
        selectors in proptest::collection::vec(arb_addr(), 0..8),
    ) {
        let m = OlsrMsg::Tc { orig, msg_seq, ansn, ttl, selectors, entries: vec![] };
        prop_assert_eq!(OlsrMsg::parse(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn rtp_round_trip(pt in 0u8..128, seq in any::<u16>(), ts in any::<u32>(), ssrc in any::<u32>(), payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let p = RtpPacket { payload_type: pt, seq, timestamp: ts, ssrc, payload };
        prop_assert_eq!(RtpPacket::parse(&p.to_bytes()).unwrap(), p);
    }
}

// ----------------------------------------------------------------------
// Totality: parsers must never panic on arbitrary input
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn sip_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = SipMessage::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn aodv_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = AodvMsg::parse(&bytes);
    }

    #[test]
    fn olsr_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = OlsrMsg::parse(&bytes);
    }

    #[test]
    fn slp_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = SlpMsg::parse(&bytes);
        let _ = SlpRecord::parse(&bytes);
    }

    #[test]
    fn rtp_parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = RtpPacket::parse(&bytes);
        let _ = RtcpReport::parse(&bytes);
    }

    #[test]
    fn uri_parser_total(s in "\\PC{0,60}") {
        let _ = s.parse::<SipUri>();
        let _ = s.parse::<Via>();
        let _ = s.parse::<NameAddr>();
    }
}

// ----------------------------------------------------------------------
// Model invariants
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn mos_decreases_with_loss(delay_ms in 0u64..400, l1 in 0.0f64..0.5, l2 in 0.0f64..0.5) {
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let d = SimDuration::from_millis(delay_ms);
        let q_lo = quality::evaluate(&Codec::PCMU, d, lo);
        let q_hi = quality::evaluate(&Codec::PCMU, d, hi);
        prop_assert!(q_hi.mos <= q_lo.mos + 1e-9);
    }

    #[test]
    fn mos_decreases_with_delay(loss in 0.0f64..0.3, d1 in 0u64..500, d2 in 0u64..500) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let q_lo = quality::evaluate(&Codec::PCMU, SimDuration::from_millis(lo), loss);
        let q_hi = quality::evaluate(&Codec::PCMU, SimDuration::from_millis(hi), loss);
        prop_assert!(q_hi.mos <= q_lo.mos + 1e-9);
    }

    #[test]
    fn mos_always_in_valid_range(delay_ms in 0u64..5_000, loss in 0.0f64..1.0) {
        let q = quality::evaluate(&Codec::PCMU, SimDuration::from_millis(delay_ms), loss);
        prop_assert!((1.0..=4.5).contains(&q.mos), "MOS {}", q.mos);
        prop_assert!((0.0..=100.0).contains(&q.r_factor));
    }

    #[test]
    fn jitter_buffer_conserves_packets(
        seqs in proptest::collection::vec(any::<u16>(), 1..100),
    ) {
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
        prop_assert_eq!(s.played + s.late + s.duplicates, fed);
        // Expected is at least the distinct packets seen.
        prop_assert!(s.expected >= 1);
        prop_assert!(s.effective_loss_fraction() >= 0.0 && s.effective_loss_fraction() <= 1.0);
    }

    #[test]
    fn sip_parser_total_on_corrupted_valid_messages(
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        // Start from a fully well-formed INVITE and mangle bytes the way
        // the chaos engine's `Corrupt` fault does: the parser must stay
        // total on near-valid input, not just on random noise.
        let mut m = SipMessage::request(Method::Invite, SipUri::new("bob", "voicehoc.ch"));
        m.headers_mut().push("Via", "SIP/2.0/UDP 10.0.0.1:5070;branch=z9hG4bKchaos");
        m.headers_mut().push("From", "<sip:alice@voicehoc.ch>;tag=a1");
        m.headers_mut().push("To", "<sip:bob@voicehoc.ch>");
        m.headers_mut().push("Call-ID", "chaos-call-1");
        m.headers_mut().push("CSeq", "1 INVITE");
        m.set_body("v=0", Some("application/sdp"));
        let mut wire = m.to_wire().into_bytes();
        for (pos, xor) in flips {
            let i = pos % wire.len();
            wire[i] ^= xor;
        }
        let _ = SipMessage::parse(&String::from_utf8_lossy(&wire));
    }

    #[test]
    fn routing_table_lookup_agrees_with_insert(
        dests in proptest::collection::btree_set(any::<u32>(), 1..50),
        next in any::<u32>(),
    ) {
        let mut t = RoutingTable::new();
        for d in &dests {
            t.insert(Addr(*d), Route { next_hop: Addr(next), hops: 1, expires: SimTime::MAX, seq: 0 });
        }
        prop_assert_eq!(t.len(), dests.len());
        for d in &dests {
            let r = t.lookup(Addr(*d), SimTime::ZERO);
            prop_assert!(r.is_some());
            prop_assert_eq!(r.unwrap().next_hop, Addr(next));
        }
        // Invalidating the shared next hop empties the table.
        let dead = t.invalidate_via(Addr(next));
        prop_assert_eq!(dead.len(), dests.len());
        prop_assert!(t.is_empty());
    }
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

proptest! {
    /// However many times a request or its ACK is retransmitted, the
    /// transaction layer surfaces exactly one `Request` and one `Ack`;
    /// every duplicate is absorbed (replaying the cached final).
    #[test]
    fn txn_layer_absorbs_duplicated_requests_and_acks(dups in 1usize..6) {
        let mut rng = SimRng::from_seed_and_stream(7, 7);
        let mut routes = RoutingTable::new();
        let mut stats = NodeStats::default();
        let mut obs = siphoc_simnet::obs::NodeObs::default();
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
        let mut tl = TransactionLayer::new(5060, 0);
        let inv = chaos_invite("z9hG4bKdup");
        let from = SocketAddr::new(Addr::manet(1), 5060);

        let mut surfaced = Vec::new();
        for _ in 0..=dups {
            if let Some(TxnEvent::Request { key, .. }) = tl.on_datagram(&mut ctx, inv.clone(), from) {
                surfaced.push(key);
            }
        }
        prop_assert_eq!(surfaced.len(), 1, "one Request event per branch");

        // Answer with a final; further INVITE copies only replay it.
        let ok = SipMessage::response_to(&inv, StatusCode::OK);
        tl.respond(&mut ctx, &surfaced[0], ok);
        for _ in 0..dups {
            prop_assert!(tl.on_datagram(&mut ctx, inv.clone(), from).is_none());
        }

        // Duplicated ACKs for the 2xx surface exactly once.
        let mut ack = SipMessage::request(Method::Ack, SipUri::new("bob", "voicehoc.ch"));
        ack.headers_mut().push("Via", "SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bKdup");
        ack.headers_mut().push("Call-ID", "dup-call-1");
        ack.headers_mut().push("CSeq", "1 ACK");
        let mut acks = 0;
        for _ in 0..=dups {
            if matches!(tl.on_datagram(&mut ctx, ack.clone(), from), Some(TxnEvent::Ack { .. })) {
                acks += 1;
            }
        }
        prop_assert_eq!(acks, 1, "one Ack event per confirmed final");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: whatever the seed and duplication rate, a call through
    /// the full stack yields exactly one incoming dialog and one
    /// establishment per side — duplicated finals never produce duplicate
    /// `CallEvent`s.
    #[test]
    fn duplicated_finals_never_duplicate_call_events(
        seed in 0u64..10_000,
        dup_p in 0.5f64..=1.0,
    ) {
        let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
        let mk = |name: &str, call: Option<(u64, &str, u64)>| {
            let mut ua = VoipAppConfig::fig2(name, "voicehoc.ch").to_ua_config().expect("config");
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
        let bob = deploy(&mut w, NodeSpec::relay(50.0, 0.0).with_user(mk("bob", None)));
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
        prop_assert_eq!(
            a.count(|e| matches!(e, CallEvent::Established { .. })),
            1,
            "alice: {:?}",
            a.events()
        );
        prop_assert_eq!(
            b.count(|e| matches!(e, CallEvent::IncomingCall { .. })),
            1,
            "bob: {:?}",
            b.events()
        );
        prop_assert_eq!(
            b.count(|e| matches!(e, CallEvent::Established { .. })),
            1,
            "bob: {:?}",
            b.events()
        );
    }
}

// ----------------------------------------------------------------------
// Multi-homing invariants under gateway churn
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under arbitrary sequential gateway churn the Connection Provider
    /// (a) never exposes two public leases at once — promotion and
    /// renumbering swap the alias atomically; (b) conserves its standby
    /// accounting — every lease it ever warmed is promoted, declared
    /// dead, dropped or expired, with at most `standby_target` still in
    /// hand; and (c) retires every keepalive generation — once the last
    /// gateway is gone and the outage declared, no stray standby or
    /// tunnel pings keep firing from leaked timer chains.
    #[test]
    fn gateway_churn_never_doubles_leases_or_leaks_keepalives(
        seed in 0u64..10_000,
        churn in proptest::collection::vec(
            (0usize..3, 500u64..4_000, 1_000u64..4_000),
            1..5,
        ),
    ) {
        let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
        // Three one-hop gateways around the client: churn can never
        // partition the survivors.
        let gws = [
            deploy(&mut w, NodeSpec::relay(0.0, 0.0).with_gateway(Addr::new(82, 130, 64, 1))),
            deploy(&mut w, NodeSpec::relay(120.0, 0.0).with_gateway(Addr::new(82, 130, 65, 1))),
            deploy(&mut w, NodeSpec::relay(60.0, 60.0).with_gateway(Addr::new(82, 130, 66, 1))),
        ];
        let alice = deploy(
            &mut w,
            NodeSpec::relay(60.0, 0.0).with_standby(2, SimDuration::from_secs(1)),
        );
        let pubs = |w: &World| -> usize {
            w.node(alice.id)
                .local_addrs()
                .iter()
                .filter(|a| a.is_public())
                .count()
        };
        // Step the world in 100 ms slices, checking the single-lease
        // invariant at every slice boundary.
        macro_rules! step_checked {
            ($ms:expr) => {
                let mut left = $ms;
                while left > 0 {
                    let slice = left.min(100);
                    w.run_for(SimDuration::from_millis(slice));
                    left -= slice;
                    prop_assert!(
                        pubs(&w) <= 1,
                        "two active leases at {:?}: {:?}",
                        w.now(),
                        w.node(alice.id).local_addrs()
                    );
                }
            };
        }

        step_checked!(15_000);
        for (idx, down_ms, up_ms) in churn {
            w.set_node_up(gws[idx].id, false);
            step_checked!(down_ms);
            w.set_node_up(gws[idx].id, true);
            step_checked!(up_ms);
        }
        // All three are up again: the client must re-lease within the
        // probe backoff's worst case.
        let mut releases = false;
        for _ in 0..700u32 {
            step_checked!(100);
            if pubs(&w) == 1 {
                releases = true;
                break;
            }
        }
        prop_assert!(releases, "client must hold one lease once churn ends");

        // Standby conservation: promotions and deaths only come out of
        // warmed leases, and whatever is unaccounted is still warm — at
        // most the configured target.
        let st = w.node(alice.id).stats();
        let warmed = st.get("cp.standby_warm").packets;
        let promoted = st.get("cp.promote").packets;
        let dead = st.get("cp.standby_dead").packets;
        let dropped = st.get("cp.standby_drop").packets;
        let expired = st.get("cp.standby_expired").packets;
        prop_assert!(
            warmed >= promoted + dead,
            "promotions ({promoted}) + standby deaths ({dead}) exceed leases ever warmed ({warmed})"
        );
        prop_assert!(
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
        let mut offline = false;
        for _ in 0..600u32 {
            step_checked!(100);
            if pubs(&w) == 0 {
                offline = true;
                break;
            }
        }
        prop_assert!(offline, "outage must be declared once no gateway exists");
        w.run_for(SimDuration::from_secs(5));
        let st = w.node(alice.id).stats();
        let (ping0, sping0) = (st.get("cp.ping").packets, st.get("cp.standby_ping").packets);
        w.run_for(SimDuration::from_secs(10));
        let st = w.node(alice.id).stats();
        prop_assert_eq!(
            st.get("cp.ping").packets, ping0,
            "tunnel keepalives must stop with the lease"
        );
        prop_assert_eq!(
            st.get("cp.standby_ping").packets, sping0,
            "standby keepalives must stop with the warm set"
        );
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary seeds and mesh sizes, the grid-indexed hot path and
    /// the full-scan reference produce byte-identical traces, and a rerun
    /// with the same seed reproduces the run exactly.
    #[test]
    fn spatial_index_never_changes_the_trace(seed in 0u64..100_000, n in 2usize..18) {
        let grid = beacon_mesh_fingerprint(seed, n, true);
        let scan = beacon_mesh_fingerprint(seed, n, false);
        prop_assert_eq!(grid, scan, "grid vs full scan diverged (seed {}, n {})", seed, n);
        let again = beacon_mesh_fingerprint(seed, n, true);
        prop_assert_eq!(grid, again, "same seed not reproducible (seed {}, n {})", seed, n);
    }
}

/// As [`beacon_mesh_fingerprint`], but nodes move: a random subset is
/// teleported between run segments and another subset walks random
/// waypoints, so the spatial index must re-bin cells incrementally
/// (`move_node`/`set_mobility`/replan all dirty single cells, never the
/// whole index).
fn mobile_mesh_fingerprint(seed: u64, n: usize, moves: &[(usize, f64, f64)], spatial: bool) -> u64 {
    use wireless_adhoc_voip::simnet::mobility::{Area, Mobility, WaypointParams};
    let mut w = mesh_world(seed, spatial);
    let mut rng = SimRng::from_seed_and_stream(seed, 4242);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let x = (i % 4) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        let y = (i / 4) as f64 * 70.0 + rng.range_f64(-15.0, 15.0);
        ids.push(w.add_node(NodeConfig::manet(x, y)));
    }
    // A couple of waypoint walkers exercise replan-driven re-binning.
    let area = Area::new(300.0, 300.0);
    let wp = WaypointParams::new(5.0, 20.0, SimDuration::from_millis(100));
    for &id in ids.iter().take(2) {
        let start = (rng.range_f64(0.0, 300.0), rng.range_f64(0.0, 300.0));
        w.set_mobility(
            id,
            Mobility::random_waypoint(start, wp, area, SimTime::ZERO, &mut rng),
        );
    }
    w.trace_mut().set_enabled(true);
    let mut t_ms = 0u64;
    let mut next_move = 0usize;
    while t_ms < 2_000 {
        w.run_until(SimTime::from_millis(t_ms));
        if let Some(&(idx, x, y)) = moves.get(next_move) {
            w.move_node(ids[idx % ids.len()], x, y);
            next_move += 1;
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Per-cell incremental grid maintenance is trace-invisible: under
    /// arbitrary teleports and waypoint mobility, the incrementally
    /// maintained index and the full-scan reference agree byte-for-byte,
    /// and the run reproduces exactly.
    #[test]
    fn incremental_grid_never_changes_the_trace(
        seed in 0u64..100_000,
        n in 4usize..16,
        moves in proptest::collection::vec(
            (any::<usize>(), -50.0f64..350.0, -50.0f64..350.0),
            0..6,
        ),
    ) {
        let grid = mobile_mesh_fingerprint(seed, n, &moves, true);
        let scan = mobile_mesh_fingerprint(seed, n, &moves, false);
        prop_assert_eq!(grid, scan, "incremental grid diverged from full scan (seed {}, n {})", seed, n);
        let again = mobile_mesh_fingerprint(seed, n, &moves, true);
        prop_assert_eq!(grid, again, "same seed not reproducible (seed {}, n {})", seed, n);
    }
}

// ----------------------------------------------------------------------
// Adversarial: the hardened registry vs forged advert streams
// ----------------------------------------------------------------------

proptest! {
    /// A hardened registry (`require_signed`) holding a validly-signed
    /// SIP binding never lets an arbitrary stream of forgeries evict or
    /// replace it — unsigned impersonations, attacker-signed
    /// impersonations under the victim's coordinates, and Sybil entries
    /// under attacker origins all bounce off the signature check and the
    /// AOR/origin pins, whatever their contact, sequence boost or
    /// lifetime. Afterwards the honest contact is still the only one
    /// served for the AOR.
    #[test]
    fn forged_advert_stream_never_evicts_a_signed_entry(
        forgeries in proptest::collection::vec(
            (arb_sock(), arb_addr(), any::<u64>(), 1u32..100_000, any::<u64>(), 0u8..3),
            1..48,
        ),
    ) {
        use wireless_adhoc_voip::simnet::ident::KeyPair;
        use wireless_adhoc_voip::slp::registry::{Absorb, SlpRegistry};
        use wireless_adhoc_voip::slp::service::service_types;

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
        prop_assert_eq!(reg.absorb_checked(honest.clone(), now), Absorb::Fresh);

        for (contact, sybil_origin, seq_boost, lifetime, sk, shape) in forgeries {
            let origin = if shape == 2 { sybil_origin } else { victim_origin };
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
                0 => forged,            // unsigned impersonation
                _ => forged.signed(&kp), // signed impersonation / Sybil
            };
            let verdict = reg.absorb_checked(forged, now);
            prop_assert!(
                verdict.rejected(),
                "forgery absorbed as {:?} (shape {})",
                verdict,
                shape
            );
        }

        let served = reg.lookup(service_types::SIP, aor, now);
        prop_assert_eq!(served.len(), 1, "forgeries changed what is served");
        prop_assert_eq!(served[0].contact, honest.contact);
        prop_assert_eq!(served[0].origin, honest.origin);
        prop_assert_eq!(
            reg.pinned_aor_identity(aor),
            Some(victim.identity()),
            "the AOR pin drifted off the victim's identity"
        );
    }
}
