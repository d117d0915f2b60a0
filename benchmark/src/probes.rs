//! Layer probes: host nanoseconds per operation of single entry points,
//! timed from outside.
//!
//! Codec probes replay the datagrams the traced run captured, so they
//! time each codec on *that workload's* message mix; a workload that
//! carries none of a protocol reports 0 for it. State and simulator
//! probes drive fixed synthetic inputs and read the same on every
//! workload — they are there so a change in one layer shows in its own
//! row even when the end-to-end numbers hide it.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use wireless_adhoc_voip::core::tunnel::TunnelMsg;
use wireless_adhoc_voip::media::codec::Codec;
use wireless_adhoc_voip::media::jitter::JitterBuffer;
use wireless_adhoc_voip::media::quality;
use wireless_adhoc_voip::media::rtp::RtpPacket;
use wireless_adhoc_voip::routing::aodv::AodvMsg;
use wireless_adhoc_voip::routing::olsr::OlsrMsg;
use wireless_adhoc_voip::simnet::net::Payload;
use wireless_adhoc_voip::simnet::obs::{NodeObs, SpanCat};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::sip::msg::SipMessage;
use wireless_adhoc_voip::sip::registrar::BindingTable;
use wireless_adhoc_voip::sip::uri::{Aor, SipUri};
use wireless_adhoc_voip::slp::msg::SlpMsg;
use wireless_adhoc_voip::slp::registry::SlpRegistry;
use wireless_adhoc_voip::slp::service::ServiceEntry;

use crate::measure::Captured;
use crate::spans::Recorder;

/// Rounds per probe; the fastest is reported (interference only adds).
const ROUNDS: usize = 5;
/// Host time one round runs for.
const ROUND_S: f64 = 0.012;

/// Nanoseconds per operation: `batch` does some work and returns how
/// many operations that was; it is repeated until a round has run long
/// enough, and the fastest of the rounds is kept. 0 if `batch` reports no
/// operations (nothing to probe).
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let mut ops = 0;
        loop {
            let done = batch();
            if done == 0 {
                return 0.0;
            }
            ops += done;
            if started.elapsed().as_secs_f64() >= ROUND_S {
                break;
            }
        }
        best = best.min(started.elapsed().as_secs_f64() * 1e9 / ops as f64);
    }
    best
}

/// Decode and re-encode cost over captured payloads: keeps what parses,
/// then times `parse` over the raw bytes and `encode` over the parsed
/// messages. Returns `(decode_ns, encode_ns)` per message.
fn codec<M>(
    samples: &[Payload],
    parse: impl Fn(&[u8]) -> Option<M>,
    encode: impl Fn(&M) -> usize,
) -> (f64, f64) {
    let good: Vec<(&Payload, M)> = samples
        .iter()
        .filter_map(|p| parse(p).map(|m| (p, m)))
        .collect();
    let decode = ns_per_op(|| {
        for (raw, _) in &good {
            black_box(parse(black_box(raw)));
        }
        good.len() as u64
    });
    let encode_ns = ns_per_op(|| {
        for (_, msg) in &good {
            black_box(encode(black_box(msg)));
        }
        good.len() as u64
    });
    (decode, encode_ns)
}

/// Re-arms a timer every millisecond and does nothing else.
struct Ticker;

impl Process for Ticker {
    fn name(&self) -> &'static str {
        "probe-ticker"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
}

/// Binds the probe port and counts what arrives, so deliveries take the
/// full dispatch path and the probe can read their number in O(1).
struct Sink(Rc<Cell<u64>>);

impl Process for Sink {
    fn name(&self) -> &'static str {
        "probe-sink"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(PROBE_PORT);
    }
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: &Datagram) {
        self.0.set(self.0.get() + 1);
    }
}

const PROBE_PORT: u16 = 9960;

fn probe_dgram(src: Addr, dst: Addr) -> Datagram {
    Datagram::new(
        SocketAddr::new(src, PROBE_PORT),
        SocketAddr::new(dst, PROBE_PORT),
        vec![0xAB; 64],
    )
}

/// Queue + dispatch only: 1000 nodes out of each other's range, each
/// re-arming one timer.
fn timer_event_ns() -> f64 {
    let mut w = World::new(WorldConfig::new(1));
    for i in 0..1000 {
        let id = w.add_node(NodeConfig::manet(i as f64 * 1000.0, 0.0));
        w.spawn(id, Box::new(Ticker));
    }
    w.run_for(SimDuration::from_millis(5));
    ns_per_op(|| {
        let before = w.events_processed();
        w.run_for(SimDuration::from_millis(20));
        w.events_processed() - before
    })
}

/// Broadcast fan-out per delivery: a static 20×20 mesh at 40 m pitch
/// (about 19 receivers per frame), every node sending one beacon per
/// batch.
fn bcast_rx_ns() -> f64 {
    let mut w = World::new(WorldConfig::new(2));
    let delivered = Rc::new(Cell::new(0));
    let ids: Vec<NodeId> = (0..400)
        .map(|i| {
            let id = w.add_node(NodeConfig::manet(
                (i % 20) as f64 * 40.0,
                (i / 20) as f64 * 40.0,
            ));
            w.spawn(id, Box::new(Sink(delivered.clone())));
            id
        })
        .collect();
    w.run_for(SimDuration::from_millis(1));
    ns_per_op(|| {
        let before = delivered.get();
        for &id in &ids {
            let src = w.node(id).addr();
            w.inject(id, probe_dgram(src, Addr::BROADCAST));
        }
        w.run_for(SimDuration::from_millis(50));
        delivered.get() - before
    })
}

/// Unicast forwarding per hop: a 40-node chain at 60 m with static
/// routes on a lossless radio, datagrams sent end to end.
fn unicast_hop_ns() -> f64 {
    let mut w = World::new(WorldConfig::new(3).with_radio(RadioConfig::ideal()));
    let ids: Vec<NodeId> = (0..40)
        .map(|i| w.add_node(NodeConfig::manet(i as f64 * 60.0, 0.0)))
        .collect();
    let addrs: Vec<Addr> = ids.iter().map(|id| w.node(*id).addr()).collect();
    let last = *addrs.last().expect("chain is not empty");
    for (i, id) in ids.iter().enumerate().take(ids.len() - 1) {
        let route = Route {
            next_hop: addrs[i + 1],
            hops: (ids.len() - 1 - i) as u8,
            expires: SimTime::MAX,
            seq: 0,
        };
        w.install_route(*id, last, route);
    }
    let delivered = Rc::new(Cell::new(0));
    w.spawn(ids[ids.len() - 1], Box::new(Sink(delivered.clone())));
    w.run_for(SimDuration::from_millis(1));
    let hops = ids.len() as u64 - 1;
    ns_per_op(|| {
        let before = delivered.get();
        for _ in 0..20 {
            w.inject(ids[0], probe_dgram(addrs[0], last));
        }
        w.run_for(SimDuration::from_millis(200));
        (delivered.get() - before) * hops
    })
}

fn loss_sample_ns() -> f64 {
    let radio = RadioConfig::default_80211b();
    let prepared = radio.loss.prepare(radio.range);
    let mut rng = SimRng::from_seed_and_stream(4, 4);
    ns_per_op(|| {
        let mut lost = 0u32;
        for i in 0..4096u32 {
            let dist = f64::from(i % 100) + 0.5;
            lost += u32::from(prepared.sample_loss(black_box(dist), &mut rng));
        }
        black_box(lost);
        4096
    })
}

fn route_lookup_ns() -> f64 {
    let mut table = RoutingTable::new();
    for i in 0..400 {
        let route = Route {
            next_hop: Addr::manet(i % 7),
            hops: 3,
            expires: SimTime::MAX,
            seq: 0,
        };
        table.insert(Addr::manet(i), route);
    }
    ns_per_op(|| {
        for i in 0..4096u32 {
            black_box(table.lookup(Addr::manet(black_box(i * 7 % 400)), SimTime::ZERO));
        }
        4096
    })
}

const USERS: usize = 256;

fn user_aor(i: usize) -> Aor {
    Aor::new(&format!("u{i}"), "voicehoc.ch")
}

/// `(bind_ns, lookup_ns)`: a fresh table per batch, each of 256 AORs
/// bound and then refreshed; lookups over the filled table.
fn registrar_ns() -> (f64, f64) {
    let aors: Vec<Aor> = (0..USERS).map(user_aor).collect();
    let contacts: Vec<SipUri> = (0..USERS)
        .map(|i| {
            SipUri::from_socket(
                Some(&format!("u{i}")),
                SocketAddr::new(Addr::manet(i as u32), 5070),
            )
        })
        .collect();
    let fill = || {
        let mut table = BindingTable::new();
        for round in 1..=2 {
            for (aor, contact) in aors.iter().zip(&contacts) {
                table.bind(
                    aor.clone(),
                    contact.clone(),
                    SimTime::from_secs(3600 * round),
                );
            }
        }
        table
    };
    let bind = ns_per_op(|| {
        black_box(fill());
        2 * USERS as u64
    });
    let table = fill();
    let lookup = ns_per_op(|| {
        for aor in &aors {
            black_box(table.lookup(black_box(aor), SimTime::ZERO));
        }
        USERS as u64
    });
    (bind, lookup)
}

/// `(absorb_ns, lookup_ns)` on a registry of 256 remote SIP bindings:
/// absorbing fresher versions of all of them, then looking each up.
fn slp_registry_ns() -> (f64, f64) {
    let entry = |i: usize, seq: u64| {
        let origin = Addr::manet(i as u32);
        ServiceEntry::sip_binding(
            &user_aor(i).to_string(),
            SocketAddr::new(origin, 5060),
            origin,
            seq,
            120,
        )
    };
    let mut registry = SlpRegistry::new();
    let mut seq = 0;
    let absorb = ns_per_op(|| {
        seq += 1;
        for i in 0..USERS {
            black_box(registry.absorb(entry(i, seq), SimTime::ZERO));
        }
        USERS as u64
    });
    let keys: Vec<String> = (0..USERS)
        .map(|i| user_aor(i).to_string().to_lowercase())
        .collect();
    let lookup = ns_per_op(|| {
        for key in &keys {
            black_box(registry.lookup("sip", black_box(key), SimTime::ZERO).len());
        }
        USERS as u64
    });
    (absorb, lookup)
}

fn jitter_on_packet_ns() -> f64 {
    let codec = Codec::PCMU;
    let packets: Vec<RtpPacket> = (0..1000u16)
        .map(|i| {
            let mut p = RtpPacket {
                payload_type: codec.payload_type,
                seq: i,
                timestamp: u32::from(i) * codec.timestamp_step,
                ssrc: 7,
                payload: vec![0; codec.frame_bytes],
            };
            p.stamp_send_time(SimTime::from_millis(20 * u64::from(i)));
            p
        })
        .collect();
    ns_per_op(|| {
        let mut buffer = JitterBuffer::new(SimDuration::from_millis(60));
        for (i, p) in packets.iter().enumerate() {
            black_box(buffer.on_packet(p, SimTime::from_millis(20 * i as u64 + 15)));
        }
        packets.len() as u64
    })
}

fn quality_eval_ns() -> f64 {
    ns_per_op(|| {
        for i in 0..1024u64 {
            let q = quality::evaluate(
                &Codec::PCMU,
                SimDuration::from_millis(black_box(40 + i % 200)),
                (i % 50) as f64 / 500.0,
            );
            black_box(q.mos);
        }
        1024
    })
}

/// `(counter_add_ns, hist_record_ns, span_enter_exit_ns)` on one node
/// shard with tracing on. All 0 in a build without the `obs` feature,
/// where the shard compiles to nothing.
fn obs_ns() -> (f64, f64, f64) {
    let mut obs = NodeObs::default();
    obs.set_tracing(true);
    let counter = ns_per_op(|| {
        for _ in 0..4096 {
            black_box(&mut obs).counter_add("probe.counter", 1);
        }
        4096
    });
    let hist = ns_per_op(|| {
        for i in 0..4096u64 {
            black_box(&mut obs).hist_record("probe.hist_us", black_box(100 + i));
        }
        4096
    });
    let span = ns_per_op(|| {
        // A fresh shard per batch keeps the span log from growing without
        // bound across rounds.
        let mut obs = NodeObs::default();
        obs.set_tracing(true);
        for i in 0..4096u64 {
            let id = obs.span_enter(SpanCat::Sim, "probe.span", i);
            obs.span_exit(id, i + 1, true);
        }
        black_box(obs.spans().len());
        4096
    });
    (counter, hist, span)
}

/// Runs every probe; returns `(metric name, ns)` pairs. Each probe is a
/// span of its own under the caller's open span.
pub fn run_all(captured: &Captured, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    type Out = Vec<(&'static str, f64)>;
    fn one(out: &mut Out, rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> f64) {
        let (ns, _) = rec.time(&format!("probe.{name}"), f);
        out.push((name, ns));
    }
    fn pair(
        out: &mut Out,
        rec: &mut Recorder,
        a: &'static str,
        b: &'static str,
        f: impl FnOnce() -> (f64, f64),
    ) {
        let ((x, y), _) = rec.time(&format!("probe.{a}+{b}"), f);
        out.push((a, x));
        out.push((b, y));
    }
    let mut out = Vec::new();
    let o = &mut out;

    one(o, rec, "simnet.timer_event_ns", timer_event_ns);
    one(o, rec, "simnet.bcast_rx_ns", bcast_rx_ns);
    one(o, rec, "simnet.unicast_hop_ns", unicast_hop_ns);
    one(o, rec, "simnet.loss_sample_ns", loss_sample_ns);
    one(o, rec, "simnet.route_lookup_ns", route_lookup_ns);

    // Routing: whichever protocol the workload ran (pooled by sample
    // count if it ran both).
    pair(
        o,
        rec,
        "routing.decode_ns_per_msg",
        "routing.encode_ns_per_msg",
        || {
            let (ad, ae) = codec(
                &captured.aodv.samples,
                |b| AodvMsg::parse(b).ok(),
                |m| m.to_bytes().len(),
            );
            let (od, oe) = codec(
                &captured.olsr.samples,
                |b| OlsrMsg::parse(b).ok(),
                |m| m.to_bytes().len(),
            );
            let (na, no) = (
                captured.aodv.samples.len() as f64,
                captured.olsr.samples.len() as f64,
            );
            let pooled = |a: f64, o: f64| {
                if na + no == 0.0 {
                    0.0
                } else {
                    (a * na + o * no) / (na + no)
                }
            };
            (pooled(ad, od), pooled(ae, oe))
        },
    );
    pair(
        o,
        rec,
        "slp.decode_ns_per_msg",
        "slp.encode_ns_per_msg",
        || {
            codec(
                &captured.slp.samples,
                |b| SlpMsg::parse(b).ok(),
                |m| m.to_wire().len(),
            )
        },
    );
    pair(
        o,
        rec,
        "slp.registry_absorb_ns",
        "slp.registry_lookup_ns",
        slp_registry_ns,
    );
    pair(
        o,
        rec,
        "sip.parse_ns_per_msg",
        "sip.render_ns_per_msg",
        || {
            codec(
                &captured.sip.samples,
                |b| {
                    std::str::from_utf8(b)
                        .ok()
                        .and_then(|s| SipMessage::parse(s).ok())
                },
                |m| m.to_wire().len(),
            )
        },
    );
    pair(
        o,
        rec,
        "sip.registrar_bind_ns",
        "sip.registrar_lookup_ns",
        registrar_ns,
    );
    pair(o, rec, "media.rtp_decode_ns", "media.rtp_encode_ns", || {
        codec(
            &captured.rtp.samples,
            |b| RtpPacket::parse(b).ok(),
            |m| m.to_bytes().len(),
        )
    });
    one(o, rec, "media.jitter_on_packet_ns", jitter_on_packet_ns);
    one(o, rec, "media.quality_eval_ns", quality_eval_ns);
    pair(
        o,
        rec,
        "core.tunnel_decode_ns",
        "core.tunnel_encode_ns",
        || {
            codec(&captured.tunnel.samples, TunnelMsg::parse, |m| {
                m.to_wire().len()
            })
        },
    );
    let ((counter, hist, span), _) = rec.time("probe.obs", obs_ns);
    out.push(("obs.counter_add_ns", counter));
    out.push(("obs.hist_record_ns", hist));
    out.push(("obs.span_enter_exit_ns", span));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_scales_with_the_work_and_handles_nothing() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = x.wrapping_add(black_box(i));
                }
                black_box(x);
                1
            }
        };
        let (small, large) = (ns_per_op(spin(2_000)), ns_per_op(spin(200_000)));
        assert!(small > 0.0 && large > small * 10.0, "{small} vs {large}");
        assert_eq!(ns_per_op(|| 0), 0.0);
    }

    #[test]
    fn codec_probe_ignores_bytes_that_do_not_parse() {
        let rtp = RtpPacket {
            payload_type: 0,
            seq: 1,
            timestamp: 160,
            ssrc: 9,
            payload: vec![0; 160],
        };
        let samples = vec![Payload::from(rtp.to_bytes()), Payload::from(vec![0u8; 3])];
        let (decode, encode) = codec(
            &samples,
            |b| RtpPacket::parse(b).ok(),
            |m| m.to_bytes().len(),
        );
        assert!(decode > 0.0 && encode > 0.0);
        let (d0, e0) = codec(
            &samples[1..],
            |b| RtpPacket::parse(b).ok(),
            |m: &RtpPacket| m.to_bytes().len(),
        );
        assert_eq!((d0, e0), (0.0, 0.0));
    }
}
