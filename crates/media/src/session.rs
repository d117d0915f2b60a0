//! The media session process.
//!
//! One [`MediaProcess`] runs per node, next to the VoIP application. It
//! reacts to the user agent's typed node-local signals
//! [`LocalEvent::MediaStart`] (Call-ID and the peer's RTP endpoint) and
//! [`LocalEvent::MediaStop`] (Call-ID): on start it begins clocking codec
//! frames to the peer's RTP endpoint and feeding received frames through a
//! jitter buffer; on stop it freezes the session's [`SessionReport`] into
//! the shared report log that examples, tests and the E6 bench read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use siphoc_simnet::net::{Datagram, SocketAddr};
use siphoc_simnet::process::{Ctx, LocalEvent, LocalKind, Process};
use siphoc_simnet::time::SimDuration;

use crate::codec::Codec;
use crate::jitter::JitterBuffer;
use crate::quality::{evaluate_stream, QualityReport};
use crate::rtp::{RtcpReport, RtpPacket};

/// Codec to send with — the one the UA's SDP offers.
const CODEC: Codec = Codec::PCMU;
/// Jitter buffer playout depth.
const BUFFER_DEPTH: SimDuration = SimDuration::from_millis(60);
/// RTCP receiver-report interval (RFC 3550 §6.2 minimum).
const RTCP_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Media-plane configuration.
#[derive(Debug, Clone)]
pub struct MediaConfig {
    /// RTP port to bind (must match the UA's SDP offer). RTCP is
    /// multiplexed on the same port (RFC 5761 style).
    pub rtp_port: u16,
}

impl MediaConfig {
    /// PCMU at the given port.
    pub fn pcmu(rtp_port: u16) -> MediaConfig {
        MediaConfig { rtp_port }
    }
}

/// Final per-call media report.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The SIP Call-ID the session belonged to.
    pub call_id: String,
    /// Frames sent.
    pub sent: u64,
    /// Frames received (played + late).
    pub received: u64,
    /// Effective loss fraction (network + late).
    pub loss_fraction: f64,
    /// Mean one-way network delay.
    pub mean_delay: SimDuration,
    /// Smoothed interarrival jitter (µs).
    pub jitter_us: f64,
    /// E-model result (includes the buffer depth in its delay).
    pub quality: QualityReport,
    /// Last RTCP receiver report from the peer: what *they* lost of what
    /// we sent, when RTCP ran.
    pub remote_report: Option<RtcpReport>,
}

/// Shared collection of finished session reports.
pub type ReportLog = Rc<RefCell<Vec<SessionReport>>>;

/// Creates an empty report log.
pub fn report_log() -> ReportLog {
    Rc::new(RefCell::new(Vec::new()))
}

struct ActiveSession {
    idx: u64,
    call_id: String,
    remote: SocketAddr,
    ssrc: u32,
    seq: u16,
    timestamp: u32,
    sent: u64,
    buffer: JitterBuffer,
    remote_report: Option<RtcpReport>,
}

const TAG_FRAME: u64 = 1;
const TAG_RTCP: u64 = 2;

fn tok(tag: u64, idx: u64) -> u64 {
    tag | (idx << 8)
}

/// The per-node media process.
pub struct MediaProcess {
    cfg: MediaConfig,
    sessions: BTreeMap<String, ActiveSession>,
    reports: ReportLog,
    next_idx: u64,
}

impl std::fmt::Debug for MediaProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediaProcess")
            .field("active_sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

impl MediaProcess {
    /// Creates the process and a handle to its finished-session reports.
    pub fn new(cfg: MediaConfig) -> (MediaProcess, ReportLog) {
        let reports = report_log();
        (
            MediaProcess {
                cfg,
                sessions: BTreeMap::new(),
                reports: reports.clone(),
                next_idx: 0,
            },
            reports,
        )
    }

    fn start_session(&mut self, ctx: &mut Ctx<'_>, call_id: &str, remote: SocketAddr) {
        if let Some(s) = self.sessions.get_mut(call_id) {
            // A repeated media-start for a live call re-homes the stream
            // (gateway handoff moved the peer's public RTP endpoint); the
            // jitter buffer, counters and timer chains carry over.
            if s.remote != remote {
                s.remote = remote;
                ctx.stats().count("media.rehomed", 1);
            }
            return;
        }
        self.next_idx += 1;
        let idx = self.next_idx;
        let session = ActiveSession {
            idx,
            call_id: call_id.to_owned(),
            remote,
            ssrc: ctx.rng().next_u64() as u32,
            seq: (ctx.rng().next_u64() & 0x7fff) as u16,
            timestamp: ctx.rng().next_u64() as u32,
            sent: 0,
            buffer: JitterBuffer::new(BUFFER_DEPTH),
            remote_report: None,
        };
        self.sessions.insert(call_id.to_owned(), session);
        ctx.set_timer(CODEC.frame_interval, tok(TAG_FRAME, idx));
        ctx.set_timer(RTCP_INTERVAL, tok(TAG_RTCP, idx));
    }

    fn stop_session(&mut self, call_id: &str) {
        let Some(s) = self.sessions.remove(call_id) else {
            return;
        };
        let stats = s.buffer.stats();
        let report = SessionReport {
            call_id: s.call_id.clone(),
            sent: s.sent,
            received: stats.played + stats.late,
            loss_fraction: stats.effective_loss_fraction(),
            mean_delay: stats.mean_delay(),
            jitter_us: stats.jitter_us,
            quality: evaluate_stream(&CODEC, stats, BUFFER_DEPTH),
            remote_report: s.remote_report.clone(),
        };
        self.reports.borrow_mut().push(report);
    }

    fn send_rtcp(&mut self, ctx: &mut Ctx<'_>, idx: u64) {
        let port = self.cfg.rtp_port;
        let Some(s) = self.sessions.values().find(|s| s.idx == idx) else {
            return;
        };
        let stats = s.buffer.stats();
        let report = RtcpReport {
            ssrc: s.ssrc,
            lost: stats.lost() as u32,
            highest_seq: stats.highest_seq.unwrap_or(0),
            jitter: (stats.jitter_us / 125.0) as u32, // µs → 8 kHz ts units
        };
        let remote = s.remote;
        let bytes = report.to_bytes();
        ctx.stats().count("media.rtcp_tx", bytes.len());
        ctx.send_to(remote, port, bytes);
        ctx.set_timer(RTCP_INTERVAL, tok(TAG_RTCP, idx));
    }

    fn send_frame(&mut self, ctx: &mut Ctx<'_>, idx: u64) {
        let now = ctx.now();
        let Some(s) = self.sessions.values_mut().find(|s| s.idx == idx) else {
            return;
        };
        s.seq = s.seq.wrapping_add(1);
        s.timestamp = s.timestamp.wrapping_add(CODEC.timestamp_step);
        let mut pkt = RtpPacket {
            payload_type: CODEC.payload_type,
            seq: s.seq,
            timestamp: s.timestamp,
            ssrc: s.ssrc,
            payload: vec![0u8; CODEC.frame_bytes],
        };
        pkt.stamp_send_time(now);
        s.sent += 1;
        let remote = s.remote;
        let bytes = pkt.to_bytes();
        ctx.stats().count("media.rtp_tx", bytes.len());
        ctx.send_to(remote, self.cfg.rtp_port, bytes);
        ctx.set_timer(CODEC.frame_interval, tok(TAG_FRAME, idx));
    }
}

impl Process for MediaProcess {
    fn name(&self) -> &'static str {
        "media"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(self.cfg.rtp_port);
        ctx.take_local(&[LocalKind::MediaStart, LocalKind::MediaStop]);
        // A crash stopped every stream: freeze each report, as on `MediaStop`.
        while let Some(call_id) = self.sessions.keys().next().cloned() {
            self.stop_session(&call_id);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        // RTCP is multiplexed on the RTP port; try it first (distinct
        // packet-type octet).
        if let Ok(report) = RtcpReport::parse(&dgram.payload) {
            ctx.stats().count("media.rtcp_rx", dgram.payload.len());
            if let Some(s) = self.sessions.values_mut().find(|s| s.remote == dgram.src) {
                s.remote_report = Some(report);
            }
            return;
        }
        let Ok(pkt) = RtpPacket::parse(&dgram.payload) else {
            ctx.stats().count("media.malformed", dgram.payload.len());
            return;
        };
        ctx.stats().count("media.rtp_rx", dgram.payload.len());
        let now = ctx.now();
        // Match by remote endpoint; a node rarely runs concurrent calls on
        // one RTP port.
        if let Some(s) = self.sessions.values_mut().find(|s| s.remote == dgram.src) {
            s.buffer.on_packet(&pkt, now);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token & 0xff {
            TAG_FRAME => self.send_frame(ctx, token >> 8),
            TAG_RTCP => self.send_rtcp(ctx, token >> 8),
            _ => {}
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        match ev {
            LocalEvent::MediaStart { call_id, remote } => self.start_session(ctx, call_id, *remote),
            LocalEvent::MediaStop { call_id } => self.stop_session(call_id),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::prelude::*;

    /// Drives two media processes directly with start/stop events —
    /// no SIP involved.
    struct Driver {
        stop_at: SimTime,
        remote: SocketAddr,
    }
    impl Process for Driver {
        fn name(&self) -> &'static str {
            "driver"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimTime::from_secs(1).saturating_since(ctx.now()), 1);
            ctx.set_timer(self.stop_at.saturating_since(ctx.now()), 2);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let call_id = CALL_ID.to_owned();
            match token {
                1 => ctx.emit(LocalEvent::MediaStart {
                    call_id,
                    remote: self.remote,
                }),
                2 => ctx.emit(LocalEvent::MediaStop { call_id }),
                _ => {}
            }
        }
    }

    const CALL_ID: &str = "c1";

    /// A 10 s call over [`media_pair_with`].
    fn media_pair(loss: f64) -> (World, ReportLog, ReportLog) {
        media_pair_with(55, loss, SimTime::from_secs(11))
    }

    /// Two nodes one hop apart, each running media and a [`Driver`] that
    /// starts call [`CALL_ID`] toward the other at 1 s and stops it at
    /// `stop_at`. Each frame is dropped with probability `loss` after
    /// its link-layer exchange, so the loss reaches the media plane
    /// (congestion-style loss that ARQ cannot mask).
    fn media_pair_with(seed: u64, loss: f64, stop_at: SimTime) -> (World, ReportLog, ReportLog) {
        let mut w = World::new(WorldConfig::new(seed).with_radio(RadioConfig::ideal()));
        let a = w.add_node(NodeConfig::manet(0.0, 0.0));
        let b = w.add_node(NodeConfig::manet(50.0, 0.0));
        w.install_fault_plan(FaultPlan::new().packet_fault(
            LinkSelector::All,
            PacketFaultKind::Blackhole,
            loss,
            SimTime::ZERO,
            SimTime::MAX,
        ));
        let (aa, ba) = (w.node(a).addr(), w.node(b).addr());
        w.install_route(
            a,
            ba,
            Route {
                next_hop: ba,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        w.install_route(
            b,
            aa,
            Route {
                next_hop: aa,
                hops: 1,
                expires: SimTime::MAX,
                seq: 0,
            },
        );
        let (ma, ra) = MediaProcess::new(MediaConfig::pcmu(8000));
        let (mb, rb) = MediaProcess::new(MediaConfig::pcmu(8000));
        w.spawn(a, Box::new(ma));
        w.spawn(b, Box::new(mb));
        for (node, peer) in [(a, ba), (b, aa)] {
            let remote = SocketAddr::new(peer, 8000);
            w.spawn(node, Box::new(Driver { stop_at, remote }));
        }
        (w, ra, rb)
    }

    #[test]
    fn clean_link_yields_toll_quality() {
        let (mut w, ra, rb) = media_pair(0.0);
        w.run_for(SimDuration::from_secs(12));
        for log in [&ra, &rb] {
            let reports = log.borrow();
            assert_eq!(reports.len(), 1);
            let r = &reports[0];
            assert_eq!(r.call_id, CALL_ID);
            // 10 s of 50 pps ≈ 500 frames each way.
            assert!(r.sent >= 495 && r.sent <= 505, "sent {}", r.sent);
            assert!(r.received >= 490, "received {}", r.received);
            assert!(r.loss_fraction < 0.01, "loss {}", r.loss_fraction);
            assert!(r.quality.mos > 4.0, "MOS {}", r.quality.mos);
        }
    }

    #[test]
    fn lossy_link_degrades_mos() {
        let (mut w, ra, _rb) = media_pair(0.08);
        w.run_for(SimDuration::from_secs(12));
        let reports = ra.borrow();
        let r = &reports[0];
        assert!(r.loss_fraction > 0.04, "loss {}", r.loss_fraction);
        let (clean_w, clean_ra) = {
            let (w, ra, _) = media_pair(0.0);
            (w, ra)
        };
        let mut clean_w = clean_w;
        clean_w.run_for(SimDuration::from_secs(12));
        let clean = clean_ra.borrow()[0].quality.mos;
        assert!(
            r.quality.mos < clean - 0.3,
            "lossy {} vs clean {clean}",
            r.quality.mos
        );
    }

    #[test]
    fn report_contains_delay_and_jitter() {
        let (mut w, ra, _rb) = media_pair(0.0);
        w.run_for(SimDuration::from_secs(12));
        let reports = ra.borrow();
        let r = &reports[0];
        assert!(r.mean_delay > SimDuration::ZERO);
        assert!(
            r.mean_delay < SimDuration::from_millis(5),
            "{}",
            r.mean_delay
        );
        assert!(
            r.quality.delay >= SimDuration::from_millis(60),
            "includes buffer"
        );
    }

    #[test]
    fn rtcp_reports_reach_the_sender() {
        let (mut w, ra, _rb) = media_pair_with(66, 0.05, SimTime::from_secs(21));
        w.run_for(SimDuration::from_secs(22));
        let reports = ra.borrow();
        let r = &reports[0];
        let remote: &RtcpReport = r.remote_report.as_ref().expect("peer RTCP report arrived");
        // The peer reported losing roughly what the 5% channel drops of
        // our ~1000 frames.
        assert!(remote.lost > 10, "remote lost {}", remote.lost);
        assert!(remote.lost < 200, "remote lost {}", remote.lost);
        assert!(remote.highest_seq > 0);
        // RTCP itself was cheap: ~4 reports each way over 20 s.
        assert!(w.stats(NodeId(0)).get("media.rtcp_tx").packets >= 3);
    }
}
