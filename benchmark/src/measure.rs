//! One measured run of one workload, inside a child process: build,
//! warm up, run the measured window in timed slices, collect.
//!
//! Everything is observed from outside the program, through public items
//! only: `World::run_until`, `events_processed`, `total_stats`,
//! `Node::obs`, `trace_mut`, `set_tracing`, `obs_spans`, the UA logs and
//! the media report logs of the deployed nodes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use wireless_adhoc_voip::simnet::net::Payload;
use wireless_adhoc_voip::simnet::obs::{Histogram, Registry};
use wireless_adhoc_voip::simnet::prelude::*;
use wireless_adhoc_voip::simnet::trace::TraceKind;
use wireless_adhoc_voip::sip::ua::CallEvent;

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Built};

/// Timed slices per measured window. Slices cut the window at equal
/// simulated intervals, so slice `i` is the same work in every repetition
/// of a seed and the parent can take, slice by slice, the fastest
/// repetition — which filters this sandbox's seconds-long slow phases
/// far better than any statistic of whole-run times.
pub const SLICES: usize = 80;

/// MOS at and above which a stream counts as acceptable: R = 70, the
/// lower edge of G.109's "satisfied" band.
pub const MOS_OK: f64 = 3.6;

/// `(packets, bytes)` per counter name.
pub type Counters = BTreeMap<String, (u64, u64)>;

/// Counter prefixes of routing control traffic and, under them, the
/// names that are bookkeeping rather than transmissions.
const ROUTING_PREFIXES: [&str; 3] = ["aodv.", "olsr.", "dsdv."];
const ROUTING_NOT_ON_AIR: [&str; 4] = [
    "piggyback",
    "malformed",
    "discovery_failed",
    "rrep_no_reverse",
];

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_owned(),
        ok,
        detail,
    }
}

/// Simulated statistics of a run: pure functions of workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Events dispatched in the measured window / in the whole run.
    pub window_events: u64,
    pub total_events: u64,
    pub offered: usize,
    /// Measured calls the UAs actually placed (must equal `offered`).
    pub placed: usize,
    /// Calls placed during warm-up: run, but left out of every metric.
    pub placed_in_warmup: usize,
    pub established: usize,
    pub failed: usize,
    /// Caller-side INVITE→Established, ms, ascending.
    pub setup_delays_ms: Vec<f64>,
    /// MOS of every receive-side report of a measured call, ascending. A
    /// stream that received nothing scores 1.0 (the E-model would score
    /// silence as lossless).
    pub mos: Vec<f64>,
    /// On-air routing control bytes (piggybacked SLP included) in the
    /// window, the radio nodes they are spread over, the window length.
    pub control_bytes: u64,
    pub radio_nodes: usize,
    pub window_sim_s: f64,
    /// FNV-1a over every counter, call outcome and media report.
    pub digest: u64,
}

impl SimStats {
    pub fn established_share(&self) -> Option<f64> {
        (self.offered > 0).then(|| self.established as f64 / self.offered as f64)
    }

    pub fn setup_delay_ms(&self, p: f64) -> Option<f64> {
        stats::percentile(&self.setup_delays_ms, p)
    }

    pub fn mos_p50(&self) -> Option<f64> {
        stats::percentile(&self.mos, 50.0)
    }

    pub fn mos_ok_share(&self) -> Option<f64> {
        (!self.mos.is_empty()).then(|| {
            self.mos.iter().filter(|m| **m >= MOS_OK).count() as f64 / self.mos.len() as f64
        })
    }

    pub fn control_bytes_per_node_s(&self) -> Option<f64> {
        (self.control_bytes > 0)
            .then(|| self.control_bytes as f64 / self.radio_nodes.max(1) as f64 / self.window_sim_s)
    }
}

/// Sim-time histograms the program records about itself (`obs` feature),
/// merged over all nodes. Whole run, warm-up included: a histogram cannot
/// be cut at the warm-up boundary from outside.
pub type Hists = BTreeMap<&'static str, Histogram>;

pub const HIST_NAMES: [&str; 5] = [
    "radio.airtime_us",
    "aodv.discovery_us",
    "slp.lookup_us",
    "sip.txn_rtt_us",
    "cp.handshake_us",
];

/// Datagrams captured from the traced run, sampled per protocol.
#[derive(Debug, Default)]
pub struct Captured {
    pub sip: Reservoir,
    pub slp: Reservoir,
    pub aodv: Reservoir,
    pub olsr: Reservoir,
    pub rtp: Reservoir,
    pub tunnel: Reservoir,
}

/// Keeps at most [`Reservoir::CAP`] payloads spread evenly over
/// everything offered: when full, every other kept sample is dropped and
/// from then on only every `stride`-th offer is kept.
#[derive(Debug)]
pub struct Reservoir {
    pub samples: Vec<Payload>,
    stride: u64,
    offered: u64,
}

impl Default for Reservoir {
    fn default() -> Reservoir {
        Reservoir {
            samples: Vec::new(),
            stride: 1,
            offered: 0,
        }
    }
}

impl Reservoir {
    pub const CAP: usize = 4096;

    pub fn offer(&mut self, payload: &Payload) {
        self.offered += 1;
        if self.offered % self.stride != 0 {
            return;
        }
        if self.samples.len() == Self::CAP {
            let mut keep = false;
            self.samples.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride *= 2;
            if self.offered % self.stride != 0 {
                return;
            }
        }
        self.samples.push(payload.clone());
    }
}

/// Everything one child process measured.
pub struct Measured {
    /// Process start → warm-up finished.
    pub setup_s: f64,
    pub slice_wall_s: Vec<f64>,
    /// Traced runs: host cost of the traced slices over their untraced
    /// neighbours', minus one.
    pub tracing_overhead_share: f64,
    pub rss_peak_mb: f64,
    pub sim: SimStats,
    /// Counters over the measured window (end minus end of warm-up).
    pub counters: Counters,
    /// The program's sim-time histograms (traced runs; empty otherwise).
    pub hists: Hists,
    /// Spans the program recorded (traced runs; 0 otherwise).
    pub program_spans: u64,
    pub captured: Option<Captured>,
    pub checks: Vec<Check>,
}

/// Peak resident set of this process, MB (`VmHWM`; 0 off Linux).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn snapshot(world: &World) -> Counters {
    world
        .total_stats()
        .iter()
        .map(|(name, c)| (name.to_owned(), (c.packets, c.bytes)))
        .collect()
}

fn delta(end: &Counters, start: &Counters) -> Counters {
    end.iter()
        .map(|(name, &(p, b))| {
            let (p0, b0) = start.get(name).copied().unwrap_or((0, 0));
            (name.clone(), (p - p0, b - b0))
        })
        .collect()
}

/// Packets of one counter.
pub fn packets(c: &Counters, name: &str) -> u64 {
    c.get(name).map_or(0, |v| v.0)
}

/// `(packets, bytes)` summed over a name prefix.
pub fn prefix_sum(c: &Counters, prefix: &str) -> (u64, u64) {
    c.range(prefix.to_owned()..)
        .take_while(|(name, _)| name.starts_with(prefix))
        .fold((0, 0), |acc, (_, v)| (acc.0 + v.0, acc.1 + v.1))
}

/// On-air routing control `(messages, bytes)`: everything under the
/// routing prefixes except the known bookkeeping counters. MANET SLP has
/// no packets of its own — its bytes ride inside these messages.
pub fn routing_control(c: &Counters) -> (u64, u64) {
    let mut total = (0, 0);
    for prefix in ROUTING_PREFIXES {
        let (p, b) = prefix_sum(c, prefix);
        total = (total.0 + p, total.1 + b);
        for name in ROUTING_NOT_ON_AIR {
            let (p, b) = c.get(&format!("{prefix}{name}")).copied().unwrap_or((0, 0));
            total = (total.0 - p, total.1 - b);
        }
    }
    total
}

/// Every SIP message put on a wire, by whichever sender counted it:
/// transaction layer (first flights, retransmissions, replays), the
/// stateless forwarding helper, the SIPHoc proxy.
pub fn sip_msgs(c: &Counters) -> u64 {
    [
        "sip.txn_tx",
        "sip.txn_retx",
        "sip.txn_replay",
        "sip.proxy_fwd",
        "proxy.tx",
    ]
    .iter()
    .map(|name| packets(c, name))
    .sum()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Merges one obs histogram over all nodes.
fn world_hists(world: &World) -> Hists {
    let mut reg = Registry::new();
    for id in world.node_ids() {
        world.node(id).obs().merge_metrics_into(&mut reg, "all");
    }
    HIST_NAMES
        .iter()
        .filter_map(|name| Some((*name, reg.hist(name, &[("node", "all")])?.clone())))
        .collect()
}

/// Sorts a traced datagram into its protocol's reservoir by port.
fn classify(cap: &mut Captured, dgram: &Datagram) {
    let is = |port: u16| dgram.dst.port == port || dgram.src.port == port;
    let sip_ua = |port: u16| {
        port == workloads::UA_PORT
            || (workloads::HUB_UA_PORT_BASE..workloads::HUB_UA_PORT_BASE + 1000).contains(&port)
    };
    let bucket = if is(ports::AODV) {
        &mut cap.aodv
    } else if is(ports::OLSR) {
        &mut cap.olsr
    } else if is(ports::TUNNEL) {
        &mut cap.tunnel
    } else if dgram.dst.port == ports::SLP || dgram.src.port == ports::SLP {
        &mut cap.slp
    } else if is(ports::SIP) || sip_ua(dgram.dst.port) || sip_ua(dgram.src.port) {
        &mut cap.sip
    } else if is(workloads::RTP_PORT) {
        &mut cap.rtp
    } else {
        return;
    };
    bucket.offer(&dgram.payload);
}

fn harvest(world: &mut World, cap: &mut Captured) {
    for e in world.trace().entries() {
        // First sightings only: a frame's receptions repeat its payload.
        if matches!(
            e.kind,
            TraceKind::RadioTx | TraceKind::WiredRx | TraceKind::Loopback
        ) {
            classify(cap, &e.dgram);
        }
    }
    world.trace_mut().clear();
}

/// Builds a workload and runs its warm-up — the `setup_s` phase — and
/// returns the world with `setup_s`: recorder start (first thing in
/// `main`) → warm-up finished. `None` for an unknown workload.
pub fn set_up(name: &str, seed: u64, scale: f64, rec: &mut Recorder) -> Option<(Built, f64)> {
    rec.enter("setup.build");
    let mut built = workloads::build_frozen(name, seed, scale)?;
    rec.exit();
    rec.enter("setup.warmup");
    built.world.run_until(built.warmup_end);
    rec.exit();
    Some((built, rec.now_s()))
}

/// What tracing costs, from one run that traced every other slice: each
/// traced slice's host time per event against the mean of its two
/// untraced neighbours', median over the window, minus one. Neighbours
/// are adjacent in time and in workload phase, so neither this sandbox's
/// drifting speed nor a slow first process of a kind (both of which made
/// a traced-child-versus-untraced-child ratio read anywhere from −40 % to
/// +30 %) enters. Slices too short to time (a quiet drain) are left out.
fn tracing_overhead_share(wall_s: &[f64], events: &[u64]) -> f64 {
    let cost =
        |i: usize| (wall_s[i] >= 1e-3 && events[i] > 0).then(|| wall_s[i] / events[i] as f64);
    let ratios: Vec<f64> = (1..wall_s.len().saturating_sub(1))
        .filter(|i| traces_slice(*i))
        .filter_map(|i| Some(cost(i)? / ((cost(i - 1)? + cost(i + 1)?) / 2.0)))
        .collect();
    stats::median(&ratios).map_or(0.0, |r| r - 1.0)
}

/// A traced run traces the even slices (0-based) and leaves the odd ones
/// untraced as their yardstick.
fn traces_slice(i: usize) -> bool {
    i % 2 == 0
}

/// Runs one workload once. `traced` turns on the program's span tracing
/// and packet capture for every other slice of the measured window.
pub fn run(
    name: &str,
    seed: u64,
    scale: f64,
    traced: bool,
    rec: &mut Recorder,
) -> Option<Measured> {
    let (mut built, setup_s) = set_up(name, seed, scale, rec)?;

    // Untimed bookkeeping between the phases.
    let start_counters = snapshot(&built.world);
    let events_at_start = built.world.events_processed();
    let mut captured = traced.then(Captured::default);
    if traced {
        built.world.trace_mut().set_capacity(200_000);
    }

    rec.enter("run");
    let window = built.run_end - built.warmup_end;
    let mut slice_wall_s = Vec::with_capacity(SLICES);
    let mut slice_events = Vec::with_capacity(SLICES);
    for i in 0..SLICES {
        let until = if i + 1 == SLICES {
            built.run_end
        } else {
            built.warmup_end + window.mul_f64((i + 1) as f64 / SLICES as f64)
        };
        let tracing = traced && traces_slice(i);
        if traced {
            built.world.set_tracing(tracing);
            built.world.trace_mut().set_enabled(tracing);
        }
        let events_before = built.world.events_processed();
        let started = Instant::now();
        built.world.run_until(until);
        slice_wall_s.push(started.elapsed().as_secs_f64());
        slice_events.push(built.world.events_processed() - events_before);
        if let Some(cap) = captured.as_mut().filter(|_| tracing) {
            harvest(&mut built.world, cap);
        }
    }
    rec.exit();

    rec.enter("collect");
    let rss_peak_mb = rss_peak_mb();
    let end_counters = snapshot(&built.world);
    let counters = delta(&end_counters, &start_counters);
    let hists = if traced {
        world_hists(&built.world)
    } else {
        Hists::new()
    };
    let program_spans = if traced {
        built.world.obs_spans().len() as u64
    } else {
        0
    };
    let sim = collect_sim(&built, &counters, &end_counters, events_at_start);
    let checks = output_checks(name, scale, &built, &sim, &counters, &end_counters);
    rec.exit();

    Some(Measured {
        setup_s,
        tracing_overhead_share: if traced {
            tracing_overhead_share(&slice_wall_s, &slice_events)
        } else {
            0.0
        },
        slice_wall_s,
        rss_peak_mb,
        sim,
        counters,
        hists,
        program_spans,
        captured,
        checks,
    })
}

fn collect_sim(
    built: &Built,
    window: &Counters,
    whole: &Counters,
    events_at_start: u64,
) -> SimStats {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (name, (p, b)) in whole {
        fnv1a(&mut digest, name.as_bytes());
        fnv1a(&mut digest, &p.to_le_bytes());
        fnv1a(&mut digest, &b.to_le_bytes());
    }

    // Caller-side pairing per log: OutgoingCall → Established | Failed on
    // the same Call-ID. Calls placed during warm-up are skipped.
    let mut placed = 0;
    let mut placed_in_warmup = 0;
    let mut established = 0;
    let mut failed = 0;
    let mut delays = Vec::new();
    let mut measured_ids: HashSet<String> = HashSet::new();
    for log in built.ua_logs() {
        let log = log.borrow();
        let mut open: HashMap<&str, SimTime> = HashMap::new();
        for (t, ev) in log.events() {
            match ev {
                CallEvent::OutgoingCall { call_id, .. } if *t >= built.warmup_end => {
                    placed += 1;
                    open.insert(call_id, *t);
                    measured_ids.insert(call_id.clone());
                    fnv1a(&mut digest, call_id.as_bytes());
                    fnv1a(&mut digest, &t.as_micros().to_le_bytes());
                }
                CallEvent::OutgoingCall { .. } => placed_in_warmup += 1,
                CallEvent::Established { call_id, .. } => {
                    if let Some(t0) = open.remove(call_id.as_str()) {
                        established += 1;
                        delays.push((*t - t0).as_millis_f64());
                        fnv1a(&mut digest, &t.as_micros().to_le_bytes());
                    }
                }
                CallEvent::Failed { call_id, code } if open.remove(call_id.as_str()).is_some() => {
                    failed += 1;
                    fnv1a(&mut digest, &t.as_micros().to_le_bytes());
                    fnv1a(&mut digest, &code.unwrap_or(0).to_le_bytes());
                }
                _ => {}
            }
        }
    }
    delays.sort_by(f64::total_cmp);

    let mut mos = Vec::new();
    for reports in built.report_logs() {
        for r in reports
            .borrow()
            .iter()
            .filter(|r| measured_ids.contains(&r.call_id))
        {
            mos.push(if r.received == 0 { 1.0 } else { r.quality.mos });
            fnv1a(&mut digest, r.call_id.as_bytes());
            fnv1a(&mut digest, &r.sent.to_le_bytes());
            fnv1a(&mut digest, &r.received.to_le_bytes());
            fnv1a(&mut digest, &r.quality.mos.to_bits().to_le_bytes());
        }
    }
    mos.sort_by(f64::total_cmp);

    let world = &built.world;
    let total_events = world.events_processed();
    fnv1a(&mut digest, &total_events.to_le_bytes());
    let (_, control_bytes) = routing_control(window);
    SimStats {
        window_events: total_events - events_at_start,
        total_events,
        offered: built.offered,
        placed,
        placed_in_warmup,
        established,
        failed,
        setup_delays_ms: delays,
        mos,
        control_bytes,
        radio_nodes: world
            .node_ids()
            .iter()
            .filter(|id| world.node(**id).has_radio())
            .count(),
        window_sim_s: (built.run_end - built.warmup_end).as_secs_f64(),
        digest,
    }
}

/// The checks one run can make on its own outputs. Cross-run checks
/// (repetitions agree, traced equals untraced) are the parent's.
fn output_checks(
    name: &str,
    scale: f64,
    built: &Built,
    sim: &SimStats,
    c: &Counters,
    whole_run: &Counters,
) -> Vec<Check> {
    let mut out = Vec::new();
    let n = |counter: &str| packets(c, counter);
    if built.offered > 0 {
        out.push(check(
            "calls_conserved",
            sim.placed == sim.offered && sim.established + sim.failed == sim.offered,
            format!(
                "offered {} placed {} established {} failed {}",
                sim.offered, sim.placed, sim.established, sim.failed
            ),
        ));
        out.push(check(
            "warmup_calls_left_out",
            sim.placed_in_warmup == built.warmup_calls,
            format!(
                "{} placed before the window, {} scripted",
                sim.placed_in_warmup, built.warmup_calls
            ),
        ));
        // At the frozen size a reported percentile must rest on ten
        // samples beyond it; shorter smoke runs are exempt.
        if scale >= 1.0 {
            let (calls, streams) = (sim.setup_delays_ms.len(), sim.mos.len());
            out.push(check(
                "percentiles_have_ten_samples_beyond",
                stats::supported(95.0, calls) && (streams == 0 || stats::supported(50.0, streams)),
                format!("{calls} setup delays behind p95, {streams} streams behind the MOS median"),
            ));
        }
    }
    let stack_counts =
        |prefixes: &[&str]| -> u64 { prefixes.iter().map(|p| prefix_sum(c, p).0).sum() };
    match name {
        "mesh_calls" => {
            out.push(check(
                "calls_cross_the_mesh",
                n("proxy.fwd_to_remote_proxy") >= sim.established as u64,
                format!(
                    "proxy.fwd_to_remote_proxy {} established {}",
                    n("proxy.fwd_to_remote_proxy"),
                    sim.established
                ),
            ));
            out.push(check(
                "media_flows",
                n("media.rtp_rx") > 0,
                format!("media.rtp_rx {}", n("media.rtp_rx")),
            ));
            let rreq = prefix_sum(c, "aodv.rreq").0;
            let lookups = n("slp.lookup_hit") + n("slp.lookup_miss");
            out.push(check(
                "routes_and_users_are_looked_up",
                rreq > 0 && lookups > 0,
                format!("aodv.rreq* {rreq} slp lookups {lookups}"),
            ));
        }
        "sip_hub" => {
            out.push(check(
                "hub_establishes_every_call",
                sim.established == sim.offered,
                format!("established {} of {}", sim.established, sim.offered),
            ));
            let off_path = stack_counts(&["radio.rx", "media.", "aodv.rreq", "cp.", "fwd"]);
            out.push(check(
                "hub_is_signalling_only",
                off_path == 0,
                format!("radio.rx + media.* + aodv.rreq* + cp.* + fwd = {off_path}"),
            ));
        }
        "city_beacon" => {
            out.push(check(
                "beacons_are_received",
                n("radio.rx") > 0,
                format!("radio.rx {}", n("radio.rx")),
            ));
            let stack = stack_counts(&[
                "sip.", "slp.", "media.", "proxy.", "aodv.", "olsr.", "cp.", "tunnel.",
            ]);
            out.push(check(
                "city_runs_no_protocol_stack",
                stack == 0,
                format!("stack counters {stack}"),
            ));
        }
        "roam_internet" => {
            out.push(check(
                "traffic_crosses_the_tunnel",
                n("tunnel.to_internet") > 0 && n("tunnel.to_client") > 0,
                format!(
                    "tunnel.to_internet {} tunnel.to_client {}",
                    n("tunnel.to_internet"),
                    n("tunnel.to_client")
                ),
            ));
            // Leases are taken during warm-up, before the window opens.
            let up = packets(whole_run, "cp.tunnel_up");
            out.push(check(
                "tunnels_come_up",
                up >= 1,
                format!("cp.tunnel_up {up} (whole run)"),
            ));
            out.push(check(
                "calls_reach_the_provider",
                n("proxy.fwd_to_provider") > 0,
                format!("proxy.fwd_to_provider {}", n("proxy.fwd_to_provider")),
            ));
        }
        _ => {}
    }
    if name != "roam_internet" {
        out.push(check(
            "only_roam_uses_the_tunnel",
            n("cp.tunneled_out") == 0,
            format!("cp.tunneled_out {}", n("cp.tunneled_out")),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_stays_bounded_and_spread_out() {
        let mut r = Reservoir::default();
        for i in 0..(Reservoir::CAP as u32 * 5) {
            r.offer(&Payload::from(i.to_le_bytes().to_vec()));
        }
        assert!(r.samples.len() <= Reservoir::CAP && r.samples.len() >= Reservoir::CAP / 2);
        assert_eq!(r.offered, Reservoir::CAP as u64 * 5);
        let ids: Vec<u32> = r
            .samples
            .iter()
            .map(|p| u32::from_le_bytes(p.as_slice().try_into().unwrap()))
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "kept in arrival order");
        assert!(
            *ids.last().unwrap() > Reservoir::CAP as u32 * 4,
            "covers the tail"
        );
        assert!(ids[0] < Reservoir::CAP as u32, "covers the head");
    }

    #[test]
    fn tracing_overhead_compares_traced_slices_with_their_neighbours() {
        // Even slices traced at +10 %; one disturbed slice, one slice too
        // short to time and a cost trend across the window do not move it.
        let events = vec![1000u64; 12];
        let mut wall: Vec<f64> = (0..12)
            .map(|i| 0.01 * (1.0 + 0.02 * i as f64) * if traces_slice(i) { 1.1 } else { 1.0 })
            .collect();
        wall[4] *= 5.0;
        wall[9] = 1e-5;
        let share = tracing_overhead_share(&wall, &events);
        assert!((share - 0.1).abs() < 1e-3, "{share}");
        assert_eq!(tracing_overhead_share(&[], &[]), 0.0);
        assert_eq!(tracing_overhead_share(&[0.01, 0.01], &[1, 1]), 0.0);
    }

    #[test]
    fn routing_control_skips_bookkeeping_counters() {
        let mut c = Counters::new();
        c.insert("aodv.rreq".into(), (10, 1000));
        c.insert("aodv.hello".into(), (5, 50));
        c.insert("aodv.piggyback".into(), (3, 300));
        c.insert("aodv.discovery_failed".into(), (2, 2));
        c.insert("olsr.tc_fwd".into(), (7, 70));
        c.insert("olsr.piggyback".into(), (1, 10));
        c.insert("radio.tx".into(), (99, 9999));
        assert_eq!(routing_control(&c), (22, 1120));
        assert_eq!(prefix_sum(&c, "aodv."), (20, 1352));
        assert_eq!(packets(&c, "radio.tx"), 99);
        assert_eq!(packets(&c, "missing"), 0);
    }
}
