//! MANET SLP's routing half: the paper's piggyback handler.
//!
//! MANET SLP is two cooperating pieces per node sharing one
//! [`SharedRegistry`]: the [`SlpDaemon`](crate::daemon::SlpDaemon) behind
//! the local API, and [`ManetSlpHandler`] — the routing-handler plugin
//! ("the routing specific functionality is encapsulated within a routing
//! handler"). The handler piggybacks registrations onto routing control
//! messages, absorbs the ones it sees, and — on AODV service-query RREQs
//! — produces answers that ride back on the route reply (paper Fig. 5).
//! It reads only a message's kind and entries: `collect_outgoing` offers
//! every registration that may ride a message of that kind, and the
//! routing process keeps what fits its piggyback budget;
//! `process_incoming` needs neither the link sender nor the originator,
//! since every record names its own origin.
//!
//! Dissemination style follows the routing protocol: with **AODV** the
//! handler attaches the node's *own* registrations to originated control
//! traffic and the daemon resolves misses with query floods
//! ([`Dissemination::OnDemand`]); with **OLSR** every node gossips
//! *everything it knows* on periodic HELLO/TC messages, so the registry
//! fully replicates and lookups are local
//! ([`Dissemination::Proactive`]). Experiment E7 contrasts the two.

use siphoc_simnet::process::{Ctx, LocalEvent};
use siphoc_simnet::time::{SimDuration, SimTime};

use siphoc_routing::handler::{MsgKind, RoutingHandler};

use crate::daemon::Dissemination;
use crate::registry::{Absorb, Place, ServiceMap, SharedRegistry};
use crate::service::{ServiceEntry, SlpRecord};

/// The routing-handler side of MANET SLP.
#[derive(Debug)]
pub struct ManetSlpHandler {
    registry: SharedRegistry,
    mode: Dissemination,
    attach_log: AttachLog,
}

/// The re-advertisement throttle's memory: when each `(type, key,
/// origin)` last rode a periodic control message, and with which seq.
#[derive(Debug)]
struct AttachLog {
    /// Minimum interval between re-attaching an *unchanged* entry to
    /// periodic control messages. Changed entries (new sequence number)
    /// go out immediately; on-demand messages (AODV RREQ/RREP) always
    /// carry current entries since they are rare and latency-critical.
    min_readvertise: SimDuration,
    /// `(type, key, origin)` → `(seq, last attached)`, only for entries
    /// attached within the last `min_readvertise`.
    last: ServiceMap<(u64, SimTime)>,
}

impl AttachLog {
    /// Whether `e` rides a periodic message at `now`: not when it went
    /// out unchanged less than `min_readvertise` ago. Logs it if it does.
    fn admit(&mut self, e: &ServiceEntry, now: SimTime) -> bool {
        if self.min_readvertise.is_zero() {
            return true;
        }
        let place = self.last.place(&e.service_type, &e.key, e.origin);
        if let Place::Taken((seq, last)) = &place {
            if *seq >= e.seq && now.saturating_since(*last) < self.min_readvertise {
                return false;
            }
        }
        place.set((e.seq, now));
        true
    }

    /// Forgets every entry last attached `min_readvertise` or more ago:
    /// such an entry can never suppress an attach again, so no decision
    /// changes, and the log holds live state only.
    fn forget_stale(&mut self, now: SimTime) {
        let min = self.min_readvertise;
        self.last
            .retain(|(_, last)| now.saturating_since(*last) < min);
    }
}

impl ManetSlpHandler {
    /// Creates the handler over a shared registry with the default 8 s
    /// re-advertisement throttle.
    pub fn new(registry: SharedRegistry, mode: Dissemination) -> ManetSlpHandler {
        ManetSlpHandler {
            registry,
            mode,
            attach_log: AttachLog {
                min_readvertise: SimDuration::from_secs(8),
                last: ServiceMap::default(),
            },
        }
    }

    /// Overrides the re-advertisement throttle ([`SimDuration::ZERO`]
    /// attaches everything to every message — the A1 ablation's
    /// unthrottled variant).
    pub fn with_min_readvertise(mut self, min: SimDuration) -> ManetSlpHandler {
        self.attach_log.min_readvertise = min;
        self
    }
}

impl RoutingHandler for ManetSlpHandler {
    fn collect_outgoing(&mut self, ctx: &mut Ctx<'_>, kind: MsgKind) -> Vec<Vec<u8>> {
        let now = ctx.now();
        // Periodic vehicles are throttled; on-demand ones carry current
        // state (a service RREP must answer even if recently advertised).
        let periodic = match kind {
            MsgKind::AodvHello | MsgKind::OlsrHello | MsgKind::OlsrTc => true,
            MsgKind::AodvRreq | MsgKind::AodvRrep => false,
        };
        if periodic {
            self.attach_log.forget_stale(now);
        }
        let reg = self.registry.borrow();
        let mut out = Vec::new();
        // Each entry is written straight from the registry, with the
        // lifetime it has left.
        let mut attach = |(e, lifetime_secs): (&ServiceEntry, u32)| {
            if !periodic || self.attach_log.admit(e, now) {
                out.push(e.wire_with_lifetime(lifetime_secs));
            }
        };
        match (self.mode, kind) {
            // Proactive: full gossip on network-wide and one-hop
            // messages alike; hop-by-hop relay of learned entries is
            // what replicates the registry everywhere.
            (
                Dissemination::Proactive,
                MsgKind::OlsrHello | MsgKind::OlsrTc | MsgKind::AodvHello,
            ) => reg.all_iter(now).for_each(&mut attach),
            // Own registrations ride originated control messages;
            // learned ones are served on demand via query replies.
            _ => reg.local_iter(now).for_each(&mut attach),
        }
        out
    }

    fn process_incoming(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: MsgKind,
        entries: &[Vec<u8>],
    ) -> Vec<Vec<u8>> {
        let now = ctx.now();
        let mut answers = Vec::new();
        let mut changed = false;
        for raw in entries {
            match SlpRecord::parse(raw) {
                Ok(SlpRecord::Reg(e)) => match self.registry.borrow_mut().absorb_checked(e, now) {
                    Absorb::Fresh => changed = true,
                    Absorb::Stale => {}
                    Absorb::Unsigned | Absorb::BadSig => {
                        ctx.stats().count("slp.auth_reject", raw.len());
                    }
                    Absorb::PinMismatch => {
                        ctx.stats().count("slp.auth_pin_reject", raw.len());
                    }
                },
                Ok(SlpRecord::Query(q)) => {
                    if kind == MsgKind::AodvRreq {
                        let reg = self.registry.borrow();
                        answers.extend(
                            reg.matching_iter(&q, now)
                                .map(|(e, lifetime_secs)| e.wire_with_lifetime(lifetime_secs)),
                        );
                    }
                }
                Err(_) => {
                    ctx.stats().count("slp.malformed_record", raw.len());
                }
            }
        }
        if changed {
            ctx.emit(LocalEvent::HandlerUpdated);
        }
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siphoc_simnet::net::Addr;
    use siphoc_simnet::rng::SimRng;

    /// A log nobody prunes holds every name ever attached, for good.
    fn unpruned(min_readvertise: SimDuration) -> AttachLog {
        AttachLog {
            min_readvertise,
            last: ServiceMap::default(),
        }
    }

    /// A seeded sequence of periodic collects, each offering a random
    /// subset of twelve names with their current seqs, sometimes bumped:
    /// the pruned log admits exactly what the unpruned one admits, and
    /// after each collect holds only the names it attached within
    /// `min_readvertise`.
    #[test]
    fn pruning_the_attach_log_changes_no_decision() {
        let min = SimDuration::from_secs(8);
        for seed in [1, 2, 3] {
            let mut rng = SimRng::from_seed_and_stream(seed, 80);
            let (mut pruned, mut full) = (unpruned(min), unpruned(min));
            let mut seqs = [1u64; 12];
            let mut attached: Vec<(usize, SimTime)> = Vec::new();
            let mut now = SimTime::ZERO;
            let (mut admitted, mut held_back) = (0, 0);
            for _ in 0..2000 {
                // HELLOs every ~2 s, TCs every ~5 s, and silences long
                // enough for every log entry to go stale.
                now += match rng.range_u64(0, 30) {
                    0 => SimDuration::from_secs(rng.range_u64(8, 20)),
                    _ => SimDuration::from_millis(rng.range_u64(0, 5000)),
                };
                pruned.forget_stale(now);
                for (i, seq) in seqs.iter_mut().enumerate() {
                    if !rng.chance(0.6) {
                        continue;
                    }
                    if rng.chance(0.05) {
                        *seq += 1;
                    }
                    let e = ServiceEntry::sip_binding(
                        &format!("u{i}@v.ch"),
                        "10.0.0.1:5060".parse().unwrap(),
                        Addr::manet((i % 3) as u32),
                        *seq,
                        60,
                    );
                    let admit = pruned.admit(&e, now);
                    assert_eq!(admit, full.admit(&e, now), "{e} at {now}");
                    if admit {
                        attached.push((i, now));
                        admitted += 1;
                    } else {
                        held_back += 1;
                    }
                }
                let recent: std::collections::BTreeSet<usize> = attached
                    .iter()
                    .filter(|(_, at)| now.saturating_since(*at) < min)
                    .map(|(i, _)| *i)
                    .collect();
                assert_eq!(pruned.last.len(), recent.len(), "at {now}");
            }
            assert!(
                admitted > 1000 && held_back > 1000,
                "{admitted} {held_back}"
            );
            assert_eq!(full.last.len(), 12);
        }
    }
}
