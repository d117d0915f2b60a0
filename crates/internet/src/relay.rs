//! TURN-style media relay for NAT'd gateways.
//!
//! PR 6: a gateway may sit behind NAT on its wired side, in which case it
//! cannot claim backbone-routable lease addresses itself. Following the
//! TURN adaptation pattern (PAPERS.md, arXiv 1002.1178), such a gateway
//! asks a wired **relay** to allocate relayed public addresses on its
//! behalf:
//!
//! * `TALLOC` — gateway asks the relay to allocate (or refresh) a relayed
//!   address for one MANET client; the relay claims the address on the
//!   backbone and answers `TALLOCOK` (the Allocate transaction);
//! * `TPERMIT` — gateway opens a permission so a given remote peer may
//!   send inbound to a relayed address (CreatePermission); datagrams from
//!   peers without a permission are dropped at the relay;
//! * `TRFWD` — outbound client traffic, hairpinned gateway → relay and
//!   re-injected onto the Internet from the relayed source address;
//! * `TRDATA` — inbound traffic captured at a relayed address, wrapped
//!   back to the owning gateway, which tunnels it on to the client.
//!
//! The codec lives here (rather than in `siphoc-core`'s tunnel module)
//! because the relay is Internet-side infrastructure and `siphoc-core`
//! already depends on this crate; core nests [`RelayMsg`] inside its
//! `TunnelMsg` so the gateway keeps a single parse entry point.

use std::collections::{BTreeMap, BTreeSet};

use siphoc_simnet::net::{ports, Addr, Datagram, SocketAddr};
use siphoc_simnet::process::{Ctx, Process};
use siphoc_simnet::time::{SimDuration, SimTime};

/// Relay-plane wire messages. Same framing discipline as the tunnel:
/// text headers, with encapsulated datagrams binary-safe after the first
/// newline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayMsg {
    /// NAT'd gateway → relay: allocate (or refresh) a relayed public
    /// address on behalf of `client`.
    AllocReq {
        /// The MANET client the relayed address will be leased to.
        client: Addr,
    },
    /// Relay → gateway: the relayed address now allocated for `client`.
    AllocOk {
        /// Echo of the requesting client.
        client: Addr,
        /// The relayed public address, claimed by the relay.
        relayed: Addr,
    },
    /// NAT'd gateway → relay: permit inbound traffic from `peer` to the
    /// relayed address. Without a permission the relay drops inbound
    /// datagrams for the address.
    Permit {
        /// The relayed address being opened.
        relayed: Addr,
        /// The remote peer allowed to send to it.
        peer: Addr,
    },
    /// NAT'd gateway → relay: outbound datagram to re-inject onto the
    /// Internet from its relayed source address.
    RelayFwd {
        /// The datagram, source already rewritten to the relayed address.
        inner: Datagram,
    },
    /// Relay → gateway: inbound datagram that arrived at a relayed
    /// address, to be tunneled on to the leased client.
    RelayData {
        /// The datagram as captured on the backbone.
        inner: Datagram,
    },
}

/// Encapsulates a datagram under a text header tag (`TDATA`/`TRFWD`/…).
pub fn encap(tag: &str, inner: &Datagram) -> Vec<u8> {
    let mut out = format!("{tag} {} {} {}\n", inner.src, inner.dst, inner.ttl).into_bytes();
    out.extend_from_slice(&inner.payload);
    out
}

/// Inverse of [`encap`]: rebuilds the inner datagram from a parsed header.
pub fn decap(
    it: &mut std::str::SplitAsciiWhitespace<'_>,
    bytes: &[u8],
    text_end: usize,
) -> Option<Datagram> {
    let src: SocketAddr = it.next()?.parse().ok()?;
    let dst: SocketAddr = it.next()?.parse().ok()?;
    let ttl: u8 = it.next()?.parse().ok()?;
    let payload = bytes.get(text_end + 1..).unwrap_or_default().to_vec();
    let mut inner = Datagram::new(src, dst, payload);
    inner.ttl = ttl;
    Some(inner)
}

impl RelayMsg {
    /// Serializes the message.
    pub fn to_wire(&self) -> Vec<u8> {
        match self {
            RelayMsg::AllocReq { client } => format!("TALLOC {client}").into_bytes(),
            RelayMsg::AllocOk { client, relayed } => {
                format!("TALLOCOK {client} {relayed}").into_bytes()
            }
            RelayMsg::Permit { relayed, peer } => format!("TPERMIT {relayed} {peer}").into_bytes(),
            RelayMsg::RelayFwd { inner } => encap("TRFWD", inner),
            RelayMsg::RelayData { inner } => encap("TRDATA", inner),
        }
    }

    /// Parses a message. Returns `None` for non-relay tags so the caller
    /// can fall through to its own codec.
    pub fn parse(bytes: &[u8]) -> Option<RelayMsg> {
        let text_end = bytes
            .iter()
            .position(|b| *b == b'\n')
            .unwrap_or(bytes.len());
        let head = std::str::from_utf8(&bytes[..text_end]).ok()?;
        let mut it = head.split_ascii_whitespace();
        match it.next()? {
            "TALLOC" => Some(RelayMsg::AllocReq {
                client: it.next()?.parse().ok()?,
            }),
            "TALLOCOK" => Some(RelayMsg::AllocOk {
                client: it.next()?.parse().ok()?,
                relayed: it.next()?.parse().ok()?,
            }),
            "TPERMIT" => Some(RelayMsg::Permit {
                relayed: it.next()?.parse().ok()?,
                peer: it.next()?.parse().ok()?,
            }),
            "TRFWD" => Some(RelayMsg::RelayFwd {
                inner: decap(&mut it, bytes, text_end)?,
            }),
            "TRDATA" => Some(RelayMsg::RelayData {
                inner: decap(&mut it, bytes, text_end)?,
            }),
            _ => None,
        }
    }
}

/// Relay configuration.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// First address of the relayed pool; allocations count up.
    pub pool_base: Addr,
    /// Maximum concurrent allocations.
    pub pool_size: u32,
}

impl Default for RelayConfig {
    fn default() -> RelayConfig {
        RelayConfig {
            pool_base: Addr::new(82, 130, 66, 100),
            pool_size: 64,
        }
    }
}

#[derive(Debug)]
struct Alloc {
    gateway: SocketAddr,
    client: Addr,
    expires: SimTime,
}

const TAG_EXPIRE: u64 = 1;

/// Allocation lifetime; gateways refresh with repeated `TALLOC`s.
const ALLOC_LIFETIME: SimDuration = SimDuration::from_secs(120);

/// Media ports sit at 8000 and up; everything below is signalling.
fn is_media(d: &Datagram) -> bool {
    d.src.port >= 8000 || d.dst.port >= 8000
}

/// The TURN-style relay process. Spawn on a wired node.
#[derive(Debug)]
pub struct TurnRelay {
    cfg: RelayConfig,
    /// relayed address → allocation.
    allocs: BTreeMap<Addr, Alloc>,
    /// (relayed, permitted peer) pairs.
    permits: BTreeSet<(Addr, Addr)>,
    next_offset: u32,
}

impl TurnRelay {
    /// Creates a relay.
    pub fn new(cfg: RelayConfig) -> TurnRelay {
        TurnRelay {
            cfg,
            allocs: BTreeMap::new(),
            permits: BTreeSet::new(),
            next_offset: 0,
        }
    }

    /// Current number of live allocations.
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }

    fn allocate(&mut self, gateway: SocketAddr, client: Addr, now: SimTime) -> Option<Addr> {
        if let Some((relayed, a)) = self
            .allocs
            .iter_mut()
            .find(|(_, a)| a.gateway == gateway && a.client == client)
        {
            a.expires = now + ALLOC_LIFETIME;
            return Some(*relayed);
        }
        if self.allocs.len() as u32 >= self.cfg.pool_size {
            return None;
        }
        for i in 0..self.cfg.pool_size {
            let candidate =
                Addr(self.cfg.pool_base.0 + ((self.next_offset + i) % self.cfg.pool_size));
            if !self.allocs.contains_key(&candidate) {
                self.next_offset = (self.next_offset + i + 1) % self.cfg.pool_size;
                self.allocs.insert(
                    candidate,
                    Alloc {
                        gateway,
                        client,
                        expires: now + ALLOC_LIFETIME,
                    },
                );
                return Some(candidate);
            }
        }
        None
    }
}

impl Process for TurnRelay {
    fn name(&self) -> &'static str {
        "turn-relay"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::TUNNEL);
        ctx.set_timer(ALLOC_LIFETIME, TAG_EXPIRE);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        // Backbone traffic captured via a relayed address?
        if dgram.dst.addr != ctx.addr() && dgram.dst.addr.is_public() {
            let Some(alloc) = self.allocs.get(&dgram.dst.addr) else {
                ctx.stats().count("relay.unknown_drop", dgram.wire_len());
                return;
            };
            if !self.permits.contains(&(dgram.dst.addr, dgram.src.addr)) {
                ctx.stats().count("relay.no_permit_drop", dgram.wire_len());
                return;
            }
            ctx.stats().count("relay.to_gateway", dgram.wire_len());
            if is_media(dgram) {
                ctx.stats().count("media.relayed", 1);
            }
            let msg = RelayMsg::RelayData {
                inner: dgram.clone(),
            };
            ctx.send_to(alloc.gateway, ports::TUNNEL, msg.to_wire());
            return;
        }
        let Some(msg) = RelayMsg::parse(&dgram.payload) else {
            ctx.stats().count("relay.malformed", dgram.payload.len());
            return;
        };
        match msg {
            RelayMsg::AllocReq { client } => {
                let now = ctx.now();
                match self.allocate(dgram.src, client, now) {
                    Some(relayed) => {
                        ctx.claim_public_addr(relayed);
                        ctx.stats().count("relay.alloc", 1);
                        let ok = RelayMsg::AllocOk { client, relayed };
                        ctx.send_to(dgram.src, ports::TUNNEL, ok.to_wire());
                    }
                    None => {
                        ctx.stats().count("relay.pool_exhausted", 1);
                    }
                }
            }
            RelayMsg::Permit { relayed, peer } => {
                // Only the owning gateway may open permissions.
                match self.allocs.get(&relayed) {
                    Some(a) if a.gateway == dgram.src => {
                        ctx.stats().count("relay.permit", 1);
                        self.permits.insert((relayed, peer));
                    }
                    _ => {
                        ctx.stats().count("relay.bad_permit", 1);
                    }
                }
            }
            RelayMsg::RelayFwd { inner } => {
                // Only forward from addresses the sender actually owns.
                match self.allocs.get(&inner.src.addr) {
                    Some(a) if a.gateway == dgram.src => {
                        ctx.stats().count("relay.fwd", inner.wire_len());
                        if is_media(&inner) {
                            ctx.stats().count("media.relayed", 1);
                        }
                        ctx.reinject(inner);
                    }
                    _ => {
                        ctx.stats().count("relay.bad_fwd", 1);
                    }
                }
            }
            RelayMsg::AllocOk { .. } | RelayMsg::RelayData { .. } => {
                ctx.stats().count("relay.unexpected_msg", 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TAG_EXPIRE {
            return;
        }
        let now = ctx.now();
        let expired: Vec<Addr> = self
            .allocs
            .iter()
            .filter(|(_, a)| a.expires <= now)
            .map(|(r, _)| *r)
            .collect();
        for relayed in expired {
            self.allocs.remove(&relayed);
            self.permits.retain(|(r, _)| *r != relayed);
            ctx.release_public_addr(relayed);
            ctx.stats().count("relay.alloc_expired", 1);
        }
        ctx.set_timer(ALLOC_LIFETIME, TAG_EXPIRE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_wire_round_trips() {
        let inner = Datagram::new(
            "82.130.66.100:8000".parse().unwrap(),
            "82.1.1.50:8000".parse().unwrap(),
            vec![0x80, 0x00, 0xff, b'\n', 0x01],
        );
        let msgs = vec![
            RelayMsg::AllocReq {
                client: Addr::manet(3),
            },
            RelayMsg::AllocOk {
                client: Addr::manet(3),
                relayed: Addr::new(82, 130, 66, 101),
            },
            RelayMsg::Permit {
                relayed: Addr::new(82, 130, 66, 101),
                peer: Addr::new(82, 1, 1, 50),
            },
            RelayMsg::RelayFwd {
                inner: inner.clone(),
            },
            RelayMsg::RelayData { inner },
        ];
        for m in msgs {
            assert_eq!(RelayMsg::parse(&m.to_wire()), Some(m));
        }
        assert_eq!(
            RelayMsg::parse(b"TCONNECT"),
            None,
            "tunnel tags fall through"
        );
        assert_eq!(RelayMsg::parse(b"TPERMIT 82.130.66.101"), None);
    }

    #[test]
    fn allocation_is_stable_per_client_and_bounded() {
        let mut r = TurnRelay::new(RelayConfig {
            pool_size: 2,
            ..RelayConfig::default()
        });
        let gw: SocketAddr = "82.130.64.1:4271".parse().unwrap();
        let now = SimTime::ZERO;
        let a = r.allocate(gw, Addr::manet(1), now).unwrap();
        let a2 = r.allocate(gw, Addr::manet(1), now).unwrap();
        assert_eq!(a, a2, "refresh keeps the allocation");
        let b = r.allocate(gw, Addr::manet(2), now).unwrap();
        assert_ne!(a, b);
        assert!(r.allocate(gw, Addr::manet(3), now).is_none(), "exhausted");
        assert_eq!(r.alloc_count(), 2);
    }

    #[test]
    fn separate_gateways_get_separate_allocations_for_same_client() {
        let mut r = TurnRelay::new(RelayConfig::default());
        let gw1: SocketAddr = "82.130.64.1:4271".parse().unwrap();
        let gw2: SocketAddr = "82.130.64.2:4271".parse().unwrap();
        let now = SimTime::ZERO;
        let a = r.allocate(gw1, Addr::manet(1), now).unwrap();
        let b = r.allocate(gw2, Addr::manet(1), now).unwrap();
        assert_ne!(a, b);
    }
}
