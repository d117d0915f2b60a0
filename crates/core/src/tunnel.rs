//! The SIPHoc layer-2 tunnel.
//!
//! Paper §2: the Gateway Provider "starts a layer two tunnel server ready
//! to accept connections", and "since the gateway node will directly
//! forward all the traffic it receives on the tunnel interface to the
//! Internet, any node with a tunnel connection is automatically attached
//! to the Internet as well".
//!
//! The reproduction models the tunnel as datagram-in-datagram over the
//! MANET:
//!
//! * a client sends `TCONNECT`; the server leases it a **public address**
//!   from its pool (the DHCP-over-L2 step of the real system) and claims
//!   that address on the backbone;
//! * Internet-bound client traffic is encapsulated in `TDATA` toward the
//!   gateway, which decapsulates and re-injects it onto its wired side —
//!   the client's private source address is rewritten to its lease on the
//!   way out, so replies route back;
//! * backbone traffic for a leased address is captured at the gateway and
//!   encapsulated back to the client, where it is re-injected and
//!   delivered locally (the lease is a local alias there).
//!
//! Leases are soft state: clients refresh with periodic `TCONNECT`s and
//! the server expires silent leases.

use std::collections::BTreeMap;

use siphoc_internet::relay::{decap, encap, AddrPool, RelayMsg};
use siphoc_simnet::net::{ports, Addr, Datagram, SocketAddr};
use siphoc_simnet::process::{Ctx, Process};
use siphoc_simnet::time::{SimDuration, SimTime};

/// Tunnel wire messages. Encapsulation is length-delimited text headers
/// followed by the raw inner datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TunnelMsg {
    /// Client → server: request (or refresh) a lease.
    Connect,
    /// Server → client: lease grant.
    Lease {
        /// The public address leased to the client.
        public: Addr,
        /// Lease lifetime in seconds.
        lifetime_secs: u32,
    },
    /// Encapsulated datagram, either direction.
    Data {
        /// The tunneled datagram.
        inner: Datagram,
    },
    /// Client → server: liveness probe. Deliberately does *not* refresh
    /// the lease — lease soft state stays driven by `Connect` alone, so a
    /// gateway that answers pings but lost its lease table still forces a
    /// clean re-lease.
    Ping {
        /// Echo sequence number.
        seq: u64,
    },
    /// Server → client: liveness probe echo.
    Pong {
        /// The echoed sequence number.
        seq: u64,
    },
    /// Relay-plane message (TURN-style allocate / permission / relayed
    /// datagram), exchanged between a NAT'd gateway and its media relay.
    /// The codec lives with the relay actor in `siphoc_internet::relay`;
    /// nesting it here keeps a single parse entry point for everything
    /// arriving on the tunnel port.
    Relay(RelayMsg),
}

impl TunnelMsg {
    /// Serializes the message.
    pub fn to_wire(&self) -> Vec<u8> {
        match self {
            TunnelMsg::Connect => b"TCONNECT".to_vec(),
            TunnelMsg::Lease {
                public,
                lifetime_secs,
            } => format!("TLEASE {public} {lifetime_secs}").into_bytes(),
            TunnelMsg::Data { inner } => encap("TDATA", inner),
            TunnelMsg::Ping { seq } => format!("TPING {seq}").into_bytes(),
            TunnelMsg::Pong { seq } => format!("TPONG {seq}").into_bytes(),
            TunnelMsg::Relay(m) => m.to_wire(),
        }
    }

    /// Parses a message.
    pub fn parse(bytes: &[u8]) -> Option<TunnelMsg> {
        if bytes == b"TCONNECT" {
            return Some(TunnelMsg::Connect);
        }
        if let Some(m) = RelayMsg::parse(bytes) {
            return Some(TunnelMsg::Relay(m));
        }
        let text_end = bytes
            .iter()
            .position(|b| *b == b'\n')
            .unwrap_or(bytes.len());
        let head = std::str::from_utf8(&bytes[..text_end]).ok()?;
        let mut it = head.split_ascii_whitespace();
        match it.next()? {
            "TLEASE" => Some(TunnelMsg::Lease {
                public: it.next()?.parse().ok()?,
                lifetime_secs: it.next()?.parse().ok()?,
            }),
            "TDATA" => Some(TunnelMsg::Data {
                inner: decap(&mut it, bytes, text_end)?,
            }),
            "TPING" => Some(TunnelMsg::Ping {
                seq: it.next()?.parse().ok()?,
            }),
            "TPONG" => Some(TunnelMsg::Pong {
                seq: it.next()?.parse().ok()?,
            }),
            _ => None,
        }
    }
}

/// Tunnel server configuration.
#[derive(Debug, Clone)]
pub struct TunnelServerConfig {
    /// The public lease addresses; its size bounds concurrent leases.
    pub pool: AddrPool,
    /// When set, the gateway is NAT'd: it cannot claim backbone-routable
    /// addresses itself, so leases are allocated on this TURN-style relay
    /// and all Internet traffic is hairpinned through it.
    pub relay: Option<SocketAddr>,
    /// The gateway's own backbone-routable address. A NAT'd gateway stamps
    /// this as the source of relay-bound traffic so the relay's replies
    /// can traverse the wired backbone (the MANET address cannot).
    pub wired_public: Option<Addr>,
}

impl Default for TunnelServerConfig {
    fn default() -> TunnelServerConfig {
        TunnelServerConfig {
            pool: AddrPool::new(Addr::new(82, 130, 64, 100), 64),
            relay: None,
            wired_public: None,
        }
    }
}

#[derive(Debug)]
struct Lease {
    public: Addr,
    expires: SimTime,
}

const TAG_EXPIRE: u64 = 1;

/// Lease lifetime granted to clients.
const LEASE_LIFETIME_SECS: u32 = 60;
const LEASE_LIFETIME: SimDuration = SimDuration::from_secs(LEASE_LIFETIME_SECS as u64);

/// The tunnel server process (runs on the gateway next to the Gateway
/// Provider).
#[derive(Debug)]
pub struct TunnelServer {
    cfg: TunnelServerConfig,
    /// client MANET address → lease.
    leases: BTreeMap<Addr, Lease>,
    /// NAT'd mode: clients whose lease awaits the relay's `AllocOk`,
    /// mapped to the reply address for the eventual `TLEASE`.
    pending_allocs: BTreeMap<Addr, SocketAddr>,
    /// NAT'd mode: (relayed, peer) permissions already pushed to the relay.
    permits_sent: std::collections::BTreeSet<(Addr, Addr)>,
}

impl TunnelServer {
    /// Creates a server.
    pub fn new(cfg: TunnelServerConfig) -> TunnelServer {
        TunnelServer {
            cfg,
            leases: BTreeMap::new(),
            pending_allocs: BTreeMap::new(),
            permits_sent: std::collections::BTreeSet::new(),
        }
    }

    /// Current number of active leases.
    pub fn lease_count(&self) -> usize {
        self.leases.len()
    }

    fn send_lease(&self, ctx: &mut Ctx<'_>, to: SocketAddr, public: Addr) {
        let lease = TunnelMsg::Lease {
            public,
            lifetime_secs: LEASE_LIFETIME_SECS,
        };
        ctx.send_to(to, ports::TUNNEL, lease.to_wire());
    }

    fn send_to_relay(&self, ctx: &mut Ctx<'_>, relay: SocketAddr, payload: Vec<u8>) {
        let src_addr = self.cfg.wired_public.unwrap_or_else(|| ctx.addr());
        let src = SocketAddr::new(src_addr, ports::TUNNEL);
        ctx.send(Datagram::new(src, relay, payload));
    }

    fn allocate(&mut self, client: Addr, now: SimTime) -> Option<Addr> {
        if let Some(l) = self.leases.get_mut(&client) {
            l.expires = now + LEASE_LIFETIME;
            return Some(l.public);
        }
        let in_use = |a| self.leases.values().any(|l| l.public == a);
        let public = self.cfg.pool.allocate(in_use)?;
        let lease = Lease {
            public,
            expires: now + LEASE_LIFETIME,
        };
        self.leases.insert(client, lease);
        Some(public)
    }
}

impl Process for TunnelServer {
    fn name(&self) -> &'static str {
        "tunnel-server"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(ports::TUNNEL);
        ctx.set_timer(LEASE_LIFETIME, TAG_EXPIRE);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        // Backbone traffic captured via a claimed lease address? Relay
        // replies also arrive addressed to the wired alias — let those
        // fall through to the message parser below.
        if dgram.dst.addr != ctx.addr()
            && dgram.dst.addr.is_public()
            && self.cfg.relay != Some(dgram.src)
        {
            let client = self
                .leases
                .iter()
                .find(|(_, l)| l.public == dgram.dst.addr)
                .map(|(c, _)| *c);
            if let Some(client) = client {
                let msg = TunnelMsg::Data {
                    inner: dgram.clone(),
                };
                ctx.stats().count("tunnel.to_client", dgram.wire_len());
                ctx.send_to(
                    SocketAddr::new(client, ports::TUNNEL),
                    ports::TUNNEL,
                    msg.to_wire(),
                );
            } else {
                ctx.stats()
                    .count("tunnel.expired_lease_drop", dgram.wire_len());
            }
            return;
        }
        let Some(msg) = TunnelMsg::parse(&dgram.payload) else {
            ctx.stats().count("tunnel.malformed", dgram.payload.len());
            return;
        };
        match msg {
            TunnelMsg::Connect => {
                let now = ctx.now();
                let client = dgram.src.addr;
                if let Some(relay) = self.cfg.relay {
                    // NAT'd mode: the lease pool lives on the relay. A
                    // refresh is answered from local soft state at once;
                    // a fresh connect waits for the relay's AllocOk.
                    // Either way the relay-side allocation is renewed.
                    if let Some(l) = self.leases.get_mut(&client) {
                        l.expires = now + LEASE_LIFETIME;
                        let public = l.public;
                        ctx.stats().count("tunnel.lease", 1);
                        self.send_lease(ctx, dgram.src, public);
                    } else {
                        self.pending_allocs.insert(client, dgram.src);
                    }
                    ctx.stats().count("tunnel.alloc_req", 1);
                    self.send_to_relay(ctx, relay, RelayMsg::AllocReq { client }.to_wire());
                    return;
                }
                match self.allocate(client, now) {
                    Some(public) => {
                        ctx.claim_public_addr(public);
                        ctx.stats().count("tunnel.lease", 1);
                        self.send_lease(ctx, dgram.src, public);
                    }
                    None => {
                        ctx.stats().count("tunnel.pool_exhausted", 1);
                    }
                }
            }
            TunnelMsg::Data { inner } => {
                if let Some(relay) = self.cfg.relay {
                    // NAT'd mode: hairpin outbound traffic through the
                    // relay, opening a permission for the reply path the
                    // first time each (relayed, peer) pair is seen.
                    let key = (inner.src.addr, inner.dst.addr);
                    if self.permits_sent.insert(key) {
                        ctx.stats().count("tunnel.permit", 1);
                        let permit = RelayMsg::Permit {
                            relayed: key.0,
                            peer: key.1,
                        };
                        self.send_to_relay(ctx, relay, permit.to_wire());
                    }
                    ctx.stats().count("tunnel.relay_fwd", inner.wire_len());
                    self.send_to_relay(ctx, relay, RelayMsg::RelayFwd { inner }.to_wire());
                    return;
                }
                // Client → Internet: re-inject on the wired side.
                ctx.stats().count("tunnel.to_internet", inner.wire_len());
                ctx.send(inner);
            }
            TunnelMsg::Ping { seq } => {
                ctx.stats().count("tunnel.ping", 1);
                ctx.send_to(dgram.src, ports::TUNNEL, TunnelMsg::Pong { seq }.to_wire());
            }
            TunnelMsg::Relay(RelayMsg::AllocOk { client, relayed })
                if self.cfg.relay == Some(dgram.src) =>
            {
                let now = ctx.now();
                self.leases.insert(
                    client,
                    Lease {
                        public: relayed,
                        expires: now + LEASE_LIFETIME,
                    },
                );
                // Absent on renewals — the client already holds its lease.
                if let Some(reply) = self.pending_allocs.remove(&client) {
                    ctx.stats().count("tunnel.lease", 1);
                    self.send_lease(ctx, reply, relayed);
                }
            }
            TunnelMsg::Relay(RelayMsg::RelayData { inner })
                if self.cfg.relay == Some(dgram.src) =>
            {
                let client = self
                    .leases
                    .iter()
                    .find(|(_, l)| l.public == inner.dst.addr)
                    .map(|(c, _)| *c);
                match client {
                    Some(client) => {
                        ctx.stats().count("tunnel.from_relay", inner.wire_len());
                        let msg = TunnelMsg::Data { inner };
                        ctx.send_to(
                            SocketAddr::new(client, ports::TUNNEL),
                            ports::TUNNEL,
                            msg.to_wire(),
                        );
                    }
                    None => {
                        ctx.stats()
                            .count("tunnel.expired_lease_drop", inner.wire_len());
                    }
                }
            }
            _ => {
                ctx.stats().count("tunnel.unexpected_msg", 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TAG_EXPIRE {
            return;
        }
        let now = ctx.now();
        let expired: Vec<(Addr, Addr)> = self
            .leases
            .iter()
            .filter(|(_, l)| l.expires <= now)
            .map(|(c, l)| (*c, l.public))
            .collect();
        for (client, public) in expired {
            self.leases.remove(&client);
            // NAT'd leases were claimed by the relay, not here; the
            // relay expires its own allocations.
            if self.cfg.relay.is_none() {
                ctx.release_public_addr(public);
            }
            self.permits_sent.retain(|(relayed, _)| *relayed != public);
            ctx.stats().count("tunnel.lease_expired", 1);
        }
        ctx.set_timer(LEASE_LIFETIME, TAG_EXPIRE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trips() {
        let inner = Datagram::new(
            "10.0.0.2:5060".parse().unwrap(),
            "82.1.1.1:5060".parse().unwrap(),
            b"REGISTER sip:voicehoc.ch SIP/2.0\r\n\r\n".to_vec(),
        );
        let msgs = vec![
            TunnelMsg::Connect,
            TunnelMsg::Lease {
                public: Addr::new(82, 130, 64, 100),
                lifetime_secs: 60,
            },
            TunnelMsg::Data {
                inner: inner.clone(),
            },
            TunnelMsg::Ping { seq: 7 },
            TunnelMsg::Pong { seq: u64::MAX },
            TunnelMsg::Relay(RelayMsg::AllocReq {
                client: Addr::manet(4),
            }),
            TunnelMsg::Relay(RelayMsg::AllocOk {
                client: Addr::manet(4),
                relayed: Addr::new(82, 130, 65, 9),
            }),
            TunnelMsg::Relay(RelayMsg::Permit {
                relayed: Addr::new(82, 130, 65, 9),
                peer: Addr::new(82, 1, 1, 50),
            }),
            TunnelMsg::Relay(RelayMsg::RelayFwd {
                inner: inner.clone(),
            }),
            TunnelMsg::Relay(RelayMsg::RelayData { inner }),
        ];
        for m in msgs {
            assert_eq!(TunnelMsg::parse(&m.to_wire()), Some(m));
        }
        assert_eq!(TunnelMsg::parse(b"garbage"), None);
        assert_eq!(TunnelMsg::parse(b"TPING"), None, "seq required");
        assert_eq!(TunnelMsg::parse(b"TPONG x"), None, "numeric seq required");
        assert_eq!(
            TunnelMsg::parse(b"TPERMIT 82.130.65.9"),
            None,
            "peer required"
        );
    }

    #[test]
    fn tdata_preserves_binary_payload() {
        let inner = Datagram::new(
            "10.0.0.2:8000".parse().unwrap(),
            "82.1.1.9:8000".parse().unwrap(),
            vec![0x80, 0x00, 0xff, b'\n', 0x01, b'\n'],
        );
        let m = TunnelMsg::Data {
            inner: inner.clone(),
        };
        match TunnelMsg::parse(&m.to_wire()) {
            Some(TunnelMsg::Data { inner: got }) => assert_eq!(got, inner),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn allocation_is_stable_per_client_and_bounded() {
        let mut s = TunnelServer::new(TunnelServerConfig {
            pool: AddrPool::new(Addr::new(82, 130, 64, 100), 2),
            ..TunnelServerConfig::default()
        });
        let now = SimTime::ZERO;
        let a = s.allocate(Addr::manet(1), now).unwrap();
        let a2 = s.allocate(Addr::manet(1), now).unwrap();
        assert_eq!(a, a2, "refresh keeps the lease");
        let b = s.allocate(Addr::manet(2), now).unwrap();
        assert_ne!(a, b);
        assert!(s.allocate(Addr::manet(3), now).is_none(), "pool exhausted");
        assert_eq!(s.lease_count(), 2);
    }
}
