//! Network addressing and datagrams.
//!
//! The simulator models an IPv4-like address space:
//!
//! * `10.0.0.0/8` — MANET node addresses,
//! * `82.0.0.0/8` and `192.0.0.0/8` — "public Internet" addresses,
//! * `127.0.0.1` — node-local loopback (inter-process messages on one node),
//! * `255.255.255.255` — the link-local broadcast address (one radio hop).
//!
//! Transport is a UDP-like unreliable datagram service: a [`Datagram`] carries
//! a payload between two [`SocketAddr`]s and is either delivered whole or
//! lost.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// An IPv4-like network address.
///
/// # Examples
///
/// ```
/// use siphoc_simnet::net::Addr;
///
/// let a: Addr = "10.0.0.7".parse()?;
/// assert!(a.is_manet());
/// assert_eq!(a.to_string(), "10.0.0.7");
/// # Ok::<(), siphoc_simnet::net::ParseAddrError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u32);

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl Addr {
    /// The node-local loopback address `127.0.0.1`.
    pub const LOOPBACK: Addr = Addr(0x7f00_0001);

    /// The link-local broadcast address `255.255.255.255`.
    ///
    /// Datagrams sent here reach every node within one radio hop; they are
    /// never forwarded.
    pub const BROADCAST: Addr = Addr(0xffff_ffff);

    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Builds an address from its four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The conventional address of the `index`-th MANET node: `10.0.0.(index+1)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^24 - 1`, which would overflow the `10/8` block.
    pub fn manet(index: u32) -> Addr {
        assert!(index < (1 << 24) - 1, "MANET address index out of range");
        Addr((10 << 24) | (index + 1))
    }

    /// Returns `true` for addresses in the MANET block `10.0.0.0/8`.
    pub const fn is_manet(self) -> bool {
        self.0 >> 24 == 10
    }

    /// Returns `true` for public (Internet) addresses — anything that is not
    /// MANET, loopback, broadcast or unspecified.
    pub const fn is_public(self) -> bool {
        !self.is_manet()
            && !self.is_loopback()
            && self.0 != Addr::BROADCAST.0
            && self.0 != Addr::UNSPECIFIED.0
    }

    /// Returns `true` for `127.0.0.0/8`.
    pub const fn is_loopback(self) -> bool {
        self.0 >> 24 == 127
    }

    /// Returns `true` for the link-local broadcast address.
    pub const fn is_broadcast(self) -> bool {
        self.0 == Addr::BROADCAST.0
    }

    /// Returns the four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error returned when parsing an [`Addr`] or [`SocketAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError {
    input: String,
}

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Addr {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAddrError {
            input: s.to_owned(),
        };
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for octet in &mut octets {
            let part = parts.next().ok_or_else(err)?;
            *octet = part.parse().map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        let [a, b, c, d] = octets;
        Ok(Addr::new(a, b, c, d))
    }
}

/// A transport endpoint: address plus UDP-like port.
///
/// # Examples
///
/// ```
/// use siphoc_simnet::net::{Addr, SocketAddr};
///
/// let sa = SocketAddr::new(Addr::manet(0), 5060);
/// assert_eq!(sa.to_string(), "10.0.0.1:5060");
/// assert_eq!("10.0.0.1:5060".parse::<SocketAddr>()?, sa);
/// # Ok::<(), siphoc_simnet::net::ParseAddrError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketAddr {
    /// The network address.
    pub addr: Addr,
    /// The port number.
    pub port: u16,
}

impl SocketAddr {
    /// Creates a socket address from its parts.
    pub const fn new(addr: Addr, port: u16) -> SocketAddr {
        SocketAddr { addr, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

impl fmt::Debug for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for SocketAddr {
    type Err = ParseAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAddrError {
            input: s.to_owned(),
        };
        let (addr, port) = s.rsplit_once(':').ok_or_else(err)?;
        Ok(SocketAddr {
            addr: addr.parse()?,
            port: port.parse().map_err(|_| err())?,
        })
    }
}

/// Well-known port numbers used across the stack.
pub mod ports {
    /// AODV routing control traffic (RFC 3561).
    pub const AODV: u16 = 654;
    /// OLSR routing control traffic (RFC 3626).
    pub const OLSR: u16 = 698;
    /// Service Location Protocol (RFC 2608).
    pub const SLP: u16 = 427;
    /// SIP signaling (RFC 3261).
    pub const SIP: u16 = 5060;
    /// The local SIPHoc proxy listens here for the node's own VoIP
    /// application (the "outbound proxy = localhost" of paper Fig. 2).
    pub const SIPHOC_PROXY: u16 = 5060;
    /// SIPHoc layer-2 tunnel server (gateway side).
    pub const TUNNEL: u16 = 7077;
}

/// Per-datagram time-to-live used when a datagram is forwarded hop by hop.
pub const DEFAULT_TTL: u8 = 64;

/// Number of bytes of UDP/IP header overhead accounted per datagram when
/// computing on-air frame sizes (8 bytes UDP + 20 bytes IP).
pub const UDP_IP_OVERHEAD: usize = 28;

/// Shared, immutable payload bytes.
///
/// A broadcast frame is delivered to every receiver in radio range and,
/// when capture is on, recorded in the packet trace — historically each of
/// those copies cloned the full byte vector. `Payload` wraps the bytes in
/// an [`Arc`] so cloning is a reference-count bump; the only mutation in
/// the stack (fault injection's bit corruption) goes through the
/// copy-on-write [`Payload::make_mut`].
///
/// The wrapper dereferences to `[u8]`, so slice-style reads
/// (`&dgram.payload`, `.len()`, `.starts_with(..)`, `.to_vec()`) work
/// unchanged, and it compares transparently against byte slices, arrays
/// and `Vec<u8>` in assertions.
#[derive(Clone, PartialEq, Eq)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// An empty payload.
    pub fn empty() -> Payload {
        Payload(Arc::from(&[][..]))
    }

    /// The payload bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Mutable access for in-place edits, copy-on-write: if the bytes are
    /// shared with other datagram copies (or trace entries), they are
    /// cloned first so those copies keep observing the original bytes.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::from(&self.0[..]);
        }
        Arc::get_mut(&mut self.0).expect("freshly copied payload is uniquely owned")
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload(v.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload(Arc::from(v))
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(v: [u8; N]) -> Payload {
        Payload(Arc::from(&v[..]))
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Payload {
        Payload(Arc::from(&v[..]))
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        &self.0[..] == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        &self.0[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.0[..] == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.0[..] == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.0[..] == other[..]
    }
}

/// An unreliable, unordered datagram — the only transport the simulator
/// offers, mirroring the paper's UDP-based deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Origin endpoint.
    pub src: SocketAddr,
    /// Destination endpoint.
    pub dst: SocketAddr,
    /// Remaining hops before the datagram is discarded.
    pub ttl: u8,
    /// Opaque payload bytes, shared between clones of this datagram.
    pub payload: Payload,
}

impl Datagram {
    /// Creates a datagram with the default TTL.
    pub fn new(src: SocketAddr, dst: SocketAddr, payload: impl Into<Payload>) -> Datagram {
        Datagram {
            src,
            dst,
            ttl: DEFAULT_TTL,
            payload: payload.into(),
        }
    }

    /// Total simulated wire size: payload plus UDP/IP overhead.
    pub fn wire_len(&self) -> usize {
        self.payload.len() + UDP_IP_OVERHEAD
    }
}

/// Layer-2 destination of a radio frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L2Dst {
    /// Unicast to the neighbor owning this address (802.11 acked/retried).
    Unicast(Addr),
    /// Local broadcast to every node in range (unacknowledged).
    Broadcast,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_classification() {
        assert!(Addr::manet(0).is_manet());
        assert!(!Addr::manet(0).is_public());
        assert!(Addr::new(82, 130, 1, 1).is_public());
        assert!(Addr::LOOPBACK.is_loopback());
        assert!(Addr::BROADCAST.is_broadcast());
        assert!(!Addr::UNSPECIFIED.is_public());
    }

    #[test]
    fn addr_display_and_parse_round_trip() {
        for s in ["10.0.0.1", "82.130.64.9", "255.255.255.255", "127.0.0.1"] {
            let a: Addr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn addr_parse_rejects_malformed() {
        assert!("10.0.0".parse::<Addr>().is_err());
        assert!("10.0.0.0.1".parse::<Addr>().is_err());
        assert!("10.0.0.256".parse::<Addr>().is_err());
        assert!("ten.zero.zero.one".parse::<Addr>().is_err());
    }

    #[test]
    fn socket_addr_round_trip() {
        let sa: SocketAddr = "10.0.0.3:427".parse().unwrap();
        assert_eq!(sa.addr, Addr::manet(2));
        assert_eq!(sa.port, 427);
        assert_eq!(sa.to_string(), "10.0.0.3:427");
        assert!("10.0.0.3".parse::<SocketAddr>().is_err());
        assert!("10.0.0.3:notaport".parse::<SocketAddr>().is_err());
    }

    #[test]
    fn manet_addresses_are_sequential() {
        assert_eq!(Addr::manet(0).to_string(), "10.0.0.1");
        assert_eq!(Addr::manet(255).to_string(), "10.0.1.0");
    }

    #[test]
    fn datagram_wire_len_includes_headers() {
        let d = Datagram::new(
            SocketAddr::new(Addr::manet(0), 1000),
            SocketAddr::new(Addr::manet(1), 2000),
            vec![0u8; 160],
        );
        assert_eq!(d.wire_len(), 188);
        assert_eq!(d.ttl, DEFAULT_TTL);
    }
}
