//! Control traffic on the wire: its encoding, its one send, and the
//! memory of floods already handled.
//!
//! Both AODV and OLSR messages (and the piggybacked service entries they
//! carry) are serialized with the little [`Writer`]/[`Reader`] pair below —
//! a length-prefixed, big-endian format chosen for simplicity and stable
//! byte counts, which the overhead experiments (E3) rely on.

use std::collections::BTreeMap;
use std::fmt;

use siphoc_simnet::net::{Addr, Datagram, L2Dst, SocketAddr};
use siphoc_simnet::process::Ctx;
use siphoc_simnet::time::{SimDuration, SimTime};

/// Error returned when decoding a malformed routing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    what: &'static str,
}

impl WireError {
    /// Creates an error naming the field that failed to decode.
    pub fn new(what: &'static str) -> WireError {
        WireError { what }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "truncated or malformed field: {}", self.what)
    }
}

impl std::error::Error for WireError {}

/// Serializer for routing messages.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an address (4 bytes).
    pub fn addr(&mut self, a: Addr) -> &mut Self {
        self.u32(a.0)
    }

    /// Appends a `u16`-length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds 65535 bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        assert!(
            bytes.len() <= u16::MAX as usize,
            "blob too large for u16 length"
        );
        self.u16(bytes.len() as u16);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends a `u16`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }
}

/// Deserializer for routing messages.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Reads an address.
    pub fn addr(&mut self, what: &'static str) -> Result<Addr, WireError> {
        Ok(Addr(self.u32(what)?))
    }

    /// Reads a `u16`-length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let len = self.u16(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let b = self.bytes(what)?;
        String::from_utf8(b).map_err(|_| WireError::new(what))
    }
}

/// Encodes a list of opaque piggyback entries: `u8` count, then
/// length-prefixed blobs.
pub fn write_entries(w: &mut Writer, entries: &[Vec<u8>]) {
    debug_assert!(entries.len() <= u8::MAX as usize);
    w.u8(entries.len() as u8);
    for e in entries {
        w.bytes(e);
    }
}

/// Decodes a list written by [`write_entries`].
pub fn read_entries(r: &mut Reader<'_>) -> Result<Vec<Vec<u8>>, WireError> {
    let n = r.u8("entry count")? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.bytes("entry")?);
    }
    Ok(out)
}

/// A control message of AODV, OLSR or the SLP daemon: the port it
/// travels between, and its bytes.
pub trait Control {
    /// The port both ends bind.
    const PORT: u16;
    /// The message's encoding.
    fn encode(&self) -> Vec<u8>;
}

/// Sends `msg` one radio hop, from and to its port (every neighbour's on
/// a broadcast), counted under `counter` at its encoded length.
pub fn send_control<M: Control>(ctx: &mut Ctx<'_>, link: L2Dst, counter: &'static str, msg: &M) {
    let payload = msg.encode();
    ctx.stats().count(counter, payload.len());
    let to = match link {
        L2Dst::Broadcast => Addr::BROADCAST,
        L2Dst::Unicast(neighbor) => neighbor,
    };
    let src = SocketAddr::new(ctx.addr(), M::PORT);
    ctx.send_link(
        link,
        Datagram::new(src, SocketAddr::new(to, M::PORT), payload),
    );
}

/// How long a [`FloodMemory`] keeps a flood, by its age at a purge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Kept while younger than this.
    Below(SimDuration),
    /// Kept while at most this old.
    UpTo(SimDuration),
}

/// The floods a node has handled, by `(origin, id)`, each with when it
/// was first seen: what keeps a relayed flood from being handled twice.
/// A node's own floods are never a first sight and are not stored.
#[derive(Debug, Default)]
pub struct FloodMemory {
    seen: BTreeMap<(Addr, u32), SimTime>,
}

impl FloodMemory {
    /// Whether flood `(origin, id)` is one another node than `own` sent
    /// and this one has not seen; records it at `now` if so.
    pub fn first_sight(&mut self, own: Addr, origin: Addr, id: u32, now: SimTime) -> bool {
        if origin == own || self.seen.contains_key(&(origin, id)) {
            return false;
        }
        self.seen.insert((origin, id), now);
        true
    }

    /// Forgets every flood `keep` no longer keeps at `now`.
    pub fn forget(&mut self, now: SimTime, keep: Retention) {
        self.seen.retain(|_, t| {
            let age = now.saturating_since(*t);
            match keep {
                Retention::Below(d) => age < d,
                Retention::UpTo(d) => age <= d,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .addr(Addr::manet(3))
            .str("bob");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.addr("e").unwrap(), Addr::manet(3));
        assert_eq!(r.str("f").unwrap(), "bob");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors_with_field_name() {
        let mut r = Reader::new(&[0, 5, b'a']);
        let err = r.str("contact").unwrap_err();
        assert!(err.to_string().contains("contact"));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).str("s").is_err());
    }

    #[test]
    fn entries_round_trip() {
        let entries = vec![b"one".to_vec(), b"".to_vec(), vec![9u8; 100]];
        let mut w = Writer::new();
        write_entries(&mut w, &entries);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_entries(&mut r).unwrap(), entries);
    }

    #[test]
    fn empty_entries_encode_one_byte() {
        let mut w = Writer::new();
        write_entries(&mut w, &[]);
        assert_eq!(w.len(), 1);
    }
}
