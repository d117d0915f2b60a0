//! Self-certifying node identities for the adversarial experiments.
//!
//! The SIPHoc testbed trusted every SLP advert and REGISTER it heard. The
//! defense layer (signed adverts, challenge REGISTER auth, gateway
//! attestation) needs a signature primitive, but the simulator must stay
//! dependency-free and deterministic. This module provides a *modeled*
//! signature scheme in the spirit of PKI-less / identity-based SIP
//! authentication (arXiv 1002.1160): a principal's identifier is the hash
//! of its public key, so no certificate authority is needed — possession
//! of the matching secret key is what a signature proves.
//!
//! ## The modeling fiction
//!
//! The "keypair" is 64 bits: `pk = mix64(sk)` where `mix64` is an
//! invertible bit mixer, and `sign(sk, msg) = h64(sk ‖ msg)`. `mix64` is
//! trivially invertible in code, so this scheme has **no computational
//! security whatsoever**. Unforgeability is enforced by construction
//! instead: attacker processes in the simulation are Dolev–Yao
//! adversaries — they may observe, replay, drop and fabricate messages
//! from material they legitimately hold, but no attacker code ever calls
//! [`unmix64`] on a victim's public key. The invariant is auditable by
//! grepping the adversary implementations; see DESIGN.md § threat model.
//!
//! Everything here is a pure function of its inputs: deriving keys,
//! signing and verifying draw no randomness and touch no simulator state,
//! so enabling signatures cannot perturb the RNG streams of runs that
//! never verify anything.

/// FNV-1a's offset basis: the state every fold starts from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice. Stable across platforms and runs.
#[inline]
#[must_use]
pub fn h64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| fnv1a_word(h, u64::from(b)))
}

/// One FNV-1a step taking a whole `u64` as its input unit: [`h64`]
/// takes it once per byte.
#[inline]
#[must_use]
pub(crate) fn fnv1a_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// One step of the packet trace's fold: [`fnv1a_word`], then a rotation.
/// The multiply carries a difference only upwards, so without the
/// rotation a difference confined to bit 63 would stay exactly bit 63
/// and a second one there would cancel it; the rotation brings the top
/// bits down where the next multiply spreads them.
#[inline]
#[must_use]
pub(crate) fn fold_word(h: u64, word: u64) -> u64 {
    fnv1a_word(h, word).rotate_left(29)
}

/// [`fold_word`] over `bytes` read as little-endian words, the last one
/// zero-padded: a multiply per eight bytes where [`h64`] takes one per
/// byte. The padding makes `b"a"` and `b"a\0"` fold alike, so a caller
/// folds the length as well.
#[must_use]
pub(crate) fn fold_words(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = fold_word(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold_word(h, u64::from_le_bytes(last));
    }
    h
}

/// splitmix64 finalizer: an invertible 64-bit bit mixer.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Exact inverse of [`mix64`]. Exists so [`verify`] can be stateless; no
/// adversary code may call this on a key it does not own (the Dolev–Yao
/// constraint documented in the module header).
#[inline]
#[must_use]
pub fn unmix64(mut x: u64) -> u64 {
    x ^= x >> 31;
    x ^= x >> 62;
    x = x.wrapping_mul(0x3196_42b2_d24d_8ec3);
    x ^= x >> 27;
    x ^= x >> 54;
    x = x.wrapping_mul(0x96de_1b17_3f11_9089);
    x ^= x >> 30;
    x ^= x >> 60;
    x
}

fn sig_over(sk: u64, msg: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(8 + msg.len());
    buf.extend_from_slice(&sk.to_le_bytes());
    buf.extend_from_slice(msg);
    h64(&buf)
}

/// A modeled signing keypair. The secret half never leaves the struct;
/// honest code passes [`KeyPair::public`] around and keeps the pair
/// itself local to the signing process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    sk: u64,
}

impl KeyPair {
    /// Derives a keypair from a 64-bit secret.
    #[must_use]
    pub fn from_secret(sk: u64) -> KeyPair {
        KeyPair { sk }
    }

    /// The canonical keypair of the node holding address bits `addr`.
    ///
    /// Deterministic so deployments need no key-distribution step and no
    /// RNG draw: the world seed does not flow in, matching the
    /// self-certifying model where a key is minted once per principal.
    #[must_use]
    pub fn for_addr(addr: u32) -> KeyPair {
        KeyPair {
            sk: mix64(0x51F0_C0DE_0000_0000 | addr as u64),
        }
    }

    /// The canonical keypair of the principal named `name` (an AOR, a
    /// service URL — any stable string identifier). Deterministic for the
    /// same reason as [`KeyPair::for_addr`].
    #[must_use]
    pub fn for_name(name: &str) -> KeyPair {
        KeyPair {
            sk: mix64(0x51F0_1DE0_0000_0000 ^ h64(name.as_bytes())),
        }
    }

    /// The public key.
    #[must_use]
    pub fn public(&self) -> u64 {
        mix64(self.sk)
    }

    /// The self-certifying identity: the hash of the public key. This is
    /// what gets pinned — two keys collide only if their hashes do.
    #[must_use]
    pub fn identity(&self) -> u64 {
        identity_of(self.public())
    }

    /// Signs a message.
    #[must_use]
    pub fn sign(&self, msg: &[u8]) -> u64 {
        sig_over(self.sk, msg)
    }
}

/// Verifies `sig` over `msg` under `pk`. Stateless and deterministic.
#[must_use]
pub fn verify(pk: u64, msg: &[u8], sig: u64) -> bool {
    sig_over(unmix64(pk), msg) == sig
}

/// The self-certifying identity derived from a public key.
#[must_use]
pub fn identity_of(pk: u64) -> u64 {
    h64(&pk.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_round_trips() {
        for x in [0u64, 1, 42, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(unmix64(mix64(x)), x);
            assert_eq!(mix64(unmix64(x)), x);
        }
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::for_addr(0x0a00_0001);
        let sig = kp.sign(b"hello");
        assert!(verify(kp.public(), b"hello", sig));
        assert!(!verify(kp.public(), b"hellO", sig));
        assert!(!verify(kp.public(), b"hello", sig ^ 1));
    }

    #[test]
    fn different_principals_cannot_cross_verify() {
        let a = KeyPair::for_addr(1);
        let b = KeyPair::for_addr(2);
        assert_ne!(a.public(), b.public());
        assert_ne!(a.identity(), b.identity());
        let sig = a.sign(b"msg");
        assert!(!verify(b.public(), b"msg", sig));
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(KeyPair::for_addr(7), KeyPair::for_addr(7));
        assert_eq!(
            KeyPair::for_addr(7).sign(b"x"),
            KeyPair::for_addr(7).sign(b"x")
        );
    }
}
