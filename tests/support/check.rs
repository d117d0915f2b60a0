//! A seeded property driver, and the generators the properties draw from.
//!
//! `check(name, cases, |rng| …)` runs a property once per case, each case
//! on its own [`SimRng`] stream whose seed is a function of the property's
//! name and the case index alone. The same tree therefore runs the same
//! cases every time, on every machine. A failing case prints the property's
//! name, the case index and the seed; `replay(seed, |rng| …)` runs that
//! one case again. There is no shrinking: the properties here are trace
//! equalities and invariants, so a replayable seed is the useful report.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use siphoc_simnet::ident::h64;
use siphoc_simnet::rng::SimRng;

/// Runs `property` over `cases` seeded cases, failing on the first case
/// that panics.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut SimRng)) {
    // FNV-1a of the name: each property draws its own cases.
    let base = h64(name.as_bytes());
    for case in 0..cases {
        let seed = base.wrapping_add(u64::from(case));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| replay(seed, &mut property))) {
            eprintln!(
                "property `{name}` failed at case {case} of {cases}, seed {seed:#018x}; \
                 `replay({seed:#018x}, …)` runs that case alone"
            );
            resume_unwind(panic);
        }
    }
}

/// Runs `property` once, on the case `check` reported with `seed`.
pub fn replay(seed: u64, property: impl FnOnce(&mut SimRng)) {
    property(&mut SimRng::from_seed_and_stream(seed, 0));
}

/// A uniform draw from `range`.
pub fn usize_in(rng: &mut SimRng, range: Range<usize>) -> usize {
    rng.range_u64(range.start as u64, range.end as u64) as usize
}

/// `Some` of a draw half the time.
pub fn maybe<T>(rng: &mut SimRng, draw: impl FnOnce(&mut SimRng) -> T) -> Option<T> {
    if rng.chance(0.5) {
        Some(draw(rng))
    } else {
        None
    }
}

/// A vector of `len` draws, `len` uniform in the range.
pub fn vec_of<T>(
    rng: &mut SimRng,
    len: Range<usize>,
    mut draw: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let n = usize_in(rng, len);
    (0..n).map(|_| draw(rng)).collect()
}

/// Arbitrary bytes, the length uniform in the range.
pub fn bytes(rng: &mut SimRng, len: Range<usize>) -> Vec<u8> {
    vec_of(rng, len, |rng| rng.next_u64() as u8)
}

/// A string of characters from `class`, written as inside a regex
/// bracket (`"a-z0-9._-"`: a `-` between two characters is a range,
/// anywhere else it is itself), the length uniform in the range.
pub fn string(rng: &mut SimRng, class: &str, len: Range<usize>) -> String {
    let spec: Vec<char> = class.chars().collect();
    let mut pool = Vec::new();
    let mut i = 0;
    while i < spec.len() {
        if i + 2 < spec.len() && spec[i + 1] == '-' {
            pool.extend(spec[i]..=spec[i + 2]);
            i += 3;
        } else {
            pool.push(spec[i]);
            i += 1;
        }
    }
    vec_of(rng, len, |rng| pool[usize_in(rng, 0..pool.len())])
        .into_iter()
        .collect()
}

/// `bytes` with 1–7 of them XORed with a non-zero mask: the near-valid
/// input a `Corrupt` fault delivers.
pub fn mutate(rng: &mut SimRng, mut bytes: Vec<u8>) -> Vec<u8> {
    if !bytes.is_empty() {
        for _ in 0..usize_in(rng, 1..8) {
            let i = usize_in(rng, 0..bytes.len());
            bytes[i] ^= rng.range_u64(1, 256) as u8;
        }
    }
    bytes
}
