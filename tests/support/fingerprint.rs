//! A run's fingerprint as its packet trace folds it, and the comparison
//! the differential tests make: on a mismatch it names the first second
//! at which the two runs differ.

use siphoc_simnet::trace::Checkpoint;
use siphoc_simnet::world::World;

/// The packet trace's per-second checkpoints and final digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub checkpoints: Vec<Checkpoint>,
    pub digest: u64,
}

impl Fingerprint {
    pub fn of(w: &World) -> Fingerprint {
        Fingerprint {
            checkpoints: w.trace().checkpoints().to_vec(),
            digest: w.trace().digest(),
        }
    }
}

/// Turns on `w`'s packet trace for the fingerprint alone: the ring keeps
/// no entry.
pub fn start_fingerprint(w: &mut World) {
    w.trace_mut().set_capacity(0);
    w.trace_mut().set_enabled(true);
}

/// Asserts that two runs fingerprint alike. On failure the message names
/// the first checkpoint at which they differ, with both values, or, if
/// every checkpoint both have agrees, the two final digests.
#[track_caller]
pub fn assert_same_run(a: &Fingerprint, b: &Fingerprint, what: &str) {
    let mut pairs = a.checkpoints.iter().zip(&b.checkpoints);
    if let Some((x, y)) = pairs.find(|(x, y)| x != y) {
        panic!(
            "{what}: first differing checkpoint at {}: {:#018x} vs {:#018x}",
            x.at, x.digest, y.digest
        );
    }
    assert!(
        a == b,
        "{what}: the {} and {} checkpoints agree; final digests {:#018x} vs {:#018x}",
        a.checkpoints.len(),
        b.checkpoints.len(),
        a.digest,
        b.digest
    );
}
