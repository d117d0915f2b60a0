//! Offline stand-in for `serde`.
//!
//! The build sandbox has no crates.io registry, so the benchmark package
//! patches `serde` to this crate. `Serialize` and `Deserialize` are marker
//! traits and the derives emit empty impls: every type that derives them
//! in the repository keeps compiling, and nothing can actually be
//! serialized (see the `serde_json` stand-in, whose functions return an
//! error). The benchmark never serializes through serde; it writes its
//! JSON by hand.

/// Marker for types that derive or implement `Serialize`.
pub trait Serialize {}

/// Marker for types that derive or implement `Deserialize`.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
