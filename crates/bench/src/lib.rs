//! # siphoc-bench
//!
//! Shared scaffolding for the experiment binaries that regenerate the
//! paper's tables and figures (`DESIGN.md` §4 maps each experiment id to
//! its binary). Each `exp_*` binary builds deterministic worlds through
//! the helpers here, measures, and prints aligned text tables whose
//! numbers are recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod location;
pub mod measure;
pub mod parallel;
pub mod record;
pub mod topology;

pub use measure::{mean, percentile};
