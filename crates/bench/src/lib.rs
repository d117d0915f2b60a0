//! # siphoc-bench
//!
//! What the four experiment binaries share. `exp_tables` states and
//! checks the paper's thirteen tables (`DESIGN.md` §4 maps each id to its
//! workload; its world builders live with it under `src/bin/exp_tables/`);
//! `exp_call_load`, `exp_handoff` and `exp_adversarial` are the
//! post-paper harnesses, each with its own `--smoke` canary. All build
//! deterministic worlds, and `EXPERIMENTS.md` records what they print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod measure;
pub mod parallel;
pub mod record;
pub mod topology;

pub use measure::{mean, percentile};
