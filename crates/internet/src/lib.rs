//! # siphoc-internet
//!
//! The simulated Internet side of the reproduction: a static DNS
//! directory, SIP providers (registrar + stateless proxy per domain —
//! the stand-ins for siphoc.ch, netvoip.ch and polyphone.ethz.ch from
//! paper §3.2), and wired caller endpoints reusing the `siphoc-sip`
//! user agent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dns;
pub mod provider;
pub mod relay;
