//! # siphoc-core
//!
//! The SIPHoc middleware — the paper's primary contribution. A node runs
//! five components as independent processes (paper Fig. 1):
//!
//! * any SIP-compatible **VoIP application** (`siphoc-sip`'s user agent),
//! * the **SIPHoc proxy** ([`proxy`]) — standard SIP interface,
//!   MANET-specific behavior,
//! * **MANET SLP** (`siphoc-slp`) — distributed service location via
//!   routing-message piggybacking,
//! * the **Gateway Provider** ([`gateway`]) with its layer-2 tunnel server
//!   ([`tunnel`]),
//! * the **Connection Provider** ([`connection`]) which attaches the node
//!   to the Internet through any discovered gateway.
//!
//! [`nodesetup::deploy`] assembles all of it on a simulated node;
//! [`metrics`] provides the footprint and overhead accounting used by the
//! experiment harness. The related-work location services the evaluation
//! compares against are dissemination modes of `siphoc-slp`'s one SLP
//! daemon, behind the same local API as MANET SLP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod connection;
pub mod gateway;
pub mod metrics;
pub mod nodesetup;
pub mod proxy;
pub mod tunnel;
