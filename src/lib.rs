//! # wireless-adhoc-voip
//!
//! Umbrella crate for the SIPHoc reproduction. Re-exports the full stack;
//! see `README.md` and `DESIGN.md` at the repository root.

#![forbid(unsafe_code)]

pub mod scenario;

pub use siphoc_core as core;

/// The full dissector set for rendering packet traces: routing (AODV,
/// OLSR), SIP, SLP and RTP, in matching order.
pub fn dissectors() -> Vec<simnet::trace::Dissector> {
    let mut d = routing::dissect::dissectors();
    d.push(sip::sip_dissector as simnet::trace::Dissector);
    d.push(slp::slp_dissector as simnet::trace::Dissector);
    d.push(media::rtp_dissector as simnet::trace::Dissector);
    d
}

pub use siphoc_internet as internet;
pub use siphoc_media as media;
pub use siphoc_routing as routing;
pub use siphoc_simnet as simnet;
pub use siphoc_sip as sip;
pub use siphoc_slp as slp;
