//! # siphoc-routing
//!
//! MANET routing protocols for the SIPHoc reproduction: AODV (RFC 3561
//! subset) and OLSR (RFC 3626 subset), plus the **routing handler** plugin
//! interface through which MANET SLP piggybacks service information onto
//! routing control messages — the paper's core mechanism (see `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aodv;
pub mod dissect;
pub mod handler;
pub mod olsr;
pub mod wire;
