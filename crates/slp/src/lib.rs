//! # siphoc-slp
//!
//! Service location for the SIPHoc reproduction:
//!
//! * [`daemon`] — the SLP daemon behind the standard SLP client API on
//!   `127.0.0.1:427`, for all five location services the evaluation
//!   compares: the paper's **MANET SLP** on demand (AODV) and proactive
//!   (OLSR), and the related-work standard SLP (RFC 2608 multicast
//!   convergence), broadcast REGISTER and proactive HELLO;
//! * [`manet`] — MANET SLP's routing half: the handler that piggybacks
//!   entries on routing-protocol control messages (`siphoc-routing`);
//! * [`registry`], [`service`], [`msg`] — the shared state and wire
//!   formats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod manet;
pub mod msg;
pub mod registry;
pub mod service;

use msg::SlpMsg;

/// Trace dissector for SLP traffic (port 427): shows the message kind and
/// a terse summary.
pub fn slp_dissector(port: u16, payload: &[u8]) -> Option<(String, String)> {
    if port != 427 {
        return None;
    }
    let info = match SlpMsg::parse(payload) {
        Ok(SlpMsg::SrvReg {
            service_type,
            key,
            contact,
            ..
        }) => {
            format!("SrvReg {service_type} {key} -> {contact}")
        }
        Ok(SlpMsg::SrvDeReg {
            service_type, key, ..
        }) => format!("SrvDeReg {service_type} {key}"),
        Ok(SlpMsg::SrvAck { xid }) => format!("SrvAck xid={xid}"),
        Ok(SlpMsg::SrvRqst {
            service_type, key, ..
        }) => format!("SrvRqst {service_type} {key}"),
        Ok(SlpMsg::SrvRqstX {
            service_type, key, ..
        }) => format!("SrvRqstX {service_type} {key}"),
        Ok(SlpMsg::SrvRply { entries, .. }) => format!("SrvRply {} entries", entries.len()),
        Ok(SlpMsg::McastRqst {
            service_type,
            key,
            ttl,
            ..
        }) => {
            format!("McastRqst {service_type} {key} ttl={ttl}")
        }
        Ok(SlpMsg::FloodReg {
            origin,
            ttl,
            entries,
            ..
        }) => format!("BREG from {origin} {} entries ttl={ttl}", entries.len()),
        Ok(SlpMsg::Hello { entries }) => format!("PHELLO {} entries", entries.len()),
        Err(_) => "malformed".to_owned(),
    };
    Some(("slp".to_owned(), info))
}
