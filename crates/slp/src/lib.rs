//! # siphoc-slp
//!
//! Service location for the SIPHoc reproduction:
//!
//! * [`manet`] — the paper's **MANET SLP**: a fully distributed SLP whose
//!   dissemination rides on routing-protocol control messages through the
//!   routing-handler plugin (`siphoc-routing`);
//! * [`standard`] — the RFC 2608 multicast-convergence baseline whose
//!   MANET inefficiency the paper's related work reports;
//! * [`registry`], [`service`], [`msg`] — the shared state and wire
//!   formats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manet;
pub mod msg;
pub mod registry;
pub mod service;
pub mod standard;

/// Trace dissector for SLP traffic (port 427): shows the message kind and
/// a terse summary.
pub fn slp_dissector(port: u16, payload: &[u8]) -> Option<(String, String)> {
    if port != 427 {
        return None;
    }
    let info = match msg::SlpMsg::parse(payload) {
        Ok(msg::SlpMsg::SrvReg {
            service_type,
            key,
            contact,
            ..
        }) => {
            format!("SrvReg {service_type} {key} -> {contact}")
        }
        Ok(msg::SlpMsg::SrvDeReg {
            service_type, key, ..
        }) => format!("SrvDeReg {service_type} {key}"),
        Ok(msg::SlpMsg::SrvAck { xid }) => format!("SrvAck xid={xid}"),
        Ok(msg::SlpMsg::SrvRqst {
            service_type, key, ..
        }) => format!("SrvRqst {service_type} {key}"),
        Ok(msg::SlpMsg::SrvRqstX {
            service_type, key, ..
        }) => format!("SrvRqstX {service_type} {key}"),
        Ok(msg::SlpMsg::SrvRply { entries, .. }) => format!("SrvRply {} entries", entries.len()),
        Ok(msg::SlpMsg::McastRqst {
            service_type,
            key,
            ttl,
            ..
        }) => {
            format!("McastRqst {service_type} {key} ttl={ttl}")
        }
        Err(_) => {
            // Baseline traffic shares the port.
            let head = String::from_utf8_lossy(payload);
            let head = head.lines().next().unwrap_or_default();
            if head.starts_with("BREG") || head.starts_with("PHELLO") {
                head.chars().take(60).collect()
            } else {
                "malformed".to_owned()
            }
        }
    };
    Some(("slp".to_owned(), info))
}
