//! The Gateway Provider.
//!
//! Paper §2: "a Gateway Provider that, if a node has Internet
//! connectivity, makes this information available to other nodes by
//! publishing an SLP gateway service. It also starts a layer two tunnel
//! server ready to accept connections." The tunnel server itself lives in
//! [`crate::tunnel`]; this process owns the advertisement lifecycle.

use siphoc_simnet::net::{ports, SocketAddr};
use siphoc_simnet::process::{Ctx, LocalEvent, Process};
use siphoc_simnet::time::SimDuration;

use siphoc_slp::msg::SlpMsg;
use siphoc_slp::service::service_types;

/// Port the Gateway Provider uses for its SLP client exchanges.
const GW_SLP_PORT: u16 = 4272;

/// Advertised service lifetime.
const ADVERT_LIFETIME_SECS: u32 = 60;
/// Re-advertisement period; shorter than the lifetime, so an advert is
/// refreshed twice before it lapses.
const ADVERT_INTERVAL: SimDuration = SimDuration::from_secs(25);
const _: () = assert!(ADVERT_INTERVAL.as_micros() < ADVERT_LIFETIME_SECS as u64 * 1_000_000);

const TAG_ADVERT: u64 = 1;

/// The Gateway Provider process. Spawn next to a [`crate::tunnel::TunnelServer`]
/// on Internet-connected nodes.
#[derive(Debug, Default)]
pub struct GatewayProvider {
    next_xid: u32,
    adverts_sent: u64,
}

impl GatewayProvider {
    /// Creates a Gateway Provider.
    pub fn new() -> GatewayProvider {
        GatewayProvider::default()
    }

    fn advertise(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.has_wired() {
            // The paper's condition: publish only while the node actually
            // has Internet connectivity.
            return;
        }
        self.next_xid += 1;
        self.adverts_sent += 1;
        let contact = SocketAddr::new(ctx.addr(), ports::TUNNEL);
        let m = SlpMsg::SrvReg {
            xid: self.next_xid,
            service_type: service_types::GATEWAY.to_owned(),
            key: String::new(),
            contact,
            lifetime_secs: ADVERT_LIFETIME_SECS,
        };
        ctx.stats().count("gw.advert", 1);
        ctx.send_local(ports::SLP, GW_SLP_PORT, m.to_wire());
    }
}

impl Process for GatewayProvider {
    fn name(&self) -> &'static str {
        "gateway-provider"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(GW_SLP_PORT);
        self.advertise(ctx);
        ctx.set_timer(ADVERT_INTERVAL, TAG_ADVERT);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TAG_ADVERT {
            self.advertise(ctx);
            ctx.set_timer(ADVERT_INTERVAL, TAG_ADVERT);
        }
    }

    fn on_local_event(&mut self, ctx: &mut Ctx<'_>, ev: &LocalEvent) {
        if matches!(ev, LocalEvent::NodeRestarted) {
            self.advertise(ctx);
            ctx.set_timer(ADVERT_INTERVAL, TAG_ADVERT);
        }
    }
}
