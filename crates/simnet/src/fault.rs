//! Deterministic fault injection: the chaos plan.
//!
//! The paper's headline scenario is an emergency-response MANET where any
//! node may crash, move away or rejoin at any time, yet calls keep working.
//! This module turns that failure model into a reusable, seed-deterministic
//! *chaos plan*: a [`FaultPlan`] is a schedule of topology faults (crashes,
//! restarts, link cuts, partitions) and compromises, plus a set of
//! probabilistic per-link packet faults (duplication, reordering,
//! corruption, blackholing) that [`crate::world::World`] executes alongside
//! the regular event queue. A compromise reaches the node's processes as
//! the typed signal [`LocalEvent::Compromise`], carrying its
//! [`MaliciousKind`] as is.
//!
//! [`LocalEvent::Compromise`]: crate::process::LocalEvent::Compromise
//!
//! Everything is deterministic: the schedule itself is explicit data, the
//! Poisson churn generator draws from a caller-supplied [`SimRng`], and the
//! world applies probabilistic packet faults from its own dedicated fault
//! RNG stream. Two runs with the same seed and the same plan produce
//! identical traces.
//!
//! Every injected fault is visible in [`crate::stats::NodeStats`] under the
//! `fault.` prefix (`fault.crash`, `fault.blackhole`, `fault.corrupt`, …),
//! so experiments can report exactly how much chaos a run absorbed.
//!
//! # Example
//!
//! ```
//! use siphoc_simnet::prelude::*;
//! use siphoc_simnet::fault::{FaultPlan, LinkSelector, PacketFaultKind};
//!
//! let mut world = World::new(WorldConfig::new(7));
//! let a = world.add_node(NodeConfig::manet(0.0, 0.0));
//! let b = world.add_node(NodeConfig::manet(50.0, 0.0));
//!
//! let plan = FaultPlan::new()
//!     .crash_at(SimTime::from_secs(10), b)
//!     .restart_at(SimTime::from_secs(15), b)
//!     .partition_at(SimTime::from_secs(20), vec![a])
//!     .heal_at(SimTime::from_secs(30))
//!     .packet_fault(
//!         LinkSelector::All,
//!         PacketFaultKind::Corrupt,
//!         0.01,
//!         SimTime::ZERO,
//!         SimTime::MAX,
//!     );
//! world.install_fault_plan(plan);
//! world.run_for(SimDuration::from_secs(40));
//! ```

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// What a per-link packet fault does to a matching frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketFaultKind {
    /// Deliver the frame twice (the second copy slightly later), as a
    /// retransmitting or echo-prone link would. Exercises duplicate
    /// suppression in the transaction layer.
    Duplicate,
    /// Add an extra uniform delay in `[0, max_extra]` to the delivery,
    /// letting later frames overtake this one.
    Reorder {
        /// Upper bound of the extra delivery delay.
        max_extra: SimDuration,
    },
    /// Flip a few payload bytes before delivery. Exercises parser
    /// totality and malformed-message counters up the stack.
    Corrupt,
    /// Silently drop the frame after a successful link-layer exchange —
    /// loss the radio's retry logic never sees.
    Blackhole,
}

/// Which transmitter→receiver radio links a packet fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every radio link in the world.
    All,
    /// Both directions between a pair of nodes.
    Pair(NodeId, NodeId),
    /// Frames transmitted by one node, to any receiver.
    From(NodeId),
}

impl LinkSelector {
    /// Whether a frame from `tx` to `rx` matches this selector.
    pub fn matches(&self, tx: NodeId, rx: NodeId) -> bool {
        match *self {
            LinkSelector::All => true,
            LinkSelector::Pair(a, b) => (tx == a && rx == b) || (tx == b && rx == a),
            LinkSelector::From(a) => tx == a,
        }
    }
}

/// A probabilistic packet fault on selected links, active inside a time
/// window. Sampled independently per frame (and, for broadcasts, per
/// receiver) from the world's dedicated fault RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketFault {
    /// Links the fault applies to.
    pub on: LinkSelector,
    /// What happens to an afflicted frame.
    pub kind: PacketFaultKind,
    /// Per-frame probability of the fault firing, clamped to `[0, 1]`.
    pub probability: f64,
    /// Start of the active window (inclusive).
    pub from: SimTime,
    /// End of the active window (exclusive); [`SimTime::MAX`] keeps the
    /// fault active forever.
    pub until: SimTime,
}

impl PacketFault {
    /// Whether the fault is active at `now` for a frame from `tx` to `rx`.
    pub fn applies(&self, now: SimTime, tx: NodeId, rx: NodeId) -> bool {
        self.from <= now && now < self.until && self.on.matches(tx, rx)
    }
}

/// What a compromised node starts doing — the *malicious* fault family.
///
/// Unlike the benign faults above, these do not change world state
/// directly: the world counts the activation (`fault.compromise`) and
/// delivers a [`LocalEvent::Compromise`](crate::process::LocalEvent::Compromise)
/// to the node, and it is the node's (pre-deployed, dormant) adversary
/// processes that act on it.
/// The attacker implementations live in `siphoc-core`'s `adversary`
/// module, next to the wire formats they abuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaliciousKind {
    /// Advertise `service:gateway`, hand out bogus leases and blackhole
    /// (while snooping) every tunneled datagram.
    RogueGateway,
    /// Spoof REGISTERs for a victim AOR and advertise the hijacked
    /// binding so calls route to the attacker.
    AorHijack,
    /// Flood forged SLP adverts (forged origin, inflated sequence
    /// numbers) to poison every on-demand cache in radio range.
    ForgedAdverts,
}

/// One scheduled topology fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Power a node down: its queues, routes, pending traffic and timers
    /// drop (see [`crate::world::World::set_node_up`]).
    NodeCrash(NodeId),
    /// Power a node back up; each of its processes starts again with
    /// [`crate::process::Process::on_start`].
    NodeRestart(NodeId),
    /// Administratively cut the radio link between two nodes (both
    /// directions). The transmitter's retries fail as if out of range.
    LinkDown(NodeId, NodeId),
    /// Restore a previously cut link.
    LinkUp(NodeId, NodeId),
    /// Split the world: every radio link between `island` members and the
    /// rest is cut. Replaces any previous partition.
    Partition(
        /// The island's members.
        Vec<NodeId>,
    ),
    /// Remove the partition and every explicit link cut.
    Heal,
    /// Turn a node malicious: counted under `fault.compromise` and
    /// delivered to the node's processes as
    /// [`LocalEvent::Compromise`](crate::process::LocalEvent::Compromise).
    Compromise(NodeId, MaliciousKind),
}

/// A deterministic schedule of fault events plus per-link packet faults.
///
/// Build one with the chainable constructors, then hand it to
/// [`crate::world::World::install_fault_plan`]. Events execute at their
/// scheduled time in the world's event loop; packet faults are consulted on
/// every radio frame delivery inside their time window.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultAction)>,
    packet_faults: Vec<PacketFault>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules an arbitrary fault action.
    pub fn at(mut self, time: SimTime, action: FaultAction) -> FaultPlan {
        self.events.push((time, action));
        self
    }

    /// Schedules a node crash.
    pub fn crash_at(self, time: SimTime, node: NodeId) -> FaultPlan {
        self.at(time, FaultAction::NodeCrash(node))
    }

    /// Schedules a node restart.
    pub fn restart_at(self, time: SimTime, node: NodeId) -> FaultPlan {
        self.at(time, FaultAction::NodeRestart(node))
    }

    /// Schedules an administrative link cut between two nodes.
    pub fn link_down_at(self, time: SimTime, a: NodeId, b: NodeId) -> FaultPlan {
        self.at(time, FaultAction::LinkDown(a, b))
    }

    /// Schedules the restoration of a cut link.
    pub fn link_up_at(self, time: SimTime, a: NodeId, b: NodeId) -> FaultPlan {
        self.at(time, FaultAction::LinkUp(a, b))
    }

    /// Schedules a partition isolating `island` from every other node.
    pub fn partition_at(self, time: SimTime, island: Vec<NodeId>) -> FaultPlan {
        self.at(time, FaultAction::Partition(island))
    }

    /// Schedules the heal of all partitions and link cuts.
    pub fn heal_at(self, time: SimTime) -> FaultPlan {
        self.at(time, FaultAction::Heal)
    }

    /// Schedules a node compromise of the given malicious kind.
    pub fn compromise_at(self, time: SimTime, node: NodeId, kind: MaliciousKind) -> FaultPlan {
        self.at(time, FaultAction::Compromise(node, kind))
    }

    /// Adds a probabilistic per-link packet fault.
    pub fn packet_fault(
        mut self,
        on: LinkSelector,
        kind: PacketFaultKind,
        probability: f64,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        self.packet_faults.push(PacketFault {
            on,
            kind,
            probability,
            from,
            until,
        });
        self
    }

    /// Generates Poisson churn for `nodes` inside `[from, until)`: each
    /// node alternates exponentially distributed up-times (mean
    /// `mean_up_secs`) and down-times (mean `mean_down_secs`). Every node
    /// is guaranteed to be back up by `until`, so churn windows end with
    /// the full population alive.
    ///
    /// Draws come from the caller's `rng`, so the same seed and stream
    /// reproduce the same churn schedule.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not strictly positive (via
    /// [`SimRng::exp_secs`]).
    pub fn with_poisson_churn(
        mut self,
        nodes: &[NodeId],
        mean_up_secs: f64,
        mean_down_secs: f64,
        from: SimTime,
        until: SimTime,
        rng: &mut SimRng,
    ) -> FaultPlan {
        for &node in nodes {
            let mut t = from + SimDuration::from_secs_f64(rng.exp_secs(mean_up_secs));
            while t < until {
                self.events.push((t, FaultAction::NodeCrash(node)));
                let down = SimDuration::from_secs_f64(rng.exp_secs(mean_down_secs));
                let back = (t + down).min(until);
                self.events.push((back, FaultAction::NodeRestart(node)));
                t = back + SimDuration::from_secs_f64(rng.exp_secs(mean_up_secs));
            }
        }
        self
    }

    /// The scheduled fault events, in insertion order.
    pub fn events(&self) -> &[(SimTime, FaultAction)] {
        &self.events
    }

    /// The configured packet faults.
    pub fn packet_faults(&self) -> &[PacketFault] {
        &self.packet_faults
    }

    /// Total number of scheduled events and packet-fault rules.
    pub fn len(&self) -> usize {
        self.events.len() + self.packet_faults.len()
    }

    /// `true` when the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.packet_faults.is_empty()
    }
}

/// Flips 1–3 payload bytes in place (XOR with a non-zero mask, so the
/// payload always actually changes). No-op on empty payloads.
pub(crate) fn corrupt_payload(payload: &mut [u8], rng: &mut SimRng) {
    if payload.is_empty() {
        return;
    }
    let flips = 1 + (rng.next_u64() % 3);
    for _ in 0..flips {
        let i = rng.range_u64(0, payload.len() as u64) as usize;
        payload[i] ^= (rng.next_u64() % 255 + 1) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_selector_matching() {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        assert!(LinkSelector::All.matches(a, b));
        assert!(LinkSelector::Pair(a, b).matches(a, b));
        assert!(
            LinkSelector::Pair(a, b).matches(b, a),
            "pairs are symmetric"
        );
        assert!(!LinkSelector::Pair(a, b).matches(a, c));
        assert!(LinkSelector::From(a).matches(a, c));
        assert!(!LinkSelector::From(a).matches(c, a));
    }

    #[test]
    fn packet_fault_window_is_half_open() {
        let f = PacketFault {
            on: LinkSelector::All,
            kind: PacketFaultKind::Blackhole,
            probability: 1.0,
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        };
        let (a, b) = (NodeId(0), NodeId(1));
        assert!(!f.applies(SimTime::from_secs(9), a, b));
        assert!(f.applies(SimTime::from_secs(10), a, b));
        assert!(f.applies(SimTime::from_micros(19_999_999), a, b));
        assert!(!f.applies(SimTime::from_secs(20), a, b));
    }

    #[test]
    fn churn_is_deterministic_and_alternates() {
        fn gen(seed: u64) -> Vec<(SimTime, FaultAction)> {
            let mut rng = SimRng::from_seed_and_stream(seed, 1);
            FaultPlan::new()
                .with_poisson_churn(
                    &[NodeId(3), NodeId(4)],
                    10.0,
                    3.0,
                    SimTime::from_secs(5),
                    SimTime::from_secs(120),
                    &mut rng,
                )
                .events()
                .to_vec()
        }
        let a = gen(42);
        assert_eq!(a, gen(42), "same seed, same churn");
        assert_ne!(a, gen(43), "different seed, different churn");
        // Per node: strictly alternating crash/restart, ending up.
        for node in [NodeId(3), NodeId(4)] {
            let seq: Vec<&FaultAction> = a
                .iter()
                .filter(|(_, act)| {
                    matches!(act, FaultAction::NodeCrash(n) | FaultAction::NodeRestart(n) if *n == node)
                })
                .map(|(_, act)| act)
                .collect();
            assert!(!seq.is_empty(), "window long enough to produce churn");
            assert_eq!(seq.len() % 2, 0, "every crash has a restart");
            for pair in seq.chunks(2) {
                assert!(matches!(pair[0], FaultAction::NodeCrash(_)));
                assert!(matches!(pair[1], FaultAction::NodeRestart(_)));
            }
        }
        // Restarts never overshoot the window end.
        for (t, act) in &a {
            if matches!(act, FaultAction::NodeRestart(_)) {
                assert!(*t <= SimTime::from_secs(120));
            }
        }
    }

    #[test]
    fn corrupt_payload_changes_bytes() {
        let mut rng = SimRng::from_seed_and_stream(9, 9);
        let original = vec![0u8; 64];
        let mut payload = original.clone();
        corrupt_payload(&mut payload, &mut rng);
        assert_ne!(payload, original);
        assert_eq!(payload.len(), original.len());
        let mut empty: Vec<u8> = Vec::new();
        corrupt_payload(&mut empty, &mut rng);
        assert!(empty.is_empty());
    }

    #[test]
    fn compromise_schedules_like_any_fault() {
        let plan = FaultPlan::new().compromise_at(
            SimTime::from_secs(9),
            NodeId(2),
            MaliciousKind::RogueGateway,
        );
        assert_eq!(plan.events().len(), 1);
        assert!(matches!(
            plan.events()[0],
            (
                t,
                FaultAction::Compromise(NodeId(2), MaliciousKind::RogueGateway)
            ) if t == SimTime::from_secs(9)
        ));
    }

    #[test]
    fn builder_orders_and_counts() {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(1), NodeId(0))
            .restart_at(SimTime::from_secs(2), NodeId(0))
            .link_down_at(SimTime::from_secs(3), NodeId(0), NodeId(1))
            .link_up_at(SimTime::from_secs(4), NodeId(0), NodeId(1))
            .partition_at(SimTime::from_secs(5), vec![NodeId(0)])
            .heal_at(SimTime::from_secs(6))
            .packet_fault(
                LinkSelector::All,
                PacketFaultKind::Duplicate,
                0.5,
                SimTime::ZERO,
                SimTime::MAX,
            );
        assert_eq!(plan.events().len(), 6);
        assert_eq!(plan.packet_faults().len(), 1);
        assert_eq!(plan.len(), 7);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }
}
