//! Node mobility models.
//!
//! A [`Mobility`] is what a node is given, at creation or by
//! `World::set_mobility`, and the world splits it at once: the current
//! [`Leg`] goes into the node's arena entry (`node::HotNode`), from which
//! positions are computed lazily at transmission time, so mobility costs
//! nothing while no packets flow; a waypoint node's parameters and area
//! stay on the `Node` for its next replan. Each `set_mobility` starts a
//! new generation of the node's model, and a replan queued under an
//! earlier one is dropped when due, so between two such calls a node
//! moves continuously, within its speed bound. The random-waypoint model
//! drives experiment E4 (call success under mobility).

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A point in the simulation plane, in meters.
pub type Position = (f64, f64);

/// Euclidean distance between two positions.
pub fn distance(a: Position, b: Position) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    (dx * dx + dy * dy).sqrt()
}

/// The rectangular area nodes move within.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Area {
    /// Width in meters.
    pub width: f64,
    /// Height in meters.
    pub height: f64,
}

impl Area {
    /// Creates an area.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not positive.
    pub fn new(width: f64, height: f64) -> Area {
        assert!(
            width > 0.0 && height > 0.0,
            "area dimensions must be positive"
        );
        Area { width, height }
    }

    /// Samples a uniform position inside the area.
    pub fn sample(&self, rng: &mut SimRng) -> Position {
        (
            rng.range_f64(0.0, self.width),
            rng.range_f64(0.0, self.height),
        )
    }
}

/// Parameters of the random-waypoint model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointParams {
    /// Minimum node speed in m/s (must be > 0 to avoid the well-known
    /// random-waypoint speed-decay artifact).
    pub min_speed: f64,
    /// Maximum node speed in m/s.
    pub max_speed: f64,
    /// Pause at each waypoint.
    pub pause: SimDuration,
}

impl WaypointParams {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_speed <= max_speed`.
    pub fn new(min_speed: f64, max_speed: f64, pause: SimDuration) -> WaypointParams {
        assert!(
            min_speed > 0.0 && min_speed <= max_speed,
            "need 0 < min_speed <= max_speed"
        );
        WaypointParams {
            min_speed,
            max_speed,
            pause,
        }
    }
}

/// How a node moves.
#[derive(Debug, Clone)]
pub enum Mobility {
    /// The node never moves.
    Static {
        /// Fixed position.
        pos: Position,
    },
    /// Random waypoint: pick a destination uniformly in the area, move to it
    /// at a uniform speed, pause, repeat.
    RandomWaypoint {
        /// Model parameters.
        params: WaypointParams,
        /// Movement area.
        area: Area,
        /// Current leg of travel.
        leg: Leg,
    },
}

/// One segment of waypoint travel. Movement resumes, with the next leg,
/// the waypoint model's pause after `arrive`.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    /// Position at `start`.
    pub from: Position,
    /// Waypoint being travelled to.
    pub to: Position,
    /// Instant the leg began.
    pub start: SimTime,
    /// Instant the node reaches `to` (pause excluded).
    pub arrive: SimTime,
}

impl Leg {
    /// The leg of a node that never moves: it arrived at `pos` at time
    /// zero.
    pub(crate) fn parked(pos: Position) -> Leg {
        Leg {
            from: pos,
            to: pos,
            start: SimTime::ZERO,
            arrive: SimTime::ZERO,
        }
    }

    /// Position at `now`, by linear interpolation; `to` from `arrive` on.
    #[inline]
    pub(crate) fn position(&self, now: SimTime) -> Position {
        let Leg {
            from,
            to,
            start,
            arrive,
        } = *self;
        if now >= arrive {
            to
        } else if now <= start {
            from
        } else {
            let total = (arrive - start).as_secs_f64();
            let done = (now - start).as_secs_f64();
            let f = if total > 0.0 { done / total } else { 1.0 };
            (from.0 + (to.0 - from.0) * f, from.1 + (to.1 - from.1) * f)
        }
    }

    /// The leg after this one, from its waypoint, sampled at `now`.
    pub(crate) fn next(
        &self,
        params: WaypointParams,
        area: Area,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Leg {
        sample_leg(self.to, params, area, now, rng)
    }
}

impl Mobility {
    /// A stationary node at `pos`.
    pub fn fixed(x: f64, y: f64) -> Mobility {
        Mobility::Static { pos: (x, y) }
    }

    /// A random-waypoint node starting at `start`, with its first leg
    /// sampled from `rng`.
    pub fn random_waypoint(
        start: Position,
        params: WaypointParams,
        area: Area,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Mobility {
        let leg = sample_leg(start, params, area, now, rng);
        Mobility::RandomWaypoint { params, area, leg }
    }
}

fn sample_leg(
    from: Position,
    params: WaypointParams,
    area: Area,
    now: SimTime,
    rng: &mut SimRng,
) -> Leg {
    let to = area.sample(rng);
    let speed = rng.range_f64(
        params.min_speed,
        params.max_speed.max(params.min_speed + f64::EPSILON),
    );
    let dist = distance(from, to);
    let travel = SimDuration::from_secs_f64(dist / speed);
    Leg {
        from,
        to,
        start: now,
        arrive: now + travel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_node_never_moves() {
        let leg = Leg::parked((3.0, 4.0));
        assert_eq!(leg.position(SimTime::ZERO), (3.0, 4.0));
        assert_eq!(leg.position(SimTime::from_secs(100)), (3.0, 4.0));
    }

    fn first_leg(m: &Mobility) -> Leg {
        match m {
            Mobility::RandomWaypoint { leg, .. } => *leg,
            Mobility::Static { .. } => panic!("expected waypoint mobility"),
        }
    }

    #[test]
    fn waypoint_interpolates_linearly() {
        let mut rng = SimRng::from_seed_and_stream(1, 1);
        let params = WaypointParams::new(1.0, 1.0, SimDuration::ZERO);
        let area = Area::new(100.0, 100.0);
        let leg = first_leg(&Mobility::random_waypoint(
            (0.0, 0.0),
            params,
            area,
            SimTime::ZERO,
            &mut rng,
        ));
        let mid = SimTime::from_micros((leg.arrive.as_micros()) / 2);
        let p = leg.position(mid);
        let expect = ((leg.to.0) / 2.0, (leg.to.1) / 2.0);
        assert!((p.0 - expect.0).abs() < 1e-6);
        assert!((p.1 - expect.1).abs() < 1e-6);
        // After arrival the node stays at the waypoint until replanned.
        assert_eq!(leg.position(leg.arrive + SimDuration::from_secs(5)), leg.to);
    }

    #[test]
    fn replan_starts_from_previous_waypoint() {
        let mut rng = SimRng::from_seed_and_stream(2, 2);
        let params = WaypointParams::new(1.0, 5.0, SimDuration::from_secs(1));
        let area = Area::new(50.0, 50.0);
        let m = Mobility::random_waypoint((0.0, 0.0), params, area, SimTime::ZERO, &mut rng);
        let first = first_leg(&m);
        let resume = first.arrive + params.pause;
        let next = first.next(params, area, resume, &mut rng);
        assert_eq!(next.from, first.to);
        assert_eq!(next.start, resume);
        assert!(next.arrive >= next.start);
    }

    #[test]
    fn waypoints_stay_in_area() {
        let mut rng = SimRng::from_seed_and_stream(3, 3);
        let params = WaypointParams::new(0.5, 2.0, SimDuration::ZERO);
        let area = Area::new(30.0, 20.0);
        let m = Mobility::random_waypoint((10.0, 10.0), params, area, SimTime::ZERO, &mut rng);
        let mut leg = first_leg(&m);
        for _ in 0..50 {
            leg = leg.next(params, area, leg.arrive, &mut rng);
            let (x, y) = leg.position(leg.arrive + SimDuration::from_secs(1000));
            assert!((0.0..=30.0).contains(&x), "x out of area: {x}");
            assert!((0.0..=20.0).contains(&y), "y out of area: {y}");
        }
    }

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(distance((0.0, 0.0), (3.0, 4.0)), 5.0);
    }
}
