//! Declarative failure schedules.
//!
//! The paper's §4 ("Handling Failures") identifies three scenarios:
//! a proxy crash that misses invalidations, a server-site crash, and a
//! network partition between server and client. A [`FaultPlan`] is a
//! reusable description of such a schedule that can be applied to any
//! [`Simulation`] before it runs.

use crate::Simulation;
use wcc_types::{NodeId, SimTime};

/// One scheduled fault action inside a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEntry {
    /// Crash `node` at `at` (messages to it are lost while down).
    Crash {
        /// The node that crashes.
        node: NodeId,
        /// When the crash happens.
        at: SimTime,
    },
    /// Recover `node` at `at`.
    Recover {
        /// The node that recovers.
        node: NodeId,
        /// When the recovery happens.
        at: SimTime,
    },
    /// Bidirectional partition between `a` and `b` over `[from, to)`.
    Partition {
        /// One side of the partition.
        a: NodeId,
        /// The other side.
        b: NodeId,
        /// When the partition starts.
        from: SimTime,
        /// When it heals.
        to: SimTime,
    },
}

/// A declarative schedule of crashes, recoveries and partitions.
///
/// # Examples
///
/// ```
/// use wcc_simnet::{FaultPlan, Simulation, NetworkConfig};
/// use wcc_types::{NodeId, SimTime};
///
/// let plan = FaultPlan::new()
///     .crash(NodeId::new(1), SimTime::from_secs(100))
///     .recover(NodeId::new(1), SimTime::from_secs(200))
///     .partition(
///         NodeId::new(0),
///         NodeId::new(2),
///         SimTime::from_secs(50),
///         SimTime::from_secs(80),
///     );
/// assert_eq!(plan.len(), 3);
///
/// let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
/// # struct N; impl wcc_simnet::Node<u32> for N {
/// #   fn on_message(&mut self, _f: wcc_types::NodeId, _m: u32, _c: &mut wcc_simnet::Ctx<'_, u32>) {}
/// # }
/// # for _ in 0..3 { sim.add_node(N); }
/// plan.apply(&mut sim);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a node crash at `at`.
    #[must_use]
    pub fn crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.faults.push(FaultEntry::Crash { node, at });
        self
    }

    /// Adds a node recovery at `at`.
    #[must_use]
    pub fn recover(mut self, node: NodeId, at: SimTime) -> Self {
        self.faults.push(FaultEntry::Recover { node, at });
        self
    }

    /// Adds a crash at `at` followed by recovery at `until`.
    #[must_use]
    pub fn outage(mut self, node: NodeId, at: SimTime, until: SimTime) -> Self {
        self.faults.push(FaultEntry::Crash { node, at });
        self.faults.push(FaultEntry::Recover { node, at: until });
        self
    }

    /// Adds a bidirectional partition between `a` and `b` over `[from, to)`.
    #[must_use]
    pub fn partition(mut self, a: NodeId, b: NodeId, from: SimTime, to: SimTime) -> Self {
        self.faults.push(FaultEntry::Partition { a, b, from, to });
        self
    }

    /// The number of scheduled fault actions.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedules every fault onto `sim`.
    pub fn apply<M: 'static>(&self, sim: &mut Simulation<M>) {
        for fault in &self.faults {
            match *fault {
                FaultEntry::Crash { node, at } => sim.schedule_crash(node, at),
                FaultEntry::Recover { node, at } => sim.schedule_recover(node, at),
                FaultEntry::Partition { a, b, from, to } => sim.schedule_partition(a, b, from, to),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, NetworkConfig, Node};
    use wcc_types::ByteSize;

    struct Pinger {
        peer: Option<NodeId>,
        acked: u32,
    }

    impl Node<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            // Ping once a second for 5 seconds.
            for s in 1..=5 {
                ctx.set_timer(wcc_types::SimDuration::from_secs(s), s);
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.peer.unwrap(), 0, ByteSize::from_bytes(10));
        }
        fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Ctx<'_, u32>) {
            self.acked += 1;
        }
    }

    struct Acker;
    impl Node<u32> for Acker {
        fn on_message(&mut self, from: NodeId, _m: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.send(from, 1, ByteSize::from_bytes(10));
        }
    }

    #[test]
    fn outage_drops_only_pings_during_downtime() {
        let mut sim = Simulation::new(NetworkConfig::lan());
        let pinger = sim.add_node(Pinger {
            peer: None,
            acked: 0,
        });
        let acker = sim.add_node(Acker);
        sim.node_mut::<Pinger>(pinger).peer = Some(acker);
        // Acker down for seconds [1.5, 3.5): pings at t=2 and t=3 are lost.
        FaultPlan::new()
            .outage(
                acker,
                SimTime::from_millis(1_500),
                SimTime::from_millis(3_500),
            )
            .apply(&mut sim);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Pinger>(pinger).acked, 3);
        assert_eq!(sim.net_stats().dropped, 2);
    }

    #[test]
    fn partition_plan_blocks_both_directions() {
        let mut sim = Simulation::new(NetworkConfig::lan());
        let pinger = sim.add_node(Pinger {
            peer: None,
            acked: 0,
        });
        let acker = sim.add_node(Acker);
        sim.node_mut::<Pinger>(pinger).peer = Some(acker);
        FaultPlan::new()
            .partition(
                pinger,
                acker,
                SimTime::from_millis(2_500),
                SimTime::from_millis(4_500),
            )
            .apply(&mut sim);
        sim.run_until_idle();
        // Pings at t=3 and t=4 blocked at send time.
        assert_eq!(sim.node_ref::<Pinger>(pinger).acked, 3);
    }

    #[test]
    fn builder_accumulates() {
        let plan = FaultPlan::new()
            .crash(NodeId::new(0), SimTime::ZERO)
            .recover(NodeId::new(0), SimTime::from_secs(1));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }
}
