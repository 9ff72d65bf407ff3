//! The actor abstraction: [`Node`] and its interaction context [`Ctx`].

use crate::arena::{Arena, Handle};
use crate::event::Rank;
use crate::metrics::NetStats;
use crate::net::{NetworkConfig, Reachability};
use crate::sim::EngineEvent;
use crate::EventQueue;
use wcc_types::{ByteSize, NodeId, SimDuration, SimTime};

/// Names the timer a [`Ctx::set_timer`] call armed.
///
/// Packs `(owning node + 1, lane sequence)` so ids are unique across nodes
/// while being allocated from per-node counters (no global state) — which
/// makes an id a witness of the lane sequence number its timer took, what
/// the engine-order reference model compares. Timers cannot be cancelled: a
/// node that may lose interest keeps its own deadline and ignores a firing
/// that finds it moved (see `wcc_httpsim`'s proxy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Bits reserved for the per-node sequence (2^40 events per node).
    const SEQ_BITS: u32 = 40;

    pub(crate) fn pack(node: NodeId, seq: u64) -> TimerId {
        debug_assert!(seq < 1 << Self::SEQ_BITS, "per-node sequence overflow");
        TimerId(((node.index() as u64 + 1) << Self::SEQ_BITS) | seq)
    }
}

/// A simulated actor: a pseudo-client, the pseudo-server, the accelerator,
/// the modifier process, the time coordinator…
///
/// Nodes never block; they react to message deliveries and timer firings and
/// emit new messages/timers through the [`Ctx`]. All methods have empty
/// default bodies except [`Node::on_message`], so simple nodes implement
/// only what they need.
///
/// `M` is the workspace-wide message payload type (the HTTP message model in
/// `wcc-proto` for the replay experiments).
///
/// Nodes must be [`Send`]: a batch of replays moves whole simulations —
/// nodes included — onto scoped worker threads. Nodes are plain owned state
/// machines, so this costs nothing in practice.
pub trait Node<M>: Send + 'static {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M>);

    /// Called when a timer armed with [`Ctx::set_timer`] fires. `token` is
    /// the caller-chosen discriminant.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, M>) {
        let _ = (token, ctx);
    }

    /// Called when the fault plan crashes this node. State is *retained*
    /// (the paper's proxies keep their disk cache across a crash); volatile
    /// fields should be cleared here.
    fn on_crash(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Called when the fault plan recovers this node. The paper's recovery
    /// actions (mark every entry questionable, send bulk invalidations) are
    /// implemented by the node in this hook.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }
}

/// The interaction surface a [`Node`] sees while handling an event: the
/// clock, message sending, timers and CPU accounting.
///
/// A `Ctx` borrows the engine internals for the duration of one callback.
pub struct Ctx<'a, M> {
    pub(crate) self_id: NodeId,
    pub(crate) now: SimTime,
    pub(crate) queue: &'a mut EventQueue<Handle>,
    pub(crate) arena: &'a mut Arena<EngineEvent<M>>,
    pub(crate) config: &'a NetworkConfig,
    pub(crate) reach: &'a Reachability,
    pub(crate) stats: &'a mut NetStats,
    pub(crate) seq: &'a mut u64,
    pub(crate) busy_until: &'a mut SimTime,
    pub(crate) busy_accum: &'a mut SimDuration,
}

impl<M> Ctx<'_, M> {
    /// The id of the node being called.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` of `size` bytes to `dst`, returning `true` if the message
    /// actually left this node.
    ///
    /// Delivery is best-effort, mirroring a packet on the wire: the message
    /// is silently dropped if a partition currently severs the link or if
    /// the destination is down *when the message arrives*. Reliability
    /// (TCP-style retry, as the paper uses for invalidations) is built by
    /// the protocols on top, with timers.
    pub fn send(&mut self, dst: NodeId, msg: M, size: ByteSize) -> bool {
        if !self.reach.can_send(self.self_id, dst) {
            self.stats.record_dropped();
            return false;
        }
        let delay = self.config.link(self.self_id, dst).transfer_time(size);
        let at = self.now + delay;
        let rank = self.next_rank();
        let handle = self.arena.alloc(EngineEvent::Deliver {
            src: self.self_id,
            dst,
            msg,
        });
        self.queue.schedule_ranked(at, rank, handle);
        true
    }

    /// Arms a timer that fires on this node after `delay`, carrying `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let rank = self.next_rank();
        let handle = self.arena.alloc(EngineEvent::Timer {
            node: self.self_id,
            token,
        });
        self.queue.schedule_ranked(self.now + delay, rank, handle);
        TimerId::pack(self.self_id, rank.seq)
    }

    /// Allocates the next `(lane, seq)` key on this node's lane.
    fn next_rank(&mut self) -> Rank {
        let rank = Rank::node(self.self_id.index(), *self.seq);
        *self.seq += 1;
        rank
    }

    /// Accounts `amount` of CPU work to this node.
    ///
    /// The node is modelled as a single-core server: while it is busy, later
    /// message deliveries are deferred until the busy period ends (timers
    /// still fire on schedule). The engine parks the deliveries that arrive
    /// meanwhile as one backlog event on this node's lane — each takes the
    /// next lane sequence number, so they are handled in arrival order, one
    /// per busy period, at a cost linear in the backlog. Accumulated busy
    /// time divided by wall time is the node's CPU utilisation — the
    /// simulator's analogue of the paper's `iostat` CPU numbers.
    pub fn consume(&mut self, amount: SimDuration) {
        let start = (*self.busy_until).max(self.now);
        *self.busy_until = start + amount;
        *self.busy_accum += amount;
    }

    /// The instant until which this node is busy with previously consumed
    /// CPU work.
    pub fn busy_until(&self) -> SimTime {
        *self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkConfig, Simulation};

    /// A node that consumes CPU per message and records when each message
    /// was processed.
    struct Worker {
        cost: SimDuration,
        handled_at: Vec<SimTime>,
    }

    impl Node<u32> for Worker {
        fn on_message(&mut self, _from: NodeId, _msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.handled_at.push(ctx.now());
            ctx.consume(self.cost);
        }
    }

    struct Burst {
        dst: Option<NodeId>,
        n: u32,
    }

    impl Node<u32> for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..self.n {
                ctx.send(self.dst.unwrap(), i, ByteSize::from_bytes(10));
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}
    }

    #[test]
    fn busy_node_defers_deliveries() {
        let mut sim = Simulation::new(NetworkConfig::lan());
        let burst = sim.add_node(Burst { dst: None, n: 3 });
        let worker = sim.add_node(Worker {
            cost: SimDuration::from_millis(10),
            handled_at: Vec::new(),
        });
        sim.node_mut::<Burst>(burst).dst = Some(worker);
        sim.run_until_idle();
        let times = &sim.node_ref::<Worker>(worker).handled_at;
        assert_eq!(times.len(), 3);
        // Messages arrive essentially together, but processing is serialised
        // by the 10 ms CPU cost.
        assert!(times[1] >= times[0] + SimDuration::from_millis(10));
        assert!(times[2] >= times[1] + SimDuration::from_millis(10));
        // Busy time accumulated: 30 ms.
        assert_eq!(sim.busy_time(worker), SimDuration::from_millis(30));
    }

    struct TimerNode {
        fired: Vec<u64>,
    }

    impl Node<u32> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer(SimDuration::from_secs(2), 2);
            ctx.set_timer(SimDuration::from_secs(1), 1);
            ctx.set_timer(SimDuration::from_secs(3), 3);
        }
        fn on_message(&mut self, _from: NodeId, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}
        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_, u32>) {
            self.fired.push(token);
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let mut sim = Simulation::new(NetworkConfig::lan());
        let n = sim.add_node(TimerNode { fired: Vec::new() });
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<TimerNode>(n).fired, vec![1, 2, 3]);
    }
}
