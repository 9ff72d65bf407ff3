//! The simulation engine: owns the nodes, the clock and the event queue.

use crate::arena::{Arena, ArenaStats, Handle};
use crate::event::Rank;
use crate::metrics::NetStats;
use crate::net::{NetworkConfig, Reachability};
use crate::node::{Ctx, Node};
use crate::EventQueue;
use std::any::Any;
use std::collections::VecDeque;
use wcc_types::{NodeId, SimDuration, SimTime};

/// Internal engine events.
#[derive(Debug)]
pub(crate) enum EngineEvent<M> {
    /// Deliver `msg` from `src` to `dst`.
    Deliver {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Payload.
        msg: M,
    },
    /// A busy node's parked backlog: `msgs[i]` is the `(src, msg)` delivery
    /// deferred under lane sequence `seq + i`, where `seq` is the sequence in
    /// this event's own key. One event stands for `msgs.len()` *consecutive*
    /// keys of `dst`'s lane at one instant; no other key can sort between
    /// two of them, so handling the messages front to back in one pop is the
    /// order a queue holding them one by one would produce. A lone deferred
    /// delivery waits as its own `Deliver` event; its slot turns into a
    /// `Deferred` run when a second delivery joins it.
    Deferred {
        /// The busy receiver.
        dst: NodeId,
        /// Deferred deliveries, oldest first. Never empty while parked.
        msgs: VecDeque<(NodeId, M)>,
    },
    /// Fire a timer with `token` on `node`.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Caller-chosen discriminant.
        token: u64,
    },
    /// Apply a fault-plan action.
    Fault(FaultAction),
}

impl<M> EngineEvent<M> {
    /// The deliveries parked in this slot, a delivery or a run: a lone
    /// `Deliver` becomes a `Deferred` run of one in place, its deque taken
    /// from `spare`.
    fn run_mut(&mut self, spare: &mut Vec<VecDeque<(NodeId, M)>>) -> &mut VecDeque<(NodeId, M)> {
        if let EngineEvent::Deliver { dst, .. } = *self {
            let msgs = spare.pop().unwrap_or_default();
            let EngineEvent::Deliver { src, msg, .. } =
                std::mem::replace(self, EngineEvent::Deferred { dst, msgs })
            else {
                unreachable!("matched a Deliver event");
            };
            self.run_mut(spare).push_back((src, msg));
        }
        match self {
            EngineEvent::Deferred { msgs, .. } => msgs,
            _ => unreachable!("a parked slot holds a delivery or a Deferred run"),
        }
    }
}

/// A scheduled change to the failure state of the network or a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    Crash(NodeId),
    Recover(NodeId),
    Sever(NodeId, NodeId),
    Heal(NodeId, NodeId),
}

/// Object-safe shim that lets the engine downcast nodes back to their
/// concrete types for inspection in tests and reports.
trait AnyNode<M>: Node<M> {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M, T: Node<M> + Any> AnyNode<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The newest run parked for a node (a lone [`EngineEvent::Deliver`] or an
/// [`EngineEvent::Deferred`]): the one a further deferral extends when it
/// lands on the same instant with the next consecutive sequence number.
#[derive(Debug, Clone, Copy)]
struct OpenRun {
    handle: Handle,
    at: SimTime,
    next_seq: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct NodeState {
    busy_until: SimTime,
    busy_accum: SimDuration,
    /// The node's lane sequence counter: every send and timer of this node
    /// consumes one value and every engine-side busy deferral *to* it
    /// consumes one per deferred message (a parked run of `k` messages holds
    /// `k` consecutive values), making each event's `(time, lane, seq)` key
    /// a pure function of the node's own history.
    seq: u64,
    /// The newest run parked for this node. Once the run's instant is
    /// reached its handle may be stale, but never read again: a deferral
    /// from then on lands after `now`, so it cannot match the run's `at`.
    run: Option<OpenRun>,
}

/// Busy-deferral counters, the engine's vitals beside [`ArenaStats`]. Like
/// those, a side accessor and never part of a `Debug`-compared report: they
/// describe how the engine ran the replay, not what the replay did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeferStats {
    /// Runs parked: a delivery re-keyed to wait alone, or a backlog re-parked
    /// after one message was handled (it counts again). A run lives in the
    /// arena slot of the event that popped, never in one of its own.
    pub runs: u64,
    /// Deliveries that found their node busy.
    pub messages: u64,
    /// The most messages one run event ever held.
    pub longest_run: u64,
}

/// A deterministic discrete-event simulation over message type `M`.
///
/// Construction order fixes [`NodeId`]s: the first [`Simulation::add_node`]
/// gets `NodeId(0)`, and so on. See the crate-level docs for a full example.
pub struct Simulation<M> {
    nodes: Vec<Option<Box<dyn AnyNode<M>>>>,
    states: Vec<NodeState>,
    /// The queue holds [`Handle`]s into `arena`, so ring-bucket moves shuffle
    /// three words instead of full event payloads.
    queue: EventQueue<Handle>,
    /// In-flight event payloads, slots recycled generationally (see
    /// [`crate::arena`]).
    arena: Arena<EngineEvent<M>>,
    /// Emptied run deques, reused by the next run so steady-state deferral
    /// keeps its buffers.
    spare_runs: Vec<VecDeque<(NodeId, M)>>,
    defer_stats: DeferStats,
    config: NetworkConfig,
    reach: Reachability,
    stats: NetStats,
    now: SimTime,
    started: bool,
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation over the given network.
    pub fn new(config: NetworkConfig) -> Self {
        Simulation {
            // Construction-time; nodes are added before the run starts.
            nodes: Vec::new(),  // xtask-lint: allow(hot-loop-alloc)
            states: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            queue: EventQueue::new(),
            arena: Arena::new(),
            // Construction-time; fills with emptied run deques and stays.
            spare_runs: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            defer_stats: DeferStats::default(),
            config,
            reach: Reachability::default(),
            stats: NetStats::default(),
            now: SimTime::ZERO,
            started: false,
        }
    }

    /// Registers a node, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started running.
    pub fn add_node<N: Node<M>>(&mut self, node: N) -> NodeId {
        assert!(
            !self.started,
            "cannot add nodes after the simulation started"
        );
        let id = NodeId::new(self.nodes.len() as u32);
        // One box per node at wiring time, never during dispatch.
        self.nodes.push(Some(Box::new(node))); // xtask-lint: allow(hot-loop-alloc)
        self.states.push(NodeState::default());
        id
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's network statistics: the messages it dropped.
    pub fn net_stats(&self) -> &NetStats {
        &self.stats
    }

    /// Total CPU time consumed by `node` via [`Ctx::consume`].
    pub fn busy_time(&self, node: NodeId) -> SimDuration {
        self.states[node.as_usize()].busy_accum
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different type or mid-callback.
    pub fn node_ref<N: Node<M>>(&self, id: NodeId) -> &N {
        self.nodes[id.as_usize()]
            .as_ref()
            .expect("node is mid-callback")
            .as_any()
            .downcast_ref()
            .expect("node type mismatch")
    }

    /// Mutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different type or mid-callback.
    pub fn node_mut<N: Node<M>>(&mut self, id: NodeId) -> &mut N {
        self.nodes[id.as_usize()]
            .as_mut()
            .expect("node is mid-callback")
            .as_any_mut()
            .downcast_mut()
            .expect("node type mismatch")
    }

    /// Schedules `event` on the external lane, allocating its payload in the
    /// arena.
    fn schedule_external(&mut self, at: SimTime, event: EngineEvent<M>) {
        let handle = self.arena.alloc(event);
        self.queue.schedule(at, handle);
    }

    /// The event arena's allocation counters (recycle rate, peak depth).
    /// A side accessor, not a report field.
    pub fn alloc_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// The busy-deferral counters (runs parked, deliveries deferred, longest
    /// run). A side accessor like [`Simulation::alloc_stats`].
    pub fn defer_stats(&self) -> DeferStats {
        self.defer_stats
    }

    /// Events that took the queue's overflow heap (scheduled at least the
    /// ring's 16 384 µs ahead). A side accessor like [`Simulation::alloc_stats`].
    pub fn overflow_inserts(&self) -> u64 {
        self.queue.overflow_inserts()
    }

    /// Schedules `node` to crash at `at`: it loses all messages and timers
    /// until recovered.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        self.schedule_external(at, EngineEvent::Fault(FaultAction::Crash(node)));
    }

    /// Schedules `node` to recover at `at` (its [`Node::on_recover`] hook
    /// runs then).
    pub fn schedule_recover(&mut self, node: NodeId, at: SimTime) {
        self.schedule_external(at, EngineEvent::Fault(FaultAction::Recover(node)));
    }

    /// Schedules a bidirectional partition between `a` and `b` over
    /// `[from, to)`.
    pub fn schedule_partition(&mut self, a: NodeId, b: NodeId, from: SimTime, to: SimTime) {
        self.schedule_external(from, EngineEvent::Fault(FaultAction::Sever(a, b)));
        self.schedule_external(to, EngineEvent::Fault(FaultAction::Heal(a, b)));
    }

    /// Runs every node's [`Node::on_start`] hook (once).
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.with_node(NodeId::new(i as u32), |node, ctx| node.on_start(ctx));
        }
    }

    /// Runs until the event queue is empty. Returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.run_until(SimTime::NEVER)
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline`; the clock then rests at `min(deadline, last event time)`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.start();
        while let Some((at, handle)) = self.queue.pop_bounded(deadline) {
            debug_assert!(at >= self.now, "time moved backwards");
            self.now = at;
            self.dispatch(handle);
        }
        if deadline != SimTime::NEVER && deadline > self.now {
            self.now = deadline;
        }
        self.now
    }

    /// Runs the event in `handle`'s slot. A delivery to a busy, live node is
    /// not taken out: it waits in its slot (see [`Simulation::defer`]).
    fn dispatch(&mut self, handle: Handle) {
        match *self.arena.get(handle) {
            EngineEvent::Deliver { dst, .. }
                if !self.reach.is_crashed(dst)
                    && self.states[dst.as_usize()].busy_until > self.now =>
            {
                self.defer_stats.messages += 1;
                self.defer(dst, handle, 1);
                return;
            }
            EngineEvent::Deferred { dst, .. } => {
                self.wake_run(dst, handle);
                return;
            }
            _ => {}
        }
        match self.arena.take(handle) {
            EngineEvent::Deliver { src, dst, msg } => {
                if self.reach.is_crashed(dst) {
                    self.stats.record_dropped();
                    return;
                }
                self.with_node(dst, |node, ctx| node.on_message(src, msg, ctx));
            }
            EngineEvent::Deferred { .. } => unreachable!("runs wake in their slot"),
            EngineEvent::Timer { node, token } => {
                if !self.reach.is_crashed(node) {
                    self.with_node(node, |n, ctx| n.on_timer(token, ctx));
                }
            }
            EngineEvent::Fault(action) => match action {
                FaultAction::Crash(n) => {
                    self.reach.crash(n);
                    let now = self.now;
                    self.nodes[n.as_usize()]
                        .as_mut()
                        .expect("node is mid-callback")
                        .on_crash(now);
                }
                FaultAction::Recover(n) => {
                    self.reach.recover(n);
                    self.with_node(n, |node, ctx| node.on_recover(ctx));
                }
                FaultAction::Sever(a, b) => self.reach.sever(a, b),
                FaultAction::Heal(a, b) => self.reach.heal(a, b),
            },
        }
    }

    /// Hands the run parked in `handle`'s slot to `dst` front to back, until
    /// `dst` is busy again: the rest then waits in the same slot, as one
    /// event. A crashed `dst` drops the whole run.
    fn wake_run(&mut self, dst: NodeId, handle: Handle) {
        let crashed = self.reach.is_crashed(dst);
        loop {
            let EngineEvent::Deferred { msgs, .. } = self.arena.get_mut(handle) else {
                unreachable!("a run's slot holds a Deferred event");
            };
            if crashed {
                for _ in msgs.drain(..) {
                    self.stats.record_dropped();
                }
            } else if !msgs.is_empty() && self.states[dst.as_usize()].busy_until > self.now {
                let len = msgs.len();
                self.defer(dst, handle, len);
                return;
            }
            let Some((src, msg)) = msgs.pop_front() else {
                break;
            };
            self.with_node(dst, |node, ctx| node.on_message(src, msg, ctx));
        }
        let EngineEvent::Deferred { msgs, .. } = self.arena.take(handle) else {
            unreachable!("a run's slot holds a Deferred event");
        };
        self.spare_runs.push(msgs);
    }

    /// Parks the `len` deliveries in `handle`'s slot (a lone `Deliver`, or a
    /// `Deferred` run oldest first) until busy `dst` is free, on `dst`'s own
    /// lane so its deferred deliveries stay FIFO: delivery `i` takes lane
    /// sequence `seq + i`. If `dst`'s newest run waits for the same instant
    /// and ends at `seq - 1` the deliveries join it — their keys are the ones
    /// they would have had as events of their own — and the slot is freed;
    /// otherwise the slot is re-keyed to `(busy_until, dst's lane, seq)` and
    /// becomes the newest run.
    fn defer(&mut self, dst: NodeId, handle: Handle, len: usize) {
        let state = &mut self.states[dst.as_usize()];
        let at = state.busy_until;
        let seq = state.seq;
        state.seq += len as u64;
        let run_len = match &mut state.run {
            Some(run) if run.at == at && run.next_seq == seq => {
                run.next_seq = state.seq;
                let joining = self.arena.take(handle);
                let parked = self.arena.get_mut(run.handle).run_mut(&mut self.spare_runs);
                match joining {
                    EngineEvent::Deliver { src, msg, .. } => parked.push_back((src, msg)),
                    EngineEvent::Deferred { mut msgs, .. } => {
                        parked.append(&mut msgs);
                        self.spare_runs.push(msgs);
                    }
                    _ => unreachable!("only deliveries are deferred"),
                }
                parked.len()
            }
            _ => {
                self.queue
                    .schedule_ranked(at, Rank::node(dst.index(), seq), handle);
                state.run = Some(OpenRun {
                    handle,
                    at,
                    next_seq: state.seq,
                });
                self.defer_stats.runs += 1;
                len
            }
        };
        self.defer_stats.longest_run = self.defer_stats.longest_run.max(run_len as u64);
    }

    /// Temporarily removes `id`'s node, builds a [`Ctx`] over the rest of the
    /// engine, and runs `f`.
    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn AnyNode<M>, &mut Ctx<'_, M>)) {
        let mut node = self.nodes[id.as_usize()]
            .take()
            .expect("reentrant node callback");
        let state = &mut self.states[id.as_usize()];
        let mut ctx = Ctx {
            self_id: id,
            now: self.now,
            queue: &mut self.queue,
            arena: &mut self.arena,
            config: &self.config,
            reach: &self.reach,
            stats: &mut self.stats,
            seq: &mut state.seq,
            busy_until: &mut state.busy_until,
            busy_accum: &mut state.busy_accum,
        };
        f(node.as_mut(), &mut ctx);
        self.nodes[id.as_usize()] = Some(node);
    }
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliveries, timers and faults pending — a parked run counts once
        // per message, so the figure does not depend on how backlogs happen
        // to be split into run events.
        let parked_extra: usize = self
            .arena
            .values()
            .map(|event| match event {
                EngineEvent::Deferred { msgs, .. } => msgs.len() - 1,
                _ => 0,
            })
            .sum();
        f.debug_struct("Simulation")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("pending_events", &(self.queue.len() + parked_extra))
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_types::ByteSize;

    impl<M: 'static> Simulation<M> {
        /// Injects a message into `dst` "from the outside" (source shows as
        /// `dst` itself).
        fn inject(&mut self, dst: NodeId, msg: M, at: SimTime) {
            self.schedule_external(at, EngineEvent::Deliver { src: dst, dst, msg });
        }
    }

    /// Echoes every message back to its sender.
    struct Echo {
        seen: u32,
    }

    impl Node<u32> for Echo {
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen += 1;
            if ctx.id() != from {
                // don't echo injected self-messages forever
                ctx.send(from, msg, ByteSize::from_bytes(64));
            }
        }
    }

    /// Sends `count` messages at start, counts echoes, records RTTs.
    struct Caller {
        peer: Option<NodeId>,
        count: u32,
        sent_at: SimTime,
        echoes: u32,
        last_rtt: SimDuration,
    }

    impl Node<u32> for Caller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.sent_at = ctx.now();
            for i in 0..self.count {
                ctx.send(self.peer.unwrap(), i, ByteSize::from_bytes(64));
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.echoes += 1;
            self.last_rtt = ctx.now().saturating_since(self.sent_at);
        }
    }

    fn pair(count: u32) -> (Simulation<u32>, NodeId, NodeId) {
        let mut sim = Simulation::new(NetworkConfig::lan());
        let caller = sim.add_node(Caller {
            peer: None,
            count,
            sent_at: SimTime::ZERO,
            echoes: 0,
            last_rtt: SimDuration::ZERO,
        });
        let echo = sim.add_node(Echo { seen: 0 });
        sim.node_mut::<Caller>(caller).peer = Some(echo);
        (sim, caller, echo)
    }

    #[test]
    fn round_trip_counts_and_rtt() {
        let (mut sim, caller, echo) = pair(5);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Caller>(caller).echoes, 5);
        assert_eq!(sim.node_ref::<Echo>(echo).seen, 5);
        // All 10 messages on the wire arrived.
        assert_eq!(sim.net_stats().dropped, 0);
        // RTT at least two propagation latencies.
        assert!(sim.node_ref::<Caller>(caller).last_rtt >= SimDuration::from_micros(600));
    }

    #[test]
    fn crashed_destination_drops_messages() {
        let (mut sim, caller, echo) = pair(3);
        sim.schedule_crash(echo, SimTime::ZERO);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Caller>(caller).echoes, 0);
        assert_eq!(sim.node_ref::<Echo>(echo).seen, 0);
        assert_eq!(sim.net_stats().dropped, 3);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let (mut sim, caller, echo) = pair(2);
        // Partition only during the initial send window; heal afterwards and
        // re-inject via a fresh send from the caller through a timer.
        sim.schedule_partition(caller, echo, SimTime::ZERO, SimTime::from_secs(1));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.node_ref::<Caller>(caller).echoes, 0);
        assert_eq!(sim.net_stats().dropped, 2);
    }

    #[test]
    fn recovery_hook_runs() {
        struct Flaky {
            crashed: bool,
            recovered: bool,
        }
        impl Node<u32> for Flaky {
            fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Ctx<'_, u32>) {}
            fn on_crash(&mut self, _now: SimTime) {
                self.crashed = true;
            }
            fn on_recover(&mut self, _ctx: &mut Ctx<'_, u32>) {
                self.recovered = true;
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
        let n = sim.add_node(Flaky {
            crashed: false,
            recovered: false,
        });
        sim.schedule_crash(n, SimTime::from_secs(1));
        sim.schedule_recover(n, SimTime::from_secs(2));
        sim.run_until_idle();
        let node = sim.node_ref::<Flaky>(n);
        assert!(node.crashed);
        assert!(node.recovered);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
        let _ = sim.add_node(Echo { seen: 0 });
        let end = sim.run_until(SimTime::from_secs(10));
        assert_eq!(end, SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn injected_message_arrives() {
        let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
        let echo = sim.add_node(Echo { seen: 0 });
        sim.inject(echo, 42, SimTime::from_secs(1));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Echo>(echo).seen, 1);
    }

    #[test]
    fn busy_time_counts_consumed_cpu() {
        struct Burner;
        impl Node<u32> for Burner {
            fn on_message(&mut self, _f: NodeId, _m: u32, ctx: &mut Ctx<'_, u32>) {
                ctx.consume(SimDuration::from_secs(1));
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
        let n = sim.add_node(Burner);
        sim.inject(n, 0, SimTime::from_secs(1));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(sim.busy_time(n), SimDuration::from_secs(1));
    }

    /// Sends `n` messages to `dst` at start; they arrive in one instant.
    struct Flood {
        dst: NodeId,
        n: u32,
    }

    impl Node<u32> for Flood {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..self.n {
                ctx.send(self.dst, i, ByteSize::from_bytes(64));
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Ctx<'_, u32>) {}
    }

    /// Spends 10 µs per message and records the order it saw them in.
    struct Slow {
        seen: Vec<u32>,
    }

    impl Node<u32> for Slow {
        fn on_message(&mut self, _f: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push(msg);
            ctx.consume(SimDuration::from_micros(10));
        }
    }

    #[test]
    fn a_backlog_of_n_costs_a_linear_number_of_events() {
        const N: u32 = 2_000;
        let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
        let slow = sim.add_node(Slow { seen: Vec::new() });
        sim.add_node(Flood { dst: slow, n: N });
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<Slow>(slow).seen,
            (0..N).collect::<Vec<_>>(),
            "deferred deliveries stay FIFO"
        );
        // The N deliveries and nothing else: the backlog waits in the slot
        // of the first delivery deferred, one wake-up per message handled.
        // Re-queueing every waiting message per wake-up was N²/2.
        assert_eq!(sim.alloc_stats().allocated, u64::from(N));
        let vitals = sim.defer_stats();
        assert_eq!(vitals.messages, u64::from(N) - 1);
        assert_eq!(vitals.longest_run, u64::from(N) - 1);
        assert_eq!(vitals.runs, u64::from(N) - 1);
        assert_eq!(
            sim.busy_time(slow),
            SimDuration::from_micros(10 * u64::from(N))
        );
    }

    #[test]
    fn a_parked_backlog_is_dropped_by_a_crash_and_counted() {
        let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
        let slow = sim.add_node(Slow { seen: Vec::new() });
        sim.add_node(Flood { dst: slow, n: 10 });
        // All ten arrive together; the first is handled, nine park for
        // +10 µs. The crash lands before they wake.
        let arrival = NetworkConfig::lan()
            .link(NodeId::new(1), slow)
            .transfer_time(ByteSize::from_bytes(64));
        sim.schedule_crash(slow, SimTime::ZERO + arrival + SimDuration::from_micros(5));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Slow>(slow).seen, vec![0]);
        assert_eq!(sim.net_stats().dropped, 9);
        assert_eq!(format!("{sim:?}").matches("pending_events: 0").count(), 1);
    }

    #[test]
    #[should_panic(expected = "after the simulation started")]
    fn adding_nodes_after_start_panics() {
        let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
        sim.run_until(SimTime::from_secs(1));
        sim.add_node(Echo { seen: 0 });
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_downcast_panics() {
        let mut sim: Simulation<u32> = Simulation::new(NetworkConfig::lan());
        let n = sim.add_node(Echo { seen: 0 });
        let _ = sim.node_ref::<Burner>(n);
    }

    struct Burner;
    impl Node<u32> for Burner {
        fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Ctx<'_, u32>) {}
    }
}
