//! Property tests of the simulator's delivery guarantees.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wcc_simnet::{Ctx, NetworkConfig, Node, Simulation};
use wcc_types::{ByteSize, NodeId, SimDuration, SimTime};

/// Sends a scripted batch of (delay, target, tag) messages from its start
/// hook; records everything it receives.
struct Scripted {
    script: Vec<(u64, usize, u32)>,
    targets: Vec<NodeId>,
    received: Vec<(SimTime, u32)>,
}

impl Node<u32> for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        for &(delay, target, tag) in &self.script {
            let target = self.targets[target % self.targets.len()];
            ctx.set_timer(
                SimDuration::from_millis(delay),
                ((target.index() as u64) << 32) | tag as u64,
            );
        }
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, u32>) {
        let target = NodeId::new((token >> 32) as u32);
        let tag = (token & 0xffff_ffff) as u32;
        ctx.send(target, tag, ByteSize::from_bytes(64));
    }
    fn on_message(&mut self, _from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.received.push((ctx.now(), msg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without faults, every sent message is delivered exactly once, and
    /// each receiver observes non-decreasing delivery times.
    #[test]
    fn faultless_delivery_is_exactly_once(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0u64..5_000, 0usize..4, 0u32..1_000), 0..30),
            2..5,
        )
    ) {
        let mut sim = Simulation::new(NetworkConfig::lan());
        let n = scripts.len();
        let ids: Vec<NodeId> = (0..n).map(|i| NodeId::new(i as u32)).collect();
        let mut sent_tags: Vec<u32> = Vec::new();
        for script in &scripts {
            for &(_, _, tag) in script {
                sent_tags.push(tag);
            }
        }
        for script in scripts {
            sim.add_node(Scripted {
                script,
                targets: ids.clone(),
                received: Vec::new(),
            });
        }
        sim.run_until_idle();

        let mut got: Vec<u32> = Vec::new();
        for &id in &ids {
            let node = sim.node_ref::<Scripted>(id);
            prop_assert!(node.received.windows(2).all(|w| w[0].0 <= w[1].0));
            got.extend(node.received.iter().map(|&(_, tag)| tag));
        }
        sent_tags.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, sent_tags);
        prop_assert_eq!(sim.net_stats().dropped, 0);
    }

    /// With a crashed receiver, deliveries to it are dropped and everything
    /// else still arrives; messages + drops stay conserved.
    #[test]
    fn crashed_node_only_loses_its_own_messages(
        script in proptest::collection::vec((0u64..5_000, 0usize..3, 0u32..1_000), 1..40),
    ) {
        let mut sim = Simulation::new(NetworkConfig::lan());
        let ids: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let to_dead: usize = script.iter().filter(|&&(_, t, _)| t % 3 == 2).count();
        let total = script.len();
        sim.add_node(Scripted { script, targets: ids.clone(), received: Vec::new() });
        for _ in 0..2 {
            sim.add_node(Scripted { script: Vec::new(), targets: ids.clone(), received: Vec::new() });
        }
        // Node 2 is dead from the start.
        sim.schedule_crash(ids[2], SimTime::ZERO);
        sim.run_until_idle();
        let delivered: usize = (0..3)
            .map(|i| sim.node_ref::<Scripted>(ids[i]).received.len())
            .sum();
        prop_assert_eq!(delivered + sim.net_stats().dropped as usize, total);
        prop_assert!(sim.net_stats().dropped as usize >= to_dead);
        prop_assert_eq!(sim.node_ref::<Scripted>(ids[2]).received.len(), 0);
    }
}

// ---- Order equivalence of the engine's run-length busy deferral ----------
//
// The engine parks a busy node's waiting deliveries in one event per run of
// consecutive lane sequence numbers. `Reference` below is the scheme that
// replaced: every waiting delivery is an event of its own, re-queued at
// `busy_until` each time it wakes to a busy node. Both must produce the same
// handler log and the same `TimerId`s.

/// What an actor can ask of its engine, so one actor implementation runs
/// on the real [`Ctx`] and on [`Reference`].
trait Env {
    fn now(&self) -> SimTime;
    fn send(&mut self, dst: NodeId, msg: u32);
    /// Arms a timer; returns the `Debug` form of its id (`TimerId` is opaque
    /// outside the crate, and the reference has to predict it from the lane
    /// sequence number it allocated).
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> String;
    fn consume(&mut self, amount: SimDuration);
    fn busy_until(&self) -> SimTime;
}

const WIRE: ByteSize = ByteSize::from_bytes(64);
const TIMER: u64 = 1 << 40;
const CHAINED: u64 = 1 << 32;

impl Env for Ctx<'_, u32> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    fn send(&mut self, dst: NodeId, msg: u32) {
        Ctx::send(self, dst, msg, WIRE);
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> String {
        format!("{:?}", Ctx::set_timer(self, delay, token))
    }
    fn consume(&mut self, amount: SimDuration) {
        Ctx::consume(self, amount);
    }
    fn busy_until(&self) -> SimTime {
        Ctx::busy_until(self)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Role {
    /// Arms one timer per `(delay µs, tag)` at start; each fires
    /// `1 + tag % 3` copies of `tag` at the worker, which arrive together.
    Sender {
        worker: NodeId,
        script: Vec<(u64, u32)>,
    },
    /// Spends `costs[msg % len]` µs per message (some cost nothing). Every
    /// fourth tag arms a timer that fires mid-backlog, spends CPU of its own
    /// (moving `busy_until` under the parked runs) and sends a reply
    /// (taking a lane sequence number between two deferrals). Every eighth
    /// also chains a timer for the very instant the backlog wakes — a key
    /// on the worker's own lane between two runs of that instant — which
    /// spends CPU again, so the later run overtakes the rest of the earlier.
    Worker { costs: Vec<u64>, senders: u32 },
}

#[derive(Debug, Clone, PartialEq)]
struct Actor {
    role: Role,
    /// `(time, src, msg)` per delivery, `(time, self, TIMER | token)` per
    /// timer, in handler order.
    log: Vec<(SimTime, NodeId, u64)>,
    timer_ids: Vec<String>,
}

impl Actor {
    fn new(role: Role) -> Self {
        Actor {
            role,
            log: Vec::new(),
            timer_ids: Vec::new(),
        }
    }

    fn start(&mut self, env: &mut impl Env) {
        if let Role::Sender { script, .. } = &self.role {
            for &(delay, tag) in script {
                let id = env.set_timer(SimDuration::from_micros(delay), u64::from(tag));
                self.timer_ids.push(id);
            }
        }
    }

    fn message(&mut self, from: NodeId, msg: u32, env: &mut impl Env) {
        self.log.push((env.now(), from, u64::from(msg)));
        if let Role::Worker { costs, .. } = &self.role {
            env.consume(SimDuration::from_micros(costs[msg as usize % costs.len()]));
            if msg.is_multiple_of(4) {
                let delay = SimDuration::from_micros(20 + u64::from(msg) * 13 % 300);
                self.timer_ids.push(env.set_timer(delay, u64::from(msg)));
            }
        }
    }

    fn timer(&mut self, me: NodeId, token: u64, env: &mut impl Env) {
        self.log.push((env.now(), me, TIMER | token));
        match &self.role {
            Role::Sender { worker, .. } => {
                for _ in 0..=token % 3 {
                    env.send(*worker, token as u32);
                }
            }
            Role::Worker { .. } if token & CHAINED != 0 => {
                env.consume(SimDuration::from_micros(30));
            }
            Role::Worker { senders, .. } => {
                env.consume(SimDuration::from_micros(token * 7 % 90));
                env.send(NodeId::new(1 + token as u32 % senders), token as u32);
                if token.is_multiple_of(8) {
                    let wake = env.busy_until().saturating_since(env.now());
                    self.timer_ids.push(env.set_timer(wake, CHAINED | token));
                }
            }
        }
    }
}

impl Node<u32> for Actor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.start(ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.message(from, msg, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, u32>) {
        self.timer(ctx.id(), token, ctx);
    }
}

enum Pending {
    /// `grouped` once the delivery has shared a deferred run with another.
    Deliver {
        src: NodeId,
        dst: NodeId,
        msg: u32,
        grouped: bool,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Crash(NodeId),
    Recover(NodeId),
}

type Key = (SimTime, u32, u64);

/// The engine's near-future ring, in µs: a run keyed this far past `now`
/// is parked in the overflow heap.
const RING_US: u64 = 16_384;

/// How often each shape of busy deferral occurred in a run of the
/// per-message model, which sorts its own deferrals by the engine's rule
/// for joining a run. Only counted, never compared with the engine.
#[derive(Debug, Default, Clone, Copy)]
struct Shapes {
    /// Deferrals of a delivery that shared no run yet and opened one: the
    /// engine re-keys it in its own slot.
    lone: u64,
    /// Such lone deliveries that a later deferral joined: the engine turns
    /// the slot into a `Deferred` run.
    lone_joined: u64,
    /// Deliveries deferred again when they woke because a timer's
    /// `consume` had moved `busy_until` past their key.
    after_timer: u64,
    /// Runs opened at least a ring width past `now`.
    overflow: u64,
}

impl Shapes {
    fn absorb(&mut self, other: Shapes) {
        self.lone += other.lone;
        self.lone_joined += other.lone_joined;
        self.after_timer += other.after_timer;
        self.overflow += other.overflow;
    }
}

/// The run a further deferral to the node can join: its instant, the next
/// sequence number, its length and the key of its first delivery.
#[derive(Clone, Copy)]
struct OpenRun {
    at: SimTime,
    next_seq: u64,
    len: u64,
    first: Key,
}

/// The per-message model: a map ordered by `(time, lane, seq)`, lane 0
/// external, node `n` on lane `n + 1` with its own sequence counter.
#[derive(Default)]
struct Reference {
    queue: BTreeMap<Key, Pending>,
    external_seq: u64,
    seq: Vec<u64>,
    busy_until: Vec<SimTime>,
    busy_accum: Vec<SimDuration>,
    crashed: Vec<bool>,
    dropped: u64,
    open: Vec<Option<OpenRun>>,
    /// Whether the handler that last moved the node's `busy_until` was a
    /// timer's.
    timer_busy: Vec<bool>,
    shapes: Shapes,
}

struct RefEnv<'a> {
    me: NodeId,
    now: SimTime,
    model: &'a mut Reference,
}

impl RefEnv<'_> {
    fn next_key(&mut self, at: SimTime) -> Key {
        let seq = &mut self.model.seq[self.me.as_usize()];
        *seq += 1;
        (at, self.me.index() + 1, *seq - 1)
    }
}

impl Env for RefEnv<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, dst: NodeId, msg: u32) {
        let delay = NetworkConfig::lan().link(self.me, dst).transfer_time(WIRE);
        let key = self.next_key(self.now + delay);
        let src = self.me;
        self.model.queue.insert(
            key,
            Pending::Deliver {
                src,
                dst,
                msg,
                grouped: false,
            },
        );
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> String {
        let key = self.next_key(self.now + delay);
        let node = self.me;
        self.model.queue.insert(key, Pending::Timer { node, token });
        format!("TimerId({})", (u64::from(key.1) << 40) | key.2)
    }
    fn consume(&mut self, amount: SimDuration) {
        let me = self.me.as_usize();
        self.model.busy_until[me] = self.model.busy_until[me].max(self.now) + amount;
        self.model.busy_accum[me] += amount;
    }
    fn busy_until(&self) -> SimTime {
        self.model.busy_until[self.me.as_usize()]
    }
}

impl Reference {
    fn external(&mut self, at: SimTime, event: Pending) {
        self.queue.insert((at, 0, self.external_seq), event);
        self.external_seq += 1;
    }

    fn run(&mut self, actors: &mut [Actor]) {
        let n = actors.len();
        self.seq = vec![0; n];
        self.busy_until = vec![SimTime::ZERO; n];
        self.busy_accum = vec![SimDuration::ZERO; n];
        self.crashed = vec![false; n];
        self.open = vec![None; n];
        self.timer_busy = vec![false; n];
        for (i, actor) in actors.iter_mut().enumerate() {
            let me = NodeId::new(i as u32);
            actor.start(&mut RefEnv {
                me,
                now: SimTime::ZERO,
                model: self,
            });
        }
        while let Some(((now, lane, _), event)) = self.queue.pop_first() {
            match event {
                Pending::Deliver { dst, .. } if self.crashed[dst.as_usize()] => self.dropped += 1,
                Pending::Deliver {
                    src,
                    dst,
                    msg,
                    grouped,
                } if self.busy_until[dst.as_usize()] > now => {
                    // One event per waiting message, every time it wakes.
                    let d = dst.as_usize();
                    self.seq[d] += 1;
                    let key = (self.busy_until[d], dst.index() + 1, self.seq[d] - 1);
                    // On its receiver's lane only once deferred: no actor
                    // sends to itself.
                    let woke = lane == dst.index() + 1;
                    let grouped = self.classify(d, now, key, grouped, woke);
                    self.queue.insert(
                        key,
                        Pending::Deliver {
                            src,
                            dst,
                            msg,
                            grouped,
                        },
                    );
                }
                Pending::Deliver { src, dst, msg, .. } => {
                    let busy = self.busy_until[dst.as_usize()];
                    let mut env = RefEnv {
                        me: dst,
                        now,
                        model: self,
                    };
                    actors[dst.as_usize()].message(src, msg, &mut env);
                    if self.busy_until[dst.as_usize()] != busy {
                        self.timer_busy[dst.as_usize()] = false;
                    }
                }
                Pending::Timer { node, token } => {
                    if !self.crashed[node.as_usize()] {
                        let busy = self.busy_until[node.as_usize()];
                        let mut env = RefEnv {
                            me: node,
                            now,
                            model: self,
                        };
                        actors[node.as_usize()].timer(node, token, &mut env);
                        if self.busy_until[node.as_usize()] != busy {
                            self.timer_busy[node.as_usize()] = true;
                        }
                    }
                }
                Pending::Crash(node) => self.crashed[node.as_usize()] = true,
                Pending::Recover(node) => self.crashed[node.as_usize()] = false,
            }
        }
    }

    /// Counts the shape of deferring a delivery to node `d` under `key` at
    /// `now` (`woke`: it had been deferred before); returns whether it now
    /// shares a run.
    fn classify(&mut self, d: usize, now: SimTime, key: Key, grouped: bool, woke: bool) -> bool {
        let (at, _, seq) = key;
        if woke && self.timer_busy[d] {
            self.shapes.after_timer += 1;
        }
        match &mut self.open[d] {
            Some(run) if run.at == at && run.next_seq == seq => {
                run.next_seq += 1;
                run.len += 1;
                if run.len == 2 {
                    if let Some(Pending::Deliver { grouped, .. }) = self.queue.get_mut(&run.first) {
                        if !*grouped {
                            self.shapes.lone_joined += 1;
                        }
                        *grouped = true;
                    }
                }
                true
            }
            open => {
                *open = Some(OpenRun {
                    at,
                    next_seq: seq + 1,
                    len: 1,
                    first: key,
                });
                if !grouped {
                    self.shapes.lone += 1;
                }
                if at.saturating_since(now) >= SimDuration::from_micros(RING_US) {
                    self.shapes.overflow += 1;
                }
                grouped
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random worker costs (zero included), timers that consume mid-backlog
    /// so runs for two different instants coexist, an outage with a backlog
    /// parked, and a deadline that stops the run mid-backlog before it
    /// resumes: the engine's handler log, timer ids, drop count and busy
    /// time equal the per-message model's.
    #[test]
    fn run_length_deferral_matches_per_message_requeue(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0u64..1_500, 0u32..64), 1..25),
            2..4,
        ),
        costs in proptest::collection::vec(0u64..400, 1..6),
        outage in proptest::option::of((300u64..2_500, 1u64..1_500)),
        pause_at in proptest::option::of(0u64..3_000),
    ) {
        let worker = NodeId::new(0);
        let senders = scripts.len() as u32;
        let mut actors = vec![Actor::new(Role::Worker { costs, senders })];
        for script in scripts {
            actors.push(Actor::new(Role::Sender { worker, script }));
        }
        let outage = outage.map(|(at, len)| {
            (SimTime::from_micros(at), SimTime::from_micros(at + len))
        });

        let mut reference = Reference::default();
        let mut expected = actors.clone();
        if let Some((down, up)) = outage {
            reference.external(down, Pending::Crash(worker));
            reference.external(up, Pending::Recover(worker));
        }
        reference.run(&mut expected);

        let mut sim = Simulation::new(NetworkConfig::lan());
        for actor in actors {
            sim.add_node(actor);
        }
        if let Some((down, up)) = outage {
            sim.schedule_crash(worker, down);
            sim.schedule_recover(worker, up);
        }
        if let Some(at) = pause_at {
            sim.run_until(SimTime::from_micros(at));
        }
        sim.run_until_idle();

        for (i, want) in expected.iter().enumerate() {
            let id = NodeId::new(i as u32);
            prop_assert_eq!(sim.node_ref::<Actor>(id), want, "node {}", i);
            prop_assert_eq!(sim.busy_time(id), reference.busy_accum[i]);
        }
        prop_assert_eq!(sim.net_stats().dropped, reference.dropped);
    }
}

/// Runs `actors` on the engine, with an optional outage of the worker
/// (node 0) and an optional `run_until` pause, and on the per-message model,
/// and checks what `run_length_deferral_matches_per_message_requeue` checks:
/// each node's handler log and timer ids, its busy time and the drop count.
/// Returns the model's deferral shapes.
fn matches_reference(
    actors: Vec<Actor>,
    outage: Option<(SimTime, SimTime)>,
    pause_at: Option<SimTime>,
) -> Result<Shapes, TestCaseError> {
    let worker = NodeId::new(0);
    let mut reference = Reference::default();
    let mut expected = actors.clone();
    if let Some((down, up)) = outage {
        reference.external(down, Pending::Crash(worker));
        reference.external(up, Pending::Recover(worker));
    }
    reference.run(&mut expected);

    let mut sim = Simulation::new(NetworkConfig::lan());
    for actor in actors {
        sim.add_node(actor);
    }
    if let Some((down, up)) = outage {
        sim.schedule_crash(worker, down);
        sim.schedule_recover(worker, up);
    }
    if let Some(at) = pause_at {
        sim.run_until(at);
    }
    sim.run_until_idle();

    for (i, want) in expected.iter().enumerate() {
        let id = NodeId::new(i as u32);
        prop_assert_eq!(sim.node_ref::<Actor>(id), want, "node {}", i);
        prop_assert_eq!(sim.busy_time(id), reference.busy_accum[i]);
    }
    prop_assert_eq!(sim.net_stats().dropped, reference.dropped);
    Ok(reference.shapes)
}

/// The same equivalence with worker costs and sender delays of up to three
/// ring widths: lone deliveries re-keyed in their own slot, lone ones that
/// a later deferral turns into a run, re-deferrals after a timer's
/// `consume`, and run keys parked in the overflow heap and pulled back into
/// the ring. Each of those shapes must occur in the cases drawn, counted by
/// the model.
#[test]
fn deferral_across_the_ring_horizon_matches_per_message_requeue() {
    const SPAN: u64 = 3 * RING_US;
    let strategy = (
        proptest::collection::vec(
            proptest::collection::vec((0u64..SPAN, 0u32..64), 1..25),
            2..4,
        ),
        proptest::collection::vec(prop_oneof![0u64..400, 0u64..SPAN], 1..6),
        proptest::option::of((300u64..SPAN, 1u64..RING_US)),
        proptest::option::of(0u64..2 * SPAN),
    );
    let mut runner = proptest::test_runner::TestRunner::new(
        ProptestConfig::with_cases(256),
        "deferral_across_the_ring_horizon_matches_per_message_requeue",
    );
    let mut seen = Shapes::default();
    runner.run(&strategy, |(scripts, costs, outage, pause_at)| {
        let worker = NodeId::new(0);
        let senders = scripts.len() as u32;
        let mut actors = vec![Actor::new(Role::Worker { costs, senders })];
        for script in scripts {
            actors.push(Actor::new(Role::Sender { worker, script }));
        }
        let outage =
            outage.map(|(at, len)| (SimTime::from_micros(at), SimTime::from_micros(at + len)));
        seen.absorb(matches_reference(
            actors,
            outage,
            pause_at.map(SimTime::from_micros),
        )?);
        Ok(())
    });
    assert!(
        seen.lone > 0 && seen.lone_joined > 0 && seen.after_timer > 0 && seen.overflow > 0,
        "a deferral shape never occurred: {seen:?}"
    );
}
