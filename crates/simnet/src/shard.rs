//! Deterministic sharded execution: conservative parallel DES.
//!
//! A [`ShardedSimulation`] partitions an already-built [`Simulation`]'s
//! nodes into shards and runs the shards in bounded time windows
//! `[t, t + lookahead)`, where *lookahead* is the minimum one-way latency
//! of any link crossing a shard boundary
//! ([`NetworkConfig::min_cross_shard_latency`]) — classic conservative
//! synchronisation (Chandy–Misra): a message sent at time `u ≥ t` cannot
//! arrive on another shard before `u + lookahead ≥ t + lookahead`, so
//! within one window every shard's pending set evolves only through its own
//! pops and the shards cannot influence each other.
//!
//! **Byte-identity.** The event order is keyed `(time, lane, lane seq)`
//! (see [`crate::EventQueue`]); each lane's sequence counter is owned by
//! exactly one node, so keys are identical whether allocated by the
//! sequential engine or by a shard. By induction over windows, the
//! sequential engine's pop sequence *restricted to one shard's events* is
//! exactly that shard's local min-pop sequence: whenever the sequential
//! engine pops a shard-S event it pops the minimum of S's pending set, and
//! S's pending set evolves identically in both modes (local inserts from
//! S's own callbacks; cross-shard arrivals carry times `≥` the window end,
//! so their insertion instant never affects a within-window pop). Fault
//! events are replicated to every shard with identical keys, keeping the
//! per-shard [`Reachability`](crate::net) replicas in lock-step, and
//! network statistics are order-insensitive sums merged at the end — so a
//! sharded run's final state is byte-identical to the sequential engine's.
//!
//! **Execution.** Windows are event-driven: the next window starts at the
//! global minimum pending-event time, so idle stretches cost one jump, not
//! `span / lookahead` barriers. With more than one populated shard and more
//! than one core the window loop runs on scoped worker threads (one shard
//! per worker, spin barriers between windows); otherwise it runs inline on
//! the calling thread — same algorithm, same result, no thread overhead.
//! Cross-shard `Deliver`s are diverted into per-shard outboxes at *send*
//! time and merged into the owner's queue at the window barrier, which is
//! always before the first window their arrival time can fall into.

use crate::event::Rank;
use crate::metrics::NetStats;
use crate::sim::{DeferStats, EngineEvent, NodeState, ShardRoute, Simulation};
use crate::EventQueue;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use wcc_types::{FxHashSet, SimDuration, SimTime};

/// One ranked event in flight between shards.
type RankedEvent<M> = (SimTime, Rank, EngineEvent<M>);

/// Merges per-sender runs — each already sorted ascending by `(time, rank)`
/// — into one ascending sequence: the window barrier's k-way galloping
/// merge. Each step moves the *whole* leading chunk of the run holding the
/// global minimum (every element below the runner-up run's head) in one
/// splice, so a stretch of `m` consecutive winners costs `O(m + log m)`
/// instead of `m` per-event queue insertions. Keys are globally unique
/// (every lane has a single writer), so no tie-breaking is needed.
fn merge_ranked_runs<M>(mut runs: Vec<Vec<RankedEvent<M>>>) -> Vec<RankedEvent<M>> {
    runs.retain(|r| !r.is_empty());
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let total = runs.iter().map(Vec::len).sum();
    let mut out: Vec<RankedEvent<M>> = Vec::with_capacity(total);
    // Work from the tails: reversing each ascending run to descending makes
    // the pending minimum the *last* element, so chunks splice off with
    // `drain(cut..)` — O(chunk), no per-element shifting, no unsafe.
    for run in &mut runs {
        run.reverse();
    }
    fn key<M>(e: &RankedEvent<M>) -> (SimTime, Rank) {
        (e.0, e.1)
    }
    loop {
        if runs.len() == 1 {
            let mut last = runs.pop().expect("one run left");
            out.extend(last.drain(..).rev());
            return out;
        }
        // The run holding the global minimum, and the smallest head among
        // the others — the bound on how much of it can move at once.
        let mut best = 0;
        let mut challenger: Option<(SimTime, Rank)> = None;
        for i in 1..runs.len() {
            if key(runs[i].last().expect("runs stay nonempty"))
                < key(runs[best].last().expect("runs stay nonempty"))
            {
                best = i;
            }
        }
        for (i, run) in runs.iter().enumerate() {
            if i != best {
                let k = key(run.last().expect("runs stay nonempty"));
                challenger = Some(challenger.map_or(k, |c| c.min(k)));
            }
        }
        let challenger = challenger.expect("at least two runs");
        let run = &mut runs[best];
        let len = run.len();
        // Gallop from the tail: exponentially widen the suffix of elements
        // below the challenger, then binary-search the boundary within the
        // last doubling — O(log chunk), not O(log run).
        let mut width = 1;
        while width < len && key(&run[len - width]) < challenger {
            width *= 2;
        }
        let lo = len - width.min(len);
        // Descending storage: "key ≥ challenger" is a prefix property.
        let cut = lo + run[lo..].partition_point(|e| key(e) >= challenger);
        debug_assert!(cut < len, "the minimum run moves at least one element");
        out.extend(run.drain(cut..).rev());
        if run.is_empty() {
            runs.swap_remove(best);
        }
    }
}

/// A [`Simulation`] split into independently runnable shards.
///
/// Build one with [`ShardedSimulation::split`], drive it with
/// [`run_until`](ShardedSimulation::run_until) /
/// [`run_until_idle`](ShardedSimulation::run_until_idle), and reassemble
/// the ordinary simulation (for reports, node access, further sequential
/// running) with [`into_simulation`](ShardedSimulation::into_simulation).
pub struct ShardedSimulation<M> {
    shards: Vec<Simulation<M>>,
    assignment: Vec<usize>,
    lookahead: SimDuration,
}

impl<M: Send + 'static> ShardedSimulation<M> {
    /// Splits `sim` by `assignment` (node id → shard index).
    ///
    /// Runs the start hooks first (so the split sees the complete initial
    /// schedule), then distributes nodes, per-node state and pending events
    /// to their owning shards; fault events are replicated to every shard.
    ///
    /// Returns the simulation unchanged as `Err` when sharding is not
    /// applicable: fewer than two populated shards, or a zero lookahead (a
    /// zero-latency link crossing a shard boundary leaves no window to run
    /// concurrently).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the node count.
    #[allow(clippy::result_large_err)] // Err hands the simulation back for inline fallback
    pub fn split(mut sim: Simulation<M>, assignment: &[usize]) -> Result<Self, Simulation<M>> {
        assert_eq!(
            assignment.len(),
            sim.node_count(),
            "assignment must cover every node"
        );
        let shard_count = assignment.iter().copied().max().map_or(0, |m| m + 1);
        let populated = {
            let mut seen = vec![false; shard_count];
            for &s in assignment {
                seen[s] = true;
            }
            seen.iter().filter(|&&s| s).count()
        };
        let lookahead = match sim.config.min_cross_shard_latency(assignment) {
            Some(l) if l > SimDuration::ZERO => l,
            _ => return Err(sim),
        };
        if populated < 2 {
            return Err(sim);
        }

        // Complete the initial schedule before distributing it.
        sim.start();

        let events = sim.drain_events();
        let external_seq = sim.queue.next_external_seq();
        let nodes = std::mem::take(&mut sim.nodes);
        let states = std::mem::take(&mut sim.states);
        let cancelled = std::mem::take(&mut sim.cancelled);

        let mut shards: Vec<Simulation<M>> = (0..shard_count)
            .map(|s| {
                let mut queue = EventQueue::new();
                queue.set_next_external_seq(external_seq);
                Simulation {
                    nodes: Vec::with_capacity(assignment.len()),
                    states: states.clone(),
                    queue,
                    arena: crate::Arena::new(),
                    // Split-time, like the arena beside it.
                    spare_runs: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
                    // Counters are sums: shard 0 carries the prologue's.
                    defer_stats: if s == 0 {
                        sim.defer_stats
                    } else {
                        DeferStats::default()
                    },
                    config: sim.config.clone(),
                    reach: sim.reach.clone(),
                    // Stats are order-insensitive sums: park the prologue's
                    // tally on shard 0, merge per-shard deltas at the end.
                    stats: if s == 0 {
                        sim.stats.clone()
                    } else {
                        NetStats::default()
                    },
                    cancelled: FxHashSet::default(),
                    now: sim.now,
                    started: true,
                    route: Some(ShardRoute {
                        shard_of: assignment.iter().map(|&a| a as u32).collect(),
                        self_shard: s as u32,
                        // Split-time; each outbox reuses its capacity.
                        outboxes: (0..shard_count).map(|_| Vec::new()).collect(), // xtask-lint: allow(hot-loop-alloc)
                    }),
                }
            })
            .collect();

        for (i, mut node) in nodes.into_iter().enumerate() {
            for (s, shard) in shards.iter_mut().enumerate() {
                shard.nodes.push(if s == assignment[i] {
                    node.take()
                } else {
                    None
                });
            }
        }
        // A cancelled timer is removed from the set when it fires; keep each
        // entry only on the shard that will fire it, so the merged set is an
        // exact union with no resurrected tombstones.
        for id in cancelled {
            shards[assignment[id.owner_index()]].cancelled.insert(id);
        }
        for (at, rank, event) in events {
            match event {
                EngineEvent::Deliver { dst, .. } | EngineEvent::Deferred { dst, .. } => {
                    shards[assignment[dst.as_usize()]].schedule_event(at, rank, event);
                }
                EngineEvent::Timer { node, .. } => {
                    shards[assignment[node.as_usize()]].schedule_event(at, rank, event);
                }
                EngineEvent::Fault(action) => {
                    for shard in &mut shards {
                        shard.schedule_event(at, rank, EngineEvent::Fault(action));
                    }
                }
            }
        }

        Ok(ShardedSimulation {
            shards,
            assignment: assignment.to_vec(),
            lookahead,
        })
    }

    /// The derived lookahead (window width).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs until every queue is empty. Returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.run_until(SimTime::NEVER)
    }

    /// Runs until every queue is empty or only events later than `deadline`
    /// remain — the sharded counterpart of [`Simulation::run_until`], with
    /// identical clock semantics.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        let threaded = self.shards.len() > 1
            && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        self.run_until_with(deadline, threaded)
    }

    /// Deadline-inclusive bound: windows process events with `at < bound`.
    fn bound(deadline: SimTime) -> SimTime {
        if deadline == SimTime::NEVER {
            SimTime::NEVER
        } else {
            SimTime::from_micros(deadline.as_micros().saturating_add(1))
        }
    }

    /// The end of the window starting at `t`, clipped to `bound`.
    fn window_end(&self, t: SimTime, bound: SimTime) -> SimTime {
        let end = t.as_micros().saturating_add(self.lookahead.as_micros());
        bound.min(SimTime::from_micros(end))
    }

    pub(crate) fn run_until_with(&mut self, deadline: SimTime, threaded: bool) -> SimTime {
        let bound = Self::bound(deadline);
        if threaded {
            self.run_windows_threaded(bound);
        } else {
            self.run_windows_inline(bound);
        }
        // Sequential clock semantics: a finite deadline parks the clock at
        // the deadline; an idle run leaves it at the last event processed.
        let mut latest = SimTime::ZERO;
        for shard in &mut self.shards {
            if deadline != SimTime::NEVER && deadline > shard.now {
                shard.now = deadline;
            }
            latest = latest.max(shard.now);
        }
        latest
    }

    /// The window loop on the calling thread (single-core hosts, or callers
    /// that want zero thread overhead).
    fn run_windows_inline(&mut self, bound: SimTime) {
        loop {
            let mut t = SimTime::NEVER;
            for shard in &mut self.shards {
                if let Some(peek) = shard.queue.peek_time() {
                    t = t.min(peek);
                }
            }
            if t >= bound {
                break;
            }
            let end = self.window_end(t, bound);
            for shard in &mut self.shards {
                shard.run_window(end);
            }
            self.exchange();
        }
    }

    /// Merges every shard's outboxes into the destination shards' queues:
    /// each sender's per-destination outbox is sorted into a run, all runs
    /// bound for one destination are k-way merged, and the merged batch is
    /// scheduled as one contiguous pass — not per-event `schedule_ranked`
    /// calls from k interleaved sources.
    fn exchange(&mut self) {
        let n = self.shards.len();
        // Empty vecs: no heap touch until a run is actually moved in.
        let mut inbound: Vec<Vec<Vec<RankedEvent<M>>>> = (0..n).map(|_| Vec::new()).collect(); // xtask-lint: allow(hot-loop-alloc)
        for shard in &mut self.shards {
            let route = shard.route.as_mut().expect("shard has a route");
            for (dst, outbox) in route.outboxes.iter_mut().enumerate() {
                if outbox.is_empty() {
                    continue;
                }
                let mut run = std::mem::take(outbox);
                // Sort at the source: sends are emitted in causal order but
                // variable link latencies can reorder arrival times.
                run.sort_unstable_by_key(|e| (e.0, e.1));
                inbound[dst].push(run);
            }
        }
        for (dst, runs) in inbound.into_iter().enumerate() {
            if runs.is_empty() {
                continue;
            }
            let shard = &mut self.shards[dst];
            for (at, rank, event) in merge_ranked_runs(runs) {
                shard.schedule_event(at, rank, event);
            }
        }
    }

    /// The window loop on scoped worker threads: one worker per shard, two
    /// spin barriers per window (one to agree on the window, one to publish
    /// cross-shard messages). Identical results to the inline loop — the
    /// mailbox insertion order is scheduling-dependent, but the event queue
    /// orders by the full `(time, lane, seq)` key, not insertion order.
    fn run_windows_threaded(&mut self, bound: SimTime) {
        let n = self.shards.len();
        let lookahead = self.lookahead;
        let barrier = SpinBarrier::new(n);
        let peeks: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        // Each mailbox holds whole sorted runs (one per sender per window):
        // senders take one lock per run instead of one per event, and the
        // receiver k-way merges the runs before scheduling.
        let mailboxes: Vec<Mutex<Vec<Vec<RankedEvent<M>>>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect(); // xtask-lint: allow(hot-loop-alloc)

        crossbeam::thread::scope(|scope| {
            for (i, shard) in self.shards.iter_mut().enumerate() {
                let (barrier, peeks, mailboxes) = (&barrier, &peeks, &mailboxes);
                scope.spawn(move || loop {
                    // Mail deposited at the previous window's second barrier.
                    let inbox = {
                        let mut mailbox = mailboxes[i].lock().expect("mailbox poisoned");
                        std::mem::take(&mut *mailbox)
                    };
                    for (at, rank, event) in merge_ranked_runs(inbox) {
                        shard.schedule_event(at, rank, event);
                    }

                    let peek = shard.queue.peek_time().map_or(u64::MAX, |t| t.as_micros());
                    peeks[i].store(peek, Ordering::Release);
                    barrier.wait();

                    // Every worker computes the same window start, so they
                    // all break (or run) together.
                    let t = peeks.iter().map(|p| p.load(Ordering::Acquire)).min();
                    let t = SimTime::from_micros(t.expect("at least one shard"));
                    if t >= bound {
                        return;
                    }
                    let end = bound.min(SimTime::from_micros(
                        t.as_micros().saturating_add(lookahead.as_micros()),
                    ));
                    shard.run_window(end);

                    let route = shard.route.as_mut().expect("shard has a route");
                    for (dst, outbox) in route.outboxes.iter_mut().enumerate() {
                        if outbox.is_empty() {
                            continue;
                        }
                        let mut run = std::mem::take(outbox);
                        run.sort_unstable_by_key(|e| (e.0, e.1));
                        let mut mailbox = mailboxes[dst].lock().expect("mailbox poisoned");
                        mailbox.push(run);
                    }
                    barrier.wait();
                });
            }
        });
    }

    /// Reassembles the shards into one ordinary [`Simulation`]: nodes and
    /// per-node state from their owners, statistics summed, timer
    /// tombstones unioned, leftover events (beyond a deadline) re-merged
    /// with their keys intact, and the clock at the latest shard clock.
    pub fn into_simulation(self) -> Simulation<M> {
        let ShardedSimulation {
            shards, assignment, ..
        } = self;
        let n = assignment.len();
        let mut merged = Simulation::new(shards[0].config.clone());
        merged.reach = shards[0].reach.clone();
        merged.started = true;
        merged.nodes = (0..n).map(|_| None).collect();
        merged.states = vec![NodeState::default(); n];

        let mut external_seq = 0;
        for (s, mut shard) in shards.into_iter().enumerate() {
            merged.now = merged.now.max(shard.now);
            merged.stats.absorb(&shard.stats);
            merged.cancelled.extend(shard.cancelled.drain());
            external_seq = external_seq.max(shard.queue.next_external_seq());
            // Drain leftover events before partially moving the node vector
            // out of the shard; fold the shard arena's counters into the
            // merged simulation's so `alloc_stats` reports the whole run.
            let leftovers = shard.drain_events();
            merged.arena.absorb_stats(shard.alloc_stats());
            merged.defer_stats.absorb(shard.defer_stats);
            for (i, node) in shard.nodes.into_iter().enumerate() {
                if assignment[i] == s {
                    merged.nodes[i] = node;
                    merged.states[i] = shard.states[i];
                }
            }
            for (at, rank, event) in leftovers {
                // Fault events were replicated to every shard; keep shard
                // 0's copy only.
                if matches!(event, EngineEvent::Fault(_)) && s != 0 {
                    continue;
                }
                merged.schedule_event(at, rank, event);
            }
        }
        merged.queue.set_next_external_seq(external_seq);
        merged
    }
}

/// A sense-reversing spin barrier for the per-window rendezvous.
///
/// Windows are microseconds of work, so parking threads in the kernel per
/// window would dominate the runtime; spinning (with a yield fallback so an
/// oversubscribed host still makes progress) keeps the barrier in the tens
/// of nanoseconds on idle cores.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, FaultPlan, NetworkConfig, Node, Simulation};
    use wcc_types::{ByteSize, NodeId, SimDuration};

    /// Pings a peer on a timer cadence; counts replies and tracks arrival
    /// times so byte-identity failures are visible in `Debug` output.
    #[derive(Debug)]
    struct Pinger {
        peer: NodeId,
        sent: u32,
        replies: Vec<SimTime>,
    }

    impl Node<u64> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for tick in 1..=40u64 {
                ctx.set_timer(SimDuration::from_millis(tick * 3), tick);
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, u64>) {
            self.sent += 1;
            ctx.send(self.peer, token, ByteSize::from_bytes(200));
        }
        fn on_message(&mut self, _from: NodeId, _msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.replies.push(ctx.now());
        }
    }

    /// Replies to every ping, consuming CPU so busy-deferral is exercised.
    #[derive(Debug)]
    struct Server {
        served: u32,
    }

    impl Node<u64> for Server {
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.served += 1;
            ctx.consume(SimDuration::from_micros(150));
            ctx.send(from, msg, ByteSize::from_bytes(500));
        }
    }

    fn build() -> (Simulation<u64>, Vec<NodeId>) {
        let mut sim = Simulation::new(NetworkConfig::lan());
        let server = sim.add_node(Server { served: 0 });
        let mut ids = vec![server];
        for _ in 0..3 {
            let p = sim.add_node(Pinger {
                peer: server,
                sent: 0,
                replies: Vec::new(),
            });
            ids.push(p);
        }
        (sim, ids)
    }

    fn fingerprint(sim: &Simulation<u64>, ids: &[NodeId]) -> String {
        let mut out = format!("{sim:?} now={:?}", sim.now());
        for &id in &ids[1..] {
            out.push_str(&format!(" {:?}", sim.node_ref::<Pinger>(id)));
        }
        out.push_str(&format!(" {:?}", sim.node_ref::<Server>(ids[0])));
        out
    }

    fn run_mode(
        assignment: &[usize],
        deadline: SimTime,
        threaded: bool,
        faults: Option<&FaultPlan>,
    ) -> String {
        let (mut sim, ids) = build();
        if let Some(plan) = faults {
            plan.apply(&mut sim);
        }
        let mut sharded = match ShardedSimulation::split(sim, assignment) {
            Ok(s) => s,
            Err(mut sim) => {
                sim.run_until(deadline);
                return fingerprint(&sim, &ids);
            }
        };
        sharded.run_until_with(deadline, threaded);
        let sim = sharded.into_simulation();
        fingerprint(&sim, &ids)
    }

    fn run_sequential(deadline: SimTime, faults: Option<&FaultPlan>) -> String {
        let (mut sim, ids) = build();
        if let Some(plan) = faults {
            plan.apply(&mut sim);
        }
        sim.run_until(deadline);
        fingerprint(&sim, &ids)
    }

    #[test]
    fn sharded_idle_run_is_byte_identical() {
        let sequential = run_sequential(SimTime::NEVER, None);
        for assignment in [[0, 1, 1, 1], [0, 1, 2, 3], [0, 1, 0, 1]] {
            for threaded in [false, true] {
                assert_eq!(
                    run_mode(&assignment, SimTime::NEVER, threaded, None),
                    sequential,
                    "assignment {assignment:?} threaded={threaded}"
                );
            }
        }
    }

    #[test]
    fn sharded_deadline_run_is_byte_identical() {
        let deadline = SimTime::from_millis(70);
        let sequential = run_sequential(deadline, None);
        for threaded in [false, true] {
            assert_eq!(
                run_mode(&[0, 1, 2, 1], deadline, threaded, None),
                sequential,
                "threaded={threaded}"
            );
        }
    }

    #[test]
    fn sharded_run_with_faults_is_byte_identical() {
        let plan = FaultPlan::new()
            .outage(
                NodeId::new(0),
                SimTime::from_millis(20),
                SimTime::from_millis(50),
            )
            .partition(
                NodeId::new(2),
                NodeId::new(0),
                SimTime::from_millis(60),
                SimTime::from_millis(90),
            );
        let sequential = run_sequential(SimTime::NEVER, Some(&plan));
        for threaded in [false, true] {
            assert_eq!(
                run_mode(&[0, 1, 2, 3], SimTime::NEVER, threaded, Some(&plan)),
                sequential,
                "threaded={threaded}"
            );
        }
    }

    #[test]
    fn galloping_merge_matches_a_full_sort() {
        // Deterministic LCG-shaped runs: long winner stretches (gallop
        // chunks), singleton runs, an empty run, and key gaps across runs.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut runs: Vec<Vec<RankedEvent<u64>>> = Vec::new();
        let mut seq = 0u64;
        for len in [0usize, 1, 7, 40, 3, 25] {
            let mut t = next() % 50;
            let run: Vec<RankedEvent<u64>> = (0..len)
                .map(|_| {
                    t += 1 + next() % 97; // strictly increasing per run
                    seq += 1; // globally unique ranks
                    (
                        SimTime::from_micros(t),
                        Rank::node(0, seq),
                        EngineEvent::Timer {
                            node: NodeId::new(0),
                            token: seq,
                            id: crate::TimerId::pack(NodeId::new(0), seq),
                        },
                    )
                })
                .collect();
            runs.push(run);
        }
        let mut expected: Vec<(SimTime, Rank)> =
            runs.iter().flatten().map(|e| (e.0, e.1)).collect();
        expected.sort_unstable();
        let merged = merge_ranked_runs(runs);
        let got: Vec<(SimTime, Rank)> = merged.iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn single_effective_shard_falls_back() {
        let (sim, _) = build();
        assert!(ShardedSimulation::split(sim, &[0, 0, 0, 0]).is_err());
    }

    #[test]
    fn zero_lookahead_falls_back() {
        let mut cfg = NetworkConfig::lan();
        cfg.set_link_symmetric(
            NodeId::new(0),
            NodeId::new(1),
            crate::LinkSpec::new(SimDuration::ZERO, 1_000),
        );
        let mut sim: Simulation<u64> = Simulation::new(cfg);
        sim.add_node(Server { served: 0 });
        sim.add_node(Server { served: 0 });
        assert!(ShardedSimulation::split(sim, &[0, 1]).is_err());
    }

    #[test]
    fn lookahead_is_min_cross_latency() {
        let (sim, _) = build();
        let sharded = ShardedSimulation::split(sim, &[0, 1, 1, 1]).expect("two shards");
        assert_eq!(sharded.lookahead(), SimDuration::from_micros(300));
        assert_eq!(sharded.shard_count(), 2);
    }
}
