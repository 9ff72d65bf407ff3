//! The time coordinator: lock-step replay in five-minute windows.

use wcc_proto::{CoordMsg, Message};
use wcc_simnet::{Ctx, Node};
use wcc_types::{FxHashSet, NodeId, SimDuration, SimTime};

/// Wall-clock watchdog: if a window has not completed after this long, the
/// coordinator re-broadcasts `StepStart` to the stragglers (a crashed node
/// may have missed the original).
const WATCHDOG: SimDuration = SimDuration::from_secs(30);

/// The coordinator node. "The coordinator first broadcasts the current
/// simulated time, then all the pseudo-clients send requests with timestamps
/// falling in the five minute interval after the current simulated time. …
/// After collecting replies from all pseudo-clients, the time coordinator
/// broadcasts a new simulated time which is five minutes after the previous
/// one."
#[derive(Debug)]
pub struct CoordinatorNode {
    participants: Vec<NodeId>,
    window: SimDuration,
    trace_duration: SimDuration,
    step: u32,
    waiting: FxHashSet<NodeId>,
    /// Set once the final (flush) window has completed.
    pub(crate) finished: bool,
    /// Completed lock-step windows.
    pub(crate) steps_run: u32,
    /// Wall time at which the replay drained (straggler timers may tick
    /// after this; they are not part of the replay).
    pub(crate) finished_at: Option<SimTime>,
}

impl CoordinatorNode {
    pub(crate) fn new(window: SimDuration, trace_duration: SimDuration) -> Self {
        CoordinatorNode {
            participants: Vec::new(),
            window,
            trace_duration,
            step: 0,
            waiting: FxHashSet::default(),
            finished: false,
            steps_run: 0,
            finished_at: None,
        }
    }

    pub(crate) fn set_participants(&mut self, participants: Vec<NodeId>) {
        self.participants = participants;
    }

    /// Whether the replay has fully drained.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Completed lock-step windows.
    pub fn steps_run(&self) -> u32 {
        self.steps_run
    }

    /// Wall time at which the replay drained.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// The trace-time end of window `step`; the final window is unbounded so
    /// stragglers flush.
    fn window_end(&self, step: u32) -> SimTime {
        let end = SimTime::ZERO + self.window.saturating_mul(step as u64 + 1);
        if end >= SimTime::ZERO + self.trace_duration {
            SimTime::NEVER
        } else {
            end
        }
    }

    /// Opens the current window: every participant is waiting, and every
    /// one of them is sent `StepStart`. The set is refilled, not rebuilt, so
    /// a window after the first allocates nothing.
    fn broadcast(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.waiting.clear();
        self.waiting.extend(self.participants.iter().copied());
        self.nudge_stragglers(ctx);
    }

    /// Nodes that have not reported done, in canonical participant order —
    /// never hash-set order: the nudge fan-out must enqueue its sends in a
    /// replay-stable order.
    fn stragglers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.participants
            .iter()
            .copied()
            .filter(|node| self.waiting.contains(node))
    }

    /// Sends `StepStart` to the nodes that have not reported done (on a
    /// watchdog tick, they may have been down when the original went out)
    /// and arms the watchdog.
    fn nudge_stragglers(&mut self, ctx: &mut Ctx<'_, Message>) {
        let msg = Message::Coord(CoordMsg::StepStart {
            step: self.step,
            window_end: self.window_end(self.step),
        });
        for node in self.stragglers() {
            let size = msg.wire_size();
            ctx.send(node, msg.clone(), size);
        }
        ctx.set_timer(WATCHDOG, self.step as u64);
    }
}

impl Node<Message> for CoordinatorNode {
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Message>) {
        if self.finished || token != self.step as u64 || self.waiting.is_empty() {
            return;
        }
        self.nudge_stragglers(ctx);
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        if self.participants.is_empty() {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            return;
        }
        self.broadcast(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_, Message>) {
        let Message::Coord(CoordMsg::StepDone { step }) = msg else {
            debug_assert!(false, "coordinator got unexpected message {msg:?}");
            return;
        };
        if step != self.step {
            return; // late duplicate from a recovered node
        }
        self.waiting.remove(&from);
        if !self.waiting.is_empty() {
            return;
        }
        self.steps_run += 1;
        if self.window_end(self.step) == SimTime::NEVER {
            self.finished = true;
            self.finished_at = Some(ctx.now());
            return;
        }
        self.step += 1;
        self.broadcast(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_ends_cap_at_never() {
        let c = CoordinatorNode::new(SimDuration::from_mins(5), SimDuration::from_mins(12));
        assert_eq!(c.window_end(0), SimTime::from_secs(300));
        assert_eq!(c.window_end(1), SimTime::from_secs(600));
        // Third window reaches past the 12-minute duration → flush window.
        assert_eq!(c.window_end(2), SimTime::NEVER);
    }

    #[test]
    fn stragglers_follow_participant_order_not_hash_order() {
        let mut c = CoordinatorNode::new(SimDuration::from_mins(5), SimDuration::from_mins(5));
        // Enough ids that FxHashSet iteration order would almost surely
        // diverge from insertion order if the fan-out walked the set.
        let ids: Vec<NodeId> = (0..64).map(NodeId::new).collect();
        c.set_participants(ids.clone());
        // Mark every other node (inserted back-to-front) as still waiting.
        for node in ids.iter().rev().step_by(2) {
            c.waiting.insert(*node);
        }
        let expected: Vec<NodeId> = ids.iter().copied().filter(|n| n.index() % 2 == 1).collect();
        assert_eq!(c.stragglers().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn zero_participants_finishes_immediately() {
        let mut sim = wcc_simnet::Simulation::new(wcc_simnet::NetworkConfig::lan());
        let coord = sim.add_node(CoordinatorNode::new(
            SimDuration::from_mins(5),
            SimDuration::from_mins(5),
        ));
        assert!(!sim.node_ref::<CoordinatorNode>(coord).finished());
        sim.run_until_idle();
        let c = sim.node_ref::<CoordinatorNode>(coord);
        assert!(c.finished());
        assert_eq!(c.finished_at(), Some(SimTime::ZERO));
        assert_eq!(c.steps_run(), 0);
    }
}
