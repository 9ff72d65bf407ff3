//! Property test: a [`FaultPlan`] is a *set* of scheduled faults — the
//! insertion order of its entries must not affect the simulation.

use proptest::prelude::*;
use wcc_simnet::{Ctx, FaultEntry, FaultPlan, NetworkConfig, Node, Simulation};
use wcc_types::{ByteSize, NodeId, SimDuration, SimTime};

/// Pings its peer every 500 ms for 10 s; counts its pings and records when
/// each ack arrived.
struct Pinger {
    peer: Option<NodeId>,
    sent: u64,
    acks: Vec<SimTime>,
}

impl Node<u32> for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        for tick in 1..=20u64 {
            ctx.set_timer(SimDuration::from_millis(tick * 500), tick);
        }
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, u32>) {
        ctx.send(self.peer.unwrap(), 0, ByteSize::from_bytes(10));
        self.sent += 1;
    }
    fn on_message(&mut self, _from: NodeId, _msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.acks.push(ctx.now());
    }
}

/// Acks every ping; counts its acks.
struct Acker {
    sent: u64,
}
impl Node<u32> for Acker {
    fn on_message(&mut self, from: NodeId, _msg: u32, ctx: &mut Ctx<'_, u32>) {
        ctx.send(from, 1, ByteSize::from_bytes(10));
        self.sent += 1;
    }
}

/// Raw material for one fault entry. `slot` gives every entry a distinct
/// time window (insertion order must not matter, but two opposite actions at
/// the *same instant* are genuinely ambiguous, so the generator keeps
/// instants distinct).
#[derive(Debug, Clone, Copy)]
struct RawFault {
    partition: bool,
    node: usize,
    peer: usize,
    offset_ms: u64,
    dur_ms: u64,
}

fn build_entries(raw: &[RawFault], nodes: &[NodeId]) -> Vec<FaultEntry> {
    let mut entries = Vec::new();
    for (slot, r) in raw.iter().enumerate() {
        let from = SimTime::from_millis(500 + slot as u64 * 1_300 + r.offset_ms);
        let to = from + SimDuration::from_millis(100 + r.dur_ms);
        let node = nodes[r.node % nodes.len()];
        if r.partition {
            let mut peer = nodes[r.peer % nodes.len()];
            if peer == node {
                peer = nodes[(r.peer + 1) % nodes.len()];
            }
            entries.push(FaultEntry::Partition {
                a: node,
                b: peer,
                from,
                to,
            });
        } else {
            entries.push(FaultEntry::Crash { node, at: from });
            entries.push(FaultEntry::Recover { node, at: to });
        }
    }
    entries
}

/// Deterministic Fisher–Yates driven by a seed (the vendored proptest shim
/// has no shuffle strategy).
fn permute<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

/// The plan the builder makes of `entries`, in order.
fn plan_of(entries: &[FaultEntry]) -> FaultPlan {
    entries
        .iter()
        .fold(FaultPlan::new(), |plan, &entry| match entry {
            FaultEntry::Crash { node, at } => plan.crash(node, at),
            FaultEntry::Recover { node, at } => plan.recover(node, at),
            FaultEntry::Partition { a, b, from, to } => plan.partition(a, b, from, to),
        })
}

fn run_with_plan(plan: &FaultPlan) -> (Vec<SimTime>, u64, u64) {
    let mut sim = Simulation::new(NetworkConfig::lan());
    let pinger = sim.add_node(Pinger {
        peer: None,
        sent: 0,
        acks: Vec::new(),
    });
    let acker = sim.add_node(Acker { sent: 0 });
    let idle = sim.add_node(Acker { sent: 0 }); // partition/outage target with no traffic
    sim.node_mut::<Pinger>(pinger).peer = Some(acker);
    plan.apply(&mut sim);
    sim.run_until_idle();
    let sent = sim.node_ref::<Pinger>(pinger).sent
        + sim.node_ref::<Acker>(acker).sent
        + sim.node_ref::<Acker>(idle).sent;
    let acks = sim.node_ref::<Pinger>(pinger).acks.clone();
    (acks, sent, sim.net_stats().dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying the same entries in a permuted order yields a byte-identical
    /// simulation outcome: same ack arrival times, same message and drop
    /// counts.
    #[test]
    fn fault_plan_apply_is_order_insensitive(
        raw in proptest::collection::vec(
            (any::<bool>(), 0usize..3, 0usize..3, 0u64..1_000, 0u64..4_000)
                .prop_map(|(partition, node, peer, offset_ms, dur_ms)| RawFault {
                    partition,
                    node,
                    peer,
                    offset_ms,
                    dur_ms,
                }),
            0..6,
        ),
        shuffle_seed in any::<u64>(),
    ) {
        let nodes = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let entries = build_entries(&raw, &nodes);

        let mut permuted = entries.clone();
        permute(&mut permuted, shuffle_seed);

        let baseline = run_with_plan(&plan_of(&entries));
        let shuffled = run_with_plan(&plan_of(&permuted));
        prop_assert_eq!(baseline, shuffled);
    }
}
