//! Deterministic discrete-event network simulator.
//!
//! `wcc-simnet` is the substrate under the trace-replay evaluation: it plays
//! the role the five SPARC-20 workstations and the 100 Mb/s Ethernet played
//! in the paper's experiments. It provides:
//!
//! * an **event queue** with a total order (time, then per-node lane and
//!   lane sequence), so every run is bit-for-bit reproducible; the bucket
//!   under the cursor is sorted once and drained from the back, so a burst
//!   of same-instant events pops without scanning, and a two-level
//!   occupancy bitmap finds the next non-empty bucket ([`event`]);
//! * a **generational arena** that parks in-flight events so the queue moves
//!   three-word handles and steady-state scheduling never touches the
//!   global allocator ([`arena`]);
//! * **actor nodes** addressed by [`NodeId`](wcc_types::NodeId) that react to
//!   messages and timers through the [`Node`] trait ([`node`]);
//! * a **network model** with per-link propagation latency and bandwidth
//!   (transfer time = latency + bytes / bandwidth), link failures and
//!   network partitions ([`net`]);
//! * **CPU busy-time accounting**: a node may [`Ctx::consume`] simulated CPU
//!   time, deferring its later deliveries — this is how the pseudo-server's
//!   utilisation and the synchronous-invalidation request stalls are
//!   reproduced. A busy node's waiting deliveries park in *one* event that
//!   holds a range of consecutive lane sequence numbers, in the arena slot
//!   of a delivery it holds (a lone one is re-keyed where it lies), so a
//!   backlog of `N` costs the `N` deliveries' slots, not one re-queue per
//!   waiting message per wake-up ([`sim`]; counters in [`DeferStats`]);
//! * **crash / recovery** of nodes with message loss while down ([`fault`]);
//! * small **metric primitives** (the drop count and min/avg/max
//!   summaries) used by the replay reports ([`metrics`]).
//!
//! There is one engine and it runs on one thread; independent replays run in
//! parallel on whole [`Simulation`]s, which is why [`Node`] is `Send`.
//!
//! # Example
//!
//! A two-node ping/pong:
//!
//! ```
//! use wcc_simnet::{Ctx, Node, Simulation, NetworkConfig};
//! use wcc_types::{ByteSize, NodeId, SimDuration};
//!
//! struct Ping { peer: Option<NodeId>, pongs: u32 }
//! struct Pong;
//!
//! impl Node<&'static str> for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
//!         ctx.send(self.peer.unwrap(), "ping", ByteSize::from_bytes(64));
//!     }
//!     fn on_message(&mut self, _from: NodeId, msg: &'static str, _ctx: &mut Ctx<'_, &'static str>) {
//!         assert_eq!(msg, "pong");
//!         self.pongs += 1;
//!     }
//! }
//! impl Node<&'static str> for Pong {
//!     fn on_message(&mut self, from: NodeId, msg: &'static str, ctx: &mut Ctx<'_, &'static str>) {
//!         assert_eq!(msg, "ping");
//!         ctx.send(from, "pong", ByteSize::from_bytes(64));
//!     }
//! }
//!
//! let mut sim = Simulation::new(NetworkConfig::lan());
//! let ping = sim.add_node(Ping { peer: None, pongs: 0 });
//! let pong = sim.add_node(Pong);
//! sim.node_mut::<Ping>(ping).peer = Some(pong);
//! sim.run_until_idle();
//! assert_eq!(sim.node_ref::<Ping>(ping).pongs, 1);
//! assert_eq!(sim.net_stats().dropped, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod node;
pub mod sim;

pub use arena::{Arena, ArenaStats, Handle};
pub use event::EventQueue;
pub use fault::{FaultEntry, FaultPlan};
pub use metrics::{NetStats, Summary};
pub use net::{LinkSpec, NetworkConfig};
pub use node::{Ctx, Node, TimerId};
pub use sim::{DeferStats, Simulation};
