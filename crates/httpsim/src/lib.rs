//! The simulated Harvest deployment: the paper's testbed as DES actors.
//!
//! The paper's experimental setup (§5.1) is five workstations on a 100 Mb/s
//! Ethernet: a *pseudo-server* running NCSA httpd plus the Harvest
//! accelerator, four *pseudo-clients* each running a Harvest proxy and a
//! trace-driver program, a *modifier* process on the server machine, and a
//! *time coordinator* that runs the replay "in lock step for every five
//! minutes". This crate reproduces each of those as a [`wcc_simnet::Node`]:
//!
//! * [`OriginNode`] — origin server + accelerator: serves `200`/`304`,
//!   maintains the invalidation table via
//!   [`ServerConsistency`](wcc_core::ServerConsistency), detects changes via
//!   the modifier's `NOTIFY` check-ins, fans out `INVALIDATE`s (per write,
//!   or coalesced by the batched proposer), retries unacknowledged
//!   invalidations, and accounts CPU/disk per the [`CostModel`];
//! * [`ProxyNode`] — a pseudo-client: a Harvest proxy (the
//!   [`ProxyCore`](wcc_core::ProxyCore) the TCP proxy also drives) plus the
//!   sequential trace driver that issues its partition of the trace and
//!   measures per-request latency;
//! * [`ModifierNode`] — touches one random file every `N` seconds of trace
//!   time and checks it in;
//! * [`CoordinatorNode`] — broadcasts the lock-step windows.
//!
//! Every node is a `Node<`[`wcc_proto::Message`]`>`: the simulation carries
//! the wire protocol's own messages and nothing else.
//!
//! ## Two clocks
//!
//! The replay is **time-compressed**, exactly like the paper's: within each
//! window, drivers issue their requests back-to-back and only processing,
//! queueing and wire delays advance the DES ("wall") clock. Consistency
//! logic — TTL ages, lease expiries, document mtimes — runs on **trace
//! time**, which travels inside the messages (the `Date` header equivalent),
//! mirroring the coordinator's broadcast simulated time. Latency, CPU
//! utilisation and disk rates are wall-clock quantities; freshness is a
//! trace-clock quantity.
//!
//! Use [`Deployment`] to assemble everything:
//!
//! ```
//! use wcc_core::{ProtocolConfig, ProtocolKind};
//! use wcc_traces::{synthetic, ModSchedule, TraceSpec};
//! use wcc_httpsim::{Deployment, DeploymentOptions};
//!
//! let spec = TraceSpec::epa().scaled_down(500);
//! let trace = synthetic::generate(&spec, 1);
//! let mods = ModSchedule::generate(spec.num_docs, spec.default_lifetime,
//!                                  spec.duration, 1);
//! let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
//! let mut deployment = Deployment::build(
//!     &trace, &mods, &cfg, DeploymentOptions::default());
//! deployment.run();
//! let report = deployment.collect();
//! assert_eq!(report.requests, trace.records.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::wildcard_enum_match_arm)]

pub mod coord;
pub mod cost;
pub mod deployment;
pub mod modifier;
pub mod origin;
pub mod parent;
pub mod proxy;

pub use coord::CoordinatorNode;
pub use cost::CostModel;
pub use deployment::{
    CacheSharing, ChangeDetection, Deployment, DeploymentOptions, ParentSummary, RawReport,
    ServeEvent, Topology,
};
pub use modifier::ModifierNode;
pub use origin::OriginNode;
pub use parent::ParentNode;
pub use proxy::ProxyNode;
pub use wcc_core::{ParentCounters, Proposer, ProposerStats};
