//! Real-TCP prototype of the consistency protocols.
//!
//! Where `wcc-httpsim` replays traces through a discrete-event model of the
//! paper's testbed, this crate runs the *same protocol state machines*
//! ([`wcc_core::ProxyPolicy`] / [`wcc_core::ServerConsistency`]) over actual
//! `std::net` sockets with the text codec from [`wcc_proto::wire`] — the
//! analogue of the paper's Harvest prototype, runnable on loopback.
//!
//! * [`NetOrigin`] — origin server + accelerator: serves `GET`/IMS, accepts
//!   `NOTIFY` check-ins, and pushes `INVALIDATE`s to proxies over
//!   proxy-initiated persistent channels (firewall-friendly, per the
//!   paper's §7 remark);
//! * [`NetProxy`] — a caching proxy: a keep-alive client listener, plus a
//!   blocking [`NetProxy::fetch`] API for browsers (tests and examples) to
//!   call, whose misses travel on the node's own upstream connection;
//! * [`NetParent`] — the hierarchy's parent tier: children connect to it as
//!   if it were an origin (towards them it drives the origin's write path,
//!   [`wcc_core::WritePath`]), and it proxies misses upstream;
//! * [`check_in`] — the modifier's check-in utility.
//!
//! Like the paper's Harvest, each node is one thread on non-blocking
//! sockets (`evloop`) that does all of the node's socket I/O and owns all
//! of its state: a handle's method is a call that thread runs between
//! events, so a copy is served only where its invalidations land, and a
//! dead node fails every call. A request that needs the upstream is
//! forwarded and answered when the reply frame arrives, the fetch state
//! machine being [`wcc_core::ProxyCore`]; an invalidation is never kept
//! waiting behind a fetch, and a fetch it overtakes is repeated.
//!
//! Logical (trace) time is supplied by the caller on every operation, so
//! tests are deterministic; timeouts, retries and latencies run on one
//! clock per node, read by its runtime and told to its role. The sockets
//! provide real concurrency, real partial failures (dropped connections)
//! and real wire encoding.
//!
//! # Example
//!
//! ```no_run
//! use wcc_core::{ProtocolConfig, ProtocolKind};
//! use wcc_net::{check_in, NetOrigin, NetProxy, OriginConfig};
//! use wcc_types::{ByteSize, ClientId, ServerId, SimTime, Url};
//!
//! let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
//! let origin = NetOrigin::spawn(OriginConfig {
//!     server: ServerId::new(0),
//!     doc_sizes: vec![ByteSize::from_kib(8); 16],
//!     protocol: cfg.clone(),
//!     doc_scale: 100,
//!     inval_batch: None,
//! })?;
//! let proxy = NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(64))?;
//!
//! let url = Url::new(ServerId::new(0), 3);
//! let client = ClientId::from_raw(7);
//! let first = proxy.fetch(client, url, SimTime::from_secs(1))?;
//! assert!(!first.had_entry);
//!
//! // The document changes; the write completes once the proxy acked.
//! check_in(origin.addr(), url, SimTime::from_secs(10))?;
//! assert!(origin.wait_writes_complete(std::time::Duration::from_secs(2)));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]
#![deny(clippy::wildcard_enum_match_arm)]

mod downstream;
mod evloop;
mod origin;
mod parent;
mod proxy;
mod scrape;
mod upstream;

pub use origin::{check_in, NetOrigin, OriginConfig, OriginSnapshot};
pub use parent::{NetParent, NetParentCounters};
pub use proxy::{FetchKind, FetchOutcome, NetProxy, NetProxyCounters};
pub use scrape::scrape;
