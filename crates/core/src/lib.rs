//! The paper's contribution: Web cache-consistency protocols.
//!
//! This crate implements the three consistency approaches compared by
//! Liu & Cao (ICDCS '97), their two §6 lease extensions, a fixed-TTL
//! baseline, PSI and volume leases as **pure state machines** with no I/O.
//! Each [`ProtocolKind`] is a preset of one [`Policy`], which
//! [`ProtocolConfig::policy`] derives from the preset and its durations:
//!
//! | Preset | Consistency | Proxy trusts a copy | Lease on `GET` / IMS | A change reaches a site | Volume lease |
//! |---|---|---|---|---|---|
//! | [`ProtocolKind::AdaptiveTtl`] | weak | for threshold × age | — | not at all | — |
//! | [`ProtocolKind::FixedTtl`] | weak | for `fixed_ttl` | — | not at all | — |
//! | [`ProtocolKind::PollEveryTime`] | strong | never | — | not at all | — |
//! | [`ProtocolKind::Invalidation`] | strong | until the promise ends | forever / forever | push | — |
//! | [`ProtocolKind::LeaseInvalidation`] | strong | until the promise ends | `lease` / `lease` | push | — |
//! | [`ProtocolKind::TwoTierLease`] | strong | until the promise ends | zero / `lease` | push | — |
//! | [`ProtocolKind::PiggybackInvalidation`] | weak | until the promise ends | forever / forever | piggyback | — |
//! | [`ProtocolKind::VolumeLease`] | strong | until the promise ends | forever / forever | push | `volume_lease` |
//!
//! The split mirrors the deployment: [`ProxyPolicy`] is the client-side half
//! (runs in each Harvest proxy), [`ServerConsistency`] is the server-side
//! half (runs in the accelerator in front of the origin server). Both are
//! driven by the discrete-event simulator in `wcc-httpsim` *and* by the real
//! TCP prototype in `wcc-net`, so the exact same protocol code is measured
//! in both settings.
//!
//! [`analytical`] implements the paper's Table 1 closed-form message-count
//! model, which the property tests cross-check against the simulator.
//!
//! # Example: one invalidation round trip
//!
//! ```
//! use wcc_cache::{CacheStore, ReplacementPolicy};
//! use wcc_core::{ProtocolConfig, ProtocolKind, ProxyAction, ProxyPolicy, ServerConsistency};
//! use wcc_types::{ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};
//!
//! let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
//! let mut proxy = ProxyPolicy::new(&cfg);
//! let mut server = ServerConsistency::new(&cfg, ServerId::new(0));
//! let mut cache = CacheStore::unbounded(ReplacementPolicy::Lru);
//!
//! let url = Url::new(ServerId::new(0), 1);
//! let client = ClientId::from_raw(9);
//! let key = url.scoped(client);
//! let t0 = SimTime::from_secs(10);
//!
//! // Miss → plain GET.
//! let d = proxy.on_request(key, t0, &mut cache);
//! assert!(matches!(d.action, ProxyAction::SendGet { ims: None }));
//!
//! // Server side: serves the doc, registers the site, grants an
//! // infinite lease (plain invalidation).
//! let doc = DocMeta::new(ByteSize::from_kib(4), SimTime::from_secs(1));
//! let grant = server.on_get(url, client, None, doc, t0);
//! assert!(grant.send_body);
//! assert!(grant.register);
//!
//! // Proxy caches the reply.
//! proxy.on_reply_200(key, doc, grant.lease, t0, &mut cache);
//! assert!(cache.peek(key).is_some());
//!
//! // The document changes → the server fans out one INVALIDATE.
//! let recipients = server.on_modify(url, SimTime::from_secs(20));
//! assert_eq!(recipients, vec![client]);
//!
//! // The proxy drops its copy and acks.
//! assert!(proxy.on_invalidate(url, client, &mut cache).is_some());
//! server.on_inval_ack(url, client);
//! assert_eq!(server.table().site_count(url), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]
#![deny(clippy::wildcard_enum_match_arm)]

pub mod analytical;
pub mod config;
pub mod economics;
pub mod fetch;
pub mod meter;
pub mod origin;
pub mod parent;
pub mod proposer;
pub mod proxy;
pub mod server;
pub mod sitelist;

pub use config::{
    AdaptiveTtlConfig, Delivery, Leases, Policy, ProtocolConfig, ProtocolKind, Trust,
};
pub use economics::{AdaptiveLeaseConfig, LeaseEconomics};
pub use fetch::{
    Begin, Complete, FetchCounters, FetchKind, FetchOutcome, ProxyCore, UpstreamReply,
};
pub use meter::{DocViews, HitMeter};
pub use origin::{OriginCore, OriginCounters, OriginOut, OriginTimer, SiteVerdict, WritePath};
pub use parent::{ParentCore, ParentCounters};
pub use proposer::{Proposer, ProposerStats};
pub use proxy::{ProxyAction, ProxyPolicy, RequestDisposition};
pub use server::{GetGrant, Promise, ServerConsistency};
pub use sitelist::{InvalidationTable, SiteListStats};
