//! The proxy cache store: what Harvest's `cached` keeps on disk.
//!
//! A [`CacheStore`] maps per-client scoped URLs
//! ([`ScopedUrl`](wcc_types::ScopedUrl), the paper's `url@clientid` trick)
//! to [`Entry`] metadata, enforces a byte-capacity budget, and evicts under
//! one of two [`ReplacementPolicy`] disciplines:
//!
//! * [`ReplacementPolicy::Lru`] — classic least-recently-used;
//! * [`ReplacementPolicy::ExpiredFirstLru`] — Harvest's discipline, which
//!   "replaces expired documents first" and falls back to LRU. The paper
//!   shows this interacts badly with adaptive TTL's conservative lifetime
//!   estimates (the SASK hit-ratio anomaly), which our ablation A2
//!   reproduces.
//!
//! Recency is kept by [`Lru`], a hash index over a slab-allocated linked
//! list (O(1) touch, insert, remove and victim); only the expiry order,
//! whose key is not monotonic, is a tree.
//!
//! Consistency state (TTL expiry, lease expiry, the *questionable* flag set
//! by server-recovery invalidations) lives on each entry in a
//! [`Freshness`] record; the protocol state machines in `wcc-core` read and
//! update it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]

mod lru;
mod store;

pub use lru::Lru;
pub use store::{CacheStats, CacheStore, Entry, Freshness, InsertOutcome, ReplacementPolicy};
