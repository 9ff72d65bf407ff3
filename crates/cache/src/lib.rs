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
//! Recency is kept by [`Lru`], a hash index over a slab of slots. Until a
//! store first has to evict, an access only writes a growing stamp into
//! its slot and no expiry index is kept; the first eviction sorts the slots
//! by stamp into a linked list (O(1) touch, insert, remove and victim from
//! then on) and builds the expiry index, the one order, its key not
//! monotonic, that is a tree.
//!
//! Consistency state (TTL expiry, lease expiry, the *questionable* flag set
//! by server-recovery invalidations) lives on each entry in a
//! [`Freshness`] record; the protocol state machines in `wcc-core` read and
//! update it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod lru;
mod store;

pub use lru::Lru;
pub use store::{CacheStats, CacheStore, Entry, Freshness, InsertOutcome, ReplacementPolicy};
