//! The audit-event vocabulary: a passive record of every protocol-visible
//! action in a replay, consumed by the `wcc-audit` consistency auditor.
//!
//! Nodes append events as they act; the deployment merges the per-node logs
//! into one stream ordered by `at`. Versions inside payloads are *trace*
//! times (document mtimes), while `at` is the recording node's clock at the
//! moment it acted (the DES clock in the simulator) — the causal order the
//! auditor replays.

use crate::{ClientId, ServerId, SimTime, Url};

/// One protocol-visible action, recorded for post-run auditing.
///
/// The stream is append-only and strictly observational: recording events
/// never feeds back into protocol decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A modification check-in reached the accelerator: the document's
    /// mtime advanced to `version`.
    Touch {
        /// The modified document.
        url: Url,
        /// The new last-modified (trace) time.
        version: SimTime,
        /// The recording node's clock at the check-in.
        at: SimTime,
    },
    /// The server-side protocol processed a modification (`on_modify`):
    /// the site list was drained and a fan-out decided.
    ModifyFanout {
        /// The modified document.
        url: Url,
        /// The modification's trace time — also the logical `now` the
        /// server used to filter expired leases.
        version: SimTime,
        /// Sites freshly drained from the site list this fan-out, sorted.
        fresh: Vec<ClientId>,
        /// Previously un-acked sites re-targeted by this fan-out, sorted.
        resent: Vec<ClientId>,
        /// The recording node's clock at the decision.
        at: SimTime,
    },
    /// A client site was registered in a document's site list.
    Register {
        /// The requested document.
        url: Url,
        /// The registered site.
        client: ClientId,
        /// Lease expiry recorded with the entry (`SimTime::NEVER` for the
        /// plain-invalidation infinite promise).
        lease: SimTime,
        /// The recording node's clock at the grant.
        at: SimTime,
    },
    /// `INVALIDATE <url>` was sent (or dispatched) to one site.
    InvalidateSend {
        /// The invalidated document.
        url: Url,
        /// The target site.
        client: ClientId,
        /// `true` when this send is a retry of an un-acked invalidation.
        retry: bool,
        /// The recording node's clock at the send.
        at: SimTime,
    },
    /// A proxy received and processed `INVALIDATE <url>`.
    InvalidateDelivered {
        /// The invalidated document.
        url: Url,
        /// The addressed site.
        client: ClientId,
        /// The recording node's clock at delivery.
        at: SimTime,
    },
    /// The server received a site's invalidation acknowledgement.
    InvalidateAck {
        /// The acknowledged document.
        url: Url,
        /// The acknowledging site.
        client: ClientId,
        /// The recording node's clock at receipt.
        at: SimTime,
    },
    /// Volume leases: pending invalidations were dropped because the
    /// target sites' volume leases expired (the bounded-write rule).
    PendingExpired {
        /// The server whose pending set shrank.
        server: ServerId,
        /// Entries dropped.
        dropped: u64,
        /// The recording node's clock at the sweep.
        at: SimTime,
    },
    /// The retry budget for one document's fan-out was exhausted; the
    /// listed sites will never be re-sent this invalidation.
    GaveUp {
        /// The document whose fan-out was abandoned.
        url: Url,
        /// Sites still un-acked at abandonment, sorted.
        abandoned: Vec<ClientId>,
        /// The recording node's clock at abandonment.
        at: SimTime,
    },
    /// The server garbage-collected expired leases from its site lists.
    PurgeExpired {
        /// The purging server.
        server: ServerId,
        /// The cutoff: entries expiring at or before this instant went.
        before: SimTime,
        /// Entries collected.
        purged: u64,
        /// The recording node's clock at the sweep.
        at: SimTime,
    },
    /// The server recovered from a crash: volatile site lists and pending
    /// sets were discarded in favour of the bulk invalidation.
    ServerRecovered {
        /// The recovered server.
        server: ServerId,
        /// The recording node's clock at recovery.
        at: SimTime,
    },
    /// A proxy received the bulk `INVALIDATE <server-addr>` message.
    BulkInvalidateDelivered {
        /// The recovered server all of whose documents became questionable.
        server: ServerId,
        /// The recording node's clock at delivery.
        at: SimTime,
    },
    /// A proxy delivered a document to a user.
    Serve {
        /// The requested document.
        url: Url,
        /// The requesting site (the cache-scoping identity, i.e. the proxy
        /// identity for shared caches).
        client: ClientId,
        /// Last-modified (trace) time of the delivered copy.
        version: SimTime,
        /// `true` when served straight from the cache without contacting
        /// the origin.
        from_cache: bool,
        /// The recording node's clock at delivery.
        at: SimTime,
    },
}

impl AuditEvent {
    /// When the event was recorded: the recording node's clock (the DES clock in the simulator).
    pub fn at(&self) -> SimTime {
        match *self {
            AuditEvent::Touch { at, .. }
            | AuditEvent::ModifyFanout { at, .. }
            | AuditEvent::Register { at, .. }
            | AuditEvent::InvalidateSend { at, .. }
            | AuditEvent::InvalidateDelivered { at, .. }
            | AuditEvent::InvalidateAck { at, .. }
            | AuditEvent::PendingExpired { at, .. }
            | AuditEvent::GaveUp { at, .. }
            | AuditEvent::PurgeExpired { at, .. }
            | AuditEvent::ServerRecovered { at, .. }
            | AuditEvent::BulkInvalidateDelivered { at, .. }
            | AuditEvent::Serve { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerId;

    #[test]
    fn at_accessor_covers_every_variant() {
        let url = Url::new(ServerId::new(0), 1);
        let client = ClientId::from_raw(9);
        let t = SimTime::from_secs(5);
        let events = [
            AuditEvent::Touch {
                url,
                version: t,
                at: t,
            },
            AuditEvent::ModifyFanout {
                url,
                version: t,
                fresh: vec![client],
                resent: vec![],
                at: t,
            },
            AuditEvent::Register {
                url,
                client,
                lease: SimTime::NEVER,
                at: t,
            },
            AuditEvent::InvalidateSend {
                url,
                client,
                retry: false,
                at: t,
            },
            AuditEvent::InvalidateDelivered { url, client, at: t },
            AuditEvent::InvalidateAck { url, client, at: t },
            AuditEvent::PendingExpired {
                server: url.server(),
                dropped: 1,
                at: t,
            },
            AuditEvent::GaveUp {
                url,
                abandoned: vec![client],
                at: t,
            },
            AuditEvent::PurgeExpired {
                server: url.server(),
                before: t,
                purged: 0,
                at: t,
            },
            AuditEvent::ServerRecovered {
                server: url.server(),
                at: t,
            },
            AuditEvent::BulkInvalidateDelivered {
                server: url.server(),
                at: t,
            },
            AuditEvent::Serve {
                url,
                client,
                version: t,
                from_cache: true,
                at: t,
            },
        ];
        for ev in &events {
            assert_eq!(ev.at(), t);
        }
    }
}
