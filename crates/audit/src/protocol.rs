//! The protocol auditor: an independent, passive checker of the paper's
//! strong-consistency invariants over a recorded event stream.
//!
//! The auditor never looks at live protocol state — it re-derives everything
//! from the [`AuditEvent`] log, replaying a *shadow*
//! [`InvalidationTable`] beside it, so a bookkeeping bug in the server
//! cannot hide itself. Staleness is judged in *delivery* terms, matching
//! §3's definition of write completion: a cache serve is only a violation
//! if an invalidation for a newer version had already been **delivered** to
//! that cache. Serves that race an in-flight write are legal — the write is
//! not complete until every registered site is told (or its lease expires).

use std::fmt;
use wcc_core::{Delivery, InvalidationTable, Policy, SiteListStats, Trust};
use wcc_types::{AuditEvent, ClientId, FxHashMap, FxHashSet, ServerId, SimTime, Url};

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// A cache served a version older than one whose invalidation had
    /// already been delivered to it (or any cache serve, for polling).
    Staleness,
    /// A write was reported complete while invalidations were still
    /// outstanding, or acks/give-ups do not match sends.
    WriteCompletion,
    /// Site-list bookkeeping leaked or invented entries: the shadow replay
    /// of the invalidation table disagrees with the recorded actions.
    Conservation,
    /// An invalidation targeted a site the server had no live promise to.
    LeaseSafety,
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Check::Staleness => "staleness",
            Check::WriteCompletion => "write-completion",
            Check::Conservation => "conservation",
            Check::LeaseSafety => "lease-safety",
        })
    }
}

/// One invariant violation, with the event subsequence that proves it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The broken invariant.
    pub check: Check,
    /// Human-readable description.
    pub detail: String,
    /// The offending events, in stream order (kept short: the events that
    /// establish the violated promise plus the event that breaks it).
    pub trail: Vec<AuditEvent>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)?;
        for ev in &self.trail {
            write!(f, "\n    {ev:?}")?;
        }
        Ok(())
    }
}

/// End-of-run figures the audited system reported about itself, cross-
/// checked against what the event stream implies.
#[derive(Debug, Clone, Default)]
pub struct Expectations {
    /// `ServerStats::registrations` summed over all origins.
    pub registrations: u64,
    /// `ServerStats::invalidations_sent` summed over all origins (fresh
    /// fan-out recipients, excluding retries).
    pub fresh_invalidations: u64,
    /// End-of-run site-list statistics summed over all origins.
    pub sitelist: SiteListStats,
    /// Whether the system claims every write completed (all invalidations
    /// acknowledged) by the end of the run.
    pub writes_complete: bool,
}

/// The auditor's verdict over one event stream.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Events consumed.
    pub events: usize,
    /// Cache serves checked for staleness.
    pub checked_serves: u64,
    /// Every invariant violation found, in stream order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} events, {} serves checked, {} violation(s)",
            self.events,
            self.checked_serves,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Per-server shadow state for the conservation check.
#[derive(Default)]
struct Shadow {
    table: InvalidationTable,
}

/// Audits one event stream (sorted by [`AuditEvent::at`]; the merge in
/// `Deployment::audit_log` produces this order) against the invariants of
/// `policy`. Pass `expect` to additionally cross-check the system's own
/// end-of-run counters against what the stream implies.
pub fn audit(policy: Policy, events: &[AuditEvent], expect: Option<&Expectations>) -> AuditReport {
    let mut violations: Vec<Violation> = Vec::new();

    // Staleness state: per-document fan-out history (stream order, so
    // sorted by `at`), and per-(doc, site) the newest version whose
    // invalidation was delivered there.
    let mut fanouts: FxHashMap<Url, Vec<(SimTime, SimTime)>> = FxHashMap::default(); // at -> version
    let mut floor: FxHashMap<(Url, ClientId), (SimTime, AuditEvent)> = FxHashMap::default();
    let mut checked_serves = 0u64;

    // Write-completion state: outstanding invalidations keyed by
    // (doc, site), plus sites legitimately forgotten (give-up, crash).
    let mut pending: FxHashMap<(Url, ClientId), AuditEvent> = FxHashMap::default();
    let mut forgotten: FxHashSet<(Url, ClientId)> = FxHashSet::default();
    // Pairs whose pending entry was already acknowledged once: retransmitted
    // invalidations can be delivered (and acknowledged) more than once.
    let mut acked: FxHashSet<(Url, ClientId)> = FxHashSet::default();
    let mut dropped_allowance = 0u64;

    // Conservation state: the shadow invalidation tables and running sums.
    let mut shadows: FxHashMap<ServerId, Shadow> = FxHashMap::default();
    let mut registrations = 0u64;
    let mut taken_sum = 0u64;

    // Lease-safety state: the exact recipient set each fan-out announced;
    // every push must come out of it.
    let mut announced: FxHashMap<Url, FxHashSet<ClientId>> = FxHashMap::default();

    // Version a delivery at `at` implies the site now knows about.
    let delivered_version = |fanouts: &FxHashMap<Url, Vec<(SimTime, SimTime)>>,
                             url: Url,
                             at: SimTime|
     -> Option<SimTime> {
        let hist = fanouts.get(&url)?;
        let idx = hist.partition_point(|&(t, _)| t <= at);
        (idx > 0).then(|| hist[idx - 1].1)
    };

    for ev in events {
        match ev {
            AuditEvent::Touch { .. } => {}
            AuditEvent::Register {
                url, client, lease, ..
            } => {
                registrations += 1;
                shadows
                    .entry(url.server())
                    .or_default()
                    .table
                    .register(*url, *client, *lease);
            }
            AuditEvent::ModifyFanout {
                url,
                version,
                fresh,
                resent,
                at,
            } => {
                fanouts.entry(*url).or_default().push((*at, *version));
                let shadow = shadows.entry(url.server()).or_default();
                let taken = shadow.table.take_sites(*url, *version);
                taken_sum += taken.len() as u64;
                let taken_set: FxHashSet<ClientId> = taken.iter().copied().collect();
                // Lease safety: every fresh recipient must have held a live
                // registration that this drain collected.
                for c in fresh {
                    if !taken_set.contains(c) {
                        violations.push(Violation {
                            check: Check::LeaseSafety,
                            detail: format!(
                                "fan-out for {url} targets site {c} with no live registration"
                            ),
                            trail: vec![ev.clone()],
                        });
                    }
                }
                // Conservation: for exact push protocols the recipient set
                // must be precisely (still-pending ∪ live drain). Volume
                // leases push a subset (expired volumes fall back to
                // piggybacking); the rest push nothing.
                if policy.delivery == Delivery::Push && policy.volume.is_none() {
                    let lhs: FxHashSet<ClientId> =
                        fresh.iter().chain(resent.iter()).copied().collect();
                    let rhs: FxHashSet<ClientId> = resent.iter().copied().chain(taken).collect();
                    if lhs != rhs {
                        violations.push(Violation {
                            check: Check::Conservation,
                            detail: format!(
                                "fan-out for {url} disagrees with the shadow site list: \
                                 announced {lhs:?}, expected {rhs:?}"
                            ),
                            trail: vec![ev.clone()],
                        });
                    }
                }
                if policy.delivery != Delivery::Push && !fresh.is_empty() {
                    violations.push(Violation {
                        check: Check::Conservation,
                        detail: format!(
                            "a protocol that does not push invalidations fanned {url} out"
                        ),
                        trail: vec![ev.clone()],
                    });
                }
                // Accumulate rather than replace: with the batched proposer a
                // send can trail its announcing fan-out by a full batch round,
                // during which a coalescing write may fan this URL out again
                // with a different (even empty) recipient set.
                announced
                    .entry(*url)
                    .or_default()
                    .extend(fresh.iter().chain(resent.iter()).copied());
            }
            AuditEvent::InvalidateSend {
                url, client, retry, ..
            } => {
                let key = (*url, *client);
                if *retry {
                    if !pending.contains_key(&key) {
                        violations.push(Violation {
                            check: Check::WriteCompletion,
                            detail: format!(
                                "retry INVALIDATE {url} -> {client} targets a site that is \
                                 not awaiting one"
                            ),
                            trail: vec![ev.clone()],
                        });
                    }
                } else {
                    if !announced.get(url).is_some_and(|set| set.contains(client)) {
                        violations.push(Violation {
                            check: Check::LeaseSafety,
                            detail: format!(
                                "INVALIDATE {url} -> {client} was never announced by a fan-out"
                            ),
                            trail: vec![ev.clone()],
                        });
                    }
                    forgotten.remove(&key);
                    acked.remove(&key);
                    pending.insert(key, ev.clone());
                }
            }
            AuditEvent::InvalidateDelivered { url, client, at } => {
                if let Some(v) = delivered_version(&fanouts, *url, *at) {
                    let entry = floor.entry((*url, *client)).or_insert((v, ev.clone()));
                    if v >= entry.0 {
                        *entry = (v, ev.clone());
                    }
                }
            }
            AuditEvent::InvalidateAck { url, client, .. } => {
                let key = (*url, *client);
                if pending.remove(&key).is_some() {
                    acked.insert(key);
                } else if forgotten.contains(&key) || acked.contains(&key) {
                    // Late ack after a give-up / crash, or a duplicate ack
                    // from a retransmitted INVALIDATE whose original copy
                    // also arrived. The server absorbs both idempotently.
                } else {
                    violations.push(Violation {
                        check: Check::WriteCompletion,
                        detail: format!(
                            "ack for {url} from {client} without a matching INVALIDATE \
                             (more acks than sends)"
                        ),
                        trail: vec![ev.clone()],
                    });
                }
            }
            AuditEvent::PendingExpired { dropped, .. } => {
                dropped_allowance += dropped;
            }
            AuditEvent::GaveUp { url, abandoned, .. } => {
                for c in abandoned {
                    let key = (*url, *c);
                    if pending.remove(&key).is_none() {
                        violations.push(Violation {
                            check: Check::WriteCompletion,
                            detail: format!(
                                "gave up on {url} -> {c}, which was never awaiting an ack"
                            ),
                            trail: vec![ev.clone()],
                        });
                    } else {
                        forgotten.insert(key);
                    }
                }
            }
            AuditEvent::PurgeExpired {
                server,
                before,
                purged,
                ..
            } => {
                let shadow_purged = shadows
                    .entry(*server)
                    .or_default()
                    .table
                    .purge_expired(*before);
                if shadow_purged != *purged {
                    violations.push(Violation {
                        check: Check::Conservation,
                        detail: format!(
                            "lease GC on server {server} collected {purged} entries, shadow \
                             table says {shadow_purged}"
                        ),
                        trail: vec![ev.clone()],
                    });
                }
            }
            AuditEvent::ServerRecovered { server, .. } => {
                // Volatile state died with the crash: reset the shadow and
                // forgive the pending invalidations the bulk message now
                // covers.
                shadows.entry(*server).or_default().table = InvalidationTable::new();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "only removed and set-inserted below"
                )]
                let lost: Vec<(Url, ClientId)> = pending
                    .keys()
                    .filter(|(url, _)| url.server() == *server)
                    .copied()
                    .collect();
                for key in lost {
                    pending.remove(&key);
                    forgotten.insert(key);
                }
            }
            AuditEvent::BulkInvalidateDelivered { .. } => {
                // Raises no per-document floor: the bulk message names no
                // versions, and ignoring it can only under-report staleness,
                // never invent a violation.
            }
            AuditEvent::Serve {
                url,
                client,
                version,
                from_cache,
                ..
            } => {
                if !from_cache {
                    continue;
                }
                checked_serves += 1;
                if policy.trust == Trust::Never {
                    violations.push(Violation {
                        check: Check::Staleness,
                        detail: format!(
                            "{url} served to {client} straight from cache, where no copy is \
                             trusted"
                        ),
                        trail: vec![ev.clone()],
                    });
                    continue;
                }
                if let Some((known, delivery)) = floor.get(&(*url, *client)) {
                    if version < known {
                        violations.push(Violation {
                            check: Check::Staleness,
                            detail: format!(
                                "{url} served to {client} at version {version:?} after an \
                                 invalidation for version {known:?} was delivered"
                            ),
                            trail: vec![delivery.clone(), ev.clone()],
                        });
                    }
                }
            }
        }
    }

    if let Some(expect) = expect {
        if expect.writes_complete && pending.len() as u64 > dropped_allowance {
            #[expect(clippy::disallowed_methods, reason = "sorted below")]
            let mut owed: Vec<_> = pending.iter().collect();
            owed.sort_by_key(|&(key, ev)| (ev.at(), *key));
            let trail = owed.into_iter().map(|(_, ev)| ev.clone()).collect();
            violations.push(Violation {
                check: Check::WriteCompletion,
                detail: format!(
                    "system claims all writes complete, but {} invalidation(s) were never \
                     acknowledged (allowance for expired volumes: {dropped_allowance})",
                    pending.len()
                ),
                trail,
            });
        }
        if registrations != expect.registrations {
            violations.push(Violation {
                check: Check::Conservation,
                detail: format!(
                    "stream shows {registrations} registrations, server counted {}",
                    expect.registrations
                ),
                trail: Vec::new(),
            });
        }
        let sent_ok = match (policy.delivery, policy.volume) {
            (Delivery::Push, Some(_)) => expect.fresh_invalidations <= taken_sum,
            (Delivery::Push, None) => expect.fresh_invalidations == taken_sum,
            _ => expect.fresh_invalidations == 0,
        };
        if !sent_ok {
            violations.push(Violation {
                check: Check::Conservation,
                detail: format!(
                    "server counted {} fresh invalidations, shadow drain accounts for \
                     {taken_sum}",
                    expect.fresh_invalidations
                ),
                trail: Vec::new(),
            });
        }
        let mut stats = SiteListStats::default();
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "merge only sums and maxes"
        )]
        for shadow in shadows.values() {
            stats.merge(&shadow.table.stats());
        }
        if stats != expect.sitelist {
            violations.push(Violation {
                check: Check::Conservation,
                detail: format!(
                    "end-of-run site lists diverge: shadow {stats:?}, server {:?}",
                    expect.sitelist
                ),
                trail: Vec::new(),
            });
        }
    }

    AuditReport {
        events: events.len(),
        checked_serves,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_core::{ProtocolConfig, ProtocolKind};

    fn audit(
        kind: ProtocolKind,
        events: &[AuditEvent],
        expect: Option<&Expectations>,
    ) -> AuditReport {
        super::audit(ProtocolConfig::new(kind).policy(), events, expect)
    }

    fn url(doc: u32) -> Url {
        Url::new(ServerId::new(0), doc)
    }

    fn client(raw: u32) -> ClientId {
        ClientId::from_raw(raw)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A minimal clean invalidation round: register, modify, send, deliver,
    /// ack, then a fresh serve.
    fn clean_round() -> Vec<AuditEvent> {
        vec![
            AuditEvent::Register {
                url: url(1),
                client: client(7),
                lease: SimTime::NEVER,
                at: t(1),
            },
            AuditEvent::Serve {
                url: url(1),
                client: client(7),
                version: SimTime::ZERO,
                from_cache: false,
                at: t(1),
            },
            AuditEvent::Touch {
                url: url(1),
                version: t(10),
                at: t(10),
            },
            AuditEvent::ModifyFanout {
                url: url(1),
                version: t(10),
                fresh: vec![client(7)],
                resent: vec![],
                at: t(10),
            },
            AuditEvent::InvalidateSend {
                url: url(1),
                client: client(7),
                retry: false,
                at: t(10),
            },
            AuditEvent::InvalidateDelivered {
                url: url(1),
                client: client(7),
                at: t(11),
            },
            AuditEvent::InvalidateAck {
                url: url(1),
                client: client(7),
                at: t(12),
            },
            AuditEvent::Register {
                url: url(1),
                client: client(7),
                lease: SimTime::NEVER,
                at: t(13),
            },
            AuditEvent::Serve {
                url: url(1),
                client: client(7),
                version: t(10),
                from_cache: false,
                at: t(13),
            },
            AuditEvent::Serve {
                url: url(1),
                client: client(7),
                version: t(10),
                from_cache: true,
                at: t(14),
            },
        ]
    }

    fn expectations() -> Expectations {
        Expectations {
            registrations: 2,
            fresh_invalidations: 1,
            sitelist: SiteListStats {
                storage: wcc_types::ByteSize::from_bytes(
                    wcc_core::sitelist::LIST_OVERHEAD_BYTES + wcc_core::sitelist::ENTRY_BYTES,
                ),
                total_entries: 1,
                tracked_documents: 1,
                max_list_len: 1,
            },
            writes_complete: true,
        }
    }

    #[test]
    fn clean_round_passes_all_checks() {
        let report = audit(
            ProtocolKind::Invalidation,
            &clean_round(),
            Some(&expectations()),
        );
        assert!(report.is_clean(), "unexpected violations: {report}");
        assert_eq!(report.checked_serves, 1);
    }

    #[test]
    fn stale_serve_after_delivery_is_flagged() {
        let mut events = clean_round();
        // The cache serves the pre-modification version after the
        // invalidation for t(10) was delivered to it.
        events.push(AuditEvent::Serve {
            url: url(1),
            client: client(7),
            version: SimTime::ZERO,
            from_cache: true,
            at: t(20),
        });
        let report = audit(ProtocolKind::Invalidation, &events, None);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].check, Check::Staleness);
        // The trail pairs the delivery with the offending serve.
        assert_eq!(report.violations[0].trail.len(), 2);
    }

    #[test]
    fn concurrent_serve_before_delivery_is_legal() {
        let mut events = clean_round();
        // A serve of the old version between the fan-out and its delivery
        // is within the paper's write-completion window: not a violation.
        events.insert(
            5,
            AuditEvent::Serve {
                url: url(1),
                client: client(7),
                version: SimTime::ZERO,
                from_cache: true,
                at: t(10),
            },
        );
        let report = audit(ProtocolKind::Invalidation, &events, None);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn polling_must_never_serve_from_cache() {
        let events = vec![AuditEvent::Serve {
            url: url(1),
            client: client(7),
            version: SimTime::ZERO,
            from_cache: true,
            at: t(1),
        }];
        let report = audit(ProtocolKind::PollEveryTime, &events, None);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].check, Check::Staleness);
    }

    #[test]
    fn unacknowledged_send_breaks_claimed_write_completion() {
        let mut events = clean_round();
        events.retain(|ev| !matches!(ev, AuditEvent::InvalidateAck { .. }));
        let report = audit(ProtocolKind::Invalidation, &events, Some(&expectations()));
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == Check::WriteCompletion));
    }

    #[test]
    fn stray_ack_is_flagged() {
        let events = vec![AuditEvent::InvalidateAck {
            url: url(1),
            client: client(7),
            at: t(1),
        }];
        let report = audit(ProtocolKind::Invalidation, &events, None);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].check, Check::WriteCompletion);
    }

    #[test]
    fn fanout_to_unregistered_site_is_lease_unsafe() {
        let events = vec![AuditEvent::ModifyFanout {
            url: url(1),
            version: t(10),
            fresh: vec![client(9)],
            resent: vec![],
            at: t(10),
        }];
        let report = audit(ProtocolKind::Invalidation, &events, None);
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == Check::LeaseSafety));
    }

    #[test]
    fn expired_lease_must_not_be_invalidated() {
        let events = vec![
            AuditEvent::Register {
                url: url(1),
                client: client(7),
                lease: t(5),
                at: t(1),
            },
            // At t(10) the lease has expired; the drain is empty and the
            // fan-out must be too.
            AuditEvent::ModifyFanout {
                url: url(1),
                version: t(10),
                fresh: vec![client(7)],
                resent: vec![],
                at: t(10),
            },
        ];
        let report = audit(ProtocolKind::LeaseInvalidation, &events, None);
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == Check::LeaseSafety));
    }

    #[test]
    fn leaked_site_list_entry_is_caught_at_the_end() {
        // A registration the server "forgot" to report in its final stats.
        let events = vec![AuditEvent::Register {
            url: url(1),
            client: client(7),
            lease: SimTime::NEVER,
            at: t(1),
        }];
        let expect = Expectations {
            registrations: 1,
            fresh_invalidations: 0,
            sitelist: SiteListStats::default(), // claims an empty table
            writes_complete: true,
        };
        let report = audit(ProtocolKind::Invalidation, &events, Some(&expect));
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == Check::Conservation));
    }

    #[test]
    fn an_unacknowledged_fan_out_is_reported_in_key_order() {
        // Eight sends at one instant: the trail must not keep the pending
        // map's hash order, which differs from one process to the next.
        let clients: Vec<ClientId> = (1..=8).map(client).collect();
        let mut events: Vec<AuditEvent> = clients
            .iter()
            .map(|&c| AuditEvent::Register {
                url: url(1),
                client: c,
                lease: SimTime::NEVER,
                at: t(1),
            })
            .collect();
        events.push(AuditEvent::ModifyFanout {
            url: url(1),
            version: t(10),
            fresh: clients.clone(),
            resent: Vec::new(),
            at: t(10),
        });
        events.extend(clients.iter().map(|&c| AuditEvent::InvalidateSend {
            url: url(1),
            client: c,
            retry: false,
            at: t(10),
        }));
        let expect = Expectations {
            registrations: 8,
            fresh_invalidations: 8,
            sitelist: SiteListStats::default(),
            writes_complete: true,
        };
        let report = audit(ProtocolKind::Invalidation, &events, Some(&expect));
        let [violation] = report.violations.as_slice() else {
            panic!("{:?}", report.violations);
        };
        assert_eq!(violation.check, Check::WriteCompletion);
        let order: Vec<ClientId> = violation
            .trail
            .iter()
            .map(|ev| match ev {
                AuditEvent::InvalidateSend { client, .. } => *client,
                other @ (AuditEvent::Touch { .. }
                | AuditEvent::ModifyFanout { .. }
                | AuditEvent::Register { .. }
                | AuditEvent::InvalidateDelivered { .. }
                | AuditEvent::InvalidateAck { .. }
                | AuditEvent::PendingExpired { .. }
                | AuditEvent::GaveUp { .. }
                | AuditEvent::PurgeExpired { .. }
                | AuditEvent::ServerRecovered { .. }
                | AuditEvent::BulkInvalidateDelivered { .. }
                | AuditEvent::Serve { .. }) => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(order, clients);
    }

    #[test]
    fn purge_count_mismatch_is_caught() {
        let events = vec![
            AuditEvent::Register {
                url: url(1),
                client: client(7),
                lease: t(5),
                at: t(1),
            },
            AuditEvent::PurgeExpired {
                server: ServerId::new(0),
                before: t(100),
                purged: 0, // shadow will collect 1
                at: t(100),
            },
        ];
        let report = audit(ProtocolKind::LeaseInvalidation, &events, None);
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == Check::Conservation));
    }

    #[test]
    fn recovery_resets_shadow_and_forgives_pending() {
        let mut events = clean_round();
        events.retain(|ev| !matches!(ev, AuditEvent::InvalidateAck { .. }));
        events.push(AuditEvent::ServerRecovered {
            server: ServerId::new(0),
            at: t(30),
        });
        let expect = Expectations {
            registrations: 2,
            fresh_invalidations: 1,
            sitelist: SiteListStats::default(), // table wiped by recovery
            writes_complete: true,
        };
        let report = audit(ProtocolKind::Invalidation, &events, Some(&expect));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn gave_up_sites_stop_counting_against_write_completion() {
        let mut events = clean_round();
        events.retain(|ev| !matches!(ev, AuditEvent::InvalidateAck { .. }));
        events.push(AuditEvent::GaveUp {
            url: url(1),
            abandoned: vec![client(7)],
            at: t(60),
        });
        // A late ack after the give-up is tolerated, not a stray.
        events.push(AuditEvent::InvalidateAck {
            url: url(1),
            client: client(7),
            at: t(61),
        });
        let report = audit(ProtocolKind::Invalidation, &events, None);
        assert!(report.is_clean(), "{report}");
    }
}
