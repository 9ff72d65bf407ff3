//! The paper's Table 1: closed-form message counts for one client viewing
//! one document, and an exact single-pair interpreter that drives the *real*
//! protocol state machines to cross-check the formulas.
//!
//! Following §3: let `R` be the number of times client C views document D,
//! and `RI` the number of intervals during which C repeatedly requests D
//! while D is unchanged (for the stream `r r r m m m r r m r r r m m r`,
//! `RI = 4`). Assuming C's cache always has space for D, the minimum traffic
//! for strong consistency is `RI` control messages plus `RI` file transfers.
//!
//! | messages | polling-every-time | invalidation | adaptive TTL |
//! |---|---|---|---|
//! | `GET` requests | 0 | RI | 0 |
//! | If-Modified-Since | R | 0 | TTL-missed |
//! | 304 replies | R − RI | 0 | TTL-missed − TTL-missed-and-new-doc |
//! | Invalidation | 0 | RI | 0 |
//! | total control | 2R − RI | 2RI | 2·TTL-missed − TTL-missed-and-new-doc |
//! | file transfers | RI | RI | RI − stale hits |
//!
//! The formulas idealise away the very first fetch, so the exact interpreter
//! ([`simulate`]) matches them up to ±1 on individual rows; the tests pin
//! down the exact relationships.

use crate::{ProtocolConfig, ProxyAction, ProxyPolicy, ServerConsistency, Trust};
use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_types::{ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};

/// One event in a single-client, single-document access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The client views the document (an `r` in the paper's notation).
    Request,
    /// The document is modified at the server (an `m`).
    Modify,
}

/// An [`Event`] with its occurrence time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// When the event happens.
    pub at: SimTime,
    /// What happens.
    pub event: Event,
}

/// Builds a timed stream from the paper's `r`/`m` notation, spacing events
/// `step` seconds apart.
///
/// # Examples
///
/// ```
/// use wcc_core::analytical::{parse_stream, seq_stats};
///
/// let events = parse_stream("rrrmmmrrmrrrmmr", 60);
/// let s = seq_stats(&events);
/// assert_eq!(s.r, 9);
/// assert_eq!(s.m, 6);
/// assert_eq!(s.ri, 4);
/// ```
///
/// # Panics
///
/// Panics if the string contains characters other than `r`, `m` and spaces.
pub fn parse_stream(stream: &str, step: u64) -> Vec<TimedEvent> {
    stream
        .chars()
        .filter(|c| !c.is_whitespace())
        .enumerate()
        .map(|(i, c)| TimedEvent {
            at: SimTime::from_secs((i as u64 + 1) * step),
            event: match c {
                'r' => Event::Request,
                'm' => Event::Modify,
                other => panic!("invalid event character {other:?}"),
            },
        })
        .collect()
}

/// The quantities Table 1 is parameterised on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeqStats {
    /// Total requests (`R`).
    pub r: u64,
    /// Total modifications.
    pub m: u64,
    /// Request intervals with no intervening modification (`RI`).
    pub ri: u64,
}

/// Computes `R`, `M` and `RI` for an event stream.
pub fn seq_stats(events: &[TimedEvent]) -> SeqStats {
    let mut stats = SeqStats::default();
    let mut in_run = false;
    for ev in events {
        match ev.event {
            Event::Request => {
                stats.r += 1;
                if !in_run {
                    stats.ri += 1;
                    in_run = true;
                }
            }
            Event::Modify => {
                stats.m += 1;
                in_run = false;
            }
        }
    }
    stats
}

/// Message counts for one client/document pair, in Table 1's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageCounts {
    /// Plain `GET` requests.
    pub plain_gets: u64,
    /// `If-Modified-Since` requests.
    pub ims: u64,
    /// `304 Not Modified` replies.
    pub replies_304: u64,
    /// File transfers (`200` replies).
    pub file_transfers: u64,
    /// `INVALIDATE` messages.
    pub invalidations: u64,
    /// Invalidations delivered by piggybacking (PSI; not extra messages).
    pub piggybacked: u64,
    /// Requests served from cache that returned a stale version to the user
    /// (each stale serve counted).
    pub stale_serves: u64,
    /// Request intervals served *entirely* from a stale copy — the "stale
    /// hits" that let adaptive TTL skip a file transfer in Table 1.
    pub stale_intervals: u64,
    /// `If-Modified-Since` requests sent because a TTL expired.
    pub ttl_missed: u64,
    /// Of those, how many found the document changed (and transferred it).
    pub ttl_missed_new_doc: u64,
}

impl MessageCounts {
    /// Control messages: everything except file-transfer payloads (Table 1's
    /// "Total Control Msg" row counts requests, 304s and invalidations).
    pub fn control_messages(&self) -> u64 {
        self.plain_gets + self.ims + self.replies_304 + self.invalidations
    }

    /// All messages (control + file transfers).
    pub fn total_messages(&self) -> u64 {
        self.control_messages() + self.file_transfers
    }
}

/// Table 1's polling-every-time column.
pub fn polling_formula(s: SeqStats) -> MessageCounts {
    MessageCounts {
        plain_gets: 0,
        ims: s.r,
        replies_304: s.r - s.ri,
        file_transfers: s.ri,
        ..MessageCounts::default()
    }
}

/// Table 1's invalidation column.
pub fn invalidation_formula(s: SeqStats) -> MessageCounts {
    MessageCounts {
        plain_gets: s.ri,
        file_transfers: s.ri,
        invalidations: s.ri,
        ..MessageCounts::default()
    }
}

/// Table 1's adaptive-TTL column, parameterised on the interpreter-measured
/// TTL quantities.
pub fn adaptive_ttl_formula(
    s: SeqStats,
    ttl_missed: u64,
    ttl_missed_new_doc: u64,
    stale_intervals: u64,
) -> MessageCounts {
    MessageCounts {
        plain_gets: 0,
        ims: ttl_missed,
        replies_304: ttl_missed - ttl_missed_new_doc,
        file_transfers: s.ri - stale_intervals,
        stale_intervals,
        ttl_missed,
        ttl_missed_new_doc,
        ..MessageCounts::default()
    }
}

/// Exactly interprets an event stream against the production protocol state
/// machines ([`ProxyPolicy`] + [`ServerConsistency`]) with an unbounded
/// cache and instantaneous delivery, returning the observed message counts.
///
/// This is the ground truth the Table 1 formulas approximate; the paper's
/// observations (e.g. "invalidation incurs at most twice the minimum number
/// of control messages") are asserted against it in the tests.
pub fn simulate(cfg: &ProtocolConfig, events: &[TimedEvent]) -> MessageCounts {
    let server_id = ServerId::new(0);
    let url = Url::new(server_id, 0);
    let client = ClientId::from_raw(1);
    let key = url.scoped(client);

    let by_ttl = matches!(
        cfg.policy().trust,
        Trust::AdaptiveTtl(_) | Trust::FixedTtl(_)
    );
    let mut proxy = ProxyPolicy::new(cfg);
    let mut server = ServerConsistency::new(cfg, server_id);
    let mut cache = CacheStore::unbounded(ReplacementPolicy::Lru);
    let mut counts = MessageCounts::default();

    // The document exists from t=0 with size 8 KiB.
    let mut current = DocMeta::new(ByteSize::from_kib(8), SimTime::ZERO);
    // Per-interval bookkeeping for the stale-interval identity.
    let mut interval_open = false;
    let mut interval_had_transfer = false;
    let mut interval_had_stale_serve = false;
    let close_interval = |counts: &mut MessageCounts, had_transfer: bool, had_stale: bool| {
        if had_stale && !had_transfer {
            counts.stale_intervals += 1;
        }
    };

    for ev in events {
        let now = ev.at;
        match ev.event {
            Event::Request => {
                if !interval_open {
                    interval_open = true;
                    interval_had_transfer = false;
                    interval_had_stale_serve = false;
                }
                let d = proxy.on_request(key, now, &mut cache);
                match d.action {
                    ProxyAction::ServeFromCache => {
                        // A serve-from-cache without a cache entry would be a
                        // proxy bug; count it as stale rather than panic so
                        // the interpreter stays total over any decision stream.
                        let cached_version = cache.peek(key).map(|e| e.meta.last_modified());
                        if cached_version != Some(current.last_modified()) {
                            counts.stale_serves += 1;
                            interval_had_stale_serve = true;
                        }
                    }
                    ProxyAction::SendGet { ims } => {
                        let is_ttl_miss = d.had_entry && by_ttl && ims.is_some();
                        if ims.is_some() {
                            counts.ims += 1;
                            if is_ttl_miss {
                                counts.ttl_missed += 1;
                            }
                        } else {
                            counts.plain_gets += 1;
                        }
                        let grant = server.on_get(url, client, ims, current, now);
                        counts.piggybacked += grant.piggyback.len() as u64;
                        proxy.on_piggyback(&grant.piggyback, client, &mut cache);
                        proxy.on_volume_grant(key, grant.volume_lease);
                        if grant.send_body {
                            counts.file_transfers += 1;
                            interval_had_transfer = true;
                            if is_ttl_miss {
                                counts.ttl_missed_new_doc += 1;
                            }
                            proxy.on_reply_200(key, current, grant.lease, now, &mut cache);
                        } else {
                            counts.replies_304 += 1;
                            let ok = proxy.on_reply_304(key, grant.lease, now, &mut cache);
                            debug_assert!(ok, "unbounded cache cannot evict");
                        }
                    }
                }
            }
            Event::Modify => {
                if interval_open {
                    close_interval(&mut counts, interval_had_transfer, interval_had_stale_serve);
                    interval_open = false;
                }
                current = DocMeta::new(current.size(), now);
                for recipient in server.on_modify(url, now) {
                    counts.invalidations += 1;
                    proxy.on_invalidate(url, recipient, &mut cache);
                    server.on_inval_ack(url, recipient);
                }
            }
        }
    }
    if interval_open {
        close_interval(&mut counts, interval_had_transfer, interval_had_stale_serve);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveTtlConfig, ProtocolKind};
    use wcc_types::SimDuration;

    const PAPER_STREAM: &str = "rrrmmmrrmrrrmmr";

    fn cfg(kind: ProtocolKind) -> ProtocolConfig {
        ProtocolConfig::new(kind)
    }

    #[test]
    fn paper_example_ri_is_four() {
        let events = parse_stream(PAPER_STREAM, 60);
        let s = seq_stats(&events);
        assert_eq!(s, SeqStats { r: 9, m: 6, ri: 4 });
    }

    #[test]
    fn parse_stream_accepts_spaces() {
        let spaced = parse_stream("r r r m", 10);
        let tight = parse_stream("rrrm", 10);
        assert_eq!(spaced, tight);
    }

    #[test]
    #[should_panic(expected = "invalid event character")]
    fn parse_stream_rejects_garbage() {
        parse_stream("rmx", 10);
    }

    #[test]
    fn polling_exact_vs_formula() {
        let events = parse_stream(PAPER_STREAM, 60);
        let s = seq_stats(&events);
        let exact = simulate(&cfg(ProtocolKind::PollEveryTime), &events);
        let formula = polling_formula(s);
        // The first-ever fetch is a plain GET in reality, an IMS in the
        // idealised formula; everything else matches exactly.
        assert_eq!(exact.plain_gets, 1);
        assert_eq!(exact.ims, formula.ims - 1);
        assert_eq!(exact.replies_304, formula.replies_304);
        assert_eq!(exact.file_transfers, formula.file_transfers);
        assert_eq!(exact.control_messages(), formula.control_messages());
        assert_eq!(exact.stale_serves, 0, "polling never serves stale bytes");
    }

    #[test]
    fn invalidation_exact_vs_formula() {
        let events = parse_stream(PAPER_STREAM, 60);
        let s = seq_stats(&events);
        let exact = simulate(&cfg(ProtocolKind::Invalidation), &events);
        let formula = invalidation_formula(s);
        assert_eq!(exact.plain_gets, formula.plain_gets);
        assert_eq!(exact.file_transfers, formula.file_transfers);
        // The trailing interval is never invalidated (the trace ends), so
        // the exact count is RI−1 here; the formula rounds up to RI.
        assert_eq!(exact.invalidations, formula.invalidations - 1);
        assert_eq!(exact.ims, 0);
        assert_eq!(exact.replies_304, 0);
        assert_eq!(exact.stale_serves, 0, "acks are instantaneous here");
    }

    #[test]
    fn invalidation_control_messages_at_most_twice_minimum() {
        // §3: "Invalidation incurs at most twice the minimum number of
        // control messages" (the minimum being RI).
        for stream in ["rrrmmmrrmrrrmmr", "rmrmrmrm", "rrrrrrrr", "mmmmrrr", "r"] {
            let events = parse_stream(stream, 30);
            let s = seq_stats(&events);
            let exact = simulate(&cfg(ProtocolKind::Invalidation), &events);
            assert!(
                exact.control_messages() <= 2 * s.ri,
                "{stream}: {} > 2·{}",
                exact.control_messages(),
                s.ri
            );
        }
    }

    #[test]
    fn adaptive_ttl_transfer_identity() {
        // With a large threshold the TTL never expires within the stream, so
        // every interval after the first is served entirely stale.
        let events = parse_stream(PAPER_STREAM, 60);
        let s = seq_stats(&events);
        let mut generous = cfg(ProtocolKind::AdaptiveTtl);
        generous.adaptive_ttl = AdaptiveTtlConfig {
            threshold: 1000.0,
            floor: SimDuration::from_days(100),
            cap: SimDuration::from_days(10_000),
        };
        let exact = simulate(&generous, &events);
        assert_eq!(exact.file_transfers, 1, "only the compulsory first fetch");
        assert_eq!(exact.stale_intervals, s.ri - 1);
        assert_eq!(exact.file_transfers, s.ri - exact.stale_intervals);
        assert!(exact.stale_serves >= exact.stale_intervals);
    }

    #[test]
    fn adaptive_ttl_zero_ttl_degenerates_to_polling_traffic() {
        // threshold→0 with zero floor: every hit revalidates, i.e. the
        // adaptive-TTL column becomes the polling column.
        let events = parse_stream(PAPER_STREAM, 60);
        let s = seq_stats(&events);
        let mut paranoid = cfg(ProtocolKind::AdaptiveTtl);
        paranoid.adaptive_ttl = AdaptiveTtlConfig {
            threshold: 0.0,
            floor: SimDuration::ZERO,
            cap: SimDuration::ZERO,
        };
        let exact = simulate(&paranoid, &events);
        let polling = simulate(&cfg(ProtocolKind::PollEveryTime), &events);
        assert_eq!(exact.file_transfers, polling.file_transfers);
        assert_eq!(exact.control_messages(), polling.control_messages());
        assert_eq!(exact.stale_serves, 0);
        assert_eq!(s.ri, exact.file_transfers);
    }

    #[test]
    fn ttl_formula_matches_interpreter_quantities() {
        let events = parse_stream("rrrrmmrrrrmmrrrr", 3600);
        let s = seq_stats(&events);
        // Default 10% threshold with a 30 s floor: expiries happen.
        let exact = simulate(&cfg(ProtocolKind::AdaptiveTtl), &events);
        let formula = adaptive_ttl_formula(
            s,
            exact.ttl_missed,
            exact.ttl_missed_new_doc,
            exact.stale_intervals,
        );
        assert_eq!(exact.ims, formula.ims);
        assert_eq!(exact.replies_304, formula.replies_304);
        assert_eq!(exact.file_transfers, formula.file_transfers);
    }

    #[test]
    fn bandwidth_saving_comes_only_from_staleness() {
        // §3's key observation: "the only times when adaptive TTL saves file
        // transfers over the other approaches are when stale documents are
        // returned to the user."
        for stream in ["rrrmmmrrmrrrmmr", "rmrmrm", "rrrrmrrrr"] {
            for step in [10u64, 600, 86_400] {
                let events = parse_stream(stream, step);
                let ttl = simulate(&cfg(ProtocolKind::AdaptiveTtl), &events);
                let poll = simulate(&cfg(ProtocolKind::PollEveryTime), &events);
                assert_eq!(
                    poll.file_transfers - ttl.file_transfers,
                    ttl.stale_intervals,
                    "stream {stream} step {step}"
                );
            }
        }
    }

    #[test]
    fn empty_and_degenerate_streams() {
        for kind in ProtocolKind::ALL {
            let zero = simulate(&cfg(kind), &[]);
            assert_eq!(zero, MessageCounts::default(), "{kind}");
            let only_mods = simulate(&cfg(kind), &parse_stream("mmmm", 10));
            assert_eq!(only_mods.total_messages(), 0, "{kind}");
        }
    }

    #[test]
    fn strong_protocols_never_serve_stale() {
        for kind in [
            ProtocolKind::PollEveryTime,
            ProtocolKind::Invalidation,
            ProtocolKind::LeaseInvalidation,
            ProtocolKind::TwoTierLease,
        ] {
            let exact = simulate(&cfg(kind), &parse_stream("rrmrmrrrmmrrrmr", 3600));
            assert_eq!(exact.stale_serves, 0, "{kind}");
            assert_eq!(exact.stale_intervals, 0, "{kind}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ProtocolKind;
    use proptest::prelude::*;

    fn stream_strategy() -> impl Strategy<Value = Vec<TimedEvent>> {
        (
            proptest::collection::vec(prop_oneof![Just('r'), Just('m')], 0..60),
            1u64..100_000,
        )
            .prop_map(|(chars, step)| {
                let s: String = chars.into_iter().collect();
                parse_stream(&s, step)
            })
    }

    proptest! {
        /// Polling: control-message totals match Table 1 exactly; transfers
        /// equal RI; never stale.
        #[test]
        fn polling_matches_table1(events in stream_strategy()) {
            let s = seq_stats(&events);
            let exact = simulate(&ProtocolConfig::new(ProtocolKind::PollEveryTime), &events);
            let formula = polling_formula(s);
            prop_assert_eq!(exact.control_messages(), formula.control_messages());
            prop_assert_eq!(exact.file_transfers, s.ri);
            prop_assert_eq!(exact.stale_serves, 0);
            prop_assert_eq!(exact.invalidations, 0);
        }

        /// Invalidation: GETs and transfers equal RI; invalidations are RI
        /// or RI−1 (the trailing interval); never more control messages than
        /// twice the minimum.
        #[test]
        fn invalidation_matches_table1(events in stream_strategy()) {
            let s = seq_stats(&events);
            let exact = simulate(&ProtocolConfig::new(ProtocolKind::Invalidation), &events);
            prop_assert_eq!(exact.plain_gets, s.ri);
            prop_assert_eq!(exact.file_transfers, s.ri);
            prop_assert!(exact.invalidations <= s.ri);
            prop_assert!(s.ri - exact.invalidations <= 1);
            prop_assert_eq!(exact.ims, 0);
            prop_assert!(exact.control_messages() <= 2 * s.ri);
            prop_assert_eq!(exact.stale_serves, 0);
        }

        /// Adaptive TTL: the transfer/staleness identity holds, and TTL
        /// saves bandwidth only through stale intervals.
        #[test]
        fn ttl_identity(events in stream_strategy()) {
            let s = seq_stats(&events);
            let exact = simulate(&ProtocolConfig::new(ProtocolKind::AdaptiveTtl), &events);
            prop_assert_eq!(exact.file_transfers, s.ri - exact.stale_intervals);
            prop_assert!(exact.stale_serves >= exact.stale_intervals);
            prop_assert_eq!(exact.replies_304, exact.ims - exact.ttl_missed_new_doc
                - (exact.ims - exact.ttl_missed)); // non-TTL IMS (questionable) are zero here
        }

        /// Lease protocols are strong for any interleaving.
        #[test]
        fn leases_never_stale(events in stream_strategy(), lease_secs in 1u64..1_000_000) {
            for kind in [ProtocolKind::LeaseInvalidation, ProtocolKind::TwoTierLease] {
                let cfg = ProtocolConfig::new(kind)
                    .with_lease(wcc_types::SimDuration::from_secs(lease_secs));
                let exact = simulate(&cfg, &events);
                prop_assert_eq!(exact.stale_serves, 0);
            }
        }
    }
}
