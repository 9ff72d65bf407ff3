//! The upward hop (proxy→origin, proxy→parent, parent→origin).
//!
//! [`Upstream`] is what a role keeps: the sans-IO [`ProxyCore`] plus what
//! the socket side adds — who waits for each flight ([`Waiter`]: a client
//! of the reactor, or a thread blocked in [`crate::NetProxy::fetch`]), when
//! a flight is given up ([`UPSTREAM_TIMEOUT`] after it began, on the node's
//! clock), and that every re-dial of a dropped upstream connection settles
//! all flights that were on it: sent once more if it succeeded and they had
//! not been already, failed otherwise. Every flight travels on the node's
//! one upstream connection, the one its invalidations arrive on.

use std::io;
use std::sync::mpsc::Sender;
use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_core::{Complete, FetchOutcome, ProtocolConfig, ProxyCore, ProxyPolicy, UpstreamReply};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{BatchEntry, GetRequest, HttpMsg, HttpMsgRef, ReplyRef, RequestId};
use wcc_types::{ByteSize, ClientId, SimDuration, SimTime, Url};

use crate::evloop::{Cx, Out, Outbox, Role, Ticket, UPSTREAM};

/// How long a flight may stay unanswered before it is given up.
pub(crate) const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Who a flight's answer goes to.
pub(crate) enum Waiter {
    /// A reactor client: the ticket to redeem and the request it answers.
    Client(Ticket, GetRequest),
    /// A thread blocked in [`crate::NetProxy::fetch`].
    Caller(Sender<io::Result<FetchOutcome>>),
}

/// A flight's waiter and when it began.
pub(crate) struct Waiting {
    who: Waiter,
    /// The node's time when the fetch began.
    begun: SimTime,
    /// Already sent a second time, after a re-dial.
    resent: bool,
}

impl Waiting {
    pub fn new(who: Waiter, begun: SimTime) -> Waiting {
        Waiting {
            who,
            begun,
            resent: false,
        }
    }
}

/// A node's fetch state plus the reactor side's bookkeeping about it.
pub(crate) struct Upstream {
    pub core: ProxyCore<Waiting>,
    /// Flights given up after [`UPSTREAM_TIMEOUT`].
    pub timeouts: u64,
    /// Times the upstream connection was re-established.
    pub redials: u64,
    /// Node-time latency from `begin` to the answer, hits included.
    pub latency: Histogram,
}

impl Upstream {
    pub fn new(cfg: &ProtocolConfig, capacity: ByteSize) -> Upstream {
        let cache = CacheStore::new(capacity, ReplacementPolicy::ExpiredFirstLru);
        Upstream {
            core: ProxyCore::new(ProxyPolicy::new(cfg), cache),
            timeouts: 0,
            redials: 0,
            latency: Histogram::default(),
        }
    }

    /// A reply frame arrived from upstream at `now`. Returns
    /// the finished fetch if a client on the reactor waits for it; a
    /// blocked caller is sent its outcome here, a reply that has to be
    /// fetched again is re-forwarded, one nobody waits for is dropped.
    pub fn landed(
        &mut self,
        reply: &ReplyRef<'_>,
        now: SimTime,
        out: &mut Outbox,
    ) -> Option<(FetchOutcome, Ticket, GetRequest)> {
        match self.core.complete(reply.req, &UpstreamReply::from(reply))? {
            Complete::Forward(get) => {
                out.push(Out::Push(UPSTREAM, HttpMsg::Get(get)));
                None
            }
            Complete::Done { outcome, waiter } => {
                self.latency
                    .record(now.saturating_since(waiter.begun).as_micros());
                match waiter.who {
                    Waiter::Client(ticket, get) => Some((outcome, ticket, get)),
                    Waiter::Caller(tx) => {
                        let _ = tx.send(Ok(outcome));
                        None
                    }
                }
            }
        }
    }

    /// Any other frame from upstream, a push: applied, and acknowledged at
    /// once with the dying copies' unreported hits (the §7 report). A proxy's
    /// copies are its clients', as the frame names them; a parent's are all
    /// held as `own`. `each` is told every document invalidated by name.
    /// Returns whether the frame was the bulk `INVALIDATE <server>`; `None`
    /// for one that has no business coming from upstream.
    pub fn pushed<R: Role>(
        &mut self,
        cx: &mut Cx<'_, R>,
        msg: &HttpMsgRef<'_>,
        own: Option<ClientId>,
        mut each: impl FnMut(Url),
    ) -> Option<bool> {
        match msg {
            HttpMsgRef::Invalidate { url, client } => {
                // Drops the copy, poisoning any fetch of it in flight.
                let client = own.unwrap_or(*client);
                let cache_hits = self.core.on_invalidate(*url, client);
                cx.reply(HttpMsg::InvalAck {
                    url: *url,
                    client,
                    cache_hits,
                });
                each(*url);
            }
            HttpMsgRef::InvalidateBatch(batch) => {
                // One coalesced proposer round: every listed copy dropped
                // under a single lock and the whole round acked in one
                // message, the §7 hit reports carried per entry.
                let held_as = |e: BatchEntry| BatchEntry {
                    client: own.unwrap_or(e.client),
                    ..e
                };
                let named = batch.entries().into_iter().map(held_as);
                let entries = self.core.on_invalidate_batch(named);
                entries.iter().for_each(|e| each(e.url));
                cx.reply(HttpMsg::InvalidateBatchAck {
                    server: batch.server,
                    entries,
                });
            }
            HttpMsgRef::InvalidateServer { server } => {
                self.core.on_invalidate_server(*server);
                cx.reply(HttpMsg::InvalidateServerAck { server: *server });
                return Some(true);
            }
            HttpMsgRef::Get(_)
            | HttpMsgRef::Reply(_)
            | HttpMsgRef::InvalAck { .. }
            | HttpMsgRef::InvalidateBatchAck(_)
            | HttpMsgRef::InvalidateServerAck { .. }
            | HttpMsgRef::Hello { .. }
            | HttpMsgRef::MetricsGet
            | HttpMsgRef::Notify { .. } => return None,
        }
        Some(false)
    }

    /// Gives up on flight `req`: a client waiting on the reactor has its
    /// connection closed behind the replies ahead of this one, a blocked
    /// caller gets `TimedOut`.
    fn fail(&mut self, req: RequestId, out: &mut Outbox) {
        match self.core.abandon(req).map(|waiting| waiting.who) {
            Some(Waiter::Client(ticket, _)) => out.push(Out::Redeem(ticket, None)),
            Some(Waiter::Caller(tx)) => {
                let _ = tx.send(Err(io::ErrorKind::TimedOut.into()));
            }
            None => {}
        }
    }

    /// When the oldest flight times out. (A flight sent again under a new
    /// id keeps its clock but queues behind younger ones: it is given up
    /// no later than [`UPSTREAM_TIMEOUT`] after it was last sent.)
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.core.oldest().map(|(_, w)| w.begun + UPSTREAM_TIMEOUT)
    }

    /// Fails every flight that timed out by `now`.
    pub fn expire(&mut self, now: SimTime, out: &mut Outbox) {
        while let Some((req, oldest)) = self.core.oldest() {
            if oldest.begun + UPSTREAM_TIMEOUT > now {
                break;
            }
            self.timeouts += 1;
            self.fail(req, out);
        }
    }

    /// The upstream connection had dropped and was dialled again: settles
    /// every flight that was on it.
    pub fn redialled(&mut self, up: bool, out: &mut Outbox) {
        self.redials += u64::from(up);
        let mut lost = Vec::new();
        for (sent, waiting) in self.core.flights_mut() {
            if up && !waiting.resent {
                waiting.resent = true;
                out.push(Out::Push(UPSTREAM, HttpMsg::Get(sent.clone())));
            } else {
                lost.push(sent.req);
            }
        }
        for req in lost {
            self.fail(req, out);
        }
    }

    /// The upstream families of a node's `/metrics`.
    pub fn render(&self, r: &mut Registry, node: &[(&str, &str)]) {
        let c = self.core.counters();
        r.set_counter(
            "wcc_invalidations_total",
            "INVALIDATEs received on the push channel.",
            node,
            c.invalidations_received,
        );
        r.set_counter(
            "wcc_inval_batches_total",
            "Coalesced InvalidateBatch rounds received on the push channel.",
            node,
            c.inval_batches_received,
        );
        r.set_counter(
            "wcc_bulk_invalidations_total",
            "Bulk INVALIDATE <server> messages received (recovery).",
            node,
            c.bulk_invalidations_received,
        );
        r.set_gauge(
            "wcc_cached_entries",
            "Entries currently cached.",
            node,
            self.core.cache().len() as u64,
        );
        r.set_gauge(
            "wcc_upstream_in_flight",
            "Upstream requests awaiting their reply.",
            node,
            self.core.in_flight() as u64,
        );
        r.set_counter(
            "wcc_inval_races_total",
            "Upstream replies discarded because an invalidation overtook them.",
            node,
            c.inval_races,
        );
        r.set_counter(
            "wcc_upstream_timeouts_total",
            "Upstream requests given up unanswered.",
            node,
            self.timeouts,
        );
        r.set_counter(
            "wcc_upstream_redials_total",
            "Times the upstream connection was re-established.",
            node,
            self.redials,
        );
    }
}
