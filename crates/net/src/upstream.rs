//! The upward hop (proxy→origin, proxy→parent, parent→origin).
//!
//! [`Upstream`] is what a role keeps beside its [`ProxyCore`] (a parent's
//! is inside its `ParentCore`): who waits for each flight ([`Waiter`]: a
//! client of the reactor, or a thread blocked in
//! [`crate::NetProxy::fetch`]), when a flight is given up
//! ([`UPSTREAM_TIMEOUT`] after it began, on the node's clock), and that
//! every re-dial of a dropped upstream connection settles all flights that
//! were on it: sent once more if it succeeded and they had not been
//! already, failed otherwise. Every flight, and every push the core
//! acknowledges, travels on the node's one upstream connection.

use std::borrow::{Borrow, BorrowMut};
use std::io;
use std::sync::mpsc::Sender;
use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_core::{Complete, FetchOutcome, ProxyCore};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{GetRequest, HttpMsg, ReplyRef, RequestId};
use wcc_types::{ByteSize, SimDuration, SimTime};

use crate::evloop::{Out, Outbox, Ticket, UPSTREAM};

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

    /// The flight is answered at `now`: its latency goes on `latency`.
    pub fn done(self, latency: &mut Histogram, now: SimTime) -> Waiter {
        latency.record(now.saturating_since(self.begun).as_micros());
        self.who
    }
}

/// A parent's flight: the child's `GET` it answers, and who waits.
impl Borrow<Waiting> for (GetRequest, Waiting) {
    fn borrow(&self) -> &Waiting {
        &self.1
    }
}

impl BorrowMut<Waiting> for (GetRequest, Waiting) {
    fn borrow_mut(&mut self) -> &mut Waiting {
        &mut self.1
    }
}

impl From<(GetRequest, Waiting)> for Waiting {
    fn from((_, waiting): (GetRequest, Waiting)) -> Waiting {
        waiting
    }
}

/// The cache of a proxy or parent of `capacity`.
pub(crate) fn cache(capacity: ByteSize) -> CacheStore {
    CacheStore::new(capacity, ReplacementPolicy::ExpiredFirstLru)
}

/// The reactor side's bookkeeping about a node's flights.
#[derive(Default)]
pub(crate) struct Upstream {
    /// Flights given up after [`UPSTREAM_TIMEOUT`].
    pub timeouts: u64,
    /// Times the upstream connection was re-established.
    pub redials: u64,
    /// Node-time latency from `begin` to the answer, hits included.
    pub latency: Histogram,
}

impl Upstream {
    /// A reply frame arrived from upstream at `now`. Returns
    /// the finished fetch if a client on the reactor waits for it; a
    /// blocked caller is sent its outcome here, a reply that has to be
    /// fetched again is re-forwarded, one nobody waits for is dropped.
    pub fn landed(
        &mut self,
        core: &mut ProxyCore<Waiting>,
        reply: ReplyRef<'_>,
        now: SimTime,
        out: &mut Outbox,
    ) -> Option<(FetchOutcome, Ticket, GetRequest)> {
        match core.complete(reply.req, &reply.into(), now)? {
            Complete::Forward(get) => {
                out.push(Out::Push(UPSTREAM, HttpMsg::Get(get)));
                None
            }
            Complete::Done { outcome, waiter } => match waiter.done(&mut self.latency, now) {
                Waiter::Client(ticket, get) => Some((outcome, ticket, get)),
                Waiter::Caller(tx) => {
                    let _ = tx.send(Ok(outcome));
                    None
                }
            },
        }
    }

    /// Gives up on flight `req`: a client waiting on the reactor has its
    /// connection closed behind the replies ahead of this one, a blocked
    /// caller gets `TimedOut`.
    fn fail<W: Into<Waiting>>(core: &mut ProxyCore<W>, req: RequestId, out: &mut Outbox) {
        match core.abandon(req).map(|waiting| waiting.into().who) {
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
    pub fn next_deadline<W: Borrow<Waiting>>(core: &ProxyCore<W>) -> Option<SimTime> {
        core.oldest()
            .map(|(_, w)| w.borrow().begun + UPSTREAM_TIMEOUT)
    }

    /// Fails every flight that timed out by `now`.
    pub fn expire<W: Borrow<Waiting> + Into<Waiting>>(
        &mut self,
        core: &mut ProxyCore<W>,
        now: SimTime,
        out: &mut Outbox,
    ) {
        while let Some((req, oldest)) = core.oldest() {
            if oldest.borrow().begun + UPSTREAM_TIMEOUT > now {
                break;
            }
            self.timeouts += 1;
            Self::fail(core, req, out);
        }
    }

    /// The upstream connection had dropped and was dialled again: settles
    /// every flight that was on it.
    pub fn redialled<W: BorrowMut<Waiting> + Into<Waiting>>(
        &mut self,
        core: &mut ProxyCore<W>,
        up: bool,
        out: &mut Outbox,
    ) {
        self.redials += u64::from(up);
        let mut lost = Vec::new();
        for (sent, waiting) in core.flights_mut() {
            let waiting: &mut Waiting = waiting.borrow_mut();
            if up && !waiting.resent {
                waiting.resent = true;
                out.push(Out::Push(UPSTREAM, HttpMsg::Get(*sent)));
            } else {
                lost.push(sent.req);
            }
        }
        for req in lost {
            Self::fail(core, req, out);
        }
    }

    /// The upstream families of a node's `/metrics`.
    pub fn render<W>(&self, core: &ProxyCore<W>, r: &mut Registry, node: &[(&str, &str)]) {
        let c = core.counters();
        r.set_counter(
            "wcc_invalidations_total",
            "INVALIDATEs received from upstream.",
            node,
            c.invalidations_received,
        );
        r.set_counter(
            "wcc_inval_batches_total",
            "Coalesced InvalidateBatch rounds received from upstream.",
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
            core.cache().len() as u64,
        );
        r.set_gauge(
            "wcc_upstream_in_flight",
            "Upstream requests awaiting their reply.",
            node,
            core.in_flight() as u64,
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
