//! The parent of §2's hierarchy, written once for the simulator's
//! `ParentNode` and the daemon's `ParentRole`: a [`ProxyCore`] towards the
//! origin, holding every copy under the parent's one identity, and a
//! [`WritePath`] towards the children. [`ParentCore`] makes every decision
//! between the two; its drivers route, charge, trace and keep the clocks.
//!
//! A child's promise ends no later than the parent's. A grant's lease is
//! cut to the held copy's, its volume lease to the parent's own, and the
//! child is registered until the same instants, which are what goes on the
//! wire. A longer promise would outlive the origin's to the parent: a write
//! after that ran out is owed to nobody, and the child would serve the old
//! version.
//!
//! A child's `HELLO` and acknowledgements go whole into
//! [`ParentCore::on_site_frame`], under the origin's rule ([`crate::origin`]).

use crate::fetch::{Begin, Complete, ProxyCore, PushAck, UpstreamReply};
use crate::origin::{OriginOut, SiteVerdict, WritePath};
use crate::server::Promise;
use wcc_proto::{GetRequest, HttpMsg, Reply, RequestId};
use wcc_types::{ClientId, DocMeta, SimTime};

/// What a parent counts beside its fetch core's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParentCounters {
    /// Requests received from children.
    pub child_requests: u64,
    /// Of those, answered from the held copy without upstream contact.
    pub parent_hits: u64,
    /// `INVALIDATE`s relayed to children, re-sends included.
    pub invalidations_relayed: u64,
}

/// A parent's two halves and its identity. `W` is whatever the driver
/// needs to find a child again once its forwarded `GET` is answered.
#[derive(Debug)]
pub struct ParentCore<W> {
    identity: ClientId,
    /// Each flight carries the child's `GET` it answers.
    fetch: ProxyCore<(GetRequest, W)>,
    down: WritePath,
    counters: ParentCounters,
}

impl<W> ParentCore<W> {
    /// A parent holding copies as `identity` in `fetch`, with `down` for
    /// its children.
    pub fn new(identity: ClientId, fetch: ProxyCore<(GetRequest, W)>, down: WritePath) -> Self {
        let counters = ParentCounters::default();
        ParentCore {
            identity,
            fetch,
            down,
            counters,
        }
    }

    /// The counters, with the relays read off the write path.
    pub fn counters(&self) -> ParentCounters {
        let invalidations_relayed = self.down.snapshot().invalidations;
        ParentCounters {
            invalidations_relayed,
            ..self.counters
        }
    }

    /// The origin-facing fetch core.
    pub fn fetch(&self) -> &ProxyCore<(GetRequest, W)> {
        &self.fetch
    }

    /// The fetch core, for a driver that gives flights up or sends them again.
    pub fn fetch_mut(&mut self) -> &mut ProxyCore<(GetRequest, W)> {
        &mut self.fetch
    }

    /// The child-facing write path.
    pub fn down(&self) -> &WritePath {
        &self.down
    }

    /// The write path, for its timers.
    pub fn down_mut(&mut self) -> &mut WritePath {
        &mut self.down
    }

    /// A child asks, judged at `get.issued_at` (node time `now`); its §7
    /// report rides the parent's next contact upstream. Returns the answer
    /// from the held copy, or puts the `GET` to forward on `out` (`waiter`
    /// is called only then).
    pub fn child_get(
        &mut self,
        get: GetRequest,
        now: SimTime,
        waiter: impl FnOnce() -> W,
        out: &mut Vec<OriginOut>,
    ) -> Option<Reply> {
        self.counters.child_requests += 1;
        let (id, url, at) = (self.identity, get.url, get.issued_at);
        self.fetch.absorb_report(url, id, get.cache_hits);
        match self.fetch.begin(id, url, at, now, || (get, waiter())) {
            Begin::Serve(meta) => {
                self.counters.parent_hits += 1;
                Some(self.answer(&get, meta, now))
            }
            Begin::Forward(upstream) => forward(upstream, out),
        }
    }

    /// The reply to flight `req` arrived: the child's answer and who waits
    /// for it, or (the reply could not be used) a plain `GET` on `out`.
    /// `None` too for no such flight.
    pub fn landed(
        &mut self,
        req: RequestId,
        reply: &UpstreamReply,
        now: SimTime,
        out: &mut Vec<OriginOut>,
    ) -> Option<(Reply, W)> {
        match self.fetch.complete(req, reply, now)? {
            Complete::Done {
                outcome,
                waiter: (get, waiter),
            } => Some((self.answer(&get, outcome.meta, now), waiter)),
            Complete::Forward(get) => forward(get, out),
        }
    }

    /// Grants `get` the version `meta`, for no longer than the held copy is
    /// promised: not at all once it is gone.
    fn answer(&mut self, get: &GetRequest, meta: DocMeta, now: SimTime) -> Reply {
        let key = get.url.scoped(self.identity);
        let held = self.fetch.cache().peek(key);
        let until = Promise {
            lease: held.map_or(get.issued_at, |entry| entry.freshness.lease_expires),
            volume: self.fetch.policy().volume_end(key),
        };
        self.down.grant(get, meta, until, now).0
    }

    /// A push from above, applied as the parent's own copies and relayed
    /// from its ack, judged at protocol time `at`. The ack goes on `out`
    /// ahead of the relay, a bulk's behind it. Returns how many copies the
    /// push named (a bulk counts one); `None`, nothing applied, for a frame
    /// that is not a push.
    pub fn pushed(
        &mut self,
        push: HttpMsg,
        at: SimTime,
        now: SimTime,
        out: &mut Vec<OriginOut>,
    ) -> Option<u64> {
        let ack = self.fetch.on_push(push, Some(self.identity), now)?;
        let first = out.len();
        self.down.relay(&ack, at, now, out);
        let place = match ack {
            PushAck::Bulk { .. } => out.len(),
            PushAck::One(_) | PushAck::Round { .. } => first,
        };
        let copies = ack.copies();
        out.insert(place, OriginOut::Up(ack.into()));
        Some(copies)
    }

    /// A frame from the child on site `from` (`None`: no site), under the
    /// rule the origin's acknowledgements follow ([`crate::origin`]). A
    /// child's §7 report is taken only with an ack this tier waits for, so
    /// no child can make it keep reports for documents nobody invalidated.
    pub fn on_site_frame(
        &mut self,
        from: Option<u32>,
        frame: HttpMsg,
        now: SimTime,
        out: &mut Vec<OriginOut>,
    ) -> SiteVerdict {
        let verdict = self.down.admit(from, &frame, now, out);
        for e in frame.acked().filter(|_| verdict == SiteVerdict::Applied) {
            if !self.down.consistency().owed(e.url).is_empty() {
                self.fetch.absorb_report(e.url, self.identity, e.cache_hits);
            }
            self.down.ack(e.url, e.client, now);
        }
        verdict
    }
}

/// Puts `get` on `out` for the node above.
fn forward<T>(get: GetRequest, out: &mut Vec<OriginOut>) -> Option<T> {
    out.push(OriginOut::Up(HttpMsg::Get(get)));
    None
}
