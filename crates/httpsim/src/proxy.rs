//! A pseudo-client: Harvest proxy cache + sequential trace driver.
//!
//! The protocol side — policy, cache, the request in flight, a push applied
//! and acked, the rule for a reply an `INVALIDATE` overtook — is
//! [`wcc_core::ProxyCore`], which the TCP proxy drives too; it also records
//! the audit events of what was served and dropped. This node adds the trace
//! driver and its coordinator barrier, the cost model's CPU charges (read
//! off each ack), the request timeout and spans.

use crate::cost::CostModel;
use crate::deployment::ServeEvent;
use wcc_cache::CacheStore;
use wcc_core::{Begin, Complete, ProxyCore, ProxyPolicy};
use wcc_obs::{Phase, SpanKind, Tracer};
use wcc_proto::{CoordMsg, GetRequest, HttpMsg, Message, Reply};
use wcc_simnet::{Ctx, Node, Summary};
use wcc_traces::TraceRecord;
use wcc_types::{ByteSize, ClientId, NodeId, SimDuration, SimTime};

/// What a proxy counts beside its fetch core's
/// [`FetchCounters`](wcc_core::FetchCounters) ([`ProxyNode::core`]).
#[derive(Debug, Default, Clone)]
pub struct ProxyCounters {
    /// Requests re-issued after this proxy crashed mid-flight.
    pub reissued_after_crash: u64,
    /// Requests retransmitted after a wall-clock timeout (lost to a crashed
    /// or partitioned server).
    pub request_timeouts: u64,
    /// Times this proxy recovered from a crash.
    pub recoveries: u64,
    /// Cache entries marked questionable by crash recoveries.
    pub questionable_marked: u64,
    /// Bytes of protocol messages this proxy sent (requests + acks are
    /// counted by the byte row only for requests, matching the paper).
    pub bytes_sent: ByteSize,
}

impl ProxyCounters {
    /// Adds another proxy's counts to these.
    pub fn merge(&mut self, other: &ProxyCounters) {
        self.reissued_after_crash += other.reissued_after_crash;
        self.request_timeouts += other.request_timeouts;
        self.recoveries += other.recoveries;
        self.questionable_marked += other.questionable_marked;
        self.bytes_sent += other.bytes_sent;
    }
}

/// Who waits for the request in flight.
#[derive(Debug)]
pub struct Waiting {
    record: TraceRecord,
    /// Trace span the request belongs to (constant across retransmits and
    /// refetches: they are steps of the same lifetime).
    span: u64,
}

/// What the serve log keeps of one delivery: what its trace record lacks.
#[derive(Debug)]
struct Served {
    /// `Last-Modified` of the delivered version.
    version: SimTime,
    /// `true` if served straight from cache.
    from_cache: bool,
}

/// Wall-clock timeout after which an unanswered request is retransmitted
/// (covers replies lost to crashes and partitions).
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// A pseudo-client node: drives its partition of the trace sequentially
/// ("generates a corresponding HTTP request and sends it to the proxy, then
/// waits for the reply") and implements the proxy side of the protocol.
#[derive(Debug)]
pub struct ProxyNode {
    /// Policy, cache, the (at most one) request in flight and the audit log.
    pub(crate) core: ProxyCore<Waiting>,
    /// When that request last left; its latency is measured from here.
    wall_start: SimTime,
    /// When the request timer fires, which is also its token. One timer
    /// serves every flight in turn: armed only when none is pending, re-armed
    /// for the remainder when it fires before the open flight's ten seconds
    /// are up. In the past when none is pending — it fired, or came due while
    /// this node was down and the engine dropped it — so a crash cannot leave
    /// the proxy believing in a timer that will never fire.
    timer_due: SimTime,
    records: Vec<TraceRecord>,
    costs: CostModel,
    /// When set, this proxy is a *shared* cache: entries are scoped to this
    /// identity instead of the requesting real client, and upstream
    /// requests carry it (so the upstream site list tracks proxy sites, as
    /// deployed proxies do). `None` reproduces the paper's per-real-client
    /// emulation.
    identity: Option<ClientId>,
    /// Upstream node per origin server index (one entry in single-server
    /// deployments; the hierarchy parent also appears here).
    origins: Vec<NodeId>,
    coordinator: Option<NodeId>,
    next_idx: usize,
    window_end: SimTime,
    step: u32,
    step_done_sent: bool,
    /// Per-request latency (wall clock), the paper's latency rows.
    pub(crate) latency: Summary,
    /// Every user delivery, for the staleness audit: entry `i` answered
    /// `records[i]`. One request is in flight at a time, so the records are
    /// delivered in order, one delivery each, and the log never outgrows
    /// the stream it is reserved to.
    served: Vec<Served>,
    pub(crate) counters: ProxyCounters,
    /// Span recorder (disabled unless the deployment enables tracing;
    /// recording never feeds back into protocol state).
    pub(crate) tracer: Tracer,
}

impl ProxyNode {
    pub(crate) fn new(
        policy: ProxyPolicy,
        cache: CacheStore,
        records: Vec<TraceRecord>,
        costs: CostModel,
    ) -> Self {
        ProxyNode {
            core: ProxyCore::new(policy, cache),
            served: Vec::with_capacity(records.len()),
            wall_start: SimTime::ZERO,
            timer_due: SimTime::ZERO,
            records,
            costs,
            identity: None,
            origins: vec![NodeId::new(0)],
            coordinator: None,
            next_idx: 0,
            window_end: SimTime::ZERO,
            step: 0,
            step_done_sent: true,
            latency: Summary::default(),
            counters: ProxyCounters::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The span recorder (for trace-log collection).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub(crate) fn wire_multi(&mut self, origins: Vec<NodeId>, coordinator: NodeId) {
        assert!(!origins.is_empty(), "need at least one origin");
        self.origins = origins;
        self.coordinator = Some(coordinator);
    }

    /// The upstream node serving `server`.
    fn upstream(&self, server: wcc_types::ServerId) -> NodeId {
        self.origins[(server.index() as usize).min(self.origins.len() - 1)]
    }

    pub(crate) fn set_identity(&mut self, identity: ClientId) {
        self.identity = Some(identity);
    }

    /// The counters the fetch core does not keep.
    pub fn counters(&self) -> &ProxyCounters {
        &self.counters
    }

    /// The fetch core: cache, policy, the counters of requests, hits,
    /// `GET`/`IMS` sent, replies applied, invalidations and races, and the
    /// audit log.
    pub fn core(&self) -> &ProxyCore<Waiting> {
        &self.core
    }

    /// Per-request wall-clock latency summary.
    pub fn latency(&self) -> &Summary {
        &self.latency
    }

    /// The user-delivery log for the staleness audit, in record order.
    pub fn serves(&self) -> impl ExactSizeIterator<Item = ServeEvent> + '_ {
        let delivered = self.records.iter().zip(&self.served);
        delivered.map(|(record, served)| ServeEvent {
            url: record.url,
            client: record.client,
            trace_at: record.at,
            version: served.version,
            from_cache: served.from_cache,
        })
    }

    /// Sends `get` — the flight the core just opened, or opened again —
    /// upstream, under the request timer.
    fn forward(&mut self, get: GetRequest, ctx: &mut Ctx<'_, Message>) {
        let span = self.core.oldest().expect("the flight just opened").1.span;
        self.wall_start = ctx.now();
        self.tracer.record(
            ctx.now(),
            SpanKind::Request,
            span,
            Phase::Upstream,
            get.url,
            Some(get.client),
            Some(get.req.get()),
        );
        let upstream = self.upstream(get.url.server());
        let msg = HttpMsg::Get(get);
        let size = msg.wire_size();
        self.counters.bytes_sent += size;
        ctx.send(upstream, Message::Http(msg), size);
        if self.timer_due <= ctx.now() {
            self.arm(REQUEST_TIMEOUT, ctx);
        }
    }

    fn arm(&mut self, after: SimDuration, ctx: &mut Ctx<'_, Message>) {
        self.timer_due = ctx.now() + after;
        ctx.set_timer(after, self.timer_due.as_micros());
    }

    /// Hands `record`'s user the `version` it was answered with.
    fn deliver(&mut self, record: &TraceRecord, version: SimTime, from_cache: bool) {
        debug_assert_eq!(self.records.get(self.served.len()), Some(record));
        self.served.push(Served {
            version,
            from_cache,
        });
    }

    /// Issues records until one needs the origin (sequential driver) or the
    /// window is exhausted; cache hits complete inline.
    fn pump(&mut self, ctx: &mut Ctx<'_, Message>) {
        while self.core.in_flight() == 0 {
            let Some(&record) = self.records.get(self.next_idx) else {
                break;
            };
            if record.at >= self.window_end {
                break;
            }
            self.next_idx += 1;
            ctx.consume(self.costs.proxy_request_cpu);
            let span = self.tracer.begin_span();
            // The client id this proxy caches under and presents upstream.
            let client = self.identity.unwrap_or(record.client);
            self.tracer.record(
                ctx.now(),
                SpanKind::Request,
                span,
                Phase::Receive,
                record.url,
                Some(client),
                None,
            );
            let waiting = || Waiting { record, span };
            match self
                .core
                .begin(client, record.url, record.at, ctx.now(), waiting)
            {
                Begin::Serve(meta) => {
                    ctx.consume(self.costs.proxy_hit_cpu);
                    self.latency.observe(self.costs.proxy_hit_cpu);
                    self.tracer.record(
                        ctx.now(),
                        SpanKind::Request,
                        span,
                        Phase::Hit,
                        record.url,
                        Some(client),
                        None,
                    );
                    self.deliver(&record, meta.last_modified(), true);
                }
                Begin::Forward(get) => self.forward(get, ctx),
            }
        }
        self.maybe_step_done(ctx);
    }

    fn maybe_step_done(&mut self, ctx: &mut Ctx<'_, Message>) {
        let window_drained = self
            .records
            .get(self.next_idx)
            .is_none_or(|r| r.at >= self.window_end);
        if !self.step_done_sent && self.core.in_flight() == 0 && window_drained {
            self.step_done_sent = true;
            if let Some(coord) = self.coordinator {
                let msg = Message::Coord(CoordMsg::StepDone { step: self.step });
                let size = msg.wire_size();
                ctx.send(coord, msg, size);
            }
        }
    }

    fn handle_reply(&mut self, reply: Reply, ctx: &mut Ctx<'_, Message>) {
        let req = reply.req;
        // `None`: a reply from before a crash or a retransmit; the request
        // it answered has gone out again under a new id.
        let Some(landed) = self.core.complete(req, &reply.into(), ctx.now()) else {
            return;
        };
        let (waiting, version) = match landed {
            // With one request in flight nothing evicts the entry it
            // validates (no reply piggybacks its own document), so this
            // reply was overtaken by an invalidation: none of it was applied.
            Complete::Forward(get) => return self.forward(get, ctx),
            Complete::Done { outcome, waiter } => (waiter, outcome.meta.last_modified()),
        };
        let record = waiting.record;
        self.latency
            .observe(ctx.now().saturating_since(self.wall_start));
        self.tracer.record(
            ctx.now(),
            SpanKind::Request,
            waiting.span,
            Phase::Reply,
            record.url,
            Some(self.identity.unwrap_or(record.client)),
            Some(req.get()),
        );
        self.deliver(&record, version, false);
        self.pump(ctx);
    }

    /// A push from upstream, applied (and recorded) by the core; the charge
    /// is read off the ack. The work is per copy, so each entry of a round
    /// costs what a lone `INVALIDATE` costs, as does the bulk. The ack goes
    /// back to the sender, free on the byte row (see [`ProxyCounters`]).
    fn handle_push(&mut self, from: NodeId, push: HttpMsg, ctx: &mut Ctx<'_, Message>) {
        let Some(ack) = self.core.on_push(push, None, ctx.now()) else {
            return;
        };
        let copies = ack.acked().count().max(1) as u64;
        ctx.consume(self.costs.proxy_inval_cpu.saturating_mul(copies));
        let size = ack.wire_size();
        ctx.send(from, Message::Http(ack), size);
    }
}

impl Node<Message> for ProxyNode {
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Message>) {
        if token != self.timer_due.as_micros() {
            return; // due at the instant its successor was armed
        }
        // The open flight, if any, left at `wall_start`.
        let Some((req, _)) = self.core.oldest() else {
            return;
        };
        let left = (self.wall_start + REQUEST_TIMEOUT).saturating_since(ctx.now());
        if left > SimDuration::ZERO {
            // Armed for an earlier flight: wait out this one's remainder.
            self.arm(left, ctx);
        } else if let Some(get) = self.core.retransmit(req) {
            self.counters.request_timeouts += 1;
            self.forward(get, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_, Message>) {
        match msg {
            Message::Coord(CoordMsg::StepStart { step, window_end }) => {
                self.step = step;
                self.window_end = window_end;
                self.step_done_sent = false;
                self.pump(ctx);
            }
            Message::Http(HttpMsg::Reply(reply)) => self.handle_reply(reply, ctx),
            Message::Http(
                push @ (HttpMsg::Invalidate { .. }
                | HttpMsg::InvalidateBatch { .. }
                | HttpMsg::InvalidateServer { .. }),
            ) => self.handle_push(from, push, ctx),
            // Every remaining variant is a protocol violation for a proxy.
            // Spelled out (no `_`) so that adding a wire variant forces a
            // decision here: rustc refuses a new message, and the crate's
            // denied `clippy::wildcard_enum_match_arm` refuses a `_` arm.
            other @ (Message::Http(
                HttpMsg::Get(_)
                | HttpMsg::InvalAck { .. }
                | HttpMsg::InvalidateBatchAck { .. }
                | HttpMsg::InvalidateServerAck { .. }
                | HttpMsg::Hello { .. }
                | HttpMsg::MetricsGet
                | HttpMsg::Notify { .. },
            )
            | Message::Coord(CoordMsg::StepDone { .. })) => {
                debug_assert!(false, "proxy got unexpected message {other:?}");
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.counters.recoveries += 1;
        self.counters.questionable_marked += self.core.on_recover() as u64;
        // A request in flight when we crashed will never complete: re-issue
        // it so the driver can make progress.
        let lost = self.core.oldest().map(|(req, _)| req);
        match lost.and_then(|req| self.core.retransmit(req)) {
            Some(get) => {
                self.counters.reissued_after_crash += 1;
                self.forward(get, ctx);
            }
            None => self.pump(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deployment, DeploymentOptions};
    use wcc_core::{ProtocolConfig, ProtocolKind};
    use wcc_traces::{ModSchedule, Modification, Trace};
    use wcc_types::{ServerId, Url};

    fn record(secs: u64, client: u32, doc: u32) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_secs(secs),
            client: ClientId::from_raw(client),
            url: Url::new(ServerId::new(0), doc),
        }
    }

    /// The serve log holds one entry per delivered record, in record order,
    /// and neither it nor the record stream grows while the replay runs.
    #[test]
    fn the_serve_log_is_the_record_stream_zipped_with_what_was_delivered() {
        // Two clients on one proxy under invalidation. Client 0 misses on
        // document 0, then hits its copy; the write at 400 s (a window of
        // its own) invalidates that copy, so the read at 700 s misses again
        // and is answered with the new version.
        let records = vec![
            record(60, 0, 0),
            record(90, 1, 1),
            record(120, 0, 0),
            record(700, 0, 0),
        ];
        let trace = Trace {
            name: "handcrafted".into(),
            server: ServerId::new(0),
            duration: SimDuration::from_hours(1),
            doc_sizes: vec![ByteSize::from_kib(8); 2],
            records: records.clone(),
        };
        let write = Modification {
            at: SimTime::from_secs(400),
            doc: 0,
        };
        let mods = ModSchedule::from_modifications(2, vec![write]);
        let options = DeploymentOptions {
            num_proxies: 1,
            ..DeploymentOptions::default()
        };
        let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
        let mut d = Deployment::build(&trace, &mods, &cfg, options);
        let capacities = |p: &ProxyNode| (p.served.capacity(), p.records.capacity());
        let before = capacities(d.proxy(0));
        assert_eq!(before, (records.len(), records.len()));
        d.run();
        let proxy = d.proxy(0);
        assert_eq!(capacities(proxy), before, "no growth during the run");

        let serves: Vec<ServeEvent> = proxy.serves().collect();
        assert_eq!(serves.len(), records.len());
        for (serve, record) in serves.iter().zip(&records) {
            assert_eq!((serve.url, serve.client), (record.url, record.client));
            assert_eq!(serve.trace_at, record.at);
        }
        let event = |r: TraceRecord, version: u64, from_cache: bool| ServeEvent {
            url: r.url,
            client: r.client,
            trace_at: r.at,
            version: SimTime::from_secs(version),
            from_cache,
        };
        assert_eq!(serves[0], event(records[0], 0, false), "a miss");
        assert_eq!(serves[2], event(records[2], 0, true), "a hit");
        assert_eq!(serves[3], event(records[3], 400, false), "invalidated");
        assert_eq!(d.collect().stale_hits, 0);
    }
}
