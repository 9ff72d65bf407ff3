//! The TCP parent-tier proxy, served by a readiness reactor.
//!
//! Children connect to the parent exactly as proxies connect to an origin
//! (keep-alive `GET` connections plus a persistent `HELLO` push channel);
//! the parent in turn is a client of the real origin, reusing a bounded
//! pool of upstream connections. One reactor thread owns the child-facing
//! listener and the upstream invalidation channel. A child `GET` the
//! parent cache can answer is answered on that thread — state lock taken
//! with `try_lock`, the policy's read-only probe asked first, then the
//! one child-`GET` handler, which for a hit does no I/O; every other
//! `GET` runs that same handler on a small worker pool, where it may
//! fetch upstream. Replies leave in pipeline order whichever thread
//! produced them. All of that machinery is the node runtime's
//! ([`crate::evloop`]); this file is the parent's state and its [`Role`].
//!
//! Concurrency note: one state lock serialises child requests against the
//! upstream invalidation channel, which incidentally *prevents* the
//! invalidation-overtakes-reply race that the simulator's parent must
//! handle with a poison flag — an `INVALIDATE` is processed either before
//! an upstream fetch starts or after its result is cached, never between.
//!
//! Unlike the thread-per-connection prototype, the parent now also relays
//! bulk `INVALIDATE <server>` messages (the §5 recovery barrage) down the
//! tree and acks them upstream, so a restarted origin recovers through a
//! hierarchy too.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_core::{ProtocolConfig, ProxyAction, ProxyPolicy, ServerConsistency};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{
    encode, BatchAckEntry, BatchEntry, GetRequest, HttpMsg, HttpMsgRef, Reply, ReplyStatus,
    RequestId,
};
use wcc_reactor::BoundedPool;
use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, Url, WallClock};

use crate::evloop::{self, After, Cx, Hello, Node, Outbox, Role, Via, WORKERS};
use crate::upstream::{pooled_roundtrip, UpstreamConn};

/// Counters for the TCP parent.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetParentCounters {
    /// Requests received from children.
    pub child_requests: u64,
    /// Of those, answered from the parent cache.
    pub parent_hits: u64,
    /// Requests forwarded to the origin.
    pub upstream_requests: u64,
    /// `INVALIDATE`s received from the origin (batched entries included:
    /// each entry of a coalesced round counts once here).
    pub invalidations_received: u64,
    /// Coalesced `InvalidateBatch` rounds received from the origin.
    pub inval_batches_received: u64,
    /// `INVALIDATE`s relayed to children.
    pub invalidations_relayed: u64,
    /// Bulk `INVALIDATE <server>`s received from the origin (recovery).
    pub bulk_invalidations_received: u64,
    /// Child `GET`s answered on the reactor thread: parent-cache hits that
    /// never crossed to a worker.
    pub reactor_hits: u64,
}

struct Protected {
    policy: ProxyPolicy,
    cache: CacheStore,
    children: ServerConsistency,
    next_req: RequestId,
    /// Latest trace time observed on a child request; used as "now" for
    /// child-lease decisions when relaying invalidations (which carry no
    /// timestamp).
    latest_trace: wcc_types::SimTime,
    counters: NetParentCounters,
    /// Wall-time child GET service latency (including upstream fetches).
    serve_latency: Histogram,
}

struct ParentState {
    identity: ClientId,
    origin: SocketAddr,
    server: ServerId,
    doc_scale: u64,
    protected: Mutex<Protected>,
    /// Bounded keep-alive pool for the parent→origin hop.
    upstream: Mutex<BoundedPool<UpstreamConn>>,
}

impl ParentState {
    /// Fetches `url` from the origin on behalf of a waiting child.
    /// Caller must hold the `protected` lock (passed in).
    fn fetch_upstream(
        &self,
        p: &mut Protected,
        url: Url,
        mut ims: Option<wcc_types::SimTime>,
        issued_at: wcc_types::SimTime,
        mut report_hits: u64,
    ) -> std::io::Result<DocMeta> {
        loop {
            let req = p.next_req;
            p.next_req = p.next_req.next();
            p.counters.upstream_requests += 1;
            let get = HttpMsg::Get(GetRequest {
                req,
                url,
                client: self.identity,
                ims,
                issued_at,
                cache_hits: report_hits,
            });
            let reply = pooled_roundtrip(&self.upstream, self.origin, &encode(&get))?;
            let key = url.scoped(self.identity);
            let Protected { policy, cache, .. } = &mut *p;
            policy.on_volume_grant(key, reply.volume_lease);
            if !reply.piggyback.is_empty() {
                policy.on_piggyback(&reply.piggyback, self.identity, cache);
            }
            match reply.meta {
                Some(meta) => {
                    policy.on_reply_200(key, meta, reply.lease, issued_at, cache);
                    return Ok(meta);
                }
                None => {
                    if policy.on_reply_304(key, reply.lease, issued_at, cache) {
                        return Ok(cache.peek(key).expect("validated entry").meta);
                    }
                    // Evicted mid-validation: plain refetch.
                    ims = None;
                    report_hits = 0;
                }
            }
        }
    }

    /// Answers one child `GET` end-to-end under the `protected` lock
    /// (passed in). Fetches upstream unless the parent cache can serve —
    /// which `ProxyPolicy::would_serve` tells beforehand.
    fn handle_child_get(&self, p: &mut Protected, get: &GetRequest) -> std::io::Result<HttpMsg> {
        p.counters.child_requests += 1;
        p.latest_trace = p.latest_trace.max(get.issued_at);
        let key = self.parent_key(get.url);
        if get.cache_hits > 0 && p.cache.peek(key).is_some() {
            p.cache.add_unreported_hits(key, get.cache_hits);
        }
        let disposition = {
            let Protected { policy, cache, .. } = &mut *p;
            policy.on_request(key, get.issued_at, cache)
        };
        let meta = match disposition.action {
            ProxyAction::ServeFromCache => {
                p.counters.parent_hits += 1;
                p.cache.peek(key).expect("parent hit").meta
            }
            ProxyAction::SendGet { ims } => {
                let report = disposition.report_hits;
                self.fetch_upstream(p, get.url, ims, get.issued_at, report)?
            }
        };
        let grant = p
            .children
            .on_get(get.url, get.client, get.ims, meta, get.issued_at);
        let status = if grant.send_body {
            ReplyStatus::Ok(Body::synthetic(meta, self.doc_scale))
        } else {
            ReplyStatus::NotModified
        };
        Ok(HttpMsg::Reply(Reply {
            req: get.req,
            url: get.url,
            client: get.client,
            status,
            lease: grant.lease,
            piggyback: grant.piggyback,
            volume_lease: grant.volume_lease,
        }))
    }

    fn parent_key(&self, url: Url) -> wcc_types::ScopedUrl {
        url.scoped(self.identity)
    }

    /// [`ParentState::handle_child_get`] with its wall time recorded under
    /// the same lock. Recorded before the reply ships: once the child's
    /// fetch returns, a scrape must already see this serve.
    fn timed_child_get(
        &self,
        p: &mut Protected,
        get: &GetRequest,
        clock: &WallClock,
    ) -> Option<HttpMsg> {
        let msg = self.handle_child_get(p, get).ok();
        p.serve_latency.record(clock.elapsed().as_micros());
        msg
    }

    /// The reactor's fast path: answers `get` if the state lock is free
    /// and the parent cache may serve it; `None` sends the request to the
    /// pool. Never waits (`try_lock`: a worker may hold the lock across an
    /// upstream round trip) and never does I/O.
    fn hit_on_reactor(&self, get: &GetRequest) -> Option<HttpMsg> {
        let clock = WallClock::start();
        let mut p = self.protected.try_lock()?;
        let key = self.parent_key(get.url);
        if !p.policy.would_serve(key, get.issued_at, &p.cache) {
            return None;
        }
        p.counters.reactor_hits += 1;
        self.timed_child_get(&mut p, get, &clock)
    }

    /// Origin pushed a coalesced `InvalidateBatch` round: drop our copy of
    /// every listed document under one lock, collect the children each
    /// entry must be relayed to, and build the single round ack (per-entry
    /// §7 hit reports included).
    fn handle_invalidate_batch(
        &self,
        server: wcc_types::ServerId,
        entries: &[BatchEntry],
    ) -> (HttpMsg, Vec<(Url, Vec<ClientId>)>) {
        let mut p = self.protected.lock();
        p.counters.invalidations_received += entries.len() as u64;
        p.counters.inval_batches_received += 1;
        let mut acks = Vec::with_capacity(entries.len());
        let mut relays = Vec::with_capacity(entries.len());
        for e in entries {
            let own_hits = {
                let Protected { policy, cache, .. } = &mut *p;
                policy
                    .on_invalidate(e.url, self.identity, cache)
                    .unwrap_or(0)
            };
            acks.push(BatchAckEntry {
                url: e.url,
                client: e.client,
                cache_hits: own_hits,
            });
            let now = p.latest_trace;
            relays.push((e.url, p.children.on_modify(e.url, now)));
        }
        (
            HttpMsg::InvalidateBatchAck {
                server,
                entries: acks,
            },
            relays,
        )
    }

    /// Origin pushed an `INVALIDATE`: drop our copy and return the ack to
    /// send upstream plus the children to relay to.
    fn handle_invalidate(&self, url: Url) -> (HttpMsg, Vec<ClientId>) {
        let mut p = self.protected.lock();
        p.counters.invalidations_received += 1;
        let own_hits = {
            let Protected { policy, cache, .. } = &mut *p;
            policy.on_invalidate(url, self.identity, cache).unwrap_or(0)
        };
        let now = p.latest_trace;
        let recipients = p.children.on_modify(url, now);
        (
            HttpMsg::InvalAck {
                url,
                client: self.identity,
                cache_hits: own_hits,
            },
            recipients,
        )
    }

    /// Renders the parent's registry as Prometheus text exposition.
    fn render_metrics(&self) -> String {
        let p = self.protected.lock();
        let node = [("node", "parent")];
        let c = &p.counters;
        let mut r = Registry::default();
        r.set_counter(
            "wcc_child_requests_total",
            "Requests received from children.",
            &node,
            c.child_requests,
        );
        r.set_counter(
            "wcc_hits_total",
            "Child requests answered from the parent cache.",
            &node,
            c.parent_hits,
        );
        r.set_counter(
            "wcc_misses_total",
            "Child requests that missed the parent cache.",
            &node,
            c.child_requests - c.parent_hits,
        );
        r.set_counter(
            "wcc_reactor_hits_total",
            "Child GETs answered on the reactor thread, no worker hop.",
            &node,
            c.reactor_hits,
        );
        r.set_counter(
            "wcc_upstream_requests_total",
            "Requests forwarded to the origin.",
            &node,
            c.upstream_requests,
        );
        r.set_counter(
            "wcc_invalidations_total",
            "INVALIDATEs received from the origin.",
            &node,
            c.invalidations_received,
        );
        r.set_counter(
            "wcc_inval_batches_total",
            "Coalesced InvalidateBatch rounds received from the origin.",
            &node,
            c.inval_batches_received,
        );
        r.set_counter(
            "wcc_invalidations_relayed_total",
            "INVALIDATEs relayed to children.",
            &node,
            c.invalidations_relayed,
        );
        r.set_counter(
            "wcc_bulk_invalidations_total",
            "Bulk INVALIDATE <server> messages received (recovery).",
            &node,
            c.bulk_invalidations_received,
        );
        let stats = p.children.table().stats();
        r.set_gauge(
            "wcc_sitelist_entries",
            "Live child site-list entries (granted leases / registrations).",
            &node,
            stats.total_entries,
        );
        r.set_gauge(
            "wcc_sitelist_tracked_documents",
            "Documents with a non-empty child site list.",
            &node,
            stats.tracked_documents,
        );
        r.set_gauge(
            "wcc_cached_entries",
            "Entries currently in the parent cache.",
            &node,
            p.cache.len() as u64,
        );
        r.set_histogram(
            "wcc_serve_latency_seconds",
            "Wall-time child GET service latency, upstream fetches included.",
            &node,
            &p.serve_latency,
        );
        r.render()
    }
}

/// A running TCP parent proxy. Shuts down on drop.
pub struct NetParent {
    addr: SocketAddr,
    state: Arc<ParentState>,
    _node: Node,
}

impl std::fmt::Debug for NetParent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetParent")
            .field("addr", &self.addr)
            .finish()
    }
}

impl NetParent {
    /// Spawns a parent tier in front of `origin`. Children should point
    /// their [`NetProxy::spawn`](crate::NetProxy::spawn) at
    /// [`NetParent::addr`].
    ///
    /// # Errors
    ///
    /// Returns socket errors from binding or the upstream registration.
    pub fn spawn(
        origin: SocketAddr,
        cfg: &ProtocolConfig,
        server: ServerId,
        capacity: ByteSize,
    ) -> std::io::Result<NetParent> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ParentState {
            identity: ClientId::from_raw(0),
            origin,
            server,
            doc_scale: 100,
            protected: Mutex::new(Protected {
                policy: ProxyPolicy::new(cfg),
                cache: CacheStore::new(capacity, ReplacementPolicy::ExpiredFirstLru),
                children: ServerConsistency::new(cfg, server),
                next_req: RequestId::default(),
                latest_trace: wcc_types::SimTime::ZERO,
                counters: NetParentCounters::default(),
                serve_latency: Histogram::default(),
            }),
            upstream: Mutex::new(BoundedPool::new(WORKERS + 2)),
        });

        // Upstream invalidation channel: the parent registers with the
        // origin as its one and only partition.
        let hello = Hello {
            upstream: origin,
            partition: 0,
            partitions: 1,
        };
        let role = ParentRole {
            state: Arc::clone(&state),
            channels: HashMap::new(),
            child_partitions: 0,
        };
        let node = evloop::spawn(role, &state, listener, None, Some(hello))?;
        Ok(NetParent {
            addr,
            state,
            _node: node,
        })
    }

    /// The address children connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn counters(&self) -> NetParentCounters {
        self.state.protected.lock().counters
    }

    /// The current Prometheus text exposition — the same body `GET
    /// /metrics` on [`NetParent::addr`] returns.
    pub fn metrics_text(&self) -> String {
        self.state.render_metrics()
    }
}

/// What a parent-side connection is. (A child connection is a plain
/// request conn until its `HELLO` also makes it a push channel.)
enum KTag {
    Child,
    /// The parent-initiated upstream invalidation channel.
    Upstream,
}

/// The parent's reactor-side state: which children to relay to.
struct ParentRole {
    state: Arc<ParentState>,
    /// Child push channels: partition → connection token.
    channels: HashMap<u32, u64>,
    /// Partition count declared by the children's `HELLO`s.
    child_partitions: u32,
}

impl ParentRole {
    /// Queues one per-child `INVALIDATE <url>` for every child with a
    /// live push channel, and counts them.
    fn relay(&self, out: &mut Outbox, url: Url, children: Vec<ClientId>) {
        let partitions = self.child_partitions.max(1);
        let before = out.len();
        for client in children {
            if let Some(&tok) = self.channels.get(&client.partition(partitions)) {
                out.push((tok, HttpMsg::Invalidate { url, client }));
            }
        }
        let relayed = (out.len() - before) as u64;
        if relayed > 0 {
            self.state.protected.lock().counters.invalidations_relayed += relayed;
        }
    }
}

impl Role for ParentRole {
    type Tag = KTag;
    type Job = GetRequest;
    type Shared = ParentState;
    const POOL: usize = WORKERS;

    fn tag(&self, via: Via) -> KTag {
        match via {
            Via::Dial => KTag::Upstream,
            Via::Listener | Via::Listener2 => KTag::Child,
        }
    }

    fn on_closed(&mut self, token: u64) {
        self.channels.retain(|_, t| *t != token);
    }

    /// Answers one child `GET` the reactor could not
    /// ([`ParentState::hit_on_reactor`]); the wait for the lock counts
    /// towards its latency.
    fn run_job(state: &ParentState, get: GetRequest) -> Option<HttpMsg> {
        let clock = WallClock::start();
        state.timed_child_get(&mut state.protected.lock(), &get, &clock)
    }

    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: &HttpMsgRef<'_>) -> After {
        let state = &self.state;
        match cx.tag {
            KTag::Upstream => match msg {
                HttpMsgRef::Invalidate { url, .. } => {
                    let (ack, recipients) = state.handle_invalidate(*url);
                    cx.reply(ack);
                    self.relay(cx.out, *url, recipients);
                    After::Keep
                }
                HttpMsgRef::InvalidateBatch(batch) => {
                    let (ack, relays) =
                        state.handle_invalidate_batch(batch.server, &batch.entries());
                    cx.reply(ack);
                    // Children ack per document (`InvalAck`), so a batch
                    // round fans out downstream as ordinary `INVALIDATE`s.
                    for (url, children) in relays {
                        self.relay(cx.out, url, children);
                    }
                    After::Keep
                }
                HttpMsgRef::InvalidateServer { server } => {
                    {
                        let mut p = state.protected.lock();
                        p.counters.bulk_invalidations_received += 1;
                        let Protected { policy, cache, .. } = &mut *p;
                        policy.on_invalidate_server(*server, cache);
                    }
                    cx.reply(HttpMsg::InvalidateServerAck { server: *server });
                    // Relay the bulk invalidation to every child channel.
                    for &tok in self.channels.values() {
                        cx.out
                            .push((tok, HttpMsg::InvalidateServer { server: *server }));
                    }
                    After::Keep
                }
                HttpMsgRef::Get(_)
                | HttpMsgRef::Reply(_)
                | HttpMsgRef::InvalAck { .. }
                | HttpMsgRef::InvalidateBatchAck(_)
                | HttpMsgRef::InvalidateServerAck { .. }
                | HttpMsgRef::Hello { .. }
                | HttpMsgRef::MetricsGet
                | HttpMsgRef::Notify { .. } => After::Close,
            },
            KTag::Child => match msg {
                HttpMsgRef::Get(get) if get.url.server() == state.server => {
                    match state.hit_on_reactor(get) {
                        Some(reply) => cx.reply(reply),
                        None => cx.submit(get.clone()),
                    }
                    After::Keep
                }
                HttpMsgRef::MetricsGet => cx.reply_metrics(&state.render_metrics()),
                HttpMsgRef::Hello {
                    partition,
                    partitions,
                } => {
                    self.child_partitions = (*partitions).max(1);
                    self.channels.insert(*partition, cx.token);
                    After::Keep
                }
                HttpMsgRef::InvalAck {
                    url,
                    client,
                    cache_hits,
                } => {
                    let mut p = state.protected.lock();
                    if *cache_hits > 0 {
                        let key = url.scoped(state.identity);
                        if p.cache.peek(key).is_some() {
                            p.cache.add_unreported_hits(key, *cache_hits);
                        }
                    }
                    p.children.on_inval_ack(*url, *client);
                    After::Keep
                }
                // A child acking a relayed bulk invalidation.
                HttpMsgRef::InvalidateServerAck { .. } => After::Keep,
                HttpMsgRef::Reply(_)
                | HttpMsgRef::Invalidate { .. }
                | HttpMsgRef::InvalidateServer { .. }
                | HttpMsgRef::Notify { .. } => After::Close,
                // Guard fallthrough: a Get for a foreign server.
                _ => After::Close,
            },
        }
    }
}
