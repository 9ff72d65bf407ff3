//! The TCP caching proxy, served by a readiness reactor.
//!
//! One reactor thread owns every socket the proxy touches: a
//! client-facing listener ([`NetProxy::client_addr`]) speaking keep-alive
//! HTTP/1.1 with pipelining, the `/metrics` scrape listener, and the
//! persistent invalidation channel to the origin (re-established with a
//! fresh `HELLO` on a 250 ms tick if the origin restarts — the proxy half
//! of the §5 recovery handshake). The loop, the pool and the channel
//! re-dial are the node runtime's ([`crate::evloop`]); this file is the
//! proxy's state and its [`Role`].
//!
//! A cache hit is answered where it arrives, on the reactor — the paper's
//! point is that a hit needs no server contact, so it should cost what the
//! cache costs. The reactor takes the policy lock with `try_lock` (it
//! never waits behind a fetch in flight), asks the policy's read-only
//! probe whether the cached copy may be served, and only then runs the
//! locked fetch path, which for a hit is a cache touch and three counters:
//! bounded, no I/O. Every other `GET` — lock busy, no entry, lease or TTL
//! expired, copy questionable — becomes a job for a small worker pool
//! whose members run that same locked fetch path, as does the blocking
//! [`NetProxy::fetch`] API. Workers hold the policy lock across the
//! upstream round trip, which serialises cache transitions against
//! invalidations exactly like the thread-per-connection prototype did;
//! the reactor's hits and the invalidations it applies from the push
//! channel take the same lock, so the strong-consistency guarantee is
//! unchanged. Job replies re-enter the reactor through a completion queue
//! and a waker; whichever thread produced them, replies leave in pipeline
//! order per connection. Upstream round trips reuse a bounded pool of
//! keep-alive connections ([`wcc_reactor::BoundedPool`]) instead of
//! dialing per request.

use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_core::{ProtocolConfig, ProxyAction, ProxyPolicy};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{
    encode, BatchAckEntry, GetRequest, HttpMsg, HttpMsgRef, Reply, ReplyStatus, RequestId,
};
use wcc_reactor::BoundedPool;
use wcc_types::{Body, ByteSize, ClientId, DocMeta, SimTime, Url, WallClock};

use crate::evloop::{self, After, Cx, Hello, Node, Role, Via, WORKERS};
use crate::upstream::{pooled_roundtrip, UpstreamConn};

/// How a [`NetProxy::fetch`] was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Served straight from the cache, no origin contact.
    CacheHit,
    /// Validated with `If-Modified-Since`; origin said `304`.
    Validated,
    /// Transferred from the origin (`200`).
    Fetched,
}

/// The result of one fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// How the request was satisfied.
    pub kind: FetchKind,
    /// Whether a cached entry existed when the request arrived.
    pub had_entry: bool,
    /// Metadata of the delivered version.
    pub meta: DocMeta,
}

/// Counters maintained by the proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetProxyCounters {
    /// Fetches served.
    pub requests: u64,
    /// Fetches that found a cached entry.
    pub hits: u64,
    /// Plain `GET`s sent upstream.
    pub gets_sent: u64,
    /// `If-Modified-Since` requests sent upstream.
    pub ims_sent: u64,
    /// `200` replies received.
    pub replies_200: u64,
    /// `304` replies received.
    pub replies_304: u64,
    /// `INVALIDATE`s received on the push channel (batched entries
    /// included: each entry of a coalesced round counts once here).
    pub invalidations_received: u64,
    /// Coalesced `InvalidateBatch` rounds received on the push channel.
    pub inval_batches_received: u64,
    /// Bulk `INVALIDATE <server>`s received.
    pub bulk_invalidations_received: u64,
    /// Piggybacked invalidations received (PSI).
    pub piggybacked_received: u64,
    /// Client connections dropped (accept/registration failure, or a
    /// fetch error forcing a close).
    pub dropped_connections: u64,
    /// Client-listener `GET`s answered on the reactor thread: cache hits
    /// that never crossed to a worker. `requests - reactor_hits` is the
    /// traffic that left the fast path (pool jobs and blocking fetches).
    pub reactor_hits: u64,
}

/// What the policy lock guards: the protocol state machine, the cache it
/// decides over, and the next upstream request id.
type Policy = (ProxyPolicy, CacheStore, RequestId);

struct ProxyState {
    origin: SocketAddr,
    policy: Mutex<Policy>,
    counters: Mutex<NetProxyCounters>,
    /// Wall-time latency of whole fetches (hits included), blocking API
    /// and reactor-served clients alike.
    fetch_latency: Mutex<Histogram>,
    /// Bounded keep-alive pool for the proxy→origin hop.
    upstream: Mutex<BoundedPool<UpstreamConn>>,
}

impl ProxyState {
    /// Renders the proxy's registry as Prometheus text exposition.
    fn render_metrics(&self) -> String {
        let node = [("node", "proxy")];
        let c = *self.counters.lock();
        let mut r = Registry::default();
        r.set_counter("wcc_requests_total", "Fetches served.", &node, c.requests);
        r.set_counter(
            "wcc_hits_total",
            "Fetches that found a cached entry.",
            &node,
            c.hits,
        );
        r.set_counter(
            "wcc_misses_total",
            "Fetches that found no cached entry.",
            &node,
            c.requests - c.hits,
        );
        r.set_counter(
            "wcc_reactor_hits_total",
            "Client GETs answered on the reactor thread, no worker hop.",
            &node,
            c.reactor_hits,
        );
        r.set_counter(
            "wcc_gets_sent_total",
            "Plain GETs sent upstream.",
            &node,
            c.gets_sent,
        );
        r.set_counter(
            "wcc_ims_sent_total",
            "If-Modified-Since requests sent upstream.",
            &node,
            c.ims_sent,
        );
        r.set_counter(
            "wcc_replies_200_total",
            "200 replies received.",
            &node,
            c.replies_200,
        );
        r.set_counter(
            "wcc_replies_304_total",
            "304 replies received.",
            &node,
            c.replies_304,
        );
        r.set_counter(
            "wcc_invalidations_total",
            "INVALIDATEs received on the push channel.",
            &node,
            c.invalidations_received,
        );
        r.set_counter(
            "wcc_inval_batches_total",
            "Coalesced InvalidateBatch rounds received on the push channel.",
            &node,
            c.inval_batches_received,
        );
        r.set_counter(
            "wcc_bulk_invalidations_total",
            "Bulk INVALIDATE <server> messages received.",
            &node,
            c.bulk_invalidations_received,
        );
        r.set_counter(
            "wcc_piggybacked_total",
            "Piggybacked invalidations received (PSI).",
            &node,
            c.piggybacked_received,
        );
        r.set_counter(
            "wcc_dropped_connections_total",
            "Client connections dropped by the serving tier.",
            &node,
            c.dropped_connections,
        );
        r.set_gauge(
            "wcc_cached_entries",
            "Entries currently cached.",
            &node,
            self.policy.lock().1.len() as u64,
        );
        r.set_histogram(
            "wcc_fetch_latency_seconds",
            "Wall-time fetch latency, cache hits included.",
            &node,
            &self.fetch_latency.lock(),
        );
        r.render()
    }
}

/// The full locked fetch: policy decision, optional upstream round trip
/// over the bounded pool, and cache transitions — all under one policy
/// lock (`held`, taken by the caller), exactly like the pre-reactor
/// prototype, so invalidations can never interleave with an in-flight
/// fetch. The hit branch returns before any I/O.
fn fetch_locked(
    state: &ProxyState,
    held: &mut Policy,
    client: ClientId,
    url: Url,
    now: SimTime,
) -> std::io::Result<FetchOutcome> {
    let key = url.scoped(client);
    let (policy, cache, next_req) = held;
    let disposition = policy.on_request(key, now, cache);
    {
        let mut c = state.counters.lock();
        c.requests += 1;
        c.hits += u64::from(disposition.had_entry);
    }
    let report_hits = disposition.report_hits;
    let mut ims = match disposition.action {
        ProxyAction::ServeFromCache => {
            let meta = cache.peek(key).expect("hit implies entry").meta;
            return Ok(FetchOutcome {
                kind: FetchKind::CacheHit,
                had_entry: true,
                meta,
            });
        }
        ProxyAction::SendGet { ims } => ims,
    };

    // Up to one retry for the 304-races-eviction corner.
    for _attempt in 0..2 {
        let req = *next_req;
        *next_req = next_req.next();
        {
            let mut c = state.counters.lock();
            if ims.is_some() {
                c.ims_sent += 1;
            } else {
                c.gets_sent += 1;
            }
        }
        let get = HttpMsg::Get(GetRequest {
            req,
            url,
            client,
            ims,
            issued_at: now,
            cache_hits: report_hits,
        });
        let reply = pooled_roundtrip(&state.upstream, state.origin, &encode(&get))?;
        policy.on_volume_grant(key, reply.volume_lease);
        if !reply.piggyback.is_empty() {
            policy.on_piggyback(&reply.piggyback, client, cache);
            state.counters.lock().piggybacked_received += reply.piggyback.len() as u64;
        }
        match reply.meta {
            Some(meta) => {
                state.counters.lock().replies_200 += 1;
                policy.on_reply_200(key, meta, reply.lease, now, cache);
                return Ok(FetchOutcome {
                    kind: FetchKind::Fetched,
                    had_entry: disposition.had_entry,
                    meta,
                });
            }
            None => {
                if policy.on_reply_304(key, reply.lease, now, cache) {
                    state.counters.lock().replies_304 += 1;
                    let meta = cache.peek(key).expect("validated entry").meta;
                    return Ok(FetchOutcome {
                        kind: FetchKind::Validated,
                        had_entry: disposition.had_entry,
                        meta,
                    });
                }
                // Entry evicted mid-validation: retry as a plain GET.
                ims = None;
            }
        }
    }
    Err(std::io::Error::other("revalidation race did not resolve"))
}

/// [`fetch_locked`] behind the policy lock, its wall time recorded (the
/// wait for the lock included): what the blocking API and the pool
/// workers both run.
fn timed_fetch(
    state: &ProxyState,
    client: ClientId,
    url: Url,
    now: SimTime,
) -> std::io::Result<FetchOutcome> {
    let clock = WallClock::start();
    let outcome = fetch_locked(state, &mut state.policy.lock(), client, url, now);
    state
        .fetch_latency
        .lock()
        .record(clock.elapsed().as_micros());
    outcome
}

/// The reactor's fast path: answers `get` if the policy lock is free and
/// the cached copy may be served without upstream contact; `None` sends
/// the request to the pool. Never waits (`try_lock`: a worker may hold the
/// lock across an upstream round trip) and never does I/O (the probe
/// guarantees [`fetch_locked`] takes its hit branch).
fn hit_on_reactor(state: &ProxyState, get: &GetRequest) -> Option<HttpMsg> {
    let clock = WallClock::start();
    let mut held = state.policy.try_lock()?;
    let key = get.url.scoped(get.client);
    if !held.0.would_serve(key, get.issued_at, &held.1) {
        return None;
    }
    let out = fetch_locked(state, &mut held, get.client, get.url, get.issued_at).ok()?;
    drop(held);
    state.counters.lock().reactor_hits += 1;
    state
        .fetch_latency
        .lock()
        .record(clock.elapsed().as_micros());
    Some(client_reply(get, out.meta))
}

/// The `200` a client-listener `GET` is answered with.
fn client_reply(get: &GetRequest, meta: DocMeta) -> HttpMsg {
    HttpMsg::Reply(Reply {
        req: get.req,
        url: get.url,
        client: get.client,
        // Client-facing bodies are unscaled: the wire carries the
        // real (accounted) size, not the storage-scaled payload.
        status: ReplyStatus::Ok(Body::synthetic(meta, 1)),
        lease: None,
        piggyback: Vec::new(),
        volume_lease: None,
    })
}

/// A running caching proxy. Shuts down its reactor and workers on drop.
pub struct NetProxy {
    origin: SocketAddr,
    metrics_addr: SocketAddr,
    client_addr: SocketAddr,
    state: Arc<ProxyState>,
    _node: Node,
}

impl std::fmt::Debug for NetProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetProxy")
            .field("origin", &self.origin)
            .field("client_addr", &self.client_addr)
            .finish()
    }
}

impl NetProxy {
    /// Connects to `origin`, registers the invalidation push channel for
    /// `partition` of `partitions`, and returns the running proxy.
    ///
    /// # Errors
    ///
    /// Returns any socket error from the registration handshake.
    pub fn spawn(
        origin: SocketAddr,
        cfg: &ProtocolConfig,
        partition: u32,
        partitions: u32,
        capacity: ByteSize,
    ) -> std::io::Result<NetProxy> {
        let state = Arc::new(ProxyState {
            origin,
            policy: Mutex::new((
                ProxyPolicy::new(cfg),
                CacheStore::new(capacity, ReplacementPolicy::ExpiredFirstLru),
                RequestId::default(),
            )),
            counters: Mutex::new(NetProxyCounters::default()),
            fetch_latency: Mutex::new(Histogram::default()),
            upstream: Mutex::new(BoundedPool::new(WORKERS + 2)),
        });

        // Client-facing keep-alive listener (the serving tier's front
        // door) and the metrics scrape listener.
        let client_listener = TcpListener::bind("127.0.0.1:0")?;
        let client_addr = client_listener.local_addr()?;
        let metrics_listener = TcpListener::bind("127.0.0.1:0")?;
        let metrics_addr = metrics_listener.local_addr()?;

        // The invalidation channel is proxy-initiated and persistent.
        let hello = Hello {
            upstream: origin,
            partition,
            partitions,
        };
        let role = ProxyRole {
            state: Arc::clone(&state),
        };
        let node = evloop::spawn(
            role,
            &state,
            client_listener,
            Some(metrics_listener),
            Some(hello),
        )?;
        Ok(NetProxy {
            origin,
            metrics_addr,
            client_addr,
            state,
            _node: node,
        })
    }

    /// Current counters.
    pub fn counters(&self) -> NetProxyCounters {
        *self.state.counters.lock()
    }

    /// The loopback address answering `GET /metrics` for this proxy.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// The keep-alive listener browsers (and the stress bench) connect
    /// to: `GET`s are answered with `200` replies, pipelining preserved.
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// The current Prometheus text exposition — the same body `GET
    /// /metrics` on [`NetProxy::metrics_addr`] returns.
    pub fn metrics_text(&self) -> String {
        self.state.render_metrics()
    }

    /// Serves one browser request for `url` on behalf of `client`, at
    /// logical time `now`.
    ///
    /// # Errors
    ///
    /// Returns socket errors from the upstream fetch; cache hits are
    /// infallible.
    pub fn fetch(&self, client: ClientId, url: Url, now: SimTime) -> std::io::Result<FetchOutcome> {
        timed_fetch(&self.state, client, url, now)
    }

    /// Number of entries currently cached.
    pub fn cached_entries(&self) -> usize {
        self.state.policy.lock().1.len()
    }
}

/// What a proxy-side connection is.
enum PKind {
    /// Browser/bench connection on the client listener.
    Client,
    /// One-shot `/metrics` scrape.
    Scrape,
    /// The persistent invalidation channel to the origin.
    Inval,
}

struct ProxyRole {
    state: Arc<ProxyState>,
}

impl Role for ProxyRole {
    type Tag = PKind;
    type Job = GetRequest;
    type Shared = ProxyState;
    const POOL: usize = WORKERS;

    fn tag(&self, via: Via) -> PKind {
        match via {
            Via::Listener => PKind::Client,
            Via::Listener2 => PKind::Scrape,
            Via::Dial => PKind::Inval,
        }
    }

    fn on_dropped(&mut self, n: u64) {
        self.state.counters.lock().dropped_connections += n;
    }

    /// Answers one client `GET` the reactor could not ([`hit_on_reactor`])
    /// through the same locked fetch path as the blocking
    /// [`NetProxy::fetch`] API.
    fn run_job(state: &ProxyState, get: GetRequest) -> Option<HttpMsg> {
        let out = timed_fetch(state, get.client, get.url, get.issued_at).ok()?;
        Some(client_reply(&get, out.meta))
    }

    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: &HttpMsgRef<'_>) -> After {
        let state = &self.state;
        match cx.tag {
            PKind::Client => match msg {
                HttpMsgRef::Get(get) => {
                    match hit_on_reactor(state, get) {
                        Some(reply) => cx.reply(reply),
                        None => cx.submit(get.clone()),
                    }
                    After::Keep
                }
                HttpMsgRef::MetricsGet => cx.reply_metrics(&state.render_metrics()),
                HttpMsgRef::Reply(_)
                | HttpMsgRef::Invalidate { .. }
                | HttpMsgRef::InvalidateBatch(_)
                | HttpMsgRef::InvalidateBatchAck(_)
                | HttpMsgRef::InvalidateServer { .. }
                | HttpMsgRef::InvalidateServerAck { .. }
                | HttpMsgRef::InvalAck { .. }
                | HttpMsgRef::Hello { .. }
                | HttpMsgRef::Notify { .. } => After::Close,
            },
            PKind::Scrape => match msg {
                HttpMsgRef::MetricsGet => cx.reply_metrics(&state.render_metrics()),
                _ => After::Close,
            },
            PKind::Inval => match msg {
                HttpMsgRef::Invalidate { url, client } => {
                    let deleted_hits = {
                        let mut guard = state.policy.lock();
                        let (policy, cache, _) = &mut *guard;
                        policy.on_invalidate(*url, *client, cache)
                    };
                    state.counters.lock().invalidations_received += 1;
                    cx.reply(HttpMsg::InvalAck {
                        url: *url,
                        client: *client,
                        cache_hits: deleted_hits.unwrap_or(0),
                    });
                    After::Keep
                }
                HttpMsgRef::InvalidateBatch(batch) => {
                    // One coalesced proposer round: drop every listed copy
                    // under a single policy lock and ack the whole round in
                    // one message, the §7 hit reports carried per entry.
                    let entries = batch.entries();
                    let acks: Vec<BatchAckEntry> = {
                        let mut guard = state.policy.lock();
                        let (policy, cache, _) = &mut *guard;
                        entries
                            .iter()
                            .map(|e| BatchAckEntry {
                                url: e.url,
                                client: e.client,
                                cache_hits: policy
                                    .on_invalidate(e.url, e.client, cache)
                                    .unwrap_or(0),
                            })
                            .collect()
                    };
                    {
                        let mut c = state.counters.lock();
                        c.invalidations_received += entries.len() as u64;
                        c.inval_batches_received += 1;
                    }
                    cx.reply(HttpMsg::InvalidateBatchAck {
                        server: batch.server,
                        entries: acks,
                    });
                    After::Keep
                }
                HttpMsgRef::InvalidateServer { server } => {
                    {
                        let mut guard = state.policy.lock();
                        let (policy, cache, _) = &mut *guard;
                        policy.on_invalidate_server(*server, cache);
                    }
                    state.counters.lock().bulk_invalidations_received += 1;
                    cx.reply(HttpMsg::InvalidateServerAck { server: *server });
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
        }
    }
}
