//! The TCP caching proxy: one thread, one flight table.
//!
//! The node's thread ([`crate::evloop`]) owns every socket the proxy
//! serves with: a client-facing listener ([`NetProxy::client_addr`])
//! speaking keep-alive HTTP/1.1 with pipelining (and answering `GET
//! /metrics`), and the one persistent connection to the origin, which
//! opens with the proxy's `HELLO`, carries its misses up and the origin's
//! invalidations down (re-established if the origin restarts — the proxy
//! half of the §5 recovery handshake). It owns the proxy's state too:
//! [`ProxyRole`], a thin driver of [`wcc_core::ProxyCore`], lives on that
//! thread and nowhere else, so a copy is served only where its
//! invalidations land.
//!
//! A client `GET` is `begin`: a cache hit is answered in the turn it
//! arrived — the paper's point is that a hit needs no server contact, so
//! it costs what the cache costs — and a miss is forwarded upstream under
//! a deferred-reply ticket, after which the thread moves on; any number of
//! misses are in flight at once. An upstream reply is `complete`: the
//! ticket is redeemed, or a plain `GET` goes out again. An invalidation is
//! applied and acknowledged when it arrives, whatever is in flight. A reply
//! the upstream sent before it has landed already; a fetch still in flight
//! (its request crossed the invalidation on the wire, or a parent deferred
//! its reply) is poisoned and fetched again, the simulator's callback-race
//! rule, which is what keeps the strong-consistency guarantee without ever
//! making a write wait for a read.
//!
//! The handle reaches that state only through [`Node::call`]. The blocking
//! [`NetProxy::fetch`] is one more client: one call runs `begin` on the
//! node's thread, a hit returns from it, and a miss goes out on the node's
//! upstream connection in the same turn while the caller waits for what the
//! reactor sends back. If the node's thread dies, every call fails.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use wcc_core::{Begin, ProtocolConfig, ProxyCore, ProxyPolicy};
use wcc_obs::Registry;
use wcc_proto::{GetRequest, HttpMsg, HttpMsgRef, Reply, ReplyStatus};
use wcc_types::{Body, ByteSize, ClientId, DocMeta, SimTime, Url};

use crate::evloop::{self, After, Cx, Hello, Node, Out, Outbox, Role, Via, UPSTREAM};
use crate::upstream::{self, Upstream, Waiter, Waiting};

pub use wcc_core::{FetchKind, FetchOutcome};

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
    /// `INVALIDATE`s received from upstream (batched entries included:
    /// each entry of a coalesced round counts once here).
    pub invalidations_received: u64,
    /// Coalesced `InvalidateBatch` rounds received from upstream.
    pub inval_batches_received: u64,
    /// Bulk `INVALIDATE <server>`s received.
    pub bulk_invalidations_received: u64,
    /// Piggybacked invalidations received (PSI).
    pub piggybacked_received: u64,
    /// Client connections dropped (accept/registration failure, or a
    /// fetch that got no answer forcing a close).
    pub dropped_connections: u64,
    /// Client-listener `GET`s answered without upstream contact: cache
    /// hits, replied to in the turn they arrived. `requests -
    /// reactor_hits` is the traffic that waited for the upstream (plus
    /// every blocking fetch).
    pub reactor_hits: u64,
    /// Upstream replies discarded because an invalidation overtook them
    /// (each was fetched again).
    pub inval_races: u64,
    /// Upstream requests given up unanswered after 5 s.
    pub upstream_timeouts: u64,
    /// Times the upstream connection was re-established.
    pub upstream_redials: u64,
}

/// The proxy's state and its [`Role`], owned by the node's thread.
struct ProxyRole {
    core: ProxyCore<Waiting>,
    up: Upstream,
    /// The counters the fetch core does not keep itself.
    local: NetProxyCounters,
}

impl ProxyRole {
    fn counters(&self) -> NetProxyCounters {
        let c = self.core.counters();
        NetProxyCounters {
            requests: c.requests,
            hits: c.hits,
            gets_sent: c.gets_sent,
            ims_sent: c.ims_sent,
            replies_200: c.replies_200,
            replies_304: c.replies_304,
            invalidations_received: c.invalidations_received,
            inval_batches_received: c.inval_batches_received,
            bulk_invalidations_received: c.bulk_invalidations_received,
            piggybacked_received: c.piggybacked_received,
            inval_races: c.inval_races,
            upstream_timeouts: self.up.timeouts,
            upstream_redials: self.up.redials,
            ..self.local
        }
    }
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

/// A running caching proxy. Shuts down its thread on drop.
pub struct NetProxy {
    origin: SocketAddr,
    client_addr: SocketAddr,
    node: Node<ProxyRole>,
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
    /// Connects to `origin`, registers that connection as the push channel
    /// of `partition` of `partitions`, and returns the running proxy.
    ///
    /// # Errors
    ///
    /// Returns any socket error from the dial.
    pub fn spawn(
        origin: SocketAddr,
        cfg: &ProtocolConfig,
        partition: u32,
        partitions: u32,
        capacity: ByteSize,
    ) -> std::io::Result<NetProxy> {
        // Client-facing keep-alive listener: the serving tier's front door.
        let client_listener = TcpListener::bind("127.0.0.1:0")?;
        let client_addr = client_listener.local_addr()?;

        // The upstream connection is proxy-initiated and persistent.
        let hello = Hello {
            upstream: origin,
            partition,
            partitions,
        };
        let role = ProxyRole {
            core: ProxyCore::new(ProxyPolicy::new(cfg), upstream::cache(capacity)),
            up: Upstream::default(),
            local: NetProxyCounters::default(),
        };
        let node = evloop::spawn(role, client_listener, Some(hello))?;
        Ok(NetProxy {
            origin,
            client_addr,
            node,
        })
    }

    /// Runs `f` on the node's thread between events (the trajectory reads
    /// that thread's allocation counts with it); `BrokenPipe` if it is gone.
    pub fn on_node_thread<T: Send + 'static>(&self, f: fn() -> T) -> io::Result<T> {
        self.node.call(move |_, _, _| f())
    }

    /// Current counters; all zero if the node's thread is gone.
    pub fn counters(&self) -> NetProxyCounters {
        let counters = self.node.call(|role, _, _| role.counters());
        counters.unwrap_or_default()
    }

    /// The keep-alive listener browsers (and the stress bench) connect
    /// to: `GET`s are answered with `200` replies, pipelining preserved,
    /// and `GET /metrics` with the exposition.
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// The current Prometheus text exposition — the same body `GET
    /// /metrics` on [`NetProxy::client_addr`] returns; empty if the node's
    /// thread is gone.
    pub fn metrics_text(&self) -> String {
        self.node.metrics_text()
    }

    /// Serves one browser request for `url` on behalf of `client`, at
    /// protocol time `at`, on the node's thread. A miss waits for that
    /// thread to bring the answer from upstream.
    /// `at` is this call's clock, not the node's: a caller whose clock runs
    /// slower than the origin's can be served a copy it no longer tracks.
    ///
    /// # Errors
    ///
    /// `TimedOut` if the upstream did not answer in time (or its
    /// connection could not be re-established); `BrokenPipe` if the node's
    /// thread is gone.
    pub fn fetch(&self, client: ClientId, url: Url, at: SimTime) -> io::Result<FetchOutcome> {
        // One turn on the node's thread: a hit's outcome, or the receiver
        // a forwarded miss is answered on.
        let answer = self.node.call(move |role, now, out| {
            let (tx, rx) = mpsc::channel();
            let caller = || Waiting::new(Waiter::Caller(tx), now);
            match role.core.begin(client, url, at, now, caller) {
                Begin::Serve(meta) => {
                    // Served within the call: no node time passes.
                    role.up.latency.record(0);
                    Ok(FetchOutcome {
                        kind: FetchKind::CacheHit,
                        had_entry: true,
                        meta,
                    })
                }
                Begin::Forward(get) => {
                    out.push(Out::Push(UPSTREAM, HttpMsg::Get(get)));
                    Err(rx)
                }
            }
        })?;
        answer.or_else(|rx| rx.recv().unwrap_or(Err(io::ErrorKind::BrokenPipe.into())))
    }

    /// Number of entries currently cached; zero if the node's thread is
    /// gone.
    pub fn cached_entries(&self) -> usize {
        let entries = self.node.call(|role, _, _| role.core.cache().len());
        entries.unwrap_or_default()
    }
}

/// What a proxy-side connection is.
enum PKind {
    /// Browser/bench connection (or `/metrics` scrape) on the client
    /// listener.
    Client,
    /// The connection to the origin: replies and pushes come down it.
    Upstream,
}

impl Role for ProxyRole {
    type Tag = PKind;

    fn tag(&self, via: Via) -> PKind {
        match via {
            Via::Listener => PKind::Client,
            Via::Upstream => PKind::Upstream,
        }
    }

    fn on_dropped(&mut self, n: u64) {
        self.local.dropped_connections += n;
    }

    fn render_metrics(&self, reactor: &evloop::ReactorCounters) -> String {
        let node = [("node", "proxy")];
        let c = self.counters();
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
            "Client GETs answered without upstream contact.",
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
        r.set_histogram(
            "wcc_fetch_latency_seconds",
            "Wall-time fetch latency, cache hits included.",
            &node,
            &self.up.latency,
        );
        self.up.render(&self.core, &mut r, &node);
        reactor.render(&mut r, &node);
        r.render()
    }

    fn next_deadline(&self) -> Option<SimTime> {
        Upstream::next_deadline(&self.core)
    }

    fn on_deadline(&mut self, now: SimTime, out: &mut Outbox) {
        self.up.expire(&mut self.core, now, out);
    }

    fn on_redial(&mut self, up: bool, out: &mut Outbox) {
        self.up.redialled(&mut self.core, up, out);
    }

    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: HttpMsgRef<'_>) -> After {
        match cx.tag {
            PKind::Client => match msg {
                HttpMsgRef::Owned(HttpMsg::Get(get)) => {
                    let begun = cx.now();
                    let waiting = || Waiting::new(Waiter::Client(cx.defer(), get), begun);
                    match self.core.begin(get.client, get.url, begun, begun, waiting) {
                        Begin::Serve(meta) => {
                            self.local.reactor_hits += 1;
                            let took = cx.now().saturating_since(begun);
                            self.up.latency.record(took.as_micros());
                            cx.reply(client_reply(&get, meta));
                        }
                        Begin::Forward(forward) => {
                            cx.out.push(Out::Push(UPSTREAM, HttpMsg::Get(forward)))
                        }
                    }
                    After::Keep
                }
                HttpMsgRef::Reply(_)
                | HttpMsgRef::Owned(
                    HttpMsg::MetricsGet
                    | HttpMsg::Reply(_)
                    | HttpMsg::Invalidate { .. }
                    | HttpMsg::InvalidateBatch { .. }
                    | HttpMsg::InvalidateBatchAck { .. }
                    | HttpMsg::InvalidateServer { .. }
                    | HttpMsg::InvalidateServerAck { .. }
                    | HttpMsg::InvalAck { .. }
                    | HttpMsg::Hello { .. }
                    | HttpMsg::Notify { .. },
                ) => After::Close,
            },
            PKind::Upstream => match msg {
                HttpMsgRef::Reply(reply) => {
                    if let Some((outcome, ticket, get)) =
                        self.up.landed(&mut self.core, reply, cx.now(), cx.out)
                    {
                        let answer = client_reply(&get, outcome.meta);
                        cx.out.push(Out::Redeem(ticket, Some(answer)));
                    }
                    After::Keep
                }
                // A push: applied and acknowledged at once.
                HttpMsgRef::Owned(push) => match self.core.on_push(push, None, cx.now()) {
                    Some(ack) => {
                        cx.reply(ack.into());
                        After::Keep
                    }
                    None => After::Close,
                },
            },
        }
    }
}
