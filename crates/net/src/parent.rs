//! The TCP parent-tier proxy: one thread, one flight table.
//!
//! Children connect to the parent exactly as proxies connect to an origin
//! (keep-alive `GET` connections plus a persistent `HELLO` push channel);
//! the parent in turn is a client of the real origin. The node's thread
//! ([`crate::evloop`]) owns the child-facing listener, the upstream
//! invalidation channel and the pipelined upstream request connection.
//! This file is the parent's state and its [`Role`]: the same thin driver
//! of [`wcc_core::ProxyCore`] as the proxy towards the origin, plus a
//! [`ServerConsistency`] towards its children. A child `GET` the parent
//! cache can answer is answered in the turn it arrived; any other is
//! forwarded under a deferred-reply ticket and answered when the origin's
//! reply lands. An `INVALIDATE` is applied, acknowledged and relayed when
//! it arrives; an upstream fetch it overtakes is poisoned and fetched
//! again rather than cached (and leased out) stale.
//!
//! The parent also relays bulk `INVALIDATE <server>` messages (the §5
//! recovery barrage) down the tree and acks them upstream, so a restarted
//! origin recovers through a hierarchy too.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;
use wcc_core::{Begin, ProtocolConfig, ServerConsistency};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{BatchEntry, GetRequest, HttpMsg, HttpMsgRef};
use wcc_types::{ByteSize, ClientId, DocMeta, ServerId, SimTime, Url, WallClock};

use crate::evloop::{self, After, Cx, Hello, Node, Out, Outbox, Role, Via, UPSTREAM};
use crate::upstream::{Upstream, Waiting};

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
    /// Child `GET`s answered without upstream contact, in the turn they
    /// arrived: the parent-cache hits.
    pub reactor_hits: u64,
    /// Upstream replies discarded because an invalidation overtook them
    /// (each was fetched again).
    pub inval_races: u64,
    /// Upstream requests given up unanswered after 5 s.
    pub upstream_timeouts: u64,
    /// Times the upstream request connection was re-established.
    pub upstream_redials: u64,
}

/// Everything the node's one lock guards.
struct Protected {
    /// The upstream-facing half: policy, cache, flights.
    up: Upstream,
    /// The child-facing half: per-document lists of child sites.
    children: ServerConsistency,
    /// Latest trace time observed on a child request; used as "now" for
    /// child-lease decisions when relaying invalidations (which carry no
    /// timestamp).
    latest_trace: SimTime,
    /// The counters the fetch core does not keep itself.
    local: NetParentCounters,
    /// Wall-time child GET service latency (including upstream fetches).
    serve_latency: Histogram,
}

impl Protected {
    fn counters(&self) -> NetParentCounters {
        let c = self.up.core.counters();
        NetParentCounters {
            upstream_requests: c.gets_sent + c.ims_sent,
            invalidations_received: c.invalidations_received,
            inval_batches_received: c.inval_batches_received,
            bulk_invalidations_received: c.bulk_invalidations_received,
            inval_races: c.inval_races,
            upstream_timeouts: self.up.timeouts,
            upstream_redials: self.up.redials,
            ..self.local
        }
    }
}

struct ParentState {
    identity: ClientId,
    server: ServerId,
    doc_scale: u64,
    protected: Mutex<Protected>,
}

impl ParentState {
    /// Answers a child's `get` with the parent's copy `meta`, registering
    /// the child and granting it a lease through the child-facing half.
    /// Its wall time is recorded before the reply ships: once the child's
    /// fetch returns, a scrape must already see this serve.
    fn child_reply(
        &self,
        p: &mut Protected,
        get: &GetRequest,
        meta: DocMeta,
        begun: WallClock,
    ) -> HttpMsg {
        let grant = p
            .children
            .on_get(get.url, get.client, get.ims, meta, get.issued_at);
        p.serve_latency.record(begun.elapsed().as_micros());
        HttpMsg::Reply(grant.into_reply(get, meta, self.doc_scale))
    }

    /// Renders the parent's registry as Prometheus text exposition.
    fn render_metrics(&self) -> String {
        let p = self.protected.lock();
        let node = [("node", "parent")];
        let c = p.counters();
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
            "Child GETs answered without upstream contact.",
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
            "wcc_invalidations_relayed_total",
            "INVALIDATEs relayed to children.",
            &node,
            c.invalidations_relayed,
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
        r.set_histogram(
            "wcc_serve_latency_seconds",
            "Wall-time child GET service latency, upstream fetches included.",
            &node,
            &p.serve_latency,
        );
        p.up.render(&mut r, &node);
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
            server,
            doc_scale: 100,
            protected: Mutex::new(Protected {
                up: Upstream::new(cfg, capacity),
                children: ServerConsistency::new(cfg, server),
                latest_trace: SimTime::ZERO,
                local: NetParentCounters::default(),
                serve_latency: Histogram::default(),
            }),
        });

        // The parent registers with the origin as its one and only
        // partition.
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
        let node = evloop::spawn(role, listener, None, Some(hello))?;
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
        self.state.protected.lock().counters()
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
    /// The parent-initiated invalidation channel to the origin.
    Inval,
    /// The request connection to the origin.
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
    /// The origin invalidated `url`: queues one `INVALIDATE <url>` for every
    /// child that holds a live-leased copy and has a push channel up.
    fn relay(&self, p: &mut Protected, out: &mut Outbox, url: Url) {
        let partitions = self.child_partitions.max(1);
        for client in p.children.on_modify(url, p.latest_trace) {
            if let Some(&tok) = self.channels.get(&client.partition(partitions)) {
                out.push(Out::Push(tok, HttpMsg::Invalidate { url, client }));
                p.local.invalidations_relayed += 1;
            }
        }
    }
}

impl Role for ParentRole {
    type Tag = KTag;

    fn tag(&self, via: Via) -> KTag {
        match via {
            Via::Dial => KTag::Inval,
            Via::Upstream => KTag::Upstream,
            Via::Listener | Via::Listener2 => KTag::Child,
        }
    }

    fn on_closed(&mut self, token: u64) {
        self.channels.retain(|_, t| *t != token);
    }

    fn next_deadline(&self) -> Option<Duration> {
        self.state.protected.lock().up.deadline()
    }

    fn on_deadline(&mut self, out: &mut Outbox) {
        self.state.protected.lock().up.expire(out);
    }

    fn on_redial(&mut self, up: bool, out: &mut Outbox) {
        self.state.protected.lock().up.redialled(up, out);
    }

    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: &HttpMsgRef<'_>) -> After {
        let state = &self.state;
        match cx.tag {
            KTag::Inval => match msg {
                HttpMsgRef::Invalidate { url, .. } => {
                    // Drops our copy, poisoning any fetch of it in flight;
                    // its unreported hits are the §7 report for the ack.
                    let mut p = state.protected.lock();
                    cx.reply(HttpMsg::InvalAck {
                        url: *url,
                        client: state.identity,
                        cache_hits: p.up.core.on_invalidate(*url, state.identity),
                    });
                    self.relay(&mut p, cx.out, *url);
                    After::Keep
                }
                HttpMsgRef::InvalidateBatch(batch) => {
                    // One coalesced round: every listed copy dropped under
                    // one lock and acked in one message (per-entry §7 hit
                    // reports included). Children ack per document
                    // (`InvalAck`), so the round fans out downstream as
                    // ordinary `INVALIDATE`s.
                    let mut p = state.protected.lock();
                    let ours = batch.entries().into_iter().map(|e| BatchEntry {
                        client: state.identity,
                        ..e
                    });
                    let entries = p.up.core.on_invalidate_batch(ours);
                    for e in &entries {
                        self.relay(&mut p, cx.out, e.url);
                    }
                    cx.reply(HttpMsg::InvalidateBatchAck {
                        server: batch.server,
                        entries,
                    });
                    After::Keep
                }
                HttpMsgRef::InvalidateServer { server } => {
                    state.protected.lock().up.core.on_invalidate_server(*server);
                    cx.reply(HttpMsg::InvalidateServerAck { server: *server });
                    // Relay the bulk invalidation to every child channel.
                    for &tok in self.channels.values() {
                        cx.out.push(Out::Push(
                            tok,
                            HttpMsg::InvalidateServer { server: *server },
                        ));
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
            KTag::Upstream => match msg {
                HttpMsgRef::Reply(reply) => {
                    let mut p = state.protected.lock();
                    if let Some((outcome, ticket, get, begun)) = p.up.landed(reply, cx.out) {
                        let answer = state.child_reply(&mut p, &get, outcome.meta, begun);
                        cx.out.push(Out::Redeem(ticket, Some(answer)));
                    }
                    After::Keep
                }
                _ => After::Close,
            },
            KTag::Child => match msg {
                HttpMsgRef::Get(get) if get.url.server() == state.server => {
                    let begun = WallClock::start();
                    let mut p = state.protected.lock();
                    p.local.child_requests += 1;
                    p.latest_trace = p.latest_trace.max(get.issued_at);
                    // The child cache's hit report joins this tier's, so it
                    // reaches the origin on the parent's next contact.
                    let core = &mut p.up.core;
                    core.absorb_report(get.url, state.identity, get.cache_hits);
                    let waiting = || Waiting::new(Some((cx.defer(), (*get).clone())), begun);
                    match core.begin(state.identity, get.url, get.issued_at, waiting) {
                        Begin::Serve(meta) => {
                            p.local.parent_hits += 1;
                            p.local.reactor_hits += 1;
                            let answer = state.child_reply(&mut p, get, meta, begun);
                            cx.reply(answer);
                        }
                        Begin::Forward(forward) => {
                            cx.out.push(Out::Push(UPSTREAM, HttpMsg::Get(forward)))
                        }
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
                    // Whatever this partition still owes an acknowledgement
                    // for is pushed again: a relay while its channel was
                    // down went nowhere, and the copies are still served.
                    let mut p = state.protected.lock();
                    for url in p.children.pending_urls() {
                        for client in p.children.pending_for(url) {
                            if client.partition(self.child_partitions) == *partition {
                                let again = HttpMsg::Invalidate { url, client };
                                cx.out.push(Out::Push(cx.token, again));
                                p.local.invalidations_relayed += 1;
                            }
                        }
                    }
                    After::Keep
                }
                HttpMsgRef::InvalAck {
                    url,
                    client,
                    cache_hits,
                } => {
                    // A report is taken only with an ack we are waiting
                    // for, so a child cannot make this tier buffer reports
                    // for documents nobody invalidated.
                    let mut p = state.protected.lock();
                    if p.children.has_pending(*url) {
                        p.up.core.absorb_report(*url, state.identity, *cache_hits);
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
