//! The TCP parent-tier proxy: one thread, one flight table.
//!
//! Children connect to the parent exactly as proxies connect to an origin
//! (one persistent connection each, registered as a push channel by its
//! `HELLO`); the parent in turn is a client of the real origin. The node's
//! thread ([`crate::evloop`]) owns the child-facing listener, the one
//! upstream connection misses go up and invalidations come down, and the
//! parent's state, [`ParentRole`], which the handle reaches only
//! through [`Node::call`]: the same thin driver of [`wcc_core::ProxyCore`]
//! as the proxy towards the origin ([`crate::upstream`]), and of
//! [`wcc_core::WritePath`] as the origin towards its children
//! ([`crate::downstream`]). A child `GET` the parent
//! cache can answer is answered in the turn it arrived; any other is
//! forwarded under a deferred-reply ticket and answered when the origin's
//! reply lands. A push is applied and acknowledged when it arrives, and the
//! write path relays it from that ack: to the children that hold the
//! document, re-sent every 250 ms and at a child's next `HELLO` until each
//! acknowledged. An upstream fetch it overtakes is poisoned and fetched
//! again rather than cached (and leased out) stale. A child `GET` that
//! times out upstream closes the child's connection, its push channel
//! with it: the child dials again, and its `HELLO` brings what it missed.
//!
//! A bulk `INVALIDATE <server>` (the §5 recovery barrage) is acked upstream
//! and relayed down the tree the same way — re-sent until each child's
//! `InvalidateServerAck` — so a restarted origin recovers through a
//! hierarchy too.

use std::net::{SocketAddr, TcpListener};
use wcc_core::origin::MAX_RETRIES;
use wcc_core::{Begin, OriginCounters, ProtocolConfig, ServerConsistency, WritePath};
use wcc_obs::Registry;
use wcc_proto::{GetRequest, HttpMsg, HttpMsgRef};
use wcc_types::{ByteSize, ClientId, ServerId, SimTime};

use crate::downstream::{render_sitelist, Downstream, RETRY};
use crate::evloop::{self, earliest, After, Cx, Hello, Node, Out, Outbox, Role, Via, UPSTREAM};
use crate::upstream::{Upstream, Waiter, Waiting};

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
    /// `INVALIDATE`s relayed to children, re-sends included.
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
    /// Times the upstream connection was re-established.
    pub upstream_redials: u64,
}

/// The parent's state and its [`Role`], owned by the node's thread.
struct ParentRole {
    /// The upstream-facing half: policy, cache, flights.
    up: Upstream,
    /// The child-facing half: the children's site lists and the relays
    /// they have yet to acknowledge.
    down: WritePath,
    /// What connects the child-facing half to the wire and the timers.
    links: Downstream,
    /// The counters the fetch core does not keep itself.
    local: NetParentCounters,
}

impl ParentRole {
    /// The node's counters; `down` is the child-facing half's snapshot.
    fn counters(&self, down: &OriginCounters) -> NetParentCounters {
        let c = self.up.core.counters();
        NetParentCounters {
            upstream_requests: c.gets_sent + c.ims_sent,
            invalidations_received: c.invalidations_received,
            inval_batches_received: c.inval_batches_received,
            bulk_invalidations_received: c.bulk_invalidations_received,
            inval_races: c.inval_races,
            upstream_timeouts: self.up.timeouts,
            upstream_redials: self.up.redials,
            invalidations_relayed: down.invalidations,
            ..self.local
        }
    }
}

/// The identity the parent presents to the origin: every copy it holds,
/// and every hit report it relays, is under this one client id.
const IDENTITY: ClientId = ClientId::from_raw(0);

/// A running TCP parent proxy. Shuts down on drop.
pub struct NetParent {
    addr: SocketAddr,
    node: Node<ParentRole>,
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
        // Per-copy relay: the proposer stays off.
        let consistency = ServerConsistency::new(cfg, server);
        let role = ParentRole {
            up: Upstream::new(cfg, capacity),
            down: WritePath::new(consistency, 100, RETRY, MAX_RETRIES, None),
            links: Downstream::default(),
            local: NetParentCounters::default(),
        };
        // The parent registers with the origin as its one and only
        // partition.
        let hello = Hello {
            upstream: origin,
            partition: 0,
            partitions: 1,
        };
        let node = evloop::spawn(role, listener, Some(hello))?;
        Ok(NetParent { addr, node })
    }

    /// The address children connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters; all zero if the node's thread is gone.
    pub fn counters(&self) -> NetParentCounters {
        let counters = self.node.call(|p, _, _| p.counters(&p.down.snapshot()));
        counters.unwrap_or_default()
    }

    /// The current Prometheus text exposition — the same body `GET
    /// /metrics` on [`NetParent::addr`] returns; empty if the node's
    /// thread is gone.
    pub fn metrics_text(&self) -> String {
        self.node.metrics_text()
    }
}

/// What a parent-side connection is.
#[derive(Clone, Copy)]
enum KTag {
    /// A child's: a plain request connection until its `HELLO` also makes
    /// it the push channel of that partition.
    Child(Option<u32>),
    /// The connection to the origin: replies and pushes come down it.
    Upstream,
}

impl Role for ParentRole {
    type Tag = KTag;

    fn tag(&self, via: Via) -> KTag {
        match via {
            Via::Upstream => KTag::Upstream,
            Via::Listener => KTag::Child(None),
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        earliest(self.up.next_deadline(), self.links.next_deadline())
    }

    fn on_deadline(&mut self, now: SimTime, out: &mut Outbox) {
        self.up.expire(now, out);
        self.links.fire(&mut self.down, now);
        self.links.emit(now, out, |_| ());
    }

    fn on_redial(&mut self, up: bool, out: &mut Outbox) {
        self.up.redialled(up, out);
    }

    fn render_metrics(&self, reactor: &evloop::ReactorCounters) -> String {
        let node = [("node", "parent")];
        let down = self.down.snapshot();
        let c = self.counters(&down);
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
        render_sitelist(&mut r, &node, &down.sitelist);
        r.set_histogram(
            "wcc_serve_latency_seconds",
            "Wall-time child GET service latency, upstream fetches included.",
            &node,
            &self.up.latency,
        );
        self.up.render(&mut r, &node);
        reactor.render(&mut r, &node);
        r.render()
    }

    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: HttpMsgRef<'_>) -> After {
        let now = cx.now();
        let links = &mut self.links;
        let after = match (*cx.tag, msg) {
            (KTag::Upstream, HttpMsgRef::Reply(reply)) => {
                if let Some((outcome, ticket, get)) = self.up.landed(reply, now, cx.out) {
                    let (answer, _) = self.down.grant(&get, outcome.meta, now);
                    cx.out
                        .push(Out::Redeem(ticket, Some(HttpMsg::Reply(answer))));
                }
                After::Keep
            }
            // A push: applied, acknowledged at once and relayed. Children
            // ack per document (`InvalAck`), so a coalesced round fans
            // out downstream as ordinary `INVALIDATE`s.
            (KTag::Upstream, HttpMsgRef::Owned(push)) => {
                let Some(ack) = self.up.core.on_push(push, Some(IDENTITY), now) else {
                    return After::Close;
                };
                let asked = &mut links.asked;
                self.down.relay(&ack, now, now, asked);
                cx.reply(ack);
                After::Keep
            }
            // A reply flows down to the children only.
            (KTag::Child(_), HttpMsgRef::Reply(_)) => After::Close,
            (KTag::Child(site), HttpMsgRef::Owned(msg)) => match msg {
                HttpMsg::Get(get) if get.url.server() == self.down.server() => {
                    self.local.child_requests += 1;
                    let issued_at = now; // judged and granted at receipt
                    let get = GetRequest { issued_at, ..get };
                    // The child cache's hit report joins this tier's, so it
                    // reaches the origin on the parent's next contact.
                    let core = &mut self.up.core;
                    core.absorb_report(get.url, IDENTITY, get.cache_hits);
                    let waiting = || Waiting::new(Waiter::Client(cx.defer(), get), now);
                    match core.begin(IDENTITY, get.url, now, now, waiting) {
                        Begin::Serve(meta) => {
                            self.local.parent_hits += 1;
                            self.local.reactor_hits += 1;
                            // Registers the child and grants it a lease. The
                            // serve is recorded before the reply ships: once
                            // the child's fetch returns, a scrape sees it.
                            let (answer, _) = self.down.grant(&get, meta, now);
                            let took = cx.now().saturating_since(now);
                            self.up.latency.record(took.as_micros());
                            cx.reply(HttpMsg::Reply(answer));
                        }
                        Begin::Forward(forward) => {
                            cx.out.push(Out::Push(UPSTREAM, HttpMsg::Get(forward)))
                        }
                    }
                    After::Keep
                }
                // Whatever this partition still owes an acknowledgement for
                // is pushed again: a relay while its channel was down went
                // nowhere, and the copies are still served. A `HELLO` naming
                // another partition count than the first one closes.
                HttpMsg::Hello {
                    partition,
                    partitions,
                } => {
                    let down = &mut self.down;
                    if !down.on_site_hello(partition, partitions, now, &mut links.asked) {
                        return After::Close;
                    }
                    links.channels.insert(partition, cx.token);
                    *cx.tag = KTag::Child(Some(partition));
                    After::Keep
                }
                // An ack counts only on a registered channel, for a copy of
                // that partition's; any other closes the connection. A
                // report is taken only with an ack we are waiting for, so a
                // child cannot make this tier buffer reports for documents
                // nobody invalidated.
                HttpMsg::InvalAck {
                    url,
                    client,
                    cache_hits,
                } => {
                    let pending = self.down.consistency().has_pending(url);
                    let acked = site.map(|site| self.down.ack(site, url, client, now));
                    let Some(Ok(_)) = acked else {
                        return After::Close;
                    };
                    if pending {
                        self.up.core.absorb_report(url, IDENTITY, cache_hits);
                    }
                    After::Keep
                }
                // A child acking a relayed bulk invalidation.
                HttpMsg::InvalidateServerAck { .. } => {
                    if let Some(site) = site {
                        self.down.bulk_ack(site);
                    }
                    After::Keep
                }
                // A `GET` for a foreign server falls through to here.
                HttpMsg::Get(_)
                | HttpMsg::Reply(_)
                | HttpMsg::Invalidate { .. }
                | HttpMsg::InvalidateBatch { .. }
                | HttpMsg::InvalidateBatchAck { .. }
                | HttpMsg::InvalidateServer { .. }
                | HttpMsg::MetricsGet
                | HttpMsg::Notify { .. } => After::Close,
            },
        };
        links.emit(now, cx.out, |_| ());
        after
    }
}
