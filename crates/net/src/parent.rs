//! The TCP parent-tier proxy: one thread, one flight table.
//!
//! Children connect to the parent exactly as proxies connect to an origin
//! (one persistent connection each, registered as a push channel by its
//! `HELLO`); the parent in turn is a client of the real origin. The node's
//! thread ([`crate::evloop`]) owns the child-facing listener, the one
//! upstream connection, and [`ParentRole`], which the handle reaches only
//! through [`Node::call`]. The role drives [`wcc_core::ParentCore`], the
//! simulator's parent's protocol too, and keeps what only sockets need:
//! the children's channels and the relay timers ([`crate::downstream`]),
//! the upstream timeout and re-dial ([`crate::upstream`]). A child `GET`
//! the parent cache can answer is answered in the turn it arrived; any
//! other is forwarded under a deferred-reply ticket. A push, the §5 bulk
//! included, is acknowledged at once and relayed to the children that hold
//! the document, re-sent every 250 ms and at a child's next `HELLO` until
//! each acknowledged. A child `GET` that times out upstream closes the
//! child's connection, its push channel with it: the child dials again,
//! and its `HELLO` brings what it missed.

use std::net::{SocketAddr, TcpListener};
use wcc_core::origin::MAX_RETRIES;
use wcc_core::{
    FetchCounters, ParentCore, ParentCounters, ProtocolConfig, ProxyCore, ProxyPolicy,
    ServerConsistency, WritePath,
};
use wcc_obs::Registry;
use wcc_proto::{GetRequest, HttpMsg, HttpMsgRef};
use wcc_types::{ByteSize, ClientId, ServerId, SimTime};

use crate::downstream::{render_sitelist, Downstream, RETRY};
use crate::evloop::{self, earliest, After, Cx, Hello, Node, Out, Outbox, Role, Via};
use crate::upstream::{self, Upstream, Waiter, Waiting};

/// Counters for the TCP parent: its core's, its fetch core's, and what its
/// upstream connection adds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetParentCounters {
    /// Child requests, parent-cache hits and relays to children.
    pub parent: ParentCounters,
    /// Requests forwarded to the origin, invalidations received, races.
    pub fetch: FetchCounters,
    /// Upstream requests given up unanswered after 5 s.
    pub upstream_timeouts: u64,
    /// Times the upstream connection was re-established.
    pub upstream_redials: u64,
}

/// The parent's state and its [`Role`], owned by the node's thread.
struct ParentRole {
    /// Both protocol halves.
    core: ParentCore<Waiting>,
    /// The upstream timeout and re-dial bookkeeping.
    up: Upstream,
    /// What connects the child-facing half to the wire and the timers.
    links: Downstream,
}

impl ParentRole {
    /// The node's counters, read off its core.
    fn counters(&self) -> NetParentCounters {
        NetParentCounters {
            parent: self.core.counters(),
            fetch: self.core.fetch().counters(),
            upstream_timeouts: self.up.timeouts,
            upstream_redials: self.up.redials,
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
        let fetch = ProxyCore::new(ProxyPolicy::new(cfg), upstream::cache(capacity));
        let down = WritePath::new(consistency, 100, RETRY, MAX_RETRIES, None);
        let role = ParentRole {
            core: ParentCore::new(IDENTITY, fetch, down),
            up: Upstream::default(),
            links: Downstream::default(),
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
        let counters = self.node.call(|p, _, _| p.counters());
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
        let up = Upstream::next_deadline(self.core.fetch());
        earliest(up, self.links.next_deadline())
    }

    fn on_deadline(&mut self, now: SimTime, out: &mut Outbox) {
        self.up.expire(self.core.fetch_mut(), now, out);
        self.links.fire(self.core.down_mut(), now);
        self.links.emit(now, out, |_| ());
    }

    fn on_redial(&mut self, up: bool, out: &mut Outbox) {
        self.up.redialled(self.core.fetch_mut(), up, out);
    }

    fn render_metrics(&self, reactor: &evloop::ReactorCounters) -> String {
        let node = [("node", "parent")];
        let (c, fetch) = (self.core.counters(), self.core.fetch().counters());
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
            c.parent_hits,
        );
        r.set_counter(
            "wcc_upstream_requests_total",
            "Requests forwarded to the origin.",
            &node,
            fetch.gets_sent + fetch.ims_sent,
        );
        r.set_counter(
            "wcc_invalidations_relayed_total",
            "INVALIDATEs relayed to children.",
            &node,
            c.invalidations_relayed,
        );
        render_sitelist(&mut r, &node, &self.core.down().snapshot().sitelist);
        r.set_histogram(
            "wcc_serve_latency_seconds",
            "Wall-time child GET service latency, upstream fetches included.",
            &node,
            &self.up.latency,
        );
        self.up.render(self.core.fetch(), &mut r, &node);
        reactor.render(&mut r, &node);
        r.render()
    }

    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: HttpMsgRef<'_>) -> After {
        let now = cx.now();
        let (core, links) = (&mut self.core, &mut self.links);
        let after = match (*cx.tag, msg) {
            (KTag::Upstream, HttpMsgRef::Reply(reply)) => {
                let asked = &mut links.asked;
                if let Some((answer, waiting)) = core.landed(reply.req, &reply.into(), now, asked) {
                    if let Waiter::Client(ticket, _) = waiting.done(&mut self.up.latency, now) {
                        let answer = Some(HttpMsg::Reply(answer));
                        cx.out.push(Out::Redeem(ticket, answer));
                    }
                }
                After::Keep
            }
            // A push: applied, acknowledged at once and relayed. Children
            // ack per document (`InvalAck`), so a coalesced round fans
            // out downstream as ordinary `INVALIDATE`s.
            (KTag::Upstream, HttpMsgRef::Owned(push)) => {
                match core.pushed(push, now, now, &mut links.asked) {
                    Some(_) => After::Keep,
                    None => return After::Close,
                }
            }
            // A reply flows down to the children only.
            (KTag::Child(_), HttpMsgRef::Reply(_)) => After::Close,
            (KTag::Child(site), HttpMsgRef::Owned(msg)) => match msg {
                HttpMsg::Get(get) if get.url.server() == core.down().server() => {
                    let issued_at = now; // judged and granted at receipt
                    let get = GetRequest { issued_at, ..get };
                    let waiting = || Waiting::new(Waiter::Client(cx.defer(), get), now);
                    // The serve is recorded before the reply ships: once the
                    // child's fetch returns, a scrape sees it.
                    if let Some(answer) = core.child_get(get, now, waiting, &mut links.asked) {
                        let took = cx.now().saturating_since(now);
                        self.up.latency.record(took.as_micros());
                        cx.reply(HttpMsg::Reply(answer));
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
                    let down = core.down_mut();
                    if !down.on_site_hello(partition, partitions, now, &mut links.asked) {
                        return After::Close;
                    }
                    links.channels.insert(partition, cx.token);
                    *cx.tag = KTag::Child(Some(partition));
                    After::Keep
                }
                // An ack counts only on a registered channel, for a copy of
                // that partition's; any other closes the connection.
                HttpMsg::InvalAck {
                    url,
                    client,
                    cache_hits,
                } => {
                    let acked = site.map(|site| core.child_ack(site, url, client, cache_hits, now));
                    match acked {
                        Some(Ok(())) => After::Keep,
                        _ => return After::Close,
                    }
                }
                // A child acking a relayed bulk invalidation.
                HttpMsg::InvalidateServerAck { .. } => {
                    if let Some(site) = site {
                        core.child_bulk_ack(site);
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
