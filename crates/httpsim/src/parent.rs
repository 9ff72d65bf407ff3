//! A parent (second-tier) proxy cache — the hierarchical-caching extension.
//!
//! The paper's §2 notes that Worrell's thesis found invalidation attractive
//! *given* a caching hierarchy, "which significantly reduces the overhead
//! for invalidation", but evaluates only the flat case because "hierarchical
//! caches are not yet widely present". This node supplies the missing tier:
//! child proxies fetch through it, so the origin's site list holds a single
//! entry per document (the parent) and one `INVALIDATE` per modification
//! fans out down the tree instead of across every client site.
//!
//! The parent is both halves of the protocol at once: a [`ProxyCore`]
//! towards the origin, which applies each push and builds its ack, and a
//! [`WritePath`] towards its children, which relays it from that ack and
//! builds the frames — the cores the proxies and the origin drive. This
//! node only routes, charges and arms timers around them.

use crate::cost::CostModel;
use crate::origin::{timer_token, token_timer};
use wcc_cache::CacheStore;
use wcc_core::{Begin, Complete, OriginOut, ProtocolConfig, ProxyCore, ProxyPolicy, WritePath};
use wcc_proto::{GetRequest, HttpMsg, Message, Reply, ReplyStatus};
use wcc_simnet::{Ctx, Node};
use wcc_types::{ByteSize, ClientId, DocMeta, NodeId, SimTime};

/// What the parent counts beside its fetch core's
/// [`FetchCounters`](wcc_core::FetchCounters) ([`ParentNode::core`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParentCounters {
    /// Requests received from children.
    pub child_requests: u64,
    /// Of those, served from the parent cache without contacting the origin.
    pub parent_hits: u64,
    /// `INVALIDATE`s relayed to children, re-sends included.
    pub invalidations_relayed: u64,
    /// Bytes sent by the parent (up + down).
    pub bytes_sent: ByteSize,
}

/// The parent-tier node. Wired by
/// [`Deployment`](crate::Deployment) when hierarchy mode is enabled.
#[derive(Debug)]
pub struct ParentNode {
    /// The identity this parent presents to the origin.
    identity: ClientId,
    /// Origin-facing protocol half; each flight is waited for by a child
    /// node and the `GET` it sent.
    core: ProxyCore<(NodeId, GetRequest)>,
    /// Child-facing protocol half: the children's site lists and the
    /// relays they have yet to acknowledge.
    pub(crate) down: WritePath,
    /// What `down` last asked for; drained by [`Self::emit`] and reused.
    out: Vec<OriginOut>,
    /// Child node of each site (child identity `i` is site `i`).
    children: Vec<NodeId>,
    origin: NodeId,
    costs: CostModel,
    /// Latest trace time observed (used for child-lease decisions on
    /// invalidation relays, which carry no timestamp).
    trace_now: SimTime,
    counters: ParentCounters,
}

impl ParentNode {
    pub(crate) fn new(
        identity: ClientId,
        cfg: &ProtocolConfig,
        cache: CacheStore,
        costs: CostModel,
        down: WritePath,
    ) -> Self {
        ParentNode {
            identity,
            core: ProxyCore::new(ProxyPolicy::new(cfg), cache),
            down,
            out: Vec::new(),
            children: Vec::new(),
            origin: NodeId::new(0),
            costs,
            trace_now: SimTime::ZERO,
            counters: ParentCounters::default(),
        }
    }

    pub(crate) fn wire(&mut self, origin: NodeId, children: Vec<NodeId>) {
        self.origin = origin;
        self.down.set_sites(children.len() as u32);
        self.children = children;
    }

    /// The counters the fetch core does not keep.
    pub fn counters(&self) -> ParentCounters {
        ParentCounters {
            invalidations_relayed: self.down.snapshot().invalidations,
            ..self.counters
        }
    }

    /// The origin-facing fetch core: the parent's cache and policy, and the
    /// counters of upstream `GET`/`IMS` sent, invalidations and races.
    pub fn core(&self) -> &ProxyCore<(NodeId, GetRequest)> {
        &self.core
    }

    /// The child-facing write path (site lists towards children, relays).
    pub fn down(&self) -> &WritePath {
        &self.down
    }

    fn send(&mut self, to: NodeId, msg: HttpMsg, ctx: &mut Ctx<'_, Message>) {
        let size = msg.wire_size();
        self.counters.bytes_sent += size;
        ctx.send(to, Message::Http(msg), size);
    }

    /// Answers `get` from the parent's cached copy `meta`, registering the
    /// child and granting it a lease through the child-facing half.
    fn reply_from_cache(
        &mut self,
        child: NodeId,
        get: &GetRequest,
        meta: DocMeta,
        ctx: &mut Ctx<'_, Message>,
    ) {
        let (reply, _) = self.down.grant(get, meta, ctx.now());
        ctx.consume(match reply.status {
            ReplyStatus::Ok(_) => self.costs.serve_200_cpu(meta.size()),
            ReplyStatus::NotModified => self.costs.serve_304,
        });
        self.send(child, HttpMsg::Reply(reply), ctx);
    }

    /// Carries out what the child-facing half asked for, in its order. An
    /// `INVALIDATE` costs what the origin's does (the proposer is off on
    /// this tier, so no round is ever asked for).
    fn emit(&mut self, ctx: &mut Ctx<'_, Message>) {
        let mut out = std::mem::take(&mut self.out);
        for asked in out.drain(..) {
            match asked {
                OriginOut::Arm { after, timer } => {
                    ctx.set_timer(after, timer_token(timer));
                }
                OriginOut::Push { site, msg } => {
                    if matches!(msg, HttpMsg::Invalidate { .. }) {
                        ctx.consume(self.costs.inval_send);
                    }
                    self.send(self.children[site as usize], msg, ctx);
                }
            }
        }
        self.out = out;
    }

    fn handle_child_get(&mut self, child: NodeId, get: GetRequest, ctx: &mut Ctx<'_, Message>) {
        ctx.consume(self.costs.request_parse);
        self.counters.child_requests += 1;
        self.trace_now = self.trace_now.max(get.issued_at);
        // Fold the child cache's hit report into this tier's counter so it
        // propagates to the origin on the parent's next upstream contact.
        self.core
            .absorb_report(get.url, self.identity, get.cache_hits);
        let waiter = || (child, get);
        match self
            .core
            .begin(self.identity, get.url, get.issued_at, ctx.now(), waiter)
        {
            Begin::Serve(meta) => {
                self.counters.parent_hits += 1;
                self.reply_from_cache(child, &get, meta, ctx);
            }
            Begin::Forward(upstream) => self.send(self.origin, HttpMsg::Get(upstream), ctx),
        }
    }

    fn handle_upstream_reply(&mut self, reply: Reply, ctx: &mut Ctx<'_, Message>) {
        match self.core.complete(reply.req, &reply.into(), ctx.now()) {
            Some(Complete::Done {
                outcome,
                waiter: (child, get),
            }) => self.reply_from_cache(child, &get, outcome.meta, ctx),
            // Overtaken by an INVALIDATE, or the parent copy was evicted
            // mid-validation: a plain GET goes out for the waiting child
            // rather than a stale version being cached (and leased out).
            Some(Complete::Forward(get)) => self.send(self.origin, HttpMsg::Get(get), ctx),
            None => {}
        }
    }

    /// A push from the origin: applied as a proxy does, each copy held as
    /// the parent's own and charged like one `INVALIDATE` (the bulk as one),
    /// then relayed down the tree from its ack. A bulk is relayed before it
    /// is acked — the children's acks are this tier's to collect — anything
    /// else acked first.
    fn handle_push(&mut self, push: HttpMsg, ctx: &mut Ctx<'_, Message>) {
        let Some(ack) = self.core.on_push(push, Some(self.identity), ctx.now()) else {
            return;
        };
        let copies = ack.acked().count().max(1) as u64;
        ctx.consume(self.costs.proxy_inval_cpu.saturating_mul(copies));
        self.down
            .relay(&ack, self.trace_now, ctx.now(), &mut self.out);
        if matches!(ack, HttpMsg::InvalidateServerAck { .. }) {
            self.emit(ctx);
        }
        self.send(self.origin, ack, ctx);
        self.emit(ctx);
    }
}

impl Node<Message> for ParentNode {
    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_, Message>) {
        match msg {
            Message::Http(HttpMsg::Get(get)) => self.handle_child_get(from, get, ctx),
            Message::Http(HttpMsg::Reply(reply)) => self.handle_upstream_reply(reply, ctx),
            Message::Http(
                push @ (HttpMsg::Invalidate { .. }
                | HttpMsg::InvalidateBatch { .. }
                | HttpMsg::InvalidateServer { .. }),
            ) => self.handle_push(push, ctx),
            Message::Http(HttpMsg::InvalAck {
                url,
                client,
                cache_hits,
            }) => {
                // Fold the child's dying-copy report into the parent's own
                // counter so it reaches the origin eventually — only with
                // an ack this tier is waiting for, as the daemon's does.
                let Some(site) = self.children.iter().position(|&c| c == from) else {
                    return;
                };
                let pending = self.down.consistency().has_pending(url);
                if self.down.ack(site as u32, url, client, ctx.now()).is_ok() && pending {
                    self.core.absorb_report(url, self.identity, cache_hits);
                }
            }
            Message::Http(HttpMsg::InvalidateServerAck { .. }) => {
                // A child acking the relayed bulk invalidation.
                if let Some(site) = self.children.iter().position(|&c| c == from) {
                    self.down.bulk_ack(site as u32);
                }
            }
            // Parents sit outside the coordinator barrier and never see
            // these; spelled out (no `_`) so a new wire variant is a
            // compile error and a lint finding here.
            other @ (Message::Http(
                HttpMsg::Hello { .. }
                | HttpMsg::MetricsGet
                | HttpMsg::Notify { .. }
                | HttpMsg::InvalidateBatchAck { .. },
            )
            | Message::Coord(_)) => {
                debug_assert!(false, "parent got unexpected message {other:?}");
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Message>) {
        self.down
            .on_timer(token_timer(token), ctx.now(), &mut self.out);
        self.emit(ctx);
    }
}
