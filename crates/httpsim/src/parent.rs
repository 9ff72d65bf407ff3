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
//! The protocol is [`ParentCore`]'s: a [`ProxyCore`] towards the origin
//! and a [`WritePath`] towards the children, one decision-maker for both
//! parents, which grants a child no longer than the parent's own copy is
//! promised. This node only routes, charges, arms timers and keeps the
//! trace clock the children's requests carry.

use crate::cost::CostModel;
use crate::origin::{timer_token, token_timer};
use wcc_cache::CacheStore;
use wcc_core::{OriginOut, ParentCore, ProtocolConfig, ProxyCore, ProxyPolicy, WritePath};
use wcc_proto::{GetRequest, HttpMsg, Message, Reply, ReplyStatus};
use wcc_simnet::{Ctx, Node};
use wcc_types::{ClientId, NodeId, SimTime};

/// The parent-tier node. Wired by
/// [`Deployment`](crate::Deployment) when hierarchy mode is enabled.
#[derive(Debug)]
pub struct ParentNode {
    /// Both protocol halves; each flight is waited for by a child node.
    pub(crate) core: ParentCore<NodeId>,
    /// What the core last asked for; drained by [`Self::emit`] and reused.
    out: Vec<OriginOut>,
    /// Child node of each site (child identity `i` is site `i`).
    children: Vec<NodeId>,
    origin: NodeId,
    costs: CostModel,
    /// Latest trace time observed (used for child-lease decisions on
    /// invalidation relays, which carry no timestamp).
    trace_now: SimTime,
}

impl ParentNode {
    pub(crate) fn new(
        identity: ClientId,
        cfg: &ProtocolConfig,
        cache: CacheStore,
        costs: CostModel,
        down: WritePath,
    ) -> Self {
        let fetch = ProxyCore::new(ProxyPolicy::new(cfg), cache);
        ParentNode {
            core: ParentCore::new(identity, fetch, down),
            out: Vec::new(),
            children: Vec::new(),
            origin: NodeId::new(0),
            costs,
            trace_now: SimTime::ZERO,
        }
    }

    pub(crate) fn wire(&mut self, origin: NodeId, children: Vec<NodeId>) {
        self.origin = origin;
        self.core.down_mut().set_sites(children.len() as u32);
        self.children = children;
    }

    /// The protocol: the fetch core up, the write path down, the counters.
    pub fn core(&self) -> &ParentCore<NodeId> {
        &self.core
    }

    fn send(&mut self, to: NodeId, msg: HttpMsg, ctx: &mut Ctx<'_, Message>) {
        let size = msg.wire_size();
        ctx.send(to, Message::Http(msg), size);
    }

    /// Sends a child the answer the core granted it.
    fn answer(&mut self, child: NodeId, reply: Reply, ctx: &mut Ctx<'_, Message>) {
        ctx.consume(match &reply.status {
            ReplyStatus::Ok(body) => self.costs.serve_200_cpu(body.meta().size()),
            ReplyStatus::NotModified => self.costs.serve_304,
        });
        self.send(child, HttpMsg::Reply(reply), ctx);
    }

    /// Carries out what the core asked for, in its order. An `INVALIDATE`
    /// costs what the origin's does (the proposer is off on this tier, so
    /// no round is ever asked for).
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
                OriginOut::Up(msg) => self.send(self.origin, msg, ctx),
            }
        }
        self.out = out;
    }

    fn handle_child_get(&mut self, child: NodeId, get: GetRequest, ctx: &mut Ctx<'_, Message>) {
        ctx.consume(self.costs.request_parse);
        self.trace_now = self.trace_now.max(get.issued_at);
        if let Some(reply) = self.core.child_get(get, ctx.now(), || child, &mut self.out) {
            self.answer(child, reply, ctx);
        }
        self.emit(ctx);
    }

    /// An upstream reply: the waiting child's answer, or — overtaken by an
    /// `INVALIDATE`, or the parent copy evicted mid-validation — a plain
    /// `GET` for it.
    fn handle_upstream_reply(&mut self, reply: Reply, ctx: &mut Ctx<'_, Message>) {
        let (req, now) = (reply.req, ctx.now());
        if let Some((reply, child)) = self.core.landed(req, &reply.into(), now, &mut self.out) {
            self.answer(child, reply, ctx);
        }
        self.emit(ctx);
    }

    /// A push from the origin, charged like one `INVALIDATE` per copy (the
    /// bulk as one), then its ack and relay sent in the core's order.
    fn handle_push(&mut self, push: HttpMsg, ctx: &mut Ctx<'_, Message>) {
        let (at, now) = (self.trace_now, ctx.now());
        let Some(copies) = self.core.pushed(push, at, now, &mut self.out) else {
            return;
        };
        ctx.consume(self.costs.proxy_inval_cpu.saturating_mul(copies));
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
                if let Some(site) = self.children.iter().position(|&c| c == from) {
                    let now = ctx.now();
                    let _ = self
                        .core
                        .child_ack(site as u32, url, client, cache_hits, now);
                }
            }
            Message::Http(HttpMsg::InvalidateServerAck { .. }) => {
                // A child acking the relayed bulk invalidation.
                if let Some(site) = self.children.iter().position(|&c| c == from) {
                    self.core.child_bulk_ack(site as u32);
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
        self.core
            .down_mut()
            .on_timer(token_timer(token), ctx.now(), &mut self.out);
        self.emit(ctx);
    }
}
