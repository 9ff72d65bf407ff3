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
//! (policy, cache, flights) towards the origin, and a
//! [`ServerConsistency`] (site lists, leases, pending acks) towards its
//! children — the same state machines as everywhere else in the workspace.

use crate::cost::CostModel;
use crate::SimMsg;
use wcc_cache::CacheStore;
use wcc_core::{Begin, Complete, ProtocolConfig, ProxyCore, ProxyPolicy, ServerConsistency};
use wcc_proto::{GetRequest, HttpMsg, Message, Reply};
use wcc_simnet::{Ctx, Node};
use wcc_types::{ByteSize, ClientId, DocMeta, FxHashMap, NodeId, SimTime, Url};

/// What the parent counts beside its fetch core's
/// [`FetchCounters`](wcc_core::FetchCounters) ([`ParentNode::core`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParentCounters {
    /// Requests received from children.
    pub child_requests: u64,
    /// Of those, served from the parent cache without contacting the origin.
    pub parent_hits: u64,
    /// `INVALIDATE`s relayed to children.
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
    /// Child-facing protocol half: per-document lists of child sites.
    children_state: ServerConsistency,
    /// Child identity → child node, for invalidation routing.
    child_routes: FxHashMap<ClientId, NodeId>,
    origin: NodeId,
    costs: CostModel,
    doc_scale: u64,
    /// Latest trace time observed (used for child-lease decisions on
    /// invalidation relays, which carry no timestamp).
    trace_now: SimTime,
    pub(crate) counters: ParentCounters,
}

impl ParentNode {
    pub(crate) fn new(
        identity: ClientId,
        cfg: &ProtocolConfig,
        cache: CacheStore,
        costs: CostModel,
        doc_scale: u64,
        server: wcc_types::ServerId,
    ) -> Self {
        ParentNode {
            identity,
            core: ProxyCore::new(ProxyPolicy::new(cfg), cache),
            children_state: ServerConsistency::new(cfg, server),
            child_routes: FxHashMap::default(),
            origin: NodeId::new(0),
            costs,
            doc_scale,
            trace_now: SimTime::ZERO,
            counters: ParentCounters::default(),
        }
    }

    pub(crate) fn wire(&mut self, origin: NodeId, routes: FxHashMap<ClientId, NodeId>) {
        self.origin = origin;
        self.child_routes = routes;
    }

    /// The counters the fetch core does not keep.
    pub fn counters(&self) -> &ParentCounters {
        &self.counters
    }

    /// The origin-facing fetch core: the parent's cache and policy, and the
    /// counters of upstream `GET`/`IMS` sent, invalidations and races.
    pub fn core(&self) -> &ProxyCore<(NodeId, GetRequest)> {
        &self.core
    }

    /// The child-facing protocol state (site lists towards children).
    pub fn children_state(&self) -> &ServerConsistency {
        &self.children_state
    }

    fn send(&mut self, to: NodeId, msg: HttpMsg, ctx: &mut Ctx<'_, SimMsg>) {
        let size = msg.wire_size();
        self.counters.bytes_sent += size;
        ctx.send(to, SimMsg::Net(Message::Http(msg)), size);
    }

    /// Answers `get` from the parent's cached copy `meta`, registering the
    /// child and granting it a lease through the child-facing half.
    fn reply_from_cache(
        &mut self,
        child: NodeId,
        get: &GetRequest,
        meta: DocMeta,
        ctx: &mut Ctx<'_, SimMsg>,
    ) {
        let grant = self
            .children_state
            .on_get(get.url, get.client, get.ims, meta, get.issued_at);
        ctx.consume(if grant.send_body {
            self.costs.serve_200_cpu(meta.size())
        } else {
            self.costs.serve_304
        });
        let reply = grant.into_reply(get, meta, self.doc_scale);
        self.send(child, HttpMsg::Reply(reply), ctx);
    }

    fn handle_child_get(&mut self, child: NodeId, get: GetRequest, ctx: &mut Ctx<'_, SimMsg>) {
        ctx.consume(self.costs.request_parse);
        self.counters.child_requests += 1;
        self.trace_now = self.trace_now.max(get.issued_at);
        // Fold the child cache's hit report into this tier's counter so it
        // propagates to the origin on the parent's next upstream contact.
        self.core
            .absorb_report(get.url, self.identity, get.cache_hits);
        let waiter = || (child, get.clone());
        match self
            .core
            .begin(self.identity, get.url, get.issued_at, waiter)
        {
            Begin::Serve(meta) => {
                self.counters.parent_hits += 1;
                self.reply_from_cache(child, &get, meta, ctx);
            }
            Begin::Forward(upstream) => self.send(self.origin, HttpMsg::Get(upstream), ctx),
        }
    }

    fn handle_upstream_reply(&mut self, reply: Reply, ctx: &mut Ctx<'_, SimMsg>) {
        match self.core.complete(reply.req, &reply.into()) {
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

    fn handle_invalidate(&mut self, url: Url, ctx: &mut Ctx<'_, SimMsg>) {
        ctx.consume(self.costs.proxy_inval_cpu);
        // Drop the parent copy (poisoning any upstream request for it in
        // flight) and ack the origin, reporting the dying copy's unreported
        // hits (§7 metering).
        let ack = HttpMsg::InvalAck {
            url,
            client: self.identity,
            cache_hits: self.core.on_invalidate(url, self.identity),
        };
        self.send(self.origin, ack, ctx);
        // Relay down the tree: only children holding live-leased copies.
        let recipients = self.children_state.on_modify(url, self.trace_now);
        for child_identity in recipients {
            let Some(&node) = self.child_routes.get(&child_identity) else {
                continue;
            };
            ctx.consume(self.costs.inval_send);
            self.counters.invalidations_relayed += 1;
            let msg = HttpMsg::Invalidate {
                url,
                client: child_identity,
            };
            self.send(node, msg, ctx);
        }
    }
}

impl Node<SimMsg> for ParentNode {
    fn on_message(&mut self, from: NodeId, msg: SimMsg, ctx: &mut Ctx<'_, SimMsg>) {
        match msg {
            SimMsg::Net(Message::Http(HttpMsg::Get(get))) => self.handle_child_get(from, get, ctx),
            SimMsg::Net(Message::Http(HttpMsg::Reply(reply))) => {
                self.handle_upstream_reply(reply, ctx)
            }
            SimMsg::Net(Message::Http(HttpMsg::Invalidate { url, .. })) => {
                self.handle_invalidate(url, ctx)
            }
            SimMsg::Net(Message::Http(HttpMsg::InvalidateBatch { entries, .. })) => {
                // A coalesced round from the origin: each entry gets the
                // full per-copy treatment (drop, §7 report, per-copy ack,
                // relay down the tree).
                for entry in entries {
                    self.handle_invalidate(entry.url, ctx);
                }
            }
            SimMsg::Net(Message::Http(HttpMsg::InvalAck {
                url,
                client,
                cache_hits,
            })) => {
                // Fold the child's dying-copy report into the parent's own
                // counter so it reaches the origin eventually.
                self.core.absorb_report(url, self.identity, cache_hits);
                self.children_state.on_inval_ack(url, client);
            }
            SimMsg::Net(Message::Http(HttpMsg::InvalidateServer { server })) => {
                ctx.consume(self.costs.proxy_inval_cpu);
                self.core.on_invalidate_server(server);
                let relay_targets: Vec<NodeId> = {
                    let mut v: Vec<NodeId> = self.child_routes.values().copied().collect();
                    v.sort_unstable();
                    v
                };
                for node in relay_targets {
                    self.send(node, HttpMsg::InvalidateServer { server }, ctx);
                }
                // Ack once the parent itself has applied the bulk
                // invalidation; relaying to children is best-effort (their
                // copies are already marked questionable here).
                self.send(from, HttpMsg::InvalidateServerAck { server }, ctx);
            }
            SimMsg::Net(Message::Http(HttpMsg::InvalidateServerAck { .. })) => {
                // A child acking the relayed bulk invalidation; the origin's
                // retry loop only tracks its direct peers, so nothing to do.
            }
            // Parents sit outside the coordinator barrier and never see
            // these; spelled out (no `_`) so a new wire variant is a
            // compile error and a lint finding here.
            other @ (SimMsg::Net(Message::Http(
                HttpMsg::Hello { .. }
                | HttpMsg::MetricsGet
                | HttpMsg::Notify { .. }
                | HttpMsg::InvalidateBatchAck { .. },
            ))
            | SimMsg::Net(Message::Coord(_))
            | SimMsg::Dispatch { .. }) => {
                debug_assert!(false, "parent got unexpected message {other:?}");
            }
        }
    }
}
