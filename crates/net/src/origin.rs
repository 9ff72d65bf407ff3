//! The TCP origin server + accelerator, served by a readiness reactor.
//!
//! One thread owns every connection: per-request `GET`s, modifier
//! check-ins, `/metrics` scrapes, and each proxy's one persistent
//! connection, whose `HELLO` makes it that partition's push channel and
//! whose `GET`s are answered like any other, all multiplex over the node
//! runtime's loop ([`crate::evloop`]). The protocol — grants, fan-out, acknowledgements,
//! retry, §5 recovery, §7 metering — is [`wcc_core::OriginCore`], which the
//! simulator's origin drives too; this file is its daemon driver: the
//! [`Role`] that owns the core on the node's thread, feeds it frames and
//! renders `/metrics`. The handle reaches the core only through
//! [`Node::call`]. The map from a site to that partition's push channel
//! and the timers are [`crate::downstream`]'s, shared with the parent.
//!
//! Every frame but a `GET` or a check-in goes whole to the core, with the
//! partition its connection said `HELLO` as; one the core refuses (an ack
//! without a `HELLO`, for another partition's copy or another server, a
//! `HELLO` with another partition count) closes the connection.
//!
//! An unacknowledged invalidation is re-sent every 250 ms, up to the core's
//! budget, and at once when its partition says `HELLO` again; a push to a
//! partition whose channel is down is dropped and stays pending. An origin
//! spawned with `recovering = true` (§5) has lost its site lists: it answers
//! every registration with a bulk `INVALIDATE <server>`, re-sent on the
//! same period until the `InvalidateServerAck` arrives.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;
use wcc_core::origin::MAX_RETRIES;
use wcc_core::{OriginCore, Proposer, ProtocolConfig, ServerConsistency, SiteVerdict};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{encode, GetRequest, HttpMsg, HttpMsgRef};
use wcc_types::{ByteSize, InvalBatchConfig, ServerId, SimTime, Url};

use crate::downstream::{render_sitelist, Downstream, RETRY};
use crate::evloop::{self, After, Cx, Node, Outbox, Role, Via};

/// Counters and state visible through [`NetOrigin::snapshot`]: the core's.
pub use wcc_core::OriginCounters as OriginSnapshot;

/// Configuration for [`NetOrigin::spawn`].
#[derive(Debug, Clone)]
pub struct OriginConfig {
    /// The server's identity (must match the URLs clients request).
    pub server: ServerId,
    /// Document sizes, indexed by document id.
    pub doc_sizes: Vec<ByteSize>,
    /// The consistency protocol to run.
    pub protocol: ProtocolConfig,
    /// Storage scale factor for document payloads (the paper's 100×).
    pub doc_scale: u64,
    /// Batched invalidation proposer thresholds. `None` keeps the
    /// per-write fan-out: one `INVALIDATE` push per stale copy. `Some`
    /// coalesces pending invalidations and fans out one multi-URL
    /// `InvalidateBatch` round per proxy partition when a count/byte
    /// threshold trips (or the age bound, on the reactor's tick).
    pub inval_batch: Option<InvalBatchConfig>,
}

/// The origin's state and its [`Role`], owned by the node's thread.
struct OriginRole {
    core: OriginCore,
    /// What connects the core to the wire and the timers.
    links: Downstream,
    /// Node-time GET service latency (decode to reply built).
    serve_latency: Histogram,
    /// Entries per flushed `InvalidateBatch` round.
    batch_sizes: Histogram,
}

/// A running TCP origin. Shuts down (and joins its reactor) on drop.
pub struct NetOrigin {
    addr: SocketAddr,
    node: Node<OriginRole>,
}

impl std::fmt::Debug for NetOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetOrigin")
            .field("addr", &self.addr)
            .finish()
    }
}

impl NetOrigin {
    /// Binds a loopback listener and starts serving.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding.
    pub fn spawn(config: OriginConfig) -> std::io::Result<NetOrigin> {
        Self::spawn_at("127.0.0.1:0".parse().expect("literal addr"), config, false)
    }

    /// Binds `addr` (use port 0 for ephemeral) and starts serving; with
    /// `recovering = true` the origin assumes its site lists were lost in
    /// a crash and runs the §5 bulk-invalidation recovery against every
    /// proxy that (re)registers.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding.
    pub fn spawn_at(
        addr: SocketAddr,
        config: OriginConfig,
        recovering: bool,
    ) -> std::io::Result<NetOrigin> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut core = OriginCore::new(
            ServerConsistency::new(&config.protocol, config.server),
            config.doc_sizes,
            config.doc_scale.max(1),
            RETRY,
            MAX_RETRIES,
            config.inval_batch,
        );
        if recovering {
            core.recover_unknown_sites();
        }
        let role = OriginRole {
            core,
            links: Downstream::default(),
            serve_latency: Histogram::default(),
            batch_sizes: Histogram::default(),
        };
        let node = evloop::spawn(role, listener, None)?;
        Ok(NetOrigin { addr, node })
    }

    /// The address to point proxies and the check-in utility at.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current Prometheus text exposition — the same body `GET
    /// /metrics` on [`NetOrigin::addr`] returns; empty if the node's
    /// thread is gone.
    pub fn metrics_text(&self) -> String {
        self.node.metrics_text()
    }

    /// A copy of the current counters and site-list stats; all zero if the
    /// node's thread is gone.
    pub fn snapshot(&self) -> OriginSnapshot {
        let snapshot = self.node.call(|o, _, _| o.core.snapshot());
        snapshot.unwrap_or_default()
    }

    /// Whether §5 restart recovery has finished. Always true for an
    /// origin spawned with `recovering = false`; after a crash restart it
    /// turns true once at least one proxy re-registered and every bulk
    /// invalidation sent so far was acknowledged. `false` if the node's
    /// thread is gone.
    pub fn recovery_complete(&self) -> bool {
        let done = self.node.call(|o, _, _| o.core.recovery_complete());
        done.unwrap_or(false)
    }

    /// Polls until [`NetOrigin::recovery_complete`] or `timeout` elapses;
    /// `false` at once if the node's thread is gone.
    pub fn wait_recovery_complete(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |o| o.core.recovery_complete())
    }

    /// Polls until every outstanding invalidation is acknowledged (the
    /// paper's write-completion condition) or `timeout` elapses. Returns
    /// whether completion was reached; `false` at once if the node's
    /// thread is gone.
    pub fn wait_writes_complete(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |o| o.core.consistency().writes_complete())
    }

    /// Polls until `sites` proxy partitions have registered their push
    /// channels with a `HELLO`, or `timeout` elapses: a write before then
    /// invalidates no one. Returns whether they had; `false` at once if the
    /// node's thread is gone.
    pub fn wait_registered(&self, sites: usize, timeout: Duration) -> bool {
        self.wait_until(timeout, move |o| o.links.channels.len() >= sites)
    }

    /// Polls `reached` on the node's thread, measuring `timeout` on the
    /// node's clock.
    fn wait_until(
        &self,
        timeout: Duration,
        reached: impl Fn(&OriginRole) -> bool + Copy + Send + 'static,
    ) -> bool {
        let mut since = None;
        while let Ok((done, now)) = self.node.call(move |o, now, _| (reached(o), now)) {
            let waited = Duration::from_micros((now - *since.get_or_insert(now)).as_micros());
            if done || waited >= timeout {
                return done;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "a handle polls from its caller's thread, never a node's"
            )]
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}

impl Role for OriginRole {
    /// `HELLO` upgrades a plain connection into the push channel of one
    /// proxy partition: which.
    type Tag = Option<u32>;

    fn tag(&self, _via: Via) -> Option<u32> {
        None
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.links.next_deadline()
    }

    fn on_deadline(&mut self, now: SimTime, out: &mut Outbox) {
        self.links.fire(&mut self.core, now);
        let sizes = &mut self.batch_sizes;
        self.links.emit(now, out, |n| sizes.record(n));
    }

    fn render_metrics(&self, reactor: &evloop::ReactorCounters) -> String {
        let node = [("node", "origin")];
        let c = &self.core.snapshot();
        let mut r = Registry::default();
        r.set_counter(
            "wcc_gets_total",
            "Plain GET requests served.",
            &node,
            c.gets,
        );
        r.set_counter(
            "wcc_ims_total",
            "If-Modified-Since requests served.",
            &node,
            c.ims,
        );
        r.set_counter(
            "wcc_replies_200_total",
            "200 replies sent.",
            &node,
            c.replies_200,
        );
        r.set_counter(
            "wcc_replies_304_total",
            "304 replies sent.",
            &node,
            c.replies_304,
        );
        r.set_counter(
            "wcc_invalidations_total",
            "INVALIDATEs pushed to proxies.",
            &node,
            c.invalidations,
        );
        r.set_counter(
            "wcc_inval_batches_total",
            "InvalidateBatch rounds flushed by the batched proposer.",
            &node,
            c.inval_batches,
        );
        r.set_counter(
            "wcc_inval_batched_entries_total",
            "Deduplicated entries carried by flushed batch rounds.",
            &node,
            c.batched_entries,
        );
        r.set_counter(
            "wcc_inval_coalesced_total",
            "Enqueued invalidations absorbed by proposer coalescing.",
            &node,
            c.coalesced_invalidations,
        );
        r.set_counter(
            "wcc_inval_acks_total",
            "Invalidation acknowledgements received.",
            &node,
            c.acks,
        );
        r.set_counter(
            "wcc_notifies_total",
            "Modifier check-ins processed.",
            &node,
            c.notifies,
        );
        r.set_counter(
            "wcc_metered_served_total",
            "Requests answered here, as the hit meter counts them (§7).",
            &node,
            c.metered_served,
        );
        r.set_counter(
            "wcc_metered_reported_total",
            "Cache hits the proxies reported on GETs and acknowledgements (§7).",
            &node,
            c.metered_reported,
        );
        render_sitelist(&mut r, &node, &c.sitelist);
        r.set_gauge(
            "wcc_writes_complete",
            "1 when every invalidation has been acknowledged.",
            &node,
            u64::from(c.writes_complete),
        );
        r.set_gauge(
            "wcc_recovery_complete",
            "1 when §5 restart recovery has finished (always 1 on a clean start).",
            &node,
            u64::from(self.core.recovery_complete()),
        );
        r.set_gauge(
            "wcc_inval_pending_queue",
            "Coalesced (document, client) entries waiting in the proposer.",
            &node,
            self.core.proposer().map_or(0, Proposer::entries) as u64,
        );
        r.set_histogram(
            "wcc_serve_latency_seconds",
            "Wall-time GET service latency.",
            &node,
            &self.serve_latency,
        );
        r.set_histogram(
            "wcc_inval_batch_size",
            "Entries per flushed InvalidateBatch round.",
            &node,
            &self.batch_sizes,
        );
        reactor.render(&mut r, &node);
        r.render()
    }

    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: HttpMsgRef<'_>) -> After {
        let now = cx.now();
        let (core, links) = (&mut self.core, &mut self.links);
        let HttpMsgRef::Owned(msg) = msg else {
            return After::Close; // a reply flows origin -> proxy only
        };
        match msg {
            HttpMsg::Get(get) => {
                let issued_at = now; // granted at receipt, on this node's clock
                let get = GetRequest { issued_at, ..get };
                let Some((reply, _)) = core.serve(&get, now) else {
                    return After::Close; // not a document of this origin
                };
                // Recorded before the reply ships: once the requester's
                // fetch returns, a scrape must already see this serve.
                let took = cx.now().saturating_since(now);
                self.serve_latency.record(took.as_micros());
                cx.reply(HttpMsg::Reply(reply));
            }
            HttpMsg::Notify { url, at } => {
                if core.touch(url, at, now).is_none() {
                    return After::Close; // not a document of this origin
                }
                core.modify(url, at, now, now, &mut links.asked);
            }
            // A partition's frames, whose `HELLO` makes this connection its
            // push channel (owed the §5 bulk, and what it still owes an ack
            // for); the core refuses the rest, origin -> proxy frames too.
            frame @ (HttpMsg::Hello { .. }
            | HttpMsg::InvalAck { .. }
            | HttpMsg::InvalidateBatchAck { .. }
            | HttpMsg::InvalidateServerAck { .. }
            | HttpMsg::Reply(_)
            | HttpMsg::Invalidate { .. }
            | HttpMsg::InvalidateBatch { .. }
            | HttpMsg::InvalidateServer { .. }
            | HttpMsg::MetricsGet) => {
                match core.on_site_frame(*cx.tag, frame, now, &mut links.asked, |_, _| ()) {
                    SiteVerdict::Registered(partition) => {
                        links.channels.insert(partition, cx.token);
                        *cx.tag = Some(partition);
                    }
                    SiteVerdict::Applied => {}
                    SiteVerdict::Refused => return After::Close,
                }
            }
        }
        let sizes = &mut self.batch_sizes;
        links.emit(now, cx.out, |n| sizes.record(n));
        After::Keep
    }
}

/// The modifier's check-in utility: tells the accelerator at `origin` that
/// `url` was modified at (logical) time `at`.
///
/// # Errors
///
/// Returns any socket error.
#[expect(
    clippy::disallowed_methods,
    reason = "the modifier's own thread, never a node's"
)]
pub fn check_in(origin: SocketAddr, url: Url, at: SimTime) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(origin)?;
    stream.write_all(&encode(&HttpMsg::Notify { url, at }))?;
    stream.flush()
}
