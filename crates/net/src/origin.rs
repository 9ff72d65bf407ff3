//! The TCP origin server + accelerator, served by a readiness reactor.
//!
//! One thread owns every connection: per-request `GET`s, modifier
//! check-ins, `/metrics` scrapes, and the proxies' persistent `HELLO`
//! push channels all multiplex over the node runtime's loop
//! ([`crate::evloop`]). This file is the origin's state and its
//! [`Role`]: requests are answered where they arrive and `INVALIDATE`
//! pushes go through the runtime's outbox to the target channel.
//!
//! Restart recovery follows the paper's §5 model: an origin spawned with
//! `recovering = true` has lost its in-memory site lists, so it answers
//! every proxy re-registration with a bulk `INVALIDATE <server>` and
//! re-sends it every 250 ms until the `InvalidateServerAck` arrives.
//! Once every known channel has acknowledged, strong consistency holds
//! again without any persistent site-list storage.

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wcc_core::{Proposer, ProtocolConfig, ServerConsistency, SiteListStats};
use wcc_obs::{Histogram, Registry};
use wcc_proto::{encode, BatchEntry, GetRequest, HttpMsg, HttpMsgRef};
use wcc_types::{
    ByteSize, ClientId, DocMeta, InvalBatchConfig, ServerId, SimDuration, SimTime, Url, WallClock,
};

use crate::evloop::{self, earliest, time_left, After, Cx, Node, Out, Outbox, Role, Via};

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

/// Counters and state visible through [`NetOrigin::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct OriginSnapshot {
    /// Plain `GET`s served.
    pub gets: u64,
    /// `If-Modified-Since` requests served.
    pub ims: u64,
    /// `200` replies sent.
    pub replies_200: u64,
    /// `304` replies sent.
    pub replies_304: u64,
    /// `INVALIDATE`s pushed (logical per-copy count; with the batched
    /// proposer each coalesced entry still counts once here).
    pub invalidations: u64,
    /// `InvalidateBatch` rounds flushed by the proposer.
    pub inval_batches: u64,
    /// Entries carried by those rounds (deduplicated).
    pub batched_entries: u64,
    /// Enqueued invalidations absorbed by coalescing: the `(url, client)`
    /// pair was already pending when a later write re-enqueued it.
    pub coalesced_invalidations: u64,
    /// Acks received.
    pub acks: u64,
    /// Check-ins processed.
    pub notifies: u64,
    /// Whether every invalidation has been acknowledged.
    pub writes_complete: bool,
    /// Site-list statistics.
    pub sitelist: SiteListStats,
}

struct Protected {
    consistency: ServerConsistency,
    versions: Vec<SimTime>,
    counters: OriginSnapshot,
    /// Wall-time GET service latency (decode to reply built).
    serve_latency: Histogram,
    /// The batched proposer (`None`: per-write fan-out) — the same
    /// accumulator the simulator's origin drives.
    proposer: Option<Proposer>,
    /// Armed when the proposer's queue went empty → non-empty; drives the
    /// age threshold.
    pending_since: Option<WallClock>,
    /// Entries per flushed `InvalidateBatch` round.
    batch_sizes: Histogram,
    /// §5 restart recovery: still rebuilding consistency via bulk
    /// invalidation.
    recovering: bool,
    /// Partitions sent an `INVALIDATE <server>` and not yet acked.
    recovery_pending: BTreeSet<u32>,
    /// Partitions whose bulk invalidation was acknowledged.
    recovery_acked: BTreeSet<u32>,
}

impl Protected {
    /// The counters with everything derived filled in: the proposer's
    /// share, write completion and the site-list stats.
    fn snapshot(&self) -> OriginSnapshot {
        let mut snap = self.counters.clone();
        if let Some(stats) = self.proposer.as_ref().map(Proposer::stats) {
            snap.inval_batches = stats.batches;
            snap.batched_entries = stats.flushed_entries;
            snap.coalesced_invalidations = stats.coalesced;
        }
        snap.writes_complete = self.consistency.writes_complete();
        snap.sitelist = self.consistency.table().stats();
        snap
    }
}

struct State {
    server: ServerId,
    doc_sizes: Vec<ByteSize>,
    /// Reloadable via [`NetOrigin::set_doc_scale`] (SIGHUP config reload).
    doc_scale: AtomicU32,
    protected: Mutex<Protected>,
}

/// What one check-in produced for the wire.
enum Fanout {
    /// Per-write fan-out: push one `INVALIDATE` per recipient now.
    PerWrite(Vec<ClientId>),
    /// Batched proposer: recipients were queued; `flush` is set when the
    /// count or byte threshold tripped and the round should go out now.
    Queued { flush: bool },
}

impl State {
    /// Serves one `GET`; `None` for a document this origin does not have
    /// (the id comes straight off the wire).
    fn handle_get(&self, get: &GetRequest) -> Option<HttpMsg> {
        let mut p = self.protected.lock();
        let doc = get.url.doc() as usize;
        let meta = DocMeta::new(*self.doc_sizes.get(doc)?, *p.versions.get(doc)?);
        if get.is_ims() {
            p.counters.ims += 1;
        } else {
            p.counters.gets += 1;
        }
        let grant = p
            .consistency
            .on_get(get.url, get.client, get.ims, meta, get.issued_at);
        if grant.send_body {
            p.counters.replies_200 += 1;
        } else {
            p.counters.replies_304 += 1;
        }
        let doc_scale = u64::from(self.doc_scale.load(Ordering::SeqCst));
        Some(HttpMsg::Reply(grant.into_reply(get, meta, doc_scale)))
    }

    /// Processes a check-in; returns what to push on the wire, or `None`
    /// for a document this origin does not have.
    fn handle_notify(&self, url: Url, at: SimTime) -> Option<Fanout> {
        let mut p = self.protected.lock();
        let version = p.versions.get_mut(url.doc() as usize)?;
        *version = (*version).max(at);
        p.counters.notifies += 1;
        let recipients = p.consistency.on_modify(url, at);
        p.counters.invalidations += recipients.len() as u64;
        let Protected {
            proposer: Some(proposer),
            pending_since,
            ..
        } = &mut *p
        else {
            return Some(Fanout::PerWrite(recipients));
        };
        for client in recipients {
            if proposer.enqueue(url, client) {
                *pending_since = Some(WallClock::start());
            }
        }
        Some(Fanout::Queued {
            flush: proposer.should_flush(),
        })
    }

    /// Drains the proposer into one sorted entry list per proxy
    /// partition, recording the per-round stats.
    fn drain_pending(&self, partitions: u32) -> BTreeMap<u32, Vec<BatchEntry>> {
        let mut per: BTreeMap<u32, Vec<BatchEntry>> = BTreeMap::new();
        let mut p = self.protected.lock();
        let Protected {
            proposer: Some(proposer),
            pending_since,
            batch_sizes,
            ..
        } = &mut *p
        else {
            return per;
        };
        if proposer.is_empty() {
            return per;
        }
        *pending_since = None;
        for (url, clients) in proposer.drain() {
            for client in clients {
                per.entry(client.partition(partitions.max(1)))
                    .or_default()
                    .push(BatchEntry { url, client });
            }
        }
        for entries in per.values() {
            proposer.note_batch(entries.len());
            batch_sizes.record(entries.len() as u64);
        }
        per
    }

    fn handle_ack(&self, url: Url, client: ClientId) {
        let mut p = self.protected.lock();
        p.counters.acks += 1;
        p.consistency.on_inval_ack(url, client);
    }

    fn recovery_done(p: &Protected) -> bool {
        !p.recovering || (!p.recovery_acked.is_empty() && p.recovery_pending.is_empty())
    }

    /// Renders the node's registry as Prometheus text exposition.
    fn render_metrics(&self) -> String {
        let p = self.protected.lock();
        let node = [("node", "origin")];
        let c = &p.snapshot();
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
        let stats = &c.sitelist;
        r.set_gauge(
            "wcc_sitelist_entries",
            "Live site-list entries (granted leases / registrations).",
            &node,
            stats.total_entries,
        );
        r.set_gauge(
            "wcc_sitelist_tracked_documents",
            "Documents with a non-empty site list.",
            &node,
            stats.tracked_documents,
        );
        r.set_gauge(
            "wcc_sitelist_max_list_len",
            "Longest site list.",
            &node,
            stats.max_list_len,
        );
        r.set_gauge(
            "wcc_sitelist_storage_bytes",
            "Estimated site-list memory.",
            &node,
            stats.storage.as_u64(),
        );
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
            u64::from(Self::recovery_done(&p)),
        );
        r.set_gauge(
            "wcc_inval_pending_queue",
            "Coalesced (document, client) entries waiting in the proposer.",
            &node,
            p.proposer.as_ref().map_or(0, Proposer::entries) as u64,
        );
        r.set_histogram(
            "wcc_serve_latency_seconds",
            "Wall-time GET service latency.",
            &node,
            &p.serve_latency,
        );
        r.set_histogram(
            "wcc_inval_batch_size",
            "Entries per flushed InvalidateBatch round.",
            &node,
            &p.batch_sizes,
        );
        r.render()
    }
}

/// A running TCP origin. Shuts down (and joins its reactor) on drop.
pub struct NetOrigin {
    addr: SocketAddr,
    state: Arc<State>,
    _node: Node,
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
        let n = config.doc_sizes.len();
        let state = Arc::new(State {
            server: config.server,
            doc_sizes: config.doc_sizes,
            doc_scale: AtomicU32::new(u32::try_from(config.doc_scale.max(1)).unwrap_or(u32::MAX)),
            protected: Mutex::new(Protected {
                consistency: ServerConsistency::new(&config.protocol, config.server),
                versions: vec![SimTime::ZERO; n],
                counters: OriginSnapshot::default(),
                serve_latency: Histogram::default(),
                proposer: config.inval_batch.map(Proposer::new),
                pending_since: None,
                batch_sizes: Histogram::default(),
                recovering,
                recovery_pending: BTreeSet::new(),
                recovery_acked: BTreeSet::new(),
            }),
        });
        let role = OriginRole {
            state: Arc::clone(&state),
            channels: HashMap::new(),
            total_partitions: 1,
            bulk_sent: WallClock::start(),
        };
        let node = evloop::spawn(role, listener, None, None)?;
        Ok(NetOrigin {
            addr,
            state,
            _node: node,
        })
    }

    /// The address to point proxies and the check-in utility at.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current Prometheus text exposition — the same body `GET
    /// /metrics` on [`NetOrigin::addr`] returns.
    pub fn metrics_text(&self) -> String {
        self.state.render_metrics()
    }

    /// A copy of the current counters and site-list stats.
    pub fn snapshot(&self) -> OriginSnapshot {
        self.state.protected.lock().snapshot()
    }

    /// Swaps the payload scale factor at runtime (`wcc serve`'s SIGHUP
    /// config reload).
    pub fn set_doc_scale(&self, doc_scale: u64) {
        let clamped = u32::try_from(doc_scale.max(1)).unwrap_or(u32::MAX);
        self.state.doc_scale.store(clamped, Ordering::SeqCst);
    }

    /// Whether §5 restart recovery has finished. Always true for an
    /// origin spawned with `recovering = false`; after a crash restart it
    /// turns true once at least one proxy re-registered and every bulk
    /// invalidation sent so far was acknowledged.
    pub fn recovery_complete(&self) -> bool {
        State::recovery_done(&self.state.protected.lock())
    }

    /// Polls until [`NetOrigin::recovery_complete`] or `timeout` elapses.
    pub fn wait_recovery_complete(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, State::recovery_done)
    }

    /// Polls until every outstanding invalidation is acknowledged (the
    /// paper's write-completion condition) or `timeout` elapses. Returns
    /// whether completion was reached.
    pub fn wait_writes_complete(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |p| p.consistency.writes_complete())
    }

    fn wait_until(&self, timeout: Duration, reached: impl Fn(&Protected) -> bool) -> bool {
        let clock = WallClock::start();
        let timeout =
            SimDuration::from_micros(u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX));
        loop {
            if reached(&self.state.protected.lock()) {
                return true;
            }
            if clock.has_elapsed(timeout) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Per-connection tag: `HELLO` upgrades a plain connection into a push
/// channel for one proxy partition.
struct OTag {
    partition: Option<u32>,
}

/// How often an unacknowledged §5 bulk invalidation is re-sent.
const BULK_RETRY: SimDuration = SimDuration::from_millis(250);

/// The origin's reactor-side state: who to push to.
struct OriginRole {
    state: Arc<State>,
    /// partition -> push-channel token (latest HELLO wins, stale tokens
    /// fail their generation check harmlessly).
    channels: HashMap<u32, u64>,
    /// Partition count the proxies declared in their HELLOs; routing must
    /// use the same modulus the proxies used when sharding clients.
    total_partitions: u32,
    /// Started when a bulk invalidation was last (re-)sent.
    bulk_sent: WallClock,
}

impl OriginRole {
    /// Time left on the origin's two timers: the §5 bulk-invalidation
    /// retry and the proposer's age threshold.
    fn timers(&self) -> (Option<Duration>, Option<Duration>) {
        let p = self.state.protected.lock();
        let retry = (p.recovering && !p.recovery_pending.is_empty())
            .then(|| time_left(&self.bulk_sent, BULK_RETRY));
        let age = p
            .pending_since
            .as_ref()
            .zip(p.proposer.as_ref())
            .map(|(since, proposer)| time_left(since, proposer.config().max_age));
        (retry, age)
    }

    /// Drains the proposer into one `InvalidateBatch` per proxy partition
    /// with a live push channel. Entries routed at a partition with no
    /// channel are dropped from the wire like their per-write equivalents:
    /// the site list still holds them, and a re-registration (or the §5
    /// bulk recovery invalidation) picks them up.
    fn flush_batches(&self, out: &mut Outbox) {
        for (partition, entries) in self.state.drain_pending(self.total_partitions) {
            if let Some(&tok) = self.channels.get(&partition) {
                let server = self.state.server;
                out.push(Out::Push(tok, HttpMsg::InvalidateBatch { server, entries }));
            }
        }
    }
}

impl Role for OriginRole {
    type Tag = OTag;

    fn tag(&self, _via: Via) -> OTag {
        OTag { partition: None }
    }

    fn next_deadline(&self) -> Option<Duration> {
        let (retry, age) = self.timers();
        earliest(retry, age)
    }

    fn on_deadline(&mut self, out: &mut Outbox) {
        let (retry, age) = self.timers();
        if age == Some(Duration::ZERO) {
            // Age flush: the oldest pending entry has waited max_age, so
            // the round goes out even though no count threshold tripped.
            self.flush_batches(out);
        }
        if retry == Some(Duration::ZERO) {
            // Re-send the bulk invalidation to every pending partition
            // (idempotent on the proxy side).
            let server = self.state.server;
            for partition in &self.state.protected.lock().recovery_pending {
                if let Some(&tok) = self.channels.get(partition) {
                    out.push(Out::Push(tok, HttpMsg::InvalidateServer { server }));
                }
            }
            self.bulk_sent = WallClock::start();
        }
    }

    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: &HttpMsgRef<'_>) -> After {
        let state = &self.state;
        match msg {
            HttpMsgRef::Get(get) if get.url.server() == state.server => {
                let clock = WallClock::start();
                let Some(reply) = state.handle_get(get) else {
                    return After::Close; // no such document
                };
                // Record before the reply ships: once the requester's
                // fetch returns, a scrape must already see this serve.
                state
                    .protected
                    .lock()
                    .serve_latency
                    .record(clock.elapsed().as_micros());
                cx.reply(reply);
                After::Keep
            }
            HttpMsgRef::MetricsGet => cx.reply_metrics(&state.render_metrics()),
            HttpMsgRef::Notify { url, at } if url.server() == state.server => {
                match state.handle_notify(*url, *at) {
                    None => return After::Close, // no such document
                    Some(Fanout::PerWrite(recipients)) => {
                        let partitions = self.total_partitions.max(1);
                        for client in recipients {
                            // Best-effort: a dead channel leaves the entry
                            // pending; a re-registered proxy (or the bulk
                            // recovery invalidation) will pick it up.
                            if let Some(&tok) = self.channels.get(&client.partition(partitions)) {
                                cx.out.push(Out::Push(
                                    tok,
                                    HttpMsg::Invalidate { url: *url, client },
                                ));
                            }
                        }
                    }
                    Some(Fanout::Queued { flush: true }) => self.flush_batches(cx.out),
                    Some(Fanout::Queued { flush: false }) => {}
                }
                After::Keep
            }
            HttpMsgRef::InvalAck {
                url,
                client,
                cache_hits: _,
            } => {
                state.handle_ack(*url, *client);
                After::Keep
            }
            HttpMsgRef::InvalidateBatchAck(ack) if ack.server == state.server => {
                // A whole proposer round acknowledged: clean the site lists
                // entry by entry, exactly as per-entry `InvalAck`s would.
                for e in ack.entries() {
                    state.handle_ack(e.url, e.client);
                }
                After::Keep
            }
            HttpMsgRef::InvalidateServerAck { server } if *server == state.server => {
                let mut p = state.protected.lock();
                p.counters.acks += 1;
                if let Some(partition) = cx.tag.partition {
                    p.recovery_pending.remove(&partition);
                    p.recovery_acked.insert(partition);
                }
                After::Keep
            }
            HttpMsgRef::Hello {
                partition,
                partitions,
            } => {
                self.total_partitions = (*partitions).max(1);
                self.channels.insert(*partition, cx.token);
                cx.tag.partition = Some(*partition);
                let mut p = state.protected.lock();
                if p.recovering && !p.recovery_acked.contains(partition) {
                    // §5: the restarted origin cannot know which copies this
                    // proxy holds, so it invalidates them all and waits for
                    // the ack (re-sent every `BULK_RETRY` until it comes).
                    p.recovery_pending.insert(*partition);
                    self.bulk_sent = WallClock::start();
                    cx.reply(HttpMsg::InvalidateServer {
                        server: state.server,
                    });
                }
                After::Keep
            }
            HttpMsgRef::Reply(_)
            | HttpMsgRef::Invalidate { .. }
            | HttpMsgRef::InvalidateBatch(_)
            | HttpMsgRef::InvalidateServer { .. } => {
                After::Close // protocol violation: these flow origin -> proxy only
            }
            // Guard fallthrough: a Get/Notify/ack for a server we do not own.
            _ => After::Close,
        }
    }
}

/// The modifier's check-in utility: tells the accelerator at `origin` that
/// `url` was modified at (logical) time `at`.
///
/// # Errors
///
/// Returns any socket error.
pub fn check_in(origin: SocketAddr, url: Url, at: SimTime) -> std::io::Result<()> {
    // The modifier's own thread, never a node's.
    let mut stream = TcpStream::connect(origin)?; // xtask-lint: allow(reactor-blocking-io)
    stream.write_all(&encode(&HttpMsg::Notify { url, at }))?; // xtask-lint: allow(reactor-blocking-io)
    stream.flush()
}
