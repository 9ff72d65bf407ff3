//! The pseudo-server: origin Web server + Harvest accelerator in one node.

use crate::cost::CostModel;
use crate::deployment::{ChangeDetection, InvalSendMode};
use crate::SimMsg;
use wcc_core::{HitMeter, Proposer, ServerConsistency};
use wcc_obs::{invalidation_span, Phase, SpanKind, Tracer};
use wcc_proto::{BatchEntry, CoordMsg, GetRequest, HttpMsg, Message};
use wcc_simnet::{Ctx, Node, Summary};
use wcc_types::{
    AuditEvent, ByteSize, ClientId, DocMeta, FxHashMap, InvalBatchConfig, NodeId, ServerId,
    SimDuration, SimTime, Url,
};

/// Timer token for the recovery bulk-invalidation retry loop. Per-document
/// retry timers use the document index (a `u32`) widened to `u64`, so the
/// maximum value can never collide.
const BULK_RETRY_TOKEN: u64 = u64::MAX;

/// Timer token for the batched proposer's age-bound flush. Like
/// [`BULK_RETRY_TOKEN`], far outside the `u32` document-index range.
const BATCH_FLUSH_TOKEN: u64 = u64::MAX - 1;

/// Counters the origin maintains for the report (Tables 3–5 inputs).
#[derive(Debug, Default, Clone)]
pub struct OriginCounters {
    /// Plain `GET` requests received.
    pub gets: u64,
    /// `If-Modified-Since` requests received.
    pub ims: u64,
    /// `200` replies sent.
    pub replies_200: u64,
    /// `304` replies sent.
    pub replies_304: u64,
    /// `INVALIDATE <url>` messages sent (including retries).
    pub invalidations_sent: u64,
    /// Of those, retransmissions.
    pub invalidation_retries: u64,
    /// Bulk `INVALIDATE <server>` messages sent after recovery.
    pub bulk_invalidations: u64,
    /// Invalidation acknowledgements received.
    pub acks: u64,
    /// Modifier check-ins processed.
    pub notifies: u64,
    /// Disk reads (accelerator memory-cache misses).
    pub disk_reads: u64,
    /// Disk writes (request log + new-site recovery-list appends).
    pub disk_writes: u64,
    /// Wire `InvalidateBatch` messages sent by the proposer.
    pub inval_batches: u64,
    /// `(document, client)` entries carried inside those batches. The wire
    /// message count is `invalidations_sent - batched_entries +
    /// inval_batches` — identical to `invalidations_sent` when batching is
    /// off.
    pub batched_entries: u64,
    /// Bytes of protocol messages sent by the server (excludes acks,
    /// notifies and coordinator traffic, matching the paper's accounting).
    pub bytes_sent: ByteSize,
    /// Invalidation fan-outs abandoned after the retry budget.
    pub gave_up: u64,
    /// Modifications detected lazily by the browser-based mechanism.
    pub deferred_detections: u64,
}

/// A tiny LRU of documents held in the accelerator's main-memory cache
/// (its original purpose: "keeping a main memory cache of URL documents").
#[derive(Debug)]
struct MemCache {
    budget: u64,
    used: u64,
    seq: u64,
    entries: FxHashMap<u32, (u64, u64)>, // doc -> (last-use seq, scaled size)
    order: std::collections::BTreeSet<(u64, u32)>,
}

impl MemCache {
    fn new(budget: ByteSize) -> Self {
        MemCache {
            budget: budget.as_u64(),
            used: 0,
            seq: 0,
            entries: FxHashMap::default(),
            order: std::collections::BTreeSet::new(),
        }
    }

    /// Returns `true` on a hit; on a miss, admits the document (evicting
    /// LRU entries as needed).
    fn access(&mut self, doc: u32, scaled_size: u64) -> bool {
        self.seq += 1;
        if let Some((old_seq, _)) = self.entries.get_mut(&doc).map(|e| (e.0, e.1)) {
            self.order.remove(&(old_seq, doc));
            self.order.insert((self.seq, doc));
            self.entries.get_mut(&doc).expect("present").0 = self.seq;
            return true;
        }
        if scaled_size > self.budget {
            return false; // uncacheable; always a disk read
        }
        while self.used + scaled_size > self.budget {
            let &(victim_seq, victim_doc) = self
                .order
                .iter()
                .next()
                .expect("over budget implies nonempty");
            self.order.remove(&(victim_seq, victim_doc));
            let (_, sz) = self.entries.remove(&victim_doc).expect("indexed");
            self.used -= sz;
        }
        self.entries.insert(doc, (self.seq, scaled_size));
        self.order.insert((self.seq, doc));
        self.used += scaled_size;
        false
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.used = 0;
    }
}

/// The pseudo-server node.
///
/// Wired up by [`Deployment`](crate::Deployment); not usually constructed
/// directly.
#[derive(Debug)]
pub struct OriginNode {
    server: ServerId,
    consistency: ServerConsistency,
    doc_sizes: Vec<ByteSize>,
    /// Current trace-time mtimes.
    versions: Vec<SimTime>,
    /// (doc, trace time) touch log — the staleness oracle's ground truth.
    touch_log: Vec<(u32, SimTime)>,
    mem_cache: MemCache,
    costs: CostModel,
    /// Proxy node for each partition index.
    pub(crate) proxies: Vec<NodeId>,
    send_mode: InvalSendMode,
    detection: ChangeDetection,
    /// Versions the accelerator has already invalidated for (browser-based
    /// detection compares against this on each request).
    acked_versions: Vec<SimTime>,
    pub(crate) sender: Option<NodeId>,
    coordinator: Option<NodeId>,
    retry_interval: SimDuration,
    max_retries: u32,
    retry_counts: FxHashMap<u32, u32>,
    /// Proxy nodes that have not yet acknowledged the recovery-time bulk
    /// `INVALIDATE <server-addr>`; re-sent on a timer until empty. A
    /// partition at recovery time would otherwise swallow the bulk message
    /// and leave those proxies promising freshness for documents modified
    /// during the outage.
    recovery_unacked: Vec<NodeId>,
    recovery_attempts: u32,
    prev_window_end: SimTime,
    /// The batched invalidation proposer (None: classic per-write fan-out).
    proposer: Option<Proposer>,
    /// Trace time each in-flight write's fan-out opened, for the
    /// write-completion summary. Earliest write wins when a coalesced
    /// round spans several modifications of the same document.
    write_open: FxHashMap<Url, SimTime>,
    /// Wall time from a write's first fan-out to its last ack.
    pub(crate) write_completion: Summary,
    /// Wall time spent sending each modification's full invalidation batch
    /// (synchronous mode; the decoupled sender keeps its own).
    pub(crate) inval_time: Summary,
    /// §7 hit metering: server-side tally of served requests plus hits
    /// reported by the caches.
    pub(crate) meter: HitMeter,
    pub(crate) counters: OriginCounters,
    /// Audit-event log, recorded only when the deployment enables auditing.
    audit: Option<Vec<AuditEvent>>,
    /// Span recorder (disabled unless the deployment enables tracing;
    /// recording never feeds back into protocol state).
    pub(crate) tracer: Tracer,
}

impl OriginNode {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring DeploymentOptions
    pub(crate) fn new(
        server: ServerId,
        consistency: ServerConsistency,
        doc_sizes: Vec<ByteSize>,
        costs: CostModel,
        send_mode: InvalSendMode,
        detection: ChangeDetection,
        mem_cache_budget: ByteSize,
        retry_interval: SimDuration,
        max_retries: u32,
        inval_batch: Option<InvalBatchConfig>,
    ) -> Self {
        let n = doc_sizes.len();
        OriginNode {
            server,
            consistency,
            doc_sizes,
            versions: vec![SimTime::ZERO; n],
            // Construction-time scaffolding, not per-event work.
            touch_log: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            mem_cache: MemCache::new(mem_cache_budget),
            costs,
            proxies: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            send_mode,
            detection,
            acked_versions: vec![SimTime::ZERO; n],
            sender: None,
            coordinator: None,
            retry_interval,
            max_retries,
            retry_counts: FxHashMap::default(),
            recovery_unacked: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            recovery_attempts: 0,
            prev_window_end: SimTime::ZERO,
            proposer: inval_batch.map(Proposer::new),
            write_open: FxHashMap::default(),
            write_completion: Summary::default(),
            inval_time: Summary::default(),
            meter: HitMeter::new(),
            counters: OriginCounters::default(),
            audit: None,
            tracer: Tracer::disabled(),
        }
    }

    /// The span recorder (for trace-log collection).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub(crate) fn set_coordinator(&mut self, coord: NodeId) {
        self.coordinator = Some(coord);
    }

    pub(crate) fn enable_audit(&mut self) {
        self.audit = Some(Vec::new()); // xtask-lint: allow(hot-loop-alloc)
    }

    /// The audit-event log (empty slice when auditing is disabled).
    pub fn audit_log(&self) -> &[AuditEvent] {
        self.audit.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, ev: AuditEvent) {
        if let Some(log) = self.audit.as_mut() {
            log.push(ev);
        }
    }

    /// Runs `on_modify` and records the fan-out decision: `fresh` is what
    /// the site list contributed this time, `resent` the still-unacked
    /// leftovers from earlier fan-outs that ride along.
    fn audited_modify(&mut self, url: Url, version: SimTime, now: SimTime) -> Vec<ClientId> {
        let pending_before = if self.audit.is_some() {
            self.consistency.pending_for(url)
        } else {
            // Audit-only path; an empty Vec performs no allocation.
            Vec::new() // xtask-lint: allow(hot-loop-alloc)
        };
        let recipients = self.consistency.on_modify(url, version);
        if self.audit.is_some() {
            let (mut fresh, mut resent) = (Vec::new(), Vec::new()); // xtask-lint: allow(hot-loop-alloc)
            for &c in &recipients {
                if pending_before.binary_search(&c).is_ok() {
                    resent.push(c);
                } else {
                    fresh.push(c);
                }
            }
            self.record(AuditEvent::ModifyFanout {
                url,
                version,
                fresh,
                resent,
                at: now,
            });
        }
        recipients
    }

    /// The server-side protocol state (site lists, pending invalidations).
    pub fn consistency(&self) -> &ServerConsistency {
        &self.consistency
    }

    /// Origin counters.
    pub fn counters(&self) -> &OriginCounters {
        &self.counters
    }

    /// Wall time per synchronous invalidation batch.
    pub fn inval_time(&self) -> &Summary {
        &self.inval_time
    }

    /// The §7 hit meter.
    pub fn meter(&self) -> &HitMeter {
        &self.meter
    }

    /// The touch log: `(doc, trace time)` pairs, in order. This is the
    /// staleness oracle the replay harness audits serves against.
    pub fn touch_log(&self) -> &[(u32, SimTime)] {
        &self.touch_log
    }

    fn current_meta(&self, doc: u32) -> DocMeta {
        DocMeta::new(self.doc_sizes[doc as usize], self.versions[doc as usize])
    }

    fn proxy_of(&self, client: ClientId) -> NodeId {
        *client.assigned(&self.proxies)
    }

    /// The batched proposer (None when batching is off).
    pub fn proposer(&self) -> Option<&Proposer> {
        self.proposer.as_ref()
    }

    /// The write-completion latency summary (first fan-out to last ack).
    pub fn write_completion(&self) -> &Summary {
        &self.write_completion
    }

    fn handle_get(&mut self, from: NodeId, get: GetRequest, ctx: &mut Ctx<'_, SimMsg>) {
        ctx.consume(self.costs.request_parse + self.costs.log_write_cpu);
        self.counters.disk_writes += 1; // request log append
                                        // Browser-based change detection: a request for this document makes
                                        // the accelerator compare the file's mtime against the version it
                                        // last invalidated for, and fan out first if they differ.
        if self.detection == ChangeDetection::BrowserBased {
            let doc = get.url.doc() as usize;
            if self.versions[doc] > self.acked_versions[doc] {
                self.acked_versions[doc] = self.versions[doc];
                let at = self.versions[doc];
                let recipients = self.audited_modify(get.url, at, ctx.now());
                self.counters.deferred_detections += 1;
                self.fan_out(get.url, recipients, false, ctx);
            }
        }
        if get.is_ims() {
            self.counters.ims += 1;
        } else {
            self.counters.gets += 1;
        }
        self.tracer.record(
            ctx.now(),
            SpanKind::Request,
            get.req.get(),
            Phase::Origin,
            get.url,
            Some(get.client),
            Some(get.req.get()),
        );
        let doc = get.url.doc();
        let meta = self.current_meta(doc);
        self.meter.record_request(get.url);
        self.meter.record_report(get.url, get.cache_hits);
        let grant = self
            .consistency
            .on_get(get.url, get.client, get.ims, meta, get.issued_at);
        if grant.new_site_disk_write {
            self.counters.disk_writes += 1; // persistent ever-seen list
            ctx.consume(self.costs.log_write_cpu);
        }
        if let (true, Some(lease)) = (grant.register, grant.lease) {
            self.record(AuditEvent::Register {
                url: get.url,
                client: get.client,
                lease,
                at: ctx.now(),
            });
        }
        if grant.send_body {
            let scaled = meta.size().as_u64() / self.costs.doc_scale.max(1);
            if !self.mem_cache.access(doc, scaled) {
                self.counters.disk_reads += 1;
                ctx.consume(self.costs.disk_read_cpu);
            }
            ctx.consume(self.costs.serve_200_cpu(meta.size()));
            self.counters.replies_200 += 1;
        } else {
            ctx.consume(self.costs.serve_304);
            self.counters.replies_304 += 1;
        }
        let reply = HttpMsg::Reply(grant.into_reply(&get, meta, self.costs.doc_scale));
        let size = reply.wire_size();
        self.counters.bytes_sent += size;
        ctx.send(from, SimMsg::Net(Message::Http(reply)), size);
    }

    /// Sends (or dispatches) `INVALIDATE <url>` to `recipients`; in
    /// synchronous mode this occupies the server's CPU for the whole batch —
    /// the paper's request-stall phenomenon.
    fn fan_out(
        &mut self,
        url: Url,
        recipients: Vec<ClientId>,
        retry: bool,
        ctx: &mut Ctx<'_, SimMsg>,
    ) {
        if recipients.is_empty() {
            return;
        }
        if !retry {
            // Open the write-completion clock at the first fresh fan-out;
            // coalesced rounds keep the earliest write's start.
            self.write_open.entry(url).or_insert(ctx.now());
        }
        // Fresh fan-out with the proposer active: enqueue instead of
        // sending, and flush when a count/byte threshold trips. The age
        // timer (armed on the empty→non-empty transition) bounds how long
        // a small queue can wait. Retries keep the classic per-client path
        // — they target copies a previous flush already announced.
        if !retry && self.proposer.is_some() {
            let proposer = self.proposer.as_mut().expect("checked above");
            let mut opened = false;
            for &client in &recipients {
                opened |= proposer.enqueue(url, client);
            }
            let max_age = proposer.config().max_age;
            let flush = proposer.should_flush();
            if opened {
                ctx.set_timer(max_age, BATCH_FLUSH_TOKEN);
            }
            if flush {
                self.flush_batches(ctx);
            }
            return;
        }
        if self.audit.is_some() {
            for &client in &recipients {
                self.record(AuditEvent::InvalidateSend {
                    url,
                    client,
                    retry,
                    at: ctx.now(),
                });
            }
        }
        if self.tracer.is_enabled() {
            let span = invalidation_span(url, self.versions[url.doc() as usize]);
            for &client in &recipients {
                self.tracer.record(
                    ctx.now(),
                    SpanKind::Invalidation,
                    span,
                    Phase::Invalidate,
                    url,
                    Some(client),
                    None,
                );
            }
        }
        let n = recipients.len() as u64;
        match self.send_mode {
            InvalSendMode::Synchronous => {
                for client in recipients {
                    let msg = HttpMsg::Invalidate { url, client };
                    let size = msg.wire_size();
                    self.counters.bytes_sent += size;
                    ctx.consume(self.costs.inval_send);
                    ctx.send(self.proxy_of(client), SimMsg::Net(Message::Http(msg)), size);
                }
                self.inval_time
                    .observe(self.costs.inval_send.saturating_mul(n));
            }
            InvalSendMode::Decoupled => {
                let sender = self.sender.expect("decoupled mode requires a sender node");
                ctx.send(
                    sender,
                    SimMsg::Dispatch {
                        url,
                        clients: recipients,
                    },
                    ByteSize::ZERO,
                );
            }
        }
        self.counters.invalidations_sent += n;
        if retry {
            self.counters.invalidation_retries += n;
        }
        // Await acks; retry if they do not arrive.
        ctx.set_timer(self.retry_interval, url.doc() as u64);
    }

    /// Drains the proposer and fans the queue out as one
    /// `InvalidateBatch` per proxy that has entries. Audit `InvalidateSend`
    /// events are recorded here — at send time — so the auditor's pending
    /// table matches the wire, and retry timers are armed per flushed
    /// document for exactly the same reason.
    fn flush_batches(&mut self, ctx: &mut Ctx<'_, SimMsg>) {
        let Some(proposer) = self.proposer.as_mut() else {
            return;
        };
        if proposer.is_empty() {
            return;
        }
        let rounds = proposer.drain();
        if self.audit.is_some() {
            for (url, clients) in &rounds {
                for &client in clients {
                    self.record(AuditEvent::InvalidateSend {
                        url: *url,
                        client,
                        retry: false,
                        at: ctx.now(),
                    });
                }
            }
        }
        if self.tracer.is_enabled() {
            for (url, clients) in &rounds {
                let span = invalidation_span(*url, self.versions[url.doc() as usize]);
                for &client in clients {
                    self.tracer.record(
                        ctx.now(),
                        SpanKind::Invalidation,
                        span,
                        Phase::Invalidate,
                        *url,
                        Some(client),
                        None,
                    );
                }
            }
        }
        // Group the drained entries by destination proxy. Partition order
        // and the proposer's sorted drain keep this deterministic.
        let parts = self.proxies.len() as u32;
        let mut per_proxy: Vec<Vec<BatchEntry>> = vec![Vec::new(); parts as usize]; // xtask-lint: allow(hot-loop-alloc)
        let mut total = 0u64;
        for (url, clients) in &rounds {
            for &client in clients {
                per_proxy[client.partition(parts) as usize].push(BatchEntry { url: *url, client });
                total += 1;
            }
        }
        let mut spent = SimDuration::ZERO;
        for (idx, entries) in per_proxy.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let n = entries.len();
            let msg = HttpMsg::InvalidateBatch {
                server: self.server,
                entries,
            };
            let size = msg.wire_size();
            self.counters.bytes_sent += size;
            self.counters.inval_batches += 1;
            self.counters.batched_entries += n as u64;
            // One connection setup per batch, then the per-entry marginal
            // cost — the amortisation the proposer exists for.
            let cost =
                self.costs.inval_send + self.costs.inval_batch_entry.saturating_mul(n as u64);
            ctx.consume(cost);
            spent += cost;
            ctx.send(self.proxies[idx], SimMsg::Net(Message::Http(msg)), size);
            self.proposer
                .as_mut()
                .expect("flushing implies a proposer")
                .note_batch(n);
        }
        self.counters.invalidations_sent += total;
        self.inval_time.observe(spent);
        for (url, _) in &rounds {
            ctx.set_timer(self.retry_interval, url.doc() as u64);
        }
    }

    /// One invalidation acknowledgement: protocol state, metering, audit,
    /// tracing and the write-completion clock. Shared by the per-copy
    /// `InvalAck` and each entry of an `InvalidateBatchAck`.
    fn apply_inval_ack(
        &mut self,
        url: Url,
        client: ClientId,
        cache_hits: u64,
        ctx: &mut Ctx<'_, SimMsg>,
    ) {
        self.counters.acks += 1;
        self.meter.record_report(url, cache_hits);
        self.consistency.on_inval_ack(url, client);
        if self.tracer.is_enabled() {
            let span = invalidation_span(url, self.versions[url.doc() as usize]);
            self.tracer.record(
                ctx.now(),
                SpanKind::Invalidation,
                span,
                Phase::Ack,
                url,
                Some(client),
                None,
            );
            if self.consistency.pending_for(url).is_empty() {
                // Every live site acked: the write is complete.
                self.tracer.record(
                    ctx.now(),
                    SpanKind::Invalidation,
                    span,
                    Phase::Quorum,
                    url,
                    None,
                    None,
                );
            }
        }
        self.record(AuditEvent::InvalidateAck {
            url,
            client,
            at: ctx.now(),
        });
        if !self.consistency.has_pending(url) {
            if let Some(t0) = self.write_open.remove(&url) {
                self.write_completion
                    .observe(ctx.now().saturating_since(t0));
            }
        }
    }

    /// Sends the recovery bulk `INVALIDATE <server-addr>` to every proxy
    /// still in [`Self::recovery_unacked`].
    fn send_bulk_invalidations(&mut self, ctx: &mut Ctx<'_, SimMsg>) {
        for i in 0..self.recovery_unacked.len() {
            let proxy = self.recovery_unacked[i];
            let msg = HttpMsg::InvalidateServer {
                server: self.server,
            };
            let size = msg.wire_size();
            self.counters.bulk_invalidations += 1;
            self.counters.bytes_sent += size;
            ctx.consume(self.costs.inval_send);
            ctx.send(proxy, SimMsg::Net(Message::Http(msg)), size);
        }
    }

    /// Bulk-invalidation retry tick: re-send to proxies that have not
    /// acked, up to the same retry budget as per-document invalidations.
    fn retry_bulk_invalidations(&mut self, ctx: &mut Ctx<'_, SimMsg>) {
        if self.recovery_unacked.is_empty() {
            return;
        }
        self.recovery_attempts += 1;
        if self.recovery_attempts > self.max_retries {
            // Same accounting as an abandoned per-document fan-out: these
            // sites may keep serving promised-fresh copies the recovery
            // should have voided.
            self.counters.gave_up += self.recovery_unacked.len() as u64;
            self.recovery_unacked.clear();
            return;
        }
        self.send_bulk_invalidations(ctx);
        ctx.set_timer(self.retry_interval, BULK_RETRY_TOKEN);
    }

    fn handle_notify(&mut self, url: Url, at: SimTime, ctx: &mut Ctx<'_, SimMsg>) {
        ctx.consume(self.costs.notify_cpu);
        self.counters.notifies += 1;
        let doc = url.doc();
        self.versions[doc as usize] = self.versions[doc as usize].max(at);
        self.touch_log.push((doc, at));
        self.tracer.record(
            ctx.now(),
            SpanKind::Invalidation,
            invalidation_span(url, self.versions[doc as usize]),
            Phase::Write,
            url,
            None,
            None,
        );
        self.record(AuditEvent::Touch {
            url,
            version: at,
            at: ctx.now(),
        });
        if self.detection == ChangeDetection::BrowserBased {
            // The touch updates the filesystem mtime but nobody tells the
            // accelerator; detection waits for the next request.
            return;
        }
        self.acked_versions[doc as usize] = self.versions[doc as usize];
        let recipients = self.audited_modify(url, at, ctx.now());
        self.fan_out(url, recipients, false, ctx);
    }
}

impl Node<SimMsg> for OriginNode {
    fn on_message(&mut self, from: NodeId, msg: SimMsg, ctx: &mut Ctx<'_, SimMsg>) {
        match msg {
            SimMsg::Net(Message::Http(HttpMsg::Get(get))) => self.handle_get(from, get, ctx),
            SimMsg::Net(Message::Http(HttpMsg::Notify { url, at })) => {
                self.handle_notify(url, at, ctx)
            }
            SimMsg::Net(Message::Http(HttpMsg::InvalAck {
                url,
                client,
                cache_hits,
            })) => {
                ctx.consume(self.costs.ack_cpu);
                self.apply_inval_ack(url, client, cache_hits, ctx);
            }
            SimMsg::Net(Message::Http(HttpMsg::InvalidateBatchAck { server, entries })) => {
                debug_assert_eq!(server, self.server);
                // One parse per wire message; per-copy protocol work per
                // entry, exactly as if each ack had arrived on its own.
                ctx.consume(self.costs.ack_cpu);
                for entry in entries {
                    self.apply_inval_ack(entry.url, entry.client, entry.cache_hits, ctx);
                }
            }
            SimMsg::Net(Message::Http(HttpMsg::InvalidateServerAck { server })) => {
                debug_assert_eq!(server, self.server);
                ctx.consume(self.costs.ack_cpu);
                self.counters.acks += 1;
                self.recovery_unacked.retain(|&p| p != from);
            }
            SimMsg::Net(Message::Coord(CoordMsg::StepStart { step, window_end })) => {
                // Window boundary: safe point for lease GC (everything that
                // expired before the window began can go).
                let before = self.prev_window_end;
                let purged = self.consistency.purge_expired_leases(before);
                self.record(AuditEvent::PurgeExpired {
                    server: self.server,
                    before,
                    purged,
                    at: ctx.now(),
                });
                self.prev_window_end = window_end;
                if let Some(coord) = self.coordinator {
                    ctx.send(
                        coord,
                        SimMsg::Net(Message::Coord(CoordMsg::StepDone { step })),
                        Message::Coord(CoordMsg::StepDone { step }).wire_size(),
                    );
                }
            }
            // Origins never receive these; spelled out (no `_`) so a new
            // wire variant is a compile error and a lint finding here
            // rather than a silently ignored message.
            other @ (SimMsg::Net(Message::Http(
                HttpMsg::Reply(_)
                | HttpMsg::Invalidate { .. }
                | HttpMsg::InvalidateBatch { .. }
                | HttpMsg::InvalidateServer { .. }
                | HttpMsg::Hello { .. }
                | HttpMsg::MetricsGet,
            ))
            | SimMsg::Net(Message::Coord(CoordMsg::StepDone { .. }))
            | SimMsg::Dispatch { .. }) => {
                debug_assert!(false, "origin got unexpected message {other:?}");
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, SimMsg>) {
        if token == BULK_RETRY_TOKEN {
            self.retry_bulk_invalidations(ctx);
            return;
        }
        if token == BATCH_FLUSH_TOKEN {
            // Age-bound flush. A timer armed before an earlier
            // threshold-trip flush drains whatever re-accumulated since —
            // flushing early is always legal, and keeping the rule
            // unconditional keeps replays deterministic.
            self.flush_batches(ctx);
            return;
        }
        // Retry timer for one document's pending invalidations. Volume
        // leases first drop pending entries whose volume has expired — the
        // bounded-write-completion rule.
        let dropped = self.consistency.expire_pending(self.prev_window_end);
        if dropped > 0 {
            self.record(AuditEvent::PendingExpired {
                server: self.server,
                dropped,
                at: ctx.now(),
            });
        }
        let doc = token as u32;
        let url = Url::new(self.server, doc);
        let mut pending = self.consistency.pending_for(url);
        // Copies still queued in the proposer have not been sent yet —
        // retrying them would target sites the auditor (correctly) does
        // not consider awaiting an INVALIDATE. Their flush arms a fresh
        // retry timer, so skipping them here loses nothing.
        if let Some(proposer) = self.proposer.as_ref() {
            pending.retain(|&c| !proposer.queued(url, c));
        }
        if pending.is_empty() {
            self.retry_counts.remove(&doc);
            return;
        }
        let attempts = self.retry_counts.entry(doc).or_insert(0);
        *attempts += 1;
        if *attempts > self.max_retries {
            self.counters.gave_up += pending.len() as u64;
            self.retry_counts.remove(&doc);
            self.record(AuditEvent::GaveUp {
                url,
                abandoned: pending,
                at: ctx.now(),
            });
            // The write will never complete; drop its open clock.
            self.write_open.remove(&url);
            return;
        }
        self.fan_out(url, pending, true, ctx);
    }

    fn on_crash(&mut self, _now: SimTime) {
        // Main-memory state dies; the request log, documents and the
        // ever-seen site list are on disk and survive.
        self.mem_cache.clear();
        self.recovery_unacked.clear();
        self.recovery_attempts = 0;
        if let Some(proposer) = self.proposer.as_mut() {
            proposer.clear();
        }
        self.write_open.clear();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, SimMsg>) {
        let sites = self.consistency.on_server_recover();
        // Recorded even with no sites to notify: the volatile site lists
        // and the pending set were discarded either way.
        self.record(AuditEvent::ServerRecovered {
            server: self.server,
            at: ctx.now(),
        });
        if sites.is_empty() {
            return;
        }
        // One bulk INVALIDATE <server-addr> per proxy site (each proxy
        // hosts many real clients; the message marks every copy from this
        // server questionable). Delivery must be reliable — a concurrent
        // partition or proxy crash would otherwise swallow the one message
        // that voids stale freshness promises — so recipients ack and the
        // unacked remainder is retried on a timer.
        self.recovery_unacked = self.proxies.clone();
        self.recovery_attempts = 0;
        self.send_bulk_invalidations(ctx);
        ctx.set_timer(self.retry_interval, BULK_RETRY_TOKEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_cache_lru_eviction() {
        let mut mc = MemCache::new(ByteSize::from_bytes(100));
        assert!(!mc.access(1, 40)); // miss, admitted
        assert!(!mc.access(2, 40)); // miss, admitted
        assert!(mc.access(1, 40)); // hit, refreshes recency
        assert!(!mc.access(3, 40)); // miss: evicts doc 2 (LRU)
        assert!(mc.access(1, 40));
        assert!(!mc.access(2, 40)); // doc 2 was evicted
    }

    #[test]
    fn mem_cache_rejects_oversized() {
        let mut mc = MemCache::new(ByteSize::from_bytes(10));
        assert!(!mc.access(1, 50));
        assert!(!mc.access(1, 50), "oversized is never admitted");
        assert_eq!(mc.used, 0);
    }

    #[test]
    fn mem_cache_clear() {
        let mut mc = MemCache::new(ByteSize::from_bytes(100));
        mc.access(1, 10);
        mc.clear();
        assert!(!mc.access(1, 10), "cleared cache misses again");
    }
}
