//! The pseudo-server: origin Web server + Harvest accelerator in one node.
//!
//! The accelerator's protocol — grants, fan-out, acknowledgements, retry,
//! §5 recovery — is [`wcc_core::OriginCore`], the state machine the TCP
//! daemon drives too. This node is its simulator driver: it charges the
//! [`CostModel`], keeps the main-memory document cache, decides *when* a
//! modification is noticed ([`ChangeDetection`]), puts the core's sends on
//! the simulated wire and turns the timers it asks for into `ctx.set_timer`.
//! A proxy's acknowledgements go whole into the core, which decides which
//! count (a refused one is dropped) and reports each copy it applied.

use crate::cost::CostModel;
use crate::deployment::ChangeDetection;
use wcc_cache::Lru;
use wcc_core::{OriginCore, OriginOut, OriginTimer};
use wcc_obs::{invalidation_span, Phase, SpanKind, Tracer};
use wcc_proto::{CoordMsg, GetRequest, HttpMsg, Message, ReplyStatus};
use wcc_simnet::{Ctx, Node, Summary};
use wcc_types::{ByteSize, ClientId, NodeId, SimDuration, SimTime, Url};

/// Timer token of [`OriginTimer::Bulk`]. [`OriginTimer::Retry`] uses the
/// document index (a `u32`) widened to `u64`, so the maximum value can
/// never collide.
const BULK_RETRY_TOKEN: u64 = u64::MAX;

/// Timer token of [`OriginTimer::Flush`]: like [`BULK_RETRY_TOKEN`], far
/// outside the `u32` document-index range.
const BATCH_FLUSH_TOKEN: u64 = u64::MAX - 1;

/// The `ctx.set_timer` token of a timer a write path armed.
pub(crate) fn timer_token(timer: OriginTimer) -> u64 {
    match timer {
        OriginTimer::Retry(doc) => u64::from(doc),
        OriginTimer::Flush => BATCH_FLUSH_TOKEN,
        OriginTimer::Bulk => BULK_RETRY_TOKEN,
    }
}

/// The timer behind a token of [`timer_token`].
pub(crate) fn token_timer(token: u64) -> OriginTimer {
    match token {
        BULK_RETRY_TOKEN => OriginTimer::Bulk,
        BATCH_FLUSH_TOKEN => OriginTimer::Flush,
        doc => OriginTimer::Retry(doc as u32),
    }
}

/// The accelerator's main-memory document cache budget (scaled bytes).
const MEM_CACHE_BUDGET: ByteSize = ByteSize::from_mib(8);

/// A tiny LRU of documents held in the accelerator's main-memory cache
/// (its original purpose: "keeping a main memory cache of URL documents").
#[derive(Debug)]
struct MemCache {
    budget: u64,
    used: u64,
    /// Scaled size of each cached document, least recently used first.
    docs: Lru<u32, u64>,
}

impl MemCache {
    fn new(budget: ByteSize) -> Self {
        MemCache {
            budget: budget.as_u64(),
            used: 0,
            docs: Lru::default(),
        }
    }

    /// Returns `true` on a hit; on a miss, admits the document (evicting
    /// LRU entries as needed).
    fn access(&mut self, doc: u32, scaled_size: u64) -> bool {
        if self.docs.touch(&doc).is_some() {
            return true;
        }
        if scaled_size > self.budget {
            return false; // uncacheable; always a disk read
        }
        while self.used + scaled_size > self.budget {
            let (victim, _) = self.docs.oldest().expect("over budget implies nonempty");
            self.used -= self.docs.remove(&victim).expect("just seen");
        }
        self.docs.push(doc, scaled_size);
        self.used += scaled_size;
        false
    }

    fn clear(&mut self) {
        self.docs = Lru::default();
        self.used = 0;
    }
}

/// The pseudo-server node.
///
/// Wired up by [`Deployment`](crate::Deployment); not usually constructed
/// directly.
#[derive(Debug)]
pub struct OriginNode {
    pub(crate) core: OriginCore,
    /// What the core last asked for; drained by [`Self::emit`] and reused.
    out: Vec<OriginOut>,
    /// `(doc, trace time)` touch log, in order — the ground truth the
    /// replay harness audits serves against.
    pub(crate) touch_log: Vec<(u32, SimTime)>,
    mem_cache: MemCache,
    costs: CostModel,
    /// Proxy node of each site (partition index).
    proxies: Vec<NodeId>,
    detection: ChangeDetection,
    /// Versions the accelerator has already invalidated for (browser-based
    /// detection compares against this on each request).
    acked_versions: Vec<SimTime>,
    coordinator: Option<NodeId>,
    /// Wall time from a write's first fan-out to its last ack.
    pub(crate) write_completion: Summary,
    /// Wall time spent sending each modification's full invalidation batch.
    pub(crate) inval_time: Summary,
    /// The cost model's tallies (what [`OriginCore`] does not count): disk
    /// reads (memory-cache misses), disk writes (request log + ever-seen
    /// list), protocol bytes sent, modifications detected lazily.
    pub(crate) disk_reads: u64,
    pub(crate) disk_writes: u64,
    pub(crate) bytes_sent: ByteSize,
    pub(crate) deferred_detections: u64,
    /// Span recorder (disabled unless the deployment enables tracing;
    /// recording never feeds back into protocol state).
    pub(crate) tracer: Tracer,
}

impl OriginNode {
    pub(crate) fn new(
        core: OriginCore,
        docs: usize,
        costs: CostModel,
        detection: ChangeDetection,
    ) -> Self {
        OriginNode {
            core,
            // Construction-time scaffolding, not per-event work.
            out: Vec::new(),
            touch_log: Vec::new(),
            mem_cache: MemCache::new(MEM_CACHE_BUDGET),
            costs,
            proxies: Vec::new(),
            detection,
            acked_versions: vec![SimTime::ZERO; docs],
            coordinator: None,
            write_completion: Summary::default(),
            inval_time: Summary::default(),
            disk_reads: 0,
            disk_writes: 0,
            bytes_sent: ByteSize::ZERO,
            deferred_detections: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Connects the node: the proxy of each site and the lock-step
    /// coordinator.
    pub(crate) fn wire(&mut self, proxies: Vec<NodeId>, coord: NodeId) {
        self.core.set_sites(proxies.len() as u32);
        self.proxies = proxies;
        self.coordinator = Some(coord);
    }

    /// The protocol state machine this node drives: counters, site lists,
    /// hit meter, proposer, audit log.
    pub fn core(&self) -> &OriginCore {
        &self.core
    }

    /// Records one invalidation-span event of `url`'s current version.
    fn trace(&mut self, phase: Phase, url: Url, client: Option<ClientId>, now: SimTime) {
        if self.tracer.is_enabled() {
            let span = invalidation_span(url, self.core.version(url).unwrap_or_default());
            self.tracer
                .record(now, SpanKind::Invalidation, span, phase, url, client, None);
        }
    }

    /// Charges `cost`, counts the bytes and puts `msg` on the wire to `to`.
    fn send(&mut self, to: NodeId, msg: HttpMsg, cost: SimDuration, ctx: &mut Ctx<'_, Message>) {
        let size = msg.wire_size();
        self.bytes_sent += size;
        ctx.consume(cost);
        ctx.send(to, Message::Http(msg), size);
    }

    /// Carries out what the core asked for, in its order. A fan-out
    /// occupies the server's CPU until its last send — the paper's
    /// request-stall phenomenon, which the batched proposer amortises.
    fn emit(&mut self, ctx: &mut Ctx<'_, Message>) {
        let mut out = std::mem::take(&mut self.out);
        let mut spent: Option<SimDuration> = None;
        for asked in out.drain(..) {
            let (site, msg) = match asked {
                OriginOut::Arm { after, timer } => {
                    ctx.set_timer(after, timer_token(timer));
                    continue;
                }
                OriginOut::Push { site, msg } => (site, msg),
                // Nothing is above an origin; its write path never asks.
                OriginOut::Up(_) => continue,
            };
            let (to, mut cost) = (self.proxies[site as usize], self.costs.inval_send);
            if matches!(msg, HttpMsg::InvalidateServer { .. }) {
                // Recovery traffic: no modification's fan-out time.
                self.send(to, msg, cost, ctx);
                continue;
            }
            if let HttpMsg::Invalidate { url, client } = msg {
                self.trace(Phase::Invalidate, url, Some(client), ctx.now());
            }
            if let HttpMsg::InvalidateBatch { entries, .. } = &msg {
                for e in entries {
                    self.trace(Phase::Invalidate, e.url, Some(e.client), ctx.now());
                }
                // One connection setup per batch, then the per-entry
                // marginal cost — the amortisation the proposer is for.
                let per_entry = self.costs.inval_batch_entry;
                cost += per_entry.saturating_mul(entries.len() as u64);
            }
            *spent.get_or_insert(SimDuration::ZERO) += cost;
            self.send(to, msg, cost, ctx);
        }
        if let Some(spent) = spent {
            self.inval_time.observe(spent);
        }
        self.out = out;
    }

    fn handle_get(&mut self, from: NodeId, get: GetRequest, ctx: &mut Ctx<'_, Message>) {
        ctx.consume(self.costs.request_parse + self.costs.log_write_cpu);
        self.disk_writes += 1; // request log append
        let now = ctx.now();
        // Browser-based change detection: a request for this document makes
        // the accelerator compare the file's mtime against the version it
        // last invalidated for, and fan out first if they differ.
        if self.detection == ChangeDetection::BrowserBased {
            let acked = self.acked_versions.get_mut(get.url.doc() as usize);
            if let (Some(version), Some(acked)) = (self.core.version(get.url), acked) {
                if version > *acked {
                    *acked = version;
                    self.deferred_detections += 1;
                    self.core
                        .modify(get.url, version, version, now, &mut self.out);
                    self.emit(ctx);
                }
            }
        }
        self.tracer.record(
            now,
            SpanKind::Request,
            get.req.get(),
            Phase::Origin,
            get.url,
            Some(get.client),
            Some(get.req.get()),
        );
        // A document this origin does not have: dropped, as the daemon
        // closes the connection.
        let Some((reply, new_site)) = self.core.serve(&get, now) else {
            return;
        };
        if new_site {
            self.disk_writes += 1; // persistent ever-seen list
            ctx.consume(self.costs.log_write_cpu);
        }
        match &reply.status {
            ReplyStatus::Ok(body) => {
                let size = body.meta().size();
                let scaled = size.as_u64() / self.costs.doc_scale.max(1);
                if !self.mem_cache.access(get.url.doc(), scaled) {
                    self.disk_reads += 1;
                    ctx.consume(self.costs.disk_read_cpu);
                }
                ctx.consume(self.costs.serve_200_cpu(size));
            }
            ReplyStatus::NotModified => ctx.consume(self.costs.serve_304),
        }
        self.send(from, HttpMsg::Reply(reply), SimDuration::ZERO, ctx);
    }

    fn handle_notify(&mut self, url: Url, at: SimTime, ctx: &mut Ctx<'_, Message>) {
        ctx.consume(self.costs.notify_cpu);
        let Some(version) = self.core.touch(url, at, ctx.now()) else {
            return; // not a document of this origin
        };
        self.touch_log.push((url.doc(), at));
        self.trace(Phase::Write, url, None, ctx.now());
        if self.detection == ChangeDetection::BrowserBased {
            // The touch updates the filesystem mtime but nobody tells the
            // accelerator; detection waits for the next request.
            return;
        }
        self.acked_versions[url.doc() as usize] = version;
        self.core.modify(url, at, at, ctx.now(), &mut self.out);
        self.emit(ctx);
    }
}

impl Node<Message> for OriginNode {
    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_, Message>) {
        match msg {
            Message::Http(HttpMsg::Get(get)) => self.handle_get(from, get, ctx),
            Message::Http(HttpMsg::Notify { url, at }) => self.handle_notify(url, at, ctx),
            Message::Http(
                frame @ (HttpMsg::InvalAck { .. }
                | HttpMsg::InvalidateBatchAck { .. }
                | HttpMsg::InvalidateServerAck { .. }
                | HttpMsg::Hello { .. }),
            ) => {
                // One parse per wire message; per-copy protocol work per
                // entry, exactly as if each ack had arrived on its own.
                ctx.consume(self.costs.ack_cpu);
                let site = self.proxies.iter().position(|&p| p == from);
                let (site, now) = (site.map(|site| site as u32), ctx.now());
                let (tracer, completion) = (&mut self.tracer, &mut self.write_completion);
                // A refused frame is dropped, where the daemon would close.
                let out = &mut self.out;
                self.core
                    .on_site_frame(site, frame, now, out, |a, version| {
                        let (kind, span) =
                            (SpanKind::Invalidation, invalidation_span(a.url, version));
                        tracer.record(now, kind, span, Phase::Ack, a.url, Some(a.client), None);
                        if a.quorum {
                            // Every live site acked: the write is complete.
                            tracer.record(now, kind, span, Phase::Quorum, a.url, None, None);
                        }
                        if let Some(took) = a.took {
                            completion.observe(took);
                        }
                    });
                self.emit(ctx);
            }
            Message::Coord(CoordMsg::StepStart { step, window_end }) => {
                // Window boundary: the core's safe point for lease GC.
                self.core.on_window(window_end, ctx.now());
                if let Some(coord) = self.coordinator {
                    ctx.send(
                        coord,
                        Message::Coord(CoordMsg::StepDone { step }),
                        Message::Coord(CoordMsg::StepDone { step }).wire_size(),
                    );
                }
            }
            // Origins never receive these; spelled out (no `_`, which the
            // crate's denied `clippy::wildcard_enum_match_arm` refuses) so
            // a new wire variant is a compile error here rather than a
            // silently ignored message.
            other @ (Message::Http(
                HttpMsg::Reply(_)
                | HttpMsg::Invalidate { .. }
                | HttpMsg::InvalidateBatch { .. }
                | HttpMsg::InvalidateServer { .. }
                | HttpMsg::MetricsGet,
            )
            | Message::Coord(CoordMsg::StepDone { .. })) => {
                debug_assert!(false, "origin got unexpected message {other:?}");
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Message>) {
        self.core
            .on_timer(token_timer(token), ctx.now(), &mut self.out);
        self.emit(ctx);
    }

    fn on_crash(&mut self, _now: SimTime) {
        // Main-memory state dies; the request log, documents and the
        // ever-seen site list are on disk and survive.
        self.mem_cache.clear();
        self.core.crash();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Message>) {
        // Delivery of the bulk must be reliable — a concurrent partition or
        // proxy crash would otherwise swallow the one message that voids
        // stale freshness promises — so the core has it acknowledged and
        // re-sends on a timer.
        self.core.recover(ctx.now(), &mut self.out);
        self.emit(ctx);
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

    /// A scripted access stream against what the stamp-ordered `BTreeSet`
    /// implementation answered (recorded from it before it was replaced):
    /// every hit and miss, the bytes held after each access — so every
    /// eviction took the same victims — and the final recency order.
    #[test]
    fn mem_cache_answers_as_the_tree_ordered_one_did() {
        const HITS: &str = "...hhhh..h.h.....hhh....h..h..hhhh..h.h.....hhh....h..h..hhhh..h";
        const USED: [u64; 64] = [
            10, 31, 79, 79, 79, 79, 79, 67, 81, 81, 67, 67, 80, 97, 72, 82, 67, 67, 67, 67, 82, 97,
            58, 80, 80, 67, 81, 81, 67, 79, 79, 79, 79, 79, 67, 81, 81, 67, 67, 80, 97, 72, 82, 67,
            67, 67, 67, 82, 97, 58, 80, 80, 67, 81, 81, 67, 79, 79, 79, 79, 79, 67, 81, 81,
        ];
        let mut mc = MemCache::new(ByteSize::from_bytes(100));
        for (i, (hit, used)) in (0u32..).zip(HITS.chars().zip(USED)) {
            let doc = (i * 7 + i * i / 3) % 9;
            let size = u64::from(10 + doc * 13 % 40);
            assert_eq!(mc.access(doc, size), hit == 'h', "access {i} (doc {doc})");
            assert_eq!(mc.used, used, "after access {i}");
        }
        let order: Vec<u32> = mc.docs.iter().map(|(doc, _)| doc).collect();
        assert_eq!(order, [2, 5, 0]);
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
