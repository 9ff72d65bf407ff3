//! Deployment assembly and result collection.

use crate::coord::CoordinatorNode;
use crate::cost::CostModel;
use crate::modifier::ModifierNode;
use crate::origin::OriginNode;
use crate::parent::ParentNode;
use crate::proxy::{ProxyCounters, ProxyNode};
use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_core::{
    FetchCounters, OriginCore, OriginCounters, ParentCounters, Policy, ProposerStats,
    ProtocolConfig, ProtocolKind, ProxyPolicy, ServerConsistency, SiteListStats, WritePath,
};
use wcc_proto::Message;
use wcc_simnet::{FaultPlan, NetworkConfig, Simulation, Summary};
use wcc_traces::{ModSchedule, Trace};
use wcc_types::{
    AuditEvent, ByteSize, ClientId, FxHashMap, InvalBatchConfig, NodeId, SimDuration, SimTime, Url,
};

/// How proxy caches are scoped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheSharing {
    /// The paper's emulation: one private cache per *real client*
    /// (`url@clientid` keys), so co-located clients share nothing.
    #[default]
    PerClient,
    /// Deployed-proxy semantics: each pseudo-client is one shared cache and
    /// presents a single site identity upstream.
    SharedPerProxy,
}

/// How the accelerator learns that a document changed (§4: "We identify
/// two approaches for the accelerator to detect changes to a document").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChangeDetection {
    /// The check-in utility notifies the accelerator immediately
    /// ("the check-in utility automatically informs the accelerator").
    #[default]
    Notify,
    /// The accelerator only checks a document's mtime when a request for it
    /// arrives ("when the proxy server sees a request from the browser for
    /// a local document, it suggests to the accelerator to check whether
    /// the document has been modified"). Invalidations are deferred until
    /// the next request touches the modified document.
    BrowserBased,
}

/// The cache topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Every proxy talks to the origin directly (the paper's setting).
    #[default]
    Flat,
    /// Proxies fetch through a shared parent cache; invalidations fan out
    /// down the tree (the Worrell-style hierarchy of §2). Implies
    /// [`CacheSharing::SharedPerProxy`].
    Hierarchy,
}

/// One user delivery, for the staleness audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeEvent {
    /// The document delivered.
    pub url: Url,
    /// The receiving real client.
    pub client: ClientId,
    /// Trace time of the request.
    pub trace_at: SimTime,
    /// `Last-Modified` of the delivered version.
    pub version: SimTime,
    /// `true` if served straight from cache (no origin contact).
    pub from_cache: bool,
}

/// Knobs for assembling a deployment.
#[derive(Debug, Clone)]
pub struct DeploymentOptions {
    /// Number of pseudo-clients (the paper uses four).
    pub num_proxies: u32,
    /// Per-proxy cache capacity (accounted at unscaled document sizes).
    pub cache_capacity: ByteSize,
    /// Replacement discipline (Harvest's default evicts expired docs first).
    pub replacement: ReplacementPolicy,
    /// Thresholds for the batched invalidation proposer. `None` keeps the
    /// classic per-write fan-out, during which the accelerator "does not
    /// accept new requests until it finishes sending all invalidation
    /// messages". When set, fresh invalidations accumulate per origin and
    /// leave as one coalesced `InvalidateBatch` per proxy (retries keep the
    /// per-copy path either way).
    pub inval_batch: Option<InvalBatchConfig>,
    /// Per-operation CPU/disk costs.
    pub costs: CostModel,
    /// Link parameters.
    pub network: NetworkConfig,
    /// Lock-step window (the paper uses five minutes).
    pub window: SimDuration,
    /// Wall-clock interval between invalidation retransmissions.
    pub retry_interval: SimDuration,
    /// Retransmission budget per modification before giving up.
    pub max_retries: u32,
    /// Per-client (paper) or shared-per-proxy caches.
    pub sharing: CacheSharing,
    /// Immediate check-in notification or lazy browser-based detection.
    pub detection: ChangeDetection,
    /// Flat (paper) or hierarchical topology.
    pub topology: Topology,
    /// Record an [`AuditEvent`] stream during the replay so the
    /// consistency auditor ([`Deployment::audit`]) can verify the run.
    pub audit: bool,
    /// Record request/invalidation lifetime spans into per-node ring
    /// buffers ([`Deployment::trace_log`]). Recording never feeds back
    /// into protocol state, so a traced run is byte-identical to an
    /// untraced one.
    pub trace: bool,
}

impl Default for DeploymentOptions {
    fn default() -> Self {
        DeploymentOptions {
            num_proxies: 4,
            cache_capacity: ByteSize::from_gib(4),
            replacement: ReplacementPolicy::ExpiredFirstLru,
            inval_batch: None,
            costs: CostModel::default(),
            network: NetworkConfig::lan(),
            window: SimDuration::from_mins(5),
            retry_interval: SimDuration::from_secs(2),
            max_retries: wcc_core::origin::MAX_RETRIES,
            sharing: CacheSharing::PerClient,
            detection: ChangeDetection::Notify,
            topology: Topology::Flat,
            audit: false,
            trace: false,
        }
    }
}

/// A fully wired replay: the simulation plus handles to every node.
#[derive(Debug)]
pub struct Deployment {
    sim: Simulation<Message>,
    /// One origin per server, indexed by server index.
    origins: Vec<NodeId>,
    parent: Option<NodeId>,
    proxies: Vec<NodeId>,
    coordinator: NodeId,
    protocol: ProtocolKind,
    policy: Policy,
    trace_duration: SimDuration,
}

impl Deployment {
    /// Assembles a deployment for one protocol over one trace + modification
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if `options.num_proxies` is zero.
    pub fn build(
        trace: &Trace,
        mods: &ModSchedule,
        cfg: &ProtocolConfig,
        options: DeploymentOptions,
    ) -> Deployment {
        Deployment::build_inner(&[(trace, mods)], cfg, options)
    }

    /// Assembles a multi-server deployment: one origin (and one modifier)
    /// per `(trace, schedule)` pair. Trace *i* must be homed on
    /// `ServerId::new(i)` (see [`Trace::reassign_server`]). Hierarchy mode
    /// is a single-server feature.
    ///
    /// # Panics
    ///
    /// Panics on zero proxies/servers, mis-homed traces, or an unsupported
    /// option combination.
    pub fn build_multi(
        workloads: &[(Trace, ModSchedule)],
        cfg: &ProtocolConfig,
        options: DeploymentOptions,
    ) -> Deployment {
        let borrowed: Vec<(&Trace, &ModSchedule)> = workloads.iter().map(|(t, m)| (t, m)).collect();
        Deployment::build_inner(&borrowed, cfg, options)
    }

    // Workloads travel by reference so the single-trace [`Deployment::build`]
    // path (every replay experiment) never clones the trace.
    fn build_inner(
        workloads: &[(&Trace, &ModSchedule)],
        cfg: &ProtocolConfig,
        options: DeploymentOptions,
    ) -> Deployment {
        assert!(options.num_proxies > 0, "need at least one pseudo-client");
        assert!(!workloads.is_empty(), "need at least one origin workload");
        let multi = workloads.len() > 1;
        if multi {
            assert_eq!(
                options.topology,
                Topology::Flat,
                "hierarchy mode is single-server"
            );
            for (i, (trace, _)) in workloads.iter().enumerate() {
                assert_eq!(
                    trace.server.index() as usize,
                    i,
                    "trace {i} must be homed on server {i}"
                );
            }
        }
        let mut sim = Simulation::new(options.network.clone());

        let origins: Vec<NodeId> = workloads
            .iter()
            .map(|(trace, _)| {
                let core = OriginCore::new(
                    ServerConsistency::new(cfg, trace.server),
                    trace.doc_sizes.clone(),
                    options.costs.doc_scale,
                    options.retry_interval,
                    options.max_retries,
                    options.inval_batch,
                );
                sim.add_node(OriginNode::new(
                    core,
                    trace.doc_sizes.len(),
                    options.costs.clone(),
                    options.detection,
                ))
            })
            .collect();
        let origin = origins[0];

        let shared = options.sharing == CacheSharing::SharedPerProxy
            || options.topology == Topology::Hierarchy;
        let duration = workloads
            .iter()
            .map(|(t, _)| t.duration)
            .max()
            .expect("nonempty");
        // Partition every origin's records straight into per-proxy streams
        // and time-sort each stream. Stably sorting each proxy's
        // concatenation (origins in workload order) yields exactly the
        // subsequence that stably sorting the federation-wide merge would
        // hand that proxy, without ever materialising the merged copy — at
        // city scale that transient was the build's largest allocation.
        // Each partition is counted first, so each stream is allocated once,
        // at its exact length.
        let mut lens = vec![0usize; options.num_proxies as usize];
        for (trace, _) in workloads {
            for rec in &trace.records {
                lens[rec.client.partition(options.num_proxies) as usize] += 1;
            }
        }
        let mut parts: Vec<Vec<wcc_traces::TraceRecord>> =
            lens.into_iter().map(Vec::with_capacity).collect();
        for (trace, _) in workloads {
            for rec in &trace.records {
                parts[rec.client.partition(options.num_proxies) as usize].push(*rec);
            }
        }
        for part in &mut parts {
            part.sort_by_key(|r| r.at);
        }
        let proxies: Vec<NodeId> = parts
            .into_iter()
            .map(|records| {
                sim.add_node(ProxyNode::new(
                    ProxyPolicy::new(cfg),
                    CacheStore::new(options.cache_capacity, options.replacement),
                    records,
                    options.costs.clone(),
                ))
            })
            .collect();
        if shared {
            // Identity i satisfies partition(num_proxies) == i, so the
            // origin's routing stays correct in flat-shared mode.
            for (i, &p) in proxies.iter().enumerate() {
                sim.node_mut::<ProxyNode>(p)
                    .set_identity(ClientId::from_raw(i as u32));
            }
        }
        let parent = match options.topology {
            Topology::Hierarchy => {
                let identity = ClientId::from_raw(0);
                // Per-copy relay: the proposer stays off.
                let down = WritePath::new(
                    ServerConsistency::new(cfg, workloads[0].0.server),
                    options.costs.doc_scale,
                    options.retry_interval,
                    options.max_retries,
                    None,
                );
                Some(sim.add_node(ParentNode::new(
                    identity,
                    cfg,
                    CacheStore::new(options.cache_capacity, options.replacement),
                    options.costs.clone(),
                    down,
                )))
            }
            Topology::Flat => None,
        };

        let modifiers: Vec<NodeId> = workloads
            .iter()
            .map(|(trace, mods)| {
                sim.add_node(ModifierNode::new(
                    trace.server,
                    mods.modifications().to_vec(),
                ))
            })
            .collect();
        let coordinator = sim.add_node(CoordinatorNode::new(options.window, duration));

        // Wiring. In hierarchy mode the origin sees a single downstream
        // site — the parent — and the children use the parent as their
        // upstream.
        let downstream: Vec<NodeId> = match parent {
            Some(par) => vec![par],
            None => proxies.clone(),
        };
        for &o in &origins {
            sim.node_mut::<OriginNode>(o)
                .wire(downstream.clone(), coordinator);
        }
        if let Some(par) = parent {
            // Child identity `i` is site `i` (set above: hierarchy shares).
            sim.node_mut::<ParentNode>(par)
                .wire(origin, proxies.clone());
        }
        let upstreams: Vec<NodeId> = match parent {
            Some(par) => vec![par],
            None => origins.clone(),
        };
        for &p in &proxies {
            sim.node_mut::<ProxyNode>(p)
                .wire_multi(upstreams.clone(), coordinator);
        }
        for (i, &m) in modifiers.iter().enumerate() {
            sim.node_mut::<ModifierNode>(m)
                .wire(origins[i], coordinator);
        }
        let mut participants = proxies.clone();
        participants.extend(&modifiers);
        participants.extend(&origins);
        sim.node_mut::<CoordinatorNode>(coordinator)
            .set_participants(participants);
        if options.audit {
            for &o in &origins {
                sim.node_mut::<OriginNode>(o).core.enable_audit();
            }
            for &p in &proxies {
                sim.node_mut::<ProxyNode>(p).core.enable_audit();
            }
            // Its own log (`ParentCore::down`), not the auditor's stream.
            if let Some(par) = parent {
                sim.node_mut::<ParentNode>(par)
                    .core
                    .down_mut()
                    .enable_audit();
            }
        }
        if options.trace {
            for (i, &o) in origins.iter().enumerate() {
                sim.node_mut::<OriginNode>(o).tracer =
                    wcc_obs::Tracer::enabled(format!("origin{i}"));
            }
            for (i, &p) in proxies.iter().enumerate() {
                sim.node_mut::<ProxyNode>(p).tracer = wcc_obs::Tracer::enabled(format!("proxy{i}"));
            }
        }

        Deployment {
            sim,
            origins,
            parent,
            proxies,
            coordinator,
            protocol: cfg.kind,
            policy: cfg.policy(),
            trace_duration: duration,
        }
    }

    /// Schedules a fault plan (crashes / partitions) before running.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        plan.apply(&mut self.sim);
    }

    /// Node id of the (first) origin (for fault plans).
    pub fn origin_id(&self) -> NodeId {
        self.origins[0]
    }

    /// Node ids of every origin, indexed by server: a fault on one origin of
    /// several, which pins that its recovery bulk-invalidates only its own
    /// documents.
    pub fn origin_ids(&self) -> &[NodeId] {
        &self.origins
    }

    /// Node ids of the proxies (for fault plans).
    pub fn proxy_ids(&self) -> &[NodeId] {
        &self.proxies
    }

    /// Node id of the hierarchy parent, if there is one: a partition
    /// between it and one child, which pins that an unacknowledged relay is
    /// sent again until the child acknowledges it.
    pub fn parent_id(&self) -> Option<NodeId> {
        self.parent
    }

    /// Runs the replay to completion. Returns the wall-clock duration.
    pub fn run(&mut self) -> SimTime {
        self.sim.run_until_idle()
    }

    /// The engine's event-arena counters for the run so far (recycle rate,
    /// peak in-flight events). Deliberately *not* part of [`RawReport`]:
    /// they describe how the engine ran the replay, not what the replay did.
    pub fn alloc_stats(&self) -> wcc_simnet::ArenaStats {
        self.sim.alloc_stats()
    }

    /// The engine's busy-deferral counters for the run so far: backlog runs
    /// parked, deliveries that found their node busy, longest run. A side
    /// accessor for the same reason as [`Deployment::alloc_stats`].
    pub fn defer_stats(&self) -> wcc_simnet::DeferStats {
        self.sim.defer_stats()
    }

    /// Events the run so far scheduled beyond the queue ring's 16 384 µs
    /// horizon (large transfers, timers, the tail of a long backlog).
    /// A side accessor for the same reason as [`Deployment::alloc_stats`].
    pub fn overflow_inserts(&self) -> u64 {
        self.sim.overflow_inserts()
    }

    /// Runs with a wall-clock safety deadline (fault scenarios with retry
    /// loops can otherwise take long).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.sim.run_until(deadline)
    }

    /// [`Deployment::run`] under the name the frozen `benchmark/` ledger
    /// still calls (`benchmark/src/report.rs`, traced `feed-storm` runs):
    /// `_shards` is ignored, there is no second engine. No other caller;
    /// goes with the `simnet.shard2_speedup` row (ROADMAP item 2(a)).
    pub fn run_sharded(&mut self, _shards: usize) -> SimTime {
        self.run()
    }

    /// The (first) origin node (after `run`).
    pub fn origin(&self) -> &OriginNode {
        self.sim.node_ref(self.origins[0])
    }

    /// Origin node `i` (after `run`).
    pub fn origin_at(&self, i: usize) -> &OriginNode {
        self.sim.node_ref(self.origins[i])
    }

    /// The proxy nodes (after `run`).
    pub fn proxy(&self, i: usize) -> &ProxyNode {
        self.sim.node_ref(self.proxies[i])
    }

    /// The coordinator (after `run`).
    pub fn coordinator(&self) -> &CoordinatorNode {
        self.sim.node_ref(self.coordinator)
    }

    /// The parent proxy, if running in hierarchy mode (after `run`).
    pub fn parent(&self) -> Option<&ParentNode> {
        self.parent.map(|p| self.sim.node_ref(p))
    }

    /// The merged audit-event stream: every origin's log, then every
    /// proxy's, stably sorted by simulator time (so same-instant events
    /// keep server-before-proxy, per-node append order). Empty unless the
    /// deployment was built with [`DeploymentOptions::audit`].
    pub fn audit_log(&self) -> Vec<AuditEvent> {
        let mut log: Vec<AuditEvent> = Vec::new();
        for i in 0..self.origins.len() {
            log.extend_from_slice(self.origin_at(i).core().audit_log());
        }
        for i in 0..self.proxies.len() {
            log.extend_from_slice(self.proxy(i).core().audit_log());
        }
        log.sort_by_key(AuditEvent::at);
        log
    }

    /// The merged span-event stream, ordered by `(time, node, recording
    /// order)`. Empty unless the deployment was built with
    /// [`DeploymentOptions::trace`].
    pub fn trace_log(&self) -> Vec<wcc_obs::TraceEvent> {
        let mut tracers: Vec<&wcc_obs::Tracer> = Vec::new();
        for i in 0..self.origins.len() {
            tracers.push(&self.origin_at(i).tracer);
        }
        for i in 0..self.proxies.len() {
            tracers.push(self.proxy(i).tracer());
        }
        wcc_obs::merge_logs(tracers)
    }

    /// Runs the consistency auditor over the recorded event stream,
    /// cross-checking it against the servers' own end-of-run counters.
    /// Meaningful only after [`run`](Deployment::run) on a deployment built
    /// with [`DeploymentOptions::audit`].
    pub fn audit(&self) -> wcc_audit::AuditReport {
        let mut expect = wcc_audit::Expectations {
            writes_complete: true,
            ..Default::default()
        };
        for i in 0..self.origins.len() {
            let consistency = self.origin_at(i).core().consistency();
            let stats = consistency.stats();
            expect.registrations += stats.registrations;
            expect.fresh_invalidations += stats.invalidations_sent;
            expect.sitelist.merge(&consistency.table().stats());
            expect.writes_complete &= consistency.writes_complete();
        }
        wcc_audit::audit(self.policy, &self.audit_log(), Some(&expect))
    }

    /// Aggregates every counter into a [`RawReport`].
    pub fn collect(&self) -> RawReport {
        // Aggregate server-side counters across every origin.
        let mut oc = OriginCounters {
            writes_complete: true,
            ..OriginCounters::default()
        };
        let (mut disk_reads, mut disk_writes, mut deferred_detections) = (0u64, 0u64, 0u64);
        let mut origin_bytes = ByteSize::ZERO;
        let mut modified_list_lens: Vec<u64> = Vec::new();
        let mut inval_time = Summary::default();
        let mut piggybacked = 0u64;
        let mut write_completion = Summary::default();
        let mut proposer: Option<ProposerStats> = None;
        for i in 0..self.origins.len() {
            let origin = self.origin_at(i);
            write_completion.merge(&origin.write_completion);
            if let Some(p) = origin.core().proposer() {
                proposer
                    .get_or_insert_with(ProposerStats::default)
                    .merge(&p.stats());
            }
            oc.merge(&origin.core().snapshot());
            disk_reads += origin.disk_reads;
            disk_writes += origin.disk_writes;
            origin_bytes += origin.bytes_sent;
            deferred_detections += origin.deferred_detections;
            let consistency = origin.core().consistency();
            modified_list_lens.extend_from_slice(consistency.modified_list_lens());
            inval_time.merge(&origin.inval_time);
            piggybacked += consistency.stats().piggybacked;
        }

        let mut latency = Summary::default();
        let mut fetch = FetchCounters::default();
        let mut pc_total = ProxyCounters::default();
        let mut cache_evictions = 0u64;
        let mut cache_expired_evictions = 0u64;
        for i in 0..self.proxies.len() {
            let p = self.proxy(i);
            latency.merge(p.latency());
            fetch.merge(&p.core().counters());
            pc_total.merge(p.counters());
            let cache = p.core().cache();
            cache_evictions += cache.stats().evictions;
            cache_expired_evictions += cache.stats().expired_evictions;
        }

        // Staleness audit: compare every cache-served delivery against the
        // touch-log oracle (keyed by full URL so multi-server documents
        // with the same index do not collide).
        let mut touches: FxHashMap<Url, Vec<SimTime>> = FxHashMap::default();
        for i in 0..self.origins.len() {
            let origin = self.origin_at(i);
            let server = origin.core().server();
            for &(doc, at) in &origin.touch_log {
                touches.entry(Url::new(server, doc)).or_default().push(at);
            }
        }
        // xtask-lint: allow(map-iteration-order): sorts each list in place
        for times in touches.values_mut() {
            times.sort_unstable();
        }
        let version_at = |url: Url, t: SimTime| -> SimTime {
            match touches.get(&url) {
                None => SimTime::ZERO,
                Some(times) => match times.partition_point(|&m| m <= t) {
                    0 => SimTime::ZERO,
                    n => times[n - 1],
                },
            }
        };
        let stale = |s: &ServeEvent| s.from_cache && s.version != version_at(s.url, s.trace_at);
        let stale_hits = (0..self.proxies.len())
            .map(|i| self.proxy(i).serves().filter(stale).count() as u64)
            .sum();

        // End-of-run freshness: entries still covered by a live invalidation
        // promise must hold the final version (strong-consistency check).
        let trace_end = SimTime::ZERO + self.trace_duration;
        let final_version = |url: Url| -> SimTime {
            touches
                .get(&url)
                .and_then(|t| t.last().copied())
                .unwrap_or(SimTime::ZERO)
        };
        let mut final_violations = 0u64;
        let mut audit = |policy: &ProxyPolicy, cache: &CacheStore| {
            for (key, entry) in cache.iter() {
                if policy.promised_fresh(key, &entry.freshness, trace_end)
                    && entry.meta.last_modified() != final_version(key.url())
                {
                    final_violations += 1;
                }
            }
        };
        for i in 0..self.proxies.len() {
            let core = self.proxy(i).core();
            audit(core.policy(), core.cache());
        }
        if let Some(parent) = self.parent() {
            audit(
                parent.core().fetch().policy(),
                parent.core().fetch().cache(),
            );
        }

        // Use the instant the replay drained, not the tail of straggler
        // timeout timers, as the wall clock for rates and utilisation.
        let wall = self.coordinator().finished_at().unwrap_or(self.sim.now());
        let wall_secs = wall.as_secs_f64().max(1e-9);
        let server_busy: wcc_types::SimDuration =
            self.origins.iter().map(|&o| self.sim.busy_time(o)).sum();
        // Average utilisation per origin machine.
        let server_cpu = if wall == SimTime::ZERO {
            0.0
        } else {
            server_busy.as_secs_f64() / wall.as_secs_f64() / self.origins.len() as f64
        };

        let parent_summary = self.parent().map(|p| ParentSummary {
            counters: p.core().counters(),
            fetch: p.core().fetch().counters(),
            child_sitelist: p.core().down().snapshot().sitelist,
        });
        let invalidations_wire = oc.wire_invalidations();
        let control_and_transfers = match &parent_summary {
            None => {
                fetch.gets_sent
                    + fetch.ims_sent
                    + oc.replies_200
                    + oc.replies_304
                    + invalidations_wire
                    + oc.bulk_invalidations
            }
            Some(par) => {
                // Two hops: child↔parent plus parent↔origin, and both
                // invalidation legs.
                fetch.gets_sent
                    + fetch.ims_sent
                    + fetch.replies_200
                    + fetch.replies_304
                    + par.fetch.gets_sent
                    + par.fetch.ims_sent
                    + oc.replies_200
                    + oc.replies_304
                    + invalidations_wire
                    + oc.bulk_invalidations
                    + par.counters.invalidations_relayed
            }
        };

        RawReport {
            protocol: self.protocol,
            requests: fetch.requests,
            hits: fetch.hits,
            gets: fetch.gets_sent,
            ims: fetch.ims_sent,
            replies_200: oc.replies_200,
            replies_304: oc.replies_304,
            invalidations: oc.invalidations,
            invalidation_retries: oc.invalidation_retries,
            bulk_invalidations: oc.bulk_invalidations,
            acks: oc.acks,
            notifies: oc.notifies,
            total_messages: control_and_transfers,
            total_bytes: origin_bytes + pc_total.bytes_sent,
            latency,
            server_cpu,
            server_busy,
            disk_reads,
            disk_writes,
            disk_reads_per_sec: disk_reads as f64 / wall_secs,
            disk_writes_per_sec: disk_writes as f64 / wall_secs,
            wall_duration: wall.saturating_since(SimTime::ZERO),
            stale_hits,
            final_violations,
            piggybacked,
            metered_served: oc.metered_served,
            metered_reported: oc.metered_reported,
            writes_complete: oc.writes_complete,
            inval_time,
            sitelist: oc.sitelist,
            modified_list_lens,
            cache_evictions,
            cache_expired_evictions,
            revalidation_races: fetch.revalidation_races,
            reissued_after_crash: pc_total.reissued_after_crash,
            request_timeouts: pc_total.request_timeouts,
            proxy_recoveries: pc_total.recoveries,
            questionable_marked: pc_total.questionable_marked,
            gave_up: oc.gave_up,
            deferred_detections,
            steps_run: self.coordinator().steps_run(),
            finished: self.coordinator().finished(),
            parent: parent_summary,
            proposer,
            write_completion,
            origin_counters: oc,
        }
    }
}

/// What the parent tier did, when running a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParentSummary {
    /// The parent's counters.
    pub counters: ParentCounters,
    /// Its origin-facing fetch core's counters (upstream `GET`/`IMS`,
    /// invalidations received, races).
    pub fetch: FetchCounters,
    /// The parent's child-facing site lists at end of run.
    pub child_sitelist: SiteListStats,
}

/// Everything measured by one replay, before table formatting.
#[derive(Debug, Clone)]
pub struct RawReport {
    /// The protocol replayed.
    pub protocol: ProtocolKind,
    /// User requests issued.
    pub requests: u64,
    /// Requests that found a cached entry.
    pub hits: u64,
    /// Plain `GET`s on the wire.
    pub gets: u64,
    /// `If-Modified-Since` requests on the wire.
    pub ims: u64,
    /// `200` replies.
    pub replies_200: u64,
    /// `304` replies.
    pub replies_304: u64,
    /// `INVALIDATE <url>` messages (including retries).
    pub invalidations: u64,
    /// Of those, retransmissions.
    pub invalidation_retries: u64,
    /// Bulk `INVALIDATE <server>` messages.
    pub bulk_invalidations: u64,
    /// Invalidation acknowledgements (transport-level; excluded from
    /// `total_messages`, as TCP acks are in the paper).
    pub acks: u64,
    /// Modifier check-ins (server-local; excluded from `total_messages`).
    pub notifies: u64,
    /// The paper's "Total Messages" row.
    pub total_messages: u64,
    /// The paper's "Messages Bytes" row.
    pub total_bytes: ByteSize,
    /// Per-request latency (wall clock).
    pub latency: Summary,
    /// Server CPU utilisation (busy / wall).
    pub server_cpu: f64,
    /// Absolute server CPU time.
    pub server_busy: SimDuration,
    /// Disk reads at the server.
    pub disk_reads: u64,
    /// Disk writes at the server.
    pub disk_writes: u64,
    /// The paper's "Disk RW/s" row, reads part.
    pub disk_reads_per_sec: f64,
    /// The paper's "Disk RW/s" row, writes part.
    pub disk_writes_per_sec: f64,
    /// Wall-clock length of the compressed replay.
    pub wall_duration: SimDuration,
    /// Cache-served deliveries of outdated versions (adaptive TTL's stale
    /// hits; transient in-flight serves for invalidation).
    pub stale_hits: u64,
    /// Cache entries still promised-fresh at the end that do not hold the
    /// final version — must be zero for invalidation when all writes
    /// completed.
    pub final_violations: u64,
    /// Invalidations delivered by piggybacking on replies (PSI).
    pub piggybacked: u64,
    /// §7 hit metering: requests the origin answered directly.
    pub metered_served: u64,
    /// §7 hit metering: cache hits reported by the caches (on requests and
    /// invalidation acks).
    pub metered_reported: u64,
    /// Whether every invalidation was acknowledged by the end.
    pub writes_complete: bool,
    /// Wall time per invalidation batch (Table 5's invalidation time).
    pub inval_time: Summary,
    /// Site-list statistics at end of run (Table 5's storage row).
    pub sitelist: SiteListStats,
    /// Site-list length at each modification (Table 5's avg/max list rows).
    pub modified_list_lens: Vec<u64>,
    /// Proxy cache evictions.
    pub cache_evictions: u64,
    /// Of those, victims whose TTL had already expired.
    pub cache_expired_evictions: u64,
    /// `304`-vs-eviction races (re-issued as plain GETs).
    pub revalidation_races: u64,
    /// Requests re-issued after proxy crashes.
    pub reissued_after_crash: u64,
    /// Requests retransmitted after a timeout (lost to crashes/partitions).
    pub request_timeouts: u64,
    /// Proxy crash recoveries observed.
    pub proxy_recoveries: u64,
    /// Cache entries marked questionable by proxy recoveries.
    pub questionable_marked: u64,
    /// Invalidations abandoned after the retry budget.
    pub gave_up: u64,
    /// Modifications detected lazily by the browser-based mechanism.
    pub deferred_detections: u64,
    /// Lock-step windows completed.
    pub steps_run: u32,
    /// Whether the coordinator drained the full trace.
    pub finished: bool,
    /// The parent tier's summary (hierarchy mode only).
    pub parent: Option<ParentSummary>,
    /// The batched proposer's counters, summed over origins (when
    /// `inval_batch` was set).
    pub proposer: Option<ProposerStats>,
    /// Wall time from each write's first fan-out to its last ack, in both
    /// batched and per-write modes (the batching trade-off's cost axis).
    pub write_completion: Summary,
    /// Raw origin counters (for debugging and extra rows).
    pub origin_counters: OriginCounters,
}

impl RawReport {
    /// Hit ratio over all requests.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Site-list length stats among modified documents (Table 5):
    /// `(average, max)`.
    pub fn modified_list_stats(&self) -> (f64, u64) {
        if self.modified_list_lens.is_empty() {
            return (0.0, 0);
        }
        let sum: u64 = self.modified_list_lens.iter().sum();
        let max = *self.modified_list_lens.iter().max().expect("nonempty");
        (sum as f64 / self.modified_list_lens.len() as f64, max)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // option-mutation style is intended
mod tests {
    use super::*;
    use wcc_traces::{synthetic, TraceSpec};

    fn tiny_run(kind: ProtocolKind) -> RawReport {
        let spec = TraceSpec::epa().scaled_down(200);
        let trace = synthetic::generate(&spec, 7);
        // Fast churn so invalidations actually happen in the tiny replay.
        let mods =
            ModSchedule::generate(spec.num_docs, SimDuration::from_hours(6), spec.duration, 7);
        let cfg = ProtocolConfig::new(kind);
        let mut d = Deployment::build(&trace, &mods, &cfg, DeploymentOptions::default());
        d.run();
        d.collect()
    }

    #[test]
    fn replay_completes_and_conserves_requests() {
        for kind in ProtocolKind::PAPER_TRIO {
            let r = tiny_run(kind);
            assert!(r.finished, "{kind}: replay did not drain");
            assert_eq!(r.requests, 203, "{kind}");
            // Every wire request got exactly one reply.
            assert_eq!(r.gets + r.ims, r.replies_200 + r.replies_304, "{kind}");
            // Every request was served exactly once.
            assert!(r.latency.count() >= r.requests, "{kind}");
        }
    }

    #[test]
    fn polling_contacts_server_every_request() {
        let r = tiny_run(ProtocolKind::PollEveryTime);
        assert_eq!(r.gets + r.ims, r.requests + r.revalidation_races);
        assert_eq!(r.stale_hits, 0, "polling never serves straight from cache");
    }

    #[test]
    fn invalidation_strong_consistency_holds() {
        let r = tiny_run(ProtocolKind::Invalidation);
        assert!(r.writes_complete, "all invalidations acknowledged");
        assert_eq!(r.final_violations, 0, "no promised-fresh stale entries");
        assert!(r.invalidations > 0, "churn must trigger invalidations");
        assert_eq!(r.gave_up, 0);
    }

    #[test]
    fn invalidation_total_messages_fewer_than_polling() {
        // A workload with locality and paper-scale churn: polling pays an
        // IMS on every hit, invalidation serves hits locally.
        let spec = TraceSpec::epa().scaled_down(50);
        let trace = synthetic::generate(&spec, 21);
        let mods = ModSchedule::generate(spec.num_docs, spec.default_lifetime, spec.duration, 21);
        let run = |kind: ProtocolKind| {
            let cfg = ProtocolConfig::new(kind);
            let mut d = Deployment::build(&trace, &mods, &cfg, DeploymentOptions::default());
            d.run();
            d.collect()
        };
        let poll = run(ProtocolKind::PollEveryTime);
        let inval = run(ProtocolKind::Invalidation);
        assert!(poll.hits > 0, "workload must have cache hits");
        assert!(
            inval.total_messages < poll.total_messages,
            "invalidation {} vs polling {}",
            inval.total_messages,
            poll.total_messages
        );
    }

    #[test]
    fn batched_proposer_cuts_wire_traffic_and_keeps_consistency() {
        // Enough churn that fan-outs carry several recipients, so per-proxy
        // batching has something to merge and the per-write fan-out stalls
        // the accelerator (§5.2's maximum-latency problem).
        let spec = TraceSpec::nasa().scaled_down(100);
        let trace = synthetic::generate(&spec, 9);
        let mods =
            ModSchedule::generate(spec.num_docs, SimDuration::from_hours(2), spec.duration, 9);
        let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
        let run = |batch: Option<InvalBatchConfig>| {
            let mut opts = DeploymentOptions::default();
            opts.inval_batch = batch;
            opts.audit = true;
            let mut d = Deployment::build(&trace, &mods, &cfg, opts);
            d.run();
            let audit = d.audit();
            (d.collect(), audit)
        };
        let (classic, classic_audit) = run(None);
        let (batched, batched_audit) = run(Some(InvalBatchConfig::default()));
        assert!(classic_audit.is_clean(), "{classic_audit}");
        assert!(batched_audit.is_clean(), "{batched_audit}");
        assert!(batched.finished);
        assert!(batched.writes_complete, "all batched invalidations acked");
        assert_eq!(batched.final_violations, 0);
        assert_eq!(batched.gave_up, 0);
        assert_eq!(batched.requests, classic.requests);
        assert!(classic.invalidations > 0);
        // Batching shortens the stall, so the worst request gets faster.
        assert!(
            batched.latency.max() < classic.latency.max(),
            "max latency: batched {:?} vs per-write {:?}",
            batched.latency.max(),
            classic.latency.max()
        );

        assert!(classic.proposer.is_none(), "proposer off by default");
        let p = batched.proposer.expect("proposer engaged");
        assert!(p.batches > 0, "batches were emitted");
        assert!(
            p.batches < p.enqueued,
            "batching beats the per-write counterfactual: {} vs {}",
            p.batches,
            p.enqueued
        );
        assert!(p.coalesce_ratio() >= 1.0);
        assert_eq!(
            p.enqueued,
            p.coalesced + p.flushed_entries,
            "every intent either coalesced or shipped"
        );
        // Every fresh batched send is a drained entry, and the same writes
        // reach nearly the same copies as per-write fan-out: the fresh
        // counts differ by no more than the intents the proposer merged
        // (retransmissions differ more, as the busier per-write server acks
        // more slowly).
        let fresh = |r: &RawReport| r.invalidations - r.invalidation_retries;
        assert_eq!(fresh(&batched), p.flushed_entries);
        assert!(
            fresh(&classic).abs_diff(fresh(&batched)) <= p.coalesced,
            "fresh sends: per-write {} vs batched {} ({} coalesced)",
            fresh(&classic),
            fresh(&batched),
            p.coalesced
        );

        // Fewer INVALIDATE-class messages actually hit the wire.
        let wire = |r: &RawReport| r.origin_counters.wire_invalidations();
        assert!(
            wire(&batched) < wire(&classic),
            "wire invalidations: batched {} vs classic {}",
            wire(&batched),
            wire(&classic)
        );
        // Both modes measure write completion.
        assert!(batched.write_completion.count() > 0);
        assert!(classic.write_completion.count() > 0);
    }

    #[test]
    fn adaptive_ttl_can_serve_stale() {
        // Aggressive churn + generous TTLs → stale hits are very likely.
        let spec = TraceSpec::sask().scaled_down(100);
        let trace = synthetic::generate(&spec, 11);
        let mods = ModSchedule::generate(
            spec.num_docs,
            SimDuration::from_hours(12),
            spec.duration,
            11,
        );
        // Steer re-reads into the window right after each write so the churn
        // actually lands on cached copies.
        let trace = synthetic::with_modification_interest(
            &trace,
            &mods,
            0.5,
            SimDuration::from_hours(2),
            11,
        );
        let cfg = ProtocolConfig::new(ProtocolKind::AdaptiveTtl);
        let mut d = Deployment::build(&trace, &mods, &cfg, DeploymentOptions::default());
        d.run();
        let r = d.collect();
        assert!(r.finished);
        assert_eq!(r.invalidations, 0, "TTL sends no invalidations");
        // Weak consistency: some staleness is expected under this churn.
        assert!(r.stale_hits > 0, "expected stale hits, got 0");
    }

    #[test]
    fn hierarchy_preserves_consistency_and_shrinks_server_fanout() {
        let spec = TraceSpec::nasa().scaled_down(150);
        let trace = synthetic::generate(&spec, 31);
        let mods =
            ModSchedule::generate(spec.num_docs, SimDuration::from_hours(4), spec.duration, 31);
        let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
        let run = |topology: Topology| {
            let mut opts = DeploymentOptions::default();
            opts.topology = topology;
            opts.sharing = CacheSharing::SharedPerProxy;
            let mut d = Deployment::build(&trace, &mods, &cfg, opts);
            d.run();
            d.collect()
        };
        let flat = run(Topology::Flat);
        let tree = run(Topology::Hierarchy);
        assert!(tree.finished);
        assert_eq!(tree.requests, flat.requests);
        assert_eq!(tree.final_violations, 0);
        assert_eq!(flat.final_violations, 0);
        let tree_parent = tree.parent.expect("hierarchy has a parent");
        assert!(flat.parent.is_none());
        // The origin's fan-out shrinks to at most one INVALIDATE per
        // modification (only the parent is tracked).
        assert!(
            tree.invalidations <= flat.invalidations,
            "tree {} vs flat {}",
            tree.invalidations,
            flat.invalidations
        );
        assert!(
            tree.sitelist.max_list_len <= 1,
            "origin tracks only the parent"
        );
        // The parent relays to children that actually hold copies.
        assert!(tree_parent.counters.invalidations_relayed > 0);
        // Origin request load drops: children share the parent cache, so
        // only parent misses reach the origin.
        let tree_origin_load = tree_parent.fetch.gets_sent + tree_parent.fetch.ims_sent;
        assert!(
            tree_origin_load < flat.gets + flat.ims,
            "origin load: tree {tree_origin_load} vs flat {}",
            flat.gets + flat.ims
        );
    }

    #[test]
    fn shared_caches_raise_hit_ratio() {
        let spec = TraceSpec::nasa().scaled_down(150);
        let trace = synthetic::generate(&spec, 32);
        let mods = ModSchedule::none(spec.num_docs);
        let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
        let run = |sharing: CacheSharing| {
            let mut opts = DeploymentOptions::default();
            opts.sharing = sharing;
            let mut d = Deployment::build(&trace, &mods, &cfg, opts);
            d.run();
            d.collect()
        };
        let private = run(CacheSharing::PerClient);
        let shared = run(CacheSharing::SharedPerProxy);
        assert!(
            shared.hit_ratio() > private.hit_ratio(),
            "shared {} vs private {}",
            shared.hit_ratio(),
            private.hit_ratio()
        );
        // Shared mode: at most one site per (doc, proxy) at the origin.
        assert!(shared.sitelist.max_list_len <= 4);
    }

    #[test]
    fn report_ratios() {
        let r = tiny_run(ProtocolKind::Invalidation);
        assert!(r.hit_ratio() >= 0.0 && r.hit_ratio() <= 1.0);
        let (avg, max) = r.modified_list_stats();
        assert!(avg <= max as f64);
    }
}
