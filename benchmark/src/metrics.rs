//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! and layer metrics with the end-to-end metric each should move.
//! `BENCHMARK.json` is generated from these tables (`manifest`), and a test
//! holds the committed file to them.

use crate::json::escape;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-grid",
        why: "Simulator: the 18 configs of Tables 3/4 at full scale on the committed tables' draw (the seed shuffles their order); event queue/arena and the proxy+cache hit/miss path do the work.",
    },
    Workload {
        name: "feed-storm",
        why: "Simulator: real-time-feed city family/4 under invalidation (40k requests, ~30k invalidations, 64 origins); the server fan-out/ack write path dominates, the event queue is a small share.",
    },
    Workload {
        name: "serve-hit",
        why: "Serve tier, loopback, closed loop, clamp(nproc,2,4) connections x window 8: 8 MiB working set in a 64 MiB cache, all hits, origin idle; reactor, codec and the reactor-worker hop are everything.",
    },
    Workload {
        name: "serve-mixed",
        why: "Serve tier, loopback, closed loop plus a fixed 50 writes/s: Zipf(0.85) over 512 MiB against a 64 MiB cache; upstream misses, evictions and the invalidation push/ack channel do the work.",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for layer metrics.
    pub bound: Option<f64>,
    /// End-to-end: the definition. Layer: how it is measured from outside,
    /// the end-to-end metric it should move, and on which workload.
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        about,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        about,
    }
}

/// Every timed value is in reference seconds (see `calib`).
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", "lower", 0.25,
        "Everything before the first timed unit: trace/family generation + Deployment::build (sim); spawn pair + connect + cache warm-up (serve). Median of the repetitions."),
    e2e("req_per_s", "1/s", "higher", 0.25,
        "Sim (ISSUE's replay_req_per_s): simulated requests of one pass / sum over units of the unit's median wall time. Serve (ISSUE's serve_req_per_s): valid replies per slice / slice length, median over slices."),
    e2e("cpu_us_per_req", "us", "lower", 0.25,
        "Sim: on-CPU time of the replaying thread per simulated request. Serve: on-CPU time of the origin + proxy threads (generator excluded) per valid reply, median over slices."),
    e2e("peak_rss_mb", "MiB", "lower", 0.25,
        "VmHWM of the workload's process (one per workload) after set-up and the reference pass (sim) or when the timed phase ends (serve), before the ledger's kernels allocate."),
];

pub const PER_LAYER: [Metric; 76] = [
    layer("traces.generate_s", "s", "lower", "span around synthetic/family generation; moves setup_s; both sim"),
    layer("httpsim.build_s", "s", "lower", "spans around Deployment::build[_multi], per pass; moves setup_s (feed-storm) / req_per_s (paper-grid, built inside run_on); both sim"),
    layer("httpsim.run_s", "s", "lower", "spans around run / run_until, per pass; moves req_per_s; both sim"),
    layer("httpsim.collect_s", "s", "lower", "spans around collect, per pass; moves req_per_s; both sim"),
    layer("simnet.events", "count", "lower", "alloc_stats().allocated over one pass; moves req_per_s; paper-grid"),
    layer("simnet.events_per_req", "count", "lower", "simnet.events / replay.requests; moves req_per_s; paper-grid"),
    layer("simnet.arena_recycled_pct", "%", "higher", "alloc_stats().recycled_pct(); moves req_per_s and peak_rss_mb; paper-grid"),
    layer("simnet.queue_ns_per_event", "ns", "lower", "kernel: EventQueue schedule/pop + Arena alloc/take with a replay-shaped delay mix; moves req_per_s; paper-grid"),
    layer("simnet.queue_share", "ratio", "lower", "queue_ns_per_event x simnet.events / httpsim.run_s; moves req_per_s; paper-grid (small on feed-storm)"),
    layer("simnet.shard2_speedup", "ratio", "higher", "run() wall / run_sharded(2) wall, reports Debug-identical or a failure; moves nothing yet (multi-core baseline); feed-storm"),
    layer("core.server_get_ns", "ns", "lower", "kernel: ServerConsistency::on_get over the workload's misses; moves req_per_s; paper-grid"),
    layer("core.server_modify_ns", "ns", "lower", "kernel: on_modify + its on_inval_acks per modification; moves req_per_s; feed-storm"),
    layer("core.proxy_request_ns", "ns", "lower", "kernel: ProxyPolicy on_request/on_reply/on_invalidate time per request; moves req_per_s; paper-grid"),
    layer("core.share", "ratio", "lower", "(server + proxy kernel time - cache kernel time) / httpsim.run_s; moves req_per_s; both sim"),
    layer("core.sitelist_peak_entries", "count", "lower", "largest InvalidationTable population in the kernel replay; moves peak_rss_mb; feed-storm"),
    layer("cache.touch_ns", "ns", "lower", "kernel: CacheStore::touch over the workload's key stream; moves req_per_s; paper-grid, serve-mixed"),
    layer("cache.insert_ns", "ns", "lower", "kernel: CacheStore::insert (evicting at the workload's capacity); moves req_per_s; paper-grid, serve-mixed; flat on serve-hit"),
    layer("cache.share", "ratio", "lower", "cache kernel time / httpsim.run_s (sim) or / server CPU per reply (serve); moves req_per_s; paper-grid, serve-mixed"),
    layer("httpsim.inval_path_share", "ratio", "lower", "1 - wall under poll-every-time / wall under invalidation on identical inputs; moves req_per_s; feed-storm"),
    layer("httpsim.unattributed_share", "ratio", "lower", "1 - (queue + core + cache shares): actor dispatch, cost model, coordinator; moves req_per_s; both sim"),
    layer("audit.overhead_pct", "%", "lower", "DeploymentOptions{audit} on vs off on the EPA trio, reports identical; moves nothing (off in end-to-end runs); paper-grid"),
    layer("obs.trace_overhead_pct", "%", "lower", "DeploymentOptions{trace} on vs off on the EPA trio, reports identical; moves nothing (off in end-to-end runs); paper-grid"),
    layer("replay.requests", "count", "lower", "RawReport summed over configs; must not move at all (oracle); both sim"),
    layer("replay.hits", "count", "higher", "RawReport summed over configs; must not move at all (oracle); both sim"),
    layer("replay.total_messages", "count", "lower", "RawReport summed over configs; must not move at all (oracle); both sim"),
    layer("replay.invalidations", "count", "lower", "RawReport summed over configs; must not move at all (oracle); both sim"),
    layer("replay.total_bytes", "B", "lower", "RawReport summed over configs; must not move at all (oracle); both sim"),
    layer("replay.final_violations", "count", "lower", "RawReport summed over configs; must be 0 (oracle); both sim"),
    layer("net.serve_req_per_s", "1/s", "higher", "raw (not speed-normalised) replies per second, median over slices; the host-dependent reading of req_per_s; both serve"),
    layer("net.read_p50_us", "us", "lower", "ISSUE's read_p50_us: send->reply time exact from raw samples, median over slices of the slice's p50; tied to req_per_s by Little's law; both serve"),
    layer("net.read_p99_us", "us", "lower", "exact p99 over all timed replies (0 unless >= 10 samples lie beyond it); reported, not gated; both serve"),
    layer("net.read_p999_us", "us", "lower", "exact p99.9 over all timed replies (0 unless >= 10 samples lie beyond it); reported, not gated; both serve"),
    layer("net.read_samples", "count", "higher", "replies the read percentiles are computed from; both serve"),
    layer("net.write_visible_p50_us", "us", "lower", "ISSUE's write_visible_p50_us: Notify written -> first probe reply carrying the new version, median over slices; serve-mixed"),
    layer("net.write_visible_p99_us", "us", "lower", "exact p99 over all timed writes (0 unless >= 10 samples lie beyond it); reported, not gated; serve-mixed"),
    layer("net.write_samples", "count", "higher", "writes the write-visible percentiles are computed from; serve-mixed"),
    layer("net.proxy.cpu_us_per_req", "us", "lower", "schedstat delta of the proxy reactor + workers per reply; moves cpu_us_per_req, req_per_s; serve-hit"),
    layer("net.proxy.runq_wait_us_per_req", "us", "lower", "schedstat run-queue wait of the proxy threads per reply; moves net.read_p50_us; serve-hit"),
    layer("net.proxy.ctx_switches_per_req", "count", "lower", "status ctxt-switch delta of the proxy threads per reply; x reactor.wake_rtt_us bounds window-1 latency; serve-hit"),
    layer("net.origin.cpu_us_per_req", "us", "lower", "schedstat delta of the origin reactor per reply; moves cpu_us_per_req on serve-mixed; must stay < 2% of server CPU on serve-hit"),
    layer("net.origin.runq_wait_us_per_req", "us", "lower", "schedstat run-queue wait of the origin reactor per reply; serve-mixed"),
    layer("net.origin.cpu_share", "ratio", "lower", "origin CPU / (origin + proxy CPU); < 0.02 predicted on serve-hit"),
    layer("bench.client.cpu_us_per_req", "us", "lower", "schedstat delta of the generator threads per reply; harness cost, bounds how much of req_per_s is the generator's; both serve"),
    layer("net.proxy.hit_ratio", "ratio", "higher", "NetProxy::counters hits/requests delta; moves req_per_s; >= 0.99 on serve-hit, run invalid outside [0.30, 0.60] on serve-mixed"),
    layer("net.proxy.upstream_per_req", "ratio", "lower", "(gets_sent + ims_sent) / requests delta; moves req_per_s; serve-mixed"),
    layer("net.proxy.inval_received", "count", "lower", "invalidations_received delta; moves failed share, req_per_s; serve-mixed"),
    layer("net.proxy.cached_entries", "count", "lower", "NetProxy::cached_entries at the end; moves peak_rss_mb; serve-mixed"),
    layer("net.proxy.dropped_connections", "count", "lower", "dropped_connections delta; moves failed; both serve"),
    layer("net.origin.invalidations", "count", "lower", "NetOrigin::snapshot invalidations delta; serve-mixed"),
    layer("net.origin.acks", "count", "higher", "snapshot acks delta; must equal invalidations once writes complete; serve-mixed"),
    layer("net.origin.notifies", "count", "higher", "snapshot notifies delta; the writes the origin processed; serve-mixed"),
    layer("bench.encode_us", "us", "lower", "client-side span around encode, mean per traced request; harness share of net.read_p50_us; both serve"),
    layer("bench.flush_us", "us", "lower", "client-side span around SendBuf::flush; harness + kernel send; both serve"),
    layer("bench.wait_us", "us", "lower", "flush end -> the read that brought the reply: the server's part of net.read_p50_us; both serve"),
    layer("bench.read_us", "us", "lower", "client-side span around RecvBuf::fill; harness + kernel receive; both serve"),
    layer("bench.decode_us", "us", "lower", "client-side span around decode_frame; harness; both serve"),
    layer("proto.encode_ns_per_msg", "ns", "lower", "kernel: encode over the workload's server-side wire corpus, weighted by message counts; moves cpu_us_per_req; serve-hit"),
    layer("proto.decode_ns_per_msg", "ns", "lower", "kernel: decode_frame over the same corpus; moves cpu_us_per_req; serve-hit"),
    layer("proto.bytes_per_req", "B", "lower", "wire bytes the server tier sends and receives per reply (corpus x counts); moves cpu_us_per_req; both serve"),
    layer("proto.decode_copy_share", "ratio", "lower", "to_owned time (only for messages the receiver retains) / (decode + to_owned); moves cpu_us_per_req; serve-mixed"),
    layer("reactor.buf_ns_per_msg", "ns", "lower", "kernel: RecvBuf push/consume + SendBuf push/flush per request/reply pair; moves cpu_us_per_req; serve-hit"),
    layer("reactor.wake_rtt_us", "us", "lower", "kernel: Waker -> Poller::wait round trip between two threads; x ctx_switches_per_req bounds net.read_p50_us; serve-hit"),
    layer("reactor.loopback_rtt_us", "us", "lower", "kernel: request/reply-sized raw echo through Poller + buffers, no protocol: the floor loopback sets under net.read_p50_us; serve-hit"),
    layer("net.fetch_hit_us", "us", "lower", "blocking NetProxy::fetch on a cached key, median; moves net.read_p50_us, req_per_s; serve-hit"),
    layer("net.fetch_miss_us", "us", "lower", "blocking NetProxy::fetch on a just-invalidated key, median; moves req_per_s, net.write_visible_p50_us; serve-mixed"),
    layer("net.origin_get_us", "us", "lower", "one GET straight to NetOrigin::addr on a keep-alive connection, median; moves net.fetch_miss_us; serve-mixed"),
    layer("net.ladder.r10k.p99_us", "us", "lower", "open loop at 10k req/s on serve-hit inputs, p99 from due time; informational"),
    layer("net.ladder.r20k.p99_us", "us", "lower", "open loop at 20k req/s, p99 from due time; informational"),
    layer("net.ladder.r40k.p99_us", "us", "lower", "open loop at 40k req/s, p99 from due time; informational"),
    layer("net.ladder.max_rate_ok", "1/s", "higher", "highest ladder rate with p99 <= 2 ms and no growing send backlog; informational"),
    layer("bench.ladder.late_share", "ratio", "lower", "ladder requests sent > 1 ms after they were due: how late the generator ran"),
    layer("bench.calib_factor", "ratio", "lower", "median host-speed factor of the timed units (1.0 = reference box, fast state); validity of every timed metric; all"),
    layer("bench.slice_iqr_pct.req_per_s", "%", "lower", "IQR / median of the per-slice (serve) or per-pass (sim) values of req_per_s; validity; all"),
    layer("bench.slice_iqr_pct.cpu_us_per_req", "%", "lower", "IQR / median of the per-slice or per-pass values of cpu_us_per_req; validity; all"),
    layer("bench.slice_iqr_pct.read_p50_us", "%", "lower", "IQR / median of the per-slice p50; validity; both serve"),
    layer("bench.trace_overhead_pct", "%", "lower", "ledger-on vs ledger-off units of the same traced run (alternating), on req_per_s; all"),
];

/// The driver's measuring time per run.
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, generated.
pub fn manifest_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    out.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics have bounds")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
