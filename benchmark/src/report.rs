//! Turns what a workload measured into named metrics, and in a traced run
//! adds the ledger: spans, counters, thread CPU and layer kernels.

use crate::kernels::{self, CacheTimes, CoreTimes, WireMsg};
use crate::ladder;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::serve::{self, ServeRun, ServeSpec, DOC_SIZE};
use crate::sim::{self, Bench, SimInputs, SimKind, SimRun};
use crate::stats::{self, ExactCounts};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions};
use wcc_proto::{
    encode, FrameReader, GetRequest, HttpMsg, HttpMsgRef, Reply, ReplyStatus, RequestId,
};
use wcc_types::{Body, ClientId, DocMeta, ServerId, SimTime, Url};

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    /// Context lines for the human-readable output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        self.values.insert(name, value);
    }

    /// Books one checked outcome; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The metrics of one list with their values; layer metrics a workload
    /// does not exercise read 0.
    pub fn listed<'a>(
        &'a self,
        list: &'a [Metric],
    ) -> impl Iterator<Item = (&'a Metric, f64)> + 'a {
        list.iter()
            .map(|m| (m, self.values.get(m.name).copied().unwrap_or(0.0)))
    }

    /// The result line the driver reads.
    pub fn result_json(&self, trace: bool) -> String {
        let list: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = self
            .listed(list)
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn pct_slower(baseline: f64, with: f64) -> f64 {
    if baseline > 0.0 {
        (with - baseline) / baseline * 100.0
    } else {
        0.0
    }
}

fn peak_rss(report: &mut Report, mib: Option<f64>) {
    match mib {
        Some(mib) => report.set("peak_rss_mb", mib),
        None => report
            .problems
            .push("VmHWM unavailable: /proc/self/status unreadable".into()),
    }
}

// ---------------------------------------------------------------- simulator

/// Per-pass matrices of one measure over full and ragged passes.
fn matrix(
    run: &SimRun,
    ledger: Option<bool>,
    f: impl Fn(&sim::UnitSample) -> f64,
) -> Vec<Vec<f64>> {
    run.passes
        .iter()
        .zip(&run.ledger)
        .filter(|(_, on)| ledger.is_none_or(|want| **on == want))
        .map(|(pass, _)| pass.iter().map(&f).collect())
        .collect()
}

pub fn sim_report(run: &SimRun, trace: bool) -> Report {
    let mut report = Report {
        attempted: run.checks.attempted,
        failed: run.checks.failed,
        problems: run.checks.notes.clone(),
        ..Report::default()
    };
    let units = run.unit_labels.len();
    let requests = run.requests as f64;
    let wall = matrix(run, None, |u| u.wall_norm());
    let have_cpu = run.passes.iter().flatten().all(|u| u.cpu_s.is_some());
    if !have_cpu {
        report
            .notes
            .push("schedstat unavailable: cpu_us_per_req falls back to wall time (single-threaded replay)".into());
    }
    let cpu = matrix(run, None, |u| {
        u.wall.normalise(u.cpu_s.unwrap_or(u.wall.raw_s))
    });
    let (Some(pass_s), Some(cpu_s)) = (
        stats::sum_of_unit_medians(&wall, units),
        stats::sum_of_unit_medians(&cpu, units),
    ) else {
        report.problems.push("no complete pass was measured".into());
        return report;
    };
    report.set("setup_s", median_or_zero(&run.setup_s));
    report.set("req_per_s", requests / pass_s);
    report.set("cpu_us_per_req", cpu_s / requests * 1e6);
    peak_rss(&mut report, run.peak_rss_mib);

    let full = |m: &[Vec<f64>]| -> Vec<f64> {
        m.iter()
            .filter(|p| p.len() == units)
            .map(|p| p.iter().sum())
            .collect()
    };
    let pass_rates: Vec<f64> = full(&wall).iter().map(|s| requests / s).collect();
    let pass_cpu: Vec<f64> = full(&cpu).iter().map(|s| s / requests * 1e6).collect();
    let factors: Vec<f64> = run
        .passes
        .iter()
        .flatten()
        .map(|u| u.wall.factor())
        .collect();
    report.set("bench.calib_factor", median_or_zero(&factors));
    report.set("bench.slice_iqr_pct.req_per_s", stats::iqr_pct(&pass_rates));
    report.set(
        "bench.slice_iqr_pct.cpu_us_per_req",
        stats::iqr_pct(&pass_cpu),
    );
    report.notes.push(format!(
        "{} passes x {units} units; raw (not speed-normalised) req_per_s {:.0}",
        run.passes.len(),
        stats::sum_of_unit_medians(&matrix(run, None, |u| u.wall.raw_s), units)
            .map_or(0.0, |s| requests / s)
    ));
    for (field, value) in run.counts.fields() {
        let name = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_prefix("replay.") == Some(field))
            .expect("every replay count is a declared layer metric");
        report.set(name, value as f64);
    }
    if trace {
        sim_ledger(run, &mut report);
    }
    report
}

/// The ledger of a simulator run. Shares divide normalised times by
/// normalised times; absolute layer times are as measured.
fn sim_ledger(run: &SimRun, report: &mut Report) {
    let units = run.unit_labels.len();
    let off = stats::sum_of_unit_medians(&matrix(run, Some(false), |u| u.wall_norm()), units);
    let on = stats::sum_of_unit_medians(&matrix(run, Some(true), |u| u.wall_norm()), units);
    if let (Some(off), Some(on)) = (off, on) {
        report.set("bench.trace_overhead_pct", pct_slower(off, on));
    }
    // Passes the clock cut short left no spans behind.
    let ledger_passes = run
        .passes
        .iter()
        .zip(&run.ledger)
        .filter(|(pass, on)| **on && pass.len() == units)
        .count()
        .max(1) as f64;
    let per_pass = |name: &str| run.spans.self_seconds(name) / ledger_passes;
    let generate = run.spans.self_seconds("traces.generate")
        / run.spans.count("traces.generate").max(1) as f64;
    report.set("traces.generate_s", generate);
    // feed-storm also builds once per set-up repetition; count those spans
    // at their own rate rather than per ledger pass.
    let builds = run.spans.count("httpsim.build").max(1) as f64;
    let build_s = match run.kind {
        SimKind::PaperGrid => per_pass("httpsim.build"),
        SimKind::FeedStorm => run.spans.self_seconds("httpsim.build") / builds,
    };
    report.set("httpsim.build_s", build_s);
    let run_s = per_pass("httpsim.run");
    report.set("httpsim.run_s", run_s);
    report.set("httpsim.collect_s", per_pass("httpsim.collect"));
    let events = run.alloc.map_or(0, |a| a.allocated);
    if let Some(alloc) = run.alloc {
        report.set("simnet.events", alloc.allocated as f64);
        report.set(
            "simnet.events_per_req",
            alloc.allocated as f64 / run.requests.max(1) as f64,
        );
        report.set("simnet.arena_recycled_pct", alloc.recycled_pct());
    }

    let mut bench = Bench::new();
    let overhead = kernels::timer_overhead_ns();
    // Queue kernel: a capped number of events, scaled to the run's count.
    let live = run.alloc.map_or(1_000, |a| a.peak_live.max(1));
    let (queue_ns, sample) =
        bench.time(|| kernels::queue_ns_per_event(events.clamp(1, 2_000_000), live));
    let queue_ns = sample.wall.normalise(queue_ns);
    report.set("simnet.queue_ns_per_event", queue_ns);

    // Core and cache kernels over every replay of one pass.
    let options = DeploymentOptions::default();
    let (core, sample) = bench.time(|| {
        let mut core = CoreTimes::default();
        match &run.inputs {
            SimInputs::Grid(blocks) => {
                for block in blocks {
                    for cfg in &block.configs {
                        core.merge(kernels::core_kernel(
                            &block.trace,
                            &block.mods,
                            &cfg.protocol,
                            &cfg.options,
                        ));
                    }
                }
            }
            SimInputs::Feed(workload) => {
                let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
                for (trace, mods) in &workload.workloads {
                    core.merge(kernels::core_kernel(trace, mods, &protocol, &options));
                }
            }
        }
        core
    });
    let core_factor = sample.wall.factor();
    let (cache, sample) = bench.time(|| {
        let mut cache = CacheTimes::default();
        for ops in &core.cache_ops {
            kernels::cache_kernel(ops, options.cache_capacity, options.replacement, &mut cache);
        }
        cache
    });
    let cache_factor = sample.wall.factor();
    report.set(
        "core.server_get_ns",
        core.server_get.ns_per_call(overhead) / core_factor,
    );
    report.set(
        "core.server_modify_ns",
        core.server_modify.ns_per_call(overhead) / core_factor,
    );
    let proxy_s = core.proxy_request.seconds(overhead) + core.proxy_other.seconds(overhead);
    report.set(
        "core.proxy_request_ns",
        proxy_s * 1e9 / core.proxy_request.calls.max(1) as f64 / core_factor,
    );
    report.set(
        "core.sitelist_peak_entries",
        core.sitelist_peak_entries as f64,
    );
    report.set(
        "cache.touch_ns",
        cache.touch.ns_per_call(overhead) / cache_factor,
    );
    report.set(
        "cache.insert_ns",
        cache.insert.ns_per_call(overhead) / cache_factor,
    );

    // Shares of the (normalised) run time of one pass.
    let run_factor = median_or_zero(
        &run.passes
            .iter()
            .zip(&run.ledger)
            .filter(|(_, on)| **on)
            .flat_map(|(p, _)| p.iter().map(|u| u.wall.factor()))
            .collect::<Vec<_>>(),
    )
    .max(f64::MIN_POSITIVE);
    let run_norm = run_s / run_factor;
    if run_norm > 0.0 {
        let cache_s = cache.seconds(overhead) / cache_factor;
        let core_s =
            (core.server_get.seconds(overhead) + core.server_modify.seconds(overhead) + proxy_s)
                / core_factor
                - cache_s;
        let queue_share = queue_ns * events as f64 / 1e9 / run_norm;
        let core_share = core_s.max(0.0) / run_norm;
        let cache_share = cache_s / run_norm;
        report.set("simnet.queue_share", queue_share);
        report.set("core.share", core_share);
        report.set("cache.share", cache_share);
        report.set(
            "httpsim.unattributed_share",
            1.0 - queue_share - core_share - cache_share,
        );
    }

    match &run.inputs {
        SimInputs::Grid(blocks) => {
            // Identical inputs under poll-every-time and invalidation are
            // already in the grid: compare those columns' unit medians.
            let wall = matrix(run, None, |u| u.wall_norm());
            let column = |kind: ProtocolKind| -> f64 {
                (0..units)
                    .filter(|u| run.unit_protocols[*u] == kind)
                    .filter_map(|u| stats::unit_median(&wall, u))
                    .sum()
            };
            let (poll, inval) = (
                column(ProtocolKind::PollEveryTime),
                column(ProtocolKind::Invalidation),
            );
            if inval > 0.0 {
                report.set("httpsim.inval_path_share", 1.0 - poll / inval);
            }
            if let Some(block) = blocks.first() {
                option_overheads(block, &mut bench, report);
            }
        }
        SimInputs::Feed(workload) => {
            let mut timed_run = |kind: ProtocolKind, shards: usize| {
                let mut deployment = sim::feed_deployment(workload, kind);
                let (raw, sample) = bench.time(|| {
                    if shards > 1 {
                        deployment.run_sharded(shards);
                    } else {
                        deployment.run();
                    }
                    deployment.collect()
                });
                (format!("{raw:?}"), sample.wall_norm())
            };
            let (reference, inval_s) = timed_run(ProtocolKind::Invalidation, 1);
            let (_, poll_s) = timed_run(ProtocolKind::PollEveryTime, 1);
            let (sharded, sharded_s) = timed_run(ProtocolKind::Invalidation, 2);
            report.set("httpsim.inval_path_share", 1.0 - poll_s / inval_s);
            report.set("simnet.shard2_speedup", inval_s / sharded_s);
            report.check(sharded == reference, || {
                "feed-storm: run_sharded(2) report differs from run()".into()
            });
        }
    }
}

/// `audit.overhead_pct` / `obs.trace_overhead_pct`: the option on vs off
/// over one grid block, interleaved, medians of five; the reports must not
/// change.
fn option_overheads(block: &sim::GridBlock, bench: &mut Bench, report: &mut Report) {
    const REPS: usize = 5;
    let mut timed = |options: &DeploymentOptions| -> (String, f64) {
        let mut raws = String::new();
        let ((), sample) = bench.time(|| {
            for cfg in &block.configs {
                let mut deployment =
                    Deployment::build(&block.trace, &block.mods, &cfg.protocol, options.clone());
                deployment.run();
                raws.push_str(&format!("{:?}", deployment.collect()));
            }
        });
        (raws, sample.wall_norm())
    };
    let plain = DeploymentOptions::default();
    let variants = [
        (
            "audit.overhead_pct",
            DeploymentOptions {
                audit: true,
                ..plain.clone()
            },
        ),
        (
            "obs.trace_overhead_pct",
            DeploymentOptions {
                trace: true,
                ..plain.clone()
            },
        ),
    ];
    for (name, with) in variants {
        let (mut off, mut on) = (Vec::new(), Vec::new());
        let mut identical = true;
        for _ in 0..REPS {
            let (reference, t_off) = timed(&plain);
            let (got, t_on) = timed(&with);
            identical &= got == reference;
            off.push(t_off);
            on.push(t_on);
        }
        report.set(name, pct_slower(median_or_zero(&off), median_or_zero(&on)));
        report.check(identical, || {
            format!("{name}: the option changed the replay's report")
        });
    }
}

// -------------------------------------------------------------------- serve

/// `q` of `n` samples in µs, or 0 when fewer than ten lie beyond it.
fn supported_tail(n: u64, q: f64, percentile: impl FnOnce(f64) -> Option<u32>) -> f64 {
    if stats::tail_supported(n as usize, q) {
        percentile(q).map_or(0.0, f64::from)
    } else {
        0.0
    }
}

pub fn serve_report(spec: &ServeSpec, seed: u64, run: &ServeRun, trace: bool) -> Report {
    let mut report = Report {
        attempted: run.reader_attempted + run.writes_attempted + run.write_probes,
        failed: run.failures.total(),
        ..Report::default()
    };
    if run.failures.total() > 0 {
        report.problems.push(format!("{:?}", run.failures));
    }
    let slices: Vec<&serve::Slice> = run
        .slices
        .iter()
        .filter(|s| !s.latencies.is_empty())
        .collect();
    if slices.len() < run.slices.len() || slices.is_empty() {
        report
            .problems
            .push("a timed slice completed no request".into());
        return report;
    }
    let per_slice =
        |f: &dyn Fn(&serve::Slice) -> f64| -> Vec<f64> { slices.iter().map(|s| f(s)).collect() };
    let rate = per_slice(&|s| s.replies() / s.wall.normalised_s());
    let raw_rate = per_slice(&|s| s.replies() / s.wall.raw_s);
    report.set("setup_s", median_or_zero(&run.setup_s));
    report.set("req_per_s", median_or_zero(&rate));
    peak_rss(&mut report, run.peak_rss_mib);
    let server_cpu: Option<Vec<f64>> = slices
        .iter()
        .map(|s| {
            let cpu = s.cpu?;
            let ns = cpu.origin.sched.on_cpu_ns + cpu.proxy.sched.on_cpu_ns;
            Some(s.wall.normalise(ns as f64 / 1e3) / s.replies())
        })
        .collect();
    match &server_cpu {
        Some(cpu) => report.set("cpu_us_per_req", median_or_zero(cpu)),
        None => report
            .problems
            .push("cpu_us_per_req unavailable: /proc/self/task/*/schedstat unreadable".into()),
    }

    // Read path: exact percentiles from raw samples.
    let p50 = per_slice(&|s| {
        s.wall
            .normalise(s.latencies.percentile(0.5).map_or(0.0, f64::from))
    });
    let mut all_reads = ExactCounts::default();
    for s in &slices {
        all_reads.merge(&s.latencies);
    }
    report.set("net.serve_req_per_s", median_or_zero(&raw_rate));
    report.set("net.read_p50_us", median_or_zero(&p50));
    report.set(
        "net.read_p99_us",
        supported_tail(all_reads.len(), 0.99, |q| all_reads.percentile(q)),
    );
    report.set(
        "net.read_p999_us",
        supported_tail(all_reads.len(), 0.999, |q| all_reads.percentile(q)),
    );
    report.set("net.read_samples", all_reads.len() as f64);
    let tail = stats::highest_tail(all_reads.len() as usize).map_or("none", |(label, _)| label);
    report.notes.push(format!(
        "{} timed slices of {:.2} s; {} reader thread(s), {} connection(s) in all, window {}; pinned: {}; highest supported read tail: {tail} of {} samples",
        slices.len(),
        run.slices[0].wall.raw_s,
        run.reader_threads,
        run.connections,
        serve::WINDOW,
        run.pinned,
        all_reads.len()
    ));
    // Write path.
    let visible_p50: Vec<f64> = slices
        .iter()
        .filter_map(|s| {
            Some(
                s.wall
                    .normalise(f64::from(stats::percentile(&s.visible, 0.5)?)),
            )
        })
        .collect();
    let mut all_writes: Vec<u32> = slices
        .iter()
        .flat_map(|s| s.visible.iter().copied())
        .collect();
    all_writes.sort_unstable();
    report.set("net.write_visible_p50_us", median_or_zero(&visible_p50));
    report.set(
        "net.write_visible_p99_us",
        supported_tail(all_writes.len() as u64, 0.99, |q| {
            stats::percentile(&all_writes, q)
        }),
    );
    report.set("net.write_samples", all_writes.len() as f64);

    // Counters over the timed phase (they include what ran between slices:
    // only the writer, a few requests a second).
    let (p0, p1) = (&run.proxy_before, &run.proxy_after);
    let (o0, o1) = (&run.origin_before, &run.origin_after);
    let requests = (p1.requests - p0.requests).max(1) as f64;
    let hit_ratio = (p1.hits - p0.hits) as f64 / requests;
    let upstream = (p1.gets_sent - p0.gets_sent + p1.ims_sent - p0.ims_sent) as f64;
    report.set("net.proxy.hit_ratio", hit_ratio);
    report.set("net.proxy.upstream_per_req", upstream / requests);
    report.set(
        "net.proxy.inval_received",
        (p1.invalidations_received - p0.invalidations_received) as f64,
    );
    report.set("net.proxy.cached_entries", run.cached_entries as f64);
    report.set(
        "net.proxy.dropped_connections",
        (p1.dropped_connections - p0.dropped_connections) as f64,
    );
    report.set(
        "net.origin.invalidations",
        (o1.invalidations - o0.invalidations) as f64,
    );
    report.set("net.origin.acks", (o1.acks - o0.acks) as f64);
    report.set("net.origin.notifies", (o1.notifies - o0.notifies) as f64);
    report.check(
        (spec.hit_ratio.0..=spec.hit_ratio.1).contains(&hit_ratio),
        || {
            format!(
                "net.proxy.hit_ratio {hit_ratio:.4} outside [{}, {}]: the workload drifted",
                spec.hit_ratio.0, spec.hit_ratio.1
            )
        },
    );
    report.check(p1.dropped_connections == p0.dropped_connections, || {
        "the proxy dropped client connections".into()
    });

    let factors = per_slice(&|s| s.wall.factor());
    report.set("bench.calib_factor", median_or_zero(&factors));
    report.set("bench.slice_iqr_pct.req_per_s", stats::iqr_pct(&rate));
    report.set("bench.slice_iqr_pct.read_p50_us", stats::iqr_pct(&p50));
    if let Some(cpu) = &server_cpu {
        report.set("bench.slice_iqr_pct.cpu_us_per_req", stats::iqr_pct(cpu));
    }
    if trace {
        serve_ledger(spec, seed, run, &slices, &mut report);
    }
    report
}

fn serve_ledger(
    spec: &ServeSpec,
    seed: u64,
    run: &ServeRun,
    slices: &[&serve::Slice],
    report: &mut Report,
) {
    // Thread-group counters per reply (as measured, not normalised),
    // median over slices.
    let per_reply = |f: &dyn Fn(&serve::Boundary) -> u64| -> f64 {
        median_or_zero(
            &slices
                .iter()
                .filter_map(|s| Some(f(&s.cpu?) as f64 / s.replies()))
                .collect::<Vec<_>>(),
        )
    };
    let proxy_cpu = per_reply(&|b| b.proxy.sched.on_cpu_ns) / 1e3;
    let origin_cpu = per_reply(&|b| b.origin.sched.on_cpu_ns) / 1e3;
    report.set("net.proxy.cpu_us_per_req", proxy_cpu);
    report.set(
        "net.proxy.runq_wait_us_per_req",
        per_reply(&|b| b.proxy.sched.runq_wait_ns) / 1e3,
    );
    report.set(
        "net.proxy.ctx_switches_per_req",
        per_reply(&|b| b.proxy.ctx_switches),
    );
    report.set("net.origin.cpu_us_per_req", origin_cpu);
    report.set(
        "net.origin.runq_wait_us_per_req",
        per_reply(&|b| b.origin.sched.runq_wait_ns) / 1e3,
    );
    if proxy_cpu + origin_cpu > 0.0 {
        report.set(
            "net.origin.cpu_share",
            origin_cpu / (proxy_cpu + origin_cpu),
        );
    }
    report.set(
        "bench.client.cpu_us_per_req",
        per_reply(&|b| b.client.sched.on_cpu_ns) / 1e3,
    );

    // Ledger-on vs ledger-off slices of this same run.
    let rate_of = |on: bool| -> f64 {
        median_or_zero(
            &slices
                .iter()
                .filter(|s| s.ledger == on)
                .map(|s| s.replies() / s.wall.normalised_s())
                .collect::<Vec<_>>(),
        )
    };
    let (off, on) = (rate_of(false), rate_of(true));
    if off > 0.0 && on > 0.0 {
        report.set("bench.trace_overhead_pct", (off - on) / off * 100.0);
    }
    // Client-side spans: mean duration per traced request.
    let traced = run.spans.count("bench.request").max(1) as f64;
    for (metric, span) in [
        ("bench.encode_us", "bench.encode"),
        ("bench.flush_us", "bench.flush"),
        ("bench.wait_us", "bench.wait"),
        ("bench.read_us", "bench.read"),
        ("bench.decode_us", "bench.decode"),
    ] {
        report.set(metric, run.spans.self_seconds(span) * 1e6 / traced);
    }

    // Codec kernel over what the server tier encodes and decodes.
    let (p0, p1) = (&run.proxy_before, &run.proxy_after);
    let requests = p1.requests - p0.requests;
    let misses = p1.gets_sent - p0.gets_sent + p1.ims_sent - p0.ims_sent;
    let invals = p1.invalidations_received - p0.invalidations_received;
    let notifies = run.origin_after.notifies - run.origin_before.notifies;
    let url = Url::new(ServerId::new(0), 1);
    let client = ClientId::from_raw(1);
    let get = HttpMsg::Get(GetRequest {
        req: RequestId::new(12_345),
        url,
        client,
        ims: None,
        issued_at: SimTime::from_secs(1),
        cache_hits: 0,
    });
    let reply = |scale: u64| {
        HttpMsg::Reply(Reply {
            req: RequestId::new(12_345),
            url,
            client,
            status: ReplyStatus::Ok(Body::synthetic(
                DocMeta::new(DOC_SIZE, SimTime::from_secs(10)),
                scale,
            )),
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        })
    };
    let wire = |msg: HttpMsg, encodes: u64, decodes: u64, retained: bool| WireMsg {
        msg,
        encodes,
        decodes,
        retained,
    };
    let corpus = [
        wire(get.clone(), 0, requests, false), // client -> proxy
        wire(reply(1), requests, 0, false),    // proxy -> client, full body
        wire(get, misses, misses, false),      // proxy -> origin
        wire(reply(serve::DOC_SCALE), misses, misses, true), // origin -> proxy, cached
        wire(HttpMsg::Invalidate { url, client }, invals, invals, false),
        wire(
            HttpMsg::InvalAck {
                url,
                client,
                cache_hits: 0,
            },
            invals,
            invals,
            false,
        ),
        wire(
            HttpMsg::Notify {
                url,
                at: SimTime::from_secs(10),
            },
            0,
            notifies,
            false,
        ),
    ];
    let proto = kernels::proto_kernel(&corpus);
    report.set("proto.encode_ns_per_msg", proto.encode_ns_per_msg);
    report.set("proto.decode_ns_per_msg", proto.decode_ns_per_msg);
    report.set("proto.decode_copy_share", proto.decode_copy_share);
    report.set("proto.bytes_per_req", proto.bytes / requests.max(1) as f64);

    let request_len = encode(&corpus[0].msg).len();
    let reply_len = encode(&corpus[1].msg).len();
    report.set(
        "reactor.buf_ns_per_msg",
        kernels::reactor_buf_ns_per_msg(request_len, reply_len),
    );
    match kernels::wake_rtt_us() {
        Ok(us) => report.set("reactor.wake_rtt_us", us),
        Err(e) => report
            .notes
            .push(format!("reactor.wake_rtt_us unavailable: {e}")),
    }
    match kernels::loopback_rtt_us(request_len, reply_len) {
        Ok(us) => report.set("reactor.loopback_rtt_us", us),
        Err(e) => report
            .notes
            .push(format!("reactor.loopback_rtt_us unavailable: {e}")),
    }

    // Cache kernel on the workload's key stream at the proxy's capacity.
    let overhead = kernels::timer_overhead_ns();
    let cache = kernels::serve_cache_kernel(spec, seed, 200_000);
    report.set("cache.touch_ns", cache.touch.ns_per_call(overhead));
    report.set("cache.insert_ns", cache.insert.ns_per_call(overhead));
    let per_req_us = cache.seconds(overhead) * 1e6 / cache.touch.calls.max(1) as f64;
    if proxy_cpu + origin_cpu > 0.0 {
        report.set("cache.share", per_req_us / (proxy_cpu + origin_cpu));
    }

    if let Err(e) = fetch_kernels(spec, run, report) {
        report.notes.push(format!("net.fetch_* unavailable: {e}"));
    }
    if spec.writes_per_s == 0 {
        let rates = [10_000, 20_000, 40_000];
        match ladder::run(
            spec,
            seed,
            run.pair.proxy.client_addr(),
            run.connections,
            &rates,
            Duration::from_secs(2),
        ) {
            Ok(steps) => {
                for (step, name) in steps.iter().zip([
                    "net.ladder.r10k.p99_us",
                    "net.ladder.r20k.p99_us",
                    "net.ladder.r40k.p99_us",
                ]) {
                    report.set(name, step.p99_us);
                    report.notes.push(format!(
                        "ladder {} req/s: sent {} replies {} p99 {:.0} us late {} backlog mid/end {}/{} -> {}",
                        step.rate,
                        step.sent,
                        step.replies,
                        step.p99_us,
                        step.late,
                        step.backlog_mid,
                        step.backlog_end,
                        if step.ok() { "ok" } else { "FAILED" }
                    ));
                }
                let best = steps
                    .iter()
                    .filter(|s| s.ok())
                    .map(|s| s.rate)
                    .max()
                    .unwrap_or(0);
                report.set("net.ladder.max_rate_ok", f64::from(best));
                let (late, sent): (u64, u64) = steps
                    .iter()
                    .fold((0, 0), |a, s| (a.0 + s.late, a.1 + s.sent));
                report.set("bench.ladder.late_share", late as f64 / sent.max(1) as f64);
            }
            Err(e) => report.notes.push(format!("net.ladder.* unavailable: {e}")),
        }
    }
}

/// `net.fetch_hit_us`, `net.fetch_miss_us`, `net.origin_get_us` on the
/// idle pair, medians of 300.
fn fetch_kernels(spec: &ServeSpec, run: &ServeRun, report: &mut Report) -> std::io::Result<()> {
    const ROUNDS: u64 = 300;
    let pair = &run.pair;
    // A key no reader uses, so the cache state the workload left is intact.
    let client = ClientId::from_raw(spec.clients + 1);
    let url = Url::new(ServerId::new(0), 0);
    let now = SimTime::from_secs(1);
    pair.proxy.fetch(client, url, now)?;
    let hits: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let clock = Instant::now();
            pair.proxy
                .fetch(client, url, now)
                .map(|_| clock.elapsed().as_nanos() as f64 / 1e3)
        })
        .collect::<Result<_, _>>()?;
    report.set("net.fetch_hit_us", median_or_zero(&hits));

    let mut misses = Vec::with_capacity(ROUNDS as usize);
    for k in 0..ROUNDS {
        // Far above any version the writer used.
        let at = SimTime::from_secs(1_000_000 + k);
        wcc_net::check_in(pair.origin.addr(), url, at)?;
        // The invalidation lands once every copy is acked.
        if !pair.origin.wait_writes_complete(Duration::from_secs(1)) {
            return Err(std::io::Error::other(
                "invalidation not acknowledged within 1 s",
            ));
        }
        let clock = Instant::now();
        let outcome = pair.proxy.fetch(client, url, now)?;
        if outcome.meta.last_modified() == at {
            misses.push(clock.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    if !misses.is_empty() {
        report.set("net.fetch_miss_us", median_or_zero(&misses));
    }

    let mut out = std::net::TcpStream::connect(pair.origin.addr())?;
    out.set_nodelay(true)?;
    out.set_read_timeout(Some(Duration::from_secs(1)))?;
    let mut frames = FrameReader::new(out.try_clone()?);
    let mut direct = Vec::with_capacity(ROUNDS as usize);
    for k in 0..ROUNDS {
        let get = HttpMsg::Get(GetRequest {
            req: RequestId::new(k),
            url,
            client: ClientId::from_raw(spec.clients + 2),
            ims: None,
            issued_at: now,
            cache_hits: 0,
        });
        let clock = Instant::now();
        std::io::Write::write_all(&mut out, &encode(&get))?;
        match frames.next_msg() {
            Ok(HttpMsgRef::Reply(_)) => direct.push(clock.elapsed().as_nanos() as f64 / 1e3),
            _ => return Err(std::io::Error::other("origin did not answer a direct GET")),
        }
    }
    report.set("net.origin_get_us", median_or_zero(&direct));
    Ok(())
}
