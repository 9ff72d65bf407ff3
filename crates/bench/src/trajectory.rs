//! The tracked bench trajectory: timing the replay engine release over
//! release.
//!
//! [`run`] times two fixed-seed workloads and emits a machine-readable
//! report (`BENCH_replay.json` at the repo root, written by the
//! `trajectory` binary and uploaded by CI):
//!
//! * **grid** — the full Tables 3 + 4 grid (six experiments × three
//!   protocols = 18 independent replays), once sequentially (`--jobs 1`)
//!   and once fanned out over the worker pool. The two passes must be
//!   byte-identical (`Debug`-string comparison, the same oracle as
//!   `tests/determinism.rs`); the report records both wall times and the
//!   speedup.
//! * **sharded** — the same grid with every replay running on the sharded
//!   engine (`--shards N`, at least 2): per-origin shards executing bounded
//!   time windows with cross-shard event exchange at barriers (see
//!   `wcc_simnet::ShardedSimulation`). The pass must be byte-identical to
//!   the sequential grid; the report records its wall time and speedup.
//!   Unlike the fan-out above (whole replays in parallel), this parallelises
//!   *inside* one replay, so it is the number to watch when a single huge
//!   experiment — not a grid — is the bottleneck.
//! * **inner loop** — the EPA invalidation replay on one thread, reported
//!   as requests per second. This isolates single-threaded engine
//!   throughput from fan-out, so hot-path work (hashing, allocation,
//!   message encoding) shows up here and thread-pool work shows up above.
//!   The workload is floored at the scale-2 replay (20 329 requests) even
//!   when the grid is scaled down further, so the arena's steady-state
//!   recycle ratio is measured on a run long enough for the slab's
//!   warm-up ramp and parked-timer footprint not to dominate it.
//! * **family** — one flash-crowd federation scenario
//!   (`FamilyConfig::city`, 64 origins sharing a client pool) replayed
//!   sequentially and on the 8-shard engine. The two passes must be
//!   byte-identical, and the report carries the deterministic state-memory
//!   model (`Deployment::memory_model`): peak trace-record + site-list
//!   bytes under the current layout versus the legacy AoS/merged-stream
//!   layout. The ≥30% reduction is host-independent, so [`check_against`]
//!   gates it everywhere; the `family_peak_rss_kb` field (VmHWM) is
//!   informational only.
//!
//! Since schema /7 the report also carries a **proposer** block: the PR 7
//! write storms (the flash-crowd federation above plus its breaking-news
//! sibling) replayed once under per-write invalidation fan-out and once
//! under the default batched proposer (`InvalBatchConfig::default()`,
//! count threshold 8). The block records the wire INVALIDATE traffic of
//! both passes, the coalesce ratio (intents per delivered entry) and the
//! write-completion tails; [`check_against`] gates a ≥30% message cut, a
//! coalesce ratio above 1 and a batched write-completion p99 no worse
//! than per-write — all off the simulation clock, so they reproduce on
//! any host. The batched flash-crowd replay also runs on the 8-shard
//! engine and must stay byte-identical to its sequential pass.
//!
//! Since schema /5 the report also carries an **alloc_stats** block: the
//! engine's event counters from the inner-loop replay (events allocated —
//! gated: no more than the baseline's — the arena's recycle rate, and the
//! busy-deferral vitals: runs parked, deliveries deferred, longest run)
//! and the zero-copy decode probe ([`wcc_proto::codec_sweep`] over
//! the inner trace re-expressed as wire traffic — the only owned copies
//! allowed are the retention copies where a `200` body enters a cache).
//! All of these are counts off the simulation clock, so the gates hold on
//! any host.
//!
//! The `BASELINE_*` constants are the same measurements taken at scale 1
//! immediately **before** this round of optimisation (default-hasher maps,
//! per-call `String` paths on the wire encoder, sequential-only harness) on
//! the reference dev container, and the `PRE_SHARD_*` constants repeat the
//! exercise immediately before the sharded-engine round (BinaryHeap event
//! queue, sequential engine only), so the JSON carries its own
//! before/after for both optimisation rounds. Baselines are only
//! comparable at `scale == 1` on similar hardware; `host_cores` is
//! recorded so a single-core runner's `speedup ≈ 1` is not mistaken for a
//! pool regression — on one core the sharded pass *cannot* win and is
//! instead gated on a cost ceiling over the sequential engine.
//!
//! This is the one module in the workspace allowed to read the wall clock
//! (`Instant::now`): it measures real elapsed time by design and feeds
//! nothing back into any simulation. `xtask lint` allowlists exactly this
//! file.

use std::fmt::Write as _;
use std::time::Instant;

use crate::{paper_experiments, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions, RawReport};
use wcc_replay::{run_batch, run_experiment_sharded, ExperimentConfig};
use wcc_traces::family::{self, FamilyConfig, WorkloadFamily};
use wcc_traces::TraceSpec;
use wcc_types::InvalBatchConfig;

/// Shard count of the family pass — the acceptance configuration for the
/// federation workloads ("replays byte-identically sequential vs 8 shards").
pub const FAMILY_SHARDS: usize = 8;

/// Wall time of the full Tables 3+4 grid, run sequentially, measured at
/// scale 1 on the reference container *before* the hot-path optimisation
/// round (milliseconds).
pub const BASELINE_GRID_SEQUENTIAL_MS: u64 = 2794;

/// Wall time of the inner-loop workload (full EPA invalidation replay)
/// before the optimisation round, same conditions (milliseconds).
pub const BASELINE_INNER_WALL_MS: u64 = 170;

/// Requests per second of the inner-loop workload before the optimisation
/// round (`40_658` requests / [`BASELINE_INNER_WALL_MS`]).
pub const BASELINE_INNER_REQUESTS_PER_SEC: u64 = 239_000;

/// Wall time of the full grid, run sequentially, measured at scale 1 on the
/// 1-core reference container immediately **before** the sharded-engine
/// round (BinaryHeap event queue, sequential engine only) — milliseconds.
pub const PRE_SHARD_GRID_SEQUENTIAL_MS: u64 = 2582;

/// Inner-loop wall time immediately before the sharded-engine round, same
/// conditions (milliseconds).
pub const PRE_SHARD_INNER_WALL_MS: u64 = 133;

/// Inner-loop throughput immediately before the sharded-engine round
/// (requests per second).
pub const PRE_SHARD_INNER_REQUESTS_PER_SEC: u64 = 305_699;

/// Wall time of the full grid, run sequentially, immediately **before**
/// the raw-speed round (heap-boxed events, per-event cross-shard
/// scheduling, owned-only wire decode) — measured at scale 20 on the
/// 1-core reference container, i.e. the committed `ci/bench-baseline.json`
/// of that round (milliseconds).
pub const PRE_RAW_GRID_SEQUENTIAL_MS: u64 = 330;

/// Inner-loop wall time immediately before the raw-speed round, re-measured
/// from that round's tree at the pinned inner workload (EPA invalidation,
/// scale 2, 20 329 requests) on the same container — median of five
/// runs (milliseconds).
pub const PRE_RAW_INNER_WALL_MS: u64 = 200;

/// Inner-loop throughput immediately before the raw-speed round (requests
/// per second, same pinned scale-2 workload).
pub const PRE_RAW_INNER_REQUESTS_PER_SEC: u64 = 101_645;

/// Simulated-time latency tails of one grid replay. These come from the
/// deterministic simulation clock, not the host wall clock, so they must
/// reproduce *exactly* across machines — the regression gate compares them
/// byte-for-byte.
#[derive(Debug, Clone)]
pub struct TailEntry {
    /// Trace name (`EPA`, `SASK`, ...).
    pub trace: String,
    /// Protocol name (`adaptive-ttl`, `poll-every-time`, `invalidation`).
    pub protocol: &'static str,
    /// Median request latency in simulated microseconds.
    pub p50_us: u64,
    /// 90th-percentile request latency in simulated microseconds.
    pub p90_us: u64,
    /// 99th-percentile request latency in simulated microseconds.
    pub p99_us: u64,
}

/// One trajectory measurement, ready to serialise.
#[derive(Debug, Clone)]
pub struct TrajectoryReport {
    /// Workload divisor the run used (baselines assume 1).
    pub scale: u64,
    /// Worker count of the parallel grid pass.
    pub jobs: usize,
    /// Cores the host reported (`available_parallelism`).
    pub host_cores: usize,
    /// Coarse identity of the measuring host (arch/OS/cores/CPU model).
    /// Timing baselines are only comparable between equal fingerprints;
    /// [`check_against`] downgrades the timing gates to informational when
    /// they differ.
    pub host_fingerprint: String,
    /// Replays in the grid (6 experiments × 3 protocols).
    pub grid_configs: usize,
    /// Grid wall time with `--jobs 1` (milliseconds).
    pub grid_sequential_ms: u64,
    /// Grid wall time fanned out over `jobs` workers (milliseconds).
    pub grid_parallel_ms: u64,
    /// `grid_sequential_ms / grid_parallel_ms`.
    pub speedup: f64,
    /// Whether the two grid passes produced byte-identical reports
    /// (`Debug`-string comparison). Anything but `true` is a bug.
    pub byte_identical: bool,
    /// Shard count of the sharded grid pass (always at least 2).
    pub shards: usize,
    /// Grid wall time with every replay on the sharded engine
    /// (milliseconds).
    pub sharded_grid_ms: u64,
    /// `grid_sequential_ms / sharded_grid_ms`.
    pub sharded_speedup: f64,
    /// Whether the sharded grid pass matched the sequential one
    /// byte-for-byte. Anything but `true` is a bug.
    pub sharded_byte_identical: bool,
    /// Requests replayed by the inner-loop workload.
    pub inner_requests: u64,
    /// Inner-loop wall time (milliseconds).
    pub inner_wall_ms: u64,
    /// Inner-loop throughput.
    pub inner_requests_per_sec: u64,
    /// Event-arena allocations during the inner-loop replay.
    pub events_allocated: u64,
    /// Of those, served from the arena's free list instead of the global
    /// allocator.
    pub events_recycled: u64,
    /// `events_recycled / events_allocated`, percent — `1 - peak_live /
    /// allocated`, so it *falls* when the engine needs fewer events for the
    /// same replay. Informational; [`check_against`] gates
    /// `events_allocated` instead.
    pub events_recycled_pct: f64,
    /// Peak in-flight events the arena held at once.
    pub events_peak_live: u64,
    /// `events_allocated / inner_requests`.
    pub events_per_request: f64,
    /// Backlog run events the engine parked for busy nodes.
    pub deferred_runs: u64,
    /// Deliveries that found their node busy.
    pub deferred_messages: u64,
    /// Most messages one parked run held.
    pub longest_deferred_run: u64,
    /// Messages pushed through the zero-copy decode probe
    /// ([`wcc_proto::codec_sweep`] over the inner trace as wire traffic).
    pub decode_messages: u64,
    /// Encoded bytes the probe decoded.
    pub decode_bytes: u64,
    /// Probe messages whose bulk data stayed borrowed in the buffer.
    pub decode_borrows: u64,
    /// Probe messages that needed an owning copy. Gated by
    /// [`check_against`] to equal `decode_retained` exactly: the only
    /// copies are retention copies.
    pub decode_copies: u64,
    /// Probe messages a cache retains past the buffer (`200` replies).
    pub decode_retained: u64,
    /// Per-config simulated latency tails of the sequential grid pass, in
    /// table order (deterministic — see [`TailEntry`]).
    pub tails: Vec<TailEntry>,
    /// Name of the family pass's scenario (`flash-crowd`).
    pub family_name: &'static str,
    /// Origins in the family federation (one trace each).
    pub family_origins: usize,
    /// Configured size of the federation's shared client pool.
    pub family_clients: u64,
    /// Requests replayed by the family pass.
    pub family_requests: u64,
    /// Shard count of the family pass's sharded replay ([`FAMILY_SHARDS`]).
    pub family_shards: usize,
    /// Wall time of both family replays (sequential + sharded) combined,
    /// milliseconds.
    pub family_wall_ms: u64,
    /// Family throughput: requests replayed across both passes
    /// (`2 × family_requests`) over [`family_wall_ms`]. Informational,
    /// like every derived quotient.
    pub family_requests_per_sec: u64,
    /// Whether the 8-shard family replay matched the sequential one
    /// byte-for-byte. Anything but `true` is a bug.
    pub family_byte_identical: bool,
    /// Peak simulation-state bytes (trace-record partitions + site lists)
    /// under the current memory-lean layout — deterministic, from
    /// `Deployment::memory_model`.
    pub family_state_bytes: u64,
    /// The same peak under the legacy layout (merged record stream +
    /// AoS site-list entries) — the refactor's "before" number.
    pub family_legacy_state_bytes: u64,
    /// `(legacy - current) / legacy`, percent. Host-independent; gated
    /// at ≥30 by [`check_against`].
    pub family_memory_reduction_pct: f64,
    /// Peak RSS of this process (`VmHWM`, kilobytes) after the family
    /// pass. Informational only: allocator- and host-dependent, `0` off
    /// Linux.
    pub family_peak_rss_kb: u64,
    /// Concurrent keep-alive connections the serving-tier pass drove
    /// against an in-process origin+proxy pair (schema /6).
    pub serve_connections: usize,
    /// Replies the serving-tier pass received and audited.
    pub serve_requests: u64,
    /// Connections the serving tier dropped mid-run. Gated at exactly 0
    /// on the current run by [`check_against`].
    pub serve_dropped: u64,
    /// Stale serves the client-side audit counted. Gated at exactly 0 on
    /// the current run — the paper's strong-consistency invariant, seen
    /// from the browser.
    pub serve_stale: u64,
    /// Median request latency over real sockets, host microseconds.
    pub serve_p50_us: u64,
    /// 90th-percentile serving latency, host microseconds.
    pub serve_p90_us: u64,
    /// 99th-percentile serving latency, host microseconds. Same-host
    /// baselines gate it within tolerance; foreign hosts informational.
    pub serve_p99_us: u64,
    /// 99.9th-percentile serving latency, host microseconds.
    pub serve_p999_us: u64,
    /// Wall time of the serving-tier pass, milliseconds.
    pub serve_wall_ms: u64,
    /// Serving throughput, replies per wall second. Informational.
    pub serve_requests_per_sec: u64,
    /// Count threshold of the batched proposer pass
    /// (`InvalBatchConfig::default().max_entries`, schema /7).
    pub proposer_batch_entries: usize,
    /// Wire INVALIDATE messages of the batched write-storm passes
    /// (flash-crowd + breaking-news; batch messages counted once).
    pub proposer_messages: u64,
    /// Wire INVALIDATE messages of the same storms under per-write
    /// fan-out — the counterfactual the reduction is judged against.
    pub proposer_per_write_messages: u64,
    /// `(per_write - batched) / per_write`, percent. Deterministic; gated
    /// at ≥30 by [`check_against`].
    pub proposer_reduction_pct: f64,
    /// Invalidation intents per delivered entry across both batched
    /// storms (`> 1` once repeated writes coalesce). Gated at > 1.
    pub proposer_coalesce_ratio: f64,
    /// Median write-completion time (first fan-out to last ack) of the
    /// batched passes, simulated microseconds.
    pub proposer_write_p50_us: u64,
    /// 99th-percentile write-completion time of the batched passes,
    /// simulated microseconds. Gated to be no worse than
    /// [`Self::proposer_per_write_p99_us`].
    pub proposer_write_p99_us: u64,
    /// 99th-percentile write-completion time of the per-write passes,
    /// simulated microseconds.
    pub proposer_per_write_p99_us: u64,
    /// Whether the batched flash-crowd replay matched its 8-shard run
    /// byte-for-byte. Anything but `true` is a bug.
    pub proposer_byte_identical: bool,
    /// Wall time of all proposer-pass replays combined, milliseconds.
    pub proposer_wall_ms: u64,
}

/// The 18-config Tables 3+4 grid at `scale`, in table order.
pub fn grid_configs(scale: u64) -> Vec<ExperimentConfig> {
    paper_experiments()
        .into_iter()
        .flat_map(|(spec, lifetime, _)| {
            ProtocolKind::PAPER_TRIO.map(|kind| {
                ExperimentConfig::builder(spec.clone().scaled_down(scale))
                    .protocol_config(ProtocolConfig::new(kind))
                    .mean_lifetime(lifetime)
                    .seed(TABLE_SEED)
                    .build()
            })
        })
        .collect()
}

/// Unique per-experiment row labels for the grid, in table order: the
/// trace names, with the two SDSC lifetime variants disambiguated by the
/// paper's modification counts (`SDSC(57)`, `SDSC(576)`).
///
/// The labels come from [`paper_experiments`]' fixed counts, not from the
/// scaled spec, so reduced-scale CI runs and the committed full-scale
/// baseline emit identical `latency_tails` keys. Before schema /5 the
/// tails reused the bare trace name, so the two SDSC experiments produced
/// six rows under five distinct keys — ambiguous for any by-key consumer;
/// [`run`] now asserts the `(trace, protocol)` keys are unique.
pub fn grid_trace_labels() -> Vec<String> {
    paper_experiments()
        .iter()
        .map(|(spec, _, paper_mods)| {
            if spec.name == "SDSC" {
                format!("SDSC({paper_mods})")
            } else {
                spec.name.to_string()
            }
        })
        .collect()
}

/// A coarse identifier of the measuring host: architecture, OS, core count
/// and CPU model, e.g. `x86_64/linux/8c/AMD EPYC 7B13`.
///
/// Wall-clock baselines taken on one machine say nothing about another, so
/// the report records where it was measured and [`check_against`] only
/// enforces the timing gates when the fingerprints agree (the deterministic
/// fields are gated regardless — they must reproduce everywhere).
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = cpu_model().unwrap_or_else(|| "unknown-cpu".to_string());
    format!(
        "{}/{}/{}c/{}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        cores,
        model
    )
}

/// First `model name` from `/proc/cpuinfo`, sanitised so the fingerprint
/// embeds into the JSON report without escaping. `None` off Linux.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    let (_, model) = line.split_once(':')?;
    let clean: String = model
        .trim()
        .chars()
        .map(|c| if c == '"' || c == '\\' { '_' } else { c })
        .collect();
    if clean.is_empty() {
        None
    } else {
        Some(clean)
    }
}

/// Peak resident-set size of this process so far (`VmHWM` from
/// `/proc/self/status`), in kilobytes. Informational only — it depends on
/// the allocator and everything the process ran before — and `0` off
/// Linux.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn millis(elapsed: std::time::Duration) -> u64 {
    // Round up so a sub-millisecond run never reports 0 (and never divides
    // by zero downstream).
    elapsed.as_millis().max(1) as u64
}

/// Runs the trajectory workloads and returns the measurements.
///
/// `jobs` follows the usual resolution ([`wcc_replay::effective_jobs`]):
/// explicit value, else `WCC_JOBS`, else the core count. `shards` is the
/// already-resolved shard count of the sharded pass (see
/// [`crate::resolve_trajectory_shards`]); a count of 1 — the `--shards
/// auto` resolution on a 1-core host — re-measures the sequential engine
/// through the sharded entry point instead of paying the barrier tax for
/// parallelism the host cannot deliver.
pub fn run(scale: u64, jobs: Option<usize>, shards: usize) -> TrajectoryReport {
    let jobs = wcc_replay::effective_jobs(jobs);
    let shards = shards.max(1);
    let configs = grid_configs(scale);

    let start = Instant::now();
    let sequential = run_batch(&configs, Some(1));
    let grid_sequential_ms = millis(start.elapsed());

    let start = Instant::now();
    let parallel = run_batch(&configs, Some(jobs));
    let grid_parallel_ms = millis(start.elapsed());

    let byte_identical = sequential.len() == parallel.len()
        && sequential
            .iter()
            .zip(&parallel)
            .all(|(s, p)| format!("{s:?}") == format!("{p:?}"));

    // Sharded pass: the same grid, one replay at a time, each running on
    // the sharded engine. Kept sequential at the batch level so the wall
    // time isolates engine-sharding from the fan-out pool.
    let start = Instant::now();
    let sharded: Vec<_> = configs
        .iter()
        .map(|cfg| run_experiment_sharded(cfg, shards))
        .collect();
    let sharded_grid_ms = millis(start.elapsed());
    let sharded_byte_identical = sequential.len() == sharded.len()
        && sequential
            .iter()
            .zip(&sharded)
            .all(|(s, p)| format!("{s:?}") == format!("{p:?}"));

    let us = |d: Option<wcc_types::SimDuration>| d.map_or(0, |d| d.as_micros());
    let labels = grid_trace_labels();
    let per_trio = ProtocolKind::PAPER_TRIO.len();
    let tails: Vec<TailEntry> = sequential
        .iter()
        .enumerate()
        .map(|(i, r)| TailEntry {
            trace: labels[i / per_trio].clone(),
            protocol: r.protocol.name(),
            p50_us: us(r.raw.latency.median()),
            p90_us: us(r.raw.latency.p90()),
            p99_us: us(r.raw.latency.p99()),
        })
        .collect();
    let mut tail_keys = std::collections::BTreeSet::new();
    for t in &tails {
        assert!(
            tail_keys.insert((t.trace.clone(), t.protocol)),
            "duplicate latency_tails row {}/{}",
            t.trace,
            t.protocol
        );
    }

    // Inner loop: one full EPA invalidation replay on the calling thread,
    // timed end-to-end like `run_experiment` (materialisation included)
    // and then mined for the engine arena's allocation counters. The
    // workload is floored at the scale-2 replay (20 329 requests) no
    // matter how far the grid is scaled down: the recycle ratio is
    // `1 - peak_live / allocated`, and peak_live is dominated by
    // long-pending TTL timers parked in the overflow heap, so a tiny
    // workload would let that footprint dominate the denominator and make
    // the ≥95% steady-state gate unmeetable for structural, not
    // regression, reasons. All of these counters come off the simulation
    // clock and are byte-deterministic, so the measured ratio carries no
    // host noise.
    let inner_scale = scale.min(2);
    let inner_cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(inner_scale))
        .protocol(ProtocolKind::Invalidation)
        .seed(TABLE_SEED)
        .build();
    let start = Instant::now();
    let (inner_trace, inner_mods) = wcc_replay::materialise(&inner_cfg);
    let mut inner_dep = Deployment::build(
        &inner_trace,
        &inner_mods,
        &inner_cfg.protocol,
        inner_cfg.options.clone(),
    );
    inner_dep.run();
    let inner_raw = inner_dep.collect();
    let inner_wall_ms = millis(start.elapsed());
    let alloc = inner_dep.alloc_stats();
    let deferred = inner_dep.defer_stats();

    // Decode probe: the inner trace re-expressed as wire traffic — one GET
    // per record, answered with a 200 on the first touch of each document
    // (the retention copy into a cache) and a 304 thereafter.
    let mut corpus = Vec::with_capacity(inner_trace.records.len() * 2);
    let mut first_touch = vec![true; inner_trace.doc_count()];
    for (i, rec) in inner_trace.records.iter().enumerate() {
        let req = wcc_proto::RequestId::new(i as u64);
        corpus.push(wcc_proto::HttpMsg::Get(wcc_proto::GetRequest {
            req,
            url: rec.url,
            client: rec.client,
            ims: None,
            issued_at: rec.at,
            cache_hits: 0,
        }));
        let doc = rec.url.doc();
        let status = if std::mem::take(&mut first_touch[doc as usize]) {
            let meta = wcc_types::DocMeta::new(inner_trace.doc_size(doc), wcc_types::SimTime::ZERO);
            wcc_proto::ReplyStatus::Ok(wcc_types::Body::synthetic(meta, 100))
        } else {
            wcc_proto::ReplyStatus::NotModified
        };
        corpus.push(wcc_proto::HttpMsg::Reply(wcc_proto::Reply {
            req,
            url: rec.url,
            client: rec.client,
            status,
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        }));
    }
    let codec = wcc_proto::codec_sweep(&corpus);

    // Family pass: one flash-crowd federation (64 origins, shared client
    // pool), replayed sequentially and on the 8-shard engine, compared
    // with the same Debug-string oracle as the grids. The state-bytes
    // pair comes from the deterministic memory model, not the host
    // allocator, so the reduction gate reproduces everywhere.
    let family_cfg = FamilyConfig::city(WorkloadFamily::FlashCrowd).scaled_down(scale);
    let family_workload = family::generate(&family_cfg, TABLE_SEED);
    let family_protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let start = Instant::now();
    let mut fam_seq = Deployment::build_multi(
        &family_workload.workloads,
        &family_protocol,
        DeploymentOptions::default(),
    );
    fam_seq.run();
    let fam_seq_report = fam_seq.collect();
    let mut fam_shd = Deployment::build_multi(
        &family_workload.workloads,
        &family_protocol,
        DeploymentOptions::default(),
    );
    fam_shd.run_sharded(FAMILY_SHARDS);
    let fam_shd_report = fam_shd.collect();
    let family_wall_ms = millis(start.elapsed());
    let family_byte_identical = format!("{fam_seq_report:?}") == format!("{fam_shd_report:?}");
    let family_memory = fam_seq.memory_model();

    // Proposer pass (schema /7): the PR 7 write storms — the flash-crowd
    // federation above plus its breaking-news sibling — once under
    // per-write fan-out and once under the default batched proposer. The
    // flash-crowd per-write leg reuses the family pass's sequential report
    // (same workload, same options), and the batched flash-crowd replay
    // runs both sequentially and on the 8-shard engine so the batched
    // write-completion path is pinned byte-identical under sharding.
    // Message counts, coalesce ratio and write-completion tails all come
    // off the simulation clock, so the gates reproduce on any host.
    let batch_cfg = InvalBatchConfig::default();
    let batched_options = DeploymentOptions {
        inval_batch: Some(batch_cfg),
        ..DeploymentOptions::default()
    };
    let wire_invalidations = |r: &RawReport| {
        r.origin_counters.invalidations_sent - r.origin_counters.batched_entries
            + r.origin_counters.inval_batches
    };
    let bn_cfg = FamilyConfig::city(WorkloadFamily::BreakingNews).scaled_down(scale);
    let bn_workload = family::generate(&bn_cfg, TABLE_SEED);
    let start = Instant::now();
    let mut bn_pw = Deployment::build_multi(
        &bn_workload.workloads,
        &family_protocol,
        DeploymentOptions::default(),
    );
    bn_pw.run();
    let bn_pw_report = bn_pw.collect();
    let mut fc_batched = Deployment::build_multi(
        &family_workload.workloads,
        &family_protocol,
        batched_options.clone(),
    );
    fc_batched.run();
    let fc_batched_report = fc_batched.collect();
    let mut fc_batched_shd = Deployment::build_multi(
        &family_workload.workloads,
        &family_protocol,
        batched_options.clone(),
    );
    fc_batched_shd.run_sharded(FAMILY_SHARDS);
    let fc_batched_shd_report = fc_batched_shd.collect();
    let mut bn_batched =
        Deployment::build_multi(&bn_workload.workloads, &family_protocol, batched_options);
    bn_batched.run();
    let bn_batched_report = bn_batched.collect();
    let proposer_wall_ms = millis(start.elapsed());
    let proposer_byte_identical =
        format!("{fc_batched_report:?}") == format!("{fc_batched_shd_report:?}");

    let proposer_per_write_messages =
        wire_invalidations(&fam_seq_report) + wire_invalidations(&bn_pw_report);
    let proposer_messages =
        wire_invalidations(&fc_batched_report) + wire_invalidations(&bn_batched_report);
    let proposer_reduction_pct = if proposer_per_write_messages == 0 {
        0.0
    } else {
        (1.0 - proposer_messages as f64 / proposer_per_write_messages as f64) * 100.0
    };
    let (mut enqueued, mut flushed) = (0u64, 0u64);
    for r in [&fc_batched_report, &bn_batched_report] {
        if let Some(p) = r.proposer {
            enqueued += p.enqueued;
            flushed += p.flushed_entries;
        }
    }
    let proposer_coalesce_ratio = if flushed == 0 {
        1.0
    } else {
        enqueued as f64 / flushed as f64
    };
    let mut batched_writes = fc_batched_report.write_completion.clone();
    batched_writes.merge(&bn_batched_report.write_completion);
    let mut per_write_writes = fam_seq_report.write_completion.clone();
    per_write_writes.merge(&bn_pw_report.write_completion);

    // Serving-tier pass (schema /6): the readiness-reactor origin+proxy
    // pair under a few thousand keep-alive connections, in-process so the
    // pass needs no child binaries. The floor of 64 keeps reduced-scale
    // CI runs meaningful; full scale drives 2048. The dropped/stale gates
    // are judged on the current run alone (host-independent); the latency
    // tail follows the usual same-host timing rule.
    let serve_cfg = crate::serve::ServeBenchConfig {
        connections: (2048 / scale.max(1)).max(64) as usize,
        requests_per_conn: 8,
        docs: 64,
        protocol: ProtocolConfig::new(ProtocolKind::Invalidation),
        soak_secs: None,
        restart: false,
        exe: None,
    };
    let serve = crate::serve::run(&serve_cfg).expect("serving-tier bench pass");
    let q = |v: Option<u64>| v.unwrap_or(0);

    TrajectoryReport {
        scale,
        jobs,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        host_fingerprint: host_fingerprint(),
        grid_configs: configs.len(),
        grid_sequential_ms,
        grid_parallel_ms,
        speedup: grid_sequential_ms as f64 / grid_parallel_ms as f64,
        byte_identical,
        shards,
        sharded_grid_ms,
        sharded_speedup: grid_sequential_ms as f64 / sharded_grid_ms as f64,
        sharded_byte_identical,
        inner_requests: inner_raw.requests,
        inner_wall_ms,
        inner_requests_per_sec: inner_raw.requests * 1000 / inner_wall_ms,
        events_allocated: alloc.allocated,
        events_recycled: alloc.recycled,
        events_recycled_pct: alloc.recycled_pct(),
        events_peak_live: alloc.peak_live,
        events_per_request: alloc.allocated as f64 / inner_raw.requests.max(1) as f64,
        deferred_runs: deferred.runs,
        deferred_messages: deferred.messages,
        longest_deferred_run: deferred.longest_run,
        decode_messages: codec.messages,
        decode_bytes: codec.bytes,
        decode_borrows: codec.borrows,
        decode_copies: codec.copies,
        decode_retained: codec.retained,
        tails,
        family_name: family_cfg.family.name(),
        family_origins: family_workload.workloads.len(),
        family_clients: u64::from(family_cfg.spec.num_clients),
        family_requests: family_workload.total_requests(),
        family_shards: FAMILY_SHARDS,
        family_wall_ms,
        family_requests_per_sec: family_workload.total_requests() * 2 * 1000 / family_wall_ms,
        family_byte_identical,
        family_state_bytes: family_memory.peak_bytes(),
        family_legacy_state_bytes: family_memory.legacy_peak_bytes(),
        family_memory_reduction_pct: family_memory.reduction_pct(),
        family_peak_rss_kb: peak_rss_kb(),
        serve_connections: serve.connections,
        serve_requests: serve.requests,
        serve_dropped: serve.dropped,
        serve_stale: serve.stale,
        serve_p50_us: q(serve.latency.p50()),
        serve_p90_us: q(serve.latency.p90()),
        serve_p99_us: q(serve.latency.p99()),
        serve_p999_us: q(serve.latency.p999()),
        serve_wall_ms: serve.wall_ms,
        serve_requests_per_sec: serve.requests_per_sec() as u64,
        proposer_batch_entries: batch_cfg.max_entries,
        proposer_messages,
        proposer_per_write_messages,
        proposer_reduction_pct,
        proposer_coalesce_ratio,
        proposer_write_p50_us: us(batched_writes.median()),
        proposer_write_p99_us: us(batched_writes.p99()),
        proposer_per_write_p99_us: us(per_write_writes.p99()),
        proposer_byte_identical,
        proposer_wall_ms,
    }
}

impl TrajectoryReport {
    /// Serialises the report (plus the embedded baselines) as JSON.
    ///
    /// Hand-rolled — the workspace carries no serde — but stable: keys are
    /// emitted in a fixed order so diffs between releases are meaningful.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"wcc-bench-trajectory/7\",\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        out.push_str(&format!(
            "  \"host_fingerprint\": \"{}\",\n",
            self.host_fingerprint
        ));
        out.push_str("  \"grid\": {\n");
        out.push_str(&format!("    \"configs\": {},\n", self.grid_configs));
        out.push_str(&format!(
            "    \"sequential_ms\": {},\n",
            self.grid_sequential_ms
        ));
        out.push_str(&format!(
            "    \"parallel_ms\": {},\n",
            self.grid_parallel_ms
        ));
        out.push_str(&format!("    \"speedup\": {:.3},\n", self.speedup));
        out.push_str(&format!(
            "    \"byte_identical\": {}\n",
            self.byte_identical
        ));
        out.push_str("  },\n");
        // Key names stay unique document-wide ("sharded_ms", not a second
        // "wall_ms") so the linear key scan in `json_number` stays
        // unambiguous.
        out.push_str("  \"sharded\": {\n");
        out.push_str(&format!("    \"shards\": {},\n", self.shards));
        out.push_str(&format!("    \"sharded_ms\": {},\n", self.sharded_grid_ms));
        out.push_str(&format!(
            "    \"sharded_speedup\": {:.3},\n",
            self.sharded_speedup
        ));
        out.push_str(&format!(
            "    \"sharded_byte_identical\": {}\n",
            self.sharded_byte_identical
        ));
        out.push_str("  },\n");
        out.push_str("  \"inner_loop\": {\n");
        out.push_str("    \"workload\": \"EPA invalidation replay\",\n");
        out.push_str(&format!("    \"requests\": {},\n", self.inner_requests));
        out.push_str(&format!("    \"wall_ms\": {},\n", self.inner_wall_ms));
        out.push_str(&format!(
            "    \"requests_per_sec\": {}\n",
            self.inner_requests_per_sec
        ));
        out.push_str("  },\n");
        // Arena + decode counters (schema /5). Key names stay unique
        // document-wide, like every block's.
        out.push_str("  \"alloc_stats\": {\n");
        out.push_str(&format!(
            "    \"events_allocated\": {},\n",
            self.events_allocated
        ));
        out.push_str(&format!(
            "    \"events_recycled\": {},\n",
            self.events_recycled
        ));
        out.push_str(&format!(
            "    \"events_recycled_pct\": {:.1},\n",
            self.events_recycled_pct
        ));
        out.push_str(&format!(
            "    \"events_peak_live\": {},\n",
            self.events_peak_live
        ));
        out.push_str(&format!(
            "    \"events_per_request\": {:.2},\n",
            self.events_per_request
        ));
        out.push_str(&format!("    \"deferred_runs\": {},\n", self.deferred_runs));
        out.push_str(&format!(
            "    \"deferred_messages\": {},\n",
            self.deferred_messages
        ));
        out.push_str(&format!(
            "    \"longest_deferred_run\": {},\n",
            self.longest_deferred_run
        ));
        out.push_str(&format!(
            "    \"decode_messages\": {},\n",
            self.decode_messages
        ));
        out.push_str(&format!("    \"decode_bytes\": {},\n", self.decode_bytes));
        out.push_str(&format!(
            "    \"decode_borrows\": {},\n",
            self.decode_borrows
        ));
        out.push_str(&format!("    \"decode_copies\": {},\n", self.decode_copies));
        out.push_str(&format!(
            "    \"decode_retained\": {}\n",
            self.decode_retained
        ));
        out.push_str("  },\n");
        // Every family key carries the "family_" prefix so the linear
        // key scans stay unambiguous against the grid blocks.
        out.push_str("  \"family\": {\n");
        out.push_str(&format!("    \"family_name\": \"{}\",\n", self.family_name));
        out.push_str(&format!(
            "    \"family_origins\": {},\n",
            self.family_origins
        ));
        out.push_str(&format!(
            "    \"family_clients\": {},\n",
            self.family_clients
        ));
        out.push_str(&format!(
            "    \"family_requests\": {},\n",
            self.family_requests
        ));
        out.push_str(&format!("    \"family_shards\": {},\n", self.family_shards));
        out.push_str(&format!(
            "    \"family_wall_ms\": {},\n",
            self.family_wall_ms
        ));
        out.push_str(&format!(
            "    \"family_requests_per_sec\": {},\n",
            self.family_requests_per_sec
        ));
        out.push_str(&format!(
            "    \"family_byte_identical\": {},\n",
            self.family_byte_identical
        ));
        out.push_str(&format!(
            "    \"family_state_bytes\": {},\n",
            self.family_state_bytes
        ));
        out.push_str(&format!(
            "    \"family_legacy_state_bytes\": {},\n",
            self.family_legacy_state_bytes
        ));
        out.push_str(&format!(
            "    \"family_memory_reduction_pct\": {:.1},\n",
            self.family_memory_reduction_pct
        ));
        out.push_str(&format!(
            "    \"family_peak_rss_kb\": {}\n",
            self.family_peak_rss_kb
        ));
        out.push_str("  },\n");
        // Serving-tier block (schema /6). Every key carries the "serve_"
        // prefix so the linear key scans stay unambiguous.
        out.push_str("  \"serve\": {\n");
        out.push_str(&format!(
            "    \"serve_connections\": {},\n",
            self.serve_connections
        ));
        out.push_str(&format!(
            "    \"serve_requests\": {},\n",
            self.serve_requests
        ));
        out.push_str(&format!("    \"serve_dropped\": {},\n", self.serve_dropped));
        out.push_str(&format!("    \"serve_stale\": {},\n", self.serve_stale));
        out.push_str(&format!("    \"serve_p50_us\": {},\n", self.serve_p50_us));
        out.push_str(&format!("    \"serve_p90_us\": {},\n", self.serve_p90_us));
        out.push_str(&format!("    \"serve_p99_us\": {},\n", self.serve_p99_us));
        out.push_str(&format!("    \"serve_p999_us\": {},\n", self.serve_p999_us));
        out.push_str(&format!("    \"serve_wall_ms\": {},\n", self.serve_wall_ms));
        out.push_str(&format!(
            "    \"serve_requests_per_sec\": {}\n",
            self.serve_requests_per_sec
        ));
        out.push_str("  },\n");
        // Batched-proposer block (schema /7). Every key carries the
        // "proposer_" prefix so the linear key scans stay unambiguous.
        out.push_str("  \"proposer\": {\n");
        out.push_str(&format!(
            "    \"proposer_batch_entries\": {},\n",
            self.proposer_batch_entries
        ));
        out.push_str(&format!(
            "    \"proposer_messages\": {},\n",
            self.proposer_messages
        ));
        out.push_str(&format!(
            "    \"proposer_per_write_messages\": {},\n",
            self.proposer_per_write_messages
        ));
        out.push_str(&format!(
            "    \"proposer_reduction_pct\": {:.1},\n",
            self.proposer_reduction_pct
        ));
        out.push_str(&format!(
            "    \"proposer_coalesce_ratio\": {:.3},\n",
            self.proposer_coalesce_ratio
        ));
        out.push_str(&format!(
            "    \"proposer_write_p50_us\": {},\n",
            self.proposer_write_p50_us
        ));
        out.push_str(&format!(
            "    \"proposer_write_p99_us\": {},\n",
            self.proposer_write_p99_us
        ));
        out.push_str(&format!(
            "    \"proposer_per_write_p99_us\": {},\n",
            self.proposer_per_write_p99_us
        ));
        out.push_str(&format!(
            "    \"proposer_byte_identical\": {},\n",
            self.proposer_byte_identical
        ));
        out.push_str(&format!(
            "    \"proposer_wall_ms\": {}\n",
            self.proposer_wall_ms
        ));
        out.push_str("  },\n");
        out.push_str("  \"latency_tails\": [\n");
        for (i, t) in self.tails.iter().enumerate() {
            let comma = if i + 1 == self.tails.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"trace\": \"{}\", \"protocol\": \"{}\", \
                 \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {} }}{comma}\n",
                t.trace, t.protocol, t.p50_us, t.p90_us, t.p99_us
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"baseline\": {\n");
        out.push_str(
            "    \"note\": \"pre-optimisation, scale 1, sequential harness, reference container\",\n",
        );
        out.push_str(&format!(
            "    \"grid_sequential_ms\": {},\n",
            BASELINE_GRID_SEQUENTIAL_MS
        ));
        out.push_str(&format!(
            "    \"inner_wall_ms\": {},\n",
            BASELINE_INNER_WALL_MS
        ));
        out.push_str(&format!(
            "    \"inner_requests_per_sec\": {}\n",
            BASELINE_INNER_REQUESTS_PER_SEC
        ));
        out.push_str("  },\n");
        out.push_str("  \"pre_shard\": {\n");
        out.push_str(
            "    \"note\": \"immediately before the sharded-engine round, scale 1, \
             sequential engine, 1-core reference container\",\n",
        );
        out.push_str(&format!(
            "    \"pre_shard_grid_ms\": {},\n",
            PRE_SHARD_GRID_SEQUENTIAL_MS
        ));
        out.push_str(&format!(
            "    \"pre_shard_inner_ms\": {},\n",
            PRE_SHARD_INNER_WALL_MS
        ));
        out.push_str(&format!(
            "    \"pre_shard_inner_rps\": {}\n",
            PRE_SHARD_INNER_REQUESTS_PER_SEC
        ));
        out.push_str("  },\n");
        out.push_str("  \"pre_raw\": {\n");
        out.push_str(
            "    \"note\": \"immediately before the raw-speed round (arena events, \
             batched windows, zero-copy decode), 1-core reference container; grid at \
             scale 20, inner loop at its pinned scale-2 workload\",\n",
        );
        out.push_str(&format!(
            "    \"pre_raw_grid_ms\": {},\n",
            PRE_RAW_GRID_SEQUENTIAL_MS
        ));
        out.push_str(&format!(
            "    \"pre_raw_inner_ms\": {},\n",
            PRE_RAW_INNER_WALL_MS
        ));
        out.push_str(&format!(
            "    \"pre_raw_inner_rps\": {}\n",
            PRE_RAW_INNER_REQUESTS_PER_SEC
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Extracts the first number stored under `"key":` in a report JSON.
///
/// The workspace carries no serde, and [`TrajectoryReport::to_json`] emits
/// keys in a fixed order with unique quoted names, so a linear scan is both
/// sufficient and stable. Returns `None` when the key is absent.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first string stored under `"key":` in a report JSON.
///
/// Same linear-scan contract as [`json_number`]; the values the report
/// emits are pre-sanitised (no embedded quotes), so no unescaping is
/// needed. Returns `None` when the key is absent or not a string.
pub fn json_string(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The `"latency_tails": [...]` block of a report JSON, verbatim.
fn tails_block(doc: &str) -> Option<&str> {
    let start = doc.find("\"latency_tails\": [")?;
    let end = start + doc[start..].find(']')?;
    Some(&doc[start..=end])
}

/// Timing fields get an absolute grace on top of the relative tolerance:
/// reduced-scale CI runs finish in tens of milliseconds, where scheduler
/// noise alone exceeds any sane percentage.
const TIMING_GRACE_MS: f64 = 100.0;

/// Compares a fresh measurement against a committed baseline JSON
/// (`ci/bench-baseline.json`), the CI bench-regression gate.
///
/// * **Deterministic fields** (`scale`, grid `configs`, inner-loop
///   `requests`, the full `latency_tails` block) must match exactly, and
///   the fresh run's `byte_identical` flag must be `true` — these come
///   from the simulation clock and cannot legitimately drift.
/// * **Timing fields** (`sequential_ms`, `parallel_ms`, `sharded_ms`,
///   `wall_ms`) must be within `tolerance` (relative, e.g. `0.15` = ±15%)
///   of the baseline, with [`TIMING_GRACE_MS`] of absolute slack — but
///   only when the baseline's `host_fingerprint` matches the current
///   host's. A baseline measured on different hardware says nothing about
///   this machine's wall clock, so on a mismatch every timing and shard
///   gate is downgraded to informational (logged in the table) while the
///   deterministic fields and both byte-identity flags stay mandatory.
/// * **Derived fields** (`speedup`, `requests_per_sec`) are reported but
///   not gated: they are quotients of numbers already checked, and gating
///   them twice only doubles the flake rate.
/// * **Sharding** is gated by host shape: on a 1-core host the sharded
///   grid may cost at most 3× (plus grace) over the sequential grid —
///   the window-synchronisation tax is fixed while sequential dispatch
///   got ~4× faster in the raw-speed round — and its speedup is
///   informational; on a ≥4-core host at full scale the speedup must
///   reach 1.5×; anything in between is informational. The sharded pass
///   must be byte-identical in every case.
/// * **Allocation discipline** (schema /5): `events_allocated` — a count
///   off the simulation clock, identical on every host — must not exceed
///   the baseline's (informational against baselines without it), and
///   `decode_copies` must equal `decode_retained`, judged on the current
///   run alone. `events_recycled_pct` is reported but not gated: it is
///   `1 - peak_live / allocated`, so an engine that needs fewer events for
///   the same replay scores *lower*. The deterministic decode-probe fields (`decode_messages`,
///   `decode_bytes`, `decode_retained`) are exact against baselines that
///   carry them and informational against pre-/5 baselines.
/// * **Family pass** (schema /4): `family_byte_identical` must be `true`
///   and `family_memory_reduction_pct` must reach 30 — both judged on the
///   current run alone, since they are host-independent. The deterministic
///   federation fields (`family_origins`, `family_requests`, the two
///   state-bytes numbers) are exact against baselines that carry them and
///   informational against pre-/4 baselines; `family_wall_ms` follows the
///   usual same-host timing rule.
/// * **Batched proposer** (schema /7): `proposer_reduction_pct` must reach
///   30, `proposer_coalesce_ratio` must exceed 1, the batched
///   write-completion p99 must be no worse than the per-write one, and
///   `proposer_byte_identical` must be `true` — all judged on the current
///   run alone, since every number comes off the simulation clock. The
///   deterministic message counts and write-completion quantiles are exact
///   against baselines that carry them and informational against pre-/7
///   baselines; `proposer_wall_ms` follows the same-host timing rule.
/// * **Serving tier** (schema /6): `serve_dropped` and `serve_stale` must
///   both be exactly 0 — judged on the current run alone, since a dropped
///   connection or a stale serve is a defect on any host. The workload
///   shape (`serve_connections`, `serve_requests`) is exact against
///   baselines that carry it and informational against pre-/6 baselines;
///   `serve_p99_us` and `serve_wall_ms` follow the same-host timing rule
///   (real-socket latency says nothing across hardware).
///
/// Returns the comparison table either way: `Ok` when everything passed,
/// `Err` when anything regressed.
pub fn check_against(
    current: &TrajectoryReport,
    baseline: &str,
    tolerance: f64,
) -> Result<String, String> {
    let cur = current.to_json();
    let same_host =
        json_string(baseline, "host_fingerprint").is_some_and(|b| b == current.host_fingerprint);
    let mut table = String::new();
    if !same_host {
        let _ = writeln!(
            table,
            "note: baseline host fingerprint ({}) differs from this host ({});\n\
             note: timing and shard gates are informational on this run — exact\n\
             note: fields and byte-identity are still enforced.",
            json_string(baseline, "host_fingerprint").unwrap_or_else(|| "absent".to_string()),
            current.host_fingerprint
        );
    }
    let _ = writeln!(
        table,
        "{:<16} {:>14} {:>14}  verdict",
        "field", "baseline", "current"
    );
    let mut failed = false;
    let mut row = |name: &str, base: Option<f64>, cur: Option<f64>, ok: bool, note: &str| {
        let f = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v}"));
        let _ = writeln!(
            table,
            "{name:<16} {:>14} {:>14}  {}{note}",
            f(base),
            f(cur),
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
    };

    for key in ["scale", "configs", "requests"] {
        let (b, c) = (json_number(baseline, key), json_number(&cur, key));
        row(key, b, c, b.is_some() && b == c, " (exact)");
    }
    for key in ["sequential_ms", "parallel_ms", "sharded_ms", "wall_ms"] {
        let (b, c) = (json_number(baseline, key), json_number(&cur, key));
        let within = match (b, c) {
            (Some(b), Some(c)) => (c - b).abs() <= (tolerance * b).max(TIMING_GRACE_MS),
            _ => false,
        };
        if same_host {
            row(key, b, c, within, &format!(" (±{:.0}%)", tolerance * 100.0));
        } else {
            row(key, b, c, true, " (informational: different host)");
        }
    }
    for key in ["speedup", "requests_per_sec"] {
        let (b, c) = (json_number(baseline, key), json_number(&cur, key));
        row(key, b, c, true, " (informational)");
    }

    // Engine-sharding gates depend on the host. On one core the sharded
    // pass cannot win — barrier and window bookkeeping are pure overhead —
    // so the gate there is a cost ceiling relative to the sequential
    // engine. The raw-speed round made sequential event dispatch ~4×
    // faster while the per-window synchronisation tax is fixed, so the
    // ceiling is 3× (the pre-raw rounds used 1.05× against a much slower
    // sequential engine); absolute creep of the sharded pass itself is
    // separately pinned by the `sharded_ms` ±tolerance row above. The
    // paper-facing ≥1.5× claim is only enforced where it can hold: a
    // multi-core host running the full-scale workload (reduced-scale
    // windows are too short for the parallelism to amortise the barriers).
    let shard_base = json_number(baseline, "sharded_speedup");
    let shard_cur = Some((current.sharded_speedup * 1000.0).round() / 1000.0);
    if !same_host {
        row(
            "sharded_speedup",
            shard_base,
            shard_cur,
            true,
            " (informational: different host)",
        );
    } else if current.host_cores == 1 {
        let overhead = current.sharded_grid_ms as f64 / current.grid_sequential_ms.max(1) as f64;
        let ok = current.sharded_grid_ms as f64
            <= current.grid_sequential_ms as f64 * 3.0 + TIMING_GRACE_MS;
        row(
            "shard_overhead",
            Some(3.0),
            Some((overhead * 1000.0).round() / 1000.0),
            ok,
            " (sharded/sequential ceiling, 1-core host)",
        );
        row(
            "sharded_speedup",
            shard_base,
            shard_cur,
            true,
            " (informational: 1-core host)",
        );
    } else if current.host_cores >= 4 && current.scale == 1 {
        row(
            "sharded_speedup",
            shard_base,
            shard_cur,
            current.sharded_speedup >= 1.5,
            " (>= 1.5: multi-core host, full scale)",
        );
    } else {
        row(
            "sharded_speedup",
            shard_base,
            shard_cur,
            true,
            " (informational)",
        );
    }

    let as_num = |b: bool| if b { 1.0 } else { 0.0 };
    row(
        "byte_identical",
        Some(as_num(baseline.contains("\"byte_identical\": true"))),
        Some(as_num(current.byte_identical)),
        current.byte_identical,
        " (must be 1)",
    );
    row(
        "sharded_ident",
        Some(as_num(
            baseline.contains("\"sharded_byte_identical\": true"),
        )),
        Some(as_num(current.sharded_byte_identical)),
        current.sharded_byte_identical,
        " (must be 1)",
    );

    // Family block (schema /4). The deterministic federation fields must
    // match exactly when the baseline carries them (a pre-/4 baseline is
    // informational); the byte-identity and ≥30% memory-reduction gates
    // judge the *current* run alone — both are host-independent, so they
    // hold even against a foreign or legacy baseline.
    for key in [
        "family_origins",
        "family_requests",
        "family_state_bytes",
        "family_legacy_state_bytes",
    ] {
        let (b, c) = (json_number(baseline, key), json_number(&cur, key));
        if b.is_some() {
            row(key, b, c, b == c, " (exact)");
        } else {
            row(key, b, c, true, " (informational: baseline pre-/4)");
        }
    }
    let (b, c) = (
        json_number(baseline, "family_wall_ms"),
        json_number(&cur, "family_wall_ms"),
    );
    match (same_host, b) {
        (true, Some(b_ms)) => {
            let within = c
                .is_some_and(|c_ms| (c_ms - b_ms).abs() <= (tolerance * b_ms).max(TIMING_GRACE_MS));
            row(
                "family_wall_ms",
                b,
                c,
                within,
                &format!(" (±{:.0}%)", tolerance * 100.0),
            );
        }
        (true, None) => row(
            "family_wall_ms",
            b,
            c,
            true,
            " (informational: baseline pre-/4)",
        ),
        (false, _) => row(
            "family_wall_ms",
            b,
            c,
            true,
            " (informational: different host)",
        ),
    }
    row(
        "family_ident",
        Some(as_num(baseline.contains("\"family_byte_identical\": true"))),
        Some(as_num(current.family_byte_identical)),
        current.family_byte_identical,
        " (must be 1)",
    );
    row(
        "family_mem_cut",
        Some(30.0),
        Some((current.family_memory_reduction_pct * 10.0).round() / 10.0),
        current.family_memory_reduction_pct >= 30.0,
        " (>= 30% state-bytes cut vs legacy layout)",
    );

    // Allocation-discipline gates (schema /5): the inner loop may not
    // need more engine events than the baseline did (a deterministic
    // count), and the decode probe's only owned copies must be the
    // retention copies (200 bodies entering a cache). The recycle rate is
    // a quotient of that count and rises with it, so it only informs.
    let events = current.events_allocated as f64;
    let base_events = json_number(baseline, "events_allocated");
    row(
        "events_allocated",
        base_events,
        Some(events),
        base_events.is_none_or(|b| events <= b),
        if base_events.is_some() {
            " (<= baseline)"
        } else {
            " (informational: baseline pre-/5)"
        },
    );
    row(
        "alloc_recycle",
        json_number(baseline, "events_recycled_pct"),
        Some((current.events_recycled_pct * 10.0).round() / 10.0),
        true,
        " (informational: 1 - peak_live/allocated)",
    );
    row(
        "decode_copies",
        Some(current.decode_retained as f64),
        Some(current.decode_copies as f64),
        current.decode_copies == current.decode_retained,
        " (== decode_retained, current run)",
    );
    for key in ["decode_messages", "decode_bytes", "decode_retained"] {
        let (b, c) = (json_number(baseline, key), json_number(&cur, key));
        if b.is_some() {
            row(key, b, c, b == c, " (exact)");
        } else {
            row(key, b, c, true, " (informational: baseline pre-/5)");
        }
    }

    // Serving-tier gates (schema /6). Dropped connections and stale
    // serves are defects regardless of host or baseline age, so those two
    // rows judge the current run alone. Workload shape is exact against
    // /6 baselines; the latency tail and wall time follow the same-host
    // timing rule like every host-clock measurement.
    row(
        "serve_dropped",
        Some(0.0),
        Some(current.serve_dropped as f64),
        current.serve_dropped == 0,
        " (== 0, current run)",
    );
    row(
        "serve_stale",
        Some(0.0),
        Some(current.serve_stale as f64),
        current.serve_stale == 0,
        " (== 0, current run)",
    );
    for key in ["serve_connections", "serve_requests"] {
        let (b, c) = (json_number(baseline, key), json_number(&cur, key));
        if b.is_some() {
            row(key, b, c, b == c, " (exact)");
        } else {
            row(key, b, c, true, " (informational: baseline pre-/6)");
        }
    }
    for key in ["serve_p99_us", "serve_wall_ms"] {
        let (b, c) = (json_number(baseline, key), json_number(&cur, key));
        // The absolute grace is expressed in the field's own unit.
        let grace = if key.ends_with("_us") {
            TIMING_GRACE_MS * 1000.0
        } else {
            TIMING_GRACE_MS
        };
        match (same_host, b) {
            (true, Some(b_v)) => {
                let within = c.is_some_and(|c_v| (c_v - b_v).abs() <= (tolerance * b_v).max(grace));
                row(key, b, c, within, &format!(" (±{:.0}%)", tolerance * 100.0));
            }
            (true, None) => row(key, b, c, true, " (informational: baseline pre-/6)"),
            (false, _) => row(key, b, c, true, " (informational: different host)"),
        }
    }

    // Batched-proposer gates (schema /7), judged on the current run alone:
    // the storms must cost ≥30% fewer wire INVALIDATEs than per-write
    // fan-out, repeated writes must actually coalesce, the batching delay
    // must not worsen the write-completion tail, and the batched replay
    // must survive sharding byte-identically.
    row(
        "proposer_cut",
        Some(30.0),
        Some((current.proposer_reduction_pct * 10.0).round() / 10.0),
        current.proposer_reduction_pct >= 30.0,
        " (>= 30% wire INVALIDATE cut, current run)",
    );
    row(
        "proposer_merge",
        Some(1.0),
        Some((current.proposer_coalesce_ratio * 1000.0).round() / 1000.0),
        current.proposer_coalesce_ratio > 1.0,
        " (> 1 intents per delivered entry, current run)",
    );
    row(
        "proposer_p99",
        Some(current.proposer_per_write_p99_us as f64),
        Some(current.proposer_write_p99_us as f64),
        current.proposer_write_p99_us <= current.proposer_per_write_p99_us,
        " (<= per-write write-completion p99, current run)",
    );
    row(
        "proposer_ident",
        Some(as_num(
            baseline.contains("\"proposer_byte_identical\": true"),
        )),
        Some(as_num(current.proposer_byte_identical)),
        current.proposer_byte_identical,
        " (must be 1)",
    );
    for key in [
        "proposer_messages",
        "proposer_per_write_messages",
        "proposer_write_p50_us",
        "proposer_write_p99_us",
        "proposer_per_write_p99_us",
    ] {
        let (b, c) = (json_number(baseline, key), json_number(&cur, key));
        if b.is_some() {
            row(key, b, c, b == c, " (exact)");
        } else {
            row(key, b, c, true, " (informational: baseline pre-/7)");
        }
    }
    let (b, c) = (
        json_number(baseline, "proposer_wall_ms"),
        json_number(&cur, "proposer_wall_ms"),
    );
    match (same_host, b) {
        (true, Some(b_ms)) => {
            let within = c
                .is_some_and(|c_ms| (c_ms - b_ms).abs() <= (tolerance * b_ms).max(TIMING_GRACE_MS));
            row(
                "proposer_wall_ms",
                b,
                c,
                within,
                &format!(" (±{:.0}%)", tolerance * 100.0),
            );
        }
        (true, None) => row(
            "proposer_wall_ms",
            b,
            c,
            true,
            " (informational: baseline pre-/7)",
        ),
        (false, _) => row(
            "proposer_wall_ms",
            b,
            c,
            true,
            " (informational: different host)",
        ),
    }

    let tails_match = match (tails_block(baseline), tails_block(&cur)) {
        (Some(b), Some(c)) => b == c,
        _ => false,
    };
    let _ = writeln!(
        table,
        "latency_tails    {:>14} {:>14}  {} (exact, {} entries)",
        "-",
        "-",
        if tails_match { "ok" } else { "FAIL" },
        current.tails.len()
    );
    failed |= !tails_match;

    if failed {
        Err(table)
    } else {
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_tables_3_and_4() {
        let configs = grid_configs(100);
        assert_eq!(configs.len(), 18);
        // Table order: each experiment contributes one full trio.
        for block in configs.chunks(3) {
            for (cfg, kind) in block.iter().zip(ProtocolKind::PAPER_TRIO) {
                assert_eq!(cfg.protocol.kind, kind);
                assert_eq!(cfg.spec.name, block[0].spec.name);
            }
        }
        assert_eq!(configs[0].spec.name, "EPA");
        assert_eq!(configs[17].spec.name, "SDSC");
    }

    #[test]
    fn reduced_scale_run_measures_and_stays_identical() {
        let report = run(400, Some(2), 2);
        assert!(report.byte_identical, "parallel grid diverged");
        assert!(report.sharded_byte_identical, "sharded grid diverged");
        assert_eq!(report.grid_configs, 18);
        assert_eq!(report.jobs, 2);
        assert_eq!(report.shards, 2);
        assert!(report.inner_requests > 0);
        assert!(report.inner_requests_per_sec > 0);
        // Allocation discipline shows up even at reduced scale: the arena
        // recycles, and the decode probe copies only at retention
        // boundaries (one 200 per distinct document, 304s thereafter).
        assert!(report.events_allocated > 0);
        assert!(report.events_recycled > 0);
        assert_eq!(report.decode_messages, report.inner_requests * 2);
        assert_eq!(report.decode_copies, report.decode_retained);
        assert!(report.decode_borrows > report.decode_copies);
        // Unique tails keys: the SDSC variants are told apart.
        let sdsc: Vec<_> = report
            .tails
            .iter()
            .filter(|t| t.trace.starts_with("SDSC("))
            .collect();
        assert_eq!(sdsc.len(), 6, "{:?}", report.tails);
        assert!(report.grid_sequential_ms >= 1 && report.grid_parallel_ms >= 1);
        assert!(report.sharded_grid_ms >= 1 && report.sharded_speedup > 0.0);
        // The family pass replays the flash-crowd federation at full
        // origin count even at reduced scale, stays byte-identical across
        // the 8-shard engine, and clears the memory-reduction acceptance
        // gate (deterministic model, so exact at any scale).
        assert_eq!(report.family_name, "flash-crowd");
        assert_eq!(report.family_origins, 64);
        assert_eq!(report.family_shards, FAMILY_SHARDS);
        assert!(
            report.family_byte_identical,
            "sharded family replay diverged"
        );
        assert!(report.family_requests > 0);
        assert!(
            report.family_state_bytes > 0
                && report.family_state_bytes < report.family_legacy_state_bytes
        );
        assert!(
            report.family_memory_reduction_pct >= 30.0,
            "memory reduction {:.1}% below the 30% gate",
            report.family_memory_reduction_pct
        );
        // The proposer pass replays the storms even at reduced scale:
        // batching can only remove wire messages, the batched flash-crowd
        // replay must survive sharding byte-identically, and the pass uses
        // the default count threshold. The ≥30% / coalesce / p99 gates are
        // asserted at CI scale by `check_against`, not here — a
        // 400×-reduced storm is too sparse to batch meaningfully.
        assert_eq!(report.proposer_batch_entries, 8);
        assert!(report.proposer_messages <= report.proposer_per_write_messages);
        assert!(report.proposer_coalesce_ratio >= 1.0);
        assert!(
            report.proposer_byte_identical,
            "sharded batched replay diverged"
        );
    }

    #[test]
    fn json_is_stable_and_carries_baselines() {
        let json = sample_report().to_json();
        assert!(json.contains("\"schema\": \"wcc-bench-trajectory/7\""));
        assert!(json.contains("\"proposer_batch_entries\": 8"));
        assert!(json.contains("\"proposer_messages\": 109"));
        assert!(json.contains("\"proposer_reduction_pct\": 88.5"));
        assert!(json.contains("\"proposer_coalesce_ratio\": 1.029"));
        assert!(json.contains("\"proposer_byte_identical\": true"));
        assert!(json.contains("\"serve_connections\": 2048"));
        assert!(json.contains("\"serve_dropped\": 0"));
        assert!(json.contains("\"serve_stale\": 0"));
        assert!(json.contains("\"serve_p99_us\": 32000"));
        assert!(json.contains("\"events_recycled_pct\": 99.6"));
        assert!(json.contains("\"events_per_request\": 6.15"));
        assert!(json.contains("\"longest_deferred_run\": 14"));
        assert!(json.contains("\"decode_copies\": 1316"));
        assert!(json.contains("\"decode_retained\": 1316"));
        assert!(json.contains("\"family_requests_per_sec\": 355555"));
        assert!(json.contains(&format!(
            "\"pre_raw_inner_rps\": {PRE_RAW_INNER_REQUESTS_PER_SEC}"
        )));
        assert!(json.contains("\"family_name\": \"flash-crowd\""));
        assert!(json.contains("\"family_origins\": 64"));
        assert!(json.contains("\"family_byte_identical\": true"));
        assert!(json.contains("\"family_memory_reduction_pct\": 36.9"));
        assert!(json.contains("\"host_fingerprint\": \"x86_64/linux/8c/sample-cpu\""));
        assert!(json.contains("\"speedup\": 2.500"));
        assert!(json.contains("\"byte_identical\": true"));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("\"sharded_speedup\": 1.600"));
        assert!(json.contains("\"sharded_byte_identical\": true"));
        assert!(json.contains(&format!(
            "\"pre_shard_grid_ms\": {PRE_SHARD_GRID_SEQUENTIAL_MS}"
        )));
        assert!(json.contains(
            "{ \"trace\": \"EPA\", \"protocol\": \"adaptive-ttl\", \
             \"p50_us\": 1000, \"p90_us\": 2000, \"p99_us\": 150000 },"
        ));
        assert!(json.contains(&format!(
            "\"grid_sequential_ms\": {BASELINE_GRID_SEQUENTIAL_MS}"
        )));
        // Balanced braces, no trailing commas before closers.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  }") && !json.contains(",\n}"));
    }

    #[test]
    fn json_number_reads_unique_quoted_keys() {
        let json = sample_report().to_json();
        assert_eq!(json_number(&json, "scale"), Some(1.0));
        assert_eq!(json_number(&json, "configs"), Some(18.0));
        // inner_loop's "wall_ms", not the baseline's "inner_wall_ms".
        assert_eq!(json_number(&json, "wall_ms"), Some(150.0));
        // The sharded block keeps its own key names, so neither collides.
        assert_eq!(json_number(&json, "sharded_ms"), Some(1250.0));
        assert_eq!(json_number(&json, "shards"), Some(2.0));
        assert_eq!(json_number(&json, "requests_per_sec"), Some(271_053.0));
        // The family block's prefixed keys don't collide with the grid's.
        assert_eq!(json_number(&json, "family_requests"), Some(160_000.0));
        assert_eq!(json_number(&json, "family_shards"), Some(8.0));
        // alloc_stats keys: "events_recycled" must not swallow the "_pct"
        // key (the needle includes the closing quote), and the decode pair
        // stays distinct.
        assert_eq!(json_number(&json, "events_recycled"), Some(249_000.0));
        assert_eq!(json_number(&json, "events_recycled_pct"), Some(99.6));
        assert_eq!(json_number(&json, "decode_copies"), Some(1_316.0));
        // inner_loop's "requests_per_sec" wins over the family-prefixed one.
        assert_eq!(
            json_number(&json, "family_requests_per_sec"),
            Some(355_555.0)
        );
        assert_eq!(
            json_number(&json, "family_memory_reduction_pct"),
            Some(36.9)
        );
        // The serve block's prefixed keys stay distinct from inner_loop's
        // "requests" and "requests_per_sec".
        assert_eq!(json_number(&json, "serve_requests"), Some(16_384.0));
        assert_eq!(json_number(&json, "serve_requests_per_sec"), Some(3_900.0));
        assert_eq!(json_number(&json, "serve_p999_us"), Some(40_000.0));
        // The proposer block's prefixed keys stay distinct, including the
        // "proposer_write_p99_us" / "proposer_per_write_p99_us" pair.
        assert_eq!(json_number(&json, "proposer_messages"), Some(109.0));
        assert_eq!(
            json_number(&json, "proposer_per_write_messages"),
            Some(946.0)
        );
        assert_eq!(json_number(&json, "proposer_write_p99_us"), Some(64_096.0));
        assert_eq!(
            json_number(&json, "proposer_per_write_p99_us"),
            Some(125_600.0)
        );
        assert_eq!(json_number(&json, "no_such_key"), None);
    }

    #[test]
    fn check_against_passes_its_own_baseline_and_flags_regressions() {
        let report = sample_report();
        let baseline = report.to_json();
        check_against(&report, &baseline, 0.15).expect("self-comparison must pass");

        // Timing drift beyond tolerance + grace fails.
        let mut slow = report.clone();
        slow.grid_sequential_ms = report.grid_sequential_ms * 3;
        let err = check_against(&slow, &baseline, 0.15).unwrap_err();
        assert!(err.contains("sequential_ms"), "{err}");
        assert!(err.contains("FAIL"), "{err}");

        // Timing drift inside the absolute grace passes.
        let mut close = report.clone();
        close.inner_wall_ms += 80;
        check_against(&close, &baseline, 0.15).expect("grace window must absorb 80 ms");

        // Any simulated-latency drift fails, however small.
        let mut drift = report.clone();
        drift.tails[1].p99_us += 1;
        let err = check_against(&drift, &baseline, 0.15).unwrap_err();
        assert!(err.contains("latency_tails"), "{err}");

        // A divergent parallel pass fails outright.
        let mut split = report.clone();
        split.byte_identical = false;
        let err = check_against(&split, &baseline, 0.15).unwrap_err();
        assert!(err.contains("byte_identical"), "{err}");

        // So does a divergent sharded pass.
        let mut shard_split = report.clone();
        shard_split.sharded_byte_identical = false;
        let err = check_against(&shard_split, &baseline, 0.15).unwrap_err();
        assert!(err.contains("sharded_ident"), "{err}");

        // And a divergent family pass.
        let mut fam_split = report.clone();
        fam_split.family_byte_identical = false;
        let err = check_against(&fam_split, &baseline, 0.15).unwrap_err();
        assert!(err.contains("family_ident"), "{err}");

        // The memory-reduction gate is judged on the current run alone.
        let mut regressed = report.clone();
        regressed.family_memory_reduction_pct = 12.0;
        let err = check_against(&regressed, &baseline, 0.15).unwrap_err();
        assert!(err.contains("family_mem_cut"), "{err}");

        // Deterministic federation fields are exact.
        let mut reshaped = report.clone();
        reshaped.family_state_bytes += 1;
        let err = check_against(&reshaped, &baseline, 0.15).unwrap_err();
        assert!(err.contains("family_state_bytes"), "{err}");

        // The inner loop may not need more engine events than before; a
        // lower recycle rate alone (fewer events, same peak) is fine.
        let mut leaky = report.clone();
        leaky.events_allocated += 1;
        let err = check_against(&leaky, &baseline, 0.15).unwrap_err();
        assert!(err.contains("events_allocated"), "{err}");
        let mut leaner = report.clone();
        leaner.events_allocated -= 100_000;
        leaner.events_recycled_pct = 80.0;
        check_against(&leaner, &baseline, 0.15).expect("fewer events must pass");

        // A decode copy outside a retention boundary fails.
        let mut copying = report.clone();
        copying.decode_copies = copying.decode_retained + 5;
        let err = check_against(&copying, &baseline, 0.15).unwrap_err();
        assert!(err.contains("decode_copies"), "{err}");

        // The deterministic decode-probe fields are exact.
        let mut reprobed = report.clone();
        reprobed.decode_bytes += 1;
        let err = check_against(&reprobed, &baseline, 0.15).unwrap_err();
        assert!(err.contains("decode_bytes"), "{err}");

        // Proposer gates: the message cut, the coalesce ratio, the p99
        // comparison and byte-identity are all judged on the current run.
        let mut chatty = report.clone();
        chatty.proposer_reduction_pct = 12.0;
        let err = check_against(&chatty, &baseline, 0.15).unwrap_err();
        assert!(err.contains("proposer_cut"), "{err}");
        let mut uncoalesced = report.clone();
        uncoalesced.proposer_coalesce_ratio = 1.0;
        let err = check_against(&uncoalesced, &baseline, 0.15).unwrap_err();
        assert!(err.contains("proposer_merge"), "{err}");
        let mut laggy = report.clone();
        laggy.proposer_write_p99_us = report.proposer_per_write_p99_us + 1;
        let err = check_against(&laggy, &baseline, 0.15).unwrap_err();
        assert!(err.contains("proposer_p99"), "{err}");
        let mut prop_split = report.clone();
        prop_split.proposer_byte_identical = false;
        let err = check_against(&prop_split, &baseline, 0.15).unwrap_err();
        assert!(err.contains("proposer_ident"), "{err}");
        // The deterministic message counts are exact against /7 baselines.
        let mut remessaged = report.clone();
        remessaged.proposer_messages += 1;
        remessaged.proposer_reduction_pct = 88.4;
        let err = check_against(&remessaged, &baseline, 0.15).unwrap_err();
        assert!(err.contains("proposer_messages"), "{err}");
    }

    #[test]
    fn proposer_gates_hold_against_pre_7_baselines() {
        let report = sample_report();
        // Strip the proposer block: a pre-/7 baseline. The exact message
        // and quantile rows go informational, but every current-run gate
        // still bites.
        let mut legacy = report.to_json();
        let start = legacy.find("  \"proposer\": {").unwrap();
        let end = start + legacy[start..].find("},\n").unwrap() + "},\n".len();
        legacy.replace_range(start..end, "");
        assert_eq!(json_number(&legacy, "proposer_messages"), None);
        let table = check_against(&report, &legacy, 0.15).expect("pre-/7 baselines must pass");
        assert!(table.contains("informational: baseline pre-/7"), "{table}");

        let mut chatty = report.clone();
        chatty.proposer_reduction_pct = 29.9;
        let err = check_against(&chatty, &legacy, 0.15).unwrap_err();
        assert!(err.contains("proposer_cut"), "{err}");
        let mut uncoalesced = report.clone();
        uncoalesced.proposer_coalesce_ratio = 0.99;
        let err = check_against(&uncoalesced, &legacy, 0.15).unwrap_err();
        assert!(err.contains("proposer_merge"), "{err}");
        let mut prop_split = report.clone();
        prop_split.proposer_byte_identical = false;
        let err = check_against(&prop_split, &legacy, 0.15).unwrap_err();
        assert!(err.contains("proposer_ident"), "{err}");
    }

    #[test]
    fn alloc_gates_hold_against_pre_5_baselines() {
        let report = sample_report();
        // Strip the alloc_stats block: a pre-/5 baseline. The exact decode
        // rows and the event count go informational, but the current-run
        // decode gate still bites.
        let mut legacy = report.to_json();
        let start = legacy.find("  \"alloc_stats\": {").unwrap();
        let end = start + legacy[start..].find("},\n").unwrap() + "},\n".len();
        legacy.replace_range(start..end, "");
        assert_eq!(json_number(&legacy, "decode_messages"), None);
        let table = check_against(&report, &legacy, 0.15).expect("pre-/5 baselines must pass");
        assert!(table.contains("informational: baseline pre-/5"), "{table}");

        let mut copying = report.clone();
        copying.decode_copies += 1;
        let err = check_against(&copying, &legacy, 0.15).unwrap_err();
        assert!(err.contains("decode_copies"), "{err}");
    }

    #[test]
    fn serve_gates_hold_against_pre_6_baselines() {
        let report = sample_report();
        // Strip the serve block: a pre-/6 baseline. The exact workload
        // rows and the timing rows go informational, but the dropped- and
        // stale-connection gates still judge the current run.
        let mut legacy = report.to_json();
        let start = legacy.find("  \"serve\": {").unwrap();
        let end = start + legacy[start..].find("},\n").unwrap() + "},\n".len();
        legacy.replace_range(start..end, "");
        assert_eq!(json_number(&legacy, "serve_connections"), None);
        let table = check_against(&report, &legacy, 0.15).expect("pre-/6 baselines must pass");
        assert!(table.contains("informational: baseline pre-/6"), "{table}");

        let mut droppy = report.clone();
        droppy.serve_dropped = 3;
        let err = check_against(&droppy, &legacy, 0.15).unwrap_err();
        assert!(err.contains("serve_dropped"), "{err}");
        let mut stale = report.clone();
        stale.serve_stale = 1;
        let err = check_against(&stale, &legacy, 0.15).unwrap_err();
        assert!(err.contains("serve_stale"), "{err}");

        // Against a /6 baseline the workload shape is exact and the tail
        // is a same-host timing gate.
        let full = report.to_json();
        let mut reshaped = report.clone();
        reshaped.serve_connections += 1;
        let err = check_against(&reshaped, &full, 0.15).unwrap_err();
        assert!(err.contains("serve_connections"), "{err}");
        let mut slower = report.clone();
        slower.serve_p99_us = report.serve_p99_us * 10 + 200_000;
        let err = check_against(&slower, &full, 0.15).unwrap_err();
        assert!(err.contains("serve_p99_us"), "{err}");
    }

    #[test]
    fn grid_tail_keys_are_unique() {
        // Six experiments, five trace names: the SDSC lifetime variants
        // must come out labelled apart, or the tails rows collide.
        let labels = grid_trace_labels();
        assert_eq!(labels.len(), 6);
        let distinct: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), 6, "{labels:?}");
        assert!(labels.contains(&"SDSC(57)".to_string()), "{labels:?}");
        assert!(labels.contains(&"SDSC(576)".to_string()), "{labels:?}");
    }

    #[test]
    fn family_gates_hold_against_legacy_and_foreign_baselines() {
        let report = sample_report();

        // A pre-/4 baseline (no family block at all) leaves the exact and
        // timing family rows informational...
        let mut legacy = report.to_json();
        let start = legacy.find("  \"family\": {").unwrap();
        let end = start + legacy[start..].find("},\n").unwrap() + "},\n".len();
        legacy.replace_range(start..end, "");
        assert_eq!(json_number(&legacy, "family_origins"), None);
        let table =
            check_against(&report, &legacy, 0.15).expect("pre-/4 baselines must still pass");
        assert!(table.contains("informational: baseline pre-/4"), "{table}");

        // ...but byte-identity and the 30% reduction stay mandatory.
        let mut fam_split = report.clone();
        fam_split.family_byte_identical = false;
        let err = check_against(&fam_split, &legacy, 0.15).unwrap_err();
        assert!(err.contains("family_ident"), "{err}");
        let mut regressed = report.clone();
        regressed.family_memory_reduction_pct = 29.9;
        let err = check_against(&regressed, &legacy, 0.15).unwrap_err();
        assert!(err.contains("family_mem_cut"), "{err}");

        // Foreign-host baselines skip family_wall_ms like every timing
        // field, while the reduction gate still bites.
        let mut foreign = report.clone();
        foreign.host_fingerprint = "arm64/linux/4c/other-cpu".to_string();
        let mut slow = report.clone();
        slow.family_wall_ms = report.family_wall_ms * 30;
        check_against(&slow, &foreign.to_json(), 0.15)
            .expect("foreign-host family timing must be informational");
        let err = check_against(&regressed, &foreign.to_json(), 0.15).unwrap_err();
        assert!(err.contains("family_mem_cut"), "{err}");
    }

    #[test]
    fn json_string_reads_the_fingerprint() {
        let json = sample_report().to_json();
        assert_eq!(
            json_string(&json, "host_fingerprint").as_deref(),
            Some("x86_64/linux/8c/sample-cpu")
        );
        assert_eq!(json_string(&json, "scale"), None); // a number, not a string
        assert_eq!(json_string(&json, "no_such_key"), None);
    }

    #[test]
    fn the_running_host_has_a_fingerprint() {
        let fp = host_fingerprint();
        // arch/os/<cores>c/<model> — four slash-separated parts minimum,
        // and nothing that would need JSON escaping.
        assert!(fp.matches('/').count() >= 3, "{fp}");
        assert!(!fp.contains('"') && !fp.contains('\\'), "{fp}");
    }

    #[test]
    fn foreign_host_baselines_skip_timing_gates_but_not_identity() {
        let report = sample_report();
        let mut foreign = report.clone();
        foreign.host_fingerprint = "arm64/linux/4c/other-cpu".to_string();
        let baseline = foreign.to_json();

        // A 3x timing regression against a foreign-host baseline passes —
        // wall-clock numbers from other hardware are not comparable — and
        // the skip is logged in the table.
        let mut slow = report.clone();
        slow.grid_sequential_ms = report.grid_sequential_ms * 3;
        slow.inner_wall_ms = report.inner_wall_ms * 3;
        slow.sharded_speedup = 0.4;
        let table = check_against(&slow, &baseline, 0.15)
            .expect("foreign-host timing must be informational");
        assert!(table.contains("host fingerprint"), "{table}");
        assert!(table.contains("informational: different host"), "{table}");

        // Determinism violations still fail regardless of the host.
        let mut split = report.clone();
        split.byte_identical = false;
        let err = check_against(&split, &baseline, 0.15).unwrap_err();
        assert!(err.contains("byte_identical"), "{err}");
        let mut drift = report.clone();
        drift.tails[0].p50_us += 1;
        let err = check_against(&drift, &baseline, 0.15).unwrap_err();
        assert!(err.contains("latency_tails"), "{err}");

        // A baseline with no fingerprint at all (pre-/3 schema) is treated
        // as foreign: timing informational, identity enforced.
        let legacy = baseline.replace(
            "  \"host_fingerprint\": \"arm64/linux/4c/other-cpu\",\n",
            "",
        );
        assert!(json_string(&legacy, "host_fingerprint").is_none());
        check_against(&slow, &legacy, 0.15).expect("legacy baselines skip timing gates");
    }

    #[test]
    fn shard_gates_follow_host_shape() {
        // The 8-core sample at full scale gates the ≥1.5× speedup.
        let report = sample_report();
        let baseline = report.to_json();
        let mut slow = report.clone();
        slow.sharded_speedup = 1.2;
        let err = check_against(&slow, &baseline, 0.15).unwrap_err();
        assert!(err.contains("sharded_speedup"), "{err}");

        // On one core the speedup is informational, but a sharded pass
        // costing more than 3× (plus grace) over sequential fails.
        let mut single = report.clone();
        single.host_cores = 1;
        single.sharded_grid_ms = single.grid_sequential_ms * 4;
        single.sharded_speedup = 0.25;
        let single_baseline = single.to_json();
        let err = check_against(&single, &single_baseline, 0.15).unwrap_err();
        assert!(err.contains("shard_overhead"), "{err}");

        // ... while an overhead inside the ceiling passes.
        let mut ok = report.clone();
        ok.host_cores = 1;
        ok.sharded_grid_ms = ok.grid_sequential_ms * 2;
        ok.sharded_speedup = 0.5;
        let ok_baseline = ok.to_json();
        check_against(&ok, &ok_baseline, 0.15).expect("2x overhead is inside the 1-core ceiling");

        // Reduced-scale multi-core runs never gate the speedup.
        let mut reduced = report.clone();
        reduced.scale = 20;
        reduced.sharded_speedup = 0.8;
        let reduced_baseline = reduced.to_json();
        check_against(&reduced, &reduced_baseline, 0.15)
            .expect("reduced-scale speedup is informational");
    }

    fn sample_report() -> TrajectoryReport {
        TrajectoryReport {
            scale: 1,
            jobs: 4,
            host_cores: 8,
            host_fingerprint: "x86_64/linux/8c/sample-cpu".to_string(),
            grid_configs: 18,
            grid_sequential_ms: 2000,
            grid_parallel_ms: 800,
            speedup: 2.5,
            byte_identical: true,
            shards: 2,
            sharded_grid_ms: 1250,
            sharded_speedup: 1.6,
            sharded_byte_identical: true,
            inner_requests: 40_658,
            inner_wall_ms: 150,
            inner_requests_per_sec: 271_053,
            events_allocated: 250_000,
            events_recycled: 249_000,
            events_recycled_pct: 99.6,
            events_peak_live: 120,
            events_per_request: 6.15,
            deferred_runs: 9_000,
            deferred_messages: 11_000,
            longest_deferred_run: 14,
            decode_messages: 81_316,
            decode_bytes: 9_500_000,
            decode_borrows: 80_000,
            decode_copies: 1_316,
            decode_retained: 1_316,
            family_name: "flash-crowd",
            family_origins: 64,
            family_clients: 120_000,
            family_requests: 160_000,
            family_shards: 8,
            family_wall_ms: 900,
            family_requests_per_sec: 355_555,
            family_byte_identical: true,
            family_state_bytes: 7_700_000,
            family_legacy_state_bytes: 12_200_000,
            family_memory_reduction_pct: 36.9,
            family_peak_rss_kb: 250_000,
            serve_connections: 2048,
            serve_requests: 16_384,
            serve_dropped: 0,
            serve_stale: 0,
            serve_p50_us: 9_000,
            serve_p90_us: 18_000,
            serve_p99_us: 32_000,
            serve_p999_us: 40_000,
            serve_wall_ms: 4_200,
            serve_requests_per_sec: 3_900,
            proposer_batch_entries: 8,
            proposer_messages: 109,
            proposer_per_write_messages: 946,
            proposer_reduction_pct: 88.5,
            proposer_coalesce_ratio: 1.029,
            proposer_write_p50_us: 15_359,
            proposer_write_p99_us: 64_096,
            proposer_per_write_p99_us: 125_600,
            proposer_byte_identical: true,
            proposer_wall_ms: 700,
            tails: vec![
                TailEntry {
                    trace: "EPA".to_string(),
                    protocol: "adaptive-ttl",
                    p50_us: 1_000,
                    p90_us: 2_000,
                    p99_us: 150_000,
                },
                TailEntry {
                    trace: "EPA".to_string(),
                    protocol: "invalidation",
                    p50_us: 1_100,
                    p90_us: 2_200,
                    p99_us: 140_000,
                },
            ],
        }
    }
}
