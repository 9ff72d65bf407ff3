//! The simulator-tier workloads.
//!
//! * `paper-grid` — the 18 configurations of Tables 3/4 at full scale, the
//!   reproduction's primary use. One timed unit per configuration. Its
//!   inputs are the committed tables' own draw at every `--seed` (so the
//!   table oracle is exact on every run); the seed shuffles the order the
//!   configurations run in. Across draws this grid's cost moves 20–40 %
//!   (a hot document's modification fans out superlinearly: NASA under
//!   invalidation took 169–656 ms over seeds 1–8 with 3–4 k invalidations
//!   each), which would drown any code change; the other three workloads
//!   draw their inputs from the seed.
//! * `feed-storm` — the real-time-feed city family under invalidation:
//!   64 origins, 40 000 requests, ≈ 30 000 invalidations, so the write path
//!   (`core::server`/`sitelist`, `httpsim::origin` fan-out and acks) does
//!   the work the grid barely touches. One replay is cut into
//!   [`FEED_CHUNKS`] units of equal simulated time.
//!
//! A pass repeats every unit once; passes repeat until the clock runs out.
//! Each unit is bracketed by calibrations ([`crate::calib`]) and every
//! pass must reproduce the reference pass's reports `Debug`-identically.

use crate::calib::{Bracketed, Calibrator};
use crate::json::Value;
use crate::procfs;
use crate::spans::SpanLog;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::Path;
use std::time::{Duration, Instant};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions, RawReport};
use wcc_replay::experiment::run_on;
use wcc_replay::tables::format_trio_block;
use wcc_replay::{materialise, ExperimentConfig, ReplayReport};
use wcc_simnet::ArenaStats;
use wcc_traces::family::{self, FamilyConfig, FamilyWorkload, WorkloadFamily};
use wcc_traces::{ModSchedule, Trace};
use wcc_types::SimTime;

/// The seed the committed tables and the golden digest were made with.
pub const GOLDEN_SEED: u64 = wcc_bench::TABLE_SEED;
/// Units one `feed-storm` replay is cut into.
pub const FEED_CHUNKS: u64 = 20;
/// `feed-storm` is `city(RealTimeFeed)` scaled down by this.
pub const FEED_SCALE: u64 = 4;
/// Set-up repetitions; the median is reported.
pub const SETUP_REPS: usize = 15;

const GOLDEN: &str = include_str!("../golden/seed-1997.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    PaperGrid,
    FeedStorm,
}

impl SimKind {
    pub fn name(self) -> &'static str {
        match self {
            SimKind::PaperGrid => "paper-grid",
            SimKind::FeedStorm => "feed-storm",
        }
    }
}

/// One timed unit: wall time with its calibration bracket, and the CPU
/// time the thread spent inside it.
#[derive(Debug, Clone, Copy)]
pub struct UnitSample {
    pub wall: Bracketed,
    pub cpu_s: Option<f64>,
}

impl UnitSample {
    pub fn wall_norm(&self) -> f64 {
        self.wall.normalised_s()
    }
}

/// Times closures between calibrations; consecutive units share one.
pub struct Bench {
    calib: Calibrator,
    before: f64,
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

impl Bench {
    pub fn new() -> Bench {
        let mut calib = Calibrator::new();
        let before = calib.factor();
        Bench { calib, before }
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, UnitSample) {
        let cpu0 = procfs::thread_cpu_ns();
        let clock = Instant::now();
        let value = f();
        let raw_s = clock.elapsed().as_secs_f64();
        let cpu1 = procfs::thread_cpu_ns();
        let after = self.calib.factor();
        let sample = UnitSample {
            wall: Bracketed {
                raw_s,
                before: self.before,
                after,
            },
            cpu_s: cpu0
                .zip(cpu1)
                .map(|(a, b)| b.saturating_sub(a) as f64 / 1e9),
        };
        self.before = after;
        (value, sample)
    }

    /// Re-reads the host speed after untimed work, so the next unit's
    /// bracket starts fresh.
    pub fn refresh(&mut self) {
        self.before = self.calib.factor();
    }
}

/// The `replay.*` counts: exact, and pinned by the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    pub requests: u64,
    pub hits: u64,
    pub total_messages: u64,
    pub invalidations: u64,
    pub total_bytes: u64,
    pub final_violations: u64,
}

impl ReplayCounts {
    fn add(&mut self, raw: &RawReport) {
        self.requests += raw.requests;
        self.hits += raw.hits;
        self.total_messages += raw.total_messages;
        self.invalidations += raw.invalidations;
        self.total_bytes += raw.total_bytes.as_u64();
        self.final_violations += raw.final_violations;
    }

    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("requests", self.requests),
            ("hits", self.hits),
            ("total_messages", self.total_messages),
            ("invalidations", self.invalidations),
            ("total_bytes", self.total_bytes),
            ("final_violations", self.final_violations),
        ]
    }
}

/// Pass/fail bookkeeping: every check is an attempted operation.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// Invariants every replay must satisfy at any seed. `stale_hits` is held
/// to zero only under polling: it compares served versions against *trace
/// time*, so under invalidation it also counts serves that race a write
/// still in flight, which the paper allows (a write completes once every
/// registered site has acknowledged). The delivery-aware check for
/// invalidation is [`check_audit`].
fn check_invariants(checks: &mut Checks, label: &str, raw: &RawReport, expect_requests: u64) {
    checks.check(
        raw.finished
            && raw.writes_complete
            && raw.final_violations == 0
            && raw.requests == expect_requests
            && (raw.protocol != ProtocolKind::PollEveryTime || raw.stale_hits == 0),
        || {
            format!(
                "{label}: finished={} writes_complete={} final_violations={} requests={}/{expect_requests} stale_hits={}",
                raw.finished, raw.writes_complete, raw.final_violations, raw.requests, raw.stale_hits
            )
        },
    );
}

/// One more `feed-storm` replay with the consistency auditor recording: no
/// serve after the invalidation for a newer version reached that client,
/// and the auditor must not change the report.
fn check_audit(checks: &mut Checks, workload: &FamilyWorkload, reference: &str) {
    let mut deployment = Deployment::build_multi(
        &workload.workloads,
        &ProtocolConfig::new(ProtocolKind::Invalidation),
        DeploymentOptions {
            audit: true,
            ..DeploymentOptions::default()
        },
    );
    deployment.run();
    let audit = deployment.audit();
    checks.check(audit.is_clean(), || format!("feed-storm: {audit}"));
    let raw = deployment.collect();
    checks.check(format!("{raw:?}") == reference, || {
        "feed-storm: the audited replay's report differs from the reference pass".into()
    });
}

/// At the golden seed the counts must equal the committed digest.
fn check_golden(checks: &mut Checks, kind: SimKind, seed: u64, counts: &ReplayCounts) {
    if seed != GOLDEN_SEED {
        return;
    }
    let golden = crate::json::parse(GOLDEN).unwrap_or(Value::Null);
    let entry = golden.get(kind.name());
    for (field, value) in counts.fields() {
        let want = entry.and_then(|e| e.get(field)).and_then(Value::as_f64);
        checks.check(want == Some(value as f64), || {
            format!(
                "{}: replay.{field} = {value}, golden digest says {want:?}",
                kind.name()
            )
        });
    }
}

/// What a simulator workload measured.
pub struct SimRun {
    pub kind: SimKind,
    /// Normalised seconds, one per set-up repetition.
    pub setup_s: Vec<f64>,
    pub unit_labels: Vec<String>,
    /// Simulated requests one full pass replays.
    pub requests: u64,
    /// `[pass][unit]`; the last pass may be cut short by the clock.
    pub passes: Vec<Vec<UnitSample>>,
    /// Whether the ledger was recording during each pass.
    pub ledger: Vec<bool>,
    pub counts: ReplayCounts,
    pub checks: Checks,
    pub spans: SpanLog,
    /// Event-arena counters summed over one full pass (ledger passes only).
    pub alloc: Option<ArenaStats>,
    /// Per unit: protocol replayed (`paper-grid`; empty for `feed-storm`).
    pub unit_protocols: Vec<ProtocolKind>,
    /// `VmHWM` after set-up and the reference pass, MiB: what the program
    /// needs for one replay, before repeated passes fragment the heap.
    pub peak_rss_mib: Option<f64>,
    pub inputs: SimInputs,
}

/// The generated inputs, kept for the ledger's kernels.
pub enum SimInputs {
    Grid(Vec<GridBlock>),
    Feed(FamilyWorkload),
}

/// One trace of the grid with its trio of configurations.
pub struct GridBlock {
    pub label: String,
    pub trace: Trace,
    pub mods: ModSchedule,
    pub configs: [ExperimentConfig; 3],
}

/// The grid's inputs: always the committed tables' draw.
fn grid_inputs() -> Vec<GridBlock> {
    wcc_bench::paper_experiments()
        .into_iter()
        .map(|(spec, lifetime, _)| {
            let label = wcc_bench::experiment_label(&spec, lifetime);
            let base = ExperimentConfig::builder(spec)
                .mean_lifetime(lifetime)
                .seed(GOLDEN_SEED)
                .build();
            let (trace, mods) = materialise(&base);
            let configs = ProtocolKind::PAPER_TRIO.map(|kind| {
                let mut cfg = base.clone();
                cfg.protocol = ProtocolConfig::new(kind);
                cfg
            });
            GridBlock {
                label,
                trace,
                mods,
                configs,
            }
        })
        .collect()
}

/// `run_on` taken apart so the ledger can put spans between the stages and
/// read the arena counters; the report is the same.
fn run_on_spanned(
    cfg: &ExperimentConfig,
    trace: &Trace,
    mods: &ModSchedule,
    spans: &mut SpanLog,
    parent: u32,
    req: u64,
) -> (ReplayReport, ArenaStats) {
    let mut deployment = spans.scope("httpsim.build", parent, req, || {
        Deployment::build(trace, mods, &cfg.protocol, cfg.options.clone())
    });
    spans.scope("httpsim.run", parent, req, || deployment.run());
    let raw = spans.scope("httpsim.collect", parent, req, || deployment.collect());
    let report = ReplayReport {
        trace: trace.name.clone(),
        protocol: cfg.protocol.kind,
        mean_lifetime: cfg.lifetime(),
        files_modified: mods.modifications().len() as u64,
        seed: cfg.seed,
        raw,
        audit: None,
    };
    (report, deployment.alloc_stats())
}

fn absorb(total: &mut Option<ArenaStats>, stats: ArenaStats) {
    total.get_or_insert_with(ArenaStats::default).absorb(stats);
}

/// One configuration of the grid: a timed unit.
struct GridUnit {
    label: String,
    protocol: ProtocolKind,
    block: usize,
    config: usize,
    /// `Debug` of the reference pass's report.
    reference: String,
}

/// Runs `paper-grid` for about `seconds`.
pub fn run_grid(seed: u64, seconds: f64, trace: bool, root: &Path) -> SimRun {
    let mut bench = Bench::new();
    let mut spans = SpanLog::new(Instant::now());
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut blocks = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut blocks));
        let start = spans.now_us();
        let (made, sample) = bench.time(grid_inputs);
        spans.record("traces.generate", start, spans.now_us(), 0, 0);
        blocks = made;
        setup_s.push(sample.wall_norm());
    }

    // Reference pass: warms the allocator, is held to the committed tables
    // and digest, and gives the reports every timed pass must reproduce.
    let mut checks = Checks::default();
    let mut counts = ReplayCounts::default();
    let mut units: Vec<GridUnit> = Vec::new();
    let tables = [
        root.join("results/table3.txt"),
        root.join("results/table4.txt"),
    ]
    .iter()
    .map(|p| std::fs::read_to_string(p).unwrap_or_default())
    .collect::<String>();
    for (b, block) in blocks.iter().enumerate() {
        let trio: Vec<ReplayReport> = block
            .configs
            .iter()
            .map(|cfg| run_on(cfg, &block.trace, &block.mods))
            .collect();
        for (c, report) in trio.iter().enumerate() {
            let label = format!("{}/{}", block.label, report.protocol.name());
            check_invariants(
                &mut checks,
                &label,
                &report.raw,
                block.trace.records.len() as u64,
            );
            counts.add(&report.raw);
            units.push(GridUnit {
                label,
                protocol: report.protocol,
                block: b,
                config: c,
                reference: format!("{report:?}"),
            });
        }
        let text = format_trio_block(&trio);
        checks.check(tables.contains(&text), || {
            format!(
                "{}: trio block differs from results/table3.txt / table4.txt",
                block.label
            )
        });
    }
    check_golden(&mut checks, SimKind::PaperGrid, GOLDEN_SEED, &counts);
    let peak_rss_mib = procfs::peak_rss_mib();

    // The seed's part: the order the configurations run in.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..units.len()).rev() {
        units.swap(i, rng.gen_range(0..=i));
    }

    let mut passes = Vec::new();
    let mut ledger = Vec::new();
    let mut alloc = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let min_passes = if trace { 2 } else { 1 };
    bench.refresh();
    'passes: for pass in 0.. {
        let ledger_on = trace && pass % 2 == 1;
        let mut samples = Vec::with_capacity(units.len());
        let mut pass_alloc = None;
        let spans_before = spans.spans().len();
        for (u, unit) in units.iter().enumerate() {
            if pass >= min_passes && Instant::now() >= deadline {
                // Cut short: its units still count, its spans would skew
                // the per-pass layer times.
                spans.truncate(spans_before);
                if !samples.is_empty() {
                    passes.push(samples);
                    ledger.push(ledger_on);
                }
                break 'passes;
            }
            let block = &blocks[unit.block];
            let cfg = &block.configs[unit.config];
            let (report, sample) = if ledger_on {
                let start = spans.now_us();
                let parent = spans.record("replay.config", start, start, 0, u as u64);
                let ((report, stats), sample) = bench.time(|| {
                    run_on_spanned(cfg, &block.trace, &block.mods, &mut spans, parent, u as u64)
                });
                spans.set_end(parent, spans.now_us());
                absorb(&mut pass_alloc, stats);
                (report, sample)
            } else {
                bench.time(|| run_on(cfg, &block.trace, &block.mods))
            };
            samples.push(sample);
            checks.check(format!("{report:?}") == unit.reference, || {
                format!(
                    "{}: pass {pass} report differs from the reference pass",
                    unit.label
                )
            });
        }
        passes.push(samples);
        ledger.push(ledger_on);
        if pass_alloc.is_some() {
            alloc = pass_alloc;
        }
    }

    SimRun {
        kind: SimKind::PaperGrid,
        setup_s,
        unit_labels: units.iter().map(|u| u.label.clone()).collect(),
        requests: counts.requests,
        passes,
        ledger,
        counts,
        checks,
        spans,
        alloc,
        unit_protocols: units.iter().map(|u| u.protocol).collect(),
        peak_rss_mib,
        inputs: SimInputs::Grid(blocks),
    }
}

/// The `feed-storm` configuration.
pub fn feed_config() -> FamilyConfig {
    FamilyConfig::city(WorkloadFamily::RealTimeFeed).scaled_down(FEED_SCALE)
}

pub fn feed_deployment(workload: &FamilyWorkload, kind: ProtocolKind) -> Deployment {
    Deployment::build_multi(
        &workload.workloads,
        &ProtocolConfig::new(kind),
        DeploymentOptions::default(),
    )
}

/// Runs `feed-storm` for about `seconds`.
pub fn run_feed(seed: u64, seconds: f64, trace: bool) -> SimRun {
    let mut bench = Bench::new();
    let mut spans = SpanLog::new(Instant::now());
    let cfg = feed_config();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = spans.now_us();
        let (made, sample) = bench.time(|| {
            let workload = family::generate(&cfg, seed);
            let built = spans.now_us();
            let deployment = feed_deployment(&workload, ProtocolKind::Invalidation);
            (workload, deployment, built)
        });
        spans.record("traces.generate", start, made.2, 0, 0);
        spans.record("httpsim.build", made.2, spans.now_us(), 0, 0);
        setup_s.push(sample.wall_norm());
        kept = Some((made.0, made.1));
    }
    let (workload, mut deployment) = kept.expect("SETUP_REPS > 0");

    // Reference pass on the deployment set-up built.
    deployment.run();
    let reference_raw = deployment.collect();
    let reference = format!("{reference_raw:?}");
    drop(deployment);
    let mut checks = Checks::default();
    let mut counts = ReplayCounts::default();
    check_invariants(
        &mut checks,
        "feed-storm",
        &reference_raw,
        workload.total_requests(),
    );
    counts.add(&reference_raw);
    check_golden(&mut checks, SimKind::FeedStorm, seed, &counts);
    let peak_rss_mib = procfs::peak_rss_mib();
    check_audit(&mut checks, &workload, &reference);
    // Simulated time the replay is busy for; chunks split it evenly.
    let busy_us = reference_raw.wall_duration.as_micros();

    let units = FEED_CHUNKS as usize + 1;
    let unit_labels: Vec<String> = (0..FEED_CHUNKS)
        .map(|k| format!("chunk{k:02}"))
        .chain(["tail+collect".to_string()])
        .collect();
    let mut passes = Vec::new();
    let mut ledger = Vec::new();
    let mut alloc = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let min_passes = if trace { 2 } else { 1 };
    'passes: for pass in 0.. {
        let ledger_on = trace && pass % 2 == 1;
        let pass_id = pass as u64;
        let spans_before = spans.spans().len();
        let mut deployment = if ledger_on {
            spans.scope("httpsim.build", 0, pass_id, || {
                feed_deployment(&workload, ProtocolKind::Invalidation)
            })
        } else {
            feed_deployment(&workload, ProtocolKind::Invalidation)
        };
        bench.refresh();
        let mut samples = Vec::with_capacity(units);
        let mut raw = None;
        for unit in 0..units {
            if pass >= min_passes && Instant::now() >= deadline {
                spans.truncate(spans_before);
                if !samples.is_empty() {
                    passes.push(samples);
                    ledger.push(ledger_on);
                }
                break 'passes;
            }
            let start = spans.now_us();
            let (stages, sample) = bench.time(|| {
                if unit < FEED_CHUNKS as usize {
                    let until = busy_us * (unit as u64 + 1) / FEED_CHUNKS;
                    deployment.run_until(SimTime::from_micros(until));
                    (spans.now_us(), None)
                } else {
                    deployment.run();
                    let run_done = spans.now_us();
                    raw = Some(deployment.collect());
                    (run_done, Some(spans.now_us()))
                }
            });
            if ledger_on {
                spans.record("httpsim.run", start, stages.0, 0, pass_id);
                if let Some(collected) = stages.1 {
                    spans.record("httpsim.collect", stages.0, collected, 0, pass_id);
                }
            }
            samples.push(sample);
        }
        passes.push(samples);
        ledger.push(ledger_on);
        let raw = raw.expect("the last unit collects");
        checks.check(format!("{raw:?}") == reference, || {
            format!("feed-storm: pass {pass} report differs from the reference pass")
        });
        if ledger_on {
            alloc = Some(deployment.alloc_stats());
        }
    }

    SimRun {
        kind: SimKind::FeedStorm,
        setup_s,
        unit_labels,
        requests: counts.requests,
        passes,
        ledger,
        counts,
        checks,
        spans,
        alloc,
        unit_protocols: Vec::new(),
        peak_rss_mib,
        inputs: SimInputs::Feed(workload),
    }
}
