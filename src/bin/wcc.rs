//! `wcc` — the command-line front end to the webcache reproduction.
//!
//! `wcc` with no arguments prints the usage text: one line per call, each
//! a row of [`USAGE`], which is also the one list of the flags a call
//! reads. A `--flag` its row does not list is an error (exit 2 with the
//! usage text), never a silently different run; so is a `wcc bench` name
//! that is no table, or a malformed value for one of its flags.
//!
//! `--jobs N` (or the `WCC_JOBS` environment variable) sets the worker
//! count for commands that fan independent replays out over threads; the
//! output is byte-identical at any job count. One replay runs on one thread.
//!
//! `--inval-batch N` turns on the batched invalidation proposer with a
//! count threshold of `N` entries (age and byte thresholds at their
//! defaults); `--adaptive-lease` derives per-document lease durations from
//! read/write counters instead of one fixed length. Family replays bound
//! the adaptive cap by the tightest per-client freshness deadline the
//! workload carries.
//!
//! `--trace-out PATH` records every request and invalidation lifetime as
//! structured span events (sim-time keyed, deterministic) and dumps them as
//! JSONL; `wcc trace PATH` reconstructs cross-node causality from such a
//! dump. `--metrics` prints the replay's measurements as a Prometheus text
//! exposition — the same format the TCP prototype serves on `GET /metrics`.
//! `wcc serve` drains and exits on SIGTERM or SIGINT.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;
use std::process::ExitCode;
use webcache::bench::serve::{self as serve_bench, ServeBenchConfig};
use webcache::bench::tables::TABLES;
use webcache::bench::trajectory;
use webcache::core::{AdaptiveLeaseConfig, ProtocolConfig, ProtocolKind};
use webcache::fuzz::{fuzz, FuzzConfig};
use webcache::httpsim::{CacheSharing, Deployment, DeploymentOptions, Topology};
use webcache::net::{scrape, NetOrigin, NetProxy, OriginConfig};
use webcache::proto::{encode, FrameReader, GetRequest, HttpMsg, HttpMsgRef, RequestId};
use webcache::reactor::{Poller, Signals, SIGINT, SIGTERM};
use webcache::replay::tables::{format_table5_column, format_trio_block};
use webcache::replay::{ExperimentConfig, ReplayReport};
use webcache::simnet::NetworkConfig;
use webcache::traces::clf::parse_clf;
use webcache::traces::family::{self, FamilyConfig, WorkloadFamily};
use webcache::traces::{synthetic, ModSchedule, TraceSpec, TraceSummary};
use webcache::types::{ByteSize, ClientId, InvalBatchConfig, ServerId, SimDuration, SimTime, Url};

/// The process's allocator: the system's, counting each thread's
/// allocations and live bytes for the trajectory's allocation rows. The one
/// `unsafe` outside `wcc-reactor` and `vendor/`.
struct Counting;

thread_local! {
    /// This thread's allocation calls, the bytes they asked for, the bytes
    /// it holds and their high-water.
    static ALLOCATED: Cell<trajectory::Allocs> = const {
        Cell::new(trajectory::Allocs { count: 0, bytes: 0, live: 0, peak: 0 })
    };
}

/// Adds `calls` allocation calls asking for `bytes` to this thread's
/// counts, and `grown` to its live bytes (a `realloc` grows them by the
/// difference of its sizes, a `dealloc` is no call and shrinks them). A
/// `const`-initialised `Cell` never allocates, so this never re-enters the
/// allocator; a thread that is tearing its locals down goes uncounted.
fn count_alloc(calls: u64, bytes: usize, grown: i64) {
    let _ = ALLOCATED.try_with(|cell| {
        let seen = cell.get();
        let live = seen.live + grown;
        cell.set(trajectory::Allocs {
            count: seen.count + calls,
            bytes: seen.bytes + bytes as u64,
            live,
            peak: seen.peak.max(live),
        });
    });
}

/// What this thread has allocated so far, and the high-water of its live
/// bytes since the previous call, which starts the next one.
fn thread_allocs() -> trajectory::Allocs {
    let read = |cell: &Cell<trajectory::Allocs>| {
        let seen = cell.get();
        cell.set(trajectory::Allocs {
            peak: seen.live,
            ..seen
        });
        seen
    };
    ALLOCATED.try_with(read).unwrap_or_default()
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(1, layout.size(), layout.size() as i64);
        // SAFETY: the caller's `layout` contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(1, layout.size(), layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_alloc(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match raw.peek() {
                    Some(v) if !v.starts_with("--") => raw.next(),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// [`Args::value`] for a flag that means nothing without one: `--name`
    /// with no value after it is an error, not an absent flag.
    fn required_value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("--{name} expects a value")),
            value => Ok(value),
        }
    }

    /// The number `--name` carries, `None` when the flag is absent.
    fn opt_num(&self, name: &str) -> Result<Option<u64>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}"))
        };
        self.required_value(name)?.map(parse).transpose()
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }
}

/// Why a command did not succeed. `Usage` is the caller's mistake, found
/// before anything ran (exit 2, nothing on stdout); `Run` is the run's own
/// failure (exit 1).
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Run(message)
    }
}

/// One way to call `wcc`: a line of the usage text, and the flags that
/// call reads. The call tells the rows of one command apart (see
/// [`Row::is_called_by`]); the flags are the other flags it reads,
/// bracketed when optional.
struct Row(&'static str, &'static [&'static str]);

/// What [`protocol_for`] reads.
const PROTOCOL: &str = "[--protocol NAME] [--lease-days N] [--volume-mins N] [--adaptive-lease]";
/// What [`options_for`] reads, `--hierarchy` aside.
const DEPLOYMENT: &str = "[--wan] [--shared] [--cache-mib N] [--audit] [--inval-batch N]";
/// The port, documents and state of a serving origin.
const ORIGIN: &str = "[--port N] [--docs N] [--doc-scale N] [--state-file PATH]";

/// Every call `wcc` takes, as the usage text lists them. A command line is
/// a call of the first row it matches.
const USAGE: &[Row] = &[
    Row(
        "replay --family NAME",
        &[PROTOCOL, "[--scale N] [--seed N]", DEPLOYMENT],
    ),
    Row(
        "replay",
        &[
            "[--trace NAME]",
            PROTOCOL,
            "[--lifetime-days N] [--scale N] [--seed N]",
            DEPLOYMENT,
            "[--hierarchy] [--trace-out PATH] [--metrics]",
        ],
    ),
    Row(
        "trio",
        &["[--trace NAME] [--scale N] [--seed N] [--jobs N]"],
    ),
    Row(
        "compare",
        &["[--trace NAME] [--protocols a,b,c] [--scale N] [--seed N] [--jobs N]"],
    ),
    Row("trace PATH", &[]),
    Row("summary", &["[--scale N] [--seed N]"]),
    Row("clf PATH", &[PROTOCOL]),
    Row(
        "fuzz",
        &["[--iters N] [--seed N] [--shrink] [--inject-stale] [--repro PATH] [--jobs N]"],
    ),
    Row("serve --self-check", &[]),
    Row(
        "serve [--role pair]",
        &[ORIGIN, PROTOCOL, "[--cache-mib N] [--port-file PATH]"],
    ),
    Row(
        "serve --role origin",
        &[ORIGIN, PROTOCOL, "[--port-file PATH]"],
    ),
    Row(
        "serve --role proxy",
        &[
            "--origin ADDR",
            PROTOCOL,
            "[--cache-mib N] [--port-file PATH]",
        ],
    ),
    Row("bench list", &[]),
    Row(
        "bench trajectory",
        &["[--scale N] [--jobs N] [--out PATH] [--check BASELINE]"],
    ),
    Row(
        "bench serve",
        &[
            "[--connections N] [--requests N] [--docs N]",
            PROTOCOL,
            "[--soak-secs N] [--restart] [--in-process] [--out PATH]",
        ],
    ),
    Row("bench NAME", &["[--scale N] [--jobs N]"]),
    Row("protocols", &[]),
];

/// An upper-case word of the usage text stands for a value.
fn is_placeholder(word: &str) -> bool {
    word.bytes().any(|b| b.is_ascii_uppercase())
}

impl Row {
    /// Whether a command line of this row may carry `--name`.
    fn reads(&self, name: &str) -> bool {
        std::iter::once(self.0)
            .chain(self.1.iter().copied())
            .flat_map(str::split_whitespace)
            .filter_map(|word| word.trim_start_matches('[').strip_prefix("--"))
            .any(|flag| flag.trim_end_matches(']') == name)
    }

    /// Whether `args` is a call of this row: each word of the call is the
    /// command line's word in its place, and each `--flag` is given, with
    /// the value the call names. An upper-case word stands for any value,
    /// and a bracketed `[--flag value]` is also met by leaving the flag out.
    fn is_called_by(&self, args: &Args) -> bool {
        let mut positional = args.positional.iter();
        let mut words = self.0.split_whitespace().peekable();
        while let Some(word) = words.next() {
            let called = match word.trim_start_matches('[').strip_prefix("--") {
                Some(flag) => match words.next_if(|w| !w.starts_with(['-', '['])) {
                    Some(value) if !is_placeholder(value) => args
                        .value(flag)
                        .map_or(word.starts_with('['), |v| v == value.trim_end_matches(']')),
                    _ => args.flag(flag),
                },
                None => positional
                    .next()
                    .is_some_and(|p| is_placeholder(word) || p == word),
            };
            if !called {
                return false;
            }
        }
        true
    }

    /// Refuses a flag this row does not read (exit 2 with the usage text).
    fn check(&self, args: &Args) -> Result<(), Failure> {
        let Some((name, _)) = args.flags.iter().find(|(name, _)| !self.reads(name)) else {
            return Ok(());
        };
        let command = self.0.split(' ').next().unwrap_or_default();
        let complaint = match self.0.find("--") {
            Some(at) => format!("{} does not use", self.0[at..].replace(['[', ']'], "")),
            None => "unknown flag".to_string(),
        };
        Err(Failure::Usage(format!(
            "wcc {command}: {complaint} --{name}\n{}",
            usage()
        )))
    }
}

/// The usage text: one line per [`USAGE`] row, wrapped.
fn usage() -> String {
    let mut text = String::from("usage:");
    for Row(call, flags) in USAGE {
        let mut line = format!("  wcc {call}");
        for word in flags.iter().flat_map(|flags| flags.split_whitespace()) {
            // A line breaks before a flag, never between it and its value.
            if word.starts_with(['-', '[']) && line.len() + word.len() > 68 {
                text += &format!("\n{line}");
                line = " ".repeat(7);
            }
            line += &format!(" {word}");
        }
        text += &format!("\n{line}");
    }
    text
}

fn spec_for(args: &Args) -> Result<TraceSpec, String> {
    let name = args.value("trace").unwrap_or("epa");
    let spec = TraceSpec::by_name(name)
        .ok_or_else(|| format!("unknown trace {name:?}; try epa/sdsc/clarknet/nasa/sask"))?;
    let scale = args.num("scale", 1)?.max(1);
    Ok(spec.scaled_down(scale))
}

fn protocol_for(args: &Args) -> Result<ProtocolConfig, String> {
    let name = args.value("protocol").unwrap_or("invalidation");
    let kind = ProtocolKind::from_name(name).ok_or_else(|| {
        let names: Vec<_> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown protocol {name:?}; one of {}", names.join(", "))
    })?;
    let mut cfg = ProtocolConfig::new(kind);
    if let Some(days) = args.opt_num("lease-days")? {
        cfg = cfg.with_lease(SimDuration::from_days(days));
    }
    if let Some(mins) = args.opt_num("volume-mins")? {
        cfg = cfg.with_volume_lease(SimDuration::from_mins(mins));
    }
    if args.flag("adaptive-lease") {
        cfg = cfg.with_adaptive_lease(AdaptiveLeaseConfig::default());
    }
    Ok(cfg)
}

fn options_for(args: &Args) -> Result<DeploymentOptions, String> {
    let mut options = DeploymentOptions::default();
    if args.flag("wan") {
        options.network = NetworkConfig::wan();
    }
    if args.flag("hierarchy") {
        options.topology = Topology::Hierarchy;
        options.sharing = CacheSharing::SharedPerProxy;
    }
    if args.flag("shared") {
        options.sharing = CacheSharing::SharedPerProxy;
    }
    if args.flag("audit") {
        options.audit = true;
    }
    if let Some(mib) = args.opt_num("cache-mib")? {
        options.cache_capacity = ByteSize::from_mib(mib.max(1));
    }
    if let Some(entries) = args.opt_num("inval-batch")? {
        options.inval_batch = Some(InvalBatchConfig::with_max_entries(entries as usize));
    }
    Ok(options)
}

/// `--jobs N` as passed (`None` defers to `WCC_JOBS` / the core count).
fn jobs_for(args: &Args) -> Result<Option<usize>, String> {
    Ok(args.opt_num("jobs")?.map(|n| n as usize))
}

fn print_report(report: &ReplayReport) {
    let r = &report.raw;
    println!(
        "trace {} · protocol {} · lifetime {} · {} modifications · seed {}",
        report.trace, report.protocol, report.mean_lifetime, report.files_modified, report.seed
    );
    println!("  requests        {:>12}", r.requests);
    println!(
        "  hits            {:>12} ({:.1}%)",
        r.hits,
        r.hit_ratio() * 100.0
    );
    println!("  GET / IMS       {:>12} / {}", r.gets, r.ims);
    println!(
        "  200 / 304       {:>12} / {}",
        r.replies_200, r.replies_304
    );
    println!("  invalidations   {:>12}", r.invalidations);
    println!("  total messages  {:>12}", r.total_messages);
    println!("  total bytes     {:>12}", r.total_bytes.to_string());
    let fmt =
        |d: Option<webcache::types::SimDuration>| d.map_or("-".to_string(), |d| d.to_string());
    println!(
        "  latency         avg {} / min {} / max {}",
        fmt(r.latency.mean()),
        fmt(r.latency.min()),
        fmt(r.latency.max())
    );
    println!(
        "  latency tails   p50 {} / p90 {} / p99 {} / p99.9 {}",
        fmt(r.latency.median()),
        fmt(r.latency.p90()),
        fmt(r.latency.p99()),
        fmt(r.latency.p999())
    );
    println!("  server CPU      {:>11.1}%", r.server_cpu * 100.0);
    println!("  stale hits      {:>12}", r.stale_hits);
    println!(
        "  strong consistency: violations {} · writes complete {}",
        r.final_violations, r.writes_complete
    );
    if let Some(parent) = &r.parent {
        println!(
            "  hierarchy: parent hits {} · relayed {} invalidations · child lists {}",
            parent.counters.parent_hits,
            parent.counters.invalidations_relayed,
            parent.child_sitelist.total_entries
        );
    }
    if report.protocol.uses_invalidation() {
        println!("\n{}", format_table5_column(report));
    }
}

/// The simulator's own vitals for the replay just run. They describe how the
/// engine executed it, not what it computed.
fn print_engine(deployment: &Deployment, requests: u64) {
    let events = deployment.alloc_stats().allocated;
    let deferred = deployment.defer_stats();
    println!(
        "  engine          {:.2} events/request · {} deliveries deferred in {} runs (longest {})",
        events as f64 / requests.max(1) as f64,
        deferred.messages,
        deferred.runs,
        deferred.longest_run
    );
}

/// `wcc replay --family NAME`: replay a city-scale scenario family over a
/// multi-origin federation (`wcc_traces::family`). `--scale N` shrinks the
/// city preset proportionally (origin count is kept).
fn cmd_replay_family(args: &Args, name: &str) -> Result<(), String> {
    let family = WorkloadFamily::from_name(name).ok_or_else(|| {
        let names: Vec<_> = WorkloadFamily::ALL.iter().map(|f| f.name()).collect();
        format!("unknown family {name:?}; one of {}", names.join(", "))
    })?;
    let scale = args.num("scale", 1)?.max(1);
    let seed = args.num("seed", 1997)?;
    let cfg = FamilyConfig::city(family).scaled_down(scale);
    let mut protocol = protocol_for(args)?;
    let options = options_for(args)?;
    let audit = options.audit;

    let workload = family::generate(&cfg, seed);
    // Per-client freshness deadlines spread over [0.5, 1.5]× the family's
    // base, so an adaptively stretched lease must stay within half the base
    // or it could promise freshness past the tightest client's budget.
    if let (Some(lease), Some(base)) = (protocol.adaptive_lease, workload.freshness_deadline) {
        let tightest = SimDuration::from_micros(base.as_micros() / 2);
        protocol = protocol.with_adaptive_lease(lease.with_cap(lease.cap.min(tightest)));
    }
    let mut deployment = Deployment::build_multi(&workload.workloads, &protocol, options);
    deployment.run();
    let report = ReplayReport::collect(
        &deployment,
        cfg.name(),
        protocol.kind,
        cfg.mean_lifetime,
        seed,
        workload.workloads.iter().map(|(_, m)| m),
        audit,
    );
    print_report(&report);
    print_engine(&deployment, report.raw.requests);
    println!(
        "  federation      {} origins · {} requests",
        workload.workloads.len(),
        workload.total_requests()
    );
    if workload.freshness_deadline.is_some() {
        let serves = (0..deployment.proxy_ids().len())
            .flat_map(|i| deployment.proxy(i).serves())
            .map(|s| (s.url, s.client, s.trace_at, s.version));
        println!(
            "  freshness       {} of {} serves exceeded their per-client deadline",
            workload.freshness_violations(serves),
            report.raw.requests
        );
    }
    if let Some(audit) = &report.audit {
        println!("{audit}");
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    if let Some(name) = args.value("family") {
        let name = name.to_string();
        return cmd_replay_family(args, &name);
    }
    let spec = spec_for(args)?;
    let protocol = protocol_for(args)?;
    let seed = args.num("seed", 1997)?;
    let lifetime = match args.value("lifetime-days") {
        Some(d) => {
            let days: f64 = d
                .parse()
                .map_err(|_| "--lifetime-days expects a number".to_string())?;
            SimDuration::from_secs_f64(days * 86_400.0)
        }
        None => spec.default_lifetime,
    };
    let mut options = options_for(args)?;
    let trace_out = args.value("trace-out");
    // Span recording is write-only, so turning it on cannot perturb the
    // replay (the determinism suite asserts byte-identity).
    options.trace = trace_out.is_some();

    let trace = synthetic::generate(&spec, seed);
    let mods = ModSchedule::generate(spec.num_docs, lifetime, spec.duration, seed);
    let audit = options.audit;
    let mut deployment = Deployment::build(&trace, &mods, &protocol, options);
    deployment.run();
    if let Some(path) = trace_out {
        let log = deployment.trace_log();
        std::fs::write(path, webcache::obs::to_jsonl(&log))
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        println!("wrote {} trace events to {path}", log.len());
    }
    let report = ReplayReport::collect(
        &deployment,
        &trace.name,
        protocol.kind,
        lifetime,
        seed,
        [&mods],
        audit,
    );
    print_report(&report);
    print_engine(&deployment, report.raw.requests);
    if let Some(audit) = &report.audit {
        println!("{audit}");
    }
    if args.flag("metrics") {
        println!(
            "\n{}",
            webcache::replay::tables::prometheus_snapshot(&report)
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let spec = spec_for(args)?;
    let seed = args.num("seed", 1997)?;
    let names = args
        .value("protocols")
        .unwrap_or("adaptive-ttl,poll-every-time,invalidation,volume-lease");
    let kinds: Result<Vec<ProtocolKind>, String> = names
        .split(',')
        .map(|n| {
            ProtocolKind::from_name(n.trim())
                .ok_or_else(|| format!("unknown protocol {n:?} (see `wcc protocols`)"))
        })
        .collect();
    let base = ExperimentConfig::builder(spec).seed(seed).build();
    let protocols: Vec<ProtocolConfig> = kinds?.into_iter().map(ProtocolConfig::new).collect();
    let reports = webcache::replay::run_protocols(&base, &protocols, jobs_for(args)?);
    println!("{}", format_trio_block(&reports));
    Ok(())
}

fn cmd_trio(args: &Args) -> Result<(), String> {
    let spec = spec_for(args)?;
    let seed = args.num("seed", 1997)?;
    let cfg = ExperimentConfig::builder(spec).seed(seed).build();
    let trio = webcache::replay::run_trio(&cfg, jobs_for(args)?);
    println!("{}", format_trio_block(&trio));
    Ok(())
}

fn cmd_summary(args: &Args) -> Result<(), String> {
    let scale = args.num("scale", 1)?.max(1);
    let seed = args.num("seed", 1997)?;
    println!("{}", TraceSummary::header());
    for spec in TraceSpec::all() {
        let trace = synthetic::generate(&spec.scaled_down(scale), seed);
        println!("{}", TraceSummary::of(&trace));
    }
    Ok(())
}

fn cmd_clf(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| "clf needs a file path".to_string())?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (trace, skipped) = parse_clf(std::io::BufReader::new(file), path)
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    println!(
        "parsed {} records ({skipped} skipped)\n{}\n{}",
        trace.records.len(),
        TraceSummary::header(),
        TraceSummary::of(&trace)
    );
    let protocol = protocol_for(args)?;
    let mods = ModSchedule::none(trace.doc_count() as u32);
    let mut deployment = Deployment::build(&trace, &mods, &protocol, DeploymentOptions::default());
    deployment.run();
    let report = ReplayReport::collect(
        &deployment,
        &trace.name,
        protocol.kind,
        SimDuration::ZERO,
        0,
        [&mods],
        false,
    );
    print_report(&report);
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    use std::collections::{BTreeMap, BTreeSet};
    use webcache::obs::{Histogram, Phase, SpanKind, TraceEvent};

    let path = args
        .positional
        .get(1)
        .ok_or_else(|| "trace needs a file path".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events =
        webcache::obs::from_jsonl(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    if events.is_empty() {
        println!("empty trace log");
        return Ok(());
    }

    let nodes: BTreeSet<&str> = events.iter().map(|e| e.node.as_str()).collect();
    println!(
        "{} events across {} nodes ({})",
        events.len(),
        nodes.len(),
        nodes.into_iter().collect::<Vec<_>>().join(", ")
    );

    // Request lifetimes: proxy-side spans, keyed by (node, span id). The
    // origin records its half under the wire RequestId instead — which the
    // proxy's Upstream/Reply events carry in `req`, so the join across
    // nodes goes proxy span → req id → origin event.
    let mut requests: BTreeMap<(&str, u64), Vec<&TraceEvent>> = BTreeMap::new();
    let mut origin_reqs: BTreeSet<u64> = BTreeSet::new();
    let mut invalidations: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in &events {
        match e.kind {
            SpanKind::Request if e.phase == Phase::Origin => {
                origin_reqs.insert(e.span);
            }
            SpanKind::Request => {
                requests
                    .entry((e.node.as_str(), e.span))
                    .or_default()
                    .push(e);
            }
            SpanKind::Invalidation => invalidations.entry(e.span).or_default().push(e),
        }
    }

    let mut fetch_latency = Histogram::default();
    let (mut hits, mut upstream_spans, mut joined) = (0u64, 0u64, 0u64);
    let mut slowest: Vec<(u64, String, u64)> = Vec::new();
    for ((node, span), evs) in &requests {
        if evs.iter().any(|e| e.phase == Phase::Hit) {
            hits += 1;
        }
        let first_upstream = evs.iter().find(|e| e.phase == Phase::Upstream);
        let last_reply = evs.iter().rev().find(|e| e.phase == Phase::Reply);
        if first_upstream.is_some() {
            upstream_spans += 1;
        }
        if let (Some(up), Some(reply)) = (first_upstream, last_reply) {
            let micros = (reply.at - up.at).as_micros();
            fetch_latency.record(micros);
            slowest.push((micros, format!("{node} span {span} {}", up.url), *span));
            if up.req.is_some_and(|req| origin_reqs.contains(&req)) {
                joined += 1;
            }
        }
    }

    let fmt_us = |us: Option<u64>| match us {
        Some(us) => SimDuration::from_micros(us).to_string(),
        None => "-".to_string(),
    };
    println!(
        "\nrequests: {} spans · {hits} cache hits · {upstream_spans} fetched upstream \
         ({joined} joined to an origin event)",
        requests.len()
    );
    println!(
        "  upstream latency  p50 {} / p90 {} / p99 {} / max {} (n={})",
        fmt_us(fetch_latency.p50()),
        fmt_us(fetch_latency.p90()),
        fmt_us(fetch_latency.p99()),
        fmt_us(fetch_latency.max()),
        fetch_latency.count()
    );

    let mut write_to_quorum = Histogram::default();
    let (mut writes, mut quorums, mut fanout, mut acks) = (0u64, 0u64, 0u64, 0u64);
    for evs in invalidations.values() {
        let write = evs.iter().find(|e| e.phase == Phase::Write);
        let quorum = evs.iter().rev().find(|e| e.phase == Phase::Quorum);
        writes += u64::from(write.is_some());
        quorums += u64::from(quorum.is_some());
        fanout += evs.iter().filter(|e| e.phase == Phase::Invalidate).count() as u64;
        acks += evs.iter().filter(|e| e.phase == Phase::Ack).count() as u64;
        if let (Some(w), Some(q)) = (write, quorum) {
            write_to_quorum.record((q.at - w.at).as_micros());
        }
    }
    println!(
        "invalidations: {writes} writes · {fanout} INVALIDATEs fanned out · \
         {acks} acks · {quorums} completed"
    );
    println!(
        "  write→complete    p50 {} / p90 {} / p99 {} / max {} (n={})",
        fmt_us(write_to_quorum.p50()),
        fmt_us(write_to_quorum.p90()),
        fmt_us(write_to_quorum.p99()),
        fmt_us(write_to_quorum.max()),
        write_to_quorum.count()
    );

    slowest.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.2.cmp(&b.2)));
    if !slowest.is_empty() {
        println!("\nslowest upstream fetches:");
        for (micros, label, _) in slowest.iter().take(5) {
            println!(
                "  {:>12}  {label}",
                SimDuration::from_micros(*micros).to_string()
            );
        }
    }
    Ok(())
}

fn cmd_fuzz(args: &Args) -> Result<(), String> {
    let config = FuzzConfig {
        iters: args.num("iters", 100)?,
        seed: args.num("seed", 1)?,
        shrink: args.flag("shrink"),
        inject_stale_serve: args.flag("inject-stale"),
        jobs: jobs_for(args)?.unwrap_or(0),
    };
    let outcome = fuzz(&config);
    print!("{outcome}");
    if let Some(found) = &outcome.failure {
        let repro = found.repro();
        match args.value("repro") {
            Some(path) => {
                std::fs::write(path, &repro)
                    .map_err(|e| format!("cannot write repro to {path}: {e}"))?;
                println!("  repro written to {path}");
            }
            None => print!("\n{repro}"),
        }
    }
    if outcome.passed() {
        Ok(())
    } else {
        Err("fuzz: oracle violation (see repro above)".to_string())
    }
}

/// Spawns a pair in-process, drives one keep-alive connection with two
/// pipelined requests, scrapes `/metrics`, and shuts down — the smoke
/// test `verify.sh` runs.
fn serve_self_check() -> Result<(), String> {
    use std::io::Write as _;
    let e = |err: std::io::Error| format!("serve self-check: {err}");
    let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 8],
        protocol: protocol.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .map_err(e)?;
    let proxy =
        NetProxy::spawn(origin.addr(), &protocol, 0, 1, ByteSize::from_mib(16)).map_err(e)?;

    let mut stream = std::net::TcpStream::connect(proxy.client_addr()).map_err(e)?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(e)?;
    let mut payload = Vec::new();
    let mut req = RequestId::default();
    for doc in 0..2u32 {
        req = req.next();
        payload.extend_from_slice(&encode(&HttpMsg::Get(GetRequest {
            req,
            url: Url::new(ServerId::new(0), doc),
            client: ClientId::from_raw(1),
            ims: None,
            issued_at: SimTime::from_secs(1),
            cache_hits: 0,
        })));
    }
    stream.write_all(&payload).map_err(e)?;
    let mut reader = FrameReader::new(stream);
    for _ in 0..2 {
        match reader.next_msg() {
            Ok(HttpMsgRef::Reply(_)) => {}
            other => return Err(format!("serve self-check: expected a reply, got {other:?}")),
        }
    }
    drop(reader);

    let metrics = scrape(proxy.client_addr()).map_err(e)?;
    if !metrics.contains("wcc_requests_total{node=\"proxy\"} 2") {
        return Err(format!(
            "serve self-check: /metrics did not count the requests:\n{metrics}"
        ));
    }
    drop(proxy);
    drop(origin);
    println!("serve self-check: ok (2 pipelined replies, metrics scraped, clean shutdown)");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), Failure> {
    if args.flag("self-check") {
        return Ok(serve_self_check()?);
    }
    let role = args.value("role").unwrap_or("pair");
    let usage_error = |message: String| Failure::Usage(format!("wcc serve: {message}"));
    let port = args.num("port", 0)?;
    let docs = args.num("docs", 256)?.max(1) as usize;
    let doc_scale = args.num("doc-scale", 100)?;
    let cache_mib = args.num("cache-mib", 64)?;
    let protocol = protocol_for(args)?;
    let state_file = args.value("state-file").map(str::to_string);
    // A state file left behind means the previous instance died without a
    // clean shutdown: its in-memory site lists are gone, so come back up
    // in the paper's §5 recovery mode (bulk-invalidate every proxy that
    // reconnects until each one acks).
    let recovering = state_file
        .as_deref()
        .is_some_and(|p| std::path::Path::new(p).exists());

    let e = |err: std::io::Error| format!("serve: {err}");
    let bind: SocketAddr = format!("127.0.0.1:{port}")
        .parse()
        .map_err(|_| format!("serve: bad --port {port}"))?;
    let origin_cfg = OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); docs],
        protocol: protocol.clone(),
        doc_scale,
        inval_batch: None,
    };

    let (origin, proxy) = match role {
        "origin" => (
            Some(NetOrigin::spawn_at(bind, origin_cfg, recovering).map_err(e)?),
            None,
        ),
        "proxy" => {
            let upstream: SocketAddr = args
                .value("origin")
                .ok_or_else(|| usage_error("--role proxy needs --origin ADDR".to_string()))?
                .parse()
                .map_err(|_| usage_error("--origin expects HOST:PORT".to_string()))?;
            let proxy = NetProxy::spawn(upstream, &protocol, 0, 1, ByteSize::from_mib(cache_mib))
                .map_err(e)?;
            (None, Some(proxy))
        }
        "pair" => {
            let origin = NetOrigin::spawn_at(bind, origin_cfg, recovering).map_err(e)?;
            let proxy = NetProxy::spawn(
                origin.addr(),
                &protocol,
                0,
                1,
                ByteSize::from_mib(cache_mib),
            )
            .map_err(e)?;
            (Some(origin), Some(proxy))
        }
        _ => {
            let message = format!("unknown --role {role:?}; pair, origin or proxy");
            return Err(usage_error(message));
        }
    };
    if recovering {
        eprintln!("serve: stale state file found — running §5 site-list recovery");
    }

    // Publish the listening addresses — on stdout for humans, and
    // atomically into --port-file for harnesses that wait on it.
    let mut lines = String::new();
    if let Some(o) = &origin {
        lines.push_str(&format!("origin={}\n", o.addr()));
    }
    if let Some(p) = &proxy {
        lines.push_str(&format!("client={}\n", p.client_addr()));
    }
    print!("{lines}");
    if let Some(path) = args.value("port-file") {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, &lines).map_err(|e| format!("serve: cannot write {tmp}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("serve: cannot publish {path}: {e}"))?;
    }
    if let Some(path) = &state_file {
        std::fs::write(path, b"wcc-serve/1\n")
            .map_err(|e| format!("serve: cannot write state file {path}: {e}"))?;
    }

    // Signals are the daemon's only input: SIGTERM/SIGINT drain in-flight
    // requests and exit. The loop blocks in the poller, so an idle daemon
    // costs nothing.
    let signals = Signals::install(&[SIGINT, SIGTERM]).map_err(e)?;
    let mut poller = Poller::new().map_err(e)?;
    signals.register(&mut poller, 0).map_err(e)?;
    let mut events = Vec::new();
    eprintln!("serve: up (role {role}, pid {})", std::process::id());
    // EINTR from the signal itself is fine; the pipe byte persists.
    let sig = loop {
        let _ = poller.wait(&mut events, None);
        if let Some(sig) = signals.try_recv() {
            break sig;
        }
    };
    eprintln!("serve: signal {sig}, draining");
    // Drop order matters: the proxy drains client replies while its
    // upstream is still alive.
    drop(proxy);
    drop(origin);
    if let Some(path) = &state_file {
        let _ = std::fs::remove_file(path);
    }
    if let Some(path) = args.value("port-file") {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("serve: shutdown complete");
    Ok(())
}

/// `wcc bench <what>`: a paper table by name, `list`, `trajectory` or
/// `serve`. Everything that can be wrong with the command line is found
/// before anything runs.
fn cmd_bench(args: &Args) -> Result<(), Failure> {
    let usage_error = |message: String| Failure::Usage(format!("wcc bench: {message}"));
    let name = match args.positional.as_slice() {
        [_, name] => name.as_str(),
        _ => return Err(usage_error(format!("expects one name\n{}", usage()))),
    };
    let scale = || args.num("scale", 1).map_err(usage_error);
    let jobs = || jobs_for(args).map_err(usage_error);
    match name {
        "serve" => cmd_bench_serve(args)?,
        "list" => {
            for (name, artifact, ..) in TABLES {
                println!("{name:<22}{artifact}");
            }
        }
        "trajectory" => {
            let out = args.required_value("out").map_err(usage_error)?;
            let check = args.required_value("check").map_err(usage_error)?;
            cmd_bench_trajectory(scale()?.max(1), jobs()?, out, check)?;
        }
        _ => {
            let Some((_, _, min_scale, table)) = TABLES.iter().find(|(n, ..)| *n == name) else {
                let names: Vec<_> = TABLES.iter().map(|(n, ..)| *n).collect();
                return Err(usage_error(format!(
                    "no table {name:?}; one of {}, or trajectory, serve, list",
                    names.join(", ")
                )));
            };
            table(scale()?.max(*min_scale), jobs()?);
        }
    }
    Ok(())
}

/// Writes or checks the bench trajectory report (`BENCH_replay.json`).
///
/// Default mode runs every pass of `wcc_bench::trajectory` at `scale`,
/// prints the table of rows and writes the flat JSON report to `out`
/// (default `BENCH_replay.json`, i.e. the repo root when run from there).
///
/// With `check` the run is instead judged against the committed report at
/// that path: the scale is taken from the baseline, every Exact row must
/// equal it, and no row may be missing on either side. The fresh report is
/// written only when `out` is given.
///
/// Either way the command fails when any row says FAIL — a Holds predicate
/// (byte identity, proposer cut, decode copies) is judged with or without a
/// baseline.
fn cmd_bench_trajectory(
    scale: u64,
    jobs: Option<usize>,
    out: Option<&str>,
    check: Option<&str>,
) -> Result<(), String> {
    let baseline = check
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| trajectory::read_flat(&text))
                .map_err(|e| format!("trajectory: cannot read baseline {path}: {e}"))
        })
        .transpose()?;
    let scale = match &baseline {
        None => scale,
        Some(rows) => match rows.iter().find(|(key, _)| key == "scale") {
            Some((_, trajectory::Value::Int(scale))) => *scale,
            _ => return Err("trajectory: the baseline carries no integer \"scale\" row".into()),
        },
    };

    eprintln!("trajectory: grid + inner loop + family + proposer at scale 1/{scale} ...");
    let report = trajectory::run(scale, jobs, Some(thread_allocs));
    let (table, passed) = report.judge(baseline.as_deref());
    print!("{table}");
    if let Some(out) = out.or_else(|| check.is_none().then_some("BENCH_replay.json")) {
        std::fs::write(out, report.to_json())
            .map_err(|e| format!("trajectory: cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    if !passed {
        return Err("trajectory: FATAL: gate failed (see the FAIL rows)".to_string());
    }
    if let Some(path) = check {
        println!("bench-regression gate against {path}: PASS");
    }
    Ok(())
}

fn cmd_bench_serve(args: &Args) -> Result<(), String> {
    let cfg = ServeBenchConfig {
        connections: args.num("connections", 64)? as usize,
        requests_per_conn: args.num("requests", 16)?,
        docs: args.num("docs", 64)?.max(1),
        protocol: protocol_for(args)?,
        soak_secs: args.opt_num("soak-secs")?,
        restart: args.flag("restart"),
        // Out-of-process serving kicks in automatically when the fd
        // budget demands it; --in-process pins everything local.
        exe: if args.flag("in-process") {
            None
        } else {
            std::env::current_exe().ok()
        },
    };
    let report = serve_bench::run(&cfg).map_err(|e| format!("bench serve: {e}"))?;
    let json = report.to_json();
    match args.value("out") {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| format!("bench serve: cannot write {path}: {e}"))?;
            eprintln!("bench serve: stats written to {path}");
        }
        None => print!("{json}"),
    }
    eprintln!(
        "bench serve: {} conns, {} replies, {} dropped, {} stale, p99 {}us, {:.0} req/s{}",
        report.connections,
        report.requests,
        report.dropped,
        report.stale,
        report.latency.p99().unwrap_or(0),
        report.requests_per_sec(),
        if report.external {
            " (external daemon)"
        } else {
            ""
        },
    );
    if report.stale > 0 {
        return Err(format!(
            "bench serve: {} stale serves audited",
            report.stale
        ));
    }
    if cfg.restart && !report.recovered {
        return Err("bench serve: origin recovery did not complete".to_string());
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), Failure> {
    if let Some(row) = USAGE.iter().find(|row| row.is_called_by(args)) {
        row.check(args)?;
    }
    match args.positional.first().map(String::as_str) {
        Some("replay") => cmd_replay(args)?,
        Some("trio") => cmd_trio(args)?,
        Some("compare") => cmd_compare(args)?,
        Some("trace") => cmd_trace(args)?,
        Some("summary") => cmd_summary(args)?,
        Some("clf") => cmd_clf(args)?,
        Some("fuzz") => cmd_fuzz(args)?,
        Some("serve") => cmd_serve(args)?,
        Some("bench") => cmd_bench(args)?,
        Some("protocols") => {
            for kind in ProtocolKind::ALL {
                let strength = if kind.is_strong() { "strong" } else { "weak" };
                println!("{:<20} {strength}", kind.name());
            }
        }
        _ => return Err(Failure::Run(usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let (message, code) = match run(&Args::parse(std::env::args().skip(1))) {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Usage(message)) => (message, ExitCode::from(2)),
        Err(Failure::Run(message)) => (message, ExitCode::FAILURE),
    };
    eprintln!("{message}");
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each call the usage text shows, as words `wcc` could be run with:
    /// the line and its continuations, brackets gone.
    fn calls_in_usage() -> Vec<Vec<String>> {
        let mut calls: Vec<Vec<String>> = Vec::new();
        for line in usage().lines().skip(1) {
            let words = line
                .split_whitespace()
                .map(|w| w.trim_matches(['[', ']']).to_string());
            match line.strip_prefix("  wcc ") {
                Some(_) => calls.push(words.skip(1).collect()),
                None => calls.last_mut().expect("a call comes first").extend(words),
            }
        }
        calls
    }

    /// Both directions: every flag a line shows is one its row accepts, and
    /// every flag a row accepts is on its line.
    #[test]
    fn every_flag_in_usage_is_accepted_and_removed_ones_are_not() {
        let calls = calls_in_usage();
        assert_eq!(calls.len(), USAGE.len());
        let shown = |words: &[String]| -> Vec<String> {
            let flags = words.iter().filter_map(|w| w.strip_prefix("--"));
            flags.map(str::to_string).collect()
        };
        let every_flag: Vec<String> = calls.iter().flat_map(|words| shown(words)).collect();
        assert!(every_flag.len() > 80, "usage parsed: {calls:?}");
        for (row, words) in USAGE.iter().zip(&calls) {
            let args = Args::parse(words.iter().cloned());
            let called = USAGE.iter().find(|r| r.is_called_by(&args));
            assert_eq!(called.map(|r| r.0), Some(row.0), "{words:?}");
            assert!(row.check(&args).is_ok(), "{words:?}");
            let on_line = shown(words);
            for flag in &every_flag {
                assert_eq!(
                    row.reads(flag),
                    on_line.contains(flag),
                    "{} --{flag}",
                    row.0
                );
            }
            for removed in ["shards", "decoupled"] {
                assert!(!row.reads(removed), "{} --{removed}", row.0);
            }
        }
        let serve = Args::parse(["serve".to_string()].into_iter());
        let called = USAGE.iter().find(|r| r.is_called_by(&serve));
        assert_eq!(called.map(|r| r.0), Some("serve [--role pair]"));
    }
}
