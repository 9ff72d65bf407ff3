//! The bench trajectory: one ordered table of gated rows.
//!
//! Speed lives in `benchmark/` (calibrated, A/B against the parent commit);
//! **exactness lives here**. [`run`] replays four fixed-seed workloads and
//! every pass pushes `Row { key, value, gate }` into one [`Report`]:
//!
//! * **grid** — the Tables 3 + 4 grid (six experiments × three protocols =
//!   18 replays) sequentially and fanned out over the worker pool; the
//!   parallel pass must reproduce the sequential one byte for byte
//!   (`Debug`-string comparison, the oracle of `tests/determinism.rs`). The
//!   18 × 3 latency quantiles land as `tail.<trace>.<protocol>.<quantile>`
//!   rows.
//! * **inner loop** — the EPA invalidation replay on one thread, floored at
//!   the scale-2 workload (20 329 requests) so the arena's counters are
//!   measured past the slab's warm-up ramp, plus the zero-copy decode probe
//!   ([`wcc_proto::codec_sweep`] over the same trace as wire traffic) and,
//!   as Info rows, what encoding and decoding that traffic costs per message.
//! * **family** — the flash-crowd federation (`FamilyConfig::city`, 64
//!   origins); its state is held by the measured `family.peak_live_bytes`.
//! * **proposer** — the flash-crowd and breaking-news write storms under
//!   per-write fan-out and under the default batched proposer.
//! * **serve** — an in-process `NetOrigin` and `NetProxy` over loopback:
//!   a warm-up that caches every document, then a fixed run of hits, one
//!   request per turn of the proxy's thread.
//!
//! The inner-loop replay, the family replay and the two batched storms
//! (whose acknowledgements are `InvalidateBatchAck`s) also report what they
//! allocated on the calling thread, split at the start of the replay loop:
//! `<pass>.setup_allocs` and `<pass>.setup_alloc_bytes` for materialising the
//! trace and building the deployment, `<pass>.run_allocs` and
//! `<pass>.run_alloc_bytes` for `Deployment::run`, and
//! `<pass>.peak_live_bytes`, the most heap the pass held at once above what
//! the thread held when it began. One replay runs on one thread, so the
//! counts are as deterministic as the replay. `codec.run_allocs` /
//! `.run_alloc_bytes` count the inner loop's encode and decode loops over
//! its wire corpus, and `serve.run_allocs` / `.run_alloc_bytes` what the
//! proxy's thread allocated over the serve pass's hits (read on that
//! thread): together they hold the simulator's dispatch, the codec and the
//! serve tier's reactor to what they allocate per event, per frame and
//! per hit. The counts come
//! from the [`Allocs`] reader
//! the caller hands [`run`]; a caller without one (no counting allocator in
//! the process) gets those rows as Info zeros, which no check compares.
//!
//! A row's [`Gate`] says what the check does with it: **Exact** rows come
//! off the simulation clock and must equal the committed baseline
//! (`BENCH_replay.json`) on any host; **Holds** rows are predicates on the
//! current run and must be `true`; **Info** rows (wall milliseconds,
//! requests per second, worker and core counts, workspace size) are written
//! and printed but never compared. No gate needs a tolerance or a host
//! identity, so `wcc bench trajectory --check` binds locally and in CI alike.
//!
//! [`Report::to_json`] emits the table as one flat JSON object,
//! [`read_flat`] is its strict reader and [`Report::judge`] the one loop
//! that compares the two. Adding a value is one `push`.
//!
//! This is the one module in the workspace allowed to read the wall clock
//! (`Instant::now`): the Info rows measure real elapsed time and feed
//! nothing back into any simulation. The module-wide `#![expect]` below
//! waives clippy's `disallowed_methods` for exactly this file.

#![expect(
    clippy::disallowed_methods,
    reason = "the Info rows time real work and feed nothing back into a simulation"
)]

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

use crate::tables::{grid_configs, micros};
use crate::{paper_experiments, TABLE_SEED};
use wcc_core::{ProposerStats, ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions, RawReport};
use wcc_net::{NetOrigin, NetProxy, OriginConfig};
use wcc_proto::{GetRequest, HttpMsg, HttpMsgRef, RequestId};
use wcc_replay::{run_batch, ExperimentConfig};
use wcc_traces::family::{self, FamilyConfig, FamilyWorkload, WorkloadFamily};
use wcc_traces::TraceSpec;
use wcc_types::{ByteSize, ClientId, InvalBatchConfig, ServerId, SimTime, Url};

/// Schema tag of the emitted report — itself the table's first Exact row.
pub const SCHEMA: &str = "wcc-bench-trajectory/16";

/// Heap allocations made, and the bytes they asked for, on the calling
/// thread since it started (a `realloc` counts as one, at its new size),
/// with the bytes the thread holds and their high-water since the previous
/// reading (each reading starts a new one). Over a window (what `counted`
/// returns) every field is the window's: `live` its net growth, `peak` its
/// high-water above its start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls.
    pub count: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// Bytes allocated less bytes freed (a thread that frees another's
    /// allocations can hold fewer than none).
    pub live: i64,
    /// The most `live` has been.
    pub peak: i64,
}

/// Window `self`, then window `next` right after it.
impl std::ops::Add for Allocs {
    type Output = Allocs;
    fn add(self, next: Allocs) -> Allocs {
        Allocs {
            count: self.count + next.count,
            bytes: self.bytes + next.bytes,
            live: self.live + next.live,
            peak: self.peak.max(self.live + next.peak),
        }
    }
}

/// Reads the calling thread's [`Allocs`] before and after `work`; `None`
/// reads nothing and counts zero.
fn counted<T>(allocs: Option<fn() -> Allocs>, work: impl FnOnce() -> T) -> (T, Allocs) {
    let read = || allocs.map_or(Allocs::default(), |read| read());
    let before = read();
    let result = work();
    let after = read();
    let window = Allocs {
        count: after.count - before.count,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
        peak: (after.peak - before.live).max(0),
    };
    (result, window)
}

/// What a pass allocated before its replay loop and in it.
#[derive(Debug, Clone, Copy)]
struct Phases {
    setup: Allocs,
    run: Allocs,
}

impl Phases {
    /// The most the pass held live at once, above what it began with.
    fn peak(self) -> u64 {
        (self.setup + self.run).peak.max(0) as u64
    }
}

/// Builds a deployment with `build` and runs it, counting each phase.
fn build_and_run(
    allocs: Option<fn() -> Allocs>,
    build: impl FnOnce() -> Deployment,
) -> (Deployment, Phases) {
    let (mut deployment, setup) = counted(allocs, build);
    let (_, run) = counted(allocs, || deployment.run());
    (deployment, Phases { setup, run })
}

/// How an allocation row is judged: Exact when counted, Info zeros
/// otherwise.
fn alloc_gate(allocs: Option<fn() -> Allocs>) -> Gate {
    if allocs.is_some() {
        Gate::Exact
    } else {
        Gate::Info
    }
}

/// `<pass>.<phase>_allocs` and `<pass>.<phase>_alloc_bytes`.
fn push_phase(report: &mut Report, pass: &str, phase: &str, counted: Allocs, gate: Gate) {
    report.push(format!("{pass}.{phase}_allocs"), counted.count, gate);
    report.push(format!("{pass}.{phase}_alloc_bytes"), counted.bytes, gate);
}

/// `pass`'s allocation rows and its live-heap high-water `peak`.
fn push_allocs(
    report: &mut Report,
    pass: &str,
    phases: Phases,
    peak: u64,
    allocs: Option<fn() -> Allocs>,
) {
    let gate = alloc_gate(allocs);
    push_phase(report, pass, "setup", phases.setup, gate);
    push_phase(report, pass, "run", phases.run, gate);
    report.push(format!("{pass}.peak_live_bytes"), peak, gate);
}

/// A reported scalar: the three JSON kinds the flat report carries, with
/// numbers split into counts and (three-decimal) quotients.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count or a duration in whole units.
    Int(u64),
    /// A derived quotient, rendered with three decimals.
    Real(f64),
    /// An identity flag or predicate outcome.
    Bool(bool),
    /// A name. Never contains `"`, `\` or a line break, so it needs no
    /// escaping ([`Report::push`] asserts it).
    Text(String),
}

impl fmt::Display for Value {
    /// The value as its JSON token — also the form two values are compared
    /// in, so a quotient matches its own three-decimal rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Real(x) => write!(f, "{x:.3}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "\"{s}\""),
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Real(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

/// What [`Report::judge`] does with a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Off the simulation clock: must equal the baseline's row on any host.
    Exact,
    /// A predicate on the current run alone: the value must be `true`.
    Holds,
    /// Host-dependent (wall time, throughput, core counts): written and
    /// printed, never compared.
    Info,
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Dotted, report-wide unique name (`tail.NASA.invalidation.p99_us`).
    pub key: String,
    /// The measurement.
    pub value: Value,
    /// How the check treats it.
    pub gate: Gate,
}

/// The trajectory report: rows in push order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    rows: Vec<Row>,
}

impl Report {
    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key, and on a key or text value that would
    /// need JSON escaping — both are programming errors in a pass.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>, gate: Gate) {
        let (key, value) = (key.into(), value.into());
        let plain = |s: &str| !s.contains(['"', '\\', '\n']);
        assert!(plain(&key), "row key {key:?} needs escaping");
        if let Value::Text(text) = &value {
            assert!(plain(text), "row {key}: text {text:?} needs escaping");
        }
        assert!(self.get(&key).is_none(), "duplicate row key {key}");
        self.rows.push(Row { key, value, gate });
    }

    /// The rows, in push order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.rows.iter().find(|r| r.key == key).map(|r| &r.value)
    }

    /// The table as one flat JSON object, a row per line in push order
    /// (`jq '."tail.NASA.invalidation.p99_us"'` reads a value back).
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("  \"{}\": {}", r.key, r.value))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Renders the table and judges every gate; returns the text and
    /// whether everything passed.
    ///
    /// Holds rows are judged on this run alone. With a `baseline` (a
    /// committed report through [`read_flat`]) every Exact row must also
    /// render to the baseline's token, and the two key sets must be equal:
    /// a row missing on either side is a FAIL, whatever its gate.
    pub fn judge(&self, baseline: Option<&[(String, Value)]>) -> (String, bool) {
        let mut table = format!(
            "{:<40} {:>26} {:>26}  {:<5} verdict\n",
            "row", "baseline", "current", "gate"
        );
        let mut line = |key: &str, base: &str, cur: &str, gate: &str, verdict: &str| {
            table.push_str(&format!(
                "{key:<40} {base:>26} {cur:>26}  {gate:<5} {verdict}\n"
            ));
        };
        let mut passed = true;
        for row in &self.rows {
            let base = baseline
                .and_then(|b| b.iter().find(|(k, _)| *k == row.key))
                .map(|(_, v)| v.to_string());
            let cur = row.value.to_string();
            let verdict = match row.gate {
                _ if baseline.is_some() && base.is_none() => "FAIL (missing from the baseline)",
                Gate::Holds if row.value != Value::Bool(true) => "FAIL (must be true)",
                Gate::Exact if base.as_ref().is_some_and(|b| *b != cur) => {
                    "FAIL (must equal the baseline)"
                }
                Gate::Exact if base.is_none() => "-",
                Gate::Info => "-",
                Gate::Exact | Gate::Holds => "ok",
            };
            passed &= !verdict.starts_with("FAIL");
            let base = base.as_deref().unwrap_or("-");
            line(&row.key, base, &cur, &format!("{:?}", row.gate), verdict);
        }
        for (key, value) in baseline.unwrap_or_default() {
            if self.get(key).is_none() {
                passed = false;
                let base = value.to_string();
                line(key, &base, "-", "-", "FAIL (missing from this run)");
            }
        }
        (table, passed)
    }
}

/// Reads a report written by [`Report::to_json`]: one flat JSON object
/// whose values are numbers, strings or booleans.
///
/// Strict by design — the baseline is machine-written, so anything else is
/// corruption: a nested value, a duplicate key, a string that is
/// unterminated or carries an escape, and bytes after the closing brace are
/// all errors.
pub fn read_flat(doc: &str) -> Result<Vec<(String, Value)>, String> {
    fn near(s: &str) -> String {
        s.chars().take(24).collect()
    }
    fn string(s: &str) -> Result<(&str, &str), String> {
        let body = s
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a string at {:?}", near(s)))?;
        match body.find(['"', '\\', '\n']) {
            Some(end) if body[end..].starts_with('"') => Ok((&body[..end], &body[end + 1..])),
            _ => Err(format!(
                "unterminated or escaped string at {:?}",
                near(body)
            )),
        }
    }
    fn scalar(s: &str) -> Result<(Value, &str), String> {
        if s.starts_with('"') {
            let (text, rest) = string(s)?;
            return Ok((Value::Text(text.to_string()), rest));
        }
        let end = s
            .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
            .unwrap_or(s.len());
        let (token, rest) = s.split_at(end);
        let parts: Vec<&str> = token.split('.').collect();
        let digits = parts.len() <= 2
            && parts
                .iter()
                .all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()));
        let value = match token {
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            _ if digits && parts.len() == 2 => token.parse().map(Value::Real).ok(),
            _ if digits => token.parse().map(Value::Int).ok(),
            _ => None,
        }
        .ok_or_else(|| format!("expected a number, string or bool at {:?}", near(s)))?;
        Ok((value, rest))
    }

    let mut rest = doc
        .trim_start()
        .strip_prefix('{')
        .ok_or("expected '{' to open the report")?;
    let mut rows: Vec<(String, Value)> = Vec::new();
    loop {
        let (key, after) = string(rest.trim_start())?;
        let after = after
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key {key:?}"))?;
        let (value, after) = scalar(after.trim_start())?;
        if rows.iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        rows.push((key.to_string(), value));
        let after = after.trim_start();
        if let Some(next) = after.strip_prefix(',') {
            rest = next;
        } else if let Some(tail) = after.strip_prefix('}') {
            return if tail.trim().is_empty() {
                Ok(rows)
            } else {
                Err(format!("trailing bytes after the report: {:?}", near(tail)))
            };
        } else {
            return Err(format!("expected ',' or '}}' at {:?}", near(after)));
        }
    }
}

/// Unique per-experiment labels for the grid, in table order: the trace
/// names, with the two SDSC lifetime variants told apart by the paper's
/// modification counts (`SDSC(57)`, `SDSC(576)`). They come from
/// [`paper_experiments`]' fixed counts, not the scaled spec, so every scale
/// emits the same `tail.*` keys.
fn grid_trace_labels() -> Vec<String> {
    paper_experiments()
        .iter()
        .map(|(spec, _, paper_mods)| match spec.name {
            "SDSC" => format!("SDSC({paper_mods})"),
            name => name.to_string(),
        })
        .collect()
}

/// Runs `work` and returns its result with the elapsed wall milliseconds,
/// rounded up to 1 so a quotient over them never divides by zero.
fn timed<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let result = work();
    (result, (start.elapsed().as_millis() as u64).max(1))
}

/// `Debug`-string identity of two reports (or report lists) — the
/// determinism oracle.
fn identical<T: fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Runs every pass at `scale` and returns the table. `jobs` follows the
/// usual resolution ([`wcc_replay::effective_jobs`]): explicit value, else
/// `WCC_JOBS`, else the core count. `allocs` reads the calling thread's
/// allocation counts (see the module docs).
pub fn run(scale: u64, jobs: Option<usize>, allocs: Option<fn() -> Allocs>) -> Report {
    let jobs = wcc_replay::effective_jobs(jobs);
    let mut report = Report::default();
    report.push("schema", SCHEMA, Gate::Exact);
    report.push("scale", scale, Gate::Exact);
    report.push("jobs", jobs, Gate::Info);
    report.push("host_cores", wcc_replay::host_cores(), Gate::Info);
    grid(&mut report, scale, jobs);
    inner_loop(&mut report, scale, allocs);
    let storm = family(&mut report, scale, allocs);
    proposer(&mut report, scale, &storm, allocs);
    serve(&mut report, allocs);
    report.push("workspace.rust_lines", workspace_rust_lines(), Gate::Info);
    report
}

/// Grid pass: sequential and fanned out over `jobs` workers, then the
/// latency tails of the sequential pass.
fn grid(report: &mut Report, scale: u64, jobs: usize) {
    let configs = grid_configs(&paper_experiments(), &ProtocolKind::PAPER_TRIO, scale);
    let (sequential, sequential_ms) = timed(|| run_batch(&configs, Some(1)));
    let (parallel, parallel_ms) = timed(|| run_batch(&configs, Some(jobs)));
    let requests: u64 = sequential.iter().map(|r| r.raw.requests).sum();

    report.push("grid.configs", configs.len(), Gate::Exact);
    report.push("grid.requests", requests, Gate::Exact);
    report.push("grid.sequential_ms", sequential_ms, Gate::Info);
    report.push("grid.parallel_ms", parallel_ms, Gate::Info);
    report.push(
        "grid.req_per_s",
        requests * 1000 / sequential_ms,
        Gate::Info,
    );
    report.push(
        "grid.parallel_identical",
        identical(&sequential, &parallel),
        Gate::Holds,
    );
    let labels = grid_trace_labels();
    for (trio, label) in sequential
        .chunks(ProtocolKind::PAPER_TRIO.len())
        .zip(&labels)
    {
        for r in trio {
            let tail = format!("tail.{label}.{}", r.protocol.name());
            let latency = &r.raw.latency;
            report.push(
                format!("{tail}.p50_us"),
                micros(latency.median()),
                Gate::Exact,
            );
            report.push(format!("{tail}.p90_us"), micros(latency.p90()), Gate::Exact);
            report.push(format!("{tail}.p99_us"), micros(latency.p99()), Gate::Exact);
        }
    }
}

/// Inner-loop pass: one EPA invalidation replay on the calling thread,
/// timed end to end (materialisation included), mined for the engine's
/// event counters, then re-expressed as wire traffic for the decode probe.
/// The scale is floored at 2: the arena's recycle ratio is `1 - peak_live /
/// allocated` and peak_live is dominated by long-pending TTL timers, which
/// a tinier workload would let swamp the denominator.
fn inner_loop(report: &mut Report, scale: u64, allocs: Option<fn() -> Allocs>) {
    let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(scale.min(2)))
        .protocol(ProtocolKind::Invalidation)
        .seed(TABLE_SEED)
        .build();
    let ((trace, deployment, phases), wall_ms) = timed(|| {
        let ((trace, mods), materialised) = counted(allocs, || wcc_replay::materialise(&cfg));
        let (deployment, phases) = build_and_run(allocs, || {
            Deployment::build(&trace, &mods, &cfg.protocol, cfg.options.clone())
        });
        let setup = materialised + phases.setup;
        (trace, deployment, Phases { setup, ..phases })
    });
    let requests = deployment.collect().requests;
    let events = deployment.alloc_stats();
    let deferred = deployment.defer_stats();

    report.push("inner_loop.requests", requests, Gate::Exact);
    report.push("inner_loop.wall_ms", wall_ms, Gate::Info);
    report.push(
        "inner_loop.req_per_s",
        requests * 1000 / wall_ms,
        Gate::Info,
    );
    report.push("inner_loop.events_allocated", events.allocated, Gate::Exact);
    report.push("inner_loop.events_recycled", events.recycled, Gate::Exact);
    report.push(
        "inner_loop.events_recycled_pct",
        events.recycled_pct(),
        Gate::Exact,
    );
    report.push("inner_loop.events_peak_live", events.peak_live, Gate::Exact);
    report.push(
        "inner_loop.events_per_request",
        events.allocated as f64 / requests.max(1) as f64,
        Gate::Exact,
    );
    let overflow = deployment.overflow_inserts();
    report.push("inner_loop.overflow_inserts", overflow, Gate::Exact);
    report.push("inner_loop.deferred_runs", deferred.runs, Gate::Exact);
    report.push(
        "inner_loop.deferred_messages",
        deferred.messages,
        Gate::Exact,
    );
    report.push(
        "inner_loop.longest_deferred_run",
        deferred.longest_run,
        Gate::Exact,
    );
    push_allocs(report, "inner_loop", phases, phases.peak(), allocs);

    // Decode probe: one GET per record, answered with a 200 on the first
    // touch of each document (the retention copy into a cache) and a 304
    // thereafter — so the only owned copies allowed are the retained ones.
    let mut corpus = Vec::with_capacity(trace.records.len() * 2);
    let mut first_touch = vec![true; trace.doc_count()];
    for (i, rec) in trace.records.iter().enumerate() {
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
            let meta = wcc_types::DocMeta::new(trace.doc_size(doc), wcc_types::SimTime::ZERO);
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
    report.push("decode.messages", codec.messages, Gate::Exact);
    report.push("decode.bytes", codec.bytes, Gate::Exact);
    report.push("decode.borrows", codec.borrows, Gate::Exact);
    report.push("decode.copies", codec.copies, Gate::Exact);
    report.push("decode.retained", codec.retained, Gate::Exact);
    report.push(
        "decode.copies_equal_retained",
        codec.copies == codec.retained,
        Gate::Holds,
    );

    // What the codec costs per message over the same corpus, through the
    // two calls the serve tier makes per frame: encoded behind what a
    // buffer already holds (and has touched: no page fault is timed),
    // decoded in place. Both loops are also the codec's allocation window:
    // the encoder writes into a buffer already big enough, and the decoder
    // borrows.
    let mut wire = vec![1u8; codec.bytes as usize];
    wire.clear();
    let ((encode_ns, decode_ns), run) = counted(allocs, || {
        let start = Instant::now();
        for msg in &corpus {
            wcc_proto::encode_into(msg, &mut wire);
        }
        let encode_ns = start.elapsed().as_nanos() as u64;
        let (mut rest, start) = (wire.as_slice(), Instant::now());
        while let Ok(Some((msg, used))) = wcc_proto::decode_frame(rest, true) {
            std::hint::black_box(&msg);
            rest = rest.get(used..).unwrap_or_default();
        }
        (encode_ns, start.elapsed().as_nanos() as u64)
    });
    let per_msg = |ns: u64| ns / codec.messages.max(1);
    report.push("codec.encode_ns_per_msg", per_msg(encode_ns), Gate::Info);
    report.push("codec.decode_ns_per_msg", per_msg(decode_ns), Gate::Info);
    push_phase(report, "codec", "run", run, alloc_gate(allocs));
}

/// One write storm and what per-write fan-out made of it: the proposer
/// pass's counterfactual.
struct Storm {
    workload: FamilyWorkload,
    per_write: RawReport,
}

/// Replays a federation under `options`, counting each phase's allocations.
fn replay(
    workload: &FamilyWorkload,
    options: DeploymentOptions,
    allocs: Option<fn() -> Allocs>,
) -> (Deployment, Phases) {
    let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    build_and_run(allocs, || {
        Deployment::build_multi(&workload.workloads, &protocol, options)
    })
}

/// Family pass: the flash-crowd federation (64 origins, one shared client
/// pool).
fn family(report: &mut Report, scale: u64, allocs: Option<fn() -> Allocs>) -> Storm {
    let cfg = FamilyConfig::city(WorkloadFamily::FlashCrowd).scaled_down(scale);
    let workload = family::generate(&cfg, TABLE_SEED);
    let requests = workload.total_requests();
    let ((deployment, phases), wall_ms) =
        timed(|| replay(&workload, DeploymentOptions::default(), allocs));
    let per_write = deployment.collect();

    report.push("family.name", cfg.family.name(), Gate::Exact);
    report.push("family.origins", workload.workloads.len(), Gate::Exact);
    report.push(
        "family.clients",
        u64::from(cfg.spec.num_clients),
        Gate::Exact,
    );
    report.push("family.requests", requests, Gate::Exact);
    let overflow = deployment.overflow_inserts();
    report.push("family.overflow_inserts", overflow, Gate::Exact);
    report.push("family.wall_ms", wall_ms, Gate::Info);
    report.push("family.req_per_s", requests * 1000 / wall_ms, Gate::Info);
    push_allocs(report, "family", phases, phases.peak(), allocs);
    Storm {
        workload,
        per_write,
    }
}

/// Proposer pass: the flash-crowd storm (per-write leg reused from the
/// family pass) and its breaking-news sibling, once under per-write fan-out
/// and once under the default batched proposer. Message counts, coalesce
/// ratio and write-completion tails all come off the simulation clock.
fn proposer(report: &mut Report, scale: u64, flash_crowd: &Storm, allocs: Option<fn() -> Allocs>) {
    let batch = InvalBatchConfig::default();
    let batched = || DeploymentOptions {
        inval_batch: Some(batch),
        ..DeploymentOptions::default()
    };
    let breaking_news = family::generate(
        &FamilyConfig::city(WorkloadFamily::BreakingNews).scaled_down(scale),
        TABLE_SEED,
    );
    let ((bn_per_write, fc_batched, bn_batched, phases, peak), wall_ms) = timed(|| {
        let bn_per_write = replay(&breaking_news, DeploymentOptions::default(), None).0;
        let (fc, fc_phases) = replay(&flash_crowd.workload, batched(), allocs);
        let fc = fc.collect();
        let (bn, bn_phases) = replay(&breaking_news, batched(), allocs);
        // Two replays, not one window: the pass's peak is the larger one's.
        let peak = fc_phases.peak().max(bn_phases.peak());
        let phases = Phases {
            setup: fc_phases.setup + bn_phases.setup,
            run: fc_phases.run + bn_phases.run,
        };
        (bn_per_write.collect(), fc, bn.collect(), phases, peak)
    });

    let wire = |r: &RawReport| r.origin_counters.wire_invalidations();
    let per_write_wire = wire(&flash_crowd.per_write) + wire(&bn_per_write);
    let batched_wire = wire(&fc_batched) + wire(&bn_batched);
    let cut_pct = (1.0 - batched_wire as f64 / per_write_wire.max(1) as f64) * 100.0;
    let mut stats = ProposerStats::default();
    for p in [&fc_batched, &bn_batched].iter().filter_map(|r| r.proposer) {
        stats.merge(&p);
    }
    let coalesce_ratio = stats.coalesce_ratio();
    let mut batched_writes = fc_batched.write_completion.clone();
    batched_writes.merge(&bn_batched.write_completion);
    let mut per_write_writes = flash_crowd.per_write.write_completion.clone();
    per_write_writes.merge(&bn_per_write.write_completion);
    let (write_p99, per_write_p99) = (micros(batched_writes.p99()), micros(per_write_writes.p99()));

    report.push("proposer.batch_entries", batch.max_entries, Gate::Exact);
    report.push("proposer.wire_messages", batched_wire, Gate::Exact);
    report.push(
        "proposer.per_write_wire_messages",
        per_write_wire,
        Gate::Exact,
    );
    report.push("proposer.cut_pct", cut_pct, Gate::Exact);
    report.push("proposer.cut_at_least_30_pct", cut_pct >= 30.0, Gate::Holds);
    report.push("proposer.coalesce_ratio", coalesce_ratio, Gate::Exact);
    report.push(
        "proposer.coalesce_ratio_above_1",
        coalesce_ratio > 1.0,
        Gate::Holds,
    );
    report.push(
        "proposer.write_p50_us",
        micros(batched_writes.median()),
        Gate::Exact,
    );
    report.push("proposer.write_p99_us", write_p99, Gate::Exact);
    report.push("proposer.per_write_p99_us", per_write_p99, Gate::Exact);
    report.push(
        "proposer.write_p99_within_per_write",
        write_p99 <= per_write_p99,
        Gate::Holds,
    );
    push_allocs(report, "proposer.batched", phases, peak, allocs);
    report.push("proposer.wall_ms", wall_ms, Gate::Info);
}

/// Serve pass: one `NetOrigin` and one `NetProxy` in this process and
/// [`SERVE_CONNECTIONS`] keep-alive connections to the proxy. Each
/// connection first fetches every document (the warm-up: the cache holds
/// them all, every buffer has grown to a reply), then the connections take
/// turns at [`SERVE_HITS`] `GET`s, each sent once the previous reply is
/// in, so each hit is one request in one turn of the proxy's thread. What
/// that thread allocated over the hits is read on it, before and after;
/// with no counting allocator the rows are Info zeros. The scale does not
/// apply: the pass is small already.
fn serve(report: &mut Report, allocs: Option<fn() -> Allocs>) {
    let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); SERVE_DOCS as usize],
        protocol: protocol.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .expect("the serve pass binds loopback listeners");
    let proxy = NetProxy::spawn(origin.addr(), &protocol, 0, 1, ByteSize::from_mib(64))
        .expect("the serve pass dials its origin");
    let mut conns: Vec<(TcpStream, Vec<u8>)> = (0..SERVE_CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(proxy.client_addr()).expect("the proxy accepts");
            stream
                .set_nodelay(true)
                .expect("a TCP socket takes TCP_NODELAY");
            (stream, Vec::new())
        })
        .collect();
    for doc in 0..SERVE_DOCS {
        for conn in &mut conns {
            serve_get(conn, doc);
        }
    }
    let hits_before = proxy.counters().hits;
    let read = |proxy: &NetProxy| {
        allocs.map_or(Allocs::default(), |read| {
            proxy.on_node_thread(read).expect("the proxy's thread runs")
        })
    };
    let before = read(&proxy);
    for i in 0..SERVE_HITS {
        let conn = &mut conns[i as usize % SERVE_CONNECTIONS];
        serve_get(conn, (i % u64::from(SERVE_DOCS)) as u32);
    }
    let after = read(&proxy);
    let run = Allocs {
        count: after.count - before.count,
        bytes: after.bytes - before.bytes,
        ..Allocs::default()
    };
    report.push(
        "serve.hits",
        proxy.counters().hits - hits_before,
        Gate::Exact,
    );
    push_phase(report, "serve", "run", run, alloc_gate(allocs));
}

/// Documents the serve pass caches, each 8 KiB.
const SERVE_DOCS: u32 = 64;
/// Keep-alive connections the serve pass holds open to the proxy.
const SERVE_CONNECTIONS: usize = 4;
/// `GET`s the serve pass measures, all hits.
const SERVE_HITS: u64 = 2_000;

/// Sends one `GET` for `doc` on `conn` and reads until its `200` is in.
fn serve_get((stream, buf): &mut (TcpStream, Vec<u8>), doc: u32) {
    let get = HttpMsg::Get(GetRequest {
        req: RequestId::new(u64::from(doc)),
        url: Url::new(ServerId::new(0), doc),
        client: ClientId::from_raw(1),
        ims: None,
        issued_at: SimTime::from_secs(1),
        cache_hits: 0,
    });
    let mut frame = Vec::new();
    wcc_proto::encode_into(&get, &mut frame);
    stream.write_all(&frame).expect("the proxy reads");
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match wcc_proto::decode_frame(buf, false) {
            Ok(Some((HttpMsgRef::Reply(_), used))) if used == buf.len() => return,
            Ok(None) => {}
            other => panic!("the proxy answers a GET with one 200, not {other:?}"),
        }
        let n = stream.read(&mut chunk).expect("the proxy replies");
        assert!(n > 0, "the proxy closed a keep-alive connection");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Non-test Rust lines of the workspace: every `.rs` file under
/// `crates/*/src` and `src`, counted up to its first `#[cfg(test)]` line —
/// so a file that opens with `#![cfg(test)]` counts for nothing.
/// `0` when the source tree is not where this crate was built from.
fn workspace_rust_lines() -> u64 {
    fn count(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let lines = |src: String| {
            if src.starts_with("#![cfg(test)]") {
                return 0;
            }
            src.lines()
                .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                .count() as u64
        };
        entries
            .flatten()
            .map(|entry| match entry.path() {
                path if path.is_dir() => count(&path),
                path if path.extension().is_some_and(|ext| ext == "rs") => {
                    std::fs::read_to_string(&path).map_or(0, lines)
                }
                _ => 0,
            })
            .sum()
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates: u64 = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|member| count(&member.path().join("src")))
        .sum();
    crates + count(&root.join("src"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::LazyLock;

    /// One reduced-scale run shared by the tests that only read it. Scale
    /// 100 is the smallest round scale at which the proposer's storm is
    /// still dense enough for all three of its predicates to hold (at 200
    /// the batched write p99 overtakes the per-write one).
    static REDUCED: LazyLock<Report> = LazyLock::new(|| run(100, Some(2), None));

    fn gated(report: &Report) -> Vec<&Row> {
        report
            .rows()
            .iter()
            .filter(|r| r.gate != Gate::Info)
            .collect()
    }

    /// `REDUCED` with `key`'s row removed or its value replaced.
    fn mutated(key: &str, value: Option<Value>) -> Report {
        let mut report = Report::default();
        for row in REDUCED.rows() {
            match (&value, row.key == key) {
                (None, true) => {}
                (Some(v), true) => report.push(key, v.clone(), row.gate),
                _ => report.push(row.key.clone(), row.value.clone(), row.gate),
            }
        }
        report
    }

    fn failing_lines(table: &str) -> Vec<&str> {
        table.lines().filter(|l| l.contains("FAIL")).collect()
    }

    #[test]
    fn grid_covers_tables_3_and_4() {
        let configs = grid_configs(&paper_experiments(), &ProtocolKind::PAPER_TRIO, 100);
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
    fn reduced_scale_run_reproduces_its_gated_rows() {
        let again = run(100, Some(1), None);
        assert_eq!(gated(&REDUCED), gated(&again));
        // The scale-independent predicates; the proposer's ≥30 % / coalesce
        // / p99 predicates are claimed at the committed baseline's scale.
        for key in ["grid.parallel_identical", "decode.copies_equal_retained"] {
            assert_eq!(REDUCED.get(key), Some(&Value::Bool(true)), "{key}");
        }
        assert_eq!(REDUCED.get("family.origins"), Some(&Value::Int(64)));
        assert_eq!(REDUCED.get("jobs"), Some(&Value::Int(2)));
    }

    #[test]
    fn check_passes_against_its_own_output_and_each_gate_kind_fails_by_name() {
        let baseline = read_flat(&REDUCED.to_json()).expect("own output parses");
        assert_eq!(baseline.len(), REDUCED.rows().len());
        let (table, passed) = REDUCED.judge(Some(&baseline));
        assert!(passed && failing_lines(&table).is_empty(), "{table}");

        let fails_naming = |report: &Report, baseline: Option<&[(String, Value)]>, key, why| {
            let (table, passed) = report.judge(baseline);
            let failing = failing_lines(&table);
            assert!(!passed && failing.len() == 1, "{table}");
            assert!(
                failing[0].starts_with(key) && failing[0].contains(why),
                "{table}"
            );
        };
        // Exact: a changed value.
        let key = "tail.EPA.invalidation.p99_us";
        let changed = mutated(key, Some(Value::Int(1)));
        fails_naming(&changed, Some(&baseline), key, "must equal the baseline");
        // A row deleted from the baseline — even an Info row.
        let key = "grid.sequential_ms";
        let trimmed: Vec<_> = baseline.iter().filter(|(k, _)| k != key).cloned().collect();
        fails_naming(&REDUCED, Some(&trimmed), key, "missing from the baseline");
        // A row the baseline has and the run lacks.
        let key = "family.overflow_inserts";
        let lacking = mutated(key, None);
        fails_naming(&lacking, Some(&baseline), key, "missing from this run");
        // Holds: a false predicate fails with or without a baseline.
        let key = "grid.parallel_identical";
        let broken = mutated(key, Some(Value::Bool(false)));
        fails_naming(&broken, Some(&baseline), key, "must be true");
        fails_naming(&broken, None, key, "must be true");
    }

    #[test]
    fn reader_is_strict() {
        let ok = "{\n  \"a\": 1,\n  \"b.c\": 2.500,\n  \"d\": true,\n  \"e\": \"x/y\"\n}\n";
        assert_eq!(
            read_flat(ok).expect("well-formed"),
            vec![
                ("a".to_string(), Value::Int(1)),
                ("b.c".to_string(), Value::Real(2.5)),
                ("d".to_string(), Value::Bool(true)),
                ("e".to_string(), Value::Text("x/y".to_string())),
            ]
        );
        let rejects = |doc: &str, why: &str| {
            let err = read_flat(doc).expect_err(doc);
            assert!(err.contains(why), "{doc}: {err}");
        };
        rejects("{\"a\": 1, \"a\": 2}", "duplicate key");
        rejects("{\"a\": {\"b\": 1}}", "expected a number, string or bool");
        rejects("{\"a\": [1]}", "expected a number, string or bool");
        rejects("{\"a\": \"open}", "unterminated");
        rejects("{\"a\": 1} x", "trailing bytes");
        rejects("{\"a\": 1}{", "trailing bytes");
        rejects("{\"a\": 1.2.3}", "expected a number");
        rejects("{\"a\": -1}", "expected a number");
        rejects("{\"a\" 1}", "expected ':'");
        rejects("{\"a\": 1", "expected ','");
        rejects("", "expected '{'");
    }

    #[test]
    #[should_panic(expected = "duplicate row key grid.configs")]
    fn duplicate_key_panics() {
        let mut report = Report::default();
        report.push("grid.configs", 18usize, Gate::Exact);
        report.push("grid.configs", 18usize, Gate::Info);
    }

    #[test]
    fn tail_keys_are_unique_and_in_table_order() {
        let mut expected = Vec::new();
        for trace in ["EPA", "SASK", "ClarkNet", "NASA", "SDSC(57)", "SDSC(576)"] {
            for protocol in ["adaptive-ttl", "poll-every-time", "invalidation"] {
                for quantile in ["p50_us", "p90_us", "p99_us"] {
                    expected.push(format!("tail.{trace}.{protocol}.{quantile}"));
                }
            }
        }
        let tails: Vec<&str> = REDUCED
            .rows()
            .iter()
            .filter(|r| r.key.starts_with("tail."))
            .map(|r| r.key.as_str())
            .collect();
        assert_eq!(tails, expected);
        let unique: std::collections::BTreeSet<_> = tails.iter().collect();
        assert_eq!(unique.len(), 18 * 3);
        assert!(REDUCED
            .rows()
            .iter()
            .filter(|r| r.key.starts_with("tail."))
            .all(|r| r.gate == Gate::Exact));
    }

    #[test]
    fn workspace_size_is_one_info_row() {
        // Built from the source tree, so the tree is there to count.
        let lines = workspace_rust_lines();
        assert!(lines > 10_000, "{lines}");
        let row = REDUCED
            .rows()
            .iter()
            .find(|r| r.key == "workspace.rust_lines")
            .expect("row present");
        assert_eq!(
            (row.value.clone(), row.gate),
            (Value::Int(lines), Gate::Info)
        );
    }
}
