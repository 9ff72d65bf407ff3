//! `wcc-benchmark`: runs one workload in this process and prints every
//! metric as `name value unit`, then one JSON result line. `run.sh` is the
//! front door; see `README.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use wcc_benchmark::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use wcc_benchmark::report::{self, Report};
use wcc_benchmark::spans::SpanLog;
use wcc_benchmark::{json, procfs, serve, sim, stats};

const USAGE: &str = "usage: wcc-benchmark [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--root DIR] [--out DIR]
       wcc-benchmark manifest            print BENCHMARK.json
       wcc-benchmark names               print workload and metric names
       wcc-benchmark summarise FILE...   compare result files named set<K>.<workload>.json";

/// Serve slices are this long; the clock pays for as many as fit.
const SLICE: Duration = Duration::from_millis(500);
/// Discarded slices before the timed ones (2 s of warm-up).
const WARM_SLICES: usize = 4;
/// Serve set-up repetitions; the median is reported.
const SERVE_SETUP_REPS: usize = 5;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: sim::GOLDEN_SEED,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        root: PathBuf::from("."),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => opts.trace = value()? == "1",
            "--ledger" => opts.trace = true,
            "--root" => opts.root = PathBuf::from(value()?),
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == opts.workload) {
        return Err(format!(
            "--workload must be one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<(Report, SpanLog), String> {
    let serve_run = |spec: &serve::ServeSpec| {
        let slices = ((opts.seconds / SLICE.as_secs_f64()).round() as usize).max(2);
        let warm = WARM_SLICES.min(slices);
        let run = serve::run(
            spec,
            opts.seed,
            SERVE_SETUP_REPS,
            warm,
            slices,
            SLICE,
            opts.trace,
        )
        .map_err(|e| format!("{}: {e}", spec.name))?;
        let report = report::serve_report(spec, opts.seed, &run, opts.trace);
        Ok((report, run.spans))
    };
    match opts.workload.as_str() {
        "paper-grid" => {
            let run = sim::run_grid(opts.seed, opts.seconds, opts.trace, &opts.root);
            Ok((report::sim_report(&run, opts.trace), run.spans))
        }
        "feed-storm" => {
            let run = sim::run_feed(opts.seed, opts.seconds, opts.trace);
            Ok((report::sim_report(&run, opts.trace), run.spans))
        }
        "serve-hit" => serve_run(&serve::SERVE_HIT),
        "serve-mixed" => serve_run(&serve::SERVE_MIXED),
        other => Err(format!("unknown workload {other}")),
    }
}

/// `<out>/<workload>[.ledger].json`: the run with its context.
fn write_outputs(opts: &Options, report: &Report, spans: &SpanLog) -> std::io::Result<()> {
    let Some(out) = &opts.out else { return Ok(()) };
    std::fs::create_dir_all(out)?;
    let (nproc, cpu) = procfs::host();
    let values: Vec<String> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .filter_map(|m| {
            let v = report.values.get(m.name)?;
            Some(format!(
                "    \"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect();
    let stem = if opts.trace {
        format!("{}.ledger", opts.workload)
    } else {
        opts.workload.clone()
    };
    let text = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"link\": \"loopback\"}},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        json::escape(&cpu),
        report.correct(),
        report.attempted.max(1),
        report.failed,
        report
            .problems
            .iter()
            .map(|p| format!("\"{}\"", json::escape(p)))
            .collect::<Vec<_>>()
            .join(", "),
        values.join(",\n")
    );
    std::fs::write(out.join(format!("{stem}.json")), text)?;
    if opts.trace {
        spans.write_jsonl(&out.join(format!("{}.spans.jsonl", opts.workload)))?;
    }
    write_latest(out)
}

/// `<out>/latest.json`: every per-workload file of the directory under its
/// stem, so one file holds the latest value of everything.
fn write_latest(out: &Path) -> std::io::Result<()> {
    let mut entries: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir(out)? {
        let path = entry?.path();
        let (Some(stem), Some("json")) = (
            path.file_stem().and_then(|s| s.to_str()),
            path.extension().and_then(|e| e.to_str()),
        ) else {
            continue;
        };
        if WORKLOADS
            .iter()
            .any(|w| stem == w.name || stem.strip_suffix(".ledger") == Some(w.name))
        {
            entries.push((stem.to_string(), std::fs::read_to_string(&path)?));
        }
    }
    entries.sort();
    let body: Vec<String> = entries
        .iter()
        .map(|(stem, text)| format!("\"{stem}\": {}", text.trim_end()))
        .collect();
    std::fs::write(
        out.join("latest.json"),
        format!("{{\n{}\n}}\n", body.join(",\n")),
    )
}

/// A/A comparison of result files `set<K>.<workload>.json`: per metric and
/// workload the median, quartiles and largest pairwise deviation; fails if
/// two sets disagree by more than the metric's bound or anything failed.
fn summarise(files: &[String]) -> Result<bool, String> {
    let mut table: std::collections::BTreeMap<(String, &'static str), Vec<f64>> =
        Default::default();
    let mut ok = true;
    for file in files {
        let name = Path::new(file)
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("{file}: not a file name"))?;
        let workload = name
            .strip_suffix(".json")
            .and_then(|n| n.split_once('.'))
            .map(|(_, w)| w.to_string())
            .ok_or_else(|| format!("{file}: expected set<K>.<workload>.json"))?;
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let value =
            json::parse(text.lines().last().unwrap_or("")).map_err(|e| format!("{file}: {e}"))?;
        if value.get("correct").and_then(json::Value::as_bool) != Some(true) {
            println!("{file}: run was not correct");
            ok = false;
        }
        for m in &END_TO_END {
            let v = value
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|e| e.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{file}: no value for {}", m.name))?;
            table.entry((workload.clone(), m.name)).or_default().push(v);
        }
    }
    println!(
        "{:<12} {:<16} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "n", "q1", "median", "q3", "max dev", "bound"
    );
    for ((workload, metric), values) in &table {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == *metric)
            .and_then(|m| m.bound)
            .unwrap_or(0.0);
        let (q1, q2, q3) = stats::quartiles(values).unwrap_or((values[0], values[0], values[0]));
        let lo = stats::min(values).unwrap_or(0.0);
        let hi = stats::max(values).unwrap_or(0.0);
        let dev = if lo > 0.0 { (hi - lo) / lo } else { 0.0 };
        let verdict = if dev > bound { "  DISAGREE" } else { "" };
        ok &= dev <= bound;
        println!("{workload:<12} {metric:<16} {:>3} {q1:>14.4} {q2:>14.4} {q3:>14.4} {dev:>8.4} {bound:>6.2}{verdict}", values.len());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        Some(command) => (command, &args[1..]),
        None => ("help", &args[..]),
    };
    match command {
        "manifest" => print!("{}", metrics::manifest_json()),
        "names" => {
            for w in &WORKLOADS {
                println!("workload {}", w.name);
            }
            for m in &END_TO_END {
                println!("end_to_end {} {}", m.name, m.unit);
            }
            for m in &PER_LAYER {
                println!("per_layer {} {}", m.name, m.unit);
            }
        }
        "summarise" => match summarise(rest) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("wcc-benchmark: {e}");
                return ExitCode::from(2);
            }
        },
        "run" => {
            let opts = match parse(rest) {
                Ok(opts) => opts,
                Err(e) => {
                    eprintln!("wcc-benchmark: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let (report, spans) = match run(&opts) {
                Ok(done) => done,
                Err(e) => {
                    eprintln!("wcc-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (nproc, cpu) = procfs::host();
            println!(
                "# {} seed {} seconds {} trace {} | host: {nproc} x {cpu}, loopback",
                opts.workload, opts.seed, opts.seconds, opts.trace
            );
            for note in &report.notes {
                println!("# {note}");
            }
            for m in END_TO_END.iter().chain(&PER_LAYER) {
                if let Some(v) = report.values.get(m.name) {
                    println!("{} {v} {}", m.name, m.unit);
                }
            }
            println!(
                "failed_share {} ratio",
                report.failed as f64 / report.attempted.max(1) as f64
            );
            for problem in &report.problems {
                println!("# PROBLEM: {problem}");
            }
            if let Err(e) = write_outputs(&opts, &report, &spans) {
                eprintln!("wcc-benchmark: writing results: {e}");
                return ExitCode::FAILURE;
            }
            // An end-to-end metric that could not be measured is a failed run,
            // not a zero.
            let missing: Vec<&str> = END_TO_END
                .iter()
                .map(|m| m.name)
                .filter(|n| !report.values.contains_key(n))
                .collect();
            if !missing.is_empty() {
                eprintln!("wcc-benchmark: not measured: {}", missing.join(", "));
                return ExitCode::FAILURE;
            }
            println!("{}", report.result_json(opts.trace));
            if !report.correct() {
                return ExitCode::FAILURE;
            }
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
