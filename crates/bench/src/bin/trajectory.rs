//! Writes or checks the bench trajectory report (`BENCH_replay.json`).
//!
//! Default mode runs every pass of `wcc_bench::trajectory` at `--scale`,
//! prints the table of rows and writes the flat JSON report to `--out`
//! (default `BENCH_replay.json`, i.e. the repo root when run from there).
//!
//! With `--check BASELINE` the run is instead judged against the committed
//! report at that path: the scale is taken from the baseline, every Exact
//! row must equal it, and no row may be missing on either side. The fresh
//! report is written only when `--out` is given.
//!
//! Either way the process exits non-zero when any row says FAIL — a Holds
//! predicate (byte identity, proposer cut, decode copies) is judged with or
//! without a baseline.
//!
//! Usage: `trajectory [--scale N] [--jobs N] [--out PATH] [--check BASELINE]`

use wcc_bench::trajectory::{self, Value};
use wcc_bench::{parse_jobs, parse_scale};

const FLAGS: [&str; 4] = ["--scale", "--jobs", "--out", "--check"];

fn fail(message: String) -> ! {
    eprintln!("trajectory: {message}");
    std::process::exit(1);
}

fn parse_value(key: &str, mut args: impl Iterator<Item = String>) -> Option<String> {
    while let Some(arg) = args.next() {
        if arg == key {
            return args.next();
        }
    }
    None
}

fn main() {
    // Every flag takes one value; anything else (a removed flag, a typo) is
    // an error rather than a silently different run.
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if !FLAGS.contains(&flag.as_str()) || args.next().is_none() {
            fail(format!(
                "bad argument {flag:?}; usage: trajectory [--scale N] [--jobs N] \
                 [--out PATH] [--check BASELINE]"
            ));
        }
    }
    let jobs = parse_jobs(std::env::args());
    let check = parse_value("--check", std::env::args());
    let out = parse_value("--out", std::env::args())
        .or_else(|| check.is_none().then(|| "BENCH_replay.json".to_string()));

    let baseline = check.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| trajectory::read_flat(&text))
            .unwrap_or_else(|e| fail(format!("cannot read baseline {path}: {e}")))
    });
    let scale = match &baseline {
        None => parse_scale(std::env::args()),
        Some(rows) => match rows.iter().find(|(key, _)| key == "scale") {
            Some((_, Value::Int(scale))) => *scale,
            _ => fail("the baseline carries no integer \"scale\" row".to_string()),
        },
    };

    eprintln!("trajectory: grid + inner loop + family + proposer at scale 1/{scale} ...");
    let report = trajectory::run(scale, jobs);
    let (table, passed) = report.judge(baseline.as_deref());
    print!("{table}");
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, report.to_json()) {
            fail(format!("cannot write {out}: {e}"));
        }
        println!("wrote {out}");
    }
    if !passed {
        fail("FATAL: gate failed (see the FAIL rows)".to_string());
    }
    if let Some(path) = check {
        println!("bench-regression gate against {path}: PASS");
    }
}
