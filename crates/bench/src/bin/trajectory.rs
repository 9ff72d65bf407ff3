//! Writes or checks the bench trajectory report (`BENCH_replay.json`).
//!
//! Default mode times the Tables 3+4 grid sequentially and fanned out,
//! plus the single-threaded inner-loop workload, and writes the JSON
//! report — see `wcc_bench::trajectory` for what is measured and how the
//! embedded baselines were taken. Exits non-zero if the parallel grid is
//! not byte-identical to the sequential one.
//!
//! With `--check PATH` the run is instead compared against the committed
//! baseline JSON at `PATH` (CI's bench-regression gate): the workload
//! scale is taken from the baseline, deterministic fields must match
//! exactly, timing fields must stay within `--tolerance` (default 0.15 =
//! ±15%), and the diff table is printed either way. Exits non-zero on any
//! regression.
//!
//! Usage: `trajectory [--scale N] [--jobs N] [--shards N|auto] [--out PATH]
//!                    [--check BASELINE [--tolerance F]]`
//!
//! `--shards auto` caps the sharded pass at the host's core count
//! (`min(2, host_cores)` — see `wcc_bench::resolve_trajectory_shards`), so
//! a 1-core runner measures a single-shard pass instead of the ~3× tax of
//! two shards on one core.
//! (default `--out BENCH_replay.json`, i.e. the repo root when run from
//! there).

use wcc_bench::{parse_jobs, parse_scale, parse_shards, resolve_trajectory_shards, trajectory};

fn parse_value(key: &str, mut args: impl Iterator<Item = String>) -> Option<String> {
    while let Some(arg) = args.next() {
        if arg == key {
            return args.next();
        }
    }
    None
}

fn main() {
    let jobs = parse_jobs(std::env::args());
    let shards = resolve_trajectory_shards(parse_shards(std::env::args()));
    let out = parse_value("--out", std::env::args()).unwrap_or_else(|| "BENCH_replay.json".into());
    let tolerance = parse_value("--tolerance", std::env::args())
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.15);

    if let Some(baseline_path) = parse_value("--check", std::env::args()) {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("trajectory: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        let Some(scale) = trajectory::json_number(&baseline, "scale") else {
            eprintln!("trajectory: baseline {baseline_path} carries no \"scale\" field");
            std::process::exit(1);
        };
        let scale = scale as u64;
        eprintln!(
            "trajectory: regression check against {baseline_path} \
             (scale 1/{scale}, tolerance ±{:.0}%) ...",
            tolerance * 100.0
        );
        let report = trajectory::run(scale, jobs, shards);
        match trajectory::check_against(&report, &baseline, tolerance) {
            Ok(table) => {
                println!("{table}");
                println!("bench-regression gate: PASS");
            }
            Err(table) => {
                println!("{table}");
                eprintln!("trajectory: FATAL: bench-regression gate failed (see FAIL rows)");
                std::process::exit(1);
            }
        }
        return;
    }

    let scale = parse_scale(std::env::args());
    eprintln!("trajectory: timing grid + sharded + inner loop + family at scale 1/{scale} ...");
    let report = trajectory::run(scale, jobs, shards);
    println!(
        "grid ({} configs): sequential {} ms, parallel {} ms at --jobs {} \
         ({:.2}x, {} core(s)); sharded {} ms at --shards {} ({:.2}x); \
         inner loop: {} requests in {} ms ({} req/s)",
        report.grid_configs,
        report.grid_sequential_ms,
        report.grid_parallel_ms,
        report.jobs,
        report.speedup,
        report.host_cores,
        report.sharded_grid_ms,
        report.shards,
        report.sharded_speedup,
        report.inner_requests,
        report.inner_wall_ms,
        report.inner_requests_per_sec,
    );
    println!(
        "engine (inner loop): {} events = {:.2} per request, {:.1}% recycled; \
         {} deliveries deferred in {} runs (longest {})",
        report.events_allocated,
        report.events_per_request,
        report.events_recycled_pct,
        report.deferred_messages,
        report.deferred_runs,
        report.longest_deferred_run,
    );
    println!(
        "family {} ({} origins, {} requests): {} ms sequential + {}-shard, \
         state {} B vs legacy {} B (-{:.1}%), peak RSS {} kB",
        report.family_name,
        report.family_origins,
        report.family_requests,
        report.family_wall_ms,
        report.family_shards,
        report.family_state_bytes,
        report.family_legacy_state_bytes,
        report.family_memory_reduction_pct,
        report.family_peak_rss_kb,
    );
    println!(
        "proposer (count threshold {}): {} wire INVALIDATEs vs {} per-write \
         (-{:.1}%, coalesce {:.3}), write p99 {}us vs {}us, {} ms",
        report.proposer_batch_entries,
        report.proposer_messages,
        report.proposer_per_write_messages,
        report.proposer_reduction_pct,
        report.proposer_coalesce_ratio,
        report.proposer_write_p99_us,
        report.proposer_per_write_p99_us,
        report.proposer_wall_ms,
    );
    println!(
        "serve ({} keep-alive conns): {} replies in {} ms ({} req/s), \
         {} dropped, {} stale, p50/p99 {}us/{}us",
        report.serve_connections,
        report.serve_requests,
        report.serve_wall_ms,
        report.serve_requests_per_sec,
        report.serve_dropped,
        report.serve_stale,
        report.serve_p50_us,
        report.serve_p99_us,
    );
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("trajectory: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    if !report.byte_identical {
        eprintln!("trajectory: FATAL: parallel grid diverged from sequential run");
        std::process::exit(1);
    }
    if !report.sharded_byte_identical {
        eprintln!("trajectory: FATAL: sharded grid diverged from sequential run");
        std::process::exit(1);
    }
    if !report.family_byte_identical {
        eprintln!("trajectory: FATAL: sharded family replay diverged from sequential run");
        std::process::exit(1);
    }
    if !report.proposer_byte_identical {
        eprintln!(
            "trajectory: FATAL: sharded batched-proposer replay diverged from sequential run"
        );
        std::process::exit(1);
    }
    if report.serve_dropped > 0 || report.serve_stale > 0 {
        eprintln!(
            "trajectory: FATAL: serving-tier pass dropped {} connection(s) / served {} stale",
            report.serve_dropped, report.serve_stale
        );
        std::process::exit(1);
    }
}
