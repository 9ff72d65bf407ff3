//! A two-slice (or one-pass) smoke of every workload: it finishes, fails
//! nothing, and reports every end-to-end metric. Run with `--release`:
//! the simulator workloads replay ~1.6 M requests.

use std::path::Path;
use std::time::Duration;
use wcc_benchmark::metrics::{END_TO_END, PER_LAYER};
use wcc_benchmark::report::{self, Report};
use wcc_benchmark::{json, serve, sim};

fn check(name: &str, report: &Report, trace: bool) {
    assert_eq!(report.failed, 0, "{name}: {:?}", report.problems);
    assert!(report.correct(), "{name}: {:?}", report.problems);
    assert!(report.attempted > 0, "{name}");
    for m in &END_TO_END {
        let v = report.values.get(m.name).copied().unwrap_or(0.0);
        assert!(v > 0.0 && v.is_finite(), "{name}: {} = {v}", m.name);
    }
    let line = json::parse(&report.result_json(trace)).expect("the result line is JSON");
    let listed = if trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    let json::Value::Obj(metrics) = line.get("metrics").expect("metrics") else {
        panic!("metrics is an object")
    };
    assert_eq!(
        metrics.len(),
        listed,
        "{name}: every listed metric, no other"
    );
    assert_eq!(
        line.get("correct").and_then(json::Value::as_bool),
        Some(true)
    );
}

/// Thread ownership is learnt by diffing the process's task list around a
/// spawn, so two pairs must not be spawned at the same time. (The benchmark
/// itself runs one workload per process.)
static ONE_PAIR_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

#[test]
fn paper_grid_matches_the_committed_tables_at_any_seed() {
    let run = sim::run_grid(7, 0.1, false, root());
    check("paper-grid", &report::sim_report(&run, false), false);
    // 18 invariants + 6 table blocks + 6 golden counts + one identity check per unit.
    assert!(run.checks.attempted >= 18 + 6 + 6 + 18);
}

#[test]
fn feed_storm_at_another_seed_holds_its_invariants() {
    let run = sim::run_feed(7, 0.1, false);
    check("feed-storm", &report::sim_report(&run, false), false);
}

#[test]
fn serve_hit_two_slices_with_the_ledger() {
    let _guard = ONE_PAIR_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let run = serve::run(
        &serve::SERVE_HIT,
        1997,
        1,
        1,
        2,
        Duration::from_millis(300),
        true,
    )
    .expect("runs");
    let report = report::serve_report(&serve::SERVE_HIT, 1997, &run, false);
    check("serve-hit", &report, false);
    assert!(report.values["net.proxy.hit_ratio"] >= 0.99);
    assert!(
        run.spans.count("bench.request") > 0,
        "the odd slice was traced"
    );
}

#[test]
fn serve_mixed_two_slices() {
    let _guard = ONE_PAIR_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let run = serve::run(
        &serve::SERVE_MIXED,
        7,
        1,
        1,
        2,
        Duration::from_millis(500),
        false,
    )
    .expect("runs");
    let report = report::serve_report(&serve::SERVE_MIXED, 7, &run, false);
    check("serve-mixed", &report, false);
    assert!(
        run.writes_attempted > 0,
        "the writer wrote during the timed slices"
    );
    assert!(report.values["net.write_visible_p50_us"] > 0.0);
}
