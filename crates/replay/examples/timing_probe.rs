//! Quick timing probe: one EPA replay under invalidation, with a phase
//! breakdown (materialise / build / run / collect) so hot-path work is
//! attributable without a profiler. Takes an optional scale divisor.
use std::time::Instant;
use wcc_core::ProtocolKind;
use wcc_httpsim::Deployment;
use wcc_replay::experiment::materialise;
use wcc_replay::ExperimentConfig;
use wcc_traces::TraceSpec;

#[expect(
    clippy::disallowed_methods,
    reason = "a timing probe reads the wall clock"
)]
fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(scale))
        .protocol(ProtocolKind::Invalidation)
        .seed(42)
        .build();
    let start = Instant::now();
    let (trace, mods) = materialise(&cfg);
    let t_mat = start.elapsed();
    let start = Instant::now();
    let mut deployment = Deployment::build(&trace, &mods, &cfg.protocol, cfg.options.clone());
    let t_build = start.elapsed();
    let start = Instant::now();
    deployment.run();
    let t_run = start.elapsed();
    let start = Instant::now();
    let report = deployment.collect();
    let t_collect = start.elapsed();
    println!(
        "EPA invalidation x1/{scale}: {} requests, {} msgs, {} bytes, hits {}, cpu {:.1}%, wall-sim {}",
        report.requests,
        report.total_messages,
        report.total_bytes,
        report.hits,
        report.server_cpu * 100.0,
        report.wall_duration,
    );
    println!(
        "phases: materialise {t_mat:?}, build {t_build:?}, run {t_run:?}, collect {t_collect:?}"
    );
}
