//! Reproducibility: everything — trace generation, the modifier, the
//! replay, the report — is a pure function of (config, seed).

use wcc_core::ProtocolKind;
use wcc_replay::{run_batch, run_experiment, run_trio, ExperimentConfig};
use wcc_traces::{synthetic, ModSchedule, TraceSpec};
use wcc_types::SimDuration;

#[test]
fn traces_are_bit_identical_per_seed() {
    for spec in TraceSpec::all() {
        let spec = spec.scaled_down(100);
        let a = synthetic::generate(&spec, 5);
        let b = synthetic::generate(&spec, 5);
        assert_eq!(a.records, b.records, "{}", spec.name);
        assert_eq!(a.doc_sizes, b.doc_sizes, "{}", spec.name);
        let c = synthetic::generate(&spec, 6);
        assert_ne!(a.records, c.records, "{}", spec.name);
    }
}

#[test]
fn modifier_schedules_are_deterministic() {
    let a = ModSchedule::generate(500, SimDuration::from_days(3), SimDuration::from_days(1), 9);
    let b = ModSchedule::generate(500, SimDuration::from_days(3), SimDuration::from_days(1), 9);
    assert_eq!(a.modifications(), b.modifications());
}

#[test]
fn full_replays_are_bit_identical_per_seed() {
    for kind in ProtocolKind::ALL {
        let cfg = ExperimentConfig::builder(TraceSpec::sdsc().scaled_down(80))
            .protocol(kind)
            .seed(33)
            .build();
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.raw.total_messages, b.raw.total_messages, "{kind}");
        assert_eq!(a.raw.total_bytes, b.raw.total_bytes, "{kind}");
        assert_eq!(a.raw.hits, b.raw.hits, "{kind}");
        assert_eq!(a.raw.stale_hits, b.raw.stale_hits, "{kind}");
        assert_eq!(a.raw.latency.mean(), b.raw.latency.mean(), "{kind}");
        assert_eq!(a.raw.latency.max(), b.raw.latency.max(), "{kind}");
        assert_eq!(a.raw.server_busy, b.raw.server_busy, "{kind}");
        assert_eq!(
            a.raw.sitelist.total_entries, b.raw.sitelist.total_entries,
            "{kind}"
        );
        assert_eq!(a.raw.wall_duration, b.raw.wall_duration, "{kind}");
    }
}

#[test]
fn run_trio_twice_is_byte_identical() {
    // The fuzzer's determinism oracle in stronger form: not just matched
    // counters, but byte-identical Debug renderings of the whole report
    // trio (every counter, summary and audit verdict).
    let options = wcc_httpsim::DeploymentOptions {
        audit: true,
        ..Default::default()
    };
    let cfg = ExperimentConfig::builder(TraceSpec::sdsc().scaled_down(80))
        .seed(77)
        .options(options)
        .build();
    let a = run_trio(&cfg, None);
    let b = run_trio(&cfg, None);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            format!("{x:?}"),
            format!("{y:?}"),
            "trio replay diverged for {}",
            x.protocol
        );
    }
}

#[test]
fn parallel_trio_is_byte_identical_to_sequential() {
    // The fan-out pool's core guarantee: job count changes scheduling,
    // never results. Audit on, so the comparison covers every verdict.
    let options = wcc_httpsim::DeploymentOptions {
        audit: true,
        ..Default::default()
    };
    let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(80))
        .seed(21)
        .options(options)
        .build();
    let sequential = run_trio(&cfg, Some(1));
    let parallel = run_trio(&cfg, Some(4));
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "parallel trio diverged for {}",
            s.protocol
        );
    }
}

#[test]
fn parallel_batch_is_byte_identical_to_sequential() {
    // Eight mixed configs — two traces, all four seeds past the worker
    // count — through the pool at 1 and 4 jobs.
    let configs: Vec<ExperimentConfig> = [TraceSpec::epa(), TraceSpec::sdsc()]
        .into_iter()
        .flat_map(|spec| {
            [
                (ProtocolKind::AdaptiveTtl, 3u64),
                (ProtocolKind::Invalidation, 4),
                (ProtocolKind::PollEveryTime, 5),
                (ProtocolKind::LeaseInvalidation, 6),
            ]
            .map(|(kind, seed)| {
                ExperimentConfig::builder(spec.clone().scaled_down(120))
                    .protocol(kind)
                    .seed(seed)
                    .build()
            })
        })
        .collect();
    let sequential = run_batch(&configs, Some(1));
    let parallel = run_batch(&configs, Some(4));
    assert_eq!(sequential.len(), 8);
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "batch config {i} diverged under the pool"
        );
    }
}

#[test]
fn parallel_fuzzing_is_byte_identical_to_sequential() {
    // The fuzz loop fans scenario evaluation out in blocks; the whole
    // summary (counters, per-protocol tallies, early-stop point) must not
    // depend on the job count.
    let outcome_at = |jobs: usize| {
        wcc_fuzz::fuzz(&wcc_fuzz::FuzzConfig {
            iters: 6,
            seed: 11,
            jobs,
            ..wcc_fuzz::FuzzConfig::default()
        })
    };
    let sequential = outcome_at(1);
    let parallel = outcome_at(4);
    assert_eq!(sequential.to_string(), parallel.to_string());
    assert!(sequential.passed(), "corpus slice failed:\n{sequential}");
}

#[test]
fn tracing_does_not_perturb_replay() {
    // The observability layer's core guarantee: span recording is
    // write-only, so a traced replay is byte-identical to an untraced one.
    let cfg = |trace: bool| {
        let options = wcc_httpsim::DeploymentOptions {
            trace,
            audit: true,
            ..Default::default()
        };
        ExperimentConfig::builder(TraceSpec::sdsc().scaled_down(80))
            .protocol(ProtocolKind::Invalidation)
            .mean_lifetime(SimDuration::from_secs(3600))
            .seed(33)
            .options(options)
            .build()
    };
    let untraced = run_experiment(&cfg(false));
    let traced = run_experiment(&cfg(true));
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
}

#[test]
fn trace_log_is_recorded_and_round_trips_as_jsonl() {
    let options = wcc_httpsim::DeploymentOptions {
        trace: true,
        ..Default::default()
    };
    let cfg = ExperimentConfig::builder(TraceSpec::sdsc().scaled_down(80))
        .protocol(ProtocolKind::Invalidation)
        .mean_lifetime(SimDuration::from_secs(3600))
        .seed(33)
        .options(options)
        .build();
    let (trace, mods) = wcc_replay::experiment::materialise(&cfg);
    let mut dep = wcc_httpsim::Deployment::build(&trace, &mods, &cfg.protocol, cfg.options.clone());
    dep.run();
    let log = dep.trace_log();
    assert!(!log.is_empty(), "traced run must record spans");
    // Both lifetimes appear, and the dump parses back losslessly.
    assert!(log.iter().any(|e| e.kind == wcc_obs::SpanKind::Request));
    assert!(log
        .iter()
        .any(|e| e.kind == wcc_obs::SpanKind::Invalidation));
    assert!(log.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
    let text = wcc_obs::to_jsonl(&log);
    assert_eq!(wcc_obs::from_jsonl(&text).unwrap(), log);
}

#[test]
fn largest_federation_double_run_is_byte_identical() {
    // The biggest federation the family layer ships — 64 origins sharing a
    // 120 000-client pool — generated and replayed twice. Request count is
    // reduced from the city preset so the debug-mode double run stays
    // fast; the client pool and origin fan-out (what this test guards)
    // stay at full scale.
    use wcc_core::ProtocolConfig;
    use wcc_httpsim::{Deployment, DeploymentOptions};
    use wcc_traces::family::{self, FamilyConfig, WorkloadFamily};

    let mut cfg = FamilyConfig::city(WorkloadFamily::FlashCrowd);
    cfg.spec.total_requests = 16_000;
    let a = family::generate(&cfg, 2026);
    let b = family::generate(&cfg, 2026);
    assert_eq!(a.workloads.len(), 64);
    for ((trace_a, mods_a), (trace_b, mods_b)) in a.workloads.iter().zip(&b.workloads) {
        assert_eq!(trace_a.records, trace_b.records, "{}", trace_a.name);
        assert_eq!(mods_a.modifications(), mods_b.modifications());
    }

    let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let run = || {
        let mut dep =
            Deployment::build_multi(&a.workloads, &protocol, DeploymentOptions::default());
        dep.run();
        format!("{:?}", dep.collect())
    };
    assert_eq!(
        run(),
        run(),
        "double replay of the largest federation diverged"
    );
}

#[test]
fn different_seeds_differ() {
    let base = |seed| {
        run_experiment(
            &ExperimentConfig::builder(TraceSpec::epa().scaled_down(80))
                .protocol(ProtocolKind::Invalidation)
                .seed(seed)
                .build(),
        )
    };
    let a = base(1);
    let b = base(2);
    // Same shape, different details.
    assert_eq!(a.raw.requests, b.raw.requests);
    assert_ne!(
        (a.raw.total_messages, a.raw.total_bytes),
        (b.raw.total_messages, b.raw.total_bytes)
    );
}
