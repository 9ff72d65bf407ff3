//! Scenario sampling: one seed → one complete, reproducible experiment.
//!
//! A [`Scenario`] bundles everything a replay needs — workload shape,
//! protocol and tuning, deployment knobs, and a declarative fault plan —
//! and is a pure function of a single `u64` seed, so any failure the
//! fuzzer finds is reproducible from its seed line alone.

use rand::Rng;
use wcc_core::{AdaptiveLeaseConfig, ProtocolConfig, ProtocolKind};
use wcc_httpsim::{CacheSharing, ChangeDetection, DeploymentOptions, Topology};
use wcc_traces::{TraceSpec, WorkloadFamily};
use wcc_types::{ByteSize, InvalBatchConfig, SimDuration};

/// Fault windows are placed at fractions of the fault-free replay's wall
/// duration (the same technique as `wcc_replay::failure`), so the plan
/// stays meaningful when the shrinker changes the workload size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Proxy `proxy` (index modulo the proxy count) crashes over the
    /// window `[from, to)` (fractions of the reference wall).
    ProxyOutage {
        /// Which proxy, as an index reduced modulo `num_proxies`.
        proxy: u32,
        /// Window start as a fraction of the reference wall duration.
        from: f64,
        /// Window end as a fraction of the reference wall duration.
        to: f64,
    },
    /// The origin server crashes over `[from, to)`; on recovery it sends
    /// the paper's bulk `INVALIDATE <server>` to every persisted site.
    OriginOutage {
        /// Window start as a fraction of the reference wall duration.
        from: f64,
        /// Window end as a fraction of the reference wall duration.
        to: f64,
    },
    /// A network partition between the origin and proxy `proxy` over
    /// `[from, to)`.
    Partition {
        /// Which proxy, as an index reduced modulo `num_proxies`.
        proxy: u32,
        /// Window start as a fraction of the reference wall duration.
        from: f64,
        /// Window end as a fraction of the reference wall duration.
        to: f64,
    },
}

/// Optional request steering: re-point a fraction of reads at recently
/// modified documents (`wcc_traces::synthetic::with_modification_interest`),
/// so writes actually land on cached copies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interest {
    /// Probability that a qualifying read is redirected.
    pub boost: f64,
    /// How long after a write a read counts as "interested".
    pub window: SimDuration,
}

/// One fully specified fuzz scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed this scenario was generated from; also drives trace
    /// generation and the modifier.
    pub seed: u64,
    /// The synthetic workload's calibration targets.
    pub spec: TraceSpec,
    /// Mean file lifetime driving the modifier.
    pub mean_lifetime: SimDuration,
    /// The protocol under test, fully tuned.
    pub protocol: ProtocolConfig,
    /// Deployment knobs (`audit` is forced on by the checker).
    pub options: DeploymentOptions,
    /// Optional post-write read steering.
    pub interest: Option<Interest>,
    /// The declarative failure schedule.
    pub faults: Vec<FaultSpec>,
    /// When set, the workload is a multi-origin scenario family
    /// (`wcc_traces::family`) generated from `spec`/`mean_lifetime` instead
    /// of the classic single-origin synthetic trace.
    pub family: Option<WorkloadFamily>,
}

impl Scenario {
    /// Samples the scenario for `seed`. Deterministic: the same seed always
    /// yields the same scenario, on every platform.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xf0_22_5c_e2_a7_1b_4d_93);

        // Workload shape: small enough that one scenario replays in
        // milliseconds, varied enough to exercise caching, eviction,
        // sharing and churn.
        let duration = SimDuration::from_hours(rng.gen_range(2u64..=36));
        let num_docs = rng.gen_range(4u32..=48);
        let mut spec = TraceSpec {
            name: "fuzz",
            duration,
            total_requests: rng.gen_range(60u64..=320),
            num_docs,
            num_clients: rng.gen_range(2u32..=32),
            avg_doc_size: ByteSize::from_kib(rng.gen_range(2u64..=64)),
            doc_zipf: rng.gen_range(0.6..1.05),
            client_zipf: rng.gen_range(0.5..0.9),
            diurnal_amplitude: rng.gen_range(0.0..0.7),
            default_lifetime: duration, // overridden by `mean_lifetime`
            num_origins: 1,
            origin_zipf: 0.0,
        };
        // Pick the lifetime so the modifier performs a target number of
        // writes (2..=40), independent of duration and population.
        let target_mods = rng.gen_range(2u64..=40);
        let mean_lifetime = duration
            .saturating_mul(num_docs as u64)
            .div(target_mods)
            .max(SimDuration::from_mins(10));

        let kind = *pick_weighted(
            &mut rng,
            &[
                (ProtocolKind::Invalidation, 22),
                (ProtocolKind::AdaptiveTtl, 13),
                (ProtocolKind::PollEveryTime, 13),
                (ProtocolKind::LeaseInvalidation, 13),
                (ProtocolKind::TwoTierLease, 13),
                (ProtocolKind::VolumeLease, 13),
                (ProtocolKind::FixedTtl, 6),
                (ProtocolKind::PiggybackInvalidation, 7),
            ],
        );
        let mut protocol = ProtocolConfig::new(kind)
            .with_lease(SimDuration::from_days(rng.gen_range(1u64..=4)))
            .with_fixed_ttl(SimDuration::from_hours(rng.gen_range(1u64..=48)))
            .with_volume_lease(SimDuration::from_mins(rng.gen_range(1u64..=8)));

        let mut options = DeploymentOptions {
            num_proxies: rng.gen_range(1u32..=4),
            ..Default::default()
        };
        // A retired dimension's draw (the decoupled invalidation sender),
        // kept with its value discarded so every committed corpus seed
        // still samples the same scenario in every other dimension.
        let _ = rng.gen_bool(0.25);
        if rng.gen_bool(0.3) {
            options.sharing = CacheSharing::SharedPerProxy;
        }
        if rng.gen_bool(0.25) {
            options.detection = ChangeDetection::BrowserBased;
        }
        options.window = SimDuration::from_mins(rng.gen_range(1u64..=8));
        if rng.gen_bool(0.2) {
            // A tight cache to force evictions and revalidation races.
            options.cache_capacity = ByteSize::from_kib(rng.gen_range(64u64..=512));
        }
        options.retry_interval = SimDuration::from_secs(rng.gen_range(1u64..=3));
        options.max_retries = rng.gen_range(10u32..=30);
        options.audit = true;

        let mut interest = rng.gen_bool(0.5).then(|| Interest {
            boost: rng.gen_range(0.2..0.6),
            window: SimDuration::from_hours(rng.gen_range(1u64..=4)),
        });

        let num_faults = *pick_weighted(&mut rng, &[(0usize, 35), (1, 30), (2, 20), (3, 15)]);
        let faults = (0..num_faults)
            .map(|_| {
                let from = rng.gen_range(0.05..0.7);
                let to = from + rng.gen_range(0.05..0.25);
                let proxy = rng.gen_range(0u32..4);
                match rng.gen_range(0u32..3) {
                    0 => FaultSpec::ProxyOutage { proxy, from, to },
                    1 => FaultSpec::OriginOutage { from, to },
                    _ => FaultSpec::Partition { proxy, from, to },
                }
            })
            .collect();

        // Family dimension — drawn *after* every classic draw so that every
        // pre-existing seed (the committed corpus included) still samples an
        // identical classic scenario.
        let family = rng
            .gen_bool(0.25)
            .then(|| WorkloadFamily::ALL[rng.gen_range(0..WorkloadFamily::ALL.len())]);
        if let Some(f) = family {
            spec.name = f.name();
            spec.num_origins = rng.gen_range(2u32..=6);
            spec.origin_zipf = rng.gen_range(0.3..1.0);
            spec.num_docs = spec.num_docs.max(spec.num_origins);
            if f == WorkloadFamily::RealTimeFeed {
                spec.diurnal_amplitude = 0.85;
            }
            // Multi-origin deployments are flat (`Deployment::build_multi`'s
            // contract), and the interest steering is a single-origin
            // feature.
            options.topology = Topology::Flat;
            interest = None;
        }

        // Batched-proposer dimension — drawn after the family block for
        // the same reason: committed corpus seeds must keep sampling the
        // scenario they were committed for. Half the scenarios keep the
        // per-write fan-out; the other half sweep the count threshold
        // across the full ablation range with a short age bound (sim-time
        // windows are five minutes, so a long age would just mean "flush
        // at the window barrier" for every setting).
        if rng.gen_bool(0.5) {
            let thresholds = [2usize, 4, 8, 16, 32];
            options.inval_batch = Some(InvalBatchConfig {
                max_entries: thresholds[rng.gen_range(0..thresholds.len())],
                max_age: SimDuration::from_micros(rng.gen_range(100u64..=200_000)),
                max_bytes: ByteSize::from_kib(rng.gen_range(1u64..=8)),
            });
        }
        // Adaptive lease economics ride along for a third of the
        // scenarios; the config is inert under non-lease protocols.
        if rng.gen_bool(0.35) {
            protocol = protocol.with_adaptive_lease(
                AdaptiveLeaseConfig::default()
                    .with_base(SimDuration::from_mins(rng.gen_range(10u64..=240))),
            );
        }

        Scenario {
            seed,
            spec,
            mean_lifetime,
            protocol,
            options,
            interest,
            faults,
            family,
        }
    }

    /// The full machine-readable scenario description (RON-style debug
    /// text) emitted in repro reports.
    pub fn describe(&self) -> String {
        format!("{self:#?}")
    }
}

/// Picks from `choices` with the given integer weights.
fn pick_weighted<'c, T>(rng: &mut impl Rng, choices: &'c [(T, u32)]) -> &'c T {
    let total: u32 = choices.iter().map(|(_, w)| w).sum();
    let mut draw = rng.gen_range(0..total);
    for (value, weight) in choices {
        if draw < *weight {
            return value;
        }
        draw -= weight;
    }
    &choices[choices.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a.describe(), b.describe(), "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::generate(1);
        let b = Scenario::generate(2);
        assert_ne!(a.describe(), b.describe());
    }

    #[test]
    fn sampled_space_is_diverse_and_well_formed() {
        let mut kinds = std::collections::HashSet::new();
        let mut with_faults = 0usize;
        for seed in 0..200u64 {
            let s = Scenario::generate(seed);
            kinds.insert(s.protocol.kind);
            with_faults += usize::from(!s.faults.is_empty());
            assert!(s.spec.total_requests >= 60);
            assert!(s.spec.num_docs >= 4);
            assert!(s.options.num_proxies >= 1);
            assert!(s.faults.len() <= 3);
            for f in &s.faults {
                let (from, to) = match *f {
                    FaultSpec::ProxyOutage { from, to, .. }
                    | FaultSpec::OriginOutage { from, to }
                    | FaultSpec::Partition { from, to, .. } => (from, to),
                };
                assert!(from > 0.0 && to > from && to < 1.0, "window {from}..{to}");
            }
            // The modifier must have a plausible write budget.
            let mods = s.spec.expected_modifications(s.mean_lifetime);
            assert!(mods >= 1, "seed {seed}: no writes sampled");
        }
        assert!(
            kinds.len() >= 6,
            "only {} protocol kinds in 200 seeds",
            kinds.len()
        );
        assert!(
            with_faults >= 80,
            "only {with_faults} faulted scenarios in 200"
        );
    }

    #[test]
    fn family_dimension_samples_every_family_and_keeps_multi_origin_legal() {
        let mut families = std::collections::HashSet::new();
        let mut with_family = 0usize;
        for seed in 0..400u64 {
            let s = Scenario::generate(seed);
            match s.family {
                None => assert_eq!(s.spec.num_origins, 1, "seed {seed}"),
                Some(f) => {
                    with_family += 1;
                    families.insert(f);
                    assert!(
                        (2..=6).contains(&s.spec.num_origins),
                        "seed {seed}: {} origins",
                        s.spec.num_origins
                    );
                    assert!(s.spec.num_docs >= s.spec.num_origins, "seed {seed}");
                    // `Deployment::build_multi` contract.
                    assert_eq!(s.options.topology, Topology::Flat, "seed {seed}");
                    assert!(s.interest.is_none(), "seed {seed}");
                }
            }
        }
        assert_eq!(
            families.len(),
            WorkloadFamily::ALL.len(),
            "only {families:?} sampled in 400 seeds"
        );
        assert!(
            with_family >= 60,
            "only {with_family} family scenarios in 400"
        );
    }
}
