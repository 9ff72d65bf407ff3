//! Experiment configuration and execution.

use wcc_audit::AuditReport;
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions, RawReport};
use wcc_simnet::FaultPlan;
use wcc_traces::{synthetic, ModSchedule, Trace, TraceSpec};
use wcc_types::SimDuration;

/// Everything needed to reproduce one replay: trace spec, protocol, mean
/// file lifetime and seed.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The workload.
    pub spec: TraceSpec,
    /// The protocol under test.
    pub protocol: ProtocolConfig,
    /// Mean file lifetime driving the modifier (`None` → the spec's paper
    /// default).
    pub mean_lifetime: Option<SimDuration>,
    /// RNG seed for trace generation and the modifier.
    pub seed: u64,
    /// Deployment knobs.
    pub options: DeploymentOptions,
}

impl ExperimentConfig {
    /// Starts building a config over `spec`.
    pub fn builder(spec: TraceSpec) -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig {
                spec,
                protocol: ProtocolConfig::new(ProtocolKind::Invalidation),
                mean_lifetime: None,
                seed: 42,
                options: DeploymentOptions::default(),
            },
        }
    }

    /// The effective mean lifetime.
    pub fn lifetime(&self) -> SimDuration {
        self.mean_lifetime.unwrap_or(self.spec.default_lifetime)
    }
}

/// Builder for [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Selects the protocol (default tuning).
    #[must_use]
    pub fn protocol(mut self, kind: ProtocolKind) -> Self {
        self.cfg.protocol = ProtocolConfig::new(kind);
        self
    }

    /// Selects a fully tuned protocol config.
    #[must_use]
    pub fn protocol_config(mut self, cfg: ProtocolConfig) -> Self {
        self.cfg.protocol = cfg;
        self
    }

    /// Overrides the mean file lifetime.
    #[must_use]
    pub fn mean_lifetime(mut self, lifetime: SimDuration) -> Self {
        self.cfg.mean_lifetime = Some(lifetime);
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Overrides the deployment options.
    #[must_use]
    pub fn options(mut self, options: DeploymentOptions) -> Self {
        self.cfg.options = options;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ExperimentConfig {
        self.cfg
    }
}

/// One replay's results plus its provenance.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Trace name.
    pub trace: String,
    /// Protocol replayed.
    pub protocol: ProtocolKind,
    /// Mean file lifetime used.
    pub mean_lifetime: SimDuration,
    /// Modifications performed.
    pub files_modified: u64,
    /// Seed used.
    pub seed: u64,
    /// The measurements.
    pub raw: RawReport,
    /// The consistency auditor's verdict, when the replay ran with
    /// [`DeploymentOptions::audit`] set.
    pub audit: Option<AuditReport>,
}

impl ReplayReport {
    /// Reads the report off `deployment` once it has replayed the workload
    /// named `trace` — `mods` are its modification schedules, one per
    /// origin — under `protocol`, `mean_lifetime` and `seed`. `audit`
    /// attaches the auditor's verdict; the deployment must then have been
    /// built with [`DeploymentOptions::audit`].
    pub fn collect<'a>(
        deployment: &Deployment,
        trace: &str,
        protocol: ProtocolKind,
        mean_lifetime: SimDuration,
        seed: u64,
        mods: impl IntoIterator<Item = &'a ModSchedule>,
        audit: bool,
    ) -> ReplayReport {
        ReplayReport {
            trace: trace.to_string(),
            protocol,
            mean_lifetime,
            files_modified: mods
                .into_iter()
                .map(|m| m.modifications().len() as u64)
                .sum(),
            seed,
            raw: deployment.collect(),
            audit: audit.then(|| deployment.audit()),
        }
    }
}

/// Materialises the workload for a config (deterministic).
pub fn materialise(cfg: &ExperimentConfig) -> (Trace, ModSchedule) {
    let trace = synthetic::generate(&cfg.spec, cfg.seed);
    let mods = ModSchedule::generate(
        cfg.spec.num_docs,
        cfg.lifetime(),
        cfg.spec.duration,
        cfg.seed,
    );
    (trace, mods)
}

/// Runs one experiment end-to-end.
pub fn run_experiment(cfg: &ExperimentConfig) -> ReplayReport {
    let (trace, mods) = materialise(cfg);
    run_on(cfg, &trace, &mods)
}

/// Runs one experiment over an already-materialised workload (so a trio
/// shares the identical trace and modification schedule, as in the paper).
pub fn run_on(cfg: &ExperimentConfig, trace: &Trace, mods: &ModSchedule) -> ReplayReport {
    run_faulted_on(cfg, trace, mods, |_| FaultPlan::new())
}

/// [`run_on`] with the fault plan `faults` draws up for the built
/// deployment (it needs the node ids) scheduled before the run.
pub(crate) fn run_faulted_on(
    cfg: &ExperimentConfig,
    trace: &Trace,
    mods: &ModSchedule,
    faults: impl FnOnce(&Deployment) -> FaultPlan,
) -> ReplayReport {
    let mut deployment = Deployment::build(trace, mods, &cfg.protocol, cfg.options.clone());
    deployment.apply_faults(&faults(&deployment));
    deployment.run();
    ReplayReport::collect(
        &deployment,
        &trace.name,
        cfg.protocol.kind,
        cfg.lifetime(),
        cfg.seed,
        [mods],
        cfg.options.audit,
    )
}

/// The §6 two-tier-lease evaluation: plain invalidation vs. two-tier over
/// one identical workload.
#[derive(Debug, Clone)]
pub struct TwoTierComparison {
    /// Plain-invalidation run.
    pub plain: ReplayReport,
    /// Two-tier run.
    pub two_tier: ReplayReport,
}

impl TwoTierComparison {
    /// Extra `If-Modified-Since` requests the two-tier scheme trades for its
    /// smaller site lists.
    pub fn extra_ims(&self) -> i64 {
        self.two_tier.raw.ims as i64 - self.plain.raw.ims as i64
    }

    /// Site-list entry reduction: `(plain entries, two-tier entries)`.
    pub fn entries(&self) -> (u64, u64) {
        (
            self.plain.raw.sitelist.total_entries,
            self.two_tier.raw.sitelist.total_entries,
        )
    }

    /// Max site-list length reduction (among all lists at end of run).
    pub fn max_list(&self) -> (u64, u64) {
        (
            self.plain.raw.sitelist.max_list_len,
            self.two_tier.raw.sitelist.max_list_len,
        )
    }
}

/// Runs the two-tier comparison for `base` (whose protocol is ignored) on
/// up to `jobs` workers, as [`crate::run_protocols`] does. `lease` is the
/// two-tier full lease; the plain run uses infinite leases.
pub fn two_tier_comparison(
    base: &ExperimentConfig,
    lease: SimDuration,
    jobs: Option<usize>,
) -> TwoTierComparison {
    let protocols = [
        ProtocolConfig::new(ProtocolKind::Invalidation),
        ProtocolConfig::new(ProtocolKind::TwoTierLease).with_lease(lease),
    ];
    let [plain, two_tier] = crate::run_protocols(base, &protocols, jobs)
        .try_into()
        .expect("one report per protocol");
    TwoTierComparison { plain, two_tier }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(scale: u64) -> ExperimentConfig {
        ExperimentConfig::builder(TraceSpec::epa().scaled_down(scale))
            .seed(3)
            .build()
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let cfg = ExperimentConfig::builder(TraceSpec::sdsc())
            .protocol(ProtocolKind::AdaptiveTtl)
            .mean_lifetime(SimDuration::from_days(2))
            .seed(9)
            .build();
        assert_eq!(cfg.protocol.kind, ProtocolKind::AdaptiveTtl);
        assert_eq!(cfg.lifetime(), SimDuration::from_days(2));
        assert_eq!(cfg.seed, 9);
        // Default lifetime comes from the spec.
        assert_eq!(base(100).lifetime(), SimDuration::from_days(50));
    }

    #[test]
    fn experiments_are_reproducible() {
        let cfg = base(300);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.raw.total_messages, b.raw.total_messages);
        assert_eq!(a.raw.total_bytes, b.raw.total_bytes);
        assert_eq!(a.raw.hits, b.raw.hits);
        assert_eq!(a.raw.latency.max(), b.raw.latency.max());
    }

    #[test]
    fn trio_shares_workload_and_orders_columns() {
        let trio = crate::run_trio(&base(300), None);
        assert_eq!(trio[0].protocol, ProtocolKind::AdaptiveTtl);
        assert_eq!(trio[1].protocol, ProtocolKind::PollEveryTime);
        assert_eq!(trio[2].protocol, ProtocolKind::Invalidation);
        // Identical workload: same request count and modification count.
        assert!(trio.windows(2).all(|w| {
            w[0].raw.requests == w[1].raw.requests && w[0].files_modified == w[1].files_modified
        }));
    }

    #[test]
    fn trio_reproduces_paper_shape_on_scaled_epa() {
        let trio = crate::run_trio(&base(100), None);
        let (ttl, poll, inval) = (&trio[0].raw, &trio[1].raw, &trio[2].raw);
        // Polling sends the most messages.
        assert!(poll.total_messages > ttl.total_messages);
        assert!(poll.total_messages > inval.total_messages);
        // Strong protocols never serve stale cache bytes here.
        assert_eq!(poll.stale_hits, 0);
        assert_eq!(inval.final_violations, 0);
        // Polling's minimum latency (always one server round trip) exceeds
        // the others' (pure cache hits).
        assert!(poll.latency.min() >= ttl.latency.min());
        assert!(poll.latency.min() >= inval.latency.min());
    }

    #[test]
    fn two_tier_shrinks_site_lists_for_extra_ims() {
        let base = ExperimentConfig::builder(TraceSpec::sask().scaled_down(100))
            .seed(5)
            .build();
        let cmp = two_tier_comparison(&base, SimDuration::from_days(30), None);
        let (plain_entries, tt_entries) = cmp.entries();
        assert!(
            tt_entries < plain_entries,
            "two-tier should shrink the table: {tt_entries} vs {plain_entries}"
        );
        assert!(cmp.extra_ims() >= 0, "two-tier never sends fewer IMS");
        // Strong consistency preserved.
        assert_eq!(cmp.two_tier.raw.final_violations, 0);
    }
}
