//! Deterministic scenario fuzzing for the cache-consistency simulator.
//!
//! FoundationDB-style simulation testing: a single `u64` seed expands into
//! a complete experiment — synthetic workload, protocol and tuning,
//! deployment knobs, and a declarative crash/partition schedule
//! ([`Scenario`]) — which replays inside the deterministic simulator with
//! auditing on. The consistency auditor (`wcc-audit`) is the oracle,
//! extended with cross-cutting invariants (liveness, determinism, polling
//! purity, promise freshness, weak dominance; see [`check`]). Failures
//! shrink greedily ([`shrink`]) and print a self-contained repro: a seed
//! line to paste into `tests/fuzz_corpus.rs` plus the minimised scenario.
//!
//! Everything is a pure function of the base seed — no wall clocks, no
//! ambient randomness — so `fuzz` with the same [`FuzzConfig`] produces
//! byte-identical summaries on every run and platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod scenario;
pub mod shrink;

pub use check::{check, CheckOptions, CheckStats, FailureKind, FuzzFailure};
pub use scenario::{FaultSpec, Interest, Scenario};
pub use shrink::{shrink, Shrunk, DEFAULT_SHRINK_BUDGET};

use std::collections::BTreeMap;
use std::fmt;

/// Derives the scenario seed for iteration `iter` of a run based at
/// `base` (a splitmix64-style mix, so consecutive iterations decorrelate).
pub fn scenario_seed(base: u64, iter: u64) -> u64 {
    let mut z = base ^ iter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Knobs for one fuzzing run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Scenarios to try (the run stops early at the first failure).
    pub iters: u64,
    /// Base seed; iteration `i` replays `scenario_seed(seed, i)`.
    pub seed: u64,
    /// Minimise a found failure before reporting it.
    pub shrink: bool,
    /// Self-test mode: plant a forged stale serve in every scenario's
    /// audit log and require the auditor to find it.
    pub inject_stale_serve: bool,
    /// Worker threads for scenario evaluation: 0 resolves like
    /// [`wcc_replay::effective_jobs`] (CLI `--jobs` / `WCC_JOBS` / cores).
    /// The outcome is byte-identical at any job count.
    pub jobs: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 100,
            seed: 1,
            shrink: false,
            inject_stale_serve: false,
            jobs: 0,
        }
    }
}

/// A failure the fuzzer found, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FoundFailure {
    /// Which iteration hit it.
    pub iter: u64,
    /// The scenario seed (`scenario_seed(base, iter)`).
    pub seed: u64,
    /// The failing scenario as generated.
    pub scenario: Scenario,
    /// The oracle verdict.
    pub failure: FuzzFailure,
    /// `true` when this is injection mode's planted fault being correctly
    /// detected (the expected outcome there, not a system bug).
    pub planted: bool,
    /// The minimised scenario, when shrinking was requested.
    pub shrunk: Option<Shrunk>,
}

impl FoundFailure {
    /// A self-contained repro report: the regression seed line for
    /// `tests/fuzz_corpus.rs` plus the (shrunk) scenario description.
    pub fn repro(&self) -> String {
        let mut out = String::new();
        out.push_str("== wcc fuzz repro ==\n");
        out.push_str(&format!(
            "failure at iter {}: {}\n\n",
            self.iter, self.failure
        ));
        out.push_str("regression seed line for tests/fuzz_corpus.rs:\n");
        out.push_str(&format!(
            "    {:#018x}, // {}: {}\n\n",
            self.seed, self.failure.kind, self.scenario.protocol.kind,
        ));
        match &self.shrunk {
            Some(s) => {
                out.push_str(&format!(
                    "shrunk scenario ({} fault(s), {} reqs, {} docs, {} clients; \
                     {} evaluations over {} rounds):\n{}\n\n",
                    s.scenario.faults.len(),
                    s.scenario.spec.total_requests,
                    s.scenario.spec.num_docs,
                    s.scenario.spec.num_clients,
                    s.evaluations,
                    s.rounds,
                    s.scenario.describe(),
                ));
                out.push_str(&format!("shrunk failure: {}\n\n", s.failure));
            }
            None => out.push_str("(shrinking was not requested)\n\n"),
        }
        out.push_str(&format!(
            "original scenario:\n{}\n",
            self.scenario.describe()
        ));
        out
    }
}

/// Aggregate result of a fuzzing run. `Display` is deterministic for a
/// given [`FuzzConfig`] — two runs print byte-identical summaries.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The configuration replayed.
    pub config: FuzzConfig,
    /// Scenarios actually evaluated (< `iters` when a failure stopped
    /// the run early).
    pub iters_run: u64,
    /// Scenarios that passed the whole oracle.
    pub clean: u64,
    /// Clean scenarios per protocol kind.
    pub by_protocol: BTreeMap<String, u64>,
    /// Total user requests replayed across clean scenarios.
    pub requests: u64,
    /// Total audit events recorded across clean scenarios.
    pub events: u64,
    /// Total from-cache serves the auditor checked.
    pub checked_serves: u64,
    /// Total fault-plan entries resolved onto simulations.
    pub fault_entries: u64,
    /// The first failure, if any.
    pub failure: Option<FoundFailure>,
}

impl FuzzOutcome {
    /// `true` when the run found no violation (injection mode inverts
    /// this: there, finding the plant is the passing outcome).
    pub fn passed(&self) -> bool {
        match &self.failure {
            None => !self.config.inject_stale_serve,
            Some(f) => f.planted,
        }
    }
}

impl fmt::Display for FuzzOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: {} of {} scenario(s) from base seed {:#x}, {} clean",
            self.iters_run, self.config.iters, self.config.seed, self.clean
        )?;
        if !self.by_protocol.is_empty() {
            write!(f, "  protocols:")?;
            for (kind, n) in &self.by_protocol {
                write!(f, " {kind}\u{d7}{n}")?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "  totals: {} requests, {} audit events, {} checked serves, {} fault entries",
            self.requests, self.events, self.checked_serves, self.fault_entries
        )?;
        match &self.failure {
            None => writeln!(f, "  no oracle violations")?,
            Some(found) => {
                let tag = if found.planted { "PLANT FOUND" } else { "FAIL" };
                writeln!(
                    f,
                    "  {tag} at iter {} (seed {:#018x}): {}",
                    found.iter, found.seed, found.failure
                )?;
                if let Some(s) = &found.shrunk {
                    writeln!(
                        f,
                        "  shrunk to {} fault(s), {} reqs, {} docs, {} clients \
                         in {} evaluation(s)",
                        s.scenario.faults.len(),
                        s.scenario.spec.total_requests,
                        s.scenario.spec.num_docs,
                        s.scenario.spec.num_clients,
                        s.evaluations,
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Runs the fuzzer: `iters` seeded scenarios through [`check`], stopping
/// at the first oracle violation (shrinking it when configured).
pub fn fuzz(config: &FuzzConfig) -> FuzzOutcome {
    let opts = CheckOptions {
        inject_stale_serve: config.inject_stale_serve,
    };
    let mut outcome = FuzzOutcome {
        config: *config,
        iters_run: 0,
        clean: 0,
        by_protocol: BTreeMap::new(),
        requests: 0,
        events: 0,
        checked_serves: 0,
        fault_entries: 0,
        failure: None,
    };

    // Scenarios are independent pure functions of their seed, so blocks of
    // them fan out over the worker pool; the verdicts are then scanned in
    // iteration order, which keeps the early-stop point — and therefore the
    // whole summary — byte-identical to the sequential loop. At most one
    // block of speculative work past a failure is discarded.
    let jobs = wcc_replay::effective_jobs((config.jobs > 0).then_some(config.jobs));
    let block = (jobs as u64).saturating_mul(2).max(1);
    let mut next = 0u64;
    'sweep: while next < config.iters {
        let end = next.saturating_add(block).min(config.iters);
        let iters: Vec<u64> = (next..end).collect();
        let results = wcc_replay::parallel::map_indexed(&iters, jobs, |&iter| {
            let seed = scenario_seed(config.seed, iter);
            let scenario = Scenario::generate(seed);
            let verdict = check(&scenario, &opts);
            (seed, scenario, verdict)
        });
        for (iter, (seed, scenario, verdict)) in iters.iter().copied().zip(results) {
            outcome.iters_run += 1;
            match verdict {
                Ok(stats) => {
                    outcome.clean += 1;
                    *outcome
                        .by_protocol
                        .entry(stats.protocol.to_string())
                        .or_insert(0) += 1;
                    outcome.requests += stats.requests;
                    outcome.events += stats.events as u64;
                    outcome.checked_serves += stats.checked_serves;
                    outcome.fault_entries += stats.fault_entries as u64;
                }
                Err(failure) => {
                    let planted = config.inject_stale_serve
                        && failure.kind == FailureKind::Audit(wcc_audit::Check::Staleness)
                        && failure.detail.starts_with("planted");
                    // Shrinking is rare (first failure only) and stays on
                    // the calling thread.
                    let shrunk = config
                        .shrink
                        .then(|| shrink(&scenario, &failure, &opts, DEFAULT_SHRINK_BUDGET));
                    outcome.failure = Some(FoundFailure {
                        iter,
                        seed,
                        scenario,
                        failure,
                        planted,
                        shrunk,
                    });
                    break 'sweep;
                }
            }
        }
        next = end;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_seed_mixes() {
        assert_ne!(scenario_seed(1, 0), scenario_seed(1, 1));
        assert_ne!(scenario_seed(1, 0), scenario_seed(2, 0));
        assert_eq!(scenario_seed(7, 3), scenario_seed(7, 3));
    }

    #[test]
    fn tiny_fuzz_run_is_deterministic_and_clean() {
        let config = FuzzConfig {
            iters: 4,
            seed: 1,
            ..FuzzConfig::default()
        };
        let a = fuzz(&config);
        let b = fuzz(&config);
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.passed(), "unexpected failure:\n{a}");
        assert_eq!(a.clean, 4);
    }

    #[test]
    fn injection_is_found_and_shrinks_small() {
        let config = FuzzConfig {
            iters: 100,
            seed: 1,
            shrink: true,
            inject_stale_serve: true,
            ..FuzzConfig::default()
        };
        let outcome = fuzz(&config);
        let found = outcome.failure.as_ref().expect("plant never found");
        assert!(found.planted, "non-planted failure: {}", found.failure);
        assert!(outcome.passed());
        let shrunk = found.shrunk.as_ref().expect("shrink was requested");
        assert!(
            shrunk.scenario.faults.len() <= 3,
            "shrunk scenario still has {} faults",
            shrunk.scenario.faults.len()
        );
        assert!(found.repro().contains("tests/fuzz_corpus.rs"));
    }
}
