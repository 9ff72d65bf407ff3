//! Deterministic fan-out: run independent experiments on worker threads.
//!
//! The paper's evaluation is a grid of *independent* replays — every cell
//! of Tables 3–5 is one `(trace, protocol, lifetime)` triple, and each
//! replay is a pure function of its [`ExperimentConfig`] (the simulator is
//! single-threaded and fully seeded). That makes the grid embarrassingly
//! parallel *without* giving up reproducibility: this module distributes
//! configs across scoped worker threads and reassembles the reports **in
//! submission order**, so the output of [`run_batch`] is byte-identical to
//! running the same configs sequentially — a property `tests/determinism.rs`
//! and CI enforce.
//!
//! The worker count comes from, in priority order: the explicit `jobs`
//! argument, the `WCC_JOBS` environment variable, and finally the number of
//! available cores. `--jobs 1` (or `WCC_JOBS=1`) degenerates to a plain
//! sequential loop on the calling thread, with no pool overhead.
//!
//! # Examples
//!
//! ```
//! use wcc_replay::{parallel, ExperimentConfig};
//! use wcc_core::ProtocolKind;
//! use wcc_traces::TraceSpec;
//!
//! let configs: Vec<ExperimentConfig> = ProtocolKind::PAPER_TRIO
//!     .iter()
//!     .map(|&kind| {
//!         ExperimentConfig::builder(TraceSpec::epa().scaled_down(300))
//!             .protocol(kind)
//!             .seed(1)
//!             .build()
//!     })
//!     .collect();
//! let reports = parallel::run_batch(&configs, Some(2));
//! // Reports come back in submission order regardless of which worker
//! // finished first.
//! assert_eq!(reports.len(), 3);
//! for (cfg, report) in configs.iter().zip(&reports) {
//!     assert_eq!(report.protocol, cfg.protocol.kind);
//! }
//! ```

use crate::experiment::{materialise, run_experiment, run_on, ExperimentConfig, ReplayReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use wcc_core::{ProtocolConfig, ProtocolKind};

/// Resolves the worker count for a fan-out.
///
/// Priority: explicit `jobs` (CLI `--jobs`) → the `WCC_JOBS` environment
/// variable → the machine's available parallelism. Zero (from either
/// source) and unparsable `WCC_JOBS` values fall through to the next
/// source; the result is always at least 1.
pub fn effective_jobs(jobs: Option<usize>) -> usize {
    if let Some(n) = jobs {
        if n > 0 {
            return n;
        }
    }
    if let Ok(var) = std::env::var("WCC_JOBS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    host_cores()
}

/// The host's core count (`available_parallelism`, floor 1).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on `jobs` worker threads, returning the
/// results **in input order**.
///
/// Work is handed out through a shared atomic cursor, so threads that draw
/// long items simply claim fewer of them; each result is written back into
/// its input slot, which is what makes the output order independent of
/// scheduling. With `jobs <= 1` (or one item) this is a plain `map` on the
/// calling thread.
///
/// `f` must be a pure function of the item for the "byte-identical to
/// sequential" guarantee to hold — true for experiment replays, which
/// depend only on the config and its embedded seed.
pub fn map_indexed<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let workers = jobs.min(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut produced: Vec<(usize, R)> = Vec::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= items.len() {
                        return produced;
                    }
                    produced.push((idx, f(&items[idx])));
                }
            }));
        }
        for handle in handles {
            let produced = match handle.join() {
                Ok(p) => p,
                // A worker panicked (an assertion inside a replay): re-raise
                // on the caller so the failure is not silently swallowed.
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (idx, result) in produced {
                slots[idx] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

/// Runs a batch of experiments, fanned out over [`effective_jobs`]`(jobs)`
/// workers, returning reports in submission order — byte-identical to
/// calling [`run_experiment`] on each config in turn.
pub fn run_batch(configs: &[ExperimentConfig], jobs: Option<usize>) -> Vec<ReplayReport> {
    map_indexed(configs, effective_jobs(jobs), run_experiment)
}

/// Replays `base`'s one materialised workload under each of `protocols`,
/// the way the paper compares protocols: the replays fan out over
/// [`effective_jobs`]`(jobs)` workers and the reports come back in
/// `protocols` order, byte-identical at any job count.
pub fn run_protocols(
    base: &ExperimentConfig,
    protocols: &[ProtocolConfig],
    jobs: Option<usize>,
) -> Vec<ReplayReport> {
    let (trace, mods) = materialise(base);
    let configs: Vec<ExperimentConfig> = protocols
        .iter()
        .map(|protocol| ExperimentConfig {
            protocol: protocol.clone(),
            ..base.clone()
        })
        .collect();
    map_indexed(&configs, effective_jobs(jobs), |cfg| {
        run_on(cfg, &trace, &mods)
    })
}

/// The paper's three-way comparison — adaptive TTL, polling-every-time,
/// invalidation, in its column order — over one identical workload: one
/// block of Tables 3/4 ([`run_protocols`] over
/// [`ProtocolKind::PAPER_TRIO`]).
pub fn run_trio(base: &ExperimentConfig, jobs: Option<usize>) -> [ReplayReport; 3] {
    let trio = ProtocolKind::PAPER_TRIO.map(ProtocolConfig::new);
    let reports = run_protocols(base, &trio, jobs);
    reports.try_into().expect("one report per trio protocol")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_core::ProtocolKind;
    use wcc_traces::TraceSpec;

    #[test]
    fn explicit_jobs_wins_and_zero_falls_through() {
        assert_eq!(effective_jobs(Some(3)), 3);
        assert!(effective_jobs(Some(0)) >= 1);
        assert!(effective_jobs(None) >= 1);
    }

    #[test]
    fn map_indexed_preserves_input_order() {
        let items: Vec<u64> = (0..37).collect();
        // Uneven per-item cost to force out-of-order completion.
        let square = |&x: &u64| {
            if x % 5 == 0 {
                std::thread::yield_now();
            }
            x * x
        };
        for jobs in [1, 2, 4, 8] {
            let out = map_indexed(&items, jobs, square);
            assert_eq!(out, items.iter().map(square).collect::<Vec<_>>());
        }
    }

    #[test]
    fn batch_matches_sequential_run() {
        let configs: Vec<ExperimentConfig> = [1u64, 2, 3, 4]
            .iter()
            .map(|&seed| {
                ExperimentConfig::builder(TraceSpec::epa().scaled_down(400))
                    .protocol(ProtocolKind::Invalidation)
                    .seed(seed)
                    .build()
            })
            .collect();
        let sequential = run_batch(&configs, Some(1));
        let parallel = run_batch(&configs, Some(4));
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(format!("{s:?}"), format!("{p:?}"));
        }
    }
}
