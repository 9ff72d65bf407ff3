//! Shared plumbing for the table-regeneration binaries and benches.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md` §4 for the full index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — analytical message counts |
//! | `table2` | Table 2 — trace summaries |
//! | `table3` | Table 3 — EPA / SASK / ClarkNet replays |
//! | `table4` | Table 4 — NASA / SDSC replays |
//! | `table5` | Table 5 — invalidation costs |
//! | `section6` | §6 — two-tier lease evaluation |
//! | `ablation_decoupled` | A1 — synchronous vs. decoupled sender |
//! | `ablation_replacement` | A2 — expired-first vs. LRU replacement |
//! | `ablation_lease` | A3 — lease-duration sweep |
//! | `failure_report` | F1 — §4 failure scenarios |
//! | `trajectory` | `BENCH_replay.json` — the table of gated rows (`--check` is the exactness gate) |
//!
//! Every binary accepts an optional `--scale N` argument that divides the
//! workload size by `N` (full scale by default; the full tables take a few
//! seconds total in release mode) and an optional `--jobs N` worker count
//! for the replay fan-out (default: `WCC_JOBS`, else the core count —
//! see [`wcc_replay::effective_jobs`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;
pub mod trajectory;

use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

/// The workload seed every table binary uses, so tables are reproducible.
pub const TABLE_SEED: u64 = 1997;

/// The six replay experiments of Tables 3 and 4, in paper order:
/// `(spec, mean lifetime, paper's reported modification count)`.
pub fn paper_experiments() -> Vec<(TraceSpec, SimDuration, u64)> {
    vec![
        (TraceSpec::epa(), SimDuration::from_days(50), 72),
        (TraceSpec::sask(), SimDuration::from_days(14), 1148),
        (TraceSpec::clarknet(), SimDuration::from_days(50), 40),
        (TraceSpec::nasa(), SimDuration::from_days(7), 144),
        (TraceSpec::sdsc(), SimDuration::from_days(25), 57),
        (
            TraceSpec::sdsc(),
            SimDuration::from_secs(5 * 86_400 / 2), // 2.5 days
            576,
        ),
    ]
}

/// Parses the common `--scale N` argument (defaults to 1 = full scale).
///
/// # Examples
///
/// ```
/// assert_eq!(wcc_bench::parse_scale(["prog".into()].into_iter()), 1);
/// assert_eq!(
///     wcc_bench::parse_scale(["prog".into(), "--scale".into(), "10".into()].into_iter()),
///     10
/// );
/// ```
pub fn parse_scale(mut args: impl Iterator<Item = String>) -> u64 {
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                if n >= 1 {
                    return n;
                }
            }
            eprintln!("warning: bad --scale value; using full scale");
            return 1;
        }
    }
    1
}

/// Parses the common `--jobs N` argument: `Some(n)` when given (0 is
/// treated as "auto", like omitting the flag), `None` otherwise — `None`
/// defers to `WCC_JOBS` / the core count via
/// [`wcc_replay::effective_jobs`].
///
/// # Examples
///
/// ```
/// assert_eq!(wcc_bench::parse_jobs(["prog".into()].into_iter()), None);
/// assert_eq!(
///     wcc_bench::parse_jobs(["prog".into(), "--jobs".into(), "4".into()].into_iter()),
///     Some(4)
/// );
/// ```
pub fn parse_jobs(mut args: impl Iterator<Item = String>) -> Option<usize> {
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => return Some(n),
                Some(_) => return None, // 0 = auto
                None => {
                    eprintln!("warning: bad --jobs value; using auto");
                    return None;
                }
            }
        }
    }
    None
}

/// A labelled experiment id for the SDSC lifetime variants: the paper calls
/// them SDSC(57) and SDSC(576) after their modification counts.
pub fn experiment_label(spec: &TraceSpec, lifetime: SimDuration) -> String {
    if spec.name == "SDSC" {
        let mods = spec.expected_modifications(lifetime);
        format!("SDSC({mods})")
    } else {
        spec.name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_experiments_in_paper_order() {
        let exps = paper_experiments();
        assert_eq!(exps.len(), 6);
        assert_eq!(exps[0].0.name, "EPA");
        assert_eq!(exps[5].0.name, "SDSC");
        // The derived file counts reproduce the paper's modification counts.
        for (spec, lifetime, paper_mods) in &exps {
            let mods = spec.expected_modifications(*lifetime);
            let tol = (*paper_mods as f64 * 0.03).ceil() as i64 + 1;
            assert!(
                (mods as i64 - *paper_mods as i64).abs() <= tol,
                "{}: {mods} vs {paper_mods}",
                spec.name
            );
        }
    }

    #[test]
    fn scale_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_scale(args(&["p"]).into_iter()), 1);
        assert_eq!(parse_scale(args(&["p", "--scale", "25"]).into_iter()), 25);
        assert_eq!(parse_scale(args(&["p", "--scale", "zero"]).into_iter()), 1);
        assert_eq!(parse_scale(args(&["p", "--scale", "0"]).into_iter()), 1);
    }

    #[test]
    fn jobs_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_jobs(args(&["p"]).into_iter()), None);
        assert_eq!(parse_jobs(args(&["p", "--jobs", "8"]).into_iter()), Some(8));
        assert_eq!(parse_jobs(args(&["p", "--jobs", "0"]).into_iter()), None);
        assert_eq!(parse_jobs(args(&["p", "--jobs", "x"]).into_iter()), None);
        assert_eq!(parse_jobs(args(&["p", "--scale", "4"]).into_iter()), None);
    }

    #[test]
    fn sdsc_labels_follow_paper_convention() {
        let (spec, fast, _) = paper_experiments().remove(5);
        let label = experiment_label(&spec, fast);
        assert!(label.starts_with("SDSC("), "{label}");
        assert_eq!(
            experiment_label(&TraceSpec::epa(), SimDuration::from_days(50)),
            "EPA"
        );
    }
}
