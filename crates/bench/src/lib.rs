//! Shared plumbing for the paper-table programs and benches.
//!
//! [`tables`] holds one program per artifact of the paper's evaluation;
//! `wcc bench list` names them and `wcc bench <name> [--scale N] [--jobs N]`
//! runs one. [`trajectory`] is `BENCH_replay.json`, the table of gated rows
//! behind `wcc bench trajectory` (`--check` is the exactness gate), and
//! [`serve`] is the keep-alive stress bench behind `wcc bench serve`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;
pub mod tables;
pub mod trajectory;

use wcc_traces::TraceSpec;
use wcc_types::SimDuration;

/// The workload seed every table program uses, so tables are reproducible.
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
