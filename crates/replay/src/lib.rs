//! The trace-replay experiment harness.
//!
//! This crate turns the building blocks below it into the paper's
//! experiments:
//!
//! * [`ExperimentConfig`] / [`run_experiment`] — one protocol over one
//!   trace with one mean file lifetime (one column of Tables 3/4);
//! * [`run_trio`] — the adaptive-TTL / polling / invalidation comparison
//!   (one full block of Tables 3/4), [`run_protocols`] for any list;
//! * [`parallel`] — the deterministic fan-out pool: batches of experiments
//!   run on worker threads (`--jobs N` / `WCC_JOBS`), reports returned in
//!   submission order, byte-identical to a sequential run;
//! * [`tables`] — formatting that mirrors the paper's table layout,
//!   including Table 5's invalidation-cost rows;
//! * [`failure`] — the §4 failure scenarios (proxy crash, server crash,
//!   network partition) with machine-checkable outcomes;
//! * [`two_tier_comparison`] — the §6 two-tier-lease evaluation.
//!
//! # Example
//!
//! ```
//! use wcc_replay::{run_experiment, ExperimentConfig};
//! use wcc_core::ProtocolKind;
//! use wcc_traces::TraceSpec;
//!
//! let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(200))
//!     .protocol(ProtocolKind::Invalidation)
//!     .seed(1)
//!     .build();
//! let report = run_experiment(&cfg);
//! assert!(report.raw.finished);
//! assert_eq!(report.raw.final_violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod failure;
pub mod parallel;
pub mod tables;

pub use experiment::{
    materialise, run_experiment, two_tier_comparison, ExperimentConfig, ExperimentConfigBuilder,
    ReplayReport, TwoTierComparison,
};
pub use failure::{
    partition_scenario, proxy_crash_scenario, reference_wall, server_crash_scenario,
    server_crash_under_partition_scenario, FailureOutcome,
};
pub use parallel::{effective_jobs, host_cores, run_batch, run_protocols, run_trio};
pub use wcc_audit::{AuditReport, Violation};
