//! The repo benchmark: see `README.md` beside this package.
pub mod affinity;
pub mod calib;
pub mod json;
pub mod kernels;
pub mod ladder;
pub mod metrics;
pub mod procfs;
pub mod report;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;
