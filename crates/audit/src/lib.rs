//! Static verification of the strong-consistency invariants.
//!
//! [`audit`] — the **protocol auditor** — replays a recorded
//! [`AuditEvent`](wcc_types::AuditEvent) stream (emitted by the replay
//! harness when [`DeploymentOptions::audit`] is set) and checks the paper's
//! invariants — staleness-freedom, write completion, site-list conservation
//! and lease safety — reporting each violation together with the offending
//! event subsequence. It is passive: it reads the log and changes nothing.
//!
//! [`DeploymentOptions::audit`]: https://docs.rs/wcc-httpsim

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::wildcard_enum_match_arm)]

mod protocol;

pub use protocol::{audit, AuditReport, Check, Expectations, Violation};
