//! Workload substrate: the five evaluation traces and the modifier process.
//!
//! The paper replays five Web-server traces from the Internet Traffic
//! Archive — EPA, SDSC, ClarkNet, NASA and SASK (Table 2) — and, because the
//! traces carry no modification history, drives a *modifier process* that
//! touches one uniformly random file every `N` seconds, yielding geometric
//! file lifetimes with mean `N × files`.
//!
//! The original traces are an external download, so this crate provides:
//!
//! * [`TraceSpec`] — per-trace calibration targets (duration, request count,
//!   file count, mean size, client population, popularity skew) matching the
//!   paper's Table 2, with file counts derived from the paper's own reported
//!   modification counts (see `DESIGN.md`);
//! * [`synthetic::generate`] — a deterministic generator producing a
//!   [`Trace`] from a spec and a seed (Zipf document popularity, Zipf client
//!   activity, diurnally modulated arrivals);
//! * [`clf::parse_clf`] — a Common Log Format parser, so the real ITA traces
//!   can be replayed verbatim if the user supplies them;
//! * [`ModSchedule`] — the modifier process and the version oracle used for
//!   staleness auditing;
//! * [`TraceSummary`] — the Table 2 row for any trace.
//!
//! # Example
//!
//! ```
//! use wcc_traces::{synthetic, TraceSpec, TraceSummary};
//!
//! let spec = TraceSpec::epa().scaled_down(100);
//! let trace = synthetic::generate(&spec, 42);
//! let summary = TraceSummary::of(&trace);
//! assert_eq!(summary.total_requests, trace.records.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clf;
pub mod family;
pub mod modifier;
pub mod spec;
pub mod summary;
pub mod synthetic;
pub mod zipf;

pub use family::{FamilyConfig, FamilyWorkload, WorkloadFamily};
pub use modifier::{ModSchedule, Modification};
pub use spec::TraceSpec;
pub use summary::TraceSummary;
pub use zipf::Zipf;

use wcc_types::{ByteSize, ClientId, ServerId, SimDuration, SimTime, Url};

/// One request in a trace: at time `at`, real client `client` asks for
/// `url`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Request timestamp (relative to trace start).
    pub at: SimTime,
    /// The requesting real client.
    pub client: ClientId,
    /// The requested document.
    pub url: Url,
}

/// A complete, replayable server trace: its request stream plus the sizes
/// of the documents it references.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Trace name (e.g. `"EPA"`).
    pub name: String,
    /// The origin server the trace hits.
    pub server: ServerId,
    /// Nominal trace duration.
    pub duration: SimDuration,
    /// Document sizes, indexed by document id; `doc_sizes.len()` is the
    /// server's document population.
    pub doc_sizes: Vec<ByteSize>,
    /// Requests, sorted by timestamp (ties in input order).
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// The number of documents the origin serves.
    pub fn doc_count(&self) -> usize {
        self.doc_sizes.len()
    }

    /// The size of document `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn doc_size(&self, doc: u32) -> ByteSize {
        self.doc_sizes[doc as usize]
    }

    /// Re-homes this trace onto a different origin server (multi-server
    /// deployments replay one trace per origin).
    #[must_use]
    pub fn reassign_server(mut self, server: ServerId) -> Trace {
        self.server = server;
        for rec in &mut self.records {
            rec.url = Url::new(server, rec.url.doc());
        }
        self
    }

    /// Checks the trace's internal invariants (sorted records, in-range doc
    /// ids); used by tests and by the CLF importer.
    pub fn validate(&self) -> Result<(), String> {
        let mut last = SimTime::ZERO;
        for (i, rec) in self.records.iter().enumerate() {
            if rec.at < last {
                return Err(format!("record {i} out of order"));
            }
            last = rec.at;
            if rec.url.server() != self.server {
                return Err(format!("record {i} names a foreign server"));
            }
            if rec.url.doc() as usize >= self.doc_sizes.len() {
                return Err(format!(
                    "record {i} references unknown doc {}",
                    rec.url.doc()
                ));
            }
        }
        Ok(())
    }
}
