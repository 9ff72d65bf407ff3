//! Table 2: trace summaries.

use crate::Trace;
use std::collections::{HashMap, HashSet};
use std::fmt;
use wcc_types::{ByteSize, ClientId, SimDuration};

/// The statistics the paper's Table 2 reports for each trace.
///
/// "File popularity shows the maximum number of different client sites that
/// requested the same document (the average is shown in parenthesis)."
///
/// # Examples
///
/// ```
/// use wcc_traces::{synthetic, TraceSpec, TraceSummary};
///
/// let trace = synthetic::generate(&TraceSpec::epa().scaled_down(100), 1);
/// let s = TraceSummary::of(&trace);
/// println!("{s}");
/// assert!(s.num_files > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Trace name.
    pub name: String,
    /// Trace duration.
    pub duration: SimDuration,
    /// Total requests.
    pub total_requests: u64,
    /// Distinct documents actually requested.
    pub num_files: u64,
    /// Mean size of the requested documents.
    pub avg_file_size: ByteSize,
    /// Maximum number of distinct clients that requested one document.
    pub max_popularity: u64,
    /// Average number of distinct clients per requested document.
    pub avg_popularity: f64,
    /// Distinct client sites in the trace.
    pub num_clients: u64,
}

impl TraceSummary {
    /// Computes the summary of a trace.
    pub fn of(trace: &Trace) -> TraceSummary {
        let mut per_doc_clients: HashMap<u32, HashSet<ClientId>> = HashMap::new();
        let mut clients: HashSet<ClientId> = HashSet::new();
        for rec in &trace.records {
            per_doc_clients
                .entry(rec.url.doc())
                .or_default()
                .insert(rec.client);
            clients.insert(rec.client);
        }
        let num_files = per_doc_clients.len() as u64;
        #[expect(clippy::disallowed_methods, reason = "a max")]
        let max_popularity = per_doc_clients
            .values()
            .map(|s| s.len() as u64)
            .max()
            .unwrap_or(0);
        #[expect(clippy::disallowed_methods, reason = "a sum")]
        let total_popularity: u64 = per_doc_clients.values().map(|s| s.len() as u64).sum();
        let avg_popularity = if num_files == 0 {
            0.0
        } else {
            total_popularity as f64 / num_files as f64
        };
        #[expect(clippy::disallowed_methods, reason = "a sum")]
        let total_size: ByteSize = per_doc_clients.keys().map(|&d| trace.doc_size(d)).sum();
        let avg_file_size =
            ByteSize::from_bytes(total_size.as_u64().checked_div(num_files).unwrap_or(0));
        TraceSummary {
            name: trace.name.clone(),
            duration: trace.duration,
            total_requests: trace.records.len() as u64,
            num_files,
            avg_file_size,
            max_popularity,
            avg_popularity,
            num_clients: clients.len() as u64,
        }
    }

    /// The header line matching [`TraceSummary`]'s `Display` row.
    pub fn header() -> &'static str {
        "Trace      Duration   Requests    Files  AvgSize    Popularity  Clients"
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>8} {:>10} {:>8} {:>8} {:>7} ({:>5.1}) {:>8}",
            self.name,
            self.duration.to_string(),
            self.total_requests,
            self.num_files,
            self.avg_file_size.to_string(),
            self.max_popularity,
            self.avg_popularity,
            self.num_clients,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecord;
    use wcc_types::{ServerId, SimTime, Url};

    fn mini_trace() -> Trace {
        let server = ServerId::new(0);
        let mk = |at, client, doc| TraceRecord {
            at: SimTime::from_secs(at),
            client: ClientId::from_raw(client),
            url: Url::new(server, doc),
        };
        Trace {
            name: "MINI".into(),
            server,
            duration: SimDuration::from_hours(1),
            doc_sizes: vec![
                ByteSize::from_kib(10),
                ByteSize::from_kib(20),
                ByteSize::from_kib(99), // never requested
            ],
            records: vec![
                mk(1, 1, 0),
                mk(2, 2, 0),
                mk(3, 1, 0), // repeat view: popularity counts distinct clients
                mk(4, 1, 1),
            ],
        }
    }

    #[test]
    fn summary_counts_distinct_clients_per_doc() {
        let s = TraceSummary::of(&mini_trace());
        assert_eq!(s.total_requests, 4);
        assert_eq!(s.num_files, 2, "unrequested files excluded");
        assert_eq!(s.max_popularity, 2);
        assert!((s.avg_popularity - 1.5).abs() < 1e-12);
        assert_eq!(s.num_clients, 2);
        assert_eq!(s.avg_file_size, ByteSize::from_kib(15));
    }

    #[test]
    fn empty_trace_summary() {
        let t = Trace {
            name: "EMPTY".into(),
            server: ServerId::new(0),
            duration: SimDuration::from_hours(1),
            doc_sizes: vec![],
            records: vec![],
        };
        let s = TraceSummary::of(&t);
        assert_eq!(s.total_requests, 0);
        assert_eq!(s.num_files, 0);
        assert_eq!(s.max_popularity, 0);
        assert_eq!(s.avg_popularity, 0.0);
        assert_eq!(s.avg_file_size, ByteSize::ZERO);
    }

    #[test]
    fn display_is_one_line() {
        let s = TraceSummary::of(&mini_trace());
        let line = s.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("MINI"));
        assert!(!TraceSummary::header().is_empty());
    }
}
