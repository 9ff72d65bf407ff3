//! Formatting that mirrors the paper's tables.

use crate::experiment::ReplayReport;
use std::fmt::Write as _;
use wcc_simnet::Summary;
use wcc_types::SimDuration;

fn fmt_quantile(s: &Summary, q: f64) -> String {
    s.quantile(q)
        .map(|d| format!("{:.1} ms", d.as_secs_f64() * 1e3))
        .unwrap_or_else(|| "-".to_string())
}

fn fmt_latency(s: &Summary) -> (String, String, String) {
    let f = |d: Option<SimDuration>| match d {
        Some(d) => format!("{:.1} ms", d.as_secs_f64() * 1e3),
        None => "-".to_string(),
    };
    (f(s.mean()), f(s.min()), f(s.max()))
}

/// Renders one block of Tables 3/4: the three protocols side by side for
/// one trace replay.
///
/// Row names follow the paper exactly, with two additional audit rows
/// (stale hits measured exactly rather than estimated, and the hit ratio).
///
/// # Panics
///
/// Panics if `trio` is empty.
pub fn format_trio_block(trio: &[ReplayReport]) -> String {
    assert!(!trio.is_empty(), "need at least one report");
    let head = &trio[0];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Trace {}, {} requests, {} files modified (mean lifetime {})",
        head.trace, head.raw.requests, head.files_modified, head.mean_lifetime
    );
    let _ = write!(out, "{:<22}", "");
    for r in trio {
        let _ = write!(out, "{:>18}", r.protocol.name());
    }
    let _ = writeln!(out);

    let mut row = |name: &str, f: &dyn Fn(&ReplayReport) -> String| {
        let _ = write!(out, "{name:<22}");
        for r in trio {
            let _ = write!(out, "{:>18}", f(r));
        }
        let _ = writeln!(out);
    };

    row("Hits", &|r| r.raw.hits.to_string());
    row("GET Requests", &|r| r.raw.gets.to_string());
    row("If-Modified-Since", &|r| r.raw.ims.to_string());
    row("Reply 200", &|r| r.raw.replies_200.to_string());
    row("Reply 304", &|r| r.raw.replies_304.to_string());
    row("Invalidations", &|r| r.raw.invalidations.to_string());
    row("Total Messages", &|r| r.raw.total_messages.to_string());
    row("Messages Bytes", &|r| r.raw.total_bytes.to_string());
    row("Avg. Latency", &|r| fmt_latency(&r.raw.latency).0);
    row("Min Latency", &|r| fmt_latency(&r.raw.latency).1);
    row("Max Latency", &|r| fmt_latency(&r.raw.latency).2);
    row("p50 Latency", &|r| fmt_quantile(&r.raw.latency, 0.5));
    row("p90 Latency", &|r| fmt_quantile(&r.raw.latency, 0.9));
    row("p99 Latency", &|r| fmt_quantile(&r.raw.latency, 0.99));
    row("p99.9 Latency", &|r| fmt_quantile(&r.raw.latency, 0.999));
    row("Server CPU", &|r| {
        format!("{:.1}%", r.raw.server_cpu * 100.0)
    });
    row("Disk RW/s", &|r| {
        format!(
            "{:.2};{:.2}",
            r.raw.disk_reads_per_sec, r.raw.disk_writes_per_sec
        )
    });
    row("Stale hits (exact)", &|r| r.raw.stale_hits.to_string());
    row("Hit ratio", &|r| {
        format!("{:.1}%", r.raw.hit_ratio() * 100.0)
    });
    out
}

/// Renders a replay's measurements as a Prometheus text exposition — the
/// same registry format the TCP prototype serves on `GET /metrics`, so sim
/// results and prototype scrapes can be diffed or ingested by one pipeline.
pub fn prometheus_snapshot(report: &ReplayReport) -> String {
    let r = &report.raw;
    let protocol = report.protocol.name();
    let labels = [("protocol", protocol), ("trace", report.trace.as_str())];
    let mut reg = wcc_obs::Registry::default();
    reg.set_counter(
        "wcc_requests_total",
        "Client requests replayed.",
        &labels,
        r.requests,
    );
    reg.set_counter(
        "wcc_hits_total",
        "Requests served from a proxy cache.",
        &labels,
        r.hits,
    );
    reg.set_counter(
        "wcc_gets_total",
        "Plain GETs sent to origins.",
        &labels,
        r.gets,
    );
    reg.set_counter(
        "wcc_ims_total",
        "If-Modified-Since requests sent to origins.",
        &labels,
        r.ims,
    );
    reg.set_counter(
        "wcc_replies_200_total",
        "200 replies.",
        &labels,
        r.replies_200,
    );
    reg.set_counter(
        "wcc_replies_304_total",
        "304 replies.",
        &labels,
        r.replies_304,
    );
    reg.set_counter(
        "wcc_invalidations_total",
        "INVALIDATE messages sent.",
        &labels,
        r.invalidations,
    );
    reg.set_counter(
        "wcc_messages_total",
        "All protocol messages.",
        &labels,
        r.total_messages,
    );
    reg.set_counter(
        "wcc_message_bytes_total",
        "Accounted bytes of all protocol messages.",
        &labels,
        r.total_bytes.as_u64(),
    );
    reg.set_counter(
        "wcc_stale_hits_total",
        "Cache hits that served a stale version (exact audit count).",
        &labels,
        r.stale_hits,
    );
    reg.set_gauge(
        "wcc_sitelist_entries",
        "Site-list entries at end of replay.",
        &labels,
        r.sitelist.total_entries,
    );
    reg.set_gauge(
        "wcc_sitelist_storage_bytes",
        "Estimated site-list memory at end of replay.",
        &labels,
        r.sitelist.storage.as_u64(),
    );
    reg.set_histogram(
        "wcc_request_latency_seconds",
        "Client-observed request latency (simulated time).",
        &labels,
        r.latency.histogram(),
    );
    reg.set_histogram(
        "wcc_invalidation_time_seconds",
        "Write-to-completion invalidation time (simulated time).",
        &labels,
        r.inval_time.histogram(),
    );
    reg.render()
}

/// Renders one column of Table 5 (invalidation costs) from an invalidation
/// replay.
pub fn format_table5_column(report: &ReplayReport) -> String {
    let (avg_list, max_list) = report.raw.modified_list_stats();
    let inval = &report.raw.inval_time;
    let fmt_ms = |d: Option<SimDuration>| match d {
        Some(d) => format!("{:.1} ms", d.as_secs_f64() * 1e3),
        None => "-".to_string(),
    };
    format!(
        "{name} ({mods} files modified)\n\
         Storage              {storage}\n\
         Avg. SiteList        {avg_list:.1}\n\
         Max. SiteList        {max_list}\n\
         Avg. Invalidation Time {avg_t}\n\
         p99 Invalidation Time {p99_t}\n\
         Max. Invalidation Time {max_t}\n\
         Site-list entries (end) {entries}\n",
        name = report.trace,
        mods = report.files_modified,
        storage = report.raw.sitelist.storage,
        avg_list = avg_list,
        max_list = max_list,
        avg_t = fmt_ms(inval.mean()),
        p99_t = fmt_ms(inval.p99()),
        max_t = fmt_ms(inval.max()),
        entries = report.raw.sitelist.total_entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::run_trio;
    use wcc_traces::TraceSpec;

    #[test]
    fn trio_block_contains_all_rows_and_columns() {
        let trio = run_trio(
            &ExperimentConfig::builder(TraceSpec::epa().scaled_down(400))
                .seed(2)
                .build(),
            None,
        );
        let block = format_trio_block(&trio);
        for needle in [
            "Hits",
            "GET Requests",
            "If-Modified-Since",
            "Reply 200",
            "Reply 304",
            "Invalidations",
            "Total Messages",
            "Messages Bytes",
            "Avg. Latency",
            "p50 Latency",
            "p90 Latency",
            "p99 Latency",
            "p99.9 Latency",
            "Server CPU",
            "Disk RW/s",
            "adaptive-ttl",
            "poll-every-time",
            "invalidation",
        ] {
            assert!(block.contains(needle), "missing row {needle}:\n{block}");
        }
    }

    #[test]
    fn table5_column_mentions_storage_and_times() {
        let trio = run_trio(
            &ExperimentConfig::builder(TraceSpec::sdsc().scaled_down(400))
                .seed(2)
                .build(),
            None,
        );
        let inval = &trio[2];
        let col = format_table5_column(inval);
        assert!(col.contains("Storage"));
        assert!(col.contains("Invalidation Time"));
        assert!(col.contains("SDSC"));
    }

    #[test]
    #[should_panic(expected = "at least one report")]
    fn empty_trio_panics() {
        format_trio_block(&[]);
    }

    #[test]
    fn prometheus_snapshot_is_valid_exposition() {
        let trio = run_trio(
            &ExperimentConfig::builder(TraceSpec::epa().scaled_down(400))
                .seed(2)
                .build(),
            None,
        );
        for report in &trio {
            let text = prometheus_snapshot(report);
            wcc_obs::validate_exposition(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", report.protocol));
            assert!(text.contains("wcc_request_latency_seconds_bucket"));
            assert!(text.contains(&format!("protocol=\"{}\"", report.protocol.name())));
        }
    }
}
