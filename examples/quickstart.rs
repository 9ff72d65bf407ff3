//! Quickstart: compare the three consistency protocols on a scaled-down
//! EPA workload and print a paper-style table.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use webcache::core::ProtocolKind;
use webcache::replay::tables::format_trio_block;
use webcache::replay::{run_trio, ExperimentConfig};
use webcache::traces::TraceSpec;

fn main() {
    // 1/20 of the real EPA trace: ~2k requests, 180 documents, 50-day mean
    // file lifetime (the paper's headline setting for this trace).
    let spec = TraceSpec::epa().scaled_down(20);
    let cfg = ExperimentConfig::builder(spec).seed(7).build();

    println!("Replaying {} under all three protocols…\n", cfg.spec.name);
    let trio = run_trio(&cfg, None);
    println!("{}", format_trio_block(&trio));

    let (ttl, poll, inval) = (&trio[0].raw, &trio[1].raw, &trio[2].raw);
    println!("Headline result, reproduced:");
    println!(
        "  polling-every-time sends {:+.1}% more messages than invalidation;",
        100.0 * (poll.total_messages as f64 / inval.total_messages as f64 - 1.0)
    );
    println!(
        "  adaptive TTL sends {:+.1}% more and returned {} stale document(s);",
        100.0 * (ttl.total_messages as f64 / inval.total_messages as f64 - 1.0),
        ttl.stale_hits
    );
    println!(
        "  invalidation is strongly consistent: {} violations, writes complete = {}.",
        inval.final_violations, inval.writes_complete
    );
    assert_eq!(inval.protocol, ProtocolKind::Invalidation);
}
