//! A multi-server federation: one proxy fleet caching for three origins,
//! each with its own trace and churn, under the invalidation protocol.
//!
//! ```sh
//! cargo run --release --example federation
//! ```

use webcache::core::{ProtocolConfig, ProtocolKind};
use webcache::httpsim::{Deployment, DeploymentOptions};
use webcache::traces::{synthetic, ModSchedule, TraceSpec};
use webcache::types::{ServerId, SimDuration};

fn main() {
    // Three origins with different characters: big-file NASA, busy
    // ClarkNet, slow-churn EPA.
    let specs = [
        (TraceSpec::nasa().scaled_down(40), SimDuration::from_days(2)),
        (
            TraceSpec::clarknet().scaled_down(40),
            SimDuration::from_hours(8),
        ),
        (TraceSpec::epa().scaled_down(40), SimDuration::from_days(10)),
    ];
    let workloads: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, (spec, lifetime))| {
            let trace =
                synthetic::generate(spec, 40 + i as u64).reassign_server(ServerId::new(i as u32));
            let mods =
                ModSchedule::generate(spec.num_docs, *lifetime, spec.duration, 40 + i as u64);
            (trace, mods)
        })
        .collect();

    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let mut deployment = Deployment::build_multi(&workloads, &cfg, DeploymentOptions::default());
    deployment.run();
    let r = deployment.collect();

    println!(
        "federated replay: {} requests across 3 origins\n",
        r.requests
    );
    println!(
        "{:<10}{:>10}{:>8}{:>14}{:>14}",
        "origin", "requests", "mods", "invalidations", "site storage"
    );
    for (i, (trace, mods)) in workloads.iter().enumerate() {
        let origin = deployment.origin_at(i);
        let c = origin.core().snapshot();
        println!(
            "{:<10}{:>10}{:>8}{:>14}{:>14}",
            trace.name,
            trace.records.len(),
            mods.modifications().len(),
            c.invalidations,
            origin
                .core()
                .consistency()
                .table()
                .stats()
                .storage
                .to_string(),
        );
    }
    println!(
        "\ntotals: {} messages · {} · strong consistency: {} violations, \
         writes complete = {}",
        r.total_messages, r.total_bytes, r.final_violations, r.writes_complete
    );
    assert_eq!(r.final_violations, 0);
}
