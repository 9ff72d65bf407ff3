//! The real-TCP prototype on loopback: an origin + accelerator, two proxy
//! caches, browsers fetching through them, and the modifier's check-in
//! utility driving invalidations — the paper's Harvest deployment in
//! miniature.
//!
//! ```sh
//! cargo run --release --example tcp_prototype
//! ```

use std::time::Duration;
use webcache::core::{ProtocolConfig, ProtocolKind};
use webcache::net::{check_in, FetchKind, NetOrigin, NetProxy, OriginConfig};
use webcache::types::{ByteSize, ClientId, ServerId, SimTime, Url};

fn main() -> std::io::Result<()> {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(21); 64],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })?;
    println!("origin + accelerator listening on {}", origin.addr());

    // Two proxy sites, each registering an invalidation push channel.
    let proxy_a = NetProxy::spawn(origin.addr(), &cfg, 0, 2, ByteSize::from_mib(64))?;
    let proxy_b = NetProxy::spawn(origin.addr(), &cfg, 1, 2, ByteSize::from_mib(64))?;
    if !origin.wait_registered(2, Duration::from_secs(5)) {
        return Err(std::io::Error::other(
            "the proxies' push channels did not register",
        ));
    }

    let alice = ClientId::from_ip([10, 0, 0, 2]); // partition 0
    let bob = ClientId::from_ip([10, 0, 0, 3]); // partition 1
    let page = Url::new(ServerId::new(0), 7);

    let f = proxy_a.fetch(alice, page, SimTime::from_secs(1))?;
    println!(
        "alice GET {page}: {:?} (version {})",
        f.kind,
        f.meta.last_modified()
    );
    let f = proxy_b.fetch(bob, page, SimTime::from_secs(2))?;
    println!("bob   GET {page}: {:?}", f.kind);

    let f = proxy_a.fetch(alice, page, SimTime::from_secs(3))?;
    assert_eq!(f.kind, FetchKind::CacheHit);
    println!(
        "alice GET {page}: {:?} — no server contact under invalidation",
        f.kind
    );

    println!("\n…the author edits the page and checks it in…\n");
    check_in(origin.addr(), page, SimTime::from_secs(60))?;
    let complete = origin.wait_writes_complete(Duration::from_secs(5));
    println!(
        "write completed (all INVALIDATEs acknowledged): {complete}; \
         alice's proxy got {} invalidation(s), bob's got {}",
        proxy_a.counters().invalidations_received,
        proxy_b.counters().invalidations_received,
    );

    let f = proxy_a.fetch(alice, page, SimTime::from_secs(61))?;
    println!(
        "alice GET {page}: {:?} (version {}) — fresh copy, strong consistency",
        f.kind,
        f.meta.last_modified()
    );
    assert_eq!(f.kind, FetchKind::Fetched);
    assert_eq!(f.meta.last_modified(), SimTime::from_secs(60));

    let snap = origin.snapshot();
    println!(
        "\nserver counters: {} GETs, {} IMS, {} × 200, {} × 304, {} INVALIDATEs, {} acks",
        snap.gets, snap.ims, snap.replies_200, snap.replies_304, snap.invalidations, snap.acks
    );
    println!("site lists: {}", snap.sitelist.storage);
    Ok(())
}
