//! End-to-end tests of the real-TCP prototype over loopback.

#![allow(
    clippy::disallowed_methods,
    reason = "tests wait on real sockets in wall time"
)]

use std::time::Duration;
use wcc_core::{AdaptiveTtlConfig, ProtocolConfig, ProtocolKind};
use wcc_net::{check_in, FetchKind, NetOrigin, NetProxy, OriginConfig};
use wcc_types::{ByteSize, ClientId, ServerId, SimDuration, SimTime, Url};

fn start(kind: ProtocolKind) -> (NetOrigin, NetProxy, ProtocolConfig) {
    start_with(ProtocolConfig::new(kind))
}

fn start_with(cfg: ProtocolConfig) -> (NetOrigin, NetProxy, ProtocolConfig) {
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 32],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .expect("origin spawn");
    let proxy =
        NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(64)).expect("proxy spawn");
    assert!(origin.wait_registered(1, Duration::from_secs(5)));
    (origin, proxy, cfg)
}

fn url(doc: u32) -> Url {
    Url::new(ServerId::new(0), doc)
}

fn client(raw: u32) -> ClientId {
    ClientId::from_raw(raw)
}

#[test]
fn invalidation_round_trip_over_tcp() {
    let (origin, proxy, _cfg) = start(ProtocolKind::Invalidation);
    let c = client(5);

    // Miss → transfer.
    let first = proxy.fetch(c, url(1), SimTime::from_secs(1)).unwrap();
    assert_eq!(first.kind, FetchKind::Fetched);
    assert!(!first.had_entry);

    // Hit → served from cache, no server contact.
    let second = proxy.fetch(c, url(1), SimTime::from_secs(2)).unwrap();
    assert_eq!(second.kind, FetchKind::CacheHit);

    // The document changes; write completes when the proxy acks.
    check_in(origin.addr(), url(1), SimTime::from_secs(10)).unwrap();
    // NOTIFY is fire-and-forget: wait for the server to process it first.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        origin.wait_writes_complete(Duration::from_secs(5)),
        "invalidation was not acknowledged in time"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while proxy.counters().invalidations_received == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(proxy.counters().invalidations_received, 1);

    // Strong consistency: the next fetch transfers the new version.
    let third = proxy.fetch(c, url(1), SimTime::from_secs(11)).unwrap();
    assert_eq!(third.kind, FetchKind::Fetched);
    assert_eq!(third.meta.last_modified(), SimTime::from_secs(10));

    let snap = origin.snapshot();
    assert_eq!(snap.replies_200, 2);
    assert_eq!(snap.invalidations, 1);
    assert_eq!(snap.acks, 1);
    assert!(snap.writes_complete);
}

/// §7 over TCP: the origin meters the requests it answers and the cache
/// hits the proxy reports — here on the ack of the invalidation that takes
/// the copy away — so `served + reported` is every request a browser made
/// (the conservation `tests/metering.rs` holds the simulator to).
#[test]
fn hit_reports_reach_the_origins_meter() {
    let (origin, proxy, _cfg) = start(ProtocolKind::Invalidation);
    let c = client(5);
    let (misses, hits) = (3u64, 4u64);
    for doc in 1..=misses as u32 {
        let out = proxy.fetch(c, url(doc), SimTime::from_secs(1)).unwrap();
        assert_eq!(out.kind, FetchKind::Fetched);
    }
    for i in 0..hits {
        let out = proxy.fetch(c, url(1), SimTime::from_secs(2 + i)).unwrap();
        assert_eq!(out.kind, FetchKind::CacheHit);
    }
    check_in(origin.addr(), url(1), SimTime::from_secs(10)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));

    let snap = origin.snapshot();
    assert_eq!((snap.metered_served, snap.metered_reported), (misses, hits));
    assert_eq!(
        snap.metered_served + snap.metered_reported,
        proxy.counters().requests
    );
    let metrics = origin.metrics_text();
    assert!(metrics.contains("wcc_metered_served_total{node=\"origin\"} 3"));
    assert!(metrics.contains("wcc_metered_reported_total{node=\"origin\"} 4"));
}

#[test]
fn polling_validates_every_hit() {
    let (origin, proxy, _cfg) = start(ProtocolKind::PollEveryTime);
    let c = client(9);
    proxy.fetch(c, url(2), SimTime::from_secs(1)).unwrap();
    for s in 2..6 {
        let out = proxy.fetch(c, url(2), SimTime::from_secs(s)).unwrap();
        assert_eq!(out.kind, FetchKind::Validated, "unchanged doc → 304");
        assert!(out.had_entry);
    }
    let snap = origin.snapshot();
    assert_eq!(snap.ims, 4);
    assert_eq!(snap.replies_304, 4);
    // Modify; polling sees the change on the very next fetch, with no
    // invalidation machinery at all.
    check_in(origin.addr(), url(2), SimTime::from_secs(50)).unwrap();
    // NOTIFY is fire-and-forget: wait for the server to process it.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while origin.snapshot().notifies == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = proxy.fetch(c, url(2), SimTime::from_secs(51)).unwrap();
    assert_eq!(out.kind, FetchKind::Fetched);
    assert_eq!(out.meta.last_modified(), SimTime::from_secs(50));
    assert_eq!(origin.snapshot().invalidations, 0);
}

#[test]
fn adaptive_ttl_serves_within_ttl_and_revalidates_after() {
    let (_origin, proxy, cfg) = start(ProtocolKind::AdaptiveTtl);
    let c = client(3);
    // Fetch at t = 100 000 s; age = 100 000 s → TTL = 10 000 s.
    let t0 = SimTime::from_secs(100_000);
    proxy.fetch(c, url(3), t0).unwrap();
    let within = proxy
        .fetch(c, url(3), t0 + SimDuration::from_secs(5_000))
        .unwrap();
    assert_eq!(within.kind, FetchKind::CacheHit);
    let after = proxy
        .fetch(c, url(3), t0 + SimDuration::from_secs(20_000))
        .unwrap();
    assert_eq!(after.kind, FetchKind::Validated, "expired TTL → IMS → 304");
    assert_eq!(cfg.adaptive_ttl.threshold, 0.1);
}

#[test]
fn two_tier_lease_tracks_only_repeat_readers() {
    let cfg = ProtocolConfig::new(ProtocolKind::TwoTierLease).with_lease(SimDuration::from_days(3));
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 8],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .unwrap();
    let proxy = NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(16)).unwrap();
    assert!(origin.wait_registered(1, Duration::from_secs(5)));

    let c = client(1);
    // First GET: zero lease → not tracked.
    proxy.fetch(c, url(0), SimTime::from_secs(1)).unwrap();
    assert_eq!(origin.snapshot().sitelist.total_entries, 0);
    // Second request must validate (zero lease) and earns the full lease.
    let second = proxy.fetch(c, url(0), SimTime::from_secs(2)).unwrap();
    assert_eq!(second.kind, FetchKind::Validated);
    assert_eq!(origin.snapshot().sitelist.total_entries, 1);
    // Third request: still under lease → pure cache hit.
    let third = proxy.fetch(c, url(0), SimTime::from_secs(3)).unwrap();
    assert_eq!(third.kind, FetchKind::CacheHit);
}

#[test]
fn invalidations_fan_out_across_partitions() {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(4); 4],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .unwrap();
    let p0 = NetProxy::spawn(origin.addr(), &cfg, 0, 2, ByteSize::from_mib(16)).unwrap();
    let p1 = NetProxy::spawn(origin.addr(), &cfg, 1, 2, ByteSize::from_mib(16)).unwrap();
    assert!(origin.wait_registered(2, Duration::from_secs(5)));

    // Client 4 → partition 0, client 5 → partition 1.
    p0.fetch(client(4), url(0), SimTime::from_secs(1)).unwrap();
    p1.fetch(client(5), url(0), SimTime::from_secs(1)).unwrap();

    check_in(origin.addr(), url(0), SimTime::from_secs(5)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while (origin.snapshot().notifies == 0
        || p0.counters().invalidations_received == 0
        || p1.counters().invalidations_received == 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
    assert_eq!(p0.counters().invalidations_received, 1);
    assert_eq!(p1.counters().invalidations_received, 1);
    assert_eq!(p0.cached_entries(), 0);
    assert_eq!(p1.cached_entries(), 0);
}

/// The first `HELLO` fixes how many partitions the origin routes over. A
/// connection that names another count is closed and changes nothing:
/// were it taken, every client would map to another partition, and a write
/// would miss the proxies that hold the copies.
#[test]
fn a_hello_with_another_partition_count_is_refused() {
    use std::io::{Read, Write};
    use wcc_proto::{encode, GetRequest, HttpMsg, RequestId};
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(4); 4],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .unwrap();
    let p0 = NetProxy::spawn(origin.addr(), &cfg, 0, 2, ByteSize::from_mib(16)).unwrap();
    let p1 = NetProxy::spawn(origin.addr(), &cfg, 1, 2, ByteSize::from_mib(16)).unwrap();
    assert!(origin.wait_registered(2, Duration::from_secs(5)));
    p0.fetch(client(4), url(0), SimTime::from_secs(1)).unwrap();
    p1.fetch(client(5), url(0), SimTime::from_secs(1)).unwrap();

    // A `GET` behind the `HELLO` on the same connection: answered only if
    // the `HELLO` was taken, so one read tells when the origin is done.
    let mut rogue = std::net::TcpStream::connect(origin.addr()).unwrap();
    let hello = HttpMsg::Hello {
        partition: 0,
        partitions: 3,
    };
    let get = HttpMsg::Get(GetRequest {
        req: RequestId::default(),
        url: url(1),
        client: client(9),
        ims: None,
        issued_at: SimTime::from_secs(2),
        cache_hits: 0,
    });
    rogue
        .write_all(&[encode(&hello), encode(&get)].concat())
        .unwrap();
    rogue
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let answered = matches!(rogue.read(&mut [0u8; 1]), Ok(n) if n > 0);

    check_in(origin.addr(), url(0), SimTime::from_secs(5)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while (p0.cached_entries(), p1.cached_entries()) != (0, 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!((p0.cached_entries(), p1.cached_entries()), (0, 0));
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
    assert!(!answered, "the connection was closed at its HELLO");
}

#[test]
fn batched_invalidations_coalesce_across_partitions() {
    use wcc_types::InvalBatchConfig;
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(4); 4],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: Some(InvalBatchConfig::with_max_entries(4)),
    })
    .unwrap();
    let p0 = NetProxy::spawn(origin.addr(), &cfg, 0, 2, ByteSize::from_mib(16)).unwrap();
    let p1 = NetProxy::spawn(origin.addr(), &cfg, 1, 2, ByteSize::from_mib(16)).unwrap();
    assert!(origin.wait_registered(2, Duration::from_secs(5)));

    // Client 4 → partition 0, client 5 → partition 1; both cache two docs.
    for doc in 0..2 {
        p0.fetch(client(4), url(doc), SimTime::from_secs(1))
            .unwrap();
        p1.fetch(client(5), url(doc), SimTime::from_secs(1))
            .unwrap();
    }
    // Two writes enqueue four stale copies — exactly the count threshold —
    // so each partition gets ONE InvalidateBatch round of two entries
    // instead of two per-write INVALIDATEs.
    check_in(origin.addr(), url(0), SimTime::from_secs(5)).unwrap();
    check_in(origin.addr(), url(1), SimTime::from_secs(6)).unwrap();
    // NOTIFY is fire-and-forget: writes_complete is vacuously true until
    // the server has actually processed both check-ins.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        origin.wait_writes_complete(Duration::from_secs(5)),
        "batched rounds were not acknowledged in time"
    );
    for p in [&p0, &p1] {
        let c = p.counters();
        assert_eq!(c.inval_batches_received, 1);
        assert_eq!(c.invalidations_received, 2);
        assert_eq!(p.cached_entries(), 0);
    }
    let snap = origin.snapshot();
    assert_eq!(snap.invalidations, 4);
    assert_eq!(snap.inval_batches, 2);
    assert_eq!(snap.batched_entries, 4);
    assert_eq!(snap.acks, 4);
    let metrics = origin.metrics_text();
    assert!(metrics.contains("wcc_inval_batch_size"), "{metrics}");
    assert!(metrics.contains("wcc_inval_pending_queue"), "{metrics}");
}

#[test]
fn batch_age_threshold_flushes_small_rounds() {
    use wcc_types::InvalBatchConfig;
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    // Count threshold far above what the test enqueues: only the 50 ms
    // age bound can get this round onto the wire.
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(4); 4],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: Some(InvalBatchConfig::with_max_entries(1000)),
    })
    .unwrap();
    let proxy = NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(16)).unwrap();
    assert!(origin.wait_registered(1, Duration::from_secs(5)));

    proxy
        .fetch(client(7), url(0), SimTime::from_secs(1))
        .unwrap();
    check_in(origin.addr(), url(0), SimTime::from_secs(5)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        origin.wait_writes_complete(Duration::from_secs(5)),
        "age-threshold flush did not happen"
    );
    let c = proxy.counters();
    assert_eq!(c.inval_batches_received, 1);
    assert_eq!(c.invalidations_received, 1);
    // Strong consistency: the next fetch transfers the new version.
    let fresh = proxy
        .fetch(client(7), url(0), SimTime::from_secs(10))
        .unwrap();
    assert_eq!(fresh.kind, FetchKind::Fetched);
    assert_eq!(fresh.meta.last_modified(), SimTime::from_secs(5));
}

#[test]
fn concurrent_browsers_share_one_proxy() {
    let (origin, proxy, _cfg) = start(ProtocolKind::Invalidation);
    let proxy = std::sync::Arc::new(proxy);
    let mut handles = Vec::new();
    for t in 0..8u32 {
        let proxy = std::sync::Arc::clone(&proxy);
        handles.push(std::thread::spawn(move || {
            for i in 0..20u32 {
                let c = client(t);
                let doc = url(i % 8);
                proxy
                    .fetch(c, doc, SimTime::from_secs((t * 100 + i) as u64 + 1))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let counters = proxy.counters();
    assert_eq!(counters.requests, 160);
    // 8 clients × 8 docs: exactly 64 compulsory misses, the rest hits.
    assert_eq!(counters.gets_sent, 64);
    assert_eq!(counters.hits, 96);
    assert_eq!(origin.snapshot().replies_200, 64);
}

#[test]
fn volume_lease_expiry_forces_renewal_over_tcp() {
    use wcc_types::SimDuration;
    let cfg = ProtocolConfig::new(ProtocolKind::VolumeLease)
        .with_volume_lease(SimDuration::from_secs(60));
    let origin = NetOrigin::spawn(wcc_net::OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 8],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .unwrap();
    let proxy = NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(16)).unwrap();
    assert!(origin.wait_registered(1, Duration::from_secs(5)));

    let c = client(2);
    // Fetch at t=10: object lease ∞, volume lease until t=70.
    proxy.fetch(c, url(0), SimTime::from_secs(10)).unwrap();
    // Within the volume: pure cache hit.
    let hit = proxy.fetch(c, url(0), SimTime::from_secs(30)).unwrap();
    assert_eq!(hit.kind, FetchKind::CacheHit);
    // After the volume expires: the proxy honours its promise and
    // revalidates; the 304 renews the volume.
    let renewed = proxy.fetch(c, url(0), SimTime::from_secs(100)).unwrap();
    assert_eq!(renewed.kind, FetchKind::Validated);
    // Volume fresh again → cache hit.
    let hit = proxy.fetch(c, url(0), SimTime::from_secs(120)).unwrap();
    assert_eq!(hit.kind, FetchKind::CacheHit);
}

#[test]
fn volume_lease_renewal_piggybacks_missed_invalidations_over_tcp() {
    use wcc_types::SimDuration;
    let cfg = ProtocolConfig::new(ProtocolKind::VolumeLease)
        .with_volume_lease(SimDuration::from_millis(300));
    let origin = NetOrigin::spawn(wcc_net::OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 8],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .unwrap();
    let proxy = NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(16)).unwrap();
    assert!(origin.wait_registered(1, Duration::from_secs(5)));

    let c = client(3);
    // Cache docs 0 and 1 at t=10.
    proxy.fetch(c, url(0), SimTime::from_secs(10)).unwrap();
    proxy.fetch(c, url(1), SimTime::from_secs(10)).unwrap();
    // Doc 1 modified after the volume expired on the origin's clock, which
    // is the one it judges at, so the server queues a piggyback instead of
    // pushing.
    std::thread::sleep(Duration::from_millis(400));
    check_in(origin.addr(), url(1), SimTime::from_secs(200)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while origin.snapshot().notifies == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        origin.snapshot().invalidations,
        0,
        "no push to an expired volume"
    );
    // Renewing via doc 0 delivers the piggyback, killing the doc-1 copy.
    let out = proxy.fetch(c, url(0), SimTime::from_secs(300)).unwrap();
    assert_eq!(out.kind, FetchKind::Validated);
    assert_eq!(proxy.counters().piggybacked_received, 1);
    // The next doc-1 fetch transfers the new version.
    let fresh = proxy.fetch(c, url(1), SimTime::from_secs(301)).unwrap();
    assert_eq!(fresh.kind, FetchKind::Fetched);
    assert_eq!(fresh.meta.last_modified(), SimTime::from_secs(200));
}

/// Waits until the origin has processed `n` check-ins: `NOTIFY` is
/// fire-and-forget.
fn wait_notifies(origin: &NetOrigin, n: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies < n && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(origin.snapshot().notifies, n);
}

/// Every node judges a lease on its own clock, never on a time a peer
/// wrote. The caller stamps each fetch `1 s` and the writer its write
/// `60 s`, far past a 10 s lease (and volume) counted from either stamp;
/// the origin tracks the copy on its clock, on which the lease is live,
/// so the write reaches the copy, and once it completed the next fetch
/// brings the new version. `ims`: the copy's lease is earned by an IMS
/// (two-tier leases track no first `GET`).
fn a_write_stamped_past_the_lease_reaches_the_copy(kind: ProtocolKind, ims: bool) {
    let ten = SimDuration::from_secs(10);
    let cfg = ProtocolConfig::new(kind)
        .with_lease(ten)
        .with_volume_lease(ten);
    let (origin, proxy, _cfg) = start_with(cfg);
    let (c, at) = (client(5), SimTime::from_secs(1));
    assert_eq!(proxy.fetch(c, url(1), at).unwrap().kind, FetchKind::Fetched);
    if ims {
        let validated = proxy.fetch(c, url(1), at).unwrap();
        assert_eq!(validated.kind, FetchKind::Validated, "{kind}");
    }
    check_in(origin.addr(), url(1), SimTime::from_secs(60)).unwrap();
    wait_notifies(&origin, 1);
    assert!(
        origin.wait_writes_complete(Duration::from_secs(5)),
        "{kind}"
    );
    let after = proxy.fetch(c, url(1), at).unwrap();
    let received = proxy.counters().invalidations_received;
    assert_eq!(
        (after.kind, after.meta.last_modified(), received),
        (FetchKind::Fetched, SimTime::from_secs(60), 1),
        "{kind}"
    );
}

#[test]
fn a_write_stamped_past_the_lease_reaches_an_invalidation_copy() {
    a_write_stamped_past_the_lease_reaches_the_copy(ProtocolKind::Invalidation, false);
}

#[test]
fn a_write_stamped_past_the_lease_reaches_a_leased_copy() {
    a_write_stamped_past_the_lease_reaches_the_copy(ProtocolKind::LeaseInvalidation, false);
}

#[test]
fn a_write_stamped_past_the_lease_reaches_a_two_tier_copy_after_an_ims() {
    a_write_stamped_past_the_lease_reaches_the_copy(ProtocolKind::TwoTierLease, true);
}

#[test]
fn a_write_stamped_past_the_lease_reaches_a_volume_leased_copy() {
    a_write_stamped_past_the_lease_reaches_the_copy(ProtocolKind::VolumeLease, false);
}

/// E4's bound on write completion, over TCP: a write to a copy whose
/// holder has gone completes once the holder's volume lease has lapsed
/// on the origin's clock, not when the retry budget runs out (20 × 250 ms).
#[test]
fn a_volume_lease_bounds_write_completion_over_tcp() {
    let cfg =
        ProtocolConfig::new(ProtocolKind::VolumeLease).with_volume_lease(SimDuration::from_secs(1));
    let (origin, proxy, _cfg) = start_with(cfg);
    proxy
        .fetch(client(5), url(1), SimTime::from_secs(1))
        .unwrap();
    drop(proxy);
    check_in(origin.addr(), url(1), SimTime::from_secs(60)).unwrap();
    wait_notifies(&origin, 1);
    assert!(
        origin.snapshot().invalidations >= 1,
        "the volume was live: the write is pushed"
    );
    assert!(
        origin.wait_writes_complete(Duration::from_secs(3)),
        "the write outlived the volume lease: {:?}",
        origin.snapshot()
    );
}

/// A browser on the proxy's client listener: one keep-alive connection,
/// raw frames out, decoded replies back.
struct Browser {
    w: std::net::TcpStream,
    r: wcc_proto::FrameReader<std::net::TcpStream>,
    client: ClientId,
    next_req: u64,
}

impl Browser {
    fn connect(proxy: &NetProxy, client: ClientId) -> Browser {
        let w = std::net::TcpStream::connect(proxy.client_addr()).expect("connect");
        w.set_nodelay(true).unwrap();
        w.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let r = wcc_proto::FrameReader::new(w.try_clone().unwrap());
        Browser {
            w,
            r,
            client,
            next_req: 0,
        }
    }

    /// One `GET` round trip; the `Last-Modified` of the `200` that answers it.
    fn get(&mut self, url: Url, now: SimTime) -> SimTime {
        use std::io::Write;
        use wcc_proto::{encode, GetRequest, HttpMsg, HttpMsgRef, ReplyStatusRef, RequestId};
        self.next_req += 1;
        let req = RequestId::new(self.next_req);
        let get = HttpMsg::Get(GetRequest {
            req,
            url,
            client: self.client,
            ims: None,
            issued_at: now,
            cache_hits: 0,
        });
        self.w.write_all(&encode(&get)).unwrap();
        match self.r.next_msg().expect("reply frame") {
            HttpMsgRef::Reply(reply) => {
                assert_eq!((reply.req, reply.url), (req, url));
                match reply.status {
                    ReplyStatusRef::Ok { meta, .. } => meta.last_modified(),
                    ReplyStatusRef::NotModified => panic!("clients are answered with 200s"),
                }
            }
            other => panic!("expected a reply, got {other:?}"),
        }
    }
}

/// The hit path keeps the guarantee: served without upstream contact
/// while the copy is valid, upstream again — same keep-alive connection —
/// the moment the write's invalidation was acknowledged.
#[test]
fn reactor_hit_then_acked_write_goes_upstream_over_the_client_listener() {
    let (origin, proxy, _cfg) = start(ProtocolKind::Invalidation);
    let mut browser = Browser::connect(&proxy, client(5));

    let v0 = browser.get(url(1), SimTime::from_secs(1));
    let c = proxy.counters();
    assert_eq!((c.requests, c.gets_sent, c.reactor_hits), (1, 1, 0));

    // The copy was cached before the miss's reply shipped: no server
    // contact.
    assert_eq!(browser.get(url(1), SimTime::from_secs(2)), v0);
    let c = proxy.counters();
    assert_eq!((c.requests, c.hits, c.gets_sent), (2, 1, 1));
    assert_eq!(c.reactor_hits, 1);
    assert!(proxy
        .metrics_text()
        .contains("wcc_reactor_hits_total{node=\"proxy\"} 1"));

    check_in(origin.addr(), url(1), SimTime::from_secs(10)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        origin.wait_writes_complete(Duration::from_secs(5)),
        "invalidation was not acknowledged in time"
    );

    // The write is complete: the very next read must see it.
    assert_eq!(
        browser.get(url(1), SimTime::from_secs(11)),
        SimTime::from_secs(10)
    );
    let c = proxy.counters();
    assert_eq!((c.requests, c.gets_sent, c.reactor_hits), (3, 2, 1));
    assert_eq!(origin.snapshot().replies_200, 2);
}

#[test]
fn adaptive_ttl_hit_is_on_the_reactor_until_the_ttl_expires() {
    // The proxy judges the listener's `GET`s at its own clock, whatever
    // `Date:` they carry: the TTL is pinned to 500 ms of it.
    let ttl = SimDuration::from_millis(500);
    let mut cfg = ProtocolConfig::new(ProtocolKind::AdaptiveTtl);
    cfg.adaptive_ttl = AdaptiveTtlConfig {
        floor: ttl,
        cap: ttl,
        ..cfg.adaptive_ttl
    };
    let (origin, proxy, _cfg) = start_with(cfg);
    let mut browser = Browser::connect(&proxy, client(3));
    let t0 = SimTime::from_secs(100_000);
    let v0 = browser.get(url(3), t0);
    assert_eq!(browser.get(url(3), t0 + SimDuration::from_secs(5_000)), v0);
    let c = proxy.counters();
    assert_eq!((c.reactor_hits, c.ims_sent), (1, 0));
    // Expired: the proxy revalidates upstream.
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(browser.get(url(3), t0 + SimDuration::from_secs(20_000)), v0);
    let c = proxy.counters();
    assert_eq!((c.requests, c.hits, c.reactor_hits), (3, 2, 1));
    assert_eq!((c.ims_sent, c.replies_304), (1, 1));
    assert_eq!(origin.snapshot().ims, 1);
}

/// Sends one frame on a fresh connection and reads until the origin closes
/// it, returning whatever came back first.
fn send_and_drain(origin: &NetOrigin, frame: &[u8]) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(origin.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(frame).unwrap();
    let mut back = Vec::new();
    stream
        .read_to_end(&mut back)
        .expect("origin closes the connection");
    back
}

#[test]
fn hostile_document_ids_close_the_connection_not_the_origin() {
    use wcc_proto::{encode, GetRequest, HttpMsg, RequestId};
    let (origin, proxy, _cfg) = start(ProtocolKind::Invalidation);
    let c = client(1);
    let beyond = url(9999); // the origin has 32 documents

    // A check-in for a document the origin does not have is a protocol
    // violation: that connection closes, nothing is counted ...
    let notify = encode(&HttpMsg::Notify {
        url: beyond,
        at: SimTime::from_secs(5),
    });
    assert!(send_and_drain(&origin, &notify).is_empty());
    assert_eq!(origin.snapshot().notifies, 0);
    // ... and the origin keeps serving.
    let first = proxy.fetch(c, url(1), SimTime::from_secs(6)).unwrap();
    assert_eq!(first.kind, FetchKind::Fetched);

    // Same for a GET.
    let get = encode(&HttpMsg::Get(GetRequest {
        req: RequestId::default().next(),
        url: beyond,
        client: c,
        ims: None,
        issued_at: SimTime::from_secs(7),
        cache_hits: 0,
    }));
    assert!(send_and_drain(&origin, &get).is_empty());
    let second = proxy.fetch(c, url(2), SimTime::from_secs(8)).unwrap();
    assert_eq!(second.kind, FetchKind::Fetched);
    assert_eq!(origin.snapshot().replies_200, 2);
}
