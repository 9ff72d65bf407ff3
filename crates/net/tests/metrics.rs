//! `GET /metrics` on the TCP prototype: every tier answers with valid
//! Prometheus text exposition reflecting its live counters.

use std::time::Duration;
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{check_in, scrape, FetchKind, NetOrigin, NetParent, NetProxy, OriginConfig};
use wcc_obs::validate_exposition;
use wcc_types::{ByteSize, ClientId, ServerId, SimTime, Url};

fn spawn_origin(cfg: &ProtocolConfig) -> NetOrigin {
    NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 32],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .expect("origin spawn")
}

fn url(doc: u32) -> Url {
    Url::new(ServerId::new(0), doc)
}

/// Extracts the numeric value of the exactly-matching sample line.
fn sample(text: &str, name_and_labels: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(name_and_labels) && l[name_and_labels.len()..].starts_with(' '))
        .and_then(|l| l[name_and_labels.len()..].trim().parse().ok())
}

/// The flight table's families are exposed, and read "nothing in flight,
/// nothing went wrong" once the fetches above returned. (Non-zero values
/// are driven by `scripted_upstream.rs`.)
fn assert_upstream_families_idle(text: &str, node: &str) {
    for family in [
        "wcc_upstream_in_flight",
        "wcc_inval_races_total",
        "wcc_upstream_timeouts_total",
        "wcc_upstream_redials_total",
    ] {
        let line = format!(r#"{family}{{node="{node}"}}"#);
        assert_eq!(sample(text, &line), Some(0.0), "{line}");
    }
}

/// The reactor's counters are exposed, and have counted the traffic.
fn assert_reactor_families_counted(text: &str, node: &str) {
    for family in [
        "wcc_reactor_wakes_total",
        "wcc_reactor_events_total",
        "wcc_reactor_send_calls_total",
        "wcc_reactor_send_bytes_total",
    ] {
        let line = format!(r#"{family}{{node="{node}"}}"#);
        assert!(sample(text, &line).is_some_and(|v| v > 0.0), "{line}");
    }
}

#[test]
fn origin_metrics_scrape_is_valid_and_counts_traffic() {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = spawn_origin(&cfg);
    let proxy =
        NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(64)).expect("proxy spawn");
    std::thread::sleep(Duration::from_millis(50));
    let c = ClientId::from_raw(5);

    let first = proxy.fetch(c, url(1), SimTime::from_secs(1)).unwrap();
    assert_eq!(first.kind, FetchKind::Fetched);
    let second = proxy.fetch(c, url(1), SimTime::from_secs(2)).unwrap();
    assert_eq!(second.kind, FetchKind::CacheHit);
    check_in(origin.addr(), url(1), SimTime::from_secs(10)).unwrap();
    // NOTIFY is fire-and-forget: wait for the server to process it before
    // asking about write completion, then for the proxy's ack to register.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));

    // Scrape the origin's service port like a generic Prometheus client.
    let text = scrape(origin.addr()).expect("scrape origin");
    validate_exposition(&text).expect("origin exposition is valid");
    assert_eq!(sample(&text, r#"wcc_gets_total{node="origin"}"#), Some(1.0));
    assert_eq!(
        sample(&text, r#"wcc_notifies_total{node="origin"}"#),
        Some(1.0)
    );
    assert_eq!(
        sample(&text, r#"wcc_invalidations_total{node="origin"}"#),
        Some(1.0)
    );
    assert_eq!(
        sample(&text, r#"wcc_writes_complete{node="origin"}"#),
        Some(1.0)
    );
    // The serve-latency histogram saw the GET.
    assert_eq!(
        sample(&text, r#"wcc_serve_latency_seconds_count{node="origin"}"#),
        Some(1.0)
    );
    assert_reactor_families_counted(&text, "origin");
    // The in-process accessor returns the same family set.
    validate_exposition(&origin.metrics_text()).unwrap();

    // The proxy's client listener answers too.
    let text = scrape(proxy.client_addr()).expect("scrape proxy");
    validate_exposition(&text).expect("proxy exposition is valid");
    assert_eq!(
        sample(&text, r#"wcc_requests_total{node="proxy"}"#),
        Some(2.0)
    );
    assert_eq!(sample(&text, r#"wcc_hits_total{node="proxy"}"#), Some(1.0));
    assert_eq!(
        sample(&text, r#"wcc_misses_total{node="proxy"}"#),
        Some(1.0)
    );
    assert_eq!(
        sample(&text, r#"wcc_fetch_latency_seconds_count{node="proxy"}"#),
        Some(2.0)
    );
    // Both fetches used the blocking API: neither was a reactor hit, and
    // the share of traffic that left the fast path reads 2 of 2.
    assert_eq!(
        sample(&text, r#"wcc_reactor_hits_total{node="proxy"}"#),
        Some(0.0)
    );
    assert_upstream_families_idle(&text, "proxy");
    assert_reactor_families_counted(&text, "proxy");

    // Scrapes are one-shot connections: the protocol path still works after.
    let third = proxy.fetch(c, url(2), SimTime::from_secs(20)).unwrap();
    assert_eq!(third.kind, FetchKind::Fetched);
}

#[test]
fn parent_metrics_scrape_is_valid() {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = spawn_origin(&cfg);
    let parent = NetParent::spawn(
        origin.addr(),
        &cfg,
        ServerId::new(0),
        ByteSize::from_mib(64),
    )
    .expect("parent spawn");
    let child =
        NetProxy::spawn(parent.addr(), &cfg, 0, 1, ByteSize::from_mib(64)).expect("child spawn");
    std::thread::sleep(Duration::from_millis(50));

    let c = ClientId::from_raw(9);
    child.fetch(c, url(3), SimTime::from_secs(1)).unwrap();
    child.fetch(c, url(3), SimTime::from_secs(2)).unwrap();
    // Another client of the same child: its compulsory miss is a hit at
    // the parent, answered on the parent's reactor.
    let d = ClientId::from_raw(10);
    child.fetch(d, url(3), SimTime::from_secs(3)).unwrap();

    let text = scrape(parent.addr()).expect("scrape parent");
    validate_exposition(&text).expect("parent exposition is valid");
    assert_eq!(
        sample(&text, r#"wcc_child_requests_total{node="parent"}"#),
        Some(2.0)
    );
    assert_eq!(
        sample(&text, r#"wcc_upstream_requests_total{node="parent"}"#),
        Some(1.0)
    );
    assert_eq!(
        sample(&text, r#"wcc_reactor_hits_total{node="parent"}"#),
        Some(1.0)
    );
    assert_eq!(
        sample(&text, r#"wcc_serve_latency_seconds_count{node="parent"}"#),
        Some(2.0)
    );
    assert_upstream_families_idle(&text, "parent");
    assert_reactor_families_counted(&text, "parent");
    validate_exposition(&parent.metrics_text()).unwrap();
}
