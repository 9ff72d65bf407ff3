//! §5 crash-recovery and wire-robustness tests of the serving tier.
//!
//! The first test kills the origin mid-run and restarts it on the same
//! port in recovery mode, asserting the proxy's invalidation channel is
//! rebuilt and no stale copy survives. The second drives the proxy's
//! client port with two pipelined `GET`s deliberately split across many
//! tiny writes, checking the reactor reassembles frames across reads. The
//! next two play a proxy over raw sockets whose `HELLO` push channel is
//! down when a write lands: the invalidation must reach it once it
//! registers again (the missed invalidation), and until then the origin's
//! retries go nowhere without harm. The last has peers that do not hold a
//! copy ack for it: the ack is refused and the copy stays pending.

#![allow(
    clippy::disallowed_methods,
    reason = "tests wait on real sockets in wall time"
)]

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{check_in, FetchKind, NetOrigin, NetProxy, OriginConfig};
use wcc_proto::wire::encode;
use wcc_proto::zero::{FrameReader, HttpMsgRef};
use wcc_proto::{GetRequest, HttpMsg, RequestId};
use wcc_types::{ByteSize, ClientId, ServerId, SimTime, Url};

/// The origin's retry period (`RETRY` in `crates/net/src/origin.rs`).
const RETRY: Duration = Duration::from_millis(250);

fn origin_config(cfg: &ProtocolConfig) -> OriginConfig {
    OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 32],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    }
}

fn url(doc: u32) -> Url {
    Url::new(ServerId::new(0), doc)
}

#[test]
fn origin_restart_recovers_site_lists_without_stale_serves() {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(origin_config(&cfg)).expect("origin spawn");
    let addr = origin.addr();
    let proxy = NetProxy::spawn(addr, &cfg, 0, 1, ByteSize::from_mib(64)).expect("proxy spawn");
    std::thread::sleep(Duration::from_millis(50));
    let c = ClientId::from_raw(7);

    // Populate the cache, so there is a copy that could go stale.
    let first = proxy.fetch(c, url(3), SimTime::from_secs(1)).unwrap();
    assert_eq!(first.kind, FetchKind::Fetched);
    assert_eq!(
        proxy.fetch(c, url(3), SimTime::from_secs(2)).unwrap().kind,
        FetchKind::CacheHit
    );

    // Crash: the in-memory site lists die with the origin. Restart on the
    // same port with `recovering = true` — the §5 protocol must broadcast
    // INVALIDATE <server> and hold until every proxy partition acks.
    drop(origin);
    let origin = NetOrigin::spawn_at(addr, origin_config(&cfg), true).expect("origin restart");
    assert!(
        origin.wait_recovery_complete(Duration::from_secs(10)),
        "restart recovery did not complete"
    );
    assert!(
        origin
            .metrics_text()
            .contains("wcc_recovery_complete{node=\"origin\"} 1"),
        "recovery gauge not set"
    );

    // The bulk invalidation marked the cached copy questionable: the next
    // fetch must revalidate at the origin rather than serve blind.
    let refetch = proxy.fetch(c, url(3), SimTime::from_secs(3)).unwrap();
    assert!(
        refetch.kind == FetchKind::Fetched || refetch.had_entry,
        "post-recovery fetch bypassed revalidation: {refetch:?}"
    );

    // A write after recovery flows through the rebuilt site lists ...
    check_in(addr, url(3), SimTime::from_secs(50)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        origin.wait_writes_complete(Duration::from_secs(5)),
        "post-recovery invalidation was not acknowledged"
    );

    // ... and the very next fetch returns the new version: zero staleness.
    let fresh = proxy.fetch(c, url(3), SimTime::from_secs(60)).unwrap();
    assert_eq!(fresh.kind, FetchKind::Fetched);
    assert_eq!(fresh.meta.last_modified(), SimTime::from_secs(50));
}

#[test]
fn pipelined_gets_split_across_reads_reply_in_order() {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(origin_config(&cfg)).expect("origin spawn");
    let proxy =
        NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(64)).expect("proxy spawn");
    std::thread::sleep(Duration::from_millis(50));

    let c = ClientId::from_raw(11);
    let req1 = RequestId::default().next();
    let req2 = req1.next();
    let get = |req, doc| {
        encode(&HttpMsg::Get(GetRequest {
            req,
            url: url(doc),
            client: c,
            ims: None,
            issued_at: SimTime::from_secs(1),
            cache_hits: 0,
        }))
    };
    let mut wire = get(req1, 5);
    wire.extend_from_slice(&get(req2, 6));

    // Dribble both frames out in 3-byte slices so the server sees partial
    // headers, split length prefixes, and a frame boundary mid-read.
    let mut stream = TcpStream::connect(proxy.client_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for chunk in wire.chunks(3) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    for (want_req, want_doc) in [(req1, 5u32), (req2, 6u32)] {
        match reader.next_msg().expect("reply frame") {
            HttpMsgRef::Reply(r) => {
                assert_eq!(r.req, want_req, "replies out of order");
                assert_eq!(r.url, url(want_doc));
            }
            other => panic!("expected Reply, got {other:?}"),
        }
    }
    drop(reader);
    drop(proxy);
    drop(origin);
}

/// A raw-socket proxy for partition 0 of 1: its `HELLO` push channel.
fn hello(origin: &NetOrigin) -> common::Wire {
    let mut channel = common::Wire::connect(origin.addr());
    channel.send(&HttpMsg::Hello {
        partition: 0,
        partitions: 1,
    });
    channel
}

/// An origin with client 7's copy of document 1 registered, a write to it
/// checked in while partition 0's push channel is down, and at least
/// `ticks` retries of the invalidation gone into the void since.
fn write_lands_during_a_channel_outage(ticks: u64) -> NetOrigin {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(origin_config(&cfg)).expect("origin spawn");
    let channel = hello(&origin);
    let mut requests = common::Wire::connect(origin.addr());
    requests.send(&common::get(
        1,
        1,
        ClientId::from_raw(7),
        SimTime::from_secs(1),
    ));
    requests.recv_200();
    assert_eq!(origin.snapshot().sitelist.total_entries, 1);
    drop(channel);

    check_in(origin.addr(), url(1), SimTime::from_secs(50)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while origin.snapshot().invalidation_retries < ticks && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = origin.snapshot();
    assert_eq!((snap.notifies, snap.acks), (1, 0));
    assert!(snap.invalidation_retries >= ticks, "{snap:?}");
    assert!(!snap.writes_complete, "nobody acknowledged the write");
    origin
}

/// Reads the `INVALIDATE` for client 7's copy of document 1 and acks it.
fn take_and_ack_the_invalidation(channel: &mut common::Wire) {
    let (doc, client) = match channel.next() {
        HttpMsgRef::Owned(HttpMsg::Invalidate { url, client }) => (url, client),
        other => panic!("expected the missed INVALIDATE, got {other:?}"),
    };
    assert_eq!((doc, client), (url(1), ClientId::from_raw(7)));
    channel.send(&HttpMsg::InvalAck {
        url: doc,
        client,
        cache_hits: 0,
    });
}

#[test]
fn a_write_during_a_push_channel_outage_is_resent_on_reregistration() {
    // A retry just went out, so the next is a whole period away: what
    // arrives well inside it was pushed because of the HELLO.
    let origin = write_lands_during_a_channel_outage(1);
    let registered = Instant::now();
    let mut channel = hello(&origin);
    take_and_ack_the_invalidation(&mut channel);
    let waited = registered.elapsed();
    assert!(waited < RETRY * 4 / 5, "pushed only after {waited:?}");
    assert!(
        origin.wait_writes_complete(Duration::from_secs(5)),
        "the re-sent invalidation was acknowledged"
    );
    assert_eq!(origin.snapshot().acks, 1);
}

#[test]
fn retries_into_a_dead_push_channel_are_dropped_and_stay_pending() {
    // Three retry periods with nowhere to push to: each retry is dropped
    // by the runtime (its channel token is stale), none of it queues up.
    let origin = write_lands_during_a_channel_outage(3);
    let mut requests = common::Wire::connect(origin.addr());
    requests.send(&common::get(
        9,
        2,
        ClientId::from_raw(8),
        SimTime::from_secs(60),
    ));
    requests.recv_200();
    let snap = origin.snapshot();
    assert_eq!(snap.gave_up, 0, "three periods are well inside the budget");
    assert!(snap.invalidations > snap.invalidation_retries);
    assert!(origin
        .metrics_text()
        .contains("wcc_writes_complete{node=\"origin\"} 0"));

    // The entry waited: the proxy's next registration collects it.
    let mut channel = hello(&origin);
    take_and_ack_the_invalidation(&mut channel);
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
}

/// Only the partition holding a copy answers for it. Client 7 is
/// partition 1's: an `InvalAck` for its copy on a connection without a
/// `HELLO`, or on partition 0's channel, is refused and that connection
/// closed, so the write stays incomplete and is pushed to partition 1
/// again on the retry period.
#[test]
fn an_ack_from_a_peer_that_does_not_hold_the_copy_is_refused() {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(origin_config(&cfg)).expect("origin spawn");
    let register = |partition| {
        let mut channel = common::Wire::connect(origin.addr());
        channel.send(&HttpMsg::Hello {
            partition,
            partitions: 2,
        });
        channel
    };
    let mut holder = register(1);
    let mut requests = common::Wire::connect(origin.addr());
    let carol = ClientId::from_raw(7);
    requests.send(&common::get(1, 1, carol, SimTime::from_secs(1)));
    requests.recv_200();
    check_in(origin.addr(), url(1), SimTime::from_secs(50)).unwrap();
    let pushed = HttpMsg::Invalidate {
        url: url(1),
        client: carol,
    };
    assert_eq!(holder.next().to_owned(), pushed);

    // The holder never acks; two peers that hold nothing do.
    let forged = HttpMsg::InvalAck {
        url: url(1),
        client: carol,
        cache_hits: 0,
    };
    for mut peer in [requests, register(0)] {
        peer.send(&forged);
        assert!(
            !origin.wait_writes_complete(RETRY / 5),
            "an ack from a peer without the copy completed the write"
        );
        peer.assert_closed();
    }
    assert_eq!(origin.snapshot().acks, 0);

    // The copy is still pending: the retry reaches its holder.
    take_and_ack_the_invalidation(&mut holder);
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
}
