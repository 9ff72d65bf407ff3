//! The hierarchy over real sockets: origin ← parent ← two children.

#![allow(
    clippy::disallowed_methods,
    reason = "tests wait on real sockets in wall time"
)]

mod common;

use std::time::Duration;
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{check_in, FetchKind, NetOrigin, NetParent, NetProxy, OriginConfig};
use wcc_types::{ByteSize, ClientId, ServerId, SimDuration, SimTime, Url};

fn url(doc: u32) -> Url {
    Url::new(ServerId::new(0), doc)
}

fn start() -> (NetOrigin, NetParent, NetProxy, NetProxy) {
    start_with(ProtocolConfig::new(ProtocolKind::Invalidation))
}

fn start_with(cfg: ProtocolConfig) -> (NetOrigin, NetParent, NetProxy, NetProxy) {
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 16],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .expect("origin");
    let parent = NetParent::spawn(
        origin.addr(),
        &cfg,
        ServerId::new(0),
        ByteSize::from_mib(64),
    )
    .expect("parent");
    std::thread::sleep(Duration::from_millis(50));
    // Children connect to the PARENT, not the origin.
    let a = NetProxy::spawn(parent.addr(), &cfg, 0, 2, ByteSize::from_mib(32)).expect("child a");
    let b = NetProxy::spawn(parent.addr(), &cfg, 1, 2, ByteSize::from_mib(32)).expect("child b");
    std::thread::sleep(Duration::from_millis(50));
    (origin, parent, a, b)
}

#[test]
fn second_child_hits_the_parent_cache() {
    let (origin, parent, a, b) = start();
    let alice = ClientId::from_raw(0); // partition 0
    let bob = ClientId::from_raw(1); // partition 1

    let first = a.fetch(alice, url(3), SimTime::from_secs(1)).unwrap();
    assert_eq!(first.kind, FetchKind::Fetched);
    let second = b.fetch(bob, url(3), SimTime::from_secs(2)).unwrap();
    assert_eq!(second.kind, FetchKind::Fetched, "transfer from the parent");

    let pc = parent.counters();
    assert_eq!(pc.parent.child_requests, 2);
    assert_eq!(pc.fetch.gets_sent, 1, "one compulsory origin miss");
    assert_eq!(pc.parent.parent_hits, 1);
    // The origin saw exactly one site: the parent.
    let snap = origin.snapshot();
    assert_eq!(snap.gets, 1);
    assert_eq!(snap.sitelist.max_list_len, 1);
}

/// A parent hit leaves after the miss pipelined ahead of it on the same
/// connection: answered at once, it parks behind the deferred reply.
#[test]
fn parent_hit_pipelined_behind_a_miss_keeps_connection_order() {
    use std::io::Write;
    use wcc_proto::{encode, FrameReader, GetRequest, HttpMsg, HttpMsgRef, RequestId};
    let (_origin, parent, a, _b) = start();
    a.fetch(ClientId::from_raw(0), url(3), SimTime::from_secs(1))
        .unwrap();
    let before = parent.counters();

    let mut w = std::net::TcpStream::connect(parent.addr()).unwrap();
    w.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut r = FrameReader::new(w.try_clone().unwrap());
    let get = |req: u64, doc: u32| {
        encode(&HttpMsg::Get(GetRequest {
            req: RequestId::new(req),
            url: url(doc),
            client: ClientId::from_raw(6),
            ims: None,
            issued_at: SimTime::from_secs(2),
            cache_hits: 0,
        }))
    };
    // Doc 4 is new to the parent, doc 3 it holds.
    w.write_all(&[get(1, 4), get(2, 3)].concat()).unwrap();
    for expected in [(1, url(4)), (2, url(3))] {
        match r.next_msg().expect("reply frame") {
            HttpMsgRef::Reply(reply) => assert_eq!((reply.req.get(), reply.url), expected),
            other => panic!("expected a reply, got {other:?}"),
        }
    }
    let pc = parent.counters();
    assert_eq!(pc.fetch.gets_sent, before.fetch.gets_sent + 1);
    assert_eq!(pc.parent.parent_hits, before.parent.parent_hits + 1);
    assert!(parent
        .metrics_text()
        .contains("wcc_reactor_hits_total{node=\"parent\"}"));
}

#[test]
fn invalidation_cascades_down_the_tree() {
    let (origin, parent, a, b) = start();
    let alice = ClientId::from_raw(0);
    let bob = ClientId::from_raw(1);

    a.fetch(alice, url(5), SimTime::from_secs(1)).unwrap();
    b.fetch(bob, url(5), SimTime::from_secs(2)).unwrap();
    // Both children now serve from cache.
    assert_eq!(
        a.fetch(alice, url(5), SimTime::from_secs(3)).unwrap().kind,
        FetchKind::CacheHit
    );

    check_in(origin.addr(), url(5), SimTime::from_secs(60)).unwrap();
    // Wait for the full cascade: origin → parent → children → acks.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while (a.counters().invalidations_received == 0 || b.counters().invalidations_received == 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
    assert_eq!(origin.snapshot().invalidations, 1, "origin pushed once");
    let pc = parent.counters();
    assert_eq!(pc.fetch.invalidations_received, 1);
    assert_eq!(
        pc.parent.invalidations_relayed, 2,
        "both children held copies"
    );

    // Strong consistency end-to-end: both children fetch the new version.
    for (proxy, client) in [(&a, alice), (&b, bob)] {
        let out = proxy.fetch(client, url(5), SimTime::from_secs(61)).unwrap();
        assert_eq!(out.kind, FetchKind::Fetched);
        assert_eq!(out.meta.last_modified(), SimTime::from_secs(60));
    }
}

#[test]
fn child_validator_is_answered_by_the_parent() {
    let (origin, parent, a, b) = start();
    let alice = ClientId::from_raw(0);
    let bob = ClientId::from_raw(1);

    a.fetch(alice, url(7), SimTime::from_secs(1)).unwrap();
    b.fetch(bob, url(7), SimTime::from_secs(2)).unwrap();
    let before = origin.snapshot();
    // Bob's proxy already holds a copy; force a revalidation by asking
    // through a *polling* child… instead, simply fetch again: under
    // invalidation it is a local hit, so drive the parent path via a new
    // client on the same partition whose copy does not exist yet.
    let carol = ClientId::from_raw(3); // partition 1 → proxy b
    let out = b.fetch(carol, url(7), SimTime::from_secs(3)).unwrap();
    assert_eq!(out.kind, FetchKind::Fetched, "carol's compulsory miss");
    let after = origin.snapshot();
    assert_eq!(
        before.gets + before.ims,
        after.gets + after.ims,
        "carol was served by the parent, not the origin"
    );
    assert!(parent.counters().parent.parent_hits >= 2);
}

/// The callback race at the parent: the upstream's pre-write reply is
/// still under way when its `INVALIDATE` arrives (as from a parent above,
/// which defers replies but not pushes). The parent acks at once, and
/// neither caches nor leases out the overtaken version.
#[test]
fn parent_repeats_an_upstream_fetch_overtaken_by_an_invalidation() {
    use common::{get, ScriptedUpstream, Wire};
    use wcc_proto::{HttpMsg, HttpMsgRef};
    let upstream = ScriptedUpstream::bind();
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let parent = NetParent::spawn(
        upstream.addr(),
        &cfg,
        ServerId::new(0),
        ByteSize::from_mib(64),
    )
    .expect("parent");
    let mut origin = upstream.accept_node();
    let mut child = Wire::connect(parent.addr());
    let carol = ClientId::from_raw(6);

    child.send(&get(1, 3, carol, SimTime::from_secs(1)));
    let old = origin.recv_get();
    assert_eq!((old.url, old.ims), (url(3), None));
    assert_ne!(old.client, carol, "the parent asks in its own name");
    origin.send(&HttpMsg::Invalidate {
        url: url(3),
        client: old.client,
    });
    assert!(matches!(
        origin.next(),
        HttpMsgRef::Owned(HttpMsg::InvalAck { .. })
    ));
    origin.reply_200(&old, SimTime::from_secs(5));
    let again = origin.recv_get();
    assert_ne!(again.req, old.req);
    assert_eq!(
        (again.url, again.client, again.ims),
        (url(3), old.client, None)
    );
    child.assert_quiet();
    origin.reply_200(&again, SimTime::from_secs(9));
    assert_eq!(child.recv_200(), (1, SimTime::from_secs(9)));

    let pc = parent.counters();
    assert_eq!((pc.fetch.inval_races, pc.fetch.gets_sent), (1, 2));
    assert_eq!((pc.parent.child_requests, pc.parent.parent_hits), (1, 0));
    // What it cached is the version after the write.
    child.send(&get(2, 3, ClientId::from_raw(8), SimTime::from_secs(2)));
    assert_eq!(child.recv_200(), (2, SimTime::from_secs(9)));
    assert_eq!(parent.counters().parent.parent_hits, 1);
}

/// §7 hit reports survive the tier that relays them: what the children
/// served from their caches is what the origin is told, on the parent's
/// requests and acks, also when a report finds the parent without a copy
/// to carry it (its own went with the same invalidation).
#[test]
fn child_hit_reports_reach_the_origin_across_an_invalidation() {
    use common::{get, ScriptedUpstream, Wire};
    use wcc_proto::{GetRequest, HttpMsg, HttpMsgRef};
    let upstream = ScriptedUpstream::bind();
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let capacity = ByteSize::from_mib(64);
    let parent = NetParent::spawn(upstream.addr(), &cfg, ServerId::new(0), capacity).unwrap();
    let mut origin = upstream.accept_node();
    let child = NetProxy::spawn(parent.addr(), &cfg, 0, 1, capacity).expect("child");
    std::thread::sleep(Duration::from_millis(50));
    let alice = ClientId::from_raw(0);

    // A child miss the scripted origin answers; what it is told meanwhile.
    let mut metered = 0;
    let miss = |origin: &mut Wire, now: u64, version: u64, metered: &mut u64| -> GetRequest {
        std::thread::scope(|s| {
            let fetch = s.spawn(|| child.fetch(alice, url(3), SimTime::from_secs(now)));
            let get = origin.recv_get();
            *metered += get.cache_hits;
            origin.reply_200(&get, SimTime::from_secs(version));
            assert_eq!(fetch.join().unwrap().unwrap().kind, FetchKind::Fetched);
            get
        })
    };
    let invalidate = |origin: &mut Wire, client: ClientId, metered: &mut u64| {
        origin.send(&HttpMsg::Invalidate {
            url: url(3),
            client,
        });
        match origin.next() {
            HttpMsgRef::Owned(HttpMsg::InvalAck { cache_hits, .. }) => *metered += cache_hits,
            other => panic!("expected an ack, got {other:?}"),
        }
    };

    let first = miss(&mut origin, 1, 5, &mut metered);
    for now in 2..5 {
        let hit = child.fetch(alice, url(3), SimTime::from_secs(now)).unwrap();
        assert_eq!(hit.kind, FetchKind::CacheHit);
    }
    // The parent's copy dies unread; the child's dying copy reports its
    // three hits on an ack that finds the parent without one.
    invalidate(&mut origin, first.client, &mut metered);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while child.counters().invalidations_received == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // The report rides the parent's next request for the document — or, if
    // the child's ack was slower than its next request, joins the copy that
    // request brought and rides the ack of the next invalidation.
    miss(&mut origin, 10, 9, &mut metered);
    invalidate(&mut origin, first.client, &mut metered);
    assert_eq!(child.counters().hits, 3);
    assert_eq!(metered, 3, "every child-served hit reached the origin");

    // A report on a child's request for a document the parent does not
    // hold rides the request the parent forwards for it.
    let mut raw = Wire::connect(parent.addr());
    let HttpMsg::Get(mut asked) = get(1, 4, ClientId::from_raw(6), SimTime::from_secs(20)) else {
        unreachable!()
    };
    asked.cache_hits = 2;
    raw.send(&HttpMsg::Get(asked));
    assert_eq!(origin.recv_get().cache_hits, 2);
}

/// A relayed invalidation is not lost to a push-channel outage: a write
/// that lands while a child's `HELLO` channel is down is pushed when the
/// child registers again. Until then the child still holds (and serves) the
/// superseded copy, and the parent still waits for its acknowledgement.
#[test]
fn a_relay_during_a_child_channel_outage_is_resent_on_reregistration() {
    use common::{get, Wire};
    use wcc_proto::{HttpMsg, HttpMsgRef};
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 16],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .expect("origin");
    let capacity = ByteSize::from_mib(64);
    let parent = NetParent::spawn(origin.addr(), &cfg, ServerId::new(0), capacity).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let carol = ClientId::from_raw(6);
    let hello = HttpMsg::Hello {
        partition: 0,
        partitions: 1,
    };

    // The child takes a copy, registers, and loses its channel.
    let mut child = Wire::connect(parent.addr());
    child.send(&get(1, 5, carol, SimTime::from_secs(1)));
    assert_eq!(child.recv_200(), (1, SimTime::ZERO));
    let mut channel = Wire::connect(parent.addr());
    channel.send(&hello);
    drop(channel);

    check_in(origin.addr(), url(5), SimTime::from_secs(60)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while parent.counters().fetch.invalidations_received == 0
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(parent.counters().fetch.invalidations_received, 1);

    // Registering again brings the invalidation the outage swallowed.
    let mut channel = Wire::connect(parent.addr());
    channel.send(&hello);
    match channel.next() {
        HttpMsgRef::Owned(HttpMsg::Invalidate { url: u, client }) => {
            assert_eq!((u, client), (url(5), carol))
        }
        other => panic!("expected the missed INVALIDATE, got {other:?}"),
    }
    channel.send(&HttpMsg::InvalAck {
        url: url(5),
        client: carol,
        cache_hits: 0,
    });
    // Acked, it is not pushed a second time.
    let mut again = Wire::connect(parent.addr());
    again.send(&hello);
    child.send(&get(2, 5, carol, SimTime::from_secs(61)));
    assert_eq!(child.recv_200(), (2, SimTime::from_secs(60)));
    again.assert_quiet();
}

/// A relay is re-sent until it is acknowledged: a child whose push channel
/// is up but that never answers gets the `INVALIDATE` again one retry
/// period (250 ms) later — the origin's loop, one tier down.
#[test]
fn an_unacknowledged_relay_is_sent_again_after_one_retry_period() {
    use common::{get, ScriptedUpstream, Wire};
    use wcc_proto::{HttpMsg, HttpMsgRef};
    let upstream = ScriptedUpstream::bind();
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let capacity = ByteSize::from_mib(64);
    let parent = NetParent::spawn(upstream.addr(), &cfg, ServerId::new(0), capacity).unwrap();
    let mut origin = upstream.accept_node();
    let carol = ClientId::from_raw(6);

    // The child registers, then takes a copy (answered behind the `HELLO`).
    let mut channel = Wire::connect(parent.addr());
    channel.send_all(&[
        HttpMsg::Hello {
            partition: 0,
            partitions: 1,
        },
        get(1, 5, carol, SimTime::from_secs(1)),
    ]);
    let asked = origin.recv_get();
    origin.reply_200(&asked, SimTime::from_secs(5));
    assert_eq!(channel.recv_200(), (1, SimTime::from_secs(5)));

    origin.send(&HttpMsg::Invalidate {
        url: url(5),
        client: asked.client,
    });
    assert!(matches!(
        origin.next(),
        HttpMsgRef::Owned(HttpMsg::InvalAck { .. })
    ));
    let sent = std::time::Instant::now();
    for attempt in 0..2 {
        match channel.next() {
            HttpMsgRef::Owned(HttpMsg::Invalidate { url: u, client }) => {
                assert_eq!((u, client), (url(5), carol))
            }
            other => panic!("attempt {attempt}: expected the relay, got {other:?}"),
        }
    }
    assert!(sent.elapsed() >= Duration::from_millis(200), "a retry tick");
    assert_eq!(
        parent.counters().parent.invalidations_relayed,
        2,
        "re-send counted"
    );
    // Acknowledged (the `GET` behind the ack is the barrier), it stops.
    let ack = HttpMsg::InvalAck {
        url: url(5),
        client: carol,
        cache_hits: 0,
    };
    channel.send_all(&[ack, get(2, 5, carol, SimTime::from_secs(61))]);
    let again = origin.recv_get();
    origin.reply_200(&again, SimTime::from_secs(60));
    assert_eq!(channel.recv_200(), (2, SimTime::from_secs(60)));
    std::thread::sleep(Duration::from_millis(300));
    channel.assert_quiet();
}

/// A relayed bulk `INVALIDATE <server>` is not lost to a push-channel
/// outage either: a child whose channel is down when the origin's recovery
/// barrage reaches the parent is sent it when it registers again, and again
/// every retry period until its `InvalidateServerAck` arrives.
#[test]
fn a_bulk_relay_during_a_child_channel_outage_is_resent_until_acknowledged() {
    use common::{ScriptedUpstream, Wire};
    use wcc_proto::{HttpMsg, HttpMsgRef};
    let upstream = ScriptedUpstream::bind();
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let capacity = ByteSize::from_mib(64);
    let server = ServerId::new(0);
    let parent = NetParent::spawn(upstream.addr(), &cfg, server, capacity).unwrap();
    let mut origin = upstream.accept_node();
    let hello = HttpMsg::Hello {
        partition: 0,
        partitions: 1,
    };

    // The child registers and loses its channel; the barrage finds it down.
    let mut channel = Wire::connect(parent.addr());
    channel.send(&hello);
    drop(channel);
    origin.send(&HttpMsg::InvalidateServer { server });
    let acked = origin.next();
    assert!(matches!(
        acked,
        HttpMsgRef::Owned(HttpMsg::InvalidateServerAck { .. })
    ));
    assert_eq!(parent.counters().fetch.bulk_invalidations_received, 1);

    // Registering again brings it, and silence brings it again.
    let mut channel = Wire::connect(parent.addr());
    channel.send(&hello);
    for attempt in 0..2 {
        let bulk = channel.next();
        let expected = matches!(bulk, HttpMsgRef::Owned(HttpMsg::InvalidateServer { server: s }) if s == server);
        assert!(
            expected,
            "attempt {attempt}: expected the bulk, got {bulk:?}"
        );
    }
    // Acknowledged, it stops — also when the child registers once more
    // (behind the ack, on the same connection: handled in that order).
    channel.send_all(&[HttpMsg::InvalidateServerAck { server }, hello]);
    std::thread::sleep(Duration::from_millis(300));
    channel.assert_quiet();
}

/// A child's acknowledgement of a relayed bulk `INVALIDATE <server>` counts
/// only if it names that server: one naming another is refused, and the
/// parent closes the child's connection. The bulk is still owed, so the
/// child's next registration brings it again.
#[test]
fn a_bulk_ack_naming_another_server_closes_the_child_connection() {
    use common::{ScriptedUpstream, Wire};
    use wcc_proto::{HttpMsg, HttpMsgRef};
    let upstream = ScriptedUpstream::bind();
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let capacity = ByteSize::from_mib(64);
    let server = ServerId::new(0);
    let parent = NetParent::spawn(upstream.addr(), &cfg, server, capacity).unwrap();
    let mut origin = upstream.accept_node();
    let hello = HttpMsg::Hello {
        partition: 0,
        partitions: 1,
    };
    let bulk = |msg: HttpMsgRef<'_>| matches!(msg, HttpMsgRef::Owned(HttpMsg::InvalidateServer { server: s }) if s == server);

    // The origin's recovery barrage reaches the parent before the child
    // registers, so the child's `HELLO` is what brings the bulk.
    origin.send(&HttpMsg::InvalidateServer { server });
    assert!(matches!(
        origin.next(),
        HttpMsgRef::Owned(HttpMsg::InvalidateServerAck { .. })
    ));
    let mut channel = Wire::connect(parent.addr());
    channel.send(&hello);
    assert!(bulk(channel.next()));
    channel.send(&HttpMsg::InvalidateServerAck {
        server: ServerId::new(1),
    });
    channel.assert_closed();

    // Not counted: registering again brings the bulk again.
    let mut channel = Wire::connect(parent.addr());
    channel.send(&hello);
    assert!(bulk(channel.next()));
}

/// A child `GET` the origin never answers times out at the parent after
/// 5 s, and the parent closes the child's connection behind it: its push
/// channel too, since that is the same connection. A write in the gap is
/// relayed nowhere, and the child's `HELLO` on its next connection brings it.
#[test]
fn a_relay_missed_behind_a_timed_out_flight_is_pushed_on_the_next_hello() {
    use common::{get, ScriptedUpstream, Wire};
    use wcc_proto::{HttpMsg, HttpMsgRef};
    let upstream = ScriptedUpstream::bind();
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let capacity = ByteSize::from_mib(64);
    let parent = NetParent::spawn(upstream.addr(), &cfg, ServerId::new(0), capacity).unwrap();
    let mut origin = upstream.accept_node();
    upstream.assert_no_dial();
    let carol = ClientId::from_raw(6);
    let hello = HttpMsg::Hello {
        partition: 0,
        partitions: 1,
    };

    // The child registers and takes a copy; its next miss is never answered.
    let mut child = Wire::connect(parent.addr());
    child.send_all(&[hello.clone(), get(1, 5, carol, SimTime::from_secs(1))]);
    let asked = origin.recv_get();
    origin.reply_200(&asked, SimTime::from_secs(5));
    assert_eq!(child.recv_200(), (1, SimTime::from_secs(5)));
    child.send(&get(2, 6, carol, SimTime::from_secs(2)));
    let _never_answered = origin.recv_get();
    child.assert_closed();
    assert_eq!(parent.counters().upstream_timeouts, 1);

    // The write lands while the child is away.
    origin.send(&HttpMsg::Invalidate {
        url: url(5),
        client: asked.client,
    });
    assert!(matches!(
        origin.next(),
        HttpMsgRef::Owned(HttpMsg::InvalAck { .. })
    ));
    let mut child = Wire::connect(parent.addr());
    child.send(&hello);
    match child.next() {
        HttpMsgRef::Owned(HttpMsg::Invalidate { url: u, client }) => {
            assert_eq!((u, client), (url(5), carol))
        }
        other => panic!("expected the missed INVALIDATE, got {other:?}"),
    }
}

/// A child's lease ends no later than the parent's, over TCP. Child `a`
/// fetches through the parent at 0 s, which leases the parent's copy until
/// about 1 s; child `b` hits the parent at 0.7 s. A write at 1.2 s finds
/// the parent's lease over, so the origin owes nobody an `INVALIDATE`; had
/// `b` been leased until 1.7 s, it would serve the old version after the
/// write completed. Both `GET`s arrive on the children's client listeners,
/// judged at each node's clock. Returns the version `b` serves after the
/// write, and how many `INVALIDATE`s the origin sent.
fn served_after_a_write(cfg: ProtocolConfig) -> (SimTime, u64) {
    use common::{get, Wire};
    let (origin, _parent, a, b) = start_with(cfg);
    let (alice, bob) = (ClientId::from_raw(0), ClientId::from_raw(1));
    let begun = std::time::Instant::now();
    let mut at_a = Wire::connect(a.client_addr());
    at_a.send(&get(1, 3, alice, SimTime::from_secs(1)));
    assert_eq!(at_a.recv_200().1, SimTime::ZERO);
    let mut at_b = Wire::connect(b.client_addr());
    std::thread::sleep(Duration::from_millis(700).saturating_sub(begun.elapsed()));
    at_b.send(&get(1, 3, bob, SimTime::from_secs(1)));
    assert_eq!(at_b.recv_200().1, SimTime::ZERO);
    std::thread::sleep(Duration::from_millis(1200).saturating_sub(begun.elapsed()));
    check_in(origin.addr(), url(3), SimTime::from_secs(60)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while origin.snapshot().notifies == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(origin.wait_writes_complete(Duration::from_secs(5)));
    at_b.send(&get(2, 3, bob, SimTime::from_secs(1)));
    let served = at_b.recv_200().1;
    assert!(
        begun.elapsed() < Duration::from_millis(1700),
        "too slow to tell"
    );
    (served, origin.snapshot().invalidations)
}

#[test]
fn a_child_lease_ends_no_later_than_the_parents_over_tcp() {
    let second = SimDuration::from_secs(1);
    for kind in [ProtocolKind::LeaseInvalidation, ProtocolKind::VolumeLease] {
        let cfg = ProtocolConfig::new(kind)
            .with_lease(second)
            .with_volume_lease(second);
        let new = (SimTime::from_secs(60), 0);
        assert_eq!(served_after_a_write(cfg), new, "{kind}");
    }
}

/// The volume-lease leg: the object lease outlives the test, the volume
/// (1 s) does not; `b`'s volume may be renewed no later than the parent's.
#[test]
fn a_child_volume_lease_ends_no_later_than_the_parents_over_tcp() {
    let cfg = ProtocolConfig::new(ProtocolKind::VolumeLease)
        .with_lease(SimDuration::from_secs(60))
        .with_volume_lease(SimDuration::from_secs(1));
    assert_eq!(served_after_a_write(cfg), (SimTime::from_secs(60), 0));
}

/// The control: plain invalidation's promise has no end, so the write is
/// pushed down the tree and `b` fetches the new version.
#[test]
fn an_unbounded_promise_is_invalidated_down_the_tree_over_tcp() {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    assert_eq!(served_after_a_write(cfg), (SimTime::from_secs(60), 1));
}
