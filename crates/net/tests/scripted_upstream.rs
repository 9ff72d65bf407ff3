//! The proxy's one thread against an upstream the test scripts: the proxy
//! dials it once, misses overlap, hits overtake them (but never on their
//! own connection), a reply written before an invalidation is served
//! first, an invalidation is acknowledged at once and poisons the fetch it
//! overtook, a dropped upstream connection is re-dialled with its flights
//! re-sent, a flight nobody answers times out, a pipelining client cannot
//! make the proxy hold more than a bounded number of requests, a scrape
//! waits for the replies ahead of it, a blocking `fetch` is one more
//! client of all this, and an upstream's `X-Size` cannot make the proxy
//! allocate without bound.

mod common;

use common::{get, url, ScriptedUpstream, Wire, SERVER};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{FetchKind, NetProxy};
use wcc_proto::{decode_frame, HttpMsg, HttpMsgRef, Reply, ReplyStatus, MAX_DOC_SIZE};
use wcc_types::{Body, ByteSize, ClientId, DocMeta, SimTime};

/// `MAX_PIPELINE` of `crates/net/src/evloop.rs`.
const MAX_PIPELINE: u64 = 64;

const C: ClientId = ClientId::from_raw(7);

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// A proxy in front of a scripted upstream, its upstream connection
/// accepted and its `HELLO` read.
fn start() -> (ScriptedUpstream, NetProxy, Wire) {
    let upstream = ScriptedUpstream::bind();
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let proxy =
        NetProxy::spawn(upstream.addr(), &cfg, 0, 1, ByteSize::from_mib(64)).expect("proxy");
    let up = upstream.accept_node();
    (upstream, proxy, up)
}

fn gauge(proxy: &NetProxy, name: &str) -> String {
    let text = proxy.metrics_text();
    let line = text.lines().find(|l| l.starts_with(name)).expect(name);
    line.rsplit(' ').next().expect("value").to_string()
}

/// One connection per hop: the proxy's `HELLO` is the first frame on the
/// only connection it dials (read by `start`), and a miss and its reply, a
/// push and its ack all travel on it.
#[test]
fn a_node_dials_its_upstream_once() {
    let (upstream, proxy, mut up) = start();
    let mut browser = Wire::connect(proxy.client_addr());
    browser.send(&get(1, 1, C, t(1)));
    let miss = up.recv_get();
    up.reply_200(&miss, t(0));
    assert_eq!(browser.recv_200(), (1, t(0)));
    up.send(&HttpMsg::Invalidate {
        url: url(1),
        client: C,
    });
    assert!(matches!(
        up.next(),
        HttpMsgRef::Owned(HttpMsg::InvalAck { .. })
    ));
    upstream.assert_no_dial();
    let c = proxy.counters();
    assert_eq!((c.invalidations_received, c.upstream_redials), (1, 0));
}

/// What the upstream wrote first arrives first: a reply written ahead of
/// an invalidation of its document is served, not raced, and the push then
/// drops the copy, so the next request misses.
#[test]
fn a_reply_written_before_a_push_is_served_then_dropped() {
    let (_upstream, proxy, mut up) = start();
    let mut browser = Wire::connect(proxy.client_addr());
    browser.send(&get(1, 3, C, t(1)));
    let miss = up.recv_get();
    up.reply_200(&miss, t(5));
    up.send(&HttpMsg::Invalidate {
        url: url(3),
        client: C,
    });
    assert_eq!(browser.recv_200(), (1, t(5)));
    assert!(
        matches!(up.next(), HttpMsgRef::Owned(HttpMsg::InvalAck { url: u, .. }) if u == url(3))
    );
    assert_eq!(proxy.counters().inval_races, 0);
    browser.send(&get(2, 3, C, t(2)));
    let again = up.recv_get();
    assert_eq!((again.url, again.ims), (url(3), None));
    up.reply_200(&again, t(9));
    assert_eq!(browser.recv_200(), (2, t(9)));
    let c = proxy.counters();
    assert_eq!(
        (c.requests, c.hits, c.gets_sent, c.inval_races),
        (2, 0, 2, 0)
    );
}

/// One fetch at a time — a lock held across the upstream round trip —
/// would show the upstream the second miss only after the first was
/// answered.
#[test]
fn misses_from_many_connections_are_all_upstream_before_any_is_answered() {
    let (_upstream, proxy, mut up) = start();
    let mut browsers: Vec<Wire> = (0..4).map(|_| Wire::connect(proxy.client_addr())).collect();
    for (doc, browser) in browsers.iter_mut().enumerate() {
        browser.send(&get(1, doc as u32, C, t(1)));
    }
    let mut gets: Vec<_> = (0..4).map(|_| up.recv_get()).collect();
    assert_eq!(proxy.counters().gets_sent, 4);
    assert_eq!(gauge(&proxy, "wcc_upstream_in_flight"), "4");
    // Answered in another order than asked: connections do not wait for
    // each other.
    gets.reverse();
    for sent in &gets {
        up.reply_200(sent, t(0));
    }
    for browser in &mut browsers {
        assert_eq!(browser.recv_200(), (1, t(0)));
    }
    let c = proxy.counters();
    assert_eq!((c.requests, c.replies_200, c.reactor_hits), (4, 4, 0));
    assert_eq!(gauge(&proxy, "wcc_upstream_in_flight"), "0");
}

#[test]
fn a_hit_overtakes_a_withheld_miss_except_on_its_own_connection() {
    let (_upstream, proxy, mut up) = start();
    let mut a = Wire::connect(proxy.client_addr());
    let mut b = Wire::connect(proxy.client_addr());
    a.send(&get(1, 1, C, t(1)));
    let first = up.recv_get();
    up.reply_200(&first, t(0));
    assert_eq!(a.recv_200(), (1, t(0)));

    // A miss, and behind it a hit, pipelined on one connection.
    a.send_all(&[get(2, 2, C, t(2)), get(3, 1, C, t(2))]);
    let withheld = up.recv_get();
    assert_eq!(withheld.url, url(2));
    // The same copy is served at once to another connection ...
    b.send(&get(1, 1, C, t(2)));
    assert_eq!(b.recv_200(), (1, t(0)));
    // ... while on `a` it waits its turn.
    a.assert_quiet();
    assert_eq!(proxy.counters().reactor_hits, 2);
    up.reply_200(&withheld, t(0));
    assert_eq!([a.recv_200().0, a.recv_200().0], [2, 3]);
}

/// The callback race, both forms, as a parent upstream makes it: it pushes
/// an invalidation at once but defers the reply ahead of it, so the reply
/// of before the write is still under way when the invalidation arrives.
#[test]
fn an_invalidation_is_acked_at_once_and_the_fetch_it_overtook_is_repeated() {
    let (_upstream, proxy, mut up) = start();
    let mut browser = Wire::connect(proxy.client_addr());
    let pushes = [
        HttpMsg::Invalidate {
            url: url(3),
            client: C,
        },
        HttpMsg::InvalidateServer { server: SERVER },
    ];
    for (race, push) in pushes.iter().enumerate() {
        let req = race as u64 + 1;
        browser.send(&get(req, 3, C, t(10 * req)));
        let old = up.recv_get();
        assert_eq!((old.url, old.ims), (url(3), None));
        // The write: its invalidation is acknowledged while the fetch is
        // in flight, not after it.
        up.send(push);
        match (push, up.next()) {
            (
                HttpMsg::Invalidate { .. },
                HttpMsgRef::Owned(HttpMsg::InvalAck { url: acked, .. }),
            ) => {
                assert_eq!(acked, url(3));
            }
            (
                HttpMsg::InvalidateServer { .. },
                HttpMsgRef::Owned(HttpMsg::InvalidateServerAck { .. }),
            ) => {}
            (_, other) => panic!("expected the ack, got {other:?}"),
        }
        // The reply from before the write lands: it is not delivered ...
        up.reply_200(&old, t(5));
        let again = up.recv_get();
        assert_ne!(again.req, old.req);
        assert_eq!((again.url, again.client, again.ims), (url(3), C, None));
        browser.assert_quiet();
        // ... the version after it is.
        up.reply_200(&again, t(9 * req));
        assert_eq!(browser.recv_200(), (req, t(9 * req)));
        assert_eq!(proxy.counters().inval_races, req);
        // The next write drops this copy, so the next round misses again.
        up.send(&pushes[0]);
        assert!(matches!(
            up.next(),
            HttpMsgRef::Owned(HttpMsg::InvalAck { .. })
        ));
    }
    assert_eq!(gauge(&proxy, "wcc_inval_races_total"), "2");
}

#[test]
fn a_dropped_upstream_connection_is_redialled_and_its_flights_resent() {
    let (upstream, proxy, mut up) = start();
    let mut browsers: Vec<Wire> = (0..3).map(|_| Wire::connect(proxy.client_addr())).collect();
    for (doc, browser) in browsers.iter_mut().enumerate() {
        browser.send(&get(1, doc as u32, C, t(1)));
    }
    let sent: Vec<_> = (0..3).map(|_| up.recv_get()).collect();
    drop(up);
    let mut up = upstream.accept_node();
    for first in &sent {
        let again = up.recv_get();
        assert_eq!(again, *first, "re-sent as it was");
        up.reply_200(&again, t(0));
    }
    for browser in &mut browsers {
        assert_eq!(browser.recv_200(), (1, t(0)));
    }
    let c = proxy.counters();
    assert_eq!((c.upstream_redials, c.dropped_connections), (1, 0));
    assert_eq!(gauge(&proxy, "wcc_upstream_redials_total"), "1");
    // A second drop finds nothing in flight; the connection comes back.
    drop(up);
    let mut up = upstream.accept_node();
    browsers[0].send(&get(2, 9, C, t(2)));
    let fresh = up.recv_get();
    up.reply_200(&fresh, t(0));
    assert_eq!(browsers[0].recv_200(), (2, t(0)));
}

#[test]
fn an_unanswered_flight_times_out_and_closes_its_client_behind_earlier_replies() {
    let (_upstream, proxy, mut up) = start();
    let mut a = Wire::connect(proxy.client_addr());
    let mut b = Wire::connect(proxy.client_addr());
    a.send_all(&[get(1, 1, C, t(1)), get(2, 2, C, t(1))]);
    let (first, _never_answered) = (up.recv_get(), up.recv_get());
    up.reply_200(&first, t(0));
    assert_eq!(a.recv_200(), (1, t(0)));
    a.assert_closed(); // once the flight was given its 5 s
    let c = proxy.counters();
    assert_eq!((c.upstream_timeouts, c.dropped_connections), (1, 1));
    assert_eq!(gauge(&proxy, "wcc_upstream_timeouts_total"), "1");
    assert_eq!(gauge(&proxy, "wcc_upstream_in_flight"), "0");
    // The node itself is fine.
    b.send(&get(1, 1, C, t(2)));
    assert_eq!(b.recv_200(), (1, t(0)));
}

#[test]
fn a_pipelining_client_is_read_no_further_than_max_pipeline() {
    let (_upstream, proxy, mut up) = start();
    let mut a = Wire::connect(proxy.client_addr());
    let mut b = Wire::connect(proxy.client_addr());
    let total = 10 * MAX_PIPELINE;
    let burst: Vec<HttpMsg> = (1..=total)
        .map(|req| get(req, req as u32, C, t(1)))
        .collect();
    a.send_all(&burst);
    let mut sent: Vec<_> = (0..MAX_PIPELINE).map(|_| up.recv_get()).collect();
    // Everything `a` wrote was in the proxy's hands before `b` wrote: an
    // unbounded proxy would have forwarded all of it ahead of this.
    b.send(&get(1, 0, C, t(1)));
    let from_b = up.recv_get();
    assert_eq!(from_b.url, url(0), "the proxy read past a full pipeline");
    up.assert_quiet();
    assert_eq!(
        gauge(&proxy, "wcc_upstream_in_flight"),
        (MAX_PIPELINE + 1).to_string()
    );
    up.reply_200(&from_b, t(0));
    assert_eq!(b.recv_200(), (1, t(0)));
    // Each reply that leaves lets one more request in; all arrive, in order.
    for req in 1..=total {
        let next = sent.remove(0);
        assert_eq!(next.url, url(req as u32));
        up.reply_200(&next, t(0));
        assert_eq!(a.recv_200(), (req, t(0)));
        if req + MAX_PIPELINE <= total {
            sent.push(up.recv_get());
        }
    }
    up.assert_quiet();
    assert_eq!(proxy.counters().dropped_connections, 0);
}

/// A scrape is a connection's last answer, so one pipelined behind a miss
/// waits for the miss's reply: the `200` first, then the exposition, then
/// the close.
#[test]
fn a_scrape_pipelined_behind_a_miss_waits_for_its_reply() {
    let (_upstream, proxy, mut up) = start();
    let mut a = Wire::connect(proxy.client_addr());
    a.send_all(&[get(1, 1, C, t(1)), HttpMsg::MetricsGet]);
    let miss = up.recv_get();
    up.reply_200(&miss, t(0));
    let bytes = a.read_to_end();
    let (first, used) = decode_frame(&bytes, true)
        .expect("a frame first")
        .expect("a whole frame");
    assert!(matches!(first, HttpMsgRef::Reply(reply) if reply.req.get() == 1));
    let scrape = String::from_utf8_lossy(&bytes[used..]);
    assert!(scrape.starts_with("HTTP/1.0 200 OK"), "{scrape}");
    assert!(scrape.contains("wcc_reactor_send_calls_total"), "{scrape}");
    assert_eq!(proxy.counters().dropped_connections, 0);
}

/// A blocking `fetch` dials nothing of its own: its miss goes out on the
/// upstream connection the node dialled, like a client-listener miss.
#[test]
fn a_blocking_fetch_rides_the_upstream_connection() {
    let (upstream, proxy, mut up) = start();
    std::thread::scope(|s| {
        let fetch = s.spawn(|| proxy.fetch(C, url(4), t(1)));
        let get = up.recv_get();
        assert_eq!((get.url, get.client), (url(4), C));
        up.reply_200(&get, t(0));
        let outcome = fetch.join().expect("fetch thread").expect("fetch");
        assert_eq!(outcome.kind, FetchKind::Fetched);
    });
    upstream.assert_no_dial();
    let c = proxy.counters();
    assert_eq!((c.gets_sent, c.replies_200, c.upstream_redials), (1, 1, 0));
}

/// ... so it is re-sent on the re-dial like any other flight.
#[test]
fn a_fetch_in_flight_across_a_redial_is_sent_again() {
    let (upstream, proxy, mut up) = start();
    std::thread::scope(|s| {
        let fetch = s.spawn(|| proxy.fetch(C, url(4), t(1)));
        let sent = up.recv_get();
        drop(up);
        let mut up = upstream.accept_node();
        let again = up.recv_get();
        assert_eq!(again, sent, "re-sent as it was");
        up.reply_200(&again, t(0));
        let outcome = fetch.join().expect("fetch thread").expect("fetch");
        assert_eq!(outcome.kind, FetchKind::Fetched);
    });
    assert_eq!(proxy.counters().upstream_redials, 1);
}

/// An upstream's `X-Size` is outside input, and the proxy answers its
/// client with a body that long: a `200` claiming 1 TiB (its payload 1 KiB)
/// is refused at decode and its connection dropped, like any other hostile
/// frame, so nothing is allocated for it. The flight is re-sent on the
/// re-dial, and a document of exactly the cap is served.
#[test]
fn an_x_size_past_the_cap_drops_the_upstream_connection() {
    let (upstream, proxy, mut up) = start();
    let mut browser = Wire::connect(proxy.client_addr());
    browser.send(&get(1, 1, C, t(1)));
    let miss = up.recv_get();
    let sized = |get: &wcc_proto::GetRequest, size: u64| {
        let meta = DocMeta::new(ByteSize::from_bytes(size), t(0));
        HttpMsg::Reply(Reply {
            req: get.req,
            url: get.url,
            client: get.client,
            status: ReplyStatus::Ok(Body::synthetic(meta, size / 1024)),
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        })
    };
    up.send(&sized(&miss, 1 << 40));
    up.assert_closed();
    let mut up = upstream.accept_node();
    let again = up.recv_get();
    assert_eq!(again, miss, "re-sent as it was");
    up.send(&sized(&again, MAX_DOC_SIZE));
    assert_eq!(browser.recv_200(), (1, t(0)));
    assert_eq!(proxy.counters().upstream_redials, 1);
}
