//! One violation per rule of `crates/net/clippy.toml`, each under the
//! `#[expect]` that a firing rule fulfils: a list entry that stops
//! resolving, or stops matching, leaves its expectation unfulfilled, which
//! `cargo clippy -- -D warnings` fails. Compiled, never run.

#![allow(dead_code, reason = "plants are compiled, never called")]

use std::net::{SocketAddr, TcpStream};
use wcc_cache::CacheStore;
use wcc_core::{ProxyPolicy, ServerConsistency};
use wcc_proto::GetRequest;
use wcc_types::{ScopedUrl, SimTime, Url};

#[expect(clippy::disallowed_fields, reason = "plant: a peer's time, read")]
fn peer_time(get: &GetRequest) -> SimTime {
    get.issued_at
}

#[expect(clippy::disallowed_fields, reason = "plant: a peer's time, aliased")]
fn peer_time_alias(get: &wcc_proto::GetRequest) -> SimTime {
    use wcc_proto::GetRequest as Request;
    let request: &Request = get;
    request.issued_at
}

#[expect(clippy::disallowed_fields, reason = "plant: a peer's time, bound")]
fn peer_time_binding(get: &GetRequest) -> SimTime {
    let GetRequest { issued_at, .. } = get;
    *issued_at
}

/// Overwriting the field is how a role stamps a `GET` with its own clock:
/// no list flags a struct-literal initialisation.
fn stamped_at_receipt(get: GetRequest, now: SimTime) -> GetRequest {
    GetRequest {
        issued_at: now,
        ..get
    }
}

#[expect(clippy::disallowed_methods, reason = "plant: the proxy's 200 step")]
fn fetch_bypass(p: &mut ProxyPolicy, key: ScopedUrl, now: SimTime, cache: &mut CacheStore) {
    let Some(meta) = cache.peek(key).map(|e| e.meta) else {
        return;
    };
    p.on_reply_200(key, meta, None, now, cache);
}

#[expect(
    clippy::disallowed_methods,
    reason = "plant: the proxy's 304 step, UFCS"
)]
fn fetch_bypass_ufcs(p: &mut ProxyPolicy, key: ScopedUrl, now: SimTime, c: &mut CacheStore) {
    ProxyPolicy::on_reply_304(p, key, None, now, c);
}

#[expect(clippy::disallowed_methods, reason = "plant: the origin's write step")]
fn origin_bypass(s: &mut ServerConsistency, url: Url, now: SimTime) {
    s.on_modify(url, now);
}

#[expect(
    clippy::disallowed_methods,
    reason = "plant: the origin's expiry, UFCS"
)]
fn origin_bypass_ufcs(s: &mut ServerConsistency, now: SimTime) {
    ServerConsistency::expire_pending(s, now);
}

#[expect(clippy::disallowed_methods, reason = "plant: a blocking dial")]
fn blocking_dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    TcpStream::connect(addr)
}

#[expect(clippy::disallowed_methods, reason = "plant: a blocking write, UFCS")]
fn blocking_write(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    std::io::Write::write_all(stream, bytes)
}

#[expect(clippy::disallowed_types, reason = "plant: shared role state")]
struct Shared(std::sync::Mutex<u64>);

#[expect(
    clippy::disallowed_methods,
    reason = "plant: a role's own clock, aliased"
)]
fn own_clock() -> wcc_types::WallClock {
    use wcc_types::WallClock as Clock;
    Clock::start()
}

#[expect(clippy::disallowed_types, reason = "plant: an ad-hoc counter")]
static PLANTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[expect(
    clippy::disallowed_types,
    reason = "plant: an ad-hoc counter, raw name"
)]
static COUNT: std::sync::atomic::r#AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
