//! The `wcc bench serve` stress harness: thousands of concurrent
//! keep-alive connections against an origin+proxy pair.
//!
//! The client side is its own readiness reactor (one [`Poller`], one
//! non-blocking socket per simulated browser) so a single bench process
//! can hold 10k+ connections. The serving side runs either
//!
//! * **in-process** — a [`NetOrigin`] + [`NetProxy`] in this process,
//!   when the file-descriptor budget allows (each connection costs two
//!   fds in-process: the client end and the proxy end), or
//! * **out-of-process** — a spawned `wcc serve --role pair` daemon, so
//!   client and server each stay inside `RLIMIT_NOFILE`. The daemon's
//!   listening addresses are handed back through a `--port-file`.
//!
//! Every reply is audited client-side for *stale serves*: a `200` whose
//! `Last-Modified` is older than one this client already observed for
//! the same document, or older than a write the harness knows completed
//! (origin acked every invalidation), counts as stale — the paper's
//! strong-consistency invariant, checked from the browser's seat.
//!
//! The soak mode (`restart: true`, in-process only) kills the origin
//! mid-run and restarts it on the same port in recovery mode, exercising
//! the §5 crash-recovery path end-to-end: the proxy's channel reconnect,
//! the bulk `INVALIDATE <server>` barrage, and the ack that completes
//! recovery — while the audit keeps watching for stale serves.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;
use wcc_core::ProtocolConfig;
use wcc_net::{check_in, NetOrigin, NetProxy, OriginConfig};
use wcc_obs::Histogram;
use wcc_proto::{
    decode_frame, encode, GetRequest, HttpMsg, HttpMsgRef, ReplyStatusRef, RequestId, WireError,
};
use wcc_reactor::{max_open_files, Interest, Poller, RecvBuf, SendBuf};
use wcc_types::{ByteSize, ClientId, ServerId, SimTime, Url, WallClock};

/// Shape of one serve-bench run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Concurrent keep-alive client connections.
    pub connections: usize,
    /// Requests each connection issues (ignored when `soak_secs` is set).
    pub requests_per_conn: u64,
    /// Documents at the origin.
    pub docs: u64,
    /// Consistency protocol for the pair.
    pub protocol: ProtocolConfig,
    /// Run for this many wall seconds instead of a fixed request count.
    pub soak_secs: Option<u64>,
    /// Kill and restart the origin mid-run (in-process mode only),
    /// asserting §5 recovery and auditing for stale serves after it.
    pub restart: bool,
    /// Daemon binary for out-of-process mode (`wcc`); `None` forces
    /// in-process serving regardless of the fd budget.
    pub exe: Option<PathBuf>,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            connections: 64,
            requests_per_conn: 16,
            docs: 64,
            protocol: ProtocolConfig::new(wcc_core::ProtocolKind::Invalidation),
            soak_secs: None,
            restart: false,
            exe: None,
        }
    }
}

/// What one serve-bench run measured.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Connections the bench drove.
    pub connections: usize,
    /// Replies received (and audited).
    pub requests: u64,
    /// Connections dropped mid-run (reset/EOF before their quota; each
    /// reconnect increments this once).
    pub dropped: u64,
    /// Stale serves observed by the client-side audit. Must be zero.
    pub stale: u64,
    /// Whether the serving side ran out-of-process.
    pub external: bool,
    /// `restart` runs: origin recovery completed (`wcc_recovery_complete`
    /// went back to 1 after the mid-run kill). `true` when no restart was
    /// requested.
    pub recovered: bool,
    /// Per-request wall latency, microseconds.
    pub latency: Histogram,
    /// Whole-run wall time, milliseconds.
    pub wall_ms: u64,
}

impl ServeBenchReport {
    /// Replies per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            return 0.0;
        }
        self.requests as f64 / (self.wall_ms as f64 / 1_000.0)
    }

    /// The `serve-stats.json` document CI archives and gates on.
    pub fn to_json(&self) -> String {
        let q = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"wcc-serve-stats/1\",\n",
                "  \"connections\": {},\n",
                "  \"requests\": {},\n",
                "  \"dropped\": {},\n",
                "  \"stale\": {},\n",
                "  \"external\": {},\n",
                "  \"recovered\": {},\n",
                "  \"p50_us\": {},\n",
                "  \"p90_us\": {},\n",
                "  \"p99_us\": {},\n",
                "  \"p999_us\": {},\n",
                "  \"max_us\": {},\n",
                "  \"wall_ms\": {},\n",
                "  \"requests_per_sec\": {:.1}\n",
                "}}\n"
            ),
            self.connections,
            self.requests,
            self.dropped,
            self.stale,
            self.external,
            self.recovered,
            q(self.latency.p50()),
            q(self.latency.p90()),
            q(self.latency.p99()),
            q(self.latency.p999()),
            q(self.latency.max()),
            self.wall_ms,
            self.requests_per_sec(),
        )
    }
}

/// The serving side of a bench run.
#[allow(clippy::large_enum_variant)] // one instance per run; boxing buys nothing
enum Server {
    InProcess {
        /// `Option` so the soak can drop (crash) the origin and restart
        /// it on the same port.
        origin: Option<NetOrigin>,
        proxy: NetProxy,
        config: OriginConfig,
    },
    External {
        child: std::process::Child,
        client_addr: SocketAddr,
    },
}

impl Server {
    fn client_addr(&self) -> SocketAddr {
        match self {
            Server::InProcess { proxy, .. } => proxy.client_addr(),
            Server::External { client_addr, .. } => *client_addr,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Server::External { child, .. } = self {
            // Graceful first (drains in-flight replies), then reap.
            let _ = wcc_reactor::send_signal(child.id() as i32, wcc_reactor::SIGTERM);
            for _ in 0..100 {
                match child.try_wait() {
                    Ok(Some(_)) => return,
                    Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                    Err(_) => break,
                }
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_server(cfg: &ServeBenchConfig) -> std::io::Result<Server> {
    let origin_config = OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); cfg.docs.max(1) as usize],
        protocol: cfg.protocol.clone(),
        doc_scale: 100,
        inval_batch: None,
    };
    // Two fds per connection in-process (client end + proxy end), plus
    // listeners, pools, channels and stdio.
    let need = cfg.connections as u64 * 2 + 256;
    let fits = max_open_files().is_none_or(|limit| need <= limit);
    if fits || cfg.exe.is_none() {
        let origin = NetOrigin::spawn(origin_config.clone())?;
        let proxy = NetProxy::spawn(origin.addr(), &cfg.protocol, 0, 1, ByteSize::from_mib(64))?;
        return Ok(Server::InProcess {
            origin: Some(origin),
            proxy,
            config: origin_config,
        });
    }

    // Split client and daemon across processes so each side stays inside
    // RLIMIT_NOFILE.
    let exe = cfg.exe.clone().expect("checked above");
    let dir = std::env::temp_dir();
    let port_file = dir.join(format!("wcc-serve-ports-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let child = std::process::Command::new(exe)
        .arg("serve")
        .arg("--role")
        .arg("pair")
        .arg("--docs")
        .arg(cfg.docs.to_string())
        .arg("--port-file")
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .spawn()?;
    let deadline = WallClock::start();
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("client=")) {
                if let Ok(client_addr) = addr.trim().parse() {
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(Server::External { child, client_addr });
                }
            }
        }
        if deadline.has_elapsed(wcc_types::SimDuration::from_secs(20)) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "daemon did not publish its ports",
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One simulated browser: a keep-alive connection issuing `GET`s with a
/// window of one (send, await reply, send the next).
struct BrowserConn {
    stream: TcpStream,
    rbuf: RecvBuf,
    sbuf: SendBuf,
    want_write: bool,
    client: ClientId,
    next_req: RequestId,
    sent: u64,
    got: u64,
    inflight: Option<WallClock>,
    /// The in-flight request was issued after a completed write, so its
    /// reply must observe that write.
    post_write: bool,
    alive: bool,
}

impl BrowserConn {
    fn connect(addr: SocketAddr, idx: usize) -> std::io::Result<BrowserConn> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        Ok(BrowserConn {
            stream,
            rbuf: RecvBuf::new(),
            sbuf: SendBuf::new(),
            want_write: false,
            client: ClientId::from_raw((idx % 16) as u32),
            next_req: RequestId::default(),
            sent: 0,
            got: 0,
            inflight: None,
            post_write: false,
            alive: true,
        })
    }
}

/// The client-side audit state: per-(connection, doc) monotonic floors
/// plus the write floor the soak harness advances after a completed
/// write.
///
/// Floors are keyed by *connection*, not client id: each connection runs
/// a window of one, so its replies are serialized and the protocol
/// guarantees the cache entry it reads never regresses — whereas two
/// connections sharing a `ClientId` can legitimately deliver an older
/// in-flight reply after a newer one. The write floor only binds
/// requests *issued after* the write's invalidations were all acked
/// (`post_write`); a read that started before the write completed may
/// return the old version under any consistent model.
#[derive(Default)]
struct StaleAudit {
    seen: HashMap<(u32, u32), SimTime>,
    written: HashMap<u32, SimTime>,
    stale: u64,
}

impl StaleAudit {
    fn observe(&mut self, conn_idx: usize, doc: u32, modified: SimTime, post_write: bool) {
        let key = (conn_idx as u32, doc);
        let floor = self.seen.get(&key).copied().unwrap_or(SimTime::ZERO);
        let write_floor = self.written.get(&doc).copied().unwrap_or(SimTime::ZERO);
        if modified < floor || (post_write && modified < write_floor) {
            self.stale += 1;
        }
        if modified > floor {
            self.seen.insert(key, modified);
        }
    }

    /// Whether writes have happened — requests issued from now on must
    /// observe them.
    fn write_armed(&self) -> bool {
        !self.written.is_empty()
    }
}

/// Runs one serve bench.
///
/// # Errors
///
/// Propagates socket and process-spawn failures; a clean run with
/// dropped connections still returns `Ok` (the report carries the count).
///
/// # Panics
///
/// Panics if `restart` is requested in out-of-process mode (the harness
/// needs the origin handle to restart it).
pub fn run(cfg: &ServeBenchConfig) -> std::io::Result<ServeBenchReport> {
    let mut server = spawn_server(cfg)?;
    let external = matches!(server, Server::External { .. });
    assert!(
        !(cfg.restart && external),
        "restart soak requires in-process serving"
    );
    let addr = server.client_addr();

    let mut poller = Poller::new()?;
    let mut conns: Vec<BrowserConn> = Vec::with_capacity(cfg.connections);
    for idx in 0..cfg.connections {
        let conn = BrowserConn::connect(addr, idx)?;
        {
            use std::os::fd::AsRawFd;
            poller.add(conn.stream.as_raw_fd(), idx as u64, Interest::READ)?;
        }
        conns.push(conn);
    }

    let mut audit = StaleAudit::default();
    let mut latency = Histogram::default();
    let mut events: Vec<wcc_reactor::Event> = Vec::with_capacity(1024);
    let mut dropped = 0u64;
    let mut replies = 0u64;
    let mut recovered = !cfg.restart;
    let mut restart_done = !cfg.restart;
    let docs = cfg.docs.max(1);

    let run_clock = WallClock::start();
    let soak = cfg.soak_secs.map(wcc_types::SimDuration::from_secs);
    let half = cfg
        .soak_secs
        .map_or(wcc_types::SimDuration::from_micros(1), |s| {
            wcc_types::SimDuration::from_secs(s / 2)
        });
    // Hard cap so a wedged run still reports instead of hanging CI.
    let hard_cap = wcc_types::SimDuration::from_secs(cfg.soak_secs.unwrap_or(0) + 240);

    let quota = if soak.is_some() {
        u64::MAX
    } else {
        cfg.requests_per_conn
    };

    // Kick off: every connection sends its first request.
    for (idx, conn) in conns.iter_mut().enumerate() {
        send_next(conn, idx, docs, quota, false, &mut poller);
    }

    loop {
        let all_done = conns
            .iter()
            .all(|c| !c.alive || (c.got >= quota && c.inflight.is_none()));
        let soak_over = soak.is_some_and(|d| run_clock.has_elapsed(d));
        if (soak.is_none() && all_done) || (soak_over && restart_done) {
            break;
        }
        if run_clock.has_elapsed(hard_cap) {
            break;
        }

        // Mid-run crash/restart (§5): kill the origin, restart it on the
        // same port in recovery mode, wait for the bulk-invalidation
        // handshake, then complete a write and keep auditing.
        if !restart_done && run_clock.has_elapsed(half) {
            restart_done = true;
            if let Server::InProcess { origin, config, .. } = &mut server {
                if let Some(old) = origin.take() {
                    let origin_addr = old.addr();
                    // The "crash": the old origin's threads wind down and
                    // its listener releases the port.
                    drop(old);
                    let fresh = NetOrigin::spawn_at(origin_addr, config.clone(), true)?;
                    recovered = fresh.wait_recovery_complete(Duration::from_secs(30));
                    if recovered {
                        // A write completing after recovery proves the tree
                        // is consistent again; the audit holds it to that.
                        let at = SimTime::from_secs(3_600);
                        let sent = check_in(origin_addr, Url::new(ServerId::new(0), 0), at);
                        // Fire-and-forget: until the origin has read it,
                        // "writes complete" is vacuously true.
                        let asked = WallClock::start();
                        let limit = wcc_types::SimDuration::from_secs(10);
                        while fresh.snapshot().notifies == 0 && !asked.has_elapsed(limit) {
                            std::thread::yield_now();
                        }
                        if sent.is_ok() && fresh.wait_writes_complete(Duration::from_secs(10)) {
                            audit.written.insert(0, at);
                        }
                    }
                    *origin = Some(fresh);
                }
            }
        }

        if poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .is_err()
        {
            break;
        }
        for ev in events.iter().copied() {
            let idx = ev.token as usize;
            if idx >= conns.len() {
                continue;
            }
            if ev.writable {
                flush_conn(&mut conns[idx], idx, &mut poller);
            }
            if ev.readable || ev.error {
                drive_browser(
                    &mut conns[idx],
                    idx,
                    docs,
                    quota,
                    &mut poller,
                    &mut audit,
                    &mut latency,
                    &mut replies,
                );
            }
            // A connection the server dropped reconnects once per event
            // round and resumes its quota.
            if !conns[idx].alive {
                dropped += 1;
                let armed = audit.write_armed();
                reconnect(&mut conns[idx], idx, addr, docs, quota, armed, &mut poller);
            }
        }
    }

    let wall_ms = run_clock.elapsed().as_micros() / 1_000;
    drop(server);
    Ok(ServeBenchReport {
        connections: cfg.connections,
        requests: replies,
        dropped,
        stale: audit.stale,
        external,
        recovered,
        latency,
        wall_ms,
    })
}

fn send_next(
    conn: &mut BrowserConn,
    idx: usize,
    docs: u64,
    quota: u64,
    post_write: bool,
    poller: &mut Poller,
) {
    if !conn.alive || conn.inflight.is_some() || conn.sent >= quota {
        return;
    }
    conn.post_write = post_write;
    let doc = ((idx as u64).wrapping_mul(31).wrapping_add(conn.sent) % docs) as u32;
    let req = conn.next_req;
    conn.next_req = conn.next_req.next();
    let get = HttpMsg::Get(GetRequest {
        req,
        url: Url::new(ServerId::new(0), doc),
        client: conn.client,
        ims: None,
        issued_at: SimTime::from_secs(1),
        cache_hits: 0,
    });
    conn.sbuf.push_bytes(&encode(&get));
    conn.inflight = Some(WallClock::start());
    conn.sent += 1;
    flush_conn(conn, idx, poller);
}

fn flush_conn(conn: &mut BrowserConn, idx: usize, poller: &mut Poller) {
    use std::os::fd::AsRawFd;
    if !conn.alive {
        return;
    }
    match conn.sbuf.flush(&mut conn.stream) {
        Ok(true) => {
            if conn.want_write {
                conn.want_write = false;
                let _ = poller.modify(conn.stream.as_raw_fd(), idx as u64, Interest::READ);
            }
        }
        Ok(false) => {
            if !conn.want_write {
                conn.want_write = true;
                let _ = poller.modify(conn.stream.as_raw_fd(), idx as u64, Interest::READ_WRITE);
            }
        }
        Err(_) => kill_conn(conn, poller),
    }
}

fn kill_conn(conn: &mut BrowserConn, poller: &mut Poller) {
    use std::os::fd::AsRawFd;
    if conn.alive {
        let _ = poller.delete(conn.stream.as_raw_fd());
        conn.alive = false;
    }
}

fn reconnect(
    conn: &mut BrowserConn,
    idx: usize,
    addr: SocketAddr,
    docs: u64,
    quota: u64,
    post_write: bool,
    poller: &mut Poller,
) {
    use std::os::fd::AsRawFd;
    let Ok(mut fresh) = BrowserConn::connect(addr, idx) else {
        return; // next event round retries
    };
    fresh.sent = conn.sent;
    fresh.got = conn.got;
    fresh.next_req = conn.next_req;
    if poller
        .add(fresh.stream.as_raw_fd(), idx as u64, Interest::READ)
        .is_err()
    {
        return;
    }
    *conn = fresh;
    send_next(conn, idx, docs, quota, post_write, poller);
}

#[allow(clippy::too_many_arguments)]
fn drive_browser(
    conn: &mut BrowserConn,
    idx: usize,
    docs: u64,
    quota: u64,
    poller: &mut Poller,
    audit: &mut StaleAudit,
    latency: &mut Histogram,
    replies: &mut u64,
) {
    if !conn.alive {
        return;
    }
    // Pull everything available.
    let mut eof = false;
    loop {
        let mut chunk = [0u8; 8192];
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => conn.rbuf.push_bytes(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                kill_conn(conn, poller);
                return;
            }
        }
    }
    loop {
        match decode_frame(conn.rbuf.data(), eof) {
            Ok(None) => break,
            Err(WireError::Closed) | Err(_) => {
                kill_conn(conn, poller);
                return;
            }
            Ok(Some((msg, used))) => {
                if let HttpMsgRef::Reply(reply) = &msg {
                    if let ReplyStatusRef::Ok { meta, .. } = reply.status {
                        let doc = reply.url.doc();
                        audit.observe(idx, doc, meta.last_modified(), conn.post_write);
                    }
                    if let Some(clock) = conn.inflight.take() {
                        latency.record(clock.elapsed().as_micros());
                    }
                    conn.got += 1;
                    *replies += 1;
                } else {
                    kill_conn(conn, poller);
                    return;
                }
                conn.rbuf.consume(used);
                let armed = audit.write_armed();
                send_next(conn, idx, docs, quota, armed, poller);
            }
        }
    }
    if eof {
        kill_conn(conn, poller);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_in_process_bench_is_clean() {
        let cfg = ServeBenchConfig {
            connections: 24,
            requests_per_conn: 6,
            docs: 16,
            ..ServeBenchConfig::default()
        };
        let report = run(&cfg).expect("bench runs");
        assert_eq!(report.requests, 24 * 6);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.stale, 0);
        assert!(!report.external);
        assert!(report.recovered);
        assert_eq!(report.latency.count(), 24 * 6);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"wcc-serve-stats/1\""));
        assert!(json.contains("\"dropped\": 0"));
    }

    #[test]
    fn restart_recovery_soak_observes_no_stale_serves() {
        let cfg = ServeBenchConfig {
            connections: 16,
            requests_per_conn: 0,
            docs: 8,
            soak_secs: Some(2),
            restart: true,
            ..ServeBenchConfig::default()
        };
        let report = run(&cfg).expect("soak runs");
        assert!(report.recovered, "recovery did not complete");
        assert_eq!(report.stale, 0, "stale serves observed");
        assert!(report.requests > 0);
    }
}
