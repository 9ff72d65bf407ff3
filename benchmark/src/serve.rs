//! The serve-tier workloads: an in-process `NetOrigin` + `NetProxy` pair on
//! loopback (no real link), driven by a closed-loop load generator —
//! closed because a proxy's callers each wait for their reply.
//!
//! Readers hold keep-alive connections with a fixed pipeline window and
//! send the next request only when a reply arrives. `serve-mixed` adds a
//! writer at a fixed rate that, after each write, probes the written
//! document until the new version is visible. Every reply is checked: it
//! must answer the oldest request in flight on its connection, for that
//! request's document and client, and must not carry a version older than
//! one this generator had already seen for the key when the request left.

use crate::affinity;
use crate::calib::{Bracketed, Calibrator};
use crate::procfs::{self, GroupSample};
use crate::spans::SpanLog;
use crate::stats::ExactCounts;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{NetOrigin, NetProxy, NetProxyCounters, OriginConfig, OriginSnapshot};
use wcc_proto::{
    decode_frame, encode, FrameReader, GetRequest, HttpMsg, HttpMsgRef, ReplyStatusRef, RequestId,
};
use wcc_reactor::{Event, Interest, Poller, RecvBuf, SendBuf};
use wcc_traces::Zipf;
use wcc_types::{ByteSize, ClientId, ServerId, SimTime, Url};

/// Requests each reader connection keeps in flight.
pub const WINDOW: usize = 8;
/// Proxy cache capacity.
pub const CACHE: ByteSize = ByteSize::from_mib(64);
/// Accounted size of every document.
pub const DOC_SIZE: ByteSize = ByteSize::from_kib(8);
/// Storage scale of origin payloads (the paper's 100×).
pub const DOC_SCALE: u64 = 100;
/// A request or write with no valid outcome within this long has failed.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// One request in this many is traced when the ledger is on.
pub const SPAN_SAMPLE: u64 = 64;
/// Logical time carried by every read (leases are infinite under
/// invalidation, so it only has to be positive).
const READ_AT: SimTime = SimTime::from_secs(1);
/// Logical time of write `k` is `WRITE_BASE + k` µs: above every initial
/// version and strictly increasing.
const WRITE_BASE: u64 = 10_000_000;

const SERVER: ServerId = ServerId::new(0);

/// What distinguishes the serve workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    pub docs: u32,
    /// Client ids readers draw from; the writer's probe uses id `clients`.
    pub clients: u32,
    /// Zipf exponent over documents; `None` is uniform.
    pub doc_zipf: Option<f64>,
    pub writes_per_s: u32,
    /// Stream requests issued in set-up to warm the proxy cache (`0`:
    /// fetch every key exactly once instead).
    pub warm_requests: u64,
    /// The run is invalid if `net.proxy.hit_ratio` over the timed phase
    /// leaves this range (guards workload drift).
    pub hit_ratio: (f64, f64),
}

/// 64 docs × 16 clients × 8 KiB = 8 MiB ≪ the 64 MiB cache: every request
/// hits, the origin idles, per-message cost is everything.
pub const SERVE_HIT: ServeSpec = ServeSpec {
    name: "serve-hit",
    docs: 64,
    clients: 16,
    doc_zipf: None,
    writes_per_s: 0,
    warm_requests: 0,
    hit_ratio: (0.99, 1.0),
};

/// 1 024 docs × 64 clients × 8 KiB = 512 MiB against the 64 MiB cache,
/// Zipf(0.85) documents, 50 writes/s: misses, evictions and the
/// invalidation channel do the work `serve-hit` never touches.
pub const SERVE_MIXED: ServeSpec = ServeSpec {
    name: "serve-mixed",
    docs: 1024,
    clients: 64,
    doc_zipf: Some(0.85),
    writes_per_s: 50,
    warm_requests: 24_000,
    hit_ratio: (0.30, 0.60),
};

/// Reader connections: `clamp(nproc, 2, 4)`.
pub fn reader_connections(nproc: usize) -> usize {
    nproc.clamp(2, 4)
}

/// Generator threads never exceed `nproc`: the writer takes one when the
/// workload has writes, readers share the rest.
pub fn reader_threads(nproc: usize, has_writer: bool) -> usize {
    let spare = nproc.saturating_sub(usize::from(has_writer)).max(1);
    spare.min(reader_connections(nproc))
}

/// The seeded request stream of one lane (a connection, the warm-up, or
/// the writer): `(document, client)` pairs.
#[derive(Debug, Clone)]
pub struct KeyStream {
    rng: StdRng,
    zipf: Option<Zipf>,
    docs: u32,
    clients: u32,
}

/// Lane of the warm-up stream; connections use lanes `0..`.
pub const WARM_LANE: u64 = 1 << 32;
/// Lane of the writer's document stream.
pub const WRITE_LANE: u64 = 2 << 32;

impl KeyStream {
    pub fn new(spec: &ServeSpec, seed: u64, lane: u64) -> KeyStream {
        KeyStream {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane),
            zipf: spec.doc_zipf.map(|s| Zipf::new(spec.docs as usize, s)),
            docs: spec.docs,
            clients: spec.clients,
        }
    }

    pub fn next_key(&mut self) -> (u32, u32) {
        let doc = match &self.zipf {
            Some(z) => z.sample(&mut self.rng) as u32,
            None => self.rng.gen_range(0..self.docs),
        };
        (doc, self.rng.gen_range(0..self.clients))
    }
}

/// FNV-1a over the first `n` keys of every reader lane and the writer
/// lane: the generator-determinism fingerprint.
pub fn stream_hash(spec: &ServeSpec, seed: u64, lanes: usize, n: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let lane_ids = (0..lanes as u64).chain([WARM_LANE, WRITE_LANE]);
    for lane in lane_ids {
        let mut stream = KeyStream::new(spec, seed, lane);
        for _ in 0..n {
            let (doc, client) = stream.next_key();
            for byte in doc.to_le_bytes().into_iter().chain(client.to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// The keys fetched during set-up, dealt round-robin to the connections.
fn warm_keys(spec: &ServeSpec, seed: u64) -> Vec<(u32, u32)> {
    if spec.warm_requests == 0 {
        (0..spec.docs)
            .flat_map(|d| (0..spec.clients).map(move |c| (d, c)))
            .collect()
    } else {
        let mut stream = KeyStream::new(spec, seed, WARM_LANE);
        (0..spec.warm_requests).map(|_| stream.next_key()).collect()
    }
}

/// A running origin + proxy and the threads each owns.
pub struct Pair {
    // Field order is drop order: the proxy goes first so its channel to
    // the origin closes cleanly.
    pub proxy: NetProxy,
    pub origin: NetOrigin,
    pub proxy_tids: Vec<u32>,
    pub origin_tids: Vec<u32>,
}

impl Pair {
    pub fn spawn(spec: &ServeSpec) -> std::io::Result<Pair> {
        let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
        let (origin, origin_tids) = procfs::threads_spawned_by(|| {
            NetOrigin::spawn(OriginConfig {
                server: SERVER,
                doc_sizes: vec![DOC_SIZE; spec.docs as usize],
                protocol: protocol.clone(),
                doc_scale: DOC_SCALE,
                inval_batch: None,
            })
        });
        let origin = origin?;
        let (proxy, proxy_tids) =
            procfs::threads_spawned_by(|| NetProxy::spawn(origin.addr(), &protocol, 0, 1, CACHE));
        Ok(Pair {
            proxy: proxy?,
            origin,
            proxy_tids,
            origin_tids,
        })
    }

    pub fn server_tids(&self) -> Vec<u32> {
        [self.origin_tids.as_slice(), &self.proxy_tids].concat()
    }
}

fn get_msg(req: RequestId, doc: u32, client: u32) -> HttpMsg {
    HttpMsg::Get(GetRequest {
        req,
        url: Url::new(SERVER, doc),
        client: ClientId::from_raw(client),
        ims: None,
        issued_at: READ_AT,
        cache_hits: 0,
    })
}

/// Why operations failed, by kind. All of them feed `failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// No valid reply within [`DEADLINE`].
    pub late: u64,
    /// A version older than one already seen when the request left.
    pub stale: u64,
    /// Reply for the wrong request, document or client, or not a `200`
    /// of [`DOC_SIZE`].
    pub mismatched: u64,
    /// Requests in flight on a connection that dropped or sent garbage.
    pub dropped: u64,
    /// Writes not visible within [`DEADLINE`].
    pub invisible_writes: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.late + self.stale + self.mismatched + self.dropped + self.invisible_writes
    }

    fn add(&mut self, other: &Failures) {
        self.late += other.late;
        self.stale += other.stale;
        self.mismatched += other.mismatched;
        self.dropped += other.dropped;
        self.invisible_writes += other.invisible_writes;
    }
}

struct InFlight {
    req: RequestId,
    doc: u32,
    client: u32,
    sent: Instant,
    /// Highest version seen for this key when the request left.
    floor: u64,
    /// Set when the ledger traces this request.
    traced: Option<Traced>,
}

/// The send-side spans of a traced request, `(start, end)` in µs.
#[derive(Clone, Copy)]
struct Traced {
    encode: (u64, u64),
    /// Filled in by the flush that puts the request on the wire.
    flush: Option<(u64, u64)>,
}

struct Conn {
    stream: TcpStream,
    rbuf: RecvBuf,
    sbuf: SendBuf,
    want_write: bool,
    inflight: VecDeque<InFlight>,
    next_req: RequestId,
    alive: bool,
}

/// One reader thread's closed loop over its connections.
pub struct Reader {
    poller: Poller,
    conns: Vec<Conn>,
    events: Vec<Event>,
    /// Highest version seen per `(doc, client)`.
    seen: HashMap<(u32, u32), u64>,
    pub failures: Failures,
    pub spans: SpanLog,
    sent_total: u64,
    /// First connection's lane, so request ids in spans are unique.
    lane0: usize,
}

impl Reader {
    pub fn connect(
        addr: SocketAddr,
        conns: usize,
        lane0: usize,
        epoch: Instant,
    ) -> std::io::Result<Reader> {
        let mut poller = Poller::new()?;
        let mut list = Vec::with_capacity(conns);
        for idx in 0..conns {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.add(stream.as_raw_fd(), idx as u64, Interest::READ)?;
            list.push(Conn {
                stream,
                rbuf: RecvBuf::new(),
                sbuf: SendBuf::new(),
                want_write: false,
                inflight: VecDeque::with_capacity(WINDOW),
                next_req: RequestId::default(),
                alive: true,
            });
        }
        Ok(Reader {
            poller,
            conns: list,
            events: Vec::with_capacity(16),
            seen: HashMap::new(),
            failures: Failures::default(),
            spans: SpanLog::new(epoch),
            sent_total: 0,
            lane0,
        })
    }

    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    fn send(&mut self, ci: usize, (doc, client): (u32, u32), ledger: bool) {
        let sample = ledger && self.sent_total.is_multiple_of(SPAN_SAMPLE);
        self.sent_total += 1;
        let floor = self.seen.get(&(doc, client)).copied().unwrap_or(0);
        let conn = &mut self.conns[ci];
        let req = conn.next_req;
        conn.next_req = req.next();
        let t0 = sample.then(|| self.spans.now_us());
        let bytes = encode(&get_msg(req, doc, client));
        let traced = t0.map(|t0| Traced {
            encode: (t0, self.spans.now_us()),
            flush: None,
        });
        conn.sbuf.push_bytes(&bytes);
        conn.inflight.push_back(InFlight {
            req,
            doc,
            client,
            sent: Instant::now(),
            floor,
            traced,
        });
    }

    fn flush(&mut self, ci: usize, ledger: bool) {
        let conn = &mut self.conns[ci];
        if !conn.alive || (conn.sbuf.is_empty() && !conn.want_write) {
            return;
        }
        let f0 = ledger.then(|| self.spans.now_us());
        let flushed = conn.sbuf.flush(&mut conn.stream);
        if let Some(f0) = f0 {
            let f1 = self.spans.now_us();
            for traced in conn.inflight.iter_mut().filter_map(|r| r.traced.as_mut()) {
                traced.flush.get_or_insert((f0, f1));
            }
        }
        let fd = conn.stream.as_raw_fd();
        match flushed {
            Ok(done) => {
                if done == conn.want_write {
                    conn.want_write = !done;
                    let interest = if done {
                        Interest::READ
                    } else {
                        Interest::READ_WRITE
                    };
                    let _ = self.poller.modify(fd, ci as u64, interest);
                }
            }
            Err(_) => self.kill(ci),
        }
    }

    /// Gives up on a connection; everything it had in flight has failed.
    fn abandon(&mut self, ci: usize, why: fn(&mut Failures) -> &mut u64) {
        let conn = &mut self.conns[ci];
        if conn.alive {
            conn.alive = false;
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            *why(&mut self.failures) += conn.inflight.len() as u64;
            conn.inflight.clear();
        }
    }

    /// The connection dropped or sent something that is not a reply.
    fn kill(&mut self, ci: usize) {
        self.abandon(ci, |f| &mut f.dropped);
    }

    /// Reads and checks every complete reply on `ci`; valid ones go to
    /// `on_reply(latency_us)`, each freeing a window slot that `next_key`
    /// may refill.
    fn drain_replies(
        &mut self,
        ci: usize,
        ledger: bool,
        next_key: &mut dyn FnMut(usize) -> Option<(u32, u32)>,
        on_reply: &mut dyn FnMut(u32),
    ) {
        let mut eof = false;
        let mut read_span = (0, 0);
        loop {
            let r0 = ledger.then(|| self.spans.now_us());
            let conn = &mut self.conns[ci];
            let got = conn.rbuf.fill(&mut conn.stream);
            if let Some(r0) = r0 {
                read_span = (r0, self.spans.now_us());
            }
            match got {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.kill(ci),
            }
        }
        loop {
            let d0 = ledger.then(|| self.spans.now_us());
            let conn = &mut self.conns[ci];
            let (used, url, client, req, version, ok) = match decode_frame(conn.rbuf.data(), eof) {
                Ok(None) => break,
                Ok(Some((HttpMsgRef::Reply(reply), used))) => {
                    let (version, ok) = match reply.status {
                        ReplyStatusRef::Ok { meta, payload } => (
                            meta.last_modified().as_micros(),
                            meta.size() == DOC_SIZE && payload.len() as u64 == DOC_SIZE.as_u64(),
                        ),
                        ReplyStatusRef::NotModified => (0, false),
                    };
                    (used, reply.url, reply.client, reply.req, version, ok)
                }
                Ok(Some(_)) | Err(_) => return self.kill(ci),
            };
            let arrival = Instant::now();
            conn.rbuf.consume(used);
            let Some(sent) = conn.inflight.pop_front() else {
                return self.kill(ci); // a reply nobody asked for
            };
            let latency = arrival.duration_since(sent.sent);
            let key = (sent.doc, sent.client);
            if !ok
                || req != sent.req
                || url != Url::new(SERVER, sent.doc)
                || client != ClientId::from_raw(sent.client)
            {
                self.failures.mismatched += 1;
            } else if version < sent.floor {
                self.failures.stale += 1;
            } else if latency > DEADLINE {
                self.failures.late += 1;
            } else {
                on_reply(latency.as_micros() as u32);
            }
            let seen = self.seen.entry(key).or_insert(0);
            *seen = (*seen).max(version);
            if let (Some(d0), Some(Traced { encode, flush })) = (d0, sent.traced) {
                let d1 = self.spans.now_us();
                let id = ((self.lane0 + ci) as u64) << 48 | sent.req.get();
                let flush = flush.unwrap_or((encode.1, encode.1));
                let parent = self.spans.record("bench.request", encode.0, d1, 0, id);
                self.spans
                    .record("bench.encode", encode.0, encode.1, parent, id);
                self.spans
                    .record("bench.flush", flush.0, flush.1, parent, id);
                // Flush end → the read that brought the reply: the server's
                // part (plus the loopback and any client-side queueing).
                self.spans
                    .record("bench.wait", flush.1, read_span.0.max(flush.1), parent, id);
                self.spans.record(
                    "bench.read",
                    read_span.0.max(flush.1),
                    read_span.1.max(flush.1),
                    parent,
                    id,
                );
                self.spans.record("bench.decode", d0, d1, parent, id);
            }
            if let Some(key) = next_key(ci) {
                self.send(ci, key, ledger);
            }
        }
        if eof {
            return self.kill(ci);
        }
        self.flush(ci, ledger);
    }

    /// The closed loop: keeps every window full from `next_key` until it
    /// runs dry and the last reply is in. With `ledger` set, one request
    /// in [`SPAN_SAMPLE`] is traced.
    pub fn drive(
        &mut self,
        next_key: &mut dyn FnMut(usize) -> Option<(u32, u32)>,
        ledger: bool,
        on_reply: &mut dyn FnMut(u32),
    ) {
        for ci in 0..self.conns.len() {
            while self.conns[ci].alive && self.conns[ci].inflight.len() < WINDOW {
                let Some(key) = next_key(ci) else { break };
                self.send(ci, key, ledger);
            }
            self.flush(ci, ledger);
        }
        while self.conns.iter().any(|c| c.alive && !c.inflight.is_empty()) {
            let mut events = std::mem::take(&mut self.events);
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .is_err()
            {
                break;
            }
            for ev in &events {
                let ci = ev.token as usize;
                if ev.writable {
                    self.flush(ci, ledger);
                }
                if ev.readable || ev.error {
                    self.drain_replies(ci, ledger, next_key, on_reply);
                }
            }
            self.events = events;
            // A stuck connection must not hang the run: past twice the
            // deadline its requests have failed anyway.
            let now = Instant::now();
            for ci in 0..self.conns.len() {
                let stuck = self.conns[ci]
                    .inflight
                    .front()
                    .is_some_and(|r| now.duration_since(r.sent) > DEADLINE * 2);
                if stuck {
                    self.abandon(ci, |f| &mut f.late);
                }
            }
        }
    }

    /// Set-up: fetches `keys` once each, dealt round-robin.
    pub fn warm(&mut self, keys: &[(u32, u32)]) {
        let n = self.conns.len();
        let mut cursors: Vec<usize> = (0..n).collect();
        self.drive(
            &mut |ci| {
                let key = keys.get(cursors[ci]).copied();
                cursors[ci] += n;
                key
            },
            false,
            &mut |_| {},
        );
    }
}

/// One write as the writer saw it.
#[derive(Debug, Clone, Copy)]
pub struct WriteSample {
    /// When the `Notify` was written.
    pub written: Instant,
    /// `Notify` written → first probe reply with the new version.
    pub visible: Result<Duration, WriteFailure>,
    /// Probe requests this write cost (they are requests too).
    pub probes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFailure {
    /// Not visible within [`DEADLINE`], or a probe got no valid reply.
    Invisible,
    /// A probe saw a version older than one already seen for the document.
    Stale,
}

/// A blocking window-1 connection to the proxy for the writer's probes.
struct Probe {
    out: TcpStream,
    frames: FrameReader<TcpStream>,
    next_req: RequestId,
}

impl Probe {
    fn connect(addr: SocketAddr) -> std::io::Result<Probe> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        out.set_read_timeout(Some(DEADLINE))?;
        let frames = FrameReader::new(out.try_clone()?);
        Ok(Probe {
            out,
            frames,
            next_req: RequestId::default(),
        })
    }

    /// One GET; the reply's version, or `None` on any invalid outcome.
    fn version(&mut self, doc: u32, client: u32) -> Option<u64> {
        let req = self.next_req;
        self.next_req = req.next();
        self.out
            .write_all(&encode(&get_msg(req, doc, client)))
            .ok()?;
        match self.frames.next_msg() {
            Ok(HttpMsgRef::Reply(reply))
                if reply.req == req
                    && reply.url == Url::new(SERVER, doc)
                    && reply.client == ClientId::from_raw(client) =>
            {
                match reply.status {
                    ReplyStatusRef::Ok { meta, .. } if meta.size() == DOC_SIZE => {
                        Some(meta.last_modified().as_micros())
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// The writer: at a fixed rate, primes its copy of a document, checks the
/// write in on one persistent origin connection, then probes until the
/// new version is visible from the client's seat (the freshness lag of
/// Mao et al.). Runs on its own clock until `stop` is set.
fn writer_loop(
    spec: &ServeSpec,
    seed: u64,
    origin: SocketAddr,
    proxy: SocketAddr,
    stop: &AtomicBool,
) -> std::io::Result<Vec<WriteSample>> {
    let mut notify = TcpStream::connect(origin)?;
    notify.set_nodelay(true)?;
    let mut probe = Probe::connect(proxy)?;
    let mut docs = KeyStream::new(spec, seed, WRITE_LANE);
    let probe_client = spec.clients;
    let interval = Duration::from_secs(1) / spec.writes_per_s;
    let first_due = Instant::now();
    let mut seen: HashMap<u32, u64> = HashMap::new();
    let mut samples = Vec::new();
    for k in 0u32.. {
        std::thread::sleep((first_due + interval * k).saturating_duration_since(Instant::now()));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (doc, _) = docs.next_key();
        let at = WRITE_BASE + u64::from(k);
        let floor = seen.get(&doc).copied().unwrap_or(0);
        let mut probes = 1;
        // Prime: the probe's copy must be cached so the invalidation path,
        // not a cold miss, is what makes the write visible.
        let primed = probe.version(doc, probe_client);
        notify.write_all(&encode(&HttpMsg::Notify {
            url: Url::new(SERVER, doc),
            at: SimTime::from_micros(at),
        }))?;
        let written = Instant::now();
        let mut visible = match primed {
            Some(v) if v >= floor => None,
            Some(_) => Some(Err(WriteFailure::Stale)),
            None => Some(Err(WriteFailure::Invisible)),
        };
        while visible.is_none() {
            probes += 1;
            let version = probe.version(doc, probe_client);
            let lag = written.elapsed();
            visible = match version {
                Some(v) if v >= at && lag <= DEADLINE => Some(Ok(lag)),
                Some(v) if v < floor => Some(Err(WriteFailure::Stale)),
                Some(v) if v < at && lag <= DEADLINE => None,
                _ => Some(Err(WriteFailure::Invisible)),
            };
        }
        seen.insert(doc, at);
        samples.push(WriteSample {
            written,
            visible: visible.expect("loop ends with an outcome"),
            probes,
        });
    }
    Ok(samples)
}

/// Thread-group CPU readings at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Boundary {
    pub origin: GroupSample,
    pub proxy: GroupSample,
    pub client: GroupSample,
}

/// One timed slice, all readers merged.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Wall time the slice's load ran for, with its calibration bracket.
    pub wall: Bracketed,
    /// Whether the ledger was recording.
    pub ledger: bool,
    /// Send→reply time of every valid reply, µs.
    pub latencies: ExactCounts,
    /// Write-visible lags of the writes made during the slice, µs, ascending.
    pub visible: Vec<u32>,
    /// Thread CPU over the slice; `None` when `/proc` is unreadable.
    pub cpu: Option<Boundary>,
}

impl Slice {
    /// Valid replies of the slice.
    pub fn replies(&self) -> f64 {
        self.latencies.len() as f64
    }
}

/// Everything one serve run measured.
pub struct ServeRun {
    /// Normalised seconds, one per set-up repetition.
    pub setup_s: Vec<f64>,
    pub slices: Vec<Slice>,
    /// Reader requests attempted in timed slices (replies + failures).
    pub reader_attempted: u64,
    /// Writes attempted in timed slices, and the probes they cost.
    pub writes_attempted: u64,
    pub write_probes: u64,
    pub failures: Failures,
    pub proxy_before: NetProxyCounters,
    pub proxy_after: NetProxyCounters,
    pub origin_before: OriginSnapshot,
    pub origin_after: OriginSnapshot,
    pub cached_entries: usize,
    pub spans: SpanLog,
    pub reader_threads: usize,
    pub connections: usize,
    /// Whether server and generator threads were pinned to disjoint CPUs.
    pub pinned: bool,
    /// `VmHWM` when the timed phase ended, MiB — before the ledger's
    /// kernels allocate anything.
    pub peak_rss_mib: Option<f64>,
    /// The pair, still running, for the ledger's kernels.
    pub pair: Pair,
}

/// Spawns a pair, connects the readers and warms the cache: one set-up.
fn set_up(
    spec: &ServeSpec,
    seed: u64,
    threads: usize,
    conns: usize,
    epoch: Instant,
    placement: &Placement,
) -> std::io::Result<(Pair, Vec<Reader>)> {
    let pair = Pair::spawn(spec)?;
    placement.pin_server(&pair.server_tids());
    let mut readers = Vec::with_capacity(threads);
    let mut lane = 0;
    for t in 0..threads {
        // Connections dealt as evenly as the thread count allows.
        let share = conns / threads + usize::from(t < conns % threads);
        readers.push(Reader::connect(
            pair.proxy.client_addr(),
            share,
            lane,
            epoch,
        )?);
        lane += share;
    }
    let keys = warm_keys(spec, seed);
    let per = keys.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for (reader, chunk) in readers.iter_mut().zip(keys.chunks(per)) {
            scope.spawn(move || {
                placement.pin_generator();
                reader.warm(chunk)
            });
        }
    });
    Ok((pair, readers))
}

/// Where threads run (see [`affinity`]): the server's threads, and the
/// clock thread whose calibrations gauge the server's CPUs, on one half of
/// the allowed CPUs; the generator's threads on the other. With a single
/// CPU nothing is pinned.
struct Placement {
    all: Vec<usize>,
    split: Option<(Vec<usize>, Vec<usize>)>,
    refused: AtomicBool,
}

impl Placement {
    fn new() -> Placement {
        let all = affinity::allowed_cpus();
        let split = affinity::split_cpus(&all).map(|(s, g)| (s.to_vec(), g.to_vec()));
        Placement {
            all,
            split,
            refused: AtomicBool::new(false),
        }
    }

    fn note(&self, accepted: bool) {
        if !accepted {
            self.refused.store(true, Ordering::Relaxed);
        }
    }

    fn pin_server(&self, tids: &[u32]) {
        if let Some((server, _)) = &self.split {
            self.note(affinity::pin_all(tids, server));
        }
    }

    /// Pins the calling thread with the server (the clock thread).
    fn pin_clock(&self) {
        if let Some((server, _)) = &self.split {
            self.note(affinity::pin(0, server));
        }
    }

    /// Pins the calling thread with the generator.
    fn pin_generator(&self) {
        if let Some((_, generator)) = &self.split {
            self.note(affinity::pin(0, generator));
        }
    }

    /// Lets the calling thread run anywhere again.
    fn release(&self) {
        affinity::pin(0, &self.all);
    }

    fn pinned(&self) -> bool {
        self.split.is_some() && !self.refused.load(Ordering::Relaxed)
    }
}

/// What the clock thread tells the readers about the slice that is
/// starting.
#[derive(Clone, Copy)]
struct SliceOrder {
    end: Instant,
    ledger: bool,
}

/// Runs one serve workload: `setup_reps` set-ups (the last is kept), then
/// `warm_slices` discarded and `slices` timed slices of `slice_len`, each
/// bracketed by a calibration while the load is parked.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    setup_reps: usize,
    warm_slices: usize,
    slices: usize,
    slice_len: Duration,
    trace: bool,
) -> std::io::Result<ServeRun> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let has_writer = spec.writes_per_s > 0;
    let conns = reader_connections(nproc);
    let threads = reader_threads(nproc, has_writer);
    let epoch = Instant::now();
    let mut calib = Calibrator::new();
    let placement = &Placement::new();
    placement.pin_clock();

    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut kept = None;
    let mut before = calib.factor();
    for _ in 0..setup_reps.max(1) {
        drop(kept.take()); // one pair at a time: peak memory is one pair's
        let clock = Instant::now();
        kept = Some(set_up(spec, seed, threads, conns, epoch, placement)?);
        let raw_s = clock.elapsed().as_secs_f64();
        let after = calib.factor();
        setup_s.push(
            Bracketed {
                raw_s,
                before,
                after,
            }
            .normalise(raw_s),
        );
        before = after;
    }
    let (pair, mut readers) = kept.expect("at least one set-up ran");
    let warm_failures: u64 = readers.iter().map(|r| r.failures.total()).sum();
    if warm_failures > 0 {
        return Err(std::io::Error::other(format!(
            "{warm_failures} operations failed while warming the cache"
        )));
    }

    let total = warm_slices + slices;
    let proxy_addr = pair.proxy.client_addr();
    let origin_addr = pair.origin.addr();
    // Readers and the clock thread meet here at both ends of every slice.
    let gate = &Barrier::new(threads + 1);
    let order = &Mutex::new(SliceOrder {
        end: epoch,
        ledger: false,
    });
    let stop_writer = &AtomicBool::new(false);
    // Generator threads stay alive until their CPU counters were last read.
    let sampled = &Barrier::new(threads + usize::from(has_writer) + 1);

    struct ReaderOut {
        latencies: Vec<ExactCounts>,
        failures: Failures,
        spans: SpanLog,
    }

    let mut out_slices: Vec<Slice> = Vec::with_capacity(slices);
    let mut windows: Vec<(Instant, Instant)> = Vec::with_capacity(slices);
    let mut proxy_before = NetProxyCounters::default();
    let mut origin_before = OriginSnapshot::default();
    let (outs, writes) = std::thread::scope(|scope| {
        let ((reader_handles, writer_handle), client_tids) = procfs::threads_spawned_by(|| {
            let mut lane = 0u64;
            let reader_handles: Vec<_> = readers
                .drain(..)
                .map(|mut reader| {
                    let lane0 = lane;
                    lane += reader.connections() as u64;
                    scope.spawn(move || {
                        placement.pin_generator();
                        let mut streams: Vec<KeyStream> = (0..reader.connections() as u64)
                            .map(|c| KeyStream::new(spec, seed, lane0 + c))
                            .collect();
                        let mut latencies = vec![ExactCounts::default(); total];
                        for slice in latencies.iter_mut() {
                            gate.wait();
                            let SliceOrder { end, ledger } = *order.lock().expect("order lock");
                            reader.drive(
                                &mut |ci| (Instant::now() < end).then(|| streams[ci].next_key()),
                                ledger,
                                &mut |latency| slice.record(latency),
                            );
                            gate.wait();
                        }
                        sampled.wait();
                        ReaderOut {
                            latencies,
                            failures: reader.failures,
                            spans: reader.spans,
                        }
                    })
                })
                .collect();
            let writer_handle = has_writer.then(|| {
                scope.spawn(move || {
                    placement.pin_generator();
                    let samples = writer_loop(spec, seed, origin_addr, proxy_addr, stop_writer);
                    sampled.wait();
                    samples
                })
            });
            (reader_handles, writer_handle)
        });

        let sample_cpu = || {
            Some(Boundary {
                origin: procfs::sample_group(&pair.origin_tids)?,
                proxy: procfs::sample_group(&pair.proxy_tids)?,
                client: procfs::sample_group(&client_tids)?,
            })
        };
        let mut before = calib.factor();
        for k in 0..total {
            if k == warm_slices {
                proxy_before = pair.proxy.counters();
                origin_before = pair.origin.snapshot();
            }
            let ledger = trace && k >= warm_slices && (k - warm_slices) % 2 == 1;
            let cpu0 = sample_cpu();
            let start = Instant::now();
            *order.lock().expect("order lock") = SliceOrder {
                end: start + slice_len,
                ledger,
            };
            gate.wait();
            std::thread::sleep(slice_len);
            gate.wait(); // every reader has drained its windows
            let raw_s = start.elapsed().as_secs_f64();
            let cpu1 = sample_cpu();
            let after = calib.factor();
            if k >= warm_slices {
                windows.push((start, start + Duration::from_secs_f64(raw_s)));
                out_slices.push(Slice {
                    wall: Bracketed {
                        raw_s,
                        before,
                        after,
                    },
                    ledger,
                    latencies: ExactCounts::default(),
                    visible: Vec::new(),
                    cpu: cpu0.zip(cpu1).map(|(a, b)| Boundary {
                        origin: b.origin.since(&a.origin),
                        proxy: b.proxy.since(&a.proxy),
                        client: b.client.since(&a.client),
                    }),
                });
            }
            before = after;
        }
        stop_writer.store(true, Ordering::SeqCst);
        sampled.wait();
        let outs: Vec<ReaderOut> = reader_handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        let writes = writer_handle.map(|h| h.join().expect("writer thread panicked"));
        (outs, writes)
    });
    let peak_rss_mib = procfs::peak_rss_mib();
    placement.release();
    let pinned = placement.pinned();
    let proxy_after = pair.proxy.counters();
    let origin_after = pair.origin.snapshot();

    let mut failures = Failures::default();
    let mut spans = SpanLog::new(epoch);
    for out in outs {
        for (slice, got) in out_slices
            .iter_mut()
            .zip(out.latencies.iter().skip(warm_slices))
        {
            slice.latencies.merge(got);
        }
        // Warm-up traffic is validated like the rest: a failure there
        // still fails the run.
        failures.add(&out.failures);
        spans.absorb(out.spans);
    }
    let mut reader_attempted = failures.total();
    for slice in &out_slices {
        reader_attempted += slice.latencies.len();
    }
    let (mut writes_attempted, mut write_probes) = (0, 0);
    for w in writes.transpose()?.unwrap_or_default() {
        // Writes made while the load was parked between slices say nothing
        // about this workload and are not counted.
        let Some(k) = windows
            .iter()
            .position(|(a, b)| (*a..*b).contains(&w.written))
        else {
            continue;
        };
        writes_attempted += 1;
        write_probes += w.probes;
        match w.visible {
            Ok(lag) => out_slices[k].visible.push(lag.as_micros() as u32),
            Err(WriteFailure::Stale) => failures.stale += 1,
            Err(WriteFailure::Invisible) => failures.invisible_writes += 1,
        }
    }
    for slice in &mut out_slices {
        slice.visible.sort_unstable();
    }
    Ok(ServeRun {
        setup_s,
        slices: out_slices,
        reader_attempted,
        writes_attempted,
        write_probes,
        failures,
        proxy_before,
        proxy_after,
        origin_before,
        origin_after,
        cached_entries: pair.proxy.cached_entries(),
        spans,
        reader_threads: threads,
        connections: conns,
        pinned,
        peak_rss_mib,
        pair,
    })
}
