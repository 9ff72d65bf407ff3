//! Layer kernels: a workload's own operation stream replayed against one
//! layer's public API in isolation. A kernel's ns/op times the run's exact
//! op count estimates that layer's share of the run; what no kernel
//! explains is printed as unattributed, not hidden.
//!
//! Operations a few hundred nanoseconds long are timed one call at a time
//! and the clock's own cost ([`timer_overhead_ns`]) is subtracted.

use crate::serve::{KeyStream, ServeSpec, CACHE, DOC_SIZE};
use crate::stats;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use wcc_cache::{CacheStore, Freshness, ReplacementPolicy};
use wcc_core::{ProtocolConfig, ProxyAction, ProxyPolicy, ServerConsistency};
use wcc_httpsim::DeploymentOptions;
use wcc_proto::{decode_frame, encode, HttpMsg};
use wcc_reactor::{Interest, Poller, RecvBuf, SendBuf, Waker};
use wcc_simnet::{Arena, EventQueue, Handle};
use wcc_traces::{ModSchedule, Trace};
use wcc_types::{ByteSize, ClientId, DocMeta, ScopedUrl, ServerId, SimTime, Url};

/// Accumulates per-call timings of one operation kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTimer {
    pub calls: u64,
    nanos: u64,
}

impl OpTimer {
    #[inline]
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let clock = Instant::now();
        let value = f();
        self.nanos += clock.elapsed().as_nanos() as u64;
        self.calls += 1;
        value
    }

    /// Total seconds with the clock's cost removed.
    pub fn seconds(&self, overhead_ns: f64) -> f64 {
        (self.nanos as f64 - self.calls as f64 * overhead_ns).max(0.0) / 1e9
    }

    /// Mean ns per call with the clock's cost removed; 0 with no calls.
    pub fn ns_per_call(&self, overhead_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.seconds(overhead_ns) * 1e9 / self.calls as f64
        }
    }

    pub fn merge(&mut self, other: &OpTimer) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }
}

/// What an [`OpTimer`] reads for an operation that does nothing, ns: the
/// part of every per-call timing that is the clock's, not the operation's.
pub fn timer_overhead_ns() -> f64 {
    let mut timer = OpTimer::default();
    for i in 0..200_000u64 {
        timer.time(|| std::hint::black_box(i));
    }
    timer.nanos as f64 / timer.calls as f64
}

/// The simulator's in-flight events are ~200-byte payloads parked in the
/// arena with three-word handles in the queue.
type Payload = [u64; 25];

/// `EventQueue::schedule/pop` + `Arena::alloc/take` for `events` events
/// with `live` kept in flight and a replay-shaped delay mix: 60 %
/// 0.2–1.2 ms (LAN messages), 30 % 1–4 ms (service times, still inside the
/// 4 ms ring), 10 % 5–300 ms (timers and window steps, through the
/// overflow heap). Returns ns per event.
pub fn queue_ns_per_event(events: u64, live: u64) -> f64 {
    let mut queue: EventQueue<Handle> = EventQueue::new();
    let mut arena: Arena<Payload> = Arena::new();
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut delay = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        match rng % 10 {
            0..=5 => 200 + rng % 1_000,
            6..=8 => 1_000 + rng % 3_000,
            _ => 5_000 + rng % 295_000,
        }
    };
    for i in 0..live.max(1) {
        let handle = arena.alloc([i; 25]);
        queue.schedule(SimTime::from_micros(delay()), handle);
    }
    let clock = Instant::now();
    for _ in 0..events {
        let (at, handle) = queue.pop().expect("the queue never drains");
        let mut payload = arena.take(handle);
        payload[0] = payload[0].wrapping_add(at.as_micros());
        let handle = arena.alloc(std::hint::black_box(payload));
        queue.schedule(SimTime::from_micros(at.as_micros() + delay()), handle);
    }
    clock.elapsed().as_nanos() as f64 / events.max(1) as f64
}

/// One cache operation of a replay, for the cache-only kernel.
#[derive(Debug, Clone, Copy)]
pub enum CacheOp {
    Touch(ScopedUrl, SimTime),
    Insert(ScopedUrl, DocMeta, SimTime, Freshness),
    Refresh(ScopedUrl, Freshness),
    Remove(ScopedUrl),
}

/// Per-call timings of the protocol state machines over one workload.
#[derive(Debug, Clone, Default)]
pub struct CoreTimes {
    pub server_get: OpTimer,
    /// `on_modify` plus the `on_inval_ack`s it causes, per modification.
    pub server_modify: OpTimer,
    /// `on_request`, one call per replayed request.
    pub proxy_request: OpTimer,
    /// `on_reply_200/304` and `on_invalidate`.
    pub proxy_other: OpTimer,
    /// Largest site-list population seen (sampled every 1 024 requests).
    pub sitelist_peak_entries: u64,
    /// The cache operations the proxies performed, per proxy.
    pub cache_ops: Vec<Vec<CacheOp>>,
}

impl CoreTimes {
    pub fn merge(&mut self, other: CoreTimes) {
        self.server_get.merge(&other.server_get);
        self.server_modify.merge(&other.server_modify);
        self.proxy_request.merge(&other.proxy_request);
        self.proxy_other.merge(&other.proxy_other);
        self.sitelist_peak_entries = self.sitelist_peak_entries.max(other.sitelist_peak_entries);
        self.cache_ops.extend(other.cache_ops);
    }
}

/// Replays one origin's `(trace, schedule)` through `ServerConsistency`
/// and per-proxy `ProxyPolicy` + `CacheStore` — the calls the simulator's
/// actors make, without the simulator.
pub fn core_kernel(
    trace: &Trace,
    mods: &ModSchedule,
    protocol: &ProtocolConfig,
    options: &DeploymentOptions,
) -> CoreTimes {
    let proxies = options.num_proxies.max(1);
    let mut server = ServerConsistency::new(protocol, trace.server);
    let mut nodes: Vec<(ProxyPolicy, CacheStore)> = (0..proxies)
        .map(|_| {
            (
                ProxyPolicy::new(protocol),
                CacheStore::new(options.cache_capacity, options.replacement),
            )
        })
        .collect();
    let mut times = CoreTimes {
        cache_ops: vec![Vec::new(); proxies as usize],
        ..CoreTimes::default()
    };
    let mut pending_mods = mods.modifications().iter().peekable();
    for (i, record) in trace.records.iter().enumerate() {
        while let Some(m) = pending_mods.next_if(|m| m.at <= record.at) {
            let url = Url::new(trace.server, m.doc);
            let mut acks = Vec::new();
            times.server_modify.time(|| {
                acks = server.on_modify(url, m.at);
            });
            for &client in &acks {
                let p = client.partition(proxies) as usize;
                let (policy, cache) = &mut nodes[p];
                if times
                    .proxy_other
                    .time(|| policy.on_invalidate(url, client, cache))
                    .is_some()
                {
                    times.cache_ops[p].push(CacheOp::Remove(url.scoped(client)));
                }
            }
            // The acks belong to the modification that caused them.
            let clock = Instant::now();
            for &client in &acks {
                server.on_inval_ack(url, client);
            }
            times.server_modify.nanos += clock.elapsed().as_nanos() as u64;
        }
        let key = record.url.scoped(record.client);
        let p = record.client.partition(proxies) as usize;
        let (policy, cache) = &mut nodes[p];
        let disposition = times
            .proxy_request
            .time(|| policy.on_request(key, record.at, cache));
        times.cache_ops[p].push(CacheOp::Touch(key, record.at));
        if let ProxyAction::SendGet { ims } = disposition.action {
            let doc = record.url.doc();
            let meta = DocMeta::new(trace.doc_size(doc), mods.version_at(doc, record.at));
            let grant = times
                .server_get
                .time(|| server.on_get(record.url, record.client, ims, meta, record.at));
            if grant.send_body {
                times
                    .proxy_other
                    .time(|| policy.on_reply_200(key, meta, grant.lease, record.at, cache));
                if let Some(entry) = cache.peek(key) {
                    times.cache_ops[p].push(CacheOp::Insert(key, meta, record.at, entry.freshness));
                }
            } else if times
                .proxy_other
                .time(|| policy.on_reply_304(key, grant.lease, record.at, cache))
            {
                if let Some(entry) = cache.peek(key) {
                    times.cache_ops[p].push(CacheOp::Refresh(key, entry.freshness));
                }
            }
        }
        if i % 1024 == 0 {
            times.sitelist_peak_entries = times
                .sitelist_peak_entries
                .max(server.table().total_entries());
        }
    }
    times.sitelist_peak_entries = times
        .sitelist_peak_entries
        .max(server.table().total_entries());
    times
}

/// Per-call timings of `CacheStore` alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTimes {
    pub touch: OpTimer,
    pub insert: OpTimer,
    pub other: OpTimer,
}

impl CacheTimes {
    pub fn seconds(&self, overhead_ns: f64) -> f64 {
        self.touch.seconds(overhead_ns)
            + self.insert.seconds(overhead_ns)
            + self.other.seconds(overhead_ns)
    }
}

/// Replays one proxy's cache operations on a fresh store.
pub fn cache_kernel(
    ops: &[CacheOp],
    capacity: ByteSize,
    policy: ReplacementPolicy,
    times: &mut CacheTimes,
) {
    let mut cache = CacheStore::new(capacity, policy);
    for op in ops {
        match *op {
            CacheOp::Touch(key, now) => {
                let hit = times.touch.time(|| cache.touch(key, now).is_some());
                std::hint::black_box(hit);
            }
            CacheOp::Insert(key, meta, now, fresh) => {
                times.insert.time(|| cache.insert(key, meta, now, fresh));
            }
            CacheOp::Refresh(key, fresh) => {
                times
                    .other
                    .time(|| cache.update_freshness(key, |f| *f = fresh));
            }
            CacheOp::Remove(key) => {
                times.other.time(|| cache.remove(key));
            }
        }
    }
}

/// The serve tier's cache behaviour: `n` keys of the workload's stream
/// against a store of the proxy's capacity — touch, and insert on a miss
/// (evicting once the store is full).
pub fn serve_cache_kernel(spec: &ServeSpec, seed: u64, n: usize) -> CacheTimes {
    let mut stream = KeyStream::new(spec, seed, 0);
    let mut cache = CacheStore::new(CACHE, ReplacementPolicy::ExpiredFirstLru);
    let meta = DocMeta::new(DOC_SIZE, SimTime::ZERO);
    let now = SimTime::from_secs(1);
    let mut times = CacheTimes::default();
    for _ in 0..n {
        let (doc, client) = stream.next_key();
        let key = Url::new(ServerId::new(0), doc).scoped(ClientId::from_raw(client));
        if !times.touch.time(|| cache.touch(key, now).is_some()) {
            times
                .insert
                .time(|| cache.insert(key, meta, now, Freshness::default()));
        }
    }
    times
}

/// Wire-codec costs over the server tier's messages, weighted by how often
/// the run encoded and decoded each.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoTimes {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    /// Share of decode + retention time that is the retention copy
    /// (`to_owned`, done only for messages the receiver keeps).
    pub decode_copy_share: f64,
    /// Wire bytes that crossed the server tier's sockets.
    pub bytes: f64,
}

/// One kind of message on the server tier's sockets.
pub struct WireMsg {
    pub msg: HttpMsg,
    /// Times the server tier encoded it during the run.
    pub encodes: u64,
    /// Times the server tier decoded it.
    pub decodes: u64,
    /// Whether the decoder keeps it (`to_owned` at retention).
    pub retained: bool,
}

pub fn proto_kernel(corpus: &[WireMsg]) -> ProtoTimes {
    const REPS: u32 = 2_000;
    let (mut enc, mut dec, mut copy, mut bytes) = (0.0, 0.0, 0.0, 0.0);
    let (mut encodes, mut decodes) = (0.0, 0.0);
    for WireMsg {
        msg,
        encodes: n_enc,
        decodes: n_dec,
        retained,
    } in corpus
    {
        let (n_enc, n_dec) = (*n_enc as f64, *n_dec as f64);
        let clock = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(encode(std::hint::black_box(msg)));
        }
        enc += n_enc * clock.elapsed().as_nanos() as f64 / f64::from(REPS);
        let frame = encode(msg);
        let clock = Instant::now();
        for _ in 0..REPS {
            let decoded = decode_frame(std::hint::black_box(&frame), false);
            std::hint::black_box(decoded.is_ok());
        }
        dec += n_dec * clock.elapsed().as_nanos() as f64 / f64::from(REPS);
        let w = n_dec;
        if *retained {
            let (view, _) = decode_frame(&frame, false)
                .ok()
                .flatten()
                .expect("the encoder's output decodes");
            let clock = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(view.to_owned());
            }
            copy += w * clock.elapsed().as_nanos() as f64 / f64::from(REPS);
        }
        // Each message crosses one server-tier socket: count it once.
        bytes += n_enc.max(n_dec) * frame.len() as f64;
        encodes += n_enc;
        decodes += n_dec;
    }
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    ProtoTimes {
        encode_ns_per_msg: per(enc, encodes),
        decode_ns_per_msg: per(dec, decodes),
        decode_copy_share: per(copy, dec + copy),
        bytes,
    }
}

/// A sink that accepts everything, so `SendBuf::flush` costs only its own
/// bookkeeping.
struct Discard;

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `RecvBuf` push/data/consume plus `SendBuf` push/flush per message, for
/// a request of `request_len` bytes answered by `reply_len` bytes.
pub fn reactor_buf_ns_per_msg(request_len: usize, reply_len: usize) -> f64 {
    const REPS: u32 = 200_000;
    let request = vec![b'x'; request_len];
    let reply = vec![b'y'; reply_len];
    let mut rbuf = RecvBuf::new();
    let mut sbuf = SendBuf::new();
    let clock = Instant::now();
    for _ in 0..REPS {
        rbuf.push_bytes(&request);
        let n = std::hint::black_box(rbuf.data()).len();
        rbuf.consume(n);
        sbuf.push_bytes(&reply);
        let _ = sbuf.flush(&mut Discard);
    }
    clock.elapsed().as_nanos() as f64 / f64::from(REPS)
}

/// `Waker` → `Poller::wait` round trip between two threads, median µs.
pub fn wake_rtt_us() -> std::io::Result<f64> {
    const ROUNDS: usize = 2_000;
    let mut here = Poller::new()?;
    let here_waker = Waker::new()?;
    here_waker.register(&mut here, 1)?;
    let wake_here = here_waker.handle()?;
    let mut there = Poller::new()?;
    let there_waker = Waker::new()?;
    there_waker.register(&mut there, 1)?;
    let wake_there = there_waker.handle()?;
    let mut samples = Vec::with_capacity(ROUNDS);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut events = Vec::with_capacity(4);
            for _ in 0..ROUNDS {
                if there
                    .wait(&mut events, Some(Duration::from_secs(1)))
                    .is_err()
                {
                    break;
                }
                there_waker.drain();
                wake_here.wake();
            }
        });
        let mut events = Vec::with_capacity(4);
        for _ in 0..ROUNDS {
            let clock = Instant::now();
            wake_there.wake();
            if here
                .wait(&mut events, Some(Duration::from_secs(1)))
                .is_err()
            {
                break;
            }
            here_waker.drain();
            samples.push(clock.elapsed().as_nanos() as f64 / 1e3);
        }
    });
    Ok(stats::median(&samples).unwrap_or(0.0))
}

/// A request of `request_len` bytes echoed as `reply_len` bytes through a
/// `Poller` + `RecvBuf`/`SendBuf` server with no protocol, window 1:
/// the floor the kernel's loopback sets under `read_p50_us`. Median µs.
pub fn loopback_rtt_us(request_len: usize, reply_len: usize) -> std::io::Result<f64> {
    const ROUNDS: usize = 2_000;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut samples = Vec::with_capacity(ROUNDS);
    std::thread::scope(|scope| -> std::io::Result<()> {
        let server = scope.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            let mut poller = Poller::new()?;
            poller.add(stream.as_raw_fd(), 0, Interest::READ)?;
            let (mut rbuf, mut sbuf) = (RecvBuf::new(), SendBuf::new());
            let reply = vec![b'y'; reply_len];
            let mut events = Vec::with_capacity(4);
            loop {
                poller.wait(&mut events, Some(Duration::from_secs(2)))?;
                if events.is_empty() {
                    return Ok(()); // the client is gone
                }
                loop {
                    match rbuf.fill(&mut stream) {
                        Ok(0) => return Ok(()),
                        Ok(_) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                while rbuf.len() >= request_len {
                    rbuf.consume(request_len);
                    sbuf.push_bytes(&reply);
                }
                // Loopback socket buffers hold far more than one reply, so
                // a short write cannot occur at window 1.
                sbuf.flush(&mut stream)?;
            }
        });
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        let request = vec![b'x'; request_len];
        let mut reply = vec![0u8; reply_len];
        for _ in 0..ROUNDS {
            let clock = Instant::now();
            stream.write_all(&request)?;
            stream.read_exact(&mut reply)?;
            samples.push(clock.elapsed().as_nanos() as f64 / 1e3);
        }
        drop(stream);
        server.join().expect("echo server panicked")
    })?;
    Ok(stats::median(&samples).unwrap_or(0.0))
}
