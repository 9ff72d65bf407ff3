//! The serve-tier node runtime: one reactor loop, one frame pump, one
//! worker pool — and three roles.
//!
//! Every node (origin, proxy, parent) is a [`Role`] run by [`spawn`]: the
//! runtime owns the sockets, the role owns the protocol. What lives here,
//! once:
//!
//! * the `Poller::wait` loop, its timeout driven by the earliest of the
//!   role's deadline and the runtime's own channel re-dial deadline (a
//!   due deadline fires after any wake, busy or idle);
//! * a slab of non-blocking connections keyed by generation tokens, each
//!   with a compacting receive buffer (frames decode from it in place via
//!   `wcc_proto::zero::decode_frame` — the zero-copy path) and a send
//!   buffer that absorbs partial writes and that frames are encoded
//!   straight into (`wcc_proto::encode_into`: no `Vec` per frame). Write
//!   interest is armed only while output is queued, so an idle keep-alive
//!   connection costs one registered fd and two empty buffers;
//! * the frame pump: read → decode → [`Role::on_frame`] → consume, then
//!   keep / close-after-flush / close. A clean EOF (a half-closing
//!   HTTP/1.0 client) closes only once every reply the peer is still owed
//!   — queued, parked or with a worker — has been flushed;
//! * the reply pipeline: every request a role answers takes the
//!   connection's next sequence number, whether [`Cx::reply`] answers it
//!   on the reactor or [`Cx::submit`] hands it to the worker pool
//!   ([`Role::run_job`]), and replies leave strictly in that order however
//!   the workers finish — one mechanism: a reply that is ready early
//!   parks on its connection until everything ahead of it went out;
//! * the outbox — "push this frame to that other connection" — delivered
//!   after each batch of events; a frame addressed to a connection that
//!   closed (even if its slot was reused) is dropped;
//! * the persistent `HELLO` channel to the upstream node: dialled
//!   synchronously by [`spawn`] so an unreachable upstream fails fast,
//!   re-dialled every 250 ms while it is down (the §5 reconnect);
//! * the graceful drain on shutdown.
//!
//! A role touches only what [`Cx`] hands it: its own connection's tag and
//! reply pipeline, the outbox, and the job pool. Dispatch is static
//! (`Runtime<R: Role>`): no `dyn`, no boxed callbacks per frame.
//!
//! What a role may do inside [`Role::on_frame`] — on the reactor, with
//! every other connection of the node waiting: bounded work only, and no
//! socket or file I/O — anything that may fetch is a job. A request that
//! needs a lock a worker can hold across an upstream round trip takes it
//! with `try_lock`, and busy means "submit the job"; only a pushed
//! invalidation, which has to be serialised behind the fetch in flight,
//! waits for that lock. The proxy and the parent answer cache hits this
//! way and send every other `GET` to the pool; the origin, whose handlers
//! never leave memory, has no pool.
//!
//! This file is on the hot-loop allocation lint list: everything here
//! runs once per readiness event at 10k-connection scale.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use wcc_proto::{decode_frame, encode, encode_into, HttpMsg, HttpMsgRef, WireError};
use wcc_reactor::{Event, Interest, Poller, RecvBuf, SendBuf, WakeHandle, Waker};
use wcc_types::{SimDuration, WallClock};

/// Token of the node's primary listener.
const TOK_LISTENER: u64 = 0;
/// Token of the node's secondary listener (the proxy's metrics port).
const TOK_LISTENER2: u64 = 1;
/// Token of the reactor's waker pipe.
const TOK_WAKER: u64 = 2;
/// First token handed to accepted connections; everything below is a
/// fixed singleton.
const FIRST_CONN: u64 = 16;

/// Worker threads of a role that uses the pool. Fetches serialise on the
/// role's policy lock anyway; two workers let encode/decode overlap one
/// upstream round trip.
pub(crate) const WORKERS: usize = 2;

/// How long a dropped `HELLO` channel waits before the next re-dial.
const REDIAL: SimDuration = SimDuration::from_millis(250);

/// What the pump does with a connection after a frame was handled.
pub(crate) enum After {
    Keep,
    /// Close once the send buffer drains (one-shot replies).
    CloseAfterFlush,
    /// Close now (protocol violation).
    Close,
}

/// Where a connection came from; the role picks its tag from this.
#[derive(Clone, Copy)]
pub(crate) enum Via {
    Listener,
    Listener2,
    /// The runtime-dialled `HELLO` channel to the upstream node.
    Dial,
}

/// Frames queued for connections other than the one being pumped.
pub(crate) type Outbox = Vec<(u64, HttpMsg)>;

/// One node's protocol, driven by the runtime. `&mut self` methods run on
/// the reactor thread only; [`Role::run_job`] runs on the workers and
/// sees only `Shared`.
pub(crate) trait Role: Sized + Send + 'static {
    /// Per-connection state the role keeps (what kind of peer this is).
    type Tag: Send;
    /// Work handed to the pool by [`Cx::submit`].
    type Job: Send + 'static;
    /// What the workers see of the node.
    type Shared: Send + Sync + 'static;
    /// Pool size: [`WORKERS`], or 0 for a role that never submits.
    const POOL: usize;

    /// The tag of a freshly accepted (or dialled) connection.
    fn tag(&self, via: Via) -> Self::Tag;
    /// Handles one decoded frame. Replies go through `cx`; the borrowed
    /// message is consumed from the receive buffer on return.
    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: &HttpMsgRef<'_>) -> After;
    /// A connection went away (idempotent; the token may be stale).
    fn on_closed(&mut self, _token: u64) {}
    /// `n` connections were dropped by the runtime: accept/registration
    /// failures, or a failed job forcing a close.
    fn on_dropped(&mut self, _n: u64) {}
    /// Time until the role's next deadline (`ZERO`: due now).
    fn next_deadline(&self) -> Option<Duration> {
        None
    }
    /// Called after a wake once [`Role::next_deadline`] reached zero.
    fn on_deadline(&mut self, _out: &mut Outbox) {}
    /// Runs one job on a worker. `None` means the job failed: earlier
    /// replies on that connection still flush, then it closes.
    fn run_job(shared: &Self::Shared, job: Self::Job) -> Option<HttpMsg>;
}

/// Time left of `period` on a clock started at the period's beginning.
pub(crate) fn time_left(since: &WallClock, period: SimDuration) -> Duration {
    Duration::from_micros((period - since.elapsed()).as_micros())
}

/// The sooner of two optional deadlines.
pub(crate) fn earliest(a: Option<Duration>, b: Option<Duration>) -> Option<Duration> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The `HELLO` registration a proxy or parent keeps open to its upstream.
pub(crate) struct Hello {
    pub upstream: SocketAddr,
    pub partition: u32,
    pub partitions: u32,
}

impl Hello {
    /// Dials the upstream and registers (blocking; loopback-fast).
    fn dial(&self) -> io::Result<TcpStream> {
        let mut stream = TcpStream::connect(self.upstream)?;
        let _ = stream.set_nodelay(true);
        let hello = HttpMsg::Hello {
            partition: self.partition,
            partitions: self.partitions,
        };
        // One frame per (re-)dial, written before the stream has a buffer.
        stream.write_all(&encode(&hello))?; // xtask-lint: allow(hot-loop-alloc)
        stream.flush()?;
        Ok(stream)
    }
}

/// A job on its way to a worker.
struct Job<J> {
    token: u64,
    seq: u64,
    work: J,
}

/// A finished job re-entering the reactor.
struct Done {
    token: u64,
    seq: u64,
    msg: Option<HttpMsg>,
}

/// Round-robin dealer over the per-worker inboxes (the vendored channel
/// is single-consumer). Per-connection sequence numbers restore pipeline
/// order on the way back regardless of which worker finishes first.
struct Pool<J> {
    lanes: Vec<Sender<Job<J>>>,
    next: usize,
    /// Jobs submitted whose completion has not been applied yet.
    outstanding: u32,
}

/// What [`Role::on_frame`] may touch: the pumped connection's tag and
/// reply pipeline, the outbox, and the pool.
pub(crate) struct Cx<'a, R: Role> {
    /// The pumped connection's token (what an [`Outbox`] entry targets).
    pub token: u64,
    pub tag: &'a mut R::Tag,
    /// Frames for other connections.
    pub out: &'a mut Outbox,
    sbuf: &'a mut SendBuf,
    next_assign: &'a mut u64,
    next_send: &'a mut u64,
    parked: &'a mut Vec<(u64, Option<HttpMsg>)>,
    pool: &'a mut Pool<R::Job>,
}

impl<R: Role> Cx<'_, R> {
    /// The connection's next pipeline sequence number.
    fn assign(&mut self) -> u64 {
        let seq = *self.next_assign;
        *self.next_assign += 1;
        seq
    }

    /// Answers the frame being handled, from the reactor. The reply takes
    /// the connection's next sequence number like a submitted job does: it
    /// is encoded into the send buffer at once when nothing earlier is
    /// still with a worker, and otherwise parks until `apply_done` has
    /// delivered everything ahead of it — a peer never sees replies out
    /// of request order, whichever thread produced them.
    pub fn reply(&mut self, msg: HttpMsg) {
        let seq = self.assign();
        if seq == *self.next_send {
            *self.next_send += 1;
            encode_into(&msg, self.sbuf.tail());
        } else {
            self.parked.push((seq, Some(msg)));
        }
    }

    /// Queues a one-shot `/metrics` response (raw HTTP, not a frame): the
    /// connection closes behind it, so it takes no sequence number.
    pub fn reply_metrics(&mut self, exposition: &str) -> After {
        self.sbuf
            .push_bytes(&crate::scrape::metrics_response(exposition));
        After::CloseAfterFlush
    }

    /// Hands `work` to the pool; its reply is delivered on this
    /// connection after every earlier request's.
    pub fn submit(&mut self, work: R::Job) {
        let seq = self.assign();
        let lane = self.pool.next % self.pool.lanes.len().max(1);
        self.pool.next = self.pool.next.wrapping_add(1);
        if let Some(tx) = self.pool.lanes.get(lane) {
            self.pool.outstanding += 1;
            let _ = tx.send(Job {
                token: self.token,
                seq,
                work,
            });
        }
    }
}

/// One non-blocking connection plus its role-specific tag.
struct Conn<T> {
    stream: TcpStream,
    rbuf: RecvBuf,
    sbuf: SendBuf,
    /// Peer sent EOF; replies it is still owed are delivered first.
    eof: bool,
    /// What the poller has this connection registered for.
    interest: Interest,
    /// Close once the send buffer drains (one-shot replies, shutdown).
    close_after_flush: bool,
    /// Pipeline ordering: every reply — a job's or the reactor's own —
    /// takes a sequence number when its request is handled and replies
    /// are delivered strictly in that order; early finishers park.
    next_assign: u64,
    next_send: u64,
    parked: Vec<(u64, Option<HttpMsg>)>,
    tag: T,
}

impl<T> Conn<T> {
    /// Reads everything currently available; sets [`Conn::eof`] on peer
    /// close. `Ok(())` means "no fatal error" — the caller decodes next.
    fn read_ready(&mut self) -> io::Result<()> {
        loop {
            match self.rbuf.fill(&mut self.stream) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Connection slab with generation-checked tokens.
///
/// Tokens are `(generation << 32) | (index + FIRST_CONN)`: a completion
/// or queued push addressed to a connection that was closed and whose
/// slot was reused simply fails the generation check and is dropped.
struct Conns<T> {
    slots: Vec<Slot<T>>,
    free: Vec<usize>,
}

/// One slab entry: its current generation and, while live, a connection.
struct Slot<T> {
    gen: u32,
    conn: Option<Conn<T>>,
}

fn token_of(idx: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | (idx as u64 + FIRST_CONN)
}

impl<T> Conns<T> {
    fn with_capacity(cap: usize) -> Conns<T> {
        Conns {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Registers an accepted stream (made non-blocking here) and returns
    /// its token.
    fn insert(&mut self, poller: &mut Poller, stream: TcpStream, tag: T) -> io::Result<u64> {
        use std::os::fd::AsRawFd;
        stream.set_nonblocking(true)?;
        let idx = self.free.pop().unwrap_or(self.slots.len());
        if idx == self.slots.len() {
            self.slots.push(Slot { gen: 0, conn: None });
        }
        // `idx` came off the free list or was pushed just above.
        let slot = &mut self.slots[idx]; // xtask-lint: allow(index-panic)
        let token = token_of(idx, slot.gen);
        if let Err(e) = poller.add(stream.as_raw_fd(), token, Interest::READ) {
            self.free.push(idx);
            return Err(e);
        }
        slot.conn = Some(Conn {
            stream,
            rbuf: RecvBuf::new(),
            sbuf: SendBuf::new(),
            eof: false,
            interest: Interest::READ,
            close_after_flush: false,
            next_assign: 0,
            next_send: 0,
            // An empty `Vec` owns no heap until a reply parks.
            parked: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            tag,
        });
        Ok(token)
    }

    /// The slot `token` names, if its generation is still current.
    fn slot_mut(&mut self, token: u64) -> Option<(usize, &mut Slot<T>)> {
        let idx = usize::try_from((token & 0xffff_ffff).checked_sub(FIRST_CONN)?).ok()?;
        let slot = self.slots.get_mut(idx)?;
        (u64::from(slot.gen) == token >> 32).then_some((idx, slot))
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn<T>> {
        self.slot_mut(token)?.1.conn.as_mut()
    }

    /// Deregisters and drops a connection. Safe to call with a stale
    /// token (no-op).
    fn close(&mut self, poller: &mut Poller, token: u64) {
        use std::os::fd::AsRawFd;
        let Some((idx, slot)) = self.slot_mut(token) else {
            return;
        };
        if let Some(conn) = slot.conn.take() {
            let _ = poller.delete(conn.stream.as_raw_fd());
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(idx);
        }
    }

    /// Flushes queued output and keeps the poller's write interest in
    /// sync. Returns `false` if the connection was closed (fatal write
    /// error, or drained with `close_after_flush`).
    fn flush(&mut self, poller: &mut Poller, token: u64) -> bool {
        use std::os::fd::AsRawFd;
        let Some(conn) = self.get_mut(token) else {
            return false;
        };
        let drained = match conn.sbuf.flush(&mut conn.stream) {
            Ok(drained) => drained,
            Err(_) => {
                self.close(poller, token);
                return false;
            }
        };
        if drained && conn.close_after_flush {
            self.close(poller, token);
            return false;
        }
        // Write interest only while output is queued; read interest only
        // until the peer's EOF — readiness is level-triggered, so a
        // half-closed socket kept open for a reply still with a worker
        // would otherwise wake the loop until that reply arrives.
        let want = Interest {
            readable: !conn.eof,
            writable: !drained,
        };
        if want != conn.interest {
            conn.interest = want;
            let _ = poller.modify(conn.stream.as_raw_fd(), token, want);
        }
        true
    }
}

/// A running node: its reactor and worker threads. Shuts them down (and
/// joins them) on drop.
pub(crate) struct Node {
    shutdown: Arc<AtomicBool>,
    wake: WakeHandle,
    threads: Vec<JoinHandle<()>>,
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.wake();
        // The workers exit once the reactor has dropped their inboxes.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Starts `role` on `listener` (plus the optional second listener and
/// upstream `HELLO` channel). Every thread of the node — the reactor and
/// [`Role::POOL`] workers — exists by the time this returns.
///
/// # Errors
///
/// Returns socket errors from the `HELLO` dial or reactor set-up; no
/// thread is left behind on failure.
pub(crate) fn spawn<R: Role>(
    role: R,
    shared: &Arc<R::Shared>,
    listener: TcpListener,
    listener2: Option<TcpListener>,
    hello: Option<Hello>,
) -> io::Result<Node> {
    use std::os::fd::AsRawFd;
    // Dial first: an unreachable upstream fails the spawn.
    let channel = hello.as_ref().map(Hello::dial).transpose()?;
    let mut poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    if let Some(l2) = &listener2 {
        l2.set_nonblocking(true)?;
        poller.add(l2.as_raw_fd(), TOK_LISTENER2, Interest::READ)?;
    }
    let waker = Waker::new()?;
    waker.register(&mut poller, TOK_WAKER)?;
    let wake = waker.handle()?;
    let mut worker_wakes = Vec::with_capacity(R::POOL);
    for _ in 0..R::POOL {
        worker_wakes.push(waker.handle()?);
    }

    let (done_tx, done_rx) = unbounded::<Done>();
    let mut lanes = Vec::with_capacity(R::POOL);
    let mut threads = Vec::with_capacity(R::POOL + 1);
    for wake in worker_wakes {
        let (tx, rx) = unbounded::<Job<R::Job>>();
        lanes.push(tx);
        let shared = Arc::clone(shared);
        let done = done_tx.clone();
        threads.push(std::thread::spawn(move || {
            worker_loop::<R>(&shared, &rx, &done, &wake);
        }));
    }

    let mut rt = Runtime {
        role,
        poller,
        listener,
        listener2,
        conns: Conns::with_capacity(256),
        outbox: Vec::with_capacity(64),
        pool: Pool {
            lanes,
            next: 0,
            outstanding: 0,
        },
        hello,
        channel: None,
        channel_down: WallClock::start(),
    };
    if let Some(stream) = channel {
        rt.adopt_channel(stream);
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    threads.push(std::thread::spawn(move || rt.run(&waker, &done_rx, &stop)));
    Ok(Node {
        shutdown,
        wake,
        threads,
    })
}

fn worker_loop<R: Role>(
    shared: &R::Shared,
    jobs: &Receiver<Job<R::Job>>,
    done: &Sender<Done>,
    wake: &WakeHandle,
) {
    while let Ok(job) = jobs.recv() {
        let msg = R::run_job(shared, job.work);
        let sent = done.send(Done {
            token: job.token,
            seq: job.seq,
            msg,
        });
        if sent.is_err() {
            break;
        }
        wake.wake();
    }
}

/// Everything the reactor thread owns.
struct Runtime<R: Role> {
    role: R,
    poller: Poller,
    listener: TcpListener,
    listener2: Option<TcpListener>,
    conns: Conns<R::Tag>,
    outbox: Outbox,
    pool: Pool<R::Job>,
    hello: Option<Hello>,
    /// The live `HELLO` channel's token.
    channel: Option<u64>,
    /// Started when the channel last went down (or a re-dial failed).
    channel_down: WallClock,
}

impl<R: Role> Runtime<R> {
    /// The node's whole serving tier: one loop, every connection.
    fn run(mut self, waker: &Waker, done: &Receiver<Done>, shutdown: &AtomicBool) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            let timeout = earliest(self.role.next_deadline(), self.redial_left());
            if self.poller.wait(&mut events, timeout).is_err() || shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOK_LISTENER => self.accept(Via::Listener),
                    TOK_LISTENER2 => self.accept(Via::Listener2),
                    TOK_WAKER => waker.drain(),
                    tok => {
                        if ev.writable {
                            self.flush(tok);
                        }
                        if ev.readable || ev.error {
                            self.pump(tok);
                        }
                    }
                }
            }
            while let Some(d) = done.try_recv() {
                self.apply_done(d);
            }
            if self.redial_left() == Some(Duration::ZERO) {
                match self.hello.as_ref().map(Hello::dial) {
                    Some(Ok(stream)) => self.adopt_channel(stream),
                    _ => self.channel_down = WallClock::start(),
                }
            }
            if self.role.next_deadline() == Some(Duration::ZERO) {
                self.role.on_deadline(&mut self.outbox);
            }
            self.deliver_outbox();
        }

        // Graceful drain: give in-flight jobs a bounded window to finish
        // and flush, then close everything.
        let grace = WallClock::start();
        while self.pool.outstanding > 0 && !grace.has_elapsed(SimDuration::from_secs(1)) {
            let _ = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(20)));
            waker.drain();
            while let Some(d) = done.try_recv() {
                self.apply_done(d);
            }
        }
        // One last best-effort flush; dropping the runtime closes the rest.
        for conn in self.conns.slots.iter_mut().filter_map(|s| s.conn.as_mut()) {
            let _ = conn.sbuf.flush(&mut conn.stream);
        }
    }

    /// Time until the next `HELLO` re-dial; `None` while the channel is up
    /// (or the role has none).
    fn redial_left(&self) -> Option<Duration> {
        (self.hello.is_some() && self.channel.is_none())
            .then(|| time_left(&self.channel_down, REDIAL))
    }

    fn adopt_channel(&mut self, stream: TcpStream) {
        let tag = self.role.tag(Via::Dial);
        self.channel = self.conns.insert(&mut self.poller, stream, tag).ok();
        self.channel_down = WallClock::start();
    }

    /// Accepts every pending connection on a non-blocking listener.
    /// Connections that cannot be accepted or registered (fd exhaustion)
    /// are reported through [`Role::on_dropped`].
    fn accept(&mut self, via: Via) {
        let listener = match (via, &self.listener2) {
            (Via::Listener2, Some(l2)) => l2,
            _ => &self.listener,
        };
        let mut dropped = 0u64;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let tag = self.role.tag(via);
                    if self.conns.insert(&mut self.poller, stream, tag).is_err() {
                        dropped += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    dropped += 1;
                    break;
                }
            }
        }
        if dropped > 0 {
            self.role.on_dropped(dropped);
        }
    }

    fn close(&mut self, token: u64) {
        self.conns.close(&mut self.poller, token);
        self.closed(token);
    }

    /// Bookkeeping for a connection that is gone.
    fn closed(&mut self, token: u64) {
        if self.channel == Some(token) {
            self.channel = None;
            self.channel_down = WallClock::start();
        }
        self.role.on_closed(token);
    }

    /// Flushes queued output, noticing if that closed the connection.
    fn flush(&mut self, token: u64) {
        if !self.conns.flush(&mut self.poller, token) {
            self.closed(token);
        }
    }

    /// Queues `outbox` frames into their target connections and flushes.
    fn deliver_outbox(&mut self) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for (tok, msg) in outbox.drain(..) {
            if let Some(conn) = self.conns.get_mut(tok) {
                encode_into(&msg, conn.sbuf.tail());
            }
            self.flush(tok);
        }
        self.outbox = outbox;
    }

    /// Reads and dispatches every complete frame on one connection.
    fn pump(&mut self, token: u64) {
        match self.conns.get_mut(token).map(Conn::read_ready) {
            Some(Ok(())) => {}
            Some(Err(_)) => return self.close(token),
            None => return,
        }
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            let after = match decode_frame(conn.rbuf.data(), conn.eof) {
                Ok(None) => break, // mid-frame; more bytes may arrive
                // Clean EOF between frames (a half-closing HTTP/1.0 client):
                // every reply still owed goes out first. `apply_done`
                // closes behind the last one a worker holds ...
                Err(WireError::Closed) if conn.next_send != conn.next_assign => break,
                // ... and what is already queued flushes before the close.
                Err(WireError::Closed) if !conn.sbuf.is_empty() => After::CloseAfterFlush,
                Err(_) => After::Close,
                Ok(Some((msg, used))) => {
                    let mut cx = Cx {
                        token,
                        tag: &mut conn.tag,
                        out: &mut self.outbox,
                        sbuf: &mut conn.sbuf,
                        next_assign: &mut conn.next_assign,
                        next_send: &mut conn.next_send,
                        parked: &mut conn.parked,
                        pool: &mut self.pool,
                    };
                    let after = self.role.on_frame(&mut cx, &msg);
                    conn.rbuf.consume(used);
                    after
                }
            };
            match after {
                After::Keep => {}
                After::CloseAfterFlush => {
                    conn.close_after_flush = true;
                    break;
                }
                After::Close => return self.close(token),
            }
        }
        self.flush(token);
    }

    /// Applies one finished job: park it, then deliver every reply that
    /// is next in pipeline order — the reactor's own parked replies
    /// ([`Cx::reply`]) included. A completion for a connection that is
    /// gone — or already closing — is dropped, and so is whatever was
    /// parked there.
    fn apply_done(&mut self, d: Done) {
        self.pool.outstanding -= 1;
        let Some(conn) = self.conns.get_mut(d.token) else {
            return;
        };
        if conn.close_after_flush {
            return;
        }
        conn.parked.push((d.seq, d.msg));
        while let Some(i) = conn.parked.iter().position(|(s, _)| *s == conn.next_send) {
            let (_, msg) = conn.parked.swap_remove(i);
            conn.next_send += 1;
            match msg {
                Some(m) => encode_into(&m, conn.sbuf.tail()),
                None => {
                    // The job failed (upstream down): deliver what we
                    // have, then drop the connection so the peer re-dials.
                    conn.close_after_flush = true;
                    self.role.on_dropped(1);
                    break;
                }
            }
        }
        // The peer half-closed while replies were owed: that was the last.
        if conn.eof && conn.next_send == conn.next_assign {
            conn.close_after_flush = true;
        }
        self.flush(d.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::io::{Read, Write};
    use std::net::Shutdown;
    use std::sync::mpsc;
    use wcc_proto::{FrameReader, GetRequest, Reply, ReplyStatus, RequestId};
    use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};

    fn live<T>(conns: &Conns<T>) -> usize {
        conns
            .slots
            .iter()
            .filter(|slot| slot.conn.is_some())
            .count()
    }

    // ---- the runtime, driven by a toy echo role over loopback ----

    /// Answered on the reactor thread.
    const INLINE: ClientId = ClientId::from_raw(0);
    /// Answered by a pool worker.
    const JOB: ClientId = ClientId::from_raw(1);
    /// A pool job that finishes only once the test opens the gate.
    const GATED: ClientId = ClientId::from_raw(2);
    /// A pool job that fails.
    const FAIL: ClientId = ClientId::from_raw(3);
    /// Larger than loopback socket buffers absorb: a flush of a reply
    /// this size stays partial until the peer reads.
    const BIG: u64 = 16 << 20;

    #[derive(Default)]
    struct EchoShared {
        /// `(token, req)` of every `GET` handled, in order.
        seen: Mutex<Vec<(u64, u64)>>,
        /// One token per gated job the test lets finish.
        gate: Mutex<Option<mpsc::Receiver<()>>>,
        dropped: Mutex<u64>,
        /// Reactor loop turns, twice each (`next_deadline` calls).
        turns: Mutex<u64>,
    }

    /// Echoes each `GET` as a `200` whose body is `cache_hits` bytes long;
    /// the client id picks how (inline / job / gated job / failing job).
    /// A `HELLO` arms a 30 ms deadline that pushes one frame back to the
    /// connection that sent it.
    struct Echo {
        shared: Arc<EchoShared>,
        push: Option<(u64, WallClock)>,
    }

    fn echo(get: &GetRequest) -> HttpMsg {
        let meta = DocMeta::new(ByteSize::from_bytes(get.cache_hits), SimTime::ZERO);
        HttpMsg::Reply(Reply {
            req: get.req,
            url: get.url,
            client: get.client,
            status: ReplyStatus::Ok(Body::synthetic(meta, 1)),
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        })
    }

    impl Role for Echo {
        type Tag = ();
        type Job = GetRequest;
        type Shared = EchoShared;
        const POOL: usize = WORKERS;

        fn tag(&self, _via: Via) {}

        fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: &HttpMsgRef<'_>) -> After {
            match msg {
                HttpMsgRef::Get(get) => {
                    self.shared.seen.lock().push((cx.token, get.req.get()));
                    if get.client == INLINE {
                        cx.reply(echo(get));
                    } else {
                        cx.submit(get.clone());
                    }
                    After::Keep
                }
                HttpMsgRef::Hello { .. } => {
                    self.push = Some((cx.token, WallClock::start()));
                    After::Keep
                }
                _ => After::Close,
            }
        }

        fn on_dropped(&mut self, n: u64) {
            *self.shared.dropped.lock() += n;
        }

        fn next_deadline(&self) -> Option<Duration> {
            *self.shared.turns.lock() += 1;
            let (_, since) = self.push.as_ref()?;
            Some(time_left(since, SimDuration::from_millis(30)))
        }

        fn on_deadline(&mut self, out: &mut Outbox) {
            if let Some((token, _)) = self.push.take() {
                let server = ServerId::new(0);
                out.push((token, HttpMsg::InvalidateServer { server }));
            }
        }

        fn run_job(shared: &EchoShared, get: GetRequest) -> Option<HttpMsg> {
            if get.client == GATED {
                let gate = shared.gate.lock();
                gate.as_ref().expect("gate installed").recv().ok()?;
            }
            (get.client != FAIL).then(|| echo(&get))
        }
    }

    /// A running echo node and the sending half of its gate.
    struct Harness {
        addr: SocketAddr,
        shared: Arc<EchoShared>,
        gate: mpsc::Sender<()>,
        _node: Node,
    }

    fn start() -> Harness {
        let (gate, gate_rx) = mpsc::channel();
        let shared = Arc::new(EchoShared::default());
        *shared.gate.lock() = Some(gate_rx);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let role = Echo {
            shared: Arc::clone(&shared),
            push: None,
        };
        let node = spawn(role, &shared, listener, None, None).expect("spawn");
        Harness {
            addr,
            shared,
            gate,
            _node: node,
        }
    }

    /// One client connection: raw writes, framed reads.
    struct Peer {
        w: TcpStream,
        r: FrameReader<TcpStream>,
    }

    impl Peer {
        fn connect(addr: SocketAddr) -> Peer {
            let w = TcpStream::connect(addr).expect("connect");
            w.set_nodelay(true).expect("nodelay");
            w.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let r = FrameReader::new(w.try_clone().expect("clone"));
            Peer { w, r }
        }

        fn send(&mut self, bytes: &[u8]) {
            self.w.write_all(bytes).expect("write");
        }

        /// The next reply's request id and body length.
        fn reply(&mut self) -> (u64, usize) {
            match self.r.next_msg().expect("reply frame") {
                HttpMsgRef::Reply(r) => match r.status {
                    wcc_proto::ReplyStatusRef::Ok { payload, .. } => (r.req.get(), payload.len()),
                    wcc_proto::ReplyStatusRef::NotModified => (r.req.get(), 0),
                },
                other => panic!("expected a reply, got {other:?}"),
            }
        }

        /// Nothing is waiting to be read (loopback delivery is
        /// synchronous, so this is exact once the sender is known to be
        /// past the point where it would have written).
        fn assert_quiet(&mut self) {
            self.w.set_nonblocking(true).expect("nonblocking");
            let mut byte = [0u8; 1];
            let got = self.w.read(&mut byte);
            self.w.set_nonblocking(false).expect("blocking");
            assert_eq!(
                got.expect_err("unexpected bytes").kind(),
                io::ErrorKind::WouldBlock
            );
        }

        /// Two inline round trips: the reactor answers the first from the
        /// event batch that was current when it arrived and the second
        /// from a later one, so everything readable before this call has
        /// been pumped by the time it returns.
        fn barrier(&mut self) {
            for req in [9_000_001, 9_000_002] {
                self.send(&get(req, INLINE, 0));
                assert_eq!(self.reply().0, req);
            }
        }
    }

    fn get(req: u64, mode: ClientId, body: u64) -> Vec<u8> {
        encode(&HttpMsg::Get(GetRequest {
            req: RequestId::new(req),
            url: Url::new(ServerId::new(0), 0),
            client: mode,
            ims: None,
            issued_at: SimTime::from_secs(1),
            cache_hits: body,
        }))
    }

    #[test]
    fn frame_torn_byte_by_byte_decodes_once() {
        let h = start();
        let mut torn = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        let frame = get(1, INLINE, 3);
        let (last, head) = frame.split_last().expect("non-empty frame");
        for byte in head {
            torn.send(&[*byte]);
            side.barrier(); // the reactor has read this byte on its own
        }
        assert!(h.shared.seen.lock().iter().all(|(_, req)| *req != 1));
        torn.send(&[*last]);
        assert_eq!(torn.reply(), (1, 3));
        side.barrier();
        torn.assert_quiet();
        let seen = h.shared.seen.lock();
        assert_eq!(seen.iter().filter(|(_, req)| *req == 1).count(), 1);
    }

    #[test]
    fn jobs_finishing_out_of_order_reply_in_order() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        // Jobs deal round-robin: 1 blocks worker 0 at the gate, 2 runs on
        // worker 1, 3 queues behind 1; 4 is answered on the reactor, at
        // once, and still leaves last.
        a.send(
            &[
                get(1, GATED, 0),
                get(2, JOB, 0),
                get(3, JOB, 0),
                get(4, INLINE, 0),
            ]
            .concat(),
        );
        side.barrier();
        // A job from another connection lands on worker 1 behind job 2;
        // completions are applied in channel order, so its reply proves
        // job 2's completion already reached the reactor — and parked.
        side.send(&get(30, JOB, 0));
        assert_eq!(side.reply().0, 30);
        a.assert_quiet();
        h.gate.send(()).expect("open gate");
        assert_eq!([1, 2, 3, 4].map(|_| a.reply().0), [1, 2, 3, 4]);
        // Nothing is in flight any more: the next inline reply is direct.
        a.send(&get(5, INLINE, 0));
        assert_eq!(a.reply().0, 5);
    }

    #[test]
    fn failed_job_closes_after_earlier_replies_flush() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        // The first reply cannot flush in one go, so the failure behind it
        // finds output still queued; the third request's reply is dropped.
        a.send(&[get(1, JOB, BIG), get(2, FAIL, 0), get(3, JOB, 0)].concat());
        assert_eq!(a.reply(), (1, BIG as usize));
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
        assert_eq!(*h.shared.dropped.lock(), 1);
    }

    #[test]
    fn clean_eof_with_queued_output_flushes_then_closes() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        a.send(&get(1, INLINE, BIG));
        a.w.shutdown(Shutdown::Write).expect("half-close");
        side.barrier(); // the EOF was seen while the reply was still queued
        assert_eq!(a.reply(), (1, BIG as usize));
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
    }

    /// A half-closing client is owed every reply still with a worker (and,
    /// parked behind it, the reactor's own) even though the send buffer
    /// is empty when its EOF is read.
    #[test]
    fn clean_eof_with_a_job_in_flight_delivers_its_reply() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        a.send(&[get(1, GATED, 0), get(2, INLINE, 0)].concat());
        a.w.shutdown(Shutdown::Write).expect("half-close");
        side.barrier(); // the EOF was seen with job 1 blocked at the gate
        a.assert_quiet();
        // A half-closed socket stays readable for good; the reactor must
        // not spin on it while it waits for the worker.
        let turns = *h.shared.turns.lock();
        std::thread::sleep(Duration::from_millis(50));
        assert!(*h.shared.turns.lock() - turns < 8, "reactor is spinning");
        h.gate.send(()).expect("open gate");
        assert_eq!([a.reply().0, a.reply().0], [1, 2]);
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
    }

    #[test]
    fn completion_for_a_closed_and_reused_slot_is_dropped() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        // Job 1 goes to worker 0 and blocks at the gate; the inline reply
        // parks behind it and goes down with the connection, like the
        // job's completion. (A clean EOF would keep the slot until job 1
        // is answered; garbage closes it now.)
        let garbage = b"BOGUS / HTTP/1.0\r\n\r\n".to_vec();
        a.send(&[get(1, GATED, 0), get(2, INLINE, 0), garbage].concat());
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
        let mut b = Peer::connect(h.addr);
        b.send(&get(5, INLINE, 0));
        assert_eq!(b.reply().0, 5);
        {
            let seen = h.shared.seen.lock();
            let token_of = |req| seen.iter().find(|(_, r)| *r == req).expect("seen").0;
            let (old, new) = (token_of(1), token_of(5));
            assert_eq!(old & 0xffff_ffff, new & 0xffff_ffff, "slot not reused");
            assert_ne!(old, new, "generation not bumped");
        }
        // Job 8 queues on worker 0 behind job 1: by the time its reply is
        // here, job 1's completion has been applied — to nobody.
        h.gate.send(()).expect("open gate");
        b.send(&[get(7, JOB, 0), get(8, JOB, 0)].concat());
        assert_eq!([b.reply().0, b.reply().0], [7, 8]);
        b.assert_quiet();
    }

    /// The loops this runtime replaced ticked on idleness: a fixed wait
    /// timeout, restarted by every wake, acted on only when a wake came
    /// back empty — under steady traffic the §5 retry never fired.
    #[test]
    fn deadline_fires_while_the_loop_is_busy() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let stop = Arc::new(AtomicBool::new(false));
        let hammer = {
            let (addr, stop) = (h.addr, Arc::clone(&stop));
            std::thread::spawn(move || {
                // Back-to-back round trips: every wake has I/O to do.
                let mut side = Peer::connect(addr);
                while !stop.load(Ordering::SeqCst) {
                    side.barrier();
                }
            })
        };
        a.send(&encode(&HttpMsg::Hello {
            partition: 0,
            partitions: 1,
        }));
        let pushed = matches!(a.r.next_msg(), Ok(HttpMsgRef::InvalidateServer { .. }));
        stop.store(true, Ordering::SeqCst);
        hammer.join().expect("hammer");
        assert!(pushed, "deadline did not fire under load");
    }

    // ---- the connection slab on its own ----

    #[test]
    fn stale_tokens_are_ignored_after_reuse() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("poller");
        let mut conns: Conns<u8> = Conns::with_capacity(4);

        let c1 = TcpStream::connect(addr).expect("connect");
        let (s1, _) = listener.accept().expect("accept");
        let tok1 = conns.insert(&mut poller, s1, 1).expect("insert");
        conns.close(&mut poller, tok1);
        assert_eq!(live(&conns), 0);

        // The slot is reused with a bumped generation: the old token no
        // longer resolves.
        let c2 = TcpStream::connect(addr).expect("connect");
        let (s2, _) = listener.accept().expect("accept");
        let tok2 = conns.insert(&mut poller, s2, 2).expect("insert");
        assert_ne!(tok1, tok2);
        assert!(conns.get_mut(tok1).is_none());
        assert_eq!(conns.get_mut(tok2).map(|c| c.tag), Some(2));
        drop((c1, c2));
    }

    #[test]
    fn flush_arms_and_disarms_write_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("poller");
        let mut conns: Conns<()> = Conns::with_capacity(1);

        let mut peer = TcpStream::connect(addr).expect("connect");
        let (srv, _) = listener.accept().expect("accept");
        let tok = conns.insert(&mut poller, srv, ()).expect("insert");

        // Queue more than the socket buffer absorbs in one write so the
        // partial-write path arms write interest.
        let chunk = [0x5au8; 1 << 20];
        {
            let conn = conns.get_mut(tok).expect("conn");
            conn.sbuf.push_bytes(&chunk);
            conn.sbuf.push_bytes(&chunk);
        }
        assert!(conns.flush(&mut poller, tok));
        let armed = conns.get_mut(tok).expect("conn").interest.writable;

        // Drain the peer until everything went through.
        peer.set_nonblocking(true).expect("nonblocking");
        let mut sink = [0u8; 65536];
        let mut received = 0usize;
        let mut events = Vec::with_capacity(8);
        while received < 2 * chunk.len() {
            match peer.read(&mut sink) {
                Ok(0) => break,
                Ok(n) => received += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    poller
                        .wait(&mut events, Some(std::time::Duration::from_millis(50)))
                        .expect("wait");
                    if !conns.flush(&mut poller, tok) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        assert_eq!(received, 2 * chunk.len());
        let conn = conns.get_mut(tok).expect("conn");
        assert!(conn.sbuf.is_empty());
        assert!(
            armed || !conn.interest.writable,
            "interest bookkeeping diverged"
        );

        // close_after_flush on a drained buffer closes immediately.
        conns.get_mut(tok).expect("conn").close_after_flush = true;
        assert!(!conns.flush(&mut poller, tok));
        assert_eq!(live(&conns), 0);
        let _ = peer.flush();
    }
}
