//! The serve-tier node runtime: one thread, one reactor loop, one frame
//! pump — and three roles.
//!
//! Every node (origin, proxy, parent) is a [`Role`] run by [`spawn`] on a
//! single thread: the runtime owns the sockets, the role owns the protocol.
//! What lives here, once:
//!
//! * the `Poller::wait` loop, its timeout driven by the earliest of the
//!   role's deadline and the runtime's own re-dial deadline (a due
//!   deadline fires after any wake, busy or idle);
//! * a slab of non-blocking connections keyed by generation tokens, each
//!   with a receive buffer socket reads land in directly (frames decode
//!   from it in place via `wcc_proto::zero::decode_frame`: a reply's body
//!   stays borrowed, every other frame is the owned `HttpMsg` the role
//!   takes by value — and a read that comes back short ends the round: no
//!   extra `recv` to hear `EAGAIN`) and a send buffer that absorbs partial
//!   writes and that frames are encoded straight into
//!   (`wcc_proto::encode_into`: no `Vec` per frame). Write interest is
//!   armed only while output is queued, so an idle keep-alive connection
//!   costs one registered fd and two empty buffers;
//! * the flush rule: output queued during a turn leaves in one `send(2)`
//!   per connection at the turn's end. Queuing output, or write readiness,
//!   marks a connection dirty; each is flushed once, after the outbox, which
//!   settles its poller interest and closes it if it was to close drained.
//!   A connection whose pipeline head is an outstanding ticket keeps its
//!   queued replies, so the replies ahead of a miss leave with its answer
//!   in the same send — unless one of its tickets was redeemed this turn,
//!   its pipeline is full, or it is at EOF or set to close. A push, and
//!   bytes an earlier flush left unsent, are never held, and held output
//!   arms no write interest;
//! * the frame pump: read → decode → [`Role::on_frame`] → consume, then
//!   keep / close-after-flush / close. A clean EOF (a half-closing
//!   HTTP/1.0 client) closes only once every reply the peer is still owed
//!   — queued, parked or deferred — has been flushed. The runtime answers
//!   `GET /metrics` itself, last on its connection, and closes behind it;
//! * the reply pipeline: every request a role answers takes the
//!   connection's next sequence number, whether [`Cx::reply`] answers it
//!   now or [`Cx::defer`] takes a [`Ticket`] for it, and replies leave
//!   strictly in that order — one mechanism: a reply that is ready early
//!   parks on its connection until everything ahead of it went out. A
//!   connection owed [`MAX_PIPELINE`] replies is not read from until one
//!   left, so what a peer can make the node hold for it is bounded;
//! * the outbox ([`Out`]) — "push this frame to that other connection",
//!   "redeem that ticket" — delivered after each batch of events; whatever
//!   is addressed to a connection that closed (even if its slot was
//!   reused) is dropped;
//! * the one way in from another thread, [`Node::call`]: the call waits in
//!   the node's inbox and runs on the next wake with the role, the node's
//!   time and the outbox; the inbox dies with the thread, so a call to a
//!   dead node fails;
//! * the node's one clock: roles are told the time ([`Cx::now`], the `now`
//!   passed in) and read none;
//! * the one connection to the upstream node ([`UPSTREAM`]): its first
//!   frame is the node's `HELLO`, misses are forwarded up it, and
//!   invalidations are pushed down it and acknowledged on it. [`spawn`]
//!   dials it synchronously, so an unreachable upstream fails fast, and it
//!   is re-dialled, at most once per 250 ms, while it is down (the §5
//!   reconnect);
//! * the graceful drain on shutdown.
//!
//! A role never blocks. It touches only what [`Cx`] hands it — its own
//! connection's tag and reply pipeline, and the outbox — and all of it is
//! bounded work in memory: no socket or file I/O, no lock, no clock; its
//! state has one owner, the node's thread. A request that cannot be
//! answered from memory is *deferred*: the role takes a [`Ticket`], the
//! promise that this connection's reply pipeline holds a place for the
//! answer, sends what it needs upstream through the outbox, and returns.
//! On whatever later turn the upstream's reply arrives, the role redeems
//! the ticket ([`Out::Redeem`]) with the answer, or with `None` if there
//! will be none: then what is ahead of it still flushes and the connection
//! closes. A ticket whose connection is gone is redeemed into nothing.
//! Every ticket is redeemed exactly once.
//!
//! Dispatch is static (`Runtime<R: Role>`). Everything here runs once per
//! readiness event at 10k-connection scale; what the proxy's thread
//! allocates over a run of hits is the trajectory's `serve.run_allocs` row.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::Duration;
use wcc_proto::{decode_frame, encode_into, HttpMsg, HttpMsgRef, WireError};
use wcc_reactor::{Event, Interest, Poller, RecvBuf, SendBuf, WakeHandle, Waker};
use wcc_types::{SimDuration, SimTime, WallClock};

/// Token of the node's listener.
const TOK_LISTENER: u64 = 0;
/// Token of the reactor's waker pipe.
const TOK_WAKER: u64 = 1;
/// Outbox address of the connection to the upstream, whichever socket
/// currently carries it. A frame pushed here while it is down is
/// dropped; [`Role::on_redial`] says when to send it again.
pub(crate) const UPSTREAM: u64 = 2;
/// First token handed to accepted connections; everything below is a
/// fixed singleton.
const FIRST_CONN: u64 = 16;

/// Replies one connection may be owed (deferred, or parked behind a
/// deferred one) before the runtime stops reading from it.
pub(crate) const MAX_PIPELINE: u64 = 64;

/// The least time between two dials of the upstream; also bounds each
/// dial, which runs on the reactor thread.
const REDIAL: SimDuration = SimDuration::from_millis(250);

/// How long a node whose handle is gone waits for its deferred replies.
const DRAIN: SimDuration = SimDuration::from_secs(1);

/// What the pump does with a connection after a frame was handled.
pub(crate) enum After {
    Keep,
    /// Close now (protocol violation).
    Close,
}

/// Where a connection came from; the role picks its tag from this.
#[derive(Clone, Copy)]
pub(crate) enum Via {
    Listener,
    /// The runtime-dialled connection to the upstream node.
    Upstream,
}

/// A place in one connection's reply pipeline, held for a reply that is
/// not ready yet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    token: u64,
    seq: u64,
}

/// What a role wants done on a connection other than the one being pumped.
pub(crate) enum Out {
    /// Queue the frame for the connection the token names (or [`UPSTREAM`]).
    Push(u64, HttpMsg),
    /// The reply leaves on the ticket's connection once everything ahead
    /// of it did; `None` closes the connection behind what is ahead.
    Redeem(Ticket, Option<HttpMsg>),
}

pub(crate) type Outbox = Vec<Out>;

/// What a handle has run on its node's thread.
type Call<R> = Box<dyn FnOnce(&mut Runtime<R>) + Send>;

/// What a node's reactor has done, counted on its thread: poll-wait returns, the readiness
/// events they brought, the receive buffers' reads (short and refused ones too), the send
/// buffers' writes (partial ones too) and bytes written, and the connections' poller
/// registrations added, changed and deleted.
#[derive(Default, Clone, Copy)]
pub(crate) struct ReactorCounters {
    pub wakes: u64,
    pub events: u64,
    pub recv_calls: u64,
    pub send_calls: u64,
    pub send_bytes: u64,
    pub ctl_calls: u64,
}

impl ReactorCounters {
    /// Publishes the counters into a node's registry.
    #[rustfmt::skip]
    pub fn render(&self, r: &mut wcc_obs::Registry, labels: &[(&str, &str)]) {
        for (name, help, value) in [
            ("wcc_reactor_wakes_total", "Returns from the reactor's poll wait.", self.wakes),
            ("wcc_reactor_events_total", "Readiness events the reactor handled.", self.events),
            ("wcc_reactor_recv_calls_total", "Socket reads, short and WouldBlock ones too.", self.recv_calls),
            ("wcc_reactor_send_calls_total", "Socket writes, partial ones too.", self.send_calls),
            ("wcc_reactor_send_bytes_total", "Bytes written to sockets.", self.send_bytes),
            ("wcc_reactor_poll_ctl_total", "Poller registrations added, modified or deleted.", self.ctl_calls),
        ] {
            r.set_counter(name, help, labels, value);
        }
    }
}

/// One node's protocol, driven by the runtime on the node's only thread.
pub(crate) trait Role: Sized + Send + 'static {
    /// Per-connection state the role keeps (what kind of peer this is).
    type Tag: Send;

    /// The tag of a freshly accepted (or dialled) connection.
    fn tag(&self, via: Via) -> Self::Tag;
    /// Handles one decoded frame. Replies go through `cx`; the frame is
    /// consumed from the receive buffer on return.
    fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: HttpMsgRef<'_>) -> After;
    /// The node's Prometheus text exposition, `reactor` included.
    fn render_metrics(&self, reactor: &ReactorCounters) -> String;
    /// `n` connections were dropped by the runtime: accept/registration
    /// failures, or a ticket redeemed with `None` forcing a close.
    fn on_dropped(&mut self, _n: u64) {}
    /// When the role's next deadline is due, on the node's clock.
    fn next_deadline(&self) -> Option<SimTime> {
        None
    }
    /// Called after a wake once [`Role::next_deadline`] is `now` or earlier.
    fn on_deadline(&mut self, _now: SimTime, _out: &mut Outbox) {}
    /// The upstream connection had dropped and was just dialled again:
    /// with `up`, whatever was in flight on the old one can be sent again
    /// to [`UPSTREAM`], behind the `HELLO`; without, it is lost until the
    /// next attempt.
    fn on_redial(&mut self, _up: bool, _out: &mut Outbox) {}
}

/// The sooner of two optional deadlines.
pub(crate) fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The upstream a proxy or parent dials, and how it registers there.
pub(crate) struct Hello {
    pub upstream: SocketAddr,
    pub partition: u32,
    pub partitions: u32,
}

impl Hello {
    /// Dials the upstream, bounded by [`REDIAL`].
    fn dial(&self) -> io::Result<TcpStream> {
        let bound = Duration::from_micros(REDIAL.as_micros());
        let stream = TcpStream::connect_timeout(&self.upstream, bound)?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }
}

/// The runtime-dialled connection to the upstream.
#[derive(Default)]
struct Link {
    /// Its token while it is up.
    token: Option<u64>,
    /// The node's time at the last dial, successful or not.
    dialled: SimTime,
}

/// What [`Role::on_frame`] may touch: the pumped connection's tag and
/// reply pipeline, the outbox and the node's clock.
pub(crate) struct Cx<'a, R: Role> {
    /// The pumped connection's token (what an [`Out::Push`] targets).
    pub token: u64,
    pub tag: &'a mut R::Tag,
    /// What is to happen on other connections.
    pub out: &'a mut Outbox,
    clock: &'a WallClock,
    sbuf: &'a mut SendBuf,
    next_assign: &'a mut u64,
    next_send: &'a mut u64,
    parked: &'a mut Vec<(u64, Option<HttpMsg>)>,
    deferred: &'a mut u32,
}

impl<R: Role> Cx<'_, R> {
    /// The node's time, as its runtime's clock reads it now.
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + self.clock.elapsed()
    }

    /// The connection's next pipeline sequence number.
    fn assign(&mut self) -> u64 {
        let seq = *self.next_assign;
        *self.next_assign += 1;
        seq
    }

    /// Answers the frame being handled. The reply takes the connection's
    /// next sequence number like a deferred one does: it is encoded into
    /// the send buffer at once when nothing earlier is still deferred, and
    /// otherwise parks until everything ahead of it was redeemed — a peer
    /// never sees replies out of request order.
    pub fn reply(&mut self, msg: HttpMsg) {
        let seq = self.assign();
        if seq == *self.next_send {
            *self.next_send += 1;
            encode_into(&msg, self.sbuf.tail());
        } else {
            self.parked.push((seq, Some(msg)));
        }
    }

    /// Holds the frame's place in the reply pipeline for an answer that
    /// comes later, through [`Out::Redeem`].
    pub fn defer(&mut self) -> Ticket {
        *self.deferred += 1;
        Ticket {
            token: self.token,
            seq: self.assign(),
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
    /// Close once the send buffer drains (a scrape, a failed ticket, EOF).
    close_after_flush: bool,
    /// On the runtime's list of connections flushed at the turn's end.
    dirty: bool,
    /// A ticket of this connection was redeemed, or a frame pushed to it,
    /// during this turn: its output leaves at the turn's end even with the
    /// pipeline's head still owed.
    send_now: bool,
    /// Pipeline ordering: every reply — deferred or not — takes a sequence
    /// number when its request is handled and replies are delivered
    /// strictly in that order; early finishers park.
    next_assign: u64,
    next_send: u64,
    parked: Vec<(u64, Option<HttpMsg>)>,
    tag: T,
}

impl<T> Conn<T> {
    /// Reads everything currently available; sets [`Conn::eof`] on peer
    /// close. `Ok(())` means "no fatal error" — the caller decodes next.
    /// A peer that sends its last bytes and closes at once may have its
    /// EOF noticed one wake later: the socket stays readable until then.
    fn read_ready(&mut self) -> io::Result<()> {
        if self.rbuf.fill_available(&mut self.stream)? {
            self.eof = true;
        }
        Ok(())
    }

    /// The pipeline is full: no further request is decoded, or read,
    /// until a reply left.
    fn stalled(&self) -> bool {
        self.next_assign - self.next_send >= MAX_PIPELINE
    }

    /// Queued output waits for the outstanding ticket at the pipeline's
    /// head, so that the replies ahead of a miss leave with its answer —
    /// unless a ticket was redeemed or a frame pushed here this turn, the
    /// pipeline is full, the peer is done, or an earlier flush left bytes
    /// unsent (write interest is armed).
    fn holds(&self) -> bool {
        self.next_send != self.next_assign
            && !self.send_now
            && !self.stalled()
            && !self.eof
            && !self.close_after_flush
            && !self.interest.writable
    }
}

/// Connection slab with generation-checked tokens.
///
/// Tokens are `(generation << 32) | (index + FIRST_CONN)`: a redemption
/// or queued push addressed to a connection that was closed and whose
/// slot was reused simply fails the generation check and is dropped.
struct Conns<T> {
    slots: Vec<Slot<T>>,
    free: Vec<usize>,
    /// The node's reactor counters: the sends are made here.
    counters: ReactorCounters,
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
            counters: ReactorCounters::default(),
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
        #[expect(clippy::indexing_slicing, reason = "a free slot, or pushed above")]
        let slot = &mut self.slots[idx];
        let token = token_of(idx, slot.gen);
        self.counters.ctl_calls += 1;
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
            dirty: false,
            send_now: false,
            next_assign: 0,
            next_send: 0,
            // An empty `Vec` owns no heap until a reply parks.
            parked: Vec::new(),
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
            self.counters.ctl_calls += 1;
        }
    }

    /// Flushes queued output, unless the connection [holds](Conn::holds)
    /// it, and keeps the poller's interest in sync. Returns `false` if the
    /// connection was closed (fatal write error, or drained with
    /// `close_after_flush`).
    fn flush(&mut self, poller: &mut Poller, token: u64) -> bool {
        use std::os::fd::AsRawFd;
        let Some(conn) = self.get_mut(token) else {
            return false;
        };
        conn.dirty = false;
        let held = conn.holds();
        conn.send_now = false;
        let (writes, pending) = (conn.sbuf.writes(), conn.sbuf.pending());
        // Held output waits for a redemption, not for writability.
        let flushed = if held {
            Ok(true)
        } else {
            conn.sbuf.flush(&mut conn.stream)
        };
        let calls = conn.sbuf.writes() - writes;
        let sent = pending - conn.sbuf.pending();
        let mut modified = false;
        let open = match flushed {
            Ok(drained) if !(drained && conn.close_after_flush) => {
                // Write interest only while output is queued. Read interest only while a
                // request could be taken — not with a full pipeline — and only until the
                // peer's EOF: readiness is level-triggered, so a half-closed socket kept
                // open for a deferred reply would otherwise wake the loop until it arrives.
                let want = Interest {
                    readable: !conn.eof && !conn.stalled(),
                    writable: !drained,
                };
                if want != conn.interest {
                    conn.interest = want;
                    modified = true;
                    let _ = poller.modify(conn.stream.as_raw_fd(), token, want);
                }
                true
            }
            _ => false,
        };
        self.counters.send_calls += calls;
        self.counters.send_bytes += sent as u64;
        self.counters.ctl_calls += u64::from(modified);
        if !open {
            self.close(poller, token);
        }
        open
    }
}

/// A running node: its one thread. Shuts it down (and joins it) on drop.
pub(crate) struct Node<R: Role> {
    /// The node's inbox; dropping it is the shutdown request.
    calls: Option<Sender<Call<R>>>,
    /// Makes `Poller::wait` return so a call, or the shutdown, is seen.
    wake: WakeHandle,
    thread: Option<JoinHandle<()>>,
}

impl<R: Role> Node<R> {
    /// Runs `f` on the node's thread between events, with the role, the
    /// node's time and the outbox, and returns what it returned;
    /// `BrokenPipe` if the thread is gone, or goes before it runs `f`.
    pub fn call<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut R, SimTime, &mut Outbox) -> T + Send + 'static,
    ) -> io::Result<T> {
        self.on_thread(move |rt| {
            let now = rt.now();
            f(&mut rt.role, now, &mut rt.outbox)
        })
    }

    /// The node's Prometheus text exposition — what `GET /metrics` on its
    /// listener returns; empty if the node's thread is gone.
    pub fn metrics_text(&self) -> String {
        self.on_thread(|rt| rt.role.render_metrics(&rt.conns.counters))
            .unwrap_or_default()
    }

    /// Runs `f` on the node's thread between events; see [`Node::call`].
    fn on_thread<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Runtime<R>) -> T + Send + 'static,
    ) -> io::Result<T> {
        let (tx, rx) = mpsc::sync_channel(1);
        // One box per call, on the caller's thread.
        let call: Call<R> = Box::new(move |rt| tx.send(f(rt)).unwrap_or(()));
        let calls = self.calls.as_ref();
        if calls.is_some_and(|calls| calls.send(call).is_ok()) {
            self.wake.wake();
        }
        rx.recv().map_err(|_| io::ErrorKind::BrokenPipe.into())
    }
}

impl<R: Role> Drop for Node<R> {
    fn drop(&mut self) {
        self.calls = None;
        self.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Starts `role` on `listener` (plus the connection to the upstream
/// `hello` names). The node's thread exists by the time this returns.
///
/// # Errors
///
/// Returns socket errors from the upstream dial or reactor set-up; no
/// thread is left behind on failure.
pub(crate) fn spawn<R: Role>(
    role: R,
    listener: TcpListener,
    hello: Option<Hello>,
) -> io::Result<Node<R>> {
    use std::os::fd::AsRawFd;
    // Dial first: an unreachable upstream fails the spawn.
    let dialled = hello.as_ref().map(Hello::dial).transpose()?;
    let mut poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    let waker = Waker::new()?;
    waker.register(&mut poller, TOK_WAKER)?;
    let wake = waker.handle()?;
    let (calls, inbox) = mpsc::channel();

    let mut rt = Runtime {
        role,
        poller,
        waker,
        listener,
        conns: Conns::with_capacity(256),
        outbox: Vec::with_capacity(64),
        dirty: Vec::with_capacity(256),
        inbox,
        #[expect(
            clippy::disallowed_methods,
            reason = "the runtime owns the node's one clock and tells its role the time"
        )]
        clock: WallClock::start(),
        deferred: 0,
        hello,
        upstream: Link::default(),
    };
    if let Some(stream) = dialled {
        rt.adopt(stream);
    }
    let thread = std::thread::spawn(move || rt.run());
    Ok(Node {
        calls: Some(calls),
        wake,
        thread: Some(thread),
    })
}

/// Everything the node's thread owns.
struct Runtime<R: Role> {
    role: R,
    poller: Poller,
    waker: Waker,
    listener: TcpListener,
    conns: Conns<R::Tag>,
    outbox: Outbox,
    /// Tokens of the connections flushed at the end of this turn.
    dirty: Vec<u64>,
    /// [`Node::call`]'s queue, run when the waker fires.
    inbox: Receiver<Call<R>>,
    /// The node's one clock: what every role is told the time is.
    clock: WallClock,
    /// Tickets taken and not yet redeemed.
    deferred: u32,
    hello: Option<Hello>,
    /// The connection to the upstream ([`UPSTREAM`]).
    upstream: Link,
}

impl<R: Role> Runtime<R> {
    /// The node's whole serving tier: one loop, every connection.
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        // Started once the handle is gone: deferred replies get a bounded
        // window to arrive and flush before everything closes.
        let mut draining: Option<SimTime> = None;
        // The `HELLO` [`spawn`] queued leaves before the first wait.
        self.deliver_outbox();
        self.flush_dirty();
        loop {
            let timeout = match draining {
                Some(_) => Some(Duration::from_millis(20)),
                None => earliest(self.role.next_deadline(), self.redial_due())
                    .map(|due| Duration::from_micros(due.saturating_since(self.now()).as_micros())),
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.conns.counters.wakes += 1;
            self.conns.counters.events += events.len() as u64;
            for ev in events.iter().copied() {
                match ev.token {
                    TOK_LISTENER => self.accept(),
                    TOK_WAKER => {
                        if !self.take_calls() {
                            draining.get_or_insert(self.now());
                        }
                    }
                    tok => {
                        if ev.writable {
                            self.mark(tok);
                        }
                        if ev.readable || ev.error {
                            self.pump(tok);
                        }
                    }
                }
            }
            let now = self.now();
            if self.redial_due().is_some_and(|due| due <= now) {
                self.redial(now);
            }
            if self.role.next_deadline().is_some_and(|due| due <= now) {
                self.role.on_deadline(now, &mut self.outbox);
            }
            self.deliver_outbox();
            self.flush_dirty();
            if draining.is_some_and(|since| self.deferred == 0 || now - since >= DRAIN) {
                break;
            }
        }
        // One last best-effort flush; dropping the runtime closes the rest.
        for conn in self.conns.slots.iter_mut().filter_map(|s| s.conn.as_mut()) {
            let _ = conn.sbuf.flush(&mut conn.stream);
        }
    }

    /// The node's time.
    fn now(&self) -> SimTime {
        SimTime::ZERO + self.clock.elapsed()
    }

    /// Runs every queued call, in arrival order. `false` once the handle
    /// is gone.
    fn take_calls(&mut self) -> bool {
        // Drained first: a call queued after this wakes the loop again.
        self.waker.drain();
        loop {
            match self.inbox.try_recv() {
                Ok(call) => call(self),
                Err(e) => return e == TryRecvError::Empty,
            }
        }
    }

    /// When the next upstream re-dial is due; `None` while the connection
    /// is up (or the role has no upstream).
    fn redial_due(&self) -> Option<SimTime> {
        self.hello.as_ref()?;
        let link = &self.upstream;
        link.token.is_none().then_some(link.dialled + REDIAL)
    }

    /// Dials the upstream again; the role then sends what was in flight.
    fn redial(&mut self, now: SimTime) {
        self.upstream.dialled = now;
        let stream = self.hello.as_ref().and_then(|hello| hello.dial().ok());
        let up = stream.is_some_and(|stream| self.adopt(stream));
        self.role.on_redial(up, &mut self.outbox);
    }

    /// Registers a freshly dialled upstream connection; its first frame is our `HELLO`.
    fn adopt(&mut self, stream: TcpStream) -> bool {
        let tag = self.role.tag(Via::Upstream);
        self.upstream.token = self.conns.insert(&mut self.poller, stream, tag).ok();
        if let Some(hello) = &self.hello {
            let hello = HttpMsg::Hello {
                partition: hello.partition,
                partitions: hello.partitions,
            };
            self.outbox.push(Out::Push(UPSTREAM, hello));
        }
        self.upstream.token.is_some()
    }

    /// Accepts every pending connection on the non-blocking listener.
    /// Connections that cannot be accepted or registered (fd exhaustion)
    /// are reported through [`Role::on_dropped`].
    fn accept(&mut self) {
        let mut dropped = 0u64;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let tag = self.role.tag(Via::Listener);
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

    /// Bookkeeping for a connection that is gone. The upstream connection
    /// is dialled again as soon as its last dial is [`REDIAL`] old — at
    /// once, if it had been up that long.
    fn closed(&mut self, token: u64) {
        if self.upstream.token == Some(token) {
            self.upstream.token = None;
        }
    }

    /// Puts a connection on the list flushed at the end of the turn.
    fn mark(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(token).filter(|conn| !conn.dirty) {
            conn.dirty = true;
            self.dirty.push(token);
        }
    }

    /// The end of the turn: flushes every connection marked during it,
    /// once, noticing the ones that closed.
    fn flush_dirty(&mut self) {
        while let Some(token) = self.dirty.pop() {
            if !self.conns.flush(&mut self.poller, token) {
                self.closed(token);
            }
        }
    }

    /// Delivers the outbox. Redeeming a ticket may pump a connection that
    /// was stalled and so queue more, hence the loop.
    fn deliver_outbox(&mut self) {
        while !self.outbox.is_empty() {
            let mut batch = std::mem::take(&mut self.outbox);
            for out in batch.drain(..) {
                let (tok, msg) = match (out, self.upstream.token) {
                    (Out::Redeem(ticket, reply), _) => {
                        self.redeem(ticket, reply);
                        continue;
                    }
                    (Out::Push(UPSTREAM, msg), Some(requests)) => (requests, msg),
                    (Out::Push(UPSTREAM, _), None) => continue,
                    (Out::Push(tok, msg), _) => (tok, msg),
                };
                if let Some(conn) = self.conns.get_mut(tok) {
                    encode_into(&msg, conn.sbuf.tail());
                    conn.send_now = true;
                }
                self.mark(tok);
            }
            // Keep the grown buffer unless a pump already queued more.
            if self.outbox.is_empty() {
                self.outbox = batch;
            }
        }
    }

    /// Reads and dispatches every complete frame on one connection, up to
    /// a full pipeline.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let reads = conn.rbuf.reads();
        let read = conn.read_ready();
        let reads = conn.rbuf.reads() - reads;
        self.conns.counters.recv_calls += reads;
        if read.is_err() {
            return self.close(token);
        }
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.stalled() {
                break; // `redeem` resumes here
            }
            let owed = conn.next_send != conn.next_assign;
            let after = match decode_frame(conn.rbuf.data(), conn.eof) {
                Ok(None) => break, // mid-frame; more bytes may arrive
                // Clean EOF between frames (a half-closing HTTP/1.0 client):
                // every reply still owed goes out first. `redeem` closes
                // behind the last deferred one ...
                Err(WireError::Closed) if owed => break,
                // ... and what is already queued flushes before the close.
                Err(WireError::Closed) => {
                    conn.close_after_flush = true;
                    break;
                }
                Err(_) => After::Close,
                // A scrape is answered last on its connection, so it waits
                // for every reply ahead of it; `redeem` resumes here.
                Ok(Some((HttpMsgRef::Owned(HttpMsg::MetricsGet), _))) if owed => break,
                Ok(Some((HttpMsgRef::Owned(HttpMsg::MetricsGet), used))) => {
                    conn.rbuf.consume(used);
                    let exposition = self.role.render_metrics(&self.conns.counters);
                    let response = crate::scrape::metrics_response(&exposition);
                    if let Some(conn) = self.conns.get_mut(token) {
                        conn.sbuf.push_bytes(&response);
                        conn.close_after_flush = true;
                    }
                    break;
                }
                Ok(Some((msg, used))) => {
                    let mut cx = Cx {
                        token,
                        tag: &mut conn.tag,
                        out: &mut self.outbox,
                        clock: &self.clock,
                        sbuf: &mut conn.sbuf,
                        next_assign: &mut conn.next_assign,
                        next_send: &mut conn.next_send,
                        parked: &mut conn.parked,
                        deferred: &mut self.deferred,
                    };
                    let after = self.role.on_frame(&mut cx, msg);
                    conn.rbuf.consume(used);
                    after
                }
            };
            if let After::Close = after {
                return self.close(token);
            }
        }
        self.mark(token);
    }

    /// Redeems one ticket: park its reply, then deliver every reply that
    /// is next in pipeline order — parked [`Cx::reply`]s included. A
    /// redemption for a connection that is gone — or already closing — is
    /// dropped, and so is whatever was parked there.
    fn redeem(&mut self, ticket: Ticket, reply: Option<HttpMsg>) {
        self.deferred -= 1;
        let Some(conn) = self.conns.get_mut(ticket.token) else {
            return;
        };
        if conn.close_after_flush {
            return;
        }
        conn.send_now = true;
        let stalled = conn.stalled();
        conn.parked.push((ticket.seq, reply));
        while let Some(i) = conn.parked.iter().position(|(s, _)| *s == conn.next_send) {
            let (_, msg) = conn.parked.swap_remove(i);
            conn.next_send += 1;
            match msg {
                Some(m) => encode_into(&m, conn.sbuf.tail()),
                None => {
                    // There will be no answer (upstream down): deliver
                    // what we have, then drop the connection so the peer
                    // re-dials.
                    conn.close_after_flush = true;
                    self.role.on_dropped(1);
                    break;
                }
            }
        }
        // Requests left undecoded (and unread) behind a full pipeline, or a scrape
        // behind the replies it waited for: no readiness event announces them again.
        let drained = conn.next_send == conn.next_assign;
        let resume = stalled && !conn.stalled() || drained && !conn.rbuf.is_empty();
        if resume && !conn.close_after_flush {
            return self.pump(ticket.token);
        }
        // The peer half-closed while replies were owed: that was the last.
        if conn.eof && drained {
            conn.close_after_flush = true;
        }
        self.mark(ticket.token);
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "tests drive a node from outside over blocking sockets"
)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::Shutdown;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::{Arc, Mutex};
    use wcc_proto::{encode, FrameReader, GetRequest, Reply, ReplyStatus, RequestId};
    use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, Url};

    fn live<T>(conns: &Conns<T>) -> usize {
        conns
            .slots
            .iter()
            .filter(|slot| slot.conn.is_some())
            .count()
    }

    // ---- the runtime, driven by a toy echo role over loopback ----

    /// Answered at once.
    const INLINE: ClientId = ClientId::from_raw(0);
    /// Deferred: a ticket is taken and held until a release names it.
    const DEFER: ClientId = ClientId::from_raw(1);
    /// Redeems the deferred request whose id is this frame's document
    /// index with its echo, from whatever connection this arrives on;
    /// answered at once itself.
    const RELEASE: ClientId = ClientId::from_raw(2);
    /// Like [`RELEASE`], but redeems with `None`: there is no answer.
    const FAIL: ClientId = ClientId::from_raw(3);
    /// Panics the role — once the test, told through the gate, says so.
    const DIE: ClientId = ClientId::from_raw(4);
    /// Answered at once, and pushes a frame back to its own connection
    /// through the outbox.
    const PUSH: ClientId = ClientId::from_raw(5);
    /// Larger than loopback socket buffers absorb: a flush of a reply
    /// this size stays partial until the peer reads.
    const BIG: u64 = 16 << 20;

    #[derive(Default)]
    struct EchoShared {
        /// `(token, req)` of every `GET` handled, in order.
        seen: Mutex<Vec<(u64, u64)>>,
        dropped: Mutex<u64>,
        /// Reactor loop turns, twice each (`next_deadline` calls).
        turns: Mutex<u64>,
    }

    /// Echoes each `GET` as a `200` whose body is `cache_hits` bytes long;
    /// the client id picks when (see the constants above). A `HELLO` arms a
    /// 30 ms deadline that pushes one frame back to the connection that
    /// sent it.
    struct Echo {
        shared: Arc<EchoShared>,
        held: Vec<(Ticket, GetRequest)>,
        push: Option<(u64, SimTime)>,
        /// [`DIE`]'s: "the thread is here", then wait for "go".
        gate: Option<(mpsc::Sender<()>, Receiver<()>)>,
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

        fn tag(&self, _via: Via) {}

        fn on_frame(&mut self, cx: &mut Cx<'_, Self>, msg: HttpMsgRef<'_>) -> After {
            match msg {
                HttpMsgRef::Owned(HttpMsg::Get(get)) => {
                    self.shared
                        .seen
                        .lock()
                        .unwrap()
                        .push((cx.token, get.req.get()));
                    if get.client == DIE {
                        if let Some((entered, go)) = self.gate.take() {
                            let _ = entered.send(());
                            let _ = go.recv();
                        }
                        panic!("echo role told to die");
                    }
                    if get.client == DEFER {
                        self.held.push((cx.defer(), get));
                        return After::Keep;
                    }
                    let named = |(_, held): &(Ticket, GetRequest)| {
                        get.client != INLINE && held.req.get() == u64::from(get.url.doc())
                    };
                    if let Some(i) = self.held.iter().position(named) {
                        let (ticket, held) = self.held.swap_remove(i);
                        let reply = (get.client == RELEASE).then(|| echo(&held));
                        cx.out.push(Out::Redeem(ticket, reply));
                    }
                    if get.client == PUSH {
                        let server = ServerId::new(0);
                        let push = HttpMsg::InvalidateServer { server };
                        cx.out.push(Out::Push(cx.token, push));
                    }
                    cx.reply(echo(&get));
                    After::Keep
                }
                HttpMsgRef::Owned(HttpMsg::Hello { .. }) => {
                    self.push = Some((cx.token, cx.now()));
                    After::Keep
                }
                HttpMsgRef::Reply(_)
                | HttpMsgRef::Owned(
                    HttpMsg::Reply(_)
                    | HttpMsg::Invalidate { .. }
                    | HttpMsg::InvalidateServer { .. }
                    | HttpMsg::InvalidateBatch { .. }
                    | HttpMsg::InvalidateBatchAck { .. }
                    | HttpMsg::InvalidateServerAck { .. }
                    | HttpMsg::InvalAck { .. }
                    | HttpMsg::MetricsGet
                    | HttpMsg::Notify { .. },
                ) => After::Close,
            }
        }

        fn on_dropped(&mut self, n: u64) {
            *self.shared.dropped.lock().unwrap() += n;
        }

        fn render_metrics(&self, reactor: &ReactorCounters) -> String {
            let mut r = wcc_obs::Registry::default();
            reactor.render(&mut r, &[("node", "echo")]);
            r.render()
        }

        fn next_deadline(&self) -> Option<SimTime> {
            *self.shared.turns.lock().unwrap() += 1;
            let (_, since) = self.push?;
            Some(since + SimDuration::from_millis(30))
        }

        fn on_deadline(&mut self, _now: SimTime, out: &mut Outbox) {
            if let Some((token, _)) = self.push.take() {
                let server = ServerId::new(0);
                out.push(Out::Push(token, HttpMsg::InvalidateServer { server }));
            }
        }
    }

    /// A running echo node.
    struct Harness {
        addr: SocketAddr,
        shared: Arc<EchoShared>,
        node: Node<Echo>,
    }

    fn start() -> Harness {
        start_gated(None)
    }

    fn start_gated(gate: Option<(mpsc::Sender<()>, Receiver<()>)>) -> Harness {
        let shared = Arc::new(EchoShared::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let role = Echo {
            shared: Arc::clone(&shared),
            held: Vec::new(),
            push: None,
            gate,
        };
        let node = spawn(role, listener, None).expect("spawn");
        Harness { addr, shared, node }
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
        /// been pumped — and that turn's outbox delivered — by the time it
        /// returns.
        fn barrier(&mut self) {
            for req in [9_000_001, 9_000_002] {
                self.send(&get(req, INLINE, 0));
                assert_eq!(self.reply().0, req);
            }
        }

        /// Sends a [`RELEASE`] (or [`FAIL`]) for `target` and waits for
        /// its own inline answer.
        fn release(&mut self, req: u64, mode: ClientId, target: u32) {
            self.send(&frame(req, mode, target, 0));
            assert_eq!(self.reply().0, req);
        }
    }

    fn frame(req: u64, mode: ClientId, doc: u32, body: u64) -> Vec<u8> {
        encode(&HttpMsg::Get(GetRequest {
            req: RequestId::new(req),
            url: Url::new(ServerId::new(0), doc),
            client: mode,
            ims: None,
            issued_at: SimTime::from_secs(1),
            cache_hits: body,
        }))
    }

    fn get(req: u64, mode: ClientId, body: u64) -> Vec<u8> {
        frame(req, mode, 0, body)
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
        assert!(h
            .shared
            .seen
            .lock()
            .unwrap()
            .iter()
            .all(|(_, req)| *req != 1));
        torn.send(&[*last]);
        assert_eq!(torn.reply(), (1, 3));
        side.barrier();
        torn.assert_quiet();
        let seen = h.shared.seen.lock().unwrap();
        assert_eq!(seen.iter().filter(|(_, req)| *req == 1).count(), 1);
    }

    #[test]
    fn tickets_redeemed_out_of_order_reply_in_order() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        // 4 is answered at once and still leaves last.
        a.send(
            &[
                get(1, DEFER, 0),
                get(2, DEFER, 0),
                get(3, DEFER, 0),
                get(4, INLINE, 0),
            ]
            .concat(),
        );
        side.barrier();
        // 3 and 2 are redeemed first: they park behind 1.
        side.release(30, RELEASE, 3);
        side.release(31, RELEASE, 2);
        side.barrier();
        a.assert_quiet();
        side.release(32, RELEASE, 1);
        assert_eq!([1, 2, 3, 4].map(|_| a.reply().0), [1, 2, 3, 4]);
        // Nothing is deferred any more: the next inline reply is direct.
        a.send(&get(5, INLINE, 0));
        assert_eq!(a.reply().0, 5);
    }

    #[test]
    fn failed_ticket_closes_after_earlier_replies_flush() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        a.send(&[get(1, DEFER, BIG), get(2, DEFER, 0), get(3, DEFER, 0)].concat());
        side.barrier();
        side.release(30, RELEASE, 3);
        side.release(31, FAIL, 2);
        // The first reply cannot flush in one go, so the failure behind it
        // finds output still queued; the third request's reply is dropped.
        side.release(32, RELEASE, 1);
        assert_eq!(a.reply(), (1, BIG as usize));
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
        assert_eq!(*h.shared.dropped.lock().unwrap(), 1);
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

    /// A request and the client's FIN that are both there when the reactor
    /// gets to the connection: the read that takes the request comes back
    /// short and ends the round without seeing the EOF, which must then be
    /// noticed on the next wake — answered first, closed after.
    #[test]
    fn a_request_and_fin_in_one_wake_are_answered_then_closed() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        side.barrier();
        // Building and queueing 16 MiB keeps the reactor's one thread busy
        // for far longer than loopback needs to deliver what `a` sends.
        side.send(&get(7, INLINE, BIG));
        a.send(&get(1, INLINE, 3));
        a.w.shutdown(Shutdown::Write).expect("half-close");
        assert_eq!(a.reply(), (1, 3));
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
        assert_eq!(side.reply(), (7, BIG as usize));
        let seen = h.shared.seen.lock().unwrap();
        assert_eq!(seen.iter().filter(|(_, req)| *req == 1).count(), 1);
    }

    /// A half-closing client is owed every deferred reply (and, parked
    /// behind it, the inline ones) even though the send buffer is empty
    /// when its EOF is read.
    #[test]
    fn clean_eof_with_a_ticket_outstanding_delivers_its_reply() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        a.send(&[get(1, DEFER, 0), get(2, INLINE, 0)].concat());
        a.w.shutdown(Shutdown::Write).expect("half-close");
        side.barrier(); // the EOF was seen with request 1 deferred
        a.assert_quiet();
        // A half-closed socket stays readable for good; the reactor must
        // not spin on it while it waits for the redemption.
        let turns = *h.shared.turns.lock().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            *h.shared.turns.lock().unwrap() - turns < 8,
            "reactor is spinning"
        );
        side.release(30, RELEASE, 1);
        assert_eq!([a.reply().0, a.reply().0], [1, 2]);
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
    }

    #[test]
    fn ticket_for_a_closed_and_reused_slot_is_dropped() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        // Request 1 is deferred; the inline reply parks behind it and goes
        // down with the connection. (A clean EOF would keep the slot until
        // 1 is answered; garbage closes it now.)
        let garbage = b"BOGUS / HTTP/1.0\r\n\r\n".to_vec();
        a.send(&[get(1, DEFER, 0), get(2, INLINE, 0), garbage].concat());
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
        // The slot's next tenant also starts with a deferred request, so
        // the old ticket and its own name the same slot and sequence
        // number; only the generation tells them apart.
        let mut b = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        b.send(&[get(5, DEFER, 0), frame(6, RELEASE, 1, 0)].concat());
        side.barrier();
        {
            let seen = h.shared.seen.lock().unwrap();
            let token_of = |req| seen.iter().find(|(_, r)| *r == req).expect("seen").0;
            let (old, new) = (token_of(1), token_of(5));
            assert_eq!(old & 0xffff_ffff, new & 0xffff_ffff, "slot not reused");
            assert_ne!(old, new, "generation not bumped");
        }
        b.assert_quiet(); // request 1's echo went to nobody
        side.release(7, RELEASE, 5);
        assert_eq!([b.reply().0, b.reply().0], [5, 6]);
        b.assert_quiet();
    }

    #[test]
    fn a_full_pipeline_is_not_read_past_until_a_reply_leaves() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        let total = 3 * MAX_PIPELINE;
        let burst: Vec<u8> = (1..=total).flat_map(|req| get(req, DEFER, 0)).collect();
        a.send(&burst);
        side.barrier();
        let handled = |h: &Harness| {
            h.shared
                .seen
                .lock()
                .unwrap()
                .iter()
                .filter(|(_, r)| *r <= total)
                .count()
        };
        assert_eq!(handled(&h) as u64, MAX_PIPELINE);
        // One reply leaves, one more request is taken — no new bytes
        // arrived to announce it.
        side.release(total + 1, RELEASE, 1);
        side.barrier();
        assert_eq!(a.reply().0, 1);
        assert_eq!(handled(&h) as u64, MAX_PIPELINE + 1);
        for req in 2..=total {
            side.release(total + req, RELEASE, req as u32);
            assert_eq!(a.reply().0, req);
        }
        a.assert_quiet();
    }

    /// Writes the node's send buffers have made so far.
    fn send_calls(h: &Harness) -> u64 {
        let counters = h.node.on_thread(|rt| rt.conns.counters);
        counters.expect("live node").send_calls
    }

    /// One pipelined window of 8 `GET`s, written at once, is read by one
    /// `recv` and answered by one `send`.
    #[test]
    fn a_pipelined_window_is_read_in_one_recv_and_answered_in_one_send() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        a.barrier();
        let counters = |h: &Harness| h.node.on_thread(|rt| rt.conns.counters).expect("live node");
        let before = counters(&h);
        let window: Vec<u8> = (1..=8).flat_map(|req| get(req, INLINE, 0)).collect();
        a.send(&window);
        for req in 1..=8 {
            assert_eq!(a.reply().0, req);
        }
        let after = counters(&h);
        assert_eq!(after.recv_calls - before.recv_calls, 1);
        assert_eq!(after.send_calls - before.send_calls, 1);
    }

    /// Tickets redeemed in one turn — each reply parked behind the one
    /// before, every inline reply behind them — leave in one write.
    #[test]
    fn redemptions_in_one_turn_leave_in_one_send() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        let n = 8;
        let deferred: Vec<u8> = (1..=n).flat_map(|req| get(req, DEFER, 0)).collect();
        a.send(&deferred);
        side.barrier();
        let before = send_calls(&h);
        // One write, so one read takes every release.
        let releases: Vec<u8> = (1..=n)
            .flat_map(|req| frame(n + req, RELEASE, req as u32, 0))
            .collect();
        a.send(&releases);
        let replies: Vec<u64> = (0..2 * n).map(|_| a.reply().0).collect();
        assert_eq!(replies, (1..=2 * n).collect::<Vec<_>>());
        assert_eq!(send_calls(&h) - before, 1);
    }

    #[test]
    fn a_reply_and_a_push_in_one_turn_leave_in_one_send() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        a.barrier();
        let before = send_calls(&h);
        a.send(&get(1, PUSH, 0));
        assert_eq!(a.reply().0, 1);
        let pushed = a.r.next_msg();
        assert!(matches!(
            pushed,
            Ok(HttpMsgRef::Owned(HttpMsg::InvalidateServer { .. }))
        ));
        assert_eq!(send_calls(&h) - before, 1);
    }

    /// A window of hit, miss, hit, miss: the first hit waits for the first
    /// miss's answer, so nothing leaves before a redemption.
    fn window_with_two_tickets(h: &Harness) -> Peer {
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        let window = [
            get(1, INLINE, 0),
            get(2, DEFER, 0),
            get(3, INLINE, 0),
            get(4, DEFER, 0),
        ];
        a.send(&window.concat());
        side.barrier();
        a.assert_quiet();
        a
    }

    /// Both tickets redeemed in one turn: the whole window leaves in one
    /// write, the hit ahead of the first miss included.
    #[test]
    fn a_window_whose_tickets_are_redeemed_in_one_turn_leaves_in_one_send() {
        let h = start();
        let mut a = window_with_two_tickets(&h);
        let before = send_calls(&h);
        a.send(&[frame(5, RELEASE, 2, 0), frame(6, RELEASE, 4, 0)].concat());
        let replies: Vec<u64> = (0..6).map(|_| a.reply().0).collect();
        assert_eq!(replies, [1, 2, 3, 4, 5, 6]);
        assert_eq!(send_calls(&h) - before, 1);
    }

    /// Redeemed in two turns: the first redemption takes everything up to
    /// the second ticket along, the second the rest.
    #[test]
    fn a_window_whose_tickets_are_redeemed_in_two_turns_leaves_in_two_sends() {
        let h = start();
        let mut a = window_with_two_tickets(&h);
        let before = send_calls(&h);
        a.send(&frame(5, RELEASE, 2, 0));
        assert_eq!([1, 2, 3].map(|_| a.reply().0), [1, 2, 3]);
        a.assert_quiet(); // 5 parks behind 4
        assert_eq!(send_calls(&h) - before, 1);
        a.send(&frame(6, RELEASE, 4, 0));
        assert_eq!([4, 5, 6].map(|_| a.reply().0), [4, 5, 6]);
        assert_eq!(send_calls(&h) - before, 2);
    }

    /// A push is never held: one queued behind a held reply takes that
    /// reply along at the turn's end.
    #[test]
    fn a_push_queued_behind_a_held_reply_leaves_at_the_turns_end() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        a.send(&[get(1, INLINE, 0), get(2, DEFER, 0)].concat());
        side.barrier();
        a.assert_quiet();
        // 3's own reply parks behind 2; its push goes behind 1.
        a.send(&get(3, PUSH, 0));
        assert_eq!(a.reply().0, 1);
        assert!(matches!(
            a.r.next_msg(),
            Ok(HttpMsgRef::Owned(HttpMsg::InvalidateServer { .. }))
        ));
        side.barrier();
        a.assert_quiet();
        side.release(30, RELEASE, 2);
        assert_eq!([a.reply().0, a.reply().0], [2, 3]);
    }

    /// Output a socket refused is written again once it turns writable,
    /// even while the pipeline's head is owed.
    #[test]
    fn output_a_socket_refused_is_flushed_on_writability_while_the_head_is_owed() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        a.send(&get(1, INLINE, BIG));
        side.barrier(); // the first flush was partial
        a.send(&get(2, DEFER, 0));
        side.barrier(); // 2 is owed
        assert_eq!(a.reply(), (1, BIG as usize));
        a.assert_quiet();
        side.release(30, RELEASE, 2);
        assert_eq!(a.reply().0, 2);
    }

    /// A full pipeline is never held: nothing would be read to redeem it.
    #[test]
    fn a_full_pipeline_flushes() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let window: Vec<u8> = std::iter::once(get(1, INLINE, 0))
            .chain((2..=MAX_PIPELINE + 1).map(|req| get(req, DEFER, 0)))
            .flatten()
            .collect();
        a.send(&window);
        assert_eq!(a.reply().0, 1);
    }

    /// A half-closed connection is never held: the peer sends nothing
    /// more for its replies to wait with.
    #[test]
    fn a_half_closed_connection_is_not_held() {
        let h = start();
        let mut a = Peer::connect(h.addr);
        let mut side = Peer::connect(h.addr);
        a.send(&[get(1, INLINE, 0), get(2, DEFER, 0)].concat());
        a.w.shutdown(Shutdown::Write).expect("half-close");
        side.barrier(); // the EOF was seen with request 2 deferred
        assert_eq!(a.reply().0, 1);
        side.release(30, RELEASE, 2);
        assert_eq!(a.reply().0, 2);
        assert!(matches!(a.r.next_msg(), Err(WireError::Closed)));
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
        let pushed = matches!(
            a.r.next_msg(),
            Ok(HttpMsgRef::Owned(HttpMsg::InvalidateServer { .. }))
        );
        stop.store(true, Ordering::SeqCst);
        hammer.join().expect("hammer");
        assert!(pushed, "deadline did not fire under load");
    }

    /// A role that panics takes its state with it, and nothing is left
    /// waiting on it: a call queued while the fatal frame was handled is
    /// dropped unrun, a later call fails at once, and the handle's drop
    /// returns.
    #[test]
    fn a_dead_node_stops() {
        let (entered_tx, entered) = mpsc::channel();
        let (go, go_rx) = mpsc::channel();
        let h = start_gated(Some((entered_tx, go_rx)));
        let mut a = Peer::connect(h.addr);
        a.send(&get(1, DIE, 0));
        entered.recv().expect("the role took the fatal frame");
        // The node's thread is inside `on_frame`: this waits in the inbox.
        let (tx, queued) = mpsc::sync_channel(1);
        let call: Call<Echo> = Box::new(move |_| tx.send(()).unwrap());
        let calls = h.node.calls.as_ref().expect("live handle");
        calls.send(call).expect("queued");
        go.send(()).expect("release the role");
        let bound = Duration::from_secs(5);
        assert_eq!(
            queued.recv_timeout(bound),
            Err(RecvTimeoutError::Disconnected)
        );
        // On a thread of its own, so that a hang fails the test.
        let (done, result) = mpsc::channel();
        let caller = std::thread::spawn(move || {
            let _ = done.send(h.node.call(|_, _, _| ()).is_err());
            drop(h);
            let _ = done.send(true);
        });
        assert_eq!(result.recv_timeout(bound), Ok(true), "call to a dead node");
        assert_eq!(result.recv_timeout(bound), Ok(true), "drop of a dead node");
        caller.join().expect("caller thread");
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
