//! The open-loop rate ladder (ledger only, `serve-hit` inputs).
//!
//! Independent users do not wait for each other, so here requests leave on
//! a fixed schedule whatever the replies do. One thread schedules; every
//! request is timed from the instant it was *due*, which charges a stall to
//! every request it delayed, and the generator reports how late it ran.
//! On a shared 2-core box open-loop wake-up jitter moved p50 2.5× between
//! identical runs — which is why the gated workloads are closed loop and
//! these rows are informational.

use crate::serve::{KeyStream, ServeSpec};
use crate::stats;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use wcc_proto::{decode_frame, encode, GetRequest, HttpMsg, HttpMsgRef, RequestId};
use wcc_reactor::{Interest, Poller, RecvBuf, SendBuf};
use wcc_types::{ClientId, ServerId, SimTime, Url};

/// The step's p99 (from due time) must stay within this.
pub const LIMIT: Duration = Duration::from_millis(2);
/// A request sent this long after it was due counts as late.
pub const LATE: Duration = Duration::from_millis(1);

/// Undecoded bytes a lane buffers before it stops reading for this round.
const READ_AHEAD: usize = 256 * 1024;

/// One fixed-rate step.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub rate: u32,
    /// p99 from due time, µs; 0 if fewer than 1 000 replies came back.
    pub p99_us: f64,
    pub sent: u64,
    pub replies: u64,
    /// Requests sent more than [`LATE`] after they were due.
    pub late: u64,
    /// Requests outstanding (sent, unanswered) plus due-but-unsent at the
    /// middle and at the end of the step.
    pub backlog_mid: u64,
    pub backlog_end: u64,
}

impl Step {
    /// The send backlog grew across the step: the rate is not sustained.
    pub fn backlog_grew(&self) -> bool {
        self.backlog_end > self.backlog_mid + (self.backlog_mid / 2).max(32)
    }

    pub fn ok(&self) -> bool {
        self.replies >= 1_000 && self.p99_us <= LIMIT.as_micros() as f64 && !self.backlog_grew()
    }
}

struct Lane {
    stream: TcpStream,
    rbuf: RecvBuf,
    sbuf: SendBuf,
    want_write: bool,
    /// Due times of the requests in flight, oldest first.
    due: VecDeque<Instant>,
    next_req: RequestId,
    keys: KeyStream,
}

/// Runs one step per entry of `rates` against the proxy at `addr`.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    addr: SocketAddr,
    conns: usize,
    rates: &[u32],
    step_len: Duration,
) -> std::io::Result<Vec<Step>> {
    let mut poller = Poller::new()?;
    let mut lanes = Vec::with_capacity(conns);
    for idx in 0..conns {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.add(stream.as_raw_fd(), idx as u64, Interest::READ)?;
        lanes.push(Lane {
            stream,
            rbuf: RecvBuf::new(),
            sbuf: SendBuf::new(),
            want_write: false,
            due: VecDeque::new(),
            next_req: RequestId::default(),
            keys: KeyStream::new(spec, seed, 3 << 32 | idx as u64),
        });
    }
    let mut events = Vec::with_capacity(16);
    let mut steps = Vec::with_capacity(rates.len());
    for &rate in rates {
        let interval = Duration::from_secs(1) / rate;
        let total = (step_len.as_nanos() / interval.as_nanos()) as u32;
        let start = Instant::now();
        let end = start + step_len;
        let mut step = Step {
            rate,
            p99_us: 0.0,
            sent: 0,
            replies: 0,
            late: 0,
            backlog_mid: 0,
            backlog_end: 0,
        };
        let mut latencies: Vec<u32> = Vec::with_capacity(total as usize);
        let mut next = 0u32;
        let mut mid_taken = false;
        loop {
            let now = Instant::now();
            let outstanding: u64 = lanes.iter().map(|l| l.due.len() as u64).sum();
            let due_now = ((now.saturating_duration_since(start).as_nanos() / interval.as_nanos())
                as u32
                + 1)
            .min(total);
            if !mid_taken && now >= start + step_len / 2 {
                mid_taken = true;
                step.backlog_mid = outstanding + u64::from(due_now - next);
            }
            if now >= end {
                if step.backlog_end == 0 {
                    step.backlog_end = outstanding + u64::from(total - next);
                }
                // Drain what is in flight (bounded), send nothing more.
                if outstanding == 0 || now >= end + Duration::from_secs(1) {
                    break;
                }
            } else {
                while next < due_now {
                    let due = start + interval * next;
                    let lane = &mut lanes[next as usize % conns];
                    let (doc, client) = lane.keys.next_key();
                    let req = lane.next_req;
                    lane.next_req = req.next();
                    lane.sbuf.push_bytes(&encode(&HttpMsg::Get(GetRequest {
                        req,
                        url: Url::new(ServerId::new(0), doc),
                        client: ClientId::from_raw(client),
                        ims: None,
                        issued_at: SimTime::from_secs(1),
                        cache_hits: 0,
                    })));
                    lane.due.push_back(due);
                    step.sent += 1;
                    if now.saturating_duration_since(due) > LATE {
                        step.late += 1;
                    }
                    next += 1;
                }
                for (idx, lane) in lanes.iter_mut().enumerate() {
                    flush(lane, idx, &mut poller)?;
                }
            }
            // Sleep to the next due time when it is a millisecond or more
            // away (the poller's resolution); otherwise poll without
            // blocking so the schedule is kept.
            let next_due = start + interval * next;
            let wait = next_due.saturating_duration_since(Instant::now());
            let timeout = if now >= end {
                Duration::from_millis(10)
            } else if wait >= Duration::from_millis(1) {
                wait
            } else {
                Duration::ZERO
            };
            poller.wait(&mut events, Some(timeout))?;
            for ev in &events {
                let idx = ev.token as usize;
                let lane = &mut lanes[idx];
                if ev.writable {
                    flush(lane, idx, &mut poller)?;
                }
                if !(ev.readable || ev.error) {
                    continue;
                }
                // Bounded reads: past saturation the backlog must wait in the
                // kernel's socket buffers (and push back on the proxy), not
                // pile up in a buffer whose compaction is linear in its size.
                while lane.rbuf.len() < READ_AHEAD {
                    match lane.rbuf.fill(&mut lane.stream) {
                        Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                        Ok(_) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                while let Ok(Some((HttpMsgRef::Reply(_), used))) =
                    decode_frame(lane.rbuf.data(), false)
                {
                    lane.rbuf.consume(used);
                    if let Some(due) = lane.due.pop_front() {
                        step.replies += 1;
                        latencies.push(due.elapsed().as_micros() as u32);
                    }
                }
            }
        }
        latencies.sort_unstable();
        if latencies.len() >= 1_000 {
            step.p99_us = stats::percentile(&latencies, 0.99).map_or(0.0, f64::from);
        }
        let unanswered = lanes.iter().any(|l| !l.due.is_empty());
        steps.push(step);
        if unanswered {
            // Stray replies would be matched to the next step's requests;
            // a server this far behind has failed the higher rates anyway.
            break;
        }
    }
    Ok(steps)
}

fn flush(lane: &mut Lane, idx: usize, poller: &mut Poller) -> std::io::Result<()> {
    if lane.sbuf.is_empty() && !lane.want_write {
        return Ok(());
    }
    let done = lane.sbuf.flush(&mut lane.stream)?;
    if done == lane.want_write {
        lane.want_write = !done;
        let interest = if done {
            Interest::READ
        } else {
            Interest::READ_WRITE
        };
        poller.modify(lane.stream.as_raw_fd(), idx as u64, interest)?;
    }
    Ok(())
}
