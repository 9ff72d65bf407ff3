//! Per-connection byte buffers for a non-blocking socket.
//!
//! [`RecvBuf`] is the storage socket reads land in: the kernel writes
//! straight behind the bytes that are still undecoded, and those are
//! exposed as one contiguous slice so `wcc_proto::zero::decode_frame` can
//! borrow frames out of it without copying. The storage is zeroed when it
//! grows, never per read, and a consumed prefix is reclaimed only when
//! room runs short. [`SendBuf`] is the mirror image: serialized replies
//! queue here and drain through partial writes as `EPOLLOUT` allows.

use std::io::{self, Read, Write};

/// Initial capacity for both buffer directions; one readiness round on a
/// keep-alive connection rarely moves more than this.
const INIT_CAP: usize = 4096;

/// Least room a read is offered.
const MIN_ROOM: usize = INIT_CAP / 2;

/// Receive side: a growable window of not-yet-decoded bytes.
#[derive(Debug)]
pub struct RecvBuf {
    /// Storage, all of it initialised. `bytes[start..end]` is undecoded,
    /// what precedes it is consumed and what follows is room for reads.
    /// Empty until the first byte is asked for.
    bytes: Vec<u8>,
    start: usize,
    end: usize,
    /// Reads made so far, short and refused ones included.
    reads: u64,
}

impl Default for RecvBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl RecvBuf {
    /// An empty buffer.
    pub fn new() -> RecvBuf {
        RecvBuf {
            bytes: Vec::with_capacity(INIT_CAP),
            start: 0,
            end: 0,
            reads: 0,
        }
    }

    /// The undecoded bytes, contiguous.
    pub fn data(&self) -> &[u8] {
        self.bytes.get(self.start..self.end).unwrap_or_default()
    }

    /// Number of undecoded bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when nothing is pending decode.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the first `n` bytes of [`data`](Self::data) as decoded.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Appends bytes directly (tests and loopback injection).
    pub fn push_bytes(&mut self, chunk: &[u8]) {
        let (dst, _) = self.room(chunk.len()).split_at_mut(chunk.len());
        dst.copy_from_slice(chunk);
        self.end += chunk.len();
    }

    /// Reads once from a non-blocking source into the buffer.
    ///
    /// Returns `Ok(n)` for `n` new bytes (`0` = peer EOF); `WouldBlock`
    /// and `Interrupted` pass through for the event loop to interpret.
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.reads += 1;
        let n = src.read(self.room(MIN_ROOM))?;
        self.end += n;
        Ok(n)
    }

    /// Reads until the source has nothing more for now; `Ok(true)` if the
    /// peer closed, `Ok(false)` if it is drained and still open.
    ///
    /// A read that comes back short of the room it was offered took all
    /// there was, so no further one is made just to be told `WouldBlock`:
    /// whatever arrives later — the peer's EOF included — makes the socket
    /// readable again, and level-triggered polling reports it.
    pub fn fill_available(&mut self, src: &mut impl Read) -> io::Result<bool> {
        loop {
            self.reads += 1;
            let room = self.room(MIN_ROOM);
            let offered = room.len();
            match src.read(room) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.end += n;
                    if n < offered {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads [`fill`](Self::fill) and
    /// [`fill_available`](Self::fill_available) have made so far, short and
    /// refused ones included.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// The room behind the undecoded bytes, at least `want` bytes of it:
    /// the consumed prefix is reclaimed first, then the storage doubles.
    fn room(&mut self, want: usize) -> &mut [u8] {
        if self.bytes.len() - self.end < want {
            if self.start > 0 {
                self.bytes.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let needed = self.end + want;
            if self.bytes.len() < needed {
                let grown = needed.max(2 * self.bytes.len()).max(INIT_CAP);
                self.bytes.resize(grown, 0);
            }
        }
        self.bytes.get_mut(self.end..).unwrap_or_default()
    }
}

/// Send side: queued output draining through partial writes.
#[derive(Debug)]
pub struct SendBuf {
    bytes: Vec<u8>,
    /// Bytes before `pos` are already on the wire.
    pos: usize,
    /// Writes made so far, partial and refused ones included.
    writes: u64,
}

impl Default for SendBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl SendBuf {
    /// An empty buffer.
    pub fn new() -> SendBuf {
        SendBuf {
            bytes: Vec::with_capacity(INIT_CAP),
            pos: 0,
            writes: 0,
        }
    }

    /// Queues bytes behind whatever is still unsent.
    pub fn push_bytes(&mut self, chunk: &[u8]) {
        self.bytes.extend_from_slice(chunk);
    }

    /// The queue's growing end, for encoding a frame in place
    /// (`wcc_proto::encode_into`) instead of building it elsewhere and
    /// copying it in. Append only: everything already there is either
    /// unsent or counted as written.
    pub fn tail(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Bytes still waiting to go out.
    pub fn pending(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when fully drained.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Writes [`flush`](Self::flush) has made so far, partial and refused
    /// ones included.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Writes as much as the sink accepts right now.
    ///
    /// Returns `Ok(true)` once fully drained, `Ok(false)` if bytes remain
    /// (the connection should arm write interest); `WouldBlock` is
    /// absorbed into `Ok(false)` because it *is* the partial-write case.
    pub fn flush(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        while let Some(rest) = self.bytes.get(self.pos..).filter(|rest| !rest.is_empty()) {
            self.writes += 1;
            match sink.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.bytes.clear();
        self.pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A sink that accepts at most `cap` bytes per write, then signals
    /// `WouldBlock` until re-armed — the shape of a congested socket.
    struct Throttle {
        cap: usize,
        armed: bool,
        out: Vec<u8>,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.armed {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.armed = false;
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_buf_survives_partial_writes() {
        let mut sb = SendBuf::new();
        sb.push_bytes(b"hello, readiness world");
        let total = sb.pending();
        let mut sink = Throttle {
            cap: 5,
            armed: true,
            out: Vec::new(),
        };
        let mut rounds = 0;
        loop {
            match sb.flush(&mut sink).expect("io") {
                true => break,
                false => {
                    // Socket "became writable" again.
                    sink.armed = true;
                    rounds += 1;
                    assert!(rounds < 32, "flush never completed");
                }
            }
        }
        assert_eq!(sink.out, b"hello, readiness world");
        assert_eq!(total, sink.out.len());
        assert!(sb.is_empty());
    }

    #[test]
    fn send_buf_counts_every_write_it_makes() {
        let mut sb = SendBuf::new();
        let mut sink = Throttle {
            cap: 4,
            armed: true,
            out: Vec::new(),
        };
        // Nothing queued: no write at all.
        assert!(sb.flush(&mut sink).expect("io"));
        assert_eq!(sb.writes(), 0);
        // A partial write, then the refused one that ends the round.
        sb.push_bytes(b"0123456789");
        assert!(!sb.flush(&mut sink).expect("io"));
        assert_eq!(sb.writes(), 2);
        sink.armed = true;
        sink.cap = 64;
        assert!(sb.flush(&mut sink).expect("io"));
        assert_eq!(sb.writes(), 3);
    }

    #[test]
    fn send_buf_queues_behind_unsent_bytes() {
        let mut sb = SendBuf::new();
        sb.push_bytes(b"first ");
        let mut sink = Throttle {
            cap: 3,
            armed: true,
            out: Vec::new(),
        };
        assert!(!sb.flush(&mut sink).expect("io"));
        sb.tail().extend_from_slice(b"second");
        sink.armed = true;
        sink.cap = 1024;
        assert!(sb.flush(&mut sink).expect("io"));
        assert_eq!(sink.out, b"first second");
    }

    /// A source that plays back a script and notes the room each read was
    /// offered. Bytes that do not fit the room stay for the next read, the
    /// way a socket buffer keeps them; a read past the script's end is a
    /// test failure.
    struct Script {
        steps: VecDeque<io::Result<Vec<u8>>>,
        rooms: Vec<usize>,
    }

    fn script(steps: impl IntoIterator<Item = io::Result<Vec<u8>>>) -> Script {
        Script {
            steps: steps.into_iter().collect(),
            rooms: Vec::new(),
        }
    }

    /// An empty chunk is the peer's EOF.
    const EOF: io::Result<Vec<u8>> = Ok(Vec::new());

    fn fails(kind: io::ErrorKind) -> io::Result<Vec<u8>> {
        Err(kind.into())
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.rooms.push(buf.len());
            let mut bytes = self.steps.pop_front().expect("a read nobody scripted")?;
            let n = bytes.len().min(buf.len());
            let rest = bytes.split_off(n);
            buf[..n].copy_from_slice(&bytes);
            if !rest.is_empty() {
                self.steps.push_front(Ok(rest));
            }
            Ok(n)
        }
    }

    /// `len` bytes no two neighbours of which are equal.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn recv_buf_compacts_and_preserves_tail() {
        let mut rb = RecvBuf::new();
        rb.push_bytes(b"aaaabbbb");
        assert_eq!(rb.data(), b"aaaabbbb");
        rb.consume(4);
        assert_eq!(rb.data(), b"bbbb");
        rb.push_bytes(b"cc");
        assert_eq!(rb.data(), b"bbbbcc");
        rb.consume(6);
        assert!(rb.is_empty());
        // A consumed prefix is reclaimed once room runs short: the
        // undecoded tail moves to the front and the storage does not grow.
        let big = pattern(INIT_CAP - 10);
        rb.push_bytes(&big);
        rb.consume(INIT_CAP - 30);
        let mut src = script([Ok(b"new".to_vec())]);
        assert_eq!(rb.fill(&mut src).expect("read"), 3);
        assert_eq!(src.rooms, [INIT_CAP - 20]);
        assert_eq!(rb.data(), [&big[INIT_CAP - 30..], b"new"].concat());
        assert_eq!(rb.bytes.len(), INIT_CAP);
    }

    #[test]
    fn recv_buf_fill_reports_eof_and_would_block() {
        let mut src = script([Ok(b"xy".to_vec()), fails(io::ErrorKind::WouldBlock), EOF]);
        let mut rb = RecvBuf::new();
        assert_eq!(rb.fill(&mut src).expect("read"), 2);
        assert_eq!(rb.data(), b"xy");
        let err = rb.fill(&mut src).expect_err("would block");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(rb.fill(&mut src).expect("eof"), 0);
        assert_eq!(rb.data(), b"xy");
    }

    #[test]
    fn a_connection_reserves_nothing_before_it_is_read_from() {
        let mut rb = RecvBuf::new();
        assert_eq!(rb.bytes.len(), 0);
        assert!(rb.bytes.capacity() <= 2 * INIT_CAP);
        let mut src = script([Ok(b"x".to_vec())]);
        rb.fill(&mut src).expect("read");
        assert_eq!(src.rooms, [INIT_CAP]);
    }

    #[test]
    fn no_read_follows_a_short_one() {
        // The script holds nothing after the short read: asking again
        // would fail the test.
        let mut src = script([Ok(b"hello".to_vec())]);
        let mut rb = RecvBuf::new();
        assert!(!rb.fill_available(&mut src).expect("read"));
        assert_eq!(rb.data(), b"hello");
        assert_eq!(src.rooms.len(), 1);
    }

    #[test]
    fn a_full_read_is_followed_by_another() {
        // Exactly the room offered: there may be more, so a second read
        // is made; it is the one that learns there is not.
        let mut src = script([Ok(pattern(INIT_CAP)), fails(io::ErrorKind::WouldBlock)]);
        let mut rb = RecvBuf::new();
        assert!(!rb.fill_available(&mut src).expect("read"));
        assert_eq!(rb.data(), pattern(INIT_CAP));
        assert_eq!(src.rooms.len(), 2);
    }

    #[test]
    fn a_frame_larger_than_the_room_arrives_in_two_reads() {
        let frame = pattern(INIT_CAP + 1000);
        let mut src = script([Ok(frame.clone())]);
        let mut rb = RecvBuf::new();
        assert!(!rb.fill_available(&mut src).expect("read"));
        assert_eq!(src.rooms.len(), 2, "one full read, one short");
        assert_eq!(rb.data(), frame);
    }

    #[test]
    fn fill_available_handles_eof_interrupts_and_errors() {
        let mut rb = RecvBuf::new();
        // An interrupted read is made again.
        let mut src = script([fails(io::ErrorKind::Interrupted), Ok(b"ab".to_vec())]);
        assert!(!rb.fill_available(&mut src).expect("read"));
        assert_eq!(rb.data(), b"ab");
        // Nothing there: still open, nothing lost.
        let mut src = script([fails(io::ErrorKind::WouldBlock)]);
        assert!(!rb.fill_available(&mut src).expect("read"));
        assert_eq!(rb.data(), b"ab");
        // EOF behind a full read is reported with the bytes kept ...
        let room = INIT_CAP - 2;
        let mut src = script([Ok(pattern(room)), EOF]);
        assert!(rb.fill_available(&mut src).expect("read"));
        assert_eq!(rb.len(), INIT_CAP);
        // ... and a bare one too.
        assert!(rb.fill_available(&mut script([EOF])).expect("read"));
        // Any other error is the caller's.
        let mut src = script([fails(io::ErrorKind::ConnectionReset)]);
        let err = rb.fill_available(&mut src).expect_err("reset");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(rb.len(), INIT_CAP);
    }

    #[test]
    fn pushed_and_read_bytes_interleave_in_order() {
        let mut rb = RecvBuf::new();
        rb.push_bytes(b"ab");
        let mut src = script([Ok(b"cd".to_vec()), Ok(b"gh".to_vec())]);
        rb.fill(&mut src).expect("read");
        rb.push_bytes(b"ef");
        rb.consume(1);
        rb.fill(&mut src).expect("read");
        assert_eq!(rb.data(), b"bcdefgh");
        // A push larger than any room grows the storage to fit.
        let big = pattern(3 * INIT_CAP);
        rb.push_bytes(&big);
        assert_eq!(rb.data(), [&b"bcdefgh"[..], &big].concat());
    }
}
