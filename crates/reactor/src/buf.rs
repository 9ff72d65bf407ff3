//! Per-connection byte buffers for a non-blocking socket.
//!
//! [`RecvBuf`] accumulates whatever the kernel hands over and exposes it
//! as one contiguous slice so `wcc_proto::zero::decode_frame` can borrow
//! frames out of it without copying; consumed prefixes compact lazily.
//! [`SendBuf`] is the mirror image: serialized replies queue here and
//! drain through partial writes as `EPOLLOUT` allows.

use std::io::{self, Read, Write};

/// Initial capacity for both buffer directions; one readiness round on a
/// keep-alive connection rarely moves more than this.
const INIT_CAP: usize = 4096;

/// Compact only once the dead prefix crosses this threshold, so a steady
/// stream of small frames does not memmove on every consume.
const COMPACT_AT: usize = 16 * 1024;

/// Receive side: a growable window of not-yet-decoded bytes.
#[derive(Debug)]
pub struct RecvBuf {
    bytes: Vec<u8>,
    /// Bytes before `start` are decoded-and-consumed, awaiting compaction.
    start: usize,
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
        }
    }

    /// The undecoded bytes, contiguous.
    pub fn data(&self) -> &[u8] {
        self.bytes.get(self.start..).unwrap_or_default()
    }

    /// Number of undecoded bytes.
    pub fn len(&self) -> usize {
        self.bytes.len() - self.start
    }

    /// True when nothing is pending decode.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the first `n` bytes of [`data`](Self::data) as decoded.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.start += n;
        if self.start == self.bytes.len() {
            self.bytes.clear();
            self.start = 0;
        } else if self.start >= COMPACT_AT {
            self.bytes.drain(..self.start);
            self.start = 0;
        }
    }

    /// Appends bytes directly (tests and loopback injection).
    pub fn push_bytes(&mut self, chunk: &[u8]) {
        self.bytes.extend_from_slice(chunk);
    }

    /// Reads once from a non-blocking source into the buffer.
    ///
    /// Returns `Ok(n)` for `n` new bytes (`0` = peer EOF); `WouldBlock`
    /// and `Interrupted` pass through for the event loop to interpret.
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        let mut chunk = [0u8; 8192];
        let n = src.read(&mut chunk)?;
        self.bytes.extend_from_slice(&chunk[..n]);
        Ok(n)
    }
}

/// Send side: queued output draining through partial writes.
#[derive(Debug)]
pub struct SendBuf {
    bytes: Vec<u8>,
    /// Bytes before `pos` are already on the wire.
    pos: usize,
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

    /// Writes as much as the sink accepts right now.
    ///
    /// Returns `Ok(true)` once fully drained, `Ok(false)` if bytes remain
    /// (the connection should arm write interest); `WouldBlock` is
    /// absorbed into `Ok(false)` because it *is* the partial-write case.
    pub fn flush(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        while let Some(rest) = self.bytes.get(self.pos..).filter(|rest| !rest.is_empty()) {
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
        // Large dead prefix forces the compaction path.
        let big = vec![7u8; COMPACT_AT + 10];
        rb.push_bytes(&big);
        rb.consume(COMPACT_AT + 1);
        assert_eq!(rb.len(), 9);
        assert_eq!(rb.data(), &big[..9]);
    }

    #[test]
    fn recv_buf_fill_reports_eof_and_would_block() {
        struct Script(Vec<io::Result<Vec<u8>>>);
        impl Read for Script {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.pop() {
                    Some(Ok(bytes)) => {
                        buf[..bytes.len()].copy_from_slice(&bytes);
                        Ok(bytes.len())
                    }
                    Some(Err(e)) => Err(e),
                    None => Ok(0),
                }
            }
        }
        let mut src = Script(vec![
            Err(io::ErrorKind::WouldBlock.into()),
            Ok(b"xy".to_vec()),
        ]);
        let mut rb = RecvBuf::new();
        assert_eq!(rb.fill(&mut src).expect("read"), 2);
        assert_eq!(rb.data(), b"xy");
        let err = rb.fill(&mut src).expect_err("would block");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(rb.fill(&mut src).expect("eof"), 0);
    }
}
