//! Text wire codec: an HTTP/1.0 subset plus the paper's `INVALIDATE`
//! message type, used by the real TCP prototype (`wcc-net`).
//!
//! The encoding is deliberately conventional — start line, `\r\n`-separated
//! headers, blank line, optional body — so the messages are readable in a
//! packet capture:
//!
//! ```text
//! GET /doc/42 HTTP/1.0
//! Host: server0
//! X-Client: 0.0.0.42
//! X-Request-Id: 7
//! If-Modified-Since: 123456
//! ```
//!
//! Times and lease durations travel as integer microseconds (the simulator's unit).
//! This module writes frames; [`crate::zero`] reads them.
//!
//! # Examples
//!
//! ```
//! use wcc_proto::{decode_ref, encode, GetRequest, HttpMsg, RequestId};
//! use wcc_types::{ClientId, ServerId, SimTime, Url};
//!
//! let msg = HttpMsg::Get(GetRequest {
//!     req: RequestId::new(7),
//!     url: Url::new(ServerId::new(0), 42),
//!     client: ClientId::from_raw(42),
//!     ims: None,
//!     issued_at: SimTime::from_secs(12),
//!     cache_hits: 0,
//! });
//! let bytes = encode(&msg);
//! let decoded = decode_ref(&bytes)?;
//! assert_eq!(decoded.to_owned(), msg);
//! # Ok::<(), wcc_proto::WireError>(())
//! ```

use crate::msg::{HttpMsg, Reply, ReplyStatus};
use std::fmt;
use wcc_types::{ClientId, Url};

/// Error decoding a wire message.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The stream ended cleanly before a start line (peer closed).
    Closed,
    /// The bytes did not form a valid message.
    Malformed(String),
    /// A `200`'s `X-Size` is above [`crate::MAX_DOC_SIZE`].
    DocTooLarge(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"), // xtask-lint: allow(codec-fmt)
            WireError::Closed => write!(f, "connection closed"),  // xtask-lint: allow(codec-fmt)
            WireError::Malformed(why) => write!(f, "malformed wire message: {why}"), // xtask-lint: allow(codec-fmt)
            WireError::DocTooLarge(size) => {
                f.write_str("X-Size above the document size cap: ")?;
                fmt::Display::fmt(size, f)
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Closed | WireError::Malformed(_) | WireError::DocTooLarge(_) => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encodes `msg` into its wire form ([`encode_into`]) in a fresh `Vec`:
/// for set-up code and tests. The serve tier's per-frame paths append to a
/// connection's send buffer with [`encode_into`] instead.
pub fn encode(msg: &HttpMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    encode_into(msg, &mut out);
    out
}

/// Appends `msg`'s wire form to `out`; what `out` already holds is left
/// untouched.
///
/// The payload of a `200` reply is the *stored* (possibly scaled) body; the
/// accounted size travels in the `X-Size` header so byte accounting survives
/// the scaling trick.
///
/// This sits on the TCP prototype's per-message hot path, so nothing here
/// goes through `core::fmt`: the fixed text is copied in as byte literals
/// and every number — header values, the `N` of a `/doc/N` path, the
/// octets of a client id — through [`put_dec`].
pub fn encode_into(msg: &HttpMsg, out: &mut Vec<u8>) {
    // A blank line ends every header block; only a `200` has bytes behind it.
    let mut payload: &[u8] = &[];
    match msg {
        HttpMsg::Get(g) => {
            put_start(out, b"GET /doc/", g.url);
            put_client(out, g.client);
            put_header(out, b"X-Request-Id: ", g.req.get());
            put_header(out, b"Date: ", g.issued_at.as_micros());
            if g.cache_hits > 0 {
                put_header(out, b"X-Hit-Count: ", g.cache_hits);
            }
            if let Some(validator) = g.ims {
                put_header(out, b"If-Modified-Since: ", validator.as_micros());
            }
        }
        HttpMsg::Reply(r) => match &r.status {
            ReplyStatus::Ok(body) => {
                let meta = body.meta();
                put_reply_head(out, b"HTTP/1.0 200 OK\r\n", r);
                put_header(out, b"Last-Modified: ", meta.last_modified().as_micros());
                put_header(out, b"X-Size: ", meta.size().as_u64());
                put_reply_grants(out, r);
                put_header(out, b"Content-Length: ", body.payload().len() as u64);
                payload = body.payload();
            }
            ReplyStatus::NotModified => {
                put_reply_head(out, b"HTTP/1.0 304 Not Modified\r\n", r);
                put_reply_grants(out, r);
            }
        },
        HttpMsg::Invalidate { url, client } => {
            put_start(out, b"INVALIDATE /doc/", *url);
            put_client(out, *client);
        }
        HttpMsg::InvalidateServer { server } => {
            out.extend_from_slice(b"INVALIDATE * HTTP/1.0\r\n");
            put_header(out, b"X-Server: ", u64::from(server.index()));
        }
        HttpMsg::InvalidateBatch { server, entries } => {
            // Same `*` target as the bulk form; the `X-Batch` entry list is
            // what distinguishes a proposer round from a recovery
            // invalidation. An empty round is never sent (it would decode
            // as the bulk form).
            debug_assert!(!entries.is_empty(), "batch rounds are never empty");
            out.extend_from_slice(b"INVALIDATE * HTTP/1.0\r\n");
            put_header(out, b"X-Server: ", u64::from(server.index()));
            put_list(out, b"X-Batch: ", entries, |out, e| {
                put_dec(out, u64::from(e.url.doc()));
                out.push(b':');
                put_quad(out, e.client);
            });
        }
        HttpMsg::InvalidateBatchAck { server, entries } => {
            debug_assert!(!entries.is_empty(), "batch acks are never empty");
            out.extend_from_slice(b"ACK * HTTP/1.0\r\n");
            put_header(out, b"X-Server: ", u64::from(server.index()));
            put_list(out, b"X-Batch: ", entries, |out, e| {
                put_dec(out, u64::from(e.url.doc()));
                out.push(b':');
                put_quad(out, e.client);
                out.push(b':');
                put_dec(out, e.cache_hits);
            });
        }
        HttpMsg::InvalidateServerAck { server } => {
            out.extend_from_slice(b"ACK * HTTP/1.0\r\n");
            put_header(out, b"X-Server: ", u64::from(server.index()));
        }
        HttpMsg::InvalAck {
            url,
            client,
            cache_hits,
        } => {
            put_start(out, b"ACK /doc/", *url);
            put_client(out, *client);
            if *cache_hits > 0 {
                put_header(out, b"X-Hit-Count: ", *cache_hits);
            }
        }
        HttpMsg::Hello {
            partition,
            partitions,
        } => {
            out.extend_from_slice(b"HELLO ");
            put_dec(out, u64::from(*partition));
            out.push(b'/');
            put_dec(out, u64::from(*partitions));
            out.extend_from_slice(b" HTTP/1.0\r\n");
        }
        HttpMsg::Notify { url, at } => {
            put_start(out, b"NOTIFY /doc/", *url);
            put_header(out, b"Date: ", at.as_micros());
        }
        // Exactly what `curl http://host:port/metrics --http1.0` sends,
        // so any Prometheus-style scraper works against the prototype.
        HttpMsg::MetricsGet => out.extend_from_slice(b"GET /metrics HTTP/1.0\r\n"),
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(payload);
}

/// Appends `n` in decimal: the one place the encoder renders a number.
fn put_dec(out: &mut Vec<u8>, mut n: u64) {
    // `u64::MAX` has 20 digits; they are produced last to first.
    let mut digits = [0u8; 20];
    let mut first = digits.len();
    for digit in digits.iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        first -= 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(first..).unwrap_or_default());
}

/// `<verb> /doc/N HTTP/1.0` and the `Host` line that names the document's
/// server: how every message about one document starts. `verb_and_path`
/// runs up to the document's number (`Url::write_path` is `/doc/N`).
fn put_start(out: &mut Vec<u8>, verb_and_path: &[u8], url: Url) {
    out.extend_from_slice(verb_and_path);
    put_dec(out, u64::from(url.doc()));
    out.extend_from_slice(b" HTTP/1.0\r\n");
    put_header(out, b"Host: server", u64::from(url.server().index()));
}

/// One numeric header line; `name` runs up to where the number starts.
fn put_header(out: &mut Vec<u8>, name: &[u8], value: u64) {
    out.extend_from_slice(name);
    put_dec(out, value);
    out.extend_from_slice(b"\r\n");
}

/// One list-valued header line: the items as `item` writes them, with
/// commas between.
fn put_list<T>(out: &mut Vec<u8>, name: &[u8], items: &[T], item: impl Fn(&mut Vec<u8>, &T)) {
    out.extend_from_slice(name);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        item(out, it);
    }
    out.extend_from_slice(b"\r\n");
}

/// The dotted quad of a client id, as its `Display` renders it.
fn put_quad(out: &mut Vec<u8>, client: ClientId) {
    for (i, octet) in client.octets().into_iter().enumerate() {
        if i > 0 {
            out.push(b'.');
        }
        put_dec(out, u64::from(octet));
    }
}

fn put_client(out: &mut Vec<u8>, client: ClientId) {
    out.extend_from_slice(b"X-Client: ");
    put_quad(out, client);
    out.extend_from_slice(b"\r\n");
}

/// The lines every reply starts with, whatever its status.
fn put_reply_head(out: &mut Vec<u8>, status_line: &[u8], r: &Reply) {
    out.extend_from_slice(status_line);
    put_header(out, b"Host: server", u64::from(r.url.server().index()));
    put_header(out, b"Content-Location: /doc/", u64::from(r.url.doc()));
    put_client(out, r.client);
    put_header(out, b"X-Request-Id: ", r.req.get());
}

/// What a reply grants or announces beside the document: lease,
/// piggybacked invalidations (comma-separated document indices; no line
/// for an empty list), volume lease.
fn put_reply_grants(out: &mut Vec<u8>, r: &Reply) {
    if let Some(lease) = r.lease {
        put_header(out, b"X-Lease: ", lease.as_micros());
    }
    if !r.piggyback.is_empty() {
        put_list(out, b"X-Piggyback: ", &r.piggyback, |out, url| {
            put_dec(out, u64::from(url.doc()));
        });
    }
    if let Some(v) = r.volume_lease {
        put_header(out, b"X-Volume-Lease: ", v.as_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{BatchAckEntry, BatchEntry, GetRequest, RequestId};
    use crate::zero::{decode_frame, decode_ref};
    use wcc_types::{Body, ByteSize, DocMeta, ServerId, SimDuration, SimTime};

    fn sample_url() -> Url {
        Url::new(ServerId::new(3), 99)
    }

    fn sample_client() -> ClientId {
        ClientId::from_ip([10, 1, 2, 3])
    }

    /// Decodes a buffer holding one whole frame into its owned form.
    fn decode(bytes: &[u8]) -> Result<HttpMsg, WireError> {
        decode_ref(bytes).map(|msg| msg.to_owned())
    }

    fn round_trip(msg: HttpMsg) {
        let bytes = encode(&msg);
        assert_eq!(decode(&bytes).expect("decode failed"), msg);
    }

    #[test]
    fn get_round_trip() {
        round_trip(HttpMsg::Get(GetRequest {
            req: RequestId::new(17),
            url: sample_url(),
            client: sample_client(),
            ims: None,
            issued_at: SimTime::from_secs(55),
            cache_hits: 0,
        }));
    }

    #[test]
    fn ims_round_trip() {
        round_trip(HttpMsg::Get(GetRequest {
            req: RequestId::new(18),
            url: sample_url(),
            client: sample_client(),
            ims: Some(SimTime::from_micros(123_456_789)),
            issued_at: SimTime::from_micros(123_999_999),
            cache_hits: 42,
        }));
    }

    #[test]
    fn reply_200_round_trip_with_scaled_body() {
        let meta = DocMeta::new(ByteSize::from_kib(44), SimTime::from_secs(7));
        round_trip(HttpMsg::Reply(Reply {
            req: RequestId::new(5),
            url: sample_url(),
            client: sample_client(),
            status: ReplyStatus::Ok(Body::synthetic(meta, 100)),
            lease: Some(SimDuration::from_days(3)),
            piggyback: vec![Url::new(ServerId::new(3), 4), Url::new(ServerId::new(3), 9)],
            volume_lease: None,
        }));
    }

    #[test]
    fn reply_304_round_trip() {
        round_trip(HttpMsg::Reply(Reply {
            req: RequestId::new(6),
            url: sample_url(),
            client: sample_client(),
            status: ReplyStatus::NotModified,
            lease: None,
            piggyback: vec![Url::new(ServerId::new(3), 1)],
            volume_lease: None,
        }));
    }

    #[test]
    fn invalidate_round_trips() {
        round_trip(HttpMsg::Invalidate {
            url: sample_url(),
            client: sample_client(),
        });
        round_trip(HttpMsg::InvalidateServer {
            server: ServerId::new(9),
        });
        round_trip(HttpMsg::InvalidateServerAck {
            server: ServerId::new(9),
        });
        round_trip(HttpMsg::InvalAck {
            url: sample_url(),
            client: sample_client(),
            cache_hits: 12,
        });
        round_trip(HttpMsg::Notify {
            url: sample_url(),
            at: SimTime::from_secs(77),
        });
        round_trip(HttpMsg::Hello {
            partition: 2,
            partitions: 4,
        });
    }

    #[test]
    fn invalidate_batch_round_trips() {
        let server = ServerId::new(3);
        round_trip(HttpMsg::InvalidateBatch {
            server,
            entries: vec![
                BatchEntry {
                    url: Url::new(server, 5),
                    client: ClientId::from_ip([10, 0, 0, 1]),
                },
                BatchEntry {
                    url: Url::new(server, 5),
                    client: ClientId::from_ip([10, 0, 0, 2]),
                },
                BatchEntry {
                    url: Url::new(server, 99),
                    client: sample_client(),
                },
            ],
        });
        round_trip(HttpMsg::InvalidateBatchAck {
            server,
            entries: vec![
                BatchAckEntry {
                    url: Url::new(server, 5),
                    client: ClientId::from_ip([10, 0, 0, 1]),
                    cache_hits: 0,
                },
                BatchAckEntry {
                    url: Url::new(server, 99),
                    client: sample_client(),
                    cache_hits: 41,
                },
            ],
        });
        // A single-entry batch still takes the batch form, not the bulk one.
        round_trip(HttpMsg::InvalidateBatch {
            server,
            entries: vec![BatchEntry {
                url: Url::new(server, 0),
                client: ClientId::from_raw(0),
            }],
        });
    }

    #[test]
    fn malformed_batch_entries_rejected() {
        for bad in [
            "INVALIDATE * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: \r\n\r\n",
            "INVALIDATE * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: 5\r\n\r\n",
            "INVALIDATE * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: x:1.2.3.4\r\n\r\n",
            "INVALIDATE * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: 5:nope\r\n\r\n",
            "INVALIDATE * HTTP/1.0\r\nX-Batch: 5:1.2.3.4\r\n\r\n", // no X-Server
            "ACK * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: 5:1.2.3.4\r\n\r\n", // missing hits
            "ACK * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: 5:1.2.3.4:zz\r\n\r\n",
        ] {
            assert!(
                matches!(decode(bad.as_bytes()), Err(WireError::Malformed(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn metrics_get_round_trips_and_matches_curl() {
        round_trip(HttpMsg::MetricsGet);
        // Header-less scrape, as a generic HTTP client would send it.
        assert_eq!(
            decode(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap(),
            HttpMsg::MetricsGet
        );
        // Extra headers (User-Agent etc.) are tolerated.
        assert_eq!(
            decode(b"GET /metrics HTTP/1.0\r\nUser-Agent: prom\r\n\r\n").unwrap(),
            HttpMsg::MetricsGet
        );
    }

    #[test]
    fn pipelined_messages_decode_in_sequence() {
        let a = HttpMsg::Notify {
            url: sample_url(),
            at: SimTime::ZERO,
        };
        let b = HttpMsg::Invalidate {
            url: sample_url(),
            client: sample_client(),
        };
        // The second frame is appended in place, the way a send buffer
        // takes it: the first stays intact and the bytes are `encode`'s.
        let mut bytes = encode(&a);
        encode_into(&b, &mut bytes);
        assert_eq!(bytes, [encode(&a), encode(&b)].concat());
        let mut rest = bytes.as_slice();
        for expected in [a, b] {
            let (msg, used) = decode_frame(rest, true).unwrap().unwrap();
            assert_eq!(msg.to_owned(), expected);
            rest = &rest[used..];
        }
        assert!(matches!(decode(rest), Err(WireError::Closed)));
    }

    #[test]
    fn clean_eof_is_closed() {
        assert!(matches!(decode(b""), Err(WireError::Closed)));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "BOGUS /doc/1 HTTP/1.0\r\n\r\n",
            "GET /doc/1 HTTP/1.0\r\nnocolon\r\n\r\n",
            "GET /doc/1 HTTP/1.0\r\n\r\n", // missing Host / X-Client / req id
            "GET /nope HTTP/1.0\r\nHost: server0\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\n\r\n",
            "HTTP/1.0 500 Oops\r\nHost: server0\r\nContent-Location: /doc/1\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\n\r\n",
            "GET /doc/1 HTTP/1.0\r\nHost: elsewhere\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\n\r\n",
            "HELLO 4/4 HTTP/1.0\r\n\r\n",
            "HELLO x HTTP/1.0\r\n\r\n",
        ] {
            assert!(
                matches!(decode(bad.as_bytes()), Err(WireError::Malformed(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn truncated_body_is_io_error() {
        let meta = DocMeta::new(ByteSize::from_bytes(1000), SimTime::ZERO);
        let msg = HttpMsg::Reply(Reply {
            req: RequestId::new(0),
            url: sample_url(),
            client: sample_client(),
            status: ReplyStatus::Ok(Body::synthetic(meta, 1)),
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        });
        let bytes = encode(&msg);
        let truncated = &bytes[..bytes.len() - 10];
        assert!(matches!(decode(truncated), Err(WireError::Io(_))));
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let msg = decode(b"NOTIFY /doc/5 HTTP/1.0\nHost: server1\n\n").unwrap();
        assert_eq!(
            msg,
            HttpMsg::Notify {
                url: Url::new(ServerId::new(1), 5),
                at: SimTime::ZERO,
            }
        );
    }
}
