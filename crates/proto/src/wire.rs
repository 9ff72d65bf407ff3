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
//! Timestamps travel as integer microseconds (the simulator's clock unit).
//!
//! # Examples
//!
//! ```
//! use wcc_proto::{decode, encode, GetRequest, HttpMsg, RequestId};
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
//! let decoded = decode(&mut bytes.as_slice())?;
//! assert_eq!(decoded, msg);
//! # Ok::<(), wcc_proto::WireError>(())
//! ```

use crate::msg::{BatchAckEntry, BatchEntry, GetRequest, HttpMsg, Reply, ReplyStatus, RequestId};
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;
use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};

/// Error decoding a wire message.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The stream ended cleanly before a start line (peer closed).
    Closed,
    /// The bytes did not form a valid message.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"), // xtask-lint: allow(codec-fmt)
            WireError::Closed => write!(f, "connection closed"),  // xtask-lint: allow(codec-fmt)
            WireError::Malformed(why) => write!(f, "malformed wire message: {why}"), // xtask-lint: allow(codec-fmt)
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn malformed(why: impl Into<String>) -> WireError {
    WireError::Malformed(why.into())
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

fn parse_piggyback(
    headers: &HashMap<String, String>,
    server: ServerId,
) -> Result<Vec<Url>, WireError> {
    let Some(list) = headers.get("x-piggyback") else {
        return Ok(Vec::new());
    };
    list.split(',')
        .map(|d| {
            d.trim()
                .parse()
                .map(|doc| Url::new(server, doc))
                .map_err(|_| malformed(format!("bad piggyback entry {d:?}"))) // xtask-lint: allow(codec-fmt)
        })
        .collect()
}

/// Parses the `X-Batch` list of an `INVALIDATE *` round: comma-separated
/// `doc:client` entries, the client as a dotted quad like `X-Client`.
fn parse_batch(list: &str, server: ServerId) -> Result<Vec<BatchEntry>, WireError> {
    list.split(',')
        .map(|e| {
            let entry = e.trim();
            let (doc, client) = entry
                .split_once(':')
                .ok_or_else(|| malformed(format!("bad batch entry {entry:?}")))?; // xtask-lint: allow(codec-fmt)
            let doc: u32 = doc
                .parse()
                .map_err(|_| malformed(format!("bad batch entry {entry:?}")))?; // xtask-lint: allow(codec-fmt)
            let client: ClientId = client
                .parse()
                .map_err(|_| malformed(format!("bad batch entry {entry:?}")))?; // xtask-lint: allow(codec-fmt)
            Ok(BatchEntry {
                url: Url::new(server, doc),
                client,
            })
        })
        .collect()
}

/// Parses the `X-Batch` list of an `ACK *` round: comma-separated
/// `doc:client:hits` entries.
fn parse_batch_ack(list: &str, server: ServerId) -> Result<Vec<BatchAckEntry>, WireError> {
    list.split(',')
        .map(|e| {
            let entry = e.trim();
            let bad = || malformed(format!("bad batch ack entry {entry:?}")); // xtask-lint: allow(codec-fmt)
            let (doc, rest) = entry.split_once(':').ok_or_else(bad)?;
            let (client, hits) = rest.split_once(':').ok_or_else(bad)?;
            let doc: u32 = doc.parse().map_err(|_| bad())?;
            let client: ClientId = client.parse().map_err(|_| bad())?;
            let cache_hits: u64 = hits.parse().map_err(|_| bad())?;
            Ok(BatchAckEntry {
                url: Url::new(server, doc),
                client,
                cache_hits,
            })
        })
        .collect()
}

fn parse_host(value: &str) -> Result<ServerId, WireError> {
    let idx = value
        .strip_prefix("server")
        .and_then(|rest| rest.parse().ok())
        .ok_or_else(|| malformed(format!("bad Host: {value}")))?; // xtask-lint: allow(codec-fmt)
    Ok(ServerId::new(idx))
}

/// Decodes one message from `reader`.
///
/// # Errors
///
/// Returns [`WireError::Closed`] on clean EOF before a start line,
/// [`WireError::Malformed`] on protocol violations, and [`WireError::Io`]
/// if the stream fails mid-message.
pub fn decode<R: BufRead>(reader: &mut R) -> Result<HttpMsg, WireError> {
    let start = match read_line(reader)? {
        None => return Err(WireError::Closed),
        Some(line) if line.is_empty() => {
            return Err(malformed("empty start line"));
        }
        Some(line) => line,
    };
    let mut headers = HashMap::new();
    loop {
        match read_line(reader)? {
            None => return Err(malformed("eof inside headers")),
            Some(line) if line.is_empty() => break,
            Some(line) => {
                let (name, value) = line
                    .split_once(':')
                    .ok_or_else(|| malformed(format!("bad header: {line}")))?; // xtask-lint: allow(codec-fmt)
                headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
            }
        }
    }

    let mut parts = start.split_whitespace();
    let verb = parts.next().ok_or_else(|| malformed("missing verb"))?;
    match verb {
        "GET" => {
            let path = parts.next().ok_or_else(|| malformed("GET without path"))?;
            // The metrics endpoint takes no Host or correlation headers —
            // intercept it before the document-URL parse would reject it.
            if path == "/metrics" {
                return Ok(HttpMsg::MetricsGet);
            }
            let url = url_from(&headers, path)?;
            Ok(HttpMsg::Get(GetRequest {
                req: RequestId::new(required_u64(&headers, "x-request-id")?),
                url,
                client: required_client(&headers)?,
                ims: headers
                    .get("if-modified-since")
                    .map(|v| parse_micros(v))
                    .transpose()?,
                issued_at: parse_micros(headers.get("date").map(String::as_str).unwrap_or("0"))?,
                cache_hits: headers
                    .get("x-hit-count")
                    .map(|v| v.parse().map_err(|_| malformed("bad X-Hit-Count")))
                    .transpose()?
                    .unwrap_or(0),
            }))
        }
        "HTTP/1.0" => {
            let code = parts
                .next()
                .ok_or_else(|| malformed("reply without code"))?;
            let path = headers
                .get("content-location")
                .ok_or_else(|| malformed("reply without Content-Location"))?
                .clone();
            let url = url_from(&headers, &path)?;
            let req = RequestId::new(required_u64(&headers, "x-request-id")?);
            let client = required_client(&headers)?;
            let lease = headers
                .get("x-lease")
                .map(|v| parse_micros(v))
                .transpose()?;
            let piggyback = parse_piggyback(&headers, url.server())?;
            let volume_lease = headers
                .get("x-volume-lease")
                .map(|v| parse_micros(v))
                .transpose()?;
            match code {
                "200" => {
                    let len: usize = required_u64(&headers, "content-length")? as usize;
                    let mut payload = vec![0u8; len];
                    reader.read_exact(&mut payload)?;
                    let meta = DocMeta::new(
                        ByteSize::from_bytes(required_u64(&headers, "x-size")?),
                        parse_micros(
                            headers
                                .get("last-modified")
                                .ok_or_else(|| malformed("200 without Last-Modified"))?,
                        )?,
                    );
                    Ok(HttpMsg::Reply(Reply {
                        req,
                        url,
                        client,
                        status: ReplyStatus::Ok(Body::new(meta, payload)),
                        lease,
                        piggyback,
                        volume_lease,
                    }))
                }
                "304" => Ok(HttpMsg::Reply(Reply {
                    req,
                    url,
                    client,
                    status: ReplyStatus::NotModified,
                    lease,
                    piggyback,
                    volume_lease,
                })),
                other => Err(malformed(format!("unsupported status {other}"))), // xtask-lint: allow(codec-fmt)
            }
        }
        "INVALIDATE" => {
            let target = parts
                .next()
                .ok_or_else(|| malformed("INVALIDATE without target"))?;
            if target == "*" {
                let idx = required_u64(&headers, "x-server")? as u32;
                let server = ServerId::new(idx);
                if let Some(list) = headers.get("x-batch") {
                    return Ok(HttpMsg::InvalidateBatch {
                        server,
                        entries: parse_batch(list, server)?,
                    });
                }
                Ok(HttpMsg::InvalidateServer { server })
            } else {
                Ok(HttpMsg::Invalidate {
                    url: url_from(&headers, target)?,
                    client: required_client(&headers)?,
                })
            }
        }
        "ACK" => {
            let path = parts.next().ok_or_else(|| malformed("ACK without path"))?;
            if path == "*" {
                let idx = required_u64(&headers, "x-server")? as u32;
                let server = ServerId::new(idx);
                if let Some(list) = headers.get("x-batch") {
                    return Ok(HttpMsg::InvalidateBatchAck {
                        server,
                        entries: parse_batch_ack(list, server)?,
                    });
                }
                return Ok(HttpMsg::InvalidateServerAck { server });
            }
            Ok(HttpMsg::InvalAck {
                url: url_from(&headers, path)?,
                client: required_client(&headers)?,
                cache_hits: headers
                    .get("x-hit-count")
                    .map(|v| v.parse().map_err(|_| malformed("bad X-Hit-Count")))
                    .transpose()?
                    .unwrap_or(0),
            })
        }
        "HELLO" => {
            let spec = parts
                .next()
                .ok_or_else(|| malformed("HELLO without partition"))?;
            let (p, n) = spec
                .split_once('/')
                .ok_or_else(|| malformed("HELLO spec must be p/n"))?;
            let partition = p.parse().map_err(|_| malformed("bad partition"))?;
            let partitions: u32 = n.parse().map_err(|_| malformed("bad partitions"))?;
            if partitions == 0 || partition >= partitions {
                return Err(malformed("partition out of range"));
            }
            Ok(HttpMsg::Hello {
                partition,
                partitions,
            })
        }
        "NOTIFY" => {
            let path = parts
                .next()
                .ok_or_else(|| malformed("NOTIFY without path"))?;
            Ok(HttpMsg::Notify {
                url: url_from(&headers, path)?,
                at: parse_micros(headers.get("date").map(String::as_str).unwrap_or("0"))?,
            })
        }
        other => Err(malformed(format!("unknown verb {other}"))), // xtask-lint: allow(codec-fmt)
    }
}

fn url_from(headers: &HashMap<String, String>, path: &str) -> Result<Url, WireError> {
    let server = parse_host(
        headers
            .get("host")
            .ok_or_else(|| malformed("missing Host header"))?,
    )?;
    let bad_path = || malformed(format!("bad path {path}")); // xtask-lint: allow(codec-fmt)
    Url::from_path(server, path).ok_or_else(bad_path)
}

fn required_u64(headers: &HashMap<String, String>, name: &str) -> Result<u64, WireError> {
    headers
        .get(name)
        .ok_or_else(|| malformed(format!("missing header {name}")))? // xtask-lint: allow(codec-fmt)
        .parse()
        .map_err(|_| malformed(format!("non-numeric header {name}"))) // xtask-lint: allow(codec-fmt)
}

fn required_client(headers: &HashMap<String, String>) -> Result<ClientId, WireError> {
    headers
        .get("x-client")
        .ok_or_else(|| malformed("missing X-Client"))?
        .parse()
        .map_err(|_| malformed("bad X-Client"))
}

fn parse_micros(value: &str) -> Result<SimTime, WireError> {
    value
        .parse()
        .map(SimTime::from_micros)
        .map_err(|_| malformed(format!("bad timestamp {value}"))) // xtask-lint: allow(codec-fmt)
}

/// Reads one `\r\n`- (or `\n`-) terminated line; `None` on clean EOF.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, WireError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_url() -> Url {
        Url::new(ServerId::new(3), 99)
    }

    fn sample_client() -> ClientId {
        ClientId::from_ip([10, 1, 2, 3])
    }

    fn round_trip(msg: HttpMsg) {
        let bytes = encode(&msg);
        let decoded = decode(&mut bytes.as_slice()).expect("decode failed");
        assert_eq!(decoded, msg);
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
            lease: Some(SimTime::from_secs(86_400 * 3)),
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
            let mut cursor = bad.as_bytes();
            assert!(
                matches!(decode(&mut cursor), Err(WireError::Malformed(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn metrics_get_round_trips_and_matches_curl() {
        round_trip(HttpMsg::MetricsGet);
        // Header-less scrape, as a generic HTTP client would send it.
        let mut cursor: &[u8] = b"GET /metrics HTTP/1.0\r\n\r\n";
        assert_eq!(decode(&mut cursor).unwrap(), HttpMsg::MetricsGet);
        // Extra headers (User-Agent etc.) are tolerated.
        let mut cursor: &[u8] = b"GET /metrics HTTP/1.0\r\nUser-Agent: prom\r\n\r\n";
        assert_eq!(decode(&mut cursor).unwrap(), HttpMsg::MetricsGet);
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
        let mut cursor = bytes.as_slice();
        assert_eq!(decode(&mut cursor).unwrap(), a);
        assert_eq!(decode(&mut cursor).unwrap(), b);
        assert!(matches!(decode(&mut cursor), Err(WireError::Closed)));
    }

    #[test]
    fn clean_eof_is_closed() {
        let mut empty: &[u8] = b"";
        assert!(matches!(decode(&mut empty), Err(WireError::Closed)));
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
            let mut cursor = bad.as_bytes();
            assert!(
                matches!(decode(&mut cursor), Err(WireError::Malformed(_))),
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
        let mut truncated = &bytes[..bytes.len() - 10];
        assert!(matches!(decode(&mut truncated), Err(WireError::Io(_))));
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let text = "NOTIFY /doc/5 HTTP/1.0\nHost: server1\n\n";
        let mut cursor = text.as_bytes();
        let msg = decode(&mut cursor).unwrap();
        assert_eq!(
            msg,
            HttpMsg::Notify {
                url: Url::new(ServerId::new(1), 5),
                at: SimTime::ZERO,
            }
        );
    }
}
