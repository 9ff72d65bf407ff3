//! The wire decoder: borrowed messages straight from the receive buffer.
//!
//! The TCP prototype decodes on every request, so this module decodes a
//! [`HttpMsgRef`] that *borrows* the body payload (and the piggyback and
//! batch lists' text) from the receive buffer, deferring the copy to
//! [`HttpMsgRef::to_owned`] — which callers invoke only at retention
//! boundaries (storing a body in the cache), not per message.
//!
//! The decoder is also *incremental*: [`decode_frame`] works on a partially
//! filled buffer and reports how many more bytes it needs implicitly by
//! returning `Ok(None)`, which is what [`FrameReader`] uses to pull frames
//! off a socket without an intermediate copy per message.
//!
//! A frame's bytes are visited once: the loop that checks each header line
//! files its value in the slot of the name the protocol reads it by
//! (`Headers`), so every later lookup is a field read.
//!
//! The header rules and error texts are held to an owned, line-reading
//! reference decoder in `tests/wire_proptest.rs`: for any input, both
//! decode the same message or fail with a byte-identical error rendering.

use crate::msg::{BatchAckEntry, BatchEntry, GetRequest, HttpMsg, Reply, ReplyStatus, RequestId};
use crate::wire::WireError;
use std::io::Read;
use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};

/// A decoded message whose bulk data still lives in the receive buffer.
///
/// Variants without bulk data carry their (small, `Copy`) fields directly;
/// only [`HttpMsgRef::Reply`] borrows from the buffer. Convert to an owned
/// [`HttpMsg`] with [`HttpMsgRef::to_owned`] at retention boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpMsgRef<'buf> {
    /// Proxy → origin: plain or conditional `GET` (no bulk data; the owned
    /// request struct is already all-inline).
    Get(GetRequest),
    /// Origin → proxy: `200` or `304` reply, body borrowed from the buffer.
    Reply(ReplyRef<'buf>),
    /// Origin → proxy: single-document invalidation.
    Invalidate {
        /// The modified document.
        url: Url,
        /// The real client whose copy must be dropped.
        client: ClientId,
    },
    /// Origin → proxy: bulk invalidation after server recovery.
    InvalidateServer {
        /// The recovered origin server.
        server: ServerId,
    },
    /// Origin → proxy: one coalesced proposer round, the entry list still
    /// borrowed (validated) text in the receive buffer.
    InvalidateBatch(InvalidateBatchRef<'buf>),
    /// Proxy → origin: acknowledgement of a whole proposer round, the
    /// entry list still borrowed (validated) text in the receive buffer.
    InvalidateBatchAck(InvalidateBatchAckRef<'buf>),
    /// Proxy → origin: ack of a bulk recovery invalidation.
    InvalidateServerAck {
        /// The recovered origin server being acknowledged.
        server: ServerId,
    },
    /// Proxy → origin: ack of a single-document invalidation.
    InvalAck {
        /// The document whose invalidation is being acknowledged.
        url: Url,
        /// The acknowledging client.
        client: ClientId,
        /// Unreported cache hits riding the ack.
        cache_hits: u64,
    },
    /// Proxy → origin: invalidation-channel registration.
    Hello {
        /// This proxy's partition index.
        partition: u32,
        /// Total number of partitions.
        partitions: u32,
    },
    /// Scraper → any node: `GET /metrics`.
    MetricsGet,
    /// Modifier → accelerator: document check-in notification.
    Notify {
        /// The modified document.
        url: Url,
        /// The touch's trace-time timestamp.
        at: SimTime,
    },
}

/// A borrowed reply: everything inline except the `200` body payload and
/// the piggyback list, which point into the receive buffer.
///
/// The piggyback text is validated during decode, so converting it to
/// [`Url`]s later cannot fail; it stays private to keep that invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyRef<'buf> {
    /// Echo of the request's correlation id.
    pub req: RequestId,
    /// The document the reply concerns.
    pub url: Url,
    /// The real client behind the original request.
    pub client: ClientId,
    /// Status and (for `200`) the borrowed body.
    pub status: ReplyStatusRef<'buf>,
    /// Lease grant, if any.
    pub lease: Option<SimTime>,
    /// Validated `X-Piggyback` value (comma-separated doc indices).
    piggyback: Option<&'buf str>,
    /// Volume-lease renewal, if any.
    pub volume_lease: Option<SimTime>,
}

/// The status line + borrowed body of a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatusRef<'buf> {
    /// `200 OK` — document metadata plus the payload bytes, still in the
    /// receive buffer.
    Ok {
        /// Accounted size and last-modified stamp.
        meta: DocMeta,
        /// The stored (possibly scaled) payload, borrowed.
        payload: &'buf [u8],
    },
    /// `304 Not Modified`.
    NotModified,
}

impl ReplyRef<'_> {
    /// The piggybacked invalidations, parsed from the borrowed text. Every
    /// entry parses: the text was validated during decode.
    pub fn piggyback_urls(&self) -> Vec<Url> {
        let server = self.url.server();
        let list = self.piggyback.into_iter().flat_map(|list| list.split(','));
        list.filter_map(|d| piggyback_entry(server, d)).collect()
    }

    /// Materialises an owned [`Reply`], copying the body payload.
    pub fn to_owned(&self) -> Reply {
        Reply {
            req: self.req,
            url: self.url,
            client: self.client,
            status: match self.status {
                ReplyStatusRef::Ok { meta, payload } => {
                    ReplyStatus::Ok(Body::new(meta, payload.to_vec()))
                }
                ReplyStatusRef::NotModified => ReplyStatus::NotModified,
            },
            lease: self.lease,
            piggyback: self.piggyback_urls(),
            volume_lease: self.volume_lease,
        }
    }
}

/// A borrowed proposer round: the origin's identity inline, the
/// `doc:client` entry list still pointing into the receive buffer.
///
/// The list text is validated during decode, so [`entries`] cannot fail;
/// it stays private to keep that invariant (the same pattern as
/// [`ReplyRef`]'s piggyback list).
///
/// [`entries`]: InvalidateBatchRef::entries
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidateBatchRef<'buf> {
    /// The origin whose proposer flushed this round.
    pub server: ServerId,
    /// Validated `X-Batch` value (comma-separated `doc:client` entries).
    list: &'buf str,
}

impl InvalidateBatchRef<'_> {
    /// The round's entries, parsed from the borrowed text. Every entry
    /// parses: the text was validated during decode.
    pub fn entries(&self) -> Vec<BatchEntry> {
        let entry = |e| batch_entry(self.server, e);
        self.list.split(',').filter_map(entry).collect()
    }
}

/// A borrowed batch acknowledgement: `doc:client:hits` entries still
/// pointing into the receive buffer, validated during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidateBatchAckRef<'buf> {
    /// The origin being acknowledged.
    pub server: ServerId,
    /// Validated `X-Batch` value (comma-separated `doc:client:hits`).
    list: &'buf str,
}

impl InvalidateBatchAckRef<'_> {
    /// The acknowledged entries, parsed from the borrowed text. Every
    /// entry parses: the text was validated during decode.
    pub fn entries(&self) -> Vec<BatchAckEntry> {
        let entry = |e| batch_ack_entry(self.server, e);
        self.list.split(',').filter_map(entry).collect()
    }
}

impl HttpMsgRef<'_> {
    /// `true` if materialising this message copies bulk data out of the
    /// buffer (`200` bodies; every other variant is already inline).
    pub fn needs_copy(&self) -> bool {
        matches!(
            self,
            HttpMsgRef::Reply(ReplyRef {
                status: ReplyStatusRef::Ok { .. },
                ..
            })
        )
    }

    /// Materialises an owned [`HttpMsg`]. The only non-trivial cost is the
    /// `200` body memcpy — call this at retention boundaries only.
    pub fn to_owned(&self) -> HttpMsg {
        match self {
            HttpMsgRef::Get(g) => HttpMsg::Get(g.clone()),
            HttpMsgRef::Reply(r) => HttpMsg::Reply(r.to_owned()),
            HttpMsgRef::Invalidate { url, client } => HttpMsg::Invalidate {
                url: *url,
                client: *client,
            },
            HttpMsgRef::InvalidateServer { server } => {
                HttpMsg::InvalidateServer { server: *server }
            }
            HttpMsgRef::InvalidateBatch(b) => HttpMsg::InvalidateBatch {
                server: b.server,
                entries: b.entries(),
            },
            HttpMsgRef::InvalidateBatchAck(a) => HttpMsg::InvalidateBatchAck {
                server: a.server,
                entries: a.entries(),
            },
            HttpMsgRef::InvalidateServerAck { server } => {
                HttpMsg::InvalidateServerAck { server: *server }
            }
            HttpMsgRef::InvalAck {
                url,
                client,
                cache_hits,
            } => HttpMsg::InvalAck {
                url: *url,
                client: *client,
                cache_hits: *cache_hits,
            },
            HttpMsgRef::Hello {
                partition,
                partitions,
            } => HttpMsg::Hello {
                partition: *partition,
                partitions: *partitions,
            },
            HttpMsgRef::MetricsGet => HttpMsg::MetricsGet,
            HttpMsgRef::Notify { url, at } => HttpMsg::Notify { url: *url, at: *at },
        }
    }
}

/// Cursor over the buffer's lines, read the way the standard library's
/// `read_line` reads a stream: lines end at `\n`, *all* trailing `\r`/`\n`
/// are stripped, an unterminated tail chunk counts as a line at EOF, and
/// non-UTF-8 bytes surface as the same `InvalidData` I/O error it raises.
struct Lines<'buf> {
    buf: &'buf [u8],
    pos: usize,
    eof: bool,
}

/// One `Lines::next_line` outcome.
enum LineRead<'buf> {
    /// A complete (stripped) line.
    Line(&'buf str),
    /// Clean end of input (`read_line` returning 0).
    CleanEof,
    /// The buffer ends mid-line and more bytes may arrive.
    NeedMore,
}

impl<'buf> Lines<'buf> {
    fn next_line(&mut self) -> Result<LineRead<'buf>, WireError> {
        // `pos` only ever advances to line boundaries inside `buf`.
        let rest = &self.buf[self.pos..]; // xtask-lint: allow(index-panic)
        if rest.is_empty() {
            return Ok(if self.eof {
                LineRead::CleanEof
            } else {
                LineRead::NeedMore
            });
        }
        let (raw, used) = match rest.iter().position(|&b| b == b'\n') {
            Some(i) => (&rest[..=i], i + 1),
            None if self.eof => (rest, rest.len()),
            None => return Ok(LineRead::NeedMore),
        };
        let line = std::str::from_utf8(raw).map_err(|_| invalid_utf8())?;
        self.pos += used;
        Ok(LineRead::Line(line.trim_end_matches(['\r', '\n'])))
    }
}

/// The header block as one slot per name the protocol reads, filled by the
/// loop that validates the lines: a lookup is a field read, and
/// steady-state decode neither allocates nor revisits a line.
///
/// The rules are those of a map keyed by lower-cased name: a name matches
/// whatever its case and surrounding whitespace, a value is stored trimmed,
/// a repeated name's last line wins, and a name nothing reads is dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Headers<'buf> {
    host: Option<&'buf str>,
    x_client: Option<&'buf str>,
    x_request_id: Option<&'buf str>,
    date: Option<&'buf str>,
    x_hit_count: Option<&'buf str>,
    if_modified_since: Option<&'buf str>,
    content_location: Option<&'buf str>,
    last_modified: Option<&'buf str>,
    x_size: Option<&'buf str>,
    x_lease: Option<&'buf str>,
    x_piggyback: Option<&'buf str>,
    x_volume_lease: Option<&'buf str>,
    content_length: Option<&'buf str>,
    x_server: Option<&'buf str>,
    x_batch: Option<&'buf str>,
}

impl<'buf> Headers<'buf> {
    /// The slot `name` (already trimmed) fills, if the protocol reads it.
    /// The length picks at most two candidates before any byte is compared.
    fn slot(&mut self, name: &str) -> Option<&mut Option<&'buf str>> {
        let is = |known: &str| name.eq_ignore_ascii_case(known);
        Some(match name.len() {
            4 if is("host") => &mut self.host,
            4 if is("date") => &mut self.date,
            6 if is("x-size") => &mut self.x_size,
            7 if is("x-lease") => &mut self.x_lease,
            7 if is("x-batch") => &mut self.x_batch,
            8 if is("x-client") => &mut self.x_client,
            8 if is("x-server") => &mut self.x_server,
            11 if is("x-hit-count") => &mut self.x_hit_count,
            11 if is("x-piggyback") => &mut self.x_piggyback,
            12 if is("x-request-id") => &mut self.x_request_id,
            13 if is("last-modified") => &mut self.last_modified,
            14 if is("content-length") => &mut self.content_length,
            14 if is("x-volume-lease") => &mut self.x_volume_lease,
            16 if is("content-location") => &mut self.content_location,
            17 if is("if-modified-since") => &mut self.if_modified_since,
            _ => return None,
        })
    }

    /// Files one header line; `None` if it has no colon.
    fn record(&mut self, line: &'buf str) -> Option<()> {
        let (name, value) = line.split_once(':')?;
        if let Some(slot) = self.slot(name.trim()) {
            *slot = Some(value.trim());
        }
        Some(())
    }
}

/// Decodes one message from the front of `buf`.
///
/// Returns `Ok(Some((msg, used)))` when a complete frame occupies
/// `buf[..used]`, and `Ok(None)` when the buffer ends mid-frame and more
/// bytes may arrive. With `eof = true` the decoder never returns `None`:
/// the truncation becomes the error a stream ending there raises
/// ([`WireError::Closed`] before a start line, "eof inside headers", or
/// `read_exact`'s I/O error for a short body).
///
/// # Errors
///
/// [`WireError::Closed`] on an empty buffer at EOF, [`WireError::Malformed`]
/// on protocol violations, and [`WireError::Io`] for non-UTF-8 text or a
/// body cut short at EOF.
pub fn decode_frame(buf: &[u8], eof: bool) -> Result<Option<(HttpMsgRef<'_>, usize)>, WireError> {
    let mut lines = Lines { buf, pos: 0, eof };
    let start = match lines.next_line()? {
        LineRead::NeedMore => return Ok(None),
        LineRead::CleanEof => return Err(WireError::Closed),
        LineRead::Line("") => {
            return Err(malformed_str("empty start line"));
        }
        LineRead::Line(line) => line,
    };
    // Read every header line up front: the whole header block is consumed
    // before the start line is interpreted, so a bad header wins over a
    // bad verb.
    let mut headers = Headers::default();
    loop {
        match lines.next_line()? {
            LineRead::NeedMore => return Ok(None),
            LineRead::CleanEof => return Err(malformed_str("eof inside headers")),
            LineRead::Line("") => break,
            LineRead::Line(line) => headers.record(line).ok_or_else(|| bad_header(line))?,
        }
    }
    let body_start = lines.pos;

    let mut parts = start.split_whitespace();
    let verb = parts.next().ok_or_else(missing_verb)?;
    let msg = match verb {
        "GET" => {
            let path = parts.next().ok_or_else(get_without_path)?;
            if path == "/metrics" {
                return Ok(Some((HttpMsgRef::MetricsGet, body_start)));
            }
            let url = url_from(headers.host, path)?;
            HttpMsgRef::Get(GetRequest {
                req: RequestId::new(required(headers.x_request_id, "x-request-id")?),
                url,
                client: required_client(headers.x_client)?,
                ims: headers.if_modified_since.map(parse_micros).transpose()?,
                issued_at: parse_micros(headers.date.unwrap_or("0"))?,
                cache_hits: parse_hit_count(headers.x_hit_count)?,
            })
        }
        "HTTP/1.0" => {
            let code = parts.next().ok_or_else(reply_without_code)?;
            let path = headers
                .content_location
                .ok_or_else(reply_without_location)?;
            let url = url_from(headers.host, path)?;
            let req = RequestId::new(required(headers.x_request_id, "x-request-id")?);
            let client = required_client(headers.x_client)?;
            let lease = headers.x_lease.map(parse_micros).transpose()?;
            let piggyback = headers
                .x_piggyback
                .map(|list| validated(list, |d| piggyback_entry(url.server(), d), bad_piggyback))
                .transpose()?;
            let volume_lease = headers.x_volume_lease.map(parse_micros).transpose()?;
            match code {
                "200" => {
                    let len = required::<u64>(headers.content_length, "content-length")? as usize;
                    // `body_start` is the cursor position, inside `buf`.
                    let tail = &buf[body_start..]; // xtask-lint: allow(index-panic)
                    let Some(payload) = tail.get(..len) else {
                        if !eof {
                            return Ok(None);
                        }
                        return Err(short_body());
                    };
                    let meta = DocMeta::new(
                        ByteSize::from_bytes(required(headers.x_size, "x-size")?),
                        parse_micros(headers.last_modified.ok_or_else(missing_last_modified)?)?,
                    );
                    return Ok(Some((
                        HttpMsgRef::Reply(ReplyRef {
                            req,
                            url,
                            client,
                            status: ReplyStatusRef::Ok { meta, payload },
                            lease,
                            piggyback,
                            volume_lease,
                        }),
                        body_start + len,
                    )));
                }
                "304" => HttpMsgRef::Reply(ReplyRef {
                    req,
                    url,
                    client,
                    status: ReplyStatusRef::NotModified,
                    lease,
                    piggyback,
                    volume_lease,
                }),
                other => return Err(unsupported_status(other)),
            }
        }
        "INVALIDATE" => {
            let target = parts.next().ok_or_else(invalidate_without_target)?;
            if target == "*" {
                let server = ServerId::new(required(headers.x_server, "x-server")?);
                if let Some(list) = headers.x_batch {
                    HttpMsgRef::InvalidateBatch(InvalidateBatchRef {
                        server,
                        list: validated(list, |e| batch_entry(server, e), bad_batch_entry)?,
                    })
                } else {
                    HttpMsgRef::InvalidateServer { server }
                }
            } else {
                HttpMsgRef::Invalidate {
                    url: url_from(headers.host, target)?,
                    client: required_client(headers.x_client)?,
                }
            }
        }
        "ACK" => {
            let path = parts.next().ok_or_else(ack_without_path)?;
            if path == "*" {
                let server = ServerId::new(required(headers.x_server, "x-server")?);
                if let Some(list) = headers.x_batch {
                    HttpMsgRef::InvalidateBatchAck(InvalidateBatchAckRef {
                        server,
                        list: validated(list, |e| batch_ack_entry(server, e), bad_batch_ack_entry)?,
                    })
                } else {
                    HttpMsgRef::InvalidateServerAck { server }
                }
            } else {
                HttpMsgRef::InvalAck {
                    url: url_from(headers.host, path)?,
                    client: required_client(headers.x_client)?,
                    cache_hits: parse_hit_count(headers.x_hit_count)?,
                }
            }
        }
        "HELLO" => {
            let spec = parts.next().ok_or_else(hello_without_partition)?;
            let (p, n) = spec.split_once('/').ok_or_else(hello_bad_spec)?;
            let partition = p.parse().map_err(|_| bad_partition())?;
            let partitions: u32 = n.parse().map_err(|_| bad_partitions())?;
            if partitions == 0 || partitions > crate::MAX_PARTITIONS || partition >= partitions {
                return Err(partition_out_of_range());
            }
            HttpMsgRef::Hello {
                partition,
                partitions,
            }
        }
        "NOTIFY" => {
            let path = parts.next().ok_or_else(notify_without_path)?;
            HttpMsgRef::Notify {
                url: url_from(headers.host, path)?,
                at: parse_micros(headers.date.unwrap_or("0"))?,
            }
        }
        other => return Err(unknown_verb(other)),
    };
    Ok(Some((msg, body_start)))
}

/// Decodes one message from a buffer known to hold the complete frame
/// (trailing bytes are ignored).
///
/// # Errors
///
/// Those of [`decode_frame`] at EOF.
pub fn decode_ref(buf: &[u8]) -> Result<HttpMsgRef<'_>, WireError> {
    // Infallible: with `eof = true` the decoder never returns `None`.
    let (msg, _used) = decode_frame(buf, true)?.expect("decode_frame never defers at eof"); // xtask-lint: allow(unwrap)
    Ok(msg)
}

fn url_from(host: Option<&str>, path: &str) -> Result<Url, WireError> {
    let server = parse_host(host.ok_or_else(missing_host)?)?;
    Url::from_path(server, path).ok_or_else(|| bad_path(path))
}

fn parse_host(value: &str) -> Result<ServerId, WireError> {
    let idx = value
        .strip_prefix("server")
        .and_then(|rest| rest.parse().ok())
        .ok_or_else(|| bad_host(value))?;
    Ok(ServerId::new(idx))
}

/// The number a header the message cannot do without carries, parsed as
/// the type it lands in: a value out of that type's range is malformed,
/// never wrapped.
fn required<T: std::str::FromStr>(value: Option<&str>, name: &str) -> Result<T, WireError> {
    value
        .ok_or_else(|| missing_header(name))?
        .parse()
        .map_err(|_| non_numeric_header(name))
}

fn required_client(value: Option<&str>) -> Result<ClientId, WireError> {
    value
        .ok_or_else(missing_client)?
        .parse()
        .map_err(|_| bad_client())
}

fn parse_micros(value: &str) -> Result<SimTime, WireError> {
    value
        .parse()
        .map(SimTime::from_micros)
        .map_err(|_| bad_timestamp(value))
}

fn parse_hit_count(value: Option<&str>) -> Result<u64, WireError> {
    value
        .map(|v| v.parse().map_err(|_| bad_hit_count()))
        .transpose()
        .map(|v| v.unwrap_or(0))
}

/// Checks that every entry of a comma-separated list parses with `entry`,
/// so the accessors that parse it again later ([`ReplyRef::piggyback_urls`],
/// [`InvalidateBatchRef::entries`], [`InvalidateBatchAckRef::entries`])
/// drop nothing. The first entry that does not parse is the error.
fn validated<T>(
    list: &str,
    entry: impl Fn(&str) -> Option<T>,
    bad: fn(&str) -> WireError,
) -> Result<&str, WireError> {
    match list.split(',').find(|e| entry(e).is_none()) {
        Some(e) => Err(bad(e)),
        None => Ok(list),
    }
}

/// One `X-Piggyback` entry: a document index on the reply's server.
fn piggyback_entry(server: ServerId, entry: &str) -> Option<Url> {
    Some(Url::new(server, entry.trim().parse().ok()?))
}

/// One `X-Batch` entry of an `INVALIDATE *` round: `doc:client`.
fn batch_entry(server: ServerId, entry: &str) -> Option<BatchEntry> {
    let (doc, client) = entry.trim().split_once(':')?;
    Some(BatchEntry {
        url: Url::new(server, doc.parse().ok()?),
        client: client.parse().ok()?,
    })
}

/// One `X-Batch` entry of an `ACK *` round: `doc:client:hits`.
fn batch_ack_entry(server: ServerId, entry: &str) -> Option<BatchAckEntry> {
    let (doc, rest) = entry.trim().split_once(':')?;
    let (client, hits) = rest.split_once(':')?;
    Some(BatchAckEntry {
        url: Url::new(server, doc.parse().ok()?),
        client: client.parse().ok()?,
        cache_hits: hits.parse().ok()?,
    })
}

// ---------------------------------------------------------------------------
// Cold error constructors. Decode errors terminate the connection, so the
// allocations below never run in the steady-state loop; the waivers keep
// the hot-loop-alloc lint honest about that.

#[cold]
fn invalid_utf8() -> WireError {
    WireError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

#[cold]
fn short_body() -> WireError {
    // The message `Read::read_exact` uses for a short read.
    WireError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "failed to fill whole buffer",
    ))
}

#[cold]
fn malformed_str(why: &str) -> WireError {
    WireError::Malformed(why.to_string()) // xtask-lint: allow(hot-loop-alloc)
}

#[cold]
fn bad_header(line: &str) -> WireError {
    WireError::Malformed(format!("bad header: {line}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn missing_verb() -> WireError {
    malformed_str("missing verb")
}

#[cold]
fn get_without_path() -> WireError {
    malformed_str("GET without path")
}

#[cold]
fn reply_without_code() -> WireError {
    malformed_str("reply without code")
}

#[cold]
fn reply_without_location() -> WireError {
    malformed_str("reply without Content-Location")
}

#[cold]
fn unsupported_status(code: &str) -> WireError {
    WireError::Malformed(format!("unsupported status {code}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn invalidate_without_target() -> WireError {
    malformed_str("INVALIDATE without target")
}

#[cold]
fn ack_without_path() -> WireError {
    malformed_str("ACK without path")
}

#[cold]
fn hello_without_partition() -> WireError {
    malformed_str("HELLO without partition")
}

#[cold]
fn hello_bad_spec() -> WireError {
    malformed_str("HELLO spec must be p/n")
}

#[cold]
fn bad_partition() -> WireError {
    malformed_str("bad partition")
}

#[cold]
fn bad_partitions() -> WireError {
    malformed_str("bad partitions")
}

#[cold]
fn partition_out_of_range() -> WireError {
    malformed_str("partition out of range")
}

#[cold]
fn notify_without_path() -> WireError {
    malformed_str("NOTIFY without path")
}

#[cold]
fn unknown_verb(verb: &str) -> WireError {
    WireError::Malformed(format!("unknown verb {verb}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn missing_last_modified() -> WireError {
    malformed_str("200 without Last-Modified")
}

#[cold]
fn missing_host() -> WireError {
    malformed_str("missing Host header")
}

#[cold]
fn bad_host(value: &str) -> WireError {
    WireError::Malformed(format!("bad Host: {value}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn bad_path(path: &str) -> WireError {
    WireError::Malformed(format!("bad path {path}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn missing_header(name: &str) -> WireError {
    WireError::Malformed(format!("missing header {name}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn non_numeric_header(name: &str) -> WireError {
    WireError::Malformed(format!("non-numeric header {name}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn missing_client() -> WireError {
    malformed_str("missing X-Client")
}

#[cold]
fn bad_client() -> WireError {
    malformed_str("bad X-Client")
}

#[cold]
fn bad_timestamp(value: &str) -> WireError {
    WireError::Malformed(format!("bad timestamp {value}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn bad_hit_count() -> WireError {
    malformed_str("bad X-Hit-Count")
}

#[cold]
fn bad_piggyback(entry: &str) -> WireError {
    WireError::Malformed(format!("bad piggyback entry {entry:?}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn bad_batch_entry(entry: &str) -> WireError {
    let entry = entry.trim();
    WireError::Malformed(format!("bad batch entry {entry:?}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

#[cold]
fn bad_batch_ack_entry(entry: &str) -> WireError {
    let entry = entry.trim();
    WireError::Malformed(format!("bad batch ack entry {entry:?}")) // xtask-lint: allow(hot-loop-alloc) xtask-lint: allow(codec-fmt)
}

/// Pulls frames off a [`Read`] stream through a persistent buffer, decoding
/// each one zero-copy.
///
/// The buffer survives across messages: consumed frames are compacted away
/// before the next socket read, so steady-state operation performs no
/// allocation (the buffer reaches its high-water mark and stays there) and
/// no copy of the body bytes between the socket and the decoded
/// [`HttpMsgRef`].
pub struct FrameReader<R> {
    inner: R,
    /// Storage, all of it initialised: `buf[start..end]` is undecoded data
    /// and what follows `end` is room the next read lands in. It is zeroed
    /// once, when the buffer grows, not once per read.
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily, before the next read).
    start: usize,
    end: usize,
    eof: bool,
}

/// Least room offered to a socket read: one TCP segment's worth.
const READ_CHUNK: usize = 8192;

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with an empty buffer.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::with_capacity(READ_CHUNK),
            start: 0,
            end: 0,
            eof: false,
        }
    }

    /// Decodes the next frame, reading more bytes as needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] on clean EOF between frames; otherwise those
    /// of [`decode_frame`] and of the stream, including [`WireError::Io`] for
    /// `WouldBlock`/`TimedOut` on a non-blocking or deadline-bound socket
    /// (the caller distinguishes those from fatal errors).
    pub fn next_msg(&mut self) -> Result<HttpMsgRef<'_>, WireError> {
        loop {
            // First pass establishes the frame length (the decoded borrow is
            // dropped inside the match); the complete frame is then decoded
            // again outside the loop, which satisfies the borrow checker at
            // the cost of one re-parse of ~10 short lines.
            let pending = &self.buf[self.start..self.end]; // xtask-lint: allow(index-panic)
            let used = match decode_frame(pending, self.eof)? {
                Some((_msg, used)) => used,
                None => {
                    self.fill()?;
                    continue;
                }
            };
            let lo = self.start;
            self.start += used;
            let frame = &self.buf[lo..lo + used]; // xtask-lint: allow(index-panic)
            let (msg, _) = decode_frame(frame, true)?.expect("complete frame re-decodes"); // xtask-lint: allow(unwrap)
            return Ok(msg);
        }
    }

    /// Compacts the consumed prefix away and reads once more.
    fn fill(&mut self) -> Result<(), WireError> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let room = &mut self.buf[self.end..]; // xtask-lint: allow(index-panic)
        let n = self.inner.read(room)?;
        self.end += n;
        if n == 0 {
            self.eof = true;
        }
        Ok(())
    }
}

/// Counters from a [`codec_sweep`]: how a message corpus fares through the
/// zero-copy decoder.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CodecStats {
    /// Messages decoded.
    pub messages: u64,
    /// Total encoded bytes swept.
    pub bytes: u64,
    /// Decodes whose bulk data stayed borrowed in the buffer.
    pub borrows: u64,
    /// Decodes that needed an owning copy ([`HttpMsgRef::needs_copy`]).
    pub copies: u64,
    /// Messages a cache retains past the buffer's lifetime (`200` replies,
    /// counted independently of `needs_copy`). The allocation-discipline
    /// gate is `copies == retained`: the only copies are retention copies.
    pub retained: u64,
}

/// Encodes `msgs` into one contiguous stream and decodes it back
/// zero-copy, converting to owned form only at retention boundaries.
///
/// This is the bench harness's decode-path probe: it exercises the same
/// [`decode_frame`] loop the TCP tiers run and reports how many messages
/// borrowed versus copied, so the trajectory gate can enforce that copies
/// happen *only* where a `200` body crosses into a cache.
///
/// # Panics
///
/// Panics if a message fails to round-trip through its own encoding —
/// impossible for well-formed [`HttpMsg`] values.
pub fn codec_sweep(msgs: &[HttpMsg]) -> CodecStats {
    let mut stats = CodecStats::default();
    // Bench-probe setup, not the steady-state decode loop.
    let mut buf = Vec::new(); // xtask-lint: allow(hot-loop-alloc)
    for msg in msgs {
        crate::wire::encode_into(msg, &mut buf);
    }
    stats.bytes = buf.len() as u64;
    let mut rest: &[u8] = &buf;
    while !rest.is_empty() {
        let (msg, used) = decode_frame(rest, true)
            .expect("corpus re-decodes cleanly") // xtask-lint: allow(unwrap)
            .expect("eof decode never defers"); // xtask-lint: allow(unwrap)
        stats.messages += 1;
        let retained = matches!(
            &msg,
            HttpMsgRef::Reply(r) if matches!(r.status, ReplyStatusRef::Ok { .. })
        );
        if retained {
            stats.retained += 1;
            // The retention boundary: the body crosses into owned storage.
            let _owned = msg.to_owned();
        }
        if msg.needs_copy() {
            stats.copies += 1;
        } else {
            stats.borrows += 1;
        }
        rest = &rest[used..];
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode;

    fn sample_url() -> Url {
        Url::new(ServerId::new(3), 99)
    }

    fn sample_client() -> ClientId {
        ClientId::from_ip([10, 1, 2, 3])
    }

    #[test]
    fn codec_sweep_counts_only_retention_copies() {
        let meta = DocMeta::new(ByteSize::from_kib(2), SimTime::from_secs(1));
        let msgs = vec![
            HttpMsg::Get(GetRequest {
                req: RequestId::new(1),
                url: sample_url(),
                client: sample_client(),
                ims: None,
                issued_at: SimTime::from_secs(2),
                cache_hits: 0,
            }),
            HttpMsg::Reply(Reply {
                req: RequestId::new(1),
                url: sample_url(),
                client: sample_client(),
                status: ReplyStatus::Ok(Body::synthetic(meta, 100)),
                lease: None,
                piggyback: Vec::new(),
                volume_lease: None,
            }),
            HttpMsg::Reply(Reply {
                req: RequestId::new(2),
                url: sample_url(),
                client: sample_client(),
                status: ReplyStatus::NotModified,
                lease: None,
                piggyback: Vec::new(),
                volume_lease: None,
            }),
            HttpMsg::Invalidate {
                url: sample_url(),
                client: sample_client(),
            },
        ];
        let stats = codec_sweep(&msgs);
        assert_eq!(stats.messages, 4);
        assert_eq!(stats.retained, 1, "one 200 reply in the corpus");
        assert_eq!(stats.copies, stats.retained, "copies only at retention");
        assert_eq!(stats.borrows, 3);
        let encoded: usize = msgs.iter().map(|m| encode(m).len()).sum();
        assert_eq!(stats.bytes, encoded as u64);
    }

    /// A torn frame defers at every split point — inside the start line,
    /// a header name, a value, the blank line, the body — and decodes once
    /// whole, for the two frames the serve tier moves most.
    #[test]
    fn incremental_decode_defers_until_complete() {
        let meta = DocMeta::new(ByteSize::from_bytes(300), SimTime::from_secs(1));
        let msgs = [
            HttpMsg::Notify {
                url: sample_url(),
                at: SimTime::from_secs(3),
            },
            HttpMsg::Get(GetRequest {
                req: RequestId::new(17),
                url: sample_url(),
                client: sample_client(),
                ims: Some(SimTime::from_micros(5)),
                issued_at: SimTime::from_micros(6),
                cache_hits: 2,
            }),
            HttpMsg::Reply(Reply {
                req: RequestId::new(17),
                url: sample_url(),
                client: sample_client(),
                status: ReplyStatus::Ok(Body::synthetic(meta, 1)),
                lease: Some(SimTime::from_secs(9)),
                piggyback: vec![Url::new(ServerId::new(3), 4)],
                volume_lease: None,
            }),
        ];
        for msg in msgs {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    matches!(decode_frame(&bytes[..cut], false), Ok(None)),
                    "cut {cut} of {msg:?} should defer"
                );
            }
            let (decoded, used) = decode_frame(&bytes, false).unwrap().unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded.to_owned(), msg);
        }
    }

    #[test]
    fn a_known_name_fills_its_slot_whatever_its_case_and_padding() {
        let mut headers = Headers::default();
        assert_eq!(headers.record("x-CLIENT:1.2.3.4"), Some(()));
        assert_eq!(headers.record("  Content-LENGTH \t:  12  "), Some(()));
        let expected = Headers {
            x_client: Some("1.2.3.4"),
            content_length: Some("12"),
            ..Headers::default()
        };
        assert_eq!(headers, expected);
        // Last wins; only the first colon splits.
        assert_eq!(headers.record("X-Client: 5.6.7.8:9"), Some(()));
        assert_eq!(headers.x_client, Some("5.6.7.8:9"));
        assert_eq!(headers.record("no colon"), None);
    }

    #[test]
    fn every_name_the_protocol_reads_has_its_own_slot() {
        let names = [
            "host",
            "x-client",
            "x-request-id",
            "date",
            "x-hit-count",
            "if-modified-since",
            "content-location",
            "last-modified",
            "x-size",
            "x-lease",
            "x-piggyback",
            "x-volume-lease",
            "content-length",
            "x-server",
            "x-batch",
        ];
        let mut headers = Headers::default();
        for name in names {
            let slot = headers.slot(name).expect("a known name");
            assert_eq!(*slot, None, "{name} shares a slot");
            *slot = Some(name);
        }
    }

    #[test]
    fn an_unknown_name_touches_no_slot() {
        let mut headers = Headers::default();
        // Same length as a known name, a prefix of one, one with a tail,
        // the empty name, and one that is not ASCII.
        for line in [
            "User-Agent: t",
            "hosT2: server1",
            "daze: 4",
            "x-clien: 1.2.3.4",
            "x-client-id: 1.2.3.4",
            ": 7",
            "d\u{e4}te: 7",
        ] {
            assert_eq!(headers.record(line), Some(()), "{line}");
        }
        assert_eq!(headers, Headers::default());
    }

    /// `X-Server` names a `u32` server: one past `u32::MAX` is malformed in
    /// every `*` form, like `Host: server4294967296`, rather than wrapping
    /// to server 0 (whose recovery ack an origin would then take it for).
    #[test]
    fn an_x_server_past_u32_is_malformed_not_wrapped() {
        for (verb, entry) in [("ACK", "5:1.2.3.4:0"), ("INVALIDATE", "5:1.2.3.4")] {
            for batch in [String::new(), format!("X-Batch: {entry}\r\n")] {
                let frame = format!("{verb} * HTTP/1.0\r\nX-Server: 4294967296\r\n{batch}\r\n");
                let err = decode_ref(frame.as_bytes()).expect_err(&frame);
                assert_eq!(
                    err.to_string(),
                    "malformed wire message: non-numeric header x-server"
                );
            }
        }
        let top = decode_ref(b"ACK * HTTP/1.0\r\nX-Server: 4294967295\r\n\r\n").unwrap();
        assert_eq!(
            top,
            HttpMsgRef::InvalidateServerAck {
                server: ServerId::new(u32::MAX)
            }
        );
    }

    #[test]
    fn frame_reader_streams_pipelined_messages() {
        let a = HttpMsg::Notify {
            url: sample_url(),
            at: SimTime::ZERO,
        };
        let b = HttpMsg::Invalidate {
            url: sample_url(),
            client: sample_client(),
        };
        let mut bytes = encode(&a);
        bytes.extend(encode(&b));
        // A reader that trickles one byte at a time exercises every
        // partial-frame path in the incremental decoder.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                match self.0.split_first() {
                    Some((&byte, rest)) => {
                        out[0] = byte;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        let mut reader = FrameReader::new(Trickle(&bytes));
        assert_eq!(reader.next_msg().unwrap().to_owned(), a);
        assert_eq!(reader.next_msg().unwrap().to_owned(), b);
        assert!(matches!(reader.next_msg(), Err(WireError::Closed)));
    }

    #[test]
    fn frame_reader_borrows_bodies_zero_copy() {
        let meta = DocMeta::new(ByteSize::from_kib(8), SimTime::from_secs(1));
        let msg = HttpMsg::Reply(Reply {
            req: RequestId::new(1),
            url: sample_url(),
            client: sample_client(),
            status: ReplyStatus::Ok(Body::synthetic(meta, 1)),
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        });
        let bytes = encode(&msg);
        let mut reader = FrameReader::new(&bytes[..]);
        let decoded = reader.next_msg().unwrap();
        assert!(decoded.needs_copy());
        assert_eq!(decoded.to_owned(), msg);
    }
}
