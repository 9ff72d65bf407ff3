//! The wire decoder: messages straight from the receive buffer.
//!
//! [`decode_frame`] hands out an [`HttpMsgRef`]: a reply, whose `200` body
//! stays *borrowed* from the receive buffer until a cache retains it
//! ([`HttpMsgRef::to_owned`]), or any other frame, decoded whole into the
//! [`HttpMsg`] the nodes of both tiers dispatch on. A list (`X-Piggyback`,
//! either `X-Batch`) is parsed once, here.
//!
//! The decoder is also *incremental*: [`decode_frame`] works on a partially
//! filled buffer and reports how many more bytes it needs implicitly by
//! returning `Ok(None)`, which is what [`FrameReader`] uses to pull frames
//! off a socket without an intermediate copy per message.
//!
//! The decoder reads bytes, in one of two passes, and the bytes pick which.
//! The *layout pass* (`layout`) reads the frames the serve tier moves — a
//! `GET`, `200`, `304`, `INVALIDATE` or `ACK` of one document, with the
//! optional single-value headers — in the order
//! [`encode_into`](crate::wire::encode_into) writes them, checking each
//! literal and parsing each number as it passes. It returns exactly what
//! the rule-by-rule reader returns for the same bytes, or declines: at a
//! byte off that layout, a list header, any other verb, a frame not yet
//! whole. It never errs. On a decline the *rule-by-rule reader*
//! (`read_by_rules`) reads the frame from its first byte; it is the only
//! path for what the encoder never writes and the decoder accepts (a
//! curl scrape, any header case, order, padding or repeat, the lists).
//!
//! The rule-by-rule reader works line by line. One word-at-a-time scan per
//! line finds its `\n` and notes whether any byte is not ASCII; only such a
//! line runs through `from_utf8`. A name or value is trimmed as text only
//! when an end is not ASCII, the start line split as text only when it is
//! not ASCII. The loop files each trimmed value in the slot of the name the
//! protocol reads it by (`Headers`), and every number, id and path is
//! parsed from those bytes in place.
//!
//! The header rules and error texts are held to an owned, line-reading
//! reference decoder in `tests/wire_proptest.rs`: for any input, both
//! decode the same message or fail with a byte-identical error rendering.
//! The unit tests below hold the boundary between the passes: every shape
//! of the five frames takes the layout pass, and a frame one departure
//! away from one is left to the rules.

use crate::msg::{BatchAckEntry, BatchEntry, GetRequest, HttpMsg, Reply, ReplyStatus, RequestId};
use crate::wire::WireError;
use std::io::Read;
use wcc_types::SimDuration;
use wcc_types::{parse_decimal, Body, ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};

/// A decoded frame: a reply, whose `200` body still lives in the receive
/// buffer, or any other message, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpMsgRef<'buf> {
    /// Origin → proxy: `200` or `304` reply, body borrowed from the buffer.
    Reply(ReplyRef<'buf>),
    /// Every other frame: it has no body to borrow.
    Owned(HttpMsg),
}

/// A borrowed reply: everything owned except the `200` body payload, which
/// points into the receive buffer.
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
    /// Lease grant, if any: a duration, as on [`Reply::lease`].
    pub lease: Option<SimDuration>,
    /// Piggybacked invalidations (PSI).
    pub piggyback: Vec<Url>,
    /// Volume-lease renewal, if any: a duration.
    pub volume_lease: Option<SimDuration>,
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

impl HttpMsgRef<'_> {
    /// `true` if materialising this message copies bulk data out of the
    /// buffer (`200` bodies; every other frame is owned already).
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
        let r = match self {
            HttpMsgRef::Reply(r) => r,
            HttpMsgRef::Owned(msg) => return msg.clone(),
        };
        HttpMsg::Reply(Reply {
            req: r.req,
            url: r.url,
            client: r.client,
            status: match r.status {
                ReplyStatusRef::Ok { meta, payload } => {
                    ReplyStatus::Ok(Body::new(meta, payload.to_vec()))
                }
                ReplyStatusRef::NotModified => ReplyStatus::NotModified,
            },
            lease: r.lease,
            piggyback: r.piggyback.clone(),
            volume_lease: r.volume_lease,
        })
    }
}

/// Cursor over the buffer's lines, read the way the standard library's
/// `read_line` reads a stream: lines end at `\n`, *all* trailing `\r`/`\n`
/// are stripped, an unterminated tail chunk counts as a line at EOF, and
/// non-UTF-8 bytes surface as the same `InvalidData` I/O error it raises.
struct Lines<'buf> {
    /// What follows the last line handed out.
    rest: &'buf [u8],
    eof: bool,
}

/// One `Lines::next_line` outcome.
enum LineRead<'buf> {
    /// A complete (stripped) line, valid UTF-8.
    Line(&'buf [u8]),
    /// Clean end of input (`read_line` returning 0).
    CleanEof,
    /// The buffer ends mid-line and more bytes may arrive.
    NeedMore,
}

impl<'buf> Lines<'buf> {
    fn next_line(&mut self) -> Result<LineRead<'buf>, WireError> {
        let (newline, ascii) = scan_line(self.rest);
        let (mut line, rest) = match newline {
            Some(i) => self.rest.split_at(i + 1),
            None if !self.eof => return Ok(LineRead::NeedMore),
            None if self.rest.is_empty() => return Ok(LineRead::CleanEof),
            None => (self.rest, &[][..]),
        };
        if !ascii {
            std::str::from_utf8(line).map_err(|_| invalid_utf8())?;
        }
        self.rest = rest;
        while let [head @ .., b'\r' | b'\n'] = line {
            line = head;
        }
        Ok(LineRead::Line(line))
    }
}

/// Where the first `\n` of `bytes` is, if there is one, and whether every
/// byte up to it (or up to the end) is ASCII: one pass, a word at a time.
fn scan_line(bytes: &[u8]) -> (Option<usize>, bool) {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    let mut seen = 0;
    for (k, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        // A byte of `x` is zero where `word` holds a `\n`; the lowest flag
        // below marks the first one exactly (a borrow only runs upwards).
        let x = word ^ (ONES * u64::from(b'\n'));
        let found = x.wrapping_sub(ONES) & !x & HIGH;
        if found != 0 {
            let bit = found.trailing_zeros();
            let upto = word & (u64::MAX >> (63 - bit));
            return (Some(8 * k + bit as usize / 8), (seen | upto) & HIGH == 0);
        }
        seen |= word;
    }
    let newline = tail.iter().position(|&b| b == b'\n');
    let line = tail.get(..newline.map_or(tail.len(), |j| j + 1));
    let ascii = seen & HIGH == 0 && line.is_some_and(<[u8]>::is_ascii);
    (newline.map(|j| 8 * words.len() + j), ascii)
}

/// `bytes` split at the first `at`, which neither half keeps.
fn split_once(bytes: &[u8], at: u8) -> Option<(&[u8], &[u8])> {
    let i = bytes.iter().position(|&b| b == at)?;
    let (head, tail) = bytes.split_at(i);
    Some((head, tail.get(1..)?))
}

/// `char::is_whitespace` on a byte: the ASCII half of the Unicode set
/// (`\x0B` is in it; `u8::is_ascii_whitespace` leaves it out).
fn is_space(byte: u8) -> bool {
    matches!(byte, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// `str::trim` on a slice of a valid UTF-8 line: bytewise over ASCII
/// whitespace, and through `str::trim` only when an end left standing is
/// not ASCII (U+00A0, U+3000 and the like) or is `\x0B`, which
/// `char::is_whitespace` takes and `u8::is_ascii_whitespace` does not.
fn trim(bytes: &[u8]) -> &[u8] {
    match bytes.trim_ascii() {
        t @ ([0x0B | 0x80..=0xFF, ..] | [.., 0x0B | 0x80..=0xFF]) => {
            std::str::from_utf8(bytes).map_or(t, |text| text.trim().as_bytes())
        }
        t => t,
    }
}

/// The start line's first two words, split where `str::split_whitespace`
/// splits: bytewise in an ASCII line, by `char` in any other.
fn words(line: &[u8]) -> [Option<&[u8]>; 2] {
    if !line.is_ascii() {
        if let Ok(text) = std::str::from_utf8(line) {
            let mut words = text.split_whitespace().map(str::as_bytes);
            return [words.next(), words.next()];
        }
    }
    let mut words = line.split(|&b| is_space(b)).filter(|w| !w.is_empty());
    [words.next(), words.next()]
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
    host: Option<&'buf [u8]>,
    x_client: Option<&'buf [u8]>,
    x_request_id: Option<&'buf [u8]>,
    date: Option<&'buf [u8]>,
    x_hit_count: Option<&'buf [u8]>,
    if_modified_since: Option<&'buf [u8]>,
    content_location: Option<&'buf [u8]>,
    last_modified: Option<&'buf [u8]>,
    x_size: Option<&'buf [u8]>,
    x_lease: Option<&'buf [u8]>,
    x_piggyback: Option<&'buf [u8]>,
    x_volume_lease: Option<&'buf [u8]>,
    content_length: Option<&'buf [u8]>,
    x_server: Option<&'buf [u8]>,
    x_batch: Option<&'buf [u8]>,
}

impl<'buf> Headers<'buf> {
    /// The slot `name` (already trimmed) fills, if the protocol reads it.
    /// The length picks at most two candidates before any byte is compared.
    fn slot(&mut self, name: &[u8]) -> Option<&mut Option<&'buf [u8]>> {
        let is = |known: &[u8]| name.eq_ignore_ascii_case(known);
        Some(match name.len() {
            4 if is(b"host") => &mut self.host,
            4 if is(b"date") => &mut self.date,
            6 if is(b"x-size") => &mut self.x_size,
            7 if is(b"x-lease") => &mut self.x_lease,
            7 if is(b"x-batch") => &mut self.x_batch,
            8 if is(b"x-client") => &mut self.x_client,
            8 if is(b"x-server") => &mut self.x_server,
            11 if is(b"x-hit-count") => &mut self.x_hit_count,
            11 if is(b"x-piggyback") => &mut self.x_piggyback,
            12 if is(b"x-request-id") => &mut self.x_request_id,
            13 if is(b"last-modified") => &mut self.last_modified,
            14 if is(b"content-length") => &mut self.content_length,
            14 if is(b"x-volume-lease") => &mut self.x_volume_lease,
            16 if is(b"content-location") => &mut self.content_location,
            17 if is(b"if-modified-since") => &mut self.if_modified_since,
            _ => return None,
        })
    }

    /// Files one header line; `None` if it has no colon.
    fn record(&mut self, line: &'buf [u8]) -> Option<()> {
        let (name, value) = split_once(line, b':')?;
        if let Some(slot) = self.slot(trim(name)) {
            *slot = Some(trim(value));
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
    match layout(buf) {
        Some(frame) => Ok(Some(frame)),
        None => read_by_rules(buf, eof),
    }
}

/// The layout pass (see the module docs): what [`read_by_rules`] returns
/// for the same bytes, or `None` for anything but a whole frame as
/// `encode_into` writes it.
fn layout(buf: &[u8]) -> Option<(HttpMsgRef<'_>, usize)> {
    let mut at = Layout(buf);
    let msg = match buf.first()? {
        b'G' => {
            let url = at.start(b"GET /doc/")?;
            let client = at.client()?;
            let req = RequestId::new(at.header(b"X-Request-Id: ")?);
            let issued_at = SimTime::from_micros(at.header(b"Date: ")?);
            let cache_hits = at.optional(b"X-Hit-Count: ")?.unwrap_or(0);
            let ims = at.optional(b"If-Modified-Since: ")?;
            HttpMsg::Get(GetRequest {
                req,
                url,
                client,
                ims: ims.map(SimTime::from_micros),
                issued_at,
                cache_hits,
            })
        }
        b'H' => {
            let reply = at.reply()?;
            return Some((HttpMsgRef::Reply(reply), at.used(buf)));
        }
        b'I' => HttpMsg::Invalidate {
            url: at.start(b"INVALIDATE /doc/")?,
            client: at.client()?,
        },
        b'A' => HttpMsg::InvalAck {
            url: at.start(b"ACK /doc/")?,
            client: at.client()?,
            cache_hits: at.optional(b"X-Hit-Count: ")?.unwrap_or(0),
        },
        _ => return None,
    };
    at.lit(b"\r\n")?;
    Some((HttpMsgRef::Owned(msg), at.used(buf)))
}

/// The layout pass's cursor: what is still to be read.
struct Layout<'buf>(&'buf [u8]);

impl<'buf> Layout<'buf> {
    /// How much of `buf`, which the cursor started on, it has read.
    fn used(&self, buf: &[u8]) -> usize {
        buf.len() - self.0.len()
    }

    /// Steps past `text`, if the bytes start with it.
    fn lit(&mut self, text: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(text)?;
        Some(())
    }

    /// A number as `put_dec` writes it — digits with no sign and no leading
    /// zero — that fits `T`.
    fn num<T: TryFrom<u64>>(&mut self) -> Option<T> {
        if let [b'0', b'0'..=b'9', ..] = self.0 {
            return None;
        }
        let mut value = 0u64;
        let mut len = 0;
        while let Some(digit @ b'0'..=b'9') = self.0.get(len) {
            let digit = u64::from(digit - b'0');
            value = value.checked_mul(10)?.checked_add(digit)?;
            len += 1;
        }
        self.0 = self.0.get(len..).filter(|_| len > 0)?;
        T::try_from(value).ok()
    }

    /// One numeric header line; `name` runs up to where the number starts.
    fn header<T: TryFrom<u64>>(&mut self, name: &[u8]) -> Option<T> {
        self.lit(name)?;
        let value = self.num()?;
        self.lit(b"\r\n")?;
        Some(value)
    }

    /// A numeric header line the encoder writes only sometimes: `Some(None)`
    /// where the bytes do not start with `name`.
    fn optional<T: TryFrom<u64>>(&mut self, name: &[u8]) -> Option<Option<T>> {
        if self.0.starts_with(name) {
            self.header(name).map(Some)
        } else {
            Some(None)
        }
    }

    /// `<verb> /doc/N HTTP/1.0` and the `Host` line: `put_start`'s lines.
    fn start(&mut self, verb_and_path: &[u8]) -> Option<Url> {
        self.lit(verb_and_path)?;
        let doc = self.num()?;
        self.lit(b" HTTP/1.0\r\n")?;
        Some(Url::new(ServerId::new(self.header(b"Host: server")?), doc))
    }

    /// The `X-Client` line: a dotted quad.
    fn client(&mut self) -> Option<ClientId> {
        self.lit(b"X-Client: ")?;
        let mut octets = [0; 4];
        for (i, octet) in octets.iter_mut().enumerate() {
            if i > 0 {
                self.lit(b".")?;
            }
            *octet = self.num()?;
        }
        self.lit(b"\r\n")?;
        Some(ClientId::from_ip(octets))
    }

    /// A `200` or `304` without piggybacked invalidations, up to the end of
    /// its body.
    fn reply(&mut self) -> Option<ReplyRef<'buf>> {
        let ok = self.lit(b"HTTP/1.0 200 OK\r\n").is_some();
        if !ok {
            self.lit(b"HTTP/1.0 304 Not Modified\r\n")?;
        }
        let server = ServerId::new(self.header(b"Host: server")?);
        let url = Url::new(server, self.header(b"Content-Location: /doc/")?);
        let client = self.client()?;
        let req = RequestId::new(self.header(b"X-Request-Id: ")?);
        let meta = if ok {
            let modified = SimTime::from_micros(self.header(b"Last-Modified: ")?);
            let size = self.header(b"X-Size: ")?;
            if size > crate::MAX_DOC_SIZE {
                return None;
            }
            Some(DocMeta::new(ByteSize::from_bytes(size), modified))
        } else {
            None
        };
        let lease = self.optional(b"X-Lease: ")?.map(SimDuration::from_micros);
        let volume_lease = self.optional(b"X-Volume-Lease: ")?;
        let status = match meta {
            Some(meta) => {
                let len = self.header(b"Content-Length: ")?;
                self.lit(b"\r\n")?;
                let (payload, rest) = self.0.split_at_checked(len)?;
                self.0 = rest;
                ReplyStatusRef::Ok { meta, payload }
            }
            None => {
                self.lit(b"\r\n")?;
                ReplyStatusRef::NotModified
            }
        };
        Some(ReplyRef {
            req,
            url,
            client,
            status,
            lease,
            // An empty list: no allocation.
            piggyback: Vec::new(),
            volume_lease: volume_lease.map(SimDuration::from_micros),
        })
    }
}

/// The rule-by-rule reader: any byte sequence, read line by line by the
/// header rules (see the module docs). [`decode_frame`] runs it, from the
/// frame's first byte, on whatever the layout pass declines.
fn read_by_rules(buf: &[u8], eof: bool) -> Result<Option<(HttpMsgRef<'_>, usize)>, WireError> {
    let mut lines = Lines { rest: buf, eof };
    let start = match lines.next_line()? {
        LineRead::NeedMore => return Ok(None),
        LineRead::CleanEof => return Err(WireError::Closed),
        LineRead::Line(b"") => return Err(malformed("empty start line")),
        LineRead::Line(line) => line,
    };
    // Read every header line up front: the whole header block is consumed
    // before the start line is interpreted, so a bad header wins over a
    // bad verb.
    let mut headers = Headers::default();
    loop {
        match lines.next_line()? {
            LineRead::NeedMore => return Ok(None),
            LineRead::CleanEof => return Err(malformed("eof inside headers")),
            LineRead::Line(b"") => break,
            LineRead::Line(line) => headers
                .record(line)
                .ok_or_else(|| malformed_at("bad header: ", line))?,
        }
    }
    let body = lines.rest;
    let body_start = buf.len() - body.len();

    let [verb, word] = words(start);
    let verb = verb.ok_or_else(|| malformed("missing verb"))?;
    let next = |why| word.ok_or_else(|| malformed(why));
    let msg = match verb {
        b"GET" => match next("GET without path")? {
            b"/metrics" => HttpMsg::MetricsGet,
            path => HttpMsg::Get(GetRequest {
                url: url_from(headers.host, path)?,
                req: RequestId::new(required(headers.x_request_id, "x-request-id")?),
                client: required_client(headers.x_client)?,
                ims: headers.if_modified_since.map(parse_micros).transpose()?,
                issued_at: parse_micros(headers.date.unwrap_or(b"0"))?,
                cache_hits: parse_hit_count(headers.x_hit_count)?,
            }),
        },
        b"HTTP/1.0" => {
            let code = next("reply without code")?;
            let path = headers
                .content_location
                .ok_or_else(|| malformed("reply without Content-Location"))?;
            let url = url_from(headers.host, path)?;
            let req = RequestId::new(required(headers.x_request_id, "x-request-id")?);
            let client = required_client(headers.x_client)?;
            let lease = headers.x_lease.map(parse_span).transpose()?;
            let piggyback = headers.x_piggyback.map(|list| {
                let doc = |d: &[u8]| Some(Url::new(url.server(), parse_decimal(trim(d))?));
                entries(list.split(|&b| b == b','), "bad piggyback entry ", doc)
            });
            let piggyback = piggyback.transpose()?.unwrap_or_default();
            let volume_lease = headers.x_volume_lease.map(parse_span).transpose()?;
            let (status, used) = match code {
                b"200" => {
                    let len = required::<u64>(headers.content_length, "content-length")? as usize;
                    let Some(payload) = body.get(..len) else {
                        return if eof { Err(short_body()) } else { Ok(None) };
                    };
                    let size = required(headers.x_size, "x-size")?;
                    if size > crate::MAX_DOC_SIZE {
                        return Err(WireError::DocTooLarge(size));
                    }
                    let size = ByteSize::from_bytes(size);
                    let modified = headers.last_modified;
                    let modified = modified.ok_or_else(|| malformed("200 without Last-Modified"));
                    let meta = DocMeta::new(size, parse_micros(modified?)?);
                    (ReplyStatusRef::Ok { meta, payload }, body_start + len)
                }
                b"304" => (ReplyStatusRef::NotModified, body_start),
                other => return Err(malformed_at("unsupported status ", other)),
            };
            let reply = ReplyRef {
                req,
                url,
                client,
                status,
                lease,
                piggyback,
                volume_lease,
            };
            return Ok(Some((HttpMsgRef::Reply(reply), used)));
        }
        b"INVALIDATE" => match next("INVALIDATE without target")? {
            b"*" => {
                let server = ServerId::new(required(headers.x_server, "x-server")?);
                match headers.x_batch {
                    Some(list) => HttpMsg::InvalidateBatch {
                        server,
                        entries: entries(
                            list.split(|&b| b == b',').map(trim),
                            "bad batch entry ",
                            |e| batch_entry(server, e),
                        )?,
                    },
                    None => HttpMsg::InvalidateServer { server },
                }
            }
            target => HttpMsg::Invalidate {
                url: url_from(headers.host, target)?,
                client: required_client(headers.x_client)?,
            },
        },
        b"ACK" => match next("ACK without path")? {
            b"*" => {
                let server = ServerId::new(required(headers.x_server, "x-server")?);
                match headers.x_batch {
                    Some(list) => HttpMsg::InvalidateBatchAck {
                        server,
                        entries: entries(
                            list.split(|&b| b == b',').map(trim),
                            "bad batch ack entry ",
                            |e| batch_ack_entry(server, e),
                        )?,
                    },
                    None => HttpMsg::InvalidateServerAck { server },
                }
            }
            path => HttpMsg::InvalAck {
                url: url_from(headers.host, path)?,
                client: required_client(headers.x_client)?,
                cache_hits: parse_hit_count(headers.x_hit_count)?,
            },
        },
        b"HELLO" => {
            let spec = next("HELLO without partition")?;
            let (p, n) =
                split_once(spec, b'/').ok_or_else(|| malformed("HELLO spec must be p/n"))?;
            let partition = parse_decimal(p).ok_or_else(|| malformed("bad partition"))?;
            let partitions: u32 = parse_decimal(n).ok_or_else(|| malformed("bad partitions"))?;
            if partitions == 0 || partitions > crate::MAX_PARTITIONS || partition >= partitions {
                return Err(malformed("partition out of range"));
            }
            HttpMsg::Hello {
                partition,
                partitions,
            }
        }
        b"NOTIFY" => HttpMsg::Notify {
            url: url_from(headers.host, next("NOTIFY without path")?)?,
            at: parse_micros(headers.date.unwrap_or(b"0"))?,
        },
        other => return Err(malformed_at("unknown verb ", other)),
    };
    Ok(Some((HttpMsgRef::Owned(msg), body_start)))
}

/// Decodes one message from a buffer known to hold the complete frame
/// (trailing bytes are ignored).
///
/// # Errors
///
/// Those of [`decode_frame`] at EOF.
pub fn decode_ref(buf: &[u8]) -> Result<HttpMsgRef<'_>, WireError> {
    #[expect(
        clippy::expect_used,
        reason = "with `eof = true` the decoder never defers"
    )]
    let (msg, _used) = decode_frame(buf, true)?.expect("decode_frame never defers at eof");
    Ok(msg)
}

fn url_from(host: Option<&[u8]>, path: &[u8]) -> Result<Url, WireError> {
    let host = host.ok_or_else(|| malformed("missing Host header"))?;
    let server = host
        .strip_prefix(b"server")
        .and_then(parse_decimal)
        .ok_or_else(|| malformed_at("bad Host: ", host))?;
    Url::from_path_ascii(ServerId::new(server), path).ok_or_else(|| malformed_at("bad path ", path))
}

/// The number a header the message cannot do without carries, parsed as
/// the type it lands in: a value out of that type's range is malformed,
/// never wrapped.
fn required<T: TryFrom<u64>>(value: Option<&[u8]>, name: &str) -> Result<T, WireError> {
    let value = value.ok_or_else(|| malformed_at("missing header ", name.as_bytes()))?;
    parse_decimal(value).ok_or_else(|| malformed_at("non-numeric header ", name.as_bytes()))
}

fn required_client(value: Option<&[u8]>) -> Result<ClientId, WireError> {
    let value = value.ok_or_else(|| malformed("missing X-Client"))?;
    ClientId::from_ascii(value).map_err(|_| malformed("bad X-Client"))
}

fn parse_micros(value: &[u8]) -> Result<SimTime, WireError> {
    parse_decimal(value)
        .map(SimTime::from_micros)
        .ok_or_else(|| malformed_at("bad timestamp ", value))
}

fn parse_span(value: &[u8]) -> Result<SimDuration, WireError> {
    parse_micros(value).map(|t| t.saturating_since(SimTime::ZERO))
}

fn parse_hit_count(value: Option<&[u8]>) -> Result<u64, WireError> {
    value.map_or(Ok(0), |v| {
        parse_decimal(v).ok_or_else(|| malformed("bad X-Hit-Count"))
    })
}

/// A list's entries, parsed in order. The first entry `parse` refuses is
/// the error: `why` and the entry, quoted.
fn entries<'a, T>(
    list: impl Iterator<Item = &'a [u8]>,
    why: &str,
    parse: impl Fn(&[u8]) -> Option<T>,
) -> Result<Vec<T>, WireError> {
    list.map(|e| parse(e).ok_or_else(|| bad_entry(why, e)))
        .collect()
}

/// One `X-Batch` entry of an `INVALIDATE *` round: `doc:client`.
fn batch_entry(server: ServerId, entry: &[u8]) -> Option<BatchEntry> {
    let (doc, client) = split_once(entry, b':')?;
    Some(BatchEntry {
        url: Url::new(server, parse_decimal(doc)?),
        client: ClientId::from_ascii(client).ok()?,
    })
}

/// One `X-Batch` entry of an `ACK *` round: `doc:client:hits`.
fn batch_ack_entry(server: ServerId, entry: &[u8]) -> Option<BatchAckEntry> {
    let (doc, rest) = split_once(entry, b':')?;
    let (client, hits) = split_once(rest, b':')?;
    Some(BatchAckEntry {
        url: Url::new(server, parse_decimal(doc)?),
        client: ClientId::from_ascii(client).ok()?,
        cache_hits: parse_decimal(hits)?,
    })
}

// ---------------------------------------------------------------------------
// Cold error constructors, one per shape of message. Decode errors terminate
// the connection, so the allocations below never run in the steady-state
// loop (the trajectory's `codec.run_allocs` row counts that loop). A value
// they quote is a slice of a line already checked to be UTF-8, so the lossy
// conversion renders it unchanged.

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
fn malformed(why: &str) -> WireError {
    WireError::Malformed(why.to_string())
}

/// `why` followed by the value it is about.
#[cold]
#[expect(
    clippy::disallowed_macros,
    reason = "an error's text, built once as its connection closes"
)]
fn malformed_at(why: &str, value: &[u8]) -> WireError {
    let value = String::from_utf8_lossy(value);
    WireError::Malformed(format!("{why}{value}"))
}

/// `why` followed by a list entry, quoted: an entry may hold any text but
/// a comma.
#[cold]
#[expect(
    clippy::disallowed_macros,
    reason = "an error's text, built once as its connection closes"
)]
fn bad_entry(why: &str, entry: &[u8]) -> WireError {
    let entry = String::from_utf8_lossy(entry);
    WireError::Malformed(format!("{why}{entry:?}"))
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
    #[expect(clippy::indexing_slicing, reason = "start..end and frames lie in buf")]
    pub fn next_msg(&mut self) -> Result<HttpMsgRef<'_>, WireError> {
        loop {
            // First pass establishes the frame length (the decoded borrow is
            // dropped inside the match); the complete frame is then decoded
            // again outside the loop, which satisfies the borrow checker at
            // the cost of one re-parse of ~10 short lines.
            let pending = &self.buf[self.start..self.end];
            let used = match decode_frame(pending, self.eof)? {
                Some((_msg, used)) => used,
                None => {
                    self.fill()?;
                    continue;
                }
            };
            let lo = self.start;
            self.start += used;
            let frame = &self.buf[lo..lo + used];
            #[expect(clippy::expect_used, reason = "the frame just decoded whole")]
            let (msg, _) = decode_frame(frame, true)?.expect("complete frame re-decodes");
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
        #[expect(clippy::indexing_slicing, reason = "the buffer never shrinks")]
        let room = &mut self.buf[self.end..];
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
    /// Decodes that copy nothing out of the buffer: every frame but a `200`.
    pub borrows: u64,
    /// Decodes whose `200` body needed an owning copy
    /// ([`HttpMsgRef::needs_copy`]).
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
    let mut buf = Vec::new();
    for msg in msgs {
        crate::wire::encode_into(msg, &mut buf);
    }
    stats.bytes = buf.len() as u64;
    let mut rest: &[u8] = &buf;
    #[expect(clippy::indexing_slicing, reason = "a frame uses at most `rest`")]
    while !rest.is_empty() {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: the corpus is encoded here"
        )]
        let (msg, used) = decode_frame(rest, true)
            .expect("corpus re-decodes cleanly")
            .expect("eof decode never defers");
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
#[allow(clippy::disallowed_macros, reason = "tests format as they like")]
mod tests {
    use super::*;
    use crate::wire::encode;

    include!("../tests/layout_departures/mod.rs");

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
                lease: Some(SimDuration::from_secs(9)),
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

    /// Every shape of the five frames the layout pass reads, each optional
    /// header on and off, at both ends of every value, is taken by the
    /// layout pass, never left to the rules, and read as the rules read it.
    #[test]
    fn the_layout_pass_takes_every_frame_the_encoder_writes() {
        let ends = [
            (
                Url::new(ServerId::new(0), 0),
                ClientId::from_raw(0),
                0,
                SimTime::ZERO,
            ),
            (
                Url::new(ServerId::new(u32::MAX), u32::MAX),
                ClientId::from_ip([255; 4]),
                u64::MAX,
                SimTime::from_micros(u64::MAX),
            ),
        ];
        let spans = [None, Some(SimDuration::ZERO), Some(SimDuration::MAX)];
        let mut msgs = Vec::new();
        for (url, client, id, time) in ends {
            for cache_hits in [0, 1, u64::MAX] {
                for ims in [None, Some(time)] {
                    msgs.push(HttpMsg::Get(GetRequest {
                        req: RequestId::new(id),
                        url,
                        client,
                        ims,
                        issued_at: time,
                        cache_hits,
                    }));
                }
                msgs.push(HttpMsg::InvalAck {
                    url,
                    client,
                    cache_hits,
                });
            }
            msgs.push(HttpMsg::Invalidate { url, client });
            let bodies = [
                ReplyStatus::NotModified,
                ReplyStatus::Ok(Body::new(DocMeta::new(ByteSize::ZERO, time), Vec::new())),
                ReplyStatus::Ok(Body::new(
                    DocMeta::new(ByteSize::from_bytes(crate::MAX_DOC_SIZE), time),
                    vec![7; 8192],
                )),
            ];
            for status in bodies {
                for (lease, volume_lease) in spans.iter().flat_map(|&l| spans.map(|v| (l, v))) {
                    msgs.push(HttpMsg::Reply(Reply {
                        req: RequestId::new(id),
                        url,
                        client,
                        status: status.clone(),
                        lease,
                        piggyback: Vec::new(),
                        volume_lease,
                    }));
                }
            }
        }
        for msg in msgs {
            let mut bytes = encode(&msg);
            let whole = bytes.len();
            // The next frame's first bytes, pipelined behind.
            bytes.extend_from_slice(b"GET /doc/");
            let taken = layout(&bytes).unwrap_or_else(|| panic!("declined {msg:?}"));
            assert_eq!((taken.0.to_owned(), taken.1), (msg.clone(), whole));
            assert_eq!(
                Some(taken),
                read_by_rules(&bytes, false).unwrap(),
                "{msg:?}"
            );
        }
    }

    /// One departure from the encoder's layout sends a frame to the rules:
    /// the layout pass declines it whole, a body cut short included, and
    /// never turns it into an error of its own.
    #[test]
    fn the_layout_pass_declines_every_departure() {
        assert!(layout(LAYOUT_GET.as_bytes()).is_some());
        assert!(layout(LAYOUT_200.as_bytes()).is_some());
        for (why, bytes) in layout_departures() {
            assert_eq!(layout(&bytes), None, "{why}");
        }
        let cut = &LAYOUT_200.as_bytes()[..LAYOUT_200.len() - 2];
        assert!(matches!(decode_frame(cut, false), Ok(None)));
        assert!(matches!(decode_frame(cut, true), Err(WireError::Io(_))));
    }

    #[test]
    fn a_known_name_fills_its_slot_whatever_its_case_and_padding() {
        let mut headers = Headers::default();
        assert_eq!(headers.record(b"x-CLIENT:1.2.3.4"), Some(()));
        assert_eq!(headers.record(b"  Content-LENGTH \t:  12  "), Some(()));
        let expected = Headers {
            x_client: Some(&b"1.2.3.4"[..]),
            content_length: Some(&b"12"[..]),
            ..Headers::default()
        };
        assert_eq!(headers, expected);
        // Last wins; only the first colon splits.
        assert_eq!(headers.record(b"X-Client: 5.6.7.8:9"), Some(()));
        assert_eq!(headers.x_client, Some(&b"5.6.7.8:9"[..]));
        assert_eq!(headers.record(b"no colon"), None);
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
            let slot = headers.slot(name.as_bytes()).expect("a known name");
            assert_eq!(*slot, None, "{name} shares a slot");
            *slot = Some(name.as_bytes());
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
            assert_eq!(headers.record(line.as_bytes()), Some(()), "{line}");
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
            HttpMsgRef::Owned(HttpMsg::InvalidateServerAck {
                server: ServerId::new(u32::MAX)
            })
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
