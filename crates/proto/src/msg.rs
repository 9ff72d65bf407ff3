//! The message vocabulary exchanged by proxies, the accelerator, the origin
//! server, the modifier and the time coordinator.

use core::fmt;
use wcc_types::{Body, ByteSize, ClientId, ServerId, SimDuration, SimTime, Url};

/// Correlates a reply with the request that caused it. Unique per issuing
/// proxy (the pair `(proxy node, RequestId)` is globally unique).
///
/// # Examples
///
/// ```
/// use wcc_proto::RequestId;
///
/// let id = RequestId::new(7);
/// assert_eq!(id.get(), 7);
/// assert_eq!(id.next(), RequestId::new(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        RequestId(raw)
    }

    /// The raw counter value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The next id in sequence.
    #[must_use]
    pub const fn next(self) -> RequestId {
        RequestId(self.0 + 1)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("req")?;
        fmt::Display::fmt(&self.0, f)
    }
}

/// A `GET` request from a proxy to the origin site, optionally conditional.
///
/// `ims: Some(validator)` makes this an `If-Modified-Since` request: the
/// server replies `304` unless the document was modified strictly after
/// `validator`. `client` is the real client on whose behalf the proxy asks —
/// the paper's proxies forward it so the accelerator can maintain per-client
/// site lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetRequest {
    /// Correlation id chosen by the issuing proxy.
    pub req: RequestId,
    /// The requested document.
    pub url: Url,
    /// The real client behind the request.
    pub client: ClientId,
    /// `If-Modified-Since` validator, if this is a conditional request.
    pub ims: Option<SimTime>,
    /// The request's protocol time, its `Date:`: in the simulator, the trace
    /// time of the current window, at which leases are granted and counted.
    /// A daemon node judges a `GET` it receives at its own clock instead.
    pub issued_at: SimTime,
    /// Cache hits served locally since this client's last contact for this
    /// document — the §7 hit-metering report, riding the request for free.
    pub cache_hits: u64,
}

impl GetRequest {
    /// Returns `true` if this is a conditional (`If-Modified-Since`) request.
    pub fn is_ims(&self) -> bool {
        self.ims.is_some()
    }
}

/// The status line + body of a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyStatus {
    /// `200 OK` — "document follows".
    Ok(Body),
    /// `304 Not Modified`.
    NotModified,
}

/// A reply from the origin site to a proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Echo of the request's correlation id.
    pub req: RequestId,
    /// The document the reply concerns.
    pub url: Url,
    /// The real client behind the original request.
    pub client: ClientId,
    /// Status and (for `200`) body.
    pub status: ReplyStatus,
    /// Lease grant: for how long after the request's `issued_at` the server
    /// promises to invalidate this client. `None` outside the lease protocols.
    pub lease: Option<SimDuration>,
    /// Piggybacked invalidations (the PSI extension): documents whose
    /// copies this client must drop. Empty outside PSI.
    pub piggyback: Vec<Url>,
    /// Volume-lease renewal (the volume-lease extension): the client's
    /// per-server volume lease now runs this long, counted like `lease`.
    pub volume_lease: Option<SimDuration>,
}

/// One `(document, client)` entry of a batched invalidation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BatchEntry {
    /// The modified document.
    pub url: Url,
    /// The real client whose copy must be dropped.
    pub client: ClientId,
}

/// One entry of a batch acknowledgement: the invalidated copy plus its
/// §7 hit-metering report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BatchAckEntry {
    /// The document whose invalidation is being acknowledged.
    pub url: Url,
    /// The acknowledging client.
    pub client: ClientId,
    /// Unreported cache hits on the copy that was just deleted.
    pub cache_hits: u64,
}

/// The most partitions a `HELLO` may name. A node keeps state per site, so
/// the decoder turns a larger count away.
pub const MAX_PARTITIONS: u32 = 1 << 16;

/// The largest `X-Size` a `200` may carry, in bytes. The size is the
/// sender's word and a proxy answers its clients with bodies that long, so
/// the decoder turns a larger one away. It is seven times the largest
/// document a shipped trace can hold: sizes are clamped at 50 times a
/// trace's mean, and the largest mean is 44 KiB.
pub const MAX_DOC_SIZE: u64 = 16 << 20;

/// The HTTP-level messages of the consistency protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpMsg {
    /// Proxy → origin: plain or conditional `GET`.
    Get(GetRequest),
    /// Origin → proxy: `200` or `304` reply.
    Reply(Reply),
    /// Origin → proxy: the cached copy of `url` held for `client` is stale;
    /// delete it. (The paper's `INVALIDATE <url>` form.)
    Invalidate {
        /// The modified document.
        url: Url,
        /// The real client whose copy must be dropped.
        client: ClientId,
    },
    /// Origin → proxy: the server at `server` has recovered from a crash and
    /// may have missed modifications; mark every cached copy from it
    /// *questionable*. (The paper's `INVALIDATE <server-addr>` form.)
    InvalidateServer {
        /// The recovered origin server.
        server: ServerId,
    },
    /// Origin → proxy: one coalesced round of the batched invalidation
    /// proposer — every stale `(document, client)` copy this proxy's
    /// partition holds for `server`, in one wire message instead of one
    /// `INVALIDATE <url>` per copy. Every entry's URL lives on `server`,
    /// and the list is never empty (an empty round is simply not sent).
    InvalidateBatch {
        /// The origin whose proposer flushed this round.
        server: ServerId,
        /// The coalesced `(document, client)` entries, sorted.
        entries: Vec<BatchEntry>,
    },
    /// Proxy → origin: acknowledges a whole [`HttpMsg::InvalidateBatch`]
    /// round — delivered reliably like [`HttpMsg::InvalidateServerAck`] —
    /// carrying the per-entry §7 hit reports so the accelerator can clean
    /// its site lists and merge metering exactly as per-entry
    /// [`HttpMsg::InvalAck`]s would have.
    InvalidateBatchAck {
        /// The origin being acknowledged.
        server: ServerId,
        /// Per-entry acknowledgements, in the round's order.
        entries: Vec<BatchAckEntry>,
    },
    /// Proxy → origin: acknowledges receipt of an `InvalidateServer` bulk
    /// message. The recovery invalidation must be delivered reliably —
    /// a partition at recovery time would otherwise leave the proxy
    /// promising freshness for documents modified during the outage — so
    /// the origin retries the bulk message until this ack arrives.
    InvalidateServerAck {
        /// The recovered origin server being acknowledged.
        server: ServerId,
    },
    /// Proxy → origin: acknowledges receipt of an `Invalidate`, letting the
    /// accelerator delete the client from the document's site list. (Models
    /// the TCP-level delivery confirmation the paper relies on.)
    InvalAck {
        /// The document whose invalidation is being acknowledged.
        url: Url,
        /// The acknowledging client.
        client: ClientId,
        /// Unreported cache hits on the copy that was just deleted — the
        /// §7 hit-metering merge: the report rides the ack for free.
        cache_hits: u64,
    },
    /// Proxy → origin (real-TCP prototype only): registers this connection
    /// as the push channel for invalidations to the proxy handling
    /// partition `partition` of `partitions`. Proxy-initiated, so it works
    /// through firewalls (cf. the paper's §7 remark that invalidation
    /// should run between the server and the firewall proxy).
    Hello {
        /// This proxy's partition index.
        partition: u32,
        /// Total number of partitions.
        partitions: u32,
    },
    /// Scraper → any node (real-TCP prototype only): `GET /metrics`. The
    /// node replies with a raw Prometheus text exposition (outside the
    /// [`HttpMsg`] vocabulary — the reply is plain HTTP, not a simulated
    /// protocol message) and closes the connection.
    MetricsGet,
    /// Modifier utility → accelerator: `url` has just been checked in
    /// (modified). The paper's "notify" change-detection path.
    Notify {
        /// The modified document.
        url: Url,
        /// The touch's trace-time timestamp (becomes the document's new
        /// `Last-Modified`).
        at: SimTime,
    },
}

/// Lock-step control messages for the trace replay (§5.1: the time
/// coordinator runs the simulation "in lock step for every five minutes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordMsg {
    /// Coordinator → pseudo-clients and modifier: begin replaying the
    /// records whose timestamps fall before `window_end`.
    StepStart {
        /// Zero-based step index.
        step: u32,
        /// End of the step's time window.
        window_end: SimTime,
    },
    /// Pseudo-client/modifier → coordinator: finished issuing this step's
    /// work.
    StepDone {
        /// Echo of the step index.
        step: u32,
    },
}

/// Every message that can travel between simulation nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Protocol traffic (counted in the paper's message tallies).
    Http(HttpMsg),
    /// Replay scaffolding (not protocol traffic; excluded from tallies).
    Coord(CoordMsg),
}

/// Nominal wire sizes of the control messages, in bytes. These approximate
/// typical HTTP/1.0 header sizes; file transfers add the document body on
/// top of [`sizes::REPLY200_HEADER_SIZE`].
pub mod sizes {
    /// A plain `GET` request.
    pub const GET_SIZE: u64 = 256;
    /// A `GET` with `If-Modified-Since` (one extra header line).
    pub const IMS_SIZE: u64 = 288;
    /// A `304 Not Modified` reply.
    pub const REPLY304_SIZE: u64 = 160;
    /// The header portion of a `200` reply (body size is added).
    pub const REPLY200_HEADER_SIZE: u64 = 256;
    /// An `INVALIDATE <url>` message.
    pub const INVALIDATE_SIZE: u64 = 128;
    /// An `INVALIDATE <server>` bulk message.
    pub const INVALIDATE_SERVER_SIZE: u64 = 128;
    /// An invalidation acknowledgement (TCP ack analogue).
    pub const INVAL_ACK_SIZE: u64 = 64;
    /// The header portion of a batched `INVALIDATE` round (entries extra).
    pub const INVAL_BATCH_BASE_SIZE: u64 = 128;
    /// Extra bytes per `(document, client)` entry in a batched round.
    pub const INVAL_BATCH_ENTRY_SIZE: u64 = 16;
    /// The header portion of a batch acknowledgement (entries extra).
    pub const INVAL_BATCH_ACK_BASE_SIZE: u64 = 64;
    /// Extra bytes per entry in a batch acknowledgement.
    pub const INVAL_BATCH_ACK_ENTRY_SIZE: u64 = 16;
    /// A modifier check-in notification.
    pub const NOTIFY_SIZE: u64 = 128;
    /// A proxy's invalidation-channel registration.
    pub const HELLO_SIZE: u64 = 64;
    /// Extra bytes per piggybacked invalidation entry on a reply.
    pub const PIGGYBACK_ENTRY_SIZE: u64 = 16;
    /// A coordinator control message.
    pub const COORD_SIZE: u64 = 64;
}

impl HttpMsg {
    /// The accounted wire size of this message (headers plus, for `200`
    /// replies, the *unscaled* document size — matching the paper's
    /// byte-count methodology).
    pub fn wire_size(&self) -> ByteSize {
        use sizes::*;
        let bytes = match self {
            HttpMsg::Get(g) if g.is_ims() => IMS_SIZE,
            HttpMsg::Get(_) => GET_SIZE,
            HttpMsg::Reply(r) => {
                let base = match &r.status {
                    ReplyStatus::Ok(body) => REPLY200_HEADER_SIZE + body.meta().size().as_u64(),
                    ReplyStatus::NotModified => REPLY304_SIZE,
                };
                base + PIGGYBACK_ENTRY_SIZE * r.piggyback.len() as u64
            }
            HttpMsg::Invalidate { .. } => INVALIDATE_SIZE,
            HttpMsg::InvalidateBatch { entries, .. } => {
                INVAL_BATCH_BASE_SIZE + INVAL_BATCH_ENTRY_SIZE * entries.len() as u64
            }
            HttpMsg::InvalidateBatchAck { entries, .. } => {
                INVAL_BATCH_ACK_BASE_SIZE + INVAL_BATCH_ACK_ENTRY_SIZE * entries.len() as u64
            }
            HttpMsg::InvalidateServer { .. } => INVALIDATE_SERVER_SIZE,
            HttpMsg::InvalidateServerAck { .. } => INVAL_ACK_SIZE,
            HttpMsg::InvalAck { .. } => INVAL_ACK_SIZE,
            HttpMsg::Notify { .. } => NOTIFY_SIZE,
            HttpMsg::Hello { .. } => HELLO_SIZE,
            // Scrapes are observability traffic, not protocol traffic; the
            // nominal size only matters if one ever crosses the simulator.
            HttpMsg::MetricsGet => GET_SIZE,
        };
        ByteSize::from_bytes(bytes)
    }

    /// The copies an acknowledgement answers for, in frame order: an
    /// `InvalAck`'s one, an `InvalidateBatchAck`'s entries. None for any
    /// other frame: the bulk's ack names no copy.
    pub fn acked(&self) -> impl Iterator<Item = BatchAckEntry> + '_ {
        let (one, round) = match *self {
            HttpMsg::InvalAck {
                url,
                client,
                cache_hits,
            } => (
                Some(BatchAckEntry {
                    url,
                    client,
                    cache_hits,
                }),
                &[][..],
            ),
            HttpMsg::InvalidateBatchAck { ref entries, .. } => (None, entries.as_slice()),
            HttpMsg::Get(_)
            | HttpMsg::Reply(_)
            | HttpMsg::Invalidate { .. }
            | HttpMsg::InvalidateServer { .. }
            | HttpMsg::InvalidateBatch { .. }
            | HttpMsg::InvalidateServerAck { .. }
            | HttpMsg::Hello { .. }
            | HttpMsg::MetricsGet
            | HttpMsg::Notify { .. } => (None, &[][..]),
        };
        one.into_iter().chain(round.iter().copied())
    }
}

impl Message {
    /// The accounted wire size of this message.
    pub fn wire_size(&self) -> ByteSize {
        match self {
            Message::Http(m) => m.wire_size(),
            Message::Coord(_) => ByteSize::from_bytes(sizes::COORD_SIZE),
        }
    }
}

impl From<HttpMsg> for Message {
    fn from(m: HttpMsg) -> Message {
        Message::Http(m)
    }
}

impl From<CoordMsg> for Message {
    fn from(m: CoordMsg) -> Message {
        Message::Coord(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_types::DocMeta;

    fn url() -> Url {
        Url::new(ServerId::new(0), 3)
    }

    fn client() -> ClientId {
        ClientId::from_raw(42)
    }

    fn body(kib: u64) -> Body {
        Body::synthetic(
            DocMeta::new(ByteSize::from_kib(kib), SimTime::from_secs(1)),
            100,
        )
    }

    #[test]
    fn request_id_sequence() {
        let id = RequestId::default();
        assert_eq!(id.get(), 0);
        assert_eq!(id.next().next(), RequestId::new(2));
    }

    #[test]
    fn ims_detection() {
        let plain = GetRequest {
            req: RequestId::new(1),
            url: url(),
            client: client(),
            ims: None,
            issued_at: SimTime::from_secs(3),
            cache_hits: 0,
        };
        let cond = GetRequest {
            ims: Some(SimTime::from_secs(5)),
            ..plain
        };
        assert!(!plain.is_ims());
        assert!(cond.is_ims());
    }

    #[test]
    fn wire_sizes_follow_methodology() {
        let get = HttpMsg::Get(GetRequest {
            req: RequestId::new(0),
            url: url(),
            client: client(),
            ims: None,
            issued_at: SimTime::ZERO,
            cache_hits: 0,
        });
        let ims = HttpMsg::Get(GetRequest {
            req: RequestId::new(0),
            url: url(),
            client: client(),
            ims: Some(SimTime::ZERO),
            issued_at: SimTime::ZERO,
            cache_hits: 0,
        });
        assert!(ims.wire_size() > get.wire_size());

        // A 200 reply accounts the full (unscaled) document size even though
        // the stored payload is scaled down by 100.
        let reply = HttpMsg::Reply(Reply {
            req: RequestId::new(0),
            url: url(),
            client: client(),
            status: ReplyStatus::Ok(body(21)),
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        });
        assert_eq!(
            reply.wire_size(),
            ByteSize::from_bytes(sizes::REPLY200_HEADER_SIZE + 21 * 1024)
        );

        let nm = HttpMsg::Reply(Reply {
            req: RequestId::new(0),
            url: url(),
            client: client(),
            status: ReplyStatus::NotModified,
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        });
        assert_eq!(nm.wire_size(), ByteSize::from_bytes(sizes::REPLY304_SIZE));
    }

    #[test]
    fn batch_wire_size_amortises_per_write_fanout() {
        let entries: Vec<BatchEntry> = (0..10)
            .map(|d| BatchEntry {
                url: Url::new(ServerId::new(0), d),
                client: ClientId::from_raw(d),
            })
            .collect();
        let batch = HttpMsg::InvalidateBatch {
            server: ServerId::new(0),
            entries: entries.clone(),
        };
        let per_write: u64 = entries.len() as u64 * sizes::INVALIDATE_SIZE;
        assert!(
            batch.wire_size().as_u64() < per_write,
            "a 10-entry batch must cost fewer bytes than 10 INVALIDATEs"
        );
        let ack = HttpMsg::InvalidateBatchAck {
            server: ServerId::new(0),
            entries: entries
                .iter()
                .map(|e| BatchAckEntry {
                    url: e.url,
                    client: e.client,
                    cache_hits: 1,
                })
                .collect(),
        };
        assert!(ack.wire_size().as_u64() < entries.len() as u64 * sizes::INVAL_ACK_SIZE + 128);
    }

    #[test]
    fn conversions_into_message() {
        let m: Message = HttpMsg::Notify {
            url: url(),
            at: SimTime::ZERO,
        }
        .into();
        assert!(matches!(m, Message::Http(HttpMsg::Notify { .. })));
        let c: Message = CoordMsg::StepDone { step: 3 }.into();
        assert_eq!(c.wire_size(), ByteSize::from_bytes(sizes::COORD_SIZE));
    }
}
