//! Property tests: every well-formed message survives the wire round trip,
//! the encoder writes byte for byte what its `write!`-based reference
//! writes, and the zero-copy decoder agrees with the owned decoder
//! byte-for-byte — on successes, on truncations, on corrupted bytes and on
//! header blocks no encoder of ours would write.

use proptest::prelude::*;
use std::io::Write;
use wcc_proto::{
    decode, decode_ref, encode, encode_into, BatchAckEntry, BatchEntry, GetRequest, HttpMsg, Reply,
    ReplyStatus, RequestId,
};
use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};

/// Any `u64`, with the two ends of the range — the shortest and the
/// longest decimal rendering — drawn often.
fn u64_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), any::<u64>()]
}

fn u32_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(u32::MAX), any::<u32>()]
}

fn url_strategy() -> impl Strategy<Value = Url> {
    (0u32..16, prop_oneof![0u32..10_000, u32_strategy()])
        .prop_map(|(s, d)| Url::new(ServerId::new(s), d))
}

/// Includes `0.0.0.0` and `255.255.255.255`.
fn client_strategy() -> impl Strategy<Value = ClientId> {
    u32_strategy().prop_map(ClientId::from_raw)
}

fn time_strategy() -> impl Strategy<Value = SimTime> {
    u64_strategy().prop_map(SimTime::from_micros)
}

fn body_strategy() -> impl Strategy<Value = Body> {
    (0u64..100_000, time_strategy(), 1u64..200).prop_map(|(size, mtime, scale)| {
        Body::synthetic(DocMeta::new(ByteSize::from_bytes(size), mtime), scale)
    })
}

fn msg_strategy() -> impl Strategy<Value = HttpMsg> {
    prop_oneof![
        (
            u64_strategy(),
            url_strategy(),
            client_strategy(),
            proptest::option::of(time_strategy()),
            time_strategy(),
            u64_strategy(),
        )
            .prop_map(|(req, url, client, ims, issued_at, cache_hits)| {
                HttpMsg::Get(GetRequest {
                    req: RequestId::new(req),
                    url,
                    client,
                    ims,
                    issued_at,
                    cache_hits,
                })
            }),
        (
            u64_strategy(),
            url_strategy(),
            client_strategy(),
            body_strategy(),
            proptest::option::of(time_strategy()),
            proptest::collection::vec(0u32..10_000, 0..8),
            proptest::option::of(time_strategy()),
        )
            .prop_map(|(req, url, client, body, lease, pb, volume)| {
                HttpMsg::Reply(Reply {
                    req: RequestId::new(req),
                    url,
                    client,
                    status: ReplyStatus::Ok(body),
                    lease,
                    piggyback: pb.into_iter().map(|d| Url::new(url.server(), d)).collect(),
                    volume_lease: volume,
                })
            }),
        (
            u64_strategy(),
            url_strategy(),
            client_strategy(),
            proptest::option::of(time_strategy()),
            proptest::collection::vec(0u32..10_000, 0..8),
            proptest::option::of(time_strategy()),
        )
            .prop_map(|(req, url, client, lease, pb, volume)| {
                HttpMsg::Reply(Reply {
                    req: RequestId::new(req),
                    url,
                    client,
                    status: ReplyStatus::NotModified,
                    lease,
                    piggyback: pb.into_iter().map(|d| Url::new(url.server(), d)).collect(),
                    volume_lease: volume,
                })
            }),
        (url_strategy(), client_strategy())
            .prop_map(|(url, client)| HttpMsg::Invalidate { url, client }),
        (0u32..64).prop_map(|s| HttpMsg::InvalidateServer {
            server: ServerId::new(s)
        }),
        (0u32..64).prop_map(|s| HttpMsg::InvalidateServerAck {
            server: ServerId::new(s)
        }),
        (
            0u32..64,
            proptest::collection::vec((0u32..10_000, u32_strategy()), 1..8),
        )
            .prop_map(|(s, entries)| {
                let server = ServerId::new(s);
                HttpMsg::InvalidateBatch {
                    server,
                    entries: entries
                        .into_iter()
                        .map(|(d, c)| BatchEntry {
                            url: Url::new(server, d),
                            client: ClientId::from_raw(c),
                        })
                        .collect(),
                }
            }),
        (
            0u32..64,
            proptest::collection::vec((0u32..10_000, u32_strategy(), u64_strategy()), 1..8),
        )
            .prop_map(|(s, entries)| {
                let server = ServerId::new(s);
                HttpMsg::InvalidateBatchAck {
                    server,
                    entries: entries
                        .into_iter()
                        .map(|(d, c, cache_hits)| BatchAckEntry {
                            url: Url::new(server, d),
                            client: ClientId::from_raw(c),
                            cache_hits,
                        })
                        .collect(),
                }
            }),
        Just(HttpMsg::MetricsGet),
        (url_strategy(), client_strategy(), u64_strategy()).prop_map(
            |(url, client, cache_hits)| HttpMsg::InvalAck {
                url,
                client,
                cache_hits,
            }
        ),
        (url_strategy(), time_strategy()).prop_map(|(url, at)| HttpMsg::Notify { url, at }),
        (0u32..8, 1u32..9)
            .prop_filter("partition in range", |(p, n)| p < n)
            .prop_map(|(partition, partitions)| HttpMsg::Hello {
                partition,
                partitions
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_decode_round_trips(msg in msg_strategy()) {
        let bytes = encode(&msg);
        let decoded = decode(&mut bytes.as_slice()).expect("well-formed message must decode");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn pipelined_pairs_round_trip(a in msg_strategy(), b in msg_strategy()) {
        let mut bytes = encode(&a);
        bytes.extend(encode(&b));
        let mut cursor = bytes.as_slice();
        prop_assert_eq!(decode(&mut cursor).expect("first"), a);
        prop_assert_eq!(decode(&mut cursor).expect("second"), b);
    }

    #[test]
    fn truncation_never_panics(msg in msg_strategy(), cut in 0usize..64) {
        let bytes = encode(&msg);
        let cut = cut.min(bytes.len());
        let mut truncated = &bytes[..bytes.len() - cut];
        let _ = decode(&mut truncated); // any Result is fine; no panic
    }

    /// The tentpole zero-copy property: for every message variant,
    /// `decode_ref(encode(msg)).to_owned() == msg`.
    #[test]
    fn zero_copy_decode_round_trips(msg in msg_strategy()) {
        let bytes = encode(&msg);
        let msg_ref = decode_ref(&bytes).expect("well-formed message must decode");
        prop_assert_eq!(msg_ref.to_owned(), msg);
    }

    /// Truncated input: the zero-copy decoder must fail exactly when the
    /// owned decoder fails, with a byte-identical error rendering.
    #[test]
    fn zero_copy_truncation_matches_owned(msg in msg_strategy(), cut in 0usize..512) {
        let bytes = encode(&msg);
        let cut = cut.min(bytes.len());
        let slice = &bytes[..bytes.len() - cut];
        assert_decoders_agree(slice)?;
    }

    /// Corrupted input: flip one bit anywhere in the frame; the two
    /// decoders must still agree (both succeed with equal messages, or
    /// both fail with the same error).
    #[test]
    fn zero_copy_corruption_matches_owned(msg in msg_strategy(), pos in 0usize..4096, bit in 0u32..8) {
        let mut bytes = encode(&msg);
        let len = bytes.len();
        bytes[pos % len] ^= 1 << bit;
        assert_decoders_agree(&bytes)?;
    }

    /// The encoder and its `write!`-based reference write the same bytes —
    /// appended, with what the buffer already held left alone.
    #[test]
    fn encoder_matches_fmt_reference(msg in msg_strategy(), prefix in proptest::collection::vec(any::<u8>(), 0..4)) {
        let mut out = prefix.clone();
        encode_into(&msg, &mut out);
        let mut expected = prefix;
        reference_encode_into(&msg, &mut expected);
        prop_assert_eq!(out, expected);
    }

    /// Header blocks no encoder of ours writes — repeated names, odd case,
    /// padding, names nothing reads, colons inside values, lines with no
    /// colon — decode to the same message, or the same error, as through
    /// the owned decoder's map.
    #[test]
    fn zero_copy_header_rules_match_owned(
        msg in msg_strategy(),
        edits in proptest::collection::vec((any::<usize>(), header_edit_strategy()), 1..5),
    ) {
        let mut bytes = encode(&msg);
        for (at, edit) in edits {
            bytes = edit_headers(&bytes, at, &edit);
        }
        assert_decoders_agree(&bytes)?;
    }
}

/// Both decoders on the same bytes: equal messages or equal errors.
fn assert_decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let owned = decode(&mut &bytes[..]);
    let zero = decode_ref(bytes);
    match (owned, zero) {
        (Ok(o), Ok(z)) => prop_assert_eq!(z.to_owned(), o),
        (Err(eo), Err(ez)) => {
            prop_assert_eq!(format!("{ez}"), format!("{eo}"), "error text diverged");
            prop_assert_eq!(
                std::mem::discriminant(&ez),
                std::mem::discriminant(&eo),
                "error variant diverged"
            );
        }
        (o, z) => prop_assert!(
            false,
            "decoders diverged: owned {:?} vs zero-copy {:?}",
            o,
            z
        ),
    }
    Ok(())
}

/// One change to an encoded frame's header block.
#[derive(Debug, Clone)]
enum HeaderEdit {
    /// Repeat a header line under its own name with another value, after
    /// the original (last wins) or before it.
    Duplicate { value: String, after: bool },
    /// Flip the case of every other letter of a header's name.
    MixCase,
    /// Pad a header's name and value with spaces and tabs.
    Pad,
    /// Add a line whose name nothing reads.
    Unknown(String),
    /// Append `:tail` to a header's value.
    ColonInValue(String),
    /// Add a line without a colon: "bad header", whatever the verb.
    NoColon,
    /// Replace the verb, so a bad header has a bad verb to beat.
    BadVerb,
}

/// Values an injected line may carry: empty, numeric, non-numeric, and one
/// well-formed value of each header kind.
const VALUES: [&str; 8] = ["", "0", "x", "1.2.3.4", "/doc/7", "server2", "18", "007"];

/// Names nothing reads, some a letter away from one that is read.
const UNKNOWN_NAMES: [&str; 6] = [
    "User-Agent",
    "Hos",
    "Dates",
    "X-Clientt",
    "Content-Len",
    "If-Modified",
];

fn header_edit_strategy() -> impl Strategy<Value = HeaderEdit> {
    let value = || (0..VALUES.len()).prop_map(|i| VALUES[i].to_string());
    prop_oneof![
        (value(), any::<bool>()).prop_map(|(value, after)| HeaderEdit::Duplicate { value, after }),
        Just(HeaderEdit::MixCase),
        Just(HeaderEdit::Pad),
        (0..UNKNOWN_NAMES.len()).prop_map(|i| HeaderEdit::Unknown(UNKNOWN_NAMES[i].to_string())),
        value().prop_map(HeaderEdit::ColonInValue),
        Just(HeaderEdit::NoColon),
        Just(HeaderEdit::BadVerb),
    ]
}

/// Applies `edit` to the `at`-th (modulo) header line of `frame`; the start
/// line, the blank line and any body stay where they are. A frame without
/// header lines only takes the edits that add one.
fn edit_headers(frame: &[u8], at: usize, edit: &HeaderEdit) -> Vec<u8> {
    let split = frame
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("an encoded frame has a blank line");
    let (head, rest) = frame.split_at(split);
    let head = std::str::from_utf8(head).expect("encoded heads are ASCII");
    let mut lines: Vec<String> = head.split("\r\n").map(str::to_string).collect();
    let headers = lines.len() - 1;
    // The header line the edit is about, split at its first colon. A line
    // an earlier edit left without one takes no further edit.
    let pick = (headers > 0).then(|| 1 + at % headers);
    let picked = pick.and_then(|i| {
        let (name, value) = lines[i].split_once(':')?;
        Some((i, name.to_string(), value.to_string()))
    });
    match (edit, picked) {
        (HeaderEdit::Duplicate { value, after }, Some((i, name, _))) => {
            lines.insert(if *after { i + 1 } else { i }, format!("{name}: {value}"));
        }
        (HeaderEdit::MixCase, Some((i, name, value))) => {
            let mixed: String = name
                .chars()
                .enumerate()
                .map(|(k, c)| {
                    if k % 2 == 0 {
                        c.to_ascii_lowercase()
                    } else {
                        c.to_ascii_uppercase()
                    }
                })
                .collect();
            lines[i] = format!("{mixed}:{value}");
        }
        (HeaderEdit::Pad, Some((i, name, value))) => {
            lines[i] = format!(" \t{name}  : \t {value} \t");
        }
        (HeaderEdit::ColonInValue(tail), Some((i, name, value))) => {
            lines[i] = format!("{name}:{value}:{tail}");
        }
        (HeaderEdit::Unknown(name), _) => lines.insert(1 + at % lines.len(), format!("{name}: 1")),
        (HeaderEdit::NoColon, _) => lines.insert(1 + at % lines.len(), "no colon here".to_string()),
        (HeaderEdit::BadVerb, _) => lines[0] = format!("BOGUS {}", lines[0]),
        (_, None) => {}
    }
    let mut out = lines.join("\r\n").into_bytes();
    out.extend_from_slice(rest);
    out
}

/// The rules the header table must keep, pinned by name on fixed frames
/// (the proptest above finds them only by chance).
#[test]
fn header_rules_pinned_by_name() {
    // Bad header beats bad verb: the block is read before the start line.
    let bytes = b"BOGUS /doc/1 HTTP/1.0\r\nHost: server0\r\nno colon here\r\n\r\n";
    let err = decode_ref(bytes).expect_err("bad header");
    assert_eq!(
        err.to_string(),
        "malformed wire message: bad header: no colon here"
    );
    assert_decoders_agree(bytes).expect("parity");

    // Last wins, whatever the case and padding of either line.
    let bytes = b"NOTIFY /doc/5 HTTP/1.0\r\nhOsT: server9\r\n  HOST\t:  server1 \r\nDate: 7\r\ndate:9\r\n\r\n";
    assert_eq!(
        decode_ref(bytes).expect("decodes").to_owned(),
        HttpMsg::Notify {
            url: Url::new(ServerId::new(1), 5),
            at: SimTime::from_micros(9),
        }
    );
    assert_decoders_agree(bytes).expect("parity");

    // Only the first colon splits: the rest belongs to the value.
    let bytes = b"NOTIFY /doc/5 HTTP/1.0\r\nHost: server1\r\nDate: 7:8\r\n\r\n";
    let err = decode_ref(bytes).expect_err("bad timestamp");
    assert_eq!(err.to_string(), "malformed wire message: bad timestamp 7:8");
    assert_decoders_agree(bytes).expect("parity");

    // A name nothing reads changes nothing, even one a known name prefixes.
    let plain = b"NOTIFY /doc/5 HTTP/1.0\r\nHost: server1\r\nDate: 7\r\n\r\n";
    let noisy = b"NOTIFY /doc/5 HTTP/1.0\r\nHost: server1\r\nDates: 8\r\nDate: 7\r\nX-Dat: 9\r\nUser-Agent: t\r\n\r\n";
    assert_eq!(
        decode_ref(noisy).expect("decodes"),
        decode_ref(plain).expect("decodes")
    );
    assert_decoders_agree(noisy).expect("parity");
}

/// The encoder this crate shipped until the `core::fmt`-free one replaced
/// it, kept as the reference [`encode_into`] is held to: same bytes for
/// every message.
fn reference_encode_into(msg: &HttpMsg, out: &mut Vec<u8>) {
    macro_rules! put {
        ($out:expr, $($arg:tt)*) => {
            write!($out, $($arg)*).expect("a Vec grows as needed")
        };
    }
    fn put_piggyback(out: &mut Vec<u8>, urls: &[Url]) {
        if urls.is_empty() {
            return;
        }
        put!(out, "X-Piggyback: ");
        for (i, url) in urls.iter().enumerate() {
            if i > 0 {
                put!(out, ",");
            }
            put!(out, "{}", url.doc());
        }
        put!(out, "\r\n");
    }
    match msg {
        HttpMsg::Get(g) => {
            put!(out, "GET {} HTTP/1.0\r\n", g.url.path_display());
            put!(out, "Host: server{}\r\n", g.url.server().index());
            put!(out, "X-Client: {}\r\n", g.client);
            put!(out, "X-Request-Id: {}\r\n", g.req.get());
            put!(out, "Date: {}\r\n", g.issued_at.as_micros());
            if g.cache_hits > 0 {
                put!(out, "X-Hit-Count: {}\r\n", g.cache_hits);
            }
            if let Some(validator) = g.ims {
                put!(out, "If-Modified-Since: {}\r\n", validator.as_micros());
            }
            put!(out, "\r\n");
        }
        HttpMsg::Reply(r) => match &r.status {
            ReplyStatus::Ok(body) => {
                put!(out, "HTTP/1.0 200 OK\r\n");
                put!(out, "Host: server{}\r\n", r.url.server().index());
                put!(out, "Content-Location: {}\r\n", r.url.path_display());
                put!(out, "X-Client: {}\r\n", r.client);
                put!(out, "X-Request-Id: {}\r\n", r.req.get());
                put!(
                    out,
                    "Last-Modified: {}\r\n",
                    body.meta().last_modified().as_micros()
                );
                put!(out, "X-Size: {}\r\n", body.meta().size().as_u64());
                if let Some(lease) = r.lease {
                    put!(out, "X-Lease: {}\r\n", lease.as_micros());
                }
                put_piggyback(out, &r.piggyback);
                if let Some(v) = r.volume_lease {
                    put!(out, "X-Volume-Lease: {}\r\n", v.as_micros());
                }
                put!(out, "Content-Length: {}\r\n\r\n", body.payload().len());
                out.extend_from_slice(body.payload());
            }
            ReplyStatus::NotModified => {
                put!(out, "HTTP/1.0 304 Not Modified\r\n");
                put!(out, "Host: server{}\r\n", r.url.server().index());
                put!(out, "Content-Location: {}\r\n", r.url.path_display());
                put!(out, "X-Client: {}\r\n", r.client);
                put!(out, "X-Request-Id: {}\r\n", r.req.get());
                if let Some(lease) = r.lease {
                    put!(out, "X-Lease: {}\r\n", lease.as_micros());
                }
                put_piggyback(out, &r.piggyback);
                if let Some(v) = r.volume_lease {
                    put!(out, "X-Volume-Lease: {}\r\n", v.as_micros());
                }
                put!(out, "\r\n");
            }
        },
        HttpMsg::Invalidate { url, client } => {
            put!(out, "INVALIDATE {} HTTP/1.0\r\n", url.path_display());
            put!(out, "Host: server{}\r\n", url.server().index());
            put!(out, "X-Client: {client}\r\n");
            put!(out, "\r\n");
        }
        HttpMsg::InvalidateServer { server } => {
            put!(out, "INVALIDATE * HTTP/1.0\r\n");
            put!(out, "X-Server: {}\r\n", server.index());
            put!(out, "\r\n");
        }
        HttpMsg::InvalidateBatch { server, entries } => {
            put!(out, "INVALIDATE * HTTP/1.0\r\n");
            put!(out, "X-Server: {}\r\n", server.index());
            put!(out, "X-Batch: ");
            for (i, e) in entries.iter().enumerate() {
                if i > 0 {
                    put!(out, ",");
                }
                put!(out, "{}:{}", e.url.doc(), e.client);
            }
            put!(out, "\r\n\r\n");
        }
        HttpMsg::InvalidateBatchAck { server, entries } => {
            put!(out, "ACK * HTTP/1.0\r\n");
            put!(out, "X-Server: {}\r\n", server.index());
            put!(out, "X-Batch: ");
            for (i, e) in entries.iter().enumerate() {
                if i > 0 {
                    put!(out, ",");
                }
                put!(out, "{}:{}:{}", e.url.doc(), e.client, e.cache_hits);
            }
            put!(out, "\r\n\r\n");
        }
        HttpMsg::InvalidateServerAck { server } => {
            put!(out, "ACK * HTTP/1.0\r\n");
            put!(out, "X-Server: {}\r\n", server.index());
            put!(out, "\r\n");
        }
        HttpMsg::InvalAck {
            url,
            client,
            cache_hits,
        } => {
            put!(out, "ACK {} HTTP/1.0\r\n", url.path_display());
            put!(out, "Host: server{}\r\n", url.server().index());
            put!(out, "X-Client: {client}\r\n");
            if *cache_hits > 0 {
                put!(out, "X-Hit-Count: {cache_hits}\r\n");
            }
            put!(out, "\r\n");
        }
        HttpMsg::Hello {
            partition,
            partitions,
        } => {
            put!(out, "HELLO {partition}/{partitions} HTTP/1.0\r\n");
            put!(out, "\r\n");
        }
        HttpMsg::Notify { url, at } => {
            put!(out, "NOTIFY {} HTTP/1.0\r\n", url.path_display());
            put!(out, "Host: server{}\r\n", url.server().index());
            put!(out, "Date: {}\r\n", at.as_micros());
            put!(out, "\r\n");
        }
        HttpMsg::MetricsGet => {
            put!(out, "GET /metrics HTTP/1.0\r\n");
            put!(out, "\r\n");
        }
    }
}

/// The values the decimal writer could get wrong, by name: `0` (one
/// digit, never none), `u64::MAX` (all twenty), `255.255.255.255` and
/// `0.0.0.0`, `X-Hit-Count` written only above zero, each optional grant
/// present and absent, and lists of none, one and many.
#[test]
fn encoder_matches_fmt_reference_on_edge_values() {
    let server = ServerId::new(0);
    let ends = [0u64, 9, 10, u64::MAX];
    let clients = [ClientId::from_raw(0), ClientId::from_raw(u32::MAX)];
    let docs = [0u32, 7, u32::MAX];
    let lists: [&[u32]; 3] = [&[], &[0], &[u32::MAX, 0, 10, 99, 100]];
    let mut msgs = vec![
        HttpMsg::MetricsGet,
        HttpMsg::InvalidateServer { server },
        HttpMsg::InvalidateServerAck {
            server: ServerId::new(u32::MAX),
        },
        HttpMsg::Hello {
            partition: 0,
            partitions: u32::MAX,
        },
    ];
    for (&n, &client, &doc) in combinations(&ends, &clients, &docs) {
        let url = Url::new(server, doc);
        let at = SimTime::from_micros(n);
        msgs.push(HttpMsg::Get(GetRequest {
            req: RequestId::new(n),
            url,
            client,
            ims: (n != 9).then_some(at),
            issued_at: at,
            cache_hits: n,
        }));
        msgs.push(HttpMsg::Invalidate { url, client });
        msgs.push(HttpMsg::InvalAck {
            url,
            client,
            cache_hits: n,
        });
        msgs.push(HttpMsg::Notify { url, at });
        for list in lists {
            let grant = (!list.is_empty()).then_some(at);
            let meta = DocMeta::new(ByteSize::from_bytes(n), at);
            for status in [
                ReplyStatus::Ok(Body::new(meta, vec![b'x'; list.len()])),
                ReplyStatus::NotModified,
            ] {
                msgs.push(HttpMsg::Reply(Reply {
                    req: RequestId::new(n),
                    url,
                    client,
                    status,
                    lease: grant,
                    piggyback: list.iter().map(|d| Url::new(server, *d)).collect(),
                    volume_lease: grant.xor((n == 10).then_some(at)),
                }));
            }
            if list.is_empty() {
                continue; // an empty round is never sent
            }
            msgs.push(HttpMsg::InvalidateBatch {
                server,
                entries: list
                    .iter()
                    .map(|d| BatchEntry {
                        url: Url::new(server, *d),
                        client,
                    })
                    .collect(),
            });
            msgs.push(HttpMsg::InvalidateBatchAck {
                server,
                entries: list
                    .iter()
                    .map(|d| BatchAckEntry {
                        url: Url::new(server, *d),
                        client,
                        cache_hits: n,
                    })
                    .collect(),
            });
        }
    }
    for msg in &msgs {
        let mut expected = Vec::new();
        reference_encode_into(msg, &mut expected);
        assert_eq!(encode(msg), expected, "{msg:?}");
    }
}

/// Every combination of one element from each slice.
fn combinations<'a, A, B, C>(
    a: &'a [A],
    b: &'a [B],
    c: &'a [C],
) -> impl Iterator<Item = (&'a A, &'a B, &'a C)> {
    a.iter()
        .flat_map(move |x| b.iter().flat_map(move |y| c.iter().map(move |z| (x, y, z))))
}
