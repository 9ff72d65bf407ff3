//! Property tests: every well-formed message survives the wire round trip,
//! the encoder writes byte for byte what its `write!`-based reference
//! writes, and the decoder agrees with its owned, line-reading reference
//! byte-for-byte — on successes, on truncations, on corrupted bytes and on
//! header blocks no encoder of ours would write.
//!
//! Both references are the codec this crate once shipped, kept here as the
//! oracles the shipped one is held to. This file is the gate on the
//! decoder's header rules: `cargo test -q -p wcc-proto --test wire_proptest`.

#![allow(
    clippy::disallowed_macros,
    reason = "the write!-based reference codec is the oracle"
)]

use proptest::prelude::*;
use std::io::Write;
use wcc_proto::{
    decode_frame, decode_ref, encode, encode_into, BatchAckEntry, BatchEntry, GetRequest, HttpMsg,
    HttpMsgRef, Reply, ReplyStatus, RequestId, WireError, MAX_PARTITIONS,
};
use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimDuration, SimTime, Url};

mod layout_departures;
use layout_departures::{layout_departures, LAYOUT_200, LAYOUT_GET};

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

fn span_strategy() -> impl Strategy<Value = SimDuration> {
    u64_strategy().prop_map(SimDuration::from_micros)
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
            proptest::option::of(span_strategy()),
            proptest::collection::vec(0u32..10_000, 0..8),
            proptest::option::of(span_strategy()),
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
            proptest::option::of(span_strategy()),
            proptest::collection::vec(0u32..10_000, 0..8),
            proptest::option::of(span_strategy()),
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
        let decoded = reference::decode(&mut bytes.as_slice()).expect("well-formed message must decode");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn pipelined_pairs_round_trip(a in msg_strategy(), b in msg_strategy()) {
        let mut bytes = encode(&a);
        bytes.extend(encode(&b));
        let mut cursor = bytes.as_slice();
        prop_assert_eq!(reference::decode(&mut cursor).expect("first"), a);
        prop_assert_eq!(reference::decode(&mut cursor).expect("second"), b);
    }

    #[test]
    fn truncation_never_panics(msg in msg_strategy(), cut in 0usize..64) {
        let bytes = encode(&msg);
        let cut = cut.min(bytes.len());
        let mut truncated = &bytes[..bytes.len() - cut];
        let _ = reference::decode(&mut truncated); // any Result is fine; no panic
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
    /// owned reference fails, with a byte-identical error rendering.
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
    /// the owned reference's map.
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

    /// Header lines padded with whitespace `str::trim` takes beyond space
    /// and tab decode as through the owned reference, whatever other edits
    /// ride along.
    #[test]
    fn zero_copy_unicode_padding_matches_owned(
        msg in msg_strategy(),
        pads in proptest::collection::vec((any::<usize>(), 0..PADS.len()), 1..4),
        edits in proptest::collection::vec((any::<usize>(), header_edit_strategy()), 0..3),
    ) {
        let mut bytes = encode(&msg);
        for (at, pad) in pads {
            bytes = edit_headers(&bytes, at, &HeaderEdit::PadWith(PADS[pad]));
        }
        for (at, edit) in edits {
            bytes = edit_headers(&bytes, at, &edit);
        }
        assert_decoders_agree(&bytes)?;
    }

    /// The reactor's call is `decode_frame(buffer, false)` on every read.
    /// For every cut of an encoded, header-edited or bit-flipped frame it
    /// defers, or decodes what a stream ending at the cut decodes: the same
    /// message and `used`, or the same error. The whole frame is used to
    /// its last byte.
    #[test]
    fn incremental_decode_defers_or_matches_eof(
        msg in msg_strategy(),
        edits in proptest::collection::vec((any::<usize>(), header_edit_strategy()), 0..3),
        flip in proptest::option::of((any::<usize>(), 0u32..8)),
    ) {
        let frame = encode(&msg);
        let (whole, used) = decode_frame(&frame, false).expect("decodes").expect("complete");
        prop_assert_eq!((whole.to_owned(), used), (msg, frame.len()));
        let mut bytes = frame;
        for (at, edit) in edits {
            bytes = edit_headers(&bytes, at, &edit);
        }
        if let Some((pos, bit)) = flip {
            let len = bytes.len();
            bytes[pos % len] ^= 1 << bit;
        }
        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            match decode_frame(prefix, false) {
                Ok(None) => {}
                partial => assert_same_outcome(partial, decode_frame(prefix, true))?,
            }
        }
    }
}

type Decoded<'a> = Result<Option<(HttpMsgRef<'a>, usize)>, WireError>;

/// Two `decode_frame` calls: the same message and `used`, or the same
/// error text and variant.
fn assert_same_outcome(a: Decoded<'_>, b: Decoded<'_>) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(Some((ma, ua))), Ok(Some((mb, ub)))) => {
            prop_assert_eq!((ma.to_owned(), ua), (mb.to_owned(), ub));
        }
        (Err(ea), Err(eb)) => {
            prop_assert_eq!(ea.to_string(), eb.to_string(), "error text diverged");
            prop_assert_eq!(
                std::mem::discriminant(&ea),
                std::mem::discriminant(&eb),
                "error variant diverged"
            );
        }
        (a, b) => prop_assert!(false, "outcomes diverged: {:?} vs {:?}", a, b),
    }
    Ok(())
}

/// Both decoders on the same bytes: equal messages or equal errors.
fn assert_decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let owned = reference::decode(&mut &bytes[..]);
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
    /// Pad a header's name and value with whitespace `str::trim` takes
    /// beyond space and tab.
    PadWith(char),
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

/// The whitespace of `PadWith`: U+00A0, U+3000 and U+0085, which
/// `str::trim` takes and ASCII does not have, and `\x0B` and `\x0C`, the
/// ASCII ones past space and tab (`u8::is_ascii_whitespace` leaves out
/// `\x0B`).
const PADS: [char; 5] = ['\u{a0}', '\u{3000}', '\u{85}', '\x0B', '\x0C'];

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
        (0..PADS.len()).prop_map(|i| HeaderEdit::PadWith(PADS[i])),
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
    let head = std::str::from_utf8(head).expect("encoded and edited heads are UTF-8");
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
        (HeaderEdit::PadWith(c), Some((i, name, value))) => {
            lines[i] = format!("{c}{name}{c}:{c}{value}{c}");
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

    // Whitespace `str::trim` takes beyond ASCII: a name padded with U+00A0
    // still fills its slot.
    let bytes = "NOTIFY /doc/5 HTTP/1.0\r\n\u{a0}Host\u{a0}: server1\r\nDate: 7\r\n\r\n";
    assert_eq!(
        decode_ref(bytes.as_bytes()).expect("decodes").to_owned(),
        HttpMsg::Notify {
            url: Url::new(ServerId::new(1), 5),
            at: SimTime::from_micros(7),
        }
    );
    assert_decoders_agree(bytes.as_bytes()).expect("parity");

    // A start line split by U+2003 (em space) splits where the reference's
    // `split_whitespace` splits it.
    let bytes = "NOTIFY\u{2003}/doc/5\u{2003}HTTP/1.0\r\nHost: server1\r\n\r\n";
    assert_eq!(
        decode_ref(bytes.as_bytes()).expect("decodes").to_owned(),
        HttpMsg::Notify {
            url: Url::new(ServerId::new(1), 5),
            at: SimTime::ZERO,
        }
    );
    assert_decoders_agree(bytes.as_bytes()).expect("parity");

    // A lone `+` is not a number: the optional sign needs a digit after it.
    let bytes =
        b"GET /doc/1 HTTP/1.0\r\nHost: server0\r\nX-Client: 1.2.3.4\r\nX-Request-Id: +\r\n\r\n";
    let err = decode_ref(bytes).expect_err("lone plus");
    assert_eq!(
        err.to_string(),
        "malformed wire message: non-numeric header x-request-id"
    );
    assert_decoders_agree(bytes).expect("parity");
}

fn sample_url() -> Url {
    Url::new(ServerId::new(3), 99)
}

fn sample_client() -> ClientId {
    ClientId::from_ip([10, 1, 2, 3])
}

/// One message of every variant, with every optional field the encoder can
/// write, round-trips; only a `200` needs a copy to keep; and the reference
/// reads each the same way.
#[test]
fn round_trips_match_owned_decoder() {
    let meta = DocMeta::new(ByteSize::from_kib(44), SimTime::from_secs(7));
    let msgs = [
        HttpMsg::Get(GetRequest {
            req: RequestId::new(17),
            url: sample_url(),
            client: sample_client(),
            ims: Some(SimTime::from_micros(123_456_789)),
            issued_at: SimTime::from_micros(123_999_999),
            cache_hits: 42,
        }),
        HttpMsg::Reply(Reply {
            req: RequestId::new(5),
            url: sample_url(),
            client: sample_client(),
            status: ReplyStatus::Ok(Body::synthetic(meta, 100)),
            lease: Some(SimDuration::from_days(3)),
            piggyback: vec![Url::new(ServerId::new(3), 4), Url::new(ServerId::new(3), 9)],
            volume_lease: Some(SimDuration::from_secs(9)),
        }),
        HttpMsg::Reply(Reply {
            req: RequestId::new(6),
            url: sample_url(),
            client: sample_client(),
            status: ReplyStatus::NotModified,
            lease: None,
            piggyback: vec![Url::new(ServerId::new(3), 1)],
            volume_lease: None,
        }),
        HttpMsg::Invalidate {
            url: sample_url(),
            client: sample_client(),
        },
        HttpMsg::InvalidateServer {
            server: ServerId::new(9),
        },
        HttpMsg::InvalidateBatch {
            server: ServerId::new(3),
            entries: vec![
                BatchEntry {
                    url: Url::new(ServerId::new(3), 5),
                    client: ClientId::from_ip([10, 0, 0, 1]),
                },
                BatchEntry {
                    url: Url::new(ServerId::new(3), 99),
                    client: sample_client(),
                },
            ],
        },
        HttpMsg::InvalidateBatchAck {
            server: ServerId::new(3),
            entries: vec![
                BatchAckEntry {
                    url: Url::new(ServerId::new(3), 5),
                    client: ClientId::from_ip([10, 0, 0, 1]),
                    cache_hits: 0,
                },
                BatchAckEntry {
                    url: Url::new(ServerId::new(3), 99),
                    client: sample_client(),
                    cache_hits: 17,
                },
            ],
        },
        HttpMsg::InvalidateServerAck {
            server: ServerId::new(9),
        },
        HttpMsg::InvalAck {
            url: sample_url(),
            client: sample_client(),
            cache_hits: 12,
        },
        HttpMsg::Hello {
            partition: 2,
            partitions: 4,
        },
        HttpMsg::Hello {
            partition: MAX_PARTITIONS - 1,
            partitions: MAX_PARTITIONS,
        },
        HttpMsg::MetricsGet,
        HttpMsg::Notify {
            url: sample_url(),
            at: SimTime::from_secs(77),
        },
    ];
    for msg in msgs {
        let bytes = encode(&msg);
        let zero = decode_ref(&bytes).expect("zero-copy decode failed");
        assert_eq!(zero.to_owned(), msg);
        assert_eq!(
            zero.needs_copy(),
            matches!(
                &msg,
                HttpMsg::Reply(Reply {
                    status: ReplyStatus::Ok(_),
                    ..
                })
            )
        );
        assert_decoders_agree(&bytes).expect("parity");
    }
}

/// Inputs each rule of the decoder turns away, by name: both decoders fail
/// on each with the same error.
#[test]
fn malformed_inputs_match_owned_decoder() {
    for bad in [
        &b""[..],
        b"\r\n",
        b"BOGUS /doc/1 HTTP/1.0\r\n\r\n",
        b"GET /doc/1 HTTP/1.0\r\nnocolon\r\n\r\n",
        b"GET /doc/1 HTTP/1.0\r\n\r\n",
        b"GET /nope HTTP/1.0\r\nHost: server0\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\n\r\n",
        b"HTTP/1.0 500 Oops\r\nHost: server0\r\nContent-Location: /doc/1\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\n\r\n",
        b"GET /doc/1 HTTP/1.0\r\nHost: elsewhere\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\n\r\n",
        b"HELLO 4/4 HTTP/1.0\r\n\r\n",
        // A node keeps state per site: a count past the bound is refused.
        b"HELLO 0/65537 HTTP/1.0\r\n\r\n",
        b"HELLO 0/4294967295 HTTP/1.0\r\n\r\n",
        b"HELLO x HTTP/1.0\r\n\r\n",
        b"GET /doc/1 HTTP/1.0\r\nHost: server0\r\n", // eof inside headers
        b"GET\r\n\r\n",
        b"HTTP/1.0\r\nHost: server0\r\n\r\n",
        b"HTTP/1.0 200 OK\r\nHost: server0\r\nContent-Location: /doc/1\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\n\r\n",
        b"NOTIFY /doc/5 HTTP/1.0\r\nHost: server1\r\nDate: xyz\r\n\r\n",
        b"HTTP/1.0 304 NM\r\nHost: server0\r\nContent-Location: /doc/1\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\nX-Piggyback: 1,x\r\n\r\n",
        b"GET /doc/1 HTTP/1.0\r\nHost: server0\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 0\r\nX-Hit-Count: moo\r\n\r\n",
        b"\xff\xfe GET\r\n\r\n", // invalid UTF-8 in the start line
        b"GET /doc/1 HTTP/1.0\r\nHost: \xff\xfe\r\n\r\n", // ... in a header
        b"INVALIDATE * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: \r\n\r\n",
        b"INVALIDATE * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: 5\r\n\r\n",
        b"INVALIDATE * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: 5:1.2.3.4,x:1.2.3.4\r\n\r\n",
        b"INVALIDATE * HTTP/1.0\r\nX-Batch: 5:1.2.3.4\r\n\r\n", // no X-Server
        b"ACK * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: 5:1.2.3.4\r\n\r\n", // missing hits
        b"ACK * HTTP/1.0\r\nX-Server: 1\r\nX-Batch: 5:1.2.3.4:zz\r\n\r\n",
        // An `X-Server` past `u32::MAX` names no server; it does not wrap.
        b"ACK * HTTP/1.0\r\nX-Server: 4294967296\r\n\r\n",
        b"INVALIDATE * HTTP/1.0\r\nX-Server: 4294967296\r\nX-Batch: 5:1.2.3.4\r\n\r\n",
    ] {
        decode_ref(bad).expect_err("malformed input decoded");
        assert_decoders_agree(bad).expect("parity");
    }
}

/// The frames one departure away from the encoder's layout, which the
/// decoder's layout pass leaves to its rules, read as the reference reads
/// them; so do the two canonical frames they depart from.
#[test]
fn layout_departures_match_owned_decoder() {
    assert_decoders_agree(LAYOUT_GET.as_bytes()).expect("parity");
    assert_decoders_agree(LAYOUT_200.as_bytes()).expect("parity");
    for (why, bytes) in layout_departures() {
        assert_decoders_agree(&bytes).unwrap_or_else(|e| panic!("{why}: {e}"));
    }
}

/// Every prefix of a `200` reply fails the way the reference fails on the
/// same truncated stream: the short body is `read_exact`'s I/O error.
#[test]
fn truncated_body_matches_owned_io_error() {
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
    assert!(matches!(
        decode_ref(&bytes[..bytes.len() - 10]),
        Err(WireError::Io(_))
    ));
    for cut in 0..bytes.len() {
        assert_decoders_agree(&bytes[..cut]).expect("parity");
    }
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
            let span = at.saturating_since(SimTime::ZERO);
            let grant = (!list.is_empty()).then_some(span);
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
                    volume_lease: grant.xor((n == 10).then_some(span)),
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

/// The owned decoder this crate shipped beside the zero-copy one, kept as
/// the oracle [`decode_ref`]'s header rules and error texts are held to:
/// `BufRead` line reads, a `HashMap` of lower-cased names, and a fresh
/// `Vec` per body.
mod reference {
    use std::collections::HashMap;
    use std::io::BufRead;
    use wcc_proto::{
        BatchAckEntry, BatchEntry, GetRequest, HttpMsg, Reply, ReplyStatus, RequestId, WireError,
        MAX_DOC_SIZE, MAX_PARTITIONS,
    };
    use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimDuration, SimTime, Url};

    fn malformed(why: impl Into<String>) -> WireError {
        WireError::Malformed(why.into())
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
                    .map_err(|_| malformed(format!("bad piggyback entry {d:?}")))
            })
            .collect()
    }

    /// Parses the `X-Batch` list of an `INVALIDATE *` round: comma-separated
    /// `doc:client` entries, the client as a dotted quad like `X-Client`.
    fn parse_batch(list: &str, server: ServerId) -> Result<Vec<BatchEntry>, WireError> {
        list.split(',')
            .map(|e| {
                let entry = e.trim();
                let bad = || malformed(format!("bad batch entry {entry:?}"));
                let (doc, client) = entry.split_once(':').ok_or_else(bad)?;
                let doc: u32 = doc.parse().map_err(|_| bad())?;
                let client: ClientId = client.parse().map_err(|_| bad())?;
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
                let bad = || malformed(format!("bad batch ack entry {entry:?}"));
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
            .ok_or_else(|| malformed(format!("bad Host: {value}")))?;
        Ok(ServerId::new(idx))
    }

    /// Decodes one message from `reader`: [`WireError::Closed`] on clean EOF
    /// before a start line, [`WireError::Malformed`] on protocol violations,
    /// and [`WireError::Io`] if the stream fails mid-message.
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
                        .ok_or_else(|| malformed(format!("bad header: {line}")))?;
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
                    req: RequestId::new(required(&headers, "x-request-id")?),
                    url,
                    client: required_client(&headers)?,
                    ims: headers
                        .get("if-modified-since")
                        .map(|v| parse_micros(v))
                        .transpose()?,
                    issued_at: parse_micros(headers.get("date").map_or("0", String::as_str))?,
                    cache_hits: parse_hit_count(&headers)?,
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
                let req = RequestId::new(required(&headers, "x-request-id")?);
                let client = required_client(&headers)?;
                let lease = headers.get("x-lease").map(|v| parse_span(v)).transpose()?;
                let piggyback = parse_piggyback(&headers, url.server())?;
                let volume_lease = headers
                    .get("x-volume-lease")
                    .map(|v| parse_span(v))
                    .transpose()?;
                let status = match code {
                    "200" => {
                        let len = required::<u64>(&headers, "content-length")? as usize;
                        let mut payload = vec![0u8; len];
                        reader.read_exact(&mut payload)?;
                        let size = required(&headers, "x-size")?;
                        if size > MAX_DOC_SIZE {
                            return Err(WireError::DocTooLarge(size));
                        }
                        let meta = DocMeta::new(
                            ByteSize::from_bytes(size),
                            parse_micros(
                                headers
                                    .get("last-modified")
                                    .ok_or_else(|| malformed("200 without Last-Modified"))?,
                            )?,
                        );
                        ReplyStatus::Ok(Body::new(meta, payload))
                    }
                    "304" => ReplyStatus::NotModified,
                    other => return Err(malformed(format!("unsupported status {other}"))),
                };
                Ok(HttpMsg::Reply(Reply {
                    req,
                    url,
                    client,
                    status,
                    lease,
                    piggyback,
                    volume_lease,
                }))
            }
            "INVALIDATE" => {
                let target = parts
                    .next()
                    .ok_or_else(|| malformed("INVALIDATE without target"))?;
                if target == "*" {
                    let server = ServerId::new(required(&headers, "x-server")?);
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
                    let server = ServerId::new(required(&headers, "x-server")?);
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
                    cache_hits: parse_hit_count(&headers)?,
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
                if partitions == 0 || partitions > MAX_PARTITIONS || partition >= partitions {
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
                    at: parse_micros(headers.get("date").map_or("0", String::as_str))?,
                })
            }
            other => Err(malformed(format!("unknown verb {other}"))),
        }
    }

    fn url_from(headers: &HashMap<String, String>, path: &str) -> Result<Url, WireError> {
        let server = parse_host(
            headers
                .get("host")
                .ok_or_else(|| malformed("missing Host header"))?,
        )?;
        Url::from_path(server, path).ok_or_else(|| malformed(format!("bad path {path}")))
    }

    /// A header the message cannot do without, parsed as the type it lands
    /// in: out of that type's range is as malformed as not a number.
    fn required<T: std::str::FromStr>(
        headers: &HashMap<String, String>,
        name: &str,
    ) -> Result<T, WireError> {
        headers
            .get(name)
            .ok_or_else(|| malformed(format!("missing header {name}")))?
            .parse()
            .map_err(|_| malformed(format!("non-numeric header {name}")))
    }

    fn required_client(headers: &HashMap<String, String>) -> Result<ClientId, WireError> {
        headers
            .get("x-client")
            .ok_or_else(|| malformed("missing X-Client"))?
            .parse()
            .map_err(|_| malformed("bad X-Client"))
    }

    fn parse_hit_count(headers: &HashMap<String, String>) -> Result<u64, WireError> {
        headers
            .get("x-hit-count")
            .map(|v| v.parse().map_err(|_| malformed("bad X-Hit-Count")))
            .transpose()
            .map(|hits| hits.unwrap_or(0))
    }

    fn parse_micros(value: &str) -> Result<SimTime, WireError> {
        value
            .parse()
            .map(SimTime::from_micros)
            .map_err(|_| malformed(format!("bad timestamp {value}")))
    }

    fn parse_span(value: &str) -> Result<SimDuration, WireError> {
        parse_micros(value).map(|t| t.saturating_since(SimTime::ZERO))
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
}
