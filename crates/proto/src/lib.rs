//! HTTP message model and wire codec for the `webcache` workspace.
//!
//! The paper's protocols speak a small subset of HTTP/1.0 plus one new
//! message type:
//!
//! * `GET` requests, optionally carrying an `If-Modified-Since` validator
//!   and the real client's id (so the server-side accelerator can register
//!   the site in its invalidation table);
//! * `200` replies carrying a document body, and `304 Not Modified` replies;
//!   under the lease protocols both may carry a lease grant;
//! * **`INVALIDATE`**, the paper's new message type, carrying "either a URL
//!   or the Web server address" (the latter is the bulk form used on server
//!   recovery);
//! * `NOTIFY`, the check-in message the modifier utility sends the
//!   accelerator when a document changes;
//! * coordinator control messages for the lock-step trace replay.
//!
//! [`Message`] is the payload type carried by the discrete-event simulator;
//! [`wire`] provides a text encoding of the same messages for the real TCP
//! prototype in `wcc-net`, and [`zero`] its one decoder: [`decode_ref`] for
//! a buffer holding a whole frame, [`decode_frame`] for one still filling,
//! and [`FrameReader`] for a blocking stream. Each hands out an
//! [`HttpMsgRef`]: a reply whose `200` body is still borrowed from the
//! buffer, or any other frame as the owned [`HttpMsg`] — the vocabulary is
//! declared once, in [`msg`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]
#![deny(clippy::wildcard_enum_match_arm)]

pub mod msg;
pub mod wire;
pub mod zero;

pub use msg::{
    BatchAckEntry, BatchEntry, CoordMsg, GetRequest, HttpMsg, Message, Reply, ReplyStatus,
    RequestId, MAX_DOC_SIZE, MAX_PARTITIONS,
};
pub use wire::{encode, encode_into, WireError};
pub use zero::{
    codec_sweep, decode_frame, decode_ref, CodecStats, FrameReader, HttpMsgRef, ReplyRef,
    ReplyStatusRef,
};
