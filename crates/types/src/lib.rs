//! Common vocabulary types for the `webcache` workspace.
//!
//! This crate defines the small, dependency-free building blocks shared by
//! every other crate in the reproduction of Liu & Cao, *"Maintaining Strong
//! Cache Consistency in the World-Wide Web"* (ICDCS 1997):
//!
//! * [`SimTime`] / [`SimDuration`] — the microsecond-resolution simulated
//!   clock used by the discrete-event simulator and the trace replayer.
//! * [`ClientId`] — the 32-bit client identifier the paper derives from the
//!   four bytes of a client's IP address.
//! * [`Url`] and [`DocMeta`] — document naming and metadata (size,
//!   last-modified time).
//! * [`ByteSize`] — byte quantities with human-readable formatting.
//! * [`FxHashMap`] / [`FxHashSet`] — deterministic, fast hash collections
//!   for the simulator's hot, trusted-key maps.
//!
//! # Examples
//!
//! ```
//! use wcc_types::{SimTime, SimDuration, ClientId};
//!
//! let t0 = SimTime::ZERO;
//! let t1 = t0 + SimDuration::from_secs(300);
//! assert_eq!((t1 - t0).as_secs(), 300);
//!
//! let client = ClientId::from_ip([128, 105, 2, 17]);
//! assert_eq!(client.octets(), [128, 105, 2, 17]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::wildcard_enum_match_arm)]

mod batch;
mod bytesize;
mod event;
mod hash;
mod id;
mod time;
mod url;

pub use batch::InvalBatchConfig;
pub use bytesize::ByteSize;
pub use event::AuditEvent;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use id::{ClientId, NodeId, ServerId};
pub use time::{SimDuration, SimTime, WallClock};
pub use url::{Body, DocMeta, ScopedUrl, Url, UrlPath};

/// A convenience alias used by fallible APIs across the workspace.
pub type Result<T, E> = core::result::Result<T, E>;

/// Parses an unsigned decimal from bytes under the integer types'
/// `from_str` rules: an optional leading `+`, then one or more ASCII
/// digits, worth no more than `T` holds. The wire decoder reads every
/// number through it, and [`ClientId`] and [`Url`] their parts.
pub fn parse_decimal<T: TryFrom<u64>>(bytes: &[u8]) -> Option<T> {
    let digits = bytes.strip_prefix(b"+").unwrap_or(bytes);
    let mut value = (!digits.is_empty()).then_some(0u64)?;
    for &byte in digits {
        let digit = byte.is_ascii_digit().then(|| u64::from(byte - b'0'))?;
        value = value.checked_mul(10)?.checked_add(digit)?;
    }
    T::try_from(value).ok()
}

#[cfg(test)]
mod tests {
    /// Every rule of `u64::from_str` and `u8::from_str`, by name: the sign,
    /// the empty string, a lone or doubled `+`, leading zeros, both ends of
    /// the range and one past them.
    #[test]
    fn parse_decimal_follows_from_str() {
        for s in [
            "",
            "+",
            "++1",
            "-0",
            "-1",
            "0",
            "+0",
            "007",
            "+255",
            "256",
            "1 ",
            " 1",
            "1x",
            "18446744073709551615",
            "18446744073709551616",
            "000000000000000000000000255",
            "\u{0662}",
        ] {
            let bytes = s.as_bytes();
            assert_eq!(
                super::parse_decimal::<u64>(bytes),
                s.parse::<u64>().ok(),
                "{s:?}"
            );
            assert_eq!(
                super::parse_decimal::<u8>(bytes),
                s.parse::<u8>().ok(),
                "{s:?}"
            );
        }
    }
}
