//! Identifiers for clients, servers and simulation nodes.

use core::fmt;

/// The identity of a *real* browsing client.
///
/// The paper assigns every real client a "clientid, which is a 32-byte
/// integer concatenating the four bytes in its IP address" (§5.1 — the text
/// plainly means 32-*bit*). Requests carry the `ClientId` so the accelerator
/// can register the site in its invalidation table, and proxies scope cache
/// entries per real client (`url@clientid`) to simulate unshared caches.
///
/// # Examples
///
/// ```
/// use wcc_types::ClientId;
///
/// let c = ClientId::from_ip([192, 168, 0, 7]);
/// assert_eq!(u32::from(c), 0xC0A8_0007);
/// assert_eq!(c.to_string(), "192.168.0.7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(u32);

impl ClientId {
    /// Creates a client id from the four bytes of an IPv4 address.
    pub const fn from_ip(octets: [u8; 4]) -> Self {
        ClientId(u32::from_be_bytes(octets))
    }

    /// Creates a client id from a raw 32-bit value.
    pub const fn from_raw(raw: u32) -> Self {
        ClientId(raw)
    }

    /// Parses a dotted quad from bytes, as `str::parse` parses a
    /// string: four octets split by dots, each what `u8::from_str` takes
    /// (an optional `+`, then one or more digits worth at most 255).
    ///
    /// # Errors
    ///
    /// [`ParseClientIdError`] on anything else.
    pub fn from_ascii(bytes: &[u8]) -> Result<Self, ParseClientIdError> {
        let mut octets = bytes.split(|&b| b == b'.');
        let mut raw = 0u32;
        for _ in 0..4 {
            let octet: u8 = octets
                .next()
                .and_then(crate::parse_decimal)
                .ok_or(ParseClientIdError)?;
            raw = (raw << 8) | u32::from(octet);
        }
        match octets.next() {
            None => Ok(ClientId(raw)),
            Some(_) => Err(ParseClientIdError),
        }
    }

    /// The four IPv4 octets this id concatenates.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The pseudo-client partition this real client is handled by, following
    /// the paper's scheme: "pseudo-client *i* handles real clients whose
    /// clientid mod 4 is *i*", generalised to `n` pseudo-clients.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn partition(self, n: u32) -> u32 {
        assert!(n > 0, "partition count must be positive");
        self.0 % n
    }
}

impl From<ClientId> for u32 {
    fn from(id: ClientId) -> u32 {
        id.0
    }
}

impl From<u32> for ClientId {
    fn from(raw: u32) -> ClientId {
        ClientId(raw)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClientId({self})")
    }
}

impl core::str::FromStr for ClientId {
    type Err = ParseClientIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ClientId::from_ascii(s.as_bytes())
    }
}

/// Error returned when parsing a dotted-quad [`ClientId`] fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseClientIdError;

impl fmt::Display for ParseClientIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid dotted-quad client id")
    }
}

impl std::error::Error for ParseClientIdError {}

/// The identity of an origin Web server (one per trace in the paper's
/// experiments, but the protocols support many).
///
/// # Examples
///
/// ```
/// use wcc_types::ServerId;
///
/// let s = ServerId::new(0);
/// assert_eq!(s.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServerId(u32);

impl ServerId {
    /// Creates a server id from a dense index.
    pub const fn new(index: u32) -> Self {
        ServerId(index)
    }

    /// The dense index of this server.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server{}", self.0)
    }
}

impl fmt::Debug for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ServerId({})", self.0)
    }
}

/// The address of a node (an actor) inside the discrete-event simulator:
/// pseudo-clients, the pseudo-server, the accelerator, the time coordinator
/// and the modifier process are all nodes.
///
/// # Examples
///
/// ```
/// use wcc_types::NodeId;
///
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "node3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index assigned by the simulator.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The index as a `usize`, for table lookups.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::Strategy;

    #[test]
    fn client_id_ip_round_trip() {
        let c = ClientId::from_ip([10, 0, 42, 255]);
        assert_eq!(c.octets(), [10, 0, 42, 255]);
        assert_eq!(c.to_string(), "10.0.42.255");
    }

    #[test]
    fn client_id_parse() {
        let c: ClientId = "128.105.2.17".parse().unwrap();
        assert_eq!(c, ClientId::from_ip([128, 105, 2, 17]));
        assert!("1.2.3".parse::<ClientId>().is_err());
        assert!("1.2.3.4.5".parse::<ClientId>().is_err());
        assert!("1.2.3.999".parse::<ClientId>().is_err());
        assert!("a.b.c.d".parse::<ClientId>().is_err());
    }

    /// The parser the byte scan replaced: `split('.')` and `u8::from_str`
    /// per part. It defines what the scan must accept.
    fn reference_parse(s: &str) -> Result<ClientId, ParseClientIdError> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or(ParseClientIdError)?;
            *slot = part.parse().map_err(|_| ParseClientIdError)?;
        }
        if parts.next().is_some() {
            return Err(ParseClientIdError);
        }
        Ok(ClientId::from_ip(octets))
    }

    #[test]
    fn client_id_scan_matches_the_reference_on_pinned_cases() {
        let pinned = [
            ("+1.2.3.4", Ok(ClientId::from_ip([1, 2, 3, 4]))),
            ("001.2.3.4", Ok(ClientId::from_ip([1, 2, 3, 4]))),
            (
                "255.0.00000000000255.7",
                Ok(ClientId::from_ip([255, 0, 255, 7])),
            ),
            ("1.2.3.256", Err(ParseClientIdError)),
            ("1..2.3", Err(ParseClientIdError)),
            (".1.2.3", Err(ParseClientIdError)),
            ("1.2.3.4.", Err(ParseClientIdError)),
            ("", Err(ParseClientIdError)),
            ("+.1.2.3", Err(ParseClientIdError)),
            ("-1.2.3.4", Err(ParseClientIdError)),
            ("++1.2.3.4", Err(ParseClientIdError)),
        ];
        for (s, want) in pinned {
            assert_eq!(reference_parse(s), want, "reference on {s:?}");
            assert_eq!(s.parse::<ClientId>(), want, "scan on {s:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Short strings over `[0-9.+a-]`, digits and dots the likeliest:
        /// the scan accepts exactly what the reference accepts, with the
        /// same value.
        #[test]
        fn client_id_scan_matches_the_reference(
            chars in proptest::collection::vec(
                proptest::prop_oneof![
                    8 => (0u8..10).prop_map(|d| char::from(b'0' + d)),
                    4 => proptest::prelude::Just('.'),
                    1 => proptest::prelude::Just('+'),
                    1 => proptest::prelude::Just('a'),
                    1 => proptest::prelude::Just('-'),
                ],
                0..18,
            ),
        ) {
            let s: String = chars.into_iter().collect();
            proptest::prop_assert_eq!(s.parse::<ClientId>(), reference_parse(&s), "{:?}", s);
        }
    }

    #[test]
    fn partitioning_matches_paper_scheme() {
        // "Pseudo-client i handles real clients whose clientid mod 4 is i."
        let c = ClientId::from_raw(10);
        assert_eq!(c.partition(4), 2);
        let c = ClientId::from_raw(7);
        assert_eq!(c.partition(4), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn partition_zero_panics() {
        ClientId::from_raw(1).partition(0);
    }

    #[test]
    fn node_and_server_display() {
        assert_eq!(NodeId::new(5).to_string(), "node5");
        assert_eq!(ServerId::new(2).to_string(), "server2");
        assert_eq!(format!("{:?}", NodeId::new(5)), "NodeId(5)");
    }
}
