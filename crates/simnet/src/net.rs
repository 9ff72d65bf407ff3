//! The network model: links, latency, bandwidth, partitions.

use wcc_types::{ByteSize, FxHashMap, FxHashSet, NodeId, SimDuration};

/// The latency/bandwidth parameters of one (directed) link.
///
/// Transfer time for a message of `n` bytes is
/// `latency + n / bandwidth_bytes_per_sec` — a propagation delay plus a
/// serialisation delay, the standard first-order model.
///
/// # Examples
///
/// ```
/// use wcc_simnet::LinkSpec;
/// use wcc_types::{ByteSize, SimDuration};
///
/// // A 100 Mb/s Ethernet hop with 0.3 ms latency (the paper's testbed).
/// let link = LinkSpec::new(SimDuration::from_micros(300), 100_000_000 / 8);
/// let t = link.transfer_time(ByteSize::from_kib(12));
/// assert!(t > SimDuration::from_micros(300));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    latency: SimDuration,
    bandwidth_bytes_per_sec: u64,
}

impl LinkSpec {
    /// Creates a link with the given propagation latency and bandwidth in
    /// bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is zero.
    pub fn new(latency: SimDuration, bandwidth_bytes_per_sec: u64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0, "bandwidth must be positive");
        LinkSpec {
            latency,
            bandwidth_bytes_per_sec,
        }
    }

    /// The propagation latency.
    pub fn latency(self) -> SimDuration {
        self.latency
    }

    /// The end-to-end transfer time for a message of `size` bytes.
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        let serialisation =
            SimDuration::from_secs_f64(size.as_u64() as f64 / self.bandwidth_bytes_per_sec as f64);
        self.latency + serialisation
    }
}

/// Static configuration of the simulated network: a default link applied to
/// every node pair, plus optional per-pair overrides.
///
/// # Examples
///
/// ```
/// use wcc_simnet::{LinkSpec, NetworkConfig};
/// use wcc_types::{NodeId, SimDuration};
///
/// let mut cfg = NetworkConfig::lan();
/// // Put one client behind a slow WAN hop.
/// cfg.set_link(
///     NodeId::new(0),
///     NodeId::new(1),
///     LinkSpec::new(SimDuration::from_millis(80), 1_000_000),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    default_link: LinkSpec,
    overrides: FxHashMap<(NodeId, NodeId), LinkSpec>,
}

impl NetworkConfig {
    /// A network where every pair is connected by `default_link`.
    pub fn uniform(default_link: LinkSpec) -> Self {
        NetworkConfig {
            default_link,
            overrides: FxHashMap::default(),
        }
    }

    /// The paper's testbed: a 100 Mb/s switched Ethernet with ~0.3 ms
    /// one-way latency.
    pub fn lan() -> Self {
        NetworkConfig::uniform(LinkSpec::new(
            SimDuration::from_micros(300),
            100_000_000 / 8,
        ))
    }

    /// A wide-area profile (≈40 ms one-way, 1.5 Mb/s per flow), used by the
    /// "how would this look on the real Internet" extrapolations.
    pub fn wan() -> Self {
        NetworkConfig::uniform(LinkSpec::new(SimDuration::from_millis(40), 1_500_000 / 8))
    }

    /// Overrides the link used for messages from `src` to `dst` (directed).
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) -> &mut Self {
        self.overrides.insert((src, dst), spec);
        self
    }

    /// The link spec used for messages from `src` to `dst`.
    pub fn link(&self, src: NodeId, dst: NodeId) -> LinkSpec {
        // Uniform networks (every replay deployment's default) skip the hash
        // lookup on the per-send hot path.
        if self.overrides.is_empty() {
            return self.default_link;
        }
        self.overrides
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_link)
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::lan()
    }
}

/// Runtime reachability state: crashed nodes and severed links. Owned by the
/// simulation engine; fault schedules mutate it through [`crate::FaultPlan`].
#[derive(Debug, Default)]
pub(crate) struct Reachability {
    crashed: FxHashSet<NodeId>,
    severed: FxHashSet<(NodeId, NodeId)>,
}

impl Reachability {
    pub(crate) fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    pub(crate) fn recover(&mut self, node: NodeId) {
        self.crashed.remove(&node);
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        // Fault-free runs (the vast majority of replays) never pay the hash
        // probe on the per-delivery hot path.
        !self.crashed.is_empty() && self.crashed.contains(&node)
    }

    pub(crate) fn sever(&mut self, a: NodeId, b: NodeId) {
        self.severed.insert((a, b));
        self.severed.insert((b, a));
    }

    pub(crate) fn heal(&mut self, a: NodeId, b: NodeId) {
        self.severed.remove(&(a, b));
        self.severed.remove(&(b, a));
    }

    /// Can a message leave `src` for `dst` right now? (A message already in
    /// flight when a partition starts is still delivered; the check happens
    /// at send time. Crash of the *destination* is checked at delivery time
    /// by the engine.)
    pub(crate) fn can_send(&self, src: NodeId, dst: NodeId) -> bool {
        if self.crashed.is_empty() && self.severed.is_empty() {
            return true;
        }
        !self.is_crashed(src) && !self.severed.contains(&(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_serialisation() {
        let link = LinkSpec::new(SimDuration::from_millis(1), 1_000_000);
        // 1 MB at 1 MB/s = 1 s serialisation + 1 ms latency.
        let t = link.transfer_time(ByteSize::from_bytes(1_000_000));
        assert_eq!(t, SimDuration::from_millis(1001));
        // Zero-size message costs exactly the latency.
        assert_eq!(
            link.transfer_time(ByteSize::ZERO),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        LinkSpec::new(SimDuration::ZERO, 0);
    }

    #[test]
    fn overrides_take_precedence() {
        let mut cfg = NetworkConfig::lan();
        let slow = LinkSpec::new(SimDuration::from_millis(100), 1000);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        cfg.set_link(a, b, slow);
        assert_eq!(cfg.link(a, b), slow);
        // Other direction still the default.
        assert_eq!(cfg.link(b, a), cfg.link(NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    fn reachability_partition_and_crash() {
        let mut r = Reachability::default();
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        assert!(r.can_send(a, b));
        r.sever(a, b);
        assert!(!r.can_send(a, b));
        assert!(!r.can_send(b, a));
        assert!(r.can_send(a, c));
        r.heal(a, b);
        assert!(r.can_send(a, b));
        r.crash(a);
        assert!(r.is_crashed(a));
        assert!(!r.can_send(a, c));
        r.recover(a);
        assert!(r.can_send(a, c));
    }
}
