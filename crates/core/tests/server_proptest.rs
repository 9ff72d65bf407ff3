//! Property tests of the server-side protocol state under arbitrary
//! operation interleavings.

#![allow(
    clippy::disallowed_types,
    clippy::iter_over_hash_type,
    reason = "a std set is the shadow model; each check over it is order-free"
)]

use proptest::prelude::*;
use std::collections::HashSet;
use wcc_core::{ProtocolConfig, ProtocolKind, ServerConsistency};
use wcc_types::{ByteSize, ClientId, DocMeta, ServerId, SimDuration, SimTime, Url};

#[derive(Debug, Clone)]
enum Op {
    Get { doc: u32, client: u32, ims: bool },
    Modify { doc: u32 },
    Ack { doc: u32, client: u32 },
    Purge,
    ExpirePending,
    Recover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..6, 0u32..8, any::<bool>())
            .prop_map(|(doc, client, ims)| Op::Get { doc, client, ims }),
        2 => (0u32..6).prop_map(|doc| Op::Modify { doc }),
        2 => (0u32..6, 0u32..8).prop_map(|(doc, client)| Op::Ack { doc, client }),
        1 => Just(Op::Purge),
        1 => Just(Op::ExpirePending),
        1 => Just(Op::Recover),
    ]
}

fn kind_strategy() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::Invalidation),
        Just(ProtocolKind::LeaseInvalidation),
        Just(ProtocolKind::TwoTierLease),
        Just(ProtocolKind::PiggybackInvalidation),
        Just(ProtocolKind::VolumeLease),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariants that must hold after any operation sequence:
    /// * every pushed invalidation names a previously registered client;
    /// * acking everything pushed always completes the writes;
    /// * registered clients are always on the persistent ever-seen list
    ///   (their first registration caused exactly one disk write);
    /// * recipients lists, and every open write's owed set after each
    ///   step, are sorted and duplicate-free.
    #[test]
    fn server_state_invariants(
        kind in kind_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let server_id = ServerId::new(0);
        let cfg = ProtocolConfig::new(kind)
            .with_lease(SimDuration::from_secs(500))
            .with_volume_lease(SimDuration::from_secs(120));
        let mut s = ServerConsistency::new(&cfg, server_id);
        let mut now = SimTime::ZERO;
        let mut ever_registered: HashSet<ClientId> = HashSet::new();
        let mut outstanding: HashSet<(Url, ClientId)> = HashSet::new();
        let doc_meta = DocMeta::new(ByteSize::from_kib(4), SimTime::ZERO);

        for op in ops {
            now += SimDuration::from_secs(30);
            match op {
                Op::Get { doc, client, ims } => {
                    let url = Url::new(server_id, doc);
                    let client = ClientId::from_raw(client);
                    let validator = ims.then_some(SimTime::ZERO);
                    let grant = s.on_get(url, client, validator, doc_meta, now);
                    if grant.register {
                        ever_registered.insert(client);
                    }
                    // Any piggyback delivered resolves nothing from
                    // `outstanding` (those were never pushed).
                }
                Op::Modify { doc } => {
                    let url = Url::new(server_id, doc);
                    let recipients = s.on_modify(url, now);
                    // Sorted + unique.
                    let mut sorted = recipients.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(&sorted, &recipients);
                    for c in recipients {
                        prop_assert!(
                            ever_registered.contains(&c),
                            "pushed to unregistered client {c:?}"
                        );
                        outstanding.insert((url, c));
                    }
                }
                Op::Ack { doc, client } => {
                    let url = Url::new(server_id, doc);
                    let client = ClientId::from_raw(client);
                    s.on_inval_ack(url, client);
                    outstanding.remove(&(url, client));
                }
                Op::Purge => {
                    s.purge_expired_leases(now);
                }
                Op::ExpirePending => {
                    let dropped = s.expire_pending(now);
                    if kind != ProtocolKind::VolumeLease {
                        prop_assert_eq!(dropped, 0);
                    } else {
                        // Re-derive outstanding from the server's own view.
                        outstanding.retain(|(url, c)| s.owed(*url).contains(c));
                    }
                }
                Op::Recover => {
                    let sites = s.on_server_recover();
                    // Recovery notifies exactly the ever-seen sites.
                    let set: HashSet<ClientId> = sites.iter().copied().collect();
                    prop_assert_eq!(&set, &ever_registered);
                    outstanding.clear();
                }
            }
            // The server's owed sets are sorted and match ours.
            for (url, owed) in s.open_writes() {
                prop_assert!(
                    owed.windows(2).all(|w| w[0] < w[1]),
                    "{kind}: {url} owes {owed:?}, not sorted and unique"
                );
                for &c in owed {
                    prop_assert!(
                        outstanding.contains(&(url, c)),
                        "{kind}: server pends ({url}, {c}) we never saw pushed"
                    );
                }
            }
            for &(url, c) in &outstanding {
                prop_assert!(
                    s.owed(url).contains(&c),
                    "{kind}: lost pending ({url}, {c})"
                );
            }
            // Disk writes equal distinct registered clients.
            prop_assert_eq!(
                s.stats().recovery_disk_writes,
                ever_registered.len() as u64
            );
        }
        // Drain: acking everything completes all writes.
        for (url, c) in outstanding {
            s.on_inval_ack(url, c);
        }
        prop_assert!(s.writes_complete());
    }
}
