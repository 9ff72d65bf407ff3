//! A serve-tier node is one thread. (One test in a file of its own: the
//! count is of this process's threads, so nothing else may be starting
//! any.)

#![cfg(target_os = "linux")]

use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{NetOrigin, NetParent, NetProxy, OriginConfig};
use wcc_types::{ByteSize, ServerId};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn every_node_adds_exactly_one_thread() {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let server = ServerId::new(0);
    let before = threads();
    let origin = NetOrigin::spawn(OriginConfig {
        server,
        doc_sizes: vec![ByteSize::from_kib(8); 4],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .expect("origin");
    assert_eq!(threads(), before + 1, "origin");
    let parent =
        NetParent::spawn(origin.addr(), &cfg, server, ByteSize::from_mib(1)).expect("parent");
    assert_eq!(threads(), before + 2, "parent");
    let proxy = NetProxy::spawn(parent.addr(), &cfg, 0, 1, ByteSize::from_mib(1)).expect("proxy");
    assert_eq!(threads(), before + 3, "proxy");
    // They exist when `spawn` returns and are gone when the node is.
    drop((proxy, parent, origin));
    assert_eq!(threads(), before);
}
