//! Criterion benches of the real-TCP prototype on loopback: fetch
//! throughput per protocol and the invalidation round trip.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_net::{check_in, NetOrigin, NetProxy, OriginConfig};
use wcc_types::{ByteSize, ClientId, ServerId, SimTime, Url};

fn spawn(kind: ProtocolKind) -> (NetOrigin, NetProxy) {
    let cfg = ProtocolConfig::new(kind);
    let origin = NetOrigin::spawn(OriginConfig {
        server: ServerId::new(0),
        doc_sizes: vec![ByteSize::from_kib(8); 64],
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .expect("origin");
    let proxy = NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_mib(64)).expect("proxy");
    assert!(
        origin.wait_registered(1, Duration::from_secs(5)),
        "push channel"
    );
    (origin, proxy)
}

fn bench_fetch(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcp_fetch");
    group.sample_size(20);
    for kind in [
        ProtocolKind::Invalidation,  // hits never touch the wire
        ProtocolKind::PollEveryTime, // every hit is a TCP round trip
    ] {
        let (_origin, proxy) = spawn(kind);
        let client = ClientId::from_raw(1);
        let url = Url::new(ServerId::new(0), 1);
        let mut t = 1u64;
        proxy
            .fetch(client, url, SimTime::from_secs(t))
            .expect("warm");
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &(), |b, ()| {
            b.iter(|| {
                t += 1;
                black_box(
                    proxy
                        .fetch(client, url, SimTime::from_secs(t))
                        .expect("fetch"),
                )
            })
        });
    }
    group.finish();
}

fn bench_invalidation_round_trip(c: &mut Criterion) {
    let (origin, proxy) = spawn(ProtocolKind::Invalidation);
    let client = ClientId::from_raw(1);
    let url = Url::new(ServerId::new(0), 2);
    let mut t = 1u64;
    let mut group = c.benchmark_group("tcp_invalidation");
    group.sample_size(20);
    group.bench_function("checkin_to_write_complete", |b| {
        b.iter(|| {
            t += 10;
            proxy
                .fetch(client, url, SimTime::from_secs(t))
                .expect("fetch");
            check_in(origin.addr(), url, SimTime::from_secs(t + 1)).expect("check-in");
            assert!(origin.wait_writes_complete(Duration::from_secs(5)));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fetch, bench_invalidation_round_trip);
criterion_main!(benches);
