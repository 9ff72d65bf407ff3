//! Criterion micro-benchmarks of the building blocks: invalidation-table
//! operations, cache-store operations under both replacement policies, Zipf
//! sampling, wire-codec round trips, the Table 1 interpreter and the
//! simulator's event queue (two-level bucket queue vs. the plain binary
//! heap it replaced).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wcc_cache::{CacheStore, Freshness, ReplacementPolicy};
use wcc_core::analytical::{parse_stream, simulate};
use wcc_core::{InvalidationTable, ProtocolConfig, ProtocolKind};
use wcc_proto::{
    decode_ref, encode, encode_into, GetRequest, HttpMsg, Reply, ReplyStatus, RequestId,
};
use wcc_simnet::EventQueue;
use wcc_traces::Zipf;
use wcc_types::{Body, ByteSize, ClientId, DocMeta, ServerId, SimDuration, SimTime, Url};

fn bench_invalidation_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("invalidation_table");
    group.bench_function("register_1k_take", |b| {
        b.iter(|| {
            let mut table = InvalidationTable::new();
            let url = Url::new(ServerId::new(0), 1);
            for i in 0..1_000u32 {
                table.register(url, ClientId::from_raw(i), SimTime::NEVER);
            }
            black_box(table.take_sites(url, SimTime::from_secs(1)))
        })
    });
    group.bench_function("stats_over_1k_docs", |b| {
        let mut table = InvalidationTable::new();
        for doc in 0..1_000u32 {
            for i in 0..8u32 {
                table.register(
                    Url::new(ServerId::new(0), doc),
                    ClientId::from_raw(i),
                    SimTime::NEVER,
                );
            }
        }
        b.iter(|| black_box(table.stats()))
    });
    group.bench_function("purge_expired_8k", |b| {
        b.iter(|| {
            let mut table = InvalidationTable::new();
            for doc in 0..1_000u32 {
                for i in 0..8u32 {
                    table.register(
                        Url::new(ServerId::new(0), doc),
                        ClientId::from_raw(i),
                        SimTime::from_secs((i as u64) * 100),
                    );
                }
            }
            black_box(table.purge_expired(SimTime::from_secs(350)))
        })
    });
    group.finish();
}

fn bench_cache_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_store");
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::ExpiredFirstLru] {
        group.bench_function(format!("churn_2k_{}", policy.name()), |b| {
            b.iter(|| {
                let mut cache = CacheStore::new(ByteSize::from_kib(512), policy);
                for i in 0..2_000u32 {
                    let key =
                        Url::new(ServerId::new(0), i % 400).scoped(ClientId::from_raw(i % 16));
                    let now = SimTime::from_secs(i as u64);
                    let meta = DocMeta::new(ByteSize::from_kib(8), SimTime::ZERO);
                    let fresh = Freshness {
                        ttl_expires: now + wcc_types::SimDuration::from_secs(100),
                        ..Freshness::default()
                    };
                    cache.insert(key, meta, now, fresh);
                    cache.touch(key, now);
                }
                black_box(cache.len())
            })
        });
    }
    group.finish();
}

fn bench_zipf(c: &mut Criterion) {
    let zipf = Zipf::new(4_096, 0.85);
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("zipf_sample_4096", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let msg = HttpMsg::Get(GetRequest {
        req: RequestId::new(42),
        url: Url::new(ServerId::new(0), 123),
        client: ClientId::from_raw(77),
        ims: Some(SimTime::from_secs(99)),
        issued_at: SimTime::from_secs(100),
        cache_hits: 3,
    });
    c.bench_function("wire_encode_get", |b| b.iter(|| black_box(encode(&msg))));
    let bytes = encode(&msg);
    c.bench_function("wire_decode_get", |b| {
        b.iter(|| black_box(decode_ref(black_box(&bytes)).expect("valid")))
    });
    // The serve tier's commonest large frame, through the calls it makes:
    // encoded into a buffer that is already there, decoded in place.
    let meta = DocMeta::new(ByteSize::from_kib(8), SimTime::from_secs(7));
    let reply = HttpMsg::Reply(Reply {
        req: RequestId::new(42),
        url: Url::new(ServerId::new(0), 123),
        client: ClientId::from_raw(77),
        status: ReplyStatus::Ok(Body::synthetic(meta, 1)),
        lease: Some(SimDuration::from_days(1)),
        piggyback: Vec::new(),
        volume_lease: None,
    });
    let mut out = Vec::with_capacity(16 * 1024);
    c.bench_function("wire_encode_reply_200_8k", |b| {
        b.iter(|| {
            out.clear();
            encode_into(black_box(&reply), &mut out);
            black_box(out.len())
        })
    });
    let bytes = encode(&reply);
    c.bench_function("wire_decode_reply_200_8k", |b| {
        b.iter(|| black_box(decode_ref(black_box(&bytes)).expect("valid")))
    });
    // The other frames the serve tier decodes: a revalidation's `304`, and
    // the invalidation and its acknowledgement on the push channel.
    let url = Url::new(ServerId::new(0), 123);
    let client = ClientId::from_raw(77);
    let frames = [
        (
            "wire_decode_invalidate",
            HttpMsg::Invalidate { url, client },
        ),
        (
            "wire_decode_inval_ack",
            HttpMsg::InvalAck {
                url,
                client,
                cache_hits: 3,
            },
        ),
        (
            "wire_decode_reply_304",
            HttpMsg::Reply(Reply {
                req: RequestId::new(42),
                url,
                client,
                status: ReplyStatus::NotModified,
                lease: Some(SimDuration::from_days(1)),
                piggyback: Vec::new(),
                volume_lease: None,
            }),
        ),
    ];
    for (name, msg) in frames {
        let bytes = encode(&msg);
        c.bench_function(name, |b| {
            b.iter(|| black_box(decode_ref(black_box(&bytes)).expect("valid")))
        });
    }
}

/// The schedule/pop surface both queue implementations expose to the
/// micro-benchmark's driver.
trait BenchQueue {
    fn schedule(&mut self, at: SimTime, payload: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

/// The engine's two-level bucket queue (near-future ring + overflow heap),
/// exactly as `Simulation` drives it.
impl BenchQueue for EventQueue<u64> {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        EventQueue::schedule(self, at, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

/// The queue the bucket queue replaced: one `Reverse<(time, seq)>` binary
/// heap, the pre-optimisation engine verbatim.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
}

impl BenchQueue for HeapQueue {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.heap.push(Reverse((at, self.seq, payload)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap
            .pop()
            .map(|Reverse((at, _, payload))| (at, payload))
    }
}

/// One deterministic schedule/pop trace shaped like a replay: from each
/// popped instant, follow-up near-future deliveries (the LAN latency band)
/// plus an occasional far-future timer (TTL expiries, fault plans).
/// Returns a checksum so the whole loop stays observable.
fn drive_queue(q: &mut impl BenchQueue) -> u64 {
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut step = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    for i in 0..64 {
        q.schedule(SimTime::from_micros(step() % 4_000), i);
    }
    let mut checksum = 0u64;
    let mut popped = 0u64;
    while let Some((now, payload)) = q.pop() {
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(payload ^ now.as_micros());
        popped += 1;
        if popped >= 20_000 {
            break;
        }
        // Each event spawns follow-ups until the trace winds down.
        if popped < 12_000 {
            for _ in 0..2 {
                let delta = if step() % 50 == 0 {
                    SimDuration::from_micros(100_000 + step() % 1_000_000) // timer band
                } else {
                    SimDuration::from_micros(150 + step() % 2_000) // LAN band
                };
                q.schedule(now + delta, step());
            }
        }
    }
    checksum
}

/// The input the replay-shaped trace never produces: 1 500 events in one
/// microsecond, drained while 500 more are scheduled for that same
/// microsecond (every third pop pushes one), eight rounds. This is a busy
/// server's backlog waking at once, the shape that made `pop` scan its
/// bucket per event. Everything rides the external lane, the only one this
/// crate can reach, so each mid-drain push sorts last in the bucket — the
/// sorted bucket's worst insert position.
fn drive_burst(q: &mut impl BenchQueue) -> u64 {
    let mut checksum = 0u64;
    let mut payload = 0u64;
    for round in 0..8u64 {
        let at = SimTime::from_micros(5 + round * 700);
        for _ in 0..1_500 {
            q.schedule(at, payload);
            payload += 1;
        }
        let mut extra = 500;
        let mut popped = 0u64;
        while let Some((now, p)) = q.pop() {
            checksum = checksum.wrapping_mul(31).wrapping_add(p ^ now.as_micros());
            popped += 1;
            if extra > 0 && popped.is_multiple_of(3) {
                q.schedule(now, payload);
                payload += 1;
                extra -= 1;
            }
        }
    }
    checksum
}

fn bench_event_queue(c: &mut Criterion) {
    // Both implementations must walk the identical trace before timing
    // anything, or the comparison is meaningless.
    assert_eq!(
        drive_queue(&mut EventQueue::<u64>::new()),
        drive_queue(&mut HeapQueue::default()),
        "bucket queue and binary heap replayed different traces"
    );
    assert_eq!(
        drive_burst(&mut EventQueue::<u64>::new()),
        drive_burst(&mut HeapQueue::default()),
        "bucket queue and binary heap drained the burst differently"
    );
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("bucket_queue_20k", |b| {
        b.iter(|| black_box(drive_queue(&mut EventQueue::<u64>::new())))
    });
    group.bench_function("binary_heap_20k", |b| {
        b.iter(|| black_box(drive_queue(&mut HeapQueue::default())))
    });
    group.bench_function("bucket_queue_same_instant_burst", |b| {
        b.iter(|| black_box(drive_burst(&mut EventQueue::<u64>::new())))
    });
    group.bench_function("binary_heap_same_instant_burst", |b| {
        b.iter(|| black_box(drive_burst(&mut HeapQueue::default())))
    });
    group.finish();
}

fn bench_analytical(c: &mut Criterion) {
    let events = parse_stream(&"rrrmmrrrmr".repeat(50), 60);
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    c.bench_function("analytical_simulate_500ev", |b| {
        b.iter(|| black_box(simulate(&cfg, &events)))
    });
}

criterion_group!(
    benches,
    bench_invalidation_table,
    bench_cache_store,
    bench_zipf,
    bench_codec,
    bench_event_queue,
    bench_analytical
);
criterion_main!(benches);
