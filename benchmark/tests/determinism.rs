//! The same seed gives the same inputs; another seed gives others.

use wcc_benchmark::serve::{self, stream_hash, KeyStream, SERVE_HIT, SERVE_MIXED};
use wcc_benchmark::sim;
use wcc_traces::family;

#[test]
fn serve_streams_repeat_for_a_seed_and_differ_across_seeds() {
    for spec in [SERVE_HIT, SERVE_MIXED] {
        let a = stream_hash(&spec, 1997, 4, 5_000);
        assert_eq!(a, stream_hash(&spec, 1997, 4, 5_000), "{}", spec.name);
        assert_ne!(a, stream_hash(&spec, 7, 4, 5_000), "{}", spec.name);
    }
}

#[test]
fn lanes_are_independent_streams() {
    let mut a = KeyStream::new(&SERVE_MIXED, 1, 0);
    let mut b = KeyStream::new(&SERVE_MIXED, 1, 1);
    let mut w = KeyStream::new(&SERVE_MIXED, 1, serve::WRITE_LANE);
    let take = |s: &mut KeyStream| (0..64).map(|_| s.next_key()).collect::<Vec<_>>();
    let (a, b, w) = (take(&mut a), take(&mut b), take(&mut w));
    assert_ne!(a, b);
    assert_ne!(a, w);
}

#[test]
fn keys_stay_inside_the_workload() {
    for spec in [SERVE_HIT, SERVE_MIXED] {
        let mut stream = KeyStream::new(&spec, 3, 0);
        for _ in 0..10_000 {
            let (doc, client) = stream.next_key();
            assert!(doc < spec.docs && client < spec.clients);
        }
    }
}

#[test]
fn feed_storm_inputs_repeat_for_a_seed_and_differ_across_seeds() {
    let cfg = sim::feed_config();
    let digest = |seed: u64| {
        let workload = family::generate(&cfg, seed);
        let (trace, mods) = &workload.workloads[0];
        format!(
            "{:?}{:?}",
            &trace.records[..50.min(trace.records.len())],
            mods.modifications().len()
        )
    };
    assert_eq!(digest(1997), digest(1997));
    assert_ne!(digest(1997), digest(7));
}
