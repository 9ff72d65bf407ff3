//! The synthetic trace generator.
//!
//! Deterministic given `(spec, seed)`. Request timestamps follow a
//! diurnally modulated arrival process (hourly buckets weighted by a sine
//! profile); documents are drawn Zipf by popularity rank; clients are drawn
//! Zipf by activity rank; document sizes are exponential around the spec's
//! mean with a heavy-tail cap.

use crate::spec::TraceSpec;
use crate::zipf::Zipf;
use crate::{Trace, TraceRecord};
use rand::rngs::StdRng;
use rand::Rng;
use wcc_types::{ByteSize, ClientId, ServerId, SimTime, Url};

/// Generates a deterministic synthetic [`Trace`] from calibration targets.
///
/// # Examples
///
/// ```
/// use wcc_traces::{synthetic, TraceSpec};
///
/// let spec = TraceSpec::nasa().scaled_down(200);
/// let a = synthetic::generate(&spec, 7);
/// let b = synthetic::generate(&spec, 7);
/// assert_eq!(a.records, b.records, "same seed, same trace");
/// assert!(a.validate().is_ok());
/// ```
pub fn generate(spec: &TraceSpec, seed: u64) -> Trace {
    // A multi-origin spec silently homed on server 0 used to be the bug
    // this assertion now catches: federation specs go through
    // [`generate_federation`], which respects the declared origin count.
    assert!(
        spec.num_origins <= 1,
        "spec declares {} origins; use synthetic::generate_federation",
        spec.num_origins
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let server = ServerId::new(0);

    let client_ids = synth_client_ids(spec.num_clients, &mut rng);

    let doc_dist = Zipf::new(spec.num_docs as usize, spec.doc_zipf);
    let client_dist = Zipf::new(spec.num_clients as usize, spec.client_zipf);

    // Document popularity ranks are shuffled so that rank 0 is not always
    // doc 0 (the modifier picks docs uniformly, so this keeps popularity
    // and modification choice independent, as in the paper).
    let doc_perm = permutation(spec.num_docs as usize, &mut rng);
    let doc_sizes = sample_doc_sizes(spec, &doc_perm, &mut rng);

    let times = sample_arrivals(spec, &mut rng);
    let mut records = Vec::with_capacity(times.len());
    for at in times {
        let doc = doc_perm[doc_dist.sample(&mut rng)] as u32;
        let client = client_ids[client_dist.sample(&mut rng)];
        records.push(TraceRecord {
            at,
            client,
            url: Url::new(server, doc),
        });
    }

    let trace = Trace {
        name: spec.name.to_string(),
        server,
        duration: spec.duration,
        doc_sizes,
        records,
    };
    debug_assert!(trace.validate().is_ok());
    trace
}

/// Splits `total` requests into per-origin shares following
/// `Zipf(origins, origin_zipf)`: origin 0 is the federation's most popular
/// server. Shares are exact (they sum to `total`); the remainder after
/// flooring each share is handed out one request at a time from the most
/// popular origin down.
pub fn origin_shares(total: u64, origins: u32, origin_zipf: f64) -> Vec<u64> {
    let origins = origins.max(1);
    let dist = Zipf::new(origins as usize, origin_zipf);
    let mut shares: Vec<u64> = (0..origins as usize)
        .map(|i| (total as f64 * dist.pmf(i)).floor() as u64)
        .collect();
    let assigned: u64 = shares.iter().sum();
    for i in 0..(total - assigned) as usize {
        shares[i % origins as usize] += 1;
    }
    shares
}

/// Generates a deterministic federation: one [`Trace`] per origin declared
/// by the spec, with trace *i* homed on `ServerId::new(i)` (the layout
/// `Deployment::build_multi` expects). Request shares across origins follow
/// `Zipf(num_origins, origin_zipf)`; each origin serves its own catalog of
/// `num_docs / num_origins` documents with the spec's document/client skew,
/// and all origins draw from one shared city-scale client population.
///
/// A single-origin spec degenerates to `vec![generate(spec, seed)]`.
///
/// # Examples
///
/// ```
/// use wcc_traces::{synthetic, TraceSpec};
///
/// let spec = TraceSpec::epa().scaled_down(100).with_origins(4, 0.7);
/// let traces = synthetic::generate_federation(&spec, 7);
/// assert_eq!(traces.len(), 4);
/// let total: usize = traces.iter().map(|t| t.records.len()).sum();
/// assert_eq!(total as u64, spec.total_requests);
/// ```
pub fn generate_federation(spec: &TraceSpec, seed: u64) -> Vec<Trace> {
    let origins = spec.num_origins.max(1);
    if origins == 1 {
        let mut single = spec.clone();
        single.num_origins = 1;
        return vec![generate(&single, seed)];
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfede_4a7e);
    // One shared client population across the whole federation: city-scale
    // clients hit many origins, so the ids are synthesized once (this is
    // also what keeps generation O(clients + requests), not
    // O(origins × clients)).
    let client_ids = synth_client_ids(spec.num_clients, &mut rng);
    let docs_per_origin = (spec.num_docs / origins).max(1);
    let shares = origin_shares(spec.total_requests, origins, spec.origin_zipf);

    let doc_dist = Zipf::new(docs_per_origin as usize, spec.doc_zipf);
    let client_dist = Zipf::new(client_ids.len(), spec.client_zipf);
    (0..origins)
        .map(|i| {
            // Independent per-origin stream so any one origin's trace is
            // stable under changes to the others.
            let mut orng = StdRng::seed_from_u64(
                seed ^ 0xfede_4a7e ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let server = ServerId::new(i);
            let mut sub = spec.clone();
            sub.total_requests = shares[i as usize];
            sub.num_docs = docs_per_origin;
            let doc_perm = permutation(docs_per_origin as usize, &mut orng);
            let doc_sizes = sample_doc_sizes(&sub, &doc_perm, &mut orng);
            let times = sample_arrivals(&sub, &mut orng);
            // Rotate activity ranks per origin so the federation's hottest
            // client differs from origin to origin.
            let rot = (i as usize).wrapping_mul(0x9e37) % client_ids.len();
            let mut records = Vec::with_capacity(times.len());
            for at in times {
                let doc = doc_perm[doc_dist.sample(&mut orng)] as u32;
                let idx = (client_dist.sample(&mut orng) + rot) % client_ids.len();
                records.push(TraceRecord {
                    at,
                    client: client_ids[idx],
                    url: Url::new(server, doc),
                });
            }
            let trace = Trace {
                name: format!("{}-o{i}", spec.name),
                server,
                duration: spec.duration,
                doc_sizes,
                records,
            };
            debug_assert!(trace.validate().is_ok());
            trace
        })
        .collect()
}

/// Exponential sizes with mean `avg_doc_size`, clamped to
/// `[512 B, 50 × avg]`, assigned so that *popular documents tend to be
/// small* (index pages and thumbnails draw the traffic; the rare huge files
/// sit in the tail). This anti-correlation is what keeps a trace's total
/// transfer bytes far below `requests × avg_file_size`, as in the paper's
/// byte rows.
fn sample_doc_sizes(spec: &TraceSpec, doc_perm: &[usize], rng: &mut StdRng) -> Vec<ByteSize> {
    let avg = spec.avg_doc_size.as_u64() as f64;
    let n = spec.num_docs as usize;
    let mut sizes: Vec<u64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-9..1.0);
            ((-avg * u.ln()).round() as u64).clamp(512, (avg * 50.0) as u64)
        })
        .collect();
    // Noisy rank correlation: ascending sizes paired with ascending
    // popularity rank, each rank jittered by ±25% of the population.
    sizes.sort_unstable();
    let mut rank_order: Vec<(f64, usize)> = (0..n)
        .map(|k| {
            let jitter: f64 = rng.gen_range(-0.25..0.25) * n as f64;
            (k as f64 + jitter, k)
        })
        .collect();
    rank_order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
    // rank_order[i].1 is the popularity rank assigned the i-th smallest size.
    let mut out = vec![ByteSize::ZERO; n];
    for (i, &(_, rank)) in rank_order.iter().enumerate() {
        out[doc_perm[rank]] = ByteSize::from_bytes(sizes[i]);
    }
    out
}

/// Synthesizes stable dotted-quad client ids (distinct, deterministic).
fn synth_client_ids(n: u32, rng: &mut StdRng) -> Vec<ClientId> {
    let mut ids = std::collections::BTreeSet::new();
    while ids.len() < n as usize {
        // Public-looking /8s, avoiding 0 and 255 in the first octet.
        let raw: u32 = rng.gen();
        let first = 1 + (raw >> 24) % 223;
        ids.insert(ClientId::from_raw((first << 24) | (raw & 0x00FF_FFFF)));
    }
    ids.into_iter().collect()
}

fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Draws `total_requests` arrival instants across the trace duration with a
/// sinusoidal day/night profile, then sorts them.
fn sample_arrivals(spec: &TraceSpec, rng: &mut StdRng) -> Vec<SimTime> {
    let duration_us = spec.duration.as_micros().max(1);
    let hour_us = 3_600_000_000u64;
    let buckets = duration_us.div_ceil(hour_us) as usize;
    let amp = spec.diurnal_amplitude.clamp(0.0, 0.99);

    // Weight of each hourly bucket: peak mid-afternoon, trough pre-dawn.
    let weights: Vec<f64> = (0..buckets)
        .map(|h| {
            let day_frac = (h % 24) as f64 / 24.0;
            1.0 + amp * (std::f64::consts::TAU * (day_frac - 0.40)).sin()
        })
        .collect();
    let total_weight: f64 = weights.iter().sum();

    let mut times = Vec::with_capacity(spec.total_requests as usize);
    for _ in 0..spec.total_requests {
        // Pick a bucket by weight, then a uniform offset within it.
        let mut pick = rng.gen_range(0.0..total_weight);
        let mut bucket = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                bucket = i;
                break;
            }
            pick -= w;
        }
        let start = bucket as u64 * hour_us;
        let end = ((bucket as u64 + 1) * hour_us).min(duration_us);
        let at = rng.gen_range(start..end.max(start + 1));
        times.push(SimTime::from_micros(at));
    }
    times.sort_unstable();
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSummary;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = TraceSpec::epa().scaled_down(50);
        let a = generate(&spec, 1);
        let b = generate(&spec, 1);
        let c = generate(&spec, 2);
        assert_eq!(a.records, b.records);
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn spec_targets_are_met() {
        let spec = TraceSpec::sdsc().scaled_down(10);
        let t = generate(&spec, 3);
        assert_eq!(t.records.len() as u64, spec.total_requests);
        assert_eq!(t.doc_count() as u32, spec.num_docs);
        assert!(t.validate().is_ok());
        assert!(t.records.last().unwrap().at <= SimTime::ZERO + spec.duration);
    }

    #[test]
    fn mean_size_close_to_target() {
        let spec = TraceSpec::nasa(); // 44 KiB average
        let t = generate(&spec, 4);
        let total: u64 = t.doc_sizes.iter().map(|s| s.as_u64()).sum();
        let mean = total as f64 / t.doc_sizes.len() as f64;
        let target = spec.avg_doc_size.as_u64() as f64;
        assert!(
            (mean - target).abs() / target < 0.15,
            "mean {mean} vs target {target}"
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let spec = TraceSpec::epa().scaled_down(4);
        let t = generate(&spec, 5);
        let mut per_doc = vec![0u64; t.doc_count()];
        for r in &t.records {
            per_doc[r.url.doc() as usize] += 1;
        }
        per_doc.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = per_doc[..per_doc.len() / 10].iter().sum();
        let total: u64 = per_doc.iter().sum();
        assert!(
            top_decile as f64 > total as f64 * 0.3,
            "top 10% of docs should draw >30% of requests (got {top_decile}/{total})"
        );
    }

    #[test]
    fn summary_shape_matches_paper_scale() {
        // Full-size EPA: popularity max should be in the hundreds-to-
        // thousands range with a small average, like Table 2's 1642 (8.2).
        let t = generate(&TraceSpec::epa(), 42);
        let s = TraceSummary::of(&t);
        assert_eq!(s.total_requests, 40_658);
        assert!(
            s.max_popularity > 300,
            "max popularity {}",
            s.max_popularity
        );
        assert!(s.avg_popularity > 2.0 && s.avg_popularity < 40.0);
    }

    #[test]
    fn federation_homes_trace_i_on_server_i() {
        let spec = TraceSpec::epa().scaled_down(50).with_origins(6, 0.8);
        let traces = generate_federation(&spec, 11);
        assert_eq!(traces.len(), 6);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.server, ServerId::new(i as u32), "trace {i}");
            assert!(t.validate().is_ok(), "trace {i}");
            assert_eq!(t.doc_count() as u32, spec.num_docs / 6);
        }
        let total: u64 = traces.iter().map(|t| t.records.len() as u64).sum();
        assert_eq!(total, spec.total_requests);
        // Deterministic and seed-sensitive.
        let again = generate_federation(&spec, 11);
        let other = generate_federation(&spec, 12);
        for (a, b) in traces.iter().zip(&again) {
            assert_eq!(a.records, b.records);
        }
        assert!(traces
            .iter()
            .zip(&other)
            .any(|(a, c)| a.records != c.records));
    }

    /// Regression for the `ServerId::new(0)` hardcode: per-origin request
    /// shares must follow the spec's origin-popularity distribution, not
    /// collapse onto server 0.
    #[test]
    fn federation_request_shares_follow_origin_zipf() {
        let spec = TraceSpec::epa().with_origins(8, 0.9);
        let traces = generate_federation(&spec, 3);
        let dist = Zipf::new(8, 0.9);
        let total = spec.total_requests as f64;
        for (i, t) in traces.iter().enumerate() {
            let share = t.records.len() as f64 / total;
            let expected = dist.pmf(i);
            assert!(
                (share - expected).abs() < 0.01,
                "origin {i}: share {share:.4} vs Zipf pmf {expected:.4}"
            );
        }
        // And the skew is real: origin 0 strictly dominates the tail.
        assert!(traces[0].records.len() > 2 * traces[7].records.len());
    }

    #[test]
    fn single_origin_federation_matches_generate() {
        let spec = TraceSpec::sdsc().scaled_down(20);
        let traces = generate_federation(&spec, 9);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].records, generate(&spec, 9).records);
    }

    #[test]
    #[should_panic(expected = "generate_federation")]
    fn single_origin_generate_rejects_federation_specs() {
        let spec = TraceSpec::epa().scaled_down(100).with_origins(3, 0.5);
        let _ = generate(&spec, 1);
    }

    #[test]
    fn origin_shares_are_exact_and_monotone() {
        let shares = origin_shares(10_000, 16, 0.7);
        assert_eq!(shares.iter().sum::<u64>(), 10_000);
        assert!(shares.windows(2).all(|w| w[0] >= w[1]), "{shares:?}");
        // Uniform when the exponent is zero.
        let flat = origin_shares(100, 4, 0.0);
        assert_eq!(flat, vec![25, 25, 25, 25]);
    }

    #[test]
    fn client_ids_are_distinct() {
        let mut rng = StdRng::seed_from_u64(8);
        let ids = synth_client_ids(500, &mut rng);
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn arrivals_sorted_within_duration() {
        let spec = TraceSpec::clarknet().scaled_down(20);
        let mut rng = StdRng::seed_from_u64(9);
        let times = sample_arrivals(&spec, &mut rng);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times
            .iter()
            .all(|t| t.as_micros() < spec.duration.as_micros()));
    }
}

/// Rewrites a trace so that modifications attract follow-up requests:
/// every request falling within `window` after some modification is, with
/// probability `boost`, redirected to the most recently modified document.
///
/// This models "news-page" behaviour — users revisit pages that just
/// changed — which the raw generator (documents drawn i.i.d. Zipf,
/// independent of the modifier) lacks. The paper's SASK replacement anomaly
/// (§5.2) and, more broadly, any effect that hinges on *re-reading
/// fresh-modified documents* needs this coupling.
///
/// Deterministic given `seed`; request timestamps, clients and the trace
/// shape are unchanged — only the targeted documents move.
///
/// # Examples
///
/// ```
/// use wcc_traces::{synthetic, ModSchedule, TraceSpec};
/// use wcc_types::SimDuration;
///
/// let spec = TraceSpec::sask().scaled_down(200);
/// let trace = synthetic::generate(&spec, 3);
/// let mods = ModSchedule::generate(spec.num_docs, SimDuration::from_days(1),
///                                  spec.duration, 3);
/// let hot = synthetic::with_modification_interest(
///     &trace, &mods, 0.3, SimDuration::from_hours(2), 3);
/// assert_eq!(hot.records.len(), trace.records.len());
/// ```
pub fn with_modification_interest(
    trace: &Trace,
    mods: &crate::ModSchedule,
    boost: f64,
    window: wcc_types::SimDuration,
    seed: u64,
) -> Trace {
    let boost = boost.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ff_ee11);
    let mut out = trace.clone();
    let schedule = mods.modifications();
    let mut cursor = 0usize; // index of the first modification after `at`
    for rec in &mut out.records {
        while cursor < schedule.len() && schedule[cursor].at <= rec.at {
            cursor += 1;
        }
        let Some(last_mod) = cursor.checked_sub(1).map(|i| schedule[i]) else {
            continue;
        };
        let age = rec.at.saturating_since(last_mod.at);
        if age <= window
            && (last_mod.doc as usize) < out.doc_sizes.len()
            && rng.gen::<f64>() < boost
        {
            rec.url = Url::new(out.server, last_mod.doc);
        }
    }
    debug_assert!(out.validate().is_ok());
    out
}

#[cfg(test)]
mod interest_tests {
    use super::*;
    use crate::{ModSchedule, TraceSpec};
    use wcc_types::SimDuration;

    fn setup() -> (Trace, ModSchedule) {
        let spec = TraceSpec::sask().scaled_down(150);
        let trace = generate(&spec, 5);
        let mods =
            ModSchedule::generate(spec.num_docs, SimDuration::from_hours(12), spec.duration, 5);
        (trace, mods)
    }

    #[test]
    fn boost_redirects_requests_toward_modified_docs() {
        let (trace, mods) = setup();
        let hot = with_modification_interest(&trace, &mods, 0.5, SimDuration::from_hours(3), 5);
        assert_eq!(hot.records.len(), trace.records.len());
        // Timestamps and clients untouched.
        for (a, b) in trace.records.iter().zip(&hot.records) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.client, b.client);
        }
        // Some requests moved, and the moved ones target modified docs.
        let modified: std::collections::HashSet<u32> =
            mods.modifications().iter().map(|m| m.doc).collect();
        let moved: Vec<_> = trace
            .records
            .iter()
            .zip(&hot.records)
            .filter(|(a, b)| a.url != b.url)
            .collect();
        assert!(!moved.is_empty(), "expected some redirected requests");
        for (_, b) in &moved {
            assert!(modified.contains(&b.url.doc()));
        }
    }

    #[test]
    fn zero_boost_is_identity() {
        let (trace, mods) = setup();
        let same = with_modification_interest(&trace, &mods, 0.0, SimDuration::from_hours(3), 5);
        assert_eq!(same.records, trace.records);
        // Out-of-range boost clamps rather than panicking.
        let _ = with_modification_interest(&trace, &mods, 7.0, SimDuration::from_hours(3), 5);
    }

    #[test]
    fn empty_schedule_is_identity() {
        let (trace, _) = setup();
        let mods = ModSchedule::none(trace.doc_count() as u32);
        let same = with_modification_interest(&trace, &mods, 1.0, SimDuration::from_days(9), 5);
        assert_eq!(same.records, trace.records);
    }

    #[test]
    fn deterministic_per_seed() {
        let (trace, mods) = setup();
        let a = with_modification_interest(&trace, &mods, 0.4, SimDuration::from_hours(2), 9);
        let b = with_modification_interest(&trace, &mods, 0.4, SimDuration::from_hours(2), 9);
        assert_eq!(a.records, b.records);
    }
}
