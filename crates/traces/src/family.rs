//! Scenario families: deterministic city-scale workload generators.
//!
//! The paper's evaluation stops at five single-origin 1997 traces. This
//! module grows the workload space along the axes ROADMAP item 2 names:
//! Zipf-popularity catalogs over federations of 50–100+ origins with 10⁵+
//! distinct clients, flash-crowd and breaking-news modifier storms (bursty
//! arrivals plus correlated write bursts on hot documents), diurnal
//! real-time feed workloads with per-request freshness deadlines (Mao et
//! al.), and archival TimeMap-style scan sweeps (Brunelle & Nelson).
//!
//! Every family is a pure function of `(config, seed)`: the same
//! determinism contract as [`synthetic::generate`], so families plug
//! directly into the fuzzer's oracle and the trajectory bench.

use crate::modifier::{ModSchedule, Modification};
use crate::spec::TraceSpec;
use crate::synthetic;
use crate::Trace;
use rand::rngs::StdRng;
use rand::Rng;
use wcc_types::{ByteSize, ClientId, SimDuration, SimTime, Url};

/// The scenario families (ROADMAP item 2's "modern workload shapes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFamily {
    /// A plain Zipf federation: 50–100+ origins, shared city-scale client
    /// population, per-origin Zipf catalogs, uniform modifier.
    ZipfFederation,
    /// One flash crowd: a large fraction of the hottest origin's requests
    /// collapse into a short window aimed at a handful of hot documents,
    /// with a correlated write burst on those documents.
    FlashCrowd,
    /// Several breaking-news events: each picks an origin, rapidly rewrites
    /// its hottest document, and steers that origin's readers toward it.
    BreakingNews,
    /// A strongly diurnal real-time feed workload where hot feeds update
    /// most often and every request carries a freshness deadline.
    RealTimeFeed,
    /// An archival crawler sweeping every document of every origin at a
    /// steady rate over light background traffic.
    ArchivalScan,
}

impl WorkloadFamily {
    /// Every family, in a fixed order (coverage guards iterate this).
    pub const ALL: [WorkloadFamily; 5] = [
        WorkloadFamily::ZipfFederation,
        WorkloadFamily::FlashCrowd,
        WorkloadFamily::BreakingNews,
        WorkloadFamily::RealTimeFeed,
        WorkloadFamily::ArchivalScan,
    ];

    /// The CLI/JSON name of the family.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadFamily::ZipfFederation => "zipf-federation",
            WorkloadFamily::FlashCrowd => "flash-crowd",
            WorkloadFamily::BreakingNews => "breaking-news",
            WorkloadFamily::RealTimeFeed => "real-time-feed",
            WorkloadFamily::ArchivalScan => "archival-scan",
        }
    }

    /// Looks a family up by (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<WorkloadFamily> {
        WorkloadFamily::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))
    }
}

/// A fully parameterised family scenario: the federation spec plus the
/// modifier's mean file lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyConfig {
    /// Which generator shapes the workload.
    pub family: WorkloadFamily,
    /// The federation's calibration targets (`num_origins`, `origin_zipf`
    /// and the usual Table 2 knobs).
    pub spec: TraceSpec,
    /// Mean file lifetime driving the baseline (uniform) modifier.
    pub mean_lifetime: SimDuration,
}

impl FamilyConfig {
    /// The city-scale preset: a 64-origin federation with 1.2×10⁵ distinct
    /// clients — the acceptance configuration for the memory-lean state
    /// layout.
    pub fn city(family: WorkloadFamily) -> FamilyConfig {
        let (amplitude, lifetime) = match family {
            WorkloadFamily::ZipfFederation => (0.5, SimDuration::from_days(10)),
            WorkloadFamily::FlashCrowd => (0.4, SimDuration::from_days(10)),
            WorkloadFamily::BreakingNews => (0.5, SimDuration::from_days(10)),
            WorkloadFamily::RealTimeFeed => (0.85, SimDuration::from_hours(6)),
            WorkloadFamily::ArchivalScan => (0.2, SimDuration::from_days(60)),
        };
        FamilyConfig {
            family,
            spec: TraceSpec {
                name: family.name(),
                duration: SimDuration::from_days(1),
                total_requests: 160_000,
                num_docs: 3_200,
                num_clients: 120_000,
                avg_doc_size: ByteSize::from_kib(16),
                doc_zipf: 0.9,
                client_zipf: 0.6,
                diurnal_amplitude: amplitude,
                default_lifetime: lifetime,
                num_origins: 64,
                origin_zipf: 0.7,
            },
            mean_lifetime: lifetime,
        }
    }

    /// Proportionally smaller city scenario (origin count is kept; see
    /// [`TraceSpec::scaled_down`]).
    #[must_use]
    pub fn scaled_down(mut self, factor: u64) -> FamilyConfig {
        self.spec = self.spec.scaled_down(factor);
        self
    }

    /// The family's CLI/JSON name.
    pub fn name(&self) -> &'static str {
        self.family.name()
    }
}

/// A generated family scenario: one `(trace, schedule)` pair per origin,
/// ready for `Deployment::build_multi`, plus the family's freshness
/// contract when it has one.
#[derive(Debug, Clone)]
pub struct FamilyWorkload {
    /// Which family generated this workload.
    pub family: WorkloadFamily,
    /// One workload per origin; entry *i* is homed on `ServerId::new(i)`.
    pub workloads: Vec<(Trace, ModSchedule)>,
    /// Base freshness deadline for real-time families: a served document
    /// must be no staler than the requester's per-client deadline (see
    /// [`FamilyWorkload::deadline_for`]). `None` for families without
    /// freshness contracts.
    pub freshness_deadline: Option<SimDuration>,
}

impl FamilyWorkload {
    /// Total requests across all origins.
    pub fn total_requests(&self) -> u64 {
        self.workloads
            .iter()
            .map(|(t, _)| t.records.len() as u64)
            .sum()
    }

    /// The per-client freshness deadline: clients spread deterministically
    /// over `[0.5, 1.5] ×` the base deadline (impatient tickers and patient
    /// dashboards coexist). `None` when the family has no freshness
    /// contract.
    pub fn deadline_for(&self, client: ClientId) -> Option<SimDuration> {
        let base = self.freshness_deadline?;
        let base_us = base.as_micros();
        let bucket = client.partition(101) as u64; // 0..=100
        Some(SimDuration::from_micros(
            base_us / 2 + bucket * base_us / 100,
        ))
    }

    /// Audits a replay's serve log against the freshness contract: a serve
    /// of `(url, client, trace_at, version)` violates it when the delivered
    /// version predates the document's version as of
    /// `trace_at − deadline_for(client)`. Mao et al.'s deadline semantics:
    /// bounded staleness per request, not per document.
    pub fn freshness_violations<I>(&self, serves: I) -> u64
    where
        I: IntoIterator<Item = (Url, ClientId, SimTime, SimTime)>,
    {
        if self.freshness_deadline.is_none() {
            return 0;
        }
        let mut violations = 0;
        for (url, client, trace_at, version) in serves {
            let Some(deadline) = self.deadline_for(client) else {
                continue;
            };
            let Some((_, mods)) = self.workloads.get(url.server().index() as usize) else {
                continue;
            };
            let floor =
                SimTime::from_micros(trace_at.as_micros().saturating_sub(deadline.as_micros()));
            if version < mods.version_at(url.doc(), floor) {
                violations += 1;
            }
        }
        violations
    }
}

/// Generates a family workload. Deterministic given `(config, seed)`.
pub fn generate(cfg: &FamilyConfig, seed: u64) -> FamilyWorkload {
    match cfg.family {
        WorkloadFamily::ZipfFederation => zipf_federation(cfg, seed),
        WorkloadFamily::FlashCrowd => flash_crowd(cfg, seed),
        WorkloadFamily::BreakingNews => breaking_news(cfg, seed),
        WorkloadFamily::RealTimeFeed => real_time_feed(cfg, seed),
        WorkloadFamily::ArchivalScan => archival_scan(cfg, seed),
    }
}

/// Per-origin baseline modifier: the paper's uniform-every-`N`-seconds
/// process, seeded independently per origin.
fn uniform_mods(cfg: &FamilyConfig, traces: &[Trace], seed: u64) -> Vec<ModSchedule> {
    traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            ModSchedule::generate(
                t.doc_count() as u32,
                cfg.mean_lifetime,
                cfg.spec.duration,
                seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9),
            )
        })
        .collect()
}

/// The origin's documents ranked by descending request count (ties by doc
/// id) — "hot" documents for storms and feeds.
fn popular_docs(trace: &Trace) -> Vec<u32> {
    let mut counts = vec![0u64; trace.doc_count()];
    for r in &trace.records {
        counts[r.url.doc() as usize] += 1;
    }
    let mut ranked: Vec<u32> = (0..trace.doc_count() as u32).collect();
    ranked.sort_by_key(|&d| (std::cmp::Reverse(counts[d as usize]), d));
    ranked
}

/// Merges two time-sorted modification lists into one sorted schedule.
fn merge_mods(num_docs: u32, a: Vec<Modification>, b: Vec<Modification>) -> ModSchedule {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() || ib < b.len() {
        let take_a = match (a.get(ia), b.get(ib)) {
            (Some(x), Some(y)) => x.at <= y.at,
            (Some(_), None) => true,
            _ => false,
        };
        if take_a {
            merged.push(a[ia]);
            ia += 1;
        } else {
            merged.push(b[ib]);
            ib += 1;
        }
    }
    ModSchedule::from_modifications(num_docs, merged)
}

fn zipf_federation(cfg: &FamilyConfig, seed: u64) -> FamilyWorkload {
    let traces = synthetic::generate_federation(&cfg.spec, seed);
    let mods = uniform_mods(cfg, &traces, seed ^ 0x21f0);
    FamilyWorkload {
        family: cfg.family,
        workloads: traces.into_iter().zip(mods).collect(),
        freshness_deadline: None,
    }
}

/// Fraction of the hot origin's requests pulled into the crowd window.
const CROWD_PULL: f64 = 0.45;
/// The crowd window: `[0.35, 0.40] ×` duration.
const CROWD_START: f64 = 0.35;
const CROWD_LEN: f64 = 0.05;
/// Write burst during the crowd: touches spread across the hot documents.
const CROWD_WRITES: u64 = 20;
/// How many hot documents the crowd converges on.
const CROWD_DOCS: usize = 4;

fn flash_crowd(cfg: &FamilyConfig, seed: u64) -> FamilyWorkload {
    let mut traces = synthetic::generate_federation(&cfg.spec, seed);
    let mut mods = uniform_mods(cfg, &traces, seed ^ 0x21f0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1a5_c04d);

    // The crowd hits the federation's most popular origin.
    let hot = &mut traces[0];
    let hot_docs: Vec<u32> = popular_docs(hot).into_iter().take(CROWD_DOCS).collect();
    let duration_us = cfg.spec.duration.as_micros().max(1);
    let start = (duration_us as f64 * CROWD_START) as u64;
    let len = ((duration_us as f64 * CROWD_LEN) as u64).max(1);

    // Bursty arrival: a large fraction of the origin's requests collapse
    // into the window, aimed at the hot documents.
    for rec in &mut hot.records {
        if rng.gen::<f64>() < CROWD_PULL {
            rec.at = SimTime::from_micros(start + rng.gen_range(0..len));
            rec.url = Url::new(hot.server, hot_docs[rng.gen_range(0..hot_docs.len())]);
        }
    }
    hot.records.sort_by_key(|r| r.at);
    debug_assert!(hot.validate().is_ok());

    // Correlated write burst: the hot documents are rewritten repeatedly
    // while the crowd reads them (this is what stresses invalidation
    // fan-out — every burst write hits a huge site list).
    let burst: Vec<Modification> = (0..CROWD_WRITES)
        .map(|k| Modification {
            at: SimTime::from_micros(start + (k * len) / CROWD_WRITES),
            doc: hot_docs[(k as usize) % hot_docs.len()],
        })
        .collect();
    let base = std::mem::replace(&mut mods[0], ModSchedule::none(1));
    mods[0] = merge_mods(
        traces[0].doc_count() as u32,
        base.modifications().to_vec(),
        burst,
    );

    FamilyWorkload {
        family: cfg.family,
        workloads: traces.into_iter().zip(mods).collect(),
        freshness_deadline: None,
    }
}

/// Breaking-news events per day of trace duration.
const NEWS_EVENTS_PER_DAY: u64 = 4;
/// Writes per event (the story is updated as it develops).
const NEWS_WRITES: u64 = 8;
/// The write burst length and the reader-interest window.
const NEWS_WRITE_WINDOW_MINS: u64 = 10;
const NEWS_READ_WINDOW_MINS: u64 = 45;
/// Probability that a request in the interest window goes to the story.
const NEWS_BOOST: f64 = 0.6;

fn breaking_news(cfg: &FamilyConfig, seed: u64) -> FamilyWorkload {
    let mut traces = synthetic::generate_federation(&cfg.spec, seed);
    let mods = uniform_mods(cfg, &traces, seed ^ 0x21f0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbead_11e5);

    let duration_us = cfg.spec.duration.as_micros().max(1);
    let days = (duration_us as f64 / 86_400_000_000.0).max(0.25);
    let events = ((days * NEWS_EVENTS_PER_DAY as f64) as u64).max(2);
    let write_window = SimDuration::from_mins(NEWS_WRITE_WINDOW_MINS).as_micros();
    let read_window = SimDuration::from_mins(NEWS_READ_WINDOW_MINS).as_micros();

    // Collect each event's story writes per origin, then merge them into
    // that origin's baseline schedule.
    let mut extra: Vec<Vec<Modification>> = vec![Vec::new(); traces.len()];
    for e in 0..events {
        // Events spread evenly through the day; each hits a random origin's
        // hottest document.
        let t0 = ((e + 1) * duration_us) / (events + 1);
        let origin = rng.gen_range(0..traces.len());
        let story = popular_docs(&traces[origin])[0];
        for w in 0..NEWS_WRITES {
            extra[origin].push(Modification {
                at: SimTime::from_micros(t0 + (w * write_window) / NEWS_WRITES),
                doc: story,
            });
        }
        // Reader interest: requests at this origin inside the read window
        // swing toward the story.
        let trace = &mut traces[origin];
        let server = trace.server;
        for rec in &mut trace.records {
            let at = rec.at.as_micros();
            if at >= t0 && at < t0 + read_window && rng.gen::<f64>() < NEWS_BOOST {
                rec.url = Url::new(server, story);
            }
        }
    }

    let workloads = traces
        .into_iter()
        .zip(mods)
        .zip(extra)
        .map(|((trace, base), mut burst)| {
            burst.sort_by_key(|m| m.at);
            let docs = trace.doc_count() as u32;
            let merged = merge_mods(docs, base.modifications().to_vec(), burst);
            (trace, merged)
        })
        .collect();
    FamilyWorkload {
        family: cfg.family,
        workloads,
        freshness_deadline: None,
    }
}

/// Base freshness deadline for real-time feeds (per-client spread applies
/// on top — see [`FamilyWorkload::deadline_for`]).
const FEED_DEADLINE_MINS: u64 = 10;

fn real_time_feed(cfg: &FamilyConfig, seed: u64) -> FamilyWorkload {
    let traces = synthetic::generate_federation(&cfg.spec, seed);
    // Feeds update often and update *hot*: the modifier draws documents
    // from the same Zipf popularity ranking readers use, instead of the
    // paper's uniform pick — popular tickers churn fastest.
    let workloads = traces
        .into_iter()
        .enumerate()
        .map(|(i, trace)| {
            let mut rng = StdRng::seed_from_u64(
                seed ^ 0xfeed_f00d ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9),
            );
            let docs = trace.doc_count() as u32;
            let ranked = popular_docs(&trace);
            let dist = crate::zipf::Zipf::new(ranked.len(), cfg.spec.doc_zipf);
            let period = cfg.mean_lifetime.div(docs as u64);
            let mut mods = Vec::new();
            if !period.is_zero() {
                let mut t = SimTime::ZERO + period;
                while t <= SimTime::ZERO + cfg.spec.duration {
                    mods.push(Modification {
                        at: t,
                        doc: ranked[dist.sample(&mut rng)],
                    });
                    t += period;
                }
            }
            let schedule = ModSchedule::from_modifications(docs, mods);
            (trace, schedule)
        })
        .collect();
    FamilyWorkload {
        family: cfg.family,
        workloads,
        freshness_deadline: Some(SimDuration::from_mins(FEED_DEADLINE_MINS)),
    }
}

/// The archival crawler's stable client id (outside the generator's
/// dotted-quad space, so it never collides with a synthetic client).
pub const SCAN_CLIENT: ClientId = ClientId::from_raw(0xE0E0_5CA1);

fn archival_scan(cfg: &FamilyConfig, seed: u64) -> FamilyWorkload {
    // Background traffic cedes the scan's request budget.
    let mut spec = cfg.spec.clone();
    let origins = spec.num_origins.max(1) as u64;
    let scan_docs = (spec.num_docs.max(spec.num_origins) as u64 / origins).max(1) * origins;
    spec.total_requests = spec.total_requests.saturating_sub(scan_docs).max(1);
    let mut traces = synthetic::generate_federation(&spec, seed);
    let mods = uniform_mods(cfg, &traces, seed ^ 0x21f0);

    // The crawler sweeps origin by origin, document by document, at a
    // steady pace across the whole duration (TimeMap-style enumeration).
    let duration_us = spec.duration.as_micros().max(1);
    let step = (duration_us / scan_docs.max(1)).max(1);
    let mut k = 0u64;
    for trace in &mut traces {
        let server = trace.server;
        let docs = trace.doc_count() as u32;
        for doc in 0..docs {
            trace.records.push(crate::TraceRecord {
                at: SimTime::from_micros((k * step).min(duration_us - 1)),
                client: SCAN_CLIENT,
                url: Url::new(server, doc),
            });
            k += 1;
        }
        trace.records.sort_by_key(|r| r.at);
        debug_assert!(trace.validate().is_ok());
    }

    FamilyWorkload {
        family: cfg.family,
        workloads: traces.into_iter().zip(mods).collect(),
        freshness_deadline: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_types::ServerId;

    /// A small preset (3 origins, minutes of wall-clock trace).
    fn demo_config(family: WorkloadFamily) -> FamilyConfig {
        let mut cfg = FamilyConfig::city(family);
        cfg.spec.duration = SimDuration::from_hours(4);
        cfg.spec.total_requests = 300;
        cfg.spec.num_docs = 24;
        cfg.spec.num_clients = 150;
        cfg.spec.num_origins = 3;
        cfg.mean_lifetime = SimDuration::from_days(1);
        cfg
    }

    fn demo(family: WorkloadFamily) -> FamilyWorkload {
        generate(&demo_config(family), 7)
    }

    #[test]
    fn every_family_generates_valid_sorted_workloads() {
        for family in WorkloadFamily::ALL {
            let w = demo(family);
            assert_eq!(w.family, family);
            assert!(!w.workloads.is_empty(), "{family:?}");
            for (i, (trace, mods)) in w.workloads.iter().enumerate() {
                assert_eq!(trace.server, ServerId::new(i as u32), "{family:?}[{i}]");
                assert!(trace.validate().is_ok(), "{family:?}[{i}]");
                assert!(
                    mods.modifications().windows(2).all(|m| m[0].at <= m[1].at),
                    "{family:?}[{i}] mods unsorted"
                );
                assert!(
                    mods.modifications()
                        .iter()
                        .all(|m| (m.doc as usize) < trace.doc_count()),
                    "{family:?}[{i}] mod out of range"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        for family in WorkloadFamily::ALL {
            let cfg = demo_config(family);
            let a = generate(&cfg, 3);
            let b = generate(&cfg, 3);
            let c = generate(&cfg, 4);
            assert_eq!(
                format!("{:?}", a.workloads),
                format!("{:?}", b.workloads),
                "{family:?}"
            );
            assert_ne!(
                format!("{:?}", a.workloads),
                format!("{:?}", c.workloads),
                "{family:?}"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for family in WorkloadFamily::ALL {
            assert_eq!(WorkloadFamily::from_name(family.name()), Some(family));
        }
        assert_eq!(
            WorkloadFamily::from_name("FLASH-CROWD"),
            Some(WorkloadFamily::FlashCrowd)
        );
        assert_eq!(WorkloadFamily::from_name("zork"), None);
    }

    #[test]
    fn city_preset_is_federation_scale() {
        let cfg = FamilyConfig::city(WorkloadFamily::FlashCrowd);
        assert_eq!(cfg.spec.num_origins, 64);
        assert!(cfg.spec.num_clients >= 100_000);
        let reduced = cfg.scaled_down(20);
        assert_eq!(reduced.spec.num_origins, 64, "origins survive scaling");
        assert!(reduced.spec.num_docs >= 64);
    }

    #[test]
    fn real_time_feed_carries_deadlines_and_audits() {
        let w = demo(WorkloadFamily::RealTimeFeed);
        let base = w.freshness_deadline.expect("feed has a deadline");
        let d = w.deadline_for(ClientId::from_raw(42)).unwrap();
        assert!(d >= base.div(2) && d.as_micros() <= base.as_micros() * 3 / 2 + 1);
        // A fresh serve passes; an ancient version trips the audit.
        let (trace, mods) = &w.workloads[0];
        let url = trace.records[0].url;
        let late = SimTime::ZERO + w.workloads[0].0.duration;
        let current = mods.version_at(url.doc(), late);
        assert_eq!(
            w.freshness_violations([(url, ClientId::from_raw(42), late, current)]),
            0
        );
        if mods.final_version(url.doc()) > SimTime::ZERO {
            // Serving the birth version at the end violates any deadline.
            assert_eq!(
                w.freshness_violations([(url, ClientId::from_raw(42), late, SimTime::ZERO)]),
                1
            );
        }
        // Families without a contract never report violations.
        let plain = demo(WorkloadFamily::ZipfFederation);
        assert_eq!(plain.deadline_for(ClientId::from_raw(1)), None);
        assert_eq!(
            plain.freshness_violations([(url, ClientId::from_raw(1), late, SimTime::ZERO)]),
            0
        );
    }

    #[test]
    fn archival_scan_covers_every_document() {
        let w = demo(WorkloadFamily::ArchivalScan);
        for (i, (trace, _)) in w.workloads.iter().enumerate() {
            let mut seen = vec![false; trace.doc_count()];
            for r in trace.records.iter().filter(|r| r.client == SCAN_CLIENT) {
                seen[r.url.doc() as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "origin {i}: scan missed documents");
        }
    }

    #[test]
    fn flash_crowd_concentrates_arrivals() {
        let cfg = demo_config(WorkloadFamily::FlashCrowd);
        let w = generate(&cfg, 7);
        let duration = cfg.spec.duration.as_micros();
        let (start, len) = (
            (duration as f64 * CROWD_START) as u64,
            (duration as f64 * CROWD_LEN) as u64,
        );
        let hot = &w.workloads[0].0;
        let inside = hot
            .records
            .iter()
            .filter(|r| r.at.as_micros() >= start && r.at.as_micros() < start + len)
            .count();
        assert!(
            inside as f64 > hot.records.len() as f64 * CROWD_PULL * 0.8,
            "crowd window holds {inside} of {}",
            hot.records.len()
        );
        // The correlated write burst landed inside the window too.
        let writes_inside = w.workloads[0]
            .1
            .modifications()
            .iter()
            .filter(|m| m.at.as_micros() >= start && m.at.as_micros() < start + len)
            .count();
        assert!(writes_inside as u64 >= CROWD_WRITES);
    }
}
