//! §7 hit metering: recovering true document popularity at the server.
//!
//! "For those commercial Web sites that want to control the accesses to its
//! contents, invalidation should be merged with other hit-metering
//! protocols [Leach & Mogul] to provide both the benefits of caching and
//! the capability of access control."
//!
//! The merge implemented here costs zero extra messages: caches count the
//! hits they serve locally and report them on whatever they were going to
//! send anyway — the next `GET`/`If-Modified-Since` for that document, or
//! the `InvalAck` when an invalidation deletes the copy (the dying copy's
//! count rides the ack). The server-side [`HitMeter`] adds the reports to
//! the requests it sees directly, reconstructing the document's true view
//! count.

use wcc_types::{FxHashMap, Url};

/// Per-document view accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DocViews {
    /// Requests the server answered itself (`GET` + `If-Modified-Since`).
    pub served: u64,
    /// Cache hits reported by downstream caches.
    pub reported: u64,
}

impl DocViews {
    /// Total metered views: directly served plus cache-reported.
    pub fn total(self) -> u64 {
        self.served + self.reported
    }
}

/// The server-side hit meter.
///
/// # Examples
///
/// ```
/// use wcc_core::HitMeter;
/// use wcc_types::{ServerId, Url};
///
/// let url = Url::new(ServerId::new(0), 1);
/// let mut meter = HitMeter::new();
/// meter.record_request(url);      // a GET the server answers
/// meter.record_report(url, 4);    // four cache hits reported with it
/// assert_eq!(meter.views(url).total(), 5);
/// ```
#[derive(Debug, Default, Clone)]
pub struct HitMeter {
    per_doc: FxHashMap<Url, DocViews>,
    served: u64,
    reported: u64,
}

impl HitMeter {
    /// An empty meter.
    pub fn new() -> Self {
        HitMeter::default()
    }

    /// Records one request the server answered directly.
    pub fn record_request(&mut self, url: Url) {
        self.per_doc.entry(url).or_default().served += 1;
        self.served += 1;
    }

    /// Records `hits` cache hits reported by a downstream cache (on a
    /// request or an invalidation ack).
    pub fn record_report(&mut self, url: Url, hits: u64) {
        if hits == 0 {
            return;
        }
        self.per_doc.entry(url).or_default().reported += hits;
        self.reported += hits;
    }

    /// This document's accounting.
    pub fn views(&self, url: Url) -> DocViews {
        self.per_doc.get(&url).copied().unwrap_or_default()
    }

    /// Total requests served directly.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Total cache hits reported.
    pub fn reported(&self) -> u64 {
        self.reported
    }

    /// Total metered views across all documents.
    pub fn total(&self) -> u64 {
        self.served + self.reported
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_types::ServerId;

    fn url(doc: u32) -> Url {
        Url::new(ServerId::new(0), doc)
    }

    #[test]
    fn accumulates_served_and_reported() {
        let mut m = HitMeter::new();
        m.record_request(url(1));
        m.record_request(url(1));
        m.record_report(url(1), 10);
        m.record_request(url(2));
        m.record_report(url(2), 0); // no-op
        assert_eq!(
            m.views(url(1)),
            DocViews {
                served: 2,
                reported: 10
            }
        );
        assert_eq!(m.views(url(1)).total(), 12);
        assert_eq!(m.views(url(2)).total(), 1);
        assert_eq!(m.views(url(9)).total(), 0);
        assert_eq!(m.served(), 3);
        assert_eq!(m.reported(), 10);
        assert_eq!(m.total(), 13);
    }
}
