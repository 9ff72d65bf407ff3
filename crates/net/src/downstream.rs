//! The downward hop (origin→proxy, origin→parent, parent→child): what
//! connects a [`WritePath`] to the wire and the timers.
//!
//! [`Downstream`] is what a role keeps beside its path: the connection of
//! each site, registered by its `HELLO`, and the timers the path armed, due
//! at instants of the node's clock — the `now` the runtime tells the role.
//! The path builds the frames; this file only routes them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use wcc_core::{OriginOut, OriginTimer, SiteListStats, WritePath};
use wcc_obs::Registry;
use wcc_proto::HttpMsg;
use wcc_types::{SimDuration, SimTime};

use crate::evloop::{Out, Outbox, UPSTREAM};

/// How often an unacknowledged invalidation — one document's, or the §5
/// bulk — is re-sent.
pub(crate) const RETRY: SimDuration = SimDuration::from_millis(250);

/// Who to push to, and when to wake.
#[derive(Default)]
pub(crate) struct Downstream {
    /// partition -> connection token, set by the partition's `HELLO`
    /// (latest wins, stale tokens fail their generation check harmlessly).
    pub channels: HashMap<u32, u64>,
    /// Timers the path armed, soonest first.
    timers: BinaryHeap<Reverse<(SimTime, OriginTimer)>>,
    /// What the path last asked for; drained by [`Downstream::emit`] and
    /// reused.
    pub asked: Vec<OriginOut>,
}

impl Downstream {
    /// When the soonest armed timer is due.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.peek().map(|Reverse((due, _))| *due)
    }

    /// Hands `path` every timer that has come due, each in a window opened at `now`.
    pub fn fire(&mut self, path: &mut WritePath, now: SimTime) {
        while let Some(Reverse((due, timer))) = self.timers.peek().copied() {
            if due > now {
                break;
            }
            self.timers.pop();
            path.on_window(now, now);
            path.on_timer(timer, now, &mut self.asked);
        }
    }

    /// Carries out what the path asked for: frames into the outbox of the
    /// site's connection, timers onto the heap; `on_batch` is told each
    /// round's size. A push to a partition whose channel is down is dropped
    /// (here when it never registered, by the runtime when its token went
    /// stale); the copy stays pending, and the document's retry timer or
    /// the partition's next `HELLO` sends it again.
    pub fn emit(&mut self, now: SimTime, out: &mut Outbox, mut on_batch: impl FnMut(u64)) {
        for asked in self.asked.drain(..) {
            match asked {
                OriginOut::Arm { after, timer } => self.timers.push(Reverse((now + after, timer))),
                OriginOut::Up(msg) => out.push(Out::Push(UPSTREAM, msg)),
                OriginOut::Push { site, msg } => {
                    if let HttpMsg::InvalidateBatch { entries, .. } = &msg {
                        on_batch(entries.len() as u64);
                    }
                    if let Some(&tok) = self.channels.get(&site) {
                        out.push(Out::Push(tok, msg));
                    }
                }
            }
        }
    }
}

/// The site-list gauges of a node's `/metrics`, off the path's snapshot.
pub(crate) fn render_sitelist(r: &mut Registry, node: &[(&str, &str)], stats: &SiteListStats) {
    r.set_gauge(
        "wcc_sitelist_entries",
        "Live site-list entries (granted leases / registrations).",
        node,
        stats.total_entries,
    );
    r.set_gauge(
        "wcc_sitelist_tracked_documents",
        "Documents with a non-empty site list.",
        node,
        stats.tracked_documents,
    );
    r.set_gauge(
        "wcc_sitelist_max_list_len",
        "Longest site list.",
        node,
        stats.max_list_len,
    );
    r.set_gauge(
        "wcc_sitelist_storage_bytes",
        "Estimated site-list memory.",
        node,
        stats.storage.as_u64(),
    );
}
