//! Document naming and metadata.

use crate::{ByteSize, ClientId, ServerId, SimTime};
use core::fmt;
use std::sync::Arc;

/// The name of a Web document: the origin server it lives on plus a dense
/// document index on that server.
///
/// The evaluation traces address at most a few thousand distinct documents
/// per server, so a compact `(server, doc)` pair is both faster and smaller
/// than string paths; [`Url::path`] renders the conventional string form and
/// the wire codec in `wcc-proto` parses it back.
///
/// # Examples
///
/// ```
/// use wcc_types::{ServerId, Url};
///
/// let url = Url::new(ServerId::new(0), 42);
/// assert_eq!(url.path(), "/doc/42");
/// assert_eq!(url.doc(), 42);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Url {
    server: ServerId,
    doc: u32,
}

impl Url {
    /// Creates a URL naming document `doc` on `server`.
    pub const fn new(server: ServerId, doc: u32) -> Self {
        Url { server, doc }
    }

    /// The origin server this URL belongs to.
    pub const fn server(self) -> ServerId {
        self.server
    }

    /// The dense document index on the origin server.
    pub const fn doc(self) -> u32 {
        self.doc
    }

    /// Writes the conventional string path of this document into `out`
    /// without allocating — the hot-path form of [`Url::path`].
    ///
    /// Formatting a path happens once per simulated request (audit records,
    /// wire frames, log lines), so hot callers format into a reused buffer
    /// or an existing formatter instead of materialising a fresh `String`
    /// per call.
    ///
    /// ```
    /// use wcc_types::{ServerId, Url};
    ///
    /// let url = Url::new(ServerId::new(0), 42);
    /// let mut buf = String::new();
    /// url.write_path(&mut buf).unwrap();
    /// assert_eq!(buf, "/doc/42");
    /// ```
    pub fn write_path<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        write!(out, "/doc/{}", self.doc)
    }

    /// The conventional string path of this document, as a fresh `String`.
    ///
    /// Cold-path convenience over [`Url::write_path`]; inside the simulator
    /// crates prefer `write_path` into a reused buffer (the `url-path-alloc`
    /// lint flags `.path()` there).
    pub fn path(self) -> String {
        let mut out = String::with_capacity(8);
        self.write_path(&mut out)
            .expect("String write is infallible");
        out
    }

    /// A [`fmt::Display`] adapter rendering just the path (`/doc/N`), so the
    /// path can ride an existing `write!` into a shared buffer — the
    /// format-string-friendly face of [`Url::write_path`].
    ///
    /// ```
    /// use wcc_types::{ServerId, Url};
    ///
    /// let url = Url::new(ServerId::new(2), 7);
    /// assert_eq!(format!("GET {} HTTP/1.0", url.path_display()), "GET /doc/7 HTTP/1.0");
    /// ```
    pub const fn path_display(self) -> UrlPath {
        UrlPath(self)
    }

    /// Parses the string form produced by [`Url::path`], given the owning
    /// server.
    pub fn from_path(server: ServerId, path: &str) -> Option<Url> {
        Url::from_path_ascii(server, path.as_bytes())
    }

    /// [`Url::from_path`] on bytes: `/doc/` and a `u32` in decimal.
    pub fn from_path_ascii(server: ServerId, path: &[u8]) -> Option<Url> {
        let doc = crate::parse_decimal(path.strip_prefix(b"/doc/")?)?;
        Some(Url::new(server, doc))
    }

    /// The per-real-client scoped cache key the paper's proxies use: "if
    /// client x requests document url0, the proxy puts the reply from the Web
    /// server as url0@x in its cache", so that co-located real clients do not
    /// share cached copies.
    pub const fn scoped(self, client: ClientId) -> ScopedUrl {
        ScopedUrl { url: self, client }
    }
}

/// The path-only [`fmt::Display`] view of a [`Url`], made by
/// [`Url::path_display`]. Formatting it is equivalent to
/// [`Url::write_path`] and allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UrlPath(Url);

impl fmt::Display for UrlPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write_path(f)
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http://{}", self.server)?;
        self.write_path(f)
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Url({}/{})", self.server, self.doc)
    }
}

/// A cache key scoping a [`Url`] to one real client, mirroring the paper's
/// `url@clientid` trick for simulating unshared per-client caches on a
/// shared pseudo-client proxy.
///
/// # Examples
///
/// ```
/// use wcc_types::{ClientId, ServerId, Url};
///
/// let url = Url::new(ServerId::new(0), 7);
/// let key = url.scoped(ClientId::from_raw(99));
/// assert_eq!(key.url(), url);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScopedUrl {
    url: Url,
    client: ClientId,
}

impl ScopedUrl {
    /// The underlying document URL.
    pub const fn url(self) -> Url {
        self.url
    }

    /// The real client this scoped entry belongs to.
    pub const fn client(self) -> ClientId {
        self.client
    }
}

impl fmt::Display for ScopedUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.url, self.client)
    }
}

impl fmt::Debug for ScopedUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScopedUrl({self})")
    }
}

/// Metadata describing one version of a document: its size and the instant
/// it was last modified.
///
/// A `DocMeta` plays the role of an HTTP response's `Content-Length` +
/// `Last-Modified` headers. Comparing `last_modified` against a cached
/// copy's validator implements `If-Modified-Since`.
///
/// # Examples
///
/// ```
/// use wcc_types::{ByteSize, DocMeta, SimTime};
///
/// let meta = DocMeta::new(ByteSize::from_kib(21), SimTime::from_secs(100));
/// assert!(meta.modified_since(SimTime::from_secs(50)));
/// assert!(!meta.modified_since(SimTime::from_secs(100)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DocMeta {
    size: ByteSize,
    last_modified: SimTime,
}

impl DocMeta {
    /// Creates metadata for a document version.
    pub const fn new(size: ByteSize, last_modified: SimTime) -> Self {
        DocMeta {
            size,
            last_modified,
        }
    }

    /// The document body size.
    pub const fn size(self) -> ByteSize {
        self.size
    }

    /// When this version was created (HTTP `Last-Modified`).
    pub const fn last_modified(self) -> SimTime {
        self.last_modified
    }

    /// The `If-Modified-Since` check: has the document been modified
    /// *strictly after* `validator`?
    pub fn modified_since(self, validator: SimTime) -> bool {
        self.last_modified > validator
    }

    /// The document's age at `now` — the quantity adaptive TTL multiplies
    /// by its update threshold.
    pub fn age_at(self, now: SimTime) -> crate::SimDuration {
        now.saturating_since(self.last_modified)
    }
}

/// An immutable, cheaply clonable document body paired with its metadata —
/// what a `200` reply carries.
///
/// Bodies are shared via [`Arc`] so that the simulator can hand the same
/// bytes to thousands of cache entries without copying. The *accounted*
/// size used for bandwidth and storage is `meta.size()`, which may be larger
/// than `payload.len()` — mirroring the paper's trick of storing documents
/// scaled down by 100× on disk while scaling message-byte accounting back up.
#[derive(Clone)]
pub struct Body {
    meta: DocMeta,
    /// The payload is `bytes[..len]`.
    bytes: Arc<[u8]>,
    len: usize,
}

impl Body {
    /// Creates a body with an explicit payload.
    pub fn new(meta: DocMeta, payload: impl Into<Arc<[u8]>>) -> Self {
        let bytes = payload.into();
        let len = bytes.len();
        Body { meta, bytes, len }
    }

    /// Creates a body whose payload is synthesized (zeroed, scaled down by
    /// `scale`) from the metadata — the simulator's usual path.
    ///
    /// Payloads are all-zero, so bodies of the same length are
    /// indistinguishable ([`PartialEq`] is byte-wise): every payload is a
    /// prefix of one zero buffer per thread, which grows by doubling to the
    /// longest length asked for, keeping the reply hot path off the global
    /// allocator and the buffers' memory that of the longest body.
    pub fn synthetic(meta: DocMeta, scale: u64) -> Self {
        use std::cell::RefCell;
        thread_local! {
            static ZEROED: RefCell<Arc<[u8]>> = RefCell::new(Arc::new([]));
        }
        let len = meta.size().as_u64().checked_div(scale).unwrap_or(0) as usize;
        let bytes = ZEROED.with(|zeroed| {
            let mut zeroed = zeroed.borrow_mut();
            if zeroed.len() < len {
                *zeroed = vec![0u8; len.next_power_of_two()].into();
            }
            zeroed.clone()
        });
        Body { meta, bytes, len }
    }

    /// The metadata (accounted size + last-modified validator).
    pub const fn meta(&self) -> DocMeta {
        self.meta
    }

    /// The stored payload bytes (possibly scaled down).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Body")
            .field("meta", &self.meta)
            .field("payload", &self.payload())
            .finish()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta && self.payload() == other.payload()
    }
}

impl Eq for Body {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_path_round_trip() {
        let s = ServerId::new(1);
        let u = Url::new(s, 123);
        assert_eq!(Url::from_path(s, &u.path()), Some(u));
        assert_eq!(Url::from_path(s, "/nope"), None);
        assert_eq!(Url::from_path(s, "/doc/xyz"), None);
    }

    #[test]
    fn scoped_urls_distinguish_clients() {
        let u = Url::new(ServerId::new(0), 1);
        let a = u.scoped(ClientId::from_raw(1));
        let b = u.scoped(ClientId::from_raw(2));
        assert_ne!(a, b);
        assert_eq!(a.url(), b.url());
        assert_eq!(a.to_string(), "http://server0/doc/1@0.0.0.1");
    }

    #[test]
    fn ims_semantics_are_strictly_after() {
        let meta = DocMeta::new(ByteSize::from_bytes(10), SimTime::from_secs(5));
        assert!(meta.modified_since(SimTime::from_secs(4)));
        assert!(!meta.modified_since(SimTime::from_secs(5)));
        assert!(!meta.modified_since(SimTime::from_secs(6)));
    }

    #[test]
    fn age_accumulates() {
        let meta = DocMeta::new(ByteSize::from_bytes(1), SimTime::from_secs(100));
        assert_eq!(
            meta.age_at(SimTime::from_secs(150)),
            crate::SimDuration::from_secs(50)
        );
        // Clock before the mtime clamps to zero rather than underflowing.
        assert_eq!(
            meta.age_at(SimTime::from_secs(50)),
            crate::SimDuration::ZERO
        );
    }

    #[test]
    fn synthetic_body_scales_payload() {
        let meta = DocMeta::new(ByteSize::from_kib(2), SimTime::ZERO);
        let body = Body::synthetic(meta, 100);
        assert_eq!(body.payload().len(), 20);
        assert_eq!(body.meta().size().as_u64(), 2048);
        let unscaled = Body::synthetic(meta, 1);
        assert_eq!(unscaled.payload().len(), 2048);
        let zero = Body::synthetic(meta, 0);
        assert_eq!(zero.payload().len(), 0);
    }
}
