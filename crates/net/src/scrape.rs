//! The `/metrics` endpoint's raw-HTTP plumbing, shared by every node.
//!
//! The reply deliberately stays outside the [`wcc_proto`] vocabulary: a
//! scrape is observability traffic, answered with one plain `HTTP/1.0`
//! response and a closed connection, exactly what a generic Prometheus
//! scraper (or `curl --http1.0`) expects.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use wcc_proto::{encode, HttpMsg};

/// Prometheus text exposition format version advertised in `Content-Type`.
pub(crate) const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Wraps a rendered exposition in a one-shot `HTTP/1.0 200` response.
pub(crate) fn metrics_response(body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(b"HTTP/1.0 200 OK\r\n");
    let _ = write!(out, "Content-Type: {EXPOSITION_CONTENT_TYPE}\r\n");
    let _ = write!(out, "Content-Length: {}\r\n\r\n", body.len());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Fetches the Prometheus exposition from the node listening at `addr`
/// (an origin/parent service port, or a proxy's
/// [`client_addr`](crate::NetProxy::client_addr)) and returns the body.
///
/// # Errors
///
/// Returns socket errors, or `InvalidData` if the reply is not a well-formed
/// HTTP response.
#[expect(
    clippy::disallowed_methods,
    reason = "a scrape runs on its caller's thread, never a node's"
)]
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&encode(&HttpMsg::MetricsGet))?;
    stream.flush()?;
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "missing header terminator")
    })?;
    if !head.starts_with("HTTP/1.0 200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected status: {}", head.lines().next().unwrap_or("")),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_is_parseable_http() {
        let body = "# HELP x y\n# TYPE x counter\nx 1\n";
        let bytes = metrics_response(body);
        let text = String::from_utf8(bytes).unwrap();
        let (head, got) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.0 200 OK"));
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(got, body);
    }
}
