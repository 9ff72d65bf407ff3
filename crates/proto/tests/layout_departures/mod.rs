// The frames at the edge of the wire decoder's layout pass, shared by the
// unit tests in `src/zero.rs` (which include this file) and by
// `wire_proptest.rs` (which holds them to the owned reference decoder).

/// A `GET` as the encoder writes it.
pub const LAYOUT_GET: &str =
    "GET /doc/5 HTTP/1.0\r\nHost: server1\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 7\r\nDate: 9\r\n\r\n";

/// A `200` as the encoder writes it, its `X-Size` at the document size cap.
pub const LAYOUT_200: &str = "HTTP/1.0 200 OK\r\nHost: server1\r\nContent-Location: /doc/5\r\nX-Client: 1.2.3.4\r\nX-Request-Id: 7\r\nLast-Modified: 3\r\nX-Size: 16777216\r\nContent-Length: 4\r\n\r\nbody";

/// Frames one departure away from [`LAYOUT_GET`] or [`LAYOUT_200`], and a
/// `/metrics` scrape as curl sends it, each named: the layout pass declines
/// every one, so the rule-by-rule reader reads it.
pub fn layout_departures() -> Vec<(&'static str, Vec<u8>)> {
    let get = |from: &str, to: &str| LAYOUT_GET.replacen(from, to, 1).into_bytes();
    let reply = |from: &str, to: &str| LAYOUT_200.replacen(from, to, 1).into_bytes();
    let cut = LAYOUT_200.len() - 2;
    vec![
        ("a name in lower case", get("X-Client", "x-client")),
        ("a number with a sign", get("Id: 7", "Id: +7")),
        ("a number with leading zeros", get("Id: 7", "Id: 007")),
        ("a space before the line end", get("Date: 9", "Date: 9 ")),
        ("a bare line feed", get("server1\r\n", "server1\n")),
        ("an unknown header", get("\r\n\r\n", "\r\nUser-Agent: t\r\n\r\n")),
        ("a repeated header", get("Date", "X-Request-Id: 8\r\nDate")),
        ("a doc number past u32", get("/doc/5", "/doc/4294967296")),
        ("an X-Size past the cap", reply("16777216", "16777217")),
        ("a 200 cut in its body", LAYOUT_200.as_bytes()[..cut].to_vec()),
        (
            "curl's scrape",
            b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:9100\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n"
                .to_vec(),
        ),
    ]
}
