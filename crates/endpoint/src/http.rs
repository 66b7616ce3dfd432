//! A deliberately small HTTP/1.1 request parser and response writer —
//! just enough for the SPARQL protocol endpoints, with no external
//! dependencies.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/sparql`.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Lower-cased header map.
    pub headers: BTreeMap<String, String>,
    /// Request body (POST).
    pub body: String,
}

impl Request {
    /// The first query parameter with this name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// Whether the client asked for the given content type.
    pub fn accepts(&self, content_type: &str) -> bool {
        self.headers
            .get("accept")
            .is_some_and(|a| a.contains(content_type))
    }
}

/// Percent-decode a URL component (also turning `+` into a space).
///
/// Decoding walks raw bytes and never slices the input `&str`: a `%`
/// followed by a multibyte UTF-8 character (`%é`) or a truncated or
/// malformed escape (`%`, `%4`, `%zz`) passes through verbatim instead
/// of panicking on a non-char-boundary slice. Escapes that assemble
/// into invalid UTF-8 are replaced lossily at the end.
pub fn url_decode(s: &str) -> String {
    fn hex_val(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hi = bytes.get(i + 1).copied().and_then(hex_val);
                let lo = bytes.get(i + 2).copied().and_then(hex_val);
                match (hi, lo) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi << 4) | lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode a URL component.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn parse_query_string(qs: &str) -> BTreeMap<String, String> {
    qs.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(kv), String::new()),
        })
        .collect()
}

/// Parser bounds. A SPARQL endpoint only ever sees short requests, so
/// anything past these limits is rejected as malformed rather than
/// buffered: a hostile or broken client must not make the worker
/// allocate unbounded memory or hang on a body that never arrives.
/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 16 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Largest accepted request body (a query posted as a form).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

fn bad_request(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `read_line` with a hard cap: a line longer than `max` is an error,
/// not a growing buffer.
fn read_bounded_line(reader: &mut impl BufRead, max: usize, what: &str) -> io::Result<String> {
    let mut line = String::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(line); // EOF
        }
        let take = available.len().min(max + 1 - line.len());
        let chunk = &available[..take];
        let newline = chunk.iter().position(|&b| b == b'\n');
        let used = newline.map_or(take, |i| i + 1);
        line.push_str(&String::from_utf8_lossy(&chunk[..used]));
        reader.consume(used);
        if newline.is_some() {
            return Ok(line);
        }
        if line.len() > max {
            return Err(bad_request(format!("{what} exceeds {max} bytes")));
        }
    }
}

/// Read and parse one request from a stream.
///
/// Malformed input — a missing or non-numeric `Content-Length`, a length
/// beyond `MAX_BODY` (4 MiB), too many or too long headers, or a body shorter
/// than declared — yields an `InvalidData` error the server answers with
/// `400 Bad Request`. The parser never allocates more than the declared
/// (validated) body size.
pub fn parse_request(stream: &mut impl Read) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let line = read_bounded_line(&mut reader, MAX_REQUEST_LINE, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad_request("empty request line"))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| bad_request("missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query_string(q)),
        None => (target.to_owned(), BTreeMap::new()),
    };

    let mut headers = BTreeMap::new();
    loop {
        let header = read_bounded_line(&mut reader, MAX_HEADER_LINE, "header line")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad_request(format!("more than {MAX_HEADERS} headers")));
        }
        if let Some((k, v)) = header.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_owned());
        }
    }

    let mut body = String::new();
    let declares_body = matches!(method.as_str(), "POST" | "PUT" | "PATCH");
    match headers.get("content-length") {
        Some(value) => {
            let len = value
                .parse::<usize>()
                .map_err(|_| bad_request(format!("invalid Content-Length {value:?}")))?;
            if len > MAX_BODY {
                return Err(bad_request(format!(
                    "Content-Length {len} exceeds the {MAX_BODY}-byte limit"
                )));
            }
            let mut buf = vec![0u8; len];
            reader
                .read_exact(&mut buf)
                .map_err(|_| bad_request(format!("body shorter than Content-Length {len}")))?;
            body = String::from_utf8_lossy(&buf).into_owned();
        }
        None if declares_body => {
            return Err(bad_request(format!("{method} without Content-Length")));
        }
        None => {}
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// An HTTP response, built fluently:
///
/// ```
/// use provbench_endpoint::Response;
///
/// let r = Response::status(503)
///     .content_type("text/plain")
///     .header("Retry-After", "1")
///     .body("server busy");
/// assert_eq!(r.status, 503);
/// ```
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type.
    pub content_type: String,
    /// Extra headers, in insertion order.
    pub headers: Vec<(String, String)>,
    /// Body.
    pub body: String,
}

impl Response {
    /// Start building a response with the given status code, defaulting
    /// to an empty `text/plain` body.
    pub fn status(status: u16) -> Self {
        Response {
            status,
            content_type: "text/plain".to_owned(),
            headers: Vec::new(),
            body: String::new(),
        }
    }

    /// Set the content type.
    pub fn content_type(mut self, content_type: &str) -> Self {
        self.content_type = content_type.to_owned();
        self
    }

    /// Append a header (besides the automatic `Content-Type`,
    /// `Content-Length` and `Connection`).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Set the body.
    pub fn body(mut self, body: impl Into<String>) -> Self {
        self.body = body.into();
        self
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Serialize the whole response — status line, headers, body — to
    /// one buffer. The server writes a response as a single buffer so a
    /// partial write surfaces as an error it can count, instead of a
    /// silently truncated response on the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        // Writing into a Vec cannot fail.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}; charset=utf-8\r\nContent-Length: {}\r\n",
            self.status,
            self.status_text(),
            self.content_type,
            self.body.len(),
        );
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let _ = write!(out, "Connection: close\r\n\r\n{}", self.body);
        out
    }

    /// Write the response to a stream (one `write_all` of
    /// [`Response::to_bytes`]).
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        stream.write_all(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_codec_roundtrip() {
        let original = "SELECT ?x WHERE { ?x a <http://e/Type> } # 100%";
        let encoded = url_encode(original);
        assert!(!encoded.contains(' '));
        assert_eq!(url_decode(&encoded), original);
        assert_eq!(url_decode("a+b%20c"), "a b c");
        assert_eq!(url_decode("%ZZ"), "%ZZ"); // invalid escapes pass through
    }

    #[test]
    fn url_decode_multibyte_escapes() {
        assert_eq!(url_decode("%C3%A9"), "é");
        assert_eq!(url_decode("%E2%9C%93"), "✓");
        assert_eq!(url_decode("SELECT%20%E2%9C%93"), "SELECT ✓");
        // Unescaped multibyte characters survive decoding around them.
        assert_eq!(url_decode("é%20✓"), "é ✓");
        assert_eq!(url_encode("é ✓"), "%C3%A9+%E2%9C%93");
    }

    #[test]
    fn url_decode_never_panics_on_hostile_input() {
        // `%` directly followed by a multibyte character used to slice
        // the `&str` at a non-char boundary and panic; every such shape
        // must now pass the `%` through and keep the character intact.
        for (input, want) in [
            ("%", "%"),
            ("%4", "%4"),
            ("%zz", "%zz"),
            ("%é", "%é"),
            ("%✓", "%✓"),
            ("%a✓", "%a✓"),
            ("a%é", "a%é"),
            ("%%41", "%A"),
            ("%C3%A9%", "é%"),
            ("%+4", "% 4"), // `+` is not a hex digit, even for from_str_radix
        ] {
            assert_eq!(url_decode(input), want, "input {input:?}");
        }
        // An escape assembling invalid UTF-8 is replaced, not a panic.
        assert_eq!(url_decode("%FF"), "\u{FFFD}");
    }

    #[test]
    fn query_string_roundtrips_plus_escapes_and_non_ascii() {
        // `+` is a space, `%2B` is a literal plus, and multibyte
        // percent-escapes must reach the consumer as valid UTF-8.
        let params = parse_query_string("query=SELECT%20%E2%9C%93&op=a%2Bb+c");
        assert_eq!(
            params.get("query").map(String::as_str),
            Some("SELECT ✓"),
            "{params:?}"
        );
        assert_eq!(params.get("op").map(String::as_str), Some("a+b c"));
        // Encode → decode is the identity for arbitrary text.
        for original in ["SELECT ✓", "a+b c", "100% é", "%", "%4"] {
            assert_eq!(url_decode(&url_encode(original)), original);
        }
    }

    #[test]
    fn request_with_hostile_escapes_still_parses() {
        for q in ["%C3%A9", "%", "%4", "%zz", "%E2%9C", "a%E2"] {
            let raw = format!("GET /sparql?query={q} HTTP/1.1\r\nHost: x\r\n\r\n");
            let req = parse_request(&mut raw.as_bytes())
                .unwrap_or_else(|e| panic!("query {q:?} rejected: {e}"));
            assert!(req.param("query").is_some(), "query {q:?} lost");
        }
    }

    #[test]
    fn parses_get_with_query() {
        let raw = "GET /sparql?query=SELECT+%3Fx&format=json HTTP/1.1\r\nHost: x\r\nAccept: application/sparql-results+json\r\n\r\n";
        let req = parse_request(&mut raw.as_bytes()).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/sparql");
        assert_eq!(req.param("query"), Some("SELECT ?x"));
        assert_eq!(req.param("format"), Some("json"));
        assert!(req.accepts("application/sparql-results+json"));
    }

    #[test]
    fn parses_post_with_body() {
        let body = "query=SELECT+%2A+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D";
        let raw = format!(
            "POST /sparql HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse_request(&mut raw.as_bytes()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, body);
    }

    #[test]
    fn post_without_content_length_is_rejected() {
        let raw = "POST /sparql HTTP/1.1\r\nHost: x\r\n\r\nquery=1";
        let err = parse_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("Content-Length"), "{err}");
    }

    #[test]
    fn malformed_content_length_is_rejected() {
        for bad in ["abc", "-1", "1e3", "99999999999999999999999999"] {
            let raw = format!("POST /sparql HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nx");
            let err = parse_request(&mut raw.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
        }
    }

    #[test]
    fn oversized_content_length_is_rejected_without_allocating() {
        let raw = format!(
            "POST /sparql HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn truncated_body_is_an_error_not_a_hang() {
        let raw = "POST /sparql HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort";
        let err = parse_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shorter"), "{err}");
    }

    #[test]
    fn header_count_is_bounded() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS + 1 {
            raw.push_str(&format!("X-Pad-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = parse_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("headers"), "{err}");
        // Exactly at the limit is fine.
        let mut ok = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            ok.push_str(&format!("X-Pad-{i}: v\r\n"));
        }
        ok.push_str("\r\n");
        assert!(parse_request(&mut ok.as_bytes()).is_ok());
    }

    #[test]
    fn header_and_request_lines_are_bounded() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let err = parse_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let raw = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "b".repeat(MAX_HEADER_LINE)
        );
        let err = parse_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn get_without_content_length_still_parses() {
        let raw = "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = parse_request(&mut raw.as_bytes()).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn response_serialization() {
        let mut out = Vec::new();
        Response::status(200).body("hi").write_to(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 2"));
        assert!(s.ends_with("hi"));
    }

    #[test]
    fn builder_headers_and_status_lines() {
        let mut out = Vec::new();
        Response::status(503)
            .content_type("text/plain")
            .header("Retry-After", "1")
            .body("busy")
            .write_to(&mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{s}");
        assert!(s.contains("Retry-After: 1\r\n"));
        assert!(s.ends_with("busy"));

        let mut out = Vec::new();
        Response::status(408).write_to(&mut out).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("HTTP/1.1 408 Request Timeout\r\n"));
    }
}
