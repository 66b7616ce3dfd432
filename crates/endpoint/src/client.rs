//! A small retrying HTTP client for a served endpoint.
//!
//! The transport mirror of the server's failure model: connection
//! errors and `503 Service Unavailable` are transient, so an
//! *idempotent* request ([`Client::get`]) retries them with jittered
//! exponential backoff, honoring the server's `Retry-After` hint. A
//! non-idempotent request ([`Client::post`]) is sent exactly once —
//! retrying a write the server may already have processed is how
//! duplicates are born. `provbench query --endpoint URL` and the CI
//! serve-smoke job both go through this client.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// Response headers the client will buffer before giving up.
const MAX_RESPONSE_HEADERS: usize = 256;

/// Retry and timeout knobs for a [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Total attempts for an idempotent request (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep — also caps an honored
    /// `Retry-After`, so a hostile or confused server cannot park the
    /// client for minutes.
    pub max_backoff: Duration,
    /// Per-attempt connect/read/write timeout.
    pub timeout: Duration,
    /// Seed for the backoff jitter stream (deterministic in tests).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 4,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            timeout: Duration::from_secs(10),
            seed: 42,
        }
    }
}

/// A parsed HTTP response from the endpoint.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A request that failed after exhausting its attempts.
#[derive(Debug)]
pub struct ClientError {
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The last transport error observed.
    pub message: String,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "request failed after {} attempt{}: {}",
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

impl std::error::Error for ClientError {}

/// A client bound to one endpoint base URL (`http://host:port`).
#[derive(Debug)]
pub struct Client {
    authority: String,
    config: ClientConfig,
    /// xorshift64* state for backoff jitter.
    rng: Mutex<u64>,
}

impl Client {
    /// A client with default [`ClientConfig`]. The URL must be plain
    /// `http://host:port` (this is a loopback/CI tool, not a browser).
    pub fn new(base_url: &str) -> Result<Self, String> {
        Client::with_config(base_url, ClientConfig::default())
    }

    /// A client with explicit retry/timeout knobs.
    pub fn with_config(base_url: &str, config: ClientConfig) -> Result<Self, String> {
        let rest = base_url
            .strip_prefix("http://")
            .ok_or_else(|| format!("endpoint URL {base_url:?} must start with http://"))?;
        let authority = rest.split('/').next().unwrap_or("");
        if authority.is_empty() {
            return Err(format!("endpoint URL {base_url:?} has no host"));
        }
        let authority = if authority.contains(':') {
            authority.to_owned()
        } else {
            format!("{authority}:80")
        };
        let rng = Mutex::new(config.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        Ok(Client {
            authority,
            config,
            rng,
        })
    }

    /// GET a path (with query string), retrying transient failures.
    ///
    /// Retried: connection errors classified as transient (refused,
    /// reset, broken pipe, timeouts, unexpected EOF) and `503`
    /// responses, whose `Retry-After` is honored as a floor on the
    /// backoff (capped by `max_backoff`). Anything else — including a
    /// `503` on the final attempt — is returned to the caller as-is:
    /// GET is idempotent, so a retry can never double-apply work.
    pub fn get(&self, path_and_query: &str) -> Result<ClientResponse, ClientError> {
        let max = self.config.max_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 1..=max {
            match self.attempt("GET", path_and_query, None) {
                Ok(response) if response.status == 503 && attempt < max => {
                    let retry_after = response
                        .header("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(Duration::from_secs);
                    last_error = "server answered 503".into();
                    std::thread::sleep(self.backoff(attempt, retry_after));
                }
                Ok(response) => return Ok(response),
                Err(e) if attempt < max && transient(&e) => {
                    last_error = e.to_string();
                    std::thread::sleep(self.backoff(attempt, None));
                }
                Err(e) => {
                    return Err(ClientError {
                        attempts: attempt,
                        message: e.to_string(),
                    })
                }
            }
        }
        Err(ClientError {
            attempts: max,
            message: last_error,
        })
    }

    /// POST a body to a path — exactly one attempt, never retried: the
    /// server may have processed a request whose response we lost, and
    /// POST is not idempotent.
    pub fn post(
        &self,
        path: &str,
        content_type: &str,
        body: &str,
    ) -> Result<ClientResponse, ClientError> {
        self.attempt("POST", path, Some((content_type, body)))
            .map_err(|e| ClientError {
                attempts: 1,
                message: e.to_string(),
            })
    }

    /// One wire-level request/response exchange.
    fn attempt(
        &self,
        method: &str,
        target: &str,
        body: Option<(&str, &str)>,
    ) -> io::Result<ClientResponse> {
        let addr = self.authority.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                "endpoint address resolved to nothing",
            )
        })?;
        let mut stream = TcpStream::connect_timeout(&addr, self.config.timeout)?;
        stream.set_read_timeout(Some(self.config.timeout))?;
        stream.set_write_timeout(Some(self.config.timeout))?;
        match body {
            Some((content_type, body)) => write!(
                stream,
                "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Type: {content_type}\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                self.authority,
                body.len(),
            )?,
            None => write!(
                stream,
                "{method} {target} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
                self.authority,
            )?,
        }
        stream.flush()?;
        parse_response(stream)
    }

    /// Jittered exponential backoff before the next attempt: the
    /// doubling series scaled by a random factor in [0.5, 1.0), floored
    /// by the server's `Retry-After` when given, capped by
    /// `max_backoff`.
    fn backoff(&self, attempt: u32, retry_after: Option<Duration>) -> Duration {
        let exp = self
            .config
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let jittered = exp.mul_f64(0.5 + self.rand01() * 0.5);
        let floored = match retry_after {
            Some(hint) => jittered.max(hint),
            None => jittered,
        };
        floored.min(self.config.max_backoff)
    }

    /// One xorshift64* draw mapped to [0, 1).
    fn rand01(&self) -> f64 {
        let draw = provbench_core::xorshift64_star(
            &mut self.rng.lock().unwrap_or_else(|e| e.into_inner()),
        );
        (draw >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Whether a transport error is worth retrying (for an idempotent
/// request). Connection-level failures are; protocol-level ones
/// (`InvalidData`: the server spoke, just not HTTP) are not.
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::Interrupted
    )
}

fn bad_response(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parse one HTTP/1.x response. The endpoint always answers
/// `Connection: close`, so "no Content-Length" means read to EOF.
fn parse_response(stream: TcpStream) -> io::Result<ClientResponse> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let status = line
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| line.strip_prefix("HTTP/1.0 "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad_response(format!("malformed status line {line:?}")))?;

    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the response headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if headers.len() >= MAX_RESPONSE_HEADERS {
            return Err(bad_response("too many response headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }

    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map(|(_, value)| {
            value
                .parse::<usize>()
                .map_err(|_| bad_response(format!("invalid Content-Length {value:?}")))
        })
        .transpose()?;
    let body = match content_length {
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("response truncated before its {len}-byte body finished"),
                )
            })?;
            body
        }
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_http_urls() {
        assert!(Client::new("https://host:1").is_err());
        assert!(Client::new("http://").is_err());
        let client = Client::new("http://127.0.0.1:3030/sparql").unwrap();
        assert_eq!(client.authority, "127.0.0.1:3030");
        let client = Client::new("http://localhost").unwrap();
        assert_eq!(client.authority, "localhost:80");
    }

    #[test]
    fn backoff_grows_jitters_and_caps() {
        let client = Client::with_config(
            "http://127.0.0.1:1",
            ClientConfig {
                base_backoff: Duration::from_millis(100),
                max_backoff: Duration::from_millis(450),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let first = client.backoff(1, None);
        assert!(first >= Duration::from_millis(50) && first < Duration::from_millis(100));
        let second = client.backoff(2, None);
        assert!(second >= Duration::from_millis(100) && second < Duration::from_millis(200));
        // The exponent keeps growing but the cap holds…
        assert_eq!(client.backoff(10, None), Duration::from_millis(450));
        // …including over a large Retry-After hint.
        assert_eq!(
            client.backoff(1, Some(Duration::from_secs(3600))),
            Duration::from_millis(450)
        );
        // A modest hint floors the jittered value.
        assert!(client.backoff(1, Some(Duration::from_millis(200))) >= Duration::from_millis(200));
    }

    #[test]
    fn same_seed_same_jitter() {
        let a = Client::new("http://127.0.0.1:1").unwrap();
        let b = Client::new("http://127.0.0.1:1").unwrap();
        for attempt in 1..5 {
            assert_eq!(a.backoff(attempt, None), b.backoff(attempt, None));
        }
    }

    #[test]
    fn connection_refused_is_transient_and_reported() {
        // Nothing listens on a freshly bound-then-dropped port; the
        // client retries (cheap backoff) and reports the attempt count.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let client = Client::with_config(
            &format!("http://{addr}"),
            ClientConfig {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                timeout: Duration::from_millis(500),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let err = client.get("/healthz").unwrap_err();
        assert_eq!(err.attempts, 2, "{err}");
    }
}
