//! A deliberately small HTTP/1.1 server-side implementation.
//!
//! The daemon needs exactly enough HTTP to serve `curl` and the replay bench:
//! request-line + header parsing, `Content-Length` bodies, keep-alive, and
//! response writing. No chunked encoding, no TLS, no HTTP/2 — requests using
//! features outside this subset get a clean `4xx` rather than undefined
//! behavior, and all inputs are bounded so a malicious peer cannot balloon
//! memory.

use std::io::{BufRead, Write};
use std::time::Instant;

/// Request line length bound (method + path + version).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Header count bound.
const MAX_HEADERS: usize = 64;
/// Single header line length bound.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Body size bound: far above any real FPCore, far below a memory concern.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as sent).
    pub method: String,
    /// The request path (query strings are not split off; the service routes
    /// on exact paths and path prefixes).
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. [`HttpError::status`] maps each case to
/// the response code the connection handler should send before closing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed or errored mid-request (no response possible).
    ConnectionLost,
    /// Malformed request line or header syntax.
    Malformed(&'static str),
    /// The request exceeded a size bound.
    TooLarge(&'static str),
    /// `Content-Length` missing on a method that requires a body.
    LengthRequired,
    /// The whole request (line + headers + body) took longer to arrive than
    /// the caller's deadline allowed — a slowloris-style dribbling client.
    Timeout,
}

impl HttpError {
    /// The HTTP status code to answer with (`None`: connection already gone).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::ConnectionLost => None,
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::TooLarge(_) => Some((413, "Payload Too Large")),
            HttpError::LengthRequired => Some((411, "Length Required")),
            HttpError::Timeout => Some((408, "Request Timeout")),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionLost => write!(f, "connection lost"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::LengthRequired => write!(f, "content-length required"),
            HttpError::Timeout => write!(f, "request read deadline exceeded"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one line up to CRLF (or bare LF, accepted leniently), bounded in
/// both size and (when a deadline is given) arrival time.
fn read_line(
    stream: &mut impl BufRead,
    bound: usize,
    what: &'static str,
    deadline: Option<Instant>,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(HttpError::Timeout);
        }
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::ConnectionLost);
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| HttpError::Malformed("non-utf8 line"));
                }
                line.push(byte[0]);
                if line.len() > bound {
                    return Err(HttpError::TooLarge(what));
                }
            }
            Err(_) => return Err(HttpError::ConnectionLost),
        }
    }
}

/// Reads one request from the stream. `Ok(None)` means the peer closed the
/// connection cleanly between requests (the normal end of a keep-alive
/// session).
///
/// `deadline` bounds how long the *whole* request (line, headers, body) may
/// take to arrive; a client that dribbles bytes slower than that gets
/// [`HttpError::Timeout`] (408) instead of pinning the reader thread. The
/// check runs between reads, so its granularity is the socket's read timeout:
/// a silent peer is cut by the socket timeout, a dribbling one by this
/// deadline within one socket timeout of it expiring.
///
/// # Errors
///
/// Returns an [`HttpError`]; the caller answers with
/// [`HttpError::status`] if the connection is still writable.
pub fn read_request(
    stream: &mut impl BufRead,
    deadline: Option<Instant>,
) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(stream, MAX_REQUEST_LINE, "request line", deadline)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed("request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("request line"));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    let mut keep_alive = version == "HTTP/1.1";

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let Some(line) = read_line(stream, MAX_HEADER_LINE, "header", deadline)? else {
            return Err(HttpError::ConnectionLost);
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("header count"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| HttpError::Malformed("content-length"))?;
                if n > MAX_BODY {
                    return Err(HttpError::TooLarge("body"));
                }
                content_length = Some(n);
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
        headers.push((name, value));
    }

    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            // Chunked so a dribbled body is still subject to the deadline.
            body.resize(n, 0);
            let mut filled = 0;
            while filled < n {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(HttpError::Timeout);
                }
                let step = (n - filled).min(4096);
                stream
                    .read_exact(&mut body[filled..filled + step])
                    .map_err(|_| HttpError::ConnectionLost)?;
                filled += step;
            }
        }
        None => {
            if method == "POST" || method == "PUT" {
                return Err(HttpError::LengthRequired);
            }
        }
    }

    Ok(Some(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body,
        keep_alive,
    }))
}

/// Writes a response with a JSON (or plain-text) body. `keep_alive` controls
/// the `Connection` header; the body always carries an exact
/// `Content-Length`, so the peer can reuse the connection safely.
/// `extra_headers` (e.g. `Retry-After`) are written verbatim after the
/// standard ones.
///
/// The whole response goes out in a single `write_all`: written piecewise,
/// each keep-alive answer's later segments would wait out the peer's delayed
/// ACK (tens of milliseconds per answer).
///
/// # Errors
///
/// Propagates the underlying socket error.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = Vec::with_capacity(160 + body.len());
    write!(
        response,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(response, "{name}: {value}\r\n")?;
    }
    response.extend_from_slice(b"\r\n");
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// The conventional reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), None)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compile");
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_an_error() {
        assert!(parse("").unwrap().is_none());
        assert_eq!(
            parse("NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed("request line"))
        );
        assert_eq!(
            parse("POST /compile HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"),
            Err(HttpError::TooLarge("body"))
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed("content-length"))
        );
    }

    #[test]
    fn responses_have_exact_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", b"{}", true, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn a_response_is_one_write() {
        /// Counts `write` calls; a response split over several calls would
        /// stall a keep-alive peer on its delayed ACK.
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Counting(Vec::new(), 0);
        write_response(
            &mut out,
            503,
            "Service Unavailable",
            "application/json",
            b"{\"error\":1}",
            true,
            &[("Retry-After", "1".to_string()), ("X-A", "b".to_string())],
        )
        .unwrap();
        assert_eq!(out.1, 1, "headers and body must go out in one write");
        let text = String::from_utf8(out.0).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.ends_with("X-A: b\r\n\r\n{\"error\":1}"));
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "Service Unavailable",
            "application/json",
            b"{}",
            false,
            &[("Retry-After", "3".to_string())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 3\r\n"));
        let headers_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("Retry-After").unwrap() < headers_end);
    }

    #[test]
    fn an_expired_deadline_times_the_request_out() {
        let already_passed = Instant::now() - std::time::Duration::from_millis(1);
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        assert_eq!(
            read_request(&mut BufReader::new(raw.as_bytes()), Some(already_passed)),
            Err(HttpError::Timeout)
        );
        assert_eq!(HttpError::Timeout.status(), Some((408, "Request Timeout")));
    }
}
