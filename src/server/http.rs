//! A hand-rolled HTTP/1.1 wire layer over [`std::net::TcpStream`].
//!
//! Deliberately minimal, matching the repo's offline-shims constraint (no
//! new crates): request parsing with bounded header/body sizes and
//! `Content-Length`-only request framing (a request `Transfer-Encoding` or
//! two differing lengths is a 400), fixed `Content-Length` responses, and
//! chunked transfer encoding for the NDJSON event stream. Every connection
//! is single-request (`Connection: close`), which keeps the server's
//! shutdown story exact — joining the connection threads is joining the
//! in-flight requests. A whole request, head and body, must arrive before
//! one deadline, so a peer that trickles bytes cannot hold its connection
//! (and with it the server's drain) open.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Parsed request headers grow at most this large.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Request bodies (scenario specs) grow at most this large.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Why a request could not be read off the socket.
#[derive(Debug)]
pub enum ReadError {
    /// The peer vanished or the socket failed: nothing to respond to.
    Io(std::io::Error),
    /// The bytes are not HTTP/1.1 we understand → respond 400.
    BadRequest(String),
    /// Headers or body exceed the fixed bounds → respond 413.
    TooLarge(String),
}

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request path, query string stripped.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one request off the stream. `Ok(None)` means the peer closed the
/// connection cleanly before sending anything.
///
/// The whole request, head and body, must arrive within `timeout`: before
/// each read the socket's timeout is set to the time left, so a peer that
/// trickles a byte every few seconds cannot hold the connection (and the
/// server's drain) open.
pub fn read_request(
    stream: &mut TcpStream,
    timeout: Duration,
) -> Result<Option<Request>, ReadError> {
    let deadline = Instant::now() + timeout;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ReadError::TooLarge(format!(
                "request headers exceed {MAX_HEADER_BYTES} bytes"
            )));
        }
        match read_before(stream, deadline, &mut chunk, "request headers") {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => {
                return Err(ReadError::BadRequest(
                    "connection closed mid-headers".into(),
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(ReadError::Io(e)),
        }
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ReadError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::BadRequest("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::BadRequest(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // The body is framed by Content-Length alone: a chunked (or any other
    // transfer-coded) body, or two lengths that disagree, would leave the
    // server and an intermediary reading different requests.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ReadError::BadRequest(
            "Transfer-Encoding is not supported; frame the body with Content-Length".into(),
        ));
    }
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v
            .parse::<usize>()
            .map_err(|_| ReadError::BadRequest(format!("invalid Content-Length {v:?}")))?;
        if content_length.is_some_and(|m| m != n) {
            return Err(ReadError::BadRequest(
                "conflicting Content-Length headers".into(),
            ));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge(format!(
            "request body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        match read_before(stream, deadline, &mut chunk, "request body") {
            Ok(0) => {
                return Err(ReadError::BadRequest(format!(
                    "connection closed after {} of {content_length} body bytes",
                    body.len()
                )))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    body.truncate(content_length);
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// One read that must return by `deadline`: the socket's timeout is set to
/// the time left, and a deadline already past is a timeout of its own.
fn read_before(
    stream: &mut TcpStream,
    deadline: Instant,
    chunk: &mut [u8],
    what: &str,
) -> io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("{what} incomplete at the deadline"),
        ));
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(chunk)
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// A fixed-length response, written in one shot with `Connection: close`.
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(status)
            .header("Content-Type", "text/plain; charset=utf-8")
            .body(body.into().into_bytes())
    }

    /// An `application/json` response serialized from `json` (the repo's
    /// deterministic pretty printer, same as every report artifact).
    pub fn json(status: u16, json: &crate::json::Json) -> Self {
        Response::new(status)
            .header("Content-Type", "application/json")
            .body(json.pretty().into_bytes())
    }

    /// Add a header.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Replace the body.
    pub fn body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// The status code (for access logging).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Serialize head + body onto the stream.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.body.len()
        ));
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A chunked-transfer response in progress (the NDJSON event stream):
/// status and headers go out on [`ChunkedStream::start`], each
/// [`ChunkedStream::write_chunk`] is one `len\r\n…\r\n` frame flushed
/// immediately (live streaming, no buffering), and [`ChunkedStream::finish`]
/// writes the terminal zero chunk.
pub struct ChunkedStream<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedStream<'a> {
    /// Write the response head and switch the connection to chunked frames.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedStream { stream })
    }

    /// Write one chunk (skipped when empty — an empty chunk would
    /// terminate the stream).
    pub fn write_chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.stream
            .write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the stream cleanly.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}
