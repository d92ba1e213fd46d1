//! Just enough HTTP/1.1: one request per connection, close after the
//! response. Dependency-free by design — the daemon's protocol surface
//! is three endpoints with small JSON bodies, and `std::net` plus a
//! hand parser keeps the whole transport auditable.

use crate::error::ServeError;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum bytes of request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted `Content-Length`.
const MAX_BODY: usize = 1024 * 1024;
/// Time the whole request, head and body, has to arrive. One budget per
/// request rather than a timeout per read: a client trickling a byte
/// just inside a per-read timeout could otherwise hold a worker for
/// hours.
const REQUEST_BUDGET: Duration = Duration::from_secs(5);

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client per spec).
    pub method: String,
    /// The request target, e.g. `/query`.
    pub target: String,
    /// The body, when `Content-Length` said there was one.
    pub body: Vec<u8>,
}

/// Reads one request off the stream. Malformed or oversized input maps
/// to [`ServeError::BadRequest`]; transport failures, and a request
/// still incomplete after [`REQUEST_BUDGET`], to [`ServeError::Io`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ServeError> {
    read_request_within(stream, REQUEST_BUDGET)
}

fn read_request_within(stream: &mut TcpStream, budget: Duration) -> Result<Request, ServeError> {
    parse_request(&mut BufReader::new(Budgeted {
        stream,
        deadline: Instant::now() + budget,
    }))
}

/// Parses one request's head and body out of `stream`; [`read_request`]
/// hands it the socket under its time budget.
pub(crate) fn parse_request(stream: &mut impl BufRead) -> Result<Request, ServeError> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // Byte-at-a-time out of the buffer until the blank line: simple,
    // and the head is tiny. The body below is read in bulk.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(ServeError::BadRequest("request head too large".into()));
        }
        match stream.read(&mut byte)? {
            0 => {
                return Err(ServeError::BadRequest(
                    "connection closed mid-request".into(),
                ))
            }
            _ => head.push(byte[0]),
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| ServeError::BadRequest("request head is not utf-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), t.to_string()),
        _ => {
            return Err(ServeError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::BadRequest("bad content-length".into()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(ServeError::BadRequest("request body too large".into()));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request {
        method,
        target,
        body,
    })
}

/// A socket whose reads share one deadline: each read waits at most
/// the time left, and none starts once it has passed.
struct Budgeted<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for Budgeted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request not received within its time budget",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Writes a JSON response and flushes. `extra_headers` is for
/// `Retry-After` and friends.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> Result<Request, ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = read_request(&mut server_side);
        let _keep_alive = client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            round_trip(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/query");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_request_line() {
        let err = round_trip(b"NONSENSE\r\n\r\n").unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let err =
            round_trip(b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    }

    #[test]
    fn trickling_client_is_cut_off_within_the_budget() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let client_done = done.clone();
        // One byte every 50 ms, well inside any per-read timeout, and
        // never the blank line that ends the head.
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            while !client_done.load(Ordering::Acquire) && s.write_all(b"G").is_ok() {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let budget = Duration::from_millis(200);
        let started = Instant::now();
        let err = read_request_within(&mut server_side, budget).unwrap_err();
        let took = started.elapsed();
        done.store(true, Ordering::Release);
        client.join().unwrap();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert!(
            took < budget + Duration::from_millis(100),
            "cut off after {took:?} on a {budget:?} budget"
        );
    }
}
