//! A small HTTP/1.1 subset: enough to serve and consume the ODR API.
//!
//! Supported: request line + headers + `Content-Length` bodies, response
//! writing, case-insensitive header lookup, and persistent connections:
//! a connection persists per HTTP/1.1 (unless the request says
//! `connection: close`; an HTTP/1.0 request only with `keep-alive`), and
//! pipelined requests are read one after another from the same buffered
//! reader, so they are answered in order. Not supported (deliberately):
//! chunked encoding, TLS — the ODR service is a tiny JSON-over-POST API.

use std::borrow::Cow;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Upper bound on the start line plus header section (DoS guard).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on body size (DoS guard).
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// HTTP request methods the service accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (path + optional query).
    pub target: String,
    /// Headers as received (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The path portion of the target (without query string).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The query portion of the target (after the first `?`), `""` when
    /// the target carries none.
    pub fn query(&self) -> &str {
        self.target.split_once('?').map_or("", |(_, q)| q)
    }

    /// Read one request from a stream. `Ok(None)` means the peer closed the
    /// connection cleanly before sending anything.
    pub fn read_from(stream: impl Read) -> Result<Option<Request>, HttpError> {
        Ok(Request::read_next(&mut BufReader::new(stream))?.map(|(req, _)| req))
    }

    /// Read the next request on a connection. Bytes read past its end (a
    /// pipelined request) stay in `reader` for the next call. The flag
    /// says whether the connection persists after the response: HTTP/1.1
    /// unless `connection: close`, HTTP/1.0 only with `keep-alive`.
    /// `Ok(None)` means the peer closed cleanly before sending anything.
    pub(crate) fn read_next(
        reader: &mut impl BufRead,
    ) -> Result<Option<(Request, bool)>, HttpError> {
        let mut budget = MAX_HEADER_BYTES;
        let line = read_head_line(reader, &mut budget)?;
        if line.is_empty() {
            return Ok(None);
        }
        let mut parts = line.trim_end().split(' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or_else(|| HttpError::bad("unsupported method"))?;
        let target = parts.next().ok_or_else(|| HttpError::bad("missing target"))?.to_owned();
        let version = parts.next().ok_or_else(|| HttpError::bad("missing version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::bad("unsupported version"));
        }
        let http10 = version == "HTTP/1.0";

        let mut headers = Vec::new();
        loop {
            let hline = read_head_line(reader, &mut budget)?;
            let trimmed = hline.trim_end();
            if trimmed.is_empty() {
                break;
            }
            let (name, value) =
                trimmed.split_once(':').ok_or_else(|| HttpError::bad("malformed header"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }

        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| v.parse().map_err(|_| HttpError::bad("bad content-length")))
            .transpose()?
            .unwrap_or(0);
        if length > MAX_BODY_BYTES {
            return Err(HttpError::bad("body too large"));
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).map_err(HttpError::io)?;
        let connection_says = |token: &str| {
            headers
                .iter()
                .filter(|(n, _)| n == "connection")
                .flat_map(|(_, v)| v.split(','))
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        };
        let keep_alive =
            if http10 { connection_says("keep-alive") } else { !connection_says("close") };
        Ok(Some((Request { method, target, headers, body }, keep_alive)))
    }

    /// Serialize for sending (client side).
    pub fn write_to(&self, mut w: impl Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(format!("{} {} HTTP/1.1\r\n", self.method, self.target).as_bytes());
        for (name, value) in &self.headers {
            buf.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        buf.extend_from_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
        buf.extend_from_slice(&self.body);
        w.write_all(&buf)
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type of the body. Responses the server builds borrow a
    /// static string; a parsed response owns what the peer sent.
    pub content_type: Cow<'static, str>,
    /// Additional headers (e.g. `Set-Cookie`). A parsed response keeps
    /// every header but `content-type` and `content-length` here, names
    /// lowercased.
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: Cow::Borrowed("application/json"),
            extra_headers: Vec::new(),
            body: body.into().into(),
        }
    }

    /// 200 with a plain-text body.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: Cow::Borrowed("text/plain"),
            extra_headers: Vec::new(),
            body: body.into().into(),
        }
    }

    /// 200 with an HTML body (the service's front page).
    pub fn html(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: Cow::Borrowed("text/html; charset=utf-8"),
            extra_headers: Vec::new(),
            body: body.into().into(),
        }
    }

    /// Attach an extra header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.to_owned(), value.into()));
        self
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Response {
        let body = crate::Json::obj([("error", crate::Json::Str(message.to_owned()))]);
        Response {
            status,
            content_type: Cow::Borrowed("application/json"),
            extra_headers: Vec::new(),
            body: body.to_string_compact().into(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Serialize onto a stream, announcing that the connection closes.
    pub fn write_to(&self, w: impl Write) -> std::io::Result<()> {
        self.write_with(w, false)
    }

    /// Serialize onto a stream; the `connection` header announces
    /// `keep-alive` or `close`.
    pub(crate) fn write_with(&self, mut w: impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason()).as_bytes());
        buf.extend_from_slice(format!("content-type: {}\r\n", self.content_type).as_bytes());
        buf.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        for (name, value) in &self.extra_headers {
            buf.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        let connection: &[u8] = if keep_alive {
            b"connection: keep-alive\r\n\r\n"
        } else {
            b"connection: close\r\n\r\n"
        };
        buf.extend_from_slice(connection);
        buf.extend_from_slice(&self.body);
        w.write_all(&buf)
    }

    /// Parse a response from a stream (client side).
    pub fn read_from(stream: impl Read) -> Result<Response, HttpError> {
        Response::read_next(&mut BufReader::new(stream))
    }

    /// Read the next response on a connection. Bytes read past its end (a
    /// pipelined response) stay in `reader` for the next call. A response
    /// without `content-type` reports `application/octet-stream`, the
    /// type a recipient may assume (RFC 9110 §8.3).
    pub(crate) fn read_next(reader: &mut impl BufRead) -> Result<Response, HttpError> {
        let mut budget = MAX_HEADER_BYTES;
        let line = read_head_line(reader, &mut budget)?;
        let mut parts = line.trim_end().split(' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::bad("bad status line"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpError::bad("bad status code"))?;
        let mut content_type = Cow::Borrowed("application/octet-stream");
        let mut extra_headers = Vec::new();
        let mut length = 0usize;
        loop {
            let hline = read_head_line(reader, &mut budget)?;
            let trimmed = hline.trim_end();
            if trimmed.is_empty() {
                break;
            }
            let Some((name, value)) = trimmed.split_once(':') else { continue };
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            match name.as_str() {
                "content-length" => {
                    length = value.parse().map_err(|_| HttpError::bad("bad content-length"))?;
                }
                "content-type" => content_type = Cow::Owned(value.to_owned()),
                _ => extra_headers.push((name, value.to_owned())),
            }
        }
        if length > MAX_BODY_BYTES {
            return Err(HttpError::bad("body too large"));
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).map_err(HttpError::io)?;
        Ok(Response { status, content_type, extra_headers, body })
    }
}

/// Read one line of a message's start line and header section, charged to
/// `budget` (the bytes the head may still use). A line that runs past the
/// budget fails as "headers too large" after buffering at most `budget`
/// bytes of it. A stream that ends mid-line yields the partial line.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = String::new();
    let n = reader.by_ref().take(*budget as u64).read_line(&mut line).map_err(HttpError::io)?;
    if n == *budget && !line.ends_with('\n') {
        return Err(HttpError::bad("headers too large"));
    }
    *budget -= n;
    Ok(line)
}

/// Errors from HTTP parsing/IO.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed message.
    Bad(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl HttpError {
    fn bad(msg: &str) -> HttpError {
        HttpError::Bad(msg.to_owned())
    }

    fn io(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /decide HTTP/1.1\r\nHost: odr\r\nContent-Length: 4\r\n\r\nabcd";
        let req = Request::read_from(&raw[..]).unwrap().unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path(), "/decide");
        assert_eq!(req.header("host"), Some("odr"));
        assert_eq!(req.header("HOST"), Some("odr"));
        assert_eq!(&req.body[..], b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /healthz?x=1 HTTP/1.1\r\n\r\n";
        let req = Request::read_from(&raw[..]).unwrap().unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path(), "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn empty_stream_is_clean_close() {
        assert!(Request::read_from(&b""[..]).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            &b"BREW /coffee HTTP/1.1\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / HTTP/2\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n"[..],
        ] {
            assert!(Request::read_from(raw).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn request_round_trips() {
        let req = Request {
            method: Method::Post,
            target: "/decide".into(),
            headers: vec![("host".into(), "odr.thucloud.com".into())],
            body: b"{\"x\":1}".to_vec(),
        };
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        let parsed = Request::read_from(&wire[..]).unwrap().unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.target, "/decide");
        assert_eq!(&parsed.body[..], b"{\"x\":1}");
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::json("{\"ok\":true}");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let parsed = Response::read_from(&wire[..]).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(&parsed.body[..], b"{\"ok\":true}");
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(Request::read_from(raw.as_bytes()).is_err());
    }

    /// A peer that sends `prefix` and then `A`s with no newline, counting
    /// the bytes the parser pulls. The `A`s stop after 1 MiB, so a parser
    /// with no line limit fails this test instead of hanging it.
    struct Flood<R> {
        inner: R,
        consumed: usize,
    }

    impl<R: Read> Read for Flood<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    fn flood(prefix: &'static [u8]) -> Flood<impl Read> {
        Flood { inner: prefix.chain(std::io::repeat(b'A').take(1 << 20)), consumed: 0 }
    }

    /// The head budget plus one read-ahead `BufReader` buffer.
    const MAX_CONSUMED: usize = MAX_HEADER_BYTES + 8 * 1024;

    fn assert_too_large<T: fmt::Debug>(result: Result<T, HttpError>, consumed: usize) {
        match result {
            Err(HttpError::Bad(m)) => assert_eq!(m, "headers too large"),
            other => panic!("expected headers too large, got {other:?}"),
        }
        assert!(consumed <= MAX_CONSUMED, "read {consumed} bytes before failing");
    }

    #[test]
    fn endless_request_line_is_cut_off() {
        let mut peer = flood(b"GET /");
        let result = Request::read_from(&mut peer);
        assert_too_large(result, peer.consumed);
    }

    #[test]
    fn endless_header_line_is_cut_off() {
        let mut peer = flood(b"POST /decide HTTP/1.1\r\nhost: odr\r\nx-pad: ");
        let result = Request::read_from(&mut peer);
        assert_too_large(result, peer.consumed);
    }

    #[test]
    fn endless_response_lines_are_cut_off() {
        for prefix in [&b"HTTP/1.1 200"[..], &b"HTTP/1.1 200 OK\r\nx-pad: "[..]] {
            let mut peer = flood(prefix);
            let result = Response::read_from(&mut peer);
            assert_too_large(result, peer.consumed);
        }
    }

    #[test]
    fn connection_persistence_follows_the_version() {
        for (raw, persists) in [
            ("GET / HTTP/1.1\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nconnection: upgrade, close\r\n\r\n", false),
            ("GET / HTTP/1.0\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n", true),
        ] {
            let (_, kept) = Request::read_next(&mut raw.as_bytes()).unwrap().unwrap();
            assert_eq!(kept, persists, "{raw:?}");
        }
    }

    #[test]
    fn responses_announce_whether_the_connection_persists() {
        for (keep_alive, header) in [(true, "connection: keep-alive"), (false, "connection: close")]
        {
            let mut wire = Vec::new();
            Response::text("ok").write_with(&mut wire, keep_alive).unwrap();
            let text = String::from_utf8(wire).unwrap();
            assert!(text.contains(&format!("\r\n{header}\r\n")), "{text:?}");
        }
        let mut wire = Vec::new();
        Response::text("ok").write_to(&mut wire).unwrap();
        assert!(String::from_utf8(wire).unwrap().contains("connection: close"));
    }

    proptest! {
        /// N requests concatenated on one stream (a pipelining client) are
        /// read back one by one through one reader, then a clean end.
        #[test]
        fn concatenated_requests_read_back_in_order(
            sent in prop::collection::vec(
                (any::<bool>(), "[a-z0-9/]{0,16}", prop::collection::vec(any::<u8>(), 0..64)),
                0..8,
            ),
        ) {
            let mut wire = Vec::new();
            for (post, path, body) in &sent {
                let req = Request {
                    method: if *post { Method::Post } else { Method::Get },
                    target: format!("/{path}"),
                    headers: vec![("host".into(), "odr".into())],
                    body: body.clone(),
                };
                req.write_to(&mut wire).unwrap();
            }
            let mut reader = &wire[..];
            for (post, path, body) in &sent {
                let (req, kept) = Request::read_next(&mut reader).unwrap().expect("request");
                prop_assert!(kept);
                prop_assert_eq!(req.method == Method::Post, *post);
                prop_assert_eq!(req.target, format!("/{path}"));
                prop_assert_eq!(req.header("host"), Some("odr"));
                prop_assert_eq!(&req.body, body);
            }
            prop_assert!(Request::read_next(&mut reader).unwrap().is_none());
        }
    }

    #[test]
    fn error_responses_carry_json() {
        let resp = Response::error(404, "no such endpoint");
        assert_eq!(resp.status, 404);
        let body = std::str::from_utf8(&resp.body).unwrap();
        assert!(body.contains("no such endpoint"));
    }
}
