//! A blocking TCP server on a worker thread pool.
//!
//! Every worker owns a clone of the listening socket and accepts from it
//! directly, so a connection goes from the kernel's accept queue straight
//! to an idle worker. When every worker is busy, new connections wait in
//! the listen backlog.
//!
//! A worker serves its connection as a loop over one buffered reader, so a
//! persistent HTTP/1.1 connection carries many requests, and bytes read
//! ahead (a pipelined request) stay for the next turn of the loop. Three
//! rules keep a kept connection from tying up the pool, with no knob:
//!
//! * **Free-worker rule.** A worker keeps a connection open only while
//!   another worker is free to accept: at most `workers - 1` connections
//!   are held at once. A 1-worker server closes after every response.
//! * **Idle bound.** A kept connection that sends nothing for 10 s (the
//!   read timeout) is closed.
//! * **Shutdown polling.** Reads wait in 50 ms slices; between slices a
//!   connection with no request under way checks the shutdown flag, so
//!   [`Server::shutdown`] does not wait out idle clients. A request already
//!   being read or handled is still answered, with `connection: close`.
//!
//! A request the parser rejects gets a `400` and always closes the
//! connection, since where the next request would start is unknown.

use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use odx_telemetry::{Counter, Registry};

use crate::http::{Request, Response};

/// How long one read or write may wait, and so how long a kept connection
/// may sit idle.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// The slice a read waits before it looks at the shutdown flag again.
const POLL: Duration = Duration::from_millis(50);

/// A request handler: anything callable from multiple worker threads.
pub trait Handler: Send + Sync + 'static {
    /// Handle one request.
    fn handle(&self, req: Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: Request) -> Response {
        self(req)
    }
}

/// State every worker of one server shares.
struct Shared {
    shutdown: AtomicBool,
    /// Workers currently holding a kept-alive connection.
    holding: AtomicUsize,
    workers: usize,
    /// `proto.connections`: connections accepted.
    connections: Counter,
    /// `proto.panics`: handler panics answered with a 500.
    panics: Counter,
}

impl Shared {
    /// Claim a hold on a connection if another worker stays free to accept.
    fn try_hold(&self) -> bool {
        self.holding
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |h| {
                (h + 1 < self.workers).then_some(h + 1)
            })
            .is_ok()
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running HTTP server. Dropping it shuts the listener and workers down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `handler` on `workers` threads, counting `proto.connections` and
    /// `proto.panics` into `registry`.
    pub fn bind(
        addr: &str,
        workers: usize,
        registry: &Registry,
        handler: impl Handler,
    ) -> io::Result<Server> {
        assert!(workers > 0, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let listeners =
            (0..workers).map(|_| listener.try_clone()).collect::<io::Result<Vec<_>>>()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            holding: AtomicUsize::new(0),
            workers,
            connections: registry.counter("proto.connections"),
            panics: registry.counter("proto.panics"),
        });
        let handler = Arc::new(handler);
        let workers = listeners
            .into_iter()
            .map(|listener| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || accept_loop(listener, &shared, handler.as_ref()))
            })
            .collect();
        Ok(Server { addr: local, shared, workers })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let in-flight requests finish, close idle kept
    /// connections, and join all workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Each worker leaves on the first connection it accepts after the
        // flag is set, so one poke per worker wakes them all — a worker
        // busy on a connection takes its poke from the backlog when it has
        // closed it.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared, handler: &impl Handler) {
    for stream in listener.incoming() {
        if shared.stopping() {
            break;
        }
        if let Ok(s) = stream {
            serve_connection(s, shared, handler);
        }
    }
}

/// The accepted socket as the request parser reads it: each read waits in
/// [`POLL`] slices, for at most [`IO_TIMEOUT`] in all, and gives up early
/// on shutdown while `idle` (no byte of the next request has arrived).
struct Conn<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    idle: bool,
}

impl Read for Conn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = Instant::now();
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    self.idle &= n == 0;
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    if start.elapsed() >= IO_TIMEOUT || (self.idle && self.shared.stopping()) {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared, handler: &impl Handler) {
    shared.connections.inc();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(Conn { stream: &stream, shared, idle: true });
    let mut held = false;
    loop {
        let pipelined = !reader.buffer().is_empty();
        if shared.stopping() && !pipelined {
            break;
        }
        reader.get_mut().idle = !pipelined;
        let (response, wants_keep) = match Request::read_next(&mut reader) {
            Ok(Some((req, keep))) => (handle(handler, req, shared), keep),
            Ok(None) => break,
            // Idle timeout or shutdown: no request was under way.
            Err(_) if reader.get_ref().idle => break,
            Err(e) => (Response::error(400, &e.to_string()), false),
        };
        let keep = wants_keep && !shared.stopping() && (held || shared.try_hold());
        held |= keep;
        if response.write_with(&stream, keep).is_err() || !keep {
            break;
        }
    }
    if held {
        shared.holding.fetch_sub(1, Ordering::SeqCst);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Run the handler; a panicking handler costs its request a 500, not the
/// pool a worker.
fn handle(handler: &impl Handler, req: Request, shared: &Shared) -> Response {
    catch_unwind(AssertUnwindSafe(|| handler.handle(req))).unwrap_or_else(|_| {
        shared.panics.inc();
        Response::error(500, "handler panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::http::Method;

    fn echo_server() -> Server {
        Server::bind("127.0.0.1:0", 2, &Registry::new(), |req: Request| {
            if req.method == Method::Post {
                Response::text(format!("echo:{}", String::from_utf8_lossy(&req.body)))
            } else {
                Response::text(format!("path:{}", req.path()))
            }
        })
        .expect("bind")
    }

    #[test]
    fn serves_get_and_post() {
        let server = echo_server();
        let addr = server.addr();
        let get = client::get(addr, "/hello").unwrap();
        assert_eq!(get.status, 200);
        assert_eq!(&get.body[..], b"path:/hello");
        let post = client::post_json(addr, "/x", "{\"a\":1}").unwrap();
        assert_eq!(&post.body[..], b"echo:{\"a\":1}");
        server.shutdown();
    }

    #[test]
    fn handles_concurrent_clients() {
        let server = echo_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let resp = client::post_json(addr, "/c", &format!("{{\"i\":{i}}}")).unwrap();
                    assert_eq!(resp.status, 200);
                    assert!(String::from_utf8_lossy(&resp.body).contains(&format!("{i}")));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::Write;
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"BREW / HTTP/1.1\r\n\r\n").unwrap();
        let resp = Response::read_from(&stream).unwrap();
        assert_eq!(resp.status, 400);
        server.shutdown();
    }

    #[test]
    fn panicking_handler_answers_500_and_keeps_its_worker() {
        let registry = Registry::new();
        let server = Server::bind("127.0.0.1:0", 2, &registry, |req: Request| {
            if req.path() == "/boom" {
                panic!("handler failure under test");
            }
            Response::text("ok")
        })
        .expect("bind");
        let addr = server.addr();
        // Twice as many panics as workers: a worker lost to the first would
        // leave nobody to answer the rest.
        for _ in 0..4 {
            assert_eq!(client::get(addr, "/boom").unwrap().status, 500);
        }
        let ok = client::get(addr, "/ok").unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(&ok.body[..], b"ok");
        assert_eq!(registry.counter("proto.panics").get(), 4);
        server.shutdown();
    }

    #[test]
    fn shutdown_waits_out_a_slow_handler_and_releases_the_port() {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let server = Server::bind("127.0.0.1:0", 2, &Registry::new(), move |req: Request| {
            if req.path() == "/slow" {
                entered_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(300));
            }
            Response::text("done")
        })
        .expect("bind");
        let addr = server.addr();
        let slow = std::thread::spawn(move || client::get(addr, "/slow").unwrap());
        entered.recv().unwrap();
        // One worker is inside the handler: the idle one takes a poke now,
        // the busy one takes the other when its request is answered.
        server.shutdown();
        let resp = slow.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(&resp.body[..], b"done");
        let again = Server::bind(&addr.to_string(), 1, &Registry::new(), |_req: Request| {
            Response::text("ok")
        });
        assert!(again.is_ok());
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let server = echo_server();
        let addr = server.addr();
        server.shutdown();
        // Port is released: a new server can bind to the same address.
        let again = Server::bind(&addr.to_string(), 1, &Registry::new(), |_req: Request| {
            Response::text("ok")
        });
        assert!(again.is_ok());
    }

    /// The `connection` header of a reply, `""` when it has none.
    fn connection(reply: &Response) -> &str {
        reply.extra_headers.iter().find(|(n, _)| n == "connection").map_or("", |(_, v)| v)
    }

    /// A raw client connection: the write half and a reader on a clone.
    fn open(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn get(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nhost: test\r\n\r\n")
    }

    fn exchange(conn: &mut (TcpStream, BufReader<TcpStream>), raw: &str) -> Response {
        use std::io::Write;
        conn.0.write_all(raw.as_bytes()).unwrap();
        Response::read_next(&mut conn.1).unwrap()
    }

    fn at_eof(r: &mut BufReader<TcpStream>) -> bool {
        use std::io::BufRead;
        matches!(r.fill_buf(), Ok(b) if b.is_empty())
    }

    #[test]
    fn kept_connection_serves_three_requests() {
        let server = echo_server();
        let mut conn = open(&server);
        for path in ["/a", "/b", "/c"] {
            let reply = exchange(&mut conn, &get(path));
            assert_eq!(reply.status, 200);
            assert_eq!(connection(&reply), "keep-alive");
            assert_eq!(reply.body, format!("path:{path}").into_bytes());
        }
        server.shutdown();
    }

    #[test]
    fn close_requests_get_close_then_eof() {
        let server = echo_server();
        for raw in ["GET /x HTTP/1.1\r\nconnection: close\r\n\r\n", "GET /x HTTP/1.0\r\n\r\n"] {
            let mut conn = open(&server);
            let reply = exchange(&mut conn, raw);
            assert_eq!((reply.status, connection(&reply)), (200, "close"), "{raw:?}");
            assert!(at_eof(&mut conn.1), "{raw:?}: connection left open");
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        use std::io::Write;
        let server = echo_server();
        let mut conn = open(&server);
        let both = format!("{}POST /two HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc", get("/one"));
        conn.0.write_all(both.as_bytes()).unwrap();
        assert_eq!(Response::read_next(&mut conn.1).unwrap().body, b"path:/one");
        assert_eq!(Response::read_next(&mut conn.1).unwrap().body, b"echo:abc");
        server.shutdown();
    }

    #[test]
    fn second_client_is_served_while_the_first_idles() {
        let server = echo_server();
        let mut first = open(&server);
        assert_eq!(connection(&exchange(&mut first, &get("/1"))), "keep-alive");
        // One of the two workers holds `first`; the other must stay free
        // to accept, so it serves the second client and closes.
        let mut second = open(&server);
        let reply = exchange(&mut second, &get("/2"));
        assert_eq!((reply.status, connection(&reply)), (200, "close"));
        assert!(at_eof(&mut second.1));
        assert_eq!(connection(&exchange(&mut first, &get("/3"))), "keep-alive");
        server.shutdown();
    }

    #[test]
    fn one_worker_server_always_closes() {
        let server =
            Server::bind("127.0.0.1:0", 1, &Registry::new(), |_req: Request| Response::text("ok"))
                .expect("bind");
        for _ in 0..3 {
            let mut conn = open(&server);
            let reply = exchange(&mut conn, &get("/"));
            assert_eq!((reply.status, connection(&reply)), (200, "close"));
            assert!(at_eof(&mut conn.1));
        }
        server.shutdown();
    }

    #[test]
    fn malformed_request_on_a_kept_connection_gets_400_and_closes() {
        let server = echo_server();
        let mut conn = open(&server);
        assert_eq!(connection(&exchange(&mut conn, &get("/ok"))), "keep-alive");
        let reply = exchange(&mut conn, "BREW / HTTP/1.1\r\n\r\n");
        assert_eq!((reply.status, connection(&reply)), (400, "close"));
        assert!(at_eof(&mut conn.1));
        server.shutdown();
    }

    #[test]
    fn panic_answers_500_and_the_connection_serves_on() {
        let server = Server::bind("127.0.0.1:0", 2, &Registry::new(), |req: Request| {
            if req.path() == "/boom" {
                panic!("handler failure under test");
            }
            Response::text("ok")
        })
        .expect("bind");
        let mut conn = open(&server);
        assert_eq!(exchange(&mut conn, &get("/boom")).status, 500);
        let reply = exchange(&mut conn, &get("/ok"));
        assert_eq!((reply.status, &reply.body[..]), (200, &b"ok"[..]));
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_while_a_kept_connection_idles() {
        let server = echo_server();
        let mut conn = open(&server);
        assert_eq!(connection(&exchange(&mut conn, &get("/idle"))), "keep-alive");
        let start = std::time::Instant::now();
        server.shutdown();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        assert!(at_eof(&mut conn.1));
    }
}
