//! A blocking TCP server on a worker thread pool.
//!
//! Every worker owns a clone of the listening socket and accepts from it
//! directly, so a connection goes from the kernel's accept queue straight
//! to an idle worker. When every worker is busy, new connections wait in
//! the listen backlog.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{Request, Response};

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

/// A running HTTP server. Dropping it shuts the listener and workers down.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `handler` on `workers` threads.
    pub fn bind(addr: &str, workers: usize, handler: impl Handler) -> io::Result<Server> {
        assert!(workers > 0, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let listeners =
            (0..workers).map(|_| listener.try_clone()).collect::<io::Result<Vec<_>>>()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let handler = Arc::new(handler);
        let workers = listeners
            .into_iter()
            .map(|listener| {
                let shutdown = Arc::clone(&shutdown);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || accept_loop(listener, &shutdown, handler.as_ref()))
            })
            .collect();
        Ok(Server { addr: local, shutdown, workers })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let in-flight requests finish, and join all workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Each worker leaves on the first connection it accepts after the
        // flag is set, so one poke per worker wakes them all — a worker
        // busy in a handler takes its poke from the backlog when it is done.
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

fn accept_loop(listener: TcpListener, shutdown: &AtomicBool, handler: &impl Handler) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(s) = stream {
            let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = s.set_write_timeout(Some(Duration::from_secs(10)));
            serve_connection(s, handler);
        }
    }
}

fn serve_connection(stream: TcpStream, handler: &impl Handler) {
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let response = match Request::read_from(read_half) {
        // A panicking handler costs its request a 500, not the pool a worker.
        Ok(Some(req)) => catch_unwind(AssertUnwindSafe(|| handler.handle(req)))
            .unwrap_or_else(|_| Response::error(500, "handler panicked")),
        Ok(None) => return,
        Err(e) => Response::error(400, &e.to_string()),
    };
    let _ = response.write_to(&stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::http::Method;

    fn echo_server() -> Server {
        Server::bind("127.0.0.1:0", 2, |req: Request| {
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
        let server = Server::bind("127.0.0.1:0", 2, |req: Request| {
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
        server.shutdown();
    }

    #[test]
    fn shutdown_waits_out_a_slow_handler_and_releases_the_port() {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let server = Server::bind("127.0.0.1:0", 2, move |req: Request| {
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
        let again = Server::bind(&addr.to_string(), 1, |_req: Request| Response::text("ok"));
        assert!(again.is_ok());
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let server = echo_server();
        let addr = server.addr();
        server.shutdown();
        // Port is released: a new server can bind to the same address.
        let again = Server::bind(&addr.to_string(), 1, |_req: Request| Response::text("ok"));
        assert!(again.is_ok());
    }
}
