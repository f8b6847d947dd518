//! The ODR web service: decision engine + content directory behind HTTP.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness.
//! * `GET /metrics` — JSON snapshot of the service's own telemetry
//!   registry: `proto.requests` (requests routed) and, once it serves,
//!   the server's `proto.connections` and `proto.panics`. Two services in
//!   one process never see each other's counts.
//! * `GET /popularity/<file-id-hex>` — the content-DB lookup ODR performs.
//! * `POST /decide` — submit a link + user context, receive a verdict.
//!
//! Like the deployed prototype at `odr.thucloud.com`, the service "never
//! delivers file contents by itself" — it is pure control plane.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use odx_odr::OdrEngine;
use odx_telemetry::{Counter, Registry};
use odx_trace::{Catalog, PopularityClass};

use crate::api::{verdict_to_json, DecideRequest};
use crate::cookie;
use crate::http::{Method, Request, Response};
use crate::server::Server;
use crate::Json;

/// The front page served at `GET /` — the shape of the prototype's web form
/// (submit a link plus auxiliary information; a cookie remembers the rest).
const FRONT_PAGE: &str = r#"<!doctype html>
<html><head><meta charset="utf-8"><title>ODR — Offline Downloading Redirector</title></head>
<body>
<h1>ODR — Offline Downloading Redirector</h1>
<p>Paste an HTTP/FTP/magnet/ed2k link. ODR looks up the file's popularity in
the cloud's content database and tells you where to download it: the cloud,
your smart AP, your own device, or cloud&rarr;AP relay.</p>
<p>POST JSON to <code>/decide</code>:
<code>{"link": "...", "isp": "unicom", "access_kbps": 400,
"ap": {"model": "newifi", "device": "usb-flash", "fs": "ntfs"}}</code></p>
<p>Your ISP / bandwidth / AP details are remembered in a cookie, so later
requests may send just the link.</p>
<p>Endpoints: <code>GET /healthz</code>, <code>GET /popularity/&lt;md5&gt;</code>,
<code>POST /decide</code>.</p>
</body></html>
"#;

/// Content-directory row: what the cloud's database knows about a file.
#[derive(Debug, Clone, Copy)]
struct DirectoryEntry {
    popularity: PopularityClass,
    cached: bool,
}

/// The ODR service state.
pub struct OdrService {
    engine: OdrEngine,
    directory: RwLock<HashMap<String, DirectoryEntry>>,
    /// What `GET /metrics` serves.
    registry: Registry,
    requests: Counter,
}

impl OdrService {
    /// An empty service (unknown files are treated as uncached and
    /// unpopular — the conservative answer).
    pub fn new(engine: OdrEngine) -> Arc<OdrService> {
        let registry = Registry::new();
        let requests = registry.counter("proto.requests");
        Arc::new(OdrService { engine, directory: RwLock::new(HashMap::new()), registry, requests })
    }

    /// Populate the directory from a catalog, marking files cached with the
    /// given predicate.
    pub fn load_catalog(&self, catalog: &Catalog, cached: impl Fn(u32) -> bool) {
        let mut dir = self.directory_mut();
        for (i, f) in catalog.files().iter().enumerate() {
            dir.insert(
                f.id.to_string(),
                DirectoryEntry { popularity: f.class(), cached: cached(i as u32) },
            );
        }
    }

    /// The directory, read-locked. Every write inserts whole rows, so a
    /// panic under the lock leaves nothing torn: poisoning is ignored.
    fn directory(&self) -> RwLockReadGuard<'_, HashMap<String, DirectoryEntry>> {
        self.directory.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The directory, write-locked (poisoning ignored, as for reads).
    fn directory_mut(&self) -> RwLockWriteGuard<'_, HashMap<String, DirectoryEntry>> {
        self.directory.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of known files.
    pub fn directory_len(&self) -> usize {
        self.directory().len()
    }

    /// Look up the directory entry for a source link by scanning for a
    /// 32-hex-digit content id in it (how the prototype keys its DB).
    fn lookup(&self, link: &str) -> DirectoryEntry {
        let dir = self.directory();
        extract_id(link)
            .and_then(|id| dir.get(&id).copied())
            .unwrap_or(DirectoryEntry { popularity: PopularityClass::Unpopular, cached: false })
    }

    /// Route one HTTP request.
    pub fn handle(&self, req: Request) -> Response {
        self.requests.inc();
        match (req.method, req.path()) {
            (Method::Get, "/") => Response::html(FRONT_PAGE),
            (Method::Get, "/healthz") => {
                Response::json(Json::obj([("status", Json::Str("ok".into()))]).to_string_compact())
            }
            (Method::Get, "/metrics") => Response::json(self.registry.snapshot().to_json()),
            (Method::Get, path) if path.starts_with("/popularity/") => {
                let id = path.trim_start_matches("/popularity/");
                let dir = self.directory();
                match dir.get(id) {
                    Some(entry) => Response::json(
                        Json::obj([
                            ("class", Json::Str(entry.popularity.to_string())),
                            ("cached", Json::Bool(entry.cached)),
                        ])
                        .to_string_compact(),
                    ),
                    None => Response::error(404, "unknown file"),
                }
            }
            (Method::Post, "/decide") => self.decide(&req),
            (Method::Get, _) => Response::error(404, "no such endpoint"),
            (Method::Post, _) => Response::error(404, "no such endpoint"),
        }
    }

    fn decide(&self, req: &Request) -> Response {
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => return Response::error(400, "body is not utf-8"),
        };
        let json = match Json::parse(body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        // §6.1: the context cookie fills in whatever auxiliary fields the
        // body omits (the body always wins on conflicts).
        let json = match Self::merge_cookie_context(req, json) {
            Ok(v) => v,
            Err(resp) => return *resp,
        };
        let decide_req = match DecideRequest::from_json(&json) {
            Ok(r) => r,
            Err(e) => return Response::error(400, &e.message),
        };
        let entry = self.lookup(&decide_req.link);
        let odr_req = match decide_req.resolve(entry.popularity, entry.cached) {
            Ok(r) => r,
            Err(e) => return Response::error(400, &e.message),
        };
        let verdict = self.engine.decide(&odr_req);
        // Remember the auxiliary context for next time.
        let mut ctx = decide_req.to_json();
        if let Json::Obj(map) = &mut ctx {
            map.remove("link");
        }
        Response::json(verdict_to_json(&verdict, entry.popularity).to_string_compact())
            .with_header("set-cookie", cookie::set_context_cookie(&ctx.to_string_compact()))
    }

    /// Overlay the request body on the stored cookie context.
    fn merge_cookie_context(req: &Request, body: Json) -> Result<Json, Box<Response>> {
        let Some(raw) = cookie::get_cookie(req, cookie::CONTEXT_COOKIE) else {
            return Ok(body);
        };
        let Some(stored) = cookie::decode_context(&raw) else {
            return Ok(body); // Corrupt cookie: ignore it.
        };
        let Ok(Json::Obj(mut base)) = Json::parse(&stored) else {
            return Ok(body);
        };
        match body {
            Json::Obj(overlay) => {
                for (k, v) in overlay {
                    base.insert(k, v);
                }
                Ok(Json::Obj(base))
            }
            other => {
                let _ = other;
                Err(Box::new(Response::error(400, "body must be a JSON object")))
            }
        }
    }

    /// Bind the service to `addr` on a worker pool that counts its
    /// connections and handler panics into the service's registry.
    pub fn serve(self: &Arc<Self>, addr: &str, workers: usize) -> std::io::Result<Server> {
        let this = Arc::clone(self);
        Server::bind(addr, workers, &self.registry, move |req: Request| this.handle(req))
    }
}

/// Extract a 32-hex-digit content id from a link.
fn extract_id(link: &str) -> Option<String> {
    let bytes = link.as_bytes();
    let mut start = 0;
    while start < bytes.len() {
        if bytes[start].is_ascii_hexdigit() {
            let mut end = start;
            while end < bytes.len() && bytes[end].is_ascii_hexdigit() {
                end += 1;
            }
            if end - start == 32 {
                return Some(link[start..end].to_ascii_lowercase());
            }
            start = end;
        } else {
            start += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use odx_trace::FileId;
    use std::io::Write;

    fn id_hex(n: u128) -> String {
        FileId(n).to_string()
    }

    fn service_with_file(pop: PopularityClass, cached: bool) -> Arc<OdrService> {
        let svc = OdrService::new(OdrEngine::default());
        svc.directory_mut().insert(id_hex(0xabc), DirectoryEntry { popularity: pop, cached });
        svc
    }

    #[test]
    fn extract_id_finds_32_hex_digits() {
        let link = format!("magnet:?xt=urn:btih:{}", id_hex(0xabc));
        assert_eq!(extract_id(&link), Some(id_hex(0xabc)));
        assert_eq!(extract_id("http://host/no-id-here"), None);
        assert_eq!(extract_id("deadbeef"), None, "too short");
    }

    #[test]
    fn healthz_over_the_wire() {
        let svc = service_with_file(PopularityClass::Popular, true);
        let server = svc.serve("127.0.0.1:0", 2).unwrap();
        let resp = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains("ok"));
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_the_service_registry() {
        // Five scrapes over one kept-alive connection of a fresh service:
        // nothing else counts into its registry, so the server has seen
        // exactly one connection and five requests.
        let svc = service_with_file(PopularityClass::Popular, true);
        let server = svc.serve("127.0.0.1:0", 2).unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut last = None;
        for _ in 0..5 {
            stream.write_all(b"GET /metrics HTTP/1.1\r\nhost: odr\r\n\r\n").unwrap();
            let resp = Response::read_from(&stream).unwrap();
            assert_eq!(resp.status, 200);
            last = Some(Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap());
        }
        let counters = last.and_then(|s| s.get("counters").cloned()).expect("counters");
        let count = |name: &str| counters.get(name).and_then(Json::as_f64);
        // The fifth snapshot counts its own request.
        assert_eq!(count("proto.requests"), Some(5.0));
        assert_eq!(count("proto.connections"), Some(1.0));
        assert_eq!(count("proto.panics"), Some(0.0));
        assert_eq!(svc.requests.get(), 5);
        server.shutdown();
    }

    #[test]
    fn two_services_count_only_their_own_requests() {
        let requests = |svc: &OdrService| {
            let resp = svc.handle(Request {
                method: Method::Get,
                target: "/metrics".into(),
                headers: vec![],
                body: vec![],
            });
            let snapshot = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            snapshot.get("counters").and_then(|c| c.get("proto.requests")?.as_f64())
        };
        let (a, b) = (OdrService::new(OdrEngine::default()), OdrService::new(OdrEngine::default()));
        for _ in 0..3 {
            requests(&a);
        }
        // Each scrape counts itself: a has routed 3 + 1, b only its one.
        assert_eq!(requests(&a), Some(4.0));
        assert_eq!(requests(&b), Some(1.0));
        // `?series=1` is no longer a separate document: the same snapshot.
        let series = a.handle(Request {
            method: Method::Get,
            target: "/metrics?series=1".into(),
            headers: vec![],
            body: vec![],
        });
        assert_eq!(series.status, 200);
        assert!(String::from_utf8_lossy(&series.body).contains("proto.requests"));
    }

    #[test]
    fn popularity_endpoint() {
        let svc = service_with_file(PopularityClass::HighlyPopular, true);
        let server = svc.serve("127.0.0.1:0", 2).unwrap();
        let resp = client::get(server.addr(), &format!("/popularity/{}", id_hex(0xabc))).unwrap();
        assert_eq!(resp.status, 200);
        let v = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("class").and_then(Json::as_str), Some("highly-popular"));
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
        let missing = client::get(server.addr(), "/popularity/ffff").unwrap();
        assert_eq!(missing.status, 404);
        server.shutdown();
    }

    #[test]
    fn decide_end_to_end() {
        let svc = service_with_file(PopularityClass::HighlyPopular, true);
        let server = svc.serve("127.0.0.1:0", 2).unwrap();
        let body = format!(
            r#"{{"link": "magnet:?xt=urn:btih:{}", "isp": "unicom",
                "access_kbps": 2500.0,
                "ap": {{"model": "newifi", "device": "usb-flash", "fs": "ntfs"}}}}"#,
            id_hex(0xabc)
        );
        let resp = client::post_json(server.addr(), "/decide", &body).unwrap();
        assert_eq!(resp.status, 200);
        let v = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        // §6.1's worked example: hot P2P file + fast line + NTFS flash AP
        // → download on the user's own device.
        assert_eq!(v.get("decision").and_then(Json::as_str), Some("user-device"));
        server.shutdown();
    }

    #[test]
    fn decide_unknown_file_defaults_to_cloud_predownload() {
        let svc = service_with_file(PopularityClass::Popular, true);
        let server = svc.serve("127.0.0.1:0", 2).unwrap();
        let body = r#"{"link": "http://elsewhere/file.bin", "isp": "telecom",
                       "access_kbps": 400.0}"#;
        let resp = client::post_json(server.addr(), "/decide", body).unwrap();
        let v = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("decision").and_then(Json::as_str), Some("cloud-predownload"));
        server.shutdown();
    }

    #[test]
    fn decide_rejects_bad_bodies() {
        let svc = service_with_file(PopularityClass::Popular, true);
        let server = svc.serve("127.0.0.1:0", 2).unwrap();
        for bad in ["not json", "{}", r#"{"link": "gopher://x", "access_kbps": 1}"#] {
            let resp = client::post_json(server.addr(), "/decide", bad).unwrap();
            assert_eq!(resp.status, 400, "{bad}");
        }
        server.shutdown();
    }

    #[test]
    fn front_page_is_served() {
        let svc = service_with_file(PopularityClass::Popular, true);
        let server = svc.serve("127.0.0.1:0", 2).unwrap();
        let resp = client::get(server.addr(), "/").unwrap();
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains("Offline Downloading Redirector"));
        server.shutdown();
    }

    #[test]
    fn decide_sets_and_honours_the_context_cookie() {
        use crate::http::{Method, Request};
        let svc = service_with_file(PopularityClass::Popular, true);

        // First request carries everything; the response sets a cookie.
        let first = svc.handle(Request {
            method: Method::Post,
            target: "/decide".into(),
            headers: vec![],
            body: format!(
                r#"{{"link": "magnet:?xt=urn:btih:{}", "isp": "other",
                    "access_kbps": 80.0,
                    "ap": {{"model": "miwifi", "device": "sata-hdd", "fs": "ext4"}}}}"#,
                id_hex(0xabc)
            )
            .into_bytes(),
        });
        assert_eq!(first.status, 200);
        let set_cookie = first
            .extra_headers
            .iter()
            .find(|(n, _)| n == "set-cookie")
            .map(|(_, v)| v.clone())
            .expect("context cookie set");

        // Second request sends only the link; the cookie supplies the
        // impeded-user context, so the decision is the cloud→AP relay.
        let cookie_value = set_cookie.split(';').next().unwrap().to_owned();
        let second = svc.handle(Request {
            method: Method::Post,
            target: "/decide".into(),
            headers: vec![("cookie".into(), cookie_value)],
            body: format!(r#"{{"link": "magnet:?xt=urn:btih:{}"}}"#, id_hex(0xabc)).into_bytes(),
        });
        assert_eq!(second.status, 200, "{:?}", second.body);
        let v = Json::parse(std::str::from_utf8(&second.body).unwrap()).unwrap();
        assert_eq!(v.get("decision").and_then(Json::as_str), Some("cloud+smart-ap"));
    }

    #[test]
    fn body_overrides_cookie() {
        use crate::http::{Method, Request};
        let svc = service_with_file(PopularityClass::Popular, true);
        let ctx = r#"{"access_kbps":80,"isp":"other"}"#;
        let header = format!("odr_ctx={}", cookie::percent_encode(ctx));
        let resp = svc.handle(Request {
            method: Method::Post,
            target: "/decide".into(),
            headers: vec![("cookie".into(), header)],
            body: format!(
                r#"{{"link": "magnet:?xt=urn:btih:{}", "isp": "telecom", "access_kbps": 900.0}}"#,
                id_hex(0xabc)
            )
            .into_bytes(),
        });
        let v = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        // With the body's healthy context the decision is a plain cloud
        // fetch, not the relay the cookie context would imply.
        assert_eq!(v.get("decision").and_then(Json::as_str), Some("cloud"));
    }

    #[test]
    fn unknown_endpoint_is_404() {
        let svc = service_with_file(PopularityClass::Popular, true);
        let server = svc.serve("127.0.0.1:0", 2).unwrap();
        let resp = client::get(server.addr(), "/nope").unwrap();
        assert_eq!(resp.status, 404);
        server.shutdown();
    }

    #[test]
    fn load_catalog_populates_directory() {
        use odx_trace::CatalogConfig;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(170);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.002), &mut rng);
        let svc = OdrService::new(OdrEngine::default());
        svc.load_catalog(&catalog, |i| i % 2 == 0);
        assert_eq!(svc.directory_len(), catalog.len());
    }
}
