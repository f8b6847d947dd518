//! The `decide-service` workload: the ODR web service (§6) on loopback,
//! loaded with `/decide` calls built from the study's evaluation sample.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odx::odr::{ApContext, OdrEngine, OdrRequest, Verdict};
use odx::proto::api::{verdict_to_json, DecideRequest};
use odx::proto::http::{Method, Request, Response};
use odx::proto::{Json, OdrService};
use odx::trace::PopularityClass;
use odx::Study;

use crate::report::{median, quantile, Report};
use crate::spans::Spans;
use crate::week::{generate_split, scenario, workload_digest};
use crate::{peak_rss_mb, Args};

/// Study scale the content directory and the request sample come from.
const SCALE: f64 = 0.05;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Distinct `/decide` bodies, cycled in order.
const BODIES: usize = 1000;
/// Open-loop offered rate (requests per second).
const OPEN_RATE: f64 = 4000.0;
/// The open-loop sender sleeps until this long before a request is due,
/// then yields until it is, so sleep overshoot does not make it late and
/// the wait leaves the CPU to the server's threads.
const SPIN: Duration = Duration::from_micros(50);
/// Open-loop/closed-loop rounds per run; each phase metric is the median
/// over rounds, so one disturbed round does not move it.
const ROUNDS: u32 = 6;
/// How long past the open loop's end the sender may run to catch up
/// before the requests still unsent are counted as never sent.
const CATCH_UP: Duration = Duration::from_secs(2);
/// Least time each standalone layer probe runs in the traced run.
const PROBE_TIME: Duration = Duration::from_millis(300);
/// Error messages kept per run (every failure is still counted).
const MAX_ERRORS: usize = 10;

/// Directory facts: popularity class and whether the cloud holds the file.
type Facts = (PopularityClass, bool);

/// The directory facts a file resolves to: popularity class and whether
/// the cloud holds it. Popular content is in the pool; the cold tail is
/// not (as in `examples/odr_service.rs`).
fn facts(study: &Study, file: u32) -> Facts {
    let class = study.catalog.file(file).class();
    (class, class != PopularityClass::Unpopular)
}

/// The generated inputs: the study, the loaded service, and the request
/// bodies with their exact wire bytes and directory facts.
struct Inputs {
    study: Study,
    service: Arc<OdrService>,
    bodies: Vec<String>,
    raw: Vec<Vec<u8>>,
    facts: Vec<Facts>,
}

fn load_directory(study: &Study) -> Arc<OdrService> {
    let service = OdrService::new(OdrEngine::default());
    service.load_catalog(&study.catalog, |i| facts(study, i).1);
    service
}

/// `/decide` bodies from `Study::eval_sample`: the sampled user's ISP and
/// access bandwidth, the AP cycled round-robin over the §5.1 fleet.
fn build_bodies(study: &Study) -> (Vec<String>, Vec<Vec<u8>>, Vec<Facts>) {
    let fleet = ApContext::bench_fleet();
    let sample = study.eval_sample(BODIES);
    let mut bodies = Vec::with_capacity(sample.len());
    let mut raw = Vec::with_capacity(sample.len());
    let mut file_facts = Vec::with_capacity(sample.len());
    for (i, s) in sample.iter().enumerate() {
        let body = DecideRequest {
            link: study.catalog.file(s.file_index).source_link(),
            isp: s.isp,
            access_kbps: s.access_kbps,
            ap: Some(fleet[i % fleet.len()]),
        }
        .to_json()
        .to_string_compact();
        let request = Request {
            method: Method::Post,
            target: "/decide".into(),
            headers: vec![
                ("host".into(), "odr.bench".into()),
                ("content-type".into(), "application/json".into()),
            ],
            body: body.clone().into_bytes().into(),
        };
        let mut bytes = Vec::new();
        request.write_to(&mut bytes).expect("writing to a Vec cannot fail");
        bodies.push(body);
        raw.push(bytes);
        file_facts.push(facts(study, s.file_index));
    }
    (bodies, raw, file_facts)
}

/// Each body resolved in-process: parse it, `DecideRequest::from_json`,
/// then `resolve` against the same directory facts the service holds.
fn resolve_all(inputs: &Inputs) -> Vec<OdrRequest> {
    inputs
        .bodies
        .iter()
        .zip(&inputs.facts)
        .map(|(body, (class, cached))| {
            let json = Json::parse(body).expect("generated body is JSON");
            let request =
                DecideRequest::from_json(&json).expect("generated body is a valid request");
            request.resolve(*class, *cached).expect("generated link has a known scheme")
        })
        .collect()
}

/// The decision each body must get: `OdrEngine::decide` on its resolved
/// request.
fn expected(resolved: &[OdrRequest]) -> Vec<String> {
    let engine = OdrEngine::default();
    resolved.iter().map(|r| engine.decide(r).decision.to_string()).collect()
}

/// A minimal HTTP/1.1 client connection policy: reuse the connection
/// while the server keeps it open, reconnect once it has closed it.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

/// A parsed response.
struct Reply {
    status: u16,
    body: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None, connects: 0 }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        self.connects += 1;
        Ok(self.conn.insert(BufReader::new(stream)))
    }

    /// Send one request's bytes and read the reply. A kept-alive
    /// connection that turns out closed is reopened and the request sent
    /// once more.
    fn send(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let reused = self.conn.is_some();
        match self.exchange(raw) {
            Err(e) if reused && e.kind() == io::ErrorKind::UnexpectedEof => {
                self.conn = None;
                self.exchange(raw)
            }
            other => other,
        }
    }

    fn exchange(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let conn = match self.conn.take() {
            Some(conn) => self.conn.insert(conn),
            None => self.connect()?,
        };
        let result = conn.get_mut().write_all(raw).and_then(|()| read_reply(conn));
        match result {
            Ok((reply, close)) => {
                if close {
                    self.conn = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Read one response; the flag says whether the server closes the
/// connection after it.
fn read_reply(r: &mut BufReader<TcpStream>) -> io::Result<(Reply, bool)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status: u16 =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad status line"))?;
    let mut close = version == "HTTP/1.0";
    let mut length = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else { return Err(bad("bad header")) };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().map_err(|_| bad("bad content-length"))?;
            if length > 1 << 20 {
                return Err(bad("body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)?;
    Ok((Reply { status, body }, close))
}

/// Check a `/decide` reply: status 200 and the in-process verdict.
fn verify(reply: io::Result<Reply>, expected: &str) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("request failed: {e}"))?;
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    match json.get("decision").and_then(Json::as_str) {
        Some(d) if d == expected => Ok(()),
        other => Err(format!("decision {other:?}, expected {expected}")),
    }
}

/// Failure bookkeeping shared by the load phases.
#[derive(Default)]
struct Tally {
    sent: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn note(&mut self, outcome: Result<(), String>) -> bool {
        self.sent += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < MAX_ERRORS {
                    self.errors.push(e);
                }
                false
            }
        }
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open-loop results: latency timed from each request's due time (a
/// failed request counts as infinitely late), and generator lateness.
struct OpenLoop {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    unsent: u64,
}

/// Send at a fixed rate on one sender thread, whatever the replies do.
fn open_loop(
    client: &mut Client,
    inputs: &Inputs,
    expected: &[String],
    duration: Duration,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> OpenLoop {
    let total = (duration.as_secs_f64() * OPEN_RATE) as u64;
    let interval = 1.0 / OPEN_RATE;
    let start = Instant::now() + Duration::from_millis(5);
    let give_up = start + duration + CATCH_UP;
    let mut out = OpenLoop {
        latency_ms: Vec::with_capacity(total as usize),
        late_ms: Vec::with_capacity(total as usize),
        unsent: 0,
    };
    for i in 0..total {
        let due = start + Duration::from_secs_f64(i as f64 * interval);
        wait_until(due);
        let sent_at = Instant::now();
        if sent_at > give_up {
            out.unsent = total - i;
            break;
        }
        let k = i as usize % inputs.raw.len();
        let ok = tally.note(verify(client.send(&inputs.raw[k]), &expected[k]));
        let done = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("proto.wire", None, Some(i), sent_at, 1);
        }
        out.late_ms.push((sent_at - due).as_secs_f64() * 1e3);
        out.latency_ms.push(if ok { (done - due).as_secs_f64() * 1e3 } else { f64::INFINITY });
    }
    out
}

/// Send back to back on one connection slot; returns completed `200`
/// responses per second.
fn closed_loop(
    client: &mut Client,
    inputs: &Inputs,
    expected: &[String],
    duration: Duration,
    tally: &mut Tally,
) -> f64 {
    let start = Instant::now();
    let mut ok = 0u64;
    let mut i = 0usize;
    while start.elapsed() < duration {
        let k = i % inputs.raw.len();
        ok += u64::from(tally.note(verify(client.send(&inputs.raw[k]), &expected[k])));
        i += 1;
    }
    ok as f64 / start.elapsed().as_secs_f64()
}

/// `GET /metrics` must count at least every request sent.
fn check_metrics(client: &mut Client, tally: &mut Tally) {
    let reply = client.send(b"GET /metrics HTTP/1.1\r\nhost: odr.bench\r\n\r\n");
    let served = reply
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| Json::parse(std::str::from_utf8(&r.body).ok()?).ok())
        .and_then(|j| j.get("counters")?.get("proto.requests")?.as_f64());
    let sent = tally.sent;
    tally.note(match served {
        Some(n) if n >= sent as f64 => Ok(()),
        Some(n) => Err(format!("GET /metrics reports {n} proto.requests, {sent} were sent")),
        None => Err("GET /metrics gave no proto.requests counter".to_string()),
    });
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run the `decide-service` workload.
pub fn run(args: &Args, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    if args.trace {
        traced(args, spans, &mut report);
    } else {
        timed(args, spans, &mut report);
    }
    report
}

fn timed(args: &Args, spans: &mut Spans, report: &mut Report) {
    let root = spans.open("setup", None);
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (built, wall) = spans.time("decide.setup", Some(root), || {
            let study = Study::generate(SCALE, args.seed);
            let service = load_directory(&study);
            let (bodies, raw, facts) = build_bodies(&study);
            Inputs { study, service, bodies, raw, facts }
        });
        setup_s.push(wall.as_secs_f64());
        inputs = Some(built);
    }
    spans.close(root);
    let inputs = inputs.expect("at least one setup");
    let expected = expected(&resolve_all(&inputs));

    let server = inputs.service.serve("127.0.0.1:0", workers()).expect("bind a loopback port");
    let mut client = Client::new(server.addr());
    let mut tally = Tally::default();
    let phase = args.seconds / (2 * ROUNDS);
    let (mut p50s, mut p90s, mut p99s, mut rps) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut late, mut unsent, mut samples) = (Vec::new(), 0, 0);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let mut open = open_loop(&mut client, &inputs, &expected, phase, &mut tally, None);
        spans.record("loadgen.open_loop", None, None, start, open.latency_ms.len() as u64);
        samples += open.latency_ms.len();
        p50s.push(median(&mut open.latency_ms));
        p90s.push(quantile(&mut open.latency_ms, 0.9));
        p99s.push(quantile(&mut open.latency_ms, 0.99));
        late.extend(open.late_ms);
        unsent += open.unsent;
        let (start, sent) = (Instant::now(), tally.sent);
        rps.push(closed_loop(&mut client, &inputs, &expected, phase, &mut tally));
        spans.record("loadgen.closed_loop", None, None, start, tally.sent - sent);
    }
    check_metrics(&mut client, &mut tally);
    server.shutdown();
    finish_tally(tally, unsent, report);

    let (p50, p90, p99) = (median(&mut p50s), median(&mut p90s), median(&mut p99s));
    let rps = median(&mut rps);
    report.info("directory_files", inputs.service.directory_len() as f64, "count");
    report.info("server_workers", workers() as f64, "count");
    report.info("client_connects", client.connects as f64, "count");
    report.info("open_loop_rate", OPEN_RATE, "1/s");
    report.info("open_loop_samples", samples as f64, "count");
    report.info("loadgen.late_p99_ms", quantile(&mut late, 0.99), "ms");
    report.info("loadgen.unsent", unsent as f64, "count");
    report.info("decide_rps", rps, "1/s");
    report.info("decide_p50_ms", p50, "ms");
    report.info("decide_p90_ms", p90, "ms");
    report.info("decide_p99_ms", p99, "ms");
    report.metric("setup_s", median(&mut setup_s), "s");
    report.metric("throughput_per_s", rps, "1/s");
    report.metric("latency_p50_ms", p50, "ms");
    let rss = peak_rss_mb(report);
    report.metric("peak_rss_mb", rss, "MB");
}

/// Every request sent is an operation; the ones never sent count as
/// failed ones.
fn finish_tally(tally: Tally, unsent: u64, report: &mut Report) {
    report.ops(tally.sent + unsent, tally.failed + unsent);
    for e in tally.errors {
        report.note_error(e);
    }
    if unsent > 0 {
        report.note_error(format!("{unsent} open-loop requests were never sent"));
    }
}

/// Time `pass` (one call per body) until [`PROBE_TIME`] is spent;
/// returns microseconds per call.
fn drive(
    spans: &mut Spans,
    name: &'static str,
    calls_per_pass: usize,
    mut pass: impl FnMut() -> Duration,
) -> f64 {
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < PROBE_TIME {
        busy += pass();
        calls += calls_per_pass as u64;
    }
    spans.record(name, None, None, start, calls);
    busy.as_secs_f64() * 1e6 / calls as f64
}

fn traced(args: &Args, spans: &mut Spans, report: &mut Report) {
    let paper = scenario("paper-default", &[]);
    let root = spans.open("setup", None);
    let (reference, _) =
        spans.time("study.generate", Some(root), || Study::generate(SCALE, args.seed));
    let reference_digest = workload_digest(&reference.workload);
    drop(reference);
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (study, secs) = generate_split(SCALE, args.seed, &paper, spans, Some(root));
        for (part, s) in parts.iter_mut().zip(secs) {
            part.push(s);
        }
        let (service, _) = spans.time("odr.directory", Some(root), || load_directory(&study));
        let ((bodies, raw, facts), _) =
            spans.time("proto.bodies", Some(root), || build_bodies(&study));
        inputs = Some(Inputs { study, service, bodies, raw, facts });
    }
    spans.close(root);
    let inputs = inputs.expect("at least one setup");
    if workload_digest(&inputs.study.workload) != reference_digest {
        report.fail("split generation no longer reproduces Study::generate".to_string());
    }
    for (name, part) in
        ["trace.catalog_s", "trace.population_s", "trace.workload_s"].iter().zip(&mut parts)
    {
        report.metric(name, median(part), "s");
    }
    let resolved = resolve_all(&inputs);
    let expected = expected(&resolved);
    layer_probes(&inputs, &resolved, &expected, spans, report);

    let server = inputs.service.serve("127.0.0.1:0", workers()).expect("bind a loopback port");
    let mut client = Client::new(server.addr());
    let mut tally = Tally::default();
    let open =
        open_loop(&mut client, &inputs, &expected, args.seconds / 2, &mut tally, Some(spans));
    check_metrics(&mut client, &mut tally);
    server.shutdown();
    finish_tally(tally, open.unsent, report);
    let mut latency = open.latency_ms;
    let mut late = open.late_ms;
    let wire_us = median(&mut latency) * 1e3;
    let handle_us = report.value("proto.handle_us");
    report.metric("proto.wire_us", wire_us - handle_us, "us");
    report.metric("proto.wire_p90_ms", quantile(&mut latency, 0.9), "ms");
    report.metric("proto.wire_p99_ms", quantile(&mut latency, 0.99), "ms");
    report.metric("loadgen.late_p99_ms", quantile(&mut late, 0.99), "ms");
    report.metric("loadgen.unsent", open.unsent as f64, "count");
}

/// Time the public layer calls one `/decide` makes, over the exact
/// request bytes: HTTP parse, JSON parse, decision, JSON encode, response
/// write, and the whole in-process handler.
fn layer_probes(
    inputs: &Inputs,
    odr: &[OdrRequest],
    expected: &[String],
    spans: &mut Spans,
    report: &mut Report,
) {
    let n = inputs.raw.len();
    let engine = OdrEngine::default();
    let requests: Vec<Request> = inputs
        .raw
        .iter()
        .map(|raw| Request::read_from(&raw[..]).ok().flatten().expect("own request bytes parse"))
        .collect();
    let verdicts: Vec<Verdict> = odr.iter().map(|r| engine.decide(r)).collect();

    // In-process correctness: the handler must agree with the verdicts.
    let mut errors = Vec::new();
    let mut responses: Vec<Response> = Vec::with_capacity(n);
    for (k, request) in requests.iter().enumerate() {
        let response = inputs.service.handle(request.clone());
        let reply = Reply { status: response.status, body: response.body.to_vec() };
        if let Err(e) = verify(Ok(reply), &expected[k]) {
            errors.push(format!("in-process handle: {e}"));
        }
        responses.push(response);
    }
    errors.truncate(MAX_ERRORS);
    report.op(errors);

    let read_us = drive(spans, "proto.read", n, || {
        let start = Instant::now();
        for raw in &inputs.raw {
            black_box(Request::read_from(black_box(&raw[..])).ok());
        }
        start.elapsed()
    });
    let parse_us = drive(spans, "config.json_parse", n, || {
        let start = Instant::now();
        for body in &inputs.bodies {
            black_box(Json::parse(black_box(body)).ok());
        }
        start.elapsed()
    });
    let decide_us = drive(spans, "odr.decide", n, || {
        let start = Instant::now();
        for r in odr {
            black_box(engine.decide(black_box(r)));
        }
        start.elapsed()
    });
    let encode_us = drive(spans, "config.json_encode", n, || {
        let start = Instant::now();
        for (verdict, (class, _)) in verdicts.iter().zip(&inputs.facts) {
            black_box(verdict_to_json(black_box(verdict), *class).to_string_compact());
        }
        start.elapsed()
    });
    let mut buf = Vec::with_capacity(1024);
    let write_us = drive(spans, "proto.write", n, || {
        let start = Instant::now();
        for response in &responses {
            buf.clear();
            black_box(response.write_to(&mut buf).is_ok());
        }
        start.elapsed()
    });
    let handle_us = drive(spans, "proto.handle", n, || {
        let batch = requests.clone();
        let start = Instant::now();
        for request in batch {
            black_box(inputs.service.handle(request));
        }
        start.elapsed()
    });
    report.metric("proto.read_us", read_us, "us");
    report.metric("config.json_parse_us", parse_us, "us");
    report.metric("odr.decide_ns", decide_us * 1e3, "ns");
    report.metric("config.json_encode_us", encode_us, "us");
    report.metric("proto.write_us", write_us, "us");
    report.metric("proto.handle_us", handle_us, "us");
}
