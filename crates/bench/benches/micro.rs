//! Micro-benchmarks for the core data structures and hot paths.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odx::cache::LruCache;
use odx::net::Isp;
use odx::odr::{ApContext, OdrEngine, OdrRequest};
use odx::proto::http::Request;
use odx::proto::Json;
use odx::sim::fluid::{max_min_rates, FlowSpec};
use odx::sim::{SimTime, TimingWheel};
use odx::smartap::ApModel;
use odx::stats::dist::{Dist, LogNormal, Zipf};
use odx::stats::Ecdf;
use odx::trace::{PopularityClass, Protocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_decision_engine(c: &mut Criterion) {
    let engine = OdrEngine::default();
    let req = OdrRequest {
        popularity: PopularityClass::Popular,
        protocol: Protocol::BitTorrent,
        cached_in_cloud: true,
        isp: Isp::Other,
        access_kbps: 400.0,
        ap: Some(ApContext::bench(ApModel::Newifi)),
    };
    c.bench_function("micro/odr_decide", |b| b.iter(|| black_box(engine.decide(&req))));
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("micro/event_queue_10k_schedule_pop", |b| {
        b.iter(|| {
            let mut q = TimingWheel::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_millis(i * 7919 % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

fn bench_lru(c: &mut Criterion) {
    c.bench_function("micro/lru_insert_touch_10k", |b| {
        b.iter(|| {
            let mut cache = LruCache::new(5_000.0);
            for i in 0..10_000u64 {
                cache.insert(i, 1.0);
                cache.touch(i / 2);
            }
            black_box(cache.len())
        })
    });
}

fn bench_fluid_solver(c: &mut Criterion) {
    let caps: Vec<f64> = (0..16).map(|i| 1000.0 + i as f64 * 37.0).collect();
    let flows: Vec<FlowSpec> = (0..200)
        .map(|i| FlowSpec::capped(vec![i % 16, (i * 7) % 16], 50.0 + (i % 9) as f64 * 25.0))
        .collect();
    c.bench_function("micro/max_min_200_flows_16_links", |b| {
        b.iter(|| black_box(max_min_rates(&caps, &flows)))
    });
}

fn bench_sampling(c: &mut Criterion) {
    let lognormal = LogNormal::from_median(400.0, 0.93);
    let zipf = Zipf::new(100_000, 1.034);
    let mut rng = StdRng::seed_from_u64(9);
    c.bench_function("micro/lognormal_sample", |b| {
        b.iter(|| black_box(lognormal.sample(&mut rng)))
    });
    c.bench_function("micro/zipf_sample_100k_support", |b| {
        b.iter(|| black_box(zipf.sample_rank(&mut rng)))
    });
}

fn bench_ecdf(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(10);
    let d = LogNormal::from_median(100.0, 1.0);
    let samples = d.sample_n(&mut rng, 100_000);
    c.bench_function("micro/ecdf_build_100k", |b| {
        b.iter(|| black_box(Ecdf::new(samples.clone()).median()))
    });
    let ecdf = Ecdf::new(samples);
    c.bench_function("micro/ecdf_quantile", |b| b.iter(|| black_box(ecdf.quantile(0.37))));
}

fn bench_wire(c: &mut Criterion) {
    let body = r#"{"link": "magnet:?xt=urn:btih:0123456789abcdef0123456789abcdef",
                   "isp": "unicom", "access_kbps": 512.0,
                   "ap": {"model": "newifi", "device": "usb-flash", "fs": "ntfs"}}"#;
    c.bench_function("micro/json_parse_decide_body", |b| {
        b.iter(|| black_box(Json::parse(body).unwrap()))
    });
    let raw = format!(
        "POST /decide HTTP/1.1\r\nhost: odr\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    c.bench_function("micro/http_parse_request", |b| {
        b.iter(|| black_box(Request::read_from(raw.as_bytes()).unwrap()))
    });
}

criterion_group!(
    micro,
    bench_decision_engine,
    bench_event_queue,
    bench_lru,
    bench_fluid_solver,
    bench_sampling,
    bench_ecdf,
    bench_wire
);
criterion_main!(micro);
