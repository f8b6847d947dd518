//! DES hot-path benchmarks: event-queue churn on the timing wheel, one
//! cloud week shard, and a full scenario × seed sweep.
//! `ODX_BENCH_QUICK=1` (set by `ci.sh`) shrinks sample counts and scales so
//! the suite doubles as a smoke test.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odx::sim::{SimTime, TimingWheel};
use odx::sweep::{run_sweep, SweepSpec};
use odx::telemetry::TraceConfig;
use odx::Study;

fn quick() -> bool {
    std::env::var_os("ODX_BENCH_QUICK").is_some()
}

/// Deterministic churn workload: schedule with LCG-drawn times, cancel
/// ~60 % of events, pop interleaved, then drain. Mirrors the `repro bench`
/// subcommand so criterion and BENCH_pr3.json measure the same shape.
fn churn(n: usize) -> u64 {
    let mut q = TimingWheel::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut pops = 0u64;
    let mut now = 0u64;
    for i in 0..n as u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ids.push(q.schedule(SimTime::from_millis(now + (x >> 33) % 1_000_000), i));
        if i % 5 != 0 && i % 5 != 3 {
            q.cancel(ids[((x >> 20) as usize) % ids.len()]);
        }
        if i % 7 == 0 {
            if let Some((t, _)) = q.pop() {
                now = t.as_millis();
                pops += 1;
            }
        }
    }
    pops + std::iter::from_fn(|| q.pop()).count() as u64
}

fn bench_event_queue_churn(c: &mut Criterion) {
    let n: usize = if quick() { 10_000 } else { 50_000 };
    let mut group = c.benchmark_group("des");
    group.sample_size(if quick() { 2 } else { 10 });
    group.bench_function("event_queue_churn_wheel", |b| b.iter(|| black_box(churn(n))));
    group.finish();
}

fn bench_cloud_week_shard(c: &mut Criterion) {
    let scale = if quick() { 0.002 } else { 0.01 };
    let mut group = c.benchmark_group("des");
    group.sample_size(2);
    // Three variants of the same shard prove the lifecycle-tracing cost
    // model: `trace: None` must stay within 5% of the pre-tracing baseline
    // (the acceptance bar vs BENCH_pr3.json), sampled tracing within
    // budget, and full tracing is the worst case.
    for (name, trace) in [
        ("cloud_week_shard", None),
        ("cloud_week_shard_traced_1_16", Some(TraceConfig::sampled(16))),
        ("cloud_week_shard_traced_full", Some(TraceConfig::full())),
    ] {
        let trace = &trace;
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_sweep(&SweepSpec {
                    scenarios: vec![Study::scenarios().get("paper-default").unwrap().clone()],
                    seeds: vec![2015],
                    scale,
                    jobs: 1,
                    trace: *trace,
                    series_interval_ms: None,
                    progress: false,
                });
                black_box(report.total_events())
            })
        });
    }
    group.finish();
}

fn bench_full_sweep(c: &mut Criterion) {
    let scale = if quick() { 0.001 } else { 0.002 };
    let mut group = c.benchmark_group("des");
    group.sample_size(2);
    group.bench_function("full_sweep_6x2", |b| {
        b.iter(|| {
            let report = run_sweep(&SweepSpec {
                scenarios: Study::scenarios().all().to_vec(),
                seeds: vec![2015, 2016],
                scale,
                jobs: 4,
                trace: None,
                series_interval_ms: None,
                progress: false,
            });
            black_box(report.total_events())
        })
    });
    group.finish();
}

criterion_group!(des, bench_event_queue_churn, bench_cloud_week_shard, bench_full_sweep);
criterion_main!(des);
