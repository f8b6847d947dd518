//! Macro-benchmarks: one group per reproduced experiment, measuring the cost
//! of regenerating each table/figure end to end (at reduced scale, so the
//! suite stays in seconds; the `repro` binary runs the big versions).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odx::stats::fit::{fit_se, fit_zipf, rank_frequency};
use odx::stats::Ecdf;
use odx::telemetry::{Observers, Registry};
use odx::Study;

fn bench_fig05_file_sizes(c: &mut Criterion) {
    let study = Study::generate(0.01, 1);
    c.bench_function("fig05/catalog_generation_0.01", |b| {
        b.iter(|| black_box(Study::generate(0.01, 2).catalog.len()))
    });
    c.bench_function("fig05/size_cdf_summary", |b| {
        b.iter(|| {
            let ecdf = Ecdf::new(study.catalog.sizes_mb());
            black_box(ecdf.summary())
        })
    });
}

fn bench_fig06_07_fits(c: &mut Criterion) {
    let study = Study::generate(0.02, 3);
    let ranked = rank_frequency(&study.catalog.weekly_counts());
    c.bench_function("fig06/zipf_fit", |b| b.iter(|| black_box(fit_zipf(&ranked))));
    c.bench_function("fig07/se_fit", |b| b.iter(|| black_box(fit_se(&ranked, 0.01))));
}

fn bench_fig08_11_cloud_week(c: &mut Criterion) {
    let study = Study::generate(0.002, 4);
    let mut group = c.benchmark_group("fig08_11");
    group.sample_size(10);
    let scenario = Study::paper_default();
    let replay = || study.replay_cloud(&scenario, &Registry::new(), Observers::default()).0;
    group.bench_function("cloud_week_replay_0.002", |b| {
        b.iter(|| black_box(replay().counters.requests))
    });
    let report = replay();
    group.bench_function("fetch_speed_cdf", |b| {
        b.iter(|| black_box(report.fetch_speed_ecdf().median()))
    });
    group.finish();
}

fn bench_fig13_14_smartap(c: &mut Criterion) {
    let study = Study::generate(0.01, 5);
    let mut group = c.benchmark_group("fig13_14");
    group.sample_size(20);
    group.bench_function("smartap_replay_300", |b| {
        let scenario = Study::paper_default();
        let replay =
            || study.replay_smart_aps(300, &scenario, &Registry::new(), Observers::default());
        b.iter(|| black_box(replay().0.failure_ratio()))
    });
    group.finish();
}

fn bench_table2_sweep(c: &mut Criterion) {
    c.bench_function("table2/full_sweep", |b| {
        b.iter(|| black_box(odx::smartap::table2::table2().len()))
    });
}

fn bench_fig16_17_odr(c: &mut Criterion) {
    let study = Study::generate(0.01, 6);
    let mut group = c.benchmark_group("fig16_17");
    group.sample_size(20);
    group.bench_function("odr_eval_300", |b| {
        let scenario = Study::paper_default();
        let replay = || study.replay_odr(300, &scenario, &Registry::new(), Observers::default());
        b.iter(|| black_box(replay().0.impeded_ratio()))
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_fig05_file_sizes,
    bench_fig06_07_fits,
    bench_fig08_11_cloud_week,
    bench_fig13_14_smartap,
    bench_table2_sweep,
    bench_fig16_17_odr
);
criterion_main!(figures);
