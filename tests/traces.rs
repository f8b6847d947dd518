//! Trace round-tripping: the replay's records serialize to the paper's
//! three trace schemas and read back losslessly.

use odx::cloud::WeekReport;
use odx::telemetry::{Observers, Registry};
use odx::trace::io::{read_tsv, write_tsv};
use odx::trace::records::{FetchRecord, PredownloadRecord, WorkloadRecord};
use odx::Study;

// Unobserved `paper-default` runs into a fresh registry.
fn replay_cloud(study: &Study) -> WeekReport {
    study.replay_cloud(&Study::paper_default(), &Registry::new(), Observers::default()).0
}

#[test]
fn predownload_and_fetch_traces_round_trip_through_tsv() {
    let study = Study::generate(0.002, 555);
    let report = replay_cloud(&study);

    // Pre-downloading trace.
    let mut buf = Vec::new();
    write_tsv(&mut buf, &report.predownloads[..500.min(report.predownloads.len())]).unwrap();
    let parsed: Vec<PredownloadRecord> = read_tsv(&mut buf.as_slice()).unwrap();
    assert_eq!(parsed.len(), 500.min(report.predownloads.len()));
    for (a, b) in parsed.iter().zip(&report.predownloads) {
        assert_eq!(a.cache_hit, b.cache_hit);
        assert_eq!(a.success, b.success);
        assert!((a.avg_kbps - b.avg_kbps).abs() < 1e-9);
        assert_eq!(a.start, b.start);
    }

    // Fetching trace.
    let mut buf = Vec::new();
    write_tsv(&mut buf, &report.fetches[..500.min(report.fetches.len())]).unwrap();
    let parsed: Vec<FetchRecord> = read_tsv(&mut buf.as_slice()).unwrap();
    for (a, b) in parsed.iter().zip(&report.fetches) {
        assert_eq!(a.user_id, b.user_id);
        assert_eq!(a.rejected, b.rejected);
        assert!((a.avg_kbps - b.avg_kbps).abs() < 1e-9);
    }
}

#[test]
fn workload_trace_round_trips() {
    let study = Study::generate(0.002, 556);
    let records: Vec<WorkloadRecord> = study
        .workload
        .requests()
        .iter()
        .take(300)
        .map(|r| {
            let user = study.population.user(r.user);
            let file = study.catalog.file(r.file);
            WorkloadRecord {
                user_id: r.user,
                isp: user.isp,
                access_kbps: user.reports_bandwidth.then_some(user.access_kbps),
                request_time: r.at,
                file_type: file.ftype,
                size_mb: file.size_mb,
                source_link: file.source_link(),
                protocol: file.protocol,
            }
        })
        .collect();

    let mut buf = Vec::new();
    write_tsv(&mut buf, &records).unwrap();
    let parsed: Vec<WorkloadRecord> = read_tsv(&mut buf.as_slice()).unwrap();
    assert_eq!(parsed, records);
}

#[test]
fn trace_statistics_survive_serialization() {
    // Recomputing a figure from the serialized trace gives the same answer
    // as from the in-memory records — the property an artifact-evaluation
    // reviewer would check.
    let study = Study::generate(0.002, 557);
    let report = replay_cloud(&study);
    let direct = report.fetch_speed_ecdf().median().unwrap();

    let mut buf = Vec::new();
    write_tsv(&mut buf, &report.fetches).unwrap();
    let parsed: Vec<FetchRecord> = read_tsv(&mut buf.as_slice()).unwrap();
    let reloaded =
        odx::stats::Ecdf::new(parsed.iter().map(|r| r.avg_kbps).collect()).median().unwrap();
    assert!((direct - reloaded).abs() < 1e-9);
}
