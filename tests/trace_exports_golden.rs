//! Golden pin for the week's trace exports. At `paper-default`, seed 2015,
//! scale 0.01, the pre-downloading and fetching traces as `write_tsv`
//! writes them, and the six Fig 8/Fig 9 CDF series as `repro --out` dumps
//! them (`Ecdf::curve(512)`), each hash to a fixed FNV-1a-64 digest and
//! line count. The pins were taken while the replay still kept its
//! per-task records as vectors of structs, so they hold the column ledger
//! to the bytes those vectors exported.

use std::fmt::Write as _;

use odx::stats::Ecdf;
use odx::telemetry::{Observers, Registry};
use odx::trace::io::write_tsv;
use odx::Study;

/// `(export, FNV-1a-64 digest, line count)` for every pinned export.
const GOLDEN: [(&str, u64, usize); 8] = [
    ("predownload_trace.tsv", 0x22e2_51e7_eb3f_8904, 37_012),
    ("fetch_trace.tsv", 0xbaa1_9c2f_00e0_5504, 34_363),
    ("fig8_predownload_speed_cdf.tsv", 0x963b_55e6_3753_73a7, 513),
    ("fig8_fetch_speed_cdf.tsv", 0x25fd_e74f_4802_4663, 513),
    ("fig8_end_to_end_speed_cdf.tsv", 0x2ddc_dd01_2030_ee01, 513),
    ("fig9_predownload_delay_cdf.tsv", 0x481e_d339_4d12_fcf0, 513),
    ("fig9_fetch_delay_cdf.tsv", 0x607d_6b51_fe56_4975, 513),
    ("fig9_end_to_end_delay_cdf.tsv", 0x4e79_d57a_57b4_70f0, 513),
];

/// FNV-1a, 64-bit. Written out because std's `DefaultHasher` is not
/// stable across Rust releases.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn pin(name: &'static str, bytes: &[u8]) -> (&'static str, u64, usize) {
    (name, fnv1a64(bytes), bytes.iter().filter(|&&b| b == b'\n').count())
}

/// The CDF dump `repro --out` writes for one figure curve.
fn cdf_dump(ecdf: &Ecdf) -> String {
    let mut text = String::from("value\tcdf\n");
    for (x, p) in ecdf.curve(512) {
        writeln!(text, "{x}\t{p}").unwrap();
    }
    text
}

fn exports() -> Vec<(&'static str, u64, usize)> {
    let scenario = Study::paper_default();
    let study = Study::generate_scenario(0.01, 2015, &scenario);
    let report = study.replay_cloud(&scenario, &Registry::new(), Observers::default()).0;
    let mut predownloads = Vec::new();
    write_tsv(&mut predownloads, report.predownloads.iter()).unwrap();
    let mut fetches = Vec::new();
    write_tsv(&mut fetches, report.fetches.iter()).unwrap();
    let curves = [
        ("fig8_predownload_speed_cdf.tsv", report.predownload_speed_ecdf()),
        ("fig8_fetch_speed_cdf.tsv", report.fetch_speed_ecdf()),
        ("fig8_end_to_end_speed_cdf.tsv", report.end_to_end_speed_ecdf()),
        ("fig9_predownload_delay_cdf.tsv", report.predownload_delay_ecdf()),
        ("fig9_fetch_delay_cdf.tsv", report.fetch_delay_ecdf()),
        ("fig9_end_to_end_delay_cdf.tsv", report.end_to_end_delay_ecdf()),
    ];
    let mut pins =
        vec![pin("predownload_trace.tsv", &predownloads), pin("fetch_trace.tsv", &fetches)];
    pins.extend(curves.iter().map(|(name, ecdf)| pin(name, cdf_dump(ecdf).as_bytes())));
    pins
}

#[test]
fn heap_exports_match_the_golden() {
    assert_eq!(exports(), GOLDEN, "trace exports drifted");
}
